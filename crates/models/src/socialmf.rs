//! SocialMF \[1\]: matrix factorization with trust propagation.

use crate::common::{
    add_l2, bpr_loss, dot_scores, train_pairs, Recommender, TrainConfig, TrainReport,
};
use gb_autograd::{ParamStore, Tape};
use gb_data::convert::{to_pairs, InteractionKind};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// SocialMF: BPR matrix factorization plus the social regularization term
/// of Jamali & Ester \[1\], which pulls each user's embedding toward the
/// mean of their friends' embeddings:
/// `λ_s Σ_m ||u_m − mean_{f ∈ S(m)} u_f||²`.
pub struct SocialMf {
    cfg: TrainConfig,
    /// Strength of the trust-propagation term (`λ_s`).
    social_reg: f32,
    user_emb: Matrix,
    item_emb: Matrix,
}

impl SocialMf {
    /// Creates an untrained SocialMF model; `social_reg` is the trust-
    /// propagation coefficient (tuned like the paper tunes its
    /// regularizers).
    pub fn new(cfg: TrainConfig, social_reg: f32) -> Self {
        Self {
            cfg,
            social_reg,
            user_emb: Matrix::zeros(0, 0),
            item_emb: Matrix::zeros(0, 0),
        }
    }
}

impl Recommender for SocialMf {
    fn name(&self) -> &str {
        "SocialMF"
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let u = store.add(
            "socialmf.user",
            init::xavier_uniform(train.n_users(), cfg.dim, &mut rng),
        );
        let v = store.add(
            "socialmf.item",
            init::xavier_uniform(train.n_items(), cfg.dim, &mut rng),
        );

        let pairs = to_pairs(train, InteractionKind::BothRoles);
        let social = train.social().csr();
        let report = train_pairs(cfg, train, &pairs, &mut store, &mut rng, |store, batch| {
            let n = batch.len();
            let users = Arc::new(batch.users);
            let mut tape = Tape::new();
            let u_full = tape.param(store, u);
            let ue = tape.gather(u_full, users.clone());
            let pe = tape.gather_param(store, v, Arc::new(batch.pos));
            let ne = tape.gather_param(store, v, Arc::new(batch.neg));
            let pos_s = tape.rowwise_dot(ue, pe);
            let neg_s = tape.rowwise_dot(ue, ne);
            let loss = bpr_loss(&mut tape, pos_s, neg_s, n);
            let loss = add_l2(&mut tape, loss, &[ue, pe, ne], cfg.l2, n);

            // Trust propagation: batch users toward their friend mean.
            // Users without friends have a zero friend-mean; we still
            // regularize them toward zero, which is the shrinkage
            // SocialMF applies to isolated users.
            let friend_mean = tape.segment_mean(u_full, social.offsets(), social.members());
            let fm_batch = tape.gather(friend_mean, users);
            let gap = tape.sub(ue, fm_batch);
            let loss = add_l2(&mut tape, loss, &[gap], self.social_reg, n);
            (tape.value(loss).get(0, 0), tape.backward(loss, store))
        });

        self.user_emb = store.value(u).clone();
        self.item_emb = store.value(v).clone();
        report
    }
}

impl Scorer for SocialMf {
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        dot_scores(self.user_emb.row(user as usize), &self.item_emb, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::GroupBehavior;
    use gb_tensor::kernels;

    #[test]
    fn social_reg_pulls_friends_together() {
        // Users 0 and 1 are friends with identical interactions; user 2 is
        // isolated with opposite interactions. With strong social
        // regularization, 0 and 1 end closer than 0 and 2.
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(1, 0, vec![]),
            GroupBehavior::new(2, 1, vec![]),
            GroupBehavior::new(0, 2, vec![]),
            GroupBehavior::new(1, 2, vec![]),
            GroupBehavior::new(2, 3, vec![]),
        ];
        let d = Dataset::new(3, 4, behaviors, vec![(0, 1)], vec![1; 4]);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 120,
            batch_size: 16,
            lr: 0.02,
            ..Default::default()
        };
        let mut m = SocialMf::new(cfg, 0.5);
        m.fit(&d);
        let sim01 = kernels::cosine_similarity(m.user_emb.row(0), m.user_emb.row(1));
        let sim02 = kernels::cosine_similarity(m.user_emb.row(0), m.user_emb.row(2));
        assert!(sim01 > sim02, "sim01 = {sim01}, sim02 = {sim02}");
    }

    #[test]
    fn still_learns_preferences() {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(0, 1, vec![]),
            GroupBehavior::new(1, 2, vec![]),
            GroupBehavior::new(1, 3, vec![]),
        ];
        let d = Dataset::new(2, 4, behaviors, vec![], vec![1; 4]);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 200,
            batch_size: 8,
            lr: 0.05,
            ..Default::default()
        };
        let mut m = SocialMf::new(cfg, 0.01);
        m.fit(&d);
        let s = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[1] > s[3], "scores {s:?}");
    }
}
