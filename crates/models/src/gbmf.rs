//! GBMF: the paper's purpose-built group-buying matrix factorization
//! baseline (the strongest baseline in Table III).

use crate::common::{add_l2, bpr_loss, train_pairs, Recommender, TrainConfig, TrainReport};
use gb_autograd::{ParamStore, Tape, Var};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_tensor::{init, kernels, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// GBMF configuration: the shared hyper-parameters plus the role
/// coefficient `α` of the Eq. 9-style prediction.
#[derive(Clone, Debug)]
pub struct GbmfConfig {
    /// Shared training hyper-parameters.
    pub base: TrainConfig,
    /// Role coefficient balancing initiator vs. participant interest.
    pub alpha: f32,
}

impl Default for GbmfConfig {
    fn default() -> Self {
        Self {
            base: TrainConfig::default(),
            alpha: 0.5,
        }
    }
}

/// GBMF scores a launch as the paper describes: a weighted sum of the
/// initiator's own dot-product interest and the mean of their friends'
/// interest in the item,
/// `y_mn = (1-α) u_m·v_n + α · mean_{f ∈ S(m)} (u_f·v_n)`,
/// trained with BPR over observed launches.
pub struct Gbmf {
    cfg: GbmfConfig,
    user_emb: Matrix,
    item_emb: Matrix,
    /// Per-user mean of friends' embeddings (zero row for loners).
    friend_mean: Matrix,
}

/// Tape-level Eq. 9 score for aligned `(user, item)` lists given the full
/// user table and the friend-mean table.
fn eq9_score(
    tape: &mut Tape,
    u_full: Var,
    friend_mean: Var,
    item_rows: Var,
    users: Arc<Vec<u32>>,
    alpha: f32,
) -> Var {
    let ue = tape.gather(u_full, users.clone());
    let fe = tape.gather(friend_mean, users);
    let own = tape.rowwise_dot(ue, item_rows);
    let social = tape.rowwise_dot(fe, item_rows);
    let own_w = tape.scale(own, 1.0 - alpha);
    let social_w = tape.scale(social, alpha);
    tape.add(own_w, social_w)
}

impl Gbmf {
    /// Creates an untrained GBMF model.
    pub fn new(cfg: GbmfConfig) -> Self {
        Self {
            cfg,
            user_emb: Matrix::zeros(0, 0),
            item_emb: Matrix::zeros(0, 0),
            friend_mean: Matrix::zeros(0, 0),
        }
    }

    /// The role coefficient α.
    pub fn alpha(&self) -> f32 {
        self.cfg.alpha
    }

    /// The trained `(user, item, friend_mean)` tables (empty pre-fit).
    pub(crate) fn tables(&self) -> (&Matrix, &Matrix, &Matrix) {
        (&self.user_emb, &self.item_emb, &self.friend_mean)
    }
}

impl Recommender for Gbmf {
    fn name(&self) -> &str {
        "GBMF"
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        let base = &self.cfg.base;
        let alpha = self.cfg.alpha;
        let mut rng = StdRng::seed_from_u64(base.seed);
        let mut store = ParamStore::new();
        let u = store.add(
            "gbmf.user",
            init::xavier_uniform(train.n_users(), base.dim, &mut rng),
        );
        let v = store.add(
            "gbmf.item",
            init::xavier_uniform(train.n_items(), base.dim, &mut rng),
        );

        // GBMF trains on launches (initiator-item), the task's positives.
        let launches: Vec<(u32, u32)> = train
            .behaviors()
            .iter()
            .map(|b| (b.initiator, b.item))
            .collect();
        let social = train.social().csr();

        let report = train_pairs(
            base,
            train,
            &launches,
            &mut store,
            &mut rng,
            |store, batch| {
                let n = batch.len();
                let users = Arc::new(batch.users);
                let mut tape = Tape::new();
                let u_full = tape.param(store, u);
                let friend_mean = tape.segment_mean(u_full, social.offsets(), social.members());
                let pe = tape.gather_param(store, v, Arc::new(batch.pos));
                let ne = tape.gather_param(store, v, Arc::new(batch.neg));
                let pos_s = eq9_score(&mut tape, u_full, friend_mean, pe, users.clone(), alpha);
                let neg_s = eq9_score(&mut tape, u_full, friend_mean, ne, users.clone(), alpha);
                let loss = bpr_loss(&mut tape, pos_s, neg_s, n);
                let ue = tape.gather(u_full, users);
                let loss = add_l2(&mut tape, loss, &[ue, pe, ne], base.l2, n);
                (tape.value(loss).get(0, 0), tape.backward(loss, store))
            },
        );

        self.user_emb = store.value(u).clone();
        self.item_emb = store.value(v).clone();
        let (offsets, members) = social.segments();
        self.friend_mean = kernels::segment_mean(&self.user_emb, offsets, members);
        report
    }
}

impl Scorer for Gbmf {
    /// Eq. 9 via the lane-blocked [`kernels::dot`] — the identical
    /// accumulation order the serving kernel uses, so exported snapshots
    /// score bit-for-bit like this method.
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let own = self.user_emb.row(user as usize);
        let social = self.friend_mean.row(user as usize);
        let a = self.cfg.alpha;
        items
            .iter()
            .map(|&i| {
                let row = self.item_emb.row(i as usize);
                let o = kernels::dot(own, row);
                let s = kernels::dot(social, row);
                (1.0 - a) * o + a * s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::GroupBehavior;

    fn toy() -> Dataset {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![1]),
            GroupBehavior::new(0, 1, vec![1]),
            GroupBehavior::new(2, 2, vec![3]),
            GroupBehavior::new(2, 3, vec![3]),
        ];
        Dataset::new(4, 4, behaviors, vec![(0, 1), (2, 3)], vec![1; 4])
    }

    #[test]
    fn learns_launch_preferences() {
        let cfg = GbmfConfig {
            base: TrainConfig {
                dim: 8,
                epochs: 200,
                batch_size: 8,
                lr: 0.03,
                ..Default::default()
            },
            alpha: 0.4,
        };
        let mut m = Gbmf::new(cfg);
        m.fit(&toy());
        let s = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[1] > s[3], "scores {s:?}");
    }

    #[test]
    fn alpha_zero_equals_pure_dot_product() {
        let cfg = GbmfConfig {
            base: TrainConfig {
                dim: 8,
                epochs: 10,
                batch_size: 8,
                ..Default::default()
            },
            alpha: 0.0,
        };
        let mut m = Gbmf::new(cfg);
        m.fit(&toy());
        let scores = m.score_items(0, &[0, 1]);
        let manual: Vec<f32> = [0u32, 1]
            .iter()
            .map(|&i| {
                m.user_emb
                    .row(0)
                    .iter()
                    .zip(m.item_emb.row(i as usize))
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        for (s, e) in scores.iter().zip(&manual) {
            assert!((s - e).abs() < 1e-6);
        }
    }

    #[test]
    fn alpha_one_scores_only_through_friends() {
        let cfg = GbmfConfig {
            base: TrainConfig {
                dim: 8,
                epochs: 10,
                batch_size: 8,
                ..Default::default()
            },
            alpha: 1.0,
        };
        let mut m = Gbmf::new(cfg);
        m.fit(&toy());
        // User 0's friend is user 1, so the score must equal u_1 · v.
        let scores = m.score_items(0, &[2]);
        let manual: f32 = m
            .user_emb
            .row(1)
            .iter()
            .zip(m.item_emb.row(2))
            .map(|(a, b)| a * b)
            .sum();
        assert!((scores[0] - manual).abs() < 1e-6);
    }

    #[test]
    fn loner_with_alpha_one_gets_zero_scores() {
        let d = Dataset::new(
            2,
            2,
            vec![
                GroupBehavior::new(0, 0, vec![]),
                GroupBehavior::new(1, 1, vec![]),
            ],
            vec![], // no friendships at all
            vec![1; 2],
        );
        let cfg = GbmfConfig {
            base: TrainConfig {
                dim: 4,
                epochs: 3,
                ..Default::default()
            },
            alpha: 1.0,
        };
        let mut m = Gbmf::new(cfg);
        m.fit(&d);
        assert!(m.score_items(0, &[0, 1]).iter().all(|&s| s == 0.0));
    }
}
