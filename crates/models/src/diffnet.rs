//! DiffNet \[11\]: layered social influence diffusion.

use crate::common::{
    add_l2, bpr_loss, dot_scores, train_pairs, Recommender, TrainConfig, TrainReport,
};
use gb_autograd::{ParamId, ParamStore, Tape, Var};
use gb_data::convert::{to_pairs, InteractionKind};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_graph::{Bipartite, Csr};
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// DiffNet simulates the recursive social-influence diffusion process:
/// starting from the raw user embedding, each diffusion layer fuses a
/// user's state with the mean of their friends' states
/// (`h^{k+1} = (h^k + mean_{f∈S(u)} h^k_f) / 2`); the final user
/// representation additionally absorbs the mean of interacted item
/// embeddings, and items are scored by inner product — the structure of
/// Wu et al.'s model with mean-pooling fusion.
pub struct DiffNet {
    cfg: TrainConfig,
    /// Diffusion depth (the paper tunes it; default 2).
    depth: usize,
    user_final: Matrix,
    item_emb: Matrix,
}

/// Full-graph diffusion; returns the final user representation node.
fn diffuse(
    store: &ParamStore,
    u: ParamId,
    v: ParamId,
    tape: &mut Tape,
    social: &Csr,
    graph: &Bipartite,
    depth: usize,
) -> Var {
    let mut h = tape.param(store, u);
    for _ in 0..depth {
        let social_agg = tape.segment_mean(h, social.offsets(), social.members());
        let summed = tape.add(h, social_agg);
        // Halve to keep magnitudes stable across layers.
        h = tape.scale(summed, 0.5);
    }
    let v_full = tape.param(store, v);
    let item_agg = tape.segment_mean(
        v_full,
        graph.user_to_item().offsets(),
        graph.user_to_item().members(),
    );
    tape.add(h, item_agg)
}

impl DiffNet {
    /// Creates an untrained DiffNet with diffusion depth 2.
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            depth: 2,
            user_final: Matrix::zeros(0, 0),
            item_emb: Matrix::zeros(0, 0),
        }
    }
}

impl Recommender for DiffNet {
    fn name(&self) -> &str {
        "DiffNet"
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let u = store.add(
            "diffnet.user",
            init::xavier_uniform(train.n_users(), cfg.dim, &mut rng),
        );
        let v = store.add(
            "diffnet.item",
            init::xavier_uniform(train.n_items(), cfg.dim, &mut rng),
        );

        let pairs = to_pairs(train, InteractionKind::BothRoles);
        let graph = Bipartite::from_interactions(train.n_users(), train.n_items(), &pairs);
        let social = train.social().csr();
        let report = train_pairs(
            "DiffNet",
            cfg,
            train,
            &pairs,
            &mut store,
            &mut rng,
            |store, batch| {
                let n = batch.len();
                let mut tape = Tape::new();
                let u_final = diffuse(store, u, v, &mut tape, social, &graph, self.depth);
                let ue = tape.gather(u_final, Arc::new(batch.users));
                let pe = tape.gather_param(store, v, Arc::new(batch.pos));
                let ne = tape.gather_param(store, v, Arc::new(batch.neg));
                let pos_s = tape.rowwise_dot(ue, pe);
                let neg_s = tape.rowwise_dot(ue, ne);
                let loss = bpr_loss(&mut tape, pos_s, neg_s, n);
                let loss = add_l2(&mut tape, loss, &[ue, pe, ne], cfg.l2, n);
                (tape.value(loss).get(0, 0), tape.backward(loss, store))
            },
        );

        let mut tape = Tape::new();
        let u_final = diffuse(&store, u, v, &mut tape, social, &graph, self.depth);
        self.user_final = tape.value(u_final).clone();
        self.item_emb = store.value(v).clone();
        report
    }
}

impl Scorer for DiffNet {
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        dot_scores(self.user_final.row(user as usize), &self.item_emb, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::GroupBehavior;

    #[test]
    fn learns_preferences_with_social_diffusion() {
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
        let mut m = DiffNet::new(cfg);
        m.fit(&d);
        let s = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[1] > s[3], "scores {s:?}");
    }

    #[test]
    fn friendless_users_still_get_finite_scores() {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(1, 1, vec![]),
        ];
        let d = Dataset::new(2, 2, behaviors, vec![], vec![1; 2]);
        let cfg = TrainConfig {
            dim: 4,
            epochs: 3,
            ..Default::default()
        };
        let mut m = DiffNet::new(cfg);
        m.fit(&d);
        assert!(m.score_items(0, &[0, 1]).iter().all(|s| s.is_finite()));
    }

    #[test]
    fn friends_influence_scores() {
        // User 1 has no own interactions with item 0, but their friend
        // (user 0) strongly prefers it; diffusion should lift item 0's
        // score for user 1 above that of an item nobody interacted with.
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(1, 1, vec![]),
        ];
        let d = Dataset::new(2, 3, behaviors, vec![(0, 1)], vec![1; 3]);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 150,
            batch_size: 8,
            lr: 0.05,
            ..Default::default()
        };
        let mut m = DiffNet::new(cfg);
        m.fit(&d);
        let s = m.score_items(1, &[0, 2]);
        assert!(
            s[0] > s[1],
            "friend-endorsed item should outrank cold item: {s:?}"
        );
    }
}
