//! Neural Graph Collaborative Filtering \[25\].

use crate::common::{
    add_l2, bpr_loss, dot_scores, train_pairs, Recommender, TrainConfig, TrainReport,
};
use gb_autograd::{ParamId, ParamStore, Tape, Var};
use gb_data::convert::{to_pairs, InteractionKind};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_graph::Bipartite;
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// NGCF with two propagation layers on the user–item bipartite graph.
///
/// Per layer: `e' = LeakyReLU(W1 (e + agg) + W2 (agg ⊙ e) + b)` where
/// `agg` is the neighbourhood mean — the mean-normalized form of NGCF's
/// message construction (self-connection + bi-interaction term). Layer
/// outputs are concatenated as in the original. Trained with BPR on the
/// both-roles conversion.
pub struct Ngcf {
    cfg: TrainConfig,
    n_layers: usize,
    user_final: Matrix,
    item_final: Matrix,
}

struct NgcfParams {
    u: ParamId,
    v: ParamId,
    w1: Vec<ParamId>,
    w2: Vec<ParamId>,
    b: Vec<ParamId>,
}

impl Ngcf {
    /// Creates an untrained NGCF model with the paper's L = 2.
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            n_layers: 2,
            user_final: Matrix::zeros(0, 0),
            item_final: Matrix::zeros(0, 0),
        }
    }

    fn init_params(&self, train: &Dataset, store: &mut ParamStore, rng: &mut StdRng) -> NgcfParams {
        let d = self.cfg.dim;
        let u = store.add("ngcf.user", init::xavier_uniform(train.n_users(), d, rng));
        let v = store.add("ngcf.item", init::xavier_uniform(train.n_items(), d, rng));
        let (mut w1, mut w2, mut b) = (Vec::new(), Vec::new(), Vec::new());
        for l in 0..self.n_layers {
            w1.push(store.add(format!("ngcf.w1.{l}"), init::xavier_uniform(d, d, rng)));
            w2.push(store.add(format!("ngcf.w2.{l}"), init::xavier_uniform(d, d, rng)));
            b.push(store.add(format!("ngcf.b.{l}"), Matrix::zeros(1, d)));
        }
        NgcfParams { u, v, w1, w2, b }
    }

    /// Full-graph propagation; returns concatenated (user, item) finals.
    fn propagate(
        store: &ParamStore,
        p: &NgcfParams,
        tape: &mut Tape,
        graph: &Bipartite,
        n_layers: usize,
    ) -> (Var, Var) {
        let mut u_cur = tape.param(store, p.u);
        let mut v_cur = tape.param(store, p.v);
        let mut u_all = vec![u_cur];
        let mut v_all = vec![v_cur];
        for l in 0..n_layers {
            let w1 = tape.param(store, p.w1[l]);
            let w2 = tape.param(store, p.w2[l]);
            let b = tape.param(store, p.b[l]);

            let agg_u = tape.segment_mean(
                v_cur,
                graph.user_to_item().offsets(),
                graph.user_to_item().members(),
            );
            let self_u = tape.add(u_cur, agg_u);
            let t1u = tape.matmul(self_u, w1);
            let bi_u = tape.mul(agg_u, u_cur);
            let t2u = tape.matmul(bi_u, w2);
            let sum_u = tape.add(t1u, t2u);
            let lin_u = tape.add_bias(sum_u, b);
            let u_next = tape.leaky_relu(lin_u, 0.2);

            let agg_v = tape.segment_mean(
                u_cur,
                graph.item_to_user().offsets(),
                graph.item_to_user().members(),
            );
            let self_v = tape.add(v_cur, agg_v);
            let t1v = tape.matmul(self_v, w1);
            let bi_v = tape.mul(agg_v, v_cur);
            let t2v = tape.matmul(bi_v, w2);
            let sum_v = tape.add(t1v, t2v);
            let lin_v = tape.add_bias(sum_v, b);
            let v_next = tape.leaky_relu(lin_v, 0.2);

            u_cur = u_next;
            v_cur = v_next;
            u_all.push(u_cur);
            v_all.push(v_cur);
        }
        (tape.concat_cols(&u_all), tape.concat_cols(&v_all))
    }
}

impl Recommender for Ngcf {
    fn name(&self) -> &str {
        "NGCF"
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let p = self.init_params(train, &mut store, &mut rng);
        let pairs = to_pairs(train, InteractionKind::BothRoles);
        let graph = Bipartite::from_interactions(train.n_users(), train.n_items(), &pairs);
        let report = train_pairs(
            "NGCF",
            &self.cfg,
            train,
            &pairs,
            &mut store,
            &mut rng,
            |store, batch| {
                let n = batch.len();
                let mut tape = Tape::new();
                let (u_final, v_final) =
                    Self::propagate(store, &p, &mut tape, &graph, self.n_layers);
                let ue = tape.gather(u_final, Arc::new(batch.users));
                let pe = tape.gather(v_final, Arc::new(batch.pos));
                let ne = tape.gather(v_final, Arc::new(batch.neg));
                let pos_s = tape.rowwise_dot(ue, pe);
                let neg_s = tape.rowwise_dot(ue, ne);
                let loss = bpr_loss(&mut tape, pos_s, neg_s, n);
                let loss = add_l2(&mut tape, loss, &[ue, pe, ne], self.cfg.l2, n);
                (tape.value(loss).get(0, 0), tape.backward(loss, store))
            },
        );

        // Cache final embeddings with one last propagation.
        let mut tape = Tape::new();
        let (u_final, v_final) = Self::propagate(&store, &p, &mut tape, &graph, self.n_layers);
        self.user_final = tape.value(u_final).clone();
        self.item_final = tape.value(v_final).clone();
        report
    }
}

impl Scorer for Ngcf {
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        dot_scores(self.user_final.row(user as usize), &self.item_final, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::GroupBehavior;

    #[test]
    fn learns_simple_preference_structure() {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(0, 1, vec![]),
            GroupBehavior::new(1, 2, vec![]),
            GroupBehavior::new(1, 3, vec![]),
        ];
        let d = Dataset::new(2, 4, behaviors, vec![(0, 1)], vec![1; 4]);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 150,
            batch_size: 8,
            lr: 0.02,
            ..Default::default()
        };
        let mut m = Ngcf::new(cfg);
        m.fit(&d);
        let s = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[1] > s[3], "scores {s:?}");
    }

    #[test]
    fn final_embedding_width_is_l_plus_one_times_d() {
        let behaviors = vec![GroupBehavior::new(0, 0, vec![])];
        let d = Dataset::new(2, 2, behaviors, vec![], vec![1; 2]);
        let cfg = TrainConfig {
            dim: 4,
            epochs: 1,
            ..Default::default()
        };
        let mut m = Ngcf::new(cfg);
        m.fit(&d);
        assert_eq!(m.user_final.cols(), 4 * 3); // d * (L + 1)
        assert_eq!(m.item_final.cols(), 4 * 3);
    }
}
