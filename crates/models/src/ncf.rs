//! Neural Collaborative Filtering \[28\]: GMF ⊕ MLP.

use crate::common::{add_l2, bpr_loss, train_pairs, Recommender, TrainConfig, TrainReport};
use gb_autograd::{ParamId, ParamStore, Tape, Var};
use gb_data::convert::{to_pairs, InteractionKind};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// NeuMF architecture: a GMF branch (elementwise product of embeddings)
/// fused with an MLP branch (`[u || v] -> d -> d/2`), combined by a final
/// linear head. Trained with BPR on implicit feedback, both-roles
/// conversion (the setting that wins in Table III's CF block).
pub struct Ncf {
    cfg: TrainConfig,
    store: ParamStore,
    params: Option<NcfParams>,
}

struct NcfParams {
    ug: ParamId,
    vg: ParamId,
    um: ParamId,
    vm: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    head: ParamId,
}

impl Ncf {
    /// Creates an untrained NCF model.
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            store: ParamStore::new(),
            params: None,
        }
    }

    fn init_params(&self, train: &Dataset, store: &mut ParamStore, rng: &mut StdRng) -> NcfParams {
        let d = self.cfg.dim;
        let ug = store.add(
            "ncf.gmf.user",
            init::xavier_uniform(train.n_users(), d, rng),
        );
        let vg = store.add(
            "ncf.gmf.item",
            init::xavier_uniform(train.n_items(), d, rng),
        );
        let um = store.add(
            "ncf.mlp.user",
            init::xavier_uniform(train.n_users(), d, rng),
        );
        let vm = store.add(
            "ncf.mlp.item",
            init::xavier_uniform(train.n_items(), d, rng),
        );
        let w1 = store.add("ncf.mlp.w1", init::xavier_uniform(2 * d, d, rng));
        let b1 = store.add("ncf.mlp.b1", Matrix::zeros(1, d));
        let w2 = store.add("ncf.mlp.w2", init::xavier_uniform(d, d / 2, rng));
        let b2 = store.add("ncf.mlp.b2", Matrix::zeros(1, d / 2));
        let head = store.add("ncf.head", init::xavier_uniform(d + d / 2, 1, rng));
        NcfParams {
            ug,
            vg,
            um,
            vm,
            w1,
            b1,
            w2,
            b2,
            head,
        }
    }

    /// Scores a batch of (user, item) index lists on a tape.
    fn forward(
        store: &ParamStore,
        p: &NcfParams,
        tape: &mut Tape,
        users: Arc<Vec<u32>>,
        items: Arc<Vec<u32>>,
    ) -> (Var, Vec<Var>) {
        let ug = tape.gather_param(store, p.ug, users.clone());
        let vg = tape.gather_param(store, p.vg, items.clone());
        let um = tape.gather_param(store, p.um, users);
        let vm = tape.gather_param(store, p.vm, items);

        let gmf = tape.mul(ug, vg);

        let mlp_in = tape.concat_cols(&[um, vm]);
        let w1 = tape.param(store, p.w1);
        let b1 = tape.param(store, p.b1);
        let z1_lin = tape.matmul(mlp_in, w1);
        let z1_b = tape.add_bias(z1_lin, b1);
        let z1 = tape.leaky_relu(z1_b, 0.0); // ReLU as in the paper

        let w2 = tape.param(store, p.w2);
        let b2 = tape.param(store, p.b2);
        let z2_lin = tape.matmul(z1, w2);
        let z2_b = tape.add_bias(z2_lin, b2);
        let z2 = tape.leaky_relu(z2_b, 0.0);

        let feat = tape.concat_cols(&[gmf, z2]);
        let head = tape.param(store, p.head);
        let score = tape.matmul(feat, head);
        (score, vec![ug, vg, um, vm])
    }
}

impl Recommender for Ncf {
    fn name(&self) -> &str {
        "NCF"
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let p = self.init_params(train, &mut store, &mut rng);
        let pairs = to_pairs(train, InteractionKind::BothRoles);
        let report = train_pairs(
            &self.cfg,
            train,
            &pairs,
            &mut store,
            &mut rng,
            |store, batch| {
                let n = batch.len();
                let users = Arc::new(batch.users);
                let mut tape = Tape::new();
                let (pos_s, mut reg) =
                    Self::forward(store, &p, &mut tape, users.clone(), Arc::new(batch.pos));
                let (neg_s, reg_n) =
                    Self::forward(store, &p, &mut tape, users, Arc::new(batch.neg));
                reg.extend(reg_n);
                let loss = bpr_loss(&mut tape, pos_s, neg_s, n);
                let loss = add_l2(&mut tape, loss, &reg, self.cfg.l2, n);
                (tape.value(loss).get(0, 0), tape.backward(loss, store))
            },
        );
        self.store = store;
        self.params = Some(p);
        report
    }
}

impl Scorer for Ncf {
    /// Runs the training forward on a fresh tape and reads its value.
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let p = self.params.as_ref().expect("model not fitted");
        let mut tape = Tape::new();
        let (scores, _) = Self::forward(
            &self.store,
            p,
            &mut tape,
            Arc::new(vec![user; items.len()]),
            Arc::new(items.to_vec()),
        );
        tape.value(scores).as_slice().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::GroupBehavior;

    fn toy_dataset() -> Dataset {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(0, 1, vec![]),
            GroupBehavior::new(1, 2, vec![]),
            GroupBehavior::new(1, 3, vec![]),
        ];
        Dataset::new(2, 4, behaviors, vec![(0, 1)], vec![1; 4])
    }

    #[test]
    fn learns_disjoint_tastes() {
        let cfg = TrainConfig {
            dim: 8,
            epochs: 250,
            batch_size: 8,
            lr: 0.02,
            ..Default::default()
        };
        let mut m = Ncf::new(cfg);
        m.fit(&toy_dataset());
        let s = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[1] > s[3], "scores {s:?}");
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn scoring_before_fit_panics() {
        let m = Ncf::new(TrainConfig::default());
        m.score_items(0, &[0]);
    }
}
