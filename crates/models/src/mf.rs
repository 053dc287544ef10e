//! Matrix factorization with BPR (the paper's `MF` and `MF(oi)` rows).

use crate::common::{
    add_l2, bpr_loss, dot_scores, train_pairs, Recommender, TrainConfig, TrainReport,
};
use gb_autograd::{shard_spans, ParamStore, ShardExecutor, Tape};
use gb_data::convert::{to_pairs, InteractionKind};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// BPR matrix factorization \[38\], \[27\].
///
/// The conversion `kind` selects between the paper's two ways of
/// flattening group-buying records into user–item interactions:
/// [`InteractionKind::InitiatorOnly`] is the `MF(oi)` row of Table III,
/// [`InteractionKind::BothRoles`] the stronger `MF` row.
pub struct Mf {
    cfg: TrainConfig,
    kind: InteractionKind,
    name: String,
    user_emb: Matrix,
    item_emb: Matrix,
}

impl Mf {
    /// Creates an untrained MF model.
    pub fn new(cfg: TrainConfig, kind: InteractionKind) -> Self {
        let name = match kind {
            InteractionKind::InitiatorOnly => "MF(oi)".to_string(),
            InteractionKind::BothRoles => "MF".to_string(),
        };
        Self {
            cfg,
            kind,
            name,
            user_emb: Matrix::zeros(0, 0),
            item_emb: Matrix::zeros(0, 0),
        }
    }

    /// The trained user embedding table (`P x d`).
    pub fn user_embeddings(&self) -> &Matrix {
        &self.user_emb
    }

    /// The trained item embedding table (`Q x d`).
    pub fn item_embeddings(&self) -> &Matrix {
        &self.item_emb
    }

    /// Sharded-parallel training: every mini-batch (negatives sampled on
    /// the calling thread) is split into `n_shards` contiguous spans
    /// whose gradients are computed on `executor`'s threads and reduced
    /// in fixed shard order before one Adam step.
    ///
    /// [`Recommender::fit`] is exactly `fit_sharded(train, 1,
    /// &ShardExecutor::serial())`; for a fixed shard count, every thread
    /// count produces bit-identical embeddings.
    pub fn fit_sharded(
        &mut self,
        train: &Dataset,
        n_shards: usize,
        executor: &ShardExecutor,
    ) -> TrainReport {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let u = store.add(
            "mf.user",
            init::xavier_uniform(train.n_users(), cfg.dim, &mut rng),
        );
        let v = store.add(
            "mf.item",
            init::xavier_uniform(train.n_items(), cfg.dim, &mut rng),
        );

        let pairs = to_pairs(train, self.kind);
        let report = train_pairs(
            &self.name,
            cfg,
            train,
            &pairs,
            &mut store,
            &mut rng,
            |store, batch| {
                let n = batch.len();
                let spans = shard_spans(n, n_shards);
                let shard_idx = batch.shards(&spans);
                executor.accumulate(store.len(), spans.len(), |s| {
                    let [shard_users, shard_pos, shard_neg] = &shard_idx[s];
                    let mut tape = Tape::new();
                    let ue = tape.gather_param(store, u, Arc::clone(shard_users));
                    let pe = tape.gather_param(store, v, Arc::clone(shard_pos));
                    let ne = tape.gather_param(store, v, Arc::clone(shard_neg));
                    let pos_s = tape.rowwise_dot(ue, pe);
                    let neg_s = tape.rowwise_dot(ue, ne);
                    let loss = bpr_loss(&mut tape, pos_s, neg_s, n);
                    let loss = add_l2(&mut tape, loss, &[ue, pe, ne], cfg.l2, n);
                    (tape.value(loss).get(0, 0), tape.backward(loss, store))
                })
            },
        );

        self.user_emb = store.value(u).clone();
        self.item_emb = store.value(v).clone();
        report
    }
}

impl Recommender for Mf {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        self.fit_sharded(train, 1, &ShardExecutor::serial())
    }
}

impl Scorer for Mf {
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        dot_scores(self.user_emb.row(user as usize), &self.item_emb, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::synth::{generate, SynthConfig};
    use gb_data::GroupBehavior;

    #[test]
    fn learns_to_separate_observed_from_unobserved() {
        // Two users with disjoint tastes; MF must rank own items higher.
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![]),
            GroupBehavior::new(0, 1, vec![]),
            GroupBehavior::new(1, 2, vec![]),
            GroupBehavior::new(1, 3, vec![]),
        ];
        let d = Dataset::new(2, 4, behaviors, vec![(0, 1)], vec![1; 4]);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 200,
            batch_size: 8,
            lr: 0.05,
            ..Default::default()
        };
        let mut mf = Mf::new(cfg, InteractionKind::BothRoles);
        mf.fit(&d);
        let s = mf.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[0] > s[3], "scores {s:?}");
        assert!(s[1] > s[2] && s[1] > s[3], "scores {s:?}");
    }

    #[test]
    fn oi_variant_ignores_participant_interactions() {
        // User 1 only ever participates; in (oi) its row gets no positive
        // signal, so training must not crash and scores stay finite.
        let behaviors = vec![GroupBehavior::new(0, 0, vec![1]); 3];
        let d = Dataset::new(2, 3, behaviors, vec![(0, 1)], vec![1; 3]);
        let cfg = TrainConfig {
            dim: 4,
            epochs: 5,
            batch_size: 4,
            ..Default::default()
        };
        let mut mf = Mf::new(cfg, InteractionKind::InitiatorOnly);
        let report = mf.fit(&d);
        assert!(report.final_loss.is_finite());
        assert!(mf.score_items(1, &[0, 1, 2]).iter().all(|s| s.is_finite()));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let d = generate(&SynthConfig::tiny());
        let cfg = TrainConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        };
        let mut a = Mf::new(cfg.clone(), InteractionKind::BothRoles);
        let mut b = Mf::new(cfg, InteractionKind::BothRoles);
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a.user_embeddings(), b.user_embeddings());
        assert_eq!(a.item_embeddings(), b.item_embeddings());
    }

    #[test]
    fn zero_pair_dataset_never_reaches_the_pool() {
        // No behaviors at all: every epoch is a zero-example epoch, which
        // `shuffled_batches` turns into zero batches, so the worker pool
        // must stay completely idle and the model still be usable
        // (untrained).
        let d = Dataset::new(2, 3, vec![], vec![(0, 1)], vec![1; 3]);
        let cfg = TrainConfig {
            dim: 4,
            epochs: 3,
            ..Default::default()
        };
        let mut mf = Mf::new(cfg, InteractionKind::BothRoles);
        let executor = ShardExecutor::new(4);
        let report = mf.fit_sharded(&d, 4, &executor);
        assert_eq!(executor.jobs_dispatched(), 0, "empty epochs woke the pool");
        assert_eq!(report.final_loss, 0.0);
        assert!(mf.score_items(1, &[0, 1, 2]).iter().all(|s| s.is_finite()));
    }

    #[test]
    fn names_distinguish_conversions() {
        let a = Mf::new(TrainConfig::default(), InteractionKind::InitiatorOnly);
        let b = Mf::new(TrainConfig::default(), InteractionKind::BothRoles);
        assert_eq!(a.name(), "MF(oi)");
        assert_eq!(b.name(), "MF");
    }
}
