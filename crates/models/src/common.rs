//! Shared training infrastructure for all recommenders.

use gb_autograd::{Adam, AdamConfig, Gradients, ParamStore, Tape, Var};
use gb_data::{Dataset, NegativeSampler};
use gb_eval::Scorer;
use gb_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::sync::Arc;
use std::time::Instant;

/// Hyper-parameters shared by every model in the comparison.
///
/// Matches the experimental settings of Sec. IV-A.2: embedding size 32,
/// negative-sampling ratio 1:1, mini-batches, Xavier initialization. The
/// epoch budget defaults to a scaled-down value suitable for the synthetic
/// dataset (the paper trains 500 epochs on the full Beibei data; the
/// experiment binaries override this per run).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Embedding size `d` (the paper fixes 32 for all methods).
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 4096; scaled datasets use less).
    pub batch_size: usize,
    /// Negative samples per observed interaction (paper: 1).
    pub neg_ratio: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 regularization coefficient applied to batch embeddings.
    pub l2: f32,
    /// RNG seed controlling init, shuffling, and negative sampling.
    pub seed: u64,
    /// Print per-epoch loss to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            epochs: 30,
            batch_size: 1024,
            neg_ratio: 1,
            lr: 5e-3,
            l2: 1e-5,
            seed: 42,
            verbose: false,
        }
    }
}

/// Summary of one training run.
#[derive(Clone, Copy, Debug)]
pub struct TrainReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Mean wall-clock seconds per epoch.
    pub mean_epoch_secs: f64,
    /// Mean loss of the final epoch.
    pub final_loss: f32,
}

/// A trainable, evaluatable recommender.
///
/// `fit` consumes the *training* split; scoring afterwards goes through
/// [`gb_eval::Scorer`], reading cached post-training embeddings.
pub trait Recommender: Scorer {
    /// Display name used in the experiment tables.
    fn name(&self) -> &str;

    /// Trains on `train`, returning timing/loss telemetry.
    fn fit(&mut self, train: &Dataset) -> TrainReport;
}

/// Yields shuffled mini-batches of indices `0..n`.
pub fn shuffled_batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch_size.max(1)).map(|c| c.to_vec()).collect()
}

/// One mini-batch of aligned `(user, positive, negative)` triples; for
/// the group models the "user" is the group id.
pub(crate) struct PairBatch {
    pub(crate) users: Vec<u32>,
    pub(crate) pos: Vec<u32>,
    pub(crate) neg: Vec<u32>,
}

impl PairBatch {
    /// Number of triples.
    pub(crate) fn len(&self) -> usize {
        self.users.len()
    }

    /// `[users, pos, neg]` of each `(start, end)` span, built once on the
    /// calling thread so shard closures only clone `Arc`s instead of
    /// re-slicing the batch per gradient call.
    pub(crate) fn shards(&self, spans: &[(usize, usize)]) -> Vec<[Arc<Vec<u32>>; 3]> {
        spans
            .iter()
            .map(|&(a, b)| [&self.users, &self.pos, &self.neg].map(|v| Arc::new(v[a..b].to_vec())))
            .collect()
    }
}

/// The baselines' one training loop (Sec. III-C.2): every epoch shuffles
/// `examples` into `cfg.batch_size` batches, pairs each `(user, item)`
/// example with `cfg.neg_ratio.max(1)` negatives drawn for that user,
/// hands the batch to `grad` — the model's own forward and loss,
/// returning the loss value and its gradients — and takes one Adam step.
///
/// `rng` has already drawn the model's initial parameters; shuffles and
/// negatives continue the same stream. [`shuffled_batches`] never yields
/// an empty batch, so `grad` always sees at least one triple and an
/// example-free dataset never calls it. `name` labels the `verbose`
/// per-epoch loss line.
pub(crate) fn train_pairs(
    name: &str,
    cfg: &TrainConfig,
    train: &Dataset,
    examples: &[(u32, u32)],
    store: &mut ParamStore,
    rng: &mut StdRng,
    mut grad: impl FnMut(&ParamStore, PairBatch) -> (f32, Gradients),
) -> TrainReport {
    let mut adam = Adam::new(AdamConfig::with_lr(cfg.lr), store);
    let sampler = NegativeSampler::from_dataset(train);
    let repeats = cfg.neg_ratio.max(1);

    let mut final_loss = 0.0f32;
    let start = Instant::now();
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f32;
        let mut n_batches = 0usize;
        for batch in shuffled_batches(examples.len(), cfg.batch_size, rng) {
            let n = batch.len() * repeats;
            let mut b = PairBatch {
                users: Vec::with_capacity(n),
                pos: Vec::with_capacity(n),
                neg: Vec::with_capacity(n),
            };
            for idx in batch {
                let (user, item) = examples[idx];
                for _ in 0..repeats {
                    b.users.push(user);
                    b.pos.push(item);
                    b.neg.push(sampler.sample_one(user, rng));
                }
            }
            let (loss, grads) = grad(store, b);
            epoch_loss += loss;
            n_batches += 1;
            adam.step(store, &grads);
        }
        final_loss = epoch_loss / n_batches.max(1) as f32;
        if cfg.verbose {
            eprintln!("[{name}] epoch {epoch}: loss {final_loss:.4}");
        }
    }
    TrainReport {
        epochs: cfg.epochs,
        mean_epoch_secs: start.elapsed().as_secs_f64() / cfg.epochs.max(1) as f64,
        final_loss,
    }
}

/// BPR loss `-(Σ ln σ(pos - neg)) / denom` over aligned `n x 1` score
/// columns (Rendle et al. \[27\], the loss the paper uses for most
/// baselines), where `denom` is the *full* batch's pair count.
///
/// A whole-batch caller passes its own `n` and gets the batch mean; a
/// shard of a sharded batch passes the parent batch's count, so shard
/// losses sum to the full-batch loss (up to float association). Either
/// way every pair's gradient is seeded with `1 * (-(1/n))`, the same
/// IEEE value as a mean form's `(-1)/n`, which is why the whole-batch
/// models share this one form without a trained bit moving
/// (`tests/trainer_wall.rs`). Only the reported value rounds
/// differently — `Σ · (-(1/n))` against `-(Σ / n)` — and can differ from
/// a mean form's in the last place.
pub(crate) fn bpr_loss(tape: &mut Tape, pos: Var, neg: Var, denom: usize) -> Var {
    let diff = tape.sub(pos, neg);
    let ls = tape.log_sigmoid(diff);
    let sum = tape.sum_all(ls);
    tape.scale(sum, -1.0 / denom.max(1) as f32)
}

/// Adds `coef * Σ sum_sq(vars) / denom` to `loss` — the standard
/// batch-embedding L2 penalty.
pub(crate) fn add_l2(tape: &mut Tape, loss: Var, vars: &[Var], coef: f32, denom: usize) -> Var {
    if coef == 0.0 || vars.is_empty() {
        return loss;
    }
    let mut acc: Option<Var> = None;
    for &v in vars {
        let sq = tape.sum_sq(v);
        acc = Some(match acc {
            Some(a) => tape.add(a, sq),
            None => sq,
        });
    }
    let scaled = tape.scale(acc.expect("non-empty vars"), coef / denom.max(1) as f32);
    tape.add(loss, scaled)
}

/// Plain dot-product scoring of `items` for one user row — the shared
/// fast path for every cached-embedding scorer.
///
/// Goes through the lane-blocked [`gb_tensor::kernels::dot`], the same
/// accumulation `gb-serve`'s `blend_dot_block` uses, so offline scores
/// stay bit-identical to served scores.
pub(crate) fn dot_scores(user_emb: &[f32], item_table: &Matrix, items: &[u32]) -> Vec<f32> {
    items
        .iter()
        .map(|&i| gb_tensor::kernels::dot(user_emb, item_table.row(i as usize)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn batches_cover_all_indices_once() {
        let mut rng = StdRng::seed_from_u64(0);
        for (n, batch_size) in [(10, 3), (10, 0), (1, 4)] {
            let batches = shuffled_batches(n, batch_size, &mut rng);
            let mut all: Vec<usize> = batches.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
        // Zero examples yield zero batches, so `train_pairs` never calls
        // a model's gradient closure with an empty batch.
        assert!(shuffled_batches(0, 3, &mut rng).is_empty());
    }

    #[test]
    fn batch_sizes_respect_limit() {
        let mut rng = StdRng::seed_from_u64(0);
        let batches = shuffled_batches(10, 4, &mut rng);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.len() <= 4));
        // `batch_size = 0` is treated as 1.
        let singles = shuffled_batches(5, 0, &mut rng);
        assert_eq!(singles.len(), 5);
        // No batch is ever empty, whatever the remainder.
        for (n, batch_size) in [(10, 3), (10, 10), (10, 64), (7, 1), (5, 0)] {
            let batches = shuffled_batches(n, batch_size, &mut rng);
            assert!(batches.iter().all(|b| !b.is_empty()), "{n}/{batch_size}");
        }
    }

    #[test]
    fn bpr_loss_decreases_with_margin() {
        // Larger positive margin => smaller loss.
        let mut store = ParamStore::new();
        let small = store.add("small", Matrix::from_vec(2, 1, vec![0.1, 0.1]));
        let large = store.add("large", Matrix::from_vec(2, 1, vec![3.0, 3.0]));
        let zero = store.add("zero", Matrix::zeros(2, 1));

        let mut t = Tape::new();
        let s = t.param(&store, small);
        let l = t.param(&store, large);
        let z = t.param(&store, zero);
        let loss_small = bpr_loss(&mut t, s, z, 2);
        let loss_large = bpr_loss(&mut t, l, z, 2);
        assert!(t.value(loss_large).get(0, 0) < t.value(loss_small).get(0, 0));
    }

    #[test]
    fn l2_penalty_scales_with_coef() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(2, 2, 2.0)); // sum_sq = 16
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let zero = t.constant(Matrix::zeros(1, 1));
        let with_l2 = add_l2(&mut t, zero, &[wv], 0.5, 4);
        assert!((t.value(with_l2).get(0, 0) - 2.0).abs() < 1e-6); // 0.5*16/4
        let no_l2 = add_l2(&mut t, zero, &[wv], 0.0, 4);
        assert_eq!(t.value(no_l2).get(0, 0), 0.0);
    }

    #[test]
    fn dot_scores_match_manual() {
        let table = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let scores = dot_scores(&[2.0, 3.0], &table, &[0, 1, 2]);
        assert_eq!(scores, vec![2.0, 3.0, 5.0]);
    }
}
