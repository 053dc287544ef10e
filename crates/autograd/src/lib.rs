//! # gb-autograd
//!
//! Tape-based reverse-mode automatic differentiation over [`gb_tensor`].
//!
//! The paper trains GBGCN (and every baseline) with mini-batch gradient
//! descent through graph-convolutional propagation, fully-connected
//! transforms, and pairwise ranking losses. The original code relies on
//! PyTorch + DGL; this crate is the from-scratch replacement. It provides:
//!
//! * [`Tape`] — a record of the forward computation; each op pushes a
//!   boxed `FnOnce` backward closure owning (or `Arc`-sharing) exactly
//!   the operands its vector-Jacobian product needs, consumed in fixed
//!   reverse order by [`Tape::backward`]. Tapes compose across threads:
//!   [`Tape::input`] binds a read-only view of another tape's value,
//!   [`Tape::backward_with_inputs`] returns the cotangents of those
//!   views, and [`Tape::backward_seeded`] resumes the producing tape's
//!   backward from accumulated seeds.
//! * [`ParamStore`] — named trainable parameters (embedding tables, FC
//!   weights and biases) addressed by stable [`ParamId`]s.
//! * [`Gradients`] — per-parameter gradient accumulator returned by
//!   `backward`, consumed by the optimizers.
//! * [`optim`] — vanilla [`optim::Sgd`] (the paper's fine-tuning stage) and
//!   [`optim::Adam`] (the pre-training stage).
//! * [`gradcheck`] — finite-difference verification used by the test suite
//!   for every differentiable op.
//! * [`parallel`] — [`ShardExecutor`], deterministic multi-threaded
//!   accumulation of per-shard gradients with a fixed reduction order
//!   (thread count never changes the numbers, only the wall clock), for
//!   GBGCN's sharded trainer; the baselines record one tape per batch.
//!
//! Graph-specific ops (`gather_param`, `segment_mean`) make sparse
//! embedding training efficient: a mini-batch touches only the rows that
//! appear in the batch, and neighbourhood mean-aggregation (Eqs. 1–2 and
//! 4–7 of the paper) is a single CSR-driven op with an exact backward pass.

pub mod checkpoint;
pub mod gradcheck;
mod listed;
pub mod optim;
pub mod parallel;
pub mod params;
pub mod tape;

pub use optim::{Adam, AdamConfig, Sgd};
pub use parallel::ShardExecutor;
pub use params::{Gradients, ParamId, ParamStore};
pub use tape::{Table, Tape, Var};
