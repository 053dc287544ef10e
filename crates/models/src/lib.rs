//! # gb-models
//!
//! The nine baseline recommenders of the paper's evaluation (Sec. IV-B.1),
//! implemented from scratch on the `gb-autograd` training substrate:
//!
//! | Category | Models |
//! |---|---|
//! | Collaborative filtering | [`Mf`] (both conversions), [`Ncf`], [`Ngcf`] |
//! | Social recommendation | [`SocialMf`], [`DiffNet`] |
//! | Group recommendation | [`Agree`], [`Sigr`] |
//! | Group-buying | [`Gbmf`] |
//!
//! All models share the [`Recommender`] trait (`fit` + scoring through
//! [`gb_eval::Scorer`]) and the [`TrainConfig`] hyper-parameters, so the
//! Table III harness can treat them uniformly. They also share one
//! training loop, the mini-batch/negative-sampling recipe of Sec. III-C.2,
//! written once as a crate-private function: it owns the Adam optimiser,
//! the shuffled batches, the `neg_ratio` negatives drawn per example, the
//! step, and the per-epoch loss and timing. Each
//! model's `fit` is its parameter init, a closure recording its own
//! forward and loss on one tape per batch, and its post-training cache. `gb-core`'s GBGCN keeps its own loop: it trains
//! on failed-group negatives in two phases. Where the paper prescribes a
//! loss that differs from BPR (AGREE's regression-based pairwise loss,
//! SIGR's log loss) the prescribed loss is used — the paper explicitly
//! discusses those choices when analysing why the group recommenders
//! underperform.

pub mod agree;
pub mod common;
pub mod diffnet;
pub mod gbmf;
pub mod handle;
pub mod mf;
pub mod ncf;
pub mod ngcf;
pub mod sigr;
pub mod snapshot;
pub mod socialmf;

pub use agree::Agree;
pub use common::{Recommender, TrainConfig, TrainReport};
pub use diffnet::DiffNet;
pub use gbmf::{Gbmf, GbmfConfig};
pub use handle::{DeltaStamp, SnapshotHandle, VersionedSnapshot};
pub use mf::Mf;
pub use ncf::Ncf;
pub use ngcf::Ngcf;
pub use sigr::Sigr;
pub use snapshot::{EmbeddingSnapshot, SnapshotDelta, SnapshotSource};
pub use socialmf::SocialMf;
