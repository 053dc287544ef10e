//! # gbgcn-repro
//!
//! Umbrella crate for the pure-Rust reproduction of *"Group-Buying
//! Recommendation for Social E-Commerce"* (GBGCN, ICDE 2021).
//!
//! Re-exports the public API of every workspace crate so downstream users
//! (and the examples / integration tests in this repository) can depend on a
//! single crate:
//!
//! ```
//! use gbgcn_repro::prelude::*;
//! ```
//!
//! See the README for the system inventory, and its "Reproducing the
//! paper tables" section for the binary behind each table and figure.

pub use gb_autograd as autograd;
pub use gb_core as gbgcn;
pub use gb_data as data;
pub use gb_eval as eval;
pub use gb_graph as graph;
pub use gb_models as models;
pub use gb_serve as serve;
pub use gb_tensor as tensor;

/// Most-used items across the workspace, for glob import.
pub mod prelude {
    pub use gb_autograd::{AdamConfig, ParamStore, Tape};
    pub use gb_core::{GbgcnConfig, GbgcnModel};
    pub use gb_data::{Dataset, GroupBehavior, NegativeSampler, Split, SynthConfig, TestInstance};
    pub use gb_eval::{EvalProtocol, RankingMetrics, Scorer};
    pub use gb_graph::{BitMatrix, HeteroGraphs};
    pub use gb_models::{EmbeddingSnapshot, Recommender, SnapshotSource};
    pub use gb_serve::{QueryEngine, RecommendService, ScoredItem};
    pub use gb_tensor::Matrix;
}
