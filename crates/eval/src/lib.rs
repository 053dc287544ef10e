//! # gb-eval
//!
//! Evaluation machinery for the GBGCN reproduction (Sec. IV-A.2 of the
//! paper):
//!
//! * [`metrics`] — Recall@K and NDCG@K over ranked lists;
//! * [`protocol`] — the leave-one-out ranking protocol: the held-out item
//!   is ranked against sampled unobserved candidates (999 in the paper)
//!   per test user; a [`Scorer`] is anything that can score a candidate
//!   list for a user;
//! * [`stats`] — paired significance testing (the paper reports
//!   p < 0.05);
//! * [`timing`] — wall-clock helpers for the Table IV efficiency study;
//! * [`topk`] — reference materialize-and-sort top-K ranking, the
//!   baseline the `gb-serve` engine is validated and benchmarked against;
//! * [`cosine_pdf`] — the cosine-similarity probability-density curves of
//!   Fig. 5;
//! * [`tsne`] — exact t-SNE \[41\] for the embedding visualization of
//!   Fig. 6.

pub mod cosine_pdf;
pub mod metrics;
pub mod protocol;
pub mod stats;
pub mod timing;
pub mod topk;
pub mod tsne;

pub use metrics::RankingMetrics;
pub use protocol::{CandidateSet, EvalProtocol, Scorer};
pub use stats::{paired_t_test, TTest};
pub use timing::Stopwatch;
pub use topk::reference_topk;
pub use tsne::TsneConfig;
