//! # gb-core
//!
//! GBGCN — the Group-Buying Graph Convolutional Network of
//! *"Group-Buying Recommendation for Social E-Commerce"* (ICDE 2021),
//! implemented from scratch on the `gb-autograd` substrate.
//!
//! The model follows Sec. III of the paper exactly:
//!
//! 1. **Raw embedding layer** — one shared embedding per user and item
//!    (the paper argues shared raw embeddings equalize model capacity and
//!    force the raw features to serve both roles);
//! 2. **In-view propagation** (Eqs. 1–3) — LightGCN-style mean
//!    aggregation without FC layers, run separately on the initiator view
//!    `Gi` and participant view `Gp`, with all layer outputs concatenated;
//! 3. **Cross-view propagation** (Eqs. 4–8) — FC-transformed aggregation
//!    across views along the directed share graph `Gs` (outgoing
//!    neighbours feed the initiator view, incoming neighbours feed the
//!    participant view) plus in-view interaction aggregation;
//! 4. **Prediction** (Eq. 9) — `(1-α)`-weighted initiator interest plus
//!    `α`-weighted mean of the friends' participant-view interest;
//! 5. **Double-pairwise loss** (Eqs. 10–12) — BPR on the initiator for
//!    every behavior; BPR on participants for successful behaviors; and
//!    *reversed* BPR (weighted by `β`) on the initiator's friends for
//!    failed behaviors, distilling the strong-negative signal;
//! 6. **Pre-train → fine-tune** (Sec. III-C.3) — Adam on the
//!    propagation-free model, embedding normalization, then vanilla SGD
//!    on the full model.
//!
//! The Table V ablations (averaging the two views' user and/or item
//! embeddings after every propagation output) are built in via
//! [`AblationMode`].

pub mod batch;
pub mod config;
pub mod model;
pub mod propagation;

pub use config::{AblationMode, GbgcnConfig, ParallelTrainConfig};
pub use model::{EmbeddingAnalysis, GbgcnModel};
