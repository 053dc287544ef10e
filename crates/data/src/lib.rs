//! # gb-data
//!
//! Dataset model and workload generation for the GBGCN reproduction.
//!
//! The paper evaluates on a proprietary crawl of the Beibei platform
//! (Table II: 190,080 users / 30,782 items / 748,233 social relations /
//! 932,896 group-buying behaviors, 77.4% of which clinched). That dataset
//! is not redistributable, so this crate provides
//! [`synth::generate`] — a synthetic social e-commerce simulator whose
//! output has the same *schema* and matching *shape statistics*
//! (success ratio, social degree, behaviors per user, popularity skew) and
//! which plants exactly the structure the models under test are designed
//! to exploit: role-dependent user preferences, social homophily, and
//! tie-strength-dependent join behaviour.
//!
//! Contents:
//!
//! * [`behavior`] — the group-buying record `⟨mi, n, Mp⟩` (Sec. II).
//! * [`dataset`] — container tying behaviors, the social network, and the
//!   per-item group-size thresholds `t_n` together.
//! * [`synth`] — the synthetic Beibei-like generator.
//! * [`split`] — leave-one-out train/validation/test splitting
//!   (Sec. IV-A.2).
//! * [`negative`] — the negative-sampling machinery of Sec. III-C.2.
//! * [`convert`] — dataset conversions for the baseline families
//!   (Sec. IV-A.1): *(oi)*, *(both roles)*, and the group-recommendation
//!   variant.
//! * [`stats`] — Table II-style statistics.
//! * [`io`] — JSON (de)serialization of datasets.
//! * [`events`] — the append-only deal lifecycle event log (open / join
//!   / full / expire with logical timestamps) behind the streaming
//!   serving path; [`synth::generate_with_events`] emits one alongside
//!   the batch dataset.

pub mod behavior;
pub mod convert;
pub mod dataset;
pub mod events;
pub mod io;
pub mod negative;
pub mod split;
pub mod stats;
pub mod synth;
pub mod text;

pub use behavior::GroupBehavior;
pub use convert::{GroupData, InteractionKind};
pub use dataset::Dataset;
pub use events::{DealEvent, DealEventKind, DealPhase, EventLog};
pub use negative::NegativeSampler;
pub use split::{Split, TestInstance};
pub use stats::DatasetStats;
pub use synth::SynthConfig;
