//! `gbbench` — one benchmark for the whole GBGCN stack.
//!
//! Five workloads drive the unmodified crates through their public
//! functions only. `gbbench --trace 0` measures the end-to-end metrics
//! with no tracing; `gbbench --trace 1` (also built as `gbbench-trace`)
//! replays a fixed sample of each workload's operations through every
//! layer's public entry point, records spans, and derives the
//! per-layer metrics. See `README.md` beside this package.

pub mod cli;
pub mod gen;
pub mod host;
pub mod json;
pub mod oracle;
pub mod pace;
pub mod repeat;
pub mod report;
pub mod schema;
pub mod stats;
pub mod trace;
pub mod workloads;
