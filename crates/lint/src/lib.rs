//! `gb-lint` — the workspace invariant checker.
//!
//! A self-contained, offline static-analysis pass that mechanically
//! enforces the hand-maintained contracts this reproduction's
//! determinism, safety, and fault-tolerance tiers rest on. The
//! vendored-only container rules out `syn`, so the pipeline is a
//! hand-rolled lexer ([`lexer`]) feeding a token-pattern rule engine
//! ([`rules`]), plus workspace walking / baseline / reporting
//! ([`workspace`]).
//!
//! The rules (see `rules::ALL_RULES` and the README catalogue):
//!
//! * `unsafe-needs-safety` — every `unsafe` carries a `// SAFETY:`
//!   comment or `# Safety` doc section.
//! * `panic-needs-invariant` — `unwrap`/`expect`/panic macros on the
//!   request/training path carry an `// invariant:` annotation.
//! * `no-bare-locks` — `.lock()`/`.read()`/`.write()` go through the
//!   poison-recovering `*_recover` helpers.
//! * `float-total-order` — `partial_cmp` is banned; `total_cmp` ranks
//!   floats under the strict total order the serving tier relies on.
//! * `no-hash-iteration` — hash containers are banned in
//!   determinism-critical numeric modules.
//! * `no-wallclock-in-kernels` — no `Instant`/`SystemTime` in
//!   kernel/scoring modules.
//! * `arch-intrinsics-confined` — `core::arch`/`std::arch` intrinsics
//!   only in `crates/tensor/src/simd.rs`.
//! * `no-libm-tanh` — no `f32::tanh` / `.tanh()` outside test code; the
//!   one `tanh` is `gb_tensor::kernels::tanh_inplace`.
//! * `pub-needs-caller` — cross-file, run by `lint_workspace`: every
//!   `pub` fn/const/static in a crate's library is named by some file
//!   outside that library; one used only inside is narrowed, and rustc's
//!   `dead_code` takes it from there.
//!
//! Findings are suppressed inline with a justified `lint:allow`
//! comment (`rule` in parens, then a mandatory `: reason`), e.g.
//! `lint:allow(no-hash-iteration): lookup-only map, never iterated`,
//! or grandfathered in the committed
//! `lint-baseline.txt`. The CLI (`cargo run -p gb-lint`) exits nonzero
//! on any unsuppressed, unbaselined finding — CI runs it as a hard
//! gate, and `tests/self_lint.rs` runs the same check under `cargo test`.

pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{lint_source, Finding};
pub use workspace::{
    apply_baseline, lint_workspace, parse_baseline, render_human, render_json, workspace_files,
    BaselineEntry,
};
