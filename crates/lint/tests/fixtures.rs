//! Per-rule fixture tests: each rule has a must-fire fixture (exact
//! `file:line` assertions) and a must-not-fire fixture exercising the
//! lexer's blind spots — strings, comments, raw strings, `#[cfg(test)]`
//! modules, and suppressed lines.
//!
//! The fixtures live in `crates/lint/fixtures/`, a directory the
//! workspace walker skips, and are linted here through [`lint_source`]
//! under virtual paths chosen to land in each rule's scope.

use gb_lint::{lint_source, Finding};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lines of `findings` carrying `rule`, in report order.
fn spans(rule: &str, findings: &[Finding]) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn unsafe_needs_safety_fires_at_exact_spans() {
    let f = lint_source(
        "crates/tensor/src/unsafe_fixture.rs",
        &fixture("unsafe_fire.rs"),
    );
    assert_eq!(spans("unsafe-needs-safety", &f), vec![4, 11]);
    assert_eq!(f.len(), 2, "unexpected extra findings: {f:?}");
}

#[test]
fn unsafe_needs_safety_accepts_documented_and_quoted() {
    let f = lint_source(
        "crates/tensor/src/unsafe_fixture.rs",
        &fixture("unsafe_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn panic_needs_invariant_fires_at_exact_spans() {
    let f = lint_source(
        "crates/serve/src/panic_fixture.rs",
        &fixture("panic_fire.rs"),
    );
    assert_eq!(spans("panic-needs-invariant", &f), vec![4, 8, 14]);
    assert_eq!(f.len(), 3, "unexpected extra findings: {f:?}");
}

#[test]
fn panic_needs_invariant_accepts_annotated_suppressed_and_tests() {
    let f = lint_source(
        "crates/serve/src/panic_fixture.rs",
        &fixture("panic_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn panic_needs_invariant_is_scoped_to_the_request_paths() {
    // The same bare panics outside the serving/training scope are not
    // this rule's business.
    let f = lint_source(
        "crates/eval/src/panic_fixture.rs",
        &fixture("panic_fire.rs"),
    );
    assert!(f.is_empty(), "out-of-scope file flagged: {f:?}");
}

#[test]
fn no_bare_locks_fires_at_exact_spans() {
    let f = lint_source(
        "crates/autograd/src/locks_fixture.rs",
        &fixture("locks_fire.rs"),
    );
    assert_eq!(spans("no-bare-locks", &f), vec![6, 10, 14]);
    assert_eq!(f.len(), 3, "unexpected extra findings: {f:?}");
}

#[test]
fn no_bare_locks_accepts_recover_helpers_io_writes_and_tests() {
    let f = lint_source(
        "crates/autograd/src/locks_fixture.rs",
        &fixture("locks_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn float_total_order_fires_at_exact_spans() {
    let f = lint_source(
        "crates/eval/src/float_fixture.rs",
        &fixture("float_fire.rs"),
    );
    assert_eq!(spans("float-total-order", &f), vec![4, 8]);
    assert_eq!(f.len(), 2, "unexpected extra findings: {f:?}");
}

#[test]
fn float_total_order_accepts_total_cmp_and_quoted() {
    let f = lint_source(
        "crates/eval/src/float_fixture.rs",
        &fixture("float_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn no_hash_iteration_fires_once_per_line() {
    // Two mentions per line (annotation + constructor) collapse to one
    // finding; the `use` declaration is not flagged at all.
    let f = lint_source(
        "crates/tensor/src/hash_fixture.rs",
        &fixture("hash_fire.rs"),
    );
    assert_eq!(spans("no-hash-iteration", &f), vec![6, 7]);
    assert_eq!(f.len(), 2, "unexpected extra findings: {f:?}");
}

#[test]
fn no_hash_iteration_accepts_btree_suppressions_and_tests() {
    let f = lint_source(
        "crates/tensor/src/hash_fixture.rs",
        &fixture("hash_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn no_hash_iteration_is_scoped_to_determinism_critical_modules() {
    let f = lint_source("crates/data/src/hash_fixture.rs", &fixture("hash_fire.rs"));
    assert!(f.is_empty(), "out-of-scope file flagged: {f:?}");
}

#[test]
fn no_wallclock_in_kernels_fires_at_exact_spans() {
    let f = lint_source(
        "crates/tensor/src/wall_fixture.rs",
        &fixture("wallclock_fire.rs"),
    );
    assert_eq!(spans("no-wallclock-in-kernels", &f), vec![4, 9, 10]);
    assert_eq!(f.len(), 3, "unexpected extra findings: {f:?}");
}

#[test]
fn no_wallclock_in_kernels_accepts_comments_strings_and_tests() {
    let f = lint_source(
        "crates/tensor/src/wall_fixture.rs",
        &fixture("wallclock_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn arch_intrinsics_confined_fires_at_exact_spans_tests_included() {
    let f = lint_source("crates/serve/src/arch_fixture.rs", &fixture("arch_fire.rs"));
    assert_eq!(spans("arch-intrinsics-confined", &f), vec![3, 6, 11]);
    assert_eq!(f.len(), 3, "unexpected extra findings: {f:?}");
    // The kernel module is no home either: its kernels are written over
    // `Lane8` and name no intrinsic themselves.
    let f = lint_source("crates/tensor/src/kernels.rs", &fixture("arch_fire.rs"));
    assert_eq!(spans("arch-intrinsics-confined", &f), vec![3, 6, 11]);
}

#[test]
fn arch_intrinsics_confined_accepts_the_kernel_module_asm_and_quoted() {
    // The same intrinsics paths are at home behind `Lane8`.
    let f = lint_source("crates/tensor/src/simd.rs", &fixture("arch_fire.rs"));
    assert!(f.is_empty(), "allowed file flagged: {f:?}");
    let f = lint_source(
        "crates/serve/src/arch_fixture.rs",
        &fixture("arch_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn no_libm_tanh_fires_on_the_path_and_the_zero_argument_method() {
    let f = lint_source("crates/core/src/tanh_fixture.rs", &fixture("tanh_fire.rs"));
    assert_eq!(spans("no-libm-tanh", &f), vec![4, 8, 9, 13]);
    assert_eq!(f.len(), 4, "unexpected extra findings: {f:?}");
    // No home is exempt: not even the kernel module keeps a libm call.
    let f = lint_source("crates/tensor/src/kernels.rs", &fixture("tanh_fire.rs"));
    assert_eq!(spans("no-libm-tanh", &f), vec![4, 8, 9, 13]);
}

#[test]
fn no_libm_tanh_accepts_tape_ops_kernel_calls_quoted_and_tests() {
    let f = lint_source("crates/core/src/tanh_fixture.rs", &fixture("tanh_clean.rs"));
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
    // A `tests/` directory is test code as a whole.
    let f = lint_source("crates/core/tests/oracle.rs", &fixture("tanh_fire.rs"));
    assert!(f.is_empty(), "test file flagged: {f:?}");
}

#[test]
fn bad_suppressions_are_findings_and_do_not_suppress() {
    let f = lint_source(
        "crates/serve/src/suppression_fixture.rs",
        &fixture("bad_suppression.rs"),
    );
    assert_eq!(spans("bad-suppression", &f), vec![6, 11]);
    // The reasonless allow on line 6 must not shield the panic it
    // precedes.
    assert_eq!(spans("panic-needs-invariant", &f), vec![7]);
    assert_eq!(f.len(), 3, "unexpected extra findings: {f:?}");
}
