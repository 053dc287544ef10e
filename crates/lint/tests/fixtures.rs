//! Per-rule fixture tests: each rule has a must-fire fixture (exact
//! `file:line` assertions) and a must-not-fire fixture exercising the
//! lexer's blind spots — strings, comments, raw strings, `#[cfg(test)]`
//! modules, and suppressed lines.
//!
//! The fixtures live in `crates/lint/fixtures/`, a directory the
//! workspace walker skips, and are linted here through [`lint_source`]
//! under virtual paths chosen to land in each rule's scope. The
//! cross-file `pub-needs-caller` rule has a small fixture workspace of
//! its own, `fixtures/pub_caller/`, driven through [`lint_workspace`].

use gb_lint::{lint_source, lint_workspace, Finding};

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

#[test]
fn pub_needs_caller_fires_where_nothing_outside_the_library_names_an_item() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/pub_caller");
    let f = lint_workspace(&root).expect("lint the fixture workspace");
    let lib = "crates/alpha/src/lib.rs";
    let got: Vec<(&str, &str, usize)> = f
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    // `dead`, `tested_only` (named only in its own file's `#[cfg(test)]`),
    // `helper` (named only inside `alpha`), `mentioned` (named elsewhere
    // only in a comment and a string), the static, the `unsafe` and the
    // `extern` fn, and `reasonless`, whose allow gives no reason. Callers
    // in `beta`, `benchmark/src`, `examples/`, `src/bin/`, `alpha`'s own
    // `tests/`, root `src/` and root `tests/` clear the rest; `pub(crate)`,
    // `pub(super)`, `pub(in …)` and the trait-impl method are not checked,
    // and the reasoned allow holds.
    assert_eq!(
        got,
        vec![
            ("pub-needs-caller", lib, 6),
            ("pub-needs-caller", lib, 9),
            ("pub-needs-caller", lib, 14),
            ("pub-needs-caller", lib, 19),
            ("pub-needs-caller", lib, 22),
            ("pub-needs-caller", lib, 26),
            ("pub-needs-caller", lib, 29),
            ("bad-suppression", lib, 34),
            ("pub-needs-caller", lib, 35),
        ]
    );
    let message = |line: usize| {
        f.iter()
            .find(|f| f.rule == "pub-needs-caller" && f.line == line)
            .map(|f| f.message.as_str())
            .expect("finding on that line")
    };
    assert_eq!(
        message(14),
        "`helper` is used only inside `crates/alpha`: make it `pub(crate)` or private"
    );
    for line in [6, 9, 19] {
        assert!(message(line).ends_with("has no caller outside its crate's unit tests: delete it"));
    }
}
