//! gb-lint holds itself to its own rules: every module of the crate
//! must lint clean under its real workspace-relative path, and the
//! walker must keep the deliberately-violating fixtures out of
//! workspace scans. The whole workspace must lint clean too, so
//! `cargo test` fails on a new finding, not only the CLI gate.

use gb_lint::{apply_baseline, lint_source, lint_workspace, parse_baseline, workspace_files};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

#[test]
fn gb_lint_lints_itself_clean() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("read crates/lint/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).expect("read module source");
        let findings = lint_source(&format!("crates/lint/src/{name}"), &src);
        assert!(findings.is_empty(), "{name} has findings: {findings:?}");
        checked += 1;
    }
    assert!(checked >= 5, "expected the gb-lint modules, saw {checked}");
}

#[test]
fn workspace_walker_skips_the_fixture_directory() {
    let files = workspace_files(workspace_root()).expect("walk workspace");
    assert!(
        files.iter().any(|(rel, _)| rel == "crates/lint/src/lib.rs"),
        "walker missed the lint crate itself"
    );
    assert!(
        files.iter().all(|(rel, _)| !rel.contains("/fixtures/")),
        "walker descended into fixtures/"
    );
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.txt")).expect("read the baseline");
    let baseline = parse_baseline(&text).expect("parse the baseline");
    let findings = lint_workspace(root).expect("lint the workspace");
    let (kept, _, _) = apply_baseline(findings, &baseline);
    assert!(kept.is_empty(), "unbaselined findings: {kept:#?}");
}
