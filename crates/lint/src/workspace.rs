//! Workspace walking, the committed baseline, and report formatting.

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{collect_allows, lint_source, Finding, PUB_NEEDS_CALLER};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `fixtures` holds this crate's
/// deliberately-violating rule fixtures; `vendor` is third-party
/// stand-in code that does not follow workspace conventions.
const SKIP_DIRS: &[&str] = &["vendor", "target", "fixtures", ".git", ".github"];

/// Top-level entries of the workspace that contain first-party Rust.
const SCAN_ROOTS: &[&str] = &["src", "crates", "examples", "tests"];

/// Directories read for `pub-needs-caller` callers only, never linted:
/// the benchmark is its own package and keeps its own conventions.
const CALLER_ROOTS: &[&str] = &["benchmark/src"];

/// Collects every first-party `.rs` file under `root`, as
/// `(relative_path, absolute_path)` with `/`-separated relative paths,
/// sorted for deterministic reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    files_under(root, SCAN_ROOTS)
}

fn files_under(root: &Path, tops: &[&str]) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, top, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        let rel_child = format!("{rel}/{name}");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, &rel_child, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push((rel_child, path));
        }
    }
    Ok(())
}

/// Lints every workspace file under `root`, then runs the cross-file
/// `pub-needs-caller` pass over all of them (and over the caller-only
/// roots), returning unsuppressed findings (baseline not yet applied),
/// sorted by file and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut lexed = Vec::new();
    for (rel, abs) in workspace_files(root)? {
        let src = std::fs::read_to_string(&abs)?;
        findings.extend(lint_source(&rel, &src));
        lexed.push((rel, lex(&src)));
    }
    for (rel, abs) in files_under(root, CALLER_ROOTS)? {
        lexed.push((rel, lex(&std::fs::read_to_string(&abs)?)));
    }
    findings.extend(pub_needs_caller(&lexed));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// The crate directory (`crates/<name>`) whose library `rel` belongs
/// to: its `src/` minus `src/main.rs` and `src/bin/`, which are callers
/// like any other target.
fn library_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, path) = rest.split_once('/')?;
    let lib = path.strip_prefix("src/")?;
    if lib == "main.rs" || lib.starts_with("bin/") {
        return None;
    }
    Some(&rel[.."crates/".len() + name.len()])
}

/// Indices into `tokens` of the names declared by `pub fn` (also
/// `const`/`async`/`unsafe`/`extern` fns), `pub const` and `pub static`
/// outside test code. `pub(crate)` and friends are not `pub`.
fn pub_items(tokens: &[Token]) -> Vec<usize> {
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut out = Vec::new();
    for (s, &i) in sig.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || t.text != "pub" || t.in_test {
            continue;
        }
        let mut item = false;
        let mut j = s + 1;
        while let Some(&k) = sig.get(j) {
            match tokens[k].text.as_str() {
                "fn" | "const" | "static" => item = true,
                "async" | "unsafe" | "extern" | "mut" => {}
                _ if tokens[k].kind == TokenKind::Literal => {} // an ABI string
                _ => break,
            }
            j += 1;
        }
        if let Some(&k) = sig.get(j) {
            if item && tokens[k].kind == TokenKind::Ident && tokens[k].text != "_" {
                out.push(k);
            }
        }
    }
    out
}

/// `pub-needs-caller`: a `pub` fn/const/static in a crate's library is
/// flagged when no identifier outside that library names it. Callers
/// are found by name alone, so the rule under-reports and needs no call
/// graph; once an item is `pub(crate)`, rustc's `dead_code` takes over.
fn pub_needs_caller(files: &[(String, Vec<Token>)]) -> Vec<Finding> {
    // (file, name token, library) of every checked declaration.
    let decls: Vec<(usize, usize, &str)> = files
        .iter()
        .enumerate()
        .filter_map(|(f, (rel, toks))| Some((f, toks, library_of(rel)?)))
        .flat_map(|(f, toks, lib)| pub_items(toks).into_iter().map(move |k| (f, k, lib)))
        .collect();
    let names: BTreeSet<&str> = decls
        .iter()
        .map(|&(f, k, _)| files[f].1[k].text.as_str())
        .collect();
    // Per name: the libraries naming it (`None` = any other file), and
    // the libraries naming it in non-test code.
    let mut named_in: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    let mut live_in: BTreeSet<(&str, &str)> = BTreeSet::new();
    let decl_set: BTreeSet<(usize, usize)> = decls.iter().map(|&(f, k, _)| (f, k)).collect();
    for (f, (rel, toks)) in files.iter().enumerate() {
        let lib = library_of(rel);
        for (k, t) in toks.iter().enumerate() {
            let name = t.text.as_str();
            if t.kind != TokenKind::Ident || !names.contains(name) || decl_set.contains(&(f, k)) {
                continue;
            }
            named_in.entry(name).or_default().insert(lib);
            if let (Some(lib), false) = (lib, t.in_test) {
                live_in.insert((lib, name));
            }
        }
    }
    let allows: BTreeMap<usize, _> = decls
        .iter()
        .map(|&(f, _, _)| (f, collect_allows(&files[f].1)))
        .collect();
    let mut out = Vec::new();
    for (f, k, lib) in decls {
        let (rel, toks) = &files[f];
        let name = toks[k].text.as_str();
        let outside = named_in
            .get(name)
            .is_some_and(|libs| libs.iter().any(|l| *l != Some(lib)));
        if outside {
            continue;
        }
        let line = toks[k].line;
        if allows[&f]
            .iter()
            .any(|a| a.suppresses(PUB_NEEDS_CALLER, line))
        {
            continue;
        }
        let message = if live_in.contains(&(lib, name)) {
            format!("`{name}` is used only inside `{lib}`: make it `pub(crate)` or private")
        } else {
            format!("`{name}` has no caller outside its crate's unit tests: delete it")
        };
        out.push(Finding {
            rule: PUB_NEEDS_CALLER,
            file: rel.clone(),
            line,
            message,
        });
    }
    out
}

/// One grandfathered allowance from the committed baseline file.
///
/// Keyed on `(rule, file, count)` rather than line numbers so unrelated
/// edits to a file don't churn the baseline: up to `count` findings of
/// `rule` in `file` (lowest lines first) are tolerated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub count: usize,
    pub reason: String,
}

/// Parses the baseline format: one `rule<TAB>file<TAB>count<TAB>reason`
/// entry per line; `#` comments and blank lines ignored. The reason is
/// mandatory — a baseline without a justification is just a muted bug.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '\t').collect();
        if parts.len() != 4 {
            return Err(format!(
                "baseline line {}: expected `rule<TAB>file<TAB>count<TAB>reason`, got {raw:?}",
                idx + 1
            ));
        }
        let count: usize = parts[2]
            .parse()
            .map_err(|_| format!("baseline line {}: bad count {:?}", idx + 1, parts[2]))?;
        if parts[3].trim().is_empty() {
            return Err(format!(
                "baseline line {}: the justification is mandatory",
                idx + 1
            ));
        }
        out.push(BaselineEntry {
            rule: parts[0].to_string(),
            file: parts[1].to_string(),
            count,
            reason: parts[3].trim().to_string(),
        });
    }
    Ok(out)
}

/// Splits `findings` into `(unbaselined, n_baselined, stale_entries)`.
/// Stale entries matched fewer findings than they grandfather — a sign
/// the underlying debt was paid and the entry should be deleted.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[BaselineEntry],
) -> (Vec<Finding>, usize, Vec<BaselineEntry>) {
    let mut budget: Vec<usize> = baseline.iter().map(|e| e.count).collect();
    let mut kept = Vec::new();
    let mut n_baselined = 0usize;
    for f in findings {
        let slot = baseline
            .iter()
            .position(|e| e.rule == f.rule && e.file == f.file);
        match slot {
            Some(s) if budget[s] > 0 => {
                budget[s] -= 1;
                n_baselined += 1;
            }
            _ => kept.push(f),
        }
    }
    let stale = baseline
        .iter()
        .zip(&budget)
        .filter(|(_, &left)| left > 0)
        .map(|(e, _)| e.clone())
        .collect();
    (kept, n_baselined, stale)
}

/// Minimal JSON string escaping (the report is flat strings/numbers).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `--format json` report: findings with `file:line` spans plus the
/// baseline bookkeeping, machine-stable for the CI gate.
pub fn render_json(findings: &[Finding], n_baselined: usize, stale: &[BaselineEntry]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"n_findings\": {},\n", findings.len()));
    out.push_str(&format!("  \"n_baselined\": {n_baselined},\n"));
    out.push_str("  \"stale_baseline\": [\n");
    for (i, e) in stale.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"count\": {}}}{}\n",
            json_escape(&e.rule),
            json_escape(&e.file),
            e.count,
            if i + 1 < stale.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The human report: `file:line: [rule] message` lines plus a summary.
pub fn render_human(findings: &[Finding], n_baselined: usize, stale: &[BaselineEntry]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    for e in stale {
        out.push_str(&format!(
            "warning: stale baseline entry ({} in {}, {} grandfathered) — \
             the debt was paid, delete the entry\n",
            e.rule, e.file, e.count
        ));
    }
    out.push_str(&format!(
        "{} finding(s), {} baselined\n",
        findings.len(),
        n_baselined
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, line: usize) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn baseline_grandfathers_up_to_count_lowest_lines_first() {
        let baseline = parse_baseline(
            "# comment\n\
             float-total-order\tcrates/x.rs\t2\tlegacy comparator, tracked in ROADMAP\n",
        )
        .unwrap();
        let findings = vec![
            f("float-total-order", "crates/x.rs", 3),
            f("float-total-order", "crates/x.rs", 9),
            f("float-total-order", "crates/x.rs", 20),
            f("float-total-order", "crates/y.rs", 1),
        ];
        let (kept, n, stale) = apply_baseline(findings, &baseline);
        assert_eq!(n, 2);
        assert!(stale.is_empty());
        assert_eq!(kept.len(), 2);
        assert_eq!((kept[0].file.as_str(), kept[0].line), ("crates/x.rs", 20));
        assert_eq!(kept[1].file.as_str(), "crates/y.rs");
    }

    #[test]
    fn unused_baseline_entries_are_reported_stale() {
        let baseline = parse_baseline("no-bare-locks\tcrates/x.rs\t1\tpaid off\n").unwrap();
        let (kept, n, stale) = apply_baseline(vec![], &baseline);
        assert!(kept.is_empty());
        assert_eq!(n, 0);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "no-bare-locks");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("rule only\n").is_err());
        assert!(parse_baseline("r\tf\tnotanumber\treason\n").is_err());
        assert!(parse_baseline("r\tf\t1\t \n").is_err(), "empty reason");
        assert!(parse_baseline("# all comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let findings = vec![f("float-total-order", "a\"b.rs", 7)];
        let json = render_json(&findings, 1, &[]);
        assert!(json.contains("\"file\": \"a\\\"b.rs\""));
        assert!(json.contains("\"n_findings\": 1"));
        assert!(json.contains("\"n_baselined\": 1"));
    }
}
