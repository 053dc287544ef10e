//! The rule engine: project-specific invariant checks over the token
//! stream, inline suppressions, and per-rule path scoping.
//!
//! Every rule guards a contract the workspace's determinism, safety, or
//! fault-tolerance story depends on (see the README's "Static analysis
//! & invariants" section for the catalogue). Rules are mechanical token
//! patterns — no type information — so each one is scoped to the
//! modules where its pattern is unambiguous enough to enforce, and
//! every finding can be suppressed inline with a justified `lint:allow`
//! comment naming the rule in parens followed by `: <reason>`.

use crate::lexer::{lex, Token, TokenKind};

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case, stable — baseline files key on it).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description of the violation and the fix.
    pub message: String,
}

pub(crate) const UNSAFE_NEEDS_SAFETY: &str = "unsafe-needs-safety";
pub(crate) const PANIC_NEEDS_INVARIANT: &str = "panic-needs-invariant";
pub(crate) const NO_BARE_LOCKS: &str = "no-bare-locks";
pub(crate) const FLOAT_TOTAL_ORDER: &str = "float-total-order";
pub(crate) const NO_HASH_ITERATION: &str = "no-hash-iteration";
pub(crate) const NO_WALLCLOCK_IN_KERNELS: &str = "no-wallclock-in-kernels";
pub(crate) const ARCH_INTRINSICS_CONFINED: &str = "arch-intrinsics-confined";
pub(crate) const NO_LIBM_TANH: &str = "no-libm-tanh";
/// Cross-file rule, run by [`crate::workspace::lint_workspace`]: a `pub`
/// function, const or static in a crate's library that nothing outside
/// that library names.
pub(crate) const PUB_NEEDS_CALLER: &str = "pub-needs-caller";
/// Meta-rule: a malformed `lint:allow` (missing justification or
/// unknown rule name) is itself a finding — suppressions without a
/// reason are how grandfathered mess accretes.
pub(crate) const BAD_SUPPRESSION: &str = "bad-suppression";

/// Every real (suppressible) rule.
pub(crate) const ALL_RULES: &[&str] = &[
    UNSAFE_NEEDS_SAFETY,
    PANIC_NEEDS_INVARIANT,
    NO_BARE_LOCKS,
    FLOAT_TOTAL_ORDER,
    NO_HASH_ITERATION,
    NO_WALLCLOCK_IN_KERNELS,
    ARCH_INTRINSICS_CONFINED,
    NO_LIBM_TANH,
    PUB_NEEDS_CALLER,
];

/// The only file that may name `core::arch` / `std::arch` intrinsics:
/// the `Lane8` vector type every kernel in `gb-tensor` is written over.
const ARCH_INTRINSICS_HOME: &[&str] = &["crates/tensor/src/simd.rs"];

/// Path prefixes a rule is enforced under (forward-slash relative
/// paths). An empty list means "the whole workspace".
///
/// The scopes mirror the architecture:
/// * `unsafe-needs-safety` and `float-total-order` are global — an
///   undocumented `unsafe` or a NaN-partial comparator is wrong
///   anywhere, test code included.
/// * `panic-needs-invariant` covers the request path (`gb-serve`) and
///   the training hot path that serves it (`SnapshotHandle`, the shard
///   executor, snapshot construction, the boxed-op tape, and the GBGCN
///   trainer) — the modules where an unannotated panic takes live
///   traffic or a training run down.
/// * `no-bare-locks` covers every crate that adopted the PR 8
///   poison-recovery convention.
/// * `no-hash-iteration` and `no-wallclock-in-kernels` cover the
///   determinism-critical numeric modules, where hash iteration order
///   or wall-clock reads would break bitwise reproducibility.
/// * `arch-intrinsics-confined` is global *minus* `gb-tensor`'s `simd.rs`
///   (an exclusion, so it is applied at the rule rather than listed
///   here): every SIMD intrinsic lives beside its portable twin and the
///   bitwise tests that hold it to the no-FMA, fixed-order contract.
/// * `no-libm-tanh` is global outside test code: the workspace has one
///   `tanh`, `gb_tensor::kernels::tanh_inplace`, and test oracles are the
///   only callers libm's keeps.
pub(crate) fn rule_scope(rule: &str) -> &'static [&'static str] {
    match rule {
        UNSAFE_NEEDS_SAFETY | FLOAT_TOTAL_ORDER => &[],
        PANIC_NEEDS_INVARIANT => &[
            "crates/serve/src/",
            "crates/models/src/handle.rs",
            "crates/models/src/snapshot.rs",
            "crates/autograd/src/parallel.rs",
            "crates/autograd/src/tape.rs",
            "crates/core/src/model.rs",
        ],
        NO_BARE_LOCKS => &[
            "crates/serve/src/",
            "crates/models/src/",
            "crates/autograd/src/",
        ],
        NO_HASH_ITERATION => &[
            "crates/tensor/src/",
            "crates/core/src/propagation.rs",
            "crates/serve/src/ivf.rs",
            "crates/serve/src/topk.rs",
            "crates/serve/src/engine.rs",
            "crates/autograd/src/tape.rs",
            "crates/models/src/snapshot.rs",
        ],
        NO_WALLCLOCK_IN_KERNELS => &[
            "crates/tensor/src/",
            "crates/core/src/propagation.rs",
            "crates/serve/src/ivf.rs",
            "crates/serve/src/topk.rs",
            "crates/serve/src/engine.rs",
            "crates/serve/src/cache.rs",
            "crates/autograd/src/tape.rs",
        ],
        _ => &[],
    }
}

fn in_scope(rule: &str, path: &str) -> bool {
    let scope = rule_scope(rule);
    scope.is_empty() || scope.iter().any(|p| path == *p || path.starts_with(p))
}

/// Per-line facts used by the justification scans.
struct LineInfo {
    /// The line carries at least one non-comment, non-attribute token.
    has_code: bool,
    /// The line carries attribute tokens.
    has_attr: bool,
    /// Concatenated text of every comment token covering the line.
    comments: String,
    /// Text of the last non-comment token on the line (statement-end
    /// detection for the upward justification walk).
    last_code: String,
}

struct FileMap {
    tokens: Vec<Token>,
    lines: Vec<LineInfo>,
}

fn build_map(src: &str) -> FileMap {
    let tokens = lex(src);
    let n_lines = src.lines().count().max(1);
    let mut lines: Vec<LineInfo> = (0..n_lines)
        .map(|_| LineInfo {
            has_code: false,
            has_attr: false,
            comments: String::new(),
            last_code: String::new(),
        })
        .collect();
    for t in &tokens {
        for l in t.line..=t.end_line.min(n_lines) {
            let info = &mut lines[l - 1];
            if t.is_comment() {
                info.comments.push_str(&t.text);
                info.comments.push('\n');
            } else if t.in_attr {
                info.has_attr = true;
            } else {
                info.has_code = true;
                info.last_code = t.text.clone();
            }
        }
    }
    FileMap { tokens, lines }
}

impl FileMap {
    /// True when a comment containing one of `markers` covers `line`
    /// itself, a line of the same (possibly multi-line) statement, or
    /// the contiguous comment/attribute block directly above the
    /// statement. Blank lines and earlier statements break the search.
    fn justified(&self, line: usize, markers: &[&str]) -> bool {
        let hit = |l: usize| {
            self.lines
                .get(l - 1)
                .is_some_and(|i| markers.iter().any(|m| i.comments.contains(m)))
        };
        if hit(line) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if hit(l) {
                return true;
            }
            let info = &self.lines[l - 1];
            if info.has_code {
                // Same statement if the line does not end one; a
                // terminator means we reached the previous statement
                // without finding a marker.
                let ended = info
                    .last_code
                    .chars()
                    .last()
                    .is_some_and(|c| matches!(c, ';' | '{' | '}' | ','));
                if ended {
                    return false;
                }
            } else if !info.has_attr && info.comments.is_empty() {
                return false; // blank line breaks the association
            }
        }
        false
    }
}

/// An inline suppression parsed from a comment: `lint:allow` with the
/// rule name in parens and a mandatory `: reason` tail.
pub(crate) struct Allow {
    rule: String,
    /// Line the comment ends on: the allow covers findings on this line
    /// (trailing comment) and the next (comment-above form).
    line: usize,
    has_reason: bool,
    known_rule: bool,
}

impl Allow {
    /// True when this allow silences a `rule` finding on `line`.
    pub(crate) fn suppresses(&self, rule: &str, line: usize) -> bool {
        self.known_rule
            && self.has_reason
            && self.rule == rule
            && (self.line == line || self.line + 1 == line)
    }
}

/// Extracts every justified-suppression comment from the token stream.
pub(crate) fn collect_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let text = &t.text;
        let mut from = 0usize;
        while let Some(p) = text[from..].find("lint:allow(") {
            let start = from + p + "lint:allow(".len();
            let Some(close) = text[start..].find(')') else {
                break;
            };
            let rule = text[start..start + close].trim().to_string();
            let rest = &text[start + close + 1..];
            // Justification: a `:` followed by non-empty text (strip a
            // block comment's closing delimiter before judging).
            let rest_line = rest.lines().next().unwrap_or("");
            let rest_line = rest_line.trim_end_matches("*/").trim();
            let has_reason = rest_line
                .strip_prefix(':')
                .is_some_and(|r| !r.trim().is_empty());
            out.push(Allow {
                known_rule: ALL_RULES.contains(&rule.as_str()),
                rule,
                line: t.end_line,
                has_reason,
            });
            from = start + close + 1;
        }
    }
    out
}

/// Lints one file's source. `rel_path` decides rule scoping (and
/// whether the whole file is test code — a `tests/` directory).
/// Returns unsuppressed findings, sorted by line.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let map = build_map(src);
    let file_is_test = rel_path.split('/').any(|c| c == "tests");
    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        findings.push(Finding {
            rule,
            file: rel_path.to_string(),
            line,
            message,
        });
    };

    // Non-comment tokens, for sequence patterns.
    let sig: Vec<&Token> = map.tokens.iter().filter(|t| !t.is_comment()).collect();
    // Token ranges of `use` declarations (no-hash-iteration skips the
    // import — the construction/iteration site is where the allow
    // belongs, not every mention).
    let mut in_use = vec![false; sig.len()];
    {
        let mut inside = false;
        for (i, t) in sig.iter().enumerate() {
            if !inside
                && t.kind == TokenKind::Ident
                && t.text == "use"
                && (i == 0 || matches!(sig[i - 1].text.as_str(), ";" | "{" | "}" | "pub"))
            {
                inside = true;
            }
            in_use[i] = inside;
            if inside && t.kind == TokenKind::Punct && t.text == ";" {
                inside = false;
            }
        }
    }

    // Dedup consecutive hash-container mentions on one line (e.g.
    // `let m: HashMap<..> = HashMap::new()`): one finding per line.
    let mut last_hash_line = 0usize;
    for (i, t) in sig.iter().enumerate() {
        let test_code = file_is_test || t.in_test;
        let prev = |k: usize| i.checked_sub(k).map(|j| sig[j]);
        let next = |k: usize| sig.get(i + k).copied();

        // unsafe-needs-safety: every `unsafe` keyword (block, fn, impl,
        // trait) needs a `// SAFETY:` comment or a `# Safety` doc
        // section on the preceding comment block. Applies in test code
        // too: a test poking raw pointers owes the same argument.
        if in_scope(UNSAFE_NEEDS_SAFETY, rel_path)
            && t.kind == TokenKind::Ident
            && t.text == "unsafe"
            && !t.in_attr
            && !map.justified(t.line, &["SAFETY:", "# Safety"])
        {
            push(
                UNSAFE_NEEDS_SAFETY,
                t.line,
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) \
                 stating why the contract holds"
                    .to_string(),
            );
        }

        // panic-needs-invariant: request/training-path panics must
        // carry the PR 8 `// invariant:` annotation (or be converted to
        // a typed error). Test code is exempt.
        if in_scope(PANIC_NEEDS_INVARIANT, rel_path) && !test_code && !t.in_attr {
            let is_method_panic = t.kind == TokenKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && prev(1).is_some_and(|p| p.text == ".")
                && next(1).is_some_and(|n| n.text == "(");
            let is_macro_panic = t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && next(1).is_some_and(|n| n.text == "!");
            if (is_method_panic || is_macro_panic) && !map.justified(t.line, &["invariant:"]) {
                push(
                    PANIC_NEEDS_INVARIANT,
                    t.line,
                    format!(
                        "`{}` on a request/training path without an `// invariant:` comment \
                         stating why it cannot fire (or convert to a typed error)",
                        t.text
                    ),
                );
            }
        }

        // no-bare-locks: `.lock()` / `.read()` / `.write()` with empty
        // argument lists (the `Mutex`/`RwLock` signatures — `io::Read`
        // and `io::Write` calls take arguments) must go through the
        // poison-recovering helpers. Test code is exempt: tests poison
        // locks on purpose.
        if in_scope(NO_BARE_LOCKS, rel_path)
            && !test_code
            && t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && prev(1).is_some_and(|p| p.text == ".")
            && next(1).is_some_and(|n| n.text == "(")
            && next(2).is_some_and(|n| n.text == ")")
        {
            push(
                NO_BARE_LOCKS,
                t.line,
                format!(
                    "bare `.{}()` — route through the poison-recovering \
                     `{}_recover` helper (or justify why poisoning must propagate)",
                    t.text, t.text
                ),
            );
        }

        // float-total-order: `partial_cmp` is banned workspace-wide —
        // on the f32/f64 hot paths it either panics on NaN or silently
        // drops elements from sorts; `total_cmp` is bit-identical on
        // the finite inputs these paths see and total on the rest.
        if in_scope(FLOAT_TOTAL_ORDER, rel_path)
            && t.kind == TokenKind::Ident
            && t.text == "partial_cmp"
        {
            push(
                FLOAT_TOTAL_ORDER,
                t.line,
                "`partial_cmp` in a float comparator — use `total_cmp` \
                 (total over NaN, bit-identical on finite inputs)"
                    .to_string(),
            );
        }

        // no-hash-iteration: hash containers are banned by default in
        // determinism-critical numeric modules — iteration order is
        // randomized across processes, so any iteration would break
        // bit-identity. Lookup-only uses carry a justified allow; `use`
        // declarations are skipped (the construction site is flagged).
        if in_scope(NO_HASH_ITERATION, rel_path)
            && !test_code
            && !in_use[i]
            && t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && last_hash_line != t.line
        {
            last_hash_line = t.line;
            push(
                NO_HASH_ITERATION,
                t.line,
                format!(
                    "`{}` in a determinism-critical module — iteration order would \
                     break bit-identity; use a Vec/BTreeMap or justify a lookup-only use",
                    t.text
                ),
            );
        }

        // no-wallclock-in-kernels: kernel/scoring modules must stay
        // pure functions of their inputs — no `Instant::now` /
        // `SystemTime` reads (timing belongs to the service layer and
        // `gb-eval`).
        if in_scope(NO_WALLCLOCK_IN_KERNELS, rel_path)
            && !test_code
            && t.kind == TokenKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
        {
            push(
                NO_WALLCLOCK_IN_KERNELS,
                t.line,
                format!(
                    "`{}` in a kernel/scoring module — wall-clock reads make the \
                     hot path impure; time at the service/eval layer instead",
                    t.text
                ),
            );
        }

        // arch-intrinsics-confined: a `core::arch` / `std::arch` path
        // outside `simd.rs`. One fused multiply-add or one reordered
        // reduction anywhere else would silently break the bitwise
        // walls; behind `Lane8` it cannot get past the `Avx2 == Portable`
        // tests. Test code is not exempt. The `asm!` macros also live
        // under `arch` but are not intrinsics.
        if !ARCH_INTRINSICS_HOME.contains(&rel_path)
            && t.kind == TokenKind::Ident
            && t.text == "arch"
            && prev(1).is_some_and(|p| p.text == ":")
            && prev(2).is_some_and(|p| p.text == ":")
            && prev(3).is_some_and(|p| p.text == "core" || p.text == "std")
            && !(next(1).is_some_and(|n| n.text == ":")
                && next(2).is_some_and(|n| n.text == ":")
                && next(3).is_some_and(|n| n.text == "asm" || n.text == "global_asm"))
        {
            push(
                ARCH_INTRINSICS_CONFINED,
                t.line,
                "`core::arch`/`std::arch` outside crates/tensor/src/simd.rs — SIMD \
                 intrinsics stay behind `Lane8`, beside the portable form and its bitwise tests"
                    .to_string(),
            );
        }

        // no-libm-tanh: `f32::tanh` / `f64::tanh` as a path, or a
        // zero-argument `.tanh()` — the float method; `tape.tanh(v)` and
        // `kernels::tanh(&m)` take an argument. libm's result differs
        // from the in-repo kernel's in the last bits and from one glibc
        // to the next, so a second call site would split the
        // `dense` == chain wall and tie trained bits to the host again.
        // Test code is exempt: libm (in f64) is the accuracy oracle.
        if !test_code && t.kind == TokenKind::Ident && t.text == "tanh" {
            let float_path = prev(1).is_some_and(|p| p.text == ":")
                && prev(2).is_some_and(|p| p.text == ":")
                && prev(3).is_some_and(|p| p.text == "f32" || p.text == "f64");
            let float_method = prev(1).is_some_and(|p| p.text == ".")
                && next(1).is_some_and(|n| n.text == "(")
                && next(2).is_some_and(|n| n.text == ")");
            if float_path || float_method {
                push(
                    NO_LIBM_TANH,
                    t.line,
                    "libm `tanh` outside test code — call \
                     `gb_tensor::kernels::tanh_inplace`, the workspace's one `tanh`"
                        .to_string(),
                );
            }
        }
    }

    // Suppressions.
    let allows = collect_allows(&map.tokens);
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        if !allows.iter().any(|a| a.suppresses(f.rule, f.line)) {
            kept.push(f);
        }
    }
    for a in &allows {
        if !a.has_reason {
            kept.push(Finding {
                rule: BAD_SUPPRESSION,
                file: rel_path.to_string(),
                line: a.line,
                message: format!(
                    "`lint:allow({})` without a justification — write \
                     `lint:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            });
        } else if !a.known_rule {
            kept.push(Finding {
                rule: BAD_SUPPRESSION,
                file: rel_path.to_string(),
                line: a.line,
                message: format!("`lint:allow({})` names an unknown rule", a.rule),
            });
        }
    }
    kept.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    kept
}
