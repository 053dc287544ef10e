//! A minimal hand-rolled Rust lexer for the invariant checker.
//!
//! The container is offline and vendored-only, so `syn` is not an
//! option — and the rules in this crate don't need a parse tree anyway.
//! What they *do* need, and what a plain `grep` cannot give them, is to
//! never misfire on pattern words inside string literals, comments, raw
//! strings, or char literals, and to know which tokens sit inside
//! `#[...]` attributes and inside `#[cfg(test)]` / `#[test]` regions.
//! This lexer produces exactly that: a flat token stream with line
//! spans plus `in_attr` / `in_test` flags.
//!
//! Coverage (deliberately the whole surface the workspace uses):
//! line comments (`//`, `///`, `//!`), nested block comments, string
//! literals with escapes, raw strings `r"…"` / `r#"…"#` (any hash
//! count, plus `b`/`br` prefixes), byte and char literals, lifetime
//! vs. char-literal disambiguation, raw identifiers `r#ident`, numbers
//! (enough to not swallow `0..n` ranges), and single-char punctuation.

/// What a token is. Rules only ever distinguish identifiers,
/// punctuation, and "comment" vs "not a comment".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `unwrap`, `HashMap`, …).
    Ident,
    /// `'a`, `'static`, loop labels.
    Lifetime,
    /// Integer or float literal.
    Number,
    /// String, raw string, byte string, char, or byte literal.
    Literal,
    /// `// …` (includes doc comments).
    LineComment,
    /// `/* … */`, nesting handled.
    BlockComment,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its line span and region flags.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokenKind,
    /// The source text of the token (full text for comments, so rules
    /// can search them for `SAFETY:` / `invariant:` / `lint:allow`).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based line the token ends on (multi-line comments/strings).
    pub end_line: usize,
    /// Inside a `#[...]` or `#![...]` attribute.
    pub in_attr: bool,
    /// Inside an item annotated `#[cfg(test)]` or `#[test]`.
    pub in_test: bool,
}

impl Token {
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Lexes `src` and marks attribute and test regions.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut tokens = raw_lex(src);
    mark_attrs(&mut tokens);
    mark_tests(&mut tokens);
    tokens
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn raw_lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    // Count newlines inside [start, end) and return the new line number.
    let lines_in = |start: usize, end: usize, line: usize| -> usize {
        line + b[start..end].iter().filter(|&&c| c == b'\n').count()
    };
    let mut push = |kind: TokenKind, start: usize, end: usize, line: usize, end_line: usize| {
        out.push(Token {
            kind,
            text: String::from_utf8_lossy(&b[start..end]).into_owned(),
            line,
            end_line,
            in_attr: false,
            in_test: false,
        });
    };
    while i < n {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            push(TokenKind::LineComment, start, i, line, line);
            continue;
        }
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let end_line = lines_in(start, i, line);
            push(TokenKind::BlockComment, start, i, line, end_line);
            line = end_line;
            continue;
        }
        // Raw strings and raw identifiers: r"…", r#"…"#, r#ident, with
        // optional b prefix for byte raw strings.
        if (c == b'r' || c == b'b') && i + 1 < n {
            let mut j = i;
            if c == b'b' && j + 1 < n && b[j + 1] == b'r' {
                j += 1; // br…
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == b'"' {
                    // Raw (byte) string: scan for `"` followed by `hashes` #s.
                    let start = i;
                    let mut m = k + 1;
                    'scan: while m < n {
                        if b[m] == b'"' {
                            let mut h = 0usize;
                            while m + 1 + h < n && h < hashes && b[m + 1 + h] == b'#' {
                                h += 1;
                            }
                            if h == hashes {
                                m += 1 + hashes;
                                break 'scan;
                            }
                        }
                        m += 1;
                    }
                    let end_line = lines_in(start, m, line);
                    push(TokenKind::Literal, start, m, line, end_line);
                    line = end_line;
                    i = m;
                    continue;
                }
                if c == b'r' && hashes == 1 && k < n && is_ident_start(b[k]) {
                    // Raw identifier r#ident.
                    let start = i;
                    let mut m = k;
                    while m < n && is_ident_continue(b[m]) {
                        m += 1;
                    }
                    push(TokenKind::Ident, start, m, line, line);
                    i = m;
                    continue;
                }
            }
        }
        // Byte literals: b"…" / b'…'.
        if c == b'b' && i + 1 < n && (b[i + 1] == b'"' || b[i + 1] == b'\'') {
            let start = i;
            let quote = b[i + 1];
            let mut m = i + 2;
            while m < n {
                if b[m] == b'\\' {
                    m += 2;
                    continue;
                }
                if b[m] == quote {
                    m += 1;
                    break;
                }
                m += 1;
            }
            let end_line = lines_in(start, m.min(n), line);
            push(TokenKind::Literal, start, m.min(n), line, end_line);
            line = end_line;
            i = m.min(n);
            continue;
        }
        // Plain strings.
        if c == b'"' {
            let start = i;
            let mut m = i + 1;
            while m < n {
                if b[m] == b'\\' {
                    m += 2;
                    continue;
                }
                if b[m] == b'"' {
                    m += 1;
                    break;
                }
                m += 1;
            }
            let end_line = lines_in(start, m.min(n), line);
            push(TokenKind::Literal, start, m.min(n), line, end_line);
            line = end_line;
            i = m.min(n);
            continue;
        }
        // Lifetime vs char literal: `'a` / `'static` are lifetimes when
        // the char after the identifier char is not a closing quote.
        if c == b'\'' {
            if i + 1 < n && is_ident_start(b[i + 1]) && !(i + 2 < n && b[i + 2] == b'\'') {
                let start = i;
                let mut m = i + 1;
                while m < n && is_ident_continue(b[m]) {
                    m += 1;
                }
                push(TokenKind::Lifetime, start, m, line, line);
                i = m;
                continue;
            }
            // Char literal (covers escapes like '\n', '\u{1F600}').
            let start = i;
            let mut m = i + 1;
            while m < n {
                if b[m] == b'\\' {
                    m += 2;
                    continue;
                }
                if b[m] == b'\'' {
                    m += 1;
                    break;
                }
                m += 1;
            }
            push(TokenKind::Literal, start, m.min(n), line, line);
            i = m.min(n);
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            push(TokenKind::Ident, start, i, line, line);
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (is_ident_continue(b[i]) || {
                    // Consume a `.` only when it starts a fractional part, so
                    // `0..k` ranges stay three tokens.
                    b[i] == b'.' && i + 1 < n && b[i + 1].is_ascii_digit()
                })
            {
                i += 1;
            }
            // Exponent sign (`1e-5`): the `e`/`E` was consumed above.
            if i < n
                && (b[i] == b'+' || b[i] == b'-')
                && (b[i - 1] == b'e' || b[i - 1] == b'E')
                && b[start..i].iter().any(|c| c.is_ascii_digit())
            {
                i += 1;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
            }
            push(TokenKind::Number, start, i, line, line);
            continue;
        }
        push(TokenKind::Punct, i, i + 1, line, line);
        i += 1;
    }
    out
}

/// Marks tokens inside `#[...]` / `#![...]` attributes (including the
/// delimiters themselves).
fn mark_attrs(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct && tokens[i].text == "#" {
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "!" {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "[" {
                let mut depth = 0usize;
                let mut k = j;
                while k < tokens.len() {
                    if tokens[k].kind == TokenKind::Punct {
                        match tokens[k].text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
                let end = k.min(tokens.len() - 1);
                for t in &mut tokens[i..=end] {
                    t.in_attr = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// True when the attribute body (tokens strictly between `#[` and `]`)
/// marks test-only code: exactly `test`, or `cfg(…)` containing `test`
/// without a `not`.
fn is_test_attr(body: &[&str]) -> bool {
    if body == ["test"] {
        return true;
    }
    body.first() == Some(&"cfg") && body.contains(&"test") && !body.contains(&"not")
}

/// Marks tokens of items annotated `#[cfg(test)]` / `#[test]` — the
/// whole `{ … }` body (or through `;` for bodyless items).
fn mark_tests(tokens: &mut [Token]) {
    // Indices of non-comment tokens.
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut marks: Vec<(usize, usize)> = Vec::new(); // token-index ranges, inclusive
    let mut s = 0usize;
    while s < sig.len() {
        let i = sig[s];
        // Attribute group start?
        if tokens[i].in_attr && tokens[i].text == "#" && tokens[i].kind == TokenKind::Punct {
            // Collect this group's body and find its end.
            let mut e = s;
            let mut depth = 0usize;
            let mut body: Vec<&str> = Vec::new();
            while e < sig.len() {
                let t = &tokens[sig[e]];
                if t.kind == TokenKind::Punct && t.text == "[" {
                    depth += 1;
                } else if t.kind == TokenKind::Punct && t.text == "]" {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth > 0 {
                    body.push(t.text.as_str());
                }
                e += 1;
            }
            if is_test_attr(&body) {
                // Skip any further attribute groups, then mark the item.
                let mut p = e + 1;
                while p < sig.len() && tokens[sig[p]].in_attr {
                    p += 1;
                }
                let mut brace = 0usize;
                let mut q = p;
                while q < sig.len() {
                    let t = &tokens[sig[q]];
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "{" => brace += 1,
                            "}" => {
                                brace -= 1;
                                if brace == 0 {
                                    break;
                                }
                            }
                            ";" if brace == 0 => break,
                            _ => {}
                        }
                    }
                    q += 1;
                }
                if p < sig.len() {
                    marks.push((sig[p], sig[q.min(sig.len() - 1)]));
                }
                s = e + 1;
                continue;
            }
            s = e + 1;
            continue;
        }
        s += 1;
    }
    for (a, z) in marks {
        for t in &mut tokens[a..=z] {
            t.in_test = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
let a = "unsafe unwrap"; // unsafe in a comment
/* unsafe block comment /* nested unsafe */ still comment */
let b = r#"raw unsafe "quoted" text"#;
let c = 'u';
let d: &'static str = "x";
real_ident();
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real_ident".to_string()));
        // The lifetime is not a char literal and not an ident.
        let lifetimes: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lifetimes, vec!["'static"]);
    }

    #[test]
    fn lines_are_tracked_across_multiline_tokens() {
        let src = "let a = \"line1\nline2\";\nfn f() {}\n";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokenKind::Literal).unwrap();
        assert_eq!((s.line, s.end_line), (1, 2));
        let f = toks.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 3);
    }

    #[test]
    fn attrs_and_test_regions_are_marked() {
        let src = "
#[derive(Clone)]
struct S;
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
fn live() { y.unwrap(); }
";
        let toks = lex(src);
        let derive = toks.iter().find(|t| t.text == "derive").unwrap();
        assert!(derive.in_attr);
        let unwraps: Vec<bool> = toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
        // cfg(not(test)) is NOT test code.
        let toks = lex("#[cfg(not(test))]\nfn f() { a.unwrap(); }\n");
        assert!(toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .all(|t| !t.in_test));
    }

    #[test]
    fn raw_idents_and_ranges_lex_cleanly() {
        let toks = lex("let r#type = 1; for i in 0..10 { v[i] = 1.0e-5; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "r#type"));
        // `0..10` must be number, dot, dot, number.
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        let pos = texts.iter().position(|&t| t == "0").unwrap();
        assert_eq!(&texts[pos..pos + 4], &["0", ".", ".", "10"]);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Number && t.text == "1.0e-5"));
    }

    #[test]
    fn byte_and_raw_byte_literals() {
        let toks = lex(r##"let a = b"bytes unsafe"; let b = br#"raw unsafe"#; let c = b'u';"##);
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "unsafe"));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            3
        );
    }
}
