//! Pass 2 — the panic-safety source audit.
//!
//! Walks the untrusted-input substrate crates and flags constructs that
//! can panic on hostile bytes: `unwrap`/`expect`, panic-family macros,
//! slice indexing with non-literal indexes, and unchecked `+`/`*` on
//! length-typed values in reader hot paths. Everything a human has vetted
//! carries a trailing `// analysis:allow(<rule>) reason` annotation; the
//! audit enforces that the annotation names the right rule *and* gives a
//! non-empty reason.

use crate::lexer::{lex, LexedLine};
use crate::model::Workspace;
use crate::{Finding, Violation, PASS_SOURCE};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The crates whose `src/` trees the audit walks: the four untrusted-input
/// substrates plus `telemetry`, which runs inline on every pipeline worker
/// and must never be the thing that takes the survey down, and `store`,
/// which parses hostile on-disk state back into the survey.
pub const AUDITED_CRATES: [&str; 10] =
    ["asn1", "x509", "idna", "unicode", "telemetry", "core", "lint", "corpus", "chaos", "store"];

/// Files whose length arithmetic is additionally audited (`len_arith`).
/// These are the DER reader hot paths every untrusted byte flows through —
/// the budgeted reader, tag/length decoding, and the zero-copy certificate
/// view built on top of them.
pub const LEN_ARITH_FILES: [&str; 3] = [
    "asn1/src/reader.rs",
    "asn1/src/tag.rs",
    "x509/src/view.rs",
];

/// Identifier fragments that mark a value as length-typed.
const LENGTH_IDENT_PARTS: [&str; 8] =
    ["len", "length", "size", "offset", "pos", "idx", "index", "count"];

/// One audit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` / `.unwrap_err()`.
    Unwrap,
    /// `.expect(` / `.expect_err(`.
    Expect,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    PanicMacro,
    /// Slice/array indexing with a non-literal index expression.
    SliceIndex,
    /// Unchecked `+` / `*` on length-typed values in reader hot paths.
    LenArith,
    /// `// analysis:allow` present but carrying no reason.
    AllowMissingReason,
    /// `// analysis:allow` naming a rule that did not fire on the line.
    UnusedAllow,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    UnsafeAttrMissing,
}

impl Rule {
    /// Rule name as written in `analysis:allow(...)` and TSV reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::Expect => "expect",
            Rule::PanicMacro => "panic_macro",
            Rule::SliceIndex => "slice_index",
            Rule::LenArith => "len_arith",
            Rule::AllowMissingReason => "allow_missing_reason",
            Rule::UnusedAllow => "unused_allow",
            Rule::UnsafeAttrMissing => "unsafe_attr_missing",
        }
    }
}

/// A parsed `// analysis:allow(rule, rule2) reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule names the annotation suppresses.
    pub rules: Vec<String>,
    /// The human justification following the closing paren.
    pub reason: String,
}

/// Parse the annotation out of a line comment, if present.
pub fn parse_allow(comment: &str) -> Option<Result<Allow, String>> {
    let trimmed = comment.trim_start();
    let rest = trimmed.strip_prefix("analysis:allow")?;
    let rest = rest.trim_start();
    let Some(inner_and_tail) = rest.strip_prefix('(') else {
        return Some(Err("missing '(' after analysis:allow".to_string()));
    };
    let Some(close) = inner_and_tail.find(')') else {
        return Some(Err("unterminated analysis:allow(...)".to_string()));
    };
    let rules: Vec<String> = inner_and_tail[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Some(Err("analysis:allow names no rules".to_string()));
    }
    let reason = inner_and_tail[close + 1..].trim().to_string();
    Some(Ok(Allow { rules, reason }))
}

/// Audit every `.rs` file under the audited crates' `src/` trees,
/// resolving `analysis:allow` annotations locally (audit rules only).
///
/// This is the standalone entry point; the engine prefers [`run_model`],
/// which returns raw findings for central cross-pass resolution.
pub fn run(repo_root: &Path) -> Vec<Violation> {
    let ws = Workspace::load(repo_root);
    let findings = run_model(repo_root, &ws);
    let active: BTreeSet<&str> = crate::engine::Pass::Source
        .rules()
        .iter()
        .copied()
        .collect();
    crate::engine::resolve(&ws, findings, &active)
}

/// Raw audit findings over the audited crates' files in the workspace
/// model (no allow resolution — the engine does that centrally).
pub fn run_model(repo_root: &Path, ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in AUDITED_CRATES {
        let Some(info) = ws
            .crates
            .iter()
            .find(|c| c.group == "crates" && c.name == krate)
        else {
            // A missing crate would make the audit pass vacuously — treat
            // a misnamed --root as a violation, not a clean bill.
            findings.push(Finding {
                pass: PASS_SOURCE,
                rule: "io_error",
                file: repo_root
                    .join("crates")
                    .join(krate)
                    .join("src")
                    .display()
                    .to_string(),
                line: 0,
                message: "no .rs files found; is --root pointing at the repo?".to_string(),
            });
            continue;
        };
        for file in &info.files {
            findings.extend(audit_lines(&file.rel_path, &file.lines));
        }
    }
    findings
}

/// Raw findings for one file's classified lines.
pub fn audit_lines(rel_path: &str, lines: &[LexedLine]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let len_arith_applies = LEN_ARITH_FILES.iter().any(|f| rel_path.ends_with(f));
    for line in lines {
        if line.in_test_code {
            continue;
        }
        let mut fired: Vec<(Rule, String)> = Vec::new();
        scan_calls(&line.code, &mut fired);
        scan_macros(&line.code, &mut fired);
        scan_slice_index(&line.code, &mut fired);
        if len_arith_applies {
            scan_len_arith(&line.code, &mut fired);
        }
        for (rule, detail) in fired {
            findings.push(Finding {
                pass: PASS_SOURCE,
                rule: rule.name(),
                file: rel_path.to_string(),
                line: line.number,
                message: detail,
            });
        }
    }
    findings
}

/// Audit one file's text, resolving annotations against the audit's own
/// rule set (exposed for unit tests and ad-hoc single-file checks).
pub fn audit_file(rel_path: &str, text: &str, violations: &mut Vec<Violation>) {
    let lines = lex(text);
    let findings = audit_lines(rel_path, &lines);
    let krate = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("file");
    let ws = Workspace::from_sources(&[(krate, rel_path, text)]);
    let active: BTreeSet<&str> = crate::engine::Pass::Source
        .rules()
        .iter()
        .copied()
        .collect();
    violations.extend(crate::engine::resolve(&ws, findings, &active));
}

/// `.unwrap()` / `.unwrap_err()` / `.expect(` / `.expect_err(`.
fn scan_calls(code: &str, fired: &mut Vec<(Rule, String)>) {
    for (needle, rule, msg) in [
        (".unwrap()", Rule::Unwrap, "unwrap() can panic on untrusted input"),
        (".unwrap_err()", Rule::Unwrap, "unwrap_err() can panic on untrusted input"),
        (".expect(", Rule::Expect, "expect() can panic on untrusted input"),
        (".expect_err(", Rule::Expect, "expect_err() can panic on untrusted input"),
    ] {
        for _ in code.matches(needle) {
            fired.push((rule, msg.to_string()));
        }
    }
}

/// Panic-family macros.
fn scan_macros(code: &str, fired: &mut Vec<(Rule, String)>) {
    for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
        let mut start = 0;
        while let Some(found) = code[start..].find(mac) {
            let at = start + found;
            // Reject matches inside longer identifiers (e.g. `dont_panic!`).
            let prev = code[..at].chars().next_back();
            let is_boundary = !prev.is_some_and(|c| c.is_alphanumeric() || c == '_');
            // `debug_assert!`-style bangs are assertions, not these macros,
            // and never match the needles; no further filtering needed.
            if is_boundary {
                fired.push((
                    Rule::PanicMacro,
                    format!("{mac} aborts on untrusted input paths"),
                ));
            }
            start = at + mac.len();
        }
    }
}

/// Is this bracketed expression an index operation (vs. attribute, array
/// literal, or type)? The char *immediately* before `[` decides: an index
/// `[` always abuts its expression (`buf[i]`), while type positions like
/// `&'a [u8]` or `: [u8; 4]` are separated by a space, `<`, or `:`.
fn is_index_context(before: Option<char>) -> bool {
    matches!(before, Some(c) if c.is_alphanumeric() || c == '_' || c == ')' || c == ']')
}

/// Literal indexes (`buf[0]`, `buf[..4]`, `buf[1..3]`) are bounds-known;
/// everything else is flagged.
fn index_is_literal(inner: &str) -> bool {
    let inner = inner.trim();
    if inner.is_empty() {
        return true;
    }
    let is_lit_num = |s: &str| {
        let s = s.trim().trim_start_matches('=');
        !s.is_empty() && s.chars().all(|c| c.is_ascii_digit() || c == '_')
    };
    match inner.split_once("..") {
        Some((lo, hi)) => {
            (lo.trim().is_empty() || is_lit_num(lo)) && (hi.trim().is_empty() || is_lit_num(hi))
        }
        None => is_lit_num(inner),
    }
}

/// Find `expr[non-literal]` index operations.
fn scan_slice_index(code: &str, fired: &mut Vec<(Rule, String)>) {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '[' {
            let before = if i > 0 { Some(chars[i - 1]) } else { None };
            if is_index_context(before) {
                // Find the matching close bracket on this line.
                let mut depth = 1;
                let mut j = i + 1;
                while j < chars.len() && depth > 0 {
                    match chars[j] {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let inner: String = chars[i + 1..j.saturating_sub(1)].iter().collect();
                if depth == 0 && !index_is_literal(&inner) {
                    fired.push((
                        Rule::SliceIndex,
                        format!("non-literal index `[{}]` can panic out of bounds", inner.trim()),
                    ));
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
}

/// Does this identifier look length-typed?
fn is_length_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    LENGTH_IDENT_PARTS
        .iter()
        .any(|part| lower.split('_').any(|seg| seg == *part) || lower == *part)
}

/// Find unchecked `+` / `*` with a length-typed operand.
fn scan_len_arith(code: &str, fired: &mut Vec<(Rule, String)>) {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '+' && c != '*' {
            continue;
        }
        // `+=` means the left side accumulates; still addition.
        // Skip unary contexts for `*` (deref) and `+` in `+=`'s '=' char.
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace()).copied();
        let prev_is_operand = matches!(prev, Some(p) if p.is_alphanumeric() || p == '_' || p == ')' || p == ']');
        if !prev_is_operand {
            continue;
        }
        // Reject `++`/`**` nonsense and `->`/`=>`-adjacent forms; grab the
        // operand identifiers on both sides.
        let left = ident_before(&chars, i);
        let mut k = i + 1;
        if chars.get(k) == Some(&'=') {
            k += 1; // `+=`
        }
        let right = ident_after(&chars, k);
        let lengthish = |s: &Option<String>| s.as_deref().is_some_and(is_length_ident);
        if lengthish(&left) || lengthish(&right) {
            fired.push((
                Rule::LenArith,
                format!(
                    "unchecked `{}` on length-typed value ({}) — use checked_*/saturating_*",
                    if chars.get(i + 1) == Some(&'=') {
                        format!("{c}=")
                    } else {
                        c.to_string()
                    },
                    left.or(right).unwrap_or_default()
                ),
            ));
        }
    }
}

/// The identifier ending immediately before position `i` (skipping spaces).
fn ident_before(chars: &[char], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && (chars[j - 1].is_alphanumeric() || chars[j - 1] == '_') {
        j -= 1;
    }
    if j == end {
        None
    } else {
        Some(chars[j..end].iter().collect())
    }
}

/// The identifier starting at/after position `i` (skipping spaces).
fn ident_after(chars: &[char], i: usize) -> Option<String> {
    let mut j = i;
    while j < chars.len() && chars[j].is_whitespace() {
        j += 1;
    }
    let start = j;
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    if j == start {
        None
    } else {
        Some(chars[start..j].iter().collect())
    }
}

/// Crate-root hygiene: every workspace crate must forbid `unsafe_code`.
pub fn check_unsafe_attrs(repo_root: &Path, crate_roots: &[PathBuf]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for root in crate_roots {
        let rel = root
            .strip_prefix(repo_root)
            .unwrap_or(root)
            .display()
            .to_string();
        let Ok(text) = std::fs::read_to_string(root) else {
            violations.push(Violation {
                pass: PASS_SOURCE,
                rule: "io_error",
                location: rel,
                message: "cannot read crate root".to_string(),
            });
            continue;
        };
        let lines = lex(&text);
        let has_attr = lines.iter().any(|l: &LexedLine| {
            let c = l.code.trim();
            c.starts_with("#![forbid(unsafe_code)]") || c.starts_with("#![deny(unsafe_code)]")
        });
        if !has_attr {
            violations.push(Violation {
                pass: PASS_SOURCE,
                rule: Rule::UnsafeAttrMissing.name(),
                location: format!("{rel}:1"),
                message: "crate root lacks #![forbid(unsafe_code)] (or deny + analysis:allow)"
                    .to_string(),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_str(text: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        audit_file("crates/asn1/src/reader.rs", text, &mut v);
        v
    }

    #[test]
    fn flags_panic_family() {
        let v = audit_str("fn f() { x.unwrap(); y.expect(\"no\"); panic!(\"x\"); }\n");
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"unwrap"));
        assert!(rules.contains(&"expect"));
        assert!(rules.contains(&"panic_macro"));
    }

    #[test]
    fn ignores_comments_strings_and_tests() {
        let v = audit_str(
            "// x.unwrap()\nlet s = \"panic!\";\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let v = audit_str("let t = x.unwrap(); // analysis:allow(unwrap) checked len above\n");
        assert!(v.is_empty(), "{v:?}");
        let v = audit_str("let t = x.unwrap(); // analysis:allow(unwrap)\n");
        assert_eq!(v.len(), 2); // missing reason + the unsuppressed unwrap
        assert!(v.iter().any(|x| x.rule == "allow_missing_reason"));
    }

    #[test]
    fn unused_allow_is_reported() {
        let v = audit_str("let y = 1; // analysis:allow(unwrap) stale annotation\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unused_allow");
    }

    #[test]
    fn slice_index_literal_vs_dynamic() {
        assert!(audit_str("let a = buf[0]; let b = &buf[..4]; let c = buf[1..3];\n").is_empty());
        let v = audit_str("let a = buf[i];\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "slice_index");
        let v = audit_str("let a = &buf[..n];\n");
        assert_eq!(v[0].rule, "slice_index");
    }

    #[test]
    fn attributes_and_types_are_not_indexing() {
        let v = audit_str("#[derive(Debug)]\nstruct A { b: [u8; 4] }\nlet x: Vec<[u8; 2]> = vec![];\n");
        assert!(v.is_empty(), "{v:?}");
        // Slice types in references and return positions are not indexing.
        let v = audit_str("fn f<'a>(input: &'a [u8]) -> Result<&'a [u8]> { todo(input) }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn len_arith_only_in_hot_files() {
        let hot = audit_str("let end = pos + len;\n");
        assert!(hot.iter().any(|v| v.rule == "len_arith"), "{hot:?}");
        let mut cold = Vec::new();
        audit_file("crates/x509/src/name.rs", "let end = pos + len;\n", &mut cold);
        assert!(cold.is_empty(), "{cold:?}");
    }

    #[test]
    fn checked_arith_is_clean() {
        let v = audit_str("let end = pos.checked_add(len)?;\n");
        assert!(v.is_empty(), "{v:?}");
    }
}
