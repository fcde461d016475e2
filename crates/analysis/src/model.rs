//! The shared lightweight Rust source model the analyzer passes run over.
//!
//! The panic-safety audit only needed classified *lines*; the determinism,
//! allocation-bound, recursion, and layering passes need structure: which
//! `fn` items exist, what they call, which crates a file references, and
//! what each crate's manifest declares. This module upgrades the lexer's
//! line classification into a token stream with brace nesting, resolves
//! `fn` items (name, signature, body extent, outgoing calls) and crate
//! references (`use unicert_x`, qualified `unicert_x::` paths, shim crates),
//! and loads the whole workspace — manifests included — behind one
//! deterministic, sorted directory walk.

use crate::lexer::{lex, LexedLine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One code token (comments and literal interiors already blanked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text: an identifier/number run or a single punctuation char.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// Brace-nesting depth *before* this token is applied.
    pub depth: u32,
    /// Token came from a `#[cfg(test)]`-gated region.
    pub in_test_code: bool,
}

impl Token {
    /// Is this an identifier (or keyword) token?
    pub fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Tokenize classified lines into an ident/punct stream with brace depth.
///
/// Tokens from `#[cfg(test)]` regions are kept (their braces matter for
/// nesting) but carry `in_test_code` so consumers can skip them.
pub fn tokenize(lines: &[LexedLine]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut depth: u32 = 0;
    for line in lines {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: line.number,
                    depth,
                    in_test_code: line.in_test_code,
                });
                continue;
            }
            // `{` records the depth *outside* it and `}` the depth after
            // closing, so a matching pair carries the same depth value.
            if c == '}' {
                depth = depth.saturating_sub(1);
            }
            let tok_depth = depth;
            if c == '{' {
                depth += 1;
            }
            tokens.push(Token {
                text: c.to_string(),
                line: line.number,
                depth: tok_depth,
                in_test_code: line.in_test_code,
            });
            i += 1;
        }
    }
    tokens
}

/// How a call site names its callee — the precision recursion analysis
/// needs to avoid conflating same-named methods on different types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Bare `f(…)`.
    Plain,
    /// `self.f(…)`, `Self::f(…)`, or `self::f(…)` — same-impl dispatch.
    SelfMethod,
    /// `recv.f(…)` on a non-`self` receiver; the callee's type is unknown.
    Method,
    /// `Qualifier::f(…)` — the qualifier is the path segment before `f`.
    Qualified,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRef {
    /// Callee simple name.
    pub name: String,
    /// How the callee was named.
    pub kind: CallKind,
    /// For [`CallKind::Qualified`], the immediate path qualifier.
    pub qualifier: Option<String>,
}

/// One resolved `fn` item: signature, body extent, and outgoing calls.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's simple name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line where the body's `{` opens (equals `sig_line` for
    /// single-line items); `None` for bodyless trait-method declarations.
    pub body_start: Option<usize>,
    /// 1-based line of the body's closing `}`.
    pub body_end: usize,
    /// Raw parameter-list text between the signature parens.
    pub params: String,
    /// Everything the body calls (`f(`, `x.f(`, `p::f(`), macros and
    /// control-flow keywords excluded, in source order.
    pub calls: Vec<CallRef>,
    /// Concatenated code text of signature + body lines (test lines
    /// excluded), used for cheap containment queries.
    pub text: String,
}

/// One crate reference found in a source file (a `use unicert_x` item or a
/// qualified `unicert_x::`/shim-crate path), deduplicated per file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseRef {
    /// Referenced crate's short name (`asn1`, `lint`, `rand`, …).
    pub krate: String,
    /// First 1-based line referencing it.
    pub line: usize,
}

/// One analyzed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Short name of the owning crate (`asn1`, not `unicert-asn1`).
    pub krate: String,
    /// Repo-relative path (`crates/asn1/src/reader.rs`).
    pub rel_path: String,
    /// Is this a `src/bin/` driver rather than library code?
    pub is_bin: bool,
    /// Lexically classified lines.
    pub lines: Vec<LexedLine>,
    /// Resolved `fn` items (test-gated items excluded).
    pub fns: Vec<FnItem>,
    /// Crate references from non-test code.
    pub uses: Vec<UseRef>,
    /// Names of types/modules defined in this file (sorted, deduplicated).
    pub type_defs: Vec<String>,
}

/// One dependency entry from a manifest's `[dependencies]` section.
#[derive(Debug, Clone)]
pub struct ManifestDep {
    /// Short crate name (`asn1` for `unicert-asn1`, `rand` for `rand`).
    pub name: String,
    /// 1-based line in the Cargo.toml.
    pub line: usize,
}

/// One workspace crate: manifest plus analyzed sources.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Short name (`asn1`).
    pub name: String,
    /// `"crates"` or `"shims"`.
    pub group: String,
    /// Repo-relative manifest path.
    pub manifest_rel: String,
    /// `[dependencies]` entries (dev-dependencies are deliberately not
    /// collected: dev-dep cycles are legal in cargo and out of scope for
    /// layering).
    pub deps: Vec<ManifestDep>,
    /// Analyzed `.rs` files under `src/`, in sorted path order.
    pub files: Vec<SourceFile>,
}

/// The analyzed workspace: every crate under `crates/` and `shims/`.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Crates in sorted (group, name) order.
    pub crates: Vec<CrateInfo>,
}

impl Workspace {
    /// Load and analyze the workspace rooted at `root`.
    ///
    /// Every directory listing is sorted before use, so file — and
    /// therefore finding — order is identical across filesystems.
    pub fn load(root: &Path) -> Workspace {
        let mut crates = Vec::new();
        for group in ["crates", "shims"] {
            for crate_dir in sorted_subdirs(&root.join(group)) {
                let name = crate_dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let manifest_path = crate_dir.join("Cargo.toml");
                if !manifest_path.is_file() {
                    continue;
                }
                let manifest_rel = rel_display(root, &manifest_path);
                let manifest_text = std::fs::read_to_string(&manifest_path).unwrap_or_default();
                let deps = parse_manifest_deps(&manifest_text);

                let mut files = Vec::new();
                let mut rs_files = Vec::new();
                collect_rs_files_sorted(&crate_dir.join("src"), &mut rs_files);
                for path in rs_files {
                    let rel = rel_display(root, &path);
                    let Ok(text) = std::fs::read_to_string(&path) else {
                        continue;
                    };
                    files.push(analyze_source(&name, &rel, &text));
                }
                crates.push(CrateInfo {
                    name,
                    group: group.to_string(),
                    manifest_rel,
                    deps,
                    files,
                });
            }
        }
        Workspace { crates }
    }

    /// Build an in-memory workspace from `(crate, rel_path, source)` tuples
    /// — the test harness for pass fixtures.
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> Workspace {
        let mut by_crate: BTreeMap<String, Vec<SourceFile>> = BTreeMap::new();
        for (krate, rel, text) in sources {
            by_crate
                .entry((*krate).to_string())
                .or_default()
                .push(analyze_source(krate, rel, text));
        }
        Workspace {
            crates: by_crate
                .into_iter()
                .map(|(name, files)| CrateInfo {
                    name,
                    group: "crates".to_string(),
                    manifest_rel: String::new(),
                    deps: Vec::new(),
                    files,
                })
                .collect(),
        }
    }

    /// All source files across crates, in deterministic order.
    pub fn files(&self) -> impl Iterator<Item = &SourceFile> {
        self.crates.iter().flat_map(|c| c.files.iter())
    }
}

/// Analyze one file's text into the model.
pub fn analyze_source(krate: &str, rel_path: &str, text: &str) -> SourceFile {
    let lines = lex(text);
    let tokens = tokenize(&lines);
    let fns = resolve_fns(&lines, &tokens);
    let uses = resolve_uses(&lines);
    let type_defs = collect_type_defs(&tokens);
    SourceFile {
        krate: krate.to_string(),
        rel_path: rel_path.to_string(),
        is_bin: rel_path.contains("/src/bin/") || rel_path.ends_with("/main.rs"),
        lines,
        fns,
        uses,
        type_defs,
    }
}

/// Sorted immediate subdirectories of `dir`.
fn sorted_subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// Recursively collect `.rs` files, sorting each directory level so the
/// walk order — not just a post-hoc sort — is filesystem-independent.
pub fn collect_rs_files_sorted(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files_sorted(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_display(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Keywords that look like calls (`if (...)`, `match (...)`) but are not.
const NON_CALL_KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "let", "fn", "impl",
    "pub", "use", "mod", "where", "move", "ref", "mut", "dyn", "crate", "super", "break",
    "continue",
];

/// Resolve `fn` items from the token stream.
fn resolve_fns(lines: &[LexedLine], tokens: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "fn" || tokens[i].in_test_code {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.is_ident()) else {
            i += 1;
            continue;
        };
        let sig_line = tokens[i].line;
        let name = name_tok.text.clone();
        // Skip generics between name and the parameter parens.
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 1i32;
            j += 1;
            while j < tokens.len() && angle > 0 {
                match tokens[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        if tokens.get(j).is_none_or(|t| t.text != "(") {
            i += 1;
            continue;
        }
        // Capture the parameter list.
        let mut paren = 1i32;
        let mut params = String::new();
        j += 1;
        while j < tokens.len() && paren > 0 {
            match tokens[j].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                _ => {}
            }
            if paren > 0 {
                params.push_str(&tokens[j].text);
                params.push(' ');
            }
            j += 1;
        }
        // Scan forward to the body `{` (through return type / where
        // clause) or a `;` ending a bodyless declaration.
        let mut body_start = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => {
                    body_start = Some(tokens[j].line);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(body_start_line) = body_start else {
            fns.push(FnItem {
                name,
                sig_line,
                body_start: None,
                body_end: sig_line,
                params,
                calls: Vec::new(),
                text: String::new(),
            });
            i = j.max(i + 1);
            continue;
        };
        // Body extent: match braces from the opening `{` at tokens[j].
        let open_depth = tokens[j].depth;
        let body_tok_start = j + 1;
        let mut k = j + 1;
        while k < tokens.len() {
            if tokens[k].text == "}" && tokens[k].depth == open_depth {
                break;
            }
            k += 1;
        }
        let body_end = tokens.get(k).map(|t| t.line).unwrap_or(sig_line);
        let calls = extract_calls(&tokens[body_tok_start..k]);
        let text = lines
            .iter()
            .filter(|l| l.number >= sig_line && l.number <= body_end && !l.in_test_code)
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        fns.push(FnItem {
            name,
            sig_line,
            body_start: Some(body_start_line),
            body_end,
            params,
            calls,
            text,
        });
        // Continue scanning *inside* the body too, so nested fns are found.
        i += 2;
    }
    fns
}

/// Extract call sites from a body token slice.
fn extract_calls(body: &[Token]) -> Vec<CallRef> {
    let mut calls = Vec::new();
    for (idx, tok) in body.iter().enumerate() {
        if !tok.is_ident() || tok.in_test_code {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&tok.text.as_str()) {
            continue;
        }
        if tok.text.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        // Preceded by `fn` means this is a nested definition, not a call.
        if idx > 0 && body[idx - 1].text == "fn" {
            continue;
        }
        // `name(` — or `name::<T>(` turbofish.
        let mut j = idx + 1;
        if body.get(j).is_some_and(|t| t.text == ":")
            && body.get(j + 1).is_some_and(|t| t.text == ":")
            && body.get(j + 2).is_some_and(|t| t.text == "<")
        {
            let mut angle = 1i32;
            j += 3;
            while j < body.len() && angle > 0 {
                match body[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        if body.get(j).is_some_and(|t| t.text == "(") {
            // `name!(` macro invocations never reach here: `!` intervenes.
            calls.push(classify_call(body, idx, tok.text.clone()));
        }
    }
    calls
}

/// Classify how the call at `body[idx]` names its callee, from the tokens
/// immediately preceding the name.
fn classify_call(body: &[Token], idx: usize, name: String) -> CallRef {
    // `recv.name(` — method call; `self.name(` is same-impl dispatch.
    if idx >= 1 && body[idx - 1].text == "." {
        let kind = if idx >= 2 && body[idx - 2].text == "self" {
            CallKind::SelfMethod
        } else {
            CallKind::Method
        };
        return CallRef {
            name,
            kind,
            qualifier: None,
        };
    }
    // `Qualifier::name(` — the segment right before the final `::` decides.
    if idx >= 2 && body[idx - 1].text == ":" && body[idx - 2].text == ":" {
        let q = body
            .get(idx.wrapping_sub(3))
            .filter(|t| t.is_ident())
            .map(|t| t.text.clone());
        return match q.as_deref() {
            Some("self") | Some("Self") => CallRef {
                name,
                kind: CallKind::SelfMethod,
                qualifier: None,
            },
            // `<T as Trait>::f(` leaves no ident qualifier: stays Qualified
            // with `None`, which resolvers treat as unknowable.
            _ => CallRef {
                name,
                kind: CallKind::Qualified,
                qualifier: q,
            },
        };
    }
    CallRef {
        name,
        kind: CallKind::Plain,
        qualifier: None,
    }
}

/// Collect the names of types and modules *defined* in this file
/// (`struct`/`enum`/`trait`/`union`/`mod`/`type` items and `impl` targets),
/// so qualified calls can be told apart from std/foreign-crate paths.
fn collect_type_defs(tokens: &[Token]) -> Vec<String> {
    let mut defs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].in_test_code {
            i += 1;
            continue;
        }
        match tokens[i].text.as_str() {
            "struct" | "enum" | "trait" | "union" | "mod" | "type" => {
                if let Some(n) = tokens.get(i + 1).filter(|t| t.is_ident()) {
                    defs.push(n.text.clone());
                }
            }
            "impl" => {
                // `impl<…> Type {` or `impl Trait for Type {`: the
                // implemented-on type is after `for` when present, else the
                // first ident past the generics — never the trait path.
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.text == "<") {
                    let mut angle = 1i32;
                    j += 1;
                    while j < tokens.len() && angle > 0 {
                        match tokens[j].text.as_str() {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                let mut first_ident = None;
                let mut for_ident = None;
                while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                    if tokens[j].text == "for" {
                        for_ident = tokens
                            .get(j + 1)
                            .filter(|t| t.is_ident())
                            .map(|t| t.text.clone());
                    } else if first_ident.is_none() && tokens[j].is_ident() {
                        first_ident = Some(tokens[j].text.clone());
                    }
                    j += 1;
                }
                if let Some(n) = for_ident.or(first_ident) {
                    defs.push(n);
                }
            }
            _ => {}
        }
        i += 1;
    }
    defs.sort();
    defs.dedup();
    defs
}

/// Shim crates referenced by bare name rather than an `unicert_` prefix.
const EXTERNAL_CRATES: [&str; 2] = ["rand", "proptest"];

/// Resolve crate references from non-test code lines: `unicert_x::` paths,
/// `use unicert_x...` items, and the shim crates. One `UseRef` per
/// referenced crate per file, anchored at its first occurrence.
fn resolve_uses(lines: &[LexedLine]) -> Vec<UseRef> {
    let mut first: BTreeMap<String, usize> = BTreeMap::new();
    for line in lines {
        if line.in_test_code {
            continue;
        }
        let code = &line.code;
        // `unicert_<name>` occurrences (use items and qualified paths).
        let mut start = 0;
        while let Some(found) = code[start..].find("unicert_") {
            let at = start + found;
            let boundary = at == 0
                || !code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let rest = &code[at + "unicert_".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if boundary && !name.is_empty() {
                first.entry(name).or_insert(line.number);
            }
            start = at + "unicert_".len();
        }
        // Shim crates: `use rand...` or a qualified `rand::` path.
        for ext in EXTERNAL_CRATES {
            let trimmed = code.trim_start();
            let used = trimmed.strip_prefix("use ").is_some_and(|r| {
                let r = r.trim_start();
                r.starts_with(&format!("{ext}::")) || r == format!("{ext};")
            });
            let qualified = find_path_ref(code, ext);
            if used || qualified {
                first.entry(ext.to_string()).or_insert(line.number);
            }
        }
    }
    first
        .into_iter()
        .map(|(krate, line)| UseRef { krate, line })
        .collect()
}

/// Is there a standalone `name::` path reference in this code line?
fn find_path_ref(code: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(found) = code[start..].find(name) {
        let at = start + found;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':');
        let after = &code[at + name.len()..];
        if before_ok && after.starts_with("::") {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// Parse a manifest's `[dependencies]` entries (unicert + shim crates).
pub fn parse_manifest_deps(text: &str) -> Vec<ManifestDep> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `unicert-asn1.workspace = true` / `rand = { path = ... }`
        let key: String = line
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if key.is_empty() {
            continue;
        }
        let name = key.strip_prefix("unicert-").unwrap_or(&key).to_string();
        deps.push(ManifestDep {
            name,
            line: idx + 1,
        });
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_tracks_brace_depth() {
        let lines = lex("fn a() { if x { y(); } }\n");
        let tokens = tokenize(&lines);
        let y = tokens.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.depth, 2);
        let a = tokens.iter().find(|t| t.text == "a").unwrap();
        assert_eq!(a.depth, 0);
    }

    fn call_names(f: &FnItem) -> Vec<&str> {
        f.calls.iter().map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn fn_items_resolve_with_calls() {
        let src = "fn outer(x: usize) -> usize {\n    helper(x);\n    x.method_call();\n    mod_path::leaf(x)\n}\nfn helper(_x: usize) {}\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        assert_eq!(file.fns.len(), 2);
        let outer = &file.fns[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.sig_line, 1);
        assert_eq!(outer.body_end, 5);
        assert_eq!(call_names(outer), vec!["helper", "method_call", "leaf"]);
        assert_eq!(outer.calls[0].kind, CallKind::Plain);
        assert_eq!(outer.calls[1].kind, CallKind::Method);
        assert_eq!(outer.calls[2].kind, CallKind::Qualified);
        assert_eq!(outer.calls[2].qualifier.as_deref(), Some("mod_path"));
    }

    #[test]
    fn self_calls_classify_as_self_method() {
        let src = "impl W {\n    fn a(&self) { self.b(); Self::c(); self.field.other(); }\n}\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        let a = &file.fns[0];
        assert_eq!(a.calls[0].kind, CallKind::SelfMethod);
        assert_eq!(a.calls[1].kind, CallKind::SelfMethod);
        assert_eq!(a.calls[2].kind, CallKind::Method, "{:?}", a.calls[2]);
    }

    #[test]
    fn type_defs_collect_items_and_impl_targets() {
        let src = "pub struct Reader;\npub mod known { }\nimpl fmt::Display for Tag { }\nimpl<'a> Reader { fn f(&self) {} }\ntrait Decode { }\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        assert_eq!(file.type_defs, vec!["Decode", "Reader", "Tag", "known"]);
        assert!(
            !file.type_defs.contains(&"Display".to_string()),
            "trait path of an impl must not register as a local type"
        );
    }

    #[test]
    fn generic_fns_and_turbofish_calls() {
        let src = "fn g<T: Clone>(v: Vec<T>) -> usize {\n    v.iter().count::<>();\n    parse::<u32>(\"1\")\n}\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        assert_eq!(file.fns[0].name, "g");
        assert!(call_names(&file.fns[0]).contains(&"parse"));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f() {\n    if (a)(b) {}\n    println!(\"x\");\n    for i in (0..4) {}\n}\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        let names = call_names(&file.fns[0]);
        assert!(!names.contains(&"println"));
        assert!(!names.iter().any(|c| *c == "if" || *c == "for" || *c == "in"));
    }

    #[test]
    fn test_gated_fns_are_excluded() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn gated() {}\n}\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        let names: Vec<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn use_refs_cover_unicert_and_shims() {
        let src = "use unicert_asn1::Reader;\nuse rand::Rng;\nfn f() { unicert_x509::parse(); }\n#[cfg(test)]\nmod t { use unicert_chaos::Mutator; }\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        let names: Vec<&str> = file.uses.iter().map(|u| u.krate.as_str()).collect();
        assert_eq!(names, vec!["asn1", "rand", "x509"]);
    }

    #[test]
    fn manifest_deps_skip_dev_dependencies() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\nunicert-asn1.workspace = true\nrand = { path = \"../rand\" }\n\n[dev-dependencies]\nproptest.workspace = true\n";
        let deps = parse_manifest_deps(toml);
        let names: Vec<&str> = deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["asn1", "rand"]);
    }

    #[test]
    fn bodyless_trait_methods_resolve() {
        let src = "trait T {\n    fn required(&self) -> usize;\n    fn provided(&self) -> usize { self.required() }\n}\n";
        let file = analyze_source("t", "crates/t/src/lib.rs", src);
        assert_eq!(file.fns.len(), 2);
        assert_eq!(file.fns[0].body_start, None);
        assert_eq!(call_names(&file.fns[1]), vec!["required"]);
        assert_eq!(file.fns[1].calls[0].kind, CallKind::SelfMethod);
    }
}
