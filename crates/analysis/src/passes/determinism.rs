//! Pass 3 — the determinism pass.
//!
//! Survey reports must be byte-identical across runs, thread counts, and
//! machines (PR 2's merge contract). That only holds if no code on the
//! report-construction path consults a clock, iterates an unordered
//! `HashMap`/`HashSet`, depends on the thread id or thread count, or
//! accumulates floats (whose sums are order-sensitive). This pass computes
//! the set of functions reachable from `SurveyReport` construction or
//! `merge` over the model's call graph and flags those four construct
//! families inside it.
//!
//! Reachability is a deliberate overapproximation: a call edge resolves to
//! every same-file definition of the callee's simple name, plus cross-file
//! definitions when the name is rare (≤ `MAX_CROSS_FILE_DEFS` (3) definitions
//! workspace-wide); ubiquitous names (`new`, `len`, …) are treated as
//! opaque. Code the call graph cannot see into — the 95 lint `check`
//! functions invoked through fn pointers — is force-scanned via
//! [`crate::config::AnalysisConfig::determinism_always_scan`].

use super::{ident_ending_before, is_ident_char, push};
use crate::config::AnalysisConfig;
use crate::model::{SourceFile, Workspace};
use crate::{Finding, PASS_DETERMINISM};
use std::collections::{BTreeMap, BTreeSet};

/// Unordered-map iteration in report-reachable code.
pub const RULE_MAP_ITER: &str = "map_iter";
/// Clock reads (`Instant::now`/`SystemTime::now`) in report-reachable code.
pub const RULE_CLOCK: &str = "clock";
/// Thread-id/thread-count dependence in report-reachable code.
pub const RULE_THREAD: &str = "thread_dependence";
/// Float accumulation in report-reachable code.
pub const RULE_FLOAT: &str = "float_accum";

/// A simple name resolves cross-file only when defined at most this many
/// times workspace-wide.
const MAX_CROSS_FILE_DEFS: usize = 3;

/// Methods whose receiver being a `HashMap`/`HashSet` makes iteration
/// order — and therefore any derived output — nondeterministic.
const ITER_METHODS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Run the determinism pass.
pub fn run(ws: &Workspace, cfg: &AnalysisConfig) -> Vec<Finding> {
    // Flatten the in-scope files (library code of non-exempt crates).
    let files: Vec<&SourceFile> = ws
        .crates
        .iter()
        .filter(|c| c.group == "crates" && !cfg.determinism_exempt_crates.contains(&c.name.as_str()))
        .flat_map(|c| c.files.iter())
        .filter(|f| !f.is_bin)
        .collect();

    // Global fn table: flat id → (file idx, fn idx); name → flat ids.
    let mut flat: Vec<(usize, usize)> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut per_file_names: Vec<BTreeMap<&str, Vec<usize>>> = vec![BTreeMap::new(); files.len()];
    for (fi, file) in files.iter().enumerate() {
        for (gi, item) in file.fns.iter().enumerate() {
            let id = flat.len();
            flat.push((fi, gi));
            by_name.entry(item.name.as_str()).or_default().push(id);
            per_file_names[fi]
                .entry(item.name.as_str())
                .or_default()
                .push(id);
        }
    }

    // Seeds: any fn whose signature+body mentions SurveyReport (its
    // constructors, its merge, and everything holding one).
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (id, &(fi, gi)) in flat.iter().enumerate() {
        if files[fi].fns[gi].text.contains("SurveyReport") {
            reachable.insert(id);
            queue.push(id);
        }
    }

    // BFS over call edges.
    while let Some(id) = queue.pop() {
        let (fi, gi) = flat[id];
        for call in &files[fi].fns[gi].calls {
            let mut targets: Vec<usize> = Vec::new();
            if let Some(same_file) = per_file_names[fi].get(call.name.as_str()) {
                targets.extend_from_slice(same_file);
            }
            if let Some(all) = by_name.get(call.name.as_str()) {
                if all.len() <= MAX_CROSS_FILE_DEFS {
                    targets.extend_from_slice(all);
                }
            }
            for t in targets {
                if reachable.insert(t) {
                    queue.push(t);
                }
            }
        }
    }

    // Line scan set: reachable fn body ranges, plus force-scanned files.
    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let force = cfg
            .determinism_always_scan
            .iter()
            .any(|frag| file.rel_path.contains(frag));
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        if force {
            ranges.push((1, usize::MAX));
        } else {
            for (gi, item) in file.fns.iter().enumerate() {
                let id = flat
                    .iter()
                    .position(|&(a, b)| a == fi && b == gi)
                    .unwrap_or(usize::MAX);
                if reachable.contains(&id) {
                    ranges.push((item.sig_line, item.body_end));
                }
            }
        }
        if ranges.is_empty() {
            continue;
        }
        scan_file(file, &ranges, &mut findings);
    }
    findings
}

/// Does `line` fall inside any of the (inclusive) ranges?
fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| line >= lo && line <= hi)
}

fn scan_file(file: &SourceFile, ranges: &[(usize, usize)], out: &mut Vec<Finding>) {
    let map_idents = collect_map_idents(file);
    let float_idents = collect_float_idents(file);
    for line in &file.lines {
        if line.in_test_code || !in_ranges(ranges, line.number) {
            continue;
        }
        let code = &line.code;

        for needle in ["Instant::now(", "SystemTime::now("] {
            if code.contains(needle) {
                push(
                    out,
                    PASS_DETERMINISM,
                    RULE_CLOCK,
                    &file.rel_path,
                    line.number,
                    format!(
                        "`{}()` on the report path — reports must be clock-free",
                        &needle[..needle.len() - 1]
                    ),
                );
            }
        }
        for (needle, what) in [
            ("available_parallelism", "thread-count"),
            ("thread::current", "thread-id"),
            ("ThreadId", "thread-id"),
        ] {
            if code.contains(needle) {
                push(
                    out,
                    PASS_DETERMINISM,
                    RULE_THREAD,
                    &file.rel_path,
                    line.number,
                    format!("{what} dependence (`{needle}`) on the report path"),
                );
            }
        }
        scan_map_iteration(code, &map_idents, &file.rel_path, line.number, out);
        scan_float_accum(code, &float_idents, &file.rel_path, line.number, out);
    }
}

/// Identifiers declared (or typed) as `HashMap`/`HashSet` anywhere in the
/// file: `name: HashMap<...>` fields/params, `let name = HashMap::new()`,
/// and `let name: HashSet<...>` locals.
fn collect_map_idents(file: &SourceFile) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for line in &file.lines {
        if line.in_test_code {
            continue;
        }
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            let mut start = 0;
            while let Some(found) = code[start..].find(ty) {
                let at = start + found;
                let before = code[..at].trim_end();
                // `name: HashMap<` or `name: RefCell<HashMap<...>>` etc. —
                // walk back over a chain of wrapper generics to the `:`.
                if let Some(name) = binding_name_before(before) {
                    idents.insert(name);
                }
                // `let name = HashMap::new()` / `= HashMap::with_capacity`.
                if before.ends_with('=') {
                    if let Some(name) = ident_ending_before(
                        before,
                        before.len() - 1,
                    ) {
                        idents.insert(name);
                    }
                }
                start = at + ty.len();
            }
        }
    }
    idents
}

/// For text ending in a (possibly wrapped) type position like
/// `labels: RefCell<` or `cas: `, recover the bound name before the `:`.
fn binding_name_before(before: &str) -> Option<String> {
    // Strip trailing wrapper-type openings: idents, `<`, `:` pairs.
    let mut s = before;
    loop {
        let t = s.trim_end();
        if let Some(rest) = t.strip_suffix('<') {
            // drop the wrapper type name too
            let trimmed = rest.trim_end();
            let cut = trimmed
                .rfind(|c: char| !is_ident_char(c))
                .map(|i| i + 1)
                .unwrap_or(0);
            s = &trimmed[..cut];
            continue;
        }
        if let Some(rest) = t.strip_suffix(':') {
            // `::` is a path, not a binding.
            if rest.ends_with(':') {
                return None;
            }
            return ident_ending_before(rest, rest.len()).filter(|n| n != "mut" && n != "let");
        }
        return None;
    }
}

/// Flag iteration over map-typed identifiers.
fn scan_map_iteration(
    code: &str,
    map_idents: &BTreeSet<String>,
    file: &str,
    line: usize,
    out: &mut Vec<Finding>,
) {
    if map_idents.is_empty() {
        return;
    }
    for method in ITER_METHODS {
        let mut start = 0;
        while let Some(found) = code[start..].find(method) {
            let at = start + found;
            if let Some(receiver) = ident_ending_before(code, at) {
                if map_idents.contains(&receiver) {
                    push(
                        out,
                        PASS_DETERMINISM,
                        RULE_MAP_ITER,
                        file,
                        line,
                        format!(
                            "iteration over unordered map/set `{receiver}` ({}) — order is \
                             nondeterministic; use BTreeMap/BTreeSet or sort first",
                            method.trim_end_matches('(')
                        ),
                    );
                }
            }
            start = at + method.len();
        }
    }
    // `for x in &map { ... }` without an explicit iter call.
    if let Some(for_at) = find_for_keyword(code) {
        if let Some(in_at) = code[for_at..].find(" in ").map(|i| for_at + i + 4) {
            let tail = &code[in_at..];
            let expr: String = tail
                .chars()
                .take_while(|c| *c != '{')
                .collect::<String>()
                .trim()
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .to_string();
            if map_idents.contains(expr.as_str()) {
                push(
                    out,
                    PASS_DETERMINISM,
                    RULE_MAP_ITER,
                    file,
                    line,
                    format!(
                        "`for … in {expr}` iterates an unordered map/set — order is \
                         nondeterministic; use BTreeMap/BTreeSet or sort first"
                    ),
                );
            }
        }
    }
}

/// Offset of a standalone `for` keyword, if present.
fn find_for_keyword(code: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(found) = code[start..].find("for") {
        let at = start + found;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(is_ident_char);
        let after_ok = code[at + 3..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 3;
    }
    None
}

/// Identifiers bound to float values: `let x = 0.0`, `x: f64`, `x: f32`.
fn collect_float_idents(file: &SourceFile) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for line in &file.lines {
        if line.in_test_code {
            continue;
        }
        let code = &line.code;
        for ty in [": f64", ": f32"] {
            let mut start = 0;
            while let Some(found) = code[start..].find(ty) {
                let at = start + found;
                if let Some(name) = ident_ending_before(code, at) {
                    idents.insert(name);
                }
                start = at + ty.len();
            }
        }
        // `let [mut] name = <float literal>`
        if let Some(rest) = code.trim_start().strip_prefix("let ") {
            let rest = rest.trim_start().trim_start_matches("mut ");
            if let Some((name_part, value)) = rest.split_once('=') {
                let name: String = name_part
                    .trim()
                    .chars()
                    .take_while(|c| is_ident_char(*c))
                    .collect();
                let v = value.trim().trim_end_matches(';');
                let is_float_literal = v
                    .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '_'))
                    .next()
                    .is_some_and(|head| {
                        head.contains('.')
                            && head.chars().next().is_some_and(|c| c.is_ascii_digit())
                    });
                if !name.is_empty() && (is_float_literal || v.ends_with("f64") || v.ends_with("f32"))
                {
                    idents.insert(name);
                }
            }
        }
    }
    idents
}

/// Flag `x += …` on float-typed identifiers and float `.sum()` calls.
fn scan_float_accum(
    code: &str,
    float_idents: &BTreeSet<String>,
    file: &str,
    line: usize,
    out: &mut Vec<Finding>,
) {
    for op in ["+=", "*="] {
        let mut start = 0;
        while let Some(found) = code[start..].find(op) {
            let at = start + found;
            if let Some(lhs) = ident_ending_before(code, at) {
                if float_idents.contains(&lhs) {
                    push(
                        out,
                        PASS_DETERMINISM,
                        RULE_FLOAT,
                        file,
                        line,
                        format!(
                            "float accumulation `{lhs} {op}` on the report path — float sums \
                             are evaluation-order-sensitive; use integer units or fixed-point"
                        ),
                    );
                }
            }
            start = at + op.len();
        }
    }
    for needle in [".sum::<f64>()", ".sum::<f32>()"] {
        if code.contains(needle) {
            push(
                out,
                PASS_DETERMINISM,
                RULE_FLOAT,
                file,
                line,
                format!("float `{needle}` on the report path — order-sensitive"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(&[("core", "crates/core/src/survey.rs", src)])
    }

    #[test]
    fn clock_in_reachable_fn_fires() {
        let src = "fn build() -> SurveyReport {\n    let t = Instant::now();\n    SurveyReport::default()\n}\n";
        let f = run(&ws(src), &AnalysisConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_CLOCK);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn clock_in_unreachable_fn_is_ignored() {
        let src = "fn unrelated() {\n    let t = Instant::now();\n}\n";
        let f = run(&ws(src), &AnalysisConfig::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transitive_callee_is_reachable() {
        let src = "fn build() -> SurveyReport {\n    helper();\n    SurveyReport::default()\n}\nfn helper() {\n    let t = SystemTime::now();\n}\n";
        let f = run(&ws(src), &AnalysisConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn map_iteration_fires() {
        let src = "fn merge(other: SurveyReport) {\n    let counts: HashMap<String, u64> = HashMap::new();\n    for k in counts.keys() { drop(k); }\n}\n";
        let f = run(&ws(src), &AnalysisConfig::default());
        assert!(f.iter().any(|f| f.rule == RULE_MAP_ITER && f.line == 3), "{f:?}");
    }

    #[test]
    fn telemetry_is_exempt() {
        let src = "fn snapshot(r: &SurveyReport) {\n    let t = Instant::now();\n}\n";
        let ws = Workspace::from_sources(&[("telemetry", "crates/telemetry/src/lib.rs", src)]);
        let f = run(&ws, &AnalysisConfig::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_count_and_float_accum_fire() {
        let src = "fn build() -> SurveyReport {\n    let n = std::thread::available_parallelism();\n    let mut acc = 0.0;\n    acc += 1.5;\n    SurveyReport::default()\n}\n";
        let f = run(&ws(src), &AnalysisConfig::default());
        assert!(f.iter().any(|f| f.rule == RULE_THREAD && f.line == 2), "{f:?}");
        assert!(f.iter().any(|f| f.rule == RULE_FLOAT && f.line == 4), "{f:?}");
    }

    #[test]
    fn always_scan_paths_need_no_reachability() {
        let src = "fn check(ctx: &LintContext) {\n    let t = Instant::now();\n}\n";
        let ws = Workspace::from_sources(&[("lint", "crates/lint/src/catalog/t1.rs", src)]);
        let f = run(&ws, &AnalysisConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
