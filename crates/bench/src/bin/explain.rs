//! `explain` — render where in the DER a lint finding comes from.
//!
//! The evidence-span half of the flight-recorder work (DESIGN.md §13):
//! parse a certificate, lint it with evidence capture on, and anchor every
//! finding to the byte ranges it read. Two modes:
//!
//! ```text
//! # One vector: annotated hex dump + findings (TSV default, JSON opt-in)
//! cargo run --release -p unicert-bench --bin explain -- \
//!     tests/vectors/webpki/e_rfc_dns_idn_a2u_unpermitted_unichar.der \
//!     [--profile webpki] [--format tsv|json]
//!
//! # Every committed golden vector, asserting full evidence coverage
//! cargo run --release -p unicert-bench --bin explain -- \
//!     --vectors tests/vectors [--format tsv|json] [--out BENCH_explain.json]
//! ```
//!
//! Sweep mode walks each profile-named subdirectory (`webpki/`, `bimi/`;
//! directories that are not profile names, like `malformed/`, are skipped),
//! lints every `*.der` under its profile's registry, and **fails (exit 1)**
//! unless every finding of every vector carries at least one evidence span
//! that is non-empty and inside the vector's byte length. The per-vector
//! summary goes to stdout in the shared `--format`, and a JSON report to
//! `--out` (default `BENCH_explain.json`) for the CI artifact.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;

use unicert::lint::{self, Finding, LintContext, RunOptions};
use unicert::telemetry::snapshot::escape_json;
use unicert::x509::CertView;
use unicert_bench::cli::{self, OutputFormat, Records};
use unicert_bench::flag_arg;

/// Columns of the per-evidence findings table (single-vector mode).
const FINDING_COLUMNS: &[&str] = &[
    "lint", "severity", "nc_type", "new_lint", "offset", "len", "path", "raw", "normalized",
    "citation",
];

/// Columns of the per-vector summary table (sweep mode).
const SWEEP_COLUMNS: &[&str] =
    &["profile", "vector", "findings", "evidence", "all_spanned"];

fn fail(msg: &str) -> ! {
    eprintln!("explain: {msg}");
    std::process::exit(2);
}

/// Lint one certificate's DER with evidence capture on; exits when `der`
/// (read from `name`) does not parse.
fn run_with_evidence(registry: &lint::Registry, name: &str, der: &[u8]) -> Vec<Finding> {
    let view = CertView::parse_der(der)
        .unwrap_or_else(|e| fail(&format!("{name} does not parse: {e}")));
    let ctx = LintContext::with_evidence(&view);
    let opts = RunOptions { evidence: true, ..RunOptions::default() };
    registry.run_ctx(&ctx, opts).findings
}

/// Is every finding anchored by at least one non-empty span inside the
/// vector's byte length?
fn fully_spanned(findings: &[Finding], der_len: usize) -> bool {
    findings.iter().all(|f| {
        !f.evidence.is_empty()
            && f.evidence.iter().all(|e| e.span.len > 0 && e.span.end() <= der_len)
    })
}

fn finding_rows(findings: &[Finding]) -> Records {
    let mut records = Records::new(FINDING_COLUMNS);
    for f in findings {
        for e in &f.evidence {
            records.push(vec![
                f.lint.to_string(),
                format!("{:?}", f.severity),
                format!("{:?}", f.nc_type),
                f.new_lint.to_string(),
                e.span.offset.to_string(),
                e.span.len.to_string(),
                e.tlv_path.clone(),
                e.raw.clone(),
                e.normalized.clone().unwrap_or_default(),
                e.citation.to_string(),
            ]);
        }
    }
    records
}

/// JSON rendering of one explained vector — nested (finding → evidence
/// list), so it is written by hand rather than through [`Records`].
fn vector_json(path: &str, profile: &str, der_len: usize, findings: &[Finding]) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"vector\": \"{}\",", escape_json(path));
    let _ = writeln!(json, "  \"profile\": \"{}\",", escape_json(profile));
    let _ = writeln!(json, "  \"der_len\": {der_len},");
    let _ = writeln!(json, "  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"lint\": \"{}\",", escape_json(f.lint));
        let _ = writeln!(json, "      \"severity\": \"{:?}\",", f.severity);
        let _ = writeln!(json, "      \"nc_type\": \"{:?}\",", f.nc_type);
        let _ = writeln!(json, "      \"new_lint\": {},", f.new_lint);
        let _ = writeln!(json, "      \"evidence\": [");
        for (j, e) in f.evidence.iter().enumerate() {
            let comma = if j + 1 < f.evidence.len() { "," } else { "" };
            let normalized = match &e.normalized {
                Some(n) => format!("\"{}\"", escape_json(n)),
                None => "null".to_string(),
            };
            let _ = writeln!(
                json,
                "        {{\"offset\": {}, \"len\": {}, \"end\": {}, \"path\": \"{}\", \
                 \"raw\": \"{}\", \"normalized\": {normalized}, \"citation\": \"{}\"}}{comma}",
                e.span.offset,
                e.span.len,
                e.span.end(),
                escape_json(&e.tlv_path),
                escape_json(&e.raw),
                escape_json(e.citation),
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    json
}

/// Annotated hex dump: 16 bytes per row, with each evidence anchor named on
/// the row its span starts in. Rows are `# `-prefixed so the dump coexists
/// with the TSV table on one stream.
fn hex_dump(der: &[u8], findings: &[Finding]) -> String {
    // Row index → anchors starting there, in finding order.
    let mut anchors: Vec<(usize, String)> = Vec::new();
    for f in findings {
        for e in &f.evidence {
            anchors.push((
                e.span.offset / 16,
                format!("{} [{}..{}) {}", f.lint, e.span.offset, e.span.end(), e.tlv_path),
            ));
        }
    }
    let mut out = String::new();
    for (row, chunk) in der.chunks(16).enumerate() {
        let mut hex = String::with_capacity(48);
        let mut ascii = String::with_capacity(16);
        for b in chunk {
            let _ = write!(hex, "{b:02x} ");
            ascii.push(if (0x20..=0x7e).contains(b) { *b as char } else { '.' });
        }
        let _ = write!(out, "# {:08x}  {hex:<48} |{ascii:<16}|", row * 16);
        let marks: Vec<&str> = anchors
            .iter()
            .filter(|(r, _)| *r == row)
            .map(|(_, label)| label.as_str())
            .collect();
        if !marks.is_empty() {
            let _ = write!(out, "  <= {}", marks.join("; "));
        }
        out.push('\n');
    }
    out
}

/// Explain one vector file to stdout.
fn explain_one(path: &str, format: OutputFormat) {
    let der = std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let profile = flag_arg("--profile").unwrap_or_else(|| lint::DEFAULT_PROFILE.to_string());
    let registry = lint::profiles::registry(&profile)
        .unwrap_or_else(|| fail(&format!("unknown profile {profile:?}")));
    let findings = run_with_evidence(registry, path, &der);
    match format {
        OutputFormat::Json => print!("{}", vector_json(path, &profile, der.len(), &findings)),
        OutputFormat::Tsv => {
            println!(
                "# vector {path} ({} bytes), profile {profile}, {} findings",
                der.len(),
                findings.len()
            );
            print!("{}", hex_dump(&der, &findings));
            print!("{}", finding_rows(&findings).render(format));
        }
    }
    if !fully_spanned(&findings, der.len()) {
        eprintln!("explain: FATAL: a finding of {path} is missing an in-bounds evidence span");
        std::process::exit(1);
    }
}

/// One vector's result in the sweep report.
struct SweepRow {
    profile: String,
    vector: String,
    findings: usize,
    evidence: usize,
    all_spanned: bool,
}

/// Explain every golden vector under `dir`, one profile per subdirectory.
fn explain_vectors(dir: &str, format: OutputFormat) {
    let out_path = flag_arg("--out").unwrap_or_else(|| "BENCH_explain.json".to_string());
    let mut profiles: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| fail(&format!("cannot list {dir}: {e}")))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| lint::profiles::find(n).is_some())
        })
        .collect();
    profiles.sort();
    if profiles.is_empty() {
        fail(&format!("{dir} has no profile-named vector directories"));
    }

    let mut rows: Vec<SweepRow> = Vec::new();
    for profile_dir in &profiles {
        let profile = profile_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let registry = lint::profiles::registry(&profile)
            .unwrap_or_else(|| fail(&format!("unknown profile {profile:?}")));
        let mut vectors: Vec<PathBuf> = std::fs::read_dir(profile_dir)
            .unwrap_or_else(|e| fail(&format!("cannot list {}: {e}", profile_dir.display())))
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "der"))
            .collect();
        vectors.sort();
        for vector in vectors {
            let name = vector.display().to_string();
            let der = std::fs::read(&vector)
                .unwrap_or_else(|e| fail(&format!("cannot read {name}: {e}")));
            let findings = run_with_evidence(registry, &name, &der);
            rows.push(SweepRow {
                profile: profile.clone(),
                vector: name,
                findings: findings.len(),
                evidence: findings.iter().map(|f| f.evidence.len()).sum(),
                all_spanned: fully_spanned(&findings, der.len()),
            });
        }
    }

    let mut records = Records::new(SWEEP_COLUMNS);
    for row in &rows {
        records.push(vec![
            row.profile.clone(),
            row.vector.clone(),
            row.findings.to_string(),
            row.evidence.to_string(),
            row.all_spanned.to_string(),
        ]);
    }
    print!("{}", records.render(format));

    let total_findings: usize = rows.iter().map(|r| r.findings).sum();
    let all_spanned = rows.iter().all(|r| r.all_spanned);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"tool\": \"explain\",");
    let _ = writeln!(json, "  \"vectors_dir\": \"{}\",", escape_json(dir));
    let _ = writeln!(json, "  \"vectors\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"profile\": \"{}\", \"vector\": \"{}\", \"findings\": {}, \
             \"evidence\": {}, \"all_spanned\": {}}}{comma}",
            escape_json(&row.profile),
            escape_json(&row.vector),
            row.findings,
            row.evidence,
            row.all_spanned,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_findings\": {total_findings},");
    let _ = writeln!(json, "  \"all_spanned\": {all_spanned}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    eprintln!("explain: wrote {out_path} ({} vectors, {total_findings} findings)", rows.len());

    if !all_spanned {
        for row in rows.iter().filter(|r| !r.all_spanned) {
            eprintln!("explain: FATAL: {} has findings without in-bounds spans", row.vector);
        }
        std::process::exit(1);
    }
}

fn main() {
    let format = cli::output_format();
    if let Some(dir) = flag_arg("--vectors") {
        return explain_vectors(&dir, format);
    }
    // First positional argument = the vector to explain.
    let mut args = std::env::args().skip(1);
    let mut target = None;
    while let Some(arg) = args.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            if !flag.contains('=') {
                let _ = args.next();
            }
            continue;
        }
        target = Some(arg);
        break;
    }
    match target {
        Some(path) => explain_one(&path, format),
        None => fail(
            "usage: explain <vector.der> [--profile NAME] [--format tsv|json] | \
             explain --vectors <dir> [--format tsv|json] [--out FILE]",
        ),
    }
}
