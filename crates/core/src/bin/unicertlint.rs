//! `unicertlint` — lint certificates from files against a named
//! compliance profile (the Zlint-style CLI the paper's recommendations
//! propose releasing). The default profile is the 95-rule `webpki`
//! Unicert catalog; select another with `--profile <name>` or the
//! `UNICERT_PROFILE` environment variable (unknown names fall back to
//! the default).
//!
//! ```text
//! unicertlint [--ungated] [--quiet] [--profile <name>] <cert.pem|cert.der>...
//! unicertlint --demo            # lint a built-in noncompliant example
//! ```
//!
//! Exit status: 0 = all compliant, 1 = findings, 2 = usage/parse error.

use unicert::asn1::ParseBudget;
use unicert::lint::{LintContext, RunOptions, Severity};
use unicert::x509::{pem, CertView, Certificate};

/// The DER of the one certificate in `path` (DER or PEM), not yet parsed.
fn load_der(path: &str) -> Result<Vec<u8>, String> {
    let budget = ParseBudget::default();
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if data.is_empty() {
        return Err(format!("{path}: empty input file"));
    }
    // One certificate per file: anything past the single-cert parse budget
    // is rejected up front with a size, not fed to the parser. (PEM decode
    // can only shrink the payload, so checking the file size bounds both
    // encodings.)
    if data.len() > budget.max_input {
        return Err(format!(
            "{path}: input is {} bytes, over the {}-byte single-certificate limit",
            data.len(),
            budget.max_input
        ));
    }
    if data.starts_with(b"-----BEGIN") || data.windows(10).take(200).any(|w| w == b"-----BEGIN") {
        let text = String::from_utf8_lossy(&data);
        let (label, der) = pem::decode(&text).map_err(|e| format!("{path}: PEM: {e}"))?;
        if label != "CERTIFICATE" {
            return Err(format!("{path}: unexpected PEM label {label:?}"));
        }
        Ok(der)
    } else {
        Ok(data)
    }
}

fn demo_certificate() -> Certificate {
    use unicert::asn1::oid::known;
    use unicert::asn1::{DateTime, StringKind};
    use unicert::x509::{CertificateBuilder, SimKey};
    CertificateBuilder::new()
        .subject_attr(known::common_name(), StringKind::Bmp, "demo.example")
        .subject_attr_raw(known::organization_name(), StringKind::Utf8, b"Demo\x00Org")
        .add_dns_san("demo.example")
        .add_dns_san("xn--www-hn0a.demo.example")
        .validity_days(
            DateTime { year: 2024, month: 6, day: 1, hour: 0, minute: 0, second: 0 },
            90,
        )
        .build_signed(&SimKey::from_seed("demo-ca"))
}

/// Lint and classify `der` through one context over its budgeted view
/// parse; the count of findings, or the parse error.
fn lint_one(name: &str, der: &[u8], opts: RunOptions, quiet: bool) -> Result<usize, String> {
    let registry = unicert::lint::profiles::registry(opts.effective_profile())
        .unwrap_or_else(unicert::corpus::lint_registry);
    let state = ParseBudget::default().start();
    let view =
        CertView::parse_der_budgeted(der, &state).map_err(|e| format!("{name}: DER: {e}"))?;
    let ctx = LintContext::from_view(&view);
    let class = unicert::classify::classify_ctx(&ctx);
    let report = registry.run_ctx(&ctx, opts);
    println!(
        "{name}: subject={:?} unicert={} idn={} findings={}",
        view.subject.common_name().unwrap_or_default(),
        class.is_unicert(),
        class.is_idn_cert(),
        report.findings.len()
    );
    if !quiet {
        for f in &report.findings {
            let sev = match f.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "WARN ",
            };
            println!("  {sev} [{}] {}", f.nc_type.label(), f.lint);
        }
    }
    Ok(report.findings.len())
}

fn main() {
    // Strict env handling for binaries: a malformed UNICERT_* variable is
    // a usage error here, not a silent library fallback.
    if let Err(problems) = RunOptions::validate_env() {
        eprintln!("error: invalid environment:\n{problems}");
        std::process::exit(2);
    }
    let mut opts = RunOptions::default();
    let mut quiet = false;
    let mut demo = false;
    let mut paths: Vec<String> = Vec::new();
    let usage = "usage: unicertlint [--ungated] [--quiet] [--profile <name>] <cert.pem|cert.der>... | --demo";
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ungated" => opts.enforce_effective_dates = false,
            "--quiet" => quiet = true,
            "--demo" => demo = true,
            "--profile" => {
                // Resolve now so a typo'd name is a usage error here, not a
                // silent fallback at lint time.
                let name = args.next().unwrap_or_default();
                match unicert::lint::profiles::find(&name) {
                    Some(p) => opts.profile = Some(p.name),
                    None => {
                        eprintln!("error: unknown profile {name:?}; registered profiles:");
                        for p in unicert::lint::profiles::all() {
                            eprintln!("  {} — {}", p.name, p.description);
                        }
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            p => paths.push(p.to_string()),
        }
    }
    if !demo && paths.is_empty() {
        eprintln!("{usage}");
        std::process::exit(2);
    }

    let mut findings = 0usize;
    let mut lint = |name: &str, der: Result<Vec<u8>, String>| {
        match der.and_then(|der| lint_one(name, &der, opts, quiet)) {
            Ok(n) => findings += n,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    };
    if demo {
        lint("demo", Ok(demo_certificate().raw));
    }
    for path in &paths {
        lint(path, load_der(path));
    }
    std::process::exit(if findings == 0 { 0 } else { 1 });
}
