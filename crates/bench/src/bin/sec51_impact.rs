//! E-S5.1 — the §5.1 impact analysis: count Unicerts with ASN.1 encoding
//! errors, rebuild the issuer linkage via AIA, verify (simulated)
//! signatures, and break down the affected fields — the paper's
//! "7,415 Unicerts with encoding errors / 5,772 trusted" result.

use unicert::corpus::{trust, CorpusGenerator, TrustStatus};
use unicert::lint::{NoncomplianceType, RunOptions};

fn main() {
    let _telemetry = unicert_bench::telemetry_args();
    let config = unicert_bench::corpus_args(100_000);
    eprintln!("corpus: {} Unicerts (seed {})", config.size, config.seed);
    let registry = unicert::corpus::lint_registry();
    let store = trust::build_trust_store();

    let mut encoding_errors = 0usize;
    let mut trusted_verified = 0usize;
    let mut in_subject = 0usize;
    let mut in_san = 0usize;
    let mut in_cp = 0usize;
    let mut aia_present = 0usize;

    for entry in CorpusGenerator::new(config) {
        let report = registry
            .run(&entry.cert, RunOptions::default())
            .expect("a generated certificate's DER parses");
        let enc_findings: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.nc_type == NoncomplianceType::InvalidEncoding)
            .collect();
        if enc_findings.is_empty() {
            continue;
        }
        encoding_errors += 1;
        // Chain reconstruction: AIA caIssuers URL → issuer key → verify.
        if entry
            .cert
            .tbs
            .extension(&unicert::asn1::oid::known::authority_info_access())
            .is_some()
        {
            aia_present += 1;
        }
        // Full chain reconstruction: DN-match the issuing CA in the trust
        // store, then verify the signature and both validity windows.
        let at = entry.cert.tbs.validity.not_before.plus_days(1);
        let verified = store.verify_leaf(&entry.cert, &at).is_ok();
        if verified && entry.meta.trust == TrustStatus::Public {
            trusted_verified += 1;
        }
        for f in &enc_findings {
            if f.lint.starts_with("e_subject") || f.lint.starts_with("e_issuer") {
                in_subject += 1;
                break;
            }
        }
        if enc_findings.iter().any(|f| f.lint.contains("san")) {
            in_san += 1;
        }
        if enc_findings.iter().any(|f| f.lint.contains("ext_cp")) {
            in_cp += 1;
        }
    }

    println!("§5.1 impact — Unicerts with ASN.1 encoding errors");
    println!("  with encoding errors:      {encoding_errors}   [paper: 7,415]");
    println!(
        "  trusted & signature-verified: {trusted_verified} ({})   [paper: 5,772 (77.8%)]",
        unicert_bench::pct(trusted_verified, encoding_errors.max(1))
    );
    println!("  errors in Subject/Issuer:  {in_subject}   [paper: 150 in Subjects]");
    println!("  errors in SAN:             {in_san}   [paper: 110]");
    println!("  errors in CertificatePolicies: {in_cp}   [paper: 5,575 — the dominant field]");
    println!("  AIA present for chain rebuild: {aia_present}");
    assert!(in_cp > in_subject && in_cp > in_san, "CP must dominate, as in the paper");
}
