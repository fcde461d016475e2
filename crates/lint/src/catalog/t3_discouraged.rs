//! T3d — *Discouraged Field* lints (2, none new).
//!
//! Current standards do not strictly prohibit these attribute types, but
//! continued issuance complicates entity identification (§4.3.1).

use super::lint;
use crate::framework::{Lint, LintStatus, NoncomplianceType::DiscouragedField, Severity::*, Source::*};
use crate::helpers::Which;
use unicert_asn1::oid::known;

/// The 2 T3d lints.
pub fn lints() -> Vec<Lint> {
    vec![
        lint!(
            "w_cab_subject_contain_extra_common_name",
            "Subjects should not carry more than one commonName",
            "CABF BR §7.1.4.2.2(a) (CN is discouraged; multiples compound it)",
            CabfBr, Warning, DiscouragedField, new = false,
            |ctx| {
                let n = ctx.count_of(Which::Subject, &known::common_name());
                match n {
                    0 => LintStatus::NotApplicable,
                    1 => LintStatus::Pass,
                    _ => LintStatus::Violation,
                }
            }
        ),
        lint!(
            "w_ext_san_uri_discouraged",
            "URIs in SubjectAltName are discouraged for TLS server certificates",
            "CABF BR §7.1.4.2.1 (SAN limited to dNSName/iPAddress)",
            CabfBr, Warning, DiscouragedField, new = false,
            |ctx| {
                let sans = ctx.san();
                if sans.is_empty() {
                    return LintStatus::NotApplicable;
                }
                if sans.iter().any(|n| matches!(n, unicert_x509::GeneralName::Uri(_))) {
                    LintStatus::Violation
                } else {
                    LintStatus::Pass
                }
            }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::run_one;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, GeneralName, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn extra_cn() {
        let cert = builder()
            .subject_cn("a.example")
            .subject_cn("b.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_contain_extra_common_name", &cert), LintStatus::Violation);
        let cert = builder().subject_cn("a.example").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_contain_extra_common_name", &cert), LintStatus::Pass);
    }

    #[test]
    fn san_uri_discouraged() {
        let cert = builder()
            .add_dns_san("a.example")
            .add_san(GeneralName::uri("https://a.example"))
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_ext_san_uri_discouraged", &cert), LintStatus::Violation);
        let cert = builder().add_dns_san("a.example").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_ext_san_uri_discouraged", &cert), LintStatus::Pass);
    }
}
