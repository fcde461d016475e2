//! T3c — *Invalid Structure* lints (2, none new).

use super::lint;
use crate::framework::{Lint, LintStatus, NoncomplianceType::InvalidStructure, Severity::*, Source::*};
use crate::helpers::{self, Which};
use std::borrow::Cow;
use unicert_asn1::oid::known;
use unicert_x509::GeneralName;

/// A text's case-insensitive comparison key: ASCII text as is (compared
/// with `eq_ignore_ascii_case`), anything else lowercased. Two texts have
/// equal `to_lowercase` forms exactly when their keys are equal ignoring
/// ASCII case, so only non-ASCII text pays for a new `String`.
fn case_key(text: String) -> String {
    if text.is_ascii() {
        text
    } else {
        text.to_lowercase()
    }
}

/// The 2 T3c lints.
pub fn lints() -> Vec<Lint> {
    vec![
        // Named per Table 11. The BRs phrase this as a MUST ("if present,
        // the CN must contain a value from the SAN"), which is why Table 1
        // reports all Invalid Structure findings at Error level despite the
        // legacy `w_` prefix.
        lint!(
            "w_cab_subject_common_name_not_in_san",
            "If present, the subject CN should duplicate a SAN entry (the CN itself is NOT RECOMMENDED)",
            "CABF BR §7.1.4.2.2(a)",
            CabfBr, Warning, InvalidStructure, new = false,
            |ctx| {
                let mut cns = ctx.attr_vals(Which::Subject, &known::common_name()).peekable();
                if cns.peek().is_none() {
                    return LintStatus::NotApplicable;
                }
                let mut san_keys: Vec<String> = Vec::new();
                for n in ctx.san() {
                    match n {
                        GeneralName::DnsName(v) | GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => {
                            san_keys.push(case_key(v.display_lossy()))
                        }
                        GeneralName::IpAddress(b) if b.len() == 4 => {
                            san_keys.push(format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3]))
                        }
                        _ => {}
                    }
                }
                let all_found = cns.all(|cn| {
                    helpers::lenient_text(cn).is_some_and(|t| {
                        let key = if t.is_ascii() { Cow::Borrowed(t) } else { Cow::Owned(t.to_lowercase()) };
                        san_keys.iter().any(|s| s.eq_ignore_ascii_case(&key))
                    })
                });
                if all_found {
                    LintStatus::Pass
                } else {
                    LintStatus::Violation
                }
            }
        ),
        lint!(
            "e_subject_duplicate_attribute",
            "Subject must not repeat the same attribute type (multiple CNs are owned by the extra-CN lint)",
            "RFC 5280 §4.1.2.6 / X.501 DN uniqueness",
            Rfc5280, Error, InvalidStructure, new = false,
            |ctx| {
                if ctx.dn_is_empty(Which::Subject) {
                    return LintStatus::NotApplicable;
                }
                let mut seen = std::collections::HashSet::new();
                for attr in ctx.dn_attrs(Which::Subject) {
                    // Repeated CNs are reported by
                    // w_cab_subject_contain_extra_common_name (T3d).
                    if attr.oid == known::common_name() {
                        continue;
                    }
                    if !seen.insert(attr.oid.clone()) {
                        return LintStatus::Violation;
                    }
                }
                LintStatus::Pass
            }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LintContext;
    use unicert_asn1::{DateTime, StringKind};
    use unicert_x509::{CertificateBuilder, SimKey};

    fn run_one(name: &str, cert: &unicert_x509::Certificate) -> LintStatus {
        let lints = lints();
        let lint = lints.iter().find(|l| l.name == name).unwrap();
        (lint.check)(&LintContext::new(cert))
    }

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn cn_not_in_san_fires() {
        let cert = builder()
            .subject_cn("mismatch.example")
            .add_dns_san("other.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::Violation);
        // CN absent → NA.
        let cert = builder().add_dns_san("x.example").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::NotApplicable);
        // Case-insensitive match passes.
        let cert = builder()
            .subject_cn("OK.Example")
            .add_dns_san("ok.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::Pass);
        // CN present but no SAN at all.
        let cert = builder().subject_cn("nosan.example").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::Violation);
    }

    #[test]
    fn duplicate_attributes_fire() {
        let cert = builder()
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit A")
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit B")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_duplicate_attribute", &cert), LintStatus::Violation);
        let cert = builder()
            .subject_cn("a.example")
            .subject_attr(known::organization_name(), StringKind::Utf8, "One Org")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_duplicate_attribute", &cert), LintStatus::Pass);
        // Multiple CNs are owned by the extra-CN (discouraged) lint.
        let cert = builder()
            .subject_cn("a.example")
            .subject_cn("b.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_duplicate_attribute", &cert), LintStatus::Pass);
    }
}
