//! T3a — *Illegal Format* lints (17, none new).
//!
//! Basic formatting errors: length overflows, wrong character case, empty
//! values, malformed labels, era-mismatched time encodings.

use super::lint;
use crate::context::CachedVal;
use crate::framework::{Lint, NoncomplianceType::IllegalFormat, Severity::*, Source::*};
use crate::helpers::{self, Which};
use unicert_asn1::oid::known;
use unicert_asn1::TimeKind;

/// X.520 upper bound for common attributes (ub-common-name = 64, etc.).
const UB_NAME: usize = 64;
/// X.520 ub-locality-name.
const UB_LOCALITY: usize = 128;
/// RFC 5280 §4.2.1.4: explicitText SHOULD be ≤ 200 characters.
const UB_EXPLICIT_TEXT: usize = 200;

fn char_len(v: &CachedVal) -> usize {
    helpers::lenient_text(v).map(|t| t.chars().count()).unwrap_or(v.bytes().len())
}

/// The 17 T3a lints.
pub fn lints() -> Vec<Lint> {
    vec![
        lint!(
            "e_rfc_ext_cp_explicit_text_too_long",
            "CertificatePolicies explicitText must not exceed 200 characters",
            "RFC 5280 §4.2.1.4",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.explicit_texts(), |v| char_len(v) <= UB_EXPLICIT_TEXT)
            }
        ),
        lint!(
            "e_subject_country_not_two_letters",
            "countryName must be exactly two letters",
            "CABF BR §7.1.4.2.2, ISO 3166-1",
            CabfBr, Error, IllegalFormat, new = false,
            |ctx| helpers::check_attr(ctx, Which::Subject, &known::country_name(), |v| {
                helpers::lenient_text(v)
                    .is_some_and(|t| t.len() == 2 && t.chars().all(|c| c.is_ascii_alphabetic()))
            })
        ),
        lint!(
            "e_subject_common_name_max_length",
            "commonName must not exceed 64 characters (ub-common-name)",
            "RFC 5280 App. A / X.520",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| helpers::check_attr(ctx, Which::Subject, &known::common_name(), |v| {
                char_len(v) <= UB_NAME
            })
        ),
        lint!(
            "e_subject_organization_name_max_length",
            "organizationName must not exceed 64 characters (ub-organization-name)",
            "RFC 5280 App. A / X.520",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| helpers::check_attr(ctx, Which::Subject, &known::organization_name(), |v| {
                char_len(v) <= UB_NAME
            })
        ),
        lint!(
            "e_subject_locality_max_length",
            "localityName must not exceed 128 characters (ub-locality-name)",
            "RFC 5280 App. A / X.520",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| helpers::check_attr(ctx, Which::Subject, &known::locality_name(), |v| {
                char_len(v) <= UB_LOCALITY
            })
        ),
        lint!(
            "e_dns_label_too_long",
            "DNS labels must not exceed 63 octets",
            "RFC 1034 §3.1",
            Rfc1034, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| v.label_shape().longest_label <= 63)
            }
        ),
        lint!(
            "e_dns_name_too_long",
            "DNS names must not exceed 253 octets",
            "RFC 1034 §3.1",
            Rfc1034, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| v.bytes().len() <= 253)
            }
        ),
        lint!(
            "e_dns_label_bad_hyphen_placement",
            "DNS labels must not begin or end with a hyphen",
            "RFC 5890 §2.3.1",
            Rfc5890, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| !v.label_shape().hyphen_edge)
            }
        ),
        lint!(
            "e_serial_number_longer_than_20_octets",
            "Serial numbers must not exceed 20 octets",
            "RFC 5280 §4.1.2.2, CABF BR §7.1",
            CabfBr, Error, IllegalFormat, new = false,
            |ctx| {
                if ctx.serial().len() <= 20 {
                    crate::framework::LintStatus::Pass
                } else {
                    crate::framework::LintStatus::Violation
                }
            }
        ),
        lint!(
            "e_serial_number_zero",
            "Serial numbers must be positive",
            "RFC 5280 §4.1.2.2",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| {
                if ctx.serial().iter().any(|&b| b != 0) {
                    crate::framework::LintStatus::Pass
                } else {
                    crate::framework::LintStatus::Violation
                }
            }
        ),
        lint!(
            "e_validity_wrong_time_encoding",
            "Dates through 2049 must use UTCTime; 2050+ must use GeneralizedTime",
            "RFC 5280 §4.1.2.5",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| {
                let v = ctx.validity();
                let ok = |year: i32, kind: TimeKind| {
                    if (1950..=2049).contains(&year) {
                        kind == TimeKind::Utc
                    } else {
                        kind == TimeKind::Generalized
                    }
                };
                if ok(v.not_before.year, v.not_before_kind) && ok(v.not_after.year, v.not_after_kind) {
                    crate::framework::LintStatus::Pass
                } else {
                    crate::framework::LintStatus::Violation
                }
            }
        ),
        lint!(
            "e_subject_empty_attribute_value",
            "Subject attribute values must not be empty",
            "RFC 5280 §4.1.2.6 / X.520",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| !v.bytes().is_empty())
        ),
        lint!(
            "e_rfc_dns_empty_label",
            "DNS names must not contain empty labels",
            "RFC 1034 §3.5",
            Rfc1034, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| !v.label_shape().empty_label)
            }
        ),
        lint!(
            "e_country_code_lowercase",
            "countryName must use uppercase ISO 3166-1 alpha-2 codes",
            "CABF BR §7.1.4.2.2",
            CabfBr, Error, IllegalFormat, new = false,
            |ctx| helpers::check_attr(ctx, Which::Subject, &known::country_name(), |v| {
                helpers::lenient_text(v)
                    .is_none_or(|t| !t.chars().any(|c| c.is_ascii_lowercase()))
            })
        ),
        lint!(
            "e_san_wildcard_not_leftmost",
            "Wildcards must be the complete leftmost DNS label",
            "CABF BR §1.6.1 / RFC 6125 §6.4.3",
            CabfBr, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| {
                    helpers::lenient_text(v).is_none_or(|t| {
                        !t.contains('*')
                            || (t.starts_with("*.")
                                && !t[1..].contains('*'))
                    })
                })
            }
        ),
        lint!(
            "e_ext_san_rfc822_invalid_format",
            "RFC822Name must contain exactly one '@' with a non-empty domain",
            "RFC 5280 §4.2.1.6",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_rfc822(), |v| {
                    helpers::lenient_text(v).is_none_or(|t| {
                        let parts: Vec<&str> = t.split('@').collect();
                        parts.len() == 2 && !parts[0].is_empty() && !parts[1].is_empty()
                    })
                })
            }
        ),
        lint!(
            "e_ext_san_uri_missing_scheme",
            "SAN URIs must be absolute (include a scheme)",
            "RFC 5280 §4.2.1.6, RFC 3986 §3",
            Rfc5280, Error, IllegalFormat, new = false,
            |ctx| {
                helpers::check_values(ctx.san_uri(), |v| {
                    helpers::lenient_text(v).is_none_or(|t| {
                        t.split_once(':')
                            .is_some_and(|(scheme, _)| {
                                !scheme.is_empty()
                                    && scheme.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
                            })
                    })
                })
            }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::run_one;
    use crate::framework::LintStatus;
    use unicert_asn1::{DateTime, StringKind};
    use unicert_x509::{CertificateBuilder, GeneralName, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn country_code_checks() {
        for (c, expect_len, expect_case) in [
            ("DE", LintStatus::Pass, LintStatus::Pass),
            ("Germany", LintStatus::Violation, LintStatus::Violation),
            ("de", LintStatus::Pass, LintStatus::Violation),
            ("D1", LintStatus::Violation, LintStatus::Pass),
        ] {
            let cert = builder()
                .subject_attr(known::country_name(), StringKind::Printable, c)
                .build_signed(&SimKey::from_seed("ca"));
            assert_eq!(run_one("e_subject_country_not_two_letters", &cert), expect_len, "{c}");
            assert_eq!(run_one("e_country_code_lowercase", &cert), expect_case, "{c}");
        }
    }

    #[test]
    fn long_values_fire() {
        let long = "x".repeat(65);
        let cert = builder().subject_cn(&long).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_common_name_max_length", &cert), LintStatus::Violation);
        let cert = builder()
            .add_dns_san(&format!("{}.example.com", "a".repeat(64)))
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_dns_label_too_long", &cert), LintStatus::Violation);
    }

    #[test]
    fn serial_rules() {
        let cert = builder().serial(&[0x7F; 21]).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_serial_number_longer_than_20_octets", &cert), LintStatus::Violation);
        let cert = builder().serial(&[0x00]).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_serial_number_zero", &cert), LintStatus::Violation);
    }

    #[test]
    fn wildcard_rules() {
        let cert = builder().add_dns_san("*.example.com").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_san_wildcard_not_leftmost", &cert), LintStatus::Pass);
        let cert = builder().add_dns_san("foo.*.example.com").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_san_wildcard_not_leftmost", &cert), LintStatus::Violation);
    }

    #[test]
    fn email_and_uri_formats() {
        let cert = builder().add_san(GeneralName::email("nobody")).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_ext_san_rfc822_invalid_format", &cert), LintStatus::Violation);
        let cert = builder().add_san(GeneralName::uri("//no-scheme/path")).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_ext_san_uri_missing_scheme", &cert), LintStatus::Violation);
        let cert = builder().add_san(GeneralName::uri("https://ok.example")).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_ext_san_uri_missing_scheme", &cert), LintStatus::Pass);
    }

    #[test]
    fn empty_values_and_labels() {
        let cert = builder()
            .subject_attr(known::organization_name(), StringKind::Utf8, "")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_empty_attribute_value", &cert), LintStatus::Violation);
        let cert = builder().add_dns_san("a..example.com").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_rfc_dns_empty_label", &cert), LintStatus::Violation);
    }

    #[test]
    fn explicit_text_length() {
        use unicert_x509::extensions::{certificate_policies, PolicyInformation, PolicyQualifier};
        use unicert_x509::RawValue;
        let long = "n".repeat(201);
        let ext = certificate_policies(&[PolicyInformation {
            policy_id: known::any_policy(),
            qualifiers: vec![PolicyQualifier::UserNotice {
                explicit_text: Some(RawValue::from_text(StringKind::Utf8, &long)),
            }],
        }]);
        let cert = builder().add_extension(ext).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_rfc_ext_cp_explicit_text_too_long", &cert), LintStatus::Violation);
    }
}
