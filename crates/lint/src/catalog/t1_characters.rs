//! T1 — *Invalid Character* lints (22, of which 10 new).
//!
//! Character-range inspection: malformed strings (non-printable characters
//! in PrintableString) and disallowed characters (controls in UTF8String,
//! IDNA-disallowed code points after Punycode decoding).

use super::lint;
use crate::facts::CharClasses;
use crate::framework::{Lint, NoncomplianceType::InvalidCharacter, Severity::*, Source::*};
use crate::helpers::{self, Which};
use unicert_asn1::StringKind;
use unicert_idna::label::ALabelStatus;

/// The 22 T1 lints.
pub fn lints() -> Vec<Lint> {
    vec![
        lint!(
            "e_rfc_dns_idn_a2u_unpermitted_unichar",
            "SAN DNSName A-labels must not decode to IDNA2008-disallowed characters",
            "RFC 5890 §2.3.2.1, RFC 5892",
            Idna2008, Error, InvalidCharacter, new = true,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| {
                    !ctx.ace_labels(v).iter().any(|i| i.status == ALabelStatus::DisallowedContent)
                })
            }
        ),
        lint!(
            "e_rfc_subject_dn_not_printable_characters",
            "Subject DN values must not contain control characters (NUL, ESC, DEL, ...)",
            "RFC 5280 §4.1.2.6 / X.520",
            Rfc5280, Error, InvalidCharacter, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, helpers::has_no_control_chars)
        ),
        lint!(
            "e_rfc_subject_printable_string_badalpha",
            "PrintableString values must only use the PrintableString repertoire",
            "RFC 5280 §4.1.2.4, X.680",
            Rfc5280, Error, InvalidCharacter, new = false,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Printable));
                helpers::check_values(values, |v| v.strict_ok())
            }
        ),
        lint!(
            "w_community_subject_dn_trailing_whitespace",
            "Subject DN values should not carry trailing whitespace",
            "community practice (Zlint heritage)",
            Community, Warning, InvalidCharacter, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| {
                helpers::lenient_text(v).is_none_or(|t| !t.ends_with(' '))
            })
        ),
        lint!(
            "w_community_subject_dn_leading_whitespace",
            "Subject DN values should not carry leading whitespace",
            "community practice (Zlint heritage)",
            Community, Warning, InvalidCharacter, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| {
                helpers::lenient_text(v).is_none_or(|t| !t.starts_with(' '))
            })
        ),
        lint!(
            "e_rfc_dns_idn_malformed_unicode",
            "SAN DNSName A-labels must be convertible to Unicode",
            "RFC 5890 §2.3.2.1, RFC 3492",
            Rfc5890, Error, InvalidCharacter, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| {
                    !ctx.ace_labels(v).iter().any(|i| {
                        matches!(i.status, ALabelStatus::Unconvertible | ALabelStatus::NonCanonical)
                    })
                })
            }
        ),
        lint!(
            "e_cab_dns_bad_character_in_label",
            "DNSName labels must use only letters, digits, and hyphens",
            "CABF BR §7.1.4.2.1, RFC 1034 §3.5",
            CabfBr, Error, InvalidCharacter, new = false,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| helpers::free_of_class(v, CharClasses::NON_DNS))
            }
        ),
        lint!(
            "e_ext_san_dns_contain_unpermitted_unichar",
            "SAN DNSName must not contain raw non-ASCII Unicode (IDNs must be A-labels)",
            "RFC 5280 §4.2.1.6, RFC 8399 §2.2",
            Rfc8399, Error, InvalidCharacter, new = true,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| helpers::free_of_class(v, CharClasses::NON_ASCII))
            }
        ),
        lint!(
            "e_subject_dn_nul_byte",
            "Subject DN values must not embed NUL bytes",
            "RFC 5280 §4.1.2.6; CVE-2009-2408 heritage",
            Community, Error, InvalidCharacter, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| {
                helpers::free_of_class(v, CharClasses::NUL)
            })
        ),
        lint!(
            "e_issuer_dn_not_printable_characters",
            "Issuer DN values must not contain control characters",
            "RFC 5280 §4.1.2.4 / X.520",
            Rfc5280, Error, InvalidCharacter, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Issuer, helpers::has_no_control_chars)
        ),
        lint!(
            "e_ext_san_rfc822_invalid_characters",
            "SAN RFC822Name must not contain control characters or spaces",
            "RFC 5280 §4.2.1.6, RFC 5321",
            Rfc5280, Error, InvalidCharacter, new = true,
            |ctx| {
                helpers::check_values(ctx.san_rfc822(), |v| {
                    helpers::free_of_class(v, CharClasses::CONTROL | CharClasses::SPACE)
                })
            }
        ),
        lint!(
            "e_ext_san_uri_invalid_characters",
            "SAN URI must not contain control characters or spaces",
            "RFC 5280 §4.2.1.6, RFC 3986 §2",
            Rfc5280, Error, InvalidCharacter, new = true,
            |ctx| {
                helpers::check_values(ctx.san_uri(), |v| {
                    helpers::free_of_class(v, CharClasses::CONTROL | CharClasses::SPACE)
                })
            }
        ),
        lint!(
            "e_subject_dn_bidi_controls",
            "Subject DN values must not contain bidirectional control characters",
            "RFC 9549 §3, Unicode UAX #9",
            Rfc9549, Error, InvalidCharacter, new = true,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| {
                helpers::free_of_class(v, CharClasses::BIDI_CONTROL)
            })
        ),
        lint!(
            "e_subject_dn_zero_width_characters",
            "Subject DN values must not contain zero-width/invisible characters",
            "RFC 8399 §2, Unicode TR #36",
            Rfc8399, Error, InvalidCharacter, new = true,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| {
                helpers::free_of_class(v, CharClasses::ZERO_WIDTH)
            })
        ),
        lint!(
            "e_ext_ian_dns_invalid_characters",
            "IssuerAltName DNSName must use only the DNS repertoire",
            "RFC 5280 §4.2.1.7",
            Rfc5280, Error, InvalidCharacter, new = true,
            |ctx| {
                helpers::check_values(ctx.ian_dns(), |v| helpers::free_of_class(v, CharClasses::NON_DNS))
            }
        ),
        lint!(
            "e_utf8string_disallowed_control_codes",
            "UTF8String DN values must not contain C0/C1 control codes",
            "RFC 5280 §4.1.2.4 (via RFC 2279 profile)",
            Rfc5280, Error, InvalidCharacter, new = true,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .chain(ctx.dn_attrs(Which::Issuer))
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Utf8));
                helpers::check_values(values, helpers::has_no_control_chars)
            }
        ),
        lint!(
            "w_subject_dn_nonstandard_whitespace",
            "Subject DN values should use U+0020 rather than exotic whitespace (NBSP, ideographic space)",
            "community practice; Table 3 variant analysis",
            Community, Warning, InvalidCharacter, new = false,
            |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| {
                helpers::free_of_class(v, CharClasses::NONSTANDARD_WHITESPACE)
            })
        ),
        lint!(
            "e_ext_crldp_uri_control_characters",
            "CRLDistributionPoints URIs must not contain control characters",
            "RFC 5280 §4.2.1.13, RFC 3986",
            Rfc5280, Error, InvalidCharacter, new = true,
            |ctx| {
                helpers::check_values(ctx.crldp_uris(), helpers::has_no_control_chars)
            }
        ),
        lint!(
            "e_numeric_string_invalid_character",
            "NumericString values must contain only digits and space",
            "X.680 §41, RFC 5280 §4.1.2.4",
            Rfc5280, Error, InvalidCharacter, new = false,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Numeric));
                helpers::check_values(values, |v| v.strict_ok())
            }
        ),
        lint!(
            "e_ia5string_out_of_range",
            "IA5String values must stay within 7-bit ASCII",
            "X.680 §41, RFC 5280 §4.2.1.6",
            Rfc5280, Error, InvalidCharacter, new = false,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Ia5))
                    .chain(ctx.san_dns().iter());
                helpers::check_values(values, |v| v.bytes().iter().all(|&b| b < 0x80))
            }
        ),
        lint!(
            "w_teletex_replacement_character",
            "TeletexString values should not contain U+FFFD (evidence of earlier mis-transcoding)",
            "Table 3 'replacement of illegal characters' variant",
            Community, Warning, InvalidCharacter, new = true,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Teletex));
                // Teletex is decoded as Latin-1; a U+FFFD can only appear if
                // the *bytes* spell the UTF-8 encoding of U+FFFD (EF BF BD).
                helpers::check_values(values, |v| {
                    !v.bytes().windows(3).any(|w| w == [0xEF, 0xBF, 0xBD])
                })
            }
        ),
        lint!(
            "e_visible_string_control_characters",
            "VisibleString values must not contain control characters",
            "RFC 5280 §4.1.2.4 profile; X.680 §41",
            Rfc5280, Error, InvalidCharacter, new = false,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Visible));
                helpers::check_values(values, |v| v.strict_ok())
            }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use crate::catalog::run_one;
    use crate::framework::{LintStatus, RunOptions};
    use unicert_asn1::oid::known;
    use unicert_asn1::{DateTime, StringKind};
    use unicert_x509::{CertificateBuilder, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn nul_in_subject_fires() {
        let cert = builder()
            .subject_attr_raw(known::organization_name(), StringKind::Utf8, b"Evil\x00Org")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_dn_nul_byte", &cert), LintStatus::Violation);
        assert_eq!(
            run_one("e_rfc_subject_dn_not_printable_characters", &cert),
            LintStatus::Violation
        );
        assert_eq!(
            run_one("e_utf8string_disallowed_control_codes", &cert),
            LintStatus::Violation
        );
    }

    #[test]
    fn clean_cert_passes_everything() {
        let cert = builder()
            .subject_cn("clean.example.com")
            .add_dns_san("clean.example.com")
            .build_signed(&SimKey::from_seed("ca"));
        let reg = crate::catalog::default_registry();
        let report = reg.run(&cert.raw, RunOptions::default()).unwrap();
        assert!(
            report.findings.is_empty(),
            "unexpected findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn deceptive_idn_label_fires_a2u() {
        let cert = builder()
            .add_dns_san("xn--www-hn0a.example.com")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(
            run_one("e_rfc_dns_idn_a2u_unpermitted_unichar", &cert),
            LintStatus::Violation
        );
        assert_eq!(run_one("e_rfc_dns_idn_malformed_unicode", &cert), LintStatus::Pass);
    }

    #[test]
    fn unconvertible_idn_fires_malformed_unicode() {
        let cert = builder()
            .add_dns_san("xn--99999999999.example.com")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_rfc_dns_idn_malformed_unicode", &cert), LintStatus::Violation);
    }

    #[test]
    fn raw_unicode_in_dns_fires() {
        let cert = builder()
            .add_san(unicert_x509::GeneralName::dns("münchen.de"))
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(
            run_one("e_ext_san_dns_contain_unpermitted_unichar", &cert),
            LintStatus::Violation
        );
        assert_eq!(run_one("e_cab_dns_bad_character_in_label", &cert), LintStatus::Violation);
    }

    #[test]
    fn whitespace_lints() {
        let cert = builder()
            .subject_attr(known::organization_name(), StringKind::Utf8, "Acme ")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(
            run_one("w_community_subject_dn_trailing_whitespace", &cert),
            LintStatus::Violation
        );
        assert_eq!(
            run_one("w_community_subject_dn_leading_whitespace", &cert),
            LintStatus::Pass
        );
        let cert = builder()
            .subject_attr(known::organization_name(), StringKind::Utf8, "Peddy\u{A0}Shield")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(
            run_one("w_subject_dn_nonstandard_whitespace", &cert),
            LintStatus::Violation
        );
    }

    #[test]
    fn bidi_and_zero_width() {
        let cert = builder()
            .subject_cn("www.\u{202E}lapyap\u{202C}.com")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_dn_bidi_controls", &cert), LintStatus::Violation);
        let cert = builder()
            .subject_cn("zero\u{200B}width.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_dn_zero_width_characters", &cert), LintStatus::Violation);
    }

    #[test]
    fn printable_string_badalpha() {
        let cert = builder()
            .subject_attr_raw(known::common_name(), StringKind::Printable, b"bad@char.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_rfc_subject_printable_string_badalpha", &cert), LintStatus::Violation);
    }

    #[test]
    fn not_applicable_when_field_absent() {
        let cert = builder().build_signed(&SimKey::from_seed("ca"));
        assert_eq!(
            run_one("e_rfc_dns_idn_a2u_unpermitted_unichar", &cert),
            LintStatus::NotApplicable
        );
        assert_eq!(
            run_one("e_rfc_subject_dn_not_printable_characters", &cert),
            LintStatus::NotApplicable
        );
    }
}
