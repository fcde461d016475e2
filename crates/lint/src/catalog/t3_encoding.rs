//! T3b — *Invalid Encoding* lints (48, of which 37 new).
//!
//! The largest bucket (60.5% of the paper's noncompliant Unicerts): fields
//! encoded with ASN.1 string types the standards do not permit, or whose
//! bytes are not well-formed for the declared type.

use super::lint;
use crate::context::LintContext;
use crate::framework::{
    Lint, LintStatus, NoncomplianceType::InvalidEncoding, Severity, Severity::*, Source, Source::*,
};
use crate::helpers::{self, Which};
use unicert_asn1::oid::known;
use unicert_asn1::{Oid, StringKind};

/// Generate a "must be PrintableString or UTF8String" lint for one DN
/// attribute — the paper's per-attribute rule family (the `…_not_printable_or_utf8`
/// names of Table 11).
fn dir_string_lint(
    name: &'static str,
    description: &'static str,
    which: Which,
    oid: fn() -> Oid,
    new_lint: bool,
) -> Lint {
    Lint {
        name,
        description,
        citation: "RFC 5280 §4.1.2.4, CABF BR §7.1.4.2",
        source: Source::Rfc5280,
        severity: Severity::Error,
        nc_type: InvalidEncoding,
        new_lint,
        check: Box::new(move |ctx| {
            helpers::check_attr(ctx, which, &oid(), helpers::is_printable_or_utf8)
        }),
    }
}

/// Which cached GeneralName value family an IA5String rule inspects.
#[derive(Clone, Copy)]
enum GnFamily {
    SanDns,
    SanRfc822,
    SanUri,
    Ian,
    Aia,
    Sia,
    Crldp,
}

impl GnFamily {
    fn values<'a>(self, ctx: &'a LintContext<'_>) -> &'a [crate::context::CachedVal] {
        match self {
            GnFamily::SanDns => ctx.san_dns(),
            GnFamily::SanRfc822 => ctx.san_rfc822(),
            GnFamily::SanUri => ctx.san_uri(),
            GnFamily::Ian => ctx.ian_strings(),
            GnFamily::Aia => ctx.aia_uris(),
            GnFamily::Sia => ctx.sia_uris(),
            GnFamily::Crldp => ctx.crldp_uris(),
        }
    }
}

/// Generate an "IA5String only, ASCII-clean" lint for a GeneralName family.
fn gn_ia5_lint(
    name: &'static str,
    description: &'static str,
    family: GnFamily,
    new_lint: bool,
) -> Lint {
    Lint {
        name,
        description,
        citation: "RFC 5280 §4.2.1.6 (IA5String GeneralName forms)",
        source: Source::Rfc5280,
        severity: Severity::Error,
        nc_type: InvalidEncoding,
        new_lint,
        check: Box::new(move |ctx| {
            helpers::check_values(family.values(ctx), |v| v.bytes().iter().all(|&b| b < 0x80))
        }),
    }
}

/// The 48 T3b lints.
pub fn lints() -> Vec<Lint> {
    let mut lints: Vec<Lint> = Vec::with_capacity(48);

    // --- Not new (11): rules existing linters already cover. -------------
    lints.push(lint!(
        "w_rfc_ext_cp_explicit_text_not_utf8",
        "CertificatePolicies explicitText SHOULD use UTF8String",
        "RFC 5280 §4.2.1.4",
        Rfc5280, Warning, InvalidEncoding, new = false,
        |ctx| {
            helpers::check_values(ctx.explicit_texts(), |v| v.kind() == Some(StringKind::Utf8))
        }
    ));
    lints.push(lint!(
        "e_rfc_ext_cp_explicit_text_ia5",
        "CertificatePolicies explicitText MUST NOT use IA5String",
        "RFC 5280 §4.2.1.4 (DisplayText has no IA5String option in 5280)",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| {
            helpers::check_values(ctx.explicit_texts(), |v| v.kind() != Some(StringKind::Ia5))
        }
    ));
    lints.push(lint!(
        "e_subject_dn_serial_number_not_printable",
        "Subject serialNumber must be PrintableString",
        "RFC 5280 App. A / X.520",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| helpers::check_attr(ctx, Which::Subject, &known::serial_number(), helpers::is_printable)
    ));
    lints.push(lint!(
        "e_rfc_subject_country_not_printable",
        "Subject countryName must be PrintableString",
        "RFC 5280 App. A / X.520",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| helpers::check_attr(ctx, Which::Subject, &known::country_name(), helpers::is_printable)
    ));
    lints.push(lint!(
        "e_rfc_issuer_country_not_printable",
        "Issuer countryName must be PrintableString",
        "RFC 5280 App. A / X.520",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| helpers::check_attr(ctx, Which::Issuer, &known::country_name(), helpers::is_printable)
    ));
    lints.push(lint!(
        "e_subject_email_address_not_ia5",
        "Subject emailAddress (PKCS#9) must be IA5String",
        "RFC 2985 / RFC 5280 App. A",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| helpers::check_attr(ctx, Which::Subject, &known::email_address(), helpers::is_ia5)
    ));
    lints.push(lint!(
        "e_subject_domain_component_not_ia5",
        "domainComponent must be IA5String",
        "RFC 4519 §2.4 / RFC 5280 App. A",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| helpers::check_attr(ctx, Which::Subject, &known::domain_component(), helpers::is_ia5)
    ));
    lints.push(lint!(
        "w_subject_dn_uses_teletex_string",
        "TeletexString in new certificates is only allowed for legacy subjects",
        "RFC 5280 §4.1.2.4",
        Rfc5280, Warning, InvalidEncoding, new = false,
        |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| v.kind() != Some(StringKind::Teletex))
    ));
    lints.push(lint!(
        "w_subject_dn_uses_universal_string",
        "UniversalString in new certificates is only allowed for legacy subjects",
        "RFC 5280 §4.1.2.4",
        Rfc5280, Warning, InvalidEncoding, new = false,
        |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| v.kind() != Some(StringKind::Universal))
    ));
    lints.push(lint!(
        "w_subject_dn_uses_bmp_string",
        "BMPString in new certificates is only allowed for legacy subjects",
        "RFC 5280 §4.1.2.4",
        Rfc5280, Warning, InvalidEncoding, new = false,
        |ctx| helpers::check_all_dn(ctx, Which::Subject, |v| v.kind() != Some(StringKind::Bmp))
    ));
    lints.push(lint!(
        "e_subject_dn_qualifier_not_printable",
        "dnQualifier must be PrintableString",
        "RFC 5280 App. A / X.520",
        Rfc5280, Error, InvalidEncoding, new = false,
        |ctx| {
            helpers::check_attr(ctx, Which::Subject, &known::dn_qualifier(), helpers::is_printable)
        }
    ));

    // --- New (37): the RFCGPT-derived per-field and wire-format rules. ---
    // Subject DirectoryString attributes (14).
    lints.push(dir_string_lint(
        "e_subject_organization_not_printable_or_utf8",
        "Subject organizationName must be PrintableString or UTF8String",
        Which::Subject, known::organization_name, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_common_name_not_printable_or_utf8",
        "Subject commonName must be PrintableString or UTF8String",
        Which::Subject, known::common_name, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_locality_not_printable_or_utf8",
        "Subject localityName must be PrintableString or UTF8String",
        Which::Subject, known::locality_name, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_ou_not_printable_or_utf8",
        "Subject organizationalUnitName must be PrintableString or UTF8String",
        Which::Subject, known::organizational_unit, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_state_not_printable_or_utf8",
        "Subject stateOrProvinceName must be PrintableString or UTF8String",
        Which::Subject, known::state_or_province, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_street_not_printable_or_utf8",
        "Subject streetAddress must be PrintableString or UTF8String",
        Which::Subject, known::street_address, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_postal_code_not_printable_or_utf8",
        "Subject postalCode must be PrintableString or UTF8String",
        Which::Subject, known::postal_code, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_jurisdiction_locality_not_printable_or_utf8",
        "EV jurisdictionLocalityName must be PrintableString or UTF8String",
        Which::Subject, known::jurisdiction_locality, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_jurisdiction_state_not_printable_or_utf8",
        "EV jurisdictionStateOrProvinceName must be PrintableString or UTF8String",
        Which::Subject, known::jurisdiction_state, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_given_name_not_printable_or_utf8",
        "Subject givenName must be PrintableString or UTF8String",
        Which::Subject, known::given_name, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_surname_not_printable_or_utf8",
        "Subject surname must be PrintableString or UTF8String",
        Which::Subject, known::surname, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_title_not_printable_or_utf8",
        "Subject title must be PrintableString or UTF8String",
        Which::Subject, known::title, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_business_category_not_printable_or_utf8",
        "Subject businessCategory must be PrintableString or UTF8String",
        Which::Subject, known::business_category, true,
    ));
    lints.push(dir_string_lint(
        "e_subject_pseudonym_not_printable_or_utf8",
        "Subject pseudonym must be PrintableString or UTF8String",
        Which::Subject, known::pseudonym, true,
    ));
    // EV jurisdictionCountry is PrintableString-only (1).
    lints.push(lint!(
        "e_subject_jurisdiction_country_not_printable",
        "EV jurisdictionCountryName must be PrintableString",
        "CABF EV Guidelines §9.2.4",
        CabfBr, Error, InvalidEncoding, new = true,
        |ctx| helpers::check_attr(ctx, Which::Subject, &known::jurisdiction_country(), helpers::is_printable)
    ));
    // Issuer DirectoryString attributes (5).
    lints.push(dir_string_lint(
        "e_issuer_organization_not_printable_or_utf8",
        "Issuer organizationName must be PrintableString or UTF8String",
        Which::Issuer, known::organization_name, true,
    ));
    lints.push(dir_string_lint(
        "e_issuer_common_name_not_printable_or_utf8",
        "Issuer commonName must be PrintableString or UTF8String",
        Which::Issuer, known::common_name, true,
    ));
    lints.push(dir_string_lint(
        "e_issuer_ou_not_printable_or_utf8",
        "Issuer organizationalUnitName must be PrintableString or UTF8String",
        Which::Issuer, known::organizational_unit, true,
    ));
    lints.push(dir_string_lint(
        "e_issuer_locality_not_printable_or_utf8",
        "Issuer localityName must be PrintableString or UTF8String",
        Which::Issuer, known::locality_name, true,
    ));
    lints.push(dir_string_lint(
        "e_issuer_state_not_printable_or_utf8",
        "Issuer stateOrProvinceName must be PrintableString or UTF8String",
        Which::Issuer, known::state_or_province, true,
    ));
    // GeneralName IA5String rules (7).
    lints.push(gn_ia5_lint(
        "e_ext_san_dns_not_ia5string",
        "SAN DNSName bytes must be 7-bit (IA5String)",
        GnFamily::SanDns,
        true,
    ));
    lints.push(gn_ia5_lint(
        "e_ext_san_rfc822_not_ia5string",
        "SAN RFC822Name bytes must be 7-bit (IA5String)",
        GnFamily::SanRfc822,
        true,
    ));
    lints.push(gn_ia5_lint(
        "e_ext_san_uri_not_ia5string",
        "SAN URI bytes must be 7-bit (IA5String)",
        GnFamily::SanUri,
        true,
    ));
    lints.push(gn_ia5_lint(
        "e_ext_ian_name_not_ia5string",
        "IssuerAltName string forms must be 7-bit (IA5String)",
        GnFamily::Ian,
        true,
    ));
    lints.push(gn_ia5_lint(
        "e_ext_aia_uri_not_ia5string",
        "AuthorityInfoAccess URIs must be 7-bit (IA5String)",
        GnFamily::Aia,
        true,
    ));
    lints.push(gn_ia5_lint(
        "e_ext_sia_uri_not_ia5string",
        "SubjectInfoAccess URIs must be 7-bit (IA5String)",
        GnFamily::Sia,
        true,
    ));
    lints.push(gn_ia5_lint(
        "e_ext_crldp_uri_not_ia5string",
        "CRLDistributionPoints URIs must be 7-bit (IA5String)",
        GnFamily::Crldp,
        true,
    ));
    // Wire-format well-formedness (4).
    lints.push(lint!(
        "e_utf8string_invalid_bytes",
        "UTF8String values must be well-formed UTF-8",
        "RFC 5280 §4.1.2.4, RFC 3629",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| {
            let values = ctx
                .dn_attrs(Which::Subject)
                .iter()
                .chain(ctx.dn_attrs(Which::Issuer))
                .map(|a| &a.val)
                .chain(ctx.explicit_texts().iter())
                .filter(|v| v.kind() == Some(StringKind::Utf8));
            helpers::check_values(values, |v| std::str::from_utf8(v.bytes()).is_ok())
        }
    ));
    lints.push(lint!(
        "e_bmpstring_odd_length",
        "BMPString values must have an even byte length",
        "RFC 5280 §4.1.2.4 profile; X.690 §8.23 (UCS-2 code units)",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| {
            let values = ctx
                .dn_attrs(Which::Subject)
                .iter()
                .chain(ctx.dn_attrs(Which::Issuer))
                .map(|a| &a.val)
                .filter(|v| v.kind() == Some(StringKind::Bmp));
            helpers::check_values(values, |v| v.bytes().len() % 2 == 0)
        }
    ));
    lints.push(lint!(
        "e_universalstring_invalid_length",
        "UniversalString values must be a multiple of four bytes",
        "RFC 5280 §4.1.2.4 profile; X.690 §8.23 (UCS-4 code units)",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| {
            let values = ctx
                .dn_attrs(Which::Subject)
                .iter()
                .chain(ctx.dn_attrs(Which::Issuer))
                .map(|a| &a.val)
                .filter(|v| v.kind() == Some(StringKind::Universal));
            helpers::check_values(values, |v| v.bytes().len() % 4 == 0)
        }
    ));
    lints.push(lint!(
        "e_bmpstring_surrogate_code_unit",
        "BMPString values must not contain surrogate code units",
        "RFC 5280 §4.1.2.4 profile; X.690 §8.23, ISO/IEC 10646",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| {
            let values = ctx
                .dn_attrs(Which::Subject)
                .iter()
                .map(|a| &a.val)
                .filter(|v| v.kind() == Some(StringKind::Bmp));
            helpers::check_values(values, |v| {
                !v.bytes().chunks_exact(2).any(|c| {
                    let u = u16::from_be_bytes([c[0], c[1]]);
                    (0xD800..0xE000).contains(&u)
                })
            })
        }
    ));
    // Remaining specific rules (5).
    lints.push(lint!(
        "e_subject_cn_not_directory_string_type",
        "Subject commonName must use a DirectoryString type",
        "RFC 5280 §4.1.2.4",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| helpers::check_attr(ctx, Which::Subject, &known::common_name(), |v| {
            matches!(
                v.kind(),
                Some(StringKind::Printable | StringKind::Utf8 | StringKind::Teletex
                    | StringKind::Universal | StringKind::Bmp)
            )
        })
    ));
    lints.push(lint!(
        "e_smtp_utf8_mailbox_not_utf8string",
        "SmtpUTF8Mailbox must be encoded as UTF8String",
        "RFC 9598 §3",
        Rfc9598, Error, InvalidEncoding, new = true,
        |ctx| {
            helpers::check_values(ctx.smtp_mailboxes(), |v| v.kind() == Some(StringKind::Utf8))
        }
    ));
    lints.push(lint!(
        "w_ext_cp_explicit_text_bmpstring",
        "CertificatePolicies explicitText SHOULD NOT use BMPString",
        "RFC 5280 §4.2.1.4",
        Rfc5280, Warning, InvalidEncoding, new = true,
        |ctx| {
            helpers::check_values(ctx.explicit_texts(), |v| v.kind() != Some(StringKind::Bmp))
        }
    ));
    lints.push(lint!(
        "e_dn_attribute_unknown_string_tag",
        "DN attribute values must use an ASN.1 character string type",
        "RFC 5280 §4.1.2.4, X.680",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| {
            let values = ctx
                .dn_attrs(Which::Subject)
                .iter()
                .chain(ctx.dn_attrs(Which::Issuer))
                .map(|a| &a.val);
            helpers::check_values(values, |v| v.kind().is_some())
        }
    ));
    lints.push(lint!(
        "e_ext_cp_cps_uri_not_ia5string",
        "CertificatePolicies CPS qualifier must be IA5String",
        "RFC 5280 §4.2.1.4",
        Rfc5280, Error, InvalidEncoding, new = true,
        |ctx| {
            helpers::check_values(ctx.cps_values(), |v| {
                v.kind() == Some(StringKind::Ia5) && v.bytes().iter().all(|&b| b < 0x80)
            })
        }
    ));
    lints.push(lint!(
        "e_ext_san_rfc822_contains_non_ascii",
        "RFC822Name is restricted to US-ASCII; internationalized addresses require SmtpUTF8Mailbox",
        "RFC 9598 §1, RFC 8399 §2.3",
        Rfc9598, Error, InvalidEncoding, new = true,
        |ctx| {
            helpers::check_values(ctx.san_rfc822(), |v| v.bytes().iter().all(|&b| b < 0x80))
        }
    ));

    debug_assert_eq!(lints.len(), 48);
    lints
}

// Silence the unused import warning when debug assertions are off.
const _: fn(&LintContext<'_>) -> LintStatus = |_| LintStatus::Pass;

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
    fn count_and_new_flags() {
        let all = lints();
        assert_eq!(all.len(), 48);
        assert_eq!(all.iter().filter(|l| l.new_lint).count(), 37);
    }

    #[test]
    fn bmpstring_cn_fires_family() {
        let cert = builder()
            .subject_attr(known::common_name(), StringKind::Bmp, "bmp.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_common_name_not_printable_or_utf8", &cert), LintStatus::Violation);
        assert_eq!(run_one("w_subject_dn_uses_bmp_string", &cert), LintStatus::Violation);
        // Still a DirectoryString type, so the CN-type lint passes.
        assert_eq!(run_one("e_subject_cn_not_directory_string_type", &cert), LintStatus::Pass);
    }

    #[test]
    fn teletex_org_fires() {
        let cert = builder()
            .subject_attr(known::organization_name(), StringKind::Teletex, "Störi AG")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_organization_not_printable_or_utf8", &cert), LintStatus::Violation);
        assert_eq!(run_one("w_subject_dn_uses_teletex_string", &cert), LintStatus::Violation);
    }

    #[test]
    fn invalid_utf8_bytes_fire() {
        let cert = builder()
            .subject_attr_raw(known::organization_name(), StringKind::Utf8, &[0xC3, 0x28])
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_utf8string_invalid_bytes", &cert), LintStatus::Violation);
        // Not printable-or-utf8 either (strict decode fails).
        assert_eq!(run_one("e_subject_organization_not_printable_or_utf8", &cert), LintStatus::Violation);
    }

    #[test]
    fn odd_bmp_and_surrogates() {
        let cert = builder()
            .subject_attr_raw(known::common_name(), StringKind::Bmp, &[0x00, 0x41, 0x42])
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_bmpstring_odd_length", &cert), LintStatus::Violation);
        let cert = builder()
            .subject_attr_raw(known::common_name(), StringKind::Bmp, &[0xD8, 0x00])
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_bmpstring_surrogate_code_unit", &cert), LintStatus::Violation);
    }

    #[test]
    fn explicit_text_encoding_rules() {
        use unicert_x509::extensions::{certificate_policies, PolicyInformation, PolicyQualifier};
        use unicert_x509::RawValue;
        for (kind, utf8_lint, ia5_lint) in [
            (StringKind::Utf8, LintStatus::Pass, LintStatus::Pass),
            (StringKind::Visible, LintStatus::Violation, LintStatus::Pass),
            (StringKind::Ia5, LintStatus::Violation, LintStatus::Violation),
        ] {
            let ext = certificate_policies(&[PolicyInformation {
                policy_id: known::any_policy(),
                qualifiers: vec![PolicyQualifier::UserNotice {
                    explicit_text: Some(RawValue::from_text(kind, "Notice")),
                }],
            }]);
            let cert = builder().add_extension(ext).build_signed(&SimKey::from_seed("ca"));
            assert_eq!(run_one("w_rfc_ext_cp_explicit_text_not_utf8", &cert), utf8_lint, "{kind:?}");
            assert_eq!(run_one("e_rfc_ext_cp_explicit_text_ia5", &cert), ia5_lint, "{kind:?}");
        }
    }

    #[test]
    fn rfc822_non_ascii_fires_9598_rule() {
        // Raw UTF-8 bytes under the IA5String-tagged RFC822Name.
        let cert = builder()
            .add_san(GeneralName::Rfc822Name(unicert_x509::RawValue::from_raw(
                StringKind::Ia5,
                "пример@example.com".as_bytes(),
            )))
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_ext_san_rfc822_contains_non_ascii", &cert), LintStatus::Violation);
        assert_eq!(run_one("e_ext_san_rfc822_not_ia5string", &cert), LintStatus::Violation);
    }

    #[test]
    fn unknown_string_tag_fires() {
        use unicert_x509::{AttributeTypeAndValue, DistinguishedName, RawValue, Rdn};
        let dn = DistinguishedName {
            rdns: vec![Rdn {
                attributes: vec![AttributeTypeAndValue {
                    oid: known::common_name(),
                    value: RawValue { tag_number: 4, bytes: vec![1, 2] }, // OCTET STRING
                }],
            }],
        };
        let cert = builder().subject(dn).build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_dn_attribute_unknown_string_tag", &cert), LintStatus::Violation);
        assert_eq!(run_one("e_subject_cn_not_directory_string_type", &cert), LintStatus::Violation);
    }
}
