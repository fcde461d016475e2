//! Exhaustive lint coverage: every one of the 95 catalog lints has a
//! certificate construction that makes it fire. This both proves no lint
//! is dead code and documents, per lint, a minimal violating certificate.

use std::collections::BTreeMap;
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, Oid, StringKind, Tag, Writer};
use unicert_lint::{default_registry, RunOptions};
use unicert_x509::extensions::{
    authority_info_access, certificate_policies, crl_distribution_points, issuer_alt_name,
    subject_info_access, AccessDescription, PolicyInformation, PolicyQualifier,
};
use unicert_x509::{
    AttributeTypeAndValue, Certificate, CertificateBuilder, DistinguishedName, GeneralName,
    RawValue, Rdn, SimKey, Validity,
};

fn base() -> CertificateBuilder {
    // Issued after every source's effective date (RFC 9598: 2024-06).
    CertificateBuilder::new().validity_days(DateTime::date(2024, 7, 1).unwrap(), 90)
}

fn sign(b: CertificateBuilder) -> Certificate {
    b.build_signed(&SimKey::from_seed("coverage-ca"))
}

fn attr(oid: Oid, kind: StringKind, text: &str) -> CertificateBuilder {
    base().subject_attr(oid, kind, text)
}

fn raw_attr(oid: Oid, kind: StringKind, bytes: &[u8]) -> CertificateBuilder {
    base().subject_attr_raw(oid, kind, bytes)
}

fn issuer_with(oid: Oid, kind: StringKind, text: &str) -> CertificateBuilder {
    base().issuer(DistinguishedName::from_attributes(&[(oid, kind, text)]))
}

fn policies_text(kind: StringKind, text: &str) -> CertificateBuilder {
    base().add_extension(certificate_policies(&[PolicyInformation {
        policy_id: known::any_policy(),
        qualifiers: vec![PolicyQualifier::UserNotice {
            explicit_text: Some(RawValue::from_text(kind, text)),
        }],
    }]))
}

fn smtp_mailbox(kind: StringKind, text: &str) -> CertificateBuilder {
    let mut inner = Writer::new();
    inner.write_constructed(Tag::context_constructed(0), |w| {
        w.write_string(kind, text);
    });
    base().add_san(GeneralName::OtherName {
        type_id: known::smtp_utf8_mailbox(),
        value: inner.into_bytes(),
    })
}

fn odd_tag_cn() -> CertificateBuilder {
    base().subject(DistinguishedName {
        rdns: vec![Rdn {
            attributes: vec![AttributeTypeAndValue {
                oid: known::common_name(),
                // OCTET STRING: not a character string type at all.
                value: RawValue { tag_number: 4, bytes: b"octets".to_vec() },
            }],
        }],
    })
}

/// `(lint_name, violating certificate)` for every catalog lint.
fn violations() -> Vec<(&'static str, Certificate)> {
    let dn_qualifier = Oid::from_arcs(&[2, 5, 4, 46]).unwrap();
    vec![
        // --- T1: Invalid Character ---------------------------------------
        ("e_rfc_dns_idn_a2u_unpermitted_unichar",
         sign(base().add_dns_san("xn--www-hn0a.example.com"))),
        ("e_rfc_subject_dn_not_printable_characters",
         sign(raw_attr(known::organization_name(), StringKind::Utf8, b"A\x1BB"))),
        ("e_rfc_subject_printable_string_badalpha",
         sign(raw_attr(known::organization_name(), StringKind::Printable, b"a@b"))),
        ("w_community_subject_dn_trailing_whitespace",
         sign(attr(known::organization_name(), StringKind::Utf8, "Acme "))),
        ("w_community_subject_dn_leading_whitespace",
         sign(attr(known::organization_name(), StringKind::Utf8, " Acme"))),
        ("e_rfc_dns_idn_malformed_unicode",
         sign(base().add_dns_san("xn--99999999999.example.com"))),
        ("e_cab_dns_bad_character_in_label",
         sign(base().add_dns_san("bad_label.example.com"))),
        ("e_ext_san_dns_contain_unpermitted_unichar",
         sign(base().add_san(GeneralName::DnsName(RawValue::from_raw(
             StringKind::Ia5, "münchen.de".as_bytes()))))),
        ("e_subject_dn_nul_byte",
         sign(raw_attr(known::organization_name(), StringKind::Utf8, b"A\x00B"))),
        ("e_issuer_dn_not_printable_characters",
         sign(base().issuer(DistinguishedName {
             rdns: vec![Rdn { attributes: vec![AttributeTypeAndValue {
                 oid: known::organization_name(),
                 value: RawValue::from_raw(StringKind::Utf8, b"CA\x01"),
             }] }],
         }))),
        ("e_ext_san_rfc822_invalid_characters",
         sign(base().add_san(GeneralName::Rfc822Name(RawValue::from_raw(
             StringKind::Ia5, b"a\x01b@example.com"))))),
        ("e_ext_san_uri_invalid_characters",
         sign(base().add_san(GeneralName::Uri(RawValue::from_raw(
             StringKind::Ia5, b"https://a b.example"))))),
        ("e_subject_dn_bidi_controls",
         sign(attr(known::organization_name(), StringKind::Utf8, "A\u{202E}B\u{202C}"))),
        ("e_subject_dn_zero_width_characters",
         sign(attr(known::organization_name(), StringKind::Utf8, "A\u{200B}B"))),
        ("e_ext_ian_dns_invalid_characters",
         sign(base().add_extension(issuer_alt_name(&[GeneralName::dns("bad_label.example")])))),
        ("e_utf8string_disallowed_control_codes",
         sign(raw_attr(known::organization_name(), StringKind::Utf8, b"A\x02B"))),
        ("w_subject_dn_nonstandard_whitespace",
         sign(attr(known::organization_name(), StringKind::Utf8, "Peddy\u{A0}Shield"))),
        ("e_ext_crldp_uri_control_characters",
         sign(base().add_extension(crl_distribution_points(&[vec![GeneralName::Uri(
             RawValue::from_raw(StringKind::Ia5, b"http://ssl\x01test.com/c.crl"))]])))),
        ("e_numeric_string_invalid_character",
         sign(raw_attr(known::serial_number(), StringKind::Numeric, b"12a"))),
        ("e_ia5string_out_of_range",
         sign(raw_attr(known::domain_component(), StringKind::Ia5, &[b'a', 0x80]))),
        ("w_teletex_replacement_character",
         sign(raw_attr(known::organization_name(), StringKind::Teletex,
             &[b'S', b't', 0xEF, 0xBF, 0xBD, b'r', b'i']))),
        ("e_visible_string_control_characters",
         sign(raw_attr(known::organization_name(), StringKind::Visible, b"a\x0Ab"))),
        // --- T2: Bad Normalization ----------------------------------------
        ("e_rfc_dns_idn_u_label_not_nfc", {
            let decomposed = "mu\u{308}nchen";
            let a = format!("xn--{}", unicert_idna::punycode::encode(decomposed).unwrap());
            sign(base().add_dns_san(&format!("{a}.de")))
        }),
        ("w_subject_utf8_not_nfc",
         sign(attr(known::common_name(), StringKind::Utf8, "I\u{302}le-de-France"))),
        ("e_rfc_dns_idn_punycode_roundtrip_mismatch",
         sign(base().add_dns_san("xn---foo.example"))),
        ("w_smtp_utf8_mailbox_not_nfc",
         sign(smtp_mailbox(StringKind::Utf8, "mu\u{308}ller@example.com"))),
        // --- T3a: Illegal Format -------------------------------------------
        ("e_rfc_ext_cp_explicit_text_too_long",
         sign(policies_text(StringKind::Utf8, &"x".repeat(201)))),
        ("e_subject_country_not_two_letters",
         sign(attr(known::country_name(), StringKind::Printable, "Germany"))),
        ("e_subject_common_name_max_length",
         sign(attr(known::common_name(), StringKind::Utf8, &"c".repeat(65)))),
        ("e_subject_organization_name_max_length",
         sign(attr(known::organization_name(), StringKind::Utf8, &"o".repeat(65)))),
        ("e_subject_locality_max_length",
         sign(attr(known::locality_name(), StringKind::Utf8, &"l".repeat(129)))),
        ("e_dns_label_too_long",
         sign(base().add_dns_san(&format!("{}.example.com", "a".repeat(64))))),
        ("e_dns_name_too_long", {
            let long: String = "abcdefghij.".repeat(25) + "example.com";
            sign(base().add_dns_san(&long))
        }),
        ("e_dns_label_bad_hyphen_placement",
         sign(base().add_dns_san("-abc.example.com"))),
        ("e_serial_number_longer_than_20_octets",
         sign(base().serial(&[0x55; 21]))),
        ("e_serial_number_zero",
         sign(base().serial(&[0x00]))),
        ("e_validity_wrong_time_encoding", {
            // 2024 dates carried as GeneralizedTime: wrong era encoding.
            let v = Validity {
                not_before: DateTime::date(2024, 7, 1).unwrap(),
                not_after: DateTime::date(2024, 10, 1).unwrap(),
                not_before_kind: unicert_asn1::TimeKind::Generalized,
                not_after_kind: unicert_asn1::TimeKind::Generalized,
            };
            sign(CertificateBuilder::new().validity(v))
        }),
        ("e_subject_empty_attribute_value",
         sign(attr(known::organization_name(), StringKind::Utf8, ""))),
        ("e_rfc_dns_empty_label",
         sign(base().add_dns_san("a..example.com"))),
        ("e_country_code_lowercase",
         sign(attr(known::country_name(), StringKind::Printable, "de"))),
        ("e_san_wildcard_not_leftmost",
         sign(base().add_dns_san("a.*.example.com"))),
        ("e_ext_san_rfc822_invalid_format",
         sign(base().add_san(GeneralName::email("nobody")))),
        ("e_ext_san_uri_missing_scheme",
         sign(base().add_san(GeneralName::uri("//no-scheme/p")))),
        // --- T3b: Invalid Encoding -----------------------------------------
        ("w_rfc_ext_cp_explicit_text_not_utf8",
         sign(policies_text(StringKind::Visible, "Notice"))),
        ("e_rfc_ext_cp_explicit_text_ia5",
         sign(policies_text(StringKind::Ia5, "Notice"))),
        ("e_subject_dn_serial_number_not_printable",
         sign(attr(known::serial_number(), StringKind::Utf8, "S-1"))),
        ("e_rfc_subject_country_not_printable",
         sign(attr(known::country_name(), StringKind::Utf8, "DE"))),
        ("e_rfc_issuer_country_not_printable",
         sign(issuer_with(known::country_name(), StringKind::Utf8, "DE"))),
        ("e_subject_email_address_not_ia5",
         sign(attr(known::email_address(), StringKind::Utf8, "a@b.example"))),
        ("e_subject_domain_component_not_ia5",
         sign(attr(known::domain_component(), StringKind::Utf8, "example"))),
        ("w_subject_dn_uses_teletex_string",
         sign(attr(known::organization_name(), StringKind::Teletex, "Org"))),
        ("w_subject_dn_uses_universal_string",
         sign(attr(known::organization_name(), StringKind::Universal, "Org"))),
        ("w_subject_dn_uses_bmp_string",
         sign(attr(known::organization_name(), StringKind::Bmp, "Org"))),
        ("e_subject_dn_qualifier_not_printable",
         sign(attr(dn_qualifier.clone(), StringKind::Utf8, "q"))),
        ("e_subject_organization_not_printable_or_utf8",
         sign(attr(known::organization_name(), StringKind::Bmp, "Org"))),
        ("e_subject_common_name_not_printable_or_utf8",
         sign(attr(known::common_name(), StringKind::Bmp, "cn.example"))),
        ("e_subject_locality_not_printable_or_utf8",
         sign(attr(known::locality_name(), StringKind::Teletex, "Zürich"))),
        ("e_subject_ou_not_printable_or_utf8",
         sign(attr(known::organizational_unit(), StringKind::Bmp, "Unit"))),
        ("e_subject_state_not_printable_or_utf8",
         sign(attr(known::state_or_province(), StringKind::Teletex, "Bern"))),
        ("e_subject_street_not_printable_or_utf8",
         sign(attr(known::street_address(), StringKind::Teletex, "Hauptstraße"))),
        ("e_subject_postal_code_not_printable_or_utf8",
         sign(attr(known::postal_code(), StringKind::Bmp, "8000"))),
        ("e_subject_jurisdiction_locality_not_printable_or_utf8",
         sign(attr(known::jurisdiction_locality(), StringKind::Teletex, "München"))),
        ("e_subject_jurisdiction_state_not_printable_or_utf8",
         sign(attr(known::jurisdiction_state(), StringKind::Bmp, "Bayern"))),
        ("e_subject_given_name_not_printable_or_utf8",
         sign(attr(known::given_name(), StringKind::Bmp, "Anna"))),
        ("e_subject_surname_not_printable_or_utf8",
         sign(attr(known::surname(), StringKind::Bmp, "Muster"))),
        ("e_subject_title_not_printable_or_utf8",
         sign(attr(known::title(), StringKind::Bmp, "Dr"))),
        ("e_subject_business_category_not_printable_or_utf8",
         sign(attr(known::business_category(), StringKind::Bmp, "Private"))),
        ("e_subject_pseudonym_not_printable_or_utf8",
         sign(attr(known::pseudonym(), StringKind::Bmp, "px"))),
        ("e_subject_jurisdiction_country_not_printable",
         sign(attr(known::jurisdiction_country(), StringKind::Utf8, "DE"))),
        ("e_issuer_organization_not_printable_or_utf8",
         sign(issuer_with(known::organization_name(), StringKind::Bmp, "CA Org"))),
        ("e_issuer_common_name_not_printable_or_utf8",
         sign(issuer_with(known::common_name(), StringKind::Bmp, "CA R1"))),
        ("e_issuer_ou_not_printable_or_utf8",
         sign(issuer_with(known::organizational_unit(), StringKind::Bmp, "CA Unit"))),
        ("e_issuer_locality_not_printable_or_utf8",
         sign(issuer_with(known::locality_name(), StringKind::Teletex, "Genève"))),
        ("e_issuer_state_not_printable_or_utf8",
         sign(issuer_with(known::state_or_province(), StringKind::Teletex, "Vaud"))),
        ("e_ext_san_dns_not_ia5string",
         sign(base().add_san(GeneralName::DnsName(RawValue::from_raw(
             StringKind::Ia5, &[b'a', 0xC3, 0xBC, b'b']))))),
        ("e_ext_san_rfc822_not_ia5string",
         sign(base().add_san(GeneralName::Rfc822Name(RawValue::from_raw(
             StringKind::Ia5, "почта@example.com".as_bytes()))))),
        ("e_ext_san_uri_not_ia5string",
         sign(base().add_san(GeneralName::Uri(RawValue::from_raw(
             StringKind::Ia5, "https://bücher.example/".as_bytes()))))),
        ("e_ext_ian_name_not_ia5string",
         sign(base().add_extension(issuer_alt_name(&[GeneralName::DnsName(
             RawValue::from_raw(StringKind::Ia5, "ça.example".as_bytes()))])))),
        ("e_ext_aia_uri_not_ia5string",
         sign(base().add_extension(authority_info_access(&[AccessDescription {
             method: known::ad_ocsp(),
             location: GeneralName::Uri(RawValue::from_raw(
                 StringKind::Ia5, "http://ocsp.bücher.example/".as_bytes())),
         }])))),
        ("e_ext_sia_uri_not_ia5string",
         sign(base().add_extension(subject_info_access(&[AccessDescription {
             method: known::ad_ca_repository(),
             location: GeneralName::Uri(RawValue::from_raw(
                 StringKind::Ia5, "http://repo.bücher.example/".as_bytes())),
         }])))),
        ("e_ext_crldp_uri_not_ia5string",
         sign(base().add_extension(crl_distribution_points(&[vec![GeneralName::Uri(
             RawValue::from_raw(StringKind::Ia5, "http://crl.bücher.example/".as_bytes()))]])))),
        ("e_utf8string_invalid_bytes",
         sign(raw_attr(known::organization_name(), StringKind::Utf8, &[0xC3, 0x28]))),
        ("e_bmpstring_odd_length",
         sign(raw_attr(known::common_name(), StringKind::Bmp, &[0x00, 0x41, 0x42]))),
        ("e_universalstring_invalid_length",
         sign(raw_attr(known::organization_name(), StringKind::Universal, &[0, 0, 0x41]))),
        ("e_bmpstring_surrogate_code_unit",
         sign(raw_attr(known::common_name(), StringKind::Bmp, &[0xD8, 0x00]))),
        ("e_subject_cn_not_directory_string_type", sign(odd_tag_cn())),
        ("e_smtp_utf8_mailbox_not_utf8string",
         sign(smtp_mailbox(StringKind::Printable, "plain@example.com"))),
        ("w_ext_cp_explicit_text_bmpstring",
         sign(policies_text(StringKind::Bmp, "Notice"))),
        ("e_dn_attribute_unknown_string_tag", sign(odd_tag_cn())),
        ("e_ext_cp_cps_uri_not_ia5string",
         sign(base().add_extension(certificate_policies(&[PolicyInformation {
             policy_id: known::any_policy(),
             qualifiers: vec![PolicyQualifier::Cps(RawValue::from_text(
                 StringKind::Utf8, "https://cps.example"))],
         }])))),
        ("e_ext_san_rfc822_contains_non_ascii",
         sign(base().add_san(GeneralName::Rfc822Name(RawValue::from_raw(
             StringKind::Ia5, "grüße@example.com".as_bytes()))))),
        // --- T3c: Invalid Structure ----------------------------------------
        ("w_cab_subject_common_name_not_in_san",
         sign(base().subject_cn("orphan.example").add_dns_san("other.example"))),
        ("e_subject_duplicate_attribute",
         sign(base()
             .subject_attr(known::organizational_unit(), StringKind::Utf8, "A")
             .subject_attr(known::organizational_unit(), StringKind::Utf8, "B"))),
        // --- T3d: Discouraged Field ----------------------------------------
        ("w_cab_subject_contain_extra_common_name",
         sign(base()
             .subject_cn("a.example")
             .subject_cn("b.example")
             .add_dns_san("a.example")
             .add_dns_san("b.example"))),
        ("w_ext_san_uri_discouraged",
         sign(base().add_dns_san("a.example").add_san(GeneralName::uri("https://a.example")))),
    ]
}

#[test]
fn every_lint_fires_on_its_violating_certificate() {
    let registry = default_registry();
    for (name, cert) in violations() {
        assert!(registry.get(name).is_some(), "unknown lint {name}");
        let report = registry.run(&cert, RunOptions::default()).unwrap();
        assert!(
            report.findings.iter().any(|f| f.lint == name),
            "{name} did not fire; findings: {:?}",
            report.findings.iter().map(|f| f.lint).collect::<Vec<_>>()
        );
    }
}

#[test]
fn coverage_is_complete_for_all_95_lints() {
    let registry = default_registry();
    let covered: BTreeMap<&str, usize> =
        violations().iter().map(|(n, _)| (*n, 1)).collect();
    let mut missing: Vec<&str> = registry
        .lints()
        .iter()
        .map(|l| l.name)
        .filter(|n| !covered.contains_key(n))
        .collect();
    missing.sort();
    assert!(missing.is_empty(), "lints without coverage: {missing:?}");
}

#[test]
fn violations_survive_der_round_trips() {
    // Findings must be derivable from the wire form, not builder state.
    let registry = default_registry();
    for (name, cert) in violations() {
        let reparsed = Certificate::parse_der(&cert.raw).unwrap();
        let report = registry.run(&reparsed, RunOptions::default()).unwrap();
        assert!(
            report.findings.iter().any(|f| f.lint == name),
            "{name} lost through DER round trip"
        );
    }
}
