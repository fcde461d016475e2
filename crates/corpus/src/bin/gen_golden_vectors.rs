//! Regenerates the golden lint-vector conformance corpora in
//! `tests/vectors/<profile>/`.
//!
//! One subdirectory per registered compliance profile, holding one DER
//! certificate per lint of that profile's registry, each hand-crafted to
//! trigger that lint (plus whatever related lints unavoidably co-fire), and
//! one clean control certificate with zero findings. Each manifest records
//! the *complete* expected finding set per vector; `tests/golden_lints.rs`
//! replays every vector through its profile's registry and asserts
//! byte-exact agreement, so any behavioral drift in a lint — intended or
//! not — shows up as a diff against a committed artifact.
//!
//! Adding a catalog lint without a recipe here makes this binary exit
//! non-zero, and adding one without a committed vector fails the golden
//! test; the two guards keep every profile's catalog and conformance
//! corpus in lockstep. `webpki` recipes live in [`recipe`] below; `bimi`
//! recipes are the deterministic [`unicert_corpus::bimi::vector_builder`]
//! defect shapes.
//!
//! Usage: `cargo run -p unicert-corpus --bin gen_golden_vectors [outdir]`
//! (default outdir: the repository's `tests/vectors`; each profile's set
//! goes to `<outdir>/<profile>/`).

use std::fmt::Write as _;
use std::path::PathBuf;
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, Oid, StringKind, Tag, TimeKind, Writer};
use unicert_corpus::BimiDefect;
use unicert_lint::{profiles, Registry, RunOptions};
use unicert_x509::extensions::{
    authority_info_access, certificate_policies, crl_distribution_points, issuer_alt_name,
    subject_info_access, AccessDescription, PolicyInformation, PolicyQualifier,
};
use unicert_x509::{
    AttributeTypeAndValue, CertificateBuilder, DistinguishedName, GeneralName, RawValue, Rdn,
    SimKey, Validity,
};

/// Issuance date for every vector: after the latest lint effective date
/// (RFC 9598, 2024-06), so date gating never masks a finding.
fn issued() -> DateTime {
    DateTime { year: 2024, month: 7, day: 1, hour: 0, minute: 0, second: 0 }
}

fn base() -> CertificateBuilder {
    CertificateBuilder::new().validity_days(issued(), 90)
}

/// `id-at-initials` (2.5.4.43): a real DN attribute no per-attribute
/// encoding lint covers, used to exercise string-type lints in isolation.
fn initials() -> Oid {
    known::initials()
}

/// `id-at-dnQualifier` (2.5.4.46).
fn dn_qualifier() -> Oid {
    known::dn_qualifier()
}

/// A single-attribute DN (for issuer-side vectors).
fn dn1(oid: Oid, value: RawValue) -> DistinguishedName {
    DistinguishedName {
        rdns: vec![Rdn { attributes: vec![AttributeTypeAndValue { oid, value }] }],
    }
}

fn policies_with_text(kind: StringKind, text: &str) -> unicert_x509::Extension {
    certificate_policies(&[PolicyInformation {
        policy_id: known::any_policy(),
        qualifiers: vec![PolicyQualifier::UserNotice {
            explicit_text: Some(RawValue::from_text(kind, text)),
        }],
    }])
}

/// An SmtpUTF8Mailbox OtherName with the mailbox under an arbitrary string
/// kind (`[0]` EXPLICIT wrapping).
fn smtp_mailbox(kind: StringKind, text: &str) -> GeneralName {
    let mut w = Writer::new();
    w.write_constructed(Tag::context_constructed(0), |w| {
        w.write_string(kind, text);
    });
    GeneralName::OtherName { type_id: known::smtp_utf8_mailbox(), value: w.into_bytes() }
}

/// The certificate recipe for one catalog lint: a minimal certificate that
/// violates exactly that rule (co-firing related lints where the trigger
/// construction inherently violates several). `None` means the catalog
/// gained a lint without a recipe here — the binary exits non-zero so the
/// two stay in lockstep.
fn recipe(lint: &str) -> Option<CertificateBuilder> {
    let b = base();
    Some(match lint {
        // --- T1: Invalid Character --------------------------------------
        "e_rfc_dns_idn_a2u_unpermitted_unichar" => b.add_dns_san("xn--www-hn0a.example.com"),
        "e_rfc_subject_dn_not_printable_characters" => b.subject_attr_raw(
            known::organization_name(),
            StringKind::Utf8,
            b"Evil\x1BOrg",
        ),
        "e_rfc_subject_printable_string_badalpha" => b.subject_attr_raw(
            known::organization_name(),
            StringKind::Printable,
            b"Acme@Example",
        ),
        "w_community_subject_dn_trailing_whitespace" => {
            b.subject_attr(known::organization_name(), StringKind::Utf8, "Acme Corp ")
        }
        "w_community_subject_dn_leading_whitespace" => {
            b.subject_attr(known::organization_name(), StringKind::Utf8, " Acme Corp")
        }
        "e_rfc_dns_idn_malformed_unicode" => b.add_dns_san("xn--99999999999.example.com"),
        "e_cab_dns_bad_character_in_label" => b.add_dns_san("bad_label.example.com"),
        "e_ext_san_dns_contain_unpermitted_unichar" => b.add_san(GeneralName::DnsName(
            RawValue::from_raw(StringKind::Ia5, "münchen.example.com".as_bytes()),
        )),
        "e_subject_dn_nul_byte" => b.subject_attr_raw(
            known::organization_name(),
            StringKind::Utf8,
            b"\x00C\x00&\x00I\x00S",
        ),
        "e_issuer_dn_not_printable_characters" => b.issuer(dn1(
            known::organization_name(),
            RawValue::from_raw(StringKind::Utf8, b"Rogue\x1BCA"),
        )),
        "e_ext_san_rfc822_invalid_characters" => {
            b.add_san(GeneralName::email("bad name@example.com"))
        }
        "e_ext_san_uri_invalid_characters" => {
            b.add_san(GeneralName::uri("https://example.com/a b"))
        }
        "e_subject_dn_bidi_controls" => b.subject_attr(
            known::organization_name(),
            StringKind::Utf8,
            "Acme\u{202E}proC\u{202C}",
        ),
        "e_subject_dn_zero_width_characters" => b.subject_attr(
            known::organization_name(),
            StringKind::Utf8,
            "Acme\u{200B}Corp",
        ),
        "e_ext_ian_dns_invalid_characters" => {
            b.add_extension(issuer_alt_name(&[GeneralName::dns("bad_label.example.com")]))
        }
        "e_utf8string_disallowed_control_codes" => b.subject_attr_raw(
            known::organization_name(),
            StringKind::Utf8,
            b"Acme\x07Corp",
        ),
        "w_subject_dn_nonstandard_whitespace" => b.subject_attr(
            known::organization_name(),
            StringKind::Utf8,
            "Peddy\u{A0}Shield",
        ),
        "e_ext_crldp_uri_control_characters" => b.add_extension(crl_distribution_points(&[vec![
            GeneralName::uri("http://crl.example.com/\u{1}ca.crl"),
        ]])),
        "e_numeric_string_invalid_character" => {
            b.subject_attr_raw(initials(), StringKind::Numeric, b"12A4")
        }
        "e_ia5string_out_of_range" => {
            b.subject_attr_raw(initials(), StringKind::Ia5, &[b'a', 0xC3, 0xA9])
        }
        "w_teletex_replacement_character" => b.subject_attr_raw(
            initials(),
            StringKind::Teletex,
            &[b'A', 0xEF, 0xBF, 0xBD, b'B'],
        ),
        "e_visible_string_control_characters" => {
            b.subject_attr_raw(initials(), StringKind::Visible, &[b'A', 0x08, b'B'])
        }
        // --- T2: Bad Normalization --------------------------------------
        "e_rfc_dns_idn_u_label_not_nfc" => {
            // Decomposed "münchen" (u + combining diaeresis) behind Punycode.
            let enc = unicert_idna::punycode::encode("mu\u{308}nchen").expect("encodable"); // analysis:allow(expect) static literal is always encodable
            b.add_dns_san(&format!("xn--{enc}.de"))
        }
        "w_subject_utf8_not_nfc" => b.subject_attr(
            known::organization_name(),
            StringKind::Utf8,
            "I\u{302}le-de-France SARL",
        ),
        "e_rfc_dns_idn_punycode_roundtrip_mismatch" => b.add_dns_san("xn---foo.example.com"),
        "w_smtp_utf8_mailbox_not_nfc" => {
            b.add_san(smtp_mailbox(StringKind::Utf8, "mu\u{308}ller@example.com"))
        }
        // --- T3a: Illegal Format ----------------------------------------
        "e_rfc_ext_cp_explicit_text_too_long" => b.add_extension(policies_with_text(
            StringKind::Utf8,
            &"This certificate policy notice is deliberately far too long. ".repeat(5),
        )),
        "e_subject_country_not_two_letters" => {
            b.subject_attr(known::country_name(), StringKind::Printable, "Germany")
        }
        "e_subject_common_name_max_length" => {
            // 65 characters, yet a structurally valid DNS name (labels ≤ 63),
            // mirrored into the SAN so only the length lint fires.
            let cn = format!("{}.{}.ex", "a".repeat(50), "b".repeat(11));
            assert_eq!(cn.chars().count(), 65);
            b.subject_cn(&cn).add_dns_san(&cn)
        }
        "e_subject_organization_name_max_length" => {
            b.subject_attr(known::organization_name(), StringKind::Utf8, &"o".repeat(65))
        }
        "e_subject_locality_max_length" => {
            b.subject_attr(known::locality_name(), StringKind::Utf8, &"l".repeat(129))
        }
        "e_dns_label_too_long" => b.add_dns_san(&format!("{}.example.com", "a".repeat(64))),
        "e_dns_name_too_long" => {
            let l = "a".repeat(63);
            b.add_dns_san(&format!("{l}.{l}.{l}.{}", "a".repeat(62)))
        }
        "e_dns_label_bad_hyphen_placement" => b.add_dns_san("-bad.example.com"),
        "e_serial_number_longer_than_20_octets" => b.serial(&[0x7F; 21]),
        "e_serial_number_zero" => b.serial(&[0x00]),
        "e_validity_wrong_time_encoding" => b.validity(Validity {
            not_before: issued(),
            not_after: DateTime { year: 2024, month: 9, day: 29, hour: 0, minute: 0, second: 0 },
            // 2024 must be UTCTime; GeneralizedTime is the era mismatch.
            not_before_kind: TimeKind::Generalized,
            not_after_kind: TimeKind::Utc,
        }),
        "e_subject_empty_attribute_value" => {
            b.subject_attr(known::organization_name(), StringKind::Utf8, "")
        }
        "e_rfc_dns_empty_label" => b.add_dns_san("a..example.com"),
        "e_country_code_lowercase" => {
            b.subject_attr(known::country_name(), StringKind::Printable, "de")
        }
        "e_san_wildcard_not_leftmost" => b.add_dns_san("foo.*.example.com"),
        "e_ext_san_rfc822_invalid_format" => b.add_san(GeneralName::email("nobody")),
        "e_ext_san_uri_missing_scheme" => b.add_san(GeneralName::uri("//no-scheme/path")),
        // --- T3b: Invalid Encoding --------------------------------------
        "w_rfc_ext_cp_explicit_text_not_utf8" => {
            b.add_extension(policies_with_text(StringKind::Visible, "Certification notice"))
        }
        "e_rfc_ext_cp_explicit_text_ia5" => {
            b.add_extension(policies_with_text(StringKind::Ia5, "Legacy policy notice"))
        }
        "e_subject_dn_serial_number_not_printable" => {
            b.subject_attr(known::serial_number(), StringKind::Utf8, "C-2024-001")
        }
        "e_rfc_subject_country_not_printable" => {
            b.subject_attr(known::country_name(), StringKind::Utf8, "DE")
        }
        "e_rfc_issuer_country_not_printable" => b.issuer(dn1(
            known::country_name(),
            RawValue::from_text(StringKind::Utf8, "DE"),
        )),
        "e_subject_email_address_not_ia5" => {
            b.subject_attr(known::email_address(), StringKind::Utf8, "pki@example.com")
        }
        "e_subject_domain_component_not_ia5" => {
            b.subject_attr(known::domain_component(), StringKind::Utf8, "example")
        }
        "w_subject_dn_uses_teletex_string" => {
            b.subject_attr(initials(), StringKind::Teletex, "JD")
        }
        "w_subject_dn_uses_universal_string" => {
            b.subject_attr_raw(initials(), StringKind::Universal, &[0, 0, 0, b'J'])
        }
        "w_subject_dn_uses_bmp_string" => {
            b.subject_attr_raw(initials(), StringKind::Bmp, &[0, b'J'])
        }
        "e_subject_dn_qualifier_not_printable" => {
            b.subject_attr(dn_qualifier(), StringKind::Utf8, "XYZ")
        }
        "e_subject_organization_not_printable_or_utf8" => {
            b.subject_attr(known::organization_name(), StringKind::Bmp, "Acme Corp")
        }
        "e_subject_common_name_not_printable_or_utf8" => b
            .subject_attr(known::common_name(), StringKind::Bmp, "bmp.example.com")
            .add_dns_san("bmp.example.com"),
        "e_subject_locality_not_printable_or_utf8" => {
            b.subject_attr(known::locality_name(), StringKind::Teletex, "Zürich")
        }
        "e_subject_ou_not_printable_or_utf8" => {
            b.subject_attr(known::organizational_unit(), StringKind::Bmp, "IT 部門")
        }
        "e_subject_state_not_printable_or_utf8" => {
            b.subject_attr(known::state_or_province(), StringKind::Teletex, "Überlingen")
        }
        "e_subject_street_not_printable_or_utf8" => {
            b.subject_attr(known::street_address(), StringKind::Teletex, "Hauptstraße 1")
        }
        "e_subject_postal_code_not_printable_or_utf8" => {
            b.subject_attr(known::postal_code(), StringKind::Bmp, "100-0001")
        }
        "e_subject_jurisdiction_locality_not_printable_or_utf8" => {
            b.subject_attr(known::jurisdiction_locality(), StringKind::Teletex, "München")
        }
        "e_subject_jurisdiction_state_not_printable_or_utf8" => {
            b.subject_attr(known::jurisdiction_state(), StringKind::Bmp, "Bayern")
        }
        "e_subject_given_name_not_printable_or_utf8" => {
            b.subject_attr(known::given_name(), StringKind::Bmp, "Hans")
        }
        "e_subject_surname_not_printable_or_utf8" => {
            b.subject_attr(known::surname(), StringKind::Bmp, "Muster")
        }
        "e_subject_title_not_printable_or_utf8" => {
            b.subject_attr(known::title(), StringKind::Bmp, "Dr")
        }
        "e_subject_business_category_not_printable_or_utf8" => {
            b.subject_attr(known::business_category(), StringKind::Bmp, "Private Organization")
        }
        "e_subject_pseudonym_not_printable_or_utf8" => {
            b.subject_attr(known::pseudonym(), StringKind::Bmp, "Ghostwriter")
        }
        "e_subject_jurisdiction_country_not_printable" => {
            b.subject_attr(known::jurisdiction_country(), StringKind::Utf8, "DE")
        }
        "e_issuer_organization_not_printable_or_utf8" => b.issuer(dn1(
            known::organization_name(),
            RawValue::from_text(StringKind::Bmp, "Legacy CA GmbH"),
        )),
        "e_issuer_common_name_not_printable_or_utf8" => b.issuer(dn1(
            known::common_name(),
            RawValue::from_text(StringKind::Bmp, "Legacy CA R1"),
        )),
        "e_issuer_ou_not_printable_or_utf8" => b.issuer(dn1(
            known::organizational_unit(),
            RawValue::from_text(StringKind::Bmp, "Issuing Unit"),
        )),
        "e_issuer_locality_not_printable_or_utf8" => b.issuer(dn1(
            known::locality_name(),
            RawValue::from_text(StringKind::Bmp, "Wien"),
        )),
        "e_issuer_state_not_printable_or_utf8" => b.issuer(dn1(
            known::state_or_province(),
            RawValue::from_text(StringKind::Bmp, "Tirol"),
        )),
        "e_ext_san_dns_not_ia5string" => b.add_san(GeneralName::DnsName(RawValue::from_raw(
            StringKind::Ia5,
            "bücher.example.com".as_bytes(),
        ))),
        "e_ext_san_rfc822_not_ia5string" => b.add_san(GeneralName::Rfc822Name(
            RawValue::from_raw(StringKind::Ia5, "почта@example.com".as_bytes()),
        )),
        "e_ext_san_uri_not_ia5string" => b.add_san(GeneralName::Uri(RawValue::from_raw(
            StringKind::Ia5,
            "https://exämple.com/path".as_bytes(),
        ))),
        "e_ext_ian_name_not_ia5string" => {
            b.add_extension(issuer_alt_name(&[GeneralName::DnsName(RawValue::from_raw(
                StringKind::Ia5,
                "münchen.example.com".as_bytes(),
            ))]))
        }
        "e_ext_aia_uri_not_ia5string" => {
            b.add_extension(authority_info_access(&[AccessDescription {
                method: known::ad_ocsp(),
                location: GeneralName::Uri(RawValue::from_raw(
                    StringKind::Ia5,
                    "http://ocsp.exämple.com".as_bytes(),
                )),
            }]))
        }
        "e_ext_sia_uri_not_ia5string" => {
            b.add_extension(subject_info_access(&[AccessDescription {
                method: known::ad_ca_repository(),
                location: GeneralName::Uri(RawValue::from_raw(
                    StringKind::Ia5,
                    "http://repo.exämple.com".as_bytes(),
                )),
            }]))
        }
        "e_ext_crldp_uri_not_ia5string" => b.add_extension(crl_distribution_points(&[vec![
            GeneralName::Uri(RawValue::from_raw(
                StringKind::Ia5,
                "http://crl.exämple.com/ca.crl".as_bytes(),
            )),
        ]])),
        "e_utf8string_invalid_bytes" => b.subject_attr_raw(
            known::organization_name(),
            StringKind::Utf8,
            // Latin-1 "Störi" bytes under a UTF-8 tag.
            &[b'S', b't', 0xF6, b'r', b'i'],
        ),
        "e_bmpstring_odd_length" => {
            b.subject_attr_raw(initials(), StringKind::Bmp, &[0x00, 0x41, 0x42])
        }
        "e_universalstring_invalid_length" => {
            b.subject_attr_raw(initials(), StringKind::Universal, &[0, 0, 0, 0x41, 0, 0])
        }
        "e_bmpstring_surrogate_code_unit" => {
            b.subject_attr_raw(initials(), StringKind::Bmp, &[0xD8, 0x00])
        }
        "e_subject_cn_not_directory_string_type" => b.subject(dn1(
            known::common_name(),
            // OCTET STRING (tag 4) is not a character string type at all.
            RawValue { tag_number: 4, bytes: b"cn-bytes".to_vec() },
        )),
        "e_smtp_utf8_mailbox_not_utf8string" => {
            b.add_san(smtp_mailbox(StringKind::Ia5, "user@example.com"))
        }
        "w_ext_cp_explicit_text_bmpstring" => {
            b.add_extension(policies_with_text(StringKind::Bmp, "Policy notice"))
        }
        "e_dn_attribute_unknown_string_tag" => b.subject(dn1(
            initials(),
            RawValue { tag_number: 4, bytes: vec![0x01, 0x02] },
        )),
        "e_ext_cp_cps_uri_not_ia5string" => {
            b.add_extension(certificate_policies(&[PolicyInformation {
                policy_id: known::any_policy(),
                qualifiers: vec![PolicyQualifier::Cps(RawValue::from_text(
                    StringKind::Utf8,
                    "https://cps.example.com/cps",
                ))],
            }]))
        }
        "e_ext_san_rfc822_contains_non_ascii" => b.add_san(GeneralName::Rfc822Name(
            RawValue::from_raw(StringKind::Ia5, "müller@example.com".as_bytes()),
        )),
        // --- T3c: Invalid Structure -------------------------------------
        "w_cab_subject_common_name_not_in_san" => {
            b.subject_cn("other.example.com").add_dns_san("host.example.com")
        }
        "e_subject_duplicate_attribute" => b
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit A")
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit B"),
        // --- T3d: Discouraged Field -------------------------------------
        "w_cab_subject_contain_extra_common_name" => b
            .subject_cn("host.example.com")
            .subject_cn("www.host.example.com")
            .add_dns_san("host.example.com")
            .add_dns_san("www.host.example.com"),
        "w_ext_san_uri_discouraged" => b
            .add_dns_san("ok.example.com")
            .add_san(GeneralName::uri("https://ok.example.com")),
        _ => return None,
    })
}

fn findings_field(report: &unicert_lint::CertReport) -> String {
    report
        .findings
        .iter()
        .map(|f| format!("{}:{:?}:{:?}:{}", f.lint, f.severity, f.nc_type, f.new_lint))
        .collect::<Vec<_>>()
        .join(";")
}

/// The per-profile recipe dispatch: a builder violating exactly `lint`
/// under that profile's registry, or `None` when the profile gained a lint
/// with no recipe.
fn profile_recipe(profile: &str, lint: &str) -> Option<CertificateBuilder> {
    match profile {
        "webpki" => recipe(lint),
        // Every BIMI lint (including the two shared WebPKI rules) has a
        // seeded-defect shape in the corpus crate; reuse it verbatim so
        // golden vectors and generator defects cannot drift apart.
        "bimi" => BimiDefect::ALL
            .into_iter()
            .find(|d| d.expected_lint() == lint)
            .map(|d| unicert_corpus::bimi::vector_builder(Some(d))),
        _ => None,
    }
}

/// The clean control for a profile: zero findings under that registry.
fn profile_control(profile: &str) -> Option<CertificateBuilder> {
    match profile {
        "webpki" => {
            Some(base().subject_cn("clean.example.com").add_dns_san("clean.example.com"))
        }
        "bimi" => Some(unicert_corpus::bimi::vector_builder(None)),
        _ => None,
    }
}

fn write_profile(out_dir: &PathBuf, profile: &str, registry: &Registry) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let key = SimKey::from_seed("golden-vector-ca");
    let mut manifest = String::new();

    // The clean control certificate: zero findings, by construction.
    let control = profile_control(profile)
        .ok_or_else(|| format!("no clean-control recipe for profile {profile}"))?
        .build_signed(&key);
    let report = registry
        .run(&control, RunOptions::default())
        .map_err(|e| format!("{profile}: control cert does not parse: {e}"))?;
    if !report.findings.is_empty() {
        return Err(format!("{profile}: control cert not clean: {:?}", report.findings));
    }
    std::fs::write(out_dir.join("clean_control.der"), &control.raw)
        .map_err(|e| format!("write clean_control.der: {e}"))?;
    let _ = writeln!(manifest, "clean_control\t");

    for lint in registry.iter() {
        let builder = profile_recipe(profile, lint.name).ok_or_else(|| {
            format!("no golden-vector recipe for {profile} lint {} — add one", lint.name)
        })?;
        let cert = builder.build_signed(&key);
        let report = registry
            .run(&cert, RunOptions::default())
            .map_err(|e| format!("{profile}/{}: vector does not parse: {e}", lint.name))?;
        if !report.findings.iter().any(|f| f.lint == lint.name) {
            return Err(format!(
                "{profile}/{}: vector does not trigger its lint; findings: {:?}",
                lint.name, report.findings
            ));
        }
        std::fs::write(out_dir.join(format!("{}.der", lint.name)), &cert.raw)
            .map_err(|e| format!("write {}.der: {e}", lint.name))?;
        let _ = writeln!(manifest, "{}\t{}", lint.name, findings_field(&report));
    }

    std::fs::write(out_dir.join("manifest.tsv"), manifest)
        .map_err(|e| format!("write manifest.tsv: {e}"))?;
    println!("wrote {} vectors + control to {}", registry.len(), out_dir.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let vectors_root = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors")
    });
    for profile in profiles::all() {
        let registry = profiles::registry(profile.name)
            .ok_or_else(|| format!("profile {} has no shared registry", profile.name))?;
        write_profile(&vectors_root.join(profile.name), profile.name, registry)?;
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("gen_golden_vectors: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A signed certificate's bytes are the envelope around the TBS bytes
    /// it was signed over; re-encoding the whole model must agree, for
    /// every recipe and control of every profile.
    #[test]
    fn every_recipe_signs_to_its_reencoded_model() {
        let key = SimKey::from_seed("golden-vector-ca");
        let mut checked = 0;
        for profile in profiles::all() {
            let registry = profiles::registry(profile.name).expect("every profile has a registry");
            let control = profile_control(profile.name).expect("every profile has a control");
            let builders = registry
                .iter()
                .map(|lint| profile_recipe(profile.name, lint.name).expect("every lint has a recipe"));
            for builder in std::iter::once(control).chain(builders) {
                let cert = builder.build_signed(&key);
                assert_eq!(cert.raw, cert.to_der(), "{}", profile.name);
                assert_eq!(cert.raw_tbs(), cert.tbs.to_der(), "{}", profile.name);
                checked += 1;
            }
        }
        assert!(checked >= 112, "{checked}");
    }
}
