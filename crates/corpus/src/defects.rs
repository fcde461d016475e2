//! Noncompliance injection: every defect class the paper measures, with
//! sampling weights proportional to the Table 11 lint counts.

use rand::Rng;
use unicert_asn1::oid::known;
use unicert_asn1::StringKind;
use unicert_x509::extensions::{certificate_policies, PolicyInformation, PolicyQualifier};
use unicert_x509::{CertificateBuilder, GeneralName, RawValue};

/// A concrete noncompliance a certificate can be built with.
///
/// Each variant maps onto at least one catalog lint; `expected_lints`
/// documents the mapping and backs the corpus-vs-linter consistency tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defect {
    // --- T1: Invalid Character -----------------------------------------
    /// A-label decoding to IDNA-disallowed characters (F1-ii).
    IdnA2uUnpermitted,
    /// Control characters (NUL/ESC/DEL) in a Subject attribute.
    SubjectControlChars,
    /// `@` inside a PrintableString value.
    PrintableBadAlpha,
    /// Trailing whitespace in a subject value.
    TrailingWhitespace,
    /// Leading whitespace in a subject value.
    LeadingWhitespace,
    /// Undecodable A-label (F1-i).
    IdnMalformedUnicode,
    /// Underscore label in a DNSName.
    DnsBadCharInLabel,
    /// Raw UTF-8 (U-label) in a SAN DNSName.
    SanDnsRawUnicode,
    /// NULs evenly inserted (`[NUL]C[NUL]&[NUL]I[NUL]S` — IPS CA/Thawte).
    NulEvenlyInserted,
    /// DEL characters in the middle of text (the locale bug, F4).
    DelCharacters,
    // --- T2: Bad Normalization ------------------------------------------
    /// A-label whose U-label is not NFC.
    IdnNotNfc,
    // --- T3a: Illegal Format ---------------------------------------------
    /// explicitText longer than 200 characters.
    ExplicitTextTooLong,
    /// countryName spelled out ("Germany").
    CountryNotTwoLetters,
    /// Lowercase country code ("de").
    CountryLowercase,
    // --- T3b: Invalid Encoding --------------------------------------------
    /// explicitText as VisibleString (SHOULD-level, the single biggest lint).
    ExplicitTextNotUtf8,
    /// explicitText as IA5String (MUST-level).
    ExplicitTextIa5,
    /// Organization as BMPString.
    OrgBmpString,
    /// CommonName as BMPString.
    CnBmpString,
    /// Locality as TeletexString.
    LocalityTeletex,
    /// OU as BMPString.
    OuBmpString,
    /// EV jurisdictionLocality as TeletexString.
    JurisdictionLocalityTeletex,
    /// EV jurisdictionState as BMPString.
    JurisdictionStateBmp,
    /// EV jurisdictionCountry as UTF8String.
    JurisdictionCountryUtf8,
    /// State as TeletexString.
    StateTeletex,
    /// postalCode as BMPString.
    PostalCodeBmp,
    /// streetAddress as TeletexString.
    StreetTeletex,
    /// serialNumber as UTF8String.
    SerialNumberUtf8,
    /// countryName as UTF8String.
    CountryUtf8,
    /// Invalid UTF-8 bytes in a UTF8String.
    InvalidUtf8Bytes,
    /// Non-ASCII bytes in an RFC822Name (RFC 9598 violation).
    Rfc822NonAscii,
    // --- T3c: Invalid Structure --------------------------------------------
    /// Subject CN missing from the SAN.
    CnNotInSan,
    /// Duplicate subject attribute (two OUs).
    DuplicateAttribute,
    // --- T3d: Discouraged Field ---------------------------------------------
    /// Two CNs in the subject.
    ExtraCn,
    // --- Latent-only defects (ablation machinery) -----------------------------
    /// Bidirectional controls in a Subject value — violates only the
    /// RFC 9549-based lint (effective 2024), so it is invisible under date
    /// gating for anything issued earlier.
    SubjectBidiControl,
    /// Zero-width characters in a Subject value — violates only the
    /// RFC 8399-based lint (effective 2018).
    SubjectZeroWidth,
}

/// `(defect, weight)` — weights follow the Table 11 lint counts so the
/// corpus reproduces Table 1's type distribution.
pub const GENERAL_WEIGHTS: &[(Defect, u32)] = &[
    // T1 (sums to ≈ 43.2K in the paper).
    (Defect::IdnA2uUnpermitted, 26_701),
    (Defect::SubjectControlChars, 12_800),
    (Defect::PrintableBadAlpha, 1_561),
    (Defect::TrailingWhitespace, 1_356),
    (Defect::LeadingWhitespace, 437),
    (Defect::IdnMalformedUnicode, 401),
    (Defect::DnsBadCharInLabel, 326),
    (Defect::SanDnsRawUnicode, 109),
    (Defect::NulEvenlyInserted, 400),
    (Defect::DelCharacters, 117),
    // T2 (3 certificates in the whole paper corpus).
    (Defect::IdnNotNfc, 3),
    // T3a (≈ 3.2K).
    (Defect::ExplicitTextTooLong, 2_988),
    (Defect::CountryNotTwoLetters, 150),
    (Defect::CountryLowercase, 80),
    // T3b (≈ 150.9K).
    (Defect::ExplicitTextNotUtf8, 117_471),
    (Defect::ExplicitTextIa5, 2_550),
    (Defect::OrgBmpString, 25_751),
    (Defect::CnBmpString, 25_081),
    (Defect::LocalityTeletex, 17_825),
    (Defect::OuBmpString, 11_654),
    (Defect::JurisdictionLocalityTeletex, 4_213),
    (Defect::JurisdictionStateBmp, 2_829),
    (Defect::JurisdictionCountryUtf8, 1_744),
    (Defect::StateTeletex, 1_671),
    (Defect::PostalCodeBmp, 1_262),
    (Defect::StreetTeletex, 990),
    (Defect::SerialNumberUtf8, 461),
    (Defect::CountryUtf8, 409),
    (Defect::InvalidUtf8Bytes, 300),
    (Defect::Rfc822NonAscii, 200),
    // T3c (≈ 93.7K).
    (Defect::CnNotInSan, 93_664),
    (Defect::DuplicateAttribute, 1_200),
    // T3d (589).
    (Defect::ExtraCn, 589),
];

/// Latent-defect weights: the violations that only late-effective-date
/// rules catch. These back the footnote-4 ablation (§4.3: ignoring
/// effective dates inflates findings from 249K to 1.8M, ~7×).
pub const LATENT_WEIGHTS: &[(Defect, u32)] = &[
    (Defect::SubjectBidiControl, 80),
    (Defect::SubjectZeroWidth, 20),
];

/// Defects an IDN-only (automated DV) issuer can produce: DNS-related only
/// (§4.3.2 — Let's Encrypt's noncompliance is all IDN validation).
pub const DNS_ONLY_WEIGHTS: &[(Defect, u32)] = &[
    (Defect::IdnA2uUnpermitted, 26_701),
    (Defect::IdnMalformedUnicode, 401),
    (Defect::DnsBadCharInLabel, 326),
    (Defect::SanDnsRawUnicode, 109),
    (Defect::IdnNotNfc, 3),
];

/// Sample a defect from a weight table.
pub fn sample(rng: &mut impl Rng, table: &[(Defect, u32)]) -> Defect {
    let total: u64 = table.iter().map(|&(_, w)| w as u64).sum();
    let mut pick = rng.gen_range(0..total);
    for &(d, w) in table {
        if pick < w as u64 {
            return d;
        }
        pick -= w as u64;
    }
    table.last().expect("non-empty table").0 // analysis:allow(expect) weight tables are static non-empty constants
}

/// Deceptive/broken A-labels used by the IDN defects.
const BAD_A_LABELS: &[&str] = &[
    "xn--www-hn0a",  // LRM + www (bidi control)
    "xn--ssl-0b",    // may decode to a disallowed char depending on digits
];

/// A-labels that cannot be converted back to Unicode.
const UNCONVERTIBLE_A_LABELS: &[&str] = &["xn--99999999999", "xn--a99999999"];

/// Apply a defect to a builder.
///
/// `org` and `host` are the certificate's nominal organization and primary
/// hostname; defects mutate around them. Returns the modified builder.
pub fn apply(
    defect: Defect,
    builder: CertificateBuilder,
    org: &str,
    host: &str,
    rng: &mut impl Rng,
) -> CertificateBuilder {
    match defect {
        Defect::IdnA2uUnpermitted => {
            let label = BAD_A_LABELS[0];
            builder.add_dns_san(&format!("{label}.{host}"))
        }
        Defect::SubjectControlChars => {
            let ctl = crate::pick(rng, b"\x00\x1B\x7F");
            let mut bytes = org.as_bytes().to_vec();
            bytes.insert(bytes.len() / 2, ctl);
            builder.subject_attr_raw(known::organization_name(), StringKind::Utf8, &bytes)
        }
        Defect::PrintableBadAlpha => builder
            .subject_attr_raw(
                known::common_name(),
                StringKind::Printable,
                format!("admin@{host}").as_bytes(),
            )
            // Keep the CN↔SAN structure lint quiet: the defect under test
            // is the character range, not the structure.
            .add_san(GeneralName::email(&format!("admin@{host}"))),
        Defect::TrailingWhitespace => {
            builder.subject_attr(known::organization_name(), StringKind::Utf8, &format!("{org} "))
        }
        Defect::LeadingWhitespace => {
            builder.subject_attr(known::organization_name(), StringKind::Utf8, &format!(" {org}"))
        }
        Defect::IdnMalformedUnicode => {
            let label = crate::pick(rng, UNCONVERTIBLE_A_LABELS);
            builder.add_dns_san(&format!("{label}.{host}"))
        }
        Defect::DnsBadCharInLabel => builder.add_dns_san(&format!("bad_label.{host}")),
        Defect::SanDnsRawUnicode => builder.add_san(GeneralName::DnsName(RawValue::from_raw(
            StringKind::Ia5,
            format!("münchen.{host}").as_bytes(),
        ))),
        Defect::NulEvenlyInserted => {
            // "[NUL]C[NUL]&[NUL]I[NUL]S" — a NUL before every character.
            let mut bytes = Vec::with_capacity(org.len() * 2);
            for ch in org.chars().take(8) {
                bytes.push(0);
                let mut buf = [0u8; 4];
                bytes.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
            }
            builder.subject_attr_raw(known::organization_name(), StringKind::Utf8, &bytes)
        }
        Defect::DelCharacters => {
            let mut bytes = org.as_bytes().to_vec();
            let at = bytes.len() / 3;
            bytes.insert(at, 0x7F);
            bytes.insert(at, 0x7F);
            builder.subject_attr_raw(known::organization_name(), StringKind::Utf8, &bytes)
        }
        Defect::IdnNotNfc => {
            // Decomposed "münchen" behind Punycode.
            let decomposed = "mu\u{308}nchen";
            let a = format!(
                "xn--{}",
                unicert_idna::punycode::encode(decomposed).expect("encodable") // analysis:allow(expect) static literal is always encodable
            );
            builder.add_dns_san(&format!("{a}.de"))
        }
        Defect::ExplicitTextTooLong => builder.add_extension(policies_with_text(
            StringKind::Utf8,
            &"This certificate policy notice is deliberately far too long. ".repeat(5),
        )),
        Defect::CountryNotTwoLetters => {
            builder.subject_attr(known::country_name(), StringKind::Printable, "Germany")
        }
        Defect::CountryLowercase => {
            builder.subject_attr(known::country_name(), StringKind::Printable, "de")
        }
        Defect::ExplicitTextNotUtf8 => {
            builder.add_extension(policies_with_text(StringKind::Visible, "Certification notice"))
        }
        Defect::ExplicitTextIa5 => {
            builder.add_extension(policies_with_text(StringKind::Ia5, "Legacy policy notice"))
        }
        Defect::OrgBmpString => {
            builder.subject_attr(known::organization_name(), StringKind::Bmp, org)
        }
        Defect::CnBmpString => builder
            .subject_attr(known::common_name(), StringKind::Bmp, host)
            .add_dns_san(host),
        Defect::LocalityTeletex => {
            builder.subject_attr(known::locality_name(), StringKind::Teletex, "Zürich")
        }
        Defect::OuBmpString => {
            builder.subject_attr(known::organizational_unit(), StringKind::Bmp, "IT 部門")
        }
        Defect::JurisdictionLocalityTeletex => {
            builder.subject_attr(known::jurisdiction_locality(), StringKind::Teletex, "München")
        }
        Defect::JurisdictionStateBmp => {
            builder.subject_attr(known::jurisdiction_state(), StringKind::Bmp, "Bayern")
        }
        Defect::JurisdictionCountryUtf8 => {
            builder.subject_attr(known::jurisdiction_country(), StringKind::Utf8, "DE")
        }
        Defect::StateTeletex => {
            builder.subject_attr(known::state_or_province(), StringKind::Teletex, "Überlingen")
        }
        Defect::PostalCodeBmp => {
            builder.subject_attr(known::postal_code(), StringKind::Bmp, "100-0001")
        }
        Defect::StreetTeletex => {
            builder.subject_attr(known::street_address(), StringKind::Teletex, "Hauptstraße 1")
        }
        Defect::SerialNumberUtf8 => {
            builder.subject_attr(known::serial_number(), StringKind::Utf8, "Č-2024-001")
        }
        Defect::CountryUtf8 => {
            builder.subject_attr(known::country_name(), StringKind::Utf8, "DE")
        }
        Defect::InvalidUtf8Bytes => builder.subject_attr_raw(
            known::organization_name(),
            StringKind::Utf8,
            &[b'S', b't', 0xF6, b'r', b'i'], // Latin-1 bytes under a UTF-8 tag
        ),
        Defect::Rfc822NonAscii => builder.add_san(GeneralName::Rfc822Name(RawValue::from_raw(
            StringKind::Ia5,
            format!("почта@{host}").as_bytes(),
        ))),
        Defect::CnNotInSan => builder.subject_cn(&format!("other-{host}")),
        Defect::DuplicateAttribute => builder
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit A")
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit B"),
        Defect::ExtraCn => builder
            .subject_attr(known::common_name(), StringKind::Utf8, host)
            .subject_attr(known::common_name(), StringKind::Utf8, &format!("www.{host}"))
            // Both CNs appear in the SAN so only the extra-CN lint fires.
            .add_dns_san(host)
            .add_dns_san(&format!("www.{host}")),
        Defect::SubjectBidiControl => {
            // RLO…PDF around part of the name: invisible to pre-9549 rules.
            let half = org.chars().count() / 2;
            let (a, b): (String, String) = {
                let mut chars = org.chars();
                let a: String = chars.by_ref().take(half).collect();
                (a, chars.collect())
            };
            builder.subject_attr(
                known::organization_name(),
                StringKind::Utf8,
                &format!("{a}\u{202E}{b}\u{202C}"),
            )
        }
        Defect::SubjectZeroWidth => {
            let half = org.chars().count() / 2;
            let (a, b): (String, String) = {
                let mut chars = org.chars();
                let a: String = chars.by_ref().take(half).collect();
                (a, chars.collect())
            };
            builder.subject_attr(
                known::organization_name(),
                StringKind::Utf8,
                &format!("{a}\u{200B}{b}"),
            )
        }
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

impl Defect {
    /// The Table 1 taxonomy type this defect belongs to.
    pub fn nc_type(self) -> unicert_lint::NoncomplianceType {
        use unicert_lint::NoncomplianceType::*;
        use Defect::*;
        match self {
            IdnA2uUnpermitted | SubjectControlChars | PrintableBadAlpha | TrailingWhitespace
            | LeadingWhitespace | IdnMalformedUnicode | DnsBadCharInLabel | SanDnsRawUnicode
            | NulEvenlyInserted | DelCharacters => InvalidCharacter,
            IdnNotNfc => BadNormalization,
            ExplicitTextTooLong | CountryNotTwoLetters | CountryLowercase => IllegalFormat,
            ExplicitTextNotUtf8 | ExplicitTextIa5 | OrgBmpString | CnBmpString | LocalityTeletex
            | OuBmpString | JurisdictionLocalityTeletex | JurisdictionStateBmp
            | JurisdictionCountryUtf8 | StateTeletex | PostalCodeBmp | StreetTeletex
            | SerialNumberUtf8 | CountryUtf8 | InvalidUtf8Bytes | Rfc822NonAscii => InvalidEncoding,
            CnNotInSan | DuplicateAttribute => InvalidStructure,
            ExtraCn => DiscouragedField,
            SubjectBidiControl | SubjectZeroWidth => InvalidCharacter,
        }
    }

    /// Does applying this defect add its own O attribute? (The generator
    /// must then skip its default organization to avoid accidental
    /// duplicate-attribute findings.)
    pub fn provides_org(self) -> bool {
        use Defect::*;
        matches!(
            self,
            SubjectControlChars | TrailingWhitespace | LeadingWhitespace | NulEvenlyInserted
                | DelCharacters | OrgBmpString | InvalidUtf8Bytes | SubjectBidiControl
                | SubjectZeroWidth
        )
    }

    /// Does applying this defect add its own C attribute?
    pub fn provides_country(self) -> bool {
        use Defect::*;
        matches!(self, CountryNotTwoLetters | CountryLowercase | CountryUtf8)
    }

    /// Does applying this defect add its own CN attribute(s)?
    pub fn provides_cn(self) -> bool {
        use Defect::*;
        matches!(self, CnNotInSan | ExtraCn | CnBmpString | PrintableBadAlpha)
    }

    /// One catalog lint this defect is expected to trigger (consistency
    /// tests assert the linter actually fires it).
    pub fn expected_lint(self) -> &'static str {
        use Defect::*;
        match self {
            IdnA2uUnpermitted => "e_rfc_dns_idn_a2u_unpermitted_unichar",
            SubjectControlChars => "e_rfc_subject_dn_not_printable_characters",
            PrintableBadAlpha => "e_rfc_subject_printable_string_badalpha",
            TrailingWhitespace => "w_community_subject_dn_trailing_whitespace",
            LeadingWhitespace => "w_community_subject_dn_leading_whitespace",
            IdnMalformedUnicode => "e_rfc_dns_idn_malformed_unicode",
            DnsBadCharInLabel => "e_cab_dns_bad_character_in_label",
            SanDnsRawUnicode => "e_ext_san_dns_contain_unpermitted_unichar",
            NulEvenlyInserted => "e_subject_dn_nul_byte",
            DelCharacters => "e_rfc_subject_dn_not_printable_characters",
            IdnNotNfc => "e_rfc_dns_idn_u_label_not_nfc",
            ExplicitTextTooLong => "e_rfc_ext_cp_explicit_text_too_long",
            CountryNotTwoLetters => "e_subject_country_not_two_letters",
            CountryLowercase => "e_country_code_lowercase",
            ExplicitTextNotUtf8 => "w_rfc_ext_cp_explicit_text_not_utf8",
            ExplicitTextIa5 => "e_rfc_ext_cp_explicit_text_ia5",
            OrgBmpString => "e_subject_organization_not_printable_or_utf8",
            CnBmpString => "e_subject_common_name_not_printable_or_utf8",
            LocalityTeletex => "e_subject_locality_not_printable_or_utf8",
            OuBmpString => "e_subject_ou_not_printable_or_utf8",
            JurisdictionLocalityTeletex => "e_subject_jurisdiction_locality_not_printable_or_utf8",
            JurisdictionStateBmp => "e_subject_jurisdiction_state_not_printable_or_utf8",
            JurisdictionCountryUtf8 => "e_subject_jurisdiction_country_not_printable",
            StateTeletex => "e_subject_state_not_printable_or_utf8",
            PostalCodeBmp => "e_subject_postal_code_not_printable_or_utf8",
            StreetTeletex => "e_subject_street_not_printable_or_utf8",
            SerialNumberUtf8 => "e_subject_dn_serial_number_not_printable",
            CountryUtf8 => "e_rfc_subject_country_not_printable",
            InvalidUtf8Bytes => "e_utf8string_invalid_bytes",
            Rfc822NonAscii => "e_ext_san_rfc822_contains_non_ascii",
            CnNotInSan => "w_cab_subject_common_name_not_in_san",
            DuplicateAttribute => "e_subject_duplicate_attribute",
            ExtraCn => "w_cab_subject_contain_extra_common_name",
            SubjectBidiControl => "e_subject_dn_bidi_controls",
            SubjectZeroWidth => "e_subject_dn_zero_width_characters",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use unicert_asn1::DateTime;
    use unicert_lint::{default_registry, RunOptions};
    use unicert_x509::SimKey;

    fn all_defects() -> Vec<Defect> {
        GENERAL_WEIGHTS
            .iter()
            .chain(LATENT_WEIGHTS)
            .map(|&(d, _)| d)
            .collect()
    }

    /// Every defect, applied to a compliant base, makes its expected lint
    /// fire — the corpus ↔ linter contract.
    #[test]
    fn every_defect_triggers_its_lint() {
        let mut rng = SmallRng::seed_from_u64(42);
        let reg = default_registry();
        for defect in all_defects() {
            // CN-less base, matching the generator's defect-cert contract
            // (defects add their own CNs when they need them).
            let host = "host.example.com";
            let base = CertificateBuilder::new()
                .subject_org("Base Org")
                .add_dns_san(host)
                .validity_days(DateTime::date(2024, 7, 1).unwrap(), 90);
            let built = apply(defect, base, "Base Org", host, &mut rng)
                .build_signed(&SimKey::from_seed("defect-ca"));
            let report = reg.run(&built, RunOptions::default()).unwrap();
            let expected = defect.expected_lint();
            assert!(
                report.findings.iter().any(|f| f.lint == expected),
                "{defect:?}: expected {expected}, got {:?}",
                report.findings
            );
        }
    }

    /// Defect taxonomy types match what the linter reports.
    #[test]
    fn defect_types_match_lint_types() {
        let reg = default_registry();
        for defect in all_defects() {
            let lint = reg
                .get(defect.expected_lint())
                .unwrap_or_else(|| panic!("{}", defect.expected_lint()));
            assert_eq!(lint.nc_type, defect.nc_type(), "{defect:?}");
        }
    }

    #[test]
    fn weighted_sampling_follows_weights() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(sample(&mut rng, GENERAL_WEIGHTS)).or_insert(0usize) += 1;
        }
        // The dominant defect (explicitText-not-UTF8) must dominate.
        let top = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_eq!(*top.0, Defect::ExplicitTextNotUtf8);
        // CnNotInSan is second.
        assert!(counts[&Defect::CnNotInSan] > counts[&Defect::IdnA2uUnpermitted]);
    }
}
