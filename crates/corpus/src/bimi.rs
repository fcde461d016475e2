//! BIMI/VMC-shaped certificates: the corpus twin of the `bimi` compliance
//! profile (SNIPPETS.md Snippet 1).
//!
//! Mirrors the `defects`/`generator` split of the WebPKI corpus at VMC
//! scale: [`BimiDefect`] enumerates one seeded noncompliance per lint of
//! the `bimi` catalog, [`vector_builder`] produces the fully deterministic
//! certificates behind `tests/vectors/bimi/`, and [`BimiGenerator`] streams
//! a seeded mixed corpus (clean VMCs plus defect injections) for the
//! differential-fuzzing harness.

use crate::pick;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, StringKind};
use unicert_x509::extensions::{certificate_policies, ext_key_usage, logotype, PolicyInformation};
use unicert_x509::{Certificate, CertificateBuilder, SimKey};

/// A concrete noncompliance a VMC can be built with. Each variant maps
/// onto exactly one lint of the `bimi` profile ([`BimiDefect::expected_lint`]);
/// the last two target the catalog's shared-WebPKI lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BimiDefect {
    /// certificatePolicies without the mark-certificate policy OID.
    OmitMarkPolicy,
    /// No extendedKeyUsage extension at all.
    OmitEku,
    /// extendedKeyUsage carrying serverAuth next to the BIMI purpose.
    ExtraEkuPurpose,
    /// No logotype extension.
    OmitLogotype,
    /// Logotype extension marked critical.
    CriticalLogotype,
    /// Subject DN without the markType attribute.
    OmitMarkType,
    /// markType as BMPString.
    BmpMarkType,
    /// Trademark office + registration without the country attribute.
    PartialTrademark,
    /// trademarkCountryOrRegionName spelled out ("USA").
    LongTrademarkCountry,
    /// trademarkRegistration as UTF8String instead of PrintableString.
    Utf8TrademarkId,
    /// statuteCitation without the accompanying statute country.
    StatuteWithoutCountry,
    /// priorUseMarkSourceURL over plain http.
    HttpPriorUseUrl,
    /// No subjectAltName (and no CN, so only the SAN lint fires).
    OmitSan,
    /// Subject CN absent from the SAN (shared WebPKI lint).
    CnNotInSan,
    /// Organization as BMPString (shared WebPKI lint).
    BmpOrganization,
}

impl BimiDefect {
    /// Every defect, in declaration order.
    pub const ALL: [BimiDefect; 15] = [
        BimiDefect::OmitMarkPolicy,
        BimiDefect::OmitEku,
        BimiDefect::ExtraEkuPurpose,
        BimiDefect::OmitLogotype,
        BimiDefect::CriticalLogotype,
        BimiDefect::OmitMarkType,
        BimiDefect::BmpMarkType,
        BimiDefect::PartialTrademark,
        BimiDefect::LongTrademarkCountry,
        BimiDefect::Utf8TrademarkId,
        BimiDefect::StatuteWithoutCountry,
        BimiDefect::HttpPriorUseUrl,
        BimiDefect::OmitSan,
        BimiDefect::CnNotInSan,
        BimiDefect::BmpOrganization,
    ];

    /// The `bimi`-profile lint this defect is expected to trigger.
    pub fn expected_lint(self) -> &'static str {
        use BimiDefect::*;
        match self {
            OmitMarkPolicy => "e_bimi_mark_certificate_policy_missing",
            OmitEku => "e_bimi_eku_missing",
            ExtraEkuPurpose => "w_bimi_eku_extraneous_purpose",
            OmitLogotype => "e_bimi_logotype_missing",
            CriticalLogotype => "e_bimi_logotype_critical",
            OmitMarkType => "e_bimi_mark_type_missing",
            BmpMarkType => "e_bimi_mark_type_not_printable_or_utf8",
            PartialTrademark => "e_bimi_trademark_registration_incomplete",
            LongTrademarkCountry => "e_bimi_trademark_country_not_two_letters",
            Utf8TrademarkId => "e_bimi_trademark_id_not_printable",
            StatuteWithoutCountry => "e_bimi_statute_citation_missing_country",
            HttpPriorUseUrl => "w_bimi_prior_use_url_not_https",
            OmitSan => "e_bimi_san_dns_missing",
            CnNotInSan => "w_cab_subject_common_name_not_in_san",
            BmpOrganization => "e_subject_organization_not_printable_or_utf8",
        }
    }
}

/// Midnight on a hand-validated calendar date (same pattern as the lint
/// framework's effective-date table: no fallible constructor at build time).
const fn midnight(year: i32, month: u8, day: u8) -> DateTime {
    DateTime { year, month, day, hour: 0, minute: 0, second: 0 }
}

/// The demo verified-mark issuer DN shared by every generated VMC.
fn issuer_dn() -> unicert_x509::DistinguishedName {
    unicert_x509::DistinguishedName::from_attributes(&[
        (known::country_name(), StringKind::Printable, "US"),
        (known::organization_name(), StringKind::Utf8, "BIMI Demo CA"),
        (known::common_name(), StringKind::Utf8, "BIMI Demo Verified Mark CA"),
    ])
}

/// Shape a VMC builder: a clean certificate satisfying every lint of the
/// `bimi` profile, or — with a defect — the same certificate perturbed so
/// exactly that defect's lint fires.
fn shape(
    defect: Option<BimiDefect>,
    host: &str,
    org: &str,
    serial: &[u8],
    issued: DateTime,
    days: i64,
) -> CertificateBuilder {
    use BimiDefect::*;
    let mut b = CertificateBuilder::new()
        .serial(serial)
        .issuer(issuer_dn())
        .validity_days(issued, days)
        .subject_attr(known::country_name(), StringKind::Printable, "US");

    b = match defect {
        Some(BmpOrganization) => b.subject_attr(known::organization_name(), StringKind::Bmp, org),
        _ => b.subject_attr(known::organization_name(), StringKind::Utf8, org),
    };
    match defect {
        // Without the SAN the CN would drag the shared CN↔SAN lint in too;
        // a CN-less subject keeps the vector single-lint.
        Some(OmitSan) => {}
        Some(CnNotInSan) => b = b.subject_cn(&format!("other-{host}")),
        _ => b = b.subject_cn(host),
    }
    match defect {
        Some(OmitMarkType) => {}
        Some(BmpMarkType) => {
            b = b.subject_attr(known::bimi_mark_type(), StringKind::Bmp, "Registered Mark")
        }
        _ => b = b.subject_attr(known::bimi_mark_type(), StringKind::Printable, "Registered Mark"),
    }

    // The trademark triple: office + country + registration number.
    b = b.subject_attr(
        known::bimi_trademark_office(),
        StringKind::Utf8,
        "US Patent and Trademark Office",
    );
    if !matches!(defect, Some(PartialTrademark)) {
        let country = if matches!(defect, Some(LongTrademarkCountry)) { "USA" } else { "US" };
        b = b.subject_attr(known::bimi_trademark_country(), StringKind::Printable, country);
    }
    b = match defect {
        Some(Utf8TrademarkId) => {
            b.subject_attr(known::bimi_trademark_id(), StringKind::Utf8, "7654321")
        }
        _ => b.subject_attr(known::bimi_trademark_id(), StringKind::Printable, "7654321"),
    };
    if matches!(defect, Some(StatuteWithoutCountry)) {
        b = b.subject_attr(known::bimi_statute_citation(), StringKind::Utf8, "15 U.S.C. 1051");
    }
    if matches!(defect, Some(HttpPriorUseUrl)) {
        b = b.subject_attr(
            known::bimi_prior_use_url(),
            StringKind::Utf8,
            "http://brand.example/mark",
        );
    }

    if !matches!(defect, Some(OmitSan)) {
        b = b.add_dns_san(host);
    }
    match defect {
        Some(OmitEku) => {}
        Some(ExtraEkuPurpose) => {
            b = b.add_extension(ext_key_usage(&[known::eku_bimi(), known::eku_server_auth()]))
        }
        _ => b = b.add_extension(ext_key_usage(&[known::eku_bimi()])),
    }
    if !matches!(defect, Some(OmitMarkPolicy)) {
        b = b.add_extension(certificate_policies(&[PolicyInformation {
            policy_id: known::bimi_mark_cert_policy(),
            qualifiers: Vec::new(),
        }]));
    }
    match defect {
        Some(OmitLogotype) => {}
        Some(CriticalLogotype) => {
            let mut ext = logotype("https://img.example/brand.svg");
            ext.critical = true;
            b = b.add_extension(ext);
        }
        _ => b = b.add_extension(logotype("https://img.example/brand.svg")),
    }
    b
}

/// The fully deterministic builder behind `tests/vectors/bimi/`: fixed
/// serial, brand, and validity, so regenerating golden vectors is
/// byte-stable across machines and runs.
pub fn vector_builder(defect: Option<BimiDefect>) -> CertificateBuilder {
    shape(defect, "brand.example", "Example Brand, Inc.", &[0x0B, 0x1F, 0x42], midnight(2024, 6, 1), 398)
}

/// Configuration for the seeded BIMI corpus.
#[derive(Debug, Clone)]
pub struct BimiConfig {
    /// Number of VMCs to produce.
    pub size: usize,
    /// RNG seed (fully deterministic given the seed).
    pub seed: u64,
    /// Fraction of entries carrying one seeded [`BimiDefect`].
    pub defect_fraction: f64,
}

impl Default for BimiConfig {
    fn default() -> Self {
        BimiConfig { size: 1_000, seed: 42, defect_fraction: 0.35 }
    }
}

/// One generated VMC with its ground-truth defect.
#[derive(Debug, Clone)]
pub struct BimiEntry {
    /// The certificate (parsed model + raw DER).
    pub cert: Certificate,
    /// The injected defect, if any.
    pub defect: Option<BimiDefect>,
}

/// `(host, org)` brand identities the generator samples from. One A-label
/// host keeps the IDN machinery in the differential corpus's diet.
const BRANDS: &[(&str, &str)] = &[
    ("brand.example", "Example Brand, Inc."),
    ("mail.acme.example", "Acme Corporation"),
    ("post.blumen.example", "Blumenladen München GmbH"),
    ("xn--mnchen-3ya.example", "Münchner Marken AG"),
    ("mark.nippon.example", "日本ブランド株式会社"),
];

/// Streaming seeded VMC generator.
pub struct BimiGenerator {
    config: BimiConfig,
    rng: SmallRng,
    key: SimKey,
    produced: usize,
}

impl BimiGenerator {
    /// Create a generator for the given configuration.
    pub fn new(config: BimiConfig) -> BimiGenerator {
        BimiGenerator {
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            key: SimKey::from_seed("bimi-demo-vmc-ca"),
            produced: 0,
        }
    }

    /// Generate the whole corpus into a vector.
    pub fn collect_all(config: BimiConfig) -> Vec<BimiEntry> {
        BimiGenerator::new(config).collect()
    }
}

impl Iterator for BimiGenerator {
    type Item = BimiEntry;

    fn next(&mut self) -> Option<BimiEntry> {
        if self.produced >= self.config.size {
            return None;
        }
        self.produced += 1;
        let defect = if self.config.defect_fraction > 0.0
            && self.rng.gen_bool(self.config.defect_fraction.min(1.0))
        {
            Some(pick(&mut self.rng, &BimiDefect::ALL))
        } else {
            None
        };
        let (host, org) = pick(&mut self.rng, BRANDS);
        let mut serial = [0u8; 10];
        self.rng.fill(&mut serial);
        serial[0] |= 0x01; // never zero
        let issued = midnight(
            2023 + self.rng.gen_range(0..3),
            self.rng.gen_range(1..=12),
            self.rng.gen_range(1..=28),
        );
        let days = pick(&mut self.rng, &[365i64, 398]);
        let cert = shape(defect, host, org, &serial, issued, days).build_signed(&self.key);
        Some(BimiEntry { cert, defect })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_lint::RunOptions;

    fn bimi_registry() -> &'static unicert_lint::Registry {
        unicert_lint::profiles::registry("bimi").expect("bimi profile registered")
    }

    #[test]
    fn clean_vector_passes_the_bimi_catalog() {
        let cert = vector_builder(None).build_signed(&SimKey::from_seed("bimi-demo-vmc-ca"));
        let report = bimi_registry().run(&cert, RunOptions::default()).unwrap();
        assert!(report.findings.is_empty(), "clean VMC lints dirty: {:?}", report.findings);
    }

    #[test]
    fn every_bimi_defect_triggers_its_lint() {
        let key = SimKey::from_seed("bimi-demo-vmc-ca");
        let reg = bimi_registry();
        for defect in BimiDefect::ALL {
            let cert = vector_builder(Some(defect)).build_signed(&key);
            let report = reg.run(&cert, RunOptions::default()).unwrap();
            let expected = defect.expected_lint();
            assert!(
                report.findings.iter().any(|f| f.lint == expected),
                "{defect:?}: expected {expected}, got {:?}",
                report.findings
            );
        }
    }

    #[test]
    fn every_defect_lint_is_registered() {
        let reg = bimi_registry();
        for defect in BimiDefect::ALL {
            assert!(reg.get(defect.expected_lint()).is_some(), "{defect:?}");
        }
        // And the mapping is onto: every bimi-profile lint has a defect.
        for lint in reg.iter() {
            assert!(
                BimiDefect::ALL.iter().any(|d| d.expected_lint() == lint.name),
                "no seeded defect targets {}",
                lint.name
            );
        }
    }

    #[test]
    fn generator_is_deterministic_and_mixed() {
        let a = BimiGenerator::collect_all(BimiConfig { size: 120, ..Default::default() });
        let b = BimiGenerator::collect_all(BimiConfig { size: 120, ..Default::default() });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cert.raw, y.cert.raw);
            assert_eq!(x.defect, y.defect);
        }
        assert!(a.iter().any(|e| e.defect.is_some()));
        assert!(a.iter().any(|e| e.defect.is_none()));
    }

    #[test]
    fn generated_defects_are_detected_and_clean_vmcs_pass() {
        let reg = bimi_registry();
        for e in BimiGenerator::collect_all(BimiConfig { size: 250, seed: 7, ..Default::default() })
        {
            let report = reg.run(&e.cert, RunOptions::default()).unwrap();
            match e.defect {
                Some(d) => assert!(
                    report.findings.iter().any(|f| f.lint == d.expected_lint()),
                    "{d:?} not detected: {:?}",
                    report.findings
                ),
                None => assert!(report.findings.is_empty(), "clean VMC: {:?}", report.findings),
            }
        }
    }
}
