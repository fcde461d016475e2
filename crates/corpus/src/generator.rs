//! The corpus generator: a deterministic stream of synthetic CT entries
//! whose population statistics reproduce the paper's aggregates (§4,
//! Tables 1–3, Figures 2–4). See DESIGN.md's substitution table.

use crate::defects::{self, Defect};
use crate::issuers::{self, IssuancePolicy, IssuerProfile, TrustStatus};
use crate::subjects;
use crate::trend::{self, CertClass};
use crate::trust;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, StringKind};
use unicert_x509::extensions::{authority_info_access, AccessDescription};
use unicert_x509::value::lossy_text;
use unicert_x509::{
    Certificate, CertView, CertificateBuilder, DistinguishedName, Extension, GeneralName, SimKey,
};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of leaf Unicerts to produce.
    pub size: usize,
    /// RNG seed (corpora are fully deterministic given the seed).
    pub seed: u64,
    /// Emit a CT-poisoned precertificate twin for this fraction of entries
    /// (the paper's CT dataset is 54.7% precertificates before filtering).
    pub precert_fraction: f64,
    /// Inject "latent" defects — violations of rules whose effective dates
    /// postdate the certificate — reproducing the footnote-4 ablation
    /// (findings inflate ~7× with date gating off).
    pub latent_defects: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { size: 10_000, seed: 42, precert_fraction: 0.0, latent_defects: true }
    }
}

/// Metadata the generator knows about each certificate (ground truth for
/// evaluating the analysis pipeline).
#[derive(Debug, Clone)]
pub struct CertMeta {
    /// IssuerOrganizationName.
    pub issuer_org: String,
    /// Trust status at issuance.
    pub trust: TrustStatus,
    /// Issuance date.
    pub issued: DateTime,
    /// Validity period in days.
    pub validity_days: i64,
    /// Does the certificate carry IDNs in DNS fields?
    pub is_idn_cert: bool,
    /// The injected defect, if any.
    pub injected: Option<Defect>,
    /// True when the defect is latent (only visible with date gating off).
    pub latent: bool,
    /// Is this entry a CT precertificate twin?
    pub is_precert: bool,
}

impl CertMeta {
    /// Best-effort metadata inferred from a parsed certificate alone.
    ///
    /// Bare DER inputs to the survey (`unicert::survey`) carry no
    /// generator ground truth; the survey infers their metadata with
    /// [`CertMeta::inferred_view`], this method's borrowed twin. Both
    /// reconstruct the fields the aggregation kernel reads from what the
    /// certificate itself says. Trust defaults to `Untrusted` (nothing
    /// vouches for a cert that arrived as bare bytes) and the
    /// injected/latent channels — which only the generator can know — stay
    /// empty.
    pub fn inferred(cert: &Certificate) -> CertMeta {
        let issuer_org = cert
            .tbs
            .issuer
            .organization()
            .or_else(|| cert.tbs.issuer.common_name())
            .unwrap_or_else(|| "(unknown issuer)".to_string());
        CertMeta {
            issuer_org,
            trust: TrustStatus::Untrusted,
            issued: cert.tbs.validity.not_before,
            validity_days: cert.tbs.validity.period_days(),
            is_idn_cert: false,
            injected: None,
            latent: false,
            is_precert: cert.tbs.is_precertificate(),
        }
    }

    /// [`CertMeta::inferred`] over the zero-copy [`CertView`]: identical
    /// field values for the same DER, no owned tree materialized. The
    /// survey's borrowed hot path relies on this equivalence for its
    /// byte-identical-reports invariant.
    pub fn inferred_view(view: &CertView<'_>) -> CertMeta {
        let issuer_org = view
            .issuer
            .organization()
            .or_else(|| view.issuer.common_name())
            .unwrap_or_else(|| "(unknown issuer)".to_string());
        CertMeta {
            issuer_org,
            trust: TrustStatus::Untrusted,
            issued: view.validity.not_before,
            validity_days: view.validity.period_days(),
            is_idn_cert: false,
            injected: None,
            latent: false,
            is_precert: view.is_precertificate(),
        }
    }
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The certificate (parsed model + raw DER).
    pub cert: Certificate,
    /// Ground-truth metadata.
    pub meta: CertMeta,
}

/// A [`CorpusEntry`] that has not been decoded yet: the certificate's raw
/// DER borrowed from wherever it already lives (a segment read buffer, a
/// memory-mapped corpus), plus its owned metadata. This is the currency of
/// the zero-copy survey path — the DER is parsed into a
/// [`unicert_x509::CertView`] at lint time instead of being copied into an
/// owned [`Certificate`] up front.
#[derive(Debug, Clone)]
pub struct RawEntry<'a> {
    /// The certificate, exactly as encoded.
    pub der: &'a [u8],
    /// Ground-truth metadata.
    pub meta: CertMeta,
}

/// Streaming corpus generator.
pub struct CorpusGenerator {
    config: CorpusConfig,
    rng: SmallRng,
    issuers: Vec<Issuer>,
    share_total: f64,
    /// [`defects::LATENT_WEIGHTS`] with each defect's lint effective date.
    latent: Vec<(Defect, u32, DateTime)>,
    produced: usize,
    pending_precert: Option<CorpusEntry>,
}

/// One issuer of the population with the parts of its certificates that
/// depend only on its profile, built once per generator.
struct Issuer {
    profile: IssuerProfile,
    /// The issuer DN its leaves carry ([`trust::issuer_dn`]).
    dn: DistinguishedName,
    /// The AuthorityInfoAccess extension naming its CA certificate.
    aia: Extension,
    key: SimKey,
}

impl Issuer {
    fn new(profile: IssuerProfile) -> Issuer {
        let slug = profile.org_name.to_lowercase().replace([' ', ',', '.', '\''], "-");
        Issuer {
            dn: trust::issuer_dn(&profile),
            aia: authority_info_access(&[AccessDescription {
                method: known::ad_ca_issuers(),
                location: GeneralName::uri(&format!("http://ca.{slug}.example/issuer.crt")),
            }]),
            key: SimKey::from_seed(profile.org_name),
            profile,
        }
    }
}

impl CorpusGenerator {
    /// Create a generator for the given configuration.
    pub fn new(config: CorpusConfig) -> CorpusGenerator {
        let issuers: Vec<Issuer> = issuers::population().into_iter().map(Issuer::new).collect();
        let share_total = issuers.iter().map(|i| i.profile.share).sum();
        let registry = crate::lint_registry();
        let latent = defects::LATENT_WEIGHTS
            .iter()
            .filter_map(|&(d, w)| registry.get(d.expected_lint()).map(|l| (d, w, l.effective_date())))
            .collect();
        CorpusGenerator {
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            issuers,
            share_total,
            latent,
            produced: 0,
            pending_precert: None,
        }
    }

    /// Generate the whole corpus into a vector (prefer iterating for large
    /// sizes).
    pub fn collect_all(config: CorpusConfig) -> Vec<CorpusEntry> {
        CorpusGenerator::new(config).collect()
    }

    fn next_entry(&mut self) -> CorpusEntry {
        let issuer = pick_issuer(&mut self.rng, &self.issuers, self.share_total);
        let profile = &issuer.profile;
        let year = trend::sample_year(&mut self.rng, profile.active.0, profile.active.1);
        let issued = trend::sample_date(&mut self.rng, year);

        // Decide noncompliance. The Fig. 2 decline factor is normalized by
        // the issuer's expected factor over its active years, so each
        // issuer's *overall* rate still matches its Table 2 value while the
        // yearly trend slopes downward.
        let norm = expected_nc_factor(profile.active.0, profile.active.1);
        let nc_rate = (profile.nc_rate * trend::nc_year_factor(year) / norm).min(0.985);
        let is_nc = self.rng.gen_bool(nc_rate);

        // Content.
        let idn_host = profile.policy == IssuancePolicy::IdnOnly
            || (profile.script != "latin" && self.rng.gen_bool(0.7))
            || self.rng.gen_bool(0.3);
        let host = if idn_host {
            subjects::idn_hostname(&mut self.rng, profile.script)
        } else {
            subjects::ascii_hostname(&mut self.rng)
        };
        // Certificates with ASCII hostnames must carry non-ASCII subject
        // text to be Unicerts at all (§2.3); IDN-hosted ones may use any org.
        let org = if idn_host {
            subjects::org_name(&mut self.rng, profile.script)
        } else {
            subjects::non_ascii_org(&mut self.rng, profile.script)
        };

        // Defect choice.
        let (defect, latent) = if is_nc {
            let table = match profile.policy {
                IssuancePolicy::IdnOnly => defects::DNS_ONLY_WEIGHTS,
                IssuancePolicy::FullSubject => defects::GENERAL_WEIGHTS,
            };
            (Some(defects::sample(&mut self.rng, table)), false)
        } else if self.config.latent_defects {
            latent_defect(&mut self.rng, &self.latent, profile, issued)
        } else {
            (None, false)
        };

        // Validity class.
        let class = if defect.is_some() && !latent {
            CertClass::Noncompliant
        } else if idn_host {
            CertClass::IdnCert
        } else {
            CertClass::OtherUnicert
        };
        let validity_days = trend::sample_validity_days(&mut self.rng, class);

        // Build.
        let mut serial = [0u8; 10];
        self.rng.fill(&mut serial);
        serial[0] |= 0x01; // never zero
        let mut builder = CertificateBuilder::new()
            .serial(&serial)
            .issuer(issuer.dn.clone())
            .validity_days(issued, validity_days)
            .add_dns_san(&host)
            .add_extension(issuer.aia.clone());

        match profile.policy {
            IssuancePolicy::IdnOnly => {
                // DV automation: CN mirrors the SAN, no other subject info.
                builder = builder.subject_cn(&host);
            }
            IssuancePolicy::FullSubject => {
                // Defects that inject their own C/O/CN own those attributes;
                // the base must not duplicate them.
                if !defect.is_some_and(Defect::provides_country) {
                    builder = builder.subject_attr(
                        known::country_name(),
                        StringKind::Printable,
                        profile.region,
                    );
                }
                if !defect.is_some_and(Defect::provides_org) {
                    builder = builder.subject_org(org);
                }
                if !defect.is_some_and(Defect::provides_cn) {
                    builder = builder.subject_cn(&host);
                }
            }
        }

        if let Some(d) = defect {
            builder = defects::apply(d, builder, org, &host, &mut self.rng);
        }

        // The built SAN is the builder's list, so its DNSNames are read
        // there instead of being parsed back out of the certificate.
        let is_idn_cert = builder.san_entries().iter().any(|name| match name {
            GeneralName::DnsName(v) => subjects::is_idn(&lossy_text(v.tag_number, &v.bytes)),
            _ => false,
        });
        let cert = builder.build_signed(&issuer.key);

        CorpusEntry {
            cert,
            meta: CertMeta {
                issuer_org: profile.org_name.to_string(),
                trust: profile.trust,
                issued,
                validity_days,
                is_idn_cert,
                injected: defect,
                latent,
                is_precert: false,
            },
        }
    }
}

/// Draw an issuer, weighted by its share of issuance.
fn pick_issuer<'a>(rng: &mut SmallRng, issuers: &'a [Issuer], share_total: f64) -> &'a Issuer {
    let mut pick = rng.gen_range(0.0..share_total);
    for issuer in issuers {
        if pick < issuer.profile.share {
            return issuer;
        }
        pick -= issuer.profile.share;
    }
    issuers.last().expect("population non-empty") // analysis:allow(expect) issuer population is a static non-empty table
}

/// Pick a latent defect: one whose *only* violated lint has an effective
/// date after the issuance date. Rates are tuned so that disabling date
/// gating inflates total findings by roughly the paper's 7× (the
/// footnote-4 ablation). `latent` is [`defects::LATENT_WEIGHTS`] with each
/// defect's lint effective date.
fn latent_defect(
    rng: &mut SmallRng,
    latent: &[(Defect, u32, DateTime)],
    profile: &IssuerProfile,
    issued: DateTime,
) -> (Option<Defect>, bool) {
    if profile.policy == IssuancePolicy::IdnOnly {
        // Automated DV issuers have no free-form subject fields to
        // carry latent text defects.
        return (None, false);
    }
    // Calibrated against the footnote-4 ablation target (≈7× inflation).
    let rate = match issued.year {
        ..=2017 => 0.30,
        2018..=2023 => 0.17,
        _ => 0.0,
    };
    if rate == 0.0 || !rng.gen_bool(rate) {
        return (None, false);
    }
    let latent_table: Vec<(Defect, u32)> = latent
        .iter()
        .filter(|&&(_, _, effective)| issued < effective)
        .map(|&(d, w, _)| (d, w))
        .collect();
    if latent_table.is_empty() {
        return (None, false);
    }
    (Some(defects::sample(rng, &latent_table)), true)
}

/// Cached handle for the `corpus.generate_ns` histogram (DESIGN.md §8) —
/// one registry lookup for the process lifetime, not one per entry.
fn generate_histogram() -> &'static std::sync::Arc<unicert_telemetry::Histogram> {
    static HANDLE: std::sync::OnceLock<std::sync::Arc<unicert_telemetry::Histogram>> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| unicert_telemetry::global().histogram("corpus.generate_ns", ""))
}

impl Iterator for CorpusGenerator {
    type Item = CorpusEntry;

    fn next(&mut self) -> Option<CorpusEntry> {
        if let Some(pre) = self.pending_precert.take() {
            return Some(pre);
        }
        if self.produced >= self.config.size {
            return None;
        }
        self.produced += 1;
        // Generation covers build + sign + DER encode/parse round-trip —
        // the "DER parse" leg of the pipeline breakdown. Timing is a pure
        // observation: the RNG stream and the entry are untouched by it.
        let started = unicert_telemetry::metrics_enabled().then(std::time::Instant::now);
        let entry = self.next_entry();
        if self.config.precert_fraction > 0.0 && self.rng.gen_bool(self.config.precert_fraction) {
            self.pending_precert = Some(make_precert_twin(&entry));
        }
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            generate_histogram().record(nanos);
        }
        Some(entry)
    }
}

/// The issuance-weighted average decline factor over an active range —
/// the normalizer that keeps per-issuer overall rates at their Table 2
/// values.
fn expected_nc_factor(lo: i32, hi: i32) -> f64 {
    let lo = lo.max(trend::FIRST_YEAR);
    let hi = hi.min(trend::LAST_YEAR);
    let mut weight_sum = 0.0;
    let mut acc = 0.0;
    for y in lo..=hi {
        let w = trend::year_weight(y);
        weight_sum += w; // analysis:allow(float_accum) sequential loop over a fixed year range — order is identical every run
        acc += w * trend::nc_year_factor(y); // analysis:allow(float_accum) sequential loop over a fixed year range — order is identical every run
    }
    if weight_sum <= 0.0 {
        1.0
    } else {
        acc / weight_sum
    }
}

/// Build the CT-poisoned precertificate twin of an entry (§4.1: filtered
/// out of analysis by the poison extension).
fn make_precert_twin(entry: &CorpusEntry) -> CorpusEntry {
    let mut tbs = entry.cert.tbs.clone();
    tbs.extensions.insert(0, unicert_x509::extensions::ct_poison());
    CorpusEntry {
        cert: Certificate::sign(tbs, &SimKey::from_seed(&entry.meta.issuer_org)),
        meta: CertMeta { is_precert: true, ..entry.meta.clone() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_lint::{RunOptions, Severity};

    fn small_corpus(size: usize, seed: u64) -> Vec<CorpusEntry> {
        CorpusGenerator::collect_all(CorpusConfig { size, seed, ..Default::default() })
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_corpus(50, 7);
        let b = small_corpus(50, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cert.raw, y.cert.raw);
        }
        let c = small_corpus(50, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.cert.raw != y.cert.raw));
    }

    #[test]
    fn all_entries_are_unicerts() {
        for e in small_corpus(300, 1) {
            let subject_unicode = e
                .cert
                .tbs
                .subject
                .attributes()
                .chain(e.cert.tbs.issuer.attributes())
                .any(|a| {
                    a.value
                        .decode_wire()
                        .map(|t| unicert_unicode::classify::has_non_printable_ascii(&t))
                        .unwrap_or(true)
                });
            let idn = e.meta.is_idn_cert;
            assert!(subject_unicode || idn, "not a Unicert: {:?}", e.cert.tbs.subject);
        }
    }

    #[test]
    fn signed_encoding_equals_the_model_reencoded() {
        // Certificates are encoded around the TBS bytes they were signed
        // over; re-encoding the whole model must give the same bytes, for
        // leaves and for precertificate twins.
        let corpus = CorpusGenerator::collect_all(CorpusConfig {
            size: 2_000,
            seed: 24,
            precert_fraction: 0.1,
            latent_defects: true,
        });
        assert!(corpus.iter().any(|e| e.meta.is_precert));
        for (i, e) in corpus.iter().enumerate() {
            assert_eq!(e.cert.raw, e.cert.to_der(), "entry {i}");
            assert_eq!(e.cert.raw_tbs(), e.cert.tbs.to_der(), "entry {i}");
            // The IDN flag read off the builder's SAN list agrees with the
            // SAN parsed back out of the certificate.
            let parsed = e.cert.tbs.san_dns_names().iter().any(|h| subjects::is_idn(h));
            assert_eq!(e.meta.is_idn_cert, parsed, "entry {i}");
        }
    }

    #[test]
    fn signatures_verify_with_issuer_keys() {
        for e in small_corpus(100, 2) {
            let key = SimKey::from_seed(&e.meta.issuer_org);
            assert!(key.verify(e.cert.raw_tbs(), &e.cert.signature.bytes), "{}", e.meta.issuer_org);
        }
    }

    #[test]
    fn injected_defects_are_detected_and_clean_certs_pass() {
        let reg = crate::lint_registry();
        let mut nc_found = 0;
        let mut clean_violations = 0;
        for e in small_corpus(800, 3) {
            let report = reg.run(&e.cert, RunOptions::default()).unwrap();
            match (&e.meta.injected, e.meta.latent) {
                (Some(d), false) => {
                    assert!(
                        report.findings.iter().any(|f| f.lint == d.expected_lint()),
                        "{d:?} not detected: {:?}",
                        report.findings
                    );
                    nc_found += 1;
                }
                (Some(_), true) => {
                    // Latent: invisible when gated...
                    assert!(report.findings.is_empty(), "latent visible: {:?}", report.findings);
                    // ...but visible ungated.
                    let ungated = reg.run(&e.cert, RunOptions::ungated()).unwrap();
                    assert!(!ungated.findings.is_empty());
                }
                (None, _) => {
                    if !report.findings.is_empty() {
                        clean_violations += 1;
                    }
                }
            }
        }
        assert!(nc_found > 0, "no NC certs in an 800-cert sample");
        assert_eq!(clean_violations, 0, "clean certs must lint clean");
    }

    #[test]
    fn overall_nc_rate_near_paper() {
        let reg = crate::lint_registry();
        let corpus = small_corpus(20_000, 42);
        let nc = corpus
            .iter()
            .filter(|e| reg.run(&e.cert, RunOptions::default()).unwrap().is_noncompliant())
            .count();
        let rate = nc as f64 / corpus.len() as f64;
        // Paper: 0.72%. Allow a band.
        assert!((0.003..0.02).contains(&rate), "nc rate {rate}");
    }

    #[test]
    fn precert_twins_carry_poison() {
        let corpus = CorpusGenerator::collect_all(CorpusConfig {
            size: 200,
            seed: 9,
            precert_fraction: 0.5,
            latent_defects: false,
        });
        let pre = corpus.iter().filter(|e| e.meta.is_precert).count();
        assert!(pre > 30, "{pre}");
        for e in &corpus {
            assert_eq!(e.meta.is_precert, e.cert.tbs.is_precertificate());
        }
    }

    #[test]
    fn severity_mix_includes_warnings_and_errors() {
        let reg = crate::lint_registry();
        let mut warnings = 0;
        let mut errors = 0;
        for e in small_corpus(5_000, 11) {
            let report = reg.run(&e.cert, RunOptions::default()).unwrap();
            for f in report.findings {
                match f.severity {
                    Severity::Warning => warnings += 1,
                    Severity::Error => errors += 1,
                }
            }
        }
        assert!(warnings > 0);
        assert!(errors > 0);
    }
}
