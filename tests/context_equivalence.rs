//! Context-equivalence suite: the memoized [`LintContext`] is a pure cache.
//!
//! Every cached accessor must return exactly what the direct, uncached
//! reference extractors in `unicert::lint::helpers` compute from the bare
//! certificate, and `Registry::run_ctx` against a caller-built (and even
//! pre-warmed) context must produce findings byte-identical to
//! `Registry::run`. Two layers of evidence:
//!
//! - property tests over builder-assembled certificates carrying arbitrary
//!   attribute bytes, SAN mixes, and string kinds;
//! - a fixed-seed 10 000-certificate corpus sweep (the same generator the
//!   survey benchmarks use, latent defects on), checking every accessor and
//!   the full registry on every certificate.
//!
//! The per-value facts get the same treatment: the stored character
//! classes equal `helpers::free_of` with each class's predicate, the label
//! shape equals its `split('.')` definitions, `ace_labels` equals
//! `any_ace_label` for the four catalog predicates, `attr_vals` (with its
//! absent-type shortcut) equals the linear filter, and the single-pass
//! `label_info` equals the two-decode pipeline it replaced, field for field.
//!
//! A cached value keeps one buffer: the wire text itself when the octets
//! already are it, else the octets with a lazy decode. The value checker
//! runs over both forms, and a fixed certificate holds values of each
//! (BMPString, UniversalString, Latin-1 TeletexString and invalid UTF-8
//! among the decoded ones).
//!
//! Any divergence here means the cache changed analysis semantics — the
//! perf work's one forbidden failure mode.

use std::collections::BTreeSet;
use std::path::PathBuf;

use proptest::prelude::*;
use unicert::asn1::oid::known;
use unicert::asn1::{DateTime, Oid, StringKind};
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::idna::label::{self, has_ace_prefix, ALabelStatus, LabelError};
use unicert::idna::punycode;
use unicert::lint::context::{CachedVal, LabelInfo};
use unicert::lint::facts::{CharClasses, LabelShape};
use unicert::lint::helpers::{self, Which};
use unicert::lint::{default_registry, LintContext, RunOptions};
use unicert::unicode::classify;
use unicert::x509::{CertView, Certificate, CertificateBuilder, GeneralName, RawValue, SimKey};

fn raws(vals: &[CachedVal]) -> Vec<RawValue> {
    vals.iter().map(|v| v.raw().clone()).collect()
}

/// The `LabelInfo::compute` the single pass replaced: `a_to_u`, then a
/// second decode of the lowercased payload, then `is_nfc`.
fn reference_label_info(label: &str) -> LabelInfo {
    let ldh_ok = label::validate_ldh(label).is_ok() && has_ace_prefix(label);
    let converted = label::a_to_u(label);
    let status = if !ldh_ok {
        ALabelStatus::NotALabel
    } else {
        match &converted {
            Ok(_) => ALabelStatus::Valid,
            Err(LabelError::UnconvertibleALabel(_)) | Err(LabelError::EmptyAcePayload) => {
                ALabelStatus::Unconvertible
            }
            Err(LabelError::RoundTripMismatch) => ALabelStatus::NonCanonical,
            Err(_) => ALabelStatus::DisallowedContent,
        }
    };
    let non_nfc = match &converted {
        Err(LabelError::NotNfc) => true,
        _ => label
            .get(4..)
            .and_then(|payload| punycode::decode(&payload.to_ascii_lowercase()).ok())
            .is_some_and(|u| !unicert::unicode::nfc::is_nfc(&u)),
    };
    let roundtrip_mismatch = matches!(converted, Err(LabelError::RoundTripMismatch));
    LabelInfo { status, non_nfc, roundtrip_mismatch }
}

/// The four ACE-label predicates the catalog asks (T1 a2u and malformed
/// Unicode, T2 NFC and round trip).
const ACE_PREDICATES: [fn(LabelInfo) -> bool; 4] = [
    |i| i.status == ALabelStatus::DisallowedContent,
    |i| matches!(i.status, ALabelStatus::Unconvertible | ALabelStatus::NonCanonical),
    |i| i.non_nfc,
    |i| i.roundtrip_mismatch,
];

/// A character class and the predicate that defines it.
type ClassDefinition = (CharClasses, fn(char) -> bool);

/// Each character class with the predicate the checks used to scan for.
fn class_definitions() -> [ClassDefinition; 8] {
    [
        (CharClasses::NUL, |c| c == '\u{0}'),
        (CharClasses::CONTROL, classify::is_control),
        (CharClasses::SPACE, |c| c == ' '),
        (CharClasses::BIDI_CONTROL, classify::is_bidi_control),
        (CharClasses::ZERO_WIDTH, classify::is_zero_width),
        (CharClasses::NONSTANDARD_WHITESPACE, classify::is_nonstandard_whitespace),
        (CharClasses::NON_ASCII, |c| !c.is_ascii()),
        (CharClasses::NON_DNS, |c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '*'))),
    ]
}

/// Attribute types to ask `attr_vals` for, present or not: X.520 arcs
/// below and above 64, one past the one-octet arcs, and non-X.520 types.
fn attribute_types() -> Vec<Oid> {
    [
        "2.5.4.3", "2.5.4.4", "2.5.4.5", "2.5.4.6", "2.5.4.7", "2.5.4.8", "2.5.4.9", "2.5.4.10",
        "2.5.4.11", "2.5.4.12", "2.5.4.15", "2.5.4.17", "2.5.4.42", "2.5.4.46", "2.5.4.65",
        "2.5.4.127", "2.5.4.128", "2.5.4.300", "2.5.5.3", "1.2.840.113549.1.9.1",
        "0.9.2342.19200300.100.1.25", "1.3.6.1.4.1.311.60.2.1.3", "1.3.6.1.4.1.53087.1.13",
    ]
    .iter()
    .map(|d| Oid::from_dotted(d).expect("valid dotted OID"))
    .collect()
}

/// The stored facts of one value against their scanning definitions.
fn assert_facts_match_definitions(v: &CachedVal) {
    for (class, bad) in class_definitions() {
        assert_eq!(helpers::free_of_class(v, class), helpers::free_of(v, bad), "{class:?}");
    }
    let shape = v.label_shape();
    let Some(text) = v.wire_text() else {
        assert_eq!(shape, LabelShape::default(), "undecodable shape");
        return;
    };
    let labels: Vec<&str> = text.split('.').collect();
    assert_eq!(shape.longest_label, labels.iter().map(|l| l.len()).max().unwrap_or(0), "{text:?}");
    assert_eq!(shape.empty_label, labels.iter().any(|l| l.is_empty()), "{text:?}");
    assert_eq!(
        shape.hyphen_edge,
        labels.iter().any(|l| l.starts_with('-') || l.ends_with('-')),
        "{text:?}"
    );
}

/// Assert every cached accessor of one certificate against its direct,
/// uncached oracle. Each accessor is exercised twice so the second (cached)
/// read is covered as well as the first (computing) one.
fn assert_context_matches_direct(cert: &Certificate) {
    let view = CertView::parse_der(&cert.raw).unwrap();
    let ctx = LintContext::from_view(&view);
    for _ in 0..2 {
        // Parsed-extension name lists.
        assert_eq!(ctx.san(), helpers::san(cert).as_slice(), "san");
        assert_eq!(ctx.ian(), helpers::ian(cert).as_slice(), "ian");
        assert_eq!(raws(ctx.san_dns()), helpers::san_dns_values(cert), "san_dns");
        assert_eq!(
            raws(ctx.san_rfc822()),
            helpers::san_values(cert, |n| match n {
                GeneralName::Rfc822Name(v) => Some(v.clone()),
                _ => None,
            }),
            "san_rfc822"
        );
        assert_eq!(
            raws(ctx.san_uri()),
            helpers::san_values(cert, |n| match n {
                GeneralName::Uri(v) => Some(v.clone()),
                _ => None,
            }),
            "san_uri"
        );
        assert_eq!(
            raws(ctx.aia_uris()),
            helpers::access_uris(cert, &known::authority_info_access()),
            "aia_uris"
        );
        assert_eq!(
            raws(ctx.sia_uris()),
            helpers::access_uris(cert, &known::subject_info_access()),
            "sia_uris"
        );
        assert_eq!(raws(ctx.crldp_uris()), helpers::crldp_uris(cert), "crldp_uris");
        assert_eq!(raws(ctx.explicit_texts()), helpers::explicit_texts(cert), "explicit_texts");

        // DN attributes: same order, same types, same raw bytes.
        for which in [Which::Subject, Which::Issuer] {
            let direct: Vec<_> = helpers::dn(cert, which)
                .attributes()
                .map(|a| (a.oid.clone(), a.value.clone()))
                .collect();
            let cached: Vec<_> =
                ctx.dn_attrs(which).iter().map(|a| (a.oid.clone(), a.val.raw().clone())).collect();
            assert_eq!(direct, cached, "dn_attrs {which:?}");
            for attr in ctx.dn_attrs(which) {
                let per_oid: Vec<RawValue> =
                    ctx.attr_vals(which, &attr.oid).map(|v| v.raw()).collect();
                assert_eq!(
                    per_oid.iter().collect::<Vec<_>>(),
                    helpers::attr_values(cert, which, &attr.oid),
                    "attr_vals"
                );
            }
        }

        // Per-value memoized verdicts against a fresh computation.
        for v in ctx
            .dn_attrs(Which::Subject)
            .iter()
            .map(|a| &a.val)
            .chain(ctx.san_dns())
            .chain(ctx.explicit_texts())
        {
            assert_eq!(v.bytes(), v.raw().bytes.as_slice(), "bytes");
            assert_eq!(v.kind(), v.raw().kind(), "kind");
            assert_eq!(v.wire_text(), v.raw().decode_wire().ok().as_deref(), "wire_text");
            assert_eq!(v.strict_ok(), v.raw().decode_strict().is_ok(), "strict_ok");
            let direct_nfc = match v.raw().decode_wire() {
                Ok(t) => unicert::unicode::nfc::is_nfc(&t),
                Err(_) => true,
            };
            assert_eq!(v.text_is_nfc(), direct_nfc, "text_is_nfc");
        }

        // DNS-label cache against the uncached IDNA pipeline and the
        // two-decode reference.
        for v in ctx.san_dns() {
            let Some(text) = v.wire_text() else { continue };
            for label in text.split('.') {
                assert_eq!(
                    ctx.label_info(label).status,
                    unicert::idna::label::classify_a_label(label),
                    "label_info({label})"
                );
                assert_eq!(ctx.label_info(label), reference_label_info(label), "{label:?}");
            }
        }

        // Per-value facts against the scans they replace.
        let dn_vals = [Which::Subject, Which::Issuer]
            .into_iter()
            .flat_map(|w| ctx.dn_attrs(w))
            .map(|a| &a.val);
        let ext_vals: [&[CachedVal]; 6] = [
            ctx.san_dns(),
            ctx.san_rfc822(),
            ctx.san_uri(),
            ctx.ian_dns(),
            ctx.crldp_uris(),
            ctx.explicit_texts(),
        ];
        for v in dn_vals.chain(ext_vals.into_iter().flatten()) {
            assert_facts_match_definitions(v);
        }

        // Stored ACE-label verdicts against the per-text scan.
        for v in ctx.san_dns().iter().chain(ctx.ian_dns()) {
            for pred in ACE_PREDICATES {
                let direct = v.wire_text().is_some_and(|t| ctx.any_ace_label(t, pred));
                assert_eq!(ctx.ace_labels(v).iter().any(|&i| pred(i)), direct, "ace_labels");
            }
        }

        // attr_vals, absent types included, against the linear filter.
        for which in [Which::Subject, Which::Issuer] {
            for oid in attribute_types() {
                let fast: Vec<RawValue> = ctx.attr_vals(which, &oid).map(|v| v.raw()).collect();
                let linear: Vec<RawValue> = ctx
                    .dn_attrs(which)
                    .iter()
                    .filter(|a| a.oid == oid)
                    .map(|a| a.val.raw())
                    .collect();
                assert_eq!(fast, linear, "attr_vals {which:?} {oid:?}");
                assert_eq!(ctx.count_of(which, &oid), linear.len(), "count_of");
            }
        }
    }
}

/// Run the registry both ways — building its own context, and against a
/// caller context whose caches were already warmed by unrelated accessor
/// traffic — and demand identical findings.
fn assert_registry_runs_identically(cert: &Certificate) {
    let reg = default_registry();
    for opts in [RunOptions::default(), RunOptions::ungated()] {
        let direct = reg.run(&cert.raw, opts).unwrap();
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        // Pre-warm in an order no lint uses; memoization must be inert.
        let _ = ctx.explicit_texts();
        let _ = ctx.dn_attrs(Which::Issuer);
        let _ = ctx.san_dns();
        let via_ctx = reg.run_ctx(&ctx, opts);
        assert_eq!(direct.findings, via_ctx.findings, "run vs run_ctx diverged");
    }
}

proptest! {
    /// Cached accessors equal the direct extraction on certificates with
    /// arbitrary attribute bytes and SAN contents.
    #[test]
    fn cached_accessors_match_direct(
        cn_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        dns in "[ -~]{0,40}",
        email in "[a-z]{1,8}@[a-z]{1,8}\\.[a-z]{2,4}",
        kind in proptest::sample::select(vec![
            StringKind::Utf8, StringKind::Printable, StringKind::Ia5,
            StringKind::Bmp, StringKind::Teletex, StringKind::Numeric,
            StringKind::Universal, StringKind::Visible,
        ]),
    ) {
        let cert = CertificateBuilder::new()
            .subject_attr_raw(known::common_name(), kind, &cn_bytes)
            .add_dns_san(&dns)
            .add_dns_san("xn--mnchen-3ya.de")
            .add_san(GeneralName::Rfc822Name(RawValue::from_text(StringKind::Ia5, &email)))
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("ctx-eq"));
        assert_context_matches_direct(&cert);
    }

    /// The facts, ACE-label lists, label verdicts and attribute lookups equal
    /// their definitions on DNSNames assembled from ACE, hyphenated, empty
    /// and wildcard labels, text mixing every character class, and
    /// subjects of arbitrary attribute types.
    #[test]
    fn per_value_facts_match_definitions(
        labels in proptest::collection::vec(proptest::sample::select(label_pool()), 0..5),
        text in "[a-zA-Z0-9 .*\u{0}\u{1F}\u{7F}\u{85}\u{A0}\u{200B}\u{200D}\u{200E}\u{202E}\u{2066}\u{3000}\u{FEFF}é中-]{0,30}",
        types in proptest::collection::vec(proptest::sample::select(attribute_types()), 0..5),
    ) {
        let dns = labels.join(".");
        let mut builder = CertificateBuilder::new()
            .subject_cn(&text)
            .add_dns_san(&dns)
            .add_dns_san(&text)
            .add_san(GeneralName::Rfc822Name(RawValue::from_text(StringKind::Utf8, &text)))
            .add_san(GeneralName::Uri(RawValue::from_text(StringKind::Utf8, &text)))
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90);
        for oid in types {
            builder = builder.subject_attr(oid, StringKind::Utf8, &dns);
        }
        let cert = builder.build_signed(&SimKey::from_seed("ctx-eq"));
        assert_context_matches_direct(&cert);
        assert_registry_runs_identically(&cert);
    }

    /// The registry's findings are identical whether it builds the context
    /// itself or receives a pre-warmed one.
    #[test]
    fn registry_identical_via_context(
        cn_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        dns in "[ -~]{0,40}",
    ) {
        let cert = CertificateBuilder::new()
            .subject_attr_raw(known::common_name(), StringKind::Utf8, &cn_bytes)
            .add_dns_san(&dns)
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("ctx-eq"));
        assert_registry_runs_identically(&cert);
    }
}

/// DNS labels for the facts proptest: valid, uppercase, disallowed,
/// non-canonical, unconvertible and empty-payload A-labels, plus plain,
/// empty, wildcard and hyphen-edged labels.
fn label_pool() -> Vec<String> {
    let decomposed = format!("xn--{}", punycode::encode("mu\u{308}nchen").unwrap());
    [
        "xn--mnchen-3ya", "XN--MNCHEN-3YA", "xn--www-hn0a", "xn---foo", "xn--99999999999", "xn--",
        "xn--fiqs8s", "xn--tda", "xn--ab_c", "www", "", "*", "-a", "a-", "example",
    ]
    .iter()
    .map(|l| l.to_string())
    .chain([decomposed])
    .collect()
}

/// The labels the single-pass `label_info` must match the reference on,
/// beyond what the corpus and the golden vectors carry.
fn edge_labels() -> Vec<String> {
    let ace = |u: &str| format!("xn--{}", punycode::encode(u).unwrap());
    // A 63-octet A-label: one non-ASCII letter after ASCII filler.
    let long = (40..80)
        .map(|n| ace(&format!("{}ü", "a".repeat(n))))
        .find(|l| l.len() == 63)
        .expect("some filler length encodes to 63 octets");
    vec![
        "XN--MNCHEN-3YA".to_string(),
        "xn--".to_string(),
        "xn--99999999999".to_string(),
        "xn---foo".to_string(),
        "xn--www-hn0a".to_string(),
        ace("mu\u{308}nchen"),
        ace("\u{915}\u{94D}\u{200D}\u{937}"),
        ace("a\u{200D}b"),
        ace("a\u{5E9}"),
        long.clone(),
        format!("{long}a"),
        "xn--mnchen_3ya".to_string(),
        "xn--mün".to_string(),
    ]
}

/// Every ACE-prefixed label in a certificate's DN values and SAN/IAN
/// DNSNames.
fn ace_labels_of(cert: &Certificate, out: &mut BTreeSet<String>) {
    let view = CertView::parse_der(&cert.raw).unwrap();
    let ctx = LintContext::from_view(&view);
    let dn = [Which::Subject, Which::Issuer].into_iter().flat_map(|w| ctx.dn_attrs(w)).map(|a| &a.val);
    for v in dn.chain(ctx.san_dns()).chain(ctx.ian_dns()) {
        if let Some(text) = v.wire_text() {
            out.extend(text.split('.').filter(|l| has_ace_prefix(l)).map(str::to_string));
        }
    }
}

/// The single-pass `label_info` equals the two-decode reference, field for
/// field, on every ACE label of the 20k/seed-42 corpus, of both profiles'
/// golden vectors, and on the edge labels.
#[test]
fn single_pass_label_info_matches_the_reference() {
    let mut labels = BTreeSet::new();
    let config = CorpusConfig { size: 20_000, seed: 42, precert_fraction: 0.0, latent_defects: true };
    for entry in CorpusGenerator::new(config) {
        ace_labels_of(&entry.cert.parse().unwrap(), &mut labels);
    }
    let corpus_labels = labels.len();
    assert!(corpus_labels > 0, "the corpus carries ACE labels");
    let vectors = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors");
    for profile in ["webpki", "bimi"] {
        for entry in std::fs::read_dir(vectors.join(profile)).expect("profile vectors readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "der") {
                let der = std::fs::read(&path).expect("vector readable");
                if let Ok(cert) = Certificate::parse_der(&der) {
                    ace_labels_of(&cert, &mut labels);
                }
            }
        }
    }
    assert!(labels.len() > corpus_labels, "the golden vectors add ACE labels");
    labels.extend(edge_labels());
    let cert = CertificateBuilder::new().build_signed(&SimKey::from_seed("ctx-eq"));
    let view = CertView::parse_der(&cert.raw).unwrap();
    let ctx = LintContext::from_view(&view);
    for label in &labels {
        assert_eq!(ctx.label_info(label), reference_label_info(label), "{label:?}");
        assert_eq!(ctx.label_info(label), reference_label_info(label), "{label:?} cached");
    }
}

/// The fixed-seed corpus sweep: every accessor and the full registry on
/// every certificate of a 10 000-cert survey corpus (latent defects on, so
/// the malformed/IDN/confusable recipes are all represented).
#[test]
fn corpus_sweep_context_equivalence() {
    let config = CorpusConfig { size: 10_000, seed: 42, precert_fraction: 0.0, latent_defects: true };
    let reg = default_registry();
    let opts = RunOptions::default();
    for entry in CorpusGenerator::new(config) {
        let cert = entry.cert.parse().unwrap();
        assert_context_matches_direct(&cert);
        let direct = reg.run(&entry.cert.raw, opts).unwrap();
        let view = CertView::parse_der(&entry.cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        let _ = ctx.san();
        let via_ctx = reg.run_ctx(&ctx, opts);
        assert_eq!(
            direct.findings, via_ctx.findings,
            "serial {:?}: run vs run_ctx diverged",
            cert.tbs.serial
        );
    }
}

/// Does the value hold its octets as their own wire text (the cache's
/// one-buffer text form), rather than octets decoded on demand?
fn stored_as_text(v: &CachedVal) -> bool {
    v.wire_text().map(str::as_bytes) == Some(v.bytes())
}

/// Both storage forms of a cached value through the value checker, the
/// registry, and the `dn_text` miss accounting: each value's first
/// `wire_text` read is its one miss, whichever form it is stored in.
#[test]
fn both_storage_forms_match_direct() {
    let values: [(StringKind, &[u8]); 9] = [
        (StringKind::Utf8, "Müller GmbH".as_bytes()),
        (StringKind::Printable, b"Example Org"),
        (StringKind::Ia5, b"ops@example.com"),
        (StringKind::Bmp, &[0x4E, 0x2D, 0x00, 0x41]),
        (StringKind::Bmp, &[0xD8, 0x00]),
        (StringKind::Universal, &[0x00, 0x01, 0xF6, 0x00]),
        (StringKind::Teletex, &[b'S', b't', 0xF6, b'r']),
        (StringKind::Utf8, &[0xC3, 0x28]),
        (StringKind::Printable, &[b'a', 0xE9]),
    ];
    let mut builder = CertificateBuilder::new()
        .add_dns_san("xn--mnchen-3ya.de")
        .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90);
    for (kind, bytes) in values {
        builder = builder.subject_attr_raw(known::organizational_unit(), kind, bytes);
    }
    let cert = builder.build_signed(&SimKey::from_seed("ctx-eq"));
    assert_context_matches_direct(&cert);
    assert_registry_runs_identically(&cert);

    let view = CertView::parse_der(&cert.raw).unwrap();
    let ctx = LintContext::from_view(&view);
    let attrs = ctx.dn_attrs(Which::Subject);
    let (hits, misses) = ctx.cache_stats().dn_text();
    let forms: Vec<bool> = attrs.iter().map(|a| stored_as_text(&a.val)).collect();
    let reads = attrs.len() as u64;
    assert_eq!(ctx.cache_stats().dn_text(), (hits, misses + reads), "first reads miss");
    for a in attrs {
        a.val.wire_text();
    }
    assert_eq!(ctx.cache_stats().dn_text(), (hits + reads, misses + reads), "then hit");
    assert_eq!(forms.iter().filter(|&&t| t).count(), 3, "text-form values: {forms:?}");
    assert_eq!(forms.iter().filter(|&&t| !t).count(), 6, "decoded values: {forms:?}");
}
