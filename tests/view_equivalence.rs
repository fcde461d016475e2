//! Owned-vs-borrowed equivalence suite: [`CertView`] is a pure
//! representation change.
//!
//! The zero-copy parse path must be *observationally identical* to the
//! owned one — every accessor of a parsed view equals the corresponding
//! [`Certificate`] field, rejected inputs fail with the very same
//! [`Error`] value, and a lint run over a view-backed context produces
//! findings byte-identical to the owned context. Three layers of evidence:
//!
//! - a fixed-seed 10 000-certificate corpus sweep (the survey benchmark's
//!   generator, latent defects on, precertificates included) checking
//!   every accessor, the full-tree [`CertView::to_owned`] bridge, and the
//!   complete default registry on every certificate;
//! - every committed golden vector (`tests/vectors/webpki` +
//!   `tests/vectors/bimi`) through the same assertions;
//! - the committed malformed vectors plus all ten chaos mutation classes
//!   through the borrowed-vs-owned oracle: same accept/reject decision,
//!   same error value, same [`Error::class`] on every input;
//! - hand-built subject names in the RDN shapes no corpus or golden
//!   certificate has (a two-attribute RDN, an empty SET, an empty DN),
//!   for the view's flat attribute list;
//! - the parse budget on every golden vector: both decoders charge every
//!   TLV they read, and run out of a budget one element short with the
//!   same error.
//!
//! Any divergence here means the zero-copy path changed analysis
//! semantics — the perf work's one forbidden failure mode.

use std::path::PathBuf;
use unicert::corpus::{BimiConfig, BimiGenerator, CorpusConfig, CorpusGenerator};
use unicert::lint::{default_registry, LintContext, RunOptions};
use unicert::parsers::differential::run_oracle;
use unicert::x509::{
    AttrView, CertView, Certificate, CertificateBuilder, DistinguishedName, SimKey,
};
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, Error, Oid, ParseBudget, Reader, StringKind, Writer};
use unicert_chaos::{MutationClass, Mutator};

fn vectors_dir(profile: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors").join(profile)
}

/// Every `.der` under one committed vector directory, sorted by name.
fn vector_ders(profile: &str) -> Vec<(String, Vec<u8>)> {
    let dir = vectors_dir(profile);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir)
        .unwrap_or_else(|_| panic!("missing vector dir {}", dir.display()))
    {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "der") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no vectors under {}", dir.display());
    out
}

/// Assert every accessor of the borrowed view against the owned parse of
/// the same DER, field by field, then the whole tree at once.
fn assert_view_matches_owned(label: &str, der: &[u8], cert: &Certificate) {
    let state = ParseBudget::default().start();
    let view = CertView::parse_der_budgeted(der, &state)
        .unwrap_or_else(|e| panic!("{label}: owned parses but view rejects ({e:?})"));

    // TBS scalars.
    assert_eq!(view.version, cert.tbs.version, "{label}: version");
    assert_eq!(view.serial, cert.tbs.serial.as_slice(), "{label}: serial");
    assert_eq!(
        view.tbs_signature_algorithm.to_owned(),
        cert.tbs.signature_algorithm,
        "{label}: tbs signature algorithm"
    );
    assert_eq!(view.validity, cert.tbs.validity, "{label}: validity");

    // Distinguished names: structural equality plus the derived accessors
    // the lints actually call.
    for (which, dn_view, dn) in [
        ("issuer", &view.issuer, &cert.tbs.issuer),
        ("subject", &view.subject, &cert.tbs.subject),
    ] {
        assert_eq!(&dn_view.to_owned(), dn, "{label}: {which} tree");
        assert_eq!(dn_view.is_empty(), dn.is_empty(), "{label}: {which} is_empty");
        assert_eq!(dn_view.common_name(), dn.common_name(), "{label}: {which} cn");
        assert_eq!(dn_view.organization(), dn.organization(), "{label}: {which} org");
        let view_attrs: Vec<_> = dn_view.attributes().map(|a| a.raw_value()).collect();
        let owned_attrs: Vec<_> = dn.attributes().map(|a| a.value.clone()).collect();
        assert_eq!(view_attrs, owned_attrs, "{label}: {which} attributes");
        for (va, oa) in dn_view.attributes().zip(dn.attributes()) {
            assert_eq!(va.oid, oa.oid, "{label}: {which} attr oid");
            assert_eq!(va.display_lossy(), oa.value.display_lossy(), "{label}: {which} attr text");
            assert_eq!(dn_view.count_of(&va.oid), dn.count_of(&va.oid), "{label}: count_of");
        }
    }

    // SPKI.
    assert_eq!(view.spki.to_owned(), cert.tbs.spki, "{label}: spki");
    assert_eq!(
        view.spki.public_key_unused_bits, cert.tbs.spki.public_key.unused_bits,
        "{label}: spki unused bits"
    );
    assert_eq!(
        view.spki.public_key,
        cert.tbs.spki.public_key.bytes.as_slice(),
        "{label}: spki key bytes"
    );

    // Extensions: frame fields, lazy parse results, and lookup.
    assert_eq!(view.extensions.len(), cert.tbs.extensions.len(), "{label}: ext count");
    for (ve, oe) in view.extensions.iter().zip(&cert.tbs.extensions) {
        assert_eq!(ve.oid, oe.oid, "{label}: ext oid");
        assert_eq!(ve.critical, oe.critical, "{label}: ext critical");
        assert_eq!(ve.value, oe.value.as_slice(), "{label}: ext value");
        assert_eq!(ve.parse().ok(), oe.parse().ok(), "{label}: ext parse");
        assert_eq!(
            view.extension(&ve.oid).map(|e| e.value),
            cert.tbs.extension(&ve.oid).map(|e| e.value.as_slice()),
            "{label}: ext lookup"
        );
    }
    assert_eq!(
        view.is_precertificate(),
        cert.tbs.is_precertificate(),
        "{label}: precert poison"
    );

    // Signature and raw spans.
    assert_eq!(
        view.signature_algorithm.to_owned(),
        cert.signature_algorithm,
        "{label}: signature algorithm"
    );
    assert_eq!(
        view.signature_unused_bits, cert.signature.unused_bits,
        "{label}: signature unused bits"
    );
    assert_eq!(view.signature, cert.signature.bytes.as_slice(), "{label}: signature bytes");
    assert_eq!(view.raw_tbs, cert.raw_tbs.as_slice(), "{label}: raw_tbs");
    assert_eq!(view.raw, cert.raw.as_slice(), "{label}: raw");

    // The whole tree at once, through the bridge the survey's lazy
    // materialization uses.
    assert_eq!(&view.to_owned(), cert, "{label}: to_owned tree");

    // And the end-to-end consumer: a full default-registry run over a
    // view-backed context is byte-identical to the owned context.
    let registry = default_registry();
    let owned_findings = registry.run_ctx(&LintContext::new(cert), RunOptions::default());
    let view_findings =
        registry.run_ctx(&LintContext::from_view(&view), RunOptions::default());
    assert_eq!(view_findings.findings, owned_findings.findings, "{label}: lint findings");
}

#[test]
fn seeded_10k_corpus_views_match_owned() {
    let corpus = CorpusGenerator::new(CorpusConfig {
        size: 10_000,
        seed: 42,
        precert_fraction: 0.05,
        latent_defects: true,
    });
    let mut checked = 0usize;
    for (i, entry) in corpus.enumerate() {
        // Full accessor + registry sweep on a deterministic sample (the
        // registry run dominates); every certificate still gets the parse
        // and full-tree comparison.
        let der = &entry.cert.raw;
        let cert = Certificate::parse_der(der).expect("generated cert reparses");
        if i % 100 == 0 {
            assert_view_matches_owned(&format!("corpus[{i}]"), der, &cert);
        } else {
            let state = ParseBudget::default().start();
            let view = CertView::parse_der_budgeted(der, &state).expect("view parses");
            assert_eq!(view.to_owned(), cert, "corpus[{i}]: to_owned tree");
        }
        checked += 1;
    }
    // Precertificate pairs can push the stream slightly past `size`.
    assert!(checked >= 10_000, "only {checked} certificates checked");
}

#[test]
fn golden_webpki_vectors_views_match_owned() {
    for (name, der) in vector_ders("webpki") {
        let cert = Certificate::parse_der(&der)
            .unwrap_or_else(|e| panic!("{name}: golden vector does not parse ({e:?})"));
        assert_view_matches_owned(&name, &der, &cert);
    }
}

#[test]
fn golden_bimi_vectors_views_match_owned() {
    for (name, der) in vector_ders("bimi") {
        let cert = Certificate::parse_der(&der)
            .unwrap_or_else(|e| panic!("{name}: golden vector does not parse ({e:?})"));
        assert_view_matches_owned(&name, &der, &cert);
    }
}

/// Both parsers must reject a malformed input with the *same* error value
/// (and therefore the same [`Error::class`]).
#[test]
fn malformed_vectors_reject_identically() {
    let budget = ParseBudget::default();
    let mut rejected = 0usize;
    for (name, der) in vector_ders("malformed") {
        let owned = Certificate::parse_der_budgeted(&der, &budget);
        let state = budget.start();
        let viewed = CertView::parse_der_budgeted(&der, &state);
        match (&owned, &viewed) {
            (Ok(_), Ok(_)) => {}
            (Err(eo), Err(ev)) => {
                assert_eq!(eo, ev, "{name}: error values differ");
                assert_eq!(
                    Error::class(eo),
                    Error::class(ev),
                    "{name}: error classes differ"
                );
                rejected += 1;
            }
            _ => panic!(
                "{name}: parsers disagree on acceptance (owned {:?}, view {:?})",
                owned.as_ref().map(|_| ()),
                viewed.as_ref().map(|_| ())
            ),
        }
    }
    assert!(rejected > 0, "malformed vectors exercised no rejection at all");
}

/// All ten chaos mutation classes over a mixed webpki+bimi seed corpus,
/// through the harness's borrowed-vs-owned oracle: zero disagreements,
/// zero escaped panics.
#[test]
fn chaos_mutants_agree_across_parsers() {
    let seed = 42u64;
    let mut base: Vec<Vec<u8>> = CorpusGenerator::new(CorpusConfig {
        size: 150,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .map(|e| e.cert.raw)
    .collect();
    base.extend(
        BimiGenerator::new(BimiConfig { size: 40, seed, ..BimiConfig::default() })
            .map(|e| e.cert.raw),
    );
    let budget = ParseBudget::default();
    for (class_idx, class) in MutationClass::ALL.into_iter().enumerate() {
        let mut mutator = Mutator::new(seed.wrapping_add(class_idx as u64));
        let hostile: Vec<Vec<u8>> = base.iter().map(|der| mutator.mutate(der, class)).collect();
        let report = run_oracle(class.label(), &hostile, &budget);
        assert_eq!(report.escaped_panics, 0, "{}: escaped panics", class.label());
        assert_eq!(
            report.disagreed,
            0,
            "{}: parsers disagreed: {:?}",
            class.label(),
            report.examples
        );
        assert_eq!(report.inputs, base.len(), "{}: inputs", class.label());
    }
}

/// A `Name` written with the asn1 [`Writer`]: one SET per inner slice,
/// holding its `(type, UTF8String text)` attributes in order.
fn name_der(rdns: &[&[(Oid, &str)]]) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_sequence(|w| {
        for rdn in rdns {
            w.write_set(|w| {
                for (oid, text) in rdn.iter() {
                    w.write_sequence(|w| {
                        w.write_oid(oid);
                        w.write_string(StringKind::Utf8, text);
                    });
                }
            });
        }
    });
    w.into_bytes()
}

/// A certificate DER whose subject is exactly the `name` bytes.
fn cert_with_subject(name: &[u8]) -> Vec<u8> {
    let mut cert = CertificateBuilder::new()
        .subject_cn("base.example")
        .issuer_org("Shape CA")
        .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
        .add_dns_san("a.example")
        .build_signed(&SimKey::from_seed("dn-shapes"));
    cert.tbs.subject =
        DistinguishedName::parse(&mut Reader::new(name)).expect("hand-built name parses");
    let der = cert.to_der();
    assert!(
        der.windows(name.len()).any(|w| w == name),
        "the certificate carries the hand-built name verbatim"
    );
    der
}

/// The flat `DnView` (one attribute list, each attribute tagged with its
/// RDN) regroups into the owned tree and answers every DN accessor like
/// the owned `DistinguishedName`, on RDN shapes the corpus never makes.
#[test]
fn flat_dn_view_matches_owned_on_hand_built_rdn_shapes() {
    let (c, cn, o, ou) = (
        known::country_name(),
        known::common_name(),
        known::organization_name(),
        known::organizational_unit(),
    );
    let shapes = [
        (
            "two-attribute RDN",
            name_der(&[
                &[(c.clone(), "DE")],
                &[(cn.clone(), "a.example"), (o.clone(), "Org")],
                &[(ou.clone(), "Unit")],
            ]),
            (3, 4),
        ),
        (
            "empty SET between attributes",
            name_der(&[
                &[(cn.clone(), "a.example")],
                &[],
                &[(o.clone(), "Org"), (cn.clone(), "b")],
            ]),
            (3, 3),
        ),
        ("a lone empty SET", name_der(&[&[]]), (1, 0)),
        ("empty DN", name_der(&[]), (0, 0)),
    ];
    for (label, name, (rdns, attrs)) in shapes {
        let der = cert_with_subject(&name);
        let cert = Certificate::parse_der(&der).expect("owned parse");
        let view = CertView::parse_der(&der).expect("view parse");
        let (dv, dn) = (&view.subject, &cert.tbs.subject);

        assert_eq!((dn.rdns.len(), dn.attributes().count()), (rdns, attrs), "{label}: shape");
        assert_eq!(dv.rdn_count, dn.rdns.len(), "{label}: RDN count");
        assert_eq!(&dv.to_owned(), dn, "{label}: to_owned regroups");
        assert_eq!(dv.is_empty(), dn.is_empty(), "{label}: is_empty");
        assert_eq!(dv.is_empty(), rdns == 0, "{label}: an empty SET is an RDN");
        let view_order: Vec<_> = dv.attributes().map(|a| (a.oid.clone(), a.raw_value())).collect();
        let owned_order: Vec<_> =
            dn.attributes().map(|a| (a.oid.clone(), a.value.clone())).collect();
        assert_eq!(view_order, owned_order, "{label}: attribute order");
        for oid in [&c, &cn, &o, &ou, &known::street_address()] {
            assert_eq!(dv.count_of(oid), dn.count_of(oid), "{label}: count_of {oid:?}");
            assert_eq!(
                dv.first_value(oid).map(AttrView::raw_value).as_ref(),
                dn.first_value(oid),
                "{label}: first_value {oid:?}"
            );
        }
        assert_view_matches_owned(label, &der, &cert);
    }
}

/// TLV elements in `der`, descending into constructed elements only: the
/// elements the certificate parsers decode, since they read extension
/// payloads, key and signature bits, attribute values and algorithm
/// parameters whole. Counted independently of either parser.
fn recursive_tlv_count(der: &[u8]) -> u64 {
    let mut r = Reader::new(der);
    let mut count = 0;
    while !r.is_empty() {
        let tlv = r.read_tlv().expect("golden vectors are well-formed DER");
        count += 1;
        if tlv.tag.constructed {
            count += recursive_tlv_count(tlv.value);
        }
    }
    count
}

/// The parse budget charges every TLV either decoder reads — the version
/// and the whole extension list included — and both decoders run out of
/// it at the same element with the same error.
#[test]
fn parse_budget_charges_every_tlv_on_golden_vectors() {
    for profile in ["webpki", "bimi"] {
        for (name, der) in vector_ders(profile) {
            // The TBS header is read twice: as an element of the outer
            // SEQUENCE, and again by the reader over the raw TBS.
            let expected = recursive_tlv_count(&der) + 1;
            let state = ParseBudget::default().start();
            CertView::parse_der_budgeted(&der, &state).expect("golden vector parses");
            assert_eq!(state.elements_used(), expected, "{name}: elements charged");

            let exact = ParseBudget { max_elements: expected, ..ParseBudget::default() };
            assert!(
                Certificate::parse_der_budgeted(&der, &exact).is_ok(),
                "{name}: owned at limit"
            );
            assert!(
                CertView::parse_der_budgeted(&der, &exact.start()).is_ok(),
                "{name}: view at limit"
            );

            let short = ParseBudget { max_elements: expected - 1, ..ParseBudget::default() };
            let owned = Certificate::parse_der_budgeted(&der, &short).unwrap_err();
            let viewed = CertView::parse_der_budgeted(&der, &short.start()).unwrap_err();
            assert_eq!(owned, Error::BudgetExceeded { resource: "elements" }, "{name}: owned");
            assert_eq!(viewed, owned, "{name}: view error");
        }
    }
}
