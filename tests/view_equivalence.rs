//! Decoder-property suite: [`CertView`] is the workspace's one certificate
//! decoder, and the owned [`Certificate`] is a copy of what it decoded.
//!
//! `Certificate::parse_der` is the view parse followed by
//! [`CertView::to_owned`], and every owned certificate is linted through
//! the view parsed from its `raw`. The suite checks the properties that let
//! every other layer trust that one decoder:
//!
//! - **round trip**: on a fixed-seed 10 000-certificate corpus (the survey
//!   benchmark's generator, latent defects on, precertificates included)
//!   the view parsed from each certificate's DER copies back into exactly
//!   the certificate the builder made; every golden vector
//!   (`tests/vectors/webpki` + `tests/vectors/bimi`) re-encodes from its
//!   owned parse to its own bytes;
//! - **one DER copy**: `raw_tbs()` is the TBS element of `raw` for every
//!   constructor (signed leaf, precertificate twin, `parse_der`, store
//!   decode, CRL);
//! - **RDN shapes**: hand-built subject names in the shapes no corpus or
//!   golden certificate has (a two-attribute RDN, an empty SET, an empty
//!   DN) round trip through the view's flat attribute list;
//! - **records**: the corpus surveyed as generated entries and as store
//!   records gives equal reports;
//! - **budget**: the parse budget charges every TLV the decoder reads, and
//!   runs out one element short;
//! - **extension values**: decoded outside the budget, they are bounded by
//!   the input admission and `MAX_DEPTH`. Two hostile vectors built here
//!   (the longest SAN that fits under the admission limit, a policy
//!   qualifier nested to `MAX_DEPTH`) survey without a panic and give the
//!   same report at one and two threads.

use std::path::PathBuf;
use unicert::corpus::{CorpusConfig, CorpusEntry, CorpusGenerator, RawEntry};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};
use unicert::x509::extensions::parse_extension_value;
use unicert::x509::crl::{CertificateList, RevokedCert, TbsCertList};
use unicert::x509::{
    AttrView, CertView, Certificate, CertificateBuilder, DistinguishedName, Extension,
    ParsedExtension, SimKey,
};
use unicert_asn1::oid::known;
use unicert_asn1::reader::MAX_DEPTH;
use unicert_asn1::tag::tags;
use unicert_asn1::{DateTime, Error, Oid, ParseBudget, Reader, StringKind, Tag, Writer};

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

/// The 10k/seed-42 corpus with latent defects and 5% precertificates.
fn corpus_config() -> CorpusConfig {
    CorpusConfig { size: 10_000, seed: 42, precert_fraction: 0.05, latent_defects: true }
}

#[test]
fn seeded_10k_corpus_views_match_owned() {
    let mut checked = 0usize;
    for (i, entry) in CorpusGenerator::new(corpus_config()).enumerate() {
        let state = ParseBudget::default().start();
        let view = CertView::parse_der_budgeted(&entry.cert.raw, &state)
            .unwrap_or_else(|e| panic!("corpus[{i}]: generated certificate rejected ({e:?})"));
        assert_eq!(view.to_owned(), entry.cert, "corpus[{i}]: round trip");
        checked += 1;
    }
    // Precertificate pairs can push the stream slightly past `size`.
    assert!(checked >= 10_000, "only {checked} certificates checked");
}

/// The TBSCertificate element of a certificate (or CRL) DER: the first
/// element inside the outer SEQUENCE, read independently of the decoder.
fn tbs_element(der: &[u8]) -> &[u8] {
    let outer = unicert_asn1::reader::parse_single(der).expect("one outer SEQUENCE");
    outer.contents().read_tlv().expect("a TBS element").raw
}

/// `raw_tbs()` is a range of `raw`, the one stored copy of the DER: for a
/// signed leaf, a precertificate twin and the `parse_der` of each on the
/// 20k/seed-42 corpus, for every golden vector, and for a built and a
/// parsed CRL.
#[test]
fn raw_tbs_is_the_tbs_element_of_raw_for_every_constructor() {
    let config = CorpusConfig { size: 20_000, ..corpus_config() };
    let (mut leaves, mut twins) = (0usize, 0usize);
    for (i, entry) in CorpusGenerator::new(config).enumerate() {
        let cert = &entry.cert;
        assert_eq!(cert.raw_tbs(), tbs_element(&cert.raw), "corpus[{i}]: signed");
        let parsed = Certificate::parse_der(&cert.raw).expect("generated DER parses");
        assert_eq!(parsed.raw_tbs(), tbs_element(&parsed.raw), "corpus[{i}]: parse_der");
        if entry.meta.is_precert {
            twins += 1;
        } else {
            leaves += 1;
        }
    }
    assert!(leaves >= 20_000 * 9 / 10 && twins > 0, "{leaves} leaves, {twins} twins");
    for profile in ["webpki", "bimi"] {
        for (name, der) in vector_ders(profile) {
            let cert = Certificate::parse_der(&der).expect("golden vector parses");
            assert_eq!(cert.raw_tbs(), tbs_element(&der), "{name}");
        }
    }
    let key = SimKey::from_seed("raw-tbs-crl");
    let tbs = TbsCertList {
        issuer: DistinguishedName::from_attributes(&[(
            known::organization_name(),
            StringKind::Utf8,
            "CRL CA",
        )]),
        this_update: DateTime::date(2024, 6, 1).unwrap(),
        next_update: DateTime::date(2024, 7, 1).unwrap(),
        revoked: (0..200u8)
            .map(|i| RevokedCert {
                serial: vec![i, 1, 2],
                revocation_date: DateTime::date(2024, 5, 1).unwrap(),
            })
            .collect(),
    };
    let built = CertificateList::build(tbs, &key);
    let parsed = CertificateList::parse_der(&built.raw).expect("built CRL parses");
    for crl in [&built, &parsed] {
        assert_eq!(crl.raw_tbs(), tbs_element(&crl.raw));
        assert!(crl.verify(&key));
    }
}

/// Every golden vector of `profile` re-encodes from its owned parse to its
/// own bytes.
fn assert_golden_vectors_round_trip(profile: &str) {
    for (name, der) in vector_ders(profile) {
        let cert = Certificate::parse_der(&der)
            .unwrap_or_else(|e| panic!("{name}: golden vector does not parse ({e:?})"));
        assert_eq!(cert.raw, der, "{name}: raw");
        assert_eq!(cert.to_der(), der, "{name}: re-encodes to its input");
    }
}

#[test]
fn golden_webpki_vectors_views_match_owned() {
    assert_golden_vectors_round_trip("webpki");
}

#[test]
fn golden_bimi_vectors_views_match_owned() {
    assert_golden_vectors_round_trip("bimi");
}

/// The survey reads a generated entry through its `raw` and a store record
/// through its borrowed DER: over the same corpus, the two reports are
/// equal.
#[test]
fn corpus_entries_and_records_survey_identically() {
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(corpus_config()).collect();
    let records: Vec<RawEntry<'_>> =
        corpus.iter().map(|e| RawEntry { der: &e.cert.raw, meta: e.meta.clone() }).collect();
    let opts = SurveyOptions {
        lint: RunOptions { threads: Some(1), ..RunOptions::default() },
        ..SurveyOptions::default()
    };
    let entries = survey::survey(opts.registry(), &corpus, opts, 0);
    let parsed = survey::survey(opts.registry(), &records, opts, 0);
    assert!(entries.precerts_filtered > 0, "the corpus carries precertificates");
    assert!(entries.quarantine.is_empty(), "no generated certificate is quarantined");
    assert_eq!(entries, parsed, "entries and records diverged on the same DER");
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
/// RDN) regroups into an owned tree that re-encodes to the same Name, and
/// answers every DN accessor like the owned `DistinguishedName`, on RDN
/// shapes the corpus never makes.
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
        let view = CertView::parse_der(&der).expect("view parse");
        let cert = view.to_owned();
        let (dv, dn) = (&view.subject, &cert.tbs.subject);

        assert_eq!((dn.rdns.len(), dn.attributes().count()), (rdns, attrs), "{label}: shape");
        assert_eq!(dv.rdn_count, rdns, "{label}: RDN count");
        assert_eq!(dn.to_der(), name, "{label}: the owned Name re-encodes to its bytes");
        assert_eq!(cert.to_der(), der, "{label}: the certificate re-encodes to its bytes");
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
    }
}

/// TLV elements in `der`, descending into constructed elements only: the
/// elements the certificate decoder reads, since it takes extension
/// payloads, key and signature bits, attribute values and algorithm
/// parameters whole. Counted independently of the decoder.
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

/// The parse budget charges every TLV the decoder reads — the version and
/// the whole extension list included — and a budget one element short
/// fails the parse with the element error.
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

/// A certificate DER whose one extension is `oid` with the raw `value`.
fn cert_with_extension(oid: Oid, value: Vec<u8>) -> Vec<u8> {
    CertificateBuilder::new()
        .subject_cn("bound.example")
        .issuer_org("Bound CA")
        .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
        .add_extension(Extension { oid, critical: false, value })
        .build_signed(&SimKey::from_seed("extension-bounds"))
        .to_der()
}

/// A SAN of `n` empty dNSNames: `[2]` with no content, two bytes, the
/// smallest GeneralName there is.
fn minimal_dns_san(n: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_sequence(|w| (0..n).for_each(|_| w.write_tlv(Tag::context(2), &[])));
    w.into_bytes()
}

/// The longest minimal-dNSName SAN whose certificate the survey admits:
/// every TLV is at least two bytes, so the value holds at most 2^19 of
/// them, half the element budget the certificate parse itself gets.
fn longest_admissible_san() -> (Vec<u8>, usize) {
    let limit = ParseBudget::default().max_input;
    // From 40 000 names on, every enclosing length takes its 4-byte form,
    // so each further name adds exactly two bytes.
    let probe = 40_000;
    let base = cert_with_extension(known::subject_alt_name(), minimal_dns_san(probe)).len();
    let n = probe + (limit - base) / 2;
    let der = cert_with_extension(known::subject_alt_name(), minimal_dns_san(n));
    assert!(der.len() <= limit && der.len() + 2 > limit, "{} bytes", der.len());
    (der, n)
}

/// certificatePolicies with one unknown qualifier whose content nests
/// SEQUENCEs until the value's deepest element sits at `MAX_DEPTH`.
fn deep_policy_qualifier() -> Vec<u8> {
    fn nest(w: &mut Writer, levels: usize) {
        if levels > 0 {
            w.write_sequence(|w| nest(w, levels - 1));
        }
    }
    let qualifier = Oid::from_arcs(&[1, 3, 6, 1, 4, 1, 99999, 1]).expect("valid arcs");
    let mut w = Writer::new();
    w.write_sequence(|w| {
        w.write_sequence(|w| {
            w.write_oid(&known::any_policy());
            w.write_sequence(|w| {
                w.write_sequence(|w| {
                    w.write_oid(&qualifier);
                    // Four SEQUENCEs enclose the qualifier content.
                    nest(w, MAX_DEPTH - 4);
                })
            })
        })
    });
    w.into_bytes()
}

/// SEQUENCE nesting depth of what `r` holds, read through `Reader`'s own
/// depth limit.
fn nesting_depth(r: &mut Reader<'_>) -> usize {
    let mut deepest = 0;
    while !r.is_empty() {
        if r.peek_tag() == Some(tags::SEQUENCE) {
            let inner = r.read_sequence(|seq| Ok(nesting_depth(seq))).expect("within MAX_DEPTH");
            deepest = deepest.max(inner + 1);
        } else {
            r.read_tlv().expect("well-formed DER");
        }
    }
    deepest
}

/// Extension values are decoded outside the parse budget, on a fresh
/// `Reader`. The bound that leaves them is the input admission (a value is
/// a slice of an admitted input, so it holds at most 2^19 TLVs) and
/// `MAX_DEPTH` within each value. Both hostile shapes survey through the
/// survey kernel without a panic, and identically at one and two threads.
#[test]
fn hostile_extension_values_stay_within_the_admission_bound() {
    let (san, names) = longest_admissible_san();
    let policies = deep_policy_qualifier();
    assert_eq!(nesting_depth(&mut Reader::new(&policies)), MAX_DEPTH, "qualifier depth");
    let sans = CertView::parse_der(&san).expect("admitted SAN certificate parses");
    let value = sans.extensions.iter().find(|e| e.oid == known::subject_alt_name());
    match value.map(|e| parse_extension_value(&e.oid, e.value)) {
        Some(Ok(ParsedExtension::SubjectAltName(list))) => assert_eq!(list.len(), names),
        other => panic!("SAN value must decode whole: {other:?}"),
    }

    let inputs = vec![san, cert_with_extension(known::certificate_policies(), policies)];
    let report = |threads| {
        let lint = RunOptions { threads: Some(threads), shard_size: 1, ..RunOptions::default() };
        let opts = SurveyOptions { lint, ..SurveyOptions::default() };
        let start = std::time::Instant::now();
        let report = survey::survey(opts.registry(), &inputs, opts, 0);
        let elapsed = start.elapsed();
        println!("{names} dNSNames + MAX_DEPTH qualifier at {threads} thread(s): {elapsed:?}");
        report
    };
    let serial = report(1);
    assert!(serial.quarantine.is_empty(), "{:?}", serial.quarantine);
    assert_eq!(serial.parse_outcomes.get("ok"), Some(&2), "{:?}", serial.parse_outcomes);
    assert_eq!(report(2), serial, "thread count changed the report");
}
