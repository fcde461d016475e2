//! Differential fuzzing harness: hostile DER × nine library profiles.
//!
//! The fuzz entry point of this crate. Callers hand the harness a batch of
//! (possibly mutated) DER blobs under a label; [`run_class`] drives every
//! blob through the budgeted certificate parser, extracts each string
//! value the paper's nine-field study covers, and replays every value
//! against every [`LibraryProfile`] under a panic guard. The result is a
//! ParsEval-style [`ClassMatrix`]: per-profile outcome tallies, the count
//! of values on which the supporting libraries disagreed, and the escaped
//! panic count (which callers assert to be zero — the contract of the
//! whole chaos pipeline).
//!
//! [`run_class_sharded`] is the same computation fanned out over scoped
//! worker threads. Shards are merged in input order and every tally is a
//! plain sum over independent inputs, so the sharded matrix is
//! byte-identical to the serial one at any thread count — the determinism
//! invariant `bench_differential` and `tests/differential.rs` enforce.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use unicert_asn1::{ParseBudget, StringKind};
use unicert_x509::{Certificate, GeneralName, ParsedExtension, RawValue};

use crate::context::{Field, ParseOutcome};
use crate::profiles::{all_profiles, LibraryProfile};

/// Per-profile outcome tallies for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCell {
    /// Values the library surfaced as text.
    pub text: usize,
    /// Values the library rejected with a parse error.
    pub error: usize,
    /// Values in fields or string kinds the library's APIs cannot surface
    /// (the `-` cells of Tables 4/12/13).
    pub unsupported: usize,
}

impl ProfileCell {
    fn absorb(&mut self, other: &ProfileCell) {
        self.text += other.text;
        self.error += other.error;
        self.unsupported += other.unsupported;
    }
}

/// The divergence matrix for one labelled batch (typically one chaos
/// mutation class).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassMatrix {
    /// The batch label (mutation-class name).
    pub label: String,
    /// Inputs examined.
    pub inputs: usize,
    /// Inputs the budgeted parser rejected — no values to replay.
    pub unparsed: usize,
    /// String values extracted across all parsed inputs.
    pub values: usize,
    /// Per-profile tallies, keyed by library name (BTreeMap for a stable
    /// print order).
    pub cells: BTreeMap<&'static str, ProfileCell>,
    /// Values on which at least two supporting libraries returned
    /// different outcomes (error messages compared by category, not text).
    pub divergent: usize,
    /// Panics that crossed a profile or parser call. The invariant the
    /// harness exists to check: this must be zero.
    pub escaped_panics: usize,
}

impl ClassMatrix {
    fn new(label: &str) -> ClassMatrix {
        let mut cells = BTreeMap::new();
        for p in all_profiles() {
            cells.insert(p.name(), ProfileCell::default());
        }
        ClassMatrix { label: label.to_owned(), cells, ..ClassMatrix::default() }
    }

    /// Fold another shard of the same batch into this one. Tallies are
    /// sums over independent inputs, so folding in input order reproduces
    /// the serial matrix exactly.
    pub fn absorb(&mut self, other: &ClassMatrix) {
        debug_assert_eq!(self.label, other.label);
        self.inputs += other.inputs;
        self.unparsed += other.unparsed;
        self.values += other.values;
        for (name, cell) in &other.cells {
            self.cells.entry(name).or_default().absorb(cell);
        }
        self.divergent += other.divergent;
        self.escaped_panics += other.escaped_panics;
    }
}

/// One extracted string value: where it sat, its wire kind, its bytes.
/// Owns its bytes — extension values come out of transient
/// [`Extension::parse`] results, so borrowing is not an option.
struct ExtractedValue {
    field: Field,
    kind: StringKind,
    bytes: Vec<u8>,
}

fn extracted(field: Field, value: &RawValue) -> ExtractedValue {
    // Values under a tag no string type owns (mutated tags land here) are
    // replayed under the wire default for the context: IA5 in
    // GeneralNames, UTF-8 in names — the fallback real libraries apply.
    let fallback = if field.is_name() { StringKind::Utf8 } else { StringKind::Ia5 };
    let kind = StringKind::from_tag_number(value.tag_number).unwrap_or(fallback);
    ExtractedValue { field, kind, bytes: value.bytes.clone() }
}

/// Every string value of the parsed certificate the nine-field study
/// covers, in wire order.
fn extract_values(cert: &Certificate) -> Vec<ExtractedValue> {
    let mut out = Vec::new();
    for attr in cert.tbs.subject.attributes() {
        out.push(extracted(Field::SubjectDn, &attr.value));
    }
    for attr in cert.tbs.issuer.attributes() {
        out.push(extracted(Field::IssuerDn, &attr.value));
    }
    for ext in &cert.tbs.extensions {
        match ext.parse() {
            Ok(ParsedExtension::SubjectAltName(names)) => {
                // SAN is the only GeneralNames context split by form.
                for name in &names {
                    match name {
                        GeneralName::DnsName(v) => out.push(extracted(Field::SanDns, v)),
                        GeneralName::Rfc822Name(v) => out.push(extracted(Field::SanEmail, v)),
                        GeneralName::Uri(v) => out.push(extracted(Field::SanUri, v)),
                        _ => {}
                    }
                }
            }
            Ok(ParsedExtension::IssuerAltName(names)) => {
                for name in &names {
                    match name {
                        GeneralName::DnsName(v)
                        | GeneralName::Rfc822Name(v)
                        | GeneralName::Uri(v) => out.push(extracted(Field::Ian, v)),
                        _ => {}
                    }
                }
            }
            Ok(ParsedExtension::AuthorityInfoAccess(descs)) => {
                for d in &descs {
                    if let GeneralName::Uri(v) = &d.location {
                        out.push(extracted(Field::AiaUri, v));
                    }
                }
            }
            Ok(ParsedExtension::SubjectInfoAccess(descs)) => {
                for d in &descs {
                    if let GeneralName::Uri(v) = &d.location {
                        out.push(extracted(Field::SiaUri, v));
                    }
                }
            }
            Ok(ParsedExtension::CrlDistributionPoints(points)) => {
                for p in &points {
                    for name in &p.full_names {
                        if let GeneralName::Uri(v) = name {
                            out.push(extracted(Field::CrldpUri, v));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Outcome identity for divergence counting: texts compare by content,
/// errors compare as a category (each library words its diagnostics
/// differently by design — that is not a divergence).
#[derive(PartialEq, Eq)]
enum OutcomeKey {
    Text(String),
    Error,
}

/// Drive one batch of DER blobs through the budgeted parser and all nine
/// profiles, serially.
pub fn run_class(label: &str, ders: &[Vec<u8>], budget: &ParseBudget) -> ClassMatrix {
    run_slice(label, ders, budget, &all_profiles())
}

fn run_slice(
    label: &str,
    ders: &[Vec<u8>],
    budget: &ParseBudget,
    profiles: &[Box<dyn LibraryProfile>],
) -> ClassMatrix {
    let mut matrix = ClassMatrix::new(label);
    matrix.inputs = ders.len();
    for der in ders {
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            Certificate::parse_der_budgeted(der, budget).ok()
        }));
        let cert = match parsed {
            Ok(Some(cert)) => cert,
            Ok(None) => {
                matrix.unparsed += 1;
                continue;
            }
            Err(_) => {
                matrix.escaped_panics += 1;
                matrix.unparsed += 1;
                continue;
            }
        };
        for value in extract_values(&cert) {
            matrix.values += 1;
            let mut keys: Vec<OutcomeKey> = Vec::with_capacity(profiles.len());
            for p in profiles {
                let cell = matrix.cells.entry(p.name()).or_default();
                if !p.supports(value.field) || !p.supports_kind(value.kind, value.field) {
                    cell.unsupported += 1;
                    continue;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    p.parse_value(value.kind, &value.bytes, value.field)
                }));
                match outcome {
                    Ok(ParseOutcome::Text(t)) => {
                        cell.text += 1;
                        keys.push(OutcomeKey::Text(t));
                    }
                    Ok(ParseOutcome::Error(_)) => {
                        cell.error += 1;
                        keys.push(OutcomeKey::Error);
                    }
                    Err(_) => {
                        matrix.escaped_panics += 1;
                    }
                }
            }
            if keys.windows(2).any(|w| w[0] != w[1]) {
                matrix.divergent += 1;
            }
        }
    }
    matrix
}

/// The sharded variant: split the batch into contiguous chunks, run each
/// on a scoped worker thread, and fold the shard matrices back together in
/// input order. Produces a matrix byte-identical to [`run_class`] at any
/// `threads` value.
pub fn run_class_sharded(
    label: &str,
    ders: &[Vec<u8>],
    budget: &ParseBudget,
    threads: usize,
) -> ClassMatrix {
    let threads = threads.max(1);
    if threads == 1 || ders.len() < 2 {
        return run_class(label, ders, budget);
    }
    let chunk = ders.len().div_ceil(threads);
    let shards: Vec<ClassMatrix> = std::thread::scope(|scope| {
        let handles: Vec<_> = ders
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || run_slice(label, slice, budget, &all_profiles()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("differential shard panicked")).collect()
    });
    let mut merged = ClassMatrix::new(label);
    for shard in &shards {
        merged.absorb(shard);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::oid::known;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, SimKey};

    fn sample_ders() -> Vec<Vec<u8>> {
        let key = SimKey::from_seed("differential-harness-test");
        (0..6u8)
            .map(|i| {
                CertificateBuilder::new()
                    .serial(&[0x01, i + 1])
                    .subject_attr(known::organization_name(), StringKind::Utf8, "Beispiel GmbH")
                    .subject_cn(&format!("host{i}.example"))
                    .add_dns_san(&format!("host{i}.example"))
                    .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
                    .build_signed(&key)
                    .raw
            })
            .collect()
    }

    #[test]
    fn clean_certs_extract_values_for_every_profile() {
        let ders = sample_ders();
        let m = run_class("clean", &ders, &ParseBudget::default());
        assert_eq!(m.inputs, 6);
        assert_eq!(m.unparsed, 0);
        assert_eq!(m.escaped_panics, 0);
        assert!(m.values > 0);
        assert_eq!(m.cells.len(), 9);
        // Every profile either handled or declined every value.
        for (name, cell) in &m.cells {
            assert_eq!(
                cell.text + cell.error + cell.unsupported,
                m.values,
                "{name} tallies do not cover all values"
            );
        }
    }

    #[test]
    fn garbage_is_counted_as_unparsed_not_a_crash() {
        let ders = vec![vec![0xde, 0xad, 0xbe, 0xef], Vec::new(), vec![0x30, 0x03, 0x01, 0x01, 0xff]];
        let m = run_class("garbage", &ders, &ParseBudget::default());
        assert_eq!(m.inputs, 3);
        assert_eq!(m.unparsed, 3);
        assert_eq!(m.values, 0);
        assert_eq!(m.escaped_panics, 0);
    }

    #[test]
    fn sharded_matrix_is_byte_identical_to_serial() {
        let mut ders = sample_ders();
        ders.push(vec![0x00; 7]); // one unparseable straggler
        let budget = ParseBudget::default();
        let serial = run_class("mix", &ders, &budget);
        for threads in [1usize, 2, 3, 4, 8] {
            let sharded = run_class_sharded("mix", &ders, &budget, threads);
            assert_eq!(serial, sharded, "threads={threads}");
        }
    }
}
