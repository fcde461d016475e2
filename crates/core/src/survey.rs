//! The end-to-end compliance survey pipeline (§4): CT entry →
//! precertificate filter → Unicert classification → linting →
//! aggregation.
//!
//! One [`SurveyReport`] carries everything Tables 1, 2 and 11 and Figures
//! 2, 3 and 4 need.
//!
//! Every input form — a generated [`CorpusEntry`], a store [`RawEntry`],
//! bare bytes — reduces to one [`SurveyInput`]: a certificate's DER plus
//! optional [`CertMeta`]. One function, [`survey`],
//! cuts a slice of inputs into chunks and runs them on the worker pool;
//! [`run`] does the same for a streaming generator. One kernel parses DER
//! once into a [`CertView`] and folds every certificate into the chunk's
//! report.

use crate::classify;
use crate::pool::payload_string;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use unicert_asn1::{DateTime, ParseBudget};
use unicert_corpus::{CertMeta, CorpusEntry, RawEntry, TrustStatus};
use unicert_lint::{NoncomplianceType, RunOptions, Severity};
use unicert_x509::CertView;
#[cfg(doc)]
use unicert_x509::Certificate;

/// Outcome taxonomy for one survey input that carries no metadata (bare
/// bytes, the hostile-input case).
///
/// Every input lands in exactly one class; [`SurveyReport::parse_outcomes`]
/// histograms the classes and the `parse.outcome{class}` telemetry counters
/// mirror them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseOutcome {
    /// Parsed into a certificate view and continued through the pipeline.
    Ok,
    /// Rejected with a structural error; carries the coarse error class
    /// from [`unicert_asn1::Error::class`] (`"truncated"`, `"bad_tag"`,
    /// `"bad_length"`, …).
    Malformed(&'static str),
    /// Rejected because a [`ParseBudget`] resource ran out.
    Oversized,
    /// Rejected because nesting exceeded the reader's depth limit.
    DepthExceeded,
    /// The parser (or metadata inference) panicked; the input was
    /// quarantined instead of taking the process down.
    Quarantined,
}

impl ParseOutcome {
    /// Stable lowercase label for report keys and telemetry.
    pub fn class(&self) -> &'static str {
        match self {
            ParseOutcome::Ok => "ok",
            ParseOutcome::Malformed(class) => class,
            ParseOutcome::Oversized => "oversized",
            ParseOutcome::DepthExceeded => "depth_exceeded",
            ParseOutcome::Quarantined => "quarantined",
        }
    }

    /// Map a parse error into its outcome class.
    pub fn from_error(e: &unicert_asn1::Error) -> ParseOutcome {
        match e {
            unicert_asn1::Error::BudgetExceeded { .. } => ParseOutcome::Oversized,
            unicert_asn1::Error::DepthExceeded { .. } => ParseOutcome::DepthExceeded,
            _ => ParseOutcome::Malformed(e.class()),
        }
    }
}

/// One certificate the pipeline refused to let panic: the stage that blew
/// up was contained with [`catch_unwind`] and the certificate's aggregates
/// were left out of the report (all-or-nothing per certificate — a
/// quarantined cert still counts in `entries`/`total` but contributes to no
/// other aggregate).
///
/// `index` is the zero-based position in the input stream, so quarantine
/// lists from sharded runs merge (in shard order) into exactly the serial
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Zero-based position of the certificate in the input stream.
    pub index: u64,
    /// Certificate identity: lowercase-hex serial number, or `#<index>`
    /// when the input never parsed far enough to have one.
    pub cert_id: String,
    /// Pipeline stage that failed: `"parse"`, `"classify"`, `"lint"`,
    /// `"field_matrix"`, or — for whole shards of a persistent corpus the
    /// store layer could not read back intact — `"store"` (see
    /// [`STAGE_LABELS`]).
    pub stage: &'static str,
    /// Stringified panic payload.
    pub detail: String,
    /// Flight-recorder dump: the worker's last-N pipeline events before the
    /// panic (see `unicert_telemetry::flight`). Deterministic at any thread
    /// count because the ring is cleared per certificate; empty when the
    /// recorder is disabled (`UNICERT_FLIGHT=0`).
    pub flight: Vec<String>,
}

/// The closed set of [`QuarantineEntry::stage`] labels. Checkpoint
/// deserialization (`unicert-store`) re-interns stage strings against this
/// table so a loaded report carries the same `&'static str` values a fresh
/// run would.
pub const STAGE_LABELS: [&str; 5] =
    ["parse", "classify", "lint", "field_matrix", "store"];

/// The closed set of [`SurveyReport::field_matrix`] field labels (Figure 4
/// columns); `field_matrix_marks` counts marks per label in this order.
pub const FIELD_LABELS: [&str; 9] =
    ["CN", "O", "OU", "L", "ST", "STREET", "serialNumber", "SAN", "CP"];

/// The closed set of [`ParseOutcome::class`] labels: `"ok"`, the
/// [`unicert_asn1::Error::class`] taxonomy, and the budget/depth/panic
/// outcome classes.
pub const OUTCOME_CLASSES: [&str; 11] = [
    "ok",
    "truncated",
    "bad_tag",
    "bad_length",
    "trailing_data",
    "depth_exceeded",
    "bad_oid",
    "bad_value",
    "budget",
    "oversized",
    "quarantined",
];

/// Re-intern a runtime string against a closed `&'static str` label table
/// ([`STAGE_LABELS`], [`FIELD_LABELS`], [`OUTCOME_CLASSES`]). Returns
/// `None` for labels outside the table — deserializers treat that as a
/// corrupt record, never as a new label.
pub fn intern_label(
    label: &str,
    table: &'static [&'static str],
) -> Option<&'static str> {
    table.iter().find(|&&t| t == label).copied()
}

/// Pre-resolved per-stage latency histograms for the survey hot loop
/// (`survey.stage_ns{classify|lint|aggregate|field_matrix}`, DESIGN.md §8).
/// Resolved once per shard so recording never takes a registry lookup, and
/// recorded only on the 1-in-`metrics_sample()` certificates that are also
/// lint-latency-timed — the 15-in-16 rest pay no clock reads at all.
struct StageMetrics {
    classify: std::sync::Arc<unicert_telemetry::Histogram>,
    lint: std::sync::Arc<unicert_telemetry::Histogram>,
    aggregate: std::sync::Arc<unicert_telemetry::Histogram>,
    field_matrix: std::sync::Arc<unicert_telemetry::Histogram>,
}

impl StageMetrics {
    fn resolve() -> StageMetrics {
        let registry = unicert_telemetry::global();
        StageMetrics {
            classify: registry.histogram("survey.stage_ns", "classify"),
            lint: registry.histogram("survey.stage_ns", "lint"),
            aggregate: registry.histogram("survey.stage_ns", "aggregate"),
            field_matrix: registry.histogram("survey.stage_ns", "field_matrix"),
        }
    }

}

/// Everything one shard records into while metrics are enabled: the stage
/// histograms plus a [`unicert_lint::RunTally`] batching the per-lint
/// counters. Flushed once per shard so the hot loop touches no global
/// atomics for counting (DESIGN.md §8).
struct ShardTelemetry {
    stages: StageMetrics,
    tally: unicert_lint::RunTally,
}

impl ShardTelemetry {
    fn if_enabled(registry: &unicert_lint::Registry) -> Option<ShardTelemetry> {
        unicert_telemetry::metrics_enabled()
            .then(|| ShardTelemetry { stages: StageMetrics::resolve(), tally: registry.tally() })
    }

    fn flush(telemetry: Option<ShardTelemetry>, registry: &unicert_lint::Registry) {
        if let Some(mut telemetry) = telemetry {
            registry.flush_tally(&mut telemetry.tally);
        }
    }
}

/// Record the time since `*stamp` into `histogram` and advance the stamp —
/// consecutive-timestamp timing, one clock read per stage boundary.
fn stage_mark(
    stamp: &mut Option<Instant>,
    histogram: Option<&std::sync::Arc<unicert_telemetry::Histogram>>,
) {
    if let (Some(started), Some(histogram)) = (stamp.as_mut(), histogram) {
        let now = Instant::now(); // analysis:allow(clock) stage timing feeds telemetry histograms only, never report bytes
        let nanos = now.duration_since(*started).as_nanos();
        histogram.record(u64::try_from(nanos).unwrap_or(u64::MAX));
        *started = now;
    }
}

/// Per-taxonomy-type aggregation (one Table 1 row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeStats {
    /// Unicerts with at least one finding of this type.
    pub certs: usize,
    /// …of which detected (also) by new lints.
    pub by_new_lints: usize,
    /// …with an Error-level finding of this type.
    pub errors: usize,
    /// …with a Warning-level finding of this type.
    pub warnings: usize,
    /// …from publicly trusted issuers.
    pub trusted: usize,
    /// …issued in 2024–2025.
    pub recent: usize,
    /// …still valid in 2024–2025.
    pub alive: usize,
}

/// Per-issuer aggregation (one Table 2 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssuerStats {
    /// Trust status.
    pub trust: TrustStatus,
    /// Total Unicerts.
    pub total: usize,
    /// Noncompliant Unicerts.
    pub noncompliant: usize,
    /// Noncompliant Unicerts issued 2024–2025.
    pub recent_noncompliant: usize,
}

/// Per-year aggregation (the Figure 2 series).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YearStats {
    /// Unicerts issued this year.
    pub issued: usize,
    /// …from trusted issuers.
    pub trusted: usize,
    /// …noncompliant.
    pub noncompliant: usize,
    /// Unicerts *valid during* this year (the "alive" lines).
    pub alive: usize,
    /// Noncompliant Unicerts valid during this year.
    pub alive_noncompliant: usize,
}

/// Validity-period samples per certificate class (Figure 3's CDFs), in
/// whole days.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValiditySamples {
    /// IDNCerts.
    pub idn: Vec<i32>,
    /// Non-IDN Unicerts.
    pub other: Vec<i32>,
    /// Noncompliant Unicerts.
    pub noncompliant: Vec<i32>,
}

/// The survey result.
#[derive(Clone, Default, PartialEq)]
pub struct SurveyReport {
    /// CT entries inspected (including precertificates).
    pub entries: usize,
    /// Precertificates filtered out (§4.1).
    pub precerts_filtered: usize,
    /// Leaf Unicerts analyzed.
    pub total: usize,
    /// IDNCerts among them.
    pub idn_certs: usize,
    /// Unicerts from publicly trusted issuers.
    pub trusted_total: usize,
    /// Noncompliant Unicerts (≥ 1 finding).
    pub noncompliant: usize,
    /// …from publicly trusted issuers.
    pub noncompliant_trusted: usize,
    /// …detected by at least one of the 50 new lints.
    pub noncompliant_by_new_lints: usize,
    /// Per-type stats (Table 1).
    pub by_type: BTreeMap<NoncomplianceType, TypeStats>,
    /// Per-lint firing counts (Table 11).
    pub by_lint: BTreeMap<&'static str, usize>,
    /// Per-issuer stats (Table 2).
    pub by_issuer: BTreeMap<String, IssuerStats>,
    /// Per-year stats (Figure 2).
    pub by_year: BTreeMap<i32, YearStats>,
    /// Validity samples (Figure 3).
    pub validity: ValiditySamples,
    /// (issuer, field) → certificates whose field carries
    /// internationalized content (Figure 4's heat map), alongside how many
    /// of those deviate from the standards.
    pub field_matrix: BTreeMap<(String, &'static str), (usize, usize)>,
    /// Certificates whose processing panicked, contained per cert (stream
    /// order; identical for serial and sharded runs).
    pub quarantine: Vec<QuarantineEntry>,
    /// [`ParseOutcome::class`] → count, for inputs that carry no metadata
    /// (bare bytes); empty for corpus and store runs.
    pub parse_outcomes: BTreeMap<&'static str, usize>,
    /// Compliance profile the report was linted under (`""` until a run
    /// path tags it; the default `webpki` renders invisibly in `Debug` so
    /// pre-profile report fingerprints stay valid).
    pub profile: &'static str,
}

impl std::fmt::Debug for SurveyReport {
    /// Mirrors the derived `Debug` rendering field for field, appending
    /// `profile` only for non-default profiles. The report fingerprint
    /// ([`SurveyReport::fingerprint`]) hashes this rendering, and guarded
    /// baselines (`tests/bench_baseline/`) predate the profile field — a
    /// default-profile report must keep rendering exactly as it did then.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("SurveyReport");
        s.field("entries", &self.entries)
            .field("precerts_filtered", &self.precerts_filtered)
            .field("total", &self.total)
            .field("idn_certs", &self.idn_certs)
            .field("trusted_total", &self.trusted_total)
            .field("noncompliant", &self.noncompliant)
            .field("noncompliant_trusted", &self.noncompliant_trusted)
            .field("noncompliant_by_new_lints", &self.noncompliant_by_new_lints)
            .field("by_type", &self.by_type)
            .field("by_lint", &self.by_lint)
            .field("by_issuer", &self.by_issuer)
            .field("by_year", &self.by_year)
            .field("validity", &self.validity)
            .field("field_matrix", &self.field_matrix)
            .field("quarantine", &self.quarantine)
            .field("parse_outcomes", &self.parse_outcomes);
        if !self.profile.is_empty() && self.profile != unicert_lint::DEFAULT_PROFILE {
            s.field("profile", &self.profile);
        }
        s.finish()
    }
}

/// Survey options.
#[derive(Debug, Clone, Copy)]
pub struct SurveyOptions {
    /// Lint run options (effective-date gating).
    pub lint: RunOptions,
    /// Collect the Figure 4 field matrix (touches every attribute; off for
    /// speed-sensitive callers).
    pub field_matrix: bool,
}

impl Default for SurveyOptions {
    fn default() -> Self {
        SurveyOptions { lint: RunOptions::default(), field_matrix: true }
    }
}

impl SurveyOptions {
    /// The lint registry these options select: the shared registry of
    /// `self.lint.effective_profile()` (explicit option, `UNICERT_PROFILE`
    /// environment variable, or the `webpki` default).
    pub fn registry(&self) -> &'static unicert_lint::Registry {
        // `effective_profile` only returns registered names, so the
        // fallback arm is belt-and-braces.
        unicert_lint::profiles::registry(self.lint.effective_profile())
            .unwrap_or_else(unicert_corpus::lint_registry)
    }
}

const ALIVE_FROM: i32 = 2024;
const RECENT_FROM: i32 = 2024;
/// The dataset snapshot date (§4.1): certificates issued after this are not
/// "alive now". Const-constructed — field-valid by inspection, and verified
/// against `DateTime::date` in tests.
const SURVEY_CUTOFF: DateTime = DateTime { year: 2025, month: 4, day: 30, hour: 0, minute: 0, second: 0 };

impl TypeStats {
    /// Fold another shard's stats into this one (commutative sum).
    pub fn merge(&mut self, other: TypeStats) {
        self.certs += other.certs;
        self.by_new_lints += other.by_new_lints;
        self.errors += other.errors;
        self.warnings += other.warnings;
        self.trusted += other.trusted;
        self.recent += other.recent;
        self.alive += other.alive;
    }
}

impl IssuerStats {
    /// Fold another shard's stats into this one. `trust` is a property of
    /// the issuer, identical in every shard; the first-seen value wins just
    /// as it does in the serial pass.
    pub fn merge(&mut self, other: IssuerStats) {
        self.total += other.total;
        self.noncompliant += other.noncompliant;
        self.recent_noncompliant += other.recent_noncompliant;
    }
}

impl YearStats {
    /// Fold another shard's stats into this one (commutative sum).
    pub fn merge(&mut self, other: YearStats) {
        self.issued += other.issued;
        self.trusted += other.trusted;
        self.noncompliant += other.noncompliant;
        self.alive += other.alive;
        self.alive_noncompliant += other.alive_noncompliant;
    }
}

/// A validity period in days as a [`ValiditySamples`] entry: `i32`,
/// saturating at its bounds. A DER time cannot reach them: GeneralizedTime
/// years run 0000–9999, a span under 3.7 million days.
fn sample_days(days: i64) -> i32 {
    i32::try_from(days).unwrap_or(if days < 0 { i32::MIN } else { i32::MAX })
}

impl ValiditySamples {
    /// Append another shard's samples. Order-sensitive: merging shards in
    /// stream order reproduces the serial sample vectors exactly.
    pub fn merge(&mut self, other: ValiditySamples) {
        self.idn.extend(other.idn);
        self.other.extend(other.other);
        self.noncompliant.extend(other.noncompliant);
    }
}

impl SurveyReport {
    /// Fold another shard's report into this one.
    ///
    /// Every aggregate is either a commutative sum or (for the validity
    /// sample vectors) an ordered concatenation, so merging per-shard
    /// reports *in shard order* yields exactly the single-pass report:
    /// `run(a ++ b) == merge(run(a), run(b))`.
    pub fn merge(&mut self, other: SurveyReport) {
        // The profile is a run-wide property, identical in every shard;
        // first non-empty tag wins (shards built before tagging carry "").
        if self.profile.is_empty() {
            self.profile = other.profile;
        }
        self.entries += other.entries;
        self.precerts_filtered += other.precerts_filtered;
        self.total += other.total;
        self.idn_certs += other.idn_certs;
        self.trusted_total += other.trusted_total;
        self.noncompliant += other.noncompliant;
        self.noncompliant_trusted += other.noncompliant_trusted;
        self.noncompliant_by_new_lints += other.noncompliant_by_new_lints;
        for (nc_type, ts) in other.by_type {
            self.by_type.entry(nc_type).or_default().merge(ts);
        }
        for (lint, n) in other.by_lint {
            *self.by_lint.entry(lint).or_default() += n;
        }
        for (issuer, is_) in other.by_issuer {
            match self.by_issuer.entry(issuer) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(is_),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(is_);
                }
            }
        }
        for (year, ys) in other.by_year {
            self.by_year.entry(year).or_default().merge(ys);
        }
        self.validity.merge(other.validity);
        for (cell, (total, nc)) in other.field_matrix {
            let c = self.field_matrix.entry(cell).or_default();
            c.0 += total;
            c.1 += nc;
        }
        // Entries carry global stream indexes; shard-order concatenation
        // therefore reproduces the serial quarantine list exactly.
        self.quarantine.extend(other.quarantine);
        for (class, n) in other.parse_outcomes {
            *self.parse_outcomes.entry(class).or_default() += n;
        }
    }

    /// Order-stable FNV-1a 64 fingerprint of the whole report, via its
    /// `Debug` rendering (every aggregate is `BTreeMap`/`Vec`-backed, so
    /// the rendering is deterministic). Benchmark baselines store this so a
    /// later run can detect *report* drift — a change in what the pipeline
    /// computes — separately from timing drift.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

/// Record a contained panic: one [`QuarantineEntry`] carrying this worker's
/// flight-recorder dump, plus (metrics on) a `survey.quarantined{stage}`
/// tick. Telemetry stays inert — the counter mirrors the report, never
/// feeds it. The flight dump *is* report content, but it is a pure function
/// of the certificate (the ring is cleared per unit), so determinism holds.
fn push_quarantine(
    report: &mut SurveyReport,
    index: u64,
    cert_id: String,
    stage: &'static str,
    detail: String,
) {
    if unicert_telemetry::metrics_enabled() {
        unicert_telemetry::global().counter("survey.quarantined", stage).inc();
    }
    let flight = unicert_telemetry::flight::dump();
    report.quarantine.push(QuarantineEntry { index, cert_id, stage, detail, flight });
}

/// Lowercase-hex serial number — the quarantine `cert_id` for a parsed
/// certificate.
fn hex_serial(serial: &[u8]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(serial.len() * 2);
    for b in serial {
        let _ = write!(s, "{b:02x}");
    }
    if s.is_empty() {
        s.push_str("(empty serial)");
    }
    s
}

/// One survey input: a certificate's DER, plus the ground-truth
/// [`CertMeta`] when the caller has it.
///
/// The survey reduces every input form to this shape:
///
/// * [`CorpusEntry`] — a generated certificate, its DER the
///   [`CertDer::raw`](unicert_x509::CertDer::raw) the generator signed,
///   with its metadata borrowed;
/// * [`RawEntry`] — a store record, its DER borrowed from a segment
///   buffer;
/// * `Vec<u8>` — bare bytes, possibly hostile, with metadata inferred
///   from the certificate itself ([`CertMeta::inferred_view`]).
///
/// Whether DER comes with metadata decides how DER that does not parse
/// is reported — the one policy difference between the forms:
///
/// * **With metadata** nothing goes into
///   [`SurveyReport::parse_outcomes`]. A parse error is quarantined at
///   stage `"parse"` with cert id `#<index>` and detail
///   `record does not parse (<class>)`, so a caller feeding unvalidated
///   records degrades to one skipped certificate. The store's incremental
///   survey reads such an entry as its per-record parse proof failing: it
///   discards the report and classifies the shard through its full
///   segment validator (see `unicert_store::resume`).
/// * **Without metadata** the input lands in exactly one [`ParseOutcome`]
///   class in `parse_outcomes` (and, metrics on, one
///   `parse.outcome{class}` tick). A rejected input is only counted.
///
/// Either way a parse-stage panic quarantines the input at stage
/// `"parse"` with the panic payload as detail, and every rejected input
/// still counts in [`SurveyReport::entries`].
pub trait SurveyInput {
    /// This input's DER and, when the caller has it, its metadata.
    fn input(&self) -> (&[u8], Option<&CertMeta>);
}

impl SurveyInput for CorpusEntry {
    fn input(&self) -> (&[u8], Option<&CertMeta>) {
        (&self.cert.raw, Some(&self.meta))
    }
}

impl SurveyInput for RawEntry<'_> {
    fn input(&self) -> (&[u8], Option<&CertMeta>) {
        (self.der, Some(&self.meta))
    }
}

impl SurveyInput for Vec<u8> {
    fn input(&self) -> (&[u8], Option<&CertMeta>) {
        (self, None)
    }
}

/// A borrowed input, as a slice chunk yields it.
impl<T: SurveyInput> SurveyInput for &T {
    fn input(&self) -> (&[u8], Option<&CertMeta>) {
        (**self).input()
    }
}

/// Fold one input into `report` — the survey's one kernel.
///
/// The DER is parsed into a view under a fresh state of `budget`, inside
/// [`catch_unwind`] together with metadata inference; DER that does not
/// parse is reported by the [`SurveyInput`] policy. Every certificate that
/// passes the precertificate filter runs through [`accumulate_ctx`].
fn accumulate(
    report: &mut SurveyReport,
    registry: &unicert_lint::Registry,
    index: u64,
    input: &impl SurveyInput,
    opts: &SurveyOptions,
    budget: &ParseBudget,
    telemetry: Option<&mut ShardTelemetry>,
) {
    report.entries += 1;
    let (der, known) = input.input();
    // One certificate = one flight-recorder unit: clear this worker's ring
    // so a later quarantine dump holds exactly this certificate's history.
    // Begin the unit before parsing so a parse-stage failure dumps a ring
    // holding only this input's history. The unit is begun again for
    // inputs that parse, dropping this breadcrumb — harmless, since the
    // parse stage is over by then.
    unicert_telemetry::flight::begin_unit(index);
    unicert_telemetry::flight::record("stage", "parse", der.len() as u64);
    // Zero-copy decode: the view borrows `der` (through the budget state),
    // so nothing is copied out of the input on the hot path.
    let state = budget.start();
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        CertView::parse_der_budgeted(der, &state).map(|view| {
            let meta =
                known.map_or_else(|| Cow::Owned(CertMeta::inferred_view(&view)), Cow::Borrowed);
            (view, meta)
        })
    }));
    if known.is_none() {
        let class = match &parsed {
            Err(_) => ParseOutcome::Quarantined.class(),
            Ok(Err(e)) => ParseOutcome::from_error(e).class(),
            Ok(Ok(_)) => ParseOutcome::Ok.class(),
        };
        *report.parse_outcomes.entry(class).or_default() += 1;
        if unicert_telemetry::metrics_enabled() {
            unicert_telemetry::global().counter("parse.outcome", class).inc();
        }
    }
    let (view, meta) = match parsed {
        Ok(Ok(parsed)) => parsed,
        Ok(Err(e)) => {
            if known.is_some() {
                let detail = format!("record does not parse ({})", e.class());
                push_quarantine(report, index, format!("#{index}"), "parse", detail);
            }
            return;
        }
        Err(payload) => {
            let detail = payload_string(&*payload);
            return push_quarantine(report, index, format!("#{index}"), "parse", detail);
        }
    };
    unicert_telemetry::flight::begin_unit(index);
    // §4.1: precertificates are filtered out by the poison extension.
    if view.is_precertificate() {
        report.precerts_filtered += 1;
        return;
    }
    // One decode-once context shared by classification, the lint run, and
    // the field-matrix scan. A panic in any stage only poisons this
    // certificate's context, which is dropped with the quarantined cert.
    let ctx = unicert_lint::LintContext::from_view(&view);
    accumulate_ctx(report, registry, index, &ctx, &meta, opts, telemetry);
}

/// The aggregation fold: everything after the precertificate filter,
/// reading the certificate exclusively through the
/// [`unicert_lint::LintContext`] accessors.
///
/// `telemetry` (present iff metrics are enabled) carries the per-stage
/// latency histograms; the stage blocks below are contiguous so
/// consecutive timestamps partition the whole per-certificate cost.
/// Telemetry never feeds back into `report` — the fold is byte-identical
/// with or without it.
///
/// # Panic quarantine
///
/// The fallible stages — classification, linting, and the field-matrix
/// scan — run under [`catch_unwind`] *before* any of their results touch
/// the report. A panic in any stage quarantines the certificate: one
/// [`QuarantineEntry`] is recorded (against `index`, the certificate's
/// global stream position) and **no** aggregate beyond `entries`/`total`
/// changes, so one hostile certificate never skews another's statistics
/// and serial/sharded runs stay byte-identical.
fn accumulate_ctx(
    report: &mut SurveyReport,
    registry: &unicert_lint::Registry,
    index: u64,
    ctx: &unicert_lint::LintContext<'_>,
    meta: &CertMeta,
    opts: &SurveyOptions,
    telemetry: Option<&mut ShardTelemetry>,
) {
    report.total += 1;

    let (stages, tally) = match telemetry {
        Some(t) => (Some(&t.stages), Some(&mut t.tally)),
        None => (None, None),
    };
    // Stage timing rides the same 1-in-`metrics_sample()` sequence as the
    // per-lint latency histograms: untimed certificates pay no clock reads.
    let timed = tally.as_ref().is_some_and(|t| t.will_time_next());
    let mut stamp = timed.then(Instant::now);

    unicert_telemetry::flight::record("stage", "classify", 0);
    let class = match catch_unwind(AssertUnwindSafe(|| classify::classify_ctx(ctx))) {
        Ok(class) => class,
        Err(payload) => {
            let id = hex_serial(ctx.serial());
            return push_quarantine(report, index, id, "classify", payload_string(&*payload));
        }
    };
    stage_mark(&mut stamp, stages.map(|s| &s.classify));

    unicert_telemetry::flight::record("stage", "lint", 0);
    let lint_run = catch_unwind(AssertUnwindSafe(|| match tally {
        Some(tally) => registry.run_tallied_ctx(ctx, opts.lint, tally),
        None => registry.run_ctx(ctx, opts.lint),
    }));
    let lint_report = match lint_run {
        Ok(lint_report) => lint_report,
        Err(payload) => {
            let id = hex_serial(ctx.serial());
            return push_quarantine(report, index, id, "lint", payload_string(&*payload));
        }
    };
    let nc = lint_report.is_noncompliant();
    stage_mark(&mut stamp, stages.map(|s| &s.lint));

    let marks = if opts.field_matrix {
        unicert_telemetry::flight::record("stage", "field_matrix", 0);
        match catch_unwind(AssertUnwindSafe(|| field_matrix_marks(ctx))) {
            Ok(marks) => Some(marks),
            Err(payload) => {
                let id = hex_serial(ctx.serial());
                return push_quarantine(
                    report,
                    index,
                    id,
                    "field_matrix",
                    payload_string(&*payload),
                );
            }
        }
    } else {
        None
    };
    stage_mark(&mut stamp, stages.map(|s| &s.field_matrix));

    // All fallible stages succeeded — from here on the fold is pure
    // aggregation and the certificate lands in the report atomically.
    if class.is_idn_cert() {
        report.idn_certs += 1;
    }
    let trusted = meta.trust == TrustStatus::Public;
    if trusted {
        report.trusted_total += 1;
    }

    let issued = ctx.validity().not_before;
    let expires = ctx.validity().not_after;
    let recent = issued.year >= RECENT_FROM;
    let alive_now = expires.year >= ALIVE_FROM && issued <= SURVEY_CUTOFF;
    let validity_days = sample_days(ctx.validity().period_days());

    // Figure 3 samples.
    if nc {
        report.validity.noncompliant.push(validity_days);
    }
    if class.is_idn_cert() {
        report.validity.idn.push(validity_days);
    } else {
        report.validity.other.push(validity_days);
    }

    // Figure 2 series.
    for year in issued.year..=expires.year.min(2025) {
        let ys = report.by_year.entry(year).or_default();
        ys.alive += 1;
        if nc {
            ys.alive_noncompliant += 1;
        }
    }
    let ys = report.by_year.entry(issued.year).or_default();
    ys.issued += 1;
    if trusted {
        ys.trusted += 1;
    }
    if nc {
        ys.noncompliant += 1;
    }

    // Table 2. The issuer's name is copied only when it is new to the
    // report.
    if !report.by_issuer.contains_key(&meta.issuer_org) {
        let stats =
            IssuerStats { trust: meta.trust, total: 0, noncompliant: 0, recent_noncompliant: 0 };
        report.by_issuer.insert(meta.issuer_org.clone(), stats);
    }
    if let Some(is_) = report.by_issuer.get_mut(&meta.issuer_org) {
        is_.total += 1;
        if nc {
            is_.noncompliant += 1;
            if recent {
                is_.recent_noncompliant += 1;
            }
        }
    }

    // Tables 1 and 11.
    if nc {
        report.noncompliant += 1;
        if trusted {
            report.noncompliant_trusted += 1;
        }
        if lint_report.hit_new_lint() {
            report.noncompliant_by_new_lints += 1;
        }
        for nc_type in lint_report.nc_types() {
            let ts = report.by_type.entry(nc_type).or_default();
            ts.certs += 1;
            if trusted {
                ts.trusted += 1;
            }
            if recent {
                ts.recent += 1;
            }
            if alive_now {
                ts.alive += 1;
            }
            let findings = lint_report.findings.iter().filter(|f| f.nc_type == nc_type);
            let mut has_err = false;
            let mut has_warn = false;
            let mut has_new = false;
            for f in findings {
                match f.severity {
                    Severity::Error => has_err = true,
                    Severity::Warning => has_warn = true,
                }
                if f.new_lint {
                    has_new = true;
                }
            }
            if has_err {
                ts.errors += 1;
            }
            if has_warn {
                ts.warnings += 1;
            }
            if has_new {
                ts.by_new_lints += 1;
            }
        }
        for f in &lint_report.findings {
            *report.by_lint.entry(f.lint).or_default() += 1;
        }
    }

    // Figure 4 matrix.
    if let Some(marks) = marks {
        apply_field_matrix(report, &meta.issuer_org, nc, &marks);
    }
    stage_mark(&mut stamp, stages.map(|s| &s.aggregate));
}

/// Survey `inputs`, whose first element sits at global stream position
/// `base` — the survey's one entry point over a slice.
///
/// `opts.lint.effective_threads()` workers survey the inputs in chunks of
/// `opts.lint.effective_shard_size()` and the chunk reports merge in chunk
/// order; at one thread the whole slice is one chunk, surveyed inline on
/// the calling thread. Every input carries its global index, so the report
/// is **byte-identical** for any thread count and independent of how the
/// caller cuts a stream into slices (the shard-merge invariant, DESIGN.md
/// §7). That is what lets the store survey a persistent corpus one store
/// shard at a time and still reproduce the one-shot report.
///
/// `registry` is usually [`SurveyOptions::registry`]; fault-injection
/// tests pass a registry with deliberately panicking lints instead. DER
/// parses under the default [`ParseBudget`], one fresh state per input:
/// the same parse a store segment validator runs as its "every record
/// parses" proof.
pub fn survey<T: SurveyInput + Sync>(
    registry: &unicert_lint::Registry,
    inputs: &[T],
    opts: SurveyOptions,
    base: u64,
) -> SurveyReport {
    survey_chunks(registry, slice_chunks(inputs, &opts, base), opts, &ParseBudget::default())
}

/// Survey a corpus stream under the profile `opts.lint` selects.
///
/// For streaming generators: production of the stream is serialized (the
/// corpus generator owns one sequential RNG) while the survey of each
/// chunk runs on the `opts.lint.effective_threads()` workers. At one
/// thread the stream is one chunk, surveyed as it is produced, so no
/// entries are buffered. Same report as [`survey`] over the collected
/// stream.
pub fn run(entries: impl Iterator<Item = CorpusEntry> + Send, opts: SurveyOptions) -> SurveyReport {
    use unicert_corpus::IntoChunks;
    let (registry, budget) = (opts.registry(), &ParseBudget::default());
    if opts.lint.effective_threads() <= 1 {
        return survey_chunks(registry, std::iter::once((0, entries)), opts, budget);
    }
    let shard_size = opts.lint.effective_shard_size();
    let chunks = entries
        .chunked(shard_size)
        .map(|chunk| ((chunk.index * shard_size) as u64, chunk.entries));
    survey_chunks(registry, chunks, opts, budget)
}

/// [`survey`] over store records. Kept only for the benchmark package's
/// adapter; in-repo code calls [`survey`].
pub fn run_parallel_records_from(
    registry: &unicert_lint::Registry,
    records: &[RawEntry<'_>],
    opts: SurveyOptions,
    base: u64,
) -> SurveyReport {
    survey(registry, records, opts, base)
}

/// [`survey`] over bare bytes at `opts.lint.effective_threads()` workers,
/// each parse under a fresh state of `budget`. Kept only for the benchmark
/// package's adapter; in-repo code calls [`survey`].
pub fn run_bytes(ders: &[Vec<u8>], opts: SurveyOptions, budget: &ParseBudget) -> SurveyReport {
    survey_chunks(opts.registry(), slice_chunks(ders, &opts, 0), opts, budget)
}

/// The same as [`run_bytes`]. Kept only for the benchmark package's
/// adapter; in-repo code calls [`survey`].
pub fn run_parallel_bytes(
    ders: &[Vec<u8>],
    opts: SurveyOptions,
    budget: &ParseBudget,
) -> SurveyReport {
    run_bytes(ders, opts, budget)
}

/// `inputs` cut into chunks, each paired with its first element's global
/// stream position: `opts.lint.effective_shard_size()` inputs per chunk,
/// or one chunk at one thread, where cutting would only add merges.
fn slice_chunks<'a, T: Sync>(
    inputs: &'a [T],
    opts: &SurveyOptions,
    base: u64,
) -> impl Iterator<Item = (u64, &'a [T])> + Send {
    let size = if opts.lint.effective_threads() <= 1 {
        inputs.len().max(1)
    } else {
        opts.lint.effective_shard_size()
    };
    inputs.chunks(size).enumerate().map(move |(i, chunk)| (base + (i * size) as u64, chunk))
}

/// The one shard loop: survey each `(base, chunk)` pair into its own
/// report on the worker pool, then merge the reports in chunk order.
fn survey_chunks<C>(
    registry: &unicert_lint::Registry,
    chunks: impl Iterator<Item = (u64, C)> + Send,
    opts: SurveyOptions,
    budget: &ParseBudget,
) -> SurveyReport
where
    C: IntoIterator + Send,
    C::Item: SurveyInput,
{
    let threads = opts.lint.effective_threads();
    let _span = unicert_telemetry::span!("survey.run", "threads={threads}");
    let shards = crate::pool::map_ordered(chunks, threads, |(base, chunk)| {
        let _span = unicert_telemetry::span!(verbose: "survey.shard", "base={base}");
        let mut telemetry = ShardTelemetry::if_enabled(registry);
        let mut shard = SurveyReport::default();
        for (index, input) in (base..).zip(chunk) {
            accumulate(&mut shard, registry, index, &input, &opts, budget, telemetry.as_mut());
        }
        ShardTelemetry::flush(telemetry, registry);
        shard
    });
    let mut merged = merge_in_order(shards);
    merged.profile = registry.profile_name();
    merged
}

/// Fold per-shard reports, already sorted in shard order, into the first.
/// Records the full merge cost as one `survey.merge_ns` observation.
fn merge_in_order(shards: Vec<SurveyReport>) -> SurveyReport {
    let _span = unicert_telemetry::span!("survey.merge", "{}", shards.len());
    let started = unicert_telemetry::metrics_enabled().then(Instant::now);
    let mut shards = shards.into_iter();
    let mut merged = shards.next().unwrap_or_default();
    for shard in shards {
        merged.merge(shard);
    }
    if let Some(started) = started {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        unicert_telemetry::global().histogram("survey.merge_ns", "").record(nanos);
    }
    merged
}

/// How often each [`FIELD_LABELS`] field of one certificate carries
/// internationalized content, indexed like [`FIELD_LABELS`].
type FieldMarks = [usize; FIELD_LABELS.len()];

/// The [`FIELD_LABELS`] index of a subject attribute type's Figure 4
/// field, matched on its X.520 `2.5.4.n` arc.
fn subject_field(oid: &unicert_asn1::Oid) -> Option<usize> {
    match oid.as_der_value() {
        [0x55, 0x04, 3] => Some(0),  // CN
        [0x55, 0x04, 10] => Some(1), // O
        [0x55, 0x04, 11] => Some(2), // OU
        [0x55, 0x04, 7] => Some(3),  // L
        [0x55, 0x04, 8] => Some(4),  // ST
        [0x55, 0x04, 9] => Some(5),  // STREET
        [0x55, 0x04, 5] => Some(6),  // serialNumber
        _ => None,
    }
}

/// Per-field counts of the certificate's internationalized content — the
/// pure half of the Figure 4 matrix, computed before any report mutation
/// so a panic here quarantines the certificate without leaving a
/// half-applied row behind. Repeated subject attributes count once each.
fn field_matrix_marks(ctx: &unicert_lint::LintContext<'_>) -> FieldMarks {
    use unicert_asn1::oid::known;
    use unicert_lint::helpers::Which;
    let mut marks = FieldMarks::default();
    for attr in ctx.dn_attrs(Which::Subject) {
        if let Some(i) = subject_field(&attr.oid) {
            if classify::value_has_unicode(attr.val.bytes()) {
                marks[i] += 1; // analysis:allow(slice_index) subject_field yields FIELD_LABELS indexes 0..7
            }
        }
    }
    let idn = |text: &str| unicert_idna::is_idn_domain(text) || !text.is_ascii();
    // An undecodable value (never an IA5String) reads as its lossy text.
    if ctx.san_dns().iter().any(|v| match v.wire_text() {
        Some(text) => idn(text),
        None => idn(&v.raw().display_lossy()),
    }) {
        marks[7] += 1; // SAN
    }
    if ctx.has_extension(&known::certificate_policies()) {
        // explicitText with non-ASCII or non-UTF8 encodings.
        if ctx.explicit_texts().iter().any(|t| classify::value_has_unicode(t.bytes())) {
            marks[8] += 1; // CP
        }
    }
    marks
}

/// Apply pre-computed [`field_matrix_marks`] to the Figure 4 matrix.
fn apply_field_matrix(report: &mut SurveyReport, issuer: &str, nc: bool, marks: &FieldMarks) {
    for (&field, &count) in FIELD_LABELS.iter().zip(marks).filter(|(_, &c)| c > 0) {
        let cell = report.field_matrix.entry((issuer.to_string(), field)).or_default();
        cell.0 += count;
        if nc {
            cell.1 += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_corpus::{CorpusConfig, CorpusGenerator};

    fn survey_generated(size: usize) -> SurveyReport {
        let gen = CorpusGenerator::new(CorpusConfig {
            size,
            seed: 42,
            precert_fraction: 0.3,
            latent_defects: true,
        });
        run(gen, SurveyOptions::default())
    }

    /// Options at `threads` workers.
    fn threads(threads: usize) -> SurveyOptions {
        SurveyOptions {
            lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
            ..SurveyOptions::default()
        }
    }

    #[test]
    fn validity_samples_saturate_at_the_i32_bounds() {
        assert_eq!(sample_days(0), 0);
        assert_eq!(sample_days(-398), -398);
        assert_eq!(sample_days(i64::from(i32::MAX)), i32::MAX);
        assert_eq!(sample_days(i64::from(i32::MAX) + 1), i32::MAX);
        assert_eq!(sample_days(i64::from(i32::MIN)), i32::MIN);
        assert_eq!(sample_days(i64::from(i32::MIN) - 1), i32::MIN);
        assert_eq!(sample_days(i64::MAX), i32::MAX);
        assert_eq!(sample_days(i64::MIN), i32::MIN);
        // The widest DER span, 0000-01-01 to 9999-12-31, stays far inside.
        let first = DateTime::date(0, 1, 1).unwrap();
        let last = DateTime::date(9999, 12, 31).unwrap();
        let span = first.days_until(&last);
        assert_eq!(i64::from(sample_days(span)), span);
        assert_eq!(i64::from(sample_days(-span)), -span);
    }

    #[test]
    fn precerts_are_filtered() {
        let r = survey_generated(2_000);
        assert!(r.precerts_filtered > 300);
        assert_eq!(r.total + r.precerts_filtered, r.entries);
    }

    #[test]
    fn headline_rates_in_paper_bands() {
        let r = survey_generated(20_000);
        let nc_rate = r.noncompliant as f64 / r.total as f64;
        assert!((0.003..0.02).contains(&nc_rate), "{nc_rate}");
        // Trusted share of all Unicerts: paper reports 90.1% historically
        // and ≥97.2% for every CT-era year; our corpus is CT-era only, so
        // it sits at the high end.
        let trusted_share = r.trusted_total as f64 / r.total as f64;
        assert!((0.85..0.995).contains(&trusted_share), "{trusted_share}");
        // Trusted share of noncompliant ≈ 65% (paper: 65.3%).
        if r.noncompliant > 50 {
            let nc_trusted = r.noncompliant_trusted as f64 / r.noncompliant as f64;
            assert!((0.3..0.9).contains(&nc_trusted), "{nc_trusted}");
        }
    }

    #[test]
    fn invalid_encoding_dominates_types() {
        let r = survey_generated(30_000);
        let enc = r.by_type.get(&NoncomplianceType::InvalidEncoding).map(|t| t.certs).unwrap_or(0);
        let chr = r.by_type.get(&NoncomplianceType::InvalidCharacter).map(|t| t.certs).unwrap_or(0);
        let fmt = r.by_type.get(&NoncomplianceType::IllegalFormat).map(|t| t.certs).unwrap_or(0);
        assert!(enc > chr, "encoding {enc} vs character {chr}");
        assert!(enc > fmt, "encoding {enc} vs format {fmt}");
    }

    #[test]
    fn issuer_table_shape() {
        let r = survey_generated(30_000);
        // Let's Encrypt dominates volume with a tiny NC rate.
        let le = &r.by_issuer["Let's Encrypt"];
        assert!(le.total > r.total / 2);
        assert!((le.noncompliant as f64) / (le.total as f64) < 0.02);
        // High-NC issuers show high rates when present.
        if let Some(cp) = r.by_issuer.get("Česká pošta, s.p.") {
            if cp.total >= 10 {
                assert!(cp.noncompliant as f64 / cp.total as f64 > 0.5);
            }
        }
    }

    #[test]
    fn trend_is_upward() {
        let r = survey_generated(20_000);
        let y2016 = r.by_year.get(&2016).map(|y| y.issued).unwrap_or(0);
        let y2024 = r.by_year.get(&2024).map(|y| y.issued).unwrap_or(0);
        assert!(y2024 > y2016 * 3, "{y2016} vs {y2024}");
    }

    #[test]
    fn validity_cdf_shapes() {
        let r = survey_generated(20_000);
        let frac = |v: &[i32], p: &dyn Fn(i32) -> bool| {
            if v.is_empty() {
                return 0.0;
            }
            v.iter().filter(|&&d| p(d)).count() as f64 / v.len() as f64
        };
        assert!(frac(&r.validity.idn, &|d| d <= 90) > 0.8);
        assert!(frac(&r.validity.noncompliant, &|d| d >= 365) > 0.4);
    }

    #[test]
    fn field_matrix_collects_scripts() {
        let r = survey_generated(5_000);
        // Some issuer must show Unicode in O.
        assert!(r.field_matrix.keys().any(|(_, f)| *f == "O"));
        assert!(r.field_matrix.keys().any(|(_, f)| *f == "SAN"));
    }

    #[test]
    fn subject_fields_index_their_labels() {
        use unicert_asn1::oid::known;
        let fields = [
            (known::common_name(), "CN"),
            (known::organization_name(), "O"),
            (known::organizational_unit(), "OU"),
            (known::locality_name(), "L"),
            (known::state_or_province(), "ST"),
            (known::street_address(), "STREET"),
            (known::serial_number(), "serialNumber"),
        ];
        for (oid, label) in fields {
            assert_eq!(subject_field(&oid).map(|i| FIELD_LABELS[i]), Some(label));
        }
        assert_eq!(subject_field(&known::country_name()), None);
        assert_eq!(FIELD_LABELS[7..], ["SAN", "CP"]);
    }

    /// Does the injected chaos lint panic on the certificate with this
    /// serial?
    fn panics_on(serial: &[u8]) -> bool {
        serial.last().is_some_and(|b| b % 8 == 3)
    }

    /// A generated entry's serial, parsed out of its DER.
    fn serial(entry: &CorpusEntry) -> Vec<u8> {
        entry.cert.parse().unwrap().tbs.serial
    }

    /// The default registry plus one deliberately panicking lint.
    fn sabotaged_registry() -> unicert_lint::Registry {
        use unicert_lint::{Lint, LintStatus, Source};
        let mut reg = unicert_lint::default_registry();
        reg.register(Lint {
            name: "x_chaos_injected_panic",
            description: "test-only lint that panics on selected serials",
            citation: "none",
            // Rfc5280's 2008 effective date predates every corpus cert, so
            // date gating never spares a cert the predicate selects.
            source: Source::Rfc5280,
            severity: Severity::Warning,
            nc_type: NoncomplianceType::InvalidEncoding,
            new_lint: false,
            check: Box::new(|ctx| {
                if panics_on(ctx.serial()) {
                    panic!("injected lint panic");
                }
                LintStatus::Pass
            }),
        });
        reg
    }

    #[test]
    fn panicking_lint_quarantines_exactly_affected_certs() {
        let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
            size: 400,
            seed: 7,
            precert_fraction: 0.0,
            latent_defects: true,
        })
        .collect();
        let affected: Vec<u64> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| panics_on(&serial(e)))
            .map(|(i, _)| i as u64)
            .collect();
        assert!(!affected.is_empty(), "predicate must hit the corpus");
        assert!(affected.len() < entries.len(), "predicate must spare certs");

        let sabotaged = sabotaged_registry();

        // Expected report: the unaffected certs surveyed normally (the
        // extra lint never fires on them, so the default registry gives
        // the same aggregates), plus entries/total counting everything
        // and one quarantine record per affected cert.
        let spared: Vec<_> = entries
            .iter()
            .filter(|e| !panics_on(&serial(e)))
            .cloned()
            .collect();
        let mut expected = survey(unicert_corpus::lint_registry(), &spared, threads(1), 0);
        expected.entries = entries.len();
        expected.total = entries.len();
        expected.quarantine = affected
            .iter()
            .map(|&index| QuarantineEntry {
                index,
                cert_id: hex_serial(&serial(&entries[index as usize])),
                stage: "lint",
                detail: "injected lint panic".to_string(),
                flight: Vec::new(),
            })
            .collect();

        let reports: Vec<_> = crate::pool::quiet_panics(|| {
            [1, 2, 4, 8]
                .map(|n| survey(&sabotaged, &entries, threads(n), 0))
                .into_iter()
                .collect()
        });
        for (report, threads) in reports.iter().zip([1, 2, 4, 8]) {
            // Every quarantine entry must carry a flight dump naming the
            // panicking lint and this certificate's unit id…
            let mut stripped = report.clone();
            for q in &mut stripped.quarantine {
                assert!(!q.flight.is_empty(), "index {} has no flight dump", q.index);
                assert!(
                    q.flight[0].starts_with(&format!("unit {} ", q.index)),
                    "index {}: {:?}",
                    q.index,
                    q.flight[0]
                );
                assert!(
                    q.flight.iter().any(|l| l == "context x_chaos_injected_panic"),
                    "index {}: {:?}",
                    q.index,
                    q.flight
                );
                q.flight.clear();
            }
            // …and everything else must match the serial no-panic expectation.
            assert_eq!(stripped, expected, "threads={threads}");
        }
        // The dumps themselves are deterministic across thread counts.
        for (report, threads) in reports.iter().zip([1, 2, 4, 8]).skip(1) {
            assert_eq!(report.quarantine, reports[0].quarantine, "threads={threads}");
        }
    }

    #[test]
    fn bytes_path_serial_parallel_identical_and_classified() {
        let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
            size: 200,
            seed: 11,
            precert_fraction: 0.2,
            latent_defects: true,
        })
        .collect();
        let mut ders: Vec<Vec<u8>> = entries.iter().map(|e| e.cert.raw.clone()).collect();
        // Interleave hostile inputs among the real certificates.
        ders.insert(0, Vec::new()); // empty
        ders.insert(50, ders[10][..40].to_vec()); // truncated cert
        ders.insert(100, vec![0xde, 0xad, 0xbe, 0xef]); // garbage

        let serial = survey(threads(1).registry(), &ders, threads(1), 0);
        assert_eq!(serial.entries, ders.len());
        assert_eq!(serial.parse_outcomes["ok"], entries.len());
        let rejected: usize = serial
            .parse_outcomes
            .iter()
            .filter(|(class, _)| **class != "ok")
            .map(|(_, n)| n)
            .sum();
        assert_eq!(rejected, 3);
        assert!(serial.quarantine.is_empty());

        for threads in [2, 4, 8] {
            let opts = SurveyOptions {
                lint: RunOptions {
                    threads: Some(threads),
                    shard_size: 32,
                    ..RunOptions::default()
                },
                ..SurveyOptions::default()
            };
            let parallel = survey(opts.registry(), &ders, opts, 0);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn quarantine_indexes_are_global_across_shards() {
        let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
            size: 300,
            seed: 21,
            precert_fraction: 0.0,
            latent_defects: true,
        })
        .collect();
        let sabotaged = sabotaged_registry();
        let opts = SurveyOptions {
            lint: RunOptions {
                threads: Some(4),
                shard_size: 16,
                ..RunOptions::default()
            },
            ..SurveyOptions::default()
        };
        let report = crate::pool::quiet_panics(|| survey(&sabotaged, &entries, opts, 0));
        assert!(!report.quarantine.is_empty());
        for q in &report.quarantine {
            assert!(panics_on(&serial(&entries[q.index as usize])), "index {}", q.index);
            // The flight dump's unit id is the same global stream index.
            assert!(
                q.flight.first().is_some_and(|l| l.starts_with(&format!("unit {} ", q.index))),
                "index {}: {:?}",
                q.index,
                q.flight
            );
        }
        // Stream order: indexes strictly increase across shard merges.
        for pair in report.quarantine.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    /// The kernel's one policy branch, pinned for every input form: an
    /// input with metadata quarantines DER that does not parse and counts
    /// no parse outcome; bare bytes count the outcome and quarantine
    /// nothing. A corpus entry is linted from its parsed tree, so it never
    /// reaches the parse branch.
    #[test]
    fn kernel_policy_follows_metadata_alone() {
        let corpus: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
            size: 20,
            seed: 3,
            precert_fraction: 0.5,
            latent_defects: true,
        })
        .collect();
        // The generator emits a precertificate twin right after its leaf.
        let at = corpus.windows(2).position(|w| w[1].meta.is_precert).expect("a twin");
        let (valid, precert) = (&corpus[at], &corpus[at + 1]);
        let garbage = [0xde, 0xad, 0xbe, 0xef];
        let ders: [&[u8]; 4] = [&valid.cert.raw, &precert.cert.raw, &valid.cert.raw[..40], &garbage];
        let entries = vec![valid.clone(), precert.clone()];
        let metas = [&valid.meta, &precert.meta, &valid.meta, &valid.meta];
        let records: Vec<RawEntry<'_>> = ders
            .iter()
            .zip(metas)
            .map(|(&der, meta)| RawEntry { der, meta: meta.clone() })
            .collect();
        let bytes: Vec<Vec<u8>> = ders.iter().map(|der| der.to_vec()).collect();
        let garbage_class = CertView::parse_der_budgeted(&garbage, &ParseBudget::default().start())
            .map(|_| ())
            .expect_err("garbage does not parse")
            .class();

        let opts = threads(1);
        let as_entries = survey(opts.registry(), &entries, opts, 0);
        let as_records = survey(opts.registry(), &records, opts, 0);
        let as_bytes = survey(opts.registry(), &bytes, opts, 0);

        // The precertificate is filtered in every form, and every input
        // counts as an inspected entry.
        assert_eq!((as_entries.entries, as_entries.precerts_filtered, as_entries.total), (2, 1, 1));
        for report in [&as_records, &as_bytes] {
            assert_eq!((report.entries, report.precerts_filtered, report.total), (4, 1, 1));
        }

        // With metadata: no outcome counts, one parse quarantine per
        // rejected input. Its flight dump is the parse breadcrumb alone.
        assert!(as_entries.parse_outcomes.is_empty() && as_entries.quarantine.is_empty());
        assert!(as_records.parse_outcomes.is_empty());
        let parse_quarantine = |index: u64, class: &str| QuarantineEntry {
            index,
            cert_id: format!("#{index}"),
            stage: "parse",
            detail: format!("record does not parse ({class})"),
            flight: vec![
                format!("unit {index} events 1"),
                format!("0000 stage parse={}", ders[index as usize].len()),
            ],
        };
        assert_eq!(
            as_records.quarantine,
            [parse_quarantine(2, "truncated"), parse_quarantine(3, garbage_class)]
        );
        // An entry and a record with the same certificate and metadata
        // survey identically, aggregates of the valid certificate included.
        assert_eq!(as_entries, survey(opts.registry(), &records[..2], opts, 0));
        assert_eq!(as_entries.by_issuer[&valid.meta.issuer_org].total, 1);

        // Without metadata: every input counted once, nothing quarantined.
        assert!(as_bytes.quarantine.is_empty());
        let mut expected = BTreeMap::from([("ok", 2), ("truncated", 1)]);
        *expected.entry(garbage_class).or_default() += 1;
        assert_eq!(as_bytes.parse_outcomes, expected);
    }
}
