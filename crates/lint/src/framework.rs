//! The lint framework: metadata, registry, execution, and reports.
//!
//! Mirrors the structure the paper adopted from Zlint (§3.1.2): each lint has
//! a severity derived from the standard's requirement level (MUST → Error,
//! SHOULD → Warning), a source standard, an **effective date** (a lint only
//! applies to certificates issued on/after that date — the paper's
//! no-retroactivity rule), and a taxonomy type from Table 1.

use std::collections::BTreeMap;
use std::fmt;
use unicert_asn1::DateTime;
use unicert_x509::CertView;

use crate::context::LintContext;

/// Requirement level → finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// SHOULD-level violation.
    Warning,
    /// MUST-level violation.
    Error,
}

/// The standard a lint is derived from (§3.1's document set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Source {
    Rfc5280,
    Rfc6818,
    Rfc8399,
    Rfc9549,
    Rfc9598,
    Rfc1034,
    Rfc5890,
    Idna2008,
    CabfBr,
    Community,
}

/// Midnight on a (validated-by-inspection) calendar date, usable in `const`
/// position — the effective-date table must be panic-free even under the
/// audit's rules, so no fallible constructor runs at lookup time.
const fn midnight(year: i32, month: u8, day: u8) -> DateTime {
    DateTime { year, month, day, hour: 0, minute: 0, second: 0 }
}

impl Source {
    /// All source standards, in declaration order.
    pub const ALL: [Source; 10] = [
        Source::Rfc5280,
        Source::Rfc6818,
        Source::Rfc8399,
        Source::Rfc9549,
        Source::Rfc9598,
        Source::Rfc1034,
        Source::Rfc5890,
        Source::Idna2008,
        Source::CabfBr,
        Source::Community,
    ];

    /// The date from which lints citing this source apply to new issuance.
    pub const fn effective_date(self) -> DateTime {
        match self {
            Source::Rfc5280 => midnight(2008, 5, 1),
            Source::Rfc6818 => midnight(2013, 1, 1),
            Source::Rfc8399 => midnight(2018, 5, 1),
            Source::Rfc9549 => midnight(2024, 3, 1), // RFC 9549 is dated March 2024
            Source::Rfc9598 => midnight(2024, 6, 1),
            Source::Rfc1034 => midnight(2008, 5, 1), // enforced via RFC 5280's profile
            Source::Rfc5890 => midnight(2010, 8, 1),
            Source::Idna2008 => midnight(2010, 8, 1),
            Source::CabfBr => midnight(2012, 7, 1),
            Source::Community => midnight(2015, 1, 1),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Source::Rfc5280 => "RFC5280",
            Source::Rfc6818 => "RFC6818",
            Source::Rfc8399 => "RFC8399",
            Source::Rfc9549 => "RFC9549",
            Source::Rfc9598 => "RFC9598",
            Source::Rfc1034 => "RFC1034",
            Source::Rfc5890 => "RFC5890",
            Source::Idna2008 => "IDNA2008",
            Source::CabfBr => "CABF-BR",
            Source::Community => "Community",
        }
    }
}

/// The Table 1 noncompliance taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NoncomplianceType {
    /// T1: invalid characters for the field's character range.
    InvalidCharacter,
    /// T2: missing or wrong value normalization (NFC, Punycode forms).
    BadNormalization,
    /// T3a: basic format errors (lengths, cases).
    IllegalFormat,
    /// T3b: wrong ASN.1 encoding type for the field.
    InvalidEncoding,
    /// T3c: structural rule violations (duplicates, required inclusion).
    InvalidStructure,
    /// T3d: non-recommended fields.
    DiscouragedField,
}

impl NoncomplianceType {
    /// Label as printed in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            NoncomplianceType::InvalidCharacter => "Invalid Character",
            NoncomplianceType::BadNormalization => "Bad Normalization",
            NoncomplianceType::IllegalFormat => "Illegal Format",
            NoncomplianceType::InvalidEncoding => "Invalid Encoding",
            NoncomplianceType::InvalidStructure => "Invalid Structure",
            NoncomplianceType::DiscouragedField => "Discouraged Field",
        }
    }

    /// All six, in Table 1 order.
    pub const ALL: [NoncomplianceType; 6] = [
        NoncomplianceType::InvalidCharacter,
        NoncomplianceType::BadNormalization,
        NoncomplianceType::IllegalFormat,
        NoncomplianceType::InvalidEncoding,
        NoncomplianceType::InvalidStructure,
        NoncomplianceType::DiscouragedField,
    ];
}

/// Result of running one lint against one certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintStatus {
    /// The checked condition holds.
    Pass,
    /// The certificate doesn't contain the field this lint checks.
    NotApplicable,
    /// Violation found (severity comes from the lint's metadata).
    Violation,
    /// The lint's effective date postdates the certificate's issuance
    /// (only produced by the runner, not by check functions).
    NotEffective,
}

/// Static description of one lint.
pub struct Lint {
    /// Zlint-style name, e.g. `e_subject_organization_not_printable_or_utf8`.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Citation, e.g. `RFC 5280 §4.1.2.4`.
    pub citation: &'static str,
    /// Source standard.
    pub source: Source,
    /// MUST → Error, SHOULD → Warning.
    pub severity: Severity,
    /// Table 1 taxonomy type.
    pub nc_type: NoncomplianceType,
    /// Is this one of the paper's 50 newly derived lints (not covered by
    /// existing linters)?
    pub new_lint: bool,
    /// The check itself. Checks receive the certificate through a
    /// memoized [`LintContext`] so expensive derivations (extension
    /// parses, text decodes, label pipelines) are shared across the
    /// whole catalog.
    pub check: Box<dyn Fn(&LintContext<'_>) -> LintStatus + Send + Sync>,
}

impl fmt::Debug for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lint")
            .field("name", &self.name)
            .field("severity", &self.severity)
            .field("nc_type", &self.nc_type)
            .field("new", &self.new_lint)
            .finish()
    }
}

impl Lint {
    /// The date from which this lint applies to newly issued certificates.
    pub fn effective_date(&self) -> DateTime {
        self.source.effective_date()
    }

    /// Stable metadata accessor: lint name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stable metadata accessor: one-line description.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Stable metadata accessor: citation string.
    pub fn citation(&self) -> &'static str {
        self.citation
    }

    /// Stable metadata accessor: Table 1 taxonomy type.
    pub fn taxonomy(&self) -> NoncomplianceType {
        self.nc_type
    }

    /// Stable metadata accessor: severity.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Stable metadata accessor: source standard.
    pub fn source(&self) -> Source {
        self.source
    }

    /// Stable metadata accessor: is this one of the paper's 50 new lints?
    pub fn is_new(&self) -> bool {
        self.new_lint
    }
}

/// Structured provenance attached to a [`Finding`] in evidence mode: the
/// byte range and TLV path of the input the lint actually read, the raw
/// (lossy-decoded) value, its NFC normalization when that differs, and the
/// lint's citation. See DESIGN.md §13.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Byte range in the certificate DER the finding is anchored to.
    pub span: unicert_asn1::Span,
    /// Structural path of the element, e.g. `tbs.subject.attr[0].value` or
    /// `tbs.ext[3](2.5.29.17).item[1]`; `tbs` when the lint read the
    /// certificate directly rather than through a cached value.
    pub tlv_path: String,
    /// The value as decoded from the wire (lossy; empty for whole-TBS
    /// fallback evidence).
    pub raw: String,
    /// The NFC normalization of `raw`, when it differs from `raw`.
    pub normalized: Option<String>,
    /// The fired lint's citation, e.g. `RFC 5280 §4.1.2.4`.
    pub citation: &'static str,
}

/// One finding: a lint that fired on a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name.
    pub lint: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Taxonomy type.
    pub nc_type: NoncomplianceType,
    /// Was the lint one of the 50 new ones?
    pub new_lint: bool,
    /// Byte-range provenance, populated only in evidence mode
    /// ([`RunOptions::evidence`] or a context built with
    /// [`LintContext::with_evidence`]); empty on the survey hot path.
    pub evidence: Vec<Evidence>,
}

/// Per-certificate lint report.
#[derive(Debug, Clone, Default)]
pub struct CertReport {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl CertReport {
    /// Any finding at all?
    pub fn is_noncompliant(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Any Error-level finding?
    pub fn has_error(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Any Warning-level finding?
    pub fn has_warning(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Warning)
    }

    /// Taxonomy types present.
    pub fn nc_types(&self) -> Vec<NoncomplianceType> {
        let mut types: Vec<_> = self.findings.iter().map(|f| f.nc_type).collect();
        types.sort();
        types.dedup();
        types
    }

    /// Did any of the 50 new lints fire?
    pub fn hit_new_lint(&self) -> bool {
        self.findings.iter().any(|f| f.new_lint)
    }
}

/// Execution options, for one certificate and for corpus-scale pipelines.
///
/// The sharding knobs (`threads`, `shard_size`) are carried here so every
/// consumer of a `RunOptions` — the survey engine, the bench binaries, the
/// CLI — shares one source of truth; [`Registry::run`] itself ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Apply effective-date gating (§3.1.2). Turning this off reproduces
    /// the paper's footnote-4 ablation (249K → 1.8M findings).
    pub enforce_effective_dates: bool,
    /// Worker threads for sharded pipelines. `None` resolves to the
    /// `UNICERT_THREADS` environment variable, falling back to
    /// [`std::thread::available_parallelism`]; `Some(1)` forces the serial
    /// path.
    pub threads: Option<usize>,
    /// Certificates per shard for sharded pipelines. `0` resolves to the
    /// `UNICERT_SHARD_SIZE` environment variable, falling back to
    /// [`RunOptions::DEFAULT_SHARD_SIZE`].
    pub shard_size: usize,
    /// Compliance profile selecting the lint catalog. `None` resolves to
    /// the `UNICERT_PROFILE` environment variable, falling back to the
    /// default [`crate::profiles::DEFAULT_PROFILE`] (`"webpki"`). Unknown
    /// names fall back to the default rather than failing the run.
    pub profile: Option<&'static str>,
    /// Capture byte-range provenance: [`Registry::run`] builds the context
    /// with [`LintContext::with_evidence`], over the certificate's encoding,
    /// so every finding carries [`Evidence`]. Off by default — the survey
    /// hot path and the guarded fingerprint never pay for provenance.
    pub evidence: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            enforce_effective_dates: true,
            threads: None,
            shard_size: 0,
            profile: None,
            evidence: false,
        }
    }
}

impl RunOptions {
    /// Shard granularity when neither `shard_size` nor `UNICERT_SHARD_SIZE`
    /// says otherwise: large enough to amortize merge cost, small enough to
    /// keep every worker busy on 10k-cert corpora.
    pub const DEFAULT_SHARD_SIZE: usize = 256;

    /// The footnote-4 ablation configuration (no effective-date gating).
    pub fn ungated() -> RunOptions {
        RunOptions { enforce_effective_dates: false, ..RunOptions::default() }
    }

    /// Validate the shared environment knobs (`UNICERT_THREADS`,
    /// `UNICERT_SHARD_SIZE`, `UNICERT_PROFILE`) *strictly*.
    ///
    /// The library resolvers below are lenient by design — a malformed
    /// value falls back along the documented chain so embedding code never
    /// fails on a stray variable. Binaries want the opposite: a typo'd
    /// `UNICERT_THREADS=fuor` silently running serial is a misconfiguration
    /// the operator should hear about. Every `unicert` binary calls this on
    /// startup and exits with status 2 on `Err`, which carries one line per
    /// offending variable.
    ///
    /// Strict rules: `UNICERT_THREADS` and `UNICERT_SHARD_SIZE`, when set,
    /// must parse as integers ≥ 1; `UNICERT_PROFILE`, when set, must name a
    /// registered profile. Unset variables are always fine.
    pub fn validate_env() -> Result<(), String> {
        let mut problems = Vec::new();
        for name in ["UNICERT_THREADS", "UNICERT_SHARD_SIZE"] {
            if let Ok(v) = std::env::var(name) {
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => {}
                    _ => problems.push(format!(
                        "{name}={v:?} is not a positive integer"
                    )),
                }
            }
        }
        if let Ok(v) = std::env::var("UNICERT_PROFILE") {
            if crate::profiles::find(&v).is_none() {
                let names: Vec<&str> =
                    crate::profiles::all().iter().map(|p| p.name).collect();
                problems.push(format!(
                    "UNICERT_PROFILE={v:?} is not a registered profile (registered: {})",
                    names.join(", ")
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }

    /// Resolve the worker-thread count: explicit option, then the
    /// `UNICERT_THREADS` environment variable, then the machine's available
    /// parallelism. Always at least 1.
    ///
    /// Lenient fallback rule (see [`RunOptions::validate_env`] for the
    /// strict binary-facing check): a `UNICERT_THREADS` value that does not
    /// parse as an integer is ignored — resolution falls through to the
    /// machine's parallelism — and `0` is clamped to 1.
    pub fn effective_threads(&self) -> usize {
        let configured = self.threads.or_else(|| {
            std::env::var("UNICERT_THREADS").ok().and_then(|v| v.parse().ok())
        });
        let n = configured.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) // analysis:allow(thread_dependence) worker-count default only; shard merge is order-independent (PR 2)
        });
        n.max(1)
    }

    /// Resolve the shard size: explicit option, then `UNICERT_SHARD_SIZE`,
    /// then [`RunOptions::DEFAULT_SHARD_SIZE`]. Always at least 1.
    ///
    /// Lenient fallback rule: an unparsable `UNICERT_SHARD_SIZE` is
    /// ignored (resolution falls through to the default) and `0` is
    /// clamped to 1. Binaries reject such values up front via
    /// [`RunOptions::validate_env`].
    pub fn effective_shard_size(&self) -> usize {
        let configured = if self.shard_size > 0 {
            Some(self.shard_size)
        } else {
            std::env::var("UNICERT_SHARD_SIZE").ok().and_then(|v| v.parse().ok())
        };
        configured.unwrap_or(Self::DEFAULT_SHARD_SIZE).max(1)
    }

    /// Resolve the compliance profile: explicit option, then the
    /// `UNICERT_PROFILE` environment variable (matched against the
    /// registered profile names), then the default profile. Always a
    /// registered profile name.
    ///
    /// Lenient fallback rule: an unregistered name (from either source)
    /// resolves to the default profile rather than failing the run.
    /// Binaries reject unknown `UNICERT_PROFILE` values up front via
    /// [`RunOptions::validate_env`].
    pub fn effective_profile(&self) -> &'static str {
        if let Some(name) = self.profile {
            return crate::profiles::find(name)
                .map(|p| p.name)
                .unwrap_or(crate::profiles::DEFAULT_PROFILE);
        }
        match std::env::var("UNICERT_PROFILE") {
            Ok(v) => crate::profiles::find(&v)
                .map(|p| p.name)
                .unwrap_or(crate::profiles::DEFAULT_PROFILE),
            Err(_) => crate::profiles::DEFAULT_PROFILE,
        }
    }
}

/// Pre-resolved telemetry handles for one lint: a run counter and a
/// latency histogram, both in the global metrics registry under the
/// lint's name as label.
struct LintInstrument {
    runs: std::sync::Arc<unicert_telemetry::Counter>,
    latency: std::sync::Arc<unicert_telemetry::Histogram>,
}

/// All telemetry handles [`Registry::run`] records into, resolved once on
/// the first instrumented run (see DESIGN.md §8 for the metric names).
struct Instruments {
    /// Parallel to `Registry::lints`.
    per_lint: Vec<LintInstrument>,
    /// `lint.findings{error}` — Error-level findings across all lints.
    errors: std::sync::Arc<unicert_telemetry::Counter>,
    /// `lint.findings{warning}` — Warning-level findings.
    warnings: std::sync::Arc<unicert_telemetry::Counter>,
    /// `lint.certs` — certificates pushed through the registry; doubles as
    /// the sequence number for latency sampling.
    certs: std::sync::Arc<unicert_telemetry::Counter>,
}

impl Instruments {
    fn resolve(lints: &[Lint]) -> Instruments {
        let registry = unicert_telemetry::global();
        Instruments {
            per_lint: lints
                .iter()
                .map(|lint| LintInstrument {
                    runs: registry.counter("lint.runs", lint.name),
                    latency: registry.histogram("lint.latency_ns", lint.name),
                })
                .collect(),
            errors: registry.counter("lint.findings", "error"),
            warnings: registry.counter("lint.findings", "warning"),
            certs: registry.counter("lint.certs", ""),
        }
    }
}

/// Shard-local accumulator for the `lint.runs` / `lint.findings` /
/// `lint.certs` counters (DESIGN.md §8).
///
/// [`Registry::run_tallied_ctx`] adds into plain locals here instead of
/// the global atomics — ~97 relaxed RMWs per certificate collapse into one
/// [`Registry::flush_tally`] per shard, which is what keeps the
/// metrics-on survey inside the §8 overhead budget. Totals are exact as
/// long as the owner flushes before its snapshot is taken (the survey
/// flushes at the end of every shard).
pub struct RunTally {
    /// Parallel to `Registry::lints`.
    counts: Vec<u64>,
    errors: u64,
    warnings: u64,
    /// Certificates seen; doubles as the latency-sampling sequence.
    certs: u64,
}

impl RunTally {
    /// Will the next [`Registry::run_tallied_ctx`] certificate be
    /// latency-timed?
    ///
    /// Exposed so callers can gate their own per-certificate timing (the
    /// survey's stage histograms) on the same 1-in-`metrics_sample()`
    /// sequence — one sampling decision for the whole hot loop.
    pub fn will_time_next(&self) -> bool {
        let sample = unicert_telemetry::metrics_sample();
        sample <= 1 || self.certs % sample == 0
    }

    /// A zero-length tally for the metrics-off lint loop, which never
    /// reads or writes it. Does not allocate.
    fn unused() -> RunTally {
        RunTally { counts: Vec::new(), errors: 0, warnings: 0, certs: 0 }
    }
}

/// The lint registry.
pub struct Registry {
    lints: Vec<Lint>,
    instruments: std::sync::OnceLock<Instruments>,
    /// Name of the compliance profile the registry was built from.
    /// Hand-assembled registries (fault-injection tests) keep the default
    /// name so their reports render exactly as before profiles existed.
    profile: &'static str,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            lints: Vec::new(),
            instruments: std::sync::OnceLock::new(),
            profile: crate::profiles::DEFAULT_PROFILE,
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").field("lints", &self.lints).finish_non_exhaustive()
    }
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Build the registry of a named compliance profile, or `None` for an
    /// unregistered name. The result is a fresh instance; pipelines that
    /// want the shared per-process copy go through
    /// [`crate::profiles::registry`] instead.
    pub fn for_profile(name: &str) -> Option<Registry> {
        crate::profiles::find(name).map(|p| p.build_registry())
    }

    /// The compliance profile this registry was built from.
    pub fn profile_name(&self) -> &'static str {
        self.profile
    }

    /// Stamp the profile name (used by the profile table's builder).
    pub(crate) fn set_profile_name(&mut self, name: &'static str) {
        self.profile = name;
    }

    /// Register a lint; names must be unique.
    pub fn register(&mut self, lint: Lint) {
        debug_assert!(
            !self.lints.iter().any(|l| l.name == lint.name),
            "duplicate lint name {}",
            lint.name
        );
        self.lints.push(lint);
    }

    /// All registered lints.
    pub fn lints(&self) -> &[Lint] {
        &self.lints
    }

    /// Iterate over registered lints in registration (Table 1) order.
    ///
    /// This is the supported introspection surface for external tooling
    /// (the `unicert-analysis` meta-linter) — combined with the
    /// [`Lint`] metadata accessors it avoids any dependence on catalog
    /// module layout.
    pub fn iter(&self) -> impl Iterator<Item = &Lint> {
        self.lints.iter()
    }

    /// Number of registered lints.
    pub fn len(&self) -> usize {
        self.lints.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.lints.is_empty()
    }

    /// Look up a lint by name.
    pub fn get(&self, name: &str) -> Option<&Lint> {
        self.lints.iter().find(|l| l.name == name)
    }

    /// Run every applicable lint against a certificate.
    ///
    /// With metrics enabled (`unicert_telemetry::metrics_enabled`) the run
    /// records exactly one `lint.runs` observation per enabled lint per
    /// certificate plus per-severity finding counters, and — on a sampled
    /// subset of certificates (`UNICERT_METRICS_SAMPLE`, default 1 in 16,
    /// counted on the global `lint.certs` sequence) — a per-lint latency
    /// histogram. The findings are identical either way: telemetry never
    /// feeds back into the report.
    ///
    /// The certificate is linted through the view parsed from `der`, as
    /// the survey lints it; with [`RunOptions::evidence`] its findings
    /// carry spans into `der`. DER that does not parse is not linted: the
    /// parse error comes back instead.
    pub fn run(&self, der: &[u8], opts: RunOptions) -> unicert_asn1::Result<CertReport> {
        let view = CertView::parse_der(der)?;
        let ctx =
            if opts.evidence { LintContext::with_evidence(&view) } else { LintContext::from_view(&view) };
        Ok(self.run_ctx(&ctx, opts))
    }

    /// [`Registry::run`] against a caller-built [`LintContext`].
    ///
    /// Use this when the same certificate also feeds other analysis stages
    /// (the survey's classify and field-matrix passes) so every stage
    /// shares one decode cache.
    pub fn run_ctx(&self, ctx: &LintContext<'_>, opts: RunOptions) -> CertReport {
        if !unicert_telemetry::metrics_enabled() {
            return self.check_all::<false, false>(ctx, opts, &mut RunTally::unused(), false);
        }
        // A one-off run takes its sampling decision from the global
        // certificate sequence and flushes its counts straight away.
        let sequence = self.instruments().certs.inc_fetch();
        let sample = unicert_telemetry::metrics_sample();
        let mut tally = self.tally();
        let report = self.check_counted(ctx, opts, &mut tally, sample <= 1 || sequence % sample == 0);
        self.flush_tally(&mut tally);
        report
    }

    fn instruments(&self) -> &Instruments {
        self.instruments.get_or_init(|| Instruments::resolve(&self.lints))
    }

    /// Fresh zeroed [`RunTally`] sized to this registry.
    pub fn tally(&self) -> RunTally {
        RunTally { counts: vec![0; self.lints.len()], errors: 0, warnings: 0, certs: 0 }
    }

    /// The batching form of [`Registry::run_ctx`] for tight survey loops.
    ///
    /// Identical findings and identical metric semantics, but the run /
    /// finding / cert counters go into `tally`'s plain locals instead of
    /// the global atomics; the caller owns flushing them with
    /// [`Registry::flush_tally`]. Latency sampling uses the tally's own
    /// certificate sequence, so each shard times one certificate in
    /// `metrics_sample()`.
    pub fn run_tallied_ctx(
        &self,
        ctx: &LintContext<'_>,
        opts: RunOptions,
        tally: &mut RunTally,
    ) -> CertReport {
        let timed = tally.will_time_next();
        tally.certs += 1;
        self.check_counted(ctx, opts, tally, timed)
    }

    /// The metrics-on lint loop: traced when this certificate is timed or
    /// the trace level is verbose, counted only otherwise.
    fn check_counted(
        &self,
        ctx: &LintContext<'_>,
        opts: RunOptions,
        tally: &mut RunTally,
        timed: bool,
    ) -> CertReport {
        // One trace-level load per certificate, not per lint.
        if timed || unicert_telemetry::trace::trace_level() >= unicert_telemetry::TraceLevel::Verbose
        {
            self.check_all::<true, true>(ctx, opts, tally, timed)
        } else {
            self.check_all::<true, false>(ctx, opts, tally, false)
        }
    }

    /// The one lint loop.
    ///
    /// Two compile-time switches pick what it records, so no instantiation
    /// carries a per-lint branch it never takes. With `METRICS` off (every
    /// metrics-off run) it never touches `tally`. With `METRICS` on it
    /// counts runs and findings into `tally`. `TRACED` (only with
    /// `METRICS`) adds a per-lint span at verbose trace level and — when
    /// `timed` — per-lint latency with consecutive timestamps: one clock
    /// read per executed lint, the delta between neighbours attributed to
    /// the lint that just ran (gating checks are folded in; they are a
    /// comparison each). The counted-only instantiation serves the
    /// certificates a metrics-on run does not time.
    fn check_all<const METRICS: bool, const TRACED: bool>(
        &self,
        ctx: &LintContext<'_>,
        opts: RunOptions,
        tally: &mut RunTally,
        timed: bool,
    ) -> CertReport {
        use std::time::Instant;
        let mut report = CertReport::default();
        let issued = ctx.validity().not_before;
        let evidence_on = ctx.evidence_enabled();
        let flight = unicert_telemetry::flight::flight_enabled();
        // Hoisted out of the per-lint loop: one trace-level load per cert.
        let verbose = TRACED
            && unicert_telemetry::trace::trace_level() >= unicert_telemetry::TraceLevel::Verbose;
        let latency = (TRACED && timed).then(|| self.instruments().per_lint.as_slice());
        let mut previous = latency.is_some().then(Instant::now);
        for (i, lint) in self.lints.iter().enumerate() {
            if opts.enforce_effective_dates && issued < lint.effective_date() {
                continue;
            }
            // An `Option`, not an inert guard: the untraced
            // instantiations then have no guard to drop per lint.
            let _span = verbose.then(|| unicert_telemetry::span!(verbose: "lint", "{}", lint.name));
            if flight {
                unicert_telemetry::flight::set_context(lint.name);
            }
            if evidence_on {
                ctx.begin_check();
            }
            let status = (lint.check)(ctx);
            if METRICS {
                if let Some(count) = tally.counts.get_mut(i) {
                    *count += 1;
                }
            }
            if TRACED {
                if let (Some(before), Some(instrument)) =
                    (previous, latency.and_then(|per_lint| per_lint.get(i)))
                {
                    let now = Instant::now(); // analysis:allow(clock) per-lint latency feeds telemetry histograms only, never report bytes
                    instrument
                        .latency
                        .record(u64::try_from(now.duration_since(before).as_nanos()).unwrap_or(u64::MAX));
                    previous = Some(now);
                }
            }
            if status == LintStatus::Violation {
                if METRICS {
                    match lint.severity {
                        Severity::Error => tally.errors += 1,
                        Severity::Warning => tally.warnings += 1,
                    }
                }
                if flight {
                    unicert_telemetry::flight::record("violation", lint.name, 0);
                }
                report.findings.push(Finding {
                    lint: lint.name,
                    severity: lint.severity,
                    nc_type: lint.nc_type,
                    new_lint: lint.new_lint,
                    evidence: if evidence_on {
                        ctx.drain_evidence(lint.citation)
                    } else {
                        Vec::new()
                    },
                });
            }
        }
        report
    }

    /// Drain `tally` into the global metrics registry and reset it.
    pub fn flush_tally(&self, tally: &mut RunTally) {
        let instruments = self.instruments();
        for (instrument, count) in instruments.per_lint.iter().zip(&mut tally.counts) {
            if *count > 0 {
                instrument.runs.add(*count);
                *count = 0;
            }
        }
        instruments.errors.add(std::mem::take(&mut tally.errors));
        instruments.warnings.add(std::mem::take(&mut tally.warnings));
        instruments.certs.add(std::mem::take(&mut tally.certs));
    }

    /// Count lints per taxonomy type as `(all, new)` — the "#Lints" columns
    /// of Table 1.
    pub fn lint_counts_by_type(&self) -> BTreeMap<NoncomplianceType, (usize, usize)> {
        let mut map = BTreeMap::new();
        for l in &self.lints {
            let e = map.entry(l.nc_type).or_insert((0usize, 0usize));
            e.0 += 1;
            if l.new_lint {
                e.1 += 1;
            }
        }
        map
    }
}

// The sharded survey pipeline borrows one registry across its worker pool;
// keep the `Send + Sync` bounds (via the boxed check closures) a hard
// compile-time guarantee rather than an accident of the current fields.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
    assert_send_sync::<Lint>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every source's const-constructed effective date must be a valid
    /// calendar date (the table is hand-maintained; this keeps it honest
    /// without a fallible lookup path).
    #[test]
    fn every_source_effective_date_is_valid() {
        for source in Source::ALL {
            let d = source.effective_date();
            let validated = DateTime::new(d.year, d.month, d.day, d.hour, d.minute, d.second)
                .unwrap_or_else(|_| panic!("invalid effective date for {}", source.label()));
            assert_eq!(validated, d, "{}", source.label());
            // Sanity: all effective dates fall in the standards era.
            assert!((2000..=2030).contains(&d.year), "{}", source.label());
        }
    }

    #[test]
    fn effective_dates_are_ordered_sanely() {
        // The two 2024 RFCs postdate everything else.
        let base = Source::Rfc5280.effective_date();
        assert!(Source::Rfc9549.effective_date() > base);
        assert!(Source::Rfc9598.effective_date() > Source::Rfc9549.effective_date());
    }

    #[test]
    fn run_options_resolution() {
        let opts = RunOptions { threads: Some(3), shard_size: 17, ..RunOptions::default() };
        assert_eq!(opts.effective_threads(), 3);
        assert_eq!(opts.effective_shard_size(), 17);
        let opts = RunOptions { threads: Some(0), ..RunOptions::default() };
        assert!(opts.effective_threads() >= 1);
        assert!(RunOptions::default().effective_shard_size() >= 1);
        assert!(!RunOptions::ungated().enforce_effective_dates);
    }
}
