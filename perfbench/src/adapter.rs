//! Every call the benchmark makes into `unicert` goes through this file.
//!
//! Workloads and the ledger see only the functions and type aliases below,
//! so a change to the engine's entry points (one decoder, one survey
//! engine) re-points this file and renames no workload and no metric.
//! Threads, shard size and profile are fixed here through explicit
//! options, never through the environment.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use unicert::asn1::oid::known;
use unicert::asn1::{ParseBudget, StringKind};
use unicert::classify::classify_ctx;
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::lint::context::CachedVal;
use unicert::lint::helpers::Which;
use unicert::lint::{Lint, LintContext, LintStatus, NoncomplianceType, Registry, RunOptions};
use unicert::survey::{self, ParseOutcome, SurveyOptions};
use unicert::x509::CertView;
use unicert_chaos::{MutationClass, Mutator};
use unicert_store::checkpoint::{
    checkpoint_path, decode_checkpoint, encode_checkpoint, options_key,
};
use unicert_store::manifest::MANIFEST_FILE;
use unicert_store::resume::{self, ResumeOptions};
use unicert_store::segment::segment_file_name;

pub use unicert::corpus::{CertMeta, CorpusEntry, RawEntry};
pub use unicert::survey::SurveyReport as Report;
pub use unicert_store::CorpusStore as Store;

use crate::ledger::Tracer;

/// Worker threads of every parallel survey call.
pub const THREADS: usize = 2;
/// Certificates per survey chunk: the engine's default, set explicitly.
pub const CHUNK_SIZE: usize = RunOptions::DEFAULT_SHARD_SIZE;
/// Certificates per store shard: the default of the `corpus freeze`
/// command and of `bench_store`. An appended shard spans several survey
/// chunks.
pub const STORE_SHARD_SIZE: usize = 2500;
/// The compliance profile every workload lints under.
pub const PROFILE: &str = "webpki";

/// Survey options at `threads` workers with the fixed chunk size and
/// profile.
pub fn survey_options(threads: usize) -> SurveyOptions {
    SurveyOptions {
        lint: RunOptions {
            threads: Some(threads),
            shard_size: CHUNK_SIZE,
            profile: Some(PROFILE),
            ..RunOptions::default()
        },
        field_matrix: true,
    }
}

fn registry() -> &'static Registry {
    unicert::lint::profiles::registry(PROFILE).expect("the webpki profile is registered")
}

// --- Inputs --------------------------------------------------------------

/// `size` leaf certificates from the seeded corpus generator, latent
/// defects on, no precertificate twins.
pub fn generate(size: usize, seed: u64) -> Vec<CorpusEntry> {
    CorpusGenerator::new(CorpusConfig {
        size,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .collect()
}

/// A certificate's DER encoding.
pub fn der(entry: &CorpusEntry) -> &[u8] {
    &entry.cert.raw
}

/// Zero-copy survey records over `ders` with their generator metadata.
pub fn records<'a>(ders: &'a [Vec<u8>], metas: &[CertMeta]) -> Vec<RawEntry<'a>> {
    ders.iter()
        .zip(metas)
        .map(|(der, meta)| RawEntry {
            der,
            meta: meta.clone(),
        })
        .collect()
}

/// Number of chaos mutation classes; the hostile workload cycles through
/// all of them.
pub const MUTATION_CLASSES: usize = MutationClass::ALL.len();

/// A seeded chaos mutator.
pub struct Chaos(Mutator);

impl Chaos {
    pub fn new(seed: u64) -> Chaos {
        Chaos(Mutator::new(seed))
    }

    /// Rewrite `der` with mutation class number `class` (modulo the class
    /// count).
    pub fn mutate(&mut self, der: &[u8], class: usize) -> Vec<u8> {
        self.0
            .mutate(der, MutationClass::ALL[class % MUTATION_CLASSES])
    }
}

// --- Surveys ---------------------------------------------------------------

/// Survey zero-copy records whose first one sits at stream position `base`.
pub fn survey_records(records: &[RawEntry<'_>], base: u64, threads: usize) -> Report {
    survey::run_parallel_records_from(registry(), records, survey_options(threads), base)
}

/// Survey raw DER inputs under the default parse budget: serial
/// `run_bytes` at one thread, `run_parallel_bytes` otherwise.
pub fn survey_bytes(inputs: &[Vec<u8>], threads: usize) -> Report {
    let budget = ParseBudget::default();
    if threads <= 1 {
        survey::run_bytes(inputs, survey_options(1), &budget)
    } else {
        survey::run_parallel_bytes(inputs, survey_options(threads), &budget)
    }
}

/// Fold one report into another.
pub fn merge(into: &mut Report, other: Report) {
    into.merge(other);
}

/// Certificates the report linted (inputs that parsed, minus filtered
/// precertificates).
pub fn linted(report: &Report) -> usize {
    report.total
}

/// The report's order-stable fingerprint.
pub fn fingerprint(report: &Report) -> u64 {
    report.fingerprint()
}

// --- Store -----------------------------------------------------------------

/// Options of every incremental survey.
fn resume_options() -> ResumeOptions {
    ResumeOptions {
        survey: survey_options(THREADS),
        stop_after: None,
    }
}

/// Freeze `entries` into a new store at `dir`.
pub fn freeze(dir: &Path, entries: &[CorpusEntry]) -> Result<Store, String> {
    Store::freeze(dir, entries, STORE_SHARD_SIZE).map_err(|e| e.to_string())
}

/// Append `entries` as new shards.
pub fn append(store: &mut Store, entries: &[CorpusEntry]) -> Result<(), String> {
    store.append(entries).map_err(|e| e.to_string())
}

/// One incremental survey: the merged report plus how many shards came
/// from checkpoints and how many were surveyed.
pub struct Update {
    pub report: Report,
    pub resumed: usize,
    pub surveyed: usize,
}

/// Bring the report of `store` up to date, keeping checkpoints in `ckpts`.
pub fn survey_incremental(store: &Store, ckpts: &Path) -> Result<Update, String> {
    let run =
        resume::survey_incremental(store, ckpts, resume_options()).map_err(|e| e.to_string())?;
    if !run.complete || run.corrupt > 0 {
        return Err(format!(
            "incremental survey incomplete ({} corrupt shards)",
            run.corrupt
        ));
    }
    Ok(Update {
        report: run.report,
        resumed: run.resumed,
        surveyed: run.surveyed,
    })
}

/// Shards in the store.
pub fn shard_count(store: &Store) -> usize {
    store.manifest().shards.len()
}

/// Bytes on disk of the store's segments and manifest plus every
/// checkpoint in `ckpts`.
pub fn bytes_on_disk(store: &Store, ckpts: &Path) -> u64 {
    let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let manifest = file_len(&store.dir().join(MANIFEST_FILE));
    store
        .manifest()
        .shards
        .iter()
        .map(|s| s.bytes + file_len(&checkpoint_path(ckpts, s.index)))
        .sum::<u64>()
        + manifest
}

/// Bytes the last update wrote durably: the appended (last) segment, the
/// rewritten manifest, and the last shard's checkpoint.
pub fn last_update_bytes(store: &Store, ckpts: &Path) -> u64 {
    let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    store.manifest().shards.last().map_or(0, |s| {
        s.bytes
            + file_len(&checkpoint_path(ckpts, s.index))
            + file_len(&store.dir().join(MANIFEST_FILE))
    })
}

/// Undo every append after the first `keep` shards: delete the appended
/// segments and their checkpoints, write `manifest` (the bytes saved when
/// the store held `keep` shards) back, and reopen.
pub fn rewind(store: &Store, ckpts: &Path, keep: usize, manifest: &[u8]) -> Result<Store, String> {
    let dir = store.dir().to_path_buf();
    for index in keep..shard_count(store) {
        std::fs::remove_file(dir.join(segment_file_name(index))).map_err(|e| e.to_string())?;
        std::fs::remove_file(checkpoint_path(ckpts, index)).ok();
    }
    unicert_store::atomic_write(&dir.join(MANIFEST_FILE), manifest).map_err(|e| e.to_string())?;
    let reopened = Store::open(&dir).map_err(|e| e.to_string())?;
    if reopened.manifest_rebuilt() || shard_count(&reopened) != keep {
        return Err("rewound store does not match its saved manifest".to_string());
    }
    Ok(reopened)
}

/// The manifest file's bytes, saved for [`rewind`].
pub fn manifest_bytes(store: &Store) -> Result<Vec<u8>, String> {
    std::fs::read(store.dir().join(MANIFEST_FILE)).map_err(|e| e.to_string())
}

/// Decompose one finished incremental survey of `store` into traced calls
/// of the public store and survey functions it is made of: a checkpoint
/// read and decode per shard except the last, a segment read of the last
/// (the one just appended) with its survey as a child span, checkpoint
/// encode and durable write, and a merge per shard. `scratch` receives
/// the written checkpoint.
pub fn trace_update_parts(
    store: &Store,
    ckpts: &Path,
    scratch: &Path,
    t: &mut Tracer,
) -> Result<(), String> {
    let opts = resume_options();
    let key = options_key(registry(), &opts);
    let shards = &store.manifest().shards;
    let (last, older) = shards.split_last().ok_or("empty store")?;
    let mut merged = Report::default();
    for shard in older {
        let bytes =
            std::fs::read(checkpoint_path(ckpts, shard.index)).map_err(|e| e.to_string())?;
        let report = t.span("store.checkpoint_decode", || {
            decode_checkpoint(&bytes, shard, &key, registry())
        })?;
        t.span("core.merge", || merged.merge(report));
    }
    let read = t.mark();
    let report = store.with_shard_records(last, |records| {
        t.span("core.shard_survey", || {
            survey_records(records, last.start, THREADS)
        })
    });
    t.close(read, "store.segment_read");
    let report = report.map_err(|e| e.to_string())?;
    let encoded = t.span("store.checkpoint_encode", || {
        encode_checkpoint(last, &key, &report)
    });
    t.span("store.checkpoint_write", || {
        unicert_store::atomic_write(scratch, &encoded)
    })
    .map_err(|e| e.to_string())?;
    t.count("store.checkpoint_bytes", encoded.len() as u64);
    t.span("core.merge", || merged.merge(report));
    Ok(())
}

// --- Per-layer probes ---------------------------------------------------------

/// The lint families of the context cache, in the order they are warmed.
pub const FAMILIES: [&str; 4] = ["san", "dn_text", "punycode", "nfc"];

/// Lint taxonomy groups, in Table 1 order, with their metric labels.
pub const TAXONOMY: [(NoncomplianceType, &str); 6] = [
    (NoncomplianceType::InvalidCharacter, "invalid_character"),
    (NoncomplianceType::BadNormalization, "bad_normalization"),
    (NoncomplianceType::IllegalFormat, "illegal_format"),
    (NoncomplianceType::InvalidEncoding, "invalid_encoding"),
    (NoncomplianceType::InvalidStructure, "invalid_structure"),
    (NoncomplianceType::DiscouragedField, "discouraged_field"),
];

/// Span names of the per-cert decode probe, fixed so a span name is a
/// `&'static str`.
const CTX_SPANS: [&str; 4] = [
    "lint.ctx.san",
    "lint.ctx.dn_text",
    "lint.ctx.punycode",
    "lint.ctx.nfc",
];
const CHECK_SPANS: [&str; 6] = [
    "lint.check.invalid_character",
    "lint.check.bad_normalization",
    "lint.check.illegal_format",
    "lint.check.invalid_encoding",
    "lint.check.invalid_structure",
    "lint.check.discouraged_field",
];

/// The default profile's lints grouped by [`TAXONOMY`].
pub struct LintGroups(Vec<Vec<&'static Lint>>);

impl LintGroups {
    pub fn new() -> LintGroups {
        LintGroups(
            TAXONOMY
                .iter()
                .map(|(ty, _)| registry().iter().filter(|l| l.taxonomy() == *ty).collect())
                .collect(),
        )
    }
}

/// The outcome class the survey files a parse result under.
pub fn outcome_classes() -> &'static [&'static str] {
    &survey::OUTCOME_CLASSES
}

/// Every cached value the context holds: DN attribute values and the
/// extension value lists.
fn cached_values<'c>(ctx: &'c LintContext<'_>) -> impl Iterator<Item = &'c CachedVal> {
    let dn = [Which::Subject, Which::Issuer]
        .into_iter()
        .flat_map(move |w| ctx.dn_attrs(w))
        .map(|a| &a.val);
    let ext: [&[_]; 11] = [
        ctx.san_dns(),
        ctx.san_rfc822(),
        ctx.san_uri(),
        ctx.smtp_mailboxes(),
        ctx.ian_dns(),
        ctx.ian_strings(),
        ctx.aia_uris(),
        ctx.sia_uris(),
        ctx.crldp_uris(),
        ctx.explicit_texts(),
        ctx.cps_values(),
    ];
    dn.chain(ext.into_iter().flatten())
}

/// Subject values of the given string kinds.
fn subject_values<'c>(
    ctx: &'c LintContext<'_>,
    kinds: &'static [StringKind],
) -> impl Iterator<Item = &'c CachedVal> {
    ctx.dn_attrs(Which::Subject)
        .iter()
        .map(|a| &a.val)
        .filter(move |v| v.kind().is_some_and(|k| kinds.contains(&k)))
}

/// Warm one cache family through its public accessors, on the values the
/// default catalog asks of that family: every extension list (`san`);
/// both DNs, every value's wire text, and the strict decode of subject
/// Printable/Numeric/Visible strings (`dn_text`); the ACE labels of SAN
/// and IAN DNSNames and subject CNs (`punycode`); the NFC verdict of
/// subject UTF8Strings (`nfc`).
fn warm(ctx: &LintContext<'_>, family: usize) {
    use StringKind::{Numeric, Printable, Utf8, Visible};
    match family {
        0 => {
            std::hint::black_box(ctx.parsed_extensions());
            cached_values(ctx).count();
        }
        1 => {
            cached_values(ctx).for_each(|v| {
                std::hint::black_box(v.wire_text());
            });
            subject_values(ctx, &[Printable, Numeric, Visible]).for_each(|v| {
                std::hint::black_box(v.strict_ok());
            });
        }
        2 => {
            let dns = ctx.san_dns().iter().chain(ctx.ian_dns());
            let cn = ctx.attr_vals(Which::Subject, &known::common_name());
            for v in dns.chain(cn) {
                if let Some(text) = v.wire_text() {
                    ctx.any_ace_label(text, |_| false);
                }
            }
        }
        _ => subject_values(ctx, &[Utf8]).for_each(|v| {
            std::hint::black_box(v.text_is_nfc());
        }),
    }
}

/// Push one input through the layers the survey runs it through, one
/// traced call per layer: parse (or rejection), metadata inference when
/// `infer_meta`, each cache family warmed through its public accessor,
/// each taxonomy group's checks on the warm context, and classify.
/// Returns the input's parse outcome class (`"quarantined"` when the
/// parser panicked, as the survey would file it).
pub fn trace_cert(
    der: &[u8],
    infer_meta: bool,
    groups: &LintGroups,
    t: &mut Tracer,
) -> &'static str {
    let budget = ParseBudget::default();
    let depth = t.depth();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let state = budget.start();
        let mark = t.mark();
        let view = match CertView::parse_der_budgeted(der, &state) {
            Ok(view) => {
                t.close(mark, "x509.view_parse");
                view
            }
            Err(e) => {
                t.close(mark, "x509.reject");
                return ParseOutcome::from_error(&e).class();
            }
        };
        if infer_meta {
            std::hint::black_box(t.span("corpus.meta_infer", || CertMeta::inferred_view(&view)));
        }
        let ctx = LintContext::from_view(&view);
        for (family, name) in CTX_SPANS.iter().enumerate() {
            t.span(name, || warm(&ctx, family));
        }
        let issued = ctx.validity().not_before;
        for (group, name) in groups.0.iter().zip(CHECK_SPANS) {
            t.span(name, || {
                for lint in group.iter().filter(|l| issued >= l.effective_date()) {
                    std::hint::black_box((lint.check)(&ctx) == LintStatus::Violation);
                }
            });
        }
        std::hint::black_box(t.span("core.classify", || classify_ctx(&ctx)));
        ParseOutcome::Ok.class()
    }));
    outcome.unwrap_or_else(|_| {
        t.abandon(depth);
        ParseOutcome::Quarantined.class()
    })
}

/// Time the layers a clean workload's survey path never takes, on the
/// same input: metadata inference from the certificate, and the parser
/// rejecting a copy cut one byte short.
pub fn trace_off_path(der: &[u8], t: &mut Tracer) {
    let state = ParseBudget::default().start();
    if let Ok(view) = CertView::parse_der_budgeted(der, &state) {
        std::hint::black_box(t.span("corpus.meta_infer", || CertMeta::inferred_view(&view)));
    }
    let cut = &der[..der.len().saturating_sub(1)];
    let state = ParseBudget::default().start();
    std::hint::black_box(t.span("x509.reject", || {
        CertView::parse_der_budgeted(cut, &state).is_err()
    }));
}

/// Findings and per-family cache `(hit, miss)` of one input linted in
/// survey order (classify, then the whole registry) on a fresh context;
/// `None` when it does not parse.
pub fn lint_counts(der: &[u8]) -> Option<(usize, [(u64, u64); 4])> {
    let state = ParseBudget::default().start();
    let view = catch_unwind(AssertUnwindSafe(|| {
        CertView::parse_der_budgeted(der, &state).ok()
    }))
    .ok()
    .flatten()?;
    let ctx = LintContext::from_view(&view);
    std::hint::black_box(classify_ctx(&ctx));
    let findings = registry()
        .run_ctx(&ctx, survey_options(1).lint)
        .findings
        .len();
    let s = ctx.cache_stats();
    Some((findings, [s.san(), s.dn_text(), s.punycode(), s.nfc()]))
}
