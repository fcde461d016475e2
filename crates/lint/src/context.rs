//! The per-certificate analysis cache: decode once, lint 95 times.
//!
//! Every lint in the catalog used to independently re-walk the DN, re-parse
//! the SAN/IAN/AIA/CRLDP/CertificatePolicies extensions, re-decode attribute
//! bytes, and re-run punycode/NFC over the same DNS labels. [`LintContext`]
//! is built once per certificate and shared by the whole catalog (and by the
//! survey pipeline's classify and field-matrix stages): each derived artifact
//! is computed lazily on first use and memoized for the rest of the
//! certificate's analysis.
//!
//! The context reads one certificate representation, a [`CertView`]: the
//! zero-copy parse of the certificate's DER, whether that DER is a store
//! record, a corpus entry or an owned [`Certificate`]'s `raw`. Memoization is
//! invalidation-free by construction — the context borrows an immutable
//! view and nothing mutates it during a run, so a cached value can never
//! go stale. The context is intentionally `!Send`/`!Sync`
//! (plain `OnceCell`/`RefCell`/`Rc`, no atomics): the sharded survey pipeline
//! builds one context per certificate *inside* a worker, so cross-thread
//! sharing never happens and the caches stay free of synchronization cost.
//! The registry and its lint closures remain `Send + Sync` as before.
//!
//! Facts derived from one value are computed once too. Each [`CachedVal`]
//! records its character classes and DNSName label shape from one pass
//! over its wire text ([`crate::facts`]), and, when asked through
//! [`LintContext::ace_labels`], the verdicts of its ACE labels, filled
//! through the context's per-label map. The checks read these stored
//! results instead of re-scanning or re-splitting the text.
//!
//! In evidence mode ([`LintContext::with_evidence`]) each cached value also
//! carries its [`Origin`]: where its bytes sit in the certificate DER. Every
//! slice of a parsed view borrows that DER, so the span is read off the
//! slice itself ([`Span::within`]); only the top-level elements of each
//! extension value are found by walking the value once.
//!
//! Cache-effectiveness counters (`ctx.cache.hit` / `ctx.cache.miss`, labelled
//! by field family: `san`, `dn_text`, `punycode`, `nfc`) are tallied in plain
//! `Cell`s and flushed to the global metrics registry when the context drops,
//! and only when metrics are enabled — the hot path never touches an atomic.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use crate::facts::{CharClasses, LabelShape, ValueFacts};
use crate::framework::Evidence;
use crate::helpers::Which;
use unicert_asn1::oid::known;
use unicert_asn1::{strings, Oid, Reader, Span, StringKind};
use unicert_idna::label::{
    decode_payload, has_ace_prefix, validate_ldh, validate_nfc_u_label, ALabelStatus,
};
use unicert_idna::punycode;
use unicert_unicode::nfc;
use unicert_x509::extensions::{ParsedExtension, PolicyQualifier};
use unicert_x509::value::{self, lossy_text};
use unicert_x509::{AttrView, CertView, DnView, GeneralName, RawValue, Validity};
#[cfg(doc)]
use unicert_x509::Certificate;

/// Hit/miss tally for one cached field family.
#[derive(Debug, Default)]
struct FamilyStats {
    hit: Cell<u64>,
    miss: Cell<u64>,
}

impl FamilyStats {
    #[inline]
    fn touch(&self, hit: bool) {
        if hit {
            self.hit.set(self.hit.get().saturating_add(1));
        } else {
            self.miss.set(self.miss.get().saturating_add(1));
        }
    }
}

/// Cache-effectiveness counters for one context, grouped by field family.
///
/// `san` covers the parsed-extension caches (SAN/IAN/AIA/SIA/CRLDP/CP and
/// the value lists derived from them), `dn_text` the decoded DN attribute
/// texts, `punycode` the per-label A-label cache, and `nfc` the per-value
/// NFC verdicts.
#[derive(Debug, Default)]
pub struct CacheStats {
    san: FamilyStats,
    dn_text: FamilyStats,
    punycode: FamilyStats,
    nfc: FamilyStats,
}

impl CacheStats {
    /// `(hit, miss)` for the extension family.
    pub fn san(&self) -> (u64, u64) {
        (self.san.hit.get(), self.san.miss.get())
    }

    /// `(hit, miss)` for the DN text family.
    pub fn dn_text(&self) -> (u64, u64) {
        (self.dn_text.hit.get(), self.dn_text.miss.get())
    }

    /// `(hit, miss)` for the punycode label family.
    pub fn punycode(&self) -> (u64, u64) {
        (self.punycode.hit.get(), self.punycode.miss.get())
    }

    /// `(hit, miss)` for the NFC verdict family.
    pub fn nfc(&self) -> (u64, u64) {
        (self.nfc.hit.get(), self.nfc.miss.get())
    }
}

/// Pre-resolved `ctx.cache.*` counter handles, one pair per family.
struct CacheCounters {
    families: [(
        std::sync::Arc<unicert_telemetry::Counter>,
        std::sync::Arc<unicert_telemetry::Counter>,
    ); 4],
}

fn cache_counters() -> &'static CacheCounters {
    static COUNTERS: std::sync::OnceLock<CacheCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = unicert_telemetry::global();
        let pair = |family: &str| {
            (registry.counter("ctx.cache.hit", family), registry.counter("ctx.cache.miss", family))
        };
        CacheCounters { families: [pair("san"), pair("dn_text"), pair("punycode"), pair("nfc")] }
    })
}

/// Where a cached value sits in the certificate DER, plus its decoded
/// forms — precomputed when an evidence-mode context is built, shared by
/// reference with every [`CachedVal`] derived from that element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origin {
    /// Byte range of the value's TLV in the certificate DER.
    pub span: Span,
    /// Structural path, e.g. `tbs.subject.attr[0].value`.
    pub tlv_path: String,
    /// Lossy wire decode of the value.
    pub raw: String,
    /// NFC normalization of `raw`, when it differs.
    pub normalized: Option<String>,
}

/// The origins a lint's check touched since the last `begin_check`.
type TouchLog = Rc<RefCell<Vec<Rc<Origin>>>>;

/// Evidence-mode state: the item spans of every extension value and the
/// per-check touch log the framework drains into findings.
struct EvidenceState {
    /// [`value_items`] of each extension, in wire order.
    items: Vec<Vec<Span>>,
    touched: TouchLog,
}

/// Spans in `raw` of the top-level elements of an extension value that is
/// exactly one constructed element: one per GeneralName of a SAN/IAN, per
/// AccessDescription of an AIA/SIA, per DistributionPoint of a CRLDP, per
/// PolicyInformation of certificatePolicies. Empty for any other shape,
/// for a value with a malformed element, and for a value outside `raw`.
fn value_items(raw: &[u8], value: &[u8]) -> Vec<Span> {
    let mut r = Reader::new(value);
    let Ok(outer) = r.read_tlv() else {
        return Vec::new();
    };
    if !r.is_empty() || !outer.tag.constructed {
        return Vec::new();
    }
    let mut items = outer.contents();
    let mut out = Vec::new();
    while !items.is_empty() {
        match items.read_tlv().ok().and_then(|item| Span::within(raw, item.raw)) {
            Some(span) => out.push(span),
            None => return Vec::new(),
        }
    }
    out
}

/// A string value with memoized decode results.
///
/// Keeps the value's tag and **one** buffer: the wire text itself when the
/// content octets already are it (valid UTF-8 under UTF8String, or ASCII
/// under a single-byte kind), else the untouched octets, decoded on first
/// ask. It computes the wire decode, the strict decode verdict, the NFC
/// verdict, the per-value facts ([`crate::facts`]) and the ACE-label
/// verdicts at most once each, no matter how many lints ask. In evidence
/// mode the value also carries its [`Origin`]; every accessor then logs
/// the touch so the framework can attribute byte ranges to the finding of
/// the lint that asked.
#[derive(Debug)]
pub struct CachedVal {
    tag_number: u32,
    content: Content,
    strict_ok: OnceCell<bool>,
    nfc_ok: OnceCell<bool>,
    facts: OnceCell<ValueFacts>,
    /// Verdicts of the ACE labels, filled by [`LintContext::ace_labels`].
    ace: OnceCell<Vec<LabelInfo>>,
    stats: Rc<CacheStats>,
    /// `(origin, touch log)` — populated only in evidence mode.
    provenance: Option<(Rc<Origin>, TouchLog)>,
}

/// The one buffer of a [`CachedVal`].
#[derive(Debug)]
enum Content {
    /// Content octets that are their own wire text, kept as that text.
    /// `read` marks the first `wire_text` read, which counts the value's
    /// one `dn_text` miss exactly as a decode on first ask does.
    Text { text: Box<str>, read: Cell<bool> },
    /// Any other value: the octets, with their wire decode (`None` when
    /// undecodable) memoized on first ask.
    Octets { bytes: Box<[u8]>, wire: OnceCell<Option<Box<str>>> },
}

impl CachedVal {
    fn new(
        tag_number: u32,
        bytes: &[u8],
        stats: Rc<CacheStats>,
        provenance: Option<(Rc<Origin>, TouchLog)>,
    ) -> CachedVal {
        let own_text = StringKind::from_tag_number(tag_number).and_then(|k| k.as_wire_text(bytes));
        let content = match own_text {
            Some(text) => Content::Text { text: Box::from(text), read: Cell::new(false) },
            None => Content::Octets { bytes: Box::from(bytes), wire: OnceCell::new() },
        };
        CachedVal {
            tag_number,
            content,
            strict_ok: OnceCell::new(),
            nfc_ok: OnceCell::new(),
            facts: OnceCell::new(),
            ace: OnceCell::new(),
            stats,
            provenance,
        }
    }

    /// Log this value into the current check's touch set (evidence mode
    /// only; a no-op branch on the hot path).
    #[inline]
    fn touch_origin(&self) {
        if let Some((origin, log)) = &self.provenance {
            log.borrow_mut().push(Rc::clone(origin));
        }
    }

    /// This value's byte-range origin, when captured in evidence mode.
    pub fn origin(&self) -> Option<&Origin> {
        self.provenance.as_ref().map(|(o, _)| o.as_ref())
    }

    /// The value as a [`RawValue`]: a copy, since the cache keeps only
    /// the one buffer (prefer [`CachedVal::bytes`] and
    /// [`CachedVal::wire_text`]).
    pub fn raw(&self) -> RawValue {
        self.touch_origin();
        RawValue { tag_number: self.tag_number, bytes: self.octets().to_vec() }
    }

    /// The declared string kind, if the tag is a string type.
    pub fn kind(&self) -> Option<StringKind> {
        self.touch_origin();
        StringKind::from_tag_number(self.tag_number)
    }

    /// The content octets, untouched.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.touch_origin();
        self.octets()
    }

    #[inline]
    fn octets(&self) -> &[u8] {
        match &self.content {
            Content::Text { text, .. } => text.as_bytes(),
            Content::Octets { bytes, .. } => bytes,
        }
    }

    /// Wire-format decode (`RawValue::decode_wire`), memoized. `None` means
    /// the bytes are not decodable under the declared tag.
    #[inline]
    pub fn wire_text(&self) -> Option<&str> {
        self.touch_origin();
        match &self.content {
            Content::Text { text, read } => {
                self.stats.dn_text.touch(read.replace(true));
                Some(text)
            }
            Content::Octets { bytes, wire } => {
                self.stats.dn_text.touch(wire.get().is_some());
                wire.get_or_init(|| {
                    value::wire_text(self.tag_number, bytes)
                        .ok()
                        .map(|t| t.into_owned().into_boxed_str())
                })
                .as_deref()
            }
        }
    }

    /// Does the value pass a strict decode (`RawValue::decode_strict`)?
    /// Decided by `strings::validate`, which borrows the octets when they
    /// are their own wire text.
    pub fn strict_ok(&self) -> bool {
        self.touch_origin();
        self.stats.dn_text.touch(self.strict_ok.get().is_some());
        *self.strict_ok.get_or_init(|| {
            StringKind::from_tag_number(self.tag_number)
                .is_some_and(|k| strings::validate(k, self.octets()).is_ok())
        })
    }

    /// Is the wire-decoded text NFC-normalized? Undecodable bytes count as
    /// normalized (encoding lints own them), matching the T2 lints.
    pub fn text_is_nfc(&self) -> bool {
        self.touch_origin();
        self.stats.nfc.touch(self.nfc_ok.get().is_some());
        *self.nfc_ok.get_or_init(|| match self.wire_text() {
            Some(t) => nfc::is_nfc(t),
            None => true,
        })
    }

    /// The character classes of the wire text, from the value's one facts
    /// pass. Undecodable bytes yield the empty set: encoding lints own
    /// them, so every character check passes, as `helpers::free_of` does.
    pub fn char_classes(&self) -> CharClasses {
        self.touch_origin();
        self.facts().classes
    }

    /// The wire text's label shape, read as a DNSName, from the same pass.
    /// Undecodable bytes yield the default shape, which no shape check
    /// rejects.
    pub fn label_shape(&self) -> LabelShape {
        self.touch_origin();
        self.facts().shape
    }

    fn facts(&self) -> &ValueFacts {
        self.facts
            .get_or_init(|| self.wire_text().map_or_else(ValueFacts::default, ValueFacts::of_text))
    }
}

/// A value as found on the wire: its universal tag number and content
/// octets, borrowed from the certificate or its parsed extensions.
type WireValue<'v> = (u32, &'v [u8]);

fn wire(v: &RawValue) -> WireValue<'_> {
    (v.tag_number, &v.bytes)
}

/// One DN attribute with its cached value.
#[derive(Debug)]
pub struct DnAttr {
    /// The attribute type.
    pub oid: Oid,
    /// The cached value.
    pub val: CachedVal,
}

/// One DN's attributes plus a presence mask over the X.520 `2.5.4.n`
/// types, so asking for an absent type costs no scan.
struct DnCache {
    attrs: Vec<DnAttr>,
    /// Bit `n` is set iff some attribute has type `2.5.4.n`.
    x520: u128,
}

impl DnCache {
    fn new(attrs: Vec<DnAttr>) -> DnCache {
        let x520 = attrs.iter().filter_map(|a| x520_arc(&a.oid)).fold(0, |m, n| m | 1u128 << n);
        DnCache { attrs, x520 }
    }

    /// Can an attribute of type `oid` be present? Exact for X.520 types;
    /// `true` (scan to find out) for any other.
    fn may_hold(&self, oid: &Oid) -> bool {
        x520_arc(oid).is_none_or(|n| self.x520 & 1u128 << n != 0)
    }
}

/// The `n` of an X.520 attribute type `2.5.4.n` with `n < 128`, whose
/// content octets are `55 04 n`.
fn x520_arc(oid: &Oid) -> Option<u32> {
    match oid.as_der_value() {
        &[0x55, 0x04, n] if n < 0x80 => Some(u32::from(n)),
        _ => None,
    }
}

/// Distinct labels one context remembers. Past this, a label is computed
/// again on each ask, so a certificate listing thousands of labels cannot
/// make the linear lookup quadratic.
const LABEL_MAP_CAP: usize = 64;

/// Octets a label-map key holds inline: a DNS label has at most 63.
const INLINE_LABEL: usize = 63;

/// A label-map key, held inline for any label a DNS name can carry;
/// longer labels (hostile input only) are copied to the heap.
enum LabelKey {
    Inline { len: u8, octets: [u8; INLINE_LABEL] },
    Spilled(Box<str>),
}

impl LabelKey {
    fn new(label: &str) -> LabelKey {
        let mut octets = [0u8; INLINE_LABEL];
        match (octets.get_mut(..label.len()), u8::try_from(label.len())) {
            (Some(prefix), Ok(len)) => {
                prefix.copy_from_slice(label.as_bytes());
                LabelKey::Inline { len, octets }
            }
            _ => LabelKey::Spilled(Box::from(label)),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            LabelKey::Inline { len, octets } => octets.get(..usize::from(*len)).unwrap_or_default(),
            LabelKey::Spilled(label) => label.as_bytes(),
        }
    }
}

/// Everything the label cache knows about one DNS label, from a single
/// decode of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelInfo {
    /// The F1 classification (`classify_a_label` equivalent).
    pub status: ALabelStatus,
    /// Does the label decode to a non-NFC U-label? (T2's
    /// `has_non_nfc_label` per-label predicate.)
    pub non_nfc: bool,
    /// Did the full pipeline fail specifically with a round-trip mismatch?
    pub roundtrip_mismatch: bool,
}

impl LabelInfo {
    /// Derive every verdict the catalog asks about from one decode of the
    /// payload, reusing the U-label for the NFC verdict. Matches
    /// `classify_a_label` / the T2 lints bit for bit.
    fn compute(label: &str) -> LabelInfo {
        use ALabelStatus::*;
        let ldh_ok = validate_ldh(label).is_ok() && has_ace_prefix(label);
        let payload = label.get(4..);
        let (Some(payload), Some(Ok(u))) = (payload, payload.map(decode_payload)) else {
            // No U-label to judge: an A-label candidate is unconvertible.
            let status = if ldh_ok { Unconvertible } else { NotALabel };
            return LabelInfo { status, non_nfc: false, roundtrip_mismatch: false };
        };
        u.with_str(|text| {
            // The NFC verdict holds for any decodable payload, A-label or
            // not (T2's per-label predicate).
            let non_nfc = !nfc::is_nfc(text);
            let (status, roundtrip_mismatch) = if !ldh_ok {
                (NotALabel, false)
            } else if payload.is_empty() {
                (Unconvertible, false)
            } else if !punycode::encodes_to(u.as_slice(), payload) || text.is_ascii() {
                // Not the canonical encoding, or a "fake" all-ASCII A-label.
                (NonCanonical, true)
            } else if non_nfc || validate_nfc_u_label(text).is_err() {
                (DisallowedContent, false)
            } else {
                (Valid, false)
            };
            LabelInfo { status, non_nfc, roundtrip_mismatch }
        })
    }
}

/// The memoized per-certificate analysis context.
///
/// Built once per certificate ([`LintContext::from_view`] /
/// [`LintContext::with_evidence`]) and handed to every lint `check`, to
/// the survey classify stage, and to the field matrix. All accessors are
/// lazy: a certificate with no SAN never pays for SAN parsing, and a lint
/// that never runs never triggers its inputs.
pub struct LintContext<'c> {
    view: &'c CertView<'c>,
    stats: Rc<CacheStats>,
    /// Parse results parallel to `view.extensions` (`None` = malformed
    /// body). Iterating *all* entries preserves duplicate-extension
    /// semantics for the classify stage; the first-matching-OID scan
    /// preserves `TbsCertificate::extension` semantics for the lints.
    parsed_exts: OnceCell<Vec<Option<ParsedExtension>>>,
    subject: OnceCell<DnCache>,
    issuer: OnceCell<DnCache>,
    san_dns: OnceCell<Vec<CachedVal>>,
    san_rfc822: OnceCell<Vec<CachedVal>>,
    san_uri: OnceCell<Vec<CachedVal>>,
    smtp_mailboxes: OnceCell<Vec<CachedVal>>,
    ian_dns: OnceCell<Vec<CachedVal>>,
    ian_strings: OnceCell<Vec<CachedVal>>,
    aia_uris: OnceCell<Vec<CachedVal>>,
    sia_uris: OnceCell<Vec<CachedVal>>,
    crldp_uris: OnceCell<Vec<CachedVal>>,
    explicit_texts: OnceCell<Vec<CachedVal>>,
    cps_values: OnceCell<Vec<CachedVal>>,
    /// Label verdicts keyed by label text: a certificate carries about one
    /// ACE label, so a short vector beats hashing.
    labels: RefCell<Vec<(LabelKey, LabelInfo)>>,
    /// Evidence-mode state; `None` on the survey hot path.
    evidence: Option<EvidenceState>,
}

impl<'c> LintContext<'c> {
    /// A fresh (everything-lazy) context for one certificate's parsed
    /// view.
    pub fn from_view(view: &'c CertView<'c>) -> LintContext<'c> {
        Self::build(view, None)
    }

    /// A context that additionally captures byte-range provenance: every
    /// cached value carries its [`Origin`], and the registry drains the
    /// values each check touched into [`Evidence`] on its findings. Each
    /// span is where the value's slice sits in [`CertView::raw`].
    ///
    /// Strictly off the survey hot path — use [`LintContext::from_view`]
    /// there.
    pub fn with_evidence(view: &'c CertView<'c>) -> LintContext<'c> {
        let state = EvidenceState {
            items: view.extensions.iter().map(|e| value_items(view.raw, e.value)).collect(),
            touched: Rc::new(RefCell::new(Vec::new())),
        };
        Self::build(view, Some(state))
    }

    fn build(view: &'c CertView<'c>, evidence: Option<EvidenceState>) -> LintContext<'c> {
        LintContext {
            view,
            stats: Rc::new(CacheStats::default()),
            parsed_exts: OnceCell::new(),
            subject: OnceCell::new(),
            issuer: OnceCell::new(),
            san_dns: OnceCell::new(),
            san_rfc822: OnceCell::new(),
            san_uri: OnceCell::new(),
            smtp_mailboxes: OnceCell::new(),
            ian_dns: OnceCell::new(),
            ian_strings: OnceCell::new(),
            aia_uris: OnceCell::new(),
            sia_uris: OnceCell::new(),
            crldp_uris: OnceCell::new(),
            explicit_texts: OnceCell::new(),
            cps_values: OnceCell::new(),
            labels: RefCell::new(Vec::new()),
            evidence,
        }
    }

    /// The serial number magnitude.
    #[inline]
    pub fn serial(&self) -> &[u8] {
        self.view.serial
    }

    /// The validity window.
    #[inline]
    pub fn validity(&self) -> &Validity {
        &self.view.validity
    }

    /// Index of the first extension carrying `oid`, in wire order — the
    /// extension `TbsCertificate::extension` selects.
    #[inline]
    pub fn extension_position(&self, oid: &Oid) -> Option<usize> {
        self.view.extensions.iter().position(|e| &e.oid == oid)
    }

    /// Is an extension with `oid` present?
    #[inline]
    pub fn has_extension(&self, oid: &Oid) -> bool {
        self.extension_position(oid).is_some()
    }

    /// The criticality flag of the first extension carrying `oid`, if
    /// present.
    pub fn extension_critical(&self, oid: &Oid) -> Option<bool> {
        let idx = self.extension_position(oid)?;
        self.view.extensions.get(idx).map(|e| e.critical)
    }

    /// True if the DN has no RDNs (an "empty subject"). Distinct from
    /// having no *attributes*: an RDN with an empty SET still counts.
    pub fn dn_is_empty(&self, which: Which) -> bool {
        self.dn_view(which).is_empty()
    }

    fn dn_view(&self, which: Which) -> &'c DnView<'c> {
        match which {
            Which::Subject => &self.view.subject,
            Which::Issuer => &self.view.issuer,
        }
    }

    /// Number of attributes of type `oid` in a DN (duplicate detection).
    pub fn count_of(&self, which: Which, oid: &Oid) -> usize {
        self.attr_vals(which, oid).count()
    }

    /// This context's cache hit/miss tallies (flushed to telemetry on drop).
    pub fn cache_stats(&self) -> &CacheStats {
        &self.stats
    }

    // --- Evidence -------------------------------------------------------

    /// Was this context built with [`LintContext::with_evidence`]?
    pub fn evidence_enabled(&self) -> bool {
        self.evidence.is_some()
    }

    /// Clear the touch log before a lint's check runs (framework only).
    pub(crate) fn begin_check(&self) {
        if let Some(ev) = &self.evidence {
            ev.touched.borrow_mut().clear();
        }
    }

    /// Drain the origins the last check touched into [`Evidence`] entries,
    /// deduplicated in touch order. A check that touched nothing trackable
    /// (it read an untracked accessor such as the validity) yields one
    /// whole-TBS fallback so every finding still carries an in-bounds span.
    pub(crate) fn drain_evidence(&self, citation: &'static str) -> Vec<Evidence> {
        let Some(ev) = &self.evidence else {
            return Vec::new();
        };
        let mut touched = ev.touched.borrow_mut();
        let mut seen: Vec<*const Origin> = Vec::new();
        let mut out = Vec::new();
        for origin in touched.drain(..) {
            let ptr = Rc::as_ptr(&origin);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            out.push(Evidence {
                span: origin.span,
                tlv_path: origin.tlv_path.clone(),
                raw: origin.raw.clone(),
                normalized: origin.normalized.clone(),
                citation,
            });
        }
        if out.is_empty() {
            let span = Span::within(self.view.raw, self.view.raw_tbs)
                .unwrap_or(Span { offset: 0, len: self.view.raw.len() });
            out.push(Evidence {
                span,
                tlv_path: "tbs".to_string(),
                raw: String::new(),
                normalized: None,
                citation,
            });
        }
        out
    }

    /// Build an [`Origin`] for a value at `span`, precomputing its decoded
    /// forms (evidence mode only, so the cost is off the hot path).
    fn make_origin(
        &self,
        tag_number: u32,
        bytes: &[u8],
        span: Span,
        tlv_path: String,
    ) -> Rc<Origin> {
        let raw_text = lossy_text(tag_number, bytes).into_owned();
        let normalized = {
            let n = nfc::nfc(&raw_text);
            if n == raw_text {
                None
            } else {
                Some(n)
            }
        };
        Rc::new(Origin { span, tlv_path, raw: raw_text, normalized })
    }

    /// Provenance pair for a value, shared with the context's touch log.
    /// `None` when evidence is off. `locate` finds the value's span and
    /// path, which every value of a parsed view has.
    fn provenance(
        &self,
        tag_number: u32,
        bytes: &[u8],
        locate: impl FnOnce(&EvidenceState) -> Option<(Span, String)>,
    ) -> Option<(Rc<Origin>, TouchLog)> {
        let ev = self.evidence.as_ref()?;
        let (span, path) = locate(ev)?;
        Some((self.make_origin(tag_number, bytes, span, path), Rc::clone(&ev.touched)))
    }

    /// Cache a value that came from the `child`-th top-level element of
    /// the first extension carrying `oid`. Its origin is that element, or
    /// the whole extension value when the value has no such element.
    fn cached_ext(&self, v: WireValue<'_>, oid: &Oid, child: usize) -> CachedVal {
        let (tag_number, bytes) = v;
        let provenance = self.provenance(tag_number, bytes, |ev| {
            let idx = self.extension_position(oid)?;
            let ext = self.view.extensions.get(idx)?;
            let path = format!("tbs.ext[{idx}]({})", ext.oid);
            match ev.items.get(idx).and_then(|items| items.get(child)) {
                Some(span) => Some((*span, format!("{path}.item[{child}]"))),
                None => Some((Span::within(self.view.raw, ext.value)?, path)),
            }
        });
        CachedVal::new(tag_number, bytes, Rc::clone(&self.stats), provenance)
    }

    /// Cache the `idx`-th attribute of a DN. Its origin is the value's
    /// whole TLV.
    fn cached_dn(&self, attr: &AttrView<'_>, which: Which, idx: usize) -> CachedVal {
        let provenance = self.provenance(attr.tag_number, attr.value, |_| {
            let name = match which {
                Which::Subject => "subject",
                Which::Issuer => "issuer",
            };
            Some((attr.tlv_span(self.view.raw)?, format!("tbs.{name}.attr[{idx}].value")))
        });
        CachedVal::new(attr.tag_number, attr.value, Rc::clone(&self.stats), provenance)
    }

    // --- DNs ------------------------------------------------------------

    /// All attributes of a DN in wire order, with cached values.
    #[inline]
    pub fn dn_attrs(&self, which: Which) -> &[DnAttr] {
        &self.dn_cache(which).attrs
    }

    fn dn_cache(&self, which: Which) -> &DnCache {
        let cell = match which {
            Which::Subject => &self.subject,
            Which::Issuer => &self.issuer,
        };
        self.stats.dn_text.touch(cell.get().is_some());
        cell.get_or_init(|| {
            DnCache::new(
                self.dn_view(which)
                    .attributes()
                    .enumerate()
                    .map(|(i, a)| DnAttr { oid: a.oid.clone(), val: self.cached_dn(a, which, i) })
                    .collect(),
            )
        })
    }

    /// Cached values of one attribute type, in wire order. An absent X.520
    /// type answers from the DN's presence mask without a scan; `oid` is
    /// never cloned.
    pub fn attr_vals(&self, which: Which, oid: &Oid) -> impl Iterator<Item = &CachedVal> {
        let dn = self.dn_cache(which);
        let first = if dn.may_hold(oid) { dn.attrs.iter().position(|a| a.oid == *oid) } else { None };
        let rest = first.and_then(|i| dn.attrs.get(i..)).unwrap_or_default();
        // Match against the first hit's own type, borrowed from the cache,
        // so the iterator does not borrow `oid`.
        let key = rest.first().map(|a| &a.oid);
        rest.iter().filter(move |a| Some(&a.oid) == key).map(|a| &a.val)
    }

    // --- Extensions -----------------------------------------------------

    /// Parse results for every extension, parallel to
    /// `view.extensions`; `None` marks a malformed body.
    #[inline]
    pub fn parsed_extensions(&self) -> &[Option<ParsedExtension>] {
        self.stats.san.touch(self.parsed_exts.get().is_some());
        self.parsed_exts
            .get_or_init(|| self.view.extensions.iter().map(|e| e.parse().ok()).collect())
    }

    /// The parse result of the first extension carrying `oid` — the same
    /// extension `TbsCertificate::extension` selects.
    fn first_parsed(&self, oid: &Oid) -> Option<&ParsedExtension> {
        let index = self.extension_position(oid)?;
        self.parsed_extensions().get(index)?.as_ref()
    }

    /// The SAN GeneralNames, or empty (absent or malformed SAN).
    pub fn san(&self) -> &[GeneralName] {
        match self.first_parsed(&known::subject_alt_name()) {
            Some(ParsedExtension::SubjectAltName(names)) => names,
            _ => &[],
        }
    }

    /// The IAN GeneralNames, or empty.
    pub fn ian(&self) -> &[GeneralName] {
        match self.first_parsed(&known::issuer_alt_name()) {
            Some(ParsedExtension::IssuerAltName(names)) => names,
            _ => &[],
        }
    }

    fn gn_list<'s>(
        &'s self,
        cell: &'s OnceCell<Vec<CachedVal>>,
        ext_oid: Oid,
        names: impl Fn(&Self) -> &[GeneralName],
        pick: impl Fn(&GeneralName) -> Option<WireValue<'_>>,
    ) -> &'s [CachedVal] {
        self.stats.san.touch(cell.get().is_some());
        cell.get_or_init(|| {
            // Enumerate *before* the pick filter: a GeneralName's position
            // in the extension SEQUENCE is its child span index.
            names(self)
                .iter()
                .enumerate()
                .filter_map(|(i, n)| pick(n).map(|v| self.cached_ext(v, &ext_oid, i)))
                .collect()
        })
    }

    /// SAN DNSName values.
    pub fn san_dns(&self) -> &[CachedVal] {
        self.gn_list(&self.san_dns, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::DnsName(v) => Some(wire(v)),
            _ => None,
        })
    }

    /// SAN RFC822Name values.
    pub fn san_rfc822(&self) -> &[CachedVal] {
        self.gn_list(&self.san_rfc822, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::Rfc822Name(v) => Some(wire(v)),
            _ => None,
        })
    }

    /// SAN URI values.
    pub fn san_uri(&self) -> &[CachedVal] {
        self.gn_list(&self.san_uri, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::Uri(v) => Some(wire(v)),
            _ => None,
        })
    }

    /// SmtpUTF8Mailbox inner values from SAN OtherNames (RFC 9598): the
    /// UTF8String TLV unwrapped from its `[0] EXPLICIT` envelope.
    pub fn smtp_mailboxes(&self) -> &[CachedVal] {
        self.gn_list(&self.smtp_mailboxes, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::OtherName { type_id, value }
                if *type_id == known::smtp_utf8_mailbox() =>
            {
                let mut r = unicert_asn1::Reader::new(value);
                let outer = r.read_tlv().ok()?;
                let mut c = outer.contents();
                let inner = c.read_tlv().ok()?;
                Some((inner.tag.number, inner.value))
            }
            _ => None,
        })
    }

    /// IAN DNSName values.
    pub fn ian_dns(&self) -> &[CachedVal] {
        self.gn_list(&self.ian_dns, known::issuer_alt_name(), Self::ian, |n| match n {
            GeneralName::DnsName(v) => Some(wire(v)),
            _ => None,
        })
    }

    /// All IAN string-bearing values (DNSName, RFC822Name, URI).
    pub fn ian_strings(&self) -> &[CachedVal] {
        self.gn_list(&self.ian_strings, known::issuer_alt_name(), Self::ian, |n| match n {
            GeneralName::DnsName(v) | GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => {
                Some(wire(v))
            }
            _ => None,
        })
    }

    fn access_uri_list<'s>(
        &'s self,
        cell: &'s OnceCell<Vec<CachedVal>>,
        oid: Oid,
    ) -> &'s [CachedVal] {
        self.stats.san.touch(cell.get().is_some());
        cell.get_or_init(|| {
            let descs = match self.first_parsed(&oid) {
                Some(ParsedExtension::AuthorityInfoAccess(d))
                | Some(ParsedExtension::SubjectInfoAccess(d)) => d.as_slice(),
                _ => &[],
            };
            descs
                .iter()
                .enumerate()
                .filter_map(|(i, d)| match &d.location {
                    GeneralName::Uri(v) => Some(self.cached_ext(wire(v), &oid, i)),
                    _ => None,
                })
                .collect()
        })
    }

    /// AuthorityInfoAccess URIs.
    pub fn aia_uris(&self) -> &[CachedVal] {
        self.access_uri_list(&self.aia_uris, known::authority_info_access())
    }

    /// SubjectInfoAccess URIs.
    pub fn sia_uris(&self) -> &[CachedVal] {
        self.access_uri_list(&self.sia_uris, known::subject_info_access())
    }

    /// CRLDistributionPoints fullName URIs.
    pub fn crldp_uris(&self) -> &[CachedVal] {
        self.stats.san.touch(self.crldp_uris.get().is_some());
        self.crldp_uris.get_or_init(|| {
            let dps = match self.first_parsed(&known::crl_distribution_points()) {
                Some(ParsedExtension::CrlDistributionPoints(d)) => d.as_slice(),
                _ => &[],
            };
            let oid = known::crl_distribution_points();
            dps.iter()
                .enumerate()
                .flat_map(|(i, dp)| dp.full_names.iter().map(move |n| (i, n)))
                .filter_map(|(i, n)| match n {
                    // The DistributionPoint's index is the child span; the
                    // URI sits inside it (fullName isn't mapped deeper).
                    GeneralName::Uri(v) => Some(self.cached_ext(wire(v), &oid, i)),
                    _ => None,
                })
                .collect()
        })
    }

    /// CertificatePolicies userNotice `explicitText` values.
    pub fn explicit_texts(&self) -> &[CachedVal] {
        self.stats.san.touch(self.explicit_texts.get().is_some());
        self.explicit_texts.get_or_init(|| {
            let policies = match self.first_parsed(&known::certificate_policies()) {
                Some(ParsedExtension::CertificatePolicies(p)) => p.as_slice(),
                _ => &[],
            };
            let oid = known::certificate_policies();
            policies
                .iter()
                .enumerate()
                .flat_map(|(i, p)| p.qualifiers.iter().map(move |q| (i, q)))
                .filter_map(|(i, q)| match q {
                    PolicyQualifier::UserNotice { explicit_text: Some(t) } => {
                        Some(self.cached_ext(wire(t), &oid, i))
                    }
                    _ => None,
                })
                .collect()
        })
    }

    /// CertificatePolicies CPS qualifier values.
    pub fn cps_values(&self) -> &[CachedVal] {
        self.stats.san.touch(self.cps_values.get().is_some());
        self.cps_values.get_or_init(|| {
            let policies = match self.first_parsed(&known::certificate_policies()) {
                Some(ParsedExtension::CertificatePolicies(p)) => p.as_slice(),
                _ => &[],
            };
            let oid = known::certificate_policies();
            policies
                .iter()
                .enumerate()
                .flat_map(|(i, p)| p.qualifiers.iter().map(move |q| (i, q)))
                .filter_map(|(i, q)| match q {
                    PolicyQualifier::Cps(v) => Some(self.cached_ext(wire(v), &oid, i)),
                    _ => None,
                })
                .collect()
        })
    }

    // --- DNS labels -----------------------------------------------------

    /// Everything the IDNA pipeline says about one DNS label, cached across
    /// the whole analysis (the same label typically appears in the CN, the
    /// SAN, and the classify stage).
    pub fn label_info(&self, label: &str) -> LabelInfo {
        let cached = self
            .labels
            .borrow()
            .iter()
            .find(|(k, _)| k.as_bytes() == label.as_bytes())
            .map(|&(_, i)| i);
        if let Some(info) = cached {
            self.stats.punycode.touch(true);
            return info;
        }
        self.stats.punycode.touch(false);
        let info = LabelInfo::compute(label);
        let mut labels = self.labels.borrow_mut();
        if labels.len() < LABEL_MAP_CAP {
            labels.push((LabelKey::new(label), info));
        }
        info
    }

    /// Does any ACE-prefixed label of this DNSName text satisfy `pred`?
    pub fn any_ace_label(&self, text: &str, pred: impl Fn(LabelInfo) -> bool) -> bool {
        text.split('.').filter(|l| has_ace_prefix(l)).any(|l| pred(self.label_info(l)))
    }

    /// The verdicts of a DNSName value's ACE-prefixed labels, in order:
    /// computed on the first ask through the shared label map, then stored
    /// on the value. Empty when the value is undecodable or has no ACE
    /// label. `ace_labels(v).iter().any(pred)` equals
    /// `any_ace_label(wire text, pred)`.
    pub fn ace_labels<'v>(&self, v: &'v CachedVal) -> &'v [LabelInfo] {
        v.touch_origin();
        v.ace.get_or_init(|| match v.wire_text() {
            Some(text) => text
                .split('.')
                .filter(|l| has_ace_prefix(l))
                .map(|l| self.label_info(l))
                .collect(),
            None => Vec::new(),
        })
    }
}

impl std::fmt::Debug for LintContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LintContext")
            .field("serial", &self.serial())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Drop for LintContext<'_> {
    fn drop(&mut self) {
        if !unicert_telemetry::metrics_enabled() {
            return;
        }
        let counters = cache_counters();
        let families = [
            (&self.stats.san, &counters.families[0]),
            (&self.stats.dn_text, &counters.families[1]),
            (&self.stats.punycode, &counters.families[2]),
            (&self.stats.nfc, &counters.families[3]),
        ];
        for (stats, (hit, miss)) in families {
            if stats.hit.get() > 0 {
                hit.add(stats.hit.get());
            }
            if stats.miss.get() > 0 {
                miss.add(stats.miss.get());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::{DateTime, Tag, Writer};
    use unicert_idna::label::LabelError;
    use unicert_x509::{CertificateBuilder, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn san_dns_matches_direct_extraction() {
        let cert = builder()
            .subject_cn("a.example")
            .add_dns_san("a.example")
            .add_dns_san("xn--mnchen-3ya.de")
            .build_signed(&SimKey::from_seed("ctx"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        let direct: Vec<String> = cert.tbs.san_dns_names();
        let cached: Vec<String> =
            ctx.san_dns().iter().map(|v| v.raw().display_lossy()).collect();
        assert_eq!(direct, cached);
        // Second access must be a hit, not a recomputation.
        let (hits_before, misses_before) = ctx.cache_stats().san();
        let _ = ctx.san_dns();
        let (hits_after, misses_after) = ctx.cache_stats().san();
        assert_eq!(hits_after, hits_before + 1);
        assert_eq!(misses_after, misses_before);
    }

    #[test]
    fn wire_text_memoizes() {
        let cert = builder().subject_cn("Müller").build_signed(&SimKey::from_seed("ctx"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        let vals: Vec<_> = ctx.attr_vals(Which::Subject, &known::common_name()).collect();
        assert_eq!(vals.len(), 1);
        let v = vals[0];
        assert_eq!(v.wire_text(), Some("Müller"));
        assert_eq!(v.wire_text(), Some("Müller"));
        assert!(v.strict_ok());
        assert!(v.text_is_nfc());
        let (_, misses) = ctx.cache_stats().nfc();
        assert_eq!(misses, 1);
    }

    #[test]
    fn label_info_matches_classify_a_label() {
        let cert = builder().build_signed(&SimKey::from_seed("ctx"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        for label in [
            "xn--mnchen-3ya",
            "xn--99999999999",
            "xn--www-hn0a",
            "xn---foo",
            "plain",
            "xn--",
            "XN--MNCHEN-3YA",
        ] {
            assert_eq!(
                ctx.label_info(label).status,
                unicert_idna::label::classify_a_label(label),
                "{label}"
            );
        }
        // Cached on second ask.
        let (hits, _) = ctx.cache_stats().punycode();
        ctx.label_info("xn--mnchen-3ya");
        let (hits_after, _) = ctx.cache_stats().punycode();
        assert_eq!(hits_after, hits + 1);
    }

    #[test]
    fn label_info_non_nfc_and_roundtrip_match_t2_logic() {
        let cert = builder().build_signed(&SimKey::from_seed("ctx"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        let decomposed = "mu\u{308}nchen";
        let a = format!("xn--{}", punycode::encode(decomposed).unwrap());
        assert!(ctx.label_info(&a).non_nfc);
        assert!(!ctx.label_info("xn--mnchen-3ya").non_nfc);
        for label in ["xn---foo", "xn--mnchen-3ya", "xn--tda"] {
            assert_eq!(
                ctx.label_info(label).roundtrip_mismatch,
                matches!(
                    unicert_idna::label::a_to_u(label),
                    Err(LabelError::RoundTripMismatch)
                ),
                "{label}"
            );
        }
    }

    #[test]
    fn evidence_mode_attaches_in_bounds_spans() {
        let decomposed = "mu\u{308}nchen"; // non-NFC CN text
        let cert = builder()
            .subject_cn(decomposed)
            .add_dns_san("a.example")
            .build_signed(&SimKey::from_seed("ctx-ev"));
        let registry = crate::catalog::default_registry();
        let opts = crate::framework::RunOptions { evidence: true, ..Default::default() };
        let report = registry.run(&cert.raw, opts).unwrap();
        assert!(report.is_noncompliant());
        for f in &report.findings {
            assert!(!f.evidence.is_empty(), "{} has no evidence", f.lint);
            for e in &f.evidence {
                assert!(e.span.len > 0, "{} empty span", f.lint);
                assert!(e.span.end() <= cert.raw.len(), "{} span out of bounds", f.lint);
                assert!(!e.tlv_path.is_empty());
            }
        }
        // The NFC lints read the CN through the cache, so at least one
        // finding must anchor to the subject attribute value, carrying
        // both the wire text and its normalization.
        let cn_ev = report
            .findings
            .iter()
            .flat_map(|f| f.evidence.iter())
            .find(|e| e.tlv_path.contains("subject.attr"))
            .expect("no finding anchored to the subject CN");
        assert_eq!(cn_ev.raw, decomposed);
        assert_eq!(cn_ev.normalized.as_deref(), Some("münchen"));
    }

    /// The bytes of `raw` a span covers.
    fn bytes_at(raw: &[u8], span: Span) -> &[u8] {
        &raw[span.offset..span.end()]
    }

    #[test]
    fn dn_attribute_origins_are_the_value_tlvs_inside_their_name() {
        let cert = builder()
            .subject_attr(known::country_name(), StringKind::Printable, "DE")
            .subject_attr(known::organization_name(), StringKind::Utf8, "Müller GmbH")
            .subject_cn("mu\u{308}nchen.example")
            .issuer_org("Span CA")
            .build_signed(&SimKey::from_seed("ctx-ev"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::with_evidence(&view);
        for (which, dn, label) in [
            (Which::Subject, &cert.tbs.subject, "subject"),
            (Which::Issuer, &cert.tbs.issuer, "issuer"),
        ] {
            let name = dn.to_der();
            let name_at = cert.raw.windows(name.len()).position(|w| w == name).unwrap();
            let name_span = Span { offset: name_at, len: name.len() };
            let attrs = ctx.dn_attrs(which);
            assert_eq!(attrs.len(), dn.attributes().count(), "{label}");
            for (i, (attr, owned)) in attrs.iter().zip(dn.attributes()).enumerate() {
                let origin = attr.val.origin().expect("evidence mode records origins");
                assert_eq!(origin.tlv_path, format!("tbs.{label}.attr[{i}].value"));
                assert!(name_span.contains(&origin.span), "{label}[{i}] outside its Name");
                let mut tlv = Writer::new();
                tlv.write_tlv(Tag::universal(owned.value.tag_number), &owned.value.bytes);
                let found = bytes_at(&cert.raw, origin.span);
                assert!(found.ends_with(&owned.value.bytes), "{label}[{i}] value octets");
                assert_eq!(found, tlv.as_bytes(), "{label}[{i}] is the whole value TLV");
            }
        }
    }

    #[test]
    fn san_dns_origins_are_the_extension_items() {
        let names = ["a.example", "xn--mnchen-3ya.de", "c.example"];
        let mut b = builder().subject_cn("a.example");
        for name in names {
            b = b.add_dns_san(name);
        }
        let cert = b.build_signed(&SimKey::from_seed("ctx-ev"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::with_evidence(&view);
        let san = ctx.extension_position(&known::subject_alt_name()).unwrap();
        let vals = ctx.san_dns();
        assert_eq!(vals.len(), names.len());
        for (k, (val, name)) in vals.iter().zip(names).enumerate() {
            let origin = val.origin().unwrap();
            assert_eq!(origin.tlv_path, format!("tbs.ext[{san}](2.5.29.17).item[{k}]"));
            let found = bytes_at(&cert.raw, origin.span);
            assert_eq!(found.len(), name.len() + 2, "item[{k}] is one GeneralName TLV");
            assert!(found.ends_with(name.as_bytes()), "item[{k}] ends with {name}");
        }
    }

    #[test]
    fn untracked_checks_fall_back_to_the_tbs() {
        let cert = builder().subject_cn("a.example").build_signed(&SimKey::from_seed("ctx-ev"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::with_evidence(&view);
        ctx.begin_check();
        let evidence = ctx.drain_evidence("none");
        assert_eq!(evidence.len(), 1);
        assert_eq!(evidence[0].tlv_path, "tbs");
        assert_eq!(bytes_at(&cert.raw, evidence[0].span), cert.raw_tbs());
    }

    #[test]
    fn unparseable_raw_is_a_parse_failure() {
        let mut cert = builder()
            .subject_cn("mu\u{308}nchen")
            .add_dns_san("a.example")
            .build_signed(&SimKey::from_seed("ctx-ev"));
        let registry = crate::catalog::default_registry();
        assert!(registry.run(&cert.raw, crate::framework::RunOptions::default()).is_ok());
        // Trailing garbage: the tree is intact, its encoding no longer
        // parses, so the certificate is not linted at all.
        cert.raw.push(0x00);
        let err = CertView::parse_der(&cert.raw).unwrap_err();
        for evidence in [false, true] {
            let opts = crate::framework::RunOptions { evidence, ..Default::default() };
            assert_eq!(registry.run(&cert.raw, opts).unwrap_err(), err, "evidence {evidence}");
        }
    }

    #[test]
    fn evidence_off_leaves_findings_bare() {
        let cert = builder()
            .subject_cn("mu\u{308}nchen")
            .build_signed(&SimKey::from_seed("ctx-ev"));
        let registry = crate::catalog::default_registry();
        let report = registry.run(&cert.raw, crate::framework::RunOptions::default()).unwrap();
        assert!(report.is_noncompliant());
        assert!(report.findings.iter().all(|f| f.evidence.is_empty()));
    }

    #[test]
    fn absent_extensions_yield_empty_lists() {
        let cert = builder().subject_cn("no-ext.example").build_signed(&SimKey::from_seed("ctx"));
        let view = CertView::parse_der(&cert.raw).unwrap();
        let ctx = LintContext::from_view(&view);
        assert!(ctx.san_rfc822().is_empty());
        assert!(ctx.ian_strings().is_empty());
        assert!(ctx.aia_uris().is_empty());
        assert!(ctx.sia_uris().is_empty());
        assert!(ctx.crldp_uris().is_empty());
        assert!(ctx.explicit_texts().is_empty());
        assert!(ctx.cps_values().is_empty());
        assert!(ctx.smtp_mailboxes().is_empty());
    }
}
