//! Zero-copy DER reader.
//!
//! [`Reader`] walks a byte slice as a stream of TLV triplets. It enforces the
//! DER rules that matter for security: definite lengths only, minimal length
//! encodings, bounded nesting depth, and exact consumption.

use crate::error::{Error, Result};
use crate::tag::{tags, Class, Tag};
use std::cell::Cell;

/// Maximum nesting depth accepted by [`Reader::read_nested`] helpers.
///
/// Real certificates nest about 10 deep; 64 leaves generous headroom while
/// stopping pathological inputs (the "deep nesting" failure-injection tests
/// exercise this limit).
pub const MAX_DEPTH: usize = 64;

/// Resource limits for one parse, enforced by budgeted [`Reader`]s.
///
/// Declared DER lengths are attacker-controlled; the reader already refuses
/// to slice past the real input, but a hostile certificate can still make a
/// naive pipeline do quadratic work (nesting bombs re-walk the same bytes at
/// every level) or carry absurd element counts. A `ParseBudget` puts hard
/// ceilings on all three axes:
///
/// * `max_input` — total input size admitted at all ([`ParseBudget::admit`]);
/// * `max_tlv_bytes` — cumulative `raw` bytes over every TLV element read,
///   counting re-visits of nested content (so a depth-`d` nesting bomb costs
///   `O(d · n)` against this budget and trips it long before wall time);
/// * `max_elements` — total TLV elements decoded.
///
/// The defaults are sized for certificates (a few KB of DER, tens of
/// elements deep) with orders-of-magnitude headroom, so they only ever
/// trigger on hostile input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBudget {
    /// Maximum admissible input, in bytes.
    pub max_input: usize,
    /// Maximum cumulative element bytes (`Tlv::raw` lengths summed over all
    /// reads, nested re-reads included).
    pub max_tlv_bytes: u64,
    /// Maximum number of TLV elements decoded.
    pub max_elements: u64,
}

impl Default for ParseBudget {
    fn default() -> Self {
        ParseBudget {
            max_input: 1 << 20,          // 1 MiB — certificates are a few KB
            max_tlv_bytes: 64 << 20,     // 64 MiB of cumulative TLV traffic
            max_elements: 1 << 20,       // a million elements
        }
    }
}

impl ParseBudget {
    /// Check `input` against `max_input` before any parsing starts.
    pub fn admit(&self, input: &[u8]) -> Result<()> {
        if input.len() > self.max_input {
            return Err(Error::BudgetExceeded { resource: "input_bytes" });
        }
        Ok(())
    }

    /// Start tracking consumption against this budget.
    pub fn start(self) -> BudgetState {
        BudgetState { limits: self, tlv_bytes: Cell::new(0), elements: Cell::new(0) }
    }
}

/// Live consumption counters for one parse, shared by every [`Reader`]
/// derived from the root reader (nested readers charge the same state).
#[derive(Debug)]
pub struct BudgetState {
    limits: ParseBudget,
    tlv_bytes: Cell<u64>,
    elements: Cell<u64>,
}

impl BudgetState {
    /// Charge one decoded TLV element of `raw_len` total bytes.
    #[inline]
    fn charge(&self, raw_len: usize) -> Result<()> {
        let elements = self.elements.get().saturating_add(1);
        self.elements.set(elements);
        if elements > self.limits.max_elements {
            return Err(Error::BudgetExceeded { resource: "elements" });
        }
        let tlv_bytes = self.tlv_bytes.get().saturating_add(raw_len as u64);
        self.tlv_bytes.set(tlv_bytes);
        if tlv_bytes > self.limits.max_tlv_bytes {
            return Err(Error::BudgetExceeded { resource: "tlv_bytes" });
        }
        Ok(())
    }

    /// Check `input` against the originating budget's `max_input`, as
    /// [`ParseBudget::admit`] does. Lets a caller that holds only the
    /// started state (e.g. the zero-copy certificate view, whose borrows
    /// thread through the state) run the same admission check.
    pub fn admit(&self, input: &[u8]) -> Result<()> {
        self.limits.admit(input)
    }

    /// TLV elements decoded so far.
    pub fn elements_used(&self) -> u64 {
        self.elements.get()
    }

    /// Cumulative TLV bytes decoded so far.
    pub fn tlv_bytes_used(&self) -> u64 {
        self.tlv_bytes.get()
    }
}

/// A half-open byte range `[offset, offset + len)` into a parse input.
///
/// Spans are the unit of evidence provenance. Every slice a [`Reader`]
/// yields borrows the reader's input, however deeply nested, so an
/// element's byte range is simply where its slice sits in the root input
/// ([`Span::within`]): no offset is tracked while reading and no byte is
/// copied or read again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte within the input.
    pub offset: usize,
    /// Length of the range in bytes.
    pub len: usize,
}

impl Span {
    /// Where `part` sits in `whole`, when `part` borrows bytes of `whole`;
    /// `None` for any other slice, such as a copy of those bytes or a
    /// slice reaching past the end of `whole`.
    pub fn within(whole: &[u8], part: &[u8]) -> Option<Span> {
        let offset = part.as_ptr().addr().checked_sub(whole.as_ptr().addr())?;
        let end = offset.checked_add(part.len())?;
        (end <= whole.len()).then_some(Span { offset, len: part.len() })
    }

    /// One byte past the end of the range.
    pub fn end(&self) -> usize {
        self.offset.saturating_add(self.len)
    }

    /// The bytes of `whole` in this range (the inverse of
    /// [`Span::within`]); empty when the range reaches past its end.
    pub fn slice<'a>(&self, whole: &'a [u8]) -> &'a [u8] {
        whole.get(self.offset..self.end()).unwrap_or_default()
    }

    /// True when `other` lies entirely within this range.
    pub fn contains(&self, other: &Span) -> bool {
        other.offset >= self.offset && other.end() <= self.end()
    }

    /// True when the ranges share at least one byte.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}..{})", self.offset, self.end())
    }
}

/// One decoded TLV element, borrowing the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tlv<'a> {
    /// The element's tag.
    pub tag: Tag,
    /// The value octets (content only).
    pub value: &'a [u8],
    /// The complete element: identifier + length + content octets.
    ///
    /// Lints and the signature simulator need access to the raw bytes that
    /// were actually on the wire.
    pub raw: &'a [u8],
}

impl<'a> Tlv<'a> {
    /// A fresh reader over this element's contents (for constructed
    /// types). It starts at depth 0 and charges no budget; a parse that
    /// must charge its nested elements reads them through
    /// [`Reader::read_nested`] or [`Reader::read_optional_nested`].
    pub fn contents(&self) -> Reader<'a> {
        Reader::new(self.value)
    }

    /// Require this element to carry `expected`, else [`Error::TagMismatch`].
    #[inline]
    pub fn expect(&self, expected: Tag) -> Result<&Tlv<'a>> {
        if self.tag == expected {
            Ok(self)
        } else {
            Err(Error::TagMismatch { expected, found: self.tag })
        }
    }
}

/// A cursor over DER bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
    budget: Option<&'a BudgetState>,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `input`.
    #[inline]
    pub fn new(input: &'a [u8]) -> Reader<'a> {
        Reader { input, pos: 0, depth: 0, budget: None }
    }

    /// Start reading `input` with every decoded element charged against
    /// `budget`. Nested readers created by [`Reader::read_nested`] (and the
    /// sequence/set helpers) share the same budget state, so the limits are
    /// cumulative across the whole parse — call [`ParseBudget::admit`] on
    /// the input first to enforce `max_input`.
    #[inline]
    pub fn with_budget(input: &'a [u8], budget: &'a BudgetState) -> Reader<'a> {
        Reader { input, pos: 0, depth: 0, budget: Some(budget) }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail with [`Error::TrailingData`] unless the input is exhausted.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::TrailingData { remaining: self.remaining() })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof { needed: n - self.remaining() });
        }
        let end = self.pos.checked_add(n).ok_or(Error::InvalidLength)?;
        let out = self.input.get(self.pos..end).ok_or(Error::InvalidLength)?;
        self.pos = end;
        Ok(out)
    }

    #[inline]
    fn take_byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Peek the tag of the next element without consuming anything.
    ///
    /// Returns `None` at end of input, or when the identifier octets are
    /// malformed. Used for OPTIONAL fields.
    #[inline]
    pub fn peek_tag(&self) -> Option<Tag> {
        let rest = self.input.get(self.pos..)?;
        decode_tag(rest).ok().map(|(tag, _)| tag)
    }

    #[inline]
    fn read_tag(&mut self) -> Result<Tag> {
        let (tag, octets) = decode_tag(self.input.get(self.pos..).unwrap_or_default())?;
        self.take(octets)?;
        Ok(tag)
    }

    #[inline]
    fn read_length(&mut self) -> Result<usize> {
        let first = self.take_byte()?;
        if first < 0x80 {
            return self.admit_length(first as usize);
        }
        if first == 0x80 {
            return Err(Error::IndefiniteLength);
        }
        let n_octets = (first & 0x7F) as usize;
        if n_octets > 8 {
            return Err(Error::InvalidLength);
        }
        let bytes = self.take(n_octets)?;
        if bytes[0] == 0 {
            return Err(Error::NonMinimalLength);
        }
        let mut len: u64 = 0;
        for &b in bytes {
            len = (len << 8) | b as u64;
        }
        if len < 0x80 {
            return Err(Error::NonMinimalLength);
        }
        let len = usize::try_from(len).map_err(|_| Error::InvalidLength)?;
        self.admit_length(len)
    }

    /// Inflated-length guard: a declared length is rejected the moment it
    /// exceeds the bytes actually present, before any consumer can size an
    /// allocation or a loop bound from it. This makes "length bombs"
    /// structurally inert — no code downstream of the reader ever sees a
    /// declared length larger than the remaining input.
    #[inline]
    fn admit_length(&self, len: usize) -> Result<usize> {
        if len > self.remaining() {
            return Err(Error::UnexpectedEof { needed: len - self.remaining() });
        }
        Ok(len)
    }

    /// Read the next complete TLV element.
    #[inline]
    pub fn read_tlv(&mut self) -> Result<Tlv<'a>> {
        let start = self.pos;
        let tag = self.read_tag()?;
        let len = self.read_length()?;
        let value = self.take(len)?;
        let raw = self.input.get(start..self.pos).unwrap_or(&[]); // take() keeps pos <= input.len() and start was a prior pos
        if let Some(budget) = self.budget {
            budget.charge(raw.len())?;
        }
        Ok(Tlv { tag, value, raw })
    }

    /// Read the next element and require tag `expected`.
    #[inline]
    pub fn read_expected(&mut self, expected: Tag) -> Result<Tlv<'a>> {
        let tlv = self.read_tlv()?;
        tlv.expect(expected)?; // analysis:allow(expect) Tlv::expect returns Result, it never panics
        Ok(tlv)
    }

    /// Read an element only if its tag matches (OPTIONAL fields).
    #[inline]
    pub fn read_optional(&mut self, tag: Tag) -> Result<Option<Tlv<'a>>> {
        match self.peek_tag() {
            Some(t) if t == tag => Ok(Some(self.read_tlv()?)),
            _ => Ok(None),
        }
    }

    /// Read an element whose tag is context-specific `[n]` regardless of the
    /// constructed bit (OPTIONAL fields that implementations encode loosely).
    #[inline]
    pub fn read_optional_context(&mut self, number: u32) -> Result<Option<Tlv<'a>>> {
        match self.peek_tag() {
            Some(t) if t.class == Class::ContextSpecific && t.number == number => {
                Ok(Some(self.read_tlv()?))
            }
            _ => Ok(None),
        }
    }

    /// Read a SEQUENCE and hand its contents to `f`; `f` must consume it
    /// entirely.
    pub fn read_sequence<T>(&mut self, f: impl FnOnce(&mut Reader<'a>) -> Result<T>) -> Result<T> {
        self.read_nested(tags::SEQUENCE, f)
    }

    /// Read a SET and hand its contents to `f`; `f` must consume it entirely.
    pub fn read_set<T>(&mut self, f: impl FnOnce(&mut Reader<'a>) -> Result<T>) -> Result<T> {
        self.read_nested(tags::SET, f)
    }

    /// Read an element with tag `tag` and parse its contents with `f`,
    /// enforcing complete consumption and the depth limit.
    pub fn read_nested<T>(
        &mut self,
        tag: Tag,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T>,
    ) -> Result<T> {
        if self.depth + 1 > MAX_DEPTH {
            return Err(Error::DepthExceeded { limit: MAX_DEPTH });
        }
        let tlv = self.read_expected(tag)?;
        let mut inner =
            Reader { input: tlv.value, pos: 0, depth: self.depth + 1, budget: self.budget };
        let out = f(&mut inner)?;
        inner.finish()?;
        Ok(out)
    }

    /// [`Reader::read_nested`] for an OPTIONAL element: parse the next
    /// element's contents with `f` when it carries `tag`, else consume
    /// nothing and return `None`. The contents are read at this reader's
    /// depth plus one and charged to its budget.
    pub fn read_optional_nested<T>(
        &mut self,
        tag: Tag,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T>,
    ) -> Result<Option<T>> {
        if self.peek_tag() == Some(tag) {
            self.read_nested(tag, f).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Collect every remaining element at this level.
    pub fn read_all(&mut self) -> Result<Vec<Tlv<'a>>> {
        let mut out = Vec::new();
        while !self.is_empty() {
            out.push(self.read_tlv()?);
        }
        Ok(out)
    }
}

/// Decode the identifier octets at the start of `input`: the tag and the
/// number of octets it takes. The low form is one octet; the high tag
/// number form is base-128 with MSB continuation, at most 4 octets after
/// the first (tag numbers fit in u32 well before that), minimally encoded,
/// and only for numbers of 31 and up.
#[inline]
fn decode_tag(input: &[u8]) -> Result<(Tag, usize)> {
    let (&first, rest) = input.split_first().ok_or(Error::UnexpectedEof { needed: 1 })?;
    let (class, constructed, low) = Tag::from_first_octet(first);
    if low < 31 {
        return Ok((Tag { class, constructed, number: u32::from(low) }, 1));
    }
    // Up to five septets, the most a `u32` needs (the form `Writer` emits);
    // a number past `u32::MAX` overflows the shift below.
    let mut n: u32 = 0;
    for (octet, &b) in rest.iter().take(5).enumerate() {
        if octet == 0 && b == 0x80 {
            return Err(Error::InvalidTag); // non-minimal
        }
        n = n.checked_mul(128).ok_or(Error::InvalidTag)? | u32::from(b & 0x7F);
        if b & 0x80 == 0 {
            if n < 31 {
                return Err(Error::InvalidTag); // should have used low form
            }
            return Ok((Tag { class, constructed, number: n }, octet.saturating_add(2)));
        }
    }
    // Every octet present carried the continuation bit: the input ended
    // inside the tag, or the tag is longer than five octets.
    if rest.len() < 5 {
        Err(Error::UnexpectedEof { needed: 1 })
    } else {
        Err(Error::InvalidTag)
    }
}

/// Parse `input` as exactly one TLV element with no trailing bytes.
pub fn parse_single(input: &[u8]) -> Result<Tlv<'_>> {
    let mut r = Reader::new(input);
    let tlv = r.read_tlv()?;
    r.finish()?;
    Ok(tlv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::tags;

    #[test]
    fn reads_short_form() {
        let der = [0x02, 0x01, 0x05];
        let tlv = parse_single(&der).unwrap();
        assert_eq!(tlv.tag, tags::INTEGER);
        assert_eq!(tlv.value, &[0x05]);
        assert_eq!(tlv.raw, &der);
    }

    #[test]
    fn reads_long_form() {
        let mut der = vec![0x04, 0x81, 0x80];
        der.extend(std::iter::repeat_n(0xAB, 0x80));
        let tlv = parse_single(&der).unwrap();
        assert_eq!(tlv.value.len(), 0x80);
    }

    #[test]
    fn rejects_non_minimal_long_form() {
        // 0x7F encoded in long form.
        let mut der = vec![0x04, 0x81, 0x7F];
        der.extend(std::iter::repeat_n(0, 0x7F));
        assert_eq!(parse_single(&der).unwrap_err(), Error::NonMinimalLength);
        // Leading zero length octet.
        let der = [0x04, 0x82, 0x00, 0x81, 0x00];
        assert_eq!(parse_single(&der).unwrap_err(), Error::NonMinimalLength);
    }

    #[test]
    fn rejects_indefinite_length() {
        let der = [0x30, 0x80, 0x00, 0x00];
        assert_eq!(parse_single(&der).unwrap_err(), Error::IndefiniteLength);
    }

    #[test]
    fn rejects_truncated_value() {
        let der = [0x04, 0x05, 0x01, 0x02];
        assert_eq!(parse_single(&der).unwrap_err(), Error::UnexpectedEof { needed: 3 });
    }

    #[test]
    fn rejects_trailing_garbage() {
        let der = [0x05, 0x00, 0xFF];
        assert_eq!(parse_single(&der).unwrap_err(), Error::TrailingData { remaining: 1 });
    }

    #[test]
    fn high_tag_number_round_trip() {
        // [100] primitive, empty — 100 needs high-tag form.
        let der = [0x9F, 0x64, 0x00];
        let tlv = parse_single(&der).unwrap();
        assert_eq!(tlv.tag, Tag::context(100));
    }

    #[test]
    fn peek_tag_agrees_with_read_tlv() {
        let headers: [&[u8]; 12] = [
            &[0x02, 0x01, 0x05],                         // low form
            &[0x9F, 0x64, 0x00],                         // [100], high form
            &[0xBF, 0x81, 0x00, 0x00],                   // [128], two octets
            &[0x9F, 0xFF, 0xFF, 0xFF, 0x7F, 0x00],       // [2^28 - 1], four octets
            &[0x9F, 0x81, 0x80, 0x80, 0x80, 0x00, 0x00], // [2^28], five octets
            &[0x9F, 0x8F, 0xFF, 0xFF, 0xFF, 0x7F, 0x00], // [u32::MAX], five octets
            &[0x9F, 0x90, 0x80, 0x80, 0x80, 0x00, 0x00], // [u32::MAX + 1]
            &[0x9F, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],       // five octets, past u32
            &[0x9F, 0x80, 0x64, 0x00],                   // non-minimal
            &[0x9F, 0x05, 0x00],                         // high form below 31
            &[0x30, 0x80, 0x00, 0x00],                   // good tag, bad length
            &[],
        ];
        for header in headers {
            // Every prefix too: truncation anywhere in the header.
            for cut in 0..=header.len() {
                let input = &header[..cut];
                let reader = Reader::new(input);
                let peeked = reader.peek_tag();
                let mut tag_only = reader.clone();
                assert_eq!(peeked, tag_only.read_tag().ok(), "{input:02x?}");
                match reader.clone().read_tlv() {
                    Ok(tlv) => assert_eq!(peeked, Some(tlv.tag), "{input:02x?}"),
                    Err(e) if peeked.is_none() => assert!(
                        matches!(e, Error::InvalidTag | Error::UnexpectedEof { needed: 1 }),
                        "{input:02x?}: {e:?}"
                    ),
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn rejects_non_minimal_high_tag() {
        let der = [0x9F, 0x80, 0x64, 0x00];
        assert!(parse_single(&der).is_err());
        // High form used for a number < 31.
        let der = [0x9F, 0x05, 0x00];
        assert_eq!(parse_single(&der).unwrap_err(), Error::InvalidTag);
    }

    #[test]
    fn five_septet_tags_read_up_to_u32_max() {
        // Tag numbers that need all five septets, written by the writer's
        // own rule (`put_base128`), read back to the same tag.
        for (der, number) in [
            (&[0x9F, 0x81, 0x80, 0x80, 0x80, 0x00, 0x00][..], 1u32 << 28),
            (&[0xBF, 0x8F, 0xFF, 0xFF, 0xFF, 0x7F, 0x00][..], u32::MAX),
        ] {
            let tlv = parse_single(der).unwrap();
            assert_eq!(tlv.tag.number, number);
            assert_eq!(Reader::new(der).peek_tag(), Some(tlv.tag));
        }
        // u32::MAX + 1 and anything longer: past the number a tag holds.
        for der in [
            &[0x9F, 0x90, 0x80, 0x80, 0x80, 0x00, 0x00][..],
            &[0x9F, 0x81, 0x80, 0x80, 0x80, 0x80, 0x00, 0x00][..],
        ] {
            assert_eq!(parse_single(der).unwrap_err(), Error::InvalidTag, "{der:02x?}");
            assert_eq!(Reader::new(der).peek_tag(), None, "{der:02x?}");
        }
        // A 0x80-led number is non-minimal at any length, five septets too.
        let der = [0x9F, 0x80, 0x8F, 0xFF, 0xFF, 0x7F, 0x00];
        assert_eq!(parse_single(&der).unwrap_err(), Error::InvalidTag);
        assert_eq!(Reader::new(&der).peek_tag(), None);
        // The input ending inside a five-septet tag is a truncation.
        let der = [0x9F, 0x8F, 0xFF, 0xFF, 0xFF];
        assert_eq!(parse_single(&der).unwrap_err(), Error::UnexpectedEof { needed: 1 });
    }

    #[test]
    fn nested_sequences_respect_depth_limit() {
        // Build MAX_DEPTH + 2 nested sequences with the writer (it emits
        // long-form lengths correctly as the payload grows).
        let mut der = vec![0x05, 0x00]; // NULL core
        for _ in 0..MAX_DEPTH + 2 {
            let mut w = crate::writer::Writer::new();
            w.write_tlv(tags::SEQUENCE, &der);
            der = w.into_bytes();
        }
        fn recurse(r: &mut Reader<'_>) -> Result<()> {
            if r.peek_tag() == Some(tags::SEQUENCE) {
                r.read_sequence(recurse)
            } else {
                r.read_tlv().map(|_| ())
            }
        }
        let mut r = Reader::new(&der);
        assert_eq!(recurse(&mut r).unwrap_err(), Error::DepthExceeded { limit: MAX_DEPTH });
    }

    #[test]
    fn optional_context_reads_only_matching() {
        // [0] 0x01 then INTEGER 2
        let der = [0xA0, 0x03, 0x02, 0x01, 0x01, 0x02, 0x01, 0x02];
        let mut r = Reader::new(&der);
        assert!(r.read_optional_context(1).unwrap().is_none());
        assert!(r.read_optional_context(0).unwrap().is_some());
        assert!(r.read_optional_context(0).unwrap().is_none());
        let tlv = r.read_expected(tags::INTEGER).unwrap();
        assert_eq!(tlv.value, &[0x02]);
        r.finish().unwrap();
    }

    #[test]
    fn inflated_length_rejected_before_any_consumption() {
        // Declared length 0x7FFFFFFF on a 6-byte buffer: the length decode
        // itself must fail — no consumer may ever observe the bogus length.
        let der = [0x04, 0x84, 0x7F, 0xFF, 0xFF, 0xFF];
        let err = parse_single(&der).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }), "{err:?}");
        // Short form, same property.
        let der = [0x04, 0x30, 0x00];
        let err = parse_single(&der).unwrap_err();
        assert_eq!(err, Error::UnexpectedEof { needed: 0x30 - 1 });
    }

    #[test]
    fn budget_caps_element_count() {
        // 100 consecutive NULLs against a 10-element budget.
        let der: Vec<u8> = std::iter::repeat_n([0x05, 0x00], 100).flatten().collect();
        let budget = ParseBudget { max_elements: 10, ..ParseBudget::default() }.start();
        let mut r = Reader::with_budget(&der, &budget);
        let err = r.read_all().unwrap_err();
        assert_eq!(err, Error::BudgetExceeded { resource: "elements" });
        assert_eq!(budget.elements_used(), 11);
    }

    #[test]
    fn budget_caps_cumulative_tlv_bytes_on_nesting() {
        // A nesting bomb re-walks inner bytes at every level, so cumulative
        // TLV traffic grows quadratically with depth while the input stays
        // small. A tlv_bytes budget trips on it even below MAX_DEPTH.
        let mut der = vec![0x05, 0x00];
        for _ in 0..40 {
            let mut w = crate::writer::Writer::new();
            w.write_tlv(tags::SEQUENCE, &der);
            der = w.into_bytes();
        }
        fn recurse(r: &mut Reader<'_>) -> Result<()> {
            if r.peek_tag() == Some(tags::SEQUENCE) {
                r.read_sequence(recurse)
            } else {
                r.read_tlv().map(|_| ())
            }
        }
        let budget = ParseBudget { max_tlv_bytes: 512, ..ParseBudget::default() }.start();
        let mut r = Reader::with_budget(&der, &budget);
        assert_eq!(
            recurse(&mut r).unwrap_err(),
            Error::BudgetExceeded { resource: "tlv_bytes" }
        );
    }

    #[test]
    fn budget_admit_rejects_oversized_input() {
        let big = vec![0u8; 64];
        let budget = ParseBudget { max_input: 32, ..ParseBudget::default() };
        assert_eq!(
            budget.admit(&big).unwrap_err(),
            Error::BudgetExceeded { resource: "input_bytes" }
        );
        assert!(budget.admit(&big[..32]).is_ok());
    }

    #[test]
    fn budgeted_reader_accepts_ordinary_input() {
        let der = [0x30, 0x06, 0x02, 0x01, 0x05, 0x02, 0x01, 0x07];
        let budget = ParseBudget::default().start();
        let mut r = Reader::with_budget(&der, &budget);
        let (a, b) = r
            .read_sequence(|seq| {
                let a = seq.read_expected(tags::INTEGER)?.value.to_vec();
                let b = seq.read_expected(tags::INTEGER)?.value.to_vec();
                Ok((a, b))
            })
            .unwrap();
        r.finish().unwrap();
        assert_eq!((a.as_slice(), b.as_slice()), (&[0x05][..], &[0x07][..]));
        assert_eq!(budget.elements_used(), 3);
    }

    #[test]
    fn span_within_locates_borrowed_slices_only() {
        // SEQUENCE { INTEGER 05, SEQUENCE { INTEGER 07 } }
        let der = [0x30, 0x08, 0x02, 0x01, 0x05, 0x30, 0x03, 0x02, 0x01, 0x07];
        let mut r = Reader::new(&der);
        let (first, nested) = r
            .read_sequence(|seq| {
                let first = seq.read_tlv()?;
                let nested = seq.read_sequence(|inner| inner.read_tlv())?;
                Ok((first, nested))
            })
            .unwrap();
        // A sub-slice, and a slice read two levels deep, index the root.
        assert_eq!(Span::within(&der, first.raw), Some(Span { offset: 2, len: 3 }));
        assert_eq!(Span::within(&der, nested.raw), Some(Span { offset: 7, len: 3 }));
        assert_eq!(Span::within(&der, nested.value), Some(Span { offset: 9, len: 1 }));
        assert_eq!(Span::within(&der, &der), Some(Span { offset: 0, len: der.len() }));
        // Equal bytes elsewhere are not the input's bytes.
        let copy = nested.raw.to_vec();
        assert_eq!(Span::within(&der, &copy), None);
        // A slice that starts inside but ends past the end is not within.
        assert_eq!(Span::within(&der[..8], nested.raw), None);
        assert_eq!(Span::within(&der[3..], first.raw), None);
    }

    #[test]
    fn span_geometry() {
        let outer = Span { offset: 4, len: 10 };
        let inner = Span { offset: 6, len: 3 };
        let after = Span { offset: 14, len: 2 };
        assert_eq!(outer.end(), 14);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.overlaps(&inner));
        assert!(!outer.overlaps(&after));
        assert_eq!(inner.to_string(), "[6..9)");
    }

    #[test]
    fn sequence_contents_must_be_fully_consumed() {
        let der = [0x30, 0x03, 0x02, 0x01, 0x07];
        let mut r = Reader::new(&der);
        let err = r
            .read_sequence(|_inner| Ok(())) // consume nothing
            .unwrap_err();
        assert_eq!(err, Error::TrailingData { remaining: 3 });
    }
}
