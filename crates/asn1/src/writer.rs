//! DER writer producing canonical encodings.

use crate::oid::{put_base128, Oid};
use crate::strings::StringKind;
use crate::tag::{tags, Tag};
use crate::time::DateTime;

/// An append-only DER encoder over one buffer.
///
/// Nested structures are written with [`Writer::write_constructed`]. DER
/// forbids indefinite lengths, and a constructed element's length is known
/// only once its contents are written, so the writer reserves one length
/// octet, writes the contents in place and then patches the length; long
/// contents get their extra length octets spliced in. Every element of an
/// encoding lands in the same buffer, whatever its nesting depth.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer and return the encoded bytes, in a buffer whose
    /// capacity equals its length (encodings are often kept, e.g. as a
    /// certificate's `raw`, so growth slack would be held for good).
    pub fn into_bytes(self) -> Vec<u8> {
        self.out.into_boxed_slice().into_vec()
    }

    /// Bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.out
    }

    fn write_tag(&mut self, tag: Tag) {
        self.out.push(tag.first_octet());
        if tag.number >= 31 {
            // High-tag-number form: the number follows the all-ones marker
            // in base-128, the encoding OID arcs use. Five septets cover a
            // u32.
            let mut septets = [0u8; 5];
            let end = put_base128(u64::from(tag.number), &mut septets, 0);
            self.out.extend_from_slice(septets.get(..end).unwrap_or(&septets));
        }
    }

    fn write_length(&mut self, len: usize) {
        let (header, used) = length_octets(len);
        self.out.extend_from_slice(header.get(..used).unwrap_or(&header));
    }

    /// Write a complete TLV with the given tag and content octets.
    pub fn write_tlv(&mut self, tag: Tag, value: &[u8]) {
        self.write_tag(tag);
        self.write_length(value.len());
        self.out.extend_from_slice(value);
    }

    /// Append pre-encoded DER verbatim (already a complete TLV).
    pub fn write_raw(&mut self, der: &[u8]) {
        self.out.extend_from_slice(der);
    }

    /// Write a constructed element whose contents are produced by `f`,
    /// returning what `f` returns.
    ///
    /// `f` writes into this writer's own buffer, after the tag and one
    /// reserved length octet; the length is patched in afterwards, and when
    /// the contents reach 128 bytes the extra length octets are spliced in
    /// before them.
    pub fn write_constructed<R>(&mut self, tag: Tag, f: impl FnOnce(&mut Writer) -> R) -> R {
        self.write_tag(tag);
        let at = self.out.len();
        self.out.push(0);
        let result = f(self);
        let end = self.out.len();
        let (header, used) = length_octets(end.saturating_sub(at + 1));
        if used > 1 {
            // Grow by the extra length octets and shift the contents up.
            self.out.extend_from_slice(header.get(1..used).unwrap_or_default());
            self.out.copy_within(at + 1..end, at + used);
        }
        for (slot, &b) in self.out.iter_mut().skip(at).zip(header.iter().take(used)) {
            *slot = b;
        }
        result
    }

    /// Write a SEQUENCE whose contents are produced by `f`.
    pub fn write_sequence<R>(&mut self, f: impl FnOnce(&mut Writer) -> R) -> R {
        self.write_constructed(tags::SEQUENCE, f)
    }

    /// Write a SET whose contents are produced by `f`.
    ///
    /// Note: DER requires SET OF contents sorted by encoding; X.509 RDN SETs
    /// almost always hold a single element, so sorting is the caller's
    /// responsibility when it matters.
    pub fn write_set<R>(&mut self, f: impl FnOnce(&mut Writer) -> R) -> R {
        self.write_constructed(tags::SET, f)
    }

    /// Write `NULL`.
    pub fn write_null(&mut self) {
        self.write_tlv(tags::NULL, &[]);
    }

    /// Write a BOOLEAN (DER: `0xFF` for true).
    pub fn write_bool(&mut self, v: bool) {
        self.write_tlv(tags::BOOLEAN, &[if v { 0xFF } else { 0x00 }]);
    }

    /// Write a non-negative INTEGER from a u64.
    pub fn write_u64(&mut self, v: u64) {
        let body = crate::integer::encode_u64(v);
        self.write_tlv(tags::INTEGER, &body);
    }

    /// Write an INTEGER from raw big-endian unsigned magnitude bytes
    /// (a leading zero is added if needed to keep the value non-negative).
    pub fn write_unsigned_integer(&mut self, magnitude: &[u8]) {
        let body = crate::integer::encode_unsigned(magnitude);
        self.write_tlv(tags::INTEGER, &body);
    }

    /// Write an OBJECT IDENTIFIER.
    pub fn write_oid(&mut self, oid: &Oid) {
        self.write_tlv(tags::OBJECT_IDENTIFIER, oid.as_der_value());
    }

    /// Write an OCTET STRING.
    pub fn write_octet_string(&mut self, bytes: &[u8]) {
        self.write_tlv(tags::OCTET_STRING, bytes);
    }

    /// Write a BIT STRING with no unused bits.
    pub fn write_bit_string(&mut self, bytes: &[u8]) {
        let mut body = Vec::with_capacity(bytes.len() + 1);
        body.push(0);
        body.extend_from_slice(bytes);
        self.write_tlv(tags::BIT_STRING, &body);
    }

    /// Write a character string of the given ASN.1 kind.
    ///
    /// The text is encoded per the kind's wire format (UTF-8, UCS-2, …) but
    /// **not validated** against the kind's character set — see the crate
    /// docs for why the generator needs to emit noncompliant strings.
    pub fn write_string(&mut self, kind: StringKind, text: &str) {
        let body = kind.encode_lossy(text);
        self.write_tlv(kind.tag(), &body);
    }

    /// Write raw bytes under a string kind's tag (arbitrary, possibly
    /// malformed contents — the §3.2 mutation path).
    pub fn write_string_raw(&mut self, kind: StringKind, bytes: &[u8]) {
        self.write_tlv(kind.tag(), bytes);
    }

    /// Write a time value, choosing UTCTime for 1950..=2049 and
    /// GeneralizedTime otherwise, as RFC 5280 §4.1.2.5 requires.
    pub fn write_time(&mut self, dt: &DateTime) {
        if (1950..=2049).contains(&dt.year) {
            self.write_tlv(tags::UTC_TIME, dt.to_utc_time_string().as_bytes());
        } else {
            self.write_tlv(tags::GENERALIZED_TIME, dt.to_generalized_string().as_bytes());
        }
    }
}

/// The DER length octets for `len`, as a buffer and the number of its
/// leading bytes in use: one octet below 128, else `0x80 | n` followed by
/// the `n` significant big-endian bytes.
fn length_octets(len: usize) -> ([u8; 9], usize) {
    let mut header = [0u8; 9];
    if len < 0x80 {
        header[0] = len as u8;
        return (header, 1);
    }
    let bytes = (len as u64).to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count();
    let significant = bytes.get(skip..).unwrap_or(&[]);
    header[0] = 0x80 | significant.len() as u8;
    for (slot, &b) in header.iter_mut().skip(1).zip(significant) {
        *slot = b;
    }
    (header, significant.len() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_single;
    use crate::tag::Class;

    #[test]
    fn short_and_long_lengths() {
        let mut w = Writer::new();
        w.write_octet_string(&[0u8; 127]);
        assert_eq!(&w.as_bytes()[..2], &[0x04, 0x7F]);

        let mut w = Writer::new();
        w.write_octet_string(&[0u8; 128]);
        assert_eq!(&w.as_bytes()[..3], &[0x04, 0x81, 0x80]);

        let mut w = Writer::new();
        w.write_octet_string(&[0u8; 300]);
        assert_eq!(&w.as_bytes()[..4], &[0x04, 0x82, 0x01, 0x2C]);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u64(42);
            w.write_bool(true);
            w.write_null();
        });
        let der = w.into_bytes();
        let tlv = parse_single(&der).unwrap();
        let mut inner = tlv.contents();
        assert_eq!(inner.read_tlv().unwrap().value, &[42]);
        assert_eq!(inner.read_tlv().unwrap().value, &[0xFF]);
        assert_eq!(inner.read_tlv().unwrap().value, &[]);
        inner.finish().unwrap();
    }

    #[test]
    fn high_tag_number_writing() {
        let mut w = Writer::new();
        w.write_tlv(Tag::context(100), &[]);
        assert_eq!(w.as_bytes(), &[0x9F, 0x64, 0x00]);
        let tlv = parse_single(w.as_bytes()).unwrap();
        assert_eq!(tlv.tag, Tag::context(100));
    }

    /// The septet loop `write_tag` kept before it shared the OID encoder's
    /// `put_base128`, transcribed as the oracle for the high-tag form.
    fn septet_loop_tag_octets(tag: Tag) -> Vec<u8> {
        let mut out = vec![tag.first_octet()];
        if tag.number >= 31 {
            let n = tag.number;
            let top = (1..5).rev().find(|&i| (n >> (7 * i)) & 0x7F != 0).unwrap_or(0);
            for i in (1..=top).rev() {
                out.push(((n >> (7 * i)) & 0x7F) as u8 | 0x80);
            }
            out.push((n & 0x7F) as u8);
        }
        out
    }

    #[test]
    fn high_tag_numbers_match_the_septet_loop_and_read_back() {
        let numbers =
            [30, 31, 127, 128, 16_383, 16_384, (1 << 21) - 1, 1 << 21, (1 << 28) - 1, 1 << 28, u32::MAX];
        for number in numbers {
            for class in [Class::Universal, Class::Application, Class::ContextSpecific, Class::Private] {
                for constructed in [false, true] {
                    let tag = Tag { class, constructed, number };
                    let mut w = Writer::new();
                    w.write_tlv(tag, &[]);
                    let mut expected = septet_loop_tag_octets(tag);
                    expected.push(0x00);
                    assert_eq!(w.as_bytes(), &expected[..], "{tag}");
                    assert_eq!(parse_single(w.as_bytes()).map(|tlv| tlv.tag), Ok(tag));
                }
            }
        }
    }

    #[test]
    fn into_bytes_has_no_growth_slack() {
        let mut long = Writer::new();
        long.write_sequence(|w| {
            for i in 0..200u64 {
                w.write_sequence(|w| w.write_u64(i * 1_000_003));
            }
        });
        let mut short = Writer::new();
        short.write_null();
        for der in [Writer::new().into_bytes(), short.into_bytes(), long.into_bytes()] {
            assert_eq!(der.len(), der.capacity());
        }
    }

    #[test]
    fn constructed_lengths_are_patched_in_place() {
        for (contents, header) in [
            (127usize, vec![0x30, 0x7F]),
            (128, vec![0x30, 0x81, 0x80]),
            (255, vec![0x30, 0x81, 0xFF]),
            (256, vec![0x30, 0x82, 0x01, 0x00]),
            (65_535, vec![0x30, 0x82, 0xFF, 0xFF]),
            (65_536, vec![0x30, 0x83, 0x01, 0x00, 0x00]),
        ] {
            let body: Vec<u8> = (0..contents).map(|i| i as u8).collect();
            let mut w = Writer::new();
            w.write_sequence(|w| w.write_raw(&body));
            let der = w.into_bytes();
            assert_eq!(&der[..header.len()], &header[..], "{contents}");
            assert_eq!(&der[header.len()..], &body[..], "{contents}");
        }
    }

    #[test]
    fn bit_string_prepends_unused_bits() {
        let mut w = Writer::new();
        w.write_bit_string(&[0xDE, 0xAD]);
        assert_eq!(w.as_bytes(), &[0x03, 0x03, 0x00, 0xDE, 0xAD]);
    }

    #[test]
    fn time_tag_selection() {
        let mut w = Writer::new();
        w.write_time(&DateTime::new(2024, 5, 1, 0, 0, 0).unwrap());
        assert_eq!(w.as_bytes()[0], 0x17); // UTCTime
        let mut w = Writer::new();
        w.write_time(&DateTime::new(2050, 1, 1, 0, 0, 0).unwrap());
        assert_eq!(w.as_bytes()[0], 0x18); // GeneralizedTime
    }
}
