//! Segment-file framing: the columnar on-disk form of one corpus shard.
//!
//! Layout (version 1):
//!
//! ```text
//! "unicert-store segment v1\n"          ASCII header line
//! u32le shard_index
//! u32le record_count
//! record × record_count:
//!     u32le der_len,  der bytes         the certificate, exactly as built
//!     u32le meta_len, meta bytes        tab-framed metadata columns
//! u64le fnv                             FNV-1a 64 over everything above
//! ```
//!
//! The trailing fingerprint makes every segment *self-validating*: a
//! manifest lost to corruption can be rebuilt from the segments alone.
//! Decoding never trusts a length field further than the bytes actually
//! present — a hostile or torn length prefix classifies as corruption, it
//! never drives an allocation or an out-of-bounds read.
//!
//! Metadata columns persist exactly the fields the survey's aggregation
//! kernel reads (`issuer_org`, `trust`) plus the descriptive fields
//! (`issued`, `validity_days`, `is_idn_cert`, `is_precert`). The
//! generator-internal `injected`/`latent` defect bookkeeping is *dropped*
//! at freeze: it is survey-invisible (nothing downstream of the generator
//! reads it), and its defect enum does not map injectively to lint names,
//! so persisting it would pin a generator detail into the format for
//! nothing. A loaded entry carries `injected: None, latent: false`.

use crate::{escape, fnv64, fnv64_extend, unescape, Corruption};
use unicert_asn1::{DateTime, ParseBudget};
use unicert_corpus::{CertMeta, CorpusEntry, RawEntry, TrustStatus};
use unicert_x509::{CertDer, CertView};

/// The exact header line every version-1 segment file starts with.
pub const SEGMENT_HEADER: &str = "unicert-store segment v1\n";

/// Prefix shared by every segment format version — a file starting with
/// this but not with [`SEGMENT_HEADER`] is a version-skewed segment.
pub const SEGMENT_HEADER_FAMILY: &str = "unicert-store segment v";

/// Canonical file name for shard `index`: `shard-00042.seg`.
pub fn segment_file_name(index: usize) -> String {
    format!("shard-{index:05}.seg")
}

/// Encode one shard's entries into segment-file bytes (header, records,
/// trailing fingerprint), returning the bytes with their whole-file
/// fingerprint — the value the manifest records — so callers need not hash
/// the segment again.
///
/// Records are written straight into one buffer sized up front: each
/// metadata line is written in place behind a placeholder length prefix
/// that is filled in afterwards, so no record allocates.
pub fn encode_segment(index: usize, entries: &[CorpusEntry]) -> (Vec<u8>, u64) {
    // Per record: two length prefixes, the DER, and a metadata line of at
    // most twice the issuer (every byte escaped) plus at most 62 bytes of
    // fixed columns; then index, count and trailer.
    let records: usize = entries
        .iter()
        .map(|e| 8 + e.cert.raw.len() + 2 * e.meta.issuer_org.len() + 64)
        .sum();
    let mut out = Vec::with_capacity(SEGMENT_HEADER.len() + 16 + records); // analysis:allow(unbounded_alloc) bounds the encoding of in-memory entries being written, not parsed input
    out.extend_from_slice(SEGMENT_HEADER.as_bytes());
    out.extend_from_slice(&(index as u32).to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for entry in entries {
        let der = &entry.cert.raw;
        out.extend_from_slice(&(der.len() as u32).to_le_bytes());
        out.extend_from_slice(der);
        let prefix_at = out.len();
        out.extend_from_slice(&[0; 4]);
        write_meta(&mut out, &entry.meta);
        let meta_len = (out.len() - prefix_at - 4) as u32;
        if let Some(prefix) = out.get_mut(prefix_at..prefix_at + 4) {
            prefix.copy_from_slice(&meta_len.to_le_bytes());
        }
    }
    let body_fp = fnv64(&out);
    let trailer = body_fp.to_le_bytes();
    out.extend_from_slice(&trailer);
    (out, fnv64_extend(body_fp, &trailer))
}

/// Take the next `len` bytes, or `None` when the file runs out first.
fn take<'a>(data: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(len)?;
    let slice = data.get(*pos..end)?;
    *pos = end;
    Some(slice)
}

/// Take the next little-endian u32 length/count field.
fn take_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes = take(data, pos, 4)?;
    Some(u32::from_le_bytes([
        *bytes.first()?,
        *bytes.get(1)?,
        *bytes.get(2)?,
        *bytes.get(3)?,
    ]))
}

/// Decode and fully validate one segment file against its manifest row:
/// [`decode_segment_records`] with each record's DER copied out of
/// `data`, so the entries outlive the read buffer.
///
/// `expected_bytes`/`expected_fingerprint` come from the manifest; pass
/// `None` when rebuilding a manifest (the self-trailer still validates the
/// content). Checks run in the fixed classification priority order
/// documented on [`Corruption`].
pub fn decode_segment(
    data: &[u8],
    expected_index: usize,
    expected_bytes: Option<u64>,
    expected_fingerprint: Option<u64>,
) -> Result<Vec<CorpusEntry>, Corruption> {
    let records = decode_segment_records(data, expected_index, expected_bytes, expected_fingerprint)?;
    Ok(records
        .into_iter()
        .map(|RawEntry { der, meta }| CorpusEntry { cert: CertDer { raw: der.to_vec() }, meta })
        .collect())
}

/// Zero-copy form of [`decode_segment`]: the same validation, in the same
/// classification priority order — including the per-record proof that
/// every certificate parses as a [`CertView`] under the default budget —
/// but the returned records *borrow* their DER from `data`. This is the
/// decoder of `CorpusStore::with_shard_records`, and the full validator
/// the survey resume path falls back to when a record fails to parse.
pub fn decode_segment_records<'a>(
    data: &'a [u8],
    expected_index: usize,
    expected_bytes: Option<u64>,
    expected_fingerprint: Option<u64>,
) -> Result<Vec<RawEntry<'a>>, Corruption> {
    let budget = ParseBudget::default();
    decode_segment_with(data, expected_index, expected_bytes, expected_fingerprint, |der| {
        // The view only has to exist long enough to prove the record
        // parses; what the caller keeps is the borrowed DER itself.
        CertView::parse_der_budgeted(der, &budget.start()).map(|_| ())
    })
}

/// [`decode_segment_records`] without the per-record parse proof: the
/// framing, header, size, both fingerprints, record frames, metadata
/// columns and shard index are all checked, but no certificate is parsed.
///
/// This is the first half of the single-parse resume path
/// (`CorpusStore::survey_shard`): the survey's own budgeted parse of each
/// record then serves as the proof, and a segment whose records do not
/// all parse is re-classified through [`decode_segment_records`], so
/// corruption classes and details come from one validator.
pub(crate) fn decode_segment_frames<'a>(
    data: &'a [u8],
    expected_index: usize,
    expected_bytes: Option<u64>,
    expected_fingerprint: Option<u64>,
) -> Result<Vec<RawEntry<'a>>, Corruption> {
    decode_segment_with(data, expected_index, expected_bytes, expected_fingerprint, |_| Ok(()))
}

/// The shared validation core of [`decode_segment_records`] and
/// [`decode_segment_frames`]: runs checks 1–6 in the fixed classification
/// priority order, delegating only the per-record certificate proof to
/// `check_cert` so the decoders cannot drift.
fn decode_segment_with<'a>(
    data: &'a [u8],
    expected_index: usize,
    expected_bytes: Option<u64>,
    expected_fingerprint: Option<u64>,
    mut check_cert: impl FnMut(&[u8]) -> Result<(), unicert_asn1::Error>,
) -> Result<Vec<RawEntry<'a>>, Corruption> {
    let header_len = SEGMENT_HEADER.len();
    // 1. Gross framing: header + index + count + trailer minimum.
    if data.len() < header_len + 4 + 4 + 8 {
        return Err(Corruption::TornWrite(format!(
            "segment is {} bytes, shorter than the minimum framing",
            data.len()
        )));
    }
    // 2. Header / format version.
    let header = data.get(..header_len).unwrap_or_default();
    if header != SEGMENT_HEADER.as_bytes() {
        if data.starts_with(SEGMENT_HEADER_FAMILY.as_bytes()) {
            let line: String = data
                .iter()
                .take(48)
                .take_while(|&&b| b != b'\n')
                .map(|&b| b as char)
                .collect();
            return Err(Corruption::VersionSkew(format!(
                "unsupported segment version: {line:?} (this build reads v1)"
            )));
        }
        return Err(Corruption::FingerprintMismatch(
            "unrecognized segment header".to_string(),
        ));
    }
    // 3. Size vs the manifest's byte count.
    if let Some(expected) = expected_bytes {
        if (data.len() as u64) < expected {
            return Err(Corruption::TornWrite(format!(
                "segment is {} of {expected} manifest bytes",
                data.len()
            )));
        }
        if (data.len() as u64) > expected {
            return Err(Corruption::FingerprintMismatch(format!(
                "segment is {} bytes, larger than the {expected} the manifest records",
                data.len()
            )));
        }
    }
    // Checks 4 and 5 share one pass over the body: its hash is the
    // self-check, and extending it over the 8-byte trailer gives the
    // whole-file fingerprint the manifest records.
    let body_len = data.len() - 8;
    let body = data.get(..body_len).unwrap_or_default();
    let trailer = data.get(body_len..).unwrap_or_default();
    let body_hash = fnv64(body);
    // 4. Whole-file fingerprint vs the manifest.
    if let Some(expected) = expected_fingerprint {
        let actual = fnv64_extend(body_hash, trailer);
        if actual != expected {
            return Err(Corruption::FingerprintMismatch(format!(
                "segment fingerprint {actual:016x} != manifest {expected:016x}"
            )));
        }
    }
    // 5. Self-validating trailer: FNV over everything before the last 8
    // bytes must equal those 8 bytes.
    let mut trailer_bytes = [0u8; 8];
    for (dst, src) in trailer_bytes.iter_mut().zip(trailer) {
        *dst = *src;
    }
    let stored = u64::from_le_bytes(trailer_bytes);
    if stored != body_hash {
        return Err(Corruption::FingerprintMismatch(format!(
            "segment self-check {body_hash:016x} != stored trailer {stored:016x}"
        )));
    }
    // 6. Record structure.
    let mut pos = header_len;
    let index = take_u32(body, &mut pos).map(|v| v as usize);
    let count = take_u32(body, &mut pos).map(|v| v as usize);
    let (Some(index), Some(count)) = (index, count) else {
        return Err(Corruption::TornWrite("segment header fields truncated".to_string()));
    };
    if index != expected_index {
        return Err(Corruption::FingerprintMismatch(format!(
            "segment carries shard index {index}, expected {expected_index}"
        )));
    }
    let mut entries = Vec::new();
    for record in 0..count {
        let frame_err = || {
            Corruption::TornWrite(format!(
                "record {record} of {count} overruns the segment"
            ))
        };
        let Some(der_len) = take_u32(body, &mut pos) else { return Err(frame_err()) };
        let Some(der) = take(body, &mut pos, der_len as usize) else {
            return Err(frame_err());
        };
        let Some(meta_len) = take_u32(body, &mut pos) else { return Err(frame_err()) };
        let Some(meta_bytes) = take(body, &mut pos, meta_len as usize) else {
            return Err(frame_err());
        };
        check_cert(der).map_err(|e| {
            Corruption::FingerprintMismatch(format!(
                "record {record}: certificate does not parse ({})",
                e.class()
            ))
        })?;
        let meta_text = std::str::from_utf8(meta_bytes).map_err(|_| {
            Corruption::FingerprintMismatch(format!("record {record}: metadata is not UTF-8"))
        })?;
        let meta = decode_meta(meta_text).map_err(|detail| {
            Corruption::FingerprintMismatch(format!("record {record}: {detail}"))
        })?;
        entries.push(RawEntry { der, meta });
    }
    if pos != body_len {
        return Err(Corruption::FingerprintMismatch(format!(
            "segment carries {} trailing bytes after record {count}",
            body_len - pos
        )));
    }
    Ok(entries)
}

/// Best-effort header peek for manifest rebuild: `(shard_index, count)`
/// from the fixed-offset fields, when the file is long enough to hold them.
pub fn peek_header(data: &[u8]) -> Option<(usize, usize)> {
    if !data.starts_with(SEGMENT_HEADER.as_bytes()) {
        return None;
    }
    let mut pos = SEGMENT_HEADER.len();
    let index = take_u32(data, &mut pos)? as usize;
    let count = take_u32(data, &mut pos)? as usize;
    Some((index, count))
}

/// Stable label for a [`TrustStatus`] metadata column.
pub(crate) fn trust_label(trust: TrustStatus) -> &'static str {
    match trust {
        TrustStatus::Public => "public",
        TrustStatus::Regional => "regional",
        TrustStatus::Untrusted => "untrusted",
    }
}

/// Reverse of [`trust_label`].
pub(crate) fn parse_trust(label: &str) -> Option<TrustStatus> {
    match label {
        "public" => Some(TrustStatus::Public),
        "regional" => Some(TrustStatus::Regional),
        "untrusted" => Some(TrustStatus::Untrusted),
        _ => None,
    }
}

/// Parse the `YYYY-MM-DDTHH:MM:SS` issued column [`write_meta`] writes,
/// revalidating field ranges. The fixed-width shape every written column
/// has is read digit by digit; any other shape goes through
/// [`parse_datetime_fields`].
fn parse_datetime(s: &str) -> Option<DateTime> {
    match *s.as_bytes() {
        [y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1, b'T', h0, h1, b':', i0, i1, b':', s0, s1]
            if [y0, y1, y2, y3, m0, m1, d0, d1, h0, h1, i0, i1, s0, s1]
                .iter()
                .all(u8::is_ascii_digit) =>
        {
            let two = |hi: u8, lo: u8| (hi - b'0') * 10 + (lo - b'0');
            let year = i32::from(two(y0, y1)) * 100 + i32::from(two(y2, y3));
            let (month, day) = (two(m0, m1), two(d0, d1));
            DateTime::new(year, month, day, two(h0, h1), two(i0, i1), two(s0, s1)).ok()
        }
        _ => parse_datetime_fields(s),
    }
}

/// The general form of [`parse_datetime`]: the six fields split on their
/// separators, each read by `str::parse`.
fn parse_datetime_fields(s: &str) -> Option<DateTime> {
    let (date, time) = s.split_once('T')?;
    let mut date_parts = date.splitn(3, '-');
    let year: i32 = date_parts.next()?.parse().ok()?;
    let month: u8 = date_parts.next()?.parse().ok()?;
    let day: u8 = date_parts.next()?.parse().ok()?;
    let mut time_parts = time.splitn(3, ':');
    let hour: u8 = time_parts.next()?.parse().ok()?;
    let minute: u8 = time_parts.next()?.parse().ok()?;
    let second: u8 = time_parts.next()?.parse().ok()?;
    DateTime::new(year, month, day, hour, minute, second).ok()
}

/// Append the survey-visible metadata columns to `out` as one tab-framed
/// line: escaped issuer, trust label, issued time as
/// `YYYY-MM-DDTHH:MM:SS`, validity days, and the idn and precert flags.
/// The digits are written directly, without the formatter.
pub fn write_meta(out: &mut Vec<u8>, meta: &CertMeta) {
    out.extend_from_slice(escape(&meta.issuer_org).as_bytes());
    out.push(b'\t');
    out.extend_from_slice(trust_label(meta.trust).as_bytes());
    out.push(b'\t');
    write_datetime(out, &meta.issued);
    out.push(b'\t');
    write_decimal(out, meta.validity_days);
    out.extend_from_slice(&[
        b'\t',
        b'0' + u8::from(meta.is_idn_cert),
        b'\t',
        b'0' + u8::from(meta.is_precert),
    ]);
}

/// `dt` as `{:04}-{:02}-{:02}T{:02}:{:02}:{:02}` renders it: digit by
/// digit when every field fits its width (every valid time from year 0 to
/// 9999), through the formatter otherwise.
fn write_datetime(out: &mut Vec<u8>, dt: &DateTime) {
    let fields = [dt.month, dt.day, dt.hour, dt.minute, dt.second];
    let Ok(year @ 0..=9999) = u16::try_from(dt.year) else {
        return write_datetime_formatted(out, dt);
    };
    if fields.iter().any(|&f| f > 99) {
        return write_datetime_formatted(out, dt);
    }
    let digit = |v: u16| b'0' + (v % 10) as u8;
    out.extend_from_slice(&[digit(year / 1000), digit(year / 100), digit(year / 10), digit(year)]);
    for (sep, field) in [b'-', b'-', b'T', b':', b':'].into_iter().zip(fields) {
        out.extend_from_slice(&[sep, b'0' + field / 10, b'0' + field % 10]);
    }
}

fn write_datetime_formatted(out: &mut Vec<u8>, dt: &DateTime) {
    use std::io::Write;
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
    );
}

/// `v` in decimal, as `{}` renders it.
fn write_decimal(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let mut n = v.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut used = 0;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        used += 1;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(digits.len() - used..).unwrap_or_default());
}

/// Reverse of [`write_meta`]. The generator-only `injected`/`latent`
/// fields come back as `None`/`false` (see the module docs).
pub fn decode_meta(line: &str) -> Result<CertMeta, String> {
    let mut cols = line.split('\t');
    let issuer_org = cols
        .next()
        .and_then(unescape)
        .ok_or("metadata issuer column is malformed")?;
    let trust = cols
        .next()
        .and_then(parse_trust)
        .ok_or("metadata trust column is malformed")?;
    let issued = cols
        .next()
        .and_then(parse_datetime)
        .ok_or("metadata issued column is malformed")?;
    let validity_days: i64 = cols
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("metadata validity column is malformed")?;
    let is_idn_cert = match cols.next() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("metadata idn column is malformed".to_string()),
    };
    let is_precert = match cols.next() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("metadata precert column is malformed".to_string()),
    };
    if cols.next().is_some() {
        return Err("metadata line carries extra columns".to_string());
    }
    Ok(CertMeta {
        issuer_org,
        trust,
        issued,
        validity_days,
        is_idn_cert,
        injected: None,
        latent: false,
        is_precert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_corpus::{CorpusConfig, CorpusGenerator};

    fn entries(n: usize) -> Vec<CorpusEntry> {
        CorpusGenerator::new(CorpusConfig {
            size: n,
            seed: 9,
            precert_fraction: 0.25,
            latent_defects: true,
        })
        .collect()
    }

    #[test]
    fn segment_round_trips() {
        let original = entries(20);
        let (bytes, fingerprint) = encode_segment(3, &original);
        assert_eq!(fingerprint, fnv64(&bytes));
        let decoded = decode_segment(&bytes, 3, Some(bytes.len() as u64), Some(fingerprint))
            .unwrap();
        assert_eq!(decoded.len(), original.len());
        for (d, o) in decoded.iter().zip(&original) {
            assert_eq!(d.cert, o.cert);
            assert_eq!(d.meta.issuer_org, o.meta.issuer_org);
            assert_eq!(d.meta.trust, o.meta.trust);
            assert_eq!(d.meta.issued, o.meta.issued);
            assert_eq!(d.meta.validity_days, o.meta.validity_days);
            assert_eq!(d.meta.is_idn_cert, o.meta.is_idn_cert);
            assert_eq!(d.meta.is_precert, o.meta.is_precert);
            // Generator bookkeeping is deliberately dropped at freeze.
            assert_eq!(d.meta.injected, None);
            assert!(!d.meta.latent);
        }
    }

    /// An entry decoded from a segment is the DER that was written, and
    /// the model parsed out of it reads its TBS out of that DER: its
    /// `raw_tbs()` is the TBS element of `raw`.
    #[test]
    fn decoded_certificates_read_the_tbs_out_of_raw() {
        let original = entries(2_500);
        let (bytes, _) = encode_segment(0, &original);
        let decoded = decode_segment(&bytes, 0, None, None).unwrap();
        assert!(decoded.iter().any(|e| e.meta.is_precert), "the shard holds precertificates");
        for (d, o) in decoded.iter().zip(&original) {
            assert_eq!(d.cert, o.cert);
            let cert = d.cert.parse().unwrap();
            let tbs = unicert_asn1::reader::parse_single(&d.cert.raw).unwrap().contents().read_tlv();
            assert_eq!(cert.raw_tbs(), tbs.unwrap().raw);
            assert_eq!(cert.raw, d.cert.raw);
        }
    }

    /// On every committed store vector, clean or corrupt, `decode_segment`
    /// is `decode_segment_records` with each DER copied: the same entries,
    /// or the same [`Corruption`].
    #[test]
    fn decode_segment_is_the_records_decoder_copied_on_every_vector() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors/store");
        let clean = std::fs::read(root.join("clean").join(crate::manifest::MANIFEST_FILE)).unwrap();
        let manifest = crate::Manifest::parse(&clean).unwrap();
        let mut classes = std::collections::BTreeSet::new();
        let mut dirs: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        assert_eq!(dirs.len(), 5, "{dirs:?}");
        for dir in &dirs {
            for shard in &manifest.shards {
                let data = std::fs::read(dir.join(&shard.file)).unwrap();
                let rows = [(None, None), (Some(shard.bytes), Some(shard.fingerprint))];
                for (bytes, fingerprint) in rows {
                    let case = format!("{}/{} {bytes:?} {fingerprint:?}", dir.display(), shard.file);
                    let owned = decode_segment(&data, shard.index, bytes, fingerprint);
                    let copied = decode_segment_records(&data, shard.index, bytes, fingerprint)
                        .map(|records| {
                            records
                                .into_iter()
                                .map(|r| (r.der.to_vec(), r.meta))
                                .collect::<Vec<_>>()
                        });
                    match (owned, copied) {
                        (Ok(owned), Ok(copied)) => {
                            assert_eq!(owned.len(), shard.count, "{case}");
                            assert_eq!(owned.len(), copied.len(), "{case}");
                            for (o, (der, meta)) in owned.iter().zip(&copied) {
                                assert_eq!(o.cert.raw, *der, "{case}");
                                assert_eq!(format!("{:?}", o.meta), format!("{meta:?}"), "{case}");
                            }
                            classes.insert("ok");
                        }
                        (Err(owned), Err(copied)) => {
                            assert_eq!(owned, copied, "{case}");
                            classes.insert(owned.class());
                        }
                        (owned, copied) => panic!("{case}: {owned:?} vs {copied:?}"),
                    }
                }
            }
        }
        let expected = ["fingerprint_mismatch", "ok", "torn_write", "version_skew"];
        assert_eq!(classes.into_iter().collect::<Vec<_>>(), expected);
    }

    /// Decoding each committed clean vector segment and encoding it again
    /// reproduces the file byte for byte, with the fingerprint the clean
    /// manifest records: the encoder still writes the format the vectors
    /// pin.
    #[test]
    fn committed_segments_re_encode_byte_identically() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/vectors/store/clean");
        let manifest_bytes = std::fs::read(dir.join(crate::manifest::MANIFEST_FILE)).unwrap();
        let manifest = crate::Manifest::parse(&manifest_bytes).unwrap();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("shard-") && name.ends_with(".seg"))
            .collect();
        files.sort();
        assert_eq!(files.len(), manifest.shards.len());
        for file in &files {
            let shard = manifest.shards.iter().find(|s| &s.file == file).unwrap();
            let committed = std::fs::read(dir.join(file)).unwrap();
            let decoded = decode_segment(&committed, shard.index, None, None).unwrap();
            let (bytes, fingerprint) = encode_segment(shard.index, &decoded);
            assert!(bytes == committed, "{file} re-encodes to different bytes");
            assert_eq!(fingerprint, shard.fingerprint, "{file} fingerprint");
        }
    }

    #[test]
    fn truncation_classifies_as_torn_write() {
        let (bytes, _) = encode_segment(0, &entries(8));
        let torn = &bytes[..bytes.len() / 2];
        let err = decode_segment(torn, 0, Some(bytes.len() as u64), None).unwrap_err();
        assert_eq!(err.class(), "torn_write");
    }

    #[test]
    fn body_flip_classifies_as_fingerprint_mismatch() {
        let (mut bytes, _) = encode_segment(0, &entries(8));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err =
            decode_segment(&bytes, 0, Some(bytes.len() as u64), None).unwrap_err();
        assert_eq!(err.class(), "fingerprint_mismatch");
    }

    #[test]
    fn header_digit_bump_classifies_as_version_skew() {
        let (mut bytes, _) = encode_segment(0, &entries(4));
        let at = SEGMENT_HEADER.len() - 2; // the '1' in "v1\n"
        bytes[at] = b'7';
        let err = decode_segment(&bytes, 0, None, None).unwrap_err();
        assert_eq!(err.class(), "version_skew");
    }

    #[test]
    fn wrong_shard_index_is_detected() {
        let (bytes, _) = encode_segment(2, &entries(4));
        let err = decode_segment(&bytes, 5, None, None).unwrap_err();
        assert_eq!(err.class(), "fingerprint_mismatch");
        assert!(err.detail().contains("shard index 2"));
    }

    /// The `write!` that wrote every metadata line before the digits were
    /// written directly, transcribed as the oracle.
    fn formatted_meta(meta: &CertMeta) -> Vec<u8> {
        use std::io::Write;
        let dt = &meta.issued;
        let mut out = escape(&meta.issuer_org).into_owned().into_bytes();
        write!(
            out,
            "\t{}\t{:04}-{:02}-{:02}T{:02}:{:02}:{:02}\t{}\t{}\t{}",
            trust_label(meta.trust),
            dt.year,
            dt.month,
            dt.day,
            dt.hour,
            dt.minute,
            dt.second,
            meta.validity_days,
            u8::from(meta.is_idn_cert),
            u8::from(meta.is_precert),
        )
        .unwrap();
        out
    }

    #[test]
    fn meta_bytes_match_the_formatter() {
        let mut metas: Vec<CertMeta> = entries(200).into_iter().map(|e| e.meta).collect();
        let base = metas[0].clone();
        for year in [0, 7, 999, 1000, 9999, 10_000, 123_456, -1, -2024, i32::MIN, i32::MAX] {
            let issued = DateTime { year, ..base.issued };
            metas.push(CertMeta { issued, ..base.clone() });
        }
        let odd = DateTime { year: 2024, month: 100, day: 7, hour: 255, minute: 9, second: 10 };
        metas.push(CertMeta { issued: odd, ..base.clone() });
        for validity_days in [0, 9, 10, 397, -1, -398, i64::MIN, i64::MAX] {
            metas.push(CertMeta { validity_days, ..base.clone() });
        }
        for meta in &metas {
            let mut written = Vec::new();
            write_meta(&mut written, meta);
            assert_eq!(written, formatted_meta(meta), "{meta:?}");
        }
    }

    #[test]
    fn fixed_width_dates_parse_like_the_field_parser() {
        let cases = [
            "2024-06-01T00:00:00",
            "0000-01-01T00:00:00",
            "9999-12-31T23:59:59",
            "2024-02-29T12:30:45",
            "2023-02-29T12:30:45",
            "2024-13-01T00:00:00",
            "2024-00-10T00:00:00",
            "2024-06-01T24:00:00",
            "2024-06-01T00:60:00",
            "2024-06-01T00:00:60",
            "2024-6-01T00:00:00",
            "+024-06-01T00:00:00",
            "-024-06-01T00:00:00",
            "2024-06-01 00:00:00",
            "2024-06-01T00:00:0a",
            "12345-06-01T00:00:00",
            "2024-06-01T00:00:00Z",
            "",
        ];
        for case in cases {
            assert_eq!(parse_datetime(case), parse_datetime_fields(case), "{case:?}");
        }
        for entry in entries(200) {
            let mut line = Vec::new();
            write_datetime(&mut line, &entry.meta.issued);
            let text = std::str::from_utf8(&line).unwrap();
            assert_eq!(parse_datetime(text), Some(entry.meta.issued), "{text}");
            assert_eq!(parse_datetime(text), parse_datetime_fields(text), "{text}");
        }
    }

    #[test]
    fn meta_round_trips_unicode_issuers() {
        for entry in entries(40) {
            let mut encoded = Vec::new();
            write_meta(&mut encoded, &entry.meta);
            let decoded = decode_meta(std::str::from_utf8(&encoded).unwrap()).unwrap();
            assert_eq!(decoded.issuer_org, entry.meta.issuer_org);
            assert_eq!(decoded.trust, entry.meta.trust);
            assert_eq!(decoded.issued, entry.meta.issued);
        }
    }
}
