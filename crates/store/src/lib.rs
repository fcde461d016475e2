//! Persistent corpus store and resumable incremental surveys (DESIGN.md §14).
//!
//! Every other pipeline in this workspace regenerates its corpus in memory
//! and surveys from scratch; a crash at certificate 9,999,000 of 10M loses
//! everything. This crate is the crash-safe substrate underneath:
//!
//! * [`CorpusStore`] — an on-disk columnar corpus format: length-prefixed
//!   DER segment files (`shard-NNNNN.seg`, one per shard, with the survey-
//!   relevant metadata columns alongside each certificate) plus a manifest
//!   carrying each shard's count, byte range, and FNV-1a 64 fingerprint —
//!   the same hash scheme as `SurveyReport::fingerprint`. Freeze once,
//!   append forever (CT logs are append-only; so is the store).
//! * [`resume::survey_incremental`] — the incremental survey driver: one
//!   `SurveyReport` checkpoint per shard, committed via atomic
//!   write-temp-then-rename. On resume it re-verifies shard fingerprints,
//!   re-lints only appended or invalidated shards, and merges checkpoints
//!   under the deterministic shard-merge rules (global quarantine indexes
//!   included), so a resumed run is **byte-identical** to a one-shot
//!   in-memory run at any thread count.
//! * [`Corruption`] — the corruption taxonomy. A torn, rotted, or
//!   version-skewed shard is detected, quarantined at shard granularity
//!   (one `"store"`-stage `QuarantineEntry` in the report), counted, and
//!   surveyed around — never a panic, never a silently wrong report.
//!   A corrupt *checkpoint* or *manifest* is recoverable state: it is
//!   discarded (the shard is re-linted, the manifest rebuilt from the
//!   self-validating segments) and the run still converges on the
//!   one-shot report.
//!
//! Telemetry: `store.shard{verified|corrupt|resumed}` counters mirror the
//! per-shard outcomes (metrics-gated, never feeding report bytes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod manifest;
pub mod report_io;
pub mod resume;
pub mod segment;
pub mod store;

pub use manifest::{Manifest, ShardInfo};
pub use resume::{ResumeOptions, ResumeReport, ShardOutcome, ShardStatus};
pub use store::{CorpusStore, ShardHealth};

/// FNV-1a 64 over a byte string — the exact constants
/// `SurveyReport::fingerprint` uses, so one hash scheme covers both report
/// fingerprints and store artifacts.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a 64 hash over more bytes:
/// `fnv64_extend(fnv64(a), b) == fnv64(a ++ b)`. A segment's whole-file
/// fingerprint is its body hash extended over the 8-byte trailer, so the
/// body is hashed once for both checks.
pub fn fnv64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A store operation failed outright (as opposed to a shard-granular
/// [`Corruption`], which the survey routes around).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A store artifact exists but cannot be used as one.
    Format {
        /// The offending file or directory.
        path: std::path::PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Why a store artifact failed validation — the detection side of the
/// `unicert_chaos::fsfault` injection taxonomy.
///
/// Classification is by *first failing check*, in a fixed priority order
/// (framing size → header/version → fingerprint → record structure), so a
/// given corrupt file always classifies the same way:
///
/// * [`Corruption::TornWrite`] — the file is shorter than its manifest
///   entry / framing promises (a crash mid-write, or a missing file);
/// * [`Corruption::VersionSkew`] — the header names a format version this
///   build does not speak;
/// * [`Corruption::FingerprintMismatch`] — the bytes are the right shape
///   but fail an FNV integrity check (bit rot, content tamper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// File truncated or missing relative to what its framing promises.
    TornWrite(String),
    /// Header carries an unsupported format version.
    VersionSkew(String),
    /// Content fails its integrity fingerprint.
    FingerprintMismatch(String),
}

impl Corruption {
    /// Stable lowercase label for manifests, reports, and telemetry.
    pub fn class(&self) -> &'static str {
        match self {
            Corruption::TornWrite(_) => "torn_write",
            Corruption::VersionSkew(_) => "version_skew",
            Corruption::FingerprintMismatch(_) => "fingerprint_mismatch",
        }
    }

    /// Human-readable specifics (deterministic — pure function of the
    /// corrupt bytes, so quarantine details never vary across runs).
    pub fn detail(&self) -> &str {
        match self {
            Corruption::TornWrite(d)
            | Corruption::VersionSkew(d)
            | Corruption::FingerprintMismatch(d) => d,
        }
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class(), self.detail())
    }
}

/// Write `bytes` to `path` atomically: write to a `.tmp` sibling, fsync,
/// then rename over the target. A crash at any point leaves either the old
/// file or the new file — never a torn one. (Torn files still *arrive* via
/// non-atomic writers and hostile media; detecting them is [`Corruption`]'s
/// job.)
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Escape a string for the store's line/tab-framed text artifacts:
/// backslash, tab, newline, and carriage return become two-character
/// escapes, so escaped fields never break line or column framing. A
/// string with nothing to escape (the common case) is borrowed, not
/// copied.
pub fn escape(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r')) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Reverse [`escape`]. Returns `None` on a dangling or unknown escape —
/// deserializers treat that as a corrupt record.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_report_fingerprint_scheme() {
        // Same constants, same algorithm: hashing a report's Debug
        // rendering with fnv64 must equal SurveyReport::fingerprint.
        let report = unicert::survey::SurveyReport::default();
        assert_eq!(fnv64(format!("{report:?}").as_bytes()), report.fingerprint());
    }

    #[test]
    fn fnv_extend_continues_the_hash() {
        let data = b"unicert-store segment v1\n\x00\x01\xff tail";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(fnv64_extend(fnv64(a), b), fnv64(data), "split at {split}");
        }
        assert_eq!(fnv64_extend(fnv64(b""), b""), fnv64(b""));
        assert_eq!(fnv64_extend(fnv64(data), b""), fnv64(data));
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "tab\there", "nl\nhere", "bs\\here", "mix\t\\\n\r✓"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("dangling\\"), None);
        assert_eq!(unescape("bad\\x"), None);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = std::env::temp_dir().join(format!("unicert-store-aw-{}", std::process::id()));
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ))
        .exists());
        std::fs::remove_file(&path).ok();
    }
}
