//! Per-shard survey checkpoints: the commit units of an incremental run.
//!
//! One checkpoint file (`shard-NNNNN.ckpt`) holds the full
//! [`SurveyReport`] of one store shard, wrapped in an envelope that pins
//! everything which could invalidate it:
//!
//! ```text
//! unicert-store checkpoint v1
//! shard 3
//! start 7500
//! count 2500
//! segment 0123456789abcdef        ← fingerprint of the segment surveyed
//! opts profile=webpki gated=1 evidence=0 field_matrix=1
//! <report body, see report_io>
//! fnv fedcba9876543210            ← FNV-1a 64 over every preceding byte
//! ```
//!
//! * The `segment` fingerprint ties the checkpoint to the exact segment
//!   bytes it surveyed — an appended store never invalidates old shards
//!   (segments are immutable), but a repaired/replaced segment does.
//! * The `opts` line pins the report-shaping options ([`options_key`]).
//!   Thread count and internal chunk size are deliberately *absent*: the
//!   survey is byte-identical across them (DESIGN.md §7), so a checkpoint
//!   written by a 1-thread run resumes an 8-thread run and vice versa.
//! * The `fnv` trailer makes torn or rotted checkpoints self-detecting.
//!
//! Checkpoints are *advisory*: any validation failure — wrong version,
//! failed self-check, mismatched shard geometry, stale segment
//! fingerprint, different options, a body label that no longer interns —
//! discards the checkpoint and re-surveys the shard. Corrupt checkpoint
//! state can cost time, never correctness.

use crate::manifest::ShardInfo;
use crate::report_io::{decode_report, encode_report};
use crate::{fnv64, ResumeOptions};
use std::path::{Path, PathBuf};
use unicert::survey::SurveyReport;
use unicert_lint::Registry;

/// The exact header line every version-1 checkpoint starts with.
pub const CHECKPOINT_HEADER: &str = "unicert-store checkpoint v1";

/// Canonical checkpoint file name for shard `index`: `shard-00042.ckpt`.
pub fn checkpoint_file_name(index: usize) -> String {
    format!("shard-{index:05}.ckpt")
}

/// Canonical checkpoint path for shard `index` under `dir`.
pub fn checkpoint_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(checkpoint_file_name(index))
}

/// The report-shaping options fingerprint pinned in a checkpoint's `opts`
/// line: resolved profile, effective-date gating, evidence capture, and
/// the field-matrix switch. Every option that changes report *bytes* is
/// here; options that only change *scheduling* are not.
pub fn options_key(registry: &Registry, opts: &ResumeOptions) -> String {
    format!(
        "profile={} gated={} evidence={} field_matrix={}",
        registry.profile_name(),
        u8::from(opts.survey.lint.enforce_effective_dates),
        u8::from(opts.survey.lint.evidence),
        u8::from(opts.survey.field_matrix),
    )
}

/// Render a shard checkpoint (envelope + report body + self-check
/// trailer) ready for [`crate::atomic_write`].
pub fn encode_checkpoint(
    shard: &ShardInfo,
    opts_key: &str,
    report: &SurveyReport,
) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(CHECKPOINT_HEADER);
    out.push('\n');
    out.push_str(&format!("shard {}\n", shard.index));
    out.push_str(&format!("start {}\n", shard.start));
    out.push_str(&format!("count {}\n", shard.count));
    out.push_str(&format!("segment {:016x}\n", shard.fingerprint));
    out.push_str(&format!("opts {opts_key}\n"));
    out.push_str(&encode_report(report));
    let fp = fnv64(out.as_bytes());
    out.push_str(&format!("fnv {fp:016x}\n"));
    out.into_bytes()
}

/// Parse and fully validate checkpoint bytes against the manifest row and
/// options of the *current* run. Returns the checkpointed report, or a
/// one-line reason the checkpoint cannot be reused (the caller re-surveys;
/// the reason feeds logs/debugging only, never report bytes).
pub fn decode_checkpoint(
    data: &[u8],
    shard: &ShardInfo,
    opts_key: &str,
    registry: &Registry,
) -> Result<SurveyReport, String> {
    let text =
        std::str::from_utf8(data).map_err(|_| "checkpoint is not UTF-8".to_string())?;
    // Self-check first: the trailer must cover everything before it.
    let trailer_at = text
        .rfind("\nfnv ")
        .ok_or("checkpoint is missing its fnv trailer")?;
    let covered = trailer_at + 1;
    let trailer_line = text
        .get(covered..)
        .unwrap_or_default()
        .trim_end_matches('\n');
    let stored = trailer_line
        .strip_prefix("fnv ")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("checkpoint fnv trailer is malformed")?;
    let actual = fnv64(data.get(..covered).unwrap_or_default());
    if stored != actual {
        return Err(format!(
            "checkpoint self-check {actual:016x} != stored trailer {stored:016x}"
        ));
    }
    let mut lines = text.get(..trailer_at).unwrap_or_default().lines();
    match lines.next() {
        Some(CHECKPOINT_HEADER) => {}
        Some(other) if other.starts_with("unicert-store checkpoint v") => {
            return Err(format!("unsupported checkpoint version: {other:?}"));
        }
        _ => return Err("unrecognized checkpoint header".to_string()),
    }
    let mut expect = |keyword: &str| -> Result<String, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("checkpoint is missing its {keyword} line"))?;
        line.strip_prefix(keyword)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| format!("checkpoint {keyword} line is malformed"))
    };
    let index: usize = expect("shard")?
        .parse()
        .map_err(|_| "checkpoint shard line is malformed".to_string())?;
    let start: u64 = expect("start")?
        .parse()
        .map_err(|_| "checkpoint start line is malformed".to_string())?;
    let count: usize = expect("count")?
        .parse()
        .map_err(|_| "checkpoint count line is malformed".to_string())?;
    let segment = u64::from_str_radix(&expect("segment")?, 16)
        .map_err(|_| "checkpoint segment line is malformed".to_string())?;
    let opts = expect("opts")?;
    if (index, start, count) != (shard.index, shard.start, shard.count) {
        return Err(format!(
            "checkpoint covers shard {index} [{start}; {count}), manifest says shard {} [{}; {})",
            shard.index, shard.start, shard.count
        ));
    }
    if segment != shard.fingerprint {
        return Err(format!(
            "checkpoint pinned segment {segment:016x}, manifest says {:016x}",
            shard.fingerprint
        ));
    }
    if opts != opts_key {
        return Err(format!(
            "checkpoint surveyed under options {opts:?}, this run uses {opts_key:?}"
        ));
    }
    let mut body = String::new();
    for line in lines {
        body.push_str(line);
        body.push('\n');
    }
    decode_report(&body, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert::survey::{survey, SurveyOptions};
    use unicert_corpus::{lint_registry, CorpusConfig, CorpusGenerator};

    fn fixture() -> (ShardInfo, String, SurveyReport) {
        let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
            size: 300,
            seed: 42,
            precert_fraction: 0.0,
            latent_defects: true,
        })
        .collect();
        let report = survey(lint_registry(), &entries, SurveyOptions::default(), 0);
        let shard = ShardInfo {
            index: 2,
            file: "shard-00002.seg".to_string(),
            start: 600,
            count: 300,
            bytes: 123_456,
            fingerprint: 0xfeed_f00d_dead_beef,
        };
        let key = options_key(lint_registry(), &ResumeOptions::default());
        (shard, key, report)
    }

    #[test]
    fn checkpoint_round_trips() {
        let (shard, key, report) = fixture();
        let bytes = encode_checkpoint(&shard, &key, &report);
        let decoded = decode_checkpoint(&bytes, &shard, &key, lint_registry()).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(decoded.fingerprint(), report.fingerprint());
    }

    #[test]
    fn stale_segment_fingerprint_invalidates() {
        let (shard, key, report) = fixture();
        let bytes = encode_checkpoint(&shard, &key, &report);
        let mut moved = shard.clone();
        moved.fingerprint ^= 1;
        let err = decode_checkpoint(&bytes, &moved, &key, lint_registry()).unwrap_err();
        assert!(err.contains("pinned segment"), "{err}");
    }

    #[test]
    fn changed_options_invalidate() {
        let (shard, key, report) = fixture();
        let bytes = encode_checkpoint(&shard, &key, &report);
        let other = key.replace("field_matrix=1", "field_matrix=0");
        let err = decode_checkpoint(&bytes, &shard, &other, lint_registry()).unwrap_err();
        assert!(err.contains("options"), "{err}");
    }

    #[test]
    fn torn_or_flipped_checkpoint_invalidates() {
        let (shard, key, report) = fixture();
        let bytes = encode_checkpoint(&shard, &key, &report);
        let torn = &bytes[..bytes.len() * 2 / 3];
        assert!(decode_checkpoint(torn, &shard, &key, lint_registry()).is_err());
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(decode_checkpoint(&flipped, &shard, &key, lint_registry()).is_err());
    }

    #[test]
    fn version_skewed_checkpoint_invalidates() {
        let (shard, key, report) = fixture();
        let text = String::from_utf8(encode_checkpoint(&shard, &key, &report)).unwrap();
        // Re-sign the skewed body so only the version check can reject it.
        let skewed_body = text
            .replacen("checkpoint v1", "checkpoint v2", 1)
            .lines()
            .take_while(|l| !l.starts_with("fnv "))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
        let fp = fnv64(skewed_body.as_bytes());
        let skewed = format!("{skewed_body}fnv {fp:016x}\n");
        let err =
            decode_checkpoint(skewed.as_bytes(), &shard, &key, lint_registry()).unwrap_err();
        assert!(err.contains("unsupported checkpoint version"), "{err}");
    }
}
