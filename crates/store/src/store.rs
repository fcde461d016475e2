//! [`CorpusStore`]: the directory-level API over segments and manifest.

use crate::manifest::{Manifest, ShardInfo, MANIFEST_FILE};
use crate::segment::{
    decode_segment, decode_segment_frames, decode_segment_records, encode_segment, peek_header,
    segment_file_name,
};
use crate::{atomic_write, fnv64, Corruption, StoreError};
use std::path::{Path, PathBuf};
use unicert::survey::{run_parallel_records_from, SurveyOptions, SurveyReport};
use unicert_corpus::{CorpusEntry, RawEntry};

/// Per-shard result of [`CorpusStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub index: usize,
    /// Segment file name.
    pub file: String,
    /// Record count the manifest promises.
    pub count: usize,
    /// `None` when the shard validated clean; the detected corruption
    /// otherwise.
    pub corruption: Option<Corruption>,
}

/// An opened on-disk corpus store.
///
/// A store is a directory of segment files plus a [`Manifest`]. Opening
/// validates (or rebuilds) the manifest only; segment bytes are validated
/// lazily, shard by shard, as [`CorpusStore::load_shard`] touches them —
/// a 10M-certificate store opens in microseconds and a survey only pays
/// for the shards it actually needs to re-lint.
#[derive(Debug)]
pub struct CorpusStore {
    dir: PathBuf,
    manifest: Manifest,
    manifest_rebuilt: bool,
}

impl CorpusStore {
    /// Freeze `entries` into a new store at `dir` with the given shard
    /// size, creating the directory if needed. Segments are written first
    /// (each via [`atomic_write`]), the manifest last — so a crash during
    /// freeze never leaves a manifest pointing at missing segments.
    ///
    /// Errors if `dir` already contains a manifest (a store is frozen
    /// once; growth goes through [`CorpusStore::append`]).
    pub fn freeze(
        dir: &Path,
        entries: &[CorpusEntry],
        shard_size: usize,
    ) -> Result<CorpusStore, StoreError> {
        let shard_size = shard_size.max(1);
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(StoreError::Format {
                path: manifest_path,
                detail: "store already frozen here (use append to grow it)".to_string(),
            });
        }
        std::fs::create_dir_all(dir)?;
        let mut shards = Vec::new();
        let mut start = 0u64;
        for (index, chunk) in entries.chunks(shard_size).enumerate() {
            let (bytes, fingerprint) = encode_segment(index, chunk);
            let file = segment_file_name(index);
            atomic_write(&dir.join(&file), &bytes)?;
            shards.push(ShardInfo {
                index,
                file,
                start,
                count: chunk.len(),
                bytes: bytes.len() as u64,
                fingerprint,
            });
            start += chunk.len() as u64;
        }
        let manifest = Manifest { shard_size, total: start, shards };
        atomic_write(&manifest_path, manifest.render().as_bytes())?;
        Ok(CorpusStore { dir: dir.to_path_buf(), manifest, manifest_rebuilt: false })
    }

    /// Open the store at `dir`.
    ///
    /// A missing, torn, tampered, or version-skewed manifest is
    /// *recoverable*: the manifest is rebuilt in memory from the segment
    /// files (whose self-validating trailers carry everything needed) and
    /// [`CorpusStore::manifest_rebuilt`] reports `true`. The on-disk
    /// manifest is left untouched, so forensic state survives. Only a
    /// directory with no segment files at all is a hard error.
    pub fn open(dir: &Path) -> Result<CorpusStore, StoreError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        if let Ok(bytes) = std::fs::read(&manifest_path) {
            if let Ok(manifest) = Manifest::parse(&bytes) {
                return Ok(CorpusStore {
                    dir: dir.to_path_buf(),
                    manifest,
                    manifest_rebuilt: false,
                });
            }
        }
        let manifest = rebuild_manifest(dir)?;
        Ok(CorpusStore { dir: dir.to_path_buf(), manifest, manifest_rebuilt: true })
    }

    /// Append `entries` as new shards after the existing ones and rewrite
    /// the manifest atomically. Appended entries always start a fresh
    /// shard (existing segments are immutable once written — that is what
    /// keeps their checkpoints valid).
    pub fn append(&mut self, entries: &[CorpusEntry]) -> Result<(), StoreError> {
        let shard_size = self.manifest.shard_size.max(1);
        let mut start = self.manifest.total;
        let first = self.manifest.shards.len();
        for (index, chunk) in (first..).zip(entries.chunks(shard_size)) {
            let (bytes, fingerprint) = encode_segment(index, chunk);
            let file = segment_file_name(index);
            atomic_write(&self.dir.join(&file), &bytes)?;
            self.manifest.shards.push(ShardInfo {
                index,
                file,
                start,
                count: chunk.len(),
                bytes: bytes.len() as u64,
                fingerprint,
            });
            start += chunk.len() as u64;
        }
        self.manifest.total = start;
        atomic_write(&self.dir.join(MANIFEST_FILE), self.manifest.render().as_bytes())?;
        Ok(())
    }

    /// Fully validate every shard (fingerprints, framing, record
    /// structure) and report per-shard health. Never fails on corruption —
    /// corruption is the *result*.
    pub fn verify(&self) -> Vec<ShardHealth> {
        self.manifest
            .shards
            .iter()
            .map(|shard| ShardHealth {
                index: shard.index,
                file: shard.file.clone(),
                count: shard.count,
                corruption: self.load_shard(shard).err(),
            })
            .collect()
    }

    /// Load and fully validate one shard's entries.
    ///
    /// Ticks the `store.shard` telemetry counter (`verified` or `corrupt`)
    /// per call. A missing or unreadable segment file classifies as a torn
    /// write with a deterministic detail string (no OS error text, so
    /// quarantine details are stable across platforms and runs).
    pub fn load_shard(&self, shard: &ShardInfo) -> Result<Vec<CorpusEntry>, Corruption> {
        let result = self.load_shard_inner(shard);
        count_shard(&result);
        result
    }

    fn load_shard_inner(&self, shard: &ShardInfo) -> Result<Vec<CorpusEntry>, Corruption> {
        let data = self.read_segment(shard)?;
        let entries = decode_segment(
            &data,
            shard.index,
            Some(shard.bytes),
            Some(shard.fingerprint),
        )?;
        Self::check_count(entries.len(), shard)?;
        Ok(entries)
    }

    /// Load and fully validate one shard, then hand its records — DER
    /// borrowed straight from the segment read buffer, nothing copied per
    /// certificate — to `f`. Validation (and its corruption
    /// classification) is identical to [`CorpusStore::load_shard`]; only
    /// the representation differs.
    ///
    /// Validation includes the proof that every record parses as a
    /// [`unicert_x509::CertView`] under the default budget, because `f` is
    /// an arbitrary closure that may trust its records. A caller that
    /// parses every record itself anyway — the incremental survey — goes
    /// through `survey_shard` instead, which uses that parse as the proof
    /// and parses each certificate once.
    ///
    /// Ticks the same `store.shard` telemetry counter as `load_shard`.
    pub fn with_shard_records<T>(
        &self,
        shard: &ShardInfo,
        f: impl FnOnce(&[RawEntry<'_>]) -> T,
    ) -> Result<T, Corruption> {
        let result = self
            .read_segment(shard)
            .and_then(|data| Self::with_validated_records(&data, shard, f));
        count_shard(&result);
        result
    }

    /// Survey one shard's records with [`run_parallel_records_from`] at
    /// the shard's global base index, parsing each certificate once: the
    /// incremental survey's shard read.
    ///
    /// The segment is first checked for everything but the per-record
    /// parse proof — framing, header, size, both fingerprints, record
    /// frames, metadata columns and record count. The survey's own
    /// budgeted `CertView` parse of every record (the same parse, under
    /// the same default budget, that [`CorpusStore::with_shard_records`]
    /// runs) then serves as the proof. If the survey quarantined any
    /// record at stage `"parse"`, or the framing check failed, its report
    /// is discarded and the segment is validated in full, so the
    /// corruption class and detail are exactly those `with_shard_records`
    /// reports: the first failing check in record order. The discarded
    /// survey's own telemetry (its stage timings and
    /// `survey.quarantined{parse}` ticks) is not taken back.
    ///
    /// Ticks the same `store.shard` telemetry counter, once per call.
    pub(crate) fn survey_shard(
        &self,
        shard: &ShardInfo,
        registry: &unicert_lint::Registry,
        opts: SurveyOptions,
    ) -> Result<SurveyReport, Corruption> {
        let survey = |records: &[RawEntry<'_>]| {
            run_parallel_records_from(registry, records, opts, shard.start)
        };
        let result = self.read_segment(shard).and_then(|data| {
            let framed = decode_segment_frames(
                &data,
                shard.index,
                Some(shard.bytes),
                Some(shard.fingerprint),
            )
            .and_then(|records| Self::check_count(records.len(), shard).map(|()| records));
            if let Ok(records) = framed {
                let report = survey(&records);
                if !report.quarantine.iter().any(|q| q.stage == "parse") {
                    return Ok(report);
                }
            }
            Self::with_validated_records(&data, shard, survey)
        });
        count_shard(&result);
        result
    }

    /// Fully validate `data` as `shard`'s segment, per-record parse proof
    /// included, then lend its records to `f`.
    fn with_validated_records<T>(
        data: &[u8],
        shard: &ShardInfo,
        f: impl FnOnce(&[RawEntry<'_>]) -> T,
    ) -> Result<T, Corruption> {
        let records = decode_segment_records(
            data,
            shard.index,
            Some(shard.bytes),
            Some(shard.fingerprint),
        )?;
        Self::check_count(records.len(), shard)?;
        Ok(f(&records))
    }

    /// Read a shard's segment file, classifying a missing or unreadable
    /// file as a torn write with a deterministic detail string.
    fn read_segment(&self, shard: &ShardInfo) -> Result<Vec<u8>, Corruption> {
        std::fs::read(self.dir.join(&shard.file)).map_err(|_| {
            Corruption::TornWrite(format!(
                "segment file {} is missing or unreadable",
                shard.file
            ))
        })
    }

    /// The decoded-record count must match the manifest's promise.
    fn check_count(decoded: usize, shard: &ShardInfo) -> Result<(), Corruption> {
        if decoded != shard.count {
            return Err(Corruption::FingerprintMismatch(format!(
                "segment holds {decoded} records, manifest promises {}",
                shard.count
            )));
        }
        Ok(())
    }

    /// The manifest (parsed from disk, or rebuilt in memory).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Whether [`CorpusStore::open`] had to rebuild the manifest from
    /// segment files because the on-disk one was missing or corrupt.
    pub fn manifest_rebuilt(&self) -> bool {
        self.manifest_rebuilt
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Tick the `store.shard` telemetry counter (`verified` or `corrupt`) for
/// one shard read.
fn count_shard<T>(result: &Result<T, Corruption>) {
    if unicert_telemetry::metrics_enabled() {
        let outcome = if result.is_ok() { "verified" } else { "corrupt" };
        unicert_telemetry::global().counter("store.shard", outcome).inc();
    }
}

/// Reconstruct a manifest from the segment files alone: list
/// `shard-*.seg` sorted by file name, take index/count from each segment
/// header (best effort — a torn header yields a placeholder row that
/// [`CorpusStore::load_shard`] will classify properly), fingerprint the
/// full bytes, accumulate start offsets.
fn rebuild_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let mut files: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") && name.ends_with(".seg") {
            files.push(name);
        }
    }
    if files.is_empty() {
        return Err(StoreError::Format {
            path: dir.to_path_buf(),
            detail: "not a corpus store: no usable manifest and no segment files".to_string(),
        });
    }
    files.sort();
    let mut shards = Vec::new();
    let mut start = 0u64;
    let mut shard_size = 1usize;
    for (index, file) in files.iter().enumerate() {
        let data = std::fs::read(dir.join(file))?;
        // Best-effort header peek; a segment too torn to carry its header
        // gets a zero-count row and is surfaced as corrupt on load.
        let count = match peek_header(&data) {
            Some((_, count)) => count,
            None => 0,
        };
        shards.push(ShardInfo {
            index,
            file: file.clone(),
            start,
            count,
            bytes: data.len() as u64,
            fingerprint: fnv64(&data),
        });
        start += count as u64;
        shard_size = shard_size.max(count);
    }
    Ok(Manifest { shard_size, total: start, shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_corpus::{CorpusConfig, CorpusGenerator};

    fn entries(n: usize, seed: u64) -> Vec<CorpusEntry> {
        CorpusGenerator::new(CorpusConfig {
            size: n,
            seed,
            precert_fraction: 0.0,
            latent_defects: true,
        })
        .collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("unicert-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn freeze_open_load_round_trips() {
        let dir = scratch("roundtrip");
        let original = entries(10, 3);
        CorpusStore::freeze(&dir, &original, 4).unwrap();
        let store = CorpusStore::open(&dir).unwrap();
        assert!(!store.manifest_rebuilt());
        assert_eq!(store.manifest().total, 10);
        assert_eq!(store.manifest().shards.len(), 3);
        let mut loaded = Vec::new();
        for shard in &store.manifest().shards {
            loaded.extend(store.load_shard(shard).unwrap());
        }
        assert_eq!(loaded.len(), original.len());
        for (l, o) in loaded.iter().zip(&original) {
            assert_eq!(l.cert, o.cert);
            assert_eq!(l.meta.issuer_org, o.meta.issuer_org);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_freeze_is_rejected() {
        let dir = scratch("double");
        CorpusStore::freeze(&dir, &entries(4, 3), 2).unwrap();
        assert!(CorpusStore::freeze(&dir, &entries(4, 3), 2).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_grows_with_new_shards() {
        let dir = scratch("append");
        CorpusStore::freeze(&dir, &entries(5, 3), 4).unwrap();
        let mut store = CorpusStore::open(&dir).unwrap();
        store.append(&entries(6, 4)).unwrap();
        assert_eq!(store.manifest().total, 11);
        // 5/4 -> shards of 4,1; append 6/4 -> shards of 4,2.
        let counts: Vec<usize> = store.manifest().shards.iter().map(|s| s.count).collect();
        assert_eq!(counts, vec![4, 1, 4, 2]);
        let reopened = CorpusStore::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), store.manifest());
        assert!(reopened.verify().iter().all(|h| h.corruption.is_none()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_rebuilt_from_segments() {
        let dir = scratch("rebuild");
        let store = CorpusStore::freeze(&dir, &entries(9, 3), 4).unwrap();
        let on_disk = store.manifest().clone();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let reopened = CorpusStore::open(&dir).unwrap();
        assert!(reopened.manifest_rebuilt());
        assert_eq!(reopened.manifest().total, on_disk.total);
        assert_eq!(reopened.manifest().shards, on_disk.shards);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_is_not_a_store() {
        let dir = scratch("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(CorpusStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_localizes_corruption_to_one_shard() {
        let dir = scratch("verify");
        let store = CorpusStore::freeze(&dir, &entries(9, 3), 4).unwrap();
        let victim = dir.join(&store.manifest().shards[1].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).unwrap();
        let health = CorpusStore::open(&dir).unwrap().verify();
        assert_eq!(health.len(), 3);
        assert!(health[0].corruption.is_none());
        assert_eq!(
            health[1].corruption.as_ref().map(|c| c.class()),
            Some("fingerprint_mismatch")
        );
        assert!(health[2].corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
