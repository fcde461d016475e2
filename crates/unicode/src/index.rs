//! Two-level acceleration index for sorted code-point range tables.
//!
//! The generated tables ([`crate::tables::blocks::BLOCKS`],
//! [`crate::tables::categories::GENERAL_CATEGORY`]) are sorted, disjoint
//! `(lo, hi, …)` ranges; the natural lookup is a binary search over the
//! whole table (~12 probes for the category table) *per character*. The
//! [`ChunkIndex`] replaces that with one direct array load: code points are
//! grouped into 256-wide chunks (`cp >> 8`), and the index records, per
//! chunk, the first table row that could intersect it. A lookup then scans
//! the rows crossing its chunk. That is near-constant work for sparse
//! tables, but not for every chunk: the blocks table resolves Basic Latin
//! on its first row, while the general-category table splits ASCII into
//! many rows (`a`, in `0x61..=0x7A`, is the 24th), so an ASCII letter
//! costs a longer scan than a CJK ideograph, whose chunk starts on the
//! row that holds it. Hot callers that see mostly ASCII answer it before
//! the lookup (`idna::bidi::bidi_class`, `nfc::combining_class`); the
//! one-trie item in ROADMAP.md replaces this index with O(1) lookups.
//!
//! Built lazily, once per table, behind a `OnceLock` in the consuming
//! module.

/// log2 of the chunk width: 256 code points per chunk.
const CHUNK_SHIFT: u32 = 8;
/// Chunks covering all of Unicode (0x110000 >> 8).
const CHUNK_COUNT: usize = 0x11_0000 >> CHUNK_SHIFT;

/// Per-chunk start offsets into one sorted range table.
pub struct ChunkIndex {
    /// `starts[c]` = index of the first range whose `hi` reaches chunk `c`.
    starts: Vec<u32>,
}

impl ChunkIndex {
    /// Build the index for `ranges`, which must be sorted by `lo` with
    /// disjoint `(lo, hi)` intervals (both inclusive) — exactly the
    /// invariant the generated tables uphold (and their tests assert).
    pub fn build<T>(ranges: &[T], lo_hi: impl Fn(&T) -> (u32, u32)) -> ChunkIndex {
        let mut starts = Vec::with_capacity(CHUNK_COUNT);
        let mut i = 0usize;
        for chunk in 0..CHUNK_COUNT {
            let chunk_start = (chunk as u32) << CHUNK_SHIFT;
            while ranges.get(i).is_some_and(|r| lo_hi(r).1 < chunk_start) {
                i += 1;
            }
            starts.push(i as u32);
        }
        ChunkIndex { starts }
    }

    /// The range containing `cp`, if any. `ranges` and `lo_hi` must be the
    /// same table and accessor the index was built with.
    pub fn find<'t, T>(
        &self,
        ranges: &'t [T],
        cp: u32,
        lo_hi: impl Fn(&T) -> (u32, u32),
    ) -> Option<&'t T> {
        let chunk = (cp >> CHUNK_SHIFT) as usize;
        let start = *self.starts.get(chunk)? as usize;
        for r in ranges.get(start..)? {
            let (lo, hi) = lo_hi(r);
            if cp < lo {
                return None;
            }
            if cp <= hi {
                return Some(r);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANGES: &[(u32, u32, u8)] = &[
        (0x00, 0x1F, 0),
        (0x20, 0x7E, 1),
        (0x80, 0xFF, 2),
        (0x100, 0x2FF, 3),
        (0x1_0000, 0x1_00FF, 4),
        (0x10_FF00, 0x10_FFFF, 5),
    ];

    fn reference(cp: u32) -> Option<&'static (u32, u32, u8)> {
        RANGES.iter().find(|&&(lo, hi, _)| (lo..=hi).contains(&cp))
    }

    #[test]
    fn matches_linear_reference_everywhere_interesting() {
        let index = ChunkIndex::build(RANGES, |&(lo, hi, _)| (lo, hi));
        let mut probes: Vec<u32> = Vec::new();
        for &(lo, hi, _) in RANGES {
            probes.extend([lo.saturating_sub(1), lo, lo + 1, hi - 1, hi, hi + 1]);
        }
        probes.extend([0x7F, 0x300, 0xFFFF, 0x10_FFFF, 0x10_0000]);
        for cp in probes {
            assert_eq!(
                index.find(RANGES, cp, |&(lo, hi, _)| (lo, hi)),
                reference(cp),
                "cp={cp:#x}"
            );
        }
    }

    #[test]
    fn empty_table_finds_nothing() {
        let empty: &[(u32, u32, u8)] = &[];
        let index = ChunkIndex::build(empty, |&(lo, hi, _)| (lo, hi));
        assert_eq!(index.find(empty, 0x41, |&(lo, hi, _)| (lo, hi)), None);
    }
}
