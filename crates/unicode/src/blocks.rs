//! Unicode blocks (UAX #44), backed by the generated table.
//!
//! The paper's test-certificate generator samples "one character from each
//! of 323 standard Unicode blocks (excluding surrogates)" (§3.2);
//! [`sample_chars_per_block`] reproduces that sweep against UCD 14.0's 320
//! blocks.

use crate::category::GeneralCategory;
use crate::tables::blocks::BLOCKS;

/// One Unicode block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First code point of the block.
    pub start: u32,
    /// Last code point (inclusive).
    pub end: u32,
    /// Block name, e.g. `"C0 Controls and Basic Latin"`... as in Blocks.txt.
    pub name: &'static str,
}

/// All blocks, in code-point order.
pub fn all_blocks() -> impl Iterator<Item = Block> {
    BLOCKS.iter().map(|&(start, end, name)| Block { start, end, name })
}

/// Number of blocks in the table.
pub fn block_count() -> usize {
    BLOCKS.len()
}

/// The block containing `ch`, if any: a binary search of the sorted table.
pub fn block_of(ch: char) -> Option<Block> {
    let cp = ch as u32;
    let i = BLOCKS.partition_point(|&(_, hi, _)| hi < cp);
    BLOCKS
        .get(i)
        .filter(|&&(lo, _, _)| lo <= cp)
        .map(|&(start, end, name)| Block { start, end, name })
}

impl Block {
    /// Is this the surrogates area (excluded by the paper's sweep)?
    pub fn is_surrogates(&self) -> bool {
        self.start >= 0xD800 && self.end <= 0xDFFF
    }

    /// A representative *assigned* character from the block, preferring the
    /// first assigned code point. Returns `None` for surrogate blocks and
    /// blocks with no assigned characters.
    pub fn sample_char(&self) -> Option<char> {
        if self.is_surrogates() {
            return None;
        }
        (self.start..=self.end)
            .filter_map(char::from_u32)
            .find(|&c| GeneralCategory::of(c) != GeneralCategory::Unassigned)
    }
}

/// One sample character per non-surrogate block — the §3.2 sweep.
pub fn sample_chars_per_block() -> Vec<char> {
    all_blocks().filter_map(|b| b.sample_char()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_disjoint() {
        let blocks: Vec<Block> = all_blocks().collect();
        for pair in blocks.windows(2) {
            assert!(pair[0].end < pair[1].start, "{:?} vs {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn lookup_spot_checks() {
        assert_eq!(block_of('A').unwrap().name, "Basic Latin");
        assert_eq!(block_of('é').unwrap().name, "Latin-1 Supplement");
        assert_eq!(block_of('Ж').unwrap().name, "Cyrillic");
        assert_eq!(block_of('中').unwrap().name, "CJK Unified Ideographs");
        assert_eq!(block_of('\u{1F600}').unwrap().name, "Emoticons");
    }

    #[test]
    fn block_count_close_to_paper() {
        // Paper: 323 blocks (a newer UCD); ours: UCD 14.0.
        let n = block_count();
        assert!((310..=330).contains(&n), "unexpected block count {n}");
    }

    #[test]
    fn per_block_sample_sweep() {
        let samples = sample_chars_per_block();
        // Surrogate blocks (3) yield nothing; everything else should.
        assert!(samples.len() >= block_count() - 3 - 5, "{} samples", samples.len());
        // Samples are unique and come from their own blocks.
        for ch in &samples {
            assert!(block_of(*ch).is_some());
        }
    }

    #[test]
    fn indexed_lookup_matches_linear_scan_at_every_boundary() {
        let linear = |cp: u32| {
            BLOCKS
                .iter()
                .find(|&&(lo, hi, _)| (lo..=hi).contains(&cp))
                .map(|&(lo, hi, name)| Block { start: lo, end: hi, name })
        };
        for &(lo, hi, _) in BLOCKS {
            for cp in [lo.saturating_sub(1), lo, hi, hi.saturating_add(1)] {
                if let Some(ch) = char::from_u32(cp) {
                    assert_eq!(block_of(ch), linear(cp), "cp={cp:#x}");
                }
            }
        }
    }

    #[test]
    fn surrogate_blocks_are_excluded() {
        for b in all_blocks().filter(|b| b.is_surrogates()) {
            assert_eq!(b.sample_char(), None);
        }
    }
}
