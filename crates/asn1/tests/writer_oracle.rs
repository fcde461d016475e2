//! The one-buffer `Writer` against the nested-buffer writer it replaced.
//!
//! The old writer encoded every constructed element into a fresh buffer
//! and then copied it into its parent behind a header computed from the
//! finished length. `nested` below transcribes it as the oracle: for any
//! TLV tree, both must produce the same bytes. The trees carry high tag
//! numbers and contents whose lengths sit on both sides of each
//! length-octet boundary (127/128, 255/256, 65,535/65,536).

use proptest::prelude::*;
use unicert_asn1::{Class, Tag, Writer};

/// A TLV tree.
#[derive(Debug, Clone)]
enum Node {
    Primitive(Tag, Vec<u8>),
    Constructed(Tag, Vec<Node>),
}

/// The nested-buffer writer, transcribed.
mod nested {
    use super::Node;
    use unicert_asn1::{Class, Tag};

    pub fn encode(node: &Node) -> Vec<u8> {
        let mut out = Vec::new();
        write(&mut out, node);
        out
    }

    fn write(out: &mut Vec<u8>, node: &Node) {
        match node {
            Node::Primitive(tag, value) => write_tlv(out, *tag, value),
            Node::Constructed(tag, kids) => {
                let mut inner = Vec::new();
                for kid in kids {
                    write(&mut inner, kid);
                }
                write_tlv(out, *tag, &inner);
            }
        }
    }

    fn write_tlv(out: &mut Vec<u8>, tag: Tag, value: &[u8]) {
        write_tag(out, tag);
        write_length(out, value.len());
        out.extend_from_slice(value);
    }

    fn first_octet(tag: Tag) -> u8 {
        let class = match tag.class {
            Class::Universal => 0x00,
            Class::Application => 0x40,
            Class::ContextSpecific => 0x80,
            Class::Private => 0xC0,
        };
        let low = if tag.number < 31 { tag.number as u8 } else { 31 };
        class | if tag.constructed { 0x20 } else { 0 } | low
    }

    fn write_tag(out: &mut Vec<u8>, tag: Tag) {
        out.push(first_octet(tag));
        if tag.number >= 31 {
            let n = tag.number;
            let top = (1..5).rev().find(|&i| (n >> (7 * i)) & 0x7F != 0).unwrap_or(0);
            for i in (1..=top).rev() {
                out.push(((n >> (7 * i)) & 0x7F) as u8 | 0x80);
            }
            out.push((n & 0x7F) as u8);
        }
    }

    fn write_length(out: &mut Vec<u8>, len: usize) {
        if len < 0x80 {
            out.push(len as u8);
        } else {
            let bytes = (len as u64).to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            let significant = &bytes[skip..];
            out.push(0x80 | significant.len() as u8);
            out.extend_from_slice(significant);
        }
    }
}

fn one_buffer(w: &mut Writer, node: &Node) {
    match node {
        Node::Primitive(tag, value) => w.write_tlv(*tag, value),
        Node::Constructed(tag, kids) => w.write_constructed(*tag, |w| {
            for kid in kids {
                one_buffer(w, kid);
            }
        }),
    }
}

fn encode(node: &Node) -> Vec<u8> {
    let mut w = Writer::new();
    one_buffer(&mut w, node);
    w.into_bytes()
}

/// Tag numbers at each identifier-length edge, low form included.
const TAG_NUMBERS: [u32; 12] =
    [0, 4, 16, 30, 31, 127, 128, 16_383, 16_384, (1 << 21) - 1, 1 << 21, u32::MAX];

/// Content lengths on both sides of each length-octet boundary.
const BOUNDARIES: [usize; 6] = [127, 128, 255, 256, 65_535, 65_536];

/// SplitMix64, seeded by the property's input.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn tag(&mut self, constructed: bool) -> Tag {
        let class = [Class::Universal, Class::Application, Class::ContextSpecific, Class::Private]
            [self.below(4)];
        let number = if self.below(4) == 0 {
            self.next() as u32
        } else {
            TAG_NUMBERS[self.below(TAG_NUMBERS.len())]
        };
        Tag { class, constructed, number }
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let fill = self.next() as u8;
        (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
    }

    /// A content length: usually short, sometimes next to a boundary.
    fn length(&mut self) -> usize {
        if self.below(3) == 0 {
            let b = BOUNDARIES[self.below(BOUNDARIES.len())];
            b + self.below(3) - 1
        } else {
            self.below(40)
        }
    }

    fn tree(&mut self, depth: usize) -> Node {
        if depth == 0 || self.below(3) == 0 {
            let len = self.length();
            return Node::Primitive(self.tag(false), self.bytes(len));
        }
        let mut kids: Vec<Node> = (0..self.below(4)).map(|_| self.tree(depth - 1)).collect();
        if self.below(2) == 0 {
            // Pad the contents to land exactly on (or next to) a boundary.
            let target = BOUNDARIES[self.below(BOUNDARIES.len())] + self.below(3) - 1;
            let have: usize = kids.iter().map(|k| nested::encode(k).len()).sum();
            if let Some(filler) = target.checked_sub(have).and_then(filler) {
                kids.push(filler);
            }
        }
        Node::Constructed(self.tag(true), kids)
    }
}

/// A primitive element whose whole encoding is exactly `size` bytes, if
/// one of the tag and length-header sizes fits.
fn filler(size: usize) -> Option<Node> {
    let header_len = |len: usize| match len {
        0..=127 => 1,
        128..=255 => 2,
        256..=65_535 => 3,
        _ => 4,
    };
    // Tag numbers whose identifiers take 1, 2, 3, 4 and 5 octets.
    for (number, id_len) in [(4u32, 1usize), (31, 2), (128, 3), (16_384, 4), (1 << 21, 5)] {
        for hdr in 1..=4 {
            if let Some(len) = size.checked_sub(id_len + hdr) {
                if header_len(len) == hdr {
                    return Some(Node::Primitive(Tag::context(number), vec![0xA5; len]));
                }
            }
        }
    }
    None
}

proptest! {
    /// Random trees encode to the oracle's bytes, in a tight buffer.
    #[test]
    fn one_buffer_writer_matches_the_nested_buffer_writer(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let tree = mix.tree(4);
        let der = encode(&tree);
        prop_assert_eq!(&der, &nested::encode(&tree));
        prop_assert_eq!(der.len(), der.capacity());
    }
}

/// Every content length from 0 to 300 and around 65,536, one and two
/// levels deep, with a low and a high outer tag.
#[test]
fn every_length_near_the_boundaries_matches() {
    let lengths = (0..=300).chain(65_530..=65_541);
    for len in lengths {
        for outer in [Tag::universal_constructed(16), Tag::context_constructed(16_384)] {
            let leaf = Node::Primitive(Tag::universal(4), vec![0x5A; len]);
            let one = Node::Constructed(outer, vec![leaf.clone()]);
            let two = Node::Constructed(outer, vec![one.clone(), leaf]);
            for tree in [one, two] {
                assert_eq!(encode(&tree), nested::encode(&tree), "len {len}, {outer}");
            }
        }
    }
}
