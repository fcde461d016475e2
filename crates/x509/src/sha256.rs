//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Used only by the simulated signer ([`crate::sign`]) and key identifiers;
//! the workspace deliberately has no cryptographic dependencies (DESIGN.md
//! substitution table).

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, total_len: 0 }
    }
}

impl Sha256 {
    /// New hasher.
    pub fn new() -> Sha256 {
        Sha256::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            let (head, rest) = data.split_at(take);
            for (dst, &src) in self.buffer.iter_mut().skip(self.buffered).zip(head) {
                *dst = src;
            }
            self.buffered += take;
            data = rest;
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            let mut block = [0u8; 64];
            block.copy_from_slice(chunk); // chunks_exact yields exactly 64 bytes
            self.compress(&block);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            for (dst, &src) in self.buffer.iter_mut().zip(tail) {
                *dst = src;
            }
            self.buffered = tail.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    ///
    /// The padding is written into the last block directly: `0x80`, zeros
    /// up to the 56th byte (spilling into one more block when fewer than
    /// nine bytes are free) and the message length in bits, big-endian.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut block = self.buffer;
        let mut fill = block.iter_mut().skip(self.buffered);
        if let Some(marker) = fill.next() {
            *marker = 0x80;
        }
        fill.for_each(|b| *b = 0);
        if self.buffered >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        let (_, length) = block.split_at_mut(56);
        length.copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        // FIPS 180-4 message schedule: i ranges over 16..64 inside [u32; 64],
        // so every index below is statically in bounds.
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3); // analysis:allow(slice_index) i in 16..64 indexes [u32; 64]
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10); // analysis:allow(slice_index) i in 16..64 indexes [u32; 64]
            w[i] = w[i - 16] // analysis:allow(slice_index) i in 16..64 indexes [u32; 64]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7]) // analysis:allow(slice_index) i in 16..64 indexes [u32; 64]
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for (&ki, &wi) in K.iter().zip(w.iter()) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(ki)
                .wrapping_add(wi);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

fn _hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        _hex(bytes)
    }

    /// `finalize` as it was before it padded in one step: one `update`
    /// call per padding byte, then the length with its own count undone.
    fn byte_at_a_time_finalize(mut h: Sha256) -> [u8; 32] {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffered != 56 {
            h.update(&[0]);
        }
        h.total_len = h.total_len.wrapping_sub(8);
        h.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(h.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_step_padding_matches_byte_at_a_time_padding() {
        // Every length 0–200 covers each buffered count 0–63 and both the
        // one-block (< 56 buffered) and two-block (≥ 56) padding cases.
        // Fed in 7-byte pieces, the buffer's tail still holds bytes of an
        // earlier block, which the zero fill must overwrite.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=200 {
            let mut whole = Sha256::new();
            whole.update(&data[..len]);
            let mut pieces = Sha256::new();
            data[..len].chunks(7).for_each(|piece| pieces.update(piece));
            let expected = byte_at_a_time_finalize(whole.clone());
            assert_eq!(whole.finalize(), expected, "len {len}");
            assert_eq!(pieces.finalize(), expected, "len {len}, 7-byte pieces");
        }
    }

    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split={split}");
        }
    }
}
