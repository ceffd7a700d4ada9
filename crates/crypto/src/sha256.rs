//! SHA-256 (FIPS 180-4).
//!
//! Content digests are the backbone of OCI images: layers, manifests and
//! configs are all addressed by their SHA-256. This is a straightforward
//! from-scratch implementation of the compression function with incremental
//! (streaming) hashing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// OCI-style string form: `sha256:<hex>`.
    pub fn oci(&self) -> String {
        format!("sha256:{}", crate::hex::encode(&self.0))
    }

    /// A short prefix for log lines.
    pub fn short(&self) -> String {
        crate::hex::encode(&self.0[..6])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.oci())
    }
}

/// Round constants, one row per sixteen rounds.
#[rustfmt::skip]
const K: [[u32; 16]; 4] = [[
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
], [
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
], [
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
], [
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
]];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    pub(crate) fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb more input.
    pub(crate) fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("message too long");
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return self;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
        self
    }

    /// Finish and produce the digest.
    pub(crate) fn finalize(mut self) -> Digest {
        // Padding goes into the block buffer itself: 0x80, zeros, then the
        // 64-bit big-endian bit length in the last eight bytes — of this
        // block if the message left room for them, of one more otherwise.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One round, with the eight working variables passed in the rotated
/// order of that round so no value moves between them.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($kw);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
    };
}

/// Four rounds from round `$i`. After them the working variables are in
/// `$e, $f, $g, $h, $a, $b, $c, $d` order. `$kw` maps a round index to
/// `K[t] + W[t]`.
macro_rules! rounds4 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr, $i:expr) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $kw($i));
        round!($h, $a, $b, $c, $d, $e, $f, $g, $kw($i + 1));
        round!($g, $h, $a, $b, $c, $d, $e, $f, $kw($i + 2));
        round!($f, $g, $h, $a, $b, $c, $d, $e, $kw($i + 3));
    };
}

/// Sixteen rounds: after them the working variables are back in `a..h`
/// order. `$kw` maps a round index within the sixteen to `K[t] + W[t]`.
macro_rules! rounds16 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        rounds4!($a, $b, $c, $d, $e, $f, $g, $h, $kw, 0);
        rounds4!($e, $f, $g, $h, $a, $b, $c, $d, $kw, 4);
        rounds4!($a, $b, $c, $d, $e, $f, $g, $h, $kw, 8);
        rounds4!($e, $f, $g, $h, $a, $b, $c, $d, $kw, 12);
    };
}

/// Rounds 0..4, which read only the message words `w[0..4]`. Returns the
/// working variables in `a..h` order.
#[inline(always)]
fn rounds_0_to_3(vars: [u32; 8], w: &[u32; 16]) -> [u32; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = vars;
    let first = |i: usize| K[0][i].wrapping_add(w[i]);
    rounds4!(a, b, c, d, e, f, g, h, first, 0);
    [e, f, g, h, a, b, c, d]
}

/// Rounds 4..64 from the working variables after round 3. The message
/// schedule is a rolling window of sixteen words: `W[t]` for `t >= 16`
/// overwrites `W[t - 16]`, the oldest word it is computed from.
///
/// Straight-line code, with no loop over `K`: that is what lets the loop
/// over lanes in [`SharedPrefix::compress4`] run as vector instructions.
#[inline(always)]
fn rounds_4_to_63(vars: [u32; 8], w: &mut [u32; 16]) -> [u32; 8] {
    // Named as rounds 0..4 of `rounds16!` would have left them.
    let [mut e, mut f, mut g, mut h, mut a, mut b, mut c, mut d] = vars;
    let first = |i: usize| K[0][i].wrapping_add(w[i]);
    rounds4!(e, f, g, h, a, b, c, d, first, 4);
    rounds4!(a, b, c, d, e, f, g, h, first, 8);
    rounds4!(e, f, g, h, a, b, c, d, first, 12);
    macro_rules! scheduled16 {
        ($k:expr) => {
            let mut next = |i: usize| {
                let w15 = w[(i + 1) % 16];
                let w2 = w[(i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i] = w[i]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) % 16])
                    .wrapping_add(s1);
                $k[i].wrapping_add(w[i])
            };
            rounds16!(a, b, c, d, e, f, g, h, next);
        };
    }
    scheduled16!(K[1]);
    scheduled16!(K[2]);
    scheduled16!(K[3]);
    [a, b, c, d, e, f, g, h]
}

/// The compression function over one block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let vars = rounds_4_to_63(rounds_0_to_3(*state, &w), &mut w);
    for (s, v) in state.iter_mut().zip(vars) {
        *s = s.wrapping_add(v);
    }
}

/// Four one-block messages at a time, whose first four message words are
/// the same in all four: a domain-separation tag at the head of each block.
/// Rounds 0..4 read only those words, so they run once, here.
pub(crate) struct SharedPrefix {
    words: [u32; 4],
    vars: [u32; 8],
}

impl SharedPrefix {
    pub(crate) fn new(words: [u32; 4]) -> SharedPrefix {
        let mut w = [0; 16];
        w[..4].copy_from_slice(&words);
        SharedPrefix {
            words,
            vars: rounds_0_to_3(H0, &w),
        }
    }

    /// The digests, as words, of four blocks `words ++ rest` (padding
    /// included) compressed from the initial state. Lanes are the inner
    /// index: `rest[t][lane]` is word `4 + t` of block `lane`, and so is
    /// the result's `[word][lane]`.
    pub(crate) fn compress4(&self, rest: &[[u32; 4]; 12]) -> [[u32; 4]; 8] {
        let mut out = [[0; 4]; 8];
        for lane in 0..4 {
            let mut w = [0; 16];
            w[..4].copy_from_slice(&self.words);
            for (word, lanes) in w[4..].iter_mut().zip(rest) {
                *word = lanes[lane];
            }
            let vars = rounds_4_to_63(self.vars, &mut w);
            for ((o, h), v) in out.iter_mut().zip(H0).zip(vars) {
                o[lane] = h.wrapping_add(v);
            }
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hexd(d: &Digest) -> String {
        crate::hex::encode(&d.0)
    }

    /// The compression function as FIPS 180-4 §6.2.2 writes it: the full
    /// 64-word schedule, then 64 rounds that shift all eight variables.
    /// Reference model for [`compress`].
    fn compress_reference(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i / 16][i % 16])
                .wrapping_add(w[i]);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// One-shot SHA-256 over [`compress_reference`], padding built the
    /// long way round (a padded copy of the whole message).
    fn sha256_reference(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_reference(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// Every length at which the padding changes shape: empty, one byte,
    /// the last length whose padding fits its block (55) and the first
    /// that spills (56), a full block either side, and the same one block
    /// later.
    #[test]
    fn padding_boundaries_match_the_reference() {
        for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = patterned(len);
            assert_eq!(sha256(&data), sha256_reference(&data), "length {len}");
        }
    }

    #[test]
    fn update_split_at_every_offset_matches_the_reference() {
        let data = patterned(130);
        let want = sha256_reference(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hexd(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hexd(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        // FIPS 180-4 example: 56-byte message forcing two-block padding.
        assert_eq!(
            hexd(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hexd(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn oci_string_roundtrip() {
        let d = sha256(b"layer data");
        let s = d.oci();
        assert_eq!(s, format!("sha256:{}", crate::hex::encode(&d.0)));
    }

    proptest! {
        #[test]
        fn compress_matches_the_reference_over_chained_blocks(
            start in any::<[u32; 8]>(),
            blocks in proptest::collection::vec(any::<[u8; 32]>(), 2..12),
        ) {
            let (mut fast, mut slow) = (start, start);
            for halves in blocks.chunks_exact(2) {
                let mut block = [0u8; 64];
                block[..32].copy_from_slice(&halves[0]);
                block[32..].copy_from_slice(&halves[1]);
                compress(&mut fast, &block);
                compress_reference(&mut slow, &block);
                prop_assert_eq!(fast, slow);
            }
        }

        /// Each lane of the four-lane kernel equals `compress` and
        /// `compress_reference` over its block, from the initial state.
        #[test]
        fn compress4_matches_compress_in_every_lane(
            prefix in any::<[u32; 4]>(),
            rest in proptest::collection::vec(any::<[u32; 4]>(), 12..13),
        ) {
            let rest: [[u32; 4]; 12] = rest.try_into().unwrap();
            let lanes = SharedPrefix::new(prefix).compress4(&rest);
            for lane in 0..4 {
                let mut block = [0u8; 64];
                let words = prefix.iter().copied().chain(rest.iter().map(|w| w[lane]));
                for (bytes, word) in block.chunks_exact_mut(4).zip(words) {
                    bytes.copy_from_slice(&word.to_be_bytes());
                }
                let (mut fast, mut slow) = (H0, H0);
                compress(&mut fast, &block);
                compress_reference(&mut slow, &block);
                let got = lanes.map(|w| w[lane]);
                prop_assert_eq!(got, fast, "lane {}", lane);
                prop_assert_eq!(got, slow, "lane {}", lane);
            }
        }

        #[test]
        fn streaming_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                      split in 0usize..4096) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..256),
                                            b in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn many_small_updates_match() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }
}
