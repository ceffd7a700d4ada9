//! Seeded input generators. The program under test only ever sees the
//! bytes and specs produced here; the harness keeps the originals so the
//! oracle can compare what comes back. Sizes are fixed by the workload
//! definition and only contents, placement and selection follow the seed,
//! so two seeds cost the same work and differ in every byte.

use std::sync::Arc;

/// SplitMix64: small, seedable, and independent of the program's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for sub-stream `stream` of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ stream);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `len` bytes in three equal parts: byte runs (16–512 long), text over a
/// 16-symbol alphabet, and incompressible noise — the three regimes a
/// container layer mixes (zero pages and padding, source and config
/// text, already-compressed payloads).
pub fn mixed_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8; 16] = b"etaoinshrdlu \n()";
    let mut out = Vec::with_capacity(len);
    let third = len / 3;
    while out.len() < third {
        let run = (16 + rng.below(497) as usize).min(third - out.len());
        let byte = rng.next() as u8;
        out.extend(std::iter::repeat_n(byte, run));
    }
    while out.len() < 2 * third {
        let mut word = rng.next();
        for _ in 0..16.min(2 * third - out.len()) {
            out.push(ALPHABET[(word & 15) as usize]);
            word >>= 4;
        }
    }
    while out.len() < len {
        let word = rng.next().to_le_bytes();
        let take = 8.min(len - out.len());
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// One generated file: absolute path inside the image and its contents,
/// shared by `Arc` between the program's input and the oracle's copy.
pub type GenFile = (String, Arc<Vec<u8>>);

/// FNV-1a, 64 bits: the digest of generated inputs (what "same seed,
/// same inputs" means) and of logical outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn files(&mut self, files: &[GenFile]) {
        for (path, data) in files {
            self.bytes(path.as_bytes());
            self.bytes(data);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `count` file sizes on a log-uniform grid from `lo` to `hi` bytes.
pub fn log_uniform_sizes(count: usize, lo: f64, hi: f64) -> Vec<usize> {
    let ratio = hi / lo;
    (0..count)
        .map(|i| (lo * ratio.powf(i as f64 / (count - 1).max(1) as f64)).round() as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = mixed_bytes(&mut Rng::stream(7, 1), 4096);
        let b = mixed_bytes(&mut Rng::stream(7, 1), 4096);
        let c = mixed_bytes(&mut Rng::stream(8, 1), 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 4096);
    }

    #[test]
    fn mixed_bytes_has_three_regimes() {
        let data = mixed_bytes(&mut Rng::new(1), 3000);
        let runs = &data[..1000];
        let text = &data[1000..2000];
        assert!(runs.windows(2).filter(|w| w[0] == w[1]).count() > 900);
        assert!(text.iter().all(|b| b"etaoinshrdlu \n()".contains(b)));
    }

    #[test]
    fn log_uniform_grid_spans_the_range() {
        let sizes = log_uniform_sizes(2048, 1024.0, 65536.0);
        assert_eq!(sizes[0], 1024);
        assert_eq!(sizes[2047], 65536);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }
}
