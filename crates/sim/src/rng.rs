//! Deterministic randomness and workload distributions.
//!
//! Experiments must be reproducible run-to-run, so every stochastic model
//! takes a [`DetRng`] seeded explicitly. On top of the raw generator we
//! provide the draws the workload generators need: uniform integers,
//! Bernoulli trials, exponential inter-arrivals and shuffles.

/// Deterministic RNG: xoshiro256** seeded via splitmix64, plus the
/// sampling helpers used by the workload generators. Self-contained so the
/// stream is stable across toolchains and needs no external crates.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Create a generator from an explicit seed. The same seed always
    /// produces the same stream.
    pub fn seeded(seed: u64) -> DetRng {
        // splitmix64 expansion of the seed into the xoshiro state; the
        // expander guarantees a non-zero state for every seed.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty uniform range {lo}..{hi}");
        let span = hi - lo;
        // Rejection sampling to avoid modulo bias on wide spans.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Bernoulli trial with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponential variate with the given mean (inverse rate).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seeded(42);
        let mut b = DetRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::seeded(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() / mean < 0.05, "mean {got}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seeded(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
