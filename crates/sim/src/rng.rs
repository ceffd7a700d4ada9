//! Deterministic randomness and workload distributions.
//!
//! Experiments must be reproducible run-to-run, so every stochastic model
//! takes a [`DetRng`] seeded explicitly. On top of the raw generator we
//! provide the distributions the workload generators need: exponential
//! inter-arrivals, Zipf-distributed image popularity (registry experiments),
//! Pareto/log-normal file sizes (small-file experiments).

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
    pub fn next_u64(&mut self) -> u64 {
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

    /// Fork an independent child stream, e.g. one per simulated node, so
    /// adding nodes does not perturb the streams of existing nodes.
    pub fn fork(&mut self, stream: u64) -> DetRng {
        let base = self.next_u64();
        DetRng::seeded(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
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
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponential variate with the given mean (inverse rate).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// Bounded Pareto variate (shape `alpha`, bounds `[lo, hi]`), used for
    /// heavy-tailed file sizes.
    pub fn pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.unit();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse-CDF of the bounded Pareto distribution.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Choose an index from a slice of weights, proportionally.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf sampler over ranks `0..n`, exponent `s`. Popular images in registry
/// experiments follow this ("a few base images dominate pulls").
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty support");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    /// Sample a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
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
    fn fork_streams_are_deterministic_and_independent() {
        let mut root1 = DetRng::seeded(7);
        let mut root2 = DetRng::seeded(7);
        let mut a1 = root1.fork(0);
        let mut a2 = root2.fork(0);
        assert_eq!(a1.uniform(0, 1 << 30), a2.uniform(0, 1 << 30));
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
    fn pareto_respects_bounds() {
        let mut rng = DetRng::seeded(4);
        for _ in 0..5000 {
            let x = rng.pareto(1.2, 100.0, 1_000_000.0);
            assert!((100.0..=1_000_000.0).contains(&x), "{x} out of bounds");
        }
    }

    #[test]
    fn zipf_rank0_dominates() {
        let mut rng = DetRng::seeded(5);
        let z = Zipf::new(100, 1.1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        // All mass within support.
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut rng = DetRng::seeded(6);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
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

    #[test]
    fn std_normal_moments() {
        let mut rng = DetRng::seeded(9);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.std_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
