//! Deterministic random number generation.
//!
//! Experiments must be exactly reproducible from a seed, across platforms
//! and across versions of external crates. We therefore implement a small,
//! well-known generator (xoshiro256** seeded via SplitMix64) rather than
//! relying on an external crate's unspecified algorithm; [`DetRng`] ships
//! the uniform/exponential/shuffle helpers the workloads need.

/// A deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use cup_des::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next(), b.next());
/// let x = a.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

/// Advances a SplitMix64 state and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of internal state are derived with SplitMix64, the
    /// initialization recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent child generator for a labelled subsystem.
    ///
    /// Deriving streams (instead of sharing one generator) keeps, e.g., the
    /// query workload identical whether or not the churn generator also
    /// draws random numbers.
    pub fn derive(&self, label: u64) -> DetRng {
        // Mix the label into a fresh SplitMix64 stream keyed by our state.
        let mut sm = self.s[0]
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(label ^ 0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Returns the next value of the xoshiro256** sequence.
    ///
    /// Deliberately named like the generator literature's `next()`; this
    /// type is not an iterator (an RNG never ends).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits mapped onto the unit interval.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias
    /// (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns an exponentially distributed value with the given rate
    /// parameter, i.e. mean `1 / rate` (used for Poisson inter-arrivals).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn next_exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive, got {rate}");
        // Avoid ln(0) by flipping the uniform sample to (0, 1].
        let u = 1.0 - self.next_f64();
        -u.ln() / rate
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a uniformly chosen element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn choose_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..len` (uniformly, without
    /// replacement). If `k >= len`, returns all indices shuffled.
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..len).collect();
        self.shuffle(&mut all);
        all.truncate(k.min(len));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(8);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn derive_is_stable_and_independent() {
        let root = DetRng::seed_from(1);
        let mut a1 = root.derive(10);
        let mut a2 = root.derive(10);
        let mut b = root.derive(11);
        assert_eq!(a1.next(), a2.next());
        assert_ne!(a1.next(), b.next());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut rng = DetRng::seed_from(4);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn next_exp_has_right_mean() {
        let mut rng = DetRng::seed_from(5);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.next_exp(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} should be near 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = DetRng::seed_from(9);
        let sample = rng.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        DetRng::seed_from(1).next_below(0);
    }
}
