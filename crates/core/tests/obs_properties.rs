//! Algebraic properties of the integer latency histogram
//! ([`cup_core::Hist`]) and of its allocate-on-first-sample form
//! ([`cup_core::LazyHist`]).
//!
//! The conformance suites compare histogram state byte-for-byte across
//! runtimes, and the parallel sweeps fold per-worker histograms into
//! one. Both only work because `Hist` is a pure multiset summary:
//! merging is associative and commutative, and recording order never
//! matters. These properties pin
//! each of those laws directly, plus the quantile function's
//! monotonicity and floor semantics.

use proptest::prelude::*;

use cup_core::{Hist, LazyHist};

/// Values spanning every histogram regime: the exact low range, the
/// log-linear middle, huge values, and the saturating top bucket.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u64..4, 0u64..1_000_000).prop_map(|(regime, m)| match regime {
            0 => m % 8,
            1 => 8 + m,
            2 => m << 30,
            _ => u64::MAX,
        }),
        0..200,
    )
}

fn hist_of(values: &[u64]) -> Hist {
    let mut h = Hist::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn lazy_of(values: &[u64]) -> LazyHist {
    let mut h = LazyHist::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// A `LazyHist` is the `Hist` it defers in everything read from it:
    /// an untouched one, a default one and one merged with empties are
    /// equal; merging is exact and order-free; merging an empty one,
    /// from either side, changes nothing.
    #[test]
    fn lazy_hist_reads_like_the_hist_it_defers(a in arb_values(), b in arb_values()) {
        let mut untouched = LazyHist::default();
        untouched.merge(&LazyHist::default());
        untouched.merge(&lazy_of(&[]));
        prop_assert_eq!(&untouched, &LazyHist::default());
        prop_assert_eq!(untouched.to_hist(), Hist::new());

        let (la, lb) = (lazy_of(&a), lazy_of(&b));
        prop_assert_eq!(la == LazyHist::default(), a.is_empty());
        let mut ab = la.clone();
        ab.merge(&lb);
        let mut ba = lb.clone();
        ba.merge(&la);
        prop_assert_eq!(&ab, &ba);
        let whole: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(ab.to_hist(), hist_of(&whole));
        prop_assert_eq!(ab.count(), whole.len() as u64);

        let mut same = la.clone();
        same.merge(&LazyHist::default());
        prop_assert_eq!(&same, &la);
        let mut from_empty = LazyHist::default();
        from_empty.merge(&la);
        prop_assert_eq!(&from_empty, &la);
    }

    /// Merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn merge_commutes(a in arb_values(), b in arb_values()) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha;
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_associates(a in arb_values(), b in arb_values(), c in arb_values()) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha;
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb;
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Recording is order-independent: any permutation of the sample
    /// stream produces byte-identical state. This is the exact property
    /// that lets the sharded live runtime (concurrent recording order)
    /// match the DES (serial delivery order) byte-for-byte.
    #[test]
    fn recording_order_is_irrelevant(values in arb_values(), seed in 0u64..1_000) {
        let forward = hist_of(&values);
        // Deterministic shuffle driven by the seed.
        let mut shuffled = values.clone();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(forward, hist_of(&shuffled));
    }

    /// Splitting a stream and merging the halves equals recording it
    /// whole — the parallel-sweep aggregation law.
    #[test]
    fn split_then_merge_equals_whole(values in arb_values(), split in 0usize..200) {
        let cut = split.min(values.len());
        let mut merged = hist_of(&values[..cut]);
        merged.merge(&hist_of(&values[cut..]));
        prop_assert_eq!(merged, hist_of(&values));
    }

    /// The quantile function is monotone in `p` and bracketed by the
    /// recorded extremes: a bucket floor never exceeds the true maximum,
    /// and the p=0/p=1000 readings bound every other reading.
    #[test]
    fn quantile_is_monotone_and_bounded(values in arb_values()) {
        let h = hist_of(&values);
        let mut prev = h.quantile(0);
        for p in [1u32, 10, 250, 500, 750, 900, 990, 999, 1000] {
            let q = h.quantile(p);
            prop_assert!(q >= prev, "quantile({p}) = {q} < quantile(prev) = {prev}");
            prev = q;
        }
        if let Some(&max) = values.iter().max() {
            prop_assert!(h.quantile(1000) <= max, "floor semantics: never above the max");
            // The floor is within the histogram's relative error: above
            // max/2 is far looser than the real ≤25% bound, but stays
            // true for the saturating top bucket too.
            if max > 0 && max < u64::MAX / 2 {
                prop_assert!(h.quantile(1000) >= max / 2, "floor too far below max {max}");
            }
        }
    }

    /// Merging an empty histogram is the identity.
    #[test]
    fn empty_is_identity(values in arb_values()) {
        let h = hist_of(&values);
        let mut merged = h;
        merged.merge(&Hist::new());
        prop_assert_eq!(merged, h);
        let mut from_empty = Hist::new();
        from_empty.merge(&h);
        prop_assert_eq!(from_empty, h);
    }
}
