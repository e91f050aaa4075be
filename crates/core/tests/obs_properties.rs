//! Algebraic properties of the integer latency histogram
//! ([`cup_core::Hist`]).
//!
//! The conformance suites compare histogram state byte-for-byte across
//! runtimes, and the parallel sweeps fold per-worker histograms into
//! one. Both only work because `Hist` is a pure multiset summary:
//! merging is associative and commutative, and recording order never
//! matters. These properties pin
//! each of those laws directly, plus the quantile function's
//! monotonicity and floor semantics.

use proptest::prelude::*;

use cup_core::Hist;

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

proptest! {
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
            let top = h.quantile(1000);
            prop_assert!(top <= max, "floor semantics: never above the max");
            prop_assert_eq!(top, hist_of(&[max]).quantile(1000), "the max's bucket floor");
            // Below the saturating top bucket the floor is within the
            // histogram's 25 % relative error; from it up, every value
            // reads that bucket's floor.
            let saturated = hist_of(&[u64::MAX]).quantile(1000);
            if max < saturated {
                prop_assert!(top >= max - max / 4, "floor too far below max {max}");
            } else {
                prop_assert_eq!(top, saturated);
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
