//! Property tests for the overlay routing invariants CUP rests on.
//!
//! The protocol requires (see `cup_overlay::Overlay`) that repeatedly
//! following `next_hop` from any live node reaches the key's authority in
//! a bounded number of hops, on the current topology, deterministically.
//! These properties drive both substrates — the 2-D CAN (with its
//! spatial-grid point index) and the Chord ring (with its binary-search
//! successor lookup) — from random live nodes, over random keys, across
//! random churn sequences, and check the invariant after every step.

use proptest::prelude::*;

use cup_des::{DetRng, KeyId, NodeId};
use cup_overlay::{AnyOverlay, Overlay, OverlayKind};

/// Hop bound for a lookup: CAN routes in O(√n), Chord in O(log n); both
/// fit comfortably under this deliberately loose cap, while a routing
/// loop or a detour through the whole network does not.
fn hop_bound(kind: OverlayKind, n: usize) -> usize {
    match kind {
        // 4·√n + 16: the grid diameter of a 2-D CAN is ~√n and greedy
        // routing takes a monotone path, but takeover nodes holding
        // several zones can stretch it.
        OverlayKind::Can => 4 * (n as f64).sqrt().ceil() as usize + 16,
        // Each hop at least halves the remaining ring distance.
        OverlayKind::Chord => 4 * (usize::BITS - n.leading_zeros()) as usize + 16,
    }
}

/// Checks the full invariant for one (overlay, key, start) triple:
/// routing terminates at the key's owner, within the hop bound, along
/// actual neighbor edges.
fn check_lookup(
    overlay: &AnyOverlay,
    kind: OverlayKind,
    start: NodeId,
    key: KeyId,
) -> Result<(), TestCaseError> {
    let authority = overlay.authority(key);
    prop_assert!(
        overlay.is_alive(authority),
        "authority {authority} of {key} must be alive"
    );
    let path = match overlay.route(start, key) {
        Ok(path) => path,
        Err(e) => return Err(TestCaseError::fail(format!("route({start}, {key}): {e}"))),
    };
    // The buffer form is the same walk, whatever the buffer held before.
    let mut reused = vec![authority; 3];
    prop_assert!(overlay.route_into(start, key, &mut reused).is_ok());
    prop_assert_eq!(&reused, &path);
    prop_assert_eq!(*path.first().unwrap(), start);
    prop_assert_eq!(
        *path.last().unwrap(),
        authority,
        "lookup for {} from {} ended at {} instead of the owner {}",
        key,
        start,
        path.last().unwrap(),
        authority
    );
    let bound = hop_bound(kind, overlay.len());
    prop_assert!(
        path.len() - 1 <= bound,
        "lookup for {} took {} hops (bound {} at {} nodes)",
        key,
        path.len() - 1,
        bound,
        overlay.len()
    );
    for w in path.windows(2) {
        prop_assert!(
            overlay.neighbors(w[0]).contains(&w[1]),
            "path edge {} -> {} is not a neighbor link",
            w[0],
            w[1]
        );
    }
    Ok(())
}

/// Runs `check_lookup` for a deterministic sample of keys and live
/// starting nodes.
fn check_many_lookups(
    overlay: &AnyOverlay,
    kind: OverlayKind,
    rng: &mut DetRng,
    lookups: usize,
) -> Result<(), TestCaseError> {
    let live = overlay.nodes();
    for _ in 0..lookups {
        let start = live[rng.choose_index(live.len())];
        let key = KeyId(rng.next_below(1 << 16) as u32);
        check_lookup(overlay, kind, start, key)?;
    }
    Ok(())
}

proptest! {
    /// Every lookup from a random live node terminates at the key's
    /// owner in bounded hops, on freshly built overlays of random size.
    #[test]
    fn lookups_reach_owner_in_bounded_hops(seed in any::<u64>(), n in 1usize..260) {
        for kind in [OverlayKind::Can, OverlayKind::Chord] {
            let mut rng = DetRng::seed_from(seed);
            let overlay = AnyOverlay::build(kind, n, &mut rng).unwrap();
            check_many_lookups(&overlay, kind, &mut rng, 24)?;
        }
    }

    /// The invariant survives an arbitrary join/leave sequence: after
    /// every churn event, lookups from random live nodes still terminate
    /// at the (possibly new) owner within the bound.
    #[test]
    fn lookups_stay_correct_across_churn(
        seed in any::<u64>(),
        n in 2usize..96,
        churn in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        for kind in [OverlayKind::Can, OverlayKind::Chord] {
            let mut rng = DetRng::seed_from(seed);
            let mut overlay = AnyOverlay::build(kind, n, &mut rng).unwrap();
            for &join in &churn {
                if join {
                    let report = overlay.join(&mut rng).unwrap();
                    prop_assert!(report.joined.is_some());
                } else if overlay.len() > 1 {
                    let live = overlay.nodes();
                    let victim = live[rng.choose_index(live.len())];
                    overlay.leave(victim).unwrap();
                    prop_assert!(!overlay.is_alive(victim));
                }
                check_many_lookups(&overlay, kind, &mut rng, 8)?;
            }
        }
    }

    /// Ownership is total and exclusive: every key has exactly one live
    /// authority, and routing from the authority itself is a no-op.
    #[test]
    fn ownership_is_total_and_lookup_from_owner_trivial(seed in any::<u64>(), n in 1usize..128) {
        for kind in [OverlayKind::Can, OverlayKind::Chord] {
            let mut rng = DetRng::seed_from(seed);
            let overlay = AnyOverlay::build(kind, n, &mut rng).unwrap();
            for k in 0..24u32 {
                let key = KeyId(rng.next_below(1 << 20) as u32 + k);
                let auth = overlay.authority(key);
                prop_assert!(overlay.is_alive(auth));
                prop_assert_eq!(overlay.next_hop(auth, key).unwrap(), None);
                prop_assert_eq!(overlay.route(auth, key).unwrap(), vec![auth]);
            }
        }
    }
}
