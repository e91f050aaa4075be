//! Property tests for the fault-spec grammar.
//!
//! The spec strings are the public surface of the fault plane — workloads
//! and benches carry them as plain strings — so the grammar must be
//! stable under round-trips: parsing a spec, printing its canonical
//! spelling, and parsing that again must reach the same structured value
//! and expand to the same timed events. This covers every family
//! (including the behavior faults) and every window shape.

use proptest::prelude::*;

use cup_des::SimTime;
use cup_faults::{FaultKind, FaultPlan, FaultSpec, SpecParam, SpecWindow};

/// One generated structured spec, always grammar-valid.
fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    (
        (
            0u32..7,         // which family
            0u64..1_000_001, // rate/factor grist
            0usize..10_000,  // node index
            2u32..64,        // partition groups
        ),
        (
            0u32..3,      // window shape: none / open / closed
            0u64..86_400, // window start (seconds)
            1u64..10_000, // window length (seconds)
        ),
    )
        .prop_map(
            |((family, grist, node, groups), (window_shape, from, len))| {
                let (kind, param) = match family {
                    0 => (FaultKind::Drop, SpecParam::Rate(grist as f64 / 1_000_000.0)),
                    1 => (
                        FaultKind::Spike,
                        SpecParam::Factor((grist + 1) as f64 / 100.0),
                    ),
                    2 => (FaultKind::Crash, SpecParam::Node(node)),
                    3 => (FaultKind::Partition, SpecParam::Groups(groups)),
                    4 => (FaultKind::StaleServe, SpecParam::Node(node)),
                    5 => (FaultKind::DropUpdates, SpecParam::Node(node)),
                    _ => (FaultKind::LieRefresh, SpecParam::Node(node)),
                };
                // Crash and partition demand a window; give them one even
                // when the shape draw said "none".
                let needs_window = matches!(kind, FaultKind::Crash | FaultKind::Partition);
                let window = match (window_shape, needs_window) {
                    (0, false) => None,
                    (1, _) | (0, true) => Some(SpecWindow {
                        from_secs: from,
                        until_secs: None,
                    }),
                    _ => Some(SpecWindow {
                        from_secs: from,
                        until_secs: Some(from + len),
                    }),
                };
                FaultSpec {
                    kind,
                    param,
                    window,
                }
            },
        )
}

proptest! {
    /// parse → Display → parse is the identity, for every family and
    /// window shape, and both spellings expand to the same timed events.
    #[test]
    fn display_then_parse_is_identity(spec in arb_spec()) {
        let printed = spec.to_string();
        let reparsed: FaultSpec = printed
            .parse()
            .unwrap_or_else(|e| panic!("canonical '{printed}' must parse: {e}"));
        prop_assert_eq!(spec, reparsed);
        prop_assert_eq!(spec.events(), reparsed.events());
        // A second Display is already a fixed point.
        prop_assert_eq!(printed.clone(), reparsed.to_string());
        // The plan parser accepts the canonical spelling too.
        let plan = FaultPlan::parse_specs(&[printed.as_str()]);
        prop_assert!(plan.is_ok(), "plan rejected '{}': {:?}", printed, plan);
    }

    /// The expansion invariants hold for every generated spec: onset at
    /// the window start (t = 0 when unwindowed), a closed window emits
    /// exactly one paired reversal at its end, an open one emits none.
    #[test]
    fn events_follow_the_window(spec in arb_spec()) {
        let events = spec.events();
        let expected_onset = spec
            .window
            .map_or(SimTime::ZERO, |w| SimTime::from_secs(w.from_secs));
        prop_assert_eq!(events[0].at, expected_onset);
        match spec.window.and_then(|w| w.until_secs) {
            Some(until) => {
                prop_assert_eq!(events.len(), 2);
                prop_assert_eq!(events[1].at, SimTime::from_secs(until));
                prop_assert!(events[0].at < events[1].at);
            }
            None => prop_assert_eq!(events.len(), 1),
        }
    }
}

#[test]
fn parse_failures_name_the_offending_token() {
    // (bad spec, token the error must contain)
    for (bad, token) in [
        ("meteor:1@t=5", "'meteor'"),
        ("drop", "no ':' separator"),
        ("drop:zzz", "'zzz'"),
        ("drop:1.5", "1.5 outside [0, 1]"),
        ("spike:-2", "-2 must be positive"),
        ("crash:xyz@t=1", "'xyz'"),
        ("crash:5", "needs a time"),
        ("partition:1@t=1..2", "partitions nothing"),
        ("stale-serve:bob", "'bob'"),
        ("drop-updates:1.5", "'1.5'"),
        ("lie-refresh:3@t=9..9", "9..9 must end after it starts"),
        ("drop:0.1@t=soon", "'soon'"),
        ("drop:0.1@t=18446744073710", "'18446744073710'"),
    ] {
        let err = FaultPlan::parse_specs(&[bad]).unwrap_err();
        assert!(
            err.contains(token),
            "error for '{bad}' must name {token}, got: {err}"
        );
        assert!(
            err.contains(bad),
            "error for '{bad}' must echo the whole spec, got: {err}"
        );
    }
}

#[test]
fn every_family_has_a_canonical_example() {
    for (spec, kind) in [
        ("drop:0.05", FaultKind::Drop),
        ("spike:3@t=50..80", FaultKind::Spike),
        ("crash:17@t=50", FaultKind::Crash),
        ("partition:2@t=30..60", FaultKind::Partition),
        ("stale-serve:17@t=50..200", FaultKind::StaleServe),
        ("drop-updates:9", FaultKind::DropUpdates),
        ("lie-refresh:3@t=40", FaultKind::LieRefresh),
    ] {
        let parsed: FaultSpec = spec.parse().unwrap();
        assert_eq!(parsed.kind, kind);
        assert_eq!(parsed.to_string(), spec, "examples are already canonical");
    }
}
