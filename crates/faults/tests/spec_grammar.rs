//! Property tests for the fault-spec grammar.
//!
//! Spec strings are the fault plane's one input form: workloads and
//! benches carry them as plain strings, and `FaultPlan::parse_specs`
//! turns them straight into timed events. Every generated spelling —
//! every family, with no window, an open window and a closed one — must
//! parse to exactly the events written out by hand here, and a list of
//! specs to those events in time order, ties kept in the order given.

use proptest::prelude::*;

use cup_des::SimTime;
use cup_faults::{Behavior, FaultAction, FaultEvent, FaultPlan};

/// The behavior families by spec name, written out independently of
/// `Behavior`'s own name table.
const BEHAVIORS: [(&str, Behavior); 3] = [
    ("stale-serve", Behavior::StaleServe),
    ("drop-updates", Behavior::DropUpdates),
    ("lie-refresh", Behavior::LieRefresh),
];

/// One generated spec string and what it must parse to: its events, or
/// a token the rejection must name.
#[derive(Debug)]
struct Case {
    spec: String,
    expected: Result<Vec<FaultEvent>, &'static str>,
}

fn at(secs: u64, action: FaultAction) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(secs),
        action,
    }
}

/// A spec of any family and window shape whose window opens before
/// `max_start` seconds, blanks around it or not, with its events.
fn arb_case(max_start: u64) -> impl Strategy<Value = Case> {
    // (family, rate/factor grist, node, partition groups)
    let family = (0usize..7, 0u64..1_000_001, 0usize..10_000, 2u32..64);
    // (none / open / closed, start and length in seconds, blanks)
    let window = (0u32..3, 0u64..max_start, 1u64..10_000, any::<bool>());
    (family, window).prop_map(
        |((family, grist, node, groups), (shape, from, len, padded))| {
            let (body, onset, revert) = match family {
                0 => {
                    let rate = grist as f64 / 1_000_000.0;
                    let clear = FaultAction::SetLoss { rate: 0.0 };
                    (format!("drop:{rate}"), FaultAction::SetLoss { rate }, clear)
                }
                1 => {
                    let factor = (grist + 1) as f64 / 100.0;
                    let clear = FaultAction::SetLatencyFactor { factor: 1.0 };
                    (
                        format!("spike:{factor}"),
                        FaultAction::SetLatencyFactor { factor },
                        clear,
                    )
                }
                2 => (
                    format!("crash:{node}"),
                    FaultAction::Crash { node },
                    FaultAction::Restart { node },
                ),
                3 => (
                    format!("partition:{groups}"),
                    FaultAction::Partition { groups },
                    FaultAction::Heal,
                ),
                _ => {
                    let (name, behavior) = BEHAVIORS[family - 4];
                    (
                        format!("{name}:{node}"),
                        FaultAction::SetBehavior { node, behavior },
                        FaultAction::ClearBehavior { node, behavior },
                    )
                }
            };
            let (window, expected) = match shape {
                // Crash and partition have no whole-run form.
                0 if matches!(family, 2 | 3) => (String::new(), Err("needs a time")),
                0 => (String::new(), Ok(vec![at(0, onset)])),
                1 => (format!("@t={from}"), Ok(vec![at(from, onset)])),
                _ => (
                    format!("@t={from}..{}", from + len),
                    Ok(vec![at(from, onset), at(from + len, revert)]),
                ),
            };
            let pad = if padded { " " } else { "" };
            let spec = format!("{pad}{body}{window}{pad}");
            Case { spec, expected }
        },
    )
}

proptest! {
    /// One spec parses to its onset at the window start (t = 0 without a
    /// window), plus exactly one reversal at the end of a closed window
    /// and none otherwise; a spec the grammar refuses names why.
    #[test]
    fn events_follow_the_window(case in arb_case(86_400)) {
        let parsed = FaultPlan::parse_specs(&[case.spec.as_str()]);
        match (&parsed, &case.expected) {
            (Ok(plan), Ok(events)) => prop_assert_eq!(plan.events(), events.as_slice()),
            (Err(err), Err(token)) => {
                prop_assert!(err.contains(token) && err.contains(&case.spec), "{}", err);
            }
            _ => prop_assert!(false, "'{}' parsed to {:?}, expected {:?}", case.spec, parsed, case.expected),
        }
    }

    /// A list of specs parses to all their events in time order, with
    /// equal times kept in the order the specs (and each spec's onset
    /// and reversal) were given; starts below 4 s make ties common. The
    /// first refused spec refuses the list.
    #[test]
    fn plans_merge_specs_in_time_order_with_stable_ties(
        cases in proptest::collection::vec(arb_case(4), 1..8),
    ) {
        let specs: Vec<&str> = cases.iter().map(|c| c.spec.as_str()).collect();
        let parsed = FaultPlan::parse_specs(&specs);
        match cases.iter().find(|c| c.expected.is_err()) {
            Some(first_bad) => {
                let err = parsed.unwrap_err();
                prop_assert!(err.contains(&format!("'{}'", first_bad.spec)), "{}", err);
            }
            None => {
                let mut expected: Vec<FaultEvent> = cases
                    .iter()
                    .flat_map(|c| c.expected.clone().unwrap_or_default())
                    .collect();
                expected.sort_by_key(|e| e.at);
                let plan = parsed.unwrap();
                prop_assert_eq!(plan.events(), expected.as_slice());
            }
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
    use Behavior::{DropUpdates, LieRefresh, StaleServe};
    use FaultAction::{Crash, Heal, Partition, SetLatencyFactor, SetLoss};
    let set = |node, behavior| FaultAction::SetBehavior { node, behavior };
    let clear = |node, behavior| FaultAction::ClearBehavior { node, behavior };
    for (spec, events) in [
        ("drop:0.05", vec![(0, SetLoss { rate: 0.05 })]),
        (
            "spike:3@t=50..80",
            vec![
                (50, SetLatencyFactor { factor: 3.0 }),
                (80, SetLatencyFactor { factor: 1.0 }),
            ],
        ),
        ("crash:17@t=50", vec![(50, Crash { node: 17 })]),
        (
            "partition:2@t=30..60",
            vec![(30, Partition { groups: 2 }), (60, Heal)],
        ),
        (
            "stale-serve:17@t=50..200",
            vec![(50, set(17, StaleServe)), (200, clear(17, StaleServe))],
        ),
        ("drop-updates:9", vec![(0, set(9, DropUpdates))]),
        ("lie-refresh:3@t=40", vec![(40, set(3, LieRefresh))]),
    ] {
        let events: Vec<FaultEvent> = events.into_iter().map(|(t, a)| at(t, a)).collect();
        let plan = FaultPlan::parse_specs(&[spec]).unwrap();
        assert_eq!(plan.events(), events.as_slice(), "{spec}");
    }
}

#[test]
fn ties_keep_the_order_specs_were_given() {
    let specs = ["partition:2@t=0..5", "crash:0@t=1", "crash:1@t=5"];
    let plan = FaultPlan::parse_specs(&specs).unwrap();
    assert_eq!(
        plan.events(),
        &[
            at(0, FaultAction::Partition { groups: 2 }),
            at(1, FaultAction::Crash { node: 0 }),
            at(5, FaultAction::Heal),
            at(5, FaultAction::Crash { node: 1 }),
        ]
    );
    // Given in the other order, the two events at 5 s swap too.
    let reversed =
        FaultPlan::parse_specs(&["crash:1@t=5", "crash:0@t=1", "partition:2@t=0..5"]).unwrap();
    assert_eq!(reversed.events()[2].action, FaultAction::Crash { node: 1 });
    assert_eq!(reversed.events()[3].action, FaultAction::Heal);
    assert!(FaultPlan::none().is_empty());
    assert!(FaultPlan::parse_specs::<&str>(&[]).unwrap().is_empty());
    assert!(!plan.is_empty());
}
