//! Fault scripts: timed events and their stable spec-string surface.
//!
//! Workloads name faults as strings (`Scenario::fault_plan`, which keeps
//! `cup-workload` free of a fault-plane dependency):
//!
//! ```text
//! drop:0.05                 5% link loss for the whole run
//! drop:0.2@t=100..400       20% loss during [100 s, 400 s)
//! spike:3@t=50..80          per-hop latency ×3 during the window
//! crash:17@t=50             node 17 crashes at t = 50 s (no restart)
//! crash:17@t=50..90         ... and restarts cold at t = 90 s
//! partition:2@t=30..60      2-way partition during [30 s, 60 s)
//! stale-serve:17            node 17 ignores deletions (and audit
//!                           repairs) from t = 0, forever
//! stale-serve:17@t=50..200  ... only during [50 s, 200 s)
//! drop-updates:9            node 9 silently drops its outbound
//!                           maintenance updates (queries still flow)
//! lie-refresh:3@t=40        node 3 rewrites deletions it forwards into
//!                           fresh-looking refreshes from t = 40 s
//! ```
//!
//! [`FaultPlan::parse_specs`] turns a list of those specs into one sorted
//! event script. A single spec's structured form is [`FaultSpec`], whose
//! `FromStr`/`Display` pair round-trips: `Display` prints the canonical
//! spelling, which parses back to the same value.

use std::fmt;
use std::str::FromStr;

use cup_des::SimTime;

/// The fault families a spec string can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Probabilistic per-message link loss.
    Drop,
    /// Multiplicative latency spike.
    Spike,
    /// Node crash (state wiped), with optional restart.
    Crash,
    /// K-way overlay partition, with optional heal.
    Partition,
    /// Behavior fault: the node keeps serving entries it should retire
    /// (inbound deletions and audit repairs are swallowed).
    StaleServe,
    /// Behavior fault: the node silently drops its outbound maintenance
    /// updates while still forwarding queries and first-time answers.
    DropUpdates,
    /// Behavior fault: the node rewrites deletions it forwards into
    /// fresh-looking refreshes (false versions downstream).
    LieRefresh,
}

cup_core::string_surface!(FaultKind {
    Drop => "drop",
    Spike => "spike",
    Crash => "crash",
    Partition => "partition",
    StaleServe => "stale-serve",
    DropUpdates => "drop-updates",
    LieRefresh => "lie-refresh",
});

/// A per-node behavior override: how a Byzantine node misbehaves while
/// staying up and routable. Installed and removed by
/// [`FaultAction::SetBehavior`]/[`FaultAction::ClearBehavior`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Serve deliberately stale entries: inbound deletions and audit
    /// repairs are swallowed, so the node (and its subtree) keeps
    /// answering from entries the rest of the network has retired.
    StaleServe,
    /// Silently drop outbound maintenance updates while still forwarding
    /// queries and answering with first-time updates.
    DropUpdates,
    /// Report false versions: deletions this node forwards are rewritten
    /// into refreshes, resurrecting dead replicas downstream.
    LieRefresh,
}

cup_core::string_surface!(Behavior {
    StaleServe => "stale-serve",
    DropUpdates => "drop-updates",
    LieRefresh => "lie-refresh",
});

/// One instantaneous change to the fault plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Sets the global per-message link-loss probability.
    SetLoss {
        /// Drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Sets the multiplicative factor on per-hop latency.
    SetLatencyFactor {
        /// Multiplier (1.0 = nominal).
        factor: f64,
    },
    /// Crashes a node: protocol state wiped, all traffic to it dropped.
    Crash {
        /// Dense index of the crashing node.
        node: usize,
    },
    /// Restarts a crashed node (cold cache, empty directory).
    Restart {
        /// Dense index of the restarting node.
        node: usize,
    },
    /// Splits the population into `groups` hash-assigned groups; messages
    /// crossing a group boundary are dropped.
    Partition {
        /// Number of groups (at least 2 to have any effect).
        groups: u32,
    },
    /// Heals the active partition.
    Heal,
    /// Installs a behavior override: the node starts misbehaving.
    SetBehavior {
        /// Dense index of the misbehaving node.
        node: usize,
        /// How it misbehaves.
        behavior: Behavior,
    },
    /// Removes a behavior override: the node behaves honestly again
    /// (whatever damage its caches took stays until the protocol or the
    /// audit repairs it).
    ClearBehavior {
        /// Dense index of the recovering node.
        node: usize,
        /// The override being lifted.
        behavior: Behavior,
    },
}

impl FaultAction {
    /// The node this action names, if it names one.
    pub fn node(&self) -> Option<usize> {
        match *self {
            FaultAction::Crash { node }
            | FaultAction::Restart { node }
            | FaultAction::SetBehavior { node, .. }
            | FaultAction::ClearBehavior { node, .. } => Some(node),
            FaultAction::SetLoss { .. }
            | FaultAction::SetLatencyFactor { .. }
            | FaultAction::Partition { .. }
            | FaultAction::Heal => None,
        }
    }
}

/// One timed fault action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What changes.
    pub action: FaultAction,
}

/// An ordered script of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Returns `true` if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by fire time (stable for ties).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Appends one timed action (builder style).
    pub fn with(mut self, at: SimTime, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// Appends one timed action, keeping the script sorted by time
    /// (insertion order breaks ties).
    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, action });
    }

    /// Parses a list of fault spec strings (see the module docs for the
    /// grammar) into one plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed spec,
    /// naming the offending token.
    pub fn parse_specs<S: AsRef<str>>(specs: &[S]) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for spec in specs {
            let spec = spec.as_ref();
            let parsed: FaultSpec = spec
                .parse()
                .map_err(|e| format!("fault spec '{spec}': {e}"))?;
            for ev in parsed.events() {
                plan.push(ev.at, ev.action);
            }
        }
        Ok(plan)
    }
}

/// The parameter a fault family takes, in structured form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecParam {
    /// `drop`: loss probability in `[0, 1]`.
    Rate(f64),
    /// `spike`: positive finite latency multiplier.
    Factor(f64),
    /// `crash` and the behavior families: a dense node index.
    Node(usize),
    /// `partition`: group count (≥ 2).
    Groups(u32),
}

impl fmt::Display for SpecParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecParam::Rate(v) | SpecParam::Factor(v) => write!(f, "{v}"),
            SpecParam::Node(v) => write!(f, "{v}"),
            SpecParam::Groups(v) => write!(f, "{v}"),
        }
    }
}

/// A parsed `@t=A` or `@t=A..B` suffix, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecWindow {
    /// When the fault switches on.
    pub from_secs: u64,
    /// When it reverts, if the window is closed.
    pub until_secs: Option<u64>,
}

impl fmt::Display for SpecWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@t={}", self.from_secs)?;
        if let Some(until) = self.until_secs {
            write!(f, "..{until}")?;
        }
        Ok(())
    }
}

/// One fault spec in structured form: family, parameter, optional window.
///
/// `FromStr` validates exactly what [`FaultPlan::parse_specs`] accepts;
/// `Display` prints the canonical spelling, and parsing that spelling
/// yields the same value back (the round-trip the spec-grammar proptest
/// pins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault family.
    pub kind: FaultKind,
    /// Its parameter (paired with the family by parsing/validation).
    pub param: SpecParam,
    /// The optional time window. `None` means "for the whole run" for
    /// the families that allow it (drop, spike, behaviors).
    pub window: Option<SpecWindow>,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind.name(), self.param)?;
        if let Some(w) = self.window {
            write!(f, "{w}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<FaultSpec, String> {
        let (body, window) = split_window(spec.trim())?;
        let (family, params) = body
            .split_once(':')
            .ok_or_else(|| format!("'{body}' has no ':' separator (expected family:params)"))?;
        let kind = FaultKind::parse(family).ok_or_else(|| {
            let known = FaultKind::ALL.map(|k| k.name()).join("|");
            format!("unknown fault family '{family}' ({known})")
        })?;
        let param = match kind {
            FaultKind::Drop => {
                let rate: f64 = params.parse().map_err(|_| format!("bad rate '{params}'"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("loss rate {rate} outside [0, 1]"));
                }
                SpecParam::Rate(rate)
            }
            FaultKind::Spike => {
                let factor: f64 = params
                    .parse()
                    .map_err(|_| format!("bad factor '{params}'"))?;
                if !(factor > 0.0 && factor.is_finite()) {
                    return Err(format!("latency factor {factor} must be positive"));
                }
                SpecParam::Factor(factor)
            }
            FaultKind::Crash
            | FaultKind::StaleServe
            | FaultKind::DropUpdates
            | FaultKind::LieRefresh => {
                let node: usize = params.parse().map_err(|_| format!("bad node '{params}'"))?;
                SpecParam::Node(node)
            }
            FaultKind::Partition => {
                let groups: u32 = params
                    .parse()
                    .map_err(|_| format!("bad group count '{params}'"))?;
                if groups < 2 {
                    return Err(format!("a {groups}-way partition partitions nothing"));
                }
                SpecParam::Groups(groups)
            }
        };
        if window.is_none() && matches!(kind, FaultKind::Crash | FaultKind::Partition) {
            return Err(format!("'{family}' needs a time (@t=A or @t=A..B)"));
        }
        Ok(FaultSpec {
            kind,
            param,
            window,
        })
    }
}

impl FaultSpec {
    /// The (one or two) timed events the spec expands to: the onset
    /// action at the window start (t = 0 when unwindowed), and — for
    /// closed windows — the matching reversal at the window end.
    ///
    /// # Panics
    ///
    /// Panics if `kind` and `param` were paired by hand in a combination
    /// the grammar never produces (e.g. a `drop` with a node index).
    pub fn events(&self) -> Vec<FaultEvent> {
        let at = self
            .window
            .map_or(SimTime::ZERO, |w| SimTime::from_secs(w.from_secs));
        let until = self
            .window
            .and_then(|w| w.until_secs)
            .map(SimTime::from_secs);
        let (set, clear) = match (self.kind, self.param) {
            (FaultKind::Drop, SpecParam::Rate(rate)) => (
                FaultAction::SetLoss { rate },
                FaultAction::SetLoss { rate: 0.0 },
            ),
            (FaultKind::Spike, SpecParam::Factor(factor)) => (
                FaultAction::SetLatencyFactor { factor },
                FaultAction::SetLatencyFactor { factor: 1.0 },
            ),
            (FaultKind::Crash, SpecParam::Node(node)) => {
                (FaultAction::Crash { node }, FaultAction::Restart { node })
            }
            (FaultKind::Partition, SpecParam::Groups(groups)) => {
                (FaultAction::Partition { groups }, FaultAction::Heal)
            }
            (FaultKind::StaleServe, SpecParam::Node(node)) => {
                behavior_pair(node, Behavior::StaleServe)
            }
            (FaultKind::DropUpdates, SpecParam::Node(node)) => {
                behavior_pair(node, Behavior::DropUpdates)
            }
            (FaultKind::LieRefresh, SpecParam::Node(node)) => {
                behavior_pair(node, Behavior::LieRefresh)
            }
            (kind, param) => panic!("{kind} spec cannot carry {param:?}"),
        };
        let mut evs = vec![FaultEvent { at, action: set }];
        if let Some(until) = until {
            evs.push(FaultEvent {
                at: until,
                action: clear,
            });
        }
        evs
    }
}

/// The set/clear action pair of one behavior window.
fn behavior_pair(node: usize, behavior: Behavior) -> (FaultAction, FaultAction) {
    (
        FaultAction::SetBehavior { node, behavior },
        FaultAction::ClearBehavior { node, behavior },
    )
}

/// Splits `body@t=...` into the body and its (optional) time window.
fn split_window(spec: &str) -> Result<(&str, Option<SpecWindow>), String> {
    let Some((body, time)) = spec.split_once("@t=") else {
        return Ok((spec, None));
    };
    let (from, until) = match time.split_once("..") {
        Some((a, b)) => {
            let from = parse_secs(a)?;
            let until = parse_secs(b)?;
            if until <= from {
                return Err(format!("window {a}..{b} must end after it starts"));
            }
            (from, Some(until))
        }
        None => (parse_secs(time)?, None),
    };
    Ok((
        body,
        Some(SpecWindow {
            from_secs: from,
            until_secs: until,
        }),
    ))
}

fn parse_secs(s: &str) -> Result<u64, String> {
    let secs = s
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("bad time '{s}' (whole seconds)"))?;
    // `SimTime::from_secs` multiplies by 10⁶: anything larger overflows.
    let max = SimTime::MAX.as_micros() / 1_000_000;
    if secs > max {
        return Err(format!("time '{s}' exceeds the {max} s a SimTime holds"));
    }
    Ok(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        for behavior in Behavior::ALL {
            assert_eq!(Behavior::parse(behavior.name()), Some(behavior));
        }
        assert_eq!(FaultKind::parse("meteor"), None);
    }

    #[test]
    fn whole_run_loss_spec() {
        let plan = FaultPlan::parse_specs(&["drop:0.05"]).unwrap();
        assert_eq!(
            plan.events(),
            &[FaultEvent {
                at: SimTime::ZERO,
                action: FaultAction::SetLoss { rate: 0.05 },
            }]
        );
    }

    #[test]
    fn windowed_specs_emit_paired_events() {
        let plan = FaultPlan::parse_specs(&["drop:0.2@t=100..400", "crash:17@t=50..90"]).unwrap();
        assert_eq!(plan.events().len(), 4);
        // Sorted by time across specs.
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_micros()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert!(plan.events().iter().any(
            |e| e.action == FaultAction::Restart { node: 17 } && e.at == SimTime::from_secs(90)
        ));
        assert!(plan
            .events()
            .iter()
            .any(|e| e.action == FaultAction::SetLoss { rate: 0.0 }
                && e.at == SimTime::from_secs(400)));
    }

    #[test]
    fn partition_and_spike_specs() {
        let plan = FaultPlan::parse_specs(&["partition:2@t=30..60", "spike:3@t=10..20"]).unwrap();
        assert_eq!(plan.events().len(), 4);
        assert_eq!(
            plan.events()[0].action,
            FaultAction::SetLatencyFactor { factor: 3.0 }
        );
        assert_eq!(plan.events()[3].action, FaultAction::Heal);
    }

    #[test]
    fn crash_without_restart_is_permanent() {
        let plan = FaultPlan::parse_specs(&["crash:3@t=7"]).unwrap();
        assert_eq!(plan.events().len(), 1);
        assert_eq!(plan.events()[0].action, FaultAction::Crash { node: 3 });
    }

    #[test]
    fn behavior_specs_install_and_lift_overrides() {
        let plan = FaultPlan::parse_specs(&[
            "stale-serve:17@t=50..200",
            "drop-updates:9",
            "lie-refresh:3@t=40",
        ])
        .unwrap();
        assert_eq!(plan.events().len(), 4, "one closed window, two open ends");
        // Unwindowed behavior faults are permanent from t = 0.
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: SimTime::ZERO,
                action: FaultAction::SetBehavior {
                    node: 9,
                    behavior: Behavior::DropUpdates,
                },
            }
        );
        assert!(plan.events().iter().any(|e| e.at == SimTime::from_secs(40)
            && e.action
                == FaultAction::SetBehavior {
                    node: 3,
                    behavior: Behavior::LieRefresh,
                }));
        // The closed window lifts the override at its end.
        assert!(plan.events().iter().any(|e| e.at == SimTime::from_secs(200)
            && e.action
                == FaultAction::ClearBehavior {
                    node: 17,
                    behavior: Behavior::StaleServe,
                }));
    }

    #[test]
    fn specs_display_their_canonical_spelling_and_reparse() {
        for spec in [
            "drop:0.05",
            "drop:0.2@t=100..400",
            "spike:3@t=50..80",
            "crash:17@t=50",
            "partition:2@t=30..60",
            "stale-serve:17@t=50..200",
            "drop-updates:9",
            "lie-refresh:3@t=40",
        ] {
            let parsed: FaultSpec = spec.parse().unwrap();
            let printed = parsed.to_string();
            let reparsed: FaultSpec = printed.parse().unwrap();
            assert_eq!(parsed, reparsed, "'{spec}' → '{printed}' must round-trip");
            assert_eq!(parsed.events(), reparsed.events());
        }
        // The canonical spelling normalizes numeric forms but nothing else.
        let spec: FaultSpec = "drop:.5@t= 7".parse().unwrap();
        assert_eq!(spec.to_string(), "drop:0.5@t=7");
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "drop:1.5",
            "drop:x",
            "drop",
            "crash:3",
            "crash:3@t=9..9",
            "crash:x@t=1",
            "partition:1@t=5..9",
            "partition:2",
            "spike:0@t=1..2",
            "meteor:1@t=5",
            "drop:0.1@t=abc",
            "stale-serve:x",
            "lie-refresh",
        ] {
            let err = FaultPlan::parse_specs(&[bad]).unwrap_err();
            assert!(
                err.contains(bad),
                "error for '{bad}' must name the spec: {err}"
            );
        }
        // Errors name the offending token, not just the whole spec.
        let err = FaultPlan::parse_specs(&["meteor:1@t=5"]).unwrap_err();
        assert!(err.contains("'meteor'"), "family named: {err}");
        let err = FaultPlan::parse_specs(&["drop-updates:abc"]).unwrap_err();
        assert!(err.contains("'abc'"), "bad node token named: {err}");
        let err = FaultPlan::parse_specs(&["drop"]).unwrap_err();
        assert!(
            err.contains("no ':' separator"),
            "missing colon named: {err}"
        );
        let err = FaultPlan::parse_specs(&["drop:0.1@t=abc"]).unwrap_err();
        assert!(err.contains("'abc'"), "bad time token named: {err}");
    }

    #[test]
    fn builder_keeps_time_order_with_stable_ties() {
        let plan = FaultPlan::none()
            .with(SimTime::from_secs(5), FaultAction::Heal)
            .with(SimTime::from_secs(1), FaultAction::Crash { node: 0 })
            .with(SimTime::from_secs(5), FaultAction::Crash { node: 1 });
        assert_eq!(plan.events()[0].action, FaultAction::Crash { node: 0 });
        assert_eq!(plan.events()[1].action, FaultAction::Heal);
        assert_eq!(plan.events()[2].action, FaultAction::Crash { node: 1 });
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }
}
