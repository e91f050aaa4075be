//! Fault scripts: timed events and the spec strings that name them.
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
//! event script. Each spec becomes its onset action at the window start
//! (t = 0 without a window) and, for a closed window, the action that
//! reverts it at the window end.

use cup_des::SimTime;

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
    /// Sets a node's host capacity fraction (§2.8; §3.7's profiles
    /// schedule it): below 1 the node is throttled, forwarded updates
    /// wait in its outgoing queues for a service. The fraction belongs
    /// to the host, so a crashed node keeps it and comes back under it.
    /// No spec string spells it: a `CapacityProfile` generates it.
    SetCapacity {
        /// Dense index of the node.
        node: usize,
        /// The new fraction, in `[0, 1]` (1 = full).
        c: f64,
    },
}

impl FaultAction {
    /// The node this action names, if it names one.
    pub fn node(&self) -> Option<usize> {
        match *self {
            FaultAction::Crash { node }
            | FaultAction::Restart { node }
            | FaultAction::SetBehavior { node, .. }
            | FaultAction::ClearBehavior { node, .. }
            | FaultAction::SetCapacity { node, .. } => Some(node),
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

    /// Appends one timed action, keeping the script sorted by time
    /// (insertion order breaks ties).
    fn push(&mut self, at: SimTime, action: FaultAction) {
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
            plan.push_spec(spec)
                .map_err(|e| format!("fault spec '{spec}': {e}"))?;
        }
        Ok(plan)
    }

    /// Parses one spec and appends its onset event and, for a closed
    /// window, the reverting event at the window end.
    fn push_spec(&mut self, spec: &str) -> Result<(), String> {
        let (body, window) = split_window(spec.trim())?;
        let (family, params) = body
            .split_once(':')
            .ok_or_else(|| format!("'{body}' has no ':' separator (expected family:params)"))?;
        let (onset, revert) = match family {
            "drop" => {
                let rate: f64 = param(params, "rate")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("loss rate {rate} outside [0, 1]"));
                }
                (
                    FaultAction::SetLoss { rate },
                    FaultAction::SetLoss { rate: 0.0 },
                )
            }
            "spike" => {
                let factor: f64 = param(params, "factor")?;
                if !(factor > 0.0 && factor.is_finite()) {
                    return Err(format!("latency factor {factor} must be positive"));
                }
                (
                    FaultAction::SetLatencyFactor { factor },
                    FaultAction::SetLatencyFactor { factor: 1.0 },
                )
            }
            "crash" => {
                let node = param(params, "node")?;
                (FaultAction::Crash { node }, FaultAction::Restart { node })
            }
            "partition" => {
                let groups: u32 = param(params, "group count")?;
                if groups < 2 {
                    return Err(format!("a {groups}-way partition partitions nothing"));
                }
                (FaultAction::Partition { groups }, FaultAction::Heal)
            }
            _ => {
                let behavior = Behavior::parse(family).ok_or_else(|| {
                    let behaviors = Behavior::ALL.map(Behavior::name).join("|");
                    format!(
                        "unknown fault family '{family}' (drop|spike|crash|partition|{behaviors})"
                    )
                })?;
                let node = param(params, "node")?;
                (
                    FaultAction::SetBehavior { node, behavior },
                    FaultAction::ClearBehavior { node, behavior },
                )
            }
        };
        let (from, until) = match window {
            Some(window) => window,
            None if matches!(family, "crash" | "partition") => {
                return Err(format!("'{family}' needs a time (@t=A or @t=A..B)"));
            }
            None => (SimTime::ZERO, None),
        };
        self.push(from, onset);
        if let Some(until) = until {
            self.push(until, revert);
        }
        Ok(())
    }
}

/// Parses a spec's parameter, naming it and the bad token on failure.
fn param<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

/// A `@t=A` or `@t=A..B` window: its start and, when closed, its end.
type Window = (SimTime, Option<SimTime>);

/// Splits `body@t=...` into the body and its (optional) time window.
fn split_window(spec: &str) -> Result<(&str, Option<Window>), String> {
    let Some((body, time)) = spec.split_once("@t=") else {
        return Ok((spec, None));
    };
    let window = match time.split_once("..") {
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
    Ok((body, Some(window)))
}

fn parse_secs(s: &str) -> Result<SimTime, String> {
    let secs = s
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("bad time '{s}' (whole seconds)"))?;
    // `SimTime::from_secs` multiplies by 10⁶: anything larger overflows.
    let max = SimTime::MAX.as_micros() / 1_000_000;
    if secs > max {
        return Err(format!("time '{s}' exceeds the {max} s a SimTime holds"));
    }
    Ok(SimTime::from_secs(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for behavior in Behavior::ALL {
            assert_eq!(Behavior::parse(behavior.name()), Some(behavior));
        }
        // An unknown family's error lists every family a spec may name.
        let err = FaultPlan::parse_specs(&["meteor:1"]).unwrap_err();
        let families = "(drop|spike|crash|partition|stale-serve|drop-updates|lie-refresh)";
        assert!(err.contains(families), "{err}");
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
    fn spellings_of_one_spec_parse_to_the_same_events() {
        // Numeric forms and blanks around the time are free; the events
        // are what a spelling means.
        for (loose, canonical) in [
            ("drop:.5@t= 7", "drop:0.5@t=7"),
            (" spike:3.0@t=050..80 ", "spike:3@t=50..80"),
            ("crash:017@t=50", "crash:17@t=50"),
            ("drop:1e-2", "drop:0.01"),
        ] {
            assert_eq!(
                FaultPlan::parse_specs(&[loose]).unwrap(),
                FaultPlan::parse_specs(&[canonical]).unwrap(),
                "'{loose}' means '{canonical}'"
            );
        }
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
}
