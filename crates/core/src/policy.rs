//! Incentive-based cut-off policies (§3.4).
//!
//! On receiving an update for a key whose interest bits are all clear, a
//! node decides whether there is incentive to keep receiving updates or to
//! cut them off with a Clear-Bit message. The paper examines:
//!
//! * **probability-based** thresholds that approximate, from the node's
//!   distance D to the authority, the probability that an update pushed
//!   this far is justified — a *linear* threshold (popular if at least
//!   `α·D` queries arrived since the last update) and a more lenient
//!   *logarithmic* one (`α·lg D`);
//! * **log-based** policies that look at the recent history of update
//!   arrivals — the *second-chance* policy (n = 3) cuts off after two
//!   consecutive update intervals without a single query;
//! * a fixed **push level**, used in §3.3 to find the optimal level a
//!   posteriori (updates propagate to all interested nodes at most `p`
//!   hops from the authority; `p = 0` degenerates to standard caching).
//!
//! Beyond the paper's fixed policies, [`CutoffPolicy::Adaptive`] tunes a
//! log-based tolerance from the node's locally observed justified-update
//! ratio (the fraction of update intervals that contained at least one
//! query — §3.1's justification criterion evaluated with the information
//! a single node has).
//!
//! A node runs one policy for every key (`NodeConfig::policy`), as in
//! each of the paper's configurations; each key's decision state
//! ([`PolicyState`]) lives in its [`crate::keystate::KeyState`].

/// Inputs to a cut-off decision.
#[derive(Debug, Clone, Copy)]
pub struct CutoffContext {
    /// Queries for the key received since the last decision window reset.
    pub queries_since_reset: u32,
    /// Consecutive decision points with zero queries, *including* the
    /// current one if it is empty.
    pub consecutive_empty: u32,
    /// Distance (hops) of this node from the key's authority, as carried
    /// by the update being considered.
    pub depth: u32,
}

/// The adaptive policy's starting tolerance (second-chance's n = 3).
const ADAPTIVE_START_N: u32 = 3;

/// Decision intervals the adaptive policy observes before it starts
/// moving its tolerance.
const ADAPTIVE_WARMUP: u32 = 4;

/// Per-key decision state, owned by [`crate::keystate::KeyState`].
///
/// Every policy decision records one *interval* observation (was there at
/// least one query since the last decision?); the adaptive policy reads
/// the resulting locally observed justified ratio to tune its tolerance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyState {
    /// Decision intervals observed so far.
    intervals: u32,
    /// Intervals that contained at least one query (locally justified).
    justified_intervals: u32,
    /// The adaptive tolerance n; 0 until the first decision initializes
    /// it.
    n: u32,
}

impl PolicyState {
    /// Fresh (zero) state.
    pub fn new() -> Self {
        PolicyState::default()
    }

    /// Decision intervals observed so far.
    pub fn intervals(&self) -> u32 {
        self.intervals
    }

    /// Fraction of observed intervals that contained at least one query —
    /// the node-local estimate of the §3.1 justified-update ratio.
    pub fn justified_ratio(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            f64::from(self.justified_intervals) / f64::from(self.intervals)
        }
    }

    /// The adaptive policy's current tolerance (0 = not yet initialized).
    pub fn tolerance(&self) -> u32 {
        self.n
    }

    /// Records one decision interval.
    fn observe(&mut self, justified: bool) {
        self.intervals = self.intervals.saturating_add(1);
        if justified {
            self.justified_intervals = self.justified_intervals.saturating_add(1);
        }
    }

    /// Moves the adaptive tolerance one step toward what the observed
    /// ratio warrants.
    fn adapt(&mut self, min_n: u32, max_n: u32, target: f64) {
        if self.n == 0 {
            self.n = ADAPTIVE_START_N.clamp(min_n, max_n);
        }
        if self.intervals < ADAPTIVE_WARMUP {
            return;
        }
        if self.justified_ratio() >= target {
            self.n = (self.n + 1).min(max_n);
        } else {
            self.n = self.n.saturating_sub(1).max(min_n);
        }
    }
}

/// A cut-off policy: decides whether a node keeps receiving updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CutoffPolicy {
    /// Never cut off: receive every update (the "all-out push" reference
    /// configuration used to find the maximal-benefit baseline in §3.3).
    Always,
    /// Cut off immediately: never receive updates beyond the first-time
    /// response. Combined with nothing else this behaves like standard
    /// caching for maintenance traffic.
    Never,
    /// Keep receiving while `queries_since_reset >= alpha * depth`.
    Linear {
        /// Queries-per-hop threshold slope.
        alpha: f64,
    },
    /// Keep receiving while `queries_since_reset >= alpha * lg(depth)`,
    /// with the threshold floored at one query whenever `alpha > 0` (at
    /// depth 1, `lg 1 = 0` would otherwise keep a never-queried node
    /// subscribed forever).
    Logarithmic {
        /// Queries-per-lg-hop threshold slope.
        alpha: f64,
    },
    /// Log-based policy over the last `n` update arrivals: cut off once
    /// `n - 1` consecutive update intervals saw no query. `n = 3` is the
    /// paper's second-chance policy.
    LogBased {
        /// History length in update arrivals (must be at least 2).
        n: u32,
    },
    /// Keep receiving while at most `level` hops from the authority.
    PushLevel {
        /// Maximum depth to which updates propagate.
        level: u32,
    },
    /// Log-based with a tolerance tuned from the node's locally observed
    /// justified-update ratio: intervals with queries push the tolerance
    /// up (more lenient), query-less intervals pull it down (stricter).
    Adaptive {
        /// Lower bound on the tolerance (cut after `min_n - 1` empties).
        min_n: u32,
        /// Upper bound on the tolerance.
        max_n: u32,
        /// Justified-ratio target separating "lenient" from "strict".
        target: f64,
    },
}

impl CutoffPolicy {
    /// Every policy family once, with representative parameters, for
    /// parametrized tests and benches (mirrors `OverlayKind::ALL`).
    pub const ALL: [CutoffPolicy; 7] = [
        CutoffPolicy::Always,
        CutoffPolicy::Never,
        CutoffPolicy::Linear { alpha: 0.1 },
        CutoffPolicy::Logarithmic { alpha: 0.25 },
        CutoffPolicy::LogBased { n: 3 },
        CutoffPolicy::PushLevel { level: 4 },
        CutoffPolicy::Adaptive {
            min_n: 2,
            max_n: 6,
            target: 0.5,
        },
    ];

    /// The paper's second-chance policy (log-based with n = 3).
    pub fn second_chance() -> Self {
        CutoffPolicy::LogBased { n: 3 }
    }

    /// The default adaptive policy: tolerance in [2, 6], second-chance
    /// start, 0.5 justified-ratio target.
    pub fn adaptive() -> Self {
        CutoffPolicy::Adaptive {
            min_n: 2,
            max_n: 6,
            target: 0.5,
        }
    }

    /// Stable name (sweep rows such as the fault grid's). Parameterized
    /// policies embed their parameters:
    /// `linear:0.1`, `log:0.25`, `log-based:4`, `push:3`,
    /// `adaptive:2:6:0.5`. `LogBased {{ n: 3 }}` prints as the paper's
    /// `second-chance`.
    pub fn name(&self) -> String {
        match *self {
            CutoffPolicy::Always => "always".into(),
            CutoffPolicy::Never => "never".into(),
            CutoffPolicy::Linear { alpha } => format!("linear:{alpha}"),
            CutoffPolicy::Logarithmic { alpha } => format!("log:{alpha}"),
            CutoffPolicy::LogBased { n: 3 } => "second-chance".into(),
            CutoffPolicy::LogBased { n } => format!("log-based:{n}"),
            CutoffPolicy::PushLevel { level } => format!("push:{level}"),
            CutoffPolicy::Adaptive {
                min_n,
                max_n,
                target,
            } => format!("adaptive:{min_n}:{max_n}:{target}"),
        }
    }

    /// Returns `true` if the node should keep receiving updates for the
    /// key, `false` to cut off (push a Clear-Bit upstream). Stateless:
    /// the adaptive policy is evaluated at its starting tolerance.
    pub fn keep_receiving(&self, ctx: &CutoffContext) -> bool {
        self.would_keep(&PolicyState::default(), ctx)
    }

    /// Read-only evaluation against per-key state (the clear-bit path,
    /// which re-checks popularity without consuming a decision interval).
    pub fn would_keep(&self, state: &PolicyState, ctx: &CutoffContext) -> bool {
        match *self {
            CutoffPolicy::Always => true,
            CutoffPolicy::Never => false,
            CutoffPolicy::Linear { alpha } => {
                f64::from(ctx.queries_since_reset) >= alpha * f64::from(ctx.depth)
            }
            CutoffPolicy::Logarithmic { alpha } => {
                let lg = f64::from(ctx.depth.max(1)).log2();
                // lg 1 = 0 makes the raw threshold vanish one hop from
                // the authority; any positive slope demands at least one
                // query, or a never-queried node subscribes forever.
                let mut threshold = alpha * lg;
                if alpha > 0.0 {
                    threshold = threshold.max(1.0);
                }
                f64::from(ctx.queries_since_reset) >= threshold
            }
            CutoffPolicy::LogBased { n } => ctx.consecutive_empty < n.saturating_sub(1),
            CutoffPolicy::PushLevel { level } => ctx.depth <= level,
            CutoffPolicy::Adaptive { min_n, max_n, .. } => {
                let n = if state.n == 0 {
                    ADAPTIVE_START_N.clamp(min_n, max_n)
                } else {
                    state.n
                };
                ctx.consecutive_empty < n.saturating_sub(1)
            }
        }
    }

    /// Stateful decision at an update decision point: records the
    /// interval observation in `state` (and, for the adaptive policy,
    /// moves the tolerance), then decides keep/cut.
    pub fn decide(&self, state: &mut PolicyState, ctx: &CutoffContext) -> bool {
        state.observe(ctx.queries_since_reset > 0);
        if let CutoffPolicy::Adaptive {
            min_n,
            max_n,
            target,
        } = *self
        {
            state.adapt(min_n, max_n, target);
        }
        self.would_keep(state, ctx)
    }

    /// Returns `true` if this policy limits propagation at the *sender*
    /// side to children within `level` hops of the authority. Only
    /// [`CutoffPolicy::PushLevel`] does: the paper defines push level so
    /// that a level of 0 means the authority squelches updates before
    /// sending anything, rather than children cutting off after receiving
    /// one update each.
    pub fn sender_side_level(&self) -> Option<u32> {
        match *self {
            CutoffPolicy::PushLevel { level } => Some(level),
            _ => None,
        }
    }
}

crate::string_surface!(display_via_name CutoffPolicy);

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(queries: u32, empty: u32, depth: u32) -> CutoffContext {
        CutoffContext {
            queries_since_reset: queries,
            consecutive_empty: empty,
            depth,
        }
    }

    #[test]
    fn always_and_never() {
        assert!(CutoffPolicy::Always.keep_receiving(&ctx(0, 99, 99)));
        assert!(!CutoffPolicy::Never.keep_receiving(&ctx(99, 0, 1)));
    }

    #[test]
    fn linear_threshold_scales_with_depth() {
        let p = CutoffPolicy::Linear { alpha: 0.5 };
        // Depth 10 needs at least 5 queries.
        assert!(p.keep_receiving(&ctx(5, 0, 10)));
        assert!(!p.keep_receiving(&ctx(4, 0, 10)));
        // Close to the root almost anything passes.
        assert!(p.keep_receiving(&ctx(1, 0, 2)));
    }

    #[test]
    fn logarithmic_is_more_lenient_than_linear() {
        let lin = CutoffPolicy::Linear { alpha: 0.5 };
        let log = CutoffPolicy::Logarithmic { alpha: 0.5 };
        // At depth 16: linear needs 8 queries, logarithmic needs 2.
        assert!(!lin.keep_receiving(&ctx(2, 0, 16)));
        assert!(log.keep_receiving(&ctx(2, 0, 16)));
    }

    #[test]
    fn logarithmic_shallow_depths_need_one_query() {
        // lg 1 = 0 and lg 2 = 1 give raw thresholds of 0 and 0.5; a
        // positive slope must still demand one query, or a never-queried
        // node one hop from the authority keeps its subscription forever.
        let log = CutoffPolicy::Logarithmic { alpha: 0.5 };
        for depth in [0, 1, 2] {
            assert!(!log.keep_receiving(&ctx(0, 0, depth)), "depth {depth}");
            assert!(log.keep_receiving(&ctx(1, 0, depth)), "depth {depth}");
        }
        // A zero slope keeps the degenerate always-keep behaviour.
        let flat = CutoffPolicy::Logarithmic { alpha: 0.0 };
        assert!(flat.keep_receiving(&ctx(0, 0, 1)));
    }

    #[test]
    fn logarithmic_deep_thresholds_unchanged_by_floor() {
        // At depth 16 with α = 0.5 the threshold is 2 — above the floor,
        // so the depth ≤ 1 fix must not alter it.
        let log = CutoffPolicy::Logarithmic { alpha: 0.5 };
        assert!(log.keep_receiving(&ctx(2, 0, 16)));
        assert!(!log.keep_receiving(&ctx(1, 0, 16)));
    }

    #[test]
    fn second_chance_cuts_on_second_empty_interval() {
        let p = CutoffPolicy::second_chance();
        assert!(p.keep_receiving(&ctx(0, 0, 5)), "no history yet");
        assert!(
            p.keep_receiving(&ctx(0, 1, 5)),
            "first empty: second chance"
        );
        assert!(!p.keep_receiving(&ctx(0, 2, 5)), "second empty: cut off");
    }

    #[test]
    fn log_based_general_n() {
        let p = CutoffPolicy::LogBased { n: 5 };
        assert!(p.keep_receiving(&ctx(0, 3, 1)));
        assert!(!p.keep_receiving(&ctx(0, 4, 1)));
    }

    #[test]
    fn push_level_caps_depth() {
        let p = CutoffPolicy::PushLevel { level: 3 };
        assert!(p.keep_receiving(&ctx(0, 9, 3)));
        assert!(!p.keep_receiving(&ctx(9, 0, 4)));
        assert_eq!(p.sender_side_level(), Some(3));
        assert_eq!(CutoffPolicy::Always.sender_side_level(), None);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<String> = CutoffPolicy::ALL.iter().map(CutoffPolicy::name).collect();
        assert_eq!(
            names,
            [
                "always",
                "never",
                "linear:0.1",
                "log:0.25",
                "second-chance",
                "push:4",
                "adaptive:2:6:0.5"
            ]
        );
        for policy in CutoffPolicy::ALL {
            assert_eq!(policy.to_string(), policy.name());
        }
        // Parameters print through float formatting, and only n = 3 is
        // the paper's second-chance.
        assert_eq!(CutoffPolicy::Linear { alpha: 0.001 }.name(), "linear:0.001");
        assert_eq!(CutoffPolicy::LogBased { n: 7 }.name(), "log-based:7");
    }

    #[test]
    fn adaptive_starts_as_second_chance() {
        let p = CutoffPolicy::adaptive();
        let mut state = PolicyState::new();
        // First empty interval: tolerated (n = 3 start).
        assert!(p.decide(&mut state, &ctx(0, 1, 5)));
        // Second empty interval: cut, exactly like second-chance.
        assert!(!p.decide(&mut state, &ctx(0, 2, 5)));
        assert_eq!(state.tolerance(), 3);
    }

    #[test]
    fn adaptive_tightens_under_sustained_silence() {
        let p = CutoffPolicy::adaptive();
        let mut state = PolicyState::new();
        for i in 0..6 {
            p.decide(&mut state, &ctx(0, i + 1, 5));
        }
        assert_eq!(state.tolerance(), 2, "ratio 0 drives n to the floor");
        assert_eq!(state.justified_ratio(), 0.0);
        // At the floor a single empty interval is terminal.
        assert!(!p.decide(&mut state, &ctx(0, 1, 5)));
    }

    #[test]
    fn adaptive_loosens_under_sustained_queries() {
        let p = CutoffPolicy::adaptive();
        let mut state = PolicyState::new();
        for _ in 0..8 {
            assert!(p.decide(&mut state, &ctx(3, 0, 5)));
        }
        assert_eq!(state.tolerance(), 6, "ratio 1 drives n to the cap");
        // The earned leniency tolerates a long quiet stretch.
        assert!(p.would_keep(&state, &ctx(0, 4, 5)));
        assert!(!p.would_keep(&state, &ctx(0, 5, 5)));
    }

    #[test]
    fn policy_state_tracks_justified_ratio() {
        let p = CutoffPolicy::second_chance();
        let mut state = PolicyState::new();
        p.decide(&mut state, &ctx(2, 0, 3));
        p.decide(&mut state, &ctx(0, 1, 3));
        p.decide(&mut state, &ctx(1, 0, 3));
        p.decide(&mut state, &ctx(0, 1, 3));
        assert_eq!(state.intervals(), 4);
        assert_eq!(state.justified_ratio(), 0.5);
    }
}
