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
//! A node runs one policy for every key (`NodeConfig::policy`), as in
//! each of the paper's configurations. Every policy is a pure function
//! of a [`CutoffContext`] — the key's popularity measure and the update's
//! depth — so a key carries no decision state of its own, and the update
//! and clear-bit paths ask the same question,
//! [`CutoffPolicy::keep_receiving`].

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
    /// paper's second-chance policy. A key's record counts the empty
    /// intervals up to 65,535 and stops there
    /// ([`crate::popularity::Popularity`]), so every `n` up to 65,536
    /// decides as an unbounded count would; a longer history never cuts
    /// off.
    LogBased {
        /// History length in update arrivals (must be at least 2).
        n: u32,
    },
    /// Keep receiving while at most `level` hops from the authority.
    PushLevel {
        /// Maximum depth to which updates propagate.
        level: u32,
    },
}

impl CutoffPolicy {
    /// The paper's second-chance policy (log-based with n = 3).
    pub fn second_chance() -> Self {
        CutoffPolicy::LogBased { n: 3 }
    }

    /// Stable name (sweep rows such as the fault grid's). Parameterized
    /// policies embed their parameters:
    /// `linear:0.1`, `log:0.25`, `log-based:4`, `push:3`.
    /// `LogBased {{ n: 3 }}` prints as the paper's `second-chance`.
    pub fn name(&self) -> String {
        match *self {
            CutoffPolicy::Always => "always".into(),
            CutoffPolicy::Never => "never".into(),
            CutoffPolicy::Linear { alpha } => format!("linear:{alpha}"),
            CutoffPolicy::Logarithmic { alpha } => format!("log:{alpha}"),
            CutoffPolicy::LogBased { n: 3 } => "second-chance".into(),
            CutoffPolicy::LogBased { n } => format!("log-based:{n}"),
            CutoffPolicy::PushLevel { level } => format!("push:{level}"),
        }
    }

    /// Returns `true` if the node should keep receiving updates for the
    /// key, `false` to cut off (push a Clear-Bit upstream). Both decision
    /// points ask this: an update arriving at an uninterested node, and
    /// the last downstream subscriber clearing its bit.
    pub fn keep_receiving(&self, ctx: &CutoffContext) -> bool {
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
        }
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
        let cases = [
            (CutoffPolicy::Always, "always"),
            (CutoffPolicy::Never, "never"),
            (CutoffPolicy::Linear { alpha: 0.1 }, "linear:0.1"),
            (CutoffPolicy::Logarithmic { alpha: 0.25 }, "log:0.25"),
            (CutoffPolicy::LogBased { n: 3 }, "second-chance"),
            (CutoffPolicy::PushLevel { level: 4 }, "push:4"),
        ];
        for (policy, name) in cases {
            assert_eq!(policy.name(), name);
            assert_eq!(policy.to_string(), name);
        }
        // Parameters print through float formatting, and only n = 3 is
        // the paper's second-chance.
        assert_eq!(CutoffPolicy::Linear { alpha: 0.001 }.name(), "linear:0.001");
        assert_eq!(CutoffPolicy::LogBased { n: 7 }.name(), "log-based:7");
    }
}
