//! Per-node protocol configuration.

use cup_des::SimDuration;

use crate::policy::CutoffPolicy;
use crate::popularity::ResetMode;

/// How long a Pending-First-Update flag may coalesce queries before a
/// retry is pushed. Guards against responses lost to churn; the paper
/// assumes reliable channels, so this only matters under failure
/// injection.
pub const PFU_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// How often a throttled node services its outgoing update queues
/// (§2.8): a cut below full capacity asks to be woken this long after
/// it, and every service that leaves the node throttled asks again.
pub const SERVICE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Which protocol a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full CUP: coalescing query channels, interest tracking, controlled
    /// update propagation.
    Cup,
    /// The baseline of every experiment in the paper: plain pull caching
    /// with expiration times. Queries are forwarded individually (no
    /// coalescing — this is the "open connection" model of
    /// Gnutella/Freenet-style systems, §4), responses are cached along the
    /// reverse path, and no maintenance updates are ever propagated.
    StandardCaching,
}

/// How many peers an audit round polls.
pub const AUDIT_SAMPLE: u32 = 8;

/// How many pollees must contradict a served replica before the auditor
/// evicts it and adopts their entries. Tombstones are firsthand
/// knowledge, so one honest dissenter suffices.
pub const AUDIT_QUORUM: u32 = 1;

/// The rate-limited sampled cache audit (the LOCKSS defense).
///
/// CUP's economics assume peers relay honestly; a Byzantine peer that
/// swallows deletions keeps serving retired entries forever, and nothing
/// in the base protocol ever corrects it. The defense is the LOCKSS
/// design (Maniatis et al., by the same Roussopoulos): each caching node
/// periodically polls a small *random sample* of the population about a
/// key it serves, compares knowledge, and repairs its cache when enough
/// pollees contradict it. Sampling must be population-wide — polling
/// only one's own update tree fails, because a poisoned subtree agrees
/// with itself.
///
/// Audits are traffic-driven (a node only audits keys it actually
/// serves hits from) and rate-limited: at most one audit per key per
/// node per `interval` of the virtual clock, which bounds the audit
/// overhead regardless of query rate. A round polls [`AUDIT_SAMPLE`]
/// peers and repairs on [`AUDIT_QUORUM`] dissents. Peer selection is a
/// counter-mode hash of `(seed, node, key, round, draw)`, so the DES and
/// any M-worker live run poll identical peers in identical rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Minimum virtual-clock time between two audits of the same key at
    /// the same node (the rate limit).
    pub interval: SimDuration,
    /// Population size to sample peers from (dense node indices
    /// `0..population`); the node has no overlay view, so the embedding
    /// passes it in.
    pub population: u32,
    /// Seed of the peer-selection hash.
    pub seed: u64,
}

impl AuditConfig {
    /// An audit that polls at most once per key per `interval`, drawing
    /// peers from `0..population` with `seed`.
    pub fn sampled(interval: SimDuration, population: u32, seed: u64) -> Self {
        AuditConfig {
            interval,
            population,
            seed,
        }
    }
}

/// Configuration of one CUP node.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Protocol mode (CUP or the standard-caching baseline).
    pub mode: Mode,
    /// The cut-off policy for incoming updates (§3.4), one for every key.
    pub policy: CutoffPolicy,
    /// When popularity decision windows reset (§3.6).
    pub reset_mode: ResetMode,
    /// §3.6 overhead reduction: with many replicas per key, the authority
    /// may "selectively choose to propagate a subset of the replica
    /// refreshes and suppress others". A value of `k` propagates every
    /// k-th refresh per key; 1 propagates all (the paper's base
    /// behaviour).
    pub refresh_keep_one_in: u32,
    /// §3.6 overhead reduction: the authority may "aggregate replica
    /// refreshes ... batch all updates that arrive within that time and
    /// propagate them together as one update". `Some(window)` enables
    /// batching with that threshold ("a function of the lifetime of a
    /// replica"): the first refresh of a key opens its batch, and the
    /// batch is released, as one update, exactly `window` after it
    /// opened (a [`crate::WakeReason::Release`] wake), whether or not
    /// more refreshes arrive. `None` disables it.
    pub refresh_batch_window: Option<SimDuration>,
    /// The rate-limited sampled cache audit; `None` (the default)
    /// disables auditing entirely — no probes, no extra state: the delete
    /// tombstones the audit exchanges are kept only while it is on, so
    /// an audit-off node's delete writes none and allocates nothing.
    pub audit: Option<AuditConfig>,
}

impl NodeConfig {
    /// Full-capacity CUP with the paper's best policy (second-chance).
    pub fn cup_default() -> Self {
        NodeConfig {
            mode: Mode::Cup,
            policy: CutoffPolicy::second_chance(),
            reset_mode: ResetMode::ReplicaIndependent,
            refresh_keep_one_in: 1,
            refresh_batch_window: None,
            audit: None,
        }
    }

    /// This configuration with the sampled cache audit enabled.
    pub fn with_audit(self, audit: AuditConfig) -> Self {
        NodeConfig {
            audit: Some(audit),
            ..self
        }
    }

    /// The standard-caching baseline.
    pub fn standard_caching() -> Self {
        NodeConfig {
            mode: Mode::StandardCaching,
            policy: CutoffPolicy::Never,
            ..NodeConfig::cup_default()
        }
    }

    /// CUP with the given cut-off policy.
    pub fn cup_with_policy(policy: CutoffPolicy) -> Self {
        NodeConfig {
            policy,
            ..NodeConfig::cup_default()
        }
    }
}

// A node holds its own copy, so every byte here is paid once per node.
const _: () = assert!(std::mem::size_of::<NodeConfig>() <= 72);

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig::cup_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_cup_second_chance() {
        let c = NodeConfig::default();
        assert_eq!(c.mode, Mode::Cup);
        assert_eq!(c.policy, CutoffPolicy::second_chance());
        assert_eq!(c.reset_mode, ResetMode::ReplicaIndependent);
        assert_eq!(c.audit, None, "auditing is strictly opt-in");
    }

    #[test]
    fn audit_knob_rides_along() {
        let audit = AuditConfig::sampled(SimDuration::from_secs(60), 64, 9);
        let c = NodeConfig::cup_with_policy(CutoffPolicy::Always).with_audit(audit);
        assert_eq!(c.audit, Some(audit));
    }

    #[test]
    fn baseline_never_receives_updates() {
        let c = NodeConfig::standard_caching();
        assert_eq!(c.mode, Mode::StandardCaching);
        assert_eq!(c.policy, CutoffPolicy::Never);
    }

    #[test]
    fn with_policy_overrides_policy_only() {
        let c = NodeConfig::cup_with_policy(CutoffPolicy::Linear { alpha: 0.1 });
        assert_eq!(c.mode, Mode::Cup);
        assert_eq!(c.policy, CutoffPolicy::Linear { alpha: 0.1 });
    }
}
