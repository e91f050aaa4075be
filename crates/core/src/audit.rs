//! The rate-limited sampled cache audit (LOCKSS-style polling).
//!
//! CUP trusts intermediate nodes to relay deletions honestly; a peer
//! that swallows them keeps serving retired entries forever, and so does
//! every node below it — the poisoned subtree agrees with itself. The
//! defense, following the LOCKSS design (Maniatis et al.): nodes poll a
//! small *population-wide* random sample of peers about keys they serve,
//! and repair their caches when pollees contradict them with firsthand
//! retire knowledge (delete tombstones).
//!
//! Everything here is pure arithmetic on the virtual clock: peer
//! selection is a counter-mode hash ([`sample_targets`]), so the DES and
//! any M-worker live run audit the same peers in the same rounds and the
//! whole defense stays byte-identical across runtimes.

use cup_des::{KeyId, NodeId, ReplicaId};

use crate::config::{AuditConfig, AUDIT_SAMPLE};
use crate::entry::IndexEntry;
use crate::keystate::vec_bytes;

/// SplitMix64 finalizer — the workspace's standard bit mixer (the fault
/// plane keeps its own copy; `cup-core` cannot depend on `cup-faults`).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The peers `me` polls in audit round `round` of `key`: up to
/// [`AUDIT_SAMPLE`] distinct nodes drawn counter-mode from the whole
/// population, self excluded. Pure — both runtimes call it with the
/// same arguments and send probes to identical targets.
pub fn sample_targets(cfg: &AuditConfig, me: NodeId, key: KeyId, round: u64) -> Vec<NodeId> {
    let population = u64::from(cfg.population);
    if population <= 1 {
        return Vec::new();
    }
    let want = (AUDIT_SAMPLE as usize).min(population as usize - 1);
    let mut picked: Vec<NodeId> = Vec::with_capacity(want);
    // Bounded rejection sampling: hash draws skip self and duplicates;
    // the bound only binds when `AUDIT_SAMPLE` nears the population size.
    let max_draws = 16 * (u64::from(AUDIT_SAMPLE) + 1);
    let mut draw = 0u64;
    while picked.len() < want && draw < max_draws {
        let mut h = cfg.seed;
        for v in [me.index() as u64, u64::from(key.0), round, draw] {
            h = mix64(h ^ v);
        }
        draw += 1;
        let node = NodeId((h % population) as u32);
        if node == me || picked.contains(&node) {
            continue;
        }
        picked.push(node);
    }
    picked
}

/// The running tally of one in-flight audit round at the auditing node.
#[derive(Debug, Clone, Default)]
pub struct AuditTally {
    /// The round this tally belongs to (late replies from earlier rounds
    /// are ignored).
    pub round: u64,
    /// Probes sent this round.
    pub expected: u32,
    /// Replies received so far.
    pub received: u32,
    /// Per-replica dissent counts: pollees that have seen each replica
    /// we still serve retired.
    votes: Vec<(ReplicaId, u32)>,
    /// Fresh entries offered by dissenting pollees (the refetch payload
    /// adopted on repair), deduplicated by replica.
    payload: Vec<IndexEntry>,
}

impl AuditTally {
    /// Heap bytes the tally's two lists own.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.votes) + vec_bytes(&self.payload)
    }

    /// A fresh tally for `round` awaiting `expected` replies.
    pub fn new(round: u64, expected: u32) -> Self {
        AuditTally {
            round,
            expected,
            ..AuditTally::default()
        }
    }

    /// Records one pollee's dissent against `replica`; returns the
    /// dissent count so far.
    pub fn note_dissent(&mut self, replica: ReplicaId) -> u32 {
        match self.votes.iter_mut().find(|(r, _)| *r == replica) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                self.votes.push((replica, 1));
                1
            }
        }
    }

    /// Replicas whose dissent count has reached `quorum`.
    pub fn condemned(&self, quorum: u32) -> Vec<ReplicaId> {
        self.votes
            .iter()
            .filter(|(_, n)| *n >= quorum)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Stores a dissenting pollee's fresh entries as refetch candidates
    /// (first offer per replica wins — deterministic in arrival order).
    pub fn offer(&mut self, entries: &[IndexEntry]) {
        for e in entries {
            if !self.payload.iter().any(|p| p.replica == e.replica) {
                self.payload.push(*e);
            }
        }
    }

    /// The refetch payload collected from dissenters.
    pub fn payload(&self) -> &[IndexEntry] {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::SimDuration;

    fn cfg(population: u32) -> AuditConfig {
        AuditConfig::sampled(SimDuration::from_secs(60), population, 0xA0D1)
    }

    #[test]
    fn sampling_is_pure_self_free_and_duplicate_free() {
        let c = cfg(64);
        let me = NodeId(17);
        let a = sample_targets(&c, me, KeyId(3), 5);
        let b = sample_targets(&c, me, KeyId(3), 5);
        assert_eq!(a, b, "pure function of (cfg, me, key, round)");
        assert_eq!(a.len(), 8);
        assert!(!a.contains(&me), "never polls itself");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "no duplicate targets");
        assert!(a.iter().all(|n| n.index() < 64), "inside the population");
    }

    #[test]
    fn rounds_keys_and_nodes_decorrelate_samples() {
        let c = cfg(256);
        let base = sample_targets(&c, NodeId(1), KeyId(0), 1);
        assert_ne!(base, sample_targets(&c, NodeId(1), KeyId(0), 2));
        assert_ne!(base, sample_targets(&c, NodeId(1), KeyId(1), 1));
        assert_ne!(base, sample_targets(&c, NodeId(2), KeyId(0), 1));
    }

    #[test]
    fn tiny_populations_cap_the_sample() {
        let c = cfg(3);
        let picked = sample_targets(&c, NodeId(0), KeyId(0), 1);
        assert_eq!(picked.len(), 2, "everyone but self");
        assert!(sample_targets(&cfg(1), NodeId(0), KeyId(0), 1).is_empty());
    }

    #[test]
    fn tally_reaches_quorum_per_replica() {
        let mut t = AuditTally::new(4, 8);
        assert_eq!(t.note_dissent(ReplicaId(1)), 1);
        assert_eq!(t.note_dissent(ReplicaId(2)), 1);
        assert!(t.condemned(2).is_empty());
        assert_eq!(t.note_dissent(ReplicaId(1)), 2);
        assert_eq!(t.condemned(2), vec![ReplicaId(1)]);
        let e = IndexEntry::new(
            KeyId(1),
            ReplicaId(9),
            SimDuration::from_secs(10),
            cup_des::SimTime::ZERO,
        );
        t.offer(&[e]);
        t.offer(&[e]);
        assert_eq!(t.payload().len(), 1, "offers dedup by replica");
    }
}
