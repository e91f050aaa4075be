//! Pluggable node→shard assignment for the live worker pool.
//!
//! The pool historically hard-coded the balanced *contiguous* partition:
//! shard `s` owns ids `⌈s·N/M⌉..⌈(s+1)·N/M⌉`. That stays the default,
//! but node ids carry no locality — CAN assigns ids in join order and
//! Chord hashes them onto the ring — so overlay neighbors usually land
//! on different shards and most protocol traffic pays the cross-shard
//! path. The [`ShardMapMode::OverlayAware`] mode instead sorts nodes by
//! an overlay locality key (Chord: position on the ring, so successor
//! arcs stay together; CAN: Morton/Z-order of the zone center, so zone
//! neighbors cluster) and cuts the *sorted* order into the same balanced
//! runs. Either way the map is a static table built once at start-up:
//! `shard_of` is an O(1) dense-vector lookup on the hot path, and shard
//! sizes still differ by at most one node. Where a node sits inside its
//! shard is the shard's node arena's business
//! ([`cup_faults::NodeArena`], built from [`ShardMap::owned`]).

use cup_des::NodeId;
use cup_overlay::{AnyOverlay, Overlay};

/// How the node population maps onto worker shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMapMode {
    /// Balanced contiguous id ranges (the default). Placement ignores
    /// the overlay entirely.
    Contiguous,
    /// Balanced runs of the overlay-locality order: CAN zone neighbors
    /// and Chord successor arcs co-locate, so neighbor-heavy protocol
    /// traffic (interest trees, update propagation) stays intra-shard.
    OverlayAware,
}

cup_core::string_surface!(ShardMapMode { Contiguous => "contiguous", OverlayAware => "overlay-aware" });

/// A frozen node→shard assignment: which shard owns each node. Built
/// once at start-up; shared read-only by every worker afterwards.
pub struct ShardMap {
    mode: ShardMapMode,
    shards: usize,
    /// Owning shard per node id (dense, ids `0..population`).
    shard_of: Vec<u32>,
    /// Per shard: the node ids it owns, in locality order.
    owned: Vec<Vec<NodeId>>,
}

impl ShardMap {
    /// Builds the map for `overlay`'s population over `shards` workers
    /// (clamped to `1..=population`). Shard sizes differ by at most one
    /// node in both modes; only the *membership* changes.
    pub fn build(mode: ShardMapMode, overlay: &AnyOverlay, shards: usize) -> ShardMap {
        let population = overlay.nodes().len();
        let shards = shards.clamp(1, population.max(1));
        let order: Vec<u32> = match mode {
            ShardMapMode::Contiguous => (0..population as u32).collect(),
            ShardMapMode::OverlayAware => {
                let mut keyed: Vec<(u64, u32)> = (0..population as u32)
                    .map(|id| (locality_key(overlay, NodeId(id)), id))
                    .collect();
                // The id tiebreak keeps the order fully deterministic
                // even if two nodes share a locality key.
                keyed.sort_unstable();
                keyed.into_iter().map(|(_, id)| id).collect()
            }
        };
        let mut shard_of = vec![0u32; population];
        let mut owned = Vec::with_capacity(shards);
        for shard in 0..shards {
            let lo = Self::cut(population, shards, shard);
            let hi = Self::cut(population, shards, shard + 1);
            let mut own = Vec::with_capacity(hi - lo);
            for &id in &order[lo..hi] {
                shard_of[id as usize] = shard as u32;
                own.push(NodeId(id));
            }
            owned.push(own);
        }
        ShardMap {
            mode,
            shards,
            shard_of,
            owned,
        }
    }

    /// First position of `shard`'s run under the balanced partition of
    /// `population` into `shards` equal-or-off-by-one pieces.
    fn cut(population: usize, shards: usize, shard: usize) -> usize {
        (shard * population).div_ceil(shards)
    }

    /// The mode this map was built in.
    pub fn mode(&self) -> ShardMapMode {
        self.mode
    }

    /// Number of shards (= worker threads).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total node population covered by the map.
    pub fn len(&self) -> usize {
        self.shard_of.len()
    }

    /// `true` for an empty population (never the case in a started
    /// network, but keeps the type honest).
    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// The shard owning `node` — an O(1) table lookup.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// The node ids `shard` owns, in locality order (for a contiguous
    /// map, id order).
    pub fn owned(&self, shard: usize) -> &[NodeId] {
        &self.owned[shard]
    }
}

/// The overlay locality key `OverlayAware` sorts by: nearby keys mean
/// "overlay neighbors", so balanced runs of the sorted order co-locate
/// them on one shard.
fn locality_key(overlay: &AnyOverlay, node: NodeId) -> u64 {
    match overlay {
        // Chord routes along successor arcs and fingers; sorting by ring
        // position keeps each arc (and most short fingers) on one shard.
        AnyOverlay::Chord(_) => cup_overlay::hashing::node_to_ring(node.0),
        // CAN routes between zone neighbors in the 2-d torus; the Morton
        // (Z-order) code of the zone center keeps spatially adjacent
        // zones adjacent in the sort.
        AnyOverlay::Can(can) => can.zones_of(node).first().map_or(u64::MAX, |z| {
            morton(zone_mid(z.x0, z.x1), zone_mid(z.y0, z.y1))
        }),
    }
}

/// Midpoint of a half-open zone edge `[lo, hi)`; bounds are at most
/// `1 << 32`, so the midpoint always fits 32 bits.
fn zone_mid(lo: u64, hi: u64) -> u32 {
    ((lo + hi) / 2) as u32
}

/// Interleaves the bits of `x` and `y` (Z-order curve): points close in
/// the plane get close codes, which is all the sort needs.
fn morton(x: u32, y: u32) -> u64 {
    spread(x) | (spread(y) << 1)
}

/// Spreads the 32 bits of `v` to the even bit positions of a u64.
fn spread(v: u32) -> u64 {
    let mut v = u64::from(v);
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_core::{CupNode, NodeConfig};
    use cup_des::DetRng;
    use cup_faults::NodeArena;
    use cup_overlay::OverlayKind;

    fn overlay(kind: OverlayKind, n: usize) -> AnyOverlay {
        let mut rng = DetRng::seed_from(71);
        AnyOverlay::build(kind, n, &mut rng).unwrap()
    }

    #[test]
    fn both_modes_cover_every_node_exactly_once() {
        for kind in OverlayKind::ALL {
            let ov = overlay(kind, 37);
            for mode in ShardMapMode::ALL {
                let map = ShardMap::build(mode, &ov, 5);
                let mut seen = [false; 37];
                for shard in 0..map.shards() {
                    for &id in map.owned(shard) {
                        assert!(!seen[id.index()], "{kind}/{mode}: {id} owned twice");
                        seen[id.index()] = true;
                        assert_eq!(map.shard_of(id), shard);
                    }
                }
                assert!(seen.iter().all(|&s| s), "{kind}/{mode}: node unowned");
            }
        }
    }

    #[test]
    fn an_overlay_aware_shards_arena_answers_only_for_the_ids_it_owns() {
        let ov = overlay(OverlayKind::Chord, 37);
        let map = ShardMap::build(ShardMapMode::OverlayAware, &ov, 3);
        let own = map.owned(1);
        let span = own.iter().max().unwrap().0 - own.iter().min().unwrap().0;
        assert!(span as usize >= own.len(), "not an id range: {own:?}");
        let mut arena = NodeArena::build(own, NodeConfig::cup_default());
        for (i, &id) in own.iter().enumerate() {
            arena.get_mut(id).unwrap().stats.client_queries = i as u64 + 1;
        }
        let before = arena.aggregate_stats();
        let (gone, wiped) = (own[0], own[own.len() / 2]);
        for round in 0..2 {
            let holds = |id| map.shard_of(id) == 1 && (round == 0 || id != gone);
            for id in (0..37).map(NodeId) {
                assert_eq!(arena.get(id).map(CupNode::id), holds(id).then_some(id));
            }
            // A swap-remove and a reset, each keeping every counter.
            assert_eq!(arena.remove(gone).is_some(), round == 0);
            assert!(arena.reset(wiped));
            assert_eq!(arena.aggregate_stats(), before, "conserved");
        }
        assert_eq!(arena.get(wiped).unwrap().stats.client_queries, 0);
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one_in_both_modes() {
        let ov = overlay(OverlayKind::Can, 23);
        for mode in ShardMapMode::ALL {
            let map = ShardMap::build(mode, &ov, 7);
            let sizes: Vec<usize> = (0..7).map(|s| map.owned(s).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{mode}: unbalanced shards {sizes:?}");
        }
    }

    #[test]
    fn contiguous_mode_matches_the_historic_partition() {
        let ov = overlay(OverlayKind::Chord, 16);
        let map = ShardMap::build(ShardMapMode::Contiguous, &ov, 7);
        for id in 0..16u32 {
            assert_eq!(map.shard_of(NodeId(id)), id as usize * 7 / 16);
        }
    }

    #[test]
    fn overlay_aware_placement_cuts_cross_shard_neighbor_edges() {
        // The whole point of the mode: overlay neighbor links — the
        // edges protocol traffic actually travels — should mostly stay
        // inside one shard.
        for kind in OverlayKind::ALL {
            let ov = overlay(kind, 128);
            let cross_edges = |map: &ShardMap| -> usize {
                (0..128u32)
                    .map(|id| {
                        let node = NodeId(id);
                        ov.neighbors(node)
                            .iter()
                            .filter(|&&nb| map.shard_of(nb) != map.shard_of(node))
                            .count()
                    })
                    .sum()
            };
            let contig = cross_edges(&ShardMap::build(ShardMapMode::Contiguous, &ov, 4));
            let aware = cross_edges(&ShardMap::build(ShardMapMode::OverlayAware, &ov, 4));
            assert!(
                aware < contig,
                "{kind}: overlay-aware must cut cross-shard neighbor edges ({aware} vs {contig})"
            );
        }
    }

    #[test]
    fn worker_clamp_handles_tiny_populations() {
        let ov = overlay(OverlayKind::Can, 3);
        let map = ShardMap::build(ShardMapMode::OverlayAware, &ov, 64);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn mode_surface_round_trips() {
        for mode in ShardMapMode::ALL {
            assert_eq!(ShardMapMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(
            ShardMapMode::parse("contiguous"),
            Some(ShardMapMode::Contiguous)
        );
        assert_eq!(
            ShardMapMode::parse("overlay-aware"),
            Some(ShardMapMode::OverlayAware)
        );
        assert_eq!(ShardMapMode::parse("bogus"), None);
    }
}
