//! A live, sharded CUP deployment.
//!
//! The protocol core is a pure state machine; this crate demonstrates
//! that it runs unchanged outside the simulator — and at scale. The node
//! population is cut into shards by a [`ShardMap`], one shard per worker
//! thread (default: the machine's available parallelism), so a 100k-node
//! network costs a handful of OS threads instead of 100k. Placement is
//! pluggable ([`ShardMapMode`]): balanced contiguous id ranges by
//! default, or **overlay-aware** runs that co-locate CAN zone neighbors
//! and Chord successor arcs so neighbor-heavy protocol traffic stays
//! intra-shard. Each worker serves its shard's [`cup_core::CupNode`]s,
//! which live in the shard's delivery plane:
//! intra-shard messages are handled inline through a local FIFO, and
//! cross-shard messages are **batched** — accumulated into
//! per-destination buffers during dispatch and flushed as whole batches
//! into the receiving shard's inbox at loop boundaries, so the inbox
//! lock and the quiesce barrier's atomic in-flight counter are
//! amortized over whole batches instead of paid per envelope. The
//! overlay substrate (CAN or Chord) is a constructor parameter.
//!
//! **Two clock modes** ([`cup_core::clock::Clock`]): [`LiveNetwork::start`]
//! maps the wall clock onto [`cup_des::SimTime`] microseconds (real time
//! for real deployments and throughput benchmarks), while
//! [`LiveNetwork::start_virtual_with_map`] runs on a
//! **virtual clock** — deterministic logical time that moves only when
//! the driver steps it via [`LiveNetwork::advance`] /
//! [`LiveNetwork::run_until`], always at a quiesce barrier, so all
//! workers observe byte-identical timestamps regardless of scheduling.
//! On the virtual clock every time-compared protocol behavior — the
//! `PFU_TIMEOUT` retry timer, freshness horizons, `@t=`-windowed fault
//! edges applied with [`LiveNetwork::inject_fault`] at their instants —
//! matches the DES exactly; the conformance harness asserts it byte for
//! byte.
//!
//! [`LiveNetwork::quiesce`] is the runtime's barrier: it blocks until
//! every shard's inbox is drained and no worker is
//! mid-dispatch, the live equivalent of running a simulation until its
//! event queue empties. It stays exact under batching because workers
//! flush their outbound buffers before retiring consumed work and
//! before parking. Tests and benchmarks synchronize on it instead of
//! sleeping.
//!
//! The runtime keeps the overlay static (no churn) — it exists to
//! exercise the protocol under real concurrency, not to be a full
//! deployment — and exposes the same knobs as the simulation: node
//! configuration (mode, cut-off policy), replica events, and client
//! queries.
//!
//! Everything between a message's arrival and the enqueue of its
//! children is the delivery kernel the DES also runs
//! ([`cup_faults::deliver`]); a worker is its `Env`. The `cup-faults`
//! plane therefore plugs in through the same decide-before-enqueue rule
//! the DES uses: [`LiveNetwork::enable_faults`] arms one
//! [`cup_faults::FaultState`] replica per shard, every worker's kernel
//! consults its own before a message enters any mailbox (so `quiesce`
//! stays exact under loss), and [`LiveNetwork::inject_fault`] scripts
//! loss phases, partitions, and crash/restart cycles — applied to every
//! replica between rounds; a crash wipes the node's protocol state right
//! there, in the plane holding the node, while its counters are folded
//! into that plane's retained aggregate. The kernel's state (nodes,
//! fault replica, justification windows, per-kind hop counts,
//! histograms) is shard-local, taken once per dispatch round and folded
//! by the handle at read time ([`LiveNetwork::totals`]), so the
//! per-message path takes no process-wide lock.
//!
//! A worker that panics poisons the pool mid-run, so the whole crate
//! denies `clippy::unwrap_used` and `clippy::expect_used` (the attribute
//! below); a poisoned lock is recovered with `into_inner`, a bad route is
//! dropped and counted. The two exceptions, spawning the pool and joining
//! it at shutdown, carry an `expect` attribute stating why panicking is
//! the report there. Test code may unwrap (`clippy.toml`).
//!
//! # Examples
//!
//! ```
//! use cup_des::{DetRng, KeyId, ReplicaId, SimDuration};
//! use cup_core::NodeConfig;
//! use cup_overlay::OverlayKind;
//! use cup_runtime::LiveNetwork;
//!
//! let mut rng = DetRng::seed_from(7);
//! let net = LiveNetwork::start(OverlayKind::Can, 16, NodeConfig::cup_default(), &mut rng).unwrap();
//! net.replica_birth(KeyId(1), ReplicaId(0), SimDuration::from_secs(60));
//! net.quiesce();
//! let entries = net.query(net.nodes()[3], KeyId(1)).unwrap();
//! assert_eq!(entries.len(), 1);
//! net.shutdown();
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::iter_over_hash_type)]

pub mod network;
mod shard;
pub mod shard_map;

pub use network::{LiveNetwork, PendingQuery, RuntimeError};
pub use shard_map::{ShardMap, ShardMapMode};
