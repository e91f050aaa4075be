//! The sharded worker pool behind [`crate::LiveNetwork`].
//!
//! The node population is cut into shards by a [`crate::ShardMap`]
//! (balanced contiguous ranges by default, overlay-locality runs in
//! [`crate::ShardMapMode::OverlayAware`] mode); one OS worker thread
//! serves each shard's [`CupNode`]s, which live in the shard's [`Plane`].
//! A message whose target lives on the same shard is handled inline
//! through a local FIFO (no queue round-trip); a cross-shard message is
//! *batched*: the sending worker
//! accumulates envelopes into per-destination `Vec` buffers during
//! dispatch and flushes each whole batch into the receiver's [`Inbox`]
//! at loop boundaries, so the inbox lock and the atomic in-flight
//! counter are paid once per batch, not once per envelope. The inbox is
//! a shard's only queue: peer batches land beside the runtime handle's
//! control posts (client queries, replica events and deaths), and the
//! worker takes one round's share of both under one lock.
//!
//! The in-flight counter still brackets every envelope from enqueue to
//! fully-dispatched — one `fetch_add(batch_len)` when a batch is
//! deposited, one `fetch_sub(consumed)` after the receiver dispatched a
//! round — which keeps the [`Shared::wait_quiescent`] barrier exact:
//! zero means every inbox is drained *and* no worker is
//! mid-dispatch. Two orderings make that true under batching: a worker
//! flushes its outbound buffers *before* decrementing the counter for
//! the work it consumed (children are in flight before the parent
//! retires), and *before* parking (a parked worker never sits on a
//! partial batch, so the barrier cannot deadlock).
//!
//! What happens to a message between arrival and the enqueue of its
//! children — hop charge, fault gates, trace, justification, handler,
//! loss roll, answer accounting — is the shared delivery kernel's
//! ([`cup_faults::deliver`]); a worker is that kernel's [`Env`]: the
//! clock, the static overlay, the inline FIFO and the outboxes as
//! `enqueue`, the client registry, the per-shard split of a posted
//! query's virtual path. The kernel's state is shard-local too. Each
//! shard has one [`ShardLocal`] — its [`Plane`] (the shard's nodes, a
//! replica of the fault plane, its slice of the justification tracker,
//! its metrics sink, its trace ring, its copy of the staleness ground
//! truth) and the batch-plane counters — whose mutex the shard's worker
//! takes once per dispatch round, so the per-message path reads and
//! writes plain fields and touches no lock or atomic another shard also
//! touches. The runtime handle is the only other party: it takes every
//! shard's lock to apply a fault action to all replicas at once — a
//! crash wipes its node right there, in the one plane holding it, so no
//! message queued behind the crash can reach the pre-crash state — to
//! switch tracing, and to fold the shards with exact merges when a
//! counter, histogram or trace is read. What a shard cannot see from its
//! own traffic — a replica's death, which happens at
//! the key's authority — the handle posts to every shard's inbox
//! ([`Envelope::Death`]). The client registry
//! ([`Clients`]) is per shard as well but sits behind its own small
//! mutex, because the handle fills it at post time and a post must never
//! wait for a round; answers land in it in place, and a blocking query
//! waits on a condvar paired with that mutex.
//!
//! A node's wakes (a §2.8 capacity service, a §3.6 batch release) are
//! kept by its shard's plane and read through [`Plane::next_wake`] and
//! [`Plane::wake_due`]. On the wall clock the worker runs what is due at
//! the end of every round and, when idle, parks with a timeout to the
//! earliest one. On the virtual clock time moves only in
//! `LiveNetwork::run_until`, which steps it to each instant a wake is
//! due and posts [`Envelope::Wake`] to every shard; with no wake kept
//! anywhere that costs it one atomic read ([`Shared`]'s `wakes`,
//! recounted under a shard's lock at the end of each round and when the
//! handle applies a fault, whose crash forgets its node's wakes and
//! whose capacity cut or restart may ask for one; on the wall clock the
//! handle then posts [`Envelope::Wake`] to the shard, so its worker
//! reads its earliest wake again).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{self, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use cup_core::clock::Clock;
use cup_core::obs::Hist;
use cup_core::{ClientId, CupNode, IndexEntry, Message, NodeConfig, ReplicaEvent};
use cup_des::{KeyId, NodeId, ReplicaId, SimDuration, SimTime};
use cup_faults::{Env, NodeArena, Plane, RoutingFailed};
use cup_overlay::{AnyOverlay, Overlay};

use crate::shard_map::ShardMap;

/// What a shard's inbox can carry.
pub(crate) enum Envelope {
    /// A protocol message for `to` from peer `from`.
    Peer {
        /// Receiving node (owned by this shard).
        to: NodeId,
        /// Sending neighbor.
        from: NodeId,
        /// The message.
        msg: Message,
    },
    /// A local client query posted at `at`; the response goes to the
    /// client's slot in this shard's [`Clients`].
    Client {
        /// The posting node.
        at: NodeId,
        /// The key queried.
        key: KeyId,
        /// Who is waiting for the answer.
        client: ClientId,
    },
    /// A replica lifecycle message for `at`, the key's authority.
    Replica {
        /// The authority node.
        at: NodeId,
        /// Birth, refresh, or deletion.
        event: ReplicaEvent,
    },
    /// Staleness ground truth: `replica` of `key` was deleted at `at`.
    /// Posted to every shard ahead of the deletion's [`Envelope::Replica`],
    /// so a query posted afterwards finds the death in its shard's plane
    /// (inboxes are FIFO, and an answer is judged at the posting shard).
    Death {
        /// The key served.
        key: KeyId,
        /// The deleted replica.
        replica: ReplicaId,
        /// When it died.
        at: SimTime,
    },
    /// Justification plane: a client query for `key` was posted at `now`
    /// on another shard, and the first `len` of `nodes` are nodes of its
    /// virtual path this shard owns — their open windows become
    /// justified (§3.1). A shard that owns more than [`MARK_NODES`] of a
    /// path gets several marks, so a mark owns no heap memory. Travels
    /// in the batch plane (so the quiesce barrier counts it) but is
    /// bookkeeping, not protocol traffic: neither a hop nor a cross-shard
    /// message.
    JustifyMark {
        /// The key queried.
        key: KeyId,
        /// When the query was posted.
        now: SimTime,
        /// How many of `nodes` are on the path.
        len: u8,
        /// The receiving shard's nodes on the query's virtual path.
        nodes: [NodeId; MARK_NODES],
    },
    /// The virtual clock was stepped to an instant some wake is due: run
    /// this shard's wakes due by now, each with its cascade, in order.
    Wake,
}

/// Path nodes one [`Envelope::JustifyMark`] carries: as many as fit
/// beside the key and the time without growing the envelope.
const MARK_NODES: usize = 8;

// A mark must not grow the envelope every message travels in.
const _: () = assert!(std::mem::size_of::<Envelope>() == 72);

/// A shard's inbox, the one place other parties write to a shard: the
/// peer batches other shards' workers deposit, the control envelopes
/// the runtime handle posts (client queries, replica events and
/// deaths), and the flags that park and wake the worker.
#[derive(Default)]
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

#[derive(Default)]
struct InboxState {
    /// Peer batches, each appended whole, so each sender's order
    /// survives. Worker and senders swap vectors with it, ping-ponging
    /// the same allocations: steady-state transfer allocates nothing.
    peers: Vec<Envelope>,
    /// Handle-posted control envelopes, FIFO.
    control: VecDeque<Envelope>,
    /// The pool is stopping. Checked only when no work remains, so a
    /// worker always drains before exiting.
    shutdown: bool,
    /// The worker is waiting on the condvar. Set and cleared under this
    /// mutex around the wait, so a poster that finds it clear knows the
    /// worker will see its work before it next parks, and skips the
    /// notify: a futex `notify_one` is a syscall even when nobody waits,
    /// and costs several times the lock itself.
    parked: bool,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push_control(&self, env: Envelope) {
        let mut st = self.lock();
        st.control.push_back(env);
        if st.parked {
            self.cv.notify_one();
        }
    }

    /// Lands a whole peer batch: swapped in when none is waiting (`buf`
    /// comes back empty with the worker's old capacity), else appended.
    fn deposit(&self, buf: &mut Vec<Envelope>) {
        let mut st = self.lock();
        if st.peers.is_empty() {
            std::mem::swap(&mut st.peers, buf);
        } else {
            st.peers.append(buf);
        }
        if st.parked {
            self.cv.notify_one();
        }
    }

    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }
}

impl InboxState {
    /// Takes one round's share into the worker's empty `peers` and
    /// `control`: every peer envelope (a swap, leaving `peers`'
    /// allocation here for the next sender) and at most
    /// [`CONTROL_QUANTUM`] control envelopes; the rest stay queued.
    /// Returns whether the round has any work.
    fn take_round(&mut self, peers: &mut Vec<Envelope>, control: &mut Vec<Envelope>) -> bool {
        std::mem::swap(&mut self.peers, peers);
        let n = self.control.len().min(CONTROL_QUANTUM);
        control.extend(self.control.drain(..n));
        !peers.is_empty() || !control.is_empty()
    }
}

/// The state one shard owns outright. Its worker holds the lock for the
/// length of a dispatch round; the handle takes every shard's lock
/// ([`Shared::lock_locals`]) to change the fault plane or to fold a
/// reading. Nothing here is ever touched on behalf of another shard's
/// node, which is what makes the fold exact.
pub(crate) struct ShardLocal {
    /// The delivery kernel's state for this shard's nodes:
    ///
    /// * `nodes` holds the nodes [`ShardMap::owned`] gives this shard,
    ///   and the counters of their crashed selves;
    /// * `faults` is a replica of one logical plane — same seed, every
    ///   action applied to every replica under all the locks — whose
    ///   only per-message mutable input, the per-link sequence number,
    ///   belongs to the sender's shard; drops are decided *before* a
    ///   message enters a buffer, so a dropped message never becomes
    ///   in-flight work and `wait_quiescent` stays exact;
    /// * `justify` holds the windows of this shard's nodes (windows are
    ///   keyed by `(node, key)`), marked by queries posted here directly
    ///   and by [`Envelope::JustifyMark`] for queries posted elsewhere;
    /// * `metrics` counts what this shard's nodes received and answered
    ///   (a histogram is a multiset summary with an exact merge, so
    ///   per-shard recording folded at read time is byte-identical to a
    ///   serial run's).
    ///
    /// Its `trace` ring (when tracing is on) keeps this shard's events,
    /// folded with [`cup_core::obs::TraceBuf::merge`] when the trace is
    /// taken; its `deaths` learn every death from [`Envelope::Death`].
    pub(crate) plane: Plane,
    /// Peer messages this shard's nodes sent across a shard boundary (a
    /// subset of the hops), charged when their batch is flushed.
    pub(crate) cross_shard: u64,
    /// Peer envelopes per non-empty cross-shard batch flush (live-only:
    /// the DES has no batching, so this never enters conformance
    /// outcomes); its count is the number of such flushes.
    pub(crate) batch_sizes: Hist,
    /// Whether [`Shared`]'s `wakes` counts this shard as keeping a wake
    /// ([`Shared::recount_wakes`]).
    counted_wakes: bool,
}

/// One waiting client: when its query was posted, until the first
/// answer claims it (or a crashed node swallows the query) — the live
/// mirror of the DES network's `query_posted` map — and the answers not
/// yet taken, in arrival order. The first sits in place; a second (a
/// PFU retry's, say) queues behind it.
#[derive(Default)]
struct ClientSlot {
    posted: Option<SimTime>,
    first: Option<Vec<IndexEntry>>,
    later: Vec<Vec<IndexEntry>>,
}

impl ClientSlot {
    /// The oldest answer not yet taken.
    fn take(&mut self) -> Option<Vec<IndexEntry>> {
        let answer = self.first.take()?;
        if !self.later.is_empty() {
            self.first = Some(self.later.remove(0));
        }
        Some(answer)
    }
}

/// What [`Clients`]' mutex guards.
#[derive(Default)]
struct ClientRegistry {
    slots: HashMap<ClientId, ClientSlot>,
    /// Threads blocked in [`Clients::wait`]: an answer notifies the
    /// condvar only if there are some.
    blocked: usize,
}

/// A shard's waiting clients, filled handle-side at post time (so
/// wall-clock latency includes queue wait) and emptied when each
/// `PendingQuery` drops. Only the shard of the node a query was posted
/// at ever answers it.
#[derive(Default)]
pub(crate) struct Clients {
    registry: Mutex<ClientRegistry>,
    /// Signalled when an answer lands while some thread is blocked.
    answered: Condvar,
}

impl Clients {
    /// The registry. A poisoned one is recovered, not propagated: every
    /// update leaves it valid, and a worker must keep dispatching (the
    /// barrier reports the panic).
    fn lock(&self) -> MutexGuard<'_, ClientRegistry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers `client`, posted at `posted`.
    pub(crate) fn register(&self, client: ClientId, posted: SimTime) {
        let slot = ClientSlot {
            posted: Some(posted),
            ..ClientSlot::default()
        };
        self.lock().slots.insert(client, slot);
    }

    /// Removes `client`'s slot, answers and posted time included.
    pub(crate) fn deregister(&self, client: ClientId) {
        self.lock().slots.remove(&client);
    }

    /// `client`'s oldest answer not yet taken, if one has arrived.
    pub(crate) fn take(&self, client: ClientId) -> Option<Vec<IndexEntry>> {
        self.lock().slots.get_mut(&client)?.take()
    }

    /// Like [`Clients::take`], but blocks up to `timeout` for an answer.
    pub(crate) fn wait(&self, client: ClientId, timeout: Duration) -> Option<Vec<IndexEntry>> {
        let mut registry = self.lock();
        registry.blocked += 1;
        let unanswered =
            |r: &mut ClientRegistry| r.slots.get(&client).is_some_and(|s| s.first.is_none());
        let (mut registry, _) = self
            .answered
            .wait_timeout_while(registry, timeout, unanswered)
            .unwrap_or_else(|e| e.into_inner());
        registry.blocked -= 1;
        registry.slots.get_mut(&client)?.take()
    }

    /// Hands `client` an answer. Returns when the query was posted if
    /// this is its first answer, `None` afterwards or if the client is
    /// gone (its answer is dropped).
    pub(crate) fn answer(&self, client: ClientId, entries: Vec<IndexEntry>) -> Option<SimTime> {
        let mut registry = self.lock();
        let slot = registry.slots.get_mut(&client)?;
        match slot.first {
            None => slot.first = Some(entries),
            Some(_) => slot.later.push(entries),
        }
        let posted = slot.posted.take();
        if registry.blocked > 0 {
            self.answered.notify_all();
        }
        posted
    }

    /// Discards `client`'s posted time (see [`Env::forget_client`]).
    fn forget(&self, client: ClientId) {
        if let Some(slot) = self.lock().slots.get_mut(&client) {
            slot.posted = None;
        }
    }

    /// How many clients are registered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().slots.len()
    }
}

/// [`Shared`]'s panicked-shard value while no worker has unwound.
const NO_PANIC: usize = usize::MAX;

/// State shared between the runtime handle and every worker.
pub(crate) struct Shared {
    /// Per-shard inboxes, indexed by shard.
    pub(crate) inboxes: Vec<Inbox>,
    /// The frozen node→shard assignment (and its O(1) lookup tables).
    pub(crate) map: ShardMap,
    /// The static overlay all routing decisions come from.
    pub(crate) overlay: AnyOverlay,
    /// Per-shard client registries, indexed by the shard of the node
    /// the query was posted at (the only shard that ever answers it).
    clients: Vec<Clients>,
    /// Per-shard local state, indexed by shard (see [`ShardLocal`]).
    locals: Vec<Mutex<ShardLocal>>,
    /// Where "now" comes from: wall-mapped for real deployments,
    /// virtual (stepped at quiesce barriers) for deterministic runs —
    /// see [`cup_core::clock`].
    pub(crate) clock: Clock,
    /// In-flight envelopes: incremented before an envelope (or a whole
    /// batch of them) enters an inbox, decremented
    /// after the receiving worker fully dispatched it — including its
    /// inline intra-shard cascade *and* the flush of any cross-shard
    /// children it produced (flush-before-decrement).
    pending: atomic::AtomicU64,
    /// The shard whose worker unwound mid-dispatch first, or
    /// [`NO_PANIC`]; `wait_quiescent` turns it into a panic naming that
    /// shard instead of waiting forever on an in-flight counter that
    /// will never reach zero.
    panicked: AtomicUsize,
    /// Shards whose plane keeps a wake ([`Shared::recount_wakes`]):
    /// `run_until` looks for due ones only while it is non-zero.
    wakes: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl Shared {
    /// The shared state of a pool over `map`'s shards, each shard's plane
    /// holding a fresh node, configured with `config`, for every id the
    /// shard owns.
    pub(crate) fn new(
        map: ShardMap,
        overlay: AnyOverlay,
        config: NodeConfig,
        clock: Clock,
    ) -> Self {
        let shards = map.shards();
        let locals = (0..shards)
            .map(|shard| {
                Mutex::new(ShardLocal {
                    plane: Plane::new(NodeArena::build(map.owned(shard), config)),
                    cross_shard: 0,
                    batch_sizes: Hist::default(),
                    counted_wakes: false,
                })
            })
            .collect();
        Shared {
            inboxes: (0..shards).map(|_| Inbox::default()).collect(),
            map,
            overlay,
            clients: (0..shards).map(|_| Clients::default()).collect(),
            locals,
            clock,
            pending: atomic::AtomicU64::new(0),
            panicked: AtomicUsize::new(NO_PANIC),
            wakes: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        }
    }

    /// The live clock's current time (wall-mapped or virtual).
    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Posts one control envelope to `shard`'s inbox, tracking it as
    /// in-flight work for the quiesce barrier. This is the handle-side
    /// path (scripted events, not the hot path), so it stays
    /// per-envelope.
    pub(crate) fn post(&self, shard: usize, env: Envelope) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.inboxes[shard].push_control(env);
    }

    /// Deposits a whole outbound batch into `receiver`'s inbox, counted
    /// in flight *before* the deposit — one amortized `fetch_add` per
    /// flush — so the barrier never sees an envelope it has not counted.
    fn deposit(&self, receiver: usize, buf: &mut Vec<Envelope>) {
        self.pending.fetch_add(buf.len() as u64, Ordering::SeqCst);
        self.inboxes[receiver].deposit(buf);
    }

    /// Marks `n` in-flight envelopes as fully dispatched, waking
    /// quiescing threads when the network drains. Callers must have
    /// flushed their outbound buffers first (flush-before-decrement).
    pub(crate) fn finish_n(&self, n: u64) {
        if n > 0 && self.pending.fetch_sub(n, Ordering::SeqCst) == n {
            let _idle = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.idle_cv.notify_all();
        }
    }

    /// Flags the unwind of `shard`'s worker and wakes every quiescing
    /// thread so the failure surfaces instead of hanging. The first
    /// shard flagged is the one reported.
    pub(crate) fn flag_panic(&self, shard: usize) {
        let _ = self
            .panicked
            .compare_exchange(NO_PANIC, shard, Ordering::SeqCst, Ordering::SeqCst);
        let _idle = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.idle_cv.notify_all();
    }

    /// Blocks until every mailbox is drained and no worker is
    /// mid-dispatch. Exact, not heuristic: see the module docs.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a worker thread panicked — the
    /// counter can then never drain, and a loud failure beats a silent
    /// permanent hang.
    pub(crate) fn wait_quiescent(&self) {
        let mut idle = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let shard = self.panicked.load(Ordering::SeqCst);
            assert!(
                shard == NO_PANIC,
                "the live-runtime worker for shard {shard} panicked; the network cannot quiesce"
            );
            if self.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            idle = self.idle_cv.wait(idle).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Locks every shard's local state, in shard order (the one order
    /// any thread takes more than one of these locks in, so handle
    /// threads cannot deadlock each other; a worker only ever takes its
    /// own). Each lock is granted at its worker's next round boundary.
    /// Holding all of them means no round is in progress anywhere: a
    /// fault action applied now reaches every replica before any worker
    /// rolls another verdict, and a fold reads one consistent cut.
    pub(crate) fn lock_locals(&self) -> Vec<MutexGuard<'_, ShardLocal>> {
        self.locals
            .iter()
            .map(|local| local.lock().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// Recounts `local`'s shard in `wakes`. Call under its lock, after
    /// whatever may have changed its plane's wakes.
    pub(crate) fn recount_wakes(&self, local: &mut ShardLocal) {
        let keeps = local.plane.next_wake().is_some();
        match (std::mem::replace(&mut local.counted_wakes, keeps), keeps) {
            (false, true) => self.wakes.fetch_add(1, Ordering::SeqCst),
            (true, false) => self.wakes.fetch_sub(1, Ordering::SeqCst),
            _ => 0,
        };
    }

    /// `shard`'s waiting clients.
    pub(crate) fn clients_of(&self, shard: usize) -> &Clients {
        &self.clients[shard]
    }

    /// The earliest instant before `deadline` at which some shard keeps
    /// a wake; `None` at once, after one atomic read, if no shard keeps
    /// any. Call quiescent, so no worker is adding one.
    pub(crate) fn next_wake(&self, deadline: SimTime) -> Option<SimTime> {
        if self.wakes.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let locals = self.lock_locals();
        let due = locals.iter().filter_map(|local| local.plane.next_wake());
        due.min().filter(|&at| at < deadline)
    }
}

/// One worker thread's state: its shard's transport plus reusable
/// buffers (the shard's nodes are in its [`ShardLocal`]'s plane).
struct Worker {
    shard: usize,
    shared: Arc<Shared>,
    /// Intra-shard messages handled inline, FIFO (to, from, msg).
    local: VecDeque<(NodeId, NodeId, Message)>,
    /// This round's control envelopes, emptied every round.
    control: Vec<Envelope>,
    /// This round's peer envelopes, emptied every round.
    incoming: Vec<Envelope>,
    /// Per-destination outbound buffers, flushed at loop boundaries.
    outbox: Vec<Outbound>,
    /// Scratch a posted query's virtual path is routed into.
    path: Vec<NodeId>,
    /// Per-shard scratch that path is split into.
    path_split: Vec<Vec<NodeId>>,
    /// On the wall clock, when this shard's earliest wake is due (read
    /// at the end of each round, under the round's lock); always `None`
    /// on the virtual clock, where [`Envelope::Wake`] runs them.
    alarm: Option<SimTime>,
}

/// One destination's outbound batch.
#[derive(Default)]
struct Outbound {
    buf: Vec<Envelope>,
    /// How many of `buf`'s envelopes are [`Envelope::JustifyMark`]s.
    marks: u64,
}

/// Flags the unwind of a worker that panics mid-dispatch, naming its
/// shard, so quiescing threads fail loudly instead of waiting forever
/// ([`Shared::flag_panic`]); `shutdown()`'s join then surfaces the
/// original panic payload.
struct PanicGuard {
    shard: usize,
    shared: Arc<Shared>,
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.flag_panic(self.shard);
        }
    }
}

/// Control envelopes a worker takes per round before it flushes and
/// takes fresh peer batches — the dispatch quantum. Bounding the
/// round keeps the protocol's *feedback* latency low: a replica-event
/// storm posted to an authority's shard would otherwise be consumed as
/// one giant round, pumping every update downstream before a single
/// cross-shard clear-bit (a cut-off policy's unsubscribe, §3.4) gets
/// applied, defeating the very mechanism that collapses unjustified
/// propagation. Chunking lets clear-bits prune the interest tree while
/// the storm is still being injected — the same behavior a serial run
/// gets for free from its inline FIFO — and pipelines output to the
/// other shards instead of sitting on it until the storm ends.
const CONTROL_QUANTUM: usize = 64;

/// The worker thread body: rounds of (park until the inbox holds work →
/// take its peers and one control quantum → take the [`ShardLocal`] →
/// dispatch peers, then control → flush outbound batches → release the
/// `ShardLocal` → retire the consumed count) until shutdown.
pub(crate) fn worker_main(shard: usize, shared: Arc<Shared>) {
    let guard = PanicGuard {
        shard,
        shared: Arc::clone(&shared),
    };
    let shards = shared.map.shards();
    let mut worker = Worker {
        shard,
        shared: Arc::clone(&shared),
        local: VecDeque::new(),
        control: Vec::new(),
        incoming: Vec::new(),
        outbox: (0..shards).map(|_| Outbound::default()).collect(),
        path: Vec::new(),
        path_split: (0..shards).map(|_| Vec::new()).collect(),
        alarm: None,
    };
    let wall = !shared.clock.is_virtual();
    loop {
        let stop = {
            let inbox = &shared.inboxes[shard];
            let mut st = inbox.lock();
            loop {
                if st.take_round(&mut worker.incoming, &mut worker.control) {
                    break false;
                }
                if st.shutdown {
                    break true;
                }
                // A due wake is a round of its own; a later one bounds
                // the park.
                let alarm = worker.alarm.map(|due| due.saturating_since(shared.now()));
                if alarm == Some(SimDuration::ZERO) {
                    break false;
                }
                // Flush-before-park already happened (end of the last
                // round), so waiting here cannot strand a partial batch.
                st.parked = true;
                st = match alarm {
                    None => inbox.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                    Some(wait) => {
                        let wait = Duration::from_micros(wait.as_micros());
                        let parked = inbox.cv.wait_timeout(st, wait);
                        parked.unwrap_or_else(|e| e.into_inner()).0
                    }
                };
                st.parked = false;
            }
        };
        if stop {
            break;
        }
        // One uncontended lock per round instead of one contended lock
        // per message. Released before the count retires, so whoever a
        // drained barrier lets through finds this shard's state free —
        // and published: the unlock orders the round's plain writes
        // before any later lock.
        let mut state = shared.locals[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let consumed = worker.drain_round(&mut state);
        if wall {
            worker.wake_due(&mut state);
        }
        // Flush-before-decrement: cross-shard children enter the
        // in-flight count before their parents retire, so the barrier
        // can never observe zero while this round's output is in hand.
        worker.flush(&mut state);
        if wall {
            worker.alarm = state.plane.next_wake();
        }
        // Recounted before the round retires, so a barrier that drains
        // sees every wake the round asked for.
        shared.recount_wakes(&mut state);
        drop(state);
        shared.finish_n(consumed);
    }
    drop(guard);
}

impl Worker {
    /// Dispatches the round [`InboxState::take_round`] took: the peer
    /// envelopes first — peer traffic carries the protocol's feedback
    /// (clear-bits, query answers), so it is applied before new control
    /// work is started — then the control quantum. Returns the number of
    /// in-flight envelopes consumed.
    fn drain_round(&mut self, state: &mut ShardLocal) -> u64 {
        let mut peers = std::mem::take(&mut self.incoming);
        let mut control = std::mem::take(&mut self.control);
        let consumed = (peers.len() + control.len()) as u64;
        for env in peers.drain(..).chain(control.drain(..)) {
            self.dispatch(state, env);
        }
        self.incoming = peers;
        self.control = control;
        consumed
    }

    /// Flushes the round's accumulated output: each per-destination
    /// outbound batch into its receiver's inbox. Runs before
    /// `finish_n` and before parking — see the module docs for why both
    /// orderings are load-bearing. Only a batch's peer messages count as
    /// cross-shard traffic: [`Envelope::JustifyMark`]s ride along for
    /// the barrier's sake.
    fn flush(&mut self, state: &mut ShardLocal) {
        for (dest, out) in self.outbox.iter_mut().enumerate() {
            if out.buf.is_empty() {
                continue;
            }
            let peers = out.buf.len() as u64 - std::mem::take(&mut out.marks);
            if peers > 0 {
                state.cross_shard += peers;
                state.batch_sizes.record(peers);
            }
            self.shared.deposit(dest, &mut out.buf);
        }
    }

    /// Handles one envelope plus the whole intra-shard cascade it sets
    /// off, through the delivery kernel. Cross-shard children are only
    /// *buffered* here; the caller flushes them at the round boundary.
    fn dispatch(&mut self, state: &mut ShardLocal, env: Envelope) {
        match env {
            Envelope::Peer { to, from, msg } => state.plane.receive(self, from, to, msg),
            Envelope::JustifyMark {
                key,
                now,
                len,
                nodes,
            } => state.plane.mark(key, now, &nodes[..len.into()]),
            Envelope::Client { at, key, client } => state.plane.post_query(self, at, key, client),
            Envelope::Replica { at, event } => state.plane.replica_event(self, at, event),
            Envelope::Death { key, replica, at } => state.plane.note_death(key, replica, at),
            Envelope::Wake => self.wake_due(state),
        }
        self.cascade(state);
    }

    /// Runs every wake this shard keeps that is due by now, earliest
    /// first, each with its whole intra-shard cascade before the next (a
    /// wake one of them asks for, if due by now, too).
    fn wake_due(&mut self, state: &mut ShardLocal) {
        while state.plane.wake_due(self) {
            self.cascade(state);
        }
    }

    /// Handles the intra-shard messages the inline FIFO holds, and the
    /// children they send there, until it is empty.
    fn cascade(&mut self, state: &mut ShardLocal) {
        while !self.local.is_empty() {
            let group = self.local.len().min(CupNode::LOOKAHEAD);
            for (to, _, msg) in self.local.iter().take(group) {
                if let Some(node) = state.plane.nodes.get(*to) {
                    node.touch_key(msg.key());
                }
            }
            // Children join the back of the FIFO, so handling the group
            // front first is exactly the one-at-a-time order.
            for _ in 0..group {
                let Some((to, from, msg)) = self.local.pop_front() else {
                    break;
                };
                state.plane.receive(self, from, to, msg);
            }
        }
    }
}

impl Env for Worker {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn upstream_of(&mut self, at: NodeId, key: KeyId) -> Result<Option<NodeId>, RoutingFailed> {
        let overlay = &self.shared.overlay;
        if overlay.authority(key) == at {
            return Ok(None);
        }
        overlay.next_hop(at, key).map_err(|_| RoutingFailed)
    }

    /// Intra-shard sends join the inline FIFO, cross-shard sends the
    /// destination's outbound buffer (flushed at the round boundary).
    /// The live runtime has no modeled latency to scale.
    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: Message, _latency_factor: f64) {
        let shard = self.shared.map.shard_of(to);
        if shard == self.shard {
            self.local.push_back((to, from, msg));
        } else {
            self.outbox[shard]
                .buf
                .push(Envelope::Peer { to, from, msg });
        }
    }

    fn respond(&mut self, client: ClientId, entries: Vec<IndexEntry>) -> Option<SimTime> {
        self.shared.clients_of(self.shard).answer(client, entries)
    }

    fn forget_client(&mut self, client: ClientId) {
        self.shared.clients_of(self.shard).forget(client);
    }

    /// Windows are keyed by `(node, key)` and live with the node's
    /// shard, so every other shard gets its path nodes in
    /// [`Envelope::JustifyMark`]s of up to [`MARK_NODES`] nodes each, and
    /// this shard's are returned for the kernel to mark inline.
    fn mark_path(&mut self, at: NodeId, key: KeyId, t: SimTime) -> &[NodeId] {
        self.path_split[self.shard].clear();
        if self
            .shared
            .overlay
            .route_into(at, key, &mut self.path)
            .is_err()
        {
            return &[];
        }
        for &node in &self.path {
            self.path_split[self.shared.map.shard_of(node)].push(node);
        }
        for (shard, nodes) in self.path_split.iter_mut().enumerate() {
            if shard == self.shard || nodes.is_empty() {
                continue;
            }
            let out = &mut self.outbox[shard];
            for chunk in nodes.chunks(MARK_NODES) {
                let mut mark = [NodeId(0); MARK_NODES];
                mark[..chunk.len()].copy_from_slice(chunk);
                out.buf.push(Envelope::JustifyMark {
                    key,
                    now: t,
                    len: chunk.len() as u8,
                    nodes: mark,
                });
                out.marks += 1;
            }
            nodes.clear();
        }
        &self.path_split[self.shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardMapMode;
    use cup_des::DetRng;
    use cup_overlay::OverlayKind;

    #[test]
    fn the_quiesce_panic_names_the_first_shard_that_unwound() {
        let mut rng = DetRng::seed_from(5);
        let overlay = AnyOverlay::build(OverlayKind::Chord, 16, &mut rng).unwrap();
        let map = ShardMap::build(ShardMapMode::Contiguous, &overlay, 3);
        let config = NodeConfig::cup_default();
        let shared = Shared::new(map, overlay, config, Clock::virtual_at(SimTime::ZERO));
        shared.flag_panic(1);
        shared.flag_panic(2);
        let payload = std::panic::catch_unwind(|| shared.wait_quiescent()).unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(
            message.contains("worker for shard 1 panicked"),
            "unexpected message: {message}"
        );
    }

    fn peer(tag: u32) -> Envelope {
        Envelope::Peer {
            to: NodeId(tag),
            from: NodeId(0),
            msg: Message::Query { key: KeyId(0) },
        }
    }

    fn control(tag: u32) -> Envelope {
        Envelope::Client {
            at: NodeId(tag),
            key: KeyId(0),
            client: ClientId(0),
        }
    }

    /// The node each envelope is for: its tag.
    fn tags(envs: &[Envelope]) -> Vec<u32> {
        let tag = |env: &Envelope| match env {
            Envelope::Peer { to: node, .. } | Envelope::Client { at: node, .. } => node.0,
            _ => unreachable!("the test queues only peers and clients"),
        };
        envs.iter().map(tag).collect()
    }

    #[test]
    fn a_round_takes_every_peer_and_one_control_quantum_in_order() {
        let inbox = Inbox::default();
        (0..100).for_each(|i| inbox.push_control(control(i)));
        inbox.deposit(&mut vec![peer(1000), peer(1001)]);
        inbox.deposit(&mut vec![peer(2000), peer(2001), peer(2002)]);

        let (mut peers, mut taken) = (Vec::new(), Vec::new());
        assert!(inbox.lock().take_round(&mut peers, &mut taken));
        assert_eq!(
            tags(&peers),
            [1000, 1001, 2000, 2001, 2002],
            "each batch whole"
        );
        assert_eq!(
            tags(&taken),
            (0..64).collect::<Vec<_>>(),
            "one quantum, in order"
        );

        peers.clear();
        taken.clear();
        let left = peers.capacity();
        assert!(inbox.lock().take_round(&mut peers, &mut taken));
        assert!(peers.is_empty(), "no batch arrived since the first take");
        assert_eq!(
            tags(&taken),
            (64..100).collect::<Vec<_>>(),
            "the rest, in order"
        );

        // The take left the worker's emptied vector behind: the next
        // deposit into the empty inbox hands that allocation to its sender.
        let mut next = vec![peer(1002)];
        inbox.deposit(&mut next);
        assert!(left >= 5 && next.is_empty());
        assert_eq!(next.capacity(), left, "a deposit into an empty inbox swaps");
    }
}
