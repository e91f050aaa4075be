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
//! dispatch and flushes whole batches into per-(sender, receiver)
//! swap-buffer slots at loop boundaries, so queue locking and the
//! atomic in-flight counter are paid once per batch, not once per
//! envelope. Control traffic from the runtime handle (client queries,
//! replica events and deaths) goes through a small per-shard inbox queue
//! next to the slots.
//!
//! The in-flight counter still brackets every envelope from enqueue to
//! fully-dispatched — one `fetch_add(batch_len)` when a batch is
//! deposited, one `fetch_sub(consumed)` after the receiver dispatched a
//! round — which keeps the [`Shared::wait_quiescent`] barrier exact:
//! zero means every slot and inbox is drained *and* no worker is
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{self, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use cup_core::clock::Clock;
use cup_core::obs::Hist;
use cup_core::{ClientId, CupNode, IndexEntry, Message, NodeConfig, ReplicaEvent};
use cup_des::{KeyId, NodeId, ReplicaId, SimTime};
use cup_faults::{Env, NodeArena, Plane, RoutingFailed};
use cup_overlay::{AnyOverlay, Overlay};

use crate::shard_map::ShardMap;

/// What a shard's inbox (or a transfer slot) can carry.
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
}

/// Path nodes one [`Envelope::JustifyMark`] carries: as many as fit
/// beside the key and the time without growing the envelope.
const MARK_NODES: usize = 8;

// A mark must not grow the envelope every message travels in.
const _: () = assert!(std::mem::size_of::<Envelope>() == 72);

/// A shard's control inbox: the queue the runtime handle posts into
/// (client queries, replica events and deaths), plus the
/// flags that park and wake the worker. Batched peer traffic does *not*
/// travel through here — it sits in [`TransferSlot`]s and only raises
/// `dirty`.
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

#[derive(Default)]
struct InboxState {
    /// Handle-posted control envelopes, FIFO.
    control: VecDeque<Envelope>,
    /// Some sender deposited a batch into one of this shard's transfer
    /// slots since the worker last scanned them. Set under this mutex
    /// *after* the deposit and cleared before the scan, so a deposit
    /// racing the scan re-arms the flag and the worker rescans instead
    /// of parking on unseen work (no missed wakeups).
    dirty: bool,
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
    fn new() -> Inbox {
        Inbox {
            state: Mutex::new(InboxState::default()),
            cv: Condvar::new(),
        }
    }

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

    fn signal_dirty(&self) {
        let mut st = self.lock();
        st.dirty = true;
        if st.parked {
            self.cv.notify_one();
        }
    }

    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }
}

/// One (sender shard → receiver shard) swap-buffer batch queue. The
/// sender deposits a whole `Vec` of envelopes per flush (a swap when the
/// slot is empty, an append when the receiver is behind); the receiver
/// swaps the slot out against an empty scratch vector. The two sides
/// ping-pong the same allocations, so steady-state transfer allocates
/// nothing.
struct TransferSlot {
    buf: Mutex<Vec<Envelope>>,
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
pub(crate) struct Clients {
    registry: Mutex<ClientRegistry>,
    /// Signalled when an answer lands while some thread is blocked.
    answered: Condvar,
}

impl Clients {
    fn new() -> Clients {
        Clients {
            registry: Mutex::new(ClientRegistry::default()),
            answered: Condvar::new(),
        }
    }

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
    /// Per-shard control inboxes, indexed by shard.
    pub(crate) inboxes: Vec<Inbox>,
    /// The (sender, receiver) transfer slots, row-major by sender:
    /// `slots[sender * shards + receiver]`.
    slots: Vec<TransferSlot>,
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
    /// batch of them) enters an inbox or transfer slot, decremented
    /// after the receiving worker fully dispatched it — including its
    /// inline intra-shard cascade *and* the flush of any cross-shard
    /// children it produced (flush-before-decrement).
    pending: atomic::AtomicU64,
    /// The shard whose worker unwound mid-dispatch first, or
    /// [`NO_PANIC`]; `wait_quiescent` turns it into a panic naming that
    /// shard instead of waiting forever on an in-flight counter that
    /// will never reach zero.
    panicked: AtomicUsize,
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
                })
            })
            .collect();
        Shared {
            inboxes: (0..shards).map(|_| Inbox::new()).collect(),
            slots: (0..shards * shards)
                .map(|_| TransferSlot {
                    buf: Mutex::new(Vec::new()),
                })
                .collect(),
            map,
            overlay,
            clients: (0..shards).map(|_| Clients::new()).collect(),
            locals,
            clock,
            pending: atomic::AtomicU64::new(0),
            panicked: AtomicUsize::new(NO_PANIC),
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

    /// The (sender → receiver) transfer slot's buffer.
    fn slot(&self, sender: usize, receiver: usize) -> &Mutex<Vec<Envelope>> {
        &self.slots[sender * self.map.shards() + receiver].buf
    }

    /// Deposits a whole outbound batch into the (sender → receiver)
    /// transfer slot and wakes the receiver. The in-flight counter is
    /// bumped by the full batch length *before* the deposit — one
    /// amortized `fetch_add` per flush — so the barrier can never
    /// observe a deposited envelope it has not counted. `buf` comes
    /// back empty but with capacity (the slot's previous vector when the
    /// swap path was taken).
    fn deposit(&self, sender: usize, receiver: usize, buf: &mut Vec<Envelope>) {
        self.pending.fetch_add(buf.len() as u64, Ordering::SeqCst);
        {
            let mut slot = self
                .slot(sender, receiver)
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if slot.is_empty() {
                std::mem::swap(&mut *slot, buf);
            } else {
                slot.append(buf);
            }
        }
        self.inboxes[receiver].signal_dirty();
    }

    /// Collects whatever the (sender → receiver) slot holds into `buf`
    /// (expected empty), leaving the slot's allocation behind for the
    /// sender to refill.
    fn collect(&self, sender: usize, receiver: usize, buf: &mut Vec<Envelope>) {
        let mut slot = self
            .slot(sender, receiver)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::mem::swap(&mut *slot, buf);
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

    /// `shard`'s waiting clients.
    pub(crate) fn clients_of(&self, shard: usize) -> &Clients {
        &self.clients[shard]
    }
}

/// One worker thread's state: its shard's transport plus reusable
/// buffers (the shard's nodes are in its [`ShardLocal`]'s plane).
struct Worker {
    shard: usize,
    shared: Arc<Shared>,
    /// Intra-shard messages handled inline, FIFO (to, from, msg).
    local: VecDeque<(NodeId, NodeId, Message)>,
    /// Control envelopes swapped out of the inbox for this round.
    control: VecDeque<Envelope>,
    /// Scratch vector batches are collected into (ping-pongs allocations
    /// with the transfer slots).
    incoming: Vec<Envelope>,
    /// Per-destination outbound buffers, flushed at loop boundaries.
    outbox: Vec<Outbound>,
    /// Scratch a posted query's virtual path is routed into.
    path: Vec<NodeId>,
    /// Per-shard scratch that path is split into.
    path_split: Vec<Vec<NodeId>>,
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

/// Control envelopes a worker dispatches per round before it re-scans
/// its transfer slots and flushes — the dispatch quantum. Bounding the
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

/// The worker thread body: rounds of (park until work → take the shard's
/// [`ShardLocal`] → pull in control envelopes and batch slots → dispatch
/// incoming, then one control quantum → flush outbound batches →
/// release the `ShardLocal` → retire the consumed count) until shutdown.
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
        control: VecDeque::new(),
        incoming: Vec::new(),
        outbox: (0..shards).map(|_| Outbound::default()).collect(),
        path: Vec::new(),
        path_split: (0..shards).map(|_| Vec::new()).collect(),
    };
    loop {
        let stop = {
            let inbox = &shared.inboxes[shard];
            let mut st = inbox.lock();
            loop {
                if !st.control.is_empty() || st.dirty {
                    // Fresh control queues behind any quantum remainder
                    // from the last round, preserving FIFO order.
                    worker.control.append(&mut st.control);
                    st.dirty = false;
                    break false;
                }
                if !worker.control.is_empty() {
                    // A quantum remainder is still in hand: keep
                    // working, never park on unconsumed envelopes.
                    break false;
                }
                if st.shutdown {
                    break true;
                }
                // Flush-before-park already happened (end of the last
                // round), so waiting here cannot strand a partial batch.
                st.parked = true;
                st = inbox.cv.wait(st).unwrap_or_else(|e| e.into_inner());
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
        // Flush-before-decrement: cross-shard children enter the
        // in-flight count before their parents retire, so the barrier
        // can never observe zero while this round's output is in hand.
        worker.flush(&mut state);
        drop(state);
        shared.finish_n(consumed);
    }
    drop(guard);
}

impl Worker {
    /// Dispatches one round's work: every sender's transfer slot first
    /// — peer traffic carries the protocol's feedback (clear-bits,
    /// query answers), so it is applied before new control work is
    /// started — then at most [`CONTROL_QUANTUM`] control envelopes;
    /// any remainder stays in hand for the next round. Returns the
    /// number of in-flight envelopes consumed.
    fn drain_round(&mut self, state: &mut ShardLocal) -> u64 {
        let mut consumed = 0u64;
        let shards = self.outbox.len();
        for sender in 0..shards {
            if sender == self.shard {
                continue;
            }
            let mut batch = std::mem::take(&mut self.incoming);
            self.shared.collect(sender, self.shard, &mut batch);
            for env in batch.drain(..) {
                self.dispatch(state, env);
                consumed += 1;
            }
            self.incoming = batch;
        }
        for _ in 0..CONTROL_QUANTUM {
            let Some(env) = self.control.pop_front() else {
                break;
            };
            self.dispatch(state, env);
            consumed += 1;
        }
        consumed
    }

    /// Flushes the round's accumulated output: the per-destination
    /// outbound batches into their transfer slots. Runs before
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
            self.shared.deposit(self.shard, dest, &mut out.buf);
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
        }
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
}
