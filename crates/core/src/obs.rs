//! Deterministic observability: integer histograms and event tracing.
//!
//! Every latency-flavored metric in the workspace used to be a sum, so
//! million-event runs could only report averages. This module provides
//! the two measurement substrates ROADMAP item 5 asks for, built so the
//! DES and the live runtime stay byte-identical:
//!
//! * [`Hist`] — an HDR-style **log-linear integer histogram**: u64
//!   counts over power-of-two buckets with linear sub-buckets, an exact
//!   [`Hist::merge`] and an integer [`Hist::quantile`]. There is **no
//!   floating point anywhere in the recording or read path**, so two
//!   runs that record the same multiset of values hold byte-identical
//!   state — whatever order the values arrived in. That
//!   order-independence is what lets M live workers record concurrently
//!   and still match the serial DES exactly.
//!   A `Hist` is a kilobyte in place, so there is one per plane
//!   (`NetMetrics`) or per live shard, never one per node: a node keeps
//!   plain counters.
//! * [`TraceBuf`] — a ring-buffered **structured event trace**
//!   ([`TraceEvent`]`{ t, node, kind, key, detail }`, virtual-clock
//!   timestamped) with canonical ordering, JSONL export, and
//!   [`trace_diff`], which pinpoints the first diverging event between
//!   two runs instead of a whole-struct mismatch. Tracing is off by
//!   default and costs one branch when disabled. The live runtime keeps
//!   one ring per shard and folds them with [`TraceBuf::merge`].

use cup_des::{KeyId, NodeId, SimTime};

/// Linear sub-bucket bits: each power-of-two range splits into
/// `2^SUB_BITS` equal sub-buckets, bounding the relative quantization
/// error at `1/2^SUB_BITS` (25%).
const SUB_BITS: u32 = 2;

/// Sub-buckets per power-of-two range.
const SUB: usize = 1 << SUB_BITS;

/// Total buckets. Values `0..4` are exact; the top bucket saturates at
/// ~1.5e10 (≈ 4.2 hours in µs) — far beyond any latency, staleness age,
/// or batch size the workloads record.
pub const HIST_BUCKETS: usize = 128;

/// An integer log-linear histogram (HDR-style, fixed footprint).
///
/// `Copy + Eq` on purpose: it embeds in the delivery kernel's
/// `NetMetrics`, which is copied and compared byte-exactly by the
/// conformance suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist {
    counts: [u64; HIST_BUCKETS],
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: [0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Bucket index of `v`: exact below `SUB`, then `SUB` linear
    /// sub-buckets per power-of-two range, clamped into the top bucket.
    fn index_of(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let h = 63 - v.leading_zeros();
        let sub = ((v >> (h - SUB_BITS)) as usize) & (SUB - 1);
        let idx = (h - SUB_BITS + 1) as usize * SUB + sub;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Lower bound of bucket `idx` (the value [`Hist::quantile`]
    /// reports).
    fn floor_of(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let g = (idx / SUB) as u32;
        let s = (idx % SUB) as u64;
        let h = g + SUB_BITS - 1;
        (1u64 << h) + (s << (h - SUB_BITS))
    }

    /// Records one value. Integer-only; saturates into the top bucket.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index_of(v)] += 1;
        self.total += 1;
    }

    /// Exact merge: bucket-wise addition. Associative and commutative,
    /// so per-worker histograms folded in any order equal the serial
    /// recording byte-for-byte.
    pub fn merge(&mut self, other: &Hist) {
        // No `..`: a field added and not folded here is error E0027.
        let Self { counts, total } = other;
        for (c, o) in self.counts.iter_mut().zip(counts) {
            *c += *o;
        }
        self.total += total;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `permille/1000` quantile, as the lower bound of the bucket
    /// where the cumulative count crosses the rank. `quantile(500)` is
    /// the median, `quantile(999)` is p99.9. Integer arithmetic only;
    /// returns 0 for an empty histogram. Monotone in `permille`.
    pub fn quantile(&self, permille: u32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = u128::from(permille.min(1000));
        // Rank of the quantile element, 1-based, rounded up.
        let rank = ((u128::from(self.total) * p).div_ceil(1000)).max(1);
        let mut cum: u128 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += u128::from(c);
            if cum >= rank {
                return Self::floor_of(i);
            }
        }
        Self::floor_of(HIST_BUCKETS - 1)
    }
}

/// What a [`TraceEvent`] records. Variants order the canonical sort, so
/// two runs that handled the same multiset of events export identical
/// JSONL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A client posted a query at a node (`detail` = client id).
    ClientQuery,
    /// A peer query message was handled (`detail` = sending node).
    Query,
    /// A first-time update was handled (`detail` = sending node).
    UpdateFirstTime,
    /// A refresh update was handled (`detail` = sending node).
    UpdateRefresh,
    /// A delete update was handled (`detail` = sending node).
    UpdateDelete,
    /// An append update was handled (`detail` = sending node).
    UpdateAppend,
    /// A clear-bit message was handled (`detail` = sending node).
    ClearBit,
    /// An audit probe was handled (`detail` = sending node).
    AuditProbe,
    /// An audit reply was handled (`detail` = sending node).
    AuditReply,
    /// A replica birth reached the authority (`detail` = replica id).
    ReplicaBirth,
    /// A replica refresh reached the authority (`detail` = replica id).
    ReplicaRefresh,
    /// A replica deletion reached the authority (`detail` = replica id).
    ReplicaDeletion,
    /// A client was answered (`detail` = number of entries returned).
    Respond,
    /// A node was woken for what it asked (`detail` = the reason: 0 a
    /// §2.8 capacity service, 1 the §3.6 release of `key`'s refresh
    /// batch).
    Wake,
}

impl TraceKind {
    /// Stable lower-case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::ClientQuery => "client-query",
            TraceKind::Query => "query",
            TraceKind::UpdateFirstTime => "update-first-time",
            TraceKind::UpdateRefresh => "update-refresh",
            TraceKind::UpdateDelete => "update-delete",
            TraceKind::UpdateAppend => "update-append",
            TraceKind::ClearBit => "clear-bit",
            TraceKind::AuditProbe => "audit-probe",
            TraceKind::AuditReply => "audit-reply",
            TraceKind::ReplicaBirth => "replica-birth",
            TraceKind::ReplicaRefresh => "replica-refresh",
            TraceKind::ReplicaDeletion => "replica-deletion",
            TraceKind::Respond => "respond",
            TraceKind::Wake => "wake",
        }
    }
}

/// One structured, virtual-clock-timestamped protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Logical time the event was handled.
    pub t: SimTime,
    /// Node the event happened at (the receiver/handler).
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
    /// The key involved.
    pub key: KeyId,
    /// Kind-specific payload (sender, client, replica, or entry count).
    pub detail: u64,
}

impl TraceEvent {
    /// The event as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t\": {}, \"node\": {}, \"kind\": \"{}\", \"key\": {}, \"detail\": {}}}",
            self.t.as_micros(),
            self.node.0,
            self.kind.name(),
            self.key.index(),
            self.detail
        )
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// When full, the oldest event is overwritten and `dropped` counts the
/// loss — a long run with a small buffer keeps its tail. Two runs are
/// only meaningfully diffable while neither dropped.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    events: Vec<TraceEvent>,
    cap: usize,
    /// Ring cursor: index of the oldest event once the buffer wrapped.
    next: usize,
    dropped: u64,
}

impl TraceBuf {
    /// An empty buffer keeping at most `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        TraceBuf {
            events: Vec::new(),
            cap: cap.max(1),
            next: 0,
            dropped: 0,
        }
    }

    /// Records one event, overwriting the oldest when full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Folds `other` in: the result keeps every event either ring kept,
    /// counts what either dropped, and has room for both. Merging the
    /// per-shard rings of a live run this way gives the trace one ring
    /// would have kept had neither ring wrapped.
    pub fn merge(&mut self, other: &TraceBuf) {
        // Both rings oldest first, so the result is a ring again.
        self.events.rotate_left(self.next);
        self.next = 0;
        let (newer, older) = other.events.split_at(other.next);
        self.events.extend_from_slice(older);
        self.events.extend_from_slice(newer);
        self.cap += other.cap;
        self.dropped += other.dropped;
    }

    /// The retained events in canonical order: sorted by
    /// `(t, node, kind, key, detail)`. Two runs that handled the same
    /// multiset of events — however their workers interleaved — export
    /// the same sequence, which is what makes [`trace_diff`] exact.
    pub fn sorted(&self) -> Vec<TraceEvent> {
        let mut evs = self.events.clone();
        evs.sort_unstable();
        evs
    }

    /// The whole buffer as JSONL, in canonical order.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.sorted() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

/// The first point where two traces disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Index into the canonical order where the traces differ.
    pub index: usize,
    /// The left trace's event at that index (`None` = left ended).
    pub left: Option<TraceEvent>,
    /// The right trace's event at that index (`None` = right ended).
    pub right: Option<TraceEvent>,
}

/// Compares two traces in canonical order and reports the first
/// diverging event, or `None` when the traces are identical. This is
/// the debugging primitive the conformance matrix lacked: instead of a
/// whole-`Outcome` mismatch, the answer to "where did the live run leave
/// the simulation" is one event.
pub fn trace_diff(a: &TraceBuf, b: &TraceBuf) -> Option<TraceDivergence> {
    let (left, right) = (a.sorted(), b.sorted());
    let n = left.len().max(right.len());
    for i in 0..n {
        let (l, r) = (left.get(i).copied(), right.get(i).copied());
        if l != r {
            return Some(TraceDivergence {
                index: i,
                left: l,
                right: r,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..8u64 {
            h.record(v);
        }
        // 0..8 land in distinct buckets (exact then pairwise-exact).
        assert_eq!(h.count(), 8);
        for p in [1, 500, 999] {
            assert!(h.quantile(p) < 8);
        }
        assert_eq!(h.quantile(1), 0);
        assert_eq!(h.quantile(1000), 7);
    }

    #[test]
    fn index_and_floor_are_consistent() {
        for v in [0u64, 1, 3, 4, 7, 8, 15, 100, 1000, 1 << 20, u64::MAX] {
            let idx = Hist::index_of(v);
            assert!(idx < HIST_BUCKETS);
            let floor = Hist::floor_of(idx);
            assert!(floor <= v, "floor {floor} must not exceed value {v}");
            if idx + 1 < HIST_BUCKETS {
                assert!(Hist::floor_of(idx + 1) > v, "value {v} below next bucket");
            }
        }
        // Bucket floors are strictly increasing.
        for i in 1..HIST_BUCKETS {
            assert!(Hist::floor_of(i) > Hist::floor_of(i - 1));
        }
    }

    #[test]
    fn huge_values_saturate_into_the_top_bucket() {
        let mut h = Hist::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1000), Hist::floor_of(HIST_BUCKETS - 1));
    }

    #[test]
    fn merge_equals_serial_recording() {
        let (mut a, mut b, mut serial) = (Hist::new(), Hist::new(), Hist::new());
        for v in [0u64, 5, 5, 17, 40_000, 1_000_000] {
            serial.record(v);
        }
        for v in [0u64, 5, 40_000] {
            a.record(v);
        }
        for v in [5u64, 17, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = Hist::new();
        for v in [1u64, 2, 3, 10, 100, 1000, 100_000] {
            h.record(v);
        }
        let mut last = 0;
        for p in 0..=1000 {
            let q = h.quantile(p);
            assert!(q >= last, "quantile must be monotone in p");
            last = q;
        }
        assert!(h.quantile(1000) <= 100_000);
    }

    fn ev(t: u64, node: u32, kind: TraceKind, key: u32, detail: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(t),
            node: NodeId(node),
            kind,
            key: KeyId(key),
            detail,
        }
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let mut buf = TraceBuf::new(2);
        for i in 0..5 {
            buf.record(ev(i, 0, TraceKind::Query, 0, 0));
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        let tail: Vec<u64> = buf.sorted().iter().map(|e| e.t.as_micros()).collect();
        assert_eq!(tail, vec![3, 4]);
    }

    #[test]
    fn merge_keeps_the_union_and_sums_the_drops() {
        let (mut a, mut b) = (TraceBuf::new(2), TraceBuf::new(3));
        for t in 0..5 {
            a.record(ev(t, 0, TraceKind::Query, 0, 0));
        }
        for t in [9, 1, 7, 8] {
            b.record(ev(t, 1, TraceKind::Respond, 0, 0));
        }
        let mut merged = TraceBuf::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.len(), a.len() + b.len());
        assert_eq!(merged.dropped(), 3 + 1);
        let mut union = [a.sorted(), b.sorted()].concat();
        union.sort_unstable();
        assert_eq!(merged.sorted(), union);
        let times =
            |buf: &TraceBuf| -> Vec<u64> { buf.sorted().iter().map(|e| e.t.as_micros()).collect() };
        assert_eq!(times(&merged), [1, 3, 4, 7, 8], "each ring's tail");
        // Room for both and no more: one event more evicts the oldest
        // event of the first ring.
        merged.record(ev(10, 0, TraceKind::Query, 0, 0));
        assert_eq!((merged.len(), merged.dropped()), (5, 5));
        assert_eq!(times(&merged), [1, 4, 7, 8, 10]);
    }

    #[test]
    fn export_is_canonically_ordered_jsonl() {
        let mut buf = TraceBuf::new(8);
        buf.record(ev(20, 1, TraceKind::Respond, 2, 1));
        buf.record(ev(10, 9, TraceKind::ClientQuery, 2, 0));
        let jsonl = buf.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"client-query\""));
        assert!(lines[1].contains("\"kind\": \"respond\""));
        assert!(lines[0].contains("\"t\": 10"));
    }

    #[test]
    fn trace_diff_pinpoints_the_first_divergence() {
        let mut a = TraceBuf::new(8);
        let mut b = TraceBuf::new(8);
        for t in [1, 2, 3] {
            a.record(ev(t, 0, TraceKind::Query, 1, 7));
            b.record(ev(t, 0, TraceKind::Query, 1, 7));
        }
        assert_eq!(trace_diff(&a, &b), None);
        // Recording order must not matter: same multiset, shuffled.
        let mut c = TraceBuf::new(8);
        for t in [3, 1, 2] {
            c.record(ev(t, 0, TraceKind::Query, 1, 7));
        }
        assert_eq!(trace_diff(&a, &c), None);
        b.record(ev(4, 5, TraceKind::ClearBit, 1, 0));
        let d = trace_diff(&a, &b).expect("must diverge");
        assert_eq!(d.index, 3);
        assert_eq!(d.left, None);
        assert_eq!(d.right.map(|e| e.kind), Some(TraceKind::ClearBit));
    }
}
