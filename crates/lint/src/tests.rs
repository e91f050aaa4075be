//! Unit tests: the lexer's code/prose split and each rule against
//! minimal positive/negative fixtures.

use crate::engine::{self, Rule, Workspace};
use crate::lexer;
use crate::parity::{ConformanceParity, ParityCheck};
use crate::rules::{PanicPath, RelaxedAtomic, UnorderedIteration, DELIVERY_GATE, WALL_CLOCK};

fn run_rule(rule: &dyn Rule, sources: &[(&str, &str)]) -> engine::Report {
    let ws = Workspace::from_sources(sources);
    engine::run(&ws, &[rule])
}

// ---------------------------------------------------------------- lexer

#[test]
fn mask_blanks_line_comments_but_keeps_code() {
    let m = lexer::mask("let x = 1; // Instant::now() here\nlet y = 2;");
    assert!(m.contains("let x = 1;"));
    assert!(m.contains("let y = 2;"));
    assert!(!m.contains("Instant::now"));
    assert_eq!(
        m.len(),
        "let x = 1; // Instant::now() here\nlet y = 2;".len()
    );
}

#[test]
fn mask_blanks_nested_block_comments() {
    let m = lexer::mask("a /* outer /* inner SystemTime */ still out */ b");
    assert!(m.contains('a') && m.contains('b'));
    assert!(!m.contains("SystemTime"));
    assert!(!m.contains("still out"));
}

#[test]
fn mask_blanks_strings_and_escapes() {
    let m = lexer::mask(r#"panic!("thread::sleep \" quoted"); x"#);
    assert!(!m.contains("thread::sleep"));
    assert!(m.contains("panic!("));
    assert!(m.contains("; x"));
}

#[test]
fn mask_blanks_raw_and_byte_strings() {
    let m = lexer::mask(r###"let s = r#"SystemTime " inside"#; let b = b"thread::sleep";"###);
    assert!(!m.contains("SystemTime"));
    assert!(!m.contains("thread::sleep"));
    assert!(m.contains("let s ="));
    assert!(m.contains("let b ="));
}

#[test]
fn mask_distinguishes_chars_from_lifetimes() {
    let m = lexer::mask("fn f<'a>(x: &'a str) { let c = 'y'; let n = '\\n'; }");
    // Lifetimes survive (they are code)…
    assert!(m.contains("<'a>"));
    assert!(m.contains("&'a str"));
    // …char literal contents do not.
    assert!(!m.contains('y'));
    assert!(!m.contains("\\n"));
}

#[test]
fn mask_preserves_line_structure() {
    let src = "line one // comment\n/* multi\nline */ code\n\"str\ning\" tail\n";
    let m = lexer::mask(src);
    assert_eq!(m.lines().count(), src.lines().count());
    assert!(m.lines().nth(2).unwrap().contains("code"));
    assert!(m.lines().nth(4).unwrap().contains("tail"));
}

#[test]
fn pragmas_parse_rule_and_reason() {
    let src = "\
x(); // cup-lint: allow(wall-clock, \"bench timing is the point\")
y(); // cup-lint: allow(panic-path)
";
    let ps = lexer::pragmas(src);
    assert_eq!(ps.len(), 2);
    assert_eq!(ps[0].line, 1);
    assert_eq!(ps[0].rule, "wall-clock");
    assert_eq!(ps[0].reason.as_deref(), Some("bench timing is the point"));
    assert_eq!(ps[1].rule, "panic-path");
    assert_eq!(ps[1].reason, None);
}

#[test]
fn cfg_test_bodies_are_blanked() {
    let src = "\
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
";
    let m = lexer::mask_cfg_test(&lexer::mask(src));
    assert!(m.contains("x.unwrap()"));
    assert!(!m.contains("y.unwrap()"));
    assert_eq!(m.lines().count(), src.lines().count());
}

// --------------------------------------------------------------- engine

#[test]
fn pragma_on_same_line_or_line_above_allows_a_finding() {
    let src = "\
use std::time::Instant;
// cup-lint: allow(wall-clock, \"fixture: pragma above\")
let a = Instant::now();
let b = Instant::now(); // cup-lint: allow(wall-clock, \"fixture: same line\")
let c = Instant::now();
";
    let report = run_rule(&WALL_CLOCK, &[("crates/core/src/x.rs", src)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1, "only the unpragma'd site stays denied");
    assert_eq!(denied[0].line, 5);
    assert_eq!(report.allowed().count(), 2);
}

#[test]
fn pragma_without_reason_is_itself_denied() {
    let src = "let a = Instant::now(); // cup-lint: allow(wall-clock)\n";
    let report = run_rule(&WALL_CLOCK, &[("crates/core/src/x.rs", src)]);
    let rules: Vec<_> = report.denied().map(|f| f.rule).collect();
    // The wall-clock finding stays denied (no reason → no suppression)
    // and the naked pragma is reported too.
    assert!(rules.contains(&"wall-clock"));
    assert!(rules.contains(&"pragma"));
}

#[test]
fn report_serializes_to_json() {
    let src = "let a = Instant::now();\n";
    let report = run_rule(&WALL_CLOCK, &[("crates/core/src/x.rs", src)]);
    let json = report.to_json();
    assert!(json.contains("\"rule\": \"wall-clock\""));
    assert!(json.contains("\"path\": \"crates/core/src/x.rs\""));
    assert!(json.contains("\"denied\": 1"));
}

// ----------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_in_code_not_prose() {
    let report = run_rule(
        &WALL_CLOCK,
        &[(
            "crates/runtime/src/x.rs",
            "// thread::sleep is banned\nlet s = \"SystemTime\";\nthread::sleep(d);\n",
        )],
    );
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert_eq!(denied[0].line, 3);
}

#[test]
fn wall_clock_exempts_the_designated_module_and_other_crates() {
    let report = run_rule(
        &WALL_CLOCK,
        &[
            ("crates/core/src/clock.rs", "let t = Instant::now();\n"),
            ("crates/bench/src/lib.rs", "let t = Instant::now();\n"),
        ],
    );
    assert_eq!(report.denied().count(), 0);
}

// -------------------------------------------------------- delivery-gate

#[test]
fn a_gate_called_from_a_runtime_fires_but_the_kernel_and_prose_do_not() {
    let (shard, network) = (
        "crates/runtime/src/shard.rs",
        "crates/simnet/src/network.rs",
    );
    let planted = "// behavior_send( belongs to the kernel\n\
                   if f.behavior_send(from, &mut msg) && f.roll(from, to) == Deliver {}\n";
    let report = run_rule(
        &DELIVERY_GATE,
        &[
            (shard, planted),
            (network, "if f.is_crashed(to) {}\n"),
            ("crates/faults/src/deliver.rs", planted),
            (
                "crates/core/src/justify.rs",
                "t.on_update_delivered(n, k);\n",
            ),
        ],
    );
    let denied: Vec<_> = report.denied().map(|f| (f.path.as_str(), f.line)).collect();
    // Both gates on the planted line and the crashed check; not the
    // comment, not the kernel, not a crate out of scope.
    assert_eq!(denied, [(shard, 2), (shard, 2), (network, 1)]);
}

// -------------------------------------------------- unordered-iteration

#[test]
fn iteration_over_hash_field_fires() {
    let src = "\
struct S { entries: HashMap<K, V> }
impl S {
    fn f(&mut self) { self.entries.retain(|_, v| v.keep()); }
    fn g(&self) { for (k, v) in &self.entries {} }
}
";
    let report = run_rule(&UnorderedIteration, &[("crates/core/src/d.rs", src)]);
    let lines: Vec<usize> = report.denied().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 4]);
}

#[test]
fn iteration_over_hash_let_binding_fires() {
    let src = "\
fn f() {
    let mut seen = HashSet::new();
    for x in &seen {}
}
";
    let report = run_rule(&UnorderedIteration, &[("crates/simnet/src/n.rs", src)]);
    assert_eq!(report.denied().count(), 1);
}

#[test]
fn lookups_and_btree_iteration_do_not_fire() {
    let src = "\
struct S { entries: BTreeMap<K, V>, index: HashMap<K, V> }
impl S {
    fn f(&self) -> Option<&V> { self.index.get(&k) }
    fn g(&mut self) { self.entries.retain(|_, v| v.keep()); }
    fn h(&self) { for (k, v) in &self.entries {} }
}
";
    let report = run_rule(&UnorderedIteration, &[("crates/core/src/d.rs", src)]);
    assert_eq!(report.denied().count(), 0);
}

#[test]
fn the_trackers_hashed_table_is_policed_walk_by_walk() {
    // `JustificationTracker.slots` is hash-ordered on purpose. Its
    // order-free walks carry reasoned pragmas; the type's extra
    // parameters (a tuple key, a custom hasher) must not hide the field
    // from the rule, and a walk whose result *would* depend on order —
    // reporting the first open slot, say — still fires.
    let src = "\
pub struct JustificationTracker {
    slots: HashMap<(NodeId, KeyId), InlineVec<Window, 2>, BuildHasherDefault<PairHasher>>,
    prune_at: usize,
}
impl JustificationTracker {
    pub fn prune_settled(&mut self, now: SimTime) {
        // cup-lint: allow(unordered-iteration, \"a retain whose predicate reads one slot\")
        self.slots.retain(|_, windows| !windows.is_empty());
    }
    pub fn open_windows(&self) -> usize {
        // cup-lint: allow(unordered-iteration, \"a sum is the same in any order\")
        self.slots.values().map(|w| w.len()).sum()
    }
    pub fn first_open(&self) -> Option<NodeId> {
        self.slots.keys().next().map(|&(node, _)| node)
    }
    pub fn dump(&self, out: &mut Vec<NodeId>) {
        for (&(node, _), _) in &self.slots { out.push(node); }
    }
    pub fn probe(&mut self, slot: (NodeId, KeyId)) -> bool { self.slots.contains_key(&slot) }
}
";
    let report = run_rule(&UnorderedIteration, &[("crates/core/src/justify.rs", src)]);
    let denied: Vec<usize> = report.denied().map(|f| f.line).collect();
    assert_eq!(denied, vec![15, 18], "the two order-dependent walks");
    assert_eq!(report.allowed().count(), 2, "the retain and the sum");
}

#[test]
fn iteration_rule_ignores_out_of_scope_crates() {
    let src = "struct S { m: HashMap<K, V> }\nfn f(s: &S) { for x in &s.m {} }\n";
    let report = run_rule(&UnorderedIteration, &[("crates/workload/src/w.rs", src)]);
    assert_eq!(report.denied().count(), 0);
}

// ------------------------------------------------------- relaxed-atomic

#[test]
fn relaxed_on_monotone_counter_is_fine() {
    let src = "fn f(s: &S) { s.next_client.fetch_add(1, Ordering::Relaxed); }\n";
    let report = run_rule(&RelaxedAtomic, &[("crates/runtime/src/s.rs", src)]);
    assert_eq!(report.denied().count(), 0);
}

#[test]
fn relaxed_on_a_former_counter_fires() {
    // Hop, stale-answer, routing-failure and batch-plane counts moved
    // into the shard-local state as plain integers; an atomic by one of
    // those names coming back must argue its ordering again, not inherit
    // an allowlist entry.
    let names = [
        "hops",
        "routing_failures",
        "cross_shard",
        "batch_flushes",
        "batched_envelopes",
    ];
    for name in names {
        let src = format!("fn f(s: &S) {{ s.{name}.fetch_add(1, Ordering::Relaxed); }}\n");
        let report = run_rule(&RelaxedAtomic, &[("crates/runtime/src/s.rs", &src)]);
        let denied: Vec<_> = report.denied().collect();
        assert_eq!(denied.len(), 1, "{name}");
        assert!(denied[0].message.contains(name));
    }
}

#[test]
fn relaxed_on_a_flag_fires_even_across_line_wraps() {
    let src = "\
fn f(s: &S) -> bool {
    s.faults_on
        .load(Ordering::Relaxed)
}
";
    let report = run_rule(&RelaxedAtomic, &[("crates/runtime/src/s.rs", src)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].message.contains("faults_on"));
    assert_eq!(denied[0].line, 3, "reported at the Ordering::Relaxed token");
}

#[test]
fn relaxed_batch_counters_pass_but_a_relaxed_flush_flag_fires() {
    // An id counter is monotone — Relaxed is the point — but the batch
    // plane's dirty/flush *flags* gate worker wakeups and must carry
    // ordering.
    let src = "\
fn f(s: &S) {
    s.next_client.fetch_add(1, Ordering::Relaxed);
    s.next_client.fetch_add(n as u64, Ordering::Relaxed);
    s.flush_dirty.store(true, Ordering::Relaxed);
}
";
    let report = run_rule(&RelaxedAtomic, &[("crates/runtime/src/s.rs", src)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1, "only the flag store may fire");
    assert!(denied[0].message.contains("flush_dirty"));
}

#[test]
fn acquire_and_out_of_scope_relaxed_do_not_fire() {
    let report = run_rule(
        &RelaxedAtomic,
        &[
            (
                "crates/runtime/src/a.rs",
                "s.flag.load(Ordering::Acquire);\n",
            ),
            ("crates/core/src/b.rs", "s.flag.load(Ordering::Relaxed);\n"),
        ],
    );
    assert_eq!(report.denied().count(), 0);
}

// ----------------------------------------------------------- panic-path

#[test]
fn unwrap_on_live_path_fires_but_tests_and_recovery_do_not() {
    let src = "\
fn live(m: &Mutex<u32>) {
    let a = m.lock().unwrap();
    let b = m.lock().unwrap_or_else(|e| e.into_inner());
}
#[cfg(test)]
mod tests {
    fn t(m: &Mutex<u32>) { m.lock().unwrap(); }
}
";
    let report = run_rule(&PanicPath, &[("crates/runtime/src/s.rs", src)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert_eq!(denied[0].line, 2);
}

#[test]
fn expect_fires_and_pragma_with_reason_suppresses() {
    let src = "\
fn start() {
    // cup-lint: allow(panic-path, \"before workers exist, panicking is the report\")
    spawn().expect(\"worker thread must spawn\");
    join().expect(\"joined\");
}
";
    let report = run_rule(&PanicPath, &[("crates/runtime/src/n.rs", src)]);
    assert_eq!(report.denied().count(), 1);
    assert_eq!(report.allowed().count(), 1);
}

#[test]
fn expect_in_a_node_handler_fires_but_not_elsewhere_in_core() {
    // The handlers find a key's record once and thread it through; a
    // second lookup that "cannot fail" is how the per-message expects
    // this scope was extended to forbid came about.
    let src = "\
fn forward(&mut self, key: KeyId) {
    let st = self.keys.get(key).expect(\"forwarding requires key state\");
}
";
    let report = run_rule(
        &PanicPath,
        &[
            ("crates/core/src/node.rs", src),
            ("crates/core/src/directory.rs", src),
        ],
    );
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1, "only the handler file is in scope");
    assert_eq!(denied[0].path, "crates/core/src/node.rs");
    assert_eq!(denied[0].line, 2);
}

#[test]
fn unwrap_in_the_key_table_fires() {
    // Every message's handler starts with a key-table lookup, so the
    // table and the record it returns are on the per-message path too.
    let src = "\
fn get_or_default(&mut self, key: KeyId) -> &mut KeyState {
    let slot = self.find(key).unwrap();
}
";
    let report = run_rule(
        &PanicPath,
        &[
            ("crates/core/src/keytable.rs", src),
            ("crates/core/src/keystate.rs", src),
            ("crates/core/src/directory.rs", src),
        ],
    );
    let mut denied: Vec<_> = report.denied().map(|f| (f.path.as_str(), f.line)).collect();
    denied.sort();
    assert_eq!(
        denied,
        vec![
            ("crates/core/src/keystate.rs", 2),
            ("crates/core/src/keytable.rs", 2)
        ]
    );
}

#[test]
fn unwrap_in_the_des_event_queue_fires() {
    // Every simulated event is scheduled and popped through the queue,
    // and a panic there loses the whole experiment.
    let src = "\
fn pop(&mut self) -> Option<(SimTime, E)> {
    let s = self.head.pop_front().unwrap();
}
";
    let report = run_rule(
        &PanicPath,
        &[
            ("crates/sim/src/event.rs", src),
            ("crates/sim/src/engine.rs", src),
            ("crates/sim/src/rng.rs", src),
        ],
    );
    let mut denied: Vec<_> = report.denied().map(|f| (f.path.as_str(), f.line)).collect();
    denied.sort();
    assert_eq!(
        denied,
        vec![
            ("crates/sim/src/engine.rs", 2),
            ("crates/sim/src/event.rs", 2)
        ]
    );
}

// --------------------------------------------------- conformance-parity

const STATS_FIXTURE: &str = "\
pub struct NodeStats {
    pub client_queries: u64,
    pub updates_received: u64,
}
impl NodeStats {
    pub fn merge(&mut self, other: &NodeStats) {
        self.client_queries += other.client_queries;
    }
}
";

#[test]
fn field_missing_from_merge_fires() {
    let rule = ConformanceParity {
        checks: vec![ParityCheck::MergedInto {
            struct_file: "crates/core/src/stats.rs".into(),
            struct_name: "NodeStats".into(),
            fn_name: "merge".into(),
        }],
    };
    let report = run_rule(&rule, &[("crates/core/src/stats.rs", STATS_FIXTURE)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].message.contains("updates_received"));
    assert_eq!(denied[0].line, 3, "reported at the field's declaration");
}

#[test]
fn lazy_hist_field_missing_from_merge_fires() {
    // The per-node histograms are `LazyHist`s now; the catalog reads
    // field names, not types, so a merge that folds one distribution and
    // forgets the other is still caught — and a mention outside `merge`
    // does not count.
    let src = "\
pub struct NodeStats {
    pub pfu_retries: u64,
    pub pfu_retry_age: LazyHist,
    pub audit_rtt: LazyHist,
}
impl NodeStats {
    pub fn audits_seen(&self) -> u64 { self.audit_rtt.count() }
    pub fn merge(&mut self, other: &NodeStats) {
        self.pfu_retries += other.pfu_retries;
        self.pfu_retry_age.merge(&other.pfu_retry_age);
    }
}
";
    let rule = ConformanceParity {
        checks: vec![ParityCheck::MergedInto {
            struct_file: "crates/core/src/stats.rs".into(),
            struct_name: "NodeStats".into(),
            fn_name: "merge".into(),
        }],
    };
    let report = run_rule(&rule, &[("crates/core/src/stats.rs", src)]);
    let denied: Vec<_> = report.denied().map(|f| (f.line, &f.message)).collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].0 == 4 && denied[0].1.contains("audit_rtt"));
}

#[test]
fn hist_field_missing_from_merge_fires() {
    // A histogram whose `merge` folds the bucket array but forgets the
    // running total: parallel sweep aggregation would silently return
    // quantiles over a miscounted population.
    let src = "\
pub struct Hist {
    counts: [u64; HIST_BUCKETS],
    total: u64,
}
impl Hist {
    pub fn merge(&mut self, other: &Hist) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += *o;
        }
    }
}
";
    let rule = ConformanceParity {
        checks: vec![ParityCheck::MergedInto {
            struct_file: "crates/core/src/obs.rs".into(),
            struct_name: "Hist".into(),
            fn_name: "merge".into(),
        }],
    };
    let report = run_rule(&rule, &[("crates/core/src/obs.rs", src)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].message.contains("total"));
    assert_eq!(denied[0].line, 3, "reported at the field's declaration");
}

#[test]
fn fault_counter_missing_from_merge_fires() {
    // The live runtime reads the fault plane by folding one replica per
    // shard: a counter the fold forgets reads zero live while the DES
    // still counts it. `merged_counters` sits next to `merge` and must
    // not be mistaken for it.
    let src = "\
pub struct FaultCounters {
    pub dropped_loss: u64,
    pub crashes: u64,
    pub byz_refresh_lies: u64,
}
impl FaultCounters {
    pub fn merge(&mut self, other: &FaultCounters) {
        self.dropped_loss += other.dropped_loss;
        self.crashes = self.crashes.max(other.crashes);
    }
}
impl FaultState {
    pub fn merged_counters(replicas: &[FaultState]) -> FaultCounters {
        let mut merged = FaultCounters::default();
        merged.byz_refresh_lies = 0;
        merged
    }
}
";
    let rule = ConformanceParity {
        checks: vec![ParityCheck::MergedInto {
            struct_file: "crates/faults/src/state.rs".into(),
            struct_name: "FaultCounters".into(),
            fn_name: "merge".into(),
        }],
    };
    let report = run_rule(&rule, &[("crates/faults/src/state.rs", src)]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].message.contains("byz_refresh_lies"));
    assert_eq!(denied[0].line, 4, "reported at the field's declaration");
}

#[test]
fn net_metric_missing_from_merge_fires() {
    // The live runtime keeps one metrics sink per shard; a counter the
    // fold forgets reads zero live while the DES still counts it. A
    // helper next to `merge` naming the field must not count.
    let src = "\
pub struct NetMetrics {
    pub query_hops: u64,
    pub audit_hops: u64,
}
impl NetMetrics {
    pub fn hops(&self) -> u64 { self.query_hops + self.audit_hops }
    pub fn merge(&mut self, other: &NetMetrics) { self.query_hops += other.query_hops; }
}
";
    let rule = ConformanceParity {
        checks: vec![ParityCheck::MergedInto {
            struct_file: "crates/faults/src/metrics.rs".into(),
            struct_name: "NetMetrics".into(),
            fn_name: "merge".into(),
        }],
    };
    let report = run_rule(&rule, &[("crates/faults/src/metrics.rs", src)]);
    let denied: Vec<_> = report.denied().map(|f| (f.line, &f.message)).collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].0 == 3 && denied[0].1.contains("audit_hops"));
}

#[test]
fn missing_parity_input_file_is_a_finding() {
    let rule = ConformanceParity::workspace();
    let report = run_rule(&rule, &[("crates/core/src/other.rs", "fn f() {}\n")]);
    assert!(
        report.denied().any(|f| f.message.contains("not found")),
        "moving a parity input file must fail loudly, not silently pass"
    );
}
