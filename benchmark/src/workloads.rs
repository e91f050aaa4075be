//! The four workloads: what is run, what is timed, what is checked.
//!
//! Both passes run this code. The end-to-end pass runs it with spans and
//! allocation counting off and set-up repeated; the traced pass runs it
//! shorter, with both on, and reads the extra observations.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::proc;
use crate::script::{
    des_script, live_script, replaced_in, LiveScript, Size, MAX_RETRY_WAVES, RETRY_WAVE_SECS,
};
use crate::spans::Spans;
use crate::spec::Workload;
use crate::stats::median;
use crate::surface::{
    des_config, des_run, Answer, DesCounts, HandlerCounts, Live, LiveCounters, Pending,
};

/// Worker threads of every live workload: pinned, never
/// `available_parallelism`, so the same work runs on any box.
pub const WORKERS: usize = 2;

/// How one workload run is parameterized.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed part (DES: repeats run until it is used up;
    /// live: it fixes the round count).
    pub seconds: u64,
    pub size: Size,
    /// How many times set-up runs; `setup_s` is their median.
    pub setups: usize,
    /// Live worker threads.
    pub workers: usize,
    /// Switch the live runtime's own event-trace ring on.
    pub runtime_trace: bool,
    /// When the process started, for the first set-up sample.
    pub started: Instant,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Samples of each end-to-end metric; the reported value is their
    /// median.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Each broken correctness check, in words. Empty means correct.
    pub violations: Vec<String>,
    pub des: Option<DesObserved>,
    pub live: Option<LiveObserved>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }
}

/// Extra observations of a DES run, for the traced pass.
#[derive(Debug, Clone)]
pub struct DesObserved {
    pub nodes: usize,
    pub counts: DesCounts,
    pub client_queries: u64,
    /// Wall time of each timed `run_experiment`.
    pub repeat_walls: Vec<Duration>,
    /// Allocation calls per timed repeat (0 without the counting
    /// allocator).
    pub allocs_per_repeat: f64,
    /// Growth of the resident set over the first run.
    pub rss_growth_bytes: f64,
}

/// Extra observations of a live run, over its timed rounds.
#[derive(Debug, Clone, Default)]
pub struct LiveObserved {
    pub nodes: usize,
    pub start: Duration,
    pub shutdown: Duration,
    pub counters: LiveCounters,
    pub handlers: HandlerCounts,
    pub logical_queries: u64,
    pub retry_posts: u64,
    pub probes: u64,
    pub replica_events: u64,
    /// Answers that named a replica other than the key's current one.
    pub stale_answers: u64,
    pub post: Duration,
    pub burst_quiesce: Duration,
    pub burst: Duration,
    pub update: Duration,
    pub update_quiesce: Duration,
    pub rounds_wall: Duration,
    pub cpu_ns: f64,
    pub allocs: u64,
    pub rss_growth_bytes: f64,
    /// Median cost of `quiesce()` on the idle network, in microseconds.
    pub quiesce_idle_us: f64,
    /// Microseconds of every probe query.
    pub probe_us: Vec<f64>,
    /// Hops since the network started, warm-up included: the handler
    /// counters cover that whole span and are scaled by timed / total.
    pub hops_since_start: u64,
    /// The first logical query left unanswered, as (round, node, key).
    pub first_unanswered: Option<(usize, u32, u32)>,
}

fn rate(count: u64, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64().max(1e-9)
}

/// Fewest timed DES repeats, however short `--seconds` is.
const MIN_REPEATS: usize = 5;

pub fn run_des(workload: &Workload, opts: &RunOpts, spans: &mut Spans) -> Measured {
    let mut m = Measured::default();
    let mut setup_s = Vec::new();
    let mut other_seed = None;
    let mut reference = None;
    let mut config = None;
    let (mut rss_growth_bytes, mut nodes) = (0.0, 0);
    for i in 0..opts.setups.max(1) {
        let t = if i == 0 { opts.started } else { Instant::now() };
        // One set-up runs the neighboring seed: the same amount of work,
        // and its result must differ from the timed seed's.
        let seed = opts.seed + u64::from(i + 1 < opts.setups);
        let script = des_script(workload, seed, opts.size);
        nodes = script.nodes;
        let cfg = des_config(&script, false);
        let rss_before = proc::rss_bytes();
        let s = spans.open("simnet.run_experiment", -1);
        let result = des_run(&cfg);
        spans.close(s, result.counts().events);
        setup_s.push(t.elapsed().as_secs_f64());
        if i == 0 {
            rss_growth_bytes = proc::peak_rss_bytes() - rss_before;
        }
        if seed == opts.seed {
            reference = Some(result);
            config = Some(cfg);
        } else {
            other_seed = Some(result);
        }
    }
    let (reference, config) = (
        reference.expect("last set-up"),
        config.expect("last set-up"),
    );
    if other_seed.as_ref() == Some(&reference) {
        m.violations
            .push("a different seed gave the same result".to_string());
    }
    let counts = reference.counts();
    let client_queries = counts.handlers.client_queries;

    let (mut queries_per_s, mut updates_per_s, mut repeat_walls) = (vec![], vec![], vec![]);
    let allocs_before = alloc::read().allocs;
    let timed = Instant::now();
    // The smoke run is two repeats, whatever the clock says.
    let more = |done: usize| match opts.size {
        Size::Smoke => done < 2,
        Size::Full => done < MIN_REPEATS || timed.elapsed().as_secs() < opts.seconds,
    };
    while more(repeat_walls.len()) {
        let s = spans.open("simnet.run_experiment", repeat_walls.len() as i32);
        let result = des_run(&config);
        let wall = spans.close(s, counts.events);
        m.attempted += client_queries;
        if result != reference {
            m.failed += client_queries;
            m.violations.push(format!(
                "repeat {} differs from the first result",
                repeat_walls.len()
            ));
        }
        queries_per_s.push(rate(client_queries, wall));
        updates_per_s.push(rate(counts.update_hops(), wall));
        repeat_walls.push(wall);
    }
    let allocs_per_repeat =
        (alloc::read().allocs - allocs_before) as f64 / repeat_walls.len() as f64;
    m.samples = vec![
        ("setup_s", setup_s),
        ("queries_per_s", queries_per_s),
        ("updates_per_s", updates_per_s),
        ("peak_rss_mb", vec![proc::peak_rss_bytes() / proc::MIB]),
    ];
    m.des = Some(DesObserved {
        nodes,
        counts,
        client_queries,
        repeat_walls,
        allocs_per_repeat,
        rss_growth_bytes,
    });
    m
}

/// One logical burst query: where it was posted and what came back.
struct Posted<'a> {
    node: u32,
    key: u32,
    handle: Pending<'a>,
    answer: Option<Answer>,
}

/// The counter invariants that must hold after every quiesce.
fn check_counters(net: &Live, round: usize, phase: &str, m: &mut Measured) {
    let c = net.counters();
    if c.routing_failures != 0 {
        m.violations.push(format!(
            "round {round} {phase}: {} routing failures",
            c.routing_failures
        ));
    }
    if c.batched_envelopes != c.cross_shard {
        m.violations.push(format!(
            "round {round} {phase}: {} batched envelopes but {} cross-shard messages",
            c.batched_envelopes, c.cross_shard
        ));
    }
}

/// A live network with the benchmark's view of it: the current replica
/// of every key and the totals of the rounds run so far.
struct LiveRun<'s> {
    net: Live,
    script: &'s LiveScript,
    current: Vec<u32>,
    obs: LiveObserved,
}

impl<'s> LiveRun<'s> {
    /// Starts the network, announces one replica per key and runs the
    /// warm-up rounds: everything `setup_s` covers.
    fn set_up(
        script: &'s LiveScript,
        opts: &RunOpts,
        spans: &mut Spans,
        m: &mut Measured,
    ) -> LiveRun<'s> {
        let s = spans.open("runtime.start", -1);
        let net = Live::start(script, opts.workers);
        let start = spans.close(s, script.nodes as u64);
        if opts.runtime_trace {
            net.enable_trace(1 << 16);
        }
        for key in 0..script.keys {
            net.replica_birth(key, 0);
        }
        net.quiesce();
        let mut run = LiveRun {
            net,
            script,
            current: vec![0; script.keys as usize],
            obs: LiveObserved::default(),
        };
        for round in 0..script.warmup_rounds {
            run.round(round, spans, m);
        }
        // Only the timed rounds are observed and counted; a check that
        // broke during warm-up stays broken.
        (m.attempted, m.failed) = (0, 0);
        run.obs = LiveObserved {
            nodes: script.nodes,
            start,
            ..LiveObserved::default()
        };
        run
    }

    /// Runs round `index`: burst (with retry waves when armed), probe
    /// (when the script has one), update, clock advance. Returns the
    /// burst's goodput and the update phase's throughput.
    fn round(&mut self, index: usize, spans: &mut Spans, m: &mut Measured) -> (f64, f64) {
        let script = self.script;
        let net = &self.net;
        let current = &mut self.current;
        let obs = &mut self.obs;
        let round = index as i32;
        let plan = &script.rounds[index];
        let whole = spans.open("round", round);

        // (1) Burst: post everything, wait for the network to drain,
        // claim the answers; under loss, re-post what went unanswered.
        let burst = spans.open("burst", round);
        let s = spans.open("burst.post", round);
        let mut posted: Vec<Posted<'_>> = plan
            .burst
            .iter()
            .map(|&(node, key)| Posted {
                node,
                key,
                handle: net.post(node, key),
                answer: None,
            })
            .collect();
        obs.post += spans.close(s, posted.len() as u64);
        let s = spans.open("burst.quiesce", round);
        net.quiesce();
        obs.burst_quiesce += spans.close(s, 0);
        for p in &mut posted {
            p.answer = p.handle.poll(current[p.key as usize]);
        }
        let mut retries: Vec<(usize, Pending<'_>)> = Vec::new();
        let mut waves = 0;
        while script.armed && waves < MAX_RETRY_WAVES {
            let open: Vec<usize> = (0..posted.len())
                .filter(|&i| posted[i].answer.is_none())
                .collect();
            if open.is_empty() {
                break;
            }
            waves += 1;
            let s = spans.open("retry.wave", round);
            net.advance(RETRY_WAVE_SECS);
            for &i in &open {
                retries.push((i, net.post(posted[i].node, posted[i].key)));
            }
            net.quiesce();
            // A late answer may come through the original handle (a
            // retried upstream query answers every waiting client) or
            // through any retry's.
            for &i in &open {
                let p = &mut posted[i];
                p.answer = p.handle.poll(current[p.key as usize]);
            }
            for (i, handle) in &retries {
                let p = &mut posted[*i];
                if p.answer.is_none() {
                    p.answer = handle.poll(current[p.key as usize]);
                }
            }
            obs.retry_posts += open.len() as u64;
            spans.close(s, open.len() as u64);
        }
        let burst_wall = spans.close(burst, posted.len() as u64);
        check_counters(net, index, "burst", m);
        let mut good = 0;
        for p in &posted {
            match p.answer {
                Some(Answer::Current) => good += 1,
                // Under loss a delete can go missing, so a stale answer
                // is the protocol's business (`runtime.stale_share`);
                // without faults it is a wrong output.
                Some(Answer::Other) if script.armed => {
                    good += 1;
                    obs.stale_answers += 1;
                }
                Some(Answer::Other) => {
                    m.failed += 1;
                    m.violations.push(format!(
                        "round {index}: node {} answered key {} with a replica other than the current one",
                        p.node, p.key
                    ));
                }
                Some(Answer::Empty) | None => {
                    m.failed += 1;
                    obs.first_unanswered.get_or_insert((index, p.node, p.key));
                }
            }
        }
        m.attempted += posted.len() as u64;
        obs.logical_queries += posted.len() as u64;
        obs.burst += burst_wall;
        drop(retries);
        drop(posted);

        // (2) Probe: one client, closed loop, each call timed here (the
        // runtime's own histogram has 25 % buckets and reads virtual
        // time on this clock).
        if !plan.probe.is_empty() {
            let probe = spans.open("probe", round);
            for &(node, key) in &plan.probe {
                let s = spans.open("probe.query", round);
                let answer = net.query(node, key, current[key as usize]);
                obs.probe_us.push(spans.close(s, 1).as_secs_f64() * 1e6);
                m.attempted += 1;
                if answer != Some(Answer::Current) {
                    m.failed += 1;
                    m.violations.push(format!(
                        "round {index}: probe at node {node} for key {key} got {answer:?}"
                    ));
                }
            }
            spans.close(probe, plan.probe.len() as u64);
            obs.probes += plan.probe.len() as u64;
        }

        // The clock moves `round_secs` a round. Armed, the retry waves
        // spent part of that and the rest goes here, before the update
        // phase, so that updates are always stamped at the round's last
        // instant and no entry can expire in a later round's late wave.
        // Plain, it all goes after the update phase (4).
        let advance = |secs: u64, spans: &mut Spans| {
            let s = spans.open("clock.advance", round);
            net.advance(secs);
            spans.close(s, 0);
        };
        if script.armed {
            advance(script.round_secs - RETRY_WAVE_SECS * waves as u64, spans);
        }

        // (3) Update: every key is refreshed, except one in sixteen,
        // whose replica dies and is replaced.
        let update = spans.open("update", round);
        let s = spans.open("update.post", round);
        let mut events = 0;
        for key in 0..script.keys {
            let replica = &mut current[key as usize];
            if replaced_in(index, key) {
                net.replica_deletion(key, *replica);
                *replica += 1;
                net.replica_birth(key, *replica);
                events += 2;
            } else {
                net.replica_refresh(key, *replica);
                events += 1;
            }
        }
        spans.close(s, events);
        let s = spans.open("update.quiesce", round);
        net.quiesce();
        obs.update_quiesce += spans.close(s, 0);
        let update_wall = spans.close(update, events);
        obs.update += update_wall;
        obs.replica_events += events;
        check_counters(net, index, "update", m);

        // (4) Entries stamped now have a sixth of their life left at the
        // next burst; what a node cut off from updates still holds has
        // expired by then, so no stale entry is ever served.
        if !script.armed {
            advance(script.round_secs, spans);
        }
        obs.rounds_wall += spans.close(whole, 0);
        (rate(good, burst_wall), rate(events, update_wall))
    }
}

pub fn run_live(workload: &Workload, opts: &RunOpts, spans: &mut Spans) -> Measured {
    let mut m = Measured::default();
    let script = live_script(workload, opts.seed, opts.seconds, opts.size);
    let mut setup_s = Vec::new();
    let mut run: Option<LiveRun<'_>> = None;
    let mut rss_before = 0.0;
    for i in 0..opts.setups.max(1) {
        let t = if i == 0 { opts.started } else { Instant::now() };
        if let Some(previous) = run.take() {
            previous.net.shutdown();
        }
        rss_before = proc::rss_bytes();
        run = Some(LiveRun::set_up(&script, opts, spans, &mut m));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut run = run.expect("at least one set-up");

    let (mut queries_per_s, mut updates_per_s) = (vec![], vec![]);
    let before = run.net.counters();
    let (cpu_before, allocs_before) = (proc::cpu_ns(), alloc::read().allocs);
    for index in script.warmup_rounds..script.rounds.len() {
        let (q, u) = run.round(index, spans, &mut m);
        queries_per_s.push(q);
        updates_per_s.push(u);
    }
    let after = run.net.counters();
    let mut obs = std::mem::take(&mut run.obs);
    obs.cpu_ns = proc::cpu_ns() - cpu_before;
    obs.allocs = alloc::read().allocs - allocs_before;
    obs.rss_growth_bytes = proc::rss_bytes() - rss_before;
    obs.counters = LiveCounters {
        hops: after.hops - before.hops,
        cross_shard: after.cross_shard - before.cross_shard,
        batch_flushes: after.batch_flushes - before.batch_flushes,
        batched_envelopes: after.batched_envelopes - before.batched_envelopes,
        dropped: after.dropped - before.dropped,
        routing_failures: after.routing_failures,
        justified: after.justified - before.justified,
        tracked: after.tracked - before.tracked,
    };
    obs.hops_since_start = after.hops;
    let idle: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            run.net.quiesce();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    obs.quiesce_idle_us = median(&idle);
    let peak_rss_mb = proc::peak_rss_bytes() / proc::MIB;
    let s = spans.open("runtime.shutdown", -1);
    obs.handlers = run.net.shutdown();
    obs.shutdown = spans.close(s, 0);
    m.samples = vec![
        ("setup_s", setup_s),
        ("queries_per_s", queries_per_s),
        ("updates_per_s", updates_per_s),
        ("peak_rss_mb", vec![peak_rss_mb]),
    ];
    m.live = Some(obs);
    m
}

pub fn run_workload(workload: &Workload, opts: &RunOpts, spans: &mut Spans) -> Measured {
    if workload.live {
        run_live(workload, opts, spans)
    } else {
        run_des(workload, opts, spans)
    }
}
