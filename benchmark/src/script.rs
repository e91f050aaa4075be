//! Inputs, generated from the seed before any timing starts.
//!
//! The program under test receives only what this module produces: for
//! the DES an explicit list of scenario numbers (never
//! `Scenario::large_scale`, whose sizing rule may change), for the live
//! runtime the (node, key) pairs of every burst and probe. Everything
//! here is a pure function of its arguments and uses its own generator,
//! so a product change cannot alter the inputs.

use crate::spec::Workload;

/// SplitMix64: small, fast, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias at these
    /// bounds (≤ 2³²) is below 2⁻³².
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound)) as u32
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf key popularity over `0..keys` (key 0 hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(keys: u32, exponent: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=keys)
            .scan(0.0, |acc, rank| {
                *acc += f64::from(rank).powf(-exponent);
                Some(*acc)
            })
            .collect();
        let total = cdf.last().copied().unwrap_or(1.0);
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

/// Popularity exponent of every workload (the classic web-like skew).
pub const ZIPF_EXPONENT: f64 = 0.9;

/// How large a run is. `Smoke` exists for the self-tests only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One DES experiment, as explicit numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct DesScript {
    pub chord: bool,
    pub nodes: usize,
    pub keys: u32,
    /// Expected client queries over the window.
    pub queries: u64,
    /// Length of the query window in virtual seconds (it opens at 300 s,
    /// after the replica warm-up).
    pub window_secs: u64,
    pub burst_size: u32,
    /// Fault-plane spec strings; empty on the plain workload.
    pub fault_plan: Vec<String>,
    pub track_justification: bool,
    pub replica_mean_life_secs: Option<u64>,
    pub seed: u64,
}

/// Nodes and keys of `workload` at `size`: 10 000 nodes everywhere, 160
/// keys under the DES and 256 under the live runtime.
pub fn population(workload: &Workload, size: Size) -> (usize, u32) {
    match (size, workload.live) {
        (Size::Full, false) => (10_000, 160),
        (Size::Full, true) => (10_000, 256),
        (Size::Smoke, false) => (256, 16),
        (Size::Smoke, true) => (256, 32),
    }
}

pub fn des_script(workload: &Workload, seed: u64, size: Size) -> DesScript {
    let (nodes, keys) = population(workload, size);
    // Sized so that one repeat takes about a second on the reference
    // box: Chord's log n paths make a query cheaper than CAN's √n ones.
    let queries = match (size, workload.chord) {
        (Size::Full, false) => 60_000,
        (Size::Full, true) => 100_000,
        (Size::Smoke, _) => 1_500,
    };
    let mut script = DesScript {
        chord: workload.chord,
        nodes,
        keys,
        queries,
        window_secs: 300,
        burst_size: 20,
        fault_plan: Vec::new(),
        track_justification: false,
        replica_mean_life_secs: None,
        seed,
    };
    if workload.armed {
        let mut rng = Rng::new(seed ^ 0xFA17);
        let a = rng.below(nodes as u32);
        let b = rng.below(nodes as u32);
        script.fault_plan = vec![
            "drop:0.02".to_string(),
            format!("crash:{a}@t=380..460"),
            format!("crash:{b}@t=440..560"),
        ];
        script.track_justification = true;
        script.replica_mean_life_secs = Some(600);
    }
    script
}

/// The (node, key) pairs of one live round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundScript {
    pub burst: Vec<(u32, u32)>,
    /// Empty on the armed workload.
    pub probe: Vec<(u32, u32)>,
}

/// A whole live run: warm-up rounds first, then the timed ones.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveScript {
    pub chord: bool,
    pub armed: bool,
    pub nodes: usize,
    pub keys: u32,
    /// Index-entry lifetime in virtual seconds.
    pub lifetime_secs: u64,
    /// Virtual seconds one round spans. Retry waves spend part of it, so
    /// every round ends at the same virtual instant however many waves
    /// the loss plane forced, and entries never outlive their refresh.
    pub round_secs: u64,
    pub warmup_rounds: usize,
    pub rounds: Vec<RoundScript>,
    pub seed: u64,
}

/// Timed live rounds per `--seconds`: the round count is part of the
/// workload (memory and per-round work grow with it as caches fill), so
/// it is a function of the requested length, never of the clock.
const LIVE_ROUNDS_PER_SECOND: f64 = 2.5;

/// Most retry waves one armed burst may use.
pub const MAX_RETRY_WAVES: usize = 16;

/// Virtual seconds between retry waves: just past the 30 s `pfu_timeout`,
/// so a node holding a lost query's pending flag pushes the retry on.
pub const RETRY_WAVE_SECS: u64 = 31;

pub fn live_script(workload: &Workload, seed: u64, seconds: u64, size: Size) -> LiveScript {
    let (nodes, keys) = population(workload, size);
    let (burst, probe, warmup_rounds, timed) = match size {
        Size::Full => (
            10_000,
            500,
            6,
            (seconds as f64 * LIVE_ROUNDS_PER_SECOND).ceil() as usize,
        ),
        Size::Smoke => (500, 50, 1, 3),
    };
    let zipf = Zipf::new(keys, ZIPF_EXPONENT);
    let mut rng = Rng::new(seed ^ 0x005C_2197);
    let mut pairs = |n: usize| -> Vec<(u32, u32)> {
        (0..n)
            .map(|_| (rng.below(nodes as u32), zipf.sample(&mut rng)))
            .collect()
    };
    let rounds = (0..warmup_rounds + timed.max(1))
        .map(|_| RoundScript {
            burst: pairs(burst),
            probe: if workload.armed {
                Vec::new()
            } else {
                pairs(probe)
            },
        })
        .collect();
    // Plain: the paper's 300 s lifetime, refreshed every 250 s. Armed:
    // up to sixteen 31 s retry waves must fit inside the round, so both
    // numbers double and keep their ratio.
    let (lifetime_secs, round_secs) = if workload.armed {
        (600, 500)
    } else {
        (300, 250)
    };
    LiveScript {
        chord: workload.chord,
        armed: workload.armed,
        nodes,
        keys,
        lifetime_secs,
        round_secs,
        warmup_rounds,
        rounds,
        seed,
    }
}

/// Whether key `k` is deleted and re-born in `round` (otherwise it is
/// refreshed): one key in sixteen a round, every key in turn.
pub fn replaced_in(round: usize, key: u32) -> bool {
    key as usize % 16 == round % 16
}
