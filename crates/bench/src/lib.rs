//! Shared scales and scenarios for the experiment binaries.
//!
//! The `repro` binary regenerates the paper's tables and figures at a
//! chosen [`Scale`], up to the paper's 2¹⁰-node / 3 000 s configuration.
//! Speed is measured elsewhere, by the `cupbench` package in
//! `benchmark/`.

use cup_des::{SimDuration, SimTime};
use cup_workload::Scenario;

pub mod cli;

/// How big to run an experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: the scale of the golden snapshot
    /// `tests/golden/repro_bench.txt` (64 nodes, 500 s of querying).
    Bench,
    /// Medium: quick tables with visible shape (256 nodes, 1 500 s).
    Small,
    /// The paper's configuration (1 024 nodes, 3 000 s of querying).
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "bench" => Some(Scale::Bench),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The base scenario for this scale.
    ///
    /// The paper does not state its key count. The query rate is
    /// network-wide, so the key count sets each key's share of it; we
    /// use few keys so per-key query rates match the regime its results
    /// imply, where a key's popularity measure sees queries between
    /// updates at the paper's lower rates too.
    pub fn base_scenario(self) -> Scenario {
        match self {
            Scale::Bench => Scenario {
                nodes: 64,
                keys: 3,
                query_rate: 5.0,
                query_start: SimTime::from_secs(300),
                query_end: SimTime::from_secs(800),
                sim_end: SimTime::from_secs(1_500),
                seed: 7,
                ..Scenario::default()
            },
            Scale::Small => Scenario {
                nodes: 256,
                keys: 4,
                query_rate: 1.0,
                query_start: SimTime::from_secs(300),
                query_end: SimTime::from_secs(1_800),
                sim_end: SimTime::from_secs(3_000),
                seed: 42,
                ..Scenario::default()
            },
            Scale::Paper => Scenario {
                nodes: 1 << 10,
                keys: 4,
                query_rate: 1.0,
                query_start: SimTime::from_secs(300),
                query_end: SimTime::from_secs(3_300),
                sim_end: SimTime::from_secs(22_000),
                entry_lifetime: SimDuration::from_secs(300),
                seed: 42,
                ..Scenario::default()
            },
        }
    }

    /// Query rates to sweep (the paper uses 1, 10, 100, 1000 q/s).
    pub fn rates(self) -> Vec<f64> {
        match self {
            Scale::Bench => vec![5.0],
            Scale::Small => vec![1.0, 10.0, 100.0],
            Scale::Paper => vec![1.0, 10.0, 100.0, 1_000.0],
        }
    }

    /// Push levels to sweep for Figures 3/4.
    pub fn push_levels(self) -> Vec<u32> {
        match self {
            Scale::Bench => vec![0, 2, 4, 8],
            Scale::Small => vec![0, 1, 2, 4, 6, 8, 12, 16, 24, 32],
            Scale::Paper => vec![0, 1, 2, 4, 6, 8, 12, 16, 20, 25, 30],
        }
    }

    /// Network sizes for Table 2 (the paper uses 2³..2¹²).
    pub fn sizes(self) -> Vec<usize> {
        match self {
            Scale::Bench => vec![16, 64],
            Scale::Small => vec![8, 32, 128, 512],
            Scale::Paper => vec![8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096],
        }
    }

    /// Replica counts for Table 3 (paper: 1, 2, 5, 10, 50, 100).
    pub fn replica_counts(self) -> Vec<u32> {
        match self {
            Scale::Bench => vec![1, 4],
            Scale::Small => vec![1, 2, 5, 10],
            Scale::Paper => vec![1, 2, 5, 10, 50, 100],
        }
    }

    /// Reduced capacities for Figures 5/6 (c between 0 and 1).
    pub fn capacities(self) -> Vec<f64> {
        match self {
            Scale::Bench => vec![0.0, 1.0],
            Scale::Small => vec![0.0, 0.25, 0.5, 0.75, 1.0],
            Scale::Paper => vec![0.0, 0.25, 0.5, 0.75, 1.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Scale::parse("bench"), Some(Scale::Bench));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scenarios_validate() {
        for scale in [Scale::Bench, Scale::Small, Scale::Paper] {
            scale.base_scenario().validate().unwrap();
            assert!(!scale.rates().is_empty());
            assert!(!scale.push_levels().is_empty());
            assert!(!scale.sizes().is_empty());
            assert!(!scale.replica_counts().is_empty());
            assert!(!scale.capacities().is_empty());
        }
    }

    #[test]
    fn paper_scale_matches_paper_parameters() {
        let s = Scale::Paper.base_scenario();
        assert_eq!(s.nodes, 1_024);
        assert_eq!(s.query_window(), SimDuration::from_secs(3_000));
        assert_eq!(s.entry_lifetime, SimDuration::from_secs(300));
        assert_eq!(Scale::Paper.rates(), vec![1.0, 10.0, 100.0, 1_000.0]);
        assert_eq!(Scale::Paper.sizes().len(), 10);
    }
}
