//! The trace-plane smoke check behind the CI `trace-smoke` step.
//!
//! Runs one small conformance scenario through the DES and the live
//! worker pool with event tracing on, exports both traces as JSONL
//! artifacts, and diffs them:
//!
//! * the sim and live traces must be byte-identical after canonical
//!   sorting — any divergence is printed as the *first differing event*
//!   and the process exits non-zero;
//! * a deliberately perturbed sim run (different script seed) must
//!   *produce* a divergence — proving the diff actually has teeth, not
//!   just a pair of empty files.
//!
//! Usage:
//!
//! ```text
//! trace_smoke [--overlay can|chord] [--out-sim trace_sim.jsonl]
//!             [--out-live trace_live.jsonl] [--cap 65536]
//! ```

use cup_bench::cli::{parse_or_exit, value_of};
use cup_core::trace_diff;
use cup_overlay::OverlayKind;
use cup_testkit::conformance::{run_live_traced, run_sim_traced, ConformanceSpec};

fn main() {
    let mut kind = OverlayKind::Can;
    let mut out_sim = String::from("trace_sim.jsonl");
    let mut out_live = String::from("trace_live.jsonl");
    let mut cap: usize = 1 << 16;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--overlay" => {
                let v = value_of(&mut it, "--overlay");
                kind = OverlayKind::parse(v.trim()).unwrap_or_else(|| {
                    eprintln!("bad --overlay value '{v}' (can | chord)");
                    std::process::exit(2);
                });
            }
            "--out-sim" => out_sim = value_of(&mut it, "--out-sim"),
            "--out-live" => out_live = value_of(&mut it, "--out-live"),
            "--cap" => cap = parse_or_exit(&value_of(&mut it, "--cap"), "--cap"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace_smoke [--overlay can|chord] [--out-sim PATH] \
                     [--out-live PATH] [--cap N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let spec = ConformanceSpec::small(kind);
    let (sim, sim_trace) = run_sim_traced(&spec, cap);
    let (live, live_trace) = run_live_traced(&spec, cap);
    println!(
        "{kind}: sim {} events ({} answers), live {} events ({} answers)",
        sim_trace.len(),
        sim.net.client_responses,
        live_trace.len(),
        live.net.client_responses,
    );
    if sim_trace.dropped() > 0 || live_trace.dropped() > 0 {
        eprintln!(
            "trace ring overflowed (sim dropped {}, live dropped {}); raise --cap",
            sim_trace.dropped(),
            live_trace.dropped()
        );
        std::process::exit(1);
    }

    for (path, trace) in [(&out_sim, &sim_trace), (&out_live, &live_trace)] {
        std::fs::write(path, trace.export_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    // The check itself: the two runtimes told the same story.
    if let Some(div) = trace_diff(&sim_trace, &live_trace) {
        eprintln!(
            "TRACE DIVERGENCE at event {}:\n  sim : {:?}\n  live: {:?}",
            div.index, div.left, div.right
        );
        std::process::exit(1);
    }
    println!("sim and live traces identical ({} events)", sim_trace.len());

    // Teeth check: a perturbed workload must be *detectably* different,
    // and the diff must name where.
    let perturbed = ConformanceSpec {
        script_seed: spec.script_seed ^ 0x5EED,
        ..spec
    };
    let (_, perturbed_trace) = run_sim_traced(&perturbed, cap);
    match trace_diff(&sim_trace, &perturbed_trace) {
        Some(div) => println!(
            "perturbed run diverges at event {} (expected): {:?} vs {:?}",
            div.index, div.left, div.right
        ),
        None => {
            eprintln!("perturbed run produced an identical trace; the diff has no teeth");
            std::process::exit(1);
        }
    }
}
