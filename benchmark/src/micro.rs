//! The layer microbenchmarks of the traced pass: ns/op and allocs/op of
//! each layer's public functions, on inputs drawn the way the workload's
//! own script draws them (same population, same key popularity).

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use crate::alloc;
use crate::script::{Rng, Zipf, ZIPF_EXPONENT};
use crate::spans::Spans;
use crate::stats::median;
use crate::surface::{
    cached_node, fault_fixtures, handler_fixtures, justify_obs_fixtures, overlay_fixtures,
    queue_fixture, walk_routes, Fixture, Routing,
};

/// Timed samples per microbenchmark (one more runs first, unrecorded).
const SAMPLES: usize = 31;

/// Median cost of one operation of a fixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    pub ns: f64,
    pub allocs: f64,
}

pub fn measure(fixture: &mut Fixture) -> OpCost {
    let (mut ns, mut allocs) = (Vec::new(), Vec::new());
    for sample in 0..=SAMPLES {
        (fixture.prepare)();
        let allocs_before = alloc::read().allocs;
        let t = Instant::now();
        let ops = std::hint::black_box((fixture.run)()).max(1) as f64;
        let elapsed = t.elapsed();
        if sample > 0 {
            ns.push(elapsed.as_nanos() as f64 / ops);
            allocs.push((alloc::read().allocs - allocs_before) as f64 / ops);
        }
    }
    OpCost {
        ns: median(&ns),
        allocs: median(&allocs),
    }
}

/// Runs every microbenchmark and returns the per-layer metrics they
/// give, by name. `chord` picks which overlay's routing allocations are
/// reported as the workload's.
pub fn run(
    seed: u64,
    (nodes, keys): (usize, u32),
    chord: bool,
    spans: &mut Spans,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();

    let zipf = Zipf::new(keys, ZIPF_EXPONENT);
    let mut rng = Rng::new(seed ^ 0x0003_1C20);
    let pairs: Rc<Vec<(u32, u32)>> = Rc::new(
        (0..4096)
            .map(|_| (rng.below(nodes as u32), zipf.sample(&mut rng)))
            .collect(),
    );

    let mut build = |is_chord: bool, name: &'static str| {
        let mut walls = Vec::new();
        let mut built = None;
        for _ in 0..5 {
            let s = spans.open("overlay.build", -1);
            built = Some(Routing::build(is_chord, nodes, seed));
            walls.push(spans.close(s, nodes as u64).as_secs_f64());
        }
        out.insert(name, median(&walls));
        Rc::new(built.expect("five builds"))
    };
    let can = build(false, "overlay.can_build_s");
    let chord_overlay = build(true, "overlay.chord_build_s");
    for (routing, name) in [
        (&can, "overlay.can_mean_path_hops"),
        (&chord_overlay, "overlay.chord_mean_path_hops"),
    ] {
        let calls = walk_routes(routing, &pairs);
        out.insert(
            name,
            (calls - pairs.len() as u64) as f64 / pairs.len() as f64,
        );
    }

    let own = if chord { &chord_overlay } else { &can };
    let mut fixtures = fault_fixtures(own, &pairs);
    fixtures.extend(overlay_fixtures(
        Rc::clone(&can),
        Rc::clone(&chord_overlay),
        Rc::clone(&pairs),
    ));
    fixtures.push(queue_fixture());
    fixtures.extend(handler_fixtures(keys));
    fixtures.extend(justify_obs_fixtures(Rc::clone(&pairs)));

    let own_route = if chord {
        "overlay.chord_next_hop"
    } else {
        "overlay.can_next_hop"
    };
    let mut handler_allocs = Vec::new();
    for fixture in &mut fixtures {
        let cost = measure(fixture);
        out.insert(ns_name(fixture.name), cost.ns);
        if fixture.name == own_route {
            out.insert("overlay.route_allocs_per_op", cost.allocs);
        } else if fixture.name == "des.queue_pair" {
            out.insert("des.queue_allocs_per_op", cost.allocs);
        } else if fixture.name.starts_with("core.query")
            || fixture.name.starts_with("core.update")
            || fixture.name == "core.clear_bit"
            || fixture.name == "core.replica_event"
        {
            handler_allocs.push(cost.allocs);
        }
    }
    out.insert(
        "core.handler_allocs_per_op",
        handler_allocs.iter().sum::<f64>() / handler_allocs.len().max(1) as f64,
    );

    // Live heap bytes one cached (node, key) costs: what 32 nodes that
    // each cache `keys` keys hold when they are done.
    let before = alloc::read().live_bytes;
    let held: Vec<_> = (0..32).map(|_| cached_node(keys)).collect();
    let grown = alloc::read().live_bytes - before;
    out.insert(
        "core.node_bytes_per_key",
        grown as f64 / (held.len() as f64 * f64::from(keys)),
    );
    out
}

/// The `_ns` metric a fixture's timing is reported under.
fn ns_name(fixture: &'static str) -> &'static str {
    crate::spec::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|name| name.strip_suffix("_ns") == Some(fixture))
        .unwrap_or_else(|| panic!("no per-layer metric for microbenchmark {fixture}"))
}
