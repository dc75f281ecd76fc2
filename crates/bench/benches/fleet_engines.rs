//! Bench: fleet-engine throughput — serial vs event-driven.
//!
//! Measures node-ticks per wall second (fleet size × control intervals
//! simulated, divided by wall time) at 100 / 1 000 / 10 000 nodes, and
//! writes the scaling table with speedups vs the serial oracle to
//! `results/BENCH_6.json`.
//!
//! Methodology, recorded in the JSON too:
//!
//! * The arrival stream is a *fixed fleet-wide* light trickle (2 jobs/s
//!   regardless of node count), so large fleets are mostly idle — the
//!   regime the discrete-event engine is built for ("idle nodes cost
//!   nothing"). A saturating load at 10k nodes would mean millions of
//!   arrival events per simulated hour, which no engine — serial
//!   included — can process in seconds; the interesting ratio is how
//!   much of the idle fleet's cost each engine avoids.
//! * Every engine simulates the same virtual horizon per scale, except
//!   the serial oracle at 10 000 nodes, which is timed over a shorter
//!   horizon and compared by *rate* (node-ticks/s is horizon-invariant
//!   for serial: its cost per tick is O(fleet), busy or not). The
//!   `horizon_s` field records what each engine actually ran.
//! * Engines are proven byte-identical by
//!   `crates/cluster/tests/engine_equivalence.rs`; this bench only
//!   measures speed, it does not re-verify outputs.

use greengpu_bench::BENCH_SEED;
use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, Policy};
use greengpu_sim::{JsonValue, SimDuration};
use std::time::Instant;

/// One timed run: returns (wall seconds, node-ticks/s, completed jobs).
fn timed(nodes: usize, horizon_s: u64, engine: EngineKind) -> (f64, f64, usize) {
    let mut cfg = FleetConfig::homogeneous(
        nodes,
        0.8,
        Policy::LeastLoaded,
        SimDuration::from_secs(horizon_s),
        BENCH_SEED,
    )
    .with_engine(engine);
    // Fixed fleet-wide trickle: the mostly-idle regime (see module doc).
    cfg.arrivals.rate_per_s = 2.0;
    let start = Instant::now();
    let report = run_fleet(&cfg);
    let wall = start.elapsed().as_secs_f64();
    let node_ticks = (nodes as u64 * horizon_s) as f64;
    (wall, node_ticks / wall.max(1e-9), report.completed.len())
}

fn main() {
    // (fleet size, virtual horizon for event, for serial).
    // Serial is O(fleet × ticks) regardless of load, so at 10k nodes it
    // gets a 360 s slice of the hour and is compared by rate.
    let scales: &[(usize, u64, u64)] = &[(100, 3600, 3600), (1_000, 3600, 3600), (10_000, 3600, 360)];
    let engines = [EngineKind::Serial, EngineKind::EventDriven];
    let mut rows: Vec<JsonValue> = Vec::new();
    for &(nodes, horizon, serial_horizon) in scales {
        let mut serial_rate = 0.0;
        for engine in engines {
            let h = if engine == EngineKind::Serial {
                serial_horizon
            } else {
                horizon
            };
            let (wall, rate, completed) = timed(nodes, h, engine);
            if engine == EngineKind::Serial {
                serial_rate = rate;
            }
            let speedup = if serial_rate > 0.0 { rate / serial_rate } else { 1.0 };
            println!(
                "{:>6} nodes  {:<9} {:>6} s virtual  {:>8.3} s wall  {:>12.0} node-ticks/s  {:>6.2}x vs serial  ({} jobs)",
                nodes,
                engine.label(),
                h,
                wall,
                rate,
                speedup,
                completed
            );
            rows.push(JsonValue::Obj(vec![
                ("nodes".to_string(), JsonValue::usize(nodes)),
                ("engine".to_string(), JsonValue::str(engine.label())),
                ("horizon_s".to_string(), JsonValue::u64(h)),
                ("wall_s".to_string(), JsonValue::f64(wall)),
                ("node_ticks_per_s".to_string(), JsonValue::f64(rate)),
                ("speedup_vs_serial".to_string(), JsonValue::f64(speedup)),
                ("completed_jobs".to_string(), JsonValue::usize(completed)),
            ]));
        }
    }
    let doc = JsonValue::Obj(vec![
        ("bench".to_string(), JsonValue::str("fleet_engines")),
        ("seed".to_string(), JsonValue::u64(BENCH_SEED)),
        (
            "methodology".to_string(),
            JsonValue::str(
                "node_ticks_per_s = nodes * control intervals / wall seconds; fixed 2 jobs/s \
                 fleet-wide arrival trickle (mostly-idle regime); serial@10k timed over a 360 s \
                 slice and compared by rate since its per-tick cost is load-independent; engine \
                 outputs proven byte-identical by crates/cluster/tests/engine_equivalence.rs",
            ),
        ),
        ("rows".to_string(), JsonValue::Arr(rows)),
    ]);
    let out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_6.json");
    std::fs::write(&out, format!("{doc}\n")).expect("write results/BENCH_6.json");
    println!("wrote results/BENCH_6.json");
}
