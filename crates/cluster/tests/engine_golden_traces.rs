//! Golden-trace pins for the event-driven fleet engine.
//!
//! One small-fleet run per Tier-2 policy family, with the full telemetry
//! CSV checked in under `tests/golden/`. The differential harness
//! (`engine_equivalence.rs`) proves the engines agree with *each other*;
//! these pins additionally freeze the absolute bytes, so an accidental
//! behavior change that shifts *all* engines in lockstep — which the
//! differential tests are blind to — still fails loudly.
//!
//! When a change intentionally moves the traces, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p greengpu-cluster --test engine_golden_traces
//! ```
//!
//! and review the diff like any other code change.

use greengpu::{DeadlineParams, Exp3Params, UcbParams};
use greengpu_cluster::power::mw;
use greengpu_cluster::{
    run_fleet, EngineKind, FleetConfig, JobSpec, Node, NodeConfig, NodeState, Policy, PolicySpec, Topology,
};
use greengpu_hw::ChaosPlan;
use greengpu_sim::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned scenario: a 3-node fleet with every failure mechanism
/// armed, driven by the event-driven engine for 30 simulated seconds.
fn pinned_report(spec: PolicySpec) -> String {
    let nodes: Vec<NodeConfig> = (0..3)
        .map(|_| NodeConfig::default_node().with_freq_policy(spec.clone()))
        .collect();
    let cfg = FleetConfig::from_nodes(nodes, 0.8, Policy::LeastLoaded, SimDuration::from_secs(30), 0x60_1D)
        .with_chaos(
            ChaosPlan::crashes_only(0x60_1D ^ 0xC4A05, 0.02, (2.0, 6.0))
                .with_thermal(0.01, (3.0, 8.0))
                .with_blackouts(0.01, (2.0, 5.0)),
        )
        .with_engine(EngineKind::EventDriven);
    let report = run_fleet(&cfg);
    // CSV plus the scalar outcomes a trace row can't carry, so the pin
    // also covers completion counts, the crash audit, and conservation.
    format!(
        "{}# completed={} deadline_misses={} rejected={} crashes={} warm={} cold={} \
         jobs_lost={} jobs_retried={} dead_letter={} stray={} gpu_energy_j={:?} total_energy_j={:?}\n",
        report.trace.to_table("golden").to_csv(),
        report.completed.len(),
        report.deadline_misses,
        report.rejected,
        report.crashes,
        report.warm_restarts,
        report.cold_restarts,
        report.jobs_lost,
        report.jobs_retried,
        report.dead_letter.len(),
        report.stray_blackout_events,
        report.gpu_energy_j,
        report.total_energy_j,
    )
}

fn check(name: &str, spec: PolicySpec) {
    check_pin(name, &pinned_report(spec));
}

fn check_pin(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.csv"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        got, want,
        "event-driven trace for `{name}` drifted from the pin; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The hierarchical pin: a 2×2×2×1 topology with every correlated
/// failure channel armed, run event-driven. Freezes the geo trace (the
/// per-level cap/demand/breaker rows), the domain-outage audit, and the
/// fleet trace bytes so a lockstep drift in the budget cascade fails.
fn pinned_geo_report() -> String {
    let topo = Topology::uniform(2, 2, 2, 1);
    let nodes: Vec<NodeConfig> = (0..topo.n_nodes()).map(|_| NodeConfig::default_node()).collect();
    let cfg = FleetConfig::from_nodes(nodes, 0.8, Policy::LeastLoaded, SimDuration::from_secs(30), 0x60_1D)
        .with_chaos(
            ChaosPlan::crashes_only(0x60_1D ^ 0xC4A05, 0.01, (2.0, 6.0))
                .with_rack_loss(0.02, (3.0, 8.0))
                .with_zone_thermal(0.04, (4.0, 10.0))
                .with_partitions(0.02, (3.0, 9.0)),
        )
        .with_topology(topo)
        .with_engine(EngineKind::EventDriven);
    let report = run_fleet(&cfg);
    let mut audit = String::new();
    for r in &report.domain_records {
        audit.push_str(&format!(
            "# outage rack={} zone={} at={:.3} rack_cap={}→{:?} zone_cap={}→{:?} siblings={}→{:?}\n",
            r.rack,
            r.zone,
            r.at_s,
            r.rack_cap_before_mw,
            r.rack_cap_after_mw,
            r.zone_cap_before_mw,
            r.zone_cap_after_mw,
            r.sibling_caps_before_mw,
            r.sibling_caps_after_mw,
        ));
    }
    format!(
        "{}{}{audit}# rack_losses={} zone_thermals={} partitions={} rack_trips={} zone_trips={} \
         interior_violations={} completed={} dead_letter={} overflow={}\n",
        report.trace.to_table("golden").to_csv(),
        report.geo_trace.to_table("golden-geo").to_csv(),
        report.rack_losses,
        report.zone_thermal_emergencies,
        report.zone_partitions,
        report.rack_breaker_trips,
        report.zone_breaker_trips,
        report.interior_cap_violations,
        report.completed.len(),
        report.dead_letter.len(),
        report.dead_letter_overflow,
    )
}

#[test]
fn geo_trace_is_pinned() {
    let got = pinned_geo_report();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/geo.csv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        got, want,
        "geo trace drifted from the pin; if intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

#[test]
fn wma_trace_is_pinned() {
    check("wma", PolicySpec::default());
}

#[test]
fn exp3_trace_is_pinned() {
    check("exp3", PolicySpec::Exp3(Exp3Params::default()));
}

#[test]
fn ucb_trace_is_pinned() {
    check("ucb", PolicySpec::Ucb(UcbParams::default()));
}

#[test]
fn deadline_trace_is_pinned() {
    check(
        "deadline",
        PolicySpec::Deadline(DeadlineParams {
            time_budget_s: 120.0,
            ..DeadlineParams::default()
        }),
    );
}

/// The long-idle fleet: three WMA nodes at a trickle of arrivals for
/// 240 s, event-driven. Node 1 idles from the start past the learner's
/// idle fixed point (154 ticks) and only then takes its first job; node 2 crashes at ~53 s while still idle since the start
/// and warm-restores the checkpoint recorded at tick 50, mid-way through
/// the idle transient. The other pins run 30 s and never get that far.
fn pinned_long_idle_report() -> String {
    let mut cfg = FleetConfig::homogeneous(3, 0.8, Policy::LeastLoaded, SimDuration::from_secs(240), 31)
        .with_chaos(ChaosPlan::crashes_only(31 ^ 0xC4A05, 0.0015, (2.0, 6.0)))
        .with_engine(EngineKind::EventDriven);
    cfg.arrivals.rate_per_s = 0.008;
    let report = run_fleet(&cfg);
    // The scenario this pin exists for; a config edit that loses it
    // must fail here, not pass vacuously.
    let first_job = |node: usize| {
        report
            .completed
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.started.as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    };
    assert!(
        (160.0..240.0).contains(&first_job(1)),
        "node 1 must idle past the fixed point first"
    );
    assert!(
        report
            .crash_records
            .iter()
            .any(|c| c.node == 2 && c.at_s > 50.0 && c.at_s < first_job(2)),
        "node 2 must crash while idle since the start, after a checkpoint"
    );
    assert_eq!((report.warm_restarts, report.cold_restarts), (1, 0));
    let mut crashes = String::new();
    for c in &report.crash_records {
        writeln!(crashes, "# crash node={} at={:?}", c.node, c.at_s).expect("write to String");
    }
    format!(
        "{}{crashes}# completed={} crashes={} warm={} cold={} gpu_energy_j={:?} total_energy_j={:?}\n",
        report.trace.to_table("golden").to_csv(),
        report.completed.len(),
        report.crashes,
        report.warm_restarts,
        report.cold_restarts,
        report.gpu_energy_j,
        report.total_energy_j,
    )
}

/// The learner state a long idle leaves behind, read where a fleet
/// report cannot: two WMA nodes driven one second at a time through the
/// public `Node` API, skipping a node's control tick while it is parked
/// under the (fixed) cap without crediting it. (The event-driven engine
/// hands a parked node those ticks at its next credit, so the interval
/// counts pinned here are this driver's, below Serial's.) Node 0 idles
/// from the start past the idle fixed point, parks, then serves a job at
/// tick 200. Node 1 crashes at tick 53 while idle since the start and
/// warm-restores the checkpoint recorded at tick 50. Pins one row per
/// tick, the checkpoint node 1 restores, and each node's final
/// `checkpoint_data()`.
fn pinned_long_idle_checkpoints() -> String {
    let mix = ["hotspot".to_string(), "kmeans".to_string()];
    let cfg = NodeConfig::default_node();
    let mut nodes: Vec<Node> = (0..2).map(|id| Node::new(id, &cfg, &mix, 0x60_1D)).collect();
    let cap = mw(0.8 * cfg.gpu.peak_power_w());
    let mut out = String::from("tick,node,state,core,mem,parked,completed\n");
    let mut restored = None;
    let mut t = SimTime::ZERO;
    for k in 1..=260u64 {
        let now = SimTime::from_secs(k);
        for node in &mut nodes {
            node.advance(t, now);
            node.lifecycle_tick(now);
            if node.is_alive() && node.parked_under() != Some(cap) {
                node.control_tick_parkable(now, cap);
            }
            if k % 10 == 0 && node.state() == NodeState::Up {
                node.take_checkpoint();
            }
            let (c, m) = node.current_pair();
            writeln!(
                out,
                "{k},{},{:?},{c},{m},{},{}",
                node.id(),
                node.state(),
                node.is_parked(),
                node.completed()
            )
            .expect("write to String");
        }
        if k == 53 {
            restored = nodes[1].checkpoint_data();
            assert!(nodes[1].crash(now, 3.0).is_none(), "node 1 is idle");
        }
        if k == 200 {
            assert!(nodes[0].is_parked(), "node 0 parked at the idle fixed point");
            nodes[0].dispatch(
                JobSpec {
                    id: 0,
                    workload: "kmeans".to_string(),
                    arrival: now,
                    size: 0.5,
                    deadline: None,
                    tenant: 0,
                },
                now,
            );
        }
        t = now;
    }
    assert_eq!(nodes[1].warm_restarts(), 1);
    assert_eq!(nodes[0].completed(), 1);
    writeln!(out, "# restored node=1 {}", restored.unwrap_or_default()).expect("write to String");
    for node in &nodes {
        writeln!(
            out,
            "# final node={} {}",
            node.id(),
            node.checkpoint_data().unwrap_or_default()
        )
        .expect("write to String");
    }
    out
}

#[test]
fn long_idle_trace_is_pinned() {
    check_pin("long_idle", &pinned_long_idle_report());
}

#[test]
fn long_idle_checkpoints_are_pinned() {
    check_pin("long_idle_checkpoints", &pinned_long_idle_checkpoints());
}
