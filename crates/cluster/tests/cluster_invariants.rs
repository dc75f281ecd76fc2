//! Fleet-level invariants: budget safety, cap compliance, determinism,
//! and composition with the PR-1 fault-injection seam.

use greengpu::{DeadlineParams, Exp3Params, UcbParams};
use greengpu_cluster::{apportion, run_fleet, FleetConfig, Node, NodeConfig, NodeDemand, Policy, PolicySpec};
use greengpu_hw::FaultPlan;
use greengpu_sim::SimDuration;
use proptest::prelude::*;
use std::sync::Arc;

fn small_fleet(n: usize, budget_frac: f64, policy: Policy, seed: u64) -> FleetConfig {
    FleetConfig::homogeneous(n, budget_frac, policy, SimDuration::from_secs(30), seed)
}

/// The Tier-2 frequency policies the per-node cap invariant must hold
/// under — one spec per [`PolicySpec`] family.
fn freq_policy_specs() -> [PolicySpec; 4] {
    [
        PolicySpec::default(),
        PolicySpec::Exp3(Exp3Params::default()),
        PolicySpec::Ucb(UcbParams::default()),
        PolicySpec::Deadline(DeadlineParams {
            time_budget_s: 120.0,
            ..DeadlineParams::default()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Acceptance invariant, part 1 (pure): for arbitrary demands the
    /// apportioned caps sum to at most the budget, and cover every floor
    /// whenever the budget does.
    #[test]
    fn apportioned_caps_never_exceed_the_budget(
        budget in 0u64..2_000_000,
        raw in proptest::collection::vec((0u64..300_000, 0u64..300_000, 0u64..300_000, any::<bool>()), 1..12),
    ) {
        let demands: Vec<NodeDemand> = raw
            .iter()
            .map(|&(a, b, c, busy)| {
                let mut v = [a, b, c];
                v.sort_unstable();
                NodeDemand { floor_mw: v[0], desired_mw: v[1], peak_mw: v[2], busy }
            })
            .collect();
        let caps = apportion(budget, &demands);
        prop_assert_eq!(caps.len(), demands.len());
        prop_assert!(caps.iter().sum::<u64>() <= budget);
        let floor_sum: u64 = demands.iter().map(|d| d.floor_mw).sum();
        if budget >= floor_sum {
            for (cap, d) in caps.iter().zip(&demands) {
                prop_assert!(*cap >= d.floor_mw, "floor uncovered: {} < {}", cap, d.floor_mw);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance invariant, part 2 (end-to-end): across whole fleet
    /// runs — whatever Tier-2 frequency policy the nodes run — the summed
    /// per-node caps stay under the budget every interval, and no clean
    /// node's enforced frequency pair ever models more power than its cap.
    #[test]
    fn clean_fleets_always_respect_their_caps(
        seed in 1u64..10_000,
        n in 2usize..4,
        budget_frac in 0.62f64..1.0,
        policy_idx in 0usize..3,
        freq_idx in 0usize..4,
    ) {
        let mut cfg = small_fleet(n, budget_frac, Policy::ALL[policy_idx], seed);
        let freq = freq_policy_specs()[freq_idx].clone();
        for node in &mut cfg.nodes {
            node.freq_policy = freq.clone();
        }
        let report = run_fleet(&cfg);
        prop_assert!(!report.trace.rows.is_empty());
        for row in &report.trace.rows {
            prop_assert!(
                row.fleet_cap_w <= row.budget_w + 1e-9,
                "interval {}: caps {} exceed budget {}",
                row.interval, row.fleet_cap_w, row.budget_w
            );
            prop_assert_eq!(
                row.max_pair_over_cap_w, 0.0,
                "interval {}: a clean node enforced a pair over its cap", row.interval
            );
        }
        prop_assert_eq!(report.cap_violations, 0);
    }
}

#[test]
fn fleet_config_validation_names_the_offender() {
    let mut cfg = small_fleet(2, 0.8, Policy::RoundRobin, 1);
    assert!(cfg.try_validate().is_ok());
    cfg.nodes[1].freq_policy = PolicySpec::Wma(greengpu::WmaParams {
        beta: 0.0,
        ..greengpu::WmaParams::default()
    });
    let err = cfg.try_validate().unwrap_err();
    assert!(err.contains("node 1") && err.contains("beta"), "{err}");
    let mut cfg = small_fleet(2, 0.8, Policy::RoundRobin, 1);
    cfg.budget_w = f64::NAN;
    assert!(cfg.try_validate().unwrap_err().contains("budget_w"));
}

/// Malformed hardware level tables used to pass validation and then
/// panic in the frequency-domain constructor. Each is now refused, with
/// the field named, by both entry points, before anything is built.
#[test]
fn malformed_level_tables_are_refused_by_both_entry_points() {
    type Break = fn(&mut NodeConfig);
    let cases: [(Break, &str); 9] = [
        (
            |n| Arc::make_mut(&mut n.gpu).core_levels_mhz = vec![575.0],
            "gpu.core_levels_mhz: need at least two",
        ),
        (
            |n| Arc::make_mut(&mut n.gpu).core_levels_mhz.clear(),
            "gpu.core_levels_mhz: need at least two",
        ),
        (
            |n| Arc::make_mut(&mut n.gpu).mem_levels_mhz.reverse(),
            "gpu.mem_levels_mhz: levels must be strictly ascending",
        ),
        (
            |n| Arc::make_mut(&mut n.gpu).mem_levels_mhz[0] = f64::NAN,
            "gpu.mem_levels_mhz: levels must be finite",
        ),
        (
            |n| Arc::make_mut(&mut n.gpu).core_levels_mhz[0] = -1.0,
            "gpu.core_levels_mhz: levels must be finite and positive",
        ),
        (
            |n| Arc::make_mut(&mut n.gpu).core_volts = Some(vec![1.1; 5]),
            "gpu.core_volts: need one entry per level (6), got 5",
        ),
        (
            |n| Arc::make_mut(&mut n.gpu).mem_volts = Some(vec![1.8; 7]),
            "gpu.mem_volts: need one entry per level (6), got 7",
        ),
        (
            |n| Arc::make_mut(&mut n.cpu).levels_mhz.truncate(1),
            "cpu.levels_mhz: need at least two",
        ),
        (
            |n| Arc::make_mut(&mut n.cpu).volts.truncate(1),
            "cpu.volts: need one entry per level",
        ),
    ];
    let mix = vec!["hotspot".to_string(), "kmeans".to_string()];
    for (k, (break_it, want)) in cases.into_iter().enumerate() {
        let mut cfg = small_fleet(4, 0.8, Policy::RoundRobin, 1);
        break_it(&mut cfg.nodes[3]);
        let err = cfg.try_validate().unwrap_err();
        assert!(err.starts_with(&format!("node 3: {want}")), "case {k}: {err}");
        let err = Node::try_new(3, &cfg.nodes[3], &mix, 1).err().expect("try_new refuses");
        assert!(err.starts_with(want), "case {k}: {err}");
    }
    // The constructors still accept every well-formed variant.
    let mut ok = NodeConfig::default_node();
    Arc::make_mut(&mut ok.gpu).core_volts = Some(vec![1.1; 6]);
    assert!(ok.try_validate().is_ok());
    assert!(Node::try_new(0, &ok, &mix, 1).is_ok());
}

/// Malformed arrival streams used to pass validation and then panic in
/// the arrival generator or node construction, or, with an infinite
/// rate, generate jobs until memory ran out. Each is now refused by
/// `try_validate` with `arrivals` and the field named; none is run.
#[test]
fn malformed_arrival_streams_are_refused_before_the_run() {
    type Break = fn(&mut FleetConfig);
    let cases: [(Break, &str); 12] = [
        (|c| c.arrivals.rate_per_s = 0.0, "rate_per_s must be finite and > 0"),
        (|c| c.arrivals.rate_per_s = -1.0, "rate_per_s must be finite and > 0"),
        (|c| c.arrivals.rate_per_s = f64::INFINITY, "rate_per_s must be finite"),
        (|c| c.arrivals.mix.clear(), "mix must not be empty"),
        (
            |c| c.arrivals.mix[1].0 = "warpdrive".to_string(),
            "mix names a workload the fleet cannot profile: \"warpdrive\"",
        ),
        (|c| c.arrivals.mix[0].1 = -1.0, "mix weight for \"hotspot\" must be"),
        (|c| c.arrivals.mix[1].1 = f64::NAN, "mix weight for \"kmeans\" must be"),
        (|c| c.arrivals.size_range.0 = f64::NAN, "size_range must satisfy"),
        (|c| c.arrivals.size_range = (2.0, 1.0), "size_range must satisfy"),
        (|c| c.arrivals.deadline_frac = 1.5, "deadline_frac must be in [0, 1]"),
        (|c| c.arrivals.deadline_frac = f64::NAN, "deadline_frac must be in"),
        (|c| c.arrivals.deadline_slack = (0.0, 6.0), "deadline_slack must"),
    ];
    for (k, (break_it, want)) in cases.into_iter().enumerate() {
        let mut cfg = small_fleet(2, 0.8, Policy::RoundRobin, 1);
        break_it(&mut cfg);
        let err = cfg.try_validate().unwrap_err();
        assert!(err.starts_with(&format!("arrivals: {want}")), "case {k}: {err}");
    }
    // `training` is profiled like any Table II workload, so it stays a
    // valid mix name.
    let mut cfg = small_fleet(2, 0.8, Policy::RoundRobin, 1);
    cfg.arrivals.mix = vec![("training".to_string(), 1.0)];
    assert!(cfg.try_validate().is_ok());
}

#[test]
fn fleet_traces_are_byte_deterministic() {
    let make = || {
        let cfg = small_fleet(3, 0.75, Policy::EnergyAware, 4242);
        let report = run_fleet(&cfg);
        report.trace.to_table("cluster trace").to_csv()
    };
    let a = make();
    let b = make();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the trace byte-for-byte");

    let cfg = small_fleet(3, 0.75, Policy::EnergyAware, 4243);
    let c = run_fleet(&cfg).trace.to_table("cluster trace").to_csv();
    assert_ne!(a, c, "a different seed must actually change the run");
}

#[test]
fn tight_budgets_cut_fleet_power() {
    let loose = run_fleet(&small_fleet(3, 1.0, Policy::RoundRobin, 99));
    let tight = run_fleet(&small_fleet(3, 0.65, Policy::RoundRobin, 99));
    assert!(
        tight.gpu_energy_j < loose.gpu_energy_j,
        "capping must reduce GPU energy: {} vs {}",
        tight.gpu_energy_j,
        loose.gpu_energy_j
    );
    assert!(!loose.completed.is_empty() && !tight.completed.is_empty());
}

#[test]
fn fleet_serves_and_completes_jobs() {
    let report = run_fleet(&small_fleet(3, 0.8, Policy::LeastLoaded, 7));
    assert!(!report.completed.is_empty(), "no jobs completed");
    assert_eq!(report.nodes_fallen_back, 0);
    assert!(report.mean_wait_s() >= 0.0);
    assert!(report.gpu_energy_j > 0.0 && report.total_energy_j > report.gpu_energy_j);
    // Completion ids are unique.
    let mut ids: Vec<u64> = report.completed.iter().map(|r| r.spec.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), report.completed.len());
}

#[test]
fn faulty_node_falls_back_and_the_scheduler_routes_around_it() {
    let mut cfg = FleetConfig::homogeneous(3, 0.85, Policy::RoundRobin, SimDuration::from_secs(90), 2026);
    // Node 0's sensing is heavily faulted and its actuation path is
    // fully broken (every reclock silently dropped), so its hardened
    // controller must engage the best-performance fallback (PR-1 seam);
    // the others stay clean.
    let mut plan = FaultPlan::with_intensity(555, 1.0);
    plan.actuation = greengpu_hw::faults::ActuationFaults {
        drop_prob: 1.0,
        offset_prob: 0.0,
        delay_prob: 0.0,
    };
    cfg.nodes[0] = NodeConfig::default_node().with_fault(plan);
    let report = run_fleet(&cfg);

    assert_eq!(report.nodes_fallen_back, 1, "node 0 must engage its fallback");
    let fallback_time_s = report
        .trace
        .rows
        .iter()
        .find(|r| r.healthy_nodes < 3)
        .expect("fallback must appear in telemetry")
        .time_s;
    // After the fallback is visible, nothing new is dispatched to node 0.
    for rec in report.completed.iter().filter(|r| r.node == 0) {
        let started = rec.started.saturating_since(greengpu_sim::SimTime::ZERO).as_secs_f64();
        assert!(
            started <= fallback_time_s,
            "job {} dispatched to the fallen-back node at {started}s (fallback at {fallback_time_s}s)",
            rec.spec.id
        );
    }
    // The healthy nodes keep the fleet serving.
    let healthy_completed: u64 = report.per_node_completed[1] + report.per_node_completed[2];
    assert!(healthy_completed > 0, "healthy nodes must keep completing jobs");
    // A pinned-peak fallback node shows up as cap violations, not silence.
    assert!(report.cap_violations > 0);
}
