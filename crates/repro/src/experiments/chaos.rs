//! Chaos — the fleet failure-lifecycle sweep.
//!
//! Not a paper figure: the ICPP 2012 testbed never crashes. This
//! experiment drives the `greengpu-cluster` failure machinery — seeded
//! crash/thermal/blackout schedules, the node lifecycle FSM, learner
//! checkpointing, circuit breakers, and bounded-retry re-dispatch — and
//! reports what the paper's learners cost to kill and restart. Four
//! tables come out:
//!
//! 1. the chaos sweep: crash rate × checkpoint period × Tier-2 policy
//!    (crashes, warm/cold restarts, jobs lost/retried/dead-lettered,
//!    cap violations, recovery intervals);
//! 2. warm vs cold restart: checkpoint period swept at a fixed crash
//!    rate, isolating how much learner state is worth on restart;
//! 3. the per-crash power audit: every crash's cap before and at the
//!    first re-apportionment after it (reclamation within one interval);
//! 4. a representative per-interval trace of one chaotic fleet.
//!
//! Everything derives from the one seed, so the CSVs are byte-identical
//! across runs.

use super::ExperimentOutput;
use greengpu::{Exp3Params, PolicySpec};
use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, FleetReport, LifecycleParams, NodeConfig, Policy};
use greengpu_hw::ChaosPlan;
use greengpu_sim::{table::fnum, SimDuration, Table};

/// Crash rates swept, per node-second.
pub const CRASH_RATES: [f64; 2] = [0.01, 0.03];
/// Checkpoint periods swept (control ticks); `None` = cold restarts.
pub const CHECKPOINT_PERIODS: [Option<u64>; 4] = [None, Some(5), Some(10), Some(20)];
/// Sweep horizon, seconds.
pub const HORIZON_S: u64 = 120;
/// Fleet size for the sweep.
pub const NODES: usize = 4;
/// Budget fraction of aggregate peak-pair power.
pub const BUDGET_FRAC: f64 = 0.75;

const SWEEP_HEADERS: [&str; 14] = [
    "crash_rate",
    "checkpoint",
    "policy",
    "crashes",
    "warm_restarts",
    "cold_restarts",
    "jobs_lost",
    "jobs_retried",
    "dead_lettered",
    "completed",
    "cap_violations",
    "breaker_trips",
    "warm_recovery_ivals",
    "cold_recovery_ivals",
];

/// Stable CSV label for a checkpoint period.
fn ckpt_label(period: Option<u64>) -> String {
    match period {
        None => "cold".to_string(),
        Some(k) => format!("k{k}"),
    }
}

/// Stable CSV label for an `Option<f64>` metric (`-` when absent).
fn opt_num(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => fnum(x, decimals),
        None => "-".to_string(),
    }
}

/// A chaos fleet config: crashes at `rate`, plus light thermal and
/// blackout channels so all three failure modes compose in every run.
fn chaos_cfg(rate: f64, period: Option<u64>, policy_spec: &PolicySpec, horizon: SimDuration, seed: u64) -> FleetConfig {
    let nodes: Vec<NodeConfig> = (0..NODES)
        .map(|_| NodeConfig::default_node().with_freq_policy(policy_spec.clone()))
        .collect();
    let lifecycle = match period {
        None => LifecycleParams::default().cold_restarts(),
        Some(k) => LifecycleParams::default().with_checkpoint_period(k),
    };
    FleetConfig::from_nodes(nodes, BUDGET_FRAC, Policy::LeastLoaded, horizon, seed)
        .with_chaos(
            ChaosPlan::crashes_only(seed ^ 0xC4A05, rate, (2.0, 6.0))
                .with_thermal(0.005, (3.0, 8.0))
                .with_blackouts(0.005, (2.0, 5.0)),
        )
        .with_lifecycle(lifecycle)
}

fn sweep_row(table: &mut Table, rate: f64, period: Option<u64>, policy: &str, r: &FleetReport) {
    table.row(&[
        fnum(rate, 3),
        ckpt_label(period),
        policy.to_string(),
        r.crashes.to_string(),
        r.warm_restarts.to_string(),
        r.cold_restarts.to_string(),
        r.jobs_lost.to_string(),
        r.jobs_retried.to_string(),
        r.dead_letter.len().to_string(),
        r.completed.len().to_string(),
        r.cap_violations.to_string(),
        r.breaker_trips.to_string(),
        opt_num(r.mean_recovery_intervals(true), 2),
        opt_num(r.mean_recovery_intervals(false), 2),
    ]);
}

/// The full sweep behind `--experiment chaos`.
pub fn run(seed: u64) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(HORIZON_S);
    let policies: [(&str, PolicySpec); 2] = [
        ("wma", PolicySpec::default()),
        ("exp3", PolicySpec::Exp3(Exp3Params::default())),
    ];

    // Table 1: crash rate × checkpoint (cold vs k10) × policy.
    let mut sweep = Table::new(
        format!("Chaos sweep — {NODES} nodes, {BUDGET_FRAC} budget, {HORIZON_S} s horizon"),
        &SWEEP_HEADERS,
    );
    for &rate in &CRASH_RATES {
        for period in [None, Some(10u64)] {
            for (name, spec) in &policies {
                let cfg = chaos_cfg(rate, period, spec, horizon, seed);
                let r = run_fleet(&cfg);
                sweep_row(&mut sweep, rate, period, name, &r);
            }
        }
    }

    // Table 2: warm vs cold, checkpoint period swept at the high crash
    // rate under the paper's WMA.
    let mut warmcold = Table::new(
        format!(
            "Warm vs cold restart — {NODES} nodes, crash rate {} /node-s, WMA",
            fnum(CRASH_RATES[1], 3)
        ),
        &[
            "checkpoint",
            "crashes",
            "warm_restarts",
            "cold_restarts",
            "restore_failures",
            "warm_recovery_ivals",
            "cold_recovery_ivals",
            "completed",
            "dead_lettered",
        ],
    );
    let mut warm_ivals = None;
    let mut cold_ivals = None;
    for &period in &CHECKPOINT_PERIODS {
        let cfg = chaos_cfg(CRASH_RATES[1], period, &PolicySpec::default(), horizon, seed);
        let r = run_fleet(&cfg);
        if period == Some(5) {
            warm_ivals = r.mean_recovery_intervals(true);
        }
        if period.is_none() {
            cold_ivals = r.mean_recovery_intervals(false);
        }
        warmcold.row(&[
            ckpt_label(period),
            r.crashes.to_string(),
            r.warm_restarts.to_string(),
            r.cold_restarts.to_string(),
            r.restore_failures.to_string(),
            opt_num(r.mean_recovery_intervals(true), 2),
            opt_num(r.mean_recovery_intervals(false), 2),
            r.completed.len().to_string(),
            r.dead_letter.len().to_string(),
        ]);
    }

    // Table 3: the per-crash power audit of one chaotic run.
    let audit_cfg = chaos_cfg(CRASH_RATES[1], Some(10), &PolicySpec::default(), horizon, seed);
    let audit_run = run_fleet(&audit_cfg);
    let mut audit = Table::new(
        "Per-crash power audit — cap before the crash vs first re-apportionment after",
        &["crash", "node", "at_s", "cap_before_mw", "cap_after_mw"],
    );
    let mut reclaimed = 0usize;
    for (i, rec) in audit_run.crash_records.iter().enumerate() {
        if rec.cap_after_mw == Some(0) {
            reclaimed += 1;
        }
        audit.row(&[
            i.to_string(),
            rec.node.to_string(),
            fnum(rec.at_s, 3),
            rec.cap_before_mw.to_string(),
            rec.cap_after_mw.map_or_else(|| "-".to_string(), |c| c.to_string()),
        ]);
    }

    // Table 4: one chaotic fleet's per-interval trace.
    let trace_cfg = chaos_cfg(
        CRASH_RATES[1],
        Some(10),
        &PolicySpec::default(),
        SimDuration::from_secs(60),
        seed,
    );
    let trace_run = run_fleet(&trace_cfg);
    let trace = trace_run
        .trace
        .to_table("Per-interval trace — 4 nodes, chaos, k10 checkpoints, 60 s");

    let mut notes = Vec::new();
    notes.push(format!(
        "cap reclamation: {} of {} crashes saw the dark node's cap drop to 0 mW at the first \
         re-apportionment after the crash (the rest landed after the final tick).",
        reclaimed,
        audit_run.crash_records.len(),
    ));
    if let (Some(w), Some(c)) = (warm_ivals, cold_ivals) {
        notes.push(format!(
            "warm restarts pay off: restoring a k5 checkpoint re-reaches the pre-crash argmax \
             pair in {} intervals on average vs {} cold (the learner re-explores from uniform \
             weights otherwise).",
            fnum(w, 2),
            fnum(c, 2),
        ));
    }
    notes.push(format!(
        "no job silently lost: every admitted job is completed, dead-lettered, or still in \
         flight at the horizon ({} dead-lettered in the audit run after {} retries).",
        audit_run.dead_letter.len(),
        audit_run.jobs_retried,
    ));

    ExperimentOutput {
        id: "chaos",
        title: "Fleet failure lifecycle (chaos harness)",
        tables: vec![sweep, warmcold, audit, trace],
        notes,
    }
}

/// A single small chaotic fleet for the CI smoke: `nodes` default nodes
/// at 0.80 budget under crashes (+ thermal + blackouts) for `seconds`
/// simulated seconds, k5 checkpoints. Emits the summary and the trace.
pub fn run_custom(seed: u64, nodes: usize, seconds: u64, engine: EngineKind) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(seconds);
    let node_cfgs: Vec<NodeConfig> = (0..nodes).map(|_| NodeConfig::default_node()).collect();
    let cfg = FleetConfig::from_nodes(node_cfgs, 0.80, Policy::LeastLoaded, horizon, seed)
        .with_chaos(
            ChaosPlan::crashes_only(seed ^ 0xC4A05, 0.05, (2.0, 5.0))
                .with_thermal(0.01, (2.0, 5.0))
                .with_blackouts(0.01, (2.0, 4.0)),
        )
        .with_lifecycle(LifecycleParams::default().with_checkpoint_period(5))
        .with_engine(engine);
    let r = run_fleet(&cfg);
    let mut summary = Table::new(
        format!("Chaos smoke — {nodes} nodes, 0.80 budget, {seconds} s"),
        &SWEEP_HEADERS,
    );
    sweep_row(&mut summary, 0.05, Some(5), "wma", &r);
    let trace = r.trace.to_table("Chaos smoke — per-interval trace");
    ExperimentOutput {
        id: "chaos",
        title: "Fleet failure lifecycle (smoke configuration)",
        tables: vec![summary, trace],
        notes: vec![format!(
            "smoke: {} crashes ({} warm / {} cold restarts), {} jobs lost, {} retried, {} \
             dead-lettered, {} completed over {seconds} s.",
            r.crashes,
            r.warm_restarts,
            r.cold_restarts,
            r.jobs_lost,
            r.jobs_retried,
            r.dead_letter.len(),
            r.completed.len(),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_configuration_crashes() {
        let a = run_custom(7, 3, 40, EngineKind::Serial);
        assert_eq!(a.tables.len(), 2);
        // The smoke's crash rate (0.05/node-s × 3 nodes × 40 s ≈ 6) must
        // actually exercise the lifecycle.
        let sweep_csv = a.tables[0].to_csv();
        let row: Vec<&str> = sweep_csv.lines().nth(1).expect("one data row").split(',').collect();
        let crashes: u64 = row[3].parse().expect("crashes column");
        assert!(crashes > 0, "smoke must crash at least once: {sweep_csv}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ckpt_label(None), "cold");
        assert_eq!(ckpt_label(Some(10)), "k10");
        assert_eq!(opt_num(None, 2), "-");
        assert_eq!(opt_num(Some(1.5), 2), "1.50");
    }
}
