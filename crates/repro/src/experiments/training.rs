//! Training — phase-cycling ML workloads under phase-aware policies.
//!
//! Not a paper figure: the ICPP 2012 suite is stationary kernels, but
//! the deployment the paper's scaler targets increasingly looks like ML
//! training — forward/backward/optimizer stages cycling with sharply
//! different compute/memory intensity. This experiment runs the
//! long-horizon [`TrainingLoop`] under every Tier-2 policy and measures
//! who tracks the per-phase sweet spot:
//!
//! 1. **Head-to-head × phase period** (policy × stage length): energy,
//!    time, switches, best-static regret, and *oracle regret* — charged
//!    loss minus the per-interval closed-form sweet-spot pair's loss
//!    (the dynamic comparator the analytical oracle predicts).
//! 2. **Detector ablation**: the contextual bandits with the phase
//!    detector live vs disabled (`max_phases = 1`, one inner — the
//!    same learner stripped of context).
//!
//! The bandit rows run with switching shaping disabled (`-nosw`): the
//! switching penalty freezes a learner on whichever arm its forced
//! exploration happened to end (the one-step gain never amortizes the
//! myopic reclock cost), so the matched contextual-vs-flat comparison
//! is between pure learners; the shaping story lives in the `policies`
//! experiment. The acceptance claim — each contextual bandit ends with
//! strictly lower oracle regret than its context-free counterpart — is
//! asserted at the default seed in this module's tests.
//!
//! `run_custom` (the CI smoke behind `--nodes/--seconds/--engine`)
//! drives a training-only job mix through the fleet tier so the
//! serial and event engines can be byte-compared on training
//! output.

use super::{signed_pct, ExperimentOutput};
use greengpu::baselines::{run_with_policy, PolicyOutcome};
use greengpu::{
    pair_model_for, DeadlineParams, Exp3Params, FreqPolicy, GreenGpuConfig, PairModel, PhaseDetectorParams, PolicySpec,
    SwitchingParams, UcbParams, WmaParams,
};
use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, Policy};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_runtime::RunConfig;
use greengpu_sim::{table::fnum, SimDuration, SplitMix64, Table};
use greengpu_workloads::training::TrainingLoop;
use std::collections::BTreeMap;

/// Stage lengths swept, in iterations per forward/backward/optimizer
/// stage. Iterations run ≈4–7 s at paper scale, so these span phases of
/// roughly 3 to 20 DVFS intervals.
pub const PHASE_PERIODS: [usize; 3] = [2, 4, 8];

/// The policies of the sweep, in presentation order.
const POLICIES: [&str; 6] = ["wma", "exp3-nosw", "ucb-nosw", "ctx-exp3", "ctx-ucb", "deadline"];

/// Training iterations per run: long enough (≈700 DVFS intervals) for
/// every contextual inner to leave forced exploration of the 36-pair
/// grid (3 inners × 36 arms of cold start) with room to exploit the
/// per-phase structure it bought.
const ITERS: usize = 360;

/// Detector tuning for measured (rather than synthetic) utilization:
/// iterations are not aligned to the 3 s control interval, so boundary
/// intervals average two adjacent stages. A 3-tick window rejects such
/// isolated mixed observations (the fast re-recognition path keeps
/// recurring-phase lag at one tick regardless). The threshold is raised
/// to 0.35 deliberately: every phase slot is another 36-arm cold start,
/// and the optimizer stage is too short-lived (cheap iterations → few
/// control intervals) to ever pay one back, so the coarse threshold
/// folds it into the nearby backward phase — compute-bound forward
/// (share distance ≈ 0.9) still splits off — and the learners run two
/// sweeps instead of three.
fn detector() -> PhaseDetectorParams {
    PhaseDetectorParams {
        window: 3,
        threshold: 0.35,
        min_dwell: 2,
        max_phases: 3,
    }
}

/// The long-horizon training preset every policy runs: paper-scale
/// iteration cost, `period` iterations per stage.
fn training_run(period: usize, seed: u64) -> TrainingLoop {
    TrainingLoop::with_params(128, ITERS, period, 1.0, seed)
}

/// Unshaped bandit parameters — see the module docs for why the
/// matched comparison disables switching shaping.
fn exp3_nosw() -> Exp3Params {
    Exp3Params {
        switching: SwitchingParams::none(),
        ..Exp3Params::default()
    }
}

/// The UCB rows also drop the exploration coefficient to `c = 0.02`
/// (matched on both sides): within one training stage the per-arm loss
/// is essentially deterministic, so one forced sweep already yields
/// exact means and the default radius (sized for the mixed-kernel
/// stream) would keep every learner rotating near-ties forever.
fn ucb_nosw() -> UcbParams {
    UcbParams {
        c: 0.02,
        switching: SwitchingParams::none(),
        ..UcbParams::default()
    }
}

/// Builds one policy instance for the 6×6 grid, optionally overriding
/// the contextual policies' detector (the ablation hook).
fn build_policy(kind: &str, seed: u64, model: &PairModel, detector: PhaseDetectorParams) -> Box<dyn FreqPolicy> {
    // The contextual policies get the testbed's clock tables so phase
    // detection runs on demand shares — utilization is measured at the
    // applied clocks, and without the rescale the bandits' own
    // exploration reclocks masquerade as phase changes.
    let gpu = geforce_8800_gtx();
    let levels = Some((gpu.core_levels_mhz.clone(), gpu.mem_levels_mhz.clone()));
    let spec = match kind {
        "wma" => PolicySpec::Wma(WmaParams::default()),
        "exp3-nosw" => PolicySpec::Exp3(exp3_nosw()),
        "ucb-nosw" => PolicySpec::Ucb(ucb_nosw()),
        "ctx-exp3" => PolicySpec::ContextualExp3 {
            inner: exp3_nosw(),
            detector,
            levels,
        },
        "ctx-ucb" => PolicySpec::ContextualUcb {
            inner: ucb_nosw(),
            detector,
            levels,
        },
        "deadline" => PolicySpec::Deadline(DeadlineParams {
            time_budget_s: model.peak_time_s() * 1.25,
            ..DeadlineParams::default()
        }),
        other => unreachable!("unknown policy {other}"),
    };
    spec.build(6, 6, seed, Some(model)).expect("sweep specs are valid")
}

/// Runs one (policy, phase period) cell.
fn run_cell(kind: &str, period: usize, wl_seed: u64, policy_seed: u64, detector: PhaseDetectorParams) -> PolicyOutcome {
    let gpu = geforce_8800_gtx();
    let model = pair_model_for(&training_run(period, wl_seed), &gpu);
    let policy = build_policy(kind, policy_seed, &model, detector);
    let mut wl = training_run(period, wl_seed);
    run_with_policy(&mut wl, GreenGpuConfig::scaling_only(), RunConfig::sweep(), policy)
}

/// Runs every (policy, period) pair once. Each period gets one derived
/// workload seed (identical across policies) and each policy one
/// derived decision-stream seed.
fn sweep(seed: u64) -> BTreeMap<(usize, String), PolicyOutcome> {
    let mut root = SplitMix64::new(seed);
    let mut out = BTreeMap::new();
    for period in PHASE_PERIODS {
        let wl_seed = root.next_u64();
        for kind in POLICIES {
            let policy_seed = root.next_u64();
            let outcome = run_cell(kind, period, wl_seed, policy_seed, detector());
            out.insert((period, kind.to_string()), outcome);
        }
    }
    out
}

/// Column contract for the head-to-head CSV, pinned against
/// EXPERIMENTS.md by the `contract_drift` lint rule.
// lint:contract(training_head_to_head_columns)
const HEAD_TO_HEAD_COLUMNS: [&str; 9] = [
    "phase_period",
    "policy",
    "GPU energy (kJ)",
    "system energy (kJ)",
    "time (s)",
    "switches",
    "regret",
    "oracle regret",
    "vs wma energy",
];

/// Table 1: the head-to-head sweep across phase periods.
fn head_to_head_table(results: &BTreeMap<(usize, String), PolicyOutcome>) -> Table {
    let mut t = Table::new(
        format!("Training head-to-head (scaling tier, {ITERS} iterations, paper-scale cost)"),
        &HEAD_TO_HEAD_COLUMNS,
    );
    for period in PHASE_PERIODS {
        let wma_energy = results[&(period, "wma".to_string())].report.total_energy_j();
        for kind in POLICIES {
            let o = &results[&(period, kind.to_string())];
            t.row(&[
                period.to_string(),
                o.policy.clone(),
                fnum(o.report.gpu_energy_j / 1e3, 2),
                fnum(o.report.total_energy_j() / 1e3, 2),
                fnum(o.report.total_time.as_secs_f64(), 1),
                o.telemetry.switches.to_string(),
                fnum(o.telemetry.regret, 3),
                fnum(o.telemetry.oracle_regret, 3),
                signed_pct(o.report.total_energy_j() / wma_energy - 1.0),
            ]);
        }
    }
    t
}

/// Table 2: the contextual bandits with the detector live vs disabled.
/// Seeds mirror [`sweep`] exactly so the "on" column is the same run
/// that appears in table 1.
fn detector_ablation_table(seed: u64, results: &BTreeMap<(usize, String), PolicyOutcome>) -> Table {
    let mut t = Table::new(
        "Phase-detector ablation (same contextual learner, detector on vs off)",
        &[
            "phase_period",
            "policy",
            "oracle regret (detector on)",
            "oracle regret (detector off)",
            "switches (on)",
            "switches (off)",
        ],
    );
    let mut root = SplitMix64::new(seed);
    for period in PHASE_PERIODS {
        let wl_seed = root.next_u64();
        let mut seeds = BTreeMap::new();
        for kind in POLICIES {
            seeds.insert(kind, root.next_u64());
        }
        for kind in ["ctx-exp3", "ctx-ucb"] {
            let on = &results[&(period, kind.to_string())];
            let off = run_cell(kind, period, wl_seed, seeds[kind], PhaseDetectorParams::disabled());
            t.row(&[
                period.to_string(),
                on.policy.clone(),
                fnum(on.telemetry.oracle_regret, 3),
                fnum(off.telemetry.oracle_regret, 3),
                on.telemetry.switches.to_string(),
                off.telemetry.switches.to_string(),
            ]);
        }
    }
    t
}

/// Runs the full training experiment.
pub fn run(seed: u64) -> ExperimentOutput {
    let results = sweep(seed);
    ExperimentOutput {
        id: "training",
        title: "Phase-cycling training workloads: contextual bandits vs context-free policies",
        tables: vec![head_to_head_table(&results), detector_ablation_table(seed, &results)],
        notes: vec![
            "Oracle regret charges each policy against the per-interval closed-form sweet-spot pair \
             (the analytical min-EDP oracle), the dynamic comparator that lower-bounds every static pair."
                .to_string(),
            "The contextual bandits keep one inner learner per detected phase; at the default seed each \
             ends with strictly lower oracle regret than its context-free counterpart on every phase period."
                .to_string(),
            "Bandit rows run unshaped (-nosw): switching penalties freeze a 36-arm learner on whichever \
             arm forced exploration ends, which would confound the contextual-vs-flat comparison."
                .to_string(),
            "The detector-off ablation (max_phases = 1) collapses a contextual policy to a single inner — \
             the regret it gives back is what phase awareness alone buys."
                .to_string(),
        ],
    }
}

/// The CI smoke behind `--experiment training --nodes/--seconds/--engine`:
/// a training-only job mix through the fleet tier, so the engines can be
/// byte-compared on training output.
pub fn run_custom(seed: u64, nodes: usize, seconds: u64, engine: EngineKind) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(seconds);
    let mut cfg = FleetConfig::homogeneous(nodes, 0.80, Policy::LeastLoaded, horizon, seed).with_engine(engine);
    cfg.arrivals.mix = vec![("training".to_string(), 1.0)];
    let r = run_fleet(&cfg);
    let mut summary = Table::new(
        format!("Training fleet smoke — {nodes} nodes, 0.80 budget, {seconds} s, training-only mix"),
        &[
            "nodes",
            "completed",
            "rejected",
            "deadline_misses",
            "mean_wait_s",
            "mean_turnaround_s",
            "gpu_energy_per_job_j",
            "cap_violations",
        ],
    );
    summary.row(&[
        nodes.to_string(),
        r.completed.len().to_string(),
        r.rejected.to_string(),
        r.deadline_misses.to_string(),
        fnum(r.mean_wait_s(), 3),
        fnum(r.mean_turnaround_s(), 3),
        fnum(r.gpu_energy_per_job_j(), 1),
        r.cap_violations.to_string(),
    ]);
    let trace = r.trace.to_table("Training fleet smoke — per-interval trace");
    ExperimentOutput {
        id: "training",
        title: "Phase-cycling training workloads (fleet smoke configuration)",
        tables: vec![summary, trace],
        notes: vec![format!(
            "smoke: {} training jobs completed on {} nodes over {} s.",
            r.completed.len(),
            nodes,
            seconds,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    /// The acceptance cell: at the default seed, each contextual bandit
    /// ends with strictly lower oracle regret than its context-free
    /// counterpart (same inner parameters) on every phase period.
    #[test]
    fn contextual_bandits_beat_context_free_at_default_seed() {
        let results = sweep(DEFAULT_SEED);
        for period in PHASE_PERIODS {
            for (ctx, flat) in [("ctx-exp3", "exp3-nosw"), ("ctx-ucb", "ucb-nosw")] {
                let r_ctx = results[&(period, ctx.to_string())].telemetry.oracle_regret;
                let r_flat = results[&(period, flat.to_string())].telemetry.oracle_regret;
                assert!(
                    r_ctx < r_flat,
                    "period {period}: {ctx} oracle regret {r_ctx} vs {flat} {r_flat}"
                );
            }
        }
    }

    #[test]
    fn head_to_head_covers_every_policy_and_period() {
        let results = sweep(1);
        assert_eq!(results.len(), PHASE_PERIODS.len() * POLICIES.len());
        let csv = head_to_head_table(&results).to_csv();
        assert_eq!(csv.lines().count(), 1 + PHASE_PERIODS.len() * POLICIES.len());
        for kind in [
            "wma",
            "exp3-nosw",
            "ucb-nosw",
            "ctx-exp3-nosw",
            "ctx-ucb-nosw",
            "deadline",
        ] {
            assert!(csv.contains(kind), "{kind} missing from table");
        }
    }

    #[test]
    fn experiment_is_byte_deterministic_per_seed() {
        let a: Vec<String> = run(7).tables.iter().map(|t| t.to_csv()).collect();
        let b: Vec<String> = run(7).tables.iter().map(|t| t.to_csv()).collect();
        assert_eq!(a, b, "same seed must reproduce the CSVs byte-for-byte");
    }

    #[test]
    fn fleet_smoke_fills_its_table() {
        let a = run_custom(7, 2, 30, EngineKind::Serial);
        assert!(!a.tables[0].to_csv().is_empty());
    }
}
