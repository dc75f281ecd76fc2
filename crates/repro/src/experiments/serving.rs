//! Serving — the multi-tenant SLO/carbon-aware dispatch sweep.
//!
//! Not a paper figure: the ICPP 2012 testbed serves one anonymous job
//! stream. This experiment drives the `greengpu-tenancy` +
//! `greengpu-cluster` serving layer — named tenants with their own
//! arrival processes (diurnal, bursty, batch-window), SLO classes
//! (latency-, throughput-, best-effort), and a seeded carbon-intensity
//! signal — across tenant mix × fleet budget × dispatcher. The nodes
//! run the deadline-aware Tier-2 selector with a time budget derived
//! from the latency tenant's slack ([`SloClass::deadline_params`]), so
//! latency-bound jobs dispatch immediately under slack-derived frequency
//! caps while the carbon-aware dispatcher shifts best-effort work into
//! green windows. Three tables come out:
//!
//! 1. the per-tenant summary (admission, completion, deadline-miss
//!    rate, turnaround, energy/job, and carbon-weighted energy/job per
//!    sweep cell);
//! 2. the dispatcher comparison (carbon-blind vs carbon-aware per cell:
//!    best-effort carbon intensity per job, latency-tenant miss rate,
//!    deferral counts, and the min/max completion-rate fairness ratio);
//! 3. a representative per-interval serving trace (carbon intensity,
//!    green windows, deferral-queue depth).
//!
//! The acceptance cell: on the reference mix, carbon-aware dispatch
//! must strictly reduce the best-effort tenant's carbon-weighted energy
//! per completed job without raising the latency tenant's deadline-miss
//! rate — asserted in this module's tests.
//!
//! Everything derives from the one seed, so the CSVs are byte-identical
//! across runs and engines.

use super::ExperimentOutput;
use greengpu_cluster::{
    run_fleet, ArrivalProcess, CarbonSignal, EngineKind, FleetConfig, FleetReport, NodeConfig, Policy, PolicySpec,
    ServingConfig, SloClass,
};
use greengpu_sim::{table::fnum, SimDuration, Table};

/// Fleet size for the sweep.
pub const NODES: usize = 4;
/// Budget fractions of aggregate peak-pair power swept.
pub const BUDGET_FRACS: [f64; 2] = [0.70, 0.85];
/// Sweep horizon, seconds.
pub const HORIZON_S: u64 = 200;
/// The fleet's job quantum (see `FleetConfig::from_nodes`), used to
/// derive the deadline selector's time budget from the latency slack.
const TARGET_JOB_S: f64 = 8.0;

const TENANT_HEADERS: [&str; 13] = [
    // lint:contract(tenant_summary_columns)
    "mix",
    "budget_frac",
    "dispatcher",
    "tenant",
    "slo",
    "admitted",
    "rejected",
    "completed",
    "deadline_miss_rate",
    "completion_rate",
    "mean_turnaround_s",
    "gpu_energy_per_job_j",
    "carbon_weighted_j_per_job",
];

const COMPARISON_HEADERS: [&str; 11] = [
    "mix",
    "budget_frac",
    "dispatcher",
    "completed",
    "latency_miss_rate",
    "be_carbon_per_job",
    "be_completed",
    "jobs_deferred",
    "jobs_released",
    "deferred_pending",
    "fairness",
];

/// Stable dispatcher label for the CSV rows.
fn dispatcher_label(aware: bool) -> &'static str {
    if aware {
        "carbon-aware"
    } else {
        "carbon-blind"
    }
}

/// The tenant mixes swept: the three-tenant reference population and a
/// batch-heavy variant (doubled best-effort arrival rate), which is the
/// regime where green-window shifting has the most work to move.
fn mixes(seed: u64, horizon_s: f64, size_scale: f64) -> Vec<(&'static str, ServingConfig)> {
    let reference = ServingConfig::reference_mix(seed, horizon_s, size_scale);
    let mut batch_heavy = reference.clone();
    batch_heavy.tenants[2].arrival = ArrivalProcess::Batch {
        rate_per_s: 0.24,
        start_s: 0.0,
        end_s: 0.8 * horizon_s,
    };
    vec![("reference", reference), ("batch-heavy", batch_heavy)]
}

/// A serving fleet: `NODES` default nodes whose Tier-2 selector is the
/// deadline policy with a time budget derived from the latency tenant's
/// slack — the SLO-to-DVFS seam — plus the given serving layer, driven
/// by the event engine.
fn serving_cfg(serving: ServingConfig, budget_frac: f64, horizon: SimDuration, seed: u64) -> FleetConfig {
    let freq_policy = serving
        .tenants
        .iter()
        .find_map(|t| t.slo.deadline_params(TARGET_JOB_S))
        .map_or_else(PolicySpec::default, PolicySpec::Deadline);
    let nodes: Vec<NodeConfig> = (0..NODES)
        .map(|_| NodeConfig::default_node().with_freq_policy(freq_policy.clone()))
        .collect();
    FleetConfig::from_nodes(nodes, budget_frac, Policy::LeastLoaded, horizon, seed)
        .with_serving(serving)
        .with_engine(EngineKind::EventDriven)
}

/// Per-tenant slice of one run's completions.
struct TenantStats {
    admitted: u64,
    rejected: u64,
    completed: u64,
    with_deadline: u64,
    missed: u64,
    turnaround_sum_s: f64,
    energy_sum_j: f64,
    carbon_sum: f64,
}

/// Splits a report into per-tenant stats; carbon-weighted energy is the
/// job's GPU energy times the signal's exact mean intensity over its
/// service window.
fn tenant_stats(r: &FleetReport, carbon: &CarbonSignal) -> Vec<TenantStats> {
    let n = r.tenant_names.len().max(1);
    let mut out: Vec<TenantStats> = (0..n)
        .map(|i| TenantStats {
            admitted: r.admitted_by_tenant.get(i).copied().unwrap_or(0),
            rejected: r.rejected_by_tenant.get(i).copied().unwrap_or(0),
            completed: 0,
            with_deadline: 0,
            missed: 0,
            turnaround_sum_s: 0.0,
            energy_sum_j: 0.0,
            carbon_sum: 0.0,
        })
        .collect();
    for rec in &r.completed {
        let Some(s) = out.get_mut(rec.spec.tenant) else {
            continue;
        };
        s.completed += 1;
        if rec.spec.deadline.is_some() {
            s.with_deadline += 1;
            if rec.missed_deadline {
                s.missed += 1;
            }
        }
        s.turnaround_sum_s += rec.turnaround_s();
        s.energy_sum_j += rec.gpu_energy_j;
        let started_s = rec.started.saturating_since(greengpu_sim::SimTime::ZERO).as_secs_f64();
        let finished_s = rec.finished.saturating_since(greengpu_sim::SimTime::ZERO).as_secs_f64();
        s.carbon_sum += rec.gpu_energy_j * carbon.mean_over(started_s, finished_s);
    }
    out
}

impl TenantStats {
    fn miss_rate(&self) -> f64 {
        if self.with_deadline == 0 {
            0.0
        } else {
            self.missed as f64 / self.with_deadline as f64
        }
    }

    fn completion_rate(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.completed as f64 / self.admitted as f64
        }
    }

    fn per_job(&self, sum: f64) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            sum / self.completed as f64
        }
    }
}

/// Min/max completion-rate ratio across tenants — 1.0 is perfectly even
/// service, 0.0 means some tenant is starved.
fn fairness(stats: &[TenantStats]) -> f64 {
    let rates: Vec<f64> = stats.iter().map(TenantStats::completion_rate).collect();
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(0.0f64, f64::max);
    if hi <= 0.0 {
        0.0
    } else {
        lo / hi
    }
}

/// The metrics the serving acceptance check is stated over.
pub struct CellMetrics {
    /// Latency tenant's deadline-miss rate over completed jobs.
    pub latency_miss_rate: f64,
    /// Best-effort tenant's carbon-weighted GPU energy per completed job.
    pub be_carbon_per_job: f64,
    /// Best-effort jobs completed.
    pub be_completed: u64,
    /// Jobs the dispatcher parked for a green window.
    pub jobs_deferred: u64,
}

/// Runs one sweep cell and reduces it to the acceptance metrics.
/// `latency`/`best_effort` are tenant indices in the serving config.
pub fn run_cell(serving: &ServingConfig, budget_frac: f64, seed: u64) -> CellMetrics {
    let horizon = SimDuration::from_secs(HORIZON_S);
    let r = run_fleet(&serving_cfg(serving.clone(), budget_frac, horizon, seed));
    let stats = tenant_stats(&r, &serving.carbon);
    let latency = serving
        .tenants
        .iter()
        .position(|t| matches!(t.slo, SloClass::LatencyBound { .. }))
        .unwrap_or(0);
    let best_effort = serving.tenants.iter().position(|t| t.slo.deferrable()).unwrap_or(0);
    CellMetrics {
        latency_miss_rate: stats[latency].miss_rate(),
        be_carbon_per_job: stats[best_effort].per_job(stats[best_effort].carbon_sum),
        be_completed: stats[best_effort].completed,
        jobs_deferred: r.jobs_deferred,
    }
}

fn tenant_rows(
    table: &mut Table,
    mix: &str,
    budget_frac: f64,
    aware: bool,
    serving: &ServingConfig,
    r: &FleetReport,
    stats: &[TenantStats],
) {
    for (i, s) in stats.iter().enumerate() {
        table.row(&[
            mix.to_string(),
            fnum(budget_frac, 2),
            dispatcher_label(aware).to_string(),
            r.tenant_names.get(i).cloned().unwrap_or_default(),
            serving.tenants.get(i).map_or("", |t| t.slo.name()).to_string(),
            s.admitted.to_string(),
            s.rejected.to_string(),
            s.completed.to_string(),
            fnum(s.miss_rate(), 4),
            fnum(s.completion_rate(), 4),
            fnum(s.per_job(s.turnaround_sum_s), 3),
            fnum(s.per_job(s.energy_sum_j), 1),
            fnum(s.per_job(s.carbon_sum), 1),
        ]);
    }
}

fn comparison_row(
    table: &mut Table,
    mix: &str,
    budget_frac: f64,
    aware: bool,
    serving: &ServingConfig,
    r: &FleetReport,
    stats: &[TenantStats],
) {
    let latency = serving
        .tenants
        .iter()
        .position(|t| matches!(t.slo, SloClass::LatencyBound { .. }))
        .unwrap_or(0);
    let best_effort = serving.tenants.iter().position(|t| t.slo.deferrable()).unwrap_or(0);
    table.row(&[
        mix.to_string(),
        fnum(budget_frac, 2),
        dispatcher_label(aware).to_string(),
        r.completed.len().to_string(),
        fnum(stats[latency].miss_rate(), 4),
        fnum(stats[best_effort].per_job(stats[best_effort].carbon_sum), 1),
        stats[best_effort].completed.to_string(),
        r.jobs_deferred.to_string(),
        r.jobs_released.to_string(),
        r.deferred_pending_at_end.to_string(),
        fnum(fairness(stats), 3),
    ]);
}

/// The full sweep behind `--experiment serving`.
pub fn run(seed: u64) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(HORIZON_S);
    let size_scale =
        FleetConfig::homogeneous(NODES, BUDGET_FRACS[1], Policy::LeastLoaded, horizon, seed).reference_size_scale();

    let mut tenants_table = Table::new(
        format!("Per-tenant serving summary — {NODES} nodes, {HORIZON_S} s horizon, event engine"),
        &TENANT_HEADERS,
    );
    let mut comparison = Table::new(
        "Dispatcher comparison — carbon-blind vs carbon-aware per sweep cell",
        &COMPARISON_HEADERS,
    );
    // The acceptance pair: (blind, aware) on the reference mix at the
    // loose budget.
    let mut accept_blind: Option<(f64, f64)> = None;
    let mut accept_aware: Option<(f64, f64, u64)> = None;

    for (mix_name, serving) in mixes(seed, HORIZON_S as f64, size_scale) {
        for &budget_frac in &BUDGET_FRACS {
            for aware in [false, true] {
                let mut s = serving.clone();
                s.carbon_aware = aware;
                let r = run_fleet(&serving_cfg(s.clone(), budget_frac, horizon, seed));
                let stats = tenant_stats(&r, &s.carbon);
                tenant_rows(&mut tenants_table, mix_name, budget_frac, aware, &s, &r, &stats);
                comparison_row(&mut comparison, mix_name, budget_frac, aware, &s, &r, &stats);
                if mix_name == "reference" && budget_frac == BUDGET_FRACS[1] {
                    let miss = stats[0].miss_rate();
                    let carbon = stats[2].per_job(stats[2].carbon_sum);
                    if aware {
                        accept_aware = Some((miss, carbon, r.jobs_deferred));
                    } else {
                        accept_blind = Some((miss, carbon));
                    }
                }
            }
        }
    }

    // Table 3: one carbon-aware reference run's serving trace.
    let trace_serving = mixes(seed, HORIZON_S as f64, size_scale).swap_remove(0).1;
    let trace_run = run_fleet(&serving_cfg(trace_serving, BUDGET_FRACS[1], horizon, seed));
    let trace = trace_run.serving_trace.to_table(&format!(
        "Serving trace — reference mix, {} budget, carbon-aware, {HORIZON_S} s",
        fnum(BUDGET_FRACS[1], 2)
    ));

    let mut notes = Vec::new();
    if let (Some((blind_miss, blind_carbon)), Some((aware_miss, aware_carbon, deferred))) = (accept_blind, accept_aware)
    {
        notes.push(format!(
            "carbon-aware dispatch cuts the best-effort tenant's carbon-weighted energy per job \
             from {} to {} ({}) on the reference mix at the {} budget by deferring {} jobs into \
             green windows, while the latency tenant's deadline-miss rate moves {} -> {} (never \
             up — latency-bound jobs are exempt from deferral).",
            fnum(blind_carbon, 1),
            fnum(aware_carbon, 1),
            super::signed_pct(aware_carbon / blind_carbon - 1.0),
            fnum(BUDGET_FRACS[1], 2),
            deferred,
            fnum(blind_miss, 4),
            fnum(aware_miss, 4),
        ));
    }
    notes.push(
        "latency-bound jobs dispatch immediately under slack-derived frequency caps: every node \
         runs the deadline-aware Tier-2 selector with its time budget derived from the latency \
         tenant's mean slack (SloClass::deadline_params)."
            .to_string(),
    );
    notes.push(
        "conservation holds in every cell: admitted == completed + dead-lettered + still \
         deferred + in flight (see crates/cluster/tests/serving_scenario.rs)."
            .to_string(),
    );

    ExperimentOutput {
        id: "serving",
        title: "Multi-tenant serving: SLO tiers and carbon-aware dispatch",
        tables: vec![tenants_table, comparison, trace],
        notes,
    }
}

/// A single small serving fleet for the CI smoke: `nodes` nodes at 0.80
/// budget serving the reference tenant mix carbon-aware for `seconds`
/// simulated seconds, driven by `engine` (the CI byte-compares engines
/// on this output). Emits the per-tenant summary and the serving trace.
pub fn run_custom(seed: u64, nodes: usize, seconds: u64, engine: EngineKind) -> ExperimentOutput {
    let horizon = SimDuration::from_secs(seconds);
    let base = FleetConfig::homogeneous(nodes, 0.80, Policy::LeastLoaded, horizon, seed);
    let serving = ServingConfig::reference_mix(seed, seconds as f64, base.reference_size_scale());
    let cfg = base.with_serving(serving.clone()).with_engine(engine);
    let r = run_fleet(&cfg);
    let stats = tenant_stats(&r, &serving.carbon);
    let mut summary = Table::new(
        format!("Serving smoke — {nodes} nodes, 0.80 budget, {seconds} s"),
        &TENANT_HEADERS,
    );
    tenant_rows(&mut summary, "reference", 0.80, true, &serving, &r, &stats);
    let trace = r.serving_trace.to_table("Serving smoke — per-interval serving trace");
    ExperimentOutput {
        id: "serving",
        title: "Multi-tenant serving (smoke configuration)",
        tables: vec![summary, trace],
        notes: vec![format!(
            "smoke: {} completed across {} tenants, {} deferred / {} released, {} still parked \
             at the horizon.",
            r.completed.len(),
            r.tenant_names.len(),
            r.jobs_deferred,
            r.jobs_released,
            r.deferred_pending_at_end,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance cell: carbon-aware dispatch strictly reduces the
    /// best-effort tenant's carbon-weighted energy per job without
    /// raising the latency tenant's deadline-miss rate.
    #[test]
    fn carbon_aware_beats_blind_in_the_reference_cell() {
        let horizon = SimDuration::from_secs(HORIZON_S);
        let scale = FleetConfig::homogeneous(
            NODES,
            BUDGET_FRACS[1],
            Policy::LeastLoaded,
            horizon,
            super::super::DEFAULT_SEED,
        )
        .reference_size_scale();
        let reference = mixes(super::super::DEFAULT_SEED, HORIZON_S as f64, scale)
            .swap_remove(0)
            .1;
        let aware = run_cell(&reference, BUDGET_FRACS[1], super::super::DEFAULT_SEED);
        let blind = run_cell(&reference.clone().blind(), BUDGET_FRACS[1], super::super::DEFAULT_SEED);
        assert!(aware.jobs_deferred > 0, "the aware cell must actually defer work");
        assert!(blind.jobs_deferred == 0);
        assert!(aware.be_completed > 0 && blind.be_completed > 0);
        assert!(
            aware.be_carbon_per_job < blind.be_carbon_per_job,
            "carbon-aware must strictly reduce best-effort carbon-weighted energy/job: \
             aware {} vs blind {}",
            aware.be_carbon_per_job,
            blind.be_carbon_per_job,
        );
        assert!(
            aware.latency_miss_rate <= blind.latency_miss_rate,
            "carbon-aware must not raise the latency tenant's miss rate: aware {} vs blind {}",
            aware.latency_miss_rate,
            blind.latency_miss_rate,
        );
    }

    #[test]
    fn smoke_configuration_serves_tenants() {
        let a = run_custom(7, 3, 60, EngineKind::Serial);
        assert_eq!(a.tables.len(), 2);
        // Three tenant rows in the summary.
        assert_eq!(a.tables[0].to_csv().lines().count(), 4);
        // 60 one-second intervals of serving trace.
        assert_eq!(a.tables[1].to_csv().lines().count(), 61);
    }

    #[test]
    fn fairness_is_min_over_max_completion_rate() {
        let s = |admitted, completed| TenantStats {
            admitted,
            rejected: 0,
            completed,
            with_deadline: 0,
            missed: 0,
            turnaround_sum_s: 0.0,
            energy_sum_j: 0.0,
            carbon_sum: 0.0,
        };
        assert!((fairness(&[s(10, 5), s(10, 10)]) - 0.5).abs() < 1e-12);
        assert!((fairness(&[s(10, 10), s(4, 4)]) - 1.0).abs() < 1e-12);
        assert_eq!(fairness(&[s(10, 0), s(10, 0)]), 0.0);
    }
}
