//! The paper's baselines and run helpers (§VII).
//!
//! * **best-performance** — both GPU domains pinned at the peak levels,
//!   all work on the GPU (this is also the Rodinia *default* runtime
//!   configuration the 21.04 % headline is measured against).
//! * **Frequency-scaling** — tier 2 only (all work on the GPU).
//! * **Division** — tier 1 only (clocks pinned at peak).
//! * **GreenGPU** — the holistic two-tier controller.
//! * **static division** — a fixed CPU share at peak clocks (the Fig. 2
//!   sweep and the §VII-B exhaustive search are built from these).

use crate::coordinator::{GreenGpuConfig, GreenGpuController};
use greengpu_hw::{FaultPlan, Platform};
use greengpu_policy::{FreqPolicy, PolicyTelemetry};
use greengpu_runtime::{FixedController, HeteroRuntime, RunConfig, RunReport};
use greengpu_workloads::Workload;

/// Runs the *best-performance* baseline: peak clocks, all work on the GPU.
pub fn run_best_performance(workload: &mut dyn Workload) -> RunReport {
    run_best_performance_with(workload, RunConfig::default())
}

/// *best-performance* with an explicit run config.
pub fn run_best_performance_with(workload: &mut dyn Workload, config: RunConfig) -> RunReport {
    let mut controller = FixedController::gpu_only();
    HeteroRuntime::new(Platform::best_performance_testbed(), config).run(workload, &mut controller)
}

/// Runs all work on the GPU with both GPU domains pinned at explicit
/// levels — the Fig. 1 frequency sweeps are built from these.
pub fn run_pinned(workload: &mut dyn Workload, core_lvl: usize, mem_lvl: usize, config: RunConfig) -> RunReport {
    let platform = Platform::new(
        greengpu_hw::calib::geforce_8800_gtx(),
        greengpu_hw::calib::phenom_ii_x2(),
        core_lvl,
        mem_lvl,
        3,
    );
    let mut controller = FixedController::gpu_only();
    HeteroRuntime::new(platform, config).run(workload, &mut controller)
}

/// Runs a static division at peak clocks (one point of the Fig. 2 sweep).
pub fn run_static_division(workload: &mut dyn Workload, cpu_share: f64, config: RunConfig) -> RunReport {
    let mut controller = FixedController::new(cpu_share);
    HeteroRuntime::new(Platform::best_performance_testbed(), config).run(workload, &mut controller)
}

/// Runs the full holistic GreenGPU controller. The GPU starts at the
/// driver-default lowest levels, as in the paper's traces.
pub fn run_greengpu(workload: &mut dyn Workload) -> RunReport {
    run_with_config(workload, GreenGpuConfig::holistic(), RunConfig::default())
}

/// Runs the *Frequency-scaling* baseline (tier 2 only).
pub fn run_scaling_only(workload: &mut dyn Workload) -> RunReport {
    run_with_config(workload, GreenGpuConfig::scaling_only(), RunConfig::default())
}

/// Runs the *Division* baseline (tier 1 only, clocks pinned at peak).
pub fn run_division_only(workload: &mut dyn Workload) -> RunReport {
    let mut controller = GreenGpuController::for_testbed(GreenGpuConfig::division_only());
    HeteroRuntime::new(Platform::best_performance_testbed(), RunConfig::default()).run(workload, &mut controller)
}

/// Runs an arbitrary GreenGPU configuration. Scaling-enabled configs start
/// the GPU at the driver-default lowest levels; otherwise clocks pin at
/// the peak.
pub fn run_with_config(workload: &mut dyn Workload, cfg: GreenGpuConfig, run_config: RunConfig) -> RunReport {
    let platform = if cfg.gpu_scaling {
        Platform::default_testbed()
    } else {
        Platform::best_performance_testbed()
    };
    run_on_platform(workload, cfg, run_config, platform)
}

/// Runs a GreenGPU configuration on an explicit platform — the entry point
/// for what-if hardware (e.g. the DVFS-capable card variant).
pub fn run_on_platform(
    workload: &mut dyn Workload,
    cfg: GreenGpuConfig,
    run_config: RunConfig,
    platform: Platform,
) -> RunReport {
    let n_core = platform.gpu().spec().core_levels_mhz.len();
    let n_mem = platform.gpu().spec().mem_levels_mhz.len();
    let mut controller = GreenGpuController::new(cfg, n_core, n_mem);
    HeteroRuntime::new(platform, run_config).run(workload, &mut controller)
}

/// A policy run's report plus the policy's decision telemetry.
pub struct PolicyOutcome {
    /// The run report (energy, time, iteration trace).
    pub report: RunReport,
    /// The policy's display name ([`FreqPolicy::name`]).
    pub policy: String,
    /// Decision telemetry: cumulative loss, switches, regret, fallbacks.
    pub telemetry: PolicyTelemetry,
}

/// Runs a GreenGPU configuration with an arbitrary Tier-2 frequency
/// policy — the head-to-head entry point of the `policies` experiment.
/// Platform choice matches [`run_with_config`], so
/// `run_with_policy(w, cfg, rc, Box::new(WmaScaler::new(6, 6, cfg.wma_params)))`
/// reproduces that function byte-for-byte.
pub fn run_with_policy(
    workload: &mut dyn Workload,
    cfg: GreenGpuConfig,
    run_config: RunConfig,
    policy: Box<dyn FreqPolicy>,
) -> PolicyOutcome {
    let platform = if cfg.gpu_scaling {
        Platform::default_testbed()
    } else {
        Platform::best_performance_testbed()
    };
    let mut controller = GreenGpuController::with_policy(cfg, policy);
    let report = HeteroRuntime::new(platform, run_config).run(workload, &mut controller);
    PolicyOutcome {
        report,
        policy: controller.policy().name().to_string(),
        telemetry: controller.policy_telemetry().clone(),
    }
}

/// A faulted run's report plus the controller's robustness statistics.
pub struct FaultedOutcome {
    /// The run report (ground-truth energy — meter faults distort only
    /// the observed series, never the accounting).
    pub report: RunReport,
    /// Whether the best-performance fallback engaged during the run.
    pub fallback_engaged: bool,
    /// Actuations whose read-back never verified.
    pub actuation_failures: u64,
    /// Sensor readings rejected as non-finite.
    pub sensor_rejects: u64,
    /// Total faults injected across all channels.
    pub injections: usize,
}

/// Runs a GreenGPU configuration behind the seeded fault injectors of
/// `plan`. Platform choice matches [`run_with_config`], so a clean plan
/// reproduces that function byte-for-byte.
pub fn run_greengpu_faulted(
    workload: &mut dyn Workload,
    cfg: GreenGpuConfig,
    run_config: RunConfig,
    plan: &FaultPlan,
) -> FaultedOutcome {
    let platform = if cfg.gpu_scaling {
        Platform::default_testbed()
    } else {
        Platform::best_performance_testbed()
    };
    let n_core = platform.gpu().spec().core_levels_mhz.len();
    let n_mem = platform.gpu().spec().mem_levels_mhz.len();
    let mut controller = GreenGpuController::faulted(cfg, n_core, n_mem, plan);
    let report = HeteroRuntime::new(platform, run_config).run(workload, &mut controller);
    FaultedOutcome {
        report,
        fallback_engaged: controller.fallback_engaged(),
        actuation_failures: controller.actuation_failures(),
        sensor_rejects: controller.sensor_rejects(),
        injections: controller.injection_count(),
    }
}

/// One row of a static-division search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPoint {
    /// CPU share of this run.
    pub cpu_share: f64,
    /// Whole-system energy, joules.
    pub energy_j: f64,
    /// Total execution time, seconds.
    pub time_s: f64,
}

/// The §VII-B exhaustive search: static divisions from 0 to `max_share`
/// in `step` increments at peak clocks, using a factory so each run gets a
/// fresh workload. Returns all points and the index of the
/// energy-minimum.
pub fn static_search<F>(mut make_workload: F, step: f64, max_share: f64) -> (Vec<StaticPoint>, usize)
where
    F: FnMut() -> Box<dyn Workload>,
{
    assert!(step > 0.0 && step <= 0.5, "unreasonable search step");
    let mut points = Vec::new();
    let mut share = 0.0;
    while share <= max_share + 1e-9 {
        let mut wl = make_workload();
        let report = run_static_division(wl.as_mut(), share.min(max_share), RunConfig::sweep());
        points.push(StaticPoint {
            cpu_share: share.min(max_share),
            energy_j: report.total_energy_j(),
            time_s: report.total_time.as_secs_f64(),
        });
        share += step;
    }
    let best = points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.energy_j.total_cmp(&b.1.energy_j))
        .map(|(i, _)| i)
        .unwrap_or(0);
    (points, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu_workloads::hotspot::Hotspot;
    use greengpu_workloads::kmeans::KMeans;
    use greengpu_workloads::streamcluster::StreamCluster;

    #[test]
    fn greengpu_beats_best_performance_on_kmeans() {
        let green = run_greengpu(&mut KMeans::small(1));
        let base = run_best_performance(&mut KMeans::small(1));
        assert!(
            green.total_energy_j() < base.total_energy_j(),
            "green {} vs base {}",
            green.total_energy_j(),
            base.total_energy_j()
        );
        // Functional results are identical regardless of policy.
        assert!((green.digest - base.digest).abs() / base.digest.abs() < 1e-9);
    }

    #[test]
    fn holistic_beats_both_single_tiers_on_hotspot() {
        // The Fig. 8 ordering: GreenGPU < Division-only < Frequency-scaling
        // (hotspot's division headroom dwarfs its scaling headroom).
        let green = run_greengpu(&mut Hotspot::small(1)).total_energy_j();
        let division = run_division_only(&mut Hotspot::small(1)).total_energy_j();
        let scaling = run_scaling_only(&mut Hotspot::small(1)).total_energy_j();
        assert!(green < division, "green {green} vs division {division}");
        assert!(green < scaling, "green {green} vs scaling {scaling}");
        assert!(division < scaling, "division {division} vs scaling {scaling}");
    }

    #[test]
    fn scaling_only_saves_gpu_energy_with_small_slowdown() {
        // The Fig. 6 envelope: positive GPU energy saving, bounded time
        // overhead.
        let base = run_best_performance(&mut StreamCluster::small(2));
        let scaled = run_scaling_only(&mut StreamCluster::small(2));
        let saving = 1.0 - scaled.gpu_energy_j / base.gpu_energy_j;
        assert!(saving > 0.0, "no GPU energy saving: {saving}");
        let slowdown = scaled.total_time.as_secs_f64() / base.total_time.as_secs_f64() - 1.0;
        assert!(slowdown < 0.10, "slowdown {slowdown}");
    }

    #[test]
    fn static_search_finds_interior_minimum_for_kmeans() {
        let (points, best) = static_search(|| Box::new(KMeans::small(3)), 0.05, 0.90);
        assert_eq!(points.len(), 19);
        let best_share = points[best].cpu_share;
        assert!(
            (0.05..=0.30).contains(&best_share),
            "kmeans energy minimum at {best_share}"
        );
        // The sweep's endpoints must both be worse than the minimum.
        assert!(points[best].energy_j < points[0].energy_j);
        assert!(points[best].energy_j < points.last().unwrap().energy_j);
    }

    #[test]
    fn dynamic_division_is_close_to_static_optimum() {
        // §VII-B: the dynamic algorithm reaches ~99 % of the static
        // optimum's saving for hotspot; allow a slightly wider band here.
        // Use a long run (30 iterations) so convergence overhead
        // amortizes as it does in §VII-B.
        let make = || Hotspot::with_params(4, 32, 32, 1024.0, 4, 3.0e6, 30);
        let (points, best) = static_search(|| Box::new(make()), 0.05, 0.90);
        let optimum = points[best].energy_j;
        let baseline = points[0].energy_j; // all-GPU
        let dynamic = run_division_only(&mut make()).total_energy_j();
        let opt_saving = 1.0 - optimum / baseline;
        let dyn_saving = 1.0 - dynamic / baseline;
        assert!(
            dyn_saving > 0.90 * opt_saving,
            "dynamic saving {dyn_saving} vs optimal {opt_saving}"
        );
    }

    #[test]
    fn division_converges_to_hotspot_fifty_fifty() {
        let report = run_division_only(&mut Hotspot::small(5));
        let last = report.iterations.last().unwrap();
        assert!(
            (0.45..=0.55).contains(&last.cpu_share),
            "hotspot settled at {}",
            last.cpu_share
        );
    }
}
