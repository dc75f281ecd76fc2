//! The virtual-time execution engine.
//!
//! Advances an iteration's split work on both devices concurrently,
//! re-planning remaining work whenever a controller changes a frequency
//! level mid-flight (the piecewise drain that makes the paper's Fig. 5
//! trace meaningful), and recording device activity into the platform's
//! traces at every segment boundary.

use crate::config::{CommMode, RunConfig};
use crate::controller::{Controller, IterationInfo};
use crate::report::{IterationRecord, RunReport};
use greengpu_hw::Platform;
use greengpu_sim::{SimDuration, SimTime};
use greengpu_workloads::{phase_cpu_time_s, phase_gpu_timing, CpuSlice, GpuPhase, Workload};

/// Remaining-time snap threshold: segments within 0.1 µs of completion are
/// treated as complete, keeping the µs-quantized clock from stalling.
const EPS_S: f64 = 1e-7;

/// Residual CPU utilization while idle in [`CommMode::Async`].
const IDLE_CPU_UTIL: f64 = 0.05;

/// Power-relevant activity of the spin-wait loop in
/// [`CommMode::SynchronizedSpin`]: the loop keeps all cores 100 % busy to
/// the sensor but executes no FP work, so it draws somewhat less than real
/// computation (0.75 of the dynamic component).
const SPIN_POWER_UTIL: f64 = 0.75;

/// Safety cap on simulation events per run.
const MAX_EVENTS: u64 = 10_000_000;

/// Progress through a sequence of segments. `frac` is the completed
/// fraction of the current segment.
struct SideExec<S> {
    segs: Vec<S>,
    idx: usize,
    frac: f64,
    busy_s: f64,
}

impl<S> SideExec<S> {
    fn new(segs: Vec<S>) -> Self {
        SideExec {
            segs,
            idx: 0,
            frac: 0.0,
            busy_s: 0.0,
        }
    }

    fn done(&self) -> bool {
        self.idx >= self.segs.len()
    }

    fn current(&self) -> Option<&S> {
        self.segs.get(self.idx)
    }

    /// Advances `dt` seconds given the current segment's total duration,
    /// returning `true` when that advance completed the segment.
    fn advance(&mut self, dt: f64, seg_duration: f64) -> bool {
        if self.done() {
            return false;
        }
        self.busy_s += dt;
        if seg_duration <= EPS_S {
            self.frac = 1.0;
        } else {
            self.frac += dt / seg_duration;
        }
        if self.frac >= 1.0 - EPS_S {
            self.idx += 1;
            self.frac = 0.0;
            true
        } else {
            false
        }
    }

    /// Skips over zero-duration segments.
    fn skip_empty(&mut self, duration_of: impl Fn(&S) -> f64) {
        while let Some(seg) = self.segs.get(self.idx) {
            if duration_of(seg) <= EPS_S {
                self.idx += 1;
                self.frac = 0.0;
            } else {
                break;
            }
        }
    }
}

/// The heterogeneous runtime: owns the platform for the duration of a run.
///
/// ```
/// use greengpu_hw::Platform;
/// use greengpu_runtime::{FixedController, HeteroRuntime, RunConfig};
/// use greengpu_workloads::kmeans::KMeans;
///
/// let mut workload = KMeans::small(1);
/// let mut controller = FixedController::new(0.25); // static 25 % CPU share
/// let report = HeteroRuntime::new(Platform::best_performance_testbed(), RunConfig::default())
///     .run(&mut workload, &mut controller);
/// assert_eq!(report.iterations.len(), 5);
/// assert!(report.total_energy_j() > 0.0);
/// ```
pub struct HeteroRuntime {
    platform: Platform,
    config: RunConfig,
}

impl HeteroRuntime {
    /// Creates a runtime over a platform.
    pub fn new(platform: Platform, config: RunConfig) -> Self {
        HeteroRuntime { platform, config }
    }

    /// Runs `workload` to completion under `controller`, consuming the
    /// runtime and returning the report (with the platform and all traces).
    pub fn run(mut self, workload: &mut dyn Workload, controller: &mut dyn Controller) -> RunReport {
        let divisible = workload.profile().divisible;
        let mut share = if divisible { controller.initial_share() } else { 0.0 };
        let dvfs_period = controller.dvfs_period();
        let mut next_dvfs = dvfs_period.map(|p| SimTime::ZERO + p);

        let mut t = SimTime::ZERO;
        let mut events: u64 = 0;
        let mut iterations = Vec::with_capacity(workload.iterations());
        let mut spin_intervals: Vec<(SimTime, SimTime)> = Vec::new();
        let mut spin_start: Option<SimTime> = None;
        let mut gpu_busy_total = 0.0;
        let mut cpu_busy_total = 0.0;

        for k in 0..workload.iterations() {
            let phases = workload.phases(k);
            let gpu_share = 1.0 - share;
            let mut gpu_segs = Vec::with_capacity(phases.len());
            let mut cpu_segs = Vec::with_capacity(phases.len());
            for p in &phases {
                let g = p.gpu.scale(gpu_share);
                if g.ops > 0.0 || g.bytes > 0.0 || g.host_floor_s > 0.0 {
                    gpu_segs.push(g);
                }
                let c = p.cpu.scale(share);
                if c.ops > 0.0 || c.bytes > 0.0 {
                    cpu_segs.push(c);
                }
            }
            let mut gpu = SideExec::new(gpu_segs);
            let mut cpu = SideExec::new(cpu_segs);
            let mut gpu_stall_s = 0.0f64;
            let iter_start = t;

            loop {
                // Fire any due DVFS ticks before planning the next step.
                if let (Some(period), Some(next)) = (dvfs_period, next_dvfs) {
                    if t >= next {
                        let before = (
                            self.platform.gpu().core().current_level(),
                            self.platform.gpu().mem().current_level(),
                        );
                        controller.on_dvfs_tick(&mut self.platform, t);
                        let after = (
                            self.platform.gpu().core().current_level(),
                            self.platform.gpu().mem().current_level(),
                        );
                        if after != before && !gpu.done() {
                            // The card stalls while reclocking.
                            gpu_stall_s += self.config.reclock_stall_s;
                        }
                        next_dvfs = Some(next + period);
                    }
                }

                // Refresh recorded device activity for the current state
                // (a reclocking card draws idle power: activity forced 0).
                if gpu_stall_s > EPS_S {
                    self.platform.set_gpu_activity(t, 0.0, 0.0);
                    self.refresh_cpu_activity(t, &gpu, &cpu, &mut spin_start, &mut spin_intervals);
                } else {
                    self.refresh_activity(t, &gpu, &cpu, &mut spin_start, &mut spin_intervals);
                }

                gpu.skip_empty(|s| self.gpu_seg_duration(s));
                cpu.skip_empty(|s| self.cpu_seg_duration(s));
                if gpu.done() && cpu.done() {
                    break;
                }

                // Plan the next event: earliest of segment completions and
                // the DVFS tick. A pending reclock stall preempts the GPU's
                // current segment.
                let stalled = gpu_stall_s > EPS_S;
                let gpu_dur = if stalled {
                    None
                } else {
                    gpu.current().map(|s| self.gpu_seg_duration(s))
                };
                let cpu_dur = cpu.current().map(|s| self.cpu_seg_duration(s));
                let gpu_rem = if stalled {
                    Some(gpu_stall_s)
                } else {
                    gpu_dur.map(|d| (1.0 - gpu.frac) * d)
                };
                let cpu_rem = cpu_dur.map(|d| (1.0 - cpu.frac) * d);
                let dvfs_rem = next_dvfs.map(|n| n.saturating_since(t).as_secs_f64());
                let mut dt = f64::INFINITY;
                for r in [gpu_rem, cpu_rem, dvfs_rem].into_iter().flatten() {
                    dt = dt.min(r);
                }
                assert!(dt.is_finite(), "no pending event but sides not done");

                // Quantize to the µs clock; never stall.
                let dt_q = SimDuration::from_secs_f64(dt).max(SimDuration::from_micros(1));
                let dt_s = dt_q.as_secs_f64();
                if stalled {
                    gpu_stall_s = (gpu_stall_s - dt_s).max(0.0);
                    gpu.busy_s += dt_s; // the host still waits on the card
                } else if let Some(d) = gpu_dur {
                    gpu.advance(dt_s, d);
                }
                if let Some(d) = cpu_dur {
                    cpu.advance(dt_s, d);
                }
                t += dt_q;
                events += 1;
                assert!(events < MAX_EVENTS, "event cap exceeded — runaway simulation");
            }

            // Close any open spin interval at the barrier.
            if let Some(s) = spin_start.take() {
                if t > s {
                    spin_intervals.push((s, t));
                }
            }

            let digest_update = if self.config.functional {
                workload.execute(k, share)
            } else {
                0.0
            };
            let _ = digest_update;

            let record = IterationRecord {
                index: k,
                cpu_share: share,
                tc_s: cpu.busy_s,
                tg_s: gpu.busy_s,
                start: iter_start,
                end: t,
                energy_j: self.platform.total_energy_j(iter_start, t),
            };
            gpu_busy_total += gpu.busy_s;
            cpu_busy_total += cpu.busy_s;
            let info = IterationInfo {
                index: k,
                cpu_share: share,
                tc_s: cpu.busy_s,
                tg_s: gpu.busy_s,
            };
            let next_share = controller.on_iteration_end(&info, &mut self.platform, t);
            if divisible {
                share = next_share.clamp(0.0, 1.0);
            }
            iterations.push(record);
        }

        // Park activity at the end of the run.
        self.platform.set_gpu_activity(t, 0.0, 0.0);
        self.platform.set_cpu_activity(t, 0.0, 0);

        let digest = if self.config.functional { workload.digest() } else { 0.0 };
        RunReport {
            total_time: t - SimTime::ZERO,
            gpu_energy_j: self.platform.gpu_energy_j(SimTime::ZERO, t),
            cpu_energy_j: self.platform.cpu_energy_j(SimTime::ZERO, t),
            iterations,
            digest,
            gpu_busy_s: gpu_busy_total,
            cpu_busy_s: cpu_busy_total,
            spin_intervals,
            platform: self.platform,
        }
    }

    /// Wall duration of a GPU phase at the platform's current clocks
    /// (`max(roofline, host_floor)`).
    fn gpu_seg_duration(&self, phase: &GpuPhase) -> f64 {
        phase_gpu_timing(
            phase,
            self.platform.gpu().spec(),
            self.platform.gpu().core().current_mhz(),
            self.platform.gpu().mem().current_mhz(),
        )
        .wall_s
    }

    /// Duration of a CPU slice at the platform's current P-state.
    fn cpu_seg_duration(&self, slice: &CpuSlice) -> f64 {
        phase_cpu_time_s(
            slice,
            self.platform.cpu().spec(),
            self.platform.cpu().domain().current_mhz(),
        )
    }

    /// Writes the current busy fractions of both devices into the traces,
    /// and tracks CPU spin-wait intervals.
    fn refresh_activity(
        &mut self,
        t: SimTime,
        gpu: &SideExec<GpuPhase>,
        cpu: &SideExec<CpuSlice>,
        spin_start: &mut Option<SimTime>,
        spin_intervals: &mut Vec<(SimTime, SimTime)>,
    ) {
        // GPU activity follows the current phase's pipelined utilization.
        match gpu.current() {
            Some(phase) => {
                let timing = phase_gpu_timing(
                    phase,
                    self.platform.gpu().spec(),
                    self.platform.gpu().core().current_mhz(),
                    self.platform.gpu().mem().current_mhz(),
                );
                self.platform.set_gpu_activity(t, timing.u_core, timing.u_mem);
            }
            None => {
                self.platform.set_gpu_activity(t, 0.0, 0.0);
            }
        }
        self.refresh_cpu_activity(t, gpu, cpu, spin_start, spin_intervals);
    }

    /// The CPU part of the activity refresh (also used while the GPU is
    /// stalled reclocking).
    fn refresh_cpu_activity(
        &mut self,
        t: SimTime,
        gpu: &SideExec<GpuPhase>,
        cpu: &SideExec<CpuSlice>,
        spin_start: &mut Option<SimTime>,
        spin_intervals: &mut Vec<(SimTime, SimTime)>,
    ) {
        // CPU activity: computing, spin-waiting, or idle.
        let n_cores = self.platform.cpu().spec().n_cores;
        if !cpu.done() {
            self.exit_spin(t, spin_start, spin_intervals);
            self.platform.set_cpu_activity(t, 1.0, n_cores);
        } else if !gpu.done() {
            match self.config.comm_mode {
                CommMode::SynchronizedSpin => {
                    if spin_start.is_none() {
                        *spin_start = Some(t);
                    }
                    // The polling loop saturates the sensor but draws less
                    // than real computation.
                    self.platform.set_cpu_activity_split(t, 1.0, SPIN_POWER_UTIL, n_cores);
                }
                CommMode::Async => {
                    self.platform.set_cpu_activity(t, IDLE_CPU_UTIL, n_cores);
                }
            }
        } else {
            self.exit_spin(t, spin_start, spin_intervals);
            self.platform.set_cpu_activity(t, 0.0, 0);
        }
    }

    fn exit_spin(&self, t: SimTime, spin_start: &mut Option<SimTime>, spin_intervals: &mut Vec<(SimTime, SimTime)>) {
        if let Some(s) = spin_start.take() {
            if t > s {
                spin_intervals.push((s, t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FixedController;
    use greengpu_workloads::hotspot::Hotspot;
    use greengpu_workloads::kmeans::KMeans;
    use greengpu_workloads::model::{iteration_cpu_time_s, iteration_gpu_time_s};

    fn run_fixed(share: f64) -> RunReport {
        let platform = Platform::best_performance_testbed();
        let mut wl = KMeans::small(1);
        let mut ctl = FixedController::new(share);
        HeteroRuntime::new(platform, RunConfig::default()).run(&mut wl, &mut ctl)
    }

    #[test]
    fn gpu_only_run_completes_with_positive_energy() {
        let report = run_fixed(0.0);
        assert_eq!(report.iterations.len(), 5);
        assert!(report.total_energy_j() > 0.0);
        assert!(report.total_time.as_secs_f64() > 0.0);
        assert!(report.gpu_busy_s > 0.0);
        assert_eq!(report.cpu_busy_s, 0.0);
    }

    #[test]
    fn measured_times_match_cost_model() {
        let report = run_fixed(0.0);
        let wl = KMeans::small(1);
        let expected = iteration_gpu_time_s(&wl.phases(0), report.platform.gpu().spec(), 576.0, 900.0);
        let tg = report.iterations[0].tg_s;
        assert!((tg - expected).abs() / expected < 1e-3, "tg {tg} vs model {expected}");
    }

    #[test]
    fn split_run_measures_both_sides() {
        let report = run_fixed(0.5);
        let it = &report.iterations[0];
        assert!(it.tc_s > 0.0 && it.tg_s > 0.0);
        let wl = KMeans::small(1);
        let tc_full = iteration_cpu_time_s(&wl.phases(0), report.platform.cpu().spec(), 2800.0);
        assert!(
            (it.tc_s - 0.5 * tc_full).abs() / tc_full < 1e-3,
            "tc {} vs {}",
            it.tc_s,
            0.5 * tc_full
        );
    }

    #[test]
    fn iteration_wall_time_is_max_of_sides() {
        let report = run_fixed(0.5);
        for it in &report.iterations {
            let wall = it.duration_s();
            let slower = it.tc_s.max(it.tg_s);
            assert!((wall - slower).abs() < 1e-3, "wall {wall} vs slower side {slower}");
        }
    }

    #[test]
    fn spin_mode_records_wait_intervals_when_cpu_finishes_first() {
        // With a tiny CPU share the CPU finishes long before the GPU and
        // spins.
        let report = run_fixed(0.05);
        assert!(report.spin_seconds() > 0.0, "expected spin-wait time");
        // Spin must not exceed total time.
        assert!(report.spin_seconds() <= report.total_time.as_secs_f64());
    }

    #[test]
    fn async_mode_saves_cpu_energy_vs_spin() {
        let mut wl1 = KMeans::small(1);
        let mut wl2 = KMeans::small(1);
        let mut ctl1 = FixedController::new(0.0);
        let mut ctl2 = FixedController::new(0.0);
        let spin =
            HeteroRuntime::new(Platform::best_performance_testbed(), RunConfig::default()).run(&mut wl1, &mut ctl1);
        let idle = HeteroRuntime::new(
            Platform::best_performance_testbed(),
            RunConfig::default().with_async_comm(),
        )
        .run(&mut wl2, &mut ctl2);
        assert!(
            idle.cpu_energy_j < spin.cpu_energy_j * 0.95,
            "async {} vs spin {}",
            idle.cpu_energy_j,
            spin.cpu_energy_j
        );
        // Same wall time either way.
        assert_eq!(idle.total_time, spin.total_time);
    }

    #[test]
    fn functional_execution_produces_real_digest() {
        let report = run_fixed(0.3);
        let mut reference = KMeans::small(1);
        for i in 0..reference.iterations() {
            reference.execute(i, 0.3);
        }
        let rel = (report.digest - reference.digest()).abs() / reference.digest().abs();
        assert!(
            rel < 1e-12,
            "runtime digest {} vs reference {}",
            report.digest,
            reference.digest()
        );
    }

    #[test]
    fn sweep_mode_skips_functional_execution() {
        let platform = Platform::best_performance_testbed();
        let mut wl = KMeans::small(1);
        let mut ctl = FixedController::new(0.0);
        let report = HeteroRuntime::new(platform, RunConfig::sweep()).run(&mut wl, &mut ctl);
        assert_eq!(report.digest, 0.0);
        assert!(report.total_energy_j() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_fixed(0.25);
        let b = run_fixed(0.25);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.total_energy_j(), b.total_energy_j());
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn balanced_share_minimizes_wall_time_for_hotspot() {
        // Hotspot's balance point is ~0.5; the wall time at r=0.5 must beat
        // both extremes.
        let time_at = |r: f64| {
            let mut wl = Hotspot::paper(1);
            let mut ctl = FixedController::new(r);
            HeteroRuntime::new(Platform::best_performance_testbed(), RunConfig::sweep())
                .run(&mut wl, &mut ctl)
                .total_time
                .as_secs_f64()
        };
        let t0 = time_at(0.0);
        let t50 = time_at(0.5);
        let t90 = time_at(0.9);
        assert!(t50 < t0 * 0.7, "t50 {t50} vs t0 {t0}");
        assert!(t50 < t90 * 0.7, "t50 {t50} vs t90 {t90}");
    }

    #[test]
    fn energy_sweep_has_interior_minimum_for_kmeans() {
        // Fig. 2's headline shape: some CPU share beats GPU-only.
        let energy_at = |r: f64| {
            let mut wl = KMeans::paper(1);
            let mut ctl = FixedController::new(r);
            HeteroRuntime::new(Platform::best_performance_testbed(), RunConfig::sweep())
                .run(&mut wl, &mut ctl)
                .total_energy_j()
        };
        let e0 = energy_at(0.0);
        let e15 = energy_at(0.15);
        let e60 = energy_at(0.60);
        assert!(e15 < e0, "15% CPU share should beat GPU-only: {e15} vs {e0}");
        assert!(e15 < e60, "15% should beat 60%: {e15} vs {e60}");
    }
}

#[cfg(test)]
mod reclock_tests {
    use super::*;
    use crate::controller::{Controller, IterationInfo};
    use greengpu_sim::{SimDuration, SimTime};
    use greengpu_workloads::kmeans::KMeans;

    /// A controller that flips the GPU between two level pairs on every
    /// tick — worst-case actuation churn.
    struct Thrasher;

    impl Controller for Thrasher {
        fn initial_share(&self) -> f64 {
            0.0
        }
        fn dvfs_period(&self) -> Option<SimDuration> {
            Some(SimDuration::from_secs(3))
        }
        fn on_dvfs_tick(&mut self, platform: &mut Platform, now: SimTime) {
            let next = if platform.gpu().core().current_level() == 5 {
                4
            } else {
                5
            };
            platform.set_gpu_levels(now, next, next);
        }
        fn on_iteration_end(&mut self, _: &IterationInfo, _: &mut Platform, _: SimTime) -> f64 {
            0.0
        }
    }

    fn run_with_stall(stall_s: f64) -> RunReport {
        let mut cfg = RunConfig::sweep();
        cfg.reclock_stall_s = stall_s;
        let mut wl = KMeans::small(1);
        let mut ctl = Thrasher;
        HeteroRuntime::new(Platform::best_performance_testbed(), cfg).run(&mut wl, &mut ctl)
    }

    #[test]
    fn zero_stall_is_the_default_and_free() {
        let base = run_with_stall(0.0);
        let cfg_default = RunConfig::default();
        assert_eq!(cfg_default.reclock_stall_s, 0.0);
        assert!(base.total_time.as_secs_f64() > 0.0);
    }

    #[test]
    fn stall_lengthens_runs_proportionally_to_transitions() {
        let base = run_with_stall(0.0);
        let stalled = run_with_stall(0.5);
        let delta = stalled.total_time.as_secs_f64() - base.total_time.as_secs_f64();
        assert!(delta > 0.0, "stall had no effect");
        // The thrasher reclocks every 3 s tick; the added time should be
        // roughly 0.5 s per tick of the base run (each stall also delays
        // subsequent ticks, so allow slack).
        let ticks = (base.total_time.as_secs_f64() / 3.0).floor();
        assert!(delta > 0.4 * ticks * 0.5, "delta {delta} vs ~{} expected", ticks * 0.5);
    }

    #[test]
    fn stall_time_draws_idle_power() {
        // Mean GPU power over the stalled run must be below the unstalled
        // run's (idle stretches at the same total work).
        let base = run_with_stall(0.0);
        let stalled = run_with_stall(1.0);
        let p_base = base.gpu_energy_j / base.total_time.as_secs_f64();
        let p_stalled = stalled.gpu_energy_j / stalled.total_time.as_secs_f64();
        assert!(p_stalled < p_base, "stalled {p_stalled} W vs base {p_base} W");
    }

    #[test]
    fn steady_controller_pays_no_stall() {
        // A controller that converges stops paying: FixedController never
        // reclocks, so stall config is irrelevant.
        let mut cfg = RunConfig::sweep();
        cfg.reclock_stall_s = 5.0;
        let mut wl = KMeans::small(1);
        let mut ctl = crate::controller::FixedController::gpu_only();
        let stalled = HeteroRuntime::new(Platform::best_performance_testbed(), cfg).run(&mut wl, &mut ctl);
        let mut wl = KMeans::small(1);
        let mut ctl = crate::controller::FixedController::gpu_only();
        let base = HeteroRuntime::new(Platform::best_performance_testbed(), RunConfig::sweep()).run(&mut wl, &mut ctl);
        assert_eq!(stalled.total_time, base.total_time);
    }
}
