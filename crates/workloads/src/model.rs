//! Evaluating phase costs on the simulated testbed.
//!
//! Shared by the runtime (to advance the simulation) and by calibration
//! tests/benches (to check Table II classes and division optima without
//! running a full simulation).

use crate::traits::{CpuSlice, GpuPhase, PhaseCost};
use greengpu_hw::{CpuSpec, GpuSpec};

/// Timing decomposition of one GPU phase at fixed clocks.
///
/// The phase's wall time is `max(roofline_time, host_floor)`: the host-side
/// driver/launch/PCIe pipeline proceeds *concurrently* with GPU execution,
/// so a phase whose roofline time is below the host floor is host-bound —
/// and throttling the GPU inside that slack is free. This is precisely the
/// premise of the paper's §III case study: "properly scaling down the
/// under-utilized component can save energy with negligible performance
/// impact".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Wall time of the phase: `max(roofline, host_floor)`, seconds.
    pub wall_s: f64,
    /// Pure-compute roofline component `Tc`, seconds.
    pub compute_s: f64,
    /// Pure-memory roofline component `Tm`, seconds.
    pub memory_s: f64,
    /// Core utilization over the wall time (`Tc / wall`) — the nvidia-smi
    /// "busy cycles / total cycles" analog.
    pub u_core: f64,
    /// Sensor-visible memory utilization over the wall time
    /// (`min(1, mem_busy_factor · Tm / wall)`). Also the memory power
    /// activity.
    pub u_mem: f64,
}

impl PhaseTiming {
    /// Total wall time of the phase, seconds.
    pub fn total_s(&self) -> f64 {
        self.wall_s
    }
}

/// Times a GPU phase at explicit core/memory clocks (MHz).
pub fn phase_gpu_timing(phase: &GpuPhase, spec: &GpuSpec, core_mhz: f64, mem_mhz: f64) -> PhaseTiming {
    if phase.ops <= 0.0 && phase.bytes <= 0.0 {
        return PhaseTiming {
            wall_s: phase.host_floor_s,
            compute_s: 0.0,
            memory_s: 0.0,
            u_core: 0.0,
            u_mem: 0.0,
        };
    }
    let ops_rate = spec.ops_per_sec(core_mhz) * phase.eff_compute;
    let byte_rate = spec.bytes_per_sec(mem_mhz) * phase.eff_mem;
    let t = greengpu_hw::gpu_timing(
        &greengpu_hw::WorkUnits::new(phase.ops, phase.bytes),
        ops_rate,
        byte_rate,
        spec.overlap,
    );
    let wall = t.total_s.max(phase.host_floor_s);
    PhaseTiming {
        wall_s: wall,
        compute_s: t.compute_s,
        memory_s: t.memory_s,
        u_core: (t.compute_s / wall).min(1.0),
        u_mem: (t.memory_s / wall * phase.mem_busy_factor).min(1.0),
    }
}

/// Times a CPU slice at an explicit P-state frequency (MHz), spread across
/// all cores.
pub fn phase_cpu_time_s(slice: &CpuSlice, spec: &CpuSpec, mhz: f64) -> f64 {
    if slice.ops <= 0.0 && slice.bytes <= 0.0 {
        return 0.0;
    }
    let rate = spec.ops_per_core_sec(mhz) * slice.eff;
    greengpu_hw::cpu_time(
        &greengpu_hw::WorkUnits::new(slice.ops, slice.bytes),
        spec.n_cores,
        rate,
        spec.mem_bytes_per_sec,
    )
}

/// Total GPU time of a full iteration (all phases, share = 1) at fixed
/// clocks.
pub fn iteration_gpu_time_s(phases: &[PhaseCost], spec: &GpuSpec, core_mhz: f64, mem_mhz: f64) -> f64 {
    phases
        .iter()
        .map(|p| phase_gpu_timing(&p.gpu, spec, core_mhz, mem_mhz).total_s())
        .sum()
}

/// Total CPU time of a full iteration at a fixed P-state.
pub fn iteration_cpu_time_s(phases: &[PhaseCost], spec: &CpuSpec, mhz: f64) -> f64 {
    phases.iter().map(|p| phase_cpu_time_s(&p.cpu, spec, mhz)).sum()
}

/// Computes the host-pipeline floor that leaves the GPU idle a `frac`
/// fraction of the phase's wall time at *peak* clocks (i.e. floor =
/// roofline / (1 − frac)). Workloads use this to express their fitted
/// driver/launch overhead as a fraction rather than absolute seconds.
pub fn host_floor_for_gap_fraction(phase: &GpuPhase, spec: &GpuSpec, frac: f64) -> f64 {
    assert!((0.0..1.0).contains(&frac), "gap fraction must be in [0,1)");
    let peak_core = *spec.core_levels_mhz.last().expect("core levels");
    let peak_mem = *spec.mem_levels_mhz.last().expect("mem levels");
    let mut floorless = *phase;
    floorless.host_floor_s = 0.0;
    let t = phase_gpu_timing(&floorless, spec, peak_core, peak_mem);
    t.wall_s / (1.0 - frac)
}

/// Iteration-level utilization averages at fixed clocks (time-weighted over
/// phases), used by calibration tests for the Table II classes.
pub fn iteration_utilization(phases: &[PhaseCost], spec: &GpuSpec, core_mhz: f64, mem_mhz: f64) -> (f64, f64) {
    let mut total = 0.0;
    let mut core_area = 0.0;
    let mut mem_area = 0.0;
    for p in phases {
        let t = phase_gpu_timing(&p.gpu, spec, core_mhz, mem_mhz);
        total += t.wall_s;
        core_area += t.u_core * t.wall_s;
        mem_area += t.u_mem * t.wall_s;
    }
    // lint:allow(float_eq) zero-phase guard; wall_s sums start from literal 0.0
    if total == 0.0 {
        (0.0, 0.0)
    } else {
        (core_area / total, mem_area / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::GpuPhase;
    use greengpu_hw::calib::{geforce_8800_gtx, phenom_ii_x2};

    fn phase(ops: f64, bytes: f64, floor: f64) -> GpuPhase {
        GpuPhase::new("t", ops, bytes, 0.5, 0.5, floor)
    }

    #[test]
    fn floor_caps_wall_and_scales_utilization() {
        let spec = geforce_8800_gtx();
        let free = phase_gpu_timing(&phase(1e10, 1e8, 0.0), &spec, 576.0, 900.0);
        let floored = phase_gpu_timing(&phase(1e10, 1e8, 2.0 * free.wall_s), &spec, 576.0, 900.0);
        assert!((floored.wall_s - 2.0 * free.wall_s).abs() < 1e-12);
        assert!((floored.u_core - free.u_core / 2.0).abs() < 1e-9);
        assert_eq!(free.compute_s, floored.compute_s, "roofline components unchanged");
    }

    #[test]
    fn throttling_inside_the_floor_slack_is_free() {
        // The §III premise: while the host pipeline is the bottleneck,
        // lowering GPU clocks does not change wall time — utilization just
        // rises to fill the slack.
        let spec = geforce_8800_gtx();
        let p_free = phase(1e10, 1e8, 0.0);
        let active_peak = phase_gpu_timing(&p_free, &spec, 576.0, 900.0).wall_s;
        let p = phase(1e10, 1e8, active_peak * 2.0);
        let fast = phase_gpu_timing(&p, &spec, 576.0, 900.0);
        let slow = phase_gpu_timing(&p, &spec, 408.0, 900.0);
        assert_eq!(fast.wall_s, slow.wall_s, "host-bound wall time must not move");
        assert!(slow.u_core > fast.u_core, "utilization fills the slack");
    }

    #[test]
    fn throttling_past_the_floor_stretches_wall() {
        let spec = geforce_8800_gtx();
        let p_free = phase(1e10, 1e8, 0.0);
        let active_peak = phase_gpu_timing(&p_free, &spec, 576.0, 900.0).wall_s;
        let p = phase(1e10, 1e8, active_peak * 1.1);
        let fast = phase_gpu_timing(&p, &spec, 576.0, 900.0);
        let slow = phase_gpu_timing(&p, &spec, 296.0, 900.0);
        assert!(slow.wall_s > fast.wall_s * 1.5, "deep throttle must stretch");
    }

    #[test]
    fn empty_phase_is_pure_floor() {
        let spec = geforce_8800_gtx();
        let t = phase_gpu_timing(&phase(0.0, 0.0, 1.5), &spec, 576.0, 900.0);
        assert_eq!(t.wall_s, 1.5);
        assert_eq!(t.u_core, 0.0);
        assert_eq!(t.u_mem, 0.0);
    }

    #[test]
    fn mem_busy_factor_amplifies_sensor_not_time() {
        let spec = geforce_8800_gtx();
        let base = phase(1e10, 1e8, 0.0);
        let amplified = base.with_mem_busy_factor(4.0);
        let t0 = phase_gpu_timing(&base, &spec, 576.0, 900.0);
        let t1 = phase_gpu_timing(&amplified, &spec, 576.0, 900.0);
        assert_eq!(t0.wall_s, t1.wall_s, "timing unchanged");
        assert!((t1.u_mem - (t0.u_mem * 4.0).min(1.0)).abs() < 1e-12);
        let huge = base.with_mem_busy_factor(1e6);
        let t2 = phase_gpu_timing(&huge, &spec, 576.0, 900.0);
        assert_eq!(t2.u_mem, 1.0);
    }

    #[test]
    fn floor_fraction_helper_hits_target_utilization() {
        let spec = geforce_8800_gtx();
        let mut p = phase(1e10, 1e8, 0.0);
        let u_free = phase_gpu_timing(&p, &spec, 576.0, 900.0).u_core;
        p.host_floor_s = host_floor_for_gap_fraction(&p, &spec, 0.40);
        let t = phase_gpu_timing(&p, &spec, 576.0, 900.0);
        assert!(
            (t.u_core - u_free * 0.60).abs() < 1e-9,
            "u {} vs {}",
            t.u_core,
            u_free * 0.6
        );
    }

    #[test]
    fn cpu_time_uses_efficiency() {
        let spec = phenom_ii_x2();
        let full = CpuSlice {
            ops: 14e9,
            bytes: 1e3,
            eff: 1.0,
        };
        let half = CpuSlice { eff: 0.5, ..full };
        let t_full = phase_cpu_time_s(&full, &spec, 2800.0);
        let t_half = phase_cpu_time_s(&half, &spec, 2800.0);
        assert!((t_half / t_full - 2.0).abs() < 1e-9);
        // 14e9 ops across 2 cores at 7 Gops/core = 1 s.
        assert!((t_full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cpu_slice_is_free() {
        let spec = phenom_ii_x2();
        let t = phase_cpu_time_s(
            &CpuSlice {
                ops: 0.0,
                bytes: 0.0,
                eff: 1.0,
            },
            &spec,
            2800.0,
        );
        assert_eq!(t, 0.0);
    }

    #[test]
    fn iteration_sums_phases() {
        let spec = geforce_8800_gtx();
        let cpu = CpuSlice {
            ops: 1e9,
            bytes: 1e3,
            eff: 1.0,
        };
        let phases = vec![
            PhaseCost {
                gpu: phase(1e10, 1e8, 0.1),
                cpu,
            },
            PhaseCost {
                gpu: phase(2e10, 2e8, 0.2),
                cpu,
            },
        ];
        let t1 = phase_gpu_timing(&phases[0].gpu, &spec, 576.0, 900.0).wall_s;
        let t2 = phase_gpu_timing(&phases[1].gpu, &spec, 576.0, 900.0).wall_s;
        let sum = iteration_gpu_time_s(&phases, &spec, 576.0, 900.0);
        assert!((sum - (t1 + t2)).abs() < 1e-12);
        let cpu_spec = phenom_ii_x2();
        let c = iteration_cpu_time_s(&phases, &cpu_spec, 2800.0);
        assert!((c - 2.0 * phase_cpu_time_s(&cpu, &cpu_spec, 2800.0)).abs() < 1e-12);
    }

    #[test]
    fn iteration_utilization_weights_by_time() {
        let spec = geforce_8800_gtx();
        let cpu = CpuSlice {
            ops: 1.0,
            bytes: 0.0,
            eff: 1.0,
        };
        // One compute-heavy phase, one pure-floor phase of equal length.
        let p1 = phase(1e10, 1e6, 0.0);
        let t1 = phase_gpu_timing(&p1, &spec, 576.0, 900.0);
        let p2 = phase(0.0, 0.0, t1.wall_s);
        let phases = vec![PhaseCost { gpu: p1, cpu }, PhaseCost { gpu: p2, cpu }];
        let (u_core, _) = iteration_utilization(&phases, &spec, 576.0, 900.0);
        assert!((u_core - t1.u_core / 2.0).abs() < 1e-9);
    }
}
