//! The assembled testbed.
//!
//! [`Platform`] wires the GPU and CPU models to the two power meters exactly
//! like the paper's Figure 4: Meter 1 on the box (CPU side), Meter 2 on the
//! GPU card's dedicated supply. Every state change (frequency level,
//! activity) is followed by a meter refresh so the power traces are exact
//! step functions of the model state.

use crate::cpu::{CpuModel, CpuSpec};
use crate::gpu::{GpuModel, GpuSpec};
use crate::meter::PowerMeter;
use greengpu_sim::SimTime;

/// A complete simulated testbed: GPU + CPU + two power meters.
#[derive(Debug, Clone)]
pub struct Platform {
    gpu: GpuModel,
    cpu: CpuModel,
    gpu_meter: PowerMeter,
    cpu_meter: PowerMeter,
    /// Virtual meter tracking what the GPU card would draw if idle at its
    /// *current* clocks — the "idle energy" the paper subtracts to report
    /// dynamic energy savings (Fig. 6b).
    gpu_idle_meter: PowerMeter,
}

impl Platform {
    /// Builds a platform with the given device specs and initial frequency
    /// levels, and records the initial power draw at t = 0.
    pub fn new(gpu_spec: GpuSpec, cpu_spec: CpuSpec, gpu_core_lvl: usize, gpu_mem_lvl: usize, cpu_lvl: usize) -> Self {
        let gpu = GpuModel::new(gpu_spec, gpu_core_lvl, gpu_mem_lvl);
        let cpu = CpuModel::new(cpu_spec, cpu_lvl);
        let mut p = Platform {
            gpu,
            cpu,
            gpu_meter: PowerMeter::new("Meter2 (GPU ATX supply)"),
            cpu_meter: PowerMeter::new("Meter1 (wall outlet / box)"),
            gpu_idle_meter: PowerMeter::new("GPU idle reference"),
        };
        p.refresh_meters(SimTime::ZERO);
        p
    }

    /// The default paper testbed: 8800 GTX + Phenom II X2, GPU at the driver
    /// default (lowest levels), CPU at the peak P-state.
    pub fn default_testbed() -> Self {
        Platform::new(crate::calib::geforce_8800_gtx(), crate::calib::phenom_ii_x2(), 0, 0, 3)
    }

    /// The default testbed with the GPU pinned at peak clocks — the paper's
    /// *best-performance* baseline starting state.
    pub fn best_performance_testbed() -> Self {
        let gpu = crate::calib::geforce_8800_gtx();
        let (c, m) = (gpu.core_levels_mhz.len() - 1, gpu.mem_levels_mhz.len() - 1);
        Platform::new(gpu, crate::calib::phenom_ii_x2(), c, m, 3)
    }

    /// GPU device model.
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }

    /// CPU device model.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// Meter 2: GPU card supply.
    pub fn gpu_meter(&self) -> &PowerMeter {
        &self.gpu_meter
    }

    /// Meter 1: box / CPU side.
    pub fn cpu_meter(&self) -> &PowerMeter {
        &self.cpu_meter
    }

    /// Re-reads both device powers into the meters at `at`.
    fn refresh_meters(&mut self, at: SimTime) {
        self.gpu_meter.record(at, self.gpu.current_power_w());
        self.cpu_meter.record(at, self.cpu.current_power_w());
        self.gpu_idle_meter.record(at, self.gpu.idle_power_w());
    }

    /// Sets GPU core/memory levels (the `nvidia-settings` actuation path).
    pub fn set_gpu_levels(&mut self, at: SimTime, core_idx: usize, mem_idx: usize) {
        self.gpu.set_levels(at, core_idx, mem_idx);
        self.refresh_meters(at);
    }

    /// Pins the GPU to peak clocks.
    pub fn set_gpu_peak(&mut self, at: SimTime) {
        self.gpu.set_peak(at);
        self.refresh_meters(at);
    }

    /// Sets the CPU P-state (the cpufreq actuation path).
    pub fn set_cpu_level(&mut self, at: SimTime, idx: usize) {
        self.cpu.set_level(at, idx);
        self.refresh_meters(at);
    }

    /// Records GPU activity (busy fractions) from `at` onward.
    pub fn set_gpu_activity(&mut self, at: SimTime, core_activity: f64, mem_activity: f64) {
        self.gpu.set_activity(at, core_activity, mem_activity);
        self.refresh_meters(at);
    }

    /// Records CPU activity from `at` onward.
    pub fn set_cpu_activity(&mut self, at: SimTime, util: f64, active_cores: usize) {
        self.cpu.set_activity(at, util, active_cores);
        self.refresh_meters(at);
    }

    /// Records CPU activity with separate sensor and power components
    /// (spin-wait: 100 % busy to the governor, reduced power draw).
    pub fn set_cpu_activity_split(&mut self, at: SimTime, sensor_util: f64, power_util: f64, active_cores: usize) {
        self.cpu.set_activity_split(at, sensor_util, power_util, active_cores);
        self.refresh_meters(at);
    }

    /// GPU-side energy (Meter 2) over a window, joules.
    pub fn gpu_energy_j(&self, from: SimTime, to: SimTime) -> f64 {
        self.gpu_meter.energy_j(from, to)
    }

    /// CPU-side energy (Meter 1) over a window, joules.
    pub fn cpu_energy_j(&self, from: SimTime, to: SimTime) -> f64 {
        self.cpu_meter.energy_j(from, to)
    }

    /// Whole-system energy (both meters) over a window, joules.
    pub fn total_energy_j(&self, from: SimTime, to: SimTime) -> f64 {
        self.gpu_energy_j(from, to) + self.cpu_energy_j(from, to)
    }

    /// Idle-reference GPU energy over a window (what the card would have
    /// burned doing nothing at the clocks it was actually running), joules.
    pub fn gpu_idle_energy_j(&self, from: SimTime, to: SimTime) -> f64 {
        self.gpu_idle_meter.energy_j(from, to)
    }

    /// The paper's Fig. 6b *dynamic* GPU energy: measured GPU energy minus
    /// the idle reference.
    pub fn gpu_dynamic_energy_j(&self, from: SimTime, to: SimTime) -> f64 {
        self.gpu_energy_j(from, to) - self.gpu_idle_energy_j(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu_sim::SimDuration;

    #[test]
    fn initial_power_is_recorded_at_zero() {
        let p = Platform::default_testbed();
        let pw = p.gpu_meter().power_at(SimTime::ZERO);
        assert!(pw > 0.0, "GPU draws idle power from t=0");
        let pc = p.cpu_meter().power_at(SimTime::ZERO);
        assert!(pc > 0.0);
    }

    #[test]
    fn activity_changes_show_up_in_energy() {
        let mut p = Platform::best_performance_testbed();
        let idle_1s = p.gpu_energy_j(SimTime::ZERO, SimTime::from_secs(1));
        p.set_gpu_activity(SimTime::from_secs(1), 1.0, 1.0);
        let busy_1s = p.gpu_energy_j(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(busy_1s > idle_1s * 2.0, "busy {busy_1s} vs idle {idle_1s}");
    }

    #[test]
    fn throttling_reduces_power_at_same_activity() {
        let mut p = Platform::best_performance_testbed();
        p.set_gpu_activity(SimTime::ZERO, 1.0, 0.2);
        let peak_p = p.gpu_meter().power_at(SimTime::ZERO);
        p.set_gpu_levels(SimTime::from_secs(1), 5, 0); // memory to 500 MHz
        let throttled_p = p.gpu_meter().power_at(SimTime::from_secs(1));
        assert!(throttled_p < peak_p);
    }

    #[test]
    fn total_energy_is_sum_of_meters() {
        let mut p = Platform::default_testbed();
        p.set_gpu_activity(SimTime::ZERO, 0.5, 0.5);
        p.set_cpu_activity(SimTime::ZERO, 1.0, 2);
        let to = SimTime::from_secs(5);
        let total = p.total_energy_j(SimTime::ZERO, to);
        let parts = p.gpu_energy_j(SimTime::ZERO, to) + p.cpu_energy_j(SimTime::ZERO, to);
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn cpu_dvfs_cuts_box_power() {
        let mut p = Platform::default_testbed();
        p.set_cpu_activity(SimTime::ZERO, 1.0, 2);
        let fast = p.cpu_meter().power_at(SimTime::ZERO);
        p.set_cpu_level(SimTime::from_secs(1), 0);
        let slow = p.cpu_meter().power_at(SimTime::from_secs(1));
        assert!(slow < fast, "slow {slow} fast {fast}");
        // V² scaling: the drop should be superlinear vs the frequency ratio.
        let spec = p.cpu().spec();
        let dyn_fast = fast - spec.p_box_w;
        let dyn_slow = slow - spec.p_box_w;
        assert!(dyn_slow / dyn_fast < 800.0 / 2800.0 + 1e-9);
    }

    #[test]
    fn dynamic_energy_subtracts_idle_reference() {
        let mut p = Platform::best_performance_testbed();
        let to = SimTime::from_secs(10);
        // Fully idle run: dynamic energy is zero.
        assert!(p.gpu_dynamic_energy_j(SimTime::ZERO, to).abs() < 1e-9);
        // Busy run: dynamic energy is the activity-dependent part only.
        p.set_gpu_activity(SimTime::ZERO, 1.0, 1.0);
        let dynamic = p.gpu_dynamic_energy_j(SimTime::ZERO, to);
        let total = p.gpu_energy_j(SimTime::ZERO, to);
        assert!(dynamic > 0.0 && dynamic < total);
        let spec = p.gpu().spec();
        let expected = (spec.p_core_dyn_w + spec.p_mem_dyn_w) * 10.0;
        assert!((dynamic - expected).abs() < 1e-6, "dynamic {dynamic} vs {expected}");
    }

    #[test]
    fn meter_sample_log_has_expected_cadence() {
        let p = Platform::default_testbed();
        let log = p.gpu_meter().sample_log(SimTime::ZERO, SimDuration::from_secs(1), 5);
        assert_eq!(log.len(), 5);
        assert!(log.values().iter().all(|&w| w > 0.0));
    }
}
