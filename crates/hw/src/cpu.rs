//! The CPU-side model.
//!
//! Models the paper's AMD Phenom II X2 host: a small number of cores sharing
//! one DVFS domain with four P-states (2.8/2.1/1.3/0.8 GHz). Unlike the GPU,
//! the CPU scales *voltage* with frequency, so dynamic power follows
//! `C·V²·f`. The meter on this side corresponds to the paper's Meter 1: it
//! measures the whole box (motherboard, disk, DRAM) plus the CPU package.

use crate::freq::FrequencyDomain;
use greengpu_sim::{SimTime, StepTrace};
use std::sync::Arc;

/// Static description of the CPU and host box.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of cores (the Phenom II X2 has two).
    pub n_cores: usize,
    /// P-state frequencies in MHz, ascending.
    pub levels_mhz: Vec<f64>,
    /// Core voltage per P-state, volts, same order as `levels_mhz`.
    pub volts: Vec<f64>,
    /// Scalar operations per core per cycle.
    pub ops_per_core_cycle: f64,
    /// Host memory bandwidth available to CPU kernels, bytes/s.
    pub mem_bytes_per_sec: f64,
    /// Box power excluding the CPU package (motherboard, disk, DRAM), watts.
    pub p_box_w: f64,
    /// Per-core leakage/idle power at peak V/f, watts (scales with `V²·f`).
    pub p_core_idle_w: f64,
    /// Per-core dynamic power at peak V/f and 100 % utilization, watts.
    pub p_core_dyn_w: f64,
}

impl CpuSpec {
    /// Checks the P-state tables a [`CpuModel`] is built from, naming the
    /// offending field: at least two levels, all finite and positive,
    /// strictly ascending, and one voltage per level.
    pub fn try_validate(&self) -> Result<(), String> {
        crate::freq::check_levels(&self.levels_mhz).map_err(|msg| format!("levels_mhz: {msg}"))?;
        if self.volts.len() != self.levels_mhz.len() {
            return Err(format!(
                "volts: need one entry per level ({}), got {}",
                self.levels_mhz.len(),
                self.volts.len()
            ));
        }
        Ok(())
    }

    /// Compute throughput of one core at a frequency in MHz.
    pub fn ops_per_core_sec(&self, mhz: f64) -> f64 {
        self.ops_per_core_cycle * mhz * 1e6
    }

    /// `(V/V_peak)² · (f/f_peak)` — the DVFS power scaling factor of
    /// P-state `i`.
    pub fn dvfs_factor(&self, i: usize) -> f64 {
        let v_peak = *self.volts.last().expect("volts");
        let f_peak = *self.levels_mhz.last().expect("levels");
        let v = self.volts[i] / v_peak;
        let f = self.levels_mhz[i] / f_peak;
        v * v * f
    }

    /// Whole-box power at P-state `i` with aggregate utilization `util`
    /// across `active_cores` cores.
    pub fn power_w(&self, i: usize, util: f64, active_cores: usize) -> f64 {
        debug_assert!((0.0..=1.0).contains(&util));
        debug_assert!(active_cores <= self.n_cores);
        let k = self.dvfs_factor(i);
        self.p_box_w + active_cores as f64 * k * (self.p_core_idle_w + self.p_core_dyn_w * util)
    }

    /// Box power when all cores idle at the lowest P-state — the floor.
    pub fn floor_power_w(&self) -> f64 {
        self.power_w(0, 0.0, self.n_cores)
    }

    /// Box power fully loaded at the peak P-state.
    pub fn peak_power_w(&self) -> f64 {
        self.power_w(self.levels_mhz.len() - 1, 1.0, self.n_cores)
    }
}

/// A live CPU: spec + current P-state + activity, with the utilization trace
/// consumed by the ondemand governor. The spec is shared, as
/// [`crate::GpuModel`]'s is.
#[derive(Debug, Clone)]
pub struct CpuModel {
    spec: Arc<CpuSpec>,
    domain: FrequencyDomain,
    /// Sensor-visible utilization (what /proc/stat and the governor see).
    util: f64,
    /// Power-relevant activity. A spin-wait loop reads 100 % busy but
    /// executes no FP work, so it draws less than real computation.
    power_util: f64,
    active_cores: usize,
    util_trace: StepTrace,
}

impl CpuModel {
    /// Creates a CPU starting at P-state index `initial`.
    pub fn new(spec: impl Into<Arc<CpuSpec>>, initial: usize) -> Self {
        let spec = spec.into();
        assert_eq!(spec.levels_mhz.len(), spec.volts.len(), "V/f tables must align");
        let domain = FrequencyDomain::new("cpu", &spec.levels_mhz, initial);
        let active_cores = spec.n_cores;
        CpuModel {
            spec,
            domain,
            util: 0.0,
            power_util: 0.0,
            active_cores,
            util_trace: StepTrace::with_initial(0.0),
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// The DVFS domain.
    pub fn domain(&self) -> &FrequencyDomain {
        &self.domain
    }

    /// Sets the P-state at `at`.
    pub fn set_level(&mut self, at: SimTime, index: usize) {
        self.domain.set_level(at, index);
    }

    /// Jumps to the peak P-state (what ondemand does above the up
    /// threshold).
    pub fn set_peak(&mut self, at: SimTime) {
        self.domain.set_peak(at);
    }

    /// Steps one P-state down (what ondemand does below the down
    /// threshold).
    pub fn step_down(&mut self, at: SimTime) -> usize {
        self.domain.step_down(at)
    }

    /// Records aggregate utilization (`[0,1]`) over `active_cores` cores
    /// from `at` onward; sensor and power activity move together.
    pub fn set_activity(&mut self, at: SimTime, util: f64, active_cores: usize) {
        self.set_activity_split(at, util, util, active_cores);
    }

    /// Records sensor-visible utilization and power-relevant activity
    /// separately — the spin-wait case reads 100 % busy (defeating the
    /// ondemand governor, paper §VII-A) while drawing less than real work.
    pub fn set_activity_split(&mut self, at: SimTime, sensor_util: f64, power_util: f64, active_cores: usize) {
        self.util = sensor_util.clamp(0.0, 1.0);
        self.power_util = power_util.clamp(0.0, 1.0);
        self.active_cores = active_cores.min(self.spec.n_cores);
        self.util_trace.set(at, self.util);
    }

    /// Instantaneous whole-box power.
    pub fn current_power_w(&self) -> f64 {
        self.spec
            .power_w(self.domain.current_level(), self.power_util, self.active_cores)
    }

    /// Whole-box power if the CPU were parked at the lowest P-state with
    /// zero utilization — used by the paper's Fig. 6c emulation ("replace
    /// the CPU energy with the average CPU energy at the lowest frequency
    /// level").
    pub fn lowest_level_idle_power_w(&self) -> f64 {
        self.spec.power_w(0, 0.0, self.spec.n_cores)
    }

    /// The utilization trace the governor samples.
    pub fn util_trace(&self) -> &StepTrace {
        &self.util_trace
    }

    /// Forgets the domain's and the utilization's history before `cut`
    /// ([`StepTrace::forget_before`]).
    pub fn forget_before(&mut self, cut: SimTime) {
        self.domain.forget_before(cut);
        self.util_trace.forget_before(cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::phenom_ii_x2;
    use crate::perf::{cpu_time, WorkUnits};

    #[test]
    fn dvfs_factor_is_one_at_peak_and_decreasing() {
        let spec = phenom_ii_x2();
        let n = spec.levels_mhz.len();
        assert!((spec.dvfs_factor(n - 1) - 1.0).abs() < 1e-12);
        for i in 1..n {
            assert!(spec.dvfs_factor(i) > spec.dvfs_factor(i - 1));
        }
        // V² scaling makes the lowest state much cheaper than linear-f.
        let linear = spec.levels_mhz[0] / spec.levels_mhz[n - 1];
        assert!(spec.dvfs_factor(0) < linear);
    }

    #[test]
    fn power_is_in_desktop_class() {
        let spec = phenom_ii_x2();
        let idle = spec.power_w(spec.levels_mhz.len() - 1, 0.0, 2);
        let peak = spec.peak_power_w();
        assert!((50.0..100.0).contains(&idle), "idle {idle} W");
        assert!((90.0..170.0).contains(&peak), "peak {peak} W");
        assert!(spec.floor_power_w() < idle);
    }

    #[test]
    fn kernel_time_scales_with_pstate() {
        let spec = phenom_ii_x2();
        let w = WorkUnits::new(28e9, 1e6);
        let time_at = |level: usize| {
            let per_core = spec.ops_per_core_sec(spec.levels_mhz[level]);
            cpu_time(&w, spec.n_cores, per_core, spec.mem_bytes_per_sec)
        };
        assert!((time_at(0) / time_at(3) - 2800.0 / 800.0).abs() < 1e-9);
    }

    #[test]
    fn activity_trace_records() {
        let mut cpu = CpuModel::new(phenom_ii_x2(), 3);
        cpu.set_activity(SimTime::from_secs(2), 1.0, 2);
        assert_eq!(cpu.util_trace().value_at(SimTime::from_secs(3)), 1.0);
        assert_eq!(cpu.util_trace().value_at(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn lowest_level_idle_is_floor() {
        let cpu = CpuModel::new(phenom_ii_x2(), 3);
        assert_eq!(cpu.lowest_level_idle_power_w(), cpu.spec().floor_power_w());
    }

    #[test]
    fn governor_helpers_move_levels() {
        let mut cpu = CpuModel::new(phenom_ii_x2(), 1);
        cpu.set_peak(SimTime::from_secs(1));
        assert_eq!(cpu.domain().current_level(), 3);
        cpu.step_down(SimTime::from_secs(2));
        assert_eq!(cpu.domain().current_level(), 2);
    }

    #[test]
    fn split_activity_decouples_sensor_from_power() {
        let mut cpu = CpuModel::new(phenom_ii_x2(), 3);
        cpu.set_activity_split(SimTime::ZERO, 1.0, 0.55, 2);
        // Sensor reads saturated...
        assert_eq!(cpu.util_trace().value_at(SimTime::ZERO), 1.0);
        // ...but power sits between idle and full-work.
        let p = cpu.current_power_w();
        let idle = cpu.spec().power_w(3, 0.0, 2);
        let full = cpu.spec().peak_power_w();
        assert!(p > idle && p < full, "spin power {p} not between {idle} and {full}");
    }

    #[test]
    fn spin_wait_burns_full_power() {
        // Synchronized CPU-GPU communication keeps the CPU at 100 % while
        // waiting (paper §VII-A) — spinning must cost as much as working.
        let mut cpu = CpuModel::new(phenom_ii_x2(), 3);
        cpu.set_activity(SimTime::ZERO, 1.0, 2);
        let spinning = cpu.current_power_w();
        assert!((spinning - cpu.spec().peak_power_w()).abs() < 1e-9);
    }
}
