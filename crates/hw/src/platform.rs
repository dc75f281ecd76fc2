//! The assembled testbed.
//!
//! [`Platform`] wires the GPU and CPU models to the two power meters exactly
//! like the paper's Figure 4: Meter 1 on the box (CPU side), Meter 2 on the
//! GPU card's dedicated supply. Every state change (frequency level,
//! activity) is followed by a refresh of the meters that device drives, so
//! the power traces are exact step functions of the model state.

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

    /// Re-reads every device power into the meters at `at`.
    fn refresh_meters(&mut self, at: SimTime) {
        self.gpu_meter.record(at, self.gpu.current_power_w());
        self.cpu_meter.record(at, self.cpu.current_power_w());
        self.gpu_idle_meter.record(at, self.gpu.idle_power_w());
    }

    // A setter records only the meters its device drives: the GPU's power
    // moves with its levels and activity, its idle reference with its
    // levels, the box's with the CPU. A meter's last value is always its
    // device's current power, and `StepTrace::set` drops a repeated value,
    // so the traces are the ones refreshing every meter after every setter
    // leaves.

    /// Sets GPU core/memory levels (the `nvidia-settings` actuation path).
    pub fn set_gpu_levels(&mut self, at: SimTime, core_idx: usize, mem_idx: usize) {
        if (self.gpu.core().current_level(), self.gpu.mem().current_level()) == (core_idx, mem_idx) {
            return;
        }
        self.gpu.set_levels(at, core_idx, mem_idx);
        self.gpu_meter.record(at, self.gpu.current_power_w());
        self.gpu_idle_meter.record(at, self.gpu.idle_power_w());
    }

    /// Sets the CPU P-state (the cpufreq actuation path).
    pub fn set_cpu_level(&mut self, at: SimTime, idx: usize) {
        if self.cpu.domain().current_level() == idx {
            return;
        }
        self.cpu.set_level(at, idx);
        self.cpu_meter.record(at, self.cpu.current_power_w());
    }

    /// Records GPU activity (busy fractions) from `at` onward.
    pub fn set_gpu_activity(&mut self, at: SimTime, core_activity: f64, mem_activity: f64) {
        self.gpu.set_activity(at, core_activity, mem_activity);
        self.gpu_meter.record(at, self.gpu.current_power_w());
    }

    /// Records CPU activity from `at` onward.
    pub fn set_cpu_activity(&mut self, at: SimTime, util: f64, active_cores: usize) {
        self.set_cpu_activity_split(at, util, util, active_cores);
    }

    /// Records CPU activity with separate sensor and power components
    /// (spin-wait: 100 % busy to the governor, reduced power draw).
    pub fn set_cpu_activity_split(&mut self, at: SimTime, sensor_util: f64, power_util: f64, active_cores: usize) {
        self.cpu.set_activity_split(at, sensor_util, power_util, active_cores);
        self.cpu_meter.record(at, self.cpu.current_power_w());
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

    use greengpu_sim::StepTrace;
    use proptest::prelude::*;

    /// An activity drawn from four values, so that repeats are common.
    fn activity() -> impl Strategy<Value = f64> {
        (0u64..4).prop_map(|k| k as f64 / 3.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random setter sequences, with repeated levels and activities and
        /// several setters at one instant: each meter's points are, bit for
        /// bit, those of a shadow trace that records all three device
        /// powers after every setter.
        #[test]
        fn setters_leave_the_traces_of_recording_every_meter(
            calls in proptest::collection::vec(
                (0u64..5, (0usize..8, 0usize..8), (activity(), activity()), 0usize..4, 0u64..3),
                1..40,
            ),
        ) {
            let mut p = Platform::default_testbed();
            let mut shadow = [StepTrace::new(), StepTrace::new(), StepTrace::new()];
            let record = |shadow: &mut [StepTrace; 3], p: &Platform, at: SimTime| {
                shadow[0].set(at, p.gpu().current_power_w());
                shadow[1].set(at, p.cpu().current_power_w());
                shadow[2].set(at, p.gpu().idle_power_w());
            };
            record(&mut shadow, &p, SimTime::ZERO);
            let spec = p.gpu().spec();
            let (n_core, n_mem) = (spec.core_levels_mhz.len(), spec.mem_levels_mhz.len());
            let n_cpu = p.cpu().spec().levels_mhz.len();
            let mut at = SimTime::ZERO;
            for (setter, (a, b), (u, v), cores, half_secs) in calls {
                at += SimDuration::from_millis(500 * half_secs);
                match setter {
                    0 => p.set_gpu_levels(at, a % n_core, b % n_mem),
                    1 => p.set_cpu_level(at, a % n_cpu),
                    2 => p.set_gpu_activity(at, u, v),
                    3 => p.set_cpu_activity(at, u, cores),
                    _ => p.set_cpu_activity_split(at, u, v, cores),
                }
                record(&mut shadow, &p, at);
            }
            let bits = |t: &StepTrace| t.points().map(|(at, w)| (at, w.to_bits())).collect::<Vec<_>>();
            for (meter, shadow) in [&p.gpu_meter, &p.cpu_meter, &p.gpu_idle_meter].into_iter().zip(&shadow) {
                prop_assert_eq!(bits(meter.trace()), bits(shadow), "{}", meter.name());
            }
        }
    }
}
