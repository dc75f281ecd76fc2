//! The GPU device model.
//!
//! Models a GeForce 8800 GTX-class card: an array of streaming
//! multiprocessors (SMs) clocked by the *core* domain and a GDDR memory
//! channel clocked by the *memory* domain, each with six selectable
//! frequency levels (paper §VI). Execution time follows the
//! roofline-with-overlap model in [`crate::perf`]; power is the sum of a
//! constant board draw, frequency-proportional idle clock power per domain,
//! and frequency- and activity-proportional dynamic power per domain.
//!
//! The 8800 GTX era exposes *frequency* scaling only — `nvidia-settings`
//! cannot change voltage (the paper notes this in §VII-C) — so GPU dynamic
//! power is linear in `f` by default, unlike the CPU's `V²·f`. Optional
//! per-level voltage tables ([`GpuSpec::core_volts`]/[`GpuSpec::mem_volts`])
//! model DVFS-capable cards for the §VII-C what-if (see
//! `greengpu_hw::calib::geforce_dvfs_whatif`).

use crate::freq::FrequencyDomain;
use crate::perf::{gpu_timing, GpuTiming, WorkUnits};
use greengpu_sim::{SimTime, StepTrace};

/// Static description of a GPU.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub n_sm: usize,
    /// Scalar processors per SM.
    pub sp_per_sm: usize,
    /// Operations per scalar processor per core-clock cycle.
    pub ops_per_sp_cycle: f64,
    /// DRAM bytes transferred per memory-clock cycle at full utilization.
    pub mem_bytes_per_cycle: f64,
    /// Core-domain frequency levels in MHz, ascending.
    pub core_levels_mhz: Vec<f64>,
    /// Memory-domain frequency levels in MHz, ascending.
    pub mem_levels_mhz: Vec<f64>,
    /// Compute/memory overlap factor in `[0, 1]`.
    pub overlap: f64,
    /// Constant board power (fans, VRM losses, I/O), watts.
    pub p_static_w: f64,
    /// Core-domain clock-tree power at the peak core frequency, watts
    /// (scales linearly with `f_core`).
    pub p_core_idle_w: f64,
    /// Memory-domain background power at the peak memory frequency, watts
    /// (scales linearly with `f_mem`).
    pub p_mem_idle_w: f64,
    /// Core-domain dynamic power at peak frequency and 100 % activity,
    /// watts.
    pub p_core_dyn_w: f64,
    /// Memory-domain dynamic power at peak frequency and 100 % activity,
    /// watts.
    pub p_mem_dyn_w: f64,
    /// Optional per-level core voltages (same order as
    /// `core_levels_mhz`). `None` models the 8800 GTX era — frequency-only
    /// scaling, power linear in `f` (the paper notes `nvidia-settings`
    /// "only conducts frequency scaling"). `Some` enables true DVFS:
    /// dynamic power scales with `(V/V_peak)²·f`, the what-if the paper
    /// expects to yield "more energy saving" (§VII-C).
    pub core_volts: Option<Vec<f64>>,
    /// Optional per-level memory voltages (see `core_volts`).
    pub mem_volts: Option<Vec<f64>>,
}

impl GpuSpec {
    /// Checks the level and voltage tables a [`GpuModel`] is built from,
    /// naming the offending field: each level table has at least two
    /// levels, all finite and positive, strictly ascending; a voltage
    /// table, when set, has one entry per level.
    pub fn try_validate(&self) -> Result<(), String> {
        for (domain, levels, volts) in [
            ("core", &self.core_levels_mhz, &self.core_volts),
            ("mem", &self.mem_levels_mhz, &self.mem_volts),
        ] {
            crate::freq::check_levels(levels).map_err(|msg| format!("{domain}_levels_mhz: {msg}"))?;
            if let Some(v) = volts.as_ref().filter(|v| v.len() != levels.len()) {
                return Err(format!(
                    "{domain}_volts: need one entry per level ({}), got {}",
                    levels.len(),
                    v.len()
                ));
            }
        }
        Ok(())
    }

    /// Compute throughput (scalar ops/s) at a core frequency in MHz.
    pub fn ops_per_sec(&self, core_mhz: f64) -> f64 {
        self.n_sm as f64 * self.sp_per_sm as f64 * self.ops_per_sp_cycle * core_mhz * 1e6
    }

    /// Memory bandwidth (bytes/s) at a memory frequency in MHz.
    pub fn bytes_per_sec(&self, mem_mhz: f64) -> f64 {
        self.mem_bytes_per_cycle * mem_mhz * 1e6
    }

    /// Peak compute throughput.
    pub fn peak_ops_per_sec(&self) -> f64 {
        self.ops_per_sec(*self.core_levels_mhz.last().expect("core levels"))
    }

    /// Peak memory bandwidth.
    pub fn peak_bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec(*self.mem_levels_mhz.last().expect("mem levels"))
    }

    /// Voltage-squared scaling factor of a domain at level `i`: 1.0 when
    /// the domain has no voltage table (frequency-only scaling).
    fn v2_factor(volts: &Option<Vec<f64>>, i: usize) -> f64 {
        match volts {
            Some(v) => {
                let peak = *v.last().expect("voltage table");
                let r = v[i] / peak;
                r * r
            }
            None => 1.0,
        }
    }

    /// Board power given level indices and domain activities.
    pub fn power_at_levels_w(&self, core_lvl: usize, mem_lvl: usize, core_activity: f64, mem_activity: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&core_activity) && (0.0..=1.0).contains(&mem_activity));
        let core_frac = self.core_levels_mhz[core_lvl] / self.core_levels_mhz.last().expect("levels");
        let mem_frac = self.mem_levels_mhz[mem_lvl] / self.mem_levels_mhz.last().expect("levels");
        let vc2 = Self::v2_factor(&self.core_volts, core_lvl);
        let vm2 = Self::v2_factor(&self.mem_volts, mem_lvl);
        self.p_static_w
            + self.p_core_idle_w * core_frac * vc2
            + self.p_mem_idle_w * mem_frac * vm2
            + self.p_core_dyn_w * core_frac * core_activity * vc2
            + self.p_mem_dyn_w * mem_frac * mem_activity * vm2
    }

    /// Board power given frequency fractions-of-peak and domain activities
    /// (frequency-only form; voltage tables are ignored — use
    /// [`GpuSpec::power_at_levels_w`] for DVFS-aware accounting).
    pub fn power_w(&self, core_frac: f64, mem_frac: f64, core_activity: f64, mem_activity: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&core_activity) && (0.0..=1.0).contains(&mem_activity));
        self.p_static_w
            + self.p_core_idle_w * core_frac
            + self.p_mem_idle_w * mem_frac
            + self.p_core_dyn_w * core_frac * core_activity
            + self.p_mem_dyn_w * mem_frac * mem_activity
    }

    /// Board power when fully idle at the *lowest* levels — the card's
    /// floor draw.
    pub fn floor_power_w(&self) -> f64 {
        let core_frac = self.core_levels_mhz[0] / self.core_levels_mhz.last().unwrap();
        let mem_frac = self.mem_levels_mhz[0] / self.mem_levels_mhz.last().unwrap();
        self.power_w(core_frac, mem_frac, 0.0, 0.0)
    }

    /// Board power when fully loaded at peak levels.
    pub fn peak_power_w(&self) -> f64 {
        self.power_w(1.0, 1.0, 1.0, 1.0)
    }
}

/// A live GPU: spec + current frequency levels + activity, with utilization
/// traces for the smi facade.
#[derive(Debug, Clone)]
pub struct GpuModel {
    spec: GpuSpec,
    core: FrequencyDomain,
    mem: FrequencyDomain,
    /// Instantaneous core activity in `[0,1]` (fraction of cycles busy).
    act_core: f64,
    /// Instantaneous memory activity in `[0,1]` (fraction of peak BW used).
    act_mem: f64,
    u_core_trace: StepTrace,
    u_mem_trace: StepTrace,
}

impl GpuModel {
    /// Creates a GPU with both domains at the given initial level indices.
    ///
    /// The paper notes the driver default is the *lowest* levels; the
    /// best-performance baseline pins both to the peak.
    pub fn new(spec: GpuSpec, initial_core: usize, initial_mem: usize) -> Self {
        let core = FrequencyDomain::new("gpu-core", &spec.core_levels_mhz, initial_core);
        let mem = FrequencyDomain::new("gpu-mem", &spec.mem_levels_mhz, initial_mem);
        GpuModel {
            spec,
            core,
            mem,
            act_core: 0.0,
            act_mem: 0.0,
            u_core_trace: StepTrace::with_initial(0.0),
            u_mem_trace: StepTrace::with_initial(0.0),
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Core frequency domain.
    pub fn core(&self) -> &FrequencyDomain {
        &self.core
    }

    /// Memory frequency domain.
    pub fn mem(&self) -> &FrequencyDomain {
        &self.mem
    }

    /// Sets both domain levels at `at`.
    pub fn set_levels(&mut self, at: SimTime, core_idx: usize, mem_idx: usize) {
        self.core.set_level(at, core_idx);
        self.mem.set_level(at, mem_idx);
    }

    /// Pins both domains to their peak levels (the best-performance
    /// baseline).
    pub fn set_peak(&mut self, at: SimTime) {
        self.core.set_peak(at);
        self.mem.set_peak(at);
    }

    /// Current compute throughput in ops/s.
    pub fn ops_per_sec(&self) -> f64 {
        self.spec.ops_per_sec(self.core.current_mhz())
    }

    /// Current memory bandwidth in bytes/s.
    pub fn bytes_per_sec(&self) -> f64 {
        self.spec.bytes_per_sec(self.mem.current_mhz())
    }

    /// Roofline timing of `work` at the *current* frequency levels.
    pub fn timing(&self, work: &WorkUnits) -> GpuTiming {
        gpu_timing(work, self.ops_per_sec(), self.bytes_per_sec(), self.spec.overlap)
    }

    /// Records new instantaneous activity (busy fractions) starting at
    /// `at`. The runtime calls this at every segment boundary: kernel start,
    /// kernel end, phase change, frequency change.
    pub fn set_activity(&mut self, at: SimTime, core_activity: f64, mem_activity: f64) {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&core_activity));
        debug_assert!((0.0..=1.0 + 1e-9).contains(&mem_activity));
        self.act_core = core_activity.clamp(0.0, 1.0);
        self.act_mem = mem_activity.clamp(0.0, 1.0);
        self.u_core_trace.set(at, self.act_core);
        self.u_mem_trace.set(at, self.act_mem);
    }

    /// Instantaneous board power at the current levels and activity
    /// (voltage-aware when the spec has DVFS tables).
    pub fn current_power_w(&self) -> f64 {
        self.spec.power_at_levels_w(
            self.core.current_level(),
            self.mem.current_level(),
            self.act_core,
            self.act_mem,
        )
    }

    /// Idle board power at the current levels (activity forced to zero) —
    /// used for the paper's Fig. 6b dynamic-energy accounting.
    pub fn idle_power_w(&self) -> f64 {
        self.spec
            .power_at_levels_w(self.core.current_level(), self.mem.current_level(), 0.0, 0.0)
    }

    /// Core-utilization trace (what nvidia-smi would log).
    pub fn u_core_trace(&self) -> &StepTrace {
        &self.u_core_trace
    }

    /// Memory-utilization trace.
    pub fn u_mem_trace(&self) -> &StepTrace {
        &self.u_mem_trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::geforce_8800_gtx;

    #[test]
    fn throughput_scales_linearly_with_core_clock() {
        let spec = geforce_8800_gtx();
        let lo = spec.ops_per_sec(spec.core_levels_mhz[0]);
        let hi = spec.ops_per_sec(*spec.core_levels_mhz.last().unwrap());
        let ratio = hi / lo;
        let expected = spec.core_levels_mhz.last().unwrap() / spec.core_levels_mhz[0];
        assert!((ratio - expected).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_scales_linearly_with_mem_clock() {
        let spec = geforce_8800_gtx();
        let bw_900 = spec.bytes_per_sec(900.0);
        let bw_500 = spec.bytes_per_sec(500.0);
        assert!((bw_900 / bw_500 - 1.8).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_activity_and_frequency() {
        let spec = geforce_8800_gtx();
        let idle = spec.power_w(1.0, 1.0, 0.0, 0.0);
        let busy = spec.power_w(1.0, 1.0, 1.0, 1.0);
        assert!(busy > idle);
        let slow_busy = spec.power_w(0.5, 0.5, 1.0, 1.0);
        assert!(slow_busy < busy);
        assert!(spec.floor_power_w() < idle);
        assert_eq!(spec.peak_power_w(), busy);
    }

    #[test]
    fn calibrated_power_is_in_8800gtx_class() {
        // The 8800 GTX card draws roughly 70-80 W idle and 200-240 W loaded.
        let spec = geforce_8800_gtx();
        let idle_peak_clocks = spec.power_w(1.0, 1.0, 0.0, 0.0);
        assert!(
            (60.0..100.0).contains(&idle_peak_clocks),
            "idle {idle_peak_clocks} W out of class"
        );
        let peak = spec.peak_power_w();
        assert!((180.0..260.0).contains(&peak), "peak {peak} W out of class");
    }

    #[test]
    fn model_records_utilization_trace() {
        let mut gpu = GpuModel::new(geforce_8800_gtx(), 5, 5);
        gpu.set_activity(SimTime::from_secs(1), 0.9, 0.3);
        gpu.set_activity(SimTime::from_secs(3), 0.0, 0.0);
        let t = gpu.u_core_trace();
        assert_eq!(t.value_at(SimTime::from_secs(2)), 0.9);
        assert_eq!(t.value_at(SimTime::from_secs(4)), 0.0);
        let mean = t.mean(SimTime::from_secs(1), SimTime::from_secs(5));
        assert!((mean - 0.45).abs() < 1e-9);
    }

    #[test]
    fn activity_is_clamped() {
        let mut gpu = GpuModel::new(geforce_8800_gtx(), 0, 0);
        gpu.set_activity(SimTime::ZERO, 1.0, 1.0);
        assert!(gpu.current_power_w() <= gpu.spec().peak_power_w() + 1e-9);
    }

    #[test]
    fn set_peak_hits_top_levels() {
        let mut gpu = GpuModel::new(geforce_8800_gtx(), 0, 0);
        gpu.set_peak(SimTime::from_secs(1));
        assert_eq!(gpu.core().current_level(), gpu.core().peak_level());
        assert_eq!(gpu.mem().current_level(), gpu.mem().peak_level());
    }

    #[test]
    fn idle_power_ignores_activity() {
        let mut gpu = GpuModel::new(geforce_8800_gtx(), 5, 5);
        gpu.set_activity(SimTime::ZERO, 1.0, 1.0);
        assert!(gpu.idle_power_w() < gpu.current_power_w());
    }
}
