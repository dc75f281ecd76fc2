//! The workload abstraction shared by the runtime and the controllers.

/// Utilization class from the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilClass {
    /// Utilization well below half.
    Low,
    /// Mid-range utilization.
    Medium,
    /// Utilization close to saturation.
    High,
    /// Utilization swings widely over time (the paper's QG and SC).
    Fluctuating,
}

impl UtilClass {
    /// The inclusive band of time-averaged utilization this class maps to
    /// in the reproduction's calibration tests.
    pub fn band(self) -> (f64, f64) {
        match self {
            UtilClass::Low => (0.0, 0.40),
            UtilClass::Medium => (0.40, 0.75),
            UtilClass::High => (0.70, 1.0),
            // Fluctuating classes are checked on variability, not the mean.
            UtilClass::Fluctuating => (0.0, 1.0),
        }
    }

    /// Whether a time-averaged utilization falls inside this class's band.
    pub fn contains(self, u: f64) -> bool {
        let (lo, hi) = self.band();
        (lo..=hi).contains(&u)
    }
}

/// Static description of a workload — the row it occupies in Table II.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Short name as the paper uses it (`bfs`, `PF`, `QG`, …).
    pub name: &'static str,
    /// The paper's "Enlargement" column (data size / iteration count).
    pub enlargement: String,
    /// The paper's "Description" column.
    pub description: &'static str,
    /// Expected GPU-core utilization class.
    pub core_class: UtilClass,
    /// Expected GPU-memory utilization class.
    pub mem_class: UtilClass,
    /// Whether the workload supports CPU/GPU workload division (iteration
    /// work is chunk-divisible with mergeable results).
    pub divisible: bool,
}

/// GPU-side cost of one kernel phase.
///
/// `ops` and `bytes` are the raw work counted from the algorithm;
/// `eff_compute`/`eff_mem` are the fractions of the device's peak rates the
/// kernel actually achieves (occupancy, divergence, coalescing — fitted to
/// the paper's measured behaviour); `host_floor_s` is driver/launch/PCIe time
/// during which the GPU idles, independent of GPU frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPhase {
    /// Phase label for traces.
    pub label: &'static str,
    /// Scalar operations executed on the SMs.
    pub ops: f64,
    /// DRAM bytes moved.
    pub bytes: f64,
    /// Achieved fraction of peak compute throughput, `(0, 1]`.
    pub eff_compute: f64,
    /// Achieved fraction of peak memory bandwidth, `(0, 1]`.
    pub eff_mem: f64,
    /// Host-side gap in seconds (kernel launches, driver sync, PCIe).
    pub host_floor_s: f64,
    /// Memory-controller busy amplification, `≥ 1`.
    ///
    /// nvidia-smi's memory utilization counts *controller-busy* cycles, not
    /// achieved bandwidth; latency-bound access patterns (nbody's texture
    /// fetches, bfs's irregular reads) keep the controller busy far above
    /// their bandwidth fraction. The sensor-visible and power-relevant
    /// memory activity is `min(1, u_mem_roofline × mem_busy_factor)`, while
    /// *timing* stays bandwidth-based — which is how nbody can read "high
    /// memory utilization" in Table II yet be insensitive to memory clock in
    /// Fig. 1.
    pub mem_busy_factor: f64,
}

impl GpuPhase {
    /// Builds a phase with no controller-busy amplification
    /// (`mem_busy_factor = 1`).
    pub fn new(label: &'static str, ops: f64, bytes: f64, eff_compute: f64, eff_mem: f64, host_floor_s: f64) -> Self {
        GpuPhase {
            label,
            ops,
            bytes,
            eff_compute,
            eff_mem,
            host_floor_s,
            mem_busy_factor: 1.0,
        }
    }

    /// Sets the controller-busy amplification (builder style).
    pub fn with_mem_busy_factor(mut self, factor: f64) -> Self {
        debug_assert!(factor >= 1.0);
        self.mem_busy_factor = factor;
        self
    }

    /// Scales the phase to a `share` of the iteration (workload division
    /// assigns `1 - r` of each phase to the GPU).
    pub fn scale(&self, share: f64) -> GpuPhase {
        debug_assert!((0.0..=1.0).contains(&share));
        GpuPhase {
            ops: self.ops * share,
            bytes: self.bytes * share,
            host_floor_s: self.host_floor_s * share,
            ..*self
        }
    }
}

/// CPU-side cost of one phase: the same algorithmic work expressed in CPU
/// operations, executed across all cores (the paper's one-pthread-per-core
/// port).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSlice {
    /// Scalar operations executed by the CPU implementation.
    pub ops: f64,
    /// Host DRAM bytes moved.
    pub bytes: f64,
    /// Achieved fraction of the CPU's nominal throughput, `(0, 1]`.
    pub eff: f64,
}

impl CpuSlice {
    /// Scales the slice to a `share` of the iteration.
    pub fn scale(&self, share: f64) -> CpuSlice {
        debug_assert!((0.0..=1.0).contains(&share));
        CpuSlice {
            ops: self.ops * share,
            bytes: self.bytes * share,
            eff: self.eff,
        }
    }
}

/// The cost of one phase of one iteration, on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// GPU-side cost of the full (undivided) phase.
    pub gpu: GpuPhase,
    /// CPU-side cost of the full (undivided) phase.
    pub cpu: CpuSlice,
}

/// A benchmark: functional algorithm + per-iteration cost model.
///
/// An *iteration* is the paper's division quantum — "the execution of a
/// fixed amount of work" (§IV): a reduction point (kmeans), a barrier batch
/// (hotspot steps), or a chunk of an embarrassingly parallel sweep.
pub trait Workload: Send {
    /// The workload's Table II row.
    fn profile(&self) -> &WorkloadProfile;

    /// Number of iterations in a full run.
    fn iterations(&self) -> usize;

    /// Hardware cost of the *full* iteration `iter` (before division). The
    /// runtime scales each phase by the division ratio.
    ///
    /// Reads scalar parameters only, never the functional inputs: sweep
    /// runs call just `profile`, `iterations` and `phases`, so they never
    /// generate inputs.
    fn phases(&self, iter: usize) -> Vec<PhaseCost>;

    /// Functionally executes iteration `iter` with `cpu_share` of the
    /// parallel work on the CPU side, merging partial results. Returns a
    /// digest of the iteration's state (for split-invariance checks).
    ///
    /// Non-divisible workloads ignore `cpu_share` (treated as 0).
    fn execute(&mut self, iter: usize, cpu_share: f64) -> f64;

    /// Digest of all state produced so far.
    fn digest(&self) -> f64;

    /// Resets functional state so the workload can be re-run.
    fn reset(&mut self);
}

/// Validates a phase's invariants; used by workload unit tests.
pub fn check_phase(p: &PhaseCost) {
    assert!(p.gpu.ops >= 0.0 && p.gpu.bytes >= 0.0, "negative GPU work");
    assert!(
        p.gpu.eff_compute > 0.0 && p.gpu.eff_compute <= 1.0,
        "eff_compute out of range"
    );
    assert!(p.gpu.eff_mem > 0.0 && p.gpu.eff_mem <= 1.0, "eff_mem out of range");
    assert!(p.gpu.host_floor_s >= 0.0, "negative host gap");
    assert!(p.gpu.mem_busy_factor >= 1.0, "mem_busy_factor must be >= 1");
    assert!(p.cpu.ops >= 0.0 && p.cpu.bytes >= 0.0, "negative CPU work");
    assert!(p.cpu.eff > 0.0 && p.cpu.eff <= 1.0, "cpu eff out of range");
}

/// Makes every call a sweep run makes — `profile`, `iterations`, and
/// `phases(k)` for every `k` — so a workload test can check they leave
/// its lazily generated inputs unbuilt.
#[cfg(test)]
pub(crate) fn sweep_calls(wl: &dyn Workload) {
    assert!(!wl.profile().name.is_empty());
    for k in 0..wl.iterations() {
        wl.phases(k).iter().for_each(check_phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn util_class_bands_cover_unit_interval() {
        assert!(UtilClass::Low.contains(0.1));
        assert!(UtilClass::Medium.contains(0.6));
        assert!(UtilClass::High.contains(0.9));
        assert!(!UtilClass::Low.contains(0.6));
        assert!(!UtilClass::High.contains(0.3));
    }

    #[test]
    fn gpu_phase_scaling_scales_work_and_gap() {
        let p = GpuPhase::new("k", 100.0, 50.0, 0.5, 0.5, 2.0);
        let h = p.scale(0.5);
        assert_eq!(h.ops, 50.0);
        assert_eq!(h.bytes, 25.0);
        assert_eq!(h.host_floor_s, 1.0);
        assert_eq!(h.eff_compute, 0.5);
    }

    #[test]
    fn cpu_slice_scaling() {
        let c = CpuSlice {
            ops: 10.0,
            bytes: 4.0,
            eff: 0.8,
        };
        let h = c.scale(0.25);
        assert_eq!(h.ops, 2.5);
        assert_eq!(h.bytes, 1.0);
        assert_eq!(h.eff, 0.8);
    }

    #[test]
    fn check_phase_accepts_valid() {
        check_phase(&PhaseCost {
            gpu: GpuPhase::new("x", 1.0, 1.0, 1.0, 0.5, 0.0),
            cpu: CpuSlice {
                ops: 1.0,
                bytes: 1.0,
                eff: 1.0,
            },
        });
    }

    #[test]
    #[should_panic(expected = "eff_compute out of range")]
    fn check_phase_rejects_bad_eff() {
        check_phase(&PhaseCost {
            gpu: GpuPhase::new("x", 1.0, 1.0, 1.5, 0.5, 0.0),
            cpu: CpuSlice {
                ops: 1.0,
                bytes: 1.0,
                eff: 1.0,
            },
        });
    }

    #[test]
    fn mem_busy_factor_builder_and_scale_preserve_it() {
        let p = GpuPhase::new("x", 1.0, 1.0, 0.5, 0.5, 0.0).with_mem_busy_factor(4.0);
        assert_eq!(p.mem_busy_factor, 4.0);
        assert_eq!(p.scale(0.5).mem_busy_factor, 4.0);
    }

    #[test]
    #[should_panic(expected = "mem_busy_factor")]
    fn check_phase_rejects_sub_one_busy_factor() {
        let mut p = GpuPhase::new("x", 1.0, 1.0, 0.5, 0.5, 0.0);
        p.mem_busy_factor = 0.5;
        check_phase(&PhaseCost {
            gpu: p,
            cpu: CpuSlice {
                ops: 1.0,
                bytes: 1.0,
                eff: 1.0,
            },
        });
    }
}
