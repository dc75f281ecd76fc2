//! `lud` — blocked LU decomposition (Rodinia).
//!
//! Table II: 10 iterations over an 8192×8192 matrix, medium core / low
//! memory utilization (the blocked kernels are cache-friendly, so DRAM
//! traffic is modest, while frequent per-block launches keep average core
//! utilization at mid-range).
//!
//! An iteration is one outer block step (diagonal factorization + panel
//! updates + trailing-matrix update); the functional matrix has exactly as
//! many block steps as the paper has iterations. Work shrinks quadratically
//! as the trailing submatrix shrinks, which the cost model reflects.
//! LU's data dependencies make it non-divisible.

use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

/// LU decomposition workload instance.
pub struct Lud {
    profile: WorkloadProfile,
    seed: u64,
    n: usize,
    block: usize,
    /// The matrix, factored in place; generated on first use, and the
    /// cost model never reads it.
    a: OnceCell<Vec<f64>>,
    /// A second, unfactored draw, made only for [`Lud::original`].
    original: OnceCell<Vec<f64>>,
    cost_n: f64,
    repeat: f64,
}

impl Lud {
    /// Paper preset: 8192×8192 charged to costs over 10 block steps;
    /// functional matrix 320×320 with 32-wide blocks (also 10 steps).
    pub fn paper(seed: u64) -> Self {
        Lud::with_params(seed, 320, 32, 8192.0, 12.0)
    }

    /// Small preset for fast tests (3 block steps).
    pub fn small(seed: u64) -> Self {
        Lud::with_params(seed, 96, 32, 96.0, 3.7e6)
    }

    /// Fully parameterized constructor. `n` must be a multiple of `block`.
    pub fn with_params(seed: u64, n: usize, block: usize, cost_n: f64, repeat: f64) -> Self {
        assert!(n.is_multiple_of(block) && block >= 2, "n must be a multiple of block");
        Lud {
            profile: WorkloadProfile {
                name: "lud",
                enlargement: format!(
                    "{} iterations; {} by {} matrix",
                    n / block,
                    cost_n as u64,
                    cost_n as u64
                ),
                description: "Medium core utilization, low memory utilization",
                core_class: UtilClass::Medium,
                mem_class: UtilClass::Low,
                divisible: false,
            },
            seed,
            a: OnceCell::new(),
            original: OnceCell::new(),
            n,
            block,
            cost_n,
            repeat,
        }
    }

    /// Draws the matrix from the seeded stream.
    fn generate(&self) -> Vec<f64> {
        let n = self.n;
        let mut rng = Pcg32::new(self.seed, 0x6c7564); // "lud"
        let mut a = vec![0.0f64; n * n];
        for x in a.iter_mut() {
            *x = rng.uniform(-1.0, 1.0);
        }
        // Diagonal dominance guarantees pivoting-free LU exists.
        for i in 0..n {
            a[i * n + i] = n as f64 + rng.uniform(0.0, 1.0);
        }
        a
    }

    fn matrix(&self) -> &[f64] {
        self.a.get_or_init(|| self.generate())
    }

    fn matrix_mut(&mut self) -> &mut [f64] {
        self.matrix();
        self.a.get_mut().expect("generated by matrix()")
    }

    /// Number of block steps (= iterations).
    fn steps(&self) -> usize {
        self.n / self.block
    }

    /// Relative work weight of block step `k` (trailing submatrix shrinks;
    /// weights sum to 1).
    fn step_weight(&self, k: usize) -> f64 {
        let steps = self.steps() as f64;
        let rem = steps - k as f64;
        let total: f64 = (1..=self.steps()).map(|j| (j * j) as f64).sum();
        rem * rem / total
    }

    /// Reconstructs `L·U` from the in-place factors (tests only; O(n³)).
    pub fn reconstruct(&self) -> Vec<f64> {
        let (n, a) = (self.n, self.matrix());
        let mut out = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                // (L·U)[i][j] = Σ_k L[i][k]·U[k][j]; L is unit-lower
                // (k ≤ i, diag = 1), U is upper (k ≤ j).
                out[i * n + j] = (0..=i.min(j))
                    .map(|k| {
                        let l = if k == i { 1.0 } else { a[i * n + k] };
                        l * a[k * n + j]
                    })
                    .sum();
            }
        }
        out
    }

    /// The original matrix (tests only).
    pub fn original(&self) -> &[f64] {
        self.original.get_or_init(|| self.generate())
    }
}

impl Workload for Lud {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.steps()
    }

    fn phases(&self, iter: usize) -> Vec<PhaseCost> {
        // Full decomposition costs 2/3·n³ flops; step `iter` carries its
        // quadratic share. Blocked kernels achieve ~12 flops per DRAM byte.
        let total_ops = (2.0 / 3.0) * self.cost_n * self.cost_n * self.cost_n * self.repeat;
        let ops = total_ops * self.step_weight(iter.min(self.steps() - 1));
        let bytes = ops / 12.0;
        let mut gpu = GpuPhase::new("block-step", ops, bytes, 0.50, 0.50, 0.0);
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.39);
        let cpu = CpuSlice {
            ops: ops * 0.8,
            bytes: bytes * 0.5,
            eff: 0.75,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, iter: usize, _cpu_share: f64) -> f64 {
        let n = self.n;
        let k0 = iter * self.block;
        if k0 >= n {
            return self.digest();
        }
        let k1 = (k0 + self.block).min(n);
        let a = self.matrix_mut();
        // Right-looking Gaussian elimination over columns [k0, k1).
        for k in k0..k1 {
            let pivot = a[k * n + k];
            debug_assert!(pivot.abs() > 1e-12, "zero pivot at {k}");
            for i in (k + 1)..n {
                let m = a[i * n + k] / pivot;
                a[i * n + k] = m;
                for j in (k + 1)..n {
                    a[i * n + j] -= m * a[k * n + j];
                }
            }
        }
        self.digest()
    }

    fn digest(&self) -> f64 {
        self.matrix().iter().map(|x| x.abs()).sum()
    }

    fn reset(&mut self) {
        self.a = OnceCell::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{iteration_gpu_time_s, iteration_utilization};
    use crate::traits::{check_phase, sweep_calls};

    #[test]
    fn lu_reconstructs_original_matrix() {
        let mut lud = Lud::small(1);
        for i in 0..lud.iterations() {
            lud.execute(i, 0.0);
        }
        let rec = lud.reconstruct();
        let orig = lud.original();
        let max_err = rec.iter().zip(orig).map(|(r, o)| (r - o).abs()).fold(0.0f64, f64::max);
        assert!(max_err < 1e-8, "LU reconstruction error {max_err}");
    }

    #[test]
    fn factors_stay_finite() {
        let mut lud = Lud::small(2);
        for i in 0..lud.iterations() {
            lud.execute(i, 0.0);
        }
        assert!(lud.matrix().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn reset_reproduces_run() {
        let mut lud = Lud::small(3);
        lud.execute(0, 0.0);
        let d = lud.digest();
        lud.reset();
        lud.execute(0, 0.0);
        assert_eq!(d, lud.digest());
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut lud = Lud::paper(1);
        sweep_calls(&lud);
        assert!(lud.a.get().is_none() && lud.original.get().is_none());
        lud.reset();
        assert!(lud.a.get().is_none());
    }

    #[test]
    fn step_weights_sum_to_one_and_decrease() {
        let lud = Lud::paper(1);
        let w: Vec<f64> = (0..lud.iterations()).map(|k| lud.step_weight(k)).collect();
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "weights sum {sum}");
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1], "weights must shrink");
        }
    }

    #[test]
    fn phases_are_valid_and_shrink_over_iterations() {
        let lud = Lud::paper(1);
        let first = lud.phases(0)[0];
        let last = lud.phases(lud.iterations() - 1)[0];
        check_phase(&first);
        check_phase(&last);
        assert!(first.gpu.ops > last.gpu.ops * 10.0, "early steps dominate");
    }

    #[test]
    fn table2_utilization_class_holds() {
        let lud = Lud::paper(1);
        let (u_core, u_mem) = iteration_utilization(&lud.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!(lud.profile().core_class.contains(u_core), "core util {u_core}");
        assert!(lud.profile().mem_class.contains(u_mem), "mem util {u_mem}");
    }

    #[test]
    fn paper_run_is_minutes_scale() {
        let lud = Lud::paper(1);
        let spec = geforce_8800_gtx();
        let total: f64 = (0..lud.iterations())
            .map(|i| iteration_gpu_time_s(&lud.phases(i), &spec, 576.0, 900.0))
            .sum();
        assert!((40.0..400.0).contains(&total), "total run {total} s");
    }

    #[test]
    fn paper_preset_has_ten_iterations() {
        assert_eq!(Lud::paper(1).iterations(), 10);
    }
}
