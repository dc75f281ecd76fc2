//! `hotspot` — 2-D thermal simulation stencil (Rodinia).
//!
//! Table II: 2048×2048 grid, 600 steps, medium core / low memory
//! utilization. The paper's second division workload: §VII-B finds the
//! energy-minimum static division at 50/50 CPU/GPU and reports the dynamic
//! algorithm converging exactly there.
//!
//! An *iteration* is a barrier batch of `steps_per_iter` stencil steps (the
//! paper names hotspot's "step" barriers as its iteration boundary).
//! Division splits the grid by rows: the CPU side takes the top `r` band,
//! the GPU side the rest, with a one-row halo exchanged at the boundary each
//! step — the same decomposition the pthread+CUDA port uses.

use crate::datasets::floorplan_power_map;
use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

/// Rodinia hotspot constants (chip thermal parameters).
const T_AMB: f64 = 80.0;
const CAP: f64 = 0.5;
const RX: f64 = 1.0;
const RY: f64 = 1.0;
const RZ: f64 = 4.0;

/// Hotspot workload instance.
pub struct Hotspot {
    profile: WorkloadProfile,
    seed: u64,
    rows: usize,
    cols: usize,
    /// Generated on first use; the cost model never reads it.
    grid: OnceCell<Grid>,
    /// Paper-scale cell count charged to the cost model.
    cost_cells: f64,
    steps_per_iter: usize,
    repeat: f64,
    iters: usize,
}

/// The temperature field and the floorplan's dissipation map.
struct Grid {
    temp: Vec<f64>,
    temp_next: Vec<f64>,
    // lint:allow(unit_safety) Rodinia floorplan dissipation grid in per-cell model units, not a fleet power figure
    power: Vec<f64>,
}

impl Hotspot {
    /// Paper preset: 2048×2048 grid, 600 steps as 15 iterations of 40
    /// steps. Functional grid is 128×128; costs charge the full grid.
    pub fn paper(seed: u64) -> Self {
        Hotspot::with_params(seed, 128, 128, 2048.0 * 2048.0, 40, 300.0, 15)
    }

    /// Small preset for fast tests.
    pub fn small(seed: u64) -> Self {
        Hotspot::with_params(seed, 32, 32, 32.0 * 32.0, 4, 3.0e6, 5)
    }

    /// Fully parameterized constructor.
    pub fn with_params(
        seed: u64,
        rows: usize,
        cols: usize,
        cost_cells: f64,
        steps_per_iter: usize,
        repeat: f64,
        iters: usize,
    ) -> Self {
        assert!(rows >= 4 && cols >= 4, "grid too small");
        Hotspot {
            profile: WorkloadProfile {
                name: "hotspot",
                enlargement: "2048 by 2048 grids of 600 iterations".to_string(),
                description: "Medium core utilization, low memory utilization",
                core_class: UtilClass::Medium,
                mem_class: UtilClass::Low,
                divisible: true,
            },
            seed,
            rows,
            cols,
            grid: OnceCell::new(),
            cost_cells,
            steps_per_iter,
            repeat,
            iters,
        }
    }

    /// Draws the initial temperatures and the floorplan from the seeded
    /// stream.
    fn generate(&self) -> Grid {
        let (rows, cols) = (self.rows, self.cols);
        let mut rng = Pcg32::new(self.seed, 0x68_6f74_7370_6f74); // "hotspot"
        let mut temp = vec![0.0f64; rows * cols];
        for t in temp.iter_mut() {
            *t = T_AMB + rng.uniform(0.0, 20.0);
        }
        // Floorplan-style dissipation: hot functional-unit blocks over a
        // leakage floor, like Rodinia's thermal inputs.
        // lint:allow(unit_safety) per-cell dissipation grid, same model units as the `power` field
        let power = floorplan_power_map(&mut rng, rows, cols, (rows / 16).max(2));
        Grid {
            temp_next: temp.clone(),
            temp,
            power,
        }
    }

    fn grid(&self) -> &Grid {
        self.grid.get_or_init(|| self.generate())
    }

    fn grid_mut(&mut self) -> &mut Grid {
        self.grid();
        self.grid.get_mut().expect("generated by grid()")
    }

    /// One explicit-Euler stencil step over rows `[lo, hi)` reading `temp`
    /// and writing `temp_next`. Boundary cells clamp to themselves
    /// (adiabatic edges, Rodinia behaviour).
    fn step_rows(&mut self, lo: usize, hi: usize) {
        let (r, c) = (self.rows, self.cols);
        let Grid { temp, temp_next, power } = self.grid_mut();
        for i in lo..hi {
            for j in 0..c {
                let idx = i * c + j;
                let t = temp[idx];
                let up = if i > 0 { temp[idx - c] } else { t };
                let down = if i + 1 < r { temp[idx + c] } else { t };
                let left = if j > 0 { temp[idx - 1] } else { t };
                let right = if j + 1 < c { temp[idx + 1] } else { t };
                let delta =
                    CAP * (power[idx] + (up + down - 2.0 * t) / RY + (left + right - 2.0 * t) / RX + (T_AMB - t) / RZ);
                temp_next[idx] = t + delta * 0.01;
            }
        }
    }

    /// Mean grid temperature — a physical sanity probe.
    pub fn mean_temp(&self) -> f64 {
        let temp = &self.grid().temp;
        temp.iter().sum::<f64>() / temp.len() as f64
    }
}

impl Workload for Hotspot {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, _iter: usize) -> Vec<PhaseCost> {
        let steps = self.steps_per_iter as f64 * self.repeat;
        // 12 flops per cell per step; shared-memory blocking keeps DRAM
        // traffic to ~2 B/cell/step (block-interior reuse).
        let gpu_ops = self.cost_cells * 12.0 * steps;
        let gpu_bytes = self.cost_cells * 2.0 * steps;
        // Per-step launches + halo PCIe traffic give hotspot its low GPU
        // efficiency and its Table II medium-core signature; the fitted
        // constants also place the division optimum at 50/50 (§VII-B).
        let mut gpu = GpuPhase::new("stencil-batch", gpu_ops, gpu_bytes, 0.175, 0.50, 0.0);
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.42);
        // The OpenMP stencil is cache-blocked and vectorized (FMA folds
        // the multiply-accumulate pairs) — it sustains its nominal rate,
        // which is what makes the CPU competitive here and puts the
        // time-balance point at 50/50 (§VII-B).
        let cpu = CpuSlice {
            ops: self.cost_cells * 10.3 * steps,
            bytes: self.cost_cells * 1.0 * steps,
            eff: 1.0,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, _iter: usize, cpu_share: f64) -> f64 {
        let split_row = ((self.rows as f64) * cpu_share.clamp(0.0, 1.0)).round() as usize;
        for _ in 0..self.steps_per_iter {
            // CPU band [0, split_row), GPU band [split_row, rows); both read
            // the shared halo rows from the previous step's state, so the
            // result is identical to an undivided step.
            self.step_rows(0, split_row);
            self.step_rows(split_row, self.rows);
            let grid = self.grid_mut();
            std::mem::swap(&mut grid.temp, &mut grid.temp_next);
        }
        self.digest()
    }

    fn digest(&self) -> f64 {
        self.grid().temp.iter().sum()
    }

    fn reset(&mut self) {
        self.grid = OnceCell::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{iteration_cpu_time_s, iteration_gpu_time_s, iteration_utilization};
    use crate::traits::{check_phase, sweep_calls};
    use greengpu_hw::calib::phenom_ii_x2;

    #[test]
    fn split_is_invariant() {
        let shares = [0.0, 0.25, 0.5, 0.75, 1.0];
        let mut digests = Vec::new();
        for &r in &shares {
            let mut hs = Hotspot::small(2);
            for i in 0..hs.iterations() {
                hs.execute(i, r);
            }
            digests.push(hs.digest());
        }
        for w in digests.windows(2) {
            assert!(
                (w[0] - w[1]).abs() / w[0].abs() < 1e-12,
                "split changed result: {} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn temperatures_stay_finite_and_bounded() {
        let mut hs = Hotspot::small(9);
        for i in 0..hs.iterations() {
            hs.execute(i, 0.5);
        }
        assert!(hs.grid().temp.iter().all(|t| t.is_finite()));
        let mean = hs.mean_temp();
        assert!((T_AMB - 10.0..T_AMB + 60.0).contains(&mean), "mean temp {mean}");
    }

    #[test]
    fn heat_diffuses_toward_steady_state() {
        // Variance of the temperature field should shrink as diffusion
        // smooths the random initial condition (power input is small).
        let mut hs = Hotspot::small(4);
        let var = |t: &[f64]| {
            let m = t.iter().sum::<f64>() / t.len() as f64;
            t.iter().map(|x| (x - m).powi(2)).sum::<f64>() / t.len() as f64
        };
        let v0 = var(&hs.grid().temp);
        for i in 0..hs.iterations() {
            hs.execute(i, 0.0);
        }
        let v1 = var(&hs.grid().temp);
        assert!(v1 < v0, "variance should shrink: {v0} -> {v1}");
    }

    #[test]
    fn reset_reproduces_run() {
        let mut hs = Hotspot::small(5);
        hs.execute(0, 0.3);
        let d = hs.digest();
        hs.reset();
        hs.execute(0, 0.3);
        assert_eq!(d, hs.digest());
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut hs = Hotspot::paper(1);
        sweep_calls(&hs);
        assert!(hs.grid.get().is_none());
        hs.reset();
        assert!(hs.grid.get().is_none());
    }

    #[test]
    fn phases_are_valid() {
        for p in Hotspot::paper(1).phases(0) {
            check_phase(&p);
        }
    }

    #[test]
    fn table2_utilization_class_holds() {
        let hs = Hotspot::paper(1);
        let (u_core, u_mem) = iteration_utilization(&hs.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!(hs.profile().core_class.contains(u_core), "core util {u_core}");
        assert!(hs.profile().mem_class.contains(u_mem), "mem util {u_mem}");
    }

    #[test]
    fn division_balance_point_is_fifty_fifty() {
        // §VII-B: hotspot's energy-minimum division is 50/50 and the
        // algorithm converges exactly there.
        let hs = Hotspot::paper(1);
        let phases = hs.phases(0);
        let tg = iteration_gpu_time_s(&phases, &geforce_8800_gtx(), 576.0, 900.0);
        let tc = iteration_cpu_time_s(&phases, &phenom_ii_x2(), 2800.0);
        let r_star = tg / (tg + tc);
        assert!((0.45..0.55).contains(&r_star), "balance point {r_star}");
    }

    #[test]
    fn paper_iteration_is_tens_of_seconds() {
        let hs = Hotspot::paper(1);
        let tg = iteration_gpu_time_s(&hs.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!((20.0..90.0).contains(&tg), "iteration {tg} s");
    }
}
