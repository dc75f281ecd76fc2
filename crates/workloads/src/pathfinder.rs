//! `PF` (pathfinder) — grid dynamic programming (Rodinia).
//!
//! Table II: 2048×2048 dimensions, *low* core and memory utilization — the
//! row-by-row DP launches one tiny kernel per row, so the GPU idles in host
//! gaps most of the time. This is the workload class where the paper's
//! frequency-scaling tier shines ("for applications with a lower average
//! utilization, such as PF and lud, our scheme yields good energy
//! savings").
//!
//! The row dependency chain makes PF non-divisible; an iteration is a band
//! of rows.

use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

/// Pathfinder workload instance.
pub struct Pathfinder {
    profile: WorkloadProfile,
    seed: u64,
    rows: usize,
    cols: usize,
    /// Generated on first use; the cost model never reads it.
    grid: OnceCell<Grid>,
    cost_cells: f64,
    repeat: f64,
    iters: usize,
}

/// The wall costs and the DP frontier over them.
struct Grid {
    wall: Vec<u32>,
    dp: Vec<u64>,
}

impl Pathfinder {
    /// Paper preset: 2048×2048 charged to costs; functional grid 192×256
    /// processed as 12 row bands.
    pub fn paper(seed: u64) -> Self {
        Pathfinder::with_params(seed, 192, 256, 2048.0 * 2048.0, 1500.0, 12)
    }

    /// Small preset for fast tests.
    pub fn small(seed: u64) -> Self {
        Pathfinder::with_params(seed, 16, 32, 512.0, 6.0e7, 4)
    }

    /// Fully parameterized constructor. `rows` must divide evenly into
    /// `iters` bands.
    pub fn with_params(seed: u64, rows: usize, cols: usize, cost_cells: f64, repeat: f64, iters: usize) -> Self {
        assert!(rows.is_multiple_of(iters), "rows must divide into iteration bands");
        assert!(cols >= 2);
        Pathfinder {
            profile: WorkloadProfile {
                name: "PF",
                enlargement: "2048 by 2048 dimensions".to_string(),
                description: "Low core and memory utilization",
                core_class: UtilClass::Low,
                mem_class: UtilClass::Low,
                divisible: false,
            },
            seed,
            rows,
            cols,
            grid: OnceCell::new(),
            cost_cells,
            repeat,
            iters,
        }
    }

    /// Draws the wall costs from the seeded stream; the frontier starts
    /// at the first row.
    fn generate(&self) -> Grid {
        let mut rng = Pcg32::new(self.seed, 0x7066); // "pf"
        let wall: Vec<u32> = (0..self.rows * self.cols).map(|_| rng.below(10)).collect();
        let dp: Vec<u64> = wall[..self.cols].iter().map(|&w| u64::from(w)).collect();
        Grid { wall, dp }
    }

    fn grid(&self) -> &Grid {
        self.grid.get_or_init(|| self.generate())
    }

    fn grid_mut(&mut self) -> &mut Grid {
        self.grid();
        self.grid.get_mut().expect("generated by grid()")
    }

    /// The DP frontier (minimum cumulative cost per column so far).
    pub fn frontier(&self) -> &[u64] {
        &self.grid().dp
    }

    /// Minimum path cost over the processed rows.
    pub fn best_cost(&self) -> u64 {
        *self.frontier().iter().min().expect("non-empty frontier")
    }
}

impl Workload for Pathfinder {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, _iter: usize) -> Vec<PhaseCost> {
        // Per band: cells/iters cells, 6 ops and 8 bytes each; per-row
        // kernel launches dominate wall time (the fitted 67 % host gap).
        let cells = self.cost_cells * self.repeat / self.iters as f64;
        let mut gpu = GpuPhase::new("dp-rows", cells * 6.0, cells * 8.0, 0.30, 0.40, 0.0);
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.67);
        let cpu = CpuSlice {
            ops: cells * 6.0,
            bytes: cells * 10.0,
            eff: 0.80,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, iter: usize, _cpu_share: f64) -> f64 {
        let band = self.rows / self.iters;
        let lo = (iter * band).max(1).min(self.rows);
        let hi = ((iter + 1) * band).min(self.rows);
        let cols = self.cols;
        let Grid { wall, dp } = self.grid_mut();
        for i in lo..hi {
            let prev = dp.clone();
            for j in 0..cols {
                let mut best = prev[j];
                if j > 0 {
                    best = best.min(prev[j - 1]);
                }
                if j + 1 < cols {
                    best = best.min(prev[j + 1]);
                }
                dp[j] = best + u64::from(wall[i * cols + j]);
            }
        }
        self.best_cost() as f64
    }

    fn digest(&self) -> f64 {
        self.frontier().iter().map(|&x| x as f64).sum()
    }

    fn reset(&mut self) {
        self.grid = OnceCell::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::iteration_utilization;
    use crate::traits::{check_phase, sweep_calls};

    #[test]
    fn dp_matches_bruteforce_on_tiny_grid() {
        // 3×3 grid with known walls.
        let mut pf = Pathfinder::with_params(1, 3, 3, 9.0, 1.0, 3);
        let grid = pf.grid_mut();
        grid.wall = vec![
            1, 9, 2, //
            3, 1, 9, //
            9, 1, 4,
        ];
        grid.dp = vec![1, 9, 2];
        for i in 0..pf.iterations() {
            pf.execute(i, 0.0);
        }
        // Best path: 1 → 1 → 1 = 3 (start col 0, diag to col 1, stay).
        assert_eq!(pf.best_cost(), 3);
    }

    #[test]
    fn frontier_is_monotone_nondecreasing_over_rows() {
        let mut pf = Pathfinder::small(2);
        let mut prev_best = pf.best_cost();
        for i in 0..pf.iterations() {
            pf.execute(i, 0.0);
            let best = pf.best_cost();
            assert!(best >= prev_best, "path cost cannot shrink as rows accumulate");
            prev_best = best;
        }
    }

    #[test]
    fn reset_reproduces_run() {
        let mut pf = Pathfinder::small(3);
        pf.execute(0, 0.0);
        let d = pf.digest();
        pf.reset();
        pf.execute(0, 0.0);
        assert_eq!(d, pf.digest());
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut pf = Pathfinder::paper(1);
        sweep_calls(&pf);
        assert!(pf.grid.get().is_none());
        pf.reset();
        assert!(pf.grid.get().is_none());
    }

    #[test]
    fn phases_are_valid_and_not_divisible() {
        let pf = Pathfinder::paper(1);
        for p in pf.phases(0) {
            check_phase(&p);
        }
        assert!(!pf.profile().divisible);
    }

    #[test]
    fn table2_both_utilizations_low() {
        let pf = Pathfinder::paper(1);
        let (u_core, u_mem) = iteration_utilization(&pf.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!(pf.profile().core_class.contains(u_core), "core util {u_core}");
        assert!(pf.profile().mem_class.contains(u_mem), "mem util {u_mem}");
        assert!(u_core < 0.4 && u_mem < 0.4);
    }
}
