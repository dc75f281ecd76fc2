//! `streamcluster` (SC) — online clustering (Rodinia / PARSEC port).
//!
//! The paper's *memory-bounded, phase-fluctuating* exemplar: Table II lists
//! 65 536 points with 512 dimensions and "utilizations highly fluctuate";
//! Fig. 1 uses SC as the memory-bound case (memory throttling hurts, core
//! throttling down to ~410 MHz is nearly free); Fig. 5 shows the WMA scaler
//! converging SC's memory clock to 820 MHz while tracking its utilization
//! swings.
//!
//! An iteration evaluates one candidate center: a distance pass (or two)
//! over all points followed by a gain-evaluation pass. Iterations alternate
//! between patterns, producing the utilization fluctuation. Division splits
//! the point set; gain partial sums are merged.

use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

/// Cost of opening a new center (facility-location opening cost).
const OPEN_COST: f64 = 50.0;

/// Streamcluster workload instance.
pub struct StreamCluster {
    profile: WorkloadProfile,
    seed: u64,
    n_func: usize,
    d: usize,
    /// Generated on first use; the cost model never reads it.
    data: OnceCell<Data>,
    cost_points: f64,
    cost_dims: f64,
    repeat: f64,
    iters: usize,
}

/// The generated points and weights, and the clustering built over them.
struct Data {
    d: usize,
    points: Vec<f64>,
    weight: Vec<f64>,
    /// Current distance of each point to its assigned center.
    dist: Vec<f64>,
    /// Indices of open centers.
    centers: Vec<usize>,
}

impl StreamCluster {
    /// Paper preset: 65 536 points × 512 dims charged to costs (functional
    /// state is 2 048 × 64).
    pub fn paper(seed: u64) -> Self {
        StreamCluster::with_params(seed, 2048, 64, 65_536.0, 512.0, 430.0, 14)
    }

    /// Small preset for fast tests.
    pub fn small(seed: u64) -> Self {
        StreamCluster::with_params(seed, 256, 16, 65_536.0, 512.0, 300.0, 6)
    }

    /// Fully parameterized constructor.
    pub fn with_params(
        seed: u64,
        n_func: usize,
        d: usize,
        cost_points: f64,
        cost_dims: f64,
        repeat: f64,
        iters: usize,
    ) -> Self {
        assert!(n_func >= 8);
        StreamCluster {
            profile: WorkloadProfile {
                name: "streamcluster",
                enlargement: format!("{} points with {} dimensions", cost_points as u64, cost_dims as u64),
                description: "Utilizations highly fluctuate",
                core_class: UtilClass::Fluctuating,
                mem_class: UtilClass::Fluctuating,
                divisible: true,
            },
            seed,
            n_func,
            d,
            data: OnceCell::new(),
            cost_points,
            cost_dims,
            repeat,
            iters,
        }
    }

    /// Draws the points and weights from the seeded stream and assigns
    /// every point to the first center.
    fn generate(&self) -> Data {
        let (n_func, d) = (self.n_func, self.d);
        let mut rng = Pcg32::new(self.seed, 0x7363_6c75_7374); // "sclust"
        let mut points = vec![0.0f64; n_func * d];
        for p in points.iter_mut() {
            *p = rng.uniform(0.0, 10.0);
        }
        let weight: Vec<f64> = (0..n_func).map(|_| rng.uniform(0.5, 2.0)).collect();
        let mut data = Data {
            d,
            points,
            weight,
            dist: Vec::new(),
            centers: vec![0],
        };
        data.recompute_assignments();
        data
    }

    fn data(&self) -> &Data {
        self.data.get_or_init(|| self.generate())
    }

    fn data_mut(&mut self) -> &mut Data {
        self.data();
        self.data.get_mut().expect("generated by data()")
    }

    /// Total weighted clustering cost (sum of weighted distances).
    pub fn clustering_cost(&self) -> f64 {
        self.data().clustering_cost()
    }

    /// Number of currently open centers.
    pub fn open_centers(&self) -> usize {
        self.data().centers.len()
    }
}

impl Data {
    fn d2(&self, a: usize, b: usize) -> f64 {
        let pa = &self.points[a * self.d..(a + 1) * self.d];
        let pb = &self.points[b * self.d..(b + 1) * self.d];
        pa.iter().zip(pb).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn recompute_assignments(&mut self) {
        self.dist = (0..self.weight.len())
            .map(|p| {
                self.centers
                    .iter()
                    .map(|&c| self.d2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
    }

    /// Weighted gain of opening `candidate`, accumulated over points
    /// `[lo, hi)`.
    fn gain_range(&self, candidate: usize, lo: usize, hi: usize) -> f64 {
        (lo..hi)
            .map(|p| {
                let new_d = self.d2(p, candidate);
                self.weight[p] * (self.dist[p] - new_d).max(0.0)
            })
            .sum()
    }

    fn clustering_cost(&self) -> f64 {
        self.dist.iter().zip(&self.weight).map(|(d, w)| d * w).sum()
    }
}

impl Workload for StreamCluster {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, iter: usize) -> Vec<PhaseCost> {
        let spec = geforce_8800_gtx();
        let nd = self.cost_points * self.cost_dims * self.repeat;
        // Distance pass: 3 flops per point-dim, streaming reads of the full
        // point set — heavily bandwidth-bound (Fig. 1's memory-bound case).
        let mut dist_gpu = GpuPhase::new("distance", nd * 3.0, nd * 8.0, 0.50, 0.55, 0.0);
        dist_gpu.host_floor_s = host_floor_for_gap_fraction(&dist_gpu, &spec, 0.30);
        let dist = PhaseCost {
            gpu: dist_gpu,
            cpu: CpuSlice {
                ops: nd * 3.0,
                bytes: nd * 2.0,
                eff: 0.70,
            },
        };
        // Gain pass: more arithmetic per byte (max/accumulate chains) but
        // still below the machine balance point, so core throttling to
        // ~410 MHz stays nearly free (Fig. 1d).
        let mut gain_gpu = GpuPhase::new("gain", nd * 6.0, nd * 3.87, 0.50, 0.55, 0.0);
        gain_gpu.host_floor_s = host_floor_for_gap_fraction(&gain_gpu, &spec, 0.25);
        let gain = PhaseCost {
            gpu: gain_gpu,
            cpu: CpuSlice {
                ops: nd * 6.0,
                bytes: nd * 1.6,
                eff: 0.70,
            },
        };
        // Phase-pattern fluctuation: alternating iteration shapes.
        if iter.is_multiple_of(2) {
            vec![dist, dist, gain]
        } else {
            vec![dist, gain]
        }
    }

    fn execute(&mut self, iter: usize, cpu_share: f64) -> f64 {
        let n_func = self.n_func;
        let candidate = (iter * 97 + 13) % n_func;
        let split = ((n_func as f64) * cpu_share.clamp(0.0, 1.0)).round() as usize;
        let data = self.data_mut();
        // CPU and GPU sides accumulate partial gains, merged here.
        let gain = data.gain_range(candidate, 0, split) + data.gain_range(candidate, split, n_func);
        if gain > OPEN_COST && !data.centers.contains(&candidate) {
            data.centers.push(candidate);
            data.recompute_assignments();
        }
        data.clustering_cost()
    }

    fn digest(&self) -> f64 {
        let data = self.data();
        data.clustering_cost() + data.centers.len() as f64
    }

    fn reset(&mut self) {
        self.data = OnceCell::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{iteration_utilization, phase_gpu_timing};
    use crate::traits::{check_phase, sweep_calls};

    #[test]
    fn split_is_invariant() {
        let mut digests = Vec::new();
        for &r in &[0.0, 0.2, 0.5, 0.8, 1.0] {
            let mut sc = StreamCluster::small(2);
            for i in 0..sc.iterations() {
                sc.execute(i, r);
            }
            digests.push(sc.digest());
        }
        for w in digests.windows(2) {
            assert!((w[0] - w[1]).abs() / w[0].abs() < 1e-12, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn clustering_cost_never_increases() {
        // Opening a center can only reduce every point's distance.
        let mut sc = StreamCluster::small(3);
        let mut prev = sc.clustering_cost();
        for i in 0..sc.iterations() {
            let cost = sc.execute(i, 0.0);
            assert!(cost <= prev + 1e-9, "cost rose: {prev} -> {cost}");
            prev = cost;
        }
    }

    #[test]
    fn some_centers_open_on_random_data() {
        let mut sc = StreamCluster::small(4);
        for i in 0..sc.iterations() {
            sc.execute(i, 0.0);
        }
        assert!(sc.open_centers() > 1, "no center ever opened");
    }

    #[test]
    fn reset_reproduces_run() {
        let mut sc = StreamCluster::small(5);
        for i in 0..3 {
            sc.execute(i, 0.4);
        }
        let d = sc.digest();
        sc.reset();
        for i in 0..3 {
            sc.execute(i, 0.4);
        }
        assert_eq!(d, sc.digest());
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut sc = StreamCluster::paper(1);
        sweep_calls(&sc);
        assert!(sc.data.get().is_none());
        sc.reset();
        assert!(sc.data.get().is_none());
    }

    #[test]
    fn phases_are_valid_and_fluctuate() {
        let sc = StreamCluster::paper(1);
        let p0 = sc.phases(0);
        let p1 = sc.phases(1);
        for p in p0.iter().chain(&p1) {
            check_phase(p);
        }
        assert_ne!(p0.len(), p1.len(), "iteration shapes should alternate");
    }

    #[test]
    fn utilizations_fluctuate_across_iterations() {
        let sc = StreamCluster::paper(1);
        let spec = geforce_8800_gtx();
        let (c0, _) = iteration_utilization(&sc.phases(0), &spec, 576.0, 900.0);
        let (c1, _) = iteration_utilization(&sc.phases(1), &spec, 576.0, 900.0);
        assert!(
            (c0 - c1).abs() > 0.02,
            "core util should differ between patterns: {c0} vs {c1}"
        );
    }

    #[test]
    fn memory_utilization_is_high_on_average() {
        // Fig. 5b: the WMA scaler settles SC's memory near 820 MHz — its
        // windowed memory utilization must sit near umean(level 4) = 0.8.
        let sc = StreamCluster::paper(1);
        let (_, u_mem) = iteration_utilization(&sc.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        // The WMA fixed point: u_mem must sit between the level-3/4
        // decision boundary (~0.60) and low enough that the post-throttle
        // utilization rise (×900/820) stays below the level-4/5 boundary
        // (~0.80) — that is what pins the memory clock at 820 MHz.
        assert!((0.60..0.73).contains(&u_mem), "mem util {u_mem}");
    }

    #[test]
    fn fig1_core_throttle_to_midrange_is_nearly_free() {
        // Fig. 1d: SC at ~410 MHz core loses little time; at the lowest
        // core level it starts to hurt.
        let sc = StreamCluster::paper(1);
        let spec = geforce_8800_gtx();
        let time_at = |core: f64| -> f64 {
            sc.phases(0)
                .iter()
                .map(|p| phase_gpu_timing(&p.gpu, &spec, core, 900.0).total_s())
                .sum()
        };
        let t_peak = time_at(576.0);
        let t_410 = time_at(408.0);
        let t_296 = time_at(296.0);
        assert!(t_410 / t_peak < 1.06, "410 MHz stretch {}", t_410 / t_peak);
        assert!(t_296 / t_peak > 1.05, "296 MHz stretch {}", t_296 / t_peak);
    }

    #[test]
    fn fig1_memory_throttle_hurts() {
        // Fig. 1a/1b: SC is memory-bound — memory at 500 MHz stretches time
        // substantially.
        let sc = StreamCluster::paper(1);
        let spec = geforce_8800_gtx();
        let t_peak: f64 = sc
            .phases(0)
            .iter()
            .map(|p| phase_gpu_timing(&p.gpu, &spec, 576.0, 900.0).total_s())
            .sum();
        let t_slow: f64 = sc
            .phases(0)
            .iter()
            .map(|p| phase_gpu_timing(&p.gpu, &spec, 576.0, 500.0).total_s())
            .sum();
        assert!(t_slow / t_peak > 1.15, "SC memory-throttle stretch {}", t_slow / t_peak);
    }
}
