//! `kmeans` — Lloyd's k-means clustering (Rodinia).
//!
//! The paper's flagship division workload: Table II lists 988 040 data
//! points, medium core / low memory utilization; Fig. 2 sweeps the CPU
//! share and finds the energy minimum near 10 %; §VII-B reports the
//! time-balance convergence at 20/80 CPU/GPU against an energy-optimal
//! static 15/85.
//!
//! An *iteration* is one Lloyd step (assignment + centroid update) — the
//! natural reduction point the paper names for kmeans. Division splits the
//! assignment phase by points; each side accumulates partial per-cluster
//! sums and counts which are merged before the centroid update, exactly
//! like the pthread+CUDA port.

use crate::datasets::clustered_features;
use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

/// K-means workload instance.
pub struct KMeans {
    profile: WorkloadProfile,
    seed: u64,
    d: usize,
    k: usize,
    n_func: usize,
    /// Generated on first use; the cost model never reads it.
    data: OnceCell<Data>,
    last_sse: f64,
    /// Paper-scale point count charged to the cost model (the functional
    /// arrays are a deterministic sample of this).
    cost_points: f64,
    /// Kernel invocations per iteration (the paper's enlargement for stable
    /// power readings).
    repeat: f64,
    iters: usize,
}

/// The generated points and the centroids seeded from them.
struct Data {
    points: Vec<f64>,
    centroids: Vec<f64>,
}

impl KMeans {
    /// Paper preset: 988 040 points (Table II), 34 features, 5 clusters —
    /// the Rodinia kdd_cup configuration. Functional arrays are sampled at
    /// 1/241 scale; costs are charged at full scale.
    pub fn paper(seed: u64) -> Self {
        KMeans::with_params(seed, 4096, 34, 5, 988_040.0, 4000.0, 12)
    }

    /// Small preset for fast tests: costs equal the functional size.
    pub fn small(seed: u64) -> Self {
        KMeans::with_params(seed, 256, 8, 4, 256.0, 1.2e7, 5)
    }

    /// Fully parameterized constructor.
    pub fn with_params(
        seed: u64,
        n_func: usize,
        d: usize,
        k: usize,
        cost_points: f64,
        repeat: f64,
        iters: usize,
    ) -> Self {
        assert!(n_func >= k && k >= 2, "need at least k points and 2 clusters");
        KMeans {
            profile: WorkloadProfile {
                name: "kmeans",
                enlargement: format!("{} data points", cost_points as u64),
                description: "Medium core utilization, low memory utilization",
                core_class: UtilClass::Medium,
                mem_class: UtilClass::Low,
                divisible: true,
            },
            seed,
            d,
            k,
            n_func,
            data: OnceCell::new(),
            last_sse: f64::INFINITY,
            cost_points,
            repeat,
            iters,
        }
    }

    /// Draws the points from the seeded stream.
    fn generate(&self) -> Data {
        let mut rng = Pcg32::new(self.seed, KMEANS_STREAM);
        // kdd_cup-style features: well-separated anchors plus a fraction
        // of uninformative noise dimensions.
        let noise_dims = self.d / 8;
        let (points, _labels) = clustered_features(&mut rng, self.n_func, self.d, self.k, noise_dims);
        // Initial centroids: the first k points (deterministic, standard
        // Rodinia-style seeding).
        let centroids = points[..self.k * self.d].to_vec();
        Data { points, centroids }
    }

    fn data(&self) -> &Data {
        self.data.get_or_init(|| self.generate())
    }

    fn data_mut(&mut self) -> &mut Data {
        self.data();
        self.data.get_mut().expect("generated by data()")
    }

    /// Assigns points in `[lo, hi)` to nearest centroids, returning
    /// per-cluster coordinate sums, counts, and the range's SSE.
    fn assign_range(&self, lo: usize, hi: usize) -> (Vec<f64>, Vec<u64>, f64) {
        let (d, k) = (self.d, self.k);
        let Data { points, centroids } = self.data();
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        let mut sse = 0.0;
        for i in lo..hi {
            let p = &points[i * d..(i + 1) * d];
            let mut best = 0usize;
            let mut best_d2 = f64::INFINITY;
            for c in 0..k {
                let cen = &centroids[c * d..(c + 1) * d];
                let mut d2 = 0.0;
                for j in 0..d {
                    let diff = p[j] - cen[j];
                    d2 += diff * diff;
                }
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = c;
                }
            }
            sse += best_d2;
            counts[best] += 1;
            for j in 0..d {
                sums[best * d + j] += p[j];
            }
        }
        (sums, counts, sse)
    }

    /// The SSE of the most recent iteration.
    pub fn last_sse(&self) -> f64 {
        self.last_sse
    }
}

/// RNG stream id for kmeans data generation ("kmeans" in ASCII).
const KMEANS_STREAM: u64 = 0x6b6d_6561_6e73;

impl Workload for KMeans {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, _iter: usize) -> Vec<PhaseCost> {
        let kd = self.k as f64 * self.d as f64;
        // Assignment dominates: 3 ops (sub, mul, add) per point-cluster-dim;
        // the centroid update adds one accumulate per point-dim.
        let gpu_ops = self.cost_points * (3.0 * kd + self.d as f64) * self.repeat;
        // Points stream from DRAM once per pass (f32 features + label) with
        // centroids cached in shared memory.
        let gpu_bytes = self.cost_points * (4.0 * self.d as f64 + 16.0) * self.repeat;
        let mut gpu = GpuPhase::new("assign+update", gpu_ops, gpu_bytes, 0.50, 0.60, 0.0);
        // Fitted host-gap fraction: per-pass launch + reduction readback put
        // kmeans in Table II's medium-core class.
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.39);
        // The OpenMP side skips the redundant distance expansions the SIMT
        // kernel performs (factor 0.85) and sustains 60 % of nominal IPC.
        let cpu = CpuSlice {
            ops: gpu_ops * 0.85,
            bytes: self.cost_points * (8.0 * self.d as f64) * self.repeat * 0.02,
            eff: 0.60,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, _iter: usize, cpu_share: f64) -> f64 {
        let n_cpu = ((self.n_func as f64) * cpu_share.clamp(0.0, 1.0)).round() as usize;
        let (mut sums, mut counts, sse_cpu) = self.assign_range(0, n_cpu);
        let (sums_gpu, counts_gpu, sse_gpu) = self.assign_range(n_cpu, self.n_func);
        for (s, g) in sums.iter_mut().zip(&sums_gpu) {
            *s += g;
        }
        for (c, g) in counts.iter_mut().zip(&counts_gpu) {
            *c += g;
        }
        let (d, k) = (self.d, self.k);
        let centroids = &mut self.data_mut().centroids;
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centroids[c * d + j] = sums[c * d + j] / counts[c] as f64;
                }
            }
            // Empty clusters keep their previous centroid (Rodinia
            // behaviour).
        }
        self.last_sse = sse_cpu + sse_gpu;
        self.last_sse
    }

    fn digest(&self) -> f64 {
        self.data().centroids.iter().sum::<f64>() + if self.last_sse.is_finite() { self.last_sse } else { 0.0 }
    }

    fn reset(&mut self) {
        self.data = OnceCell::new();
        self.last_sse = f64::INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{iteration_cpu_time_s, iteration_gpu_time_s, iteration_utilization};
    use crate::traits::{check_phase, sweep_calls};
    use greengpu_hw::calib::phenom_ii_x2;

    #[test]
    fn sse_is_non_increasing() {
        let mut km = KMeans::small(1);
        let mut prev = f64::INFINITY;
        for i in 0..km.iterations() {
            let sse = km.execute(i, 0.0);
            assert!(sse <= prev + 1e-9, "Lloyd SSE must not increase: {sse} > {prev}");
            prev = sse;
        }
    }

    #[test]
    fn split_is_invariant() {
        let shares = [0.0, 0.15, 0.30, 0.50, 0.85, 1.0];
        let mut digests = Vec::new();
        for &r in &shares {
            let mut km = KMeans::small(7);
            for i in 0..km.iterations() {
                km.execute(i, r);
            }
            digests.push(km.digest());
        }
        for w in digests.windows(2) {
            let rel = (w[0] - w[1]).abs() / w[0].abs().max(1.0);
            assert!(rel < 1e-9, "split changed result: {} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn reset_reproduces_run() {
        let mut km = KMeans::small(3);
        for i in 0..3 {
            km.execute(i, 0.25);
        }
        let d1 = km.digest();
        km.reset();
        for i in 0..3 {
            km.execute(i, 0.25);
        }
        assert_eq!(d1, km.digest());
    }

    #[test]
    fn phases_are_valid() {
        let km = KMeans::paper(1);
        for p in km.phases(0) {
            check_phase(&p);
        }
    }

    #[test]
    fn table2_utilization_class_holds() {
        let km = KMeans::paper(1);
        let spec = geforce_8800_gtx();
        let phases = km.phases(0);
        let (u_core, u_mem) = iteration_utilization(&phases, &spec, 576.0, 900.0);
        assert!(
            km.profile().core_class.contains(u_core),
            "core util {u_core} outside Medium band"
        );
        assert!(
            km.profile().mem_class.contains(u_mem),
            "mem util {u_mem} outside Low band"
        );
    }

    #[test]
    fn division_balance_point_matches_paper() {
        // §VII-B: the division algorithm converges to 20/80 CPU/GPU; the
        // time-balance point r* = tg/(tg+tc) must therefore sit near 0.2.
        let km = KMeans::paper(1);
        let phases = km.phases(0);
        let tg = iteration_gpu_time_s(&phases, &geforce_8800_gtx(), 576.0, 900.0);
        let tc = iteration_cpu_time_s(&phases, &phenom_ii_x2(), 2800.0);
        let r_star = tg / (tg + tc);
        assert!((0.15..0.23).contains(&r_star), "balance point {r_star}");
    }

    #[test]
    fn paper_iteration_is_tens_of_seconds() {
        // Iterations must dwarf the 3 s DVFS interval (paper §IV: division
        // interval ≥ 40× the scaling interval).
        let km = KMeans::paper(1);
        let tg = iteration_gpu_time_s(&km.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!((30.0..90.0).contains(&tg), "iteration {tg} s");
    }

    #[test]
    fn clustering_actually_separates_anchors() {
        let mut km = KMeans::small(11);
        for i in 0..km.iterations() {
            km.execute(i, 0.0);
        }
        // After convergence SSE per point should be near the noise floor:
        // 7 signal dims of unit variance plus one noise dim of variance 9
        // (the kdd_cup-style uninformative dimension) → ≈ 16. Allow slack
        // for imperfect seeding.
        let sse_per_point = km.last_sse() / 256.0;
        assert!(sse_per_point < 24.0, "sse/pt {sse_per_point} — clustering failed");
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        // Degenerate instance: all points identical — most clusters go
        // empty and must retain their initial centroids without NaN.
        let mut km = KMeans::with_params(5, 16, 2, 4, 16.0, 1.0, 2);
        let data = km.data_mut();
        data.points.fill(1.0);
        data.centroids = vec![1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 13.0, 13.0];
        km.execute(0, 0.0);
        let centroids = &km.data().centroids;
        assert!(centroids.iter().all(|c| c.is_finite()));
        // Cluster 0 captured everything; clusters 2-4 kept their centroids.
        assert_eq!(&centroids[2..4], &[5.0, 5.0]);
    }

    #[test]
    fn profile_is_divisible() {
        assert!(KMeans::small(1).profile().divisible);
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut km = KMeans::paper(1);
        sweep_calls(&km);
        assert!(km.data.get().is_none());
        km.reset();
        assert!(km.data.get().is_none());
    }
}
