//! `bfs` — level-synchronous breadth-first search (Rodinia).
//!
//! Table II: "65536 iterations" enlargement, high core *and* memory
//! utilization — with both domains saturated the paper observes the
//! smallest frequency-scaling savings (Fig. 6 discussion), because
//! throttling either side immediately stretches execution.
//!
//! BFS's frontier expansion is not chunk-divisible without shared frontier
//! state, so the workload is marked non-divisible (the paper divides only
//! iteration-structured data-parallel workloads); each of our iterations is
//! a batch of repeated traversals from rotating sources.

use crate::datasets::{edges_to_csr, rmat_edges};
use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

/// BFS workload instance over a synthetic undirected graph.
pub struct Bfs {
    profile: WorkloadProfile,
    seed: u64,
    n_func: usize,
    degree: usize,
    /// Generated on first use; the cost model never reads it.
    graph: OnceCell<Csr>,
    /// Sum of distances from all traversals so far.
    acc: f64,
    cost_nodes: f64,
    avg_degree: f64,
    repeat: f64,
    iters: usize,
    last_dist: Vec<u32>,
}

/// CSR adjacency: `adj[offsets[v]..offsets[v+1]]` are v's neighbors.
struct Csr {
    offsets: Vec<u32>,
    adj: Vec<u32>,
}

impl Bfs {
    /// Paper preset: 1 M nodes / 16 M edges charged to costs, functional
    /// graph 16 384 nodes; the Table II "65536 iterations" enlargement is
    /// spread as 16 iterations × 4 096 repeated traversals.
    pub fn paper(seed: u64) -> Self {
        Bfs::with_params(seed, 16_384, 8, 1_048_576.0, 16.0, 500.0, 16)
    }

    /// Small preset for fast tests.
    pub fn small(seed: u64) -> Self {
        Bfs::with_params(seed, 512, 4, 512.0, 8.0, 3.0e6, 4)
    }

    /// Fully parameterized constructor. `degree` is the functional graph's
    /// half-degree (edges are mirrored); `cost_degree` the cost model's.
    pub fn with_params(
        seed: u64,
        n_func: usize,
        degree: usize,
        cost_nodes: f64,
        cost_degree: f64,
        repeat: f64,
        iters: usize,
    ) -> Self {
        assert!(n_func >= 2 && degree >= 1);
        Bfs {
            profile: WorkloadProfile {
                name: "bfs",
                enlargement: "65536 iterations".to_string(),
                description: "High core and memory utilization",
                core_class: UtilClass::High,
                mem_class: UtilClass::High,
                divisible: false,
            },
            seed,
            n_func,
            degree,
            graph: OnceCell::new(),
            acc: 0.0,
            cost_nodes,
            avg_degree: cost_degree,
            repeat,
            iters,
            last_dist: Vec::new(),
        }
    }

    /// Draws the graph from the seeded stream.
    fn generate(&self) -> Csr {
        // R-MAT edges give the power-law degree structure real BFS inputs
        // have; a ring (added by the CSR builder) guarantees connectivity.
        let mut rng = Pcg32::new(self.seed, 0x626673); // "bfs"
        let scale = (usize::BITS - (self.n_func - 1).leading_zeros()).max(1);
        let pairs = rmat_edges(&mut rng, scale, self.degree);
        let (offsets, adj) = edges_to_csr(self.n_func, &pairs);
        Csr { offsets, adj }
    }

    fn csr(&self) -> &Csr {
        self.graph.get_or_init(|| self.generate())
    }

    /// Level-synchronous BFS from `source`; returns the distance array
    /// (`u32::MAX` marks unreachable — impossible here thanks to the ring).
    fn traverse(&self, source: usize) -> Vec<u32> {
        let Csr { offsets, adj } = self.csr();
        let mut dist = vec![u32::MAX; self.n_func];
        dist[source] = 0;
        let mut frontier = vec![source as u32];
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                let (lo, hi) = (offsets[v as usize] as usize, offsets[v as usize + 1] as usize);
                for &u in &adj[lo..hi] {
                    if dist[u as usize] == u32::MAX {
                        dist[u as usize] = level;
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// The distance array of the most recent traversal (for tests).
    pub fn last_distances(&self) -> &[u32] {
        &self.last_dist
    }

    /// CSR view of the graph (for tests).
    pub fn graph(&self) -> (&[u32], &[u32]) {
        let csr = self.csr();
        (&csr.offsets, &csr.adj)
    }
}

impl Workload for Bfs {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, _iter: usize) -> Vec<PhaseCost> {
        let edges = self.cost_nodes * self.avg_degree;
        // ~29 ops per edge relaxation (load, compare, CAS-style update,
        // frontier bookkeeping); irregular 16 B of traffic per edge. The
        // divergent access pattern keeps the memory controller busy above
        // its achieved-bandwidth fraction (mem_busy_factor).
        let gpu_ops = edges * 29.3 * self.repeat;
        let gpu_bytes = edges * 16.0 * self.repeat;
        let mut gpu = GpuPhase::new("frontier-sweep", gpu_ops, gpu_bytes, 0.25, 0.35, 0.0).with_mem_busy_factor(1.23);
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.05);
        let cpu = CpuSlice {
            ops: gpu_ops * 0.6,
            bytes: edges * 12.0 * self.repeat,
            eff: 0.45,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, iter: usize, _cpu_share: f64) -> f64 {
        let source = (iter * 131) % self.n_func;
        let dist = self.traverse(source);
        let sum: f64 = dist.iter().map(|&d| f64::from(d)).sum();
        self.acc += sum;
        self.last_dist = dist;
        sum
    }

    fn digest(&self) -> f64 {
        self.acc
    }

    fn reset(&mut self) {
        self.graph = OnceCell::new();
        self.acc = 0.0;
        self.last_dist.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{iteration_utilization, phase_gpu_timing};
    use crate::traits::{check_phase, sweep_calls};

    #[test]
    fn all_nodes_reachable_via_ring() {
        let mut b = Bfs::small(1);
        b.execute(0, 0.0);
        assert!(b.last_distances().iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn distances_satisfy_edge_triangle_property() {
        // For every undirected edge (v,u): |dist(v) - dist(u)| ≤ 1.
        let mut b = Bfs::small(2);
        b.execute(0, 0.0);
        let d = b.last_distances().to_vec();
        let (offsets, adj) = b.graph();
        for v in 0..d.len() {
            for &u in &adj[offsets[v] as usize..offsets[v + 1] as usize] {
                let (dv, du) = (i64::from(d[v]), i64::from(d[u as usize]));
                assert!((dv - du).abs() <= 1, "edge ({v},{u}) violates BFS levels");
            }
        }
    }

    #[test]
    fn source_has_distance_zero() {
        let mut b = Bfs::small(3);
        b.execute(0, 0.0);
        assert_eq!(b.last_distances()[0], 0);
    }

    #[test]
    fn traversal_is_deterministic() {
        let mut b1 = Bfs::small(4);
        let mut b2 = Bfs::small(4);
        assert_eq!(b1.execute(0, 0.0), b2.execute(0, 0.0));
        assert_eq!(b1.execute(1, 0.5), b2.execute(1, 0.0), "cpu_share must not affect bfs");
    }

    #[test]
    fn reset_clears_accumulator() {
        let mut b = Bfs::small(5);
        b.execute(0, 0.0);
        assert!(b.digest() > 0.0);
        b.reset();
        assert_eq!(b.digest(), 0.0);
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut b = Bfs::paper(1);
        sweep_calls(&b);
        assert!(b.graph.get().is_none());
        b.reset();
        assert!(b.graph.get().is_none());
    }

    #[test]
    fn phases_are_valid_and_not_divisible() {
        let b = Bfs::paper(1);
        for p in b.phases(0) {
            check_phase(&p);
        }
        assert!(!b.profile().divisible);
    }

    #[test]
    fn table2_both_utilizations_high() {
        let b = Bfs::paper(1);
        let (u_core, u_mem) = iteration_utilization(&b.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!(u_core > 0.70, "core util {u_core}");
        assert!(u_mem > 0.70, "mem util {u_mem}");
    }

    #[test]
    fn throttling_either_domain_stretches_time() {
        // The Fig. 6 discussion: with both domains busy, bfs cannot be
        // throttled for free — this is why its savings are smallest.
        let b = Bfs::paper(1);
        let spec = geforce_8800_gtx();
        let p = b.phases(0)[0].gpu;
        let base = phase_gpu_timing(&p, &spec, 576.0, 900.0).total_s();
        let slow_core = phase_gpu_timing(&p, &spec, 464.0, 900.0).total_s();
        let slow_mem = phase_gpu_timing(&p, &spec, 576.0, 500.0).total_s();
        assert!(slow_core / base > 1.05, "core throttle stretch {}", slow_core / base);
        assert!(slow_mem / base > 1.05, "mem throttle stretch {}", slow_mem / base);
    }
}
