//! `nbody` — all-pairs gravitational N-body (CUDA SDK).
//!
//! The paper's *core-bounded* exemplar: Fig. 1 shows nbody's execution time
//! is nearly flat under memory-frequency throttling (energy drops) but
//! stretches under core-frequency throttling. Table II nonetheless lists
//! "high core and memory utilization" — nvidia-smi's memory utilization
//! counts controller-busy cycles, which nbody's latency-bound tile fetches
//! keep high even though it is nowhere near bandwidth-bound; the cost model
//! expresses that with `mem_busy_factor` (see [`crate::traits::GpuPhase`]).
//!
//! An iteration is one force-computation + leapfrog-integration step.
//! Division splits by bodies: each body's force accumulation over all other
//! bodies is independent.

use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

const SOFTENING2: f64 = 1e-3;
const DT: f64 = 1e-3;

/// N-body workload instance.
pub struct NBody {
    profile: WorkloadProfile,
    seed: u64,
    n_func: usize,
    /// Generated on first use; the cost model never reads it.
    bodies: OnceCell<Bodies>,
    cost_bodies: f64,
    repeat: f64,
    iters: usize,
}

/// Positions, velocities and masses of the bodies.
struct Bodies {
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    mass: Vec<f64>,
}

impl NBody {
    /// Paper preset: 65 536 bodies charged to the cost model (functional
    /// state is a 1 024-body sample), 50 iterations (Table II).
    pub fn paper(seed: u64) -> Self {
        NBody::with_params(seed, 1024, 65_536.0, 3.0, 50)
    }

    /// Small preset for fast tests.
    pub fn small(seed: u64) -> Self {
        NBody::with_params(seed, 128, 128.0, 1.5e6, 5)
    }

    /// Fully parameterized constructor.
    pub fn with_params(seed: u64, n_func: usize, cost_bodies: f64, repeat: f64, iters: usize) -> Self {
        assert!(n_func >= 2);
        NBody {
            profile: WorkloadProfile {
                name: "nbody",
                enlargement: format!("{iters} of iterations"),
                description: "High core and memory utilization",
                core_class: UtilClass::High,
                mem_class: UtilClass::High,
                divisible: true,
            },
            seed,
            n_func,
            bodies: OnceCell::new(),
            cost_bodies,
            repeat,
            iters,
        }
    }

    /// Draws the bodies from the seeded stream.
    fn generate(&self) -> Bodies {
        let n_func = self.n_func;
        let mut rng = Pcg32::new(self.seed, 0x6e_626f_6479); // "nbody"
        let mut pos = Vec::with_capacity(n_func);
        let mut vel = Vec::with_capacity(n_func);
        let mut mass = Vec::with_capacity(n_func);
        for _ in 0..n_func {
            pos.push([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]);
            vel.push([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]);
            mass.push(rng.uniform(0.5, 1.5) / n_func as f64);
        }
        Bodies { pos, vel, mass }
    }

    fn bodies(&self) -> &Bodies {
        self.bodies.get_or_init(|| self.generate())
    }

    fn bodies_mut(&mut self) -> &mut Bodies {
        self.bodies();
        self.bodies.get_mut().expect("generated by bodies()")
    }

    /// Accelerations for bodies in `[lo, hi)` against all bodies.
    fn accel_range(&self, lo: usize, hi: usize) -> Vec<[f64; 3]> {
        let Bodies { pos, mass, .. } = self.bodies();
        let mut acc = vec![[0.0f64; 3]; hi - lo];
        for (out, i) in acc.iter_mut().zip(lo..hi) {
            let pi = pos[i];
            for j in 0..self.n_func {
                let pj = pos[j];
                let dx = pj[0] - pi[0];
                let dy = pj[1] - pi[1];
                let dz = pj[2] - pi[2];
                let r2 = dx * dx + dy * dy + dz * dz + SOFTENING2;
                let inv_r = 1.0 / r2.sqrt();
                let f = mass[j] * inv_r * inv_r * inv_r;
                out[0] += f * dx;
                out[1] += f * dy;
                out[2] += f * dz;
            }
        }
        acc
    }

    /// Total kinetic + potential energy (physics invariant probe).
    pub fn system_energy(&self) -> f64 {
        let Bodies { pos, vel, mass } = self.bodies();
        let mut e = 0.0;
        for i in 0..self.n_func {
            let v = vel[i];
            e += 0.5 * mass[i] * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
            for j in (i + 1)..self.n_func {
                let (pi, pj) = (pos[i], pos[j]);
                let dx = pj[0] - pi[0];
                let dy = pj[1] - pi[1];
                let dz = pj[2] - pi[2];
                let r = (dx * dx + dy * dy + dz * dz + SOFTENING2).sqrt();
                e -= mass[i] * mass[j] / r;
            }
        }
        e
    }
}

impl Workload for NBody {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, _iter: usize) -> Vec<PhaseCost> {
        // 20 flops per body-pair interaction (3 sub, 6 mul/add for r², rsqrt
        // expansion, 3 FMA per axis + integration amortized).
        let gpu_ops = self.cost_bodies * self.cost_bodies * 20.0 * self.repeat;
        // Tiled shared-memory loads give high arithmetic intensity; the
        // memory *controller* still reads busy (latency-bound tile refills).
        let gpu_bytes = gpu_ops / 12.0;
        let mut gpu = GpuPhase::new("force+integrate", gpu_ops, gpu_bytes, 0.70, 0.70, 0.0).with_mem_busy_factor(5.45);
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.07);
        let cpu = CpuSlice {
            ops: gpu_ops * 0.9,
            bytes: self.cost_bodies * 32.0 * self.repeat,
            eff: 0.65,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, _iter: usize, cpu_share: f64) -> f64 {
        let split = ((self.n_func as f64) * cpu_share.clamp(0.0, 1.0)).round() as usize;
        // Both sides read the same frozen positions, so the split is exact.
        let acc_cpu = self.accel_range(0, split);
        let acc_gpu = self.accel_range(split, self.n_func);
        let all = acc_cpu.into_iter().chain(acc_gpu);
        let Bodies { pos, vel, .. } = self.bodies_mut();
        for ((vel, pos), acc) in vel.iter_mut().zip(pos.iter_mut()).zip(all) {
            for k in 0..3 {
                vel[k] += acc[k] * DT;
                pos[k] += vel[k] * DT;
            }
        }
        self.digest()
    }

    fn digest(&self) -> f64 {
        let Bodies { pos, vel, .. } = self.bodies();
        pos.iter().flatten().sum::<f64>() + vel.iter().flatten().sum::<f64>()
    }

    fn reset(&mut self) {
        self.bodies = OnceCell::new();
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
        for &r in &[0.0, 0.3, 0.5, 1.0] {
            let mut nb = NBody::small(2);
            for i in 0..nb.iterations() {
                nb.execute(i, r);
            }
            digests.push(nb.digest());
        }
        for w in digests.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn energy_is_roughly_conserved() {
        let mut nb = NBody::small(3);
        let e0 = nb.system_energy();
        for i in 0..nb.iterations() {
            nb.execute(i, 0.0);
        }
        let e1 = nb.system_energy();
        let drift = (e1 - e0).abs() / e0.abs().max(1e-9);
        assert!(drift < 0.05, "energy drift {drift}");
    }

    #[test]
    fn momentum_changes_are_bounded() {
        let mut nb = NBody::small(4);
        nb.execute(0, 0.5);
        let Bodies { pos, vel, .. } = nb.bodies();
        assert!(pos.iter().flatten().all(|x| x.is_finite()));
        assert!(vel.iter().flatten().all(|x| x.is_finite()));
    }

    #[test]
    fn reset_reproduces_run() {
        let mut nb = NBody::small(5);
        nb.execute(0, 0.5);
        let d = nb.digest();
        nb.reset();
        nb.execute(0, 0.5);
        assert_eq!(d, nb.digest());
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut nb = NBody::paper(1);
        sweep_calls(&nb);
        assert!(nb.bodies.get().is_none());
        nb.reset();
        assert!(nb.bodies.get().is_none());
    }

    #[test]
    fn phases_are_valid() {
        for p in NBody::paper(1).phases(0) {
            check_phase(&p);
        }
    }

    #[test]
    fn table2_both_utilizations_read_high() {
        let nb = NBody::paper(1);
        let (u_core, u_mem) = iteration_utilization(&nb.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!(u_core > 0.70, "core util {u_core}");
        assert!(u_mem > 0.70, "mem util {u_mem} (controller-busy)");
    }

    #[test]
    fn fig1_memory_throttle_barely_stretches_time() {
        // Fig. 1a: nbody at memory 500 MHz loses only a few percent.
        let nb = NBody::paper(1);
        let p = nb.phases(0)[0].gpu;
        let spec = geforce_8800_gtx();
        let fast = phase_gpu_timing(&p, &spec, 576.0, 900.0).total_s();
        let slow = phase_gpu_timing(&p, &spec, 576.0, 500.0).total_s();
        let stretch = slow / fast;
        assert!(stretch < 1.05, "nbody memory-throttle stretch {stretch}");
    }

    #[test]
    fn fig1_core_throttle_stretches_time() {
        // Fig. 1c: nbody at core 296 MHz nearly doubles in time.
        let nb = NBody::paper(1);
        let p = nb.phases(0)[0].gpu;
        let spec = geforce_8800_gtx();
        let fast = phase_gpu_timing(&p, &spec, 576.0, 900.0).total_s();
        let slow = phase_gpu_timing(&p, &spec, 296.0, 900.0).total_s();
        let stretch = slow / fast;
        assert!(stretch > 1.6, "nbody core-throttle stretch {stretch}");
    }
}
