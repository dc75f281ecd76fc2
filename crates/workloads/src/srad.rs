//! `srad_v2` — speckle-reducing anisotropic diffusion (Rodinia).
//!
//! Table II: 2048 columns × 2048 rows, *high* core / *medium* memory
//! utilization. SRAD alternates a diffusion-coefficient pass and an update
//! pass over the image every iteration; both are arithmetic-dense stencils
//! with moderate streaming traffic.
//!
//! Rows are independent within each pass (the passes are separated by a
//! barrier), so srad is divisible by row bands like hotspot.

use crate::datasets::speckled_image;
use crate::model::host_floor_for_gap_fraction;
use crate::traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
use greengpu_hw::calib::geforce_8800_gtx;
use greengpu_sim::Pcg32;
use std::cell::OnceCell;

const LAMBDA: f64 = 0.5;

/// SRAD workload instance.
pub struct Srad {
    profile: WorkloadProfile,
    seed: u64,
    rows: usize,
    cols: usize,
    /// Generated on first use; the cost model never reads it.
    image: OnceCell<Image>,
    cost_cells: f64,
    repeat: f64,
    iters: usize,
}

/// The speckled image and the diffusion coefficients computed from it.
struct Image {
    img: Vec<f64>,
    coeff: Vec<f64>,
}

impl Srad {
    /// Paper preset: 2048×2048 charged to costs; functional image 96×96.
    pub fn paper(seed: u64) -> Self {
        Srad::with_params(seed, 96, 96, 2048.0 * 2048.0, 1000.0, 24)
    }

    /// Small preset for fast tests.
    pub fn small(seed: u64) -> Self {
        Srad::with_params(seed, 24, 24, 576.0, 2.8e7, 6)
    }

    /// Fully parameterized constructor.
    pub fn with_params(seed: u64, rows: usize, cols: usize, cost_cells: f64, repeat: f64, iters: usize) -> Self {
        assert!(rows >= 4 && cols >= 4);
        Srad {
            profile: WorkloadProfile {
                name: "srad_v2",
                enlargement: "2048 columns by 2048 rows".to_string(),
                description: "High core utilization, medium memory utilization",
                core_class: UtilClass::High,
                mem_class: UtilClass::Medium,
                divisible: true,
            },
            seed,
            rows,
            cols,
            image: OnceCell::new(),
            cost_cells,
            repeat,
            iters,
        }
    }

    /// Draws the image from the seeded stream.
    fn generate(&self) -> Image {
        // Multiplicative speckle over a smooth reflectivity field — the
        // noise model SRAD is designed to remove.
        let mut rng = Pcg32::new(self.seed, 0x73726164); // "srad"
        Image {
            img: speckled_image(&mut rng, self.rows, self.cols, 0.22),
            coeff: vec![0.0; self.rows * self.cols],
        }
    }

    fn image(&self) -> &Image {
        self.image.get_or_init(|| self.generate())
    }

    fn image_mut(&mut self) -> &mut Image {
        self.image();
        self.image.get_mut().expect("generated by image()")
    }

    /// Image variance / mean² — the speckle statistic SRAD reduces.
    pub fn speckle_q0_sqr(&self) -> f64 {
        let img = &self.image().img;
        let n = img.len() as f64;
        let mean = img.iter().sum::<f64>() / n;
        let var = img.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        var / (mean * mean)
    }

    /// Pass 1 over rows `[lo, hi)`: diffusion coefficients from local
    /// gradients (Rodinia srad_v2 kernel 1).
    fn coeff_rows(&mut self, lo: usize, hi: usize, q0_sqr: f64) {
        let (r, c) = (self.rows, self.cols);
        let Image { img, coeff } = self.image_mut();
        for i in lo..hi {
            for j in 0..c {
                let idx = i * c + j;
                let jc = img[idx];
                let jn = img[if i > 0 { idx - c } else { idx }];
                let js = img[if i + 1 < r { idx + c } else { idx }];
                let jw = img[if j > 0 { idx - 1 } else { idx }];
                let je = img[if j + 1 < c { idx + 1 } else { idx }];
                let dn = jn - jc;
                let ds = js - jc;
                let dw = jw - jc;
                let de = je - jc;
                let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
                let l = (dn + ds + dw + de) / jc;
                let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
                let den = 1.0 + 0.25 * l;
                let q_sqr = num / (den * den);
                let cden = 1.0 + (q_sqr - q0_sqr) / (q0_sqr * (1.0 + q0_sqr));
                coeff[idx] = (1.0 / cden).clamp(0.0, 1.0);
            }
        }
    }

    /// Pass 2 over rows `[lo, hi)`: divergence update (kernel 2).
    fn update_rows(&mut self, lo: usize, hi: usize) {
        let (r, c) = (self.rows, self.cols);
        let Image { img, coeff } = self.image_mut();
        for i in lo..hi {
            for j in 0..c {
                let idx = i * c + j;
                let cs = coeff[if i + 1 < r { idx + c } else { idx }];
                let ce = coeff[if j + 1 < c { idx + 1 } else { idx }];
                let jc = img[idx];
                let js = img[if i + 1 < r { idx + c } else { idx }];
                let je = img[if j + 1 < c { idx + 1 } else { idx }];
                let jn = img[if i > 0 { idx - c } else { idx }];
                let jw = img[if j > 0 { idx - 1 } else { idx }];
                // Rodinia srad_v2 uses the center coefficient for the
                // north and west fluxes.
                let cn = coeff[idx];
                let cw = coeff[idx];
                let d = cs * (js - jc) + cn * (jn - jc) + ce * (je - jc) + cw * (jw - jc);
                img[idx] = jc + 0.25 * LAMBDA * d;
            }
        }
    }
}

impl Workload for Srad {
    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn phases(&self, _iter: usize) -> Vec<PhaseCost> {
        // Two arithmetic-dense passes: ~40 flops/cell total, ~12 B/cell of
        // streaming traffic.
        let cells = self.cost_cells * self.repeat;
        let mut gpu = GpuPhase::new("coeff+update", cells * 40.0, cells * 12.0, 0.55, 0.50, 0.0);
        gpu.host_floor_s = host_floor_for_gap_fraction(&gpu, &geforce_8800_gtx(), 0.06);
        let cpu = CpuSlice {
            ops: cells * 40.0,
            bytes: cells * 16.0,
            eff: 0.55,
        };
        vec![PhaseCost { gpu, cpu }]
    }

    fn execute(&mut self, _iter: usize, cpu_share: f64) -> f64 {
        let split = ((self.rows as f64) * cpu_share.clamp(0.0, 1.0)).round() as usize;
        let q0 = self.speckle_q0_sqr();
        // Pass 1 on both bands (barrier), then pass 2 on both bands — the
        // same schedule as the divided pthread+CUDA port, so results are
        // split-invariant.
        self.coeff_rows(0, split, q0);
        self.coeff_rows(split, self.rows, q0);
        self.update_rows(0, split);
        self.update_rows(split, self.rows);
        self.digest()
    }

    fn digest(&self) -> f64 {
        self.image().img.iter().sum()
    }

    fn reset(&mut self) {
        self.image = OnceCell::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::iteration_utilization;
    use crate::traits::{check_phase, sweep_calls};

    #[test]
    fn split_is_invariant() {
        let mut digests = Vec::new();
        for &r in &[0.0, 0.3, 0.5, 1.0] {
            let mut s = Srad::small(2);
            for i in 0..s.iterations() {
                s.execute(i, r);
            }
            digests.push(s.digest());
        }
        for w in digests.windows(2) {
            assert!((w[0] - w[1]).abs() / w[0].abs() < 1e-12, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn speckle_is_reduced() {
        let mut s = Srad::small(3);
        let q_before = s.speckle_q0_sqr();
        for i in 0..s.iterations() {
            s.execute(i, 0.0);
        }
        let q_after = s.speckle_q0_sqr();
        assert!(q_after < q_before, "speckle should shrink: {q_before} -> {q_after}");
    }

    #[test]
    fn image_stays_positive_and_finite() {
        let mut s = Srad::small(4);
        for i in 0..s.iterations() {
            s.execute(i, 0.5);
        }
        assert!(s.image().img.iter().all(|&x| x.is_finite() && x > 0.0));
    }

    #[test]
    fn coefficients_are_clamped() {
        let mut s = Srad::small(5);
        s.execute(0, 0.0);
        assert!(s.image().coeff.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn reset_reproduces_run() {
        let mut s = Srad::small(6);
        s.execute(0, 0.4);
        let d = s.digest();
        s.reset();
        s.execute(0, 0.4);
        assert_eq!(d, s.digest());
    }

    #[test]
    fn sweep_calls_never_generate_inputs() {
        let mut s = Srad::paper(1);
        sweep_calls(&s);
        assert!(s.image.get().is_none());
        s.reset();
        assert!(s.image.get().is_none());
    }

    #[test]
    fn phases_are_valid() {
        for p in Srad::paper(1).phases(0) {
            check_phase(&p);
        }
    }

    #[test]
    fn table2_high_core_medium_memory() {
        let s = Srad::paper(1);
        let (u_core, u_mem) = iteration_utilization(&s.phases(0), &geforce_8800_gtx(), 576.0, 900.0);
        assert!(s.profile().core_class.contains(u_core), "core util {u_core}");
        assert!(s.profile().mem_class.contains(u_mem), "mem util {u_mem}");
    }
}
