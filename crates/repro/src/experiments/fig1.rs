//! Fig. 1 — frequency scaling case study on GPU cores and memory.
//!
//! The paper's §III-A motivation: sweep the memory frequency with cores at
//! peak (1a/1b) and the core frequency with memory at peak (1c/1d) for the
//! core-bounded `nbody` and memory-bounded `streamcluster`, reporting
//! execution time normalized to the peak-frequency run and energy relative
//! to the peak-frequency run (GPU card meter).

use super::ExperimentOutput;
use greengpu::baselines::run_pinned;
use greengpu_hw::calib::{GPU_CORE_LEVELS_MHZ, GPU_MEM_LEVELS_MHZ};
use greengpu_runtime::{RunConfig, RunReport};
use greengpu_sim::{table::fnum, Table};
use greengpu_workloads::nbody::NBody;
use greengpu_workloads::streamcluster::StreamCluster;
use greengpu_workloads::Workload;

struct SweepPoint {
    mhz: f64,
    norm_time: f64,
    rel_energy: f64,
}

fn sweep<F>(mut make: F, vary_mem: bool) -> Vec<SweepPoint>
where
    F: FnMut() -> Box<dyn Workload>,
{
    let peak = {
        let mut wl = make();
        run_pinned(wl.as_mut(), 5, 5, RunConfig::sweep())
    };
    let norm = |r: &RunReport, peak: &RunReport| SweepPoint {
        mhz: 0.0,
        norm_time: r.total_time.as_secs_f64() / peak.total_time.as_secs_f64(),
        rel_energy: r.gpu_energy_j / peak.gpu_energy_j,
    };
    (0..6)
        .map(|lvl| {
            let mut wl = make();
            let (c, m) = if vary_mem { (5, lvl) } else { (lvl, 5) };
            let report = run_pinned(wl.as_mut(), c, m, RunConfig::sweep());
            let mut p = norm(&report, &peak);
            p.mhz = if vary_mem {
                GPU_MEM_LEVELS_MHZ[lvl]
            } else {
                GPU_CORE_LEVELS_MHZ[lvl]
            };
            p
        })
        .collect()
}

fn sweep_table(title: &str, axis: &str, nbody: &[SweepPoint], sc: &[SweepPoint]) -> Table {
    let mut t = Table::new(
        title,
        &[
            axis,
            "nbody norm. time",
            "nbody rel. energy",
            "SC norm. time",
            "SC rel. energy",
        ],
    );
    for (n, s) in nbody.iter().zip(sc).rev() {
        t.row(&[
            fnum(n.mhz, 0),
            fnum(n.norm_time, 3),
            fnum(n.rel_energy, 3),
            fnum(s.norm_time, 3),
            fnum(s.rel_energy, 3),
        ]);
    }
    t
}

/// Runs the Fig. 1 sweeps.
pub fn run(seed: u64) -> ExperimentOutput {
    let mem_nbody = sweep(|| Box::new(NBody::paper(seed)), true);
    let mem_sc = sweep(|| Box::new(StreamCluster::paper(seed)), true);
    let core_nbody = sweep(|| Box::new(NBody::paper(seed)), false);
    let core_sc = sweep(|| Box::new(StreamCluster::paper(seed)), false);

    let t_mem = sweep_table(
        "Fig. 1a/1b — memory-frequency sweep (cores at 576 MHz)",
        "mem MHz",
        &mem_nbody,
        &mem_sc,
    );
    let t_core = sweep_table(
        "Fig. 1c/1d — core-frequency sweep (memory at 900 MHz)",
        "core MHz",
        &core_nbody,
        &core_sc,
    );

    let mut notes = Vec::new();
    notes.push(format!(
        "nbody at memory 500 MHz: time ×{}, energy ×{} (paper: nearly flat time, energy drops) — core-bounded.",
        fnum(mem_nbody[0].norm_time, 3),
        fnum(mem_nbody[0].rel_energy, 3)
    ));
    notes.push(format!(
        "SC at memory 500 MHz: time ×{} (paper: memory-bounded, both time and energy suffer).",
        fnum(mem_sc[0].norm_time, 3)
    ));
    let sc_410 = &core_sc[2];
    notes.push(format!(
        "SC at core 408 MHz: time ×{}, energy ×{} (paper: ~410 MHz saves energy with negligible performance loss).",
        fnum(sc_410.norm_time, 3),
        fnum(sc_410.rel_energy, 3)
    ));
    notes.push(format!(
        "nbody at core 296 MHz: time ×{} (paper: core throttling hurts the core-bounded workload).",
        fnum(core_nbody[0].norm_time, 3)
    ));

    ExperimentOutput {
        id: "fig1",
        title: "Normalized execution time and relative energy under per-domain frequency throttling",
        tables: vec![t_mem, t_core],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_the_paper_shapes() {
        let mem_nbody = sweep(|| Box::new(NBody::paper(1)), true);
        // nbody: memory throttling is nearly free and saves energy.
        assert!(mem_nbody[0].norm_time < 1.05, "nbody time {}", mem_nbody[0].norm_time);
        assert!(
            mem_nbody[0].rel_energy < 1.0,
            "nbody energy {}",
            mem_nbody[0].rel_energy
        );

        let mem_sc = sweep(|| Box::new(StreamCluster::paper(1)), true);
        // SC: memory throttling stretches time markedly.
        assert!(mem_sc[0].norm_time > 1.15, "SC time {}", mem_sc[0].norm_time);

        let core_sc = sweep(|| Box::new(StreamCluster::paper(1)), false);
        // SC at ~410 MHz core: negligible time cost, energy saved.
        assert!(core_sc[2].norm_time < 1.05, "SC 408MHz time {}", core_sc[2].norm_time);
        assert!(
            core_sc[2].rel_energy < 1.0,
            "SC 408MHz energy {}",
            core_sc[2].rel_energy
        );
        // Below that it starts hurting.
        assert!(core_sc[0].norm_time > core_sc[2].norm_time);

        let core_nbody = sweep(|| Box::new(NBody::paper(1)), false);
        // nbody: core throttling stretches time hard.
        assert!(
            core_nbody[0].norm_time > 1.5,
            "nbody core time {}",
            core_nbody[0].norm_time
        );
    }

    #[test]
    fn peak_point_is_normalized_to_one() {
        let pts = sweep(|| Box::new(NBody::paper(1)), true);
        assert!((pts[5].norm_time - 1.0).abs() < 1e-9);
        assert!((pts[5].rel_energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn output_has_two_tables_with_six_rows() {
        let out = run(1);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].len(), 6);
        assert_eq!(out.tables[1].len(), 6);
    }
}
