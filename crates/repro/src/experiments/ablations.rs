//! Ablations over the design choices DESIGN.md calls out, as result
//! tables: this experiment reports their *outcomes*.

use super::{pct, signed_pct, ExperimentOutput};
use greengpu::autotune::{tune, TuneGrid};
use greengpu::baselines::run_on_platform;
use greengpu::baselines::{run_best_performance_with, run_with_config};
use greengpu::division::{DivisionController, DivisionParams};
use greengpu::oracle::wma_regret;
use greengpu::wma::{WmaParams, WmaScaler};
use greengpu::{DivisionAlgo, GovernorKind, GreenGpuConfig};
use greengpu_runtime::{CommMode, RunConfig};
use greengpu_sim::{table::fnum, Pcg32, Table};
use greengpu_workloads::hotspot::Hotspot;
use greengpu_workloads::kmeans::KMeans;
use greengpu_workloads::registry;
use greengpu_workloads::streamcluster::StreamCluster;

/// Division step-size sweep on the linear testbed (`tc = r·C`,
/// `tg = (1−r)·G`, C/G = 4.5 → balance 0.18).
fn division_step_table() -> Table {
    let mut t = Table::new(
        "Ablation — division step size (linear testbed, balance at 18.2%)",
        &["step", "iterations to settle", "settled share", "safeguard holds"],
    );
    for step in [0.01, 0.02, 0.05, 0.10, 0.20] {
        let mut ctl = DivisionController::new(
            0.50,
            DivisionParams {
                step,
                ..DivisionParams::default()
            },
        );
        let mut settled_at = 0;
        let mut last = ctl.share();
        for i in 0..200 {
            let r = ctl.share();
            let next = ctl.update(r * 4.5, (1.0 - r) * 1.0);
            if next != last {
                settled_at = i + 1;
            }
            last = next;
        }
        t.row(&[
            format!("{}%", fnum(step * 100.0, 0)),
            settled_at.to_string(),
            format!("{}%", fnum(ctl.share() * 100.0, 1)),
            ctl.holds().to_string(),
        ]);
    }
    t
}

/// Safeguard on/off on the paper's 12.5 % off-grid optimum example.
fn safeguard_table() -> Table {
    let mut t = Table::new(
        "Ablation — oscillation safeguard (off-grid optimum at 12.5%)",
        &["safeguard", "ratio moves in final 20 iterations", "behaviour"],
    );
    for (label, safeguard) in [("on", true), ("off", false)] {
        let mut ctl = DivisionController::new(
            0.10,
            DivisionParams {
                safeguard,
                ..DivisionParams::default()
            },
        );
        let mut trace = Vec::new();
        for _ in 0..40 {
            let r = ctl.share();
            trace.push(r);
            ctl.update(r * 7.0, (1.0 - r) * 1.0);
        }
        let tail_moves = trace[20..].windows(2).filter(|w| w[0] != w[1]).count();
        t.row(&[
            label.to_string(),
            tail_moves.to_string(),
            if tail_moves == 0 {
                "stable"
            } else {
                "oscillating 10% ↔ 15%"
            }
            .to_string(),
        ]);
    }
    t
}

/// Convergence independence from the initial ratio (paper Fig. 7 claim).
fn initial_ratio_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — initial division ratio independence (hotspot)",
        &["initial share", "final share", "iterations to final"],
    );
    for initial in [0.0, 0.10, 0.30, 0.50, 0.70, 0.90] {
        let cfg = GreenGpuConfig {
            initial_share: initial,
            ..GreenGpuConfig::division_only()
        };
        // Give far starts enough iterations to walk home.
        let mut wl = Hotspot::with_params(seed, 32, 32, 2048.0 * 2048.0, 40, 300.0, 30);
        let report = run_with_config(&mut wl, cfg, RunConfig::sweep());
        let final_share = report.iterations.last().unwrap().cpu_share;
        let reached = report
            .iterations
            .iter()
            .position(|it| (it.cpu_share - final_share).abs() < 1e-12)
            .unwrap();
        t.row(&[
            format!("{}%", fnum(initial * 100.0, 0)),
            format!("{}%", fnum(final_share * 100.0, 0)),
            (reached + 1).to_string(),
        ]);
    }
    t
}

/// Step-wise vs model-based division on the two paper workloads.
fn division_algo_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — step-wise heuristic vs model-based jump (division only)",
        &[
            "workload",
            "algorithm",
            "iterations to final share",
            "final share",
            "energy (kJ)",
        ],
    );
    for (name, make) in [
        (
            "kmeans",
            &(|s| Box::new(KMeans::paper(s)) as Box<dyn greengpu_workloads::Workload>)
                as &dyn Fn(u64) -> Box<dyn greengpu_workloads::Workload>,
        ),
        (
            "hotspot",
            &(|s| Box::new(Hotspot::paper(s)) as Box<dyn greengpu_workloads::Workload>),
        ),
    ] {
        for (label, algo) in [
            ("stepwise", DivisionAlgo::Stepwise),
            ("model-based", DivisionAlgo::ModelBased),
        ] {
            let cfg = GreenGpuConfig {
                division_algo: algo,
                ..GreenGpuConfig::division_only()
            };
            let mut wl = make(seed);
            let report = run_with_config(wl.as_mut(), cfg, RunConfig::sweep());
            let final_share = report.iterations.last().unwrap().cpu_share;
            let reached = report
                .iterations
                .iter()
                .position(|it| (it.cpu_share - final_share).abs() < 1e-12)
                .unwrap();
            t.row(&[
                name.to_string(),
                label.to_string(),
                (reached + 1).to_string(),
                format!("{}%", fnum(final_share * 100.0, 0)),
                fnum(report.total_energy_j() / 1e3, 1),
            ]);
        }
    }
    t
}

/// WMA history (λ) sweep: adaptation latency after a full signature flip.
fn history_table() -> Table {
    let mut t = Table::new(
        "Ablation — WMA history λ (intervals to re-adapt after a signature flip)",
        &["history λ", "intervals until argmax follows", "note"],
    );
    for history in [0.5, 0.8, 0.95, 1.0] {
        let mut s = WmaScaler::new(
            6,
            6,
            WmaParams {
                history,
                ..WmaParams::default()
            },
        );
        for _ in 0..50 {
            s.observe(1.0, 1.0);
        }
        let mut count = 0;
        while s.argmax() != (0, 0) && count < 10_000 {
            s.observe(0.0, 0.0);
            count += 1;
        }
        t.row(&[
            fnum(history, 2),
            count.to_string(),
            // lint:allow(float_eq) annotating the exact swept literal, not a computed value
            if history == 1.0 {
                "verbatim Eq. 4 (unbounded memory)"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    t
}

/// 8-bit quantized table agreement rate over random utilization traces.
fn quantized_table(seed: u64) -> Table {
    use greengpu::quantized::QuantizedWma;
    let mut rng = Pcg32::seeded(seed);
    let mut exact = 0usize;
    let mut within_one = 0usize;
    let trials = 200;
    for _ in 0..trials {
        let base_c = rng.next_f64();
        let base_m = rng.next_f64();
        let mut q = QuantizedWma::new(6, 6, WmaParams::default());
        let mut f = WmaScaler::new(6, 6, WmaParams::default());
        let mut qp = (0, 0);
        let mut fp = (0, 0);
        for _ in 0..25 {
            let uc = (base_c + rng.uniform(-0.05, 0.05)).clamp(0.0, 1.0);
            let um = (base_m + rng.uniform(-0.05, 0.05)).clamp(0.0, 1.0);
            qp = q.observe(uc, um);
            fp = f.observe(uc, um);
        }
        if qp == fp {
            exact += 1;
        }
        if qp.0.abs_diff(fp.0) <= 1 && qp.1.abs_diff(fp.1) <= 1 {
            within_one += 1;
        }
    }
    let mut t = Table::new(
        "Ablation — 8-bit fixed-point weight table vs f64 reference (§VI sketch)",
        &["agreement", "rate"],
    );
    t.row(&["identical pair".to_string(), pct(exact as f64 / trials as f64)]);
    t.row(&["within one level".to_string(), pct(within_one as f64 / trials as f64)]);
    t.row(&["table storage".to_string(), "36 bytes (6×6×8 bit)".to_string()]);
    t
}

/// Online WMA regret vs the exhaustive 36-pair static oracle.
fn oracle_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — WMA regret vs the exhaustive static frequency oracle (5% slowdown budget)",
        &[
            "workload",
            "oracle GPU energy (kJ)",
            "WMA GPU energy (kJ)",
            "energy regret",
            "time vs oracle",
        ],
    );
    for name in ["kmeans", "lud", "PF", "hotspot", "srad_v2", "streamcluster"] {
        let regret = wma_regret(|| registry::by_name(name, seed).expect("registered"), 0.05);
        t.row(&[
            name.to_string(),
            fnum(regret.oracle_energy_j / 1e3, 1),
            fnum(regret.wma_energy_j / 1e3, 1),
            signed_pct(regret.energy_regret()),
            signed_pct(regret.time_delta()),
        ]);
    }
    t
}

/// CPU governor comparison under asynchronous communication (where the
/// CPU governor actually has slack to exploit).
fn governor_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — CPU governors under asynchronous CPU-GPU communication (streamcluster)",
        &["governor", "box energy (kJ)", "system energy (kJ)", "time (s)"],
    );
    let mut cfg = RunConfig::sweep();
    cfg.comm_mode = CommMode::Async;
    let base = run_best_performance_with(&mut StreamCluster::paper(seed), cfg.clone());
    t.row(&[
        "none (peak pinned)".to_string(),
        fnum(base.cpu_energy_j / 1e3, 1),
        fnum(base.total_energy_j() / 1e3, 1),
        fnum(base.total_time.as_secs_f64(), 1),
    ]);
    for kind in [
        GovernorKind::Ondemand,
        GovernorKind::Conservative,
        GovernorKind::Proportional,
        GovernorKind::Powersave,
        GovernorKind::Performance,
    ] {
        let gcfg = GreenGpuConfig {
            governor: kind,
            gpu_scaling: false,
            ..GreenGpuConfig::scaling_only()
        };
        let report = run_with_config(&mut StreamCluster::paper(seed), gcfg, cfg.clone());
        let label = match kind {
            GovernorKind::Ondemand => "ondemand (paper)",
            GovernorKind::Conservative => "conservative",
            GovernorKind::Proportional => "proportional (Wu et al.-style)",
            GovernorKind::Powersave => "powersave",
            GovernorKind::Performance => "performance",
        };
        t.row(&[
            label.to_string(),
            fnum(report.cpu_energy_j / 1e3, 1),
            fnum(report.total_energy_j() / 1e3, 1),
            fnum(report.total_time.as_secs_f64(), 1),
        ]);
    }
    t
}

/// Tier-decoupling sweep (§IV): the paper configures the division
/// interval ≥ 40× the DVFS interval so the scaling loop settles well
/// inside each division interval. Here the division cadence is fixed
/// (hotspot's ~40 s iterations) and the DVFS interval grows toward it:
/// with few scaling samples per iteration the scaler reacts to stale,
/// division-mixed windows and spends longer at the wrong clocks.
fn decoupling_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — tier decoupling: DVFS interval vs ~40 s division interval (hotspot holistic)",
        &[
            "DVFS interval",
            "division/DVFS ratio",
            "final share",
            "energy (kJ)",
            "vs 3 s interval",
        ],
    );
    let mut rows = Vec::new();
    for &(period_s, label) in &[(3u64, "3 s (paper)"), (12, "12 s"), (40, "40 s")] {
        let cfg = GreenGpuConfig {
            dvfs_period: greengpu_sim::SimDuration::from_secs(period_s),
            ..GreenGpuConfig::holistic()
        };
        let mut wl = Hotspot::paper(seed);
        let report = run_with_config(&mut wl, cfg, RunConfig::sweep());
        let final_share = report.iterations.last().unwrap().cpu_share;
        rows.push((label, 40.0 / period_s as f64, final_share, report.total_energy_j()));
    }
    let reference = rows[0].3;
    for (label, ratio, share, energy) in rows {
        t.row(&[
            label.to_string(),
            format!("~{}x", fnum(ratio, 0)),
            format!("{}%", fnum(share * 100.0, 0)),
            fnum(energy / 1e3, 1),
            signed_pct(energy / reference - 1.0),
        ]);
    }
    t
}

/// Coordination ablation: the paper's central tier-2 claim is that GPU
/// cores and memory must be throttled *in coordination*. φ at the
/// extremes degenerates the loss to a single domain — the other domain's
/// level is then chosen blind (ties break to the lowest level), which is
/// exactly the "naive solution may over-throttle" failure §I warns about.
fn coordination_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — coordinated vs single-domain loss (φ extremes)",
        &["workload", "φ", "meaning", "GPU saving", "time delta"],
    );
    for (name, make) in [
        (
            "kmeans",
            &(|s| Box::new(KMeans::paper(s)) as Box<dyn greengpu_workloads::Workload>)
                as &dyn Fn(u64) -> Box<dyn greengpu_workloads::Workload>,
        ),
        (
            "streamcluster",
            &(|s| Box::new(StreamCluster::paper(s)) as Box<dyn greengpu_workloads::Workload>),
        ),
    ] {
        let base = run_best_performance_with(make(seed).as_mut(), RunConfig::sweep());
        for (phi, meaning) in [
            (0.3, "coordinated (paper)"),
            (1.0, "core-only loss"),
            (0.0, "memory-only loss"),
        ] {
            let cfg = GreenGpuConfig {
                wma_params: WmaParams {
                    phi,
                    ..WmaParams::default()
                },
                ..GreenGpuConfig::scaling_only()
            };
            let ours = run_with_config(make(seed).as_mut(), cfg, RunConfig::sweep());
            let saving = 1.0 - ours.gpu_energy_j / base.gpu_energy_j;
            let dt = ours.total_time.as_secs_f64() / base.total_time.as_secs_f64() - 1.0;
            t.row(&[
                name.to_string(),
                fnum(phi, 1),
                meaning.to_string(),
                pct(saving),
                signed_pct(dt),
            ]);
        }
    }
    t
}

/// Reclock-stall sweep: does actuation overhead erase the scaling tier's
/// savings? Sweeps the per-transition GPU stall on streamcluster (the
/// most actuation-heavy workload) and reports the net saving.
fn reclock_stall_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — GPU reclock stall vs net scaling saving (streamcluster)",
        &["stall per transition", "GPU energy saving", "time delta"],
    );
    let base = run_best_performance_with(&mut StreamCluster::paper(seed), RunConfig::sweep());
    for stall_ms in [0.0, 50.0, 200.0, 500.0] {
        let mut cfg = RunConfig::sweep();
        cfg.reclock_stall_s = stall_ms / 1000.0;
        let ours = run_with_config(&mut StreamCluster::paper(seed), GreenGpuConfig::scaling_only(), cfg);
        let saving = 1.0 - ours.gpu_energy_j / base.gpu_energy_j;
        let dt = ours.total_time.as_secs_f64() / base.total_time.as_secs_f64() - 1.0;
        t.row(&[format!("{} ms", fnum(stall_ms, 0)), pct(saving), signed_pct(dt)]);
    }
    t
}

/// DVFS what-if (§VII-C): "If DVFS is enabled, we expect more energy
/// saving can be achieved from frequency scaling." Rerun the scaling tier
/// on a voltage-scaling variant of the card and compare.
fn dvfs_whatif_table(seed: u64) -> Table {
    use greengpu_hw::calib::{geforce_dvfs_whatif, phenom_ii_x2};
    use greengpu_hw::Platform;
    let mut t = Table::new(
        "Ablation — frequency-only card vs DVFS what-if (scaling tier, §VII-C expectation)",
        &["workload", "freq-only GPU saving", "DVFS GPU saving", "gain"],
    );
    for name in ["kmeans", "lud", "PF", "streamcluster"] {
        // Frequency-only (the paper's card).
        let base = run_best_performance_with(
            registry::by_name(name, seed).expect("registered").as_mut(),
            RunConfig::sweep(),
        );
        let ours = run_with_config(
            registry::by_name(name, seed).expect("registered").as_mut(),
            GreenGpuConfig::scaling_only(),
            RunConfig::sweep(),
        );
        let freq_saving = 1.0 - ours.gpu_energy_j / base.gpu_energy_j;
        // DVFS what-if: same baseline envelope at peak, V²·f off-peak.
        let dvfs_base = run_on_platform(
            registry::by_name(name, seed).expect("registered").as_mut(),
            GreenGpuConfig {
                division: false,
                gpu_scaling: false,
                cpu_scaling: false,
                initial_share: 0.0,
                ..GreenGpuConfig::default()
            },
            RunConfig::sweep(),
            Platform::new(geforce_dvfs_whatif(), phenom_ii_x2(), 5, 5, 3),
        );
        let dvfs_ours = run_on_platform(
            registry::by_name(name, seed).expect("registered").as_mut(),
            GreenGpuConfig::scaling_only(),
            RunConfig::sweep(),
            Platform::new(geforce_dvfs_whatif(), phenom_ii_x2(), 0, 0, 3),
        );
        let dvfs_saving = 1.0 - dvfs_ours.gpu_energy_j / dvfs_base.gpu_energy_j;
        t.row(&[
            name.to_string(),
            pct(freq_saving),
            pct(dvfs_saving),
            signed_pct(dvfs_saving - freq_saving),
        ]);
    }
    t
}

/// Autotune landscape: grid-search α/φ on a mixed calibration set (the
/// paper's manual-tuning procedure, automated — its named future work)
/// and report where the paper's defaults rank.
fn autotune_table(seed: u64) -> Table {
    let make_set = || {
        ["kmeans", "streamcluster", "PF"]
            .iter()
            .map(|n| registry::by_name(n, seed).expect("registered"))
            .collect()
    };
    let result = tune(make_set, &TuneGrid::default());
    let mut ranked: Vec<_> = result.points.iter().collect();
    ranked.sort_by(|a, b| a.score_edp.partial_cmp(&b.score_edp).expect("finite"));
    let default_rank = ranked
        .iter()
        .position(|p| {
            (p.params.alpha_core - 0.15).abs() < 1e-12
                && (p.params.alpha_mem - 0.02).abs() < 1e-12
                && (p.params.phi - 0.3).abs() < 1e-12
        })
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut t = Table::new(
        format!("Ablation — autotuned WMA parameters (27-point grid; paper defaults rank {default_rank}/27)"),
        &[
            "rank",
            "alpha_core",
            "alpha_mem",
            "phi",
            "normalized EDP (sum of 3 workloads)",
        ],
    );
    for (i, p) in ranked.iter().take(5).enumerate() {
        t.row(&[
            (i + 1).to_string(),
            fnum(p.params.alpha_core, 2),
            fnum(p.params.alpha_mem, 2),
            fnum(p.params.phi, 2),
            fnum(p.score_edp, 4),
        ]);
    }
    t
}

/// Runs all ablations.
pub fn run(seed: u64) -> ExperimentOutput {
    ExperimentOutput {
        id: "ablations",
        title: "Design-choice ablations (division step/safeguard/algorithm, WMA λ, 8-bit table, oracle regret, governors)",
        tables: vec![
            division_step_table(),
            safeguard_table(),
            initial_ratio_table(seed),
            division_algo_table(seed),
            history_table(),
            quantized_table(seed),
            oracle_table(seed),
            governor_table(seed),
            decoupling_table(seed),
            reclock_stall_table(seed),
            coordination_table(seed),
            autotune_table(seed),
            dvfs_whatif_table(seed),
        ],
        notes: vec![
            "Small steps converge slowly, large steps settle off-balance — the paper's 5% is the documented trade-off.".to_string(),
            "The safeguard converts the 10%↔15% ping-pong of the off-grid optimum into a stable hold (paper §V-B).".to_string(),
            "The model-based jump reaches the balance ratio in one iteration; both algorithms land on the same final share.".to_string(),
            "Verbatim Eq. 4 (λ=1) needs orders of magnitude longer to re-adapt after a workload change.".to_string(),
            "DVFS what-if: voltage scaling roughly doubles-to-triples the scaling tier's savings, confirming the paper's §VII-C expectation.".to_string(),
            "The online WMA tracks the exhaustive 36-pair oracle within a few percent of GPU energy on stationary workloads.".to_string(),
            "Coordination matters: collapsing the loss to one domain leaves the other at its lowest level, inflating execution time exactly as §I's naive-throttling warning predicts.".to_string(),
            "Reclock stalls up to ~200 ms per transition leave the scaling savings intact at the 3 s interval; the tier tolerates realistic actuation costs.".to_string(),
            "Tier decoupling: a DVFS interval much shorter than the division interval (the paper's ≥40x rule) lets the scaler settle inside each iteration; stretching it toward the iteration length leaves the GPU at stale clocks and costs energy (paper §IV).".to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_tables_render() {
        let out = run(1);
        assert_eq!(out.tables.len(), 13);
        for t in &out.tables {
            assert!(!t.is_empty(), "{} empty", t.title());
        }
    }

    #[test]
    fn model_based_converges_at_least_as_fast_as_stepwise() {
        let t = division_algo_table(2);
        // Rows: kmeans/stepwise, kmeans/model, hotspot/stepwise, hotspot/model.
        let md = t.to_csv();
        let rows: Vec<&str> = md.lines().skip(1).collect();
        let iter_of = |row: &str| -> usize { row.split(',').nth(2).unwrap().parse().unwrap() };
        assert!(
            iter_of(rows[1]) <= iter_of(rows[0]),
            "kmeans: model slower than stepwise"
        );
        assert!(
            iter_of(rows[3]) <= iter_of(rows[2]),
            "hotspot: model slower than stepwise"
        );
    }

    #[test]
    fn governors_order_energy_sensibly() {
        let t = governor_table(3);
        let csv = t.to_csv();
        let energy_of = |name: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(name) || l.contains(name))
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        // powersave burns the least box energy; performance the most.
        assert!(energy_of("powersave") < energy_of("performance"));
        assert!(energy_of("ondemand") <= energy_of("performance"));
    }
}

#[cfg(test)]
mod coordination_tests {
    use super::*;

    #[test]
    fn uncoordinated_loss_hurts_the_blinded_domain() {
        // φ=1 ignores memory losses → memory parks at its lowest level →
        // memory-bound SC stretches. φ=0 ignores core losses → core parks
        // lowest → compute-heavy kmeans stretches.
        let seed = 6;
        let time_of = |phi: f64, make: &dyn Fn(u64) -> Box<dyn greengpu_workloads::Workload>| {
            let cfg = GreenGpuConfig {
                wma_params: WmaParams {
                    phi,
                    ..WmaParams::default()
                },
                ..GreenGpuConfig::scaling_only()
            };
            let mut wl = make(seed);
            run_with_config(wl.as_mut(), cfg, RunConfig::sweep())
                .total_time
                .as_secs_f64()
        };
        let km: &dyn Fn(u64) -> Box<dyn greengpu_workloads::Workload> = &|s| Box::new(KMeans::paper(s));
        let sc: &dyn Fn(u64) -> Box<dyn greengpu_workloads::Workload> = &|s| Box::new(StreamCluster::paper(s));
        // Coordinated is near-neutral on both.
        let km_coord = time_of(0.3, km);
        let sc_coord = time_of(0.3, sc);
        // Blinding the core domain tanks the compute-heavy workload.
        let km_blind = time_of(0.0, km);
        assert!(
            km_blind > km_coord * 1.10,
            "kmeans with memory-only loss: {km_blind} vs coordinated {km_coord}"
        );
        // Blinding the memory domain tanks the memory-bound workload.
        let sc_blind = time_of(1.0, sc);
        assert!(
            sc_blind > sc_coord * 1.10,
            "SC with core-only loss: {sc_blind} vs coordinated {sc_coord}"
        );
    }
}

#[cfg(test)]
mod dvfs_whatif_tests {
    use super::*;

    #[test]
    fn dvfs_card_amplifies_every_workloads_saving() {
        // §VII-C: "If DVFS is enabled, we expect more energy saving can be
        // achieved from frequency scaling."
        let t = dvfs_whatif_table(4);
        for line in t.to_csv().lines().skip(1) {
            let gain: f64 = line
                .split(',')
                .nth(3)
                .unwrap()
                .trim_end_matches('%')
                .trim_start_matches('+')
                .parse()
                .unwrap();
            assert!(gain > 2.0, "DVFS gain too small on: {line}");
        }
    }
}
