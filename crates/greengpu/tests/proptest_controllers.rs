//! Property-based tests for the GreenGPU controllers.

use greengpu::division::{DivisionController, DivisionParams};
use greengpu::quantized::QuantizedWma;
use greengpu::wma::{table1_loss, WmaParams, WmaScaler};
use greengpu::{GreenGpuConfig, GreenGpuController};
use greengpu_hw::{FaultPlan, Platform};
use greengpu_runtime::{Controller, IterationInfo};
use greengpu_sim::{Pcg32, SimDuration, SimTime};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = WmaParams> {
    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.01..0.99f64, 0.1..1.0f64).prop_map(
        |(alpha_core, alpha_mem, phi, beta, history)| WmaParams {
            alpha_core,
            alpha_mem,
            phi,
            beta,
            history,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn table1_losses_are_complementary_and_bounded(u in 0.0..1.0f64, umean in 0.0..1.0f64) {
        let (le, lp) = table1_loss(u, umean);
        // Exactly one side is charged.
        prop_assert!(le == 0.0 || lp == 0.0);
        prop_assert!(le >= 0.0 && lp >= 0.0);
        prop_assert!((le + lp - (u - umean).abs()).abs() < 1e-12);
    }

    #[test]
    fn wma_is_stable_for_any_valid_params(params in arb_params(),
                                          us in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..100)) {
        let mut s = WmaScaler::new(6, 6, params);
        for (uc, um) in us {
            let (i, j) = s.observe(uc, um);
            prop_assert!(i < 6 && j < 6);
        }
        // Weights survive normalization for any parameterization.
        let max = (0..6).flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| s.weight(i, j))
            .fold(f64::MIN, f64::max);
        prop_assert!((max - 1.0).abs() < 1e-9, "max weight {max}");
    }

    #[test]
    fn wma_zero_loss_level_always_wins_eventually(level in 0usize..6) {
        // Feeding exactly umean[level] must converge the corresponding
        // domain to that level (its loss is zero, everyone else decays).
        let u = level as f64 / 5.0;
        let mut s = WmaScaler::new(6, 6, WmaParams::default());
        let mut pair = (0, 0);
        for _ in 0..40 {
            pair = s.observe(u, u);
        }
        prop_assert_eq!(pair, (level, level));
    }

    #[test]
    fn quantized_agrees_with_float_within_one_level(seed in any::<u64>(),
                                                    base_c in 0.0..1.0f64, base_m in 0.0..1.0f64) {
        let mut q = QuantizedWma::new(6, 6, WmaParams::default());
        let mut f = WmaScaler::new(6, 6, WmaParams::default());
        let mut rng = Pcg32::seeded(seed);
        let mut qp = (0, 0);
        let mut fp = (0, 0);
        for _ in 0..25 {
            let uc = (base_c + rng.uniform(-0.03, 0.03)).clamp(0.0, 1.0);
            let um = (base_m + rng.uniform(-0.03, 0.03)).clamp(0.0, 1.0);
            qp = q.observe(uc, um);
            fp = f.observe(uc, um);
        }
        prop_assert!(qp.0.abs_diff(fp.0) <= 1, "core: quantized {qp:?} vs float {fp:?}");
        prop_assert!(qp.1.abs_diff(fp.1) <= 1, "mem: quantized {qp:?} vs float {fp:?}");
    }

    #[test]
    fn division_never_leaves_bounds_or_grid(updates in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..200),
                                            initial_steps in 0usize..19) {
        let mut ctl = DivisionController::new(initial_steps as f64 * 0.05, DivisionParams::default());
        for (tc, tg) in updates {
            let r = ctl.update(tc, tg);
            prop_assert!((0.0..=0.90 + 1e-12).contains(&r));
            let k = r / 0.05;
            prop_assert!((k - k.round()).abs() < 1e-9, "share off grid: {r}");
        }
    }

    #[test]
    fn division_moves_toward_the_slower_side(tc in 0.01..100.0f64, tg in 0.01..100.0f64) {
        prop_assume!((tc - tg).abs() > 1e-9);
        let mut ctl = DivisionController::new(
            0.45,
            DivisionParams {
                safeguard: false,
                ..DivisionParams::default()
            },
        );
        let before = ctl.share();
        let after = ctl.update(tc, tg);
        if tc > tg {
            prop_assert!(after < before, "CPU slower but share rose");
        } else {
            prop_assert!(after > before, "GPU slower but share fell");
        }
    }

    #[test]
    fn hardened_controller_survives_arbitrary_fault_sequences(fault_seed in any::<u64>(),
                                                             intensity in 0.0..1.0f64,
                                                             ticks in 1usize..60,
                                                             times in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..30)) {
        // Drive the full two-tier controller directly against a platform
        // through seeded fault injectors of arbitrary seed and intensity,
        // interleaving DVFS ticks with iteration reports (some of them
        // garbage). The controller must never panic and every invariant
        // must hold at every step.
        let plan = FaultPlan::with_intensity(fault_seed, intensity);
        let mut ctl = GreenGpuController::for_testbed_faulted(GreenGpuConfig::holistic(), &plan);
        let mut platform = Platform::default_testbed();
        let n_core = platform.gpu().spec().core_levels_mhz.len();
        let n_mem = platform.gpu().spec().mem_levels_mhz.len();
        let n_cpu = platform.cpu().spec().levels_mhz.len();
        let mut now = SimTime::ZERO;
        let mut iter = times.iter().cycle();
        for k in 0..ticks {
            now += SimDuration::from_secs(3);
            ctl.on_dvfs_tick(&mut platform, now);
            // Frequency levels stay valid after every actuation.
            prop_assert!(platform.gpu().core().current_level() < n_core);
            prop_assert!(platform.gpu().mem().current_level() < n_mem);
            prop_assert!(platform.cpu().domain().current_level() < n_cpu);
            // WMA weights stay in (0, 1] whatever the sensors fed it.
            let wma = ctl.wma().expect("default controller runs the WMA policy");
            for i in 0..n_core {
                for j in 0..n_mem {
                    let w = wma.weight(i, j);
                    prop_assert!(w > 0.0 && w <= 1.0, "weight[{i}][{j}] = {w}");
                }
            }
            // Every other tick, report an iteration — every fourth one
            // with non-finite garbage the hardening must reject.
            if k % 2 == 0 {
                let &(tc, tg) = iter.next().unwrap();
                let (tc, tg) = if k % 4 == 0 { (f64::NAN, f64::INFINITY) } else { (tc, tg) };
                let info = IterationInfo { index: k, cpu_share: ctl.division_share(), tc_s: tc, tg_s: tg };
                let r = ctl.on_iteration_end(&info, &mut platform, now);
                // The share stays on the 5 % grid inside [0, 0.90].
                prop_assert!((0.0..=0.90 + 1e-12).contains(&r), "share {r}");
                let steps = r / 0.05;
                prop_assert!((steps - steps.round()).abs() < 1e-9, "share off grid: {r}");
            }
        }
    }

    #[test]
    fn safeguard_only_ever_holds_never_reverses(updates in proptest::collection::vec((0.0..10.0f64, 0.0..10.0f64), 1..100)) {
        // With and without safeguard, the *direction* of any move matches
        // the slower side; the safeguard can only convert moves into holds.
        let mut with = DivisionController::new(0.45, DivisionParams::default());
        let mut without = DivisionController::new(
            0.45,
            DivisionParams {
                safeguard: false,
                ..DivisionParams::default()
            },
        );
        for &(tc, tg) in &updates {
            let wb = with.share();
            let wa = with.update(tc, tg);
            if (wa - wb).abs() > 1e-12 {
                // A move with the safeguard must match the unsafeguarded
                // direction rule.
                let expected_up = tc < tg;
                prop_assert_eq!(wa > wb, expected_up);
            }
            without.update(tc, tg);
        }
        prop_assert!(with.moves() <= without.moves() + updates.len() as u64);
    }
}

/// A platform that forgets the history before its controller's next poll
/// window answers the control loop with the bits of a twin that keeps
/// all of it. Two testbed platforms, each under a scaling-only
/// controller, run one schedule: busy stretches whose activity moves
/// twice per interval, idle stretches, thermal stretches at floor clocks
/// (no control tick), and controller rebuilds (fresh sensors, whose first
/// poll reads from t = 0). Only one platform forgets, after each tick, as
/// a fleet node does. Every tick leaves both controllers with the same
/// readings and learner state (the decision fingerprint), the same
/// levels, and the same window and whole-run energies; the forgetting
/// platform's traces stay short while its twin's grow.
#[test]
fn a_forgetting_platform_answers_the_control_loop_as_its_full_twin() {
    let fresh = || GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
    let (mut lean, mut full) = (
        (Platform::default_testbed(), fresh()),
        (Platform::default_testbed(), fresh()),
    );
    let mut rng = Pcg32::new(7, 11);
    let (mut longest, mut rebuilds) = (0, 0);
    for k in 1..=360u64 {
        let (prev, now) = (SimTime::from_secs(3 * (k - 1)), SimTime::from_secs(3 * k));
        let thermal = (100..106).contains(&(k % 120));
        match k % 120 {
            1..=59 => {
                for at_ms in [700, 1_900] {
                    let at = prev + SimDuration::from_millis(at_ms);
                    let (uc, um, cpu) = (rng.next_f64(), rng.next_f64(), rng.next_f64());
                    for p in [&mut lean.0, &mut full.0] {
                        p.set_gpu_activity(at, uc, um);
                        p.set_cpu_activity(at, cpu, 2);
                    }
                }
            }
            60 => {
                for p in [&mut lean.0, &mut full.0] {
                    p.set_gpu_activity(prev + SimDuration::from_millis(100), 0.0, 0.0);
                    p.set_cpu_activity(prev + SimDuration::from_millis(100), 0.0, 0);
                }
            }
            _ => {}
        }
        if k % 50 == 25 {
            (lean.1, full.1) = (fresh(), fresh());
            rebuilds += 1;
        }
        for ((p, ctl), forgets) in [(&mut lean, true), (&mut full, false)] {
            if thermal {
                p.set_gpu_levels(now, 0, 0);
                p.set_cpu_level(now, 0);
                continue;
            }
            let cut = ctl.sensor_window_start();
            ctl.on_dvfs_tick(p, now);
            if forgets {
                p.forget_before(cut);
            }
        }
        assert_eq!(
            lean.1.decision_fingerprint_parts(),
            full.1.decision_fingerprint_parts(),
            "tick {k}: readings or learner differ"
        );
        let levels = |p: &Platform| {
            (
                p.gpu().core().current_level(),
                p.gpu().mem().current_level(),
                p.cpu().domain().current_level(),
            )
        };
        assert_eq!(levels(&lean.0), levels(&full.0), "tick {k}");
        for (from, to) in [(prev, now), (SimTime::ZERO, now)] {
            let energies = |p: &Platform| {
                [
                    p.gpu_energy_j(from, to),
                    p.cpu_energy_j(from, to),
                    p.gpu_idle_energy_j(from, to),
                ]
                .map(f64::to_bits)
            };
            assert_eq!(
                energies(&lean.0),
                energies(&full.0),
                "tick {k}: energies over [{from}, {to})"
            );
        }
        longest = lean.0.traces().iter().map(|t| t.len()).fold(longest, usize::max);
    }
    assert_eq!(rebuilds, 7);
    assert!(longest <= 8, "a forgetting trace reached {longest} breakpoints");
    let grown = full.0.traces().iter().map(|t| t.len()).max().unwrap_or(0);
    assert!(
        grown > 100,
        "the full twin's longest trace holds only {grown} breakpoints"
    );
}
