//! Checkpoint round-trip properties: `restore(snapshot(s))` reproduces
//! learner state bit-for-bit for every checkpointable layer — WMA weight
//! tables, bandit statistics, the Tier-1 division ratio, and the full
//! controller JSON — and corrupted or truncated checkpoints are rejected
//! without mutating the target. Snapshots are streamed as text; the
//! streamed bytes are exactly what the parsed tree prints, and for a
//! fixed set of controllers they are pinned byte for byte.

use greengpu::{
    pair_model_for, DeadlineParams, DivisionAlgo, DivisionController, DivisionParams, Exp3Params, Exp3Policy,
    FreqPolicy, GreenGpuConfig, GreenGpuController, PairModel, PhaseDetectorParams, PolicySpec, UcbParams, UcbPolicy,
    WmaParams, WmaScaler, CHECKPOINT_VERSION,
};
use greengpu_sim::{JsonValue, JsonWriter};
use proptest::prelude::*;

const N_CORE: usize = 6;
const N_MEM: usize = 6;

/// Bit-exact weight-table comparison (ordinary `==` would accept `-0.0`
/// vs `0.0` and reject differing NaN payloads).
fn wma_weights_bits(s: &WmaScaler) -> Vec<u64> {
    let mut bits = Vec::with_capacity(N_CORE * N_MEM);
    for i in 0..N_CORE {
        for j in 0..N_MEM {
            bits.push(s.weight(i, j).to_bits());
        }
    }
    bits
}

/// A controller's checkpoint, streamed into a fresh string.
fn checkpoint_text(ctl: &GreenGpuController) -> String {
    JsonWriter::render(|w| ctl.snapshot(w))
}

/// A streamed learner snapshot, parsed back the way a restore reads it.
fn parsed(write: impl FnOnce(&mut JsonWriter<'_>)) -> JsonValue {
    JsonValue::parse(&JsonWriter::render(write)).expect("a streamed snapshot parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// WMA: snapshot → restore into a *fresh* scaler reproduces the
    /// weight table bit-for-bit, and both copies then decide identically.
    #[test]
    fn wma_snapshot_round_trips_bit_exactly(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let mut warm = WmaScaler::new(N_CORE, N_MEM, WmaParams::default());
        for &(uc, um) in &drives {
            warm.observe(uc, um);
        }
        let snap = parsed(|w| warm.snapshot(w));
        let mut restored = WmaScaler::new(N_CORE, N_MEM, WmaParams::default());
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(wma_weights_bits(&warm), wma_weights_bits(&restored));
        prop_assert_eq!(warm.intervals(), restored.intervals());
        prop_assert_eq!(warm.empty_mask_fallbacks(), restored.empty_mask_fallbacks());
        prop_assert_eq!(warm.argmax(), restored.argmax());
        for &(uc, um) in &probes {
            prop_assert_eq!(warm.observe(uc, um), restored.observe(uc, um));
        }
    }

    /// EXP3: the snapshot carries the weights *and* the RNG stream
    /// position, so a restored copy — even one built from a different
    /// seed — replays the identical decision sequence.
    #[test]
    fn exp3_snapshot_round_trips_the_rng_position(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..12),
    ) {
        let all = |_: usize, _: usize| true;
        let mut warm = Exp3Policy::new(N_CORE, N_MEM, Exp3Params::default(), 42);
        for &(uc, um) in &drives {
            warm.decide(uc, um, &all);
        }
        let snap = parsed(|w| warm.snapshot(w));
        // Different construction seed: only the snapshot state may matter.
        let mut restored = Exp3Policy::new(N_CORE, N_MEM, Exp3Params::default(), 7);
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(warm.preferred(), restored.preferred());
        prop_assert_eq!(
            JsonWriter::render(|w| warm.snapshot(w)),
            JsonWriter::render(|w| restored.snapshot(w)),
            "state must serialize identically"
        );
        for &(uc, um) in &probes {
            prop_assert_eq!(warm.decide(uc, um, &all), restored.decide(uc, um, &all));
        }
    }

    /// UCB1: counts, means, and the step counter survive bit-for-bit.
    #[test]
    fn ucb_snapshot_round_trips_bit_exactly(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..12),
    ) {
        let all = |_: usize, _: usize| true;
        let mut warm = UcbPolicy::new(N_CORE, N_MEM, UcbParams::default());
        for &(uc, um) in &drives {
            warm.decide(uc, um, &all);
        }
        let snap = parsed(|w| warm.snapshot(w));
        let mut restored = UcbPolicy::new(N_CORE, N_MEM, UcbParams::default());
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(warm.preferred(), restored.preferred());
        prop_assert_eq!(
            JsonWriter::render(|w| warm.snapshot(w)),
            JsonWriter::render(|w| restored.snapshot(w))
        );
        for &(uc, um) in &probes {
            prop_assert_eq!(warm.decide(uc, um, &all), restored.decide(uc, um, &all));
        }
    }

    /// Tier-1 division: the ratio, hold state, and oscillation-guard
    /// rates survive, so a restored controller resumes the same walk.
    #[test]
    fn division_snapshot_round_trips_the_ratio(
        drives in proptest::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..30),
        probes in proptest::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..6),
    ) {
        let mut warm = DivisionController::new(0.2, DivisionParams::default());
        for &(tc, tg) in &drives {
            warm.update(tc, tg);
        }
        let snap = parsed(|w| warm.snapshot(w));
        let mut restored = DivisionController::new(0.2, DivisionParams::default());
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(warm.share().to_bits(), restored.share().to_bits());
        prop_assert_eq!(warm.holds(), restored.holds());
        prop_assert_eq!(warm.moves(), restored.moves());
        for &(tc, tg) in &probes {
            prop_assert_eq!(warm.update(tc, tg).to_bits(), restored.update(tc, tg).to_bits());
        }
    }

    /// Truncating a valid controller checkpoint at *any* interior byte
    /// makes it unrestorable — the strict parser refuses prefixes.
    #[test]
    fn truncated_checkpoints_are_always_rejected(cut_frac in 0.01f64..0.99) {
        let ctl = GreenGpuController::with_policy(
            GreenGpuConfig::scaling_only(),
            PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
        );
        let cp = checkpoint_text(&ctl);
        let cut = ((cp.len() as f64 * cut_frac) as usize).clamp(1, cp.len() - 1);
        let mut target = GreenGpuController::with_policy(
            GreenGpuConfig::scaling_only(),
            PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
        );
        prop_assert!(target.restore(&cp[..cut]).is_err(), "prefix of {cut} bytes must not parse");
    }
}

#[test]
fn controller_checkpoint_round_trips_and_restores_idempotently() {
    let mut ctl = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
    );
    let cp = checkpoint_text(&ctl);
    assert!(cp.contains(&format!("\"version\":{CHECKPOINT_VERSION}")));
    ctl.restore(&cp).expect("own checkpoint restores");
    assert_eq!(
        checkpoint_text(&ctl),
        cp,
        "restore(snapshot) must be the identity on the state"
    );
}

#[test]
fn version_and_policy_mismatches_are_named() {
    let mut ctl = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
    );
    let cp = checkpoint_text(&ctl);

    let future = cp.replace(
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        &format!("\"version\":{}", CHECKPOINT_VERSION + 1),
    );
    let err = ctl.restore(&future).expect_err("future version must be refused");
    assert!(err.contains("version"), "{err}");

    let mut exp3 = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::Exp3(Exp3Params::default())
            .build(N_CORE, N_MEM, 1, None)
            .expect("valid"),
    );
    let err = exp3.restore(&cp).expect_err("wrong policy family must be refused");
    assert!(err.contains("policy"), "{err}");
}

#[test]
fn garbage_checkpoints_never_mutate_the_target() {
    let mut ctl = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
    );
    let before = checkpoint_text(&ctl);
    for garbage in [
        "",
        "not json",
        "{}",
        "{\"version\":1}",
        "[1,2,3]",
        "{\"version\":1,\"policy\":\"wma\",\"state\":{\"weights\":[1,2]},\"division\":null}",
    ] {
        assert!(ctl.restore(garbage).is_err(), "{garbage:?} must be rejected");
        assert_eq!(
            checkpoint_text(&ctl),
            before,
            "failed restore must leave state untouched"
        );
    }
}

/// The Tier-2 policies whose checkpoint text is pinned, each built the
/// way a fleet node builds it on the default 6×6 card.
fn pinned_policy_specs() -> Vec<PolicySpec> {
    let spec = greengpu_hw::calib::geforce_8800_gtx();
    vec![
        PolicySpec::default(),
        PolicySpec::Exp3(Exp3Params::default()),
        PolicySpec::Ucb(UcbParams::default()),
        PolicySpec::Deadline(DeadlineParams {
            time_budget_s: pinned_pair_model().peak_time_s() * 1.5,
            ..DeadlineParams::default()
        }),
        PolicySpec::ContextualExp3 {
            inner: Exp3Params::default(),
            detector: PhaseDetectorParams::default(),
            levels: Some((spec.core_levels_mhz.clone(), spec.mem_levels_mhz.clone())),
        },
        PolicySpec::ContextualUcb {
            inner: UcbParams::default(),
            detector: PhaseDetectorParams::default(),
            levels: None,
        },
    ]
}

fn pinned_pair_model() -> PairModel {
    pair_model_for(
        &greengpu_workloads::kmeans::KMeans::small(1),
        &greengpu_hw::calib::geforce_8800_gtx(),
    )
}

/// A fixed observation sequence: two utilization phases, one lost poll,
/// and a cap mask that excludes the top pairs for a stretch.
fn drive_pinned(policy: &mut dyn FreqPolicy) {
    for k in 0..48u32 {
        let (uc, um) = if (k / 12) % 2 == 0 {
            (f64::from(k % 7) / 9.0 + 0.1, f64::from(k % 5) / 13.0)
        } else {
            (0.95 - f64::from(k % 3) / 17.0, 0.7 + f64::from(k % 4) / 23.0)
        };
        let uc = if k == 30 { f64::NAN } else { uc };
        if (20..28).contains(&k) {
            policy.decide(uc, um, &|i, j| i + j <= 6);
        } else {
            policy.decide(uc, um, &|_, _| true);
        }
    }
}

/// One pinned controller per (policy, division state) case: the
/// step-wise division with no rates observed yet, with both rates
/// observed, and the model-based division (serialized as `null`).
fn pinned_controllers() -> Vec<(String, GreenGpuController)> {
    let model = pinned_pair_model();
    let mut out = Vec::new();
    for spec in pinned_policy_specs() {
        for division in ["norates", "rates", "model"] {
            let mut policy = spec.build(N_CORE, N_MEM, 0x5EED, Some(&model)).expect("valid");
            drive_pinned(policy.as_mut());
            let ctl = match division {
                "norates" => GreenGpuController::with_policy(GreenGpuConfig::scaling_only(), policy),
                "rates" => controller_after(policy, &[(10.0, 2.0), (3.0, 7.5), (4.25, 4.0)]),
                _ => GreenGpuController::with_policy(
                    GreenGpuConfig {
                        division_algo: DivisionAlgo::ModelBased,
                        ..GreenGpuConfig::holistic()
                    },
                    policy,
                ),
            };
            out.push((format!("{}-{division}", spec.kind()), ctl));
        }
    }
    out
}

/// Wraps an already-driven policy in a controller whose step-wise
/// division has seen `iterations` (CPU, GPU) iteration times.
fn controller_after(policy: Box<dyn FreqPolicy>, iterations: &[(f64, f64)]) -> GreenGpuController {
    use greengpu_runtime::{Controller as _, IterationInfo};
    let mut ctl = GreenGpuController::with_policy(GreenGpuConfig::holistic(), policy);
    let mut platform = greengpu_hw::Platform::default_testbed();
    for (index, &(tc_s, tg_s)) in iterations.iter().enumerate() {
        let info = IterationInfo {
            index,
            cpu_share: ctl.division_share(),
            tc_s,
            tg_s,
        };
        ctl.on_iteration_end(&info, &mut platform, greengpu_sim::SimTime::from_secs(10));
    }
    ctl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy family after any observation sequence: the streamed
    /// checkpoint is exactly the text its parsed tree prints, and a fresh
    /// controller restored from it streams the same bytes again (every
    /// float bit-exact) and prefers the same pair.
    #[test]
    fn streamed_checkpoints_print_as_parsed_and_restore_exactly(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, any::<bool>()), 1..40),
        iterations in proptest::collection::vec((0.1f64..10.0, 0.1f64..10.0), 0..4),
    ) {
        let model = pinned_pair_model();
        for spec in pinned_policy_specs() {
            let build = || spec.build(N_CORE, N_MEM, 3, Some(&model)).expect("valid");
            let mut policy = build();
            for &(uc, um, capped) in &drives {
                if capped {
                    policy.decide(uc, um, &|i, j| i + j <= 5);
                } else {
                    policy.decide(uc, um, &|_, _| true);
                }
            }
            let warm = controller_after(policy, &iterations);
            let text = checkpoint_text(&warm);
            let tree = JsonValue::parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&tree.to_string(), &text, "{} streams what its tree prints", spec.kind());
            let mut restored = controller_after(build(), &[]);
            restored.restore(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&checkpoint_text(&restored), &text, "{} restores bit-exactly", spec.kind());
            prop_assert_eq!(warm.desired_pair(), restored.desired_pair());
        }
    }
}

/// Checkpoint text is a wire format: a warm restart reads what an earlier
/// build wrote. Freezes the exact bytes for every policy family and
/// division state (`tests/golden/checkpoints.txt`, one `name text` line
/// per case); regenerate with `UPDATE_GOLDEN=1` only when the format is
/// meant to change, together with a `CHECKPOINT_VERSION` bump.
#[test]
fn checkpoint_text_matches_the_pin() {
    let got: String = pinned_controllers()
        .iter()
        .map(|(name, ctl)| format!("{name} {}\n", checkpoint_text(ctl)))
        .collect();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/checkpoints.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "checkpoint text drifted from the pin");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "pinned case count");
}
