//! Property tests for the phase detector: classification is a pure
//! function of the observation sequence, step changes on synthetic
//! traces are caught within a bounded lag with no false positives, and
//! snapshot round trips are bit-exact at any split point.

use greengpu_phase::{PhaseDetector, PhaseDetectorParams, PhaseTracker};
use greengpu_sim::{JsonValue, JsonWriter};
use proptest::prelude::*;

/// Well-separated utilization signatures (pairwise L1 ≥ 0.75, far above
/// the default 0.2 threshold even under the jitter below).
const PALETTE: [(f64, f64); 4] = [(0.85, 0.2), (0.2, 0.85), (0.1, 0.1), (0.9, 0.9)];

/// A cyclic step trace over the first `n_sigs` palette signatures:
/// `reps` ticks per segment, `cycles` full rotations, each tick tagged
/// with whether it opens a new true phase. `amp` is a deterministic
/// alternating jitter, kept sub-threshold by the generator bounds.
fn step_trace(n_sigs: usize, reps: usize, cycles: usize, amp: f64) -> Vec<(f64, f64, bool)> {
    let mut out: Vec<(f64, f64, bool)> = Vec::new();
    for c in 0..cycles {
        for (s, &(uc, um)) in PALETTE[..n_sigs].iter().enumerate() {
            for k in 0..reps {
                let j = if out.len().is_multiple_of(2) { amp } else { -amp };
                let boundary = k == 0 && !(c == 0 && s == 0);
                out.push(((uc + j).clamp(0.0, 1.0), (um + j).clamp(0.0, 1.0), boundary));
            }
        }
    }
    out
}

/// A detector's snapshot as streamed text.
fn text(d: &PhaseDetector) -> String {
    JsonWriter::render(|w| d.snapshot(w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No hidden state, no RNG: two detectors fed the same observation
    /// sequence — garbage included — emit the same id sequence and end
    /// byte-identical.
    #[test]
    fn detection_is_a_pure_function_of_the_observations(
        obs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, any::<bool>()), 1..80),
    ) {
        let mut a = PhaseDetector::new(PhaseDetectorParams::default()).expect("valid default params");
        let mut b = a.clone();
        for &(uc, um, poison) in &obs {
            let uc = if poison { f64::NAN } else { uc };
            prop_assert_eq!(a.observe(uc, um), b.observe(uc, um));
        }
        prop_assert_eq!(a.changes(), b.changes());
        prop_assert_eq!(a.invalid_held(), b.invalid_held());
        prop_assert_eq!(text(&a), text(&b));
    }

    /// On a clean step trace every announced change is detected within
    /// `window + min_dwell + 1` ticks on average, nothing is missed, no
    /// detection fires without a true change behind it, and the library
    /// holds exactly the distinct signatures.
    #[test]
    fn step_changes_are_caught_with_bounded_lag_and_no_false_positives(
        n_sigs in 2usize..5,
        reps in 8usize..17,
        cycles in 1usize..4,
        amp in 0.0f64..0.04,
    ) {
        let params = PhaseDetectorParams::default();
        let mut t = PhaseTracker::new(PhaseDetector::new(params).expect("valid default params"));
        for &(uc, um, boundary) in &step_trace(n_sigs, reps, cycles, amp) {
            if boundary {
                t.note_true_change();
            }
            t.observe(uc, um);
        }
        prop_assert_eq!(t.false_positives(), 0);
        prop_assert_eq!(t.missed(), 0, "true changes left undetected");
        prop_assert_eq!(t.detector().n_phases(), n_sigs, "library must match the signature count");
        let bound = (params.window + params.min_dwell + 1) as f64;
        prop_assert!(
            t.mean_lag_ticks() <= bound,
            "mean lag {} above the {bound}-tick bound", t.mean_lag_ticks()
        );
    }

    /// A detector restored from a snapshot replays the donor's future
    /// observation-for-observation, and the snapshots stay byte-equal.
    #[test]
    fn snapshot_round_trip_preserves_future_behavior(
        split in 1usize..60,
        obs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 60..120),
    ) {
        let mut a = PhaseDetector::new(PhaseDetectorParams::default()).expect("valid default params");
        for &(uc, um) in &obs[..split] {
            a.observe(uc, um);
        }
        let snap = text(&a);
        let mut b = PhaseDetector::new(PhaseDetectorParams::default()).expect("valid default params");
        b.restore(&JsonValue::parse(&snap).expect("streamed snapshot parses")).expect("restore own snapshot");
        prop_assert_eq!(snap, text(&b));
        for &(uc, um) in &obs[split..] {
            prop_assert_eq!(a.observe(uc, um), b.observe(uc, um));
        }
        prop_assert_eq!(text(&a), text(&b));
    }
}
