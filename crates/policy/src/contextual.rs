//! Phase-conditioned ("contextual") wrapper around any bandit policy.
//!
//! A context-free bandit on a phase-cycling workload (training's
//! forward/backward/optimizer rotation) is chasing a moving target: each
//! phase has a different sweet-spot pair, so the learner keeps getting
//! dragged between fixed points and converges, at best, to the
//! best-*static* pair. [`Contextual`] closes that gap the standard
//! contextual-bandit way: an online [`PhaseDetector`] maps the
//! utilization stream to a small discrete `PhaseId`, and one
//! independent inner policy per phase learns that phase's optimum. Each
//! inner sees only its own phase's intervals, so from its point of view
//! the environment is (near-)stationary again.
//!
//! Switching-penalty accounting is *shared*: the wrapper owns the
//! globally enforced pair, and a reclock is charged whenever the
//! enforced pair changes — including across a phase hand-off from one
//! inner to another. The inners still apply their own switching
//! machinery within their phase; the wrapper's [`DecisionTracker`] is
//! the experimenter's view of the whole trajectory (and is what the
//! training experiment's oracle-regret columns report).
//!
//! Like the inner bandits, the wrapper advances state on every valid
//! decision, so it keeps the trait's `None` decision fingerprint and is
//! never parked by the event-driven fleet engine.

use crate::bandit::{dist_norm, SwitchingParams};
use crate::loss::{LossModel, LossParams};
use crate::telemetry::{DecisionTracker, PolicyTelemetry};
use crate::{hold_masked, snap, FreqPolicy};
use greengpu_phase::{PhaseDetector, PhaseDetectorParams};
use greengpu_sim::{JsonValue, JsonWriter};

/// One inner policy per detected phase, with shared switching-penalty
/// accounting. `P` is typically [`Exp3Policy`] or [`UcbPolicy`];
/// `Clone` is required so `restore` can validate every layer before
/// mutating any.
///
/// [`Exp3Policy`]: crate::Exp3Policy
/// [`UcbPolicy`]: crate::UcbPolicy
#[derive(Debug, Clone)]
pub struct Contextual<P: FreqPolicy + Clone + 'static> {
    name: String,
    detector: PhaseDetector,
    /// One inner per potential `PhaseId`, pre-built so phase discovery
    /// never allocates mid-run (index = `PhaseId::index()`).
    inners: Vec<P>,
    switching: SwitchingParams,
    n_core: usize,
    n_mem: usize,
    /// Per-core-level capacity fractions (`level/peak`); empty when
    /// clock-invariant detection is off. See [`Contextual::with_level_caps`].
    core_caps: Vec<f64>,
    /// Per-mem-level capacity fractions, paired with `core_caps`.
    mem_caps: Vec<f64>,
    /// The globally enforced pair (shared across phase hand-offs).
    current: Option<(usize, usize)>,
    tracker: DecisionTracker,
}

/// Validates one level axis and reduces it to capacity fractions
/// (`level/peak`, peak = the last, highest level).
fn caps_from(levels: &[f64], n: usize, what: &str) -> Result<Vec<f64>, String> {
    if n == 0 || levels.len() != n {
        return Err(format!("{what} levels has {} entries, grid expects {n}", levels.len()));
    }
    if !levels.iter().all(|v| v.is_finite() && *v > 0.0) || levels.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what} levels must be positive, finite, and ascending"));
    }
    let peak = levels.last().copied().unwrap_or(1.0);
    Ok(levels.iter().map(|v| v / peak).collect())
}

impl<P: FreqPolicy + Clone + 'static> Contextual<P> {
    /// Builds the wrapper: `make_inner(k)` constructs the inner policy
    /// for potential phase `k` (callers derive per-phase seeds there).
    /// Every inner must share the wrapper's `n_core × n_mem` grid.
    pub fn new<F>(
        n_core: usize,
        n_mem: usize,
        detector_params: PhaseDetectorParams,
        switching: SwitchingParams,
        loss: LossParams,
        mut make_inner: F,
    ) -> Result<Self, String>
    where
        F: FnMut(usize) -> P,
    {
        switching.try_validate()?;
        loss.try_validate()?;
        let detector = PhaseDetector::new(detector_params)?;
        let inners: Vec<P> = (0..detector_params.max_phases).map(&mut make_inner).collect();
        for (k, inner) in inners.iter().enumerate() {
            if inner.shape() != (n_core, n_mem) {
                return Err(format!(
                    "inner {k} has shape {:?}, wrapper expects ({n_core}, {n_mem})",
                    inner.shape()
                ));
            }
        }
        let name = inners
            .first()
            .map_or_else(|| "ctx".to_string(), |p| format!("ctx-{}", p.name()));
        Ok(Contextual {
            name,
            detector,
            inners,
            switching,
            n_core,
            n_mem,
            core_caps: Vec::new(),
            mem_caps: Vec::new(),
            current: None,
            tracker: DecisionTracker::new(LossModel::new(n_core, n_mem, loss)),
        })
    }

    /// Enables clock-invariant phase detection (builder style).
    ///
    /// Utilization is *measured at the applied clocks* (`u = t_busy /
    /// t_wall`, both at the current pair), so every reclock moves the
    /// raw point even when the workload's phase is unchanged — a bandit
    /// rotating pairs during exploration scrambles the detector's input
    /// into spurious phases. Given the per-level clock values (any unit,
    /// ascending, one per grid level), the wrapper rescales each
    /// observation by the applied level's capacity fraction
    /// (`u·f/f_peak = t_busy_at_peak / t_wall`) and then reduces the
    /// pair to demand *shares* — dividing out `t_wall`, the one factor
    /// the rescale cannot cancel. The detector then sees the phase's
    /// compute/memory demand ratio, a pure function of the workload.
    /// The inners and the telemetry still receive the raw utilizations;
    /// the fractions are construction config and are excluded from
    /// snapshots like every other parameter.
    pub fn with_level_caps(mut self, core_levels: &[f64], mem_levels: &[f64]) -> Result<Self, String> {
        self.core_caps = caps_from(core_levels, self.n_core, "core")?;
        self.mem_caps = caps_from(mem_levels, self.n_mem, "mem")?;
        Ok(self)
    }

    /// The wrapped phase detector (inspection/tests).
    pub fn detector(&self) -> &PhaseDetector {
        &self.detector
    }

    /// The inner policy for potential phase `k` (inspection/tests).
    pub fn inner(&self, k: usize) -> Option<&P> {
        self.inners.get(k)
    }
}

impl<P: FreqPolicy + Clone + 'static> FreqPolicy for Contextual<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.n_core, self.n_mem)
    }

    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            // Hold-on-invalid: neither the detector nor any inner learns
            // from garbage, and no phase routing happens.
            self.tracker.note_invalid();
            return match hold_masked(self.current.unwrap_or((0, 0)), self.n_core, self.n_mem, feasible) {
                Some(pair) => pair,
                None => {
                    self.tracker.note_empty_mask();
                    (0, 0)
                }
            };
        }
        let any_feasible = (0..self.n_core).any(|i| (0..self.n_mem).any(|j| feasible(i, j)));
        if !any_feasible {
            // Degrade like the inners would, but before touching any
            // state: detector and inner positions only advance on
            // intervals that can actually be acted on.
            self.tracker.note_empty_mask();
            return (0, 0);
        }
        // With level caps on, hand the detector the peak-equivalent
        // demand shares instead of the raw (clock-dependent) point. The
        // pair that produced this observation is the one enforced *last*
        // interval; before any decision the platform sits at its floor
        // levels, matching `preferred()`'s default.
        let (mut dc, mut dm) = (u_core, u_mem);
        if !self.core_caps.is_empty() {
            let (i, j) = self.current.unwrap_or((0, 0));
            dc = u_core * self.core_caps[i];
            dm = u_mem * self.mem_caps[j];
            let total = dc + dm;
            if total > 1e-12 {
                dc /= total;
                dm /= total;
            }
        }
        let phase = self.detector.observe(dc, dm);
        // Route the interval to the live phase's learner only.
        let idx = phase.index().min(self.inners.len() - 1);
        let pair = self.inners[idx].decide(u_core, u_mem, feasible);
        // Shared switching accounting against the *global* trajectory: a
        // phase hand-off that lands on a different pair is a reclock
        // even if both inners are internally steady.
        let penalty = match self.current {
            Some(cur) if cur != pair => self.switching.switch_cost * dist_norm(pair, cur, self.n_core, self.n_mem),
            _ => 0.0,
        };
        self.tracker.record(u_core, u_mem, pair, penalty);
        self.current = Some(pair);
        pair
    }

    fn preferred(&self) -> (usize, usize) {
        self.current.unwrap_or((0, 0))
    }

    fn telemetry(&self) -> &PolicyTelemetry {
        self.tracker.telemetry()
    }

    fn reset(&mut self) {
        self.detector.reset();
        for inner in &mut self.inners {
            inner.reset();
        }
        self.current = None;
        self.tracker.reset();
    }

    fn snapshot(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            self.detector.snapshot(w.key("detector"));
            w.key("inners").arr(|w| {
                for p in &self.inners {
                    p.snapshot(w);
                }
            });
            snap::pair(w.key("current"), self.current);
        });
    }

    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        // Validate every layer against clones before mutating anything:
        // a failed restore leaves the whole wrapper untouched.
        let inner_states = snap::field(state, "inners")?
            .as_arr()
            .ok_or_else(|| "inners must be an array".to_string())?;
        if inner_states.len() != self.inners.len() {
            return Err(format!(
                "inners has {} entries, expected {}",
                inner_states.len(),
                self.inners.len()
            ));
        }
        let mut detector = self.detector.clone();
        detector
            .restore(snap::field(state, "detector")?)
            .map_err(|e| format!("detector: {e}"))?;
        let mut inners = self.inners.clone();
        for (k, (inner, s)) in inners.iter_mut().zip(inner_states).enumerate() {
            inner.restore(s).map_err(|e| format!("inner {k}: {e}"))?;
        }
        let current = snap::parse_pair(snap::field(state, "current")?, "current", self.n_core, self.n_mem)?;
        self.detector = detector;
        self.inners = inners;
        self.current = current;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{Exp3Params, Exp3Policy, UcbParams, UcbPolicy};
    use greengpu_sim::SplitMix64;

    const ALL: fn(usize, usize) -> bool = |_, _| true;

    fn ctx_exp3(seed: u64) -> Contextual<Exp3Policy> {
        let mut root = SplitMix64::new(seed);
        let seeds: Vec<u64> = (0..PhaseDetectorParams::default().max_phases)
            .map(|_| root.next_u64())
            .collect();
        Contextual::new(
            6,
            6,
            PhaseDetectorParams::default(),
            SwitchingParams::default(),
            LossParams::default(),
            |k| Exp3Policy::new(6, 6, Exp3Params::default(), seeds[k]),
        )
        .expect("valid contextual params")
    }

    fn ctx_ucb() -> Contextual<UcbPolicy> {
        Contextual::new(
            6,
            6,
            PhaseDetectorParams::default(),
            SwitchingParams::default(),
            LossParams::default(),
            |_| UcbPolicy::new(6, 6, UcbParams::default()),
        )
        .expect("valid contextual params")
    }

    /// A policy's snapshot as streamed text.
    fn text(p: &dyn FreqPolicy) -> String {
        JsonWriter::render(|w| p.snapshot(w))
    }

    /// A two-phase utilization square wave: `reps` intervals per phase.
    fn square_wave(k: usize, reps: usize) -> (f64, f64) {
        if (k / reps).is_multiple_of(2) {
            (0.85, 0.25)
        } else {
            (0.2, 0.8)
        }
    }

    #[test]
    fn names_derive_from_the_inner() {
        assert_eq!(ctx_exp3(1).name(), "ctx-exp3");
        assert_eq!(ctx_ucb().name(), "ctx-ucb");
    }

    #[test]
    fn is_deterministic_under_a_seed() {
        let mut a = ctx_exp3(7);
        let mut b = ctx_exp3(7);
        for k in 0..300 {
            let (uc, um) = square_wave(k, 10);
            assert_eq!(a.decide(uc, um, &ALL), b.decide(uc, um, &ALL));
        }
        assert_eq!(text(&a), text(&b));
    }

    #[test]
    fn phases_route_to_distinct_inners() {
        let mut p = ctx_ucb();
        for k in 0..120 {
            let (uc, um) = square_wave(k, 12);
            p.decide(uc, um, &ALL);
        }
        assert!(
            p.detector().n_phases() >= 2,
            "detector found {}",
            p.detector().n_phases()
        );
        let pulls = |k: usize| -> u64 {
            (0..6)
                .flat_map(|i| (0..6).map(move |j| (i, j)))
                .map(|(i, j)| p.inner(k).map_or(0, |q| q.count(i, j)))
                .sum()
        };
        assert!(pulls(0) > 0 && pulls(1) > 0, "both inners must see intervals");
        assert!(pulls(2) == 0, "undiscovered phases must stay untouched");
    }

    #[test]
    fn contextual_beats_context_free_on_phase_cycling_input() {
        // The design claim, at policy level: with *identical* inner
        // parameters the phase-conditioned UCB must end with strictly
        // lower oracle-regret than the context-free one. Selection is
        // left unshaped by switching costs (`nosw`) on both sides so
        // each learner converges to the argmin of the means it
        // observes — the context-free learner can only reach the best
        // arm of the *mixed* stream, while the per-phase inners reach
        // each phase's sweet spot. The wrapper's penalty accounting
        // is likewise disabled so both sides charge identically; the
        // horizon amortizes the doubled cold start (each discovered
        // phase's inner runs its own 36-arm forced exploration)
        // before the per-interval advantage pays it back.
        let params = UcbParams {
            switching: SwitchingParams::none(),
            ..UcbParams::default()
        };
        let mut ctx = Contextual::new(
            6,
            6,
            PhaseDetectorParams::default(),
            SwitchingParams::none(),
            LossParams::default(),
            |_| UcbPolicy::new(6, 6, params),
        )
        .expect("valid contextual params");
        let mut flat = UcbPolicy::new(6, 6, params);
        for k in 0..1500 {
            let (uc, um) = square_wave(k, 20);
            ctx.decide(uc, um, &ALL);
            flat.decide(uc, um, &ALL);
        }
        let (r_ctx, r_flat) = (ctx.telemetry().oracle_regret, flat.telemetry().oracle_regret);
        assert!(r_ctx < r_flat, "contextual {r_ctx} vs context-free {r_flat}");
    }

    #[test]
    fn level_caps_make_detection_clock_invariant() {
        // Roofline toy: a fixed demand `(tc, tm)` at pair `(i, j)` runs
        // for `wall = max(tc/cap_c, tm/cap_m)` and measures
        // `u = busy/wall` — the raw point moves with every reclock the
        // bandit makes while exploring. With level caps the wrapper
        // reduces each observation to demand shares, so the detector
        // must see exactly the two true phases and flip only when the
        // workload does.
        let levels_c = [296.0, 352.0, 408.0, 464.0, 520.0, 576.0];
        let levels_m = [500.0, 580.0, 660.0, 740.0, 820.0, 900.0];
        let caps_c: Vec<f64> = levels_c.iter().map(|v| v / 576.0).collect();
        let caps_m: Vec<f64> = levels_m.iter().map(|v| v / 900.0).collect();
        let params = UcbParams {
            switching: SwitchingParams::none(),
            ..UcbParams::default()
        };
        let mut p = Contextual::new(
            6,
            6,
            PhaseDetectorParams::default(),
            SwitchingParams::none(),
            LossParams::default(),
            |_| UcbPolicy::new(6, 6, params),
        )
        .expect("valid contextual params")
        .with_level_caps(&levels_c, &levels_m)
        .expect("valid level tables");
        let mut pair = (0, 0);
        let reps = 25;
        let total = 400;
        for k in 0..total {
            let (tc, tm) = if (k / reps) % 2 == 0 { (0.8, 0.3) } else { (0.2, 0.7) };
            let (bc, bm) = (tc / caps_c[pair.0], tm / caps_m[pair.1]);
            let wall = bc.max(bm);
            pair = p.decide(bc / wall, bm / wall, &ALL);
        }
        assert_eq!(p.detector().n_phases(), 2, "clock churn must not mint phases");
        let flips = (total / reps) as u64;
        assert!(
            p.detector().changes() <= flips,
            "{} phase changes for {flips} true flips",
            p.detector().changes()
        );
    }

    #[test]
    fn level_caps_reject_bad_tables() {
        let good = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let err = ctx_ucb().with_level_caps(&[1.0, 2.0], &good).unwrap_err();
        assert!(err.contains("core levels"), "{err}");
        let descending = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let err = ctx_ucb().with_level_caps(&good, &descending).unwrap_err();
        assert!(err.contains("mem levels"), "{err}");
        let err = ctx_ucb()
            .with_level_caps(&good, &[1.0, 2.0, 0.0, 4.0, 5.0, 6.0])
            .unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn respects_the_mask_and_degrades_on_empty() {
        let mut p = ctx_exp3(5);
        for k in 0..60 {
            let (uc, um) = square_wave(k, 10);
            let (i, j) = p.decide(uc, um, &|i, j| i + j <= 4);
            assert!(i + j <= 4, "escaped mask: ({i},{j})");
        }
        let ticks = p.detector().ticks();
        assert_eq!(p.decide(0.5, 0.5, &|_, _| false), (0, 0));
        assert_eq!(p.telemetry().empty_mask_fallbacks, 1);
        assert_eq!(p.detector().ticks(), ticks, "empty mask must not advance the detector");
    }

    #[test]
    fn rejects_nan_without_touching_detector_or_inners() {
        let mut a = ctx_exp3(9);
        let mut b = ctx_exp3(9);
        for k in 0..40 {
            let (uc, um) = square_wave(k, 10);
            a.decide(uc, um, &ALL);
            b.decide(uc, um, &ALL);
            if k % 5 == 0 {
                let held = b.decide(f64::NAN, 0.5, &ALL);
                assert_eq!(held, b.preferred());
            }
        }
        assert_eq!(text(&a), text(&b));
        assert_eq!(b.telemetry().invalid_inputs, 8);
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        let mut a = ctx_exp3(11);
        for k in 0..90 {
            let (uc, um) = square_wave(k, 9);
            a.decide(uc, um, &ALL);
        }
        let snap_a = text(&a);
        let mut b = ctx_exp3(11);
        b.restore(&JsonValue::parse(&snap_a).expect("streamed snapshot parses"))
            .expect("restore own snapshot");
        assert_eq!(snap_a, text(&b));
        for k in 90..240 {
            let (uc, um) = square_wave(k, 9);
            assert_eq!(a.decide(uc, um, &ALL), b.decide(uc, um, &ALL), "interval {k}");
        }
        assert_eq!(text(&a), text(&b));
    }

    #[test]
    fn failed_restore_leaves_state_untouched() {
        let mut p = ctx_ucb();
        for k in 0..50 {
            let (uc, um) = square_wave(k, 10);
            p.decide(uc, um, &ALL);
        }
        let before = text(&p);
        // Tamper with one inner's counts so its own restore fails, after
        // the detector already validated — nothing may change.
        let mut bad = JsonValue::parse(&before).expect("streamed snapshot parses");
        if let JsonValue::Obj(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "inners" {
                    if let JsonValue::Arr(arr) = v {
                        if let JsonValue::Obj(inner) = &mut arr[1] {
                            for (ik, iv) in inner.iter_mut() {
                                if ik == "t" {
                                    *iv = JsonValue::u64(9999);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = p.restore(&bad).unwrap_err();
        assert!(err.contains("inner 1"), "{err}");
        assert_eq!(text(&p), before);
    }

    #[test]
    fn no_decision_fingerprint() {
        let mut p = ctx_exp3(1);
        assert_eq!(p.decision_fingerprint(), None);
        p.decide(0.5, 0.5, &ALL);
        assert_eq!(p.decision_fingerprint(), None);
    }

    #[test]
    fn mismatched_inner_shape_is_rejected() {
        let err = Contextual::new(
            6,
            6,
            PhaseDetectorParams::default(),
            SwitchingParams::default(),
            LossParams::default(),
            |_| UcbPolicy::new(4, 6, UcbParams::default()),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }
}
