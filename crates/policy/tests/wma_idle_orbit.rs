//! The WMA scaler's idle orbit is an optimization only.
//!
//! A scaler that observes exactly-`(+0.0, +0.0)` utilization from the
//! uniform table follows a precomputed orbit of weight tables instead of
//! computing Eq. 4. Random observation streams mix exact idles with
//! `-0.0`, NaN, infinities, subnormals, clamped and busy observations,
//! `reset`s, idle fast-forwards, snapshots and restores of them, and
//! drive the scaler next to an in-test copy of the Eq. 4 loop. After
//! every step the weights, the argmax, the masked argmax, the interval
//! count and the snapshot text agree bit for bit, and the decision
//! fingerprint changes on exactly the steps the reference's weights
//! change. A restored snapshot taken on the orbit resumes on it (its
//! idle decision can settle again); one taken off it stays off, and
//! settles there only once its lowest pair weighs 1.0. Off the orbit, a
//! table led by the lowest pair keeps it through every idle step, and an
//! idle fast-forward equals its steps taken one by one. On any grid and
//! any parameters, every table of the idle orbit and every idle step past
//! a cut keeps the lowest pair at weight 1.0, so the learner is settled
//! there, and a closed orbit counts its rows down to its fixed point.

use greengpu_policy::{FreqPolicy, IdleSettle, LossModel, WmaParams, WmaScaler};
use greengpu_sim::{JsonValue, JsonWriter};
use proptest::prelude::*;

/// Eq. 4 over the full table, renormalized by the max: the update the
/// scaler computed on every observation before the orbit existed.
struct Reference {
    model: LossModel,
    params: WmaParams,
    weights: Vec<f64>,
    intervals: u64,
    empty_mask_fallbacks: u64,
}

impl Reference {
    fn new(n_core: usize, n_mem: usize, params: WmaParams) -> Self {
        let loss = greengpu_policy::LossParams {
            alpha_core: params.alpha_core,
            alpha_mem: params.alpha_mem,
            phi: params.phi,
        };
        Reference {
            model: LossModel::new(n_core, n_mem, loss),
            params,
            weights: vec![1.0; n_core * n_mem],
            intervals: 0,
            empty_mask_fallbacks: 0,
        }
    }

    fn learn(&mut self, u_core: f64, u_mem: f64) {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            return;
        }
        let u_core = u_core.clamp(0.0, 1.0);
        let u_mem = u_mem.clamp(0.0, 1.0);
        let one_minus_beta = 1.0 - self.params.beta;
        let (n_core, n_mem) = self.model.shape();
        let mut max_w = 0.0f64;
        for i in 0..n_core {
            for j in 0..n_mem {
                let loss = self.model.core_term(i, u_core) + self.model.mem_term(j, u_mem);
                let w = &mut self.weights[i * n_mem + j];
                *w = w.powf(self.params.history) * (1.0 - one_minus_beta * loss);
                max_w = max_w.max(*w);
            }
        }
        if max_w > 0.0 {
            for w in &mut self.weights {
                *w /= max_w;
            }
        }
        self.intervals += 1;
    }

    fn argmax_masked(&self, feasible: impl Fn(usize, usize) -> bool) -> Option<(usize, usize)> {
        let (n_core, n_mem) = self.model.shape();
        let mut best = None;
        let mut best_w = f64::NEG_INFINITY;
        for i in 0..n_core {
            for j in 0..n_mem {
                let w = self.weights[i * n_mem + j];
                if feasible(i, j) && w > best_w {
                    best_w = w;
                    best = Some((i, j));
                }
            }
        }
        best
    }

    fn observe_masked(&mut self, u_core: f64, u_mem: f64, feasible: impl Fn(usize, usize) -> bool) -> (usize, usize) {
        self.learn(u_core, u_mem);
        let best = self.argmax_masked(feasible);
        if best.is_none() {
            self.empty_mask_fallbacks += 1;
        }
        best.unwrap_or((0, 0))
    }

    fn reset(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.intervals = 0;
        self.empty_mask_fallbacks = 0;
    }

    fn snapshot(&self) -> String {
        JsonWriter::render(|w| {
            w.obj(|w| {
                w.key("weights").f64s(&self.weights);
                w.key("intervals").u64(self.intervals);
                w.key("empty_mask_fallbacks").u64(self.empty_mask_fallbacks);
            });
        })
    }
}

/// A feasible set: everything, nothing, or a salted stripe pattern.
#[derive(Debug, Clone, Copy)]
enum Mask {
    All,
    Empty,
    Stripe(usize),
}

impl Mask {
    fn admits(self, i: usize, j: usize) -> bool {
        match self {
            Mask::All => true,
            Mask::Empty => false,
            Mask::Stripe(salt) => !(i * 31 + j * 17 + salt).is_multiple_of(5),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// One observation through `observe_masked` (or `decide`).
    Observe {
        u: (f64, f64),
        mask: Mask,
        decide: bool,
    },
    /// `n` exact `(+0.0, +0.0)` observations, unmasked.
    Idle(usize),
    /// The same `n` observations as one `fast_forward_idle(n)`.
    FastForward(usize),
    Reset,
    /// Keeps the current `snapshot` (and the reference's state).
    Save,
    /// `restore`s the last saved snapshot, parsed from its text: a round
    /// trip right after `Save`, a step back in time later.
    Restore,
}

/// Utilizations that land on every branch: exact `+0.0` (the orbit),
/// values that clamp to it, `-0.0`, subnormals, non-finite, in range.
fn utilization() -> impl Strategy<Value = f64> {
    (0usize..16, 0.0f64..1.0).prop_map(|(k, u)| match k {
        0..=5 => 0.0,
        6 => -0.0,
        7 => -0.25,
        8 => f64::NAN,
        9 => f64::INFINITY,
        10 => f64::from_bits(1),
        11 => f64::MIN_POSITIVE / 4.0,
        12 => 1.5,
        _ => u,
    })
}

fn mask() -> impl Strategy<Value = Mask> {
    (0usize..7).prop_map(|k| match k {
        0..=3 => Mask::All,
        4 => Mask::Empty,
        _ => Mask::Stripe(k),
    })
}

fn op() -> impl Strategy<Value = Op> {
    (
        0usize..17,
        utilization(),
        utilization(),
        mask(),
        any::<bool>(),
        1usize..180,
    )
        .prop_map(|(k, uc, um, mask, decide, n)| match k {
            0..=7 => Op::Observe {
                u: (uc, um),
                mask,
                decide,
            },
            8..=11 => Op::Idle(n),
            12 => Op::Reset,
            13 => Op::Save,
            14 => Op::Restore,
            _ => Op::FastForward(n),
        })
}

/// The grid and parameters: the default orbit (155 rows), a short one
/// (λ = 0.5) an idle stream runs off the end of, and a λ = 1.0 one that
/// is cut off at its row cap.
fn setup() -> impl Strategy<Value = ((usize, usize), WmaParams)> {
    (0usize..2, 0usize..3).prop_map(|(grid, k)| {
        let history = [0.8, 0.5, 1.0][k];
        (
            [(6, 6), (3, 5)][grid],
            WmaParams {
                history,
                ..WmaParams::default()
            },
        )
    })
}

/// Compares every observable after one step; `moved` is whether the
/// reference's weights changed in it.
fn agree(s: &WmaScaler, r: &Reference, fp_before: Option<u64>, moved: bool) -> Result<(), TestCaseError> {
    let (n_core, n_mem) = r.model.shape();
    for i in 0..n_core {
        for j in 0..n_mem {
            prop_assert_eq!(
                s.weight(i, j).to_bits(),
                r.weights[i * n_mem + j].to_bits(),
                "weight ({}, {})",
                i,
                j
            );
        }
    }
    prop_assert_eq!(s.argmax(), r.argmax_masked(|_, _| true).unwrap_or((0, 0)));
    for mask in [Mask::Stripe(0), Mask::Stripe(3)] {
        prop_assert_eq!(
            s.argmax_masked(|i, j| mask.admits(i, j)),
            r.argmax_masked(|i, j| mask.admits(i, j))
        );
    }
    prop_assert_eq!(s.intervals(), r.intervals);
    prop_assert_eq!(s.empty_mask_fallbacks(), r.empty_mask_fallbacks);
    prop_assert_eq!(JsonWriter::render(|w| s.snapshot(w)), r.snapshot());
    prop_assert_eq!(
        fp_before != s.decision_fingerprint(),
        moved,
        "the fingerprint changes exactly when the weights do"
    );
    Ok(())
}

fn weight_bits(r: &Reference) -> Vec<u64> {
    r.weights.iter().map(|w| w.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    fn the_idle_orbit_matches_the_computed_update(
        ((n_core, n_mem), params) in setup(),
        ops in proptest::collection::vec(op(), 1..24),
    ) {
        let mut s = WmaScaler::new(n_core, n_mem, params);
        let mut r = Reference::new(n_core, n_mem, params);
        let mut saved = None;
        for op in ops {
            match op {
                Op::Observe { u: (uc, um), mask, decide } => {
                    let (fp, before) = (s.decision_fingerprint(), weight_bits(&r));
                    let got = if decide {
                        s.decide(uc, um, &|i, j| mask.admits(i, j))
                    } else {
                        s.observe_masked(uc, um, |i, j| mask.admits(i, j))
                    };
                    prop_assert_eq!(got, r.observe_masked(uc, um, |i, j| mask.admits(i, j)));
                    agree(&s, &r, fp, before != weight_bits(&r))?;
                }
                Op::Idle(n) => {
                    for _ in 0..n {
                        let (fp, before) = (s.decision_fingerprint(), weight_bits(&r));
                        prop_assert_eq!(s.observe(0.0, 0.0), r.observe_masked(0.0, 0.0, |_, _| true));
                        agree(&s, &r, fp, before != weight_bits(&r))?;
                    }
                }
                Op::FastForward(n) => {
                    let (fp, before) = (s.decision_fingerprint(), weight_bits(&r));
                    s.fast_forward_idle(n as u64);
                    for _ in 0..n {
                        r.observe_masked(0.0, 0.0, |_, _| true);
                    }
                    agree(&s, &r, fp, before != weight_bits(&r))?;
                }
                Op::Reset => {
                    let (fp, before) = (s.decision_fingerprint(), weight_bits(&r));
                    s.reset();
                    r.reset();
                    agree(&s, &r, fp, before != weight_bits(&r))?;
                }
                Op::Save => {
                    let text = JsonWriter::render(|w| s.snapshot(w));
                    saved = Some((text, r.weights.clone(), r.intervals, r.empty_mask_fallbacks));
                }
                Op::Restore => {
                    let Some((text, weights, intervals, fallbacks)) = &saved else {
                        continue;
                    };
                    let (fp, before) = (s.decision_fingerprint(), weight_bits(&r));
                    let state = JsonValue::parse(text).expect("a snapshot parses");
                    s.restore(&state).expect("a scaler restores its own snapshot");
                    r.weights.clone_from(weights);
                    (r.intervals, r.empty_mask_fallbacks) = (*intervals, *fallbacks);
                    agree(&s, &r, fp, before != weight_bits(&r))?;
                }
            }
        }
    }
}

/// Restores `text` into a fresh scaler.
fn restored(params: WmaParams, text: &str) -> WmaScaler {
    let mut s = WmaScaler::new(6, 6, params);
    s.restore(&JsonValue::parse(text).expect("a snapshot parses"))
        .expect("a scaler restores its own snapshot");
    s
}

#[test]
fn a_snapshot_taken_on_the_idle_orbit_resumes_on_it() {
    let p = WmaParams::default();
    for idle in [1u64, 2, 40, 154, 300] {
        let mut s = WmaScaler::new(6, 6, p);
        s.fast_forward_idle(idle);
        let text = JsonWriter::render(|w| s.snapshot(w));
        let mut back = restored(p, &text);
        assert_eq!(back.idle_settled(), s.idle_settled(), "after {idle} idle steps");
        assert!(back.idle_settled().is_some(), "the restored learner can settle again");
        assert_eq!(back.decision_fingerprint(), s.decision_fingerprint());
        // And keeps matching the computed update from there.
        let mut r = Reference::new(6, 6, p);
        for _ in 0..idle {
            r.learn(0.0, 0.0);
        }
        back.fast_forward_idle(200);
        for _ in 0..200 {
            r.learn(0.0, 0.0);
        }
        assert_eq!(JsonWriter::render(|w| back.snapshot(w)), r.snapshot());
    }
}

/// The settle a WMA table reports off the idle orbit once its lowest
/// pair holds weight 1.0: that pair, with no count to a park.
const OFF_ORBIT: IdleSettle = IdleSettle {
    pair: (0, 0),
    parks_after: None,
};

#[test]
fn a_snapshot_taken_off_the_idle_orbit_stays_off_it() {
    let p = WmaParams::default();
    // Busy first: the idle steps after it compute. A restored copy is off
    // the orbit too: it settles only once its lowest pair weighs 1.0, and
    // then with the off-orbit count, never on an orbit row's.
    let mut busy = WmaScaler::new(6, 6, p);
    busy.observe(0.6, 0.1);
    let text = JsonWriter::render(|w| busy.snapshot(w));
    assert!(busy.weight(0, 0) < 1.0);
    assert_eq!(restored(p, &text).idle_settled(), None, "the busy pair still leads");
    busy.fast_forward_idle(30);
    assert_eq!(busy.idle_settled(), Some(OFF_ORBIT));
    let text = JsonWriter::render(|w| busy.snapshot(w));
    assert_eq!(restored(p, &text).idle_settled(), Some(OFF_ORBIT));
    // On-orbit weights under an interval count that names another row.
    let mut idle = WmaScaler::new(6, 6, p);
    idle.fast_forward_idle(30);
    // Row 30 of the default orbit's 155: 124 rows left to its fixed point.
    let on_orbit = idle.idle_settled().expect("on the orbit");
    assert_eq!(on_orbit.parks_after, Some(124), "{on_orbit:?}");
    let text = JsonWriter::render(|w| idle.snapshot(w)).replace("\"intervals\":30", "\"intervals\":31");
    assert!(text.contains("\"intervals\":31"), "{text}");
    let mut off = restored(p, &text);
    assert_eq!(
        off.idle_settled(),
        Some(OFF_ORBIT),
        "row 30's weights are not row 31: settled off the orbit"
    );
    assert_eq!(off.decision_fingerprint(), idle.decision_fingerprint());
    // Both still learn the computed update exactly.
    let mut r = Reference::new(6, 6, p);
    for _ in 0..30 {
        r.learn(0.0, 0.0);
    }
    r.intervals = 31;
    off.fast_forward_idle(5);
    for _ in 0..5 {
        r.learn(0.0, 0.0);
    }
    assert_eq!(JsonWriter::render(|w| off.snapshot(w)), r.snapshot());
    assert_eq!(off.idle_settled(), Some(OFF_ORBIT));
}

/// A snapshot of `weights` after `intervals` intervals, as `snapshot`
/// writes one.
fn snapshot_text(weights: &[f64], intervals: u64) -> String {
    JsonWriter::render(|w| {
        w.obj(|w| {
            w.key("weights").f64s(weights);
            w.key("intervals").u64(intervals);
            w.key("empty_mask_fallbacks").u64(0);
        });
    })
}

/// A weight in `[0, 1]`: exactly 1.0 (a tie with the lowest pair) one
/// time in four.
fn weight() -> impl Strategy<Value = f64> {
    (0usize..4, 0.0f64..1.0).prop_map(|(k, w)| if k == 0 { 1.0 } else { w })
}

/// A learner off the idle orbit: random weights restored under a random
/// interval count, or a random busy stream followed by idle steps.
fn off_orbit() -> impl Strategy<Value = (WmaParams, Vec<f64>, u64, Vec<(f64, f64)>, usize)> {
    (
        (0usize..3).prop_map(|k| WmaParams {
            history: [0.8, 0.5, 1.0][k],
            ..WmaParams::default()
        }),
        proptest::collection::vec(weight(), 36..37),
        0u64..400,
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..6),
        0usize..200,
    )
}

/// Builds the learner `off_orbit` describes: the restored table when the
/// busy stream is empty, else a fresh learner through the stream and
/// `idle` idle steps.
fn build_off_orbit(params: WmaParams, weights: &[f64], intervals: u64, busy: &[(f64, f64)], idle: usize) -> WmaScaler {
    if busy.is_empty() {
        return restored(params, &snapshot_text(weights, intervals));
    }
    let mut s = WmaScaler::new(6, 6, params);
    for &(uc, um) in busy {
        s.observe(uc, um);
    }
    for _ in 0..idle {
        s.observe(0.0, 0.0);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Off the orbit, a table whose lowest pair weighs exactly 1.0 keeps
    /// that pair as the first maximum through every later idle step,
    /// under every mask that admits it, and keeps reporting the off-orbit
    /// settle; a table whose lowest pair weighs less reports none.
    fn an_off_orbit_table_led_by_the_lowest_pair_keeps_it_under_every_idle_step(
        (params, mut weights, intervals, busy, idle) in off_orbit(),
        masks in proptest::collection::vec(mask(), 1..300),
    ) {
        weights[0] = 1.0;
        let mut s = build_off_orbit(params, &weights, intervals, &busy, idle);
        let lead = s.weight(0, 0).to_bits() == 1.0f64.to_bits();
        prop_assert_eq!(s.idle_settled(), lead.then_some(OFF_ORBIT));
        prop_assume!(lead);
        for (k, mask) in masks.into_iter().enumerate() {
            let admits = |i: usize, j: usize| (i, j) == (0, 0) || mask.admits(i, j);
            let pair = if k % 2 == 0 {
                s.decide(0.0, 0.0, &admits)
            } else {
                s.observe_masked(0.0, 0.0, admits)
            };
            prop_assert_eq!(pair, (0, 0), "idle step {}", k);
            prop_assert_eq!(s.weight(0, 0).to_bits(), 1.0f64.to_bits(), "idle step {}", k);
            prop_assert_eq!(s.idle_settled(), Some(OFF_ORBIT), "idle step {}", k);
            for other in [Mask::Stripe(0), Mask::Stripe(3)] {
                let admits = |i: usize, j: usize| (i, j) == (0, 0) || other.admits(i, j);
                prop_assert_eq!(s.argmax_masked(admits), Some((0, 0)));
            }
        }
    }

    /// `fast_forward_idle(k)` leaves what `k` idle observations leave, bit
    /// for bit, from on the orbit and off it, whether or not the computed
    /// steps reach a fixed point before the `k`-th.
    fn a_fast_forward_equals_that_many_idle_observations(
        (params, weights, intervals, busy, idle) in off_orbit(),
        on_orbit in any::<bool>(),
        k in 0u64..600,
    ) {
        let start = |_: ()| if on_orbit {
            let mut s = WmaScaler::new(6, 6, params);
            s.fast_forward_idle(idle as u64);
            s
        } else {
            build_off_orbit(params, &weights, intervals, &busy, idle)
        };
        let (mut jumped, mut stepped) = (start(()), start(()));
        jumped.fast_forward_idle(k);
        for _ in 0..k {
            stepped.observe(0.0, 0.0);
        }
        for i in 0..6 {
            for j in 0..6 {
                prop_assert_eq!(jumped.weight(i, j).to_bits(), stepped.weight(i, j).to_bits());
            }
        }
        prop_assert_eq!(jumped.intervals(), stepped.intervals());
        prop_assert_eq!(jumped.idle_settled(), stepped.idle_settled());
        prop_assert_eq!(jumped.decision_fingerprint(), stepped.decision_fingerprint());
        prop_assert_eq!(
            JsonWriter::render(|w| jumped.snapshot(w)),
            JsonWriter::render(|w| stepped.snapshot(w))
        );
        // And from there one more idle step agrees too.
        prop_assert_eq!(jumped.observe(0.0, 0.0), stepped.observe(0.0, 0.0));
        prop_assert_eq!(jumped.decision_fingerprint(), stepped.decision_fingerprint());
    }
}

/// A Table-I constant in `[0, 1]`: each end one time in four.
fn unit() -> impl Strategy<Value = f64> {
    (0usize..4, 0.0f64..1.0).prop_map(|(k, v)| match k {
        0 => 0.0,
        1 => 1.0,
        _ => v,
    })
}

/// Any grid from 2×2 to 8×8 and valid parameters across their ranges:
/// `α_core`, `α_mem` and `φ` with their ends, `β` inside `(0, 1)`, and
/// `λ` from 0.05 up to 1.0, which (an orbit cut at its row cap) comes one
/// time in four.
fn any_setup() -> impl Strategy<Value = ((usize, usize), WmaParams)> {
    (
        (2usize..9, 2usize..9),
        (unit(), unit(), unit()),
        0.001f64..0.999,
        (0usize..4, 0.05f64..1.0),
    )
        .prop_map(|(grid, (alpha_core, alpha_mem, phi), beta, (k, history))| {
            let params = WmaParams {
                alpha_core,
                alpha_mem,
                phi,
                beta,
                history: if k == 0 { 1.0 } else { history },
            };
            (grid, params)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Along the idle orbit from the uniform table, and past its end, the
    /// lowest pair weighs exactly 1.0 at every step, the learner reports
    /// it settled, and every mask that admits it selects it. A closed
    /// orbit counts `parks_after` down by one a step to 0 at its last row,
    /// where the next idle step changes no bit; a cut one reports no
    /// count, on the orbit and past it.
    fn every_idle_step_keeps_the_learner_settled_on_the_lowest_pair(
        ((n_core, n_mem), params) in any_setup(),
        salts in proptest::collection::vec(0usize..40, 4..5),
    ) {
        let mut s = WmaScaler::new(n_core, n_mem, params);
        let first = s.idle_settled().map(|settle| settle.parks_after);
        prop_assert!(first.is_some(), "the uniform table is settled");
        let mut left = first.flatten();
        for k in 0..600u64 {
            let settle = s.idle_settled();
            prop_assert_eq!(settle, Some(IdleSettle { pair: (0, 0), parks_after: left }), "idle step {}", k);
            prop_assert_eq!(s.weight(0, 0).to_bits(), 1.0f64.to_bits(), "idle step {}", k);
            for &salt in &salts {
                let admits = |i: usize, j: usize| (i, j) == (0, 0) || Mask::Stripe(salt).admits(i, j);
                prop_assert_eq!(s.argmax_masked(admits), Some((0, 0)), "idle step {}", k);
            }
            let before: Vec<u64> = (0..n_core * n_mem).map(|p| s.weight(p / n_mem, p % n_mem).to_bits()).collect();
            let admits = |i: usize, j: usize| (i, j) == (0, 0) || Mask::Stripe(salts[0]).admits(i, j);
            prop_assert_eq!(s.decide(0.0, 0.0, &admits), (0, 0), "idle step {}", k);
            let after: Vec<u64> = (0..n_core * n_mem).map(|p| s.weight(p / n_mem, p % n_mem).to_bits()).collect();
            if let Some(n) = left {
                prop_assert_eq!(before == after, n == 0, "idle step {}: {} rows left", k, n);
                left = Some(n.saturating_sub(1));
            }
        }
    }
}
