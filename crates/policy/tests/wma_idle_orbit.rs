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
//! idle decision can settle again); one taken off it stays off.

use greengpu_policy::{FreqPolicy, LossModel, WmaParams, WmaScaler};
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

#[test]
fn a_snapshot_taken_off_the_idle_orbit_stays_off_it() {
    let p = WmaParams::default();
    // Busy first: the idle steps after it compute.
    let mut busy = WmaScaler::new(6, 6, p);
    busy.observe(0.6, 0.1);
    busy.fast_forward_idle(30);
    let text = JsonWriter::render(|w| busy.snapshot(w));
    assert_eq!(restored(p, &text).idle_settled(), None);
    // On-orbit weights under an interval count that names another row.
    let mut idle = WmaScaler::new(6, 6, p);
    idle.fast_forward_idle(30);
    let text = JsonWriter::render(|w| idle.snapshot(w)).replace("\"intervals\":30", "\"intervals\":31");
    assert!(text.contains("\"intervals\":31"), "{text}");
    let mut off = restored(p, &text);
    assert_eq!(off.idle_settled(), None, "row 30's weights are not row 31");
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
}
