//! The coordinated GPU core/memory frequency scaler (paper §V-A).
//!
//! A Weighted-Majority-Algorithm (Littlestone & Warmuth) learner over the
//! `N×M` table of (core level, memory level) pairs. Every interval it:
//!
//! 1. reads core and memory utilizations `u_c`, `u_m` from the smi sensor;
//! 2. charges every level the Table-I loss of [`crate::loss`] — the
//!    performance and energy losses folded with `α` (Eqs. 1–2);
//! 3. combines core and memory losses with `φ` (Eq. 3);
//! 4. updates every pair's weight multiplicatively with `β` (Eq. 4);
//! 5. enforces the argmax pair.
//!
//! The scaler is a [`FreqPolicy`] itself: it owns a [`DecisionTracker`]
//! and learns from that tracker's [`LossModel`], so the loss it optimizes
//! and the loss its regret is scored on are one object.
//!
//! Two reproduction notes (documented in DESIGN.md): the paper initializes
//! weights "to an equal value (e.g., 0)", which is degenerate under a
//! multiplicative update — we use 1.0 (still equal); and weights are
//! renormalized by the maximum each interval to prevent underflow, which
//! cannot change the argmax.
//!
//! An idle node observes exactly-zero utilization every interval, and
//! from the uniform table every scaler with the same grid and parameters
//! then walks the same sequence of tables to the same fixed point. That
//! sequence is computed once per process as an `IdleOrbit` by the
//! update itself, and a scaler still on it copies its next row instead
//! of recomputing Eq. 4, so `k` idle steps are one jump of `k` rows.
//! On the orbit or off it, an idle learner whose lowest pair weighs
//! exactly 1.0 has settled: Table I charges that pair nothing at zero
//! utilization, so every idle step keeps it the table's first maximum
//! and the idle decision no longer moves (DESIGN.md §4.3).

use crate::loss::{LevelTerms, LossModel, LossParams};
use crate::telemetry::{DecisionTracker, PolicyTelemetry};
use crate::{snap, FreqPolicy, IdleSettle};
use greengpu_sim::{Fnv64, JsonValue, JsonWriter};
use std::sync::{Arc, Mutex, PoisonError};

/// Tuning constants of the scaler (paper's fitted values as defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WmaParams {
    /// Energy-vs-performance trade-off for the core domain (`α_c`); the
    /// paper derives 0.15 experimentally.
    pub alpha_core: f64,
    /// Trade-off for the memory domain (`α_m = 0.02`).
    pub alpha_mem: f64,
    /// Core/memory loss balance (`φ = 0.3`).
    pub phi: f64,
    /// History smoothing (`β = 0.2`).
    pub beta: f64,
    /// Log-domain forgetting factor `λ ∈ (0, 1]` applied before each
    /// update (`w ← w^λ · (1 − (1−β)·loss)`).
    ///
    /// **Reproduction note** (see DESIGN.md): Eq. 4 verbatim (`λ = 1`)
    /// gives the weight table unbounded memory — a pair that was heavily
    /// penalized during one workload phase cannot be re-selected for
    /// hundreds of intervals, contradicting the responsiveness the paper
    /// demonstrates in Fig. 5 ("it can adjust the GPU core and memory
    /// frequencies directly to the best levels according to the
    /// utilizations"). `λ = 0.8` bounds the effective history to ~5
    /// intervals while keeping Eq. 4's noise filtering. The ablation bench
    /// sweeps this knob.
    pub history: f64,
}

impl Default for WmaParams {
    fn default() -> Self {
        WmaParams {
            alpha_core: 0.15,
            alpha_mem: 0.02,
            phi: 0.3,
            beta: 0.2,
            history: 0.8,
        }
    }
}

impl WmaParams {
    /// The Table-I constants (`α_c`, `α_m`, `φ`) the scaler's loss model
    /// is built from.
    fn loss(&self) -> LossParams {
        LossParams {
            alpha_core: self.alpha_core,
            alpha_mem: self.alpha_mem,
            phi: self.phi,
        }
    }

    /// Checks parameter ranges (`α, φ ∈ [0,1]`, `β ∈ (0,1)`,
    /// `history ∈ (0,1]`), naming the offending field in the error —
    /// the non-panicking form config paths (repro CLI, cluster node
    /// configs) report to the user.
    pub fn try_validate(&self) -> Result<(), String> {
        self.loss().try_validate()?;
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(format!("beta must be in (0,1), got {}", self.beta));
        }
        if !(self.history > 0.0 && self.history <= 1.0) {
            return Err(format!("history must be in (0,1], got {}", self.history));
        }
        Ok(())
    }

    /// Validates parameter ranges, panicking with the
    /// [`WmaParams::try_validate`] message on failure.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }
}

/// The bits of 1.0, the weight of a max-renormalized table's leader.
const MAX_WEIGHT_BITS: u64 = 0x3FF0_0000_0000_0000;

/// Rows an [`IdleOrbit`] holds at most. The default 6×6 orbit closes at
/// 155 rows; a `λ = 1.0` orbit only decays geometrically toward its
/// fixed point, so it is cut off here and a scaler idling past the cut
/// takes the computed update.
const ORBIT_MAX_ROWS: usize = 512;

/// The weight tables a scaler passes through when, starting from the
/// uniform table, it observes `(+0.0, +0.0)` every interval: row `k` is
/// the table after `k` such intervals. Built by [`eq4`] itself, so every
/// row is the computed update's bits. It ends at the first row `eq4`
/// maps to itself (`closed`), or at [`ORBIT_MAX_ROWS`].
#[derive(Debug)]
struct IdleOrbit {
    /// `n_core × n_mem` weights per row, rows back to back.
    rows: Vec<f64>,
    /// Each row's [`weights_fingerprint`].
    fingerprints: Vec<u64>,
    /// Whether the last row is a fixed point of the idle update.
    closed: bool,
}

/// What an orbit depends on: the grid shape and the bits of every
/// [`WmaParams`] field.
#[derive(Clone, Copy, PartialEq, Eq)]
struct OrbitKey {
    shape: (usize, usize),
    params: [u64; 5],
}

/// Every orbit built in this process. Entries are pushed whole and never
/// written again; a process holds one per distinct key that went idle
/// from the uniform table.
static ORBITS: Mutex<Vec<(OrbitKey, Arc<IdleOrbit>)>> = Mutex::new(Vec::new());

impl IdleOrbit {
    /// The process's orbit for `model`'s grid and `params`, built on
    /// first use.
    fn shared(model: &LossModel, params: &WmaParams) -> Arc<IdleOrbit> {
        let WmaParams {
            alpha_core,
            alpha_mem,
            phi,
            beta,
            history,
        } = *params;
        let key = OrbitKey {
            shape: model.shape(),
            params: [alpha_core, alpha_mem, phi, beta, history].map(f64::to_bits),
        };
        // Only whole entries are ever pushed, so a memo whose lock was
        // poisoned is still valid.
        let mut memo = ORBITS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, orbit)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(orbit);
        }
        let orbit = Arc::new(IdleOrbit::build(model, params));
        memo.push((key, Arc::clone(&orbit)));
        orbit
    }

    fn build(model: &LossModel, params: &WmaParams) -> IdleOrbit {
        let (n_core, n_mem) = model.shape();
        let mut table = vec![1.0; n_core * n_mem];
        let mut orbit = IdleOrbit {
            rows: table.clone(),
            fingerprints: vec![weights_fingerprint(&table)],
            closed: false,
        };
        while orbit.fingerprints.len() < ORBIT_MAX_ROWS {
            let prev = orbit.rows.rchunks_exact(table.len()).next().unwrap_or_default();
            eq4(&mut table, model, params, 0.0, 0.0);
            if table.iter().zip(prev).all(|(a, b)| a.to_bits() == b.to_bits()) {
                orbit.closed = true;
                break;
            }
            orbit.rows.extend_from_slice(&table);
            orbit.fingerprints.push(weights_fingerprint(&table));
        }
        orbit
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// The row an idle step leads to from `row`: the next one, `row`
    /// itself at a closed orbit's fixed point, or `None` past the end of
    /// a cut-off orbit.
    fn next(&self, row: usize) -> Option<usize> {
        if row + 1 < self.len() {
            Some(row + 1)
        } else if self.closed {
            Some(row)
        } else {
            None
        }
    }

    /// Row `row`'s weights.
    fn row(&self, row: usize) -> &[f64] {
        let n = self.rows.len() / self.len().max(1);
        self.rows.get(row * n..(row + 1) * n).unwrap_or_default()
    }
}

/// Eq. 4 over the full table for one finite, clamped observation, then
/// renormalized by the max: the update every step off the idle orbit
/// takes, and the one the orbit is built with. Returns whether it left
/// every weight's bits as they were, when it can tell without a copy:
/// with the new maximum at exactly 1.0 the renormalization changes no
/// bit; under any other maximum it answers `false`.
fn eq4(weights: &mut [f64], model: &LossModel, params: &WmaParams, u_core: f64, u_mem: f64) -> bool {
    let one_minus_beta = 1.0 - params.beta;
    // Eq. 3 is separable: each level's weighted domain loss is taken
    // once, and pair (i, j) adds the two terms as `LossModel::loss`
    // does.
    let (n_core, n_mem) = model.shape();
    let core = LevelTerms::new(n_core, |i| model.core_term(i, u_core));
    let mem = LevelTerms::new(n_mem, |j| model.mem_term(j, u_mem));
    let mut max_w = 0.0f64;
    let mut unchanged = true;
    for (i, row) in weights.chunks_exact_mut(n_mem).enumerate() {
        let core_term = core.get(i);
        for (j, w) in row.iter_mut().enumerate() {
            let loss = core_term + mem.get(j);
            debug_assert!((0.0..=1.0 + 1e-12).contains(&loss), "loss out of [0,1]");
            let updated = w.powf(params.history) * (1.0 - one_minus_beta * loss);
            unchanged &= updated.to_bits() == w.to_bits();
            *w = updated;
            max_w = max_w.max(updated);
        }
    }
    // Renormalize by the max so weights never underflow; the argmax is
    // unaffected.
    if max_w > 0.0 && max_w.to_bits() != MAX_WEIGHT_BITS {
        for w in weights {
            *w /= max_w;
        }
        return false;
    }
    unchanged
}

/// The weight table's decision fingerprint: its exact bit patterns,
/// folded a word at a time (it is only compared with itself).
fn weights_fingerprint(weights: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    for w in weights {
        h.push_word(w.to_bits());
    }
    h.finish()
}

/// The online WMA frequency scaler over an `N×M` core/memory pair table.
///
/// [`WmaScaler::observe`] and [`WmaScaler::observe_masked`] run
/// Algorithm 1 alone; [`FreqPolicy::decide`] runs the same step and also
/// records the decision in the policy telemetry.
///
/// ```
/// use greengpu_policy::wma::{WmaParams, WmaScaler};
///
/// let mut scaler = WmaScaler::new(6, 6, WmaParams::default());
/// // kmeans-like signature: medium core, low memory utilization.
/// let mut pair = (0, 0);
/// for _ in 0..10 {
///     pair = scaler.observe(0.6, 0.08);
/// }
/// assert_eq!(pair.0, 3, "core level matches umean 0.6 (464 MHz)");
/// assert!(pair.1 <= 1, "memory throttles deep");
/// ```
#[derive(Debug, Clone)]
pub struct WmaScaler {
    params: WmaParams,
    /// Row-major `n_core × n_mem` weights.
    weights: Vec<f64>,
    intervals: u64,
    /// Intervals whose feasible set was empty and the selection degraded
    /// to the lowest-power pair `(0, 0)`.
    empty_mask_fallbacks: u64,
    /// Decision telemetry; its loss model is the one the weights learn.
    tracker: DecisionTracker,
    /// The shared idle orbit, fetched on the first `(+0.0, +0.0)`
    /// observation from the uniform table.
    orbit: Option<Arc<IdleOrbit>>,
    /// `Some(k)` while the weights are, bit for bit, row `k` of the idle
    /// orbit (row 0 is the uniform table).
    orbit_row: Option<usize>,
}

impl WmaScaler {
    /// Creates a scaler for `n_core` core levels and `n_mem` memory levels
    /// (6×6 on the paper's testbed).
    pub fn new(n_core: usize, n_mem: usize, params: WmaParams) -> Self {
        assert!(n_core >= 2 && n_mem >= 2, "need at least two levels per domain");
        params.validate();
        WmaScaler {
            params,
            weights: vec![1.0; n_core * n_mem],
            intervals: 0,
            empty_mask_fallbacks: 0,
            tracker: DecisionTracker::new(LossModel::new(n_core, n_mem, params.loss())),
            orbit: None,
            orbit_row: Some(0),
        }
    }

    /// Weight of pair `(i, j)`.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.shape().1 + j]
    }

    /// Number of observe intervals processed.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Number of intervals whose feasible set was empty, degrading the
    /// selection to the lowest-power pair `(0, 0)` — surfaced so capped
    /// runs can report how often the cap was tighter than any pair.
    pub fn empty_mask_fallbacks(&self) -> u64 {
        self.empty_mask_fallbacks
    }

    /// One interval of Algorithm 1: reads the utilizations, updates all
    /// weights (Eq. 4), renormalizes, and returns the argmax
    /// `(core_level, mem_level)` pair to enforce next.
    ///
    /// Ties break toward lower (more energy-saving) levels.
    ///
    /// Non-finite utilizations (a lost `nvidia-smi` poll) are rejected
    /// without touching the weight table — `NaN.clamp()` is still NaN, and
    /// one NaN loss would zero every weight permanently. The current
    /// argmax is returned unchanged.
    pub fn observe(&mut self, u_core: f64, u_mem: f64) -> (usize, usize) {
        self.observe_masked(u_core, u_mem, |_, _| true)
    }

    /// [`WmaScaler::observe`] restricted to a *feasible set* of pairs — the
    /// power-capping seam used by the cluster tier.
    ///
    /// The weight update runs over the **full** table (learning is never
    /// distorted by a transient cap), but the returned argmax only
    /// considers pairs for which `feasible(core, mem)` is true — e.g.
    /// pairs whose modeled board power fits the node's current power cap.
    /// An empty feasible set degrades to `(0, 0)`, the lowest-power pair,
    /// which is the closest enforceable point to any cap.
    pub fn observe_masked<F>(&mut self, u_core: f64, u_mem: f64, feasible: F) -> (usize, usize)
    where
        F: Fn(usize, usize) -> bool,
    {
        self.learn(u_core, u_mem);
        self.select(feasible).unwrap_or((0, 0))
    }

    /// The weight update of one interval (Eq. 4) over the full table;
    /// `false`, with the table untouched, when a utilization is not
    /// finite. On the idle orbit an exactly-`(+0.0, +0.0)` observation
    /// copies the orbit's next row; any other leaves the orbit.
    fn learn(&mut self, u_core: f64, u_mem: f64) -> bool {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            return false;
        }
        let u_core = u_core.clamp(0.0, 1.0);
        let u_mem = u_mem.clamp(0.0, 1.0);
        let idle = u_core.to_bits() == 0 && u_mem.to_bits() == 0;
        self.orbit_row = if idle { self.follow_orbit() } else { None };
        if self.orbit_row.is_none() {
            eq4(&mut self.weights, self.tracker.model(), &self.params, u_core, u_mem);
        }
        self.intervals += 1;
        true
    }

    /// One idle step along the orbit: the row the weights now hold, or
    /// `None` when the scaler is off the orbit or runs past the end of a
    /// cut-off one (the weights are then untouched).
    fn follow_orbit(&mut self) -> Option<usize> {
        let row = self.orbit_row?;
        let orbit = self
            .orbit
            .get_or_insert_with(|| IdleOrbit::shared(self.tracker.model(), &self.params));
        let next = orbit.next(row)?;
        if next != row {
            for (w, &v) in self.weights.iter_mut().zip(orbit.row(next)) {
                *w = v;
            }
        }
        Some(next)
    }

    /// Masked argmax that counts an empty feasible set (the caller
    /// degrades it to `(0, 0)`).
    fn select<F>(&mut self, feasible: F) -> Option<(usize, usize)>
    where
        F: Fn(usize, usize) -> bool,
    {
        let best = self.argmax_masked(feasible);
        if best.is_none() {
            self.empty_mask_fallbacks += 1;
        }
        best
    }

    /// The current best pair without updating.
    pub fn argmax(&self) -> (usize, usize) {
        self.argmax_masked(|_, _| true).unwrap_or((0, 0))
    }

    /// The best pair among those `feasible` admits, without updating;
    /// `None` when the feasible set is empty. Ties break toward lower
    /// (more energy-saving) levels, exactly like [`WmaScaler::argmax`].
    pub fn argmax_masked<F>(&self, feasible: F) -> Option<(usize, usize)>
    where
        F: Fn(usize, usize) -> bool,
    {
        let (n_core, n_mem) = self.shape();
        let mut best = None;
        let mut best_w = f64::NEG_INFINITY;
        for i in 0..n_core {
            for j in 0..n_mem {
                if !feasible(i, j) {
                    continue;
                }
                let w = self.weights[i * n_mem + j];
                if w > best_w {
                    best_w = w;
                    best = Some((i, j));
                }
            }
        }
        best
    }
}

impl FreqPolicy for WmaScaler {
    fn name(&self) -> &str {
        "wma"
    }

    fn shape(&self) -> (usize, usize) {
        self.tracker.model().shape()
    }

    /// [`WmaScaler::observe_masked`] plus the telemetry: a rejected
    /// observation and an empty feasible set are each counted, also when
    /// both happen in one interval.
    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) {
        let learned = self.learn(u_core, u_mem);
        if !learned {
            self.tracker.note_invalid();
        }
        match self.select(feasible) {
            Some(pair) => {
                if learned {
                    self.tracker.record(u_core, u_mem, pair, 0.0);
                }
                pair
            }
            None => {
                self.tracker.note_empty_mask();
                (0, 0)
            }
        }
    }

    fn preferred(&self) -> (usize, usize) {
        self.argmax()
    }

    fn telemetry(&self) -> &PolicyTelemetry {
        self.tracker.telemetry()
    }

    /// Resets the table to the uniform initial state and clears the
    /// telemetry.
    fn reset(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.orbit_row = Some(0);
        self.intervals = 0;
        self.empty_mask_fallbacks = 0;
        self.tracker.reset();
    }

    /// Streams the learner's warm state for checkpointing: the weight
    /// table plus the interval counters. The `umean` maps are derived
    /// from the grid shape at construction and are not stored.
    fn snapshot(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.key("weights").f64s(&self.weights);
            w.key("intervals").u64(self.intervals);
            w.key("empty_mask_fallbacks").u64(self.empty_mask_fallbacks);
        });
    }

    /// Restores state captured by [`FreqPolicy::snapshot`]. Validates the
    /// whole value before mutating anything, so a failed restore leaves
    /// the scaler unchanged.
    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let weights = snap::parse_f64_vec(snap::field(state, "weights")?, "weights", self.weights.len())?;
        if weights.iter().any(|&w| !(0.0..=1.0).contains(&w)) {
            return Err("weights must lie in [0, 1] (max-renormalized table)".to_string());
        }
        let intervals = snap::parse_u64(state, "intervals")?;
        let fallbacks = snap::parse_u64(state, "empty_mask_fallbacks")?;
        // A snapshot taken on the idle orbit resumes there: the weights
        // are checked, bit for bit, against the row its interval count
        // reaches (the fixed point past the end of a closed orbit).
        let orbit = self
            .orbit
            .get_or_insert_with(|| IdleOrbit::shared(self.tracker.model(), &self.params));
        let row = intervals.min((orbit.len() - 1) as u64) as usize;
        let on_orbit = orbit
            .row(row)
            .iter()
            .zip(&weights)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        self.orbit_row = on_orbit.then_some(row);
        self.weights = weights;
        self.intervals = intervals;
        self.empty_mask_fallbacks = fallbacks;
        Ok(())
    }

    fn decision_fingerprint(&self) -> Option<u64> {
        // Decisions are a pure function of the weight table (the loss
        // model is static; the interval counters and the tracker are
        // telemetry), so the weights' exact bit patterns are the whole
        // fingerprint. On the idle orbit the orbit hashed the row once;
        // it is the same value, so fingerprints taken on and off the
        // orbit compare exactly.
        let on_orbit = self.orbit.as_ref().zip(self.orbit_row);
        let known = on_orbit.and_then(|(orbit, row)| orbit.fingerprints.get(row).copied());
        Some(known.unwrap_or_else(|| weights_fingerprint(&self.weights)))
    }

    /// Settled exactly when pair `(0, 0)` weighs 1.0, bit for bit, on the
    /// idle orbit or off it. At exactly-idle utilization Table I charges
    /// that pair loss exactly 0 ([`LossModel`] maps level 0 to
    /// `umean = 0.0` in both domains), so its Eq. 4 factor is exactly 1
    /// and every other pair's at most 1. A weight of 1.0 then stays 1.0
    /// (`1.0.powf(λ) · 1`), the table's maximum stays 1.0, the
    /// renormalizing division by it changes no bit, and the argmax's
    /// first-maximum rule keeps `(0, 0)` under every mask that admits it.
    /// The uniform table starts there, so every orbit row qualifies. On a
    /// closed orbit the count is the rows left to its fixed point; on an
    /// orbit cut off before it, or off the orbit, no path to a fixed point
    /// is precomputed and there is no count.
    fn idle_settled(&self) -> Option<IdleSettle> {
        if self.weights.first()?.to_bits() != MAX_WEIGHT_BITS {
            return None;
        }
        let rows_left = |orbit: &IdleOrbit, row: usize| orbit.closed.then(|| (orbit.len() - 1 - row) as u64);
        let parks_after = self.orbit_row.and_then(|row| match &self.orbit {
            Some(orbit) => rows_left(orbit, row),
            // Row 0 of a learner that has not idled yet.
            None => rows_left(&IdleOrbit::shared(self.tracker.model(), &self.params), row),
        });
        Some(IdleSettle {
            pair: (0, 0),
            parks_after,
        })
    }

    /// Exactly `steps` idle observations: the weights, the interval count
    /// and the orbit position end where `steps` calls of
    /// `observe(0.0, 0.0)` leave them, with no telemetry recorded. Along
    /// the idle orbit the whole jump is one row copy; only steps past the
    /// end of a cut-off orbit, or taken off the orbit, compute Eq. 4, and
    /// only until one leaves the table bit for bit unchanged: every later
    /// idle step is the same identity, so the rest are only counted.
    fn fast_forward_idle(&mut self, steps: u64) {
        let mut left = steps;
        while left > 0 {
            if let Some(row) = self.orbit_row {
                let orbit = self
                    .orbit
                    .get_or_insert_with(|| IdleOrbit::shared(self.tracker.model(), &self.params));
                let last = orbit.len() - 1;
                let along = if orbit.closed {
                    left
                } else {
                    left.min((last - row) as u64)
                };
                if along > 0 {
                    let target = (row as u64).saturating_add(along).min(last as u64) as usize;
                    if target != row {
                        self.weights.copy_from_slice(orbit.row(target));
                    }
                    self.orbit_row = Some(target);
                    self.intervals += along;
                    left -= along;
                    continue;
                }
            }
            // Off the orbit, or past the end of a cut one: the idle step
            // `learn` computes.
            self.orbit_row = None;
            let fixed = eq4(&mut self.weights, self.tracker.model(), &self.params, 0.0, 0.0);
            self.intervals += 1;
            left -= 1;
            if fixed {
                self.intervals += left;
                left = 0;
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: fn(usize, usize) -> bool = |_, _| true;

    fn scaler() -> WmaScaler {
        WmaScaler::new(6, 6, WmaParams::default())
    }

    fn weight_bits(s: &WmaScaler) -> Vec<u64> {
        s.weights.iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn full_utilization_selects_peak_pair() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        assert_eq!(s.argmax(), (5, 5));
    }

    #[test]
    fn idle_utilization_selects_lowest_pair() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.0, 0.0);
        }
        assert_eq!(s.argmax(), (0, 0));
    }

    #[test]
    fn medium_core_low_mem_selects_matched_levels() {
        // The kmeans signature: u_core ≈ 0.6, u_mem ≈ 0.08.
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.6, 0.08);
        }
        let (i, j) = s.argmax();
        assert_eq!(i, 3, "core level should match umean 0.6");
        assert!(j <= 1, "memory should throttle deep, got {j}");
    }

    #[test]
    fn masked_argmax_respects_the_feasible_set() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        // The unmasked winner is the peak pair; a mask excluding it must
        // yield the best pair *inside* the feasible set.
        assert_eq!(s.argmax(), (5, 5));
        let best = s.argmax_masked(|i, j| i + j <= 7).expect("non-empty mask");
        assert!(best.0 + best.1 <= 7, "masked argmax escaped the mask: {best:?}");
    }

    #[test]
    fn empty_mask_degrades_to_lowest_pair() {
        let mut s = scaler();
        assert_eq!(s.argmax_masked(|_, _| false), None);
        assert_eq!(s.observe_masked(1.0, 1.0, |_, _| false), (0, 0));
    }

    #[test]
    fn all_infeasible_intervals_are_counted_and_learning_continues() {
        let mut s = scaler();
        assert_eq!(s.empty_mask_fallbacks(), 0);
        for _ in 0..5 {
            assert_eq!(s.observe_masked(1.0, 1.0, |_, _| false), (0, 0));
        }
        assert_eq!(s.empty_mask_fallbacks(), 5);
        // The weight update still ran every interval: once the cap lifts
        // the scaler selects what it learned during the blackout.
        assert_eq!(s.intervals(), 5);
        assert_eq!(s.argmax(), (5, 5));
        // A feasible interval does not bump the counter.
        s.observe_masked(1.0, 1.0, |_, _| true);
        assert_eq!(s.empty_mask_fallbacks(), 5);
        s.reset();
        assert_eq!(s.empty_mask_fallbacks(), 0);
    }

    #[test]
    fn nan_under_empty_mask_still_counts_the_fallback() {
        // Both degradations at once: a lost sensor poll *and* a cap no
        // pair fits. The weight table must be untouched (NaN path), the
        // fallback counted, and (0, 0) returned.
        let mut s = scaler();
        for _ in 0..8 {
            s.observe(0.6, 0.08);
        }
        let before = weight_bits(&s);
        assert_eq!(s.observe_masked(f64::NAN, 0.5, |_, _| false), (0, 0));
        assert_eq!(s.empty_mask_fallbacks(), 1);
        assert_eq!(s.intervals(), 8, "NaN interval must not count as processed");
        assert_eq!(before, weight_bits(&s));
        // NaN under a *non-empty* mask holds the masked argmax and does
        // not bump the counter.
        let held = s.observe_masked(f64::NAN, 0.5, |i, j| i <= 1 && j <= 1);
        assert!(held.0 <= 1 && held.1 <= 1);
        assert_eq!(s.empty_mask_fallbacks(), 1);
    }

    #[test]
    fn try_validate_names_the_offending_field() {
        let ok = WmaParams::default();
        assert!(ok.try_validate().is_ok());
        let cases = [
            (WmaParams { alpha_core: -0.1, ..ok }, "alpha_core"),
            (WmaParams { alpha_mem: 1.5, ..ok }, "alpha_mem"),
            (WmaParams { phi: 2.0, ..ok }, "phi"),
            (WmaParams { beta: 1.0, ..ok }, "beta"),
            (WmaParams { beta: f64::NAN, ..ok }, "beta"),
            (WmaParams { history: 0.0, ..ok }, "history"),
        ];
        for (bad, field) in cases {
            let err = bad.try_validate().unwrap_err();
            assert!(err.contains(field), "{err:?} should name {field}");
        }
        // The α/φ checks are the loss model's, message for message.
        let bad = WmaParams { phi: 2.0, ..ok };
        assert_eq!(bad.try_validate(), bad.loss().try_validate());
        assert_eq!(bad.try_validate().unwrap_err(), "phi must be in [0,1], got 2");
    }

    #[test]
    fn all_true_mask_matches_unmasked_observe() {
        let mut a = scaler();
        let mut b = scaler();
        for k in 0..12 {
            let u = (k as f64) / 11.0;
            let pa = a.observe(u, 1.0 - u);
            let pb = b.observe_masked(u, 1.0 - u, |_, _| true);
            assert_eq!(pa, pb);
        }
        assert_eq!(weight_bits(&a), weight_bits(&b));
    }

    #[test]
    fn mask_never_distorts_learning() {
        // Weights after masked observations must equal weights after the
        // same unmasked observations: the mask only affects selection.
        let mut masked = scaler();
        let mut free = scaler();
        for _ in 0..10 {
            masked.observe_masked(1.0, 1.0, |i, j| i <= 2 && j <= 2);
            free.observe(1.0, 1.0);
        }
        assert_eq!(weight_bits(&masked), weight_bits(&free));
        // And once the cap lifts, the scaler immediately selects what it
        // learned.
        assert_eq!(masked.argmax(), (5, 5));
    }

    #[test]
    fn streamcluster_signature_selects_408_and_820() {
        // Fig. 5: u_core ≈ 0.28-0.4 → level 2 (408 MHz); u_mem ≈ 0.67-0.79
        // → level 4 (820 MHz).
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.33, 0.70);
        }
        assert_eq!(s.argmax(), (2, 4));
    }

    #[test]
    fn performance_bias_picks_level_above_utilization() {
        // α small → perf loss dominates → the chosen umean sits at or
        // above the observed utilization (umean of level k is k / 5).
        let mut s = scaler();
        for u in [0.15, 0.35, 0.55, 0.75] {
            s.reset();
            for _ in 0..5 {
                s.observe(u, u);
            }
            let (i, j) = s.argmax();
            assert!(i as f64 / 5.0 >= u - 1e-9, "core level {i} below u {u}");
            assert!(j as f64 / 5.0 >= u - 1e-9, "mem level {j} below u {u}");
        }
    }

    #[test]
    fn weights_stay_normalized_and_positive() {
        let mut s = scaler();
        for k in 0..1000 {
            let u = (k % 10) as f64 / 10.0;
            s.observe(u, 1.0 - u);
        }
        let max = s.weights.iter().copied().fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12, "max weight must be renormalized to 1");
        assert!(s.weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
    }

    #[test]
    fn adapts_to_workload_change() {
        // Converge on a core-heavy signature, then switch to memory-heavy:
        // the argmax must follow within a few intervals (the paper's Fig. 5
        // ramp behaviour).
        let mut s = scaler();
        for _ in 0..20 {
            s.observe(0.95, 0.1);
        }
        let before = s.argmax();
        assert_eq!(before.0, 5, "core pinned high");
        for _ in 0..20 {
            s.observe(0.1, 0.95);
        }
        let after = s.argmax();
        assert!(after.0 <= 1, "core should drop, got {}", after.0);
        assert_eq!(after.1, 5, "memory should rise");
    }

    #[test]
    fn history_controls_adaptation_speed() {
        let run = |history: f64| -> u64 {
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
            // Count intervals until argmax flips after the signature change.
            let mut count = 0;
            while s.argmax() != (0, 0) && count < 5000 {
                s.observe(0.0, 0.0);
                count += 1;
            }
            count
        };
        let bounded = run(0.8);
        let verbatim = run(1.0);
        assert!(
            bounded < 30,
            "bounded history should adapt within tens of intervals, took {bounded}"
        );
        assert!(
            verbatim > 10 * bounded,
            "verbatim Eq. 4 should be dramatically slower: {verbatim} vs {bounded}"
        );
    }

    #[test]
    fn beta_scales_per_interval_penalty() {
        // Larger β → smaller (1−β) → gentler weight decay for the same
        // loss.
        let weight_after_one = |beta: f64| -> f64 {
            let mut s = WmaScaler::new(
                6,
                6,
                WmaParams {
                    beta,
                    ..WmaParams::default()
                },
            );
            s.observe(1.0, 1.0);
            s.weight(0, 0) // heavily penalized pair, relative to max
        };
        assert!(weight_after_one(0.9) > weight_after_one(0.2));
    }

    #[test]
    fn ties_break_toward_lower_levels() {
        // φ = 0 leaves every core level tied, so the argmax must take the
        // lowest; u_mem = 0.6 sits on level 3's umean, a unique zero loss.
        let mut s = WmaScaler::new(
            6,
            6,
            WmaParams {
                phi: 0.0,
                ..WmaParams::default()
            },
        );
        s.observe(0.5, 0.6);
        let (i, j) = s.argmax();
        assert_eq!(i, 0, "tied core levels must break low");
        assert_eq!(j, 3);
    }

    #[test]
    fn reset_restores_uniform_table() {
        let mut s = scaler();
        s.observe(0.3, 0.9);
        s.reset();
        assert_eq!(s.intervals(), 0);
        assert!(s.weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_panics() {
        WmaScaler::new(
            6,
            6,
            WmaParams {
                beta: 0.0,
                ..WmaParams::default()
            },
        );
    }

    #[test]
    fn non_finite_utilization_leaves_weights_untouched() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.6, 0.08);
        }
        let before = weight_bits(&s);
        let pair = s.argmax();
        for (uc, um) in [
            (f64::NAN, 0.5),
            (0.5, f64::NAN),
            (f64::INFINITY, 0.5),
            (0.5, f64::NEG_INFINITY),
            (f64::NAN, f64::NAN),
        ] {
            assert_eq!(s.observe(uc, um), pair, "argmax must hold under ({uc}, {um})");
        }
        assert_eq!(before, weight_bits(&s), "weight table must be untouched");
    }

    #[test]
    fn out_of_range_utilization_is_clamped() {
        let mut s = scaler();
        let pair = s.observe(1.7, -0.3);
        assert_eq!(pair, s.argmax());
        // Equivalent to (1.0, 0.0).
        let mut s2 = scaler();
        let pair2 = s2.observe(1.0, 0.0);
        assert_eq!(pair, pair2);
    }

    #[test]
    fn decide_learns_bit_identically_to_observe_masked() {
        // The policy seam adds telemetry only: the decisions, the weight
        // table and the learner's counters match the bare learner's.
        let mut policy = scaler();
        let mut bare = scaler();
        let capped = |i: usize, j: usize| i + j <= 6;
        for k in 0..40 {
            let u = (k % 7) as f64 / 6.0;
            if k % 3 == 0 {
                assert_eq!(
                    policy.decide(u, 1.0 - u, &capped),
                    bare.observe_masked(u, 1.0 - u, capped)
                );
            } else {
                assert_eq!(policy.decide(u, 1.0 - u, &ALL), bare.observe(u, 1.0 - u));
            }
        }
        assert_eq!(weight_bits(&policy), weight_bits(&bare));
        assert_eq!(policy.intervals(), bare.intervals());
        assert_eq!(policy.preferred(), bare.argmax());
        assert_eq!(policy.telemetry().intervals, 40);
        assert_eq!(
            bare.telemetry(),
            &PolicyTelemetry::default(),
            "observe records no telemetry"
        );
    }

    #[test]
    fn decide_counts_rejected_and_empty_intervals() {
        let mut policy = scaler();
        policy.decide(0.6, 0.6, &ALL);
        policy.decide(f64::NAN, 0.6, &ALL);
        policy.decide(0.6, 0.6, &|_, _| false);
        let t = policy.telemetry();
        assert_eq!((t.intervals, t.invalid_inputs, t.empty_mask_fallbacks), (1, 1, 1));
        // A rejected observation under an empty mask is both.
        let before = weight_bits(&policy);
        assert_eq!(policy.decide(f64::NAN, 0.6, &|_, _| false), (0, 0));
        let t = policy.telemetry();
        assert_eq!((t.intervals, t.invalid_inputs, t.empty_mask_fallbacks), (1, 2, 2));
        assert_eq!(before, weight_bits(&policy), "a rejected observation never learns");
        assert_eq!(policy.intervals(), 2, "the finite empty-mask interval still learned");
        assert_eq!(policy.empty_mask_fallbacks(), 2);
        policy.reset();
        assert_eq!(policy.telemetry(), &PolicyTelemetry::default());
        assert_eq!((policy.intervals(), policy.empty_mask_fallbacks()), (0, 0));
        assert_eq!(weight_bits(&policy), weight_bits(&scaler()));
    }

    #[test]
    fn fingerprint_follows_the_weights_only() {
        let mut a = scaler();
        let mut b = scaler();
        assert_eq!(a.decision_fingerprint(), b.decision_fingerprint());
        a.decide(0.6, 0.08, &ALL);
        assert_ne!(a.decision_fingerprint(), b.decision_fingerprint());
        b.observe(0.6, 0.08);
        assert_eq!(
            a.decision_fingerprint(),
            b.decision_fingerprint(),
            "telemetry is excluded"
        );
    }

    fn bits(weights: &[f64]) -> Vec<u64> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn the_default_idle_orbit_closes_at_a_bit_exact_fixed_point() {
        let p = WmaParams::default();
        let model = LossModel::new(6, 6, p.loss());
        let orbit = IdleOrbit::shared(&model, &p);
        assert_eq!((orbit.len(), orbit.closed), (155, true));
        let rows: Vec<&[f64]> = (0..orbit.len()).map(|k| orbit.row(k)).collect();
        assert!(
            rows[0].iter().all(|&w| w.to_bits() == 1.0f64.to_bits()),
            "row 0 is uniform"
        );
        for (k, pair) in rows.windows(2).enumerate() {
            let mut next = pair[0].to_vec();
            eq4(&mut next, &model, &p, 0.0, 0.0);
            assert_eq!(bits(&next), bits(pair[1]), "row {} is the update of row {k}", k + 1);
            assert_ne!(bits(pair[0]), bits(pair[1]), "row {k} is not yet fixed");
        }
        let last = rows[orbit.len() - 1];
        let mut again = last.to_vec();
        eq4(&mut again, &model, &p, 0.0, 0.0);
        assert_eq!(bits(&again), bits(last), "the last row maps to itself");

        // A scaler idling past the end parks on the last row, and keeps
        // counting intervals.
        let mut s = scaler();
        for _ in 0..200 {
            s.observe(0.0, 0.0);
        }
        assert_eq!((s.orbit_row, s.intervals()), (Some(154), 200));
        assert_eq!(bits(&s.weights), bits(last));
        assert_eq!(s.decision_fingerprint(), Some(weights_fingerprint(last)));
    }

    #[test]
    fn a_capped_orbit_hands_over_to_the_computed_update() {
        // λ = 1.0 only decays geometrically, so its orbit is cut off at
        // the row cap; idling past it must keep matching Eq. 4.
        let p = WmaParams {
            history: 1.0,
            ..WmaParams::default()
        };
        let model = LossModel::new(6, 6, p.loss());
        let mut s = WmaScaler::new(6, 6, p);
        let mut reference = vec![1.0; 36];
        for k in 1..=ORBIT_MAX_ROWS + 100 {
            s.observe(0.0, 0.0);
            eq4(&mut reference, &model, &p, 0.0, 0.0);
            assert_eq!(bits(&s.weights), bits(&reference), "step {k}");
            assert_eq!(s.decision_fingerprint(), Some(weights_fingerprint(&reference)));
        }
        let orbit = s.orbit.as_ref().expect("the scaler idled from the uniform table");
        assert_eq!((orbit.len(), orbit.closed), (ORBIT_MAX_ROWS, false));
        assert_eq!(s.orbit_row, None, "off the end of a cut-off orbit");
        s.reset();
        assert_eq!(s.orbit_row, Some(0), "reset re-enters the orbit");
    }

    #[test]
    fn the_default_orbit_counts_down_to_its_fixed_point_on_the_lowest_pair() {
        // Every row keeps the lowest pair at weight 1.0, so the scaler is
        // settled from the uniform table on, with the rows left to the
        // fixed point.
        let settled = |rows: u64| {
            Some(IdleSettle {
                pair: (0, 0),
                parks_after: Some(rows),
            })
        };
        let mut s = scaler();
        assert_eq!(s.idle_settled(), settled(154), "the uniform table");
        for row in 1..=154 {
            s.observe(0.0, 0.0);
            assert_eq!(s.weights[0].to_bits(), MAX_WEIGHT_BITS, "row {row}");
            assert_eq!(s.idle_settled(), settled(154 - row), "row {row}");
        }
        for _ in 0..50 {
            s.observe(0.0, 0.0);
        }
        assert_eq!(s.idle_settled(), settled(0), "at the fixed point");
        s.observe(0.6, 0.1);
        assert_eq!(s.idle_settled(), None, "the busy pair leads");
    }

    #[test]
    fn fast_forward_equals_that_many_idle_observations() {
        let starts: [(f64, usize); 4] = [(0.8, 0), (0.8, 3), (0.5, 0), (1.0, ORBIT_MAX_ROWS - 4)];
        for (history, idle_first) in starts {
            for busy_first in [false, true] {
                for k in [0u64, 1, 2, 7, 153, 154, 155, 600] {
                    let p = WmaParams {
                        history,
                        ..WmaParams::default()
                    };
                    let (mut jumped, mut stepped) = (WmaScaler::new(6, 6, p), WmaScaler::new(6, 6, p));
                    for s in [&mut jumped, &mut stepped] {
                        if busy_first {
                            s.observe(0.6, 0.1);
                        }
                        for _ in 0..idle_first {
                            s.observe(0.0, 0.0);
                        }
                    }
                    jumped.fast_forward_idle(k);
                    for _ in 0..k {
                        stepped.observe(0.0, 0.0);
                    }
                    let case = format!("λ {history}, idle {idle_first}, busy {busy_first}, k {k}");
                    assert_eq!(bits(&jumped.weights), bits(&stepped.weights), "{case}");
                    assert_eq!(jumped.intervals(), stepped.intervals(), "{case}");
                    assert_eq!(jumped.orbit_row, stepped.orbit_row, "{case}");
                    assert_eq!(jumped.decision_fingerprint(), stepped.decision_fingerprint(), "{case}");
                    assert_eq!(jumped.idle_settled(), stepped.idle_settled(), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_cut_orbit_settles_with_no_count_on_it_and_past_its_last_row() {
        let p = WmaParams {
            history: 0.95,
            ..WmaParams::default()
        };
        let endless = Some(IdleSettle {
            pair: (0, 0),
            parks_after: None,
        });
        let mut s = WmaScaler::new(6, 6, p);
        s.observe(0.0, 0.0);
        let orbit = Arc::clone(s.orbit.as_ref().expect("fetched on the first idle step"));
        assert!(!orbit.closed, "λ = 0.95 is cut off at the row cap");
        for row in 1..orbit.len() + 3 {
            assert_eq!(s.idle_settled(), endless, "row {row}");
            s.observe(0.0, 0.0);
        }
        // Past the last row the steps are computed, and the lowest pair
        // still holds weight 1.0.
        assert_eq!(s.orbit_row, None);
        assert_eq!(s.weights[0].to_bits(), MAX_WEIGHT_BITS);
        assert_eq!(MAX_WEIGHT_BITS, 1.0f64.to_bits());
        assert_eq!(s.idle_settled(), endless);
        // A fast-forward across the cut computes the same steps.
        let mut jumped = WmaScaler::new(6, 6, p);
        jumped.fast_forward_idle(s.intervals());
        assert_eq!(bits(&jumped.weights), bits(&s.weights));
        assert_eq!((jumped.intervals(), jumped.orbit_row), (s.intervals(), None));
        assert_eq!(jumped.idle_settled(), endless);
    }

    #[test]
    fn equal_grids_and_params_share_one_orbit() {
        let idle = |n_core: usize, params: WmaParams| {
            let mut s = WmaScaler::new(n_core, 6, params);
            s.observe(0.0, 0.0);
            s.orbit
                .expect("the first idle step from the uniform table fetches the orbit")
        };
        let p = WmaParams::default();
        let a = idle(6, p);
        assert!(Arc::ptr_eq(&a, &idle(6, p)));
        assert!(!Arc::ptr_eq(&a, &idle(5, p)), "another grid");
        assert!(!Arc::ptr_eq(&a, &idle(6, WmaParams { history: 0.7, ..p })), "another λ");
        assert!(!Arc::ptr_eq(&a, &idle(6, WmaParams { beta: 0.3, ..p })), "another β");

        // A scaler that is busy first never fetches one.
        let mut busy = scaler();
        busy.observe(0.6, 0.1);
        busy.observe(0.0, 0.0);
        assert!(busy.orbit.is_none() && busy.orbit_row.is_none());
        // Neither does `-0.0`, which is not exactly `+0.0`.
        let mut negative = scaler();
        negative.observe(-0.0, 0.0);
        assert!(negative.orbit.is_none() && negative.orbit_row.is_none());
    }
}
