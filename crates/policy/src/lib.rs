//! # greengpu-policy — pluggable Tier-2 frequency-selection policies
//!
//! Every online learner over the `N×M` (core level, memory level) pair
//! grid implements one object-safe trait, [`FreqPolicy`], and the
//! coordinator, the hardened faulted runs, and the cluster nodes all
//! drive whichever policy they are handed. All of them learn from, or
//! are scored on, the one Table-I loss model ([`loss`]).
//!
//! Shipped policy families:
//!
//! * **The paper's WMA scaler** ([`wma`]): the Weighted-Majority learner
//!   of §V-A (Algorithm 1, Eqs. 1–4), the default policy.
//! * **Switching-aware bandits** ([`bandit`]): EXP3- and UCB-style
//!   learners in the spirit of *Online GPU Energy Optimization with
//!   Switching-Aware Bandits* (arXiv:2410.11855). Each interval charges
//!   the Table-I loss of the chosen pair *plus* a configurable
//!   switching-cost penalty, and a hysteresis rule keeps them from
//!   thrashing between adjacent levels.
//! * **Deadline-aware selection** ([`deadline`]): minimizes predicted
//!   energy subject to a per-iteration time budget, in the spirit of
//!   *A Data-Driven Frequency Scaling Approach for Deadline-aware Energy
//!   Efficient Scheduling on GPUs* (arXiv:2004.08177), over a
//!   [`deadline::PairModel`] derived from the calibrated
//!   frequency/performance model in `greengpu-hw`.
//! * **Phase-conditioned wrappers** ([`contextual`]): one inner bandit
//!   per workload phase the detector discovers.
//!
//! Every policy is deterministic under a fixed seed (randomized policies
//! draw from [`greengpu_sim::Pcg32`] streams), always returns an
//! in-range pair, and respects the *feasible-set mask* exactly — the
//! power-capping seam the cluster tier relies on. Per-interval telemetry
//! ([`telemetry::PolicyTelemetry`]) tracks cumulative loss, switch
//! count, empty-mask fallbacks, and regret against the static-best pair
//! in hindsight.

#![forbid(unsafe_code)]

pub mod bandit;
pub mod contextual;
pub mod deadline;
pub mod loss;
pub mod telemetry;
pub mod wma;

pub use bandit::{Exp3Params, Exp3Policy, SwitchingParams, UcbParams, UcbPolicy};
pub use contextual::Contextual;
pub use deadline::{DeadlineParams, DeadlinePolicy, PairModel};
pub use greengpu_phase::{PhaseDetector, PhaseDetectorParams, PhaseId, PhaseTracker};
pub use greengpu_sim::{JsonValue, JsonWriter};
pub use loss::{LevelTerms, LossModel, LossParams};
pub use telemetry::{DecisionTracker, PolicyTelemetry};
pub use wma::{WmaParams, WmaScaler};

/// An online frequency-selection policy over the `N×M` pair grid — the
/// pluggable Tier-2 seam.
///
/// The contract every implementation upholds (and the proptests in
/// `tests/proptest_policies.rs` pin):
///
/// 1. **In-range**: [`FreqPolicy::decide`] returns `(i, j)` with
///    `i < n_core`, `j < n_mem`.
/// 2. **Mask-respecting**: when at least one pair is feasible, the
///    returned pair satisfies `feasible(i, j)`. An *empty* feasible set
///    degrades to `(0, 0)` — the lowest-power pair, the closest
///    enforceable point to any cap — and is counted in the telemetry.
/// 3. **Deterministic**: two instances built with the same parameters
///    and seed produce identical decision sequences for identical
///    observation sequences.
/// 4. **Garbage-tolerant**: non-finite utilizations never corrupt
///    learner state; the previous decision is held (restricted to the
///    mask) and the rejection is counted.
pub trait FreqPolicy {
    /// Stable policy name used in experiment tables and CSV columns.
    fn name(&self) -> &str;

    /// The `(n_core, n_mem)` grid shape this policy selects over.
    fn shape(&self) -> (usize, usize);

    /// One control interval: observe the utilizations, learn, and return
    /// the `(core_level, mem_level)` pair to enforce next, restricted to
    /// pairs for which `feasible` is true.
    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize);

    /// The pair the policy currently prefers, without observing or
    /// learning — what a fresh unmasked decision would enforce. Used by
    /// the cluster tier to estimate a node's desired power draw.
    fn preferred(&self) -> (usize, usize);

    /// Per-interval telemetry accumulated so far.
    fn telemetry(&self) -> &PolicyTelemetry;

    /// Resets all learner state and telemetry to the initial state.
    fn reset(&mut self);

    /// Streams the learner's warm state (weights, counts, RNG position,
    /// current pair) as one JSON value for checkpointing. Telemetry is
    /// *not* included — a restored policy reports fresh counters. The
    /// default (for stateless or test policies) is an empty object.
    fn snapshot(&self, w: &mut JsonWriter<'_>) {
        w.obj(|_| {});
    }

    /// Restores learner state written by [`FreqPolicy::snapshot`] and
    /// parsed back into a [`JsonValue`]. Implementations validate the
    /// whole value *before* mutating any state, so a failed restore
    /// leaves the policy unchanged and the caller can fall back to a cold
    /// start. The default accepts anything and restores nothing.
    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let _ = state;
        Ok(())
    }

    /// A bit-exact fingerprint of every piece of state that can influence
    /// a future [`FreqPolicy::decide`] or [`FreqPolicy::preferred`]
    /// result, or `None` when the policy cannot certify one (the
    /// default). The event-driven fleet engine skips a node's control
    /// ticks only while this fingerprint is provably a fixed point, so:
    ///
    /// * telemetry-only counters must be *excluded* (they advance every
    ///   tick and would make quiescence undetectable);
    /// * anything that feeds decisions — weights, incumbent pairs, RNG
    ///   positions, visit counts — must be *included* (or the policy must
    ///   return `None`, the always-safe answer).
    ///
    /// Randomized/count-based policies (EXP3, UCB) keep the `None`
    /// default: their state moves on every decision, so no idle fixed
    /// point exists and nodes running them are simply never parked.
    fn decision_fingerprint(&self) -> Option<u64> {
        None
    }

    /// The pair every exactly-idle `(+0.0, +0.0)` step to come selects,
    /// with the steps left to a fixed point when a precomputed path leads
    /// to one, or `None` (the default) when the learner cannot say. The
    /// fleet uses it to stop ticking an idle node whose decision has
    /// settled (see [`IdleSettle`]).
    fn idle_settled(&self) -> Option<IdleSettle> {
        None
    }

    /// Applies `steps` exactly-idle observations at once: the learner
    /// ends where `steps` calls of `decide(+0.0, +0.0, ..)` under a mask
    /// admitting the settled pair would leave it, interval counters
    /// included, without recording telemetry. Only called while
    /// [`FreqPolicy::idle_settled`] is `Some`, or on a learner parked at a
    /// fixed point: two consecutive idle decides left its
    /// [`FreqPolicy::decision_fingerprint`] unchanged, so each step only
    /// counts itself. The default does nothing, which is exact for a
    /// policy that snapshots no interval count.
    fn fast_forward_idle(&mut self, steps: u64) {
        let _ = steps;
    }

    /// Downcast hook (e.g. to reach the concrete [`WmaScaler`] behind a
    /// controller's boxed policy).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A learner's settled idle decision ([`FreqPolicy::idle_settled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleSettle {
    /// The pair every idle step to come selects: the first maximum, in
    /// the argmax's row-major order, of every table those steps pass
    /// through, so any mask that admits it selects it too.
    pub pair: (usize, usize),
    /// Idle steps left along a precomputed path that ends at a fixed
    /// point (0 at its last table): every step after them changes
    /// nothing, and a fleet node parks there. `None` when no such path is
    /// known (WMA on an orbit cut off before its fixed point, or off the
    /// orbit): the pair still holds for every idle step to come.
    pub parks_after: Option<u64>,
}

/// Shared checkpoint (de)serialization helpers used by every
/// [`FreqPolicy::snapshot`]/[`FreqPolicy::restore`] implementation (the
/// `greengpu` crate reuses them for the division controller). All
/// parsers validate *fully* before the caller mutates anything, and
/// every error names the offending field.
pub mod snap {
    use greengpu_sim::{JsonValue, JsonWriter};

    /// Writes an optional `(i, j)` pair as `[i, j]` or `null`.
    pub fn pair(w: &mut JsonWriter<'_>, current: Option<(usize, usize)>) {
        match current {
            Some((i, j)) => {
                w.arr(|w| {
                    w.usize(i).usize(j);
                });
            }
            None => {
                w.null();
            }
        }
    }

    /// Looks up a required field of an object snapshot.
    pub fn field<'a>(v: &'a JsonValue, name: &str) -> Result<&'a JsonValue, String> {
        v.get(name).ok_or_else(|| format!("snapshot missing field {name:?}"))
    }

    /// Decodes an optional in-range pair encoded by [`pair`].
    pub fn parse_pair(
        v: &JsonValue,
        name: &str,
        n_core: usize,
        n_mem: usize,
    ) -> Result<Option<(usize, usize)>, String> {
        if v.is_null() {
            return Ok(None);
        }
        let arr = v.as_arr().ok_or_else(|| format!("{name} must be [i, j] or null"))?;
        if arr.len() != 2 {
            return Err(format!("{name} must have exactly 2 elements, got {}", arr.len()));
        }
        let i = arr[0].as_usize().ok_or_else(|| format!("{name}[0] must be an index"))?;
        let j = arr[1].as_usize().ok_or_else(|| format!("{name}[1] must be an index"))?;
        if i >= n_core || j >= n_mem {
            return Err(format!("{name} ({i}, {j}) out of {n_core}x{n_mem} grid"));
        }
        Ok(Some((i, j)))
    }

    /// Decodes a fixed-length array of finite `f64`s.
    pub fn parse_f64_vec(v: &JsonValue, name: &str, len: usize) -> Result<Vec<f64>, String> {
        let arr = v.as_arr().ok_or_else(|| format!("{name} must be an array"))?;
        if arr.len() != len {
            return Err(format!("{name} must have {len} elements, got {}", arr.len()));
        }
        arr.iter()
            .enumerate()
            .map(|(k, x)| x.as_f64().ok_or_else(|| format!("{name}[{k}] must be a finite number")))
            .collect()
    }

    /// Decodes a fixed-length array of `u64`s (exact, no float detour).
    pub fn parse_u64_vec(v: &JsonValue, name: &str, len: usize) -> Result<Vec<u64>, String> {
        let arr = v.as_arr().ok_or_else(|| format!("{name} must be an array"))?;
        if arr.len() != len {
            return Err(format!("{name} must have {len} elements, got {}", arr.len()));
        }
        arr.iter()
            .enumerate()
            .map(|(k, x)| {
                x.as_u64()
                    .ok_or_else(|| format!("{name}[{k}] must be a non-negative integer"))
            })
            .collect()
    }

    /// Decodes a required `u64` field.
    pub fn parse_u64(v: &JsonValue, name: &str) -> Result<u64, String> {
        field(v, name)?
            .as_u64()
            .ok_or_else(|| format!("{name} must be a non-negative integer"))
    }
}

/// Shared helper: hold `current` under the mask — keep it if feasible,
/// otherwise fall back to the lowest feasible pair, or `(0, 0)` when the
/// mask is empty (the caller counts the fallback).
pub(crate) fn hold_masked(
    current: (usize, usize),
    n_core: usize,
    n_mem: usize,
    feasible: &dyn Fn(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    if feasible(current.0, current.1) {
        return Some(current);
    }
    (0..n_core)
        .flat_map(|i| (0..n_mem).map(move |j| (i, j)))
        .find(|&(i, j)| feasible(i, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_keeps_feasible_current_and_degrades_in_order() {
        assert_eq!(hold_masked((1, 2), 2, 3, &|_, _| true), Some((1, 2)));
        assert_eq!(hold_masked((1, 2), 2, 3, &|i, j| i == 0 && j == 1), Some((0, 1)));
        assert_eq!(hold_masked((1, 2), 2, 3, &|_, _| false), None);
    }
}
