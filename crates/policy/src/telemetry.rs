//! Per-interval policy telemetry: cumulative loss, switches, regret.
//!
//! Every policy owns a [`DecisionTracker`], the *experimenter's* view of
//! the run: it charges each enforced pair the full-information Table-I
//! loss (even for bandit policies, which only *learn* from their chosen
//! arm), accumulates the per-pair static losses, and reports regret
//! against the best static pair in hindsight. Because a static
//! comparator never switches, the tracker's regret compares the policy's
//! *charged* loss (base + switching penalties actually incurred) to the
//! comparator's pure base loss.

use crate::loss::{LevelTerms, LossModel};

/// Snapshot of a policy's accumulated telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyTelemetry {
    /// Decision intervals processed (valid observations only).
    pub intervals: u64,
    /// Enforced-pair changes between consecutive intervals.
    pub switches: u64,
    /// Cumulative charged loss: Table-I base loss of the enforced pair
    /// plus any switching penalty incurred.
    pub cumulative_loss: f64,
    /// Cumulative Table-I base loss only (no switching penalties).
    pub base_loss: f64,
    /// Cumulative loss of the best static pair in hindsight.
    pub best_static_loss: f64,
    /// Regret: `cumulative_loss − best_static_loss`.
    pub regret: f64,
    /// Cumulative loss of the per-interval sweet-spot oracle: the
    /// closed-form [`LossModel::sweet_spot`] pair charged each interval.
    /// A *dynamic* comparator — it re-optimizes every interval, so it
    /// lower-bounds every static comparator and every policy.
    pub oracle_loss: f64,
    /// Exact-oracle regret: `cumulative_loss − oracle_loss`. Always
    /// ≥ `regret`; the gap between the two is what phase-conditioned
    /// policies can close on phase-cycling workloads.
    pub oracle_regret: f64,
    /// Intervals whose feasible set was empty (decision degraded to the
    /// lowest-power pair `(0, 0)`).
    pub empty_mask_fallbacks: u64,
    /// Non-finite utilization observations rejected without learning.
    pub invalid_inputs: u64,
}

/// Accumulates [`PolicyTelemetry`] for one policy instance.
#[derive(Debug, Clone)]
pub struct DecisionTracker {
    model: LossModel,
    /// Row-major per-pair cumulative base loss (the static comparators).
    static_loss: Vec<f64>,
    last: Option<(usize, usize)>,
    telemetry: PolicyTelemetry,
}

impl DecisionTracker {
    /// A fresh tracker scoring against `model`.
    pub fn new(model: LossModel) -> Self {
        let (n_core, n_mem) = model.shape();
        DecisionTracker {
            model,
            static_loss: vec![0.0; n_core * n_mem],
            last: None,
            telemetry: PolicyTelemetry::default(),
        }
    }

    /// The loss model decisions are scored against — also the one the
    /// WMA scaler and the bandits learn from, so a policy holds one.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// Records one valid decision interval: the enforced `pair` under
    /// clamped utilizations, plus the switching penalty the policy
    /// actually charged itself (0 for switching-oblivious policies).
    pub fn record(&mut self, u_core: f64, u_mem: f64, pair: (usize, usize), switching_penalty: f64) {
        let (n_core, n_mem) = self.model.shape();
        debug_assert!(pair.0 < n_core && pair.1 < n_mem, "pair out of range");
        let core = LevelTerms::new(n_core, |i| self.model.core_term(i, u_core));
        let mem = LevelTerms::new(n_mem, |j| self.model.mem_term(j, u_mem));
        let loss = |(i, j): (usize, usize)| core.get(i) + mem.get(j);
        for (i, row) in self.static_loss.chunks_exact_mut(n_mem).enumerate() {
            for (j, l) in row.iter_mut().enumerate() {
                *l += loss((i, j));
            }
        }
        let base = loss(pair);
        if let Some(last) = self.last {
            if last != pair {
                self.telemetry.switches += 1;
            }
        }
        self.last = Some(pair);
        self.telemetry.intervals += 1;
        self.telemetry.base_loss += base;
        self.telemetry.cumulative_loss += base + switching_penalty.max(0.0);
        let best = self.static_loss.iter().copied().fold(f64::INFINITY, f64::min);
        self.telemetry.best_static_loss = best;
        self.telemetry.regret = self.telemetry.cumulative_loss - best;
        self.telemetry.oracle_loss += loss(self.model.sweet_spot(u_core, u_mem));
        self.telemetry.oracle_regret = self.telemetry.cumulative_loss - self.telemetry.oracle_loss;
    }

    /// Counts an empty-feasible-set fallback.
    pub fn note_empty_mask(&mut self) {
        self.telemetry.empty_mask_fallbacks += 1;
    }

    /// Counts a rejected non-finite observation.
    pub fn note_invalid(&mut self) {
        self.telemetry.invalid_inputs += 1;
    }

    /// The best static pair in hindsight and its cumulative base loss
    /// (ties toward lower levels).
    pub fn best_static(&self) -> ((usize, usize), f64) {
        let (n_core, n_mem) = self.model.shape();
        let mut best = (0, 0);
        let mut best_l = f64::INFINITY;
        for i in 0..n_core {
            for j in 0..n_mem {
                let l = self.static_loss[i * n_mem + j];
                if l < best_l {
                    best_l = l;
                    best = (i, j);
                }
            }
        }
        ((best), if best_l.is_finite() { best_l } else { 0.0 })
    }

    /// The telemetry snapshot.
    pub fn telemetry(&self) -> &PolicyTelemetry {
        &self.telemetry
    }

    /// Resets all accumulators.
    pub fn reset(&mut self) {
        self.static_loss.iter_mut().for_each(|l| *l = 0.0);
        self.last = None;
        self.telemetry = PolicyTelemetry::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossParams;

    fn tracker() -> DecisionTracker {
        DecisionTracker::new(LossModel::new(6, 6, LossParams::default()))
    }

    #[test]
    fn switches_count_pair_changes_only() {
        let mut t = tracker();
        t.record(0.5, 0.5, (2, 2), 0.0);
        t.record(0.5, 0.5, (2, 2), 0.0);
        t.record(0.5, 0.5, (3, 2), 0.0);
        t.record(0.5, 0.5, (2, 2), 0.0);
        assert_eq!(t.telemetry().switches, 2);
        assert_eq!(t.telemetry().intervals, 4);
    }

    #[test]
    fn static_best_pair_has_zero_regret() {
        // Always playing the hindsight-best pair with no switching
        // penalty gives exactly zero regret.
        let mut t = tracker();
        for _ in 0..20 {
            t.record(0.6, 0.6, (3, 3), 0.0);
        }
        assert_eq!(t.best_static().0, (3, 3));
        assert!(t.telemetry().regret.abs() < 1e-12, "regret {}", t.telemetry().regret);
    }

    #[test]
    fn switching_penalties_inflate_charged_loss_and_regret() {
        let mut a = tracker();
        let mut b = tracker();
        for k in 0..10 {
            let pair = if k % 2 == 0 { (3, 3) } else { (4, 3) };
            a.record(0.6, 0.6, pair, 0.0);
            b.record(0.6, 0.6, pair, 0.05);
        }
        assert_eq!(a.telemetry().base_loss, b.telemetry().base_loss);
        assert!(b.telemetry().cumulative_loss > a.telemetry().cumulative_loss);
        assert!(b.telemetry().regret > a.telemetry().regret);
    }

    #[test]
    fn counters_and_reset() {
        let mut t = tracker();
        t.note_empty_mask();
        t.note_invalid();
        t.record(0.5, 0.5, (1, 1), 0.0);
        assert_eq!(t.telemetry().empty_mask_fallbacks, 1);
        assert_eq!(t.telemetry().invalid_inputs, 1);
        t.reset();
        assert_eq!(t.telemetry(), &PolicyTelemetry::default());
        assert_eq!(t.last, None);
    }

    #[test]
    fn oracle_regret_dominates_static_regret() {
        // The dynamic sweet-spot comparator re-optimizes per interval,
        // so its cumulative loss lower-bounds the best static pair's —
        // oracle_regret ≥ regret, with equality only on constant traces.
        let mut t = tracker();
        for k in 0..12 {
            let u = if k % 2 == 0 { 0.85 } else { 0.25 };
            t.record(u, 1.0 - u, (3, 3), 0.0);
        }
        let telem = t.telemetry();
        assert!(telem.oracle_loss <= telem.best_static_loss + 1e-12);
        assert!(telem.oracle_regret >= telem.regret - 1e-12);
        assert!(
            telem.oracle_regret > telem.regret + 1e-9,
            "a fluctuating trace must open a gap: {} vs {}",
            telem.oracle_regret,
            telem.regret
        );
    }

    #[test]
    fn oracle_has_zero_regret_against_itself_on_level_exact_traces() {
        let mut t = tracker();
        for _ in 0..10 {
            // u sits exactly on level 3's umean: sweet spot is (3, 3)
            // with zero loss, and playing it charges zero loss.
            t.record(0.6, 0.6, (3, 3), 0.0);
        }
        assert_eq!(t.telemetry().oracle_loss, 0.0);
        assert!(t.telemetry().oracle_regret.abs() < 1e-12);
    }

    #[test]
    fn regret_is_never_negative_without_switching_credit() {
        // Charged loss of any trajectory is ≥ the best static pair's
        // base loss when penalties are non-negative... per-interval the
        // chosen pair can beat the *cumulative* static best early, so we
        // only check the defining identity.
        let mut t = tracker();
        t.record(0.9, 0.1, (5, 0), 0.0);
        t.record(0.1, 0.9, (0, 5), 0.02);
        let telem = t.telemetry();
        assert!((telem.regret - (telem.cumulative_loss - telem.best_static_loss)).abs() < 1e-12);
    }
}
