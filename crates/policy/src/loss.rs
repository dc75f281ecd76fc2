//! The Table-I loss model: the one definition every policy learns from
//! or is scored on.
//!
//! Each level has a *suitable utilization* `umean` on the Dhiman–Rosing
//! linear map. A level below the observed utilization is charged
//! performance loss `u − umean`, a level above it energy loss
//! `umean − u` ([`table1_loss`]); `α` folds the two per domain
//! ([`level_loss`], Eqs. 1–2) and `φ` combines the domains
//! ([`LossModel::loss`], Eq. 3). The WMA scaler learns from this loss,
//! both bandits charge it (plus the switching penalty), and regret is
//! measured in its units, so WMA, EXP3, UCB and the deadline selector are
//! all scored on one scale.

/// The per-level loss of Table I.
///
/// Returns `(energy_loss, performance_loss)` for observed utilization `u`
/// against a level's suitable utilization `umean`.
pub fn table1_loss(u: f64, umean: f64) -> (f64, f64) {
    if u > umean {
        (0.0, u - umean)
    } else {
        (umean - u, 0.0)
    }
}

/// One domain's level loss (Eqs. 1–2): Table I's two losses folded with
/// the domain's `α`.
pub fn level_loss(alpha: f64, u: f64, umean: f64) -> f64 {
    let (le, lp) = table1_loss(u, umean);
    alpha * le + (1.0 - alpha) * lp
}

/// Loss-shaping constants (the paper's fitted values as defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossParams {
    /// Energy-vs-performance trade-off for the core domain (`α_c = 0.15`).
    pub alpha_core: f64,
    /// Trade-off for the memory domain (`α_m = 0.02`).
    pub alpha_mem: f64,
    /// Core/memory loss balance (`φ = 0.3`).
    pub phi: f64,
}

impl Default for LossParams {
    fn default() -> Self {
        LossParams {
            alpha_core: 0.15,
            alpha_mem: 0.02,
            phi: 0.3,
        }
    }
}

impl LossParams {
    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("alpha_core", self.alpha_core),
            ("alpha_mem", self.alpha_mem),
            ("phi", self.phi),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        Ok(())
    }
}

/// The per-pair Table-I loss over an `N×M` grid.
#[derive(Debug, Clone)]
pub struct LossModel {
    params: LossParams,
    ucmean: Vec<f64>,
    ummean: Vec<f64>,
}

impl LossModel {
    /// Builds the model for `n_core × n_mem` levels with the linear
    /// `umean` maps (peak level suits 100 % utilization, lowest suits
    /// 0 %, intermediates evenly spaced).
    pub fn new(n_core: usize, n_mem: usize, params: LossParams) -> Self {
        assert!(n_core >= 2 && n_mem >= 2, "need at least two levels per domain");
        params.try_validate().expect("valid loss params");
        let linmap = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64 / (n - 1) as f64).collect() };
        LossModel {
            params,
            ucmean: linmap(n_core),
            ummean: linmap(n_mem),
        }
    }

    /// Grid shape `(n_core, n_mem)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.ucmean.len(), self.ummean.len())
    }

    /// Closed-form per-domain argmin of the V-shaped level loss.
    ///
    /// Each domain's loss is piecewise linear in `umean` with slope
    /// `−(1−α)` below the observed utilization and `+α` above it, so the
    /// minimizer is one of the two levels bracketing `u` on the linear
    /// map — no grid scan needed. Because Eq. 3 is separable and `φ`
    /// weights both domains positively (`φ ∈ (0, 1)`), the pair of
    /// per-domain minimizers is exactly the grid argmin, with the same
    /// lower-level tie-break as [`DecisionTracker::best_static`]. This
    /// is the per-interval *sweet-spot oracle* the contextual policies
    /// are scored against.
    ///
    /// [`DecisionTracker::best_static`]: crate::telemetry::DecisionTracker::best_static
    pub fn sweet_spot(&self, u_core: f64, u_mem: f64) -> (usize, usize) {
        (
            Self::domain_argmin(&self.ucmean, u_core.clamp(0.0, 1.0), self.params.alpha_core),
            Self::domain_argmin(&self.ummean, u_mem.clamp(0.0, 1.0), self.params.alpha_mem),
        )
    }

    /// The lower/upper bracketing level with the smaller V-loss (ties
    /// toward the lower level, matching row-major exhaustive scans).
    fn domain_argmin(means: &[f64], u: f64, alpha: f64) -> usize {
        let n = means.len();
        let lo = ((u * (n - 1) as f64).floor() as usize).min(n - 1);
        let hi = (lo + 1).min(n - 1);
        if level_loss(alpha, u, means[lo]) <= level_loss(alpha, u, means[hi]) {
            lo
        } else {
            hi
        }
    }

    /// Core level `i`'s weighted share of Eq. 3, `φ · L_core(i)`, under
    /// the clamped utilization.
    pub fn core_term(&self, i: usize, u_core: f64) -> f64 {
        self.params.phi * level_loss(self.params.alpha_core, u_core.clamp(0.0, 1.0), self.ucmean[i])
    }

    /// Memory level `j`'s weighted share of Eq. 3, `(1 − φ) · L_mem(j)`,
    /// under the clamped utilization.
    pub fn mem_term(&self, j: usize, u_mem: f64) -> f64 {
        (1.0 - self.params.phi) * level_loss(self.params.alpha_mem, u_mem.clamp(0.0, 1.0), self.ummean[j])
    }

    /// The combined Eq. 3 loss of pair `(i, j)` under clamped
    /// utilizations — always in `[0, 1]`. Eq. 3 is separable: this is
    /// exactly `core_term(i) + mem_term(j)`.
    pub fn loss(&self, i: usize, j: usize, u_core: f64, u_mem: f64) -> f64 {
        self.core_term(i, u_core) + self.mem_term(j, u_mem)
    }
}

/// Levels per domain whose terms [`LevelTerms`] keeps on the stack.
const INLINE_LEVELS: usize = 16;

/// One domain's per-level loss terms for a single interval, computed
/// once and then read for every pair: Eq. 3 is separable, so a sweep of
/// the `N×M` grid needs `N + M` domain losses instead of `2·N·M`. A pair
/// still adds its two terms in the order [`LossModel::loss`] does, so
/// every sum keeps its bits. The first 16 levels are held on the stack;
/// a longer table (no modeled card has one) recomputes the rest on each
/// read, which gives the same values.
pub struct LevelTerms<F: Fn(usize) -> f64> {
    inline: [f64; INLINE_LEVELS],
    term: F,
}

impl<F: Fn(usize) -> f64> LevelTerms<F> {
    /// Evaluates `term` for levels `0..n` (up to the inline capacity).
    pub fn new(n: usize, term: F) -> Self {
        let mut inline = [0.0; INLINE_LEVELS];
        for (k, v) in inline.iter_mut().enumerate().take(n) {
            *v = term(k);
        }
        LevelTerms { inline, term }
    }

    /// Level `k`'s term (`k` below the `n` it was built for).
    pub fn get(&self, k: usize) -> f64 {
        match self.inline.get(k) {
            Some(&v) => v,
            None => (self.term)(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_at_matching_level() {
        let m = LossModel::new(6, 6, LossParams::default());
        // u exactly on level 3's umean (0.6): that pair has zero loss.
        assert_eq!(m.loss(3, 3, 0.6, 0.6), 0.0);
        assert!(m.loss(0, 0, 0.6, 0.6) > 0.0);
        assert!(m.loss(5, 5, 0.6, 0.6) > 0.0);
    }

    #[test]
    fn losses_stay_in_unit_interval() {
        let m = LossModel::new(6, 6, LossParams::default());
        for i in 0..6 {
            for j in 0..6 {
                for u in [0.0, 0.3, 0.7, 1.0, -2.0, 5.0] {
                    let l = m.loss(i, j, u, 1.0 - u);
                    assert!((0.0..=1.0).contains(&l), "loss {l}");
                }
            }
        }
    }

    #[test]
    fn hoisted_level_terms_sum_to_the_pair_loss_bit_for_bit() {
        // 20 memory levels also exercises the recomputed tail past the
        // inline capacity.
        let m = LossModel::new(7, 20, LossParams::default());
        for &(uc, um) in &[(0.0, 1.0), (0.37, 0.61), (1.3, -0.2), (0.5, 0.5)] {
            let core = LevelTerms::new(7, |i| m.core_term(i, uc));
            let mem = LevelTerms::new(20, |j| m.mem_term(j, um));
            for i in 0..7 {
                for j in 0..20 {
                    assert_eq!((core.get(i) + mem.get(j)).to_bits(), m.loss(i, j, uc, um).to_bits());
                }
            }
        }
    }

    #[test]
    fn try_validate_names_the_offending_field() {
        let bad = LossParams {
            phi: 1.5,
            ..LossParams::default()
        };
        let err = bad.try_validate().unwrap_err();
        assert!(err.contains("phi"), "{err}");
        assert!(LossParams::default().try_validate().is_ok());
    }

    #[test]
    fn sweet_spot_matches_exhaustive_grid_argmin() {
        // The closed form must agree with a row-major exhaustive scan
        // (strict-< keeps the first minimum, i.e. lower levels on ties)
        // across the whole utilization square, including level-exact and
        // out-of-range inputs.
        let m = LossModel::new(6, 6, LossParams::default());
        let mut us: Vec<f64> = (0..=20).map(|k| k as f64 / 20.0).collect();
        us.extend([-0.5, 1.5, 0.123_456, 0.999_99]);
        for &uc in &us {
            for &um in &us {
                let mut best = (0, 0);
                let mut best_l = f64::INFINITY;
                for i in 0..6 {
                    for j in 0..6 {
                        let l = m.loss(i, j, uc, um);
                        if l < best_l {
                            best_l = l;
                            best = (i, j);
                        }
                    }
                }
                assert_eq!(m.sweet_spot(uc, um), best, "u = ({uc}, {um})");
            }
        }
    }

    #[test]
    fn sweet_spot_is_exact_on_level_means() {
        let m = LossModel::new(6, 6, LossParams::default());
        for i in 0..6 {
            let u = i as f64 / 5.0;
            assert_eq!(m.sweet_spot(u, u), (i, i));
        }
    }

    #[test]
    fn table1_loss_matches_the_paper_table() {
        // u > umean → pure performance loss.
        let (le, lp) = table1_loss(0.9, 0.6);
        assert!(le == 0.0 && (lp - 0.3).abs() < 1e-12);
        // u < umean → pure energy loss.
        let (le, lp) = table1_loss(0.2, 0.6);
        assert!((le - 0.4).abs() < 1e-12 && lp == 0.0);
        // u == umean → no loss.
        assert_eq!(table1_loss(0.5, 0.5), (0.0, 0.0));
    }

    #[test]
    fn pair_loss_matches_hand_computed_eqs_1_to_3() {
        let m = LossModel::new(6, 6, LossParams::default());
        // u_core = 0.9 on umean 0.6: perf loss 0.3, folded by (1-0.15).
        // u_mem = 0.2 on umean 0.6: energy loss 0.4, folded by 0.02.
        let expect = 0.3 * (0.85 * 0.3) + 0.7 * (0.02 * 0.4);
        assert!((m.loss(3, 3, 0.9, 0.2) - expect).abs() < 1e-12);
    }
}
