//! Discrete frequency domains.
//!
//! Both GPU domains (core, memory) and the CPU expose a small set of
//! discrete frequency levels — the paper uses six equal-distance levels per
//! GPU domain (selected with `nvidia-settings`) and the Phenom II's four
//! P-states. A [`FrequencyDomain`] tracks the current level, records every
//! transition in a step trace, and provides the `umean` linear mapping from
//! levels to "most suitable utilization" that the WMA loss function is built
//! on (paper §V-A, after Dhiman & Rosing).

use greengpu_sim::{SimTime, StepTrace};

/// Checks a level table the way [`FrequencyDomain::new`] needs it: at
/// least two levels, all finite and positive, strictly ascending. The
/// non-panicking form spec validation reports; callers prefix the field.
pub(crate) fn check_levels(levels_mhz: &[f64]) -> Result<(), String> {
    if levels_mhz.len() < 2 {
        return Err(format!("need at least two levels, got {}", levels_mhz.len()));
    }
    if let Some(f) = levels_mhz.iter().find(|f| !(f.is_finite() && **f > 0.0)) {
        return Err(format!("levels must be finite and positive, got {f}"));
    }
    if let Some(w) = levels_mhz.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!("levels must be strictly ascending, got {} then {}", w[0], w[1]));
    }
    Ok(())
}

/// A clock domain with discrete levels, e.g. the 8800 GTX memory domain at
/// {500, 580, 660, 740, 820, 900} MHz.
#[derive(Debug, Clone)]
pub struct FrequencyDomain {
    name: String,
    /// Levels in MHz, strictly ascending; the last entry is the peak.
    levels_mhz: Vec<f64>,
    current: usize,
    trace: StepTrace,
    transitions: u64,
}

impl FrequencyDomain {
    /// Creates a domain with the given ascending levels, starting at
    /// `initial` (a level index).
    ///
    /// # Panics
    /// If fewer than two levels are given, levels are not strictly
    /// ascending/positive, or `initial` is out of range.
    pub fn new(name: impl Into<String>, levels_mhz: &[f64], initial: usize) -> Self {
        assert!(levels_mhz.len() >= 2, "need at least two frequency levels");
        assert!(
            levels_mhz.windows(2).all(|w| w[0] < w[1]) && levels_mhz[0] > 0.0,
            "levels must be positive and strictly ascending"
        );
        assert!(initial < levels_mhz.len(), "initial level out of range");
        let mut trace = StepTrace::new();
        trace.set(SimTime::ZERO, levels_mhz[initial]);
        FrequencyDomain {
            name: name.into(),
            levels_mhz: levels_mhz.to_vec(),
            current: initial,
            trace,
            transitions: 0,
        }
    }

    /// Domain name (for traces/reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of available levels (the paper's `N` or `M`).
    pub fn level_count(&self) -> usize {
        self.levels_mhz.len()
    }

    /// Index of the current level.
    pub fn current_level(&self) -> usize {
        self.current
    }

    /// Current frequency in MHz.
    pub fn current_mhz(&self) -> f64 {
        self.levels_mhz[self.current]
    }

    /// Frequency of level `i` in MHz.
    pub fn mhz(&self, i: usize) -> f64 {
        self.levels_mhz[i]
    }

    /// Index of the peak (highest) level.
    pub fn peak_level(&self) -> usize {
        self.levels_mhz.len() - 1
    }

    /// The "most suitable utilization" of level `i` under the linear map of
    /// paper §V-A: the peak level suits 100 % utilization, the lowest suits
    /// 0 %, intermediate levels are linearly interpolated by index.
    pub fn umean(&self, i: usize) -> f64 {
        assert!(i < self.levels_mhz.len());
        i as f64 / (self.levels_mhz.len() - 1) as f64
    }

    /// Switches to level `index` at time `at`, recording the transition.
    /// Switching to the current level is a no-op.
    pub fn set_level(&mut self, at: SimTime, index: usize) {
        assert!(index < self.levels_mhz.len(), "level {index} out of range");
        if index == self.current {
            return;
        }
        self.current = index;
        self.trace.set(at, self.levels_mhz[index]);
        self.transitions += 1;
    }

    /// Steps one level down (toward lower frequency), saturating at the
    /// lowest level. Returns the new index.
    pub fn step_down(&mut self, at: SimTime) -> usize {
        if self.current > 0 {
            self.set_level(at, self.current - 1);
        }
        self.current
    }

    /// Jumps to the peak level.
    pub fn set_peak(&mut self, at: SimTime) {
        self.set_level(at, self.peak_level());
    }

    /// Number of level changes performed so far.
    pub fn transition_count(&self) -> u64 {
        self.transitions
    }

    /// Full frequency trace in MHz.
    pub fn trace(&self) -> &StepTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM_LEVELS: &[f64] = &[500.0, 580.0, 660.0, 740.0, 820.0, 900.0];

    fn mem_domain() -> FrequencyDomain {
        FrequencyDomain::new("gpu-mem", MEM_LEVELS, 0)
    }

    #[test]
    fn check_levels_accepts_what_new_accepts() {
        assert_eq!(check_levels(MEM_LEVELS), Ok(()));
        for (levels, want) in [
            (&[575.0][..], "at least two"),
            (&[], "at least two"),
            (&[500.0, f64::NAN], "finite and positive"),
            (&[0.0, 500.0], "finite and positive"),
            (&[500.0, f64::INFINITY], "finite and positive"),
            (&[900.0, 500.0], "strictly ascending"),
            (&[500.0, 500.0], "strictly ascending"),
        ] {
            let err = check_levels(levels).unwrap_err();
            assert!(err.contains(want), "{levels:?}: {err}");
        }
    }

    #[test]
    fn paper_memory_levels_round_trip() {
        let d = mem_domain();
        assert_eq!(d.level_count(), 6);
        assert_eq!(d.current_mhz(), 500.0);
        assert_eq!(d.mhz(5), 900.0);
        assert_eq!(d.peak_level(), 5);
    }

    #[test]
    fn umean_is_linear_in_index() {
        let d = mem_domain();
        assert_eq!(d.umean(0), 0.0);
        assert_eq!(d.umean(5), 1.0);
        assert!((d.umean(1) - 0.2).abs() < 1e-12);
        assert!((d.umean(4) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn set_level_records_trace() {
        let mut d = mem_domain();
        d.set_level(SimTime::from_secs(3), 4);
        assert_eq!(d.current_mhz(), 820.0);
        assert_eq!(d.trace().value_at(SimTime::from_secs(1)), 500.0);
        assert_eq!(d.trace().value_at(SimTime::from_secs(4)), 820.0);
        assert_eq!(d.transition_count(), 1);
    }

    #[test]
    fn setting_same_level_is_noop() {
        let mut d = mem_domain();
        d.set_level(SimTime::from_secs(1), 0);
        assert_eq!(d.transition_count(), 0);
        assert_eq!(d.trace().len(), 1);
    }

    #[test]
    fn step_down_saturates() {
        let mut d = FrequencyDomain::new("x", MEM_LEVELS, 1);
        assert_eq!(d.step_down(SimTime::from_secs(1)), 0);
        assert_eq!(d.step_down(SimTime::from_secs(2)), 0);
        assert_eq!(d.transition_count(), 1);
    }

    #[test]
    fn set_peak_jumps_to_top() {
        let mut d = mem_domain();
        d.set_peak(SimTime::from_secs(1));
        assert_eq!(d.current_level(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn non_ascending_levels_panic() {
        FrequencyDomain::new("bad", &[900.0, 500.0], 0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_level_panics() {
        FrequencyDomain::new("bad", &[500.0], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_initial_panics() {
        FrequencyDomain::new("bad", MEM_LEVELS, 6);
    }
}
