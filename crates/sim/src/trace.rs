//! Piecewise-constant signal traces.
//!
//! The meters and sensors in `greengpu-hw` record power, frequency and
//! utilization as *step signals*: a value holds from the instant it is set
//! until the next change. [`StepTrace`] stores such a signal and integrates
//! it exactly — energy is literally `trace.integral(..)` of the power trace.
//! [`SampledSeries`] holds fixed-interval samples (what a 1 Hz Wattsup meter
//! or a polled nvidia-smi would report).

use crate::time::{SimDuration, SimTime};

/// A right-continuous step signal: `(t_i, v_i)` means the signal equals
/// `v_i` on `[t_i, t_{i+1})`.
///
/// The last breakpoint lives inline and only the earlier ones on the
/// heap: a trace that never changes allocates nothing, and a query about
/// the current segment — what every control-interval poll asks — never
/// reads the heap.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// Every breakpoint before `last`, in time order.
    head: Vec<(SimTime, f64)>,
    /// The latest breakpoint (`None` until the first `set`).
    last: Option<(SimTime, f64)>,
}

impl StepTrace {
    /// Creates an empty trace (value is undefined before the first `set`;
    /// queries there return 0).
    pub fn new() -> Self {
        StepTrace::default()
    }

    /// Creates a trace with an initial value at t = 0.
    pub fn with_initial(value: f64) -> Self {
        StepTrace {
            head: Vec::new(),
            last: Some((SimTime::ZERO, value)),
        }
    }

    /// Sets the signal value from `at` onward. `at` must be ≥ the last set
    /// time; setting at the same instant overwrites (last-writer-wins), and
    /// redundant sets (same value) are coalesced.
    pub fn set(&mut self, at: SimTime, value: f64) {
        if let Some((t_last, ref mut v_last)) = self.last {
            assert!(at >= t_last, "trace updates must be time-ordered: {at} < {t_last}");
            if t_last == at {
                *v_last = value;
                // Coalesce if this overwrite makes the segment redundant.
                if self.head.last().is_some_and(|&(_, v_prev)| v_prev == value) {
                    self.last = self.head.pop();
                }
                return;
            }
            if *v_last == value {
                return; // redundant
            }
            self.head.push((t_last, *v_last));
        }
        self.last = Some((at, value));
    }

    /// The signal value at `at` (0 before the first point).
    pub fn value_at(&self, at: SimTime) -> f64 {
        match self.last {
            Some((t_last, v_last)) if at >= t_last => v_last,
            _ => match self.head.binary_search_by(|&(t, _)| t.cmp(&at)) {
                Ok(i) => self.head[i].1,
                Err(0) => 0.0,
                Err(i) => self.head[i - 1].1,
            },
        }
    }

    /// The most recently set value (0 if empty).
    pub fn last_value(&self) -> f64 {
        self.last.map_or(0.0, |(_, v)| v)
    }

    /// Exact integral of the signal over `[from, to)`.
    ///
    /// For a power trace in watts this is energy in joules.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        let Some((t_last, v_last)) = self.last else {
            return 0.0;
        };
        if to <= from {
            return 0.0;
        }
        // A window inside the last segment is one term, in O(1) and
        // without touching the heap: exactly the term a full scan would
        // add to its 0.0 start, so `0.0 +` keeps a −0.0 value's sum +0.0.
        if from >= t_last {
            return 0.0 + v_last * (to - from).as_secs_f64();
        }
        // Otherwise segments ending at or before `from` contribute exactly
        // nothing, so binary-search `head` straight to the segment
        // containing `from` (O(log P + segments in the window)) and scan
        // on through `last`. The summed terms and their order are those of
        // a full scan, so the result is bit-for-bit unchanged.
        let first = self.head.partition_point(|&(t, _)| t <= from).saturating_sub(1);
        let mut segments = self.head[first..].iter().copied().chain(self.last).peekable();
        let mut acc = 0.0;
        while let Some((t_i, v_i)) = segments.next() {
            let seg_start = t_i.max(from);
            let seg_end = segments.peek().map_or(to, |&(t_next, _)| t_next.min(to));
            if seg_end > seg_start {
                acc += v_i * (seg_end - seg_start).as_secs_f64();
            }
            if t_i >= to {
                break;
            }
        }
        acc
    }

    /// Time-weighted mean over `[from, to)`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from).as_secs_f64();
        // lint:allow(float_eq) empty-window guard; saturating_since yields exactly 0.0
        if span == 0.0 {
            return 0.0;
        }
        self.integral(from, to) / span
    }

    /// Iterator over the breakpoints.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.head.iter().copied().chain(self.last)
    }

    /// Number of breakpoints stored.
    pub fn len(&self) -> usize {
        self.head.len() + usize::from(self.last.is_some())
    }

    /// True when no value has been set yet.
    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// Samples the trace at a fixed period starting at `start`, producing
    /// `n` samples — e.g. what a 1 Hz power meter would log.
    pub fn sample(&self, start: SimTime, period: SimDuration, n: usize) -> SampledSeries {
        let mut out = SampledSeries::new(start, period);
        let mut t = start;
        for _ in 0..n {
            out.push(self.value_at(t));
            t += period;
        }
        out
    }
}

/// Fixed-rate samples of a signal: `value[i]` was observed at
/// `start + i·period`.
#[derive(Debug, Clone)]
pub struct SampledSeries {
    start: SimTime,
    period: SimDuration,
    values: Vec<f64>,
}

impl SampledSeries {
    /// Creates an empty series.
    pub fn new(start: SimTime, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        SampledSeries {
            start,
            period,
            values: Vec::new(),
        }
    }

    /// Appends the next sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The recorded samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample timestamps, paired with values.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values.iter().enumerate().map(move |(i, &v)| {
            (
                self.start + SimDuration::from_micros(self.period.as_micros() * i as u64),
                v,
            )
        })
    }

    /// Sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// First sample instant.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Riemann-sum estimate of the integral (each sample held for one
    /// period) — how a real watt-meter estimates energy.
    pub fn riemann_integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.period.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn value_at_follows_steps() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 5.0);
        tr.set(t(20), 2.0);
        assert_eq!(tr.value_at(t(0)), 1.0);
        assert_eq!(tr.value_at(t(9)), 1.0);
        assert_eq!(tr.value_at(t(10)), 5.0);
        assert_eq!(tr.value_at(t(15)), 5.0);
        assert_eq!(tr.value_at(t(25)), 2.0);
    }

    #[test]
    fn value_before_first_point_is_zero() {
        let mut tr = StepTrace::new();
        tr.set(t(100), 3.0);
        assert_eq!(tr.value_at(t(50)), 0.0);
        assert_eq!(tr.value_at(t(100)), 3.0);
    }

    #[test]
    fn integral_is_exact_on_segments() {
        let mut tr = StepTrace::with_initial(2.0); // 2 W
        tr.set(SimTime::from_secs(1), 4.0); // 4 W from t=1s
                                            // over [0, 3s): 1s at 2W + 2s at 4W = 10 J
        let e = tr.integral(SimTime::ZERO, SimTime::from_secs(3));
        assert!((e - 10.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn integral_partial_window() {
        let mut tr = StepTrace::with_initial(10.0);
        tr.set(SimTime::from_secs(2), 0.0);
        let e = tr.integral(SimTime::from_secs(1), SimTime::from_secs(5));
        assert!((e - 10.0).abs() < 1e-9, "{e}"); // only [1,2)s at 10W
    }

    #[test]
    fn integral_is_additive_over_adjacent_windows() {
        let mut tr = StepTrace::with_initial(3.0);
        tr.set(t(700_000), 1.5);
        tr.set(t(1_300_000), 7.25);
        let whole = tr.integral(SimTime::ZERO, SimTime::from_secs(2));
        let parts = tr.integral(SimTime::ZERO, t(900_000)) + tr.integral(t(900_000), SimTime::from_secs(2));
        assert!((whole - parts).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_integrals_are_zero() {
        let tr = StepTrace::new();
        assert_eq!(tr.integral(SimTime::ZERO, SimTime::from_secs(1)), 0.0);
        let tr = StepTrace::with_initial(5.0);
        assert_eq!(tr.integral(SimTime::from_secs(1), SimTime::from_secs(1)), 0.0);
        assert_eq!(tr.integral(SimTime::from_secs(2), SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn redundant_sets_coalesce() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(5), 1.0);
        tr.set(t(9), 1.0);
        assert_eq!(tr.len(), 1);
        tr.set(t(10), 2.0);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 5.0);
        tr.set(t(10), 6.0);
        assert_eq!(tr.value_at(t(10)), 6.0);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn same_instant_overwrite_coalesces_back() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 5.0);
        tr.set(t(10), 1.0); // back to the previous value — segment vanishes
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.value_at(t(20)), 1.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_set_panics() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 2.0);
        tr.set(t(5), 3.0);
    }

    #[test]
    fn mean_is_integral_over_span() {
        let mut tr = StepTrace::with_initial(2.0);
        tr.set(SimTime::from_secs(1), 6.0);
        let m = tr.mean(SimTime::ZERO, SimTime::from_secs(2));
        assert!((m - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_values() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(SimTime::from_secs(2), 9.0);
        let s = tr.sample(SimTime::ZERO, SimDuration::from_secs(1), 4);
        assert_eq!(s.values(), &[1.0, 1.0, 9.0, 9.0]);
        assert!((s.riemann_integral() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_series_iter_timestamps() {
        let mut s = SampledSeries::new(SimTime::from_secs(1), SimDuration::from_secs(2));
        s.push(1.0);
        s.push(2.0);
        let pts: Vec<_> = s.iter().collect();
        assert_eq!(pts[0].0, SimTime::from_secs(1));
        assert_eq!(pts[1].0, SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "sampling period must be positive")]
    fn zero_period_series_panics() {
        SampledSeries::new(SimTime::ZERO, SimDuration::ZERO);
    }
}
