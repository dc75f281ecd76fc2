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
///
/// A reader that will never again ask about the past before some instant
/// can let the trace forget it ([`StepTrace::forget_before`]): the
/// segments that ended before then leave the heap, folded into one exact
/// running term, and the trace stops growing with the run. After
/// forgetting before `cut`, a window must start at or after `cut`, or at
/// t = 0 and end at or after `cut`; `value_at` must ask at or after
/// `cut`; and a `set` must not come before `cut`. Debug builds assert all
/// three.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// The breakpoints before `last` that are still kept, in time order:
    /// every one before it until the first [`StepTrace::forget_before`].
    head: Vec<(SimTime, f64)>,
    /// The latest breakpoint (`None` until the first `set`).
    last: Option<(SimTime, f64)>,
    /// The fold, from `0.0` in time order, of the terms
    /// `v_i · (t_{i+1} − t_i)` of every segment `forget_before` dropped:
    /// where a scan from t = 0 stands when it reaches `head`.
    origin: f64,
    /// The latest instant forgotten before (debug builds only: it backs
    /// the reader and writer assertions, and costs a release trace
    /// nothing).
    #[cfg(debug_assertions)]
    cut: SimTime,
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
            last: Some((SimTime::ZERO, value)),
            ..StepTrace::default()
        }
    }

    /// Sets the signal value from `at` onward. `at` must be ≥ the last set
    /// time; setting at the same instant overwrites (last-writer-wins), and
    /// redundant sets (same value) are coalesced.
    pub fn set(&mut self, at: SimTime, value: f64) {
        // An overwrite before the cut could coalesce with a segment
        // `head` no longer holds.
        #[cfg(debug_assertions)]
        debug_assert!(at >= self.cut, "set at {at} writes before the cut {}", self.cut);
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

    /// The signal value at `at` (0 before the first point). After
    /// [`StepTrace::forget_before`], `at` must be at or after the cut.
    pub fn value_at(&self, at: SimTime) -> f64 {
        #[cfg(debug_assertions)]
        debug_assert!(at >= self.cut, "value_at({at}) asks before the cut {}", self.cut);
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
    /// For a power trace in watts this is energy in joules. After
    /// [`StepTrace::forget_before`], the window must start at or after the
    /// cut, or start at t = 0 and end at or after it: the forgotten
    /// segments then lie wholly outside the window or wholly inside it,
    /// and the answer has the bits of the trace that forgot nothing.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        let Some((t_last, v_last)) = self.last else {
            return 0.0;
        };
        if to <= from {
            return 0.0;
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            if from == SimTime::ZERO {
                to >= self.cut
            } else {
                from >= self.cut
            },
            "integral over [{from}, {to}) reads history forgotten before {}",
            self.cut
        );
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
        // a full scan, so the result is bit-for-bit unchanged. A scan from
        // t = 0 would first add the forgotten segments' terms, in order,
        // from 0.0: it starts from their fold instead, the same sum.
        let first = self.head.partition_point(|&(t, _)| t <= from).saturating_sub(1);
        let mut segments = self.head[first..].iter().copied().chain(self.last).peekable();
        let mut acc = if from == SimTime::ZERO { self.origin } else { 0.0 };
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

    /// Drops from the heap every segment that ends before `cut`, adding
    /// each one's term to the running fold the next scan from t = 0 starts
    /// from. The last breakpoint always stays, and so does a segment that
    /// ends exactly at `cut`: a `set` there may overwrite the breakpoint at
    /// `cut` back to the value before it, which pops that segment. Call it
    /// only when no reader will ask about a window that starts inside
    /// `(0, cut)`, a window from t = 0 that ends before `cut`, or a value
    /// before `cut`, and no writer will set before `cut` (see
    /// [`StepTrace`]). A cut at or before an earlier one drops nothing.
    pub fn forget_before(&mut self, cut: SimTime) {
        #[cfg(debug_assertions)]
        {
            self.cut = self.cut.max(cut);
        }
        // Segment `i` ends where the next breakpoint starts. Each term is
        // the one a scan from t = 0 adds for it, in the scan's order.
        let ends = self
            .head
            .iter()
            .skip(1)
            .map(|&(t, _)| t)
            .chain(self.last.map(|(t, _)| t));
        let mut dropped = 0;
        for (&(t_i, v_i), end) in self.head.iter().zip(ends) {
            if end >= cut {
                break;
            }
            self.origin += v_i * (end - t_i).as_secs_f64();
            dropped += 1;
        }
        self.head.drain(..dropped);
    }

    /// Iterator over the breakpoints still kept: every one until the
    /// first [`StepTrace::forget_before`], then those that start the
    /// segments ending at or after the cut, and the last.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.head.iter().copied().chain(self.last)
    }

    /// Number of breakpoints stored (those [`StepTrace::points`] yields).
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

    /// A trace stepping every 0.1 s: every query the cut allows reads the
    /// bits of a twin that forgot nothing, and the segments that ended
    /// before the cut left the heap.
    #[test]
    fn forgetting_keeps_every_answer_the_cut_allows() {
        let mut full = StepTrace::with_initial(0.5);
        for k in 1..=10u64 {
            full.set(t(100_000 * k), k as f64 / 3.0);
        }
        let mut lean = full.clone();
        lean.forget_before(t(650_000));
        // The segments ending at 0.1 … 0.6 s are gone; the one holding the
        // cut stays.
        assert_eq!(lean.len(), 5);
        assert_eq!(lean.points().next(), Some((t(600_000), 2.0)));
        // A cut on a breakpoint keeps the segment ending there.
        let mut on = full.clone();
        on.forget_before(t(700_000));
        assert_eq!(on.points().next(), Some((t(600_000), 2.0)));
        let same = |lean: &StepTrace, full: &StepTrace, from: u64, to: u64| {
            let (from, to) = (t(from), t(to));
            assert_eq!(
                lean.integral(from, to).to_bits(),
                full.integral(from, to).to_bits(),
                "[{from}, {to})"
            );
            assert_eq!(
                lean.mean(from, to).to_bits(),
                full.mean(from, to).to_bits(),
                "[{from}, {to})"
            );
        };
        for (from, to) in [
            (0, 650_000),
            (0, 700_000),
            (0, 1_234_567),
            (650_000, 700_000),
            (700_000, 1_500_000),
        ] {
            same(&lean, &full, from, to);
        }
        for at in [650_000, 700_000, 2_000_000] {
            assert_eq!(lean.value_at(t(at)).to_bits(), full.value_at(t(at)).to_bits());
        }
        // An earlier cut drops nothing more; a cut past the last
        // breakpoint keeps it, and later sets extend the trace as before.
        lean.forget_before(t(300_000));
        assert_eq!(lean.len(), 5);
        lean.forget_before(t(1_100_000));
        assert_eq!(lean.len(), 1);
        for tr in [&mut lean, &mut full] {
            tr.set(t(1_200_000), 0.25);
        }
        same(&lean, &full, 0, 2_000_000);
        same(&lean, &full, 1_100_000, 1_300_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reads history forgotten")]
    fn a_window_into_the_forgotten_history_fails_in_debug_builds() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 2.0);
        tr.set(t(20), 3.0);
        tr.forget_before(t(15));
        tr.integral(t(5), t(30));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "asks before the cut")]
    fn a_value_before_the_cut_fails_in_debug_builds() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 2.0);
        tr.forget_before(t(15));
        tr.value_at(t(14));
    }

    /// Forgetting before 0.3 s keeps the segment `[0.1, 0.3)` s, so an
    /// overwrite at 0.3 s back to 0.7 coalesces it away as on a trace that
    /// forgot nothing, and the answers keep their bits.
    #[test]
    fn an_overwrite_at_the_cut_coalesces_as_without_forgetting() {
        let mut full = StepTrace::with_initial(0.1);
        full.set(t(100_000), 0.7);
        full.set(t(300_000), 0.2);
        let mut lean = full.clone();
        lean.forget_before(t(300_000));
        assert_eq!(lean.len(), 2);
        for tr in [&mut lean, &mut full] {
            tr.set(t(300_000), 0.7);
        }
        assert_eq!(lean.points().collect::<Vec<_>>(), [(t(100_000), 0.7)]);
        for (from, to) in [(0, 600_000), (300_000, 600_000)] {
            let (from, to) = (t(from), t(to));
            assert_eq!(lean.integral(from, to).to_bits(), full.integral(from, to).to_bits());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "writes before the cut")]
    fn a_set_before_the_cut_fails_in_debug_builds() {
        let mut tr = StepTrace::with_initial(1.0);
        tr.set(t(10), 2.0);
        tr.forget_before(t(15));
        tr.set(t(12), 3.0);
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
