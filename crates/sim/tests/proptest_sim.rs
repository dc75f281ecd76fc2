//! Property-based tests for the simulation substrate.

use greengpu_sim::{EventQueue, JsonValue, JsonWriter, Pcg32, SimDuration, SimTime, SplitMix64, StepTrace};
use proptest::prelude::*;

/// A random JSON value with typed numbers, so it can be both built as a
/// [`JsonValue`] and written through a [`JsonWriter`].
enum Doc {
    Null,
    F64(f64),
    U64(u64),
    I64(i64),
    Usize(usize),
    Str(String),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

/// Odd strings: empty, escapes, control bytes, non-ASCII, and longer
/// than one length byte.
fn random_string(rng: &mut SplitMix64) -> String {
    const PIECES: [&str; 9] = ["", "a", "\"", "\\", "\n\r\t", "\u{1}\u{1f}", "π —", "key", "\u{7f}é"];
    let n = (rng.next_u64() % 4) as usize;
    let mut s: String = (0..n).map(|_| PIECES[(rng.next_u64() % 9) as usize]).collect();
    if rng.next_u64().is_multiple_of(16) {
        s.push_str(&"x".repeat(200));
    }
    s
}

fn random_doc(rng: &mut SplitMix64, depth: u32) -> Doc {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.next_u64() % kinds {
        0 => Doc::Null,
        1 => Doc::F64(match rng.next_u64() % 6 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -0.0,
            _ => f64::from_bits(rng.next_u64()),
        }),
        2 => Doc::U64(rng.next_u64()),
        3 => Doc::I64(rng.next_u64() as i64),
        4 => Doc::Usize((rng.next_u64() % 1000) as usize),
        5 => Doc::Str(random_string(rng)),
        6 => Doc::Arr((0..rng.next_u64() % 5).map(|_| random_doc(rng, depth - 1)).collect()),
        _ => Doc::Obj(
            (0..rng.next_u64() % 5)
                .map(|_| (random_string(rng), random_doc(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn to_tree(doc: &Doc) -> JsonValue {
    match doc {
        Doc::Null => JsonValue::Null,
        Doc::F64(v) => JsonValue::f64(*v),
        Doc::U64(v) => JsonValue::u64(*v),
        Doc::I64(v) => JsonValue::Num(v.to_string()),
        Doc::Usize(v) => JsonValue::usize(*v),
        Doc::Str(s) => JsonValue::str(s.as_str()),
        Doc::Arr(vs) => JsonValue::Arr(vs.iter().map(to_tree).collect()),
        Doc::Obj(fields) => JsonValue::Obj(fields.iter().map(|(k, v)| (k.clone(), to_tree(v))).collect()),
    }
}

fn write(w: &mut JsonWriter<'_>, doc: &Doc) {
    let _ = match doc {
        Doc::Null => w.null(),
        Doc::F64(v) => w.f64(*v),
        Doc::U64(v) => w.u64(*v),
        Doc::I64(v) => w.i64(*v),
        Doc::Usize(v) => w.usize(*v),
        Doc::Str(s) => w.str(s),
        Doc::Arr(vs) => w.arr(|w| vs.iter().for_each(|v| write(w, v))),
        Doc::Obj(fields) => w.obj(|w| fields.iter().for_each(|(k, v)| write(w.key(k), v))),
    };
}

/// The all-points [`StepTrace`] as it stood before it kept its last
/// breakpoint inline, copied verbatim: the bit-exact oracle for the
/// split layout.
#[derive(Debug, Clone, Default)]
struct RefTrace {
    points: Vec<(SimTime, f64)>,
}

impl RefTrace {
    fn new() -> Self {
        RefTrace { points: Vec::new() }
    }

    fn with_initial(value: f64) -> Self {
        RefTrace {
            points: vec![(SimTime::ZERO, value)],
        }
    }

    fn set(&mut self, at: SimTime, value: f64) {
        if let Some(&mut (t_last, ref mut v_last)) = self.points.last_mut() {
            assert!(at >= t_last, "trace updates must be time-ordered: {at} < {t_last}");
            if t_last == at {
                *v_last = value;
                // Coalesce if this overwrite makes the segment redundant.
                if self.points.len() >= 2 && self.points[self.points.len() - 2].1 == value {
                    self.points.pop();
                }
                return;
            }
            if *v_last == value {
                return; // redundant
            }
        }
        self.points.push((at, value));
    }

    fn value_at(&self, at: SimTime) -> f64 {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    fn last_value(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, v)| v)
    }

    fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let first = self.points.partition_point(|&(t, _)| t <= from).saturating_sub(1);
        let mut acc = 0.0;
        for (i, &(t_i, v_i)) in self.points.iter().enumerate().skip(first) {
            let seg_start = t_i.max(from);
            let seg_end = match self.points.get(i + 1) {
                Some(&(t_next, _)) => t_next.min(to),
                None => to,
            };
            if seg_end > seg_start {
                acc += v_i * (seg_end - seg_start).as_secs_f64();
            }
            if t_i >= to {
                break;
            }
        }
        acc
    }

    fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.integral(from, to) / span
    }

    fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

fn bits(points: impl Iterator<Item = (SimTime, f64)>) -> Vec<(SimTime, u64)> {
    points.map(|(t, v)| (t, v.to_bits())).collect()
}

/// Asserts that `trace` answers every query exactly as `oracle` does:
/// the breakpoints, and `integral`, `mean` and `value_at` over windows
/// built from instants around every breakpoint — before the first, at
/// one, inside the last segment, across many, zero-length and reversed.
fn assert_matches_reference(trace: &StepTrace, oracle: &RefTrace, rng: &mut SplitMix64) {
    assert_eq!(bits(trace.points()), bits(oracle.points()));
    assert_eq!(trace.len(), oracle.len());
    assert_eq!(trace.is_empty(), oracle.is_empty());
    assert_eq!(trace.last_value().to_bits(), oracle.last_value().to_bits());
    let last = oracle.points().last().map_or(0, |(t, _)| t.as_micros());
    let mut instants = vec![0, 1, last + 1 + rng.next_u64() % 3_000_000];
    for (t, _) in oracle.points() {
        let t = t.as_micros();
        instants.extend([t.saturating_sub(1), t, t + 1, t + rng.next_u64() % 700_000]);
    }
    for &at in &instants {
        let at = SimTime::from_micros(at);
        assert_eq!(
            trace.value_at(at).to_bits(),
            oracle.value_at(at).to_bits(),
            "value_at({at})"
        );
    }
    let mut windows = vec![(0, last + 2_000_000), (last, last + 1), (last + 1, last + 2), (last, 0)];
    for _ in 0..48 {
        let a = instants[(rng.next_u64() % instants.len() as u64) as usize];
        let b = instants[(rng.next_u64() % instants.len() as u64) as usize];
        windows.extend([(a, b), (b, a), (a, a)]);
    }
    for (from, to) in windows {
        let (from, to) = (SimTime::from_micros(from), SimTime::from_micros(to));
        assert_eq!(
            trace.integral(from, to).to_bits(),
            oracle.integral(from, to).to_bits(),
            "integral over [{from}, {to})"
        );
        assert_eq!(
            trace.mean(from, to).to_bits(),
            oracle.mean(from, to).to_bits(),
            "mean over [{from}, {to})"
        );
    }
}

/// The next value of a random history: back to the value before the last
/// breakpoint (an overwrite at the same instant coalesces the segment
/// away), the current value (redundant), `±0.0`, or an arbitrary one.
fn next_value(rng: &mut SplitMix64, oracle: &RefTrace) -> f64 {
    let n = oracle.len();
    match rng.next_u64() % 8 {
        0 if n >= 2 => oracle.points().nth(n - 2).map_or(1.0, |(_, v)| v),
        1 => oracle.last_value(),
        2 => 0.0,
        3 => -0.0,
        4 => -3.75,
        5 => 1.0 / 3.0,
        _ => (rng.next_u64() % 500_000) as f64 / 1_000.0,
    }
}

/// Drives a [`StepTrace`] and the [`RefTrace`] oracle through the same
/// random history — increasing and repeated instants, overwrites back to
/// the previous value, redundant values and `±0.0` — and compares them
/// after every update.
fn step_trace_follows_the_reference(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (mut trace, mut oracle) = match rng.next_u64() % 3 {
        0 => (StepTrace::new(), RefTrace::new()),
        1 => (StepTrace::with_initial(-0.0), RefTrace::with_initial(-0.0)),
        _ => (StepTrace::with_initial(2.5), RefTrace::with_initial(2.5)),
    };
    assert_matches_reference(&trace, &oracle, &mut rng);
    let mut now = rng.next_u64() % 1_000;
    for _ in 0..rng.next_u64() % 40 {
        if !rng.next_u64().is_multiple_of(3) {
            now += 1 + rng.next_u64() % 1_000_000;
        }
        let value = next_value(&mut rng, &oracle);
        let at = SimTime::from_micros(now);
        trace.set(at, value);
        oracle.set(at, value);
        assert_matches_reference(&trace, &oracle, &mut rng);
    }
}

#[test]
fn step_trace_is_bit_exact_against_the_all_points_reference() {
    for seed in 0..400 {
        step_trace_follows_the_reference(seed);
    }
}

/// Asserts that `trace`, which forgot its history before `cut` (µs),
/// answers every query the cut allows exactly as `oracle` does, and keeps
/// exactly the segments that end at or after the cut: the oracle's points
/// end with its points, no kept segment ends before the cut, and the last
/// segment dropped, if any, did. The queries are the
/// values at and after the cut, and `integral` and `mean` over windows
/// that start at or after it, or start at t = 0 and end at or after it
/// (zero-length and reversed ones included).
fn assert_forgetting_matches(trace: &StepTrace, oracle: &RefTrace, cut: u64, rng: &mut SplitMix64) {
    let (kept, all) = (bits(trace.points()), bits(oracle.points()));
    assert!(all.ends_with(&kept), "kept {kept:?} of {all:?}");
    assert_eq!(trace.len(), kept.len());
    let cut_at = SimTime::from_micros(cut);
    if let Some(&(end, _)) = kept.get(1) {
        assert!(end >= cut_at, "a kept segment ends at {end}, before the cut {cut_at}");
    }
    if kept.len() < all.len() {
        assert!(
            kept[0].0 < cut_at,
            "a segment ending at {} was dropped by the cut {cut_at}",
            kept[0].0
        );
    }
    assert_eq!(trace.is_empty(), oracle.is_empty());
    assert_eq!(trace.last_value().to_bits(), oracle.last_value().to_bits());
    let last = oracle.points().last().map_or(0, |(t, _)| t.as_micros());
    let mut instants = vec![cut, cut + 1, last + 1 + rng.next_u64() % 3_000_000];
    for (t, _) in oracle.points() {
        let t = t.as_micros();
        instants.extend([t.saturating_sub(1), t, t + 1, t + rng.next_u64() % 700_000]);
    }
    instants.retain(|&at| at >= cut);
    for &at in &instants {
        let at = SimTime::from_micros(at);
        assert_eq!(
            trace.value_at(at).to_bits(),
            oracle.value_at(at).to_bits(),
            "value_at({at})"
        );
    }
    let mut windows = vec![(0, cut), (0, last.max(cut) + 2_000_000), (cut, last + 1)];
    for _ in 0..48 {
        let a = instants[(rng.next_u64() % instants.len() as u64) as usize];
        let b = instants[(rng.next_u64() % instants.len() as u64) as usize];
        windows.extend([(a, b), (b, a), (a, a), (0, a)]);
    }
    for (from, to) in windows {
        let (from, to) = (SimTime::from_micros(from), SimTime::from_micros(to));
        assert_eq!(
            trace.integral(from, to).to_bits(),
            oracle.integral(from, to).to_bits(),
            "integral over [{from}, {to}) past the cut {cut_at}"
        );
        assert_eq!(
            trace.mean(from, to).to_bits(),
            oracle.mean(from, to).to_bits(),
            "mean over [{from}, {to}) past the cut {cut_at}"
        );
    }
}

/// Drives a [`StepTrace`] and the [`RefTrace`] oracle through one random
/// history, as `step_trace_follows_the_reference` does, with the trace
/// alone forgetting at random non-decreasing cuts between the updates:
/// at a breakpoint, just before or after one, at the latest update or
/// past it. No later update comes before the cut. Now and then a cut
/// at or before the latest one repeats, which must drop nothing.
fn forgetting_trace_follows_the_reference(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (mut trace, mut oracle) = match rng.next_u64() % 3 {
        0 => (StepTrace::new(), RefTrace::new()),
        1 => (StepTrace::with_initial(-0.0), RefTrace::with_initial(-0.0)),
        _ => (StepTrace::with_initial(2.5), RefTrace::with_initial(2.5)),
    };
    let (mut now, mut cut) = (rng.next_u64() % 1_000, 0);
    assert_forgetting_matches(&trace, &oracle, cut, &mut rng);
    for _ in 0..rng.next_u64() % 60 {
        if rng.next_u64().is_multiple_of(4) {
            let points: Vec<u64> = oracle.points().map(|(t, _)| t.as_micros()).collect();
            let near = points[(rng.next_u64() % points.len().max(1) as u64) as usize..]
                .first()
                .copied()
                .unwrap_or(0);
            let at = match rng.next_u64() % 6 {
                0 => near,
                1 => near.saturating_sub(1),
                2 => near + 1,
                3 => now,
                4 => now + rng.next_u64() % 2_000_000,
                _ => cut.saturating_sub(rng.next_u64() % 2),
            };
            let before = bits(trace.points());
            trace.forget_before(SimTime::from_micros(at));
            if at <= cut {
                assert_eq!(bits(trace.points()), before, "a repeated cut at {at} dropped points");
            }
            cut = cut.max(at);
        } else {
            if now < cut || !rng.next_u64().is_multiple_of(3) {
                now = now.max(cut) + 1 + rng.next_u64() % 1_000_000;
            }
            let value = next_value(&mut rng, &oracle);
            let at = SimTime::from_micros(now);
            trace.set(at, value);
            oracle.set(at, value);
        }
        assert_forgetting_matches(&trace, &oracle, cut, &mut rng);
    }
}

#[test]
fn a_forgetting_trace_is_bit_exact_against_the_all_points_reference() {
    for seed in 0..400 {
        forgetting_trace_follows_the_reference(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "events out of order");
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_ties_preserve_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(42);
        for i in 0..n {
            q.schedule(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn event_queue_cancellation_removes_exactly_the_cancelled(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times.iter().enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((i, h), &c) in handles.iter().zip(cancel_mask.iter().cycle()) {
            if c {
                prop_assert!(q.cancel(*h));
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some((_, p)) = q.pop() {
            prop_assert!(!cancelled.contains(&p), "cancelled event {p} surfaced");
            seen.insert(p);
        }
        prop_assert_eq!(seen.len(), times.len() - cancelled.len());
    }

    #[test]
    fn step_trace_integral_is_additive(points in proptest::collection::vec((0u64..1_000_000, 0.0..500.0f64), 1..50),
                                       split in 0u64..1_000_000) {
        let mut sorted = points;
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut trace = StepTrace::with_initial(1.0);
        for &(t, v) in &sorted {
            trace.set(SimTime::from_micros(t), v);
        }
        let end = SimTime::from_micros(2_000_000);
        let mid = SimTime::from_micros(split);
        let whole = trace.integral(SimTime::ZERO, end);
        let parts = trace.integral(SimTime::ZERO, mid) + trace.integral(mid, end);
        prop_assert!((whole - parts).abs() < 1e-6, "integral not additive: {whole} vs {parts}");
    }

    #[test]
    fn step_trace_integral_bounded_by_extremes(points in proptest::collection::vec((0u64..1_000_000, 0.0..500.0f64), 1..50)) {
        let mut sorted = points;
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut trace = StepTrace::with_initial(100.0);
        let mut lo: f64 = 100.0;
        let mut hi: f64 = 100.0;
        for &(t, v) in &sorted {
            trace.set(SimTime::from_micros(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = SimTime::from_micros(1_500_000);
        let integral = trace.integral(SimTime::ZERO, span);
        let secs = span.as_secs_f64();
        prop_assert!(integral >= lo * secs - 1e-9 && integral <= hi * secs + 1e-9);
    }

    #[test]
    fn step_trace_mean_matches_sampling_limit(v1 in 0.0..100.0f64, v2 in 0.0..100.0f64,
                                              switch_s in 1u64..9) {
        let mut trace = StepTrace::with_initial(v1);
        trace.set(SimTime::from_secs(switch_s), v2);
        let end = SimTime::from_secs(10);
        let mean = trace.mean(SimTime::ZERO, end);
        let expected = (v1 * switch_s as f64 + v2 * (10 - switch_s) as f64) / 10.0;
        prop_assert!((mean - expected).abs() < 1e-9);
    }

    #[test]
    fn pcg_streams_are_reproducible_and_distinct(seed in any::<u64>()) {
        let mut a = Pcg32::new(seed, 1);
        let mut b = Pcg32::new(seed, 1);
        let mut c = Pcg32::new(seed, 2);
        let mut same_stream_equal = true;
        let mut cross_stream_equal = true;
        for _ in 0..32 {
            let (x, y, z) = (a.next_u32(), b.next_u32(), c.next_u32());
            same_stream_equal &= x == y;
            cross_stream_equal &= x == z;
        }
        prop_assert!(same_stream_equal);
        prop_assert!(!cross_stream_equal);
    }

    #[test]
    fn pcg_below_is_always_in_range(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn splitmix_child_seeds_are_distinct(seed in any::<u64>()) {
        let mut sm = SplitMix64::new(seed);
        let children: Vec<u64> = (0..16).map(|_| sm.child_seed()).collect();
        let unique: std::collections::HashSet<_> = children.iter().collect();
        prop_assert_eq!(unique.len(), children.len());
    }

    #[test]
    fn sim_time_arithmetic_round_trips(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let t = SimTime::from_micros(a) + SimDuration::from_micros(b);
        prop_assert_eq!(t - SimDuration::from_micros(b), SimTime::from_micros(a));
        prop_assert_eq!(t - SimTime::from_micros(a), SimDuration::from_micros(b));
    }

    #[test]
    fn duration_secs_round_trip_within_micro(secs in 0.0..100_000.0f64) {
        let d = SimDuration::from_secs_f64(secs);
        prop_assert!((d.as_secs_f64() - secs).abs() <= 5e-7);
    }

    #[test]
    fn a_written_tree_prints_as_the_tree(seed in any::<u64>()) {
        let doc = random_doc(&mut SplitMix64::new(seed), 4);
        let tree = to_tree(&doc);
        prop_assert_eq!(JsonWriter::render(|w| write(w, &doc)), tree.to_string());
    }

    #[test]
    fn step_trace_matches_the_reference_on_random_histories(seed in any::<u64>()) {
        step_trace_follows_the_reference(seed);
    }
}
