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
}
