//! Robust statistics over repeated samples.

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values,
/// n=4)` gives; `None` below two samples or at a zero median.
pub fn iqr_frac(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // A port of statistics.quantiles' default "exclusive" method, in
    // its exact integer arithmetic (it extrapolates for tiny samples).
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let med = median(samples)?;
    med.is_normal().then(|| (q(3) - q(1)) / med)
}

/// The percentile ladder the tail is read from, in tenths of a percent,
/// highest first (integers, so that ranks are exact).
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// A tail reading: the percentile, its value, and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest ladder percentile (nearest-rank) with at least
/// [`TAIL_BEYOND`] samples beyond it; `None` when even the median has
/// fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&permille| {
        let rank = (permille * n).div_ceil(1000);
        if rank == 0 || rank > n {
            return None;
        }
        let beyond = n - rank;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct: permille as f64 / 10.0,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let frac = iqr_frac(&v).expect("ten samples");
        assert!((frac - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{frac}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0].
        let frac = iqr_frac(&[1.0, 2.0, 3.0]).expect("three samples");
        assert!((frac - 1.0).abs() < 1e-12, "{frac}");
        assert_eq!(iqr_frac(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 600 intervals: p99 leaves 6 beyond, p98 leaves 12.
        let v: Vec<f64> = (1..=600).map(f64::from).collect();
        let t = tail(&v).expect("600 samples");
        assert_eq!((t.pct, t.value, t.beyond), (98.0, 588.0, 12));
        // 300 intervals: p98 leaves 6 beyond, p95 leaves 15.
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&v).expect("300 samples");
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 285.0, 15));
        // 10 000 intervals: p99.9 leaves exactly 10.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.pct, t.beyond)), Some((99.9, 10)));
        // Too few samples for even the median to have 10 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.pct, t.value)), Some((50.0, 10.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=600).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).map(|t| t.value), Some(588.0));
    }
}
