//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus a tail, and every tail states
//! which percentile it is and how many samples it rests on.

/// Percentile ladder for tails, highest first. A tail is the highest rung
/// that leaves at least [`TAIL_BEYOND`] samples above it.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The middle half of `xs` ordered by `key`: what is left after dropping
/// the `⌊n/4⌋` items with the lowest keys and the `⌊n/4⌋` with the highest.
///
/// Op times on a shared host are often bimodal, and which mode holds the
/// middle sample flips from run to run; a mean over the middle half moves
/// smoothly with the share of each mode and still ignores the outliers of
/// either tail.
pub fn middle_half_by<T>(xs: &[T], key: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut v: Vec<&T> = xs.iter().collect();
    v.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let cut = v.len() / 4;
    v.truncate(v.len() - cut);
    v.drain(..cut);
    v
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// `None` when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let k = (i + 1) * m;
                let j = (k / 4).clamp(1, n - 1);
                let delta = k as f64 / 4.0 - j as f64;
                *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
            }
            Some(out)
        }
    }
}

/// Nearest-rank percentile `pct` of `xs` with the number of samples
/// strictly beyond its rank. `None` when empty.
pub fn percentile(xs: &[f64], pct: f64) -> Option<(f64, usize)> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((v[rank - 1], n - rank))
}

/// The highest rung of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond it; `None` if even the median
/// does not.
pub fn tail_rung(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        rank >= 1 && n - rank.min(n) >= TAIL_BEYOND
    })
}

/// `num / den`, or 0 when the denominator is 0 (a ratio over an event that
/// did not occur, e.g. steals per task on a run with no steals).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn middle_half_keeps_whole_items() {
        // Ordered by the second field: drop (d, 1) and (a, 9), keep the
        // rest in key order.
        let xs = [("a", 9.0), ("b", 4.0), ("c", 5.0), ("d", 1.0), ("e", 7.0)];
        let mid: Vec<&str> = middle_half_by(&xs, |x| x.1).iter().map(|x| x.0).collect();
        assert_eq!(mid, ["b", "c", "e"]);
        // 8 samples: drop -50, 1 and 6, 100.
        let xs = [100.0, 6.0, 1.0, 5.0, 2.0, 4.0, 3.0, -50.0];
        assert_eq!(middle_half_by(&xs, |&x| x), [&2.0, &3.0, &4.0, &5.0]);
        // Fewer than four samples: nothing is dropped.
        assert_eq!(middle_half_by(&[6.0, 1.0, 2.0], |&x| x).len(), 3);
        assert!(middle_half_by(&[] as &[f64], |&x| x).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Thresholds of the ladder: p99 from 1000 samples, p95 from 200,
        // p90 from 100, p75 from 40, p50 from 20.
        assert_eq!(tail_rung(1000), Some(99.0));
        assert_eq!(tail_rung(999), Some(95.0));
        assert_eq!(tail_rung(200), Some(95.0));
        assert_eq!(tail_rung(199), Some(90.0));
        assert_eq!(tail_rung(100), Some(90.0));
        assert_eq!(tail_rung(40), Some(75.0));
        assert_eq!(tail_rung(20), Some(50.0));
        assert_eq!(tail_rung(19), None);
        assert_eq!(tail_rung(0), None);
        for n in [20, 57, 100, 333, 1000, 4321] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let pct = tail_rung(n).expect("enough samples");
            let (value, _) = percentile(&xs, pct).expect("non-empty");
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: only {beyond} beyond");
            // The next rung up would leave fewer than ten beyond.
            if let Some(higher) = TAIL_LADDER.iter().rev().find(|&&p| p > pct) {
                let (_, b) = percentile(&xs, *higher).expect("non-empty");
                assert!(b < TAIL_BEYOND, "n={n}: rung {higher} also qualifies");
            }
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some((95.0, 5)));
        assert_eq!(percentile(&xs, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
