//! The benchmark's own arithmetic: medians, quartiles, tail percentiles
//! under the "ten samples beyond" rule, and span self time over possibly
//! overlapping children.

/// Samples a tail percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread this crate prints is the spread an outside checker
/// computes from the same values.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need at least two values");
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank `q` percentile (`0 < q < 1`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it, so that a tail is never
/// read off a handful of points.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || samples_beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank(values.len(), q) - 1])
}

/// The `q` percentile of per-operation samples gathered over several
/// repeats, with a note giving the sample count. When every repeat alone
/// leaves [`MIN_BEYOND`] samples beyond `q`, it is the median of the
/// per-repeat percentiles, so one disturbed repeat cannot move it;
/// otherwise the repeats are pooled first. `None` when even the pool is too
/// small.
pub fn tail_over_repeats(repeats: &[Vec<f64>], q: f64) -> (Option<f64>, String) {
    let smallest = repeats.iter().map(Vec::len).min().unwrap_or(0);
    if !repeats.is_empty() && samples_beyond(smallest, q) >= MIN_BEYOND {
        let per: Vec<f64> = repeats
            .iter()
            .map(|r| percentile(r, q).expect("checked above"))
            .collect();
        let note = format!(
            "median over {} repeats of p{}, >= {smallest} samples and {} beyond each",
            repeats.len(),
            q * 100.0,
            samples_beyond(smallest, q)
        );
        return (Some(median(&per)), note);
    }
    let pooled: Vec<f64> = repeats.iter().flatten().copied().collect();
    let note = format!(
        "p{} of {} pooled samples, {} beyond",
        q * 100.0,
        pooled.len(),
        samples_beyond(pooled.len(), q)
    );
    (percentile(&pooled, q), note)
}

/// 1-based nearest rank: the smallest rank covering a `q` share of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Length of the union of half-open intervals `[start, end)` after
/// clipping each to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that the union of its children covers. Overlapping children count once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 8.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // 999 samples leave only 9 beyond the p99 rank: refused.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.99), Some(1980.0));
    }

    #[test]
    fn tail_over_repeats_prefers_median_of_repeats() {
        let a: Vec<f64> = (1..=1000).map(f64::from).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 2.0).collect();
        let c: Vec<f64> = a.iter().map(|x| x * 100.0).collect();
        // One disturbed repeat (c) does not move the median of p99s.
        let (v, note) = tail_over_repeats(&[a.clone(), b, c], 0.99);
        assert_eq!(v, Some(1980.0));
        assert!(note.contains("10 beyond"), "{note}");
        // Repeats too small alone are pooled: 3 x 400 = 1200 samples.
        let small: Vec<Vec<f64>> = (0..3).map(|_| a[..400].to_vec()).collect();
        let (v, note) = tail_over_repeats(&small, 0.99);
        assert_eq!(v, Some(396.0));
        assert!(note.contains("1200 pooled samples, 12 beyond"), "{note}");
        // And refused when the pool is too small as well.
        assert_eq!(tail_over_repeats(&[a[..500].to_vec()], 0.99).0, None);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50, so self time is 50.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // A nested child adds nothing beyond its container.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // Children spilling past either edge only count inside it.
        assert_eq!(self_time(10, 20, &[(0, 12), (18, 40)]), 6);
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        assert_eq!(self_time(10, 20, &[]), 10);
    }

    #[test]
    fn covered_merges_touching_intervals() {
        assert_eq!(covered(0, 100, &[(0, 10), (10, 20), (50, 60)]), 30);
    }
}
