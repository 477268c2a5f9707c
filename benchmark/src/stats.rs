//! Percentiles and medians, local to the benchmark (no dependency on
//! `crates/bench`, which a later roadmap item restructures).

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice.
///
/// Returns `None` — the percentile is refused — when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a tail read off a handful of
/// samples is a property of those samples, not of the system.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // The epsilon keeps binary round-off in `p` (99.9 is not exact) from
    // pushing a whole-number rank up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    if sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a non-empty set (mean of the two middle values when even).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_thousand() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 50.0), Some(500));
        assert_eq!(percentile(&s, 99.0), Some(990));
        // p99.9 of 1000 samples leaves exactly one beyond it: refused.
        assert_eq!(percentile(&s, 99.9), None);
    }

    #[test]
    fn refuses_until_ten_samples_lie_beyond() {
        // p99.9 of 10_000 samples is rank 9_990, leaving exactly ten beyond.
        let short: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&short, 99.9), Some(9_990));
        let shorter: Vec<u64> = (1..=9_000).collect();
        assert_eq!(percentile(&shorter, 99.9), None);
        let nineteen: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&nineteen, 50.0), None);
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10));
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.0), None);
        assert_eq!(percentile(&s, 100.5), None);
        assert_eq!(percentile(&s, f64::NAN), None);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }
}
