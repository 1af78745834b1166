//! Order statistics over the recorder's samples.

/// Fewest samples a 99th percentile is reported from: below this fewer
/// than ten samples lie beyond it and the value is one outlier's.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)`, counting from one. `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The 99th percentile, withheld below [`P99_MIN_SAMPLES`] samples.
pub fn p99(sorted: &[u64]) -> Option<u64> {
    if sorted.len() < P99_MIN_SAMPLES {
        return None;
    }
    percentile(sorted, 99.0)
}

/// Longest time without a completion inside `[from, to)`: the largest gap
/// between consecutive entries of the ascending `completions`, counting
/// the window's two edges as entries so an outage that runs into either
/// edge is still seen.
pub fn max_stall(completions: &[u64], from: u64, to: u64) -> u64 {
    let mut last = from;
    let mut longest = 0;
    for &c in completions.iter().filter(|&&c| c >= from && c < to) {
        longest = longest.max(c - last);
        last = c;
    }
    longest.max(to.saturating_sub(last))
}

/// Median of unordered values (mean of the middle two on an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
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
    fn nearest_rank_matches_the_textbook_examples() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&v, 5.0), Some(15));
        assert_eq!(percentile(&v, 30.0), Some(20));
        assert_eq!(percentile(&v, 40.0), Some(20));
        assert_eq!(percentile(&v, 50.0), Some(35));
        assert_eq!(percentile(&v, 100.0), Some(50));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), Some(99));
        assert_eq!(percentile(&hundred, 50.0), Some(50));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few: Vec<u64> = (0..999).collect();
        assert_eq!(p99(&few), None);
        let enough: Vec<u64> = (1..=1_000).collect();
        assert_eq!(p99(&enough), Some(990));
    }

    #[test]
    fn max_stall_finds_the_outage_and_respects_the_window() {
        // Completions every 10 µs, an outage from 50 to 400, then every 10.
        let mut log: Vec<u64> = (0..=5).map(|i| i * 10).collect();
        log.extend((0..10).map(|i| 400 + i * 10));
        assert_eq!(max_stall(&log, 0, 500), 350);
        // A window that starts inside the outage sees only its remainder.
        assert_eq!(max_stall(&log, 300, 500), 100);
        // An outage still running when the window closes counts to its edge.
        assert_eq!(max_stall(&log, 0, 300), 250);
        // No completions at all: the whole window is one stall.
        assert_eq!(max_stall(&[], 100, 350), 250);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
