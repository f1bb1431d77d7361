//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples. A tail is
//! reported at the highest percentile that still has at least thirty
//! samples beyond it (capped at p99). Thirty rather than the usual ten:
//! on a shared host one short contention burst delays about ten
//! consecutive requests, and a tail must not be set by a single burst.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 30;

/// Highest percentile reported as a tail.
pub const TAIL_CAP: u32 = 99;

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted` samples.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile `n` samples support: the highest whole percentile
/// up to [`TAIL_CAP`] with at least [`TAIL_BEYOND`] samples beyond its
/// nearest rank. `None` when even the median lacks that support (fewer
/// than 2 × [`TAIL_BEYOND`] samples); callers then report the maximum.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let p = (100 * (n - TAIL_BEYOND) / n) as u32;
    Some(p.min(TAIL_CAP))
}

/// A latency distribution summarised the way every workload reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Value at [`Summary::tail_pct`], or the maximum when the sample is
    /// too small for any tail percentile.
    pub tail: f64,
    /// The percentile `tail` was taken at (100 = maximum).
    pub tail_pct: u32,
}

/// Summarise unsorted samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0)?;
    let (tail, tail_pct) = match tail_percentile(sorted.len()) {
        Some(p) => (percentile(&sorted, f64::from(p))?, p),
        None => (*sorted.last()?, 100),
    };
    Some(Summary {
        n: sorted.len(),
        p50,
        tail,
        tail_pct,
    })
}

/// Median of unsorted samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_thirty_samples_beyond() {
        assert_eq!(tail_percentile(59), None);
        assert_eq!(tail_percentile(60), Some(50));
        assert_eq!(tail_percentile(300), Some(90));
        assert_eq!(tail_percentile(600), Some(95));
        assert_eq!(tail_percentile(2999), Some(98));
        assert_eq!(tail_percentile(3000), Some(99));
        assert_eq!(tail_percentile(50_000), Some(99));
        for n in 60..9000 {
            let p = tail_percentile(n).unwrap();
            let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p} leaves {}", n - rank);
            if p < TAIL_CAP {
                let next = (f64::from(p + 1) / 100.0 * n as f64).ceil() as usize;
                assert!(
                    n - next < TAIL_BEYOND,
                    "n={n}: p{} was also supported",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn small_samples_report_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3, 2.0, 3.0, 100));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn three_thousand_samples_report_p99() {
        let v: Vec<f64> = (0..3000).rev().map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.tail_pct, 99);
        assert_eq!(s.tail, 2969.0);
        assert_eq!(s.p50, 1499.0);
    }
}
