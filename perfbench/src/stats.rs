//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw nanosecond samples, never bucketed, so a
//! reported percentile is one of the measured values. Percentiles use the
//! nearest-rank definition: the p-th percentile of `n` sorted samples is
//! the sample at rank `ceil(p / 100 * n)`.

/// One percentile of a sample set, with the counts that say how much to
/// trust it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: u64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`, which
/// must be sorted ascending. `None` for an empty sample set.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let value = sorted[rank.clamp(1, n) - 1];
    let at_or_below = sorted.partition_point(|&x| x <= value);
    Some(Percentile {
        value,
        samples: n,
        beyond: n - at_or_below,
    })
}

/// A percentile taken per block of sub-windows, then the median across
/// blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Blocked {
    /// Median of the per-block percentiles.
    pub value: f64,
    /// Samples over all blocks.
    pub samples: usize,
    /// Samples beyond their block's percentile, over all blocks.
    pub beyond: usize,
    /// Blocks.
    pub blocks: usize,
    /// Each block's percentile, in window order.
    pub per_block: Vec<f64>,
}

/// The `p`-th percentile of `samples` (`(sub-window, value)` pairs) taken
/// per block and reported as the median over blocks. Consecutive
/// sub-windows are merged into a block until it holds at least `min`
/// samples; a short remainder joins the last block. With fewer than `2 *
/// min` samples this is the plain percentile of all of them.
pub fn blocked_percentile(samples: &[(u32, u64)], p: f64, min: usize) -> Option<Blocked> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mut blocks: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<u64> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let window = sorted[i].0;
        while i < sorted.len() && sorted[i].0 == window {
            current.push(sorted[i].1);
            i += 1;
        }
        if current.len() >= min {
            blocks.push(std::mem::take(&mut current));
        }
    }
    match blocks.last_mut() {
        Some(last) => last.append(&mut current),
        None => blocks.push(current),
    }
    let mut values = Vec::with_capacity(blocks.len());
    let mut beyond = 0;
    for mut block in blocks {
        block.sort_unstable();
        let pct = percentile(&block, p).expect("blocks are never empty");
        beyond += pct.beyond;
        values.push(pct.value as f64);
    }
    Some(Blocked {
        value: median(&values).expect("at least one block"),
        samples: samples.len(),
        beyond,
        blocks: values.len(),
        per_block: values,
    })
}

/// The median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// `part / whole`, or 0 when there is nothing to divide.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50, 100, 50));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99, 1));
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100);
        assert_eq!(percentile(&v, 100.0).unwrap().beyond, 0);
        assert_eq!(percentile(&v, 0.1).unwrap().value, 1);
    }

    #[test]
    fn ties_are_not_counted_beyond() {
        let v = [1, 2, 2, 2, 9];
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (2, 1));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (9, 0));
    }

    #[test]
    fn small_sets_and_empty() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0).unwrap().value, 7);
        assert_eq!(percentile(&[3, 4], 50.0).unwrap().value, 3);
        assert_eq!(percentile(&[3, 4], 51.0).unwrap().value, 4);
    }

    #[test]
    fn blocked_percentile_takes_the_median_block() {
        // Three sub-windows of 100 samples; the middle one is slow.
        let mut v = Vec::new();
        for w in 0..3u32 {
            for x in 1..=100u64 {
                v.push((w, if w == 1 { x * 10 } else { x }));
            }
        }
        let b = blocked_percentile(&v, 99.0, 100).unwrap();
        assert_eq!((b.value, b.samples, b.beyond, b.blocks), (99.0, 300, 3, 3));
        // Blocks of at least 150 samples: windows 0+1, then 2 joins the last.
        let b = blocked_percentile(&v, 50.0, 150).unwrap();
        assert_eq!(b.blocks, 1);
        assert_eq!(b.value, percentile(&sorted(&v), 50.0).unwrap().value as f64);
        // Two blocks: the median is the mean of their percentiles.
        let b = blocked_percentile(&v[..200], 50.0, 100).unwrap();
        assert_eq!((b.value, b.blocks), ((50.0 + 500.0) / 2.0, 2));
        assert_eq!(blocked_percentile(&[], 50.0, 10), None);
    }

    fn sorted(v: &[(u32, u64)]) -> Vec<u64> {
        let mut out: Vec<u64> = v.iter().map(|s| s.1).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
