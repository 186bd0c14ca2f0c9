//! Order statistics used by every metric.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it. `q` is in `(0, 1]`; an empty
/// sample gives `None`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    xs
}

/// Median by nearest rank; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    nearest_rank(&sorted(xs.to_vec()), 0.5).unwrap_or(0.0)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A percentile together with the sample it came from, so every reported
/// figure carries its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value.
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

/// The nearest-rank `q` percentile of `sorted`, with its sample counts.
pub fn pct(sorted: &[f64], q: f64) -> Pct {
    let value = nearest_rank(sorted, q).unwrap_or(0.0);
    Pct { value, n: sorted.len(), beyond: sorted.iter().filter(|x| **x > value).count() }
}

/// The median over `groups` of each group's `q` percentile: a figure
/// that a few slow stretches of a drifting host cannot move. Sample counts
/// are over all groups together.
pub fn grouped_pct(groups: &[Vec<f64>], q: f64) -> Pct {
    let per_group: Vec<f64> =
        groups.iter().filter_map(|g| nearest_rank(&sorted(g.clone()), q)).collect();
    let value = median(&per_group);
    let n = groups.iter().map(Vec::len).sum();
    let beyond = groups.iter().flatten().filter(|x| **x > value).count();
    Pct { value, n, beyond }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.01), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = pct(&xs, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!((p.n, p.beyond), (1000, 10));
    }

    #[test]
    fn grouped_percentile_is_the_median_of_group_percentiles() {
        let groups = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0], vec![4.0, 5.0, 6.0]];
        let p = grouped_pct(&groups, 0.5);
        assert_eq!(p.value, 5.0);
        assert_eq!((p.n, p.beyond), (9, 4));
        let slow = vec![vec![1.0], vec![1.1], vec![f64::INFINITY]];
        assert_eq!(grouped_pct(&slow, 0.5).value, 1.1);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
