//! Exact order statistics over raw samples. No histogram buckets: every
//! percentile is interpolated between the two nearest recorded values.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks (the "type 7" rule of R and NumPy). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `xs`; `0.0` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// Geometric mean of the positive values in `xs`; `0.0` when none.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_samples() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_ignores_non_positive_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[0.0, 4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
