//! Order statistics used for every reported figure.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `n - 1` cut points that divide `xs` into `n` groups, computed exactly
/// as Python's `statistics.quantiles(xs, n=n)` with its default
/// `method='exclusive'`.  Needs at least two values.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(xs.len() >= 2 && n >= 1, "quantiles need two values");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
        })
        .collect()
}

/// The 95th percentile by the same interpolation as [`quantiles`].
pub fn p95(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        1 => xs[0],
        _ => quantiles(xs, 20)[18],
    }
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let q = quantiles(xs, 4);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med.abs()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quantiles(&[5.0, 1.0, 3.0], 4), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn p95_interpolates_and_spread_is_relative() {
        // statistics.quantiles(range(1, 201), n=20)[18] == 190.95
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!((p95(&xs) - 190.95).abs() < 1e-9);
        let ys: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ys) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
