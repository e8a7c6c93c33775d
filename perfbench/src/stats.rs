//! Order statistics, computed the way Python's `statistics` module does,
//! so the benchmark's own spread figures match an outside check.

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method); a single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (it extrapolates)
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
