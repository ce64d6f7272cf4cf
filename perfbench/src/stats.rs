//! Order statistics the report is built from.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
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

/// 1-based rank of the tail figure among `n` ascending samples: the 90th
/// percentile by nearest rank, lowered when needed so that at least ten
/// samples lie beyond it, and never below the median rank. From 100
/// samples on this is exactly the nearest-rank p90.
pub fn tail_rank(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let p90 = (9 * n).div_ceil(10);
    let median = n.div_ceil(2);
    p90.min(n.saturating_sub(10)).max(median)
}

/// The tail figure of `xs` (see [`tail_rank`]) and the percentile it
/// sits at; `(0, 0)` for an empty slice.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let rank = tail_rank(xs.len());
    if rank == 0 {
        return (0.0, 0.0);
    }
    (sorted(xs)[rank - 1], 100.0 * rank as f64 / xs.len() as f64)
}

/// Nearest-rank percentile `q` (0..=100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((q / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
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
    fn tail_keeps_ten_samples_beyond_and_is_p90_from_100_samples() {
        for n in 1..2000 {
            let r = tail_rank(n);
            assert!(r >= n.div_ceil(2) && r <= n, "n={n} r={r}");
            if n >= 20 {
                assert!(n - r >= 10, "n={n}: only {} samples beyond", n - r);
            }
            if n >= 100 {
                assert_eq!(r, (9 * n).div_ceil(10), "n={n} is not the p90 rank");
            } else {
                assert_eq!(r, (n.saturating_sub(10)).max(n.div_ceil(2)), "n={n}");
            }
        }
    }

    #[test]
    fn tail_of_one_to_hundred_is_ninety() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs), (40.0, 80.0));
    }

    #[test]
    fn median_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 90.0), 5.0);
    }
}
