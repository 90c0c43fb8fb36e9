//! Order statistics over timing samples.

/// Median, quartiles and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
    /// The highest whole percentile with at least ten samples above it,
    /// with its value; `None` while fewer than 21 samples exist (the
    /// percentile would sit at or below the median).
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        // At least ten samples beyond percentile k: n * (100 - k) / 100 >= 10.
        let k = 100 - 1000_usize.div_ceil(n);
        let tail = (n >= 21).then(|| (k as u32, quantile(&s, k as f64 / 100.0)));
        Some(Summary {
            n,
            p25: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            tail,
        })
    }
}

/// Linear-interpolation quantile of sorted, non-empty `s` at `p` in [0, 1].
fn quantile(s: &[f64], p: f64) -> f64 {
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of non-empty `samples`, or NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_one_to_five() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (2.0, 3.0, 4.0));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        let (k, x) = s.tail.unwrap();
        assert_eq!(k, 80);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
    }
}
