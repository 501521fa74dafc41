//! The one set of summary statistics every workload reports through.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver that gates this
//! benchmark computes; `percentile` uses the same interpolation so a p50
//! here equals `median` and a p25 equals the first quartile.

/// A percentile is only reported with this many samples beyond it: with
/// fewer, the "tail" is one or two outliers and does not repeat.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    Empty,
    /// A non-finite (or, for the geomean, non-positive) sample.
    BadSample(f64),
    /// `p` outside (0, 100).
    BadPercentile(f64),
    /// Fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the percentile.
    TooFewSamples {
        p: f64,
        have: usize,
        need: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::BadSample(x) => write!(f, "unusable sample {x}"),
            StatsError::BadPercentile(p) => write!(f, "percentile {p} outside (0, 100)"),
            StatsError::TooFewSamples { p, have, need } => write!(
                f,
                "p{p} needs {need} samples for {MIN_SAMPLES_BEYOND} beyond it, have {have}"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

fn sorted(xs: &[f64]) -> Result<Vec<f64>, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if let Some(&bad) = xs.iter().find(|x| !x.is_finite()) {
        return Err(StatsError::BadSample(bad));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

/// Value at 1-based fractional rank `pos` of a sorted sample, clamped to
/// the sample's ends.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    let pos = pos.clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    let v = sorted(xs)?;
    Ok(at_rank(&v, (v.len() + 1) as f64 / 2.0))
}

/// (first quartile, median, third quartile).
pub fn quartiles(xs: &[f64]) -> Result<(f64, f64, f64), StatsError> {
    let v = sorted(xs)?;
    let m = (v.len() + 1) as f64;
    Ok((
        at_rank(&v, m * 0.25),
        at_rank(&v, m * 0.5),
        at_rank(&v, m * 0.75),
    ))
}

/// The `p`-th percentile (0 < p < 100). An error, not a number, when fewer
/// than ten samples lie beyond it on the far side from the median.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 100.0) {
        return Err(StatsError::BadPercentile(p));
    }
    let v = sorted(xs)?;
    let tail = (100.0 - p).min(p) / 100.0;
    if (v.len() as f64) * tail < MIN_SAMPLES_BEYOND {
        return Err(StatsError::TooFewSamples {
            p,
            have: v.len(),
            need: (MIN_SAMPLES_BEYOND / tail).ceil() as usize,
        });
    }
    Ok(at_rank(&v, (v.len() + 1) as f64 * p / 100.0))
}

pub fn geomean(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if let Some(&bad) = xs.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
        return Err(StatsError::BadSample(bad));
    }
    Ok((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs).unwrap(), (2.75, 5.5, 8.25));
        assert_eq!(median(&xs).unwrap(), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), (1.0, 2.0, 3.0));
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
        assert_eq!(median(&[4.0, 2.0]).unwrap(), 3.0);
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten_samples() {
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        // 500 samples: exactly 25 beyond p95, exactly 10 beyond p98.
        assert!((percentile(&xs, 95.0).unwrap() - 475.95).abs() < 1e-9);
        assert!(percentile(&xs, 98.0).is_ok());
        assert_eq!(
            percentile(&xs, 99.0),
            Err(StatsError::TooFewSamples {
                p: 99.0,
                have: 500,
                need: 1000
            })
        );
        // 10 samples support no percentile at all; `median` is the way
        // to ask for the middle of a small sample.
        let ten = &xs[..10];
        assert!(matches!(
            percentile(ten, 50.0),
            Err(StatsError::TooFewSamples { need: 20, .. })
        ));
        assert!(matches!(
            percentile(ten, 90.0),
            Err(StatsError::TooFewSamples { need: 100, .. })
        ));
        assert_eq!(
            percentile(&xs[..20], 50.0).unwrap(),
            median(&xs[..20]).unwrap()
        );
        // The lower tail is held to the same rule.
        assert!(percentile(&xs[..99], 10.0).is_err());
        assert!(percentile(&xs[..100], 10.0).is_ok());
        assert_eq!(
            percentile(&xs, 100.0),
            Err(StatsError::BadPercentile(100.0))
        );
    }

    #[test]
    fn geomean_and_bad_input() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), Err(StatsError::BadSample(0.0)));
        assert_eq!(median(&[]), Err(StatsError::Empty));
        assert!(matches!(
            median(&[1.0, f64::NAN]),
            Err(StatsError::BadSample(_))
        ));
    }
}
