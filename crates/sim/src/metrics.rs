//! Summary statistics for simulation series.

/// Mean / deviation / extrema of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (all zeros for an empty slice).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        Summary {
            count: values.len(),
            mean,
            stddev: var.sqrt(),
            min,
            max,
        }
    }

    /// Relative half-width of a crude 95% confidence interval
    /// (`1.96·σ/(√n·mean)`) with `n = self.count`, the same count the
    /// mean and deviation were computed over; 0 when undefined
    /// (fewer than two samples, or a zero mean that would make the
    /// ratio blow up).
    pub fn relative_ci(&self) -> f64 {
        if self.count < 2 || self.mean == 0.0 {
            return 0.0;
        }
        let n = self.count as f64;
        let ci = 1.96 * self.stddev / (n.sqrt() * self.mean.abs());
        if ci.is_finite() {
            ci
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_of_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_value_has_zero_stddev() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.relative_ci(), 0.0);
    }

    #[test]
    fn relative_ci_undefined_below_two_samples() {
        assert_eq!(Summary::of(&[]).relative_ci(), 0.0);
        assert_eq!(Summary::of(&[3.0]).relative_ci(), 0.0);
        // A hand-built summary with an inconsistent nonzero deviation
        // still reports 0 for a single sample.
        let s = Summary {
            count: 1,
            mean: 5.0,
            stddev: 2.0,
            min: 5.0,
            max: 5.0,
        };
        assert_eq!(s.relative_ci(), 0.0);
    }

    #[test]
    fn relative_ci_undefined_for_zero_mean() {
        let s = Summary::of(&[-1.0, 1.0]);
        assert_eq!(s.mean, 0.0);
        assert!(s.stddev > 0.0);
        assert_eq!(s.relative_ci(), 0.0);
    }

    #[test]
    fn relative_ci_positive_for_negative_mean_series() {
        let neg = Summary::of(&[-1.0, -2.0, -3.0]);
        let pos = Summary::of(&[1.0, 2.0, 3.0]);
        assert!(neg.relative_ci() > 0.0);
        assert!((neg.relative_ci() - pos.relative_ci()).abs() < 1e-12);
    }

    #[test]
    fn relative_ci_matches_formula() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let expected = 1.96 * s.stddev / (4.0f64.sqrt() * s.mean);
        assert!((s.relative_ci() - expected).abs() < 1e-12);
    }

    #[test]
    fn relative_ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        let series: Vec<f64> = (0..300).map(|i| 1.0 + (i % 3) as f64).collect();
        let many = Summary::of(&series);
        assert!(many.relative_ci() < few.relative_ci());
    }
}
