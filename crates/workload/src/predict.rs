//! Predictions with an estimation-error knob.

use serde::{Deserialize, Serialize};

/// A predicted quantity derived from a true value and a relative estimation
/// error.
///
/// Fig. 9 of the paper sweeps the estimation error of the Prediction
/// strategy's burst duration (`BDu_p`) and the Heuristic strategy's best
/// average sprinting degree (`SDe_p`) from −100 % to +100 %; both are
/// computed as `true_value × (1 + error)`. An error of −100 % floors the
/// prediction at zero.
///
/// # Examples
///
/// ```
/// use dcs_workload::Estimate;
///
/// // The MS trace's real burst duration with +20% estimation error.
/// let bdu = Estimate::with_error(16.2, 0.20);
/// assert!((bdu.predicted() - 19.44).abs() < 1e-9);
/// assert_eq!(bdu.error(), 0.20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    true_value: f64,
    error: f64,
}

impl Estimate {
    /// Creates an estimate of `true_value` with relative `error`
    /// (`0.2` = +20 % overestimate, `-0.5` = −50 % underestimate).
    ///
    /// # Panics
    ///
    /// Panics if either argument is not finite, `true_value` is negative,
    /// or `error < -1` (an error below −100 % would predict a negative
    /// quantity).
    #[must_use]
    pub fn with_error(true_value: f64, error: f64) -> Estimate {
        assert!(
            true_value.is_finite() && true_value >= 0.0,
            "true value must be finite and non-negative"
        );
        assert!(
            error.is_finite() && error >= -1.0,
            "error must be finite and at least -100%"
        );
        Estimate { true_value, error }
    }

    /// Creates a perfect estimate (zero error).
    #[must_use]
    pub fn exact(true_value: f64) -> Estimate {
        Estimate::with_error(true_value, 0.0)
    }

    /// Returns the predicted value: `true_value × (1 + error)`.
    #[must_use]
    pub fn predicted(&self) -> f64 {
        self.true_value * (1.0 + self.error)
    }

    /// Returns the relative error.
    #[must_use]
    pub fn error(&self) -> f64 {
        self.error
    }
}

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} (true {:.3}, error {:+.0}%)",
            self.predicted(),
            self.true_value,
            self.error * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_is_exact() {
        let e = Estimate::exact(16.2);
        assert_eq!(e.predicted(), 16.2);
    }

    #[test]
    fn positive_error_overestimates() {
        let e = Estimate::with_error(10.0, 0.6);
        assert!((e.predicted() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn minus_hundred_percent_floors_at_zero() {
        let e = Estimate::with_error(10.0, -1.0);
        assert_eq!(e.predicted(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least -100%")]
    fn below_minus_hundred_panics() {
        let _ = Estimate::with_error(10.0, -1.5);
    }

    #[test]
    fn display_shows_error() {
        assert!(Estimate::with_error(10.0, 0.2).to_string().contains("+20%"));
    }
}
