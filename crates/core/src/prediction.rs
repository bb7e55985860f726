//! The Prediction strategy.

use crate::{SprintStrategy, StrategyContext, UpperBoundTable};
use dcs_units::{Ratio, Seconds};
use dcs_workload::Estimate;
use serde::{Deserialize, Serialize};

/// The Prediction strategy (§V-A, Eq. 1).
///
/// Works from a *predicted burst duration* `BDu_p`. Each period it computes
/// the average sprinting degree so far (`SDe_avg(t)`, supplied by the
/// controller in the context), derives the *equivalent burst duration*
///
/// ```text
/// BDu_e(t) = BDu_p × (SDe_max / SDe_avg(t))
/// ```
///
/// and selects the optimal upper bound `SDe_opt(t)` for that equivalent
/// duration from the Oracle-built [`UpperBoundTable`]. The intuition: if
/// the sprint has so far run below the maximum degree, the stored energy
/// drains slower, which is equivalent to preparing for a shorter burst.
///
/// # Examples
///
/// ```
/// use dcs_core::{Prediction, UpperBoundTable};
/// use dcs_units::Ratio;
/// use dcs_workload::Estimate;
///
/// let table = UpperBoundTable::new(
///     vec![5.0, 15.0],
///     vec![2.0, 4.0],
///     vec![Ratio::new(4.0); 4],
/// ).unwrap();
/// // Predict a 10-minute burst with +20% estimation error.
/// let strategy = Prediction::new(Estimate::with_error(10.0 * 60.0, 0.2), table);
/// assert_eq!(strategy.predicted_duration().as_minutes(), 12.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted burst duration in seconds (true value + estimation error).
    bdu_p: Estimate,
    table: UpperBoundTable,
}

impl Prediction {
    /// Creates the strategy from a burst-duration estimate (seconds) and an
    /// upper-bound table.
    #[must_use]
    pub fn new(bdu_p: Estimate, table: UpperBoundTable) -> Prediction {
        Prediction { bdu_p, table }
    }

    /// Returns the predicted burst duration (`BDu_p`).
    #[must_use]
    pub fn predicted_duration(&self) -> Seconds {
        Seconds::new(self.bdu_p.predicted())
    }

    /// Returns the table.
    #[must_use]
    pub fn table(&self) -> &UpperBoundTable {
        &self.table
    }

    /// Returns the equivalent burst duration `BDu_e(t)` for an average
    /// degree so far.
    ///
    /// # Panics
    ///
    /// Panics if `avg_degree` is not strictly positive.
    #[must_use]
    fn equivalent_duration(&self, max_degree: Ratio, avg_degree: Ratio) -> Seconds {
        assert!(avg_degree.as_f64() > 0.0, "average degree must be positive");
        self.predicted_duration() * (max_degree.as_f64() / avg_degree.as_f64())
    }
}

impl SprintStrategy for Prediction {
    fn upper_bound(&mut self, ctx: &StrategyContext) -> Ratio {
        let bdu_e = self.equivalent_duration(ctx.max_degree, ctx.avg_degree);
        self.table
            .lookup(bdu_e, ctx.max_demand_seen)
            .clamp(Ratio::ONE, ctx.max_degree)
    }

    fn name(&self) -> &str {
        "Prediction"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> UpperBoundTable {
        UpperBoundTable::new(
            vec![5.0, 15.0],
            vec![2.0, 4.0],
            vec![
                Ratio::new(4.0),
                Ratio::new(4.0),
                Ratio::new(2.0),
                Ratio::new(3.0),
            ],
        )
        .unwrap()
    }

    fn ctx(avg_degree: f64, max_seen: f64) -> StrategyContext {
        StrategyContext {
            since_burst_start: Seconds::from_minutes(2.0),
            demand: max_seen,
            max_demand_seen: max_seen,
            max_degree: Ratio::new(4.0),
            avg_degree: Ratio::new(avg_degree),
            remaining_energy: Ratio::new(0.8),
        }
    }

    #[test]
    fn equivalent_duration_stretches_with_low_avg_degree() {
        let p = Prediction::new(Estimate::exact(600.0), table());
        // Running at max degree: equivalent = predicted.
        assert_eq!(
            p.equivalent_duration(Ratio::new(4.0), Ratio::new(4.0)),
            Seconds::new(600.0)
        );
        // Running at half the max degree: drains half as fast -> but the
        // paper's formula *stretches* the equivalent duration.
        assert_eq!(
            p.equivalent_duration(Ratio::new(4.0), Ratio::new(2.0)),
            Seconds::new(1200.0)
        );
    }

    #[test]
    fn short_predictions_leave_bound_loose() {
        // Predicted 4-minute burst: below the 5-minute row -> bound 4.0.
        let mut p = Prediction::new(Estimate::exact(240.0), table());
        let b = p.upper_bound(&ctx(4.0, 4.0));
        assert_eq!(b.as_f64(), 4.0);
    }

    #[test]
    fn long_predictions_tighten_bound() {
        // Predicted 15-minute burst at max degree so far, degree-4 burst.
        let mut p = Prediction::new(Estimate::exact(900.0), table());
        let b = p.upper_bound(&ctx(4.0, 4.0));
        assert_eq!(b.as_f64(), 3.0);
    }

    #[test]
    fn estimation_error_shifts_the_bound() {
        // True burst 15 min, underestimated by 60%: predicted 6 min ->
        // looser bound than the accurate prediction.
        let mut under = Prediction::new(Estimate::with_error(900.0, -0.6), table());
        let mut exact = Prediction::new(Estimate::exact(900.0), table());
        let c = ctx(4.0, 4.0);
        assert!(under.upper_bound(&c) > exact.upper_bound(&c));
    }

    #[test]
    fn bound_never_exceeds_max_degree() {
        let mut p = Prediction::new(Estimate::exact(60.0), table());
        let mut c = ctx(4.0, 4.0);
        c.max_degree = Ratio::new(2.5);
        assert!(p.upper_bound(&c) <= Ratio::new(2.5));
    }
}
