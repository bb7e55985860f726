//! The Adaptive strategy — the paper's future-work direction, implemented.

use crate::{SprintStrategy, StrategyContext, UpperBoundTable};
use dcs_units::{Ratio, Seconds};
use dcs_workload::OnlineBurstPredictor;
use serde::{Deserialize, Serialize};

/// An online variant of the Prediction strategy that needs **no a-priori
/// burst estimate**: it learns burst durations and degrees from the demand
/// stream with an [`OnlineBurstPredictor`] and feeds them through the same
/// Oracle-built [`UpperBoundTable`] the Prediction strategy uses.
///
/// §V-A closes with *"we can develop more sophisticated strategies by
/// integrating some recently proposed solutions for burst prediction ...
/// which is our future work"*. This strategy is the simplest member of
/// that family: an EWMA burst model, floored by the current burst's
/// elapsed time so that predictions never lag behind reality.
///
/// On the first burst (nothing learned yet) it behaves like Greedy — the
/// safest default for short bursts — and tightens once history exists.
///
/// # Examples
///
/// ```
/// use dcs_core::{Adaptive, SprintStrategy, UpperBoundTable};
/// use dcs_units::Ratio;
///
/// let table = UpperBoundTable::new(
///     vec![5.0, 15.0],
///     vec![2.0, 4.0],
///     vec![Ratio::new(4.0); 4],
/// ).unwrap();
/// let strategy = Adaptive::new(table, 1.0, 0.5);
/// assert_eq!(strategy.name(), "Adaptive");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adaptive {
    predictor: OnlineBurstPredictor,
    table: UpperBoundTable,
}

impl Adaptive {
    /// Creates the strategy from an upper-bound table, a burst threshold
    /// (normally 1.0) and an EWMA factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative or the EWMA factor is outside
    /// `(0, 1]`.
    #[must_use]
    pub fn new(table: UpperBoundTable, threshold: f64, ewma: f64) -> Adaptive {
        Adaptive {
            predictor: OnlineBurstPredictor::new(threshold, ewma),
            table,
        }
    }

    /// Returns the predictor state (for inspection in tests/telemetry).
    #[must_use]
    pub fn predictor(&self) -> &OnlineBurstPredictor {
        &self.predictor
    }
}

impl SprintStrategy for Adaptive {
    fn observe(&mut self, demand: f64, dt: Seconds) {
        self.predictor.observe(demand, dt);
    }

    fn upper_bound(&mut self, ctx: &StrategyContext) -> Ratio {
        if self.predictor.completed_bursts() == 0 {
            // Nothing learned yet: serve the burst greedily.
            return ctx.max_degree;
        }
        let duration = self.predictor.predicted_duration();
        // Like Prediction's Eq. 1, corrected by how hard we have actually
        // been sprinting so far.
        let equivalent = if ctx.avg_degree.as_f64() > 0.0 {
            duration * (ctx.max_degree.as_f64() / ctx.avg_degree.as_f64())
        } else {
            duration
        };
        let degree = self.predictor.predicted_degree().max(ctx.max_demand_seen);
        self.table
            .lookup(equivalent, degree)
            .clamp(Ratio::ONE, ctx.max_degree)
    }

    fn name(&self) -> &str {
        "Adaptive"
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
                Ratio::new(2.5),
            ],
        )
        .unwrap()
    }

    fn ctx(avg: f64, seen: f64) -> StrategyContext {
        StrategyContext {
            since_burst_start: Seconds::new(30.0),
            demand: seen,
            max_demand_seen: seen,
            max_degree: Ratio::new(4.0),
            avg_degree: Ratio::new(avg),
            remaining_energy: Ratio::new(0.9),
        }
    }

    #[test]
    fn first_burst_is_greedy() {
        let mut a = Adaptive::new(table(), 1.0, 0.5);
        assert_eq!(a.upper_bound(&ctx(1.0, 3.0)), Ratio::new(4.0));
    }

    #[test]
    fn learned_long_bursts_tighten_the_bound() {
        let mut a = Adaptive::new(table(), 1.0, 1.0);
        // Teach it a 15-minute burst.
        for _ in 0..(15 * 60) {
            a.observe(3.5, Seconds::new(1.0));
        }
        for _ in 0..30 {
            a.observe(0.5, Seconds::new(1.0));
        }
        assert_eq!(a.predictor().completed_bursts(), 1);
        // Next burst: the table's long-duration row applies.
        let b = a.upper_bound(&ctx(4.0, 3.5));
        assert!(b < Ratio::new(4.0), "bound {b}");
    }

    #[test]
    fn learned_short_bursts_stay_loose() {
        let mut a = Adaptive::new(table(), 1.0, 1.0);
        for _ in 0..60 {
            a.observe(3.0, Seconds::new(1.0));
        }
        for _ in 0..30 {
            a.observe(0.5, Seconds::new(1.0));
        }
        // 1-minute bursts at max degree: equivalent duration 1 min -> the
        // short row of the table -> loose bound.
        let b = a.upper_bound(&ctx(4.0, 3.0));
        assert_eq!(b, Ratio::new(4.0));
    }
}
