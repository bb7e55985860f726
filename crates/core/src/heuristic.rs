//! The Heuristic strategy.

use crate::{SprintInfo, SprintStrategy, StrategyContext};
use dcs_units::{Ratio, Seconds};
use dcs_workload::Estimate;
use serde::{Deserialize, Serialize};

/// The Heuristic strategy (§V-A, Eqs. 2–3).
///
/// Works from an *estimated best average sprinting degree* `SDe_p`. The
/// initial upper bound adds a user-chosen flexibility factor `K %`:
///
/// ```text
/// SDe_ini = SDe_p × (1 + K%)
/// ```
///
/// and the bound is then adjusted every period by the ratio of remaining
/// energy to remaining time,
///
/// ```text
/// SDe_u(t) = SDe_ini × (RE(t) / RT(t))
/// RE(t) = EB(t) / EB_tot
/// RT(t) = (SDu_p − t) / SDu_p,   SDu_p = EB_tot / P_add(SDe_p)
/// ```
///
/// so the sprint speeds up when energy is being consumed slower than
/// planned and slows down when it drains too fast. `EB_tot` and the power
/// curve arrive at sprint start; `EB(t)` arrives in the per-step context.
///
/// The paper leaves the budget's units abstract; here `EB` is the joule
/// budget of the sprint and `P_add(d)` is the additional facility IT power
/// at degree `d` (see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heuristic {
    /// Estimated best average sprinting degree (`SDe_p`).
    sde_p: Estimate,
    /// Flexibility factor `K` as a fraction (0.10 = the paper's 10 %).
    flexibility: f64,
    /// Predicted sprint duration, computed at sprint start.
    sdu_p: Option<Seconds>,
}

impl Heuristic {
    /// Creates the strategy from an `SDe_p` estimate and a flexibility
    /// factor (fraction, e.g. `0.10` for the paper's `K% = 10 %`).
    ///
    /// # Panics
    ///
    /// Panics if `flexibility` is negative or not finite.
    #[must_use]
    pub fn new(sde_p: Estimate, flexibility: f64) -> Heuristic {
        assert!(
            flexibility >= 0.0 && flexibility.is_finite(),
            "flexibility must be non-negative"
        );
        Heuristic {
            sde_p,
            flexibility,
            sdu_p: None,
        }
    }

    /// Creates the strategy with the paper's default flexibility of 10 %.
    #[must_use]
    pub fn with_paper_flexibility(sde_p: Estimate) -> Heuristic {
        Heuristic::new(sde_p, 0.10)
    }

    /// Returns the initial upper bound `SDe_ini = SDe_p × (1 + K%)`.
    #[must_use]
    fn initial_bound(&self) -> Ratio {
        Ratio::new(self.sde_p.predicted() * (1.0 + self.flexibility))
    }

    /// Returns the predicted sprint duration `SDu_p`, available after
    /// [`SprintStrategy::on_sprint_start`].
    #[must_use]
    pub fn predicted_sprint_duration(&self) -> Option<Seconds> {
        self.sdu_p
    }
}

impl SprintStrategy for Heuristic {
    fn on_sprint_start(&mut self, info: &SprintInfo) {
        let degree = Ratio::new(self.sde_p.predicted().max(1.0)).min(info.max_degree);
        let p_add = info.power_curve.additional_power(degree);
        self.sdu_p = Some(if p_add.is_zero() {
            Seconds::NEVER
        } else {
            info.total_energy_budget / p_add
        });
    }

    fn upper_bound(&mut self, ctx: &StrategyContext) -> Ratio {
        let ini = self.initial_bound();
        let Some(sdu_p) = self.sdu_p else {
            // Sprint-start notification not seen yet: fall back to the
            // initial bound.
            return ini.clamp(Ratio::ONE, ctx.max_degree);
        };
        let re = ctx.remaining_energy.as_f64();
        let rt = if sdu_p.is_never() {
            1.0
        } else {
            ((sdu_p - ctx.since_burst_start).as_secs() / sdu_p.as_secs()).max(1e-3)
        };
        Ratio::new(ini.as_f64() * re / rt).clamp(Ratio::ONE, ctx.max_degree)
    }

    fn name(&self) -> &str {
        "Heuristic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerCurve;
    use dcs_server::ServerSpec;
    use dcs_units::Energy;

    fn info() -> SprintInfo {
        SprintInfo {
            total_energy_budget: Energy::from_kilowatt_hours(100.0),
            power_curve: PowerCurve::new(ServerSpec::paper_default(), 10_000),
            max_degree: Ratio::new(4.0),
        }
    }

    fn ctx(t: Seconds, re: f64, avg: f64) -> StrategyContext {
        StrategyContext {
            since_burst_start: t,
            demand: 3.0,
            max_demand_seen: 3.0,
            max_degree: Ratio::new(4.0),
            avg_degree: Ratio::new(avg),
            remaining_energy: Ratio::new(re),
        }
    }

    #[test]
    fn initial_bound_adds_flexibility() {
        let h = Heuristic::with_paper_flexibility(Estimate::exact(2.0));
        assert!((h.initial_bound().as_f64() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn on_plan_keeps_initial_bound() {
        let mut h = Heuristic::with_paper_flexibility(Estimate::exact(2.0));
        h.on_sprint_start(&info());
        let sdu_p = h.predicted_sprint_duration().unwrap();
        // Halfway through the plan with half the energy left: on plan.
        let b = h.upper_bound(&ctx(sdu_p * 0.5, 0.5, 2.0));
        assert!((b.as_f64() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn surplus_energy_raises_bound() {
        let mut h = Heuristic::with_paper_flexibility(Estimate::exact(2.0));
        h.on_sprint_start(&info());
        let sdu_p = h.predicted_sprint_duration().unwrap();
        // Halfway through but 80% of energy remains: loosen.
        let b = h.upper_bound(&ctx(sdu_p * 0.5, 0.8, 2.0));
        assert!(b.as_f64() > 2.2);
    }

    #[test]
    fn deficit_energy_lowers_bound() {
        let mut h = Heuristic::with_paper_flexibility(Estimate::exact(2.0));
        h.on_sprint_start(&info());
        let sdu_p = h.predicted_sprint_duration().unwrap();
        let b = h.upper_bound(&ctx(sdu_p * 0.5, 0.2, 2.0));
        assert!(b.as_f64() < 2.2);
    }

    #[test]
    fn bound_respects_hardware_limits() {
        let mut h = Heuristic::with_paper_flexibility(Estimate::exact(3.9));
        h.on_sprint_start(&info());
        // Huge surplus cannot exceed the maximum degree.
        let b = h.upper_bound(&ctx(Seconds::new(1.0), 1.0, 1.0));
        assert!(b <= Ratio::new(4.0));
        // A drained budget cannot push the bound under 1.
        let b2 = h.upper_bound(&ctx(Seconds::new(1.0), 0.0, 1.0));
        assert_eq!(b2, Ratio::ONE);
    }

    #[test]
    fn without_start_notice_falls_back_to_initial() {
        let mut h = Heuristic::with_paper_flexibility(Estimate::exact(2.0));
        let b = h.upper_bound(&ctx(Seconds::new(1.0), 0.5, 1.0));
        assert!((b.as_f64() - 2.2).abs() < 1e-12);
    }
}
