//! Information the controller shares with sprinting-degree strategies.

use dcs_server::ServerSpec;
use dcs_units::{Energy, Power, Ratio, Seconds};
use serde::{Deserialize, Serialize};

/// The facility's power-vs-degree curve, used by strategies to convert an
/// energy budget into a sprint duration.
///
/// # Examples
///
/// ```
/// use dcs_core::PowerCurve;
/// use dcs_server::ServerSpec;
/// use dcs_units::Ratio;
///
/// let curve = PowerCurve::new(ServerSpec::paper_default(), 180_000);
/// // Additional power at degree 1 (no sprint) is zero...
/// assert_eq!(curve.additional_power(Ratio::ONE).as_watts(), 0.0);
/// // ...and at a full sprint it is the paper's 16.2 MW.
/// assert!((curve.additional_power(Ratio::new(4.0)).as_megawatts() - 16.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCurve {
    server: ServerSpec,
    server_count: usize,
}

impl PowerCurve {
    /// Creates the curve for `server_count` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `server_count` is zero.
    #[must_use]
    pub fn new(server: ServerSpec, server_count: usize) -> PowerCurve {
        assert!(server_count > 0, "server count must be positive");
        PowerCurve {
            server,
            server_count,
        }
    }

    /// Returns the facility IT power at a sprinting degree (all active
    /// cores busy).
    #[must_use]
    pub fn it_power(&self, degree: Ratio) -> Power {
        let cores = self.server.cores_at_degree(degree.max(Ratio::ONE));
        self.server.power_at(cores, 1.0) * self.server_count as f64
    }

    /// Returns the *additional* facility IT power a sprint at `degree`
    /// draws over the peak normal point (zero at degree ≤ 1).
    #[must_use]
    pub fn additional_power(&self, degree: Ratio) -> Power {
        (self.it_power(degree) - self.server.peak_normal_power() * self.server_count as f64)
            .max_zero()
    }

    /// Returns the server specification.
    #[must_use]
    pub fn server(&self) -> &ServerSpec {
        &self.server
    }
}

/// Facts fixed at sprint start, handed to strategies by
/// [`SprintStrategy::on_sprint_start`](crate::SprintStrategy::on_sprint_start).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SprintInfo {
    /// Total additional-energy budget available to this sprint: UPS energy
    /// plus CB-overload energy plus TES-enabled chiller savings (the
    /// paper's `EB_tot`).
    pub total_energy_budget: Energy,
    /// The facility power curve for converting budgets to durations.
    pub power_curve: PowerCurve,
    /// The maximum allowed sprinting degree (`SDe_max`).
    pub max_degree: Ratio,
}

/// Per-step context handed to strategies by
/// [`SprintStrategy::upper_bound`](crate::SprintStrategy::upper_bound).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyContext {
    /// Time since the current burst (sprint) began.
    pub since_burst_start: Seconds,
    /// Current normalized demand.
    pub demand: f64,
    /// Highest demand observed since the burst began.
    pub max_demand_seen: f64,
    /// Maximum allowed sprinting degree (`SDe_max`).
    pub max_degree: Ratio,
    /// Average real sprinting degree since the burst began (`SDe_avg(t)`),
    /// at least 1.
    pub avg_degree: Ratio,
    /// Remaining fraction of the sprint energy budget (`RE(t)`), in
    /// `[0, 1]`.
    pub remaining_energy: Ratio,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn it_power_matches_paper_scale() {
        let c = PowerCurve::new(ServerSpec::paper_default(), 180_000);
        assert!((c.it_power(Ratio::ONE).as_megawatts() - 9.9).abs() < 1e-9);
        assert!((c.it_power(Ratio::new(4.0)).as_megawatts() - 26.1).abs() < 1e-9);
    }

    #[test]
    fn additional_power_is_zero_below_degree_one() {
        let c = PowerCurve::new(ServerSpec::paper_default(), 100);
        assert_eq!(c.additional_power(Ratio::new(0.5)).as_watts(), 0.0);
        assert_eq!(c.additional_power(Ratio::ONE).as_watts(), 0.0);
        assert!(c.additional_power(Ratio::new(2.0)) > Power::ZERO);
    }

    #[test]
    fn additional_power_monotone_in_degree() {
        let c = PowerCurve::new(ServerSpec::paper_default(), 100);
        let mut prev = Power::ZERO;
        for d in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            let p = c.additional_power(Ratio::new(d));
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "server count must be positive")]
    fn zero_servers_panics() {
        let _ = PowerCurve::new(ServerSpec::paper_default(), 0);
    }
}
