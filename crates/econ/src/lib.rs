//! The §V-D cost/revenue model of Data Center Sprinting.
//!
//! The paper argues sprinting is profitable: provisioning normally-dark
//! cores costs little, while rejecting requests during bursts costs revenue
//! twice — once for the requests themselves (a downtime-equivalent loss of
//! $7,900 per minute for an average data center, per the Ponemon survey it
//! cites) and once through permanently lost customers (Google's measurement
//! that a 0.4 s slowdown permanently loses 0.2 % of users).
//!
//! [`EconModel`] implements the paper's formulas verbatim:
//!
//! * **cost** — `$40` per extra core, amortized over 48 months, on 10-core
//!   chips across 18,750 servers: `$156,250 × (N − 1)` per month, where `N`
//!   is the maximum sprinting degree;
//! * **request revenue** — `$7,900 × L × (M − 1) × K` for `K` bursts of
//!   `L` minutes at magnitude `M`;
//! * **retention revenue** — `($682,560 / Uₜ) × min[U₀ (M − 1) K, Uₜ]`.
//!
//! [`fig5_rows`] regenerates the Fig. 5 bar groups.
//!
//! # Examples
//!
//! ```
//! use dcs_econ::EconModel;
//!
//! let m = EconModel::paper_default();
//! // The paper's cost formula: $156,250 per month per unit of extra degree.
//! assert_eq!(m.monthly_core_cost(4.0), 468_750.0);
//! // High bursts that fully use the extra cores are profitable.
//! let profit = m.monthly_profit(4.0, 1.0, 5.0, 3, 4.0);
//! assert!(profit > 400_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcs_units::Seconds;
use serde::{Deserialize, Serialize};

/// The economic parameters of §V-D.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EconModel {
    /// Cost of provisioning one additional core (USD).
    pub core_cost_usd: f64,
    /// Amortization period of that cost in months.
    pub amortization_months: f64,
    /// Normally active cores per server chip (the Xeon 10-core example).
    pub normally_active_cores: f64,
    /// Servers in the (average-scale) data center.
    pub servers: f64,
    /// Revenue lost per minute of (effective) unavailability (USD).
    pub outage_cost_per_minute: f64,
    /// Fraction of users permanently lost after a slowdown event (Google's
    /// 0.2 %).
    pub user_loss_fraction: f64,
}

impl EconModel {
    /// The paper's constants: $40/core over 48 months, 10 active cores,
    /// 18,750 servers, $7,900/minute, 0.2 % user loss.
    #[must_use]
    pub fn paper_default() -> EconModel {
        EconModel {
            core_cost_usd: 40.0,
            amortization_months: 48.0,
            normally_active_cores: 10.0,
            servers: 18_750.0,
            outage_cost_per_minute: 7_900.0,
            user_loss_fraction: 0.002,
        }
    }

    /// The monthly retention pool: what losing
    /// [`user_loss_fraction`](EconModel::user_loss_fraction) of all users
    /// costs per month (`$7,900 × 43,200 min × 0.2 % = $682,560` with the
    /// defaults).
    #[must_use]
    pub fn monthly_retention_pool(&self) -> f64 {
        self.outage_cost_per_minute * 43_200.0 * self.user_loss_fraction
    }

    /// Monthly cost of provisioning extra cores up to a maximum sprinting
    /// degree `n` (the paper's `$8.3 (N−1)` per server per month).
    ///
    /// # Panics
    ///
    /// Panics if `n < 1`.
    #[must_use]
    pub fn monthly_core_cost(&self, n: f64) -> f64 {
        assert!(n >= 1.0 && n.is_finite(), "degree must be at least 1");
        let per_server = self.core_cost_usd
            * (self.normally_active_cores * n - self.normally_active_cores)
            / self.amortization_months;
        per_server * self.servers
    }

    /// The burst magnitude `M` of a burst that utilizes fraction
    /// `utilization` of the additional cores at maximum degree `n`:
    /// `M = 1 + utilization × (N − 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]` or `n < 1`.
    #[must_use]
    pub fn magnitude_for_utilization(&self, n: f64, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1]"
        );
        assert!(n >= 1.0, "degree must be at least 1");
        1.0 + utilization * (n - 1.0)
    }

    /// Monthly revenue from serving the extra requests of `k` bursts of
    /// `l_minutes` at magnitude `m`: `$7,900 × L × (M − 1) × K`.
    ///
    /// Magnitudes at or below 1 need no sprinting and earn nothing.
    ///
    /// # Panics
    ///
    /// Panics if `l_minutes` is negative.
    #[must_use]
    fn monthly_request_revenue(&self, l_minutes: f64, m: f64, k: u32) -> f64 {
        assert!(l_minutes >= 0.0, "duration must be non-negative");
        self.outage_cost_per_minute * l_minutes * (m - 1.0).max(0.0) * f64::from(k)
    }

    /// Monthly revenue from retaining customers:
    /// `(pool / Uₜ) × min[U₀ (M − 1) K, Uₜ]`, expressed through the ratio
    /// `ut_over_u0 = Uₜ / U₀` (the paper tests 4 and 6).
    ///
    /// # Panics
    ///
    /// Panics if `ut_over_u0` is not strictly positive.
    #[must_use]
    pub fn monthly_retention_revenue(&self, m: f64, k: u32, ut_over_u0: f64) -> f64 {
        assert!(ut_over_u0 > 0.0, "user ratio must be positive");
        let affected = ((m - 1.0).max(0.0) * f64::from(k) / ut_over_u0).min(1.0);
        self.monthly_retention_pool() * affected
    }

    /// Total monthly revenue of sprinting.
    #[must_use]
    pub fn monthly_revenue(&self, l_minutes: f64, m: f64, k: u32, ut_over_u0: f64) -> f64 {
        self.monthly_request_revenue(l_minutes, m, k)
            + self.monthly_retention_revenue(m, k, ut_over_u0)
    }

    /// Monthly profit of provisioning to degree `n` for `k` bursts of
    /// `l_minutes` that utilize `utilization` of the extra cores, with
    /// `ut_over_u0` total-to-servable users.
    #[must_use]
    pub fn monthly_profit(
        &self,
        n: f64,
        utilization: f64,
        l_minutes: f64,
        k: u32,
        ut_over_u0: f64,
    ) -> f64 {
        let m = self.magnitude_for_utilization(n, utilization);
        self.monthly_revenue(l_minutes, m, k, ut_over_u0) - self.monthly_core_cost(n)
    }
}

/// A burst profile for trace-driven revenue accounting: duration and
/// magnitude (normalized demand).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstProfile {
    /// How long the burst lasted.
    pub duration: Seconds,
    /// The burst magnitude `M` (demand normalized to no-sprint capacity).
    pub magnitude: f64,
}

impl EconModel {
    /// Monthly revenue of sprinting through an arbitrary list of bursts —
    /// the §V-D worked example ("a data center has the workload in Fig. 1
    /// and it repeats for a month ... the monthly revenue of sprinting
    /// with N = 4 and Uₜ = 4U₀ is about $19 Million").
    ///
    /// Request revenue accrues per burst; retention revenue is the pool
    /// share of all affected users, capped at the whole user base.
    ///
    /// # Panics
    ///
    /// Panics if `ut_over_u0` is not strictly positive.
    #[must_use]
    pub fn monthly_revenue_for_bursts(&self, bursts: &[BurstProfile], ut_over_u0: f64) -> f64 {
        assert!(ut_over_u0 > 0.0, "user ratio must be positive");
        let request: f64 = bursts
            .iter()
            .map(|b| self.monthly_request_revenue(b.duration.as_minutes(), b.magnitude, 1))
            .sum();
        let affected_u0: f64 = bursts.iter().map(|b| (b.magnitude - 1.0).max(0.0)).sum();
        let retention = self.monthly_retention_pool() * (affected_u0 / ut_over_u0).min(1.0);
        request + retention
    }
}

impl Default for EconModel {
    fn default() -> EconModel {
        EconModel::paper_default()
    }
}

/// One bar group of Fig. 5: the cost and the three revenue series at a
/// maximum sprinting degree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Maximum sprinting degree `N`.
    pub n: f64,
    /// Monthly provisioning cost (the paper's `C`).
    pub cost: f64,
    /// Revenue when bursts utilize 50 % of the extra cores (`R50`).
    pub r50: f64,
    /// Revenue at 75 % utilization (`R75`).
    pub r75: f64,
    /// Revenue at 100 % utilization (`R100`).
    pub r100: f64,
}

/// Regenerates a Fig. 5 panel: cost and revenues versus maximum sprinting
/// degree for the paper's stress-test configuration (three 5-minute bursts
/// per month) at a given `Uₜ/U₀`.
///
/// # Examples
///
/// ```
/// use dcs_econ::{fig5_rows, EconModel};
///
/// let rows = fig5_rows(&EconModel::paper_default(), 4.0, &[1.5, 2.0, 3.0, 4.0]);
/// // High bursts at N=4 are profitable (the paper: > $0.4 M / month).
/// let last = rows.last().unwrap();
/// assert!(last.r100 - last.cost > 400_000.0);
/// ```
#[must_use]
pub fn fig5_rows(model: &EconModel, ut_over_u0: f64, degrees: &[f64]) -> Vec<Fig5Row> {
    degrees
        .iter()
        .map(|&n| {
            let rev = |utilization: f64| {
                let m = model.magnitude_for_utilization(n, utilization);
                model.monthly_revenue(5.0, m, 3, ut_over_u0)
            };
            Fig5Row {
                n,
                cost: model.monthly_core_cost(n),
                r50: rev(0.50),
                r75: rev(0.75),
                r100: rev(1.00),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> EconModel {
        EconModel::paper_default()
    }

    #[test]
    fn paper_cost_constants() {
        // $8.3(N-1) per server per month -> $156,250 (N-1) per data center.
        assert!((m().monthly_core_cost(2.0) - 156_250.0).abs() < 1.0);
        assert!((m().monthly_core_cost(4.0) - 468_750.0).abs() < 1.0);
        assert_eq!(m().monthly_core_cost(1.0), 0.0);
    }

    #[test]
    fn paper_retention_pool() {
        assert!((m().monthly_retention_pool() - 682_560.0).abs() < 1e-6);
    }

    #[test]
    fn request_revenue_formula() {
        // $7,900 x 5 min x (4-1) x 3 bursts.
        assert!((m().monthly_request_revenue(5.0, 4.0, 3) - 355_500.0).abs() < 1e-6);
        // No sprint needed at M <= 1: no revenue.
        assert_eq!(m().monthly_request_revenue(5.0, 0.9, 3), 0.0);
    }

    #[test]
    fn retention_saturates_at_total_users() {
        // (M-1)K = 9 affected-U0 against U_t = 4 U0: saturated.
        let r = m().monthly_retention_revenue(4.0, 3, 4.0);
        assert!((r - 682_560.0).abs() < 1e-6);
        // Small bursts affect proportionally fewer users.
        let small = m().monthly_retention_revenue(1.4, 1, 4.0);
        assert!((small - 682_560.0 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn high_bursts_profitable_low_bursts_marginal() {
        // The paper's Fig. 5(a) shape: at high utilization sprinting earns
        // > $0.4M; at 50% utilization the profit shrinks as N grows.
        let profit_high = m().monthly_profit(4.0, 1.0, 5.0, 3, 4.0);
        assert!(profit_high > 400_000.0, "high-burst profit {profit_high}");
        // At 50% utilization the retention pool saturates near N = 3.67;
        // past saturation each extra core costs more than it earns, so the
        // profit declines with N — the paper's "the profit becomes less
        // with more additional cores" for low bursts.
        let p50_sat = m().monthly_profit(3.7, 0.5, 5.0, 3, 4.0);
        let p50_n4 = m().monthly_profit(4.0, 0.5, 5.0, 3, 4.0);
        assert!(
            p50_n4 < p50_sat,
            "profit must shrink with N past saturation: {p50_sat} -> {p50_n4}"
        );
    }

    #[test]
    fn more_users_dilute_retention_revenue() {
        // Fig. 5(b): with U_t = 6 U0 the same bursts affect a smaller share
        // of the user base (below saturation).
        let r4 = m().monthly_retention_revenue(2.0, 3, 4.0);
        let r6 = m().monthly_retention_revenue(2.0, 3, 6.0);
        assert!(r6 < r4);
    }

    #[test]
    fn fig5_rows_are_monotone_in_utilization() {
        for row in fig5_rows(&m(), 4.0, &[1.5, 2.0, 2.5, 3.0, 3.5, 4.0]) {
            assert!(row.r50 <= row.r75 && row.r75 <= row.r100, "{row:?}");
            assert!(row.cost >= 0.0);
        }
    }

    #[test]
    fn magnitude_formula() {
        assert_eq!(m().magnitude_for_utilization(4.0, 0.5), 2.5);
        assert_eq!(m().magnitude_for_utilization(1.0, 1.0), 1.0);
    }
}
