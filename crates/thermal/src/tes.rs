//! Thermal energy storage tank.

use dcs_units::{Energy, Power, Ratio, Seconds};
use serde::{Deserialize, Serialize};

/// A thermal energy storage tank holding cold coolant.
///
/// Capacity is expressed as the *heat* the tank can absorb before its
/// coolant warms up. The paper's default, following the Intel whitepaper
/// \[11\], is a tank that can carry the entire cooling load for 12 minutes
/// while the servers draw their peak normal power.
///
/// Discharging absorbs heat (cooling the data center in place of the
/// chiller); recharging runs the chiller above the CRAC demand to re-chill
/// the coolant (Fig. 3 of the paper).
///
/// # Examples
///
/// ```
/// use dcs_thermal::TesTank;
/// use dcs_units::{Power, Seconds};
///
/// let mut tes = TesTank::sized_for(Power::from_megawatts(10.0), Seconds::from_minutes(12.0));
/// let absorbed = tes.discharge(Power::from_megawatts(10.0), Seconds::from_minutes(6.0));
/// assert_eq!(absorbed.as_megawatts(), 10.0);
/// assert!((tes.state_of_charge().as_f64() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TesTank {
    capacity: Energy,
    stored: Energy,
    /// Maximum heat-absorption rate; a real tank is limited by coolant flow.
    max_rate: Power,
    /// Fault injection: absorption-rate factor (valve lag), in `(0, 1]`.
    rate_factor: f64,
    /// Fault injection: accessible-capacity factor (coolant loss), `(0, 1]`.
    capacity_factor: f64,
}

impl TesTank {
    /// Creates a full tank sized to carry `load` of heat for `duration`.
    ///
    /// The maximum absorption rate defaults to twice the sizing load,
    /// letting the tank briefly over-deliver during deep sprints.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not strictly positive or `duration` is not
    /// strictly positive and finite.
    #[must_use]
    pub fn sized_for(load: Power, duration: Seconds) -> TesTank {
        assert!(load > Power::ZERO, "sizing load must be positive");
        assert!(
            duration > Seconds::ZERO && !duration.is_never(),
            "sizing duration must be positive and finite"
        );
        let capacity = load * duration;
        TesTank {
            capacity,
            stored: capacity,
            max_rate: load * 2.0,
            rate_factor: 1.0,
            capacity_factor: 1.0,
        }
    }

    /// Sets the fault-injection derates: the achievable absorption rate is
    /// `rate_factor ×` the flow limit (a lagging valve), and the bottom
    /// `1 - capacity_factor` of the tank is stranded (coolant loss) —
    /// inaccessible until the fault clears. `(1.0, 1.0)` restores nominal
    /// behavior exactly.
    ///
    /// # Panics
    ///
    /// Panics if either factor is outside `(0, 1]`.
    pub fn set_derating(&mut self, rate_factor: f64, capacity_factor: f64) {
        assert!(
            rate_factor > 0.0 && rate_factor <= 1.0,
            "rate factor must be in (0, 1]"
        );
        assert!(
            capacity_factor > 0.0 && capacity_factor <= 1.0,
            "capacity factor must be in (0, 1]"
        );
        self.rate_factor = rate_factor;
        self.capacity_factor = capacity_factor;
    }

    /// Returns the fault-injection derates `(rate_factor, capacity_factor)`.
    #[must_use]
    pub fn derating(&self) -> (f64, f64) {
        (self.rate_factor, self.capacity_factor)
    }

    /// The flow limit after the rate derate.
    fn effective_max_rate(&self) -> Power {
        self.max_rate * self.rate_factor
    }

    /// The stored budget after the capacity derate. Coolant loss strands
    /// the bottom `1 - capacity_factor` of the tank: that slice can be
    /// neither discharged nor re-chilled, but reappears once the fault
    /// clears.
    fn usable_stored(&self) -> Energy {
        (self.stored - self.capacity * (1.0 - self.capacity_factor)).max_zero()
    }

    /// Returns the heat capacity of the tank.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Returns the heat rate the tank could sustain for an interval of
    /// `dt` from its current state (flow-limited and budget-limited).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    #[must_use]
    pub fn available_rate(&self, dt: Seconds) -> Power {
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        (self.usable_stored() / dt).min(self.effective_max_rate())
    }

    /// Returns the remaining heat-absorption budget.
    #[must_use]
    pub fn stored(&self) -> Energy {
        self.stored
    }

    /// Returns the fraction of capacity remaining.
    #[must_use]
    pub fn state_of_charge(&self) -> Ratio {
        self.stored.ratio_of(self.capacity)
    }

    /// Returns `true` if the tank has no absorption budget left.
    #[must_use]
    pub fn is_depleted(&self) -> bool {
        self.stored.as_joules() <= 0.0
    }

    /// Returns how long this tank can absorb heat at `load`, or
    /// [`Seconds::NEVER`] for a non-positive load.
    #[must_use]
    pub fn runtime_at(&self, load: Power) -> Seconds {
        if load <= Power::ZERO {
            return Seconds::NEVER;
        }
        self.usable_stored() / load.min(self.effective_max_rate())
    }

    /// Absorbs up to `heat` for `dt`, returning the heat rate actually
    /// absorbed (limited by the flow rate and the remaining budget).
    ///
    /// # Panics
    ///
    /// Panics if `heat` is negative or `dt` is not strictly positive and
    /// finite.
    pub fn discharge(&mut self, heat: Power, dt: Seconds) -> Power {
        assert!(heat >= Power::ZERO, "heat must be non-negative");
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        let rate = heat.min(self.effective_max_rate());
        let wanted = rate * dt;
        let taken = wanted.min(self.usable_stored());
        self.stored -= taken;
        taken / dt
    }

    /// Re-chills the tank at `rate` for `dt` (chiller overproduction),
    /// returning the heat-capacity rate actually restored.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or `dt` is not strictly positive and
    /// finite.
    pub fn recharge(&mut self, rate: Power, dt: Seconds) -> Power {
        assert!(rate >= Power::ZERO, "rate must be non-negative");
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        let room = (self.capacity - self.stored).max_zero();
        let offered = rate.min(self.effective_max_rate()) * dt;
        let accepted = offered.min(room);
        self.stored += accepted;
        accepted / dt
    }
}

impl std::fmt::Display for TesTank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TES {} / {} ({})",
            self.stored,
            self.capacity,
            self.state_of_charge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tank() -> TesTank {
        TesTank::sized_for(Power::from_megawatts(10.0), Seconds::from_minutes(12.0))
    }

    #[test]
    fn sized_capacity() {
        let t = tank();
        assert!((t.capacity().as_kilowatt_hours() - 2000.0).abs() < 1e-6);
        assert_eq!(t.state_of_charge(), Ratio::ONE);
    }

    #[test]
    fn runtime_matches_sizing() {
        let t = tank();
        let rt = t.runtime_at(Power::from_megawatts(10.0));
        assert!((rt.as_minutes() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_depletes() {
        let mut t = tank();
        t.discharge(Power::from_megawatts(10.0), Seconds::from_minutes(12.0));
        assert!(t.is_depleted());
        let extra = t.discharge(Power::from_megawatts(1.0), Seconds::new(1.0));
        assert!(extra.is_zero());
    }

    #[test]
    fn discharge_respects_max_rate() {
        // The flow limit defaults to twice the 10 MW sizing load.
        let mut t = tank();
        let got = t.discharge(Power::from_megawatts(50.0), Seconds::new(60.0));
        assert_eq!(got.as_megawatts(), 20.0);
    }

    #[test]
    fn partial_final_interval() {
        let mut t = TesTank::sized_for(Power::from_watts(100.0), Seconds::new(10.0));
        // 1 kJ budget; ask for 200 W for 10 s = 2 kJ -> only 100 W avg.
        let got = t.discharge(Power::from_watts(200.0), Seconds::new(10.0));
        assert!((got.as_watts() - 100.0).abs() < 1e-9);
        assert!(t.is_depleted());
    }

    #[test]
    fn recharge_restores() {
        let mut t = tank();
        t.discharge(Power::from_megawatts(10.0), Seconds::from_minutes(6.0));
        t.recharge(Power::from_megawatts(10.0), Seconds::from_minutes(6.0));
        assert!((t.state_of_charge().as_f64() - 1.0).abs() < 1e-9);
        // Full tank accepts nothing.
        let r = t.recharge(Power::from_megawatts(1.0), Seconds::new(1.0));
        assert!(r.is_zero());
    }

    #[test]
    fn rate_derate_throttles_absorption() {
        let mut t = tank(); // max rate 20 MW
        t.set_derating(0.25, 1.0);
        let got = t.discharge(Power::from_megawatts(50.0), Seconds::new(60.0));
        assert_eq!(got.as_megawatts(), 5.0);
        assert_eq!(t.available_rate(Seconds::new(1.0)).as_megawatts(), 5.0);
    }

    #[test]
    fn capacity_loss_hides_budget_without_destroying_it() {
        let mut t = tank(); // 2 MWh-scale heat budget, 12 min at 10 MW
        t.set_derating(1.0, 0.5);
        let rt = t.runtime_at(Power::from_megawatts(10.0));
        assert!((rt.as_minutes() - 6.0).abs() < 1e-9);
        // Drain everything accessible.
        t.discharge(Power::from_megawatts(10.0), Seconds::from_minutes(12.0));
        assert!(t.available_rate(Seconds::new(1.0)).is_zero());
        // While faulted, recharging re-chills the accessible slice.
        let accepted = t.recharge(Power::from_megawatts(10.0), Seconds::new(60.0));
        assert_eq!(accepted.as_megawatts(), 10.0);
        assert!(t.available_rate(Seconds::new(60.0)) > Power::ZERO);
        // The stranded half returns when the fault clears.
        t.set_derating(1.0, 1.0);
        let rt = t.runtime_at(Power::from_megawatts(10.0));
        assert!((rt.as_minutes() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_derating_is_identity() {
        let mut a = tank();
        let mut b = tank();
        b.set_derating(1.0, 1.0);
        assert_eq!(
            a.discharge(Power::from_megawatts(15.0), Seconds::new(30.0)),
            b.discharge(Power::from_megawatts(15.0), Seconds::new(30.0))
        );
        assert_eq!(a, b);
    }

    #[test]
    fn display_shows_charge() {
        assert!(tank().to_string().contains("100.00%"));
    }
}
