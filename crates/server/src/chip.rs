//! Many-core chip power model.

use dcs_units::Power;
use serde::{Deserialize, Serialize};

/// A many-core processor's power characteristics.
///
/// The model is the paper's: a fixed idle draw with every core inactive,
/// plus a per-core draw proportional to that core's utilization. Inactive
/// (dark) cores are power-gated and contribute nothing beyond the idle draw.
///
/// # Examples
///
/// ```
/// use dcs_server::ChipSpec;
///
/// let chip = ChipSpec::intel_scc48();
/// assert_eq!(chip.power(0, 1.0).as_watts(), 5.0);
/// assert_eq!(chip.power(48, 1.0).as_watts(), 125.0);
/// assert_eq!(chip.power(12, 1.0).as_watts(), 35.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    cores: u32,
    idle_power: Power,
    per_core_power: Power,
}

impl ChipSpec {
    /// The Intel 48-core Single-chip Cloud Computer \[14\] the paper
    /// configures: 5 W all-idle, 2.5 W per fully utilized core, 125 W with
    /// all 48 cores busy.
    #[must_use]
    pub fn intel_scc48() -> ChipSpec {
        ChipSpec {
            cores: 48,
            idle_power: Power::from_watts(5.0),
            per_core_power: Power::from_watts(2.5),
        }
    }

    /// Creates a custom chip.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero, or either power is negative.
    #[must_use]
    pub fn new(cores: u32, idle_power: Power, per_core_power: Power) -> ChipSpec {
        assert!(cores > 0, "chip must have at least one core");
        assert!(idle_power >= Power::ZERO, "idle power must be non-negative");
        assert!(
            per_core_power >= Power::ZERO,
            "per-core power must be non-negative"
        );
        ChipSpec {
            cores,
            idle_power,
            per_core_power,
        }
    }

    /// Returns the total number of cores on the chip.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Returns the chip draw with every core inactive.
    #[must_use]
    pub fn idle_power(&self) -> Power {
        self.idle_power
    }

    /// Returns the chip power with `active` cores running at the given
    /// average `utilization` (0–1).
    ///
    /// # Panics
    ///
    /// Panics if `active` exceeds the core count or `utilization` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn power(&self, active: u32, utilization: f64) -> Power {
        assert!(
            active <= self.cores,
            "cannot activate more cores than exist"
        );
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1]"
        );
        self.idle_power + self.per_core_power * (f64::from(active) * utilization)
    }

    /// Returns the chip power with all cores active and fully utilized.
    #[must_use]
    pub fn max_power(&self) -> Power {
        self.power(self.cores, 1.0)
    }
}

impl std::fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-core chip ({} idle, {}/core)",
            self.cores, self.idle_power, self.per_core_power
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_constants_match_paper() {
        let c = ChipSpec::intel_scc48();
        assert_eq!(c.cores(), 48);
        assert_eq!(c.max_power().as_watts(), 125.0);
        assert_eq!(c.power(12, 1.0).as_watts(), 35.0);
    }

    #[test]
    fn utilization_scales_active_core_power() {
        let c = ChipSpec::intel_scc48();
        assert_eq!(c.power(10, 0.5).as_watts(), 5.0 + 12.5);
        assert_eq!(c.power(10, 0.0).as_watts(), 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot activate more cores")]
    fn too_many_cores_panics() {
        let _ = ChipSpec::intel_scc48().power(49, 1.0);
    }

    #[test]
    #[should_panic(expected = "utilization must be in")]
    fn bad_utilization_panics() {
        let _ = ChipSpec::intel_scc48().power(4, 1.5);
    }

    #[test]
    fn display_mentions_core_count() {
        assert!(ChipSpec::intel_scc48().to_string().contains("48-core"));
    }
}
