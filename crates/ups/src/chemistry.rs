//! Battery chemistry parameters.

use serde::{Deserialize, Serialize};

/// A battery chemistry and its datacenter-relevant parameters.
///
/// The paper (citing Kontorinis et al. \[18\]) distinguishes lead-acid (LA)
/// and lithium-iron-phosphate (LFP) batteries: LFP tolerates about ten full
/// discharges per month without reducing its lifetime below the required
/// service life (8 years for LFP, 4 for LA), which is what makes occasional
/// sprinting free of extra battery cost.
///
/// # Examples
///
/// ```
/// use dcs_ups::Chemistry;
///
/// let lfp = Chemistry::LithiumIronPhosphate;
/// assert!(lfp.discharge_efficiency() > Chemistry::LeadAcid.discharge_efficiency());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Chemistry {
    /// Valve-regulated lead-acid, the incumbent datacenter UPS battery.
    LeadAcid,
    /// Lithium iron phosphate (LiFePO₄), the paper's default.
    LithiumIronPhosphate,
}

impl Chemistry {
    /// Nominal battery voltage in volts.
    #[must_use]
    pub fn nominal_volts(self) -> f64 {
        match self {
            Chemistry::LeadAcid => 12.0,
            Chemistry::LithiumIronPhosphate => 12.8,
        }
    }

    /// Round-trip discharge efficiency (fraction of stored energy delivered
    /// to the load).
    #[must_use]
    pub fn discharge_efficiency(self) -> f64 {
        match self {
            Chemistry::LeadAcid => 0.90,
            Chemistry::LithiumIronPhosphate => 0.95,
        }
    }

    /// The deepest allowed discharge (fraction of capacity that may be
    /// drained) without damaging the battery.
    #[must_use]
    pub fn max_depth_of_discharge(self) -> f64 {
        match self {
            Chemistry::LeadAcid => 0.80,
            Chemistry::LithiumIronPhosphate => 1.00,
        }
    }
}

impl std::fmt::Display for Chemistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Chemistry::LeadAcid => write!(f, "lead-acid"),
            Chemistry::LithiumIronPhosphate => write!(f, "LiFePO4"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiencies_are_fractions() {
        for c in [Chemistry::LeadAcid, Chemistry::LithiumIronPhosphate] {
            assert!(c.discharge_efficiency() > 0.0 && c.discharge_efficiency() <= 1.0);
            assert!(c.max_depth_of_discharge() > 0.0 && c.max_depth_of_discharge() <= 1.0);
        }
    }

    #[test]
    fn lfp_drains_deeper_than_lead_acid() {
        // Lead-acid keeps a 20% floor; LiFePO4 may be drained fully.
        assert_eq!(Chemistry::LeadAcid.max_depth_of_discharge(), 0.80);
        assert_eq!(
            Chemistry::LithiumIronPhosphate.max_depth_of_discharge(),
            1.00
        );
    }

    #[test]
    fn display() {
        assert_eq!(Chemistry::LeadAcid.to_string(), "lead-acid");
        assert_eq!(Chemistry::LithiumIronPhosphate.to_string(), "LiFePO4");
    }
}
