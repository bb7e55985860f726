//! Data Center Sprinting — a from-scratch Rust reproduction of
//! *"Data Center Sprinting: Enabling Computational Sprinting at the Data
//! Center Level"* (Zheng & Wang, ICDCS 2015).
//!
//! This façade crate re-exports the workspace's public API under short
//! module names; see `README.md` for the architecture and `DESIGN.md` for
//! the system inventory.
//!
//! # Examples
//!
//! ```
//! use datacenter_sprinting::core::{
//!     step_cycle, ControllerConfig, FacilityState, Greedy, NullSink, SprintPolicy, StepInput,
//! };
//! use datacenter_sprinting::power::DataCenterSpec;
//! use datacenter_sprinting::units::Seconds;
//!
//! let spec = DataCenterSpec::paper_default().with_scale(2, 200);
//! let config = ControllerConfig::default();
//! let mut facility = FacilityState::new(&spec, &config);
//! let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
//! let input = StepInput::nominal(facility.now(), 2.0, Seconds::new(1.0));
//! let record = step_cycle(&mut facility, &mut policy, &input, &mut NullSink).record;
//! assert!(record.served > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcs_breaker as breaker;
pub use dcs_core as core;
pub use dcs_econ as econ;
pub use dcs_faults as faults;
pub use dcs_power as power;
pub use dcs_server as server;
pub use dcs_sim as sim;
pub use dcs_testbed as testbed;
pub use dcs_thermal as thermal;
pub use dcs_units as units;
pub use dcs_ups as ups;
pub use dcs_workload as workload;
