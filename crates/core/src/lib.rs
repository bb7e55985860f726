//! Data Center Sprinting — the paper's primary contribution.
//!
//! This crate implements the three-phase methodology of *"Data Center
//! Sprinting: Enabling Computational Sprinting at the Data Center Level"*
//! (Zheng & Wang, ICDCS 2015) on top of the substrate crates:
//!
//! 1. **Phase 1 (CB tolerance)** — ride the overload tolerance of the PDU-
//!    and DC-level circuit breakers, dynamically lowering the overload
//!    bound so the remaining time before a trip never falls under a
//!    configurable reserve (one minute by default);
//! 2. **Phase 2 (UPS)** — offload whole servers onto their distributed UPS
//!    batteries once CB tolerance alone cannot carry the sprint;
//! 3. **Phase 3 (TES)** — before the room overheats (the CFD-derived
//!    deadline), discharge the thermal store to absorb the extra heat and
//!    cut chiller power.
//!
//! Four strategies bound the *sprinting degree* (active cores over normally
//! active cores): [`Greedy`], Oracle (exhaustive search over
//! [`FixedBound`] runs, performed by the simulation layer), [`Prediction`]
//! (predicted burst duration + an [`UpperBoundTable`]), and [`Heuristic`]
//! (estimated best average degree with an energy-budget feedback loop).
//!
//! A [`FacilityState`] owns the full plant (breaker topology, UPS fleet,
//! cooling plant, TES tank, room model), a [`SprintPolicy`] holds the
//! three-phase decision logic, and [`step_cycle`] advances the pair by one
//! control period; the `dcs-sim` crate drives them with demand traces and
//! computes the paper's metrics.
//!
//! # Examples
//!
//! ```
//! use dcs_core::{
//!     step_cycle, ControllerConfig, FacilityState, Greedy, NullSink, SprintPolicy, StepInput,
//! };
//! use dcs_power::DataCenterSpec;
//! use dcs_units::Seconds;
//!
//! let spec = DataCenterSpec::paper_default().with_scale(4, 200);
//! let config = ControllerConfig::default();
//! let mut facility = FacilityState::new(&spec, &config);
//! let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
//! let mut step = |demand: f64| {
//!     let input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
//!     step_cycle(&mut facility, &mut policy, &input, &mut NullSink).record
//! };
//!
//! // A quiet period serves everything with the normal cores.
//! let rec = step(0.8);
//! assert_eq!(rec.served, 0.8);
//! assert_eq!(rec.cores, 12);
//!
//! // A burst activates extra cores.
//! let rec = step(2.0);
//! assert!(rec.cores > 12);
//! assert!(rec.served > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod budget;
mod context;
mod controller;
mod facility;
mod heuristic;
mod kernel;
mod live;
mod prediction;
mod strategy;
mod table;

pub use adaptive::Adaptive;
pub use budget::{cb_overload_energy, EnergyBudget};
pub use context::{PowerCurve, SprintInfo, StrategyContext};
pub use controller::{
    ControllerConfig, Phase, PolicyHotState, RunHotState, ShedReason, SprintPolicy, StepRecord,
};
pub use facility::{
    CoolingPlan, CoreDecision, FacilityHotState, FacilityState, StepEffects, StepInput,
};
pub use heuristic::Heuristic;
pub use kernel::{search_largest_feasible, step_cycle, NullSink, StepPolicy, StepSink, StepState};
pub use live::{ServiceSink, WindowStats};
pub use prediction::Prediction;
pub use strategy::{FixedBound, Greedy, SprintStrategy};
pub use table::{TableError, UpperBoundTable};
