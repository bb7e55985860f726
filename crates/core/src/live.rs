//! Live telemetry for long-running services: a bounded-window
//! [`StepSink`].
//!
//! Offline engines materialize a whole run's records; a daemon serving
//! decisions indefinitely cannot. [`ServiceSink`] keeps a fixed-capacity
//! ring of the most recent [`StepRecord`]s and summarizes it into a
//! [`WindowStats`] on demand — constant memory no matter how long the
//! service runs.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::facility::{FacilityState, StepEffects, StepInput};
use crate::kernel::StepSink;
use crate::StepRecord;

/// Aggregates over a [`ServiceSink`]'s recent-step window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Steps currently held in the window.
    pub steps: u64,
    /// Window steps with an active sprint.
    pub sprint_steps: u64,
    /// Window steps that shed cores below demand.
    pub shed_steps: u64,
    /// Breaker trips observed in the window.
    pub trips: u64,
    /// Highest room temperature in the window (°C), or `None` when empty.
    pub max_temperature_c: Option<f64>,
    /// Mean served demand over the window, or `None` when empty.
    pub mean_served: Option<f64>,
    /// Highest offered demand in the window, or `None` when empty.
    pub peak_demand: Option<f64>,
}

/// A constant-memory [`StepSink`] for live serving: a bounded ring of
/// recent records.
///
/// # Examples
///
/// ```
/// use dcs_core::{ControllerConfig, FacilityState, Greedy, ServiceSink, SprintPolicy};
/// use dcs_core::step_cycle;
/// use dcs_power::DataCenterSpec;
/// use dcs_units::Seconds;
///
/// let spec = DataCenterSpec::paper_default().with_scale(2, 50);
/// let config = ControllerConfig::default();
/// let mut facility = FacilityState::new(&spec, &config);
/// let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
/// let mut sink = ServiceSink::with_window(4);
/// for demand in [0.5, 2.0, 2.0, 0.5, 0.5, 0.5] {
///     let input = dcs_core::StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
///     step_cycle(&mut facility, &mut policy, &input, &mut sink);
/// }
/// assert_eq!(sink.window().steps, 4, "ring keeps only the newest 4");
/// ```
#[derive(Debug, Clone)]
pub struct ServiceSink {
    capacity: usize,
    recent: VecDeque<StepRecord>,
}

impl ServiceSink {
    /// Creates a sink whose window holds at most `capacity` recent steps
    /// (at least 1).
    #[must_use]
    pub fn with_window(capacity: usize) -> ServiceSink {
        let capacity = capacity.max(1);
        ServiceSink {
            capacity,
            recent: VecDeque::with_capacity(capacity),
        }
    }

    /// Consumes one finished step's effects (the non-generic entry point
    /// for drivers that do not go through [`crate::step_cycle`]).
    pub fn absorb(&mut self, effects: &StepEffects) {
        if self.recent.len() == self.capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(effects.record);
    }

    /// Summarizes the current window.
    #[must_use]
    pub fn window(&self) -> WindowStats {
        let steps = self.recent.len() as u64;
        let mut sprint_steps = 0;
        let mut shed_steps = 0;
        let mut trips = 0;
        let mut max_temp = f64::NEG_INFINITY;
        let mut served_sum = 0.0;
        let mut peak_demand = f64::NEG_INFINITY;
        for rec in &self.recent {
            if rec.sprinting {
                sprint_steps += 1;
            }
            if rec.shed_reason.is_some() {
                shed_steps += 1;
            }
            if rec.tripped {
                trips += 1;
            }
            max_temp = max_temp.max(rec.temperature.as_celsius());
            served_sum += rec.served;
            peak_demand = peak_demand.max(rec.demand);
        }
        WindowStats {
            steps,
            sprint_steps,
            shed_steps,
            trips,
            max_temperature_c: (steps > 0).then_some(max_temp),
            mean_served: (steps > 0).then(|| served_sum / steps as f64),
            peak_demand: (steps > 0).then_some(peak_demand),
        }
    }
}

impl<'a> StepSink<FacilityState<'a>> for ServiceSink {
    fn record(&mut self, _input: &StepInput, effects: &StepEffects) {
        self.absorb(effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{step_cycle, ControllerConfig, Greedy, SprintPolicy, StepInput};
    use dcs_power::DataCenterSpec;
    use dcs_units::Seconds;

    #[test]
    fn window_is_bounded_to_the_newest_steps() {
        let spec = DataCenterSpec::paper_default().with_scale(2, 50);
        let config = ControllerConfig::default();
        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        let mut sink = ServiceSink::with_window(3);
        let demands = [0.5, 0.6, 2.0, 2.5, 0.5, 0.4, 0.5, 0.5];
        for demand in demands {
            let input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
            step_cycle(&mut facility, &mut policy, &input, &mut sink);
        }
        let window = sink.window();
        assert_eq!(window.steps, 3, "ring is bounded");
        // The last three demands are quiet: the burst has left the window.
        assert_eq!(window.sprint_steps, 0);
        assert_eq!(window.peak_demand, Some(0.5));
        assert!(window.mean_served.unwrap() > 0.0);
    }

    #[test]
    fn window_counts_the_burst_while_it_is_in_view() {
        let spec = DataCenterSpec::paper_default().with_scale(2, 50);
        let config = ControllerConfig::default();
        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        let mut sink = ServiceSink::with_window(4);
        for demand in [0.5, 2.0, 2.5, 0.5] {
            let input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
            step_cycle(&mut facility, &mut policy, &input, &mut sink);
        }
        let window = sink.window();
        assert_eq!(window.steps, 4);
        assert!(window.sprint_steps >= 2, "the burst sprinted");
        assert_eq!(window.peak_demand, Some(2.5));
    }

    #[test]
    fn empty_window_reports_none() {
        let sink = ServiceSink::with_window(8);
        let window = sink.window();
        assert_eq!(window.steps, 0);
        assert_eq!(window.max_temperature_c, None);
        assert_eq!(window.mean_served, None);
        assert_eq!(window.peak_demand, None);
    }
}
