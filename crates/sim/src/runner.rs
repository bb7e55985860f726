//! Scenario execution.

use crate::sink::{RecordSink, SummaryFold};
use crate::{Scenario, SimResult, SimSummary};
use dcs_core::{
    step_cycle, FacilityState, FixedBound, SprintPolicy, SprintStrategy, StepInput, StepSink,
};
use dcs_faults::{FaultObserver, FaultSchedule};
use dcs_units::{Energy, Ratio};

/// Simulates a scenario under the given strategy.
///
/// The controller runs one period per trace sample; the returned result
/// carries per-step telemetry, admission accounting, and the additional-
/// energy split.
#[must_use]
pub fn run(scenario: &Scenario, strategy: Box<dyn SprintStrategy>) -> SimResult {
    run_with_faults(scenario, strategy, &FaultSchedule::NONE)
}

/// Simulates a scenario under the given strategy with an injected fault
/// schedule. [`FaultSchedule::none`] reproduces [`run`] exactly.
#[must_use]
pub fn run_with_faults(
    scenario: &Scenario,
    strategy: Box<dyn SprintStrategy>,
    faults: &FaultSchedule,
) -> SimResult {
    let mut sink = RecordSink::with_capacity(scenario.trace().len());
    let (strategy, (cb_energy, ups_energy, tes_energy)) =
        drive(scenario, strategy, faults, &mut sink);
    SimResult {
        strategy,
        step: scenario.trace().step(),
        records: sink.records,
        admission: sink.admission,
        cb_energy,
        ups_energy,
        tes_energy,
    }
}

/// Simulates a scenario keeping only the lean [`SimSummary`] the searches
/// consume: no per-step record vector. The step sequence is the one
/// [`run_with_faults`] drives, so the result equals its summary exactly.
#[must_use]
pub fn run_summary_with_faults(
    scenario: &Scenario,
    strategy: Box<dyn SprintStrategy>,
    faults: &FaultSchedule,
) -> SimSummary {
    let mut fold = SummaryFold::new();
    let (strategy, split) = drive(scenario, strategy, faults, &mut fold);
    fold.summarize(strategy, scenario.trace().step(), split)
}

/// Drives `strategy` over the scenario's trace, one kernel cycle per
/// sample, handing every finished step to `sink`. Faults are looked up at
/// the facility's clock and pass through one [`FaultObserver`], so the
/// sensor-noise stream is the run's own. Returns the strategy name and the
/// lifetime additional-energy split.
///
/// The borrowed spec, config and faults are never cloned, so search loops
/// (the Oracle, the table builder) pay no per-run setup beyond plant
/// construction.
fn drive<'s, K>(
    scenario: &'s Scenario,
    strategy: Box<dyn SprintStrategy>,
    faults: &FaultSchedule,
    sink: &mut K,
) -> (String, (Energy, Energy, Energy))
where
    K: StepSink<FacilityState<'s>>,
{
    let mut facility = FacilityState::new(scenario.spec(), scenario.config());
    let mut policy = SprintPolicy::new(strategy, scenario.spec());
    let mut observer = FaultObserver::new();
    let dt = scenario.trace().step();
    for (_, demand) in scenario.trace().iter() {
        let time = facility.now();
        let active = faults.active_at(time);
        let input = StepInput {
            time,
            demand,
            observation: observer.observe(demand, &active),
            dt,
        };
        step_cycle(&mut facility, &mut policy, &input, sink);
    }
    (policy.strategy_name().to_owned(), facility.energy_split())
}

/// Simulates the no-sprint baseline: the facility never activates extra
/// cores, serving at most demand 1.0.
///
/// Implemented as a [`FixedBound`] run at bound 1, so the plant (breakers,
/// cooling) is simulated identically to a sprinting run.
#[must_use]
pub fn run_no_sprint(scenario: &Scenario) -> SimResult {
    run_no_sprint_with_faults(scenario, &FaultSchedule::NONE)
}

/// Simulates the no-sprint baseline on a faulted plant: even a facility
/// that never sprints must ride out degraded breakers and stores safely.
#[must_use]
pub fn run_no_sprint_with_faults(scenario: &Scenario, faults: &FaultSchedule) -> SimResult {
    let mut result = run_with_faults(scenario, Box::new(FixedBound::new(Ratio::ONE)), faults);
    result.strategy = "NoSprint".into();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{ControllerConfig, Greedy};
    use dcs_power::DataCenterSpec;
    use dcs_units::Seconds;
    use dcs_workload::yahoo_trace;

    fn scenario(degree: f64, minutes: f64) -> Scenario {
        Scenario::new(
            DataCenterSpec::paper_default().with_scale(4, 200),
            ControllerConfig::default(),
            yahoo_trace::with_burst(1, degree, Seconds::from_minutes(minutes)),
        )
    }

    #[test]
    fn no_sprint_serves_at_most_one() {
        let result = run_no_sprint(&scenario(3.0, 10.0));
        assert!(result.records.iter().all(|r| r.served <= 1.0 + 1e-9));
        assert!(result.records.iter().all(|r| r.cores == 12));
        assert_eq!(result.strategy, "NoSprint");
    }

    #[test]
    fn greedy_beats_no_sprint_on_bursts() {
        let s = scenario(3.0, 5.0);
        let sprint = run(&s, Box::new(Greedy));
        let base = run_no_sprint(&s);
        let factor = sprint.improvement_over(&base);
        assert!(factor > 1.2, "improvement factor {factor}");
        assert!(!sprint.any_tripped());
        assert!(!sprint.any_overheated());
    }

    #[test]
    fn quiet_trace_gives_no_improvement() {
        let s = Scenario::new(
            DataCenterSpec::paper_default().with_scale(4, 200),
            ControllerConfig::default(),
            yahoo_trace::baseline(1),
        );
        let sprint = run(&s, Box::new(Greedy));
        let base = run_no_sprint(&s);
        assert!((sprint.improvement_over(&base) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_is_deterministic() {
        let s = scenario(3.2, 15.0);
        let a = run(&s, Box::new(Greedy));
        let b = run(&s, Box::new(Greedy));
        assert_eq!(a, b);
    }

    #[test]
    fn aggregate_run_equals_summarized_full_run() {
        let s = scenario(3.2, 15.0);
        let full = run(&s, Box::new(Greedy));
        let lean = run_summary_with_faults(&s, Box::new(Greedy), &FaultSchedule::NONE);
        assert_eq!(lean, full.summarize());
    }
}
