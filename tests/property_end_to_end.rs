//! Property-based end-to-end tests: random burst profiles and facility
//! configurations must never violate the controller's safety contract.

use datacenter_sprinting::core::{
    step_cycle, ControllerConfig, FacilityState, FixedBound, Greedy, NullSink, SprintPolicy,
    StepInput, StepRecord,
};
use datacenter_sprinting::power::DataCenterSpec;
use datacenter_sprinting::units::{Charge, Ratio, Seconds};
use proptest::prelude::*;

/// One fault-free one-second control period through the step kernel.
fn step(facility: &mut FacilityState<'_>, policy: &mut SprintPolicy, demand: f64) -> StepRecord {
    let input = StepInput::nominal(facility.now(), demand, Seconds::new(1.0));
    step_cycle(facility, policy, &input, &mut NullSink).record
}

fn random_trace() -> impl Strategy<Value = Vec<f64>> {
    // Piecewise demand: a handful of segments, each a level in [0, 4.5]
    // held for up to 3 minutes.
    prop::collection::vec((0.0..4.5f64, 10usize..180), 2..12).prop_map(|segments| {
        segments
            .into_iter()
            .flat_map(|(level, len)| std::iter::repeat_n(level, len))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The safety contract: no trips, no overheating, serving at least
    /// min(demand, 1.0), for arbitrary demand profiles.
    #[test]
    fn controller_is_safe_on_random_demand(samples in random_trace()) {
        let spec = DataCenterSpec::paper_default().with_scale(2, 200);
        let config = ControllerConfig::default();
        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        for &demand in &samples {
            let r = step(&mut facility, &mut policy, demand);
            prop_assert!(!r.tripped, "tripped at {}", r.time);
            prop_assert!(!r.overheated, "overheated at {}", r.time);
            prop_assert!(r.served >= demand.min(1.0) - 1e-9,
                "served {} of demand {}", r.served, demand);
        }
    }

    /// Under-provisioned facilities (0-20% headroom, any battery size)
    /// keep the same contract.
    #[test]
    fn controller_is_safe_across_configurations(
        headroom in 0.0..20.0f64,
        battery_ah in 0.05..2.0f64,
        demand in 1.1..4.5f64,
    ) {
        let spec = DataCenterSpec::paper_default()
            .with_scale(2, 200)
            .with_dc_headroom(Ratio::from_percent(headroom));
        let config = ControllerConfig {
            ups_rating: Charge::from_amp_hours(battery_ah),
            ..ControllerConfig::default()
        };
        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        for _ in 0..600 {
            let r = step(&mut facility, &mut policy, demand);
            prop_assert!(!r.tripped && !r.overheated);
            prop_assert!(r.served >= 1.0 - 1e-9);
        }
    }

    /// A tighter degree bound never increases instantaneous power draw.
    #[test]
    fn tighter_bounds_draw_no_more_power(
        demand in 1.5..4.0f64,
        lo in 1.0..2.0f64,
        hi_extra in 0.5..2.0f64,
    ) {
        let spec = DataCenterSpec::paper_default().with_scale(2, 200);
        let config = ControllerConfig::default();
        let mk = |bound: f64| {
            (
                FacilityState::new(&spec, &config),
                SprintPolicy::new(Box::new(FixedBound::new(Ratio::new(bound))), &spec),
            )
        };
        let (mut tight, mut tight_policy) = mk(lo);
        let (mut loose, mut loose_policy) = mk(lo + hi_extra);
        for _ in 0..120 {
            let a = step(&mut tight, &mut tight_policy, demand);
            let b = step(&mut loose, &mut loose_policy, demand);
            prop_assert!(a.it_power <= b.it_power + datacenter_sprinting::units::Power::from_watts(1e-6));
            prop_assert!(a.served <= b.served + 1e-9);
        }
    }
}
