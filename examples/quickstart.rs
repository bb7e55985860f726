//! Quickstart: sprint through one workload burst and watch the three
//! phases engage.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use datacenter_sprinting::core::{
    step_cycle, ControllerConfig, FacilityState, Greedy, NullSink, SprintPolicy, StepInput,
};
use datacenter_sprinting::power::DataCenterSpec;
use datacenter_sprinting::units::Seconds;

fn main() {
    // The paper's facility: ~180,000 48-core servers, 10 MW peak normal IT
    // power, PDU breakers at 13.75 kW, 10% DC-level headroom.
    let spec = DataCenterSpec::paper_default();
    println!(
        "facility: {} servers, peak normal {}, DC breaker rated {}",
        spec.total_servers(),
        spec.peak_normal_total_power(),
        spec.dc_rated()
    );

    // The plant (breakers, UPS fleet, cooling, TES, room) and the
    // three-phase policy that decides each period's core count for it.
    let config = ControllerConfig::default();
    let mut facility = FacilityState::new(&spec, &config);
    let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);

    // Two quiet minutes, a six-minute burst at 2.5x capacity, two quiet
    // minutes to recover.
    let dt = Seconds::new(1.0);
    let demand_at = |t: f64| -> f64 {
        if (120.0..480.0).contains(&t) {
            2.5
        } else {
            0.7
        }
    };

    println!("\n  time    demand  served  cores  phase            temp");
    for step in 0..600 {
        let t = f64::from(step);
        let input = StepInput::nominal(facility.now(), demand_at(t), dt);
        let record = step_cycle(&mut facility, &mut policy, &input, &mut NullSink).record;
        if step % 30 == 0 {
            println!(
                "  {:>6}  {:>6.2}  {:>6.2}  {:>5}  {:<15}  {}",
                format!("{}s", step),
                record.demand,
                record.served,
                record.cores,
                record.phase.to_string(),
                record.temperature
            );
        }
        assert!(!record.tripped, "a controlled sprint never trips a breaker");
    }

    let (cb, ups, tes) = facility.energy_split();
    println!("\nadditional energy drawn:  CB overload {cb},  UPS {ups},  TES heat {tes}");
    println!(
        "UPS state of charge after the burst: {}",
        facility.ups().state_of_charge()
    );
}
