//! Serde round-trips for the configuration and result types a deployment
//! would persist (configs in version control, results in run archives).

use datacenter_sprinting::core::{ControllerConfig, StepRecord, UpperBoundTable};
use datacenter_sprinting::power::DataCenterSpec;
use datacenter_sprinting::sim::{run, Scenario};
use datacenter_sprinting::units::{Power, Ratio, Seconds};
use datacenter_sprinting::workload::{yahoo_trace, Trace};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn scenario_with_a_negative_sample_is_rejected_at_decode() {
    let scenario = Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 20),
        ControllerConfig::default(),
        yahoo_trace::with_burst(1, 3.0, Seconds::from_minutes(5.0)),
    );
    let json = serde_json::to_string(&scenario).expect("serializes");
    let bad = json.replacen("\"samples\":[", "\"samples\":[-5.0,", 1);
    assert_ne!(bad, json, "the samples array was found");
    let err = serde_json::from_str::<Scenario>(&bad).expect_err("negative demand");
    assert!(err.to_string().contains("sample 0 is invalid: -5"), "{err}");
}

#[test]
fn controller_config_round_trips() {
    let config = ControllerConfig::default();
    let back = round_trip(&config);
    assert_eq!(config, back);
}

#[test]
fn facility_spec_round_trips() {
    let spec = DataCenterSpec::paper_default().with_dc_headroom(Ratio::from_percent(15.0));
    let back = round_trip(&spec);
    assert_eq!(spec, back);
    assert_eq!(back.dc_rated(), spec.dc_rated());
}

#[test]
fn traces_round_trip() {
    let trace = yahoo_trace::with_burst(3, 3.2, Seconds::from_minutes(5.0));
    let back: Trace = round_trip(&trace);
    assert_eq!(trace, back);
}

#[test]
fn upper_bound_table_round_trips() {
    let table = UpperBoundTable::new(
        vec![5.0, 15.0],
        vec![2.0, 4.0],
        vec![
            Ratio::new(4.0),
            Ratio::new(3.5),
            Ratio::new(2.0),
            Ratio::new(2.5),
        ],
    )
    .unwrap();
    let back = round_trip(&table);
    assert_eq!(table, back);
    assert_eq!(
        back.lookup(Seconds::from_minutes(10.0), 3.0),
        table.lookup(Seconds::from_minutes(10.0), 3.0)
    );
}

#[test]
fn step_records_round_trip_through_a_run() {
    let scenario = Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 200),
        ControllerConfig::default(),
        yahoo_trace::with_burst(1, 2.5, Seconds::from_minutes(2.0)),
    );
    let result = run(&scenario, Box::new(datacenter_sprinting::core::Greedy));
    let records: Vec<StepRecord> = round_trip(&result.records);
    assert_eq!(records, result.records);
}

#[test]
fn quantities_round_trip_transparently() {
    // Quantities serialize as bare numbers (serde(transparent)).
    let p = Power::from_kilowatts(13.75);
    assert_eq!(serde_json::to_string(&p).unwrap(), "13750.0");
    assert_eq!(round_trip(&p), p);
}
