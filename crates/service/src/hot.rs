//! Crash-safe hot state: what the service persists between decisions.
//!
//! Every `checkpoint_every` decisions the engine snapshots the facility's
//! mutable state ([`dcs_core::FacilityHotState`]: breaker thermal memory,
//! UPS and TES charge, room temperature, ledgers) and the policy's sprint
//! lifecycle ([`dcs_core::PolicyHotState`]) into a
//! [`dcs_sim::CheckpointStore`] — atomic tmp+rename snapshots with
//! checksums, so a `kill -9` mid-save leaves the previous snapshot
//! intact. On boot the newest intact snapshot is imported and the
//! facility resumes bit-identically. The store does not fsync: a snapshot
//! survives the death of the process, not a host crash or power loss.

use dcs_core::{FacilityHotState, PolicyHotState};
use serde::{Deserialize, Serialize};

/// Schema tag for service hot-state snapshots.
pub const HOT_STATE_SCHEMA: &str = "dcs-service/hot-state-v1";

/// The checkpoint kind recorded in every snapshot header.
pub const HOT_STATE_KIND: &str = "dcs-service/hot-state";

/// One snapshot of the service's mutable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceHotState {
    /// Snapshot schema tag ([`HOT_STATE_SCHEMA`]).
    pub schema: String,
    /// Decisions completed when the snapshot was taken.
    pub decisions: u64,
    /// The facility's plant state.
    pub facility: FacilityHotState,
    /// The policy's sprint-lifecycle state.
    pub policy: PolicyHotState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{
        step_cycle, ControllerConfig, FacilityState, Greedy, NullSink, SprintPolicy, StepInput,
    };
    use dcs_power::DataCenterSpec;
    use dcs_units::Seconds;

    /// The core crash-safety invariant, exercised without HTTP: export
    /// after N steps, restore into a fresh facility, and every subsequent
    /// step is bit-identical to the uninterrupted run.
    #[test]
    fn export_import_round_trip_is_bit_identical() {
        let spec = DataCenterSpec::paper_default().with_scale(2, 50);
        let config = ControllerConfig::default();
        let dt = Seconds::new(1.0);
        let demands: Vec<f64> = (0..40)
            .map(|i| if (10..25).contains(&i) { 2.6 } else { 0.6 })
            .collect();

        // Uninterrupted reference run.
        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        let mut reference = Vec::new();
        let mut snapshot = None;
        for (i, &demand) in demands.iter().enumerate() {
            let input = StepInput::nominal(facility.now(), demand, dt);
            let effects = step_cycle(&mut facility, &mut policy, &input, &mut NullSink);
            reference.push(effects.record);
            if i == 19 {
                // Mid-sprint snapshot, serialized through JSON like the
                // real checkpoint path.
                let hot = ServiceHotState {
                    schema: HOT_STATE_SCHEMA.to_string(),
                    decisions: 20,
                    facility: facility.export_hot_state(),
                    policy: policy.export_hot_state(),
                };
                let text = serde_json::to_string(&hot).unwrap();
                snapshot = Some(text);
            }
        }

        // "Restart": fresh facility + policy, import the snapshot, replay
        // the tail.
        let hot: ServiceHotState = serde_json::from_str(&snapshot.unwrap()).unwrap();
        assert_eq!(hot.schema, HOT_STATE_SCHEMA);
        assert_eq!(hot.decisions, 20);
        let mut facility = FacilityState::new(&spec, &config);
        let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
        facility.import_hot_state(hot.facility);
        policy.import_hot_state(hot.policy);
        for (i, &demand) in demands.iter().enumerate().skip(20) {
            let input = StepInput::nominal(facility.now(), demand, dt);
            let effects = step_cycle(&mut facility, &mut policy, &input, &mut NullSink);
            assert_eq!(
                effects.record, reference[i],
                "step {i} diverged after restore"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different PDU count")]
    fn import_rejects_mismatched_geometry() {
        let spec_a = DataCenterSpec::paper_default().with_scale(2, 50);
        let spec_b = DataCenterSpec::paper_default().with_scale(3, 50);
        let config = ControllerConfig::default();
        let donor = FacilityState::new(&spec_a, &config);
        let mut target = FacilityState::new(&spec_b, &config);
        target.import_hot_state(donor.export_hot_state());
    }
}
