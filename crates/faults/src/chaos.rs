//! Harness-level chaos injection for supervised sweeps.
//!
//! The schedules in the crate root degrade the *modeled facility*; the
//! [`ChaosSchedule`] here degrades the *harness that simulates it*: it
//! tells a supervised executor (see `dcs_sim::Supervisor`) to
//! panic or stall a specific work item on a specific attempt. Like the
//! plant schedules, chaos is plain data — deterministic, seedable, and
//! serde round-trippable — so a chaotic run is exactly reproducible.
//!
//! Chaos only ever perturbs *attempts*; a perturbed attempt's output is
//! discarded and the item retried, so a supervised computation that
//! survives its chaos produces output bit-identical to a clean run. The
//! `dcs-sim` chaos suite asserts exactly that.
//!
//! # Examples
//!
//! ```
//! use dcs_faults::{ChaosKind, ChaosSchedule};
//!
//! let chaos = ChaosSchedule::panic_on(3, 0);
//! assert_eq!(chaos.lookup(3, 0), Some(&ChaosKind::Panic));
//! assert_eq!(chaos.lookup(3, 1), None, "retries run clean");
//! assert_eq!(chaos.lookup(2, 0), None, "other items run clean");
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the chaos does to the targeted attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ChaosKind {
    /// The attempt panics (inside the supervisor's isolation boundary).
    Panic,
    /// The attempt stalls for `millis` before doing its work — long enough
    /// stalls trip the supervisor's per-item deadline.
    Delay {
        /// Injected stall in milliseconds.
        millis: u64,
    },
}

/// One chaos event: perturb work item `item` on its `attempt`-th try
/// (attempts count from zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// Index of the targeted work item within the supervised call.
    pub item: usize,
    /// Zero-based attempt number the perturbation fires on.
    pub attempt: u32,
    /// The perturbation.
    pub kind: ChaosKind,
}

/// A deterministic schedule of harness faults for one supervised call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// The empty schedule: every attempt runs clean.
    pub const NONE: ChaosSchedule = ChaosSchedule { events: Vec::new() };

    /// Creates a schedule from explicit events.
    #[must_use]
    pub fn new(events: Vec<ChaosEvent>) -> ChaosSchedule {
        ChaosSchedule { events }
    }

    /// The empty schedule (by-value convenience, mirroring
    /// [`crate::FaultSchedule::none`]).
    #[must_use]
    pub fn none() -> ChaosSchedule {
        ChaosSchedule::NONE
    }

    /// A single injected panic on `item`'s `attempt`-th try.
    #[must_use]
    pub fn panic_on(item: usize, attempt: u32) -> ChaosSchedule {
        ChaosSchedule::new(vec![ChaosEvent {
            item,
            attempt,
            kind: ChaosKind::Panic,
        }])
    }

    /// A single injected stall of `millis` on `item`'s `attempt`-th try.
    #[must_use]
    pub fn delay_on(item: usize, attempt: u32, millis: u64) -> ChaosSchedule {
        ChaosSchedule::new(vec![ChaosEvent {
            item,
            attempt,
            kind: ChaosKind::Delay { millis },
        }])
    }

    /// Appends an event (builder style).
    #[must_use]
    pub fn with(mut self, event: ChaosEvent) -> ChaosSchedule {
        self.events.push(event);
        self
    }

    /// A seeded random schedule over `items` work items: roughly one in
    /// three items is perturbed on its *first* attempt only (half panics,
    /// half short stalls), so a supervisor with at least one retry always
    /// recovers. Deterministic in the seed.
    #[must_use]
    pub fn random(seed: u64, items: usize) -> ChaosSchedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5CA0_5EED);
        let mut events = Vec::new();
        for item in 0..items {
            if rng.gen_range(0..3_u32) == 0 {
                let kind = if rng.gen_range(0..2_u32) == 0 {
                    ChaosKind::Panic
                } else {
                    ChaosKind::Delay {
                        millis: rng.gen_range(1..20_u64),
                    }
                };
                events.push(ChaosEvent {
                    item,
                    attempt: 0,
                    kind,
                });
            }
        }
        ChaosSchedule { events }
    }

    /// A periodic stall: every `period`-th item (0, `period`, 2·`period`,
    /// …) stalls for `millis` on its first attempt, for the first `count`
    /// stalls. A live service's decision loop consumes items as
    /// monotonically increasing decision indices, so this models a plant
    /// interface that intermittently freezes — the scenario behind the
    /// service's degraded-serving watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn delay_every(period: usize, millis: u64, count: usize) -> ChaosSchedule {
        assert!(period > 0, "period must be positive");
        ChaosSchedule {
            events: (0..count)
                .map(|i| ChaosEvent {
                    item: i * period,
                    attempt: 0,
                    kind: ChaosKind::Delay { millis },
                })
                .collect(),
        }
    }

    /// Returns the perturbation scheduled for `item`'s `attempt`-th try,
    /// if any (first matching event wins).
    #[must_use]
    pub fn lookup(&self, item: usize, attempt: u32) -> Option<&ChaosKind> {
        self.events
            .iter()
            .find(|e| e.item == item && e.attempt == attempt)
            .map(|e| &e.kind)
    }

    /// Returns `true` if the schedule has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events.
    #[must_use]
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_matches_item_and_attempt() {
        let chaos = ChaosSchedule::panic_on(2, 1).with(ChaosEvent {
            item: 4,
            attempt: 0,
            kind: ChaosKind::Delay { millis: 7 },
        });
        assert_eq!(chaos.lookup(2, 1), Some(&ChaosKind::Panic));
        assert_eq!(chaos.lookup(4, 0), Some(&ChaosKind::Delay { millis: 7 }));
        assert_eq!(chaos.lookup(2, 0), None);
        assert_eq!(chaos.lookup(4, 1), None);
        assert!(!chaos.is_empty());
        assert!(ChaosSchedule::NONE.is_empty());
    }

    #[test]
    fn random_is_deterministic_and_first_attempt_only() {
        let a = ChaosSchedule::random(9, 64);
        let b = ChaosSchedule::random(9, 64);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "64 items should draw some chaos");
        assert!(a.events().iter().all(|e| e.attempt == 0));
        assert!(a.events().iter().all(|e| e.item < 64));
        let c = ChaosSchedule::random(10, 64);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn delay_every_stalls_periodic_items() {
        let chaos = ChaosSchedule::delay_every(3, 25, 2);
        assert_eq!(chaos.lookup(0, 0), Some(&ChaosKind::Delay { millis: 25 }));
        assert_eq!(chaos.lookup(3, 0), Some(&ChaosKind::Delay { millis: 25 }));
        assert_eq!(chaos.lookup(6, 0), None, "count bounds the stalls");
        assert_eq!(chaos.lookup(1, 0), None);
        assert_eq!(chaos.lookup(0, 1), None, "retries run clean");
    }

    #[test]
    fn serde_round_trip() {
        let chaos = ChaosSchedule::random(3, 32).with(ChaosEvent {
            item: 1,
            attempt: 2,
            kind: ChaosKind::Panic,
        });
        let text = serde_json::to_string(&chaos).expect("serializes");
        let back: ChaosSchedule = serde_json::from_str(&text).expect("parses");
        assert_eq!(chaos, back);
    }
}
