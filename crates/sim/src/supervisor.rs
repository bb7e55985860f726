//! Supervised execution: panic isolation and retries.
//!
//! [`parallel_map`](crate::parallel_map) is the zero-overhead fast path —
//! a panicking item aborts the whole sweep (naming the item). The
//! [`Supervisor`] here is the slow-but-safe path the resumable searches
//! run each chunk through: every attempt runs inside `catch_unwind`, a
//! failed attempt is retried under a [`RetryPolicy`] with capped
//! exponential backoff, and an item that fails every attempt comes back
//! as a typed [`SimError::Sweep`] naming the item and its panic payload
//! instead of unwinding through the caller. [`Supervisor::call`] runs on
//! the calling thread; the supervisor starts no threads of its own.
//!
//! Determinism: a perturbed attempt's output is discarded before retrying,
//! and the work closures in this crate are pure functions of their input,
//! so a supervised search that recovers from chaos returns results
//! bit-identical to a clean run. The chaos suite asserts this.

use std::panic::AssertUnwindSafe;
use std::time::Duration;

use dcs_faults::{ChaosKind, ChaosSchedule};

use crate::error::SimError;
use crate::sweep::panic_payload_message;

/// Per-item retry policy for supervised execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per item (first try included); 0 counts as 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds (doubled per retry).
    pub initial_backoff_ms: u64,
    /// Cap on the exponential backoff, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    /// One attempt, no backoff — pure panic isolation.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff_ms: 0,
            max_backoff_ms: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and a short capped
    /// backoff (1 ms doubling to at most 16 ms) — the house default for
    /// resumable searches.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            initial_backoff_ms: 1,
            max_backoff_ms: 16,
        }
    }

    /// Backoff before retry number `retry` (zero-based), capped.
    fn backoff_ms(&self, retry: u32) -> u64 {
        if self.initial_backoff_ms == 0 {
            return 0;
        }
        let factor = 1_u64 << retry.min(16);
        (self.initial_backoff_ms.saturating_mul(factor)).min(self.max_backoff_ms)
    }
}

/// The supervised executor: a retry policy plus an optional harness-level
/// chaos schedule (used by the chaos suite to inject panics and stalls).
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    retry: RetryPolicy,
    chaos: ChaosSchedule,
}

impl Supervisor {
    /// A supervisor with the default policy (one attempt) and no chaos.
    #[must_use]
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Supervisor {
        self.retry = retry;
        self
    }

    /// Installs a chaos schedule; attempts it names are perturbed.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosSchedule) -> Supervisor {
        self.chaos = chaos;
        self
    }

    /// Runs one nominal work item (index `item`, for chaos lookup and
    /// error attribution) under the retry policy, inline on the calling
    /// thread: `f` runs until an attempt returns, sleeping the capped
    /// backoff before each retry. When every attempt panics, the error
    /// names the item, the attempts made and the last panic's payload.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_sim::{RetryPolicy, Supervisor};
    ///
    /// let sup = Supervisor::new().with_retry(RetryPolicy::attempts(2));
    /// assert_eq!(sup.call(0, || 6 * 7).unwrap(), 42);
    /// let err = sup.call(3, || -> u32 { panic!("boom") }).unwrap_err();
    /// assert!(err.to_string().contains("item 3"), "{err}");
    /// assert!(err.to_string().contains("boom"), "{err}");
    /// ```
    pub fn call<U>(&self, item: usize, f: impl Fn() -> U) -> Result<U, SimError> {
        let attempts = self.retry.max_attempts.max(1);
        let mut message = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.retry.backoff_ms(attempt - 1);
                if backoff > 0 {
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.apply_chaos(item, attempt);
                f()
            }));
            match outcome {
                Ok(value) => return Ok(value),
                Err(payload) => {
                    message = format!("panicked: {}", panic_payload_message(payload.as_ref()));
                }
            }
        }
        Err(SimError::Sweep {
            item,
            attempts,
            message,
        })
    }

    /// Applies any chaos scheduled for this (item, attempt): a stall
    /// sleeps, an injected panic unwinds (inside the isolation boundary).
    fn apply_chaos(&self, item: usize, attempt: u32) {
        match self.chaos.lookup(item, attempt) {
            Some(ChaosKind::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(*millis));
            }
            Some(ChaosKind::Panic) => {
                panic!("injected chaos panic on item {item} attempt {attempt}");
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::parallel_map;
    use dcs_faults::ChaosEvent;
    use std::cell::Cell;
    use std::time::Instant;

    #[test]
    fn call_retries_then_reports_the_payload() {
        let sup = Supervisor::new()
            .with_retry(RetryPolicy::attempts(2))
            .with_chaos(ChaosSchedule::panic_on(3, 0));
        assert_eq!(sup.call(3, || 42).unwrap(), 42);
        let fatal = Supervisor::new().with_chaos(ChaosSchedule::panic_on(0, 0));
        let err = fatal.call(0, || 1).expect_err("no retries left");
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("injected chaos panic"), "{err}");
    }

    #[test]
    fn clean_map_matches_parallel_map() {
        // A sweep with one supervised `call` per item is bit-identical to
        // the plain `parallel_map` fast path when nothing fails.
        let inputs: Vec<usize> = (0..24).collect();
        let f = |x: usize| (0..50).fold(x as f64, |acc, i| acc + f64::from(i).sqrt() * 1e-3);
        let plain = parallel_map(&inputs, |&x| f(x));
        let sup = Supervisor::new().with_retry(RetryPolicy::attempts(3));
        let supervised = parallel_map(&inputs, |&x| sup.call(x, || f(x)).expect("clean item"));
        assert_eq!(
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            supervised.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn injected_chaos_recovers_with_retries() {
        // Item 2 panics on its first two attempts; a third attempt is
        // enough, two are not.
        let chaos = ChaosSchedule::panic_on(2, 0).with(ChaosEvent {
            item: 2,
            attempt: 1,
            kind: ChaosKind::Panic,
        });
        let runs = Cell::new(0_u32);
        let work = || {
            runs.set(runs.get() + 1);
            7_u64
        };
        let three = Supervisor::new()
            .with_retry(RetryPolicy::attempts(3))
            .with_chaos(chaos.clone());
        assert_eq!(three.call(2, work).unwrap(), 7);
        assert_eq!(runs.get(), 1, "perturbed attempts never reach the work");
        assert_eq!(three.call(1, work).unwrap(), 7, "other items run clean");
        let two = Supervisor::new()
            .with_retry(RetryPolicy::attempts(2))
            .with_chaos(chaos);
        let err = two.call(2, work).expect_err("both attempts are perturbed");
        assert!(
            matches!(
                err,
                SimError::Sweep {
                    item: 2,
                    attempts: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn panic_is_isolated_and_reported() {
        let sup = Supervisor::new();
        let err = sup
            .call(5, || -> u32 { panic!("cell {} diverged", 5) })
            .expect_err("the only attempt panics");
        match &err {
            SimError::Sweep {
                item,
                attempts,
                message,
            } => {
                assert_eq!((*item, *attempts), (5, 1));
                assert_eq!(message, "panicked: cell 5 diverged");
            }
            other => panic!("expected a sweep error, got {other}"),
        }
        // The panic stayed inside the boundary: the caller and the same
        // supervisor carry on.
        assert_eq!(sup.call(6, || 3).unwrap(), 3);
    }

    #[test]
    fn zero_attempt_policy_runs_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            initial_backoff_ms: 0,
            max_backoff_ms: 0,
        };
        let runs = Cell::new(0_u32);
        let sup = Supervisor::new().with_retry(policy);
        assert_eq!(
            sup.call(0, || {
                runs.set(runs.get() + 1);
                1
            })
            .unwrap(),
            1
        );
        assert_eq!(runs.get(), 1);
        let err = sup
            .call(0, || -> u32 { panic!("always") })
            .expect_err("one attempt, and it panics");
        assert!(matches!(err, SimError::Sweep { attempts: 1, .. }), "{err}");
    }

    #[test]
    fn stalled_attempt_still_returns_its_result() {
        // A stall only slows the attempt down: its result is kept and no
        // retry runs.
        let runs = Cell::new(0_u32);
        let sup = Supervisor::new().with_chaos(ChaosSchedule::delay_on(4, 0, 20));
        let started = Instant::now();
        let value = sup
            .call(4, || {
                runs.set(runs.get() + 1);
                11
            })
            .unwrap();
        assert_eq!((value, runs.get()), (11, 1));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn no_backoff_sleep_after_final_retry() {
        // Backoff runs *before* each retry, never after the last failed
        // attempt: with one attempt and a huge configured backoff, a
        // failing item must return without sleeping at all.
        let policy = RetryPolicy {
            max_attempts: 1,
            initial_backoff_ms: 120_000,
            max_backoff_ms: 120_000,
        };
        let sup =
            Supervisor::new()
                .with_retry(policy)
                .with_chaos(ChaosSchedule::panic_on(0, 0).with(ChaosEvent {
                    item: 0,
                    attempt: 1,
                    kind: ChaosKind::Panic,
                }));
        let started = Instant::now();
        let err = sup.call(0, || 1).expect_err("the only attempt panics");
        assert!(matches!(err, SimError::Sweep { attempts: 1, .. }), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "no sleep may follow the final attempt, took {:?}",
            started.elapsed()
        );
        // Same contract with retries in play: two attempts separated by
        // one short backoff, and nothing after the second failure.
        let retrying = Supervisor::new()
            .with_retry(RetryPolicy {
                max_attempts: 2,
                initial_backoff_ms: 10,
                max_backoff_ms: 10,
            })
            .with_chaos(ChaosSchedule::panic_on(0, 0).with(ChaosEvent {
                item: 0,
                attempt: 1,
                kind: ChaosKind::Panic,
            }));
        let started = Instant::now();
        let err = retrying.call(0, || 1).expect_err("both attempts panic");
        let elapsed = started.elapsed();
        assert!(err.to_string().contains("panic"), "{err}");
        assert!(
            elapsed >= Duration::from_millis(10),
            "one backoff must separate the attempts, took {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "no second backoff may follow the final attempt, took {elapsed:?}"
        );
    }

    #[test]
    fn attempts_policy_clamps_to_one_and_uses_the_house_backoff() {
        assert_eq!(RetryPolicy::attempts(0).max_attempts, 1);
        let policy = RetryPolicy::attempts(8);
        assert_eq!(policy.max_attempts, 8);
        let backoffs: Vec<u64> = (0..7).map(|retry| policy.backoff_ms(retry)).collect();
        assert_eq!(backoffs, [1, 2, 4, 8, 16, 16, 16]);
        assert_eq!(RetryPolicy::default().backoff_ms(3), 0, "no backoff");
    }

    #[test]
    fn backoff_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            initial_backoff_ms: 3,
            max_backoff_ms: 20,
        };
        assert_eq!(policy.backoff_ms(0), 3);
        assert_eq!(policy.backoff_ms(1), 6);
        assert_eq!(policy.backoff_ms(2), 12);
        assert_eq!(policy.backoff_ms(3), 20);
        assert_eq!(policy.backoff_ms(9), 20);
    }
}
