//! Stateful circuit breaker with thermal memory.

use crate::TripCurve;
use dcs_units::{Power, Ratio, Seconds};
use serde::{Deserialize, Serialize};

/// Error returned by breaker operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerError {
    /// The breaker has already tripped and must be reset before it can carry
    /// load again.
    AlreadyTripped {
        /// Name of the breaker.
        name: String,
    },
}

impl std::fmt::Display for BreakerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerError::AlreadyTripped { name } => {
                write!(f, "breaker {name} has tripped and must be reset")
            }
        }
    }
}

impl std::error::Error for BreakerError {}

/// A trip event, reported when accumulated overload opens the breaker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripEvent {
    /// Name of the breaker that tripped.
    pub name: String,
    /// The load ratio at the moment of the trip.
    pub ratio: Ratio,
    /// How far into the applied interval the trip occurred.
    pub after: Seconds,
}

impl std::fmt::Display for TripEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "breaker {} tripped at {} load after {}",
            self.name, self.ratio, self.after
        )
    }
}

/// A circuit breaker with inverse-time thermal memory.
///
/// The breaker integrates *trip progress* over time: an interval `dt` spent
/// at a load whose cold-start trip time is `t(ov)` advances the internal
/// thermal state by `dt / t(ov)`, and the breaker opens when the state
/// reaches 1. When the load drops back inside the no-trip region the state
/// decays exponentially with a 5-minute cool-down time constant, modeling
/// the bimetal element cooling off.
///
/// This linear-accumulation model makes "remaining time before trip at the
/// current load" — the quantity the paper's controller regulates to stay at
/// least one minute from a trip — exactly `(1 − state) · t(ov)`.
///
/// # Examples
///
/// ```
/// use dcs_breaker::{CircuitBreaker, TripCurve};
/// use dcs_units::{Power, Seconds};
///
/// let mut cb = CircuitBreaker::new("dc", Power::from_megawatts(19.0), TripCurve::bulletin_1489());
/// let load = Power::from_megawatts(19.0) * 1.3; // 30% overload: trips in 4 min
/// cb.apply_load(load, Seconds::from_minutes(2.0)).unwrap();
/// assert!((cb.remaining_time_at(load).as_minutes() - 2.0).abs() < 1e-9);
/// assert!(!cb.is_tripped());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CircuitBreaker {
    name: String,
    rated: Power,
    curve: TripCurve,
    /// Trip progress in `[0, 1]`; the breaker opens at 1.
    state: f64,
    /// Exponential cool-down time constant when not overloaded.
    cooldown: Seconds,
    tripped: bool,
    /// Fault injection: effective-rating factor in `(0, 1]` (a degraded
    /// element trips as if rated lower).
    derating: f64,
    /// Memoized cool-down factor `exp(-dt / cooldown)` keyed by the step
    /// bits. Every cooling step of a fixed-`dt` simulation reuses one
    /// transcendental; the stored bits are exactly what a fresh evaluation
    /// would produce, so hits are bit-identical. Derived state: not
    /// serialized, not compared, invalidated when the cool-down changes.
    #[serde(skip)]
    cool_memo: Option<(u64, f64)>,
    /// Memoized cold-start trip time keyed by the load bits. Plateau
    /// overloads re-ask the same inverse-time curve point every step; the
    /// key covers the only varying input (`derating` invalidates, `rated`
    /// and `curve` are fixed after construction). Derived state, like
    /// `cool_memo`.
    #[serde(skip)]
    trip_memo: Option<(u64, Seconds)>,
}

/// Memoized caches are derived state: two breakers that agree on every
/// semantic field are equal regardless of what either has cached.
impl PartialEq for CircuitBreaker {
    fn eq(&self, other: &CircuitBreaker) -> bool {
        self.name == other.name
            && self.rated == other.rated
            && self.curve == other.curve
            && self.state == other.state
            && self.cooldown == other.cooldown
            && self.tripped == other.tripped
            && self.derating == other.derating
    }
}

impl CircuitBreaker {
    /// Creates a closed, cold breaker.
    ///
    /// # Panics
    ///
    /// Panics if `rated` is not strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_breaker::{CircuitBreaker, TripCurve};
    /// use dcs_units::Power;
    /// let cb = CircuitBreaker::new("pdu-3", Power::from_kilowatts(13.75), TripCurve::default());
    /// assert_eq!(cb.name(), "pdu-3");
    /// assert!(!cb.is_tripped());
    /// ```
    #[must_use]
    pub fn new(name: impl Into<String>, rated: Power, curve: TripCurve) -> CircuitBreaker {
        assert!(rated > Power::ZERO, "rated power must be positive");
        CircuitBreaker {
            name: name.into(),
            rated,
            curve,
            state: 0.0,
            cooldown: Seconds::from_minutes(5.0),
            tripped: false,
            derating: 1.0,
            cool_memo: None,
            trip_memo: None,
        }
    }

    /// Sets the fault-injection derating factor: the breaker behaves as if
    /// rated at `factor ×` its nameplate (trip times shorten, safe caps
    /// shrink). `1.0` restores nominal behavior exactly.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `(0, 1]`.
    pub fn set_derating(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derating factor must be in (0, 1]"
        );
        if self.derating != factor {
            // The effective rating shifts every curve lookup.
            self.trip_memo = None;
        }
        self.derating = factor;
    }

    /// Returns the fault-injection derating factor.
    #[must_use]
    pub fn derating(&self) -> f64 {
        self.derating
    }

    /// The rating after the fault-injection derate.
    fn effective_rated(&self) -> Power {
        self.rated * self.derating
    }

    /// Returns the breaker's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the rated power.
    #[must_use]
    pub fn rated(&self) -> Power {
        self.rated
    }

    /// Returns the trip curve.
    #[must_use]
    pub fn curve(&self) -> &TripCurve {
        &self.curve
    }

    /// Returns the internal trip progress in `[0, 1]`.
    #[must_use]
    pub fn trip_progress(&self) -> f64 {
        self.state
    }

    /// Returns `true` if the breaker has opened.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Returns the largest load guaranteed never to trip this breaker from
    /// any thermal state: the pickup boundary of its curve (derated by any
    /// injected fault). Loads at or below this limit only ever cool the
    /// thermal element.
    #[must_use]
    pub fn no_trip_limit(&self) -> Power {
        self.effective_rated() * self.curve.no_trip_ratio().as_f64()
    }

    /// Returns the load ratio a given power draw represents on this breaker.
    #[must_use]
    fn load_ratio(&self, load: Power) -> Ratio {
        load.ratio_of(self.effective_rated())
    }

    /// Returns the cold-start trip time for a constant `load`.
    #[must_use]
    pub fn trip_time_at(&self, load: Power) -> Seconds {
        self.curve.trip_time(self.load_ratio(load))
    }

    /// [`trip_time_at`](Self::trip_time_at) through the one-entry memo:
    /// a repeat of the previous load (the plateau-overload common case)
    /// returns the stored bits instead of re-inverting the curve.
    fn trip_time_memo(&mut self, load: Power) -> Seconds {
        let key = load.as_watts().to_bits();
        if let Some((k, t)) = self.trip_memo {
            if k == key {
                return t;
            }
        }
        let t = self.trip_time_at(load);
        self.trip_memo = Some((key, t));
        t
    }

    /// The cooling decay factor `exp(-dt / cooldown)` through the
    /// one-entry memo (a fixed-`dt` run evaluates the exponential once).
    fn cool_factor(&mut self, dt: Seconds) -> f64 {
        let key = dt.as_secs().to_bits();
        if let Some((k, f)) = self.cool_memo {
            if k == key {
                return f;
            }
        }
        let f = (-dt.as_secs() / self.cooldown.as_secs()).exp();
        self.cool_memo = Some((key, f));
        f
    }

    /// Returns the remaining time before trip if `load` is held from the
    /// current thermal state, or [`Seconds::NEVER`] if the load cannot trip
    /// the breaker.
    ///
    /// This is the quantity the paper's Phase-1 rule regulates: *"we
    /// dynamically calculate the remaining time before the CB trips if the
    /// current overload continues"*.
    #[must_use]
    pub fn remaining_time_at(&self, load: Power) -> Seconds {
        if self.tripped {
            return Seconds::ZERO;
        }
        let t = self.trip_time_at(load);
        if t.is_never() {
            Seconds::NEVER
        } else {
            t * (1.0 - self.state).max(0.0)
        }
    }

    /// Returns the maximum power this breaker can carry from its current
    /// thermal state while staying at least `reserve` away from a trip.
    ///
    /// The sprinting controller calls this every period to compute the
    /// power cap it may allocate through the breaker (the paper's rule:
    /// if the remaining trip time would fall under one minute, lower the
    /// overload bound until it equals one minute).
    ///
    /// # Panics
    ///
    /// Panics if `reserve` is not strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_breaker::{CircuitBreaker, TripCurve};
    /// use dcs_units::{Power, Seconds};
    /// let cb = CircuitBreaker::new("pdu", Power::from_kilowatts(10.0), TripCurve::default());
    /// let cap = cb.max_load_with_reserve(Seconds::new(60.0));
    /// // Cold breaker, 60s reserve: the 60%-overload point of the curve.
    /// assert!((cap.as_kilowatts() - 16.0).abs() < 1e-6);
    /// ```
    #[must_use]
    pub fn max_load_with_reserve(&self, reserve: Seconds) -> Power {
        assert!(reserve > Seconds::ZERO, "reserve must be positive");
        if self.tripped {
            return Power::ZERO;
        }
        let headroom = (1.0 - self.state).max(0.0);
        if headroom <= 0.0 {
            // No thermal budget left: only the no-trip region is safe.
            return self.no_trip_limit();
        }
        // Need (1 - state) * t(ov) >= reserve  =>  t(ov) >= reserve / headroom.
        let needed = reserve / headroom;
        let ratio = self.curve.max_ratio_for_trip_time(needed);
        self.effective_rated() * ratio.as_f64()
    }

    /// Applies `load` for `dt`, advancing the thermal state.
    ///
    /// Returns `Ok(None)` if the breaker stayed closed, or `Ok(Some(event))`
    /// if the accumulated overload opened it during the interval; the event
    /// reports how far into the interval the trip occurred. Once tripped the
    /// breaker carries no load until [`CircuitBreaker::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`BreakerError::AlreadyTripped`] if called on an open breaker.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn apply_load(
        &mut self,
        load: Power,
        dt: Seconds,
    ) -> Result<Option<TripEvent>, BreakerError> {
        assert!(
            dt > Seconds::ZERO && !dt.is_never(),
            "time step must be positive and finite"
        );
        if self.tripped {
            return Err(BreakerError::AlreadyTripped {
                name: self.name.clone(),
            });
        }
        let t = self.trip_time_memo(load);
        if t.is_never() {
            // Cooling: exponential decay of the thermal element.
            self.state *= self.cool_factor(dt);
            return Ok(None);
        }
        let rate = 1.0 / t.as_secs();
        let budget = 1.0 - self.state;
        let progress = rate * dt.as_secs();
        if progress >= budget {
            let after = Seconds::new(budget / rate);
            self.state = 1.0;
            self.tripped = true;
            return Ok(Some(TripEvent {
                name: self.name.clone(),
                ratio: self.load_ratio(load),
                after,
            }));
        }
        self.state += progress;
        Ok(None)
    }

    /// Returns `true` if `other` would respond identically to any applied
    /// load: same rating, trip curve, cool-down, derating, and thermal
    /// state. Names may differ — this is electrical/thermal equivalence,
    /// not identity.
    ///
    /// Uniform-load fast paths use this to advance one representative
    /// breaker and replicate the outcome across equivalent siblings.
    #[must_use]
    pub fn behaves_like(&self, other: &CircuitBreaker) -> bool {
        self.rated == other.rated
            && self.curve == other.curve
            && self.cooldown == other.cooldown
            && self.derating == other.derating
            && self.state == other.state
            && self.tripped == other.tripped
    }

    /// Copies the thermal state (trip progress and open/closed flag) from
    /// another breaker. The counterpart of [`CircuitBreaker::behaves_like`]:
    /// after a representative breaker takes a load step, its equivalent
    /// siblings adopt the resulting state without re-integrating it.
    pub fn sync_state_from(&mut self, other: &CircuitBreaker) {
        self.state = other.state;
        self.tripped = other.tripped;
    }

    /// Closes a tripped breaker again and clears its thermal state.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_breaker::{CircuitBreaker, TripCurve};
    /// use dcs_units::{Power, Seconds};
    /// let mut cb = CircuitBreaker::new("b", Power::from_watts(100.0), TripCurve::default());
    /// cb.apply_load(Power::from_watts(200.0), Seconds::from_minutes(30.0)).unwrap();
    /// assert!(cb.is_tripped());
    /// cb.reset();
    /// assert!(!cb.is_tripped());
    /// assert_eq!(cb.trip_progress(), 0.0);
    /// ```
    pub fn reset(&mut self) {
        self.tripped = false;
        self.state = 0.0;
    }
}

impl std::fmt::Display for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CB {} rated {} ({}{:.0}% progress)",
            self.name,
            self.rated,
            if self.tripped { "TRIPPED, " } else { "" },
            self.state * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb(rated_w: f64) -> CircuitBreaker {
        CircuitBreaker::new("t", Power::from_watts(rated_w), TripCurve::bulletin_1489())
    }

    #[test]
    fn constant_overload_trips_at_curve_time() {
        let mut b = cb(100.0);
        let load = Power::from_watts(160.0); // 60% overload: 60 s
        let mut elapsed = 0.0;
        loop {
            match b.apply_load(load, Seconds::new(1.0)).unwrap() {
                Some(ev) => {
                    elapsed += ev.after.as_secs();
                    break;
                }
                None => elapsed += 1.0,
            }
        }
        assert!((elapsed - 60.0).abs() < 1e-6, "tripped after {elapsed}s");
    }

    #[test]
    fn remaining_time_decreases_linearly() {
        let mut b = cb(100.0);
        let load = Power::from_watts(130.0); // 30% overload: 240 s
        b.apply_load(load, Seconds::new(120.0)).unwrap();
        assert!((b.remaining_time_at(load).as_secs() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_overloads_accumulate() {
        let mut b = cb(100.0);
        // Half of the budget at 60% overload (30 of 60 s)...
        b.apply_load(Power::from_watts(160.0), Seconds::new(30.0))
            .unwrap();
        // ...leaves half the budget at 30% overload (120 of 240 s).
        assert!((b.remaining_time_at(Power::from_watts(130.0)).as_secs() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_restores_headroom() {
        let mut b = cb(100.0);
        b.apply_load(Power::from_watts(160.0), Seconds::new(30.0))
            .unwrap();
        let before = b.trip_progress();
        // A long idle period at rated load cools the element.
        for _ in 0..600 {
            b.apply_load(Power::from_watts(90.0), Seconds::new(1.0))
                .unwrap();
        }
        assert!(b.trip_progress() < before * 0.2);
    }

    #[test]
    fn tripped_breaker_rejects_load() {
        let mut b = cb(100.0);
        let ev = b
            .apply_load(Power::from_watts(600.0), Seconds::new(1.0))
            .unwrap();
        assert!(ev.is_some());
        assert!(b.is_tripped());
        let err = b
            .apply_load(Power::from_watts(50.0), Seconds::new(1.0))
            .unwrap_err();
        assert!(matches!(err, BreakerError::AlreadyTripped { .. }));
    }

    #[test]
    fn trip_event_reports_partial_interval() {
        let mut b = cb(100.0);
        // 60% overload trips in 60 s; apply a 90 s step.
        let ev = b
            .apply_load(Power::from_watts(160.0), Seconds::new(90.0))
            .unwrap()
            .expect("must trip");
        assert!((ev.after.as_secs() - 60.0).abs() < 1e-9);
        assert!((ev.ratio.as_f64() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn max_load_with_reserve_respects_thermal_state() {
        let mut b = cb(100.0);
        let cold = b.max_load_with_reserve(Seconds::new(60.0));
        assert!((cold.as_watts() - 160.0).abs() < 1e-6);
        // Consume half the thermal budget; the same reserve now allows less.
        b.apply_load(Power::from_watts(160.0), Seconds::new(30.0))
            .unwrap();
        let warm = b.max_load_with_reserve(Seconds::new(60.0));
        assert!(warm < cold);
        // Holding that cap keeps the remaining time at >= the reserve.
        let rem = b.remaining_time_at(warm);
        assert!(rem >= Seconds::new(60.0 - 1e-6));
    }

    #[test]
    fn max_load_with_reserve_when_exhausted_is_pickup() {
        let mut b = cb(100.0);
        // Nearly exhaust the budget.
        b.apply_load(Power::from_watts(160.0), Seconds::new(59.9))
            .unwrap();
        let cap = b.max_load_with_reserve(Seconds::new(600.0));
        // Only a sliver above rated remains safe.
        assert!(cap.as_watts() <= 160.0);
        assert!(cap.as_watts() >= 100.0);
    }

    #[test]
    fn holding_the_reserve_cap_never_trips() {
        // Regression: a derated breaker whose normal load sits in the trip
        // region marches its thermal state toward exhaustion; once the
        // reserve cap clamps at the pickup boundary, holding that cap must
        // be *strictly* no-trip (the boundary-exact cap used to accrue a
        // finite 216 000 s trip time through float round-off and open the
        // breaker after the budget ran dry).
        let mut b = cb(100.0);
        b.set_derating(0.78);
        for _ in 0..20_000 {
            let cap = b.max_load_with_reserve(Seconds::new(60.0));
            let tripped = b.apply_load(cap, Seconds::new(1.0)).unwrap();
            assert!(tripped.is_none(), "tripped at state {}", b.trip_progress());
        }
        assert!(!b.is_tripped());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut b = cb(100.0);
        b.apply_load(Power::from_watts(600.0), Seconds::new(1.0))
            .unwrap();
        assert!(b.is_tripped());
        b.reset();
        assert!(!b.is_tripped());
        assert!((b.trip_time_at(Power::from_watts(160.0)).as_secs() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn derated_breaker_trips_as_if_rated_lower() {
        let mut b = cb(100.0);
        b.set_derating(0.625);
        // 100 W on a 62.5 W effective rating is the 60% overload point.
        let load = Power::from_watts(100.0);
        assert!((b.load_ratio(load).as_f64() - 1.6).abs() < 1e-12);
        assert!((b.trip_time_at(load).as_secs() - 60.0).abs() < 1e-9);
        let cap = b.max_load_with_reserve(Seconds::new(60.0));
        assert!((cap.as_watts() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn nominal_derating_is_identity() {
        let mut a = cb(100.0);
        let mut b = cb(100.0);
        b.set_derating(1.0);
        let load = Power::from_watts(130.0);
        a.apply_load(load, Seconds::new(30.0)).unwrap();
        b.apply_load(load, Seconds::new(30.0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.max_load_with_reserve(Seconds::new(60.0)),
            b.max_load_with_reserve(Seconds::new(60.0))
        );
    }

    #[test]
    #[should_panic(expected = "derating factor")]
    fn zero_derating_panics() {
        cb(100.0).set_derating(0.0);
    }

    #[test]
    fn behaves_like_ignores_name_but_not_state() {
        let mut a = CircuitBreaker::new("a", Power::from_watts(100.0), TripCurve::bulletin_1489());
        let mut b = CircuitBreaker::new("b", Power::from_watts(100.0), TripCurve::bulletin_1489());
        assert!(a.behaves_like(&b));
        let load = Power::from_watts(160.0);
        a.apply_load(load, Seconds::new(10.0)).unwrap();
        assert!(!a.behaves_like(&b));
        b.apply_load(load, Seconds::new(10.0)).unwrap();
        assert!(a.behaves_like(&b));
        b.set_derating(0.9);
        assert!(!a.behaves_like(&b));
    }

    #[test]
    fn sync_state_matches_independent_integration() {
        let mut a = cb(100.0);
        let mut b = cb(100.0);
        let load = Power::from_watts(160.0);
        a.apply_load(load, Seconds::new(25.0)).unwrap();
        b.sync_state_from(&a);
        assert!(b.behaves_like(&a));
        // From here the two evolve identically.
        let ea = a.apply_load(load, Seconds::new(60.0)).unwrap();
        let eb = b.apply_load(load, Seconds::new(60.0)).unwrap();
        assert_eq!(ea.map(|e| e.after), eb.map(|e| e.after));
        assert_eq!(a.trip_progress(), b.trip_progress());
        assert_eq!(a.is_tripped(), b.is_tripped());
    }

    #[test]
    fn display_mentions_trip() {
        let mut b = cb(100.0);
        assert!(!b.to_string().contains("TRIPPED"));
        b.apply_load(Power::from_watts(600.0), Seconds::new(1.0))
            .unwrap();
        assert!(b.to_string().contains("TRIPPED"));
    }

    #[test]
    fn error_display() {
        let e = BreakerError::AlreadyTripped { name: "x".into() };
        assert_eq!(e.to_string(), "breaker x has tripped and must be reset");
    }
}
