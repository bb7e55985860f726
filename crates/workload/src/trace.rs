//! Fixed-step demand traces.

use dcs_units::Seconds;
use serde::{Deserialize, Serialize};

/// A demand trace sampled at a fixed interval.
///
/// Samples are normalized demand (1.0 = the data center's peak normal
/// serving capacity) and must be finite and non-negative. Decoding goes
/// through [`Trace::new`], so a serialized trace that breaks these rules
/// is rejected where it enters, not mid-run. Lookups between
/// samples use zero-order hold; lookups past the end return the last
/// sample.
///
/// # Examples
///
/// ```
/// use dcs_workload::Trace;
/// use dcs_units::Seconds;
///
/// let t = Trace::new(Seconds::new(1.0), vec![0.5, 1.5, 2.5]).unwrap();
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.demand_at(Seconds::new(1.2)), 1.5);
/// assert_eq!(t.peak(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    step: Seconds,
    samples: Vec<f64>,
}

impl Deserialize for Trace {
    fn from_value(value: &serde::Value) -> Result<Trace, serde::DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", "Trace"))?;
        let step = serde::de::field(entries, "step", "Trace")?;
        let samples = serde::de::field(entries, "samples", "Trace")?;
        Trace::new(step, samples).map_err(|e| serde::DeError(format!("Trace: {e}")))
    }
}

/// Error returned when constructing an invalid trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceError {
    /// The sample list was empty.
    Empty,
    /// The step was not strictly positive and finite.
    BadStep,
    /// A sample was negative or not finite.
    BadSample {
        /// Index of the offending sample.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no samples"),
            TraceError::BadStep => write!(f, "trace step must be positive and finite"),
            TraceError::BadSample { index, value } => {
                write!(f, "sample {index} is invalid: {value}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Creates a trace from a step and samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the samples are empty, the step is not
    /// positive and finite, or any sample is negative or non-finite.
    pub fn new(step: Seconds, samples: Vec<f64>) -> Result<Trace, TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        if step <= Seconds::ZERO || step.is_never() {
            return Err(TraceError::BadStep);
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::BadSample { index, value });
            }
        }
        Ok(Trace { step, samples })
    }

    /// Returns the sampling interval.
    #[must_use]
    pub fn step(&self) -> Seconds {
        self.step
    }

    /// Returns the number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// A trace is never empty; this always returns `false` but is provided
    /// for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the total covered duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.step * self.samples.len() as f64
    }

    /// Returns the samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Returns the demand at an absolute time (zero-order hold; times past
    /// the end return the last sample).
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative.
    #[must_use]
    pub fn demand_at(&self, time: Seconds) -> f64 {
        assert!(time >= Seconds::ZERO, "time must be non-negative");
        // A small tolerance keeps `i * step` lookups from falling into the
        // previous bucket when the division rounds just below the integer.
        let idx = (time.as_secs() / self.step.as_secs() + 1e-9).floor() as usize;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// Returns the maximum demand.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Returns the mean demand.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Returns a copy with every sample multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Trace {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "factor must be non-negative"
        );
        Trace {
            step: self.step,
            samples: self.samples.iter().map(|s| s * factor).collect(),
        }
    }

    /// Returns a copy rescaled so its peak equals `target`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is all zeros or `target` is negative or not
    /// finite.
    #[must_use]
    pub fn normalized_to_peak(&self, target: f64) -> Trace {
        let peak = self.peak();
        assert!(peak > 0.0, "cannot normalize an all-zero trace");
        self.scaled(target / peak)
    }

    /// Returns the sub-trace covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or extends past the trace.
    #[must_use]
    pub fn window(&self, start: Seconds, end: Seconds) -> Trace {
        assert!(start >= Seconds::ZERO && end > start, "invalid window");
        let a = (start.as_secs() / self.step.as_secs()).floor() as usize;
        let b = (end.as_secs() / self.step.as_secs()).ceil() as usize;
        assert!(b <= self.samples.len(), "window extends past the trace");
        Trace {
            step: self.step,
            samples: self.samples[a..b].to_vec(),
        }
    }

    /// Returns an iterator of `(time, demand)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        let step = self.step;
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, &d)| (step * i as f64, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(Seconds::new(60.0), vec![0.5, 1.0, 2.0, 1.5, 0.5]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Trace::new(Seconds::new(1.0), vec![]),
            Err(TraceError::Empty)
        );
        assert_eq!(
            Trace::new(Seconds::ZERO, vec![1.0]),
            Err(TraceError::BadStep)
        );
        assert!(matches!(
            Trace::new(Seconds::new(1.0), vec![1.0, -0.5]),
            Err(TraceError::BadSample { index: 1, .. })
        ));
        assert!(matches!(
            Trace::new(Seconds::new(1.0), vec![f64::NAN]),
            Err(TraceError::BadSample { index: 0, .. })
        ));
    }

    /// A serialized trace with its step and samples replaced.
    fn encoded(step: f64, samples: &[f64]) -> serde::Value {
        serde::Value::Object(vec![
            ("step".into(), serde::Value::F64(step)),
            ("samples".into(), samples.to_vec().to_value()),
        ])
    }

    #[test]
    fn decoding_validates_like_construction() {
        assert_eq!(Trace::from_value(&trace().to_value()), Ok(trace()));
        for (step, samples, want) in [
            (60.0, vec![0.5, -5.0], "sample 1 is invalid: -5"),
            (60.0, vec![f64::NAN, 0.5], "sample 0 is invalid: NaN"),
            (0.0, vec![0.5], "step must be positive"),
        ] {
            let err = Trace::from_value(&encoded(step, &samples)).expect_err("invalid trace");
            assert!(err.0.contains(want), "{err}");
        }
    }

    #[test]
    fn lookup_uses_zero_order_hold() {
        let t = trace();
        assert_eq!(t.demand_at(Seconds::ZERO), 0.5);
        assert_eq!(t.demand_at(Seconds::new(59.9)), 0.5);
        assert_eq!(t.demand_at(Seconds::new(60.0)), 1.0);
        assert_eq!(t.demand_at(Seconds::new(125.0)), 2.0);
        // Past the end: last sample.
        assert_eq!(t.demand_at(Seconds::from_hours(5.0)), 0.5);
    }

    #[test]
    fn stats() {
        let t = trace();
        assert_eq!(t.peak(), 2.0);
        assert!((t.mean() - 1.1).abs() < 1e-12);
        assert_eq!(t.duration(), Seconds::from_minutes(5.0));
    }

    #[test]
    fn scaling_and_normalizing() {
        let t = trace().scaled(2.0);
        assert_eq!(t.peak(), 4.0);
        let n = t.normalized_to_peak(3.0);
        assert!((n.peak() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_extracts_sub_trace() {
        let t = trace();
        let w = t.window(Seconds::new(60.0), Seconds::new(180.0));
        assert_eq!(w.samples(), &[1.0, 2.0]);
    }

    #[test]
    fn iter_pairs_time_with_demand() {
        let t = trace();
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v[2], (Seconds::new(120.0), 2.0));
    }

    #[test]
    fn error_display() {
        assert_eq!(TraceError::Empty.to_string(), "trace has no samples");
    }
}
