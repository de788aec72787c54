//! Statistics accumulators used across the workspace.
//!
//! [`Accumulator`] tracks scalar samples (count/mean/std-dev/min/max).

use std::fmt;

use crate::time::SimDuration;

/// Online accumulator for scalar samples.
///
/// # Examples
///
/// ```
/// use des::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for v in [1.0, 2.0, 3.0] {
///     acc.record(v);
/// }
/// assert_eq!(acc.count(), 3);
/// assert_eq!(acc.mean(), 2.0);
/// assert_eq!(acc.min(), Some(1.0));
/// assert_eq!(acc.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Records a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance, or 0.0 when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min.unwrap_or(f64::NAN),
            self.max.unwrap_or(f64::NAN)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_moments() {
        let mut a = Accumulator::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(v);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn accumulator_merge_matches_combined() {
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        let mut all = Accumulator::new();
        for i in 0..10 {
            let v = i as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.min(), None);
    }
}
