//! Streaming statistics used by the benchmark harnesses.

use serde::{Deserialize, Serialize};

/// A streaming accumulator: count, mean, min, max and variance (Welford).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sample variance (n-1 denominator); 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_benign() {
        let a = Accumulator::new();
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
    }

    #[test]
    fn mean_min_max_sum() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 6.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 4.0);
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(6.0));
        assert_eq!(a.sum(), 12.0);
    }

    #[test]
    fn variance_matches_textbook() {
        let mut a = Accumulator::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            a.push(x);
        }
        // sample variance of 1..4 = 5/3
        assert!((a.variance() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut a = Accumulator::new();
        a.push(7.0);
        assert_eq!(a.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&Accumulator::new());
        assert_eq!(a.mean(), before);
        let mut empty = Accumulator::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), before);
    }
}
