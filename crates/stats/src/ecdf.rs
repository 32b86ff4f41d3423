//! Empirical cumulative distribution function.
//!
//! Table IV's "percentage of sessions suitable for VCs" is an ECDF
//! evaluation: the fraction of sessions whose hypothetical duration
//! exceeds ten times the setup delay. [`Ecdf`] also backs the
//! workload checks that compare a synthetic marginal with a reference
//! sample ([`Ecdf::ks_distance`]).

/// An ECDF over a sample, supporting evaluation and comparison.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. Returns `None` when empty.
    pub fn new(data: &[f64]) -> Option<Ecdf> {
        if data.is_empty() {
            return None;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Ecdf { sorted })
    }

    /// F(x) = fraction of observations ≤ x.
    pub fn eval(&self, x: f64) -> f64 {
        self.count_le(x) as f64 / self.sorted.len() as f64
    }

    /// Number of observations ≤ x.
    pub fn count_le(&self, x: f64) -> usize {
        self.sorted.partition_point(|&v| v <= x)
    }

    /// Number of observations ≥ x — the Table IV numerator shape
    /// ("sessions that would have lasted longer than 10 min").
    #[cfg(test)]
    fn count_ge(&self, x: f64) -> usize {
        self.sorted.len() - self.sorted.partition_point(|&v| v < x)
    }

    /// Generalized inverse F⁻¹(p): the smallest observation `v` with
    /// F(v) ≥ p. `p` is clamped to (0, 1].
    #[cfg(test)]
    fn inverse(&self, p: f64) -> f64 {
        let p = p.clamp(f64::MIN_POSITIVE, 1.0);
        let k = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[k - 1]
    }

    /// Two-sample Kolmogorov–Smirnov distance `sup |F_a − F_b|` —
    /// used to validate that a synthetic marginal tracks a reference
    /// sample (the workload-calibration checks).
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(&other.sorted) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecdf() -> Ecdf {
        Ecdf::new(&[1.0, 2.0, 2.0, 3.0, 5.0]).unwrap()
    }

    #[test]
    fn empty_is_none() {
        assert!(Ecdf::new(&[]).is_none());
    }

    #[test]
    fn eval_steps() {
        let e = ecdf();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.2);
        assert_eq!(e.eval(2.0), 0.6);
        assert_eq!(e.eval(10.0), 1.0);
    }

    #[test]
    fn count_ge_includes_equal() {
        let e = ecdf();
        assert_eq!(e.count_ge(2.0), 4);
        assert_eq!(e.count_ge(5.1), 0);
        assert_eq!(e.count_ge(0.0), 5);
    }

    #[test]
    fn count_ge_and_count_lt_partition_the_sample() {
        let e = ecdf();
        let x = 2.0;
        assert_eq!(e.count_ge(x) + e.sorted.iter().filter(|&&v| v < x).count(), e.sorted.len());
    }

    #[test]
    fn inverse_hits_order_statistics() {
        let e = ecdf();
        assert_eq!(e.inverse(0.2), 1.0);
        assert_eq!(e.inverse(0.6), 2.0);
        assert_eq!(e.inverse(1.0), 5.0);
        // p below 1/n still returns the minimum
        assert_eq!(e.inverse(0.0), 1.0);
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.ks_distance(&a), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = Ecdf::new(&[1.0, 2.0]).unwrap();
        let b = Ecdf::new(&[10.0, 20.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 1.0);
        assert_eq!(b.ks_distance(&a), 1.0);
    }

    #[test]
    fn ks_distance_known_value() {
        // a = {1,2,3,4}, b = {3,4,5,6}: sup gap at x in [2,3) is
        // |0.5 - 0| = 0.5.
        let a = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Ecdf::new(&[3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 0.5);
    }

    #[test]
    fn inverse_then_eval_round_trips() {
        let e = ecdf();
        for p in [0.2, 0.4, 0.6, 0.8, 1.0] {
            assert!(e.eval(e.inverse(p)) >= p - 1e-12);
        }
    }
}
