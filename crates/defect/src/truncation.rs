//! Selection of the truncation point `M` and the associated error bound.
//!
//! The combinatorial method analyses only up to `M` lethal defects. The
//! resulting estimate `Y_M = Σ_{k ≤ M} Q'_k Y_k` underestimates the true
//! yield with an absolute error bounded by `1 − Σ_{k ≤ M} Q'_k`. Given an
//! error requirement `ε`, the paper selects
//!
//! ```text
//! M = min { m : Σ_{k=0}^m Q'_k >= 1 − ε }.
//! ```

use crate::distribution::DefectDistribution;
use crate::error::DefectError;

/// Default hard cap on the truncation search. The method's cost grows
/// quickly with `M`, so values anywhere near this cap are impractical
/// anyway; the cap only guards against non-terminating searches when the
/// requested `ε` is unattainably small.
pub const DEFAULT_MAX_TRUNCATION: usize = 4096;

/// The truncation point `M`, the lethal-defect masses `Q'_0..Q'_M`, and the
/// guaranteed absolute error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Truncation {
    truncation: usize,
    masses: Vec<f64>,
    error_bound: f64,
}

impl Truncation {
    /// The truncation point `M`.
    pub fn truncation(&self) -> usize {
        self.truncation
    }

    /// The lethal-defect probability masses `Q'_0 .. Q'_M`
    /// (length `M + 1`).
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// The guaranteed absolute error bound `1 − Σ_{k ≤ M} Q'_k` on the
    /// yield estimate (also the probability assigned to the "more than `M`
    /// lethal defects" value of the random variable `W`).
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Probability vector of the clamped defect-count variable `W` used by
    /// the combinatorial method: `P(W = k) = Q'_k` for `k ≤ M` and
    /// `P(W = M + 1) = 1 − Σ_{k ≤ M} Q'_k` (length `M + 2`).
    pub fn w_distribution(&self) -> Vec<f64> {
        let mut v = self.masses.clone();
        v.push(self.error_bound);
        v
    }
}

/// Selects the truncation point for `lethal` (the **lethal**-defect count
/// distribution `Q'`) under the error requirement `epsilon`, searching up
/// to [`DEFAULT_MAX_TRUNCATION`].
///
/// # Errors
///
/// Returns [`DefectError::TruncationNotReached`] if even
/// [`DEFAULT_MAX_TRUNCATION`] lethal defects do not accumulate mass
/// `1 − ε`, and [`DefectError::InvalidEpsilon`] if `epsilon` is not in
/// `(0, 1)`.
pub fn select_truncation<D: DefectDistribution + ?Sized>(
    lethal: &D,
    epsilon: f64,
) -> Result<Truncation, DefectError> {
    select_truncation_capped(lethal, epsilon, DEFAULT_MAX_TRUNCATION)
}

/// Same as [`select_truncation`] but with an explicit search cap.
///
/// # Errors
///
/// See [`select_truncation`].
pub fn select_truncation_capped<D: DefectDistribution + ?Sized>(
    lethal: &D,
    epsilon: f64,
    max_truncation: usize,
) -> Result<Truncation, DefectError> {
    if !(epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0) {
        return Err(DefectError::InvalidEpsilon { value: epsilon });
    }
    let mut masses = Vec::new();
    let mut acc = 0.0;
    for m in 0..=max_truncation {
        let q = lethal.pmf(m);
        masses.push(q);
        acc += q;
        if acc >= 1.0 - epsilon {
            return Ok(Truncation { truncation: m, masses, error_bound: (1.0 - acc).max(0.0) });
        }
    }
    Err(DefectError::TruncationNotReached {
        epsilon,
        max_defects: max_truncation,
        accumulated: acc,
    })
}

/// Builds a [`Truncation`] at a *fixed*, user-chosen `M` (no error target),
/// reporting whatever error bound results. Useful for reproducing paper
/// rows at their published truncation points and for ablation studies.
///
/// # Errors
///
/// This function does not fail for valid distributions; the `Result` is
/// kept for signature uniformity with [`select_truncation`].
pub fn truncate_at<D: DefectDistribution + ?Sized>(
    lethal: &D,
    truncation: usize,
) -> Result<Truncation, DefectError> {
    let masses: Vec<f64> = (0..=truncation).map(|k| lethal.pmf(k)).collect();
    let acc: f64 = masses.iter().sum();
    Ok(Truncation { truncation, masses, error_bound: (1.0 - acc).max(0.0) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{Empirical, NegativeBinomial, Poisson};

    #[test]
    fn truncation_meets_error_requirement() {
        let d = NegativeBinomial::new(1.0, 0.25).unwrap();
        let t = select_truncation(&d, 1e-4).unwrap();
        assert!(t.error_bound() <= 1e-4);
        assert_eq!(t.masses().len(), t.truncation() + 1);
        // Minimality: one fewer term violates the requirement.
        let cum: f64 = t.masses()[..t.truncation()].iter().sum();
        assert!(1.0 - cum > 1e-4);
    }

    #[test]
    fn truncation_grows_with_lambda() {
        let d1 = NegativeBinomial::new(1.0, 0.25).unwrap();
        let d2 = NegativeBinomial::new(2.0, 0.25).unwrap();
        let t1 = select_truncation(&d1, 1e-4).unwrap();
        let t2 = select_truncation(&d2, 1e-4).unwrap();
        assert!(t2.truncation() > t1.truncation());
    }

    #[test]
    fn truncation_grows_as_epsilon_shrinks() {
        let d = Poisson::new(1.0).unwrap();
        let loose = select_truncation(&d, 1e-2).unwrap();
        let tight = select_truncation(&d, 1e-8).unwrap();
        assert!(tight.truncation() > loose.truncation());
    }

    #[test]
    fn w_distribution_sums_to_one() {
        let d = NegativeBinomial::new(2.0, 0.25).unwrap();
        let t = select_truncation(&d, 1e-3).unwrap();
        let total: f64 = t.w_distribution().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(t.w_distribution().len(), t.truncation() + 2);
    }

    #[test]
    fn invalid_epsilon() {
        let d = Poisson::new(1.0).unwrap();
        for epsilon in [0.0, 1.0, f64::NAN] {
            let err = select_truncation(&d, epsilon).unwrap_err();
            assert!(
                matches!(err, DefectError::InvalidEpsilon { value } if value.to_bits() == epsilon.to_bits()),
                "ε = {epsilon}: {err:?}"
            );
            let message = err.to_string();
            assert!(message.contains("epsilon"), "{message}");
            assert!(message.contains("open interval (0, 1)"), "{message}");
            assert!(!message.contains("[0, 1]"), "{message}");
        }
        assert_eq!(
            select_truncation(&d, 0.0).unwrap_err().to_string(),
            "error requirement `epsilon` must lie in the open interval (0, 1), got 0"
        );
    }

    #[test]
    fn cap_is_respected() {
        let d = Poisson::new(50.0).unwrap();
        assert!(select_truncation_capped(&d, 1e-6, 3).is_err());
    }

    #[test]
    fn point_mass_truncation() {
        let d = Empirical::point_mass(4);
        let t = select_truncation(&d, 1e-9).unwrap();
        assert_eq!(t.truncation(), 4);
        assert_eq!(t.error_bound(), 0.0);
    }

    /// Independent scan for `min{m : Σ_{k≤m} Q'_k ≥ 1 − ε}`, the paper's
    /// definition of the truncation point.
    fn minimal_truncation<D: DefectDistribution>(d: &D, epsilon: f64) -> usize {
        let mut acc = 0.0;
        for m in 0..DEFAULT_MAX_TRUNCATION {
            acc += d.pmf(m);
            if acc >= 1.0 - epsilon {
                return m;
            }
        }
        panic!("mass 1 - ε not reached within the default cap");
    }

    #[test]
    fn poisson_truncation_matches_definition() {
        for &lambda in &[0.3, 1.0, 2.5] {
            for &epsilon in &[1e-2, 1e-4, 1e-6] {
                let d = Poisson::new(lambda).unwrap();
                let t = select_truncation(&d, epsilon).unwrap();
                assert_eq!(
                    t.truncation(),
                    minimal_truncation(&d, epsilon),
                    "λ={lambda} ε={epsilon}"
                );
                for (k, &q) in t.masses().iter().enumerate() {
                    assert!((q - d.pmf(k)).abs() < 1e-15, "mass Q'_{k} differs from the pmf");
                }
                let acc: f64 = t.masses().iter().sum();
                assert!((t.error_bound() - (1.0 - acc).max(0.0)).abs() < 1e-12);
                assert!(t.error_bound() <= epsilon);
            }
        }
    }

    #[test]
    fn negative_binomial_truncation_matches_definition() {
        for &(lambda, alpha) in &[(0.5, 0.25), (1.0, 4.0), (2.0, 1.0)] {
            for &epsilon in &[1e-2, 1e-4, 1e-6] {
                let d = NegativeBinomial::new(lambda, alpha).unwrap();
                let t = select_truncation(&d, epsilon).unwrap();
                assert_eq!(
                    t.truncation(),
                    minimal_truncation(&d, epsilon),
                    "λ={lambda} α={alpha} ε={epsilon}"
                );
                for (k, &q) in t.masses().iter().enumerate() {
                    assert!((q - d.pmf(k)).abs() < 1e-15, "mass Q'_{k} differs from the pmf");
                }
                assert!(t.error_bound() <= epsilon);
            }
        }
    }

    #[test]
    fn reproduces_paper_truncation_points() {
        // Table 4 uses α = 4 and ε = 1e-3 and reports M = 6 for λ' = 1 and
        // M = 10 for λ' = 2.
        let t1 = select_truncation(&NegativeBinomial::new(1.0, 4.0).unwrap(), 1e-3).unwrap();
        assert_eq!(t1.truncation(), 6);
        let t2 = select_truncation(&NegativeBinomial::new(2.0, 4.0).unwrap(), 1e-3).unwrap();
        assert_eq!(t2.truncation(), 10);
    }

    #[test]
    fn fixed_truncation() {
        let d = Poisson::new(1.0).unwrap();
        let t = truncate_at(&d, 2).unwrap();
        assert_eq!(t.truncation(), 2);
        assert!((t.error_bound() - (1.0 - d.cdf(2))).abs() < 1e-12);
    }
}
