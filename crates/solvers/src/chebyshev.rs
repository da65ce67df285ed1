//! Chebyshev spectral bounds.
//!
//! TeaLeaf offers a Chebyshev solver that, once the extreme eigenvalues of
//! the (preconditioned) operator are known, iterates without any dot products
//! — attractive at scale because it removes the global reductions.  The
//! iteration itself lives in [`crate::generic::chebyshev`], written once
//! over the backend trait layer (so it also runs on protected matrices and
//! vectors); this module is the canonical home of the spectral-bound
//! estimation the iteration needs.

use abft_sparse::CsrMatrix;

/// Bounds on the spectrum of the operator, `0 < min ≤ λ ≤ max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChebyshevBounds {
    /// Lower bound on the smallest eigenvalue.
    pub min: f64,
    /// Upper bound on the largest eigenvalue.
    pub max: f64,
}

impl ChebyshevBounds {
    /// Creates explicit bounds.
    ///
    /// # Panics
    /// Panics unless `0 < min <= max`.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min > 0.0 && min <= max, "invalid Chebyshev bounds");
        ChebyshevBounds { min, max }
    }

    /// Estimates bounds with Gershgorin circles: for an SPD matrix every
    /// eigenvalue lies within `[min_i (a_ii − r_i), max_i (a_ii + r_i)]`
    /// where `r_i` is the off-diagonal absolute row sum.  The lower bound is
    /// clamped to a small positive value because Gershgorin may produce zero
    /// for Poisson-like operators.
    pub fn estimate_gershgorin(a: &CsrMatrix) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for row in 0..a.rows() {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in a.row_entries(row) {
                if c as usize == row {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            min = min.min(diag - off);
            max = max.max(diag + off);
        }
        ChebyshevBounds {
            min: min.max(1e-3 * max.max(1.0)),
            max: max.max(1e-30),
        }
    }

    /// Condition-number estimate `max / min`.
    pub fn condition(&self) -> f64 {
        self.max / self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Method, SolveSpec};
    use abft_sparse::builders::{poisson_2d, tridiagonal};

    #[test]
    fn bounds_validation_and_estimation() {
        let b = ChebyshevBounds::new(0.5, 8.0);
        assert_eq!(b.condition(), 16.0);
        let a = tridiagonal(20, 4.0, -1.0);
        let est = ChebyshevBounds::estimate_gershgorin(&a);
        // Gershgorin for this matrix: [2, 6].
        assert!(est.min <= 2.0 + 1e-12);
        assert!(est.max >= 6.0 - 1e-12);
        assert!(est.min > 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_panic() {
        ChebyshevBounds::new(0.0, 1.0);
    }

    #[test]
    fn chebyshev_reduces_the_residual() {
        let a = poisson_2d(6, 6);
        let b = vec![1.0; a.rows()];
        let bounds = ChebyshevBounds::estimate_gershgorin(&a);
        let outcome = SolveSpec::cg()
            .method(Method::Chebyshev)
            .max_iterations(400)
            .tolerance(1e-12)
            .bounds(bounds)
            .solve(&a, &b)
            .unwrap();
        let status = outcome.status;
        assert!(status.final_residual < status.initial_residual * 1e-3);
        // The iterate approaches the CG solution.
        let x_ref = SolveSpec::cg()
            .max_iterations(500)
            .tolerance(1e-20)
            .solve(&a, &b)
            .unwrap()
            .solution;
        let err: f64 = outcome
            .solution
            .iter()
            .zip(&x_ref)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = x_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / norm < 0.05, "relative error {}", err / norm);
    }

    #[test]
    fn tight_bounds_converge_faster_than_loose_ones() {
        let a = tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let solve = |bounds| {
            SolveSpec::cg()
                .method(Method::Chebyshev)
                .max_iterations(2000)
                .tolerance(1e-16)
                .bounds(bounds)
                .solve(&a, &b)
                .unwrap()
                .status
        };
        let tight = solve(ChebyshevBounds::new(2.0, 6.0));
        let loose = solve(ChebyshevBounds::new(0.1, 20.0));
        assert!(tight.converged);
        assert!(
            tight.iterations <= loose.iterations,
            "tight {} vs loose {}",
            tight.iterations,
            loose.iterations
        );
    }
}
