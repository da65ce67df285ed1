//! Selective reliability: protect the outer iteration, let the inner
//! preconditioner run unchecked, and still never return a wrong answer.
//!
//! ```bash
//! cargo run --release --example selective_reliability
//! ```
//!
//! The one-stop [`SolveSpec`] builder attaches a preconditioner to a
//! protected solve and chooses its reliability tier: `Uniform` stores the
//! factors in SECDED-protected words (every read checked and corrected),
//! `Selective` stores plain `f64`s with **zero** integrity checks and
//! relies on the fully protected outer FT-PCG iteration — a bounded-norm
//! screen on each inner result plus the recurrence running entirely in
//! protected vectors — to own correctness.  Inner faults then cost
//! *iterations*, never *answers*.
//!
//! The demo runs the clean comparison first, then injects high-exponent
//! bit flips into the unreliable factors and into the protected factors,
//! and shows the two failure modes: the selective tier converges anyway
//! (a few extra iterations, possibly a screened fallback), the uniform
//! tier corrects the flips in place and repeats the clean trajectory.

use abft_suite::core::{AnyProtectedMatrix, FaultLog, ProtectionConfig, StorageTier};
use abft_suite::prelude::*;
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::solvers::{Ilu0, Reliability};
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::spmv::spmv_serial;

fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    spmv_serial(a, x, &mut ax);
    let resid: f64 = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (q - p) * (q - p))
        .sum::<f64>();
    let norm: f64 = b.iter().map(|v| v * v).sum::<f64>();
    (resid / norm).sqrt()
}

/// Runs the flexible inner-outer FT-PCG against a fully protected
/// operator with the given (possibly corrupted) preconditioner.
fn solve_with(
    protected: &AnyProtectedMatrix,
    rhs: &[f64],
    precond: &Ilu0,
    config: &SolverConfig,
) -> (Vec<f64>, SolveStatus, u64, u64) {
    let outcome = SolveSpec::cg()
        .config(*config)
        .solve_operator_preconditioned(
            &FullyProtected::new(protected),
            rhs,
            precond,
            &FaultLog::new(),
        )
        .expect("FT-PCG");
    let corrected: u64 = outcome.faults.corrected.iter().sum();
    let screened: u64 = outcome.faults.bounds_violations.iter().sum();
    (outcome.solution, outcome.status, corrected, screened)
}

fn main() {
    let matrix = poisson_2d_padded(48, 48);
    let rhs: Vec<f64> = (0..matrix.rows())
        .map(|i| 1.0 + (i % 7) as f64 * 0.25)
        .collect();
    let config = SolverConfig::new(2_000, 1e-15);
    println!(
        "system: {} unknowns, {} non-zeros\n",
        matrix.rows(),
        matrix.nnz()
    );

    // 1. The one-stop spec: same protected solve, three preconditioning
    //    choices.  Selective pays no integrity checks in the inner stage.
    for (label, spec) in [
        ("no preconditioner", SolveSpec::new(EccScheme::Secded64)),
        (
            "ilu0, uniform   ",
            SolveSpec::new(EccScheme::Secded64)
                .preconditioner(PrecondKind::Ilu0)
                .reliability(ReliabilityPolicy::Uniform),
        ),
        (
            "ilu0, selective ",
            SolveSpec::new(EccScheme::Secded64)
                .preconditioner(PrecondKind::Ilu0)
                .reliability(ReliabilityPolicy::Selective),
        ),
    ] {
        let outcome = spec.config(config).solve(&matrix, &rhs).expect(label);
        println!(
            "{label}: {:>4} iterations, converged = {}, rel. residual = {:.2e}",
            outcome.status.iterations,
            outcome.status.converged,
            relative_residual(&matrix, &outcome.solution, &rhs)
        );
    }

    // 2. Now corrupt the stored factors — persistent SDC in the inner
    //    stage, the case uniform reliability exists for.
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let protected =
        AnyProtectedMatrix::encode(&matrix, &protection, StorageTier::Csr).expect("encode");
    let flips: Vec<(usize, u32)> = (0..2).map(|i| (13 + i * 997, 52 + i as u32)).collect();

    let mut selective = Ilu0::new(
        &matrix,
        Reliability::Unreliable,
        EccScheme::Secded64,
        Crc32cBackend::Auto,
    )
    .expect("ilu0");
    let mut uniform = Ilu0::new(
        &matrix,
        Reliability::Protected,
        EccScheme::Secded64,
        Crc32cBackend::Auto,
    )
    .expect("ilu0");
    for &(k, bit) in &flips {
        selective.inject_factor_bit_flip(k % selective.factor_count(), bit);
        uniform.inject_factor_bit_flip(k % uniform.factor_count(), bit);
    }
    println!(
        "\ninjected {} high-exponent flips into each tier's stored factors",
        flips.len()
    );

    for (label, precond) in [("selective", &selective), ("uniform  ", &uniform)] {
        let (solution, status, corrected, screened) =
            solve_with(&protected, &rhs, precond, &config);
        println!(
            "{label}: {:>4} iterations, converged = {}, corrected = {corrected}, \
             screened = {screened}, rel. residual = {:.2e}",
            status.iterations,
            status.converged,
            relative_residual(&matrix, &solution, &rhs)
        );
    }
    println!(
        "\nselective: the corruption distorts the preconditioner, so the run \
         spends extra iterations\n(and the outer screen discards any inner \
         result whose norm blows past the bound) — but the\nprotected outer \
         recurrence certifies the answer.  uniform: every factor read is \
         checked, the\nflips are corrected in place, and the trajectory is \
         the clean one."
    );
}
