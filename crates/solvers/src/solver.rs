//! [`SolveSpec`] — the one front door of the solver crate.
//!
//! A solve is configured in one fluent builder: the [`Method`], the
//! stopping criteria, one [`ProtectionConfig`] (scheme, matrix-only or
//! full, parity, check cadence, CRC backend, parallel kernels), the
//! protected storage tier, and the optional preconditioner with its
//! [`ReliabilityPolicy`]:
//!
//! ```
//! use abft_core::{EccScheme, StorageTier};
//! use abft_solvers::{PrecondKind, ReliabilityPolicy, SolveSpec};
//! use abft_sparse::builders::poisson_2d_padded;
//!
//! let a = poisson_2d_padded(16, 16);
//! let b = vec![1.0; a.rows()];
//! let outcome = SolveSpec::new(EccScheme::Secded64)
//!     .storage(StorageTier::Csr)
//!     .parity(8)
//!     .preconditioner(PrecondKind::Ilu0)
//!     .reliability(ReliabilityPolicy::Selective)
//!     .tolerance(1e-16)
//!     .solve(&a, &b)
//!     .unwrap();
//! assert!(outcome.status.converged);
//! assert_eq!(outcome.faults.total_uncorrectable(), 0);
//! ```
//!
//! [`SolveSpec::solve`] validates the inputs, encodes the matrix into the
//! backend the configuration describes — [`Plain`] when nothing is
//! protected, [`MatrixProtected`] when only the matrix is, and
//! [`FullyProtected`] when the work vectors are protected too — and runs
//! the method through [`crate::generic`], or the flexible inner-outer
//! [`generic::ft_pcg`] when a preconditioner is attached.
//! [`SolveSpec::solve_operator`] is the advanced path for callers that
//! already hold a backend (e.g. the fault-injection campaigns, which
//! corrupt a [`abft_core::ProtectedCsr`] before solving on it).

use crate::backend::{FaultContext, LinearOperator, SolverError};
use crate::backends::{FullyProtected, MatrixProtected, Plain};
use crate::chebyshev::ChebyshevBounds;
use crate::generic;
use crate::precond::{PrecondKind, Preconditioner, ReliabilityPolicy};
use crate::status::{SolveStatus, SolverConfig};
use abft_core::{
    AnyProtectedMatrix, EccScheme, FaultLog, FaultLogSnapshot, ParityConfig, ProtectionConfig,
    StorageTier,
};
use abft_ecc::Crc32cBackend;
use abft_sparse::CsrMatrix;

/// The iterative method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Conjugate Gradient (the paper's solver).
    #[default]
    Cg,
    /// Jacobi relaxation.
    Jacobi,
    /// Chebyshev iteration with spectral bounds.
    Chebyshev,
    /// Polynomially preconditioned CG.
    Ppcg,
}

/// Result of a [`SolveSpec`] run: the decoded solution, convergence
/// information, and a snapshot of the integrity-check activity.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The solution vector, decoded to plain values.
    pub solution: Vec<f64>,
    /// Convergence information.
    pub status: SolveStatus,
    /// Integrity-check activity during the solve.
    pub faults: FaultLogSnapshot,
}

/// The earlier name of [`SolveSpec`]; `Solver::cg()` is the unprotected,
/// serial CG baseline.
pub type Solver = SolveSpec;

/// One fluent builder covering method, stopping criteria, protection,
/// storage tier and the preconditioner/reliability pair — see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveSpec {
    method: Method,
    config: SolverConfig,
    protection: ProtectionConfig,
    storage: StorageTier,
    bounds: Option<ChebyshevBounds>,
    inner_steps: usize,
    precond: Option<PrecondKind>,
    reliability: ReliabilityPolicy,
}

impl SolveSpec {
    /// Starts a CG spec protecting matrix **and** vectors with `scheme`
    /// ([`EccScheme::None`] gives the unprotected baseline).
    pub fn new(scheme: EccScheme) -> Self {
        SolveSpec {
            method: Method::Cg,
            config: SolverConfig::default(),
            protection: ProtectionConfig::full(scheme),
            storage: StorageTier::Csr,
            bounds: None,
            inner_steps: 4,
            precond: None,
            reliability: ReliabilityPolicy::Uniform,
        }
    }

    /// The unprotected, serial CG baseline.
    pub fn cg() -> Self {
        SolveSpec::new(EccScheme::None)
    }

    /// Selects the iterative method (CG by default).
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Replaces the whole protection configuration.  Nothing protected
    /// runs the plain baseline, a protected matrix with unprotected vectors
    /// runs the matrix-protected tier, and protected vectors run the fully
    /// protected tier.
    pub fn protection(mut self, protection: ProtectionConfig) -> Self {
        self.protection = protection;
        self
    }

    /// Protects only the matrix regions, leaving work vectors plain
    /// (the Figures 4–8 tier).  Drops any parity tier, which needs
    /// protected vectors.
    pub fn matrix_only(mut self) -> Self {
        self.protection.vectors = EccScheme::None;
        self.protection.parity = None;
        self
    }

    /// Selects the protected storage tier the matrix is encoded into
    /// (CSR by default; ignored by unprotected solves).
    pub fn storage(mut self, storage: StorageTier) -> Self {
        self.storage = storage;
        self
    }

    /// Layers the XOR erasure tier over the vector ECC with `stripes`
    /// data chunks per parity stripe (chunk size stays at the kernels'
    /// natural accumulation block).  See [`SolveSpec::parity_config`].
    pub fn parity(self, stripes: usize) -> Self {
        self.parity_config(ParityConfig {
            stripe_chunks: stripes,
            ..ParityConfig::default()
        })
    }

    /// Layers the XOR erasure tier with a fully explicit layout.  Ignored
    /// when the spec protects no vectors — parity without embedded ECC
    /// would have nothing to re-verify a rebuilt chunk with.
    ///
    /// # Panics
    /// Panics on an invalid layout, as [`ProtectionConfig::with_parity`].
    pub fn parity_config(mut self, parity: ParityConfig) -> Self {
        if self.protection.vectors != EccScheme::None {
            self.protection = self.protection.with_parity(parity);
        }
        self
    }

    /// Full integrity checks every `interval` matrix accesses, bounds-only
    /// checks in between (§VI-A-2; default 1 = always).
    pub fn check_interval(mut self, interval: u32) -> Self {
        self.protection = self.protection.with_check_interval(interval);
        self
    }

    /// Selects the CRC32C backend.
    pub fn crc_backend(mut self, backend: Crc32cBackend) -> Self {
        self.protection.crc_backend = backend;
        self
    }

    /// Uses the parallel kernels (plain and protected alike).
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.protection.parallel = parallel;
        self
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Sets the tolerance on the absolute squared residual norm.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.config.tolerance = tolerance;
        self
    }

    /// Replaces both stopping criteria at once.
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Supplies explicit spectral bounds for Chebyshev/PPCG; when omitted,
    /// Gershgorin bounds are estimated from the matrix.
    pub fn bounds(mut self, bounds: ChebyshevBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Inner Chebyshev smoothing steps per PPCG iteration (default 4).
    pub fn inner_steps(mut self, inner_steps: usize) -> Self {
        self.inner_steps = inner_steps;
        self
    }

    /// Attaches a preconditioner: the solve becomes the flexible
    /// inner-outer FT-PCG of [`generic::ft_pcg`] (requires the CG method
    /// and a matrix to factor, so only [`SolveSpec::solve`] runs it).
    pub fn preconditioner(mut self, kind: PrecondKind) -> Self {
        self.precond = Some(kind);
        self
    }

    /// Chooses whether the inner preconditioner apply is protected like
    /// everything else ([`ReliabilityPolicy::Uniform`]) or deliberately
    /// unreliable and norm-screened ([`ReliabilityPolicy::Selective`]).
    pub fn reliability(mut self, reliability: ReliabilityPolicy) -> Self {
        self.reliability = reliability;
        self
    }

    /// Solves `A x = b` under this spec.
    pub fn solve(&self, a: &CsrMatrix, b: &[f64]) -> Result<SolveOutcome, SolverError> {
        self.solve_logged(a, b, &FaultLog::new())
    }

    /// Like [`SolveSpec::solve`], but records integrity-check activity live
    /// into a caller-supplied log, so observations made before an aborting
    /// fault survive on the error path.
    pub fn solve_logged(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        log: &FaultLog,
    ) -> Result<SolveOutcome, SolverError> {
        self.check_inputs(a.rows(), b, self.precond.is_some())?;
        let cfg = &self.protection;
        let precond = match self.precond {
            Some(kind) => {
                Some(kind.build(a, self.reliability.tier(), cfg.elements, cfg.crc_backend)?)
            }
            None => None,
        };
        // Estimate Chebyshev bounds from the plain matrix up front: cheaper
        // and exact, where the protected backends would have to decode.
        let mut spec = *self;
        if spec.bounds.is_none() && matches!(self.method, Method::Chebyshev | Method::Ppcg) {
            spec.bounds = Some(ChebyshevBounds::estimate_gershgorin(a));
        }
        let precond = precond.as_deref();
        let ctx = FaultContext::with_log(log);
        if cfg.is_unprotected() {
            return spec.run(&Plain::new(a, cfg.parallel), b, precond, &ctx);
        }
        let protected = AnyProtectedMatrix::encode(a, cfg, self.storage)?;
        if cfg.vectors == EccScheme::None {
            spec.run(&MatrixProtected::new(&protected), b, precond, &ctx)
        } else {
            spec.run(&FullyProtected::new(&protected), b, precond, &ctx)
        }
    }

    /// Solves on an existing backend operator — the advanced path for
    /// callers that built (or deliberately corrupted) the protected matrix
    /// themselves.  The operator fixes the protection; the spec's
    /// protection configuration and storage tier are not consulted.
    pub fn solve_operator<Op: LinearOperator>(
        &self,
        op: &Op,
        b: &[f64],
    ) -> Result<SolveOutcome, SolverError> {
        self.solve_operator_logged(op, b, &FaultLog::new())
    }

    /// Like [`SolveSpec::solve_operator`], but records integrity-check
    /// activity live into a caller-supplied log, so observations made
    /// before an aborting fault survive on the error path.
    pub fn solve_operator_logged<Op: LinearOperator>(
        &self,
        op: &Op,
        b: &[f64],
        log: &FaultLog,
    ) -> Result<SolveOutcome, SolverError> {
        self.check_inputs(op.rows(), b, false)?;
        if self.precond.is_some() {
            return Err(SolverError::Unsupported(
                "a preconditioner is factored from the assembled matrix: use solve".into(),
            ));
        }
        self.run(op, b, None, &FaultContext::with_log(log))
    }

    /// FT-PCG on an existing backend with a preconditioner the caller built
    /// (or deliberately corrupted) — the operator-path form of
    /// [`SolveSpec::preconditioner`], recording live into `log` like
    /// [`SolveSpec::solve_operator_logged`].
    pub fn solve_operator_preconditioned<Op: LinearOperator>(
        &self,
        op: &Op,
        b: &[f64],
        precond: &dyn Preconditioner,
        log: &FaultLog,
    ) -> Result<SolveOutcome, SolverError> {
        self.check_inputs(op.rows(), b, true)?;
        if precond.rows() != op.rows() {
            return Err(SolverError::InvalidInput(format!(
                "preconditioner has {} rows but the matrix has {}",
                precond.rows(),
                op.rows()
            )));
        }
        self.run(op, b, Some(precond), &FaultContext::with_log(log))
    }

    /// Rejects a solve that cannot succeed, before any encode: an
    /// unsupported method/preconditioner pair, a right-hand side of the
    /// wrong length or with a non-finite entry, or PPCG without inner
    /// steps.
    fn check_inputs(
        &self,
        rows: usize,
        b: &[f64],
        preconditioned: bool,
    ) -> Result<(), SolverError> {
        if preconditioned && self.method != Method::Cg {
            return Err(SolverError::Unsupported(
                "preconditioned solves run FT-PCG and need Method::Cg".into(),
            ));
        }
        if b.len() != rows {
            return Err(SolverError::InvalidInput(format!(
                "right-hand side has {} entries but the matrix has {rows} rows",
                b.len()
            )));
        }
        if let Some(i) = b.iter().position(|v| !v.is_finite()) {
            return Err(SolverError::InvalidInput(format!(
                "right-hand side entry {i} is {}",
                b[i]
            )));
        }
        if self.method == Method::Ppcg && self.inner_steps == 0 {
            return Err(SolverError::InvalidInput(
                "PPCG needs at least one inner step".into(),
            ));
        }
        Ok(())
    }

    /// Runs the method (or FT-PCG, with a preconditioner) on `op` and
    /// decodes the solution.
    fn run<Op: LinearOperator>(
        &self,
        op: &Op,
        b: &[f64],
        precond: Option<&dyn Preconditioner>,
        ctx: &FaultContext<'_>,
    ) -> Result<SolveOutcome, SolverError> {
        // Scope the context to this operator: protected backends expose
        // their reduction workspace so the parallel BLAS-1 kernels reuse
        // its preallocated partial slots across every iteration.
        let ctx = &ctx.scoped_to(op.reduction_workspace());
        let bvec = op.vector_from(b);
        let config = &self.config;
        let (mut x, status) = match (precond, self.method) {
            (Some(precond), _) => generic::ft_pcg(op, &bvec, precond, config, ctx)?,
            (None, Method::Cg) => generic::cg(op, &bvec, config, ctx)?,
            (None, Method::Jacobi) => generic::jacobi(op, &bvec, config, ctx)?,
            (None, Method::Chebyshev) => {
                generic::chebyshev(op, &bvec, self.bounds_for(op)?, config, ctx)?
            }
            (None, Method::Ppcg) => {
                let bounds = self.bounds_for(op)?;
                generic::ppcg(op, &bvec, bounds, self.inner_steps, config, ctx)?
            }
        };
        let solution = op.finish(&mut x, ctx)?;
        Ok(SolveOutcome {
            solution,
            status,
            faults: ctx.snapshot(),
        })
    }

    fn bounds_for<Op: LinearOperator>(&self, op: &Op) -> Result<ChebyshevBounds, SolverError> {
        self.bounds.or_else(|| op.bounds_hint()).ok_or_else(|| {
            SolverError::Unsupported(
                "Chebyshev-type solvers need spectral bounds and the backend cannot estimate them"
                    .into(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_core::ProtectedCsr;
    use abft_sparse::builders::poisson_2d_padded;
    use abft_sparse::spmv::spmv_serial;

    fn system() -> (CsrMatrix, Vec<f64>) {
        let a = poisson_2d_padded(9, 8);
        let b = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        (a, b)
    }

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; a.rows()];
        spmv_serial(a, x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(axi, bi)| (axi - bi) * (axi - bi))
            .sum::<f64>()
            .sqrt()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Solution bits, iterations and fault snapshot of one solve.
    type Trace = (Vec<u64>, usize, FaultLogSnapshot);

    /// Calls the generic solver for `method` (or `ft_pcg`, with a
    /// preconditioner) directly on a hand-built backend.
    fn direct<Op: LinearOperator>(
        op: &Op,
        method: Method,
        bounds: ChebyshevBounds,
        precond: Option<&dyn Preconditioner>,
        config: &SolverConfig,
        b: &[f64],
    ) -> Trace {
        let base = FaultContext::new();
        let ctx = base.scoped_to(op.reduction_workspace());
        let bvec = op.vector_from(b);
        let (mut x, status) = match (precond, method) {
            (Some(precond), _) => generic::ft_pcg(op, &bvec, precond, config, &ctx),
            (None, Method::Cg) => generic::cg(op, &bvec, config, &ctx),
            (None, Method::Jacobi) => generic::jacobi(op, &bvec, config, &ctx),
            (None, Method::Chebyshev) => generic::chebyshev(op, &bvec, bounds, config, &ctx),
            (None, Method::Ppcg) => generic::ppcg(op, &bvec, bounds, 4, config, &ctx),
        }
        .unwrap();
        let solution = op.finish(&mut x, &ctx).unwrap();
        (bits(&solution), status.iterations, ctx.snapshot())
    }

    /// The acceptance matrix of the front door: every method × every
    /// protection tier × every storage tier (plus ILU(0) FT-PCG under both
    /// reliability policies) solves through `SolveSpec::solve`, bit for bit
    /// as a direct `generic` call on the hand-built backend.
    #[test]
    fn every_method_runs_in_every_protection_mode() {
        let (a, b) = system();
        let bounds = ChebyshevBounds::estimate_gershgorin(&a);
        let runs = [
            (Method::Cg, None, 500, 1e-18),
            (Method::Cg, Some(ReliabilityPolicy::Selective), 500, 1e-18),
            (Method::Cg, Some(ReliabilityPolicy::Uniform), 500, 1e-18),
            (Method::Jacobi, None, 20_000, 1e-16),
            (Method::Chebyshev, None, 3000, 1e-14),
            (Method::Ppcg, None, 500, 1e-18),
        ];
        let secded = SolveSpec::new(EccScheme::Secded64).crc_backend(Crc32cBackend::SlicingBy16);
        let specs = [
            ("plain", SolveSpec::cg()),
            ("matrix", secded.matrix_only()),
            ("full", secded),
        ];
        let tiers = [
            StorageTier::Csr,
            StorageTier::Coo,
            StorageTier::BlockedCsr(3),
        ];
        for (method, policy, max_iterations, tolerance) in runs {
            let config = SolverConfig::new(max_iterations, tolerance);
            let mut plain_bits = None;
            for (label, spec) in specs {
                for tier in tiers {
                    let mut spec = spec.method(method).config(config).storage(tier);
                    if let Some(policy) = policy {
                        spec = spec.preconditioner(PrecondKind::Ilu0).reliability(policy);
                    }
                    let what = format!("{method:?}/{policy:?}/{label}/{tier:?}");
                    let outcome = spec.solve(&a, &b).unwrap_or_else(|e| panic!("{what}: {e}"));
                    let tol = if method == Method::Chebyshev {
                        1e-3
                    } else {
                        1e-6
                    };
                    assert!(residual_norm(&a, &outcome.solution, &b) < tol, "{what}");
                    assert_eq!(outcome.faults.total_uncorrectable(), 0, "{what}");

                    let cfg = spec.protection;
                    let precond = policy.map(|p| {
                        PrecondKind::Ilu0
                            .build(&a, p.tier(), cfg.elements, cfg.crc_backend)
                            .unwrap()
                    });
                    let precond = precond.as_deref();
                    let expected = if label == "plain" {
                        direct(&Plain::new(&a, false), method, bounds, precond, &config, &b)
                    } else {
                        let encoded = AnyProtectedMatrix::encode(&a, &cfg, tier).unwrap();
                        if label == "matrix" {
                            let op = MatrixProtected::new(&encoded);
                            direct(&op, method, bounds, precond, &config, &b)
                        } else {
                            let op = FullyProtected::new(&encoded);
                            direct(&op, method, bounds, precond, &config, &b)
                        }
                    };
                    let got = (
                        bits(&outcome.solution),
                        outcome.status.iterations,
                        outcome.faults,
                    );
                    assert_eq!(got, expected, "{what}");
                    // Matrix protection never perturbs values, so the
                    // trajectory is bit-identical to the baseline (a
                    // uniform preconditioner masks its factors, so it is
                    // left out).
                    match label {
                        "plain" => plain_bits = Some(got.0),
                        "matrix" if policy != Some(ReliabilityPolicy::Uniform) => {
                            assert_eq!(Some(got.0), plain_bits, "{what}")
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn builder_knobs_are_recorded() {
        let spec = SolveSpec::cg()
            .method(Method::Ppcg)
            .max_iterations(7)
            .tolerance(1e-3)
            .parallel(true)
            .inner_steps(9)
            .bounds(ChebyshevBounds::new(1.0, 2.0));
        assert_eq!(spec.method, Method::Ppcg);
        assert_eq!(spec.config.max_iterations, 7);
        assert_eq!(spec.config.tolerance, 1e-3);
        assert!(spec.protection.parallel);
        assert_eq!(spec.inner_steps, 9);
        assert_eq!(spec.bounds, Some(ChebyshevBounds::new(1.0, 2.0)));
        assert_eq!(Solver::cg().method, Method::Cg);
        assert!(!Solver::cg().protection.parallel);
        assert!(Solver::cg().protection.is_unprotected());
        assert_eq!(Solver::cg().method(Method::Jacobi).method, Method::Jacobi);
        assert_eq!(
            Solver::cg().method(Method::Chebyshev).method,
            Method::Chebyshev
        );
    }

    #[test]
    fn spec_mode_derivation_covers_the_matrix() {
        assert!(SolveSpec::cg().protection.is_unprotected());
        let full = SolveSpec::new(EccScheme::Secded64).parity(4).protection;
        assert_eq!(full.vectors, EccScheme::Secded64);
        assert_eq!(full.parity.unwrap().stripe_chunks, 4);
        // Matrix-only specs drop the parity request instead of panicking,
        // whatever the setter order: there is no vector ECC to re-verify a
        // rebuilt chunk with.
        for matrix in [
            SolveSpec::new(EccScheme::Secded64).matrix_only().parity(4),
            SolveSpec::new(EccScheme::Secded64).parity(4).matrix_only(),
        ] {
            assert_eq!(matrix.protection.vectors, EccScheme::None);
            assert_eq!(matrix.protection.elements, EccScheme::Secded64);
            assert!(matrix.protection.parity.is_none());
        }
        // `.protection(cfg)` and the setters describe the same tiers.
        assert_eq!(
            SolveSpec::cg()
                .protection(ProtectionConfig::matrix_only(EccScheme::Sed))
                .protection,
            SolveSpec::new(EccScheme::Sed).matrix_only().protection
        );
        assert_eq!(
            SolveSpec::cg()
                .protection(ProtectionConfig::full(EccScheme::Crc32c))
                .protection,
            SolveSpec::new(EccScheme::Crc32c).protection
        );
    }

    #[test]
    fn matrix_mode_ignores_stray_vector_scheme() {
        // A full configuration narrowed to matrix-only must not protect
        // vectors.
        let (a, b) = system();
        let cfg = ProtectionConfig::full(EccScheme::Secded64)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let matrix = SolveSpec::cg()
            .max_iterations(500)
            .tolerance(1e-18)
            .protection(cfg)
            .matrix_only()
            .solve(&a, &b)
            .unwrap();
        let plain = SolveSpec::cg()
            .max_iterations(500)
            .tolerance(1e-18)
            .solve(&a, &b)
            .unwrap();
        // Matrix protection never perturbs values, so the trajectory is
        // bit-identical to the baseline (no vector masking noise).
        assert_eq!(matrix.solution, plain.solution);
        assert_eq!(matrix.status.iterations, plain.status.iterations);
    }

    #[test]
    fn storage_tiers_solve_identically() {
        // Clean-matrix SpMV is bitwise identical across the storage tiers,
        // so the CG trajectory (and iteration count) must be too.
        let (a, b) = system();
        let spec = SolveSpec::new(EccScheme::Secded64)
            .matrix_only()
            .crc_backend(Crc32cBackend::SlicingBy16)
            .max_iterations(500)
            .tolerance(1e-18);
        let base = spec.solve(&a, &b).unwrap();
        for tier in [StorageTier::Coo, StorageTier::BlockedCsr(3)] {
            let outcome = spec.storage(tier).solve(&a, &b).unwrap();
            assert_eq!(outcome.solution, base.solution, "{tier:?}");
            assert_eq!(
                outcome.status.iterations, base.status.iterations,
                "{tier:?}"
            );
        }
    }

    #[test]
    fn solve_operator_reuses_an_existing_backend() {
        let (a, b) = system();
        let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = ProtectedCsr::from_csr(&a, &cfg).unwrap();
        let outcome = SolveSpec::cg()
            .max_iterations(500)
            .tolerance(1e-18)
            .solve_operator(&MatrixProtected::new(&protected), &b)
            .unwrap();
        assert!(outcome.status.converged);
        assert!(residual_norm(&a, &outcome.solution, &b) < 1e-7);
    }

    #[test]
    fn preconditioned_specs_converge_in_fewer_iterations() {
        let (a, b) = system();
        let baseline = SolveSpec::new(EccScheme::Secded64)
            .max_iterations(500)
            .tolerance(1e-16)
            .solve(&a, &b)
            .unwrap();
        for policy in [ReliabilityPolicy::Uniform, ReliabilityPolicy::Selective] {
            let pcg = SolveSpec::new(EccScheme::Secded64)
                .preconditioner(PrecondKind::Ilu0)
                .reliability(policy)
                .max_iterations(500)
                .tolerance(1e-16)
                .solve(&a, &b)
                .unwrap();
            assert!(pcg.status.converged, "{policy:?}");
            assert!(residual_norm(&a, &pcg.solution, &b) < 1e-6, "{policy:?}");
            assert!(
                pcg.status.iterations < baseline.status.iterations,
                "{policy:?}: ILU(0) must accelerate CG"
            );
            assert_eq!(pcg.faults.total_uncorrectable(), 0);
        }
    }

    #[test]
    fn preconditioned_specs_work_in_every_protection_mode() {
        let (a, b) = system();
        let specs = [
            SolveSpec::cg(),
            SolveSpec::new(EccScheme::Secded64).matrix_only(),
            SolveSpec::new(EccScheme::Secded64),
        ];
        for spec in specs {
            let outcome = spec
                .preconditioner(PrecondKind::Polynomial(3))
                .reliability(ReliabilityPolicy::Selective)
                .max_iterations(500)
                .tolerance(1e-16)
                .solve(&a, &b)
                .unwrap();
            assert!(outcome.status.converged);
            assert!(residual_norm(&a, &outcome.solution, &b) < 1e-6);
        }
    }

    #[test]
    fn preconditioner_requires_cg() {
        let (a, b) = system();
        let err = SolveSpec::cg()
            .method(Method::Jacobi)
            .preconditioner(PrecondKind::Ilu0)
            .solve(&a, &b)
            .unwrap_err();
        assert!(matches!(err, SolverError::Unsupported(_)));
    }
}
