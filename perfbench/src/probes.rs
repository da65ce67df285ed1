//! Per-layer probes: each one times a public call of one layer on the
//! workload's own system, inside a span named after the metric.

use crate::report::RunResult;
use crate::stats::median;
use crate::trace::Tracer;
use abft_core::spmv::{protected_spmm, protected_spmv_auto};
use abft_core::DenseView;
use abft_core::{
    AnyProtectedMatrix, EccScheme, FaultLog, ParityConfig, ProtectedMatrix, ProtectedVector,
    ProtectionConfig, ReductionWorkspace, Region, SpmmWorkspace, SpmvWorkspace, StorageTier,
    MAX_PANEL_WIDTH,
};
use abft_ecc::verify::secded64_words_clean;
use abft_ecc::Crc32c;
use abft_solvers::backends::FullyProtected;
use abft_solvers::{
    block_cg_panel, cg_with_poll, ft_pcg, FaultContext, Ilu0, LinearOperator, Preconditioner,
    Reliability, SolverConfig,
};
use abft_sparse::spmv::{spmv_parallel, spmv_serial};
use abft_sparse::CsrMatrix;
use abft_tealeaf::assembly::{assemble_matrix, assemble_rhs, face_coefficients, Conductivity};
use abft_tealeaf::Grid;
use std::hint::black_box;
use std::time::Instant;

/// Each timed batch lasts at least this long, so short calls are timed in
/// bulk rather than against the clock's resolution.
const BATCH_NS: u128 = 2_000_000;

/// Batches per probe; the probe reports the median batch.
const BATCHES: usize = 7;

/// Wall time a solver probe aims for per repeat.
const SOLVE_PROBE_NS: f64 = 150e6;

/// Widest gap between the replayed iteration's kernel sum and the measured
/// protected CG iteration that the reconciliation accepts.
pub const RECONCILE_MARGIN: f64 = 0.20;

/// Capped CG solves the reconciliation interleaves its replays with.
const RECONCILE_ROUNDS: usize = 3;

/// The TeaLeaf fields a system was assembled from.
#[derive(Debug, Clone)]
pub struct TealeafFields {
    /// Grid geometry.
    pub grid: Grid,
    /// Cell density.
    pub density: Vec<f64>,
    /// Cell specific energy.
    pub energy: Vec<f64>,
    /// Time-step size.
    pub dt: f64,
}

/// A workload's linear system and protection, the input of every probe.
#[derive(Debug, Clone)]
pub struct System {
    /// The plain matrix.
    pub csr: CsrMatrix,
    /// The protection the workload runs under.
    pub config: ProtectionConfig,
    /// A right-hand side.
    pub rhs: Vec<f64>,
    /// The TeaLeaf fields the matrix came from, when it is a TeaLeaf system.
    pub tealeaf: Option<TealeafFields>,
}

/// Median per-call time of `f` in nanoseconds.  Calls run in batches of at
/// least [`BATCH_NS`]; each batch is one span called `name`.
pub fn per_call_ns(tracer: &Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let one = start.elapsed().as_nanos().max(1);
    let reps = (BATCH_NS / one).clamp(1, 1_000_000) as usize;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            tracer.span(name, || {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                start.elapsed().as_nanos() as f64 / reps as f64
            })
        })
        .collect();
    median(&batches)
}

/// The BLAS-1 calls the protected CG backend makes, serial or parallel as
/// the vector is flagged.
struct Blas1 {
    log: FaultLog,
    ws: ReductionWorkspace,
}

impl Blas1 {
    fn new() -> Self {
        Blas1 {
            log: FaultLog::new(),
            ws: ReductionWorkspace::new(),
        }
    }

    fn dot(&mut self, a: &ProtectedVector, b: &ProtectedVector) -> f64 {
        if a.is_parallel() {
            a.dot_masked_parallel_with(b, &self.log, &mut self.ws)
        } else {
            a.dot_masked(b, &self.log)
        }
        .expect("dot on clean vectors")
    }

    fn norm2(&mut self, a: &ProtectedVector) -> f64 {
        if a.is_parallel() {
            a.norm2_masked_parallel_with(&self.log, &mut self.ws)
        } else {
            a.norm2_masked(&self.log)
        }
        .expect("norm2 on a clean vector")
    }

    fn axpy(&mut self, y: &mut ProtectedVector, alpha: f64, x: &ProtectedVector) {
        if y.is_parallel() {
            y.axpy_masked_parallel_with(alpha, x, &self.log, &mut self.ws)
        } else {
            y.axpy_masked(alpha, x, &self.log)
        }
        .expect("axpy on clean vectors")
    }

    fn xpay(&mut self, y: &mut ProtectedVector, beta: f64, x: &ProtectedVector) {
        if y.is_parallel() {
            y.xpay_masked_parallel_with(beta, x, &self.log, &mut self.ws)
        } else {
            y.xpay_masked(beta, x, &self.log)
        }
        .expect("xpay on clean vectors")
    }

    fn dot_axpy(&mut self, y: &mut ProtectedVector, alpha: f64, x: &ProtectedVector) -> f64 {
        if y.is_parallel() {
            y.dot_axpy_masked_parallel_with(alpha, x, &self.log, &mut self.ws)
        } else {
            y.dot_axpy_masked(alpha, x, &self.log)
        }
        .expect("dot_axpy on clean vectors")
    }
}

impl System {
    fn encode(&self) -> AnyProtectedMatrix {
        AnyProtectedMatrix::encode(&self.csr, &self.config, StorageTier::Csr)
            .expect("the workload system encodes under its protection")
    }

    fn vector(&self, values: &[f64]) -> ProtectedVector {
        let mut v =
            ProtectedVector::from_slice(values, self.config.vectors, self.config.crc_backend);
        v.set_parallel(self.config.parallel);
        v
    }

    fn plain_spmv(&self, x: &[f64], y: &mut [f64]) {
        if self.config.parallel {
            spmv_parallel(&self.csr, x, y);
        } else {
            spmv_serial(&self.csr, x, y);
        }
    }

    /// Column `j` of a width-8 panel: the right-hand side, rescaled.
    fn column(&self, j: usize) -> Vec<f64> {
        let scale = 1.0 + 0.125 * j as f64;
        self.rhs.iter().map(|v| v * scale).collect()
    }
}

/// Runs every layer probe on `sys` and records its metrics in `out`.
pub fn probe_layers(sys: &System, tracer: &Tracer, out: &mut RunResult) {
    probe_ecc(sys, tracer, out);
    probe_core(sys, tracer, out);
    probe_pool(tracer, out);
    probe_solvers(sys, tracer, out);
    if let Some(fields) = &sys.tealeaf {
        let ns = per_call_ns(tracer, "tealeaf.assembly", || {
            let coeffs = face_coefficients(&fields.grid, &fields.density, Conductivity::Reciprocal);
            black_box(assemble_matrix(&fields.grid, &coeffs, fields.dt));
            black_box(assemble_rhs(&fields.density, &fields.energy));
        });
        out.metric("tealeaf.assembly_ns", ns, "ns");
    }
}

fn probe_ecc(sys: &System, tracer: &Tracer, out: &mut RunResult) {
    let secded = ProtectedVector::from_slice(&sys.rhs, EccScheme::Secded64, sys.config.crc_backend);
    out.check(secded64_words_clean(secded.raw()), || {
        "ecc: a freshly encoded SECDED64 vector failed verification".into()
    });
    let ns = per_call_ns(tracer, "ecc.secded64_verify", || {
        black_box(secded64_words_clean(black_box(secded.raw())));
    });
    out.metric(
        "ecc.secded64_verify_ns_per_word",
        ns / secded.raw().len() as f64,
        "ns",
    );

    let words: Vec<u64> = sys.csr.values().iter().map(|v| v.to_bits()).collect();
    let crc = Crc32c::new(sys.config.crc_backend);
    let ns = per_call_ns(tracer, "ecc.crc32c", || {
        for row in 0..sys.csr.rows() {
            black_box(crc.checksum_words(&words[sys.csr.row_range(row)]));
        }
    });
    out.metric(
        "ecc.crc32c_ns_per_byte",
        ns / (8 * words.len()) as f64,
        "ns",
    );
}

fn probe_core(sys: &System, tracer: &Tracer, out: &mut RunResult) {
    let n = sys.csr.rows();
    let log = FaultLog::new();
    let ns = per_call_ns(tracer, "core.matrix_encode", || {
        black_box(sys.encode());
    });
    out.metric("core.matrix_encode_ns", ns, "ns");
    let encoded = sys.encode();
    let ns = per_call_ns(tracer, "core.matrix_verify", || {
        encoded.verify_all(&log).expect("clean matrix verifies");
    });
    out.metric("core.matrix_verify_ns", ns, "ns");

    let mut y_plain = vec![0.0; n];
    let ns = per_call_ns(tracer, "sparse.spmv", || {
        sys.plain_spmv(&sys.rhs, &mut y_plain)
    });
    out.metric("sparse.spmv_ns", ns, "ns");

    let mut x = sys.vector(&sys.rhs);
    let mut y = sys.vector(&vec![0.0; n]);
    let mut ws = SpmvWorkspace::new();
    let ns = per_call_ns(tracer, "core.spmv", || {
        protected_spmv_auto(&encoded, &mut x, &mut y, 0, &log, &mut ws).expect("clean SpMV");
    });
    out.metric("core.spmv_ns", ns, "ns");
    let ns = per_call_ns(tracer, "core.x_scrub", || {
        x.check_all(&log).expect("clean vector checks");
    });
    out.metric("core.x_scrub_ns", ns, "ns");
    let ns = per_call_ns(tracer, "core.out_write", || y.fill_from_fn(|i| y_plain[i]));
    out.metric("core.out_write_ns", ns, "ns");

    let mut blas = Blas1::new();
    let ns = per_call_ns(tracer, "core.dot", || {
        black_box(blas.dot(&x, &y));
    });
    out.metric("core.dot_ns", ns, "ns");
    let ns = per_call_ns(tracer, "core.norm2", || {
        black_box(blas.norm2(&x));
    });
    out.metric("core.norm2_ns", ns, "ns");
    let ns = per_call_ns(tracer, "core.axpy", || blas.axpy(&mut y, 1e-3, &x));
    out.metric("core.axpy_ns", ns, "ns");
    let ns = per_call_ns(tracer, "core.xpay", || blas.xpay(&mut y, 0.5, &x));
    out.metric("core.xpay_ns", ns, "ns");
    let ns = per_call_ns(tracer, "core.dot_axpy", || {
        black_box(blas.dot_axpy(&mut y, -1e-3, &x));
    });
    out.metric("core.dot_axpy_ns", ns, "ns");

    let mut xs: Vec<ProtectedVector> = (0..MAX_PANEL_WIDTH)
        .map(|j| sys.vector(&sys.column(j)))
        .collect();
    let mut ys: Vec<ProtectedVector> = (0..MAX_PANEL_WIDTH)
        .map(|_| sys.vector(&vec![0.0; n]))
        .collect();
    let col_logs: Vec<FaultLog> = (0..MAX_PANEL_WIDTH).map(|_| FaultLog::new()).collect();
    let col_log_refs: Vec<&FaultLog> = col_logs.iter().collect();
    let mut spmm_ws = SpmmWorkspace::new();
    let ns = per_call_ns(tracer, "core.spmm", || {
        let mut x_refs: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
        let mut y_refs: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
        let mut errors = vec![None; MAX_PANEL_WIDTH];
        protected_spmm(
            &encoded,
            &mut x_refs,
            &mut y_refs,
            0,
            &col_log_refs,
            &log,
            &mut errors,
            &mut spmm_ws,
        )
        .expect("clean SpMM");
    });
    out.metric("core.spmm_ns_per_col", ns / MAX_PANEL_WIDTH as f64, "ns");

    let mut striped = sys.vector(&sys.rhs);
    striped.enable_parity(ParityConfig::default());
    let ns = per_call_ns(tracer, "core.parity_refresh", || striped.refresh_parity());
    out.metric("core.parity_refresh_ns", ns, "ns");

    // Computed from array sizes, so cache misses are not in it: 12-byte
    // elements (value + column index), 4-byte row offsets, one read of x
    // and one write of y.
    let nnz = sys.csr.nnz() as f64;
    let flops = 2.0 * nnz;
    let bytes = 12.0 * nnz + 4.0 * (n + 1) as f64 + 8.0 * (sys.csr.cols() + n) as f64;
    out.metric("core.spmv_flops", flops, "count");
    out.metric("core.spmv_bytes_computed", bytes, "bytes");
    out.metric("core.spmv_ops_per_byte", flops / bytes, "flop/byte");
}

fn probe_pool(tracer: &Tracer, out: &mut RunResult) {
    let chunks = rayon::effective_workers() * 4;
    let ns = per_call_ns(tracer, "pool.scoped_dispatch", || {
        rayon::scope_chunks(chunks, &|c| {
            black_box(c);
        });
    });
    out.metric("pool.scoped_dispatch_ns", ns, "ns");
    let waits: Vec<f64> = (0..200)
        .map(|_| {
            tracer.span("pool.job_wait", || {
                let submitted = Instant::now();
                let started = abft_serve::submit(Instant::now).wait();
                started.duration_since(submitted).as_nanos() as f64
            })
        })
        .collect();
    out.metric("pool.job_wait_ns", median(&waits), "ns");
}

/// Iterations a capped solver probe runs so one repeat lasts about
/// [`SOLVE_PROBE_NS`], given the measured cost of `probe_iters` iterations.
fn scaled_iters(probe_ns: f64, probe_iters: usize) -> usize {
    let per_iter = probe_ns / probe_iters.max(1) as f64;
    ((SOLVE_PROBE_NS / per_iter) as usize).clamp(5, 2_000)
}

/// One capped protected CG solve through the solver's own loop, timed
/// iteration by iteration through its poll hook (called at the start of
/// every iteration), so the solve's set-up and finish stay out.  `between`
/// runs inside the hook, outside the timed iterations.  Returns the
/// per-iteration wall times in nanoseconds and the integrity checks per
/// iteration.
fn cg_iterations(
    encoded: &AnyProtectedMatrix,
    rhs: &[f64],
    iters: usize,
    mut between: impl FnMut(),
) -> (Vec<f64>, f64) {
    let op = FullyProtected::new(encoded);
    let log = FaultLog::new();
    let base = FaultContext::with_log(&log);
    let ctx = base.scoped_to(op.reduction_workspace());
    let b = op.vector_from(rhs);
    let mut intervals = Vec::with_capacity(iters);
    let mut checks = Vec::with_capacity(iters);
    let mut started: Option<(Instant, u64)> = None;
    cg_with_poll(&op, &b, &SolverConfig::new(iters, 0.0), &ctx, |_, _| {
        let now = Instant::now();
        let total = log.snapshot().total_checks();
        if let Some((start, before)) = started {
            intervals.push(now.duration_since(start).as_nanos() as f64);
            checks.push((total - before) as f64);
        }
        between();
        started = Some((Instant::now(), total));
    })
    .expect("capped CG on a clean system");
    (intervals, median(&checks))
}

/// Iterations a capped CG probe runs so it lasts about
/// [`SOLVE_PROBE_NS`] / `share`.
fn cg_probe_iters(encoded: &AnyProtectedMatrix, rhs: &[f64], share: usize) -> usize {
    let (probe, _) = cg_iterations(encoded, rhs, 4, || ());
    let per_iter = median(&probe).max(1.0);
    ((SOLVE_PROBE_NS / share as f64 / per_iter) as usize).clamp(16, 2_000)
}

fn probe_solvers(sys: &System, tracer: &Tracer, out: &mut RunResult) {
    let encoded = sys.encode();
    let lanes = rayon::effective_workers();
    let (iter_ns, checks) = reconcile(sys, &encoded, tracer, out);
    rayon::set_worker_limit(Some(1));
    let iters = cg_probe_iters(&encoded, &sys.rhs, 1);
    let (one_lane, _) = tracer.span("solvers.cg_iter_1lane", || {
        cg_iterations(&encoded, &sys.rhs, iters, || ())
    });
    let one_lane_ns = median(&one_lane);
    rayon::set_worker_limit(Some(lanes));
    out.metric("solvers.cg_iter_ns", iter_ns, "ns");
    out.metric("solvers.cg_iter_1lane_ns", one_lane_ns, "ns");
    out.metric(
        "solvers.scaling_eff",
        one_lane_ns / (lanes as f64 * iter_ns),
        "ratio",
    );
    out.metric("core.checks_per_iter", checks, "count");

    let columns: Vec<Vec<f64>> = (0..MAX_PANEL_WIDTH).map(|j| sys.column(j)).collect();
    let panel = |iters: usize| {
        let (ns, done) = panel_solve_ns(&encoded, &columns, SolverConfig::new(iters, 0.0));
        ns / done.max(1) as f64
    };
    let iters = scaled_iters(panel(3) * 3.0, 3);
    let runs: Vec<f64> = (0..3)
        .map(|_| tracer.span("solvers.block_cg_panel", || panel(iters)))
        .collect();
    out.metric("solvers.block_cg_panel_iter_ns", median(&runs), "ns");

    let op = FullyProtected::new(&encoded);
    let scheme = sys.config.elements;
    let backend = sys.config.crc_backend;
    let ctx_log = FaultLog::new();
    let ctx = FaultContext::with_log(&ctx_log);
    let mut z = vec![0.0; sys.rhs.len()];
    for (tier, label) in [
        (Reliability::Unreliable, "selective"),
        (Reliability::Protected, "uniform"),
    ] {
        let ns = per_call_ns(tracer, &format!("solvers.ilu0_build.{label}"), || {
            black_box(Ilu0::new(&sys.csr, tier, scheme, backend).expect("ILU(0) builds"));
        });
        out.metric(&format!("solvers.ilu0_build_ns.{label}"), ns, "ns");
        let ilu = Ilu0::new(&sys.csr, tier, scheme, backend).expect("ILU(0) builds");
        let ns = per_call_ns(tracer, &format!("solvers.ilu0_apply.{label}"), || {
            ilu.apply(&sys.rhs, &mut z, &ctx).expect("clean apply");
        });
        out.metric(&format!("solvers.ilu0_apply_ns.{label}"), ns, "ns");
    }

    let selective =
        Ilu0::new(&sys.csr, Reliability::Unreliable, scheme, backend).expect("ILU(0) builds");
    let b = op.vector_from(&sys.rhs);
    let pcg = |iters: usize| {
        let log = FaultLog::new();
        let base = FaultContext::with_log(&log);
        let ctx = base.scoped_to(op.reduction_workspace());
        let start = Instant::now();
        let (_, status) = ft_pcg(&op, &b, &selective, &SolverConfig::new(iters, 0.0), &ctx)
            .expect("capped FT-PCG on a clean system");
        let ns = start.elapsed().as_nanos() as f64 / status.iterations.max(1) as f64;
        (
            ns,
            log.snapshot().bounds_violations[Region::DenseVector as usize],
        )
    };
    let iters = scaled_iters(pcg(3).0 * 3.0, 3);
    let runs: Vec<(f64, u64)> = (0..3)
        .map(|_| tracer.span("solvers.ft_pcg", || pcg(iters)))
        .collect();
    let ns: Vec<f64> = runs.iter().map(|r| r.0).collect();
    out.metric("solvers.ft_pcg_iter_ns", median(&ns), "ns");
    out.metric(
        "solvers.screen_rejects",
        runs.iter().map(|r| r.1).sum::<u64>() as f64,
        "count",
    );
}

/// Solves one standalone block-CG panel of `columns` against `encoded`,
/// as a queue drain does inside a pool job: wall time in nanoseconds and
/// the panel's iteration count.
pub fn panel_solve_ns(
    encoded: &AnyProtectedMatrix,
    columns: &[Vec<f64>],
    config: SolverConfig,
) -> (f64, usize) {
    let op = FullyProtected::new(encoded);
    let bs: Vec<ProtectedVector> = columns.iter().map(|c| op.vector_from(c)).collect();
    let b_refs: Vec<&ProtectedVector> = bs.iter().collect();
    let logs: Vec<FaultLog> = columns.iter().map(|_| FaultLog::new()).collect();
    let base: Vec<FaultContext> = logs.iter().map(FaultContext::with_log).collect();
    let ctxs: Vec<FaultContext> = base
        .iter()
        .map(|c| c.scoped_to(op.reduction_workspace()))
        .collect();
    let ctx_refs: Vec<&FaultContext> = ctxs.iter().collect();
    let budgets = vec![None; columns.len()];
    let matrix_log = FaultLog::new();
    let start = Instant::now();
    let outcomes = block_cg_panel(
        &op,
        &b_refs,
        &config,
        &ctx_refs,
        &FaultContext::with_log(&matrix_log),
        true,
        &budgets,
        |_, _| None,
    );
    let ns = start.elapsed().as_nanos() as f64;
    let iterations = outcomes
        .iter()
        .map(|o| o.status.iterations)
        .max()
        .unwrap_or(0);
    (ns, iterations)
}

/// The protected SpMV's matrix traversal, as `protected_spmv_auto` runs it:
/// row products of `x` into `products`, with full codeword checks when
/// `check` and bounds checks only otherwise; chunked over the pool when the
/// system runs parallel kernels.
fn traverse(
    sys: &System,
    encoded: &AnyProtectedMatrix,
    x: &ProtectedVector,
    products: &mut [f64],
    scratch: &mut [Vec<u8>],
    check: bool,
    log: &FaultLog,
) {
    let (words, mask) = x.masked_words();
    let xv = DenseView::MaskedWords { words, mask };
    let result = if sys.config.parallel {
        let chunks = rayon::chunk_count(encoded.rows());
        rayon::with_chunks_mut(products, &mut scratch[..chunks], |offset, chunk, s| {
            encoded.spmv_range_view(offset, xv, chunk, check, s, log)
        })
    } else {
        encoded.spmv_range_view(0, xv, products, check, &mut scratch[0], log)
    };
    result.expect("clean matrix traversal");
}

/// Replays one protected CG iteration through the public kernels the
/// solver runs, one child span each, and checks that they add up to the
/// measured iteration within [`RECONCILE_MARGIN`].
///
/// The solver verifies the matrix inside its SpMV traversal (a batched
/// clean-row predicate per row), not through `verify_all` (a checked
/// decode per codeword), so the replay times the traversal with checks
/// (`core.matrix_spmv`) and splits it with a second traversal that skips
/// them: the difference is the matrix verify, the rest the multiply-adds.
///
/// The replay runs between the solver's own iterations, inside its poll
/// hook, so a slow spell on the host lands on both sides; both sides are
/// medians over single iterations.  Returns the measured
/// `(ns per iteration, checks per iteration)`.
fn reconcile(
    sys: &System,
    encoded: &AnyProtectedMatrix,
    tracer: &Tracer,
    out: &mut RunResult,
) -> (f64, f64) {
    const KERNELS: [&str; 7] = [
        "core.x_scrub",
        "core.matrix_spmv",
        "core.out_write",
        "core.dot",
        "core.axpy",
        "core.dot_axpy",
        "core.xpay",
    ];
    let n = sys.csr.rows();
    let mut p = sys.vector(&sys.rhs);
    let mut r = sys.vector(&sys.rhs);
    let mut x = sys.vector(&vec![0.0; n]);
    let mut w = sys.vector(&vec![0.0; n]);
    let mut products = vec![0.0; n];
    let mut scratch = vec![Vec::new(); rayon::chunk_count(n).max(1)];
    let mut blas = Blas1::new();
    let log = FaultLog::new();
    let iters = cg_probe_iters(encoded, &sys.rhs, 2 * RECONCILE_ROUNDS);
    let replay = Tracer::new(true);
    let mut solved = Vec::new();
    let mut checks = 0.0;
    for _ in 0..RECONCILE_ROUNDS {
        let (intervals, per_iter) = tracer.span("solvers.cg_iter", || {
            cg_iterations(encoded, &sys.rhs, iters, || {
                replay.span("solvers.cg_iter_replay", || {
                    replay.span(KERNELS[0], || p.check_all(&log).expect("clean p"));
                    replay.span(KERNELS[1], || {
                        traverse(sys, encoded, &p, &mut products, &mut scratch, true, &log)
                    });
                    replay.span(KERNELS[2], || w.fill_from_fn(|i| products[i]));
                    let pw = replay.span(KERNELS[3], || blas.dot(&p, &w));
                    let alpha = 1e-6 * pw.signum();
                    replay.span(KERNELS[4], || blas.axpy(&mut x, alpha, &p));
                    replay.span(KERNELS[5], || blas.dot_axpy(&mut r, -alpha, &w));
                    replay.span(KERNELS[6], || blas.xpay(&mut p, 0.5, &r));
                });
            })
        });
        solved.extend(intervals);
        checks = per_iter;
    }
    let iter_ns = median(&solved);
    let multiply = per_call_ns(tracer, "core.spmv_multiply", || {
        traverse(sys, encoded, &p, &mut products, &mut scratch, false, &log)
    });

    let spans = replay.spans();
    let own = crate::trace::self_times_ns(&spans);
    let parts: Vec<String> = KERNELS
        .iter()
        .map(|name| format!("{name} {:.0}", median(&replay.durations_ns(name))))
        .collect();
    let glue: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "solvers.cg_iter_replay")
        .map(|(_, &o)| o as f64)
        .collect();
    let total = median(&replay.durations_ns("solvers.cg_iter_replay"));
    let traversal = median(&replay.durations_ns(KERNELS[1]));
    let gap = total / iter_ns - 1.0;
    out.metric("core.spmv_multiply_ns", multiply, "ns");
    out.metric("core.matrix_verify_in_spmv_ns", traversal - multiply, "ns");
    out.metric("reconcile.kernel_sum_ns", total, "ns");
    out.metric("reconcile.gap_pct", 100.0 * gap, "%");
    out.note(format!(
        "reconcile: replayed iteration {total:.0} ns (kernel medians: {}; replay self {:.0}) vs measured CG iteration {iter_ns:.0} ns: gap {:+.1}% (margin ±{:.0}%); core.matrix_spmv splits into verify {:.0} + multiply-adds {multiply:.0}",
        parts.join(", "),
        median(&glue),
        100.0 * gap,
        100.0 * RECONCILE_MARGIN,
        traversal - multiply,
    ));
    out.check(gap.abs() <= RECONCILE_MARGIN, || {
        format!(
            "reconcile: layer sum {total:.0} ns is {:+.1}% off the measured CG iteration {iter_ns:.0} ns",
            100.0 * gap
        )
    });
    tracer.adopt(replay);
    (iter_ns, checks)
}
