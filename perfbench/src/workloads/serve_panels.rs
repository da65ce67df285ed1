//! `serve_panels`: multi-tenant serving through `SolveQueue` with CRC32C
//! on a 64² Poisson system.  Rounds alternate between 16 CG jobs from 4
//! tenants (two width-8 block-CG panels) and 4 Selective plus 4 Uniform
//! ILU(0) FT-PCG jobs (two panels with sequential columns).  Each round is
//! submitted, then drained, so at most two pool jobs are in flight.  The
//! CG round is also drained through an unprotected queue, which is what
//! `overhead_x` divides by.

use super::{overhead_pct, timed_setup, warm_pool};
use crate::inputs::serve_rhs;
use crate::probes::{panel_solve_ns, probe_layers, System};
use crate::report::RunResult;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use abft_core::{AnyProtectedMatrix, EccScheme, ProtectedMatrix, ProtectionConfig, StorageTier};
use abft_serve::{JobOutcome, JobSpec, MatrixId, SolveQueue};
use abft_solvers::backends::FullyProtected;
use abft_solvers::{PrecondKind, ReliabilityPolicy, SolveSpec, Solver, SolverConfig, Termination};
use abft_sparse::builders::poisson_2d_padded;
use abft_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Grid side of the Poisson system.
const GRID: usize = 64;

/// Panel width of the queue.
const WIDTH: usize = 8;

/// CG jobs per CG round (two full panels).
pub const CG_JOBS: usize = 2 * WIDTH;

/// Tenants the CG jobs are spread over.
const TENANTS: usize = 4;

/// FT-PCG jobs per reliability policy in an FT-PCG round.
const PCG_JOBS_PER_POLICY: usize = 4;

const PCG_JOBS: usize = 2 * PCG_JOBS_PER_POLICY;

/// Iteration cap and squared-residual tolerance of every job.
fn solver_config() -> SolverConfig {
    SolverConfig::new(2_000, 1e-12)
}

/// The queues and the inputs every round reuses.
pub struct Setup {
    /// CRC32C-protected queue.
    pub queue: SolveQueue,
    /// Queue over the unprotected encoding of the same matrix.
    plain_queue: SolveQueue,
    /// The CRC32C matrix in `queue`.
    pub matrix: MatrixId,
    plain_matrix: MatrixId,
    encoded: Arc<AnyProtectedMatrix>,
    csr: CsrMatrix,
    /// Right-hand sides: the CG round's first, then the FT-PCG round's.
    rhs: Vec<Vec<f64>>,
}

/// Builds the system, encodes and registers it in both queues, generates
/// the right-hand sides and warms the pool.
pub fn setup(seed: u64, grid: usize) -> Setup {
    let csr = poisson_2d_padded(grid, grid);
    let protection = ProtectionConfig::full(EccScheme::Crc32c);
    let encoded = Arc::new(
        AnyProtectedMatrix::encode(&csr, &protection, StorageTier::Csr)
            .expect("the Poisson matrix encodes under CRC32C"),
    );
    let plain =
        AnyProtectedMatrix::encode(&csr, &ProtectionConfig::unprotected(), StorageTier::Csr)
            .expect("the unprotected encoding always succeeds");
    let mut queue = SolveQueue::new(WIDTH);
    let matrix = queue.register(Arc::clone(&encoded));
    let mut plain_queue = SolveQueue::new(WIDTH);
    let plain_matrix = plain_queue.register(plain);
    let rhs = (0..CG_JOBS + PCG_JOBS)
        .map(|j| serve_rhs(seed, j as u64, csr.rows()))
        .collect();
    warm_pool();
    Setup {
        queue,
        plain_queue,
        matrix,
        plain_matrix,
        encoded,
        csr,
        rhs,
    }
}

/// The FT-PCG job `j` of a round: Selective for the first half.
fn pcg_policy(j: usize) -> ReliabilityPolicy {
    if j < PCG_JOBS_PER_POLICY {
        ReliabilityPolicy::Selective
    } else {
        ReliabilityPolicy::Uniform
    }
}

/// One drained round.
pub struct Round {
    /// Outcomes in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-job time from submit to outcome, in seconds.
    pub latency_s: Vec<f64>,
    /// The round's wall time, first submit to drained, in seconds.
    pub wall_s: f64,
}

/// Submits `specs` one by one, then drains the queue once.
pub fn drain_round(queue: &mut SolveQueue, specs: Vec<JobSpec>, tracer: &Tracer) -> Round {
    let start = Instant::now();
    let submitted: Vec<Instant> = specs
        .into_iter()
        .map(|spec| {
            tracer.span("serve.submit", || {
                let at = Instant::now();
                queue.submit(spec);
                at
            })
        })
        .collect();
    let outcomes = tracer.span("serve.drain", || queue.drain());
    let done = Instant::now();
    Round {
        outcomes,
        latency_s: submitted
            .iter()
            .map(|at| done.duration_since(*at).as_secs_f64())
            .collect(),
        wall_s: done.duration_since(start).as_secs_f64(),
    }
}

/// The CG round's jobs against `matrix`.
pub fn cg_specs(setup: &Setup, matrix: MatrixId) -> Vec<JobSpec> {
    (0..CG_JOBS)
        .map(|j| {
            JobSpec::new(
                format!("tenant-{}", j % TENANTS),
                matrix,
                setup.rhs[j].clone(),
            )
            .with_config(solver_config())
        })
        .collect()
}

/// The FT-PCG round's jobs.
fn pcg_specs(setup: &Setup) -> Vec<JobSpec> {
    (0..PCG_JOBS)
        .map(|j| {
            JobSpec::new(
                format!("tenant-{}", j % TENANTS),
                setup.matrix,
                setup.rhs[CG_JOBS + j].clone(),
            )
            .with_config(solver_config())
            .with_preconditioner(PrecondKind::Ilu0, pcg_policy(j))
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solves job `j` of a round standalone against the same encoded matrix
/// and compares it bit for bit with the queue's outcome — the queue's
/// documented invariant.
fn sample_matches(setup: &Setup, pcg: bool, j: usize, outcome: &JobOutcome) -> bool {
    let Some(queued) = &outcome.solution else {
        return false;
    };
    let solo = if pcg {
        SolveSpec::new(EccScheme::Crc32c)
            .preconditioner(PrecondKind::Ilu0)
            .reliability(pcg_policy(j))
            .config(solver_config())
            .solve(&setup.csr, &setup.rhs[CG_JOBS + j])
    } else {
        Solver::cg()
            .config(solver_config())
            .solve_operator(&FullyProtected::new(&*setup.encoded), &setup.rhs[j])
    };
    solo.is_ok_and(|solo| {
        solo.status.iterations == outcome.status.iterations && bits(&solo.solution) == bits(queued)
    })
}

/// Counts a round's jobs and checks every outcome converged.
fn account(out: &mut RunResult, round: &Round, expected: usize, label: &str) {
    out.attempted += expected as u64;
    let converged = round
        .outcomes
        .iter()
        .filter(|o| o.termination == Termination::Converged)
        .count();
    if converged < expected {
        out.fail((expected - converged) as u64, || {
            format!("{label} round: {converged} of {expected} jobs converged")
        });
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let mut out = RunResult::default();
    let (mut setup, setup_s) = timed_setup(|| setup(seed, GRID));
    out.metric("setup_s", setup_s, "s");
    if tracer.enabled() {
        let system = System {
            csr: setup.csr.clone(),
            config: *setup.encoded.config(),
            rhs: setup.rhs[0].clone(),
            tealeaf: None,
        };
        probe_layers(&system, tracer, &mut out);
    }

    // One untimed round of each kind first, so lazily grown buffers and
    // cold caches do not land in the first sample.
    let untraced = Tracer::new(false);
    for specs in [cg_specs(&setup, setup.matrix), pcg_specs(&setup)] {
        drain_round(&mut setup.queue, specs, &untraced);
    }
    let specs = cg_specs(&setup, setup.plain_matrix);
    drain_round(&mut setup.plain_queue, specs, &untraced);

    let mut cg_latency = Vec::new();
    let mut pcg_latency = Vec::new();
    let mut cg_drain = Vec::new();
    let mut traced_drain = Vec::new();
    let mut ratios = Vec::new();
    let mut iterations = Vec::new();
    let mut widths = Vec::new();
    let mut retries = 0u64;
    let mut jobs = 0usize;
    let mut pair_s = Vec::new();
    let mut measured = 0.0;
    let mut round = 0usize;
    while measured < seconds || cg_drain.is_empty() || (tracer.enabled() && traced_drain.is_empty())
    {
        // In a traced run every other round records spans, so the two
        // halves give the tracing overhead.
        let traced = tracer.enabled() && round % 2 == 1;
        let spans = if traced { tracer } else { &untraced };
        let specs = cg_specs(&setup, setup.matrix);
        let cg = drain_round(&mut setup.queue, specs, spans);
        let specs = pcg_specs(&setup);
        let pcg = drain_round(&mut setup.queue, specs, spans);
        let plain_specs = cg_specs(&setup, setup.plain_matrix);
        let plain = drain_round(&mut setup.plain_queue, plain_specs, &untraced);
        measured += cg.wall_s + pcg.wall_s;
        pair_s.push(cg.wall_s + pcg.wall_s);
        account(&mut out, &cg, CG_JOBS, "CG");
        account(&mut out, &pcg, PCG_JOBS, "FT-PCG");
        account(&mut out, &plain, CG_JOBS, "unprotected CG");

        let cg_pick = round % CG_JOBS;
        let pcg_pick = round % PCG_JOBS;
        for (pcg_round, pick, r) in [(false, cg_pick, &cg), (true, pcg_pick, &pcg)] {
            let ok = r
                .outcomes
                .get(pick)
                .is_some_and(|o| sample_matches(&setup, pcg_round, pick, o));
            out.check(ok, || {
                format!("round {round}: sampled job {pick} differs from its standalone solve (FT-PCG: {pcg_round})")
            });
        }

        for o in cg.outcomes.iter().chain(&pcg.outcomes) {
            iterations.push(o.status.iterations as f64);
            widths.push(o.panel_width as f64);
            retries += u64::from(o.attempts);
        }
        jobs += cg.outcomes.len() + pcg.outcomes.len();
        cg_latency.extend(&cg.latency_s);
        pcg_latency.extend(&pcg.latency_s);
        if traced {
            traced_drain.push(cg.wall_s);
        } else {
            cg_drain.push(cg.wall_s);
        }
        ratios.push(cg.wall_s / plain.wall_s);
        round += 1;
    }

    let cg_job = Summary::of(&cg_latency).expect("at least one round");
    let pcg_job = Summary::of(&pcg_latency).expect("at least one round");
    // The CG rounds carry two thirds of the jobs; a median over both kinds
    // would sit on the edge between the two latency clusters.
    out.metric("p50_ms", 1e3 * cg_job.median, "ms");
    let per_pair = (CG_JOBS + PCG_JOBS) as f64 / median(&pair_s);
    out.metric("throughput_per_s", per_pair, "1/s");
    out.metric("overhead_x", median(&ratios), "x");
    out.metric("serve.cg_job_p50_ms", 1e3 * cg_job.median, "ms");
    out.metric("serve.pcg_job_p50_ms", 1e3 * pcg_job.median, "ms");
    out.metric(
        "serve.panel_width_mean",
        widths.iter().sum::<f64>() / widths.len() as f64,
        "count",
    );
    out.metric("serve.retries", retries as f64, "count");
    out.metric(
        "solvers.iterations",
        iterations.iter().sum::<f64>() / iterations.len() as f64,
        "count",
    );
    if tracer.enabled() {
        out.metric(
            "serve.submit_ns",
            median(&tracer.durations_ns("serve.submit")),
            "ns",
        );
        let longest = (0..2)
            .map(|p| {
                tracer.span("solvers.block_cg_panel_standalone", || {
                    panel_solve_ns(
                        &setup.encoded,
                        &setup.rhs[p * WIDTH..(p + 1) * WIDTH],
                        solver_config(),
                    )
                    .0
                })
            })
            .fold(0.0, f64::max);
        out.metric(
            "serve.drain_overhead_ns",
            1e9 * median(&cg_drain) - longest,
            "ns",
        );
        out.metric(
            "trace.overhead_pct",
            overhead_pct(&traced_drain, &cg_drain),
            "%",
        );
    }
    out.note(format!(
        "solves_per_s: {per_pair:.3} ({} jobs over the median CG plus FT-PCG round pair; {jobs} jobs in {measured:.3} s of drains)",
        CG_JOBS + PCG_JOBS
    ));
    out.note(format!(
        "cg_job_p50_ms: {}",
        scale(cg_job, 1e3).describe("ms")
    ));
    out.note(format!(
        "pcg_job_p50_ms: {}",
        scale(pcg_job, 1e3).describe("ms")
    ));
    out.note(format!(
        "overhead_x: {:.3} (median CRC32C/unprotected CG-round drain over {} rounds); mean iterations per job {:.1}",
        median(&ratios),
        ratios.len(),
        iterations.iter().sum::<f64>() / iterations.len() as f64
    ));
    out
}

fn scale(s: Summary, k: f64) -> Summary {
    Summary {
        count: s.count,
        median: s.median * k,
        tail: s.tail.map(|(p, v)| (p, v * k)),
    }
}
