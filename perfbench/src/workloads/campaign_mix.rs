//! `campaign_mix`: streaming fault campaigns (`Campaign::run_streaming`)
//! on 32² TeaLeaf trials, four injection rows per round.  Waves hold at
//! most `nproc` pool jobs.  Every round replays the same trials, so its
//! outcome counts must repeat exactly.

use super::{overhead_pct, timed_setup, warm_pool};
use crate::inputs::campaign_seed;
use crate::probes::{per_call_ns, probe_layers, System, TealeafFields};
use crate::report::RunResult;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use abft_core::{EccScheme, ParityConfig, ProtectionConfig};
use abft_faultsim::{
    Campaign, CampaignConfig, CampaignStats, FaultOutcome, FaultTarget, InjectionKind, StreamConfig,
};
use abft_solvers::{PrecondKind, ReliabilityPolicy, Solver};
use abft_tealeaf::assembly::{assemble_matrix, assemble_rhs, face_coefficients, Conductivity};
use abft_tealeaf::{Deck, Simulation};
use std::hint::black_box;
use std::time::Instant;

/// Grid side of each trial's TeaLeaf problem.
const GRID: usize = 32;

/// Trials per row per round.
const TRIALS: usize = 256;

/// Trials per pool job.
const TRIALS_PER_JOB: usize = 16;

/// Injection rows, in report order.
const ROWS: [&str; 4] = [
    "matrix_flips",
    "vector_flips",
    "chunk_erasure",
    "factor_flips",
];

/// Outcome classes, in report order.
const CLASSES: [&str; 5] = ["safe", "corrected", "rebuilt", "due", "sdc"];

/// The outcome class a trial outcome is counted under.
fn class_of(outcome: FaultOutcome) -> usize {
    match outcome {
        FaultOutcome::Masked => 0,
        FaultOutcome::Corrected => 1,
        FaultOutcome::DetectedRebuilt => 2,
        FaultOutcome::DetectedAborted | FaultOutcome::BoundsCaught => 3,
        FaultOutcome::SilentCorruption => 4,
    }
}

/// Per-class counts of one row's campaign.
fn class_counts(stats: &CampaignStats) -> [usize; 5] {
    let mut counts = [0; 5];
    for outcome in FaultOutcome::ALL {
        counts[class_of(outcome)] += stats.count(outcome);
    }
    counts
}

/// The four campaign configurations for `seed`, each of `trials` trials.
fn row_configs(seed: u64, grid: usize, trials: usize) -> [CampaignConfig; 4] {
    let base = CampaignConfig {
        nx: grid,
        ny: grid,
        trials,
        flips_per_trial: 1,
        protection: ProtectionConfig::full(EccScheme::Secded64),
        seed: campaign_seed(seed),
        ..CampaignConfig::default()
    };
    let parity = ParityConfig {
        stripe_chunks: 4,
        chunk_words: 16,
    };
    [
        CampaignConfig {
            target: FaultTarget::MatrixValues,
            injection: InjectionKind::BitFlips,
            ..base.clone()
        },
        CampaignConfig {
            target: FaultTarget::DenseVector,
            injection: InjectionKind::SolverVectorFlips,
            ..base.clone()
        },
        CampaignConfig {
            protection: ProtectionConfig::full(EccScheme::Secded64).with_parity(parity),
            target: FaultTarget::DenseVector,
            injection: InjectionKind::ChunkErasure,
            ..base.clone()
        },
        CampaignConfig {
            target: FaultTarget::DenseVector,
            injection: InjectionKind::PrecondFactorFlips,
            precond: PrecondKind::Ilu0,
            precond_reliability: ReliabilityPolicy::Selective,
            ..base
        },
    ]
}

/// Waves of at most `nproc` pool jobs, no stop rule, no failure capture.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        batch: TRIALS_PER_JOB * crate::sys::nproc(),
        trials_per_job: TRIALS_PER_JOB,
        capture_limit: 0,
        stop: None,
    }
}

/// The campaigns, and the plain solve of the trial system `overhead_x`
/// divides by.
pub struct Setup {
    /// One campaign per row.
    campaigns: Vec<Campaign>,
    system: System,
}

/// Builds the four campaigns (each assembles its system and solves the
/// clean reference) and warms the pool.
pub fn setup(seed: u64, grid: usize, trials: usize) -> Setup {
    let campaigns = row_configs(seed, grid, trials)
        .into_iter()
        .map(Campaign::new)
        .collect();
    let sim = Simulation::new(Deck::standard(grid, grid, 1));
    let fields = TealeafFields {
        grid: sim.grid().clone(),
        density: sim.density().to_vec(),
        energy: sim.energy().to_vec(),
        dt: sim.deck().dt_init,
    };
    let coeffs = face_coefficients(&fields.grid, &fields.density, Conductivity::Reciprocal);
    let csr = assemble_matrix(&fields.grid, &coeffs, fields.dt);
    let rhs = assemble_rhs(&fields.density, &fields.energy);
    warm_pool();
    Setup {
        campaigns,
        system: System {
            csr,
            config: ProtectionConfig::full(EccScheme::Secded64),
            rhs,
            tealeaf: Some(fields),
        },
    }
}

/// One round: every row streamed once.  Returns the per-row class counts
/// and wall times.
pub fn round(setup: &Setup, stream: &StreamConfig, tracer: &Tracer) -> Vec<([usize; 5], f64)> {
    setup
        .campaigns
        .iter()
        .zip(ROWS)
        .map(|(campaign, row)| {
            tracer.span(&format!("faultsim.run_streaming.{row}"), || {
                let start = Instant::now();
                let report = campaign.run_streaming(stream);
                (class_counts(&report.stats), start.elapsed().as_secs_f64())
            })
        })
        .collect()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let mut out = RunResult::default();
    let (setup, setup_s) = timed_setup(|| setup(seed, GRID, TRIALS));
    out.metric("setup_s", setup_s, "s");
    let stream = stream_config();
    if tracer.enabled() {
        probe_layers(&setup.system, tracer, &mut out);
        probe_faultsim(&setup, &stream, tracer, &mut out);
    }

    let plain = Solver::cg().max_iterations(1_000).tolerance(1e-15);
    let untraced = Tracer::new(false);
    // One untimed round first, so lazily grown buffers and cold caches do
    // not land in the first sample.
    round(&setup, &stream, &untraced);
    let mut first: Option<Vec<[usize; 5]>> = None;
    let mut round_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut plain_solve_s = Vec::new();
    let mut plain_iterations = 0;
    let mut trials = 0usize;
    let mut measured = 0.0;
    let mut index = 0usize;
    while measured < seconds || round_s.is_empty() || (tracer.enabled() && traced_s.is_empty()) {
        let traced = tracer.enabled() && index % 2 == 1;
        let rows = round(&setup, &stream, if traced { tracer } else { &untraced });
        let wall: f64 = rows.iter().map(|r| r.1).sum();
        let counts: Vec<[usize; 5]> = rows.iter().map(|r| r.0).collect();
        measured += wall;
        trials += TRIALS * rows.len();
        out.attempted += (TRIALS * rows.len()) as u64;
        for (row, c) in ROWS.iter().zip(&counts) {
            if c[4] > 0 {
                out.fail(c[4] as u64, || {
                    format!("round {index}: {row} had {} SDC trials", c[4])
                });
            }
        }
        match &first {
            None => first = Some(counts),
            Some(first) => {
                out.check(*first == counts, || {
                    format!(
                        "round {index}: outcome counts {counts:?} differ from round 0 {first:?}"
                    )
                });
            }
        }
        if traced {
            traced_s.push(wall);
        } else {
            round_s.push(wall);
        }
        for _ in 0..3 {
            let start = Instant::now();
            let solved = plain.solve(&setup.system.csr, &setup.system.rhs);
            plain_solve_s.push(start.elapsed().as_secs_f64());
            let converged = solved.is_ok_and(|s| {
                plain_iterations = s.status.iterations;
                s.status.converged
            });
            out.check(converged, || {
                "the plain solve of the trial system did not converge".into()
            });
        }
        index += 1;
    }

    let rounds = Summary::of(&round_s).expect("at least one untraced round");
    let per_trial = rounds.median / (TRIALS * ROWS.len()) as f64;
    out.metric("p50_ms", 1e3 * rounds.median, "ms");
    let per_round = (TRIALS * ROWS.len()) as f64 / rounds.median;
    out.metric("throughput_per_s", per_round, "1/s");
    out.metric("overhead_x", per_trial / median(&plain_solve_s), "x");
    out.metric("solvers.iterations", plain_iterations as f64, "count");
    let first = first.expect("at least one round");
    for (k, class) in CLASSES.iter().enumerate() {
        let total: usize = first.iter().map(|c| c[k]).sum();
        out.metric(&format!("faultsim.outcome.{class}"), total as f64, "count");
    }
    if tracer.enabled() {
        out.metric("trace.overhead_pct", overhead_pct(&traced_s, &round_s), "%");
    }
    out.note(format!(
        "trials_per_s: {per_round:.1} over the median round ({trials} trials in {measured:.3} s); round of {} rows x {TRIALS} trials: {}",
        ROWS.len(),
        rounds.describe("s")
    ));
    for (row, c) in ROWS.iter().zip(&first) {
        out.note(format!(
            "{row}: safe {} corrected {} rebuilt {} due {} sdc {}",
            c[0], c[1], c[2], c[3], c[4]
        ));
    }
    out.note(format!(
        "overhead_x: {:.2} (median trial wall time at {} lanes over the median plain CG solve of the {GRID}x{GRID} trial system, {:.1} us)",
        per_trial / median(&plain_solve_s),
        crate::sys::nproc(),
        1e6 * median(&plain_solve_s)
    ));
    out
}

/// Per-trial draw and execute times, and the engine's wave overhead.
fn probe_faultsim(setup: &Setup, stream: &StreamConfig, tracer: &Tracer, out: &mut RunResult) {
    const SAMPLE: usize = 32;
    let campaign = &setup.campaigns[0];
    let mut trial = 0usize;
    let ns = per_call_ns(tracer, "faultsim.draw", || {
        black_box(campaign.draw_trial(trial % TRIALS));
        trial += 1;
    });
    out.metric("faultsim.draw_ns", ns, "ns");

    let lanes = crate::sys::nproc() as f64;
    let waves = TRIALS.div_ceil(stream.batch) as f64;
    let mut overheads = Vec::new();
    for (campaign, row) in setup.campaigns.iter().zip(ROWS) {
        let draws: Vec<_> = (0..TRIALS).map(|t| campaign.draw_trial(t)).collect();
        let name = format!("faultsim.execute.{row}");
        let executes: Vec<f64> = draws
            .iter()
            .map(|d| {
                tracer.span(&name, || {
                    let start = Instant::now();
                    black_box(campaign.execute_draw(d));
                    start.elapsed().as_nanos() as f64
                })
            })
            .collect();
        let sampled = &executes[..SAMPLE.min(executes.len())];
        out.metric(&format!("faultsim.execute_ns.{row}"), median(sampled), "ns");
        let wall = tracer.span(&format!("faultsim.run_streaming.{row}"), || {
            let start = Instant::now();
            black_box(campaign.run_streaming(stream));
            start.elapsed().as_nanos() as f64
        });
        let busy: f64 = executes.iter().sum();
        overheads.push((wall - busy / lanes) / waves);
    }
    out.metric("faultsim.wave_overhead_ns", median(&overheads), "ns");
}
