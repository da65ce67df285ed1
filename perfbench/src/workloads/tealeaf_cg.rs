//! `tealeaf_cg`: the paper's workload.  One TeaLeaf heat-conduction time
//! step, CG to the deck tolerance with SECDED64 on matrix and vectors and
//! parallel kernels, against the unprotected step at the same lane count.
//!
//! Every timed step starts from the same initial state, so each sample
//! does the same work and the iteration count repeats exactly.

use super::{overhead_pct, timed_setup, warm_pool};
use crate::inputs::tealeaf_deck;
use crate::probes::{probe_layers, System, TealeafFields};
use crate::report::RunResult;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use abft_core::{AnyProtectedMatrix, EccScheme, ProtectionConfig, StorageTier};
use abft_tealeaf::assembly::{assemble_matrix, assemble_rhs, face_coefficients, Conductivity};
use abft_tealeaf::{Simulation, StepReport};
use std::hint::black_box;
use std::time::Instant;

/// Cells per side of the deck.
const CELLS: usize = 384;

/// CG tolerance on the squared residual norm.
const EPS: f64 = 1e-10;

/// Largest relative field-summary difference between the protected and
/// the unprotected step (the masked mantissa bits bound it).
const SUMMARY_TOLERANCE: f64 = 1e-9;

/// The protected and unprotected simulations at their initial state.
pub struct Setup {
    /// SECDED64 on matrix and vectors, parallel kernels.
    pub protected: Simulation,
    /// No protection, parallel kernels.
    plain: Simulation,
    /// The first step's system, for the layer probes.
    system: System,
}

/// Builds the deck for `seed`, both simulations and the first step's
/// encoded system, and warms the pool.
pub fn setup(seed: u64, cells: usize) -> Setup {
    let deck = tealeaf_deck(seed, cells, EPS);
    let protection = ProtectionConfig::full(EccScheme::Secded64).with_parallel(true);
    let protected = Simulation::new(deck.clone()).with_protection(protection);
    let plain =
        Simulation::new(deck).with_protection(ProtectionConfig::unprotected().with_parallel(true));
    let fields = TealeafFields {
        grid: protected.grid().clone(),
        density: protected.density().to_vec(),
        energy: protected.energy().to_vec(),
        dt: protected.deck().dt_init,
    };
    let coeffs = face_coefficients(&fields.grid, &fields.density, Conductivity::Reciprocal);
    let csr = assemble_matrix(&fields.grid, &coeffs, fields.dt);
    let rhs = assemble_rhs(&fields.density, &fields.energy);
    black_box(
        AnyProtectedMatrix::encode(&csr, &protection, StorageTier::Csr)
            .expect("the TeaLeaf matrix encodes under SECDED64"),
    );
    warm_pool();
    Setup {
        protected,
        plain,
        system: System {
            csr,
            config: protection,
            rhs,
            tealeaf: Some(fields),
        },
    }
}

/// One time step from `initial`'s state: the report and its wall time in
/// seconds, assembly to updated field.
pub fn step(initial: &Simulation) -> (Option<StepReport>, f64) {
    let mut sim = initial.clone();
    let start = Instant::now();
    let report = sim.step(0).ok();
    (report, start.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let mut out = RunResult::default();
    let (setup, setup_s) = timed_setup(|| setup(seed, CELLS));
    out.metric("setup_s", setup_s, "s");
    if tracer.enabled() {
        probe_layers(&setup.system, tracer, &mut out);
    }

    // One untimed pair first, so lazily grown buffers and cold caches do
    // not land in the first sample.
    step(&setup.plain);
    step(&setup.protected);

    let mut protected_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut ratios = Vec::new();
    let mut traced_s = Vec::new();
    let mut iterations = Vec::new();
    let mut measured = 0.0;
    let mut pair = 0usize;
    while measured < seconds || protected_s.is_empty() || (tracer.enabled() && traced_s.is_empty())
    {
        let (plain, plain_t) = step(&setup.plain);
        let traced = tracer.enabled() && pair % 2 == 1;
        let (protected, protected_t) = if traced {
            tracer.span("tealeaf.step", || step(&setup.protected))
        } else {
            step(&setup.protected)
        };
        measured += plain_t + protected_t;
        pair += 1;
        out.attempted += 2;
        let (Some(plain), Some(protected)) = (plain, protected) else {
            out.fail(2, || format!("step pair {pair}: a step returned an error"));
            continue;
        };
        let diff = protected.summary.max_relative_difference(&plain.summary);
        let ok = plain.converged
            && protected.converged
            && protected.faults.total_corrected() == 0
            && protected.faults.total_uncorrectable() == 0
            && diff <= SUMMARY_TOLERANCE;
        out.check(ok, || {
            format!(
                "step pair {pair}: converged {}/{}, corrected {}, summary difference {diff:e}",
                plain.converged,
                protected.converged,
                protected.faults.total_corrected()
            )
        });
        iterations.push(protected.iterations as f64);
        if traced {
            traced_s.push(protected_t);
        } else {
            protected_s.push(protected_t);
        }
        plain_s.push(plain_t);
        ratios.push(protected_t / plain_t);
    }

    let solve = Summary::of(&protected_s).expect("at least one protected step");
    let iters = median(&iterations);
    out.metric("p50_ms", 1e3 * solve.median, "ms");
    out.metric("throughput_per_s", iters / solve.median, "1/s");
    out.metric("overhead_x", median(&ratios), "x");
    out.metric("solvers.iterations", iters, "count");
    if tracer.enabled() {
        out.metric(
            "trace.overhead_pct",
            overhead_pct(&traced_s, &protected_s),
            "%",
        );
    }
    out.note(format!("solve_s (protected step): {}", solve.describe("s")));
    if let Some(plain) = Summary::of(&plain_s) {
        out.note(format!(
            "solve_s (unprotected step): {}",
            plain.describe("s")
        ));
    }
    out.note(format!(
        "overhead_x: {:.3} (median of {} protected/unprotected pairs); iterations per step: {iters}; {CELLS}x{CELLS} cells, eps {EPS:e}",
        median(&ratios),
        ratios.len()
    ));
    out
}
