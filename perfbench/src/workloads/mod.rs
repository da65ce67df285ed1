//! The three closed-loop workloads.  Each builds its inputs from the seed,
//! measures for the requested time and checks its outputs.

pub mod campaign_mix;
pub mod serve_panels;
pub mod tealeaf_cg;

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, so one slow set-up (a cold
/// page cache, a neighbour's burst) does not move it.
pub const SETUP_REPS: usize = 15;

/// Runs `build` [`SETUP_REPS`] times and returns the last result with the
/// median set-up time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("SETUP_REPS > 0"), median(&times))
}

/// Touches both ways into the worker pool — a scoped parallel loop and a
/// detached job — so pool start-up lands in set-up, not in the first
/// timed operation.
pub fn warm_pool() {
    let chunks = rayon::effective_workers() * 4;
    rayon::scope_chunks(chunks, &|c| {
        black_box(c);
    });
    abft_serve::submit(|| ()).wait();
}

/// Median of `traced` over median of `untraced`, as a percentage above 100.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    100.0 * (median(traced) / median(untraced) - 1.0)
}
