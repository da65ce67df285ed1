//! End-to-end benchmark of the ABFT suite with a traced per-layer
//! breakdown.  See `README.md` in this directory for the workloads, the
//! metrics and how each layer metric maps onto an end-to-end one.

pub mod inputs;
pub mod probes;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use report::RunResult;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["tealeaf_cg", "serve_panels", "campaign_mix"];

/// End-to-end metrics and units, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("overhead_x", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("ecc.secded64_verify_ns_per_word", "ns"),
    ("ecc.crc32c_ns_per_byte", "ns"),
    ("sparse.spmv_ns", "ns"),
    ("core.matrix_encode_ns", "ns"),
    ("core.matrix_verify_ns", "ns"),
    ("core.spmv_ns", "ns"),
    ("core.spmv_multiply_ns", "ns"),
    ("core.matrix_verify_in_spmv_ns", "ns"),
    ("core.x_scrub_ns", "ns"),
    ("core.out_write_ns", "ns"),
    ("core.dot_ns", "ns"),
    ("core.norm2_ns", "ns"),
    ("core.axpy_ns", "ns"),
    ("core.xpay_ns", "ns"),
    ("core.dot_axpy_ns", "ns"),
    ("core.spmm_ns_per_col", "ns"),
    ("core.parity_refresh_ns", "ns"),
    ("core.checks_per_iter", "count"),
    ("core.spmv_flops", "count"),
    ("core.spmv_bytes_computed", "bytes"),
    ("core.spmv_ops_per_byte", "flop/byte"),
    ("solvers.cg_iter_ns", "ns"),
    ("solvers.cg_iter_1lane_ns", "ns"),
    ("solvers.scaling_eff", "ratio"),
    ("solvers.block_cg_panel_iter_ns", "ns"),
    ("solvers.ilu0_build_ns.selective", "ns"),
    ("solvers.ilu0_build_ns.uniform", "ns"),
    ("solvers.ilu0_apply_ns.selective", "ns"),
    ("solvers.ilu0_apply_ns.uniform", "ns"),
    ("solvers.ft_pcg_iter_ns", "ns"),
    ("solvers.screen_rejects", "count"),
    ("solvers.iterations", "count"),
    ("reconcile.kernel_sum_ns", "ns"),
    ("reconcile.gap_pct", "%"),
    ("serve.submit_ns", "ns"),
    ("serve.drain_overhead_ns", "ns"),
    ("serve.panel_width_mean", "count"),
    ("serve.retries", "count"),
    ("serve.cg_job_p50_ms", "ms"),
    ("serve.pcg_job_p50_ms", "ms"),
    ("pool.scoped_dispatch_ns", "ns"),
    ("pool.job_wait_ns", "ns"),
    ("pool.threads", "count"),
    ("pool.workers", "count"),
    ("pool.nproc", "count"),
    ("faultsim.draw_ns", "ns"),
    ("faultsim.execute_ns.matrix_flips", "ns"),
    ("faultsim.execute_ns.vector_flips", "ns"),
    ("faultsim.execute_ns.chunk_erasure", "ns"),
    ("faultsim.execute_ns.factor_flips", "ns"),
    ("faultsim.wave_overhead_ns", "ns"),
    ("faultsim.outcome.safe", "count"),
    ("faultsim.outcome.corrected", "count"),
    ("faultsim.outcome.rebuilt", "count"),
    ("faultsim.outcome.due", "count"),
    ("faultsim.outcome.sdc", "count"),
    ("tealeaf.assembly_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Runs workload `name`; `None` for an unknown name.  Pool figures and
/// peak memory are added to every result.
pub fn run_workload(name: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Option<RunResult> {
    let lanes = sys::nproc();
    rayon::set_worker_limit(Some(lanes));
    let mut result = match name {
        "tealeaf_cg" => workloads::tealeaf_cg::run(seed, seconds, tracer),
        "serve_panels" => workloads::serve_panels::run(seed, seconds, tracer),
        "campaign_mix" => workloads::campaign_mix::run(seed, seconds, tracer),
        _ => return None,
    };
    let threads = sys::threads();
    let workers = abft_serve::workers();
    result.metric("pool.threads", threads, "count");
    result.metric("pool.workers", workers as f64, "count");
    result.metric("pool.nproc", lanes as f64, "count");
    result.note(format!(
        "pool: {threads} live OS threads, abft_serve::pool::workers() = {workers}, nproc = {lanes}"
    ));
    result.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    Some(result)
}
