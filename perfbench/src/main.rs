//! `abft-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end ones, or with
//! `--trace 1` the per-layer ones.  Exits 1 when an output check fails
//! and 2 on bad arguments.

use abft_perfbench::trace::{self_time_by_layer_ns, Tracer};
use abft_perfbench::{run_workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: abft-perfbench --workload <tealeaf_cg|serve_panels|campaign_mix> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where a traced run writes its spans: next to the executable, inside
/// the build directory.
fn spans_path(workload: &str, seed: u64) -> Option<PathBuf> {
    let dir = std::env::current_exe()
        .ok()?
        .parent()?
        .join("perfbench-trace");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("{workload}-seed{seed}.json")))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut result = run_workload(&args.workload, args.seed, args.seconds, &tracer)
        .expect("workload name was validated");

    let names: Vec<&str> = if args.trace {
        let mut missing = Vec::new();
        for (name, unit) in PER_LAYER {
            if !result.metrics.iter().any(|m| m.name == name) {
                result.metric(name, 0.0, unit);
                missing.push(name);
            }
        }
        if !missing.is_empty() {
            result.note(format!(
                "not exercised by {} (reported as 0): {}",
                args.workload,
                missing.join(", ")
            ));
        }
        let by_layer: Vec<String> = self_time_by_layer_ns(&tracer.spans())
            .iter()
            .map(|(layer, ns)| format!("{layer} {:.1}", *ns as f64 / 1e6))
            .collect();
        result.note(format!(
            "span self time by layer over the traced run (ms): {}",
            by_layer.join(", ")
        ));
        if let Some(path) = spans_path(&args.workload, args.seed) {
            match std::fs::write(&path, tracer.to_json()) {
                Ok(()) => result.note(format!("spans written to {}", path.display())),
                Err(e) => result.note(format!("spans not written: {e}")),
            }
        }
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };

    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    for line in &result.notes {
        println!("{line}");
    }
    for name in &names {
        let m = result
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .expect("filled above");
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_frac {:.6} ({} of {} failed)",
        result.fail_frac(),
        result.failed,
        result.attempted
    );
    for mismatch in &result.mismatches {
        println!("CHECK FAILED: {mismatch}");
    }
    println!("{}", result.json(&names));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
