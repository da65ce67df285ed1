//! Process-level readings from `/proc/self/status` (Linux).

/// Reads a `kB` or count field of `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live OS threads of this process.
pub fn threads() -> f64 {
    status_field("Threads:").map_or(0.0, |n| n as f64)
}

/// Execution lanes of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
