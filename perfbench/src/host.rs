//! Process-level measurements read from `/proc` (Linux): CPU time of
//! every thread the process ran, and its peak resident set.

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU seconds of this process so far, including threads
/// that have already exited. `/proc/self/stat` counts in USER_HZ ticks,
/// which the kernel fixes at 100 per second for userspace.
///
/// # Errors
///
/// The file is missing or malformed (not Linux).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// The file is missing or has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".into())
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_positive() {
        assert!(super::cpu_seconds().expect("reads") >= 0.0);
        assert!(super::peak_rss_mb().expect("reads") > 0.0);
        assert!(super::nproc() >= 1);
    }
}
