//! What the kernel reports about this process (`/proc/self`).

use std::fs;

/// Bytes in a MiB, for reporting.
pub const MIB: f64 = 1_048_576.0;

fn status_bytes(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0)
}

/// Peak resident set size so far, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> f64 {
    status_bytes("VmHWM:")
}

/// Current resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_bytes("VmRSS:")
}

/// User plus system CPU time of all threads, in nanoseconds. The kernel
/// reports clock ticks; Linux fixes `USER_HZ` at 100, so the resolution
/// is 10 ms, fine against phases that last seconds.
pub fn cpu_ns() -> f64 {
    const NS_PER_TICK: f64 = 1e9 / 100.0;
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; fields are
            // counted from the parenthesis that closes it.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * NS_PER_TICK)
        })
        .unwrap_or(0.0)
}
