//! Process and host counters from `/proc` (Linux). A counter that
//! cannot be read is reported as 0 and never fails a run: they
//! explain a run, they do not gate it.

use std::fs;

/// `USER_HZ`: the unit of the tick counts in `/proc/*/stat`. Linux
/// fixes it at 100 on every architecture the benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11
    // and 12 after the state field that follows the name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Host steal seconds summed over all CPUs since boot: time the
/// hypervisor ran something else while this guest wanted to run.
pub fn host_steal_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of this process, MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
