//! Process and thread accounting read from `/proc` (Linux only; the
//! benchmark fails loudly elsewhere rather than report a made-up cost).

use std::fs;

/// USER_HZ: the unit of the `utime`/`stime` fields of `/proc/*/stat`.
/// Fixed at 100 on every Linux ABI.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by the task directory
/// `task` (`/proc/self/task/<tid>` or `/proc/thread-self`).
///
/// `schedstat` counts on-CPU time in nanoseconds; `stat` only in 10 ms
/// ticks, so it is the fallback for kernels built without scheduler
/// statistics.
fn task_cpu_seconds(task: &str) -> f64 {
    if let Ok(text) = fs::read_to_string(format!("{task}/schedstat")) {
        if let Some(ns) = text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<f64>().ok())
        {
            return ns / 1e9;
        }
    }
    let text = fs::read_to_string(format!("{task}/stat"))
        .unwrap_or_else(|e| panic!("cannot read {task}/stat: {e}"));
    // The command name (field 2) may hold spaces; fields resume after
    // the closing parenthesis, where `state` is field 3.
    let after_comm = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(utime), Some(stime)) => (utime + stime) / CLOCK_TICKS_PER_SECOND,
        _ => panic!("unexpected format of {task}/stat"),
    }
}

/// CPU seconds consumed so far by every live thread of this process.
pub fn process_cpu_seconds() -> f64 {
    let tasks = fs::read_dir("/proc/self/task")
        .unwrap_or_else(|e| panic!("cannot list /proc/self/task: {e}"));
    tasks
        .flatten()
        .map(|entry| task_cpu_seconds(&entry.path().to_string_lossy()))
        .sum()
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    task_cpu_seconds("/proc/thread-self")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| panic!("cannot read /proc/self/status: {e}"));
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = thread_cpu_seconds();
        let mut x = 1u64;
        while thread_cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(process_cpu_seconds() >= 0.02);
        assert!(peak_rss_mb() > 0.5);
    }
}
