//! CPU time consumed by this process, the unit of the benchmark's bounded
//! throughput and cost metrics.
//!
//! On a small shared host the wall-clock time of a request that crosses
//! four threads is set mostly by when the hypervisor runs each of them,
//! and it moves by 2× from one minute to the next; the CPU time the work
//! consumes does not. Wall-clock figures are still printed with every run.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` (`getconf CLK_TCK` on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads
/// included, at clock-tick resolution.
#[must_use]
pub fn process_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the line, so 12th and 13th here.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU seconds run by the process's live threads, at nanosecond
/// resolution (the scheduler's `se.sum_exec_runtime`). Threads that have
/// exited are not counted: use it across intervals in which no thread
/// ends, and in which the other threads are blocked when it is read (a
/// running thread's figure lags by up to a scheduler tick).
#[must_use]
pub fn live_threads_s() -> f64 {
    // The scheduler brings the calling thread's figure up to date when the
    // thread blocks; otherwise it would lag by up to a tick.
    std::thread::sleep(std::time::Duration::from_micros(1));
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ms = 0.0;
    for task in tasks.flatten() {
        let sched = fs::read_to_string(task.path().join("sched")).unwrap_or_default();
        ms += sched
            .lines()
            .find(|l| l.starts_with("se.sum_exec_runtime"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
    }
    ms / 1e3
}

/// CPU seconds [`reference_s`] took, on average, on the 2-vCPU virtual
/// machine the benchmark was defined on.
pub const REFERENCE_NOMINAL_S: f64 = 1.5e-3;

/// How much faster than nominal the host ran during a run, from the
/// reference kernel's samples: multiply a CPU cost by it (divide a rate)
/// to report it at nominal host speed. A shared host's speed moves by
/// ±15% from one minute to the next; the kernel, sampled between the
/// measured windows, moves with it, and the ratio cancels most of that.
#[must_use]
pub fn host_scale(reference: &[f64]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    REFERENCE_NOMINAL_S / (reference.iter().sum::<f64>() / reference.len() as f64)
}

/// CPU seconds of one run of a fixed reference kernel: a pseudo-random
/// walk with floating-point updates over a 2 MB table. It is the
/// benchmark's own code, so only the host's speed moves it.
#[must_use]
pub fn reference_s(table: &mut [f64]) -> f64 {
    let cpu0 = live_threads_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let mask = table.len() - 1;
    for _ in 0..200_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 40) as usize & mask;
        acc = acc * 0.999 + table[i].sqrt();
        table[i] = acc;
    }
    std::hint::black_box(acc);
    live_threads_s() - cpu0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_s(), live_threads_s());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            live_threads_s() - t0 > 0.03,
            "a busy 60 ms shows in the thread clock"
        );
        assert!(process_s() >= p0);
    }
}
