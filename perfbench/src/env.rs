//! Where a run is placed and what the machine was doing meanwhile:
//! the pinned CPU, CPU count and model, the hypervisor's steal time, and
//! the process's peak memory. Everything is read from procfs; on a
//! system without it the fields read as unknown and the run goes on.

use serde::Value;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU mask words (1024 CPUs, the size of glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

/// Where the run is placed: the CPUs the process was given, and the one
/// it pinned itself to.
pub struct Placement {
    nproc: usize,
    allowed: String,
    pinned: Option<usize>,
}

/// Pin the calling thread, and so every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on.
///
/// A closed loop has one request in flight, so client, server, router
/// and shard threads never need two CPUs at once. Spread over two vCPUs,
/// each hand-off wakes a halted vCPU, and that wake-up costs whatever the
/// host's scheduler makes it cost: single-request p50 moved between 13
/// and 30 µs from minute to minute, while the same requests on one CPU
/// held 12–13 µs.
pub fn pin_to_one_cpu() -> Placement {
    Placement {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        allowed: status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string()),
        pinned: pin(),
    }
}

fn pin() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).rev().find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(key: &str) -> Option<String> {
    proc_file("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim_start_matches(':').trim().to_string()))
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Aggregate CPU time counters from `/proc/stat`, in clock ticks:
/// `(steal, total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = proc_file("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// The run's environment record, with the steal share over the run.
pub fn record(placement: &Placement, before: (u64, u64), after: (u64, u64)) -> Value {
    let cpu_model = proc_file("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string();
    let steal = after.0.saturating_sub(before.0);
    let total = after.1.saturating_sub(before.1).max(1);
    Value::Object(vec![
        ("nproc".to_string(), Value::Number(placement.nproc as f64)),
        ("cpu_model".to_string(), Value::String(cpu_model)),
        ("cpus_allowed".to_string(), Value::String(placement.allowed.clone())),
        (
            "pinned_cpu".to_string(),
            placement.pinned.map_or(Value::Null, |c| Value::Number(c as f64)),
        ),
        ("steal_ticks".to_string(), Value::Number(steal as f64)),
        ("steal_share".to_string(), Value::Number(steal as f64 / total as f64)),
    ])
}
