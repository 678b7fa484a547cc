//! How fast the host is running the benchmark's CPU at the moment.
//!
//! On a shared VM the same code runs at one speed for a while and up to
//! about 1.6× slower for the next, as whatever shares the physical core
//! comes and goes; the guest sees almost no steal time for it. Such a
//! phase lasts from a tenth of a second to minutes, so it moves a whole
//! run's median by up to that factor. A short fixed kernel, timed between
//! operations, reads the host's speed. It runs no code of the program, so
//! which operations it marks as timed on a slow host does not depend on
//! the code under test.

use std::time::Instant;

/// An operation counts when the probe taken just before it was within
/// this factor of the run's fastest probe. Host phases differ by 1.4× or
/// more; probes within one phase by a few percent.
pub const FAST_SLACK: f64 = 1.1;

/// Words in the probe's buffer: 32 KiB, so the kernel stays in L1 and
/// times the core, not the memory system.
const PROBE_WORDS: usize = 4096;

/// Passes over the buffer per timing, about 15 µs on a 2-vCPU Xeon VM:
/// short, so that a thread of the program waking on the same CPU seldom
/// lands inside a timing.
const PROBE_PASSES: usize = 5;

/// Timings per probe; the probe reads the fastest, so a preemption
/// during one timing does not mark the host slow.
const PROBE_TIMINGS: usize = 5;

pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        Self { buf: vec![1; PROBE_WORDS] }
    }

    /// Fastest of [`PROBE_TIMINGS`] timings of the fixed kernel, µs.
    pub fn time_us(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..PROBE_TIMINGS {
            let t0 = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(&mut self.buf)));
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        best
    }
}

/// A multiply-xorshift pass over the buffer, [`PROBE_PASSES`] times.
fn kernel(buf: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for pass in 0..PROBE_PASSES {
        for (i, v) in buf.iter_mut().enumerate() {
            *v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add((i ^ pass) as u64);
            acc ^= *v >> 7;
        }
    }
    acc
}

/// Which probes were taken while the host ran near its fastest of the
/// run: within [`FAST_SLACK`] of the fastest probe. A run spent wholly on
/// a slow host keeps every probe, and reads slow.
pub fn fast(probes_us: &[f64]) -> Vec<bool> {
    let best = probes_us.iter().copied().fold(f64::INFINITY, f64::min);
    probes_us.iter().map(|&p| p <= best * FAST_SLACK).collect()
}
