//! Host-speed calibration of the end-to-end timings.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 2×
//! within minutes, far more than any bound a regression check can use.
//! On the 2-vCPU host it was built on, two kinds of drift showed: one
//! thread running up to 1.7× slower from one second to the next, and
//! spells of minutes in which the second vCPU was all but gone, so work
//! on two threads took twice as long while work on one did not slow.
//!
//! So every end-to-end timing is bracketed by a fixed calibration kernel
//! — bench code only, which no change to the program can move — run on as
//! many threads at once as the timed call uses, and reported in
//! *reference seconds*: its wall time times the kernel's reference time
//! ([`REF_CAL_S`]) over the kernel's time right before or after it. On a
//! host running at the reference speed, reference seconds are wall
//! seconds; when the host slows both down alike, the ratio stays put.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;
use std::time::Instant;

/// Seconds the calibration kernel takes at the reference speed on one
/// and on two threads at once: typical values on the host the benchmark
/// was built on when both of its vCPUs ran. Two threads include spawning
/// and joining the second.
pub const REF_CAL_S: [f64; 2] = [0.95e-3, 1.15e-3];

/// Every calibration time of the run, per thread count, for
/// [`median_calibration_s`].
static TIMES: Mutex<[Vec<f64>; 2]> = Mutex::new([Vec::new(), Vec::new()]);

/// The kernel: pushes and pops LCG keys through a binary heap of about
/// 2 000 entries, the access pattern of a discrete-event queue.
fn kernel() {
    let mut heap = BinaryHeap::with_capacity(4096);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..20_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        heap.push(Reverse(x >> 16));
        if heap.len() > 2048 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
    }
    std::hint::black_box(acc);
}

/// Index into [`REF_CAL_S`]: the benchmark times calls on one or two
/// threads.
fn slot(threads: usize) -> usize {
    threads.clamp(1, 2) - 1
}

/// Runs the kernel on `threads` threads at once (1 or 2); returns the
/// wall seconds until every copy has finished.
pub fn calibration_s(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..slot(threads) {
            s.spawn(kernel);
        }
        kernel();
    });
    let secs = start.elapsed().as_secs_f64();
    TIMES.lock().unwrap_or_else(|e| e.into_inner())[slot(threads)].push(secs);
    secs
}

/// Seconds spent in the calibration kernel so far.
fn calibration_total_s() -> f64 {
    let times = TIMES.lock().unwrap_or_else(|e| e.into_inner());
    times.iter().flatten().sum()
}

/// Wall time of a round less the time its calibration kernels took, so
/// untraced rounds compare with traced ones, which run no kernel.
pub struct RoundClock {
    start: Instant,
    calibrated: f64,
}

impl RoundClock {
    pub fn start() -> Self {
        RoundClock {
            start: Instant::now(),
            calibrated: calibration_total_s(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - (calibration_total_s() - self.calibrated)
    }
}

/// Median calibration time of the run so far on one and on two threads:
/// how fast the host ran against [`REF_CAL_S`]. NaN where none ran.
pub fn median_calibration_s() -> [f64; 2] {
    let times = TIMES.lock().unwrap_or_else(|e| e.into_inner());
    [
        crate::stats::median(&times[0]),
        crate::stats::median(&times[1]),
    ]
}

/// `secs` of wall time of a call on `threads` threads in reference
/// seconds, given the kernel's seconds right before and after it. The
/// faster of the two sets the scale: file writes leave the host busy with
/// write-back for a few milliseconds, which slows whichever kernel run
/// lands in it.
pub fn to_ref(secs: f64, threads: usize, before: f64, after: f64) -> f64 {
    secs * REF_CAL_S[slot(threads)] / before.min(after)
}

/// The kernel's time at the start of a stretch of work.
pub struct Gauge {
    threads: usize,
    before: Option<f64>,
}

impl Gauge {
    /// Runs the kernel on `threads` threads now, unless `calibrate` is
    /// false (traced rounds, whose spans must not hold the kernel).
    pub fn start(calibrate: bool, threads: usize) -> Self {
        Gauge {
            threads,
            before: calibrate.then(|| calibration_s(threads)),
        }
    }

    /// `secs` of wall time measured since [`Gauge::start`], in reference
    /// seconds; plain wall seconds when not calibrating.
    pub fn finish(self, secs: f64) -> f64 {
        match self.before {
            Some(before) => to_ref(secs, self.threads, before, calibration_s(self.threads)),
            None => secs,
        }
    }
}

/// Runs `f`, a call that keeps `threads` threads busy; returns its result
/// and its time, in reference seconds when `calibrate` is true.
pub fn timed<T>(calibrate: bool, threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let gauge = Gauge::start(calibrate, threads);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    (out, gauge.finish(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_cancel_host_speed() {
        for threads in [1, 2] {
            let r = REF_CAL_S[threads - 1];
            // At the reference speed, reference seconds are wall seconds.
            assert!((to_ref(0.2, threads, r, r) - 0.2).abs() < 1e-15);
            // A host twice as slow takes twice as long for both.
            assert!((to_ref(0.4, threads, 2.0 * r, 2.0 * r) - 0.2).abs() < 1e-15);
            // Write-back after the call slows only the kernel run after it.
            assert_eq!(to_ref(0.2, threads, r, 6.0 * r), 0.2);
        }
        // Uncalibrated timing is wall time, and the kernel takes time.
        let ((), secs) = timed(false, 2, || ());
        assert!(secs >= 0.0);
        assert!(calibration_s(1) > 0.0 && calibration_s(2) > 0.0);
    }
}
