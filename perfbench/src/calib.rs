//! Machine calibration, after Arza et al.: a fixed kernel written here,
//! in code no change to the program touches, timed between samples of
//! the workload. The machine this benchmark runs on shares its cores,
//! and its speed drifts by tens of percent over tens of seconds; the
//! kernel drifts with it. Each sample is therefore also reported scaled
//! to the reference speed below, so a slower machine shows in
//! `host.calib_s` and not as a slower program.

use crate::{elapsed_s, median};
use apples_bench::wallclock::WallClock;
use apples_bench::Pool;

/// The kernel's median wall time on the machine the benchmark was
/// defined on (a 2-vCPU x86-64 VM). Scaled times are seconds at that
/// machine's speed.
pub const REFERENCE_S: f64 = 0.0115;

/// Calibration samples of one run.
pub struct Calibration {
    pool: Pool,
    samples: Vec<f64>,
}

impl Calibration {
    /// Calibrates with `copies` copies of the kernel run in parallel on
    /// the pool: one per thread the scaled samples keep busy, so the
    /// calibration also sees a neighbour holding one of the cores.
    pub fn new(copies: usize) -> Self {
        Calibration { pool: Pool::with_workers(copies), samples: Vec::new() }
    }

    /// Times one calibration and returns its wall seconds.
    pub fn sample(&mut self) -> f64 {
        let clock = WallClock::start();
        let salts: Vec<u64> = (0..self.pool.workers() as u64).collect();
        std::hint::black_box(self.pool.map(salts, |salt| kernel(std::hint::black_box(salt))));
        let secs = elapsed_s(&clock);
        self.samples.push(secs);
        secs
    }

    /// The factor that scales a sample taken between calibrations
    /// `before` and `after` to the reference speed.
    pub fn scale(before: f64, after: f64) -> f64 {
        2.0 * REFERENCE_S / (before + after)
    }

    /// Median calibration time of the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }
}

/// Integer and floating-point work over a 128 KiB buffer. Plain adds,
/// multiplies and shifts that compile the same on every x86-64 level,
/// chained so the loop cannot be vectorised.
fn kernel(salt: u64) -> u64 {
    let mut buf = vec![0u64; 1 << 14];
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ salt;
    let mut acc = 0.0f64;
    for round in 0..192u64 {
        for (i, slot) in buf.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = slot.wrapping_add(x ^ (i as u64).wrapping_mul(round));
            acc = acc * 0.999_999 + (x >> 40) as f64;
        }
    }
    buf.iter().fold(acc.to_bits(), |h, v| h.rotate_left(5) ^ v)
}
