//! The machine-speed probe that host times are rescaled by.
//!
//! On a host shared with other tenants the simulator's on-CPU speed
//! changes by half from one minute to the next with identical work
//! (see `README.md`, "Steadiness and bounds"): other tenants' load on
//! the same cores and caches slows it, and a median over one run only
//! follows how much of the run that load covered. The probe is a fixed
//! slice of work of the same kind the simulator's event loop does
//! (random read-modify-write over a 64 KiB table with a data-dependent
//! branch), run between the segments of every timed run so that it
//! sees the same stretches of contention. A host time divided by the
//! probe's mean slice time over the same stretch is the time the run
//! would have taken on the machine at the speed where one slice takes
//! [`REFERENCE_SLICE_S`].
//!
//! The probe is the benchmark's, not the program's, so a change to the
//! program moves the rescaled times exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 64 KiB of `u64`.
const TABLE: usize = 1 << 13;

/// Read-modify-write steps in one slice.
const STEPS: usize = 4000;

/// One slice's host time on an uncontended 2-core Xeon (Emerald Rapids,
/// 2.1 GHz), s: the speed every rescaled time is expressed at.
pub const REFERENCE_SLICE_S: f64 = 21e-6;

/// Slices in one bracket, run before and after a stretch that has no
/// slices inside it.
pub const BRACKET_SLICES: usize = 32;

/// The probe, with its table and its running total.
pub struct Probe {
    table: Vec<u64>,
    state: u64,
    slices: usize,
    secs: f64,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with a warmed table and no slices counted.
    pub fn new() -> Self {
        let mut p = Probe {
            table: vec![1; TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
            slices: 0,
            secs: 0.0,
        };
        p.bracket();
        p.reset();
        p
    }

    /// Forget the slices counted so far.
    pub fn reset(&mut self) {
        self.slices = 0;
        self.secs = 0.0;
    }

    /// Run and time one slice.
    pub fn slice(&mut self) {
        let t = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & (TABLE - 1);
            let v = self.table[j];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= self.table[j.wrapping_mul(7) & (TABLE - 1)];
            }
            self.table[j] = v.wrapping_add(x >> 3);
        }
        self.state = x ^ black_box(acc);
        self.secs += t.elapsed().as_secs_f64();
        self.slices += 1;
    }

    /// Run [`BRACKET_SLICES`] slices.
    pub fn bracket(&mut self) {
        for _ in 0..BRACKET_SLICES {
            self.slice();
        }
    }

    /// Run [`BRACKET_SLICES`] slices on each of `threads` threads at
    /// once, counting them all: a run on several worker threads is
    /// slowed by contention on any of their cores.
    pub fn bracket_on(&mut self, threads: usize) {
        if threads <= 1 {
            return self.bracket();
        }
        let others: Vec<(f64, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut p = Probe::new();
                        p.bracket();
                        (p.secs, p.slices)
                    })
                })
                .collect();
            self.bracket();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        for (secs, slices) in others {
            self.secs += secs;
            self.slices += slices;
        }
    }

    /// Mean host time of the slices counted since the last reset, s.
    pub fn mean_slice_s(&self) -> f64 {
        if self.slices == 0 {
            f64::NAN
        } else {
            self.secs / self.slices as f64
        }
    }

    /// Factor that rescales a host time measured over the counted
    /// slices to the reference speed.
    pub fn to_reference(&self) -> f64 {
        REFERENCE_SLICE_S / self.mean_slice_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_slices_and_resets() {
        let mut p = Probe::new();
        assert!(p.mean_slice_s().is_nan());
        p.slice();
        p.slice();
        assert_eq!(p.slices, 2);
        assert!(p.mean_slice_s() > 0.0 && p.to_reference().is_finite());
        p.reset();
        assert!(p.mean_slice_s().is_nan());
        p.bracket_on(2);
        assert_eq!(p.slices, 2 * BRACKET_SLICES);
    }
}
