//! The benchmark's only clock reads.
//!
//! Timed work is passed in as a closure, so the functions that render or
//! hash a run's outputs never read the clock themselves: timing stays
//! outside everything that is byte-compared.

use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A fixed origin that later instants are measured from.
pub struct Origin(Instant);

impl Origin {
    /// An origin at the current instant.
    pub fn now() -> Origin {
        Origin(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the origin.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
