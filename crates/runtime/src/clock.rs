//! The one sanctioned time source.
//!
//! Every simulated path in the workspace takes time from [`SimTime`]
//! bookkeeping; nothing in a seeded crate may read the wall clock
//! directly (`greengpu-lint`'s `determinism` rule enforces this). Code
//! that genuinely measures host execution goes through the [`Clock`]
//! seam instead, so tests and replays can substitute a [`ManualClock`]
//! and get byte-identical telemetry.
//!
//! [`SimTime`]: greengpu_sim::SimTime

use std::cell::Cell;

/// A monotonic time source, seconds from an arbitrary epoch.
pub trait Clock {
    /// Seconds elapsed since this clock's epoch.
    fn now_s(&self) -> f64;
}

/// The real wall clock. This is the **only** sanctioned wall-clock read
/// in the workspace — everything else must take a [`Clock`] (or simulated
/// time) as a parameter.
#[derive(Debug)]
pub struct WallClock {
    // lint:allow(determinism) the single sanctioned wall-clock source; everything else takes a Clock parameter
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        WallClock {
            // lint:allow(determinism) the single sanctioned wall-clock read behind the Clock seam
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A deterministic clock that only moves when told to; code holding a
/// shared reference can advance it mid-run.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_s: Cell<f64>,
}

impl ManualClock {
    /// A clock reading `start_s`.
    pub fn new(start_s: f64) -> Self {
        ManualClock {
            now_s: Cell::new(start_s),
        }
    }

    /// Moves the clock forward by `ds` seconds (negative deltas are
    /// clamped to zero — the clock is monotonic).
    pub fn advance_s(&self, ds: f64) {
        self.now_s.set(self.now_s.get() + ds.max(0.0));
    }
}

impl Clock for ManualClock {
    fn now_s(&self) -> f64 {
        self.now_s.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_deterministically() {
        let c = ManualClock::new(10.0);
        assert_eq!(c.now_s(), 10.0);
        c.advance_s(2.5);
        assert_eq!(c.now_s(), 12.5);
        c.advance_s(-1.0); // clamped
        assert_eq!(c.now_s(), 12.5);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_s();
        let b = c.now_s();
        assert!(b >= a && a >= 0.0);
    }
}
