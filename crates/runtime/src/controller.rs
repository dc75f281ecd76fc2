//! The controller interface between the runtime and the management policy.
//!
//! GreenGPU's two tiers — and every baseline the paper compares against —
//! are implemented as [`Controller`]s: the runtime calls `on_dvfs_tick` on a
//! fixed period (the frequency-scaling tier's invocation) and
//! `on_iteration_end` at every iteration boundary (the workload-division
//! tier's invocation).
//!
//! The runtime deliberately knows nothing about *how* levels are chosen:
//! inside `on_dvfs_tick` the GreenGPU controller delegates the pair
//! decision to a pluggable `FreqPolicy` (the `greengpu-policy` crate —
//! the paper's WMA, switching-aware bandits, or deadline-aware
//! selection), so every policy runs under the same sensing, actuation
//! verification, and power-cap masking.

use greengpu_hw::Platform;
use greengpu_sim::{SimDuration, SimTime};

/// Measurements handed to the division tier at an iteration boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationInfo {
    /// Iteration index just completed.
    pub index: usize,
    /// CPU share `r` used in this iteration.
    pub cpu_share: f64,
    /// Time the CPU spent computing its chunk, seconds (`tc`).
    pub tc_s: f64,
    /// Time the GPU side took to finish its chunk, seconds (`tg`).
    pub tg_s: f64,
}

/// A management policy plugged into the runtime.
pub trait Controller {
    /// CPU share for the first iteration.
    fn initial_share(&self) -> f64;

    /// Invocation period of the frequency-scaling tier; `None` disables the
    /// DVFS loop entirely.
    fn dvfs_period(&self) -> Option<SimDuration>;

    /// Frequency-scaling tick: read the platform's sensors, pick levels,
    /// actuate.
    fn on_dvfs_tick(&mut self, platform: &mut Platform, now: SimTime);

    /// Division tick: decide the CPU share for the next iteration.
    fn on_iteration_end(&mut self, info: &IterationInfo, platform: &mut Platform, now: SimTime) -> f64;
}

/// A do-nothing policy with a fixed division ratio — the building block of
/// the paper's static baselines (e.g. *best-performance* pins peak clocks
/// externally and runs `FixedController::gpu_only()`).
#[derive(Debug, Clone)]
pub struct FixedController {
    share: f64,
}

impl FixedController {
    /// Fixed CPU share `r` for every iteration.
    pub fn new(share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share));
        FixedController { share }
    }

    /// The Rodinia default: everything on the GPU.
    pub fn gpu_only() -> Self {
        FixedController::new(0.0)
    }
}

impl Controller for FixedController {
    fn initial_share(&self) -> f64 {
        self.share
    }

    fn dvfs_period(&self) -> Option<SimDuration> {
        None
    }

    fn on_dvfs_tick(&mut self, _platform: &mut Platform, _now: SimTime) {}

    fn on_iteration_end(&mut self, _info: &IterationInfo, _platform: &mut Platform, _now: SimTime) -> f64 {
        self.share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_controller_never_moves() {
        let mut c = FixedController::new(0.25);
        assert_eq!(c.initial_share(), 0.25);
        assert_eq!(c.dvfs_period(), None);
        let info = IterationInfo {
            index: 0,
            cpu_share: 0.25,
            tc_s: 10.0,
            tg_s: 1.0,
        };
        let mut p = Platform::default_testbed();
        assert_eq!(c.on_iteration_end(&info, &mut p, SimTime::ZERO), 0.25);
    }

    #[test]
    fn gpu_only_is_share_zero() {
        assert_eq!(FixedController::gpu_only().initial_share(), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_share_panics() {
        FixedController::new(1.5);
    }
}
