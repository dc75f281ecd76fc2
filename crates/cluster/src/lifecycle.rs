//! The node failure-lifecycle FSM and its tuning knobs.
//!
//! A chaos crash moves a node through four states:
//!
//! ```text
//!          crash                    outage elapses
//!   Up ───────────► Crashed ──────────────────────► Restarting
//!   ▲                                                    │
//!   │   probation_intervals clean ticks                  │ restart_s
//!   └───────────────────────── Probation ◄───────────────┘
//!                                          (checkpoint restored → warm,
//!                                           else cold)
//! ```
//!
//! * **Crashed** — the node is dark: learner state and the in-flight job
//!   are gone, its power demand is zero, and the fleet reclaims its
//!   milliwatts the *same* interval.
//! * **Restarting** — the supervisor is rebuilding the controller; the
//!   node draws only its floor power and accepts no work.
//! * **Probation** — the node is back up and controllable but the
//!   scheduler's circuit breaker decides separately when to trust it with
//!   jobs again; after [`LifecycleParams::probation_intervals`] clean
//!   control ticks it returns to full `Up`.
//!
//! Checkpointing is the warm-restart half: every
//! [`LifecycleParams::checkpoint_period`] control ticks each `Up` node
//! snapshots its controller (see `greengpu::GreenGpuController::snapshot`);
//! a restart restores the last checkpoint when one exists and parses,
//! otherwise it cold-starts and the failure is counted.

/// Where a node is in the failure lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Healthy and serving.
    Up,
    /// Dark after a crash; waiting out the outage.
    Crashed,
    /// Supervisor restart in progress.
    Restarting,
    /// Back up, counting down clean intervals before full trust.
    Probation,
}

impl NodeState {
    /// Stable lowercase name for telemetry columns.
    pub fn name(self) -> &'static str {
        match self {
            NodeState::Up => "up",
            NodeState::Crashed => "crashed",
            NodeState::Restarting => "restarting",
            NodeState::Probation => "probation",
        }
    }
}

/// Fleet-wide failure-lifecycle tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleParams {
    /// Seconds a restart takes once the outage ends.
    pub restart_s: f64,
    /// Clean control ticks before a restarted node leaves probation.
    pub probation_intervals: u64,
    /// Control ticks between learner checkpoints; `None` disables
    /// checkpointing (every restart is cold).
    pub checkpoint_period: Option<u64>,
    /// Re-dispatch attempts for a job lost to a crash before it is
    /// dead-lettered.
    pub max_retries: u32,
    /// Base of the exponential re-dispatch backoff: attempt `n` waits
    /// `retry_backoff_s · 2^(n−1)` seconds.
    pub retry_backoff_s: f64,
    /// Base cooldown of an opened circuit breaker; doubles per
    /// consecutive trip up to `2^breaker_max_backoff_exp`.
    pub breaker_cooldown_s: f64,
    /// Cap on the breaker's cooldown doubling.
    pub breaker_max_backoff_exp: u32,
    /// Dead-lettered job specs kept for inspection; beyond this they are
    /// dropped and counted (`FleetReport::dead_letter_overflow`), so
    /// sustained chaos cannot grow the queue without bound.
    pub dead_letter_capacity: usize,
    /// Base cooldown of a *rack* circuit breaker (hierarchical fleets):
    /// slower than the per-node breaker because a whole rack coming back
    /// is a bigger claim than one node.
    pub rack_breaker_cooldown_s: f64,
    /// Base cooldown of a *zone* circuit breaker (hierarchical fleets).
    pub zone_breaker_cooldown_s: f64,
}

impl Default for LifecycleParams {
    fn default() -> Self {
        LifecycleParams {
            restart_s: 2.0,
            probation_intervals: 3,
            checkpoint_period: Some(10),
            max_retries: 2,
            retry_backoff_s: 2.0,
            breaker_cooldown_s: 4.0,
            breaker_max_backoff_exp: 4,
            dead_letter_capacity: 1024,
            rack_breaker_cooldown_s: 6.0,
            zone_breaker_cooldown_s: 8.0,
        }
    }
}

impl LifecycleParams {
    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.restart_s.is_finite() || self.restart_s <= 0.0 {
            return Err(format!("restart_s must be finite and positive, got {}", self.restart_s));
        }
        if self.probation_intervals == 0 {
            return Err("probation_intervals must be at least 1".to_string());
        }
        if self.checkpoint_period == Some(0) {
            return Err("checkpoint_period must be at least 1 (or None to disable)".to_string());
        }
        if !self.retry_backoff_s.is_finite() || self.retry_backoff_s <= 0.0 {
            return Err(format!(
                "retry_backoff_s must be finite and positive, got {}",
                self.retry_backoff_s
            ));
        }
        if !self.breaker_cooldown_s.is_finite() || self.breaker_cooldown_s <= 0.0 {
            return Err(format!(
                "breaker_cooldown_s must be finite and positive, got {}",
                self.breaker_cooldown_s
            ));
        }
        if self.breaker_max_backoff_exp > 20 {
            return Err(format!(
                "breaker_max_backoff_exp must be at most 20, got {}",
                self.breaker_max_backoff_exp
            ));
        }
        if !self.rack_breaker_cooldown_s.is_finite() || self.rack_breaker_cooldown_s <= 0.0 {
            return Err(format!(
                "rack_breaker_cooldown_s must be finite and positive, got {}",
                self.rack_breaker_cooldown_s
            ));
        }
        if !self.zone_breaker_cooldown_s.is_finite() || self.zone_breaker_cooldown_s <= 0.0 {
            return Err(format!(
                "zone_breaker_cooldown_s must be finite and positive, got {}",
                self.zone_breaker_cooldown_s
            ));
        }
        Ok(())
    }

    /// A configuration with checkpointing disabled — every restart cold.
    pub fn cold_restarts(mut self) -> Self {
        self.checkpoint_period = None;
        self
    }

    /// Sets the checkpoint period (builder style).
    pub fn with_checkpoint_period(mut self, period: u64) -> Self {
        self.checkpoint_period = Some(period);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        assert!(LifecycleParams::default().try_validate().is_ok());
    }

    #[test]
    fn validation_names_the_offending_field() {
        let check = |mutate: &dyn Fn(&mut LifecycleParams), field: &str| {
            let mut p = LifecycleParams::default();
            mutate(&mut p);
            assert!(p.try_validate().unwrap_err().contains(field), "{field}");
        };
        check(&|p| p.restart_s = 0.0, "restart_s");
        check(&|p| p.probation_intervals = 0, "probation_intervals");
        check(&|p| p.checkpoint_period = Some(0), "checkpoint_period");
        check(&|p| p.retry_backoff_s = f64::NAN, "retry_backoff_s");
        check(&|p| p.breaker_cooldown_s = -1.0, "breaker_cooldown_s");
        check(&|p| p.breaker_max_backoff_exp = 64, "breaker_max_backoff_exp");
        check(&|p| p.rack_breaker_cooldown_s = 0.0, "rack_breaker_cooldown_s");
        check(&|p| p.zone_breaker_cooldown_s = f64::NAN, "zone_breaker_cooldown_s");
    }

    #[test]
    fn builders_toggle_checkpointing() {
        assert_eq!(LifecycleParams::default().cold_restarts().checkpoint_period, None);
        assert_eq!(
            LifecycleParams::default().with_checkpoint_period(5).checkpoint_period,
            Some(5)
        );
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(NodeState::Up.name(), "up");
        assert_eq!(NodeState::Crashed.name(), "crashed");
        assert_eq!(NodeState::Restarting.name(), "restarting");
        assert_eq!(NodeState::Probation.name(), "probation");
    }
}
