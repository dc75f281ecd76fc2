//! Service-level-objective classes and their mapping onto the
//! deadline-aware frequency selector.

use crate::tenant::validate_range;
use greengpu_policy::{DeadlineParams, LossParams};

/// What a tenant is promised. The class decides both how jobs are
/// decorated at generation time (deadlines) and how the dispatcher may
/// treat them (immediate vs deferrable).
#[derive(Debug, Clone, PartialEq)]
pub enum SloClass {
    /// Every job carries a deadline drawn as a uniform slack multiplier
    /// over its reference (peak-clock) service time. These jobs dispatch
    /// immediately and drive the deadline-miss-rate metric.
    LatencyBound {
        /// Uniform slack-multiplier range (`lo <= hi`, both > 1 for
        /// meetable deadlines).
        deadline_slack: (f64, f64),
    },
    /// No per-job deadlines; the tenant is judged on its completion
    /// rate (completed / admitted) against this target.
    ThroughputBound {
        /// Target completion rate in `(0, 1]`.
        target_completion_rate: f64,
    },
    /// Deferrable work: the dispatcher may hold a job back waiting for a
    /// green/cheap window, but never longer than this horizon.
    BestEffort {
        /// Maximum deferral per job, seconds.
        deferral_horizon_s: f64,
    },
}

impl SloClass {
    /// Stable label for telemetry tables.
    pub fn name(&self) -> &'static str {
        match self {
            SloClass::LatencyBound { .. } => "latency",
            SloClass::ThroughputBound { .. } => "throughput",
            SloClass::BestEffort { .. } => "best-effort",
        }
    }

    /// Non-panicking parameter check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        match self {
            SloClass::LatencyBound { deadline_slack } => {
                validate_range("slo.deadline_slack", *deadline_slack)?;
            }
            SloClass::ThroughputBound { target_completion_rate } => {
                if !(target_completion_rate.is_finite()
                    && *target_completion_rate > 0.0
                    && *target_completion_rate <= 1.0)
                {
                    return Err(format!(
                        "slo.target_completion_rate must be in (0, 1], got {target_completion_rate}"
                    ));
                }
            }
            SloClass::BestEffort { deferral_horizon_s } => {
                if !(deferral_horizon_s.is_finite() && *deferral_horizon_s > 0.0) {
                    return Err(format!(
                        "slo.deferral_horizon_s must be finite and > 0, got {deferral_horizon_s}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether the dispatcher may defer this class's jobs.
    pub fn deferrable(&self) -> bool {
        matches!(self, SloClass::BestEffort { .. })
    }

    /// Maximum deferral for this class, seconds (0 for non-deferrable
    /// classes).
    pub fn deferral_horizon_s(&self) -> f64 {
        match self {
            SloClass::BestEffort { deferral_horizon_s } => *deferral_horizon_s,
            _ => 0.0,
        }
    }

    /// The seam onto `crates/policy::deadline`: a latency-bound class
    /// turns its mean slack into a per-node DVFS time budget over the
    /// reference (peak-clock) service time — the node's frequency
    /// selector then picks the cheapest pair that still meets the
    /// slack-derived budget ("slack-derived caps"). Non-latency classes
    /// have no time budget and return `None`.
    pub fn deadline_params(&self, peak_time_s: f64) -> Option<DeadlineParams> {
        match self {
            SloClass::LatencyBound {
                deadline_slack: (lo, hi),
            } => {
                let mean_slack = 0.5 * (lo + hi);
                Some(DeadlineParams {
                    time_budget_s: (peak_time_s * mean_slack).max(1e-9),
                    // The queueing delay eats part of the slack; run the
                    // selector against 90 % of the budget.
                    slack: 0.9,
                    loss: LossParams::default(),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(
            SloClass::LatencyBound {
                deadline_slack: (2.0, 4.0)
            }
            .name(),
            "latency"
        );
        assert_eq!(
            SloClass::ThroughputBound {
                target_completion_rate: 0.9
            }
            .name(),
            "throughput"
        );
        assert_eq!(
            SloClass::BestEffort {
                deferral_horizon_s: 60.0
            }
            .name(),
            "best-effort"
        );
    }

    #[test]
    fn validation_names_the_offending_field() {
        let bad = SloClass::LatencyBound {
            deadline_slack: (4.0, 2.0),
        };
        assert!(bad.try_validate().unwrap_err().contains("deadline_slack"));
        let bad = SloClass::ThroughputBound {
            target_completion_rate: 1.5,
        };
        assert!(bad.try_validate().unwrap_err().contains("target_completion_rate"));
        let bad = SloClass::BestEffort {
            deferral_horizon_s: 0.0,
        };
        assert!(bad.try_validate().unwrap_err().contains("deferral_horizon_s"));
    }

    #[test]
    fn deadline_seam_derives_a_budget_from_the_slack() {
        let slo = SloClass::LatencyBound {
            deadline_slack: (2.0, 6.0),
        };
        let p = slo.deadline_params(3.0).expect("latency class maps");
        assert!((p.time_budget_s - 12.0).abs() < 1e-12, "3 s * mean slack 4");
        assert!(p.try_validate().is_ok());
        assert!(SloClass::BestEffort {
            deferral_horizon_s: 60.0
        }
        .deadline_params(3.0)
        .is_none());
    }

    #[test]
    fn deferral_horizon_only_for_best_effort() {
        assert!(SloClass::BestEffort {
            deferral_horizon_s: 90.0
        }
        .deferrable());
        assert!(
            (SloClass::BestEffort {
                deferral_horizon_s: 90.0
            }
            .deferral_horizon_s()
                - 90.0)
                .abs()
                < 1e-12
        );
        let lat = SloClass::LatencyBound {
            deadline_slack: (2.0, 4.0),
        };
        assert!(!lat.deferrable());
        assert_eq!(lat.deferral_horizon_s(), 0.0);
    }
}
