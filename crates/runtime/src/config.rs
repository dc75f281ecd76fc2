//! Run configuration.

/// How the CPU side waits for the GPU (paper §VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Synchronized communication: the CPU spins at 100 % utilization while
    /// waiting on the GPU — the benchmark implementation limitation the
    /// paper observes (it defeats the ondemand governor and motivates the
    /// Fig. 6c emulation).
    SynchronizedSpin,
    /// Asynchronous communication: the waiting CPU idles at near-zero
    /// utilization, letting the governor throttle it.
    Async,
}

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// CPU-GPU wait behaviour.
    pub comm_mode: CommMode,
    /// Whether to execute the functional kernels (real results) alongside
    /// the timing simulation. Disable for pure cost-model sweeps.
    pub functional: bool,
    /// GPU reclock stall: seconds the GPU pipeline stalls whenever the
    /// controller actually changes a frequency level (the
    /// `nvidia-settings` actuation is not free on real cards). Default 0
    /// (the paper's traces show no visible stall at its 3 s interval);
    /// the `ablations` experiment sweeps it.
    pub reclock_stall_s: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            comm_mode: CommMode::SynchronizedSpin,
            functional: true,
            reclock_stall_s: 0.0,
        }
    }
}

impl RunConfig {
    /// The paper's testbed behaviour (synchronized spin) without functional
    /// kernel execution — used by large parameter sweeps.
    pub fn sweep() -> Self {
        RunConfig {
            functional: false,
            ..RunConfig::default()
        }
    }

    /// Asynchronous-communication variant.
    pub fn with_async_comm(mut self) -> Self {
        self.comm_mode = CommMode::Async;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = RunConfig::default();
        assert_eq!(c.comm_mode, CommMode::SynchronizedSpin);
        assert!(c.functional);
    }

    #[test]
    fn sweep_disables_functional() {
        assert!(!RunConfig::sweep().functional);
    }

    #[test]
    fn async_builder_sets_mode() {
        assert_eq!(RunConfig::default().with_async_comm().comm_mode, CommMode::Async);
    }
}
