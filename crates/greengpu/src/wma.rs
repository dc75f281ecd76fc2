//! The paper's WMA frequency scaler (§V-A) and its per-card form for the
//! multi-GPU runtime.
//!
//! The scaler itself is a [`greengpu_policy::FreqPolicy`] and lives in
//! [`greengpu_policy::wma`], beside the other policies and the one
//! Table-I loss model they share ([`greengpu_policy::loss`]); both are
//! re-exported here.

pub use greengpu_policy::loss::{level_loss, table1_loss};
pub use greengpu_policy::wma::{WmaParams, WmaScaler};

/// Independent per-card WMA scalers for the multi-GPU runtime — each card
/// gets its own weight table, as each has its own utilization signature
/// (shares differ, and cards may be heterogeneous).
#[derive(Debug, Clone)]
pub struct PerGpuWma {
    scalers: Vec<WmaScaler>,
}

impl PerGpuWma {
    /// One 6×6 scaler per card with the given parameters.
    pub fn new(n_gpus: usize, params: WmaParams) -> Self {
        PerGpuWma {
            scalers: (0..n_gpus).map(|_| WmaScaler::new(6, 6, params)).collect(),
        }
    }

    /// The scaler for card `i` (inspection/tests).
    pub fn scaler(&self, i: usize) -> &WmaScaler {
        &self.scalers[i]
    }
}

impl greengpu_runtime::multi::MultiScaler for PerGpuWma {
    fn observe(&mut self, gpu_index: usize, u_core: f64, u_mem: f64) -> (usize, usize) {
        self.scalers[gpu_index].observe(u_core, u_mem)
    }
}

#[cfg(test)]
mod per_gpu_tests {
    use super::*;
    use greengpu_runtime::multi::MultiScaler;

    #[test]
    fn cards_learn_independently() {
        let mut s = PerGpuWma::new(2, WmaParams::default());
        for _ in 0..10 {
            s.observe(0, 1.0, 1.0);
            s.observe(1, 0.0, 0.0);
        }
        assert_eq!(s.scaler(0).argmax(), (5, 5));
        assert_eq!(s.scaler(1).argmax(), (0, 0));
    }
}
