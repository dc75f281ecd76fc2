//! The paper's WMA frequency scaler (§V-A).
//!
//! The scaler itself is a [`greengpu_policy::FreqPolicy`] and lives in
//! [`greengpu_policy::wma`], beside the other policies and the one
//! Table-I loss model they share ([`greengpu_policy::loss`]); both are
//! re-exported here.

pub use greengpu_policy::loss::{level_loss, table1_loss};
pub use greengpu_policy::wma::{WmaParams, WmaScaler};
