//! # greengpu-runtime — the heterogeneous execution runtime
//!
//! The paper's execution structure (§VI): the main program launches
//! pthreads — one driving the CUDA device, the rest pinned to CPU cores —
//! wraps the CPU and GPU implementations of each kernel behind a common
//! interface, and re-invokes the kernels each iteration with the data sizes
//! chosen by the workload-division unit.
//!
//! This crate is the simulated analog. [`HeteroRuntime`] executes a
//! [`greengpu_workloads::Workload`] on a [`greengpu_hw::Platform`]:
//!
//! * each iteration's phase costs are split by the controller's CPU share
//!   `r` (CPU gets `r`, GPU gets `1-r`);
//! * both sides drain their work concurrently in virtual time, with GPU
//!   frequency changes re-planning the remaining work mid-flight;
//! * device activity (busy fractions) is recorded into the platform's
//!   utilization traces and power meters at every segment boundary;
//! * a [`Controller`] is invoked on a fixed DVFS tick (the frequency
//!   scaling tier) and at every iteration boundary (the division tier);
//! * the functional kernel actually executes with the same split, so the
//!   numerical results are real.
//!
//! [`clock`] is the one sanctioned wall-clock seam.

#![forbid(unsafe_code)]

pub mod clock;
pub mod config;
pub mod controller;
pub mod engine;
pub mod report;

pub use clock::{Clock, ManualClock, WallClock};
pub use config::{CommMode, RunConfig};
pub use controller::{Controller, FixedController, IterationInfo};
pub use engine::HeteroRuntime;
pub use report::{IterationRecord, RunReport};
