//! # greengpu — holistic energy management for GPU-CPU heterogeneous nodes
//!
//! Reproduction of *GreenGPU: A Holistic Approach to Energy Efficiency in
//! GPU-CPU Heterogeneous Architectures* (Ma, Li, Chen, Zhang, Wang —
//! ICPP 2012). GreenGPU is a two-tier runtime framework:
//!
//! * **Tier 1 — workload division** ([`division`]): each iteration's work
//!   is split between CPU and GPU; the ratio moves one 5 % step per
//!   iteration toward whichever side finished first, with a linear
//!   extrapolation safeguard against oscillation, so both sides finish
//!   approximately together and idle-wait energy is minimized.
//! * **Tier 2 — coordinated frequency scaling** ([`wma`]): a Weighted
//!   Majority Algorithm learner over the N×M table of (GPU-core,
//!   GPU-memory) frequency pairs, driven by windowed utilizations, with the
//!   Table I loss function — a `FreqPolicy` of the `greengpu-policy`
//!   crate, re-exported here; the CPU is scaled by the Linux `ondemand`
//!   governor ([`ondemand`]).
//!
//! [`coordinator::GreenGpuController`] wires both tiers into a
//! [`greengpu_runtime::Controller`]; [`baselines`] provides the paper's
//! comparison points (best-performance, division-only,
//! frequency-scaling-only, static divisions, and the exhaustive static
//! search of §VII-B). [`quantized`] implements the paper's §VI hardware
//! sketch: the same WMA over an 8-bit fixed-point weight table.
//!
//! ## Quickstart
//!
//! ```
//! use greengpu::baselines;
//! use greengpu_workloads::kmeans::KMeans;
//!
//! // Run kmeans under full GreenGPU and under the Rodinia default
//! // (all-GPU, peak clocks) and compare energy.
//! let green = baselines::run_greengpu(&mut KMeans::small(1));
//! let default = baselines::run_best_performance(&mut KMeans::small(1));
//! assert!(green.total_energy_j() < default.total_energy_j());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod autotune;
pub mod baselines;
pub mod coordinator;
pub mod division;
pub mod governors;
pub mod ondemand;
pub mod oracle;
pub mod policy;
pub mod quantized;
pub mod wma;

pub use baselines::{run_greengpu_faulted, run_with_policy, FaultedOutcome};
pub use coordinator::{DivisionAlgo, GovernorKind, GreenGpuConfig, GreenGpuController, CHECKPOINT_VERSION};
pub use division::{DivisionController, DivisionParams, ModelBasedDivision};
pub use governors::CpuGovernor;
pub use ondemand::OndemandGovernor;
pub use policy::{pair_model_for, PolicySpec};
// Re-export the policy crate's surface so consumers need only `greengpu`.
pub use greengpu_policy::{
    Contextual, DeadlineParams, DeadlinePolicy, Exp3Params, Exp3Policy, FreqPolicy, IdleSettle, PairModel,
    PhaseDetectorParams, PolicyTelemetry, SwitchingParams, UcbParams, UcbPolicy,
};
pub use wma::{WmaParams, WmaScaler};
