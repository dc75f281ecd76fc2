//! # greengpu-workloads — the paper's benchmark suite, re-implemented
//!
//! GreenGPU is evaluated on nine workloads from Rodinia and the CUDA SDK
//! (paper Table II): `bfs`, `lud`, `nbody`, `PF` (pathfinder), `QG`
//! (quasirandom generator), `srad_v2`, `hotspot`, `kmeans`, and
//! `streamcluster`. This crate re-implements each of them in Rust:
//!
//! * **Functionally** — the real algorithm runs and produces real results,
//!   and every divisible workload supports the CPU/GPU *split-and-merge*
//!   execution the paper builds with pthreads + CUDA (§VI): a `cpu_share`
//!   fraction of each iteration's parallel work is computed by the "CPU
//!   side", the rest by the "GPU side", and the partial results are merged.
//!   Tests assert the merged result is split-invariant.
//! * **As a cost model** — each iteration reports its hardware demands
//!   ([`PhaseCost`]: operations, bytes, achieved-efficiency factors, host
//!   gaps) from which the simulated testbed derives execution time, the
//!   utilization signatures of Table II, and power. The efficiency/gap
//!   constants are *calibrated* so each workload lands in its Table II
//!   utilization class and the division-tier behaviour matches §VII-B
//!   (kmeans optimum near 15/85 CPU/GPU, hotspot near 50/50); DESIGN.md
//!   documents this substitution.
//!
//! [`registry::all_workloads`] builds the full Table II suite with the
//! paper's enlargement presets; each module also offers small presets for
//! fast tests. [`datasets`] provides realistic synthetic input generators
//! (clustered features, R-MAT graphs, floorplan power maps, speckled
//! images) standing in for the benchmark datasets the paper uses. A
//! workload draws its inputs from its seeded stream on the first call
//! that reads them; [`Workload::phases`] never does, so sweep runs never
//! build them.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod datasets;
pub mod hotspot;
pub mod kmeans;
pub mod lud;
pub mod model;
pub mod nbody;
pub mod pathfinder;
pub mod quasirandom;
pub mod registry;
pub mod srad;
pub mod streamcluster;
pub mod training;
pub mod traits;

pub use model::{iteration_cpu_time_s, iteration_gpu_time_s, phase_cpu_time_s, phase_gpu_timing, PhaseTiming};
pub use traits::{CpuSlice, GpuPhase, PhaseCost, UtilClass, Workload, WorkloadProfile};
