//! # greengpu-repro — regenerating the paper's tables and figures
//!
//! One function per table/figure of the GreenGPU paper's evaluation,
//! producing the same rows/series the paper reports from the simulated
//! testbed. The `repro` binary prints them as markdown and can write CSVs
//! for plotting.
//!
//! | Experiment | Paper content |
//! |---|---|
//! | [`experiments::fig1`] | normalized time & relative energy vs GPU memory/core frequency (nbody, streamcluster) |
//! | [`experiments::fig2`] | system energy vs CPU work share for kmeans |
//! | [`experiments::fig5`] | frequency-scaling trace for streamcluster (utils, clocks, power) |
//! | [`experiments::fig6`] | per-workload energy savings of the scaling tier (GPU, dynamic, CPU+GPU emulated) |
//! | [`experiments::fig7`] | workload-division traces for kmeans & hotspot |
//! | [`experiments::fig8`] | holistic vs single-tier per-iteration energy + headline savings |
//! | [`experiments::tables::table1`] | the WMA loss function |
//! | [`experiments::tables::table2`] | the workload inventory |
//! | [`experiments::static_search`] | the §VII-B exhaustive static-division search |
//! | [`experiments::ablations`] | design-choice ablations (step size, safeguard, λ, 8-bit table, oracle regret, governors) |
//! | [`experiments::scorecard`] | every quantitative claim, measured and judged against its acceptance band |

#![forbid(unsafe_code)]

pub mod experiments;
pub mod policies;
pub mod summary;
