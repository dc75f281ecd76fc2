//! Multi-tenant serving model for the GreenGPU fleet tier.
//!
//! The cluster experiments up to PR 6 replay one anonymous open-loop
//! hotspot/kmeans stream. Real datacenters serve *tenants*: named
//! customers with their own traffic shapes, workload mixes, and service
//! objectives, dispatched against a time-varying carbon/price signal.
//! This crate models those objects, deterministically:
//!
//! * [`ArrivalProcess`] — three seeded traffic shapes: a **diurnal**
//!   sinusoid-modulated Poisson process (interactive day/night cycles),
//!   a **bursty** on/off Markov-modulated process (self-similar-looking
//!   load from alternating exponential burst and quiet phases), and a
//!   **batch** backfill window (constant-rate Poisson inside a time
//!   window, silence outside). Every schedule is a pure function of
//!   `(seed, config, horizon)` — independent of fleet size, of the other
//!   tenants, and of evaluation order (per-tenant child streams are
//!   derived from the tenant *name*, not its position).
//! * [`SloClass`] — latency-bound (per-job deadlines drawn from a slack
//!   range), throughput-bound (a completion-rate target), or best-effort
//!   (deferrable up to a horizon). The class maps onto the existing
//!   deadline-aware frequency selector via
//!   [`SloClass::deadline_params`], so a latency-bound tenant's slack
//!   becomes a per-node DVFS time budget ("slack-derived caps").
//! * [`CarbonSignal`] — a seeded piecewise-constant carbon/price
//!   intensity over the horizon, with exact window integrals
//!   ([`CarbonSignal::mean_over`]) and green-window queries the
//!   dispatcher uses to shift best-effort work into cheap windows.
//! * [`TenantConfig`] / [`generate_tenant_arrivals`] — tenants bundled
//!   with a workload mix (validated against the workloads the fleet can
//!   profile) and merged into one deterministic fleet-wide arrival
//!   stream.
//!
//! The cluster tier (`greengpu-cluster`) composes these with its
//! scheduler, retry/dead-letter machinery, and circuit breakers in
//! `TenantDispatcher`; this crate stays independent of the fleet so the
//! schedules are trivially fleet-size-independent.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod carbon;
pub mod slo;
pub mod tenant;

pub use arrival::ArrivalProcess;
pub use carbon::CarbonSignal;
pub use slo::SloClass;
pub use tenant::{
    generate_tenant_arrivals, mix_union, tenant_stream_seed, validate_mix, validate_range, TenantArrival, TenantConfig,
};
