//! # greengpu-hw — simulated GPU-CPU testbed
//!
//! The GreenGPU paper runs on a physical Dell Optiplex 580: an Nvidia
//! GeForce 8800 GTX (independently clockable core and memory domains, six
//! levels each, observed through `nvidia-smi` and actuated through
//! `nvidia-settings`), an AMD Phenom II X2 CPU (four DVFS P-states under the
//! Linux `ondemand` governor), and two Wattsup Pro power meters — one on the
//! wall outlet feeding the box, one on a dedicated ATX supply feeding the GPU
//! card.
//!
//! This crate rebuilds that testbed as a deterministic model:
//!
//! * [`freq`] — [`FrequencyDomain`]: discrete frequency levels with a step
//!   trace and the `umean` linear utilization mapping used by the WMA scaler.
//! * [`gpu`] — [`GpuSpec`]/[`GpuModel`]: SM-array + memory-channel device
//!   with a roofline-with-overlap timing model and a frequency-proportional
//!   power model (the 8800 GTX era scales frequency only, not voltage).
//! * [`cpu`] — [`CpuSpec`]/[`CpuModel`]: multicore CPU with per-P-state
//!   voltages and `C·V²·f` dynamic power.
//! * [`perf`] — the shared roofline timing math ([`WorkUnits`],
//!   [`GpuTiming`]).
//! * [`meter`] — [`PowerMeter`]: Wattsup-style integrating meters.
//! * [`smi`] — [`Smi`]: the `nvidia-smi`-like polling facade (windowed core
//!   and memory utilizations) the frequency-scaling tier consumes.
//! * [`faults`] — the [`SensorSource`]/[`FreqActuator`] seam between
//!   controllers and the testbed, plus a deterministic, seeded fault
//!   injector ([`FaultPlan`], [`FaultySensor`], [`FaultyActuator`]) that
//!   recreates noisy polls, stale/lost readings, misapplied reclocks, and
//!   miscalibrated meters — and the node-level chaos schedule
//!   ([`ChaosPlan`]: seeded crash, thermal-emergency, and
//!   telemetry-blackout events) plus the [`BlackoutSensors`] decorator
//!   that blanks polls inside blackout windows.
//! * [`platform`] — [`Platform`]: the assembled two-meter testbed.
//! * [`calib`] — the default 8800 GTX + Phenom II X2 calibration constants.

#![forbid(unsafe_code)]

pub mod calib;
pub mod cpu;
pub mod faults;
pub mod freq;
pub mod gpu;
pub mod meter;
pub mod perf;
pub mod platform;
pub mod smi;

pub use cpu::{CpuModel, CpuSpec};
pub use faults::{
    BlackoutSensors, ChaosEvent, ChaosKind, ChaosPlan, CleanSensors, DirectActuator, DomainChaosEvent, DomainChaosKind,
    FaultPlan, FaultyActuator, FaultySensor, FreqActuator, SensorSource,
};
pub use freq::FrequencyDomain;
pub use gpu::{GpuModel, GpuSpec};
pub use meter::PowerMeter;
pub use perf::{cpu_time, gpu_timing, GpuTiming, WorkUnits};
pub use platform::Platform;
pub use smi::Smi;
