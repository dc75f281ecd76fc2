//! # greengpu-sim — deterministic simulation substrate
//!
//! The GreenGPU paper evaluates on a physical testbed (GeForce 8800 GTX +
//! AMD Phenom II, two Wattsup power meters). This crate is the foundation of
//! the simulated replacement: a deterministic, fixed-point virtual clock,
//! an ordered discrete-event queue, seeded random-number streams, step-signal
//! traces with exact integration (energy = ∫ P dt), summary statistics, and
//! table rendering used by the experiment harness.
//!
//! Everything in this crate is pure and wall-clock independent: two runs with
//! the same inputs produce bit-identical outputs, which the test suite relies
//! on heavily.
//!
//! ## Module map
//!
//! * [`time`] — [`SimTime`]/[`SimDuration`] microsecond fixed-point clock.
//! * [`event`] — [`EventQueue`], a stable priority queue keyed by `SimTime`.
//! * [`fingerprint`] — [`Fnv64`], FNV-1a bit-exact state fingerprinting
//!   (the fleet engines' park/quiescence checks).
//! * [`json`] — [`JsonValue`], a hand-rolled JSON writer/parser with exact
//!   integer round-trips, and [`JsonWriter`], which records the same
//!   text into a compact [`JsonTape`] without a tree (learner
//!   checkpoints).
//! * [`rng`] — [`SplitMix64`] and [`Pcg32`] seeded generators plus
//!   distribution helpers.
//! * [`trace`] — [`StepTrace`] piecewise-constant signals with exact
//!   integrals, and [`SampledSeries`] for fixed-rate samples.
//! * [`stats`] — [`OnlineStats`] (Welford) and slice summaries.
//! * [`table`] — [`Table`] markdown/CSV rendering for experiment output.

#![forbid(unsafe_code)]

pub mod event;
pub mod fingerprint;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fingerprint::Fnv64;
pub use json::{JsonTape, JsonValue, JsonWriter};
pub use rng::{Pcg32, SplitMix64};
pub use stats::{summarize, OnlineStats, Summary};
pub use table::Table;
pub use time::{SimDuration, SimTime};
pub use trace::{SampledSeries, StepTrace};
