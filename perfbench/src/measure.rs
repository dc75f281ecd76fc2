//! End-to-end mode: set-up time, run wall time and peak heap of one
//! workload, every run through the correctness gate.

use crate::alloc;
use crate::calib;
use crate::clock::{timed, Origin};
use crate::gate::{self, Tally};
use crate::stats::{iqr_frac, median};
use crate::workloads::{run, setup, warm_up, RunOutput, Workload};
use crate::Report;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Timed set-ups per invocation, at least; the median is reported.
pub const SETUP_REPS: usize = 11;
/// Seconds of back-to-back set-ups per invocation, at least, so that
/// short set-ups are sampled across the host's slower and faster phases.
pub const SETUP_MIN_S: f64 = 3.0;
/// Timed set-ups per invocation, at most.
pub const SETUP_MAX_REPS: usize = 1000;
/// Seconds of set-ups between two calibration passes, at least.
const SETUP_BATCH_S: f64 = 0.25;
/// Complete timed runs per invocation, at least.
pub const MIN_RUNS: usize = 3;
/// Complete timed runs per invocation, at most.
pub const MAX_RUNS: usize = 200;
/// Seconds of complete run per calibration pass after it: the passes
/// sample the host's speed about once a second while runs go on.
const RUN_S_PER_PASS: f64 = 1.0;

const MIB: f64 = 1024.0 * 1024.0;

/// One complete run under the gate: its output (or the panic message),
/// wall seconds, and the peak heap it added over its start.
pub fn guarded_run(w: Workload, seed: u64) -> (Result<RunOutput, String>, f64, usize) {
    let base = alloc::reset_peak();
    let (out, wall) = timed(|| catch_unwind(AssertUnwindSafe(|| run(w, seed))));
    let peak = alloc::peak_bytes().saturating_sub(base);
    (out.map_err(panic_message), wall, peak)
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Wall seconds of one calibration pass.
fn calibration_pass() -> f64 {
    timed(|| black_box(calib::pass())).1
}

/// One measured phase (the set-ups or the runs): the host seconds of its
/// units and of the calibration passes timed between them.
struct Phase {
    host: Vec<f64>,
    passes: Vec<f64>,
}

impl Phase {
    /// Starts with a pass, before the first units.
    fn start() -> Phase {
        Phase {
            host: Vec::new(),
            passes: vec![calibration_pass()],
        }
    }

    /// Records `units`, timed since the last pass, and times `passes`
    /// passes after them.
    fn close(&mut self, units: &[f64], passes: usize) {
        self.host.extend_from_slice(units);
        self.passes.extend((0..passes).map(|_| calibration_pass()));
    }

    /// The median unit, calibrated by the median pass.
    fn calibrated(&self) -> f64 {
        let pass = median(&self.passes).unwrap_or(f64::NAN);
        median(&self.host).unwrap_or(f64::NAN) * calib::factor(pass)
    }

    /// How the units and passes spread, for the human-readable lines.
    fn describe(&self) -> String {
        let spread = |v: &[f64]| iqr_frac(v).map_or_else(|| "n/a".to_string(), |f| format!("{:.1} %", f * 100.0));
        format!(
            "host median {:.6} s of {} (IQR/median {}); calibration pass median {:.4} s of {} (IQR/median {})",
            median(&self.host).unwrap_or(f64::NAN),
            self.host.len(),
            spread(&self.host),
            median(&self.passes).unwrap_or(f64::NAN),
            self.passes.len(),
            spread(&self.passes)
        )
    }
}

/// Measures `w` at `seed` for about `seconds` seconds: a warm-up, then
/// back-to-back set-ups (at least [`SETUP_REPS`] and [`SETUP_MIN_S`]) in
/// batches, each followed by a calibration pass, then complete runs
/// while the budget lasts (at least [`MIN_RUNS`]), each followed by a
/// pass per [`RUN_S_PER_PASS`] of it. Each reported time is the median of
/// its phase's units, calibrated by the median of its phase's passes
/// ([`calib::factor`]).
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let budget = Origin::now();
    let mut tally = Tally::new(w, seed);
    let mut lines = Vec::new();

    // Warm-up: one set-up and one warm-up run, untimed but gated.
    black_box(setup(w, seed));
    let out = catch_unwind(AssertUnwindSafe(|| warm_up(w, seed))).map_err(panic_message);
    tally.record_warm_up(out.map(|o| gate::check(&o)));

    let phase = Origin::now();
    let mut setups = Phase::start();
    while setups.host.len() < SETUP_REPS || (phase.secs() < SETUP_MIN_S && setups.host.len() < SETUP_MAX_REPS) {
        let batch = Origin::now();
        let mut units = Vec::new();
        while batch.secs() < SETUP_BATCH_S && setups.host.len() + units.len() < SETUP_MAX_REPS {
            let (n, s) = timed(|| setup(w, seed));
            black_box(n);
            units.push(s);
        }
        setups.close(&units, 1);
    }

    let mut runs = Phase::start();
    let mut peaks: Vec<f64> = Vec::new();
    let mut attempts = 0;
    while attempts < MIN_RUNS || (attempts < MAX_RUNS && budget.secs() + median(&runs.host).unwrap_or(0.0) <= seconds) {
        attempts += 1;
        let (out, wall, peak) = guarded_run(w, seed);
        let passes = ((wall / RUN_S_PER_PASS).ceil() as usize).max(1);
        if tally.record(out.map(|o| gate::check(&o))) {
            peaks.push(peak as f64 / MIB);
            runs.close(&[wall], passes);
        } else {
            runs.close(&[], passes);
        }
    }

    let setup_s = setups.calibrated();
    let run_wall_s = runs.calibrated();
    let heap_peak_mib = median(&peaks).unwrap_or(f64::NAN);
    lines.push(format!(
        "{} seed {seed}: {} runs attempted (warm-up included), {} failed, {} set-ups",
        w.name(),
        tally.attempted,
        tally.failed,
        setups.host.len()
    ));
    lines.push(format!("setup_s       {setup_s:.6} s    {}", setups.describe()));
    lines.push(format!("run_wall_s    {run_wall_s:.4} s    {}", runs.describe()));
    let listed = |v: &[f64]| v.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ");
    lines.push(format!("  runs (host s):   {}", listed(&runs.host)));
    lines.push(format!("  passes (host s): {}", listed(&runs.passes)));
    lines.push(format!("heap_peak_mib {heap_peak_mib:.3} MiB"));
    lines.push(format!(
        "fail_frac     {} ratio    {} of {} runs",
        tally.fail_frac(),
        tally.failed,
        tally.attempted
    ));
    if let Some(d) = tally.digest() {
        lines.push(format!("digest        {d:016x}"));
    }
    lines.extend(tally.problems.iter().cloned());

    Report {
        lines,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s".to_string(), setup_s, "s"),
            ("run_wall_s".to_string(), run_wall_s, "s"),
            ("heap_peak_mib".to_string(), heap_peak_mib, "MiB"),
        ],
        spans_tsv: None,
    }
}
