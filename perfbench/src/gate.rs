//! The correctness gate every timed run passes, and the tally that turns
//! its verdicts into `fail_frac`.
//!
//! A fleet run must keep the conservation ledger, never hand out more
//! than the budget, and keep every interior budget-tree node within its
//! own cap. Every run's outputs are digested; all runs of one invocation
//! must agree, and at the default seed they must equal the digest pinned
//! in `perfbench/pinned_digests.txt`.

use crate::workloads::{FleetRun, RunOutput, Workload, DEFAULT_SEED};
use greengpu_sim::Fnv64;

const PINNED: &str = include_str!("../pinned_digests.txt");

/// Folds `bytes` into `h`.
fn push_bytes(h: &mut Fnv64, bytes: &[u8]) {
    for &b in bytes {
        h.push_byte(b);
    }
}

/// The gate's verdict on one run.
pub struct Verdict {
    pub digest: u64,
    pub problems: Vec<String>,
}

/// Checks one run's outputs and digests them.
pub fn check(out: &RunOutput) -> Verdict {
    match out {
        RunOutput::Repro(text) => {
            let mut h = Fnv64::new();
            push_bytes(&mut h, text.as_bytes());
            Verdict {
                digest: h.finish(),
                problems: Vec::new(),
            }
        }
        RunOutput::Fleet(run) => Verdict {
            digest: fleet_digest(run),
            problems: fleet_problems(run),
        },
    }
}

/// Violations of the fleet invariants, one line each.
pub fn fleet_problems(run: &FleetRun) -> Vec<String> {
    let r = &run.report;
    let mut problems = Vec::new();
    let accounted = r.completed.len() as u64
        + r.dead_letter.len() as u64
        + r.dead_letter_overflow
        + r.deferred_pending_at_end
        + r.in_flight_at_end;
    if r.admitted != accounted {
        problems.push(format!(
            "conservation ledger: admitted {} != completed {} + dead-lettered {} + overflow {} + deferred {} + in flight {}",
            r.admitted,
            r.completed.len(),
            r.dead_letter.len(),
            r.dead_letter_overflow,
            r.deferred_pending_at_end,
            r.in_flight_at_end
        ));
    }
    if let Some(row) = r.trace.rows.iter().find(|row| row.fleet_cap_w > row.budget_w) {
        problems.push(format!(
            "interval {}: fleet cap {} W exceeds the budget {} W",
            row.interval, row.fleet_cap_w, row.budget_w
        ));
    }
    if r.interior_cap_violations != 0 {
        problems.push(format!(
            "{} interior budget-tree cap violations",
            r.interior_cap_violations
        ));
    }
    problems
}

/// Digest of a fleet run: both trace CSVs, every completion record, the
/// crash audits and the report's counters.
pub fn fleet_digest(run: &FleetRun) -> u64 {
    let r = &run.report;
    let mut h = Fnv64::new();
    push_bytes(&mut h, run.csv.as_bytes());
    push_bytes(&mut h, run.geo_csv.as_bytes());
    for job in &r.completed {
        h.push_u64(job.spec.id);
        push_bytes(&mut h, job.spec.workload.as_bytes());
        h.push_f64(job.spec.arrival.as_secs_f64());
        h.push_f64(job.spec.size);
        h.push_f64(job.spec.deadline.map_or(-1.0, |d| d.as_secs_f64()));
        h.push_u64(job.node as u64);
        h.push_f64(job.started.as_secs_f64());
        h.push_f64(job.finished.as_secs_f64());
        h.push_u64(u64::from(job.missed_deadline));
        h.push_f64(job.gpu_energy_j);
    }
    for c in &r.crash_records {
        h.push_u64(c.node as u64);
        h.push_f64(c.at_s);
        h.push_u64(c.cap_before_mw);
        h.push_u64(c.cap_after_mw.unwrap_or(u64::MAX));
    }
    for v in [
        r.admitted,
        r.rejected,
        r.in_flight_at_end,
        r.crashes,
        r.warm_restarts,
        r.cold_restarts,
        r.jobs_lost,
        r.jobs_retried,
        r.dead_letter_overflow,
        r.rack_losses,
        r.zone_thermal_emergencies,
        r.cap_violations,
    ] {
        h.push_u64(v);
    }
    h.push_f64(r.gpu_energy_j);
    h.push_f64(r.total_energy_j);
    h.finish()
}

/// The digest pinned for `w`, if any.
pub fn pinned(w: Workload) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut cells = line.split_whitespace();
        if cells.next()? != w.name() {
            return None;
        }
        u64::from_str_radix(cells.next()?.trim_start_matches("0x"), 16).ok()
    })
}

/// The digest of a run that neither panicked nor broke an invariant, or
/// what went wrong.
fn kept_invariants(outcome: Result<Verdict, String>) -> Result<u64, String> {
    match outcome {
        Err(panic) => Err(format!("panicked: {panic}")),
        Ok(v) if !v.problems.is_empty() => Err(v.problems.join("; ")),
        Ok(v) => Ok(v.digest),
    }
}

/// Counts runs and failures across one invocation.
pub struct Tally {
    /// The digest every run must produce, once known.
    expected: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed run.
    pub problems: Vec<String>,
}

impl Tally {
    /// A tally for `w` at `seed`: at the default seed the pinned digest
    /// is expected from the first run on.
    pub fn new(w: Workload, seed: u64) -> Tally {
        Tally {
            expected: if seed == DEFAULT_SEED { pinned(w) } else { None },
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one run: its verdict, or the panic message of a run that
    /// panicked. Returns whether the run passed.
    pub fn record(&mut self, outcome: Result<Verdict, String>) -> bool {
        let problem = match kept_invariants(outcome) {
            Err(p) => Some(p),
            Ok(digest) => match self.expected {
                None => {
                    self.expected = Some(digest);
                    None
                }
                Some(e) if e == digest => None,
                Some(e) => Some(format!("output digest {digest:016x} differs from {e:016x}")),
            },
        };
        self.count(problem)
    }

    /// Records the warm-up run, whose outputs differ from the timed
    /// runs' (a fleet warms up on a shorter horizon): its invariants are
    /// checked, its digest is not. Returns whether it passed.
    pub fn record_warm_up(&mut self, outcome: Result<Verdict, String>) -> bool {
        let problem = kept_invariants(outcome).err();
        self.count(problem)
    }

    /// Counts one run that had `problem`, or none.
    fn count(&mut self, problem: Option<String>) -> bool {
        self.attempted += 1;
        match problem {
            Some(p) => {
                self.failed += 1;
                self.problems.push(format!("run {}: {p}", self.attempted));
                false
            }
            None => true,
        }
    }

    /// The digest the runs agreed on, if any run passed.
    pub fn digest(&self) -> Option<u64> {
        self.expected
    }

    /// Failed runs over attempted runs (0 before any run).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(digest: u64) -> Result<Verdict, String> {
        Ok(Verdict {
            digest,
            problems: Vec::new(),
        })
    }

    #[test]
    fn fail_frac_counts_panics_gate_failures_and_digest_drift() {
        let mut t = Tally::new(Workload::ReproAll, 7);
        assert_eq!(t.fail_frac(), 0.0);
        assert!(t.record(ok(11)));
        assert!(t.record(ok(11)));
        assert!(!t.record(Err("boom".to_string())));
        assert!(!t.record(Ok(Verdict {
            digest: 11,
            problems: vec!["ledger".to_string()],
        })));
        assert!(!t.record(ok(12)));
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(t.fail_frac(), 0.6);
        assert_eq!(t.problems.len(), 3);
        assert_eq!(t.digest(), Some(11));
    }

    #[test]
    fn the_warm_up_counts_but_sets_no_digest() {
        let mut t = Tally::new(Workload::GeoIdle10k, 7);
        assert!(t.record_warm_up(ok(3)));
        assert_eq!(t.digest(), None);
        assert!(!t.record_warm_up(Ok(Verdict {
            digest: 3,
            problems: vec!["ledger".to_string()],
        })));
        assert!(!t.record_warm_up(Err("boom".to_string())));
        assert!(t.record(ok(5)));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.digest(), Some(5));
    }

    #[test]
    fn the_first_passing_run_sets_the_expected_digest() {
        let mut t = Tally::new(Workload::FleetBusy1k, 7);
        assert!(!t.record(Err("boom".to_string())));
        assert!(t.record(ok(5)));
        assert!(t.record(ok(5)));
        assert_eq!((t.attempted, t.failed), (3, 1));
    }

    #[test]
    fn the_default_seed_expects_the_pinned_digest() {
        for w in [Workload::ReproAll, Workload::FleetBusy1k, Workload::GeoIdle10k] {
            let pin = pinned(w).expect("every workload has a pinned digest");
            let mut t = Tally::new(w, DEFAULT_SEED);
            assert!(!t.record(ok(pin ^ 1)), "{}", w.name());
            assert!(t.record(ok(pin)), "{}", w.name());
        }
    }
}
