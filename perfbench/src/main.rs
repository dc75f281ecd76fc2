//! The GreenGPU reproduction's benchmark binary.
//!
//! ```text
//! perfbench --workload <repro_all|fleet_busy_1k|geo_idle_10k> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (`setup_s`, `run_wall_s`,
//! `heap_peak_mib`; `fail_frac` on its own line), `--trace 1` the
//! per-layer split. Human-readable lines come first; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is non-zero when any run fails. `perfbench/README.md`
//! documents the workloads and metrics; `perfbench/run.py` builds and
//! runs this binary.

mod alloc;
mod calib;
mod clock;
mod gate;
mod measure;
mod replay;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// What one invocation measured.
pub struct Report {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The last traced run's spans, as TSV.
    pub spans_tsv: Option<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <repro_all|fleet_busy_1k|geo_idle_10k> --seed <n> \
                     --seconds <s> --trace <0|1> [--spans <path>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// The result line: one JSON object.
fn result_json(report: &Report) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced::traced(args.workload, args.seed, args.seconds)
    } else {
        Ok(measure::end_to_end(args.workload, args.seed, args.seconds))
    };
    let report = match report {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(tsv)) = (&args.spans, &report.spans_tsv) {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, tsv));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    match result_json(&report) {
        Ok(json) => println!("{json}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload geo_idle_10k --seed 3 --seconds 25 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::GeoIdle10k, 3, 25.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 25 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload repro_all --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload repro_all --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload repro_all --seed 3 --seconds 5")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let report = Report {
            lines: Vec::new(),
            attempted: 4,
            failed: 1,
            metrics: vec![
                ("setup_s".to_string(), 0.25, "s"),
                ("heap_peak_mib".to_string(), 3.0, "MiB"),
            ],
            spans_tsv: None,
        };
        assert_eq!(
            result_json(&report).expect("finite"),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \
             \"unit\": \"s\"}, \"heap_peak_mib\": {\"value\": 3, \"unit\": \"MiB\"}}}"
        );
        let bad = Report {
            metrics: vec![("x".to_string(), f64::NAN, "s")],
            ..report
        };
        assert!(result_json(&bad).is_err());
    }
}
