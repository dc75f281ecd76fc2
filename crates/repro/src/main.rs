//! `repro` — regenerate the GreenGPU paper's tables and figures.
//!
//! ```text
//! repro [--experiment <id>|all] [--seed <u64>] [--csv <dir>]
//!       [--nodes <n>] [--seconds <s>] [--engine serial|event]
//!       [--list-experiments]
//! ```
//!
//! Prints markdown to stdout; `--csv <dir>` additionally writes each table
//! as CSV for plotting and appends provenance rows to
//! `<dir>/MANIFEST.csv`. `--nodes`/`--seconds` select a custom
//! small-fleet configuration for the fleet experiments (`cluster`,
//! `chaos`, `serving`, `training`, `geo`; see
//! [`greengpu_repro::experiments::run_custom`]); `--engine` selects which
//! fleet engine drives it (both engines are byte-identical per seed — see
//! `crates/cluster/tests/engine_equivalence.rs` — so this is a seam for CI
//! to prove exactly that on real experiment output).

use greengpu_cluster::EngineKind;
use greengpu_repro::experiments::{run_by_id, run_custom, ALL_IDS, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    experiment: String,
    seed: u64,
    csv_dir: Option<PathBuf>,
    nodes: Option<usize>,
    seconds: Option<u64>,
    engine: Option<EngineKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: "all".to_string(),
        seed: DEFAULT_SEED,
        csv_dir: None,
        nodes: None,
        seconds: None,
        engine: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--experiment" | "-e" => {
                args.experiment = it.next().ok_or("--experiment needs a value")?;
            }
            "--seed" | "-s" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--csv" => {
                args.csv_dir = Some(PathBuf::from(it.next().ok_or("--csv needs a directory")?));
            }
            "--nodes" => {
                args.nodes = Some(
                    it.next()
                        .ok_or("--nodes needs a value")?
                        .parse()
                        .map_err(|e| format!("bad node count: {e}"))?,
                );
            }
            "--seconds" => {
                args.seconds = Some(
                    it.next()
                        .ok_or("--seconds needs a value")?
                        .parse()
                        .map_err(|e| format!("bad horizon: {e}"))?,
                );
            }
            "--engine" => {
                args.engine = Some(EngineKind::from_flag(&it.next().ok_or("--engine needs a value")?)?);
            }
            "--list-experiments" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment <id>|all] [--seed <u64>] [--csv <dir>]\n\
                     \x20            [--nodes <n>] [--seconds <s>]\n\
                     \x20            [--engine serial|event] [--list-experiments]"
                );
                println!("experiments: {}", ALL_IDS.join(" "));
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.nodes == Some(0) {
        return Err("--nodes must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ids: Vec<&str> = if args.experiment == "all" {
        ALL_IDS.to_vec()
    } else {
        vec![args.experiment.as_str()]
    };

    println!("# GreenGPU reproduction — experiment output (seed {})\n", args.seed);
    let custom = args.nodes.is_some() || args.seconds.is_some() || args.engine.is_some();
    for id in ids {
        let output = if custom {
            // Serial, the reference, when no `--engine` was given.
            run_custom(id, args.seed, args.nodes, args.seconds, args.engine.unwrap_or_default())
        } else {
            run_by_id(id, args.seed)
        };
        let Some(output) = output else {
            if custom && ALL_IDS.contains(&id) {
                eprintln!("error: --nodes/--seconds/--engine only apply to a fleet experiment, not '{id}'");
            } else {
                eprintln!(
                    "error: unknown experiment '{id}'\nvalid experiments:\n  {}",
                    ALL_IDS.join("\n  ")
                );
            }
            return ExitCode::FAILURE;
        };
        print!("{}", output.to_markdown());
        if let Some(dir) = &args.csv_dir {
            if let Err(e) = output.write_csvs(dir, args.seed) {
                eprintln!("error writing CSVs to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
