//! `greengpu-run` — run any workload under any policy on the simulated
//! testbed.
//!
//! ```text
//! greengpu-run --workload kmeans [--policy greengpu] [--seed 42]
//!              [--governor ondemand] [--division-algo stepwise]
//!              [--small] [--json]
//!
//! workloads: bfs lud nbody PF QG srad_v2 hotspot kmeans streamcluster
//! policies:  greengpu division scaling default static:<pct> pinned:<core>,<mem>
//! governors: ondemand performance powersave conservative proportional
//! ```

use greengpu::{DivisionAlgo, GovernorKind};
use greengpu_repro::experiments::DEFAULT_SEED;
use greengpu_repro::policies::run_policy;
use greengpu_repro::summary::ReportSummary;
use greengpu_runtime::{RunConfig, RunReport};
use greengpu_workloads::registry;
use std::process::ExitCode;

struct Args {
    workload: String,
    policy: String,
    seed: u64,
    governor: GovernorKind,
    division_algo: DivisionAlgo,
    small: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        policy: "greengpu".to_string(),
        seed: DEFAULT_SEED,
        governor: GovernorKind::Ondemand,
        division_algo: DivisionAlgo::Stepwise,
        small: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "-w" => args.workload = it.next().ok_or("--workload needs a value")?,
            "--policy" | "-p" => args.policy = it.next().ok_or("--policy needs a value")?,
            "--seed" | "-s" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--governor" | "-g" => {
                args.governor = match it.next().ok_or("--governor needs a value")?.as_str() {
                    "ondemand" => GovernorKind::Ondemand,
                    "performance" => GovernorKind::Performance,
                    "powersave" => GovernorKind::Powersave,
                    "conservative" => GovernorKind::Conservative,
                    "proportional" => GovernorKind::Proportional,
                    other => return Err(format!("unknown governor {other}")),
                }
            }
            "--division-algo" => {
                args.division_algo = match it.next().ok_or("--division-algo needs a value")?.as_str() {
                    "stepwise" => DivisionAlgo::Stepwise,
                    "model" | "model-based" => DivisionAlgo::ModelBased,
                    other => return Err(format!("unknown division algorithm {other}")),
                }
            }
            "--small" => args.small = true,
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!("usage: greengpu-run --workload <name> [--policy <p>] [--seed <n>]");
                println!("                    [--governor <g>] [--division-algo <a>] [--small] [--json]");
                println!("workloads: {}", registry::TABLE2_NAMES.join(" "));
                println!("policies:  greengpu division scaling default static:<pct> pinned:<core>,<mem>");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (see --help)".to_string());
    }
    Ok(args)
}

fn execute(args: &Args) -> Result<RunReport, String> {
    let mut workload = if args.small {
        registry::by_name_small(&args.workload, args.seed)
    } else {
        registry::by_name(&args.workload, args.seed)
    }
    .ok_or_else(|| {
        format!(
            "unknown workload '{}' (known: {})",
            args.workload,
            registry::TABLE2_NAMES.join(" ")
        )
    })?;
    run_policy(
        workload.as_mut(),
        &args.policy,
        args.governor,
        args.division_algo,
        RunConfig::default(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match execute(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = ReportSummary::from_report(&args.workload, &args.policy, args.seed, &report);
    if args.json {
        println!("{}", summary.to_json());
    } else {
        println!("workload   {}", summary.workload);
        println!(
            "policy     {} (governor {:?}, division {:?})",
            summary.policy, args.governor, args.division_algo
        );
        println!("time       {:.1} s", summary.total_time_s);
        println!(
            "energy     {:.0} J total ({:.0} J GPU / {:.0} J CPU-side), mean {:.1} W",
            summary.total_energy_j, summary.gpu_energy_j, summary.cpu_energy_j, summary.mean_power_w
        );
        println!(
            "final clks core {} MHz / mem {} MHz / cpu {} MHz",
            summary.final_core_mhz, summary.final_mem_mhz, summary.final_cpu_mhz
        );
        if let Some(last) = summary.iterations.last() {
            println!(
                "division   settled at {:.0}% CPU ({} iterations)",
                last.cpu_share * 100.0,
                summary.iterations.len()
            );
        }
    }
    ExitCode::SUCCESS
}
