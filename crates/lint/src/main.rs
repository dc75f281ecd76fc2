//! The `greengpu-lint` binary.
//!
//! ```text
//! greengpu-lint [--root DIR] [--baseline FILE] [--json FILE]
//!               [--update-baseline] [--list-rules] [--quiet]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use greengpu_lint::findings::to_sarif;
use greengpu_lint::rules::all_rules;
use greengpu_lint::workspace::{find_root, load_baseline, refresh_checkpoint, run};

struct Args {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: Option<PathBuf>,
    update_baseline: bool,
    list_rules: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        baseline: None,
        json: None,
        update_baseline: false,
        list_rules: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let path_arg = |it: &mut dyn Iterator<Item = String>| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--root" => args.root = Some(path_arg(&mut it)?),
            "--baseline" => args.baseline = Some(path_arg(&mut it)?),
            "--json" => args.json = Some(path_arg(&mut it)?),
            "--update-baseline" => args.update_baseline = true,
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "greengpu-lint — static invariant checker\n\n\
                     USAGE: greengpu-lint [--root DIR] [--baseline FILE] [--json FILE]\n\
                     \x20                    [--update-baseline] [--list-rules] [--quiet]\n\n\
                     Exit 0 when clean against the baseline, 1 on findings, 2 on errors."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("greengpu-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if args.list_rules {
        for rule in all_rules() {
            println!("{:<20} {}", rule.name(), rule.describe());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_root(&cwd).ok_or("no workspace root found (run from the repo, or pass --root)")?
        }
    };
    let baseline_path = args.baseline.unwrap_or_else(|| root.join("lint-baseline.toml"));
    let baseline = load_baseline(&baseline_path)?;

    if args.update_baseline {
        match refresh_checkpoint(&root, &baseline)? {
            Some(toml) => {
                std::fs::write(&baseline_path, toml).map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
                println!("updated checkpoint fingerprint in {}", baseline_path.display());
            }
            None => println!("no checkpoint surface found; baseline unchanged"),
        }
        return Ok(ExitCode::SUCCESS);
    }

    let report = run(&root, &baseline)?;

    if let Some(json_path) = &args.json {
        let rules: Vec<(&str, &str)> = all_rules().iter().map(|r| (r.name(), r.describe())).collect();
        let json = to_sarif(&report.findings, report.suppressed, &rules);
        if json_path.as_os_str() == "-" {
            print!("{json}");
        } else {
            std::fs::write(json_path, json).map_err(|e| format!("write {}: {e}", json_path.display()))?;
        }
    }

    if !args.quiet {
        for f in &report.findings {
            println!("{f}");
        }
        for s in &report.stale {
            eprintln!("note: stale baseline entry (matched nothing): {s}");
        }
        println!(
            "greengpu-lint: {} finding(s), {} suppressed by baseline",
            report.findings.len(),
            report.suppressed
        );
        println!(
            "greengpu-lint: crates/*/src is {} lines, {} outside #[cfg(test)]",
            report.src_lines.total, report.src_lines.outside_test
        );
    }

    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
