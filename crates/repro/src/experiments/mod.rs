//! Experiment implementations, one module per paper table/figure.

pub mod ablations;
pub mod chaos;
pub mod cluster;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod geo;
pub mod policies;
pub mod robustness;
pub mod scorecard;
pub mod serving;
pub mod static_search;
pub mod tables;
pub mod training;

use greengpu_cluster::EngineKind;
use greengpu_sim::Table;
use std::fmt::Write as _;
use std::path::Path;

/// The rendered result of one experiment: tables plus prose notes
/// comparing against the paper's reported numbers.
pub struct ExperimentOutput {
    /// Experiment identifier (`fig1`, `table2`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Paper-vs-measured commentary lines.
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Renders the full experiment as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
            out.push('\n');
        }
        out
    }

    /// Writes each table as `<id>_<n>.csv` under `dir` and records every
    /// file in `<dir>/MANIFEST.csv`, so the numbered outputs stay
    /// attributable to an experiment, seed, and source revision.
    pub fn write_csvs(&self, dir: &Path, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            let name = format!("{}_{}.csv", self.id, i);
            std::fs::write(dir.join(&name), t.to_csv())?;
            files.push(name);
        }
        update_manifest(dir, self.id, &files, seed)
    }
}

/// Header of `results/MANIFEST.csv`.
// lint:contract(manifest_columns)
const MANIFEST_HEADER: &str = "experiment,file,seed,git_describe";

/// `git describe --always --dirty`, or `unknown` outside a work tree.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Merges `files` into `<dir>/MANIFEST.csv`, keyed by (experiment, file)
/// and rewritten sorted so repeated runs converge to the same bytes.
fn update_manifest(dir: &Path, experiment: &str, files: &[String], seed: u64) -> std::io::Result<()> {
    use std::collections::BTreeMap;
    let path = dir.join("MANIFEST.csv");
    let mut rows: BTreeMap<(String, String), (String, String)> = BTreeMap::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() == 4 {
                rows.insert(
                    (cells[0].to_string(), cells[1].to_string()),
                    (cells[2].to_string(), cells[3].to_string()),
                );
            }
        }
    }
    let describe = git_describe();
    for f in files {
        rows.insert(
            (experiment.to_string(), f.clone()),
            (seed.to_string(), describe.clone()),
        );
    }
    let mut out = String::from(MANIFEST_HEADER);
    out.push('\n');
    for ((exp, file), (s, d)) in &rows {
        let _ = writeln!(out, "{exp},{file},{s},{d}");
    }
    std::fs::write(path, out)
}

/// The default deterministic seed used by the `repro` binary.
pub const DEFAULT_SEED: u64 = 20120910; // ICPP 2012 dates

/// All experiment ids in presentation order.
pub const ALL_IDS: [&str; 18] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "static_search",
    "ablations",
    "policies",
    "robustness",
    "cluster",
    "chaos",
    "serving",
    "training",
    "geo",
    "scorecard",
];

/// Runs an experiment by id.
pub fn run_by_id(id: &str, seed: u64) -> Option<ExperimentOutput> {
    Some(match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(seed),
        "fig1" => fig1::run(seed),
        "fig2" => fig2::run(seed),
        "fig5" => fig5::run(seed),
        "fig6" => fig6::run(seed),
        "fig7" => fig7::run(seed),
        "fig8" => fig8::run(seed),
        "static_search" => static_search::run(seed),
        "ablations" => ablations::run(seed),
        "policies" => policies::run(seed),
        "robustness" => robustness::run(seed),
        "cluster" => cluster::run(seed),
        "chaos" => chaos::run(seed),
        "serving" => serving::run(seed),
        "training" => training::run(seed),
        "geo" => geo::run(seed),
        "scorecard" => scorecard::run(seed),
        _ => return None,
    })
}

/// Runs fleet experiment `id` in its custom (smoke) form: `nodes` nodes
/// for `seconds` simulated seconds, driven by `engine` — what `repro
/// --nodes/--seconds/--engine` selects, and what CI byte-compares across
/// both engines. A missing size takes the experiment's default:
/// 30 s, and 3 nodes (4 for `geo`, whose smallest tree is 2 × 2 racks).
/// `None` for an experiment without a custom form.
pub fn run_custom(
    id: &str,
    seed: u64,
    nodes: Option<usize>,
    seconds: Option<u64>,
    engine: EngineKind,
) -> Option<ExperimentOutput> {
    type Run = fn(u64, usize, u64, EngineKind) -> ExperimentOutput;
    let (run, default_nodes): (Run, usize) = match id {
        "cluster" => (cluster::run_custom, 3),
        "chaos" => (chaos::run_custom, 3),
        "serving" => (serving::run_custom, 3),
        "training" => (training::run_custom, 3),
        "geo" => (geo::run_custom, 4),
        _ => return None,
    };
    Some(run(seed, nodes.unwrap_or(default_nodes), seconds.unwrap_or(30), engine))
}

/// Formats a signed percentage like `+3.21%` / `-4.00%`.
pub(crate) fn signed_pct(frac: f64) -> String {
    format!("{}{:.2}%", if frac >= 0.0 { "+" } else { "" }, frac * 100.0)
}

/// Formats a plain percentage with two decimals.
pub(crate) fn pct(frac: f64) -> String {
    format!("{:.2}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_by_id_covers_all_ids() {
        // Cheap smoke check on the two table experiments (the figure
        // experiments have their own module tests).
        assert!(run_by_id("table1", 1).is_some());
        assert!(run_by_id("nope", 1).is_none());
    }

    #[test]
    fn run_custom_covers_exactly_the_fleet_experiments() {
        for id in ALL_IDS {
            let fleet = ["cluster", "chaos", "serving", "training", "geo"].contains(&id);
            let out = run_custom(id, 1, Some(1), Some(1), EngineKind::Serial);
            assert_eq!(out.map(|o| o.id), fleet.then_some(id), "{id}");
        }
        assert!(run_custom("nope", 1, None, None, EngineKind::Serial).is_none());
        // Missing sizes take the experiment's defaults: 3 nodes, 30 s.
        let out = run_custom("cluster", 7, None, None, EngineKind::Serial).expect("cluster has a custom form");
        let pinned = cluster::run_custom(7, 3, 30, EngineKind::Serial);
        assert_eq!(out.id, "cluster");
        assert_eq!(out.to_markdown(), pinned.to_markdown());
    }

    /// Every fleet experiment's smoke is byte for byte the same under
    /// both engines: the CSV of every table, and the markdown. The sizes
    /// are the ones each module's own smoke test checks.
    #[test]
    fn fleet_smokes_are_byte_equal_across_engines() {
        for (id, nodes, seconds) in [
            ("cluster", 3, 30),
            ("chaos", 3, 40),
            ("serving", 3, 60),
            ("training", 2, 30),
            ("geo", 8, 40),
        ] {
            let run = |engine| run_custom(id, 7, Some(nodes), Some(seconds), engine).expect("a fleet experiment");
            let (serial, event) = (run(EngineKind::Serial), run(EngineKind::EventDriven));
            let csv = |o: &ExperimentOutput| o.tables.iter().map(Table::to_csv).collect::<Vec<_>>();
            assert_eq!(csv(&event), csv(&serial), "{id}");
            assert_eq!(event.to_markdown(), serial.to_markdown(), "{id}");
        }
    }

    #[test]
    fn markdown_render_includes_tables_and_notes() {
        let out = tables::table1();
        let md = out.to_markdown();
        assert!(md.contains("## table1"));
        assert!(md.contains('|'));
    }

    #[test]
    fn write_csvs_updates_the_manifest() {
        let dir = std::env::temp_dir().join(format!("greengpu-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = tables::table1();
        out.write_csvs(&dir, 7).unwrap();
        // A re-run with another seed merges rows instead of duplicating.
        out.write_csvs(&dir, 9).unwrap();
        let manifest = std::fs::read_to_string(dir.join("MANIFEST.csv")).unwrap();
        let lines: Vec<&str> = manifest.lines().collect();
        assert_eq!(lines[0], MANIFEST_HEADER);
        assert_eq!(lines.len(), 1 + out.tables.len());
        assert!(lines[1].starts_with("table1,table1_0.csv,9,"), "{}", lines[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(signed_pct(0.0321), "+3.21%");
        assert_eq!(signed_pct(-0.04), "-4.00%");
        assert_eq!(pct(0.2104), "21.04%");
    }
}
