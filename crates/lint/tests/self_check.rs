//! The dogfood test: the workspace itself must lint clean against the
//! committed `lint-baseline.toml`, with no stale baseline entries. This
//! is the same check CI runs — if it fails here, fix the finding, add a
//! reasoned `// lint:allow(rule)`, or (for pre-existing debt) extend the
//! baseline with a reason.

use std::path::Path;
use std::time::Instant;

use greengpu_lint::analysis::Analysis;
use greengpu_lint::{load_baseline, load_workspace, run};

/// The workspace root, two levels above this crate.
fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn workspace_lints_clean_against_committed_baseline() {
    let root = workspace_root();

    let baseline = load_baseline(&root.join("lint-baseline.toml")).expect("baseline parses");
    let started = Instant::now();
    let report = run(root, &baseline).expect("lint runs");
    let elapsed = started.elapsed();
    // Runtime guard: the whole flow analysis (parse, symbols, call
    // graph, four interprocedural passes) must stay interactive — a few
    // seconds over the full workspace even unoptimized, so CI and
    // pre-commit hooks can run it on every build.
    assert!(
        elapsed.as_secs() < 10,
        "full workspace lint took {elapsed:?}; the flow analysis has regressed past interactive speed"
    );

    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.findings.is_empty(),
        "the workspace has {} unbaselined lint finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
    assert!(
        report.stale.is_empty(),
        "the baseline has stale entries (fixed code — remove them):\n{}",
        report.stale.join("\n")
    );
}

/// The control-path reach covers the fleet spine. Its root is the free
/// function `drive` (`RootMatch::Named(None, "drive")`), so a spine step
/// that moved out of what `drive` reaches (for one, a `drive` turned into
/// a method) would silently leave the panic-freedom and determinism
/// passes; here it fails instead.
#[test]
fn the_control_path_reach_covers_the_fleet_spine() {
    let files = load_workspace(workspace_root()).expect("workspace loads");
    let analysis = Analysis::build(&files);
    let spine = [
        (None, "drive"),
        (Some("Fleet"), "run"),
        (Some("Fleet"), "apply_chaos"),
        (Some("Fleet"), "apply_domain_event"),
        (Some("Fleet"), "trace_row"),
        (Some("Node"), "control_tick_parkable"),
        (Some("Node"), "coast"),
    ];
    for (ty, name) in spine {
        let ids: Vec<usize> = (0..analysis.symbols.len())
            .filter(|&id| {
                let item = analysis.item(id);
                let file = &files[analysis.symbols.owner[id].0];
                item.name == name && item.self_ty.as_deref() == ty && file.rel_path.starts_with("crates/cluster/src/")
            })
            .collect();
        assert_eq!(ids.len(), 1, "{ty:?}::{name}: {ids:?}");
        assert!(
            analysis.root_reach.contains(ids[0]),
            "{ty:?}::{name} is outside the control-path reach"
        );
    }
}
