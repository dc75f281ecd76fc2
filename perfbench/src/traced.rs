//! Traced mode: the per-layer split of each workload's host time.
//!
//! Fleet workloads alternate an untraced `run_fleet` (gated, and timed
//! for the overhead base) with a traced replay ([`crate::replay`]) that
//! must reproduce it exactly. `repro_all` alternates an untraced run with
//! one that puts a span around each experiment. Counts must repeat
//! exactly across the traced runs of one invocation; times are medians.

use crate::clock::{timed, Origin};
use crate::gate::{self, Tally};
use crate::measure::guarded_run;
use crate::replay::{compare, replay};
use crate::spans::{self, Layer, Recorder, LAYERS};
use crate::stats::{median, tail};
use crate::workloads::{fleet_config, render_experiment, setup, RunOutput, Workload};
use crate::Report;
use greengpu_repro::experiments::ALL_IDS;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Traced runs per invocation, at least: two, so that every count is
/// checked to repeat.
const MIN_TRACED: usize = 2;
/// Traced runs per invocation, at most.
const MAX_TRACED: usize = 20;

/// One named metric with its unit.
type Metric = (String, f64, &'static str);

/// Every per-layer metric name with its unit, in report order.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for layer in LAYERS {
        names.push((format!("{}.calls", layer.name()), "count"));
        names.push((format!("{}.self_s", layer.name()), "s"));
        names.push((format!("{}.allocs", layer.name()), "count"));
    }
    for (name, unit) in [
        ("cluster.engine.tick.p50_us", "us"),
        ("cluster.engine.tick.tail_us", "us"),
        ("cluster.engine.tick.samples", "count"),
        ("cluster.node.control_tick.skip_frac", "ratio"),
        ("cluster.power.reuse_frac", "ratio"),
        ("cluster.scheduler.admit_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_s", "s"),
    ] {
        names.push((name.to_string(), unit));
    }
    for id in ALL_IDS {
        names.push((format!("repro.{id}.self_s"), "s"));
    }
    names
}

/// Whether a metric is a count that must repeat exactly.
fn is_count(name: &str) -> bool {
    name.ends_with(".calls") || name.ends_with(".allocs") || name.ends_with(".samples") || name.ends_with("_frac")
}

/// One traced run's metrics: the per-run values by name, the traced wall
/// seconds, and the spans.
struct TracedRun {
    values: BTreeMap<String, f64>,
    wall_s: f64,
    spans: Vec<spans::Span>,
    tail_pct: Option<f64>,
}

/// Runs the traced mode for about `seconds` seconds. Fails, printing no
/// per-layer numbers, when a replay diverges from `run_fleet`, a count
/// does not repeat, or an untraced run fails the gate.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut tally = Tally::new(w, seed);
    black_box(setup(w, seed));
    let budget = Origin::now();
    let mut untraced: Vec<f64> = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    while runs.len() < MIN_TRACED
        || (runs.len() < MAX_TRACED && budget.secs() + median(&untraced).unwrap_or(0.0) + runs[0].wall_s <= seconds)
    {
        let (out, wall, _) = guarded_run(w, seed);
        let out = out.map_err(|panic| format!("untraced run panicked: {panic}"))?;
        if !tally.record(Ok(gate::check(&out))) {
            return Err(tally.problems.join("; "));
        }
        untraced.push(wall);
        let run = match &out {
            RunOutput::Fleet(reference) => {
                let cfg = fleet_config(w, seed).ok_or("fleet workload without a fleet config")?;
                traced_fleet(&cfg, reference)?
            }
            RunOutput::Repro(text) => traced_repro(seed, text)?,
        };
        if let Some(first) = runs.first() {
            for (name, v) in run.values.iter().filter(|(name, _)| is_count(name)) {
                if first.values.get(name) != Some(v) {
                    return Err(format!(
                        "count {name} did not repeat: {:?} then {v}",
                        first.values.get(name)
                    ));
                }
            }
        }
        runs.push(run);
    }

    let untraced_s = median(&untraced).ok_or("no untraced run")?;
    let traced_s = median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).ok_or("no traced run")?;
    let mut metrics: Vec<Metric> = Vec::new();
    for (name, unit) in metric_names() {
        let value = if name == "trace.overhead_frac" {
            traced_s / untraced_s - 1.0
        } else {
            let per_run: Vec<f64> = runs
                .iter()
                .map(|r| r.values.get(&name).copied().unwrap_or(0.0))
                .collect();
            median(&per_run).unwrap_or(0.0)
        };
        metrics.push((name, value, unit));
    }
    let mut lines = vec![format!(
        "{} seed {seed}: {} traced runs reproduced the untraced outputs; traced {traced_s:.4} s vs untraced {untraced_s:.4} s (medians)",
        w.name(),
        runs.len(),
    )];
    if let Some(last) = runs.last() {
        let samples = last.values.get("cluster.engine.tick.samples").copied().unwrap_or(0.0);
        match last.tail_pct {
            Some(pct) => lines.push(format!("cluster.engine.tick tail is p{pct} over {samples} intervals")),
            None if samples > 0.0 => {
                lines.push(format!("cluster.engine.tick: too few intervals ({samples}) for a tail"))
            }
            None => {}
        }
    }
    for (name, value, unit) in &metrics {
        lines.push(format!("{name:<42} {value} {unit}"));
    }
    Ok(Report {
        lines,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans_tsv: runs.last().map(|r| spans::to_tsv(&r.spans)),
    })
}

/// One traced fleet replay, checked against `run_fleet`'s outputs.
fn traced_fleet(
    cfg: &greengpu_cluster::FleetConfig,
    reference: &crate::workloads::FleetRun,
) -> Result<TracedRun, String> {
    let mut rec = Recorder::with_capacity(1024);
    let (result, wall_s) = timed(|| {
        let root = rec.begin(Layer::Run, 0);
        let out = replay(cfg, &mut rec);
        rec.end(root, 0);
        out
    });
    let out = result?;
    compare(&out, reference)?;
    let spans = rec.spans().to_vec();
    let mut values = BTreeMap::new();
    let totals = spans::layer_totals(&spans);
    for (layer, t) in LAYERS.iter().zip(&totals) {
        values.insert(format!("{}.calls", layer.name()), t.calls as f64);
        values.insert(format!("{}.self_s", layer.name()), t.self_ns as f64 * 1e-9);
        values.insert(format!("{}.allocs", layer.name()), t.allocs as f64);
    }
    let ticks: Vec<f64> = spans::durations(&spans, Layer::EngineTick)
        .into_iter()
        .map(|ns| ns as f64 * 1e-3)
        .collect();
    let tail = tail(&ticks);
    values.insert("cluster.engine.tick.p50_us".to_string(), median(&ticks).unwrap_or(0.0));
    values.insert("cluster.engine.tick.tail_us".to_string(), tail.map_or(0.0, |t| t.value));
    values.insert("cluster.engine.tick.samples".to_string(), ticks.len() as f64);
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    values.insert(
        "cluster.node.control_tick.skip_frac".to_string(),
        ratio(out.deep_parked, out.live_node_intervals),
    );
    values.insert(
        "cluster.power.reuse_frac".to_string(),
        ratio(out.apportion_skipped, out.flat_intervals),
    );
    values.insert(
        "cluster.scheduler.admit_frac".to_string(),
        ratio(out.admitted, out.submitted),
    );
    let root_ns = spans.first().map_or(0, |s| s.end_ns - s.start_ns);
    let attributed_ns: u64 = totals.iter().map(|t| t.self_ns).sum();
    values.insert(
        "trace.unattributed_s".to_string(),
        root_ns.saturating_sub(attributed_ns) as f64 * 1e-9,
    );
    Ok(TracedRun {
        values,
        wall_s,
        spans,
        tail_pct: tail.map(|t| t.pct),
    })
}

/// One traced `repro_all` run: a span around each experiment; its
/// rendered output must equal the untraced run's.
fn traced_repro(seed: u64, reference: &str) -> Result<TracedRun, String> {
    let mut rec = Recorder::with_capacity(ALL_IDS.len() + 1);
    let (text, wall_s) = timed(|| {
        let root = rec.begin(Layer::Run, 0);
        let mut text = String::new();
        for id in ALL_IDS {
            let span = rec.begin(Layer::Experiment(id), 0);
            text.push_str(&render_experiment(id, seed));
            rec.end(span, 1);
        }
        rec.end(root, 0);
        text
    });
    if text != reference {
        return Err("traced repro_all output differs from the untraced run".to_string());
    }
    let spans = rec.spans().to_vec();
    let costs = spans::self_costs(&spans);
    let mut values = BTreeMap::new();
    let mut attributed_ns = 0u64;
    for (s, (self_ns, _)) in spans.iter().zip(&costs) {
        if let Layer::Experiment(id) = s.layer {
            values.insert(format!("repro.{id}.self_s"), *self_ns as f64 * 1e-9);
            attributed_ns += self_ns;
        }
    }
    let root_ns = spans.first().map_or(0, |s| s.end_ns - s.start_ns);
    values.insert(
        "trace.unattributed_s".to_string(),
        root_ns.saturating_sub(attributed_ns) as f64 * 1e-9,
    );
    Ok(TracedRun {
        values,
        wall_s,
        spans,
        tail_pct: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names = metric_names();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name}"
            );
            assert!(!unit.is_empty());
        }
        assert_eq!(names.len(), 12 * 3 + 8 + ALL_IDS.len());
    }

    #[test]
    fn per_layer_names_match_the_benchmark_definition() {
        let def = include_str!("../../BENCHMARK.json");
        let section = def.split("\"per_layer\"").nth(1).expect("per_layer section");
        for (name, unit) in metric_names() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(section.matches("\"name\"").count(), metric_names().len());
    }
}
