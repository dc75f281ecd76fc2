//! Table I (the WMA loss function) and Table II (the workload inventory).

use super::ExperimentOutput;
use greengpu::analysis::measure_profile;
use greengpu::baselines::run_best_performance_with;
use greengpu::wma::{level_loss, table1_loss, WmaParams};
use greengpu_runtime::RunConfig;
use greengpu_sim::{table::fnum, Table};
use greengpu_workloads::registry;

/// Table I: the loss function, demonstrated numerically on the 6-level
/// `umean` grid for a few observed utilizations.
pub fn table1() -> ExperimentOutput {
    let mut spec = Table::new(
        "Table I — loss function definition",
        &["condition", "energy loss (l_ie)", "performance loss (l_ip)"],
    );
    spec.row(&["u > umean[i]".into(), "0".into(), "u - umean[i]".into()]);
    spec.row(&["u < umean[i]".into(), "umean[i] - u".into(), "0".into()]);
    spec.row(&[
        "combined".into(),
        "l_i = α·l_ie + (1-α)·l_ip".into(),
        "α_c=0.15, α_m=0.02, φ=0.3, β=0.2".into(),
    ]);

    let alpha_core = WmaParams::default().alpha_core;
    let mut demo = Table::new(
        "Core-domain loss per level (α_c = 0.15)",
        &[
            "u \\ level",
            "0 (umean 0.0)",
            "1 (0.2)",
            "2 (0.4)",
            "3 (0.6)",
            "4 (0.8)",
            "5 (1.0)",
        ],
    );
    for u in [0.0, 0.3, 0.6, 0.9] {
        let mut cells = vec![fnum(u, 1)];
        for i in 0..6 {
            cells.push(fnum(level_loss(alpha_core, u, i as f64 / 5.0), 3));
        }
        demo.row(&cells);
    }

    let mut notes = Vec::new();
    let (le, lp) = table1_loss(0.9, 0.6);
    notes.push(format!(
        "Sanity: u=0.9 vs umean=0.6 gives (energy, performance) loss = ({le:.2}, {lp:.2}) — pure performance loss, as Table I specifies."
    ));
    notes.push(
        "The argmin-loss level for any utilization is the lowest level whose umean covers it — the paper's \"directly to the best levels\" behaviour.".to_string(),
    );

    ExperimentOutput {
        id: "table1",
        title: "Loss function used in the GPU frequency scaling algorithm",
        tables: vec![spec, demo],
        notes,
    }
}

/// Table II: the workload suite with its enlargements and utilization
/// classes — both the declared registry rows and the classes *measured*
/// from peak-clock utilization traces (the paper's own procedure).
pub fn table2(seed: u64) -> ExperimentOutput {
    let mut t = Table::new(
        "Table II — workloads used in the experiments",
        &["Workload", "Enlargement", "Description", "Divisible"],
    );
    for w in registry::all_workloads(seed) {
        let p = w.profile();
        t.row(&[
            p.name.to_string(),
            p.enlargement.clone(),
            p.description.to_string(),
            if p.divisible { "yes" } else { "no" }.to_string(),
        ]);
    }

    // The measured version: run each workload at peak clocks and recover
    // its classes from the utilization traces.
    let mut measured = Table::new(
        "Table II (measured) — classes recovered from peak-clock utilization traces",
        &[
            "Workload",
            "u_core mean",
            "u_mem mean",
            "swing",
            "measured classes",
            "matches",
        ],
    );
    let mut matches = 0;
    for mut w in registry::all_workloads(seed) {
        let expected = (w.profile().core_class, w.profile().mem_class);
        let name = w.profile().name;
        let report = run_best_performance_with(w.as_mut(), RunConfig::sweep());
        let m = measure_profile(&report);
        let ok = (m.core_class, m.mem_class) == expected;
        if ok {
            matches += 1;
        }
        measured.row(&[
            name.to_string(),
            fnum(m.core.mean, 2),
            fnum(m.mem.mean, 2),
            fnum(m.core.swing.max(m.mem.swing), 2),
            format!("{:?} / {:?}", m.core_class, m.mem_class),
            if ok { "✓" } else { "✗" }.to_string(),
        ]);
    }

    ExperimentOutput {
        id: "table2",
        title: "Summary of workloads used in the (simulated) hardware experiments",
        tables: vec![t, measured],
        notes: vec![
            "All nine Rodinia/CUDA-SDK workloads are re-implemented functionally in Rust; utilization classes are verified against this table by the workload test suites.".to_string(),
            format!("Trace analysis recovers the declared classes for {matches}/9 workloads — the paper's own classification procedure, closed-loop."),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_spec_and_demo() {
        let out = table1();
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].len(), 3);
        assert_eq!(out.tables[1].len(), 4);
    }

    #[test]
    fn table2_lists_all_nine() {
        let out = table2(1);
        assert_eq!(out.tables[0].len(), 9);
        let md = out.to_markdown();
        assert!(md.contains("988040 data points"));
        assert!(md.contains("streamcluster"));
    }

    #[test]
    fn table2_measured_classes_all_match() {
        let out = table2(1);
        assert_eq!(out.tables[1].len(), 9);
        let csv = out.tables[1].to_csv();
        assert!(!csv.contains('✗'), "a measured class diverged:\n{csv}");
    }
}
