//! Serializable run summaries for the CLI's `--json` output.

use greengpu_runtime::{IterationRecord, RunReport};
use greengpu_sim::{JsonWriter, SimTime};

/// A machine-readable snapshot of a run: totals, final clocks, and the
/// per-iteration rows.
#[derive(Debug, Clone)]
pub struct ReportSummary {
    /// Workload name.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Seed used.
    pub seed: u64,
    /// Total virtual time, seconds.
    pub total_time_s: f64,
    /// GPU-side energy (Meter 2), joules.
    pub gpu_energy_j: f64,
    /// CPU-side energy (Meter 1), joules.
    pub cpu_energy_j: f64,
    /// Whole-system energy, joules.
    pub total_energy_j: f64,
    /// Mean system power, watts.
    pub mean_power_w: f64,
    /// Final GPU core clock, MHz.
    pub final_core_mhz: f64,
    /// Final GPU memory clock, MHz.
    pub final_mem_mhz: f64,
    /// Final CPU P-state frequency, MHz.
    pub final_cpu_mhz: f64,
    /// Functional result digest (0 in sweep mode).
    pub digest: f64,
    /// Seconds of CPU spin-wait.
    pub spin_s: f64,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// 1 Hz GPU power samples (what Meter 2 would log), truncated to the
    /// first `max_samples`.
    pub gpu_power_1hz_w: Vec<f64>,
}

/// Cap on exported 1 Hz samples (long runs stay manageable).
pub const MAX_POWER_SAMPLES: usize = 3600;

impl ReportSummary {
    /// Builds a summary from a run report.
    pub fn from_report(workload: &str, policy: &str, seed: u64, report: &RunReport) -> Self {
        let secs = report.total_time.as_secs_f64().ceil() as usize;
        let n = secs.min(MAX_POWER_SAMPLES);
        let log = report
            .platform
            .gpu_meter()
            .sample_log(SimTime::ZERO, greengpu_sim::SimDuration::from_secs(1), n);
        ReportSummary {
            workload: workload.to_string(),
            policy: policy.to_string(),
            seed,
            total_time_s: report.total_time.as_secs_f64(),
            gpu_energy_j: report.gpu_energy_j,
            cpu_energy_j: report.cpu_energy_j,
            total_energy_j: report.total_energy_j(),
            mean_power_w: report.mean_power_w(),
            final_core_mhz: report.platform.gpu().core().current_mhz(),
            final_mem_mhz: report.platform.gpu().mem().current_mhz(),
            final_cpu_mhz: report.platform.cpu().domain().current_mhz(),
            digest: report.digest,
            spin_s: report.spin_seconds(),
            iterations: report.iterations.clone(),
            gpu_power_1hz_w: log.values().to_vec(),
        }
    }

    /// Renders the summary as one JSON document on one line. Every float
    /// prints as its shortest round-trip text, so parsing it back recovers
    /// the exact bit pattern.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| {
            w.obj(|w| {
                w.key("workload").str(&self.workload);
                w.key("policy").str(&self.policy);
                w.key("seed").u64(self.seed);
                w.key("total_time_s").f64(self.total_time_s);
                w.key("gpu_energy_j").f64(self.gpu_energy_j);
                w.key("cpu_energy_j").f64(self.cpu_energy_j);
                w.key("total_energy_j").f64(self.total_energy_j);
                w.key("mean_power_w").f64(self.mean_power_w);
                w.key("final_core_mhz").f64(self.final_core_mhz);
                w.key("final_mem_mhz").f64(self.final_mem_mhz);
                w.key("final_cpu_mhz").f64(self.final_cpu_mhz);
                w.key("digest").f64(self.digest);
                w.key("spin_s").f64(self.spin_s);
                w.key("iterations").arr(|w| {
                    for it in &self.iterations {
                        w.obj(|w| {
                            w.key("index").usize(it.index);
                            w.key("cpu_share").f64(it.cpu_share);
                            w.key("tc_s").f64(it.tc_s);
                            w.key("tg_s").f64(it.tg_s);
                            w.key("start_us").u64(it.start.0);
                            w.key("end_us").u64(it.end.0);
                            w.key("energy_j").f64(it.energy_j);
                        });
                    }
                });
                w.key("gpu_power_1hz_w").f64s(&self.gpu_power_1hz_w);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu::baselines::run_best_performance;
    use greengpu_sim::JsonValue;
    use greengpu_workloads::kmeans::KMeans;

    #[test]
    fn summary_round_trips_through_json() {
        let report = run_best_performance(&mut KMeans::small(1));
        let summary = ReportSummary::from_report("kmeans", "default", 1, &report);
        let json = JsonValue::parse(&summary.to_json()).expect("the summary is JSON");
        assert_eq!(json.get("workload").and_then(JsonValue::as_str), Some("kmeans"));
        assert_eq!(json.get("seed").and_then(JsonValue::as_u64), Some(1));
        let iterations = json.get("iterations").and_then(JsonValue::as_arr).expect("an array");
        assert_eq!(iterations.len(), summary.iterations.len());
        // Shortest round-trip float text parses back to the same bits.
        let back = json
            .get("total_energy_j")
            .and_then(JsonValue::as_f64)
            .expect("a number");
        assert_eq!(
            back.to_bits(),
            summary.total_energy_j.to_bits(),
            "energy must round-trip bit-exactly"
        );
    }

    #[test]
    fn power_samples_are_bounded_and_positive() {
        let report = run_best_performance(&mut KMeans::small(2));
        let summary = ReportSummary::from_report("kmeans", "default", 2, &report);
        assert!(!summary.gpu_power_1hz_w.is_empty());
        assert!(summary.gpu_power_1hz_w.len() <= MAX_POWER_SAMPLES);
        assert!(summary.gpu_power_1hz_w.iter().all(|&w| w > 0.0));
    }
}
