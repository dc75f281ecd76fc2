//! The three workloads: their inputs (all derived from the seed), their
//! set-up, and one complete run of each with its outputs rendered in
//! memory.

use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, FleetReport, FleetTrace, Policy, Topology};
use greengpu_hw::ChaosPlan;
use greengpu_repro::experiments::{run_by_id, ALL_IDS};
use greengpu_sim::{SimDuration, SplitMix64};

/// The seed whose output digests are pinned (the `repro` default).
pub const DEFAULT_SEED: u64 = greengpu_repro::experiments::DEFAULT_SEED;

/// Simulated horizon of `fleet_busy_1k`, seconds.
const BUSY_HORIZON_S: u64 = 600;
/// Simulated horizon of `geo_idle_10k`, seconds: the idle learners
/// settle and park over the first ~120 s, so this leaves a parked phase.
const GEO_HORIZON_S: u64 = 200;

/// Separates the chaos plan's seed from the fleet's own streams.
const CHAOS_SALT: u64 = 0xC4A0_5EED;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every `repro` experiment at the seed.
    ReproAll,
    /// 1 000 busy nodes, flat fleet, saturated admission.
    FleetBusy1k,
    /// 10 000 mostly idle nodes in a 5×10×25×8 geo tree, light chaos.
    GeoIdle10k,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "repro_all" => Some(Workload::ReproAll),
            "fleet_busy_1k" => Some(Workload::FleetBusy1k),
            "geo_idle_10k" => Some(Workload::GeoIdle10k),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproAll => "repro_all",
            Workload::FleetBusy1k => "fleet_busy_1k",
            Workload::GeoIdle10k => "geo_idle_10k",
        }
    }
}

/// The fleet configuration of a fleet workload at `seed` (`None` for
/// `repro_all`).
pub fn fleet_config(w: Workload, seed: u64) -> Option<FleetConfig> {
    match w {
        Workload::ReproAll => None,
        Workload::FleetBusy1k => Some(
            // Default offered load (~70 % of the fleet at peak clocks)
            // saturates admission once the budget slows the nodes.
            FleetConfig::homogeneous(
                1_000,
                0.8,
                Policy::LeastLoaded,
                SimDuration::from_secs(BUSY_HORIZON_S),
                seed,
            )
            .with_engine(EngineKind::EventDriven),
        ),
        Workload::GeoIdle10k => {
            let mut cfg = FleetConfig::homogeneous(
                10_000,
                0.8,
                Policy::LeastLoaded,
                SimDuration::from_secs(GEO_HORIZON_S),
                seed,
            )
            .with_engine(EngineKind::EventDriven)
            .with_topology(Topology::uniform(5, 10, 25, 8))
            // Light, correlated chaos at MTBFs of hours: node crashes
            // (4 h per node), rack power losses (8 h per rack) and zone
            // thermal events (2 h per zone). No partitions: their
            // blackout windows keep a zone's nodes from ever parking.
            .with_chaos(
                ChaosPlan::crashes_only(
                    SplitMix64::new(seed ^ CHAOS_SALT).next_u64(),
                    1.0 / (4.0 * 3600.0),
                    (30.0, 90.0),
                )
                .with_rack_loss(1.0 / (8.0 * 3600.0), (30.0, 90.0))
                .with_zone_thermal(1.0 / (2.0 * 3600.0), (10.0, 30.0)),
            );
            // BENCH_6's fixed fleet-wide trickle: the mostly idle regime.
            cfg.arrivals.rate_per_s = 2.0;
            Some(cfg)
        }
    }
}

/// One set-up: for a fleet, the config plus `run_fleet` cut to its first
/// control interval; for `repro_all`, building the Table II suite.
/// Returns a size to keep the work observable.
pub fn setup(w: Workload, seed: u64) -> usize {
    match fleet_config(w, seed) {
        Some(mut cfg) => {
            cfg.horizon = cfg.control_period;
            run_fleet(&cfg).trace.rows.len()
        }
        None => greengpu_workloads::registry::all_workloads(seed).len(),
    }
}

/// What one complete run leaves behind for the correctness gate.
pub enum RunOutput {
    /// A fleet run's report and its rendered CSVs.
    Fleet(Box<FleetRun>),
    /// Every experiment's markdown and CSVs, concatenated.
    Repro(String),
}

/// A fleet run's report plus its fleet and geo trace CSVs.
pub struct FleetRun {
    pub report: FleetReport,
    pub csv: String,
    pub geo_csv: String,
}

/// One complete run of `w` at `seed`, outputs rendered in memory.
pub fn run(w: Workload, seed: u64) -> RunOutput {
    match fleet_config(w, seed) {
        Some(cfg) => RunOutput::Fleet(Box::new(run_fleet_rendered(&cfg))),
        None => RunOutput::Repro(ALL_IDS.iter().map(|id| render_experiment(id, seed)).collect()),
    }
}

/// The warm-up run of `w` at `seed`: a fleet on a quarter of its
/// horizon, which takes the code paths of a complete run at a fraction
/// of its cost; `repro_all` complete.
pub fn warm_up(w: Workload, seed: u64) -> RunOutput {
    match fleet_config(w, seed) {
        Some(mut cfg) => {
            cfg.horizon = SimDuration::from_secs_f64(cfg.horizon.as_secs_f64() / 4.0);
            RunOutput::Fleet(Box::new(run_fleet_rendered(&cfg)))
        }
        None => run(w, seed),
    }
}

/// `run_fleet` plus rendering its fleet and geo trace CSVs.
pub fn run_fleet_rendered(cfg: &FleetConfig) -> FleetRun {
    let report = run_fleet(cfg);
    let (csv, geo_csv) = render_fleet(&report.trace, &report.geo_trace);
    FleetRun { report, csv, geo_csv }
}

/// The fleet and geo trace CSVs, rendered in memory.
pub fn render_fleet(trace: &FleetTrace, geo: &greengpu_cluster::GeoTrace) -> (String, String) {
    let mut csv = String::new();
    trace.write_csv_into(&mut csv);
    let mut geo_csv = String::new();
    geo.write_csv_into(&mut geo_csv);
    (csv, geo_csv)
}

/// One experiment's markdown followed by each of its tables as CSV.
pub fn render_experiment(id: &str, seed: u64) -> String {
    let Some(out) = run_by_id(id, seed) else {
        return format!("unknown experiment {id}\n");
    };
    let mut text = out.to_markdown();
    for table in &out.tables {
        text.push_str(&table.to_csv());
    }
    text
}
