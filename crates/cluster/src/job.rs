//! Jobs and the seeded open-loop arrival stream.
//!
//! A job is one run of a Table II workload (by registry name) with a size
//! multiplier and an optional completion deadline. Arrivals are open-loop
//! — a Poisson process whose rate does not react to the fleet — which is
//! the standard stress model for admission control: the queue, not the
//! clients, absorbs overload.

use greengpu_sim::{Pcg32, SimDuration, SimTime, SplitMix64};
use greengpu_tenancy::{validate_mix, validate_range};
use std::collections::BTreeMap;

/// One submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Monotone submission id.
    pub id: u64,
    /// Workload registry name (`hotspot`, `kmeans`, `training`, …).
    pub workload: String,
    /// Submission time.
    pub arrival: SimTime,
    /// Service-time multiplier relative to the profiled run.
    pub size: f64,
    /// Optional absolute completion deadline.
    pub deadline: Option<SimTime>,
    /// Owning tenant's index in the serving config (0 for the anonymous
    /// single-stream runs, which behave as one implicit tenant).
    pub tenant: usize,
}

/// Completion record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job as submitted.
    pub spec: JobSpec,
    /// Node that served it.
    pub node: usize,
    /// Dispatch time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Whether a deadline existed and was missed.
    pub missed_deadline: bool,
    /// GPU board energy attributed to this job's service windows, joules
    /// (the profile's pair energy prorated by per-window progress, so it
    /// reflects the frequency pairs the job actually ran under).
    pub gpu_energy_j: f64,
}

impl JobRecord {
    /// Queueing delay before dispatch, seconds.
    pub fn wait_s(&self) -> f64 {
        self.started.saturating_since(self.spec.arrival).as_secs_f64()
    }

    /// Arrival-to-completion time, seconds.
    pub fn turnaround_s(&self) -> f64 {
        self.finished.saturating_since(self.spec.arrival).as_secs_f64()
    }
}

/// Arrival-stream shape: rate, workload mix, sizes, deadlines.
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Mean arrival rate, jobs per second (exponential interarrivals).
    pub rate_per_s: f64,
    /// Workload mix as `(registry name, weight)`; weights need not sum
    /// to 1.
    pub mix: Vec<(String, f64)>,
    /// Uniform size-multiplier range.
    pub size_range: (f64, f64),
    /// Fraction of jobs carrying a deadline.
    pub deadline_frac: f64,
    /// Deadline slack as a uniform multiplier range over the job's
    /// reference (peak-clock) service time.
    pub deadline_slack: (f64, f64),
}

impl ArrivalConfig {
    /// A 50/50 hotspot/kmeans mix — the sweep default.
    pub fn hotspot_kmeans(rate_per_s: f64) -> Self {
        ArrivalConfig {
            rate_per_s,
            mix: vec![("hotspot".to_string(), 1.0), ("kmeans".to_string(), 1.0)],
            size_range: (0.5, 2.0),
            deadline_frac: 0.5,
            deadline_slack: (2.0, 6.0),
        }
    }

    /// Non-panicking configuration check naming the offending field. The
    /// mix and sizes follow [`greengpu_tenancy::validate_mix`], the rules
    /// serving tenants follow.
    pub fn try_validate(&self) -> Result<(), String> {
        if !(self.rate_per_s.is_finite() && self.rate_per_s > 0.0) {
            return Err(format!("rate_per_s must be finite and > 0, got {}", self.rate_per_s));
        }
        validate_mix(&self.mix, self.size_range)?;
        if !(0.0..=1.0).contains(&self.deadline_frac) {
            return Err(format!("deadline_frac must be in [0, 1], got {}", self.deadline_frac));
        }
        validate_range("deadline_slack", self.deadline_slack)
    }

    /// The arrival rate that drives `n_nodes` nodes at `load` utilization
    /// given the mean reference service time of the mix.
    pub fn rate_for_load(load: f64, n_nodes: usize, mean_service_s: f64) -> f64 {
        assert!(mean_service_s > 0.0, "mean service time must be positive");
        load * n_nodes as f64 / mean_service_s
    }
}

// Child-stream selectors for the arrival generator.
const STREAM_INTERARRIVAL: u64 = 0xC1_0001;
const STREAM_MIX: u64 = 0xC1_0002;
const STREAM_SIZE: u64 = 0xC1_0003;
const STREAM_DEADLINE: u64 = 0xC1_0004;

/// Generates the full arrival stream inside `[0, horizon)`.
///
/// `ref_time_s` maps each mix entry to its reference (peak-clock, size
/// 1.0) service time, used to scale deadlines so they are tight but
/// meetable. All randomness derives from `seed` via independent
/// [`Pcg32`] streams, so the stream is reproducible and insensitive to
/// evaluation order elsewhere.
pub fn generate_arrivals(
    seed: u64,
    cfg: &ArrivalConfig,
    horizon: SimDuration,
    ref_time_s: &BTreeMap<String, f64>,
) -> Vec<JobSpec> {
    ArrivalStream::new(seed, cfg, horizon, ref_time_s).collect()
}

/// The jobs [`generate_arrivals`] collects, drawn one per `next` in
/// arrival order, so a run holds only the next job, not the whole run's.
pub(crate) struct ArrivalStream<'a> {
    cfg: &'a ArrivalConfig,
    ref_time_s: &'a BTreeMap<String, f64>,
    r_gap: Pcg32,
    r_mix: Pcg32,
    r_size: Pcg32,
    r_dl: Pcg32,
    total_weight: f64,
    horizon_s: f64,
    /// The latest arrival instant, seconds.
    t: f64,
    next_id: u64,
}

impl<'a> ArrivalStream<'a> {
    /// The stream of `cfg` from `seed` inside `[0, horizon)` (see
    /// [`generate_arrivals`]).
    pub fn new(seed: u64, cfg: &'a ArrivalConfig, horizon: SimDuration, ref_time_s: &'a BTreeMap<String, f64>) -> Self {
        assert!(cfg.rate_per_s > 0.0, "arrival rate must be positive");
        assert!(!cfg.mix.is_empty(), "empty workload mix");
        let root = SplitMix64::new(seed).next_u64();
        ArrivalStream {
            cfg,
            ref_time_s,
            r_gap: Pcg32::new(root, STREAM_INTERARRIVAL),
            r_mix: Pcg32::new(root, STREAM_MIX),
            r_size: Pcg32::new(root, STREAM_SIZE),
            r_dl: Pcg32::new(root, STREAM_DEADLINE),
            total_weight: cfg.mix.iter().map(|(_, w)| w).sum(),
            horizon_s: horizon.as_secs_f64(),
            t: 0.0,
            next_id: 0,
        }
    }
}

impl Iterator for ArrivalStream<'_> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let cfg = self.cfg;
        // Exponential interarrival; 1-u keeps the argument strictly
        // positive. Past the horizon every later draw stays past it.
        let u = self.r_gap.next_f64();
        self.t += -(1.0 - u).ln() / cfg.rate_per_s;
        if self.t >= self.horizon_s {
            return None;
        }
        let mut pick = self.r_mix.next_f64() * self.total_weight;
        let mut name = cfg.mix.first().map_or("", |(n, _)| n.as_str());
        for (n, w) in &cfg.mix {
            name = n.as_str();
            pick -= w;
            if pick <= 0.0 {
                break;
            }
        }
        let size = self.r_size.uniform(cfg.size_range.0, cfg.size_range.1);
        let arrival = SimTime::ZERO + SimDuration::from_secs_f64(self.t);
        let with_deadline = self.r_dl.next_f64() < cfg.deadline_frac;
        let slack = self.r_dl.uniform(cfg.deadline_slack.0, cfg.deadline_slack.1);
        let deadline = if with_deadline {
            let reference = self.ref_time_s.get(name).copied().unwrap_or(1.0);
            Some(arrival + SimDuration::from_secs_f64(reference * size * slack))
        } else {
            None
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(JobSpec {
            id,
            workload: name.to_string(),
            arrival,
            size,
            deadline,
            tenant: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_times() -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert("hotspot".to_string(), 2.0);
        m.insert("kmeans".to_string(), 3.0);
        m
    }

    #[test]
    fn arrival_stream_is_deterministic() {
        let cfg = ArrivalConfig::hotspot_kmeans(0.5);
        let a = generate_arrivals(7, &cfg, SimDuration::from_secs(200), &ref_times());
        let b = generate_arrivals(7, &cfg, SimDuration::from_secs(200), &ref_times());
        assert_eq!(a, b);
        let c = generate_arrivals(8, &cfg, SimDuration::from_secs(200), &ref_times());
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn arrivals_are_ordered_and_in_horizon() {
        let cfg = ArrivalConfig::hotspot_kmeans(1.0);
        let horizon = SimDuration::from_secs(300);
        let jobs = generate_arrivals(42, &cfg, horizon, &ref_times());
        assert!(!jobs.is_empty());
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
            assert!(j.arrival.saturating_since(SimTime::ZERO) < horizon);
            assert!((cfg.size_range.0..=cfg.size_range.1).contains(&j.size));
            if let Some(d) = j.deadline {
                assert!(d > j.arrival);
            }
        }
    }

    #[test]
    fn rate_tracks_the_configured_mean() {
        let cfg = ArrivalConfig::hotspot_kmeans(2.0);
        let jobs = generate_arrivals(3, &cfg, SimDuration::from_secs(2000), &ref_times());
        let rate = jobs.len() as f64 / 2000.0;
        assert!((rate - 2.0).abs() < 0.2, "empirical rate {rate}");
    }

    #[test]
    fn mix_covers_both_workloads() {
        let cfg = ArrivalConfig::hotspot_kmeans(1.0);
        let jobs = generate_arrivals(11, &cfg, SimDuration::from_secs(500), &ref_times());
        assert!(jobs.iter().any(|j| j.workload == "hotspot"));
        assert!(jobs.iter().any(|j| j.workload == "kmeans"));
    }

    #[test]
    fn load_helper_inverts_littles_law() {
        let rate = ArrivalConfig::rate_for_load(0.7, 4, 2.0);
        assert!((rate - 1.4).abs() < 1e-12);
    }

    /// The generator as it was before the stream: every draw of the run in
    /// one loop, collected. The oracle the stream is compared with.
    fn eager_arrivals(
        seed: u64,
        cfg: &ArrivalConfig,
        horizon: SimDuration,
        ref_time_s: &BTreeMap<String, f64>,
    ) -> Vec<JobSpec> {
        let root = SplitMix64::new(seed).next_u64();
        let mut r_gap = Pcg32::new(root, STREAM_INTERARRIVAL);
        let mut r_mix = Pcg32::new(root, STREAM_MIX);
        let mut r_size = Pcg32::new(root, STREAM_SIZE);
        let mut r_dl = Pcg32::new(root, STREAM_DEADLINE);
        let total_weight: f64 = cfg.mix.iter().map(|(_, w)| w).sum();
        let mut jobs = Vec::new();
        let mut t = 0.0f64;
        let horizon_s = horizon.as_secs_f64();
        loop {
            let u = r_gap.next_f64();
            t += -(1.0 - u).ln() / cfg.rate_per_s;
            if t >= horizon_s {
                break;
            }
            let mut pick = r_mix.next_f64() * total_weight;
            let mut name = cfg.mix[0].0.as_str();
            for (n, w) in &cfg.mix {
                name = n.as_str();
                pick -= w;
                if pick <= 0.0 {
                    break;
                }
            }
            let size = r_size.uniform(cfg.size_range.0, cfg.size_range.1);
            let arrival = SimTime::ZERO + SimDuration::from_secs_f64(t);
            let with_deadline = r_dl.next_f64() < cfg.deadline_frac;
            let slack = r_dl.uniform(cfg.deadline_slack.0, cfg.deadline_slack.1);
            let deadline = with_deadline.then(|| {
                let reference = ref_time_s.get(name).copied().unwrap_or(1.0);
                arrival + SimDuration::from_secs_f64(reference * size * slack)
            });
            jobs.push(JobSpec {
                id: jobs.len() as u64,
                workload: name.to_string(),
                arrival,
                size,
                deadline,
                tenant: 0,
            });
        }
        jobs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The stream, drawn one job at a time, yields exactly the eager
        /// generator's jobs (ids, instants, workloads, sizes, deadlines),
        /// and [`generate_arrivals`] collects the same.
        #[test]
        fn the_stream_yields_the_eager_generators_jobs(
            seed in proptest::prelude::any::<u64>(),
            rate in 0.01f64..50.0,
            weights in proptest::collection::vec(0.1f64..4.0, 1..4),
            deadline_tenths in 0u64..11,
            horizon_s in 1u64..400,
        ) {
            let deadline_frac = deadline_tenths as f64 / 10.0;
            let names = ["hotspot", "kmeans", "training"];
            let cfg = ArrivalConfig {
                rate_per_s: rate,
                mix: weights.iter().enumerate().map(|(i, &w)| (names[i].to_string(), w)).collect(),
                size_range: (0.5, 2.0),
                deadline_frac,
                deadline_slack: (2.0, 6.0),
            };
            let horizon = SimDuration::from_secs(horizon_s);
            let refs = ref_times();
            let want = eager_arrivals(seed, &cfg, horizon, &refs);
            let mut stream = ArrivalStream::new(seed, &cfg, horizon, &refs);
            let got: Vec<JobSpec> = stream.by_ref().collect();
            proptest::prop_assert_eq!(stream.next(), None, "the stream stays ended");
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(generate_arrivals(seed, &cfg, horizon, &refs), want);
        }
    }
}
