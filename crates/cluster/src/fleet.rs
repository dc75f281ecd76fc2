//! The fleet simulator: nodes + scheduler + power capping + failure
//! lifecycle on one event spine.
//!
//! Three event kinds drive the run: job **arrivals** (drawn from the
//! seeded stream as the spine reaches them; a serving run's tenant merge
//! is generated up front), **control ticks** (fixed period), and **chaos
//! events** (crashes and thermal emergencies from an optional
//! [`greengpu_hw::ChaosPlan`]; telemetry blackouts are installed into the
//! nodes' sensor stacks up front). Between consecutive events every
//! node's frequency pair is constant, so job progress advances in closed
//! form and completions land at exact instants — the discrete-event
//! analog of the single-node engine's piecewise-constant stepping. Each
//! tick does, in order:
//!
//! 1. advance every node's failure FSM ([`Node::lifecycle_tick`]) and the
//!    circuit breakers' clocks; completions and cleared probations close
//!    breakers;
//! 2. re-apportion the fleet budget into per-node caps from the nodes'
//!    current demands ([`crate::power::apportion`]) — a node crashed
//!    since the last tick demands nothing, so its milliwatts flow back to
//!    the live nodes *this* interval;
//! 3. run every live node's hardened controller under its cap (sense →
//!    masked policy → verified actuation) and record cap compliance;
//! 4. re-admit crash-lost jobs whose retry backoff elapsed (ahead of
//!    fresh arrivals), then dispatch queued jobs to idle healthy alive
//!    nodes behind the circuit-breaker mask;
//! 5. checkpoint every `Up` node's learner each
//!    [`LifecycleParams::checkpoint_period`] ticks;
//! 6. append a telemetry row.
//!
//! Determinism: arrivals, workload profiles, chaos schedules, and any
//! fault plans all derive from `FleetConfig::seed` via
//! `greengpu_sim::rng`; node order is fixed; every map keyed by workload
//! name is a `BTreeMap`. Same config and seed ⇒ byte-identical trace CSV.

use crate::breaker::CircuitBreaker;
use crate::dispatch::ServingConfig;
use crate::engine::{drive, EngineKind, Fleet, GeoState, Spine};
use crate::job::{ArrivalConfig, ArrivalStream, JobRecord, JobSpec};
use crate::lifecycle::LifecycleParams;
use crate::node::{Node, NodeConfig, RecoveryRecord};
use crate::policy::Policy;
use crate::power::{mw_floor, MilliWatts};
use crate::profile::{ProfileTable, ServiceProfile};
use crate::telemetry::{FleetTrace, GeoTrace, ServingTrace};
use crate::topology::Topology;
use greengpu_hw::{ChaosEvent, ChaosKind, ChaosPlan, DomainChaosEvent, DomainChaosKind, GpuSpec};
use greengpu_sim::{SimDuration, SimTime, SplitMix64};
use greengpu_tenancy::{generate_tenant_arrivals, mix_union};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The mean service time a size-1 job is normalized to. The registry's
/// small presets run ~40-50 s at peak clocks; the cluster quantum should
/// be a few seconds.
const TARGET_JOB_S: f64 = 8.0;

/// The mean peak-clock service time of the hotspot/kmeans reference mix on
/// `gpu`, profiled at the profile seed `seed` derives; `None` if the card
/// cannot profile it.
fn reference_mean_peak_s(seed: u64, gpu: &GpuSpec) -> Option<f64> {
    let profile_seed = SplitMix64::new(seed).next_u64();
    let mut sum = 0.0;
    for name in ["hotspot", "kmeans"] {
        sum += ServiceProfile::build(name, profile_seed, gpu)?.peak_time_s();
    }
    Some(sum / 2.0)
}

/// Full description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The nodes, in id order.
    pub nodes: Vec<NodeConfig>,
    /// Fleet-wide GPU power budget, watts. Must cover the summed node
    /// floors (a budget below the floors cannot be enforced by DVFS —
    /// that regime needs power-gating, which the testbed cards lack).
    pub budget_w: f64,
    /// Placement policy.
    pub policy: Policy,
    /// Control interval for capping + DVFS + dispatch.
    pub control_period: SimDuration,
    /// Simulated horizon; arrivals stop and the trace ends here.
    pub horizon: SimDuration,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Arrival stream shape (ignored when `serving` is set — tenants
    /// bring their own arrival processes).
    pub arrivals: ArrivalConfig,
    /// Optional multi-tenant serving layer: named tenants with their own
    /// arrival processes, workload mixes, and SLO classes, dispatched
    /// against a carbon signal. `None` runs the anonymous single stream.
    pub serving: Option<ServingConfig>,
    /// Optional chaos schedule (crashes, thermal emergencies, telemetry
    /// blackouts); `None` runs the fleet failure-free.
    pub chaos: Option<ChaosPlan>,
    /// Optional geo hierarchy (regions → zones → racks → nodes). When
    /// set, the fleet budget cascades through a [`crate::BudgetTree`]
    /// instead of one flat apportionment, the chaos plan's *correlated*
    /// channels activate (whole-rack power loss, zone-wide thermal,
    /// zone partitions), and dispatch runs behind per-rack and per-zone
    /// circuit breakers. `None` is the flat fleet, byte-identical to
    /// every pre-hierarchy run.
    pub topology: Option<Topology>,
    /// Failure-lifecycle tuning (restart/probation durations, checkpoint
    /// period, retry budget, breaker cooldowns).
    pub lifecycle: LifecycleParams,
    /// Which execution engine drives the run. Both engines produce
    /// byte-identical outputs per seed (see [`crate::engine`]); the
    /// serial default is the differential-testing oracle.
    pub engine: EngineKind,
    /// Master seed; every stream in the run derives from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A homogeneous fleet of `n` default nodes at `budget_frac` of the
    /// fleet's aggregate peak-pair power, with a hotspot/kmeans mix sized
    /// to ≈70 % offered load.
    pub fn homogeneous(n: usize, budget_frac: f64, policy: Policy, horizon: SimDuration, seed: u64) -> Self {
        let nodes = vec![NodeConfig::default_node(); n];
        FleetConfig::from_nodes(nodes, budget_frac, policy, horizon, seed)
    }

    /// Like [`FleetConfig::homogeneous`] but with explicit nodes; the
    /// budget is `budget_frac` of the summed peak-pair powers and the
    /// arrival rate targets ≈70 % load on the mix's mean service time.
    pub fn from_nodes(
        nodes: Vec<NodeConfig>,
        budget_frac: f64,
        policy: Policy,
        horizon: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let peak_sum: f64 = nodes
            .iter()
            .map(|n| {
                let (nc, nm) = (n.gpu.core_levels_mhz.len(), n.gpu.mem_levels_mhz.len());
                n.gpu.power_at_levels_w(nc - 1, nm - 1, 1.0, 1.0)
            })
            .sum();
        // Normalize the size multipliers to the target mean service time
        // and derive the arrival rate from it.
        let base_size = TARGET_JOB_S / reference_mean_peak_s(seed, &nodes[0].gpu).expect("registry workload");
        let rate = ArrivalConfig::rate_for_load(0.7, nodes.len(), TARGET_JOB_S);
        let mut arrivals = ArrivalConfig::hotspot_kmeans(rate);
        arrivals.size_range = (0.5 * base_size, 1.5 * base_size);
        FleetConfig {
            nodes,
            budget_w: budget_frac * peak_sum,
            policy,
            control_period: SimDuration::from_secs(1),
            horizon,
            queue_capacity: 32,
            arrivals,
            serving: None,
            chaos: None,
            topology: None,
            lifecycle: LifecycleParams::default(),
            engine: EngineKind::Serial,
            seed,
        }
    }

    /// Attaches a chaos schedule (builder style).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Attaches a geo hierarchy (builder style); the topology must cover
    /// exactly the fleet's nodes, in id order.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Attaches a multi-tenant serving layer (builder style). The
    /// tenants' arrival processes replace [`FleetConfig::arrivals`].
    pub fn with_serving(mut self, serving: ServingConfig) -> Self {
        self.serving = Some(serving);
        self
    }

    /// The size multiplier that maps a size-1 job onto the fleet's ~8 s
    /// cluster quantum — the same normalization
    /// [`FleetConfig::from_nodes`] bakes into the anonymous stream's
    /// size range. Serving configs scale their tenant size ranges by
    /// this so jobs land on the quantum regardless of the card's raw
    /// profile times. Falls back to 1.0 if node 0's card cannot profile
    /// the reference mix.
    pub fn reference_size_scale(&self) -> f64 {
        self.nodes
            .first()
            .and_then(|node0| reference_mean_peak_s(self.seed, &node0.gpu))
            .map_or(1.0, |mean| TARGET_JOB_S / mean)
    }

    /// Selects the execution engine (builder style).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the failure-lifecycle tuning (builder style).
    pub fn with_lifecycle(mut self, params: LifecycleParams) -> Self {
        self.lifecycle = params;
        self
    }

    /// Non-panicking configuration check, naming the offending field —
    /// the config-path counterpart of `WmaParams::try_validate`. Node
    /// construction re-validates the per-node policy specs; this catches
    /// fleet-level mistakes before any node is built.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("nodes must not be empty".to_string());
        }
        if !(self.budget_w.is_finite() && self.budget_w > 0.0) {
            return Err(format!("budget_w must be finite and positive, got {}", self.budget_w));
        }
        if self.control_period.as_secs_f64() <= 0.0 {
            return Err("control_period must be positive".to_string());
        }
        if self.horizon.as_secs_f64() <= 0.0 {
            return Err("horizon must be positive".to_string());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".to_string());
        }
        if self.serving.is_none() {
            self.arrivals.try_validate().map_err(|msg| format!("arrivals: {msg}"))?;
        }
        if let Some(serving) = &self.serving {
            serving.try_validate().map_err(|msg| format!("serving: {msg}"))?;
        }
        if let Some(plan) = &self.chaos {
            plan.try_validate().map_err(|msg| format!("chaos: {msg}"))?;
        }
        if let Some(topo) = &self.topology {
            topo.try_validate().map_err(|msg| format!("topology: {msg}"))?;
            if topo.n_nodes() != self.nodes.len() {
                return Err(format!(
                    "topology covers {} nodes but the fleet has {}",
                    topo.n_nodes(),
                    self.nodes.len()
                ));
            }
        }
        self.lifecycle
            .try_validate()
            .map_err(|msg| format!("lifecycle: {msg}"))?;
        for (i, node) in self.nodes.iter().enumerate() {
            node.try_validate().map_err(|msg| format!("node {i}: {msg}"))?;
        }
        Ok(())
    }
}

/// The power-capping audit of one crash: the dark node's cap before the
/// crash and at the first re-apportionment after it. Reclamation holds
/// when `cap_after_mw == Some(0)`: the crashed node's milliwatts are back
/// in the pool within one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRecord {
    /// The crashed node's id.
    pub node: usize,
    /// Crash instant, seconds.
    pub at_s: f64,
    /// The node's cap at the last apportionment before the crash.
    pub cap_before_mw: MilliWatts,
    /// The node's cap at the first apportionment after the crash (`None`
    /// only if the run ended before another tick).
    pub cap_after_mw: Option<MilliWatts>,
}

/// The power-capping audit of one correlated rack power loss — the
/// hierarchical analog of [`CrashRecord`]. Reclamation holds when
/// `rack_cap_after_mw == Some(0)` (every node in the failed domain holds
/// nothing at the next tick) while `sibling_caps_after_mw` has absorbed
/// the freed budget *inside the same zone* — the zone's own cap
/// (`zone_cap_after_mw`) still equals its pre-crash value at that first
/// tick, because the upward report lags one level per interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainOutageRecord {
    /// The rack that lost power.
    pub rack: usize,
    /// The zone containing it.
    pub zone: usize,
    /// Outage instant, seconds.
    pub at_s: f64,
    /// Summed caps of the rack's nodes at the last tick before the loss.
    pub rack_cap_before_mw: MilliWatts,
    /// Summed caps of the rack's nodes at the first tick after (`None`
    /// only if the run ended first). Expected 0.
    pub rack_cap_after_mw: Option<MilliWatts>,
    /// The zone's budget-tree cap before the loss.
    pub zone_cap_before_mw: MilliWatts,
    /// The zone's cap at the first tick after — expected *unchanged*
    /// (the report bubbles one level per interval).
    pub zone_cap_after_mw: Option<MilliWatts>,
    /// Summed caps of the zone's other racks' nodes before the loss.
    pub sibling_caps_before_mw: MilliWatts,
    /// Same sum at the first tick after — the siblings absorb the dark
    /// rack's budget immediately.
    pub sibling_caps_after_mw: Option<MilliWatts>,
}

/// Everything a fleet run produced.
pub struct FleetReport {
    /// Per-interval telemetry.
    pub trace: FleetTrace,
    /// Completed jobs, in completion order.
    pub completed: Vec<JobRecord>,
    /// Per-node completed-job counts.
    pub per_node_completed: Vec<u64>,
    /// Jobs rejected by admission.
    pub rejected: u64,
    /// Completed jobs that missed their deadline.
    pub deadline_misses: u64,
    /// Node-intervals whose enforced pair exceeded the cap.
    pub cap_violations: u64,
    /// Nodes whose controller fell back to best-performance.
    pub nodes_fallen_back: usize,
    /// GPU board energy over the horizon, joules.
    pub gpu_energy_j: f64,
    /// Whole-fleet (GPU + CPU) energy over the horizon, joules.
    pub total_energy_j: f64,
    /// The horizon, seconds.
    pub horizon_s: f64,
    /// Jobs admitted by the scheduler (for conservation checks:
    /// `admitted == completed + dead_letter + in_flight_at_end`).
    pub admitted: u64,
    /// Jobs still in the system at the horizon (queued, in service, or
    /// waiting out a retry backoff).
    pub in_flight_at_end: u64,
    /// Chaos crashes that landed on live nodes.
    pub crashes: u64,
    /// Restarts that restored a checkpoint.
    pub warm_restarts: u64,
    /// Restarts that cold-started.
    pub cold_restarts: u64,
    /// Checkpoints rejected at restore time (each also counts a cold
    /// restart).
    pub restore_failures: u64,
    /// Thermal emergencies that landed on live nodes.
    pub thermal_events: u64,
    /// Telemetry-blackout windows installed across the fleet.
    pub blackout_windows: u64,
    /// Blackout events that (wrongly) reached the runtime spine instead
    /// of being installed at setup — counted and ignored, never fatal.
    pub stray_blackout_events: u64,
    /// Jobs lost to crashes (each enters the retry queue or dead-letters).
    pub jobs_lost: u64,
    /// Re-dispatches queued by the retry machinery.
    pub jobs_retried: u64,
    /// Jobs that exhausted their retry budget (stored up to
    /// [`LifecycleParams::dead_letter_capacity`]).
    pub dead_letter: Vec<JobSpec>,
    /// Dead-lettered jobs dropped past the capacity — counted, not
    /// stored, so the conservation ledger still tiles: `admitted ==
    /// completed + dead_letter.len() + dead_letter_overflow +
    /// deferred_pending_at_end + in_flight_at_end`.
    pub dead_letter_overflow: u64,
    /// Circuit-breaker openings across the fleet.
    pub breaker_trips: u64,
    /// Post-restart learner recoveries, in node order then crash order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Per-crash power-capping audit, in crash order.
    pub crash_records: Vec<CrashRecord>,
    /// Best-effort jobs parked for a green window over the run.
    pub jobs_deferred: u64,
    /// Deferred jobs released back into admission over the run.
    pub jobs_released: u64,
    /// Jobs still parked in the deferral queue at the horizon. The
    /// serving conservation ledger is `admitted == completed +
    /// dead_letter + deferred_pending_at_end + in_flight_at_end`.
    pub deferred_pending_at_end: u64,
    /// Per-interval serving telemetry (empty on single-stream runs).
    pub serving_trace: ServingTrace,
    /// Tenant names in index order (empty on single-stream runs).
    pub tenant_names: Vec<String>,
    /// Per-tenant admitted counts, indexed like `tenant_names`
    /// (single-stream runs report one implicit tenant).
    pub admitted_by_tenant: Vec<u64>,
    /// Per-tenant rejected counts, indexed like `tenant_names`.
    pub rejected_by_tenant: Vec<u64>,
    /// Per-interval interior-node telemetry (empty on flat runs).
    pub geo_trace: GeoTrace,
    /// Per-rack-power-loss audits, in event order (empty on flat runs).
    pub domain_records: Vec<DomainOutageRecord>,
    /// Correlated rack power losses applied.
    pub rack_losses: u64,
    /// Correlated zone-wide thermal emergencies applied.
    pub zone_thermal_emergencies: u64,
    /// Zone partitions applied (telemetry dark, nodes running).
    pub zone_partitions: u64,
    /// Rack circuit-breaker openings.
    pub rack_breaker_trips: u64,
    /// Zone circuit-breaker openings.
    pub zone_breaker_trips: u64,
    /// Interior budget-tree nodes whose children's caps summed past
    /// their own (expected 0 by construction; counted, never asserted).
    pub interior_cap_violations: u64,
}

impl FleetReport {
    /// Mean queueing delay of completed jobs, seconds.
    pub fn mean_wait_s(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed.iter().map(JobRecord::wait_s).sum::<f64>() / self.completed.len() as f64
    }

    /// Mean arrival-to-completion time of completed jobs, seconds.
    pub fn mean_turnaround_s(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed.iter().map(JobRecord::turnaround_s).sum::<f64>() / self.completed.len() as f64
    }

    /// GPU energy per completed job, joules (0 when nothing completed).
    pub fn gpu_energy_per_job_j(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.gpu_energy_j / self.completed.len() as f64
    }

    /// Mean control intervals to re-reach the pre-crash argmax pair,
    /// over warm (or cold) recoveries; `None` when no such recovery
    /// completed.
    pub fn mean_recovery_intervals(&self, warm: bool) -> Option<f64> {
        let mut n = 0u64;
        let mut sum = 0u64;
        for r in self.recoveries.iter().filter(|r| r.warm == warm) {
            n += 1;
            sum += r.intervals;
        }
        (n > 0).then(|| sum as f64 / n as f64)
    }
}

/// Builds the fleet's nodes. Profiling a workload mix is the expensive
/// part of node construction, so each distinct GPU spec's mix is
/// profiled once into one table, which all of that spec's nodes share.
fn build_nodes(cfg: &FleetConfig, mix_names: &[String], profile_seed: u64) -> Vec<Node> {
    let mut tables: Vec<(&GpuSpec, Arc<ProfileTable>)> = Vec::new();
    let mut nodes: Vec<Node> = Vec::with_capacity(cfg.nodes.len());
    for (i, nc) in cfg.nodes.iter().enumerate() {
        let table = match tables.iter().find(|(spec, _)| same_spec(spec, &nc.gpu)) {
            Some((_, table)) => Arc::clone(table),
            None => match ProfileTable::build(mix_names, profile_seed, &nc.gpu) {
                Ok(table) => {
                    let table = Arc::new(table);
                    tables.push((&nc.gpu, Arc::clone(&table)));
                    table
                }
                Err(msg) => panic!("node {i}: {msg}"),
            },
        };
        match Node::try_with_profiles(i, nc, table, profile_seed) {
            Ok(node) => nodes.push(node),
            Err(msg) => panic!("node {i}: {msg}"),
        }
    }
    nodes
}

/// Whether two specs are the same card, field for field and floats by
/// bits, so two specs that differ anywhere never share a profile table.
/// The destructuring is exhaustive: a new `GpuSpec` field fails to
/// compile here until it is compared.
fn same_spec(a: &GpuSpec, b: &GpuSpec) -> bool {
    let GpuSpec {
        name,
        n_sm,
        sp_per_sm,
        ops_per_sp_cycle,
        mem_bytes_per_cycle,
        core_levels_mhz,
        mem_levels_mhz,
        overlap,
        p_static_w,
        p_core_idle_w,
        p_mem_idle_w,
        p_core_dyn_w,
        p_mem_dyn_w,
        core_volts,
        mem_volts,
    } = a;
    let same = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
    let same_all = |x: &[f64], y: &[f64]| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q));
    let same_opt = |x: &Option<Vec<f64>>, y: &Option<Vec<f64>>| match (x, y) {
        (Some(x), Some(y)) => same_all(x, y),
        (x, y) => x.is_none() && y.is_none(),
    };
    *name == b.name
        && *n_sm == b.n_sm
        && *sp_per_sm == b.sp_per_sm
        && same(ops_per_sp_cycle, &b.ops_per_sp_cycle)
        && same(mem_bytes_per_cycle, &b.mem_bytes_per_cycle)
        && same_all(core_levels_mhz, &b.core_levels_mhz)
        && same_all(mem_levels_mhz, &b.mem_levels_mhz)
        && same(overlap, &b.overlap)
        && same(p_static_w, &b.p_static_w)
        && same(p_core_idle_w, &b.p_core_idle_w)
        && same(p_mem_idle_w, &b.p_mem_idle_w)
        && same(p_core_dyn_w, &b.p_core_dyn_w)
        && same(p_mem_dyn_w, &b.p_mem_dyn_w)
        && same_opt(core_volts, &b.core_volts)
        && same_opt(mem_volts, &b.mem_volts)
}

/// Runs one fleet to its horizon.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_nodes(cfg).0
}

/// [`run_fleet`], handing back the nodes as well, as the drive left them.
pub(crate) fn run_fleet_nodes(cfg: &FleetConfig) -> (FleetReport, Vec<Node>) {
    if let Err(msg) = cfg.try_validate() {
        panic!("invalid fleet config: {msg}");
    }
    let mix_names: Vec<String> = match &cfg.serving {
        Some(serving) => mix_union(&serving.tenants),
        None => cfg.arrivals.mix.iter().map(|(n, _)| n.clone()).collect(),
    };
    let mut root = SplitMix64::new(cfg.seed);
    let profile_seed = root.next_u64();
    let arrival_seed = root.next_u64();

    let mut nodes = build_nodes(cfg, &mix_names, profile_seed);
    for node in &mut nodes {
        node.set_lifecycle(cfg.lifecycle.restart_s, cfg.lifecycle.probation_intervals);
    }

    // Chaos: blackout windows go straight into the nodes' sensor stacks
    // (before any control tick); crashes and thermal emergencies go on
    // the event spine. On hierarchical runs the plan's correlated
    // channels activate too: rack losses and zone thermals become spine
    // domain events, and each zone partition both opens the zone breaker
    // at runtime and darkens every zone node's telemetry for its window
    // here at setup (the nodes keep running — only their sensors and
    // the dispatch path go dark).
    let topo_index = cfg.topology.as_ref().map(Topology::index);
    let mut blackout_windows = 0u64;
    let mut chaos_events: Vec<ChaosEvent> = Vec::new();
    let mut domain_events: Vec<DomainChaosEvent> = Vec::new();
    if let Some(plan) = &cfg.chaos {
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nodes.len()];
        for ev in plan.schedule(nodes.len(), cfg.horizon.as_secs_f64()) {
            match ev.kind {
                ChaosKind::TelemetryBlackout { duration_s } => {
                    per_node[ev.node].push((ev.at, ev.at + SimDuration::from_secs_f64(duration_s)));
                    blackout_windows += 1;
                }
                ChaosKind::Crash { .. } | ChaosKind::ThermalEmergency { .. } => {
                    chaos_events.push(ev);
                }
            }
        }
        if let Some(idx) = &topo_index {
            domain_events = plan.schedule_domains(idx.n_racks(), idx.n_zones(), cfg.horizon.as_secs_f64());
            for ev in &domain_events {
                if let DomainChaosKind::ZonePartition { duration_s } = ev.kind {
                    let until = ev.at + SimDuration::from_secs_f64(duration_s);
                    for &n in &idx.zone_nodes[ev.domain] {
                        per_node[n].push((ev.at, until));
                    }
                }
            }
            // Two window sources now interleave; the blackout wrapper is
            // order-insensitive but keep the windows time-sorted anyway
            // so the per-node list reads as a schedule.
            for windows in &mut per_node {
                windows.sort();
            }
        }
        for (node, windows) in nodes.iter_mut().zip(per_node) {
            if !windows.is_empty() {
                node.set_blackouts(windows);
            }
        }
    }

    // Budget sanity: DVFS can only shed power down to the floor pair.
    let floor_sum_mw: u64 = nodes.iter().map(|n| n.demand().floor_mw).sum();
    // Floor-rounded: the integer caps must never sum past the stated
    // watt budget.
    let budget_mw = mw_floor(cfg.budget_w);
    assert!(
        budget_mw >= floor_sum_mw,
        "budget {budget_mw} mW cannot cover the fleet floor {floor_sum_mw} mW"
    );

    // Reference service times (node 0's card) anchor the deadlines.
    let ref_time_s: BTreeMap<String, f64> = mix_names
        .iter()
        .map(|name| {
            let t = nodes[0].profile(name).expect("mix profiled").peak_time_s();
            (name.clone(), t)
        })
        .collect();
    // Serving runs reuse `arrival_seed` for the tenant streams, so no
    // extra root draw happens and the single-stream golden traces are
    // untouched. The single stream's jobs are drawn as the spine reaches
    // them; a serving run's tenant merge is generated up front.
    let arrivals: Box<dyn Iterator<Item = JobSpec> + '_> = match &cfg.serving {
        Some(serving) => Box::new(
            generate_tenant_arrivals(arrival_seed, &serving.tenants, cfg.horizon.as_secs_f64())
                .into_iter()
                .enumerate()
                .map(|(i, a)| {
                    let arrival = SimTime::ZERO + SimDuration::from_secs_f64(a.at_s);
                    let deadline = a.deadline_slack.map(|slack| {
                        let reference = ref_time_s.get(&a.workload).copied().unwrap_or(1.0);
                        arrival + SimDuration::from_secs_f64(reference * a.size * slack)
                    });
                    JobSpec {
                        id: i as u64,
                        workload: a.workload,
                        arrival,
                        size: a.size,
                        deadline,
                        tenant: a.tenant,
                    }
                }),
        ),
        None => Box::new(ArrivalStream::new(
            arrival_seed,
            &cfg.arrivals,
            cfg.horizon,
            &ref_time_s,
        )),
    };
    let spine = Spine::new(cfg.control_period, cfg.horizon, arrivals, &chaos_events, &domain_events);
    let end = SimTime::ZERO + cfg.horizon;
    let geo = topo_index
        .as_ref()
        .map(|idx| GeoState::new(idx, &domain_events, &cfg.lifecycle));
    let mut fleet = Fleet::new(cfg, nodes, &chaos_events, geo, budget_mw);
    drive(&mut fleet, spine);

    let Fleet {
        nodes,
        scheduler,
        breakers,
        retry,
        mut dispatcher,
        mut geo,
        done,
        rows,
        crash_records,
        jobs_lost,
        stray_blackout_events,
        ..
    } = fleet;
    let n_tenants = cfg.serving.as_ref().map_or(1, |s| s.tenants.len());
    let report = FleetReport {
        trace: FleetTrace { rows },
        per_node_completed: nodes.iter().map(Node::completed).collect(),
        rejected: scheduler.rejected(),
        deadline_misses: done.deadline_misses,
        cap_violations: nodes.iter().map(Node::cap_violations).sum(),
        nodes_fallen_back: nodes.iter().filter(|n| !n.healthy()).count(),
        gpu_energy_j: nodes
            .iter()
            .map(|n| n.platform().gpu_energy_j(SimTime::ZERO, end))
            .sum(),
        total_energy_j: nodes
            .iter()
            .map(|n| n.platform().total_energy_j(SimTime::ZERO, end))
            .sum(),
        horizon_s: cfg.horizon.as_secs_f64(),
        admitted: scheduler.admitted(),
        in_flight_at_end: scheduler.depth() as u64
            + retry.pending_len() as u64
            + nodes.iter().filter(|n| !n.is_idle()).count() as u64,
        crashes: nodes.iter().map(Node::crashes).sum(),
        warm_restarts: nodes.iter().map(Node::warm_restarts).sum(),
        cold_restarts: nodes.iter().map(Node::cold_restarts).sum(),
        restore_failures: nodes.iter().map(Node::restore_failures).sum(),
        thermal_events: nodes.iter().map(Node::thermal_events).sum(),
        blackout_windows,
        stray_blackout_events,
        jobs_lost,
        jobs_retried: retry.retried(),
        dead_letter: retry.dead_letter().to_vec(),
        dead_letter_overflow: retry.dead_letter_overflow(),
        breaker_trips: breakers.iter().map(CircuitBreaker::trips).sum(),
        recoveries: nodes.iter().flat_map(|n| n.recoveries().iter().copied()).collect(),
        crash_records,
        jobs_deferred: dispatcher.jobs_deferred(),
        jobs_released: dispatcher.jobs_released(),
        deferred_pending_at_end: dispatcher.pending_len() as u64,
        serving_trace: dispatcher.take_trace(),
        tenant_names: cfg
            .serving
            .as_ref()
            .map_or_else(Vec::new, |s| s.tenants.iter().map(|t| t.name.clone()).collect()),
        admitted_by_tenant: scheduler.admitted_by_tenant(n_tenants),
        rejected_by_tenant: scheduler.rejected_by_tenant(n_tenants),
        geo_trace: GeoTrace {
            rows: geo.as_mut().map_or_else(Vec::new, |g| std::mem::take(&mut g.rows)),
        },
        domain_records: geo
            .as_mut()
            .map_or_else(Vec::new, |g| std::mem::take(&mut g.domain_records)),
        rack_losses: geo.as_ref().map_or(0, |g| g.rack_losses),
        zone_thermal_emergencies: geo.as_ref().map_or(0, |g| g.zone_thermal_emergencies),
        zone_partitions: geo.as_ref().map_or(0, |g| g.zone_partitions),
        rack_breaker_trips: geo
            .as_ref()
            .map_or(0, |g| g.rack_breakers.iter().map(CircuitBreaker::trips).sum()),
        zone_breaker_trips: geo
            .as_ref()
            .map_or(0, |g| g.zone_breakers.iter().map(CircuitBreaker::trips).sum()),
        interior_cap_violations: geo.as_ref().map_or(0, |g| g.interior_cap_violations),
        completed: done.records,
    };
    (report, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(nodes: Vec<NodeConfig>) -> (Vec<Node>, Vec<String>) {
        let cfg = FleetConfig::from_nodes(nodes, 0.8, Policy::LeastLoaded, SimDuration::from_secs(10), 7);
        let mix: Vec<String> = cfg.arrivals.mix.iter().map(|(name, _)| name.clone()).collect();
        (build_nodes(&cfg, &mix, 1), mix)
    }

    #[test]
    fn nodes_share_one_profile_table_per_gpu_spec() {
        let (nodes, _) = built(vec![NodeConfig::default_node(); 4]);
        let first = nodes[0].profile_table();
        assert!(nodes.iter().all(|node| Arc::ptr_eq(node.profile_table(), first)));
        assert_eq!(Arc::strong_count(first), 4, "one table, held once per node");

        let (down, default) = (NodeConfig::downclocked(), NodeConfig::default_node());
        let (nodes, mix) = built(vec![default.clone(), down.clone(), default, down.clone(), down.clone()]);
        let mut tables: Vec<&Arc<ProfileTable>> = Vec::new();
        for node in &nodes {
            if !tables.iter().any(|t| Arc::ptr_eq(t, node.profile_table())) {
                tables.push(node.profile_table());
            }
        }
        assert_eq!(tables.len(), 2, "a two-spec fleet holds exactly two tables");
        assert!(Arc::ptr_eq(nodes[0].profile_table(), nodes[2].profile_table()));
        assert!(!Arc::ptr_eq(nodes[0].profile_table(), nodes[1].profile_table()));
        // Sharing changes no profile: each spec's table matches a node
        // that profiled the mix on its own.
        let alone = Node::new(4, &down, &mix, 1);
        for name in &mix {
            let (shared, own) = (nodes[4].profile(name).unwrap(), alone.profile(name).unwrap());
            assert_eq!(shared.peak_time_s().to_bits(), own.peak_time_s().to_bits(), "{name}");
        }
        // Specs that differ in one bit of one field never share a table.
        let mut nudged = NodeConfig::default_node();
        let gpu = Arc::make_mut(&mut nudged.gpu);
        gpu.p_mem_dyn_w = f64::from_bits(gpu.p_mem_dyn_w.to_bits() + 1);
        let mut volted = NodeConfig::default_node();
        Arc::make_mut(&mut volted.gpu).mem_volts = Some(vec![1.8; 6]);
        let (nodes, _) = built(vec![
            NodeConfig::default_node(),
            nudged,
            volted,
            NodeConfig::default_node(),
        ]);
        assert!(Arc::ptr_eq(nodes[0].profile_table(), nodes[3].profile_table()));
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(
                !Arc::ptr_eq(nodes[a].profile_table(), nodes[b].profile_table()),
                "{a} vs {b}"
            );
        }
    }
}
