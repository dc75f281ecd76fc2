//! One fleet node: a single-node GreenGPU testbed plus its hardened
//! controller, wrapped with job progress tracking and cap enforcement.
//!
//! A node owns the same [`Platform`] the single-node experiments run on
//! and drives it with the same [`GreenGpuController`] (scaling tier, with
//! the PR-1 hardening: NaN rejection, read-back-verified actuation,
//! best-performance fallback). The cluster tier only adds what a
//! datacenter agent would: a service-profile table to convert frequency
//! pairs into job progress, a power-cap input, and counters.
//!
//! Job service is piecewise-linear: between control events the frequency
//! pair is constant, so a job advances at `dt / (size · T(pair))` of its
//! total work per elapsed `dt`. The controller may re-clock the card at
//! every tick; progress carries over, only the rate changes — exactly how
//! a real run would respond to DVFS.

use crate::job::{JobRecord, JobSpec};
use crate::lifecycle::NodeState;
use crate::power::{mw, MilliWatts, NodeDemand};
use crate::profile::{ProfileTable, ServiceProfile};
use greengpu::{GreenGpuConfig, GreenGpuController, PairModel, PolicySpec};
use greengpu_hw::{
    calib, BlackoutSensors, CleanSensors, CpuSpec, DirectActuator, FaultPlan, FaultyActuator, FaultySensor,
    FreqActuator, GpuSpec, Platform, SensorSource,
};
use greengpu_runtime::Controller as _;
use greengpu_sim::{Fnv64, JsonTape, SimDuration, SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static description of one node. The specs sit behind `Arc`s, which
/// every node built from the config shares with it: a fleet of clones of
/// one config holds one card spec and one host spec. To change a spec,
/// `Arc::make_mut` copies it out first.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's card.
    pub gpu: Arc<GpuSpec>,
    /// The node's host CPU.
    pub cpu: Arc<CpuSpec>,
    /// Optional sensor/actuation fault plan (PR-1 seam).
    pub fault: Option<FaultPlan>,
    /// Tier-2 frequency policy the node's controller runs (the paper's
    /// WMA by default; any [`PolicySpec`] variant works — the cap seam
    /// goes through the policy's feasible-set mask either way).
    pub freq_policy: PolicySpec,
}

impl NodeConfig {
    /// The default paper testbed node.
    pub fn default_node() -> Self {
        NodeConfig {
            gpu: Arc::new(calib::geforce_8800_gtx()),
            cpu: Arc::new(calib::phenom_ii_x2()),
            fault: None,
            freq_policy: PolicySpec::default(),
        }
    }

    /// A down-clocked heterogeneous variant (≈70 % clocks).
    pub fn downclocked() -> Self {
        let mut gpu = calib::geforce_8800_gtx();
        gpu.core_levels_mhz = gpu.core_levels_mhz.iter().map(|f| f * 0.7).collect();
        gpu.mem_levels_mhz = gpu.mem_levels_mhz.iter().map(|f| f * 0.7).collect();
        gpu.name = format!("{} (down-clocked)", gpu.name);
        NodeConfig {
            gpu: Arc::new(gpu),
            cpu: Arc::new(calib::phenom_ii_x2()),
            fault: None,
            freq_policy: PolicySpec::default(),
        }
    }

    /// Attaches a fault plan.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Selects the Tier-2 frequency policy.
    pub fn with_freq_policy(mut self, spec: PolicySpec) -> Self {
        self.freq_policy = spec;
        self
    }

    /// Non-panicking check of the card's and host's level tables and of
    /// the policy spec, naming the offending field (`gpu.…`, `cpu.…`).
    pub fn try_validate(&self) -> Result<(), String> {
        self.gpu.try_validate().map_err(|msg| format!("gpu.{msg}"))?;
        self.cpu.try_validate().map_err(|msg| format!("cpu.{msg}"))?;
        self.freq_policy.try_validate()
    }
}

/// The mix's mean predicted (time, energy) per frequency pair — the
/// [`PairModel`] a deadline-aware node selects over. Averaging across the
/// profiled workloads gives the node one budget surface for a mixed
/// stream; a single-workload mix degenerates to that workload's exact
/// profile.
fn mix_pair_model(gpu: &GpuSpec, profiles: &[ServiceProfile]) -> Result<PairModel, String> {
    if profiles.is_empty() {
        return Err("deadline policy needs a non-empty workload mix".to_string());
    }
    let n_core = gpu.core_levels_mhz.len();
    let n_mem = gpu.mem_levels_mhz.len();
    let k = profiles.len() as f64;
    let mut time_s = vec![0.0; n_core * n_mem];
    let mut energy_j = vec![0.0; n_core * n_mem];
    for prof in profiles {
        for i in 0..n_core {
            for j in 0..n_mem {
                time_s[i * n_mem + j] += prof.time_s(i, j) / k;
                energy_j[i * n_mem + j] += prof.energy_j(gpu, i, j, 1.0) / k;
            }
        }
    }
    PairModel::from_grids(n_core, n_mem, time_s, energy_j)
}

/// A job in service.
#[derive(Debug, Clone)]
struct RunningJob {
    spec: JobSpec,
    started: SimTime,
    /// Completed fraction of the whole run in `[0, 1)`.
    progress: f64,
    /// GPU energy attributed so far, joules (pair energy prorated by
    /// per-window progress, so DVFS changes mid-job are accounted).
    energy_j: f64,
    /// Interned profile id (see [`ProfileTable`]), resolved once at
    /// dispatch so the per-window hot path never re-keys the profiles by
    /// workload `String`.
    profile: u32,
}

/// A lifecycle transition surfaced to the fleet supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// The supervisor finished rebuilding the controller; `warm` is true
    /// when the last checkpoint restored cleanly.
    RestartComplete {
        /// Whether learner state was restored from a checkpoint.
        warm: bool,
    },
    /// The node served its probation and is fully `Up` again.
    ProbationCleared,
}

/// One completed post-restart learner recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Whether the restart restored a checkpoint (warm) or cold-started.
    pub warm: bool,
    /// Control ticks from restart completion until the policy's desired
    /// pair matched the pre-crash pair again (0 = immediately on
    /// restore).
    pub intervals: u64,
}

/// A node's last learner checkpoint.
enum Checkpoint {
    /// Recorded by [`Node::take_checkpoint`]; printed only when read.
    Tape(JsonTape),
    /// Installed verbatim by [`Node::load_checkpoint`].
    Text(String),
}

impl Checkpoint {
    fn text(&self) -> String {
        match self {
            Checkpoint::Tape(tape) => tape.print(),
            Checkpoint::Text(text) => text.clone(),
        }
    }
}

/// Where a node stands in the event-driven engine's tick-skipping
/// protocol (see [`Node::control_tick_parkable`]).
#[derive(Debug, Clone, Copy)]
enum Rest {
    /// Every control tick runs in full.
    Awake,
    /// Idle with a settled decision: a control tick under `cap` only
    /// counts itself, and the learner catches up at the next sync.
    Coasting {
        cap: MilliWatts,
        /// Ticks counted since the last sync.
        skipped: u64,
        /// Idle steps the learner had left to its orbit's fixed point at
        /// the last sync: the node parks on the tick after them. `None`
        /// when no count leads to a fixed point, and the node coasts until
        /// something touches it.
        parks_after: Option<u64>,
        /// The last tick counted (or the full tick that began coasting).
        last: SimTime,
    },
    /// Parked under `cap`: two consecutive full ticks were identical, and
    /// the engine skips the node's control ticks for as long as it keeps
    /// handing it this cap.
    Parked {
        cap: MilliWatts,
        /// The last control interval the node saw (see
        /// [`Node::saw_tick`]).
        last: SimTime,
    },
}

/// What a node's controller is built from, at construction and again on
/// every crash restart: a restart gets a fresh policy and fresh
/// providers; only checkpointed learner state survives.
struct Recipe {
    policy_spec: PolicySpec,
    fault: Option<FaultPlan>,
    blackouts: Vec<(SimTime, SimTime)>,
    policy_seed: u64,
    model: Option<PairModel>,
}

impl Recipe {
    /// A fresh controller for `gpu`'s grid: the policy from the spec and
    /// the node's derived seed, the sensor/actuator providers re-wrapping
    /// the fault injectors and blackout windows.
    fn build(&self, gpu: &GpuSpec) -> Result<GreenGpuController, String> {
        let n_core = gpu.core_levels_mhz.len();
        let n_mem = gpu.mem_levels_mhz.len();
        let policy = self
            .policy_spec
            .build(n_core, n_mem, self.policy_seed, self.model.as_ref())?;
        let sensors: Box<dyn SensorSource> = match &self.fault {
            Some(plan) => Box::new(FaultySensor::new(plan)),
            None => Box::new(CleanSensors::new()),
        };
        let sensors: Box<dyn SensorSource> = if self.blackouts.is_empty() {
            sensors
        } else {
            Box::new(BlackoutSensors::new(sensors, self.blackouts.clone()))
        };
        let actuator: Box<dyn FreqActuator> = match &self.fault {
            Some(plan) => Box::new(FaultyActuator::new(plan)),
            None => Box::new(DirectActuator),
        };
        Ok(GreenGpuController::with_policy_providers(
            GreenGpuConfig::scaling_only(),
            policy,
            sensors,
            actuator,
        ))
    }
}

/// One live node.
pub struct Node {
    id: usize,
    platform: Platform,
    ctl: GreenGpuController,
    /// Shared with every fleet node of the same GPU spec.
    profiles: Arc<ProfileTable>,
    /// Modeled worst-case board power of the floor and the peak pair
    /// (fixed by the card, so computed once).
    floor_peak: (MilliWatts, MilliWatts),
    cap_w: f64,
    job: Option<RunningJob>,
    busy_s: f64,
    completed: u64,
    cap_violations: u64,
    recipe: Recipe,
    // --- failure lifecycle ---
    state: NodeState,
    /// When the current `Crashed`/`Restarting` phase ends.
    state_until: SimTime,
    probation_left: u64,
    restart_s: f64,
    probation_intervals: u64,
    checkpoint: Option<Checkpoint>,
    thermal_until: SimTime,
    thermal_active: bool,
    /// Coasting or parked by the event-driven engine, or neither.
    rest: Rest,
    /// Pre-crash desired pair, pending recovery measurement.
    pending_target: Option<(usize, usize)>,
    /// In-flight recovery: (target pair, warm flag, ticks so far).
    recovering: Option<((usize, usize), bool, u64)>,
    recoveries: Vec<RecoveryRecord>,
    crashes: u64,
    warm_restarts: u64,
    cold_restarts: u64,
    restore_failures: u64,
    thermal_events: u64,
}

impl Node {
    /// Builds a node with service profiles for `workloads` (unknown names
    /// panic — the mix is validated config, not user input). The card
    /// starts at peak clocks (the best-performance baseline state); the
    /// controller takes over from the first tick.
    pub fn new(id: usize, cfg: &NodeConfig, workloads: &[String], profile_seed: u64) -> Self {
        match Node::try_new(id, cfg, workloads, profile_seed) {
            Ok(node) => node,
            Err(msg) => panic!("node {id}: {msg}"),
        }
    }

    /// [`Node::new`] with a prebuilt profile table. The caller guarantees
    /// the profiles were built for `cfg.gpu` with this fleet's
    /// `profile_seed`.
    pub fn new_with_profiles(
        id: usize,
        cfg: &NodeConfig,
        profiles: BTreeMap<String, ServiceProfile>,
        profile_seed: u64,
    ) -> Self {
        match Node::try_with_profiles(id, cfg, Arc::new(ProfileTable::from(profiles)), profile_seed) {
            Ok(node) => node,
            Err(msg) => panic!("node {id}: {msg}"),
        }
    }

    /// Non-panicking constructor: validates the node config (level
    /// tables and policy spec, see [`NodeConfig::try_validate`]) and the
    /// workload mix, then builds the node. The deadline policy's
    /// [`PairModel`] is derived from the mix's mean per-pair service
    /// time/energy grids — the same tables the energy-aware placement
    /// estimates use; randomized policies draw per-node streams derived
    /// from `(profile_seed, id)`.
    pub fn try_new(id: usize, cfg: &NodeConfig, workloads: &[String], profile_seed: u64) -> Result<Self, String> {
        cfg.try_validate()?;
        let profiles = ProfileTable::build(workloads, profile_seed, &cfg.gpu)?;
        Node::try_with_profiles(id, cfg, Arc::new(profiles), profile_seed)
    }

    /// Like [`Node::try_new`], but with a prebuilt profile table, shared:
    /// the fleet constructor builds one table per distinct GPU spec and
    /// hands it to every node with that spec, so an N-node homogeneous
    /// fleet profiles its mix once and holds it once.
    pub(crate) fn try_with_profiles(
        id: usize,
        cfg: &NodeConfig,
        profiles: Arc<ProfileTable>,
        profile_seed: u64,
    ) -> Result<Self, String> {
        cfg.try_validate()?;
        let n_core = cfg.gpu.core_levels_mhz.len();
        let n_mem = cfg.gpu.mem_levels_mhz.len();
        let model = match &cfg.freq_policy {
            PolicySpec::Deadline(_) => Some(mix_pair_model(&cfg.gpu, profiles.profiles())?),
            _ => None,
        };
        let recipe = Recipe {
            policy_spec: cfg.freq_policy.clone(),
            fault: cfg.fault,
            blackouts: Vec::new(),
            policy_seed: SplitMix64::new(profile_seed.wrapping_add(id as u64)).next_u64(),
            model,
        };
        let ctl = recipe.build(&cfg.gpu)?;
        Ok(Node {
            id,
            platform: Platform::new(
                Arc::clone(&cfg.gpu),
                Arc::clone(&cfg.cpu),
                n_core - 1,
                n_mem - 1,
                cfg.cpu.levels_mhz.len() - 1,
            ),
            ctl,
            profiles,
            floor_peak: (
                mw(cfg.gpu.power_at_levels_w(0, 0, 1.0, 1.0)),
                mw(cfg.gpu.power_at_levels_w(n_core - 1, n_mem - 1, 1.0, 1.0)),
            ),
            cap_w: f64::INFINITY,
            job: None,
            busy_s: 0.0,
            completed: 0,
            cap_violations: 0,
            recipe,
            state: NodeState::Up,
            state_until: SimTime::ZERO,
            probation_left: 0,
            restart_s: 2.0,
            probation_intervals: 3,
            checkpoint: None,
            thermal_until: SimTime::ZERO,
            thermal_active: false,
            rest: Rest::Awake,
            pending_target: None,
            recovering: None,
            recoveries: Vec::new(),
            crashes: 0,
            warm_restarts: 0,
            cold_restarts: 0,
            restore_failures: 0,
            thermal_events: 0,
        })
    }

    /// Node id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the node can take a job right now.
    pub fn is_idle(&self) -> bool {
        self.job.is_none()
    }

    /// Whether the controller is still operating (fallback not engaged).
    /// The scheduler routes around unhealthy nodes.
    pub fn healthy(&self) -> bool {
        !self.ctl.fallback_engaged()
    }

    /// Where the node is in the failure lifecycle.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// When the current `Crashed`/`Restarting` phase ends: the first
    /// lifecycle tick at or after it moves the node on. Meaningless
    /// (stale) while `Up`/`Probation`.
    pub fn state_until(&self) -> SimTime {
        self.state_until
    }

    /// Whether the node is currently parked (see
    /// [`Node::control_tick_parkable`]).
    pub fn is_parked(&self) -> bool {
        matches!(self.rest, Rest::Parked { .. })
    }

    /// The cap this node is parked under, if parked. While this equals
    /// the cap the apportioner would hand the node this interval, the
    /// entire control tick is an identity (it would re-read
    /// constant-zero idle utilizations and rewrite every field with the
    /// same bits), so the event engine skips it outright.
    pub fn parked_under(&self) -> Option<MilliWatts> {
        match self.rest {
            Rest::Parked { cap, .. } => Some(cap),
            _ => None,
        }
    }

    /// Whether the node is coasting or parked.
    pub(crate) fn is_resting(&self) -> bool {
        !matches!(self.rest, Rest::Awake)
    }

    /// Whether a control tick under `cap` only counts itself: the node
    /// coasts under that same cap (see [`Node::control_tick_parkable`]).
    pub(crate) fn coasts_under(&self, cap: MilliWatts) -> bool {
        matches!(self.rest, Rest::Coasting { cap: held, .. } if held == cap)
    }

    /// The cap the node rests under, coasting or parked: [`Node::coast`]
    /// takes any count of ticks under it. `None` only when it is awake.
    pub(crate) fn rest_under(&self) -> Option<MilliWatts> {
        match self.rest {
            Rest::Coasting { cap, .. } | Rest::Parked { cap, .. } => Some(cap),
            Rest::Awake => None,
        }
    }

    /// Records `tick` as the last control interval a parked node saw, its
    /// sensors' catch-up instant at wake. Lifecycle ticks record theirs;
    /// the event-driven engine, which skips them on resting nodes, hands
    /// the latest tick's instant with the ticks it credits
    /// ([`Node::coast`]).
    fn saw_tick(&mut self, tick: SimTime) {
        if let Rest::Parked { last, .. } = &mut self.rest {
            *last = tick;
        }
    }

    /// Whether the node is controllable this interval (`Up` or
    /// `Probation`). Dead nodes take no control ticks and no work.
    pub fn is_alive(&self) -> bool {
        matches!(self.state, NodeState::Up | NodeState::Probation)
    }

    /// Configures the restart duration and probation length (the fleet
    /// applies its [`crate::LifecycleParams`] here at construction).
    pub fn set_lifecycle(&mut self, restart_s: f64, probation_intervals: u64) {
        assert!(restart_s.is_finite() && restart_s > 0.0);
        assert!(probation_intervals > 0);
        self.restart_s = restart_s;
        self.probation_intervals = probation_intervals;
    }

    /// Installs telemetry-blackout windows by rebuilding the controller
    /// with [`BlackoutSensors`]-wrapped providers. Call before the first
    /// control tick — the rebuild discards learner state.
    pub fn set_blackouts(&mut self, windows: Vec<(SimTime, SimTime)>) {
        self.recipe.blackouts = windows;
        // The recipe was validated at construction; if the rebuild fails
        // anyway, hold the existing controller rather than abort the fleet.
        match self.recipe.build(self.platform.gpu().spec()) {
            Ok(ctl) => self.ctl = ctl,
            Err(_) => self.restore_failures += 1,
        }
    }

    /// Snapshots the controller's learner state as the node's current
    /// checkpoint (the fleet calls this every checkpoint period; the
    /// event-driven engine, on a settled node, when it next touches it,
    /// with the node's counted ticks replayed up to the period's tick). A
    /// coasting node syncs first, so the snapshot is the every-tick one.
    ///
    /// The snapshot is recorded as a [`JsonTape`], re-recorded in place
    /// from the previous period and fitted to its exact size: a fleet
    /// holds one checkpoint per node, so growth slack would cost memory
    /// on every node. Its size does not depend on the learner's values,
    /// so after the first period this allocates nothing. The text is
    /// printed only when a restart or [`Node::checkpoint_data`] reads it.
    pub fn take_checkpoint(&mut self) {
        self.sync();
        let mut tape = match self.checkpoint.take() {
            Some(Checkpoint::Tape(tape)) => tape,
            _ => JsonTape::new(),
        };
        tape.record(|w| self.ctl.snapshot(w));
        self.checkpoint = Some(Checkpoint::Tape(tape));
    }

    /// Replaces the stored checkpoint verbatim — the corruption-injection
    /// seam for tests; a garbage string is rejected at restore time and
    /// the restart falls back to a cold start (counted).
    pub fn load_checkpoint(&mut self, checkpoint: String) {
        self.checkpoint = Some(Checkpoint::Text(checkpoint));
    }

    /// The stored checkpoint's text, if any.
    pub fn checkpoint_data(&self) -> Option<String> {
        self.checkpoint.as_ref().map(Checkpoint::text)
    }

    /// Crashes the node at `now`: the in-flight job (returned for retry)
    /// and all live learner state are lost, the card drops to floor
    /// clocks with zero activity (the PSU-trickle draw of a dark board is
    /// the floor idle power), and the node stays dark for `outage_s`.
    /// No-op returning `None` when the node is already down.
    pub fn crash(&mut self, now: SimTime, outage_s: f64) -> Option<JobSpec> {
        if !self.is_alive() {
            return None;
        }
        self.crashes += 1;
        self.wake();
        // The recovery target is what the learner preferred just before
        // dying — reaching it again is the warm-vs-cold regret metric.
        self.pending_target = Some(self.ctl.desired_pair());
        self.recovering = None;
        let lost = self.job.take().map(|run| run.spec);
        self.platform.set_gpu_levels(now, 0, 0);
        self.platform.set_cpu_level(now, 0);
        self.refresh_activity(now);
        self.state = NodeState::Crashed;
        self.state_until = now + SimDuration::from_secs_f64(outage_s);
        lost
    }

    /// A rack-level power loss hits a node that is already down: any
    /// restart progress is lost and the node goes (back) to `Crashed`
    /// until at least `now + outage_s`. Not a new crash — there is no
    /// job or live learner state left to lose — the dark window just
    /// stretches, and never shortens an already-longer one. No-op on an
    /// alive node (use [`Node::crash`]).
    pub fn extend_outage(&mut self, now: SimTime, outage_s: f64) {
        if self.is_alive() {
            return;
        }
        self.state = NodeState::Crashed;
        self.state_until = self.state_until.max(now + SimDuration::from_secs_f64(outage_s));
    }

    /// Enters a thermal emergency: for `duration_s` the node is pinned to
    /// its floor pair by the (modeled) hardware throttle — the controller
    /// is bypassed and the node's power demand collapses to the floor.
    /// A parked or coasting node first leaves the skipping protocol with
    /// its sensors caught up to the last control interval it saw: no tick
    /// senses inside the throttle window, but a job dispatched there
    /// moves the traces the first tick after it reads.
    pub fn thermal_emergency(&mut self, now: SimTime, duration_s: f64) {
        self.thermal_events += 1;
        self.wake();
        self.thermal_until = now + SimDuration::from_secs_f64(duration_s);
        self.thermal_active = true;
    }

    /// Whether the thermal throttle was active at the last lifecycle tick.
    pub fn thermal_active(&self) -> bool {
        self.thermal_active
    }

    /// One supervisor tick: advances the failure FSM (at most one
    /// transition per tick, so recovery time is measured in whole control
    /// intervals) and refreshes the thermal-throttle flag. Returns the
    /// transitions that fired, for the fleet's breaker and counters.
    pub fn lifecycle_tick(&mut self, now: SimTime) -> Vec<LifecycleEvent> {
        self.saw_tick(now);
        self.thermal_active = now < self.thermal_until;
        let mut events = Vec::new();
        match self.state {
            NodeState::Crashed if now >= self.state_until => {
                self.state = NodeState::Restarting;
                self.state_until = now + SimDuration::from_secs_f64(self.restart_s);
            }
            NodeState::Restarting if now >= self.state_until => {
                let warm = self.perform_restart(now);
                self.state = NodeState::Probation;
                self.probation_left = self.probation_intervals;
                events.push(LifecycleEvent::RestartComplete { warm });
            }
            NodeState::Probation => {
                self.probation_left = self.probation_left.saturating_sub(1);
                if self.probation_left == 0 {
                    self.state = NodeState::Up;
                    events.push(LifecycleEvent::ProbationCleared);
                }
            }
            _ => {}
        }
        events
    }

    /// The supervisor restart: rebuild the controller from the recipe and
    /// try to restore the last checkpoint. Returns whether the restart
    /// was warm. A checkpoint that fails to parse or validate is
    /// *discarded* (cold start, `restore_failures` counted) — resuming
    /// from garbage would be worse than re-exploring.
    fn perform_restart(&mut self, now: SimTime) -> bool {
        // The recipe was validated at construction; if the rebuild fails
        // anyway, keep the pre-crash controller and report a cold restart.
        let Ok(mut ctl) = self.recipe.build(self.platform.gpu().spec()) else {
            self.restore_failures += 1;
            self.cold_restarts += 1;
            return false;
        };
        let warm = match self.checkpoint.as_ref().map(Checkpoint::text) {
            Some(text) => match ctl.restore(&text) {
                Ok(()) => {
                    self.warm_restarts += 1;
                    true
                }
                Err(_) => {
                    self.restore_failures += 1;
                    self.checkpoint = None;
                    self.cold_restarts += 1;
                    false
                }
            },
            None => {
                self.cold_restarts += 1;
                false
            }
        };
        self.ctl = ctl;
        self.refresh_activity(now);
        if let Some(target) = self.pending_target.take() {
            if self.ctl.desired_pair() == target {
                // A warm restore can put the argmax back instantly.
                self.recoveries.push(RecoveryRecord { warm, intervals: 0 });
            } else {
                self.recovering = Some((target, warm, 0));
            }
        }
        warm
    }

    /// Crashes suffered so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Restarts that restored a checkpoint.
    pub fn warm_restarts(&self) -> u64 {
        self.warm_restarts
    }

    /// Restarts that cold-started (no checkpoint, or a rejected one).
    pub fn cold_restarts(&self) -> u64 {
        self.cold_restarts
    }

    /// Checkpoints that failed to restore (subset of cold restarts).
    pub fn restore_failures(&self) -> u64 {
        self.restore_failures
    }

    /// Thermal emergencies entered so far.
    pub fn thermal_events(&self) -> u64 {
        self.thermal_events
    }

    /// Completed post-restart recoveries, in order.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Current power cap, watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Cumulative busy (serving) seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Jobs completed on this node.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Intervals whose enforced pair exceeded the cap.
    pub fn cap_violations(&self) -> u64 {
        self.cap_violations
    }

    /// The node's profile table, shared with the fleet's other nodes of
    /// the same GPU spec.
    #[cfg(test)]
    pub(crate) fn profile_table(&self) -> &Arc<ProfileTable> {
        &self.profiles
    }

    /// The service profile for a mix workload.
    pub fn profile(&self, workload: &str) -> Option<&ServiceProfile> {
        self.profiles.get(workload)
    }

    /// The underlying platform (meters, traces). A node's control tick
    /// lets the platform forget what its sensors have read
    /// ([`Platform::forget_before`]), so its traces keep only the history
    /// from the last poll window on: the platform answers windows that
    /// start at or after the last poll before the latest full control
    /// tick, and windows from t = 0 (a whole-run total).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The controller (inspection/tests). On a coasting node (see
    /// [`Node::control_tick_parkable`]) its learner is as of the last
    /// sync.
    pub fn controller(&self) -> &GreenGpuController {
        &self.ctl
    }

    /// Modeled worst-case board power of the currently enforced pair.
    pub fn enforced_pair_power_w(&self) -> f64 {
        let (c, m) = self.current_pair();
        self.platform.gpu().spec().power_at_levels_w(c, m, 1.0, 1.0)
    }

    /// The currently enforced (core, mem) levels.
    pub fn current_pair(&self) -> (usize, usize) {
        (
            self.platform.gpu().core().current_level(),
            self.platform.gpu().mem().current_level(),
        )
    }

    /// What this node asks of the apportioner right now. A crashed node
    /// demands *nothing* — its milliwatts flow back to the live nodes the
    /// same interval the crash lands. A restarting node holds only its
    /// floor; a thermally throttled node desires its floor but keeps its
    /// real peak (the throttle could lift mid-interval).
    pub fn demand(&self) -> NodeDemand {
        let (floor_mw, peak_mw) = self.floor_peak;
        match self.state {
            NodeState::Crashed => {
                return NodeDemand {
                    floor_mw: 0,
                    desired_mw: 0,
                    peak_mw: 0,
                    busy: false,
                };
            }
            NodeState::Restarting => {
                return NodeDemand {
                    floor_mw,
                    desired_mw: floor_mw,
                    peak_mw: floor_mw,
                    busy: false,
                };
            }
            NodeState::Up | NodeState::Probation => {}
        }
        if self.thermal_active {
            return NodeDemand {
                floor_mw,
                desired_mw: floor_mw,
                peak_mw,
                busy: self.job.is_some(),
            };
        }
        let desired_mw = if self.ctl.fallback_engaged() {
            // Fallback pins peak clocks; budget accordingly.
            peak_mw
        } else {
            let (c, m) = self.ctl.desired_pair();
            mw(self.platform.gpu().spec().power_at_levels_w(c, m, 1.0, 1.0))
        };
        NodeDemand {
            floor_mw,
            desired_mw,
            peak_mw,
            busy: self.job.is_some(),
        }
    }

    /// Re-applies the activity signature of the current (job, pair) state
    /// from `at` onward.
    fn refresh_activity(&mut self, at: SimTime) {
        let n_cores = self.platform.cpu().spec().n_cores;
        match &self.job {
            Some(run) => {
                let (c, m) = self.current_pair();
                let (uc, um) = self
                    .profiles
                    .by_id(run.profile)
                    .map_or((0.0, 0.0), |prof| (prof.u_core(c, m), prof.u_mem(c, m)));
                self.platform.set_gpu_activity(at, uc, um);
                self.platform.set_cpu_activity(at, 1.0, n_cores);
            }
            None => {
                self.platform.set_gpu_activity(at, 0.0, 0.0);
                self.platform.set_cpu_activity(at, 0.0, 0);
            }
        }
    }

    /// Starts serving `job` at `now`. Panics if the node is busy.
    pub fn dispatch(&mut self, job: JobSpec, now: SimTime) {
        assert!(self.job.is_none(), "node {} is busy", self.id);
        // The job is about to move the utilization traces: a parked or
        // coasting node catches its sensors up while they are still flat,
        // to this control interval.
        self.saw_tick(now);
        self.wake();
        // Resolve the interned profile id once; `advance` and
        // `refresh_activity` index by it from here on.
        let profile = self.profiles.id(&job.workload).unwrap_or(u32::MAX);
        self.job = Some(RunningJob {
            spec: job,
            started: now,
            progress: 0.0,
            energy_j: 0.0,
            profile,
        });
        self.refresh_activity(now);
    }

    /// Advances job service from `from` to `to` at the current frequency
    /// pair, returning the completion record if the job finishes inside
    /// the window.
    pub fn advance(&mut self, from: SimTime, to: SimTime) -> Option<JobRecord> {
        let dt = to.saturating_since(from).as_secs_f64();
        self.advance_windows(&[(from, dt)]).map(|(_, record)| record)
    }

    /// Advances job service over consecutive windows at the current
    /// frequency pair, each given as its start and its length in seconds
    /// (computed as in [`Node::advance`]). Returns the window the job
    /// finishes in, with its record. Bit for bit what `advance` called
    /// window by window leaves behind: nothing between the windows can
    /// move the job or the pair, so the whole-run time and energy at the
    /// pair are read once.
    pub(crate) fn advance_windows(&mut self, windows: &[(SimTime, f64)]) -> Option<(usize, JobRecord)> {
        let run = self.job.as_mut()?;
        let (c, m) = (
            self.platform.gpu().core().current_level(),
            self.platform.gpu().mem().current_level(),
        );
        let prof = self.profiles.by_id(run.profile)?;
        let full_s = prof.time_s(c, m) * run.spec.size;
        // The whole-run energy at this pair; progress made in a window
        // attributes a proportional slice of it to the job.
        let full_e = prof.energy_j(self.platform.gpu().spec(), c, m, run.spec.size);
        for (w, &(from, dt)) in windows.iter().enumerate() {
            if dt <= 0.0 {
                continue;
            }
            let need_s = (1.0 - run.progress) * full_s;
            if need_s <= dt * (1.0 + 1e-12) {
                // Completes inside this window, at the exact instant.
                let finished = from + SimDuration::from_secs_f64(need_s.max(0.0));
                self.busy_s += need_s.max(0.0);
                let mut run = self.job.take()?;
                run.energy_j += (1.0 - run.progress) * full_e;
                let missed_deadline = run.spec.deadline.is_some_and(|d| finished > d);
                let record = JobRecord {
                    node: self.id,
                    started: run.started,
                    finished,
                    missed_deadline,
                    gpu_energy_j: run.energy_j,
                    spec: run.spec,
                };
                self.completed += 1;
                self.refresh_activity(finished);
                return Some((w, record));
            }
            run.progress += dt / full_s;
            run.energy_j += (dt / full_s) * full_e;
            self.busy_s += dt;
        }
        None
    }

    /// One control interval: install the cap, run the hardened controller
    /// (sense → masked policy decision → verified actuation), refresh the activity
    /// signature for the possibly new pair, and check cap compliance.
    /// Returns how far (watts) the enforced pair exceeds the cap — 0.0
    /// when compliant; a fallback node pinning peak clocks is the
    /// expected violator.
    pub fn control_tick(&mut self, now: SimTime, cap: MilliWatts) -> f64 {
        self.cap_w = cap as f64 / 1000.0;
        if self.thermal_active {
            // Hardware throttle: floor clocks, controller bypassed. The
            // learner neither observes nor is blamed for these intervals.
            self.platform.set_gpu_levels(now, 0, 0);
            self.platform.set_cpu_level(now, 0);
            self.refresh_activity(now);
            let over = (self.enforced_pair_power_w() - self.cap_w).max(0.0);
            if over > 1e-9 {
                self.cap_violations += 1;
            }
            return over;
        }
        self.ctl.set_power_cap_w(Some(self.cap_w));
        // Nothing reads the platform before the window this tick polls:
        // later polls start after it, the trace row's window at or after
        // it, and a whole-run total at t = 0 (DESIGN.md §6).
        let cut = self.ctl.sensor_window_start();
        self.ctl.on_dvfs_tick(&mut self.platform, now);
        self.platform.forget_before(cut);
        self.refresh_activity(now);
        if self.recovering.is_some() {
            // Count intervals until the learner's argmax matches the
            // pre-crash pair again (the warm-vs-cold regret metric).
            let desired = self.ctl.desired_pair();
            let mut done = None;
            if let Some((target, warm, ticks)) = self.recovering.as_mut() {
                *ticks += 1;
                if desired == *target {
                    done = Some(RecoveryRecord {
                        warm: *warm,
                        intervals: *ticks,
                    });
                }
            }
            if let Some(rec) = done {
                self.recoveries.push(rec);
                self.recovering = None;
            }
        }
        let over = (self.enforced_pair_power_w() - self.cap_w).max(0.0);
        if over > 1e-9 {
            self.cap_violations += 1;
        }
        over
    }

    /// A bit-exact fingerprint of everything a control tick on an idle,
    /// healthy node can read or write, in two words: the policy's own
    /// fingerprint, and one over everything else (the controller state
    /// around the policy, the enforced GPU pair and the CPU level). `None`
    /// whenever the node is in any configuration where ticks are not
    /// provably idempotent: busy, fault-injected (the injectors hold RNG
    /// streams that must advance on every actuation), blacked out,
    /// off-`Up`, throttled, mid-recovery, or running a policy that
    /// declines to certify a fixed point (see
    /// [`GreenGpuController::decision_fingerprint_parts`]). The
    /// event-driven engine parks a node only after two consecutive ticks
    /// under the same cap return the same `Some(..)` — the second tick
    /// *proves* the first one's decision was a fixed point. On a coasting
    /// node it covers the learner as of its last sync.
    fn fingerprint_parts(&self) -> Option<(u64, u64)> {
        if self.recipe.fault.is_some()
            || !self.recipe.blackouts.is_empty()
            || self.job.is_some()
            || self.state != NodeState::Up
            || self.thermal_active
            || self.recovering.is_some()
            || self.pending_target.is_some()
        {
            return None;
        }
        let (policy_fp, loop_fp) = self.ctl.decision_fingerprint_parts()?;
        // Compared only with the previous tick's, so fields fold as words.
        let mut h = Fnv64::new();
        h.push_word(loop_fp);
        let (c, m) = self.current_pair();
        h.push_word(c as u64);
        h.push_word(m as u64);
        h.push_word(self.platform.cpu().domain().current_level() as u64);
        Some((policy_fp, h.finish()))
    }

    /// [`Node::control_tick`] with the event-driven engine's skipping
    /// protocol layered on. The engine skips a node parked under exactly
    /// the cap it is handed, so a parked node reaches this only with a
    /// new cap: it un-parks and ticks in full. Otherwise:
    ///
    /// * **Coasting.** A node coasting under `cap` counts the tick and
    ///   returns 0.0, touching nothing else. Its learner takes the
    ///   counted idle steps at once at the next sync (a new cap,
    ///   [`Node::dispatch`], [`Node::take_checkpoint`],
    ///   [`Node::thermal_emergency`], [`Node::crash`]), which also
    ///   catches the sensors up to the last counted tick. On the tick
    ///   that would find the learner at its closed orbit's fixed point the
    ///   node syncs and parks, exactly as a full tick would. A learner
    ///   settled with no count to a fixed point (on an orbit cut off
    ///   before it, or off the orbit) gives no end to the coast: the node
    ///   coasts until something touches it and never parks through
    ///   coasting, where a full tick would park it at the bit-exact fixed
    ///   point its learner reaches.
    /// * **Full tick.** Otherwise the tick runs in full. If it left the
    ///   fingerprint unchanged (two consecutive identical ticks — the
    ///   first idle tick after activity never qualifies, because the
    ///   learner state still moved) and the node is compliant, the node
    ///   parks. If only the policy's part of the fingerprint moved and
    ///   the controller reports a settled idle decision
    ///   ([`GreenGpuController::idle_settled`]), every later tick under
    ///   this cap would enforce the same pair, so the node starts
    ///   coasting.
    pub fn control_tick_parkable(&mut self, now: SimTime, cap: MilliWatts) -> f64 {
        if self.coasts_under(cap) {
            self.coast(1, now);
            return 0.0;
        }
        self.sync();
        self.rest = Rest::Awake;
        let before = self.fingerprint_parts();
        let over = self.control_tick(now, cap);
        if let Some(before) = before.filter(|_| over <= 0.0) {
            match self.fingerprint_parts() {
                Some(after) if after == before => {
                    self.rest = Rest::Parked { cap, last: now };
                }
                Some((_, rest_fp)) if rest_fp == before.1 => {
                    if let Some(settle) = self.ctl.idle_settled(&self.platform) {
                        self.rest = Rest::Coasting {
                            cap,
                            skipped: 0,
                            parks_after: settle.parks_after,
                            last: now,
                        };
                    }
                }
                _ => {}
            }
        }
        over
    }

    /// Hands a resting node `ticks` control ticks under the cap it rests
    /// under, the last of them at `at`: the ticks the event-driven engine's
    /// sweeps passed a settled node by, at once. Each one reaches the
    /// learner and the cap-mask count as the full tick Serial runs would
    /// ([`GreenGpuController::fast_forward_idle`]); a no-op on an awake
    /// node. A coasting node counts them and catches up at its next sync,
    /// as that many coasting calls of [`Node::control_tick_parkable`]
    /// would. A batch may run past the park transition, the tick after
    /// `parks_after`: the node syncs the whole batch there and parks, and
    /// the ticks after the transition are parked ones. On a
    /// parked node every tick goes to the learner at once and `at` becomes
    /// the sensors' catch-up instant. (Drivers that skip a parked node's
    /// ticks without handing them over, as perfbench's replay does, keep
    /// the tick-by-tick protocol of [`Node::control_tick_parkable`].)
    pub(crate) fn coast(&mut self, ticks: u64, at: SimTime) {
        if ticks == 0 {
            return;
        }
        debug_assert!(
            !self.is_resting() || (self.job.is_none() && self.state == NodeState::Up && !self.thermal_active),
            "a resting node is idle, `Up` and unthrottled"
        );
        match &mut self.rest {
            Rest::Awake => {}
            Rest::Coasting {
                cap,
                skipped,
                parks_after,
                last,
            } => {
                *skipped += ticks;
                *last = at;
                if parks_after.is_some_and(|n| *skipped > n) {
                    // The learner sat at its fixed point from the tick
                    // after the count on, which proves it and parks.
                    let cap = *cap;
                    self.sync();
                    self.rest = Rest::Parked { cap, last: at };
                }
            }
            Rest::Parked { last, .. } => {
                *last = at;
                self.ctl.fast_forward_idle(ticks);
            }
        }
    }

    /// Brings a coasting node's controller up to its last counted tick:
    /// the learner takes the counted idle steps at once, and the sensors
    /// poll the still-flat traces up to that tick, as its last full tick
    /// would have. The node keeps coasting with nothing pending, the
    /// synced steps taken off its count to the park.
    fn sync(&mut self) {
        if let Rest::Coasting {
            skipped,
            parks_after,
            last,
            ..
        } = &mut self.rest
        {
            let (steps, at) = (*skipped, *last);
            if steps == 0 {
                return;
            }
            *parks_after = parks_after.map(|n| n.saturating_sub(steps));
            *skipped = 0;
            self.ctl.fast_forward_idle(steps);
            self.ctl.on_dvfs_tick_quiescent(&mut self.platform, at);
        }
    }

    /// Leaves the skipping protocol before something can move the
    /// utilization traces or discard the controller. A coasting node
    /// syncs; a parked node, which may not have sensed for many
    /// intervals, polls its still-flat traces up to the last control
    /// interval it saw (where an every-tick node last polled; a no-op
    /// for a node ticked at that instant).
    pub(crate) fn wake(&mut self) {
        match self.rest {
            Rest::Awake => return,
            Rest::Coasting { .. } => self.sync(),
            Rest::Parked { last, .. } => self.ctl.on_dvfs_tick_quiescent(&mut self.platform, last),
        }
        self.rest = Rest::Awake;
    }

    /// What a run leaves in the node besides its outputs, for the tests
    /// that compare a resting node with Serial's: its checkpoint, its WMA
    /// interval count, the cap-masked intervals, the ondemand governor's
    /// tally, and the GPU core, memory and CPU domains' transition counts.
    #[cfg(test)]
    pub(crate) fn learner_counts(&self) -> (Option<String>, Option<u64>, u64, u64, [u64; 3]) {
        let tally = match self.ctl.governor() {
            greengpu::CpuGovernor::Ondemand(g) => g.transitions(),
            _ => 0,
        };
        let p = &self.platform;
        (
            self.checkpoint_data(),
            self.ctl.wma().map(|w| w.intervals()),
            self.ctl.cap_masked_intervals(),
            tally,
            [
                p.gpu().core().transition_count(),
                p.gpu().mem().transition_count(),
                p.cpu().domain().transition_count(),
            ],
        )
    }

    /// Oracle-style placement estimate: (service seconds, GPU joules) for
    /// running `workload` of `size` here under the current cap.
    pub fn estimate(&self, workload: &str, size: f64) -> Option<(f64, f64)> {
        let prof = self.profiles.get(workload)?;
        Some(prof.best_under_cap(self.platform.gpu().spec(), self.cap_w, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu::WmaParams;

    fn mix() -> Vec<String> {
        vec!["hotspot".to_string(), "kmeans".to_string()]
    }

    fn job(workload: &str, size: f64) -> JobSpec {
        JobSpec {
            id: 0,
            workload: workload.to_string(),
            arrival: SimTime::ZERO,
            size,
            deadline: None,
            tenant: 0,
        }
    }

    #[test]
    fn job_completes_at_the_profiled_time() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let expect = node.profile("hotspot").unwrap().peak_time_s() * 2.0;
        node.dispatch(job("hotspot", 2.0), SimTime::ZERO);
        assert!(!node.is_idle());
        // Advance well past the service time in two windows.
        let half = SimTime::from_secs_f64(expect / 2.0);
        assert!(node.advance(SimTime::ZERO, half).is_none());
        let rec = node
            .advance(half, SimTime::from_secs_f64(expect * 3.0))
            .expect("job must finish");
        assert!((rec.finished.saturating_since(SimTime::ZERO).as_secs_f64() - expect).abs() < 1e-6);
        assert!(node.is_idle());
        assert_eq!(node.completed(), 1);
    }

    #[test]
    fn capped_ticks_keep_the_pair_under_the_cap() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.dispatch(job("kmeans", 5.0), SimTime::ZERO);
        let cap_w = 0.75 * node.platform().gpu().spec().peak_power_w();
        let cap = mw(cap_w);
        let mut t = SimTime::ZERO;
        for k in 1..=10 {
            let next = SimTime::from_secs(k);
            node.advance(t, next);
            let over = node.control_tick(next, cap);
            assert_eq!(over, 0.0, "clean node violated its cap at tick {k}");
            t = next;
        }
        assert_eq!(node.cap_violations(), 0);
        assert!(node.enforced_pair_power_w() <= cap as f64 / 1000.0);
    }

    /// A node's control tick lets its platform forget what the sensors
    /// have read: a node kept busy for 3,600 one-second ticks by a stream
    /// of jobs sized to finish within about an interval, dispatched at
    /// the ticks and completing between them, under a cap that moves
    /// every 50 ticks, never holds more than 8 breakpoints in any trace,
    /// though it serves and reclocks throughout.
    #[test]
    fn a_busy_node_keeps_every_trace_short() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let peak_w = node.platform().gpu().spec().peak_power_w();
        let peak_s: Vec<f64> = mix()
            .iter()
            .map(|w| node.profile(w).map_or(1.0, ServiceProfile::peak_time_s))
            .collect();
        let (mut longest, mut reclocks) = (0, 0);
        let mut pair = node.current_pair();
        for k in 0..3_600u64 {
            let (from, now) = (SimTime::from_secs(k), SimTime::from_secs(k + 1));
            node.advance(from, now);
            node.control_tick(now, mw(peak_w * [0.7, 0.85, 1.0][(k / 50 % 3) as usize]));
            if node.is_idle() {
                let w = (k % 2) as usize;
                node.dispatch(job(&mix()[w], (0.3 + (k % 5) as f64 * 0.15) / peak_s[w]), now);
            }
            reclocks += usize::from(node.current_pair() != pair);
            pair = node.current_pair();
            longest = node
                .platform()
                .traces()
                .iter()
                .map(|t| t.len())
                .fold(longest, usize::max);
        }
        assert!(node.completed() > 3_000, "{} jobs completed", node.completed());
        assert!(reclocks > 500, "{reclocks} reclocks");
        assert!(longest <= 8, "a trace reached {longest} breakpoints");
    }

    #[test]
    fn demand_reports_floor_and_peak() {
        let node = Node::new(3, &NodeConfig::default_node(), &mix(), 1);
        let d = node.demand();
        assert!(d.floor_mw < d.peak_mw);
        assert!(!d.busy);
        assert!(d.desired_mw >= d.floor_mw && d.desired_mw <= d.peak_mw);
    }

    #[test]
    fn nodes_run_any_freq_policy_under_a_cap() {
        use greengpu::{DeadlineParams, Exp3Params, UcbParams};
        let specs = [
            PolicySpec::Exp3(Exp3Params::default()),
            PolicySpec::Ucb(UcbParams::default()),
            PolicySpec::Deadline(DeadlineParams {
                time_budget_s: 120.0,
                ..DeadlineParams::default()
            }),
        ];
        for spec in specs {
            let cfg = NodeConfig::default_node().with_freq_policy(spec.clone());
            let mut node = Node::try_new(0, &cfg, &mix(), 1).expect("buildable");
            node.dispatch(job("kmeans", 5.0), SimTime::ZERO);
            let cap = mw(0.75 * node.platform().gpu().spec().peak_power_w());
            let mut t = SimTime::ZERO;
            for k in 1..=8 {
                let next = SimTime::from_secs(k);
                node.advance(t, next);
                let over = node.control_tick(next, cap);
                assert_eq!(over, 0.0, "{} node violated its cap at tick {k}", spec.kind());
                t = next;
            }
            assert_eq!(node.cap_violations(), 0);
            let d = node.demand();
            assert!(d.desired_mw >= d.floor_mw && d.desired_mw <= d.peak_mw);
        }
    }

    #[test]
    fn try_new_rejects_bad_specs_and_unknown_mixes() {
        let bad = NodeConfig::default_node().with_freq_policy(PolicySpec::Wma(WmaParams {
            beta: 0.0,
            ..WmaParams::default()
        }));
        let err = Node::try_new(0, &bad, &mix(), 1).err().expect("must refuse");
        assert!(err.contains("beta"), "{err}");
        let err = Node::try_new(0, &NodeConfig::default_node(), &["nope".to_string()], 1)
            .err()
            .expect("must refuse");
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn estimates_cover_the_mix() {
        let node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let (t, e) = node.estimate("kmeans", 1.0).unwrap();
        assert!(t > 0.0 && e > 0.0);
        assert!(node.estimate("nbody", 1.0).is_none(), "not in the mix");
    }

    /// Warms a node up under a cap for `ticks` one-second intervals.
    fn warm_up(node: &mut Node, ticks: u64) -> SimTime {
        let cap = mw(0.8 * node.platform().gpu().spec().peak_power_w());
        node.dispatch(job("kmeans", 50.0), SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for k in 1..=ticks {
            let next = SimTime::from_secs(k);
            node.advance(t, next);
            node.control_tick(next, cap);
            t = next;
        }
        t
    }

    #[test]
    fn crash_zeroes_demand_and_walks_the_fsm_back_to_up() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.set_lifecycle(2.0, 2);
        let t = warm_up(&mut node, 5);
        assert_eq!(node.state(), NodeState::Up);

        let lost = node.crash(t, 3.0).expect("busy node loses its job");
        assert_eq!(lost.workload, "kmeans");
        assert_eq!(node.state(), NodeState::Crashed);
        assert!(!node.is_alive());
        assert!(node.is_idle(), "the in-flight job is gone");
        let d = node.demand();
        assert_eq!(
            (d.floor_mw, d.desired_mw, d.peak_mw),
            (0, 0, 0),
            "dark node demands nothing"
        );

        // Crashing again while down is a no-op.
        assert!(node.crash(t, 3.0).is_none());
        assert_eq!(node.crashes(), 1);

        // Outage 3 s → Restarting, restart 2 s → Probation (2 ticks) → Up.
        let mut now = t;
        let mut seen = Vec::new();
        for _ in 0..10 {
            now += SimDuration::from_secs_f64(1.0);
            seen.extend(node.lifecycle_tick(now));
            if node.state() == NodeState::Up {
                break;
            }
        }
        assert_eq!(node.state(), NodeState::Up);
        assert_eq!(
            seen,
            vec![
                LifecycleEvent::RestartComplete { warm: false },
                LifecycleEvent::ProbationCleared
            ]
        );
        assert_eq!(node.cold_restarts(), 1, "no checkpoint was ever taken");
        assert_eq!(node.warm_restarts(), 0);
    }

    #[test]
    fn checkpointed_restart_is_warm_and_restores_the_argmax() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.set_lifecycle(1.0, 1);
        let t = warm_up(&mut node, 20);
        let pre_crash = node.controller().desired_pair();
        node.take_checkpoint();
        node.crash(t, 1.0);

        let mut now = t;
        while node.state() != NodeState::Probation {
            now += SimDuration::from_secs_f64(1.0);
            node.lifecycle_tick(now);
        }
        assert_eq!(node.warm_restarts(), 1);
        assert_eq!(node.cold_restarts(), 0);
        assert_eq!(
            node.controller().desired_pair(),
            pre_crash,
            "warm restore puts the learner's argmax back"
        );
        assert_eq!(
            node.recoveries(),
            &[RecoveryRecord {
                warm: true,
                intervals: 0
            }]
        );
    }

    #[test]
    fn a_recorded_checkpoint_is_no_larger_than_its_text() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        warm_up(&mut node, 20);
        node.take_checkpoint();
        let Some(Checkpoint::Tape(tape)) = &node.checkpoint else {
            panic!("take_checkpoint records a tape");
        };
        let text = node.checkpoint_data().unwrap();
        assert!(tape.len() <= text.len(), "tape {} B, text {} B", tape.len(), text.len());
        let mut twin = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        assert_eq!(twin.controller().policy().name(), "wma");
        twin.load_checkpoint(text.clone());
        assert_eq!(twin.checkpoint_data(), Some(text), "loaded text reads back verbatim");
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_cold_start() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.set_lifecycle(1.0, 1);
        let t = warm_up(&mut node, 5);
        node.take_checkpoint();
        let cp = node.checkpoint_data().unwrap();
        // Truncation makes the JSON unparseable.
        node.load_checkpoint(cp[..cp.len() / 2].to_string());
        node.crash(t, 1.0);
        let mut now = t;
        while node.state() != NodeState::Probation {
            now += SimDuration::from_secs_f64(1.0);
            node.lifecycle_tick(now);
        }
        assert_eq!(node.restore_failures(), 1);
        assert_eq!(node.cold_restarts(), 1);
        assert_eq!(node.warm_restarts(), 0);
        assert!(node.checkpoint_data().is_none(), "garbage checkpoint is discarded");
    }

    /// The skipping protocol without coasting: a full tick on every call,
    /// parking on two identical consecutive fingerprints.
    fn tick_without_coasting(node: &mut Node, now: SimTime, cap: MilliWatts) {
        node.rest = Rest::Awake;
        let before = node.fingerprint_parts();
        let over = node.control_tick(now, cap);
        if before.is_some() && over <= 0.0 && before == node.fingerprint_parts() {
            node.rest = Rest::Parked { cap, last: now };
        }
    }

    /// A touch the twin test applies to both nodes at a tick.
    #[derive(Clone, Copy)]
    enum Touch {
        Checkpoint,
        /// A thermal emergency half a second after the tick.
        Thermal(f64),
        Crash(f64),
        Dispatch(f64),
    }

    /// Drives a coasting node and its twin through `ticks` one-second
    /// intervals as the event-driven engine would (lifecycle, control
    /// unless parked under the cap, checkpoints every 25 ticks), applies
    /// `touches`, and compares everything a tick can leave behind. Until
    /// its first job the twin ticks in full with the parking protocol
    /// ([`tick_without_coasting`]), which parks on the idle orbit's fixed
    /// point exactly when the coasting node does. From its first job on it
    /// is Serial's node, a full tick every interval that never parks: off
    /// the orbit the coasting node coasts on past the fixed point a full
    /// tick would park on. Returns what the coasting node was after each
    /// tick and what each touch found it doing (`'c'`oasting, `'p'`arked,
    /// `'a'`wake), and the ticks that ran in full on it (its policy
    /// recorded a decision).
    fn drive_twins(
        params: WmaParams,
        ticks: u64,
        cap_at: impl Fn(u64) -> f64,
        touches: &[(u64, Touch)],
    ) -> (String, String, Vec<u64>) {
        let cfg = NodeConfig::default_node().with_freq_policy(PolicySpec::Wma(params));
        let mut coasting = Node::new(0, &cfg, &mix(), 7);
        let mut twin = Node::new(0, &cfg, &mix(), 7);
        let peak = cfg.gpu.peak_power_w();
        let rest = |n: &Node| match n.rest {
            Rest::Coasting { .. } => 'c',
            Rest::Parked { .. } => 'p',
            Rest::Awake => 'a',
        };
        let decisions = |n: &Node| n.controller().policy().telemetry().intervals;
        let (mut rests, mut found, mut twin_parks, mut full) = (String::new(), String::new(), true, Vec::new());
        let mut t = SimTime::ZERO;
        for k in 1..=ticks {
            let now = SimTime::from_secs(k);
            let cap = mw(cap_at(k) * peak);
            let decided = decisions(&coasting);
            for (node, coasts) in [(&mut coasting, true), (&mut twin, false)] {
                node.set_lifecycle(2.0, 2);
                node.advance(t, now);
                node.lifecycle_tick(now);
                if node.is_alive() && node.parked_under() != Some(cap) {
                    if coasts {
                        node.control_tick_parkable(now, cap);
                    } else if twin_parks {
                        tick_without_coasting(node, now, cap);
                    } else {
                        node.control_tick(now, cap);
                    }
                }
                if k % 25 == 0 && node.state() == NodeState::Up {
                    node.take_checkpoint();
                }
                for &(at, touch) in touches.iter().filter(|(at, _)| *at == k) {
                    if coasts {
                        found.push(rest(node));
                    }
                    let later = now + SimDuration::from_secs_f64(0.5);
                    match touch {
                        Touch::Checkpoint => node.take_checkpoint(),
                        Touch::Thermal(secs) => node.thermal_emergency(later, secs),
                        Touch::Crash(secs) => assert!(node.crash(now, secs).is_none(), "tick {at}: idle"),
                        Touch::Dispatch(size) => {
                            node.dispatch(job("kmeans", size), now);
                            twin_parks &= coasts;
                        }
                    }
                }
            }
            rests.push(rest(&coasting));
            if decisions(&coasting) > decided {
                full.push(k);
            }
            let energies = |n: &Node| {
                let p = n.platform();
                [p.gpu_energy_j(SimTime::ZERO, now), p.total_energy_j(SimTime::ZERO, now)].map(f64::to_bits)
            };
            assert_eq!(coasting.current_pair(), twin.current_pair(), "tick {k}");
            assert_eq!(energies(&coasting), energies(&twin), "tick {k}");
            assert_eq!(coasting.is_parked(), twin.is_parked(), "tick {k}");
            assert_eq!(coasting.demand(), twin.demand(), "tick {k}");
            assert_eq!(coasting.checkpoint_data(), twin.checkpoint_data(), "tick {k}");
            assert_eq!(coasting.cap_violations(), twin.cap_violations(), "tick {k}");
            t = now;
        }
        coasting.sync();
        assert_eq!(coasting.fingerprint_parts(), twin.fingerprint_parts());
        for node in [&mut coasting, &mut twin] {
            node.wake();
            node.take_checkpoint();
        }
        assert_eq!(coasting.checkpoint_data(), twin.checkpoint_data());
        assert_eq!(coasting.recoveries(), twin.recoveries());
        (rests, found, full)
    }

    /// `rests` as runs of one state each: `"a3 c20 p4"`.
    fn runs(rests: &str) -> String {
        let mut out: Vec<(char, usize)> = Vec::new();
        for c in rests.chars() {
            match out.last_mut() {
                Some((last, n)) if *last == c => *n += 1,
                _ => out.push((c, 1)),
            }
        }
        out.iter().map(|(c, n)| format!("{c}{n}")).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn a_coasting_node_agrees_with_an_every_tick_twin_through_each_sync_path() {
        // A checkpoint, a new cap for ticks 30-31, a thermal emergency
        // and a crash while coasting; the crash warm-restores the tick-50
        // checkpoint back onto the orbit, and the node parks at the fixed
        // point. Then a checkpoint, a thermal emergency, and a job
        // dispatched inside its throttle window while parked. The job takes
        // the learner off the orbit: once its lowest pair leads again the
        // node coasts to the end, past the fixed point at tick 395 that a
        // parking twin would park on.
        let touches = [
            (10, Touch::Checkpoint),
            (28, Touch::Checkpoint),
            (45, Touch::Thermal(6.0)),
            (70, Touch::Crash(3.0)),
            (210, Touch::Checkpoint),
            (220, Touch::Thermal(4.0)),
            (222, Touch::Dispatch(0.2)),
        ];
        let cap_at = |k| if (30..32).contains(&k) { 0.7 } else { 0.8 };
        let (rests, found, _) = drive_twins(WmaParams::default(), 400, cap_at, &touches);
        assert_eq!(found, "ccccppa");
        assert!(rests.matches('c').count() > 150, "{}", runs(&rests));
        assert!(rests[249..].chars().all(|c| c == 'c'), "{}", runs(&rests));
        // A job dispatched while coasting.
        let (_, found, _) = drive_twins(WmaParams::default(), 80, |_| 0.8, &[(40, Touch::Dispatch(0.2))]);
        assert_eq!(found, "c");
    }

    #[test]
    fn an_off_orbit_coasting_node_agrees_with_a_twin_that_never_parks() {
        // A job at tick 5 takes the learner off the idle orbit for good.
        // Coasting off it, the node meets every sync path: a checkpoint,
        // the periodic checkpoints, a new cap for ticks 60-61, a thermal
        // emergency, a crash that warm-restores an off-orbit checkpoint,
        // and a second job; it coasts on past the bit-exact fixed point
        // its learner reaches, where a parking twin would park.
        let touches = [
            (5, Touch::Dispatch(0.3)),
            (40, Touch::Checkpoint),
            (80, Touch::Thermal(5.0)),
            (110, Touch::Crash(3.0)),
            (160, Touch::Dispatch(0.2)),
        ];
        let cap_at = |k| if (60..62).contains(&k) { 0.7 } else { 0.8 };
        let (rests, found, _) = drive_twins(WmaParams::default(), 450, cap_at, &touches);
        assert_eq!(found, "ccccc", "{}", runs(&rests));
        assert!(!rests.contains('p'), "{}", runs(&rests));
        assert!(rests[190..].chars().all(|c| c == 'c'), "{}", runs(&rests));
    }
    /// Two identical nodes, idle under one cap from the start, ticked as
    /// the event-driven engine ticks them until they coast; returns them
    /// with the cap, the last tick and the ticks they may still count.
    fn coasting_pair() -> (Node, Node, MilliWatts, u64, u64) {
        let cfg = NodeConfig::default_node();
        let cap = mw(0.8 * cfg.gpu.peak_power_w());
        let mut pair = [Node::new(0, &cfg, &mix(), 7), Node::new(0, &cfg, &mix(), 7)];
        for k in 1..=4 {
            for node in &mut pair {
                node.lifecycle_tick(SimTime::from_secs(k));
                node.control_tick_parkable(SimTime::from_secs(k), cap);
            }
        }
        let [eager, batched] = pair;
        let Rest::Coasting {
            cap: held,
            skipped,
            parks_after: Some(left),
            ..
        } = batched.rest
        else {
            panic!("coasting toward a park by tick 4: {:?}", batched.rest);
        };
        assert_eq!(held, cap);
        (eager, batched, cap, 4, left - skipped)
    }

    #[test]
    fn counted_ticks_credited_at_once_match_an_every_tick_twin() {
        let (.., budget) = coasting_pair();
        assert!(budget > 100, "budget {budget}");
        // `k` ticks handed over at once, with the checkpoint that fell due
        // at the `s`-th of them replayed between the two counts; up to the
        // whole budget, after which the next tick parks both.
        for (k, s) in [
            (1, 1),
            (2, 1),
            (9, 4),
            (40, 40),
            (budget - 1, 30),
            (budget, 1),
            (budget, budget),
        ] {
            let (mut eager, mut batched, cap, last, _) = coasting_pair();
            let at = |j: u64| SimTime::from_secs(last + j);
            for j in 1..=k {
                eager.lifecycle_tick(at(j));
                assert_eq!(eager.control_tick_parkable(at(j), cap), 0.0);
                if j == s {
                    eager.take_checkpoint();
                }
            }
            batched.coast(s, at(s));
            batched.take_checkpoint();
            batched.coast(k - s, at(k));
            let state = |n: &Node| (format!("{:?}", n.rest), n.checkpoint_data(), n.fingerprint_parts());
            assert_eq!(state(&batched), state(&eager), "k={k} s={s}");
            assert!(batched.checkpoint_data().is_some());
            // The next tick: the park transition once the budget is spent.
            for node in [&mut eager, &mut batched] {
                node.lifecycle_tick(at(k + 1));
                node.control_tick_parkable(at(k + 1), cap);
            }
            assert_eq!(batched.is_parked(), k == budget, "k={k}");
            // Synced, the learners agree, and so do their next snapshots.
            for node in [&mut eager, &mut batched] {
                node.sync();
                node.take_checkpoint();
            }
            assert_eq!(state(&batched), state(&eager), "k={k} s={s}, synced");
            assert_eq!(batched.controller().desired_pair(), eager.controller().desired_pair());
        }
    }

    /// The ticks a settled slot owes its node, handed over as the
    /// event-driven engine's credit hands them: the node rested from the
    /// tick after `since`, the latest checkpoint fell due at `stamp`, and
    /// the credit comes at tick `now`.
    fn credit(node: &mut Node, since: u64, stamp: Option<u64>, now: u64) {
        let from = match stamp {
            Some(stamp) => {
                node.coast(stamp - since, SimTime::from_secs(stamp));
                node.take_checkpoint();
                stamp
            }
            None => since,
        };
        node.coast(now - from, SimTime::from_secs(now));
    }

    #[test]
    fn a_node_credited_in_batches_agrees_with_a_serial_twin_through_each_wake() {
        // The node idles from the start under a cap that masks the upper
        // pairs, coasts, parks unseen at the fixed point and is credited at
        // 200 across the park transition. Then, each a credit of a parked
        // slot: a new cap for ticks 230-231 and the old one back, a thermal
        // emergency, a crash that warm-restores the checkpoint taken while
        // parked at tick 420, and a job. Off the orbit after the job it
        // coasts with no end, through a thermal emergency and a crash, to
        // the horizon.
        let touches = [
            (200, Touch::Checkpoint),
            (300, Touch::Thermal(5.0)),
            (425, Touch::Crash(3.0)),
            (600, Touch::Dispatch(0.2)),
            (700, Touch::Thermal(4.0)),
            (800, Touch::Crash(3.0)),
        ];
        let cfg = NodeConfig::default_node();
        // Caps at the power of pair (2, 2), and of (1, 1) for the new cap.
        let level = |k: u64| if (230..232).contains(&k) { 1 } else { 2 };
        let cap_at = |k: u64| mw(cfg.gpu.power_at_levels_w(level(k), level(k), 1.0, 1.0));
        let mut batched = Node::new(0, &cfg, &mix(), 7);
        let mut serial = Node::new(0, &cfg, &mix(), 7);
        for node in [&mut batched, &mut serial] {
            node.set_lifecycle(2.0, 2);
        }
        // The settled slot: the cap it rests under, the tick it settled
        // behind, and the latest checkpoint stamp since.
        let mut slot: Option<(MilliWatts, u64, Option<u64>)> = None;
        let (mut parked_credits, mut crossings, mut masked, mut t) = (0, 0, Vec::new(), SimTime::ZERO);
        for k in 1..=900 {
            let (now, cap) = (SimTime::from_secs(k), cap_at(k));
            serial.advance(t, now);
            serial.lifecycle_tick(now);
            if serial.is_alive() {
                serial.control_tick(now, cap);
            }
            batched.advance(t, now);
            if let Some((_, since, stamp)) = slot.filter(|&(held, ..)| held != cap) {
                // A new cap credits the slot before the tick runs.
                credit(&mut batched, since, stamp, k - 1);
                parked_credits += u64::from(batched.is_parked());
                slot = None;
            }
            if slot.is_none() {
                batched.lifecycle_tick(now);
                if batched.is_alive() {
                    batched.control_tick_parkable(now, cap);
                }
                if batched.is_resting() {
                    slot = Some((cap, k, None));
                }
            }
            if k % 10 == 0 {
                if serial.state() == NodeState::Up {
                    serial.take_checkpoint();
                }
                match &mut slot {
                    Some((_, since, stamp)) if *since < k => *stamp = Some(k),
                    _ if batched.state() == NodeState::Up => batched.take_checkpoint(),
                    _ => {}
                }
            }
            for &(_, touch) in touches.iter().filter(|(at, _)| *at == k) {
                if let Some((_, since, stamp)) = slot.take() {
                    let was_coasting = !batched.is_parked();
                    credit(&mut batched, since, stamp, k);
                    parked_credits += u64::from(batched.is_parked());
                    crossings += u64::from(was_coasting && batched.is_parked());
                }
                if let Touch::Crash(_) = touch {
                    // A restart builds a fresh controller, counters and all.
                    masked.push(serial.controller().cap_masked_intervals());
                }
                let later = now + SimDuration::from_secs_f64(0.5);
                for node in [&mut batched, &mut serial] {
                    match touch {
                        Touch::Checkpoint => node.take_checkpoint(),
                        Touch::Thermal(secs) => node.thermal_emergency(later, secs),
                        Touch::Crash(secs) => assert!(node.crash(now, secs).is_none(), "tick {k}: idle"),
                        Touch::Dispatch(size) => node.dispatch(job("kmeans", size), now),
                    }
                }
                assert_eq!(batched.learner_counts(), serial.learner_counts(), "tick {k}");
            }
            assert_eq!(batched.current_pair(), serial.current_pair(), "tick {k}");
            t = now;
        }
        if let Some((_, since, stamp)) = slot {
            credit(&mut batched, since, stamp, 900);
        }
        batched.wake();
        assert_eq!(batched.learner_counts(), serial.learner_counts(), "at the horizon");
        assert_eq!((serial.warm_restarts(), serial.cold_restarts()), (2, 0));
        // Every wake before the job found the node parked, the first across
        // its park transition. The cap masked pairs on every tick the
        // controller ran: 425 up to the first crash less 5 throttled, 371
        // from the restart at 430 to the second less 4 throttled, and 96
        // from the restart at 805.
        assert_eq!((parked_credits, crossings), (6, 1));
        masked.push(serial.controller().cap_masked_intervals());
        assert_eq!(masked, [420, 367, 96]);
    }

    #[test]
    fn a_cut_orbit_coasts_past_its_last_row_with_no_full_tick_after_the_fourth() {
        // λ = 0.95 is cut off at 512 rows before its fixed point, so the
        // settle has no count to a park: the node coasts through the last
        // row and on past it, where its learner computes the idle update
        // at its next sync, with the lowest pair still at weight 1.0.
        let cut = WmaParams {
            history: 0.95,
            ..WmaParams::default()
        };
        let (rests, _, full) = drive_twins(cut, 560, |_| 0.8, &[]);
        assert!(rests[4..].chars().all(|c| c == 'c'), "{}", runs(&rests));
        // Four full ticks up to the first coasting one, and none after.
        assert_eq!(full, [1, 2, 3, 4]);
    }

    #[test]
    fn tied_idle_losses_coast_and_park_where_a_full_tick_twin_parks() {
        // α_core = 0, α_mem = 0 or φ = 1 gives other pairs the lowest
        // pair's zero idle loss, so their weights stay tied with its 1.0;
        // the first-maximum argmax still picks the lowest pair, and the
        // learner is settled at every idle step. The node coasts from the
        // fourth tick, through a checkpoint, to the end of its closed
        // orbit, and parks on the tick its full-tick twin parks.
        let d = WmaParams::default();
        let tied = [
            (WmaParams { alpha_core: 0.0, ..d }, 145),
            (WmaParams { alpha_mem: 0.0, ..d }, 147),
            (WmaParams { phi: 1.0, ..d }, 155),
        ];
        for (params, rows) in tied {
            let (rests, found, full) = drive_twins(params, 300, |_| 0.8, &[(100, Touch::Checkpoint)]);
            assert_eq!(runs(&rests), format!("a3 c{rows} p{}", 297 - rows), "{params:?}");
            assert_eq!(
                (found.as_str(), full.as_slice()),
                ("c", &[1, 2, 3, 4][..]),
                "{params:?}"
            );
        }
    }

    #[test]
    fn thermal_emergency_pins_the_floor_then_lifts() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let t = warm_up(&mut node, 5);
        let cap = mw(0.8 * node.platform().gpu().spec().peak_power_w());
        node.thermal_emergency(t, 2.5);
        let mut now = t;
        for _ in 0..2 {
            let prev = now;
            now += SimDuration::from_secs_f64(1.0);
            node.lifecycle_tick(now);
            assert!(node.thermal_active());
            node.advance(prev, now);
            let over = node.control_tick(now, cap);
            assert_eq!(node.current_pair(), (0, 0), "throttle pins floor clocks");
            assert_eq!(over, 0.0);
            let d = node.demand();
            assert_eq!(d.desired_mw, d.floor_mw, "throttled node desires only its floor");
        }
        // 2.5 s elapse → the throttle lifts on the next lifecycle tick.
        now += SimDuration::from_secs_f64(1.0);
        node.lifecycle_tick(now);
        assert!(!node.thermal_active());
        assert_eq!(node.thermal_events(), 1);
    }

    /// A flush of the window-replay oracle: its windows' lengths in µs
    /// (0 for a duplicate instant), the cap of the control tick at its end
    /// as a fraction of peak power, and the size of the job an idle node
    /// takes at its start.
    type Flush = (Vec<u64>, f64, f64);

    /// Drives an eager node, advanced window by window as the Serial
    /// engine does, and a twin that replays each flush's windows in one
    /// [`Node::advance_windows`] call, through `flushes` with a control
    /// tick between flushes. Compares everything the replay can leave
    /// behind, bit for bit, after every flush, and returns the window
    /// each flush's job finished in.
    fn replay_twins(flushes: &[Flush]) -> Vec<Option<usize>> {
        let cfg = NodeConfig::default_node();
        let mut eager = Node::new(0, &cfg, &mix(), 5);
        let mut lazy = Node::new(0, &cfg, &mix(), 5);
        let peak = cfg.gpu.peak_power_w();
        let (mut t, mut found) = (SimTime::ZERO, Vec::new());
        for (k, (windows, cap, size)) in flushes.iter().enumerate() {
            let workload = if k % 2 == 0 { "hotspot" } else { "kmeans" };
            for node in [&mut eager, &mut lazy] {
                if node.is_idle() {
                    node.dispatch(
                        JobSpec {
                            id: k as u64,
                            ..job(workload, *size)
                        },
                        t,
                    );
                }
            }
            let (mut replay, mut end, mut by_window) = (Vec::new(), t, None);
            for (w, &us) in windows.iter().enumerate() {
                let from = end;
                end += SimDuration::from_micros(us);
                replay.push((from, end.saturating_since(from).as_secs_f64()));
                if let Some(record) = eager.advance(from, end) {
                    assert!(by_window.is_none(), "a second completion in flush {k}");
                    by_window = Some((w, record));
                }
            }
            let replayed = lazy.advance_windows(&replay);
            assert_eq!(format!("{replayed:?}"), format!("{by_window:?}"), "flush {k}");
            let energy = |hit: &Option<(usize, JobRecord)>| hit.as_ref().map(|(_, r)| r.gpu_energy_j.to_bits());
            assert_eq!(energy(&replayed), energy(&by_window), "flush {k}");
            let state = |n: &Node| {
                (
                    n.busy_s().to_bits(),
                    n.completed(),
                    n.job.as_ref().map(|r| (r.progress.to_bits(), r.energy_j.to_bits())),
                    n.platform().gpu_energy_j(SimTime::ZERO, end).to_bits(),
                    n.platform().cpu_energy_j(SimTime::ZERO, end).to_bits(),
                )
            };
            assert_eq!(state(&lazy), state(&eager), "flush {k}");
            found.push(by_window.map(|(w, _)| w));
            for node in [&mut eager, &mut lazy] {
                node.lifecycle_tick(end);
                node.control_tick(end, mw(cap * peak));
            }
            t = end;
        }
        found
    }

    #[test]
    fn replayed_windows_match_window_by_window_advance_at_the_edges() {
        // The first job's finish instant, from a probe twin.
        let mut probe = Node::new(0, &NodeConfig::default_node(), &mix(), 5);
        probe.dispatch(job("hotspot", 1.0), SimTime::ZERO);
        let finish = probe
            .advance(SimTime::ZERO, SimTime::from_secs(100_000))
            .expect("finishes")
            .finished
            .as_micros();
        let long = 100_000_000_000;
        let found = replay_twins(&[
            // A window boundary exactly on the completion, among
            // duplicate instants.
            (vec![finish / 2, 0, finish - finish / 2, 0, 500_000], 0.8, 1.0),
            // Completion in the first window, then in the last one.
            (vec![long, 1, 0, 7], 0.7, 1.5),
            (vec![3, 0, 5, 0, 0, long], 0.9, 0.4),
            // No completion, and no service time at all.
            (vec![1, 2, 0, 3], 0.6, 1.0),
            (vec![0, 0], 0.6, 1.0),
            (vec![long], 0.5, 1.0),
        ]);
        assert!(matches!(found[0], Some(2..=4)), "{found:?}");
        assert_eq!(&found[1..], &[Some(0), Some(5), None, None, Some(0)]);
    }

    use proptest::prelude::*;

    /// A window length in µs: a duplicate instant one time in four.
    fn window_us() -> impl Strategy<Value = u64> {
        (0u64..4, 1u64..4_000_000).prop_map(|(zero, us)| if zero == 0 { 0 } else { us })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random flushes of random windows, caps and job sizes: the
        /// one-pass replay leaves exactly what advancing window by window
        /// leaves.
        #[test]
        fn replayed_windows_match_window_by_window_advance(
            flushes in proptest::collection::vec(
                (proptest::collection::vec(window_us(), 1..10), 0.3f64..1.0, 0.05f64..2.0),
                1..8,
            ),
        ) {
            replay_twins(&flushes);
        }
    }
}
