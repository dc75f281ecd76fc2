//! The two-tier GreenGPU controller (paper §IV, Fig. 3).
//!
//! Wires the WMA GPU scaler, the ondemand CPU governor, and the division
//! controller into one [`Controller`] the runtime can drive. The frequency
//! scaling tier runs on a short fixed period (3 s in the paper's trace);
//! the division tier runs once per iteration, which the workloads size to
//! be ≳ 40× longer so the DVFS loop settles inside each division interval
//! and the tiers do not destructively interact.

use crate::division::{DivisionController, DivisionParams, ModelBasedDivision};
use crate::governors::CpuGovernor;
use crate::wma::{WmaParams, WmaScaler};
use greengpu_hw::{
    CleanSensors, DirectActuator, FaultPlan, FaultyActuator, FaultySensor, FreqActuator, Platform, SensorSource,
};
use greengpu_policy::{FreqPolicy, IdleSettle, PolicyTelemetry};
use greengpu_runtime::{Controller, IterationInfo};
use greengpu_sim::{JsonWriter, SimDuration, SimTime};

/// Format version written into every controller checkpoint; restores
/// reject any other version (bump on incompatible schema changes).
/// Version 2: the contextual policies' nested detector/inner snapshots
/// joined the policy-state schema.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Which division algorithm tier 1 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivisionAlgo {
    /// The paper's one-step-per-iteration heuristic with the oscillation
    /// safeguard (§V-B).
    Stepwise,
    /// The Qilin-style model jump: calibrate on the first iteration, jump
    /// to the predicted balance, then refine step-wise (the §V-B
    /// "sophisticated global algorithm" integration).
    ModelBased,
}

/// Which CPU governor tier 2 runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorKind {
    /// The paper's choice: the Linux ondemand governor.
    Ondemand,
    /// Pin the peak P-state.
    Performance,
    /// Pin the lowest P-state.
    Powersave,
    /// The Linux conservative governor (one step per sample).
    Conservative,
    /// Utilization-proportional selection (Wu et al.-style).
    Proportional,
}

impl GovernorKind {
    fn build(self) -> CpuGovernor {
        match self {
            GovernorKind::Ondemand => CpuGovernor::default(),
            GovernorKind::Performance => CpuGovernor::Performance,
            GovernorKind::Powersave => CpuGovernor::Powersave,
            GovernorKind::Conservative => CpuGovernor::conservative(),
            GovernorKind::Proportional => CpuGovernor::proportional(),
        }
    }
}

/// Read-back verification retries per actuation before it counts as
/// failed.
const ACTUATION_RETRIES: u32 = 2;

/// Consecutive failed actuations before the controller falls back to
/// best-performance (peak clocks, division frozen).
const FALLBACK_AFTER: u32 = 5;

/// Which tiers are enabled — the axes of the paper's §VII comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreenGpuConfig {
    /// Tier-1 workload division on/off.
    pub division: bool,
    /// Tier-2 GPU core+memory scaling on/off.
    pub gpu_scaling: bool,
    /// Tier-2 CPU ondemand governor on/off.
    pub cpu_scaling: bool,
    /// Initial CPU share for the division tier (paper traces use 30 %).
    pub initial_share: f64,
    /// Frequency-scaling invocation period (paper trace: 3 s).
    pub dvfs_period: SimDuration,
    /// Division tuning.
    pub division_params: DivisionParams,
    /// WMA tuning.
    pub wma_params: WmaParams,
    /// Division algorithm (paper heuristic or model-based jump).
    pub division_algo: DivisionAlgo,
    /// CPU governor (the paper uses ondemand).
    pub governor: GovernorKind,
}

impl Default for GreenGpuConfig {
    fn default() -> Self {
        GreenGpuConfig {
            division: true,
            gpu_scaling: true,
            cpu_scaling: true,
            initial_share: 0.30,
            dvfs_period: SimDuration::from_secs(3),
            division_params: DivisionParams::default(),
            wma_params: WmaParams::default(),
            division_algo: DivisionAlgo::Stepwise,
            governor: GovernorKind::Ondemand,
        }
    }
}

impl GreenGpuConfig {
    /// The full holistic configuration (both tiers).
    pub fn holistic() -> Self {
        GreenGpuConfig::default()
    }

    /// Division tier only — the paper's *Division* baseline (frequency
    /// scaling disabled; clocks stay wherever the platform pinned them).
    pub fn division_only() -> Self {
        GreenGpuConfig {
            gpu_scaling: false,
            cpu_scaling: false,
            ..GreenGpuConfig::default()
        }
    }

    /// Frequency-scaling tier only — the paper's *Frequency-scaling*
    /// baseline (all work stays on the GPU).
    pub fn scaling_only() -> Self {
        GreenGpuConfig {
            division: false,
            initial_share: 0.0,
            ..GreenGpuConfig::default()
        }
    }
}

/// A cap's feasible set, one bit per pair over the first 128 pairs: on a
/// grid of up to 128 pairs the policy's masked argmax and its empty-set
/// check read bits. The controller keeps the mask until the cap moves.
#[derive(Debug, Clone, Copy)]
struct CapMask {
    /// The cap it was built for, as `f64` bits.
    cap: u64,
    n_mem: usize,
    /// Bit `i · n_mem + j` is pair `(i, j)`'s feasibility.
    bits: u128,
    /// Whether every pair is feasible (the cap masks nothing).
    full: bool,
}

impl CapMask {
    fn new(cap: f64, n_core: usize, n_mem: usize, feasible: impl Fn(usize, usize) -> bool) -> Self {
        let (mut bits, mut full) = (0u128, true);
        for (k, (i, j)) in (0..n_core).flat_map(|i| (0..n_mem).map(move |j| (i, j))).enumerate() {
            let fits = feasible(i, j);
            full &= fits;
            if fits && k < 128 {
                bits |= 1 << k;
            }
        }
        CapMask {
            cap: cap.to_bits(),
            n_mem,
            bits,
            full,
        }
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        let k = i * self.n_mem + j;
        j < self.n_mem && k < 128 && self.bits >> k & 1 == 1
    }
}

/// Tier-1 implementation selected by [`DivisionAlgo`].
enum DivisionImpl {
    Stepwise(DivisionController),
    ModelBased(ModelBasedDivision),
}

impl DivisionImpl {
    fn update(&mut self, tc: f64, tg: f64) -> f64 {
        match self {
            DivisionImpl::Stepwise(c) => c.update(tc, tg),
            DivisionImpl::ModelBased(c) => c.update(tc, tg),
        }
    }

    fn share(&self) -> f64 {
        match self {
            DivisionImpl::Stepwise(c) => c.share(),
            DivisionImpl::ModelBased(c) => c.share(),
        }
    }
}

/// The assembled two-tier controller.
///
/// Sensing and actuation go through the [`SensorSource`]/[`FreqActuator`]
/// seam, so the same controller runs against the clean testbed or a
/// fault-injected one. The controller is hardened against bad providers:
/// non-finite utilizations are rejected (holding the last-known-good
/// sample), out-of-range ones are clamped, division updates ignore
/// degenerate iteration times, and every actuation is verified by
/// read-back with bounded retry — after `FALLBACK_AFTER` (5) consecutive
/// verification failures the controller permanently falls back to
/// best-performance (peak clocks, division frozen) so a broken actuation
/// path degrades to the paper's default baseline instead of stranding low
/// clocks.
pub struct GreenGpuController {
    config: GreenGpuConfig,
    /// The pluggable Tier-2 GPU frequency policy. Defaults to the
    /// paper's WMA scaler ([`WmaScaler`]); the policy constructors
    /// accept any [`FreqPolicy`] — switching-aware bandits, the
    /// deadline selector, or an external implementation.
    policy: Box<dyn FreqPolicy>,
    governor: CpuGovernor,
    division: DivisionImpl,
    sensors: Box<dyn SensorSource>,
    actuator: Box<dyn FreqActuator>,
    power_cap_w: Option<f64>,
    /// The last cap's feasible set, rebuilt only when the cap moves. The
    /// cap alone keys it: a controller drives exactly one platform (its
    /// sensor windows assume it), so the power model never changes.
    cap_mask: Option<CapMask>,
    cap_masked_intervals: u64,
    last_good_gpu: Option<(f64, f64)>,
    last_good_cpu: Option<f64>,
    consecutive_failures: u32,
    fallback: bool,
    sensor_rejects: u64,
    actuation_failures: u64,
}

impl GreenGpuController {
    /// Builds a controller for a platform with `n_core`×`n_mem` GPU levels
    /// on clean (fault-free) sensors and actuation.
    pub fn new(config: GreenGpuConfig, n_core_levels: usize, n_mem_levels: usize) -> Self {
        GreenGpuController::with_providers(
            config,
            n_core_levels,
            n_mem_levels,
            Box::new(CleanSensors::new()),
            Box::new(DirectActuator),
        )
    }

    /// Builds a controller over explicit sensor/actuator providers,
    /// running the default WMA policy built from `config.wma_params`.
    pub fn with_providers(
        config: GreenGpuConfig,
        n_core_levels: usize,
        n_mem_levels: usize,
        sensors: Box<dyn SensorSource>,
        actuator: Box<dyn FreqActuator>,
    ) -> Self {
        let policy = Box::new(WmaScaler::new(n_core_levels, n_mem_levels, config.wma_params));
        GreenGpuController::with_policy_providers(config, policy, sensors, actuator)
    }

    /// Builds a controller that drives an arbitrary [`FreqPolicy`] over
    /// explicit sensor/actuator providers — the pluggable Tier-2 seam.
    /// The policy's grid shape determines the level table the controller
    /// selects over; `config.wma_params` is ignored (the policy already
    /// carries its own tuning).
    pub fn with_policy_providers(
        config: GreenGpuConfig,
        policy: Box<dyn FreqPolicy>,
        sensors: Box<dyn SensorSource>,
        actuator: Box<dyn FreqActuator>,
    ) -> Self {
        let division = match config.division_algo {
            DivisionAlgo::Stepwise => {
                DivisionImpl::Stepwise(DivisionController::new(config.initial_share, config.division_params))
            }
            DivisionAlgo::ModelBased => {
                DivisionImpl::ModelBased(ModelBasedDivision::new(config.initial_share, config.division_params))
            }
        };
        GreenGpuController {
            policy,
            governor: config.governor.build(),
            division,
            sensors,
            actuator,
            power_cap_w: None,
            cap_mask: None,
            cap_masked_intervals: 0,
            last_good_gpu: None,
            last_good_cpu: None,
            consecutive_failures: 0,
            fallback: false,
            sensor_rejects: 0,
            actuation_failures: 0,
            config,
        }
    }

    /// Builds a controller whose sensors and actuation are wrapped in the
    /// seeded fault injectors configured by `plan`.
    pub fn faulted(config: GreenGpuConfig, n_core_levels: usize, n_mem_levels: usize, plan: &FaultPlan) -> Self {
        GreenGpuController::with_providers(
            config,
            n_core_levels,
            n_mem_levels,
            Box::new(FaultySensor::new(plan)),
            Box::new(FaultyActuator::new(plan)),
        )
    }

    /// Builds a controller driving an arbitrary policy on clean
    /// sensors/actuation.
    pub fn with_policy(config: GreenGpuConfig, policy: Box<dyn FreqPolicy>) -> Self {
        GreenGpuController::with_policy_providers(
            config,
            policy,
            Box::new(CleanSensors::new()),
            Box::new(DirectActuator),
        )
    }

    /// Builds a controller for the default 6×6 testbed.
    pub fn for_testbed(config: GreenGpuConfig) -> Self {
        GreenGpuController::new(config, 6, 6)
    }

    /// Builds a fault-injected controller for the default 6×6 testbed.
    pub fn for_testbed_faulted(config: GreenGpuConfig, plan: &FaultPlan) -> Self {
        GreenGpuController::faulted(config, 6, 6, plan)
    }

    /// The WMA scaler, when it is the active policy (inspection/tests);
    /// `None` under any other [`FreqPolicy`].
    pub fn wma(&self) -> Option<&WmaScaler> {
        self.policy.as_any().downcast_ref::<WmaScaler>()
    }

    /// The active Tier-2 frequency policy.
    pub fn policy(&self) -> &dyn FreqPolicy {
        self.policy.as_ref()
    }

    /// The pair the active policy would enforce right now — what the
    /// cluster tier uses to estimate a node's desired power draw.
    pub fn desired_pair(&self) -> (usize, usize) {
        self.policy.preferred()
    }

    /// The active policy's per-interval telemetry (cumulative loss,
    /// switches, regret, fallback counts).
    pub fn policy_telemetry(&self) -> &PolicyTelemetry {
        self.policy.telemetry()
    }

    /// The step-wise division controller, when that algorithm is selected
    /// (inspection/tests).
    pub fn division(&self) -> Option<&DivisionController> {
        match &self.division {
            DivisionImpl::Stepwise(c) => Some(c),
            DivisionImpl::ModelBased(_) => None,
        }
    }

    /// The CPU governor (inspection/tests).
    pub fn governor(&self) -> &CpuGovernor {
        &self.governor
    }

    /// Streams the controller's learner state — the Tier-2 policy's warm
    /// state plus the Tier-1 division ratio — as a versioned JSON
    /// checkpoint. Sensor/actuator state, hardening counters, and
    /// telemetry are *not* checkpointed: a restarted node gets fresh
    /// providers and fresh counters, only the learned knowledge survives.
    pub fn snapshot(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.key("version").u64(CHECKPOINT_VERSION);
            w.key("policy").str(self.policy.name());
            self.policy.snapshot(w.key("state"));
            let division = w.key("division");
            match &self.division {
                DivisionImpl::Stepwise(c) => c.snapshot(division),
                // The model-based jump recalibrates from its first
                // iteration; there is no warm state worth carrying
                // across a restart.
                DivisionImpl::ModelBased(_) => {
                    division.null();
                }
            }
        });
    }

    /// Restores a checkpoint written by [`GreenGpuController::snapshot`].
    ///
    /// Rejects (with a field-naming error) anything unparsable, any
    /// version other than [`CHECKPOINT_VERSION`], and a policy name that
    /// does not match the live policy. Each layer validates its value
    /// before mutating, so a rejected checkpoint leaves a *fresh*
    /// controller unchanged; on the node-restart path a failure means the
    /// whole controller is discarded for a cold start anyway, so partial
    /// restoration across layers is harmless.
    pub fn restore(&mut self, checkpoint: &str) -> Result<(), String> {
        use greengpu_policy::snap;
        use greengpu_sim::JsonValue;
        let v = JsonValue::parse(checkpoint)?;
        let version = snap::parse_u64(&v, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} is not the supported version {CHECKPOINT_VERSION}"
            ));
        }
        let name = snap::field(&v, "policy")?
            .as_str()
            .ok_or_else(|| "policy must be a string".to_string())?;
        if name != self.policy.name() {
            return Err(format!(
                "checkpoint is for policy {name:?}, controller runs {:?}",
                self.policy.name()
            ));
        }
        self.policy.restore(snap::field(&v, "state")?)?;
        let division = snap::field(&v, "division")?;
        match (&mut self.division, division.is_null()) {
            (DivisionImpl::Stepwise(c), false) => c.restore(division)?,
            (DivisionImpl::Stepwise(_), true) => {
                return Err("division must be present for a step-wise controller".to_string());
            }
            (DivisionImpl::ModelBased(_), true) => {}
            (DivisionImpl::ModelBased(_), false) => {
                return Err("division must be null for a model-based controller".to_string());
            }
        }
        Ok(())
    }

    /// Whether the best-performance fallback has engaged.
    pub fn fallback_engaged(&self) -> bool {
        self.fallback
    }

    /// Readings rejected as non-finite (held at last-known-good).
    pub fn sensor_rejects(&self) -> u64 {
        self.sensor_rejects
    }

    /// Actuations whose read-back never verified (after retries).
    pub fn actuation_failures(&self) -> u64 {
        self.actuation_failures
    }

    /// The earliest instant the controller's next poll reads the traces
    /// from ([`SensorSource::window_start`]): the platform's history
    /// before it is one no later tick asks for. A fresh controller's is
    /// t = 0.
    pub fn sensor_window_start(&self) -> SimTime {
        self.sensors.window_start()
    }

    /// Total faults injected by the providers (0 on clean providers).
    pub fn injection_count(&self) -> usize {
        self.sensors.injection_log().len() + self.actuator.injection_log().len()
    }

    /// The division tier's current CPU share.
    pub fn division_share(&self) -> f64 {
        self.division.share()
    }

    /// Sets (or clears) the GPU board power cap in watts.
    ///
    /// While a cap is set, each DVFS tick restricts the WMA argmax to
    /// frequency pairs whose modeled worst-case board power
    /// (`GpuSpec::power_at_levels_w(core, mem, 1.0, 1.0)`) fits under the
    /// cap. The WMA weight update itself still runs over the full table,
    /// so a transient cap never corrupts what the learner has learned.
    /// The cluster tier re-apportions a fleet budget into these per-node
    /// caps every control interval.
    ///
    /// The best-performance fallback deliberately ignores the cap: a node
    /// whose actuation path is broken pins peak clocks, and the cluster
    /// tier accounts for that as a cap violation and routes around it.
    pub fn set_power_cap_w(&mut self, cap: Option<f64>) {
        self.power_cap_w = cap;
    }

    /// The current GPU board power cap, if any.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.power_cap_w
    }

    /// DVFS intervals in which the cap actually excluded at least one
    /// pair from the argmax (inspection/telemetry).
    pub fn cap_masked_intervals(&self) -> u64 {
        self.cap_masked_intervals
    }

    /// Issues a GPU reclock through the actuator and verifies it by
    /// read-back, retrying up to the configured bound; a persistent
    /// mismatch counts toward the fallback threshold.
    fn actuate_gpu_verified(&mut self, platform: &mut Platform, now: SimTime, core: usize, mem: usize) {
        let mut attempts = 0;
        loop {
            self.actuator.set_gpu_levels(platform, now, core, mem);
            let applied = platform.gpu().core().current_level() == core && platform.gpu().mem().current_level() == mem;
            if applied {
                self.consecutive_failures = 0;
                return;
            }
            if attempts >= ACTUATION_RETRIES {
                break;
            }
            attempts += 1;
        }
        self.record_actuation_failure();
    }

    /// Issues a CPU P-state change through the actuator with the same
    /// read-back verification.
    fn actuate_cpu_verified(&mut self, platform: &mut Platform, now: SimTime, level: usize) {
        let mut attempts = 0;
        loop {
            self.actuator.set_cpu_level(platform, now, level);
            if platform.cpu().domain().current_level() == level {
                self.consecutive_failures = 0;
                return;
            }
            if attempts >= ACTUATION_RETRIES {
                break;
            }
            attempts += 1;
        }
        self.record_actuation_failure();
    }

    fn record_actuation_failure(&mut self) {
        self.actuation_failures += 1;
        self.consecutive_failures += 1;
        if self.consecutive_failures >= FALLBACK_AFTER {
            self.fallback = true;
        }
    }

    /// Sense half of the GPU tick: poll, reject non-finite readings,
    /// clamp, and refresh the last-known-good window. Returns the
    /// utilizations a decision would consume (the fresh reading, or the
    /// held last-good on a lost poll).
    fn sense_gpu(&mut self, platform: &Platform, now: SimTime) -> Option<(f64, f64)> {
        let reading = self.sensors.poll_gpu(platform.gpu(), now);
        if reading.u_core.is_finite() && reading.u_mem.is_finite() {
            let good = (reading.u_core.clamp(0.0, 1.0), reading.u_mem.clamp(0.0, 1.0));
            self.last_good_gpu = Some(good);
            Some(good)
        } else {
            // Lost poll: hold the last-known-good window if any.
            self.sensor_rejects += 1;
            self.last_good_gpu
        }
    }

    /// Decide/actuate half of the GPU tick: mask the grid by the cap,
    /// consult the policy, and enforce the chosen pair. The last cap's
    /// mask is kept while the cap is unchanged; a grid of more than 128
    /// pairs (no modeled card has one) keeps only whether it is full and
    /// evaluates the power model on each query.
    fn decide_actuate_gpu(&mut self, platform: &mut Platform, now: SimTime, u_core: f64, u_mem: f64) {
        let (core_lvl, mem_lvl) = match self.power_cap_w {
            Some(cap) => {
                let spec = platform.gpu().spec();
                let (n_core, n_mem) = (spec.core_levels_mhz.len(), spec.mem_levels_mhz.len());
                let fits = |i, j| spec.power_at_levels_w(i, j, 1.0, 1.0) <= cap;
                let mask = match self.cap_mask {
                    Some(mask) if mask.cap == cap.to_bits() => mask,
                    _ => *self.cap_mask.insert(CapMask::new(cap, n_core, n_mem, fits)),
                };
                if !mask.full {
                    self.cap_masked_intervals += 1;
                }
                if n_core * n_mem <= 128 {
                    self.policy.decide(u_core, u_mem, &|i, j| mask.contains(i, j))
                } else {
                    self.policy.decide(u_core, u_mem, &fits)
                }
            }
            None => self.policy.decide(u_core, u_mem, &|_, _| true),
        };
        self.actuate_gpu_verified(platform, now, core_lvl, mem_lvl);
    }

    /// Sense half of the CPU tick, mirroring [`Self::sense_gpu`].
    fn sense_cpu(&mut self, platform: &Platform, now: SimTime) -> Option<f64> {
        let reading = self.sensors.poll_cpu(platform.cpu(), now);
        if reading.util.is_finite() {
            let good = reading.util.clamp(0.0, 1.0);
            self.last_good_cpu = Some(good);
            Some(good)
        } else {
            self.sensor_rejects += 1;
            self.last_good_cpu
        }
    }

    /// Govern half of the CPU tick: ask the governor for a target P-state
    /// and enforce it.
    fn govern_cpu(&mut self, platform: &mut Platform, now: SimTime, util: f64) {
        if let Some(level) = self.governor.desired_level(platform, util) {
            self.governor.note_transition();
            self.actuate_cpu_verified(platform, now, level);
        }
    }

    /// One DVFS tick that skips decisions it can prove are identities:
    /// the fleet's sensor catch-up for a parked node. Sensing always runs
    /// in full — the sensor windows (and reject counters) must advance
    /// exactly as on [`Controller::on_dvfs_tick`] — but the
    /// decide/actuate half of each domain is skipped when the freshly
    /// resolved utilization is bit-equal to the previous tick's. With the
    /// policy at a decision fixed point (certified by the caller via
    /// [`Self::decision_fingerprint_parts`]) and an unchanged cap, the same
    /// observation reproduces the same weights and the same (already
    /// enforced) levels, so the skip is an identity. A domain that
    /// resolves anything else runs its full half.
    pub fn on_dvfs_tick_quiescent(&mut self, platform: &mut Platform, now: SimTime) {
        if self.fallback {
            // Fallback re-pins peak clocks every tick; never quiescent.
            self.on_dvfs_tick(platform, now);
            return;
        }
        if self.config.gpu_scaling {
            let prev = self.last_good_gpu;
            let utils = self.sense_gpu(platform, now);
            if let Some((u_core, u_mem)) = utils {
                if prev != utils {
                    self.decide_actuate_gpu(platform, now, u_core, u_mem);
                }
            }
        }
        if self.config.cpu_scaling && !self.fallback {
            let prev = self.last_good_cpu;
            let util = self.sense_cpu(platform, now);
            if let Some(util) = util {
                if prev != Some(util) {
                    self.govern_cpu(platform, now, util);
                }
            }
        }
    }

    /// A bit-exact fingerprint of every piece of controller state that
    /// can influence a future decision, in two words: the policy's own
    /// fingerprint, and one over the controller state around it (last-good
    /// readings, actuation failure streak, cap). `None` when no fixed
    /// point can be certified (fallback engaged, or the policy declines —
    /// see [`FreqPolicy::decision_fingerprint`]). The fleet's event-driven
    /// engine parks a node only after two consecutive identical
    /// fingerprints; a tick that moves only the first word changed nothing
    /// but the learner.
    pub fn decision_fingerprint_parts(&self) -> Option<(u64, u64)> {
        if self.fallback {
            return None;
        }
        let policy_fp = self.policy.decision_fingerprint()?;
        // Compared only with itself, so every field folds as one word.
        let mut h = greengpu_sim::Fnv64::new();
        match self.last_good_gpu {
            Some((c, m)) => {
                h.push_word(1);
                h.push_word(c.to_bits());
                h.push_word(m.to_bits());
            }
            None => h.push_word(0),
        }
        match self.last_good_cpu {
            Some(u) => {
                h.push_word(1);
                h.push_word(u.to_bits());
            }
            None => h.push_word(0),
        }
        h.push_word(u64::from(self.consecutive_failures));
        match self.power_cap_w {
            Some(cap) => {
                h.push_word(1);
                h.push_word(cap.to_bits());
            }
            None => h.push_word(0),
        }
        Some((policy_fp, h.finish()))
    }

    /// The policy's settled idle decision ([`FreqPolicy::idle_settled`])
    /// when the next exactly-idle ticks would enforce it: the GPU tier is
    /// on, the fallback is not engaged, and the settled pair fits the
    /// current cap, so the masked argmax of every remaining idle step is
    /// that pair.
    pub fn idle_settled(&self, platform: &Platform) -> Option<IdleSettle> {
        if self.fallback || !self.config.gpu_scaling {
            return None;
        }
        let settle = self.policy.idle_settled()?;
        let (i, j) = settle.pair;
        let fits = self
            .power_cap_w
            .is_none_or(|cap| platform.gpu().spec().power_at_levels_w(i, j, 1.0, 1.0) <= cap);
        fits.then_some(settle)
    }

    /// Applies `steps` exactly-idle control intervals at once, on a
    /// controller whose learner rests (settled, or parked at a decision
    /// fixed point) under the cap its last decision ran under: the policy
    /// takes the steps ([`FreqPolicy::fast_forward_idle`]), and
    /// `cap_masked_intervals` gains them when that cap masks pairs, as
    /// `steps` full ticks would leave both. A resting node's CPU already
    /// sits where an idle governor sample leaves it, so no governor tally
    /// moves. Sensors, actuators and the policy's decision tracker are
    /// untouched.
    pub fn fast_forward_idle(&mut self, steps: u64) {
        self.policy.fast_forward_idle(steps);
        let cap = self.power_cap_w.map(f64::to_bits);
        if self.cap_mask.is_some_and(|mask| !mask.full && Some(mask.cap) == cap) {
            self.cap_masked_intervals += steps;
        }
    }
}

impl Controller for GreenGpuController {
    fn initial_share(&self) -> f64 {
        if self.config.division {
            self.config.initial_share
        } else {
            0.0
        }
    }

    fn dvfs_period(&self) -> Option<SimDuration> {
        if self.config.gpu_scaling || self.config.cpu_scaling {
            Some(self.config.dvfs_period)
        } else {
            None
        }
    }

    fn on_dvfs_tick(&mut self, platform: &mut Platform, now: SimTime) {
        if self.fallback {
            // Best-performance fallback: keep commanding peak clocks in
            // case the actuation path recovers intermittently; decisions
            // no longer consume (possibly garbage) sensor data.
            let core_peak = platform.gpu().core().peak_level();
            let mem_peak = platform.gpu().mem().peak_level();
            self.actuator.set_gpu_levels(platform, now, core_peak, mem_peak);
            let cpu_peak = platform.cpu().domain().peak_level();
            self.actuator.set_cpu_level(platform, now, cpu_peak);
            return;
        }
        if self.config.gpu_scaling {
            if let Some((u_core, u_mem)) = self.sense_gpu(platform, now) {
                self.decide_actuate_gpu(platform, now, u_core, u_mem);
            }
        }
        if self.config.cpu_scaling && !self.fallback {
            if let Some(util) = self.sense_cpu(platform, now) {
                self.govern_cpu(platform, now, util);
            }
        }
    }

    fn on_iteration_end(&mut self, info: &IterationInfo, _platform: &mut Platform, _now: SimTime) -> f64 {
        if !self.config.division {
            return 0.0;
        }
        if self.fallback {
            // Division frozen in fallback: no moves on a broken platform.
            return self.division.share();
        }
        let (tc_s, tg_s) = self.sensors.observe_iteration(info.tc_s, info.tg_s);
        self.division.update(tc_s, tg_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_enable_the_right_tiers() {
        let h = GreenGpuConfig::holistic();
        assert!(h.division && h.gpu_scaling && h.cpu_scaling);
        let d = GreenGpuConfig::division_only();
        assert!(d.division && !d.gpu_scaling && !d.cpu_scaling);
        let s = GreenGpuConfig::scaling_only();
        assert!(!s.division && s.gpu_scaling);
    }

    #[test]
    fn scaling_only_pins_share_to_zero() {
        let ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        assert_eq!(ctl.initial_share(), 0.0);
    }

    #[test]
    fn division_only_disables_the_dvfs_loop() {
        let ctl = GreenGpuController::for_testbed(GreenGpuConfig::division_only());
        assert_eq!(ctl.dvfs_period(), None);
    }

    #[test]
    fn holistic_uses_three_second_period() {
        let ctl = GreenGpuController::for_testbed(GreenGpuConfig::holistic());
        assert_eq!(ctl.dvfs_period(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn dvfs_tick_actuates_gpu_levels_from_sensors() {
        let mut platform = Platform::default_testbed();
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        // Saturate both domains for a window, then tick: the scaler must
        // push both levels to the peak.
        platform.set_gpu_activity(SimTime::ZERO, 1.0, 1.0);
        ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3));
        assert_eq!(platform.gpu().core().current_level(), 5);
        assert_eq!(platform.gpu().mem().current_level(), 5);
    }

    #[test]
    fn idle_settles_only_on_a_pair_the_cap_admits() {
        // A card whose lowest core level draws the most (its voltage
        // table falls as the clock rises): a cap can exclude the settled
        // idle pair (0, 0) and still admit other pairs, whose order the
        // remaining idle steps may change.
        let mut gpu = greengpu_hw::calib::geforce_8800_gtx();
        gpu.core_volts = Some(vec![2.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let cpu = greengpu_hw::calib::phenom_ii_x2();
        let cpu_peak = cpu.levels_mhz.len() - 1;
        let mut platform = Platform::new(gpu.clone(), cpu, 5, 5, cpu_peak);
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        for k in 1..=3 {
            ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3 * k));
        }
        let settled = ctl.idle_settled(&platform).expect("idle, lowest pair at 1.0");
        assert_eq!(settled.pair, (0, 0));
        let lowest = gpu.power_at_levels_w(0, 0, 1.0, 1.0);
        let next = gpu.power_at_levels_w(1, 0, 1.0, 1.0);
        assert!(next < lowest, "{next} vs {lowest}");
        ctl.set_power_cap_w(Some((lowest + next) / 2.0));
        assert_eq!(ctl.idle_settled(&platform), None, "the cap excludes the settled pair");
        ctl.set_power_cap_w(Some(lowest));
        assert_eq!(
            ctl.idle_settled(&platform),
            Some(settled),
            "a cap at its power admits it"
        );
    }

    #[test]
    fn power_cap_masks_the_enforced_pair() {
        let mut platform = Platform::default_testbed();
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        let spec = platform.gpu().spec().clone();
        // A cap between the floor pair and the peak pair: saturated
        // utilization would normally drive both levels to the peak, but
        // the cap must keep the enforced pair's modeled power under it.
        let cap = 0.7 * spec.power_at_levels_w(5, 5, 1.0, 1.0);
        ctl.set_power_cap_w(Some(cap));
        platform.set_gpu_activity(SimTime::ZERO, 1.0, 1.0);
        for k in 1..=5 {
            ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3 * k));
        }
        let (i, j) = (
            platform.gpu().core().current_level(),
            platform.gpu().mem().current_level(),
        );
        assert!(
            spec.power_at_levels_w(i, j, 1.0, 1.0) <= cap,
            "enforced pair ({i},{j}) exceeds the cap"
        );
        assert!((i, j) != (5, 5), "cap had no effect");
        assert!(ctl.cap_masked_intervals() > 0);
        // Lifting the cap restores the uncapped policy.
        ctl.set_power_cap_w(None);
        ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(30));
        assert_eq!(platform.gpu().core().current_level(), 5);
        assert_eq!(platform.gpu().mem().current_level(), 5);
    }

    #[test]
    fn power_cap_masks_grids_too_large_for_the_bit_mask() {
        // 12×12 = 144 pairs: the mask re-evaluates the power model per
        // query instead of caching bits, and must still bind the pair.
        let mut spec = greengpu_hw::calib::geforce_8800_gtx();
        let stretch = |levels: &[f64]| -> Vec<f64> {
            let (lo, hi) = (levels[0], levels[levels.len() - 1]);
            (0..12).map(|k| lo + (hi - lo) * k as f64 / 11.0).collect()
        };
        spec.core_levels_mhz = stretch(&spec.core_levels_mhz);
        spec.mem_levels_mhz = stretch(&spec.mem_levels_mhz);
        let cpu = greengpu_hw::calib::phenom_ii_x2();
        let cpu_peak = cpu.levels_mhz.len() - 1;
        let mut platform = Platform::new(spec.clone(), cpu, 11, 11, cpu_peak);
        let mut ctl = GreenGpuController::new(GreenGpuConfig::scaling_only(), 12, 12);
        let cap = 0.7 * spec.power_at_levels_w(11, 11, 1.0, 1.0);
        ctl.set_power_cap_w(Some(cap));
        platform.set_gpu_activity(SimTime::ZERO, 1.0, 1.0);
        for k in 1..=5 {
            ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3 * k));
        }
        let (i, j) = (
            platform.gpu().core().current_level(),
            platform.gpu().mem().current_level(),
        );
        assert!(
            spec.power_at_levels_w(i, j, 1.0, 1.0) <= cap,
            "({i},{j}) exceeds the cap"
        );
        assert!((i, j) != (11, 11), "cap had no effect");
        assert_eq!(ctl.cap_masked_intervals(), 5);
    }

    #[test]
    fn fast_forward_idle_counts_the_intervals_its_cap_masks() {
        // The 6-level card keeps its mask's bits; a 12-level one keeps
        // only whether the mask is full.
        for levels in [6, 12] {
            let mut spec = greengpu_hw::calib::geforce_8800_gtx();
            let stretch = |v: &[f64]| -> Vec<f64> {
                let (lo, hi) = (v[0], v[v.len() - 1]);
                (0..levels)
                    .map(|k| lo + (hi - lo) * k as f64 / (levels - 1) as f64)
                    .collect()
            };
            spec.core_levels_mhz = stretch(&spec.core_levels_mhz);
            spec.mem_levels_mhz = stretch(&spec.mem_levels_mhz);
            let cpu = greengpu_hw::calib::phenom_ii_x2();
            let cpu_peak = cpu.levels_mhz.len() - 1;
            let mut platform = Platform::new(spec.clone(), cpu, 0, 0, cpu_peak);
            let peak = spec.power_at_levels_w(levels - 1, levels - 1, 1.0, 1.0);
            for (cap, masked) in [(0.7 * peak, 3 + 40), (peak, 0)] {
                let mut ctl = GreenGpuController::new(GreenGpuConfig::scaling_only(), levels, levels);
                ctl.set_power_cap_w(Some(cap));
                for k in 1..=3 {
                    ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3 * k));
                }
                ctl.fast_forward_idle(40);
                assert_eq!(ctl.cap_masked_intervals(), masked, "{levels} levels under {cap} W");
                assert_eq!(ctl.wma().map(|w| w.intervals()), Some(43));
            }
        }
    }

    #[test]
    fn iteration_end_moves_division() {
        let mut platform = Platform::default_testbed();
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::holistic());
        let info = IterationInfo {
            index: 0,
            cpu_share: 0.30,
            tc_s: 10.0,
            tg_s: 2.0,
        };
        let next = ctl.on_iteration_end(&info, &mut platform, SimTime::from_secs(10));
        assert_eq!(next, 0.25, "slower CPU sheds one step");
    }
}

#[cfg(test)]
mod cap_mask_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The controller keeps the last cap's mask; a twin policy fed the
        /// same utilizations decides over a mask built fresh from the power
        /// model every tick. Caps come from a pool holding no cap, every
        /// pair's exact power, points between them, and points beyond the
        /// floor and the peak; a tick may repeat the previous cap.
        #[test]
        fn a_kept_cap_mask_decides_as_a_fresh_one(
            ticks in proptest::collection::vec((0usize..1000, any::<bool>(), 0u8..4), 1..60),
        ) {
            let mut platform = Platform::default_testbed();
            let spec = platform.gpu().spec().clone();
            let mut powers: Vec<f64> = (0..6)
                .flat_map(|i| (0..6).map(move |j| (i, j)))
                .map(|(i, j)| spec.power_at_levels_w(i, j, 1.0, 1.0))
                .collect();
            powers.sort_by(f64::total_cmp);
            let mut pool: Vec<Option<f64>> = vec![None, Some(0.5 * powers[0]), Some(2.0 * powers[35])];
            pool.extend(powers.iter().map(|&p| Some(p)));
            pool.extend(powers.windows(2).map(|w| Some(0.5 * (w[0] + w[1]))));

            let config = GreenGpuConfig::scaling_only();
            let mut ctl = GreenGpuController::for_testbed(config);
            let mut twin = WmaScaler::new(6, 6, config.wma_params);
            let mut masked = 0u64;
            let mut cap = None;
            for (k, &(pick, repeat, activity)) in ticks.iter().enumerate() {
                if !repeat {
                    cap = pool[pick % pool.len()];
                }
                let u = f64::from(activity) / 3.0;
                platform.set_gpu_activity(SimTime::from_secs(3 * k as u64), u, 1.0 - u);
                ctl.set_power_cap_w(cap);
                ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3 * k as u64 + 3));
                let Some((u_core, u_mem)) = ctl.last_good_gpu else {
                    return Err(TestCaseError::fail("clean sensors read every tick"));
                };
                let want = match cap {
                    Some(cap) => {
                        let fresh = |i, j| spec.power_at_levels_w(i, j, 1.0, 1.0) <= cap;
                        if !(0..6).all(|i| (0..6).all(|j| fresh(i, j))) {
                            masked += 1;
                        }
                        twin.decide(u_core, u_mem, &fresh)
                    }
                    None => twin.decide(u_core, u_mem, &|_, _| true),
                };
                let enforced = (platform.gpu().core().current_level(), platform.gpu().mem().current_level());
                prop_assert_eq!(enforced, want, "tick {} under {:?}", k, cap);
            }
            prop_assert_eq!(ctl.cap_masked_intervals(), masked);
        }
    }
}

#[cfg(test)]
mod governor_integration_tests {
    use super::*;
    use crate::baselines::run_with_config;
    use greengpu_runtime::{CommMode, RunConfig};
    use greengpu_workloads::streamcluster::StreamCluster;

    fn async_cfg() -> RunConfig {
        let mut cfg = RunConfig::sweep();
        cfg.comm_mode = CommMode::Async;
        cfg
    }

    #[test]
    fn powersave_governor_floors_the_cpu() {
        let cfg = GreenGpuConfig {
            governor: GovernorKind::Powersave,
            ..GreenGpuConfig::scaling_only()
        };
        let report = run_with_config(&mut StreamCluster::paper(1), cfg, async_cfg());
        assert_eq!(report.platform.cpu().domain().current_level(), 0);
    }

    #[test]
    fn performance_governor_pins_the_peak() {
        let cfg = GreenGpuConfig {
            governor: GovernorKind::Performance,
            ..GreenGpuConfig::scaling_only()
        };
        let report = run_with_config(&mut StreamCluster::paper(1), cfg, async_cfg());
        assert_eq!(report.platform.cpu().domain().current_level(), 3);
    }

    #[test]
    fn throttling_governors_save_cpu_energy_under_async_comm() {
        let run = |kind: GovernorKind| {
            let cfg = GreenGpuConfig {
                governor: kind,
                ..GreenGpuConfig::scaling_only()
            };
            run_with_config(&mut StreamCluster::paper(2), cfg, async_cfg())
        };
        let perf = run(GovernorKind::Performance);
        for kind in [
            GovernorKind::Ondemand,
            GovernorKind::Conservative,
            GovernorKind::Proportional,
        ] {
            let throttled = run(kind);
            assert!(
                throttled.cpu_energy_j < perf.cpu_energy_j,
                "{kind:?}: {} vs performance {}",
                throttled.cpu_energy_j,
                perf.cpu_energy_j
            );
            // Same GPU-side work and time regardless of the CPU governor.
            assert_eq!(throttled.total_time, perf.total_time);
        }
    }

    #[test]
    fn model_based_division_through_the_coordinator() {
        use greengpu_workloads::hotspot::Hotspot;
        let cfg = GreenGpuConfig {
            division_algo: DivisionAlgo::ModelBased,
            gpu_scaling: false,
            cpu_scaling: false,
            ..GreenGpuConfig::default()
        };
        let report = run_with_config(&mut Hotspot::paper(3), cfg, RunConfig::sweep());
        // The jump reaches the balance region by iteration 2.
        let second = &report.iterations[1];
        assert!(
            (0.45..=0.60).contains(&second.cpu_share),
            "model jump landed at {}",
            second.cpu_share
        );
    }
}
