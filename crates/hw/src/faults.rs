//! Deterministic sensor/actuator fault injection.
//!
//! The paper's controllers consume real `nvidia-smi` polls and Wattsup
//! samples and actuate real clocks through `nvidia-settings` — all of
//! which are noisy, laggy, and occasionally wrong on hardware. This module
//! recreates those conditions on the simulated testbed so the control
//! tiers can be hardened and tested against them:
//!
//! * [`SensorSource`] / [`FreqActuator`] — the trait seam. Controllers
//!   consume these instead of touching [`Smi`] / [`Platform`] actuation
//!   directly, so clean and faulted providers are interchangeable.
//! * [`FaultPlan`] — per-channel fault configuration: utilization jitter
//!   (bounded Gaussian), stale/dropped readings, iteration-timing noise,
//!   actuation drop/offset/delay, and meter gain/bias/saturation.
//! * [`FaultySensor`] / [`FaultyActuator`] — seeded injectors wrapping
//!   the clean providers. Every channel draws from its own
//!   [`Pcg32`] stream, and a channel whose knobs are all zero draws
//!   *nothing*, so a zero-intensity plan reproduces the clean run
//!   byte-for-byte.
//! * [`InjectionEvent`] — every injected fault is recorded (virtual time,
//!   channel, kind, magnitude) so a run's fault sequence can be audited
//!   and replayed.

use crate::cpu::CpuModel;
use crate::gpu::GpuModel;
use crate::platform::Platform;
use crate::smi::{CpuReading, Smi, SmiReading};
use greengpu_sim::rng::{Pcg32, SplitMix64};
use greengpu_sim::SimTime;

/// A source of utilization readings for the control tiers.
///
/// `observe_iteration` sits on the division tier's measurement path; the
/// default implementation passes the true iteration times through.
pub trait SensorSource {
    /// Windowed GPU utilizations at `now` (the `nvidia-smi` path).
    fn poll_gpu(&mut self, gpu: &GpuModel, now: SimTime) -> SmiReading;

    /// Windowed CPU utilization at `now` (the `/proc/stat` path).
    fn poll_cpu(&mut self, cpu: &CpuModel, now: SimTime) -> CpuReading;

    /// The division tier's view of the measured iteration times.
    fn observe_iteration(&mut self, tc_s: f64, tg_s: f64) -> (f64, f64) {
        (tc_s, tg_s)
    }

    /// Faults injected so far (empty for clean sources).
    fn injection_log(&self) -> &[InjectionEvent] {
        &[]
    }

    /// The earliest instant a later poll reads the traces from: the start
    /// of the next window. A caller may let the platform forget the
    /// history before it ([`Platform::forget_before`]). The default, t = 0,
    /// claims nothing, so a source that does not report it lets nothing
    /// be forgotten.
    fn window_start(&self) -> SimTime {
        SimTime::ZERO
    }
}

/// A sink for frequency commands (the `nvidia-settings` / cpufreq path).
pub trait FreqActuator {
    /// Requests the GPU core/memory levels `(core, mem)` at `at`.
    fn set_gpu_levels(&mut self, platform: &mut Platform, at: SimTime, core: usize, mem: usize);

    /// Requests CPU P-state `level` at `at`.
    fn set_cpu_level(&mut self, platform: &mut Platform, at: SimTime, level: usize);

    /// Faults injected so far (empty for clean actuators).
    fn injection_log(&self) -> &[InjectionEvent] {
        &[]
    }
}

/// The perfect-oracle sensor pair the seed controllers used: two [`Smi`]
/// facades with independent windows.
#[derive(Debug, Clone, Default)]
pub struct CleanSensors {
    gpu_smi: Smi,
    cpu_smi: Smi,
}

impl CleanSensors {
    /// Sensors whose first windows start at t = 0.
    pub fn new() -> Self {
        CleanSensors::default()
    }
}

impl SensorSource for CleanSensors {
    fn poll_gpu(&mut self, gpu: &GpuModel, now: SimTime) -> SmiReading {
        self.gpu_smi.poll_gpu(gpu, now)
    }

    fn poll_cpu(&mut self, cpu: &CpuModel, now: SimTime) -> CpuReading {
        self.cpu_smi.poll_cpu(cpu, now)
    }

    /// The earlier of the two windows' starts.
    fn window_start(&self) -> SimTime {
        self.gpu_smi.window_start().min(self.cpu_smi.window_start())
    }
}

/// The fault-free actuator: commands reach the platform unmodified.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectActuator;

impl FreqActuator for DirectActuator {
    fn set_gpu_levels(&mut self, platform: &mut Platform, at: SimTime, core: usize, mem: usize) {
        platform.set_gpu_levels(at, core, mem);
    }

    fn set_cpu_level(&mut self, platform: &mut Platform, at: SimTime, level: usize) {
        platform.set_cpu_level(at, level);
    }
}

/// Which measurement/actuation path a fault was injected on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChannel {
    /// GPU utilization polls.
    GpuUtil,
    /// CPU utilization polls.
    CpuUtil,
    /// Iteration time measurements (division tier input).
    Iteration,
    /// Frequency actuation commands.
    Actuation,
}

/// What was done to the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Bounded Gaussian noise added; the payload is the largest absolute
    /// perturbation applied.
    Jitter(f64),
    /// The previous reading was served again.
    Stale,
    /// The reading was lost (NaN fields) or the command discarded.
    Drop,
    /// The command was applied off by one level; the payload is the signed
    /// core-level offset.
    Offset(i64),
    /// The command was deferred to the next actuation opportunity.
    Delay,
}

/// One injected fault, recorded for audit/replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionEvent {
    /// Virtual time of the injection.
    pub at: SimTime,
    /// The path it was injected on.
    pub channel: FaultChannel,
    /// What happened.
    pub kind: FaultKind,
}

/// Fault knobs for one utilization/measurement channel. All-zero means the
/// channel is passed through untouched (and its RNG stream is never drawn).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelFaults {
    /// Std-dev of additive Gaussian noise, truncated at ±3σ.
    pub jitter_sigma: f64,
    /// Probability a poll returns the previous reading unchanged.
    pub stale_prob: f64,
    /// Probability a poll is lost entirely (NaN fields).
    pub drop_prob: f64,
}

impl ChannelFaults {
    fn is_clean(&self) -> bool {
        // lint:allow(float_eq) exact-zero means the knob was never set; values come only from literals
        self.jitter_sigma == 0.0 && self.stale_prob == 0.0 && self.drop_prob == 0.0
    }
}

/// Fault knobs for the actuation path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActuationFaults {
    /// Probability a command is silently ignored.
    pub drop_prob: f64,
    /// Probability a command lands one level off (direction seeded).
    pub offset_prob: f64,
    /// Probability a command is applied at the *next* actuation call
    /// instead of now.
    pub delay_prob: f64,
}

impl ActuationFaults {
    fn is_clean(&self) -> bool {
        // lint:allow(float_eq) exact-zero means the knob was never set; values come only from literals
        self.drop_prob == 0.0 && self.offset_prob == 0.0 && self.delay_prob == 0.0
    }
}

/// Systematic distortion of power-meter samples (Wattsup-style gain/bias
/// error plus range saturation). This perturbs what the meter *reports*,
/// never the platform's ground-truth energy integral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterFaults {
    /// Multiplicative gain error (1.0 = calibrated).
    pub gain: f64,
    /// Additive offset, watts.
    pub bias_w: f64,
    /// Ceiling the meter clips at, watts (`f64::INFINITY` = none).
    pub saturate_w: f64,
}

impl Default for MeterFaults {
    fn default() -> Self {
        MeterFaults {
            gain: 1.0,
            bias_w: 0.0,
            saturate_w: f64::INFINITY,
        }
    }
}

impl MeterFaults {
    /// The wattage a faulted meter would report for true power `w`.
    pub fn observed_w(&self, w: f64) -> f64 {
        (w * self.gain + self.bias_w).min(self.saturate_w)
    }
}

/// The full per-channel fault configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed; each channel derives an independent [`Pcg32`] stream
    /// from it, so faults on one channel never shift another's draws.
    pub seed: u64,
    /// GPU utilization poll faults.
    pub gpu_util: ChannelFaults,
    /// CPU utilization poll faults.
    pub cpu_util: ChannelFaults,
    /// Iteration-time measurement faults (relative jitter).
    pub iteration: ChannelFaults,
    /// Frequency actuation faults.
    pub actuation: ActuationFaults,
    /// Power meter distortion.
    pub meter: MeterFaults,
}

/// Fixed stream ids for the per-channel RNGs.
const STREAM_GPU: u64 = 0xFA01;
const STREAM_CPU: u64 = 0xFA02;
const STREAM_ITER: u64 = 0xFA03;
const STREAM_ACT: u64 = 0xFA04;

impl FaultPlan {
    /// A plan that injects nothing (all knobs zero, meter calibrated).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            gpu_util: ChannelFaults::default(),
            cpu_util: ChannelFaults::default(),
            iteration: ChannelFaults::default(),
            actuation: ActuationFaults::default(),
            meter: MeterFaults::default(),
        }
    }

    /// A plan scaled by a single `intensity` knob in `[0, 1]`: 0 is
    /// [`FaultPlan::clean`], 1 is heavily degraded hardware (±8 % 3σ
    /// utilization noise, 10 % stale and 5 % lost polls, 20 % dropped /
    /// 10 % misapplied / 10 % delayed reclocks, a 5 % meter gain error
    /// with a 2 W bias). The robustness experiment sweeps this axis.
    pub fn with_intensity(seed: u64, intensity: f64) -> Self {
        let x = intensity.clamp(0.0, 1.0);
        let util = ChannelFaults {
            jitter_sigma: 0.08 * x,
            stale_prob: 0.10 * x,
            drop_prob: 0.05 * x,
        };
        FaultPlan {
            seed,
            gpu_util: util,
            cpu_util: util,
            iteration: ChannelFaults {
                jitter_sigma: 0.02 * x,
                stale_prob: 0.0,
                drop_prob: 0.0,
            },
            actuation: ActuationFaults {
                drop_prob: 0.20 * x,
                offset_prob: 0.10 * x,
                delay_prob: 0.10 * x,
            },
            meter: MeterFaults {
                gain: 1.0 + 0.05 * x,
                bias_w: 2.0 * x,
                saturate_w: f64::INFINITY,
            },
        }
    }

    /// Whether the plan injects nothing anywhere.
    pub fn is_clean(&self) -> bool {
        self.gpu_util.is_clean()
            && self.cpu_util.is_clean()
            && self.iteration.is_clean()
            && self.actuation.is_clean()
            && self.meter == MeterFaults::default()
    }
}

/// One channel's injection state: its RNG stream plus its knobs.
#[derive(Debug, Clone)]
struct ChannelState {
    faults: ChannelFaults,
    rng: Pcg32,
}

impl ChannelState {
    fn new(faults: ChannelFaults, seed: u64, stream: u64) -> Self {
        ChannelState {
            faults,
            rng: Pcg32::new(seed, stream),
        }
    }

    /// Draws the fate of one poll. Knobs at zero never touch the RNG.
    fn poll_fate(&mut self) -> Option<FaultKind> {
        let stale = self.faults.stale_prob;
        let drop = self.faults.drop_prob;
        if stale > 0.0 || drop > 0.0 {
            let u = self.rng.next_f64();
            if u < stale {
                return Some(FaultKind::Stale);
            }
            if u < stale + drop {
                return Some(FaultKind::Drop);
            }
        }
        None
    }

    /// Additive bounded-Gaussian noise for one value (0 if disabled).
    fn jitter(&mut self) -> f64 {
        let sigma = self.faults.jitter_sigma;
        if sigma > 0.0 {
            (self.rng.normal() * sigma).clamp(-3.0 * sigma, 3.0 * sigma)
        } else {
            0.0
        }
    }
}

/// A [`SensorSource`] that injects the plan's utilization and
/// iteration-timing faults over the clean sensors.
///
/// Fault precedence per poll: stale (previous reading re-served), then
/// drop (NaN fields — a failed poll), then jitter. The underlying [`Smi`]
/// is *always* polled first so its windowing state stays identical to a
/// clean run's.
#[derive(Debug, Clone)]
pub struct FaultySensor {
    inner: CleanSensors,
    gpu: ChannelState,
    cpu: ChannelState,
    iter: ChannelState,
    last_gpu: Option<SmiReading>,
    last_cpu: Option<CpuReading>,
    log: Vec<InjectionEvent>,
}

impl FaultySensor {
    /// Builds the injector for `plan` over fresh clean sensors.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultySensor {
            inner: CleanSensors::new(),
            gpu: ChannelState::new(plan.gpu_util, plan.seed, STREAM_GPU),
            cpu: ChannelState::new(plan.cpu_util, plan.seed, STREAM_CPU),
            iter: ChannelState::new(plan.iteration, plan.seed, STREAM_ITER),
            last_gpu: None,
            last_cpu: None,
            log: Vec::new(),
        }
    }

    fn log(&mut self, at: SimTime, channel: FaultChannel, kind: FaultKind) {
        self.log.push(InjectionEvent { at, channel, kind });
    }
}

impl SensorSource for FaultySensor {
    fn poll_gpu(&mut self, gpu: &GpuModel, now: SimTime) -> SmiReading {
        let truth = self.inner.poll_gpu(gpu, now);
        match self.gpu.poll_fate() {
            Some(FaultKind::Stale) if self.last_gpu.is_some() => {
                self.log(now, FaultChannel::GpuUtil, FaultKind::Stale);
                return self.last_gpu.expect("checked");
            }
            Some(FaultKind::Drop) => {
                self.log(now, FaultChannel::GpuUtil, FaultKind::Drop);
                return SmiReading {
                    u_core: f64::NAN,
                    u_mem: f64::NAN,
                    ..truth
                };
            }
            _ => {}
        }
        let (dc, dm) = (self.gpu.jitter(), self.gpu.jitter());
        let reading = SmiReading {
            u_core: truth.u_core + dc,
            u_mem: truth.u_mem + dm,
            ..truth
        };
        // lint:allow(float_eq) jitter() returns literal 0.0 when the fault path is off
        if dc != 0.0 || dm != 0.0 {
            self.log(now, FaultChannel::GpuUtil, FaultKind::Jitter(dc.abs().max(dm.abs())));
        }
        self.last_gpu = Some(reading);
        reading
    }

    fn poll_cpu(&mut self, cpu: &CpuModel, now: SimTime) -> CpuReading {
        let truth = self.inner.poll_cpu(cpu, now);
        match self.cpu.poll_fate() {
            Some(FaultKind::Stale) if self.last_cpu.is_some() => {
                self.log(now, FaultChannel::CpuUtil, FaultKind::Stale);
                return self.last_cpu.expect("checked");
            }
            Some(FaultKind::Drop) => {
                self.log(now, FaultChannel::CpuUtil, FaultKind::Drop);
                return CpuReading {
                    util: f64::NAN,
                    ..truth
                };
            }
            _ => {}
        }
        let du = self.cpu.jitter();
        let reading = CpuReading {
            util: truth.util + du,
            ..truth
        };
        // lint:allow(float_eq) jitter() returns literal 0.0 when the fault path is off
        if du != 0.0 {
            self.log(now, FaultChannel::CpuUtil, FaultKind::Jitter(du.abs()));
        }
        self.last_cpu = Some(reading);
        reading
    }

    fn observe_iteration(&mut self, tc_s: f64, tg_s: f64) -> (f64, f64) {
        // Relative jitter: timers mis-measure proportionally to the span.
        let (jc, jg) = (self.iter.jitter(), self.iter.jitter());
        // lint:allow(float_eq) jitter() returns literal 0.0 when the fault path is off
        if jc != 0.0 || jg != 0.0 {
            self.log(
                SimTime::ZERO,
                FaultChannel::Iteration,
                FaultKind::Jitter(jc.abs().max(jg.abs())),
            );
            ((tc_s * (1.0 + jc)).max(0.0), (tg_s * (1.0 + jg)).max(0.0))
        } else {
            (tc_s, tg_s)
        }
    }

    fn injection_log(&self) -> &[InjectionEvent] {
        &self.log
    }

    /// The clean sensors' window start: they are polled on every call,
    /// fault or not.
    fn window_start(&self) -> SimTime {
        self.inner.window_start()
    }
}

/// A deferred frequency command.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendingCmd {
    Gpu { core: usize, mem: usize },
    Cpu { level: usize },
}

/// A [`FreqActuator`] that injects the plan's actuation faults: commands
/// may be silently dropped, applied one level off, or deferred to the next
/// actuation call (whose own command is then decided independently).
#[derive(Debug, Clone)]
pub struct FaultyActuator {
    faults: ActuationFaults,
    rng: Pcg32,
    pending: Option<PendingCmd>,
    log: Vec<InjectionEvent>,
}

impl FaultyActuator {
    /// Builds the injector for `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultyActuator {
            faults: plan.actuation,
            rng: Pcg32::new(plan.seed, STREAM_ACT),
            pending: None,
            log: Vec::new(),
        }
    }

    /// Flushes a delayed command (it finally lands now).
    fn flush_pending(&mut self, platform: &mut Platform, at: SimTime) {
        if let Some(cmd) = self.pending.take() {
            match cmd {
                PendingCmd::Gpu { core, mem } => platform.set_gpu_levels(at, core, mem),
                PendingCmd::Cpu { level } => platform.set_cpu_level(at, level),
            }
        }
    }

    /// Draws the fate of one command. All-zero knobs never touch the RNG.
    fn command_fate(&mut self) -> Option<FaultKind> {
        if self.faults.is_clean() {
            return None;
        }
        let u = self.rng.next_f64();
        if u < self.faults.drop_prob {
            Some(FaultKind::Drop)
        } else if u < self.faults.drop_prob + self.faults.offset_prob {
            // Direction from the same stream: deterministic per command.
            let dir = if self.rng.next_u32() & 1 == 1 { 1 } else { -1 };
            Some(FaultKind::Offset(dir))
        } else if u < self.faults.drop_prob + self.faults.offset_prob + self.faults.delay_prob {
            Some(FaultKind::Delay)
        } else {
            None
        }
    }
}

/// Clamped one-level offset within `[0, count)`.
fn offset_level(level: usize, dir: i64, count: usize) -> usize {
    let shifted = level as i64 + dir;
    shifted.clamp(0, count as i64 - 1) as usize
}

impl FreqActuator for FaultyActuator {
    fn set_gpu_levels(&mut self, platform: &mut Platform, at: SimTime, core: usize, mem: usize) {
        self.flush_pending(platform, at);
        match self.command_fate() {
            Some(FaultKind::Drop) => {
                self.log.push(InjectionEvent {
                    at,
                    channel: FaultChannel::Actuation,
                    kind: FaultKind::Drop,
                });
            }
            Some(FaultKind::Offset(dir)) => {
                let n_core = platform.gpu().core().level_count();
                let n_mem = platform.gpu().mem().level_count();
                platform.set_gpu_levels(at, offset_level(core, dir, n_core), offset_level(mem, dir, n_mem));
                self.log.push(InjectionEvent {
                    at,
                    channel: FaultChannel::Actuation,
                    kind: FaultKind::Offset(dir),
                });
            }
            Some(FaultKind::Delay) => {
                self.pending = Some(PendingCmd::Gpu { core, mem });
                self.log.push(InjectionEvent {
                    at,
                    channel: FaultChannel::Actuation,
                    kind: FaultKind::Delay,
                });
            }
            _ => platform.set_gpu_levels(at, core, mem),
        }
    }

    fn set_cpu_level(&mut self, platform: &mut Platform, at: SimTime, level: usize) {
        self.flush_pending(platform, at);
        match self.command_fate() {
            Some(FaultKind::Drop) => {
                self.log.push(InjectionEvent {
                    at,
                    channel: FaultChannel::Actuation,
                    kind: FaultKind::Drop,
                });
            }
            Some(FaultKind::Offset(dir)) => {
                let count = platform.cpu().domain().level_count();
                platform.set_cpu_level(at, offset_level(level, dir, count));
                self.log.push(InjectionEvent {
                    at,
                    channel: FaultChannel::Actuation,
                    kind: FaultKind::Offset(dir),
                });
            }
            Some(FaultKind::Delay) => {
                self.pending = Some(PendingCmd::Cpu { level });
                self.log.push(InjectionEvent {
                    at,
                    channel: FaultChannel::Actuation,
                    kind: FaultKind::Delay,
                });
            }
            _ => platform.set_cpu_level(at, level),
        }
    }

    fn injection_log(&self) -> &[InjectionEvent] {
        &self.log
    }
}

// ---------------------------------------------------------------------
// Chaos schedule: node-level failure events
// ---------------------------------------------------------------------

/// Stream ids for the chaos channels, continuing the fault streams above.
const STREAM_CHAOS_CRASH: u64 = 0xFA05;
const STREAM_CHAOS_THERMAL: u64 = 0xFA06;
const STREAM_CHAOS_BLACKOUT: u64 = 0xFA07;
/// Correlated-domain channels: whole racks and zones fail together.
const STREAM_CHAOS_RACK_LOSS: u64 = 0xFA08;
const STREAM_CHAOS_ZONE_THERMAL: u64 = 0xFA09;
const STREAM_CHAOS_PARTITION: u64 = 0xFA0A;

/// What happens to a node at a chaos event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// The node dies: learner state and the in-flight job are lost, the
    /// node draws no budget, and it stays dark for `outage_s` before its
    /// restart begins.
    Crash {
        /// Seconds between the crash and the start of the restart.
        outage_s: f64,
    },
    /// A thermal emergency: the node survives but must run at its floor
    /// frequency pair for `duration_s` (its power demand collapses to the
    /// floor and the budget is re-apportioned around it).
    ThermalEmergency {
        /// Seconds the node is pinned to its floor pair.
        duration_s: f64,
    },
    /// A telemetry blackout: every sensor poll in the window returns NaN
    /// fields, exercising the controller's last-known-good hold.
    TelemetryBlackout {
        /// Seconds the node's sensors read nothing.
        duration_s: f64,
    },
}

impl ChaosKind {
    /// Stable ordering rank so same-instant events sort deterministically.
    fn rank(&self) -> u8 {
        match self {
            ChaosKind::Crash { .. } => 0,
            ChaosKind::ThermalEmergency { .. } => 1,
            ChaosKind::TelemetryBlackout { .. } => 2,
        }
    }
}

/// One scheduled failure: when, which node, what kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Virtual time the event fires.
    pub at: SimTime,
    /// Index of the affected node.
    pub node: usize,
    /// What happens.
    pub kind: ChaosKind,
}

/// What happens to a whole failure *domain* (a rack or zone of a
/// hierarchical fleet) at a correlated chaos event. The per-node
/// channels above stay independent; these model the shared-blast-radius
/// failures a flat fleet cannot express.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainChaosKind {
    /// A rack loses power: every node in it crashes at once and stays
    /// dark for `outage_s` before its restart begins.
    RackPowerLoss {
        /// Seconds between the loss and the start of the restarts.
        outage_s: f64,
    },
    /// A zone-wide thermal emergency (shared cooling failure): every
    /// node in the zone is pinned to its floor pair for `duration_s`.
    ZoneThermal {
        /// Seconds the zone's nodes are pinned to their floor pairs.
        duration_s: f64,
    },
    /// A network partition blacks out a zone's *telemetry* for
    /// `duration_s` while its nodes keep running — sensors read NaN and
    /// the dispatch layer must route around the unobservable zone.
    ZonePartition {
        /// Seconds the zone's sensors and dispatch path are unreachable.
        duration_s: f64,
    },
}

impl DomainChaosKind {
    /// Stable ordering rank so same-instant events sort deterministically.
    fn rank(&self) -> u8 {
        match self {
            DomainChaosKind::RackPowerLoss { .. } => 0,
            DomainChaosKind::ZoneThermal { .. } => 1,
            DomainChaosKind::ZonePartition { .. } => 2,
        }
    }
}

/// One scheduled correlated failure: when, which domain (rack id for
/// rack events, zone id for zone events), what kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainChaosEvent {
    /// Virtual time the event fires.
    pub at: SimTime,
    /// Rack id ([`DomainChaosKind::RackPowerLoss`]) or zone id
    /// (the zone-wide kinds).
    pub domain: usize,
    /// What happens.
    pub kind: DomainChaosKind,
}

/// Seeded configuration of node-level failures for one fleet run.
///
/// Each channel is a per-node Poisson process: event gaps are drawn as
/// `-ln(1-u)/rate` from a dedicated [`Pcg32`] stream derived from
/// `seed + node`, so (a) the schedule for node *i* never depends on how
/// many nodes exist, and (b) a channel whose rate is zero draws nothing —
/// a quiet plan perturbs no stream anywhere.
///
/// The correlated channels ([`ChaosPlan::schedule_domains`]) layer rack-
/// and zone-level failures on top with the same construction: per-domain
/// sub-seeds and dedicated streams, so enabling them never perturbs the
/// per-node schedules (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Root seed; per-node sub-seeds derive from it.
    pub seed: u64,
    /// Mean crashes per node-second (0 disables crashes).
    pub crash_rate_per_s: f64,
    /// Uniform range of the dark period after a crash, seconds.
    pub outage_s: (f64, f64),
    /// Mean thermal emergencies per node-second (0 disables them).
    pub thermal_rate_per_s: f64,
    /// Uniform range of thermal-emergency duration, seconds.
    pub thermal_s: (f64, f64),
    /// Mean telemetry blackouts per node-second (0 disables them).
    pub blackout_rate_per_s: f64,
    /// Uniform range of blackout duration, seconds.
    pub blackout_s: (f64, f64),
    /// Mean whole-rack power losses per rack-second (0 disables them).
    pub rack_loss_rate_per_s: f64,
    /// Uniform range of the rack-wide dark period, seconds.
    pub rack_outage_s: (f64, f64),
    /// Mean zone-wide thermal emergencies per zone-second (0 disables).
    pub zone_thermal_rate_per_s: f64,
    /// Uniform range of zone-thermal duration, seconds.
    pub zone_thermal_s: (f64, f64),
    /// Mean zone network partitions per zone-second (0 disables them).
    pub partition_rate_per_s: f64,
    /// Uniform range of partition duration, seconds.
    pub partition_s: (f64, f64),
}

impl ChaosPlan {
    /// A plan that schedules nothing.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            crash_rate_per_s: 0.0,
            outage_s: (2.0, 6.0),
            thermal_rate_per_s: 0.0,
            thermal_s: (3.0, 8.0),
            blackout_rate_per_s: 0.0,
            blackout_s: (2.0, 5.0),
            rack_loss_rate_per_s: 0.0,
            rack_outage_s: (3.0, 8.0),
            zone_thermal_rate_per_s: 0.0,
            zone_thermal_s: (4.0, 10.0),
            partition_rate_per_s: 0.0,
            partition_s: (3.0, 9.0),
        }
    }

    /// Crashes only, at `rate` per node-second with `outage_s` dark time.
    pub fn crashes_only(seed: u64, rate: f64, outage_s: (f64, f64)) -> Self {
        ChaosPlan {
            crash_rate_per_s: rate,
            outage_s,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// Adds thermal emergencies at `rate` per node-second.
    pub fn with_thermal(mut self, rate: f64, duration_s: (f64, f64)) -> Self {
        self.thermal_rate_per_s = rate;
        self.thermal_s = duration_s;
        self
    }

    /// Adds telemetry blackouts at `rate` per node-second.
    pub fn with_blackouts(mut self, rate: f64, duration_s: (f64, f64)) -> Self {
        self.blackout_rate_per_s = rate;
        self.blackout_s = duration_s;
        self
    }

    /// Adds whole-rack power losses at `rate` per rack-second.
    pub fn with_rack_loss(mut self, rate: f64, outage_s: (f64, f64)) -> Self {
        self.rack_loss_rate_per_s = rate;
        self.rack_outage_s = outage_s;
        self
    }

    /// Adds zone-wide thermal emergencies at `rate` per zone-second.
    pub fn with_zone_thermal(mut self, rate: f64, duration_s: (f64, f64)) -> Self {
        self.zone_thermal_rate_per_s = rate;
        self.zone_thermal_s = duration_s;
        self
    }

    /// Adds zone network partitions at `rate` per zone-second.
    pub fn with_partitions(mut self, rate: f64, duration_s: (f64, f64)) -> Self {
        self.partition_rate_per_s = rate;
        self.partition_s = duration_s;
        self
    }

    /// Non-panicking parameter check, naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        let rate = |name: &str, v: f64| -> Result<(), String> {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
            Ok(())
        };
        let range = |name: &str, (lo, hi): (f64, f64)| -> Result<(), String> {
            if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi < lo {
                return Err(format!("{name} must be a positive ordered range, got ({lo}, {hi})"));
            }
            Ok(())
        };
        rate("crash_rate_per_s", self.crash_rate_per_s)?;
        rate("thermal_rate_per_s", self.thermal_rate_per_s)?;
        rate("blackout_rate_per_s", self.blackout_rate_per_s)?;
        rate("rack_loss_rate_per_s", self.rack_loss_rate_per_s)?;
        rate("zone_thermal_rate_per_s", self.zone_thermal_rate_per_s)?;
        rate("partition_rate_per_s", self.partition_rate_per_s)?;
        range("outage_s", self.outage_s)?;
        range("thermal_s", self.thermal_s)?;
        range("blackout_s", self.blackout_s)?;
        range("rack_outage_s", self.rack_outage_s)?;
        range("zone_thermal_s", self.zone_thermal_s)?;
        range("partition_s", self.partition_s)?;
        Ok(())
    }

    /// Materializes the full event schedule for `n_nodes` nodes over
    /// `[0, horizon_s)`, sorted by `(time, node, kind)`. Deterministic:
    /// same plan, node count, and horizon ⇒ identical schedule.
    pub fn schedule(&self, n_nodes: usize, horizon_s: f64) -> Vec<ChaosEvent> {
        let channels: [Channel<ChaosKind>; 3] = [
            (STREAM_CHAOS_CRASH, self.crash_rate_per_s, self.outage_s, |d| {
                ChaosKind::Crash { outage_s: d }
            }),
            (STREAM_CHAOS_THERMAL, self.thermal_rate_per_s, self.thermal_s, |d| {
                ChaosKind::ThermalEmergency { duration_s: d }
            }),
            (STREAM_CHAOS_BLACKOUT, self.blackout_rate_per_s, self.blackout_s, |d| {
                ChaosKind::TelemetryBlackout { duration_s: d }
            }),
        ];
        let mut events = Vec::new();
        for node in 0..n_nodes {
            let node_seed = SplitMix64::new(self.seed.wrapping_add(node as u64)).next_u64();
            for (stream, rate, duration_s, kind) in channels {
                poisson_channel(Pcg32::new(node_seed, stream), rate, duration_s, horizon_s, |at, d| {
                    events.push(ChaosEvent {
                        at,
                        node,
                        kind: kind(d),
                    });
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.node, e.kind.rank()));
        events
    }

    /// Materializes the correlated-domain schedule for `n_racks` racks
    /// and `n_zones` zones over `[0, horizon_s)`, sorted by
    /// `(time, kind, domain)`. Per-domain sub-seeds and dedicated
    /// streams mirror the per-node construction, so (a) a rack or zone's
    /// schedule never depends on how many domains exist, and (b) quiet
    /// correlated channels draw nothing — the per-node schedules from
    /// [`ChaosPlan::schedule`] are untouched either way.
    pub fn schedule_domains(&self, n_racks: usize, n_zones: usize, horizon_s: f64) -> Vec<DomainChaosEvent> {
        let racks: [Channel<DomainChaosKind>; 1] = [(
            STREAM_CHAOS_RACK_LOSS,
            self.rack_loss_rate_per_s,
            self.rack_outage_s,
            |d| DomainChaosKind::RackPowerLoss { outage_s: d },
        )];
        let zones: [Channel<DomainChaosKind>; 2] = [
            (
                STREAM_CHAOS_ZONE_THERMAL,
                self.zone_thermal_rate_per_s,
                self.zone_thermal_s,
                |d| DomainChaosKind::ZoneThermal { duration_s: d },
            ),
            (
                STREAM_CHAOS_PARTITION,
                self.partition_rate_per_s,
                self.partition_s,
                |d| DomainChaosKind::ZonePartition { duration_s: d },
            ),
        ];
        let mut events = Vec::new();
        for (n_domains, channels) in [(n_racks, &racks[..]), (n_zones, &zones[..])] {
            for domain in 0..n_domains {
                let domain_seed = SplitMix64::new(self.seed.wrapping_add(domain as u64)).next_u64();
                for &(stream, rate, duration_s, kind) in channels {
                    poisson_channel(Pcg32::new(domain_seed, stream), rate, duration_s, horizon_s, |at, d| {
                        events.push(DomainChaosEvent {
                            at,
                            domain,
                            kind: kind(d),
                        });
                    });
                }
            }
        }
        events.sort_by_key(|e| (e.at, e.kind.rank(), e.domain));
        events
    }
}

/// One chaos channel: its stream selector, its rate per second, its
/// duration range, and the event kind a drawn duration makes.
type Channel<K> = (u64, f64, (f64, f64), fn(f64) -> K);

/// Draws one chaos channel: Poisson arrivals at `rate` per second over
/// `[0, horizon_s)` from `rng`, each followed by its uniform duration
/// from `duration_s`, handed to `push` in time order. A channel with a
/// zero rate draws nothing.
fn poisson_channel(
    mut rng: Pcg32,
    rate: f64,
    duration_s: (f64, f64),
    horizon_s: f64,
    mut push: impl FnMut(SimTime, f64),
) {
    if rate <= 0.0 {
        return;
    }
    let mut t = 0.0;
    loop {
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / rate;
        if t >= horizon_s {
            return;
        }
        push(SimTime::from_secs_f64(t), rng.uniform(duration_s.0, duration_s.1));
    }
}

/// A [`SensorSource`] decorator that blanks every poll inside scheduled
/// blackout windows: both readings come back with NaN fields, which the
/// hardened controller's NaN rejection turns into a last-known-good hold.
///
/// The inner source is *always* polled first so its windowing/fault state
/// stays identical to an un-blanked run. `injection_log` reports only the
/// blackout events; the inner source's own log is unreachable through the
/// wrapper (the fleet records blackout windows at schedule level instead).
pub struct BlackoutSensors {
    inner: Box<dyn SensorSource>,
    /// Half-open `[start, end)` windows, assumed non-overlapping.
    windows: Vec<(SimTime, SimTime)>,
    log: Vec<InjectionEvent>,
}

impl BlackoutSensors {
    /// Wraps `inner`, blanking polls inside `windows`.
    pub fn new(inner: Box<dyn SensorSource>, windows: Vec<(SimTime, SimTime)>) -> Self {
        BlackoutSensors {
            inner,
            windows,
            log: Vec::new(),
        }
    }

    fn dark_at(&self, now: SimTime) -> bool {
        self.windows.iter().any(|&(start, end)| start <= now && now < end)
    }
}

impl SensorSource for BlackoutSensors {
    fn poll_gpu(&mut self, gpu: &GpuModel, now: SimTime) -> SmiReading {
        let truth = self.inner.poll_gpu(gpu, now);
        if self.dark_at(now) {
            self.log.push(InjectionEvent {
                at: now,
                channel: FaultChannel::GpuUtil,
                kind: FaultKind::Drop,
            });
            return SmiReading {
                u_core: f64::NAN,
                u_mem: f64::NAN,
                ..truth
            };
        }
        truth
    }

    fn poll_cpu(&mut self, cpu: &CpuModel, now: SimTime) -> CpuReading {
        let truth = self.inner.poll_cpu(cpu, now);
        if self.dark_at(now) {
            self.log.push(InjectionEvent {
                at: now,
                channel: FaultChannel::CpuUtil,
                kind: FaultKind::Drop,
            });
            return CpuReading {
                util: f64::NAN,
                ..truth
            };
        }
        truth
    }

    fn observe_iteration(&mut self, tc_s: f64, tg_s: f64) -> (f64, f64) {
        self.inner.observe_iteration(tc_s, tg_s)
    }

    fn injection_log(&self) -> &[InjectionEvent] {
        &self.log
    }

    /// The inner source's window start: it is polled on every call, dark
    /// or not.
    fn window_start(&self) -> SimTime {
        self.inner.window_start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{geforce_8800_gtx, phenom_ii_x2};

    fn gpu_at_half() -> GpuModel {
        let mut gpu = GpuModel::new(geforce_8800_gtx(), 5, 5);
        gpu.set_activity(SimTime::ZERO, 0.5, 0.5);
        gpu
    }

    #[test]
    fn clean_plan_is_transparent_and_draws_nothing() {
        let gpu = gpu_at_half();
        let mut clean = CleanSensors::new();
        let mut faulty = FaultySensor::new(&FaultPlan::clean(7));
        for t in 1..20 {
            let now = SimTime::from_secs(t);
            assert_eq!(clean.poll_gpu(&gpu, now), faulty.poll_gpu(&gpu, now));
        }
        assert!(faulty.injection_log().is_empty());
    }

    #[test]
    fn clean_observe_iteration_passes_times_through() {
        let mut clean = CleanSensors::new();
        assert_eq!(clean.observe_iteration(1.25, 2.5), (1.25, 2.5));
        let mut quiet = FaultySensor::new(&FaultPlan::clean(7));
        assert_eq!(quiet.observe_iteration(1.25, 2.5), (1.25, 2.5));
        assert!(quiet.injection_log().is_empty());
    }

    #[test]
    fn clean_actuator_is_transparent() {
        let mut p1 = Platform::default_testbed();
        let mut p2 = Platform::default_testbed();
        let mut direct = DirectActuator;
        let mut faulty = FaultyActuator::new(&FaultPlan::clean(7));
        for (t, (c, m)) in [(1, (3, 2)), (2, (5, 5)), (3, (0, 1))] {
            let now = SimTime::from_secs(t);
            direct.set_gpu_levels(&mut p1, now, c, m);
            faulty.set_gpu_levels(&mut p2, now, c, m);
            assert_eq!(p1.gpu().core().current_level(), p2.gpu().core().current_level());
            assert_eq!(p1.gpu().mem().current_level(), p2.gpu().mem().current_level());
        }
        assert!(faulty.injection_log().is_empty());
    }

    #[test]
    fn same_seed_injects_the_same_fault_sequence() {
        let gpu = gpu_at_half();
        let plan = FaultPlan::with_intensity(42, 1.0);
        let mut a = FaultySensor::new(&plan);
        let mut b = FaultySensor::new(&plan);
        for t in 1..200 {
            let now = SimTime::from_secs(t);
            let (ra, rb) = (a.poll_gpu(&gpu, now), b.poll_gpu(&gpu, now));
            // NaN != NaN, so dropped polls compare by both-NaN.
            assert!(
                (ra.u_core.is_nan() && rb.u_core.is_nan()) || ra == rb,
                "t={t}: {ra:?} vs {rb:?}"
            );
        }
        assert_eq!(a.injection_log(), b.injection_log());
        assert!(!a.injection_log().is_empty(), "intensity 1.0 must inject");
    }

    #[test]
    fn channels_use_independent_streams() {
        // Disabling the CPU channel must not change the GPU channel's
        // fault sequence.
        let gpu = gpu_at_half();
        let cpu = CpuModel::new(phenom_ii_x2(), 3);
        let full = FaultPlan::with_intensity(9, 1.0);
        let mut gpu_only = full;
        gpu_only.cpu_util = ChannelFaults::default();
        let mut a = FaultySensor::new(&full);
        let mut b = FaultySensor::new(&gpu_only);
        for t in 1..100 {
            let now = SimTime::from_secs(t);
            let ra = a.poll_gpu(&gpu, now);
            let _ = a.poll_cpu(&cpu, now);
            let rb = b.poll_gpu(&gpu, now);
            let _ = b.poll_cpu(&cpu, now);
            assert!(
                (ra.u_core.is_nan() && rb.u_core.is_nan()) || ra == rb,
                "t={t}: {ra:?} vs {rb:?}"
            );
        }
    }

    #[test]
    fn drop_yields_nan_and_stale_repeats() {
        let gpu = gpu_at_half();
        let plan = FaultPlan {
            gpu_util: ChannelFaults {
                jitter_sigma: 0.0,
                stale_prob: 0.5,
                drop_prob: 0.5,
            },
            ..FaultPlan::clean(3)
        };
        let mut s = FaultySensor::new(&plan);
        let mut saw_nan = false;
        let mut saw_stale = false;
        let mut last = None;
        for t in 1..100 {
            let r = s.poll_gpu(&gpu, SimTime::from_secs(t));
            if r.u_core.is_nan() {
                saw_nan = true;
            } else if last == Some(r) {
                saw_stale = true;
            }
            if !r.u_core.is_nan() {
                last = Some(r);
            }
        }
        assert!(saw_nan, "drop faults must surface as NaN polls");
        assert!(saw_stale, "stale faults must repeat the last reading");
    }

    #[test]
    fn dropped_commands_leave_levels_unchanged() {
        let plan = FaultPlan {
            actuation: ActuationFaults {
                drop_prob: 1.0,
                offset_prob: 0.0,
                delay_prob: 0.0,
            },
            ..FaultPlan::clean(5)
        };
        let mut p = Platform::default_testbed();
        let before = p.gpu().core().current_level();
        let mut a = FaultyActuator::new(&plan);
        a.set_gpu_levels(&mut p, SimTime::from_secs(1), 5, 5);
        assert_eq!(p.gpu().core().current_level(), before, "command must be dropped");
        assert_eq!(a.injection_log().len(), 1);
        assert_eq!(a.injection_log()[0].kind, FaultKind::Drop);
    }

    #[test]
    fn delayed_commands_land_on_the_next_call() {
        let plan = FaultPlan {
            actuation: ActuationFaults {
                drop_prob: 0.0,
                offset_prob: 0.0,
                delay_prob: 1.0,
            },
            ..FaultPlan::clean(5)
        };
        let mut p = Platform::default_testbed();
        let mut a = FaultyActuator::new(&plan);
        a.set_gpu_levels(&mut p, SimTime::from_secs(1), 4, 4);
        assert_ne!(p.gpu().core().current_level(), 4, "first command deferred");
        // Second call flushes the pending command (and defers its own).
        a.set_gpu_levels(&mut p, SimTime::from_secs(2), 2, 2);
        assert_eq!(p.gpu().core().current_level(), 4, "deferred command landed");
    }

    #[test]
    fn offsets_stay_within_the_level_table() {
        let plan = FaultPlan {
            actuation: ActuationFaults {
                drop_prob: 0.0,
                offset_prob: 1.0,
                delay_prob: 0.0,
            },
            ..FaultPlan::clean(11)
        };
        let mut p = Platform::default_testbed();
        let mut a = FaultyActuator::new(&plan);
        for t in 1..50 {
            a.set_gpu_levels(&mut p, SimTime::from_secs(t), 0, 5);
            assert!(p.gpu().core().current_level() <= 1);
            assert!(p.gpu().mem().current_level() >= 4);
            a.set_cpu_level(&mut p, SimTime::from_secs(t), 3);
            assert!(p.cpu().domain().current_level() >= 2);
        }
    }

    #[test]
    fn meter_faults_distort_observations_only() {
        let m = MeterFaults {
            gain: 1.1,
            bias_w: 5.0,
            saturate_w: 100.0,
        };
        assert!((m.observed_w(50.0) - 60.0).abs() < 1e-12);
        assert_eq!(m.observed_w(200.0), 100.0, "saturates at the ceiling");
        assert_eq!(m.observed_w(10.0), 16.0);
        assert_eq!(MeterFaults::default().observed_w(42.0), 42.0);
    }

    #[test]
    fn intensity_zero_is_clean_and_one_is_not() {
        assert!(FaultPlan::with_intensity(1, 0.0).is_clean());
        assert!(!FaultPlan::with_intensity(1, 1.0).is_clean());
        assert!(FaultPlan::clean(1).is_clean());
    }

    #[test]
    fn quiet_chaos_plan_schedules_nothing() {
        let plan = ChaosPlan::quiet(9);
        assert!(plan.try_validate().is_ok());
        assert!(plan.schedule(8, 1000.0).is_empty());
    }

    #[test]
    fn chaos_schedule_is_deterministic_and_sorted() {
        let plan = ChaosPlan::crashes_only(42, 0.05, (2.0, 6.0))
            .with_thermal(0.02, (3.0, 8.0))
            .with_blackouts(0.03, (2.0, 5.0));
        let a = plan.schedule(4, 300.0);
        let b = plan.schedule(4, 300.0);
        assert_eq!(a, b, "same plan ⇒ identical schedule");
        assert!(!a.is_empty(), "rates this high must produce events");
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "sorted by time");
        }
        for e in &a {
            assert!(e.node < 4);
            assert!(e.at < SimTime::from_secs(300));
            match e.kind {
                ChaosKind::Crash { outage_s: d }
                | ChaosKind::ThermalEmergency { duration_s: d }
                | ChaosKind::TelemetryBlackout { duration_s: d } => {
                    assert!(d > 0.0 && d.is_finite());
                }
            }
        }
    }

    #[test]
    fn chaos_schedule_per_node_is_independent_of_fleet_size() {
        // Node 2's events must not change when the fleet grows.
        let plan = ChaosPlan::crashes_only(7, 0.04, (2.0, 6.0));
        let small: Vec<_> = plan.schedule(3, 200.0).into_iter().filter(|e| e.node == 2).collect();
        let large: Vec<_> = plan.schedule(8, 200.0).into_iter().filter(|e| e.node == 2).collect();
        assert_eq!(small, large);
    }

    #[test]
    fn quiet_correlated_channels_schedule_nothing() {
        let plan = ChaosPlan::crashes_only(11, 0.05, (2.0, 6.0));
        assert!(plan.schedule_domains(4, 2, 1000.0).is_empty());
        // Enabling correlated channels never perturbs the per-node
        // schedule: the domain channels draw from their own streams.
        let layered = plan
            .with_rack_loss(0.01, (3.0, 8.0))
            .with_zone_thermal(0.01, (4.0, 10.0));
        assert_eq!(plan.schedule(4, 300.0), layered.schedule(4, 300.0));
    }

    #[test]
    fn domain_schedule_is_deterministic_sorted_and_size_independent() {
        let plan = ChaosPlan::quiet(42)
            .with_rack_loss(0.02, (3.0, 8.0))
            .with_zone_thermal(0.015, (4.0, 10.0))
            .with_partitions(0.015, (3.0, 9.0));
        let a = plan.schedule_domains(4, 2, 400.0);
        assert_eq!(a, plan.schedule_domains(4, 2, 400.0), "same plan ⇒ identical schedule");
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, DomainChaosKind::RackPowerLoss { .. })));
        assert!(a.iter().any(|e| matches!(e.kind, DomainChaosKind::ZoneThermal { .. })));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, DomainChaosKind::ZonePartition { .. })));
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "sorted by time");
        }
        // Rack 1's events must not change when the tree grows.
        let rack1 = |events: Vec<DomainChaosEvent>| -> Vec<DomainChaosEvent> {
            events
                .into_iter()
                .filter(|e| e.domain == 1 && matches!(e.kind, DomainChaosKind::RackPowerLoss { .. }))
                .collect()
        };
        assert_eq!(
            rack1(plan.schedule_domains(2, 1, 400.0)),
            rack1(plan.schedule_domains(8, 4, 400.0))
        );
    }

    #[test]
    fn chaos_validation_names_the_offending_field() {
        let mut plan = ChaosPlan::quiet(1);
        plan.crash_rate_per_s = -1.0;
        assert!(plan.try_validate().unwrap_err().contains("crash_rate_per_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.outage_s = (5.0, 2.0);
        assert!(plan.try_validate().unwrap_err().contains("outage_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.blackout_s = (0.0, 2.0);
        assert!(plan.try_validate().unwrap_err().contains("blackout_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.thermal_rate_per_s = f64::NAN;
        assert!(plan.try_validate().unwrap_err().contains("thermal_rate_per_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.rack_loss_rate_per_s = -0.5;
        assert!(plan.try_validate().unwrap_err().contains("rack_loss_rate_per_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.rack_outage_s = (4.0, 1.0);
        assert!(plan.try_validate().unwrap_err().contains("rack_outage_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.partition_s = (0.0, 3.0);
        assert!(plan.try_validate().unwrap_err().contains("partition_s"));
        let mut plan = ChaosPlan::quiet(1);
        plan.zone_thermal_rate_per_s = f64::INFINITY;
        assert!(plan.try_validate().unwrap_err().contains("zone_thermal_rate_per_s"));
    }

    #[test]
    fn blackout_sensors_blank_polls_inside_the_window_only() {
        let gpu = gpu_at_half();
        let cpu = CpuModel::new(phenom_ii_x2(), 0);
        let windows = vec![(SimTime::from_secs(5), SimTime::from_secs(8))];
        let mut dark = BlackoutSensors::new(Box::new(CleanSensors::new()), windows);
        let mut clean = CleanSensors::new();
        for t in 1..12 {
            let now = SimTime::from_secs(t);
            let d = dark.poll_gpu(&gpu, now);
            let c = clean.poll_gpu(&gpu, now);
            let dc = dark.poll_cpu(&cpu, now);
            if (5..8).contains(&t) {
                assert!(d.u_core.is_nan() && d.u_mem.is_nan(), "t={t} must be dark");
                assert!(dc.util.is_nan());
            } else {
                assert_eq!(d, c, "t={t} must match the clean poll");
                assert!(dc.util.is_finite());
            }
        }
        // 3 dark seconds × 2 channels.
        assert_eq!(dark.injection_log().len(), 6);
        assert!(dark.injection_log().iter().all(|e| e.kind == FaultKind::Drop));
    }

    /// `window_start` is the earliest cursor a later poll reads from: t = 0
    /// on fresh sensors, the earlier of the GPU and CPU cursors after, and
    /// moved only by polls. Stale and dropped polls, and polls inside a
    /// dark window, poll the clean sensors all the same, so a faulty and a
    /// blacked-out source report a clean twin's start at every step.
    /// A source that does not report one claims t = 0 forever.
    #[test]
    fn window_start_is_the_earliest_cursor_through_faults_and_dark_windows() {
        let gpu = gpu_at_half();
        let cpu = CpuModel::new(phenom_ii_x2(), 3);
        let lossy = ChannelFaults {
            jitter_sigma: 0.0,
            stale_prob: 0.4,
            drop_prob: 0.4,
        };
        let plan = FaultPlan {
            gpu_util: lossy,
            cpu_util: lossy,
            ..FaultPlan::clean(3)
        };
        let dark = vec![(SimTime::from_secs(4), SimTime::from_secs(9))];
        let mut clean = CleanSensors::new();
        let mut faulty = FaultySensor::new(&plan);
        let mut blacked = BlackoutSensors::new(Box::new(CleanSensors::new()), dark);
        let starts = |c: &CleanSensors, f: &FaultySensor, b: &BlackoutSensors| {
            let start = c.window_start();
            assert_eq!((f.window_start(), b.window_start()), (start, start));
            start
        };
        assert_eq!(starts(&clean, &faulty, &blacked), SimTime::ZERO);
        let sources: [&mut dyn SensorSource; 3] = [&mut clean, &mut faulty, &mut blacked];
        for s in sources {
            // The GPU cursor runs ahead; the CPU one holds the start back.
            s.poll_gpu(&gpu, SimTime::from_secs(2));
            assert_eq!(s.window_start(), SimTime::ZERO);
            s.poll_cpu(&cpu, SimTime::from_secs(1));
            assert_eq!(s.window_start(), SimTime::from_secs(1));
            assert_eq!(s.observe_iteration(1.0, 2.0), (1.0, 2.0), "no iteration faults planned");
            assert_eq!(s.window_start(), SimTime::from_secs(1), "only polls move it");
        }
        for t in 2..12 {
            let now = SimTime::from_secs(t);
            let sources: [&mut dyn SensorSource; 3] = [&mut clean, &mut faulty, &mut blacked];
            for s in sources {
                s.poll_cpu(&cpu, now);
                s.poll_gpu(&gpu, now + greengpu_sim::SimDuration::from_millis(500));
            }
            assert_eq!(starts(&clean, &faulty, &blacked), now, "at {now}");
        }
        assert!(faulty.injection_log().len() > 4, "stale and dropped polls fired");
        assert_eq!(blacked.injection_log().len(), 10, "5 dark seconds × 2 channels");

        struct Fixed;
        impl SensorSource for Fixed {
            fn poll_gpu(&mut self, gpu: &GpuModel, _now: SimTime) -> SmiReading {
                SmiReading {
                    u_core: 0.5,
                    u_mem: 0.5,
                    core_mhz: gpu.core().current_mhz(),
                    mem_mhz: gpu.mem().current_mhz(),
                }
            }
            fn poll_cpu(&mut self, cpu: &CpuModel, _now: SimTime) -> CpuReading {
                CpuReading {
                    util: 0.5,
                    mhz: cpu.domain().current_mhz(),
                }
            }
        }
        let mut fixed = Fixed;
        fixed.poll_gpu(&gpu, SimTime::from_secs(5));
        fixed.poll_cpu(&cpu, SimTime::from_secs(5));
        assert_eq!(fixed.window_start(), SimTime::ZERO);
    }
}
