//! The fleet execution engines: one event spine, two schedules.
//!
//! [`crate::run_fleet`] builds the nodes and the arrival and chaos
//! schedules, and a `Fleet` that owns the run's state (scheduler,
//! breakers, retry queue, dispatcher, hierarchy) and its outputs, and
//! hands it to `drive`, which runs the spine loop `Fleet::run` to the
//! horizon. The loop owns
//! every fleet-level step exactly once — arrivals, chaos and domain
//! events, breaker clocks, caps, the crash audit, dispatch, checkpoints
//! and telemetry rows. A private per-engine *schedule* decides only which
//! nodes each per-node batch touches (advance, lifecycle, demands, control
//! ticks). [`FleetConfig::engine`] picks the schedule:
//!
//! * [`EngineKind::Serial`] — the reference: every node advances at every
//!   spine event, every live node takes a full control tick every
//!   interval, and the flat apportionment reruns every interval. Simple,
//!   obviously correct, `O(nodes)` work per event.
//! * [`EngineKind::EventDriven`] — idle nodes cost (nearly) nothing: job
//!   service advances over a **busy list** instead of the whole fleet, in
//!   one pass over the windows since the last event that may touch a
//!   node, and idle healthy nodes whose controller state is provably a
//!   fixed point are **parked** ([`crate::Node::control_tick_parkable`])
//!   so their control ticks are skipped while their cap holds. Dead
//!   nodes are swept as Serial sweeps them.
//!
//! Both schedules run on the calling thread: fanning the control ticks
//! out over threads did not pay for itself (DESIGN.md §12).
//!
//! **Equivalence contract.** Both engines produce byte-identical
//! telemetry (trace CSV, [`crate::FleetReport`] counters,
//! [`crate::CrashRecord`]s) for the same config and seed — pinned by
//! `tests/engine_equivalence.rs`. The event-driven optimizations only
//! skip work that is provably an identity:
//!
//! * an idle node's [`crate::Node::advance`] returns without touching
//!   any state, so advancing only the busy list is exact;
//! * busy nodes serve Serial's windows, split at *every* spine event
//!   (job progress accumulates per window, and `progress += dt / full_s`
//!   is not associative over window splits), but **lazily**: an arrival
//!   only enqueues, and clocks and jobs change only at other events, so
//!   an arrival just records a window boundary. At the next other event,
//!   and at the horizon, each busy node replays the pending windows in
//!   one pass, and completions commit by window, then node id: Serial's
//!   order;
//! * a node parked under *exactly* the cap it is being handed skips the
//!   whole control tick (**deep park**); handed any other cap it
//!   un-parks and takes a full tick. The skip is exact: an idle node's
//!   utilization traces are constant zero, so the sense the skip drops
//!   would read bitwise `0.0` over any window, and a learner parked at a
//!   fixed point only counts the interval, which the node's next credit
//!   hands it (below). The sensors' poll cursor is caught up to the last
//!   control interval the node saw (its latest lifecycle tick, or the
//!   latest tick its credit hands it) while the traces are still flat,
//!   before a job ([`crate::Node::dispatch`]) or a throttle window
//!   ([`crate::Node::thermal_emergency`], inside which a job may be
//!   dispatched) can move them;
//! * an idle node whose WMA learner has settled **coasts**: its lowest
//!   pair weighs exactly 1.0, which every later idle step keeps as the
//!   table's first maximum (every row of the idle orbit qualifies, and a
//!   table off it once that pair leads again). Its control ticks under
//!   the cap it settled under only count themselves and return 0.0, and
//!   its demand is its settled pair's throughout. Every other touch first
//!   **syncs** it — a new cap, dispatch, a checkpoint, a thermal
//!   emergency, a crash: the learner takes the counted steps at once
//!   (along the orbit, or Eq. 4 up to its bit-exact fixed point; the
//!   interval counter and the cap-mask count count every one) and the
//!   sensors catch up to the last counted tick. On a closed orbit it parks on exactly the tick a full
//!   tick would have parked it (see
//!   [`crate::Node::control_tick_parkable`]); on an orbit cut off before
//!   its fixed point, or off the orbit, it never parks through coasting,
//!   and coasts until something touches it;
//! * a parked node's power demand, and the whole `apportion` call when
//!   no demand moved, reuse last tick's values — both are pure functions
//!   of state the park fingerprint freezes. The budget tree takes again
//!   only the aggregates and splits whose inputs moved (see
//!   [`crate::BudgetTree`]), and the flat apportion and the tree report
//!   the leaves whose cap moved;
//! * a completion closes its node's breaker at the next tick; the
//!   records committed since the last tick name those nodes, so no sweep
//!   looks for them;
//! * a resting node's periodic checkpoint waits in its slot (below) for
//!   the node's next credit, which records it after the ticks before it;
//! * a **resting** node (coasting or parked, so `Up`, idle, healthy and
//!   unthrottled) is read through its packed slot, not swept, until a
//!   full tick, a new cap, dispatch, a crash or a thermal emergency wakes
//!   it. Its lifecycle tick would only record the parked sensor catch-up
//!   instant, which its credit hands it instead, and it has no completion
//!   due. From the next interval it is **settled** and leaves the list of
//!   unsettled nodes, the only nodes the lifecycle, demand, control and
//!   checkpoint sweeps and the geo up-counts visit (a per-rack count
//!   stands for its rack's settled nodes). Its demand entry and its meters are frozen, so the
//!   row folds `StepTrace`'s one-segment term `0.0 + v·dt` from the slot,
//!   in node order from −0.0, and LeastLoaded reads its `busy_s` there.
//!   No sweep writes the slot: the ticks it is owed under its resting cap
//!   are the control sweeps run since it settled, and the checkpoint it
//!   owes is the latest checkpoint sweep's (only the newest can ever be
//!   read). Whether each owed tick is coasted or parked is the node's to
//!   say, so a node may pass its park transition while settled;
//! * before anything touches a settled node — a new cap (the leaves the
//!   cap step reports), dispatch, a crash, a thermal, rack or zone
//!   event — its slot is **credited** and its node listed unsettled: the
//!   node gets every control sweep since it settled, those up to the
//!   latest checkpoint sweep, that checkpoint, then the rest, each batch
//!   with its last tick's instant (sweep `k` ran at `(k − 1)` periods).
//!   Each tick reaches the learner and the cap-mask count as Serial's
//!   full tick does; a batch that runs past the park transition parks the
//!   node there, and its later ticks are parked ones (`Node::coast`);
//! * LeastLoaded picks from an **ordered index** of the idle nodes, keyed
//!   by (`busy_s` by `total_cmp`, id): an idle node's `busy_s` does not
//!   move, so the index changes only when a node takes a job, or finishes
//!   or loses one, and its first entry that is live, healthy, let through
//!   by its node, rack and zone breakers and outside an avoided rack is
//!   the walk's first minimum. Dispatch builds the whole mask only for a
//!   policy that reads it, and nothing when the queue is empty, and merges
//!   the nodes it placed into the busy list.
//!
//! The skipped work that is *not* bit-preserved is confined to two pieces
//! of unobservable telemetry: the per-policy decision-tracker records,
//! and the sensors' last-poll cursor between skipped ticks, which catches
//! up before anything reads it. Neither reaches the trace CSV, the report
//! or any digest (ROADMAP item 5 moves the tracker records out of fleet
//! nodes). Every other count a skipped tick moves reaches the node at its
//! credit or sync: the WMA interval count written into checkpoints and
//! `cap_masked_intervals` through
//! [`greengpu::GreenGpuController::fast_forward_idle`]; a resting node's
//! CPU sits where an idle governor sample leaves it, so the governor's
//! tally and the domains' transition counts need nothing. A coasting
//! node's [`crate::Node::controller`] shows its learner as of its last
//! sync. A settled node's owed ticks and pending checkpoint wait in its
//! slot until it is credited, and a checkpoint a later stamp replaced is
//! never recorded; nothing is flushed at the horizon, because
//! [`crate::run_fleet`] reads no learner or checkpoint after the drive.
//! The engine's unit tests credit every settled slot there and compare
//! each node's counts with Serial's.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::dispatch::TenantDispatcher;
use crate::fleet::{CrashRecord, DomainOutageRecord, FleetConfig};
use crate::job::{JobRecord, JobSpec};
use crate::lifecycle::{LifecycleParams, NodeState};
use crate::node::{LifecycleEvent, Node};
use crate::policy::available;
use crate::power::{BudgetTree, FlatCaps, MilliWatts, NodeDemand};
use crate::retry::RetryQueue;
use crate::scheduler::{Placement, Scheduler};
use crate::telemetry::{GeoTraceRow, TraceRow};
use crate::topology::TopologyIndex;
use greengpu_hw::{ChaosEvent, ChaosKind, DomainChaosEvent, DomainChaosKind};
use greengpu_sim::{EventQueue, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Which fleet engine executes the run. Both are equivalent —
/// byte-identical outputs per seed — and stay selectable so the serial
/// reference remains available as the differential-testing oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The reference engine: advance every node at every event, full
    /// control ticks everywhere.
    #[default]
    Serial,
    /// Discrete-event engine: busy-list advance, quiescent parking for
    /// idle fixed-point nodes, and sweeps that pass resting nodes by.
    EventDriven,
}

impl EngineKind {
    /// Parses a CLI flag value (`serial` | `event`).
    pub fn from_flag(name: &str) -> Result<EngineKind, String> {
        match name {
            "serial" => Ok(EngineKind::Serial),
            "event" => Ok(EngineKind::EventDriven),
            other => Err(format!("unknown engine {other:?} (serial | event)")),
        }
    }

    /// Short stable label for benchmark and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Serial => "serial",
            EngineKind::EventDriven => "event",
        }
    }
}

/// Event payloads on the fleet spine.
pub(crate) enum Event {
    /// A job, drawn from the arrival stream as the spine reaches it.
    Arrival(JobSpec),
    /// A control tick.
    Tick,
    /// Index into the pre-generated chaos event vector (crashes and
    /// thermal emergencies; blackouts are installed at setup).
    Chaos(usize),
    /// Index into the pre-generated *correlated* domain chaos vector
    /// (rack power losses, zone thermal emergencies, zone partitions) —
    /// only present on hierarchical runs.
    Domain(usize),
}

/// The fleet's event spine: a control tick every period from zero
/// through the horizon, the arrival stream, and the chaos and domain
/// events. At one instant the tick comes first, so a job arriving then
/// waits for the next tick; then the arrivals, by id; then node chaos,
/// so a crash at a tick or arrival instant lands after them and the
/// crashed node's cap is reclaimed at the next tick; then domain events,
/// so a rack loss lands on top of whatever node chaos that instant
/// applied. The spine holds the next tick's instant, the chaos and domain
/// events, and the one arrival it drew ahead: a single-stream run's
/// memory does not grow with its arrivals (a serving run's stream walks a
/// list generated up front).
pub(crate) struct Spine<'a> {
    /// The next control tick; `None` past the horizon.
    next_tick: Option<SimTime>,
    period: SimDuration,
    end: SimTime,
    arrivals: std::iter::Peekable<Box<dyn Iterator<Item = JobSpec> + 'a>>,
    /// Node chaos, then domain events, each in index order; the queue
    /// breaks a tie at one instant by that order.
    chaos: EventQueue<Event>,
}

impl<'a> Spine<'a> {
    /// Ticks every `period` through `horizon`, the `arrivals` (in arrival
    /// order), and the `chaos` and `domain` events.
    pub fn new(
        period: SimDuration,
        horizon: SimDuration,
        arrivals: Box<dyn Iterator<Item = JobSpec> + 'a>,
        chaos: &[ChaosEvent],
        domain: &[DomainChaosEvent],
    ) -> Self {
        let mut queue = EventQueue::new();
        for (i, ev) in chaos.iter().enumerate() {
            queue.schedule(ev.at, Event::Chaos(i));
        }
        for (i, ev) in domain.iter().enumerate() {
            queue.schedule(ev.at, Event::Domain(i));
        }
        Spine {
            next_tick: Some(SimTime::ZERO),
            period,
            end: SimTime::ZERO + horizon,
            arrivals: arrivals.peekable(),
            chaos: queue,
        }
    }

    /// The next event and its instant, `None` past the last one.
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let arrival = self.arrivals.peek().map(|job| job.arrival);
        let other = self.chaos.peek_time();
        // `at` pops before the next event of a class that comes later at
        // one instant.
        let first = |at: SimTime, later: Option<SimTime>| later.is_none_or(|l| at <= l);
        if let Some(tick) = self.next_tick.filter(|&k| first(k, arrival) && first(k, other)) {
            let next = tick + self.period;
            self.next_tick = (next <= self.end).then_some(next);
            return Some((tick, Event::Tick));
        }
        if arrival.is_some_and(|a| first(a, other)) {
            return self.arrivals.next().map(|job| (job.arrival, Event::Arrival(job)));
        }
        self.chaos.pop()
    }
}

/// Everything the hierarchy adds to a run: the cascading budget tree,
/// per-level circuit breakers, the correlated-failure schedule, and the
/// audit/telemetry it produces. `run_fleet` builds one when the config
/// has a topology and keeps ownership, so report assembly reads the
/// fields straight out after the drive returns; the spine sees it as
/// `Option<&mut GeoState>` (flat runs pass `None` and keep their exact
/// pre-hierarchy behavior, byte for byte).
pub(crate) struct GeoState<'a> {
    pub index: &'a TopologyIndex,
    pub domain_events: &'a [DomainChaosEvent],
    pub tree: BudgetTree,
    pub rack_breakers: Vec<CircuitBreaker>,
    pub zone_breakers: Vec<CircuitBreaker>,
    pub domain_records: Vec<DomainOutageRecord>,
    pub rows: Vec<GeoTraceRow>,
    /// Live nodes per rack, zone and region, refilled for each interval's
    /// rows.
    up: [Vec<usize>; 3],
    pub rack_losses: u64,
    pub zone_thermal_emergencies: u64,
    pub zone_partitions: u64,
    pub interior_cap_violations: u64,
}

impl<'a> GeoState<'a> {
    /// Fresh hierarchy state over `index`, breakers per rack and zone at
    /// the lifecycle's per-level cooldowns (same backoff cap as the node
    /// breakers).
    pub fn new(index: &'a TopologyIndex, domain_events: &'a [DomainChaosEvent], lc: &LifecycleParams) -> Self {
        GeoState {
            index,
            domain_events,
            tree: BudgetTree::new(index),
            rack_breakers: (0..index.n_racks())
                .map(|_| CircuitBreaker::new(lc.rack_breaker_cooldown_s, lc.breaker_max_backoff_exp))
                .collect(),
            zone_breakers: (0..index.n_zones())
                .map(|_| CircuitBreaker::new(lc.zone_breaker_cooldown_s, lc.breaker_max_backoff_exp))
                .collect(),
            domain_records: Vec::new(),
            rows: Vec::new(),
            up: [
                vec![0; index.n_racks()],
                vec![0; index.n_zones()],
                vec![0; index.n_regions()],
            ],
            rack_losses: 0,
            zone_thermal_emergencies: 0,
            zone_partitions: 0,
            interior_cap_violations: 0,
        }
    }
}

/// One fleet run: the state every step of the spine reads and writes,
/// and the outputs it collects. `run_fleet` builds one, [`drive`]s it to
/// the horizon and reads the [`crate::FleetReport`] out of it.
pub(crate) struct Fleet<'a> {
    cfg: &'a FleetConfig,
    pub nodes: Vec<Node>,
    pub scheduler: Scheduler,
    pub breakers: Vec<CircuitBreaker>,
    pub retry: RetryQueue,
    pub dispatcher: TenantDispatcher,
    /// The hierarchy of a geo run; `None` on a flat one.
    pub geo: Option<GeoState<'a>>,
    /// A flat run's caps of the latest tick (empty on geo runs, whose
    /// caps are the budget tree's leaves).
    flat: FlatCaps,
    /// The node chaos events `Event::Chaos` indexes.
    chaos_events: &'a [ChaosEvent],
    budget_mw: MilliWatts,
    pub done: Completions,
    pub rows: Vec<TraceRow>,
    pub crash_records: Vec<CrashRecord>,
    pub jobs_lost: u64,
    /// Telemetry-blackout events that reached the runtime spine. Setup
    /// installs blackouts into the sensor stacks, so this should be 0;
    /// a stray one is counted and ignored rather than aborting the run
    /// (the fleet's panic-freedom contract).
    pub stray_blackout_events: u64,
}

impl<'a> Fleet<'a> {
    /// A run of `nodes` under `cfg`, with the scheduler, breakers, retry
    /// queue and dispatcher `cfg` describes, before its first event.
    pub fn new(
        cfg: &'a FleetConfig,
        nodes: Vec<Node>,
        chaos_events: &'a [ChaosEvent],
        geo: Option<GeoState<'a>>,
        budget_mw: MilliWatts,
    ) -> Self {
        let lc = &cfg.lifecycle;
        Fleet {
            cfg,
            scheduler: Scheduler::new(cfg.policy, cfg.queue_capacity),
            breakers: (0..nodes.len())
                .map(|_| CircuitBreaker::new(lc.breaker_cooldown_s, lc.breaker_max_backoff_exp))
                .collect(),
            retry: RetryQueue::new(lc.max_retries, lc.retry_backoff_s, lc.dead_letter_capacity),
            dispatcher: cfg
                .serving
                .as_ref()
                .map_or_else(TenantDispatcher::passthrough, TenantDispatcher::from_serving),
            flat: FlatCaps::new(if geo.is_some() { 0 } else { nodes.len() }),
            nodes,
            geo,
            chaos_events,
            budget_mw,
            done: Completions::default(),
            rows: Vec::new(),
            crash_records: Vec::new(),
            jobs_lost: 0,
            stray_blackout_events: 0,
        }
    }

    /// The topology index's node → rack map, empty on a flat run (which
    /// dispatch, the retry queue and the settled per-rack counts treat as
    /// "no topology").
    fn rack_of(&self) -> &'a [usize] {
        self.geo.as_ref().map_or(&[], |g| &g.index.rack_of)
    }
}

/// Runs the configured engine over the spine to the horizon.
///
/// `Fleet::run` is called by its path: greengpu-lint resolves a method
/// call by bare name, so `fleet.run(..)` would also put every other `run`
/// method in the workspace on this control path.
pub(crate) fn drive(fleet: &mut Fleet, spine: Spine) {
    match fleet.cfg.engine {
        EngineKind::Serial => Fleet::run(fleet, Serial::default(), spine),
        EngineKind::EventDriven => {
            let engine = EventDriven::new(fleet.nodes.len(), fleet.cfg.control_period);
            Fleet::run(fleet, engine, spine);
        }
    }
}

/// The completion stream, sorted by service window (the span between two
/// consecutive spine events) and in node-id order within one: the order
/// advancing every node at every event emits, which every schedule
/// reproduces.
#[derive(Default)]
pub(crate) struct Completions {
    pub records: Vec<JobRecord>,
    pub deadline_misses: u64,
}

impl Completions {
    fn record(&mut self, finished: Option<JobRecord>) {
        if let Some(record) = finished {
            if record.missed_deadline {
                self.deadline_misses += 1;
            }
            self.records.push(record);
        }
    }
}

/// Which nodes each per-node batch of the spine touches — the only
/// thing the engines differ in. Everything fleet-level lives once in
/// `Fleet::run`.
trait Schedule {
    /// Job service runs from `from` to an arrival at `to`, which cannot
    /// change any node's job or pair: a schedule may leave the window to
    /// the next [`Schedule::advance`].
    fn split(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions);
    /// Advances job service over the windows `split` left, then from
    /// `from` to `to`, recording completions in [`Completions`] order.
    fn advance(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions);
    /// A chaos event is about to crash or throttle live node `i`: work
    /// the schedule deferred on it happens first, and every sweep visits
    /// it from the next on. `rack_of` is the node → rack map (empty on a
    /// flat run), as in every call below that takes it.
    fn credit(&mut self, node: &mut Node, i: usize, rack_of: &[usize]);
    /// The topology of a hierarchical run, before its first event.
    fn attach(&mut self, _index: &TopologyIndex) {}
    /// Failure FSMs: a cleared probation closes the node's breaker.
    fn lifecycle(&mut self, nodes: &mut [Node], breakers: &mut [CircuitBreaker], t: SimTime);
    /// Node `i`'s place in the schedule (Serial's are all awake).
    fn slot(&self, _i: usize) -> &Slot {
        &Slot::Awake
    }
    /// Refreshes `demands` (one entry per node) in place. Returns the ids
    /// of the entries that moved, ascending, collected in `moved`, or
    /// `None` when any entry may have.
    fn demands<'m>(
        &mut self,
        nodes: &[Node],
        demands: &mut Vec<NodeDemand>,
        moved: &'m mut Vec<usize>,
        rack_of: &[usize],
    ) -> Option<&'m [usize]>;
    /// Control ticks on live nodes under `caps`, of which only the nodes
    /// in `recapped` changed since the last tick; returns the largest
    /// pair-over-cap overage (watts), folded in node order from 0.0.
    fn control(
        &mut self,
        nodes: &mut [Node],
        caps: &[MilliWatts],
        recapped: &[usize],
        rack_of: &[usize],
        t: SimTime,
    ) -> f64;
    /// Places queued jobs on the nodes `gate` lets through.
    fn dispatch(&mut self, scheduler: &mut Scheduler, nodes: &mut [Node], gate: &Gate, rack_of: &[usize], t: SimTime);
    /// The periodic learner checkpoint of every `Up` node, due at `t`.
    fn checkpoint(&mut self, nodes: &mut [Node], t: SimTime);
    /// Adds one to `up[rack_of[i]]` for every live node `i`.
    fn count_up(&mut self, nodes: &[Node], rack_of: &[usize], up: &mut [usize]);
    /// Whether node `i` rests in a settled slot that owes its node a
    /// checkpoint.
    #[cfg(test)]
    fn owes_checkpoint(&self, _i: usize) -> bool {
        false
    }
    /// After the drive: hands every settled node what its slot deferred
    /// and wakes every resting node, so each node's learner and counters
    /// can be compared with Serial's.
    #[cfg(test)]
    fn credit_all(&mut self, _nodes: &mut [Node], _rack_of: &[usize]) {}
}

/// The breakers dispatch routes around: a node takes work only when its
/// own breaker *and*, on hierarchical runs, its rack's and its zone's
/// allow it — dispatch routes around an open zone exactly like an open
/// node.
struct Gate<'a> {
    breakers: &'a [CircuitBreaker],
    geo: Option<&'a GeoState<'a>>,
}

impl Gate<'_> {
    fn allows(&self, i: usize) -> bool {
        self.breakers[i].allows_dispatch()
            && self.geo.is_none_or(|g| {
                g.rack_breakers[g.index.rack_of[i]].allows_dispatch()
                    && g.zone_breakers[g.index.zone_of[i]].allows_dispatch()
            })
    }

    /// Refills `allowed` with one entry per node.
    fn mask(&self, allowed: &mut Vec<bool>) {
        allowed.clear();
        allowed.extend((0..self.breakers.len()).map(|i| self.allows(i)));
    }
}

/// One node's failure-FSM step; a cleared probation closes its breaker.
fn lifecycle_step(node: &mut Node, breaker: &mut CircuitBreaker, t: SimTime) {
    for ev in node.lifecycle_tick(t) {
        if ev == LifecycleEvent::ProbationCleared {
            breaker.record_success();
        }
    }
}

/// The reference schedule: every batch touches every node.
#[derive(Default)]
struct Serial {
    /// The dispatch mask, refilled every tick.
    allowed: Vec<bool>,
}

impl Schedule for Serial {
    fn split(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions) {
        self.advance(nodes, from, to, done);
    }

    fn advance(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions) {
        for node in nodes.iter_mut() {
            done.record(node.advance(from, to));
        }
    }

    fn credit(&mut self, _node: &mut Node, _i: usize, _rack_of: &[usize]) {}

    fn lifecycle(&mut self, nodes: &mut [Node], breakers: &mut [CircuitBreaker], t: SimTime) {
        for (node, breaker) in nodes.iter_mut().zip(breakers.iter_mut()) {
            lifecycle_step(node, breaker, t);
        }
    }

    fn demands<'m>(
        &mut self,
        nodes: &[Node],
        demands: &mut Vec<NodeDemand>,
        _moved: &'m mut Vec<usize>,
        _rack_of: &[usize],
    ) -> Option<&'m [usize]> {
        demands.clear();
        demands.extend(nodes.iter().map(Node::demand));
        None
    }

    fn control(
        &mut self,
        nodes: &mut [Node],
        caps: &[MilliWatts],
        _recapped: &[usize],
        _rack_of: &[usize],
        t: SimTime,
    ) -> f64 {
        nodes
            .iter_mut()
            .zip(caps)
            .filter(|(node, _)| node.is_alive())
            .map(|(node, &cap)| node.control_tick(t, cap))
            .fold(0.0, f64::max)
    }

    fn dispatch(&mut self, scheduler: &mut Scheduler, nodes: &mut [Node], gate: &Gate, rack_of: &[usize], t: SimTime) {
        gate.mask(&mut self.allowed);
        scheduler.dispatch(nodes, &self.allowed, rack_of, t);
    }

    fn checkpoint(&mut self, nodes: &mut [Node], _t: SimTime) {
        for node in nodes.iter_mut().filter(|node| node.state() == NodeState::Up) {
            node.take_checkpoint();
        }
    }

    fn count_up(&mut self, nodes: &[Node], rack_of: &[usize], up: &mut [usize]) {
        for (node, &rack) in nodes.iter().zip(rack_of) {
            up[rack] += usize::from(node.is_alive());
        }
    }
}

/// The event-driven schedule. See the module docs for the equivalence
/// argument behind each skipped batch of work.
struct EventDriven {
    /// Ids of nodes with a job in service, ascending — the only nodes
    /// `advance` can do anything to. Dispatch merges in the nodes it
    /// placed; completions drop out as they land.
    busy: Vec<usize>,
    /// Service windows `split` left pending, as (start, length in
    /// seconds), ascending; each ends where the next starts.
    windows: Vec<(SimTime, f64)>,
    /// Scratch for one replay: completions with the window each landed in.
    finished: Vec<(usize, JobRecord)>,
    /// One packed slot per node, so a sweep passes a resting node by.
    slots: Vec<Slot>,
    /// Ids of the nodes whose slot is not settled (awake or fresh),
    /// ascending: the only nodes the lifecycle, demand, control and
    /// checkpoint sweeps and the up-counts visit.
    unsettled: Vec<usize>,
    /// How many of each rack's slots are settled on hierarchical runs
    /// (empty on flat ones, and on an engine no `attach` sized, which
    /// counts nothing); a settled node is live.
    settled_in_rack: Vec<usize>,
    /// The control period: sweep `k` (from 1) ran at `(k − 1) · period`,
    /// as the spine ticks from zero.
    period: SimDuration,
    /// Control sweeps so far. A settled slot is owed every sweep after the
    /// one it settled behind, so its count follows from here.
    sweeps: usize,
    /// Control sweeps run before the latest checkpoint sweep (0 before
    /// the first). Every slot settled behind an earlier sweep owes its
    /// node that checkpoint.
    checkpoint_sweep: usize,
    /// The dispatch mask, built in a dispatch call only if its policy
    /// reads it.
    mask: Vec<bool>,
    /// Every node without a job. An idle node's `busy_s` does not move,
    /// so an entry changes only when its node takes a job (placement) or
    /// finishes or loses one (its drop from `busy`). Built at the first
    /// LeastLoaded pick, so no other policy keeps it.
    idle: Option<IdleIndex>,
}

/// Nodes as (`busy_s`, id) in LeastLoaded's order: `busy_s` by
/// [`f64::total_cmp`], ties to the lowest id.
struct IdleIndex(BTreeSet<(i64, usize)>);

impl IdleIndex {
    /// `busy_s` as an integer whose order is [`f64::total_cmp`]'s: the
    /// sign bit flips the rest of a negative value's bits.
    fn key(busy_s: f64, i: usize) -> (i64, usize) {
        let bits = busy_s.to_bits() as i64;
        (bits ^ (((bits >> 63) as u64) >> 1) as i64, i)
    }

    fn insert(&mut self, busy_s: f64, i: usize) {
        self.0.insert(Self::key(busy_s, i));
    }

    /// Takes node `i` out; whether it was listed.
    fn remove(&mut self, busy_s: f64, i: usize) -> bool {
        self.0.remove(&Self::key(busy_s, i))
    }

    /// The first node in that order that `ok` accepts.
    fn first(&self, ok: impl Fn(usize) -> bool) -> Option<usize> {
        self.0.iter().map(|&(_, i)| i).find(|&i| ok(i))
    }
}

impl FromIterator<(f64, usize)> for IdleIndex {
    fn from_iter<I: IntoIterator<Item = (f64, usize)>>(iter: I) -> Self {
        IdleIndex(iter.into_iter().map(|(busy_s, i)| Self::key(busy_s, i)).collect())
    }
}

/// A node's place in the event-driven schedule.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Swept in full.
    Awake,
    /// Began resting at the latest control sweep; the next demand sweep
    /// reads it once more and settles it.
    Fresh,
    /// Rested untouched since an earlier interval: no sweep visits it,
    /// the row reads the slot, and the node is read only after the slot
    /// is credited.
    Settled(Frozen),
}

// A resting node costs one slot read in the row, and its node is read
// only when something touches it, so a slot stays within a cache line.
const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

/// Everything the row and dispatch read of a settled node, and what the
/// sweeps defer on it: its GPU and CPU meters' watts since it began
/// resting, its cap violations and `busy_s`, the cap it rests under, and
/// where its count of control ticks starts. Nothing writes it while it
/// is settled: the ticks it is owed and the checkpoint it owes follow
/// from the engine's sweep counters (see [`EventDriven::credit_slot`]).
#[derive(Debug, Clone, Copy)]
struct Frozen {
    gpu_w: f64,
    cpu_w: f64,
    cap_violations: u64,
    busy_s: f64,
    /// The cap it is parked or coasting under.
    cap: MilliWatts,
    /// Control sweeps run before it settled; it is owed every later one.
    since: u32,
}

impl Frozen {
    /// The slot of a node that began resting at the latest control sweep,
    /// settling behind `since` sweeps, or `None` for a node that something
    /// woke since ([`Node::rest_under`]).
    fn settle(node: &Node, since: usize) -> Option<Frozen> {
        Some(Frozen {
            cap: node.rest_under()?,
            gpu_w: node.platform().gpu_meter().trace().last_value(),
            cpu_w: node.platform().cpu_meter().trace().last_value(),
            cap_violations: node.cap_violations(),
            busy_s: node.busy_s(),
            since: u32::try_from(since).unwrap_or(u32::MAX),
        })
    }
}

impl EventDriven {
    fn new(n: usize, period: SimDuration) -> Self {
        EventDriven {
            busy: Vec::new(),
            windows: Vec::new(),
            finished: Vec::new(),
            slots: vec![Slot::Awake; n],
            unsettled: (0..n).collect(),
            settled_in_rack: Vec::new(),
            period,
            sweeps: 0,
            checkpoint_sweep: 0,
            mask: Vec::new(),
            idle: None,
        }
    }

    /// The instant control sweep `k` (from 1) ran at.
    fn sweep_at(&self, k: usize) -> SimTime {
        SimTime::ZERO + self.period.mul_f64(k.saturating_sub(1) as f64)
    }

    /// Hands a settled node what its slot deferred, in every-tick order:
    /// one tick per control sweep since it settled, those up to the latest
    /// checkpoint sweep, that checkpoint, then the rest, each batch with
    /// its last tick's instant. The node says whether each tick is coasted
    /// or parked ([`Node::coast`]).
    fn credit_slot(&self, node: &mut Node, f: &Frozen) {
        let mut from = f.since as usize;
        if self.checkpoint_sweep > from {
            node.coast(
                (self.checkpoint_sweep - from) as u64,
                self.sweep_at(self.checkpoint_sweep),
            );
            node.take_checkpoint();
            from = self.checkpoint_sweep;
        }
        node.coast((self.sweeps - from) as u64, self.sweep_at(self.sweeps));
    }

    /// Credits node `i` if its slot is settled, listing it in place in
    /// `unsettled`, and marks it awake.
    fn unsettle(&mut self, node: &mut Node, i: usize, rack_of: &[usize]) {
        if let Slot::Settled(f) = self.slots[i] {
            self.credit_slot(node, &f);
            let at = self.unsettled.partition_point(|&j| j < i);
            debug_assert_ne!(self.unsettled.get(at), Some(&i), "a settled node was listed");
            self.unsettled.insert(at, i);
            if let Some(count) = rack_of.get(i).and_then(|&r| self.settled_in_rack.get_mut(r)) {
                *count -= 1;
            }
        }
        self.slots[i] = Slot::Awake;
    }
}

impl Schedule for EventDriven {
    fn split(&mut self, _nodes: &mut [Node], from: SimTime, to: SimTime, _done: &mut Completions) {
        self.windows.push((from, to.saturating_since(from).as_secs_f64()));
    }

    fn advance(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions) {
        self.split(nodes, from, to, done);
        // Each busy node replays every pending window in one pass. Only
        // dispatch hands a node a job, so it finishes at most one here;
        // `busy` is ascending and the sort stable, so completions commit
        // by window, then node id.
        self.busy.retain(|&i| {
            self.finished.extend(nodes[i].advance_windows(&self.windows));
            let idle = nodes[i].is_idle();
            if let Some(index) = self.idle.as_mut().filter(|_| idle) {
                index.insert(nodes[i].busy_s(), i);
            }
            !idle
        });
        self.finished.sort_by_key(|&(w, _)| w);
        for (_, record) in self.finished.drain(..) {
            done.record(Some(record));
        }
        self.windows.clear();
    }

    fn credit(&mut self, node: &mut Node, i: usize, rack_of: &[usize]) {
        // A crashed node's stale busy-list entry (job already taken)
        // drops out on the next advance.
        self.unsettle(node, i, rack_of);
    }

    fn attach(&mut self, index: &TopologyIndex) {
        self.settled_in_rack = vec![0; index.n_racks()];
    }

    fn lifecycle(&mut self, nodes: &mut [Node], breakers: &mut [CircuitBreaker], t: SimTime) {
        // A resting node's tick would only record the instant, which its
        // credit hands it before anything reads it.
        for &i in &self.unsettled {
            if matches!(self.slots[i], Slot::Awake) {
                lifecycle_step(&mut nodes[i], &mut breakers[i], t);
            }
        }
    }

    fn slot(&self, i: usize) -> &Slot {
        &self.slots[i]
    }

    fn demands<'m>(
        &mut self,
        nodes: &[Node],
        demands: &mut Vec<NodeDemand>,
        moved: &'m mut Vec<usize>,
        rack_of: &[usize],
    ) -> Option<&'m [usize]> {
        moved.clear();
        if demands.len() != nodes.len() {
            demands.clear();
            demands.extend(nodes.iter().map(Node::demand));
            return None;
        }
        let since = self.sweeps;
        let mut unsettled = std::mem::take(&mut self.unsettled);
        unsettled.retain(|&i| {
            let slot = &mut self.slots[i];
            let mut listed = true;
            if let Slot::Fresh = slot {
                // Nothing has written its meters since it began resting.
                *slot = match Frozen::settle(&nodes[i], since) {
                    Some(f) => {
                        if let Some(count) = rack_of.get(i).and_then(|&r| self.settled_in_rack.get_mut(r)) {
                            *count += 1;
                        }
                        listed = false;
                        Slot::Settled(f)
                    }
                    None => Slot::Awake,
                };
            }
            // A settled entry is frozen by the park fingerprint, or the
            // settled pair's while coasting: read once more as it settles.
            let fresh = nodes[i].demand();
            if fresh != demands[i] {
                demands[i] = fresh;
                moved.push(i);
            }
            listed
        });
        self.unsettled = unsettled;
        Some(moved)
    }

    fn control(
        &mut self,
        nodes: &mut [Node],
        caps: &[MilliWatts],
        recapped: &[usize],
        rack_of: &[usize],
        t: SimTime,
    ) -> f64 {
        // A settled node is ticked on the node only when handed a new cap.
        // Every other settled tick, coasted or parked (deep park), is owed
        // to it until its credit, without a write.
        for &i in recapped {
            if matches!(self.slots[i], Slot::Settled(f) if f.cap != caps[i]) {
                self.unsettle(&mut nodes[i], i, rack_of);
            }
        }
        let mut over = 0.0f64;
        for &i in &self.unsettled {
            let node = &mut nodes[i];
            if node.is_alive() {
                over = over.max(node.control_tick_parkable(t, caps[i]));
                self.slots[i] = if node.is_resting() { Slot::Fresh } else { Slot::Awake };
            }
        }
        self.sweeps += 1;
        debug_assert_eq!(t, self.sweep_at(self.sweeps), "ticks sit at multiples of the period");
        over
    }

    fn dispatch(&mut self, scheduler: &mut Scheduler, nodes: &mut [Node], gate: &Gate, rack_of: &[usize], t: SimTime) {
        if scheduler.depth() == 0 {
            return;
        }
        let before = self.busy.len();
        self.mask.clear();
        scheduler.place(
            nodes,
            &mut Placing {
                engine: self,
                gate,
                rack_of,
            },
            rack_of,
            t,
        );
        if self.busy.len() > before {
            // Placed nodes were idle, so none is listed yet: merge the
            // new tail into the ascending list.
            self.busy.sort();
        }
    }

    fn checkpoint(&mut self, nodes: &mut [Node], _t: SimTime) {
        for &i in &self.unsettled {
            if nodes[i].state() == NodeState::Up {
                nodes[i].take_checkpoint();
            }
        }
        self.checkpoint_sweep = self.sweeps;
    }

    fn count_up(&mut self, nodes: &[Node], rack_of: &[usize], up: &mut [usize]) {
        for (count, &settled) in up.iter_mut().zip(&self.settled_in_rack) {
            *count += settled;
        }
        for &i in &self.unsettled {
            up[rack_of[i]] += usize::from(nodes[i].is_alive());
        }
    }

    #[cfg(test)]
    fn owes_checkpoint(&self, i: usize) -> bool {
        matches!(self.slots[i], Slot::Settled(f) if self.checkpoint_sweep > f.since as usize)
    }

    #[cfg(test)]
    fn credit_all(&mut self, nodes: &mut [Node], rack_of: &[usize]) {
        for (i, node) in nodes.iter_mut().enumerate() {
            self.unsettle(node, i, rack_of);
            node.wake();
        }
    }
}

/// One event-driven dispatch call: LeastLoaded picks from the index of
/// idle nodes, checking each entry's slot and its node, rack and zone
/// breakers; a policy that reads the whole mask gets it built once; and
/// each node placed leaves the index and is credited, woken and listed
/// busy before it takes its job.
struct Placing<'a, 'g> {
    engine: &'a mut EventDriven,
    gate: &'a Gate<'g>,
    rack_of: &'a [usize],
}

impl Placement for Placing<'_, '_> {
    fn mask(&mut self) -> &[bool] {
        if self.engine.mask.is_empty() {
            self.gate.mask(&mut self.engine.mask);
        }
        &self.engine.mask
    }

    fn least_loaded(&mut self, nodes: &[Node], eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let EventDriven { slots, idle, .. } = &mut *self.engine;
        let index = idle.get_or_insert_with(|| {
            (0..nodes.len())
                .filter_map(|i| match slots[i] {
                    // Resting: idle, with its `busy_s` in the slot.
                    Slot::Settled(f) => Some((f.busy_s, i)),
                    _ => nodes[i].is_idle().then(|| (nodes[i].busy_s(), i)),
                })
                .collect()
        });
        index.first(|i| {
            // Resting: idle, healthy and `Up`.
            let up = matches!(slots[i], Slot::Settled(_)) || available(&nodes[i], &[]);
            up && eligible(i) && self.gate.allows(i)
        })
    }

    fn placing(&mut self, node: &mut Node, i: usize) {
        if let Some(index) = self.engine.idle.as_mut() {
            let listed = index.remove(node.busy_s(), i);
            debug_assert!(listed, "node {i} took a job but was not indexed idle");
        }
        self.engine.unsettle(node, i, self.rack_of);
        self.engine.busy.push(i);
    }
}

/// Fills the pending `*_after` halves of domain outage records from the
/// caps the first post-event tree tick produced — the hierarchical
/// counterpart of the per-node `CrashRecord` fill.
fn fill_domain_records(g: &mut GeoState) {
    let index = g.index;
    let leaf_caps = g.tree.leaf_caps();
    let zone_caps = g.tree.zone_caps();
    for rec in g.domain_records.iter_mut().filter(|r| r.rack_cap_after_mw.is_none()) {
        rec.rack_cap_after_mw = Some(index.rack_nodes[rec.rack].iter().map(|&n| leaf_caps[n]).sum());
        rec.zone_cap_after_mw = Some(zone_caps[rec.zone]);
        rec.sibling_caps_after_mw = Some(
            index.zone_nodes[rec.zone]
                .iter()
                .filter(|&&n| index.rack_of[n] != rec.rack)
                .map(|&n| leaf_caps[n])
                .sum(),
        );
    }
}

/// Appends one control interval's interior-node telemetry: a row per
/// region, then per zone, then per rack — caps and the demand each split
/// saw from the budget tree, live-node counts, breaker states.
fn push_geo_rows<S: Schedule>(g: &mut GeoState, engine: &mut S, nodes: &[Node], t: SimTime, interval: u64) {
    let index = g.index;
    let time_s = t.saturating_since(SimTime::ZERO).as_secs_f64();
    for count in &mut g.up {
        count.fill(0);
    }
    let [rack_up, zone_up, region_up] = &mut g.up;
    engine.count_up(nodes, &index.rack_of, rack_up);
    for (r, &up) in rack_up.iter().enumerate() {
        zone_up[index.zone_of_rack[r]] += up;
    }
    for (z, &up) in zone_up.iter().enumerate() {
        region_up[index.region_of_zone[z]] += up;
    }
    let to_w = |mw: MilliWatts| mw as f64 / 1000.0;
    for (d, &cap) in g.tree.region_caps().iter().enumerate() {
        g.rows.push(GeoTraceRow {
            interval,
            time_s,
            level: "region",
            domain: d,
            cap_w: to_w(cap),
            demand_w: to_w(g.tree.region_desired()[d]),
            up_nodes: region_up[d],
            breaker_open: 0,
        });
    }
    for (d, &cap) in g.tree.zone_caps().iter().enumerate() {
        g.rows.push(GeoTraceRow {
            interval,
            time_s,
            level: "zone",
            domain: d,
            cap_w: to_w(cap),
            demand_w: to_w(g.tree.zone_desired()[d]),
            up_nodes: zone_up[d],
            breaker_open: usize::from(g.zone_breakers[d].state() == BreakerState::Open),
        });
    }
    for (d, &cap) in g.tree.rack_caps().iter().enumerate() {
        g.rows.push(GeoTraceRow {
            interval,
            time_s,
            level: "rack",
            domain: d,
            cap_w: to_w(cap),
            demand_w: to_w(g.tree.rack_desired()[d]),
            up_nodes: rack_up[d],
            breaker_open: usize::from(g.rack_breakers[d].state() == BreakerState::Open),
        });
    }
}

impl Fleet<'_> {
    /// The fleet loop every engine runs: pops the spine to the horizon and
    /// performs each fleet-level step once, leaving to `engine` only which
    /// nodes each per-node batch touches.
    fn run<S: Schedule>(&mut self, mut engine: S, mut spine: Spine) {
        if let Some(g) = &self.geo {
            engine.attach(g.index);
        }
        let rack_of = self.rack_of();
        // Completion records the breaker step has seen.
        let mut scanned = 0;
        let mut demands: Vec<NodeDemand> = Vec::with_capacity(self.nodes.len());
        let (mut moved, mut recapped) = (Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        let mut interval = 0u64;
        let mut tick_no = 0u64;

        while let Some((at, event)) = spine.pop() {
            if matches!(event, Event::Arrival(_)) {
                engine.split(&mut self.nodes, t, at, &mut self.done);
            } else {
                engine.advance(&mut self.nodes, t, at, &mut self.done);
            }
            t = at;
            match event {
                Event::Arrival(job) => self.dispatcher.on_arrival(job, &mut self.scheduler, t),
                Event::Chaos(i) => self.apply_chaos(&mut engine, i, t),
                Event::Domain(i) => self.apply_domain_event(&mut engine, i, t),
                Event::Tick => {
                    // 1. Failure FSMs and breaker clocks. A cleared probation
                    // or a completion since the last tick closes the breaker
                    // (and, on hierarchical runs, its rack's and zone's).
                    engine.lifecycle(&mut self.nodes, &mut self.breakers, t);
                    for b in self.breakers.iter_mut() {
                        b.tick(t);
                    }
                    if let Some(g) = self.geo.as_mut() {
                        for b in g.rack_breakers.iter_mut().chain(g.zone_breakers.iter_mut()) {
                            b.tick(t);
                        }
                    }
                    // A node completes at most one job between ticks, and each
                    // completion left one record, so the records since the
                    // last tick name exactly the nodes that completed since.
                    for rec in &self.done.records[scanned..] {
                        self.breakers[rec.node].record_success();
                        if let Some(g) = self.geo.as_mut() {
                            g.rack_breakers[g.index.rack_of[rec.node]].record_success();
                            g.zone_breakers[g.index.zone_of[rec.node]].record_success();
                        }
                    }
                    scanned = self.done.records.len();
                    // 2. Caps from the *current* demands: a node crashed since
                    // the last tick demands nothing, so its budget is already
                    // back in the pool here — at the rack level on
                    // hierarchical runs (the zone and region splits lag one
                    // report each; see `BudgetTree`). The tree ticks every
                    // interval: its lagged upward reports advance even when
                    // no demand moved, and it splits again only where a demand,
                    // a report or a cap moved. The flat `apportion` is a pure
                    // function of budget and demands, so it reruns only when
                    // one moved.
                    // A schedule that reports which demands moved also reads
                    // which caps moved.
                    let moved = engine.demands(&self.nodes, &mut demands, &mut moved, rack_of);
                    recapped.clear();
                    let recap = moved.is_some().then_some(&mut recapped);
                    if let Some(g) = self.geo.as_mut() {
                        g.tree.cascade(self.budget_mw, &demands, moved, recap);
                        g.interior_cap_violations += g.tree.violations(self.budget_mw);
                        fill_domain_records(g);
                    } else if moved.is_none_or(|ids| !ids.is_empty()) {
                        self.flat.apportion(self.budget_mw, &demands, recap);
                    }
                    // (`Fleet::caps`, borrowing only the fields it reads.)
                    let caps = self.geo.as_ref().map_or(self.flat.caps(), |g| g.tree.leaf_caps());
                    // The pending crash-audit halves take the first
                    // post-crash caps.
                    for rec in self.crash_records.iter_mut().filter(|r| r.cap_after_mw.is_none()) {
                        rec.cap_after_mw = Some(caps[rec.node]);
                    }
                    // 3. Control ticks on live nodes.
                    let max_over_w = engine.control(&mut self.nodes, caps, &recapped, rack_of, t);
                    // 4. Deferred best-effort jobs whose green window (or
                    // horizon) arrived re-enter first, then retries re-enter
                    // ahead of fresh arrivals (reversed so the earliest-ready
                    // job ends up frontmost), then dispatch behind the
                    // breaker mask (per-node ∧ rack ∧ zone).
                    self.dispatcher.release_due(&mut self.scheduler, t);
                    for r in self.retry.drain_ready(t).into_iter().rev() {
                        self.scheduler.requeue_front(r.job, r.avoid_rack);
                    }
                    let gate = Gate {
                        breakers: &self.breakers,
                        geo: self.geo.as_ref(),
                    };
                    engine.dispatch(&mut self.scheduler, &mut self.nodes, &gate, rack_of, t);
                    // 5. Periodic learner checkpoints on fully-Up nodes.
                    if let Some(k) = self.cfg.lifecycle.checkpoint_period {
                        if tick_no > 0 && tick_no.is_multiple_of(k) {
                            engine.checkpoint(&mut self.nodes, t);
                        }
                    }
                    tick_no += 1;
                    if t > SimTime::ZERO {
                        interval += 1;
                        let row = self.trace_row(&engine, t, interval, max_over_w);
                        self.rows.push(row);
                        if let Some(g) = self.geo.as_mut() {
                            push_geo_rows(g, &mut engine, &self.nodes, t, interval);
                        }
                        self.dispatcher.note_interval(t, interval);
                    }
                }
            }
        }
        // Account service up to the horizon.
        engine.advance(&mut self.nodes, t, SimTime::ZERO + self.cfg.horizon, &mut self.done);
        #[cfg(test)]
        engine.credit_all(&mut self.nodes, rack_of);
    }

    /// The caps of the latest tick: the budget tree's leaves on geo runs.
    fn caps(&self) -> &[MilliWatts] {
        self.geo.as_ref().map_or(self.flat.caps(), |g| g.tree.leaf_caps())
    }

    /// Applies node chaos event `i` at `t`.
    fn apply_chaos(&mut self, engine: &mut impl Schedule, i: usize, t: SimTime) {
        let ev = self.chaos_events[i];
        match ev.kind {
            ChaosKind::Crash { outage_s } => {
                if self.nodes[ev.node].is_alive() {
                    self.crash(engine, ev.node, t, outage_s);
                }
            }
            ChaosKind::ThermalEmergency { duration_s } => {
                if self.nodes[ev.node].is_alive() {
                    let rack_of = self.rack_of();
                    engine.credit(&mut self.nodes[ev.node], ev.node, rack_of);
                    self.nodes[ev.node].thermal_emergency(t, duration_s);
                }
            }
            ChaosKind::TelemetryBlackout { .. } => {
                // Blackouts are installed into the sensor stacks at setup; a
                // stray runtime one is a schedule bug, not a reason to lose
                // the whole fleet run — count it and carry on.
                self.stray_blackout_events += 1;
            }
        }
    }

    /// Applies correlated domain event `i` at `t` (geo runs only).
    fn apply_domain_event(&mut self, engine: &mut impl Schedule, i: usize, t: SimTime) {
        let Some(g) = self.geo.as_mut() else {
            return;
        };
        let (index, ev) = (g.index, g.domain_events[i]);
        match ev.kind {
            DomainChaosKind::RackPowerLoss { outage_s } => {
                let rack = ev.domain;
                let zone = index.zone_of_rack[rack];
                let caps = g.tree.leaf_caps();
                let siblings = || index.zone_nodes[zone].iter().filter(|&&n| index.rack_of[n] != rack);
                g.domain_records.push(DomainOutageRecord {
                    rack,
                    zone,
                    at_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
                    rack_cap_before_mw: index.rack_nodes[rack].iter().map(|&n| caps[n]).sum(),
                    rack_cap_after_mw: None,
                    zone_cap_before_mw: g.tree.zone_caps()[zone],
                    zone_cap_after_mw: None,
                    sibling_caps_before_mw: siblings().map(|&n| caps[n]).sum(),
                    sibling_caps_after_mw: None,
                });
                g.rack_breakers[rack].record_failure(t);
                g.rack_losses += 1;
                for &n in &index.rack_nodes[rack] {
                    if self.nodes[n].is_alive() {
                        self.crash(engine, n, t, outage_s);
                    } else {
                        // A node already down (independent crash, or an
                        // earlier loss of the same rack) loses its restart
                        // progress too — the whole rack is unpowered, so
                        // *every* node in the domain stays at 0 mW demand
                        // through the next apportionment.
                        self.nodes[n].extend_outage(t, outage_s);
                    }
                }
            }
            DomainChaosKind::ZoneThermal { duration_s } => {
                for &n in &index.zone_nodes[ev.domain] {
                    if self.nodes[n].is_alive() {
                        engine.credit(&mut self.nodes[n], n, &index.rack_of);
                        self.nodes[n].thermal_emergency(t, duration_s);
                    }
                }
                g.zone_thermal_emergencies += 1;
            }
            DomainChaosKind::ZonePartition { duration_s } => {
                // The zone is unreachable for a known window: its breaker
                // opens for exactly that window (no backoff escalation —
                // see `CircuitBreaker::force_open_until`). The nodes keep
                // running; their sensor blackout windows were installed at
                // setup from the same schedule.
                g.zone_breakers[ev.domain].force_open_until(t + SimDuration::from_secs_f64(duration_s));
                g.zone_partitions += 1;
            }
        }
    }

    /// Node `id` crashes under the cap the latest tick gave it (caps move
    /// only at ticks): it loses its job to the retry queue (which
    /// remembers the rack it died in, to soft-avoid it), trips its
    /// breaker, and opens a crash-audit record.
    fn crash(&mut self, engine: &mut impl Schedule, id: usize, t: SimTime, outage_s: f64) {
        let cap_before = self.caps()[id];
        let rack_of = self.rack_of();
        engine.credit(&mut self.nodes[id], id, rack_of);
        if let Some(job) = self.nodes[id].crash(t, outage_s) {
            self.jobs_lost += 1;
            self.retry.job_lost(job, t, rack_of.get(id).copied());
        }
        self.breakers[id].record_failure(t);
        self.crash_records.push(CrashRecord {
            node: id,
            at_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
            cap_before_mw: cap_before,
            cap_after_mw: None,
        });
    }

    /// One per-interval telemetry row — built once by the spine, so the CSV
    /// bytes cannot drift between engines.
    fn trace_row<S: Schedule>(&self, engine: &S, t: SimTime, interval: u64, max_over_w: f64) -> TraceRow {
        let window_start = SimTime::ZERO + self.cfg.control_period.mul_f64((interval - 1) as f64);
        let span_s = t.saturating_since(window_start).as_secs_f64();
        let dt = span_s.max(1e-12);
        // One pass over the fleet: it integrates each GPU meter once for both
        // sums and counts alongside. The energy terms, their order and the
        // -0.0 start are `Iterator::sum`'s, and each total term is
        // `Platform::total_energy_j`'s `gpu + cpu`. A settled node's meters
        // hold one segment across the window (`StepTrace::integral`'s one
        // term), and it is idle, healthy and `Up`.
        let (mut gpu_j, mut total_j) = (-0.0, -0.0);
        let (mut busy_nodes, mut healthy_nodes, mut up_nodes, mut cap_violations) = (0, 0, 0, 0);
        for (i, n) in self.nodes.iter().enumerate() {
            let (gpu, cpu) = match engine.slot(i) {
                Slot::Settled(f) => {
                    healthy_nodes += 1;
                    up_nodes += 1;
                    cap_violations += f.cap_violations;
                    (0.0 + f.gpu_w * span_s, 0.0 + f.cpu_w * span_s)
                }
                _ => {
                    busy_nodes += usize::from(!n.is_idle());
                    healthy_nodes += usize::from(n.healthy());
                    up_nodes += usize::from(n.is_alive());
                    cap_violations += n.cap_violations();
                    let p = n.platform();
                    (p.gpu_energy_j(window_start, t), p.cpu_energy_j(window_start, t))
                }
            };
            gpu_j += gpu;
            total_j += gpu + cpu;
        }
        TraceRow {
            interval,
            time_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
            queue_depth: self.scheduler.depth(),
            busy_nodes,
            healthy_nodes,
            gpu_power_w: gpu_j / dt,
            total_power_w: total_j / dt,
            fleet_cap_w: self.caps().iter().sum::<u64>() as f64 / 1000.0,
            budget_w: self.cfg.budget_w,
            completed: self.done.records.len() as u64,
            rejected: self.scheduler.rejected(),
            deadline_misses: self.done.deadline_misses,
            cap_violations,
            max_pair_over_cap_w: max_over_w,
            up_nodes,
            open_breakers: self.breakers.iter().filter(|b| b.state() == BreakerState::Open).count(),
            retry_depth: self.retry.pending_len(),
            dead_lettered: self.retry.dead_letter_total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use greengpu::WmaParams;
    use greengpu_sim::SimDuration;

    /// Regression for the old `unreachable!("blackouts are installed at
    /// setup")` panic: a telemetry-blackout event that reaches the
    /// runtime spine (a schedule bug by construction — `run_fleet`
    /// filters them out) must be counted and ignored, never abort the
    /// fleet. Exercised on both engines by driving the loop directly
    /// with a hand-built spine.
    #[test]
    fn stray_blackout_event_is_a_counted_noop() {
        for engine in [EngineKind::Serial, EngineKind::EventDriven] {
            let cfg = crate::FleetConfig::homogeneous(2, 0.9, Policy::LeastLoaded, SimDuration::from_secs(3), 11)
                .with_engine(engine);
            let mix: Vec<String> = cfg.arrivals.mix.iter().map(|(n, _)| n.clone()).collect();
            let nodes: Vec<Node> = cfg
                .nodes
                .iter()
                .enumerate()
                .map(|(i, nc)| Node::new(i, nc, &mix, 1234))
                .collect();
            let chaos_events = vec![ChaosEvent {
                at: SimTime::ZERO + SimDuration::from_secs(1),
                node: 0,
                kind: ChaosKind::TelemetryBlackout { duration_s: 1.0 },
            }];
            let spine = Spine::new(
                cfg.control_period,
                cfg.horizon,
                Box::new(std::iter::empty()),
                &chaos_events,
                &[],
            );
            let mut fleet = Fleet::new(&cfg, nodes, &chaos_events, None, 1_000_000);
            drive(&mut fleet, spine);
            assert_eq!(fleet.stray_blackout_events, 1, "engine {engine:?}");
            assert_eq!(fleet.rows.len(), 3, "engine {engine:?} still ran to the horizon");
        }
    }

    /// Twelve nodes in a 1×2×2×3 tree with unequal service histories
    /// (nodes 1, 4, 7 and 10 tie), node 3 crashed and node 8 busy, and
    /// the event-driven schedule after `ticks` control intervals.
    fn resting_fleet(ticks: u64) -> (Vec<Node>, EventDriven) {
        use crate::node::NodeConfig;
        let mix = vec!["hotspot".to_string()];
        let cfg = NodeConfig::default_node();
        let mut nodes: Vec<Node> = (0..12).map(|i| Node::new(i, &cfg, &mix, 1)).collect();
        let job = |id, size| JobSpec {
            id,
            workload: "hotspot".to_string(),
            arrival: SimTime::ZERO,
            size,
            deadline: None,
            tenant: 0,
        };
        for (i, size) in [(1, 1.0), (4, 1.0), (7, 1.0), (10, 1.0), (2, 3.0), (5, 2.0)] {
            nodes[i].dispatch(job(100, size), SimTime::ZERO);
            assert!(nodes[i].advance(SimTime::ZERO, SimTime::from_secs(1000)).is_some());
        }
        let mut engine = EventDriven::new(12, SimDuration::from_secs(1));
        // As if the engine had swept every second from zero while the jobs
        // ran: the first sweep below, at 1001 s, is the 1002nd.
        engine.sweeps = 1001;
        engine.credit(&mut nodes[3], 3, &[]);
        nodes[3].crash(SimTime::ZERO, 1e6);
        nodes[8].dispatch(job(101, 1e6), SimTime::ZERO);
        let caps = [crate::power::mw(0.8 * cfg.gpu.peak_power_w()); 12];
        let mut breakers: Vec<CircuitBreaker> = (0..12).map(|_| CircuitBreaker::new(1.0, 3)).collect();
        let (mut demands, mut moved) = (Vec::new(), Vec::new());
        for k in 1001..=1000 + ticks {
            let t = SimTime::from_secs(k);
            engine.lifecycle(&mut nodes, &mut breakers, t);
            engine.demands(&nodes, &mut demands, &mut moved, &[]);
            engine.control(&mut nodes, &caps, &[], &[], t);
        }
        (nodes, engine)
    }

    /// LeastLoaded dispatch through the event-driven schedule picks from
    /// its index of idle nodes, built from the slots (a settled node's
    /// `busy_s` is read there), checking each entry's node, rack and zone
    /// breakers one by one. It must
    /// pick exactly what `pick_node` picks, asked afresh for each job
    /// under the whole mask (with a rack-filtered mask first for a tagged
    /// job), and merge the placed nodes into the busy list in id order.
    #[test]
    fn slot_built_least_loaded_dispatch_picks_as_repeated_pick_node() {
        use crate::policy::{pick_node, Policy};
        use crate::topology::Topology;
        let index = Topology::uniform(1, 2, 2, 3).index();
        let job = |id: usize, now: SimTime| JobSpec {
            id: id as u64,
            workload: "hotspot".to_string(),
            arrival: now,
            size: 1.0,
            deadline: None,
            tenant: 0,
        };
        let (r0, r1, r3) = (Some(0), Some(1), Some(3));
        /// Open node, rack and zone breakers, and each queued job's rack to
        /// avoid.
        type Case = (&'static [usize], &'static [usize], &'static [usize], Vec<Option<usize>>);
        let cases: [Case; 5] = [
            (&[], &[], &[], vec![None; 14]),
            (
                &[0, 6],
                &[],
                &[],
                vec![r0, None, r1, r3, None, r0, r3, r3, None, r1, r1],
            ),
            (&[11], &[3], &[], vec![r1, None, r1, r0, None, None, None, None]),
            (&[], &[], &[0], vec![r3, r3, None, None, None]),
            (&[], &[], &[], vec![]),
        ];
        // After 3 ticks every idle node is awake. After 6 each coasts in a
        // settled slot: the four without a history on the idle orbit, the
        // six that served a job off it, their lowest pair already at weight
        // 1.0. After 200 the four on the orbit rest parked, past a park
        // transition no sweep touched, and the six off it still coast.
        for ((ticks, coasting, parked), (open_nodes, open_racks, open_zones, avoid)) in
            [(3, 0, 0), (6, 10, 0), (200, 6, 4)]
                .into_iter()
                .flat_map(|at| cases.iter().map(move |case| (at, case)))
        {
            let (mut nodes, mut engine) = resting_fleet(ticks);
            let now = SimTime::from_secs(1001 + ticks);
            // Where each settled node rests is the node's to say, once
            // credited: read it from a credited copy.
            let (mut credited, mut audit) = resting_fleet(ticks);
            let settled = audit.slots.iter().filter(|s| matches!(s, Slot::Settled(_))).count();
            for (i, node) in credited.iter_mut().enumerate() {
                audit.unsettle(node, i, &[]);
            }
            let resting = |parked: bool| {
                let kind = |n: &&Node| n.is_resting() && n.is_parked() == parked;
                credited.iter().filter(kind).count()
            };
            assert_eq!(
                (settled, resting(false), resting(true)),
                (coasting + parked, coasting, parked),
                "after {ticks} ticks"
            );
            let mut breakers: Vec<CircuitBreaker> = (0..12).map(|_| CircuitBreaker::new(1.0, 3)).collect();
            let mut geo = GeoState::new(&index, &[], &LifecycleParams::default());
            for &i in *open_nodes {
                breakers[i].record_failure(now);
            }
            for &r in *open_racks {
                geo.rack_breakers[r].record_failure(now);
            }
            for &z in *open_zones {
                geo.zone_breakers[z].record_failure(now);
            }
            let gate = Gate {
                breakers: &breakers,
                geo: Some(&geo),
            };
            let mut scheduler = Scheduler::new(Policy::LeastLoaded, 64);
            for (id, &rack) in avoid.iter().enumerate().rev() {
                scheduler.requeue_front(job(id, now), rack);
            }
            engine.dispatch(&mut scheduler, &mut nodes, &gate, &index.rack_of, now);
            assert!(engine.mask.is_empty(), "LeastLoaded builds no fleet-sized mask");
            let mut by_job = vec![usize::MAX; avoid.len() - scheduler.depth()];
            for (i, node) in nodes.iter_mut().enumerate() {
                if let Some(rec) = node.advance(now, now + SimDuration::from_secs(100_000)) {
                    by_job[rec.spec.id as usize] = i;
                }
            }

            let (mut twins, _) = resting_fleet(ticks);
            let mut allowed = Vec::new();
            gate.mask(&mut allowed);
            let (mut cursor, mut want) = (0, Vec::new());
            for (id, &rack) in avoid.iter().enumerate() {
                let job = job(id, now);
                let avoiding: Vec<bool> = (0..12).map(|i| allowed[i] && Some(index.rack_of[i]) != rack).collect();
                let pick = rack
                    .and_then(|_| pick_node(Policy::LeastLoaded, &job, &twins, &avoiding, &mut cursor, now))
                    .or_else(|| pick_node(Policy::LeastLoaded, &job, &twins, &allowed, &mut cursor, now));
                let Some(i) = pick else { break };
                twins[i].dispatch(job, now);
                want.push(i);
            }
            assert_eq!(
                by_job, want,
                "open {open_nodes:?} {open_racks:?} {open_zones:?}, avoid {avoid:?}"
            );
            want.sort_unstable();
            assert_eq!(engine.busy, want, "the busy list holds the placed nodes, ascending");
        }
    }

    /// What a spy saw when a node was woken by a chaos event or by
    /// dispatch.
    #[derive(Debug, Clone)]
    struct Wake {
        node: usize,
        /// Its slot was settled, with a checkpoint stamp pending.
        stamped: bool,
        /// It held a checkpoint before the wake.
        had_checkpoint: bool,
        /// Its checkpoint's text after the wake's credit.
        checkpoint: Option<String>,
    }

    /// A schedule wrapped to log every wake of a node by a chaos event
    /// (through `credit`) or by dispatch.
    struct Spy<'a, S> {
        inner: S,
        log: &'a mut Vec<Wake>,
    }

    impl<S: Schedule> Schedule for Spy<'_, S> {
        fn split(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions) {
            self.inner.split(nodes, from, to, done);
        }

        fn advance(&mut self, nodes: &mut [Node], from: SimTime, to: SimTime, done: &mut Completions) {
            self.inner.advance(nodes, from, to, done);
        }

        fn credit(&mut self, node: &mut Node, i: usize, rack_of: &[usize]) {
            let stamped = self.inner.owes_checkpoint(i);
            let had_checkpoint = node.checkpoint_data().is_some();
            self.inner.credit(node, i, rack_of);
            self.log.push(Wake {
                node: i,
                stamped,
                had_checkpoint,
                checkpoint: node.checkpoint_data(),
            });
        }

        fn attach(&mut self, index: &TopologyIndex) {
            self.inner.attach(index);
        }

        fn lifecycle(&mut self, nodes: &mut [Node], breakers: &mut [CircuitBreaker], t: SimTime) {
            self.inner.lifecycle(nodes, breakers, t);
        }

        fn slot(&self, i: usize) -> &Slot {
            self.inner.slot(i)
        }

        fn demands<'m>(
            &mut self,
            nodes: &[Node],
            demands: &mut Vec<NodeDemand>,
            moved: &'m mut Vec<usize>,
            rack_of: &[usize],
        ) -> Option<&'m [usize]> {
            self.inner.demands(nodes, demands, moved, rack_of)
        }

        fn control(
            &mut self,
            nodes: &mut [Node],
            caps: &[MilliWatts],
            recapped: &[usize],
            rack_of: &[usize],
            t: SimTime,
        ) -> f64 {
            self.inner.control(nodes, caps, recapped, rack_of, t)
        }

        fn count_up(&mut self, nodes: &[Node], rack_of: &[usize], up: &mut [usize]) {
            self.inner.count_up(nodes, rack_of, up);
        }

        fn dispatch(
            &mut self,
            scheduler: &mut Scheduler,
            nodes: &mut [Node],
            gate: &Gate,
            rack_of: &[usize],
            t: SimTime,
        ) {
            let idle: Vec<(usize, bool, bool)> = (0..nodes.len())
                .filter(|&i| nodes[i].is_idle())
                .map(|i| (i, self.inner.owes_checkpoint(i), nodes[i].checkpoint_data().is_some()))
                .collect();
            self.inner.dispatch(scheduler, nodes, gate, rack_of, t);
            for (i, stamped, had_checkpoint) in idle {
                if !nodes[i].is_idle() {
                    self.log.push(Wake {
                        node: i,
                        stamped,
                        had_checkpoint,
                        checkpoint: nodes[i].checkpoint_data(),
                    });
                }
            }
        }

        fn checkpoint(&mut self, nodes: &mut [Node], t: SimTime) {
            self.inner.checkpoint(nodes, t);
        }
    }

    /// A planted job of `size` on workload `w` (0 hotspot, 1 kmeans)
    /// arriving at `at`.
    fn planted_job(id: u64, at: SimTime, w: usize, size: f64) -> JobSpec {
        JobSpec {
            id,
            workload: ["hotspot", "kmeans"][w].to_string(),
            arrival: at,
            size,
            deadline: None,
            tenant: 0,
        }
    }

    /// Drives `engine` over a 1×5×2×3 geo fleet (30 idle nodes, zone `z`
    /// holding nodes `6z..6z+6`, rack `r` nodes `3r..3r+3`) through a
    /// planted spine: a tick each second to 100 s, the `jobs` (in arrival
    /// order), and the `chaos` and `domain` events. Returns everything the
    /// run reports, and the nodes.
    fn run_planted<S: Schedule>(
        engine: S,
        jobs: &[JobSpec],
        chaos: &[ChaosEvent],
        domain: &[DomainChaosEvent],
    ) -> (String, Vec<Node>) {
        use crate::topology::Topology;
        let cfg = crate::FleetConfig::homogeneous(30, 0.8, Policy::LeastLoaded, SimDuration::from_secs(100), 0x57A4)
            .with_topology(Topology::uniform(1, 5, 2, 3));
        let mix: Vec<String> = cfg.arrivals.mix.iter().map(|(n, _)| n.clone()).collect();
        let nodes: Vec<Node> = cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nc)| {
                let mut node = Node::new(i, nc, &mix, 1234);
                node.set_lifecycle(cfg.lifecycle.restart_s, cfg.lifecycle.probation_intervals);
                node
            })
            .collect();
        let index = cfg.topology.as_ref().map(|t| t.index()).expect("a geo fleet");
        let geo = GeoState::new(&index, domain, &cfg.lifecycle);
        let spine = Spine::new(
            cfg.control_period,
            cfg.horizon,
            Box::new(jobs.iter().cloned()),
            chaos,
            domain,
        );
        let mut fleet = Fleet::new(&cfg, nodes, chaos, Some(geo), crate::power::mw_floor(cfg.budget_w));
        fleet.run(engine, spine);
        let geo = fleet.geo.expect("a geo fleet keeps its hierarchy");
        let counters: Vec<_> = fleet
            .nodes
            .iter()
            .map(|n| {
                (
                    n.completed(),
                    n.crashes(),
                    n.warm_restarts(),
                    n.cold_restarts(),
                    n.thermal_events(),
                )
            })
            .collect();
        let report = format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            fleet.rows, fleet.done.records, fleet.crash_records, geo.rows, geo.domain_records, counters
        );
        let fleet_csv = crate::FleetTrace { rows: fleet.rows }.to_table("planted").to_csv();
        let geo_csv = crate::GeoTrace { rows: geo.rows }.to_table("planted").to_csv();
        (format!("{report}\n{fleet_csv}\n{geo_csv}"), fleet.nodes)
    }

    /// Every kind of wake lands on a settled node with a checkpoint stamp
    /// pending (coasting: none rests the 155 ticks it takes to park),
    /// each node's first: dispatch (node 0), a
    /// crash exactly on a tick (1) and mid-interval (2), a thermal
    /// emergency on a tick (3), mid-interval (4) and inside one interval
    /// (5), rack power losses on a tick (rack 2, nodes 6–8) and
    /// mid-interval (rack 9, nodes 27–29), and zone thermal events on a
    /// tick (zone 2, nodes 12–17) and mid-interval (zone 3, nodes 18–23).
    /// Each rack loss has a zone to itself, since a restart may hand the
    /// zone's other nodes a new cap. Each wake leaves the checkpoint the
    /// serial schedule recorded at its latest checkpoint tick; each
    /// crashed node held none until its crash was credited, and restarts
    /// warm from that one. The runs report the same.
    #[test]
    fn each_wake_credits_a_stamped_coasting_node_and_a_crash_restores_its_checkpoint() {
        let at = |s: f64| SimTime::from_secs_f64(s);
        let node = |at: SimTime, node: usize, kind: ChaosKind| ChaosEvent { at, node, kind };
        let chaos = [
            node(at(41.0), 1, ChaosKind::Crash { outage_s: 3.0 }),
            node(at(47.5), 2, ChaosKind::Crash { outage_s: 3.0 }),
            node(at(52.0), 3, ChaosKind::ThermalEmergency { duration_s: 4.0 }),
            node(at(58.4), 4, ChaosKind::ThermalEmergency { duration_s: 3.0 }),
            node(at(63.2), 5, ChaosKind::ThermalEmergency { duration_s: 0.3 }),
        ];
        let domain = |at: SimTime, domain: usize, kind: DomainChaosKind| DomainChaosEvent { at, domain, kind };
        let domains = [
            domain(at(66.0), 2, DomainChaosKind::ZoneThermal { duration_s: 5.0 }),
            domain(at(71.0), 2, DomainChaosKind::RackPowerLoss { outage_s: 4.0 }),
            domain(at(77.3), 3, DomainChaosKind::ZoneThermal { duration_s: 5.0 }),
            domain(at(83.6), 9, DomainChaosKind::RackPowerLoss { outage_s: 4.0 }),
        ];
        let first_wakes = |log: &[Wake]| {
            let mut first: Vec<Option<Wake>> = vec![None; 30];
            for wake in log {
                first[wake.node].get_or_insert_with(|| wake.clone());
            }
            first
        };
        let (mut log, mut eager_log) = (Vec::new(), Vec::new());
        let spy = Spy {
            inner: EventDriven::new(30, SimDuration::from_secs(1)),
            log: &mut log,
        };
        let job = [planted_job(0, SimTime::from_micros(33_300_000), 0, 1.0)];
        let (got, nodes) = run_planted(spy, &job, &chaos, &domains);
        let eager = Spy {
            inner: Serial::default(),
            log: &mut eager_log,
        };
        let (want, _) = run_planted(eager, &job, &chaos, &domains);
        assert_eq!(got, want, "the event-driven run diverged from the serial one");
        let (first, eager_first) = (first_wakes(&log), first_wakes(&eager_log));
        for i in (0..9).chain(12..24).chain(27..30) {
            let (Some(wake), Some(eager)) = (&first[i], &eager_first[i]) else {
                panic!(
                    "node {i} was not woken under both schedules: {:?} {:?}",
                    first[i], eager_first[i]
                );
            };
            assert!(wake.stamped, "node {i}: {wake:?}");
            assert!(wake.checkpoint.is_some(), "node {i}: no checkpoint after its wake");
            assert_eq!(wake.checkpoint, eager.checkpoint, "node {i}");
        }
        for i in [1, 2, 6, 7, 8, 27, 28, 29] {
            assert!(first[i].as_ref().is_some_and(|w| !w.had_checkpoint), "node {i}");
            assert_eq!((nodes[i].warm_restarts(), nodes[i].cold_restarts()), (1, 0), "node {i}");
        }
    }

    /// Arrivals exactly at a tick (20 s), at a tick that a node crash
    /// (41 s), a zone thermal event (66 s) or a rack power loss (71 s)
    /// shares, at a mid-interval crash (47.5 s) and a mid-interval zone
    /// thermal event (77.3 s), and two at one instant (55.55 s). At one
    /// instant the spine runs the tick, then the arrivals by id, then
    /// node chaos, then domain events, so each job waits for the tick
    /// after it and the two at one instant queue in id order. Both
    /// engines reproduce the digest the spine gave when it held every
    /// arrival as an event.
    #[test]
    fn same_instant_arrivals_keep_the_spine_order() {
        let at = |s: f64| SimTime::from_secs_f64(s);
        let node = |at: SimTime, node: usize, kind: ChaosKind| ChaosEvent { at, node, kind };
        let chaos = [
            node(at(41.0), 1, ChaosKind::Crash { outage_s: 3.0 }),
            node(at(47.5), 2, ChaosKind::Crash { outage_s: 3.0 }),
        ];
        let domain = |at: SimTime, domain: usize, kind: DomainChaosKind| DomainChaosEvent { at, domain, kind };
        let domains = [
            domain(at(66.0), 2, DomainChaosKind::ZoneThermal { duration_s: 5.0 }),
            domain(at(71.0), 0, DomainChaosKind::RackPowerLoss { outage_s: 4.0 }),
            domain(at(77.3), 0, DomainChaosKind::ZoneThermal { duration_s: 5.0 }),
        ];
        let jobs: Vec<JobSpec> = [
            (20.0, 0, 0.2),
            (33.3, 1, 0.4),
            (41.0, 0, 0.15),
            (47.5, 1, 0.1),
            (55.55, 0, 0.3),
            (55.55, 1, 0.12),
            (66.0, 0, 0.1),
            (71.0, 1, 0.1),
            (77.3, 0, 0.1),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (s, w, size))| planted_job(id as u64, at(s), w, size))
        .collect();
        let (serial, _) = run_planted(Serial::default(), &jobs, &chaos, &domains);
        let (event, _) = run_planted(EventDriven::new(30, SimDuration::from_secs(1)), &jobs, &chaos, &domains);
        assert_eq!(event, serial, "the event-driven run diverged from the serial one");
        let mut h = greengpu_sim::Fnv64::new();
        serial.bytes().for_each(|b| h.push_byte(b));
        assert_eq!(h.finish(), 926_298_022_086_828_000, "the planted spine's digest moved");
    }

    /// [`Node::learner_counts`]: what a run leaves in a node that no
    /// report or trace carries.
    type NodeAudit = (Option<String>, Option<u64>, u64, u64, [u64; 3]);

    /// Runs `cfg` under both engines, the event-driven one crediting every
    /// settled slot after the drive ([`Schedule::credit_all`]), and
    /// asserts that every node's [`NodeAudit`] and the trace equal
    /// Serial's. Returns Serial's report and audits.
    fn assert_nodes_agree(cfg: &crate::FleetConfig) -> (crate::FleetReport, Vec<NodeAudit>) {
        let run = |engine| {
            let (report, nodes) = crate::fleet::run_fleet_nodes(&cfg.clone().with_engine(engine));
            (report, nodes.iter().map(Node::learner_counts).collect::<Vec<_>>())
        };
        let (serial, audits) = run(EngineKind::Serial);
        let (event, event_audits) = run(EngineKind::EventDriven);
        let csv = |r: &crate::FleetReport| r.trace.to_table("audit").to_csv();
        assert_eq!(csv(&event), csv(&serial), "seed {:#x}: the traces diverged", cfg.seed);
        for (i, (got, want)) in event_audits.iter().zip(&audits).enumerate() {
            assert_eq!(got, want, "seed {:#x}: node {i}", cfg.seed);
        }
        (serial, audits)
    }

    /// A `n`-node fleet of WMA learners at `params` under a trickle of
    /// arrivals for `secs` seconds: most nodes idle for long stretches, so
    /// at λ = 0.8 they coast, park at the idle fixed point and are credited
    /// parked ticks. A flat fleet caps an idle node at its floor, which
    /// only the lowest pair fits, so the cap masks pairs on every resting
    /// tick.
    fn trickle_cfg(n: usize, params: WmaParams, secs: u64, rate: f64, seed: u64) -> crate::FleetConfig {
        let spec = greengpu::PolicySpec::Wma(params);
        let nodes = vec![crate::NodeConfig::default_node().with_freq_policy(spec); n];
        let mut cfg =
            crate::FleetConfig::from_nodes(nodes, 0.8, Policy::LeastLoaded, SimDuration::from_secs(secs), seed);
        cfg.arrivals.rate_per_s = rate;
        cfg
    }

    /// Default learners at two seeds, and at one seed learners whose idle
    /// losses tie with the lowest pair's (α_core = 0, α_mem = 0 or φ = 1):
    /// the lowest pair keeps its weight of 1.0 there too, so their idle
    /// nodes coast and park as the default's do.
    #[test]
    fn trickle_fleets_agree_node_by_node() {
        use crate::topology::Topology;
        use greengpu_hw::ChaosPlan;
        let d = WmaParams::default();
        let tied = [
            WmaParams { alpha_core: 0.0, ..d },
            WmaParams { alpha_mem: 0.0, ..d },
            WmaParams { phi: 1.0, ..d },
        ];
        for (seed, params) in [(0xA0D1_0001, d), (0xA0D1_0002, d)]
            .into_iter()
            .chain(tied.map(|p| (0xA0D1_0001, p)))
        {
            let chaos = ChaosPlan::crashes_only(seed ^ 0xC4A05, 0.001, (2.0, 6.0)).with_thermal(0.001, (10.0, 30.0));
            let flat = trickle_cfg(6, params, 400, 0.01, seed).with_chaos(chaos);
            let topo = Topology::uniform(1, 2, 2, 3);
            let geo = trickle_cfg(topo.n_nodes(), params, 400, 0.02, seed)
                .with_chaos(
                    chaos
                        .with_rack_loss(0.003, (3.0, 8.0))
                        .with_zone_thermal(0.003, (10.0, 30.0)),
                )
                .with_topology(topo);
            for (cfg, masks) in [(flat, true), (geo, false)] {
                let (report, audits) = assert_nodes_agree(&cfg);
                // A node idle through the whole run parks at the idle
                // fixed point, on the flat fleet under a cap that masks
                // pairs on every tick.
                let parked = |(i, (_, intervals, masked, ..)): (usize, &NodeAudit)| {
                    report.per_node_completed[i] == 0 && *intervals > Some(300) && (!masks || *masked > 300)
                };
                assert!(
                    audits.iter().enumerate().any(parked),
                    "seed {seed:#x}, {params:?}: {audits:?}"
                );
            }
        }
    }

    /// λ = 0.95 cuts the idle orbit off at 512 rows before its fixed
    /// point, so a settled node has no count to a park: it coasts in a
    /// settled slot through the last row and past it, and its credit
    /// computes the idle updates past the cut.
    #[test]
    fn cut_orbit_fleets_agree_node_by_node() {
        use crate::topology::Topology;
        let cut = WmaParams {
            history: 0.95,
            ..WmaParams::default()
        };
        for seed in [0xC07_0001, 0xC07_0002] {
            let topo = Topology::uniform(1, 2, 2, 3);
            assert_nodes_agree(&trickle_cfg(12, cut, 700, 0.005, seed));
            assert_nodes_agree(&trickle_cfg(topo.n_nodes(), cut, 700, 0.005, seed).with_topology(topo));
        }
    }

    /// A node that crashes after it parked restores the checkpoint the
    /// engine recorded while it rested parked, with every parked tick in
    /// its interval count, and every later checkpoint descends from it.
    #[test]
    fn a_checkpoint_taken_while_parked_restores_as_serial_recorded_it() {
        use greengpu_hw::ChaosPlan;
        let seed = 0xA0D1_0003;
        let chaos = ChaosPlan::crashes_only(seed ^ 0xC4A05, 0.002, (2.0, 6.0));
        let cfg = trickle_cfg(6, WmaParams::default(), 400, 1e-4, seed).with_chaos(chaos);
        let (report, _) = assert_nodes_agree(&cfg);
        let late = report.crash_records.iter().filter(|c| c.at_s > 170.0).count();
        assert!(report.completed.is_empty() && late > 0, "{:?}", report.crash_records);
        assert_eq!(report.cold_restarts, 0, "every restart restores a checkpoint");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The idle index picks as the scan-built list does, one pick
        /// after another over one candidate set: `busy_s` drawn from a few
        /// values, `0.0` and ties among them, some nodes not candidates,
        /// and each pick asked first outside a random rack, as a tagged
        /// retry asks.
        #[test]
        fn index_picks_as_take_least_loaded(
            nodes in proptest::collection::vec((0usize..6, proptest::prelude::any::<bool>()), 1..48),
            avoid in proptest::collection::vec(0usize..5, 1..60),
        ) {
            let values = [0.0, 0.0, 1.5, 1.5, 2.25, 1e9];
            let rack_of = |i: usize| i / 4;
            let mut free: Vec<(f64, usize)> = nodes
                .iter()
                .enumerate()
                .filter(|(_, &(_, candidate))| candidate)
                .map(|(i, &(v, _))| (values[v], i))
                .collect();
            let mut index: IdleIndex = free.iter().copied().collect();
            for rack in avoid {
                // Rack 4 and up avoids nothing.
                let outside = |i: usize| rack >= 4 || rack_of(i) != rack;
                let want = crate::scheduler::take_least_loaded(&mut free, outside)
                    .or_else(|| crate::scheduler::take_least_loaded(&mut free, |_| true));
                let got = index.first(outside).or_else(|| index.first(|_| true));
                proptest::prop_assert_eq!(got, want);
                if let Some(i) = got {
                    proptest::prop_assert!(index.remove(values[nodes[i].0], i));
                }
            }
        }
    }

    #[test]
    fn engine_flag_parsing_round_trips() {
        for engine in [EngineKind::Serial, EngineKind::EventDriven] {
            assert_eq!(EngineKind::from_flag(engine.label()), Ok(engine));
        }
        for name in ["parallel", "turbo"] {
            let err = EngineKind::from_flag(name).expect_err("only serial and event parse");
            assert!(err.contains("serial | event"), "{name}: {err}");
        }
        assert_eq!(EngineKind::default(), EngineKind::Serial);
    }
}
