//! A traced replay of `run_fleet` on the EventDriven engine, driven
//! through the cluster crate's `pub` calls with one span per batch.
//!
//! It follows `run_fleet`'s set-up and the EventDriven engine's order:
//! advance only the busy list, put dead nodes on a wake agenda, reuse a
//! parked node's demand, skip deep-parked nodes, skip the flat apportion
//! when no demand moved, and keep the checkpoint cadence. Its trace rows,
//! geo rows and completion records must equal `run_fleet`'s (see
//! [`compare`]), so the per-layer split describes the same simulation
//! the end-to-end run timed.

use crate::spans::{Layer, Recorder};
use crate::workloads::{render_fleet, FleetRun};
use greengpu_cluster::job::generate_arrivals;
use greengpu_cluster::power::{apportion, mw_floor, MilliWatts, NodeDemand};
use greengpu_cluster::{
    BreakerState, BudgetTree, CircuitBreaker, CrashRecord, DomainOutageRecord, EngineKind, FleetConfig, FleetTrace,
    GeoTrace, GeoTraceRow, JobRecord, LifecycleEvent, Node, NodeState, RetryQueue, Scheduler, ServiceProfile,
    TenantDispatcher, Topology, TopologyIndex, TraceRow,
};
use greengpu_hw::{ChaosEvent, ChaosKind, DomainChaosEvent, DomainChaosKind};
use greengpu_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

enum Event {
    Arrival(usize),
    Tick,
    Chaos(usize),
    Domain(usize),
}

/// The replay's outputs and the ratios counted where the work happens.
pub struct Replay {
    pub trace: FleetTrace,
    pub geo_trace: GeoTrace,
    pub completed: Vec<JobRecord>,
    pub crash_records: Vec<CrashRecord>,
    pub domain_records: Vec<DomainOutageRecord>,
    pub csv: String,
    pub geo_csv: String,
    /// Live node-intervals whose control tick was skipped (deep park).
    pub deep_parked: u64,
    /// Node-intervals on live nodes.
    pub live_node_intervals: u64,
    /// Flat-fleet intervals whose apportion was skipped.
    pub apportion_skipped: u64,
    /// Flat-fleet intervals.
    pub flat_intervals: u64,
    /// Jobs handed to admission.
    pub submitted: u64,
    /// Jobs admission accepted.
    pub admitted: u64,
}

/// Hierarchy state of a geo run (the engine's `GeoState`).
struct Geo {
    index: TopologyIndex,
    tree: BudgetTree,
    rack_breakers: Vec<CircuitBreaker>,
    zone_breakers: Vec<CircuitBreaker>,
    domain_records: Vec<DomainOutageRecord>,
    rows: Vec<GeoTraceRow>,
    interior_cap_violations: u64,
}

/// Per-run bookkeeping the chaos handlers update.
struct Books {
    crash_records: Vec<CrashRecord>,
    last_caps: Vec<MilliWatts>,
    rack_of: Vec<usize>,
}

/// Replays `cfg` with spans into `rec`. Fails on a config the replay
/// does not cover (serving layer, engines other than EventDriven) or one
/// `run_fleet` would reject.
pub fn replay(cfg: &FleetConfig, rec: &mut Recorder) -> Result<Replay, String> {
    cfg.try_validate()?;
    if cfg.serving.is_some() {
        return Err("the replay does not cover the serving layer".to_string());
    }
    if cfg.engine != EngineKind::EventDriven {
        return Err("the replay follows the EventDriven engine only".to_string());
    }
    let n = cfg.nodes.len();
    let mix_names: Vec<String> = cfg.arrivals.mix.iter().map(|(name, _)| name.clone()).collect();
    let mut root = SplitMix64::new(cfg.seed);
    let profile_seed = root.next_u64();
    let arrival_seed = root.next_u64();
    let horizon_s = cfg.horizon.as_secs_f64();

    // Set-up, in run_fleet's order: one profile table per distinct GPU
    // spec, shared by that spec's nodes.
    let span = rec.begin(Layer::ProfileBuild, 0);
    let mut tables: BTreeMap<String, BTreeMap<String, ServiceProfile>> = BTreeMap::new();
    let mut keys: Vec<String> = Vec::with_capacity(n);
    let mut builds = 0u64;
    for nc in &cfg.nodes {
        let key = format!("{:?}", nc.gpu);
        if !tables.contains_key(&key) {
            let mut table = BTreeMap::new();
            for name in &mix_names {
                let profile = ServiceProfile::build(name, profile_seed, &nc.gpu)
                    .ok_or_else(|| format!("unknown workload {name:?} in mix"))?;
                table.insert(name.clone(), profile);
                builds += 1;
            }
            tables.insert(key.clone(), table);
        }
        keys.push(key);
    }
    rec.end(span, builds);

    let span = rec.begin(Layer::NodeNew, 0);
    let mut nodes: Vec<Node> = Vec::with_capacity(n);
    for (i, (nc, key)) in cfg.nodes.iter().zip(&keys).enumerate() {
        nodes.push(Node::new_with_profiles(i, nc, tables[key].clone(), profile_seed));
    }
    for node in &mut nodes {
        node.set_lifecycle(cfg.lifecycle.restart_s, cfg.lifecycle.probation_intervals);
    }
    rec.end(span, 2 * n as u64);

    let topo_index = cfg.topology.as_ref().map(Topology::index);
    let mut chaos_events: Vec<ChaosEvent> = Vec::new();
    let mut domain_events: Vec<DomainChaosEvent> = Vec::new();
    if let Some(plan) = &cfg.chaos {
        let span = rec.begin(Layer::Lifecycle, 0);
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n];
        for ev in plan.schedule(n, horizon_s) {
            match ev.kind {
                ChaosKind::TelemetryBlackout { duration_s } => {
                    per_node[ev.node].push((ev.at, ev.at + SimDuration::from_secs_f64(duration_s)));
                }
                ChaosKind::Crash { .. } | ChaosKind::ThermalEmergency { .. } => chaos_events.push(ev),
            }
        }
        let mut calls = 1;
        if let Some(idx) = &topo_index {
            domain_events = plan.schedule_domains(idx.n_racks(), idx.n_zones(), horizon_s);
            calls += 1;
            for ev in &domain_events {
                if let DomainChaosKind::ZonePartition { duration_s } = ev.kind {
                    let until = ev.at + SimDuration::from_secs_f64(duration_s);
                    for &node in &idx.zone_nodes[ev.domain] {
                        per_node[node].push((ev.at, until));
                    }
                }
            }
            for windows in &mut per_node {
                windows.sort();
            }
        }
        rec.end(span, calls);
        let span = rec.begin(Layer::NodeNew, 0);
        let mut installs = 0;
        for (node, windows) in nodes.iter_mut().zip(per_node) {
            if !windows.is_empty() {
                node.set_blackouts(windows);
                installs += 1;
            }
        }
        rec.end(span, installs);
    }

    let span = rec.begin(Layer::Power, 0);
    let floor_sum_mw: u64 = nodes.iter().map(|node| node.demand().floor_mw).sum();
    rec.end(span, n as u64);
    let budget_mw = mw_floor(cfg.budget_w);
    if budget_mw < floor_sum_mw {
        return Err(format!(
            "budget {budget_mw} mW cannot cover the fleet floor {floor_sum_mw} mW"
        ));
    }

    let mut ref_time_s: BTreeMap<String, f64> = BTreeMap::new();
    for name in &mix_names {
        let profile = nodes[0].profile(name).ok_or_else(|| format!("{name:?} not profiled"))?;
        ref_time_s.insert(name.clone(), profile.peak_time_s());
    }
    let span = rec.begin(Layer::GenerateArrivals, 0);
    let jobs = generate_arrivals(arrival_seed, &cfg.arrivals, cfg.horizon, &ref_time_s);
    rec.end(span, 1);

    let span = rec.begin(Layer::SimEvent, 0);
    let mut spine: EventQueue<Event> = EventQueue::new();
    let end = SimTime::ZERO + cfg.horizon;
    let mut scheduled = 0u64;
    let mut tick_at = SimTime::ZERO;
    while tick_at <= end {
        spine.schedule(tick_at, Event::Tick);
        tick_at += cfg.control_period;
        scheduled += 1;
    }
    for (i, job) in jobs.iter().enumerate() {
        spine.schedule(job.arrival, Event::Arrival(i));
    }
    for (i, ev) in chaos_events.iter().enumerate() {
        spine.schedule(ev.at, Event::Chaos(i));
    }
    for (i, ev) in domain_events.iter().enumerate() {
        spine.schedule(ev.at, Event::Domain(i));
    }
    scheduled += (jobs.len() + chaos_events.len() + domain_events.len()) as u64;
    rec.end(span, scheduled);
    // Room for every span the drive loop can open: a pop, an advance and
    // a handler per event, plus a dozen per control interval.
    rec.reserve(3 * scheduled as usize + 16 * (scheduled as usize - jobs.len()) + 64);

    let mut scheduler = Scheduler::new(cfg.policy, cfg.queue_capacity);
    let lc = &cfg.lifecycle;
    let mut breakers: Vec<CircuitBreaker> = (0..n)
        .map(|_| CircuitBreaker::new(lc.breaker_cooldown_s, lc.breaker_max_backoff_exp))
        .collect();
    let mut retry = RetryQueue::new(lc.max_retries, lc.retry_backoff_s, lc.dead_letter_capacity);
    let mut dispatcher = TenantDispatcher::passthrough();
    let mut geo = topo_index.map(|index| Geo {
        tree: BudgetTree::new(&index),
        rack_breakers: (0..index.n_racks())
            .map(|_| CircuitBreaker::new(lc.rack_breaker_cooldown_s, lc.breaker_max_backoff_exp))
            .collect(),
        zone_breakers: (0..index.n_zones())
            .map(|_| CircuitBreaker::new(lc.zone_breaker_cooldown_s, lc.breaker_max_backoff_exp))
            .collect(),
        domain_records: Vec::new(),
        rows: Vec::new(),
        interior_cap_violations: 0,
        index,
    });

    // The drive loop.
    let mut books = Books {
        crash_records: Vec::new(),
        last_caps: vec![0; n],
        rack_of: geo.as_ref().map_or_else(Vec::new, |g| g.index.rack_of.clone()),
    };
    let mut last_completed: Vec<u64> = vec![0; n];
    let mut completed: Vec<JobRecord> = Vec::new();
    let mut deadline_misses = 0u64;
    let mut rows: Vec<TraceRow> = Vec::new();
    let mut t = SimTime::ZERO;
    let mut interval = 0u64;
    let mut tick_no = 0u64;
    let mut busy: Vec<usize> = Vec::new();
    let mut agenda: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut dormant: Vec<bool> = vec![false; n];
    let mut prev_demands: Vec<NodeDemand> = Vec::new();
    let mut caps: Vec<MilliWatts> = Vec::new();
    let mut out = Replay {
        trace: FleetTrace::default(),
        geo_trace: GeoTrace::default(),
        completed: Vec::new(),
        crash_records: Vec::new(),
        domain_records: Vec::new(),
        csv: String::new(),
        geo_csv: String::new(),
        deep_parked: 0,
        live_node_intervals: 0,
        apportion_skipped: 0,
        flat_intervals: 0,
        submitted: 0,
        admitted: 0,
    };

    loop {
        let span = rec.begin(Layer::SimEvent, tick_no);
        let popped = spine.pop();
        rec.end(span, 1);
        let Some((at, event)) = popped else {
            break;
        };
        if !busy.is_empty() {
            let span = rec.begin(Layer::Advance, tick_no);
            let calls = busy.len() as u64;
            advance_busy(&mut nodes, &mut busy, t, at, &mut completed, &mut deadline_misses);
            rec.end(span, calls);
        }
        t = at;
        match event {
            Event::Arrival(i) => {
                let span = rec.begin(Layer::Scheduler, tick_no);
                dispatcher.on_arrival(jobs[i].clone(), &mut scheduler, t);
                rec.end(span, 1);
                out.submitted += 1;
            }
            Event::Chaos(i) => {
                let ev = &chaos_events[i];
                let span = rec.begin(Layer::Lifecycle, tick_no);
                let crashes = matches!(ev.kind, ChaosKind::Crash { .. }) && nodes[ev.node].is_alive();
                let calls = apply_chaos(&mut nodes, ev, t, &mut books, &mut retry, &mut breakers);
                if crashes {
                    // The node just went dark: sleep it until its next
                    // lifecycle transition is due.
                    dormant[ev.node] = true;
                    agenda.push(Reverse((nodes[ev.node].state_until(), ev.node)));
                }
                rec.end(span, calls);
            }
            Event::Domain(i) => {
                if let Some(g) = geo.as_mut() {
                    let span = rec.begin(Layer::Lifecycle, tick_no);
                    let mut crashed = Vec::new();
                    let calls = apply_domain_event(
                        &mut nodes,
                        &domain_events[i],
                        t,
                        g,
                        &mut books,
                        &mut retry,
                        &mut breakers,
                        &mut crashed,
                    );
                    for id in crashed {
                        dormant[id] = true;
                        agenda.push(Reverse((nodes[id].state_until(), id)));
                    }
                    rec.end(span, calls);
                }
            }
            Event::Tick => {
                let tick_span = rec.begin(Layer::EngineTick, tick_no);

                // 1. Failure FSMs and breaker clocks, waking due sleepers.
                let span = rec.begin(Layer::Lifecycle, tick_no);
                let mut calls = 0u64;
                while let Some(&Reverse((wake_at, id))) = agenda.peek() {
                    if wake_at > t {
                        break;
                    }
                    agenda.pop();
                    dormant[id] = false;
                }
                for i in 0..n {
                    if dormant[i] {
                        continue;
                    }
                    calls += 1;
                    for ev in nodes[i].lifecycle_tick(t) {
                        if ev == LifecycleEvent::ProbationCleared {
                            breakers[i].record_success();
                            calls += 1;
                        }
                    }
                    if matches!(nodes[i].state(), NodeState::Crashed | NodeState::Restarting) {
                        dormant[i] = true;
                        agenda.push(Reverse((nodes[i].state_until(), i)));
                    }
                }
                for b in breakers.iter_mut() {
                    b.tick(t);
                }
                calls += n as u64;
                if let Some(g) = geo.as_mut() {
                    for b in g.rack_breakers.iter_mut().chain(g.zone_breakers.iter_mut()) {
                        b.tick(t);
                    }
                    calls += (g.rack_breakers.len() + g.zone_breakers.len()) as u64;
                }
                for (i, node) in nodes.iter().enumerate() {
                    if node.completed() > last_completed[i] {
                        breakers[i].record_success();
                        calls += 1;
                        if let Some(g) = geo.as_mut() {
                            g.rack_breakers[g.index.rack_of[i]].record_success();
                            g.zone_breakers[g.index.zone_of[i]].record_success();
                            calls += 2;
                        }
                        last_completed[i] = node.completed();
                    }
                }
                rec.end(span, calls);

                // 2. Caps from the current demands; a parked node's
                // demand is reused, and the flat apportion is skipped
                // when no demand moved.
                let span = rec.begin(Layer::Power, tick_no);
                let mut calls = 0u64;
                let demands: Vec<NodeDemand> = nodes
                    .iter()
                    .enumerate()
                    .map(|(i, node)| {
                        if node.is_parked() && i < prev_demands.len() {
                            prev_demands[i]
                        } else {
                            calls += 1;
                            node.demand()
                        }
                    })
                    .collect();
                if let Some(g) = geo.as_mut() {
                    caps = g.tree.tick(budget_mw, &demands);
                    g.interior_cap_violations += g.tree.cap_violations(budget_mw, &caps);
                    fill_domain_records(g, &caps);
                    calls += 2;
                } else {
                    out.flat_intervals += 1;
                    if caps.is_empty() || demands != prev_demands {
                        caps = apportion(budget_mw, &demands);
                        calls += 1;
                    } else {
                        out.apportion_skipped += 1;
                    }
                }
                prev_demands = demands;
                for r in books.crash_records.iter_mut().filter(|r| r.cap_after_mw.is_none()) {
                    r.cap_after_mw = Some(caps[r.node]);
                }
                books.last_caps.copy_from_slice(&caps);
                rec.end(span, calls);

                // 3. Control ticks on live nodes, skipping deep-parked ones.
                let span = rec.begin(Layer::ControlTick, tick_no);
                let mut calls = 0u64;
                let mut max_over_w = 0.0f64;
                for (node, &cap) in nodes.iter_mut().zip(&caps) {
                    if !node.is_alive() {
                        continue;
                    }
                    out.live_node_intervals += 1;
                    if node.parked_under() == Some(cap) {
                        out.deep_parked += 1;
                    } else {
                        calls += 1;
                        max_over_w = max_over_w.max(node.control_tick_parkable(t, cap));
                    }
                }
                rec.end(span, calls);

                // 4. Retries due and the dispatch mask (lifecycle), then
                // deferral releases, re-queues and dispatch (scheduler).
                // The retry queue and breakers share no state with the
                // dispatcher, so taking them first keeps the engine's
                // outcome.
                let span = rec.begin(Layer::Lifecycle, tick_no);
                let ready = retry.drain_ready(t);
                let mut allowed: Vec<bool> = breakers.iter().map(CircuitBreaker::allows_dispatch).collect();
                if let Some(g) = geo.as_ref() {
                    for (i, a) in allowed.iter_mut().enumerate() {
                        *a = *a
                            && g.rack_breakers[g.index.rack_of[i]].allows_dispatch()
                            && g.zone_breakers[g.index.zone_of[i]].allows_dispatch();
                    }
                }
                rec.end(span, 1 + n as u64);
                let span = rec.begin(Layer::Scheduler, tick_no);
                let requeued = ready.len() as u64;
                dispatcher.release_due(&mut scheduler, t);
                for r in ready.into_iter().rev() {
                    scheduler.requeue_front(r.job, r.avoid_rack);
                }
                scheduler.dispatch(&mut nodes, &allowed, &books.rack_of, t);
                rec.end(span, 2 + requeued);
                busy.clear();
                busy.extend(
                    nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, node)| !node.is_idle())
                        .map(|(i, _)| i),
                );

                // 5. Periodic learner checkpoints on fully-Up nodes.
                if let Some(k) = lc.checkpoint_period {
                    if tick_no > 0 && tick_no.is_multiple_of(k) {
                        let span = rec.begin(Layer::TakeCheckpoint, tick_no);
                        let mut calls = 0u64;
                        for node in nodes.iter_mut() {
                            if node.state() == NodeState::Up {
                                node.take_checkpoint();
                                calls += 1;
                            }
                        }
                        rec.end(span, calls);
                    }
                }
                tick_no += 1;

                // 6. Telemetry rows.
                if t > SimTime::ZERO {
                    let span = rec.begin(Layer::TelemetryRow, tick_no - 1);
                    interval += 1;
                    rows.push(interval_row(
                        cfg,
                        &nodes,
                        &scheduler,
                        &breakers,
                        &retry,
                        &caps,
                        t,
                        interval,
                        completed.len() as u64,
                        deadline_misses,
                        max_over_w,
                    ));
                    if let Some(g) = geo.as_mut() {
                        push_geo_rows(g, &nodes, t, interval);
                    }
                    dispatcher.note_interval(t, interval);
                    rec.end(span, 2);
                }
                rec.end(tick_span, 0);
            }
        }
    }
    if !busy.is_empty() {
        let span = rec.begin(Layer::Advance, tick_no);
        let calls = busy.len() as u64;
        advance_busy(&mut nodes, &mut busy, t, end, &mut completed, &mut deadline_misses);
        rec.end(span, calls);
    }

    out.trace = FleetTrace { rows };
    if let Some(g) = geo.as_mut() {
        out.geo_trace = GeoTrace {
            rows: std::mem::take(&mut g.rows),
        };
        out.domain_records = std::mem::take(&mut g.domain_records);
    }
    let span = rec.begin(Layer::TelemetryRender, tick_no);
    let (csv, geo_csv) = render_fleet(&out.trace, &out.geo_trace);
    rec.end(span, 2);
    out.csv = csv;
    out.geo_csv = geo_csv;
    out.completed = completed;
    out.crash_records = books.crash_records;
    out.admitted = scheduler.admitted();
    if geo.as_ref().is_some_and(|g| g.interior_cap_violations != 0) {
        return Err("interior budget-tree cap violations in the replay".to_string());
    }
    Ok(out)
}

/// Advances the busy list from `from` to `to`, streaming completions
/// out in node-id order and dropping nodes that went idle.
fn advance_busy(
    nodes: &mut [Node],
    busy: &mut Vec<usize>,
    from: SimTime,
    to: SimTime,
    completed: &mut Vec<JobRecord>,
    deadline_misses: &mut u64,
) {
    let mut still = Vec::with_capacity(busy.len());
    for &i in busy.iter() {
        if let Some(record) = nodes[i].advance(from, to) {
            if record.missed_deadline {
                *deadline_misses += 1;
            }
            completed.push(record);
        }
        if !nodes[i].is_idle() {
            still.push(i);
        }
    }
    *busy = still;
}

/// Applies one node chaos event; returns the layer calls it made.
fn apply_chaos(
    nodes: &mut [Node],
    ev: &ChaosEvent,
    t: SimTime,
    books: &mut Books,
    retry: &mut RetryQueue,
    breakers: &mut [CircuitBreaker],
) -> u64 {
    match ev.kind {
        ChaosKind::Crash { outage_s } if nodes[ev.node].is_alive() => {
            let mut calls = 2;
            if let Some(job) = nodes[ev.node].crash(t, outage_s) {
                retry.job_lost(job, t, books.rack_of.get(ev.node).copied());
                calls += 1;
            }
            breakers[ev.node].record_failure(t);
            books.crash_records.push(CrashRecord {
                node: ev.node,
                at_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
                cap_before_mw: books.last_caps[ev.node],
                cap_after_mw: None,
            });
            calls
        }
        ChaosKind::ThermalEmergency { duration_s } if nodes[ev.node].is_alive() => {
            nodes[ev.node].thermal_emergency(t, duration_s);
            1
        }
        _ => 0,
    }
}

/// Applies one correlated domain event, collecting nodes that crashed.
/// Returns the layer calls it made.
#[allow(clippy::too_many_arguments)]
fn apply_domain_event(
    nodes: &mut [Node],
    ev: &DomainChaosEvent,
    t: SimTime,
    g: &mut Geo,
    books: &mut Books,
    retry: &mut RetryQueue,
    breakers: &mut [CircuitBreaker],
    crashed: &mut Vec<usize>,
) -> u64 {
    let mut calls = 0u64;
    match ev.kind {
        DomainChaosKind::RackPowerLoss { outage_s } => {
            let rack = ev.domain;
            let zone = g.index.zone_of_rack[rack];
            let at_s = t.saturating_since(SimTime::ZERO).as_secs_f64();
            let rack_cap_before: MilliWatts = g.index.rack_nodes[rack].iter().map(|&i| books.last_caps[i]).sum();
            let sibling_before: MilliWatts = g.index.zone_nodes[zone]
                .iter()
                .filter(|&&i| g.index.rack_of[i] != rack)
                .map(|&i| books.last_caps[i])
                .sum();
            for &i in &g.index.rack_nodes[rack] {
                if nodes[i].is_alive() {
                    if let Some(job) = nodes[i].crash(t, outage_s) {
                        retry.job_lost(job, t, Some(rack));
                        calls += 1;
                    }
                    breakers[i].record_failure(t);
                    books.crash_records.push(CrashRecord {
                        node: i,
                        at_s,
                        cap_before_mw: books.last_caps[i],
                        cap_after_mw: None,
                    });
                    crashed.push(i);
                    calls += 2;
                } else {
                    nodes[i].extend_outage(t, outage_s);
                    calls += 1;
                }
            }
            g.rack_breakers[rack].record_failure(t);
            calls += 1;
            g.domain_records.push(DomainOutageRecord {
                rack,
                zone,
                at_s,
                rack_cap_before_mw: rack_cap_before,
                rack_cap_after_mw: None,
                zone_cap_before_mw: g.tree.zone_caps()[zone],
                zone_cap_after_mw: None,
                sibling_caps_before_mw: sibling_before,
                sibling_caps_after_mw: None,
            });
        }
        DomainChaosKind::ZoneThermal { duration_s } => {
            for &i in &g.index.zone_nodes[ev.domain] {
                if nodes[i].is_alive() {
                    nodes[i].thermal_emergency(t, duration_s);
                    calls += 1;
                }
            }
        }
        DomainChaosKind::ZonePartition { duration_s } => {
            g.zone_breakers[ev.domain].force_open_until(t + SimDuration::from_secs_f64(duration_s));
            calls += 1;
        }
    }
    calls
}

/// Fills pending domain outage records from the first post-event caps.
fn fill_domain_records(g: &mut Geo, leaf_caps: &[MilliWatts]) {
    let index = &g.index;
    let zone_caps = g.tree.zone_caps();
    for r in g.domain_records.iter_mut().filter(|r| r.rack_cap_after_mw.is_none()) {
        r.rack_cap_after_mw = Some(index.rack_nodes[r.rack].iter().map(|&i| leaf_caps[i]).sum());
        r.zone_cap_after_mw = Some(zone_caps[r.zone]);
        r.sibling_caps_after_mw = Some(
            index.zone_nodes[r.zone]
                .iter()
                .filter(|&&i| index.rack_of[i] != r.rack)
                .map(|&i| leaf_caps[i])
                .sum(),
        );
    }
}

/// Appends one interval's region, zone and rack rows.
fn push_geo_rows(g: &mut Geo, nodes: &[Node], t: SimTime, interval: u64) {
    let index = &g.index;
    let time_s = t.saturating_since(SimTime::ZERO).as_secs_f64();
    let mut rack_up = vec![0usize; index.n_racks()];
    let mut zone_up = vec![0usize; index.n_zones()];
    let mut region_up = vec![0usize; index.n_regions()];
    for (i, node) in nodes.iter().enumerate() {
        if node.is_alive() {
            rack_up[index.rack_of[i]] += 1;
            zone_up[index.zone_of[i]] += 1;
            region_up[index.region_of[i]] += 1;
        }
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

/// One interval's fleet row, assembled from the nodes' platforms and the
/// layers' `pub` counters.
#[allow(clippy::too_many_arguments)]
fn interval_row(
    cfg: &FleetConfig,
    nodes: &[Node],
    scheduler: &Scheduler,
    breakers: &[CircuitBreaker],
    retry: &RetryQueue,
    caps: &[MilliWatts],
    t: SimTime,
    interval: u64,
    completed: u64,
    deadline_misses: u64,
    max_over_w: f64,
) -> TraceRow {
    let window_start = SimTime::ZERO + cfg.control_period.mul_f64((interval - 1) as f64);
    let dt = t.saturating_since(window_start).as_secs_f64().max(1e-12);
    let gpu_power_w: f64 = nodes
        .iter()
        .map(|node| node.platform().gpu_energy_j(window_start, t))
        .sum::<f64>()
        / dt;
    let total_power_w: f64 = nodes
        .iter()
        .map(|node| node.platform().total_energy_j(window_start, t))
        .sum::<f64>()
        / dt;
    TraceRow {
        interval,
        time_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
        queue_depth: scheduler.depth(),
        busy_nodes: nodes.iter().filter(|node| !node.is_idle()).count(),
        healthy_nodes: nodes.iter().filter(|node| node.healthy()).count(),
        gpu_power_w,
        total_power_w,
        fleet_cap_w: caps.iter().sum::<u64>() as f64 / 1000.0,
        budget_w: cfg.budget_w,
        completed,
        rejected: scheduler.rejected(),
        deadline_misses,
        cap_violations: nodes.iter().map(Node::cap_violations).sum(),
        max_pair_over_cap_w: max_over_w,
        up_nodes: nodes.iter().filter(|node| node.is_alive()).count(),
        open_breakers: breakers.iter().filter(|b| b.state() == BreakerState::Open).count(),
        retry_depth: retry.pending_len(),
        dead_lettered: retry.dead_letter_total(),
    }
}

/// Where the replay and `run_fleet` disagree, if anywhere.
pub fn compare(replay: &Replay, reference: &FleetRun) -> Result<(), String> {
    let r = &reference.report;
    if replay.trace != r.trace || replay.csv != reference.csv {
        let at = replay
            .trace
            .rows
            .iter()
            .zip(&r.trace.rows)
            .position(|(a, b)| a != b)
            .map_or_else(|| "row count".to_string(), |i| format!("row {}", i + 1));
        return Err(format!("fleet trace differs from run_fleet's at {at}"));
    }
    if replay.geo_trace != r.geo_trace || replay.geo_csv != reference.geo_csv {
        return Err("geo trace differs from run_fleet's".to_string());
    }
    if replay.completed != r.completed {
        let at = replay.completed.iter().zip(&r.completed).position(|(a, b)| a != b);
        return Err(format!(
            "completion records differ from run_fleet's ({} vs {} records, first difference at {at:?})",
            replay.completed.len(),
            r.completed.len()
        ));
    }
    if replay.crash_records != r.crash_records || replay.domain_records != r.domain_records {
        return Err("crash or domain outage audits differ from run_fleet's".to_string());
    }
    if replay.admitted != r.admitted {
        return Err(format!("admitted {} vs run_fleet's {}", replay.admitted, r.admitted));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_fleet_rendered;
    use greengpu_cluster::Policy;
    use greengpu_hw::ChaosPlan;

    fn small(n: usize, seed: u64) -> FleetConfig {
        FleetConfig::homogeneous(n, 0.8, Policy::LeastLoaded, SimDuration::from_secs(60), seed)
            .with_engine(EngineKind::EventDriven)
    }

    fn replays_exactly(cfg: &FleetConfig) -> Replay {
        let reference = run_fleet_rendered(cfg);
        let mut rec = Recorder::with_capacity(16);
        let out = replay(cfg, &mut rec).expect("replayable config");
        compare(&out, &reference).expect("replay matches run_fleet");
        assert!(rec.spans().iter().any(|s| s.layer == Layer::EngineTick));
        out
    }

    #[test]
    fn replay_reproduces_a_flat_fleet_under_chaos() {
        let cfg = small(6, 3).with_chaos(
            ChaosPlan::crashes_only(11, 0.01, (2.0, 6.0))
                .with_thermal(0.01, (3.0, 8.0))
                .with_blackouts(0.01, (2.0, 5.0)),
        );
        let out = replays_exactly(&cfg);
        assert!(!out.crash_records.is_empty(), "the chaos plan fired");
        assert!(out.flat_intervals > 0);
    }

    #[test]
    fn replay_reproduces_a_geo_fleet_under_correlated_chaos() {
        let cfg = small(16, 5).with_topology(Topology::uniform(1, 2, 2, 4)).with_chaos(
            ChaosPlan::crashes_only(13, 0.005, (2.0, 6.0))
                .with_rack_loss(0.02, (3.0, 8.0))
                .with_zone_thermal(0.02, (4.0, 10.0))
                .with_partitions(0.02, (3.0, 9.0)),
        );
        let out = replays_exactly(&cfg);
        assert!(!out.domain_records.is_empty(), "a rack lost power");
        assert!(!out.geo_trace.rows.is_empty());
    }

    #[test]
    fn replay_refuses_other_engines() {
        let cfg = small(2, 1).with_engine(EngineKind::Serial);
        let mut rec = Recorder::with_capacity(4);
        assert!(replay(&cfg, &mut rec).is_err());
    }
}
