//! Admission control and dispatch: a bounded FIFO queue in front of the
//! placement policy.
//!
//! Admission is where the open-loop arrival stream meets finite capacity:
//! a full queue rejects new jobs (backpressure a real cluster would push
//! to clients), and the counters here are the scheduler-side half of the
//! fleet telemetry.

use crate::job::JobSpec;
use crate::node::Node;
use crate::policy::{available, pick_node, Policy};
use greengpu_sim::SimTime;
use std::collections::VecDeque;

/// One queued entry: the job plus an optional rack to route away from
/// (set on crash retries so the re-dispatch avoids the failure domain).
struct QueuedJob {
    job: JobSpec,
    avoid_rack: Option<usize>,
}

/// Removes and returns the candidate `LeastLoaded` picks among those
/// `eligible` accepts: the least `busy_s` (by `total_cmp`), ties to the
/// lowest id, as [`pick_node`]'s first minimum in node order.
pub(crate) fn take_least_loaded(free: &mut Vec<(f64, usize)>, eligible: impl Fn(usize) -> bool) -> Option<usize> {
    let (at, _) = free
        .iter()
        .enumerate()
        .filter(|(_, &(_, id))| eligible(id))
        .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?;
    Some(free.swap_remove(at).1)
}

/// What one dispatch call reads of which nodes may take work, and whom it
/// tells of each placement. `Scan` is the scan-built case
/// [`Scheduler::dispatch`] runs; the event-driven engine reads its packed
/// slots and its index of idle nodes.
pub(crate) trait Placement {
    /// The breaker mask [`pick_node`] reads (`false` = blocked; empty =
    /// all allowed).
    fn mask(&mut self) -> &[bool];
    /// LeastLoaded's pick among the available nodes the mask lets through
    /// and `eligible` accepts: the least `busy_s` (by `total_cmp`), ties
    /// to the lowest id, as [`pick_node`]'s first minimum in node order.
    fn least_loaded(&mut self, nodes: &[Node], eligible: impl Fn(usize) -> bool) -> Option<usize>;
    /// Node `i` is about to take a job.
    fn placing(&mut self, _node: &mut Node, _i: usize) {}
}

/// A plain breaker mask, with LeastLoaded's candidates as (`busy_s`, id)
/// listed on the call's first pick: a placement takes only the picked
/// node out, and moves no node's `busy_s`, so the list stays exact for
/// the call. The walk the event-driven index is checked against.
struct Scan<'a> {
    allowed: &'a [bool],
    free: Option<Vec<(f64, usize)>>,
}

impl Placement for Scan<'_> {
    fn mask(&mut self) -> &[bool] {
        self.allowed
    }

    fn least_loaded(&mut self, nodes: &[Node], eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let allowed = self.allowed;
        let free = self.free.get_or_insert_with(|| {
            nodes
                .iter()
                .filter(|n| available(n, allowed))
                .map(|n| (n.busy_s(), n.id()))
                .collect()
        });
        take_least_loaded(free, eligible)
    }
}

/// Bounded admission queue plus dispatch state.
pub struct Scheduler {
    queue: VecDeque<QueuedJob>,
    capacity: usize,
    policy: Policy,
    rr_cursor: usize,
    admitted: u64,
    rejected: u64,
    peak_depth: usize,
    // Per-tenant admission/rejection tallies, indexed by
    // `JobSpec::tenant` and grown on demand (single-stream runs only
    // ever touch slot 0).
    admitted_by_tenant: Vec<u64>,
    rejected_by_tenant: Vec<u64>,
}

fn bump(counters: &mut Vec<u64>, tenant: usize) {
    if counters.len() <= tenant {
        counters.resize(tenant + 1, 0);
    }
    counters[tenant] += 1;
}

impl Scheduler {
    /// A scheduler with the given policy and queue bound.
    pub fn new(policy: Policy, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Scheduler {
            queue: VecDeque::new(),
            capacity,
            policy,
            rr_cursor: 0,
            admitted: 0,
            rejected: 0,
            peak_depth: 0,
            admitted_by_tenant: Vec::new(),
            rejected_by_tenant: Vec::new(),
        }
    }

    /// Offers a job for admission; `false` means the queue was full and
    /// the job was rejected.
    pub fn submit(&mut self, job: JobSpec) -> bool {
        if self.queue.len() >= self.capacity {
            self.rejected += 1;
            bump(&mut self.rejected_by_tenant, job.tenant);
            return false;
        }
        bump(&mut self.admitted_by_tenant, job.tenant);
        self.queue.push_back(QueuedJob { job, avoid_rack: None });
        self.admitted += 1;
        self.peak_depth = self.peak_depth.max(self.queue.len());
        true
    }

    /// Counts a job as admitted *without* queueing it — the dispatcher
    /// calls this when it parks a deferrable job in its deferral queue,
    /// so the conservation ledger (admitted equals completed plus
    /// dead-lettered plus deferred-pending plus in-flight) holds while
    /// the job waits for a green window.
    pub fn note_deferred_admission(&mut self, tenant: usize) {
        self.admitted += 1;
        bump(&mut self.admitted_by_tenant, tenant);
    }

    /// Enqueues a job that was already counted admitted (a released
    /// deferral). Exempt from the capacity bound for the same reason
    /// retries are: bouncing it here would turn deliberate deferral into
    /// silent loss.
    pub fn enqueue_admitted(&mut self, job: JobSpec) {
        self.queue.push_back(QueuedJob { job, avoid_rack: None });
        self.peak_depth = self.peak_depth.max(self.queue.len());
    }

    /// Re-admits a job at the *front* of the queue (a crash-retry keeps
    /// its place ahead of newer arrivals), tagged with the rack its last
    /// attempt died in so dispatch soft-avoids it. Exempt from the
    /// capacity bound: the job was already admitted once, and dropping it
    /// here would turn backpressure into silent loss.
    pub fn requeue_front(&mut self, job: JobSpec, avoid_rack: Option<usize>) {
        self.queue.push_front(QueuedJob { job, avoid_rack });
        self.peak_depth = self.peak_depth.max(self.queue.len());
    }

    /// Dispatches queued jobs to idle, healthy, alive nodes until the
    /// policy finds no taker; returns how many were placed. `allowed` is
    /// the circuit-breaker mask (`false` = blocked; empty = all allowed).
    /// `rack_of` maps node → rack on hierarchical fleets (empty = flat):
    /// a retry tagged with an `avoid_rack` first tries the mask with that
    /// rack removed, falling back to the plain mask when no node outside
    /// the rack can take it — anti-affinity is a preference, not a second
    /// way to lose the job.
    pub fn dispatch(&mut self, nodes: &mut [Node], allowed: &[bool], rack_of: &[usize], now: SimTime) -> usize {
        self.place(nodes, &mut Scan { allowed, free: None }, rack_of, now)
    }

    /// The dispatch loop: [`Scheduler::dispatch`] with the mask and
    /// LeastLoaded's picks read through `via`, which also hears of each
    /// node picked before the node takes its job. `Scheduler::dispatch`
    /// walks a candidate list it builds on the call's first pick; the
    /// event-driven engine picks from its ordered index of idle nodes, the
    /// same node in O(log n) plus the entries skipped.
    pub(crate) fn place(
        &mut self,
        nodes: &mut [Node],
        via: &mut impl Placement,
        rack_of: &[usize],
        now: SimTime,
    ) -> usize {
        // The other policies' avoid-rack mask, rebuilt in place for each
        // tagged placement.
        let mut avoiding: Vec<bool> = Vec::new();
        let mut placed = 0;
        while let Some(entry) = self.queue.front() {
            let pick = match (entry.avoid_rack, self.policy) {
                (avoid, Policy::LeastLoaded) => avoid
                    .filter(|_| !rack_of.is_empty())
                    .and_then(|rack| via.least_loaded(nodes, |id| rack_of[id] != rack))
                    .or_else(|| via.least_loaded(nodes, |_| true)),
                (Some(rack), _) if !rack_of.is_empty() => {
                    let allowed = via.mask();
                    avoiding.clear();
                    avoiding.extend(
                        (0..nodes.len()).map(|i| allowed.get(i).copied().unwrap_or(true) && rack_of[i] != rack),
                    );
                    // `pick_node` only moves the round-robin cursor on a
                    // successful pick, so the fallback sees it unchanged.
                    pick_node(self.policy, &entry.job, nodes, &avoiding, &mut self.rr_cursor, now)
                        .or_else(|| pick_node(self.policy, &entry.job, nodes, allowed, &mut self.rr_cursor, now))
                }
                _ => pick_node(self.policy, &entry.job, nodes, via.mask(), &mut self.rr_cursor, now),
            };
            match pick {
                Some(i) => {
                    let Some(entry) = self.queue.pop_front() else { break };
                    via.placing(&mut nodes[i], i);
                    nodes[i].dispatch(entry.job, now);
                    placed += 1;
                }
                None => break,
            }
        }
        placed
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Jobs rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Per-tenant admitted counts, padded with zeros to `n_tenants`.
    pub fn admitted_by_tenant(&self, n_tenants: usize) -> Vec<u64> {
        let mut v = self.admitted_by_tenant.clone();
        v.resize(v.len().max(n_tenants), 0);
        v
    }

    /// Per-tenant rejected counts, padded with zeros to `n_tenants`.
    pub fn rejected_by_tenant(&self, n_tenants: usize) -> Vec<u64> {
        let mut v = self.rejected_by_tenant.clone();
        v.resize(v.len().max(n_tenants), 0);
        v
    }

    /// Deepest the queue has been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use greengpu_sim::SimDuration;

    fn mix() -> Vec<String> {
        vec!["hotspot".to_string()]
    }

    fn job(id: u64) -> JobSpec {
        JobSpec {
            id,
            workload: "hotspot".to_string(),
            arrival: SimTime::ZERO,
            size: 1.0,
            deadline: None,
            tenant: 0,
        }
    }

    #[test]
    fn full_queue_rejects() {
        let mut s = Scheduler::new(Policy::RoundRobin, 2);
        assert!(s.submit(job(0)));
        assert!(s.submit(job(1)));
        assert!(!s.submit(job(2)), "third job must bounce");
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.peak_depth(), 2);
    }

    #[test]
    fn dispatch_drains_fifo_until_nodes_run_out() {
        let mut nodes: Vec<Node> = (0..2)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        let mut s = Scheduler::new(Policy::RoundRobin, 8);
        for id in 0..3 {
            s.submit(job(id));
        }
        let placed = s.dispatch(&mut nodes, &[], &[], SimTime::ZERO);
        assert_eq!(placed, 2, "two nodes, two placements");
        assert_eq!(s.depth(), 1, "third job stays queued");
        assert!(nodes.iter().all(|n| !n.is_idle()));
    }

    #[test]
    fn requeue_front_jumps_the_line_and_ignores_capacity() {
        let mut s = Scheduler::new(Policy::RoundRobin, 2);
        assert!(s.submit(job(0)));
        assert!(s.submit(job(1)));
        s.requeue_front(job(9), None);
        assert_eq!(s.depth(), 3, "retries bypass the admission bound");
        let mut nodes: Vec<Node> = (0..1)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        s.dispatch(&mut nodes, &[], &[], SimTime::ZERO);
        assert_eq!(s.depth(), 2, "one node, one placement");
        // The retried job went first.
        assert_eq!(nodes[0].completed(), 0);
        let rec = nodes[0]
            .advance(SimTime::ZERO, SimTime::from_secs(100_000))
            .expect("finishes");
        assert_eq!(rec.spec.id, 9);
    }

    #[test]
    fn breaker_mask_blocks_dispatch() {
        let mut nodes: Vec<Node> = (0..2)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        let mut s = Scheduler::new(Policy::RoundRobin, 8);
        s.submit(job(0));
        s.submit(job(1));
        assert_eq!(s.dispatch(&mut nodes, &[false, false], &[], SimTime::ZERO), 0);
        assert_eq!(s.dispatch(&mut nodes, &[false, true], &[], SimTime::ZERO), 1);
        assert!(nodes[0].is_idle() && !nodes[1].is_idle());
    }

    #[test]
    fn retries_soft_avoid_their_origin_rack() {
        // Nodes 0-1 are rack 0, nodes 2-3 are rack 1. A retry from rack 0
        // lands in rack 1 even though round-robin would pick node 0.
        let rack_of = [0usize, 0, 1, 1];
        let mut nodes: Vec<Node> = (0..4)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        let mut s = Scheduler::new(Policy::RoundRobin, 8);
        s.requeue_front(job(7), Some(0));
        assert_eq!(s.dispatch(&mut nodes, &[], &rack_of, SimTime::ZERO), 1);
        assert!(nodes[0].is_idle() && nodes[1].is_idle(), "rack 0 avoided");
        assert!(!nodes[2].is_idle(), "first node outside the origin rack");

        // When every node outside the rack is unavailable the preference
        // yields: the retry still dispatches rather than starving.
        let mut nodes: Vec<Node> = (0..4)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        let mut s = Scheduler::new(Policy::RoundRobin, 8);
        s.requeue_front(job(8), Some(0));
        assert_eq!(
            s.dispatch(&mut nodes, &[true, true, false, false], &rack_of, SimTime::ZERO),
            1
        );
        assert!(!nodes[0].is_idle(), "falls back into the avoided rack");

        // A flat fleet (empty rack map) ignores the tag entirely.
        let mut nodes: Vec<Node> = (0..2)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        let mut s = Scheduler::new(Policy::RoundRobin, 8);
        s.requeue_front(job(9), Some(0));
        assert_eq!(s.dispatch(&mut nodes, &[], &[], SimTime::ZERO), 1);
        assert!(!nodes[0].is_idle());
    }

    /// When the dispatch under test runs: after every history.
    fn now() -> SimTime {
        SimTime::from_secs(200_000)
    }

    /// Twelve nodes in four racks of three: equal service histories on
    /// nodes 1, 4, 7 and 10, longer ones on 5 and 2, none on the rest;
    /// node 3 crashed and node 8 busy.
    fn loaded_fleet() -> Vec<Node> {
        let mut nodes: Vec<Node> = (0..12)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect();
        for (i, size) in [(1, 1.0), (4, 1.0), (7, 1.0), (10, 1.0), (2, 3.0), (5, 2.0)] {
            nodes[i].dispatch(JobSpec { size, ..job(100) }, SimTime::ZERO);
            nodes[i]
                .advance(SimTime::ZERO, SimTime::from_secs(100_000))
                .expect("finishes");
        }
        nodes[3].crash(SimTime::ZERO, 5.0);
        nodes[8].dispatch(job(101), SimTime::ZERO);
        nodes
    }

    /// The nodes `policy`'s dispatch hands jobs 0, 1, … to, one `avoid`
    /// tag per job, read back from what each node serves.
    fn dispatch_picks(policy: Policy, allowed: &[bool], rack_of: &[usize], avoid: &[Option<usize>]) -> Vec<usize> {
        let mut nodes = loaded_fleet();
        let mut s = Scheduler::new(policy, 64);
        for (id, &rack) in avoid.iter().enumerate().rev() {
            s.requeue_front(job(id as u64), rack);
        }
        let placed = s.dispatch(&mut nodes, allowed, rack_of, now());
        assert_eq!(s.depth(), avoid.len() - placed);
        let mut by_job = vec![usize::MAX; placed];
        for (i, node) in nodes.iter_mut().enumerate() {
            if let Some(rec) = node.advance(now(), now() + SimDuration::from_secs(100_000)) {
                if let Some(slot) = by_job.get_mut(rec.spec.id as usize) {
                    *slot = i;
                }
            }
        }
        by_job
    }

    /// The same placements asked of `pick_node` afresh each time, with a
    /// rack-filtered mask first on a tagged job.
    fn repeated_pick_node(policy: Policy, allowed: &[bool], rack_of: &[usize], avoid: &[Option<usize>]) -> Vec<usize> {
        let mut nodes = loaded_fleet();
        let (mut cursor, mut picks) = (0, Vec::new());
        for (id, &rack) in avoid.iter().enumerate() {
            let job = job(id as u64);
            let pick = match rack {
                Some(rack) if !rack_of.is_empty() => {
                    let filtered: Vec<bool> = (0..nodes.len())
                        .map(|i| allowed.get(i).copied().unwrap_or(true) && rack_of[i] != rack)
                        .collect();
                    pick_node(policy, &job, &nodes, &filtered, &mut cursor, now())
                        .or_else(|| pick_node(policy, &job, &nodes, allowed, &mut cursor, now()))
                }
                _ => pick_node(policy, &job, &nodes, allowed, &mut cursor, now()),
            };
            let Some(i) = pick else { break };
            nodes[i].dispatch(job, now());
            picks.push(i);
        }
        picks
    }

    /// Asserts `policy`'s dispatch places jobs as `repeated_pick_node`
    /// does, and returns the picks.
    fn agree(policy: Policy, allowed: &[bool], rack_of: &[usize], avoid: &[Option<usize>]) -> Vec<usize> {
        let want = repeated_pick_node(policy, allowed, rack_of, avoid);
        assert_eq!(
            dispatch_picks(policy, allowed, rack_of, avoid),
            want,
            "{policy:?} {allowed:?} {avoid:?}"
        );
        want
    }

    #[test]
    fn least_loaded_dispatch_picks_as_repeated_pick_node() {
        let agree = |allowed: &[bool], rack_of: &[usize], avoid: &[Option<usize>]| {
            agree(Policy::LeastLoaded, allowed, rack_of, avoid)
        };
        let racks: Vec<usize> = (0..12).map(|i| i / 3).collect();
        let mut masked = vec![true; 12];
        masked[0] = false;
        masked[6] = false;
        let only_rack_1: Vec<bool> = racks.iter().map(|&r| r == 1).collect();
        let (r0, r1, r3) = (Some(0), Some(1), Some(3));
        // Ties at zero and at equal histories; runs out of nodes.
        let picks = agree(&[], &[], &[None; 14]);
        assert_eq!(picks, [0, 6, 9, 11, 1, 4, 7, 10, 5, 2], "ties break to the lowest id");
        // A breaker mask, and retries avoiding racks until only the
        // avoided rack has a node left (the fallback).
        agree(&masked, &racks, &[r0, None, r1, r3, None, r0, r3, r3, None, r1, r1]);
        agree(&only_rack_1, &racks, &[r1, r1, None]);
        // A flat fleet ignores the tags.
        agree(&masked, &[], &[r0, r1, None, r0]);
        // No candidate at all, and nothing queued.
        assert!(agree(&[false; 12], &racks, &[None, r0]).is_empty());
        agree(&[], &racks, &[]);
    }

    /// Round-robin and energy-aware placements that avoid a rack reuse
    /// one mask for the whole dispatch call, and still pick as a mask
    /// built afresh for each placement does.
    #[test]
    fn avoid_rack_dispatch_picks_as_repeated_pick_node() {
        let racks: Vec<usize> = (0..12).map(|i| i / 3).collect();
        let mut masked = vec![true; 12];
        masked[0] = false;
        masked[6] = false;
        let only_rack_1: Vec<bool> = racks.iter().map(|&r| r == 1).collect();
        let (r0, r1, r3) = (Some(0), Some(1), Some(3));
        for policy in [Policy::RoundRobin, Policy::EnergyAware] {
            // Tagged and untagged jobs interleaved until the nodes run out.
            let avoid = [r0, None, r1, r3, None, r0, r3, r3, None, r1, r1];
            let picks = agree(policy, &masked, &racks, &avoid);
            assert_eq!(picks.len(), 8, "{policy:?}: every free node placed");
            for (pick, rack) in picks.iter().zip(avoid).take(4) {
                assert_ne!(Some(racks[*pick]), rack, "{policy:?}: {picks:?} left the avoided rack");
            }
            // Only the avoided rack has nodes: the fallback places there.
            assert_eq!(agree(policy, &only_rack_1, &racks, &[r1, r1, None]).len(), 2);
            // A flat fleet ignores the tags; no candidate at all.
            agree(policy, &masked, &[], &[r0, r1, None, r0]);
            assert!(agree(policy, &[false; 12], &racks, &[r0, None]).is_empty());
        }
    }
}
