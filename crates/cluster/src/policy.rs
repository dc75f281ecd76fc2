//! Pluggable placement policies.
//!
//! A policy picks which idle, healthy, alive node serves the next queued
//! job, further filtered by the scheduler's circuit-breaker mask.
//! All three policies are deterministic: candidates are scanned in node
//! order and ties break toward the lowest id, so a fleet run is a pure
//! function of its seed.

use crate::job::JobSpec;
use crate::node::Node;
use greengpu_sim::SimTime;

/// Placement policy for the dispatch layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Rotate through the nodes in id order.
    RoundRobin,
    /// Pick the node with the least cumulative busy time.
    LeastLoaded,
    /// Pick the node whose cap-constrained oracle estimate costs the
    /// least GPU energy; jobs with deadlines only consider nodes whose
    /// estimated finish meets the deadline, falling back to the fastest
    /// node when none can.
    EnergyAware,
}

impl Policy {
    /// All policies, in presentation order.
    pub const ALL: [Policy; 3] = [Policy::RoundRobin, Policy::LeastLoaded, Policy::EnergyAware];

    /// Stable CLI/CSV name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::LeastLoaded => "least-loaded",
            Policy::EnergyAware => "energy-aware",
        }
    }

    /// Parses a CLI/CSV name.
    pub fn parse(s: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Whether node `n` can take a job now: idle, healthy, alive, and let
/// through by the breaker mask `allowed` (empty allows all).
pub(crate) fn available(n: &Node, allowed: &[bool]) -> bool {
    allowed.get(n.id()).copied().unwrap_or(true) && n.is_idle() && n.healthy() && n.is_alive()
}

/// Picks a node for `job` among idle, healthy, alive nodes; `None` when
/// no node can take work. `rr_cursor` carries the round-robin position
/// across calls. `allowed` is the scheduler's circuit-breaker mask —
/// `allowed[i] == false` excludes node `i`; an empty slice allows all.
pub fn pick_node(
    policy: Policy,
    job: &JobSpec,
    nodes: &[Node],
    allowed: &[bool],
    rr_cursor: &mut usize,
    now: SimTime,
) -> Option<usize> {
    let free = |n: &Node| available(n, allowed);
    match policy {
        Policy::RoundRobin => {
            let n = nodes.len();
            for k in 0..n {
                let i = (*rr_cursor + k) % n;
                if free(&nodes[i]) {
                    *rr_cursor = i + 1;
                    return Some(i);
                }
            }
            None
        }
        Policy::LeastLoaded => nodes
            .iter()
            .filter(|n| free(n))
            .min_by(|a, b| a.busy_s().total_cmp(&b.busy_s()))
            .map(Node::id),
        Policy::EnergyAware => {
            let candidates: Vec<(usize, f64, f64)> = nodes
                .iter()
                .filter(|n| free(n))
                .filter_map(|n| n.estimate(&job.workload, job.size).map(|(t, e)| (n.id(), t, e)))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            if let Some(deadline) = job.deadline {
                let slack_s = deadline.saturating_since(now).as_secs_f64();
                let meets: Vec<&(usize, f64, f64)> = candidates.iter().filter(|(_, t, _)| *t <= slack_s).collect();
                if meets.is_empty() {
                    // Nothing meets the deadline: minimize the damage.
                    return candidates.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|c| c.0);
                }
                return meets.iter().min_by(|a, b| a.2.total_cmp(&b.2)).map(|c| c.0);
            }
            candidates.iter().min_by(|a, b| a.2.total_cmp(&b.2)).map(|c| c.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;

    fn mix() -> Vec<String> {
        vec!["hotspot".to_string(), "kmeans".to_string()]
    }

    fn fleet(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| Node::new(i, &NodeConfig::default_node(), &mix(), 1))
            .collect()
    }

    fn job() -> JobSpec {
        JobSpec {
            id: 0,
            workload: "hotspot".to_string(),
            arrival: SimTime::ZERO,
            size: 1.0,
            deadline: None,
            tenant: 0,
        }
    }

    #[test]
    fn names_round_trip() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
        }
        assert_eq!(Policy::parse("nope"), None);
    }

    #[test]
    fn round_robin_rotates() {
        let nodes = fleet(3);
        let mut cursor = 0;
        let a = pick_node(Policy::RoundRobin, &job(), &nodes, &[], &mut cursor, SimTime::ZERO);
        let b = pick_node(Policy::RoundRobin, &job(), &nodes, &[], &mut cursor, SimTime::ZERO);
        let c = pick_node(Policy::RoundRobin, &job(), &nodes, &[], &mut cursor, SimTime::ZERO);
        let d = pick_node(Policy::RoundRobin, &job(), &nodes, &[], &mut cursor, SimTime::ZERO);
        assert_eq!((a, b, c, d), (Some(0), Some(1), Some(2), Some(0)));
    }

    #[test]
    fn busy_nodes_are_skipped() {
        let mut nodes = fleet(2);
        nodes[0].dispatch(job(), SimTime::ZERO);
        let mut cursor = 0;
        for p in Policy::ALL {
            assert_eq!(pick_node(p, &job(), &nodes, &[], &mut cursor, SimTime::ZERO), Some(1));
        }
        nodes[1].dispatch(job(), SimTime::ZERO);
        for p in Policy::ALL {
            assert_eq!(pick_node(p, &job(), &nodes, &[], &mut cursor, SimTime::ZERO), None);
        }
    }

    #[test]
    fn least_loaded_prefers_the_idle_history() {
        let mut nodes = fleet(2);
        // Give node 0 some service history.
        nodes[0].dispatch(job(), SimTime::ZERO);
        nodes[0].advance(SimTime::ZERO, SimTime::from_secs(1000));
        let mut cursor = 0;
        assert_eq!(
            pick_node(Policy::LeastLoaded, &job(), &nodes, &[], &mut cursor, SimTime::ZERO),
            Some(1)
        );
    }

    #[test]
    fn energy_aware_is_deterministic_on_identical_nodes() {
        let nodes = fleet(3);
        let mut cursor = 0;
        assert_eq!(
            pick_node(Policy::EnergyAware, &job(), &nodes, &[], &mut cursor, SimTime::ZERO),
            Some(0),
            "ties break toward the lowest id"
        );
    }

    #[test]
    fn breaker_mask_and_dead_nodes_are_excluded() {
        let mut nodes = fleet(3);
        let mut cursor = 0;
        for p in Policy::ALL {
            assert_eq!(
                pick_node(p, &job(), &nodes, &[false, true, true], &mut cursor, SimTime::ZERO),
                Some(1),
                "{} must respect the breaker mask",
                p.name()
            );
            cursor = 0;
        }
        nodes[1].crash(SimTime::ZERO, 5.0);
        for p in Policy::ALL {
            assert_eq!(
                pick_node(p, &job(), &nodes, &[false, true, true], &mut cursor, SimTime::ZERO),
                Some(2),
                "{} must skip the crashed node",
                p.name()
            );
            cursor = 0;
        }
    }
}
