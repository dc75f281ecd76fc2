//! Hierarchical geo-fleet acceptance and property pack.
//!
//! * The interior cap invariant: Σ child caps ≤ parent cap at every node
//!   of the budget tree, for random shapes, demands, and budgets.
//! * Reference equivalence: the O(nodes) cascade matches an in-test copy
//!   of the original O(racks × nodes) one at every level, tick by tick.
//! * The reclamation schedule: freed budget crosses exactly one tree
//!   edge per control interval on its way up.
//! * The correlated-failure audit (the geo tier's headline check): a
//!   rack power loss zeroes the rack's cap at the next apportionment and
//!   its budget lands on the sibling racks inside the same zone.
//! * The bounded dead-letter ledger: overflowed specs are counted, not
//!   stored, and the conservation equation still tiles.
//! * Saturation pins for the breaker-cooldown and retry-backoff
//!   arithmetic.

use greengpu_cluster::job::JobSpec;
use greengpu_cluster::power::{apportion, NodeDemand};
use greengpu_cluster::{
    run_fleet, BreakerState, BudgetTree, CircuitBreaker, FleetConfig, LifecycleParams, NodeConfig, Policy, RetryQueue,
    Topology, TopologyIndex,
};
use greengpu_hw::ChaosPlan;
use greengpu_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// A geo fleet with only the correlated rack-loss channel armed, so the
/// domain audit is not muddied by independent per-node crashes.
fn rack_loss_fleet(seed: u64) -> FleetConfig {
    let topo = Topology::uniform(1, 2, 2, 2);
    let nodes: Vec<NodeConfig> = (0..topo.n_nodes()).map(|_| NodeConfig::default_node()).collect();
    FleetConfig::from_nodes(nodes, 0.8, Policy::LeastLoaded, SimDuration::from_secs(120), seed)
        .with_chaos(ChaosPlan::crashes_only(seed ^ 0xC4A05, 0.0, (2.0, 6.0)).with_rack_loss(0.01, (3.0, 8.0)))
        .with_topology(topo)
}

/// Acceptance: a correlated rack blackout's full budget is re-apportioned
/// inside its zone at the next interval — the rack's cap (and with it
/// every node's cap in the failed domain) drops to 0 mW, the sibling
/// racks absorb the freed milliwatts, and the zone's own cap holds until
/// the lagged report reaches the region a tick later.
#[test]
fn rack_blackout_budget_is_reapportioned_inside_the_zone() {
    let r = run_fleet(&rack_loss_fleet(0x6E0_F1EE7));
    assert!(
        r.rack_losses >= 2,
        "scenario must lose at least two racks, got {}",
        r.rack_losses
    );
    assert_eq!(r.domain_records.len() as u64, r.rack_losses);
    let mut audited = 0;
    for rec in &r.domain_records {
        // A loss in the final interval never sees another apportionment.
        let Some(rack_after) = rec.rack_cap_after_mw else {
            continue;
        };
        audited += 1;
        assert!(
            rec.rack_cap_before_mw > 0,
            "rack {} held no budget before its loss at {} s",
            rec.rack,
            rec.at_s
        );
        assert_eq!(
            rack_after, 0,
            "rack {}'s cap was not reclaimed at the first tick after its loss at {} s",
            rec.rack, rec.at_s
        );
        assert!(
            rec.sibling_caps_after_mw.expect("filled together") >= rec.sibling_caps_before_mw,
            "sibling racks of rack {} must absorb the freed budget at {} s: {} → {:?}",
            rec.rack,
            rec.at_s,
            rec.sibling_caps_before_mw,
            rec.sibling_caps_after_mw
        );
    }
    assert!(audited > 0, "at least one loss must be audited end-to-end");
    assert_eq!(r.interior_cap_violations, 0, "Σ child caps ≤ parent at every level");

    // The geo trace carries all three interior levels every interval.
    let levels: Vec<&str> = r.geo_trace.rows.iter().map(|row| row.level).collect();
    for level in ["region", "zone", "rack"] {
        assert!(levels.contains(&level), "geo trace must carry {level} rows");
    }
}

/// Satellite: past the dead-letter capacity the specs are dropped and
/// counted, and the conservation ledger still tiles exactly.
#[test]
fn dead_letter_overflow_keeps_the_conservation_ledger_tiling() {
    let nodes: Vec<NodeConfig> = (0..4).map(|_| NodeConfig::default_node()).collect();
    let lifecycle = LifecycleParams {
        max_retries: 0,
        dead_letter_capacity: 2,
        ..LifecycleParams::default()
    };
    let cfg = FleetConfig::from_nodes(
        nodes,
        0.8,
        Policy::LeastLoaded,
        SimDuration::from_secs(120),
        0xDEAD_7E77,
    )
    .with_chaos(ChaosPlan::crashes_only(0xDEAD_7E77 ^ 0xC4A05, 0.05, (2.0, 6.0)))
    .with_lifecycle(lifecycle);
    let r = run_fleet(&cfg);
    assert_eq!(r.dead_letter.len(), 2, "stored specs stop at capacity");
    assert!(
        r.dead_letter_overflow > 0,
        "scenario must overflow the dead-letter queue, got {} over capacity 2",
        r.dead_letter_overflow
    );
    assert_eq!(
        r.admitted,
        r.completed.len() as u64
            + r.dead_letter.len() as u64
            + r.dead_letter_overflow
            + r.deferred_pending_at_end
            + r.in_flight_at_end,
        "conservation: admitted != completed + dead-lettered + overflowed + deferred + in-flight"
    );
}

/// Saturation pin: consecutive breaker trips stop doubling at the
/// backoff cap — fifty failures still open for base · 2^cap, not 2^50.
#[test]
fn breaker_cooldown_saturates_at_the_backoff_cap() {
    let mut b = CircuitBreaker::new(2.0, 3);
    for _ in 0..50 {
        b.record_failure(SimTime::from_secs(100));
    }
    assert_eq!(b.trips(), 50);
    b.tick(SimTime::from_secs(115)); // capped cooldown: 2 · 2³ = 16 s
    assert_eq!(b.state(), BreakerState::Open, "still inside the capped cooldown");
    b.tick(SimTime::from_secs(116));
    assert_eq!(b.state(), BreakerState::HalfOpen, "cooldown capped, not 2^50 s");
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic random demand vector for a property case.
fn random_demands(n: usize, seed: u64) -> Vec<NodeDemand> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let floor = splitmix(&mut s) % 100_000;
            let desired = floor + splitmix(&mut s) % 200_000;
            let peak = desired + splitmix(&mut s) % 200_000;
            NodeDemand {
                floor_mw: floor,
                desired_mw: desired,
                peak_mw: peak,
                busy: splitmix(&mut s) & 1 == 1,
            }
        })
        .collect()
}

/// A random irregular tree: 1–3 regions of 1–3 zones of 1–4 racks, each
/// rack holding 1–9 nodes.
fn random_topology(seed: u64) -> Topology {
    let mut s = seed;
    let mut pick = |lo: u64, hi: u64| (lo + splitmix(&mut s) % (hi - lo + 1)) as usize;
    let regions = (0..pick(1, 3))
        .map(|_| {
            (0..pick(1, 3))
                .map(|_| (0..pick(1, 4)).map(|_| pick(1, 9)).collect())
                .collect()
        })
        .collect();
    Topology { regions }
}

/// The budget cascade as first written — every rack scans every node for
/// its members (O(racks × nodes) per tick) — kept as the oracle the
/// production [`BudgetTree`] must match cap for cap.
struct ReferenceTree {
    rack_of: Vec<usize>,
    zone_racks: Vec<Vec<usize>>,
    region_zones: Vec<Vec<usize>>,
    prev_rack: Option<Vec<NodeDemand>>,
    prev_zone: Option<Vec<NodeDemand>>,
    rack_caps: Vec<u64>,
    zone_caps: Vec<u64>,
    region_caps: Vec<u64>,
    rack_desired: Vec<u64>,
    zone_desired: Vec<u64>,
    region_desired: Vec<u64>,
}

fn reference_aggregate<'a>(demands: impl Iterator<Item = &'a NodeDemand>) -> NodeDemand {
    let mut agg = NodeDemand {
        floor_mw: 0,
        desired_mw: 0,
        peak_mw: 0,
        busy: false,
    };
    for d in demands {
        agg.floor_mw = agg.floor_mw.saturating_add(d.floor_mw);
        agg.desired_mw = agg.desired_mw.saturating_add(d.desired_mw);
        agg.peak_mw = agg.peak_mw.saturating_add(d.peak_mw);
        agg.busy |= d.busy;
    }
    agg
}

impl ReferenceTree {
    fn new(idx: &TopologyIndex) -> Self {
        ReferenceTree {
            rack_of: idx.rack_of.clone(),
            zone_racks: idx.zone_racks.clone(),
            region_zones: idx.region_zones.clone(),
            prev_rack: None,
            prev_zone: None,
            rack_caps: vec![0; idx.n_racks()],
            zone_caps: vec![0; idx.n_zones()],
            region_caps: vec![0; idx.n_regions()],
            rack_desired: vec![0; idx.n_racks()],
            zone_desired: vec![0; idx.n_zones()],
            region_desired: vec![0; idx.n_regions()],
        }
    }

    fn tick(&mut self, budget_mw: u64, demands: &[NodeDemand]) -> Vec<u64> {
        let n_racks = self.rack_caps.len();
        let mut cur_rack = vec![
            NodeDemand {
                floor_mw: 0,
                desired_mw: 0,
                peak_mw: 0,
                busy: false,
            };
            n_racks
        ];
        for (d, &r) in demands.iter().zip(&self.rack_of) {
            cur_rack[r].floor_mw = cur_rack[r].floor_mw.saturating_add(d.floor_mw);
            cur_rack[r].desired_mw = cur_rack[r].desired_mw.saturating_add(d.desired_mw);
            cur_rack[r].peak_mw = cur_rack[r].peak_mw.saturating_add(d.peak_mw);
            cur_rack[r].busy |= d.busy;
        }
        let rack_report = self.prev_rack.as_deref().unwrap_or(&cur_rack);
        let zone_report: Vec<NodeDemand> = self
            .zone_racks
            .iter()
            .map(|racks| reference_aggregate(racks.iter().map(|&r| &rack_report[r])))
            .collect();
        let region_input = self.prev_zone.as_deref().unwrap_or(&zone_report);
        let region_report: Vec<NodeDemand> = self
            .region_zones
            .iter()
            .map(|zones| reference_aggregate(zones.iter().map(|&z| &region_input[z])))
            .collect();
        self.region_caps = apportion(budget_mw, &region_report);
        for (g, zones) in self.region_zones.iter().enumerate() {
            let wants: Vec<NodeDemand> = zones.iter().map(|&z| zone_report[z]).collect();
            let caps = apportion(self.region_caps[g], &wants);
            for (&z, cap) in zones.iter().zip(caps) {
                self.zone_caps[z] = cap;
            }
        }
        for (z, racks) in self.zone_racks.iter().enumerate() {
            let wants: Vec<NodeDemand> = racks.iter().map(|&r| cur_rack[r]).collect();
            let caps = apportion(self.zone_caps[z], &wants);
            for (&r, cap) in racks.iter().zip(caps) {
                self.rack_caps[r] = cap;
            }
        }
        let mut leaf_caps = vec![0; demands.len()];
        for (r, &rack_cap) in self.rack_caps.iter().enumerate() {
            let members: Vec<usize> = (0..demands.len()).filter(|&i| self.rack_of[i] == r).collect();
            let wants: Vec<NodeDemand> = members.iter().map(|&i| demands[i]).collect();
            let caps = apportion(rack_cap, &wants);
            for (&i, cap) in members.iter().zip(caps) {
                leaf_caps[i] = cap;
            }
        }
        self.rack_desired = cur_rack.iter().map(|d| d.desired_mw).collect();
        self.zone_desired = zone_report.iter().map(|d| d.desired_mw).collect();
        self.region_desired = region_report.iter().map(|d| d.desired_mw).collect();
        self.prev_rack = Some(cur_rack);
        self.prev_zone = Some(zone_report);
        leaf_caps
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(nodes) cascade is the reference cascade: on random irregular
    /// trees, over several ticks of demand churn with whole racks going
    /// dark and coming back, every leaf, rack, zone and region cap — and
    /// every level's desired report — equals the reference's, under
    /// scarce, contended and abundant budgets alike.
    #[test]
    fn cascade_matches_the_reference_tree(
        shape_seed in any::<u64>(),
        seed in any::<u64>(),
        budget_kind in 0u8..3,
        budget_raw in any::<u64>(),
        ticks in 1usize..7,
        churn_pct in 0u64..100,
        dark_pct in 0u64..40,
    ) {
        // Scarce (floors go uncovered), contended, or unlimited.
        let budget = match budget_kind {
            0 => budget_raw % 200_000,
            1 => budget_raw % 20_000_000,
            _ => u64::MAX,
        };
        let topo = random_topology(shape_seed);
        let idx = topo.index();
        let n = topo.n_nodes();
        let mut tree = BudgetTree::new(&idx);
        let mut reference = ReferenceTree::new(&idx);
        let mut s = seed;
        let mut demands = random_demands(n, splitmix(&mut s));
        for k in 0..ticks {
            let fresh = random_demands(n, splitmix(&mut s));
            for (d, f) in demands.iter_mut().zip(fresh) {
                if splitmix(&mut s) % 100 < churn_pct {
                    *d = f;
                }
            }
            let mut live = demands.clone();
            for members in &idx.rack_nodes {
                if splitmix(&mut s) % 100 < dark_pct {
                    for &i in members {
                        live[i] = NodeDemand { floor_mw: 0, desired_mw: 0, peak_mw: 0, busy: false };
                    }
                }
            }
            let caps = tree.tick(budget, &live);
            let want = reference.tick(budget, &live);
            prop_assert_eq!(&caps, &want, "leaf caps, tick {}", k);
            prop_assert_eq!(tree.rack_caps(), &reference.rack_caps[..], "rack caps, tick {}", k);
            prop_assert_eq!(tree.zone_caps(), &reference.zone_caps[..], "zone caps, tick {}", k);
            prop_assert_eq!(tree.region_caps(), &reference.region_caps[..], "region caps, tick {}", k);
            prop_assert_eq!(tree.rack_desired(), &reference.rack_desired[..]);
            prop_assert_eq!(tree.zone_desired(), &reference.zone_desired[..]);
            prop_assert_eq!(tree.region_desired(), &reference.region_desired[..]);
            prop_assert_eq!(tree.cap_violations(budget, &caps), 0);
        }
    }

    /// Σ child caps ≤ parent cap at every interior node, for any tree
    /// shape, budget, and demand sequence — and on the bootstrap tick
    /// (where the lagged reports equal the live aggregates) a budget
    /// that covers the floors grants every leaf at least its floor
    /// through all four apportionment levels. On later ticks the floor
    /// guarantee is intentionally weaker: an interior split runs on a
    /// lagged report, so a floor that *rose* since the report can
    /// transiently undercover — the nesting invariant must hold anyway.
    #[test]
    fn interior_caps_nest_for_random_trees(
        regions in 1usize..4,
        zones in 1usize..4,
        racks in 1usize..4,
        per_rack in 1usize..4,
        budget in 0u64..5_000_000,
        seed in any::<u64>(),
        ticks in 1usize..5,
    ) {
        let topo = Topology::uniform(regions, zones, racks, per_rack);
        let mut tree = BudgetTree::new(&topo.index());
        for k in 0..ticks {
            let demands = random_demands(topo.n_nodes(), seed.wrapping_add(k as u64));
            let caps = tree.tick(budget, &demands);
            prop_assert_eq!(tree.cap_violations(budget, &caps), 0, "tick {}", k);
            prop_assert!(caps.iter().map(|&c| u128::from(c)).sum::<u128>() <= u128::from(budget));
            let total_floor: u64 = demands.iter().map(|d| d.floor_mw).sum();
            if k == 0 && budget >= total_floor {
                for (i, (cap, d)) in caps.iter().zip(&demands).enumerate() {
                    prop_assert!(
                        *cap >= d.floor_mw,
                        "leaf {} under its floor on the bootstrap tick: {} < {}",
                        i, cap, d.floor_mw
                    );
                }
            }
        }
    }

    /// Reclamation bubbles exactly one level per interval: after a rack
    /// dies, its leaves' caps hit 0 and the sibling racks absorb the
    /// budget immediately, while the zone's own cap holds for one more
    /// tick (the lagged report) and only then adjusts.
    #[test]
    fn reclamation_crosses_one_edge_per_interval(
        racks in 2usize..4,
        per_rack in 1usize..4,
        peak_step in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let topo = Topology::uniform(1, 2, racks, per_rack);
        let idx = topo.index();
        let n = topo.n_nodes();
        let mut tree = BudgetTree::new(&idx);
        let mut s = seed;
        let floor = 1 + splitmix(&mut s) % 10_000;
        let up = vec![NodeDemand {
            floor_mw: floor,
            desired_mw: floor + peak_step,
            peak_mw: floor + 2 * peak_step,
            busy: true,
        }; n];
        // An abundant budget pins every level at its peak aggregate, so
        // the cap movements below are exactly the lag schedule and not a
        // proportional-split artifact (contended budgets are covered by
        // `interior_caps_nest_for_random_trees`).
        let budget = (floor + 2 * peak_step) * n as u64 + 1_000;
        for _ in 0..3 {
            tree.tick(budget, &up);
        }
        let zone0_before = tree.zone_caps()[0];
        let sibling_sum_before: u64 = idx.zone_racks[0][1..].iter().map(|&r| tree.rack_caps()[r]).sum();

        // Rack 0 (the first rack of zone 0) goes dark.
        let mut crashed = up.clone();
        for &i in &idx.rack_nodes[0] {
            crashed[i] = NodeDemand { floor_mw: 0, desired_mw: 0, peak_mw: 0, busy: false };
        }
        let caps = tree.tick(budget, &crashed);
        for &i in &idx.rack_nodes[0] {
            prop_assert_eq!(caps[i], 0, "dark leaf {} must hold no budget", i);
        }
        prop_assert_eq!(tree.rack_caps()[0], 0, "dark rack must hold no budget");
        prop_assert_eq!(tree.zone_caps()[0], zone0_before, "zone cap lags one tick");
        let sibling_sum_after: u64 = idx.zone_racks[0][1..].iter().map(|&r| tree.rack_caps()[r]).sum();
        prop_assert!(
            sibling_sum_after >= sibling_sum_before,
            "siblings must absorb: {} < {}", sibling_sum_after, sibling_sum_before
        );

        // One more tick: the lagged report lands and the zone's cap
        // strictly shrinks — under the abundant budget it tracks the
        // zone's peak aggregate, which just lost a whole rack.
        let zone0_t1 = tree.zone_caps()[0];
        tree.tick(budget, &crashed);
        prop_assert!(
            tree.zone_caps()[0] < zone0_t1,
            "zone cap must shrink once the lagged report lands: {} >= {}",
            tree.zone_caps()[0], zone0_t1
        );
    }

    /// Saturation pin: the retry backoff exponent pins at 2^20 for any
    /// loss count — the wait stays finite and every loss is re-queued.
    #[test]
    fn retry_backoff_never_overflows(losses in 1u32..200, backoff in 0.001f64..10.0) {
        let mut q = RetryQueue::new(u32::MAX, backoff, 4);
        let job = JobSpec {
            id: 1,
            workload: "kmeans".to_string(),
            arrival: SimTime::ZERO,
            size: 1.0,
            deadline: None,
            tenant: 0,
        };
        for k in 0..losses {
            prop_assert!(q.job_lost(job.clone(), SimTime::from_secs_f64(f64::from(k)), None));
            let ready = q.drain_ready(SimTime::from_secs_f64(1e12));
            prop_assert_eq!(ready.len(), 1, "loss {} must re-queue at a finite time", k);
        }
        prop_assert_eq!(q.retried(), u64::from(losses));
    }
}
