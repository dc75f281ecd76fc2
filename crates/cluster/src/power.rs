//! Fleet-budget apportionment into per-node power caps.
//!
//! Caps are integer **milliwatts** so the headline invariant — the summed
//! per-node caps never exceed the fleet budget — holds exactly, with no
//! floating-point accumulation drift, and the allocation is trivially
//! byte-reproducible.
//!
//! Three sequential passes, each drawing from a shared `remaining` pool so
//! every grant is bounded by what is actually left:
//!
//! 1. **Floors** — every node gets (up to) its floor: the modeled
//!    worst-case power of its lowest frequency pair. A node at its floor
//!    can always enforce *some* pair, so the per-node feasible set never
//!    empties while the budget covers the floors.
//! 2. **Demand** — busy nodes split the rest proportionally to what their
//!    WMA learner wants above the floor (the unmasked argmax pair's
//!    modeled power). Idle nodes want nothing here, which is exactly the
//!    idle→busy cap re-allocation: slack from idle nodes flows to loaded
//!    ones every interval.
//! 3. **Headroom** — leftover budget spreads over busy nodes up to their
//!    peak-pair power, so a rising utilization can climb the frequency
//!    ladder next interval without waiting for the apportioner.

/// A cap or budget in integer milliwatts.
pub type MilliWatts = u64;

/// Converts watts to the integer milliwatt grid (rounding up, so a cap
/// derived from a modeled floor still admits that floor).
pub fn mw(watts: f64) -> MilliWatts {
    assert!(watts >= 0.0 && watts.is_finite(), "bad wattage {watts}");
    (watts * 1000.0).ceil() as MilliWatts
}

/// Converts watts to the integer milliwatt grid rounding **down** — the
/// budget-side conversion, so the integer caps can never sum past the
/// stated watt budget.
pub fn mw_floor(watts: f64) -> MilliWatts {
    assert!(watts >= 0.0 && watts.is_finite(), "bad wattage {watts}");
    (watts * 1000.0).floor() as MilliWatts
}

/// What one node asks of the apportioner this interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDemand {
    /// Modeled worst-case power of the lowest frequency pair.
    pub floor_mw: MilliWatts,
    /// Modeled worst-case power of the pair the node's learner would
    /// enforce absent any cap.
    pub desired_mw: MilliWatts,
    /// Modeled worst-case power of the peak frequency pair.
    pub peak_mw: MilliWatts,
    /// Whether the node currently holds a job.
    pub busy: bool,
}

/// Splits `pool` over `wants` proportionally, never exceeding `remaining`.
fn grant_proportional(caps: &mut [MilliWatts], wants: &[MilliWatts], remaining: &mut MilliWatts) {
    let total: u128 = wants.iter().map(|&w| u128::from(w)).sum();
    if total == 0 || *remaining == 0 {
        return;
    }
    let pool = *remaining;
    for (cap, &want) in caps.iter_mut().zip(wants) {
        let share = proportional_share(pool, want, total);
        let grant = share.min(want).min(*remaining);
        *cap += grant;
        *remaining -= grant;
    }
}

/// `pool · want / total`, rounded down, for `want <= total`: in `u64`
/// when the product and `total` fit, which gives the same quotient, and
/// in `u128` otherwise.
fn proportional_share(pool: MilliWatts, want: MilliWatts, total: u128) -> MilliWatts {
    match (pool.checked_mul(want), u64::try_from(total)) {
        (Some(product), Ok(total)) => product / total,
        _ => (u128::from(pool) * u128::from(want) / total) as MilliWatts,
    }
}

/// Apportions `budget_mw` into one cap per node.
///
/// Guarantees, by construction: the returned caps sum to at most
/// `budget_mw`; and whenever `budget_mw >= Σ floor_mw`, every node's cap
/// is at least its floor.
pub fn apportion(budget_mw: MilliWatts, demands: &[NodeDemand]) -> Vec<MilliWatts> {
    let mut caps = Vec::with_capacity(demands.len());
    apportion_into(budget_mw, demands, &mut caps, &mut Vec::with_capacity(demands.len()));
    caps
}

/// [`apportion`] into `caps`, with `wants` as the scratch for each
/// pass's per-node wants: neither buffer allocates once it has grown to
/// `demands.len()`.
fn apportion_into(
    budget_mw: MilliWatts,
    demands: &[NodeDemand],
    caps: &mut Vec<MilliWatts>,
    wants: &mut Vec<MilliWatts>,
) {
    let mut remaining = budget_mw;

    // Pass 1: floors.
    caps.clear();
    caps.extend(demands.iter().map(|d| {
        let grant = d.floor_mw.min(remaining);
        remaining -= grant;
        grant
    }));

    // Pass 2: busy nodes' demand above the floor.
    wants.clear();
    wants.extend(demands.iter().zip(caps.iter()).map(|(d, &cap)| {
        if d.busy {
            d.desired_mw.clamp(cap, d.peak_mw.max(cap)) - cap
        } else {
            0
        }
    }));
    grant_proportional(caps, wants, &mut remaining);

    // Pass 3: leftover headroom up to peak for busy nodes.
    wants.clear();
    wants.extend(
        demands
            .iter()
            .zip(caps.iter())
            .map(|(d, &cap)| if d.busy { d.peak_mw.saturating_sub(cap) } else { 0 }),
    );
    grant_proportional(caps, wants, &mut remaining);
}

/// The demand of nothing: the start of every aggregate.
const NO_DEMAND: NodeDemand = NodeDemand {
    floor_mw: 0,
    desired_mw: 0,
    peak_mw: 0,
    busy: false,
};

/// Adds `d` into the aggregate `agg`, saturating; `busy` is any-of.
fn add_demand(agg: &mut NodeDemand, d: &NodeDemand) {
    agg.floor_mw = agg.floor_mw.saturating_add(d.floor_mw);
    agg.desired_mw = agg.desired_mw.saturating_add(d.desired_mw);
    agg.peak_mw = agg.peak_mw.saturating_add(d.peak_mw);
    agg.busy |= d.busy;
}

/// Saturating element-wise sum of a set of demands; `busy` is any-of.
/// The aggregate a rack/zone/region reports upward is exactly what a
/// fleet of its children would report flat.
fn aggregate<'a>(demands: impl Iterator<Item = &'a NodeDemand>) -> NodeDemand {
    let mut agg = NO_DEMAND;
    for d in demands {
        add_demand(&mut agg, d);
    }
    agg
}

/// Runs `apportion` of `cap` over `children` (ids into `reports`), writes
/// each child's grant into `out`, through the tree's scratch, and calls
/// `moved` with each child whose grant changed.
fn split(
    cap: MilliWatts,
    children: &[usize],
    reports: &[NodeDemand],
    out: &mut [MilliWatts],
    scratch: &mut Scratch,
    mut moved: impl FnMut(usize),
) {
    scratch.wants.clear();
    scratch.wants.extend(children.iter().map(|&c| reports[c]));
    apportion_into(cap, &scratch.wants, &mut scratch.caps, &mut scratch.grants);
    for (&c, &granted) in children.iter().zip(&scratch.caps) {
        if out[c] != granted {
            out[c] = granted;
            moved(c);
        }
    }
}

/// The budget tree's reusable per-split buffers.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// One split's children's demands, caps, and per-pass wants.
    wants: Vec<NodeDemand>,
    caps: Vec<MilliWatts>,
    grants: Vec<MilliWatts>,
}

/// What one tick of the tree has to redo, level by level; every flag is
/// cleared as its work is done.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// Racks to split again (a leaf demand or the rack cap moved); a rack
    /// marked before the aggregates are taken had a leaf demand move.
    rack: Vec<bool>,
    /// Zones to split again (a live rack aggregate or the zone cap moved).
    zone: Vec<bool>,
    /// Regions to split again (a zone report or the region cap moved).
    region: Vec<bool>,
    /// Whether the root split runs again (a region report moved).
    root: bool,
    /// Zones and regions whose report must be taken again: a child's
    /// lagged report moved.
    zone_report: Vec<bool>,
    region_report: Vec<bool>,
    /// Racks whose live aggregate, and zones whose report, moved this
    /// tick: they move up one level at the next.
    racks_moved: Vec<usize>,
    zones_moved: Vec<usize>,
}

/// Whether `members`' caps in `leaf_caps` sum past `cap`.
fn over(members: &[usize], cap: MilliWatts, leaf_caps: &[MilliWatts]) -> bool {
    let sum: u128 = members
        .iter()
        .map(|&i| leaf_caps.get(i).map_or(0, |&c| u128::from(c)))
        .sum();
    sum > u128::from(cap)
}

/// The cascading hierarchical apportioner: the same floors→demand→headroom
/// [`apportion`] run at every interior node of a
/// [`crate::topology::Topology`], with **lagged upward reports** above the
/// rack level.
///
/// Each tick:
///
/// * every rack apportions its cap over its leaves from their *current*
///   demands, and every zone apportions its cap over its racks from the
///   racks' current aggregates — so a crashed rack's milliwatts are
///   re-granted to its sibling racks at the very next tick;
/// * the zone report a region sees is aggregated from the racks'
///   *previous-tick* reports, and the region report the root sees from the
///   zones' previous-tick reports — so the freed budget crosses exactly
///   one tree edge per control interval on its way up (zone at `t+1`,
///   region at `t+2`, root at `t+3`), modeling the reporting latency of a
///   real telemetry hierarchy instead of teleporting reclaimed power to
///   the fleet root.
///
/// The cap invariant needs no lag argument: every level is an
/// [`apportion`] call, so Σ child caps ≤ parent cap at *every* interior
/// node by construction, and Σ leaf caps ≤ budget transitively. The first
/// tick bootstraps the lagged reports from the current aggregates.
///
/// The tree keeps every level's reports and caps, and each rack's cap
/// check, across ticks. [`BudgetTree::tick`] redoes every aggregate and
/// every split: O(nodes + racks), each rack over its own member list. The
/// event-driven engine's tick is told which leaf demands moved, and redoes
/// only the aggregates whose inputs moved and the splits whose cap or
/// child reports moved: every split is a pure function of those, so the
/// splits it skips would write the caps they hold. With a few moved
/// leaves that is a few racks' work plus one flag pass per level. Every
/// split runs in buffers the tree keeps, so neither allocates after the
/// first tick; `tick` alone returns a copy of the leaf caps.
#[derive(Debug, Clone)]
pub struct BudgetTree {
    rack_of: Vec<usize>,
    zone_of_rack: Vec<usize>,
    region_of_zone: Vec<usize>,
    /// Rack id → its node ids, ascending (the index's `rack_nodes`).
    rack_nodes: Vec<Vec<usize>>,
    zone_racks: Vec<Vec<usize>>,
    region_zones: Vec<Vec<usize>>,
    /// Whether a tick has run; the first one bootstraps the lagged
    /// reports.
    started: bool,
    /// The root budget of the last tick.
    budget_mw: MilliWatts,
    /// Live rack aggregates as of the last tick.
    cur_rack: Vec<NodeDemand>,
    /// Rack aggregates as of the tick before (what the zones report
    /// upward).
    prev_rack: Vec<NodeDemand>,
    /// Zone reports as of the last tick: aggregates of `prev_rack`.
    zone_report: Vec<NodeDemand>,
    /// Zone reports as of the tick before (what the regions report
    /// upward).
    prev_zone: Vec<NodeDemand>,
    /// Region reports as of the last tick: aggregates of `prev_zone`.
    region_report: Vec<NodeDemand>,
    leaf_caps: Vec<MilliWatts>,
    rack_caps: Vec<MilliWatts>,
    zone_caps: Vec<MilliWatts>,
    region_caps: Vec<MilliWatts>,
    /// Desired milliwatts each split *saw* last tick (live for racks,
    /// lagged per the reporting schedule above) — telemetry only.
    rack_desired: Vec<MilliWatts>,
    zone_desired: Vec<MilliWatts>,
    region_desired: Vec<MilliWatts>,
    /// Whether each rack's leaf caps sum past its cap, and how many do.
    rack_over: Vec<bool>,
    racks_over: u64,
    marks: Marks,
    scratch: Scratch,
}

impl BudgetTree {
    /// A tree over the given topology, with no report history yet.
    pub fn new(idx: &crate::topology::TopologyIndex) -> Self {
        let (n_racks, n_zones, n_regions) = (idx.n_racks(), idx.n_zones(), idx.n_regions());
        BudgetTree {
            rack_of: idx.rack_of.clone(),
            zone_of_rack: idx.zone_of_rack.clone(),
            region_of_zone: idx.region_of_zone.clone(),
            rack_nodes: idx.rack_nodes.clone(),
            zone_racks: idx.zone_racks.clone(),
            region_zones: idx.region_zones.clone(),
            started: false,
            budget_mw: 0,
            cur_rack: vec![NO_DEMAND; n_racks],
            prev_rack: vec![NO_DEMAND; n_racks],
            zone_report: vec![NO_DEMAND; n_zones],
            prev_zone: vec![NO_DEMAND; n_zones],
            region_report: vec![NO_DEMAND; n_regions],
            leaf_caps: vec![0; idx.n_nodes()],
            rack_caps: vec![0; n_racks],
            zone_caps: vec![0; n_zones],
            region_caps: vec![0; n_regions],
            rack_desired: vec![0; n_racks],
            zone_desired: vec![0; n_zones],
            region_desired: vec![0; n_regions],
            rack_over: vec![false; n_racks],
            racks_over: 0,
            marks: Marks {
                rack: vec![false; n_racks],
                zone: vec![false; n_zones],
                region: vec![false; n_regions],
                root: false,
                zone_report: vec![false; n_zones],
                region_report: vec![false; n_regions],
                racks_moved: Vec::new(),
                zones_moved: Vec::new(),
            },
            scratch: Scratch::default(),
        }
    }

    /// Runs one cascading apportionment: `budget_mw` at the root, one cap
    /// per leaf out, interior caps stored for telemetry and audit. Every
    /// aggregate and every split is taken afresh.
    pub fn tick(&mut self, budget_mw: MilliWatts, demands: &[NodeDemand]) -> Vec<MilliWatts> {
        self.cascade(budget_mw, demands, None, None);
        self.leaf_caps.clone()
    }

    /// One tick of [`BudgetTree::tick`] with `moved` the leaves whose
    /// demand changed since the last tick (`None`: any may have), keeping
    /// the leaf caps in the tree ([`BudgetTree::leaf_caps`]). Only the
    /// aggregates and splits whose inputs moved are taken again (every
    /// one while `moved` is `None`, and on the first tick); each leaf
    /// whose cap changed is pushed onto `recapped`, if given.
    pub(crate) fn cascade(
        &mut self,
        budget_mw: MilliWatts,
        demands: &[NodeDemand],
        moved: Option<&[usize]>,
        mut recapped: Option<&mut Vec<usize>>,
    ) {
        assert_eq!(
            demands.len(),
            self.rack_of.len(),
            "demand count must match the topology"
        );
        let all = moved.is_none() || !self.started;
        let BudgetTree {
            rack_of,
            zone_of_rack,
            region_of_zone,
            rack_nodes,
            zone_racks,
            region_zones,
            started,
            budget_mw: last_budget,
            cur_rack,
            prev_rack,
            zone_report,
            prev_zone,
            region_report,
            leaf_caps,
            rack_caps,
            zone_caps,
            region_caps,
            rack_desired,
            zone_desired,
            region_desired,
            rack_over,
            racks_over,
            marks,
            scratch,
        } = self;
        let redo = |flag: &mut bool| std::mem::take(flag) || all;

        // Last tick's live rack aggregates and zone reports move up one
        // level: the zones' and regions' reports are one tick behind.
        for r in marks.racks_moved.drain(..) {
            prev_rack[r] = cur_rack[r];
            marks.zone_report[zone_of_rack[r]] = true;
        }
        for z in marks.zones_moved.drain(..) {
            prev_zone[z] = zone_report[z];
            marks.region_report[region_of_zone[z]] = true;
        }

        // Current rack aggregates — the only level that sees the leaves
        // live; everything above runs on last tick's reports.
        for &i in moved.unwrap_or_default() {
            marks.rack[rack_of[i]] = true;
        }
        for (r, members) in rack_nodes.iter().enumerate() {
            if !(marks.rack[r] || all) {
                continue;
            }
            marks.rack[r] = true;
            let agg = aggregate(members.iter().map(|&i| &demands[i]));
            if agg != cur_rack[r] {
                cur_rack[r] = agg;
                rack_desired[r] = agg.desired_mw;
                marks.zone[zone_of_rack[r]] = true;
                marks.racks_moved.push(r);
            }
        }
        if !*started {
            // The first tick's lagged reports are its live ones.
            prev_rack.clone_from(cur_rack);
        }

        // One-tick-lagged upward reports.
        for (z, racks) in zone_racks.iter().enumerate() {
            if !redo(&mut marks.zone_report[z]) {
                continue;
            }
            let report = aggregate(racks.iter().map(|&r| &prev_rack[r]));
            if report != zone_report[z] {
                zone_report[z] = report;
                zone_desired[z] = report.desired_mw;
                marks.region[region_of_zone[z]] = true;
                marks.zones_moved.push(z);
            }
        }
        if !*started {
            prev_zone.clone_from(zone_report);
        }
        for (g, zones) in region_zones.iter().enumerate() {
            if !redo(&mut marks.region_report[g]) {
                continue;
            }
            let report = aggregate(zones.iter().map(|&z| &prev_zone[z]));
            if report != region_report[g] {
                region_report[g] = report;
                region_desired[g] = report.desired_mw;
                marks.root = true;
            }
        }

        // Cascade the caps down: root → regions → zones → racks → leaves.
        // Each split uses the freshest report its level has: the root
        // sees region reports (two ticks behind the leaves), a region
        // splits over its zones' one-tick-lagged reports, and a zone
        // splits over its racks' live aggregates. A split runs again only
        // when its cap or a child's report moved.
        let root_moved = *last_budget != budget_mw;
        if redo(&mut marks.root) || root_moved {
            scratch.caps.clear();
            scratch.caps.extend_from_slice(region_caps);
            apportion_into(budget_mw, region_report, region_caps, &mut scratch.grants);
            for (g, (&was, &now)) in scratch.caps.iter().zip(region_caps.iter()).enumerate() {
                marks.region[g] |= was != now;
            }
        }
        for (g, zones) in region_zones.iter().enumerate() {
            if redo(&mut marks.region[g]) {
                split(region_caps[g], zones, zone_report, zone_caps, scratch, |z| {
                    marks.zone[z] = true
                });
            }
        }
        for (z, racks) in zone_racks.iter().enumerate() {
            if redo(&mut marks.zone[z]) {
                split(zone_caps[z], racks, cur_rack, rack_caps, scratch, |r| {
                    marks.rack[r] = true
                });
            }
        }
        for (r, members) in rack_nodes.iter().enumerate() {
            if !redo(&mut marks.rack[r]) {
                continue;
            }
            split(rack_caps[r], members, demands, leaf_caps, scratch, |i| {
                if let Some(recapped) = recapped.as_deref_mut() {
                    recapped.push(i);
                }
            });
            let now_over = over(members, rack_caps[r], leaf_caps);
            if now_over != rack_over[r] {
                rack_over[r] = now_over;
                if now_over {
                    *racks_over += 1;
                } else {
                    *racks_over -= 1;
                }
            }
        }
        *started = true;
        *last_budget = budget_mw;
    }

    /// Per-leaf caps from the last tick.
    pub(crate) fn leaf_caps(&self) -> &[MilliWatts] {
        &self.leaf_caps
    }

    /// Per-rack caps from the last [`BudgetTree::tick`].
    pub fn rack_caps(&self) -> &[MilliWatts] {
        &self.rack_caps
    }

    /// Per-zone caps from the last [`BudgetTree::tick`].
    pub fn zone_caps(&self) -> &[MilliWatts] {
        &self.zone_caps
    }

    /// Per-region caps from the last [`BudgetTree::tick`].
    pub fn region_caps(&self) -> &[MilliWatts] {
        &self.region_caps
    }

    /// Desired milliwatts the rack-level splits saw last tick (live leaf
    /// aggregates).
    pub fn rack_desired(&self) -> &[MilliWatts] {
        &self.rack_desired
    }

    /// Desired milliwatts the region→zone splits saw last tick (one-tick
    /// -lagged rack reports).
    pub fn zone_desired(&self) -> &[MilliWatts] {
        &self.zone_desired
    }

    /// Desired milliwatts the root split saw last tick (two-tick-lagged
    /// reports).
    pub fn region_desired(&self) -> &[MilliWatts] {
        &self.region_desired
    }

    /// Counts interior-node cap-invariant violations against `budget_mw`
    /// and `leaf_caps` (Σ children > parent at any level). Exact integer
    /// milliwatts; expected 0 by construction — the engines count rather
    /// than assert so a violation surfaces in the report instead of
    /// killing the run. Every rack is checked against `leaf_caps`.
    pub fn cap_violations(&self, budget_mw: MilliWatts, leaf_caps: &[MilliWatts]) -> u64 {
        let racks = self
            .rack_nodes
            .iter()
            .zip(&self.rack_caps)
            .filter(|&(members, &cap)| over(members, cap, leaf_caps))
            .count();
        racks as u64 + self.interior_violations(budget_mw)
    }

    /// [`BudgetTree::cap_violations`] against the tree's own leaf caps,
    /// from the rack checks the last tick kept.
    pub(crate) fn violations(&self, budget_mw: MilliWatts) -> u64 {
        self.racks_over + self.interior_violations(budget_mw)
    }

    /// The zone, region and root checks of [`BudgetTree::cap_violations`].
    fn interior_violations(&self, budget_mw: MilliWatts) -> u64 {
        let mut violations = 0u64;
        for (z, racks) in self.zone_racks.iter().enumerate() {
            let sum: u128 = racks.iter().map(|&r| u128::from(self.rack_caps[r])).sum();
            if sum > u128::from(self.zone_caps[z]) {
                violations += 1;
            }
        }
        for (g, zones) in self.region_zones.iter().enumerate() {
            let sum: u128 = zones.iter().map(|&z| u128::from(self.zone_caps[z])).sum();
            if sum > u128::from(self.region_caps[g]) {
                violations += 1;
            }
        }
        let root: u128 = self.region_caps.iter().map(|&c| u128::from(c)).sum();
        if root > u128::from(budget_mw) {
            violations += 1;
        }
        violations
    }
}

/// [`apportion`] kept across ticks, for flat fleets: it reruns in place
/// and reports which caps moved.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatCaps {
    caps: Vec<MilliWatts>,
    next: Vec<MilliWatts>,
    wants: Vec<MilliWatts>,
}

impl FlatCaps {
    /// `n` caps of 0 mW, until the first [`FlatCaps::apportion`].
    pub(crate) fn new(n: usize) -> Self {
        FlatCaps {
            caps: vec![0; n],
            ..FlatCaps::default()
        }
    }

    /// The caps of the last apportionment.
    pub(crate) fn caps(&self) -> &[MilliWatts] {
        &self.caps
    }

    /// Apportions `budget_mw` over `demands` again, pushing each node
    /// whose cap changed onto `recapped`, if given.
    pub(crate) fn apportion(
        &mut self,
        budget_mw: MilliWatts,
        demands: &[NodeDemand],
        recapped: Option<&mut Vec<usize>>,
    ) {
        apportion_into(budget_mw, demands, &mut self.next, &mut self.wants);
        if let Some(recapped) = recapped {
            recapped.extend(
                self.caps
                    .iter()
                    .zip(&self.next)
                    .enumerate()
                    .filter(|(_, (was, now))| was != now)
                    .map(|(i, _)| i),
            );
        }
        std::mem::swap(&mut self.caps, &mut self.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn demand(floor: u64, desired: u64, peak: u64, busy: bool) -> NodeDemand {
        NodeDemand {
            floor_mw: floor,
            desired_mw: desired,
            peak_mw: peak,
            busy,
        }
    }

    #[test]
    fn proportional_shares_match_the_u128_quotient_on_both_paths() {
        let wide = |pool: u64, want: u64, total: u128| (u128::from(pool) * u128::from(want) / total) as MilliWatts;
        let cases: [(u64, u64, u128); 7] = [
            (0, 5, 7),
            (1_000, 0, 3),
            (1_000, 3, 3),
            (600_000, 123_456, 987_654),
            // Product exactly u64::MAX.
            (u64::MAX, 1, u128::from(u64::MAX)),
            // Product overflows u64; total fits.
            (1 << 40, 1 << 30, 1 << 31),
            // Total past u64 (a sum of many wants).
            (u64::MAX, u64::MAX - 1, u128::from(u64::MAX) * 3),
        ];
        for (pool, want, total) in cases {
            assert_eq!(
                proportional_share(pool, want, total),
                wide(pool, want, total),
                "{pool}·{want}/{total}"
            );
        }
        assert!(
            (1u64 << 40).checked_mul(1 << 30).is_none(),
            "a case takes the u128 path"
        );
        let mut state = 0x5EED_u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (pool, want) = (state >> (state % 64), (state >> 17) >> (state % 61));
            let total = u128::from(want) + u128::from(state % 1_000_003);
            if total > 0 {
                assert_eq!(proportional_share(pool, want, total), wide(pool, want, total));
            }
        }
        // Through the pass: wants whose products with the pool overflow
        // u64 split exactly as the u128 arithmetic did.
        let wants = [u64::MAX / 4, u64::MAX / 8, 3];
        let total: u128 = wants.iter().map(|&w| u128::from(w)).sum();
        let (mut caps, mut remaining) = ([0; 3], u64::MAX / 2);
        grant_proportional(&mut caps, &wants, &mut remaining);
        let pool = u64::MAX / 2;
        let want_caps = wants.map(|w| wide(pool, w, total).min(w));
        assert_eq!(caps, want_caps);
        assert_eq!(remaining, pool - want_caps.iter().sum::<u64>());
    }

    #[test]
    fn floors_are_covered_first() {
        let d = vec![demand(100, 200, 300, false); 4];
        let caps = apportion(1200, &d);
        assert!(caps.iter().all(|&c| c >= 100), "{caps:?}");
        assert!(caps.iter().sum::<u64>() <= 1200);
    }

    #[test]
    fn idle_slack_flows_to_busy_nodes() {
        let d = vec![
            demand(100, 300, 300, true),
            demand(100, 100, 300, false),
            demand(100, 100, 300, false),
        ];
        let caps = apportion(600, &d);
        // Idle nodes hold their floor; the busy node takes everything
        // else up to its peak.
        assert_eq!(caps[1], 100);
        assert_eq!(caps[2], 100);
        assert!(caps[0] > 100 && caps[0] <= 300, "{caps:?}");
        assert!(caps.iter().sum::<u64>() <= 600);
    }

    #[test]
    fn scarce_budget_never_overshoots() {
        let d = vec![demand(100, 250, 300, true); 3];
        for budget in [0u64, 50, 150, 299, 300, 600, 10_000] {
            let caps = apportion(budget, &d);
            assert!(caps.iter().sum::<u64>() <= budget, "budget {budget}: {caps:?}");
        }
    }

    #[test]
    fn abundant_budget_caps_at_peak() {
        let d = vec![demand(100, 200, 300, true), demand(100, 150, 250, true)];
        let caps = apportion(100_000, &d);
        assert_eq!(caps, vec![300, 250], "busy nodes stop at peak");
    }

    #[test]
    fn mw_rounds_up() {
        assert_eq!(mw(1.0001), 1001);
        assert_eq!(mw(0.0), 0);
        assert_eq!(mw(138.7499), 138_750);
    }

    #[test]
    fn mw_floor_rounds_down() {
        assert_eq!(mw_floor(1.0009), 1000);
        assert_eq!(mw_floor(0.0), 0);
        assert!(mw_floor(562.905_788) as f64 / 1000.0 <= 562.905_788);
    }

    /// 2 zones × 2 racks × 2 nodes, all identical and busy.
    fn tree_2x2x2() -> BudgetTree {
        BudgetTree::new(&Topology::uniform(1, 2, 2, 2).index())
    }

    #[test]
    fn tree_caps_nest_at_every_level() {
        let mut tree = tree_2x2x2();
        let d = vec![demand(100, 250, 300, true); 8];
        for budget in [0u64, 500, 799, 800, 1600, 100_000] {
            let caps = tree.tick(budget, &d);
            assert_eq!(tree.cap_violations(budget, &caps), 0, "budget {budget}");
            assert!(caps.iter().sum::<u64>() <= budget, "budget {budget}: {caps:?}");
        }
    }

    #[test]
    fn tree_matches_flat_apportionment_shape_when_uniform() {
        // A uniform busy fleet under an abundant budget: every level
        // grants up to peak, so the tree and the flat apportioner agree.
        let mut tree = tree_2x2x2();
        let d = vec![demand(100, 200, 300, true); 8];
        let caps = tree.tick(100_000, &d);
        assert_eq!(caps, apportion(100_000, &d));
    }

    #[test]
    fn reclamation_bubbles_exactly_one_level_per_interval() {
        // Steady state, then rack 0 (nodes 0-1) goes dark. The zone
        // re-grants the freed milliwatts to rack 1 the same tick its
        // leaves' demand drops; the *zone's own* cap only moves one tick
        // later, when the lagged rack report reaches the region.
        let mut tree = tree_2x2x2();
        let up = vec![demand(100, 300, 300, true); 8];
        for _ in 0..3 {
            tree.tick(1600, &up);
        }
        let zone0_before = tree.zone_caps()[0];
        let rack1_before = tree.rack_caps()[1];

        let mut crashed = up.clone();
        crashed[0] = demand(0, 0, 0, false);
        crashed[1] = demand(0, 0, 0, false);

        // Tick +1: rack level sees the crash; zone level still runs on
        // the pre-crash report.
        let caps = tree.tick(1600, &crashed);
        assert_eq!(caps[0] + caps[1], 0, "dark rack holds no budget");
        assert_eq!(tree.zone_caps()[0], zone0_before, "zone cap lags one tick");
        assert!(
            tree.rack_caps()[1] > rack1_before,
            "sibling rack absorbs the freed budget immediately: {} vs {rack1_before}",
            tree.rack_caps()[1]
        );
        let zone_caps_t1 = tree.zone_caps().to_vec();

        // Tick +2: the zone report reflects the crash; the region shifts
        // budget toward the other zone. (One region ⇒ the root split is
        // already final.)
        tree.tick(1600, &crashed);
        assert!(
            tree.zone_caps()[0] < zone_caps_t1[0],
            "zone cap shrinks once the lagged report lands: {} vs {}",
            tree.zone_caps()[0],
            zone_caps_t1[0]
        );
        assert!(tree.zone_caps()[1] > zone_caps_t1[1]);
    }

    #[test]
    fn tree_aggregation_saturates_instead_of_overflowing() {
        let mut tree = tree_2x2x2();
        let d = vec![demand(u64::MAX / 2, u64::MAX, u64::MAX, true); 8];
        let caps = tree.tick(u64::MAX, &d);
        assert_eq!(tree.cap_violations(u64::MAX, &caps), 0);
    }

    /// The incremental cascade, told which leaf demands moved, against a
    /// twin that takes every aggregate and split afresh each tick
    /// ([`BudgetTree::tick`]): random demand moves, rack power losses and
    /// restores, budget changes that move every zone's cap, and ticks
    /// with nothing moved (the lagged reports still climb), on an uneven
    /// tree. Every level's caps and reports, the violation count and the
    /// recapped leaves must match, tick by tick.
    #[test]
    fn the_incremental_cascade_matches_a_fresh_tick() {
        let topology = Topology {
            regions: vec![vec![vec![3, 2], vec![4]], vec![vec![1, 5, 2], vec![3, 3], vec![2]]],
        };
        let index = topology.index();
        let n = index.n_nodes();
        for seed in [1u64, 7, 0xC0FFEE] {
            let mut state = seed;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % bound
            };
            let idle = demand(100, 100, 300, false);
            let mut demands = vec![idle; n];
            let (mut fresh, mut incremental) = (BudgetTree::new(&index), BudgetTree::new(&index));
            let mut budget = 4_000;
            let (mut moved, mut recapped, mut dark) = (Vec::new(), Vec::new(), None);
            let mut last_caps = vec![0; n];
            for step in 0..400 {
                moved.clear();
                match next(10) {
                    // A few leaves change what they ask for.
                    0..=4 => {
                        for _ in 0..=next(3) {
                            let i = next(n as u64) as usize;
                            let floor = 80 + next(40);
                            let peak = floor + next(400);
                            demands[i] = demand(floor, floor + next(peak - floor + 1), peak, next(2) == 0);
                            moved.push(i);
                        }
                    }
                    // A rack loses power (its leaves demand nothing), or
                    // the last lost one comes back.
                    5 => {
                        let rack = match dark.take() {
                            Some(rack) => rack,
                            None => {
                                let rack = next(index.n_racks() as u64) as usize;
                                dark = Some(rack);
                                rack
                            }
                        };
                        for &i in &index.rack_nodes[rack] {
                            demands[i] = if dark.is_some() { NO_DEMAND } else { idle };
                            moved.push(i);
                        }
                    }
                    // The root budget moves, and with it every cap below.
                    6 => budget = 1_500 + next(6_000),
                    // Nothing moves.
                    _ => {}
                }
                moved.sort_unstable();
                moved.dedup();
                let want = fresh.tick(budget, &demands);
                recapped.clear();
                incremental.cascade(budget, &demands, Some(&moved), Some(&mut recapped));
                let case = format!("seed {seed}, step {step}");
                assert_eq!(incremental.leaf_caps(), &want[..], "{case}");
                assert_eq!(incremental.rack_caps(), fresh.rack_caps(), "{case}");
                assert_eq!(incremental.zone_caps(), fresh.zone_caps(), "{case}");
                assert_eq!(incremental.region_caps(), fresh.region_caps(), "{case}");
                assert_eq!(incremental.rack_desired(), fresh.rack_desired(), "{case}");
                assert_eq!(incremental.zone_desired(), fresh.zone_desired(), "{case}");
                assert_eq!(incremental.region_desired(), fresh.region_desired(), "{case}");
                assert_eq!(
                    incremental.violations(budget),
                    fresh.cap_violations(budget, &want),
                    "{case}"
                );
                recapped.sort_unstable();
                let changed: Vec<usize> = (0..n).filter(|&i| want[i] != last_caps[i]).collect();
                assert_eq!(recapped, changed, "{case}");
                last_caps = want;
            }
        }
    }

    #[test]
    fn flat_caps_report_exactly_the_moved_caps() {
        let mut flat = FlatCaps::new(3);
        let mut recapped = Vec::new();
        let d = vec![
            demand(100, 300, 300, true),
            demand(100, 100, 300, false),
            demand(100, 100, 300, false),
        ];
        flat.apportion(600, &d, Some(&mut recapped));
        assert_eq!(flat.caps(), &apportion(600, &d)[..]);
        assert_eq!(recapped, vec![0, 1, 2]);
        recapped.clear();
        let mut moved = d.clone();
        moved[1].busy = true;
        flat.apportion(600, &moved, Some(&mut recapped));
        assert_eq!(flat.caps(), &apportion(600, &moved)[..]);
        let changed: Vec<usize> = (0..3)
            .filter(|&i| apportion(600, &moved)[i] != apportion(600, &d)[i])
            .collect();
        assert_eq!(recapped, changed);
    }
}
