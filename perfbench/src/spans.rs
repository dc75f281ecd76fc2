//! In-memory spans around batches of layer calls, and the self-time
//! arithmetic that turns them into per-layer totals.
//!
//! A span records its layer, start, end, parent span and control
//! interval, plus the allocation counter at both ends and the number of
//! `pub` calls the batch made. Spans nest by a stack: a span begun while
//! another is open becomes its child. A span's self time is its duration
//! minus its children's durations; its self allocations are its
//! allocations minus its children's.

use crate::alloc;
use crate::clock::Origin;
use std::fmt::Write as _;

/// A layer of the fleet tick (plus the two structural spans, the whole
/// run and one control interval). The names match the cluster crate's
/// modules and the benchmark's per-layer metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    ProfileBuild,
    NodeNew,
    GenerateArrivals,
    SimEvent,
    Lifecycle,
    Power,
    ControlTick,
    Advance,
    Scheduler,
    TakeCheckpoint,
    TelemetryRow,
    TelemetryRender,
    /// One control interval; parent of that interval's layer spans.
    EngineTick,
    /// One whole run; the root span.
    Run,
    /// One `repro` experiment, by id.
    Experiment(&'static str),
}

/// The attributed layers, in report order.
pub const LAYERS: [Layer; 12] = [
    Layer::ProfileBuild,
    Layer::NodeNew,
    Layer::GenerateArrivals,
    Layer::SimEvent,
    Layer::Lifecycle,
    Layer::Power,
    Layer::ControlTick,
    Layer::Advance,
    Layer::Scheduler,
    Layer::TakeCheckpoint,
    Layer::TelemetryRow,
    Layer::TelemetryRender,
];

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ProfileBuild => "cluster.profile.build",
            Layer::NodeNew => "cluster.node.new",
            Layer::GenerateArrivals => "cluster.job.generate_arrivals",
            Layer::SimEvent => "sim.event",
            Layer::Lifecycle => "cluster.lifecycle",
            Layer::Power => "cluster.power",
            Layer::ControlTick => "cluster.node.control_tick",
            Layer::Advance => "cluster.node.advance",
            Layer::Scheduler => "cluster.scheduler",
            Layer::TakeCheckpoint => "cluster.node.take_checkpoint",
            Layer::TelemetryRow => "cluster.telemetry.row",
            Layer::TelemetryRender => "cluster.telemetry.render",
            Layer::EngineTick => "cluster.engine.tick",
            Layer::Run => "run",
            Layer::Experiment(_) => "repro",
        }
    }

    /// The span's label: the layer name, or `repro.<id>` for an
    /// experiment.
    pub fn label(self) -> String {
        match self {
            Layer::Experiment(id) => format!("repro.{id}"),
            other => other.name().to_string(),
        }
    }
}

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub interval: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs_start: u64,
    pub allocs_end: u64,
    pub calls: u64,
}

/// Handle of an open span.
#[must_use = "an opened span must be ended"]
pub struct Open(usize);

/// Collects spans in memory; nothing is written until the run ends.
pub struct Recorder {
    origin: Origin,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so that recording does
    /// not allocate inside the spans it measures.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Origin::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
        }
    }

    /// Reserves room for `more` spans (call outside any span).
    pub fn reserve(&mut self, more: usize) {
        self.spans.reserve(more);
    }

    /// Opens a span of `layer` in control interval `interval`.
    pub fn begin(&mut self, layer: Layer, interval: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            interval,
            start_ns: 0,
            end_ns: 0,
            allocs_start: 0,
            allocs_end: 0,
            calls: 0,
        });
        self.stack.push(u32::try_from(id).unwrap_or(NO_PARENT));
        let span = &mut self.spans[id];
        span.allocs_start = alloc::allocs();
        span.start_ns = self.origin.ns();
        Open(id)
    }

    /// Closes `open` after `calls` layer calls. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open, calls: u64) {
        let end_ns = self.origin.ns();
        let allocs_end = alloc::allocs();
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.allocs_end = allocs_end;
        span.calls = calls;
        self.stack.pop();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time (ns) and self allocations of every span, indexed like
/// `spans`: its own duration and allocations minus its children's. The
/// [`Recorder`] nests spans by a stack, so a span's children run one
/// after another inside it.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut costs: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns, s.allocs_end - s.allocs_start))
        .collect();
    for s in spans {
        if let Some(parent) = usize::try_from(s.parent).ok().and_then(|p| costs.get_mut(p)) {
            parent.0 = parent.0.saturating_sub(s.end_ns - s.start_ns);
            parent.1 = parent.1.saturating_sub(s.allocs_end - s.allocs_start);
        }
    }
    costs
}

/// Per-layer totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

/// Sums calls, self time and self allocations per layer of [`LAYERS`].
pub fn layer_totals(spans: &[Span]) -> [LayerTotals; LAYERS.len()] {
    let mut out = [LayerTotals::default(); LAYERS.len()];
    for (s, (self_ns, self_allocs)) in spans.iter().zip(self_costs(spans)) {
        if let Some(k) = LAYERS.iter().position(|&l| l == s.layer) {
            out[k].calls += s.calls;
            out[k].self_ns += self_ns;
            out[k].allocs += self_allocs;
        }
    }
    out
}

/// Durations (ns) of every span of `layer`, in recording order.
pub fn durations(spans: &[Span], layer: Layer) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Renders spans as tab-separated lines with a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tlayer\tinterval\tstart_ns\tend_ns\tallocs\tcalls\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.layer.label(),
            s.interval,
            s.start_ns,
            s.end_ns,
            s.allocs_end - s.allocs_start,
            s.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64, allocs: (u64, u64), calls: u64) -> Span {
        Span {
            layer,
            parent,
            interval: 0,
            start_ns,
            end_ns,
            allocs_start: allocs.0,
            allocs_end: allocs.1,
            calls,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // run [0, 100) ⊃ tick [10, 60) ⊃ power [20, 30), control [30, 55).
        let spans = [
            span(Layer::Run, NO_PARENT, 0, 100, (0, 50), 0),
            span(Layer::EngineTick, 0, 10, 60, (5, 40), 0),
            span(Layer::Power, 1, 20, 30, (6, 10), 3),
            span(Layer::ControlTick, 1, 30, 55, (10, 30), 7),
        ];
        let costs = self_costs(&spans);
        assert_eq!(costs[0], (50, 15)); // 100 - 50, 50 - 35
        assert_eq!(costs[1], (15, 11)); // 50 - (10 + 25), 35 - (4 + 20)
        assert_eq!(costs[2], (10, 4));
        assert_eq!(costs[3], (25, 20));
        let totals = layer_totals(&spans);
        let power = LAYERS.iter().position(|&l| l == Layer::Power).expect("power layer");
        assert_eq!(
            totals[power],
            LayerTotals {
                calls: 3,
                self_ns: 10,
                allocs: 4
            }
        );
        // Self times tile the root exactly.
        let sum: u64 = costs.iter().map(|c| c.0).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_nests_by_stack() {
        let mut rec = Recorder::with_capacity(4);
        let run = rec.begin(Layer::Run, 0);
        let tick = rec.begin(Layer::EngineTick, 3);
        let power = rec.begin(Layer::Power, 3);
        rec.end(power, 2);
        rec.end(tick, 0);
        let after = rec.begin(Layer::SimEvent, 3);
        rec.end(after, 1);
        rec.end(run, 0);
        let parents: Vec<u32> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 0]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(durations(rec.spans(), Layer::EngineTick).len(), 1);
        assert_eq!(to_tsv(rec.spans()).lines().count(), 5);
    }
}
