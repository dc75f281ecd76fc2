//! Per-interval fleet telemetry.
//!
//! Every trace is a [`Trace`] of one [`TraceRecord`] row type: the fleet
//! trace ([`TraceRow`]), the serving trace ([`ServingTraceRow`]) and the
//! geo trace ([`GeoTraceRow`]). Each row type states its CSV columns once
//! and prints its cells once; [`Trace`] renders them through
//! [`greengpu_sim::Table`] (markdown and RFC-4180 CSV) or straight into a
//! CSV buffer or writer, and both paths print the same cells, so they
//! stay byte-identical (fixed decimal formatting, no floats straight
//! through `Display`).

use greengpu_sim::Table;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;

/// Rows rendered into the scratch buffer between flushes of
/// [`Trace::write_csv_to`]: large enough that the underlying writer sees
/// few, big writes; small enough that the scratch stays cache-resident.
const CSV_FLUSH_ROWS: usize = 512;

/// One row type of a [`Trace`]: its CSV columns and its cells.
///
/// Every cell must print without a comma, quote or line break (numbers
/// and fixed bare words), so the CSV writers can skip the RFC-4180 escape
/// path and still match the [`Table`] renderer byte for byte.
pub trait TraceRecord {
    /// The CSV header, in cell order.
    const COLUMNS: &'static [&'static str];

    /// Hands each cell to `cell`, formatted, in [`TraceRecord::COLUMNS`]
    /// order.
    fn cells(&self, cell: &mut impl FnMut(fmt::Arguments<'_>));
}

/// The per-interval trace of one fleet run: rows of one [`TraceRecord`]
/// type, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace<R> {
    /// Rows in emission order.
    pub rows: Vec<R>,
}

// Written by hand: a derived `Default` would require `R: Default`.
impl<R> Default for Trace<R> {
    fn default() -> Self {
        Trace { rows: Vec::new() }
    }
}

impl<R: TraceRecord> Trace<R> {
    /// Renders the trace as a table titled `title`.
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(title, R::COLUMNS);
        let mut cells = Vec::with_capacity(R::COLUMNS.len());
        for r in &self.rows {
            cells.clear();
            r.cells(&mut |c| cells.push(c.to_string()));
            t.row(&cells);
        }
        t
    }

    /// Appends the header line (`a,b,c\n`) to `buf`.
    fn push_header(buf: &mut String) {
        buf.push_str(&R::COLUMNS.join(","));
        buf.push('\n');
    }

    /// Appends one row's CSV line to `buf`.
    fn push_row(buf: &mut String, r: &R) {
        let mut sep = "";
        r.cells(&mut |c| {
            buf.push_str(sep);
            let _ = buf.write_fmt(c);
            sep = ",";
        });
        buf.push('\n');
    }

    /// Appends the trace's CSV (header plus one line per row) to `buf` —
    /// byte-identical to `self.to_table(title).to_csv()` but with no
    /// allocation per row: the cells are written straight into the
    /// caller's scratch buffer. Callers reuse one buffer across batched
    /// writes (`clear()` between traces keeps the capacity).
    pub fn write_csv_into(&self, buf: &mut String) {
        Self::push_header(buf);
        for r in &self.rows {
            Self::push_row(buf, r);
        }
    }

    /// Streams the trace's CSV into `w` in batches: rows render into one
    /// reused scratch `String`, which is handed to the writer every
    /// `CSV_FLUSH_ROWS` rows — so the writer sees a few large writes
    /// instead of one giant accumulated string or thousands of tiny ones,
    /// and peak memory stays bounded by the flush cadence, not the trace
    /// length. Bytes are identical to [`Trace::write_csv_into`].
    pub fn write_csv_to<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut scratch = String::new();
        Self::push_header(&mut scratch);
        for (i, r) in self.rows.iter().enumerate() {
            Self::push_row(&mut scratch, r);
            if (i + 1).is_multiple_of(CSV_FLUSH_ROWS) {
                w.write_all(scratch.as_bytes())?;
                scratch.clear();
            }
        }
        w.write_all(scratch.as_bytes())?;
        w.flush()
    }
}

/// String interner for telemetry: workload and tenant names appear once
/// here, and rows carry compact `u32` ids instead of cloning a `String`
/// per interval. Ids are assigned in first-intern order, so a table
/// built in a fixed order is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTable {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// The id for `name`, interning it on first sight.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// The name behind `id` (empty string for an unknown id — rows
    /// render, never panic).
    pub fn resolve(&self, id: u32) -> &str {
        self.names.get(id as usize).map_or("", String::as_str)
    }

    /// The id of an already-interned name, without interning.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One control interval's fleet state.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Interval index (1-based; interval `k` covers `((k-1)·T, k·T]`).
    pub interval: u64,
    /// Interval end, seconds.
    pub time_s: f64,
    /// Queue depth after dispatch.
    pub queue_depth: usize,
    /// Nodes serving a job after dispatch.
    pub busy_nodes: usize,
    /// Nodes whose controller has not fallen back.
    pub healthy_nodes: usize,
    /// Mean GPU board power over the interval, watts.
    pub gpu_power_w: f64,
    /// Mean whole-fleet (GPU + CPU) power over the interval, watts.
    pub total_power_w: f64,
    /// Sum of the per-node caps this interval, watts.
    pub fleet_cap_w: f64,
    /// The fleet budget, watts.
    pub budget_w: f64,
    /// Jobs completed so far.
    pub completed: u64,
    /// Jobs rejected by admission so far.
    pub rejected: u64,
    /// Deadline misses so far.
    pub deadline_misses: u64,
    /// Node-intervals in cap violation so far.
    pub cap_violations: u64,
    /// Worst per-node excess of enforced-pair power over cap this
    /// interval, watts (0 when every node complies).
    pub max_pair_over_cap_w: f64,
    /// Nodes in lifecycle state `Up` or `Probation`.
    pub up_nodes: usize,
    /// Circuit breakers currently `Open`.
    pub open_breakers: usize,
    /// Jobs waiting out a retry backoff.
    pub retry_depth: usize,
    /// Jobs dead-lettered so far.
    pub dead_lettered: u64,
}

/// The full per-interval trace of one fleet run.
pub type FleetTrace = Trace<TraceRow>;

impl TraceRecord for TraceRow {
    // lint:contract(fleet_trace_columns)
    const COLUMNS: &'static [&'static str] = &[
        "interval",
        "time_s",
        "queue_depth",
        "busy_nodes",
        "healthy_nodes",
        "gpu_power_w",
        "total_power_w",
        "fleet_cap_w",
        "budget_w",
        "completed",
        "rejected",
        "deadline_misses",
        "cap_violations",
        "max_pair_over_cap_w",
        "up_nodes",
        "open_breakers",
        "retry_depth",
        "dead_lettered",
    ];

    fn cells(&self, cell: &mut impl FnMut(fmt::Arguments<'_>)) {
        cell(format_args!("{}", self.interval));
        cell(format_args!("{:.2}", self.time_s));
        cell(format_args!("{}", self.queue_depth));
        cell(format_args!("{}", self.busy_nodes));
        cell(format_args!("{}", self.healthy_nodes));
        cell(format_args!("{:.3}", self.gpu_power_w));
        cell(format_args!("{:.3}", self.total_power_w));
        cell(format_args!("{:.3}", self.fleet_cap_w));
        cell(format_args!("{:.3}", self.budget_w));
        cell(format_args!("{}", self.completed));
        cell(format_args!("{}", self.rejected));
        cell(format_args!("{}", self.deadline_misses));
        cell(format_args!("{}", self.cap_violations));
        cell(format_args!("{:.3}", self.max_pair_over_cap_w));
        cell(format_args!("{}", self.up_nodes));
        cell(format_args!("{}", self.open_breakers));
        cell(format_args!("{}", self.retry_depth));
        cell(format_args!("{}", self.dead_lettered));
    }
}

impl FleetTrace {
    /// Time-weighted mean GPU power across the trace, watts.
    pub fn mean_gpu_power_w(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.gpu_power_w).sum::<f64>() / self.rows.len() as f64
    }

    /// Highest queue depth seen at interval boundaries.
    pub fn peak_queue_depth(&self) -> usize {
        self.rows.iter().map(|r| r.queue_depth).max().unwrap_or(0)
    }
}

/// One control interval's serving-layer state (only emitted on runs with
/// a [`crate::ServingConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingTraceRow {
    /// Interval index (matches the fleet trace's).
    pub interval: u64,
    /// Interval end, seconds.
    pub time_s: f64,
    /// Carbon intensity at the interval end (relative units).
    pub carbon_intensity: f64,
    /// Whether the interval end sits in a green window (intensity at or
    /// below the dispatch threshold).
    pub green: bool,
    /// Best-effort jobs parked in the deferral queue after this tick.
    pub deferred_pending: usize,
    /// Jobs deferred so far.
    pub jobs_deferred: u64,
    /// Deferred jobs released into the admission queue so far.
    pub jobs_released: u64,
}

/// The per-interval serving trace of one multi-tenant fleet run (empty
/// for single-stream runs).
pub type ServingTrace = Trace<ServingTraceRow>;

impl TraceRecord for ServingTraceRow {
    // lint:contract(serving_trace_columns)
    const COLUMNS: &'static [&'static str] = &[
        "interval",
        "time_s",
        "carbon_intensity",
        "green",
        "deferred_pending",
        "jobs_deferred",
        "jobs_released",
    ];

    fn cells(&self, cell: &mut impl FnMut(fmt::Arguments<'_>)) {
        cell(format_args!("{}", self.interval));
        cell(format_args!("{:.2}", self.time_s));
        cell(format_args!("{:.4}", self.carbon_intensity));
        cell(format_args!("{}", u8::from(self.green)));
        cell(format_args!("{}", self.deferred_pending));
        cell(format_args!("{}", self.jobs_deferred));
        cell(format_args!("{}", self.jobs_released));
    }
}

/// One interior node's state at one control interval of a hierarchical
/// run: the budget-tree cap it was handed, the demand report the split
/// saw, and the health of everything under it. Rows are emitted regions
/// first, then zones, then racks, each in index order, so the trace is a
/// breadth-first walk of the tree per tick.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoTraceRow {
    /// Interval index (matches the fleet trace's).
    pub interval: u64,
    /// Interval end, seconds.
    pub time_s: f64,
    /// Tree level: `"region"`, `"zone"`, or `"rack"`.
    pub level: &'static str,
    /// Domain index within its level.
    pub domain: usize,
    /// Budget-tree cap handed to this domain, watts.
    pub cap_w: f64,
    /// Desired power the split saw for this domain, watts (lagged one
    /// tick per level above the racks — see the `BudgetTree` docs).
    pub demand_w: f64,
    /// Nodes under this domain in lifecycle state `Up` or `Probation`.
    pub up_nodes: usize,
    /// Whether this domain's circuit breaker is `Open` (0 for regions,
    /// which carry no breaker).
    pub breaker_open: usize,
}

/// The per-interval interior-node trace of one hierarchical fleet run:
/// rows grouped by interval, regions → zones → racks within each.
pub type GeoTrace = Trace<GeoTraceRow>;

impl TraceRecord for GeoTraceRow {
    // lint:contract(geo_trace_columns)
    const COLUMNS: &'static [&'static str] = &[
        "interval",
        "time_s",
        "level",
        "domain",
        "cap_w",
        "demand_w",
        "up_nodes",
        "breaker_open",
    ];

    /// The `level` cell is one of three fixed bare words, so it prints
    /// raw.
    fn cells(&self, cell: &mut impl FnMut(fmt::Arguments<'_>)) {
        cell(format_args!("{}", self.interval));
        cell(format_args!("{:.2}", self.time_s));
        cell(format_args!("{}", self.level));
        cell(format_args!("{}", self.domain));
        cell(format_args!("{:.3}", self.cap_w));
        cell(format_args!("{:.3}", self.demand_w));
        cell(format_args!("{}", self.up_nodes));
        cell(format_args!("{}", self.breaker_open));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values at the edges of the fixed-decimal formats: signed zero,
    /// exact halves at two, three and four decimals, binary values just
    /// under a half, and negatives.
    const EDGES: [f64; 10] = [
        -0.0, 0.005, 0.0005, 0.00005, 2.675, 1.0005, 0.125, -1.005, 999.9995, 1234.5,
    ];

    fn edge(k: u64) -> f64 {
        EDGES[k as usize % EDGES.len()]
    }

    /// A row of each record type, built from an index.
    trait Synth: TraceRecord + Sized {
        fn synth(k: u64) -> Self;
    }

    impl Synth for TraceRow {
        fn synth(k: u64) -> Self {
            TraceRow {
                interval: k,
                time_s: edge(k),
                queue_depth: k as usize,
                busy_nodes: 1,
                healthy_nodes: 2,
                gpu_power_w: 100.0 + k as f64,
                total_power_w: edge(k + 1),
                fleet_cap_w: 400.0,
                budget_w: edge(k + 2),
                completed: k,
                rejected: 0,
                deadline_misses: 0,
                cap_violations: 0,
                max_pair_over_cap_w: edge(k + 3),
                up_nodes: 2,
                open_breakers: 0,
                retry_depth: 0,
                dead_lettered: 0,
            }
        }
    }

    impl Synth for ServingTraceRow {
        fn synth(k: u64) -> Self {
            ServingTraceRow {
                interval: k,
                time_s: edge(k),
                carbon_intensity: edge(k + 1),
                green: k.is_multiple_of(2),
                deferred_pending: k as usize,
                jobs_deferred: k * 2,
                jobs_released: k,
            }
        }
    }

    impl Synth for GeoTraceRow {
        fn synth(k: u64) -> Self {
            GeoTraceRow {
                interval: k,
                time_s: edge(k),
                level: ["region", "zone", "rack"][k as usize % 3],
                domain: k as usize,
                cap_w: edge(k + 1),
                demand_w: edge(k + 2),
                up_nodes: 8,
                breaker_open: (k % 2) as usize,
            }
        }
    }

    /// A sink that records every write it is handed.
    #[derive(Default)]
    struct Sink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes += 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Both CSV writers print what the `Table` renderer prints — golden
    /// traces pin the Table output, so any skew here is silent
    /// corruption — for a header-only trace, a short one, one that ends
    /// on a flush boundary and one that crosses two. The scratch buffer
    /// is reused across traces the way batched writers hold it.
    fn writers_match_the_table<R: Synth>() {
        let mut buf = String::new();
        for (len, writes) in [(0, 1), (3, 1), (2 * CSV_FLUSH_ROWS, 2), (2 * CSV_FLUSH_ROWS + 7, 3)] {
            let trace = Trace {
                rows: (1..=len as u64).map(R::synth).collect(),
            };
            let table = trace.to_table("t").to_csv();
            assert!(table.starts_with(&R::COLUMNS.join(",")));
            assert_eq!(table.lines().count(), len + 1);
            buf.clear();
            trace.write_csv_into(&mut buf);
            assert_eq!(buf, table, "{len} rows");
            let mut sink = Sink::default();
            trace.write_csv_to(&mut sink).unwrap();
            assert_eq!(sink.bytes, table.as_bytes(), "{len} rows");
            assert_eq!(sink.writes, writes, "{len} rows: full batches plus the tail");
        }
    }

    #[test]
    fn every_trace_writer_matches_the_table_renderer() {
        writers_match_the_table::<TraceRow>();
        writers_match_the_table::<ServingTraceRow>();
        writers_match_the_table::<GeoTraceRow>();
    }

    #[test]
    fn rows_print_their_pinned_formats() {
        let one = |csv: String| csv.lines().nth(1).map(str::to_string);
        let fleet = Trace {
            rows: vec![TraceRow::synth(10)],
        };
        assert_eq!(
            one(fleet.to_table("f").to_csv()).as_deref(),
            Some("10,-0.00,10,1,2,110.000,0.005,400.000,0.001,10,0,0,0,0.000,2,0,0,0")
        );
        let serving = Trace {
            rows: vec![ServingTraceRow {
                interval: 1,
                time_s: 1.0,
                carbon_intensity: 1.25,
                green: false,
                deferred_pending: 2,
                jobs_deferred: 3,
                jobs_released: 1,
            }],
        };
        assert_eq!(
            one(serving.to_table("s").to_csv()).as_deref(),
            Some("1,1.00,1.2500,0,2,3,1")
        );
        let geo = Trace {
            rows: vec![GeoTraceRow {
                interval: 1,
                time_s: 2.0,
                level: "region",
                domain: 0,
                cap_w: 1234.5,
                demand_w: 999.125,
                up_nodes: 8,
                breaker_open: 0,
            }],
        };
        assert_eq!(
            one(geo.to_table("g").to_csv()).as_deref(),
            Some("1,2.00,region,0,1234.500,999.125,8,0")
        );
    }

    #[test]
    fn summaries() {
        let trace = FleetTrace {
            rows: vec![TraceRow::synth(1), TraceRow::synth(3)],
        };
        assert_eq!(trace.peak_queue_depth(), 3);
        assert!((trace.mean_gpu_power_w() - 102.0).abs() < 1e-12);
        assert_eq!(FleetTrace::default().mean_gpu_power_w(), 0.0);
    }

    #[test]
    fn name_table_interns_once_and_resolves() {
        let mut t = NameTable::new();
        assert!(t.is_empty());
        let a = t.intern("hotspot");
        let b = t.intern("kmeans");
        assert_eq!(t.intern("hotspot"), a, "re-intern returns the same id");
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "hotspot");
        assert_eq!(t.resolve(b), "kmeans");
        assert_eq!(t.resolve(99), "", "unknown ids resolve to empty, never panic");
    }
}
