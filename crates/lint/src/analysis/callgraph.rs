//! The workspace call graph, the control-path root registry, and
//! reachability queries with witness traces.
//!
//! Roots are the per-tick entry points of the simulator: once the fleet
//! is constructed, everything that executes per simulated second is
//! reachable from one of these. A panic reachable from a root can fire
//! mid-experiment; a panic only reachable from constructors fires at
//! setup, where loud failure is the contract (DESIGN.md §11).

use super::parse::{FnItem, ParsedFile};
use super::symbols::{FnId, Symbols};
use crate::source::SourceFile;

/// How a [`RootSpec`] selects functions.
#[derive(Debug, Clone, Copy)]
pub enum RootMatch {
    /// Every method of an `impl <Trait> for _` block, plus the trait's
    /// own default bodies.
    TraitImpl(&'static str),
    /// A function by `(self type, name)`; `None` matches free
    /// functions.
    Named(Option<&'static str>, &'static str),
}

impl RootMatch {
    fn hits(&self, item: &FnItem) -> bool {
        match *self {
            RootMatch::TraitImpl(tr) => item.trait_impl.as_deref() == Some(tr),
            RootMatch::Named(ty, name) => item.name == name && item.self_ty.as_deref() == ty,
        }
    }
}

/// One registered control-path root.
#[derive(Debug, Clone, Copy)]
pub struct RootSpec {
    /// The matcher.
    pub matcher: RootMatch,
    /// Why this is a per-tick entry point (shown in witness traces).
    pub why: &'static str,
}

/// The control-path root registry.
///
/// To register a new engine or policy entry point, add a line here and
/// say why it runs per tick (see CONTRIBUTING.md) — reachability-based
/// rules treat everything transitively callable from these as hot-path
/// code.
pub const ROOTS: &[RootSpec] = &[
    RootSpec {
        matcher: RootMatch::TraitImpl("FreqPolicy"),
        why: "per-tick frequency decision seam",
    },
    RootSpec {
        matcher: RootMatch::Named(Some("Node"), "control_tick"),
        why: "per-tick node control loop",
    },
    RootSpec {
        matcher: RootMatch::Named(Some("Node"), "control_tick_parkable"),
        why: "per-tick node control loop (parkable)",
    },
    RootSpec {
        matcher: RootMatch::Named(Some("Node"), "dispatch"),
        why: "per-tick job dispatch",
    },
    RootSpec {
        matcher: RootMatch::Named(Some("Node"), "advance"),
        why: "per-tick node state advance",
    },
    RootSpec {
        matcher: RootMatch::Named(Some("Node"), "advance_windows"),
        why: "per-event replay of deferred service windows",
    },
    RootSpec {
        matcher: RootMatch::Named(Some("Node"), "lifecycle_tick"),
        why: "per-tick failure lifecycle",
    },
    RootSpec {
        matcher: RootMatch::Named(None, "drive"),
        why: "fleet engine step loop",
    },
];

/// True when `name` marks a validated-construction boundary: a
/// constructor, builder, converter, or validator that fails fast at
/// setup. Root-reachability does not descend into these — their panics
/// are loud-by-design setup failures, not tick-time hazards (see
/// [`CallGraph::from_roots`]).
pub fn construction_boundary(name: &str) -> bool {
    name == "new"
        || name.starts_with("new_")
        || name == "build"
        || name.starts_with("build_")
        || name.starts_with("from_")
        || name == "validate"
        || name.ends_with("_validate")
}

/// One directed edge at a call-site `line` (in the source endpoint's
/// file).
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// The far endpoint.
    pub to: FnId,
    /// 1-based call-site line.
    pub line: u32,
}

/// One reverse entry: who calls a function, and via which call site.
#[derive(Debug, Clone, Copy)]
pub struct REdge {
    /// The calling function.
    pub caller: FnId,
    /// Index into the caller item's `calls` vector.
    pub call: usize,
}

/// The resolved call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Forward adjacency per `FnId` (caller → callees), deduped and
    /// ordered by callee key.
    pub edges: Vec<Vec<Edge>>,
    /// Reverse adjacency per `FnId` (callee → call sites in callers).
    pub redges: Vec<Vec<REdge>>,
    /// Root functions with the registry reason that matched.
    pub roots: Vec<(FnId, &'static str)>,
}

/// How a function was reached in a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Not reached.
    No,
    /// A seed of the traversal, with the seed reason.
    Seed(&'static str),
    /// Reached from `prev` via the call at `line` (in `prev`'s file for
    /// forward traversals, in this function's file for reverse ones).
    From(FnId, u32),
}

/// The result of a reachability query: one [`Step`] per function.
#[derive(Debug)]
pub struct Reach {
    /// `FnId` → how it was reached.
    pub step: Vec<Step>,
}

impl Reach {
    /// True when `id` was reached.
    pub fn contains(&self, id: FnId) -> bool {
        self.step.get(id).copied().unwrap_or(Step::No) != Step::No
    }
}

/// One hop of a call-path witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Qualified function name (`Ty::name` or `name`).
    pub symbol: String,
    /// Workspace-relative file path of the hop location.
    pub path: String,
    /// 1-based line of the hop location.
    pub line: u32,
}

impl CallGraph {
    /// Resolves every call site into edges and matches roots.
    pub fn build(parsed: &[ParsedFile], sym: &Symbols) -> CallGraph {
        let n = sym.len();
        let mut g = CallGraph {
            edges: vec![Vec::new(); n],
            redges: vec![Vec::new(); n],
            roots: Vec::new(),
        };
        for caller in 0..n {
            let item = sym.item(parsed, caller);
            for (ci, call) in item.calls.iter().enumerate() {
                for callee in sym.resolve(parsed, caller, &call.callee) {
                    g.edges[caller].push(Edge {
                        to: callee,
                        line: call.line,
                    });
                    g.redges[callee].push(REdge { caller, call: ci });
                }
            }
            // Dedup by callee; order by callee key so traversal order is
            // independent of declaration order within a file.
            g.edges[caller].sort_by(|a, b| (&sym.keys[a.to], a.line).cmp(&(&sym.keys[b.to], b.line)));
            g.edges[caller].dedup_by_key(|e| e.to);
        }
        for id in 0..n {
            let item = sym.item(parsed, id);
            if let Some(spec) = ROOTS.iter().find(|spec| spec.matcher.hits(item)) {
                g.roots.push((id, spec.why));
            }
        }
        g.roots.sort_by(|a, b| sym.keys[a.0].cmp(&sym.keys[b.0]));
        g
    }

    /// Forward reachability from the registered roots, stopping at
    /// validated-construction boundaries.
    ///
    /// Constructors and validators (`new*`, `build*`, `*validate`,
    /// `from_*`) fail fast on inputs that never passed setup; when a
    /// hot path re-enters one — the node restart path rebuilds its
    /// controller from the *already-validated* spec — the panic inside
    /// cannot fire for any state that survived startup. The traversal
    /// therefore does not descend into construction-named functions:
    /// their panics are setup-time by contract, not tick-time.
    pub fn from_roots(&self, parsed: &[ParsedFile], sym: &Symbols) -> Reach {
        let barrier: Vec<bool> = (0..sym.len())
            .map(|id| construction_boundary(&sym.item(parsed, id).name))
            .collect();
        self.bfs_gated(&self.edges, self.roots.clone(), &barrier)
    }

    /// Which functions can *reach* any seed by calling toward it.
    /// `Step::From` records the seed-ward next hop and the call line in
    /// *this* function's file.
    pub fn reaching(&self, seeds: &[FnId], why: &'static str, parsed: &[ParsedFile], sym: &Symbols) -> Reach {
        // Reverse traversal wants callee → callers, with the call line
        // inside the caller.
        let mut radj: Vec<Vec<Edge>> = vec![Vec::new(); self.edges.len()];
        for (callee, res) in self.redges.iter().enumerate() {
            for r in res {
                let line = sym.item(parsed, r.caller).calls[r.call].line;
                radj[callee].push(Edge { to: r.caller, line });
            }
        }
        for outs in &mut radj {
            outs.sort_by(|a, b| (&sym.keys[a.to], a.line).cmp(&(&sym.keys[b.to], b.line)));
            outs.dedup_by_key(|e| e.to);
        }
        self.bfs(&radj, seeds.iter().map(|&id| (id, why)).collect())
    }

    /// Deterministic BFS (FIFO over key-sorted adjacency).
    fn bfs(&self, adj: &[Vec<Edge>], seeds: Vec<(FnId, &'static str)>) -> Reach {
        self.bfs_gated(adj, seeds, &[])
    }

    /// BFS that refuses to step *into* gated nodes (they are neither
    /// marked reached nor expanded; seeds override their own gate).
    fn bfs_gated(&self, adj: &[Vec<Edge>], seeds: Vec<(FnId, &'static str)>, gated: &[bool]) -> Reach {
        let mut step = vec![Step::No; adj.len()];
        let mut queue = std::collections::VecDeque::new();
        for (id, why) in seeds {
            if step[id] == Step::No {
                step[id] = Step::Seed(why);
                queue.push_back(id);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for e in &adj[cur] {
                if step[e.to] == Step::No && !gated.get(e.to).copied().unwrap_or(false) {
                    step[e.to] = Step::From(cur, e.line);
                    queue.push_back(e.to);
                }
            }
        }
        Reach { step }
    }

    /// The witness for a root-reachability hit: hops ordered root →
    /// `target`. Each non-root hop is located at the call site (in the
    /// caller's file) that enters it. Empty when unreached.
    pub fn witness_from_root(
        &self,
        reach: &Reach,
        target: FnId,
        files: &[SourceFile],
        parsed: &[ParsedFile],
        sym: &Symbols,
    ) -> Vec<Hop> {
        let mut rev = Vec::new();
        let mut cur = target;
        for _ in 0..=reach.step.len() {
            let item = sym.item(parsed, cur);
            match reach.step[cur] {
                Step::No => return Vec::new(),
                Step::Seed(_) => {
                    let (fi, _) = sym.owner[cur];
                    rev.push(Hop {
                        symbol: item.qualified(),
                        path: files[fi].rel_path.clone(),
                        line: item.line,
                    });
                    rev.reverse();
                    return rev;
                }
                Step::From(parent, line) => {
                    let (pfi, _) = sym.owner[parent];
                    rev.push(Hop {
                        symbol: item.qualified(),
                        path: files[pfi].rel_path.clone(),
                        line,
                    });
                    cur = parent;
                }
            }
        }
        Vec::new()
    }

    /// The witness for a sink-reaching hit: hops ordered `source` →
    /// sink. Each non-sink hop is located at its own call site toward
    /// the sink. Empty when unreached.
    pub fn witness_to_seed(
        &self,
        reach: &Reach,
        source: FnId,
        files: &[SourceFile],
        parsed: &[ParsedFile],
        sym: &Symbols,
    ) -> Vec<Hop> {
        let mut out = Vec::new();
        let mut cur = source;
        for _ in 0..=reach.step.len() {
            let item = sym.item(parsed, cur);
            let (fi, _) = sym.owner[cur];
            match reach.step[cur] {
                Step::No => return Vec::new(),
                Step::Seed(_) => {
                    out.push(Hop {
                        symbol: item.qualified(),
                        path: files[fi].rel_path.clone(),
                        line: item.line,
                    });
                    return out;
                }
                Step::From(next, line) => {
                    out.push(Hop {
                        symbol: item.qualified(),
                        path: files[fi].rel_path.clone(),
                        line,
                    });
                    cur = next;
                }
            }
        }
        Vec::new()
    }

    /// Functions whose names mark them as deterministic-output sinks
    /// (CSV writers, digests, fingerprints, trace rows).
    pub fn sink_fns(parsed: &[ParsedFile], sym: &Symbols) -> Vec<FnId> {
        (0..sym.len())
            .filter(|&id| {
                let name = &sym.item(parsed, id).name;
                ["csv", "digest", "fingerprint", "trace"]
                    .iter()
                    .any(|s| name.contains(s))
            })
            .collect()
    }

    /// The function whose body contains token index `tok_idx` of
    /// `file_idx`, when any (innermost wins).
    pub fn enclosing_fn(sym: &Symbols, parsed: &[ParsedFile], file_idx: usize, tok_idx: usize) -> Option<FnId> {
        let mut best: Option<(usize, FnId)> = None;
        for (id, &(fi, ii)) in sym.owner.iter().enumerate() {
            if fi != file_idx {
                continue;
            }
            if let Some((bs, be)) = parsed[fi].fns[ii].body {
                if (bs..be).contains(&tok_idx) && best.is_none_or(|(pbs, _)| bs > pbs) {
                    best = Some((bs, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::parse::parse_file;
    use crate::source::SourceFile;

    fn build(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<ParsedFile>, Symbols, CallGraph) {
        let files: Vec<SourceFile> = sources.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse_file).collect();
        let sym = Symbols::build(&files, &parsed);
        let graph = CallGraph::build(&parsed, &sym);
        (files, parsed, sym, graph)
    }

    fn id_of(sym: &Symbols, name: &str) -> FnId {
        sym.keys
            .iter()
            .position(|k| k.contains(&format!("::{name}/")))
            .unwrap_or_else(|| panic!("no fn {name} in {:?}", sym.keys))
    }

    #[test]
    fn roots_reach_transitively_but_not_their_callers() {
        let (_f, _p, sym, g) = build(&[(
            "crates/cluster/src/node.rs",
            "pub struct Node;\nimpl Node {\n  pub fn new() -> Node { validate(); Node }\n  pub fn control_tick(&mut self) { helper(); }\n}\npub fn helper() { deep(); }\npub fn deep() {}\npub fn validate() {}\npub fn run_fleet() { let n = Node::new(); }\n",
        )]);
        assert_eq!(g.roots.len(), 1);
        let reach = g.from_roots(&_p, &sym);
        assert!(reach.contains(id_of(&sym, "Node::control_tick")));
        assert!(reach.contains(id_of(&sym, "helper")));
        assert!(reach.contains(id_of(&sym, "deep")));
        assert!(
            !reach.contains(id_of(&sym, "Node::new")),
            "constructors are not tick-reachable"
        );
        assert!(!reach.contains(id_of(&sym, "validate")));
        assert!(
            !reach.contains(id_of(&sym, "run_fleet")),
            "setup drivers call roots, not vice versa"
        );
    }

    /// Every registered root must match a real workspace function, so a
    /// rename cannot silently orphan a root and drop its hot path out of
    /// the reachability passes.
    #[test]
    fn every_root_matches_a_workspace_function() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint sits two levels below the workspace root");
        let files = crate::workspace::load_workspace(root).expect("workspace loads");
        let analysis = crate::analysis::Analysis::build(&files);
        for spec in ROOTS {
            assert!(
                (0..analysis.symbols.len()).any(|id| spec.matcher.hits(analysis.item(id))),
                "root {:?} ({}) matches no workspace function",
                spec.matcher,
                spec.why
            );
        }
    }

    #[test]
    fn trait_impl_methods_are_roots() {
        let (_f, _p, _s, g) = build(&[(
            "crates/policy/src/wma.rs",
            "pub struct Wma;\nimpl FreqPolicy for Wma {\n  fn decide(&mut self) -> usize { 0 }\n}\nimpl Wma { pub fn new() -> Wma { Wma } }\n",
        )]);
        assert_eq!(g.roots.len(), 1, "only the trait-impl method is a root");
    }

    #[test]
    fn witness_runs_root_to_target_with_call_sites() {
        let (files, parsed, sym, g) = build(&[(
            "crates/cluster/src/engine.rs",
            "pub fn drive() { step(); }\npub fn step() { inner(); }\npub fn inner() {}\n",
        )]);
        let reach = g.from_roots(&parsed, &sym);
        let inner = id_of(&sym, "inner");
        let trace = g.witness_from_root(&reach, inner, &files, &parsed, &sym);
        let symbols: Vec<&str> = trace.iter().map(|h| h.symbol.as_str()).collect();
        assert_eq!(symbols, ["drive", "step", "inner"]);
        assert_eq!(trace[0].line, 1);
        assert_eq!(trace[1].line, 1, "step is entered at drive's call site");
        assert_eq!(trace[2].line, 2, "inner is entered at step's call site");
    }

    #[test]
    fn a_let_bound_closure_shadows_a_workspace_fn() {
        let (_f, parsed, sym, g) = build(&[
            (
                "crates/cluster/src/engine.rs",
                "pub fn drive() { let sweep = |x: u64| x + 1; sweep(2); }\n",
            ),
            (
                "crates/repro/src/experiments/policies.rs",
                "pub fn sweep(x: u64) -> u64 { x }\n",
            ),
        ]);
        let reach = g.from_roots(&parsed, &sym);
        assert!(reach.contains(id_of(&sym, "drive")));
        assert!(
            !reach.contains(id_of(&sym, "sweep")),
            "the call is to drive's local closure"
        );
    }

    #[test]
    fn reaching_finds_sink_feeders() {
        let (files, parsed, sym, g) = build(&[(
            "crates/tools/src/lib.rs",
            "pub fn sample() -> u64 { 0 }\npub fn report() { let x = sample(); write_csv(x); }\npub fn write_csv(_x: u64) {}\npub fn idle() {}\n",
        )]);
        let sinks = CallGraph::sink_fns(&parsed, &sym);
        assert_eq!(sinks.len(), 1);
        let reach = g.reaching(&sinks, "writes csv", &parsed, &sym);
        assert!(reach.contains(id_of(&sym, "report")));
        assert!(!reach.contains(id_of(&sym, "idle")));
        let trace = g.witness_to_seed(&reach, id_of(&sym, "report"), &files, &parsed, &sym);
        let symbols: Vec<&str> = trace.iter().map(|h| h.symbol.as_str()).collect();
        assert_eq!(symbols, ["report", "write_csv"]);
    }
}
