//! Rule `unit_safety`: power values carry their unit in the name and
//! never cross the milliwatt/watt boundary without a visible conversion.
//!
//! The fleet apportioner does exact integer-milliwatt accounting while
//! the controller layer reports watts as `f64`; one silent `_mw`/`_w`
//! mix-up is a 1000× budget error that every downstream table happily
//! formats.
//!
//! Flow-aware since the call-graph PR, the pass works on *statements*
//! and *call edges*, not lines:
//!
//! 1. an `_mw` identifier and a `_w` identifier in one statement (even
//!    split across lines in a method chain) with no conversion evidence
//!    (a `1000` factor or a `*_to_*`/`from_*`/`mw` helper) is a
//!    mixed-unit expression — and evidence anywhere in the statement
//!    exonerates, so a conversion on the continuation line is no longer
//!    a false positive;
//! 2. a suffixed argument feeding a parameter with the *other* suffix
//!    (resolved through the workspace symbol table) is a cross-function
//!    unit mix, reported with a caller→callee witness;
//! 3. a suffixed argument feeding an *unsuffixed* power-named parameter
//!    loses its unit at the boundary;
//! 4. a bare `as` cast directly on a power identifier with no
//!    conversion evidence launders the unit through the type system;
//! 5. a `let` binding or typed field/parameter whose name says
//!    power/watt must end in `_w` or `_mw`.

use super::{emit, emit_traced, Context, Rule};
use crate::analysis::{Callee, Hop};
use crate::findings::Finding;
use crate::lexer::{Tok, TokKind};
use crate::source::FileKind;

/// The rule.
pub struct UnitSafety;

/// The two power units names can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitTag {
    /// `_mw` — integer milliwatts.
    Milli,
    /// `_w` — watts.
    Watt,
}

impl UnitTag {
    fn describe(self) -> &'static str {
        match self {
            UnitTag::Milli => "_mw",
            UnitTag::Watt => "_w",
        }
    }
}

pub(crate) fn milli_suffixed(t: &Tok) -> bool {
    t.kind == TokKind::Ident && t.text.ends_with("_mw")
}

pub(crate) fn watt_suffixed(t: &Tok) -> bool {
    t.kind == TokKind::Ident && t.text.ends_with("_w") && !t.text.ends_with("_mw")
}

/// The unit a name's suffix declares, when any.
pub(crate) fn tag_of_name(name: &str) -> Option<UnitTag> {
    if name.ends_with("_mw") {
        Some(UnitTag::Milli)
    } else if name.ends_with("_w") {
        Some(UnitTag::Watt)
    } else {
        None
    }
}

fn conversion_token(t: &Tok) -> bool {
    (t.kind == TokKind::Int && matches!(t.text.replace('_', "").as_str(), "1000"))
        || (t.kind == TokKind::Float && matches!(t.text.replace('_', "").as_str(), "1000.0" | "1e3" | "1.0e3"))
        || (t.kind == TokKind::Ident
            && (matches!(t.text.as_str(), "mw" | "mw_floor")
                || t.text.contains("_to_")
                || t.text.starts_with("from_")
                || t.text.contains("milli")))
}

/// A `1000` factor or a named conversion helper among the tokens —
/// `mw`/`mw_floor` are the workspace's blessed watt→milliwatt converters
/// (`crates/cluster/src/power.rs`).
pub(crate) fn conversion_evidence_refs(toks: &[&Tok]) -> bool {
    toks.iter().any(|t| conversion_token(t))
}

fn conversion_evidence(toks: &[Tok], range: (usize, usize)) -> bool {
    toks[range.0..range.1].iter().any(conversion_token)
}

/// A callee whose *name* is conversion evidence (calling it is the
/// visible unit change).
fn converter_callee(name: &str) -> bool {
    matches!(name, "mw" | "mw_floor") || name.contains("_to_") || name.starts_with("from_") || name.contains("milli")
}

/// Power-adjacent names that are *not* watt-valued: utilization shares,
/// ratios, energies, and grids keep their own suffixes; `watts` *is* the
/// unit.
pub(crate) fn naming_exempt(name: &str) -> bool {
    matches!(name, "watts" | "milliwatts")
        || ["_util", "_frac", "_ratio", "_j", "_map", "_grid", "_model"]
            .iter()
            .any(|s| name.ends_with(s))
}

/// Splits a token stream into statement-sized chunks: `;`, `{`, and `}`
/// end a chunk. Method chains split across lines stay in one chunk;
/// chunks never span a function boundary.
fn statement_chunks(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut chunks = Vec::new();
    let mut start = 0;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            if i > start {
                chunks.push((start, i));
            }
            start = i + 1;
        }
    }
    if toks.len() > start {
        chunks.push((start, toks.len()));
    }
    chunks
}

/// The single unit an argument's token range carries, when unambiguous.
/// Conversion evidence in the range means the change is visible — no
/// tag. A bare local name is chased one hop through the function's `let`
/// bindings.
fn arg_tag(toks: &[Tok], range: (usize, usize), lets: &[crate::analysis::LetBind]) -> Option<UnitTag> {
    if conversion_evidence(toks, range) {
        return None;
    }
    let idents: Vec<&Tok> = toks[range.0..range.1]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .collect();
    let mut tags: Vec<UnitTag> = idents.iter().filter_map(|t| tag_of_name(&t.text)).collect();
    tags.dedup();
    match tags.len() {
        1 => Some(tags[0]),
        0 if idents.len() == 1 => {
            // One untagged local: inherit the tag of its initializer.
            let name = &idents[0].text;
            let bind = lets.iter().rev().find(|b| &b.name == name)?;
            if conversion_evidence(toks, bind.init) {
                return None;
            }
            let mut init_tags: Vec<UnitTag> = toks[bind.init.0..bind.init.1]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .filter_map(|t| tag_of_name(&t.text))
                .collect();
            init_tags.dedup();
            (init_tags.len() == 1).then(|| init_tags[0])
        }
        _ => None,
    }
}

impl Rule for UnitSafety {
    fn name(&self) -> &'static str {
        "unit_safety"
    }

    fn describe(&self) -> &'static str {
        "power names carry _w/_mw; statement-level and cross-call unit mixes need an explicit 1000 conversion"
    }

    fn check(&self, ctx: &Context, out: &mut Vec<Finding>) {
        for file in ctx.files {
            if file.kind != FileKind::Lib {
                continue;
            }
            let toks = &file.toks;
            // 1. Statement-level mixing (line splits included).
            for (cs, ce) in statement_chunks(toks) {
                let chunk = &toks[cs..ce];
                let Some(first) = chunk.first() else { continue };
                if file.is_exempt(first.line) {
                    continue;
                }
                let saw_milli = chunk.iter().any(milli_suffixed);
                let saw_plain = chunk.iter().any(watt_suffixed);
                // A `fn` signature carrying both units is a converter's
                // parameter list, not a mixed-unit expression.
                let is_signature = chunk.iter().any(|t| t.is_ident("fn"));
                if saw_milli && saw_plain && !is_signature && !conversion_evidence(toks, (cs, ce)) {
                    let line = chunk
                        .iter()
                        .find(|t| milli_suffixed(t) || watt_suffixed(t))
                        .map(|t| t.line)
                        .unwrap_or(first.line);
                    emit(
                        out,
                        file,
                        self.name(),
                        line,
                        "`_mw` and `_w` identifiers mix in one statement with no `1000` conversion in sight — a 1000× accounting bug"
                            .to_string(),
                    );
                }
            }
            // 4./5. Token-level checks (casts and unsuffixed bindings).
            for i in 0..toks.len() {
                let t = &toks[i];
                if file.is_exempt(t.line) {
                    continue;
                }
                if (milli_suffixed(t) || watt_suffixed(t)) && toks.get(i + 1).is_some_and(|n| n.is_ident("as")) {
                    let chunk = statement_chunks(toks)
                        .into_iter()
                        .find(|&(cs, ce)| (cs..ce).contains(&i))
                        .unwrap_or((i, i + 1));
                    if !conversion_evidence(toks, chunk) {
                        emit(
                            out,
                            file,
                            self.name(),
                            t.line,
                            format!(
                                "bare `{} as …` cast — convert units explicitly (×/÷ 1000) or keep the unit type",
                                t.text
                            ),
                        );
                    }
                    continue;
                }
                if t.kind == TokKind::Ident
                    && (t.text.contains("power") || t.text.contains("watt"))
                    && !t.text.ends_with("_w")
                    && !t.text.ends_with("_mw")
                    && !t.text.ends_with("_kw")
                    && !naming_exempt(&t.text)
                    && t.text
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit())
                {
                    // `name:` introduces a binding/field; `name::` is a
                    // module path and stays legal.
                    let typed = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                        && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
                    let declared = (i > 0 && (toks[i - 1].is_ident("let") || toks[i - 1].is_ident("mut"))) || typed;
                    if declared {
                        emit(
                            out,
                            file,
                            self.name(),
                            t.line,
                            format!("power-valued binding `{}` lacks a `_w`/`_mw` unit suffix", t.text),
                        );
                    }
                }
            }
        }
        // 2./3. Cross-call taint over the symbol table.
        self.check_calls(ctx, out);
    }
}

impl UnitSafety {
    fn check_calls(&self, ctx: &Context, out: &mut Vec<Finding>) {
        let analysis = &ctx.analysis;
        let sym = &analysis.symbols;
        for caller in 0..sym.len() {
            let (fi, _) = sym.owner[caller];
            let file = &ctx.files[fi];
            let item = analysis.item(caller);
            for call in &item.calls {
                if file.is_exempt(call.line) {
                    continue;
                }
                let callee_name = match &call.callee {
                    Callee::Bare(n) | Callee::Path(_, n) | Callee::Method(n) | Callee::SelfMethod(n) => n.clone(),
                };
                if converter_callee(&callee_name) {
                    continue;
                }
                let targets = sym.resolve(&analysis.parsed, caller, &call.callee);
                if targets.is_empty() {
                    continue;
                }
                for (pos, &arg) in call.args.iter().enumerate() {
                    let Some(tag) = arg_tag(&file.toks, arg, &item.lets) else {
                        continue;
                    };
                    // Parameter positions align with argument positions:
                    // `self` receivers are excluded on both sides. The
                    // parameter view must agree across every candidate,
                    // else the over-approximate resolution could blame
                    // the wrong overload.
                    let ppos = pos;
                    let mut param_names: Vec<&str> = Vec::new();
                    let mut complete = true;
                    for &t in &targets {
                        match analysis.item(t).params.get(ppos).and_then(|p| p.name.as_deref()) {
                            Some(n) => param_names.push(n),
                            None => complete = false,
                        }
                    }
                    if !complete || param_names.is_empty() {
                        continue;
                    }
                    let first = param_names[0];
                    if !param_names.iter().all(|n| *n == first) {
                        continue;
                    }
                    let callee_id = targets[0];
                    let callee_item = analysis.item(callee_id);
                    let (cfi, _) = sym.owner[callee_id];
                    let param_line = callee_item.params.get(ppos).map_or(callee_item.line, |p| p.line);
                    let trace = vec![
                        Hop {
                            symbol: item.qualified(),
                            path: file.rel_path.clone(),
                            line: call.line,
                        },
                        Hop {
                            symbol: callee_item.qualified(),
                            path: ctx.files[cfi].rel_path.clone(),
                            line: param_line,
                        },
                    ];
                    match tag_of_name(first) {
                        Some(ptag) if ptag != tag => {
                            emit_traced(
                                out,
                                file,
                                self.name(),
                                call.line,
                                format!(
                                    "`{}` argument feeds `{}` parameter `{}` of `{}` — a cross-call 1000× unit mix with no conversion",
                                    tag.describe(),
                                    ptag.describe(),
                                    first,
                                    callee_item.qualified()
                                ),
                                trace,
                            );
                        }
                        None if targets.len() == 1
                            && (first.contains("power") || first.contains("watt") || first.contains("draw"))
                            && !naming_exempt(first)
                            && first.len() > 1 =>
                        {
                            emit_traced(
                                out,
                                file,
                                self.name(),
                                call.line,
                                format!(
                                    "`{}` argument feeds unsuffixed power parameter `{}` of `{}` — the unit is lost at the call boundary",
                                    tag.describe(),
                                    first,
                                    callee_item.qualified()
                                ),
                                trace,
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
