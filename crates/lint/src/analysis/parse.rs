//! An item-level parser on top of the lexer — just enough structure for
//! interprocedural passes.
//!
//! The flow-aware rules need three things the flat token stream cannot
//! give them: *which function* a token sits in, *what that function
//! calls* (with per-argument token ranges), and *what its parameters are
//! named* (unit suffixes ride on names in this workspace). This module
//! recovers exactly that — `fn` items with parameter names, `impl`
//! context (inherent type and trait), call expressions, and simple `let`
//! bindings — without attempting a full Rust grammar. Everything it
//! cannot parse it skips; an unparsed construct merely contributes no
//! call-graph edges, it never aborts the scan.

use crate::lexer::{Tok, TokKind};
use crate::source::{match_delim, SourceFile};

/// One declared parameter (`self` receivers are recorded via
/// [`FnItem::has_self`], not here, so positions line up with call
/// arguments).
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name, when the pattern is a simple identifier.
    pub name: Option<String>,
    /// 1-based line of the parameter.
    pub line: u32,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `helper(...)` — a free function, resolved same-file first.
    Bare(String),
    /// `Type::method(...)` — the qualifier is the *immediate* path
    /// segment (`a::b::Ty::m` records `("Ty", "m")`).
    Path(String, String),
    /// `recv.method(...)` — receiver type unknown; resolved by name
    /// against every workspace method (a sound over-approximation that
    /// also models `dyn FreqPolicy` dispatch).
    Method(String),
    /// `self.method(...)` — the receiver is the caller's own `self`, so
    /// its type is the caller's impl type when it has one.
    SelfMethod(String),
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee reference.
    pub callee: Callee,
    /// Half-open token ranges, one per top-level argument.
    pub args: Vec<(usize, usize)>,
    /// 1-based line of the callee identifier.
    pub line: u32,
}

/// A simple `let [mut] name [: ty] = init;` binding.
#[derive(Debug, Clone)]
pub struct LetBind {
    /// The bound name.
    pub name: String,
    /// Half-open token range of the initializer expression.
    pub init: (usize, usize),
    /// 1-based line of the `let`.
    pub line: u32,
}

/// One parsed `fn` item (free, inherent, trait-impl, or trait-default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for Ty` methods and trait defaults.
    pub trait_impl: Option<String>,
    /// Declared parameters, `self` excluded.
    pub params: Vec<Param>,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Half-open token range of the body (None for bodiless trait
    /// method declarations).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call expressions found in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Simple `let` bindings found in the body, in source order.
    pub lets: Vec<LetBind>,
}

impl FnItem {
    /// `Ty::name` when inside an impl/trait, else `name`.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the parser recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
    /// Names of `struct`/`enum`/`union`/`trait` items declared here —
    /// the set of *workspace* types, used to tell `Node::new` (resolve)
    /// from `Vec::new` (external, no edge).
    pub types: Vec<String>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "return", "loop", "for", "in", "as", "move", "break", "continue", "where",
    "unsafe", "ref", "let", "mut", "box", "await", "yield", "dyn", "impl", "fn", "use", "pub", "crate", "super",
    "true", "false", "struct", "enum", "const", "static", "type", "trait", "mod", "extern",
];

/// Parses one source file into items.
pub fn parse_file(file: &SourceFile) -> ParsedFile {
    let mut out = ParsedFile::default();
    let toks = &file.toks;
    parse_items(toks, 0, toks.len(), None, None, &mut out);
    out
}

/// Walks `toks[start..end]` for items, carrying the enclosing impl/trait
/// context into nested blocks.
fn parse_items(
    toks: &[Tok],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
    trait_impl: Option<&str>,
    out: &mut ParsedFile,
) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                let Some((trait_name, ty_name, open)) = parse_impl_header(toks, i, end) else {
                    i += 1;
                    continue;
                };
                let close = match_delim(toks, open);
                parse_items(toks, open + 1, close, ty_name.as_deref(), trait_name.as_deref(), out);
                i = close + 1;
            }
            "trait" => {
                let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                let name = name.text.clone();
                out.types.push(name.clone());
                let Some(open) = (i..end).find(|&k| toks[k].is_punct('{') || toks[k].is_punct(';')) else {
                    i += 2;
                    continue;
                };
                if toks[open].is_punct(';') {
                    i = open + 1;
                    continue;
                }
                let close = match_delim(toks, open);
                // Default method bodies count as methods of the trait —
                // `dyn`-dispatched calls resolve to them by name.
                parse_items(toks, open + 1, close, Some(&name), Some(&name), out);
                i = close + 1;
            }
            "struct" | "enum" | "union" => {
                if let Some(n) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    out.types.push(n.text.clone());
                }
                i += 2;
            }
            "fn" => {
                let next = match parse_fn(toks, i, end, self_ty, trait_impl, out) {
                    Some(next) => next,
                    None => i + 1,
                };
                i = next;
            }
            _ => i += 1,
        }
    }
}

/// Parses `impl [<..>] Path [<..>] [for Path [<..>]] {`, returning
/// `(trait, type, body_open_idx)`.
fn parse_impl_header(toks: &[Tok], i: usize, end: usize) -> Option<(Option<String>, Option<String>, usize)> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j, end);
    }
    let (first, mut j) = read_path(toks, j, end)?;
    let mut trait_name = None;
    let mut ty_name = Some(first);
    if toks.get(j).is_some_and(|t| t.is_ident("for")) {
        trait_name = ty_name.take();
        let (ty, j2) = read_path(toks, j + 1, end)?;
        ty_name = Some(ty);
        j = j2;
    }
    let open = (j..end).find(|&k| toks[k].is_punct('{'))?;
    Some((trait_name, ty_name, open))
}

/// Reads a (possibly `::`-qualified, possibly generic) type path,
/// returning its *last* segment and the index just past it.
fn read_path(toks: &[Tok], mut j: usize, end: usize) -> Option<(String, usize)> {
    // Skip reference/pointer sigils and modifiers.
    while j < end
        && (toks[j].is_punct('&')
            || toks[j].is_punct('*')
            || toks[j].kind == TokKind::Lifetime
            || toks[j].is_ident("mut")
            || toks[j].is_ident("dyn")
            || toks[j].is_ident("const"))
    {
        j += 1;
    }
    if j >= end || toks[j].kind != TokKind::Ident {
        return None;
    }
    let mut name = toks[j].text.clone();
    j += 1;
    loop {
        if j + 1 < end && toks[j].is_punct(':') && toks[j + 1].is_punct(':') {
            if let Some(seg) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                name = seg.text.clone();
                j += 3;
                continue;
            }
        }
        break;
    }
    if j < end && toks[j].is_punct('<') {
        j = skip_angles(toks, j, end);
    }
    Some((name, j))
}

/// Skips a balanced `<...>` starting at `j` (which holds `<`), tolerant
/// of `->` inside bounds; bails at `{`/`;` so a stray comparison cannot
/// swallow the file.
fn skip_angles(toks: &[Tok], j: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut k = j;
    while k < end {
        let t = &toks[k];
        if t.is_punct('-') && toks.get(k + 1).is_some_and(|n| n.is_punct('>')) {
            k += 2;
            continue;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        } else if t.is_punct('{') || t.is_punct(';') {
            return k;
        }
        k += 1;
    }
    end
}

/// Parses the `fn` item starting at `i`; returns the index just past it.
fn parse_fn(
    toks: &[Tok],
    i: usize,
    end: usize,
    self_ty: Option<&str>,
    trait_impl: Option<&str>,
    out: &mut ParsedFile,
) -> Option<usize> {
    let name_tok = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    let name = name_tok.text.clone();
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j, end);
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = match_delim(toks, j);
    let (params, has_self) = parse_params(toks, j + 1, params_close);
    // Find the body `{` or the terminating `;`, skipping bracketed
    // return types and where clauses.
    let mut k = params_close + 1;
    let mut body = None;
    while k < end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            k = match_delim(toks, k) + 1;
            continue;
        }
        if t.is_punct('{') {
            let close = match_delim(toks, k);
            body = Some((k + 1, close));
            k = close + 1;
            break;
        }
        if t.is_punct(';') {
            k += 1;
            break;
        }
        k += 1;
    }
    let mut item = FnItem {
        name,
        self_ty: self_ty.map(str::to_string),
        trait_impl: trait_impl.map(str::to_string),
        params,
        has_self,
        body,
        line: toks[i].line,
        calls: Vec::new(),
        lets: Vec::new(),
    };
    if let Some((bs, be)) = body {
        scan_body(toks, bs, be, &mut item);
    }
    out.fns.push(item);
    Some(k)
}

/// Splits a parameter list into named positions, detecting a `self`
/// receiver.
fn parse_params(toks: &[Tok], start: usize, end: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    for (ps, pe) in split_commas(toks, start, end) {
        // A receiver: `self`, `&self`, `&mut self`, `mut self`.
        let mut q = ps;
        while q < pe && (toks[q].is_punct('&') || toks[q].kind == TokKind::Lifetime || toks[q].is_ident("mut")) {
            q += 1;
        }
        if q < pe && toks[q].is_ident("self") && params.is_empty() {
            has_self = true;
            continue;
        }
        // `name: Type` — take the identifier right before the top-level
        // `:`, provided the pattern before it is simple (no tuple or
        // struct destructuring).
        let colon = (ps..pe).find(|&k| toks[k].is_punct(':') && !toks.get(k + 1).is_some_and(|n| n.is_punct(':')));
        let name = colon.and_then(|c| {
            if c == ps {
                return None;
            }
            let prefix_simple = (ps..c).all(|k| {
                let t = &toks[k];
                t.kind == TokKind::Ident || t.is_punct('&') || t.kind == TokKind::Lifetime
            });
            let last = &toks[c - 1];
            (prefix_simple && last.kind == TokKind::Ident).then(|| last.text.clone())
        });
        let line = toks.get(ps).map_or(0, |t| t.line);
        params.push(Param { name, line });
    }
    (params, has_self)
}

/// Splits `toks[start..end]` at top-level commas, aware of nested
/// delimiters, generics, and closure parameter pipes.
fn split_commas(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut pieces = Vec::new();
    let mut angle = 0i64;
    let mut in_closure_params = false;
    let mut piece_start = start;
    let mut k = start;
    while k < end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            k = match_delim(toks, k) + 1;
            continue;
        }
        if t.is_punct('-') && toks.get(k + 1).is_some_and(|n| n.is_punct('>')) {
            k += 2;
            continue;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && angle > 0 {
            angle -= 1;
        } else if t.is_punct('|') {
            // A `|` opens closure parameters when it follows a comma,
            // an opening delimiter, or the piece start; otherwise it is
            // bitwise-or (or the closing pipe).
            if in_closure_params {
                in_closure_params = false;
            } else {
                let opens = k == piece_start
                    || toks
                        .get(k.wrapping_sub(1))
                        .is_some_and(|p| p.is_punct(',') || p.is_punct('(') || p.is_punct('='));
                if opens {
                    in_closure_params = true;
                }
            }
        } else if t.is_punct(',') && angle == 0 && !in_closure_params {
            pieces.push((piece_start, k));
            piece_start = k + 1;
        }
        k += 1;
    }
    if piece_start < end {
        pieces.push((piece_start, end));
    }
    pieces
}

/// Scans a function body for call expressions and `let` bindings.
fn scan_body(toks: &[Tok], start: usize, end: usize, item: &mut FnItem) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        if t.text == "let" {
            if let Some(bind) = parse_let(toks, i, end) {
                item.lets.push(bind);
            }
            i += 1;
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) || t.text == "self" || t.text == "Self" {
            i += 1;
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let callee = if i > 1 && toks[i - 1].is_punct('.') && toks[i - 2].is_ident("self") {
                Callee::SelfMethod(t.text.clone())
            } else if i > 0 && toks[i - 1].is_punct('.') {
                Callee::Method(t.text.clone())
            } else if i > 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].kind == TokKind::Ident
            {
                Callee::Path(toks[i - 3].text.clone(), t.text.clone())
            } else {
                Callee::Bare(t.text.clone())
            };
            let close = match_delim(toks, i + 1);
            let args = split_commas(toks, i + 2, close);
            item.calls.push(CallSite {
                callee,
                args,
                line: t.line,
            });
        }
        i += 1;
    }
}

/// Parses `let [mut] NAME [: ty] = init (; | else)` at `i`; returns
/// `None` for destructuring patterns.
fn parse_let(toks: &[Tok], i: usize, end: usize) -> Option<LetBind> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name_tok = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
    if name_tok.text == "else" || NON_CALL_KEYWORDS.contains(&name_tok.text.as_str()) {
        return None;
    }
    let name = name_tok.text.clone();
    j += 1;
    if toks.get(j).is_some_and(|t| t.is_punct(':')) {
        // Skip the type annotation to the `=` (or bail at `;`).
        let mut k = j + 1;
        while k < end {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                k = match_delim(toks, k) + 1;
                continue;
            }
            if t.is_punct('<') {
                k = skip_angles(toks, k, end);
                continue;
            }
            if t.is_punct('=') || t.is_punct(';') {
                break;
            }
            k += 1;
        }
        j = k;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('=')) || toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
        return None;
    }
    let init_start = j + 1;
    // The initializer ends at the `;` (or `else`) at delimiter depth 0.
    let mut k = init_start;
    while k < end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            k = match_delim(toks, k) + 1;
            continue;
        }
        if t.is_punct(';') || t.is_ident("else") {
            break;
        }
        k += 1;
    }
    Some(LetBind {
        name,
        init: (init_start, k.min(end)),
        line: toks[i].line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::new("crates/x/src/lib.rs", src))
    }

    #[test]
    fn free_fn_with_params_and_calls() {
        let p = parse("pub fn run(cap_mw: u64, draw_w: f64) -> f64 { helper(cap_mw); draw_w }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "run");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("cap_mw"));
        assert_eq!(f.params[1].name.as_deref(), Some("draw_w"));
        assert!(!f.has_self);
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, Callee::Bare("helper".into()));
        assert_eq!(f.calls[0].args.len(), 1);
    }

    #[test]
    fn impl_context_and_method_calls() {
        let p = parse(
            "struct Node;\nimpl Node {\n  pub fn tick(&mut self, now: u64) { self.step(now); Other::build(now); }\n}",
        );
        assert_eq!(p.types, ["Node"]);
        let f = &p.fns[0];
        assert_eq!(f.self_ty.as_deref(), Some("Node"));
        assert_eq!(f.trait_impl, None);
        assert!(f.has_self);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.calls.len(), 2);
        assert_eq!(f.calls[0].callee, Callee::SelfMethod("step".into()));
        assert_eq!(f.calls[1].callee, Callee::Path("Other".into(), "build".into()));
    }

    #[test]
    fn trait_impl_and_generic_signatures() {
        let p = parse(
            "impl FreqPolicy for Wma {\n  fn decide(&mut self, u: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) { (0, 0) }\n}\npub fn build<F>(n: usize, mut make: F) -> usize where F: FnMut(usize) -> usize { make(n) }",
        );
        let d = &p.fns[0];
        assert_eq!(d.trait_impl.as_deref(), Some("FreqPolicy"));
        assert_eq!(d.self_ty.as_deref(), Some("Wma"));
        assert_eq!(d.params.len(), 2);
        assert_eq!(d.params[1].name.as_deref(), Some("feasible"));
        let b = &p.fns[1];
        assert_eq!(b.name, "build");
        assert_eq!(b.params.len(), 2);
        assert_eq!(b.params[1].name.as_deref(), Some("make"));
    }

    #[test]
    fn closure_commas_do_not_split_args() {
        let p = parse("pub fn go() { take(|a, b| a + b, other); }");
        let call = &p.fns[0].calls[0];
        assert_eq!(call.callee, Callee::Bare("take".into()));
        assert_eq!(call.args.len(), 2, "closure params must not split the arg list");
    }

    #[test]
    fn let_bindings_record_initializer_ranges() {
        let p = parse("pub fn go(cap_mw: u64) { let budget = cap_mw * 2; use_it(budget); }");
        let f = &p.fns[0];
        assert_eq!(f.lets.len(), 1);
        assert_eq!(f.lets[0].name, "budget");
    }

    #[test]
    fn trait_default_methods_are_parsed() {
        let p = parse("pub trait Seam {\n  fn must(&self);\n  fn optional(&self) -> u32 { fallback() }\n}");
        assert_eq!(p.types, ["Seam"]);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert_eq!(p.fns[1].calls.len(), 1);
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("Seam"));
    }

    #[test]
    fn nested_modules_and_macros_do_not_confuse() {
        let p = parse("mod inner { pub fn f() { format!(\"x{}\", g(1)); } }");
        let f = &p.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, Callee::Bare("g".into()));
    }
}
