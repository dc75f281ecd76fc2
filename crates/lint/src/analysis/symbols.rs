//! The workspace symbol table: every parsed function, indexed for call
//! resolution.
//!
//! Resolution is a deliberate over-approximation. Method calls resolve
//! by bare name against every workspace method (this is what models
//! `dyn FreqPolicy` dispatch without type inference); `Type::fn` path
//! calls resolve only when `Type` is a *workspace* type, so `Vec::new`
//! never aliases `Node::new`. Test-region functions are excluded
//! entirely — a unit test constructing a policy must not make the
//! constructor "reachable".

use std::collections::{BTreeMap, BTreeSet};

use super::parse::{Callee, FnItem, ParsedFile};
use crate::source::{FileKind, SourceFile};

/// Index of a function in the flat table.
pub type FnId = usize;

/// The flat function table plus resolution indexes.
#[derive(Debug, Default)]
pub struct Symbols {
    /// `FnId` → (file index, item index within that file's parse).
    pub owner: Vec<(usize, usize)>,
    /// `FnId` → stable sort key (`path::Ty::name/arity`), used to make
    /// graph traversal order independent of declaration order.
    pub keys: Vec<String>,
    /// `FnId` → owning crate name.
    crates: Vec<String>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_ty_name: BTreeMap<(String, String), Vec<FnId>>,
    /// Workspace-declared type names (structs, enums, unions, traits).
    types: BTreeSet<String>,
}

impl Symbols {
    /// Builds the table over parsed lib files (`parsed` is parallel to
    /// `files`; non-lib entries are empty).
    pub fn build(files: &[SourceFile], parsed: &[ParsedFile]) -> Symbols {
        let mut sym = Symbols::default();
        for (fi, (file, pf)) in files.iter().zip(parsed).enumerate() {
            if file.kind != FileKind::Lib {
                continue;
            }
            for ty in &pf.types {
                sym.types.insert(ty.clone());
            }
            for (ii, item) in pf.fns.iter().enumerate() {
                if file.is_test_region(item.line) {
                    continue;
                }
                let id: FnId = sym.owner.len();
                sym.owner.push((fi, ii));
                sym.keys
                    .push(format!("{}::{}/{}", file.rel_path, item.qualified(), item.params.len()));
                sym.crates.push(file.crate_name.clone());
                sym.by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(ty) = &item.self_ty {
                    sym.by_ty_name
                        .entry((ty.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        sym
    }

    /// Number of functions in the table.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// The parsed item behind `id`.
    pub fn item<'a>(&self, parsed: &'a [ParsedFile], id: FnId) -> &'a FnItem {
        let (fi, ii) = self.owner[id];
        &parsed[fi].fns[ii]
    }

    /// All candidate callees for a call made from `caller`.
    ///
    /// - `Bare(f)` → free functions named `f`, same file first, then
    ///   same crate, then anywhere (imports are not tracked); nothing
    ///   when the caller binds `f` with `let`, since the local (a closure
    ///   or fn pointer) shadows every `fn` of that name.
    /// - `Ty::f` → associated functions of the workspace type `Ty`
    ///   (through `Self`); unknown types resolve to nothing, so calls
    ///   into `std` never create edges.
    /// - `recv.f(..)` → every workspace method named `f`.
    pub fn resolve(&self, parsed: &[ParsedFile], caller: FnId, callee: &Callee) -> Vec<FnId> {
        match callee {
            Callee::Bare(name) => {
                if self.item(parsed, caller).lets.iter().any(|b| &b.name == name) {
                    return Vec::new();
                }
                let free: Vec<FnId> = self
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| {
                                let it = self.item(parsed, id);
                                it.self_ty.is_none() && !it.has_self
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let (caller_file, _) = self.owner[caller];
                let same_file: Vec<FnId> = free
                    .iter()
                    .copied()
                    .filter(|&id| self.owner[id].0 == caller_file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let caller_crate = &self.crates[caller];
                let same_crate: Vec<FnId> = free
                    .iter()
                    .copied()
                    .filter(|&id| &self.crates[id] == caller_crate)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                free
            }
            Callee::Path(ty, name) => {
                let ty = if ty == "Self" {
                    match &self.item(parsed, caller).self_ty {
                        Some(t) => t.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    ty.clone()
                };
                if !self.types.contains(&ty) {
                    return Vec::new();
                }
                self.by_ty_name.get(&(ty, name.clone())).cloned().unwrap_or_default()
            }
            Callee::Method(name) => self
                .by_name
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.item(parsed, id).has_self)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::parse::parse_file;
    use crate::source::SourceFile;

    fn build(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<ParsedFile>, Symbols) {
        let files: Vec<SourceFile> = sources.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse_file).collect();
        let sym = Symbols::build(&files, &parsed);
        (files, parsed, sym)
    }

    #[test]
    fn path_calls_only_resolve_to_workspace_types() {
        let (_f, parsed, sym) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Node;\nimpl Node { pub fn new() -> Node { Node } }\npub fn go() { let v = Vec::new(); let n = Node::new(); }",
        )]);
        let go = sym.keys.iter().position(|k| k.contains("::go/")).unwrap();
        let item = sym.item(&parsed, go);
        let vec_new = item
            .calls
            .iter()
            .find(|c| matches!(&c.callee, Callee::Path(t, _) if t == "Vec"))
            .unwrap();
        assert!(sym.resolve(&parsed, go, &vec_new.callee).is_empty());
        let node_new = item
            .calls
            .iter()
            .find(|c| matches!(&c.callee, Callee::Path(t, _) if t == "Node"))
            .unwrap();
        assert_eq!(sym.resolve(&parsed, go, &node_new.callee).len(), 1);
    }

    #[test]
    fn test_region_fns_are_excluded() {
        let (_f, _p, sym) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { crate::live(); }\n}\n",
        )]);
        assert_eq!(sym.len(), 1, "only the non-test fn enters the table");
    }

    #[test]
    fn method_calls_resolve_by_name_across_crates() {
        let (_f, parsed, sym) = build(&[
            (
                "crates/a/src/lib.rs",
                "pub struct S;\nimpl S { pub fn step(&mut self) {} }",
            ),
            ("crates/b/src/lib.rs", "pub fn drive(s: &mut crate::S) { s.step(); }"),
        ]);
        let drive = sym.keys.iter().position(|k| k.contains("::drive/")).unwrap();
        let call = &sym.item(&parsed, drive).calls[0];
        assert_eq!(sym.resolve(&parsed, drive, &call.callee).len(), 1);
    }

    #[test]
    fn bare_calls_prefer_same_file() {
        let (_f, parsed, sym) = build(&[
            ("crates/a/src/lib.rs", "pub fn helper() {}\npub fn go() { helper(); }"),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let go = sym.keys.iter().position(|k| k.contains("::go/")).unwrap();
        let call = &sym.item(&parsed, go).calls[0];
        let targets = sym.resolve(&parsed, go, &call.callee);
        assert_eq!(targets.len(), 1);
        assert_eq!(sym.owner[targets[0]].0, sym.owner[go].0);
    }
}
