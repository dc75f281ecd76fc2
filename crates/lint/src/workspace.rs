//! Workspace discovery and the end-to-end run.

use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::Baseline;
use crate::findings::Finding;
use crate::rules::{self, checkpoint, Context};
use crate::source::SourceFile;

/// Directories never scanned: vendored shims carry their own style, and
/// the lint fixtures are violations *on purpose*.
const SKIP_PREFIXES: &[&str] = &["vendor/", "target/", "crates/lint/tests/fixtures/"];

/// Markdown documents the contract rule reads.
const DOC_FILES: &[&str] = &["EXPERIMENTS.md", "DESIGN.md"];

/// The outcome of one full run.
pub struct RunReport {
    /// Findings that survived the baseline.
    pub findings: Vec<Finding>,
    /// How many findings the baseline suppressed.
    pub suppressed: usize,
    /// Baseline entries that matched nothing (stale — remove them).
    pub stale: Vec<String>,
    /// The size of the workspace's crate sources.
    pub src_lines: SrcLines,
}

/// Lines of the `.rs` files under `crates/*/src`, whole and outside test
/// regions ([`SourceFile::is_test_region`]: `#[cfg(test)]` items and
/// `#[test]` functions, the code the rules exempt). ROADMAP's "same
/// bytes, less code" item is judged by these two counts.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SrcLines {
    /// Every line.
    pub total: usize,
    /// The lines outside test regions.
    pub outside_test: usize,
}

/// Counts [`SrcLines`] over loaded workspace files.
fn src_lines(files: &[SourceFile]) -> SrcLines {
    let mut counts = SrcLines::default();
    for f in files {
        let mut dirs = f.rel_path.split('/');
        if dirs.next() == Some("crates") && dirs.nth(1) == Some("src") {
            counts.total += f.lines.len();
            counts.outside_test += (1..)
                .take(f.lines.len())
                .filter(|&line| !f.is_test_region(line))
                .count();
        }
    }
    counts
}

/// Loads every scannable file under `root`.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        collect_rs(&root.join(top), &mut paths);
    }
    let mut files = Vec::new();
    let mut rels: Vec<String> = paths
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .filter(|rel| !SKIP_PREFIXES.iter().any(|s| rel.starts_with(s)))
        .collect();
    rels.sort();
    for rel in rels {
        let content = fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        files.push(SourceFile::new(&rel, &content));
    }
    for doc in DOC_FILES {
        if let Ok(content) = fs::read_to_string(root.join(doc)) {
            files.push(SourceFile::new(doc, &content));
        }
    }
    if files.is_empty() {
        return Err(format!("no sources found under {}", root.display()));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Reads the baseline at `path`; a missing file is an empty baseline.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    match fs::read_to_string(path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Baseline::default()),
    }
}

/// Runs every rule over `root` against `baseline`, and counts the
/// crate sources' [`SrcLines`].
pub fn run(root: &Path, baseline: &Baseline) -> Result<RunReport, String> {
    let files = load_workspace(root)?;
    let ctx = Context::new(&files, baseline);
    let raw = rules::run_all(&ctx);
    let (findings, suppressed, stale) = baseline.apply(raw);
    let stale = stale
        .into_iter()
        .map(|s| format!("[{}] {} — {:?}", s.rule, s.path, s.snippet))
        .collect();
    Ok(RunReport {
        findings,
        suppressed,
        stale,
        src_lines: src_lines(&files),
    })
}

/// Recomputes the checkpoint fingerprint section of `baseline` from the
/// sources under `root` (the `--update-baseline` path). Returns the new
/// serialized baseline, or `None` when the workspace has no checkpoint
/// surface.
pub fn refresh_checkpoint(root: &Path, baseline: &Baseline) -> Result<Option<String>, String> {
    let files = load_workspace(root)?;
    let Some(state) = checkpoint::observe(&files) else {
        return Ok(None);
    };
    let mut updated = baseline.clone();
    updated.checkpoint_version = Some(state.version);
    updated.checkpoint_fingerprint = Some(state.fingerprint);
    Ok(Some(updated.to_toml()))
}

/// Walks up from `start` to the first directory holding `Cargo.toml`
/// with a `crates/` sibling — the workspace root.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_lines_counts_crate_sources_outside_test_regions() {
        let lib = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let files = [
            SourceFile::new("crates/a/src/lib.rs", lib),
            SourceFile::new("crates/a/src/deep/mod.rs", "pub fn g() {}\n#[test]\nfn t() {}\n"),
            SourceFile::new("crates/a/tests/t.rs", "fn h() {}\n"),
            SourceFile::new("crates/a/examples/e.rs", "fn main() {}\n"),
            SourceFile::new("src/lib.rs", "pub fn root() {}\n"),
            SourceFile::new("DESIGN.md", "# Design\n"),
        ];
        let counts = src_lines(&files);
        assert_eq!(
            counts,
            SrcLines {
                total: 10,
                outside_test: 3
            }
        );
    }
}
