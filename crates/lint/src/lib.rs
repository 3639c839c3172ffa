//! `vaq-lint` — repo-specific static analysis for the voronoi-area-query
//! workspace.
//!
//! The engine's correctness story rests on invariants that `rustc` and
//! clippy cannot see: exact geometric predicates must not be bypassed by
//! raw float comparisons, `OutputMode` dispatch must stay confined to the
//! sink layer, merged `QueryStats` must conserve every counter, library
//! code must not panic on user input, benchmark baselines must carry
//! provenance, atomic orderings must be justified where they are chosen,
//! lock guards must not be held across emit/merge paths, and raw
//! `std::sync` primitives stay confined to the `vaq_core::sync` facade so
//! every piece of cross-thread mutable state is declared and justified
//! in one module. This crate turns those conventions into machine-checked
//! rules (see [`rules`] for each rule's exact contract) with a uniform
//! escape hatch:
//!
//! ```text
//! // vaq-lint: allow(<rule>) -- <justification>
//! ```
//!
//! placed on the offending line or on a comment line directly above it.
//! An allow-comment without a justification is itself a finding, so every
//! exception stays visible and argued in the diff.
//!
//! Run `cargo run -p vaq-lint -- check` for machine-readable findings
//! (`file:line: [rule] message`, non-zero exit on violations) and
//! `cargo run -p vaq-lint -- fix --annotate` to insert TODO-annotations
//! for triage. The scanner walks `crates/` and `src/` under the workspace
//! root; `crates/lint` itself is excluded (its sources and fixtures are
//! made of deliberate rule violations).

pub mod rules;
pub mod source;

use source::{AllowParse, Finding, SourceFile, ALLOW_GRAMMAR};
use std::fs;
use std::path::{Path, PathBuf};

/// Reads and parses every `.rs` file the lint covers, relative to `root`.
pub fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let text = fs::read_to_string(&p)?;
        files.push(SourceFile::parse(rel, &text));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over the tree rooted at `root` and returns the
/// surviving (non-suppressed) findings plus all allow-grammar findings,
/// sorted by file and line.
pub fn check_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = load_tree(root)?;
    Ok(check_files(&files))
}

/// The rule engine proper: runs every rule over an already-parsed file
/// set. Separated from [`check_tree`] so the fixture self-tests can lint
/// synthetic trees without touching the filesystem.
pub fn check_files(files: &[SourceFile]) -> Vec<Finding> {
    let mut raw_findings: Vec<Finding> = Vec::new();
    for file in files {
        let kind = rules::classify(&file.rel);
        rules::float_exactness(file, &kind, &mut raw_findings);
        rules::sink_dispatch(file, &mut raw_findings);
        rules::panic_hygiene(file, &kind, &mut raw_findings);
        rules::bench_provenance(file, &kind, &mut raw_findings);
        rules::atomic_ordering(file, &mut raw_findings);
        rules::lock_hygiene(file, &mut raw_findings);
        rules::sync_facade(file, &mut raw_findings);
    }
    rules::stats_conservation(files, &mut raw_findings);

    let mut findings: Vec<Finding> = Vec::new();
    for f in raw_findings {
        let file = files
            .iter()
            .find(|sf| sf.rel == f.file)
            .expect("finding points at a loaded file");
        // stats-conservation handles its in-body exemptions itself; the
        // generic line-level allow applies to every rule uniformly.
        if !file.allowed(f.line - 1, f.rule) {
            findings.push(f);
        }
    }
    // malformed allow comments are findings in their own right
    for file in files {
        for (idx, allow) in file.allows.iter().enumerate() {
            if let Some(AllowParse::Bad(bad)) = allow {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: ALLOW_GRAMMAR,
                    message: bad.problem.clone(),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// `fix --annotate`: inserts a TODO allow-comment above every finding so
/// a human can triage each site (replace the TODO with a justification,
/// or fix the code and delete the comment). Returns the number of
/// annotations inserted. Allow-grammar findings are not annotatable and
/// are skipped.
pub fn annotate_tree(root: &Path) -> std::io::Result<usize> {
    let findings = check_tree(root)?;
    let mut by_file: std::collections::BTreeMap<String, Vec<&Finding>> =
        std::collections::BTreeMap::new();
    for f in &findings {
        if f.rule != ALLOW_GRAMMAR {
            by_file.entry(f.file.clone()).or_default().push(f);
        }
    }
    let mut inserted = 0usize;
    for (rel, file_findings) in by_file {
        let path = root.join(&rel);
        let text = fs::read_to_string(&path)?;
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        // distinct (line, rule) targets, inserted bottom-up so earlier
        // line numbers stay valid
        let mut targets: Vec<(usize, &'static str)> =
            file_findings.iter().map(|f| (f.line - 1, f.rule)).collect();
        targets.sort();
        targets.dedup();
        for (line, rule) in targets.into_iter().rev() {
            let indent: String = lines[line]
                .chars()
                .take_while(|c| *c == ' ' || *c == '\t')
                .collect();
            lines.insert(
                line,
                format!("{indent}// vaq-lint: allow({rule}) -- TODO(vaq-lint): justify or fix"),
            );
            inserted += 1;
        }
        let mut out = lines.join("\n");
        if text.ends_with('\n') {
            out.push('\n');
        }
        fs::write(&path, out)?;
    }
    Ok(inserted)
}

/// Locates the workspace root by walking up from `start` until a
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
