//! Run provenance recorded in every `results/BENCH_*.json` baseline.
//!
//! A perf baseline without provenance cannot be compared across machines
//! or revisions: the numbers drift and nobody knows whether the code or
//! the box changed. Every JSON writer therefore embeds a `provenance`
//! object with the git revision the benchmark ran at (suffixed `+dirty`
//! when the working tree had uncommitted changes, so a number measured on
//! an uncommitted change never passes for its parent's), the workload
//! scale (point and query counts), and the threading situation (worker
//! threads used and hardware parallelism available).

use std::fmt::Write as _;
use std::process::Command;

/// Provenance of one benchmark run.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `git rev-parse --short=12 HEAD` at run time, plus `+dirty` when
    /// `git status --porcelain` lists any change (`"unknown"` when git or
    /// the repository is unavailable — e.g. running from a tarball).
    pub git_rev: String,
    /// Points indexed by the benchmark's engine(s).
    pub points: u64,
    /// Queries (or primitive calls, for micro-benchmarks) timed.
    pub queries: u64,
    /// Worker threads the benchmark drove explicitly (1 = sequential).
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the machine.
    pub available_parallelism: usize,
}

/// Best-effort git revision of the working tree, `+dirty` when the tree
/// has uncommitted changes.
pub fn git_revision() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let rev = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_default();
    let status = git(&["status", "--porcelain"]).unwrap_or_default();
    revision_label(rev.trim(), &status)
}

/// The provenance label of revision `rev`, given what `git status
/// --porcelain` printed: `rev` for a clean tree, `<rev>+dirty` when the
/// status lists anything, `unknown` without a revision.
fn revision_label(rev: &str, status: &str) -> String {
    match (rev, status.trim()) {
        ("", _) => String::from("unknown"),
        (rev, "") => rev.to_string(),
        (rev, _) => format!("{rev}+dirty"),
    }
}

impl Provenance {
    /// Captures provenance for a run over `points` points and `queries`
    /// timed queries on `threads` worker threads.
    pub fn capture(points: u64, queries: u64, threads: usize) -> Provenance {
        Provenance {
            git_rev: git_revision(),
            points,
            queries,
            threads,
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// The provenance as one JSON object line (no trailing comma).
    pub fn json_object(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"git_rev\": \"{}\", \"points\": {}, \"queries\": {}, \"threads\": {}, \
\"available_parallelism\": {}}}",
            self.git_rev.replace('"', ""),
            self.points,
            self.queries,
            self.threads,
            self.available_parallelism,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_shape() {
        let p = Provenance {
            git_rev: String::from("abc123"),
            points: 1000,
            queries: 64,
            threads: 8,
            available_parallelism: 16,
        };
        let json = p.json_object();
        assert!(json.contains("\"git_rev\": \"abc123\""));
        assert!(json.contains("\"points\": 1000"));
        assert!(json.contains("\"queries\": 64"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn dirty_trees_are_labelled() {
        assert_eq!(revision_label("abc123", ""), "abc123");
        assert_eq!(revision_label("abc123", "\n"), "abc123");
        assert_eq!(revision_label("abc123", " M src/lib.rs\n"), "abc123+dirty");
        assert_eq!(revision_label("abc123", "?? new.rs\n"), "abc123+dirty");
        assert_eq!(revision_label("", " M src/lib.rs\n"), "unknown");
    }

    #[test]
    fn capture_fills_every_field() {
        let p = Provenance::capture(10, 20, 2);
        assert!(!p.git_rev.is_empty());
        assert_eq!(p.points, 10);
        assert_eq!(p.queries, 20);
        assert_eq!(p.threads, 2);
        assert!(p.available_parallelism >= 1);
    }
}
