//! Fixture-based self-tests for the rule engine.
//!
//! Each rule gets a violating and a clean fixture under
//! `tests/fixtures/<rule>/`, parsed here at *synthetic* repo paths (a
//! rule's scope is path-derived, so the same bytes can be a violation at
//! one path and fine at another). The real tree's `load_tree` skips
//! `fixtures/` directories and `crates/lint/` itself, so these files only
//! ever reach the engine through this test — and they never compile.

use vaq_lint::check_files;
use vaq_lint::rules::{
    find_merge_body, EXACT_SIGN_FNS, GUARD_CROSSING, PREDICATE_MODULES, PREDICATE_MODULE_PREFIX,
    SINK_MODULE, SNAPSHOT_MAGIC_PREFIX, STATS_ROOT, SYNC_FACADE_MODULE,
};
use vaq_lint::source::{
    AllowParse, Finding, SourceFile, ALLOW_GRAMMAR, ATOMIC_ORDERING, BENCH_PROVENANCE,
    FLOAT_EXACTNESS, LOCK_HYGIENE, PANIC_HYGIENE, SINK_DISPATCH, STATS_CONSERVATION, SYNC_FACADE,
};

/// Parses `(rel-path, text)` pairs and runs the full rule engine.
fn lint(files: &[(&str, &str)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(rel, text)| SourceFile::parse((*rel).to_owned(), text))
        .collect();
    check_files(&parsed)
}

/// `(line, rule)` pairs of every finding, in report order.
fn tagged(findings: &[Finding]) -> Vec<(usize, &'static str)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

fn assert_clean(findings: &[Finding]) {
    assert!(
        findings.is_empty(),
        "expected no findings, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

const FLOAT_BAD: &str = include_str!("fixtures/float-exactness/violating.rs");
const FLOAT_CLEAN: &str = include_str!("fixtures/float-exactness/clean.rs");
const POWER_BAD: &str = include_str!("fixtures/float-exactness/power_violating.rs");
const POWER_CLEAN: &str = include_str!("fixtures/float-exactness/power_clean.rs");
const SINK_BAD: &str = include_str!("fixtures/sink-dispatch/violating.rs");
const SINK_CLEAN: &str = include_str!("fixtures/sink-dispatch/clean.rs");
const STATS_BAD: &str = include_str!("fixtures/stats-conservation/violating.rs");
const STATS_CLEAN: &str = include_str!("fixtures/stats-conservation/clean.rs");
const PANIC_BAD: &str = include_str!("fixtures/panic-hygiene/violating.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/panic-hygiene/clean.rs");
const BENCH_BAD: &str = include_str!("fixtures/bench-provenance/violating.rs");
const BENCH_CLEAN: &str = include_str!("fixtures/bench-provenance/clean.rs");
const BENCH_DOC: &str = include_str!("fixtures/bench-provenance/doc_mention.rs");
const SNAP_BAD: &str = include_str!("fixtures/bench-provenance/snapshot_violating.rs");
const SNAP_CLEAN: &str = include_str!("fixtures/bench-provenance/snapshot_clean.rs");
const ALLOW_BAD: &str = include_str!("fixtures/allow-grammar/bad.rs");
const ATOMIC_BAD: &str = include_str!("fixtures/atomic-ordering/violating.rs");
const ATOMIC_CLEAN: &str = include_str!("fixtures/atomic-ordering/clean.rs");
const LOCK_BAD: &str = include_str!("fixtures/lock-hygiene/violating.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/lock-hygiene/clean.rs");
const FACADE_BAD: &str = include_str!("fixtures/sync-facade/violating.rs");
const FACADE_CLEAN: &str = include_str!("fixtures/sync-facade/clean.rs");

// --- float-exactness -------------------------------------------------------

#[test]
fn float_exactness_flags_each_hazard_class() {
    let findings = lint(&[("crates/geom/src/polygon.rs", FLOAT_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (4, FLOAT_EXACTNESS),  // x == 0.0
            (8, FLOAT_EXACTNESS),  // partial_cmp
            (12, FLOAT_EXACTNESS), // as f64
            (16, FLOAT_EXACTNESS), // float -> usize narrowing
        ]
    );
}

#[test]
fn float_exactness_only_audits_predicate_modules() {
    // same bytes outside crates/geom's predicate modules: out of scope
    assert_clean(&lint(&[("crates/core/src/engine.rs", FLOAT_BAD)]));
    assert_clean(&lint(&[("crates/geom/src/point.rs", FLOAT_BAD)]));
}

#[test]
fn float_exactness_accepts_routed_and_annotated_code() {
    // same-line orient2d call, let-bound orient2d result, allow-comment,
    // and stored-value comparison are all non-findings
    assert_clean(&lint(&[("crates/geom/src/segment.rs", FLOAT_CLEAN)]));
}

#[test]
fn float_exactness_audits_the_weighted_predicate_module() {
    let findings = lint(&[("crates/geom/src/power.rs", POWER_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (6, FLOAT_EXACTNESS),  // power_dist(x) <= 0.0
            (10, FLOAT_EXACTNESS), // as f64
            (14, FLOAT_EXACTNESS), // float -> usize narrowing
        ]
    );
    // the same bytes outside the audited module set stay out of scope
    assert_clean(&lint(&[("crates/geom/src/point.rs", POWER_BAD)]));
}

#[test]
fn float_exactness_treats_power_incircle_as_exact_sign() {
    // same-line power_incircle call, let-bound power_incircle result,
    // literal-free filter comparison, and allow-comment all pass
    assert_clean(&lint(&[("crates/geom/src/power.rs", POWER_CLEAN)]));
}

// --- sink-dispatch ---------------------------------------------------------

#[test]
fn sink_dispatch_flags_matches_outside_the_sink() {
    let findings = lint(&[("crates/core/src/engine.rs", SINK_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (6, SINK_DISPATCH),  // OutputMode::Collect => …
            (7, SINK_DISPATCH),  // OutputMode::Count => …
            (13, SINK_DISPATCH), // matches!(…)
            (17, SINK_DISPATCH), // if let OutputMode::…
        ]
    );
}

#[test]
fn sink_dispatch_permits_the_sink_module_itself() {
    // the exact same dispatch code is legal where dispatch belongs
    assert_clean(&lint(&[("crates/core/src/sink.rs", SINK_BAD)]));
}

#[test]
fn sink_dispatch_ignores_mode_construction() {
    // `… => OutputMode::Collect` builds a mode in an arm body — not dispatch
    assert_clean(&lint(&[("crates/core/src/engine.rs", SINK_CLEAN)]));
}

// --- stats-conservation ----------------------------------------------------

#[test]
fn stats_conservation_catches_a_dropped_counter() {
    let findings = lint(&[("crates/core/src/stats.rs", STATS_BAD)]);
    assert_eq!(tagged(&findings), vec![(10, STATS_CONSERVATION)]);
    assert!(
        findings[0].message.contains("`accepted`"),
        "finding should name the dropped field: {}",
        findings[0]
    );
}

#[test]
fn stats_conservation_accepts_in_body_exemptions() {
    // `seed` is absent from the merge but exempted by an in-body allow
    // whose justification names it
    assert_clean(&lint(&[("crates/core/src/stats.rs", STATS_CLEAN)]));
}

// --- panic-hygiene ---------------------------------------------------------

#[test]
fn panic_hygiene_flags_each_panic_class() {
    let findings = lint(&[("crates/core/src/engine.rs", PANIC_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (4, PANIC_HYGIENE),  // .unwrap()
            (8, PANIC_HYGIENE),  // points[0]
            (15, PANIC_HYGIENE), // panic!
            (20, PANIC_HYGIENE), // .expect("")
        ]
    );
}

#[test]
fn panic_hygiene_exempts_binaries_and_the_bench_crate() {
    assert_clean(&lint(&[("src/bin/vaq.rs", PANIC_BAD)]));
    assert_clean(&lint(&[("crates/bench/src/lib.rs", PANIC_BAD)]));
}

#[test]
fn panic_hygiene_accepts_annotated_and_test_gated_code() {
    // allow-comment on the literal index, messageful expect, and an
    // unwrap inside #[cfg(test)] are all non-findings
    assert_clean(&lint(&[("crates/core/src/engine.rs", PANIC_CLEAN)]));
}

// --- bench-provenance ------------------------------------------------------

#[test]
fn bench_provenance_flags_writers_without_provenance() {
    let findings = lint(&[("crates/bench/src/report.rs", BENCH_BAD)]);
    assert_eq!(tagged(&findings), vec![(4, BENCH_PROVENANCE)]);
}

#[test]
fn bench_provenance_accepts_writers_with_provenance() {
    assert_clean(&lint(&[("crates/bench/src/report.rs", BENCH_CLEAN)]));
}

#[test]
fn bench_provenance_ignores_doc_comment_mentions() {
    // naming a baseline in a doc comment is not writing one
    assert_clean(&lint(&[("crates/bench/src/compare.rs", BENCH_DOC)]));
}

#[test]
fn bench_provenance_only_audits_the_bench_crate() {
    assert_clean(&lint(&[("crates/core/src/engine.rs", BENCH_BAD)]));
}

#[test]
fn bench_provenance_flags_snapshot_writers_with_unpopulated_headers() {
    // `git_revision` / `build_params` appear only in comments — the
    // `code` view blanks those, so the writer is still a finding, and
    // the arm applies outside `crates/bench/` too.
    let findings = lint(&[("crates/core/src/snapfile.rs", SNAP_BAD)]);
    assert_eq!(tagged(&findings), vec![(8, BENCH_PROVENANCE)]);
}

#[test]
fn bench_provenance_accepts_snapshot_writers_embedding_provenance() {
    assert_clean(&lint(&[("crates/core/src/snapfile.rs", SNAP_CLEAN)]));
}

// --- atomic-ordering -------------------------------------------------------

#[test]
fn atomic_ordering_flags_unjustified_sites_and_stray_relaxed() {
    let findings = lint(&[("crates/core/src/batch.rs", ATOMIC_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (4, ATOMIC_ORDERING),  // SeqCst without a `// ordering:` note
            (8, ATOMIC_ORDERING),  // Release without a note
            (13, ATOMIC_ORDERING), // Relaxed outside the facade, note or not
        ]
    );
    assert!(
        findings[2].message.contains("facade"),
        "Relaxed finding should point at the facade idiom: {}",
        findings[2]
    );
}

#[test]
fn atomic_ordering_permits_commented_relaxed_only_in_the_facade() {
    // same bytes inside the facade: Relaxed's comment now counts, but
    // the two unjustified sites still need their `// ordering:` notes
    let findings = lint(&[("crates/core/src/sync.rs", ATOMIC_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![(4, ATOMIC_ORDERING), (8, ATOMIC_ORDERING)]
    );
}

#[test]
fn atomic_ordering_accepts_justified_and_cmp_orderings() {
    // comment-run justification, same-line justification, std::cmp
    // arms, and bare orderings under #[cfg(test)] are all non-findings
    assert_clean(&lint(&[("crates/core/src/batch.rs", ATOMIC_CLEAN)]));
}

// --- lock-hygiene ----------------------------------------------------------

#[test]
fn lock_hygiene_flags_crossings_and_unordered_nesting() {
    let findings = lint(&[("crates/core/src/shard.rs", LOCK_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (5, LOCK_HYGIENE),  // .merge( under a live guard
            (10, LOCK_HYGIENE), // nested .lock( without a lock-order note
            (16, LOCK_HYGIENE), // .execute_batch( under a live guard
            (21, LOCK_HYGIENE), // .run( under a live guard
        ]
    );
}

#[test]
fn lock_hygiene_accepts_scoped_dropped_and_ordered_guards() {
    // block-scoped guard, explicit drop() before emit, lock-order
    // comment on nesting, chained temporary, and test-gated code are
    // all non-findings
    assert_clean(&lint(&[("crates/core/src/shard.rs", LOCK_CLEAN)]));
}

// --- sync-facade -----------------------------------------------------------

#[test]
fn sync_facade_confines_raw_primitives() {
    let findings = lint(&[("crates/core/src/engine.rs", FACADE_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (1, SYNC_FACADE), // std::sync::atomic import
            (2, SYNC_FACADE), // std::sync::Mutex import
            (3, SYNC_FACADE), // Condvar inside a grouped import
            (6, SYNC_FACADE), // crossbeam scope
            (7, SYNC_FACADE), // path-qualified RwLock
        ]
    );
}

#[test]
fn sync_facade_permits_the_facade_itself() {
    // the facade module is where the raw primitives are supposed to live
    assert_clean(&lint(&[("crates/core/src/sync.rs", FACADE_BAD)]));
}

#[test]
fn sync_facade_accepts_facade_imports_arc_and_oncelock() {
    assert_clean(&lint(&[("crates/core/src/engine.rs", FACADE_CLEAN)]));
}

// --- allow grammar ---------------------------------------------------------

#[test]
fn malformed_allows_are_findings_and_do_not_suppress() {
    let findings = lint(&[("crates/core/src/engine.rs", ALLOW_BAD)]);
    assert_eq!(
        tagged(&findings),
        vec![
            (5, ALLOW_GRAMMAR),  // allow(…) with no `--` clause
            (6, PANIC_HYGIENE),  // …and the finding underneath survives
            (10, ALLOW_GRAMMAR), // unknown rule name
            (11, PANIC_HYGIENE),
            (15, ALLOW_GRAMMAR), // empty justification
            (16, PANIC_HYGIENE),
        ]
    );
}

// --- the real tree ---------------------------------------------------------

#[test]
fn real_tree_has_zero_findings() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = vaq_lint::find_root(manifest).expect("workspace root above crates/lint");
    let findings = vaq_lint::check_tree(&root).expect("tree should load");
    assert_clean(&findings);
}

/// Every name a rule keys on still exists in the real tree: a rule whose
/// module was renamed or whose function was deleted polices nothing and
/// passes silently, so this test fails instead.
#[test]
fn every_name_a_rule_keys_on_still_exists() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = vaq_lint::find_root(manifest).expect("workspace root above crates/lint");
    let files = vaq_lint::load_tree(&root).expect("tree should load");
    let file = |rel: &str| files.iter().find(|f| f.rel == rel);
    // Non-test lines of every file, in the given view.
    let live = |view: fn(&SourceFile) -> &Vec<String>| {
        files.iter().flat_map(move |f| {
            view(f)
                .iter()
                .zip(&f.in_test)
                .filter(|(_, &t)| !t)
                .map(move |(l, _)| (f, l.as_str()))
        })
    };
    let defines = |name: &str| {
        let decl = format!("pub struct {name} ");
        live(|f| &f.code).find(|(_, l)| l.trim_start().starts_with(&decl))
    };
    let mut stale: Vec<String> = Vec::new();
    // float-exactness: the predicate modules and the exact-sign functions.
    for m in PREDICATE_MODULES {
        if file(&format!("crates/geom/src/{m}")).is_none() {
            stale.push(format!("predicate module {m}"));
        }
    }
    if !files.iter().any(|f| {
        f.rel
            .strip_prefix("crates/geom/src/")
            .is_some_and(|n| n.starts_with(PREDICATE_MODULE_PREFIX))
    }) {
        stale.push(format!("predicate modules {PREDICATE_MODULE_PREFIX}*"));
    }
    for name in EXACT_SIGN_FNS {
        let decl = format!("pub fn {name}(");
        if !live(|f| &f.code).any(|(f, l)| f.rel.starts_with("crates/geom/") && l.contains(&decl)) {
            stale.push(format!("exact-sign function {name}"));
        }
    }
    // sink-dispatch: the sink module builds the sink in `Sink::of`.
    let sink_of = file(SINK_MODULE).is_some_and(|f| {
        f.code.iter().any(|l| l.starts_with("impl Sink "))
            && f.code.iter().any(|l| l.contains(" fn of("))
    });
    if !sink_of {
        stale.push(format!("Sink::of in {SINK_MODULE}"));
    }
    // stats-conservation: the root struct and its counters' merge
    // functions (a counter type without one is silently skipped).
    for name in [
        STATS_ROOT,
        "CacheCounters",
        "PredicateCounters",
        "AccessStats",
    ] {
        if defines(name).is_none_or(|(f, _)| find_merge_body(f, name).is_none()) {
            stale.push(format!("struct {name} with a merge function"));
        }
    }
    // sync-facade and atomic-ordering: the facade module.
    if file(SYNC_FACADE_MODULE).is_none() {
        stale.push(format!("sync facade {SYNC_FACADE_MODULE}"));
    }
    // lock-hygiene: every guard-crossing call is made somewhere.
    for tok in GUARD_CROSSING {
        if !live(|f| &f.code).any(|(_, l)| l.contains(tok)) {
            stale.push(format!("guard-crossing call {tok}"));
        }
    }
    // bench-provenance: a container writer embeds the snapshot magic.
    if !live(|f| &f.strings).any(|(_, l)| l.contains(SNAPSHOT_MAGIC_PREFIX)) {
        stale.push(format!("snapshot magic {SNAPSHOT_MAGIC_PREFIX}"));
    }
    assert!(stale.is_empty(), "names no longer in the tree: {stale:?}");
}

/// The number of `panic-hygiene` allow annotations in the real tree. The
/// count may only go down: lower this pin when a change removes some,
/// and return an error instead of annotating a new panic.
const PANIC_HYGIENE_ALLOWS: usize = 24;

#[test]
fn panic_hygiene_allows_only_go_down() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = vaq_lint::find_root(manifest).expect("workspace root above crates/lint");
    let files = vaq_lint::load_tree(&root).expect("tree should load");
    let allows = files
        .iter()
        .flat_map(|f| &f.allows)
        .filter(|a| matches!(a, Some(AllowParse::Ok(a)) if a.rule == PANIC_HYGIENE))
        .count();
    assert!(
        allows <= PANIC_HYGIENE_ALLOWS,
        "{allows} panic-hygiene allows, pinned at {PANIC_HYGIENE_ALLOWS}: \
         return an error instead of annotating a new panic"
    );
}
