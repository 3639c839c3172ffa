//! Differential suite for the snapshot subsystem: an engine loaded from
//! a container must be **bit-identical** to the freshly built one — same
//! sorted indices *and* the same full `QueryStats` — on every execution
//! path (plain session, batch executor, dynamic overlay, sharded fan-out)
//! under both Euclidean and power diagrams. Plus the corruption matrix:
//! truncation at every section boundary, flipped payload and table bytes,
//! version and endianness mismatches must all surface as clean
//! `SnapshotError`s, never as garbage engines.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use voronoi_area_query::core::snapshot::{
    self, checksum64, SnapshotError, SnapshotKind, SNAPSHOT_PAGE, SNAPSHOT_VERSION,
};
use voronoi_area_query::core::{
    AreaQueryEngine, DynamicAreaQueryEngine, ExpansionPolicy, OutputMode, PrepareMode, QueryArea,
    QueryMethod, QuerySpec, ShardedAreaQueryEngine,
};
use voronoi_area_query::delaunay::DiagramKind;
use voronoi_area_query::geom::{Point, Polygon, Rect, Region};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn oracle_sorted(single: &AreaQueryEngine, area: &dyn QueryArea) -> Vec<u32> {
    single
        .execute(&QuerySpec::brute_force(), area)
        .into_result()
        .expect("collect output")
        .sorted_indices()
}

/// Weights that force a genuine power diagram: mostly mild variation,
/// with a handful of dominant sites heavy enough to hide close
/// neighbours (exercising the hidden-site index on both sides).
fn power_weights(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i % 37 == 0 {
                0.02
            } else {
                1e-4 * ((i % 11) as f64)
            }
        })
        .collect()
}

/// The full `QuerySpec` grid the engines must agree on.
fn spec_grid() -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for method in [
        QueryMethod::Voronoi,
        QueryMethod::Traditional,
        QueryMethod::BruteForce,
    ] {
        for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
            for prepare in [
                PrepareMode::Raw,
                PrepareMode::PrepareOnce,
                PrepareMode::Cached,
            ] {
                specs.push(
                    QuerySpec::new()
                        .method(method)
                        .policy(policy)
                        .prepare(prepare)
                        .output(OutputMode::Collect),
                );
            }
        }
    }
    specs
}

/// Runs the spec grid through fresh sessions on both engines and demands
/// identical indices and **fully identical** `QueryStats` — including
/// candidate, predicate, hidden-site and prepared-cache counters. Both
/// sessions execute the same sequence from a cold start, so even the
/// cache traffic must line up bit for bit.
fn assert_plain_identical(
    fresh: &AreaQueryEngine,
    loaded: &AreaQueryEngine,
    area: &dyn QueryArea,
    context: &str,
) {
    assert_eq!(fresh.len(), loaded.len(), "{context}: point count");
    assert_eq!(
        fresh.diagram_kind(),
        loaded.diagram_kind(),
        "{context}: diagram kind"
    );
    let want = oracle_sorted(fresh, area);
    let mut fresh_session = fresh.session();
    let mut loaded_session = loaded.session();
    for spec in spec_grid() {
        let ctx = format!("{context}: {spec:?}");
        let a = fresh_session.execute(&spec, area);
        let b = loaded_session.execute(&spec, area);
        let ra = a.result().expect("collect output");
        let rb = b.result().expect("collect output");
        assert_eq!(ra.sorted_indices(), want, "{ctx} (fresh vs oracle)");
        assert_eq!(ra.sorted_indices(), rb.sorted_indices(), "{ctx} (indices)");
        assert_eq!(a.stats(), b.stats(), "{ctx} (full QueryStats)");
        let ca = fresh_session.execute(&spec.output(OutputMode::Count), area);
        let cb = loaded_session.execute(&spec.output(OutputMode::Count), area);
        assert_eq!(ca.count(), want.len(), "{ctx} (count mode)");
        assert_eq!(ca.stats(), cb.stats(), "{ctx} (count stats)");
    }
}

/// Same contract for the sharded engine: indices, count, the aggregate
/// stats and the per-shard breakdown all identical between a freshly
/// built engine and its snapshot round trip.
fn assert_sharded_identical<A: QueryArea + Sync>(
    fresh: &ShardedAreaQueryEngine,
    loaded: &ShardedAreaQueryEngine,
    area: &A,
    context: &str,
) {
    assert_eq!(fresh.len(), loaded.len(), "{context}: point count");
    assert_eq!(
        fresh.shard_count(),
        loaded.shard_count(),
        "{context}: shard count"
    );
    assert_eq!(
        fresh.shard_mbrs(),
        loaded.shard_mbrs(),
        "{context}: shard MBRs"
    );
    assert_eq!(
        fresh.shard_sizes(),
        loaded.shard_sizes(),
        "{context}: shard sizes"
    );
    for spec in spec_grid() {
        let ctx = format!("{context}: {spec:?}");
        let a = fresh.execute(&spec, area);
        let b = loaded.execute(&spec, area);
        assert_eq!(a.indices, b.indices, "{ctx} (indices)");
        assert_eq!(a.count, b.count, "{ctx} (count)");
        assert_eq!(a.stats, b.stats, "{ctx} (aggregate stats)");
        assert_eq!(
            a.breakdown.len(),
            b.breakdown.len(),
            "{ctx} (breakdown arity)"
        );
        for (sa, sb) in a.breakdown.iter().zip(&b.breakdown) {
            assert_eq!(sa.shard, sb.shard, "{ctx} (breakdown shard)");
            assert_eq!(sa.stats, sb.stats, "{ctx} (breakdown stats)");
        }
    }
}

fn star(seed: u64, size: f64) -> Polygon {
    random_query_polygon(&unit_space(), &PolygonSpec::with_query_size(size), seed)
}

// ---------------------------------------------------------------------
// Bit-identity: plain engine, Euclidean and power.
// ---------------------------------------------------------------------

#[test]
fn plain_euclidean_roundtrip_is_bit_identical() {
    let pts = generate(400, Distribution::Uniform, 0x5AFE);
    let fresh = AreaQueryEngine::build(&pts);
    let bytes = snapshot::engine_to_bytes(&fresh);
    let loaded = snapshot::engine_from_bytes(&bytes).expect("round trip");
    assert_eq!(loaded.diagram_kind(), DiagramKind::Euclidean);
    for (i, seed) in [0x10u64, 0x11, 0x12].iter().enumerate() {
        let area = star(*seed, 0.08);
        assert_plain_identical(&fresh, &loaded, &area, &format!("euclidean star {i}"));
    }
    let window = Rect::new(p(0.15, 0.2), p(0.7, 0.75));
    assert_plain_identical(&fresh, &loaded, &window, "euclidean window");
    let outer = Polygon::new(vec![p(0.1, 0.1), p(0.9, 0.15), p(0.85, 0.9), p(0.12, 0.8)]).unwrap();
    let hole = Polygon::new(vec![p(0.4, 0.4), p(0.6, 0.42), p(0.58, 0.6), p(0.42, 0.58)]).unwrap();
    let region = Region::new(outer, vec![hole]);
    assert_plain_identical(&fresh, &loaded, &region, "euclidean region with hole");
}

#[test]
fn plain_power_roundtrip_is_bit_identical() {
    let pts = generate(
        380,
        Distribution::Clustered {
            clusters: 6,
            sigma: 0.04,
        },
        0xBEEF,
    );
    let weights = power_weights(pts.len());
    let fresh = AreaQueryEngine::build_weighted(&pts, &weights);
    assert_eq!(fresh.diagram_kind(), DiagramKind::Power);
    let bytes = snapshot::engine_to_bytes(&fresh);
    let loaded = snapshot::engine_from_bytes(&bytes).expect("round trip");
    assert_eq!(loaded.diagram_kind(), DiagramKind::Power);
    for (i, seed) in [0x21u64, 0x22].iter().enumerate() {
        let area = star(*seed, 0.1);
        assert_plain_identical(&fresh, &loaded, &area, &format!("power star {i}"));
    }
    let window = Rect::new(p(0.05, 0.05), p(0.95, 0.5));
    assert_plain_identical(&fresh, &loaded, &window, "power window");
}

#[test]
fn payload_records_survive_the_roundtrip() {
    let pts = generate(250, Distribution::Uniform, 0xFEED);
    let fresh = AreaQueryEngine::builder(&pts).payload_bytes(64).build();
    let bytes = snapshot::engine_to_bytes(&fresh);
    let loaded = snapshot::engine_from_bytes(&bytes).expect("round trip");
    let a = fresh.record_store().expect("fresh store");
    let b = loaded.record_store().expect("loaded store");
    assert_eq!(a.record_bytes(), b.record_bytes());
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() as u32 {
        assert_eq!(a.read(i), b.read(i), "record {i} digest");
    }
    // Materialized queries ride the restored store identically.
    let area = star(0x31, 0.12);
    let spec = QuerySpec::voronoi().output(OutputMode::Materialize);
    let out_a = fresh.session().execute(&spec, &area);
    let out_b = loaded.session().execute(&spec, &area);
    assert_eq!(
        out_a.result().unwrap().sorted_indices(),
        out_b.result().unwrap().sorted_indices()
    );
    assert_eq!(out_a.stats(), out_b.stats());
}

// ---------------------------------------------------------------------
// Bit-identity: batch executor.
// ---------------------------------------------------------------------

#[test]
fn batch_execution_is_bit_identical_after_load() {
    let pts = generate(420, Distribution::Uniform, 0xBA7C);
    let fresh = AreaQueryEngine::build(&pts);
    let loaded =
        snapshot::engine_from_bytes(&snapshot::engine_to_bytes(&fresh)).expect("round trip");
    let areas: Vec<Polygon> = (0..8).map(|i| star(0x40 + i, 0.07)).collect();
    for workers in [1usize, 3] {
        let outs_a = fresh.execute_batch(&QuerySpec::voronoi(), &areas, workers);
        let outs_b = loaded.execute_batch(&QuerySpec::voronoi(), &areas, workers);
        assert_eq!(outs_a.len(), outs_b.len());
        for (i, (a, b)) in outs_a.iter().zip(&outs_b).enumerate() {
            assert_eq!(
                a.result().unwrap().sorted_indices(),
                b.result().unwrap().sorted_indices(),
                "batch area {i}, workers {workers}"
            );
            assert_eq!(a.stats(), b.stats(), "batch area {i} stats");
        }
    }
}

// ---------------------------------------------------------------------
// Bit-identity: dynamic engine with a live overlay.
// ---------------------------------------------------------------------

#[test]
fn dynamic_overlay_roundtrip_is_bit_identical() {
    let pts = generate(300, Distribution::Uniform, 0xD1A);
    let mut fresh = DynamicAreaQueryEngine::new(&pts);
    // Mutate: inserts, removes of base and delta ids, so the saved
    // overlay carries live delta points, filed by a query and still
    // pending, and base tombstones; a removed delta point leaves none.
    let a = fresh.insert(p(0.101, 0.202));
    fresh.insert(p(0.303, 0.404));
    fresh.insert(p(0.505, 0.606));
    fresh.query(&star(0x50, 0.1)); // files the delta so far
    assert!(fresh.remove(a));
    assert!(fresh.remove(7)); // a base id
    assert!(fresh.remove(11)); // another base id
    fresh.insert(p(0.202, 0.303)); // pending from here on
    fresh.insert(p(1.2, -0.1)); // outside the base's bounds

    let bytes = snapshot::dynamic_to_bytes(&fresh);
    let mut loaded = snapshot::dynamic_from_bytes(&bytes).expect("round trip");
    assert_eq!(loaded.len(), fresh.len());
    assert_eq!(
        snapshot::dynamic_to_bytes(&loaded),
        bytes,
        "the loaded engine, its delta all filed, saves the same bytes"
    );

    for (i, seed) in [0x51u64, 0x52, 0x53].iter().enumerate() {
        let area = star(*seed, 0.1);
        let ids_a = fresh.query(&area);
        let ids_b = loaded.query(&area);
        assert_eq!(ids_a, ids_b, "dynamic query ids, area {i}");
        for method in [QueryMethod::Voronoi, QueryMethod::Traditional] {
            let spec = QuerySpec::new().method(method);
            let ra = fresh.execute(&spec, &area);
            let rb = loaded.execute(&spec, &area);
            assert_eq!(ra.ids, rb.ids, "dynamic {method:?} ids, area {i}");
            assert_eq!(ra.stats, rb.stats, "dynamic {method:?} stats, area {i}");
        }
    }

    // New ids minted after the round trip must not collide.
    let na = fresh.insert(p(0.707, 0.808));
    let nb = loaded.insert(p(0.707, 0.808));
    assert_eq!(na, nb, "next_id restored exactly");
}

// ---------------------------------------------------------------------
// Bit-identity: sharded engine, Euclidean and power, with payloads.
// ---------------------------------------------------------------------

#[test]
fn sharded_roundtrip_is_bit_identical() {
    let pts = generate(500, Distribution::Uniform, 0x5AAD);
    for shards in [1usize, 5] {
        let fresh = ShardedAreaQueryEngine::build(&pts, shards);
        let loaded =
            snapshot::sharded_from_bytes(&snapshot::sharded_to_bytes(&fresh)).expect("round trip");
        for (i, seed) in [0x61u64, 0x62].iter().enumerate() {
            let area = star(*seed, 0.08);
            assert_sharded_identical(
                &fresh,
                &loaded,
                &area,
                &format!("sharded S={shards} star {i}"),
            );
        }
        let window = Rect::new(p(0.45, 0.05), p(0.55, 0.95)); // crosses splits
        assert_sharded_identical(
            &fresh,
            &loaded,
            &window,
            &format!("sharded S={shards} thin"),
        );
    }
}

#[test]
fn sharded_weighted_payload_roundtrip_is_bit_identical() {
    let pts = generate(
        360,
        Distribution::Clustered {
            clusters: 5,
            sigma: 0.05,
        },
        0xC0C0A,
    );
    let weights = power_weights(pts.len());
    let fresh = AreaQueryEngine::builder(&pts)
        .weights(&weights)
        .payload_bytes(32)
        .build_sharded(4);
    assert_eq!(fresh.diagram_kind(), DiagramKind::Power);
    assert_eq!(fresh.payload_record_bytes(), Some(32));
    let loaded =
        snapshot::sharded_from_bytes(&snapshot::sharded_to_bytes(&fresh)).expect("round trip");
    assert_eq!(loaded.diagram_kind(), DiagramKind::Power);
    assert_eq!(loaded.payload_record_bytes(), Some(32));
    for (i, seed) in [0x71u64, 0x72].iter().enumerate() {
        let area = star(*seed, 0.1);
        assert_sharded_identical(&fresh, &loaded, &area, &format!("sharded power {i}"));
    }
}

// ---------------------------------------------------------------------
// Bit-identity: coincident input points on every engine kind. The
// triangulation merges coincident inputs, so its site array is shorter
// than the engine's point array and the snapshot must not assume they
// are the same array.
// ---------------------------------------------------------------------

/// `n` uniform points followed by a copy of every 40th one and a third
/// copy of point 0.
fn with_repeats(n: usize, seed: u64) -> Vec<Point> {
    let mut pts = generate(n, Distribution::Uniform, seed);
    let copies: Vec<Point> = pts.iter().step_by(40).copied().collect();
    pts.extend(copies);
    pts.push(pts[0]);
    pts
}

#[test]
fn coincident_points_plain_roundtrip_is_bit_identical() {
    let pts = with_repeats(400, 0xD0B1);
    let weights = power_weights(pts.len());
    for fresh in [
        AreaQueryEngine::build(&pts),
        AreaQueryEngine::build_weighted(&pts, &weights),
    ] {
        let kind = fresh.diagram_kind();
        let bytes = snapshot::engine_to_bytes(&fresh);
        let loaded = snapshot::engine_from_bytes(&bytes).expect("round trip");
        for (i, seed) in [0x81u64, 0x82].iter().enumerate() {
            let area = star(*seed, 0.1);
            assert_plain_identical(&fresh, &loaded, &area, &format!("{kind:?} star {i}"));
        }
        let all = Rect::new(p(0.0, 0.0), p(1.0, 1.0));
        assert_plain_identical(&fresh, &loaded, &all, &format!("{kind:?} everything"));
    }
}

#[test]
fn coincident_points_dynamic_roundtrip_is_bit_identical() {
    let pts = with_repeats(300, 0xD0B2);
    let mut fresh = DynamicAreaQueryEngine::new(&pts);
    fresh.insert(pts[5]); // a delta point coincident with a base point
    assert!(fresh.remove(3));
    let bytes = snapshot::dynamic_to_bytes(&fresh);
    let mut loaded = snapshot::dynamic_from_bytes(&bytes).expect("round trip");
    for (i, seed) in [0x91u64, 0x92].iter().enumerate() {
        let area = star(*seed, 0.1);
        for method in [
            QueryMethod::Voronoi,
            QueryMethod::Traditional,
            QueryMethod::BruteForce,
        ] {
            let spec = QuerySpec::new().method(method);
            let ra = fresh.execute(&spec, &area);
            let rb = loaded.execute(&spec, &area);
            assert_eq!(ra.ids, rb.ids, "dynamic {method:?} ids, area {i}");
            assert_eq!(ra.stats, rb.stats, "dynamic {method:?} stats, area {i}");
        }
    }
}

#[test]
fn coincident_points_sharded_roundtrip_is_bit_identical() {
    let pts = with_repeats(400, 0xD0B3);
    let fresh = ShardedAreaQueryEngine::build(&pts, 4);
    let loaded =
        snapshot::sharded_from_bytes(&snapshot::sharded_to_bytes(&fresh)).expect("round trip");
    for (i, seed) in [0xA1u64, 0xA2].iter().enumerate() {
        let area = star(*seed, 0.1);
        assert_sharded_identical(&fresh, &loaded, &area, &format!("coincident star {i}"));
    }
    let all = Rect::new(p(0.0, 0.0), p(1.0, 1.0));
    assert_sharded_identical(&fresh, &loaded, &all, "coincident everything");
}

// ---------------------------------------------------------------------
// The typed-kind funnel.
// ---------------------------------------------------------------------

#[test]
fn from_bytes_dispatches_on_kind_and_typed_loads_reject_mismatches() {
    let pts = generate(120, Distribution::Uniform, 0x99);
    let plain = snapshot::engine_to_bytes(&AreaQueryEngine::build(&pts));
    let sharded = snapshot::sharded_to_bytes(&ShardedAreaQueryEngine::build(&pts, 3));
    assert_eq!(
        snapshot::from_bytes(&plain).expect("plain").kind(),
        SnapshotKind::Plain
    );
    assert_eq!(
        snapshot::from_bytes(&sharded).expect("sharded").kind(),
        SnapshotKind::Sharded
    );
    match snapshot::engine_from_bytes(&sharded) {
        Err(SnapshotError::WrongKind { found, expected }) => {
            assert_eq!(found, SnapshotKind::Sharded);
            assert_eq!(expected, SnapshotKind::Plain);
        }
        Err(e) => panic!("expected WrongKind, got {e}"),
        Ok(_) => panic!("sharded bytes decoded as a plain engine"),
    }
    let info = snapshot::inspect_bytes(&plain).expect("inspect");
    assert_eq!(info.kind, SnapshotKind::Plain);
    assert_eq!(info.version, SNAPSHOT_VERSION);
    assert_eq!(info.file_len as usize, plain.len());
    assert!(info.sections >= 1);
    assert!(!info.build_params.is_empty());
}

// ---------------------------------------------------------------------
// Corruption matrix. The on-disk layout is pinned by
// `layout_fingerprint`, so the tests may parse the section table
// directly: entries of 32 bytes (tag, offset, len, checksum) at 128.
// ---------------------------------------------------------------------

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// (tag, offset, len) for every section in the container.
fn section_table(bytes: &[u8]) -> Vec<(u64, usize, usize)> {
    let count = u64_at(bytes, 32) as usize;
    (0..count)
        .map(|i| {
            let e = 128 + 32 * i;
            (
                u64_at(bytes, e),
                u64_at(bytes, e + 8) as usize,
                u64_at(bytes, e + 16) as usize,
            )
        })
        .collect()
}

fn sample_container() -> Vec<u8> {
    let pts = generate(260, Distribution::Uniform, 0xC0FFEE);
    let weights = power_weights(pts.len());
    snapshot::sharded_to_bytes(
        &AreaQueryEngine::builder(&pts)
            .weights(&weights)
            .payload_bytes(16)
            .build_sharded(3),
    )
}

#[test]
fn truncation_at_every_section_boundary_is_a_clean_error() {
    let bytes = sample_container();
    let mut cuts: Vec<usize> = vec![0, 1, 64, 127, 128];
    for (_, offset, len) in section_table(&bytes) {
        cuts.push(offset);
        cuts.push(offset + len / 2);
        cuts.push(offset + len);
    }
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let cut = cut.min(bytes.len() - 1);
        match snapshot::from_bytes(&bytes[..cut]) {
            Err(SnapshotError::Truncated { needed, actual }) => {
                assert_eq!(actual as usize, cut, "cut at {cut}");
                assert!(needed as usize > cut, "cut at {cut}");
            }
            Err(e) => panic!("cut at {cut}: expected Truncated, got {e}"),
            Ok(_) => panic!("cut at {cut}: truncated container loaded"),
        }
    }
}

#[test]
fn flipped_byte_in_every_section_is_a_checksum_mismatch() {
    let bytes = sample_container();
    for (tag, offset, len) in section_table(&bytes) {
        let mut evil = bytes.clone();
        evil[offset + len / 2] ^= 0x40;
        match snapshot::from_bytes(&evil) {
            Err(SnapshotError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, tag, "flip inside section {tag:#x}");
            }
            Err(e) => panic!("section {tag:#x}: expected ChecksumMismatch, got {e}"),
            Ok(_) => panic!("section {tag:#x}: corrupted payload loaded"),
        }
    }
}

#[test]
fn flipped_table_byte_is_a_table_checksum_mismatch() {
    let mut bytes = sample_container();
    bytes[128 + 8] ^= 0x01; // first entry's offset field
    match snapshot::from_bytes(&bytes) {
        Err(SnapshotError::ChecksumMismatch { section, .. }) => {
            assert_eq!(section, 0, "the table reports as section 0");
        }
        Err(e) => panic!("expected table ChecksumMismatch, got {e}"),
        Ok(_) => panic!("corrupted section table loaded"),
    }
}

#[test]
fn version_and_endianness_mismatches_are_rejected() {
    let mut versioned = sample_container();
    let bumped = (SNAPSHOT_VERSION + 1).to_le_bytes();
    versioned[8..12].copy_from_slice(&bumped);
    match snapshot::from_bytes(&versioned) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        Err(e) => panic!("expected UnsupportedVersion, got {e}"),
        Ok(_) => panic!("future-versioned container loaded"),
    }

    let mut swapped = sample_container();
    swapped[0..8].reverse(); // a big-endian writer's magic
    assert!(matches!(
        snapshot::from_bytes(&swapped),
        Err(SnapshotError::WrongEndian)
    ));

    let mut garbage = sample_container();
    garbage[0..8].copy_from_slice(b"NOTASNAP");
    assert!(matches!(
        snapshot::from_bytes(&garbage),
        Err(SnapshotError::BadMagic { .. })
    ));
}

/// Overwrites the `u64` at byte `at` of section `tag`, then re-seals the
/// section and table checksums: a crafted file, not an accident.
fn reseal_u64(bytes: &mut [u8], tag: u64, at: usize, value: u64) {
    let table = section_table(bytes);
    let i = table.iter().position(|&(t, _, _)| t == tag).unwrap();
    let (_, offset, len) = table[i];
    bytes[offset + at..offset + at + 8].copy_from_slice(&value.to_le_bytes());
    let sum = checksum64(&bytes[offset..offset + len]);
    bytes[128 + 32 * i + 24..128 + 32 * i + 32].copy_from_slice(&sum.to_le_bytes());
    let sum = checksum64(&bytes[128..128 + 32 * table.len()]);
    bytes[40..48].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn crafted_length_fields_are_typed_errors() {
    let expect_typed = |bytes: &[u8], what: &str| match snapshot::from_bytes(bytes) {
        Err(SnapshotError::Malformed(_) | SnapshotError::Inconsistent(_)) => {}
        Err(e) => panic!("{what}: expected Malformed or Inconsistent, got {e}"),
        Ok(_) => panic!("{what}: crafted container loaded"),
    };
    // sh_meta{len:u64, diagram:u32, shard_count:u64}: neither count may
    // size an allocation before it is checked.
    for (at, value, what) in [(0, 1u64 << 62, "point count"), (12, 1 << 40, "shard count")] {
        let mut evil = sample_container();
        reseal_u64(&mut evil, 0x20, at, value);
        expect_typed(&evil, what);
    }
    // A 4-point engine with 16-byte records: 4 x (2^62 + 16) wraps to 64,
    // the true data length, so only a checked product catches it.
    let pts = [p(0.1, 0.1), p(0.9, 0.2), p(0.5, 0.9), p(0.4, 0.4)];
    let mut evil =
        snapshot::engine_to_bytes(&AreaQueryEngine::builder(&pts).payload_bytes(16).build());
    let (_, offset, len) = section_table(&evil)[0];
    // records{flag:u32 = 1, record_bytes:u64 = 16, data:[u8] of 64}
    let marker: Vec<u8> = [
        &1u32.to_le_bytes()[..],
        &16u64.to_le_bytes(),
        &64u64.to_le_bytes(),
    ]
    .concat();
    let at = evil[offset..offset + len]
        .windows(marker.len())
        .position(|w| w == marker.as_slice())
        .unwrap();
    reseal_u64(&mut evil, 0x01, at + 4, (1 << 62) + 16);
    expect_typed(&evil, "record size");
}

// ---------------------------------------------------------------------
// The file API runs the byte API's code over a buffered file: the same
// bytes out, the same errors back.
// ---------------------------------------------------------------------

/// A snapshot file under the system temp dir, removed on drop.
struct TempSnap(PathBuf);

impl TempSnap {
    fn new(tag: &str) -> TempSnap {
        let name = format!("vaq-snapshot-test-{tag}-{}.snap", std::process::id());
        TempSnap(std::env::temp_dir().join(name))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn holding(self, bytes: &[u8]) -> TempSnap {
        std::fs::write(&self.0, bytes).unwrap();
        self
    }

    fn bytes(&self) -> Vec<u8> {
        std::fs::read(&self.0).unwrap()
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A power-diagram plain engine with payload records.
fn power_payload_engine() -> AreaQueryEngine {
    let pts = generate(
        320,
        Distribution::Clustered {
            clusters: 4,
            sigma: 0.05,
        },
        0xF11E,
    );
    let engine = AreaQueryEngine::builder(&pts)
        .weights(&power_weights(pts.len()))
        .payload_bytes(24)
        .build();
    assert_eq!(engine.diagram_kind(), DiagramKind::Power);
    engine
}

/// A dynamic engine whose overlay holds filed and pending delta points
/// and base tombstones.
fn churned_dynamic_engine() -> DynamicAreaQueryEngine {
    let mut engine = DynamicAreaQueryEngine::new(&generate(280, Distribution::Uniform, 0xF12));
    let gone = engine.insert(p(0.11, 0.22));
    engine.insert(p(0.33, 0.44));
    engine.query(&star(0xF3, 0.1)); // files the delta so far
    engine.insert(p(0.55, 0.66)); // pending from here on
    assert!(engine.remove(gone));
    assert!(engine.remove(5)); // a base id
    assert!(engine.remove(9)); // another base id
    engine
}

#[test]
fn saved_files_hold_exactly_the_container_bytes() {
    let plain = power_payload_engine();
    let file = TempSnap::new("save-plain");
    snapshot::save_engine(&plain, file.path()).expect("save");
    let bytes = snapshot::engine_to_bytes(&plain);
    assert_eq!(file.bytes(), bytes, "plain");
    let loaded = snapshot::load_engine(file.path()).expect("load");
    assert_eq!(snapshot::engine_to_bytes(&loaded), bytes, "plain reload");

    let dynamic = churned_dynamic_engine();
    let file = TempSnap::new("save-dynamic");
    snapshot::save_dynamic(&dynamic, file.path()).expect("save");
    let bytes = snapshot::dynamic_to_bytes(&dynamic);
    assert_eq!(file.bytes(), bytes, "dynamic");
    let loaded = snapshot::load_dynamic(file.path()).expect("load");
    assert_eq!(snapshot::dynamic_to_bytes(&loaded), bytes, "dynamic reload");

    let sharded = ShardedAreaQueryEngine::build(&with_repeats(400, 0xF14), 4);
    let file = TempSnap::new("save-sharded");
    snapshot::save_sharded(&sharded, file.path()).expect("save");
    let bytes = snapshot::sharded_to_bytes(&sharded);
    assert_eq!(file.bytes(), bytes, "sharded");
    let loaded = snapshot::load_sharded(file.path()).expect("load");
    assert_eq!(snapshot::sharded_to_bytes(&loaded), bytes, "sharded reload");
    let info = snapshot::inspect(file.path()).expect("inspect");
    assert_eq!(info.kind, SnapshotKind::Sharded);
    assert_eq!(info.file_len as usize, bytes.len());
    assert_eq!(info.sections, 5);
}

/// Loads `evil` through every file entry point and its byte twin; each
/// pair must fail, with the same error.
fn assert_file_errors_match_bytes(evil: &[u8], what: &str) {
    let file = TempSnap::new(&format!("errors-{}", what.replace(' ', "-"))).holding(evil);
    let path = file.path();
    let err = |r: Result<(), SnapshotError>| match r {
        Err(e) => e.to_string(),
        Ok(()) => panic!("{what}: a corrupted container loaded"),
    };
    let pairs = [
        (
            err(snapshot::load_engine(path).map(drop)),
            err(snapshot::engine_from_bytes(evil).map(drop)),
        ),
        (
            err(snapshot::load_dynamic(path).map(drop)),
            err(snapshot::dynamic_from_bytes(evil).map(drop)),
        ),
        (
            err(snapshot::load_sharded(path).map(drop)),
            err(snapshot::sharded_from_bytes(evil).map(drop)),
        ),
        (
            err(snapshot::load(path).map(drop)),
            err(snapshot::from_bytes(evil).map(drop)),
        ),
        (
            err(snapshot::inspect(path).map(drop)),
            err(snapshot::inspect_bytes(evil).map(drop)),
        ),
    ];
    for (from_file, from_bytes) in pairs {
        assert_eq!(from_file, from_bytes, "{what}");
    }
}

#[test]
fn file_loads_fail_like_byte_loads() {
    let containers = [
        ("plain", snapshot::engine_to_bytes(&power_payload_engine())),
        (
            "dynamic",
            snapshot::dynamic_to_bytes(&churned_dynamic_engine()),
        ),
        ("sharded", sample_container()),
    ];
    for (kind, bytes) in &containers {
        let mut cuts: Vec<usize> = vec![0, 1, 127, 128];
        for (_, offset, len) in section_table(bytes) {
            cuts.extend([offset, offset + len / 2, offset + len]);
        }
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            let cut = cut.min(bytes.len() - 1);
            assert_file_errors_match_bytes(&bytes[..cut], &format!("{kind} cut at {cut}"));
        }
        for (tag, offset, len) in section_table(bytes) {
            let mut evil = bytes.clone();
            evil[offset + len / 2] ^= 0x40;
            assert_file_errors_match_bytes(&evil, &format!("{kind} flip in {tag:#x}"));
        }
    }
}

#[test]
fn length_prefix_past_its_section_is_malformed_on_the_file_path() {
    let expect_overrun =
        |evil: &[u8], what: &str, load: &dyn Fn(&Path) -> Option<SnapshotError>| {
            let file = TempSnap::new(what).holding(evil);
            match load(file.path()) {
                Some(SnapshotError::Malformed(msg)) => {
                    assert!(msg.contains("exceeds section payload"), "{what}: {msg}")
                }
                Some(e) => panic!("{what}: expected Malformed, got {e}"),
                None => panic!("{what}: crafted container loaded"),
            }
        };
    // engine{points:[f64x2], ...}: the point count opens the section.
    let mut plain = snapshot::engine_to_bytes(&power_payload_engine());
    reseal_u64(&mut plain, 0x01, 0, 1 << 40);
    expect_overrun(&plain, "point-count", &|path| {
        snapshot::load_engine(path).err()
    });
    // shard{global:[u32], engine:[u8]}: the nested blob's length follows
    // the global ids.
    let mut sharded = sample_container();
    let (_, offset, len) = section_table(&sharded)[1];
    let globals = u64_at(&sharded, offset) as usize;
    reseal_u64(&mut sharded, 0x1000, 8 + 4 * globals, len as u64);
    expect_overrun(&sharded, "shard-blob-length", &|path| {
        snapshot::load_sharded(path).err()
    });
}

#[test]
fn checksum64_separates_close_inputs() {
    assert_ne!(checksum64(b""), checksum64(&[0]));
    assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgi"));
    assert_eq!(checksum64(b"vaq"), checksum64(b"vaq"));
}

// ---------------------------------------------------------------------
// Property: load(save(engine)) answers match the membership oracle.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random point sets and query areas: a plain engine rebuilt from
    /// its own snapshot answers exactly the brute-force membership
    /// oracle, Euclidean and power alike.
    #[test]
    fn loaded_engines_match_the_membership_oracle(
        seed in 0u64..100_000,
        n in 30usize..220,
        weighted in 0u32..2,
        qs_mil in 10u32..220,
    ) {
        let pts = generate(n, Distribution::Uniform, seed);
        let fresh = if weighted == 1 {
            AreaQueryEngine::build_weighted(&pts, &power_weights(n))
        } else {
            AreaQueryEngine::build(&pts)
        };
        let loaded =
            snapshot::engine_from_bytes(&snapshot::engine_to_bytes(&fresh)).expect("round trip");
        let area = random_query_polygon(
            &unit_space(),
            &PolygonSpec::with_query_size(f64::from(qs_mil) / 1000.0),
            seed ^ 0x5EED,
        );
        let want = oracle_sorted(&fresh, &area);
        let got = loaded.session().execute(&QuerySpec::voronoi(), &area);
        prop_assert_eq!(got.result().unwrap().sorted_indices(), want.clone());
        let trad = loaded.session().execute(&QuerySpec::traditional(), &area);
        prop_assert_eq!(trad.result().unwrap().sorted_indices(), want);
    }

    /// Random sharded engines survive the round trip with identical
    /// answers and aggregate counters.
    #[test]
    fn loaded_sharded_engines_match_fresh_builds(
        seed in 0u64..100_000,
        n in 30usize..200,
        shards in 1usize..9,
    ) {
        let pts = generate(n, Distribution::Uniform, seed);
        let fresh = ShardedAreaQueryEngine::build(&pts, shards);
        let loaded = snapshot::sharded_from_bytes(&snapshot::sharded_to_bytes(&fresh))
            .expect("round trip");
        let area = random_query_polygon(
            &unit_space(),
            &PolygonSpec::with_query_size(0.12),
            seed ^ 0xA5A5,
        );
        let a = fresh.execute(&QuerySpec::new(), &area);
        let b = loaded.execute(&QuerySpec::new(), &area);
        prop_assert_eq!(a.indices, b.indices);
        prop_assert_eq!(a.stats, b.stats);
    }
}

// Container geometry sanity rides the differential suite too: every
// section offset the table declares must be page-aligned.
#[test]
fn declared_section_offsets_are_page_aligned() {
    let bytes = sample_container();
    assert_eq!(bytes.len() % SNAPSHOT_PAGE, 0, "file is page-padded");
    for (tag, offset, _) in section_table(&bytes) {
        assert_eq!(offset % SNAPSHOT_PAGE, 0, "section {tag:#x} alignment");
    }
}
