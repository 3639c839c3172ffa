//! Zero-copy-style engine snapshots: build once, load many.
//!
//! Building the Voronoi substrate dominates cold-start time — the
//! Delaunay/regular triangulation is orders of magnitude more expensive
//! than any secondary index. A **snapshot** persists what a query reads
//! and a load cannot cheaply rebuild — the Voronoi graph, not the
//! triangle mesh it was built on — as flat little-endian POD arrays in a
//! versioned, checksummed, page-aligned container file, so a serving
//! process reaches its first answer by *reading* instead of
//! *rebuilding*. Loads hand the flat arrays straight back to
//! [`Triangulation::from_flat`] without per-element decoding and restore
//! the R-tree's node arena verbatim; the planner's density map and the
//! hidden-site index are rebuilt deterministically from the points and
//! the triangulation, so a loaded engine is **bit-identical** to a
//! freshly built one — same indices, same
//! [`QueryStats`](crate::QueryStats) work counters on every execution
//! path.
//!
//! # Container layout
//!
//! ```text
//! page 0 (4096 B)   header
//!   0   magic      u64   "VAQSNAP1" read as little-endian u64
//!   8   version    u32   SNAPSHOT_VERSION
//!   12  kind       u32   1 = plain, 2 = sharded, 3 = dynamic
//!   16  layout     u64   layout_fingerprint() of this build
//!   24  file_len   u64   total container size in bytes
//!   32  sections   u64   section count
//!   40  table_sum  u64   checksum64 of the section table bytes
//!   48  git_rev    24 B  zero-padded ASCII (save-time git revision)
//!   72  params     56 B  zero-padded ASCII (save-time build params)
//!   128 section table: per section {tag u64, offset u64, len u64,
//!       checksum u64} — offsets are 4096-aligned
//! page 1..         section payloads, each starting on a page boundary
//! ```
//!
//! Every section is independently checksummed; loads validate magic,
//! version, layout fingerprint, file length and all checksums before
//! touching a payload byte, and reject truncated or corrupted files
//! with a specific [`SnapshotError`]. The **layout fingerprint** hashes
//! a textual description of the flat layout — any change to the
//! serialized struct layouts changes the fingerprint, and a guard test
//! forces a [`SNAPSHOT_VERSION`] bump alongside it.
//!
//! # What is persisted per kind
//!
//! * **Plain** ([`AreaQueryEngine`]): points, the triangulation's flat
//!   arrays ([`TriangulationFlat`]: the adjacency CSR, hull, weights and
//!   hidden/anchor tables, plus the duplicate maps when inputs
//!   coincide), payload record pages, shard-boundary flags and the
//!   R-tree arena. The writer borrows the flat arrays through
//!   [`Triangulation::as_flat`]; it copies none of them. A load rebuilds
//!   the rest: the canonical site array (from the points), the planner's
//!   density map (from the points) and the hidden-site R-tree (from the
//!   hidden sites). The format stores no triangle mesh: no query reads
//!   one.
//! * **Sharded** ([`ShardedAreaQueryEngine`]): the kd-partition
//!   metadata (point count, diagram family, shard count) plus **one
//!   independently loadable section per shard** (its global-id table and
//!   a nested engine blob). The engine keeps no planner state, so there
//!   is no calibration to store.
//! * **Dynamic** ([`DynamicAreaQueryEngine`]): the base engine blob
//!   plus the overlay **as data** — the base id table, the live delta's
//!   `(id, point)` entries ascending by id, the tombstoned base ids and
//!   the id counter are stored and replayed on load, not re-executed as
//!   operations. The loader checks the overlay's id invariants: base ids
//!   strictly ascending, delta ids distinct from each other and from
//!   every base id, every tombstone naming a base or delta id, and the id
//!   counter above every assigned id. A tombstone naming a delta id is
//!   purged on load: the loader drops that delta entry. Earlier writers
//!   kept deleted delta points, tombstoned, until a purge; today's
//!   writer stores only live delta points and base tombstones. The
//!   section's layout is unchanged, so the format stays v5 and both kinds
//!   of v5 file load.

use crate::dynamic::DynamicAreaQueryEngine;
use crate::engine::AreaQueryEngine;
use crate::payload::RecordStore;
use crate::shard::ShardedAreaQueryEngine;
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use vaq_delaunay::{DiagramKind, Triangulation, TriangulationFlat};
use vaq_geom::Point;
use vaq_rtree::{RTree, RTreeRaw};

/// The container magic: the bytes `VAQSNAP1` read as a little-endian
/// `u64`. A byte-swapped magic identifies a container written on a
/// wrong-endian machine ([`SnapshotError::WrongEndian`]).
pub const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"VAQSNAP1");

/// Current container format version. Bump on **any** change to the
/// header, section or flat-array layouts (the layout-fingerprint guard
/// test enforces the coupling).
pub const SNAPSHOT_VERSION: u32 = 5;

/// Section payloads (and the first section) start on multiples of this.
pub const SNAPSHOT_PAGE: usize = 4096;

/// Size of the fixed header fields preceding the section table.
const HEADER_FIXED: usize = 128;
/// Bytes per section-table entry: tag, offset, len, checksum.
const TABLE_ENTRY: usize = 32;
/// Header bytes reserved for the save-time git revision (ASCII).
const GIT_REV_BYTES: usize = 24;
/// Header bytes reserved for the save-time build parameters (ASCII).
const PARAMS_BYTES: usize = 56;

/// Section tag: the plain engine blob.
const TAG_ENGINE: u64 = 0x01;
/// Section tag: the dynamic engine's base blob.
const TAG_DYN_BASE: u64 = 0x10;
/// Section tag: the dynamic engine's overlay (ids, delta, tombstones,
/// next id).
const TAG_DYN_OVERLAY: u64 = 0x11;
/// Section tag: the sharded engine's partition metadata.
const TAG_SH_META: u64 = 0x20;
/// Section tag base: shard `i` lives in section `TAG_SHARD + i`.
const TAG_SHARD: u64 = 0x1000;

/// A textual description of every serialized layout. The fingerprint in
/// the header is [`checksum64`] of this string, so any layout change —
/// reordering a field, widening a type, adding an array — changes the
/// fingerprint and old readers reject the file cleanly instead of
/// misparsing it. The guard test in this module pins the fingerprint:
/// editing this string (or the layouts it describes) without bumping
/// [`SNAPSHOT_VERSION`] fails the build's test suite.
const LAYOUT: &str = "vaq-snapshot layout v5:\
 header{magic:u64,version:u32,kind:u32,layout:u64,file_len:u64,sections:u64,\
table_sum:u64,git_rev:[u8;24],params:[u8;56]}\
 table{tag:u64,offset:u64,len:u64,checksum:u64}*\
 engine{points:[f64x2],tri?{canon_identity:u32,canon?:[u32],\
members_off?:[u32],members?:[u32],adj_off:[u32],adj:[u32],\
hull:[u32],degenerate:u32,weights:[f64],hidden:[u32],\
anchor:[u32]},records?{record_bytes:u64,data:[u8]},\
straddlers?:[u8],rtree{levels:[u32],entry_offsets:[u32],entry_children:[u32],\
inner_rects:[f64],root:u32,len:u64,max_entries:u32}}\
 dyn_overlay{base_ids:[u64],delta:[{id:u64,x:f64,y:f64}],tombstones:[u64],\
next_id:u64}\
 sh_meta{len:u64,diagram:u32,shard_count:u64}\
 shard{global:[u32],engine:[u8]}";

/// The layout fingerprint of this build: [`checksum64`] over the
/// private `LAYOUT` description string. Stored in every header; a
/// mismatch on load is rejected as [`SnapshotError::LayoutMismatch`].
pub fn layout_fingerprint() -> u64 {
    checksum64(LAYOUT.as_bytes())
}

/// The container's checksum: four independent rotate–xor–multiply lanes
/// over 32-byte blocks (so the mix keeps up with section payloads tens
/// of megabytes long), folded together and run over the sub-block tail
/// as 8-byte little-endian words, the last word zero-padded. The byte
/// length is mixed in at the end, so zero-padding cannot alias two
/// inputs.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes: [u64; 4] = [
        0x5641_5153_4E41_5031, // "VAQSNAP1"
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x2545_F491_4F6C_DD1D,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (lane, wb) in lanes.iter_mut().zip(b.chunks_exact(8)) {
            let w = u64::from_le_bytes(wb.try_into().expect("chunks_exact(8) yields 8 bytes"));
            *lane = (lane.rotate_left(5) ^ w).wrapping_mul(K);
        }
    }
    let [l0, l1, l2, l3] = lanes;
    let mut h = l0;
    for lane in [l1, l2, l3] {
        h = (h.rotate_left(17) ^ lane).wrapping_mul(K);
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    }
    (h ^ bytes.len() as u64).wrapping_mul(K)
}

/// Which engine shape a snapshot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// One [`AreaQueryEngine`].
    Plain,
    /// One [`ShardedAreaQueryEngine`].
    Sharded,
    /// One [`DynamicAreaQueryEngine`] (base + overlay).
    Dynamic,
}

impl SnapshotKind {
    fn code(self) -> u32 {
        match self {
            SnapshotKind::Plain => 1,
            SnapshotKind::Sharded => 2,
            SnapshotKind::Dynamic => 3,
        }
    }

    fn from_code(code: u32) -> Option<SnapshotKind> {
        match code {
            1 => Some(SnapshotKind::Plain),
            2 => Some(SnapshotKind::Sharded),
            3 => Some(SnapshotKind::Dynamic),
            _ => None,
        }
    }
}

impl fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotKind::Plain => "plain",
            SnapshotKind::Sharded => "sharded",
            SnapshotKind::Dynamic => "dynamic",
        })
    }
}

/// Everything that can go wrong saving or loading a snapshot. Every
/// variant renders a clean, specific diagnostic; corrupted or truncated
/// files never panic and never misparse.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file read/write failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic {
        /// The 8 bytes found where the magic should be.
        found: u64,
    },
    /// The magic matches byte-swapped: the file was written on a
    /// machine of the opposite endianness.
    WrongEndian,
    /// The container's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file's layout fingerprint differs from this build's — the
    /// flat layouts changed without a version bump, or the file is from
    /// an incompatible build.
    LayoutMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// This build's fingerprint.
        expected: u64,
    },
    /// The file is shorter than its header or section table claims.
    Truncated {
        /// Bytes the container claims to span.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section's stored checksum does not match its bytes (section
    /// tag `0` means the section table itself).
    ChecksumMismatch {
        /// Tag of the failing section (`0` = section table).
        section: u64,
        /// Checksum stored in the table.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// A section parsed but its contents violate the format (bad
    /// lengths, out-of-range codes, non-canonical structure).
    Malformed(String),
    /// The snapshot holds a different engine shape than the caller
    /// asked for.
    WrongKind {
        /// Kind stored in the file.
        found: SnapshotKind,
        /// Kind the caller requested.
        expected: SnapshotKind,
    },
    /// Sections are individually valid but mutually inconsistent
    /// (mismatched lengths, broken partition invariants).
    Inconsistent(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a vaq snapshot: bad magic {found:#018x}")
            }
            SnapshotError::WrongEndian => {
                write!(f, "snapshot was written on a different-endian machine")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::LayoutMismatch { found, expected } => write!(
                f,
                "snapshot layout fingerprint {found:#018x} does not match this \
build's {expected:#018x}"
            ),
            SnapshotError::Truncated { needed, actual } => write!(
                f,
                "snapshot truncated: container spans {needed} bytes but only {actual} \
are present"
            ),
            SnapshotError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => {
                if *section == 0 {
                    write!(
                        f,
                        "section table checksum mismatch: stored {stored:#018x}, \
computed {computed:#018x}"
                    )
                } else {
                    write!(
                        f,
                        "section {section:#x} checksum mismatch: stored {stored:#018x}, \
computed {computed:#018x}"
                    )
                }
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::WrongKind { found, expected } => write!(
                f,
                "snapshot holds a {found} engine but a {expected} engine was requested"
            ),
            SnapshotError::Inconsistent(what) => write!(f, "inconsistent snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Header-level facts about a snapshot, read without decoding any
/// section payload (see [`inspect`]).
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// The engine shape the container holds.
    pub kind: SnapshotKind,
    /// The container format version.
    pub version: u32,
    /// The git revision recorded at save time (`unknown` outside a
    /// work tree).
    pub git_revision: String,
    /// The build parameters recorded at save time.
    pub build_params: String,
    /// Total container size in bytes.
    pub file_len: u64,
    /// Number of sections.
    pub sections: usize,
}

/// Any engine loaded from a snapshot (see [`load`] / [`from_bytes`]).
// One value exists per load and it lives on the stack of the caller that
// immediately destructures it — the variant size gap never multiplies
// across a collection, so boxing would only add an indirection.
#[allow(clippy::large_enum_variant)]
pub enum LoadedEngine {
    /// A plain engine.
    Plain(AreaQueryEngine),
    /// A sharded engine.
    Sharded(ShardedAreaQueryEngine),
    /// A dynamic engine.
    Dynamic(DynamicAreaQueryEngine),
}

impl LoadedEngine {
    /// The shape of the loaded engine.
    pub fn kind(&self) -> SnapshotKind {
        match self {
            LoadedEngine::Plain(_) => SnapshotKind::Plain,
            LoadedEngine::Sharded(_) => SnapshotKind::Sharded,
            LoadedEngine::Dynamic(_) => SnapshotKind::Dynamic,
        }
    }
}

/// The git revision of the tree this process was started in, captured
/// at **save time** and embedded in the container header (provenance:
/// which code produced these flat arrays). `unknown` when the process
/// runs outside a git work tree.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build parameters of the writer, embedded in the container header
/// next to the git revision: crate version and compile profile.
fn build_params() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("pkg={} profile={}", env!("CARGO_PKG_VERSION"), profile)
}

fn align_page(n: usize) -> usize {
    n.div_ceil(SNAPSHOT_PAGE) * SNAPSHOT_PAGE
}

// ---------------------------------------------------------------------
// Section payload encoding: length-prefixed little-endian POD arrays.
// ---------------------------------------------------------------------

#[derive(Default)]
struct SecWriter {
    buf: Vec<u8>,
}

impl SecWriter {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    fn u32s(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.u32(x);
        }
    }

    fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    fn bools(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        self.buf.extend(v.iter().map(|&b| b as u8));
    }
}

struct SecReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SecReader<'a> {
    fn new(buf: &'a [u8]) -> SecReader<'a> {
        SecReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::Malformed("section payload underrun".to_string()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("take(4)")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("take(8)")))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("take(8)")))
    }

    /// Reads a length prefix and proves `len * elem_bytes` more payload
    /// bytes exist, so corrupted prefixes cannot trigger huge
    /// allocations.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| SnapshotError::Malformed("array length overflows usize".to_string()))?;
        let bytes = n
            .checked_mul(elem_bytes)
            .ok_or_else(|| SnapshotError::Malformed("array byte size overflows".to_string()))?;
        if bytes > self.buf.len() - self.pos {
            return Err(SnapshotError::Malformed(
                "array length exceeds section payload".to_string(),
            ));
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(1)?;
        self.take(n)
    }

    fn u32s(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.len(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
            .collect())
    }

    /// Bulk-decodes interleaved `x y` coordinate pairs; one streaming
    /// pass instead of two per-element reads per point.
    fn points(&mut self) -> Result<Vec<Point>, SnapshotError> {
        let n = self.len(16)?;
        let raw = self.take(n * 16)?;
        Ok(raw
            .chunks_exact(16)
            .map(|c| {
                let (x, y) = c.split_at(8);
                Point::new(
                    f64::from_le_bytes(x.try_into().expect("split_at(8) of a 16-byte chunk")),
                    f64::from_le_bytes(y.try_into().expect("split_at(8) of a 16-byte chunk")),
                )
            })
            .collect())
    }

    fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }

    fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }

    fn bools(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let n = self.len(1)?;
        let raw = self.take(n)?;
        raw.iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(SnapshotError::Malformed(format!(
                    "non-canonical bool byte {b:#04x}"
                ))),
            })
            .collect()
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes in section payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Container framing.
// ---------------------------------------------------------------------

struct ContainerWriter {
    kind: SnapshotKind,
    sections: Vec<(u64, Vec<u8>)>,
}

impl ContainerWriter {
    fn new(kind: SnapshotKind) -> ContainerWriter {
        ContainerWriter {
            kind,
            sections: Vec::new(),
        }
    }

    fn section(&mut self, tag: u64, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * TABLE_ENTRY;
        let mut offset = align_page(HEADER_FIXED + table_len);
        let mut table = Vec::with_capacity(table_len);
        let mut entries = Vec::with_capacity(self.sections.len());
        for (tag, payload) in &self.sections {
            entries.push((*tag, offset as u64, payload.len() as u64));
            table.extend_from_slice(&tag.to_le_bytes());
            table.extend_from_slice(&(offset as u64).to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&checksum64(payload).to_le_bytes());
            offset = align_page(offset + payload.len());
        }
        let file_len = offset;
        // The header fields are contiguous, so the file is written
        // append-only: each fixed field in order, zero padding up to the
        // next boundary, then the table and the page-aligned sections.
        let mut out = Vec::with_capacity(file_len);
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.code().to_le_bytes());
        out.extend_from_slice(&layout_fingerprint().to_le_bytes());
        out.extend_from_slice(&(file_len as u64).to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum64(&table).to_le_bytes());
        let rev = git_revision();
        let rev = rev.as_bytes();
        out.extend_from_slice(&rev[..rev.len().min(GIT_REV_BYTES)]);
        out.resize(HEADER_FIXED - PARAMS_BYTES, 0);
        let params = build_params();
        let params = params.as_bytes();
        out.extend_from_slice(&params[..params.len().min(PARAMS_BYTES)]);
        out.resize(HEADER_FIXED, 0);
        out.extend_from_slice(&table);
        for ((_, off, _), (_, payload)) in entries.iter().zip(&self.sections) {
            out.resize(*off as usize, 0);
            out.extend_from_slice(payload);
        }
        out.resize(file_len, 0);
        out
    }
}

struct Container<'a> {
    kind: SnapshotKind,
    version: u32,
    git_revision: String,
    build_params: String,
    file_len: u64,
    /// `(tag, payload)` in table order, checksums already verified.
    sections: Vec<(u64, &'a [u8])>,
}

impl<'a> Container<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Container<'a>, SnapshotError> {
        if bytes.len() < HEADER_FIXED {
            return Err(SnapshotError::Truncated {
                needed: HEADER_FIXED as u64,
                actual: bytes.len() as u64,
            });
        }
        let word =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        let half =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let magic = word(0);
        if magic != SNAPSHOT_MAGIC {
            if magic.swap_bytes() == SNAPSHOT_MAGIC {
                return Err(SnapshotError::WrongEndian);
            }
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = half(8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let fingerprint = word(16);
        if fingerprint != layout_fingerprint() {
            return Err(SnapshotError::LayoutMismatch {
                found: fingerprint,
                expected: layout_fingerprint(),
            });
        }
        let kind = SnapshotKind::from_code(half(12))
            .ok_or_else(|| SnapshotError::Malformed(format!("unknown kind code {}", half(12))))?;
        let file_len = word(24);
        if (bytes.len() as u64) < file_len {
            return Err(SnapshotError::Truncated {
                needed: file_len,
                actual: bytes.len() as u64,
            });
        }
        if (bytes.len() as u64) > file_len {
            return Err(SnapshotError::Malformed(format!(
                "{} bytes past the declared container end",
                bytes.len() as u64 - file_len
            )));
        }
        let n_sections: usize = word(32)
            .try_into()
            .map_err(|_| SnapshotError::Malformed("section count overflows usize".to_string()))?;
        let table_end = HEADER_FIXED
            .checked_add(n_sections.checked_mul(TABLE_ENTRY).ok_or_else(|| {
                SnapshotError::Malformed("section table size overflows".to_string())
            })?)
            .ok_or_else(|| SnapshotError::Malformed("section table size overflows".to_string()))?;
        if table_end as u64 > file_len {
            return Err(SnapshotError::Truncated {
                needed: table_end as u64,
                actual: file_len,
            });
        }
        let table = &bytes[HEADER_FIXED..table_end];
        let stored_table_sum = word(40);
        let computed_table_sum = checksum64(table);
        if stored_table_sum != computed_table_sum {
            return Err(SnapshotError::ChecksumMismatch {
                section: 0,
                stored: stored_table_sum,
                computed: computed_table_sum,
            });
        }
        let field = |s: &str, off: usize, len: usize| {
            let raw = &bytes[off..off + len];
            let end = raw.iter().position(|&b| b == 0).unwrap_or(len);
            std::str::from_utf8(&raw[..end])
                .map(str::to_string)
                .map_err(|_| SnapshotError::Malformed(format!("non-utf8 {s} header field")))
        };
        let git_rev = field("git revision", 48, GIT_REV_BYTES)?;
        let params = field("build params", 72, PARAMS_BYTES)?;
        let mut sections = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let base = HEADER_FIXED + i * TABLE_ENTRY;
            let tag = word(base);
            let offset = word(base + 8);
            let len = word(base + 16);
            let stored = word(base + 24);
            let end = offset.checked_add(len).ok_or_else(|| {
                SnapshotError::Malformed(format!("section {tag:#x} extent overflows"))
            })?;
            if end > file_len {
                return Err(SnapshotError::Truncated {
                    needed: end,
                    actual: file_len,
                });
            }
            let payload = &bytes[offset as usize..end as usize];
            let computed = checksum64(payload);
            if stored != computed {
                return Err(SnapshotError::ChecksumMismatch {
                    section: tag,
                    stored,
                    computed,
                });
            }
            sections.push((tag, payload));
        }
        Ok(Container {
            kind,
            version,
            git_revision: git_rev,
            build_params: params,
            file_len,
            sections,
        })
    }

    fn section(&self, tag: u64) -> Result<&'a [u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or_else(|| SnapshotError::Malformed(format!("missing section {tag:#x}")))
    }

    fn expect_kind(&self, expected: SnapshotKind) -> Result<(), SnapshotError> {
        if self.kind != expected {
            return Err(SnapshotError::WrongKind {
                found: self.kind,
                expected,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Engine blob: the plain engine's persisted state.
// ---------------------------------------------------------------------

fn encode_engine(engine: &AreaQueryEngine) -> Vec<u8> {
    let mut w = SecWriter::default();
    w.u64(engine.points.len() as u64);
    for p in &engine.points {
        w.f64(p.x);
        w.f64(p.y);
    }
    match engine.tri.as_ref() {
        Some(tri) => {
            w.u32(1);
            let flat = tri.as_flat();
            // The triangulation's site array is not stored: it holds the
            // first occurrence of every distinct input point, in input
            // order, which a load re-derives from the engine's points.
            // With no coincident input points the canonical map and the
            // members CSR are all identity permutations — the common
            // case. A flag replaces three `n`-length arrays, and a load
            // regenerates them faster than it could read them.
            let n = flat.pts.len();
            let identity = flat.canon.len() == n
                && flat.members.len() == n
                && flat.members_off.len() == n + 1
                && flat.canon.iter().enumerate().all(|(i, &c)| c == i as u32)
                && flat
                    .members_off
                    .iter()
                    .enumerate()
                    .all(|(i, &o)| o == i as u32)
                && flat.members.iter().enumerate().all(|(i, &m)| m == i as u32);
            w.u32(identity as u32);
            if !identity {
                w.u32s(&flat.canon);
                w.u32s(&flat.members_off);
                w.u32s(&flat.members);
            }
            w.u32s(&flat.adj_off);
            w.u32s(&flat.adj);
            w.u32s(&flat.hull);
            w.u32(flat.degenerate as u32);
            w.f64s(&flat.weights);
            w.u32s(&flat.hidden);
            w.u32s(&flat.anchor);
        }
        None => w.u32(0),
    }
    match engine.records.as_ref() {
        Some(rs) => {
            w.u32(1);
            w.u64(rs.record_bytes() as u64);
            w.bytes(rs.raw_bytes());
        }
        None => w.u32(0),
    }
    match engine.boundary_straddlers.as_ref() {
        Some(s) => {
            w.u32(1);
            w.bools(s);
        }
        None => w.u32(0),
    }
    // The R-tree arena, flattened. Persisting it (rather than paying the
    // STR bulk load again) is most of the cold-start win; leaf MBRs are
    // degenerate point rects, so only internal rectangles are stored.
    let raw = engine.rtree().raw_parts();
    w.u32s(&raw.levels);
    w.u32s(&raw.entry_offsets);
    w.u32s(&raw.entry_children);
    w.f64s(&raw.inner_rects);
    w.u32(raw.root);
    w.u64(raw.len);
    w.u32(raw.max_entries);
    w.buf
}

fn decode_engine(payload: &[u8]) -> Result<AreaQueryEngine, SnapshotError> {
    let mut r = SecReader::new(payload);
    let points = r.points()?;
    let n_points = points.len();
    let tri = match r.u32()? {
        0 => None,
        1 => {
            let (pts, canon, members_off, members) = match r.u32()? {
                0 => {
                    let (canon, members_off, members) = (r.u32s()?, r.u32s()?, r.u32s()?);
                    if canon.len() != n_points {
                        return Err(SnapshotError::Inconsistent(format!(
                            "canonical map covers {} inputs but the engine holds {n_points} points",
                            canon.len()
                        )));
                    }
                    let pts = canonical_sites(&points, &members_off, &members)?;
                    (pts, canon, members_off, members)
                }
                1 => {
                    let n = points.len() as u32;
                    let identity = (0..n).collect();
                    (
                        points.clone(),
                        identity,
                        (0..=n).collect(),
                        (0..n).collect(),
                    )
                }
                f => {
                    return Err(SnapshotError::Malformed(format!(
                        "non-canonical identity flag {f}"
                    )))
                }
            };
            let flat = TriangulationFlat {
                pts,
                canon,
                members_off,
                members,
                adj_off: r.u32s()?,
                adj: r.u32s()?,
                hull: r.u32s()?,
                degenerate: match r.u32()? {
                    0 => false,
                    1 => true,
                    d => {
                        return Err(SnapshotError::Malformed(format!(
                            "non-canonical degenerate flag {d}"
                        )))
                    }
                },
                weights: r.f64s()?,
                hidden: r.u32s()?,
                anchor: r.u32s()?,
            };
            Some(Triangulation::from_flat(flat).map_err(SnapshotError::Malformed)?)
        }
        f => {
            return Err(SnapshotError::Malformed(format!(
                "non-canonical triangulation flag {f}"
            )))
        }
    };
    let records = match r.u32()? {
        0 => None,
        1 => {
            let record_bytes: usize = r
                .u64()?
                .try_into()
                .map_err(|_| SnapshotError::Malformed("record size overflows usize".to_string()))?;
            let data = r.bytes()?.to_vec();
            if record_bytes == 0 || n_points.checked_mul(record_bytes) != Some(data.len()) {
                return Err(SnapshotError::Inconsistent(format!(
                    "record store holds {} bytes, expected {} records x {} bytes",
                    data.len(),
                    n_points,
                    record_bytes
                )));
            }
            Some(RecordStore::from_raw(data, record_bytes))
        }
        f => {
            return Err(SnapshotError::Malformed(format!(
                "non-canonical record flag {f}"
            )))
        }
    };
    let boundary_straddlers = match r.u32()? {
        0 => None,
        1 => Some(r.bools()?),
        f => {
            return Err(SnapshotError::Malformed(format!(
                "non-canonical straddler flag {f}"
            )))
        }
    };
    // The search reads one flag per vertex and treats a missing one as
    // "not a straddler", so a short array would silently switch off the
    // shard-boundary fallback.
    let vertices = tri.as_ref().map_or(0, Triangulation::vertex_count);
    if let Some(flags) = boundary_straddlers.as_ref().filter(|f| f.len() != vertices) {
        return Err(SnapshotError::Inconsistent(format!(
            "{} shard-boundary flags for {vertices} vertices",
            flags.len()
        )));
    }
    let raw = RTreeRaw {
        levels: r.u32s()?,
        entry_offsets: r.u32s()?,
        entry_children: r.u32s()?,
        inner_rects: r.f64s()?,
        root: r.u32()?,
        len: r.u64()?,
        max_entries: r.u32()?,
    };
    r.finish()?;
    let rtree = RTree::from_raw(raw, &points).map_err(SnapshotError::Malformed)?;
    if rtree.len() != n_points {
        return Err(SnapshotError::Inconsistent(format!(
            "rtree indexes {} points but the engine holds {n_points}",
            rtree.len()
        )));
    }
    Ok(AreaQueryEngine::assemble(
        points,
        tri,
        records,
        boundary_straddlers,
        Some(rtree),
    ))
}

/// The canonical site array of a triangulation whose inputs coincide:
/// vertex `v` sits at the coordinates of its first member input (the
/// triangulation keeps the first occurrence of every distinct point, and
/// each members-CSR row is ascending). Rows must be non-empty and in
/// bounds; `Triangulation::from_flat` checks the CSR shape afterwards.
fn canonical_sites(
    points: &[Point],
    members_off: &[u32],
    members: &[u32],
) -> Result<Vec<Point>, SnapshotError> {
    members_off
        .iter()
        .zip(members_off.iter().skip(1))
        .enumerate()
        .map(|(v, (&lo, &hi))| {
            (lo < hi)
                .then(|| members.get(lo as usize))
                .flatten()
                .and_then(|&i| points.get(i as usize))
                .copied()
                .ok_or_else(|| {
                    SnapshotError::Malformed(format!(
                        "canonical vertex {v} has no member input in range"
                    ))
                })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Public save/load surface.
// ---------------------------------------------------------------------

/// Serializes a plain engine into an in-memory container.
pub fn engine_to_bytes(engine: &AreaQueryEngine) -> Vec<u8> {
    let mut c = ContainerWriter::new(SnapshotKind::Plain);
    c.section(TAG_ENGINE, encode_engine(engine));
    c.finish()
}

/// Serializes a dynamic engine (base + overlay) into an in-memory
/// container.
pub fn dynamic_to_bytes(engine: &DynamicAreaQueryEngine) -> Vec<u8> {
    let (base, base_ids, delta, tombstones, next_id) = engine.snapshot_parts();
    let mut c = ContainerWriter::new(SnapshotKind::Dynamic);
    c.section(TAG_DYN_BASE, encode_engine(base));
    let mut w = SecWriter::default();
    w.u64s(base_ids);
    w.u64(delta.len() as u64);
    for (id, p) in delta {
        w.u64(id);
        w.f64(p.x);
        w.f64(p.y);
    }
    w.u64s(&tombstones);
    w.u64(next_id);
    c.section(TAG_DYN_OVERLAY, w.buf);
    c.finish()
}

/// Serializes a sharded engine into an in-memory container: partition
/// metadata plus one independently checksummed section per shard.
pub fn sharded_to_bytes(engine: &ShardedAreaQueryEngine) -> Vec<u8> {
    let (shards, len, diagram) = engine.snapshot_parts();
    let mut c = ContainerWriter::new(SnapshotKind::Sharded);
    let mut m = SecWriter::default();
    m.u64(len as u64);
    m.u32(match diagram {
        DiagramKind::Euclidean => 0,
        DiagramKind::Power => 1,
    });
    m.u64(shards.len() as u64);
    c.section(TAG_SH_META, m.buf);
    for (i, shard) in shards.iter().enumerate() {
        let mut w = SecWriter::default();
        w.u32s(&shard.global);
        w.bytes(&encode_engine(&shard.engine));
        c.section(TAG_SHARD + i as u64, w.buf);
    }
    c.finish()
}

/// Deserializes a plain engine from container bytes.
pub fn engine_from_bytes(bytes: &[u8]) -> Result<AreaQueryEngine, SnapshotError> {
    let c = Container::parse(bytes)?;
    c.expect_kind(SnapshotKind::Plain)?;
    decode_engine(c.section(TAG_ENGINE)?)
}

/// Deserializes a dynamic engine from container bytes. The overlay is
/// replayed as data: delta, tombstones and the id counter resume
/// exactly where the saved engine stood, less the delta entries that a
/// tombstone names (see the module doc).
pub fn dynamic_from_bytes(bytes: &[u8]) -> Result<DynamicAreaQueryEngine, SnapshotError> {
    let c = Container::parse(bytes)?;
    c.expect_kind(SnapshotKind::Dynamic)?;
    let base = decode_engine(c.section(TAG_DYN_BASE)?)?;
    let mut r = SecReader::new(c.section(TAG_DYN_OVERLAY)?);
    let base_ids = r.u64s()?;
    let n_delta = r.len(24)?;
    let mut delta = Vec::with_capacity(n_delta);
    for _ in 0..n_delta {
        let id = r.u64()?;
        let x = r.f64()?;
        let y = r.f64()?;
        delta.push((id, Point::new(x, y)));
    }
    let tombs = r.u64s()?;
    let next_id = r.u64()?;
    r.finish()?;
    if base_ids.len() != base.len() {
        return Err(SnapshotError::Inconsistent(format!(
            "{} base ids for a {}-point base engine",
            base_ids.len(),
            base.len()
        )));
    }
    // vaq-lint: allow(panic-hygiene) -- windows(2) yields exactly two elements
    if !base_ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(SnapshotError::Malformed(
            "base ids are not strictly ascending".to_string(),
        ));
    }
    // Every id names one point: delta ids are distinct from each other
    // and from every base id (sorted, so a binary search each), and
    // every tombstone masks a base or delta id. Without these checks a
    // query reports an id twice, and the live count underflows.
    let mut delta_ids: HashSet<u64> = HashSet::with_capacity(delta.len());
    for &(id, _) in &delta {
        if base_ids.binary_search(&id).is_ok() || !delta_ids.insert(id) {
            return Err(SnapshotError::Inconsistent(format!(
                "id {id} is assigned to more than one point"
            )));
        }
    }
    if let Some(&id) = tombs
        .iter()
        .find(|&&id| base_ids.binary_search(&id).is_err() && !delta_ids.contains(&id))
    {
        return Err(SnapshotError::Inconsistent(format!(
            "tombstone {id} names no base or delta point"
        )));
    }
    let ceiling = base_ids
        .iter()
        .chain(delta.iter().map(|(id, _)| id))
        .max()
        .copied();
    if let Some(max_id) = ceiling {
        if next_id <= max_id {
            return Err(SnapshotError::Inconsistent(format!(
                "next id {next_id} does not exceed the largest assigned id {max_id}"
            )));
        }
    }
    // Tombstones become base flags; one naming a delta id drops the entry.
    let mut dead = vec![false; base_ids.len()];
    for id in tombs {
        if let Ok(i) = base_ids.binary_search(&id) {
            dead[i] = true;
        } else {
            delta_ids.remove(&id);
        }
    }
    delta.retain(|(id, _)| delta_ids.contains(id));
    Ok(DynamicAreaQueryEngine::from_parts(
        base, base_ids, dead, delta, next_id,
    ))
}

/// Deserializes a sharded engine from container bytes. Shard MBRs and
/// the density map are recomputed from the shard point sets
/// (deterministically, so they match the built engine's bit for bit).
pub fn sharded_from_bytes(bytes: &[u8]) -> Result<ShardedAreaQueryEngine, SnapshotError> {
    let c = Container::parse(bytes)?;
    c.expect_kind(SnapshotKind::Sharded)?;
    let mut m = SecReader::new(c.section(TAG_SH_META)?);
    let len: usize = m
        .u64()?
        .try_into()
        .map_err(|_| SnapshotError::Malformed("point count overflows usize".to_string()))?;
    let diagram = match m.u32()? {
        0 => DiagramKind::Euclidean,
        1 => DiagramKind::Power,
        d => {
            return Err(SnapshotError::Malformed(format!(
                "unknown diagram kind code {d}"
            )))
        }
    };
    let shard_count: usize = m
        .u64()?
        .try_into()
        .map_err(|_| SnapshotError::Malformed("shard count overflows usize".to_string()))?;
    m.finish()?;
    // Both counts are checked against data that is already in memory
    // before anything is sized by them: each shard has its own section,
    // and the shards' global ids must add up to the point count.
    if shard_count >= c.sections.len() {
        return Err(SnapshotError::Malformed(format!(
            "{shard_count} shards declared in a container of {} sections",
            c.sections.len()
        )));
    }
    let mut shards = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let mut r = SecReader::new(c.section(TAG_SHARD + i as u64)?);
        let global = r.u32s()?;
        let engine = decode_engine(r.bytes()?)?;
        r.finish()?;
        if global.len() != engine.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "shard {i} maps {} global ids onto {} points",
                global.len(),
                engine.len()
            )));
        }
        shards.push((engine, global));
    }
    let total: usize = shards.iter().map(|(_, global)| global.len()).sum();
    if total != len {
        return Err(SnapshotError::Inconsistent(format!(
            "shards hold {total} points, the metadata declares {len}"
        )));
    }
    // `len` ids, each in range and none repeated, cover every point.
    let mut covered = vec![false; len];
    for (i, (_, global)) in shards.iter().enumerate() {
        for &g in global {
            let slot = covered.get_mut(g as usize).ok_or_else(|| {
                SnapshotError::Inconsistent(format!(
                    "shard {i} global id {g} out of range for {len} points"
                ))
            })?;
            if *slot {
                return Err(SnapshotError::Inconsistent(format!(
                    "global id {g} appears in more than one shard"
                )));
            }
            *slot = true;
        }
    }
    Ok(ShardedAreaQueryEngine::from_snapshot_parts(
        shards, len, diagram,
    ))
}

/// Deserializes whichever engine shape the container holds.
pub fn from_bytes(bytes: &[u8]) -> Result<LoadedEngine, SnapshotError> {
    let kind = Container::parse(bytes)?.kind;
    match kind {
        SnapshotKind::Plain => engine_from_bytes(bytes).map(LoadedEngine::Plain),
        SnapshotKind::Sharded => sharded_from_bytes(bytes).map(LoadedEngine::Sharded),
        SnapshotKind::Dynamic => dynamic_from_bytes(bytes).map(LoadedEngine::Dynamic),
    }
}

/// Reads a snapshot's header facts without decoding any section.
pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let c = Container::parse(bytes)?;
    Ok(SnapshotInfo {
        kind: c.kind,
        version: c.version,
        git_revision: c.git_revision,
        build_params: c.build_params,
        file_len: c.file_len,
        sections: c.sections.len(),
    })
}

/// Saves a plain engine to `path`.
pub fn save_engine(engine: &AreaQueryEngine, path: &Path) -> Result<(), SnapshotError> {
    Ok(std::fs::write(path, engine_to_bytes(engine))?)
}

/// Saves a dynamic engine to `path`.
pub fn save_dynamic(engine: &DynamicAreaQueryEngine, path: &Path) -> Result<(), SnapshotError> {
    Ok(std::fs::write(path, dynamic_to_bytes(engine))?)
}

/// Saves a sharded engine to `path`.
pub fn save_sharded(engine: &ShardedAreaQueryEngine, path: &Path) -> Result<(), SnapshotError> {
    Ok(std::fs::write(path, sharded_to_bytes(engine))?)
}

/// Loads a plain engine from `path`.
pub fn load_engine(path: &Path) -> Result<AreaQueryEngine, SnapshotError> {
    engine_from_bytes(&std::fs::read(path)?)
}

/// Loads a dynamic engine from `path`.
pub fn load_dynamic(path: &Path) -> Result<DynamicAreaQueryEngine, SnapshotError> {
    dynamic_from_bytes(&std::fs::read(path)?)
}

/// Loads a sharded engine from `path`.
pub fn load_sharded(path: &Path) -> Result<ShardedAreaQueryEngine, SnapshotError> {
    sharded_from_bytes(&std::fs::read(path)?)
}

/// Loads whichever engine shape the snapshot at `path` holds.
pub fn load(path: &Path) -> Result<LoadedEngine, SnapshotError> {
    from_bytes(&std::fs::read(path)?)
}

/// Reads the header facts of the snapshot at `path`.
pub fn inspect(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    inspect_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::Rect;

    #[test]
    fn checksum_distinguishes_length_and_content() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"\0"), checksum64(b"\0\0"));
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgi"));
        assert_eq!(checksum64(b"vaqsnap"), checksum64(b"vaqsnap"));
    }

    #[test]
    fn magic_reads_as_its_ascii_bytes() {
        assert_eq!(&SNAPSHOT_MAGIC.to_le_bytes(), b"VAQSNAP1");
    }

    /// Guards the flat-layout/version coupling: any change to [`LAYOUT`]
    /// (which must accompany any change to the serialized struct
    /// layouts) moves the fingerprint and fails here. When that is
    /// intentional, bump [`SNAPSHOT_VERSION`] and re-pin both constants
    /// below — old containers must be rejected, not misparsed.
    #[test]
    fn layout_fingerprint_is_pinned_to_the_version() {
        assert_eq!(
            SNAPSHOT_VERSION, 5,
            "version changed: re-pin the fingerprint"
        );
        assert_eq!(
            layout_fingerprint(),
            0xd76c_eb21_51c7_cd98,
            "flat layout changed: bump SNAPSHOT_VERSION and re-pin this fingerprint"
        );
    }

    /// Hand-builds a dynamic container over a base of `base` points (ids
    /// `0..base.len()`), with the given delta entries, tombstones and
    /// next id — no engine operation could produce an inconsistent one.
    fn crafted_overlay(
        base: &[Point],
        delta: &[(u64, Point)],
        tombs: &[u64],
        next_id: u64,
    ) -> Vec<u8> {
        let mut c = ContainerWriter::new(SnapshotKind::Dynamic);
        c.section(TAG_DYN_BASE, encode_engine(&AreaQueryEngine::build(base)));
        let mut w = SecWriter::default();
        w.u64s(&(0..base.len() as u64).collect::<Vec<u64>>());
        w.u64(delta.len() as u64);
        for &(id, p) in delta {
            w.u64(id);
            w.f64(p.x);
            w.f64(p.y);
        }
        w.u64s(tombs);
        w.u64(next_id);
        c.section(TAG_DYN_OVERLAY, w.buf);
        c.finish()
    }

    fn assert_inconsistent(bytes: &[u8], what: &str) {
        match dynamic_from_bytes(bytes) {
            Err(SnapshotError::Inconsistent(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(e) => panic!("expected an inconsistent-overlay error, got {e}"),
            Ok(_) => panic!("an overlay with a colliding or dangling id ({what}) loaded"),
        }
    }

    fn three_points() -> [Point; 3] {
        [
            Point::new(0.1, 0.1),
            Point::new(0.5, 0.5),
            Point::new(0.9, 0.8),
        ]
    }

    /// A tombstone must mask a base or delta point; an empty base with
    /// tombstone 5 would report a live count of `0 − 1`.
    #[test]
    fn tombstone_naming_no_point_is_rejected() {
        assert_inconsistent(&crafted_overlay(&[], &[], &[5], 6), "tombstone 5");
        // Tombstones over a base id and a delta id are fine; the delta
        // entry a tombstone names is dropped on load.
        let delta = [(3, Point::new(0.3, 0.3))];
        let ok = dynamic_from_bytes(&crafted_overlay(&three_points(), &delta, &[1, 3], 4))
            .expect("tombstones naming live ids load");
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.delta_len(), 0);
    }

    /// A removed delta point leaves no tombstone: an engine whose removes
    /// all hit delta ids, filed or pending, saves an empty tombstone list
    /// and loads with the same live set.
    #[test]
    fn delta_only_removes_save_no_tombstones() {
        let mut engine = DynamicAreaQueryEngine::new(&three_points());
        let mut ids: Vec<u64> = (1..=4)
            .map(|i| engine.insert(Point::new(0.2 * f64::from(i), 0.3)))
            .collect();
        let everything = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert_eq!(engine.query(&everything).len(), 7, "files the delta");
        ids.push(engine.insert(Point::new(0.6, 0.6)));
        for id in [ids[0], ids[3], ids[4]] {
            assert!(engine.remove(id));
        }
        let bytes = dynamic_to_bytes(&engine);
        let c = Container::parse(&bytes).expect("parses");
        let mut r = SecReader::new(c.section(TAG_DYN_OVERLAY).expect("has an overlay"));
        assert_eq!(r.u64s().expect("base ids"), vec![0, 1, 2]);
        let n_delta = r.len(24).expect("delta length");
        let delta: Vec<u64> = (0..n_delta)
            .map(|_| {
                let id = r.u64().expect("id");
                let _ = (r.f64(), r.f64());
                id
            })
            .collect();
        assert_eq!(delta, vec![ids[1], ids[2]], "live delta ids, ascending");
        assert!(r.u64s().expect("tombstones").is_empty());
        let mut loaded = dynamic_from_bytes(&bytes).expect("loads");
        assert_eq!((loaded.len(), loaded.delta_len()), (5, 2));
        assert_eq!(loaded.query(&everything), engine.query(&everything));
    }

    /// A delta id must not reuse a base id; a whole-area query would
    /// report id 1 twice.
    #[test]
    fn delta_id_reusing_a_base_id_is_rejected() {
        let base = three_points();
        let reused = [(1, Point::new(0.3, 0.3))];
        assert_inconsistent(&crafted_overlay(&base, &reused, &[], 3), "id 1");
        let fresh = [(3, Point::new(0.3, 0.3))];
        let ok = dynamic_from_bytes(&crafted_overlay(&base, &fresh, &[], 4))
            .expect("a fresh delta id loads");
        assert_eq!(ok.len(), 4);
    }

    /// Delta ids must be distinct; both entries with id 7 would answer,
    /// and removing id 7 would leave `len() == 1` with nothing live.
    #[test]
    fn duplicate_delta_ids_are_rejected() {
        let twice = [(7, Point::new(0.2, 0.2)), (7, Point::new(0.4, 0.4))];
        assert_inconsistent(&crafted_overlay(&[], &twice, &[], 8), "id 7");
        let distinct = [(7, Point::new(0.2, 0.2)), (8, Point::new(0.4, 0.4))];
        let ok = dynamic_from_bytes(&crafted_overlay(&[], &distinct, &[], 9))
            .expect("distinct delta ids load");
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn plain_round_trip_preserves_answers() {
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64 * 1.5))
            .collect();
        let engine = AreaQueryEngine::build(&pts);
        let bytes = engine_to_bytes(&engine);
        let loaded = engine_from_bytes(&bytes).expect("round trip");
        assert_eq!(loaded.len(), engine.len());
        let area = Rect::new(Point::new(1.5, 0.5), Point::new(6.5, 9.0));
        let spec = crate::QuerySpec::voronoi();
        assert_eq!(
            loaded
                .execute(&spec, &area)
                .result()
                .unwrap()
                .sorted_indices(),
            engine
                .execute(&spec, &area)
                .result()
                .unwrap()
                .sorted_indices()
        );
        let info = inspect_bytes(&bytes).expect("inspect");
        assert_eq!(info.kind, SnapshotKind::Plain);
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.file_len as usize, bytes.len());
        assert!(info.build_params.contains("pkg="));
    }

    /// The file keeps only what a query reads and a load cannot cheaply
    /// rebuild. A plain engine over uniform points stores 16 B of
    /// coordinates, about 28 B of adjacency CSR and about 7 B of R-tree
    /// arena per point; a triangle mesh (48 B per point) or any other
    /// derivable array would break the bound.
    #[test]
    fn plain_snapshot_stores_no_derivable_arrays() {
        let mut rng = StdRng::seed_from_u64(20_000);
        let pts: Vec<Point> = (0..20_000)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let bytes = encode_engine(&AreaQueryEngine::build(&pts)).len();
        let per_point = bytes as f64 / pts.len() as f64;
        assert!(
            per_point <= 56.0,
            "{per_point:.2} bytes per point in the engine blob"
        );
    }

    /// A shard-boundary flag array must hold one flag per vertex: a
    /// shorter or longer one is rejected, on a shard and on a plain
    /// engine alike.
    #[test]
    fn straddler_flag_count_must_match_the_vertices() {
        let pts: Vec<Point> = (0..100)
            .map(|i| {
                Point::new(
                    f64::from(i % 10),
                    f64::from(i / 10) + 0.01 * f64::from(i % 7),
                )
            })
            .collect();
        let mut engine = AreaQueryEngine::build(&pts);
        let vertices = engine.triangulation().unwrap().vertex_count();
        for flags in [3, vertices - 1, vertices + 1] {
            engine.boundary_straddlers = Some(vec![true; flags]);
            assert!(
                matches!(
                    decode_engine(&encode_engine(&engine)),
                    Err(SnapshotError::Inconsistent(_))
                ),
                "{flags} flags for {vertices} vertices"
            );
        }
        engine.boundary_straddlers = Some(vec![true; vertices]);
        assert!(decode_engine(&encode_engine(&engine)).is_ok());
        let mut empty = AreaQueryEngine::build(&[]);
        empty.boundary_straddlers = Some(vec![false; 5]);
        assert!(matches!(
            decode_engine(&encode_engine(&empty)),
            Err(SnapshotError::Inconsistent(_))
        ));
    }

    #[test]
    fn sections_are_page_aligned() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(i as f64, (i * 7 % 13) as f64))
            .collect();
        let bytes = engine_to_bytes(&AreaQueryEngine::build(&pts));
        assert_eq!(bytes.len() % SNAPSHOT_PAGE, 0);
        let c = Container::parse(&bytes).expect("parse");
        for (tag, payload) in &c.sections {
            let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
            assert_eq!(offset % SNAPSHOT_PAGE, 0, "section {tag:#x} unaligned");
        }
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new(i as f64, (i * i) as f64))
            .collect();
        let bytes = engine_to_bytes(&AreaQueryEngine::build(&pts));

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            engine_from_bytes(&bad),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut swapped = bytes.clone();
        swapped[0..8].reverse();
        assert!(matches!(
            engine_from_bytes(&swapped),
            Err(SnapshotError::WrongEndian)
        ));

        // The previous format version and a future one are both refused.
        for version in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                engine_from_bytes(&other),
                Err(SnapshotError::UnsupportedVersion { found, .. }) if found == version
            ));
        }

        let mut other_layout = bytes.clone();
        other_layout[16] ^= 0x01;
        assert!(matches!(
            engine_from_bytes(&other_layout),
            Err(SnapshotError::LayoutMismatch { .. })
        ));

        assert!(matches!(
            engine_from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));

        let c = Container::parse(&bytes).expect("clean parse");
        let (tag, payload) = c.sections[0];
        let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
        let mut flipped = bytes.clone();
        flipped[offset + payload.len() / 2] ^= 0x01;
        match engine_from_bytes(&flipped) {
            Err(SnapshotError::ChecksumMismatch { section, .. }) => assert_eq!(section, tag),
            Err(e) => panic!("expected ChecksumMismatch, got {e}"),
            Ok(_) => panic!("flipped payload byte must not load"),
        }
    }

    #[test]
    fn wrong_kind_is_reported() {
        let pts: Vec<Point> = (0..25).map(|i| Point::new(i as f64, 1.0)).collect();
        let bytes = engine_to_bytes(&AreaQueryEngine::build(&pts));
        match sharded_from_bytes(&bytes) {
            Err(SnapshotError::WrongKind { found, expected }) => {
                assert_eq!(found, SnapshotKind::Plain);
                assert_eq!(expected, SnapshotKind::Sharded);
            }
            other => panic!(
                "expected WrongKind, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    }

    #[test]
    fn errors_render_clean_diagnostics() {
        let msgs = [
            SnapshotError::BadMagic { found: 1 }.to_string(),
            SnapshotError::WrongEndian.to_string(),
            SnapshotError::UnsupportedVersion {
                found: 9,
                supported: SNAPSHOT_VERSION,
            }
            .to_string(),
            SnapshotError::Truncated {
                needed: 8192,
                actual: 100,
            }
            .to_string(),
            SnapshotError::ChecksumMismatch {
                section: TAG_ENGINE,
                stored: 1,
                computed: 2,
            }
            .to_string(),
            SnapshotError::WrongKind {
                found: SnapshotKind::Dynamic,
                expected: SnapshotKind::Plain,
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
            assert!(!m.contains("Error("), "debug leak in {m}");
        }
        assert!(msgs[3].contains("8192"));
        assert!(msgs[5].contains("dynamic"));
    }
}
