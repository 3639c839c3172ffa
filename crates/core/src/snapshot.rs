//! Engine snapshots: build once, load many.
//!
//! Building the Voronoi substrate dominates cold-start time — the
//! Delaunay/regular triangulation is orders of magnitude more expensive
//! than any secondary index. A **snapshot** persists what a query reads
//! and a load cannot cheaply rebuild — the Voronoi graph, not the
//! triangle mesh it was built on — as flat little-endian POD arrays in a
//! versioned, checksummed, page-aligned container file, so a serving
//! process reaches its first answer by *reading* instead of
//! *rebuilding*. Loads decode the flat arrays into their typed vectors
//! and hand them to [`Triangulation::from_flat`]; the R-tree, the
//! planner's density map and the hidden-site index are rebuilt
//! deterministically from the points and the triangulation, so a
//! loaded engine is **bit-identical** to a freshly built one — same
//! indices, same [`QueryStats`](crate::QueryStats) work counters on
//! every execution path.
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
//! # Streaming
//!
//! Saves and loads move one section at a time through fixed buffers;
//! neither holds a copy of the file or a buffer that grows with the
//! engine.
//!
//! * **Writing** takes any `Write + Seek`. The writer reserves the
//!   header page, streams each section to its page-aligned offset
//!   through the streaming form of [`checksum64`], then seeks back and
//!   writes the section table and the header. A shard's nested engine
//!   blob is length-prefixed; the prefix comes from a counting pass of
//!   the same encoder.
//! * **Reading** takes any `Read + Seek` and makes two passes. The first
//!   reads the header and the table, runs every check above in a fixed
//!   order and checksums every section. The second decodes each section
//!   from a bounded reader (`Read::take`), checking each length prefix
//!   against the bytes left in its section before allocating. The
//!   passes read the same bytes only if the file does not change in
//!   between, so serve a snapshot once its save has returned.
//! * **One code path.** The file API ([`save_engine`], [`load_engine`],
//!   [`load`], [`inspect`] and kin) runs it over a buffered file, the
//!   byte API ([`engine_to_bytes`], [`engine_from_bytes`],
//!   [`inspect_bytes`] and kin) over an in-memory cursor, so both write
//!   and accept the same bytes.
//!
//! # What is persisted per kind
//!
//! * **Plain** ([`AreaQueryEngine`]): points, the triangulation's graph
//!   arrays ([`TriangulationFlat`]: the adjacency CSR, hull, weights,
//!   hidden sites and one anchor per hidden site), payload record pages
//!   and shard-boundary flags. The writer streams the flat arrays from
//!   [`Triangulation::as_flat`]; it copies none of them. A load rebuilds
//!   the rest: the canonical sites and both duplicate maps (from the
//!   points, by the build's own Hilbert-rank numbering, [`rank_sites`]),
//!   the R-tree (packed in that vertex order in one `O(n)` pass), the
//!   planner's density map (from the points) and the hidden-site R-tree
//!   (from the hidden sites). No file stores a canonical map or an index,
//!   whether or not inputs coincide, and none stores a triangle mesh: no
//!   query reads one. A blob with points has a triangulation: no build
//!   makes one without, and its R-tree is packed in the triangulation's
//!   order.
//! * **Sharded** ([`ShardedAreaQueryEngine`]): the kd-partition
//!   metadata (point count, diagram family, shard count) plus **one
//!   independently loadable section per shard** (its global-id table and
//!   a nested engine blob). The engine keeps no planner state, so there
//!   is no calibration to store.
//! * **Dynamic** ([`DynamicAreaQueryEngine`]): the base engine blob
//!   plus the overlay **as data** — the base id table, the live delta's
//!   `(id, point)` entries ascending by id, the tombstoned base ids and
//!   the id counter are stored and replayed on load, not re-executed as
//!   operations. A removed delta point leaves the delta, so tombstones
//!   name base points only. The loader checks the overlay's id
//!   invariants: base ids and delta ids each strictly ascending, no delta
//!   id equal to a base id, every tombstone naming a base id, and the id
//!   counter above every assigned id.

use crate::dynamic::DynamicAreaQueryEngine;
use crate::engine::AreaQueryEngine;
use crate::payload::RecordStore;
use crate::shard::ShardedAreaQueryEngine;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Cursor, Read, Seek, SeekFrom, Take, Write};
use std::path::Path;
use vaq_delaunay::hilbert::rank_sites;
use vaq_delaunay::{DiagramKind, Triangulation, TriangulationFlat};
use vaq_geom::Point;

/// The container magic: the bytes `VAQSNAP1` read as a little-endian
/// `u64`. A byte-swapped magic identifies a container written on a
/// wrong-endian machine ([`SnapshotError::WrongEndian`]).
pub const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"VAQSNAP1");

/// Current container format version. Bump on **any** change to the
/// header, section or flat-array layouts (the layout-fingerprint guard
/// test enforces the coupling).
pub const SNAPSHOT_VERSION: u32 = 7;

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
const LAYOUT: &str = "vaq-snapshot layout v7:\
 header{magic:u64,version:u32,kind:u32,layout:u64,file_len:u64,sections:u64,\
table_sum:u64,git_rev:[u8;24],params:[u8;56]}\
 table{tag:u64,offset:u64,len:u64,checksum:u64}*\
 engine{points:[f64x2],tri?{sites:hilbert16(points),adj_off:[u32],adj:[u32],\
hull:[u32],degenerate:u32,weights:[f64],hidden:[u32],\
anchor:[u32;hidden]},records?{record_bytes:u64,data:[u8]},\
straddlers?:[u8]}\
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
    let mut sum = Checksum64::new();
    sum.update(bytes);
    sum.finish()
}

const CHECKSUM_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// [`checksum64`] fed in pieces: every split of the same bytes gives the
/// same sum. It holds the lanes and at most one partial block.
struct Checksum64 {
    lanes: [u64; 4],
    block: [u8; 32],
    filled: usize,
    len: u64,
}

impl Checksum64 {
    fn new() -> Checksum64 {
        Checksum64 {
            lanes: [
                0x5641_5153_4E41_5031, // "VAQSNAP1"
                0xC2B2_AE3D_27D4_EB4F,
                0x1656_67B1_9E37_79F9,
                0x2545_F491_4F6C_DD1D,
            ],
            block: [0; 32],
            filled: 0,
            len: 0,
        }
    }

    fn mix(lanes: &mut [u64; 4], block: &[u8; 32]) {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = (lane.rotate_left(5) ^ u64::from_le_bytes(*word)).wrapping_mul(CHECKSUM_K);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(32 - self.filled));
            self.block[self.filled..self.filled + head.len()].copy_from_slice(head);
            self.filled += head.len();
            if self.filled < 32 {
                return;
            }
            Self::mix(&mut self.lanes, &self.block);
            self.filled = 0;
            bytes = rest;
        }
        let (blocks, tail) = bytes.as_chunks::<32>();
        for block in blocks {
            Self::mix(&mut self.lanes, block);
        }
        self.block[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    fn finish(&self) -> u64 {
        let [l0, l1, l2, l3] = self.lanes;
        let mut h = l0;
        for lane in [l1, l2, l3] {
            h = (h.rotate_left(17) ^ lane).wrapping_mul(CHECKSUM_K);
        }
        for word in self.block[..self.filled].chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(CHECKSUM_K);
        }
        (h ^ self.len).wrapping_mul(CHECKSUM_K)
    }
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

fn align_page(n: u64) -> u64 {
    n.div_ceil(SNAPSHOT_PAGE as u64) * SNAPSHOT_PAGE as u64
}

/// The little-endian `u64` at byte `off` of a fixed-size record.
fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("an 8-byte field"))
}

/// Concatenates 8-byte words into one `B`-byte record.
fn join<const B: usize>(words: &[[u8; 8]]) -> [u8; B] {
    let mut out = [0; B];
    for (slot, word) in out.as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *slot = *word;
    }
    out
}

// ---------------------------------------------------------------------
// Section payload encoding: length-prefixed little-endian POD arrays,
// streamed through fixed buffers.
// ---------------------------------------------------------------------

/// Bytes staged per read or write call by the section writer, the
/// section reader and the checksum pass.
const IO_CHUNK: usize = 1 << 16;

/// Where a container is written: a buffered file or an in-memory cursor.
trait WriteSeek: Write + Seek {}
impl<T: Write + Seek> WriteSeek for T {}

/// Where a container is read from: a buffered file or an in-memory cursor.
trait ReadSeek: Read + Seek {}
impl<T: Read + Seek> ReadSeek for T {}

/// Encodes one section's payload straight into the container's stream,
/// checksumming and counting the bytes as they pass.
struct SecWriter<'a> {
    out: &'a mut dyn Write,
    sum: Checksum64,
}

impl<'a> SecWriter<'a> {
    fn new(out: &'a mut dyn Write) -> SecWriter<'a> {
        SecWriter {
            out,
            sum: Checksum64::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)?;
        self.sum.update(bytes);
        Ok(())
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.u64(b.len() as u64)?;
        self.put(b)
    }

    /// Writes a length-prefixed array: the item count, then each item's
    /// `B` bytes, a buffer at a time. The count comes from a clone of
    /// `items`, so it always matches what follows.
    fn array<I: Iterator + Clone, const B: usize>(
        &mut self,
        items: I,
        encode: impl Fn(I::Item) -> [u8; B],
    ) -> io::Result<()> {
        self.u64(items.clone().count() as u64)?;
        let mut items = items;
        let mut buf = [0u8; IO_CHUNK];
        loop {
            let mut filled = 0;
            for (slot, item) in buf.as_chunks_mut::<B>().0.iter_mut().zip(&mut items) {
                *slot = encode(item);
                filled += B;
            }
            if filled == 0 {
                return Ok(());
            }
            self.put(&buf[..filled])?;
        }
    }

    fn u32s(&mut self, v: &[u32]) -> io::Result<()> {
        self.array(v.iter().copied(), u32::to_le_bytes)
    }

    fn u64s(&mut self, v: &[u64]) -> io::Result<()> {
        self.array(v.iter().copied(), u64::to_le_bytes)
    }

    fn f64s(&mut self, v: &[f64]) -> io::Result<()> {
        self.array(v.iter().copied(), f64::to_le_bytes)
    }
}

/// Decodes one section's payload, or a blob nested in one, from a
/// bounded reader. Every length prefix is checked against the bytes
/// left before anything is allocated.
struct SecReader<'a> {
    r: Take<&'a mut dyn Read>,
}

impl<'a> SecReader<'a> {
    fn new(r: &'a mut dyn Read, len: u64) -> SecReader<'a> {
        SecReader { r: r.take(len) }
    }

    /// The next `len` bytes as a payload of their own.
    fn nested(&mut self, len: usize) -> SecReader<'_> {
        SecReader::new(&mut self.r, len as u64)
    }

    /// Payload bytes not yet read.
    fn left(&self) -> u64 {
        self.r.limit()
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), SnapshotError> {
        if buf.len() as u64 > self.left() {
            return Err(SnapshotError::Malformed(
                "section payload underrun".to_string(),
            ));
        }
        Ok(self.r.read_exact(buf)?)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut b = [0; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut b = [0; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
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
        if bytes as u64 > self.left() {
            return Err(SnapshotError::Malformed(
                "array length exceeds section payload".to_string(),
            ));
        }
        Ok(n)
    }

    /// Reads a length-prefixed array of `B`-byte items, a buffer at a
    /// time, straight into its typed vector.
    fn array<T, const B: usize>(
        &mut self,
        decode: impl Fn([u8; B]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.len(B)?;
        let mut out = Vec::with_capacity(n);
        let mut buf = [0u8; IO_CHUNK];
        while out.len() < n {
            let slots = buf.as_chunks_mut::<B>().0;
            let k = slots.len().min(n - out.len());
            let chunk = &mut slots[..k];
            self.fill(chunk.as_flattened_mut())?;
            out.extend(chunk.iter().map(|&b| decode(b)));
        }
        Ok(out)
    }

    fn u32s(&mut self) -> Result<Vec<u32>, SnapshotError> {
        self.array(u32::from_le_bytes)
    }

    fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.array(u64::from_le_bytes)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        self.array(f64::from_le_bytes)
    }

    /// Interleaved `x y` coordinate pairs.
    fn points(&mut self) -> Result<Vec<Point>, SnapshotError> {
        self.array(|b: [u8; 16]| {
            Point::new(f64::from_bits(u64_at(&b, 0)), f64::from_bits(u64_at(&b, 8)))
        })
    }

    /// A length-prefixed byte string, read straight into its vector.
    fn byte_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len(1)?;
        let mut v = vec![0; n];
        self.fill(&mut v)?;
        Ok(v)
    }

    fn bools(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let raw = self.byte_vec()?;
        if let Some(b) = raw.iter().find(|&&b| b > 1) {
            return Err(SnapshotError::Malformed(format!(
                "non-canonical bool byte {b:#04x}"
            )));
        }
        Ok(raw.into_iter().map(|b| b == 1).collect())
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        match self.left() {
            0 => Ok(()),
            n => Err(SnapshotError::Malformed(format!(
                "{n} trailing bytes in section payload"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Container framing.
// ---------------------------------------------------------------------

/// Writes a container front to back: a zeroed header page, then each
/// section streamed to its page-aligned offset. `finish` seeks back and
/// writes the header and the section table.
struct ContainerWriter<'a> {
    out: &'a mut dyn WriteSeek,
    kind: SnapshotKind,
    /// Where the first section starts; the table must end before it.
    first: u64,
    /// One `{tag, offset, len, checksum}` entry per section written.
    table: Vec<u8>,
    /// Bytes written so far.
    pos: u64,
}

impl<'a> ContainerWriter<'a> {
    /// Starts a container whose table will hold `sections` entries.
    fn new(
        out: &'a mut dyn WriteSeek,
        kind: SnapshotKind,
        sections: usize,
    ) -> io::Result<ContainerWriter<'a>> {
        let table_len = sections * TABLE_ENTRY;
        let mut c = ContainerWriter {
            out,
            kind,
            first: align_page((HEADER_FIXED + table_len) as u64),
            table: Vec::with_capacity(table_len),
            pos: 0,
        };
        c.pad_to(c.first)?;
        Ok(c)
    }

    /// Writes zeros up to byte `end`.
    fn pad_to(&mut self, end: u64) -> io::Result<()> {
        const ZEROS: [u8; SNAPSHOT_PAGE] = [0; SNAPSHOT_PAGE];
        while self.pos < end {
            let n = (end - self.pos).min(SNAPSHOT_PAGE as u64) as usize;
            self.out.write_all(&ZEROS[..n])?;
            self.pos += n as u64;
        }
        Ok(())
    }

    /// Streams one section, starting on the next page boundary.
    fn section(
        &mut self,
        tag: u64,
        encode: impl FnOnce(&mut SecWriter<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.pad_to(align_page(self.pos))?;
        let mut w = SecWriter::new(&mut *self.out);
        encode(&mut w)?;
        let (len, sum) = (w.sum.len, w.sum.finish());
        for field in [tag, self.pos, len, sum] {
            self.table.extend_from_slice(&field.to_le_bytes());
        }
        self.pos += len;
        Ok(())
    }

    fn finish(mut self) -> io::Result<()> {
        self.pad_to(align_page(self.pos))?;
        assert!(
            (HEADER_FIXED + self.table.len()) as u64 <= self.first,
            "more sections written than the header page has room for"
        );
        let mut head = Vec::with_capacity(HEADER_FIXED);
        head.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        head.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        head.extend_from_slice(&self.kind.code().to_le_bytes());
        head.extend_from_slice(&layout_fingerprint().to_le_bytes());
        head.extend_from_slice(&self.pos.to_le_bytes());
        head.extend_from_slice(&((self.table.len() / TABLE_ENTRY) as u64).to_le_bytes());
        head.extend_from_slice(&checksum64(&self.table).to_le_bytes());
        let rev = git_revision();
        let rev = rev.as_bytes();
        head.extend_from_slice(&rev[..rev.len().min(GIT_REV_BYTES)]);
        head.resize(HEADER_FIXED - PARAMS_BYTES, 0);
        let params = build_params();
        let params = params.as_bytes();
        head.extend_from_slice(&params[..params.len().min(PARAMS_BYTES)]);
        head.resize(HEADER_FIXED, 0);
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&head)?;
        self.out.write_all(&self.table)
    }
}

/// Where one section's payload lies; its checksum has been verified.
struct Section {
    tag: u64,
    offset: u64,
    len: u64,
}

/// A container's validated header and section table.
struct Container {
    kind: SnapshotKind,
    version: u32,
    git_revision: String,
    build_params: String,
    file_len: u64,
    sections: Vec<Section>,
}

impl Container {
    /// Reads the header and the table, then makes one checksum pass over
    /// every section, so no payload byte is decoded before every
    /// checksum matches. The checks run in a fixed order: size, magic,
    /// version, layout, kind, length, table checksum, header text, then
    /// each section's extent and checksum in table order.
    fn open(r: &mut dyn ReadSeek) -> Result<Container, SnapshotError> {
        let actual = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;
        if actual < HEADER_FIXED as u64 {
            return Err(SnapshotError::Truncated {
                needed: HEADER_FIXED as u64,
                actual,
            });
        }
        let mut head = [0u8; HEADER_FIXED];
        r.read_exact(&mut head)?;
        let word = |off: usize| u64_at(&head, off);
        let half = |off: usize| u32::from_le_bytes(head[off..off + 4].try_into().expect("4 bytes"));
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
        if actual < file_len {
            return Err(SnapshotError::Truncated {
                needed: file_len,
                actual,
            });
        }
        if actual > file_len {
            return Err(SnapshotError::Malformed(format!(
                "{} bytes past the declared container end",
                actual - file_len
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
        // The table fits in the file, so its buffer is bounded by the
        // bytes actually present.
        let mut table = vec![0u8; table_end - HEADER_FIXED];
        r.read_exact(&mut table)?;
        let stored_table_sum = word(40);
        let computed_table_sum = checksum64(&table);
        if stored_table_sum != computed_table_sum {
            return Err(SnapshotError::ChecksumMismatch {
                section: 0,
                stored: stored_table_sum,
                computed: computed_table_sum,
            });
        }
        let field = |s: &str, off: usize, len: usize| {
            let raw = &head[off..off + len];
            let end = raw.iter().position(|&b| b == 0).unwrap_or(len);
            std::str::from_utf8(&raw[..end])
                .map(str::to_string)
                .map_err(|_| SnapshotError::Malformed(format!("non-utf8 {s} header field")))
        };
        let git_rev = field("git revision", 48, GIT_REV_BYTES)?;
        let params = field("build params", 72, PARAMS_BYTES)?;
        let mut buf = vec![0u8; IO_CHUNK];
        let mut sections = Vec::with_capacity(n_sections);
        for entry in table.chunks_exact(TABLE_ENTRY) {
            let tag = u64_at(entry, 0);
            let offset = u64_at(entry, 8);
            let len = u64_at(entry, 16);
            let stored = u64_at(entry, 24);
            let end = offset.checked_add(len).ok_or_else(|| {
                SnapshotError::Malformed(format!("section {tag:#x} extent overflows"))
            })?;
            if end > file_len {
                return Err(SnapshotError::Truncated {
                    needed: end,
                    actual: file_len,
                });
            }
            r.seek(SeekFrom::Start(offset))?;
            let mut sum = Checksum64::new();
            let mut left = len;
            while left > 0 {
                let chunk = &mut buf[..left.min(IO_CHUNK as u64) as usize];
                r.read_exact(chunk)?;
                sum.update(chunk);
                left -= chunk.len() as u64;
            }
            let computed = sum.finish();
            if stored != computed {
                return Err(SnapshotError::ChecksumMismatch {
                    section: tag,
                    stored,
                    computed,
                });
            }
            sections.push(Section { tag, offset, len });
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

    /// A bounded reader over section `tag`'s payload.
    fn section<'r>(
        &self,
        r: &'r mut dyn ReadSeek,
        tag: u64,
    ) -> Result<SecReader<'r>, SnapshotError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.tag == tag)
            .ok_or_else(|| SnapshotError::Malformed(format!("missing section {tag:#x}")))?;
        r.seek(SeekFrom::Start(s.offset))?;
        Ok(SecReader::new(r, s.len))
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

    fn info(self) -> SnapshotInfo {
        SnapshotInfo {
            kind: self.kind,
            version: self.version,
            git_revision: self.git_revision,
            build_params: self.build_params,
            file_len: self.file_len,
            sections: self.sections.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Engine blob: the plain engine's persisted state.
// ---------------------------------------------------------------------

fn encode_engine(w: &mut SecWriter<'_>, engine: &AreaQueryEngine) -> io::Result<()> {
    w.array(engine.points.iter(), |p| {
        join::<16>(&[p.x.to_le_bytes(), p.y.to_le_bytes()])
    })?;
    match engine.tri.as_ref() {
        Some(tri) => {
            w.u32(1)?;
            let flat = tri.as_flat();
            // The site array and the duplicate maps are not stored: they
            // are a function of the engine's points (`rank_sites`, the
            // build's own numbering), which a load re-derives.
            w.u32s(&flat.adj_off)?;
            w.u32s(&flat.adj)?;
            w.u32s(&flat.hull)?;
            w.u32(flat.degenerate as u32)?;
            w.f64s(&flat.weights)?;
            w.u32s(&flat.hidden)?;
            w.u32s(&flat.anchor)?;
        }
        None => w.u32(0)?,
    }
    match engine.records.as_ref() {
        Some(rs) => {
            w.u32(1)?;
            w.u64(rs.record_bytes() as u64)?;
            w.bytes(rs.raw_bytes())?;
        }
        None => w.u32(0)?,
    }
    match engine.boundary_straddlers.as_ref() {
        Some(s) => {
            w.u32(1)?;
            w.array(s.iter(), |&b| [b as u8])
        }
        None => w.u32(0),
    }
}

/// The length of `encode_engine`'s output, from the same encoder run
/// into a sink that keeps nothing: a shard's engine blob is length-
/// prefixed, and the prefix is written before the blob.
fn encoded_len(engine: &AreaQueryEngine) -> io::Result<u64> {
    let mut sink = io::sink();
    let mut w = SecWriter::new(&mut sink);
    encode_engine(&mut w, engine)?;
    Ok(w.sum.len)
}

fn decode_engine(r: &mut SecReader<'_>) -> Result<AreaQueryEngine, SnapshotError> {
    let points = r.points()?;
    let n_points = points.len();
    let tri = match r.u32()? {
        0 => None,
        1 => {
            let (pts, canon, members_off, members) = rank_sites(&points);
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
    if tri.is_none() && n_points > 0 {
        return Err(SnapshotError::Inconsistent(format!(
            "{n_points} points but no triangulation"
        )));
    }
    let records = match r.u32()? {
        0 => None,
        1 => {
            let record_bytes: usize = r
                .u64()?
                .try_into()
                .map_err(|_| SnapshotError::Malformed("record size overflows usize".to_string()))?;
            let data = r.byte_vec()?;
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
    r.finish()?;
    Ok(AreaQueryEngine::assemble(
        points,
        tri,
        records,
        boundary_straddlers,
    ))
}

// ---------------------------------------------------------------------
// Writers and decoders per engine shape.
// ---------------------------------------------------------------------

fn write_engine(out: &mut dyn WriteSeek, engine: &AreaQueryEngine) -> io::Result<()> {
    let mut c = ContainerWriter::new(out, SnapshotKind::Plain, 1)?;
    c.section(TAG_ENGINE, |w| encode_engine(w, engine))?;
    c.finish()
}

fn write_dynamic(out: &mut dyn WriteSeek, engine: &DynamicAreaQueryEngine) -> io::Result<()> {
    let (base, base_ids, delta, tombstones, next_id) = engine.snapshot_parts();
    let mut c = ContainerWriter::new(out, SnapshotKind::Dynamic, 2)?;
    c.section(TAG_DYN_BASE, |w| encode_engine(w, base))?;
    c.section(TAG_DYN_OVERLAY, |w| {
        w.u64s(base_ids)?;
        w.array(delta.iter(), |(id, p)| {
            join::<24>(&[id.to_le_bytes(), p.x.to_le_bytes(), p.y.to_le_bytes()])
        })?;
        w.u64s(&tombstones)?;
        w.u64(next_id)
    })?;
    c.finish()
}

fn write_sharded(out: &mut dyn WriteSeek, engine: &ShardedAreaQueryEngine) -> io::Result<()> {
    let (shards, len, diagram) = engine.snapshot_parts();
    let mut c = ContainerWriter::new(out, SnapshotKind::Sharded, 1 + shards.len())?;
    c.section(TAG_SH_META, |w| {
        w.u64(len as u64)?;
        w.u32(match diagram {
            DiagramKind::Euclidean => 0,
            DiagramKind::Power => 1,
        })?;
        w.u64(shards.len() as u64)
    })?;
    for (i, shard) in shards.iter().enumerate() {
        c.section(TAG_SHARD + i as u64, |w| {
            w.u32s(&shard.global)?;
            w.u64(encoded_len(&shard.engine)?)?;
            encode_engine(w, &shard.engine)
        })?;
    }
    c.finish()
}

fn decode_plain(c: &Container, r: &mut dyn ReadSeek) -> Result<AreaQueryEngine, SnapshotError> {
    decode_engine(&mut c.section(r, TAG_ENGINE)?)
}

fn decode_dynamic(
    c: &Container,
    r: &mut dyn ReadSeek,
) -> Result<DynamicAreaQueryEngine, SnapshotError> {
    let base = decode_engine(&mut c.section(r, TAG_DYN_BASE)?)?;
    let mut o = c.section(r, TAG_DYN_OVERLAY)?;
    let base_ids = o.u64s()?;
    let delta = o.array(|b: [u8; 24]| {
        let coord = |off| f64::from_bits(u64_at(&b, off));
        (u64_at(&b, 0), Point::new(coord(8), coord(16)))
    })?;
    let tombs = o.u64s()?;
    let next_id = o.u64()?;
    o.finish()?;
    if base_ids.len() != base.len() {
        return Err(SnapshotError::Inconsistent(format!(
            "{} base ids for a {}-point base engine",
            base_ids.len(),
            base.len()
        )));
    }
    if !base_ids.is_sorted_by(|a, b| a < b) {
        return Err(SnapshotError::Malformed(
            "base ids are not strictly ascending".to_string(),
        ));
    }
    // Every id names one point: delta ids ascend strictly, none is a
    // base id (sorted, so a binary search each), and every tombstone
    // masks a base id. Without these checks a query reports an id twice,
    // and the live count underflows.
    let mut prev = None;
    for &(id, _) in &delta {
        if base_ids.binary_search(&id).is_ok() || prev >= Some(id) {
            return Err(SnapshotError::Inconsistent(format!(
                "delta id {id} is a base id or does not exceed the previous delta id"
            )));
        }
        prev = Some(id);
    }
    let mut dead = vec![false; base_ids.len()];
    for id in tombs {
        let i = base_ids.binary_search(&id).map_err(|_| {
            SnapshotError::Inconsistent(format!("tombstone {id} names no base point"))
        })?;
        dead[i] = true;
    }
    if let Some(max_id) = base_ids.last().copied().max(prev) {
        if next_id <= max_id {
            return Err(SnapshotError::Inconsistent(format!(
                "next id {next_id} does not exceed the largest assigned id {max_id}"
            )));
        }
    }
    Ok(DynamicAreaQueryEngine::from_parts(
        base, base_ids, dead, delta, next_id,
    ))
}

fn decode_sharded(
    c: &Container,
    r: &mut dyn ReadSeek,
) -> Result<ShardedAreaQueryEngine, SnapshotError> {
    let mut m = c.section(r, TAG_SH_META)?;
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
    // Both counts are checked against the validated table before
    // anything is sized by them: each shard has its own section, and the
    // shards' global ids must add up to the point count.
    if shard_count >= c.sections.len() {
        return Err(SnapshotError::Malformed(format!(
            "{shard_count} shards declared in a container of {} sections",
            c.sections.len()
        )));
    }
    let mut shards = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let mut s = c.section(r, TAG_SHARD + i as u64)?;
        let global = s.u32s()?;
        let blob = s.len(1)?;
        let engine = decode_engine(&mut s.nested(blob))?;
        s.finish()?;
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

/// Validates a container, checks that it holds `kind`, then decodes it.
fn read_as<T>(
    r: &mut dyn ReadSeek,
    kind: SnapshotKind,
    decode: fn(&Container, &mut dyn ReadSeek) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let c = Container::open(r)?;
    c.expect_kind(kind)?;
    decode(&c, r)
}

/// Validates a container once and decodes whichever shape it holds.
fn read_any(r: &mut dyn ReadSeek) -> Result<LoadedEngine, SnapshotError> {
    let c = Container::open(r)?;
    match c.kind {
        SnapshotKind::Plain => decode_plain(&c, r).map(LoadedEngine::Plain),
        SnapshotKind::Sharded => decode_sharded(&c, r).map(LoadedEngine::Sharded),
        SnapshotKind::Dynamic => decode_dynamic(&c, r).map(LoadedEngine::Dynamic),
    }
}

/// Runs a writer over an in-memory cursor and returns the image.
fn to_bytes(write: impl FnOnce(&mut dyn WriteSeek) -> io::Result<()>) -> Vec<u8> {
    let mut image = Cursor::new(Vec::new());
    write(&mut image).expect("writes to an in-memory cursor do not fail");
    image.into_inner()
}

/// Runs a writer over a buffered file created at `path`.
fn save(
    path: &Path,
    write: impl FnOnce(&mut dyn WriteSeek) -> io::Result<()>,
) -> Result<(), SnapshotError> {
    let mut out = BufWriter::new(File::create(path)?);
    write(&mut out)?;
    Ok(out.flush()?)
}

fn open(path: &Path) -> Result<BufReader<File>, SnapshotError> {
    Ok(BufReader::new(File::open(path)?))
}

// ---------------------------------------------------------------------
// Public save/load surface.
// ---------------------------------------------------------------------

/// Serializes a plain engine into an in-memory container.
pub fn engine_to_bytes(engine: &AreaQueryEngine) -> Vec<u8> {
    to_bytes(|out| write_engine(out, engine))
}

/// Serializes a dynamic engine (base + overlay) into an in-memory
/// container.
pub fn dynamic_to_bytes(engine: &DynamicAreaQueryEngine) -> Vec<u8> {
    to_bytes(|out| write_dynamic(out, engine))
}

/// Serializes a sharded engine into an in-memory container: partition
/// metadata plus one independently checksummed section per shard.
pub fn sharded_to_bytes(engine: &ShardedAreaQueryEngine) -> Vec<u8> {
    to_bytes(|out| write_sharded(out, engine))
}

/// Deserializes a plain engine from container bytes.
pub fn engine_from_bytes(bytes: &[u8]) -> Result<AreaQueryEngine, SnapshotError> {
    read_as(&mut Cursor::new(bytes), SnapshotKind::Plain, decode_plain)
}

/// Deserializes a dynamic engine from container bytes. The overlay is
/// replayed as data: delta, tombstones and the id counter resume
/// exactly where the saved engine stood (see the module doc for the id
/// checks).
pub fn dynamic_from_bytes(bytes: &[u8]) -> Result<DynamicAreaQueryEngine, SnapshotError> {
    read_as(
        &mut Cursor::new(bytes),
        SnapshotKind::Dynamic,
        decode_dynamic,
    )
}

/// Deserializes a sharded engine from container bytes. Shard MBRs and
/// the density map are recomputed from the shard point sets
/// (deterministically, so they match the built engine's bit for bit).
pub fn sharded_from_bytes(bytes: &[u8]) -> Result<ShardedAreaQueryEngine, SnapshotError> {
    read_as(
        &mut Cursor::new(bytes),
        SnapshotKind::Sharded,
        decode_sharded,
    )
}

/// Deserializes whichever engine shape the container holds.
pub fn from_bytes(bytes: &[u8]) -> Result<LoadedEngine, SnapshotError> {
    read_any(&mut Cursor::new(bytes))
}

/// Reads a snapshot's header facts, after the same validation a load
/// runs (every checksum included), without decoding any section.
pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    Container::open(&mut Cursor::new(bytes)).map(Container::info)
}

/// Saves a plain engine to `path`.
pub fn save_engine(engine: &AreaQueryEngine, path: &Path) -> Result<(), SnapshotError> {
    save(path, |out| write_engine(out, engine))
}

/// Saves a dynamic engine to `path`.
pub fn save_dynamic(engine: &DynamicAreaQueryEngine, path: &Path) -> Result<(), SnapshotError> {
    save(path, |out| write_dynamic(out, engine))
}

/// Saves a sharded engine to `path`.
pub fn save_sharded(engine: &ShardedAreaQueryEngine, path: &Path) -> Result<(), SnapshotError> {
    save(path, |out| write_sharded(out, engine))
}

/// Loads a plain engine from `path`.
pub fn load_engine(path: &Path) -> Result<AreaQueryEngine, SnapshotError> {
    read_as(&mut open(path)?, SnapshotKind::Plain, decode_plain)
}

/// Loads a dynamic engine from `path`.
pub fn load_dynamic(path: &Path) -> Result<DynamicAreaQueryEngine, SnapshotError> {
    read_as(&mut open(path)?, SnapshotKind::Dynamic, decode_dynamic)
}

/// Loads a sharded engine from `path`.
pub fn load_sharded(path: &Path) -> Result<ShardedAreaQueryEngine, SnapshotError> {
    read_as(&mut open(path)?, SnapshotKind::Sharded, decode_sharded)
}

/// Loads whichever engine shape the snapshot at `path` holds.
pub fn load(path: &Path) -> Result<LoadedEngine, SnapshotError> {
    read_any(&mut open(path)?)
}

/// Reads the header facts of the snapshot at `path`, after the same
/// validation a load runs (every checksum included).
pub fn inspect(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    Container::open(&mut open(path)?).map(Container::info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::Rect;

    /// The engine blob `encode_engine` writes.
    fn blob(engine: &AreaQueryEngine) -> Vec<u8> {
        let mut out = Vec::new();
        encode_engine(&mut SecWriter::new(&mut out), engine).expect("a vector accepts every write");
        out
    }

    fn decode(blob: &[u8]) -> Result<AreaQueryEngine, SnapshotError> {
        decode_engine(&mut SecReader::new(&mut &blob[..], blob.len() as u64))
    }

    fn open_bytes(bytes: &[u8]) -> Result<Container, SnapshotError> {
        Container::open(&mut Cursor::new(bytes))
    }

    #[test]
    fn checksum_distinguishes_length_and_content() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"\0"), checksum64(b"\0\0"));
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgi"));
        assert_eq!(checksum64(b"vaqsnap"), checksum64(b"vaqsnap"));
    }

    /// The streaming checksum equals [`checksum64`] however its input is
    /// split: at every set of cut points for inputs up to 12 bytes, and
    /// at every pair of cut points for lengths on both sides of the 8-
    /// and 32-byte block edges.
    #[test]
    fn streaming_checksum_matches_every_split() {
        let data: Vec<u8> = (0..100u32).map(|i| ((i * 157) ^ 0x5A) as u8).collect();
        let pieces = |bytes: &[u8], cuts: &[usize]| {
            let mut sum = Checksum64::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([&bytes.len()]) {
                sum.update(&bytes[from..cut]);
                from = cut;
            }
            sum.finish()
        };
        for len in 0..=12 {
            let bytes = &data[..len];
            for mask in 0u32..1 << len {
                let cuts: Vec<usize> = (0..len).filter(|i| mask & (1 << i) != 0).collect();
                assert_eq!(
                    pieces(bytes, &cuts),
                    checksum64(bytes),
                    "{len} bytes, cuts {cuts:?}"
                );
            }
        }
        for len in [
            15, 16, 17, 23, 24, 25, 31, 32, 33, 39, 40, 41, 63, 64, 65, 95, 96, 97,
        ] {
            let bytes = &data[..len];
            for a in 0..=len {
                for b in a..=len {
                    assert_eq!(
                        pieces(bytes, &[a, b]),
                        checksum64(bytes),
                        "{len} bytes at {a}, {b}"
                    );
                }
            }
        }
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
            SNAPSHOT_VERSION, 7,
            "version changed: re-pin the fingerprint"
        );
        assert_eq!(
            layout_fingerprint(),
            0xe7a0_e5b4_bc89_e433,
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
        to_bytes(|out| {
            let mut c = ContainerWriter::new(out, SnapshotKind::Dynamic, 2)?;
            c.section(TAG_DYN_BASE, |w| {
                encode_engine(w, &AreaQueryEngine::build(base))
            })?;
            c.section(TAG_DYN_OVERLAY, |w| {
                w.u64s(&(0..base.len() as u64).collect::<Vec<u64>>())?;
                w.u64(delta.len() as u64)?;
                for &(id, p) in delta {
                    w.u64(id)?;
                    w.put(&p.x.to_le_bytes())?;
                    w.put(&p.y.to_le_bytes())?;
                }
                w.u64s(tombs)?;
                w.u64(next_id)
            })?;
            c.finish()
        })
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

    /// A tombstone must mask a base point; an empty base with tombstone
    /// 5 would report a live count of `0 − 1`. A removed delta point
    /// leaves the delta instead of being tombstoned, so a tombstone
    /// naming a delta id is rejected too.
    #[test]
    fn tombstone_naming_no_point_is_rejected() {
        assert_inconsistent(&crafted_overlay(&[], &[], &[5], 6), "tombstone 5");
        let delta = [(3, Point::new(0.3, 0.3))];
        assert_inconsistent(
            &crafted_overlay(&three_points(), &delta, &[1, 3], 4),
            "tombstone 3",
        );
        let ok = dynamic_from_bytes(&crafted_overlay(&three_points(), &delta, &[1], 4))
            .expect("a tombstone naming a base id loads");
        assert_eq!((ok.len(), ok.delta_len()), (3, 1));
    }

    /// Delta entries ascend strictly by id, as the writer stores them.
    #[test]
    fn descending_delta_ids_are_rejected() {
        let descending = [(8, Point::new(0.2, 0.2)), (7, Point::new(0.4, 0.4))];
        assert_inconsistent(&crafted_overlay(&[], &descending, &[], 9), "id 7");
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
        let mut src = Cursor::new(&bytes[..]);
        let c = Container::open(&mut src).expect("parses");
        let mut r = c
            .section(&mut src, TAG_DYN_OVERLAY)
            .expect("has an overlay");
        assert_eq!(r.u64s().expect("base ids"), vec![0, 1, 2]);
        let delta = r.array(|b: [u8; 24]| u64_at(&b, 0)).expect("delta");
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
    /// coordinates and about 28 B of adjacency CSR per point, 46 B at
    /// most; re-persisting any derivable per-point array breaks that
    /// bound, from a triangle mesh (48 B per point) down to one 4-byte
    /// R-tree leaf id. Coincident inputs store no canonical maps or
    /// index entries either: a repeated point adds its 16 B of
    /// coordinates and nothing else (17 B at most), not the three
    /// duplicate-map arrays (about 55 B per repeat), and the load
    /// derives the same vertex ids.
    #[test]
    fn plain_snapshot_stores_no_derivable_arrays() {
        let mut rng = StdRng::seed_from_u64(20_000);
        let pts: Vec<Point> = (0..20_000)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let distinct = blob(&AreaQueryEngine::build(&pts)).len();
        let per_point = distinct as f64 / pts.len() as f64;
        assert!(
            per_point <= 46.0,
            "{per_point:.2} bytes per point in the engine blob"
        );

        let mut repeated = pts.clone();
        repeated.extend((0..10_000).map(|i| pts[(i * 7) % pts.len()]));
        let engine = AreaQueryEngine::build(&repeated);
        let bytes = blob(&engine);
        let per_repeat = (bytes.len() - distinct) as f64 / 10_000.0;
        assert!(
            per_repeat <= 17.0,
            "{per_repeat:.2} bytes per repeated point"
        );
        let loaded = decode(&bytes).expect("loads");
        assert_eq!(
            loaded.triangulation().map(Triangulation::as_flat),
            engine.triangulation().map(Triangulation::as_flat),
            "the load derives the build's vertex ids and maps"
        );
    }

    /// Anchors stand in for hidden sites in graph walks, so a file whose
    /// anchor names a hidden site is malformed: a walk seeded there would
    /// stop at a cell-less site.
    #[test]
    fn hidden_anchor_is_rejected() {
        let mut rng = StdRng::seed_from_u64(31);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let weights: Vec<f64> = (0..400)
            .map(|i| if i % 5 == 0 { 0.004 } else { 0.0 })
            .collect();
        let engine = AreaQueryEngine::builder(&pts).weights(&weights).build();
        let hidden = engine.triangulation().expect("built").hidden_vertices();
        assert!(hidden.len() >= 2, "{} hidden sites", hidden.len());
        let mut bytes = blob(&engine);
        assert!(decode(&bytes).is_ok());
        // Walk the blob up to the anchor array and point its first entry
        // at a hidden site.
        let mut src = &bytes[..];
        let mut r = SecReader::new(&mut src, bytes.len() as u64);
        r.points().expect("points");
        r.u32().expect("triangulation flag");
        for _ in 0..3 {
            r.u32s().expect("adjacency and hull");
        }
        r.u32().expect("degenerate flag");
        r.f64s().expect("weights");
        assert_eq!(r.u32s().expect("hidden"), hidden);
        let at = bytes.len() - r.left() as usize + 8;
        bytes[at..at + 4].copy_from_slice(&hidden[1].to_le_bytes());
        match decode(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("anchor"), "{msg}"),
            Err(e) => panic!("expected a malformed-anchor error, got {e}"),
            Ok(_) => panic!("a hidden anchor loaded"),
        }
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
                matches!(decode(&blob(&engine)), Err(SnapshotError::Inconsistent(_))),
                "{flags} flags for {vertices} vertices"
            );
        }
        engine.boundary_straddlers = Some(vec![true; vertices]);
        assert!(decode(&blob(&engine)).is_ok());
        let mut empty = AreaQueryEngine::build(&[]);
        empty.boundary_straddlers = Some(vec![false; 5]);
        assert!(matches!(
            decode(&blob(&empty)),
            Err(SnapshotError::Inconsistent(_))
        ));
    }

    /// A blob with points has a triangulation: the R-tree is packed in
    /// its vertex order, and without one the Voronoi method would answer
    /// nothing where the traditional method answers every point.
    #[test]
    fn points_without_a_triangulation_are_rejected() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(f64::from(i % 10), f64::from(i / 10)))
            .collect();
        let mut engine = AreaQueryEngine::build(&pts);
        engine.tri = None;
        match decode(&blob(&engine)) {
            Err(SnapshotError::Inconsistent(msg)) => assert!(msg.contains("50 points"), "{msg}"),
            Err(e) => panic!("expected an inconsistent-engine error, got {e}"),
            Ok(_) => panic!("points without a triangulation loaded"),
        }
        assert!(decode(&blob(&AreaQueryEngine::build(&[]))).is_ok());
    }

    #[test]
    fn sections_are_page_aligned() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(i as f64, (i * 7 % 13) as f64))
            .collect();
        let bytes = engine_to_bytes(&AreaQueryEngine::build(&pts));
        assert_eq!(bytes.len() % SNAPSHOT_PAGE, 0);
        let c = open_bytes(&bytes).expect("parse");
        for s in &c.sections {
            assert_eq!(
                s.offset % SNAPSHOT_PAGE as u64,
                0,
                "section {:#x} unaligned",
                s.tag
            );
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

        let c = open_bytes(&bytes).expect("clean parse");
        let s = &c.sections[0];
        let mut flipped = bytes.clone();
        flipped[(s.offset + s.len / 2) as usize] ^= 0x01;
        match engine_from_bytes(&flipped) {
            Err(SnapshotError::ChecksumMismatch { section, .. }) => assert_eq!(section, s.tag),
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
