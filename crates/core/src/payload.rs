//! Simulated geometry-record storage.
//!
//! The paper's refinement step is expensive because, in a real GIS, every
//! candidate's **full geometry record must be materialised from storage**
//! before the exact test runs ("it is usually more time consuming … because
//! of its geometric information loading and complex geometric
//! calculations"). For an in-memory point set the containment test alone
//! costs ~100 ns, which buries that effect and with it the paper's time
//! figures.
//!
//! [`RecordStore`] restores the paper's cost model as a controlled,
//! documented substitution: each point carries a fixed-size payload record
//! (think: the serialised feature row), and each validation must read the
//! candidate's record in full — a real, checksummed memory traversal whose
//! random-access pattern mirrors fetching rows by id. Payload size 0
//! disables the simulation (pure CPU regime); sizes of a few hundred bytes
//! to a few KiB correspond to realistic feature rows. The README's
//! "Reproducing the paper" section reports both regimes.
//!
//! Two access regimes exist on top of the store:
//!
//! * **validation loading** — every candidate's record is read before the
//!   exact containment test (the paper's refinement cost), wired through
//!   `refine_each`, the Voronoi BFS and the brute-force scan;
//! * **result materialisation** — the [`Materialize`](crate::OutputMode)
//!   result sink reads each *accepted* candidate's record again, modelling
//!   the final fetch of the full feature row into the response.
//!
//! Sharded engines own **per-shard stores** with shard-local ids: each
//! build worker copies its shard's records out of one logical store, so
//! record contents are copied exactly once, and checksums stay
//! bit-identical to the unsharded store's.

use std::fmt;

/// Errors reported by the checked [`RecordStore`] accessors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordStoreError {
    /// A record id at or past the end of the store.
    OutOfRange {
        /// The requested record id.
        id: u32,
        /// Number of records the store holds.
        len: usize,
    },
    /// `n * record_bytes` does not fit in `usize` (the store cannot be
    /// allocated).
    SizeOverflow {
        /// Requested record count.
        n: usize,
        /// Requested record size in bytes.
        record_bytes: usize,
    },
}

impl fmt::Display for RecordStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RecordStoreError::OutOfRange { id, len } => {
                write!(f, "record id {id} out of range (store holds {len} records)")
            }
            RecordStoreError::SizeOverflow { n, record_bytes } => write!(
                f,
                "record store size overflows: {n} records x {record_bytes} bytes \
exceeds the address space"
            ),
        }
    }
}

impl std::error::Error for RecordStoreError {}

/// Fixed-size per-point payload records, read during candidate validation
/// and result materialisation.
#[derive(Clone, Debug)]
pub struct RecordStore {
    data: Vec<u8>,
    record_bytes: usize,
}

/// The deterministic seed every engine-attached store is generated from
/// (`EngineBuilder::payload_bytes` and the sharded payload constructors
/// share it, so per-shard stores copied from the logical store hold
/// byte-identical records to the unsharded engine's).
pub(crate) const PAYLOAD_SEED: u64 = 0x5EED;

impl RecordStore {
    /// Generates `n` records of `record_bytes` bytes each, filled
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics with a clean diagnostic when `n * record_bytes` overflows
    /// `usize`; use [`RecordStore::try_generate`] for the checked form.
    pub fn generate(n: usize, record_bytes: usize, seed: u64) -> RecordStore {
        match RecordStore::try_generate(n, record_bytes, seed) {
            Ok(store) => store,
            // vaq-lint: allow(panic-hygiene) -- documented panicking
            // wrapper (see `# Panics` above); `try_generate` is the
            // checked form.
            Err(e) => panic!("RecordStore::generate: {e}"),
        }
    }

    /// As [`RecordStore::generate`], returning an error instead of
    /// panicking when the requested size does not fit in memory
    /// arithmetic.
    pub fn try_generate(
        n: usize,
        record_bytes: usize,
        seed: u64,
    ) -> Result<RecordStore, RecordStoreError> {
        let total = n
            .checked_mul(record_bytes)
            .ok_or(RecordStoreError::SizeOverflow { n, record_bytes })?;
        // A cheap xorshift fill; contents only matter for checksumming.
        // Golden-ratio mixing keeps adjacent seeds from colliding after
        // the `| 1` non-zero guard.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut data = Vec::with_capacity(total);
        for _ in 0..total {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push(state as u8);
        }
        Ok(RecordStore { data, record_bytes })
    }

    /// Size of one record in bytes.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        self.record_bytes
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.record_bytes).unwrap_or(0)
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises record `id`: reads every byte and returns a checksum.
    ///
    /// The checksum is folded into `QueryStats::payload_checksum` by the
    /// callers, which keeps the loads observable (and thus un-elidable by
    /// the optimiser).
    ///
    /// # Panics
    ///
    /// Panics with a clean diagnostic (id and store size) when `id` is out
    /// of range; use [`RecordStore::try_read`] for the checked form.
    #[inline]
    pub fn read(&self, id: u32) -> u64 {
        match self.try_read(id) {
            Ok(sum) => sum,
            // vaq-lint: allow(panic-hygiene) -- documented panicking
            // wrapper (see `# Panics` above); `try_read` is the checked
            // form.
            Err(e) => panic!("RecordStore::read: {e}"),
        }
    }

    /// As [`RecordStore::read`], returning an error instead of panicking
    /// on an out-of-range id.
    #[inline]
    pub fn try_read(&self, id: u32) -> Result<u64, RecordStoreError> {
        if self.record_bytes == 0 || id as usize >= self.len() {
            return Err(RecordStoreError::OutOfRange {
                id,
                len: self.len(),
            });
        }
        let lo = id as usize * self.record_bytes;
        let hi = lo + self.record_bytes;
        Ok(self.data[lo..hi].iter().fold(0u64, |acc, &b| {
            acc.wrapping_mul(31).wrapping_add(u64::from(b))
        }))
    }

    /// The raw backing bytes, for verbatim snapshot storage.
    pub(crate) fn raw_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Rebuilds a store from snapshot-loaded backing bytes. The caller
    /// (the snapshot loader) is responsible for `data.len()` being a
    /// whole number of records.
    pub(crate) fn from_raw(data: Vec<u8>, record_bytes: usize) -> RecordStore {
        RecordStore { data, record_bytes }
    }

    /// Copies records `ids` into a new store: local id `i` of the result
    /// holds a byte-identical copy of record `ids[i]` of `self`. This is
    /// how a sharded build worker turns the dataset's logical record
    /// store into its **shard's store, addressed by shard-local ids**.
    ///
    /// Returns an error when any id is out of range.
    pub(crate) fn subset(&self, ids: &[u32]) -> Result<RecordStore, RecordStoreError> {
        let mut data = Vec::with_capacity(ids.len() * self.record_bytes);
        for &g in ids {
            if self.record_bytes == 0 || g as usize >= self.len() {
                return Err(RecordStoreError::OutOfRange {
                    id: g,
                    len: self.len(),
                });
            }
            let lo = g as usize * self.record_bytes;
            data.extend_from_slice(&self.data[lo..lo + self.record_bytes]);
        }
        Ok(RecordStore {
            data,
            record_bytes: self.record_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = RecordStore::generate(10, 64, 42);
        let b = RecordStore::generate(10, 64, 42);
        assert_eq!(a.len(), 10);
        assert_eq!(a.record_bytes(), 64);
        for i in 0..10 {
            assert_eq!(a.read(i), b.read(i));
        }
        let c = RecordStore::generate(10, 64, 43);
        assert_ne!(
            (0..10).map(|i| a.read(i)).collect::<Vec<_>>(),
            (0..10).map(|i| c.read(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_records_have_distinct_checksums_usually() {
        let s = RecordStore::generate(100, 256, 7);
        let sums: std::collections::HashSet<u64> = (0..100).map(|i| s.read(i)).collect();
        assert!(sums.len() > 95, "checksum collisions: {}", 100 - sums.len());
    }

    #[test]
    fn zero_byte_records() {
        let s = RecordStore::generate(5, 0, 1);
        assert!(s.is_empty());
        assert_eq!(
            s.try_read(0),
            Err(RecordStoreError::OutOfRange { id: 0, len: 0 })
        );
    }

    #[test]
    fn out_of_range_reads_are_checked() {
        let s = RecordStore::generate(4, 16, 9);
        assert!(s.try_read(3).is_ok());
        assert_eq!(
            s.try_read(4),
            Err(RecordStoreError::OutOfRange { id: 4, len: 4 })
        );
        assert_eq!(
            s.try_read(u32::MAX),
            Err(RecordStoreError::OutOfRange {
                id: u32::MAX,
                len: 4
            })
        );
        let msg = s.try_read(9).unwrap_err().to_string();
        assert!(msg.contains("record id 9"), "{msg}");
        assert!(msg.contains("4 records"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "RecordStore::read: record id 7 out of range")]
    fn unchecked_read_panics_with_a_diagnostic() {
        let s = RecordStore::generate(2, 8, 1);
        s.read(7);
    }

    #[test]
    fn oversized_generation_is_checked() {
        let err = RecordStore::try_generate(usize::MAX, 2, 1).unwrap_err();
        assert_eq!(
            err,
            RecordStoreError::SizeOverflow {
                n: usize::MAX,
                record_bytes: 2
            }
        );
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn split_preserves_record_contents() {
        let logical = RecordStore::generate(9, 32, 0xFEED);
        for ids in [vec![4u32, 1, 8], vec![0u32, 7], vec![]] {
            let s = logical.subset(&ids).unwrap();
            assert_eq!(s.len(), ids.len());
            assert_eq!(s.record_bytes(), 32);
            for (local, &global) in ids.iter().enumerate() {
                assert_eq!(
                    s.read(local as u32),
                    logical.read(global),
                    "local {local} of ids {ids:?}"
                );
            }
        }
        // Out-of-range global ids are rejected, not propagated as panics.
        assert_eq!(
            logical.subset(&[9u32]).unwrap_err(),
            RecordStoreError::OutOfRange { id: 9, len: 9 }
        );
    }
}
