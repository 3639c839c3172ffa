//! Result sinks: what happens to a candidate after it survives filter +
//! refinement.
//!
//! The paper's area query *finds* the points inside the area; real systems
//! then *do something* with each accepted candidate — materialise its
//! record, keep the k nearest to a focus point, count, or collect ids.
//! None of that changes which candidates are accepted, so it is a value,
//! not a code path: the crate-private `Sink` is built once per query from
//! the spec's [`OutputMode`] (`Sink::of`, the one `match` over
//! [`OutputMode`] in the crate), and the execution paths **emit** every
//! accepted candidate into it without looking at the output mode again.
//!
//! Each run fills a **mergeable partial** (`Partial`): batch workers,
//! shards and the dynamic engine's delta scan each fill their own, and
//! the owner folds them with `Sink::merge` instead of concatenating index
//! vectors and re-dispatching on the output mode. The sink decides what a
//! partial keeps:
//!
//! | output mode | partial keeps | emit | answer |
//! |-------------|---------------|------|--------|
//! | [`OutputMode::Collect`] | ids | push | matching ids |
//! | [`OutputMode::Count`] | a count | increment | match count |
//! | [`OutputMode::TopKNearest`] | bounded max-heap | push if nearer | k nearest matches to an origin |
//! | [`OutputMode::Materialize`] | ids | read record, push | ids + payload checksum |
//!
//! The id space is generic ([`SinkId`]): the plain and sharded engines
//! emit `u32` **global input indices**, the dynamic engine emits `u64`
//! **stable external ids**. Merging is deterministic: a partial's content
//! after any interleaving of emits and merges depends only on the emitted
//! multiset (the k-nearest heap breaks distance ties by id). The plain
//! engine wraps its partial as a [`QueryOutput`] in emission order; the
//! sharded and dynamic engines share one sorted finisher (ids ascending,
//! neighbours by ascending `(dist_sq, id)`).

use crate::engine::QueryResult;
use crate::payload::RecordStore;
use crate::query::{OutputMode, QueryOutput};
use crate::stats::QueryStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vaq_geom::Point;

/// An id space results are emitted in: `u32` global input indices for the
/// plain and sharded engines, `u64` stable external ids for the dynamic
/// engine.
pub trait SinkId: Copy + Ord + Send + Sync + std::fmt::Debug + 'static {}

impl SinkId for u32 {}
impl SinkId for u64 {}

/// One answer of a k-nearest-within-area query
/// ([`OutputMode::TopKNearest`]): a matching point and its exact squared
/// distance to the query origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<I: SinkId = u32> {
    /// The matching point's id (global input index, or external id on the
    /// dynamic path).
    pub id: I,
    /// Exact squared Euclidean distance to the query's origin.
    pub dist_sq: f64,
}

/// Max-heap entry ordered by `(dist_sq, id)` — the heap's top is the
/// *worst* kept neighbour (farthest, largest id on ties), which is what a
/// bounded k-nearest heap evicts first.
struct HeapEntry<I: SinkId> {
    dist_sq: f64,
    id: I,
}

impl<I: SinkId> PartialEq for HeapEntry<I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<I: SinkId> Eq for HeapEntry<I> {}

impl<I: SinkId> PartialOrd for HeapEntry<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: SinkId> Ord for HeapEntry<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .total_cmp(&other.dist_sq)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// What a query does with each accepted candidate: one variant per
/// [`OutputMode`]. A small `Copy` value, shared freely across worker
/// threads.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sink {
    /// The matching ids, in emission order.
    Collect,
    /// Matches counted, nothing materialised.
    Count,
    /// Of the points inside the area, the `k` nearest to `origin` by
    /// exact squared Euclidean distance, ties broken by ascending id
    /// (`k = 0` keeps nothing).
    TopK { k: usize, origin: Point },
    /// The matching ids, with each accepted candidate's record read
    /// through the executing engine's [`RecordStore`] and its checksum
    /// folded into `QueryStats::payload_checksum`. Without a record store
    /// (or for delta-buffered points, which have no stored record until
    /// compaction) it degrades to collection.
    Materialize,
}

/// A sink's mergeable partial result. Only the part the sink uses is ever
/// filled: ids for collection and materialisation, the count for
/// counting, the bounded heap for k-nearest.
#[derive(Default)]
pub(crate) struct Partial<I: SinkId> {
    ids: Vec<I>,
    count: usize,
    heap: BinaryHeap<HeapEntry<I>>,
}

impl Sink {
    /// **The one `OutputMode` dispatch in the crate**: the sink for
    /// `output`. Adding a sink means adding an [`OutputMode`] variant, a
    /// `Sink` variant and one arm here.
    pub(crate) fn of(output: OutputMode) -> Sink {
        match output {
            OutputMode::Collect => Sink::Collect,
            OutputMode::Count => Sink::Count,
            OutputMode::TopKNearest { k, origin } => Sink::TopK { k, origin },
            OutputMode::Materialize => Sink::Materialize,
        }
    }

    /// Folds one accepted candidate into `partial`: `id` in the caller's
    /// output space, `point` its coordinates, and `local` its index in the
    /// executing engine's `records` (shard-local on a sharded engine; read
    /// only when materialising). `stats` is the executing run's counters.
    #[inline]
    pub(crate) fn emit<I: SinkId>(
        self,
        partial: &mut Partial<I>,
        id: I,
        point: Point,
        local: u32,
        records: Option<&RecordStore>,
        stats: &mut QueryStats,
    ) {
        match self {
            Sink::Collect => partial.ids.push(id),
            Sink::Count => partial.count += 1,
            Sink::TopK { k, origin } => {
                let (dx, dy) = (point.x - origin.x, point.y - origin.y);
                let dist_sq = dx * dx + dy * dy;
                partial.push_nearest(k, HeapEntry { dist_sq, id });
            }
            Sink::Materialize => {
                if let Some(rs) = records {
                    stats.payload_checksum = stats.payload_checksum.wrapping_add(rs.read(local));
                }
                partial.ids.push(id);
            }
        }
    }

    /// Folds `from` into `into`: ids concatenate, counts add, heaps keep
    /// the `k` smallest. As a multiset the result is independent of merge
    /// order and of how emissions were distributed across partials.
    pub(crate) fn merge<I: SinkId>(self, into: &mut Partial<I>, from: Partial<I>) {
        if let Sink::TopK { k, .. } = self {
            for e in from.heap {
                into.push_nearest(k, e);
            }
            return;
        }
        into.count += from.count;
        if into.ids.is_empty() {
            into.ids = from.ids;
        } else {
            into.ids.extend(from.ids);
        }
    }

    /// Wraps a finished partial as the plain engine's [`QueryOutput`]
    /// (ids in emission order), setting `stats.result_size`.
    pub(crate) fn output(self, partial: Partial<u32>, mut stats: QueryStats) -> QueryOutput {
        stats.result_size = partial.len();
        match self {
            Sink::Collect => QueryOutput::Collected(QueryResult {
                indices: partial.ids,
                stats,
            }),
            Sink::Count => QueryOutput::Counted {
                count: partial.count,
                stats,
            },
            Sink::TopK { .. } => QueryOutput::TopK {
                neighbors: partial.into_sorted().1,
                stats,
            },
            Sink::Materialize => QueryOutput::Materialized(QueryResult {
                indices: partial.ids,
                stats,
            }),
        }
    }
}

impl<I: SinkId> Partial<I> {
    /// Number of result items held (what `QueryStats::result_size`
    /// reports for the run).
    pub(crate) fn len(&self) -> usize {
        self.ids.len() + self.count + self.heap.len()
    }

    /// Keeps `e` if it is among the `k` smallest `(dist_sq, id)` entries
    /// seen so far.
    fn push_nearest(&mut self, k: usize, e: HeapEntry<I>) {
        if self.heap.len() < k {
            self.heap.push(e);
        } else if self.heap.peek().is_some_and(|top| e < *top) {
            self.heap.pop();
            self.heap.push(e);
        }
    }

    /// The sorted finish shared by the sharded and dynamic engines:
    /// `(ids, neighbours, count)` with ids ascending (the kept
    /// neighbours' ids for k-nearest, empty for counting), neighbours
    /// ascending by `(dist_sq, id)`, and the result count.
    pub(crate) fn into_sorted(self) -> (Vec<I>, Vec<Neighbor<I>>, usize) {
        let count = self.len();
        let mut heap = self.heap.into_vec();
        heap.sort_unstable();
        let neighbors: Vec<Neighbor<I>> = heap
            .into_iter()
            .map(|e| Neighbor {
                id: e.id,
                dist_sq: e.dist_sq,
            })
            .collect();
        let mut ids = self.ids;
        ids.extend(neighbors.iter().map(|n| n.id));
        ids.sort_unstable();
        (ids, neighbors, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(sink: Sink, partial: &mut Partial<u32>, id: u32, x: f64, y: f64) {
        let mut stats = QueryStats::default();
        sink.emit(partial, id, Point::new(x, y), id, None, &mut stats);
    }

    fn neighbors(partial: Partial<u32>) -> Vec<Neighbor> {
        partial.into_sorted().1
    }

    #[test]
    fn collect_and_count_partials_merge_by_concatenation_and_sum() {
        let c = Sink::Collect;
        let mut a = Partial::default();
        let mut b = Partial::default();
        emit(c, &mut a, 3, 0.0, 0.0);
        emit(c, &mut b, 1, 0.0, 0.0);
        emit(c, &mut b, 2, 0.0, 0.0);
        c.merge(&mut a, b);
        assert_eq!(a.ids, vec![3, 1, 2]);
        assert_eq!(a.len(), 3);

        let n = Sink::Count;
        let mut x = Partial::default();
        let mut y = Partial::default();
        emit(n, &mut x, 9, 0.0, 0.0);
        for id in 0..4 {
            emit(n, &mut y, id, 0.0, 0.0);
        }
        n.merge(&mut x, y);
        assert_eq!(x.count, 5);
        assert_eq!(x.len(), 5);
    }

    #[test]
    fn topk_keeps_k_smallest_with_id_tiebreak_regardless_of_order() {
        let sink = Sink::TopK {
            k: 3,
            origin: Point::new(0.0, 0.0),
        };
        // Two exact distance ties (ids 5 and 2 at distance 1.0): the
        // smaller id wins the last slot.
        let items = [
            (7u32, 2.0, 0.0),
            (5, 1.0, 0.0),
            (2, 0.0, 1.0),
            (9, 0.5, 0.0),
            (4, 3.0, 0.0),
        ];
        // All in one partial…
        let mut all = Partial::default();
        for &(id, x, y) in &items {
            emit(sink, &mut all, id, x, y);
        }
        let direct = neighbors(all);
        // …vs split across two partials merged in either order.
        for split in 0..items.len() {
            for flip in [false, true] {
                let mut a = Partial::default();
                let mut b = Partial::default();
                for (i, &(id, x, y)) in items.iter().enumerate() {
                    let target = if i < split { &mut a } else { &mut b };
                    emit(sink, target, id, x, y);
                }
                let merged = if flip {
                    sink.merge(&mut b, a);
                    b
                } else {
                    sink.merge(&mut a, b);
                    a
                };
                assert_eq!(neighbors(merged), direct, "split {split}, flip {flip}");
            }
        }
        assert_eq!(
            direct.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![9, 2, 5],
            "0.25 < 1.0 (tie: id 2 beats id 5), 1.0; ids 7 and 4 evicted"
        );
    }

    #[test]
    fn topk_zero_keeps_nothing() {
        let sink = Sink::TopK {
            k: 0,
            origin: Point::new(0.5, 0.5),
        };
        let mut p = Partial::default();
        emit(sink, &mut p, 1, 0.5, 0.5);
        assert_eq!(p.len(), 0);
        assert!(neighbors(p).is_empty());
    }

    #[test]
    fn materialize_reads_records_and_folds_checksums() {
        let store = RecordStore::generate(4, 64, 0xABCD);
        let sink = Sink::Materialize;
        let mut p: Partial<u32> = Partial::default();
        let mut stats = QueryStats::default();
        for id in [2u32, 0] {
            sink.emit(
                &mut p,
                id,
                Point::new(0.0, 0.0),
                id,
                Some(&store),
                &mut stats,
            );
        }
        assert_eq!(p.ids, vec![2, 0]);
        assert_eq!(
            stats.payload_checksum,
            store.read(2).wrapping_add(store.read(0))
        );
        // Without a store, it degrades to collection.
        let mut q: Partial<u32> = Partial::default();
        let mut s2 = QueryStats::default();
        sink.emit(&mut q, 7, Point::new(0.0, 0.0), 7, None, &mut s2);
        assert_eq!(q.ids, vec![7]);
        assert_eq!(s2.payload_checksum, 0);
    }
}
