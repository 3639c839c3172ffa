//! Composable result sinks: what happens to a candidate after it survives
//! filter + refinement.
//!
//! The paper's area query *finds* the points inside the area; real systems
//! then *do something* with each accepted candidate — materialise the full
//! geometry record, keep only the k nearest to a focus point, count, or
//! just collect indices. Before this module, each of those output shapes
//! was a `match` on [`OutputMode`] repeated in every execution path
//! (single query, batch worker, dynamic delta scan, per-shard merge), so
//! every new shape multiplied across all of them.
//!
//! A [`ResultSink`] inverts that: the execution paths **emit** every
//! accepted candidate into a sink and never look at the output mode again.
//! Each sink owns
//!
//! * a **mergeable partial state** ([`ResultSink::Partial`], `Send`) —
//!   batch workers, shards and the dynamic engine's delta scan each fill
//!   their own partial and the owner folds them with
//!   [`ResultSink::merge`], instead of concatenating index vectors and
//!   re-dispatching on the output mode;
//! * an **emission step** ([`ResultSink::emit`]) — called once per
//!   accepted candidate with its output id, its executing-engine-local
//!   index (for record reads), its coordinates and the engine's
//!   [`RecordStore`].
//!
//! The id space is generic ([`SinkId`]): the plain and sharded engines
//! emit `u32` **global input indices**, the dynamic engine emits `u64`
//! **stable external ids**. Merging is deterministic: a partial's content
//! after any interleaving of emits and merges depends only on the emitted
//! multiset (the k-nearest sink breaks distance ties by id).
//!
//! Four sinks ship today, one per non-classify [`OutputMode`]:
//!
//! | sink | partial | emit | answer |
//! |------|---------|------|--------|
//! | [`CollectSink`] | `Vec<id>` | push | matching ids |
//! | [`CountSink`] | `usize` | increment | match count |
//! | [`TopKNearestSink`] | bounded max-heap | push if nearer | k nearest matches to an origin |
//! | [`MaterializeSink`] | `Vec<id>` | read record, push | ids + payload checksum |
//!
//! `OutputMode::Classify` is *not* a sink — classification is defined on
//! the whole Voronoi diagram, not per accepted candidate — and is handled
//! where the single output-mode dispatch lives (the crate-private
//! `dispatch_sink`), the only `match` over [`OutputMode`] in the crate.

use crate::dynamic::DynamicQueryResult;
use crate::engine::QueryResult;
use crate::payload::RecordStore;
use crate::query::{OutputMode, QueryOutput};
use crate::shard::ShardedQueryOutput;
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

/// One accepted candidate, as handed to [`ResultSink::emit`].
#[derive(Clone, Copy, Debug)]
pub struct Emit<'a, I: SinkId> {
    /// The candidate's id in the caller's output space (global input
    /// index, or external id on the dynamic path).
    pub id: I,
    /// The candidate's index in the *executing* engine — the id its
    /// records live under in that engine's [`RecordStore`] (shard-local
    /// on a sharded engine; meaningless when `records` is `None`).
    pub local: u32,
    /// The candidate's coordinates.
    pub point: Point,
    /// The executing engine's record store, when it simulates payload
    /// records (`None` otherwise — e.g. the dynamic delta scan, whose
    /// buffered inserts have no stored records until compaction).
    pub records: Option<&'a RecordStore>,
}

/// A result sink: accepted candidates are emitted in, a mergeable partial
/// state comes out. See the [module docs](self) for the contract and the
/// shipped sinks.
///
/// Implementations are small `Copy` configuration values (the partial
/// carries all the data), shared freely across worker threads.
pub trait ResultSink<I: SinkId>: Copy + Send + Sync {
    /// The sink's mergeable partial result state. Batch workers, shards
    /// and delta scans each fill one; [`ResultSink::merge`] folds them.
    type Partial: Send;

    /// A fresh, empty partial.
    fn start(&self) -> Self::Partial;

    /// Folds one accepted candidate into `partial`. Called once per
    /// candidate that survived filter + refinement; `stats` is the
    /// executing run's counters (the materialising sink folds its record
    /// checksums into `stats.payload_checksum`).
    fn emit(&self, partial: &mut Self::Partial, item: &Emit<'_, I>, stats: &mut QueryStats);

    /// Folds `from` into `into`. The result is independent of merge
    /// order and of how emissions were distributed across partials.
    fn merge(&self, into: &mut Self::Partial, from: Self::Partial);

    /// Number of result items `partial` currently holds (what
    /// `QueryStats::result_size` reports for the run).
    fn result_len(&self, partial: &Self::Partial) -> usize;
}

/// One answer of the k-nearest-within-area sink: a matching point and its
/// exact squared distance to the query origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<I: SinkId = u32> {
    /// The matching point's id (global input index, or external id on the
    /// dynamic path).
    pub id: I,
    /// Exact squared Euclidean distance to the sink's origin.
    pub dist_sq: f64,
}

/// Squared Euclidean distance — the exact, deterministic ranking key of
/// [`TopKNearestSink`] (identical f64 operations on identical inputs, so
/// every execution path ranks identically).
#[inline]
fn dist_sq(origin: Point, p: Point) -> f64 {
    let dx = p.x - origin.x;
    let dy = p.y - origin.y;
    dx * dx + dy * dy
}

/// Max-heap entry ordered by `(dist_sq, id)` — the heap's top is the
/// *worst* kept neighbour (farthest, largest id on ties), which is what a
/// bounded k-nearest heap evicts first.
#[derive(Clone, Copy, Debug)]
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

/// Bounded max-heap over `(dist_sq, id)`: the partial state of
/// [`TopKNearestSink`]. Its content after any emit/merge interleaving is
/// exactly the k smallest entries of the emitted multiset under the total
/// `(dist_sq, id)` order — deterministic by construction.
#[derive(Clone, Debug, Default)]
pub struct TopKPartial<I: SinkId> {
    heap: BinaryHeap<HeapEntry<I>>,
}

impl<I: SinkId> TopKPartial<I> {
    fn push_bounded(&mut self, k: usize, e: HeapEntry<I>) {
        if k == 0 {
            return;
        }
        if self.heap.len() < k {
            self.heap.push(e);
        } else if let Some(top) = self.heap.peek() {
            if e < *top {
                self.heap.pop();
                self.heap.push(e);
            }
        }
    }

    /// The kept neighbours, ascending by `(dist_sq, id)`.
    fn into_sorted(self) -> Vec<Neighbor<I>> {
        let mut v: Vec<HeapEntry<I>> = self.heap.into_vec();
        v.sort_unstable();
        v.into_iter()
            .map(|e| Neighbor {
                id: e.id,
                dist_sq: e.dist_sq,
            })
            .collect()
    }
}

/// The collecting sink: the matching ids, in emission order
/// ([`OutputMode::Collect`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectSink;

impl<I: SinkId> ResultSink<I> for CollectSink {
    type Partial = Vec<I>;

    fn start(&self) -> Vec<I> {
        Vec::new()
    }

    #[inline]
    fn emit(&self, partial: &mut Vec<I>, item: &Emit<'_, I>, _stats: &mut QueryStats) {
        partial.push(item.id);
    }

    fn merge(&self, into: &mut Vec<I>, mut from: Vec<I>) {
        if into.is_empty() {
            *into = from;
        } else {
            into.append(&mut from);
        }
    }

    fn result_len(&self, partial: &Vec<I>) -> usize {
        partial.len()
    }
}

/// The counting sink: matches counted, nothing materialised
/// ([`OutputMode::Count`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountSink;

impl<I: SinkId> ResultSink<I> for CountSink {
    type Partial = usize;

    fn start(&self) -> usize {
        0
    }

    #[inline]
    fn emit(&self, partial: &mut usize, _item: &Emit<'_, I>, _stats: &mut QueryStats) {
        *partial += 1;
    }

    fn merge(&self, into: &mut usize, from: usize) {
        *into += from;
    }

    fn result_len(&self, partial: &usize) -> usize {
        *partial
    }
}

/// The kNN-within-area sink ([`OutputMode::TopKNearest`]): of the points
/// inside the area, keep the `k` nearest to `origin` by exact squared
/// Euclidean distance, ties broken by ascending id. A bounded max-heap,
/// merged across shards and delta buffers; `k = 0` keeps nothing.
#[derive(Clone, Copy, Debug)]
pub struct TopKNearestSink {
    /// How many nearest matches to keep.
    pub k: usize,
    /// The focus point distances are measured from (need not lie inside
    /// the area).
    pub origin: Point,
}

impl<I: SinkId> ResultSink<I> for TopKNearestSink {
    type Partial = TopKPartial<I>;

    fn start(&self) -> TopKPartial<I> {
        TopKPartial {
            heap: BinaryHeap::with_capacity(self.k.min(1024)),
        }
    }

    #[inline]
    fn emit(&self, partial: &mut TopKPartial<I>, item: &Emit<'_, I>, _stats: &mut QueryStats) {
        partial.push_bounded(
            self.k,
            HeapEntry {
                dist_sq: dist_sq(self.origin, item.point),
                id: item.id,
            },
        );
    }

    fn merge(&self, into: &mut TopKPartial<I>, from: TopKPartial<I>) {
        for e in from.heap {
            into.push_bounded(self.k, e);
        }
    }

    fn result_len(&self, partial: &TopKPartial<I>) -> usize {
        partial.heap.len()
    }
}

/// The payload-materialising sink ([`OutputMode::Materialize`]): collects
/// the matching ids *and* reads each accepted candidate's full record
/// through the executing engine's [`RecordStore`], folding the record
/// checksums into `QueryStats::payload_checksum` — the response-building
/// fetch a real GIS performs after validation. On engines without a
/// record store (or on delta-buffered points, which have no stored record
/// until compaction) it degrades to collection.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaterializeSink;

impl<I: SinkId> ResultSink<I> for MaterializeSink {
    type Partial = Vec<I>;

    fn start(&self) -> Vec<I> {
        Vec::new()
    }

    #[inline]
    fn emit(&self, partial: &mut Vec<I>, item: &Emit<'_, I>, stats: &mut QueryStats) {
        if let Some(rs) = item.records {
            stats.payload_checksum = stats.payload_checksum.wrapping_add(rs.read(item.local));
        }
        partial.push(item.id);
    }

    fn merge(&self, into: &mut Vec<I>, mut from: Vec<I>) {
        if into.is_empty() {
            *into = from;
        } else {
            into.append(&mut from);
        }
    }

    fn result_len(&self, partial: &Vec<I>) -> usize {
        partial.len()
    }
}

/// Finishers for the `u32` (global-input-index) id space: how a sink's
/// merged partial becomes a [`QueryOutput`] or fills a
/// [`ShardedQueryOutput`].
pub(crate) trait EngineSink: ResultSink<u32> {
    /// Wraps the finished partial as the funnel's [`QueryOutput`].
    /// `stats.result_size` has already been set from
    /// [`ResultSink::result_len`].
    fn finish_output(
        &self,
        partial: <Self as ResultSink<u32>>::Partial,
        stats: QueryStats,
    ) -> QueryOutput;

    /// Writes the merged partial into a sharded output (`indices` /
    /// `neighbors` / `count`, ids ascending).
    fn fold_sharded(&self, acc: <Self as ResultSink<u32>>::Partial, out: &mut ShardedQueryOutput);
}

/// Finishers for the `u64` (external-id) space: how a sink's merged
/// partial fills a [`DynamicQueryResult`].
pub(crate) trait DynamicSink: ResultSink<u64> {
    /// Writes the merged partial into a dynamic result (`ids` ascending,
    /// `neighbors` by ascending `(dist_sq, id)`).
    fn finish_dynamic(&self, acc: <Self as ResultSink<u64>>::Partial, out: &mut DynamicQueryResult);
}

impl EngineSink for CollectSink {
    fn finish_output(&self, partial: Vec<u32>, stats: QueryStats) -> QueryOutput {
        QueryOutput::Collected(QueryResult {
            indices: partial,
            stats,
        })
    }

    fn fold_sharded(&self, mut acc: Vec<u32>, out: &mut ShardedQueryOutput) {
        acc.sort_unstable();
        out.count = acc.len();
        out.indices = acc;
    }
}

impl DynamicSink for CollectSink {
    fn finish_dynamic(&self, mut acc: Vec<u64>, out: &mut DynamicQueryResult) {
        acc.sort_unstable();
        out.ids = acc;
    }
}

impl EngineSink for CountSink {
    fn finish_output(&self, partial: usize, stats: QueryStats) -> QueryOutput {
        QueryOutput::Counted {
            count: partial,
            stats,
        }
    }

    fn fold_sharded(&self, acc: usize, out: &mut ShardedQueryOutput) {
        out.count = acc;
    }
}

impl DynamicSink for CountSink {
    fn finish_dynamic(&self, _acc: usize, _out: &mut DynamicQueryResult) {
        // The count lives in `stats.result_size`; there are no ids to
        // materialise.
    }
}

impl EngineSink for TopKNearestSink {
    fn finish_output(&self, partial: TopKPartial<u32>, stats: QueryStats) -> QueryOutput {
        QueryOutput::TopK {
            neighbors: partial.into_sorted(),
            stats,
        }
    }

    fn fold_sharded(&self, acc: TopKPartial<u32>, out: &mut ShardedQueryOutput) {
        let neighbors = acc.into_sorted();
        out.count = neighbors.len();
        out.indices = neighbors.iter().map(|n| n.id).collect();
        out.indices.sort_unstable();
        out.neighbors = neighbors;
    }
}

impl DynamicSink for TopKNearestSink {
    fn finish_dynamic(&self, acc: TopKPartial<u64>, out: &mut DynamicQueryResult) {
        let neighbors = acc.into_sorted();
        out.ids = neighbors.iter().map(|n| n.id).collect();
        out.ids.sort_unstable();
        out.neighbors = neighbors;
    }
}

impl EngineSink for MaterializeSink {
    fn finish_output(&self, partial: Vec<u32>, stats: QueryStats) -> QueryOutput {
        QueryOutput::Materialized(QueryResult {
            indices: partial,
            stats,
        })
    }

    fn fold_sharded(&self, mut acc: Vec<u32>, out: &mut ShardedQueryOutput) {
        acc.sort_unstable();
        out.count = acc.len();
        out.indices = acc;
    }
}

impl DynamicSink for MaterializeSink {
    fn finish_dynamic(&self, mut acc: Vec<u64>, out: &mut DynamicQueryResult) {
        acc.sort_unstable();
        out.ids = acc;
    }
}

/// A computation generic over the sink kind: the funnel's execution paths
/// implement this once and [`dispatch_sink`] instantiates them per
/// concrete sink. `classify` is the non-sink escape hatch (classification
/// is whole-diagram, not per-candidate).
pub(crate) trait SinkVisitor: Sized {
    /// The computation's result type.
    type Out;

    /// Runs the computation with the concrete sink `kind`.
    fn visit<K: EngineSink + DynamicSink>(self, kind: K) -> Self::Out;

    /// Runs the non-sink classification output.
    fn classify(self) -> Self::Out;
}

/// **The one `OutputMode` dispatch in the crate**: maps the spec's output
/// mode to its concrete sink and hands it to the visitor. Every execution
/// path — single query, batch, dynamic, sharded — funnels through here;
/// adding a sink means adding an [`OutputMode`] variant, a sink type, and
/// one arm below.
pub(crate) fn dispatch_sink<V: SinkVisitor>(output: OutputMode, v: V) -> V::Out {
    match output {
        OutputMode::Collect => v.visit(CollectSink),
        OutputMode::Count => v.visit(CountSink),
        OutputMode::Classify => v.classify(),
        OutputMode::TopKNearest { k, origin } => v.visit(TopKNearestSink { k, origin }),
        OutputMode::Materialize => v.visit(MaterializeSink),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_item(id: u32, x: f64, y: f64) -> Emit<'static, u32> {
        Emit {
            id,
            local: id,
            point: Point::new(x, y),
            records: None,
        }
    }

    #[test]
    fn collect_and_count_partials_merge_by_concatenation_and_sum() {
        let c = CollectSink;
        let mut a: Vec<u32> = ResultSink::<u32>::start(&c);
        let mut b: Vec<u32> = ResultSink::<u32>::start(&c);
        let mut stats = QueryStats::default();
        c.emit(&mut a, &emit_item(3, 0.0, 0.0), &mut stats);
        c.emit(&mut b, &emit_item(1, 0.0, 0.0), &mut stats);
        c.emit(&mut b, &emit_item(2, 0.0, 0.0), &mut stats);
        c.merge(&mut a, b);
        assert_eq!(a, vec![3, 1, 2]);
        assert_eq!(ResultSink::<u32>::result_len(&c, &a), 3);

        let n = CountSink;
        let mut x: usize = ResultSink::<u32>::start(&n);
        n.emit(&mut x, &emit_item(9, 0.0, 0.0), &mut stats);
        ResultSink::<u32>::merge(&n, &mut x, 4);
        assert_eq!(x, 5);
    }

    #[test]
    fn topk_keeps_k_smallest_with_id_tiebreak_regardless_of_order() {
        let sink = TopKNearestSink {
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
        let mut stats = QueryStats::default();
        // All in one partial…
        let mut all: TopKPartial<u32> = ResultSink::<u32>::start(&sink);
        for &(id, x, y) in &items {
            sink.emit(&mut all, &emit_item(id, x, y), &mut stats);
        }
        let direct = all.into_sorted();
        // …vs split across two partials merged in either order.
        for split in 0..items.len() {
            for flip in [false, true] {
                let mut a: TopKPartial<u32> = ResultSink::<u32>::start(&sink);
                let mut b: TopKPartial<u32> = ResultSink::<u32>::start(&sink);
                for (i, &(id, x, y)) in items.iter().enumerate() {
                    let target = if i < split { &mut a } else { &mut b };
                    sink.emit(target, &emit_item(id, x, y), &mut stats);
                }
                let merged = if flip {
                    sink.merge(&mut b, a);
                    b
                } else {
                    sink.merge(&mut a, b);
                    a
                };
                assert_eq!(merged.into_sorted(), direct, "split {split}, flip {flip}");
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
        let sink = TopKNearestSink {
            k: 0,
            origin: Point::new(0.5, 0.5),
        };
        let mut p: TopKPartial<u32> = ResultSink::<u32>::start(&sink);
        let mut stats = QueryStats::default();
        sink.emit(&mut p, &emit_item(1, 0.5, 0.5), &mut stats);
        assert_eq!(ResultSink::<u32>::result_len(&sink, &p), 0);
        assert!(p.into_sorted().is_empty());
    }

    #[test]
    fn materialize_reads_records_and_folds_checksums() {
        let store = RecordStore::generate(4, 64, 0xABCD);
        let sink = MaterializeSink;
        let mut p: Vec<u32> = ResultSink::<u32>::start(&sink);
        let mut stats = QueryStats::default();
        for id in [2u32, 0] {
            sink.emit(
                &mut p,
                &Emit {
                    id,
                    local: id,
                    point: Point::new(0.0, 0.0),
                    records: Some(&store),
                },
                &mut stats,
            );
        }
        assert_eq!(p, vec![2, 0]);
        assert_eq!(
            stats.payload_checksum,
            store.read(2).wrapping_add(store.read(0))
        );
        // Without a store, it degrades to collection.
        let mut q: Vec<u32> = ResultSink::<u32>::start(&sink);
        let mut s2 = QueryStats::default();
        sink.emit(&mut q, &emit_item(7, 0.0, 0.0), &mut s2);
        assert_eq!(q, vec![7]);
        assert_eq!(s2.payload_checksum, 0);
    }
}
