//! # vaq-core — the area-query engine
//!
//! The primary contribution of *Area Queries Based on Voronoi Diagrams*
//! (ICDE 2020), reproduced in full, next to the traditional baseline it is
//! evaluated against.
//!
//! An **area query** returns every point of a set `P` contained in a given
//! closed polygon `A`. Two implementations:
//!
//! * **Traditional filter–refine** (module [`traditional`]): window
//!   query with `MBR(A)` on the R-tree, then exact validation of each
//!   candidate. Candidates ≈ all points in the MBR, so irregular areas
//!   validate mostly garbage.
//! * **Voronoi-based incremental generation** ([`voronoi_area_query`],
//!   module [`voronoi_query`] — the paper's Algorithm 1): seed with the
//!   nearest site to a point of `A` (an R-tree NN query — the paper uses
//!   the same index for both methods), then BFS over Voronoi neighbours,
//!   expanding from outside-points only across the area boundary.
//!   Candidates = internal points + a one-cell-thick boundary ring.
//!
//! [`AreaQueryEngine`] packages both behind **one query surface**: a
//! [`QuerySpec`] names a point in the evaluation grid (method × expansion
//! policy × prepare mode × output shape) and a [`QuerySession`] executes
//! it, owning the reusable scratch, a bounded LRU **prepared-area
//! cache** for dashboard-style repeated queries and a calibrating
//! planner. A brute-force oracle
//! runs through the same funnel. The paper's Section III point
//! classification ([`classify`]) is defined on one whole diagram, so it
//! is a method of the plain engine, [`AreaQueryEngine::classify`], not a
//! query. Callers who'd rather not pick a strategy ask for
//! [`QuerySpec::auto()`]: the cost-model planner (module [`plan`])
//! resolves method, expansion policy and prepare mode per query and
//! records its decision as an [`ExecutionPlan`] in the stats. What
//! happens to each accepted candidate — collect, count, keep the k
//! nearest, materialise its record — is the spec's output shape, a plain
//! value every execution path emits into (module [`sink`]).
//!
//! Three engines share that surface: [`AreaQueryEngine`] over one
//! diagram (Euclidean, or a power diagram of weighted sites);
//! [`ShardedAreaQueryEngine`], a kd partition of plain engines built by
//! [`EngineBuilder::build_sharded`] with the same weight and payload
//! options; and [`DynamicAreaQueryEngine`], a Euclidean base with an
//! insert/delete overlay. Every [`QuerySpec`] runs on every engine. One
//! step plans and prepares every query's area (module [`batch`]): a
//! session and the dynamic engine run it as the batch executor's
//! one-area, one-part case, and both engines' batches run it per area,
//! with the plain engine as one part and the sharded engine's shards as
//! parts. Module [`snapshot`] saves and loads all three.
//!
//! ## Quick start
//!
//! ```
//! use vaq_core::{AreaQueryEngine, OutputMode, PrepareMode, QuerySpec};
//! use vaq_geom::{Point, Polygon, Rect};
//!
//! // A tiny dataset and a concave query area.
//! let pts: Vec<Point> = (0..100)
//!     .map(|i| Point::new((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0))
//!     .collect();
//! let area = Polygon::new(vec![
//!     Point::new(0.05, 0.05),
//!     Point::new(0.85, 0.10),
//!     Point::new(0.30, 0.35),   // concave notch
//!     Point::new(0.40, 0.85),
//! ]).unwrap();
//!
//! let engine = AreaQueryEngine::build(&pts);
//! let mut session = engine.session();
//!
//! // The paper's two methods are one field apart.
//! let voronoi = session.execute(&QuerySpec::voronoi(), &area);
//! let traditional = session.execute(&QuerySpec::traditional(), &area);
//! let result = voronoi.result().unwrap();
//! assert_eq!(
//!     result.sorted_indices(),
//!     traditional.result().unwrap().sorted_indices(),
//! );
//! println!(
//!     "result {} candidates {} redundant {}",
//!     result.stats.result_size,
//!     result.stats.candidates,
//!     result.stats.redundant_validations(),
//! );
//!
//! // Counts, window queries and cached prepared areas ride the same
//! // funnel: same seeding, same counters, bit-identical answers.
//! let spec = QuerySpec::voronoi()
//!     .prepare(PrepareMode::Cached)
//!     .output(OutputMode::Count);
//! let n = session.execute(&spec, &area).count();
//! assert_eq!(n, result.indices.len());
//! assert_eq!(session.execute(&spec, &area).stats().prepared_cache.hits, 1);
//! let window = Rect::new(Point::new(0.0, 0.0), Point::new(0.55, 0.55));
//! assert_eq!(session.execute(&spec, &window).count(), 36);
//!
//! // Batches fan out over a shared work-stealing index.
//! let areas = vec![area.clone(), area];
//! let outs = engine.execute_batch(&QuerySpec::voronoi(), &areas, 2);
//! assert_eq!(outs[0].count(), outs[1].count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod batch;
pub mod classify;
pub mod dynamic;
pub mod engine;
pub mod payload;
pub mod plan;
pub mod query;
pub mod scratch;
pub mod shard;
pub mod sink;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod traditional;
pub mod voronoi_query;

pub use area::{AreaFingerprint, QueryArea};
pub use classify::PointClass;
pub use dynamic::{DynamicAreaQueryEngine, DynamicQueryResult};
pub use engine::{AreaQueryEngine, EngineBuilder, QueryResult};
pub use payload::{RecordStore, RecordStoreError};
pub use plan::{DensityMap, ExecutionPlan, PlanFeatures, PlannedPath, Planner};
pub use query::{
    MethodChoice, OutputMode, PrepareMode, QueryMethod, QueryOutput, QuerySession, QuerySpec,
    DEFAULT_CACHE_CAPACITY,
};
pub use scratch::QueryScratch;
pub use shard::{ShardBreakdown, ShardedAreaQueryEngine, ShardedQueryOutput};
pub use sink::{Neighbor, SinkId};
pub use snapshot::{LoadedEngine, SnapshotError, SnapshotInfo, SnapshotKind, SNAPSHOT_VERSION};
pub use stats::{CacheCounters, PredicateCounters, QueryStats};
pub use voronoi_query::{voronoi_area_query, ExpansionPolicy};
