//! # vaq-workload — experiment machinery
//!
//! Everything needed to reproduce the evaluation section of *Area Queries
//! Based on Voronoi Diagrams* (ICDE 2020):
//!
//! * [`datagen`] — seeded point-set generators (uniform — the paper's
//!   implied distribution — plus clustered and grid for ablations);
//! * [`polygen`] — the paper's random 10-vertex query polygons, rescaled
//!   to an exact "query size" (MBR area as a fraction of the space);
//! * [`experiment`] — the Table I (data-size) and Table II (query-size)
//!   sweeps with mean-of-repetitions measurement;
//! * [`report`] — CSV and markdown rendering in the paper's table layout;
//! * [`io`] — CSV point sets and WKT polygons/regions, for running the
//!   engine on external data.
//!
//! ```
//! use vaq_workload::datagen::{generate, Distribution};
//! use vaq_workload::experiment::{build_engine, run_config, SweepConfig};
//!
//! let cfg = SweepConfig { reps: 5, ..SweepConfig::default() };
//! let engine = build_engine(2000, &cfg);
//! let row = run_config(&engine, 0.02, &cfg);
//! assert!(row.traditional.candidates >= row.result_size);
//! let _ = generate(10, Distribution::Uniform, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datagen;
pub mod experiment;
pub mod io;
pub mod polygen;
pub mod report;

pub use datagen::{generate, generate_weights, unit_space, Distribution, WeightDistribution};
pub use experiment::{
    build_engine, data_size_sweep, paper_data_sizes, paper_query_sizes, query_size_sweep,
    run_config, ConfigResult, MethodMeasurement, SweepConfig,
};
pub use polygen::{mixed_query_polygons, random_query_polygon, PolygonSpec};
