//! # sj-base
//!
//! Foundation layer of the spatial-joins workspace (see DESIGN.md §1):
//! everything the individual join-technique crates need, and nothing that
//! depends on them. The user-facing `sj-core` crate re-exports all of this
//! and adds the technique registry on top — downstream code should import
//! `sj_core`, while technique implementations build against `sj_base` so
//! the registry can depend on *them* without a cycle.
//!
//! - [`geom`] — points, velocity vectors, closed axis-aligned rectangles;
//! - [`table`] — the structure-of-arrays base table that every *secondary*
//!   index references through 4-byte [`table::EntryId`] handles;
//! - [`index`] — the sink-based [`index::SpatialIndex`] trait plus the
//!   ground-truth [`index::ScanIndex`];
//! - [`batch`] — the set-at-a-time [`batch::BatchJoin`] trait;
//! - [`bucket`] — the flat cell store: ids counting-sorted into buckets;
//! - [`driver`] — the tick loop (build → query → update) with per-phase
//!   timing, reproducing the Sowell et al. framework the paper builds on;
//! - [`par`] — the non-sequential query phases ([`par::ExecMode`]: sharded
//!   per-query probing, strip-partitioned batch joins, and space-partitioned
//!   tiled execution) the driver runs under [`driver::DriverConfig::exec`];
//! - [`tile`] — the tiling geometry behind [`par::ExecMode::Partitioned`]:
//!   the [`tile::TileGrid`], extent replication, and the reference-point
//!   deduplication rule (DESIGN.md §13);
//! - [`rng`] — self-contained deterministic xoshiro256++;
//! - [`trace`] — memory-access tracing hooks consumed by `sj-memsim`;
//! - [`stats`] — numeric summaries for the benchmark harness.

pub mod batch;
pub mod bucket;
pub mod driver;
pub mod geom;
pub mod index;
pub mod par;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod table;
pub mod tile;
pub mod trace;

pub use batch::{BatchJoin, NaiveBatchJoin};
pub use driver::{
    run_batch_join, run_intersect_batch_join, run_intersect_join, run_join, DriverConfig,
    ExtentTickActions, ExtentWorkload, RunStats, TickActions, TickTimes, Workload,
};
pub use geom::{Point, Rect, Vec2};
pub use index::{ScanIndex, SpatialIndex};
pub use par::ExecMode;
pub use table::{EntryId, ExtentTable, Moving, MovingExtentSet, MovingSet, PointTable, Table};
pub use tile::TileGrid;
