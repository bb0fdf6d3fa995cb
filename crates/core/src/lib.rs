//! # sj-core
//!
//! The user-facing core of the spatial-joins workspace (see the
//! repository's DESIGN.md): the full [`sj_base`] foundation re-exported
//! under one roof, plus the [`technique`] registry that names, parses, and
//! constructs every join technique in the workspace.
//!
//! Foundation modules (from `sj-base` — technique crates build against
//! that crate directly so this one can depend on *them* without a cycle):
//!
//! - [`geom`] — points, velocity vectors, closed axis-aligned rectangles;
//! - [`table`] — the structure-of-arrays base table that every *secondary*
//!   index references through 4-byte [`table::EntryId`] handles;
//! - [`index`] — the sink-based [`index::SpatialIndex`] trait plus the
//!   ground-truth [`index::ScanIndex`];
//! - [`batch`] — the sink-based set-at-a-time [`batch::BatchJoin`] trait;
//! - [`driver`] — the tick loop (build → query → update) with per-phase
//!   timing, reproducing the Sowell et al. framework the paper builds on;
//! - [`par`] — the parallel query phase ([`par::ExecMode`]) selected via
//!   [`driver::DriverConfig::exec`] or a spec's `@par<N>` / `@tiles<N>`
//!   modifier;
//! - [`tile`] — the space-partitioning geometry behind `@tiles<N>`: the
//!   [`tile::TileGrid`], extent replication, and the reference-point
//!   dedup rule;
//! - [`rng`] — self-contained deterministic xoshiro256++;
//! - [`trace`] — memory-access tracing hooks consumed by `sj-memsim`;
//! - [`stats`] — numeric summaries for the benchmark harness.
//!
//! Capstone module:
//!
//! - [`technique`] — [`technique::Technique`] (an index *or* a batch join
//!   behind one `run` entry point), [`technique::TechniqueSpec`] (parsed
//!   from strings like `"grid:inline"` or `"sweep"`), and
//!   [`technique::registry`], the single source of truth every benchmark
//!   binary, example, and cross-technique test iterates.
//!
//! ## Querying: the sink API
//!
//! [`index::SpatialIndex::for_each_in`] is the required query method:
//! implementations emit each matching [`table::EntryId`] straight from
//! their scan loops. The `Vec`-collecting [`index::SpatialIndex::query`]
//! is a provided adapter on top:
//!
//! ```
//! use sj_core::{PointTable, Rect, ScanIndex, SpatialIndex};
//!
//! let mut t = PointTable::default();
//! t.push(1.0, 1.0);
//! t.push(9.0, 9.0);
//! let idx = ScanIndex::new();
//!
//! let mut count = 0u32;
//! idx.for_each_in(&t, &Rect::new(0.0, 0.0, 5.0, 5.0), &mut |_id| count += 1);
//! assert_eq!(count, 1);
//!
//! let mut hits = Vec::new(); // the adapter, when a buffer is wanted
//! idx.query(&t, &Rect::new(0.0, 0.0, 5.0, 5.0), &mut hits);
//! assert_eq!(hits, vec![0]);
//! ```
//!
//! Batch joins stream the same way: [`batch::BatchJoin::join`] calls its
//! sink once per `(querier, row)` pair and has no buffer-collecting
//! adapter; a caller that wants the pairs pushes them itself:
//!
//! ```
//! use sj_core::{BatchJoin, NaiveBatchJoin, PointTable, Rect};
//!
//! let mut t = PointTable::default();
//! t.push(1.0, 1.0);
//! t.push(9.0, 9.0);
//! let queries = [(7, Rect::new(0.0, 0.0, 5.0, 5.0))];
//!
//! let mut pairs = Vec::new();
//! NaiveBatchJoin.join(&t, &queries, &mut |q, r| pairs.push((q, r)));
//! assert_eq!(pairs, vec![(7, 0)]);
//! ```
//!
//! A custom `BatchJoin` written against the earlier buffer API migrates
//! by taking `emit: &mut dyn FnMut(EntryId, EntryId)` where it took
//! `out: &mut Vec<(EntryId, EntryId)>`: `out.push((q, r))` becomes
//! `emit(q, r)`.

pub use sj_base::{batch, bucket, driver, geom, index, par, rng, simd, stats, table, tile, trace};

pub mod technique;

pub use batch::{BatchJoin, NaiveBatchJoin};
pub use driver::{
    run_batch_join, run_bipartite_batch_join, run_bipartite_join, run_intersect_batch_join,
    run_intersect_join, run_join, DriverConfig, ExtentTickActions, ExtentWorkload, RunStats,
    TickActions, TickTimes, Workload,
};
pub use geom::{Point, Rect, Vec2};
pub use index::{ScanIndex, SpatialIndex};
pub use par::ExecMode;
pub use table::{EntryId, ExtentTable, Moving, MovingExtentSet, MovingSet, PointTable, Table};
pub use technique::{registry, ParseSpecError, Technique, TechniqueKind, TechniqueSpec};
