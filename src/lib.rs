//! # spatial-joins
//!
//! Main-memory iterated spatial joins — a faithful Rust reproduction of
//! **Šidlauskas & Jensen, "Spatial Joins in Main Memory: Implementation
//! Matters!" (PVLDB 7(1), 2014)**, including the full experimental
//! framework of the underlying study (Sowell et al., PVLDB 2013).
//!
//! The crate re-exports the workspace members:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | geometry, base tables, [`core::SpatialIndex`], the tick driver, and [`technique`] |
//! | [`technique`] | the unified registry: [`technique::Technique`], [`technique::TechniqueSpec`] |
//! | [`workload`] | the workload registry ([`workload::WorkloadSpec`], [`workload::workload_registry`]): uniform & Gaussian (Table 1), road grid, and churn variants |
//! | [`grid`] | Simple Grid: original and refactored layouts, Algorithms 1 & 2 |
//! | [`rtree`] | STR-packed R-tree (+ incremental Guttman extension) |
//! | [`crtree`] | cache-conscious CR-tree with quantized relative MBRs |
//! | [`kdtrie`] | linearized KD-trie over radix-sorted interleaved codes |
//! | [`binsearch`] | the Binary Search baseline |
//! | [`twolayer`] | the two-layer partitioning join (per-cell A/B/C/D classes for rects, home cells for points, no dedup) |
//! | [`memsim`] | simulated cache hierarchy for the Table 3 profile |
//!
//! ## Quickstart: the technique registry
//!
//! Every join technique — index nested loop *and* the index-free plane
//! sweep — sits behind one interface. Build any of them from a spec
//! string and run it:
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let params = WorkloadParams { num_points: 10_000, ticks: 3, ..Default::default() };
//! let mut workload = UniformWorkload::new(params);
//!
//! // The paper's winner: the refactored, re-tuned Simple Grid.
//! let mut tech = Technique::from_spec("grid:inline", params.space_side).unwrap();
//! let stats = tech.run(&mut workload, DriverConfig::new(3, 1));
//! assert!(stats.result_pairs > 0);
//!
//! // Or iterate everything the workspace implements:
//! for spec in registry() {
//!     println!("{:16} {}", spec.name(), spec.label());
//! }
//! ```
//!
//! ## Workloads are first-class too
//!
//! Workloads mirror the technique registry: parse a spec string
//! (`"uniform"`, `"gaussian:h3"`, `"roadgrid"`, `"churn:uniform"`, …),
//! build it over shared Table 1 parameters, and sweep
//! [`workload::workload_registry`] for the full technique × workload
//! matrix. `churn:*` specs add deterministic population turnover —
//! arrivals and departures applied in the update phase, with departed
//! rows tombstoned so surviving [`core::EntryId`]s never shift:
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let params = WorkloadParams { num_points: 2_000, ticks: 3, ..Default::default() };
//! let mut churned = WorkloadSpec::parse("churn:uniform").unwrap().build(params);
//! let mut tech = Technique::from_spec("grid:incremental", params.space_side).unwrap();
//! let stats = tech.run(&mut *churned, DriverConfig::new(3, 1));
//! assert!(stats.removals > 0 && stats.inserts > 0);
//! ```
//!
//! ## Bipartite joins (R ⋈ S)
//!
//! The paper only ever joins a moving set with itself; the driver also
//! supports the canonical two-dataset setting of the related work: an
//! independent query relation R probing an index built over a data
//! relation S, each driven by its own workload (churn included). The
//! shape is registry-addressable through [`workload::JoinSpec`]
//! (`"self"`, `"bipartite:uniformxgaussian:h3:ratio10"`), and the
//! self-join is exactly the degenerate R = S case — same code path, same
//! checksums:
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let params = WorkloadParams { num_points: 2_000, ticks: 3, ..Default::default() };
//! let spec = JoinSpec::parse("bipartite:uniformxgaussian:h3:ratio10").unwrap();
//! let (mut r, mut s) = spec.build_pair(params).unwrap();
//! let mut tech = Technique::from_spec("grid:inline", params.space_side).unwrap();
//! let stats = tech.run_bipartite(&mut *r, &mut *s, DriverConfig::new(3, 1));
//! assert!(stats.result_pairs > 0);
//! ```
//!
//! ## Intersection joins over extents
//!
//! Entries can be rectangles, not just points: [`core::ExtentTable`]
//! stores them in the same tombstoned SoA layout as [`core::PointTable`],
//! and the **intersects** predicate (closed boundaries — touching edges
//! match) is a second join axis next to the paper's within-range
//! predicate. `JoinSpec::parse("intersect:rects")` names the moving-
//! rectangle workload, and the techniques that implement the predicate —
//! the scan, every Simple Grid stage, and the `twolayer` partitioning
//! join (arXiv:2307.09256: per-cell A/B/C/D corner classes, each
//! intersecting pair emitted exactly once with zero deduplication) —
//! agree bit for bit, under every execution mode:
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let params = WorkloadParams { num_points: 2_000, ticks: 3, ..Default::default() };
//! let mut rects = JoinSpec::parse("intersect:rects").unwrap()
//!     .build_extents(params).unwrap();
//! let mut tech = Technique::from_spec("twolayer", params.space_side).unwrap();
//! let stats = tech.run_intersect(&mut *rects, DriverConfig::new(3, 1));
//! assert!(stats.result_pairs > 0);
//! ```
//!
//! ## Parallel execution
//!
//! Every registry technique — both join categories — can shard its query
//! phase over threads; build and update phases stay sequential, so the
//! tick semantics (and the join itself) are bit-identical to the
//! single-threaded run. Select it per run via [`core::DriverConfig`]'s
//! `exec` field, or per spec with the `@par<N>` modifier:
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let params = WorkloadParams { num_points: 5_000, ticks: 2, ..Default::default() };
//! let cfg = DriverConfig::new(2, 0);
//!
//! let seq = Technique::from_spec("grid:inline", params.space_side).unwrap()
//!     .run(&mut UniformWorkload::new(params), cfg);
//! // Same technique, query phase over 4 workers — two equivalent spellings:
//! let par = Technique::from_spec("grid:inline@par4", params.space_side).unwrap()
//!     .run(&mut UniformWorkload::new(params), cfg);
//! let via_cfg = Technique::from_spec("grid:inline", params.space_side).unwrap()
//!     .run(&mut UniformWorkload::new(params), cfg.with_exec(ExecMode::parallel(4).unwrap()));
//!
//! assert_eq!(seq.checksum, par.checksum);
//! assert_eq!(seq.checksum, via_cfg.checksum);
//! ```
//!
//! ## Queries are sinks
//!
//! [`core::SpatialIndex`]'s required query method is `for_each_in`, which
//! emits each matching [`core::EntryId`] straight from the index's scan
//! loop — the driver folds join pairs into its checksum with zero
//! per-query materialization. The buffer-collecting `query` is a provided
//! adapter:
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let mut table = PointTable::default();
//! table.push(1.0, 1.0);
//! let mut grid = SimpleGrid::tuned(1000.0);
//! grid.build(&table);
//!
//! let region = Rect::new(0.0, 0.0, 10.0, 10.0);
//! let mut count = 0;
//! grid.for_each_in(&table, &region, &mut |_id| count += 1); // sink form
//! let mut hits = Vec::new();
//! grid.query(&table, &region, &mut hits); // adapter, same matches
//! assert_eq!(count as usize, hits.len());
//! ```
//!
//! ### Migrating from the pre-registry API
//!
//! `SpatialIndex::query` used to be the required method. It still exists
//! with the identical signature — callers are unaffected — but it is now
//! provided on top of `for_each_in`, which is what implementations must
//! define: rename your `query(&self, table, region, out)` to
//! `for_each_in(&self, table, region, emit)` and replace each
//! `out.push(id)` with `emit(id)`. Hand-maintained technique lists are
//! superseded by [`technique::registry`].
//!
//! ### Batch joins are sinks too
//!
//! [`core::BatchJoin::join`] and `join_extents` call `emit(querier, row)`
//! once per pair; the driver folds each pair as it is emitted, so no
//! tick's pairs are buffered in any exec mode. A custom `BatchJoin`
//! migrates by taking `emit: &mut dyn FnMut(EntryId, EntryId)` instead of
//! `out: &mut Vec<(EntryId, EntryId)>`: `out.push((q, r))` becomes
//! `emit(q, r)`. `join_two` is gone; a bipartite join calls `join` over
//! the data relation.
//!
//! ```
//! use spatial_joins::prelude::*;
//!
//! let mut table = PointTable::default();
//! table.push(50.0, 50.0);
//! let queries = [(3, Rect::new(0.0, 0.0, 100.0, 100.0))];
//! let mut pairs = 0;
//! PlaneSweepJoin::new().join(&table, &queries, &mut |_q, _r| pairs += 1);
//! assert_eq!(pairs, 1);
//! ```

pub use sj_core as core;
pub use sj_core::technique;

pub use sj_binsearch as binsearch;
pub use sj_crtree as crtree;
pub use sj_grid as grid;
pub use sj_kdtrie as kdtrie;
pub use sj_memsim as memsim;
pub use sj_quadtree as quadtree;
pub use sj_rtree as rtree;
pub use sj_sweep as sweep;
pub use sj_twolayer as twolayer;
pub use sj_workload as workload;

/// The common imports for applications: the registry, every index, the
/// driver, and the workload generators.
pub mod prelude {
    pub use sj_binsearch::{BinarySearchJoin, VecSearchJoin};
    pub use sj_core::batch::{BatchJoin, NaiveBatchJoin};
    pub use sj_core::driver::{
        run_batch_join, run_bipartite_batch_join, run_bipartite_join, run_intersect_batch_join,
        run_intersect_join, run_join, DriverConfig, ExtentTickActions, ExtentWorkload, RunStats,
        Workload,
    };
    pub use sj_core::geom::{Point, Rect, Vec2};
    pub use sj_core::index::{ScanIndex, SpatialIndex};
    pub use sj_core::par::ExecMode;
    pub use sj_core::table::{
        EntryId, ExtentTable, Moving, MovingExtentSet, MovingSet, PointTable, Table,
    };
    pub use sj_core::technique::{registry, Technique, TechniqueKind, TechniqueSpec};
    pub use sj_crtree::CRTree;
    pub use sj_grid::{GridConfig, IncrementalGrid, Layout, QueryAlgo, SimpleGrid, Stage};
    pub use sj_kdtrie::LinearKdTrie;
    pub use sj_memsim::{CacheSim, CpiModel};
    pub use sj_quadtree::QuadTree;
    pub use sj_rtree::{DynRTree, RTree};
    pub use sj_sweep::PlaneSweepJoin;
    pub use sj_twolayer::TwoLayerJoin;
    pub use sj_workload::{
        workload_registry, ChurnParams, ChurnWorkload, GaussianParams, GaussianWorkload, JoinSpec,
        RectsWorkload, RoadGridWorkload, UniformWorkload, WorkloadKind, WorkloadParams,
        WorkloadSpec,
    };
}
