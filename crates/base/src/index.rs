//! The spatial-index abstraction shared by every join technique.

use crate::geom::Rect;
use crate::table::{entry_id, EntryId, ExtentTable, PointTable};

/// A static secondary index over a [`PointTable`], in the paper's *static
/// index nested loop join* category: the index is rebuilt from the base
/// table every tick and probed once per range query.
///
/// The required query method is the sink-based [`SpatialIndex::for_each_in`]:
/// implementations invoke `emit` once per matching row, straight from their
/// scan loops, so the driver can fold results into its checksum without
/// materializing a candidate buffer — buffer traffic is exactly the kind of
/// implementation detail the paper shows dominating in main memory. The
/// `Vec`-collecting [`SpatialIndex::query`] is a provided adapter on top.
pub trait SpatialIndex {
    /// Short display name used in benchmark tables ("Simple Grid", …).
    fn name(&self) -> &str;

    /// Rebuild the index from the base table, reusing internal buffers
    /// wherever possible (rebuild cost is Table 2's "Build" column, so
    /// avoidable allocation would distort the measurement).
    fn build(&mut self, table: &PointTable);

    /// Range query: call `emit` with the handle of every row whose point
    /// lies in `region` (closed-rectangle semantics), in **no particular
    /// order**. `table` is the same base table passed to the most recent
    /// [`SpatialIndex::build`]; secondary indexes dereference entry handles
    /// into it when they must filter candidates exactly.
    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId));

    /// Range query collecting the matches into `out` (appended, in no
    /// particular order). Provided adapter over
    /// [`SpatialIndex::for_each_in`]; callers that need determinism across
    /// techniques sort the buffer.
    fn query(&self, table: &PointTable, region: &Rect, out: &mut Vec<EntryId>) {
        self.for_each_in(table, region, &mut |e| out.push(e));
    }

    /// Bytes of index memory held after the last build, excluding the base
    /// table.
    ///
    /// **Convention: allocated capacity.** Every implementation counts the
    /// bytes its owned allocations actually hold resident (`Vec::capacity`,
    /// not `len`) — directory, arenas, nodes, scratch that survives the
    /// build. Before this was pinned down, implementations mixed live-`len`
    /// and capacity accounting (and one counted a liveness bitmap the
    /// others didn't), so footprints were not comparable across techniques.
    /// Capacity is the honest answer to "what does it cost to keep this
    /// index around": reused arenas keep their high-water mark between
    /// builds, and that memory is held whether or not the last build filled
    /// it.
    ///
    /// Two invariants the registry-wide sanity test
    /// (`tests/memory_accounting.rs`) pins for every index technique:
    /// the result is **> 0** after a build over a non-empty table (except
    /// for [`ScanIndex`], which owns nothing and reports 0), and it is
    /// **monotone** in the population for freshly built instances.
    ///
    /// The paper's §3.1 *live structure* arithmetic (bytes per point at a
    /// given bucket size) is a different quantity; the grid keeps it
    /// available as `SimpleGrid::live_bytes`.
    fn memory_bytes(&self) -> usize;

    /// Whether this index implements the **intersects** predicate over
    /// extent entries — the second axis of the join predicate
    /// (`within-range` over points | `intersects` over rectangles). The
    /// default is `false`: point-only techniques need no change, and the
    /// driver refuses to route an intersection join through them. An
    /// implementation returning `true` must override both
    /// [`SpatialIndex::build_extents`] and
    /// [`SpatialIndex::for_each_intersecting`].
    fn supports_intersect(&self) -> bool {
        false
    }

    /// Rebuild the index from an extent base table — the `intersects`
    /// counterpart of [`SpatialIndex::build`]. Only called when
    /// [`SpatialIndex::supports_intersect`] is `true`; the default
    /// panics so a missing override cannot silently return empty joins.
    fn build_extents(&mut self, _table: &ExtentTable) {
        panic!("{}: no intersects-predicate support", self.name());
    }

    /// Intersection query: call `emit` with the handle of every live row
    /// whose rectangle intersects `region` (closed semantics — touching
    /// edges do intersect), in no particular order. `table` is the table
    /// passed to the most recent [`SpatialIndex::build_extents`]. Only
    /// called when [`SpatialIndex::supports_intersect`] is `true`.
    fn for_each_intersecting(
        &self,
        _table: &ExtentTable,
        _region: &Rect,
        _emit: &mut dyn FnMut(EntryId),
    ) {
        panic!("{}: no intersects-predicate support", self.name());
    }

    /// Fit this tile fork before a tiled build to `region`, its tile
    /// clipped to its replica's bounding box, and `share`, the replica's
    /// fraction of the tick's live rows. Rows may lie outside `region` (a
    /// replicated rectangle's corner, a point `tile_of` and `tile_bounds`
    /// round apart). `crate::par::tiled_index_build` calls it before every
    /// tile build, as `@tilesauto` re-tiles every tick while forks
    /// persist. The default keeps the sequential shape.
    fn fit_tile(&mut self, _region: &Rect, _share: f64) {}

    /// An independent instance of this technique for a space-partitioned
    /// tile worker (see `crate::par::tiled_index_build`): same
    /// configuration and tuning parameters, fresh private state, nothing
    /// shared with `self`. Mirrors [`crate::batch::BatchJoin::fork`];
    /// implementations typically reconstruct from their stored
    /// configuration, so forking a never-built prototype is cheap. `Sync`
    /// because the pooled mini-join scheduler may probe one tile's fork
    /// from several workers at once — like the prototype itself, forks are
    /// plain data once built.
    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync>;
}

/// Ground-truth "index": a full scan of the base table. Quadratic in the
/// join, useless for performance — but every other technique is tested and
/// property-checked against it.
#[derive(Debug, Default, Clone)]
pub struct ScanIndex;

impl ScanIndex {
    pub fn new() -> Self {
        ScanIndex
    }
}

impl SpatialIndex for ScanIndex {
    fn name(&self) -> &str {
        "Full Scan"
    }

    fn build(&mut self, _table: &PointTable) {}

    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        // The scan is the ground truth the kernels are tested against, so
        // it runs no kernel: one scalar loop, which also skips the
        // tombstones churn workloads leave in the table.
        let (xs, ys, live) = (table.xs(), table.ys(), table.live_mask());
        for i in 0..xs.len() {
            if live[i] && region.contains_point(xs[i], ys[i]) {
                emit(entry_id(i));
            }
        }
    }

    fn supports_intersect(&self) -> bool {
        true
    }

    fn build_extents(&mut self, _table: &ExtentTable) {}

    fn for_each_intersecting(
        &self,
        table: &ExtentTable,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        let (x1s, y1s) = (table.x1s(), table.y1s());
        let (x2s, y2s) = (table.x2s(), table.y2s());
        let live = table.live_mask();
        for i in 0..x1s.len() {
            let row = Rect {
                x1: x1s[i],
                y1: y1s[i],
                x2: x2s[i],
                y2: y2s[i],
            };
            if live[i] && region.intersects(&row) {
                emit(entry_id(i));
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        // The scan owns no allocation at all — the one legitimate zero
        // under the allocated-capacity convention.
        0
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        Box::new(ScanIndex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn sample_table() -> PointTable {
        let mut t = PointTable::default();
        for (x, y) in [(0.0, 0.0), (5.0, 5.0), (10.0, 10.0), (5.0, 20.0)] {
            t.push(x, y);
        }
        t
    }

    #[test]
    fn scan_finds_exactly_the_contained_points() {
        let t = sample_table();
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.query(&t, &Rect::new(4.0, 4.0, 11.0, 11.0), &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn scan_includes_boundary_points() {
        let t = sample_table();
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.query(&t, &Rect::new(0.0, 0.0, 5.0, 5.0), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn empty_region_matches_point_on_it() {
        let t = sample_table();
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.query(&t, &Rect::new(5.0, 5.0, 5.0, 5.0), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn dead_rows_are_never_reported() {
        let mut t = sample_table();
        t.remove(1);
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.query(&t, &Rect::new(0.0, 0.0, 20.0, 20.0), &mut out);
        assert_eq!(out, vec![0, 2, 3]);
    }

    fn sample_extents() -> ExtentTable {
        let mut t = ExtentTable::default();
        for (x1, y1, x2, y2) in [
            (0.0, 0.0, 2.0, 2.0),
            (4.0, 4.0, 6.0, 6.0),
            (10.0, 10.0, 12.0, 12.0),
            (5.0, 20.0, 7.0, 22.0),
        ] {
            t.push(Rect::new(x1, y1, x2, y2));
        }
        t
    }

    #[test]
    fn scan_intersects_finds_exactly_the_overlapping_rects() {
        let t = sample_extents();
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.for_each_intersecting(&t, &Rect::new(5.0, 5.0, 11.0, 11.0), &mut |e| out.push(e));
        assert_eq!(out, vec![1, 2]);
        // Touching edges intersect: the query corner meets rect 0's corner.
        out.clear();
        idx.for_each_intersecting(&t, &Rect::new(2.0, 2.0, 3.0, 3.0), &mut |e| out.push(e));
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn scan_intersects_skips_dead_rows() {
        let mut t = sample_extents();
        t.remove(1);
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.for_each_intersecting(&t, &Rect::new(0.0, 0.0, 30.0, 30.0), &mut |e| out.push(e));
        assert_eq!(out, vec![0, 2, 3]);
    }

    #[test]
    fn scan_advertises_intersect_support() {
        assert!(ScanIndex::new().supports_intersect());
        assert!(ScanIndex::new().fork().supports_intersect());
    }

    #[test]
    fn query_centered_on_nothing_is_empty() {
        let t = sample_table();
        let idx = ScanIndex::new();
        let mut out = Vec::new();
        idx.query(
            &t,
            &Rect::centered_square(Point::new(100.0, 100.0), 4.0),
            &mut out,
        );
        assert!(out.is_empty());
    }
}
