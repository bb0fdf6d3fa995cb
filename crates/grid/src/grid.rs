//! The Simple Grid index: a uniform grid over the data space, with the
//! paper's original and refactored realizations selectable via
//! [`GridConfig`].
//!
//! > "This index partitions space uniformly into a fixed number of cells
//! > stored as a two-dimensional array. Each cell contains a pointer to a
//! > linked list of buckets storing the points that fall within that cell.
//! > The search algorithm must examine every cell that intersects the
//! > query region." — paper §3, quoting the original study.
//!
//! A sequential grid keeps the paper's `cps × cps` directory over the
//! whole space. A tile fork under `@tiles` is fitted to its own rows
//! ([`SpatialIndex::fit_tile`]): about `cps² · share` square cells over
//! the occupied part of its tile, for its share of the live rows, with
//! open-ended edge cells.

use sj_base::bucket::BucketSort;
use sj_base::geom::Rect;
use sj_base::index::SpatialIndex;
use sj_base::simd::gather_overlap_each;
use sj_base::table::{entry_id, EntryId, ExtentTable, PointTable};
use sj_base::trace::{NullTracer, Tracer};

use crate::config::{GridConfig, Layout, QueryAlgo, Stage};
use crate::layout_inline::InlineStore;
use crate::layout_original::OriginalStore;

enum Store {
    Original(OriginalStore),
    Inline(InlineStore),
    InlineCoords(InlineStore<2>),
}

/// One axis of the cell directory: cells `first..first + cells` of the
/// lattice of `cell_size`-wide cells from 0.
#[derive(Clone, Copy)]
struct Axis {
    first: u32,
    cells: u32,
}

/// See module docs.
///
/// ```
/// use sj_base::{PointTable, Rect, SpatialIndex};
/// use sj_grid::SimpleGrid;
///
/// let mut table = PointTable::default();
/// table.push(100.0, 100.0);
/// table.push(900.0, 900.0);
///
/// // The paper's winning configuration over a 1000x1000 space.
/// let mut grid = SimpleGrid::tuned(1000.0);
/// grid.build(&table);
///
/// let mut hits = Vec::new();
/// grid.query(&table, &Rect::new(0.0, 0.0, 500.0, 500.0), &mut hits);
/// assert_eq!(hits, vec![0]);
/// ```
pub struct SimpleGrid {
    cfg: GridConfig,
    /// The side `new` was given; a fork starts over this whole space.
    pub(crate) space_side: f32,
    /// The directory: `x.cells × y.cells` square cells of side
    /// `cell_size`. Sequentially that is `cps × cps` cells over the space;
    /// [`SpatialIndex::fit_tile`] lays it over a tile fork's own rows.
    x: Axis,
    y: Axis,
    cell_size: f32,
    /// Set by [`SpatialIndex::fit_tile`]: the edge cells are open-ended.
    fitted: bool,
    store: Store,
    name: String,
    /// Extent store for the `intersects` predicate: the live row ids,
    /// counting-sorted by the cell of their **reference corner**
    /// (lower-left `(x1, y1)`), so no rect is stored twice. The sort is
    /// row-major, so the cells `cx1..=cx2` of one cell row are one slice,
    /// filtered by one [`gather_overlap_each`] call straight from the
    /// table's columns; ids only, 4 B a row, no coordinate copies.
    /// Queries compensate by expanding their search range down/left by the
    /// largest extent seen at build (`ext_max_w`/`ext_max_h`) — any rect
    /// overlapping the query must have its reference corner inside that
    /// expanded range. Empty unless [`SpatialIndex::build_extents`] ran.
    ext: BucketSort,
    ext_max_w: f32,
    ext_max_h: f32,
}

impl SimpleGrid {
    /// Create a grid over the square space `[0, space_side]²`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the space degenerate;
    /// benchmark and example CLIs validate beforehand.
    pub fn new(cfg: GridConfig, space_side: f32) -> Self {
        cfg.validate().expect("invalid grid config");
        assert!(space_side > 0.0, "space_side must be positive");
        let store = match cfg.layout {
            Layout::Original => Store::Original(OriginalStore::default()),
            Layout::Inline => Store::Inline(InlineStore::default()),
            Layout::InlineCoords => Store::InlineCoords(InlineStore::default()),
        };
        let name = format!(
            "Simple Grid [{:?}/{:?} bs={} cps={}]",
            cfg.layout, cfg.query_algo, cfg.bucket_size, cfg.cells_per_side
        );
        let whole = Axis {
            first: 0,
            cells: cfg.cells_per_side,
        };
        SimpleGrid {
            cfg,
            space_side,
            x: whole,
            y: whole,
            cell_size: space_side / cfg.cells_per_side as f32,
            fitted: false,
            store,
            name,
            ext: BucketSort::default(),
            ext_max_w: 0.0,
            ext_max_h: 0.0,
        }
    }

    /// Grid configured as one of the paper's improvement stages.
    pub fn at_stage(stage: Stage, space_side: f32) -> Self {
        let mut g = Self::new(GridConfig::stage(stage), space_side);
        g.name = format!("Simple Grid ({})", stage.label());
        g
    }

    /// The final tuned grid (bs = 20, cps = 64) — the paper's winner.
    pub fn tuned(space_side: f32) -> Self {
        Self::at_stage(Stage::CpsTuned, space_side)
    }

    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// The edge between cells `c − 1` and `c` along axis `a`. A fitted
    /// fork's outer edges are infinite: rows outside its fitted region
    /// clamp into the edge cells, so those are never reported wholesale.
    #[inline]
    fn edge(&self, a: Axis, c: u32) -> f32 {
        if self.fitted && c == 0 {
            f32::NEG_INFINITY
        } else if self.fitted && c == a.cells {
            f32::INFINITY
        } else {
            (a.first + c) as f32 * self.cell_size
        }
    }

    /// Cell coordinate of a position along axis `a`, clamped into its
    /// cells. It agrees with [`Self::edge`], so every row lies within its
    /// cell's edges and Algorithm 1's wholesale reports stay exact: where
    /// every lattice edge `g · cell_size` is exact, `fl(v / cell_size) ≥
    /// g` holds exactly when `v ≥ g · cell_size`. The workloads' spaces
    /// make `side / 64` and its multiples exact, and `fit_tile` picks a
    /// cell size that does so.
    #[inline]
    fn cell_coord(&self, v: f32, a: Axis) -> u32 {
        ((v / self.cell_size) as u32)
            .saturating_sub(a.first)
            .min(a.cells - 1)
    }

    /// Row-major cell index for a point.
    #[inline]
    pub(crate) fn cell_of(&self, x: f32, y: f32) -> usize {
        let cx = self.cell_coord(x, self.x);
        let cy = self.cell_coord(y, self.y);
        (cy * self.x.cells + cx) as usize
    }

    /// The closed rectangle covered by cell `(cx, cy)`.
    #[inline]
    fn cell_rect(&self, cx: u32, cy: u32) -> Rect {
        Rect::new(
            self.edge(self.x, cx),
            self.edge(self.y, cy),
            self.edge(self.x, cx + 1),
            self.edge(self.y, cy + 1),
        )
    }

    /// Rebuild the grid from the base table, reporting memory touches to
    /// `tr`. The timed [`SpatialIndex::build`] path calls this with
    /// [`NullTracer`], which compiles to the untraced loop.
    pub fn build_traced<T: Tracer>(&mut self, table: &PointTable, tr: &mut T) {
        let ncells = (self.x.cells * self.y.cells) as usize;
        let n = table.len();
        match &mut self.store {
            Store::Original(s) => s.reset(ncells, self.cfg.bucket_size, n),
            Store::Inline(s) => s.reset(ncells, self.cfg.bucket_size, n),
            Store::InlineCoords(s) => s.reset(ncells, self.cfg.bucket_size, n),
        }
        let xs = table.xs();
        let ys = table.ys();
        let live = table.live_mask();
        for i in 0..n {
            // Static rebuild indexes live rows only; tombstones (churn
            // departures) are invisible to the grid.
            if !live[i] {
                continue;
            }
            let (x, y) = (xs[i], ys[i]);
            tr.read(crate::addr::table_x(i as u64), 4);
            tr.read(crate::addr::table_y(i as u64), 4);
            let cell = self.cell_of(x, y);
            tr.instr(6);
            match &mut self.store {
                Store::Original(s) => s.insert(cell, entry_id(i), tr),
                Store::Inline(s) => _ = s.insert(cell, entry_id(i), tr),
                Store::InlineCoords(s) => s.insert(cell, entry_id(i), x, y, tr),
            }
        }
    }

    /// Sink-based range query, reporting memory touches to `tr`.
    /// Dispatches to Algorithm 1 (full directory scan) or Algorithm 2
    /// (overlap range) per the configuration; matches are emitted straight
    /// from the bucket scans.
    pub fn for_each_traced<T: Tracer, F: FnMut(EntryId) + ?Sized>(
        &self,
        table: &PointTable,
        region: &Rect,
        emit: &mut F,
        tr: &mut T,
    ) {
        match self.cfg.query_algo {
            QueryAlgo::FullScan => {
                // Algorithm 1: examine every grid cell.
                for cy in 0..self.y.cells {
                    for cx in 0..self.x.cells {
                        self.visit_cell(cx, cy, table, region, emit, tr);
                    }
                }
            }
            QueryAlgo::RangeScan => {
                // Algorithm 2: compute the overlapping cell range first.
                let cx1 = self.cell_coord(region.x1, self.x);
                let cx2 = self.cell_coord(region.x2, self.x);
                let cy1 = self.cell_coord(region.y1, self.y);
                let cy2 = self.cell_coord(region.y2, self.y);
                tr.instr(8);
                for cy in cy1..=cy2 {
                    for cx in cx1..=cx2 {
                        self.visit_cell(cx, cy, table, region, emit, tr);
                    }
                }
            }
        }
    }

    /// [`Self::for_each_traced`] collecting into a `Vec` — the shape the
    /// memory-profiling harnesses want a buffer for.
    pub fn query_traced<T: Tracer>(
        &self,
        table: &PointTable,
        region: &Rect,
        out: &mut Vec<EntryId>,
        tr: &mut T,
    ) {
        self.for_each_traced(table, region, &mut |e| out.push(e), tr);
    }

    /// Lines 4–10 of Algorithm 1: fully contained cells are reported
    /// wholesale; merely intersecting cells are filtered point by point.
    #[inline]
    fn visit_cell<T: Tracer, F: FnMut(EntryId) + ?Sized>(
        &self,
        cx: u32,
        cy: u32,
        table: &PointTable,
        region: &Rect,
        emit: &mut F,
        tr: &mut T,
    ) {
        let cell_rect = self.cell_rect(cx, cy);
        let cell = (cy * self.x.cells + cx) as usize;
        tr.instr(6);
        if region.contains_rect(&cell_rect) {
            match &self.store {
                Store::Original(s) => s.report_all(cell, emit, tr),
                Store::Inline(s) => s.report_all(cell, emit, tr),
                Store::InlineCoords(s) => s.report_all(cell, emit, tr),
            }
        } else if region.intersects(&cell_rect) {
            match &self.store {
                Store::Original(s) => s.filter(cell, table, region, emit, tr),
                Store::Inline(s) => s.filter(cell, table, region, emit, tr),
                Store::InlineCoords(s) => s.filter(cell, region, emit, tr),
            }
        }
    }
}

impl SimpleGrid {
    /// The arena of an `Inline` grid, which [`crate::IncrementalGrid`]
    /// updates in place.
    pub(crate) fn inline_store(&self) -> &InlineStore {
        let Store::Inline(s) = &self.store else {
            unreachable!("only an Inline grid is updated in place")
        };
        s
    }

    pub(crate) fn inline_store_mut(&mut self) -> &mut InlineStore {
        let Store::Inline(s) = &mut self.store else {
            unreachable!("only an Inline grid is updated in place")
        };
        s
    }

    /// *Live* structure bytes after the last build (arena lengths, not
    /// capacities) — the quantity of the paper's §3.1 bytes-per-point
    /// arithmetic. The [`SpatialIndex::memory_bytes`] footprint counts
    /// allocated capacity instead (the workspace-wide convention).
    pub fn live_bytes(&self) -> usize {
        match &self.store {
            Store::Original(s) => s.live_bytes(),
            Store::Inline(s) => s.live_bytes(),
            Store::InlineCoords(s) => s.live_bytes(),
        }
    }
}

impl SpatialIndex for SimpleGrid {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&mut self, table: &PointTable) {
        self.build_traced(table, &mut NullTracer);
    }

    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        self.for_each_traced(table, region, emit, &mut NullTracer);
    }

    fn supports_intersect(&self) -> bool {
        true
    }

    fn build_extents(&mut self, table: &ExtentTable) {
        let [x1s, y1s, x2s, y2s] = [table.x1s(), table.y1s(), table.x2s(), table.y2s()];
        let rows = || table.live_ids().map(|id| id as usize);
        let mut ext = std::mem::take(&mut self.ext);
        let cell = |i: usize| self.cell_of(x1s[i], y1s[i]);
        let (mut max_w, mut max_h) = (0.0f32, 0.0f32);
        let keys = rows().map(|i| {
            max_w = max_w.max(x2s[i] - x1s[i]);
            max_h = max_h.max(y2s[i] - y1s[i]);
            cell(i)
        });
        ext.count((self.x.cells * self.y.cells) as usize, keys);
        for i in rows() {
            ext.place(cell(i), entry_id(i));
        }
        self.ext = ext;
        // Round both maxima up one ulp: a row's true width then lies
        // strictly below `ext_max_w`, so `fl(region.x1 − ext_max_w) ≤ x1`
        // for every row that reaches `region` (ditto y), though `x2 − x1`
        // itself may have rounded down.
        self.ext_max_w = max_w.next_up();
        self.ext_max_h = max_h.next_up();
    }

    fn for_each_intersecting(
        &self,
        table: &ExtentTable,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        // Any rect intersecting `region` has x1 ∈ [region.x1 − max_w,
        // region.x2] (ditto y), so its reference corner lies in the cells
        // covering that expanded range; candidates are then tested exactly
        // against the full geometry, one cell row at a time.
        let cx1 = self.cell_coord(region.x1 - self.ext_max_w, self.x) as usize;
        let cx2 = self.cell_coord(region.x2, self.x) as usize;
        let cy1 = self.cell_coord(region.y1 - self.ext_max_h, self.y);
        let cy2 = self.cell_coord(region.y2, self.y);
        let cols = [table.x1s(), table.y1s(), table.x2s(), table.y2s()];
        for cy in cy1..=cy2 {
            let row = (cy * self.x.cells) as usize;
            let ids = &self.ext.ids()[self.ext.slots(row + cx1..=row + cx2)];
            gather_overlap_each(cols, ids, region, emit);
        }
    }

    fn memory_bytes(&self) -> usize {
        // Allocated-capacity convention (see the trait docs); the paper's
        // live-structure arithmetic stays available as
        // [`SimpleGrid::live_bytes`]. The extent store counts only when an
        // extent build populated it.
        let store = match &self.store {
            Store::Original(s) => s.allocated_bytes(),
            Store::Inline(s) => s.allocated_bytes(),
            Store::InlineCoords(s) => s.allocated_bytes(),
        };
        store + self.ext.allocated_bytes()
    }

    /// Lay about `cps² · share` square cells over the region: `round(side
    /// / c)` along each side, clamped into `1..=cps`, for the cell side `c`
    /// that splits the region's area so. A square region gets `k × k`
    /// cells with `k = clamp(round(cps · √share), 1, cps)`; uniform rows
    /// get about the sequential cell size whatever the tile's shape, and
    /// rows packed denser get finer cells. The cell size is rounded up to
    /// 8 significant bits and kept above 1/65,535 of the region's farthest
    /// coordinate, so every lattice edge `g · cell_size` up to the region
    /// is exact (`g · m < 2²⁴` for `g ≤ 2¹⁶` and an 8-bit mantissa `m`).
    fn fit_tile(&mut self, region: &Rect, share: f64) {
        let cps = self.cfg.cells_per_side;
        let (w, h) = (region.width(), region.height());
        let c = (f64::from(w) * f64::from(h) / (f64::from(cps * cps) * share)).sqrt();
        let n = |len: f32| ((f64::from(len) / c).round() as u32).clamp(1, cps) as f32;
        let far = [region.x1, region.y1, region.x2, region.y2].map(f32::abs);
        let side = (w / n(w))
            .max(h / n(h))
            .max(far.into_iter().fold(0.0, f32::max) / 65_535.0);
        let cs = f32::from_bits((side.max(f32::MIN_POSITIVE).to_bits() + 0xFFFF) & !0xFFFF);
        let axis = |lo: f32, hi: f32| {
            let first = (lo / cs) as u32;
            Axis {
                first,
                cells: (hi / cs) as u32 - first + 1,
            }
        };
        (self.x, self.y) = (axis(region.x1, region.x2), axis(region.y1, region.y2));
        self.cell_size = cs;
        self.fitted = true;
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        // The display name (which `at_stage` overrides) is carried over
        // verbatim.
        let mut g = SimpleGrid::new(self.cfg, self.space_side);
        g.name.clone_from(&self.name);
        Box::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::index::ScanIndex;
    use sj_base::rng::Xoshiro256;
    use sj_base::tile::{replicate_by_extent, TileGrid};
    use std::num::NonZeroUsize;

    const SIDE: f32 = 1_000.0;

    fn random_table(n: usize, seed: u64) -> PointTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = PointTable::default();
        for _ in 0..n {
            t.push(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
        }
        t
    }

    fn sorted_query(idx: &dyn SpatialIndex, t: &PointTable, r: &Rect) -> Vec<EntryId> {
        let mut out = Vec::new();
        idx.query(t, r, &mut out);
        out.sort_unstable();
        out
    }

    fn all_stage_grids() -> Vec<SimpleGrid> {
        Stage::ALL
            .iter()
            .map(|&s| SimpleGrid::at_stage(s, SIDE))
            .collect()
    }

    #[test]
    fn every_stage_agrees_with_full_scan() {
        let t = random_table(2_000, 99);
        let mut scan = ScanIndex::new();
        scan.build(&t);
        let mut rng = Xoshiro256::seeded(7);
        for mut g in all_stage_grids() {
            g.build(&t);
            for _ in 0..50 {
                let c =
                    sj_base::geom::Point::new(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
                let r = Rect::centered_square(c, 120.0).clipped_to(&Rect::space(SIDE));
                assert_eq!(
                    sorted_query(&g, &t, &r),
                    sorted_query(&scan, &t, &r),
                    "grid {} disagrees with scan on {r:?}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn inline_coords_layout_agrees_too() {
        let t = random_table(1_000, 3);
        let cfg = GridConfig {
            layout: Layout::InlineCoords,
            ..GridConfig::tuned()
        };
        let mut g = SimpleGrid::new(cfg, SIDE);
        g.build(&t);
        let mut scan = ScanIndex::new();
        scan.build(&t);
        let r = Rect::new(100.0, 100.0, 400.0, 350.0);
        assert_eq!(sorted_query(&g, &t, &r), sorted_query(&scan, &t, &r));
    }

    #[test]
    fn query_covering_space_returns_everything() {
        let t = random_table(500, 11);
        for mut g in all_stage_grids() {
            g.build(&t);
            let r = Rect::space(SIDE);
            let out = sorted_query(&g, &t, &r);
            assert_eq!(out.len(), 500, "{}", g.name());
        }
    }

    #[test]
    fn point_on_space_boundary_is_indexed_and_found() {
        let mut t = PointTable::default();
        t.push(SIDE, SIDE); // exactly the upper corner
        t.push(0.0, 0.0);
        for mut g in all_stage_grids() {
            g.build(&t);
            let r = Rect::new(SIDE - 1.0, SIDE - 1.0, SIDE, SIDE);
            assert_eq!(sorted_query(&g, &t, &r), vec![0], "{}", g.name());
        }
    }

    #[test]
    fn empty_table_builds_and_queries() {
        let t = PointTable::default();
        for mut g in all_stage_grids() {
            g.build(&t);
            let out = sorted_query(&g, &t, &Rect::new(0.0, 0.0, 10.0, 10.0));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn rebuild_replaces_old_contents() {
        let t1 = random_table(100, 1);
        let t2 = random_table(50, 2);
        let mut g = SimpleGrid::tuned(SIDE);
        g.build(&t1);
        g.build(&t2);
        let out = sorted_query(&g, &t2, &Rect::space(SIDE));
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn memory_footprint_original_vs_refactored() {
        // Paper §3.1: at bs = 4 the original needs 32 B per point beyond
        // the directory; the refactored needs 12 B.
        let t = random_table(10_000, 5);
        let mut orig = SimpleGrid::at_stage(Stage::Original, SIDE);
        let mut restructured = SimpleGrid::at_stage(Stage::Restructured, SIDE);
        orig.build(&t);
        restructured.build(&t);
        let n = t.len();
        let orig_per_point = (orig.live_bytes() - 13 * 13 * 16) as f64 / n as f64;
        let restr_per_point = (restructured.live_bytes() - 13 * 13 * 8) as f64 / n as f64;
        // Partially filled head buckets add a little slack over the ideal.
        assert!(
            (32.0..34.0).contains(&orig_per_point),
            "original per-point bytes: {orig_per_point}"
        );
        assert!(
            (12.0..14.0).contains(&restr_per_point),
            "refactored per-point bytes: {restr_per_point}"
        );
    }

    #[test]
    fn full_scan_and_range_scan_agree_on_corner_queries() {
        let t = random_table(1_500, 21);
        let mut full = SimpleGrid::new(
            GridConfig {
                query_algo: QueryAlgo::FullScan,
                ..GridConfig::tuned()
            },
            SIDE,
        );
        let mut range = SimpleGrid::new(GridConfig::tuned(), SIDE);
        full.build(&t);
        range.build(&t);
        for r in [
            Rect::new(0.0, 0.0, 50.0, 50.0),
            Rect::new(SIDE - 50.0, SIDE - 50.0, SIDE, SIDE),
            Rect::new(0.0, SIDE - 10.0, SIDE, SIDE),
            Rect::new(499.9, 0.0, 500.1, SIDE),
        ] {
            assert_eq!(
                sorted_query(&full, &t, &r),
                sorted_query(&range, &t, &r),
                "{r:?}"
            );
        }
    }

    #[test]
    fn every_stage_skips_dead_rows() {
        let mut t = random_table(800, 57);
        for id in (0..800).step_by(3) {
            t.remove(id);
        }
        let mut scan = ScanIndex::new();
        scan.build(&t);
        for mut g in all_stage_grids() {
            g.build(&t);
            let r = Rect::space(SIDE);
            assert_eq!(
                sorted_query(&g, &t, &r),
                sorted_query(&scan, &t, &r),
                "{}",
                g.name()
            );
            assert_eq!(sorted_query(&g, &t, &r).len(), t.live_len());
        }
    }

    fn random_extents(n: usize, seed: u64) -> ExtentTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = ExtentTable::default();
        for _ in 0..n {
            let x = rng.range_f32(0.0, SIDE - 80.0);
            let y = rng.range_f32(0.0, SIDE - 80.0);
            let w = rng.range_f32(0.0, 80.0);
            let h = rng.range_f32(0.0, 80.0);
            t.push(Rect::new(x, y, x + w, y + h));
        }
        t
    }

    fn sorted_intersecting(idx: &dyn SpatialIndex, t: &ExtentTable, r: &Rect) -> Vec<EntryId> {
        let mut out = Vec::new();
        idx.for_each_intersecting(t, r, &mut |e| out.push(e));
        out.sort_unstable();
        out
    }

    #[test]
    fn every_stage_agrees_with_full_scan_on_intersections() {
        let mut t = random_extents(1_500, 101);
        for id in (0..1_500).step_by(5) {
            t.remove(id);
        }
        let mut scan = ScanIndex::new();
        scan.build_extents(&t);
        let mut rng = Xoshiro256::seeded(17);
        for mut g in all_stage_grids() {
            assert!(g.supports_intersect(), "{}", g.name());
            g.build_extents(&t);
            for _ in 0..40 {
                let x = rng.range_f32(0.0, SIDE - 100.0);
                let y = rng.range_f32(0.0, SIDE - 100.0);
                let r = Rect::new(
                    x,
                    y,
                    x + rng.range_f32(0.0, 100.0),
                    y + rng.range_f32(0.0, 100.0),
                );
                assert_eq!(
                    sorted_intersecting(&g, &t, &r),
                    sorted_intersecting(&scan, &t, &r),
                    "grid {} disagrees with scan on {r:?}",
                    g.name()
                );
            }
            // Touching-edge query: rect 0's exact corner.
            let r0 = t.rect(t.iter().next().unwrap().0);
            let touch = Rect::new(r0.x2, r0.y2, r0.x2 + 1.0, r0.y2 + 1.0);
            assert_eq!(
                sorted_intersecting(&g, &t, &touch),
                sorted_intersecting(&scan, &t, &touch),
                "{} touching-edge tie",
                g.name()
            );
        }
    }

    #[test]
    fn extent_rebuild_replaces_old_contents_and_tracks_max_extent() {
        // Build over big rects, then rebuild over small ones: the stale
        // max-extent expansion and the old cell lists must both be gone.
        let mut big = ExtentTable::default();
        big.push(Rect::new(0.0, 0.0, 900.0, 900.0));
        let mut small = ExtentTable::default();
        small.push(Rect::new(10.0, 10.0, 20.0, 20.0));
        small.push(Rect::new(500.0, 500.0, 510.0, 510.0));
        let mut g = SimpleGrid::tuned(SIDE);
        g.build_extents(&big);
        g.build_extents(&small);
        assert_eq!(
            sorted_intersecting(&g, &small, &Rect::space(SIDE)),
            vec![0, 1]
        );
        assert_eq!(
            sorted_intersecting(&g, &small, &Rect::new(0.0, 0.0, 5.0, 5.0)),
            Vec::<EntryId>::new()
        );
    }

    /// The extent grid over `rows`, queried with `region`, against a scan.
    fn intersecting_with_scan(rows: &[Rect], region: Rect) -> (Vec<EntryId>, Vec<EntryId>) {
        let mut t = ExtentTable::default();
        for &r in rows {
            t.push(r);
        }
        let mut g = SimpleGrid::tuned(SIDE);
        g.build_extents(&t);
        let scan = sorted_intersecting(&ScanIndex::new(), &t, &region);
        (sorted_intersecting(&g, &t, &region), scan)
    }

    #[test]
    fn extent_query_finds_a_row_whose_width_rounds_down() {
        // 900 − prev(15.625) rounds down to 884.375, so an unrounded
        // maximum starts the query at the cell of 900 − 884.375 = 15.625:
        // cell 1 of the 15.625-wide cells, right of the row's cell 0.
        let x1 = 15.625f32.next_down();
        let rows = [
            Rect::new(x1, 100.0, 900.0, 101.0),
            Rect::new(500.0, 500.0, 510.0, 510.0),
        ];
        let (grid, scan) = intersecting_with_scan(&rows, Rect::new(900.0, 100.0, 901.0, 101.0));
        assert_eq!(scan, vec![0]);
        assert_eq!(grid, scan);
    }

    #[test]
    fn extent_query_finds_a_row_whose_height_rounds_down() {
        let y1 = 15.625f32.next_down();
        let rows = [
            Rect::new(100.0, y1, 101.0, 900.0),
            Rect::new(500.0, 500.0, 510.0, 510.0),
        ];
        let (grid, scan) = intersecting_with_scan(&rows, Rect::new(100.0, 900.0, 101.0, 901.0));
        assert_eq!(scan, vec![0]);
        assert_eq!(grid, scan);
    }

    /// Cell edges of a fitted grid along x and y as the grid computes
    /// them, outer edges included (those are infinite in `edge`).
    fn finite_edges(g: &SimpleGrid) -> (Vec<f32>, Vec<f32>) {
        let edges = |a: Axis| {
            (0..=a.cells)
                .map(|c| (a.first + c) as f32 * g.cell_size)
                .collect()
        };
        (edges(g.x), edges(g.y))
    }

    #[test]
    fn fitted_cells_split_the_region_by_its_share_of_the_rows() {
        let fitted = |region: Rect, share: f64| {
            let mut g = SimpleGrid::tuned(22_000.0);
            g.fit_tile(&region, share);
            (g.x.cells, g.y.cells, g.cell_size)
        };
        // A sixteenth of uniform rows in a sixteenth of the space, square
        // or not, gets the sequential 343.75-unit cells, rounded up to 8
        // significant bits.
        assert_eq!(
            fitted(Rect::new(0.0, 0.0, 5_500.0, 5_500.0), 1.0 / 16.0),
            (16, 16, 344.0)
        );
        assert_eq!(
            fitted(Rect::new(0.0, 0.0, 11_000.0, 5_500.0), 1.0 / 8.0),
            (32, 16, 344.0)
        );
        // 40% of the rows in a tenth of the space: cells 2× finer.
        let tenth = 22_000.0 / 10f32.sqrt();
        assert_eq!(fitted(Rect::new(0.0, 0.0, tenth, tenth), 0.4).0, 40);
        // No rows: one cell, and one past the lattice edge the region
        // ends on. Rows on a line, or at one point: a strip, or one cell.
        assert_eq!(
            fitted(Rect::new(0.0, 0.0, 900.0, 900.0), 0.0),
            (2, 2, 900.0)
        );
        assert_eq!(fitted(Rect::new(5.0, 0.0, 5.0, 900.0), 0.5).0, 1);
        assert_eq!(fitted(Rect::new(5.0, 5.0, 5.0, 5.0), 0.5).0, 1);
    }

    #[test]
    fn fitted_forks_agree_with_scan_on_tile_and_cell_edges() {
        // A non-round side, so tile and cell edges round, and cell counts
        // that are not powers of two. Each layout and query algorithm runs
        // at cps = 64, so one share fits them all alike.
        let side = 1_000.3;
        let tiles = TileGrid::new(&Rect::space(side), NonZeroUsize::new(10).unwrap());
        assert_eq!((tiles.nx(), tiles.ny()), (5, 2));
        let tuned = GridConfig::tuned();
        let configs = [
            tuned,
            GridConfig {
                layout: Layout::Original,
                query_algo: QueryAlgo::FullScan,
                ..tuned
            },
            GridConfig {
                layout: Layout::InlineCoords,
                ..tuned
            },
        ];
        // A square tile would get 13 × 13 and 40 × 40 cells; these are
        // 200.06 × 500.15, and the lattice from 0 may add a column or row.
        for (k, cells) in [(13.0, (8, 21)), (40.0, (25, 63))] {
            let share = (k / 64.0f64).powi(2);
            let fit = |cfg: GridConfig, region: &Rect| {
                let mut g = SimpleGrid::new(cfg, side).fork();
                g.fit_tile(region, share);
                g
            };
            // Lattice rows on every tile edge and on every cell edge of
            // every tile-fitted fork: points, zero-area rectangles, and
            // rectangles that straddle tiles.
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for t in 0..tiles.tiles() {
                let b = tiles.tile_bounds(t);
                let mut g = SimpleGrid::new(tuned, side);
                g.fit_tile(&b, share);
                let (nx, ny) = (g.x.cells, g.y.cells);
                assert!(
                    nx.abs_diff(cells.0) <= 1 && ny.abs_diff(cells.1) <= 1,
                    "tile {t}: {nx} × {ny}"
                );
                let (ex, ey) = finite_edges(&g);
                xs.extend(ex.into_iter().chain([b.x1, b.x2]));
                ys.extend(ey.into_iter().chain([b.y1, b.y2]));
            }
            // And the float just below every x edge, which must stay left
            // of it.
            xs.extend(xs.clone().into_iter().map(f32::next_down));
            for v in [&mut xs, &mut ys] {
                v.retain(|c| (0.0..=side).contains(c));
                v.sort_by(f32::total_cmp);
                v.dedup();
            }
            let (mut points, mut rects) = (PointTable::default(), ExtentTable::default());
            for (i, &x) in xs.iter().enumerate() {
                for (j, &y) in ys.iter().enumerate() {
                    points.push(x, y);
                    rects.push(Rect::at_point(x, y));
                    if (i + j) % 5 == 0 {
                        let (x2, y2) =
                            (xs[(i + 7).min(xs.len() - 1)], ys[(j + 4).min(ys.len() - 1)]);
                        rects.push(Rect::new(x, y, x2, y2));
                    }
                }
            }
            let (mut point_reps, mut rect_reps) = (Vec::new(), Vec::new());
            replicate_by_extent(&points, &tiles, &mut point_reps);
            replicate_by_extent(&rects, &tiles, &mut rect_reps);
            for t in 0..tiles.tiles() {
                let (pt, rt) = (&point_reps[t].table, &rect_reps[t].table);
                let b = tiles.tile_bounds(t);
                // The tile itself, and an inner region that leaves many
                // rows outside to clamp into the open edge cells.
                let (w, h) = (b.width() / 4.0, b.height() / 4.0);
                let inner = Rect::new(b.x1 + w, b.y1 + h, b.x2 - w, b.y2 - h);
                for region in [b, inner] {
                    let forks: Vec<_> = configs
                        .iter()
                        .map(|&cfg| {
                            let mut g = fit(cfg, &region);
                            g.build(pt);
                            g.build_extents(rt);
                            g
                        })
                        .collect();
                    let mut g = SimpleGrid::new(tuned, side);
                    g.fit_tile(&region, share);
                    let (ex, ey) = finite_edges(&g);
                    let mut queries = vec![Rect::space(side), region];
                    for i in (0..ex.len()).step_by(3) {
                        for j in (0..ey.len()).step_by(3) {
                            for d in [0, 1, 4] {
                                let (i2, j2) =
                                    ((i + d).min(ex.len() - 1), (j + d).min(ey.len() - 1));
                                queries.push(Rect::new(ex[i], ey[j], ex[i2], ey[j2]));
                            }
                        }
                    }
                    for q in &queries {
                        let want_points = sorted_query(&ScanIndex::new(), pt, q);
                        let want_rects = sorted_intersecting(&ScanIndex::new(), rt, q);
                        for f in &forks {
                            let tag = format!("{} tile {t} fitted to {region:?}", f.name());
                            assert_eq!(sorted_query(&**f, pt, q), want_points, "{tag}: {q:?}");
                            assert_eq!(
                                sorted_intersecting(&**f, rt, q),
                                want_rects,
                                "{tag}: {q:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fork_of_an_extent_grid_supports_the_predicate() {
        let t = random_extents(200, 7);
        let g = SimpleGrid::tuned(SIDE);
        let mut f = g.fork();
        assert!(f.supports_intersect());
        f.build_extents(&t);
        assert_eq!(
            sorted_intersecting(f.as_ref(), &t, &Rect::space(SIDE)).len(),
            t.live_len()
        );
    }

    #[test]
    fn name_reflects_stage() {
        assert_eq!(
            SimpleGrid::at_stage(Stage::Original, SIDE).name(),
            "Simple Grid (Original)"
        );
        assert_eq!(
            SimpleGrid::at_stage(Stage::CpsTuned, SIDE).name(),
            "Simple Grid (+cps tuned)"
        );
    }
}
