//! Incrementally maintained uniform grid — the u-Grid of the paper's
//! reference \[8\] (Šidlauskas et al., "Trees or Grids? Indexing Moving
//! Objects in Main Memory", GIS 2009).
//!
//! The static category rebuilds its index every tick; the update-time
//! category the original study also covers maintains it in place. This
//! grid is a tuned-layout [`SimpleGrid`] (`Inline`, `RangeScan`) whose
//! [`SpatialIndex::build`] *diffs* the base table against the positions it
//! indexed last tick, straight into that grid's bucket arena: objects that
//! stayed in their cell cost one cell computation, objects that crossed a
//! cell boundary are moved with an O(1) delete (backfill from the head
//! bucket) plus an O(1) insert. Freed buckets go to the arena's free list,
//! so steady state allocates nothing. Queries are the grid's own: Algorithm
//! 2 with wholesale reports of covered cells, and the SIMD gather kernel
//! over the other cells' buckets.
//!
//! The `ablation` bench compares this against rebuild-per-tick across
//! object speeds: the faster objects move, the more cell crossings, the
//! smaller the incremental advantage.

use sj_base::geom::Rect;
use sj_base::index::SpatialIndex;
use sj_base::table::{entry_id, EntryId, PointTable};
use sj_base::trace::NullTracer;

use crate::layout_original::NULL;
use crate::{GridConfig, SimpleGrid};

/// See module docs.
///
/// ```
/// use sj_base::{PointTable, Rect, SpatialIndex};
/// use sj_grid::IncrementalGrid;
///
/// let mut table = PointTable::default();
/// let id = table.push(100.0, 100.0);
///
/// let mut grid = IncrementalGrid::tuned(1000.0);
/// grid.build(&table);
///
/// // The object moves; the next build diffs and relocates it in place.
/// table.set_position(id, 900.0, 900.0);
/// grid.build(&table);
///
/// let mut hits = Vec::new();
/// grid.query(&table, &Rect::new(890.0, 890.0, 910.0, 910.0), &mut hits);
/// assert_eq!(hits, vec![id]);
/// ```
pub struct IncrementalGrid {
    /// The grid whose arena the builds update and whose queries run.
    grid: SimpleGrid,
    /// Locator: bucket handle and slot of each indexed entry.
    loc_bucket: Vec<u64>,
    loc_slot: Vec<u32>,
    /// The positions as of the last build — the diff baseline.
    prev_x: Vec<f32>,
    prev_y: Vec<f32>,
    /// Liveness as of the last build. A `live -> dead` transition in the
    /// diff is an explicit O(1) delete; `dead` rows are simply not indexed.
    prev_live: Vec<bool>,
    /// Count of `true`s in `prev_live`, maintained on every transition so
    /// [`IncrementalGrid::len`] stays O(1).
    indexed: usize,
}

impl IncrementalGrid {
    /// Grid with the paper's tuned parameters (bs = 20, cps = 64) over
    /// `[0, space_side]²`.
    ///
    /// # Panics
    /// Panics if `space_side` is not positive.
    pub fn tuned(space_side: f32) -> Self {
        Self::new(GridConfig::TUNED_CPS, GridConfig::TUNED_BS, space_side)
    }

    /// # Panics
    /// Panics on a configuration [`GridConfig::validate`] rejects or a
    /// non-positive `space_side`.
    pub fn new(cells_per_side: u32, bucket_size: u32, space_side: f32) -> Self {
        let cfg = GridConfig {
            cells_per_side,
            bucket_size,
            ..GridConfig::tuned()
        };
        let mut g = IncrementalGrid {
            grid: SimpleGrid::new(cfg, space_side),
            loc_bucket: Vec::new(),
            loc_slot: Vec::new(),
            prev_x: Vec::new(),
            prev_y: Vec::new(),
            prev_live: Vec::new(),
            indexed: 0,
        };
        g.clear();
        g
    }

    /// Forget every row: an empty directory over an arena that keeps its
    /// allocation and grows as the next build inserts.
    fn clear(&mut self) {
        let cfg = *self.grid.config();
        let ncells = (cfg.cells_per_side * cfg.cells_per_side) as usize;
        self.grid
            .inline_store_mut()
            .reset(ncells, cfg.bucket_size, 0);
        self.loc_bucket.clear();
        self.loc_slot.clear();
        self.prev_x.clear();
        self.prev_y.clear();
        self.prev_live.clear();
        self.indexed = 0;
    }

    /// Index row `i` in `cell`, recording its locator.
    fn insert_row(&mut self, i: usize, cell: usize) {
        let store = self.grid.inline_store_mut();
        let (bucket, slot) = store.insert(cell, entry_id(i), &mut NullTracer);
        self.loc_bucket[i] = bucket;
        self.loc_slot[i] = slot as u32;
    }

    /// Unindex row `i` from `cell`; the entry moved into its slot takes
    /// over its locator.
    fn remove_row(&mut self, i: usize, cell: usize) {
        let (bucket, slot) = (self.loc_bucket[i], self.loc_slot[i]);
        let moved = self
            .grid
            .inline_store_mut()
            .remove(cell, bucket, slot as usize) as usize;
        self.loc_bucket[moved] = bucket;
        self.loc_slot[moved] = slot;
        self.loc_bucket[i] = NULL;
    }

    /// Number of buckets currently on the free list (tests use this to
    /// verify steady-state recycling).
    pub fn free_buckets(&self) -> usize {
        self.grid.inline_store().free_buckets()
    }

    /// Entries currently indexed (live rows as of the last build). O(1).
    pub fn len(&self) -> usize {
        self.indexed
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Debug validation: every live entry's locator points at a slot
    /// holding it, every dead entry is unlocated, and chain lengths are
    /// consistent. O(n); test-only.
    pub fn validate(&self) -> Result<(), String> {
        let live_count = self.prev_live.iter().filter(|&&l| l).count();
        if live_count != self.indexed {
            return Err(format!(
                "indexed counter {} out of sync with live mask {live_count}",
                self.indexed
            ));
        }
        let store = self.grid.inline_store();
        for e in 0..self.loc_bucket.len() {
            let b = self.loc_bucket[e];
            if !self.prev_live[e] {
                if b != NULL {
                    return Err(format!("dead entry {e} still has a location"));
                }
                continue;
            }
            if b == NULL {
                return Err(format!("entry {e} has no location"));
            }
            if store.id_at(b, self.loc_slot[e] as usize) != e as u64 {
                return Err(format!("locator of entry {e} is stale"));
            }
        }
        Ok(())
    }
}

impl SpatialIndex for IncrementalGrid {
    fn name(&self) -> &str {
        "Simple Grid (incremental)"
    }

    fn build(&mut self, table: &PointTable) {
        // A table shorter than the last one indexed (impossible under the
        // tombstone model, where slots are never reclaimed — but a
        // hand-built smaller table stays valid) is indexed from scratch.
        if table.len() < self.prev_x.len() {
            self.clear();
        }
        let xs = table.xs();
        let ys = table.ys();
        let live = table.live_mask();
        // Rows appended since the last build (churn arrivals, or every row
        // of the first build) join the baseline as dead rows, so the diff
        // inserts the live ones: population growth does not trigger a
        // full rebuild.
        for i in self.prev_x.len()..table.len() {
            self.prev_x.push(xs[i]);
            self.prev_y.push(ys[i]);
            self.prev_live.push(false);
            self.loc_bucket.push(NULL);
            self.loc_slot.push(0);
        }
        // Diff every row against the last build: moves relocate,
        // departures are explicit O(1) deletes, arrivals O(1) inserts
        // (tombstoned rows never resurrect, but a dead->live transition is
        // an insert too).
        for i in 0..table.len() {
            let (px, py) = (self.prev_x[i], self.prev_y[i]);
            let (nx, ny) = (xs[i], ys[i]);
            match (self.prev_live[i], live[i]) {
                (true, true) => {
                    if nx != px || ny != py {
                        let old_cell = self.grid.cell_of(px, py);
                        let new_cell = self.grid.cell_of(nx, ny);
                        if old_cell != new_cell {
                            self.remove_row(i, old_cell);
                            self.insert_row(i, new_cell);
                        }
                        self.prev_x[i] = nx;
                        self.prev_y[i] = ny;
                    }
                }
                (true, false) => {
                    self.remove_row(i, self.grid.cell_of(px, py));
                    self.prev_live[i] = false;
                    self.indexed -= 1;
                }
                (false, true) => {
                    self.insert_row(i, self.grid.cell_of(nx, ny));
                    self.prev_x[i] = nx;
                    self.prev_y[i] = ny;
                    self.prev_live[i] = true;
                    self.indexed += 1;
                }
                (false, false) => {}
            }
        }
    }

    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        self.grid.for_each_in(table, region, emit);
    }

    fn memory_bytes(&self) -> usize {
        // Allocated-capacity convention (see the trait docs): every arena
        // the incremental structure keeps resident between ticks — the
        // grid's directory, bucket arena and free list, the locator maps,
        // and the previous-tick position/liveness shadow it diffs against.
        self.grid.memory_bytes()
            + self.loc_bucket.capacity() * 8
            + self.loc_slot.capacity() * 4
            + self.prev_x.capacity() * 4
            + self.prev_y.capacity() * 4
            + self.prev_live.capacity()
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        let cfg = self.grid.config();
        Box::new(IncrementalGrid::new(
            cfg.cells_per_side,
            cfg.bucket_size,
            self.grid.space_side,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::index::ScanIndex;
    use sj_base::rng::Xoshiro256;

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

    #[test]
    fn initial_build_agrees_with_scan() {
        let t = random_table(2_000, 31);
        let mut g = IncrementalGrid::tuned(SIDE);
        g.build(&t);
        g.validate().unwrap();
        let mut scan = ScanIndex::new();
        scan.build(&t);
        let r = Rect::new(100.0, 100.0, 400.0, 380.0);
        assert_eq!(sorted_query(&g, &t, &r), sorted_query(&scan, &t, &r));
    }

    #[test]
    fn stays_correct_through_many_movement_ticks() {
        let mut rng = Xoshiro256::seeded(33);
        let mut t = random_table(1_000, 32);
        let mut g = IncrementalGrid::tuned(SIDE);
        let scan = ScanIndex::new();
        g.build(&t);
        for tick in 0..30 {
            // Move ~70% of objects by up to ±60 units.
            for i in 0..t.len() as EntryId {
                if rng.bernoulli(0.7) {
                    let x = (t.x(i) + rng.range_f32(-60.0, 60.0)).clamp(0.0, SIDE);
                    let y = (t.y(i) + rng.range_f32(-60.0, 60.0)).clamp(0.0, SIDE);
                    t.set_position(i, x, y);
                }
            }
            g.build(&t);
            g.validate().unwrap_or_else(|e| panic!("tick {tick}: {e}"));
            for _ in 0..5 {
                let c =
                    sj_base::geom::Point::new(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
                let r = Rect::centered_square(c, 120.0).clipped_to(&Rect::space(SIDE));
                assert_eq!(
                    sorted_query(&g, &t, &r),
                    sorted_query(&scan, &t, &r),
                    "tick {tick}, query {r:?}"
                );
            }
        }
    }

    #[test]
    fn full_space_query_conserves_population() {
        let mut t = random_table(500, 35);
        let mut g = IncrementalGrid::tuned(SIDE);
        g.build(&t);
        for i in 0..t.len() as EntryId {
            t.set_position(i, SIDE - t.x(i), SIDE - t.y(i));
        }
        g.build(&t);
        assert_eq!(sorted_query(&g, &t, &Rect::space(SIDE)).len(), 500);
    }

    #[test]
    fn buckets_are_recycled_not_leaked() {
        // Shuttle a tight cluster back and forth between two corners; the
        // arena must reach a steady size instead of growing per tick.
        let mut t = PointTable::default();
        for i in 0..200 {
            t.push(10.0 + (i % 14) as f32, 10.0 + (i / 14) as f32);
        }
        let mut g = IncrementalGrid::new(16, 4, SIDE);
        g.build(&t);
        let mut arena_after_warmup = 0;
        for tick in 0..20 {
            let offset = if tick % 2 == 0 { 900.0 } else { 10.0 };
            for i in 0..t.len() as EntryId {
                let (dx, dy) = ((i % 14) as f32, (i / 14) as f32);
                t.set_position(i, offset + dx, offset + dy);
            }
            g.build(&t);
            g.validate().unwrap();
            if tick == 2 {
                arena_after_warmup = g.grid.inline_store().num_buckets();
            }
        }
        assert_eq!(
            g.grid.inline_store().num_buckets(),
            arena_after_warmup,
            "bucket arena kept growing"
        );
        assert!(g.free_buckets() > 0, "free list never used");
    }

    #[test]
    fn population_size_change_triggers_rebuild() {
        let t1 = random_table(300, 36);
        let t2 = random_table(400, 37);
        let mut g = IncrementalGrid::tuned(SIDE);
        g.build(&t1);
        g.build(&t2);
        g.validate().unwrap();
        assert_eq!(sorted_query(&g, &t2, &Rect::space(SIDE)).len(), 400);
        // A shorter table than the last build's is indexed from scratch.
        g.build(&t1);
        g.validate().unwrap();
        assert_eq!(g.len(), 300);
        assert_eq!(sorted_query(&g, &t1, &Rect::space(SIDE)).len(), 300);
    }

    #[test]
    fn agrees_with_rebuilding_grid_in_tick_loop() {
        use crate::SimpleGrid;
        let mut rng = Xoshiro256::seeded(40);
        let mut t = random_table(1_500, 41);
        let mut inc = IncrementalGrid::tuned(SIDE);
        let mut full = SimpleGrid::tuned(SIDE);
        for _ in 0..10 {
            for i in 0..t.len() as EntryId {
                let x = (t.x(i) + rng.range_f32(-30.0, 30.0)).clamp(0.0, SIDE);
                let y = (t.y(i) + rng.range_f32(-30.0, 30.0)).clamp(0.0, SIDE);
                t.set_position(i, x, y);
            }
            inc.build(&t);
            full.build(&t);
            let c = sj_base::geom::Point::new(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
            let r = Rect::centered_square(c, 200.0).clipped_to(&Rect::space(SIDE));
            assert_eq!(sorted_query(&inc, &t, &r), sorted_query(&full, &t, &r));
        }
    }

    #[test]
    fn removals_are_explicit_deletes_in_the_diff() {
        let mut t = random_table(600, 61);
        let mut g = IncrementalGrid::tuned(SIDE);
        g.build(&t);
        assert_eq!(g.len(), 600);
        for id in (0..600).step_by(4) {
            t.remove(id);
        }
        g.build(&t);
        g.validate().unwrap();
        assert_eq!(g.len(), t.live_len());
        let scan = ScanIndex::new();
        let r = Rect::space(SIDE);
        assert_eq!(sorted_query(&g, &t, &r), sorted_query(&scan, &t, &r));
        assert_eq!(sorted_query(&g, &t, &r).len(), t.live_len());
    }

    #[test]
    fn growth_is_incremental_not_a_rebuild() {
        let mut t = random_table(300, 62);
        let mut g = IncrementalGrid::tuned(SIDE);
        g.build(&t);
        // Arrivals append; departures tombstone; survivors move a little —
        // one combined tick of churn, diffed in place.
        let mut rng = Xoshiro256::seeded(63);
        for _ in 0..50 {
            t.push(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
        }
        for id in [3u32, 77, 150, 299] {
            t.remove(id);
        }
        for i in 0..t.len() as EntryId {
            if t.is_live(i) && rng.bernoulli(0.5) {
                let x = (t.x(i) + rng.range_f32(-40.0, 40.0)).clamp(0.0, SIDE);
                let y = (t.y(i) + rng.range_f32(-40.0, 40.0)).clamp(0.0, SIDE);
                t.set_position(i, x, y);
            }
        }
        g.build(&t);
        g.validate().unwrap();
        let scan = ScanIndex::new();
        for _ in 0..10 {
            let c = sj_base::geom::Point::new(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
            let r = Rect::centered_square(c, 150.0).clipped_to(&Rect::space(SIDE));
            assert_eq!(
                sorted_query(&g, &t, &r),
                sorted_query(&scan, &t, &r),
                "{r:?}"
            );
        }
    }

    #[test]
    fn degenerate_geometry_is_rejected() {
        let r = std::panic::catch_unwind(|| IncrementalGrid::new(0, 4, SIDE));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| IncrementalGrid::new(16, 4, 0.0));
        assert!(r.is_err());
    }
}
