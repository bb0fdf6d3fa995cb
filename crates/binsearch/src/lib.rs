//! # sj-binsearch
//!
//! The paper's baseline technique: "the data points are sorted by one
//! coordinate, upon which a nested loop with binary search (on the sorted
//! coordinate) is used to compute the join" (§2.2).
//!
//! Build sorts entry handles by x; a query binary-searches the first entry
//! with `x >= region.x1`, then scans forward while `x <= region.x2`,
//! filtering on y. Simple, allocation-free per query, and — as the paper
//! shows — enough to beat a badly implemented grid.
//!
//! [`VecSearchJoin`] is this repository's extension of the same idea taken
//! one implementation step further (in the paper's spirit): the build
//! copies the coordinates into x-sorted SoA columns so the in-range
//! candidates are *contiguous*, and the y-filter runs through the SIMD
//! kernel in [`sj_base::simd`]. Same algorithm, different implementation —
//! the `ablation` bench measures what that is worth.

use sj_base::geom::Rect;
use sj_base::index::SpatialIndex;
use sj_base::table::{EntryId, PointTable};

/// See crate docs.
///
/// ```
/// use sj_base::{PointTable, Rect, SpatialIndex};
/// use sj_binsearch::BinarySearchJoin;
///
/// let mut table = PointTable::default();
/// table.push(10.0, 10.0);
/// table.push(20.0, 99.0);
/// table.push(30.0, 10.0);
///
/// let mut idx = BinarySearchJoin::new();
/// idx.build(&table);
/// let mut hits = Vec::new();
/// idx.query(&table, &Rect::new(5.0, 5.0, 35.0, 15.0), &mut hits);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 2]); // the y filter drops entry 1
/// ```
#[derive(Debug, Default, Clone)]
pub struct BinarySearchJoin {
    /// Entry handles sorted by ascending x (ties in input order).
    sorted: Vec<EntryId>,
}

impl BinarySearchJoin {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the first sorted entry with `x >= bound` (classic
    /// lower-bound binary search over the indirection into the table).
    fn lower_bound(&self, table: &PointTable, bound: f32) -> usize {
        let mut lo = 0usize;
        let mut hi = self.sorted.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if table.x(self.sorted[mid]) < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl SpatialIndex for BinarySearchJoin {
    fn name(&self) -> &str {
        "Binary Search"
    }

    fn build(&mut self, table: &PointTable) {
        self.sorted.clear();
        // Live rows only: tombstoned rows are invisible to the sort.
        self.sorted.extend(table.iter().map(|(id, _)| id));
        let xs = table.xs();
        // total_cmp: coordinates are finite (workload invariant), but a
        // total order keeps the sort panic-free on any input.
        self.sorted
            .sort_unstable_by(|&a, &b| xs[a as usize].total_cmp(&xs[b as usize]));
    }

    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        let start = self.lower_bound(table, region.x1);
        for &e in &self.sorted[start..] {
            let x = table.x(e);
            if x > region.x2 {
                break;
            }
            let y = table.y(e);
            if y >= region.y1 && y <= region.y2 {
                emit(e);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        // Allocated-capacity convention (see the trait docs).
        self.sorted.capacity() * std::mem::size_of::<EntryId>()
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        Box::new(self.clone())
    }
}

/// See the crate docs: Binary Search with sorted coordinate copies and a
/// vectorized y-filter. Note this variant steps outside the framework's
/// strict secondary-index assumption (it copies coordinates at build
/// time, like the tree techniques do in their leaves).
#[derive(Debug, Default, Clone)]
pub struct VecSearchJoin {
    /// Coordinates and handles sorted by ascending x, SoA.
    xs: Vec<f32>,
    ys: Vec<f32>,
    ids: Vec<EntryId>,
    scratch: Vec<EntryId>,
}

impl VecSearchJoin {
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpatialIndex for VecSearchJoin {
    fn name(&self) -> &str {
        "Binary Search (vectorized)"
    }

    fn build(&mut self, table: &PointTable) {
        self.scratch.clear();
        // Live rows only, like the plain variant.
        self.scratch.extend(table.iter().map(|(id, _)| id));
        let txs = table.xs();
        self.scratch
            .sort_unstable_by(|&a, &b| txs[a as usize].total_cmp(&txs[b as usize]));
        self.xs.clear();
        self.ys.clear();
        self.ids.clear();
        self.xs.reserve(table.len());
        self.ys.reserve(table.len());
        self.ids.reserve(table.len());
        for &id in &self.scratch {
            self.xs.push(table.x(id));
            self.ys.push(table.y(id));
            self.ids.push(id);
        }
    }

    fn for_each_in(&self, _table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        // Both range ends by binary search — the candidates in between are
        // contiguous in the sorted columns, ready for the SIMD filter.
        let start = self.xs.partition_point(|&x| x < region.x1);
        let end = start + self.xs[start..].partition_point(|&x| x <= region.x2);
        sj_base::simd::filter_range_each(
            [&self.xs[start..end], &self.ys[start..end]],
            &self.ids[start..end],
            region,
            emit,
        );
    }

    fn memory_bytes(&self) -> usize {
        // Allocated-capacity convention (see the trait docs).
        self.xs.capacity() * 4
            + self.ys.capacity() * 4
            + self.ids.capacity() * std::mem::size_of::<EntryId>()
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::index::ScanIndex;
    use sj_base::rng::Xoshiro256;

    fn random_table(n: usize, seed: u64, side: f32) -> PointTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = PointTable::default();
        for _ in 0..n {
            t.push(rng.range_f32(0.0, side), rng.range_f32(0.0, side));
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
    fn agrees_with_full_scan_on_random_queries() {
        let t = random_table(3_000, 17, 1_000.0);
        let mut idx = BinarySearchJoin::new();
        idx.build(&t);
        let mut scan = ScanIndex::new();
        scan.build(&t);
        let mut rng = Xoshiro256::seeded(5);
        for _ in 0..100 {
            let cx = rng.range_f32(0.0, 1_000.0);
            let cy = rng.range_f32(0.0, 1_000.0);
            let r = Rect::centered_square(sj_base::geom::Point::new(cx, cy), 80.0);
            assert_eq!(sorted_query(&idx, &t, &r), sorted_query(&scan, &t, &r));
        }
    }

    #[test]
    fn lower_bound_finds_first_not_less() {
        let mut t = PointTable::default();
        for x in [1.0f32, 3.0, 3.0, 5.0, 9.0] {
            t.push(x, 0.0);
        }
        let mut idx = BinarySearchJoin::new();
        idx.build(&t);
        assert_eq!(idx.lower_bound(&t, 0.0), 0);
        assert_eq!(idx.lower_bound(&t, 3.0), 1);
        assert_eq!(idx.lower_bound(&t, 4.0), 3);
        assert_eq!(idx.lower_bound(&t, 10.0), 5);
    }

    #[test]
    fn duplicate_x_values_are_all_found() {
        let mut t = PointTable::default();
        for i in 0..10 {
            t.push(5.0, i as f32);
        }
        let mut idx = BinarySearchJoin::new();
        idx.build(&t);
        let out = sorted_query(&idx, &t, &Rect::new(5.0, 0.0, 5.0, 100.0));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn empty_table_is_fine() {
        let t = PointTable::default();
        let mut idx = BinarySearchJoin::new();
        idx.build(&t);
        assert!(sorted_query(&idx, &t, &Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn rebuild_after_movement_reflects_new_positions() {
        let mut t = PointTable::default();
        t.push(1.0, 1.0);
        let mut idx = BinarySearchJoin::new();
        idx.build(&t);
        assert_eq!(
            sorted_query(&idx, &t, &Rect::new(0.0, 0.0, 2.0, 2.0)),
            vec![0]
        );
        t.set_position(0, 100.0, 100.0);
        idx.build(&t);
        assert!(sorted_query(&idx, &t, &Rect::new(0.0, 0.0, 2.0, 2.0)).is_empty());
        assert_eq!(
            sorted_query(&idx, &t, &Rect::new(99.0, 99.0, 101.0, 101.0)),
            vec![0]
        );
    }

    #[test]
    fn memory_is_at_least_one_handle_per_point() {
        // Capacity-based accounting: the footprint covers at least the 100
        // live handles (4 bytes each); the allocator may round capacity up.
        let t = random_table(100, 1, 10.0);
        let mut idx = BinarySearchJoin::new();
        idx.build(&t);
        assert!(idx.memory_bytes() >= 400, "{}", idx.memory_bytes());
    }

    #[test]
    fn vectorized_variant_agrees_with_plain_variant() {
        let t = random_table(3_000, 29, 1_000.0);
        let mut plain = BinarySearchJoin::new();
        let mut vector = VecSearchJoin::new();
        plain.build(&t);
        vector.build(&t);
        let mut rng = Xoshiro256::seeded(30);
        for _ in 0..100 {
            let cx = rng.range_f32(0.0, 1_000.0);
            let cy = rng.range_f32(0.0, 1_000.0);
            let r = Rect::centered_square(sj_base::geom::Point::new(cx, cy), 120.0);
            assert_eq!(
                sorted_query(&vector, &t, &r),
                sorted_query(&plain, &t, &r),
                "{r:?}"
            );
        }
    }

    #[test]
    fn vectorized_variant_handles_edge_ranges() {
        let t = random_table(1_000, 31, 1_000.0);
        let mut vector = VecSearchJoin::new();
        vector.build(&t);
        let mut scan = ScanIndex::new();
        scan.build(&t);
        for r in [
            Rect::new(0.0, 0.0, 1_000.0, 1_000.0),
            Rect::new(-10.0, -10.0, -1.0, -1.0),
            Rect::new(1_000.0, 0.0, 1_000.0, 1_000.0),
            Rect::new(500.0, 500.0, 500.0, 500.0),
        ] {
            assert_eq!(
                sorted_query(&vector, &t, &r),
                sorted_query(&scan, &t, &r),
                "{r:?}"
            );
        }
    }

    #[test]
    fn vectorized_variant_on_empty_table() {
        let t = PointTable::default();
        let mut vector = VecSearchJoin::new();
        vector.build(&t);
        assert!(sorted_query(&vector, &t, &Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
    }
}
