//! # sj-quadtree
//!
//! A bucket point-region (PR) quadtree, bulk-built per tick: an extra
//! static-index baseline beyond the paper's four (quadtree-shaped
//! throwaway indexes appear in the original ten-technique study's
//! taxonomy; DESIGN.md §7 motivates its inclusion here).
//!
//! The space is recursively split into four equal quadrants until a
//! region holds at most `bucket_size` points (or the depth limit is hit —
//! duplicate points make unbounded splitting futile). Nodes live in a
//! flat arena with the four children of a node contiguous; leaf entries
//! are `(x, y, id)` columns grouped by leaf, so leaf scans are sequential.

use sj_base::geom::Rect;
use sj_base::index::SpatialIndex;
use sj_base::table::{EntryId, PointTable};

/// Default leaf capacity; in the same regime as the tuned grid's bs = 20.
pub const DEFAULT_BUCKET_SIZE: usize = 16;

/// Depth limit: 2⁻²⁴ of the space side is below f32 resolution anywhere
/// in the paper's coordinate ranges, so deeper splits cannot separate
/// points.
const MAX_DEPTH: u32 = 24;

const NO_CHILDREN: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Index of the first of four contiguous children, or `NO_CHILDREN`
    /// for a leaf.
    child_base: u32,
    /// Leaf payload range in the entry columns (empty for internals).
    start: u32,
    len: u32,
}

/// See crate docs.
///
/// ```
/// use sj_base::{PointTable, Rect, SpatialIndex};
/// use sj_quadtree::QuadTree;
///
/// let mut table = PointTable::default();
/// table.push(1.0, 1.0);
/// table.push(999.0, 999.0);
///
/// let mut tree = QuadTree::with_default_bucket(1000.0);
/// tree.build(&table);
/// let mut hits = Vec::new();
/// tree.query(&table, &Rect::new(990.0, 990.0, 1000.0, 1000.0), &mut hits);
/// assert_eq!(hits, vec![1]);
/// ```
pub struct QuadTree {
    bucket_size: usize,
    space_side: f32,
    nodes: Vec<Node>,
    /// Four child node indices per internal node, at
    /// `child_index[node.child_base .. +4]` in SW, SE, NW, NE order
    /// (children are built depth-first, so they cannot be contiguous in
    /// `nodes` itself).
    child_index: Vec<u32>,
    leaf_x: Vec<f32>,
    leaf_y: Vec<f32>,
    leaf_id: Vec<EntryId>,
    /// Build scratch: entry ids being partitioned.
    scratch: Vec<EntryId>,
}

impl QuadTree {
    /// Quadtree over `[0, space_side]²`.
    ///
    /// # Panics
    /// Panics if `space_side` is not positive or `bucket_size` is zero.
    pub fn new(space_side: f32, bucket_size: usize) -> Self {
        assert!(space_side > 0.0, "space_side must be positive");
        assert!(bucket_size > 0, "bucket_size must be positive");
        QuadTree {
            bucket_size,
            space_side,
            nodes: Vec::new(),
            child_index: Vec::new(),
            leaf_x: Vec::new(),
            leaf_y: Vec::new(),
            leaf_id: Vec::new(),
            scratch: Vec::new(),
        }
    }

    pub fn with_default_bucket(space_side: f32) -> Self {
        Self::new(space_side, DEFAULT_BUCKET_SIZE)
    }

    /// Number of tree nodes after the last build.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Recursively build the subtree over `scratch[lo..hi]`; returns the
    /// node index. `cx`/`cy` is the region centre, `half` its half-side.
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn build_node(
        &mut self,
        table: &PointTable,
        lo: usize,
        hi: usize,
        cx: f32,
        cy: f32,
        half: f32,
        depth: u32,
    ) -> u32 {
        let ni = self.nodes.len() as u32;
        self.nodes.push(Node {
            child_base: NO_CHILDREN,
            start: 0,
            len: 0,
        });

        if hi - lo <= self.bucket_size || depth >= MAX_DEPTH {
            let start = self.leaf_x.len() as u32;
            for &id in &self.scratch[lo..hi] {
                self.leaf_x.push(table.x(id));
                self.leaf_y.push(table.y(id));
                self.leaf_id.push(id);
            }
            self.nodes[ni as usize].start = start;
            self.nodes[ni as usize].len = (hi - lo) as u32;
            return ni;
        }

        // Partition scratch[lo..hi] into the four quadrants in place:
        // first split by y (south | north), then each half by x.
        let xs = table.xs();
        let ys = table.ys();
        let mid_y = partition(&mut self.scratch[lo..hi], |id| ys[id as usize] < cy) + lo;
        let mid_x_s = partition(&mut self.scratch[lo..mid_y], |id| xs[id as usize] < cx) + lo;
        let mid_x_n = partition(&mut self.scratch[mid_y..hi], |id| xs[id as usize] < cx) + mid_y;

        let q = half * 0.5;
        // Children are created depth-first, so they are NOT contiguous;
        // record each child index explicitly via a temporary array.
        let ranges = [
            (lo, mid_x_s),
            (mid_x_s, mid_y),
            (mid_y, mid_x_n),
            (mid_x_n, hi),
        ];
        let centers = [
            (cx - q, cy - q), // SW
            (cx + q, cy - q), // SE
            (cx - q, cy + q), // NW
            (cx + q, cy + q), // NE
        ];
        let mut children = [0u32; 4];
        for (k, (&(a, b), &(ccx, ccy))) in ranges.iter().zip(centers.iter()).enumerate() {
            children[k] = self.build_node(table, a, b, ccx, ccy, q, depth + 1);
        }
        // Store the four child indices in a side array appended to the
        // arena: children of node ni live at nodes[ni].child_base .. +4 in
        // `child_index`. To keep a single arena, children[] is encoded in
        // the nodes of a dedicated index block below.
        let base = self.child_index.len() as u32;
        self.child_index.extend_from_slice(&children);
        self.nodes[ni as usize].child_base = base;
        ni
    }

    /// Depth-first query descent. Recursive (depth ≤ MAX_DEPTH) so the
    /// per-query hot path allocates nothing.
    fn visit(
        &self,
        ni: u32,
        cx: f32,
        cy: f32,
        h: f32,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        let node_rect = Rect::new(cx - h, cy - h, cx + h, cy + h);
        if !region.intersects(&node_rect) {
            return;
        }
        let node = self.nodes[ni as usize];
        if node.child_base == NO_CHILDREN {
            let s = node.start as usize;
            let e = s + node.len as usize;
            if region.contains_rect(&node_rect) {
                for &id in &self.leaf_id[s..e] {
                    emit(id);
                }
            } else {
                sj_base::simd::filter_range_each(
                    [&self.leaf_x[s..e], &self.leaf_y[s..e]],
                    &self.leaf_id[s..e],
                    region,
                    emit,
                );
            }
        } else {
            let q = h * 0.5;
            let base = node.child_base as usize;
            self.visit(self.child_index[base], cx - q, cy - q, q, region, emit);
            self.visit(self.child_index[base + 1], cx + q, cy - q, q, region, emit);
            self.visit(self.child_index[base + 2], cx - q, cy + q, q, region, emit);
            self.visit(self.child_index[base + 3], cx + q, cy + q, q, region, emit);
        }
    }
}

/// Stable-order in-place partition: moves elements satisfying `pred` to
/// the front, returns the split point. Order within groups is not
/// preserved (irrelevant for spatial grouping).
fn partition<T: Copy, F: Fn(T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut i = 0usize;
    for j in 0..slice.len() {
        if pred(slice[j]) {
            slice.swap(i, j);
            i += 1;
        }
    }
    i
}

impl SpatialIndex for QuadTree {
    fn name(&self) -> &str {
        "Quadtree"
    }

    fn build(&mut self, table: &PointTable) {
        self.nodes.clear();
        self.child_index.clear();
        self.leaf_x.clear();
        self.leaf_y.clear();
        self.leaf_id.clear();
        self.scratch.clear();
        // Live rows only: churn tombstones never enter the tree.
        self.scratch.extend(table.iter().map(|(id, _)| id));
        let half = self.space_side * 0.5;
        let n = self.scratch.len();
        self.build_node(table, 0, n, half, half, half, 0);
    }

    fn for_each_in(&self, _table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        if self.nodes.is_empty() {
            return;
        }
        let half = self.space_side * 0.5;
        // Recursion instead of a heap-allocated stack: the query path runs
        // once per query per tick, and depth is bounded by MAX_DEPTH.
        self.visit(0, half, half, half, region, emit);
    }

    fn memory_bytes(&self) -> usize {
        // Allocated-capacity convention (see the trait docs).
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.child_index.capacity() * 4
            + self.leaf_x.capacity() * 4
            + self.leaf_y.capacity() * 4
            + self.leaf_id.capacity() * std::mem::size_of::<EntryId>()
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        Box::new(QuadTree::new(self.space_side, self.bucket_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::geom::Point;
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
    fn agrees_with_full_scan() {
        let t = random_table(3_000, 50);
        let mut qt = QuadTree::with_default_bucket(SIDE);
        qt.build(&t);
        let mut scan = ScanIndex::new();
        scan.build(&t);
        let mut rng = Xoshiro256::seeded(51);
        for _ in 0..100 {
            let c = Point::new(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
            let r = Rect::centered_square(c, 90.0);
            assert_eq!(sorted_query(&qt, &t, &r), sorted_query(&scan, &t, &r));
        }
    }

    #[test]
    fn duplicate_points_respect_depth_limit() {
        let mut t = PointTable::default();
        for _ in 0..500 {
            t.push(123.456, 654.321);
        }
        let mut qt = QuadTree::new(SIDE, 4);
        qt.build(&t);
        let out = sorted_query(&qt, &t, &Rect::new(123.0, 654.0, 124.0, 655.0));
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn full_space_query_returns_everything() {
        let t = random_table(700, 52);
        let mut qt = QuadTree::with_default_bucket(SIDE);
        qt.build(&t);
        assert_eq!(sorted_query(&qt, &t, &Rect::space(SIDE)).len(), 700);
    }

    #[test]
    fn empty_and_tiny_tables() {
        let mut qt = QuadTree::with_default_bucket(SIDE);
        let t = PointTable::default();
        qt.build(&t);
        assert!(sorted_query(&qt, &t, &Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        let mut t1 = PointTable::default();
        t1.push(2.0, 2.0);
        qt.build(&t1);
        assert_eq!(
            sorted_query(&qt, &t1, &Rect::new(0.0, 0.0, 5.0, 5.0)),
            vec![0]
        );
    }

    #[test]
    fn points_on_quadrant_boundaries_are_found() {
        // Points exactly on the central split lines.
        let mut t = PointTable::default();
        t.push(SIDE / 2.0, SIDE / 2.0);
        t.push(SIDE / 2.0, 10.0);
        t.push(10.0, SIDE / 2.0);
        let mut qt = QuadTree::new(SIDE, 1);
        qt.build(&t);
        assert_eq!(sorted_query(&qt, &t, &Rect::space(SIDE)).len(), 3);
        assert_eq!(
            sorted_query(
                &qt,
                &t,
                &Rect::new(SIDE / 2.0, SIDE / 2.0, SIDE / 2.0, SIDE / 2.0)
            ),
            vec![0]
        );
    }

    #[test]
    fn rebuild_reflects_movement() {
        let mut t = random_table(200, 53);
        let mut qt = QuadTree::with_default_bucket(SIDE);
        qt.build(&t);
        t.set_position(5, 1.0, 1.0);
        qt.build(&t);
        assert!(sorted_query(&qt, &t, &Rect::new(0.0, 0.0, 2.0, 2.0)).contains(&5));
    }

    #[test]
    fn tree_splits_under_load() {
        let t = random_table(5_000, 54);
        let mut qt = QuadTree::new(SIDE, 8);
        qt.build(&t);
        assert!(qt.num_nodes() > 100, "only {} nodes", qt.num_nodes());
    }
}
