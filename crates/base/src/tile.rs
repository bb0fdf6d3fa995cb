//! Space partitioning for [`crate::par::ExecMode::Partitioned`]: tile
//! geometry, extent replication, and the reference-point rule.
//!
//! This module is pure geometry and bookkeeping — no threads. The
//! thread-spawning tiled executors live in [`crate::par`] (the only module
//! allowed to spawn; sj-lint's `bare-thread-spawn` rule enforces it).
//!
//! ## The scheme (DESIGN.md §13)
//!
//! The data space is split into an `nx × ny` grid of `N` tiles
//! ([`TileGrid`]). Every row is **replicated** into every tile its query
//! region overlaps ([`replicate_by_extent`]; the region is the shape's
//! [`Shape::query_region`] — a point's clipped centred square, a
//! rectangle's own extent), and queriers are assigned to tiles by the same
//! rule. Each tile then joins its local replicas independently, which
//! double-reports any pair whose two sides straddle a boundary. The
//! **reference-point rule** restores exactness: tile `T` emits a candidate
//! `(q, r)` only if the corner `(max(q.x1, r.x1), max(q.y1, r.y1))` of the
//! pair's intersection lies in `T` ([`Shape::reference_point`]). A point
//! is the zero-area rectangle at its coordinates, so for a point `r`
//! inside `q`'s region that corner is `r` itself. Coverage and uniqueness
//! both follow from one fact — the per-axis tile index is a monotone
//! function of the coordinate, so `axis_index(max(a, b)) =
//! max(axis_index(a), axis_index(b))`:
//!
//! - *coverage*: the corner lies inside both `q`'s region and `r`'s own
//!   replication region, so its tile is in both covers: querier `q`
//!   visits it and `r` is resident there; the pair is found there;
//! - *uniqueness*: the filter accepts it in that tile and nowhere else.
//!
//! Checksums are unperturbed because each pair is emitted exactly once with
//! its *global* ids ([`TileReplica::to_global`]) and the driver's checksum
//! fold is a commutative wrapping sum — any partition of the pair set
//! merges back to the sequential value bit for bit.

use std::num::NonZeroUsize;

use crate::geom::Rect;
use crate::table::{entry_id, EntryId, ExtentTable, PointTable, Shape};

/// Factor `tiles` into the most nearly square `nx × ny` grid: `ny` is the
/// largest divisor not exceeding `√tiles`, so `nx ≥ ny` and `nx·ny ==
/// tiles` exactly (a prime count degenerates to an `n × 1` strip).
fn grid_dims(tiles: usize) -> (usize, usize) {
    let mut d = 1;
    let mut k = 1;
    while k * k <= tiles {
        if tiles.is_multiple_of(k) {
            d = k;
        }
        k += 1;
    }
    (tiles / d, d)
}

/// Per-axis tile index of a coordinate at `offset` from the space origin.
/// `as usize` saturates, so negatives and NaN (a degenerate zero-width
/// axis divides 0/0) land in tile 0 and `+inf` in the last tile — every
/// input gets a tile, and the map stays monotone in `offset`.
#[inline]
fn axis_index(offset: f32, tile_len: f32, n: usize) -> usize {
    ((offset / tile_len) as usize).min(n - 1)
}

/// An `nx × ny` tiling of the data space, row-major tile ids `0..tiles`.
///
/// A point exactly on an interior tile edge belongs to the higher-indexed
/// tile (floor semantics), mirroring how [`crate::geom::Rect`]'s closed
/// containment ties are broken everywhere else in the workspace: the
/// assignment is a pure function of the coordinates, identical on every
/// side of the join, which is all the reference-point rule needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileGrid {
    bounds: Rect,
    nx: usize,
    ny: usize,
    tile_w: f32,
    tile_h: f32,
}

impl TileGrid {
    /// Tile `space` into exactly `tiles` rectangles (see `grid_dims`).
    pub fn new(space: &Rect, tiles: NonZeroUsize) -> TileGrid {
        let (nx, ny) = grid_dims(tiles.get());
        TileGrid {
            bounds: *space,
            nx,
            ny,
            tile_w: space.width() / nx as f32,
            tile_h: space.height() / ny as f32,
        }
    }

    /// Total number of tiles (`nx · ny`, exactly the requested count).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.nx * self.ny
    }

    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The tiled space.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Canonical tile of a point — the reference point of the dedup rule.
    #[inline]
    pub fn tile_of(&self, x: f32, y: f32) -> usize {
        let ix = axis_index(x - self.bounds.x1, self.tile_w, self.nx);
        let iy = axis_index(y - self.bounds.y1, self.tile_h, self.ny);
        iy * self.nx + ix
    }

    /// Every tile `region` overlaps, as the rectangle of per-axis index
    /// ranges of its corners. Because `axis_index` is monotone, this
    /// range contains [`TileGrid::tile_of`] of every point in `region` —
    /// the containment [`replicate_by_extent`] and querier assignment
    /// rely on.
    pub fn cover(&self, region: &Rect) -> TileCover {
        let ix0 = axis_index(region.x1 - self.bounds.x1, self.tile_w, self.nx);
        let ix1 = axis_index(region.x2 - self.bounds.x1, self.tile_w, self.nx);
        let iy0 = axis_index(region.y1 - self.bounds.y1, self.tile_h, self.ny);
        let iy1 = axis_index(region.y2 - self.bounds.y1, self.tile_h, self.ny);
        TileCover {
            nx: self.nx,
            ix0,
            ix1,
            iy1,
            ix: ix0,
            iy: iy0,
        }
    }

    /// Geometric bounds of tile `t` (the last row/column absorbs any
    /// floating-point remainder so the tiles exactly cover the space).
    pub fn tile_bounds(&self, t: usize) -> Rect {
        let (ix, iy) = (t % self.nx, t / self.nx);
        let x1 = self.bounds.x1 + ix as f32 * self.tile_w;
        let y1 = self.bounds.y1 + iy as f32 * self.tile_h;
        let x2 = if ix + 1 == self.nx {
            self.bounds.x2
        } else {
            self.bounds.x1 + (ix + 1) as f32 * self.tile_w
        };
        let y2 = if iy + 1 == self.ny {
            self.bounds.y2
        } else {
            self.bounds.y1 + (iy + 1) as f32 * self.tile_h
        };
        Rect::new(x1, y1, x2.max(x1), y2.max(y1))
    }
}

/// Iterator over the row-major tile ids of a [`TileGrid::cover`] range.
pub struct TileCover {
    nx: usize,
    ix0: usize,
    ix1: usize,
    iy1: usize,
    ix: usize,
    iy: usize,
}

impl Iterator for TileCover {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.iy > self.iy1 {
            return None;
        }
        let t = self.iy * self.nx + self.ix;
        if self.ix < self.ix1 {
            self.ix += 1;
        } else {
            self.ix = self.ix0;
            self.iy += 1;
        }
        Some(t)
    }
}

/// One tile's local view of a relation: the replicated live rows as a
/// fresh table of the same shape (so indexes and batch joins run on it
/// unchanged) plus the local-row → global-handle map that translates
/// emitted pairs back into driver ids. Tombstoned rows are never
/// replicated — a row that dies simply vanishes from every replica set at
/// the next partition, exactly as it vanishes from a sequential rebuild.
#[derive(Debug, Default)]
pub struct TileReplica<T = PointTable> {
    pub table: T,
    pub to_global: Vec<EntryId>,
}

impl<T: Shape> TileReplica<T> {
    /// Drop all rows, keeping allocated capacity for the next tick.
    pub fn clear(&mut self) {
        self.table.clear();
        self.to_global.clear();
    }

    fn push(&mut self, row: T::Row, global: EntryId) {
        self.table.push_row(row);
        self.to_global.push(global);
    }

    /// Global handle of local row `local`.
    #[inline]
    pub fn global(&self, local: EntryId) -> EntryId {
        self.to_global[local as usize]
    }
}

/// Partition `table`'s **live** rows into per-tile replicas: each row goes
/// to every tile its query region ([`Shape::query_region`], clipped to the
/// grid's space for points) overlaps. `replicas` is resized to the grid
/// and reused across ticks — steady-state partitioning allocates nothing.
pub fn replicate_by_extent<T: Shape>(
    table: &T,
    grid: &TileGrid,
    query_side: f32,
    replicas: &mut Vec<TileReplica<T>>,
) {
    replicas.resize_with(grid.tiles(), TileReplica::default);
    for r in replicas.iter_mut() {
        r.clear();
    }
    let live = table.live_mask();
    let all_live = table.all_live();
    for i in (0..table.len()).filter(|&i| all_live || live[i]) {
        let id = entry_id(i);
        let row = table.row(id);
        for t in grid.cover(&table.query_region(id, query_side, grid.bounds())) {
            replicas[t].push(row, id);
        }
    }
}

/// Queriers per mini-join chunk. Small enough that a hotspot tile's work
/// splits into many schedulable pieces, large enough that the shared
/// cursor's `fetch_add` is noise next to the probes it buys.
pub const MINI_JOIN_CHUNK: usize = 64;

/// One unit of schedulable query work: queriers `start..end` of tile
/// `tile`'s assignment list. The pooled executors in [`crate::par`] push
/// these onto a shared queue and let any worker drain any tile — which is
/// sound because the reference-point rule makes every chunk's `(pairs,
/// checksum)` partial independent of which thread computes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MiniJoin {
    pub tile: usize,
    pub start: usize,
    pub end: usize,
}

/// Decompose per-tile work-list lengths into [`MiniJoin`]s of at most
/// `chunk` queriers each, appended to `out` (callers clear and reuse the
/// buffer across ticks). Empty tiles contribute no chunks, so the queue
/// length — not the tile count — bounds useful worker parallelism.
pub fn chunk_mini_joins<I>(lens: I, chunk: usize, out: &mut Vec<MiniJoin>)
where
    I: IntoIterator<Item = usize>,
{
    let chunk = chunk.max(1);
    for (tile, len) in lens.into_iter().enumerate() {
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            out.push(MiniJoin { tile, start, end });
            start = end;
        }
    }
}

/// Target live rows per tile of the adaptive (`@tilesauto`) policy.
pub const AUTO_TARGET_PER_TILE: usize = 2048;

/// Upper bound of the adaptive tile count (matches the largest grid the
/// fixed-count tests exercise; beyond it replication overhead dominates).
pub const AUTO_MAX_TILES: usize = 64;

/// Sample budget of the density histogram: rows are visited at a stride
/// chosen so at most this many contribute.
const AUTO_SAMPLE: usize = 4096;

/// Histogram resolution per axis (8 × 8 bins).
const AUTO_BINS: usize = 8;

/// Hotspot threshold: if the fullest bin holds at least this many times
/// the mean bin, the distribution is skewed enough that finer
/// tiles pay for themselves (more mini-joins to steal from the hotspot).
const AUTO_SKEW_THRESHOLD: f64 = 4.0;

/// Pick a tile count from the observed data: `live / 2048` as the base
/// (clamped to `1..=64`), doubled when a strided-sample density histogram
/// shows a hotspot, and capped so no tile axis is narrower than the query
/// extent (tiles thinner than a query replicate nearly every row into
/// several tiles, which costs more than the parallelism returns).
///
/// The policy is deterministic — strided sampling, no RNG — and the result
/// only sizes the grid: the reference-point rule makes join results
/// tile-count-invariant, so adaptive runs stay bit-identical to sequential
/// whatever count this picks.
pub fn auto_tile_count(table: &PointTable, space: &Rect, query_side: f32) -> NonZeroUsize {
    let mut count = (table.live_len() / AUTO_TARGET_PER_TILE).clamp(1, AUTO_MAX_TILES);
    if sampled_skew(table, space) >= AUTO_SKEW_THRESHOLD {
        count = (count * 2).min(AUTO_MAX_TILES);
    }
    let min_side = space.width().min(space.height());
    let axis_cap = ((min_side / query_side.max(1e-6)) as usize).clamp(1, AUTO_BINS);
    let cap = (axis_cap * axis_cap).min(AUTO_MAX_TILES);
    NonZeroUsize::new(count.min(cap).max(1)).expect("clamped to at least one tile")
}

/// Adaptive tile count for an extent relation: the plain population rule
/// (`live / 2048`, clamped to `1..=64`) without the skew/width heuristics
/// of [`auto_tile_count`] — extents carry their own query region, so
/// there is no `query_side` to cap the axis with, and the population term
/// alone keeps adaptive runs deterministic and bit-identical (the
/// reference-point rule makes results tile-count-invariant).
pub fn auto_tile_count_extents(table: &ExtentTable) -> NonZeroUsize {
    let count = (table.live_len() / AUTO_TARGET_PER_TILE).clamp(1, AUTO_MAX_TILES);
    NonZeroUsize::new(count).expect("clamped to at least one tile")
}

/// Ratio of the fullest histogram bin to the mean bin, from a strided
/// sample of the live rows binned into an 8 × 8 grid over `space`. The
/// mean is over **all** bins, not just occupied ones: empty bins become
/// idle tiles, which is precisely the imbalance the metric must see —
/// all mass in one corner bin is the most skewed case of all, and a
/// mean-over-occupied denominator would read it as perfectly uniform.
/// `1.0` when the table is empty.
fn sampled_skew(table: &PointTable, space: &Rect) -> f64 {
    let n = table.len();
    if n == 0 {
        return 1.0;
    }
    let stride = n.div_ceil(AUTO_SAMPLE).max(1);
    let (xs, ys) = (table.xs(), table.ys());
    let live = table.live_mask();
    let all_live = table.all_live();
    let (w, h) = (space.width().max(1e-6), space.height().max(1e-6));
    let mut bins = [0u32; AUTO_BINS * AUTO_BINS];
    for i in (0..n).step_by(stride) {
        if !all_live && !live[i] {
            continue;
        }
        let bx = (((xs[i] - space.x1) / w * AUTO_BINS as f32) as usize).min(AUTO_BINS - 1);
        let by = (((ys[i] - space.y1) / h * AUTO_BINS as f32) as usize).min(AUTO_BINS - 1);
        bins[by * AUTO_BINS + bx] += 1;
    }
    let mut max = 0u32;
    let mut sum = 0u64;
    for &b in &bins {
        max = max.max(b);
        sum += u64::from(b);
    }
    if sum == 0 {
        return 1.0;
    }
    f64::from(max) / (sum as f64 / bins.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;
    use crate::rng::Xoshiro256;

    fn tiles(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn grid_dims_factor_exactly_and_nearly_square() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(2), (2, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(5), (5, 1));
        assert_eq!(grid_dims(8), (4, 2));
        assert_eq!(grid_dims(12), (4, 3));
        assert_eq!(grid_dims(16), (4, 4));
        for n in 1..=64 {
            let (nx, ny) = grid_dims(n);
            assert_eq!(nx * ny, n, "n = {n}");
            assert!(nx >= ny, "n = {n}");
        }
    }

    #[test]
    fn tile_of_is_total_and_in_range() {
        let g = TileGrid::new(&Rect::space(100.0), tiles(6));
        let mut rng = Xoshiro256::seeded(3);
        for _ in 0..1000 {
            let (x, y) = (rng.range_f32(0.0, 100.0), rng.range_f32(0.0, 100.0));
            assert!(g.tile_of(x, y) < g.tiles());
        }
        // Space corners, including the closed upper boundary.
        assert_eq!(g.tile_of(0.0, 0.0), 0);
        assert_eq!(g.tile_of(100.0, 100.0), g.tiles() - 1);
    }

    #[test]
    fn edge_points_belong_to_the_higher_tile() {
        // 2 × 2 over [0,100]²: the interior edges are x = 50 and y = 50.
        let g = TileGrid::new(&Rect::space(100.0), tiles(4));
        assert_eq!((g.nx(), g.ny()), (2, 2));
        assert_eq!(g.tile_of(49.999, 10.0), 0);
        assert_eq!(g.tile_of(50.0, 10.0), 1, "x tie goes right");
        assert_eq!(g.tile_of(10.0, 50.0), 2, "y tie goes up");
        assert_eq!(g.tile_of(50.0, 50.0), 3, "corner tie goes up-right");
    }

    #[test]
    fn cover_contains_the_canonical_tile_of_every_contained_point() {
        // The monotonicity property the reference-point proof stands on.
        let space = Rect::space(1_000.0);
        let mut rng = Xoshiro256::seeded(7);
        for n in [1usize, 2, 3, 4, 5, 7, 16, 64] {
            let g = TileGrid::new(&space, tiles(n));
            for _ in 0..200 {
                let c = Point::new(rng.range_f32(0.0, 1_000.0), rng.range_f32(0.0, 1_000.0));
                let region = Rect::centered_square(c, rng.range_f32(0.0, 400.0)).clipped_to(&space);
                let covered: Vec<usize> = g.cover(&region).collect();
                for _ in 0..20 {
                    let p = Point::new(
                        rng.range_f32(region.x1, region.x2),
                        rng.range_f32(region.y1, region.y2),
                    );
                    assert!(
                        covered.contains(&g.tile_of(p.x, p.y)),
                        "tiles = {n}, region = {region:?}, p = {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cover_of_a_straddling_region_lists_each_tile_once() {
        let g = TileGrid::new(&Rect::space(100.0), tiles(4));
        // Straddles both interior edges: all four tiles, each exactly once.
        let four: Vec<usize> = g
            .cover(&Rect::centered_square(Point::new(50.0, 50.0), 10.0))
            .collect();
        assert_eq!(four, vec![0, 1, 2, 3]);
        // Straddles only the vertical edge: two tiles.
        let two: Vec<usize> = g
            .cover(&Rect::centered_square(Point::new(50.0, 20.0), 10.0))
            .collect();
        assert_eq!(two, vec![0, 1]);
        // Interior to one tile.
        let one: Vec<usize> = g
            .cover(&Rect::centered_square(Point::new(20.0, 20.0), 10.0))
            .collect();
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn tile_bounds_partition_the_space() {
        for n in [1usize, 2, 4, 5, 6, 16] {
            let space = Rect::space(100.0);
            let g = TileGrid::new(&space, tiles(n));
            let mut area = 0.0;
            for t in 0..g.tiles() {
                let b = g.tile_bounds(t);
                assert!(space.contains_rect(&b), "tiles = {n}, t = {t}");
                assert!(b.contains_point((b.x1 + b.x2) * 0.5, (b.y1 + b.y2) * 0.5));
                area += b.area();
            }
            assert!(
                (area - space.area()).abs() < 1.0,
                "tiles = {n}: area {area}"
            );
        }
    }

    #[test]
    fn canonical_tile_bounds_contain_their_points_off_the_shared_edges() {
        // Interior points map to the tile whose rectangle holds them; on a
        // shared edge both rectangles contain the point (closed rects) and
        // tile_of picks the higher one deterministically.
        let g = TileGrid::new(&Rect::space(100.0), tiles(4));
        let mut rng = Xoshiro256::seeded(11);
        for _ in 0..500 {
            let (x, y) = (rng.range_f32(0.0, 100.0), rng.range_f32(0.0, 100.0));
            let b = g.tile_bounds(g.tile_of(x, y));
            assert!(b.contains_point(x, y), "({x}, {y}) not in {b:?}");
        }
    }

    #[test]
    fn replication_covers_the_home_tile_and_skips_tombstones() {
        let space = Rect::space(100.0);
        let g = TileGrid::new(&space, tiles(4));
        let mut t = PointTable::default();
        let a = t.push(20.0, 20.0); // interior to tile 0
        let b = t.push(50.0, 50.0); // center: replicated everywhere
        let dead = t.push(80.0, 80.0);
        t.remove(dead);

        let mut replicas = Vec::new();
        replicate_by_extent(&t, &g, 10.0, &mut replicas);
        assert_eq!(replicas.len(), 4);

        // Every live row is resident in its canonical tile.
        for (id, p) in t.iter() {
            let home = g.tile_of(p.x, p.y);
            assert!(
                replicas[home].to_global.contains(&id),
                "row {id} missing from home tile {home}"
            );
        }
        // The straddler is in all four replica sets; the corner point in one.
        for r in &replicas {
            assert!(r.to_global.contains(&b));
            assert_eq!(r.table.len(), r.to_global.len());
            assert!(r.table.all_live(), "replicas hold live rows only");
        }
        assert_eq!(
            replicas.iter().filter(|r| r.to_global.contains(&a)).count(),
            1
        );
        // The tombstone is nowhere — including the tile it used to live in.
        for r in &replicas {
            assert!(!r.to_global.contains(&dead));
        }
    }

    #[test]
    fn replication_reuses_buffers_across_ticks() {
        let space = Rect::space(100.0);
        let g = TileGrid::new(&space, tiles(2));
        let mut t = PointTable::default();
        for i in 0..10 {
            t.push(i as f32 * 10.0, 50.0);
        }
        let mut replicas = Vec::new();
        replicate_by_extent(&t, &g, 8.0, &mut replicas);
        let first: Vec<usize> = replicas.iter().map(|r| r.table.len()).collect();
        // Repartitioning the same table must reproduce the same replica
        // sets (no stale rows from the previous tick).
        replicate_by_extent(&t, &g, 8.0, &mut replicas);
        let second: Vec<usize> = replicas.iter().map(|r| r.table.len()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn mini_join_chunks_cover_every_querier_exactly_once() {
        let mut out = Vec::new();
        chunk_mini_joins([130usize, 0, 64, 1], 64, &mut out);
        assert_eq!(
            out,
            vec![
                MiniJoin {
                    tile: 0,
                    start: 0,
                    end: 64
                },
                MiniJoin {
                    tile: 0,
                    start: 64,
                    end: 128
                },
                MiniJoin {
                    tile: 0,
                    start: 128,
                    end: 130
                },
                MiniJoin {
                    tile: 2,
                    start: 0,
                    end: 64
                },
                MiniJoin {
                    tile: 3,
                    start: 0,
                    end: 1
                },
            ]
        );
        // The empty tile contributes no chunk; totals reconstruct the lens.
        let mut per_tile = [0usize; 4];
        for m in &out {
            per_tile[m.tile] += m.end - m.start;
        }
        assert_eq!(per_tile, [130, 0, 64, 1]);
    }

    #[test]
    fn mini_join_chunking_tolerates_a_zero_chunk_size() {
        let mut out = Vec::new();
        chunk_mini_joins([3usize], 0, &mut out);
        assert_eq!(out.len(), 3, "degenerate chunk size falls back to 1");
    }

    #[test]
    fn auto_tile_count_tracks_the_live_population() {
        let space = Rect::space(100_000.0);
        let mut t = PointTable::default();
        assert_eq!(auto_tile_count(&t, &space, 10.0).get(), 1, "empty table");
        let mut rng = Xoshiro256::seeded(5);
        for _ in 0..AUTO_TARGET_PER_TILE * 8 {
            t.push(rng.range_f32(0.0, 100_000.0), rng.range_f32(0.0, 100_000.0));
        }
        let n = auto_tile_count(&t, &space, 10.0).get();
        assert_eq!(n, 8, "uniform 8×target rows → 8 tiles, no skew doubling");
        // Tombstoning half the rows halves the live count and the grid.
        for i in 0..t.len() {
            if i % 2 == 0 {
                t.remove(entry_id(i));
            }
        }
        assert_eq!(auto_tile_count(&t, &space, 10.0).get(), 4);
    }

    #[test]
    fn auto_tile_count_doubles_under_skew_and_respects_the_cap() {
        let space = Rect::space(100_000.0);
        let mut rng = Xoshiro256::seeded(9);
        // All mass in one corner bin: maximal skew.
        let mut t = PointTable::default();
        for _ in 0..AUTO_TARGET_PER_TILE * 8 {
            t.push(rng.range_f32(0.0, 1_000.0), rng.range_f32(0.0, 1_000.0));
        }
        assert_eq!(
            auto_tile_count(&t, &space, 10.0).get(),
            16,
            "hotspot doubles the uniform count"
        );
        // The cap binds: even a huge skewed table stays at AUTO_MAX_TILES.
        let mut big = PointTable::default();
        for _ in 0..AUTO_TARGET_PER_TILE * 80 {
            big.push(rng.range_f32(0.0, 1_000.0), rng.range_f32(0.0, 1_000.0));
        }
        assert_eq!(auto_tile_count(&big, &space, 10.0).get(), AUTO_MAX_TILES);
    }

    #[test]
    fn auto_tile_count_never_makes_tiles_narrower_than_the_query() {
        // Space 100 wide, queries 30 wide: at most 3 tiles per axis → 9
        // total (then squared-cap rounding keeps it ≤ 9), regardless of
        // how many rows there are.
        let space = Rect::space(100.0);
        let mut rng = Xoshiro256::seeded(13);
        let mut t = PointTable::default();
        for _ in 0..AUTO_TARGET_PER_TILE * 32 {
            t.push(rng.range_f32(0.0, 100.0), rng.range_f32(0.0, 100.0));
        }
        assert!(auto_tile_count(&t, &space, 30.0).get() <= 9);
        // A degenerate zero query side must not divide by zero.
        assert!(auto_tile_count(&t, &space, 0.0).get() >= 1);
    }

    #[test]
    fn extent_replication_covers_every_overlapped_tile_and_skips_tombstones() {
        let space = Rect::space(100.0);
        let g = TileGrid::new(&space, tiles(4));
        let mut t = ExtentTable::default();
        let a = t.push(Rect::new(10.0, 10.0, 20.0, 20.0)); // interior to tile 0
        let b = t.push(Rect::new(45.0, 45.0, 55.0, 55.0)); // straddles all four
        let c = t.push(Rect::new(60.0, 10.0, 90.0, 20.0)); // interior to tile 1
        let dead = t.push(Rect::new(70.0, 70.0, 80.0, 80.0));
        t.remove(dead);

        let mut replicas = Vec::new();
        replicate_by_extent(&t, &g, 0.0, &mut replicas);
        assert_eq!(replicas.len(), 4);

        let holding = |id: EntryId| {
            replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.to_global.contains(&id))
                .map(|(t, _)| t)
                .collect::<Vec<_>>()
        };
        assert_eq!(holding(a), vec![0]);
        assert_eq!(holding(b), vec![0, 1, 2, 3]);
        assert_eq!(holding(c), vec![1]);
        assert!(holding(dead).is_empty());
        for r in &replicas {
            assert_eq!(r.table.len(), r.to_global.len());
            assert!(r.table.all_live(), "replicas hold live rows only");
        }
        // Replicated rows keep their full geometry.
        let local = replicas[3].to_global.iter().position(|&g| g == b).unwrap();
        assert_eq!(
            replicas[3].table.rect(entry_id(local)),
            Rect::new(45.0, 45.0, 55.0, 55.0)
        );
    }

    #[test]
    fn intersection_reference_point_lands_in_both_covers() {
        // The generalization the extent tiled executors stand on: for any
        // intersecting pair, the tile of (max(x1), max(y1)) is in both
        // rects' covers.
        let space = Rect::space(1_000.0);
        let mut rng = Xoshiro256::seeded(21);
        for n in [1usize, 2, 4, 5, 7, 16, 64] {
            let g = TileGrid::new(&space, tiles(n));
            for _ in 0..300 {
                let (ax, ay) = (rng.range_f32(0.0, 950.0), rng.range_f32(0.0, 950.0));
                let a = Rect::new(
                    ax,
                    ay,
                    ax + rng.range_f32(0.0, 50.0),
                    ay + rng.range_f32(0.0, 50.0),
                );
                let (bx, by) = (rng.range_f32(0.0, 950.0), rng.range_f32(0.0, 950.0));
                let b = Rect::new(
                    bx,
                    by,
                    bx + rng.range_f32(0.0, 50.0),
                    by + rng.range_f32(0.0, 50.0),
                );
                if !a.intersects(&b) {
                    continue;
                }
                let home = g.tile_of(a.x1.max(b.x1), a.y1.max(b.y1));
                let ca: Vec<usize> = g.cover(&a).collect();
                let cb: Vec<usize> = g.cover(&b).collect();
                assert!(ca.contains(&home), "tiles = {n}, a = {a:?}, b = {b:?}");
                assert!(cb.contains(&home), "tiles = {n}, a = {a:?}, b = {b:?}");
            }
        }
    }

    #[test]
    fn extent_auto_tile_count_tracks_the_live_population() {
        let mut t = ExtentTable::default();
        assert_eq!(auto_tile_count_extents(&t).get(), 1, "empty table");
        for i in 0..AUTO_TARGET_PER_TILE * 8 {
            let x = (i % 1000) as f32;
            t.push(Rect::new(x, x, x + 1.0, x + 1.0));
        }
        assert_eq!(auto_tile_count_extents(&t).get(), 8);
        for i in 0..t.len() {
            if i % 2 == 0 {
                t.remove(entry_id(i));
            }
        }
        assert_eq!(auto_tile_count_extents(&t).get(), 4);
    }

    #[test]
    fn oversharded_grids_leave_most_tiles_empty_but_lose_nothing() {
        let space = Rect::space(100.0);
        let g = TileGrid::new(&space, tiles(64));
        let mut t = PointTable::default();
        t.push(10.0, 10.0);
        t.push(90.0, 90.0);
        let mut replicas = Vec::new();
        replicate_by_extent(&t, &g, 1.0, &mut replicas);
        let populated = replicas.iter().filter(|r| !r.table.is_empty()).count();
        assert!((2..=8).contains(&populated));
        let total: usize = replicas.iter().map(|r| r.table.len()).sum();
        assert!(total >= 2);
    }
}
