//! # sj-twolayer
//!
//! The two-layer space-oriented partitioning join for non-point data
//! (Tsitsigkos et al., arXiv:2307.09256): a set-at-a-time intersection
//! join that partitions both relations over a uniform cell grid and —
//! unlike classic PBSM-style replication joins — never produces a
//! duplicate result pair, so no dedup pass (and no result sorting or
//! hashing) is needed. Since no code needs a pair after it is emitted,
//! each one goes straight to the caller's sink
//! ([`BatchJoin::join`]).
//!
//! ## The algebra
//!
//! Each rectangle is replicated into every cell its extent overlaps
//! (the cell-grid *cover*), and within each cell it is classified by
//! which corner of its cover the cell is:
//!
//! - **A** — the cell containing the rectangle's lower-left corner
//!   (`x1`, `y1`): its *home* cell, exactly one per rectangle;
//! - **B** — same cell row as home, but a later column (the rectangle
//!   entered from the left);
//! - **C** — same cell column as home, but a later row (entered from
//!   below);
//! - **D** — later column *and* later row (entered diagonally).
//!
//! A pair of intersecting rectangles `r ⋈ s` is reported only in the
//! cell containing the intersection's **reference point**
//! `p = (max(r.x1, s.x1), max(r.y1, s.y1))` — the lower-left corner of
//! the (non-empty) intersection, which lies in exactly one cell. Because
//! the cell grid's axis mapping is monotone, `p`'s cell column is the
//! later of the two home columns and its row the later of the two home
//! rows; so within a cell only class combinations where at least one
//! side is in {A, C} (x-axis: some `x1` starts here) *and* at least one
//! is in {A, B} (y-axis: some `y1` starts here) can own a pair. Of the
//! 16 combinations that leaves exactly **nine**:
//! `AA, AB, AC, AD, BA, BC, CA, CB, DA` — the remaining seven
//! (`BB, BD, CC, CD, DB, DC, DD`) are provably duplicates of a pair
//! already reported elsewhere and are never executed.
//!
//! The classes also make parts of the intersection test redundant, and
//! that is why one kernel serves all nine mini-joins. E.g. for
//! `r ∈ A, s ∈ B`: `s`'s home column is earlier than `r`'s and the axis
//! index is monotone, so `s.x1 < r.x1 ≤ r.x2` and the test `s.x1 ≤ r.x2`
//! holds by construction. Every comparison a class-reduced test would
//! drop holds this way, so for finite coordinates — all that
//! `Rect::try_new` and trace loading admit — the full closed test gives
//! the same answer as each reduced one. Each mini-join therefore runs its
//! query replicas through the SIMD overlap kernel
//! ([`sj_base::simd::filter_overlap_each`]) over the data replicas'
//! columns: flat buckets counting-sorted by the store the Simple Grid's
//! extent path shares ([`sj_base::bucket::BucketSort`]).
//!
//! ## Both predicates
//!
//! The same machinery answers the paper framework's *within-range* point
//! joins: a point is a degenerate zero-area rectangle (`x1 = x2`,
//! `y1 = y2`) whose cover is a single cell, so every data point is class
//! A and only the `*A` mini-joins fire. Closed-rectangle tie semantics
//! are bit-identical to the scalar point-in-rect test, so the registry's
//! cross-technique agreement over point workloads holds unchanged.

use std::num::NonZeroUsize;

use sj_base::batch::BatchJoin;
use sj_base::bucket::BucketSort;
use sj_base::geom::Rect;
use sj_base::simd::filter_overlap_each;
use sj_base::table::{EntryId, ExtentTable, PointTable};
use sj_base::tile::TileGrid;

/// The nine executed `(query class, data class)` mini-joins, as class
/// indices `A = 0b00`, `B = 0b01` (later column), `C = 0b10` (later row)
/// and `D = 0b11`. A cell can own a pair only if some side's `x1` and
/// some side's `y1` start in it, so no bit may be set on both sides; the
/// seven pairings that fail (BB, BD, CC, CD, DB, DC, DD) are owned by an
/// earlier cell and never run.
fn pairings() -> impl Iterator<Item = (usize, usize)> {
    (0..16).map(|p| (p / 4, p % 4)).filter(|&(r, s)| r & s == 0)
}

/// Auto cell sizing: aim for this many data rows per cell (eight AVX2
/// blocks a kernel call). On `churn` (2-core Xeon VM, medians of 3
/// rounds on the kernel that emits hits without branching on them), 32
/// rows ran 8.5% fewer queries a second than 64 for 8.7% more heap, and
/// 128 rows 3.5% fewer (faster in 1 of 3 rounds) for 5.7% less heap.
/// When each hit still cost a branch, 32 rows had run ~7% faster and 128
/// ~9% slower: with less fixed cost per call, small cells no longer win
/// back their extra rectangle replicas. Correctness is independent of the
/// choice (any monotone grid yields the same exactly-once output).
const AUTO_TARGET_PER_CELL: usize = 64;
/// Auto cell sizing: never more than this many cells per axis (4096 in
/// all) — beyond it the per-cell bookkeeping outweighs the shrinking
/// mini-joins.
const AUTO_MAX_SIDE: usize = 64;

/// One side's replicas in one flat structure-of-arrays buffer set: the
/// ids counting-sorted by bucket `cell * 4 + class` ([`BucketSort`]),
/// with the `x1`, `y1`, `x2`, `y2` columns written at the same slots.
/// The buffers are reused across joins, so a join that needs no more
/// room than an earlier one allocates nothing, whatever its grid.
#[derive(Debug, Clone, Default)]
struct Buckets {
    sort: BucketSort,
    x1: Vec<f32>,
    y1: Vec<f32>,
    x2: Vec<f32>,
    y2: Vec<f32>,
}

impl Buckets {
    /// Replicate every row of `rows()` into each cell of its cover,
    /// classified by corner ownership relative to its home cell (the cell
    /// of its lower-left corner): one pass counts each bucket, a second
    /// places the replicas.
    fn fill<I: Iterator<Item = (EntryId, Rect)>>(&mut self, grid: &TileGrid, rows: impl Fn() -> I) {
        let nx = grid.nx();
        let buckets_of = |rect: &Rect| {
            let home = grid.tile_of(rect.x1, rect.y1);
            let (hx, hy) = (home % nx, home / nx);
            // The class bits of `pairings`.
            let class = move |t: usize| (((t / nx > hy) as usize) << 1) | ((t % nx > hx) as usize);
            grid.cover(rect).map(move |t| t * 4 + class(t))
        };
        let keys = rows().flat_map(|(_, rect)| buckets_of(&rect));
        let len = self.sort.count(grid.tiles() * 4, keys);
        for col in [&mut self.x1, &mut self.y1, &mut self.x2, &mut self.y2] {
            col.resize(len, 0.0);
        }
        for (id, rect) in rows() {
            for b in buckets_of(&rect) {
                let i = self.sort.place(b, id);
                self.x1[i] = rect.x1;
                self.y1[i] = rect.y1;
                self.x2[i] = rect.x2;
                self.y2[i] = rect.y2;
            }
        }
    }

    /// Bucket `b`'s ids and its `[x1, y1, x2, y2]` columns.
    fn bucket(&self, b: usize) -> (&[EntryId], [&[f32]; 4]) {
        let rows = self.sort.slots(b..=b);
        let cols = [&self.x1, &self.y1, &self.x2, &self.y2].map(|c| &c[rows.clone()]);
        (&self.sort.ids()[rows], cols)
    }
}

/// See crate docs. Scratch buffers are reused across ticks so
/// steady-state joins allocate nothing, and every pair goes straight to
/// the caller's sink.
///
/// ```
/// use sj_base::batch::BatchJoin;
/// use sj_base::{ExtentTable, Rect};
/// use sj_twolayer::TwoLayerJoin;
///
/// let mut table = ExtentTable::default();
/// table.push(Rect::new(0.0, 0.0, 10.0, 10.0));
/// table.push(Rect::new(5.0, 5.0, 15.0, 15.0));
/// table.push(Rect::new(90.0, 90.0, 95.0, 95.0));
///
/// // Self-join: each querier's region is its own extent.
/// let queries: Vec<_> = (0..3u32).map(|i| (i, table.rect(i))).collect();
/// let mut pairs = Vec::new();
/// TwoLayerJoin::new().join_extents(&table, &queries, &mut |q, r| pairs.push((q, r)));
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoLayerJoin {
    /// Fixed cell count, or `None` for the auto rule.
    cells: Option<NonZeroUsize>,
    /// Query-side (R) replicas.
    r: Buckets,
    /// Data-side (S) replicas — points become degenerate rects.
    s: Buckets,
}

impl TwoLayerJoin {
    /// Auto-sized square cell grid: `k × k` cells with
    /// `k = round(√(data rows / 64))` clamped to `1..=64`, so about 64
    /// data rows per cell and at most 4096 cells. The grid is square at
    /// every live count: factoring the cell count exactly, as
    /// [`TwoLayerJoin::with_cells`] does, turns a prime count into a
    /// `1 × N` strip grid whose cells span the whole space, and a query
    /// there tests several times the candidates it does on a square grid.
    /// Correctness never depends on the granularity.
    pub fn new() -> TwoLayerJoin {
        TwoLayerJoin::default()
    }

    /// Fixed cell count, factored exactly into the most nearly square
    /// grid (a prime count gives a strip grid) — correctness is
    /// grid-independent, so this only trades partitioning overhead
    /// against mini-join size.
    pub fn with_cells(cells: NonZeroUsize) -> TwoLayerJoin {
        TwoLayerJoin {
            cells: Some(cells),
            ..TwoLayerJoin::default()
        }
    }

    /// Partition `data()` (`data_rows` rows) and `queries` over a cell
    /// grid and execute the nine mini-joins per cell. Every intersecting
    /// `(querier, data row)` pair is emitted exactly once, so no pair
    /// needs to be kept, checked or deduplicated after `emit`.
    fn join_rows<I: Iterator<Item = (EntryId, Rect)>>(
        &mut self,
        data: impl Fn() -> I,
        data_rows: usize,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    ) {
        if data_rows == 0 || queries.is_empty() {
            return;
        }
        let rects = data().chain(queries.iter().copied()).map(|(_, r)| r);
        let Some(bounds) = union_bounds(rects) else {
            return;
        };
        let grid = match self.cells {
            Some(n) => TileGrid::new(&bounds, n),
            None => auto_grid(&bounds, data_rows),
        };
        self.s.fill(&grid, data);
        self.r.fill(&grid, || queries.iter().copied());

        for cell in 0..grid.tiles() {
            for (rc, sc) in pairings() {
                let (ids, cols) = self.s.bucket(cell * 4 + sc);
                if ids.is_empty() {
                    continue;
                }
                let (qs, [qx1, qy1, qx2, qy2]) = self.r.bucket(cell * 4 + rc);
                for (i, &q) in qs.iter().enumerate() {
                    let region = Rect {
                        x1: qx1[i],
                        y1: qy1[i],
                        x2: qx2[i],
                        y2: qy2[i],
                    };
                    filter_overlap_each(cols, ids, &region, &mut |s| emit(q, s));
                }
            }
        }
    }
}

/// The auto grid for `data_rows` data rows (see [`TwoLayerJoin::new`]).
/// `k²` cells factor exactly into `k × k`, so `TileGrid::new` needs no
/// other constructor.
fn auto_grid(bounds: &Rect, data_rows: usize) -> TileGrid {
    let cells = data_rows / AUTO_TARGET_PER_CELL;
    let k = ((cells as f64).sqrt().round() as usize).clamp(1, AUTO_MAX_SIDE);
    TileGrid::new(
        bounds,
        NonZeroUsize::new(k * k).expect("k is clamped to at least 1"),
    )
}

/// The tight bounding box of all rectangles, or `None` when empty.
fn union_bounds(rects: impl Iterator<Item = Rect>) -> Option<Rect> {
    let mut acc: Option<Rect> = None;
    for r in rects {
        acc = Some(match acc {
            None => r,
            Some(a) => Rect::new(
                a.x1.min(r.x1),
                a.y1.min(r.y1),
                a.x2.max(r.x2),
                a.y2.max(r.y2),
            ),
        });
    }
    acc
}

impl BatchJoin for TwoLayerJoin {
    fn name(&self) -> &str {
        "Two-Layer Partitioning"
    }

    /// Within-range point join: data points become degenerate zero-area
    /// rectangles (always class A in their single home cell), then the
    /// same nine-combo machinery runs. Tie semantics are identical to
    /// the scalar point-in-rect test.
    fn join(
        &mut self,
        table: &PointTable,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    ) {
        let points = || {
            table
                .iter()
                .map(|(id, p)| (id, Rect::new(p.x, p.y, p.x, p.y)))
        };
        self.join_rows(points, table.live_len(), queries, emit);
    }

    fn supports_intersect(&self) -> bool {
        true
    }

    fn join_extents(
        &mut self,
        data: &ExtentTable,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    ) {
        self.join_rows(|| data.iter(), data.live_len(), queries, emit);
    }

    fn fork(&self) -> Box<dyn BatchJoin + Send> {
        // Scratch buffers are per-instance caches; a clone gives a
        // parallel worker its own, so strip and tile joins never
        // contend.
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::batch::NaiveBatchJoin;
    use sj_base::rng::Xoshiro256;

    const SIDE: f32 = 1_000.0;

    /// `n` random rects with sides in `[0, 60]` (including degenerate
    /// zero-area ones at the distribution's edge).
    fn random_extents(n: usize, seed: u64) -> ExtentTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = ExtentTable::default();
        for _ in 0..n {
            let x = rng.range_f32(0.0, SIDE - 60.0);
            let y = rng.range_f32(0.0, SIDE - 60.0);
            let w = rng.range_f32(0.0, 60.0);
            let h = rng.range_f32(0.0, 60.0);
            t.push(Rect::new(x, y, x + w, y + h));
        }
        t
    }

    fn self_join_queries(t: &ExtentTable) -> Vec<(EntryId, Rect)> {
        (0..t.len() as u32)
            .filter(|&i| t.is_live(i))
            .map(|i| (i, t.rect(i)))
            .collect()
    }

    /// Brute-force reference: every live pair tested with the full
    /// closed intersection predicate.
    fn brute_force(t: &ExtentTable, qs: &[(EntryId, Rect)]) -> Vec<(EntryId, EntryId)> {
        let mut out = Vec::new();
        NaiveBatchJoin.join_extents(t, qs, &mut |q, r| out.push((q, r)));
        out.sort_unstable();
        out
    }

    #[test]
    fn emits_each_intersecting_pair_exactly_once_with_no_dedup() {
        let t = random_extents(400, 11);
        let qs = self_join_queries(&t);
        let expected = brute_force(&t, &qs);
        let mut raw = Vec::new();
        TwoLayerJoin::new().join_extents(&t, &qs, &mut |q, r| raw.push((q, r)));
        // The no-dedup pin: the RAW emit count equals the pair count —
        // nothing was filtered, sorted, or uniqued after emission.
        assert_eq!(raw.len(), expected.len());
        raw.sort_unstable();
        assert_eq!(raw, expected);
        // And the result genuinely contains duplicates-free output
        // (the equality above implies it; the windows check documents
        // that `expected` itself has no duplicates to hide behind).
        assert!(raw.windows(2).all(|w| w[0] != w[1]));
    }

    /// Rects whose corners all lie on multiples of 125, so ties fall on
    /// the cell edges of the 4 × 4 and 8 × 8 grids over `[0, 1000]²` (two
    /// live space corners pin the union bounds there); zero-area points
    /// and segments among them, and every 5th row tombstoned.
    fn lattice_extents() -> ExtentTable {
        let mut rng = Xoshiro256::seeded(29);
        let mut at = |steps: usize| 125.0 * rng.range_usize(steps) as f32;
        let mut t = ExtentTable::default();
        t.push(Rect::new(0.0, 0.0, 0.0, 0.0));
        t.push(Rect::new(SIDE, SIDE, SIDE, SIDE));
        for _ in 2..300 {
            let (x, y, w, h) = (at(9), at(9), at(3), at(3));
            t.push(Rect::new(x, y, (x + w).min(SIDE), (y + h).min(SIDE)));
        }
        for i in (4..t.len() as u32).step_by(5) {
            t.remove(i);
        }
        t
    }

    #[test]
    fn exactly_once_holds_across_cell_granularities() {
        for t in [random_extents(250, 23), lattice_extents()] {
            let qs = self_join_queries(&t);
            let expected = brute_force(&t, &qs);
            assert!(expected.len() > qs.len(), "input too sparse to pin");
            let fixed = [1usize, 2, 3, 7, 16, 64, 311].map(|n| {
                let join = TwoLayerJoin::with_cells(NonZeroUsize::new(n).unwrap());
                (format!("{n} cells"), join)
            });
            let auto = ("auto grid".to_string(), TwoLayerJoin::new());
            for (grid, mut join) in fixed.into_iter().chain([auto]) {
                let mut raw = Vec::new();
                join.join_extents(&t, &qs, &mut |q, r| raw.push((q, r)));
                assert_eq!(raw.len(), expected.len(), "{grid}");
                raw.sort_unstable();
                assert_eq!(raw, expected, "{grid}");
            }
        }
    }

    #[test]
    fn the_auto_grid_is_square_at_every_live_count() {
        let bounds = Rect::new(0.0, 0.0, SIDE, SIDE);
        // 769 · 64 rows ask for 769 cells, a prime that exact factoring
        // turns into a 769 × 1 strip grid.
        let grid = auto_grid(&bounds, 769 * 64);
        assert_eq!((grid.nx(), grid.ny()), (28, 28));
        let large = [4096 * 64, 4096 * 64 + 1, 5_000 * 64, 10_000_000];
        for rows in (1..=5_000).chain(49_000..=51_000).chain(large) {
            let k = (((rows / 64) as f64).sqrt().round() as usize).clamp(1, 64);
            let grid = auto_grid(&bounds, rows);
            assert_eq!((grid.nx(), grid.ny()), (k, k), "{rows} rows");
        }
    }

    #[test]
    fn rects_spanning_many_cells_still_pair_exactly_once() {
        let mut t = ExtentTable::default();
        // A huge rect covering almost the whole space (every cell of a
        // fine grid) against small rects scattered across it, plus a
        // second huge rect: huge×huge must also appear exactly once.
        t.push(Rect::new(10.0, 10.0, 900.0, 900.0));
        t.push(Rect::new(50.0, 50.0, 880.0, 880.0));
        for i in 0..40 {
            let x = 20.0 + (i as f32) * 22.0;
            t.push(Rect::new(x, x, x + 5.0, x + 5.0));
        }
        let qs = self_join_queries(&t);
        let expected = brute_force(&t, &qs);
        let mut raw = Vec::new();
        TwoLayerJoin::with_cells(NonZeroUsize::new(64).unwrap()).join_extents(
            &t,
            &qs,
            &mut |q, r| raw.push((q, r)),
        );
        assert_eq!(raw.len(), expected.len());
        raw.sort_unstable();
        assert_eq!(raw, expected);
    }

    #[test]
    fn touching_edges_and_corners_count_as_intersecting() {
        let mut t = ExtentTable::default();
        t.push(Rect::new(0.0, 0.0, 10.0, 10.0));
        t.push(Rect::new(10.0, 10.0, 20.0, 20.0)); // corner touch at (10,10)
        t.push(Rect::new(0.0, 10.0, 10.0, 20.0)); // edge touches both
        let qs = self_join_queries(&t);
        let mut raw = Vec::new();
        TwoLayerJoin::new().join_extents(&t, &qs, &mut |q, r| raw.push((q, r)));
        raw.sort_unstable();
        assert_eq!(raw, brute_force(&t, &qs));
        // All three touch pairwise: 3 self-pairs + 6 ordered cross pairs.
        assert_eq!(raw.len(), 9);
    }

    #[test]
    fn tombstoned_rows_never_pair() {
        let mut t = random_extents(300, 31);
        for i in (0..300u32).step_by(3) {
            t.remove(i);
        }
        let qs = self_join_queries(&t);
        let expected = brute_force(&t, &qs);
        let mut raw = Vec::new();
        TwoLayerJoin::new().join_extents(&t, &qs, &mut |q, r| raw.push((q, r)));
        assert_eq!(raw.len(), expected.len());
        raw.sort_unstable();
        assert_eq!(raw, expected);
        assert!(raw.iter().all(|&(q, s)| t.is_live(q) && t.is_live(s)));
    }

    #[test]
    fn point_join_agrees_with_naive_including_tombstones() {
        let mut rng = Xoshiro256::seeded(7);
        let mut t = PointTable::default();
        for _ in 0..500 {
            t.push(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
        }
        for i in (0..500u32).step_by(7) {
            t.remove(i);
        }
        let qs: Vec<(EntryId, Rect)> = (0..120u32)
            .map(|i| {
                let x = rng.range_f32(0.0, SIDE - 80.0);
                let y = rng.range_f32(0.0, SIDE - 80.0);
                (i, Rect::new(x, y, x + 80.0, y + 80.0))
            })
            .collect();
        let mut raw = Vec::new();
        TwoLayerJoin::new().join(&t, &qs, &mut |q, r| raw.push((q, r)));
        let mut expected = Vec::new();
        NaiveBatchJoin.join(&t, &qs, &mut |q, r| expected.push((q, r)));
        assert_eq!(raw.len(), expected.len());
        raw.sort_unstable();
        expected.sort_unstable();
        assert_eq!(raw, expected);
    }

    #[test]
    fn scratch_reuse_across_ticks_is_clean() {
        let mut j = TwoLayerJoin::new();
        let t1 = random_extents(200, 41);
        let qs1 = self_join_queries(&t1);
        let mut out = Vec::new();
        j.join_extents(&t1, &qs1, &mut |q, r| out.push((q, r)));
        out.sort_unstable();
        assert_eq!(out, brute_force(&t1, &qs1));
        // A second, smaller join (fewer cells in use) must not see stale
        // class lists from the first.
        let t2 = random_extents(40, 42);
        let qs2 = self_join_queries(&t2);
        let mut out2 = Vec::new();
        j.join_extents(&t2, &qs2, &mut |q, r| out2.push((q, r)));
        out2.sort_unstable();
        assert_eq!(out2, brute_force(&t2, &qs2));
    }

    #[test]
    fn fork_is_independent_and_supports_the_predicate() {
        let j = TwoLayerJoin::new();
        let mut f = j.fork();
        assert!(f.supports_intersect());
        let t = random_extents(100, 51);
        let qs = self_join_queries(&t);
        let mut out = Vec::new();
        f.join_extents(&t, &qs, &mut |q, r| out.push((q, r)));
        out.sort_unstable();
        assert_eq!(out, brute_force(&t, &qs));
    }

    #[test]
    fn empty_inputs_yield_empty_join() {
        let mut j = TwoLayerJoin::new();
        let mut out = Vec::new();
        j.join_extents(
            &ExtentTable::default(),
            &[(0, Rect::new(0.0, 0.0, 1.0, 1.0))],
            &mut |q, r| out.push((q, r)),
        );
        assert!(out.is_empty());
        let t = random_extents(10, 61);
        j.join_extents(&t, &[], &mut |q, r| out.push((q, r)));
        assert!(out.is_empty());
        j.join(
            &PointTable::default(),
            &[(0, Rect::new(0.0, 0.0, 1.0, 1.0))],
            &mut |q, r| out.push((q, r)),
        );
        assert!(out.is_empty());
    }
}
