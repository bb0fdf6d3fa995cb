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
//! Better still, the class definitions make parts of the intersection
//! test redundant. E.g. for `r ∈ A, s ∈ B`: `s` entered the cell from
//! the left, so `s.x1 < cell.x1 ≤ r.x1 ≤ r.x2` and the test
//! `s.x1 ≤ r.x2` always holds — only `r.x1 ≤ s.x2` and the y-overlap
//! remain. Every non-AA mini-join drops at least one comparison this
//! way; `DA` needs only two of the four.
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
use sj_base::geom::Rect;
use sj_base::table::{EntryId, ExtentTable, PointTable};
use sj_base::tile::TileGrid;

/// Class indices into a cell's per-class lists (see crate docs).
const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const D: usize = 3;

/// Auto cell sizing: aim for this many data rows per cell. Mini-joins
/// are nested loops, so cells stay small; correctness is independent of
/// the choice (any monotone grid yields the same exactly-once output).
const AUTO_TARGET_PER_CELL: usize = 64;
/// Auto cell sizing: never more cells than this — beyond it the
/// per-cell bookkeeping outweighs the shrinking mini-joins.
const AUTO_MAX_CELLS: usize = 4096;

/// One cell's partitioned view: the query-side (R) and data-side (S)
/// rectangles replicated here, split by corner class.
#[derive(Debug, Clone, Default)]
struct CellLists {
    r: [Vec<(EntryId, Rect)>; 4],
    s: [Vec<(EntryId, Rect)>; 4],
}

impl CellLists {
    fn clear(&mut self) {
        for v in self.r.iter_mut().chain(self.s.iter_mut()) {
            v.clear();
        }
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
    /// Data-side rows as `(id, rect)` — points become degenerate rects.
    s_rows: Vec<(EntryId, Rect)>,
    /// Per-cell class lists, indexed by cell id; only the first
    /// `grid.tiles()` entries are in use for any given join.
    parts: Vec<CellLists>,
}

impl TwoLayerJoin {
    /// Auto-sized cell grid: aims for ~64 data rows per cell, capped at
    /// 4096 cells. Correctness never depends on the granularity.
    pub fn new() -> TwoLayerJoin {
        TwoLayerJoin::default()
    }

    /// Fixed cell count — correctness is grid-independent, so this only
    /// trades partitioning overhead against mini-join size.
    pub fn with_cells(cells: NonZeroUsize) -> TwoLayerJoin {
        TwoLayerJoin {
            cells: Some(cells),
            ..TwoLayerJoin::default()
        }
    }

    /// The cell count for `data_rows` data rectangles.
    fn cell_count(&self, data_rows: usize) -> NonZeroUsize {
        match self.cells {
            Some(n) => n,
            None => NonZeroUsize::new((data_rows / AUTO_TARGET_PER_CELL).clamp(1, AUTO_MAX_CELLS))
                .expect("clamp(1, ..) is non-zero"),
        }
    }

    /// Partition `self.s_rows` (data) and `queries` (query side) over a
    /// cell grid and execute the nine mini-joins per cell. Every
    /// intersecting `(querier, data row)` pair is emitted exactly once,
    /// so no pair needs to be kept, checked or deduplicated after `emit`.
    fn join_rows(&mut self, queries: &[(EntryId, Rect)], emit: &mut dyn FnMut(EntryId, EntryId)) {
        if self.s_rows.is_empty() || queries.is_empty() {
            return;
        }
        let bounds = match union_bounds(self.s_rows.iter().chain(queries).map(|&(_, r)| r)) {
            Some(b) => b,
            None => return,
        };
        let grid = TileGrid::new(&bounds, self.cell_count(self.s_rows.len()));
        let tiles = grid.tiles();
        for cell in self.parts.iter_mut() {
            cell.clear();
        }
        if self.parts.len() < tiles {
            self.parts.resize_with(tiles, CellLists::default);
        }

        partition(&grid, &self.s_rows, &mut self.parts, Side::Data);
        partition(&grid, queries, &mut self.parts, Side::Query);

        // The nine executed mini-joins with their reduced tests. The
        // skipped class combinations (BB, BD, CC, CD, DB, DC, DD) are
        // exactly those where the pair's reference point cannot lie in
        // this cell — their pairs are owned by an earlier cell.
        let y_ov = |r: &Rect, s: &Rect| r.y1 <= s.y2 && s.y1 <= r.y2;
        let x_ov = |r: &Rect, s: &Rect| r.x1 <= s.x2 && s.x1 <= r.x2;
        for cell in &self.parts[..tiles] {
            let (r, s) = (&cell.r, &cell.s);
            mini(&r[A], &s[A], |a, b| a.intersects(b), emit);
            mini(&r[A], &s[B], |a, b| a.x1 <= b.x2 && y_ov(a, b), emit);
            mini(&r[A], &s[C], |a, b| a.y1 <= b.y2 && x_ov(a, b), emit);
            mini(&r[A], &s[D], |a, b| a.x1 <= b.x2 && a.y1 <= b.y2, emit);
            mini(&r[B], &s[A], |a, b| b.x1 <= a.x2 && y_ov(a, b), emit);
            mini(&r[B], &s[C], |a, b| b.x1 <= a.x2 && a.y1 <= b.y2, emit);
            mini(&r[C], &s[A], |a, b| x_ov(a, b) && b.y1 <= a.y2, emit);
            mini(&r[C], &s[B], |a, b| a.x1 <= b.x2 && b.y1 <= a.y2, emit);
            mini(&r[D], &s[A], |a, b| b.x1 <= a.x2 && b.y1 <= a.y2, emit);
        }
    }
}

/// Which side of the join a partition pass feeds.
#[derive(Clone, Copy)]
enum Side {
    Query,
    Data,
}

/// Replicate every rectangle into each cell of its cover, classified by
/// corner ownership relative to its home cell (the cell of its
/// lower-left corner).
fn partition(grid: &TileGrid, rows: &[(EntryId, Rect)], parts: &mut [CellLists], side: Side) {
    let nx = grid.nx();
    for &(id, rect) in rows {
        let home = grid.tile_of(rect.x1, rect.y1);
        let (hx, hy) = (home % nx, home / nx);
        for t in grid.cover(&rect) {
            let (tx, ty) = (t % nx, t / nx);
            // A = 0b00, B = 0b01 (later column), C = 0b10 (later row),
            // D = 0b11 — matching the class index constants.
            let class = (((ty > hy) as usize) << 1) | ((tx > hx) as usize);
            let lists = match side {
                Side::Query => &mut parts[t].r,
                Side::Data => &mut parts[t].s,
            };
            lists[class].push((id, rect));
        }
    }
}

/// One mini-join: nested loop with the combo's reduced predicate.
#[inline]
fn mini<F: Fn(&Rect, &Rect) -> bool>(
    rs: &[(EntryId, Rect)],
    ss: &[(EntryId, Rect)],
    test: F,
    emit: &mut dyn FnMut(EntryId, EntryId),
) {
    for &(q, qr) in rs {
        for &(sid, sr) in ss {
            if test(&qr, &sr) {
                emit(q, sid);
            }
        }
    }
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
        self.s_rows.clear();
        self.s_rows.reserve(table.live_len());
        for (id, p) in table.iter() {
            self.s_rows.push((id, Rect::new(p.x, p.y, p.x, p.y)));
        }
        self.join_rows(queries, emit);
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
        self.s_rows.clear();
        self.s_rows.reserve(data.live_len());
        for (id, rect) in data.iter() {
            self.s_rows.push((id, rect));
        }
        self.join_rows(queries, emit);
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

    #[test]
    fn exactly_once_holds_across_cell_granularities() {
        let t = random_extents(250, 23);
        let qs = self_join_queries(&t);
        let expected = brute_force(&t, &qs);
        for cells in [1usize, 2, 3, 7, 16, 64, 311] {
            let mut raw = Vec::new();
            TwoLayerJoin::with_cells(NonZeroUsize::new(cells).unwrap()).join_extents(
                &t,
                &qs,
                &mut |q, r| raw.push((q, r)),
            );
            assert_eq!(raw.len(), expected.len(), "cells={cells}");
            raw.sort_unstable();
            assert_eq!(raw, expected, "cells={cells}");
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
