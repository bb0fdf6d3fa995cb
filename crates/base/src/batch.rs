//! Batch (set-at-a-time) join abstraction.
//!
//! The paper's focus is the *index nested loop* category: build an index,
//! probe it once per query. The underlying study also evaluates
//! *specialized join* techniques that consume the whole tick's query set
//! at once (e.g., a forward plane sweep) and need no index at all. This
//! trait captures that shape; `sj-sweep` implements it, and
//! [`crate::driver::run_batch_join`] drives it through the same tick loop
//! so results are directly comparable with the per-query techniques.

use crate::geom::Rect;
use crate::table::{entry_id, EntryId, ExtentTable, PointTable};

/// A set-at-a-time spatial join: all of a tick's range queries against
/// the current base table in one call.
pub trait BatchJoin {
    /// Display name for benchmark tables.
    fn name(&self) -> &str;

    /// Append every `(querier, matching object)` pair to `out`, in no
    /// particular order. `queries` carries `(querier id, region)` with
    /// closed-rectangle semantics, exactly as the per-query driver
    /// produces them. Querier ids are opaque to the join — in a self-join
    /// they happen to index `table`, in a bipartite join they index the
    /// query relation instead (see [`BatchJoin::join_two`]), and under
    /// tiling they are positions in a tile's query list (see
    /// [`crate::par::tiled_batch_join`]).
    fn join(
        &mut self,
        table: &PointTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    );

    /// The two-table (bipartite R ⋈ S) entry point: `queries` carries one
    /// region per querier of the query relation `queriers` (R), joined
    /// against the data relation `data` (S). Matching rows of `data` are
    /// emitted as `(querier, data row)` pairs. The driver always goes
    /// through this method — a self-join simply passes the same table
    /// twice.
    ///
    /// The default forwards to [`BatchJoin::join`] over `data`: the query
    /// regions are already materialized, so a technique that never
    /// dereferences querier ids (both implementations in this workspace)
    /// is bipartite-ready for free. Override it only if the algorithm
    /// wants the querier positions themselves.
    fn join_two(
        &mut self,
        queriers: &PointTable,
        data: &PointTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        let _ = queriers;
        self.join(data, queries, out);
    }

    /// Whether this technique implements the **intersects** predicate
    /// over extent entries (see
    /// [`crate::index::SpatialIndex::supports_intersect`] — the same
    /// predicate axis, batch category). Implementations returning `true`
    /// must override [`BatchJoin::join_extents`].
    fn supports_intersect(&self) -> bool {
        false
    }

    /// The intersection-join entry point: append every `(querier, data
    /// row)` pair whose rectangles intersect (closed semantics) to `out`,
    /// in no particular order. `queries` carries `(querier id, query
    /// rectangle)` — in the driver's rect self-join the rectangle *is*
    /// the querier's own extent. Querier ids are opaque, exactly as in
    /// [`BatchJoin::join`]. Only called when
    /// [`BatchJoin::supports_intersect`] is `true`; the default panics so
    /// a missing override cannot silently return empty joins.
    fn join_extents(
        &mut self,
        _data: &ExtentTable,
        _queries: &[(EntryId, Rect)],
        _out: &mut Vec<(EntryId, EntryId)>,
    ) {
        panic!("{}: no intersects-predicate support", self.name());
    }

    /// An independent instance of this technique for a parallel worker
    /// (see [`crate::par::shard_batch_join`]): same algorithm, private
    /// scratch state. Implementations are typically `Clone`, so this is
    /// one line; it must not share mutable state with `self`.
    fn fork(&self) -> Box<dyn BatchJoin + Send>;
}

/// Reference implementation: a nested loop over queries × points.
/// Quadratic and only used to validate the real batch techniques.
#[derive(Debug, Default, Clone)]
pub struct NaiveBatchJoin;

impl BatchJoin for NaiveBatchJoin {
    fn name(&self) -> &str {
        "Naive Nested Loop"
    }

    fn join(
        &mut self,
        table: &PointTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        let xs = table.xs();
        let ys = table.ys();
        let live = table.live_mask();
        for &(q, region) in queries {
            for i in 0..xs.len() {
                if live[i] && region.contains_point(xs[i], ys[i]) {
                    out.push((q, entry_id(i)));
                }
            }
        }
    }

    fn supports_intersect(&self) -> bool {
        true
    }

    fn join_extents(
        &mut self,
        data: &ExtentTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        let (x1s, y1s) = (data.x1s(), data.y1s());
        let (x2s, y2s) = (data.x2s(), data.y2s());
        let live = data.live_mask();
        for &(q, region) in queries {
            for i in 0..x1s.len() {
                if live[i]
                    && region.x1 <= x2s[i]
                    && x1s[i] <= region.x2
                    && region.y1 <= y2s[i]
                    && y1s[i] <= region.y2
                {
                    out.push((q, entry_id(i)));
                }
            }
        }
    }

    fn fork(&self) -> Box<dyn BatchJoin + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_join_finds_all_pairs() {
        let mut t = PointTable::default();
        t.push(1.0, 1.0);
        t.push(5.0, 5.0);
        t.push(9.0, 9.0);
        let queries = vec![
            (0u32, Rect::new(0.0, 0.0, 6.0, 6.0)),
            (2u32, Rect::new(8.0, 8.0, 10.0, 10.0)),
        ];
        let mut out = Vec::new();
        NaiveBatchJoin.join(&t, &queries, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(0, 0), (0, 1), (2, 2)]);
    }

    #[test]
    fn dead_rows_are_excluded_from_the_join() {
        let mut t = PointTable::default();
        t.push(1.0, 1.0);
        t.push(2.0, 2.0);
        t.remove(0);
        let queries = vec![(9u32, Rect::new(0.0, 0.0, 5.0, 5.0))];
        let mut out = Vec::new();
        NaiveBatchJoin.join(&t, &queries, &mut out);
        assert_eq!(out, vec![(9, 1)]);
    }

    #[test]
    fn join_two_over_distinct_relations_probes_only_the_data_table() {
        // R rows sit far outside every query region: only S (data) rows
        // may appear on the right of a pair, and the querier ids pass
        // through untouched even though they don't index S.
        let mut r = PointTable::default();
        r.push(1_000.0, 1_000.0);
        r.push(2_000.0, 2_000.0);
        let mut s = PointTable::default();
        s.push(1.0, 1.0);
        s.push(5.0, 5.0);
        let queries = vec![
            (0u32, Rect::new(0.0, 0.0, 2.0, 2.0)),
            (1u32, Rect::new(0.0, 0.0, 10.0, 10.0)),
        ];
        let mut out = Vec::new();
        NaiveBatchJoin.join_two(&r, &s, &queries, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(0, 0), (1, 0), (1, 1)]);
    }

    #[test]
    fn join_two_with_the_same_table_twice_is_the_self_join() {
        let mut t = PointTable::default();
        t.push(1.0, 1.0);
        t.push(5.0, 5.0);
        let queries = vec![(0u32, Rect::new(0.0, 0.0, 6.0, 6.0))];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        NaiveBatchJoin.join(&t, &queries, &mut a);
        NaiveBatchJoin.join_two(&t, &t, &queries, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn extent_join_finds_overlaps_including_touching_edges() {
        let mut t = ExtentTable::default();
        t.push(Rect::new(0.0, 0.0, 2.0, 2.0));
        t.push(Rect::new(4.0, 4.0, 6.0, 6.0));
        t.push(Rect::new(10.0, 10.0, 12.0, 12.0));
        let queries = vec![
            // Touches rect 0 at the corner (2,2) and overlaps rect 1.
            (7u32, Rect::new(2.0, 2.0, 5.0, 5.0)),
            (8u32, Rect::new(11.0, 11.0, 20.0, 20.0)),
        ];
        let mut out = Vec::new();
        assert!(NaiveBatchJoin.supports_intersect());
        NaiveBatchJoin.join_extents(&t, &queries, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(7, 0), (7, 1), (8, 2)]);
    }

    #[test]
    fn extent_join_excludes_dead_rows() {
        let mut t = ExtentTable::default();
        t.push(Rect::new(0.0, 0.0, 2.0, 2.0));
        t.push(Rect::new(1.0, 1.0, 3.0, 3.0));
        t.remove(0);
        let queries = vec![(5u32, Rect::new(0.0, 0.0, 10.0, 10.0))];
        let mut out = Vec::new();
        NaiveBatchJoin.join_extents(&t, &queries, &mut out);
        assert_eq!(out, vec![(5, 1)]);
    }

    #[test]
    fn empty_inputs_yield_empty_join() {
        let t = PointTable::default();
        let mut out = Vec::new();
        NaiveBatchJoin.join(&t, &[], &mut out);
        assert!(out.is_empty());
        let mut t2 = PointTable::default();
        t2.push(1.0, 1.0);
        NaiveBatchJoin.join(&t2, &[], &mut out);
        assert!(out.is_empty());
    }
}
