//! # sj-sweep
//!
//! The forward plane-sweep spatial join — the *specialized join* category
//! of the framework the paper builds on (Sowell et al., PVLDB 2013,
//! following Arge et al.'s sweeping approach). No index is ever built:
//! each tick, the whole batch of range queries is joined against the
//! point set in one x-ordered sweep.
//!
//! Algorithm: sort the points by x and the queries by their left edge
//! (`x1`); advance through the points in x order, activating every query
//! whose interval has started and lazily retiring queries whose interval
//! has ended; each point is tested against the active queries' y-ranges,
//! and each match goes straight to the caller's sink. With query windows
//! of side `w` over a space of side `S`, the expected active-list size is
//! `|Q|·w/S`, so the join costs `O(sort + |P|·|Q|·w/S)` — independent of
//! any index tuning, which is what made it a robust competitor in the
//! original study.
//!
//! The sweep orders the query *regions* and the swept table's points and
//! never dereferences a querier id, so a bipartite R ⋈ S join is the same
//! call with S as the table and R's regions as the queries.

use sj_base::batch::BatchJoin;
use sj_base::geom::Rect;
use sj_base::table::{EntryId, PointTable};

/// See crate docs. Scratch buffers are reused across ticks so steady-state
/// joins allocate nothing, and every pair goes straight to the caller's
/// sink.
///
/// ```
/// use sj_base::batch::BatchJoin;
/// use sj_base::{PointTable, Rect};
/// use sj_sweep::PlaneSweepJoin;
///
/// let mut table = PointTable::default();
/// table.push(50.0, 50.0);
/// table.push(500.0, 500.0);
///
/// let queries = vec![
///     (7u32, Rect::new(0.0, 0.0, 100.0, 100.0)),
///     (8u32, Rect::new(0.0, 0.0, 600.0, 600.0)),
/// ];
/// let mut pairs = Vec::new();
/// PlaneSweepJoin::new().join(&table, &queries, &mut |q, r| pairs.push((q, r)));
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(7, 0), (8, 0), (8, 1)]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PlaneSweepJoin {
    /// Points sorted by x: `(x, id)`.
    pts: Vec<(f32, EntryId)>,
    /// Query order sorted by left edge: indices into the caller's slice.
    order: Vec<u32>,
    /// Currently active queries (indices into the caller's slice).
    active: Vec<u32>,
}

impl PlaneSweepJoin {
    pub fn new() -> Self {
        Self::default()
    }
}

impl BatchJoin for PlaneSweepJoin {
    fn name(&self) -> &str {
        "Plane Sweep"
    }

    fn join(
        &mut self,
        table: &PointTable,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    ) {
        if queries.is_empty() || table.is_empty() {
            return;
        }
        let ys = table.ys();

        self.pts.clear();
        self.pts.reserve(table.live_len());
        // Live rows only: churn tombstones never enter the sweep order.
        for (id, p) in table.iter() {
            self.pts.push((p.x, id));
        }
        self.pts.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        self.order.clear();
        self.order.extend(0..queries.len() as u32);
        self.order.sort_unstable_by(|&a, &b| {
            queries[a as usize]
                .1
                .x1
                .total_cmp(&queries[b as usize].1.x1)
        });

        self.active.clear();
        let mut next_q = 0usize;
        for &(px, pid) in &self.pts {
            // Activate queries whose interval has started (x1 <= px).
            while next_q < self.order.len() {
                let qi = self.order[next_q];
                if queries[qi as usize].1.x1 <= px {
                    self.active.push(qi);
                    next_q += 1;
                } else {
                    break;
                }
            }
            // Test against active queries, lazily retiring finished ones
            // (x2 < px). swap_remove keeps retirement O(1); order within
            // the active list is irrelevant.
            let py = ys[pid as usize];
            let mut i = 0;
            while i < self.active.len() {
                let qi = self.active[i] as usize;
                let r = &queries[qi].1;
                if r.x2 < px {
                    self.active.swap_remove(i);
                    continue;
                }
                if py >= r.y1 && py <= r.y2 {
                    emit(queries[qi].0, pid);
                }
                i += 1;
            }
        }
    }

    fn fork(&self) -> Box<dyn BatchJoin + Send> {
        // Scratch buffers are per-instance caches; a clone gives a parallel
        // worker its own, so strip joins never contend.
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::batch::NaiveBatchJoin;
    use sj_base::geom::Point;
    use sj_base::rng::Xoshiro256;

    const SIDE: f32 = 1_000.0;

    fn random_setup(n_pts: usize, n_qs: usize, seed: u64) -> (PointTable, Vec<(EntryId, Rect)>) {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = PointTable::default();
        for _ in 0..n_pts {
            t.push(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
        }
        let queries = (0..n_qs)
            .map(|i| {
                let c = Point::new(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
                (
                    (i % n_pts.max(1)) as EntryId,
                    Rect::centered_square(c, rng.range_f32(1.0, 150.0))
                        .clipped_to(&Rect::space(SIDE)),
                )
            })
            .collect();
        (t, queries)
    }

    fn sorted_join(
        j: &mut dyn BatchJoin,
        t: &PointTable,
        qs: &[(EntryId, Rect)],
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        j.join(t, qs, &mut |q, r| out.push((q, r)));
        out.sort_unstable();
        out
    }

    #[test]
    fn agrees_with_naive_nested_loop() {
        let (t, qs) = random_setup(800, 200, 5);
        let mut sweep = PlaneSweepJoin::new();
        let mut naive = NaiveBatchJoin;
        assert_eq!(
            sorted_join(&mut sweep, &t, &qs),
            sorted_join(&mut naive, &t, &qs)
        );
    }

    #[test]
    fn boundary_touching_queries_match() {
        let mut t = PointTable::default();
        t.push(100.0, 100.0);
        t.push(200.0, 100.0);
        // Query right edge exactly on the first point, left edge exactly
        // on the second.
        let qs = vec![
            (0u32, Rect::new(0.0, 0.0, 100.0, 300.0)),
            (1u32, Rect::new(200.0, 0.0, 300.0, 300.0)),
        ];
        let mut sweep = PlaneSweepJoin::new();
        assert_eq!(sorted_join(&mut sweep, &t, &qs), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn empty_cases() {
        let (t, qs) = random_setup(100, 10, 1);
        let mut sweep = PlaneSweepJoin::new();
        let mut out = Vec::new();
        sweep.join(&t, &[], &mut |q, r| out.push((q, r)));
        assert!(out.is_empty());
        sweep.join(&PointTable::default(), &qs, &mut |q, r| out.push((q, r)));
        assert!(out.is_empty());
    }

    #[test]
    fn overlapping_queries_each_report() {
        let mut t = PointTable::default();
        t.push(50.0, 50.0);
        let qs = vec![
            (0u32, Rect::new(0.0, 0.0, 100.0, 100.0)),
            (0u32, Rect::new(25.0, 25.0, 75.0, 75.0)),
            (0u32, Rect::new(49.0, 49.0, 51.0, 51.0)),
        ];
        let mut sweep = PlaneSweepJoin::new();
        let mut out = Vec::new();
        sweep.join(&t, &qs, &mut |q, r| out.push((q, r)));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn scratch_reuse_across_joins_is_clean() {
        let (t1, qs1) = random_setup(500, 100, 7);
        let (t2, qs2) = random_setup(300, 50, 8);
        let mut sweep = PlaneSweepJoin::new();
        let mut naive = NaiveBatchJoin;
        assert_eq!(
            sorted_join(&mut sweep, &t1, &qs1),
            sorted_join(&mut naive, &t1, &qs1)
        );
        // Second join with different sizes must not see stale state.
        assert_eq!(
            sorted_join(&mut sweep, &t2, &qs2),
            sorted_join(&mut naive, &t2, &qs2)
        );
    }

    #[test]
    fn duplicate_points_and_queries() {
        let mut t = PointTable::default();
        for _ in 0..10 {
            t.push(5.0, 5.0);
        }
        let qs = vec![(3u32, Rect::new(5.0, 5.0, 5.0, 5.0)); 4];
        let mut sweep = PlaneSweepJoin::new();
        let mut out = Vec::new();
        sweep.join(&t, &qs, &mut |q, r| out.push((q, r)));
        assert_eq!(out.len(), 40);
    }
}
