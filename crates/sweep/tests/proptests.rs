//! Property-based tests: the plane sweep agrees with the naive nested
//! loop on arbitrary point sets and query batches.

use proptest::prelude::*;
use sj_base::batch::{BatchJoin, NaiveBatchJoin};
use sj_base::geom::Rect;
use sj_base::table::{EntryId, PointTable};
use sj_sweep::PlaneSweepJoin;

const SIDE: f32 = 500.0;

fn arb_points() -> impl Strategy<Value = Vec<(f32, f32)>> {
    prop::collection::vec((0.0f32..=SIDE, 0.0f32..=SIDE), 0..200)
}

fn arb_queries() -> impl Strategy<Value = Vec<(u32, f32, f32, f32, f32)>> {
    prop::collection::vec(
        (
            0u32..100,
            0.0f32..=SIDE,
            0.0f32..=SIDE,
            0.0f32..=150.0,
            0.0f32..=150.0,
        ),
        0..60,
    )
}

fn run_case(points: Vec<(f32, f32)>, qs: Vec<(u32, f32, f32, f32, f32)>) {
    let mut t = PointTable::default();
    for &(x, y) in &points {
        t.push(x, y);
    }
    let queries: Vec<(EntryId, Rect)> = qs
        .iter()
        .map(|&(id, x, y, w, h)| (id, Rect::new(x, y, (x + w).min(SIDE), (y + h).min(SIDE))))
        .collect();
    let mut sweep_out = Vec::new();
    PlaneSweepJoin::new().join(&t, &queries, &mut |q, r| sweep_out.push((q, r)));
    sweep_out.sort_unstable();
    let mut naive_out = Vec::new();
    NaiveBatchJoin.join(&t, &queries, &mut |q, r| naive_out.push((q, r)));
    naive_out.sort_unstable();
    assert_eq!(sweep_out, naive_out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sweep_agrees_with_naive(points in arb_points(), qs in arb_queries()) {
        run_case(points, qs);
    }

    #[test]
    fn sweep_agrees_on_degenerate_zero_width_queries(
        points in arb_points(),
        edges in prop::collection::vec((0u32..100, 0.0f32..=SIDE, 0.0f32..=SIDE), 0..40),
    ) {
        // Zero-area queries sitting exactly on point coordinates.
        let qs = edges.into_iter().map(|(id, x, y)| (id, x, y, 0.0, 0.0)).collect();
        run_case(points, qs);
    }

    #[test]
    fn sweep_agrees_on_vertically_aligned_points(
        x in 0.0f32..=SIDE,
        ys in prop::collection::vec(0.0f32..=SIDE, 0..100),
        qs in arb_queries(),
    ) {
        // All points share one x: the activation loop floods at once.
        let points = ys.into_iter().map(|y| (x, y)).collect();
        run_case(points, qs);
    }
}
