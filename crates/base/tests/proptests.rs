//! Property-based tests for the core geometry and RNG.

use proptest::prelude::*;
use sj_base::geom::{Point, Rect, Vec2};
use sj_base::rng::Xoshiro256;
use sj_base::simd::{filter_overlap_each, filter_overlap_each_scalar};
use sj_base::table::MovingSet;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f32..1000.0, 0.0f32..1000.0, 0.0f32..500.0, 0.0f32..500.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// A coordinate drawn from a small lattice so that rectangle edges tie
/// *exactly* with each other a large fraction of the time — the `>=`
/// vs `>` mistakes only show on equal bits.
fn arb_lattice_coord() -> impl Strategy<Value = f32> {
    prop::sample::select(vec![0.0f32, 50.0, 100.0, 150.0, 200.0, 99.999, 100.001])
}

/// A rectangle on the tie lattice; zero-extent sides are frequent (the
/// lattice reuses values), so degenerate line/point rects appear often.
fn arb_tie_rect() -> impl Strategy<Value = Rect> {
    (
        arb_lattice_coord(),
        arb_lattice_coord(),
        arb_lattice_coord(),
        arb_lattice_coord(),
    )
        .prop_map(|(a, b, c, d)| Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)))
}

proptest! {
    #[test]
    fn intersects_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn containment_implies_intersection(a in arb_rect(), b in arb_rect()) {
        if a.contains_rect(&b) {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn clip_result_is_inside_bounds(a in arb_rect()) {
        let bounds = Rect::new(200.0, 200.0, 1200.0, 1200.0);
        if a.intersects(&bounds) {
            let c = a.clipped_to(&bounds);
            prop_assert!(bounds.contains_rect(&c));
            prop_assert!(a.contains_rect(&c));
        }
    }

    #[test]
    fn contained_points_are_inside_both_halves(r in arb_rect(), px in 0.0f32..1500.0, py in 0.0f32..1500.0) {
        // Point containment is exactly the conjunction of interval tests.
        let expect = px >= r.x1 && px <= r.x2 && py >= r.y1 && py <= r.y2;
        prop_assert_eq!(r.contains_point(px, py), expect);
    }

    #[test]
    fn centered_square_is_centered(cx in 0.0f32..1000.0, cy in 0.0f32..1000.0, side in 0.1f32..500.0) {
        let r = Rect::centered_square(Point::new(cx, cy), side);
        prop_assert!(r.contains_point(cx, cy));
        // The subtraction (c + h) - (c - h) loses precision proportional
        // to the coordinate magnitude, not the side length.
        let tol = (cx.abs().max(cy.abs()) + side) * 8.0 * f32::EPSILON;
        prop_assert!((r.width() - side).abs() <= tol);
        prop_assert!((r.height() - side).abs() <= tol);
    }

    #[test]
    fn clamp_len_never_exceeds_max(vx in -500.0f32..500.0, vy in -500.0f32..500.0, max in 0.0f32..300.0) {
        let v = Vec2::new(vx, vy).clamp_len(max);
        prop_assert!(v.len() <= max.max(Vec2::new(vx, vy).len().min(max)) + 1e-3);
    }

    #[test]
    fn rng_range_f32_respects_bounds(seed in any::<u64>(), lo in -100.0f32..100.0, span in 0.0f32..200.0) {
        let mut rng = Xoshiro256::seeded(seed);
        for _ in 0..50 {
            let v = rng.range_f32(lo, lo + span);
            prop_assert!(v >= lo && v <= lo + span);
        }
    }

    #[test]
    fn rng_range_usize_respects_bound(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = Xoshiro256::seeded(seed);
        for _ in 0..50 {
            prop_assert!(rng.range_usize(n) < n);
        }
    }

    // --- Edge cases: degenerate (zero-area) rectangles -------------------

    #[test]
    fn degenerate_rect_intersects_iff_containing_rect_covers_it(
        px in 0.0f32..1500.0,
        py in 0.0f32..1500.0,
        b in arb_rect(),
    ) {
        // A zero-area rect behaves exactly like its single point: closed
        // rectangle semantics make point containment and intersection agree.
        let point_rect = Rect::new(px, py, px, py);
        prop_assert_eq!(point_rect.intersects(&b), b.contains_point(px, py));
        prop_assert_eq!(b.intersects(&point_rect), b.contains_point(px, py));
        prop_assert!(point_rect.intersects(&point_rect), "self-intersection must hold");
        prop_assert!(point_rect.contains_rect(&point_rect));
    }

    #[test]
    fn degenerate_rect_union_and_clip_are_consistent(a in arb_rect(), px in 0.0f32..1500.0, py in 0.0f32..1500.0) {
        let point_rect = Rect::new(px, py, px, py);
        let u = a.union(&point_rect);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_point(px, py));
        if a.contains_point(px, py) {
            let c = point_rect.clipped_to(&a);
            prop_assert_eq!(c, point_rect, "clipping a contained point rect is the identity");
        }
    }

    // --- Edge cases: touching-boundary overlap ties ----------------------

    #[test]
    fn rects_sharing_only_an_edge_still_intersect(
        x in 0.0f32..500.0, y in 0.0f32..500.0, w in 0.1f32..200.0, h in 0.1f32..200.0,
    ) {
        // Closed rectangles: a shared edge (or corner) is a tie that counts
        // as overlap. This is the semantics every index must agree on for
        // query windows whose border passes exactly through a point.
        let left = Rect::new(x, y, x + w, y + h);
        let right = Rect::new(x + w, y, x + w + w, y + h); // shares the x = x+w edge
        prop_assert!(left.intersects(&right));
        prop_assert!(right.intersects(&left));

        let above = Rect::new(x, y + h, x + w, y + h + h); // shares the y = y+h edge
        prop_assert!(left.intersects(&above));

        let corner = Rect::new(x + w, y + h, x + w + w, y + h + h); // single shared corner
        prop_assert!(left.intersects(&corner));
        prop_assert!(corner.intersects(&left));
    }

    #[test]
    fn boundary_points_are_inside_on_both_sides(r in arb_rect()) {
        // All four corners and edge midpoints of a closed rect are contained.
        let (mx, my) = ((r.x1 + r.x2) * 0.5, (r.y1 + r.y2) * 0.5);
        for (px, py) in [
            (r.x1, r.y1), (r.x2, r.y1), (r.x1, r.y2), (r.x2, r.y2),
            (mx, r.y1), (mx, r.y2), (r.x1, my), (r.x2, my),
        ] {
            prop_assert!(r.contains_point(px, py), "boundary point ({px},{py}) not in {r:?}");
        }
    }

    // --- Predicate oracles: closed-interval semantics, tie lattice -------

    #[test]
    fn intersects_matches_the_interval_oracle(a in arb_tie_rect(), b in arb_tie_rect()) {
        // The intersects predicate is exactly the conjunction of two
        // closed-interval overlap tests — the scalar oracle every index
        // and the SIMD overlap kernel must reproduce, ties included.
        let expect = a.x1 <= b.x2 && b.x1 <= a.x2 && a.y1 <= b.y2 && b.y1 <= a.y2;
        prop_assert_eq!(a.intersects(&b), expect, "{:?} vs {:?}", a, b);
        prop_assert_eq!(b.intersects(&a), expect);
    }

    #[test]
    fn contains_rect_matches_the_interval_oracle(a in arb_tie_rect(), b in arb_tie_rect()) {
        let expect = a.x1 <= b.x1 && b.x2 <= a.x2 && a.y1 <= b.y1 && b.y2 <= a.y2;
        prop_assert_eq!(a.contains_rect(&b), expect, "{:?} vs {:?}", a, b);
        // Containment is intersection strengthened, even for zero-area b.
        if expect {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn contains_point_matches_the_degenerate_intersection(
        r in arb_tie_rect(),
        px in arb_lattice_coord(),
        py in arb_lattice_coord(),
    ) {
        // The two predicate axes agree where they overlap: a point is
        // within-range exactly when its zero-area rect intersects.
        let degenerate = Rect::new(px, py, px, py);
        prop_assert_eq!(r.contains_point(px, py), r.intersects(&degenerate));
        prop_assert_eq!(r.contains_point(px, py), r.contains_rect(&degenerate));
    }

    #[test]
    fn try_new_accepts_exactly_the_ordered_finite_corners(
        x1 in prop::sample::select(vec![0.0f32, 1.0, 5.0, f32::NAN]),
        y1 in prop::sample::select(vec![0.0f32, 2.0, 7.0, f32::NAN]),
        w in -3.0f32..3.0,
        h in -3.0f32..3.0,
    ) {
        let (x2, y2) = (x1 + w, y1 + h);
        match Rect::try_new(x1, y1, x2, y2) {
            Some(r) => {
                // Accepted ⟺ both axes ordered (NaN fails every
                // comparison, so any NaN corner is rejected).
                prop_assert!(x1 <= x2 && y1 <= y2);
                prop_assert_eq!((r.x1, r.y1, r.x2, r.y2), (x1, y1, x2, y2));
                prop_assert!(r.intersects(&r), "every valid rect self-intersects");
            }
            None => prop_assert!(!(x1 <= x2 && y1 <= y2)),
        }
    }

    // --- SIMD overlap kernel vs the scalar oracle ------------------------

    #[test]
    fn simd_overlap_filter_matches_the_intersects_oracle(
        rects in prop::collection::vec(arb_tie_rect(), 0..70),
        region in arb_tie_rect(),
    ) {
        // Column lengths straddle the 8- and 16-lane block boundaries; rows
        // tie with the region edges constantly and many are degenerate,
        // and row `i` stands for the id `40 + 3i`. The dispatched kernel,
        // the scalar kernel, and Rect::intersects must agree bit for bit —
        // same ids, same order.
        let x1s: Vec<f32> = rects.iter().map(|r| r.x1).collect();
        let y1s: Vec<f32> = rects.iter().map(|r| r.y1).collect();
        let x2s: Vec<f32> = rects.iter().map(|r| r.x2).collect();
        let y2s: Vec<f32> = rects.iter().map(|r| r.y2).collect();
        let ids: Vec<u32> = (0..rects.len() as u32).map(|i| 40 + 3 * i).collect();
        let cols = [&x1s[..], &y1s, &x2s, &y2s];
        let mut dispatched = Vec::new();
        filter_overlap_each(cols, &ids, &region, &mut |e| dispatched.push(e));
        let mut scalar = Vec::new();
        filter_overlap_each_scalar(cols, &ids, &region, &mut |e| scalar.push(e));
        let oracle: Vec<u32> = rects
            .iter()
            .zip(&ids)
            .filter(|(r, _)| r.intersects(&region))
            .map(|(_, &id)| id)
            .collect();
        prop_assert_eq!(&dispatched, &oracle);
        prop_assert_eq!(&scalar, &oracle);
    }

    // --- Edge cases: negative-velocity reflection in MovingSet -----------

    #[test]
    fn negative_velocity_reflects_off_the_lower_walls(
        x in 0.0f32..100.0, y in 0.0f32..100.0,
        vx in -400.0f32..0.0, vy in -400.0f32..0.0,
    ) {
        // Objects near the origin moving with negative velocity cross the
        // lower boundary; the bounce must reflect the position back inside
        // and flip the velocity sign on the crossed axes.
        let space = Rect::space(1_000.0);
        let mut s = MovingSet::default();
        s.push(Point::new(x, y), Vec2::new(vx, vy));
        s.advance_bouncing(&space);
        let p = s.table.point(0);
        prop_assert!(space.contains_point(p.x, p.y), "escaped to {p:?}");
        let v = s.velocity(0);
        if x + vx < space.x1 {
            prop_assert!(v.x >= 0.0, "x-velocity not flipped after lower-wall bounce");
            prop_assert!((p.x - (space.x1 + (space.x1 - (x + vx)))).abs() < 1e-3);
        } else {
            prop_assert_eq!(v.x, vx);
        }
        if y + vy < space.y1 {
            prop_assert!(v.y >= 0.0, "y-velocity not flipped after lower-wall bounce");
        } else {
            prop_assert_eq!(v.y, vy);
        }
    }

    #[test]
    fn repeated_bounces_never_escape_for_any_velocity(
        x in 0.0f32..=200.0, y in 0.0f32..=200.0,
        vx in -150.0f32..=150.0, vy in -150.0f32..=150.0,
    ) {
        let space = Rect::space(200.0);
        let mut s = MovingSet::default();
        s.push(Point::new(x, y), Vec2::new(vx, vy));
        for step in 0..64 {
            s.advance_bouncing(&space);
            let p = s.table.point(0);
            prop_assert!(
                space.contains_point(p.x, p.y),
                "escaped at step {step}: {p:?} with v=({vx},{vy})"
            );
        }
    }

    #[test]
    fn removal_never_perturbs_surviving_entry_ids(
        seed in 0u64..=u64::MAX,
        n in 1usize..200,
        remove_mask in 0u64..=u64::MAX,
    ) {
        // The tombstone contract behind churn workloads: however many rows
        // are removed, in whatever order, every surviving EntryId still
        // resolves to exactly the row it did before — positions,
        // velocities, and handles are all untouched.
        let mut rng = Xoshiro256::seeded(seed);
        let mut s = MovingSet::default();
        for _ in 0..n {
            s.push(
                Point::new(rng.range_f32(0.0, 500.0), rng.range_f32(0.0, 500.0)),
                Vec2::new(rng.range_f32(-5.0, 5.0), rng.range_f32(-5.0, 5.0)),
            );
        }
        let before: Vec<(Point, Vec2)> = (0..n as u32)
            .map(|id| (s.table.point(id), s.velocity(id)))
            .collect();
        let doomed: Vec<u32> = (0..n as u32).filter(|id| remove_mask >> (id % 64) & 1 == 1).collect();
        for &id in &doomed {
            prop_assert!(s.remove(id));
        }
        prop_assert_eq!(s.live_len(), n - doomed.len());
        for id in 0..n as u32 {
            prop_assert_eq!(s.is_live(id), !doomed.contains(&id));
            // Dead or alive, the slot's contents are frozen in place.
            prop_assert_eq!(s.table.point(id), before[id as usize].0);
            prop_assert_eq!(s.velocity(id), before[id as usize].1);
        }
        // Live iteration yields exactly the survivors, in id order.
        let live: Vec<u32> = s.table.iter().map(|(id, _)| id).collect();
        let expect: Vec<u32> = (0..n as u32).filter(|id| !doomed.contains(id)).collect();
        prop_assert_eq!(live, expect);
    }
}
