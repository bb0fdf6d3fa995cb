//! Property-based equivalence of the SIMD kernels' widths.
//!
//! Each kernel in [`spatial_joins::core::simd`] dispatches at runtime to
//! its AVX-512 width where the CPU has AVX-512F, its AVX2 width where it
//! has AVX2, and to its scalar width elsewhere. Their contract is *bit-identical* output: the ids the `Rect`
//! predicate accepts, in order, for any column contents — including the
//! boundary ties where `>=`-vs-`>` mistakes hide. Coordinates are drawn
//! from a small lattice around the query edges so a large fraction of
//! rows land exactly on them.

use proptest::prelude::*;
use spatial_joins::core::simd::{
    filter_overlap_each, filter_overlap_each_scalar, filter_range_each, filter_range_each_scalar,
    gather_overlap_each, gather_overlap_each_scalar, gather_range_each, gather_range_each_scalar,
};
use spatial_joins::prelude::*;

/// The query region every case tests against; points are generated to
/// tie with its edges often.
const REGION: (f32, f32, f32, f32) = (100.0, 100.0, 200.0, 200.0);

/// A coordinate that is frequently *exactly* on a region edge: one of the
/// two edge values, a just-outside neighbour, or an interior/exterior
/// filler.
fn arb_edge_coord() -> impl Strategy<Value = f32> {
    prop::sample::select(vec![
        100.0f32, 200.0, 99.999, 200.001, 150.0, 0.0, 300.0, 100.0, 200.0,
    ])
}

fn arb_cols() -> impl Strategy<Value = Vec<(f32, f32)>> {
    // Lengths straddle the 8- and 16-lane block boundaries.
    prop::collection::vec((arb_edge_coord(), arb_edge_coord()), 0..70)
}

/// A coordinate of the edge lattice, or NaN.
fn arb_lattice_coord() -> impl Strategy<Value = f32> + Clone {
    prop::sample::select(vec![
        100.0f32,
        200.0,
        99.999,
        200.001,
        150.0,
        0.0,
        300.0,
        f32::NAN,
    ])
}

/// Rectangle rows on the edge lattice, NaN corners among them; `x1 > x2`
/// rows too, which no table holds but the kernels must still agree on.
fn arb_rect_rows() -> impl Strategy<Value = Vec<[f32; 4]>> {
    let coord = arb_lattice_coord();
    let row = (coord.clone(), coord.clone(), coord.clone(), coord)
        .prop_map(|(x1, y1, x2, y2)| [x1, y1, x2, y2]);
    prop::collection::vec(row, 1..40)
}

/// The dispatched and the scalar width of [`filter_range_each`] over
/// `points`, row `i` standing for the id `40 + 3i`, and
/// `Rect::contains_point` on the same rows.
fn filter_against_contains_point(points: &[(f32, f32)]) -> [Vec<EntryId>; 3] {
    let (xs, ys): (Vec<f32>, Vec<f32>) = points.iter().copied().unzip();
    let ids: Vec<EntryId> = (0..xs.len() as EntryId).map(|i| 40 + 3 * i).collect();
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
    filter_range_each([&xs, &ys], &ids, &region, &mut |e| dispatched.push(e));
    filter_range_each_scalar([&xs, &ys], &ids, &region, &mut |e| scalar.push(e));
    let want = (0..xs.len())
        .filter(|&i| region.contains_point(xs[i], ys[i]))
        .map(|i| ids[i])
        .collect();
    [dispatched, scalar, want]
}

/// The dispatched and the scalar width of [`filter_overlap_each`] over
/// `rows`, row `i` standing for the id `40 + 3i`, and `Rect::intersects`
/// on the same rows.
fn filter_against_intersects(rows: &[[f32; 4]]) -> [Vec<EntryId>; 3] {
    let col = |k: usize| rows.iter().map(|r| r[k]).collect::<Vec<f32>>();
    let (x1s, y1s, x2s, y2s) = (col(0), col(1), col(2), col(3));
    let ids: Vec<EntryId> = (0..rows.len() as EntryId).map(|i| 40 + 3 * i).collect();
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    let cols = [&x1s[..], &y1s, &x2s, &y2s];
    let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
    filter_overlap_each(cols, &ids, &region, &mut |e| dispatched.push(e));
    filter_overlap_each_scalar(cols, &ids, &region, &mut |e| scalar.push(e));
    let want = rows
        .iter()
        .zip(&ids)
        .filter(|&(&[x1, y1, x2, y2], _)| region.intersects(&Rect { x1, y1, x2, y2 }))
        .map(|(_, &id)| id)
        .collect();
    [dispatched, scalar, want]
}

/// The dispatched and the scalar width of [`gather_range_each`] over
/// `points`, with the slots `picks` (taken modulo the row count, so
/// unsorted and repeated), and `Rect::contains_point` read through the
/// same slots.
fn gather_against_contains_point(points: &[(f32, f32)], picks: &[usize]) -> [Vec<EntryId>; 3] {
    let (xs, ys): (Vec<f32>, Vec<f32>) = points.iter().copied().unzip();
    let slots: Vec<u64> = picks.iter().map(|&p| (p % points.len()) as u64).collect();
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
    gather_range_each([&xs, &ys], &slots, &region, &mut |e| dispatched.push(e));
    gather_range_each_scalar([&xs, &ys], &slots, &region, &mut |e| scalar.push(e));
    let want = slots
        .into_iter()
        .filter(|&s| region.contains_point(xs[s as usize], ys[s as usize]))
        .map(|s| s as EntryId)
        .collect();
    [dispatched, scalar, want]
}

/// The dispatched and the scalar width of [`gather_overlap_each`] over
/// `rows`, with the row ids `picks` (taken modulo the row count, so
/// unsorted and repeated), and `Rect::intersects` read through the same
/// ids.
fn gather_against_intersects(rows: &[[f32; 4]], picks: &[usize]) -> [Vec<EntryId>; 3] {
    let col = |k: usize| rows.iter().map(|r| r[k]).collect::<Vec<f32>>();
    let (x1s, y1s, x2s, y2s) = (col(0), col(1), col(2), col(3));
    let ids: Vec<EntryId> = picks.iter().map(|&p| (p % rows.len()) as EntryId).collect();
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    let cols = [&x1s[..], &y1s, &x2s, &y2s];
    let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
    gather_overlap_each(cols, &ids, &region, &mut |e| dispatched.push(e));
    gather_overlap_each_scalar(cols, &ids, &region, &mut |e| scalar.push(e));
    let row = |id: EntryId| {
        let [x1, y1, x2, y2] = rows[id as usize];
        Rect { x1, y1, x2, y2 }
    };
    let want = ids
        .into_iter()
        .filter(|&id| region.intersects(&row(id)))
        .collect();
    [dispatched, scalar, want]
}

proptest! {
    #[test]
    fn dispatched_filter_matches_scalar_on_boundary_ties(points in arb_cols()) {
        let [dispatched, scalar, want] = filter_against_contains_point(&points);
        prop_assert_eq!(&dispatched, &want);
        prop_assert_eq!(&scalar, &want);
    }

    #[test]
    fn dispatched_gather_matches_a_naive_loop(points in arb_cols()) {
        let (xs, ys): (Vec<f32>, Vec<f32>) = points.into_iter().unzip();
        let ids: Vec<EntryId> = (0..xs.len()).map(|i| 3 + 2 * i as EntryId).collect();
        let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
        let mut dispatched = Vec::new();
        filter_range_each([&xs, &ys], &ids, &region, &mut |e| dispatched.push(e));
        let mut naive = Vec::new();
        for i in 0..xs.len() {
            if region.contains_point(xs[i], ys[i]) {
                naive.push(ids[i]);
            }
        }
        prop_assert_eq!(dispatched, naive);
    }

    #[test]
    fn dispatched_filter_overlap_matches_rect_intersects_beside_the_ids(
        rows in arb_rect_rows(),
    ) {
        let [dispatched, scalar, want] = filter_against_intersects(&rows);
        prop_assert_eq!(&dispatched, &want);
        prop_assert_eq!(&scalar, &want);
    }

    #[test]
    fn dispatched_gather_overlap_matches_rect_intersects_through_the_ids(
        rows in arb_rect_rows(),
        // 0–17 ids: no block, one block, two blocks, and every tail.
        picks in prop::collection::vec(0usize..64, 0..18),
    ) {
        let [dispatched, scalar, want] = gather_against_intersects(&rows, &picks);
        prop_assert_eq!(&dispatched, &want);
        prop_assert_eq!(&scalar, &want);
    }

    #[test]
    fn dispatched_gather_range_matches_contains_point_through_the_slots(
        points in prop::collection::vec((arb_lattice_coord(), arb_lattice_coord()), 1..40),
        // 0–17 slots: no block, one block, two blocks, and every tail.
        picks in prop::collection::vec(0usize..64, 0..18),
    ) {
        let [dispatched, scalar, want] = gather_against_contains_point(&points, &picks);
        prop_assert_eq!(&dispatched, &want);
        prop_assert_eq!(&scalar, &want);
    }
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn gather_range_panics_on_a_slot_equal_to_the_column_length() {
    let cols = vec![150.0f32; 9];
    let mut slots: Vec<u64> = (0..9).collect();
    slots[4] = 9;
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    gather_range_each([&cols, &cols], &slots, &region, &mut |_| {});
}

/// A slot whose low half names a real row: narrowing it would join row 0.
#[test]
#[should_panic(expected = "is not an EntryId")]
fn gather_range_panics_on_a_slot_above_the_largest_entry_id() {
    let cols = vec![150.0f32; 9];
    let mut slots: Vec<u64> = (0..9).collect();
    slots[4] = 1 << 32;
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    gather_range_each([&cols, &cols], &slots, &region, &mut |_| {});
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn gather_overlap_panics_on_an_id_equal_to_the_column_length() {
    let cols = vec![150.0f32; 9];
    let mut ids: Vec<EntryId> = (0..9).collect();
    ids[4] = 9;
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    gather_overlap_each([&cols; 4], &ids, &region, &mut |_| {});
}

/// The dispatched width (a SIMD width where the CPU has one) against the
/// scalar width on a dense tie lattice, for every prefix of an unsorted id
/// list that names every row twice.
#[test]
fn dispatched_gather_overlap_agrees_with_scalar_on_a_dense_tie_lattice() {
    // Every row with corners in {edge, just outside, interior, NaN}.
    let vals = [100.0f32, 200.0, 99.999, 200.001, 150.0, f32::NAN];
    let (mut x1s, mut y1s, mut x2s, mut y2s) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &a in &vals {
        for &b in &vals {
            x1s.push(a);
            y1s.push(b);
            x2s.push(b);
            y2s.push(a);
        }
    }
    let n = x1s.len() as EntryId;
    let ids: Vec<EntryId> = (0..n).rev().chain((0..n).map(|i| i * 5 % n)).collect();
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    let cols = [&x1s[..], &y1s, &x2s, &y2s];
    let mut hits = 0;
    for len in 0..=ids.len() {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        gather_overlap_each(cols, &ids[..len], &region, &mut |e| got.push(e));
        gather_overlap_each_scalar(cols, &ids[..len], &region, &mut |e| want.push(e));
        assert_eq!(got, want, "first {len} ids");
        hits += want.len();
    }
    assert!(hits > 0, "the lattice holds no hit");
}

/// The dispatched width (a SIMD width where the CPU has one) of
/// [`filter_range_each`] against the scalar width on a dense tie lattice,
/// for every prefix of three copies of every combination of {edge,
/// just-outside, interior} per axis.
#[test]
fn dispatched_filter_range_agrees_with_scalar_on_a_dense_tie_lattice() {
    let vals = [100.0f32, 200.0, 99.999, 200.001, 150.0];
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for &x in &vals {
            for &y in &vals {
                xs.push(x);
                ys.push(y);
            }
        }
    }
    let ids: Vec<EntryId> = (0..xs.len() as EntryId).map(|i| 7 + 3 * i).collect();
    let region = Rect::new(REGION.0, REGION.1, REGION.2, REGION.3);
    let mut hits = 0;
    for len in 0..=xs.len() {
        let cols = [&xs[..len], &ys[..len]];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        filter_range_each(cols, &ids[..len], &region, &mut |e| got.push(e));
        filter_range_each_scalar(cols, &ids[..len], &region, &mut |e| want.push(e));
        assert_eq!(got, want, "first {len} rows");
        hits += want.len();
    }
    assert!(hits > 0, "the lattice holds no hit");
}
