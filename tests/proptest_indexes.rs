//! Property-based cross-crate tests: on arbitrary point sets and
//! arbitrary query rectangles, every index returns exactly the same
//! entries as the ground-truth full scan, and every batch point join the
//! same pairs as the naive nested loop, each pair emitted once.

use proptest::prelude::*;
use spatial_joins::prelude::*;

const SIDE: f32 = 1_000.0;

fn arb_points() -> impl Strategy<Value = Vec<(f32, f32)>> {
    prop::collection::vec((0.0f32..=SIDE, 0.0f32..=SIDE), 0..400)
}

fn arb_query() -> impl Strategy<Value = (f32, f32, f32, f32)> {
    // Center plus extents; built so x1 <= x2, y1 <= y2 after clipping.
    (0.0f32..=SIDE, 0.0f32..=SIDE, 0.0f32..=400.0, 0.0f32..=400.0)
}

fn table_of(points: &[(f32, f32)]) -> PointTable {
    let mut t = PointTable::default();
    for &(x, y) in points {
        t.push(x, y);
    }
    t
}

/// Tombstone every row whose bit in `mask` (mod 64) is set.
fn remove_masked(t: &mut PointTable, mask: u64) {
    for id in 0..t.len() as EntryId {
        if mask >> (id % 64) & 1 == 1 {
            t.remove(id);
        }
    }
}

fn query_region((cx, cy, w, h): (f32, f32, f32, f32)) -> Rect {
    let r = Rect::new(cx - w * 0.5, cy - h * 0.5, cx + w * 0.5, cy + h * 0.5);
    r.clipped_to(&Rect::space(SIDE))
}

fn sorted(idx: &dyn SpatialIndex, t: &PointTable, r: &Rect) -> Vec<EntryId> {
    let mut out = Vec::new();
    idx.query(t, r, &mut out);
    out.sort_unstable();
    out
}

fn check_all(points: Vec<(f32, f32)>, q: (f32, f32, f32, f32)) {
    check_all_masked(points, q, 0);
}

fn check_all_masked(points: Vec<(f32, f32)>, q: (f32, f32, f32, f32), remove_mask: u64) {
    let mut t = table_of(&points);
    remove_masked(&mut t, remove_mask);
    let t = t;
    let region = query_region(q);
    let scan = ScanIndex::new();
    let expected = sorted(&scan, &t, &region);

    let mut indexes: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(BinarySearchJoin::new()),
        Box::new(VecSearchJoin::new()),
        Box::new(RTree::new(4)),
        Box::new(CRTree::new(4)),
        Box::new(LinearKdTrie::new(SIDE)),
        Box::new(DynRTree::new(4)),
        Box::new(QuadTree::new(SIDE, 4)),
        Box::new(IncrementalGrid::new(16, 4, SIDE)),
    ];
    for stage in Stage::ALL {
        indexes.push(Box::new(SimpleGrid::at_stage(stage, SIDE)));
    }
    for index in indexes.iter_mut() {
        index.build(&t);
        let got = sorted(index.as_ref(), &t, &region);
        assert_eq!(
            got,
            expected,
            "{} disagrees with scan on {region:?}",
            index.name()
        );
        for &id in &got {
            assert!(t.is_live(id), "{} reported dead row {id}", index.name());
        }
    }
}

/// The batch point joins against the naive nested loop: each join's
/// sorted pairs equal the naive ones, and its raw emission count is the
/// pair count, so no pair was emitted twice.
fn check_batch_joins(points: Vec<(f32, f32)>, remove_mask: u64, regions: &[Rect], cells: usize) {
    let mut t = table_of(&points);
    remove_masked(&mut t, remove_mask);
    let queries: Vec<(EntryId, Rect)> = (0..).zip(regions.iter().copied()).collect();
    let pairs = |join: &mut dyn BatchJoin| {
        let mut out = Vec::new();
        join.join(&t, &queries, &mut |q, r| out.push((q, r)));
        out.sort_unstable();
        out
    };
    let expected = pairs(&mut NaiveBatchJoin);
    let cells = std::num::NonZeroUsize::new(cells).expect("cells are drawn from 1..=64");
    let joins: [Box<dyn BatchJoin>; 3] = [
        Box::new(TwoLayerJoin::new()),
        Box::new(TwoLayerJoin::with_cells(cells)),
        Box::new(PlaneSweepJoin::new()),
    ];
    for mut join in joins {
        let got = pairs(join.as_mut());
        let name = join.name();
        assert_eq!(
            got.len(),
            expected.len(),
            "{name} ({cells} cells): raw emissions"
        );
        assert_eq!(
            got, expected,
            "{name} ({cells} cells) disagrees with the naive join"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_index_agrees_with_scan(points in arb_points(), q in arb_query()) {
        check_all(points, q);
    }

    #[test]
    fn every_index_agrees_with_scan_under_tombstones(
        points in arb_points(),
        q in arb_query(),
        remove_mask in 0u64..=u64::MAX,
    ) {
        // Arbitrary subsets of rows tombstoned (churn departures): every
        // index must build over the survivors only and still agree with
        // the (liveness-filtered) scan, and no dead row may ever be
        // reported.
        check_all_masked(points, q, remove_mask);
    }

    #[test]
    fn agreement_with_degenerate_queries(points in arb_points(), cx in 0.0f32..=SIDE, cy in 0.0f32..=SIDE) {
        // Zero-area queries: only points exactly on (cx, cy) match.
        check_all(points, (cx, cy, 0.0, 0.0));
    }

    #[test]
    fn agreement_with_clustered_points(
        cluster in (0.0f32..=SIDE, 0.0f32..=SIDE),
        offsets in prop::collection::vec((-1.0f32..=1.0, -1.0f32..=1.0), 0..200),
        q in arb_query(),
    ) {
        // Everything within ±1 unit of one spot: stresses quantized
        // structures and bucket overflow chains.
        let points: Vec<(f32, f32)> = offsets
            .iter()
            .map(|&(dx, dy)| {
                ((cluster.0 + dx).clamp(0.0, SIDE), ((cluster.1 + dy).clamp(0.0, SIDE)))
            })
            .collect();
        check_all(points, q);
    }

    #[test]
    fn agreement_with_boundary_points(
        xs in prop::collection::vec(prop::sample::select(vec![0.0f32, SIDE, SIDE * 0.5]), 0..50),
        q in arb_query(),
    ) {
        // Points exactly on the space boundary and centre lines.
        let points: Vec<(f32, f32)> = xs.iter().enumerate()
            .map(|(i, &x)| (x, if i % 2 == 0 { 0.0 } else { SIDE }))
            .collect();
        check_all(points, q);
    }

    #[test]
    fn every_batch_join_agrees_with_the_naive_join(
        points in arb_points(),
        remove_mask in 0u64..=u64::MAX,
        qs in prop::collection::vec(arb_query(), 0..41),
        cells in 1usize..=64,
    ) {
        let regions: Vec<Rect> = qs.into_iter().map(query_region).collect();
        check_batch_joins(points, remove_mask, &regions, cells);
    }
}
