//! The reference-point rule behind `@tiles<N>` (DESIGN.md §13).
//!
//! Space-partitioned execution replicates every row into each tile its
//! own extent overlaps — a point into its home tile only, a rectangle into
//! every tile it straddles — and sends each querier to every tile its
//! query region overlaps. A rectangle pair that straddles a boundary is
//! therefore *visible* in more than one tile. Exactness rests on one
//! filter: tile `T` emits `(a, b)` only if the corner of the pair's
//! intersection lies in `T` — for a point `b`, `b`'s own home tile, which
//! is the only tile holding it. These tests pin that rule directly
//! against a brute-force sequential join — queries straddling two and
//! four tiles, points landing exactly on tile edges (the boundary-tie
//! lattice idiom from `proptest_simd.rs`: closed-rect ties are where
//! `>=`-vs-`>` mistakes hide), and a churn step where a row dies out of
//! the replica set that held it. The lattice proptests also drive the real
//! tiled executors, whose point paths skip the filter.

use std::num::NonZeroUsize;

use proptest::prelude::*;
use spatial_joins::core::driver::fold_pair;
use spatial_joins::core::par::{
    tiled_batch_join, tiled_index_build, tiled_index_query, TileBatchPool, TileIndexPool, Tiling,
};
use spatial_joins::core::table::Shape;
use spatial_joins::core::tile::{replicate_by_extent, TileGrid, TileReplica, MINI_JOIN_CHUNK};
use spatial_joins::prelude::*;

/// Side of the test space; a 2 × 2 grid puts the interior edges at 50,
/// a 4 × 4 grid at 25 / 50 / 75.
const SIDE: f32 = 100.0;

fn space() -> Rect {
    Rect::space(SIDE)
}

fn grid(tiles: usize) -> TileGrid {
    TileGrid::new(&space(), NonZeroUsize::new(tiles).unwrap())
}

/// Ground truth: every `(querier, match)` pair of the self-join, one
/// entry each, in sorted order.
fn sequential_pairs<T: Shape>(t: &T, query_side: f32) -> Vec<(EntryId, EntryId)> {
    let mut out = Vec::new();
    for a in t.live_ids() {
        let region = t.query_region(a, query_side, &space());
        out.extend(
            t.live_ids()
                .filter(|&b| t.extent(b).intersects(&region))
                .map(|b| (a, b)),
        );
    }
    out.sort_unstable();
    out
}

/// The tiled join, spelled out: replicate each row by its own extent,
/// assign each querier to every tile its region covers, join against the
/// local replicas. With `dedup` the reference-point filter is applied;
/// without it the raw pair stream comes back — for rectangles the delta is
/// exactly what the rule exists to remove.
fn tiled_pairs<T: Shape>(
    t: &T,
    query_side: f32,
    tiles: usize,
    dedup: bool,
) -> Vec<(EntryId, EntryId)> {
    let grid = grid(tiles);
    let mut replicas: Vec<TileReplica<T>> = Vec::new();
    replicate_by_extent(t, &grid, &mut replicas);
    let mut out = Vec::new();
    for a in t.live_ids() {
        let region = t.query_region(a, query_side, &space());
        for tid in grid.cover(&region) {
            let r = &replicas[tid];
            for local in r.table.live_ids() {
                if r.table.extent(local).intersects(&region)
                    && (!dedup || r.table.tile_reports(local, &region, &grid, tid))
                {
                    out.push((a, r.global(local)));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The tiles whose replica set holds row `id`.
fn holders<T: Shape>(t: &T, grid: &TileGrid, id: EntryId) -> Vec<usize> {
    let mut replicas: Vec<TileReplica<T>> = Vec::new();
    replicate_by_extent(t, grid, &mut replicas);
    (0..grid.tiles())
        .filter(|&tile| replicas[tile].to_global.contains(&id))
        .collect()
}

#[test]
fn a_pair_straddling_one_boundary_is_emitted_exactly_once() {
    // Two points either side of the x = 50 edge of a 2 × 2 grid, close
    // enough to join: each lives in its home tile only, and each query
    // fans out to both tiles, so each pair is seen exactly once — the
    // unfiltered stream already equals the join.
    let g = grid(4);
    let mut t = PointTable::default();
    let a = t.push(48.0, 20.0);
    let b = t.push(52.0, 20.0);
    assert_eq!(holders(&t, &g, a), vec![0]);
    assert_eq!(holders(&t, &g, b), vec![1]);
    let seq = sequential_pairs(&t, 10.0);
    assert_eq!(seq.len(), 4, "both self pairs and both cross pairs");
    assert_eq!(tiled_pairs(&t, 10.0, 4, true), seq);
    assert_eq!(tiled_pairs(&t, 10.0, 4, false), seq);
}

#[test]
fn a_pair_straddling_the_four_corner_tiles_is_emitted_exactly_once() {
    // Diagonal neighbours of the (50, 50) corner: each query region
    // covers all four tiles, but each point sits in one replica set, so
    // no pair is seen twice even without the filter.
    let g = grid(4);
    let mut t = PointTable::default();
    let a = t.push(48.0, 48.0);
    let b = t.push(52.0, 52.0);
    assert_eq!(holders(&t, &g, a), vec![0]);
    assert_eq!(holders(&t, &g, b), vec![3]);
    let seq = sequential_pairs(&t, 12.0);
    assert_eq!(seq.len(), 4);
    assert_eq!(tiled_pairs(&t, 12.0, 4, true), seq);
    assert_eq!(tiled_pairs(&t, 12.0, 4, false), seq);
}

#[test]
fn a_rect_pair_straddling_a_tile_edge_is_emitted_exactly_once() {
    // Two overlapping rectangles that both straddle the x = 50 edge are
    // replicated into tiles 0 and 1, and each queries both: the raw stream
    // sees every pair twice, and the filter must keep one. The rule is
    // load-bearing, not a formality.
    let g = grid(4);
    let mut t = ExtentTable::default();
    let a = t.push(Rect::new(45.0, 10.0, 55.0, 20.0));
    let b = t.push(Rect::new(48.0, 15.0, 58.0, 25.0));
    assert_eq!(holders(&t, &g, a), vec![0, 1]);
    assert_eq!(holders(&t, &g, b), vec![0, 1]);
    let seq = sequential_pairs(&t, 0.0);
    assert_eq!(seq.len(), 4, "both self pairs and both cross pairs");
    assert_eq!(tiled_pairs(&t, 0.0, 4, true), seq);
    let raw = tiled_pairs(&t, 0.0, 4, false);
    assert_eq!(
        raw.len(),
        8,
        "all 4 pairs (self included) seen in both tiles"
    );
}

#[test]
fn a_point_exactly_on_a_tile_edge_is_owned_by_the_higher_tile_only() {
    // x = 50 sits exactly on the interior edge; the canonical-tile tie
    // goes to the higher-indexed tile (floor semantics), so only tile 1
    // holds the point and may emit pairs that match it.
    let g = grid(4);
    let mut t = PointTable::default();
    let edge = t.push(50.0, 20.0);
    t.push(46.0, 20.0);
    assert_eq!(g.tile_of(50.0, 20.0), 1, "tie goes right");
    assert_eq!(holders(&t, &g, edge), vec![1]);

    // Re-run the tiled join by hand, recording the emitting tile of every
    // pair that matches the edge point.
    let space = space();
    let mut replicas = Vec::new();
    replicate_by_extent(&t, &g, &mut replicas);
    let mut emitters = Vec::new();
    for (_, p) in t.iter() {
        let region = Rect::centered_square(p, 10.0).clipped_to(&space);
        for tid in g.cover(&region) {
            let r = &replicas[tid];
            for local in 0..r.table.len() {
                let (x, y) = (r.table.xs()[local], r.table.ys()[local]);
                if region.contains_point(x, y)
                    && g.tile_of(x, y) == tid
                    && r.global(local as EntryId) == edge
                {
                    emitters.push(tid);
                }
            }
        }
    }
    assert_eq!(
        emitters,
        vec![1, 1],
        "both pairs referencing the edge point come from tile 1"
    );
    assert_eq!(tiled_pairs(&t, 10.0, 4, true), sequential_pairs(&t, 10.0));
}

#[test]
fn a_row_that_dies_vanishes_from_every_replica_set() {
    // The churn scenario: a row at the four-tile corner lives in one
    // replica set (tile 3, by the tie rule), then is tombstoned. The next
    // partition must drop it — exactly as a sequential rebuild forgets it
    // — and the surviving join must still match brute force.
    let g = grid(4);
    let mut t = PointTable::default();
    t.push(48.0, 48.0);
    let doomed = t.push(50.0, 50.0);
    t.push(52.0, 52.0);
    assert_eq!(holders(&t, &g, doomed), vec![3], "one replica set only");

    assert!(t.remove(doomed));
    assert!(
        holders(&t, &g, doomed).is_empty(),
        "tombstone still replicated"
    );
    assert_eq!(tiled_pairs(&t, 10.0, 4, true), sequential_pairs(&t, 10.0));
    assert_eq!(tiled_pairs(&t, 10.0, 4, false), sequential_pairs(&t, 10.0));
}

#[test]
fn a_hotspot_tile_split_across_chunk_seams_loses_and_doubles_nothing() {
    // The mini-join scheduler's coverage contract: a tile whose querier
    // list outgrows MINI_JOIN_CHUNK is split into several chunks drained
    // by different workers, and pairs must still come out exactly once —
    // including pairs whose two queriers sit either side of a chunk seam
    // and pairs that straddle the x = 50 tile edge (so the reference-point
    // rule and the chunk decomposition are exercised together).
    let mut t = PointTable::default();
    // A dense block deep inside tile 0 of the 2 × 2 grid…
    for i in 0..120u32 {
        t.push(1.0 + (i % 40) as f32 * 1.1, 1.0 + (i / 40) as f32 * 1.1);
    }
    // …plus edge-hugging pairs either side of x = 50.
    for i in 0..10u32 {
        t.push(49.5, 2.0 + i as f32 * 4.0);
        t.push(50.5, 2.0 + i as f32 * 4.0);
    }
    let query_side = 5.0;
    // Precondition: tile 0's querier list (its 130 residents all query
    // their own tile) spans at least three mini-joins.
    assert!(
        t.len() > 2 * MINI_JOIN_CHUNK,
        "hotspot must straddle chunk seams"
    );

    let expect = sequential_pairs(&t, query_side);
    let expect_checksum = expect
        .iter()
        .fold(0u64, |acc, &(a, b)| fold_pair(acc, a, b));
    let queriers: Vec<EntryId> = t.iter().map(|(id, _)| id).collect();
    let proto = SimpleGrid::tuned(SIDE);
    for workers in [1usize, 2, 3] {
        let mut pool = TileIndexPool::default();
        tiled_index_build(
            &proto,
            &t,
            &space(),
            query_side,
            Tiling::Fixed(NonZeroUsize::new(4).unwrap()),
            NonZeroUsize::new(workers),
            &mut pool,
        );
        let (pairs, checksum) = tiled_index_query(&mut pool, &t, &queriers, &space(), query_side);
        assert_eq!(pairs, expect.len() as u64, "pool of {workers}");
        assert_eq!(checksum, expect_checksum, "pool of {workers}");
    }
}

#[test]
fn tiled_churn_run_matches_sequential_through_the_driver() {
    // End to end: the same churn workload (rows die and arrive every
    // tick) joined sequentially and under @tiles4 / @tiles5 must be bit
    // identical — including the tick where a dead row's replicas must
    // disappear mid-run.
    let params = WorkloadParams {
        num_points: 800,
        ticks: 4,
        space_side: 4_000.0,
        seed: 97,
        ..WorkloadParams::default()
    };
    let run = |exec: ExecMode| {
        let mut w = WorkloadSpec::parse("churn:uniform").unwrap().build(params);
        let mut grid = SimpleGrid::tuned(params.space_side);
        run_join(
            &mut *w,
            &mut grid,
            DriverConfig::new(params.ticks, 1).with_exec(exec),
        )
    };
    let seq = run(ExecMode::Sequential);
    for tiles in [4usize, 5] {
        let tiled = run(ExecMode::partitioned(tiles).unwrap());
        assert_eq!(tiled.checksum, seq.checksum, "@tiles{tiles}");
        assert_eq!(tiled.result_pairs, seq.result_pairs, "@tiles{tiles}");
        assert_eq!(tiled.removals, seq.removals, "@tiles{tiles}");
        assert_eq!(tiled.inserts, seq.inserts, "@tiles{tiles}");
    }
    // The same churn run through the pooled scheduler and the adaptive
    // tiling, which re-decides the grid from the live population every
    // tick while rows die and arrive.
    let pooled_modes = [
        ("@tiles4@par2", ExecMode::pooled(4, 2).unwrap()),
        ("@tiles5@par3", ExecMode::pooled(5, 3).unwrap()),
        ("@tilesauto@par2", ExecMode::adaptive_pooled(2).unwrap()),
    ];
    for (name, exec) in pooled_modes {
        let pooled = run(exec);
        assert_eq!(pooled.checksum, seq.checksum, "{name}");
        assert_eq!(pooled.result_pairs, seq.result_pairs, "{name}");
        assert_eq!(pooled.removals, seq.removals, "{name}");
        assert_eq!(pooled.inserts, seq.inserts, "{name}");
    }
}

/// A coordinate that frequently lands *exactly* on a tile edge of the
/// 2 × 2 (edge at 50) and 4 × 4 (edges at 25 / 50 / 75) grids, with
/// just-inside/just-outside neighbours and interior filler — the same
/// tie-heavy lattice idiom `proptest_simd.rs` uses for the SIMD filters.
fn arb_edge_coord() -> impl Strategy<Value = f32> {
    prop::sample::select(vec![
        0.0f32, 10.0, 25.0, 49.999, 50.0, 50.001, 63.0, 75.0, 100.0, 50.0, 25.0,
    ])
}

fn arb_points() -> impl Strategy<Value = Vec<(f32, f32)>> {
    prop::collection::vec((arb_edge_coord(), arb_edge_coord()), 0..24)
}

proptest! {
    #[test]
    fn tiled_join_with_dedup_equals_brute_force_on_the_edge_lattice(
        points in arb_points(),
        query_side in prop::sample::select(vec![0.0f32, 4.0, 14.0, 52.0, 240.0]),
        tiles in prop::sample::select(vec![1usize, 2, 4, 5, 16]),
    ) {
        // Sorted-Vec equality doubles as a uniqueness check: the ground
        // truth lists every pair exactly once, so a double emission (or a
        // drop) on any boundary tie breaks the comparison.
        let mut t = PointTable::default();
        for &(x, y) in &points {
            t.push(x, y);
        }
        // Tombstone a deterministic subset so dead replicas are exercised
        // on the same tie-heavy geometry.
        for i in (0..points.len()).step_by(5) {
            t.remove(i as EntryId);
        }
        let expect = sequential_pairs(&t, query_side);
        prop_assert_eq!(&tiled_pairs(&t, query_side, tiles, true), &expect);
        // A point lives in its home tile only, so the filter never fires.
        prop_assert_eq!(&tiled_pairs(&t, query_side, tiles, false), &expect);
        // The real executors on the same ties. Their point paths skip the
        // filter; the debug build asserts every candidate is resident in
        // its canonical tile.
        let expect = (
            expect.len() as u64,
            expect.iter().fold(0, |acc, &(a, b)| fold_pair(acc, a, b)),
        );
        let queriers: Vec<EntryId> = t.iter().map(|(id, _)| id).collect();
        let queries: Vec<(EntryId, Rect)> = queriers
            .iter()
            .map(|&q| (q, t.query_region(q, query_side, &space())))
            .collect();
        let n = |k: usize| NonZeroUsize::new(k).unwrap();
        let (grid, scan) = (SimpleGrid::tuned(SIDE), ScanIndex::new());
        let indexes: [(&str, &dyn SpatialIndex); 2] = [("grid", &grid), ("scan", &scan)];
        for (tiles, workers) in [(tiles, None), (4, Some(n(2))), (16, Some(n(3)))] {
            let tiling = Tiling::Fixed(n(tiles));
            for (name, proto) in indexes {
                let mut pool = TileIndexPool::default();
                tiled_index_build(proto, &t, &space(), query_side, tiling, workers, &mut pool);
                prop_assert_eq!(
                    tiled_index_query(&mut pool, &t, &queriers, &space(), query_side),
                    expect,
                    "{} forks, tiles = {}, workers = {:?}", name, tiles, workers
                );
            }
            prop_assert_eq!(
                tiled_batch_join(
                    &NaiveBatchJoin,
                    &t,
                    &queries,
                    &space(),
                    query_side,
                    tiling,
                    workers,
                    &mut TileBatchPool::default(),
                ),
                expect,
                "batch path, tiles = {}, workers = {:?}", tiles, workers
            );
        }
    }
}

/// Rectangles whose corner coordinates all come from the edge lattice, so
/// both sides of a pair, and the corner of their intersection, land on
/// tile edges. `collapse` folds a rectangle to the zero-area one at its
/// first corner.
fn arb_lattice_rects() -> impl Strategy<Value = Vec<Rect>> {
    let rect = (
        arb_edge_coord(),
        arb_edge_coord(),
        arb_edge_coord(),
        arb_edge_coord(),
        any::<bool>(),
    )
        .prop_map(|(a, b, c, d, collapse)| {
            if collapse {
                Rect::at_point(a, b)
            } else {
                Rect::new(a.min(c), b.min(d), a.max(c), b.max(d))
            }
        });
    prop::collection::vec(rect, 0..24)
}

/// Ground truth of the rectangle self-join: every pair of live rows that
/// intersect (closed semantics), folded to `(pairs, checksum)`.
fn brute_force_intersections(t: &ExtentTable) -> (u64, u64) {
    let mut pairs = 0;
    let mut checksum = 0;
    for (a, ra) in t.iter() {
        for (b, rb) in t.iter() {
            if ra.intersects(&rb) {
                pairs += 1;
                checksum = fold_pair(checksum, a, b);
            }
        }
    }
    (pairs, checksum)
}

proptest! {
    #[test]
    fn tiled_rect_joins_equal_brute_force_on_the_edge_lattice(
        rects in arb_lattice_rects(),
        tiles in prop::sample::select(vec![1usize, 2, 4, 5, 16]),
    ) {
        // The intersection corner's tile is the only one to report a
        // pair; a tie broken differently in the query assignment, the
        // replication or the filter drops or doubles a pair, and the
        // (pairs, checksum) comparison catches both.
        let mut t = ExtentTable::default();
        for &r in &rects {
            t.push(r);
        }
        for i in (0..rects.len()).step_by(5) {
            t.remove(i as EntryId);
        }
        let expect = brute_force_intersections(&t);
        let queriers: Vec<EntryId> = t.iter().map(|(id, _)| id).collect();
        let queries: Vec<(EntryId, Rect)> = t.iter().collect();
        let n = |k: usize| NonZeroUsize::new(k).unwrap();
        for (tiles, workers) in [(tiles, None), (4, Some(n(2))), (16, Some(n(3)))] {
            let tiling = Tiling::Fixed(n(tiles));
            let mut pool = TileIndexPool::default();
            tiled_index_build(&ScanIndex::new(), &t, &space(), 0.0, tiling, workers, &mut pool);
            prop_assert_eq!(
                tiled_index_query(&mut pool, &t, &queriers, &space(), 0.0),
                expect,
                "index path, tiles = {}, workers = {:?}", tiles, workers
            );
            prop_assert_eq!(
                tiled_batch_join(
                    &NaiveBatchJoin,
                    &t,
                    &queries,
                    &space(),
                    0.0,
                    tiling,
                    workers,
                    &mut TileBatchPool::default(),
                ),
                expect,
                "batch path, tiles = {}, workers = {:?}", tiles, workers
            );
        }
    }
}
