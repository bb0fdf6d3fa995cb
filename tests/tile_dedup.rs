//! The reference-point rule behind `@tiles<N>` (DESIGN.md §13).
//!
//! Space-partitioned execution replicates every row into each tile its
//! query region overlaps, so a pair whose two sides straddle a tile
//! boundary is *visible* in more than one tile. Exactness rests on one
//! filter: tile `T` emits `(a, b)` only if `b`'s canonical tile is `T`.
//! These tests pin that rule directly against a brute-force sequential
//! join — queries straddling two and four tiles, points landing exactly
//! on tile edges (the boundary-tie lattice idiom from
//! `proptest_simd.rs`: closed-rect ties are where `>=`-vs-`>` mistakes
//! hide), and a churn step where a row dies out of every replica set
//! that held a copy.

use std::num::NonZeroUsize;

use proptest::prelude::*;
use spatial_joins::core::driver::fold_pair;
use spatial_joins::core::par::{
    tiled_batch_join, tiled_index_build, tiled_index_query, TileBatchPool, TileIndexPool, Tiling,
};
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
fn sequential_pairs(t: &PointTable, query_side: f32) -> Vec<(EntryId, EntryId)> {
    let space = space();
    let mut out = Vec::new();
    for (a, p) in t.iter() {
        let region = Rect::centered_square(p, query_side).clipped_to(&space);
        for (b, q) in t.iter() {
            if region.contains_point(q.x, q.y) {
                out.push((a, b));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The tiled join, spelled out: partition by extent, assign each querier
/// to every covered tile, join against the local replicas. With `dedup`
/// the reference-point filter is applied; without it the raw
/// (double-reporting) pair stream comes back — the delta is exactly what
/// the rule exists to remove.
fn tiled_pairs(
    t: &PointTable,
    query_side: f32,
    tiles: usize,
    dedup: bool,
) -> Vec<(EntryId, EntryId)> {
    let space = space();
    let grid = grid(tiles);
    let mut replicas: Vec<TileReplica> = Vec::new();
    replicate_by_extent(t, &grid, query_side, &mut replicas);
    let mut out = Vec::new();
    for (a, p) in t.iter() {
        let region = Rect::centered_square(p, query_side).clipped_to(&space);
        for tid in grid.cover(&region) {
            let r = &replicas[tid];
            for local in 0..r.table.len() {
                let (x, y) = (r.table.xs()[local], r.table.ys()[local]);
                if region.contains_point(x, y) && (!dedup || grid.tile_of(x, y) == tid) {
                    out.push((a, r.global(local as EntryId)));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn a_pair_straddling_one_boundary_is_emitted_exactly_once() {
    // Two points either side of the x = 50 edge of a 2 × 2 grid, close
    // enough to join: both are replicated into tiles 0 and 1, so the raw
    // stream sees each cross pair twice and the filter must keep one.
    let mut t = PointTable::default();
    t.push(48.0, 20.0);
    t.push(52.0, 20.0);
    let seq = sequential_pairs(&t, 10.0);
    assert_eq!(seq.len(), 4, "both self pairs and both cross pairs");
    assert_eq!(tiled_pairs(&t, 10.0, 4, true), seq);
    // Without the rule the join is wrong — the cross pairs double. The
    // rule is load-bearing, not a formality.
    let raw = tiled_pairs(&t, 10.0, 4, false);
    assert_eq!(
        raw.len(),
        8,
        "all 4 pairs (self included) seen in both tiles"
    );
}

#[test]
fn a_pair_straddling_the_four_corner_tiles_is_emitted_exactly_once() {
    // Diagonal neighbours of the (50, 50) corner: each query region
    // covers all four tiles, so without the filter the cross pairs are
    // reported four times over.
    let mut t = PointTable::default();
    t.push(48.0, 48.0);
    t.push(52.0, 52.0);
    let seq = sequential_pairs(&t, 12.0);
    assert_eq!(seq.len(), 4);
    assert_eq!(tiled_pairs(&t, 12.0, 4, true), seq);
    let raw = tiled_pairs(&t, 12.0, 4, false);
    assert_eq!(raw.len(), 16, "every pair visible in all four tiles");
}

#[test]
fn a_point_exactly_on_a_tile_edge_is_owned_by_the_higher_tile_only() {
    // x = 50 sits exactly on the interior edge; the canonical-tile tie
    // goes to the higher-indexed tile (floor semantics), so only tile 1
    // may emit pairs that match it.
    let g = grid(4);
    let mut t = PointTable::default();
    let edge = t.push(50.0, 20.0);
    t.push(46.0, 20.0);
    assert_eq!(g.tile_of(50.0, 20.0), 1, "tie goes right");

    // Re-run the tiled join by hand, recording the emitting tile of every
    // pair that has the edge point on its reference side.
    let space = space();
    let mut replicas = Vec::new();
    replicate_by_extent(&t, &g, 10.0, &mut replicas);
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
    // The churn scenario: a row at the four-tile corner is replicated
    // everywhere, then tombstoned. The next partition must drop it from
    // all four replica sets — exactly as a sequential rebuild forgets it
    // — and the surviving join must still match brute force.
    let g = grid(4);
    let mut t = PointTable::default();
    t.push(48.0, 48.0);
    let doomed = t.push(50.0, 50.0);
    t.push(52.0, 52.0);

    let mut replicas = Vec::new();
    replicate_by_extent(&t, &g, 10.0, &mut replicas);
    let holders = replicas
        .iter()
        .filter(|r| r.to_global.contains(&doomed))
        .count();
    assert_eq!(holders, 4, "the corner row is replicated into every tile");

    assert!(t.remove(doomed));
    replicate_by_extent(&t, &g, 10.0, &mut replicas);
    for (tid, r) in replicas.iter().enumerate() {
        assert!(
            !r.to_global.contains(&doomed),
            "tombstoned row still replicated in tile {tid}"
        );
    }
    assert_eq!(tiled_pairs(&t, 10.0, 4, true), sequential_pairs(&t, 10.0));
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
        prop_assert_eq!(
            tiled_pairs(&t, query_side, tiles, true),
            sequential_pairs(&t, query_side)
        );
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
