//! The intersection join's registry-wide contract: every technique that
//! implements the **intersects** predicate — the quadratic scan, every
//! Simple Grid stage, and the two-layer partitioning join — computes the
//! identical join over the moving-rectangle workload, and each of them is
//! **bit-identical** across the execution modes (`@par<N>`, `@tiles<N>`,
//! `@tiles<N>@par<T>`, `@tilesauto`), exactly as the point-join
//! equivalence harness (`parallel_equivalence.rs`) proves for the
//! within-range predicate.
//!
//! The two-layer join's defining property gets its own pins: its *raw*
//! emission count equals the number of intersecting pairs — each pair
//! produced exactly once by the A/B/C/D reference-point ownership rule,
//! with zero deduplication — including over tables with tombstoned rows,
//! and at adversarial cell granularities (1 cell, prime counts, more
//! cells than rectangles).

use proptest::prelude::*;
use spatial_joins::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 7];
const TILE_COUNTS: [usize; 4] = [1, 2, 5, 16];
const POOL_SHAPES: [(usize, usize); 2] = [(4, 2), (16, 3)];

fn params(seed: u64, num_points: u32) -> WorkloadParams {
    WorkloadParams {
        num_points,
        ticks: 3,
        space_side: 6_000.0,
        seed,
        ..WorkloadParams::default()
    }
}

/// The registry techniques implementing the intersects predicate.
fn intersect_specs() -> Vec<TechniqueSpec> {
    registry()
        .into_iter()
        .filter(|s| s.supports_intersects())
        .collect()
}

fn run(spec: TechniqueSpec, p: WorkloadParams, exec: ExecMode) -> RunStats {
    let mut workload = RectsWorkload::new(p);
    let mut tech = spec.build(p.space_side);
    tech.run_intersect(&mut workload, DriverConfig::new(p.ticks, 1).with_exec(exec))
}

fn assert_join_identical(seq: &RunStats, other: &RunStats, ctx: &str) {
    assert_eq!(other.result_pairs, seq.result_pairs, "{ctx}: pair count");
    assert_eq!(other.checksum, seq.checksum, "{ctx}: checksum");
    assert_eq!(other.queries, seq.queries, "{ctx}: query count");
    assert_eq!(other.updates, seq.updates, "{ctx}: update count");
    assert_eq!(other.removals, seq.removals, "{ctx}: removal count");
    assert_eq!(other.inserts, seq.inserts, "{ctx}: insert count");
    assert_eq!(other.ticks.len(), seq.ticks.len(), "{ctx}: measured ticks");
}

/// One technique under every tested execution mode; returns the
/// sequential run for cross-technique comparison.
fn check_exec_modes<F: Fn(ExecMode) -> RunStats>(run: F, ctx: &str) -> RunStats {
    let seq = run(ExecMode::Sequential);
    for threads in THREAD_COUNTS {
        let par = run(ExecMode::parallel(threads).unwrap());
        assert_join_identical(&seq, &par, &format!("{ctx} @par{threads}"));
        assert_eq!(par.index_bytes, seq.index_bytes, "{ctx} @par{threads}");
    }
    for tiles in TILE_COUNTS {
        let tiled = run(ExecMode::partitioned(tiles).unwrap());
        assert_join_identical(&seq, &tiled, &format!("{ctx} @tiles{tiles}"));
    }
    for (tiles, workers) in POOL_SHAPES {
        let pooled = run(ExecMode::pooled(tiles, workers).unwrap());
        assert_join_identical(&seq, &pooled, &format!("{ctx} @tiles{tiles}@par{workers}"));
    }
    let auto = run(ExecMode::adaptive());
    assert_join_identical(&seq, &auto, &format!("{ctx} @tilesauto"));
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn intersection_join_is_scan_equal_and_exec_mode_identical(
        seed in 0u64..=u64::MAX,
        num_points in 200u32..800,
    ) {
        let p = params(seed, num_points);
        let mut reference: Option<(u64, u64)> = None;
        for spec in intersect_specs() {
            let seq = check_exec_modes(|exec| run(spec, p, exec), &spec.name());
            match reference {
                None => {
                    prop_assert!(seq.result_pairs > 0, "{}: no pairs", spec.name());
                    reference = Some((seq.result_pairs, seq.checksum));
                }
                Some(expect) => prop_assert_eq!(
                    (seq.result_pairs, seq.checksum),
                    expect,
                    "{} computed a different intersection join",
                    spec.name()
                ),
            }
        }
    }

    #[test]
    fn equivalence_holds_when_workers_exceed_the_querier_count(
        seed in 0u64..=u64::MAX,
    ) {
        // Six rectangles, oversharded every way: empty shards, empty
        // tiles, and a pool whose workers mostly never win a mini-join.
        let p = params(seed, 6);
        for spec in intersect_specs() {
            let seq = run(spec, p, ExecMode::Sequential);
            let par = run(spec, p, ExecMode::parallel(16).unwrap());
            assert_join_identical(&seq, &par, &format!("{} @par16 (tiny)", spec.name()));
            for tiles in [16usize, 64] {
                let tiled = run(spec, p, ExecMode::partitioned(tiles).unwrap());
                assert_join_identical(
                    &seq,
                    &tiled,
                    &format!("{} @tiles{tiles} (tiny)", spec.name()),
                );
            }
            let pooled = run(spec, p, ExecMode::pooled(16, 8).unwrap());
            assert_join_identical(
                &seq,
                &pooled,
                &format!("{} @tiles16@par8 (tiny)", spec.name()),
            );
        }
    }
}

/// A rect workload with churn: every third tick removes a band of rows
/// (tombstones — handles never shift) and inserts fresh rectangles, so
/// the scan-equality below runs over tables where `all_live()` is false.
struct ChurnRects {
    inner: RectsWorkload,
    next_removal: u32,
}

impl ChurnRects {
    fn new(p: WorkloadParams) -> Self {
        ChurnRects {
            inner: RectsWorkload::new(p),
            next_removal: 0,
        }
    }
}

impl ExtentWorkload for ChurnRects {
    fn space(&self) -> Rect {
        ExtentWorkload::space(&self.inner)
    }

    fn init(&mut self) -> MovingExtentSet {
        ExtentWorkload::init(&mut self.inner)
    }

    fn plan_tick(&mut self, tick: u32, set: &MovingExtentSet, actions: &mut ExtentTickActions) {
        ExtentWorkload::plan_tick(&mut self.inner, tick, set, actions);
        // Deterministic churn: tombstone five live rows in a rolling
        // window and spawn three arrivals per tick. Queriers planned by
        // the inner workload may die this very tick — the driver applies
        // removals before the next build, so the join must cope.
        let n = set.len() as u32;
        for _ in 0..5 {
            let id = self.next_removal % n;
            self.next_removal += 1;
            if set.is_live(id) {
                actions.removals.push(id);
            }
        }
        let space = ExtentWorkload::space(self);
        for k in 0..3u32 {
            let t = ((tick * 31 + k * 7) % 97) as f32 / 97.0;
            let x = t * (space.x2 - 200.0);
            let y = (1.0 - t) * (space.y2 - 150.0);
            actions.inserts.push((
                Rect::new(x, y, x + 180.0, y + 140.0),
                Vec2::new(30.0, -20.0),
            ));
        }
        // Planned queriers must be live once removals apply: drop the
        // ones this tick tombstones.
        let dead: Vec<EntryId> = actions.removals.clone();
        actions.queriers.retain(|q| !dead.contains(q));
    }
}

#[test]
fn churned_tables_stay_scan_equal_with_tombstones_in_play() {
    let p = WorkloadParams {
        num_points: 400,
        ticks: 6,
        space_side: 6_000.0,
        seed: 42,
        ..WorkloadParams::default()
    };
    let mk = |spec: TechniqueSpec, exec: ExecMode| {
        let mut workload = ChurnRects::new(p);
        let mut tech = spec.build(p.space_side);
        tech.run_intersect(&mut workload, DriverConfig::new(p.ticks, 1).with_exec(exec))
    };
    let reference = mk(TechniqueKind::Scan.spec(), ExecMode::Sequential);
    assert!(reference.result_pairs > 0);
    assert!(reference.removals > 0 && reference.inserts > 0);
    for spec in intersect_specs() {
        for exec in [
            ExecMode::Sequential,
            ExecMode::parallel(3).unwrap(),
            ExecMode::partitioned(4).unwrap(),
            ExecMode::pooled(4, 2).unwrap(),
        ] {
            let r = mk(spec, exec);
            assert_join_identical(
                &reference,
                &r,
                &format!("{} {exec:?} (churned rects)", spec.name()),
            );
        }
    }
}

/// The no-dedup pin, tombstones included: the two-layer join's raw output
/// length equals the exact number of intersecting (querier, live row)
/// pairs — nothing emitted twice, nothing dropped, no dedup pass — and
/// the multiset equals the brute-force join, at every cell granularity.
#[test]
fn twolayer_raw_emission_count_is_the_exact_pair_count_with_tombstones() {
    let mut table = ExtentTable::default();
    let mut ids = Vec::new();
    // A deterministic soup: overlapping sizes from tiny to cell-spanning.
    for i in 0..240u32 {
        let t = (i as f32 * 13.7) % 900.0;
        let u = (i as f32 * 29.3 + 411.0) % 900.0;
        let w = 4.0 + (i as f32 * 7.1) % 160.0;
        let h = 4.0 + (i as f32 * 11.9) % 130.0;
        ids.push(table.push(Rect::new(t, u, t + w, u + h)));
    }
    // Tombstone a band in the middle; handles never shift.
    for &id in &ids[60..90] {
        table.remove(id);
    }
    let queries: Vec<(EntryId, Rect)> = table.iter().collect();

    // Ground truth: brute force over live rows only.
    let mut expected: Vec<(EntryId, EntryId)> = Vec::new();
    for &(q, qr) in &queries {
        for (d, dr) in table.iter() {
            if qr.intersects(&dr) {
                expected.push((q, d));
            }
        }
    }
    expected.sort_unstable();
    assert!(expected.len() > queries.len(), "soup too sparse to pin");

    for cells in [1usize, 2, 7, 16, 311] {
        let mut join = TwoLayerJoin::with_cells(std::num::NonZeroUsize::new(cells).unwrap());
        let mut out = Vec::new();
        join.join_extents(&table, &queries, &mut |q, r| out.push((q, r)));
        // The raw emission count IS the pair count: exactly-once by
        // construction, not by a dedup pass.
        assert_eq!(
            out.len(),
            expected.len(),
            "{cells} cells: duplicate or dropped emissions"
        );
        out.sort_unstable();
        assert_eq!(out, expected, "{cells} cells: wrong pair set");
        // No tombstoned row on either side.
        for &(q, d) in &out {
            assert!(table.is_live(q) && table.is_live(d));
        }
    }
}

/// Points are degenerate rectangles: the intersection join over zero-area
/// extents equals the within-range point join's containment semantics at
/// the boundary (closed on all edges), so the two predicate axes agree
/// where they overlap.
#[test]
fn degenerate_extents_reproduce_closed_boundary_ties() {
    let mut table = ExtentTable::default();
    let a = table.push(Rect::new(10.0, 10.0, 20.0, 20.0));
    // Touching corner, touching edge, interior point, disjoint.
    let corner = table.push(Rect::new(20.0, 20.0, 20.0, 20.0));
    let edge = table.push(Rect::new(15.0, 20.0, 15.0, 20.0));
    let inside = table.push(Rect::new(12.0, 13.0, 12.0, 13.0));
    let outside = table.push(Rect::new(20.5, 20.5, 20.5, 20.5));
    let queries: Vec<(EntryId, Rect)> = vec![(a, table.rect(a))];
    let mut join = TwoLayerJoin::new();
    let mut out = Vec::new();
    join.join_extents(&table, &queries, &mut |q, r| out.push((q, r)));
    out.sort_unstable();
    assert_eq!(out, vec![(a, a), (a, corner), (a, edge), (a, inside)]);
    assert!(!out.iter().any(|&(_, d)| d == outside));
}
