//! Integration of the traced grid with the cache simulator: the Table 3
//! directional claims must hold at test scale — the refactored, re-tuned
//! grid does strictly less memory-hierarchy work than the original.

use spatial_joins::core::driver::TickActions;
use spatial_joins::core::Workload;
use spatial_joins::memsim::CacheStats;
use spatial_joins::prelude::*;

fn profile(stage: Stage, params: &WorkloadParams) -> CacheStats {
    let mut workload = UniformWorkload::new(*params);
    let space = workload.space();
    let query_side = params.query_side;
    let mut set = workload.init();
    let mut grid = SimpleGrid::at_stage(stage, params.space_side);
    let mut sim = CacheSim::i7();
    let mut actions = TickActions::default();
    let mut results = Vec::new();
    for tick in 0..params.ticks {
        actions.clear();
        workload.plan_tick(tick, &set, &mut actions);
        grid.build_traced(&set.table, &mut sim);
        for &q in &actions.queriers {
            let region = Rect::centered_square(set.table.point(q), query_side).clipped_to(&space);
            results.clear();
            grid.query_traced(&set.table, &region, &mut results, &mut sim);
        }
        for &(id, vx, vy) in &actions.velocity_updates {
            set.set_velocity(id, Vec2::new(vx, vy));
        }
        workload.advance(&mut set);
    }
    sim.stats()
}

fn small_params() -> WorkloadParams {
    WorkloadParams {
        num_points: 5_000,
        ticks: 2,
        ..WorkloadParams::default()
    }
}

#[test]
fn refactoring_reduces_every_table3_metric() {
    // Scale matters for the L2 claim: the original layout must genuinely
    // overflow L2 (15 K points × 32 B ≈ 480 KiB > 256 KiB) while the
    // refactored one (≈ 180 KiB + directory) mostly fits — the same
    // capacity relationship the paper's 50 K-point workload has to its
    // machine. One tick keeps the traced run fast.
    let params = WorkloadParams {
        num_points: 15_000,
        ticks: 1,
        ..WorkloadParams::default()
    };
    let before = profile(Stage::Original, &params);
    let after = profile(Stage::CpsTuned, &params);

    assert!(
        after.instrs < before.instrs,
        "ops: {} -> {}",
        before.instrs,
        after.instrs
    );
    assert!(
        after.l1_accesses < before.l1_accesses,
        "accesses: {} -> {}",
        before.l1_accesses,
        after.l1_accesses
    );
    assert!(after.l1_misses < before.l1_misses);
    assert!(after.l2_misses < before.l2_misses);
    // At this scale everything fits L3; misses there are compulsory only.
    assert!(after.l3_misses <= before.l3_misses);

    let model = CpiModel::default();
    assert!(
        model.cpi(&after) <= model.cpi(&before) * 1.05,
        "CPI should not regress"
    );
}

#[test]
fn improvements_are_monotone_across_stages() {
    // Each cumulative stage must not increase the total traced work.
    let params = small_params();
    let mut last_ops = u64::MAX;
    for stage in Stage::ALL {
        let s = profile(stage, &params);
        assert!(
            s.instrs <= last_ops,
            "{stage:?} increased traced ops: {last_ops} -> {}",
            s.instrs
        );
        last_ops = s.instrs;
    }
}

#[test]
fn traced_and_untraced_queries_return_identical_results() {
    use spatial_joins::core::trace::NullTracer;
    let params = small_params();
    let mut workload = UniformWorkload::new(params);
    let set = workload.init();
    let mut grid = SimpleGrid::at_stage(Stage::Original, params.space_side);
    let mut sim = CacheSim::i7();
    grid.build_traced(&set.table, &mut sim);

    let region = Rect::centered_square(set.table.point(0), 400.0)
        .clipped_to(&Rect::space(params.space_side));
    let mut traced = Vec::new();
    grid.query_traced(&set.table, &region, &mut traced, &mut sim);
    let mut untraced = Vec::new();
    grid.query_traced(&set.table, &region, &mut untraced, &mut NullTracer);
    traced.sort_unstable();
    untraced.sort_unstable();
    assert_eq!(traced, untraced);
}

#[test]
fn every_stage_traces_the_pinned_stream() {
    // Instructions, L1 accesses and L1/L2/L3 misses of each stage at
    // `small_params()`. A change that keeps the traced access stream keeps
    // these counts, and with them `table3`'s output.
    let pinned = [
        (Stage::Original, [7_158_881, 866_397, 578_114, 8_366, 3_202]),
        (
            Stage::Restructured,
            [6_676_605, 598_181, 262_352, 1_635, 1_635],
        ),
        (Stage::Querying, [1_738_609, 598_181, 262_352, 1_635, 1_635]),
        (Stage::BsTuned, [1_609_360, 552_946, 195_371, 1_503, 1_503]),
        (Stage::CpsTuned, [614_159, 177_831, 85_005, 13_197, 4_985]),
    ];
    for (stage, want) in pinned {
        let s = profile(stage, &small_params());
        let got = [
            s.instrs,
            s.l1_accesses,
            s.l1_misses,
            s.l2_misses,
            s.l3_misses,
        ];
        assert_eq!(
            got, want,
            "{stage:?}: [instrs, l1 accesses, l1/l2/l3 misses]"
        );
    }
}
