//! Profile the Simple Grid's memory-hierarchy behaviour before and after
//! the paper's refactoring, using the simulated cache hierarchy — Table 3
//! at example scale.
//!
//! Run: `cargo run --release --example cache_profile`

use spatial_joins::core::driver::TickActions;
use spatial_joins::core::Workload;
use spatial_joins::memsim::CacheStats;
use spatial_joins::prelude::*;

fn profile(stage: Stage, params: &WorkloadParams) -> CacheStats {
    let mut workload = UniformWorkload::new(*params);
    let space = workload.space();
    let side = params.query_side;
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
            let region = Rect::centered_square(set.table.point(q), side).clipped_to(&space);
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

fn main() {
    let params = WorkloadParams {
        num_points: 10_000,
        ticks: 2,
        ..WorkloadParams::default()
    };
    let model = CpiModel::default();
    let before = profile(Stage::Original, &params);
    let after = profile(Stage::CpsTuned, &params);

    println!("simulated i7 hierarchy (32K L1 / 256K L2 / 8M L3, 64B lines)\n");
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>12} {:>12}",
        "grid", "CPI", "ops", "L1 miss", "L2 miss", "L3 miss"
    );
    for (label, s) in [
        ("before (original)", &before),
        ("after (+cps tuned)", &after),
    ] {
        println!(
            "{:<22} {:>10.2} {:>14} {:>12} {:>12} {:>12}",
            label,
            model.cpi(s),
            s.instrs,
            s.l1_misses,
            s.l2_misses,
            s.l3_misses
        );
    }
    println!(
        "\nimprovement: ops {:.1}x, L1 {:.1}x, L2 {:.1}x, L3 {:.1}x",
        before.instrs as f64 / after.instrs.max(1) as f64,
        before.l1_misses as f64 / after.l1_misses.max(1) as f64,
        before.l2_misses as f64 / after.l2_misses.max(1) as f64,
        before.l3_misses as f64 / after.l3_misses.max(1) as f64,
    );
    println!("(paper, hardware: INS 4.6x, L1 8.1x, L2 8.2x, L3 4.9x)");
}
