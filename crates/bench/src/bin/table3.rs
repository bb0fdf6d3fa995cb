//! Table 3 — memory-hierarchy profile of Simple Grid before and after the
//! paper's modifications: CPI, total retired operations, and L1/L2/L3
//! data-cache misses at the default workload.
//!
//! The paper reads hardware performance counters; this harness replays
//! the grid's instrumented memory-access stream through `sj-memsim`'s
//! simulated i7-class hierarchy instead (DESIGN.md §3). Absolute counts
//! are smaller than the paper's (we trace index traversals, not the whole
//! process), but the before/after ratios carry the same message.
//!
//! Run: `cargo run -p sj-bench --release --bin table3 [--ticks N] [--csv]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::JsonLine;
use sj_bench::table::{count, Table};
use sj_core::driver::TickActions;
use sj_core::geom::Rect;
use sj_core::Workload;
use sj_grid::{SimpleGrid, Stage};
use sj_memsim::{CacheSim, CacheStats, CpiModel};
use sj_workload::UniformWorkload;

/// Run the full tick loop with the grid's build and query phases traced
/// into a fresh simulated cache hierarchy; returns the counter snapshot.
fn profile_stage(stage: Stage, opts: &CommonOpts) -> CacheStats {
    let mut params = opts.uniform_params();
    // Tracing multiplies work; default to fewer ticks than timing runs
    // unless the user asked explicitly.
    if opts.ticks.is_none() && !opts.paper {
        params.ticks = 3;
    }
    let mut workload = UniformWorkload::new(params);
    let space = workload.space();
    let query_side = workload.query_side();
    let mut set = workload.init();
    let mut grid = SimpleGrid::at_stage(stage, params.space_side);
    let mut sim = CacheSim::i7();
    let mut actions = TickActions::default();
    let mut sink = 0u64;

    for tick in 0..params.ticks {
        actions.clear();
        workload.plan_tick(tick, &set, &mut actions);
        grid.build_traced(&set.table, &mut sim);
        for &q in &actions.queriers {
            let region = Rect::centered_square(set.table.point(q), query_side).clipped_to(&space);
            // Sink-based query, like the driver: the traced access stream
            // contains only index traversal, no result materialization.
            grid.for_each_traced(&set.table, &region, &mut |_| sink += 1, &mut sim);
        }
        for &(id, vx, vy) in &actions.velocity_updates {
            set.set_velocity(id, sj_core::geom::Vec2::new(vx, vy));
        }
        workload.advance(&mut set);
    }
    assert!(
        sink > 0,
        "queries produced no results — profile would be vacuous"
    );
    sim.stats()
}

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("table3");
    // table3's traced tick loop is tied to the uniform workload.
    opts.reject_workload();
    // table3 profiles the grid before/after stages; a single-technique override cannot be honored.
    opts.reject_technique();
    if opts.threads.is_some() {
        // The traced replay feeds one simulated cache hierarchy; a sharded
        // query phase would interleave the access streams meaninglessly.
        eprintln!("note: --threads is ignored — the traced profile is sequential by design");
    }
    let model = CpiModel::default();

    let before = profile_stage(Stage::Original, &opts);
    let after = profile_stage(Stage::CpsTuned, &opts);

    if opts.json {
        // One line per profiled stage, same reader-friendly shape as the
        // timing binaries (the counters replace the RunStats fields).
        for (stage, s) in [("grid:original", &before), ("grid:cps-tuned", &after)] {
            println!(
                "{}",
                JsonLine::new("table3")
                    .str("technique", stage)
                    .num("cpi", model.cpi(s))
                    .int("instrs", s.instrs)
                    .int("l1_misses", s.l1_misses)
                    .int("l2_misses", s.l2_misses)
                    .int("l3_misses", s.l3_misses)
                    .finish()
            );
        }
        return;
    }

    println!("# Table 3: profiling, 50% queries and updates (simulated i7 hierarchy)");
    let mut t = Table::new(vec![
        "Simple Grid",
        "CPI",
        "Total INS",
        "L1 misses",
        "L2 misses",
        "L3 misses",
    ]);
    for (label, s) in [("Before", &before), ("After", &after)] {
        t.row(vec![
            label.to_string(),
            format!("{:.2}", model.cpi(s)),
            count(s.instrs),
            count(s.l1_misses),
            count(s.l2_misses),
            count(s.l3_misses),
        ]);
    }
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            "inf".to_string()
        } else {
            format!("{:.1}x", a as f64 / b as f64)
        }
    };
    t.row(vec![
        "Improvement".to_string(),
        format!("{:.2}x", model.cpi(&before) / model.cpi(&after).max(1e-12)),
        ratio(before.instrs, after.instrs),
        ratio(before.l1_misses, after.l1_misses),
        ratio(before.l2_misses, after.l2_misses),
        ratio(before.l3_misses, after.l3_misses),
    ]);
    println!("{}", t.render(opts.csv));
    println!(
        "(paper, hardware counters: CPI 1.32 -> 1.13, INS 171B -> 37B, \
         L1 8786M -> 1091M, L2 6148M -> 747M, L3 325M -> 67M)"
    );
}
