//! Figure 5 — re-tuning the *refactored* Simple Grid.
//!
//! (a) bs swept 4..32 at cps = 13: larger buckets now help (entries are
//!     inline, so bigger buckets mean better locality); optimum ≈ 20.
//! (b) cps swept 4..128 at bs = 20: a much finer grid wins; optimum ≈ 64.
//!
//! Like Figure 1, the swept configurations are assembled via
//! [`sj_bench::grid_custom`] — the registry holds only the tuned winners.
//!
//! Run: `cargo run -p sj-bench --release --bin fig5 [--ticks N] [--workload SPEC] [--csv|--json]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::stats_line;
use sj_bench::table::{secs, Table};
use sj_bench::{grid_custom, run_workload};
use sj_grid::{GridConfig, Layout, QueryAlgo};

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("fig5");
    // fig5 sweeps fixed grid configurations; a single-technique override cannot be honored.
    opts.reject_technique();
    let params = opts.uniform_params();
    let wspec = opts.workload_spec();
    let exec = opts.exec_mode();

    if !opts.json {
        println!("# Figure 5a: refactored Simple Grid, bs sweep (cps = 13)");
    }
    let mut t = Table::new(vec!["bs", "avg_time_per_tick_s"]);
    for bs in [4u32, 8, 12, 16, 20, 24, 28, 32] {
        let cfg = GridConfig {
            cells_per_side: GridConfig::ORIGINAL_CPS,
            bucket_size: bs,
            layout: Layout::Inline,
            query_algo: QueryAlgo::RangeScan,
        };
        let mut tech = grid_custom(cfg, params.space_side);
        let stats = run_workload(wspec, &params, &mut tech, exec);
        if opts.json {
            println!(
                "{}",
                stats_line("fig5a", tech.name(), Some(("bs", bs as f64)), &stats)
            );
        } else {
            t.row(vec![bs.to_string(), secs(stats.avg_tick_seconds())]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Figure 5b: refactored Simple Grid, cps sweep (bs = 20)");
    }
    let mut t = Table::new(vec!["cps", "avg_time_per_tick_s"]);
    for cps in [4u32, 8, 16, 32, 48, 64, 96, 128] {
        let cfg = GridConfig {
            cells_per_side: cps,
            bucket_size: GridConfig::TUNED_BS,
            layout: Layout::Inline,
            query_algo: QueryAlgo::RangeScan,
        };
        let mut tech = grid_custom(cfg, params.space_side);
        let stats = run_workload(wspec, &params, &mut tech, exec);
        if opts.json {
            println!(
                "{}",
                stats_line("fig5b", tech.name(), Some(("cps", cps as f64)), &stats)
            );
        } else {
            t.row(vec![cps.to_string(), secs(stats.avg_tick_seconds())]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }
}
