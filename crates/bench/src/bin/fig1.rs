//! Figure 1 — tuning the *original* Simple Grid.
//!
//! (a) bucket size bs swept 4..32 at cps = 13: the paper finds a flat
//!     line (bs has no effect because entries are chased through linked
//!     nodes regardless of bucket capacity).
//! (b) cells-per-side cps swept 4..32 at bs = 4: a clear optimum at a
//!     coarse grid (cps ≈ 13).
//!
//! The swept configurations are deliberately *not* registry entries — the
//! registry carries the tuned constructors; sweeps assemble custom grids
//! via [`sj_bench::grid_custom`].
//!
//! Run: `cargo run -p sj-bench --release --bin fig1 [--ticks N] [--workload SPEC] [--csv|--json]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::stats_line;
use sj_bench::table::{secs, Table};
use sj_bench::{grid_custom, run_workload};
use sj_grid::{GridConfig, Layout, QueryAlgo};

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("fig1");
    // fig1 sweeps fixed grid configurations; a single-technique override cannot be honored.
    opts.reject_technique();
    let params = opts.uniform_params();
    let wspec = opts.workload_spec();
    let exec = opts.exec_mode();

    if !opts.json {
        println!("# Figure 1a: original Simple Grid, bs sweep (cps = 13)");
    }
    let mut t = Table::new(vec!["bs", "avg_time_per_tick_s"]);
    for bs in [4u32, 8, 12, 16, 20, 24, 28, 32] {
        let cfg = GridConfig {
            cells_per_side: GridConfig::ORIGINAL_CPS,
            bucket_size: bs,
            layout: Layout::Original,
            query_algo: QueryAlgo::FullScan,
        };
        let mut tech = grid_custom(cfg, params.space_side);
        let stats = run_workload(wspec, &params, &mut tech, exec);
        if opts.json {
            println!(
                "{}",
                stats_line("fig1a", tech.name(), Some(("bs", bs as f64)), &stats)
            );
        } else {
            t.row(vec![bs.to_string(), secs(stats.avg_tick_seconds())]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Figure 1b: original Simple Grid, cps sweep (bs = 4)");
    }
    let mut t = Table::new(vec!["cps", "avg_time_per_tick_s"]);
    for cps in [4u32, 8, 13, 16, 20, 24, 28, 32] {
        let cfg = GridConfig {
            cells_per_side: cps,
            bucket_size: GridConfig::ORIGINAL_BS,
            layout: Layout::Original,
            query_algo: QueryAlgo::FullScan,
        };
        let mut tech = grid_custom(cfg, params.space_side);
        let stats = run_workload(wspec, &params, &mut tech, exec);
        if opts.json {
            println!(
                "{}",
                stats_line("fig1b", tech.name(), Some(("cps", cps as f64)), &stats)
            );
        } else {
            t.row(vec![cps.to_string(), secs(stats.avg_tick_seconds())]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }
}
