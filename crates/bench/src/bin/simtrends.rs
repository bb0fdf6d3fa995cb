//! The paper's §2.1 footnote claim, tested: "the same performance trends
//! also hold for the simulation workloads." The original traffic
//! simulator is unavailable; `sj-workload::RoadGridWorkload` (Manhattan
//! mobility on a road grid — skewed, line-concentrated density) is the
//! synthetic stand-in (DESIGN.md §3).
//!
//! Expected: the same ordering as Figure 2 — original Simple Grid worst,
//! Binary Search next, the trees clustered, tuned grid on top. Every
//! benchmarkable registry technique runs (and must agree on the join).
//!
//! Run: `cargo run -p sj-bench --release --bin simtrends [--ticks N] [--csv|--json]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::stats_line;
use sj_bench::table::{secs, Table};
use sj_core::driver::DriverConfig;
use sj_core::technique::TechniqueSpec;
use sj_workload::RoadGridWorkload;

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("simtrends");
    // simtrends exists to test the road-grid workload specifically.
    opts.reject_workload();
    let params = opts.uniform_params();
    let specs = opts.techniques(TechniqueSpec::is_benchmarkable);
    let exec = opts.exec_mode();

    if !opts.json {
        println!(
            "# Simulation-workload trends (road grid, {} points, {} ticks)",
            params.num_points, params.ticks
        );
    }
    let mut t = Table::new(vec!["technique", "avg_tick_s", "build_s", "query_s"]);
    let mut reference: Option<(u64, u64)> = None;
    for spec in specs {
        let mut workload = RoadGridWorkload::with_defaults(params);
        let mut tech = spec.build(params.space_side);
        let stats = tech.run(
            &mut workload,
            DriverConfig::new(params.ticks, 1).with_exec(exec),
        );
        match reference {
            None => reference = Some((stats.result_pairs, stats.checksum)),
            Some(expect) => assert_eq!(
                (stats.result_pairs, stats.checksum),
                expect,
                "{} computed a different join",
                spec.label()
            ),
        }
        if opts.json {
            println!("{}", stats_line("simtrends", &spec.name(), None, &stats));
        } else {
            t.row(vec![
                spec.label(),
                secs(stats.avg_tick_seconds()),
                secs(stats.avg_build_seconds()),
                secs(stats.avg_query_seconds()),
            ]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
        println!("(expected ordering, as in Figure 2: original grid worst, tuned grid best)");
    }
}
