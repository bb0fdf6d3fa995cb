//! Figure 4 — new performance of Simple Grid: the five cumulative
//! improvement stages across the same three sweeps as Figure 2.
//!
//! Expected shape: each stage at or below its predecessor; the paper
//! reports 1.13× (restructure), 1.3× (query algorithm), 1.4× (bs = 20)
//! and a further 3× (cps = 64) at the default workload — ≈6× in total.
//!
//! The stage line-up is the registry's grid family
//! (`TechniqueSpec::grid_stage`); `--technique` narrows to one entry.
//!
//! Run: `cargo run -p sj-bench --release --bin fig4 [--ticks N] [--csv|--json]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::stats_line;
use sj_bench::table::{secs, Table};
use sj_bench::{run_gaussian_spec, run_uniform_spec};
use sj_core::technique::TechniqueSpec;

fn headers(specs: &[TechniqueSpec]) -> Vec<String> {
    let mut h = vec!["x".to_string()];
    h.extend(specs.iter().map(|s| s.label()));
    h
}

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("fig4");
    let specs = opts.techniques(|s| s.grid_stage().is_some());
    // fig4 sweeps its own workload axes (query rate, hotspots, points).
    opts.reject_workload();

    let exec = opts.exec_mode();

    if !opts.json {
        println!("# Figure 4a: scaling the query rate (uniform, 50K points)");
    }
    let mut t = Table::new(headers(&specs));
    for frac in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
        let mut params = opts.uniform_params();
        params.frac_queriers = frac;
        let mut row = vec![format!("{frac}")];
        for &spec in &specs {
            let stats = run_uniform_spec(&params, spec, exec);
            if opts.json {
                println!(
                    "{}",
                    stats_line(
                        "fig4a",
                        &spec.name(),
                        Some(("frac_queriers", frac as f64)),
                        &stats
                    )
                );
            } else {
                row.push(secs(stats.avg_tick_seconds()));
            }
        }
        if !opts.json {
            t.row(row);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Figure 4b: scaling the number of hotspots (Gaussian, 50K points)");
    }
    let mut t = Table::new(headers(&specs));
    for hotspots in [1u32, 10, 100, 1000] {
        let mut params = opts.gaussian_params();
        params.hotspots = hotspots;
        let mut row = vec![hotspots.to_string()];
        for &spec in &specs {
            let stats = run_gaussian_spec(&params, spec, exec);
            if opts.json {
                println!(
                    "{}",
                    stats_line(
                        "fig4b",
                        &spec.name(),
                        Some(("hotspots", hotspots as f64)),
                        &stats
                    )
                );
            } else {
                row.push(secs(stats.avg_tick_seconds()));
            }
        }
        if !opts.json {
            t.row(row);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Figure 4c: scaling the number of points (uniform)");
    }
    let mut t = Table::new(headers(&specs));
    for points in [10_000u32, 30_000, 50_000, 70_000, 90_000] {
        let mut params = opts.uniform_params();
        params.num_points = points;
        let mut row = vec![points.to_string()];
        for &spec in &specs {
            let stats = run_uniform_spec(&params, spec, exec);
            if opts.json {
                println!(
                    "{}",
                    stats_line(
                        "fig4c",
                        &spec.name(),
                        Some(("points", points as f64)),
                        &stats
                    )
                );
            } else {
                row.push(secs(stats.avg_tick_seconds()));
            }
        }
        if !opts.json {
            t.row(row);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }
}
