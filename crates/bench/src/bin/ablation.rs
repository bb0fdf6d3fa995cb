//! Ablations beyond the paper (DESIGN.md §7):
//!
//! 1. The structure × algorithm cross product at bs = 4 / cps = 13 —
//!    isolates how much of the gain is layout vs. query algorithm
//!    (the paper only reports the cumulative path).
//! 2. Coordinate inlining (`Layout::InlineCoords`) on top of the tuned
//!    grid — the improvement the paper explicitly leaves on the table to
//!    preserve the secondary-index assumption.
//! 3. STR bulk load vs. incremental Guttman inserts for the R-tree —
//!    how much of "trees are fast" is the packing.
//! 4. Index nested loop vs. the index-free plane-sweep batch join across
//!    query rates — the specialized-join category of the original study.
//! 5. Rebuild-per-tick vs. incremental (u-Grid-style) maintenance across
//!    object speeds — the update-time category of the original study.
//! 6. Scalar vs. SIMD-filtered Binary Search — the data-parallel step the
//!    paper's "implementation matters" argument invites.
//! 7. The technique × workload cross product — representative techniques
//!    from every family against *every* registry workload, churn
//!    included: does the paper's ordering survive skew and population
//!    turnover?
//!
//! The head-to-head pairs come from registry specs
//! (`TechniqueSpec::…build`); only the cross-product sweeps of ablation
//! 1/2 assemble custom grids. Ablations 1–6 honor `--workload SPEC`
//! (default `uniform`); ablation 7 sweeps the whole workload registry.
//!
//! Run: `cargo run -p sj-bench --release --bin ablation [--ticks N] [--workload SPEC] [--csv|--json]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::stats_line;
use sj_bench::table::{secs, Table};
use sj_bench::{grid_custom, run_workload, run_workload_spec};
use sj_core::driver::RunStats;
use sj_core::technique::TechniqueKind;
use sj_grid::{GridConfig, Layout, QueryAlgo};

/// Emit one JSON line (when `--json`) for a run of `label` in `section`.
fn report(
    opts: &CommonOpts,
    section: &str,
    label: &str,
    stats: &RunStats,
    sweep: Option<(&str, f64)>,
) {
    if opts.json {
        println!("{}", stats_line(section, label, sweep, stats));
    }
}

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("ablation");
    // the ablations compare fixed technique pairs; a single-technique override cannot be honored.
    opts.reject_technique();
    let params = opts.uniform_params();
    let wspec = opts.workload_spec();
    let exec = opts.exec_mode();

    if !opts.json {
        println!("# Ablation 1: layout x query algorithm (bs=4, cps=13)");
    }
    let mut t = Table::new(vec!["layout", "algorithm", "avg_time_per_tick_s"]);
    for layout in [Layout::Original, Layout::Inline] {
        for algo in [QueryAlgo::FullScan, QueryAlgo::RangeScan] {
            let cfg = GridConfig {
                cells_per_side: GridConfig::ORIGINAL_CPS,
                bucket_size: GridConfig::ORIGINAL_BS,
                layout,
                query_algo: algo,
            };
            let stats = run_workload(
                wspec,
                &params,
                &mut grid_custom(cfg, params.space_side),
                exec,
            );
            report(
                &opts,
                "ablation1",
                &format!("{layout:?}/{algo:?}"),
                &stats,
                None,
            );
            if !opts.json {
                t.row(vec![
                    format!("{layout:?}"),
                    format!("{algo:?}"),
                    secs(stats.avg_tick_seconds()),
                ]);
            }
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Ablation 2: coordinate inlining on the tuned grid");
    }
    let mut t = Table::new(vec!["variant", "avg_tick_s", "build_s", "query_s"]);
    for (label, layout) in [
        ("tuned (secondary index)", Layout::Inline),
        ("tuned + inline coords", Layout::InlineCoords),
    ] {
        let cfg = GridConfig {
            layout,
            ..GridConfig::tuned()
        };
        let stats = run_workload(
            wspec,
            &params,
            &mut grid_custom(cfg, params.space_side),
            exec,
        );
        report(&opts, "ablation2", label, &stats, None);
        if !opts.json {
            t.row(vec![
                label.to_string(),
                secs(stats.avg_tick_seconds()),
                secs(stats.avg_build_seconds()),
                secs(stats.avg_query_seconds()),
            ]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Ablation 3: STR bulk load vs incremental Guttman R-tree");
    }
    let mut t = Table::new(vec!["variant", "avg_tick_s", "build_s", "query_s"]);
    for (label, spec) in [
        ("STR bulk load", TechniqueKind::RTreeStr.spec()),
        (
            "incremental (quadratic split)",
            TechniqueKind::RTreeDyn.spec(),
        ),
    ] {
        let stats = run_workload_spec(wspec, &params, spec, exec);
        report(&opts, "ablation3", &spec.name(), &stats, None);
        if !opts.json {
            t.row(vec![
                label.to_string(),
                secs(stats.avg_tick_seconds()),
                secs(stats.avg_build_seconds()),
                secs(stats.avg_query_seconds()),
            ]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Ablation 4: index nested loop vs plane-sweep batch join");
    }
    let mut t = Table::new(vec![
        "frac_queriers",
        "tuned_grid_s",
        "rtree_s",
        "plane_sweep_s",
    ]);
    for frac in [0.1f32, 0.5, 0.9] {
        let p = sj_workload::WorkloadParams {
            frac_queriers: frac,
            ..params
        };
        let mut row = vec![format!("{frac}")];
        for spec in [
            TechniqueKind::Grid(sj_grid::Stage::CpsTuned).spec(),
            TechniqueKind::RTreeStr.spec(),
            TechniqueKind::Sweep.spec(),
        ] {
            let stats = run_workload_spec(wspec, &p, spec, exec);
            report(
                &opts,
                "ablation4",
                &spec.name(),
                &stats,
                Some(("frac_queriers", frac as f64)),
            );
            if !opts.json {
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
        println!("# Ablation 5: rebuild-per-tick vs incremental grid maintenance");
    }
    let mut t = Table::new(vec!["max_speed", "rebuild_build_s", "incremental_build_s"]);
    for speed in [50.0f32, 200.0, 800.0] {
        let p = sj_workload::WorkloadParams {
            max_speed: speed,
            ..params
        };
        let mut row = vec![format!("{speed}")];
        for spec in [
            TechniqueKind::Grid(sj_grid::Stage::CpsTuned).spec(),
            TechniqueKind::GridIncremental.spec(),
        ] {
            let stats = run_workload_spec(wspec, &p, spec, exec);
            report(
                &opts,
                "ablation5",
                &spec.name(),
                &stats,
                Some(("max_speed", speed as f64)),
            );
            if !opts.json {
                row.push(secs(stats.avg_build_seconds()));
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
        println!("# Ablation 6: scalar vs vectorized Binary Search");
    }
    let mut t = Table::new(vec!["variant", "avg_tick_s", "build_s", "query_s"]);
    for (label, spec) in [
        (
            "pointer-based (secondary index)",
            TechniqueKind::BinarySearch.spec(),
        ),
        ("sorted SoA + SIMD filter", TechniqueKind::VecSearch.spec()),
    ] {
        let stats = run_workload_spec(wspec, &params, spec, exec);
        report(&opts, "ablation6", &spec.name(), &stats, None);
        if !opts.json {
            t.row(vec![
                label.to_string(),
                secs(stats.avg_tick_seconds()),
                secs(stats.avg_build_seconds()),
                secs(stats.avg_query_seconds()),
            ]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
    }

    if !opts.json {
        println!("# Ablation 7: technique x workload registry cross product");
    }
    // One representative per family: the tuned grid (rebuild), the
    // incremental grid (update-in-place — churn is its home turf), the
    // bulk-loaded R-tree, and the index-free plane sweep.
    let matrix_specs = [
        TechniqueKind::Grid(sj_grid::Stage::CpsTuned).spec(),
        TechniqueKind::GridIncremental.spec(),
        TechniqueKind::RTreeStr.spec(),
        TechniqueKind::Sweep.spec(),
    ];
    let mut headers = vec!["workload".to_string()];
    headers.extend(matrix_specs.iter().map(|s| s.name()));
    let mut t = Table::new(headers);
    for w in sj_workload::workload_registry() {
        let mut row = vec![w.name()];
        let mut reference: Option<(u64, u64)> = None;
        for spec in matrix_specs {
            let stats = run_workload_spec(w, &params, spec, exec);
            // The matrix doubles as a correctness sweep: every cell of a
            // row must compute the identical join.
            match reference {
                None => reference = Some((stats.result_pairs, stats.checksum)),
                Some(expect) => assert_eq!(
                    (stats.result_pairs, stats.checksum),
                    expect,
                    "{} computed a different join on {}",
                    spec.name(),
                    w.name()
                ),
            }
            report(
                &opts,
                "ablation7",
                &format!("{}/{}", w.name(), spec.name()),
                &stats,
                None,
            );
            if !opts.json {
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
