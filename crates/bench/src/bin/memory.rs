//! Memory-footprint report: bytes per indexed point for every *index*
//! technique in the registry at the default workload. Footprints follow
//! the workspace-wide **allocated-capacity** convention
//! (`SpatialIndex::memory_bytes`): what the index actually holds
//! resident, arena slack included — so the per-point numbers sit at or
//! above the paper's §3.1 *live-structure* arithmetic (original grid
//! 32 B/point, refactored 12 B/point), which the grid crate's tests pin
//! exactly via `SimpleGrid::live_bytes`. Batch techniques (plane sweep)
//! build no index and are skipped.
//!
//! Run: `cargo run -p sj-bench --release --bin memory [--points N] [--workload SPEC] [--csv|--json]`

use sj_bench::cli::CommonOpts;
use sj_bench::report::JsonLine;
use sj_bench::table::Table;

fn main() {
    let opts = CommonOpts::parse();
    opts.require_self_join("memory");
    let params = opts.uniform_params();
    let wspec = opts.workload_spec();
    let mut workload = wspec.build(params);
    let set = workload.init();
    let table = &set.table;

    if opts.threads.is_some() {
        // Footprint is measured after one build; there is no query phase
        // for --threads to shard.
        eprintln!("note: --threads is ignored — the footprint report runs no queries");
    }
    let specs = opts.techniques(|s| s.is_benchmarkable() && !s.is_batch());

    if !opts.json {
        println!(
            "# Index memory at {} points, {} workload (allocated capacity, base table excluded)",
            table.len(),
            wspec.name()
        );
    }
    let mut t = Table::new(vec!["technique", "total_KiB", "bytes_per_point"]);
    for spec in specs {
        let mut tech = spec.build(params.space_side);
        let Some(index) = tech.as_index_mut() else {
            // Reachable via `--technique sweep`: batch techniques build no
            // index, so there is no footprint to report.
            eprintln!(
                "(skipping {}: batch techniques build no index)",
                spec.name()
            );
            continue;
        };
        index.build(table);
        let bytes = index.memory_bytes();
        if opts.json {
            println!(
                "{}",
                JsonLine::new("memory")
                    .str("technique", &spec.name())
                    .int("points", table.len() as u64)
                    .int("index_bytes", bytes as u64)
                    .num("bytes_per_point", bytes as f64 / table.len() as f64)
                    .finish()
            );
        } else {
            t.row(vec![
                spec.label(),
                format!("{}", bytes / 1024),
                format!("{:.1}", bytes as f64 / table.len() as f64),
            ]);
        }
    }
    if !opts.json {
        println!("{}", t.render(opts.csv));
        println!(
            "(allocated capacity, arena slack included — at or above the paper's S3.1\n\
             live-structure arithmetic: original grid = 24 + 32/bs = 32 B/point at bs=4\n\
             plus directory; refactored = 8 + 16/bs = 12 B/point; pinned exactly by the\n\
             grid crate's live_bytes tests)"
        );
    }
}
