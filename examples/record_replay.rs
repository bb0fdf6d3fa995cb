//! Record a workload to a trace file and replay it bit-identically — the
//! plumbing behind trace-driven (simulation) workloads in the original
//! framework, and a handy tool for comparing implementations across
//! processes or languages on the exact same input.
//!
//! Run: `cargo run --release --example record_replay`

use spatial_joins::prelude::*;
use spatial_joins::workload::{record, Trace, TraceWorkload};

fn main() {
    let params = WorkloadParams {
        num_points: 10_000,
        ticks: 8,
        ..WorkloadParams::default()
    };
    let cfg = DriverConfig::new(params.ticks, 0);

    // 1. Run the live workload.
    let live = {
        let mut workload = UniformWorkload::new(params);
        let mut grid = SimpleGrid::tuned(params.space_side);
        run_join(&mut workload, &mut grid, cfg)
    };

    // 2. Record the identical workload to a file.
    let path = std::env::temp_dir().join("spatial_joins_demo.sjtrace");
    {
        let mut workload = UniformWorkload::new(params);
        let trace = record(&mut workload, params.ticks);
        trace.save(&path).expect("write trace");
        println!(
            "recorded {} points x {} ticks to {} ({} KiB)",
            trace.num_rows(),
            trace.num_ticks(),
            path.display(),
            std::fs::metadata(&path)
                .map(|m| m.len() / 1024)
                .unwrap_or(0)
        );
    }

    // 3. Replay from the file and join with a *different* technique.
    let replayed = {
        let trace = Trace::load(&path).expect("read trace");
        let mut workload = TraceWorkload::new(trace);
        let mut rtree = RTree::default();
        run_join(&mut workload, &mut rtree, cfg)
    };
    let _ = std::fs::remove_file(&path);

    println!(
        "live   grid : {} pairs, checksum {:#x}",
        live.result_pairs, live.checksum
    );
    println!(
        "replay rtree: {} pairs, checksum {:#x}",
        replayed.result_pairs, replayed.checksum
    );
    assert_eq!(
        live.checksum, replayed.checksum,
        "replay diverged from the live run"
    );
    println!("replayed join is bit-identical to the live run.");
}
