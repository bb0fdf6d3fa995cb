//! Quickstart: index a point set with the paper's tuned Simple Grid and
//! run a few range queries.
//!
//! Run: `cargo run --release --example quickstart`

use spatial_joins::prelude::*;

fn main() {
    // A base table of 100 000 points in a 22 000² space, like the paper's
    // default workload (positions here from the uniform generator).
    let params = WorkloadParams {
        num_points: 100_000,
        ..WorkloadParams::default()
    };
    let mut workload = UniformWorkload::new(params);
    let set = workload.init();
    let table: &PointTable = &set.table;

    // The winner of the paper: Simple Grid, refactored layout,
    // overlap-range queries, bs = 20, cps = 64.
    let mut grid = SimpleGrid::tuned(params.space_side);
    grid.build(table);
    println!(
        "indexed {} points in a {:.0}^2 space ({} KiB of grid memory)",
        table.len(),
        params.space_side,
        grid.memory_bytes() / 1024
    );

    // Range queries: 400×400 windows centred on the first few objects.
    let mut results = Vec::new();
    for id in 0..5u32 {
        let center = table.point(id);
        let region = Rect::centered_square(center, params.query_side)
            .clipped_to(&Rect::space(params.space_side));
        results.clear();
        grid.query(table, &region, &mut results);
        println!(
            "object {id} at ({:.0}, {:.0}): {} neighbours in its 400x400 window",
            center.x,
            center.y,
            results.len()
        );
    }

    // Cross-check one query against the ground-truth full scan.
    let scan = ScanIndex::new();
    let region = Rect::centered_square(table.point(0), params.query_side)
        .clipped_to(&Rect::space(params.space_side));
    let mut expect = Vec::new();
    scan.query(table, &region, &mut expect);
    results.clear();
    grid.query(table, &region, &mut results);
    results.sort_unstable();
    expect.sort_unstable();
    assert_eq!(results, expect, "grid and scan disagree");
    println!(
        "grid result verified against full scan ({} matches)",
        results.len()
    );
}
