//! The footprint convention, proven registry-wide: every index technique
//! accounts its memory as **allocated capacity** (see
//! `SpatialIndex::memory_bytes`). Two consequences this suite pins for
//! every index in the registry:
//!
//! - a build over a non-empty table leaves a non-zero footprint (the one
//!   exception is the ground-truth scan, which owns no allocation at all
//!   and reports 0 by design);
//! - the footprint is monotone in the population for freshly built
//!   instances — more points can never report *less* resident memory.
//!
//! Before the convention existed, implementations mixed live-`len` and
//! capacity accounting (and one counted a liveness bitmap the others
//! didn't), so cross-technique footprint comparisons in the `memory`
//! harness were comparing different quantities.

use spatial_joins::prelude::*;

fn random_table(n: usize, seed: u64, side: f32) -> PointTable {
    use spatial_joins::core::rng::Xoshiro256;
    let mut rng = Xoshiro256::seeded(seed);
    let mut t = PointTable::with_capacity(n);
    for _ in 0..n {
        t.push(rng.range_f32(0.0, side), rng.range_f32(0.0, side));
    }
    t
}

const SIDE: f32 = 6_000.0;

/// Build a fresh instance of the spec's index over an `n`-point table and
/// return its footprint. `None` for batch techniques (no index to build).
fn footprint(spec: TechniqueSpec, n: usize) -> Option<usize> {
    let mut tech = spec.build(SIDE);
    let index = tech.as_index_mut()?;
    let table = random_table(n, 7, SIDE);
    index.build(&table);
    Some(index.memory_bytes())
}

#[test]
fn every_index_reports_nonzero_memory_after_build() {
    for spec in registry() {
        let Some(bytes) = footprint(spec, 1_000) else {
            continue; // batch technique: no index, no footprint
        };
        if spec.is_reference() {
            assert_eq!(bytes, 0, "the scan owns nothing and must report 0");
        } else {
            assert!(bytes > 0, "{}: zero footprint after build", spec.name());
        }
    }
}

#[test]
fn memory_is_monotone_in_the_population() {
    for spec in registry() {
        let (Some(small), Some(large)) = (footprint(spec, 800), footprint(spec, 3_200)) else {
            continue;
        };
        assert!(
            small <= large,
            "{}: footprint shrank with more points ({small} > {large})",
            spec.name()
        );
    }
}

#[test]
fn capacity_accounting_covers_rebuilds_over_shrinking_tables() {
    // Arenas are reused across builds and keep their high-water mark; the
    // capacity convention must reflect that — a rebuild over a smaller
    // table never reports more than the big build did, and (for real
    // indexes) never drops to zero either.
    for spec in registry() {
        let mut tech = spec.build(SIDE);
        let Some(index) = tech.as_index_mut() else {
            continue;
        };
        index.build(&random_table(2_000, 3, SIDE));
        let big = index.memory_bytes();
        index.build(&random_table(200, 4, SIDE));
        let shrunk = index.memory_bytes();
        assert!(
            shrunk <= big,
            "{}: rebuild over fewer points grew the footprint",
            spec.name()
        );
        if !spec.is_reference() {
            assert!(shrunk > 0, "{}: footprint vanished on rebuild", spec.name());
        }
    }
}

#[test]
fn fitted_tile_forks_hold_about_the_sequential_footprint() {
    // Each tile fork fits its directory to its rows, so at 20k uniform
    // points the 16 forks of `grid:inline@tiles16@par2` hold about the
    // sequential grid's cells between them. Forks that each kept the
    // whole-space 64 × 64 directory reported 18.7× the sequential
    // footprint in `BENCH_10.json` (17.38 against 0.93 MB).
    let params = WorkloadParams {
        num_points: 20_000,
        ticks: 2,
        seed: 42,
        ..WorkloadParams::default()
    };
    let index_bytes = |spec: &str| {
        let mut tech = TechniqueSpec::parse(spec).unwrap().build(params.space_side);
        let cfg = DriverConfig::new(params.ticks, 1);
        tech.run(&mut UniformWorkload::new(params), cfg).index_bytes
    };
    let sequential = index_bytes("grid:inline");
    let tiled = index_bytes("grid:inline@tiles16@par2");
    assert!(
        tiled as f64 <= 1.5 * sequential as f64,
        "16 tile forks hold {tiled} B against {sequential} B sequentially"
    );
}

#[test]
fn the_grid_extent_store_holds_ids_only() {
    // The extent path keeps the live row ids counting-sorted by the cell
    // of their reference corner: 4 B per row plus one 8-byte offset per
    // cell (two more than the 64 × 64 cells). Per-cell id lists held
    // 207,312 B after this build, and 254,176 B after the `table2` run
    // of `BENCH_10.json`.
    let params = WorkloadParams {
        num_points: 20_000,
        seed: 42,
        ..WorkloadParams::default()
    };
    let set = ExtentWorkload::init(&mut RectsWorkload::new(params));
    let mut tech = TechniqueSpec::parse("grid:inline")
        .unwrap()
        .build(params.space_side);
    let index = tech.as_index_mut().expect("grid:inline is an index");
    index.build_extents(&set.table);
    let bytes = index.memory_bytes();
    let bound = 4 * set.table.live_len() + 8 * (64 * 64 + 2);
    assert!(
        bytes <= bound,
        "{bytes} B after an extent build over 20k rects, bound {bound} B"
    );
}
