//! Criterion microbenchmark: range-query cost per technique at the
//! default workload geometry (query side 400 over a 22K² space with
//! 50 K points) — the "Query" column of Table 2 in isolation — and the
//! intersection probes of every extent-capable index over the
//! `intersect:rects` table at the same size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::geom::{Point, Rect};
use sj_core::rng::Xoshiro256;
use sj_core::table::PointTable;
use sj_core::technique::registry;
use sj_workload::{RectsWorkload, UniformWorkload, WorkloadParams};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let params = WorkloadParams::default();
    let mut w = UniformWorkload::new(params);
    let set = sj_core::Workload::init(&mut w);
    let table: &PointTable = &set.table;
    let space = Rect::space(params.space_side);

    // A fixed batch of query rectangles centred on object positions, as
    // the driver produces them.
    let mut rng = Xoshiro256::seeded(1234);
    let queries: Vec<Rect> = (0..256)
        .map(|_| {
            let i = rng.range_usize(table.len());
            let c = Point::new(table.x(i as u32), table.y(i as u32));
            Rect::centered_square(c, params.query_side).clipped_to(&space)
        })
        .collect();

    let mut group = c.benchmark_group("query_batch_256");
    group.sample_size(10);
    for spec in registry()
        .into_iter()
        .filter(|s| s.is_benchmarkable() && !s.is_batch())
    {
        let mut tech = spec.build(params.space_side);
        let index = tech.as_index_mut().expect("batch specs filtered out");
        index.build(table);
        group.bench_function(BenchmarkId::from_parameter(spec.label()), |b| {
            b.iter(|| {
                // Sink-folded, as the driver queries: count matches only.
                let mut found = 0usize;
                for q in &queries {
                    index.for_each_in(black_box(table), black_box(q), &mut |_| found += 1);
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

fn bench_intersections(c: &mut Criterion) {
    let params = WorkloadParams::default();
    let set = sj_core::ExtentWorkload::init(&mut RectsWorkload::new(params));
    let table = &set.table;
    // Each probe is a row's own extent, as in the self-join.
    let mut rng = Xoshiro256::seeded(1234);
    let queries: Vec<Rect> = (0..256)
        .map(|_| table.rect(rng.range_usize(table.len()) as u32))
        .collect();

    let mut group = c.benchmark_group("intersect_batch_256");
    group.sample_size(10);
    for spec in registry()
        .into_iter()
        .filter(|s| s.supports_intersects() && !s.is_batch())
    {
        let mut tech = spec.build(params.space_side);
        let index = tech.as_index_mut().expect("batch specs filtered out");
        index.build_extents(table);
        group.bench_function(BenchmarkId::from_parameter(spec.label()), |b| {
            b.iter(|| {
                let mut found = 0usize;
                for q in &queries {
                    index
                        .for_each_intersecting(black_box(table), black_box(q), &mut |_| found += 1);
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries, bench_intersections);
criterion_main!(benches);
