//! Criterion microbenchmark: query cost of each Simple Grid improvement
//! stage — the per-stage speedups behind Figure 4, without driver noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::geom::{Point, Rect};
use sj_core::index::SpatialIndex;
use sj_core::rng::Xoshiro256;
use sj_grid::{SimpleGrid, Stage};
use sj_workload::{UniformWorkload, WorkloadParams};
use std::hint::black_box;

fn bench_stages(c: &mut Criterion) {
    let params = WorkloadParams::default();
    let mut w = UniformWorkload::new(params);
    let set = sj_core::Workload::init(&mut w);
    let table = &set.table;
    let space = Rect::space(params.space_side);

    let mut rng = Xoshiro256::seeded(77);
    let queries: Vec<Rect> = (0..256)
        .map(|_| {
            let i = rng.range_usize(table.len());
            let c = Point::new(table.x(i as u32), table.y(i as u32));
            Rect::centered_square(c, params.query_side).clipped_to(&space)
        })
        .collect();

    let mut group = c.benchmark_group("grid_stage_query_batch_256");
    group.sample_size(10);
    for stage in Stage::ALL {
        let mut grid = SimpleGrid::at_stage(stage, params.space_side);
        grid.build(table);
        let mut out = Vec::with_capacity(1024);
        group.bench_function(BenchmarkId::from_parameter(stage.label()), |b| {
            b.iter(|| {
                let mut found = 0usize;
                for q in &queries {
                    out.clear();
                    grid.query(black_box(table), black_box(q), &mut out);
                    found += out.len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
