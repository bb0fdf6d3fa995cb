//! Criterion microbenchmark: per-tick index (re)build cost for every
//! technique — the "Build" column of Table 2 in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::table::PointTable;
use sj_core::technique::registry;
use sj_workload::{UniformWorkload, WorkloadParams};
use std::hint::black_box;

fn build_table(n: u32) -> (PointTable, f32) {
    let params = WorkloadParams {
        num_points: n,
        ..WorkloadParams::default()
    };
    let mut w = UniformWorkload::new(params);
    let set = sj_core::Workload::init(&mut w);
    (set.table, params.space_side)
}

fn bench_builds(c: &mut Criterion) {
    let (table, side) = build_table(50_000);
    let mut group = c.benchmark_group("build_50k");
    group.sample_size(10);
    for spec in registry()
        .into_iter()
        .filter(|s| s.is_benchmarkable() && !s.is_batch())
    {
        let mut tech = spec.build(side);
        let index = tech.as_index_mut().expect("batch specs filtered out");
        group.bench_function(BenchmarkId::from_parameter(spec.label()), |b| {
            b.iter(|| {
                index.build(black_box(&table));
                black_box(index.memory_bytes())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
