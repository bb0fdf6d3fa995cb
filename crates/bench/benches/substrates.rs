//! Criterion microbenchmarks for the substrates: Morton encoding, the
//! radix sort behind the throwaway KD-trie rebuild, the cache
//! simulator's per-access cost, and the SIMD kernels at the call shapes
//! the benchmark's workloads drive.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use sj_core::geom::Rect;
use sj_core::rng::Xoshiro256;
use sj_core::simd::{filter_overlap_each, gather_overlap_each, gather_range_each};
use sj_core::table::{entry_id, EntryId};
use sj_core::trace::Tracer;
use sj_kdtrie::{encode, sort_by_code};
use sj_memsim::CacheSim;
use std::hint::black_box;

fn bench_morton(c: &mut Criterion) {
    let mut rng = Xoshiro256::seeded(1);
    let pts: Vec<(u16, u16)> = (0..4096)
        .map(|_| (rng.next_u32() as u16, rng.next_u32() as u16))
        .collect();
    c.bench_function("morton_encode_4096", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(x, y) in &pts {
                acc = acc.wrapping_add(encode(black_box(x), black_box(y)));
            }
            black_box(acc)
        })
    });
}

fn bench_radix(c: &mut Criterion) {
    let mut rng = Xoshiro256::seeded(2);
    let keys: Vec<u64> = (0..50_000).map(|_| rng.next_u64()).collect();
    let mut scratch = Vec::new();
    c.bench_function("radix_sort_50k", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            sort_by_code(&mut k, &mut scratch);
            black_box(k.len())
        })
    });
}

fn bench_cachesim(c: &mut Criterion) {
    let mut rng = Xoshiro256::seeded(3);
    let addrs: Vec<u64> = (0..10_000).map(|_| rng.next_u64() & 0xFF_FFFF).collect();
    c.bench_function("cachesim_10k_accesses", |b| {
        let mut sim = CacheSim::i7();
        b.iter(|| {
            for &a in &addrs {
                sim.read(black_box(a), 8);
            }
            black_box(sim.stats().l1_misses)
        })
    });
}

/// Kernel calls per iteration of a `simd_kernels` bench: per-call cost is
/// the time per iteration over this.
const CALLS: usize = 1024;
/// Iterations cycle through this many sets of `CALLS` calls, each call
/// over its own rows and region, so that no branch predictor can learn
/// the hit pattern of a call from the iterations before.
const ROUNDS: usize = 16;
/// Rows of the columns the gather kernels read through their ids.
const TABLE_ROWS: usize = 50_000;

/// `n` rectangles with lower-left corners uniform in `[0, 1000)²` and
/// sides uniform in `[0, 40)`, as `[x1, y1, x2, y2]` columns.
fn random_rects(rng: &mut Xoshiro256, n: usize) -> [Vec<f32>; 4] {
    let mut cols: [Vec<f32>; 4] = Default::default();
    for _ in 0..n {
        let (x1, y1) = (rng.range_f32(0.0, 1000.0), rng.range_f32(0.0, 1000.0));
        let (w, h) = (rng.range_f32(0.0, 40.0), rng.range_f32(0.0, 40.0));
        for (col, v) in cols.iter_mut().zip([x1, y1, x1 + w, y1 + h]) {
            col.push(v);
        }
    }
    cols
}

/// A square of side `side` placed uniformly inside `[0, 1000]²` for each
/// call.
fn random_regions(rng: &mut Xoshiro256, side: f32) -> Vec<Rect> {
    (0..ROUNDS * CALLS)
        .map(|_| {
            let (x, y) = (
                rng.range_f32(0.0, 1000.0 - side),
                rng.range_f32(0.0, 1000.0 - side),
            );
            Rect::new(x, y, x + side, y + side)
        })
        .collect()
}

/// Time `kernel`: each iteration makes the next round's `CALLS` calls
/// `call(k, emit)`, `k` in `round * CALLS..(round + 1) * CALLS`, each over
/// `rows` rows and emitting through a `dyn` sink as the indexes' probes
/// do. The label gives the share of rows that hit over all rounds.
fn time_calls(
    group: &mut BenchmarkGroup<'_>,
    kernel: &str,
    rows: usize,
    call: impl Fn(usize, &mut dyn FnMut(EntryId)),
) {
    let mut hits = 0usize;
    for k in 0..ROUNDS * CALLS {
        call(k, &mut |_| hits += 1);
    }
    let share = 100.0 * hits as f64 / (ROUNDS * CALLS * rows) as f64;
    let label = format!("{CALLS} calls of {rows} rows, {share:.0}% hits");
    let mut round = 0;
    group.bench_function(BenchmarkId::new(kernel, label), |b| {
        b.iter(|| {
            let mut sum = 0u64;
            round = (round + 1) % ROUNDS;
            for k in round * CALLS..(round + 1) * CALLS {
                call(k, &mut |id| sum += u64::from(id));
            }
            black_box(sum)
        })
    });
}

/// The dispatched kernels at the call shapes of the benchmark's
/// workloads: a `churn` query replica over a `twolayer` data bucket of
/// 64 rows at ~12% hits, a `uniform` inline bucket of 12 slots at ~30%,
/// and a `rects` cell row of 34 ids at ~19%, the last two gathered from
/// tables of 50,000 rows.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut rng = Xoshiro256::seeded(4);
    let mut group = c.benchmark_group("simd_kernels");

    // A mini-join probes one data bucket with each replica of a query
    // bucket: 16 calls a bucket, which stays in L1 between them.
    let buckets = random_rects(&mut rng, ROUNDS * CALLS / 16 * 64);
    let ids: Vec<EntryId> = (0..ROUNDS * CALLS / 16 * 64)
        .map(|_| rng.next_u32())
        .collect();
    let regions = random_regions(&mut rng, 325.0);
    time_calls(&mut group, "filter_overlap_each", 64, |k, emit| {
        let rows = k / 16 * 64..(k / 16 + 1) * 64;
        let cols = buckets.each_ref().map(|c| &c[rows.clone()]);
        filter_overlap_each(cols, &ids[rows], black_box(&regions[k]), emit);
    });

    // Points: the lower-left corners of random rectangles.
    let points = random_rects(&mut rng, TABLE_ROWS);
    let slots: Vec<u64> = (0..ROUNDS * CALLS * 12)
        .map(|_| rng.range_usize(TABLE_ROWS) as u64)
        .collect();
    let regions = random_regions(&mut rng, 548.0);
    time_calls(&mut group, "gather_range_each", 12, |k, emit| {
        let cols = [&points[0][..], &points[1]];
        let slots = &slots[k * 12..(k + 1) * 12];
        gather_range_each(cols, slots, black_box(&regions[k]), emit);
    });

    let rects = random_rects(&mut rng, TABLE_ROWS);
    let ids: Vec<EntryId> = (0..ROUNDS * CALLS * 34)
        .map(|_| entry_id(rng.range_usize(TABLE_ROWS)))
        .collect();
    let regions = random_regions(&mut rng, 415.0);
    time_calls(&mut group, "gather_overlap_each", 34, |k, emit| {
        let cols = rects.each_ref().map(|c| &c[..]);
        let ids = &ids[k * 34..(k + 1) * 34];
        gather_overlap_each(cols, ids, black_box(&regions[k]), emit);
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_morton,
    bench_radix,
    bench_cachesim,
    bench_simd_kernels
);
criterion_main!(benches);
