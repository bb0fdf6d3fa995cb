//! Zero-allocation pin for the query phase of both join categories.
//!
//! The driver's query phase calls [`SpatialIndex::for_each_in`] thousands
//! of times per tick; a single heap allocation in there (a traversal
//! stack, a scratch `Vec`) is a hidden multiplier the phase timings then
//! mis-attribute to the algorithm. A batch join runs once per tick but
//! emits hundreds of thousands of pairs, so the same holds for its
//! scratch state and its sink. This binary installs a counting global
//! allocator (test-binary scoped — integration tests each get their own
//! binary) and asserts that, after one warm-up pass, a full query batch
//! over every registry index, a repeated join of every batch technique,
//! and a repeated one-shard probe loop over its reused order buffer,
//! performs **zero** allocations on the querying thread.
//!
//! The counter is thread-local, so concurrently running tests in this
//! binary cannot pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::num::NonZeroUsize;

use spatial_joins::core::bucket::BucketSort;
use spatial_joins::core::par::shard_index_query;
use spatial_joins::prelude::*;

struct CountingAlloc;

thread_local! {
    // `const` initializers: reading these from inside `alloc` must not
    // itself allocate or recurse into the lazy-init machinery.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method delegates to `System` with its arguments passed
// through unchanged, so `System`'s own contract discharges each
// obligation; the counting side effect is a thread-local `Cell` bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is forwarded verbatim to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System` plus
        // a counter, so forwarding `(ptr, layout, new_size)` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` via the methods above
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    // `try_with`: allocator calls can outlive the thread-local's
    // destruction window during thread teardown.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count this thread's allocations during `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|c| c.get()), r)
}

const SIDE: f32 = 1_000.0;

/// A deterministic splitmix64 stream (self-contained so this test binary
/// doesn't depend on crate RNG internals).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coord(&mut self) -> f32 {
        (self.next() % 1_000_000) as f32 * (SIDE / 1_000_000.0)
    }
}

fn populated_table(n: usize, seed: u64) -> PointTable {
    let mut rng = Mix(seed);
    let mut t = PointTable::default();
    for _ in 0..n {
        let (x, y) = (rng.coord(), rng.coord());
        t.push(x, y);
    }
    t
}

fn query_batch(count: usize, seed: u64) -> Vec<Rect> {
    let mut rng = Mix(seed);
    (0..count)
        .map(|_| {
            let (cx, cy) = (rng.coord(), rng.coord());
            let w = 5.0 + rng.coord() * 0.05;
            let h = 5.0 + rng.coord() * 0.05;
            Rect::new(cx - w, cy - h, cx + w, cy + h).clipped_to(&Rect::space(SIDE))
        })
        .collect()
}

/// Every `SpatialIndex` in the workspace, constructed the way the
/// cross-index suites do.
fn all_indexes() -> Vec<Box<dyn SpatialIndex>> {
    let mut indexes: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(ScanIndex::new()),
        Box::new(BinarySearchJoin::new()),
        Box::new(VecSearchJoin::new()),
        Box::new(RTree::new(8)),
        Box::new(CRTree::new(8)),
        Box::new(LinearKdTrie::new(SIDE)),
        Box::new(DynRTree::new(8)),
        Box::new(QuadTree::new(SIDE, 16)),
        Box::new(IncrementalGrid::new(32, 8, SIDE)),
    ];
    for stage in Stage::ALL {
        indexes.push(Box::new(SimpleGrid::at_stage(stage, SIDE)));
    }
    indexes
}

/// Fold the ids `probe` emits for each query into a checksum without
/// allocating.
fn fold_probes(queries: &[Rect], mut probe: impl FnMut(&Rect, &mut dyn FnMut(EntryId))) -> u64 {
    let mut acc = 0u64;
    for q in queries {
        probe(q, &mut |id| {
            acc = acc
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(id as u64 + 1);
        });
    }
    acc
}

fn run_batch(idx: &dyn SpatialIndex, t: &PointTable, queries: &[Rect]) -> u64 {
    fold_probes(queries, |q, emit| idx.for_each_in(t, q, emit))
}

fn run_extent_batch(idx: &dyn SpatialIndex, t: &ExtentTable, queries: &[Rect]) -> u64 {
    fold_probes(queries, |q, emit| idx.for_each_intersecting(t, q, emit))
}

/// Both categories' probes: `for_each_in` over points for every index,
/// and `for_each_intersecting` over rectangles for every index that
/// supports it, also after a rebuild over the rectangles with every 5th
/// row tombstoned.
#[test]
fn query_phase_performs_zero_allocations_for_every_index() {
    let t = populated_table(3_000, 42);
    let queries = query_batch(200, 7);
    let mut rects = ExtentTable::default();
    for r in query_batch(3_000, 11) {
        rects.push(r);
    }
    let mut thinned = rects.clone();
    for id in (0..3_000).step_by(5) {
        thinned.remove(id);
    }
    let mut extent_indexes = 0;
    for mut idx in all_indexes() {
        idx.build(&t);
        // Warm-up: the contract is zero *steady-state* allocations; any
        // one-time lazy setup (e.g. the SIMD dispatch cache) happens here.
        let warm = run_batch(idx.as_ref(), &t, &queries);
        let (allocs, cold) = allocations_during(|| run_batch(idx.as_ref(), &t, &queries));
        assert_eq!(cold, warm, "{}: non-deterministic query batch", idx.name());
        assert_ne!(cold, 0, "{}: batch matched nothing — weak test", idx.name());
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {} queries in the steady state",
            idx.name(),
            queries.len()
        );
        if !idx.supports_intersect() {
            continue;
        }
        extent_indexes += 1;
        idx.build_extents(&rects);
        let warm = run_extent_batch(idx.as_ref(), &rects, &queries);
        let (allocs, cold) =
            allocations_during(|| run_extent_batch(idx.as_ref(), &rects, &queries));
        assert_eq!(cold, warm, "{}: non-deterministic extent batch", idx.name());
        assert_ne!(cold, 0, "{}: extent batch matched nothing", idx.name());
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {} extent queries",
            idx.name(),
            queries.len()
        );
        let (allocs, thin) = allocations_during(|| {
            idx.build_extents(&thinned);
            run_extent_batch(idx.as_ref(), &thinned, &queries)
        });
        assert_ne!(thin, 0, "{}: thinned batch matched nothing", idx.name());
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations rebuilding over tombstoned rects and probing",
            idx.name()
        );
    }
    assert_eq!(
        extent_indexes,
        1 + Stage::ALL.len(),
        "the scan and every grid stage"
    );
}

/// Run one batch join through a sink that folds every pair, returning
/// `(pairs, fold)` without allocating.
fn fold_batch(join: impl FnOnce(&mut dyn FnMut(EntryId, EntryId))) -> (u64, u64) {
    let (mut pairs, mut acc) = (0u64, 0u64);
    join(&mut |q, r| {
        pairs += 1;
        acc = acc
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(((q as u64) << 32 | r as u64) + 1);
    });
    (pairs, acc)
}

/// Run `join` once to warm its scratch state, then again under the
/// counter: the repeat must fold the same pairs and allocate nothing.
fn assert_steady_state_allocates_nothing(name: &str, mut join: impl FnMut() -> (u64, u64)) {
    let warm = join();
    let (allocs, cold) = allocations_during(&mut join);
    assert_eq!(cold, warm, "{name}: non-deterministic join");
    assert_ne!(cold.0, 0, "{name}: join matched nothing — weak test");
    assert_eq!(
        allocs, 0,
        "{name}: {allocs} heap allocations in the steady state"
    );
}

#[test]
fn batch_joins_perform_zero_allocations_for_every_technique() {
    let t = populated_table(3_000, 42);
    let queries: Vec<(EntryId, Rect)> = (0..).zip(query_batch(200, 7)).collect();
    let mut rects = ExtentTable::default();
    for r in query_batch(3_000, 11) {
        rects.push(r);
    }
    let rect_queries: Vec<(EntryId, Rect)> = rects.iter().take(200).collect();

    let mut sweep = PlaneSweepJoin::new();
    assert_steady_state_allocates_nothing("Plane Sweep", || {
        fold_batch(|emit| sweep.join(&t, &queries, emit))
    });
    let mut two_layer = TwoLayerJoin::new();
    assert_steady_state_allocates_nothing("Two-Layer, points", || {
        fold_batch(|emit| two_layer.join(&t, &queries, emit))
    });
    assert_steady_state_allocates_nothing("Two-Layer, rectangles", || {
        fold_batch(|emit| two_layer.join_extents(&rects, &rect_queries, emit))
    });
    assert_steady_state_allocates_nothing("Naive Nested Loop", || {
        fold_batch(|emit| NaiveBatchJoin.join(&t, &queries, emit))
    });
}

/// The index category's probe loop orders each tick's queriers in space
/// before it probes. One shard runs on the calling thread, so a second
/// call over the same order buffer must sort into the room the first
/// left and allocate nothing, for points and for rectangles.
#[test]
fn space_ordered_probe_loop_allocates_nothing_over_a_reused_order_buffer() {
    let space = Rect::space(SIDE);
    let points = populated_table(3_000, 42);
    let mut rects = ExtentTable::default();
    for r in query_batch(3_000, 11) {
        rects.push(r);
    }
    let queriers: Vec<EntryId> = (0..3_000).step_by(2).collect();
    let mut grid = SimpleGrid::tuned(SIDE);
    let mut order = BucketSort::default();
    grid.build(&points);
    assert_steady_state_allocates_nothing("Space-ordered probes, points", || {
        shard_index_query(
            &grid,
            &points,
            &points,
            &queriers,
            &space,
            20.0,
            NonZeroUsize::MIN,
            &mut order,
        )
    });
    grid.build_extents(&rects);
    assert_steady_state_allocates_nothing("Space-ordered probes, rectangles", || {
        shard_index_query(
            &grid,
            &rects,
            &rects,
            &queriers,
            &space,
            0.0,
            NonZeroUsize::MIN,
            &mut order,
        )
    });
}

/// The churn case: after rows die, the auto grid picks fewer cells (7 × 7
/// for 3,000 live rows, 6 × 6 for 2,400) and the replicas land in other
/// buckets, yet the join still fits the room the larger one left.
#[test]
fn two_layer_join_allocates_nothing_when_the_live_count_shrinks() {
    let mut t = populated_table(3_000, 42);
    let queries: Vec<(EntryId, Rect)> = (0..).zip(query_batch(200, 7)).collect();
    let mut two_layer = TwoLayerJoin::new();
    fold_batch(|emit| two_layer.join(&t, &queries, emit));
    for id in (0..3_000).step_by(5) {
        t.remove(id);
    }
    let (allocs, (pairs, _)) =
        allocations_during(|| fold_batch(|emit| two_layer.join(&t, &queries, emit)));
    assert_ne!(pairs, 0, "join matched nothing — weak test");
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations after the live count shrank"
    );
}

/// A tiled build refits every Simple Grid fork each tick. Refitted to the
/// same region and share, a fork rebuilds into the arenas it already
/// has; refitted to a smaller region with fewer cells and back, it does
/// too once each shape has been built.
#[test]
fn refitted_grid_forks_rebuild_without_allocating() {
    let points = populated_table(3_000, 42);
    let mut rects = ExtentTable::default();
    for r in query_batch(3_000, 11) {
        rects.push(r);
    }
    let queries = query_batch(200, 7);
    let mut fork = SimpleGrid::tuned(SIDE).fork();
    let tile = Rect::new(0.0, 0.0, SIDE, SIDE / 2.0);
    let smaller = Rect::new(100.0, 50.0, 400.0, 300.0);
    let mut refit = |region: &Rect, share: f64| {
        fork.fit_tile(region, share);
        fork.build(&points);
        fork.build_extents(&rects);
        // Order-free folds: the directory decides the order of the hits.
        let mut hits = 0u64;
        fork.for_each_intersecting(&rects, &Rect::space(SIDE), &mut |_| hits += 1);
        let mut fold = (0u64, 0u64);
        for (qi, q) in (0u64..).zip(&queries) {
            fork.for_each_in(&points, q, &mut |id| {
                fold.0 += 1;
                fold.1 = fold.1.wrapping_add(qi << 32 | u64::from(id));
            });
        }
        (hits, fold)
    };
    let want = refit(&tile, 0.4);
    assert_eq!(want.0, 3_000, "the fork lost a rectangle");
    let (allocs, got) = allocations_during(|| refit(&tile, 0.4));
    assert_eq!(got, want, "refitting to the same tile moved the join");
    assert_eq!(allocs, 0, "{allocs} allocations refitting to the same tile");
    refit(&smaller, 0.05);
    refit(&tile, 0.4);
    let (allocs, got) = allocations_during(|| (refit(&smaller, 0.05), refit(&tile, 0.4)));
    assert_eq!(got.1, want, "a smaller region and back moved the join");
    assert_eq!(got.0, want, "the smaller region moved the join");
    assert_eq!(
        allocs, 0,
        "{allocs} allocations refitting to a smaller region and back"
    );
}

#[test]
fn the_counter_itself_works() {
    // Guard against the pin silently passing because counting broke.
    let (allocs, v) = allocations_during(|| {
        let mut v = Vec::with_capacity(100);
        v.push(1u64);
        v
    });
    assert!(allocs >= 1, "counter missed an obvious allocation");
    drop(v);
    let (allocs, _) = allocations_during(|| 2 + 2);
    assert_eq!(allocs, 0);
}
