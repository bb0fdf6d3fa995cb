//! The parallel query phase — a first-class execution mode, not a facade.
//!
//! The paper's setting is deliberately single-threaded ("even
//! single-threaded settings", §4); once the implementation is
//! cache-efficient, the remaining headroom is structural. Tsitsigkos &
//! Mamoulis ("Parallel In-Memory Evaluation of Spatial Joins") show
//! partition-parallel joins scale near-linearly on exactly the grid/sweep
//! techniques reproduced here, and the tick model makes the query phase
//! embarrassingly parallel: queries only *read* the index and the base
//! table, and the build/update phases stay sequential, so the previous-tick
//! semantics are untouched.
//!
//! Two *query-sharding* strategies cover the paper's two join categories
//! (DESIGN.md §8):
//!
//! - [`shard_index_query`] — the per-query category: the tick's querier
//!   list is split into `threads` contiguous chunks, each worker probes the
//!   shared (immutable) index for its chunk;
//! - [`shard_batch_join`] — the set-at-a-time category: the tick's query
//!   set is split into strips, each worker runs a full sweep over its strip
//!   on a private fork of the technique ([`BatchJoin::fork`]).
//!
//! A third mode partitions **space** instead of the query list
//! ([`ExecMode::Partitioned`], DESIGN.md §13–14): the data space is tiled
//! ([`crate::tile::TileGrid`]), both relations are replicated into every
//! tile their query region overlaps, and each tile builds its own private
//! index ([`tiled_index_build`]/[`tiled_index_query`]) or runs its own
//! batch join ([`tiled_batch_join`]) — no shared structure at all, the
//! design of Tsitsigkos & Mamoulis. The reference-point rule (emit a pair
//! only in the tile of its intersection's lower-left corner) makes each
//! pair surface exactly once despite the replication.
//!
//! Every phase here is generic over the entry table ([`Shape`]): points
//! and rectangles run the same scheduler, and the shape supplies only its
//! query regions, its reference point and its index/join methods.
//!
//! Tiled execution is scheduled in two levels (the rest of the Tsitsigkos &
//! Mamoulis design): each tile's work list is decomposed into fixed-size
//! **mini-joins** ([`crate::tile::MiniJoin`], [`MINI_JOIN_CHUNK`] queriers
//! each) pushed onto a shared queue, and a pool of
//! `min(workers, chunks)` scoped workers drains the queue through an
//! atomic work-stealing cursor — so a hotspot tile's work spreads over the
//! whole pool instead of bounding the tick on one thread. `@tiles<N>`
//! alone runs one worker per tile over the same queue; `@tiles<N>@par<T>`
//! decouples the grid from the pool ([`Tiling`], [`ExecMode::pooled`]);
//! `@tilesauto` sizes the grid from the live data every build
//! ([`Shape::auto_tile_count`]), re-deciding per tick under churn.
//!
//! All modes merge per-worker `(pairs, checksum)` partials with `+` /
//! `wrapping_add`. The checksum fold ([`crate::driver::fold_pair`]) mixes
//! each pair and then wrapping-adds, so it is commutative and associative —
//! the merge is order-independent by construction, and the parallel result
//! is **bit-identical** to the sequential one for any shard boundaries,
//! thread count, tile count, or mini-join schedule
//! (`tests/parallel_equivalence.rs` proves this four ways for every
//! registry technique).
//!
//! Workers run on [`std::thread::scope`]: no runtime dependency, no
//! detached threads, borrows of the index and table flow straight in.
//! Every thread spawn in the workspace lives in this module, and so does
//! the scheduler's wall-clock sampling (the per-mini-join busy times
//! behind [`crate::driver::TileLoad`]) — the only `Instant::now` sites
//! outside the driver, sanctioned by sj-lint's `instant-outside-driver`
//! rule for the same reason the spawns are: moving the code moves the
//! rule.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::batch::BatchJoin;
use crate::driver::{fold_pair, TileLoad};
use crate::geom::{Point, Rect};
use crate::index::SpatialIndex;
use crate::table::{entry_id, EntryId, PointTable, Shape};
use crate::tile::{
    chunk_mini_joins, replicate_by_extent, MiniJoin, TileGrid, TileReplica, MINI_JOIN_CHUNK,
};

/// The tile-count policy of [`ExecMode::Partitioned`]: a fixed grid, or a
/// grid re-derived from the live data at every build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tiling {
    /// Exactly this many tiles, as `@tiles<N>` / `--tiles N` request.
    Fixed(NonZeroUsize),
    /// Derive the tile count from the live data at build time
    /// ([`Shape::auto_tile_count`]), re-deciding every tick so the grid
    /// tracks churn. Join results are tile-count-invariant (the
    /// reference-point rule), so whatever count the policy picks, the run
    /// stays bit-identical to sequential.
    Auto,
}

impl Tiling {
    /// The tile count for `table`: the fixed count, or the one its shape's
    /// adaptive policy derives.
    pub fn resolve<T: Shape>(self, table: &T, space: &Rect, query_side: f32) -> NonZeroUsize {
        match self {
            Tiling::Fixed(n) => n,
            Tiling::Auto => table.auto_tile_count(space, query_side),
        }
    }
}

impl std::fmt::Display for Tiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tiling::Fixed(n) => write!(f, "{n}"),
            Tiling::Auto => f.write_str("auto"),
        }
    }
}

/// How the driver executes a tick's query phase.
///
/// `Parallel` holds a [`NonZeroUsize`], so a zero-thread configuration is
/// unrepresentable — the old `run_join_parallel(.., threads: usize)` entry
/// point had to `assert!(threads > 0)` at runtime; this type moves that
/// guarantee to compile time. CLI layers reject `--threads 0` while
/// parsing (see `sj-bench`), before an `ExecMode` ever exists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The paper-faithful single-threaded query phase.
    #[default]
    Sequential,
    /// Query phase sharded over `threads` scoped workers. Results are
    /// bit-identical to [`ExecMode::Sequential`] (see module docs).
    Parallel { threads: NonZeroUsize },
    /// Space-partitioned execution over a grid of tiles, each owning a
    /// private index/join fork over its replicated slice of the data
    /// ([`crate::tile`]). Each tile's work is decomposed into mini-joins
    /// drained by a shared worker pool of `workers` threads (`None` sizes
    /// the pool to the tile count — the plain `@tiles<N>` default).
    /// Results are bit-identical to [`ExecMode::Sequential`] (see module
    /// docs); `RunStats::index_bytes` alone is mode-structural — it
    /// reports the summed footprint of the per-tile indexes.
    Partitioned {
        tiles: Tiling,
        workers: Option<NonZeroUsize>,
    },
}

impl ExecMode {
    /// Parallel execution over `threads` workers; `None` if `threads == 0`.
    pub const fn parallel(threads: usize) -> Option<ExecMode> {
        match NonZeroUsize::new(threads) {
            Some(threads) => Some(ExecMode::Parallel { threads }),
            None => None,
        }
    }

    /// Space-partitioned execution over `tiles` tiles with the default
    /// pool (one worker per tile); `None` if `tiles == 0`.
    pub const fn partitioned(tiles: usize) -> Option<ExecMode> {
        match NonZeroUsize::new(tiles) {
            Some(tiles) => Some(ExecMode::Partitioned {
                tiles: Tiling::Fixed(tiles),
                workers: None,
            }),
            None => None,
        }
    }

    /// Space-partitioned execution with a decoupled worker pool
    /// (`@tiles<N>@par<T>`): `tiles` tiles drained by `workers` threads;
    /// `None` if either count is zero.
    pub const fn pooled(tiles: usize, workers: usize) -> Option<ExecMode> {
        match (NonZeroUsize::new(tiles), NonZeroUsize::new(workers)) {
            (Some(tiles), Some(workers)) => Some(ExecMode::Partitioned {
                tiles: Tiling::Fixed(tiles),
                workers: Some(workers),
            }),
            _ => None,
        }
    }

    /// Adaptive space partitioning (`@tilesauto`): the tile count is
    /// re-derived from sampled point density at every build.
    pub const fn adaptive() -> ExecMode {
        ExecMode::Partitioned {
            tiles: Tiling::Auto,
            workers: None,
        }
    }

    /// Adaptive space partitioning with a fixed worker pool
    /// (`@tilesauto@par<T>`); `None` if `workers == 0`.
    pub const fn adaptive_pooled(workers: usize) -> Option<ExecMode> {
        match NonZeroUsize::new(workers) {
            Some(workers) => Some(ExecMode::Partitioned {
                tiles: Tiling::Auto,
                workers: Some(workers),
            }),
            None => None,
        }
    }

    /// Worker count: 1 for [`ExecMode::Sequential`]; for
    /// [`ExecMode::Partitioned`] the pool size, defaulting to one worker
    /// per tile (an adaptive grid with no explicit pool reports 1 — its
    /// tile count only exists at build time).
    pub const fn threads(self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel { threads } => threads.get(),
            ExecMode::Partitioned { tiles, workers } => match (workers, tiles) {
                (Some(w), _) => w.get(),
                (None, Tiling::Fixed(n)) => n.get(),
                (None, Tiling::Auto) => 1,
            },
        }
    }

    /// Whether the query phase runs on multiple workers (either
    /// query-sharded or space-partitioned).
    pub const fn is_parallel(self) -> bool {
        !matches!(self, ExecMode::Sequential)
    }

    /// Whether this is the space-partitioned (tiled) mode.
    pub const fn is_partitioned(self) -> bool {
        matches!(self, ExecMode::Partitioned { .. })
    }

    /// This mode unless it is [`ExecMode::Sequential`], in which case
    /// `fallback` — the precedence rule for layered configuration (a
    /// technique spec's `@par<N>`/`@tiles<N>` modifier over a CLI-wide
    /// `--threads`/`--tiles`).
    pub const fn or(self, fallback: ExecMode) -> ExecMode {
        match self {
            ExecMode::Sequential => fallback,
            chosen => chosen,
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Sequential => f.write_str("sequential"),
            ExecMode::Parallel { threads } => write!(f, "parallel({threads})"),
            ExecMode::Partitioned {
                tiles,
                workers: None,
            } => write!(f, "tiled({tiles})"),
            ExecMode::Partitioned {
                tiles,
                workers: Some(w),
            } => write!(f, "tiled({tiles}x{w})"),
        }
    }
}

/// Split `len` work items into at most `threads` contiguous chunks.
fn chunk_size(len: usize, threads: NonZeroUsize) -> usize {
    len.div_ceil(threads.get()).max(1)
}

/// Worker-pool size for a scheduled tiled phase: the configured pool size
/// (one worker per tile when unset), never more than the number of work
/// items — idle threads are pure spawn cost — and never zero.
fn pool_cap(workers: Option<NonZeroUsize>, tiles: usize, work_items: usize) -> usize {
    workers
        .map_or(tiles, NonZeroUsize::get)
        .min(work_items)
        .max(1)
}

/// Scheduler load accounting shared by the tile pools, surfaced as
/// [`TileLoad`] in `RunStats`. Per-tile busy time is tallied into atomic
/// nanosecond counters as workers drain the queue (several workers may
/// serve one tile concurrently, hence atomics rather than per-worker
/// slots); per-call totals accumulate across ticks so the reported ratios
/// describe the whole run.
#[derive(Debug, Default)]
struct PoolMetrics {
    /// Per-tile busy nanoseconds of the call in flight (reset by `begin`).
    tile_busy: Vec<AtomicU64>,
    /// Running sums over calls: slowest populated tile and mean populated
    /// tile (seconds) — their ratio is the imbalance a tile-per-thread
    /// schedule would suffer.
    sum_max_tile: f64,
    sum_mean_tile: f64,
    /// Running sums over calls: worker busy seconds vs pool capacity
    /// (workers × scheduled wall seconds) — their ratio is occupancy.
    sum_busy: f64,
    sum_cap_wall: f64,
}

impl PoolMetrics {
    /// Start accounting one scheduled call over `tiles` tiles.
    fn begin(&mut self, tiles: usize) {
        self.tile_busy.clear();
        self.tile_busy.resize_with(tiles, AtomicU64::default);
    }

    /// Record `dt` of mini-join work against `tile`.
    fn record(&self, tile: usize, dt: Duration) {
        self.tile_busy[tile].fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Close out one scheduled call: fold the per-tile tallies (their sum
    /// is the pool's busy time) plus the pool's capacity, `workers` ×
    /// `wall`, into the running sums.
    fn finish(&mut self, workers: usize, wall: Duration) {
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut populated = 0u64;
        for t in &self.tile_busy {
            let nanos = t.load(Ordering::Relaxed);
            if nanos > 0 {
                max = max.max(nanos);
                sum += nanos;
                populated += 1;
            }
        }
        if populated > 0 {
            self.sum_max_tile += max as f64 * 1e-9;
            self.sum_mean_tile += sum as f64 / populated as f64 * 1e-9;
        }
        self.sum_busy += sum as f64 * 1e-9;
        self.sum_cap_wall += workers as f64 * wall.as_secs_f64();
    }

    /// The run's accumulated load metrics, or `None` before any populated
    /// scheduled call.
    fn tile_load(&self) -> Option<TileLoad> {
        if self.sum_mean_tile > 0.0 && self.sum_cap_wall > 0.0 {
            Some(TileLoad {
                imbalance: self.sum_max_tile / self.sum_mean_tile,
                occupancy: self.sum_busy / self.sum_cap_wall,
            })
        } else {
            None
        }
    }
}

/// Run `work` on every item on its own scoped thread and merge the
/// `(pairs, checksum)` partials with `+` / `wrapping_add` (see the module
/// docs for why that merge is exact).
fn fork_join<S: Send>(
    items: impl Iterator<Item = S>,
    work: impl Fn(S) -> (u64, u64) + Sync,
) -> (u64, u64) {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        handles
            .into_iter()
            .fold((0u64, 0u64), |(pairs, checksum), h| {
                let (p, c) = h.join().expect("query worker panicked");
                (pairs + p, checksum.wrapping_add(c))
            })
    })
}

/// Drain the mini-join queue `chunks` with one scoped worker per element
/// of `states`: each worker steals the next chunk through an atomic
/// cursor and runs `work` on it with its own state. Per-tile busy time
/// and the pool's capacity go to `metrics`. Both tiled categories run
/// this one scheduler.
fn drain_mini_joins<S: Send>(
    states: impl ExactSizeIterator<Item = S>,
    chunks: &[MiniJoin],
    metrics: &mut PoolMetrics,
    work: impl Fn(&mut S, MiniJoin) -> (u64, u64) + Sync,
) -> (u64, u64) {
    let workers = states.len();
    let cursor = AtomicUsize::new(0);
    let tallies: &PoolMetrics = metrics;
    let wall = Instant::now();
    let delta = fork_join(states, |mut state| {
        let mut pairs = 0u64;
        let mut checksum = 0u64;
        while let Some(&chunk) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let t0 = Instant::now();
            let (p, c) = work(&mut state, chunk);
            tallies.record(chunk.tile, t0.elapsed());
            pairs += p;
            checksum = checksum.wrapping_add(c);
        }
        (pairs, checksum)
    });
    metrics.finish(workers, wall.elapsed());
    delta
}

/// The per-query category's parallel query phase: shard `queriers` into
/// contiguous chunks, probe the shared `index` from each worker, and merge
/// the per-worker partials. Returns `(pairs, checksum)` — the checksum is
/// a delta starting from 0, to be `wrapping_add`ed onto the running total
/// (equivalent to folding every pair into that total directly, because the
/// fold is a commutative wrapping sum).
///
/// `data` is the table the index was built over; `centers` is the table
/// query regions come from. For a self-join they are the same table;
/// for a bipartite R ⋈ S join (`run_bipartite_join`), `centers` is the
/// query relation R and `data` the indexed data relation S.
///
/// Each worker computes its own query regions, exactly like the sequential
/// per-query executor: issuing a query, region arithmetic included, is part
/// of that category's per-query cost.
pub fn shard_index_query<I: SpatialIndex + Sync + ?Sized, T: Shape>(
    index: &I,
    data: &T,
    centers: &T,
    queriers: &[EntryId],
    space: &Rect,
    query_side: f32,
    threads: NonZeroUsize,
) -> (u64, u64) {
    let chunk = chunk_size(queriers.len(), threads);
    fork_join(queriers.chunks(chunk), |shard| {
        let mut pairs = 0u64;
        let mut checksum = 0u64;
        for &q in shard {
            let region = centers.query_region(q, query_side, space);
            // Sink fold, like the sequential executor: no per-query
            // result materialization in any shard.
            data.probe(index, &region, &mut |r| {
                pairs += 1;
                checksum = fold_pair(checksum, q, r);
            });
        }
        (pairs, checksum)
    })
}

/// Reusable per-worker state for [`shard_batch_join`]: a private fork of
/// the technique ([`BatchJoin::fork`]) plus its output buffer. Callers
/// keep the vector alive across ticks, so steady-state parallel joins
/// fork and allocate nothing — mirroring the sequential executor's reused
/// pair buffer, and keeping one-time setup cost out of the timed query
/// phase after the first tick.
pub struct BatchWorker {
    join: Box<dyn BatchJoin + Send>,
    out: Vec<(EntryId, EntryId)>,
}

/// The set-at-a-time category's parallel query phase: partition the tick's
/// query set into contiguous strips and join each independently on its own
/// [`BatchWorker`] (private scratch, shared read-only base table; `workers`
/// grows on demand and is reused across calls). Returns `(pairs, checksum)`
/// with the same delta semantics as [`shard_index_query`]. `queriers` and
/// `data` are the two relation tables of [`Shape::batch_join`] — the
/// same table twice for a self-join.
///
/// Strips partition the query set, so the union of the strip joins is
/// exactly the full join and the commutative checksum merge reproduces the
/// sequential result bit for bit.
pub fn shard_batch_join<J: BatchJoin + ?Sized, T: Shape>(
    join: &J,
    queriers: &T,
    data: &T,
    queries: &[(EntryId, Rect)],
    threads: NonZeroUsize,
    workers: &mut Vec<BatchWorker>,
) -> (u64, u64) {
    let chunk = chunk_size(queries.len(), threads);
    let strips = queries.chunks(chunk);
    while workers.len() < strips.len() {
        // Fork on the spawning thread; each worker owns its instance, so
        // `J` itself needs no `Sync`.
        workers.push(BatchWorker {
            join: join.fork(),
            out: Vec::new(),
        });
    }
    fork_join(strips.zip(workers.iter_mut()), |(strip, worker)| {
        worker.out.clear();
        data.batch_join(&mut *worker.join, queriers, strip, &mut worker.out);
        let mut checksum = 0u64;
        for &(q, r) in &worker.out {
            checksum = fold_pair(checksum, q, r);
        }
        (worker.out.len() as u64, checksum)
    })
}

/// One tile's state for the space-partitioned per-query category: a
/// private fork of the index plus the tick's querier assignment. Under a
/// pooled schedule any worker may probe any tile's fork concurrently with
/// its siblings, which is why [`SpatialIndex::fork`] returns `Sync`
/// trait objects.
struct TileIndexWorker {
    index: Box<dyn SpatialIndex + Send + Sync>,
    queriers: Vec<EntryId>,
}

/// Reusable state of the space-partitioned per-query executor: the tile
/// grid, per-tile data replicas, per-tile index forks, the mini-join
/// queue buffer, and the scheduler's load accounting. Owned by the
/// driver's index executor and kept across ticks, so steady-state tiled
/// execution forks nothing and reuses every buffer — mirroring
/// [`BatchWorker`] reuse in the sharded mode.
#[derive(Default)]
pub struct TileIndexPool<T = PointTable> {
    grid: Option<TileGrid>,
    replicas: Vec<TileReplica<T>>,
    workers: Vec<TileIndexWorker>,
    /// The configured pool size (`@par<T>` of the spec), set at build;
    /// `None` sizes the pool to the tile count.
    pool_workers: Option<NonZeroUsize>,
    /// Mini-join queue, rebuilt each query call into a reused buffer.
    chunks: Vec<MiniJoin>,
    metrics: PoolMetrics,
}

impl<T> TileIndexPool<T> {
    /// Summed [`SpatialIndex::memory_bytes`] of the per-tile indexes, or
    /// `None` if no tiled build ever ran (the run was not partitioned).
    /// Replication makes this mode-structural: it cannot equal the
    /// sequential single-index footprint and is excluded from the
    /// bit-identity contract (DESIGN.md §13).
    pub fn index_bytes(&self) -> Option<usize> {
        self.grid
            .map(|_| self.workers.iter().map(|w| w.index.memory_bytes()).sum())
    }

    /// Accumulated scheduler load metrics (`None` if no tiled query with
    /// populated tiles ran).
    pub fn tile_load(&self) -> Option<TileLoad> {
        self.metrics.tile_load()
    }
}

/// The space-partitioned build phase of the per-query category: tile the
/// space (resolving an adaptive [`Tiling`] from the live data), replicate
/// the table's live rows into the tiles their query region overlaps
/// ([`replicate_by_extent`]), and (re)build every tile's private fork of
/// `proto` over its replica. Builds are stolen tile-at-a-time by a pool of
/// `min(workers, tiles)` scoped threads — a tile build needs `&mut` access
/// to its fork, so tiles (not mini-joins) are the unit here, handed out by
/// the same atomic-cursor discipline as the query phase. Runs inside the
/// timed build phase: partitioning and tile builds are this mode's build
/// cost.
pub fn tiled_index_build<I: SpatialIndex + ?Sized, T: Shape>(
    proto: &I,
    table: &T,
    space: &Rect,
    query_side: f32,
    tiles: Tiling,
    workers: Option<NonZeroUsize>,
    pool: &mut TileIndexPool<T>,
) {
    let grid = TileGrid::new(space, tiles.resolve(table, space, query_side));
    pool.grid = Some(grid);
    pool.pool_workers = workers;
    while pool.workers.len() < grid.tiles() {
        // Fork on the driver thread, first tiled build only.
        pool.workers.push(TileIndexWorker {
            index: proto.fork(),
            queriers: Vec::new(),
        });
    }
    pool.workers.truncate(grid.tiles());
    replicate_by_extent(table, &grid, query_side, &mut pool.replicas);
    let cap = pool_cap(workers, grid.tiles(), grid.tiles());
    // Each build mutates its tile's fork, so the work items carry `&mut`
    // state behind per-tile mutexes: the cursor hands every index to
    // exactly one worker, making each lock uncontended — the mutex proves
    // exclusivity to the borrow checker rather than serializing anything.
    let items: Vec<Mutex<(&mut TileIndexWorker, &TileReplica<T>)>> = pool
        .workers
        .iter_mut()
        .zip(pool.replicas.iter())
        .map(Mutex::new)
        .collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..cap {
            scope.spawn(|| loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(t) else { break };
                let mut guard = item
                    .lock()
                    .expect("each tile is taken by exactly one worker, so no lock is poisoned");
                let (worker, replica) = &mut *guard;
                replica.table.build_index(&mut *worker.index);
            });
        }
    });
}

/// The space-partitioned query phase of the per-query category: assign
/// each querier to every tile its query region overlaps, decompose the
/// per-tile lists into mini-joins ([`chunk_mini_joins`]), and drain the
/// shared queue with a pool of scoped workers — each steals the next chunk
/// via an atomic cursor, probes that tile's private index, and keeps a
/// `(querier, row)` hit only if the candidate's reference point lies in
/// the chunk's tile (the reference-point rule — see [`crate::tile`] for
/// the exactness proof). Emitted rows are translated back to global
/// handles through the replica map, so the folded `(pairs, checksum)`
/// delta is bit-identical to the sequential fold regardless of which
/// worker ran which chunk.
pub fn tiled_index_query<T: Shape>(
    pool: &mut TileIndexPool<T>,
    centers: &T,
    queriers: &[EntryId],
    space: &Rect,
    query_side: f32,
) -> (u64, u64) {
    let grid = pool
        .grid
        .expect("tiled_index_query before tiled_index_build");
    for w in &mut pool.workers {
        w.queriers.clear();
    }
    for &q in queriers {
        for t in grid.cover(&centers.query_region(q, query_side, space)) {
            pool.workers[t].queriers.push(q);
        }
    }
    pool.chunks.clear();
    chunk_mini_joins(
        pool.workers.iter().map(|w| w.queriers.len()),
        MINI_JOIN_CHUNK,
        &mut pool.chunks,
    );
    pool.metrics.begin(grid.tiles());
    let cap = pool_cap(pool.pool_workers, grid.tiles(), pool.chunks.len());
    let workers: &[TileIndexWorker] = &pool.workers;
    let replicas: &[TileReplica<T>] = &pool.replicas;
    drain_mini_joins(
        std::iter::repeat_n((), cap),
        &pool.chunks,
        &mut pool.metrics,
        |_, MiniJoin { tile, start, end }| {
            let worker = &workers[tile];
            let replica = &replicas[tile];
            let (cx, cy) = replica.table.corners();
            let mut pairs = 0u64;
            let mut checksum = 0u64;
            for &q in &worker.queriers[start..end] {
                let region = centers.query_region(q, query_side, space);
                replica.table.probe(&*worker.index, &region, &mut |local| {
                    let l = local as usize;
                    // Reference-point rule: only the tile holding the
                    // candidate's reference point reports it.
                    let p = T::reference_point(&region, Point::new(cx[l], cy[l]));
                    if grid.tile_of(p.x, p.y) == tile {
                        pairs += 1;
                        checksum = fold_pair(checksum, q, replica.to_global[l]);
                    }
                });
            }
            (pairs, checksum)
        },
    )
}

/// One pool worker's state for the space-partitioned batch category: a
/// private fork of the join plus its output buffer. Unlike the index path
/// there is no per-tile mutable state — any worker serves any tile's
/// chunk through its own fork, so the pool holds `cap` workers, not one
/// per tile.
struct TileBatchWorker {
    join: Box<dyn BatchJoin + Send>,
    out: Vec<(EntryId, EntryId)>,
}

/// Reusable state of the space-partitioned batch executor (see
/// [`TileIndexPool`] for the reuse rationale): per-tile replicas and query
/// assignments, the per-worker forks, the mini-join queue buffer, and the
/// scheduler's load accounting.
///
/// Query assignments are stored per tile as `(local index, region)` with
/// the matching global querier id in `tile_qids`: querier ids are opaque
/// to every [`BatchJoin`], so handing it the *local* index lets an emitted
/// `(qi, row)` pair recover its query region (which the reference-point
/// filter needs) with one slice lookup before translating `qi` back to the
/// global id.
#[derive(Default)]
pub struct TileBatchPool<T = PointTable> {
    replicas: Vec<TileReplica<T>>,
    tile_queries: Vec<Vec<(EntryId, Rect)>>,
    tile_qids: Vec<Vec<EntryId>>,
    workers: Vec<TileBatchWorker>,
    chunks: Vec<MiniJoin>,
    metrics: PoolMetrics,
}

impl<T> TileBatchPool<T> {
    /// Accumulated scheduler load metrics (`None` if no tiled join with
    /// populated tiles ran).
    pub fn tile_load(&self) -> Option<TileLoad> {
        self.metrics.tile_load()
    }
}

/// The space-partitioned query phase of the set-at-a-time category: tile
/// the space (resolving an adaptive [`Tiling`] from the live data — per
/// call, i.e. per tick), replicate the data relation's live rows by query
/// region, assign each pre-built query to every tile its region overlaps,
/// decompose the assignments into tile-granular mini-joins (one per
/// populated tile; see the chunking comment in the body for why this
/// category must not split below the tile), and drain the queue with a
/// pool of scoped workers running each chunk's batch join on a private
/// fork ([`BatchJoin::fork`]) over that tile's replica — then keep only
/// the pairs whose reference point lies in the tile (the reference-point
/// rule) and fold them under global handles. Everything — partitioning
/// included — runs inside the timed query phase, consistent with the
/// category's set-at-a-time cost model (per-tick sorting and partitioning
/// are the technique's own cost).
#[allow(clippy::too_many_arguments)] // mirrors shard_batch_join plus the tile geometry
pub fn tiled_batch_join<J: BatchJoin + ?Sized, T: Shape>(
    join: &J,
    queriers: &T,
    data: &T,
    queries: &[(EntryId, Rect)],
    space: &Rect,
    query_side: f32,
    tiles: Tiling,
    workers: Option<NonZeroUsize>,
    pool: &mut TileBatchPool<T>,
) -> (u64, u64) {
    let grid = TileGrid::new(space, tiles.resolve(data, space, query_side));
    replicate_by_extent(data, &grid, query_side, &mut pool.replicas);
    pool.tile_queries.resize_with(grid.tiles(), Vec::new);
    pool.tile_queries.truncate(grid.tiles());
    pool.tile_qids.resize_with(grid.tiles(), Vec::new);
    pool.tile_qids.truncate(grid.tiles());
    for (qs, ids) in pool.tile_queries.iter_mut().zip(&mut pool.tile_qids) {
        qs.clear();
        ids.clear();
    }
    for &(q, region) in queries {
        for t in grid.cover(&region) {
            let local = entry_id(pool.tile_qids[t].len());
            pool.tile_qids[t].push(q);
            pool.tile_queries[t].push((local, region));
        }
    }
    pool.chunks.clear();
    // One mini-join per populated tile — NOT [`MINI_JOIN_CHUNK`]-sized
    // query chunks like the per-query path. A batch join pays a per-call
    // partition/sort of the data side, so sub-tile chunks would re-pay
    // that dominant cost once per chunk (measured 6× on `sweep@tiles1`);
    // this category's load balance comes from oversharding tiles
    // (`@tiles16@par4` gives 16 stealable units to 4 workers) instead.
    // It is also a correctness requirement: the local query indices above
    // are positions in the tile's *full* list, so every chunk starts at 0.
    chunk_mini_joins(
        pool.tile_queries.iter().map(Vec::len),
        usize::MAX,
        &mut pool.chunks,
    );
    let cap = pool_cap(workers, grid.tiles(), pool.chunks.len());
    while pool.workers.len() < cap {
        pool.workers.push(TileBatchWorker {
            join: join.fork(),
            out: Vec::new(),
        });
    }
    pool.metrics.begin(grid.tiles());
    let replicas: &[TileReplica<T>] = &pool.replicas;
    let tile_queries: &[Vec<(EntryId, Rect)>] = &pool.tile_queries;
    let tile_qids: &[Vec<EntryId>] = &pool.tile_qids;
    drain_mini_joins(
        pool.workers.iter_mut().take(cap),
        &pool.chunks,
        &mut pool.metrics,
        |worker, MiniJoin { tile, start, end }| {
            let replica = &replicas[tile];
            let queries = &tile_queries[tile];
            worker.out.clear();
            replica.table.batch_join(
                &mut *worker.join,
                queriers,
                &queries[start..end],
                &mut worker.out,
            );
            let (cx, cy) = replica.table.corners();
            let mut pairs = 0u64;
            let mut checksum = 0u64;
            for &(qi, local) in &worker.out {
                let (qi, l) = (qi as usize, local as usize);
                let p = T::reference_point(&queries[qi].1, Point::new(cx[l], cy[l]));
                if grid.tile_of(p.x, p.y) == tile {
                    pairs += 1;
                    checksum = fold_pair(checksum, tile_qids[tile][qi], replica.to_global[l]);
                }
            }
            (pairs, checksum)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::NaiveBatchJoin;
    use crate::index::ScanIndex;
    use crate::rng::Xoshiro256;
    use crate::table::ExtentTable;

    const SIDE: f32 = 1_000.0;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn fixed(n: usize) -> Tiling {
        Tiling::Fixed(threads(n))
    }

    fn random_table(n: usize, seed: u64) -> PointTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = PointTable::default();
        for _ in 0..n {
            t.push(rng.range_f32(0.0, SIDE), rng.range_f32(0.0, SIDE));
        }
        t
    }

    fn sequential_reference(
        table: &PointTable,
        queriers: &[EntryId],
        space: &Rect,
        query_side: f32,
    ) -> (u64, u64) {
        let idx = ScanIndex::new();
        let mut pairs = 0u64;
        let mut checksum = 0u64;
        for &q in queriers {
            let region = Rect::centered_square(table.point(q), query_side).clipped_to(space);
            idx.for_each_in(table, &region, &mut |r| {
                pairs += 1;
                checksum = fold_pair(checksum, q, r);
            });
        }
        (pairs, checksum)
    }

    #[test]
    fn sharded_index_query_matches_sequential_for_any_thread_count() {
        let table = random_table(500, 9);
        let queriers: Vec<EntryId> = (0..table.len() as EntryId).step_by(3).collect();
        let space = Rect::space(SIDE);
        let expect = sequential_reference(&table, &queriers, &space, 120.0);
        let idx = ScanIndex::new();
        for n in [1, 2, 3, 7, 16, 1000] {
            let got = shard_index_query(&idx, &table, &table, &queriers, &space, 120.0, threads(n));
            assert_eq!(got, expect, "threads = {n}");
        }
    }

    #[test]
    fn sharded_batch_join_matches_sequential_for_any_thread_count() {
        let table = random_table(400, 11);
        let space = Rect::space(SIDE);
        let queries: Vec<(EntryId, Rect)> = (0..table.len() as EntryId)
            .step_by(2)
            .map(|q| {
                (
                    q,
                    Rect::centered_square(table.point(q), 90.0).clipped_to(&space),
                )
            })
            .collect();
        let mut out = Vec::new();
        NaiveBatchJoin.join(&table, &queries, &mut out);
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        // One scratch pool across all thread counts: reuse must not leak
        // state between calls.
        let mut workers = Vec::new();
        for n in [1, 2, 3, 7, 64] {
            let got = shard_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &queries,
                threads(n),
                &mut workers,
            );
            assert_eq!(got, (expect_pairs, expect_checksum), "threads = {n}");
        }
    }

    #[test]
    fn empty_querier_sets_are_fine() {
        let table = random_table(50, 1);
        let space = Rect::space(SIDE);
        let idx = ScanIndex::new();
        assert_eq!(
            shard_index_query(&idx, &table, &table, &[], &space, 50.0, threads(4)),
            (0, 0)
        );
        assert_eq!(
            shard_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &[],
                threads(4),
                &mut Vec::new()
            ),
            (0, 0)
        );
    }

    #[test]
    fn tiled_index_query_matches_sequential_for_any_tile_count() {
        let table = random_table(500, 9);
        let queriers: Vec<EntryId> = (0..table.len() as EntryId).step_by(3).collect();
        let space = Rect::space(SIDE);
        let expect = sequential_reference(&table, &queriers, &space, 120.0);
        for n in [1usize, 2, 3, 5, 7, 16, 100] {
            let mut pool = TileIndexPool::default();
            // Two ticks over one pool: buffer reuse must not leak state.
            for tick in 0..2 {
                tiled_index_build(
                    &ScanIndex::new(),
                    &table,
                    &space,
                    120.0,
                    fixed(n),
                    None,
                    &mut pool,
                );
                let got = tiled_index_query(&mut pool, &table, &queriers, &space, 120.0);
                assert_eq!(got, expect, "tiles = {n}, tick = {tick}");
            }
            assert_eq!(pool.index_bytes(), Some(0), "scan forks own nothing");
        }
    }

    #[test]
    fn pooled_index_query_matches_sequential_for_any_pool_size() {
        // The same join under every (tiles, workers) shape, including
        // pools larger than the queue and heavy oversharding.
        let table = random_table(500, 9);
        let queriers: Vec<EntryId> = (0..table.len() as EntryId).step_by(3).collect();
        let space = Rect::space(SIDE);
        let expect = sequential_reference(&table, &queriers, &space, 120.0);
        for (tiles, workers) in [(1usize, 4usize), (4, 1), (4, 2), (5, 3), (16, 8), (64, 3)] {
            let mut pool = TileIndexPool::default();
            tiled_index_build(
                &ScanIndex::new(),
                &table,
                &space,
                120.0,
                fixed(tiles),
                Some(threads(workers)),
                &mut pool,
            );
            let got = tiled_index_query(&mut pool, &table, &queriers, &space, 120.0);
            assert_eq!(got, expect, "tiles = {tiles}, workers = {workers}");
            let load = pool.tile_load().expect("populated run records load");
            assert!(load.imbalance >= 1.0, "max tile cannot beat the mean");
            assert!(load.occupancy > 0.0 && load.occupancy <= 1.0);
        }
    }

    #[test]
    fn adaptive_tiling_matches_sequential_and_sizes_from_the_data() {
        let table = random_table(500, 9);
        let queriers: Vec<EntryId> = (0..table.len() as EntryId).step_by(3).collect();
        let space = Rect::space(SIDE);
        let expect = sequential_reference(&table, &queriers, &space, 120.0);
        let mut pool = TileIndexPool::default();
        tiled_index_build(
            &ScanIndex::new(),
            &table,
            &space,
            120.0,
            Tiling::Auto,
            Some(threads(2)),
            &mut pool,
        );
        let got = tiled_index_query(&mut pool, &table, &queriers, &space, 120.0);
        assert_eq!(got, expect);
        assert_eq!(
            Tiling::Auto.resolve(&table, &space, 120.0),
            crate::tile::auto_tile_count(&table, &space, 120.0)
        );
    }

    #[test]
    fn tiled_index_query_matches_sequential_with_tombstones() {
        let mut table = random_table(300, 21);
        for id in (0..300).step_by(7) {
            table.remove(id);
        }
        let queriers: Vec<EntryId> = (0..table.len() as EntryId)
            .filter(|&q| table.is_live(q))
            .step_by(2)
            .collect();
        let space = Rect::space(SIDE);
        let expect = sequential_reference(&table, &queriers, &space, 150.0);
        for n in [2usize, 5, 9] {
            let mut pool = TileIndexPool::default();
            tiled_index_build(
                &ScanIndex::new(),
                &table,
                &space,
                150.0,
                fixed(n),
                Some(threads(2)),
                &mut pool,
            );
            let got = tiled_index_query(&mut pool, &table, &queriers, &space, 150.0);
            assert_eq!(got, expect, "tiles = {n}");
        }
    }

    #[test]
    fn tiled_batch_join_matches_sequential_for_any_tile_count() {
        let table = random_table(400, 11);
        let space = Rect::space(SIDE);
        let query_side = 90.0;
        let queries: Vec<(EntryId, Rect)> = (0..table.len() as EntryId)
            .step_by(2)
            .map(|q| {
                (
                    q,
                    Rect::centered_square(table.point(q), query_side).clipped_to(&space),
                )
            })
            .collect();
        let mut out = Vec::new();
        NaiveBatchJoin.join(&table, &queries, &mut out);
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        let mut pool = TileBatchPool::default();
        for n in [1usize, 2, 3, 6, 25, 64] {
            let got = tiled_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &queries,
                &space,
                query_side,
                fixed(n),
                None,
                &mut pool,
            );
            assert_eq!(got, (expect_pairs, expect_checksum), "tiles = {n}");
        }
        // The same pool again under decoupled worker counts and the
        // adaptive policy: reuse across shapes must not leak state.
        for (tiles, workers) in [(4usize, 2usize), (16, 8), (64, 2)] {
            let got = tiled_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &queries,
                &space,
                query_side,
                fixed(tiles),
                Some(threads(workers)),
                &mut pool,
            );
            assert_eq!(
                got,
                (expect_pairs, expect_checksum),
                "tiles = {tiles}, workers = {workers}"
            );
        }
        let got = tiled_batch_join(
            &NaiveBatchJoin,
            &table,
            &table,
            &queries,
            &space,
            query_side,
            Tiling::Auto,
            Some(threads(3)),
            &mut pool,
        );
        assert_eq!(got, (expect_pairs, expect_checksum), "adaptive tiling");
        let load = pool.tile_load().expect("populated joins record load");
        assert!(load.imbalance >= 1.0);
    }

    #[test]
    fn empty_tiled_inputs_are_fine() {
        let table = random_table(50, 1);
        let space = Rect::space(SIDE);
        let mut pool = TileIndexPool::default();
        tiled_index_build(
            &ScanIndex::new(),
            &table,
            &space,
            50.0,
            fixed(4),
            None,
            &mut pool,
        );
        assert_eq!(
            tiled_index_query(&mut pool, &table, &[], &space, 50.0),
            (0, 0)
        );
        assert_eq!(pool.tile_load(), None, "no populated tile, no load");
        assert_eq!(
            tiled_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &[],
                &space,
                50.0,
                fixed(4),
                Some(threads(2)),
                &mut TileBatchPool::default()
            ),
            (0, 0)
        );
        // And an empty table under heavy oversharding.
        let empty = PointTable::default();
        let mut pool = TileIndexPool::default();
        tiled_index_build(
            &ScanIndex::new(),
            &empty,
            &space,
            50.0,
            fixed(16),
            Some(threads(8)),
            &mut pool,
        );
        assert_eq!(
            tiled_index_query(&mut pool, &empty, &[], &space, 50.0),
            (0, 0)
        );
    }

    fn random_extents(n: usize, seed: u64) -> ExtentTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = ExtentTable::default();
        for _ in 0..n {
            let x = rng.range_f32(0.0, SIDE - 60.0);
            let y = rng.range_f32(0.0, SIDE - 60.0);
            let w = rng.range_f32(0.0, 60.0);
            let h = rng.range_f32(0.0, 60.0);
            t.push(Rect::new(x, y, x + w, y + h));
        }
        t
    }

    fn sequential_extent_reference(table: &ExtentTable, queriers: &[EntryId]) -> (u64, u64) {
        let idx = ScanIndex::new();
        let mut pairs = 0u64;
        let mut checksum = 0u64;
        for &q in queriers {
            let region = table.rect(q);
            idx.for_each_intersecting(table, &region, &mut |r| {
                pairs += 1;
                checksum = fold_pair(checksum, q, r);
            });
        }
        (pairs, checksum)
    }

    #[test]
    fn sharded_extent_query_matches_sequential_for_any_thread_count() {
        let mut table = random_extents(400, 17);
        for id in (0..400).step_by(9) {
            table.remove(id);
        }
        let queriers: Vec<EntryId> = (0..table.len() as EntryId)
            .filter(|&q| table.is_live(q))
            .step_by(2)
            .collect();
        let expect = sequential_extent_reference(&table, &queriers);
        assert!(expect.0 > 0, "the fixture must produce intersections");
        let space = Rect::space(SIDE);
        let idx = ScanIndex::new();
        for n in [1, 2, 3, 7, 64] {
            let got = shard_index_query(&idx, &table, &table, &queriers, &space, 0.0, threads(n));
            assert_eq!(got, expect, "threads = {n}");
        }
    }

    #[test]
    fn sharded_extent_batch_join_matches_sequential_for_any_thread_count() {
        let table = random_extents(300, 19);
        let queries: Vec<(EntryId, Rect)> = (0..table.len() as EntryId)
            .step_by(2)
            .map(|q| (q, table.rect(q)))
            .collect();
        let mut out = Vec::new();
        NaiveBatchJoin.join_extents(&table, &queries, &mut out);
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        let mut workers = Vec::new();
        for n in [1, 2, 3, 7, 64] {
            let got = shard_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &queries,
                threads(n),
                &mut workers,
            );
            assert_eq!(got, (expect_pairs, expect_checksum), "threads = {n}");
        }
    }

    #[test]
    fn tiled_extent_query_matches_sequential_for_any_tile_count() {
        let mut table = random_extents(400, 23);
        for id in (0..400).step_by(11) {
            table.remove(id);
        }
        let queriers: Vec<EntryId> = (0..table.len() as EntryId)
            .filter(|&q| table.is_live(q))
            .collect();
        let expect = sequential_extent_reference(&table, &queriers);
        let space = Rect::space(SIDE);
        for n in [1usize, 2, 3, 5, 7, 16, 64] {
            let mut pool = TileIndexPool::default();
            // Two ticks over one pool: buffer reuse must not leak state.
            for tick in 0..2 {
                tiled_index_build(
                    &ScanIndex::new(),
                    &table,
                    &space,
                    0.0,
                    fixed(n),
                    None,
                    &mut pool,
                );
                let got = tiled_index_query(&mut pool, &table, &queriers, &space, 0.0);
                assert_eq!(got, expect, "tiles = {n}, tick = {tick}");
            }
            assert_eq!(pool.index_bytes(), Some(0), "scan forks own nothing");
        }
        // Decoupled pools and the adaptive policy over one reused pool.
        let mut pool = TileIndexPool::default();
        for (tiles, workers) in [(4usize, 2usize), (16, 8), (64, 3)] {
            tiled_index_build(
                &ScanIndex::new(),
                &table,
                &space,
                0.0,
                fixed(tiles),
                Some(threads(workers)),
                &mut pool,
            );
            let got = tiled_index_query(&mut pool, &table, &queriers, &space, 0.0);
            assert_eq!(got, expect, "tiles = {tiles}, workers = {workers}");
        }
        tiled_index_build(
            &ScanIndex::new(),
            &table,
            &space,
            0.0,
            Tiling::Auto,
            None,
            &mut pool,
        );
        assert_eq!(
            tiled_index_query(&mut pool, &table, &queriers, &space, 0.0),
            expect,
            "adaptive tiling"
        );
        let load = pool.tile_load().expect("populated run records load");
        assert!(load.imbalance >= 1.0);
        assert!(load.occupancy > 0.0 && load.occupancy <= 1.0);
    }

    #[test]
    fn tiled_extent_batch_join_matches_sequential_for_any_tile_count() {
        let mut table = random_extents(300, 29);
        for id in (0..300).step_by(13) {
            table.remove(id);
        }
        let queries: Vec<(EntryId, Rect)> = (0..table.len() as EntryId)
            .filter(|&q| table.is_live(q))
            .map(|q| (q, table.rect(q)))
            .collect();
        let mut out = Vec::new();
        NaiveBatchJoin.join_extents(&table, &queries, &mut out);
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        let space = Rect::space(SIDE);
        let mut pool = TileBatchPool::default();
        for n in [1usize, 2, 3, 6, 25, 64] {
            let got = tiled_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &queries,
                &space,
                0.0,
                fixed(n),
                None,
                &mut pool,
            );
            assert_eq!(got, (expect_pairs, expect_checksum), "tiles = {n}");
        }
        for (tiles, workers) in [(4usize, 2usize), (16, 8), (64, 2)] {
            let got = tiled_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &queries,
                &space,
                0.0,
                fixed(tiles),
                Some(threads(workers)),
                &mut pool,
            );
            assert_eq!(
                got,
                (expect_pairs, expect_checksum),
                "tiles = {tiles}, workers = {workers}"
            );
        }
        let got = tiled_batch_join(
            &NaiveBatchJoin,
            &table,
            &table,
            &queries,
            &space,
            0.0,
            Tiling::Auto,
            Some(threads(3)),
            &mut pool,
        );
        assert_eq!(got, (expect_pairs, expect_checksum), "adaptive tiling");
        let load = pool.tile_load().expect("populated joins record load");
        assert!(load.imbalance >= 1.0);
    }

    #[test]
    fn empty_extent_inputs_are_fine() {
        let table = random_extents(50, 1);
        let space = Rect::space(SIDE);
        let idx = ScanIndex::new();
        assert_eq!(
            shard_index_query(&idx, &table, &table, &[], &space, 0.0, threads(4)),
            (0, 0)
        );
        assert_eq!(
            shard_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &[],
                threads(4),
                &mut Vec::new()
            ),
            (0, 0)
        );
        let mut pool = TileIndexPool::default();
        tiled_index_build(&idx, &table, &space, 0.0, fixed(4), None, &mut pool);
        assert_eq!(
            tiled_index_query(&mut pool, &table, &[], &space, 0.0),
            (0, 0)
        );
        assert_eq!(pool.tile_load(), None, "no populated tile, no load");
        assert_eq!(
            tiled_batch_join(
                &NaiveBatchJoin,
                &table,
                &table,
                &[],
                &space,
                0.0,
                fixed(4),
                Some(threads(2)),
                &mut TileBatchPool::default()
            ),
            (0, 0)
        );
        // And an empty extent table under oversharding.
        let empty = ExtentTable::default();
        let mut pool = TileIndexPool::default();
        tiled_index_build(
            &idx,
            &empty,
            &space,
            0.0,
            fixed(16),
            Some(threads(8)),
            &mut pool,
        );
        assert_eq!(
            tiled_index_query(&mut pool, &empty, &[], &space, 0.0),
            (0, 0)
        );
    }

    #[test]
    fn exec_mode_constructors_and_accessors() {
        assert_eq!(ExecMode::parallel(0), None);
        assert_eq!(ExecMode::partitioned(0), None);
        assert_eq!(ExecMode::pooled(0, 2), None);
        assert_eq!(ExecMode::pooled(4, 0), None);
        assert_eq!(ExecMode::adaptive_pooled(0), None);
        let par4 = ExecMode::parallel(4).unwrap();
        assert_eq!(par4.threads(), 4);
        assert!(par4.is_parallel());
        assert!(!par4.is_partitioned());
        let tiles4 = ExecMode::partitioned(4).unwrap();
        assert_eq!(tiles4.threads(), 4, "one worker per tile by default");
        assert!(tiles4.is_parallel());
        assert!(tiles4.is_partitioned());
        assert_ne!(par4, tiles4);
        let pool = ExecMode::pooled(16, 2).unwrap();
        assert_eq!(pool.threads(), 2, "the pool size, not the tile count");
        assert!(pool.is_partitioned());
        assert_ne!(pool, ExecMode::partitioned(16).unwrap());
        assert_eq!(ExecMode::adaptive().threads(), 1);
        assert!(ExecMode::adaptive().is_partitioned());
        assert_eq!(ExecMode::adaptive_pooled(8).unwrap().threads(), 8);
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert!(!ExecMode::Sequential.is_parallel());
        assert!(!ExecMode::Sequential.is_partitioned());
        assert_eq!(ExecMode::default(), ExecMode::Sequential);
        assert_eq!(format!("{par4}"), "parallel(4)");
        assert_eq!(format!("{tiles4}"), "tiled(4)");
        assert_eq!(format!("{pool}"), "tiled(16x2)");
        assert_eq!(format!("{}", ExecMode::adaptive()), "tiled(auto)");
        assert_eq!(
            format!("{}", ExecMode::adaptive_pooled(2).unwrap()),
            "tiled(autox2)"
        );
        assert_eq!(format!("{}", ExecMode::Sequential), "sequential");
    }

    #[test]
    fn or_prefers_the_non_sequential_mode() {
        let par2 = ExecMode::parallel(2).unwrap();
        let par8 = ExecMode::parallel(8).unwrap();
        let tiles4 = ExecMode::partitioned(4).unwrap();
        let pooled = ExecMode::pooled(4, 2).unwrap();
        assert_eq!(ExecMode::Sequential.or(par2), par2);
        assert_eq!(ExecMode::Sequential.or(tiles4), tiles4);
        assert_eq!(par8.or(par2), par8);
        assert_eq!(tiles4.or(par8), tiles4, "a spec's tiles beat CLI threads");
        assert_eq!(par8.or(tiles4), par8);
        assert_eq!(pooled.or(par8), pooled, "a pooled spec beats CLI threads");
        assert_eq!(
            ExecMode::Sequential.or(ExecMode::Sequential),
            ExecMode::Sequential
        );
    }
}
