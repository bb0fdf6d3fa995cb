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
//! (DESIGN.md §8). [`ExecMode::Sequential`] is either one with a single
//! shard, so there is no separate sequential query loop:
//!
//! - [`shard_index_query`] — the per-query category: the tick's querier
//!   list is counting-sorted into space order (by the cell of each query
//!   region's centre on a 64 × 64 lattice), that order is split into
//!   `threads` contiguous chunks, and each worker probes the shared
//!   (immutable) index for its chunk;
//! - [`shard_batch_join`] — the set-at-a-time category: the tick's query
//!   set is split into strips, each worker runs a full join over its strip
//!   on a private fork of the technique ([`BatchJoin::fork`]).
//!
//! Both fold each pair in a sink as it is emitted (DESIGN.md §5).
//!
//! A third mode partitions **space** instead of the query list
//! ([`ExecMode::Partitioned`], DESIGN.md §13–14): the data space is tiled
//! ([`crate::tile::TileGrid`]), each data row is replicated into the tiles
//! its own extent overlaps (a point into its home tile only), each query
//! is sent to every tile its region overlaps, and each tile builds its own
//! private index ([`tiled_index_build`]/[`tiled_index_query`]) or runs its
//! own batch join ([`tiled_batch_join`]) — no shared structure at all, the
//! design of Tsitsigkos & Mamoulis. The reference-point rule (emit a pair
//! only in the tile of its intersection's lower-left corner) makes each
//! pair surface exactly once despite a rectangle's replicas.
//!
//! Every phase here is generic over the entry table ([`Shape`]): points
//! and rectangles run the same scheduler, and the shape supplies only its
//! query regions, whether a tile reports a candidate
//! ([`Shape::tile_reports`]) and its index/join methods.
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
//! The first work item runs on the calling thread, so one shard spawns
//! nothing.
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
use crate::bucket::BucketSort;
use crate::driver::{fold_pair, TileLoad};
use crate::geom::Rect;
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

/// Run `work` on every item and merge the `(pairs, checksum)` partials
/// with `+` / `wrapping_add` (see the module docs for why that merge is
/// exact). The first item runs on the calling thread and every other item
/// on its own scoped thread; a lone item opens no thread scope at all, so
/// the one-shard (sequential) case spawns nothing and allocates nothing.
fn fork_join<S: Send>(
    items: impl Iterator<Item = S>,
    work: impl Fn(S) -> (u64, u64) + Sync,
) -> (u64, u64) {
    let mut items = items.peekable();
    let Some(first) = items.next() else {
        return (0, 0);
    };
    if items.peek().is_none() {
        return work(first);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        handles
            .into_iter()
            .fold(work(first), |(pairs, checksum), h| {
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

/// The lattice [`shard_index_query`] orders each tick's queriers by:
/// 64 × 64 cells over the space.
const PROBE_ORDER_CELLS: NonZeroUsize = NonZeroUsize::new(64 * 64).expect("4,096 is not zero");

/// The per-query category's query phase: put `queriers` in space order,
/// shard that order into contiguous chunks, probe the shared `index` from
/// each worker, and merge the per-worker partials. Returns `(pairs,
/// checksum)` — the checksum is a delta starting from 0, to be
/// `wrapping_add`ed onto the running total (equivalent to folding every
/// pair into that total directly, because the fold is a commutative
/// wrapping sum).
///
/// `data` is the table the index was built over; `centers` is the table
/// query regions come from. For a self-join they are the same table;
/// for a bipartite R ⋈ S join (`run_bipartite_join`), `centers` is the
/// query relation R and `data` the indexed data relation S.
///
/// Space order: `order` counting-sorts the queriers by the cell of their
/// query region's centre on a fixed 64 × 64 lattice over `space`
/// ([`TileGrid::tile_of`] clamps any coordinate into it), so consecutive
/// probes touch nearby index cells and table rows rather than the rows'
/// random positions. The fold does not depend on the order, and callers
/// keep `order` across calls, so a steady-state call allocates nothing.
///
/// Each worker computes its own query regions, exactly like the sequential
/// per-query executor: issuing a query, region arithmetic included, is part
/// of that category's per-query cost, and so is the ordering, which runs on
/// the calling thread before the shards start.
#[allow(clippy::too_many_arguments)] // the probe geometry plus the reused order buffer
pub fn shard_index_query<I: SpatialIndex + Sync + ?Sized, T: Shape>(
    index: &I,
    data: &T,
    centers: &T,
    queriers: &[EntryId],
    space: &Rect,
    query_side: f32,
    threads: NonZeroUsize,
    order: &mut BucketSort,
) -> (u64, u64) {
    let lattice = TileGrid::new(space, PROBE_ORDER_CELLS);
    let cell = |q: EntryId| {
        let r = centers.query_region(q, query_side, space);
        lattice.tile_of(0.5 * (r.x1 + r.x2), 0.5 * (r.y1 + r.y2))
    };
    order.count(lattice.tiles(), queriers.iter().map(|&q| cell(q)));
    for &q in queriers {
        order.place(cell(q), q);
    }
    let queriers = order.ids();
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

/// The set-at-a-time category's sharded query phase: partition the tick's
/// query set into contiguous strips and join each on its own fork of the
/// technique ([`BatchJoin::fork`]: private scratch, shared read-only
/// table), folding every pair in the join's sink. `forks` grows on demand
/// and callers keep it across calls, so steady-state joins fork and
/// allocate nothing. Returns `(pairs, checksum)` with the same delta
/// semantics as [`shard_index_query`]; `data` is the table the queries
/// probe (the data relation S of a bipartite join).
///
/// Strips partition the query set, so the union of the strip joins is
/// exactly the full join and the commutative checksum merge reproduces
/// the one-strip (sequential) result bit for bit.
pub fn shard_batch_join<J: BatchJoin + ?Sized, T: Shape>(
    join: &J,
    data: &T,
    queries: &[(EntryId, Rect)],
    threads: NonZeroUsize,
    forks: &mut Vec<Box<dyn BatchJoin + Send>>,
) -> (u64, u64) {
    let chunk = chunk_size(queries.len(), threads);
    let strips = queries.chunks(chunk);
    while forks.len() < strips.len() {
        // Fork on the calling thread; each strip owns its instance, so
        // `J` itself needs no `Sync`.
        forks.push(join.fork());
    }
    fork_join(strips.zip(forks.iter_mut()), |(strip, fork)| {
        let mut pairs = 0u64;
        let mut checksum = 0u64;
        data.batch_join(&mut **fork, strip, &mut |q, r| {
            pairs += 1;
            checksum = fold_pair(checksum, q, r);
        });
        (pairs, checksum)
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
/// execution forks nothing and reuses every buffer — mirroring the
/// reused forks of the sharded mode.
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
/// the table's live rows into the tiles their own extent overlaps
/// ([`replicate_by_extent`]), fit every tile's private fork of `proto` to
/// its rows ([`SpatialIndex::fit_tile`]), and (re)build it over its
/// replica. Builds are stolen tile-at-a-time by a pool of
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
    // Fork on the driver thread, and only for tiles the pool lacks.
    pool.workers.resize_with(grid.tiles(), || TileIndexWorker {
        index: proto.fork(),
        queriers: Vec::new(),
    });
    replicate_by_extent(table, &grid, &mut pool.replicas);
    let live = table.live_len().max(1) as f64;
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
    // A build emits no pairs, so every partial is (0, 0).
    fork_join(std::iter::repeat_n((), cap), |()| {
        loop {
            let t = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(t) else { break };
            let mut guard = item
                .lock()
                .expect("each tile is taken by exactly one worker, so no lock is poisoned");
            let (worker, replica) = &mut *guard;
            // Fit the fork to the part of its tile its rows occupy.
            let tile = grid.tile_bounds(t);
            let occupied = replica.table.bounds().and_then(|b| b.intersection(&tile));
            let share = replica.table.len() as f64 / live;
            worker.index.fit_tile(&occupied.unwrap_or(tile), share);
            replica.table.build_index(&mut *worker.index);
        }
        (0, 0)
    });
}

/// The space-partitioned query phase of the per-query category: assign
/// each querier to every tile its query region overlaps, decompose the
/// per-tile lists into mini-joins ([`chunk_mini_joins`]), and drain the
/// shared queue with a pool of scoped workers — each steals the next chunk
/// via an atomic cursor, probes that tile's private index, and keeps a
/// `(querier, row)` hit only if the candidate's reference point lies in
/// the chunk's tile ([`Shape::tile_reports`], the reference-point rule —
/// see [`crate::tile`] for the exactness proof; a point always passes).
/// Emitted rows are translated back to global handles through the replica
/// map, so the folded `(pairs, checksum)` delta is bit-identical to the
/// sequential fold regardless of which worker ran which chunk. Unlike
/// [`shard_index_query`], the queriers keep their planned order: each
/// tile's replica is already local to its queriers (DESIGN.md §8).
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
            let mut pairs = 0u64;
            let mut checksum = 0u64;
            for &q in &worker.queriers[start..end] {
                let region = centers.query_region(q, query_side, space);
                replica.table.probe(&*worker.index, &region, &mut |local| {
                    if replica.table.tile_reports(local, &region, &grid, tile) {
                        pairs += 1;
                        checksum = fold_pair(checksum, q, replica.global(local));
                    }
                });
            }
            (pairs, checksum)
        },
    )
}

/// Reusable state of the space-partitioned batch executor (see
/// [`TileIndexPool`] for the reuse rationale): per-tile replicas and query
/// assignments, one fork of the join per pool worker, the mini-join queue
/// buffer, and the scheduler's load accounting. Unlike the index path
/// there is no per-tile mutable state — any worker serves any tile's chunk
/// through its own fork, so the pool holds one fork per worker, not one
/// per tile.
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
    forks: Vec<Box<dyn BatchJoin + Send>>,
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
/// call, i.e. per tick), replicate the data relation's live rows by their
/// own extent, assign each pre-built query to every tile its region overlaps,
/// decompose the assignments into tile-granular mini-joins (one per
/// populated tile; see the chunking comment in the body for why this
/// category must not split below the tile), and drain the queue with a
/// pool of scoped workers running each chunk's batch join on a private
/// fork ([`BatchJoin::fork`]) over that tile's replica. The join's sink
/// keeps only the pairs whose reference point lies in the tile
/// ([`Shape::tile_reports`]) and folds them under global handles. Everything
/// — partitioning included — runs inside the timed query phase,
/// consistent with the category's set-at-a-time cost model (per-tick
/// sorting and partitioning are the technique's own cost).
#[allow(clippy::too_many_arguments)] // mirrors shard_batch_join plus the tile geometry
pub fn tiled_batch_join<J: BatchJoin + ?Sized, T: Shape>(
    join: &J,
    data: &T,
    queries: &[(EntryId, Rect)],
    space: &Rect,
    query_side: f32,
    tiles: Tiling,
    workers: Option<NonZeroUsize>,
    pool: &mut TileBatchPool<T>,
) -> (u64, u64) {
    let grid = TileGrid::new(space, tiles.resolve(data, space, query_side));
    replicate_by_extent(data, &grid, &mut pool.replicas);
    pool.tile_queries.resize_with(grid.tiles(), Vec::new);
    pool.tile_qids.resize_with(grid.tiles(), Vec::new);
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
    while pool.forks.len() < cap {
        pool.forks.push(join.fork());
    }
    pool.metrics.begin(grid.tiles());
    let replicas: &[TileReplica<T>] = &pool.replicas;
    let tile_queries: &[Vec<(EntryId, Rect)>] = &pool.tile_queries;
    let tile_qids: &[Vec<EntryId>] = &pool.tile_qids;
    drain_mini_joins(
        pool.forks.iter_mut().take(cap),
        &pool.chunks,
        &mut pool.metrics,
        |fork, MiniJoin { tile, start, end }| {
            let replica = &replicas[tile];
            let queries = &tile_queries[tile];
            let mut pairs = 0u64;
            let mut checksum = 0u64;
            replica
                .table
                .batch_join(&mut ***fork, &queries[start..end], &mut |qi, local| {
                    let qi = qi as usize;
                    if replica
                        .table
                        .tile_reports(local, &queries[qi].1, &grid, tile)
                    {
                        pairs += 1;
                        checksum = fold_pair(checksum, tile_qids[tile][qi], replica.global(local));
                    }
                });
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

    /// The side of one cell of the ordering lattice over `SIDE`.
    const CELL: f32 = SIDE / 64.0;

    /// Whether one bucket of `order` holds all `n` ids it was last given.
    fn one_bucket_holds(order: &BucketSort, n: usize) -> bool {
        (0..PROBE_ORDER_CELLS.get()).any(|b| order.slots(b..=b).len() == n)
    }

    /// Point inputs the space-order key must survive, as `(case, table,
    /// queriers, space, query_side)`.
    fn point_order_cases() -> Vec<(&'static str, PointTable, Vec<EntryId>, Rect, f32)> {
        let space = Rect::space(SIDE);
        // Rows on every edge of the lattice, the space's own edges included.
        let mut edges = random_table(200, 31);
        let first = edges.len() as EntryId;
        for i in 0..=64 {
            let e = i as f32 * CELL;
            edges.push(e, e);
            edges.push(e, SIDE - e);
        }
        let on_edges = (first..edges.len() as EntryId).collect();
        // Corner rows, whose regions reach furthest past the space.
        let mut table = random_table(300, 33);
        for (x, y) in [(0.0, 0.0), (SIDE, 0.0), (0.0, SIDE), (SIDE, SIDE)] {
            table.push(x, y);
        }
        let all: Vec<EntryId> = (0..table.len() as EntryId).collect();
        // In a zero-width space every region clips to the origin, whose key
        // divides 0 by 0; half the rows sit there.
        let mut origin = PointTable::default();
        for i in 0..60 {
            let d = (i % 2) as f32 * i as f32;
            origin.push(d, 0.5 * d);
        }
        vec![
            ("lattice edges", edges, on_edges, space, 120.0),
            (
                "regions past the space",
                table.clone(),
                all,
                space,
                0.6 * SIDE,
            ),
            (
                "zero-width space",
                origin,
                (0..60).collect(),
                Rect::space(0.0),
                120.0,
            ),
            (
                "repeated querier",
                table.clone(),
                vec![7, 7, 302, 7, 302],
                space,
                120.0,
            ),
            ("no querier", table.clone(), Vec::new(), space, 120.0),
            ("one querier", table, vec![301], space, 120.0),
        ]
    }

    #[test]
    fn sharded_index_query_matches_sequential_for_any_thread_count() {
        let table = random_table(500, 9);
        let queriers: Vec<EntryId> = (0..table.len() as EntryId).step_by(3).collect();
        let space = Rect::space(SIDE);
        let expect = sequential_reference(&table, &queriers, &space, 120.0);
        let idx = ScanIndex::new();
        // One order buffer for every call: reuse must not leak state.
        let mut order = BucketSort::default();
        for n in [1, 2, 3, 7, 16, 1000] {
            let got = shard_index_query(
                &idx,
                &table,
                &table,
                &queriers,
                &space,
                120.0,
                threads(n),
                &mut order,
            );
            assert_eq!(got, expect, "threads = {n}");
        }
        for (case, table, queriers, space, side) in point_order_cases() {
            let expect = sequential_reference(&table, &queriers, &space, side);
            for n in [1, 2, 3, 7] {
                let got = shard_index_query(
                    &idx,
                    &table,
                    &table,
                    &queriers,
                    &space,
                    side,
                    threads(n),
                    &mut order,
                );
                assert_eq!(got, expect, "{case}, threads = {n}");
            }
            if case == "zero-width space" {
                assert!(expect.0 > 0, "the origin rows must meet");
                assert!(one_bucket_holds(&order, queriers.len()));
            }
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
        NaiveBatchJoin.join(&table, &queries, &mut |q, r| out.push((q, r)));
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        // One scratch pool across all thread counts: reuse must not leak
        // state between calls.
        let mut forks = Vec::new();
        for n in [1, 2, 3, 7, 64] {
            let got = shard_batch_join(&NaiveBatchJoin, &table, &queries, threads(n), &mut forks);
            assert_eq!(got, (expect_pairs, expect_checksum), "threads = {n}");
        }
    }

    #[test]
    fn empty_querier_sets_are_fine() {
        let table = random_table(50, 1);
        let space = Rect::space(SIDE);
        let idx = ScanIndex::new();
        assert_eq!(
            shard_index_query(
                &idx,
                &table,
                &table,
                &[],
                &space,
                50.0,
                threads(4),
                &mut BucketSort::default()
            ),
            (0, 0)
        );
        assert_eq!(
            shard_batch_join(&NaiveBatchJoin, &table, &[], threads(4), &mut Vec::new()),
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
        NaiveBatchJoin.join(&table, &queries, &mut |q, r| out.push((q, r)));
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        let mut pool = TileBatchPool::default();
        for n in [1usize, 2, 3, 6, 25, 64] {
            let got = tiled_batch_join(
                &NaiveBatchJoin,
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
        let mut order = BucketSort::default();
        for n in [1, 2, 3, 7, 64] {
            let got = shard_index_query(
                &idx,
                &table,
                &table,
                &queriers,
                &space,
                0.0,
                threads(n),
                &mut order,
            );
            assert_eq!(got, expect, "threads = {n}");
        }
        for (case, table, queriers, space) in extent_order_cases() {
            let expect = sequential_extent_reference(&table, &queriers);
            for n in [1, 2, 3, 7] {
                let got = shard_index_query(
                    &idx,
                    &table,
                    &table,
                    &queriers,
                    &space,
                    0.0,
                    threads(n),
                    &mut order,
                );
                assert_eq!(got, expect, "{case}, threads = {n}");
            }
            if case == "zero-width space" {
                assert!(one_bucket_holds(&order, queriers.len()));
            }
        }
    }

    /// Rectangle inputs the space-order key must survive, as `(case,
    /// table, queriers, space)`. A rectangle's query region is its own
    /// extent, unclipped, so its centre can lie anywhere.
    fn extent_order_cases() -> Vec<(&'static str, ExtentTable, Vec<EntryId>, Rect)> {
        let space = Rect::space(SIDE);
        // Centres on every lattice vertex and every lattice edge line.
        let mut edges = random_extents(200, 37);
        for i in 0..=64 {
            let e = i as f32 * CELL;
            edges.push(Rect::new(e - CELL, e - CELL, e + CELL, e + CELL));
            edges.push(Rect::new(e, 0.0, e, SIDE));
            edges.push(Rect::new(0.0, e, SIDE, e));
        }
        let edge_rows = (0..edges.len() as EntryId).collect();
        // Regions past the space on every side, around it, far beyond it,
        // and with centres at -inf and +inf (their corner sums overflow).
        let mut past = random_extents(300, 41);
        for r in [
            Rect::new(-200.0, -200.0, -100.0, -50.0),
            Rect::new(900.0, 950.0, 1_300.0, 1_400.0),
            Rect::new(-100.0, 400.0, 50.0, 600.0),
            Rect::new(-500.0, -500.0, 1_500.0, 1_500.0),
            Rect::new(0.5 * SIDE, 0.5 * SIDE, f32::MAX, f32::MAX),
            Rect::new(f32::MAX, f32::MAX, f32::MAX, f32::MAX),
            Rect::new(-f32::MAX, -f32::MAX, -f32::MAX, -f32::MAX),
        ] {
            past.push(r);
        }
        let past_rows = (0..past.len() as EntryId).collect();
        let table = random_extents(300, 43);
        vec![
            ("lattice edges", edges, edge_rows, space),
            ("regions past the space", past, past_rows, space),
            // Every centre lies right of and above a zero-width space, so
            // every key divides a positive offset by 0 into the last cell.
            (
                "zero-width space",
                table.clone(),
                (0..300).collect(),
                Rect::space(0.0),
            ),
            (
                "repeated querier",
                table.clone(),
                vec![5, 5, 299, 5, 299],
                space,
            ),
            ("no querier", table.clone(), Vec::new(), space),
            ("one querier", table, vec![150], space),
        ]
    }

    #[test]
    fn sharded_extent_batch_join_matches_sequential_for_any_thread_count() {
        let table = random_extents(300, 19);
        let queries: Vec<(EntryId, Rect)> = (0..table.len() as EntryId)
            .step_by(2)
            .map(|q| (q, table.rect(q)))
            .collect();
        let mut out = Vec::new();
        NaiveBatchJoin.join_extents(&table, &queries, &mut |q, r| out.push((q, r)));
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        let mut forks = Vec::new();
        for n in [1, 2, 3, 7, 64] {
            let got = shard_batch_join(&NaiveBatchJoin, &table, &queries, threads(n), &mut forks);
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
        NaiveBatchJoin.join_extents(&table, &queries, &mut |q, r| out.push((q, r)));
        let expect_pairs = out.len() as u64;
        let expect_checksum = out.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
        let space = Rect::space(SIDE);
        let mut pool = TileBatchPool::default();
        for n in [1usize, 2, 3, 6, 25, 64] {
            let got = tiled_batch_join(
                &NaiveBatchJoin,
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
            shard_index_query(
                &idx,
                &table,
                &table,
                &[],
                &space,
                0.0,
                threads(4),
                &mut BucketSort::default()
            ),
            (0, 0)
        );
        assert_eq!(
            shard_batch_join(&NaiveBatchJoin, &table, &[], threads(4), &mut Vec::new()),
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
