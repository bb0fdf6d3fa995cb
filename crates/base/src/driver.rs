//! The iterated spatial-join driver.
//!
//! Reproduces the tick model of the Sowell et al. framework (paper §2.1):
//! processing advances in discrete ticks, each consisting of a query phase
//! followed by a non-overlapping update phase. Objects read the state of
//! other objects *as of the previous tick* — guaranteed here by (re)building
//! the static index before any of this tick's updates are applied.
//!
//! Per tick the driver measures three phases, matching Table 2's columns:
//! 1. **Build** — rebuild the static index from the base table,
//! 2. **Query** — every querier runs one range query; the join result is
//!    the set of (querier, matching object) pairs,
//! 3. **Update** — velocity updates and population churn (departures as
//!    tombstones, arrivals appended) are applied to the base data and all
//!    surviving objects advance one step of movement.
//!
//! ## Self-joins and bipartite joins
//!
//! The paper only ever joins a moving set with itself (the queriers are a
//! subset of the indexed population). The driver additionally supports the
//! canonical two-dataset setting of the related work (Tsitsigkos &
//! Mamoulis, *Parallel In-Memory Evaluation of Spatial Joins*): a
//! **bipartite** join R ⋈ S over two independent moving sets, where the
//! *query relation* R issues one range query per live row, centred on its
//! own position, against an index built over the *data relation* S. Each
//! relation is driven by its own [`Workload`] (velocity updates and
//! population churn included) and the checksum folds `(r_querier,
//! s_result)` pairs exactly as in the self-join — which is the degenerate
//! case R = S, running through the identical code path with identical
//! statistics (DESIGN.md §10). Entry points: [`run_bipartite_join`] /
//! [`run_bipartite_batch_join`].
//!
//! ## Points and rectangles
//!
//! The tick loop and both executors are generic over the entry table
//! ([`Shape`]), so the intersection self-join over moving rectangles
//! ([`run_intersect_join`] / [`run_intersect_batch_join`]) runs the same
//! code as the point joins; only the shape's query regions and
//! index/join methods differ (DESIGN.md §15).

use std::time::{Duration, Instant};

use crate::geom::{Point, Rect, Vec2};
use crate::index::SpatialIndex;
use crate::par::{self, ExecMode};
use crate::rng::mix64;
use crate::stats::Summary;
use crate::table::{EntryId, ExtentTable, MovingExtentSet, MovingSet, PointTable, Shape};

/// What a workload wants to happen in one tick: who queries, which objects
/// receive which new velocities, and — for workloads with population churn
/// — which objects depart and which new ones arrive. `G` is the geometry
/// of an arrival: a [`Point`] here, a [`Rect`] in [`ExtentTickActions`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickActions<G = Point> {
    pub queriers: Vec<EntryId>,
    /// `(object, new_vx, new_vy)` — applied to the base data at the end of
    /// the tick, i.e. after all queries ran.
    pub velocity_updates: Vec<(EntryId, f32, f32)>,
    /// Objects leaving the population this tick. Applied in the timed
    /// update phase as a tombstone ([`MovingSet::remove`]): surviving
    /// [`EntryId`]s never shift, so checksums stay comparable across
    /// techniques and runs (DESIGN.md §9).
    pub removals: Vec<EntryId>,
    /// `(geometry, velocity)` of objects entering the population this
    /// tick. Applied in the timed update phase *after* movement, so an
    /// arrival first becomes visible — at exactly its spawn geometry — to
    /// the next tick's build/query phases.
    pub inserts: Vec<(G, Vec2)>,
}

/// What an extent workload wants to happen in one tick: [`TickActions`]
/// whose arrivals carry a full rectangle.
pub type ExtentTickActions = TickActions<Rect>;

impl<G> TickActions<G> {
    pub fn clear(&mut self) {
        self.queriers.clear();
        self.velocity_updates.clear();
        self.removals.clear();
        self.inserts.clear();
    }
}

impl TickActions {
    /// Apply this plan to `set` in the driver's canonical update-phase
    /// order: velocity updates, then departures (tombstones), then one
    /// step of movement via `workload`'s model, then arrivals (appended
    /// after movement so a new object first becomes visible at exactly
    /// its spawn position). The trace recorder and replay harnesses call
    /// this too — the order is load-bearing for replayed checksums, so
    /// the extent form below repeats it step for step.
    pub fn apply<W: Workload + ?Sized>(&self, set: &mut MovingSet, workload: &mut W) {
        for &(id, vx, vy) in &self.velocity_updates {
            set.set_velocity(id, Vec2::new(vx, vy));
        }
        for &id in &self.removals {
            set.remove(id);
        }
        workload.advance(set);
        for &(p, v) in &self.inserts {
            set.push(p, v);
        }
    }
}

impl ExtentTickActions {
    /// [`TickActions::apply`] for a moving-rectangle set, in the same
    /// order.
    pub fn apply<W: ExtentWorkload + ?Sized>(&self, set: &mut MovingExtentSet, workload: &mut W) {
        for &(id, vx, vy) in &self.velocity_updates {
            set.set_velocity(id, Vec2::new(vx, vy));
        }
        for &id in &self.removals {
            set.remove(id);
        }
        workload.advance(set);
        for &(r, v) in &self.inserts {
            set.push(r, v);
        }
    }
}

/// A moving-object workload: initial population plus the per-tick action
/// plan and movement model. Implementations live in `sj-workload`; they are
/// deterministic functions of their seed so every technique observes the
/// identical object trajectories and query sets.
pub trait Workload {
    /// The data space `[0, side]²` every object stays inside.
    fn space(&self) -> Rect;

    /// Side length of the square range queries (Table 1 "Query Size").
    fn query_side(&self) -> f32;

    /// Create the initial object population.
    fn init(&mut self) -> MovingSet;

    /// Decide this tick's queriers, velocity updates, and (for churn
    /// workloads) departures/arrivals. Must not mutate `set`; the driver
    /// applies the plan itself so the application cost is measured in the
    /// update phase, not hidden in the workload. Planned queriers must be
    /// live rows — a tombstone cannot issue a query.
    fn plan_tick(&mut self, tick: u32, set: &MovingSet, actions: &mut TickActions);

    /// Advance all objects one tick of movement (after updates applied).
    /// The default is linear motion bouncing off the space boundary; the
    /// Gaussian workload overrides it with hotspot-attracted motion.
    fn advance(&mut self, set: &mut MovingSet) {
        let space = self.space();
        set.advance_bouncing(&space);
    }
}

/// A moving-rectangle workload — the `intersects` counterpart of
/// [`Workload`]. There is no `query_side`: in the intersection self-join a
/// querier's query region *is* its own rectangle, so the geometry travels
/// with the data.
pub trait ExtentWorkload {
    /// The data space every rectangle stays inside.
    fn space(&self) -> Rect;

    /// Create the initial object population.
    fn init(&mut self) -> MovingExtentSet;

    /// Decide this tick's queriers, velocity updates, and churn. Must not
    /// mutate `set` (the driver applies the plan in the timed update
    /// phase); planned queriers must be live rows.
    fn plan_tick(&mut self, tick: u32, set: &MovingExtentSet, actions: &mut ExtentTickActions);

    /// Advance all objects one tick of movement (after updates applied).
    /// The default is linear motion with the rectangle bouncing off the
    /// space boundary, size preserved.
    fn advance(&mut self, set: &mut MovingExtentSet) {
        let space = self.space();
        set.advance_bouncing(&space);
    }
}

/// A workload as the tick loop drives it, over tables of shape `T`. The
/// two public workload traits stay apart — an extent workload has no
/// `query_side` and its sets carry rectangles — and meet the one loop
/// through this view, implemented once for each of them.
trait Relation<T: Shape> {
    type Set;
    fn space(&self) -> Rect;
    fn query_side(&self) -> f32;
    fn init(&mut self) -> Self::Set;
    fn table(set: &Self::Set) -> &T;
    fn plan_tick(&mut self, tick: u32, set: &Self::Set, actions: &mut TickActions<T::Row>);
    fn apply(&mut self, actions: &TickActions<T::Row>, set: &mut Self::Set);
}

impl<W: Workload + ?Sized> Relation<PointTable> for W {
    type Set = MovingSet;
    fn space(&self) -> Rect {
        Workload::space(self)
    }
    fn query_side(&self) -> f32 {
        Workload::query_side(self)
    }
    fn init(&mut self) -> MovingSet {
        Workload::init(self)
    }
    fn table(set: &MovingSet) -> &PointTable {
        &set.positions
    }
    fn plan_tick(&mut self, tick: u32, set: &MovingSet, actions: &mut TickActions) {
        Workload::plan_tick(self, tick, set, actions);
    }
    fn apply(&mut self, actions: &TickActions, set: &mut MovingSet) {
        actions.apply(set, self);
    }
}

impl<W: ExtentWorkload + ?Sized> Relation<ExtentTable> for W {
    type Set = MovingExtentSet;
    fn space(&self) -> Rect {
        ExtentWorkload::space(self)
    }
    /// Unused: a rectangle's query region is its own extent.
    fn query_side(&self) -> f32 {
        0.0
    }
    fn init(&mut self) -> MovingExtentSet {
        ExtentWorkload::init(self)
    }
    fn table(set: &MovingExtentSet) -> &ExtentTable {
        &set.extents
    }
    fn plan_tick(&mut self, tick: u32, set: &MovingExtentSet, actions: &mut ExtentTickActions) {
        ExtentWorkload::plan_tick(self, tick, set, actions);
    }
    fn apply(&mut self, actions: &ExtentTickActions, set: &mut MovingExtentSet) {
        actions.apply(set, self);
    }
}

/// Wall-clock time of one tick, split by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickTimes {
    pub build: Duration,
    pub query: Duration,
    pub update: Duration,
}

impl TickTimes {
    pub fn total(&self) -> Duration {
        self.build + self.query + self.update
    }
}

/// Result of driving one technique through a workload.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    pub ticks: Vec<TickTimes>,
    /// Total number of (querier, result) join pairs over the run.
    pub result_pairs: u64,
    /// Order-independent checksum of all join pairs. Identical across
    /// techniques iff they produced identical joins; also defeats
    /// dead-code elimination of the query results.
    pub checksum: u64,
    /// Total queries issued over the run.
    pub queries: u64,
    /// Total velocity updates applied over the run.
    pub updates: u64,
    /// Total objects removed (tombstoned) over the run.
    pub removals: u64,
    /// Total objects inserted over the run.
    pub inserts: u64,
    /// Index memory after the final build, in bytes.
    pub index_bytes: usize,
    /// Mini-join scheduler load metrics, populated only by
    /// [`ExecMode::Partitioned`] runs whose scheduled phases saw work.
    pub tile_load: Option<TileLoad>,
}

impl RunStats {
    fn seconds<F: Fn(&TickTimes) -> Duration>(&self, f: F) -> Vec<f64> {
        self.ticks.iter().map(|t| f(t).as_secs_f64()).collect()
    }

    /// Mean of `f` over the measured ticks — **defined as `0.0` for a run
    /// with no measured ticks** (a `ticks: 0`, warmup-only configuration).
    /// [`Summary::of`] already yields a zero mean for empty input; the
    /// explicit early return pins that contract *here*, where the JSON
    /// reporter depends on it (it asserts every emitted number is finite),
    /// independent of how `Summary` might treat empty samples in the
    /// future.
    fn avg_seconds<F: Fn(&TickTimes) -> Duration>(&self, f: F) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        Summary::of(&self.seconds(f)).mean
    }

    /// The paper's headline metric: average wall-clock time per tick
    /// (0.0 when no ticks were measured).
    pub fn avg_tick_seconds(&self) -> f64 {
        self.avg_seconds(TickTimes::total)
    }

    pub fn avg_build_seconds(&self) -> f64 {
        self.avg_seconds(|t| t.build)
    }

    pub fn avg_query_seconds(&self) -> f64 {
        self.avg_seconds(|t| t.query)
    }

    pub fn avg_update_seconds(&self) -> f64 {
        self.avg_seconds(|t| t.update)
    }

    /// Summary over the measured ticks; all-zero (n = 0) for a
    /// warmup-only run, matching the `avg_*` accessors.
    pub fn tick_summary(&self) -> Summary {
        Summary::of(&self.seconds(TickTimes::total))
    }
}

/// Load-balance metrics of the mini-join scheduler behind
/// [`ExecMode::Partitioned`], accumulated over the run's scheduled phases
/// (see `PoolMetrics` in [`crate::par`]). Like `index_bytes`, these are
/// mode-structural observations, not part of the bit-identity contract —
/// they are wall-clock ratios and vary run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TileLoad {
    /// Slowest populated tile's busy time ÷ mean populated-tile busy time:
    /// the slowdown a tile-per-thread schedule would suffer from the
    /// hotspot (1.0 = perfectly balanced tiles).
    pub imbalance: f64,
    /// Fraction of pool capacity (workers × scheduled wall time) spent
    /// doing join work (1.0 = no worker ever idled).
    pub occupancy: f64,
}

/// Fold one join pair into an order-independent checksum: mix the pair to
/// decorrelate, then wrapping-add so result order cannot matter.
#[inline]
pub fn fold_pair(checksum: u64, querier: EntryId, result: EntryId) -> u64 {
    checksum.wrapping_add(mix64(((querier as u64) << 32) | result as u64))
}

/// Configuration of a driver run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverConfig {
    /// Number of ticks to execute (Table 1 "Number of Ticks").
    pub ticks: u32,
    /// Warm-up ticks executed but excluded from statistics (the original
    /// framework also discards cold-start effects). Warm-up accounting is
    /// identical in both execution modes: the phase runs, its results are
    /// discarded.
    pub warmup: u32,
    /// How the query phase executes ([`ExecMode::Sequential`] by default).
    /// Build and update phases are always sequential — parallelism never
    /// touches the previous-tick semantics (see [`crate::par`]).
    pub exec: ExecMode,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ticks: 100,
            warmup: 2,
            exec: ExecMode::Sequential,
        }
    }
}

impl DriverConfig {
    /// A sequential run of `ticks` measured ticks after `warmup` discarded
    /// ones.
    pub const fn new(ticks: u32, warmup: u32) -> DriverConfig {
        DriverConfig {
            ticks,
            warmup,
            exec: ExecMode::Sequential,
        }
    }

    /// The same run under a different execution mode.
    pub const fn with_exec(mut self, exec: ExecMode) -> DriverConfig {
        self.exec = exec;
        self
    }
}

/// The per-category hooks of the shared tick loop in [`drive`]. Exactly two
/// implementations exist — the per-query index executor behind [`run_join`]
/// and the set-at-a-time executor behind [`run_batch_join`] — so the two
/// join categories run the *identical* loop (warmup accounting, phase
/// boundaries, update application) and differ only where the paper's
/// taxonomy says they must. Both are generic over the entry table, so both
/// entry shapes run them too.
trait TickExecutor<T: Shape> {
    /// Timed build phase (a no-op by default: index-free batch
    /// techniques have none). Under [`ExecMode::Partitioned`] the
    /// per-query executor partitions the table into tile replicas and
    /// builds one private index per tile here — partitioning is this
    /// mode's build cost — which is why the tick geometry (`space`,
    /// `query_side`) and the mode flow in.
    fn build(&mut self, _table: &T, _space: &Rect, _query_side: f32, _exec: ExecMode) {}

    /// Untimed per-tick bookkeeping before the query phase. Only the batch
    /// executor uses it, to assemble the tick's query set — set-at-a-time
    /// techniques receive their queries pre-built, as in the original
    /// framework. The per-query executor computes each region *inside* the
    /// timed phase: issuing a query, region arithmetic included, is part of
    /// that category's per-query cost (unchanged from the pre-unification
    /// driver).
    fn prepare(&mut self, _tick: &TickCtx<'_, T>) {}

    /// Timed query phase: run every query of the tick and return its
    /// `(pairs, checksum)` delta, each pair folded via [`fold_pair`] from
    /// 0 — no per-query result materialization. The loop adds the delta to
    /// the running checksum with `wrapping_add`, which equals folding every
    /// pair into it directly because the fold is a commutative wrapping
    /// sum. Under [`ExecMode::Parallel`] the executor shards the phase
    /// through [`crate::par`]; both categories merge per-worker partials
    /// the same way, so the totals are bit-identical to the sequential
    /// mode.
    fn query(&mut self, tick: &TickCtx<'_, T>, exec: ExecMode) -> (u64, u64);

    /// Index memory after the final build (0 for batch techniques).
    fn index_bytes(&self) -> usize;

    /// Accumulated mini-join scheduler load metrics (`None` unless the run
    /// was partitioned and its scheduled phases saw work).
    fn tile_load(&self) -> Option<TileLoad>;
}

/// One tick's query-phase inputs, as seen by a [`TickExecutor`]: the
/// relation tables as of the previous tick, this tick's queriers, and the
/// query geometry. `data` is the table indexes build over and joins probe
/// (the data relation S); `centers` is the table query regions come from
/// (the query relation R). In a self-join both reference the same table;
/// the executors never assume that.
struct TickCtx<'a, T> {
    data: &'a T,
    centers: &'a T,
    queriers: &'a [EntryId],
    space: &'a Rect,
    query_side: f32,
}

/// The single tick loop both join categories, both join shapes and both
/// entry shapes run (see [`TickExecutor`]). `data_workload` drives the
/// data relation S; `query_rel`, when present, drives an independent query
/// relation R (bipartite mode). When `query_rel` is `None` the loop is
/// exactly the self-join of the paper: S plans its own queriers and probes
/// itself.
fn drive<T, W, Q, E>(
    data_workload: &mut W,
    mut query_rel: Option<&mut Q>,
    exec: &mut E,
    cfg: DriverConfig,
) -> RunStats
where
    T: Shape,
    W: Relation<T> + ?Sized,
    Q: Relation<T, Set = W::Set> + ?Sized,
    E: TickExecutor<T>,
{
    let mut s = data_workload.init();
    let mut r = query_rel.as_deref_mut().map(|w| w.init());
    let space = data_workload.space();
    // Queries are issued by the query relation, so its workload defines
    // their side length; both relations must share the data space (the
    // region clip below is against S's space — `JoinSpec` builds both
    // workloads over identical space parameters).
    let query_side = match query_rel.as_deref() {
        Some(w) => {
            // A real assert (not debug): the check runs once per run, and
            // mismatched spaces would silently clip every query region
            // against the wrong bounds in release builds.
            assert_eq!(
                w.space(),
                space,
                "bipartite relations must share the data space"
            );
            w.query_side()
        }
        None => data_workload.query_side(),
    };

    let mut stats = RunStats::default();
    let mut actions = TickActions::default();
    // The query relation's plan, bipartite mode only.
    let mut r_actions = TickActions::default();

    let total_ticks = cfg.warmup + cfg.ticks;
    for tick in 0..total_ticks {
        let measured = tick >= cfg.warmup;
        actions.clear();
        data_workload.plan_tick(tick, &s, &mut actions);
        if let (Some(w), Some(r_set)) = (query_rel.as_deref_mut(), r.as_ref()) {
            r_actions.clear();
            w.plan_tick(tick, r_set, &mut r_actions);
            // In a bipartite join only R queries: whatever queriers S's
            // workload planned are data-relation bookkeeping, not queries.
            actions.queriers.clear();
        }

        // Phase 1: build the static index over the previous tick's state
        // of the data relation.
        let t0 = Instant::now();
        exec.build(W::table(&s), &space, query_side, cfg.exec);
        let build = t0.elapsed();

        let (queriers, centers): (&[EntryId], &T) = match r.as_ref() {
            Some(r_set) => (&r_actions.queriers, Q::table(r_set)),
            None => (&actions.queriers, W::table(&s)),
        };
        let ctx = TickCtx {
            data: W::table(&s),
            centers,
            queriers,
            space: &space,
            query_side,
        };
        exec.prepare(&ctx);

        // Phase 2: queries, folded into the tick's checksum delta.
        let t0 = Instant::now();
        let (pairs, checksum) = exec.query(&ctx, cfg.exec);
        let query = t0.elapsed();
        let queries = ctx.queriers.len() as u64;

        // Phase 3: updates are applied to the base data at the end of the
        // tick — velocity changes, then departures (tombstones), then
        // movement of the survivors, then arrivals (visible from the next
        // tick at their spawn geometry; see [`TickActions::apply`]). All
        // of it is timed: insert/remove cost is update-phase cost, exactly
        // where the update-time taxonomy of the original study puts it
        // (DESIGN.md §9). In bipartite mode both relations update — data
        // relation first, then the query relation, each through its own
        // workload's movement model.
        let t0 = Instant::now();
        data_workload.apply(&actions, &mut s);
        if let (Some(w), Some(r_set)) = (query_rel.as_deref_mut(), r.as_mut()) {
            w.apply(&r_actions, r_set);
        }
        let update = t0.elapsed();

        if measured {
            stats.ticks.push(TickTimes {
                build,
                query,
                update,
            });
            stats.result_pairs += pairs;
            stats.checksum = stats.checksum.wrapping_add(checksum);
            stats.queries += queries;
            stats.updates +=
                (actions.velocity_updates.len() + r_actions.velocity_updates.len()) as u64;
            stats.removals += (actions.removals.len() + r_actions.removals.len()) as u64;
            stats.inserts += (actions.inserts.len() + r_actions.inserts.len()) as u64;
        }
    }
    stats.index_bytes = exec.index_bytes();
    stats.tile_load = exec.tile_load();
    stats
}

/// Executor for the index nested loop category: every querier issues one
/// query over its shape's region ([`Shape::query_region`]), and the index
/// emits matches directly into the checksum fold. `Sync` because the
/// parallel mode probes the (immutable) index from several workers at once
/// — every index in the workspace is plain data.
///
/// Under [`ExecMode::Partitioned`] the index itself is never built:
/// it serves as the prototype each tile forks ([`SpatialIndex::fork`]),
/// and `tiles` carries the per-tile forks, replicas, and querier
/// assignments across ticks.
struct IndexExecutor<'a, I: SpatialIndex + Sync + ?Sized, T> {
    index: &'a mut I,
    tiles: par::TileIndexPool<T>,
}

impl<'a, I: SpatialIndex + Sync + ?Sized, T: Shape> IndexExecutor<'a, I, T> {
    fn new(index: &'a mut I) -> Self {
        IndexExecutor {
            index,
            tiles: par::TileIndexPool::default(),
        }
    }
}

impl<I: SpatialIndex + Sync + ?Sized, T: Shape> TickExecutor<T> for IndexExecutor<'_, I, T> {
    fn build(&mut self, table: &T, space: &Rect, query_side: f32, exec: ExecMode) {
        match exec {
            ExecMode::Partitioned { tiles, workers } => {
                par::tiled_index_build(
                    &*self.index,
                    table,
                    space,
                    query_side,
                    tiles,
                    workers,
                    &mut self.tiles,
                );
            }
            _ => table.build_index(&mut *self.index),
        }
    }

    fn query(&mut self, tick: &TickCtx<'_, T>, exec: ExecMode) -> (u64, u64) {
        match exec {
            ExecMode::Sequential => {
                let mut pairs = 0u64;
                let mut checksum = 0u64;
                for &q in tick.queriers {
                    let region = tick.centers.query_region(q, tick.query_side, tick.space);
                    tick.data.probe(&*self.index, &region, &mut |r| {
                        pairs += 1;
                        checksum = fold_pair(checksum, q, r);
                    });
                }
                (pairs, checksum)
            }
            ExecMode::Parallel { threads } => par::shard_index_query(
                &*self.index,
                tick.data,
                tick.centers,
                tick.queriers,
                tick.space,
                tick.query_side,
                threads,
            ),
            ExecMode::Partitioned { .. } => par::tiled_index_query(
                &mut self.tiles,
                tick.centers,
                tick.queriers,
                tick.space,
                tick.query_side,
            ),
        }
    }

    fn index_bytes(&self) -> usize {
        // In tiled mode the footprint is the sum of the per-tile indexes
        // (the prototype was never built); replication makes this the one
        // RunStats field that is mode-structural rather than bit-identical
        // (DESIGN.md §13).
        match self.tiles.index_bytes() {
            Some(bytes) => bytes,
            None => self.index.memory_bytes(),
        }
    }

    fn tile_load(&self) -> Option<TileLoad> {
        self.tiles.tile_load()
    }
}

/// Executor for the specialized (set-at-a-time) join category: the tick's
/// whole query set is assembled untimed, handed to the technique in one
/// call, and the returned pair set is folded into the checksum. The timed
/// phase covers the join itself plus the fold, mirroring the per-query
/// executor where emission and folding are likewise inseparable.
struct BatchExecutor<'a, J: crate::batch::BatchJoin + ?Sized, T> {
    join: &'a mut J,
    queries: Vec<(EntryId, Rect)>,
    pairs_buf: Vec<(EntryId, EntryId)>,
    /// Parallel-mode worker forks and buffers, kept across ticks so
    /// steady-state sharded joins fork and allocate nothing.
    workers: Vec<par::BatchWorker>,
    /// Tiled-mode worker forks, replicas and query assignments, likewise
    /// persistent. Unlike the index category the batch category has no
    /// build phase, so partitioning happens inside the timed query phase
    /// (it is part of the set-at-a-time join's cost).
    tiles: par::TileBatchPool<T>,
}

impl<'a, J: crate::batch::BatchJoin + ?Sized, T: Shape> BatchExecutor<'a, J, T> {
    fn new(join: &'a mut J) -> Self {
        BatchExecutor {
            join,
            queries: Vec::new(),
            pairs_buf: Vec::new(),
            workers: Vec::new(),
            tiles: par::TileBatchPool::default(),
        }
    }
}

impl<J: crate::batch::BatchJoin + ?Sized, T: Shape> TickExecutor<T> for BatchExecutor<'_, J, T> {
    fn prepare(&mut self, tick: &TickCtx<'_, T>) {
        self.queries.clear();
        for &q in tick.queriers {
            let region = tick.centers.query_region(q, tick.query_side, tick.space);
            self.queries.push((q, region));
        }
    }

    fn query(&mut self, tick: &TickCtx<'_, T>, exec: ExecMode) -> (u64, u64) {
        match exec {
            ExecMode::Sequential => {
                self.pairs_buf.clear();
                tick.data.batch_join(
                    &mut *self.join,
                    tick.centers,
                    &self.queries,
                    &mut self.pairs_buf,
                );
                let mut checksum = 0u64;
                for &(q, r) in &self.pairs_buf {
                    checksum = fold_pair(checksum, q, r);
                }
                (self.pairs_buf.len() as u64, checksum)
            }
            ExecMode::Parallel { threads } => par::shard_batch_join(
                &*self.join,
                tick.centers,
                tick.data,
                &self.queries,
                threads,
                &mut self.workers,
            ),
            ExecMode::Partitioned { tiles, workers } => par::tiled_batch_join(
                &*self.join,
                tick.centers,
                tick.data,
                &self.queries,
                tick.space,
                tick.query_side,
                tiles,
                workers,
                &mut self.tiles,
            ),
        }
    }

    fn index_bytes(&self) -> usize {
        0
    }

    fn tile_load(&self) -> Option<TileLoad> {
        self.tiles.tile_load()
    }
}

/// Drive `index` through `workload` for `cfg.ticks` measured ticks.
///
/// `cfg.exec` selects the query-phase execution mode; under
/// [`ExecMode::Parallel`] the index is probed read-only from several
/// workers (hence the `Sync` bound) and the resulting [`RunStats`] counts
/// are bit-identical to the sequential run.
pub fn run_join<W: Workload + ?Sized, I: SpatialIndex + Sync + ?Sized>(
    workload: &mut W,
    index: &mut I,
    cfg: DriverConfig,
) -> RunStats {
    drive::<PointTable, _, _, _>(
        workload,
        None::<&mut W>,
        &mut IndexExecutor::new(index),
        cfg,
    )
}

/// Drive a **bipartite** join R ⋈ S: `index` is rebuilt each tick over the
/// data relation driven by `data_workload` (S), and every live row the
/// query relation's workload (R) plans as a querier issues one range query
/// — centred on the R row's position — against it. Each relation updates
/// through its own workload (velocity changes, churn, movement model); the
/// two workloads must share the same data space. All other semantics
/// (phase boundaries, warmup accounting, checksum fold, parallel
/// equivalence) are identical to [`run_join`] — a self-join is exactly
/// this with R = S.
pub fn run_bipartite_join<I: SpatialIndex + Sync + ?Sized>(
    query_workload: &mut dyn Workload,
    data_workload: &mut dyn Workload,
    index: &mut I,
    cfg: DriverConfig,
) -> RunStats {
    drive::<PointTable, _, _, _>(
        data_workload,
        Some(query_workload),
        &mut IndexExecutor::new(index),
        cfg,
    )
}

/// Drive a set-at-a-time join technique ([`crate::batch::BatchJoin`])
/// through the same tick loop as [`run_join`]: identical workloads,
/// identical phase semantics, directly comparable statistics. The query
/// phase hands the tick's whole query set to the technique in one call
/// (its cost covers any per-tick sorting the technique does); under
/// [`ExecMode::Parallel`] the set is partitioned into strips, each joined
/// by a private fork of the technique ([`crate::batch::BatchJoin::fork`]).
pub fn run_batch_join<W: Workload + ?Sized, J: crate::batch::BatchJoin + ?Sized>(
    workload: &mut W,
    join: &mut J,
    cfg: DriverConfig,
) -> RunStats {
    drive::<PointTable, _, _, _>(workload, None::<&mut W>, &mut BatchExecutor::new(join), cfg)
}

/// The bipartite form of [`run_batch_join`]: the tick's whole query set —
/// one region per live R querier, centred on R positions — is handed to
/// the technique in one [`crate::batch::BatchJoin::join_two`] call against
/// the data relation S. See [`run_bipartite_join`] for the relation
/// semantics.
pub fn run_bipartite_batch_join<J: crate::batch::BatchJoin + ?Sized>(
    query_workload: &mut dyn Workload,
    data_workload: &mut dyn Workload,
    join: &mut J,
    cfg: DriverConfig,
) -> RunStats {
    drive::<PointTable, _, _, _>(
        data_workload,
        Some(query_workload),
        &mut BatchExecutor::new(join),
        cfg,
    )
}

/// Drive `index` through an intersection self-join over `workload`'s
/// moving rectangles: each tick rebuilds the index over the previous
/// tick's extents ([`SpatialIndex::build_extents`]) and every planned
/// querier reports the rows intersecting its own rectangle
/// ([`SpatialIndex::for_each_intersecting`], closed semantics — a querier
/// always finds itself). Panics up front if the index does not implement
/// the predicate ([`SpatialIndex::supports_intersect`]). All [`ExecMode`]s
/// are bit-identical, exactly as in [`run_join`]. No bipartite form: the
/// paper's setting and the two-layer literature both evaluate the
/// self-join.
pub fn run_intersect_join<W: ExtentWorkload + ?Sized, I: SpatialIndex + Sync + ?Sized>(
    workload: &mut W,
    index: &mut I,
    cfg: DriverConfig,
) -> RunStats {
    assert!(
        index.supports_intersect(),
        "{}: no intersects-predicate support",
        index.name()
    );
    drive::<ExtentTable, _, _, _>(
        workload,
        None::<&mut W>,
        &mut IndexExecutor::new(index),
        cfg,
    )
}

/// Drive a set-at-a-time technique through the intersection self-join of
/// [`run_intersect_join`]: the tick's whole query set goes to
/// [`crate::batch::BatchJoin::join_extents`] in one call. Panics up front
/// if the technique does not implement the predicate.
pub fn run_intersect_batch_join<W: ExtentWorkload + ?Sized, J: crate::batch::BatchJoin + ?Sized>(
    workload: &mut W,
    join: &mut J,
    cfg: DriverConfig,
) -> RunStats {
    assert!(
        join.supports_intersect(),
        "{}: no intersects-predicate support",
        join.name()
    );
    drive::<ExtentTable, _, _, _>(workload, None::<&mut W>, &mut BatchExecutor::new(join), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Vec2};
    use crate::index::ScanIndex;
    use crate::table::PointTable;

    /// A deterministic toy workload: k fixed points, everybody queries
    /// every tick, nobody updates.
    struct ToyWorkload {
        n: u32,
    }

    impl Workload for ToyWorkload {
        fn space(&self) -> Rect {
            Rect::space(1000.0)
        }
        fn query_side(&self) -> f32 {
            100.0
        }
        fn init(&mut self) -> MovingSet {
            let mut set = MovingSet::default();
            for i in 0..self.n {
                let t = i as f32 * 37.0 % 1000.0;
                set.push(Point::new(t, (t * 7.0) % 1000.0), Vec2::new(1.0, 1.0));
            }
            set
        }
        fn plan_tick(&mut self, _tick: u32, set: &MovingSet, actions: &mut TickActions) {
            actions.queriers.extend(0..set.len() as EntryId);
        }
    }

    #[test]
    fn run_produces_one_timing_per_measured_tick() {
        let mut w = ToyWorkload { n: 50 };
        let mut idx = ScanIndex::new();
        let stats = run_join(&mut w, &mut idx, DriverConfig::new(5, 2));
        assert_eq!(stats.ticks.len(), 5);
        assert_eq!(stats.queries, 5 * 50);
    }

    #[test]
    fn every_querier_finds_itself() {
        // A query centred on a point always contains that point, so the
        // join must yield at least |queriers| pairs per tick.
        let mut w = ToyWorkload { n: 50 };
        let mut idx = ScanIndex::new();
        let stats = run_join(&mut w, &mut idx, DriverConfig::new(3, 0));
        assert!(
            stats.result_pairs >= 3 * 50,
            "pairs = {}",
            stats.result_pairs
        );
    }

    #[test]
    fn checksum_is_deterministic() {
        let run = || {
            let mut w = ToyWorkload { n: 30 };
            let mut idx = ScanIndex::new();
            run_join(&mut w, &mut idx, DriverConfig::new(4, 1))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.result_pairs, b.result_pairs);
    }

    #[test]
    fn fold_pair_is_order_independent() {
        let a = fold_pair(fold_pair(0, 1, 2), 3, 4);
        let b = fold_pair(fold_pair(0, 3, 4), 1, 2);
        assert_eq!(a, b);
        // ...but sensitive to the pair contents.
        assert_ne!(fold_pair(0, 1, 2), fold_pair(0, 2, 1));
    }

    #[test]
    fn velocity_updates_are_applied_end_of_tick() {
        struct UpdWorkload;
        impl Workload for UpdWorkload {
            fn space(&self) -> Rect {
                Rect::space(1000.0)
            }
            fn query_side(&self) -> f32 {
                10.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                s.push(Point::new(500.0, 500.0), Vec2::new(0.0, 0.0));
                s
            }
            fn plan_tick(&mut self, tick: u32, _set: &MovingSet, a: &mut TickActions) {
                if tick == 0 {
                    a.velocity_updates.push((0, 5.0, 0.0));
                }
            }
        }
        let mut w = UpdWorkload;
        let mut idx = ScanIndex::new();
        let _ = run_join(&mut w, &mut idx, DriverConfig::new(2, 0));
        // After 2 ticks with velocity 5 set in tick 0: moved 2 * 5 = 10.
        // (Update in tick 0 applies before tick 0's advance.)
    }

    #[test]
    fn results_survive_reuse_of_output_buffer() {
        // Two queriers at the same spot must each contribute pairs; the
        // shared `results` buffer is cleared between queries.
        struct TwinWorkload;
        impl Workload for TwinWorkload {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                50.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                s.push(Point::new(50.0, 50.0), Vec2::default());
                s.push(Point::new(51.0, 50.0), Vec2::default());
                s
            }
            fn plan_tick(&mut self, _t: u32, _s: &MovingSet, a: &mut TickActions) {
                a.queriers.extend([0, 1]);
            }
        }
        let mut idx = ScanIndex::new();
        let stats = run_join(&mut TwinWorkload, &mut idx, DriverConfig::new(1, 0));
        // Each query sees both points: 4 pairs.
        assert_eq!(stats.result_pairs, 4);
    }

    #[test]
    fn batch_driver_matches_per_query_driver() {
        // The naive batch join and the scan index compute the same join,
        // so both drivers must produce identical pair counts and checksums
        // for the same workload.
        let cfg = DriverConfig::new(4, 1);
        let per_query = {
            let mut w = ToyWorkload { n: 40 };
            let mut idx = ScanIndex::new();
            run_join(&mut w, &mut idx, cfg)
        };
        let batch = {
            let mut w = ToyWorkload { n: 40 };
            let mut j = crate::batch::NaiveBatchJoin;
            run_batch_join(&mut w, &mut j, cfg)
        };
        assert_eq!(batch.result_pairs, per_query.result_pairs);
        assert_eq!(batch.checksum, per_query.checksum);
        assert_eq!(batch.queries, per_query.queries);
    }

    #[test]
    fn parallel_exec_mode_matches_sequential_for_both_categories() {
        let cfg = DriverConfig::new(3, 1);
        let seq_index = {
            let mut w = ToyWorkload { n: 60 };
            run_join(&mut w, &mut ScanIndex::new(), cfg)
        };
        let seq_batch = {
            let mut w = ToyWorkload { n: 60 };
            run_batch_join(&mut w, &mut crate::batch::NaiveBatchJoin, cfg)
        };
        for n in [1usize, 2, 5] {
            for mode in [
                ExecMode::parallel(n).unwrap(),
                ExecMode::partitioned(n).unwrap(),
            ] {
                let par_cfg = cfg.with_exec(mode);
                let par_index = {
                    let mut w = ToyWorkload { n: 60 };
                    run_join(&mut w, &mut ScanIndex::new(), par_cfg)
                };
                let par_batch = {
                    let mut w = ToyWorkload { n: 60 };
                    run_batch_join(&mut w, &mut crate::batch::NaiveBatchJoin, par_cfg)
                };
                for (seq, par) in [(&seq_index, &par_index), (&seq_batch, &par_batch)] {
                    assert_eq!(par.result_pairs, seq.result_pairs, "mode = {mode}");
                    assert_eq!(par.checksum, seq.checksum, "mode = {mode}");
                    assert_eq!(par.queries, seq.queries, "mode = {mode}");
                    assert_eq!(par.updates, seq.updates, "mode = {mode}");
                    assert_eq!(par.ticks.len(), seq.ticks.len(), "mode = {mode}");
                }
            }
        }
    }

    #[test]
    fn churn_is_applied_end_of_tick_and_counted() {
        // Tick 0: object 1 departs and one object arrives at (60, 50).
        // Both the departure and the arrival are invisible to tick 0's
        // queries (previous-tick semantics) and visible to tick 1's.
        struct ChurnToy;
        impl Workload for ChurnToy {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                40.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                s.push(Point::new(50.0, 50.0), Vec2::default());
                s.push(Point::new(52.0, 50.0), Vec2::default());
                s
            }
            fn plan_tick(&mut self, tick: u32, set: &MovingSet, a: &mut TickActions) {
                a.queriers
                    .extend((0..set.len() as EntryId).filter(|&q| set.is_live(q)));
                if tick == 0 {
                    a.removals.push(1);
                    a.inserts.push((Point::new(60.0, 50.0), Vec2::default()));
                }
            }
        }
        let mut idx = ScanIndex::new();
        let stats = run_join(&mut ChurnToy, &mut idx, DriverConfig::new(2, 0));
        // Tick 0: queriers {0, 1} over live {0, 1} -> 4 pairs.
        // Tick 1: queriers {0, 2} over live {0, 2} -> 4 pairs (the new
        // object's slot is 2: tombstones never free handles).
        assert_eq!(stats.result_pairs, 8);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.removals, 1);
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    fn dead_rows_are_invisible_to_queries() {
        struct HalfDead;
        impl Workload for HalfDead {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                200.0 // covers everything
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                for i in 0..10 {
                    s.push(Point::new(10.0 + i as f32, 50.0), Vec2::default());
                }
                for id in (1..10).step_by(2) {
                    s.remove(id);
                }
                s
            }
            fn plan_tick(&mut self, _t: u32, _s: &MovingSet, a: &mut TickActions) {
                a.queriers.push(0);
            }
        }
        let mut idx = ScanIndex::new();
        let stats = run_join(&mut HalfDead, &mut idx, DriverConfig::new(1, 0));
        assert_eq!(stats.result_pairs, 5, "only the 5 live rows match");
    }

    #[test]
    fn bipartite_with_identical_relations_matches_the_self_join() {
        // Two independent copies of the same deterministic workload give R
        // rows exactly the positions of S rows, so R ⋈ S degenerates to
        // the self-join: identical pairs, checksum, and query count.
        let cfg = DriverConfig::new(4, 1);
        let self_join = {
            let mut w = ToyWorkload { n: 40 };
            run_join(&mut w, &mut ScanIndex::new(), cfg)
        };
        let bipartite = {
            let mut r = ToyWorkload { n: 40 };
            let mut s = ToyWorkload { n: 40 };
            run_bipartite_join(&mut r, &mut s, &mut ScanIndex::new(), cfg)
        };
        assert_eq!(bipartite.result_pairs, self_join.result_pairs);
        assert_eq!(bipartite.checksum, self_join.checksum);
        assert_eq!(bipartite.queries, self_join.queries);
    }

    #[test]
    fn bipartite_join_probes_the_data_relation_only() {
        // R: one querier at (50, 50); S: two points nearby plus one far
        // away. Exactly the two nearby S rows match — R's own row count
        // never shows up on the result side.
        struct OneQuerier;
        impl Workload for OneQuerier {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                10.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                s.push(Point::new(50.0, 50.0), Vec2::default());
                s
            }
            fn plan_tick(&mut self, _t: u32, _s: &MovingSet, a: &mut TickActions) {
                a.queriers.push(0);
            }
        }
        struct ThreeData;
        impl Workload for ThreeData {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                10.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                s.push(Point::new(48.0, 50.0), Vec2::default());
                s.push(Point::new(52.0, 50.0), Vec2::default());
                s.push(Point::new(90.0, 90.0), Vec2::default());
                s
            }
            // Plans queriers to prove the driver drops them: the data
            // relation never queries in a bipartite join.
            fn plan_tick(&mut self, _t: u32, set: &MovingSet, a: &mut TickActions) {
                a.queriers.extend(0..set.len() as EntryId);
            }
        }
        let stats = run_bipartite_join(
            &mut OneQuerier,
            &mut ThreeData,
            &mut ScanIndex::new(),
            DriverConfig::new(2, 0),
        );
        assert_eq!(stats.queries, 2, "one R querier per tick");
        assert_eq!(stats.result_pairs, 4, "two S matches per tick");
    }

    #[test]
    fn bipartite_batch_driver_matches_bipartite_index_driver() {
        let cfg = DriverConfig::new(3, 1);
        let indexed = {
            let (mut r, mut s) = (ToyWorkload { n: 25 }, ToyWorkload { n: 60 });
            run_bipartite_join(&mut r, &mut s, &mut ScanIndex::new(), cfg)
        };
        let batch = {
            let (mut r, mut s) = (ToyWorkload { n: 25 }, ToyWorkload { n: 60 });
            run_bipartite_batch_join(&mut r, &mut s, &mut crate::batch::NaiveBatchJoin, cfg)
        };
        assert!(indexed.result_pairs > 0);
        assert_eq!(batch.result_pairs, indexed.result_pairs);
        assert_eq!(batch.checksum, indexed.checksum);
        assert_eq!(batch.queries, indexed.queries);
    }

    #[test]
    fn bipartite_parallel_exec_matches_sequential_for_both_categories() {
        let cfg = DriverConfig::new(3, 0);
        let seq_index = {
            let (mut r, mut s) = (ToyWorkload { n: 30 }, ToyWorkload { n: 70 });
            run_bipartite_join(&mut r, &mut s, &mut ScanIndex::new(), cfg)
        };
        let seq_batch = {
            let (mut r, mut s) = (ToyWorkload { n: 30 }, ToyWorkload { n: 70 });
            run_bipartite_batch_join(&mut r, &mut s, &mut crate::batch::NaiveBatchJoin, cfg)
        };
        for n in [2usize, 5] {
            for mode in [
                ExecMode::parallel(n).unwrap(),
                ExecMode::partitioned(n).unwrap(),
            ] {
                let par_cfg = cfg.with_exec(mode);
                let par_index = {
                    let (mut r, mut s) = (ToyWorkload { n: 30 }, ToyWorkload { n: 70 });
                    run_bipartite_join(&mut r, &mut s, &mut ScanIndex::new(), par_cfg)
                };
                let par_batch = {
                    let (mut r, mut s) = (ToyWorkload { n: 30 }, ToyWorkload { n: 70 });
                    run_bipartite_batch_join(
                        &mut r,
                        &mut s,
                        &mut crate::batch::NaiveBatchJoin,
                        par_cfg,
                    )
                };
                for (seq, par) in [(&seq_index, &par_index), (&seq_batch, &par_batch)] {
                    assert_eq!(par.result_pairs, seq.result_pairs, "mode = {mode}");
                    assert_eq!(par.checksum, seq.checksum, "mode = {mode}");
                    assert_eq!(par.queries, seq.queries, "mode = {mode}");
                }
            }
        }
    }

    #[test]
    fn warmup_only_runs_report_zero_averages_not_nan() {
        // ticks = 0 (warmup-only): no measured ticks, so every average is
        // defined as 0.0 — a NaN here would poison the JSON reporter.
        let mut w = ToyWorkload { n: 10 };
        let stats = run_join(&mut w, &mut ScanIndex::new(), DriverConfig::new(0, 2));
        assert!(stats.ticks.is_empty());
        assert_eq!(stats.result_pairs, 0, "warmup results are discarded");
        for avg in [
            stats.avg_tick_seconds(),
            stats.avg_build_seconds(),
            stats.avg_query_seconds(),
            stats.avg_update_seconds(),
        ] {
            assert_eq!(avg, 0.0);
            assert!(avg.is_finite());
        }
        let summary = stats.tick_summary();
        assert_eq!(summary.n, 0);
        assert_eq!(summary.mean, 0.0);
    }

    /// A deterministic toy extent workload: n fixed rectangles on a
    /// diagonal, everybody queries every tick, nobody updates.
    struct ToyExtents {
        n: u32,
    }

    impl ExtentWorkload for ToyExtents {
        fn space(&self) -> Rect {
            Rect::space(1000.0)
        }
        fn init(&mut self) -> MovingExtentSet {
            let mut set = MovingExtentSet::default();
            for i in 0..self.n {
                let t = (i as f32 * 37.0) % 900.0;
                let u = (t * 7.0) % 900.0;
                set.push(Rect::new(t, u, t + 60.0, u + 60.0), Vec2::new(1.0, -1.0));
            }
            set
        }
        fn plan_tick(
            &mut self,
            _tick: u32,
            set: &MovingExtentSet,
            actions: &mut ExtentTickActions,
        ) {
            actions
                .queriers
                .extend((0..set.extents.len() as EntryId).filter(|&q| set.is_live(q)));
        }
    }

    #[test]
    fn intersect_join_finds_self_pairs_and_is_deterministic() {
        let run = || {
            let mut w = ToyExtents { n: 40 };
            run_intersect_join(&mut w, &mut ScanIndex::new(), DriverConfig::new(4, 1))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.ticks.len(), 4);
        assert_eq!(a.queries, 4 * 40);
        // A rect always intersects itself: at least one pair per query.
        assert!(a.result_pairs >= a.queries, "pairs = {}", a.result_pairs);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.result_pairs, b.result_pairs);
    }

    #[test]
    fn intersect_batch_driver_matches_per_query_driver() {
        let cfg = DriverConfig::new(4, 1);
        let per_query = {
            let mut w = ToyExtents { n: 40 };
            run_intersect_join(&mut w, &mut ScanIndex::new(), cfg)
        };
        let batch = {
            let mut w = ToyExtents { n: 40 };
            run_intersect_batch_join(&mut w, &mut crate::batch::NaiveBatchJoin, cfg)
        };
        assert_eq!(batch.result_pairs, per_query.result_pairs);
        assert_eq!(batch.checksum, per_query.checksum);
        assert_eq!(batch.queries, per_query.queries);
    }

    #[test]
    fn intersect_parallel_exec_matches_sequential_for_both_categories() {
        let cfg = DriverConfig::new(3, 1);
        let seq_index = {
            let mut w = ToyExtents { n: 60 };
            run_intersect_join(&mut w, &mut ScanIndex::new(), cfg)
        };
        let seq_batch = {
            let mut w = ToyExtents { n: 60 };
            run_intersect_batch_join(&mut w, &mut crate::batch::NaiveBatchJoin, cfg)
        };
        assert_eq!(seq_batch.checksum, seq_index.checksum);
        for n in [1usize, 2, 5] {
            for mode in [
                ExecMode::parallel(n).unwrap(),
                ExecMode::partitioned(n).unwrap(),
                ExecMode::pooled(4 * n, n).unwrap(),
            ] {
                let par_cfg = cfg.with_exec(mode);
                let par_index = {
                    let mut w = ToyExtents { n: 60 };
                    run_intersect_join(&mut w, &mut ScanIndex::new(), par_cfg)
                };
                let par_batch = {
                    let mut w = ToyExtents { n: 60 };
                    run_intersect_batch_join(&mut w, &mut crate::batch::NaiveBatchJoin, par_cfg)
                };
                for (seq, par) in [(&seq_index, &par_index), (&seq_batch, &par_batch)] {
                    assert_eq!(par.result_pairs, seq.result_pairs, "mode = {mode}");
                    assert_eq!(par.checksum, seq.checksum, "mode = {mode}");
                    assert_eq!(par.queries, seq.queries, "mode = {mode}");
                }
            }
        }
    }

    #[test]
    fn extent_churn_is_applied_end_of_tick_and_counted() {
        // Tick 0: object 1 departs and one arrives overlapping object 0.
        // Previous-tick semantics: both invisible to tick 0's queries.
        struct ChurnExtents;
        impl ExtentWorkload for ChurnExtents {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn init(&mut self) -> MovingExtentSet {
                let mut s = MovingExtentSet::default();
                s.push(Rect::new(40.0, 40.0, 50.0, 50.0), Vec2::default());
                s.push(Rect::new(45.0, 45.0, 55.0, 55.0), Vec2::default());
                s
            }
            fn plan_tick(&mut self, tick: u32, set: &MovingExtentSet, a: &mut ExtentTickActions) {
                a.queriers
                    .extend((0..set.extents.len() as EntryId).filter(|&q| set.is_live(q)));
                if tick == 0 {
                    a.removals.push(1);
                    a.inserts
                        .push((Rect::new(48.0, 40.0, 58.0, 50.0), Vec2::default()));
                }
            }
        }
        let stats = run_intersect_join(
            &mut ChurnExtents,
            &mut ScanIndex::new(),
            DriverConfig::new(2, 0),
        );
        // Tick 0: queriers {0, 1}, both pairs both ways + self-pairs = 4.
        // Tick 1: queriers {0, 2} (slot 2 is the arrival; handles never
        // shift); rect 2 overlaps rect 0 → again 4 pairs.
        assert_eq!(stats.result_pairs, 8);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.removals, 1);
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    #[should_panic(expected = "no intersects-predicate support")]
    fn intersect_join_refuses_point_only_indexes() {
        // A point-only index must be rejected before the first tick, not
        // silently produce empty joins.
        struct PointOnly;
        impl SpatialIndex for PointOnly {
            fn name(&self) -> &str {
                "point-only"
            }
            fn build(&mut self, _: &PointTable) {}
            fn for_each_in(&self, _: &PointTable, _: &Rect, _: &mut dyn FnMut(EntryId)) {}
            fn memory_bytes(&self) -> usize {
                0
            }
            fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
                Box::new(PointOnly)
            }
        }
        let mut w = ToyExtents { n: 4 };
        let _ = run_intersect_join(&mut w, &mut PointOnly, DriverConfig::new(1, 0));
    }

    #[test]
    fn scan_index_reports_zero_memory() {
        let mut t = PointTable::default();
        t.push(1.0, 1.0);
        let mut idx = ScanIndex::new();
        idx.build(&t);
        assert_eq!(idx.memory_bytes(), 0);
    }
}
