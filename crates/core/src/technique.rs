//! The unified technique registry.
//!
//! The paper compares join techniques from two categories the original
//! framework keeps behind different interfaces: *index nested loop*
//! techniques ([`SpatialIndex`]: build per tick, probe per query) and
//! *specialized* set-at-a-time joins ([`BatchJoin`]: the whole tick's
//! query set in one call). [`Technique`] collapses that split behind one
//! `run` entry point, and [`TechniqueSpec`] + [`registry`] make the full
//! line-up a single source of truth: benchmark binaries, examples, and the
//! cross-technique agreement tests all iterate the registry instead of
//! maintaining their own lists.
//!
//! A spec is a [`TechniqueKind`] (which technique) plus an [`ExecMode`]
//! (how its query phase executes). Spec strings are `family` or
//! `family:variant`, optionally followed by an execution modifier:
//! `@par<N>` shards the query set over N threads against one shared
//! index, `@tiles<N>` space-partitions the data into N tiles each with
//! its own private index (e.g. `"grid:inline"`, `"rtree:str@par8"`,
//! `"sweep@tiles4"`); [`TechniqueSpec::parse`] accepts them
//! case-sensitively, and [`TechniqueSpec::name`] returns the canonical
//! form, so specs round-trip. Every registry technique — both categories
//! — runs under any execution mode with bit-identical [`RunStats`] counts
//! (`tests/parallel_equivalence.rs`).

use std::fmt;
use std::num::NonZeroUsize;

use sj_base::batch::BatchJoin;
use sj_base::driver::{
    run_batch_join, run_bipartite_batch_join, run_bipartite_join, run_intersect_batch_join,
    run_intersect_join, run_join, DriverConfig, RunStats, Workload,
};
use sj_base::index::{ScanIndex, SpatialIndex};
use sj_base::par::{ExecMode, Tiling};
use sj_base::table::ExtentTable;
use sj_binsearch::{BinarySearchJoin, VecSearchJoin};
use sj_crtree::CRTree;
use sj_grid::{IncrementalGrid, SimpleGrid, Stage};
use sj_kdtrie::LinearKdTrie;
use sj_quadtree::QuadTree;
use sj_rtree::{DynRTree, RTree};
use sj_sweep::PlaneSweepJoin;
use sj_twolayer::TwoLayerJoin;

/// The two join categories behind [`Technique`].
enum Impl {
    /// Index nested loop: rebuild per tick, one probe per query.
    Index(Box<dyn SpatialIndex + Send + Sync>),
    /// Specialized set-at-a-time join: no index, whole query set at once.
    Batch(Box<dyn BatchJoin + Send + Sync>),
}

/// A ready-to-run join technique from either of the paper's categories.
///
/// Obtained from [`TechniqueSpec::build`] (or assembled by hand around any
/// custom [`SpatialIndex`]/[`BatchJoin`] implementation via
/// [`Technique::index`]/[`Technique::batch`], e.g. a grid with swept
/// parameters). [`Technique::run`] drives it through a workload with the
/// category-appropriate driver; results are directly comparable because
/// both drivers share one tick loop.
///
/// A technique built from a spec with a `@par<N>` modifier remembers that
/// preference: [`Technique::run`] promotes a sequential
/// [`DriverConfig::exec`] to it, so `Technique::from_spec("grid@par8")`
/// runs parallel without further plumbing. An explicitly parallel
/// `DriverConfig` always wins.
pub struct Technique {
    imp: Impl,
    exec: ExecMode,
}

impl Technique {
    /// An index-nested-loop technique around `index`, sequential by
    /// default. The `Send + Sync` bounds are what let the parallel query
    /// phase probe the index from several workers; every index in the
    /// workspace is plain data and satisfies them implicitly.
    pub fn index(index: Box<dyn SpatialIndex + Send + Sync>) -> Technique {
        Technique {
            imp: Impl::Index(index),
            exec: ExecMode::Sequential,
        }
    }

    /// A set-at-a-time technique around `join`, sequential by default.
    pub fn batch(join: Box<dyn BatchJoin + Send + Sync>) -> Technique {
        Technique {
            imp: Impl::Batch(join),
            exec: ExecMode::Sequential,
        }
    }

    /// The same technique with a different preferred execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> Technique {
        self.exec = exec;
        self
    }

    /// The preferred execution mode (from the spec's `@par<N>` modifier,
    /// or [`ExecMode::Sequential`]).
    pub fn exec(&self) -> ExecMode {
        self.exec
    }

    /// The technique's display name (e.g. "R-Tree", "Plane Sweep").
    pub fn name(&self) -> &str {
        match &self.imp {
            Impl::Index(i) => i.name(),
            Impl::Batch(j) => j.name(),
        }
    }

    /// Drive this technique through `workload` for `cfg.ticks` measured
    /// ticks, dispatching to the category-appropriate driver. The query
    /// phase runs under `cfg.exec`, or under this technique's preferred
    /// mode when `cfg.exec` is sequential.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, cfg: DriverConfig) -> RunStats {
        let cfg = cfg.with_exec(cfg.exec.or(self.exec));
        match &mut self.imp {
            Impl::Index(i) => run_join(workload, i.as_mut(), cfg),
            Impl::Batch(j) => run_batch_join(workload, j.as_mut(), cfg),
        }
    }

    /// Drive this technique through a **bipartite** join R ⋈ S:
    /// `query_workload` drives the query relation R (one range query per
    /// planned live row, centred on that row), `data_workload` the data
    /// relation S (what indexes build over and joins probe). Same
    /// category dispatch and exec-mode promotion as [`Technique::run`];
    /// neither category needs per-implementation support: indexes build
    /// over S and are probed from R, and batch techniques
    /// ([`sj_base::batch::BatchJoin::join`]) join R's query regions
    /// against S, with R's querier ids passed through as opaque handles.
    pub fn run_bipartite(
        &mut self,
        query_workload: &mut dyn Workload,
        data_workload: &mut dyn Workload,
        cfg: DriverConfig,
    ) -> RunStats {
        let cfg = cfg.with_exec(cfg.exec.or(self.exec));
        match &mut self.imp {
            Impl::Index(i) => run_bipartite_join(query_workload, data_workload, i.as_mut(), cfg),
            Impl::Batch(j) => {
                run_bipartite_batch_join(query_workload, data_workload, j.as_mut(), cfg)
            }
        }
    }

    /// Drive this technique through an **intersection join** over extent
    /// entries: every tick, each planned querier's own rectangle is
    /// joined against the whole extent table under the closed
    /// rectangle-overlap predicate (see DESIGN.md §15). Same category
    /// dispatch and exec-mode promotion as [`Technique::run`]. Panics
    /// before the first tick unless [`Technique::supports_intersect`].
    pub fn run_intersect<W: Workload<ExtentTable> + ?Sized>(
        &mut self,
        workload: &mut W,
        cfg: DriverConfig,
    ) -> RunStats {
        let cfg = cfg.with_exec(cfg.exec.or(self.exec));
        match &mut self.imp {
            Impl::Index(i) => run_intersect_join(workload, i.as_mut(), cfg),
            Impl::Batch(j) => run_intersect_batch_join(workload, j.as_mut(), cfg),
        }
    }

    /// Whether this technique implements the intersects predicate over
    /// extent entries (either category; see
    /// [`sj_base::index::SpatialIndex::supports_intersect`]).
    pub fn supports_intersect(&self) -> bool {
        match &self.imp {
            Impl::Index(i) => i.supports_intersect(),
            Impl::Batch(j) => j.supports_intersect(),
        }
    }

    /// Parse `spec` and construct the technique for a data space of side
    /// `space_side` in one step.
    pub fn from_spec(spec: &str, space_side: f32) -> Result<Technique, ParseSpecError> {
        Ok(TechniqueSpec::parse(spec)?.build(space_side))
    }

    /// Whether this is a set-at-a-time (batch) technique.
    pub fn is_batch(&self) -> bool {
        matches!(self.imp, Impl::Batch(_))
    }

    /// The contained index, if this is an index technique.
    pub fn as_index(&self) -> Option<&dyn SpatialIndex> {
        match &self.imp {
            Impl::Index(i) => Some(i.as_ref() as &dyn SpatialIndex),
            Impl::Batch(_) => None,
        }
    }

    /// Mutable access to the contained index, if any.
    pub fn as_index_mut(&mut self) -> Option<&mut dyn SpatialIndex> {
        match &mut self.imp {
            Impl::Index(i) => Some(i.as_mut() as &mut dyn SpatialIndex),
            Impl::Batch(_) => None,
        }
    }
}

impl fmt::Debug for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.imp {
            Impl::Index(_) => "index",
            Impl::Batch(_) => "batch",
        };
        write!(f, "Technique({:?}, {kind}, {})", self.name(), self.exec)
    }
}

/// Error from [`TechniqueSpec::parse`]: the offending spec plus the full
/// list of canonical spec strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSpecError {
    pub spec: String,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown technique spec {:?} (expected one of: ",
            self.spec
        )?;
        for (i, s) in registry().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.name())?;
        }
        write!(
            f,
            "; any spec takes an optional execution modifier `@par<N>`, `@tiles<N>`, \
             `@tilesauto`, or a composed `@tiles<N|auto>@par<T>`, e.g. grid:inline@par8, \
             grid:inline@tiles4, or grid:inline@tiles4@par2)"
        )
    }
}

impl std::error::Error for ParseSpecError {}

/// A parseable, nameable handle for every technique in the workspace,
/// with its paper-tuned constructor. `Copy`, so lists of kinds are cheap
/// to filter and re-instantiate (a fresh technique per run keeps
/// measurements independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TechniqueKind {
    /// Ground-truth full scan (`scan`) — quadratic, for validation only.
    Scan,
    /// Binary Search baseline (`binsearch`), paper §2.2.
    BinarySearch,
    /// Binary Search over sorted SoA columns with the SIMD filter
    /// (`binsearch:simd`) — this repository's extension.
    VecSearch,
    /// Simple Grid at one of the paper's cumulative improvement stages
    /// (`grid:original` … `grid:inline`).
    Grid(Stage),
    /// Incrementally maintained u-Grid (`grid:incremental`), the paper's
    /// reference \[8\].
    GridIncremental,
    /// STR-bulk-loaded static R-tree (`rtree:str`).
    RTreeStr,
    /// Incremental Guttman R-tree (`rtree:dyn`) — extension.
    RTreeDyn,
    /// Cache-conscious CR-tree (`crtree`).
    CRTree,
    /// Bucket PR-quadtree (`quadtree`) — extension.
    QuadTree,
    /// Linearized KD-trie (`kdtrie`).
    KdTrie,
    /// Index-free forward plane sweep (`sweep`) — the specialized join
    /// category; builds a batch [`Technique`].
    Sweep,
    /// Two-layer space-oriented partitioning join (`twolayer`,
    /// arXiv:2307.09256) — a batch technique for extent entries that
    /// emits every intersecting pair exactly once with zero
    /// deduplication; also answers point within-range joins via
    /// degenerate rectangles.
    TwoLayer,
}

/// Every technique in the workspace, in presentation order: the ground
/// truth, the paper's Figure 2 five (with the grid at each cumulative
/// stage), then the extensions. This is the single source of truth the
/// harness binaries and cross-technique tests iterate. All entries are
/// sequential; any of them accepts a parallel execution mode
/// ([`TechniqueSpec::with_exec`] or the `@par<N>` spec modifier).
pub fn registry() -> Vec<TechniqueSpec> {
    let mut v = vec![
        TechniqueKind::Scan,
        TechniqueKind::BinarySearch,
        TechniqueKind::RTreeStr,
        TechniqueKind::CRTree,
        TechniqueKind::KdTrie,
    ];
    v.extend(Stage::ALL.iter().map(|&s| TechniqueKind::Grid(s)));
    v.extend([
        TechniqueKind::GridIncremental,
        TechniqueKind::RTreeDyn,
        TechniqueKind::QuadTree,
        TechniqueKind::VecSearch,
        TechniqueKind::Sweep,
        TechniqueKind::TwoLayer,
    ]);
    v.into_iter().map(TechniqueKind::spec).collect()
}

impl TechniqueKind {
    /// Canonical base spec string (no execution modifier).
    pub const fn name(self) -> &'static str {
        match self {
            TechniqueKind::Scan => "scan",
            TechniqueKind::BinarySearch => "binsearch",
            TechniqueKind::VecSearch => "binsearch:simd",
            TechniqueKind::Grid(Stage::Original) => "grid:original",
            TechniqueKind::Grid(Stage::Restructured) => "grid:restructured",
            TechniqueKind::Grid(Stage::Querying) => "grid:querying",
            TechniqueKind::Grid(Stage::BsTuned) => "grid:bs-tuned",
            TechniqueKind::Grid(Stage::CpsTuned) => "grid:inline",
            TechniqueKind::GridIncremental => "grid:incremental",
            TechniqueKind::RTreeStr => "rtree:str",
            TechniqueKind::RTreeDyn => "rtree:dyn",
            TechniqueKind::CRTree => "crtree",
            TechniqueKind::QuadTree => "quadtree",
            TechniqueKind::KdTrie => "kdtrie",
            TechniqueKind::Sweep => "sweep",
            TechniqueKind::TwoLayer => "twolayer",
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            TechniqueKind::Scan => "Full Scan",
            TechniqueKind::BinarySearch => "Binary Search",
            TechniqueKind::VecSearch => "Binary Search (vectorized)",
            TechniqueKind::Grid(Stage::Original) => "Simple Grid",
            TechniqueKind::Grid(stage) => stage.label(),
            TechniqueKind::GridIncremental => "Simple Grid (incremental)",
            TechniqueKind::RTreeStr => "R-Tree",
            TechniqueKind::RTreeDyn => "R-Tree (incremental)",
            TechniqueKind::CRTree => "CR-Tree",
            TechniqueKind::QuadTree => "Quadtree",
            TechniqueKind::KdTrie => "Linearized KD-Trie",
            TechniqueKind::Sweep => "Plane Sweep",
            TechniqueKind::TwoLayer => "Two-Layer Partitioning",
        }
    }

    /// Parse a base spec string (canonical names plus the aliases `grid` →
    /// `grid:inline`, `rtree` → `rtree:str`, and `binsearch:vec` →
    /// `binsearch:simd`). Execution modifiers belong to
    /// [`TechniqueSpec::parse`].
    pub fn parse(base: &str) -> Option<TechniqueKind> {
        Some(match base {
            "scan" => TechniqueKind::Scan,
            "binsearch" => TechniqueKind::BinarySearch,
            "binsearch:simd" | "binsearch:vec" => TechniqueKind::VecSearch,
            "grid:original" => TechniqueKind::Grid(Stage::Original),
            "grid:restructured" => TechniqueKind::Grid(Stage::Restructured),
            "grid:querying" => TechniqueKind::Grid(Stage::Querying),
            "grid:bs-tuned" => TechniqueKind::Grid(Stage::BsTuned),
            "grid:inline" | "grid" => TechniqueKind::Grid(Stage::CpsTuned),
            "grid:incremental" => TechniqueKind::GridIncremental,
            "rtree:str" | "rtree" => TechniqueKind::RTreeStr,
            "rtree:dyn" => TechniqueKind::RTreeDyn,
            "crtree" => TechniqueKind::CRTree,
            "quadtree" => TechniqueKind::QuadTree,
            "kdtrie" => TechniqueKind::KdTrie,
            "sweep" => TechniqueKind::Sweep,
            "twolayer" => TechniqueKind::TwoLayer,
            _ => return None,
        })
    }

    /// This kind as a sequential [`TechniqueSpec`].
    pub const fn spec(self) -> TechniqueSpec {
        TechniqueSpec {
            kind: self,
            exec: ExecMode::Sequential,
        }
    }

    /// This kind as a parallel [`TechniqueSpec`] over `threads` workers.
    pub const fn par(self, threads: NonZeroUsize) -> TechniqueSpec {
        TechniqueSpec {
            kind: self,
            exec: ExecMode::Parallel { threads },
        }
    }

    /// This kind as a space-partitioned [`TechniqueSpec`] over `tiles`
    /// tiles, each with a private fork of the technique (the default pool:
    /// one worker per tile).
    pub const fn tiled(self, tiles: NonZeroUsize) -> TechniqueSpec {
        TechniqueSpec {
            kind: self,
            exec: ExecMode::Partitioned {
                tiles: Tiling::Fixed(tiles),
                workers: None,
            },
        }
    }

    /// Construct the technique with its paper-tuned parameters for a data
    /// space of side `space_side` (sequential; see [`TechniqueSpec::build`]
    /// for the exec-carrying form).
    pub fn build(self, space_side: f32) -> Technique {
        match self {
            TechniqueKind::Scan => Technique::index(Box::new(ScanIndex::new())),
            TechniqueKind::BinarySearch => Technique::index(Box::new(BinarySearchJoin::new())),
            TechniqueKind::VecSearch => Technique::index(Box::new(VecSearchJoin::new())),
            TechniqueKind::Grid(stage) => {
                Technique::index(Box::new(SimpleGrid::at_stage(stage, space_side)))
            }
            TechniqueKind::GridIncremental => {
                Technique::index(Box::new(IncrementalGrid::tuned(space_side)))
            }
            TechniqueKind::RTreeStr => Technique::index(Box::new(RTree::default())),
            TechniqueKind::RTreeDyn => Technique::index(Box::new(DynRTree::default())),
            TechniqueKind::CRTree => Technique::index(Box::new(CRTree::default())),
            TechniqueKind::QuadTree => {
                Technique::index(Box::new(QuadTree::with_default_bucket(space_side)))
            }
            TechniqueKind::KdTrie => Technique::index(Box::new(LinearKdTrie::new(space_side))),
            TechniqueKind::Sweep => Technique::batch(Box::new(PlaneSweepJoin::new())),
            TechniqueKind::TwoLayer => Technique::batch(Box::new(TwoLayerJoin::new())),
        }
    }

    /// Whether this kind builds a batch (set-at-a-time) technique rather
    /// than an index.
    pub const fn is_batch(self) -> bool {
        matches!(self, TechniqueKind::Sweep | TechniqueKind::TwoLayer)
    }

    /// Whether this kind implements the **intersects** predicate over
    /// extent entries: the ground-truth scan, the Simple Grid stages
    /// (reference-corner extent store), and the two-layer partitioning
    /// join. The rest of the line-up is point-only; the intersection
    /// harness filters on this.
    pub const fn supports_intersects(self) -> bool {
        matches!(
            self,
            TechniqueKind::Scan | TechniqueKind::Grid(_) | TechniqueKind::TwoLayer
        )
    }

    /// Whether this kind is the quadratic ground-truth reference —
    /// essential for agreement tests, useless in timing runs.
    pub const fn is_reference(self) -> bool {
        matches!(self, TechniqueKind::Scan)
    }

    /// Whether this technique belongs in timing tables: everything except
    /// the quadratic reference scan.
    pub const fn is_benchmarkable(self) -> bool {
        !self.is_reference()
    }

    /// The five techniques of the paper's Figure 2 (the Simple Grid in its
    /// *original*, worst-performing implementation).
    pub const fn in_figure2(self) -> bool {
        matches!(
            self,
            TechniqueKind::BinarySearch
                | TechniqueKind::RTreeStr
                | TechniqueKind::CRTree
                | TechniqueKind::KdTrie
                | TechniqueKind::Grid(Stage::Original)
        )
    }

    /// The Simple Grid improvement stage, if this kind is one (the Figure 4
    /// / Table 2 lower-half line-up).
    pub const fn grid_stage(self) -> Option<Stage> {
        match self {
            TechniqueKind::Grid(stage) => Some(stage),
            _ => None,
        }
    }
}

impl fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What to run and how: a [`TechniqueKind`] plus an [`ExecMode`]. The
/// string form appends the parallel modifier `@par<N>` to the kind's
/// canonical name (`"grid:inline@par8"` ⇔ the tuned grid with its query
/// phase sharded over 8 threads); [`TechniqueSpec::parse`] and
/// [`TechniqueSpec::name`] round-trip it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TechniqueSpec {
    pub kind: TechniqueKind,
    pub exec: ExecMode,
}

impl TechniqueSpec {
    /// Canonical spec string; [`TechniqueSpec::parse`] inverts it.
    pub fn name(&self) -> String {
        match self.exec {
            ExecMode::Sequential => self.kind.name().to_string(),
            ExecMode::Parallel { threads } => format!("{}@par{threads}", self.kind.name()),
            ExecMode::Partitioned { tiles, workers } => {
                // `Tiling` displays as the count or `auto`, so the name is
                // `@tiles4` / `@tilesauto`, plus `@par<T>` for a pool.
                let mut name = format!("{}@tiles{tiles}", self.kind.name());
                if let Some(w) = workers {
                    name.push_str(&format!("@par{w}"));
                }
                name
            }
        }
    }

    /// Display label matching the paper's figure legends, annotated with
    /// the thread or tile count when non-sequential.
    pub fn label(&self) -> String {
        match self.exec {
            ExecMode::Sequential => self.kind.label().to_string(),
            ExecMode::Parallel { threads } => {
                format!("{} ({threads} threads)", self.kind.label())
            }
            ExecMode::Partitioned { tiles, workers } => {
                let tiles = match tiles {
                    Tiling::Fixed(n) => format!("{n} tiles"),
                    Tiling::Auto => "auto tiles".to_string(),
                };
                match workers {
                    None => format!("{} ({tiles})", self.kind.label()),
                    Some(w) => format!("{} ({tiles}, {w} workers)", self.kind.label()),
                }
            }
        }
    }

    /// Parse a spec string: a base name ([`TechniqueKind::parse`], aliases
    /// included) optionally followed by `@par<N>`, `@tiles<N>`,
    /// `@tilesauto`, or the composed `@tiles<N|auto>@par<T>` (canonical
    /// order: tiles before par) with `N, T ≥ 1`. `@par0` / `@tiles0` /
    /// `@tiles4@par0` are rejected here — every mode holds a
    /// [`NonZeroUsize`], so a zero-worker spec cannot even be constructed.
    pub fn parse(spec: &str) -> Result<TechniqueSpec, ParseSpecError> {
        let err = || ParseSpecError {
            spec: spec.to_string(),
        };
        let (base, exec) = match spec.split_once('@') {
            None => (spec, ExecMode::Sequential),
            Some((base, modifier)) => {
                // `tiles` first: `t-i-l-e-s` does not start with `par`, but
                // keeping the longer keyword first is the convention for
                // prefix menus.
                let exec = if let Some(rest) = modifier.strip_prefix("tiles") {
                    let (tiles_str, workers) = match rest.split_once('@') {
                        None => (rest, None),
                        Some((tiles_str, pool)) => {
                            let w = pool.strip_prefix("par").ok_or_else(err)?;
                            (
                                tiles_str,
                                Some(w.parse::<NonZeroUsize>().map_err(|_| err())?),
                            )
                        }
                    };
                    let tiles = if tiles_str == "auto" {
                        Tiling::Auto
                    } else {
                        Tiling::Fixed(tiles_str.parse::<NonZeroUsize>().map_err(|_| err())?)
                    };
                    ExecMode::Partitioned { tiles, workers }
                } else if let Some(n) = modifier.strip_prefix("par") {
                    let threads = n.parse::<NonZeroUsize>().map_err(|_| err())?;
                    ExecMode::Parallel { threads }
                } else {
                    return Err(err());
                };
                (base, exec)
            }
        };
        let kind = TechniqueKind::parse(base).ok_or_else(err)?;
        Ok(TechniqueSpec { kind, exec })
    }

    /// The same spec under a different execution mode.
    pub const fn with_exec(mut self, exec: ExecMode) -> TechniqueSpec {
        self.exec = exec;
        self
    }

    /// Construct the technique with its paper-tuned parameters for a data
    /// space of side `space_side`. The spec's execution mode is embedded:
    /// [`Technique::run`] applies it whenever the driver config does not
    /// name a parallel mode itself.
    pub fn build(self, space_side: f32) -> Technique {
        self.kind.build(space_side).with_exec(self.exec)
    }

    // Delegates, so registry filters read the same as before the
    // kind/exec split.
    pub const fn is_batch(self) -> bool {
        self.kind.is_batch()
    }
    pub const fn is_reference(self) -> bool {
        self.kind.is_reference()
    }
    pub const fn is_benchmarkable(self) -> bool {
        self.kind.is_benchmarkable()
    }
    pub const fn in_figure2(self) -> bool {
        self.kind.in_figure2()
    }
    pub const fn supports_intersects(self) -> bool {
        self.kind.supports_intersects()
    }
    pub const fn grid_stage(self) -> Option<Stage> {
        self.kind.grid_stage()
    }
}

impl From<TechniqueKind> for TechniqueSpec {
    fn from(kind: TechniqueKind) -> TechniqueSpec {
        kind.spec()
    }
}

impl std::str::FromStr for TechniqueSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TechniqueSpec::parse(s)
    }
}

impl fmt::Display for TechniqueSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par(n: usize) -> ExecMode {
        ExecMode::parallel(n).unwrap()
    }

    fn tiles(n: usize) -> ExecMode {
        ExecMode::partitioned(n).unwrap()
    }

    #[test]
    fn registry_covers_every_category_once() {
        let specs = registry();
        assert_eq!(specs.len(), 16);
        assert_eq!(specs.iter().filter(|s| s.is_batch()).count(), 2);
        assert_eq!(specs.iter().filter(|s| s.is_reference()).count(), 1);
        assert_eq!(specs.iter().filter(|s| s.in_figure2()).count(), 5);
        assert_eq!(specs.iter().filter(|s| s.grid_stage().is_some()).count(), 5);
        // The intersects predicate: the reference scan, all five grid
        // stages, and the two-layer join.
        assert_eq!(specs.iter().filter(|s| s.supports_intersects()).count(), 7);
        assert!(specs.iter().all(|s| s.exec == ExecMode::Sequential));
    }

    #[test]
    fn every_spec_round_trips_through_parse() {
        for spec in registry() {
            assert_eq!(
                TechniqueSpec::parse(&spec.name()),
                Ok(spec),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn par_specs_round_trip_through_parse_and_name() {
        for base in registry() {
            for n in [1usize, 2, 8, 64] {
                let spec = base.with_exec(par(n));
                let name = spec.name();
                assert!(name.ends_with(&format!("@par{n}")), "{name}");
                assert_eq!(TechniqueSpec::parse(&name), Ok(spec), "{name}");
            }
        }
        // Aliases canonicalize under the modifier too.
        let parsed = TechniqueSpec::parse("grid@par8").unwrap();
        assert_eq!(parsed.kind, TechniqueKind::Grid(Stage::CpsTuned));
        assert_eq!(parsed.exec, par(8));
        assert_eq!(parsed.name(), "grid:inline@par8");
    }

    #[test]
    fn tiles_specs_round_trip_through_parse_and_name() {
        for base in registry() {
            for n in [1usize, 2, 5, 16] {
                let spec = base.with_exec(tiles(n));
                let name = spec.name();
                assert!(name.ends_with(&format!("@tiles{n}")), "{name}");
                assert_eq!(TechniqueSpec::parse(&name), Ok(spec), "{name}");
            }
        }
        // Aliases canonicalize under the modifier too.
        let parsed = TechniqueSpec::parse("grid@tiles4").unwrap();
        assert_eq!(parsed.kind, TechniqueKind::Grid(Stage::CpsTuned));
        assert_eq!(parsed.exec, tiles(4));
        assert_eq!(parsed.name(), "grid:inline@tiles4");
    }

    #[test]
    fn pooled_specs_round_trip_through_parse_and_name() {
        for base in registry() {
            for (t, w) in [(1usize, 1usize), (4, 2), (16, 8), (64, 3)] {
                let spec = base.with_exec(ExecMode::pooled(t, w).unwrap());
                let name = spec.name();
                assert!(name.ends_with(&format!("@tiles{t}@par{w}")), "{name}");
                assert_eq!(TechniqueSpec::parse(&name), Ok(spec), "{name}");
            }
        }
        let parsed = TechniqueSpec::parse("grid@tiles16@par2").unwrap();
        assert_eq!(parsed.kind, TechniqueKind::Grid(Stage::CpsTuned));
        assert_eq!(parsed.exec, ExecMode::pooled(16, 2).unwrap());
        assert_eq!(parsed.name(), "grid:inline@tiles16@par2");
    }

    #[test]
    fn adaptive_specs_round_trip_through_parse_and_name() {
        for base in registry() {
            let auto = base.with_exec(ExecMode::adaptive());
            assert!(auto.name().ends_with("@tilesauto"), "{}", auto.name());
            assert_eq!(TechniqueSpec::parse(&auto.name()), Ok(auto));
            let pooled = base.with_exec(ExecMode::adaptive_pooled(8).unwrap());
            assert!(
                pooled.name().ends_with("@tilesauto@par8"),
                "{}",
                pooled.name()
            );
            assert_eq!(TechniqueSpec::parse(&pooled.name()), Ok(pooled));
        }
    }

    #[test]
    fn malformed_par_modifiers_are_rejected() {
        for bad in [
            "grid@par0",
            "grid@par",
            "grid@8",
            "grid@threads8",
            "grid@par-1",
            "grid@parX",
            "@par8",
            "grid@par8@par8",
            "grid@tiles0",
            "grid@tiles",
            "grid@tiles-1",
            "grid@tilesX",
            "grid@tile4",
            "@tiles4",
            "grid@tiles4@tiles4",
            "grid@par4tiles4",
            "grid@tilesauto@tiles2",
            "grid@tilesauto4",
            "grid@tiles4@par0",
            "grid@tilesauto@par",
            "grid@par4@tiles4",
        ] {
            let err = TechniqueSpec::parse(bad).unwrap_err();
            assert_eq!(err.spec, bad);
        }
    }

    #[test]
    fn names_and_labels_are_unique() {
        let specs = registry();
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name(), b.name());
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn parallel_labels_carry_the_thread_count() {
        let spec = TechniqueKind::RTreeStr.par(NonZeroUsize::new(4).unwrap());
        assert_eq!(spec.label(), "R-Tree (4 threads)");
        assert_eq!(spec.name(), "rtree:str@par4");
    }

    #[test]
    fn tiled_labels_carry_the_tile_count() {
        let spec = TechniqueKind::RTreeStr.tiled(NonZeroUsize::new(4).unwrap());
        assert_eq!(spec.label(), "R-Tree (4 tiles)");
        assert_eq!(spec.name(), "rtree:str@tiles4");
    }

    #[test]
    fn pooled_and_adaptive_labels_carry_both_counts() {
        let spec = TechniqueKind::RTreeStr
            .spec()
            .with_exec(ExecMode::pooled(4, 2).unwrap());
        assert_eq!(spec.label(), "R-Tree (4 tiles, 2 workers)");
        let auto = TechniqueKind::RTreeStr
            .spec()
            .with_exec(ExecMode::adaptive());
        assert_eq!(auto.label(), "R-Tree (auto tiles)");
        let auto_pool = TechniqueKind::RTreeStr
            .spec()
            .with_exec(ExecMode::adaptive_pooled(2).unwrap());
        assert_eq!(auto_pool.label(), "R-Tree (auto tiles, 2 workers)");
    }

    #[test]
    fn aliases_resolve_to_tuned_variants() {
        assert_eq!(
            TechniqueSpec::parse("grid"),
            Ok(TechniqueKind::Grid(Stage::CpsTuned).spec())
        );
        assert_eq!(
            TechniqueSpec::parse("rtree"),
            Ok(TechniqueKind::RTreeStr.spec())
        );
        assert_eq!(
            TechniqueSpec::parse("binsearch:vec"),
            Ok(TechniqueKind::VecSearch.spec())
        );
    }

    #[test]
    fn unknown_specs_are_rejected_with_the_full_menu() {
        let err = TechniqueSpec::parse("btree").unwrap_err();
        assert_eq!(err.spec, "btree");
        let msg = err.to_string();
        assert!(
            msg.contains("grid:inline") && msg.contains("sweep") && msg.contains("@par<N>"),
            "{msg}"
        );
    }

    #[test]
    fn build_produces_the_right_category() {
        for spec in registry() {
            let tech = spec.build(1_000.0);
            assert_eq!(tech.is_batch(), spec.is_batch(), "{}", spec.name());
            assert_eq!(
                tech.as_index().is_some(),
                !spec.is_batch(),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn built_techniques_remember_their_exec_mode() {
        let seq = TechniqueKind::RTreeStr.spec().build(1_000.0);
        assert_eq!(seq.exec(), ExecMode::Sequential);
        let p = TechniqueSpec::parse("rtree:str@par4")
            .unwrap()
            .build(1_000.0);
        assert_eq!(p.exec(), par(4));
    }

    #[test]
    fn from_spec_parses_and_builds() {
        let mut t = Technique::from_spec("grid:inline", 1_000.0).unwrap();
        assert!(t.name().starts_with("Simple Grid"));
        assert!(t.as_index().is_some());
        assert!(t.as_index_mut().is_some());
        assert!(Technique::from_spec("nope", 1_000.0).is_err());
        assert!(Technique::from_spec("grid:inline@par0", 1_000.0).is_err());
        assert!(Technique::from_spec("grid:inline@tiles0", 1_000.0).is_err());
    }

    #[test]
    fn every_registry_technique_runs_bipartite_and_agrees() {
        use sj_base::driver::TickActions;
        use sj_base::geom::{Point, Rect, Vec2};
        use sj_base::table::MovingSet;

        // R and S with different sizes and offset placements; every
        // technique — both categories — must compute the identical R ⋈ S.
        struct GridPoints {
            n: u32,
            stride: f32,
            query: bool,
        }
        impl Workload for GridPoints {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                25.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                for i in 0..self.n {
                    let t = (i as f32 * self.stride) % 100.0;
                    s.push(Point::new(t, (t * 3.0 + 7.0) % 100.0), Vec2::new(1.0, 0.5));
                }
                s
            }
            fn plan_tick(&mut self, _t: u32, set: &MovingSet, a: &mut TickActions) {
                if self.query {
                    a.queriers.extend(0..set.len() as u32);
                }
            }
        }

        let cfg = DriverConfig::new(2, 0);
        let mut reference = None;
        for spec in registry() {
            for exec in [ExecMode::Sequential, par(3)] {
                let mut r = GridPoints {
                    n: 12,
                    stride: 13.0,
                    query: true,
                };
                let mut s = GridPoints {
                    n: 70,
                    stride: 3.0,
                    query: false,
                };
                let mut tech = spec.with_exec(exec).build(100.0);
                let stats = tech.run_bipartite(&mut r, &mut s, cfg);
                assert!(stats.result_pairs > 0, "{}", spec.name());
                assert_eq!(stats.queries, 2 * 12, "{}", spec.name());
                match reference {
                    None => reference = Some((stats.result_pairs, stats.checksum)),
                    Some(expect) => assert_eq!(
                        (stats.result_pairs, stats.checksum),
                        expect,
                        "{} ({exec}) computed a different bipartite join",
                        spec.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn intersect_support_is_consistent_between_spec_and_technique() {
        for spec in registry() {
            let tech = spec.build(1_000.0);
            assert_eq!(
                tech.supports_intersect(),
                spec.supports_intersects(),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn intersect_techniques_agree_across_exec_modes() {
        use sj_base::driver::{ExtentTickActions, ExtentWorkload};
        use sj_base::geom::{Rect, Vec2};
        use sj_base::table::MovingExtentSet;

        // Deterministic drifting rectangles; every live entry queries its
        // own extent each tick (the driver's rect self-join).
        struct ToyRects;
        impl ExtentWorkload for ToyRects {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn init(&mut self) -> MovingExtentSet {
                let mut s = MovingExtentSet::default();
                for i in 0..40u32 {
                    let t = (i as f32 * 7.3) % 85.0;
                    let u = (t * 3.1 + 11.0) % 85.0;
                    s.push(Rect::new(t, u, t + 9.0, u + 9.0), Vec2::new(1.0, -0.5));
                }
                s
            }
            fn plan_tick(&mut self, _t: u32, set: &MovingExtentSet, a: &mut ExtentTickActions) {
                a.queriers
                    .extend((0..set.len() as u32).filter(|&i| set.is_live(i)));
            }
        }

        let cfg = DriverConfig::new(2, 0);
        let mut reference = None;
        for spec in registry() {
            if !spec.supports_intersects() {
                continue;
            }
            for exec in [ExecMode::Sequential, par(3), tiles(4)] {
                let mut tech = spec.with_exec(exec).build(100.0);
                let stats = tech.run_intersect(&mut ToyRects, cfg);
                assert!(stats.result_pairs > 0, "{}", spec.name());
                match reference {
                    None => reference = Some((stats.result_pairs, stats.checksum)),
                    Some(expect) => assert_eq!(
                        (stats.result_pairs, stats.checksum),
                        expect,
                        "{} ({exec}) computed a different intersection join",
                        spec.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn technique_runs_both_categories_through_one_entry_point() {
        use sj_base::driver::{TickActions, Workload};
        use sj_base::geom::{Point, Rect, Vec2};
        use sj_base::table::MovingSet;

        struct Toy;
        impl Workload for Toy {
            fn space(&self) -> Rect {
                Rect::space(100.0)
            }
            fn query_side(&self) -> f32 {
                30.0
            }
            fn init(&mut self) -> MovingSet {
                let mut s = MovingSet::default();
                for i in 0..20 {
                    s.push(
                        Point::new(i as f32 * 5.0, i as f32 * 5.0),
                        Vec2::new(1.0, 0.0),
                    );
                }
                s
            }
            fn plan_tick(&mut self, _t: u32, set: &MovingSet, a: &mut TickActions) {
                a.queriers.extend(0..set.len() as u32);
            }
        }

        let cfg = DriverConfig::new(2, 0);
        let mut reference = None;
        for spec in registry() {
            // Sequentially, and — through the same entry point — with the
            // spec's @par modifier driving the parallel query phase.
            for exec in [ExecMode::Sequential, par(3)] {
                let mut tech = spec.with_exec(exec).build(100.0);
                let stats = tech.run(&mut Toy, cfg);
                assert!(stats.result_pairs > 0, "{}", spec.name());
                match reference {
                    None => reference = Some((stats.result_pairs, stats.checksum)),
                    Some(expect) => assert_eq!(
                        (stats.result_pairs, stats.checksum),
                        expect,
                        "{} ({exec}) computed a different join",
                        spec.name()
                    ),
                }
            }
        }
    }
}
