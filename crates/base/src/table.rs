//! Base data storage.
//!
//! All join techniques in the static-index-nested-loop category are
//! *secondary* indexes: they store 4-byte entry handles ([`EntryId`]) that
//! reference rows of a shared base table and read coordinates through that
//! handle (paper §3.1: "the algorithms operate on pointers and never update
//! the base data directly"). The base table is a structure-of-arrays so a
//! cache line holds 16 x- or y-coordinates.
//!
//! ## Churn and tombstones
//!
//! Workloads with population churn (objects arriving and departing, as in
//! the u-Grid line of work) remove rows via [`PointTable::remove`]. Removal
//! is a **tombstone**: the row's slot — and therefore every surviving
//! [`EntryId`] — stays exactly where it was; the row is merely marked dead
//! and its coordinates frozen. Handles are never reused within a run, so a
//! `(querier, result)` pair checksum is comparable across techniques and
//! across runs regardless of when removals happen (DESIGN.md §9). Indexes
//! must skip dead rows when they (re)build, and scan-style techniques must
//! skip them at query time; [`PointTable::iter`] yields live rows only.
//!
//! ## Two shapes, one moving set
//!
//! Points ([`PointTable`]) and rectangles ([`ExtentTable`]) share that
//! contract ([`Table`]) and differ only in what [`Shape`] decides. A
//! relation in motion is one [`Moving`] of either shape: the table plus
//! per-row velocities and one bouncing movement model, under which a point
//! moves exactly like a zero-size rectangle.

use std::num::NonZeroUsize;

use crate::batch::BatchJoin;
use crate::geom::{Point, Rect, Vec2};
use crate::index::SpatialIndex;
use crate::tile::TileGrid;

/// Handle of an object in the base table (the Rust analogue of the C++
/// framework's `Point*`).
pub type EntryId = u32;

/// Narrow a row index to an [`EntryId`].
///
/// This is the sanctioned `usize -> EntryId` conversion of the hot loops:
/// every other module goes through here (enforced by sj-lint's
/// `entry-id-cast` rule), so the narrowing lives in one place. It is
/// checked in debug builds only. That suffices for a row index below a
/// table's `len()`, because the tables mint every row's handle through
/// `mint_entry_id`, which checks in release builds too: no table holds a
/// row whose index does not fit.
#[inline]
pub fn entry_id(index: usize) -> EntryId {
    debug_assert!(
        index <= EntryId::MAX as usize,
        "row index {index} overflows EntryId"
    );
    index as EntryId
}

/// The handle of a new row at `index`, checked in every build. The
/// tables call it where a row is born ([`PointTable::push`],
/// [`ExtentTable::push`]), so a release build refuses row 2³² instead of
/// wrapping it to id 0 and silently joining the wrong rows.
///
/// # Panics
/// Panics if `index` exceeds [`EntryId::MAX`].
fn mint_entry_id(index: usize) -> EntryId {
    EntryId::try_from(index).unwrap_or_else(|_| {
        panic!("row {index} overflows EntryId: a table holds at most 2^32 rows")
    })
}

/// Unpack an [`EntryId`] stored widened in a `u64` slot (the grid
/// layouts pack entries into 8-byte bucket slots to mirror the paper's
/// 64-bit-pointer memory accounting). Like [`entry_id`], this keeps the
/// sanctioned truncation in one debug-checked place.
#[inline]
pub fn entry_id_u64(slot: u64) -> EntryId {
    debug_assert!(
        slot <= EntryId::MAX as u64,
        "packed slot {slot} is not a valid EntryId"
    );
    slot as EntryId
}

/// The storage contract shared by every base table in the workspace —
/// point entries ([`PointTable`]) and extent entries ([`ExtentTable`])
/// alike. One [`EntryId`] scheme, one tombstone discipline:
///
/// - rows are append-only and **never compact or reuse slots** — a
///   surviving handle resolves to the same row forever;
/// - removal is a tombstone ([`Table::remove`]): the row is marked dead,
///   its geometry frozen in place, and indexes/scans must skip it
///   ([`Table::live_mask`]);
/// - [`Table::clear`] is reserved for per-tick scratch tables (tile
///   replicas) that are repopulated from scratch — a driver-owned base
///   table is never cleared.
///
/// The driver's tick actions, the tiled executors' replica handling, and
/// the checksum comparability argument (DESIGN.md §9) all depend only on
/// this contract, which is why they apply uniformly to both entry shapes.
pub trait Table {
    /// Total number of row slots, dead rows included — the exclusive
    /// upper bound of valid [`EntryId`]s.
    fn len(&self) -> usize;

    /// Number of live rows (`len()` minus tombstones).
    fn live_len(&self) -> usize;

    /// Whether row `id` is live (not tombstoned).
    fn is_live(&self, id: EntryId) -> bool;

    /// The raw tombstone mask, indexed by row.
    fn live_mask(&self) -> &[bool];

    /// Tombstone row `id`; returns whether it was live (removing a dead
    /// row is a no-op). Surviving handles are untouched.
    fn remove(&mut self, id: EntryId) -> bool;

    /// Drop every row — live and dead — keeping allocated capacity.
    fn clear(&mut self);

    /// Minimum bounding rectangle of all live rows (`None` when empty).
    fn bounds(&self) -> Option<Rect>;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether no row has ever been removed — the fast path for scans
    /// that skip per-row liveness checks on churn-free workloads.
    fn all_live(&self) -> bool {
        self.live_len() == self.len()
    }
}

/// Structure-of-arrays base table of object positions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointTable {
    xs: Vec<f32>,
    ys: Vec<f32>,
    /// Tombstone mask: `live[i]` is false once row `i` was removed. Rows
    /// are never compacted, so surviving handles stay stable.
    live: Vec<bool>,
    live_len: usize,
}

impl PointTable {
    pub fn with_capacity(n: usize) -> Self {
        PointTable {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
            live_len: 0,
        }
    }

    /// Append a (live) row and return its handle.
    pub fn push(&mut self, x: f32, y: f32) -> EntryId {
        let id = mint_entry_id(self.xs.len());
        self.xs.push(x);
        self.ys.push(y);
        self.live.push(true);
        self.live_len += 1;
        id
    }

    /// Drop every row — live and dead — keeping allocated capacity. For
    /// per-tick scratch tables (the tile replicas of [`crate::tile`]) that
    /// are repopulated from scratch each build; a driver-owned base table
    /// is never cleared, so the handle-stability guarantee is untouched.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.live.clear();
        self.live_len = 0;
    }

    /// Tombstone row `id`: mark it dead, freezing its coordinates in
    /// place. Surviving handles are untouched — no row ever moves.
    /// Returns whether the row was live (removing a dead row is a no-op).
    pub fn remove(&mut self, id: EntryId) -> bool {
        let slot = &mut self.live[id as usize];
        let was_live = *slot;
        if was_live {
            *slot = false;
            self.live_len -= 1;
        }
        was_live
    }

    /// Whether row `id` is live (not tombstoned).
    #[inline]
    pub fn is_live(&self, id: EntryId) -> bool {
        self.live[id as usize]
    }

    /// Number of live rows (`len()` minus tombstones).
    #[inline]
    pub fn live_len(&self) -> usize {
        self.live_len
    }

    /// Whether no row has ever been removed — the fast path for scans that
    /// want to skip per-row liveness checks on churn-free workloads.
    #[inline]
    pub fn all_live(&self) -> bool {
        self.live_len == self.xs.len()
    }

    /// The raw tombstone mask, indexed by row like [`PointTable::xs`].
    #[inline]
    pub fn live_mask(&self) -> &[bool] {
        &self.live
    }

    /// Total number of row slots, dead rows included — the exclusive upper
    /// bound of valid [`EntryId`]s. Use [`PointTable::live_len`] for the
    /// population size.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    #[inline]
    pub fn x(&self, id: EntryId) -> f32 {
        self.xs[id as usize]
    }

    #[inline]
    pub fn y(&self, id: EntryId) -> f32 {
        self.ys[id as usize]
    }

    #[inline]
    pub fn point(&self, id: EntryId) -> Point {
        Point::new(self.x(id), self.y(id))
    }

    #[inline]
    pub fn set_position(&mut self, id: EntryId, x: f32, y: f32) {
        self.xs[id as usize] = x;
        self.ys[id as usize] = y;
    }

    /// Raw coordinate slices — used by indexes that bulk-load (sorting
    /// entry ids by coordinate) and by the tracer to model base-table
    /// address touches.
    #[inline]
    pub fn xs(&self) -> &[f32] {
        &self.xs
    }

    #[inline]
    pub fn ys(&self) -> &[f32] {
        &self.ys
    }

    /// Iterate the **live** rows (dead rows are tombstones, invisible to
    /// every index and join).
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Point)> + '_ {
        self.xs
            .iter()
            .zip(self.ys.iter())
            .zip(self.live.iter())
            .enumerate()
            .filter(|(_, (_, &live))| live)
            .map(|(i, ((&x, &y), _))| (entry_id(i), Point::new(x, y)))
    }

    /// Minimum bounding rectangle of all live rows (`None` when empty).
    pub fn bounds(&self) -> Option<Rect> {
        let mut it = self.iter();
        let (_, first) = it.next()?;
        let mut r = Rect::at_point(first.x, first.y);
        for (_, p) in it {
            r.expand_to(p.x, p.y);
        }
        Some(r)
    }
}

impl Table for PointTable {
    fn len(&self) -> usize {
        PointTable::len(self)
    }
    fn live_len(&self) -> usize {
        PointTable::live_len(self)
    }
    fn is_live(&self, id: EntryId) -> bool {
        PointTable::is_live(self, id)
    }
    fn live_mask(&self) -> &[bool] {
        PointTable::live_mask(self)
    }
    fn remove(&mut self, id: EntryId) -> bool {
        PointTable::remove(self, id)
    }
    fn clear(&mut self) {
        PointTable::clear(self)
    }
    fn bounds(&self) -> Option<Rect> {
        PointTable::bounds(self)
    }
}

/// Structure-of-arrays base table of axis-aligned rectangle entries — the
/// extent-shaped sibling of [`PointTable`], with the identical
/// handle-stability and tombstone contract (see [`Table`]). Four
/// coordinate columns instead of two, so an intersection filter reads
/// `x1/x2/y1/y2` as contiguous lanes exactly like the point filter reads
/// `x/y` (the SIMD overlap kernel in [`crate::simd`] depends on this
/// layout).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExtentTable {
    x1s: Vec<f32>,
    y1s: Vec<f32>,
    x2s: Vec<f32>,
    y2s: Vec<f32>,
    /// Tombstone mask, exactly as in [`PointTable`].
    live: Vec<bool>,
    live_len: usize,
}

impl ExtentTable {
    pub fn with_capacity(n: usize) -> Self {
        ExtentTable {
            x1s: Vec::with_capacity(n),
            y1s: Vec::with_capacity(n),
            x2s: Vec::with_capacity(n),
            y2s: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
            live_len: 0,
        }
    }

    /// Append a (live) rectangle row and return its handle.
    pub fn push(&mut self, r: Rect) -> EntryId {
        let id = mint_entry_id(self.x1s.len());
        self.x1s.push(r.x1);
        self.y1s.push(r.y1);
        self.x2s.push(r.x2);
        self.y2s.push(r.y2);
        self.live.push(true);
        self.live_len += 1;
        id
    }

    /// See [`Table::clear`].
    pub fn clear(&mut self) {
        self.x1s.clear();
        self.y1s.clear();
        self.x2s.clear();
        self.y2s.clear();
        self.live.clear();
        self.live_len = 0;
    }

    /// See [`Table::remove`].
    pub fn remove(&mut self, id: EntryId) -> bool {
        let slot = &mut self.live[id as usize];
        let was_live = *slot;
        if was_live {
            *slot = false;
            self.live_len -= 1;
        }
        was_live
    }

    #[inline]
    pub fn is_live(&self, id: EntryId) -> bool {
        self.live[id as usize]
    }

    #[inline]
    pub fn live_len(&self) -> usize {
        self.live_len
    }

    #[inline]
    pub fn all_live(&self) -> bool {
        self.live_len == self.x1s.len()
    }

    #[inline]
    pub fn live_mask(&self) -> &[bool] {
        &self.live
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.x1s.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x1s.is_empty()
    }

    /// The rectangle of row `id`.
    #[inline]
    pub fn rect(&self, id: EntryId) -> Rect {
        let i = id as usize;
        Rect::new(self.x1s[i], self.y1s[i], self.x2s[i], self.y2s[i])
    }

    #[inline]
    pub fn set_rect(&mut self, id: EntryId, r: Rect) {
        let i = id as usize;
        self.x1s[i] = r.x1;
        self.y1s[i] = r.y1;
        self.x2s[i] = r.x2;
        self.y2s[i] = r.y2;
    }

    /// Raw coordinate columns, for bulk loads and the SIMD overlap filter.
    #[inline]
    pub fn x1s(&self) -> &[f32] {
        &self.x1s
    }

    #[inline]
    pub fn y1s(&self) -> &[f32] {
        &self.y1s
    }

    #[inline]
    pub fn x2s(&self) -> &[f32] {
        &self.x2s
    }

    #[inline]
    pub fn y2s(&self) -> &[f32] {
        &self.y2s
    }

    /// Iterate the **live** rows.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Rect)> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|&(_, &live)| live)
            .map(|(i, _)| (entry_id(i), ExtentTable::rect(self, entry_id(i))))
    }

    /// Minimum bounding rectangle of all live rows (`None` when empty).
    pub fn bounds(&self) -> Option<Rect> {
        let mut it = self.iter();
        let (_, first) = it.next()?;
        let mut r = first;
        for (_, e) in it {
            r = r.union(&e);
        }
        Some(r)
    }
}

impl Table for ExtentTable {
    fn len(&self) -> usize {
        ExtentTable::len(self)
    }
    fn live_len(&self) -> usize {
        ExtentTable::live_len(self)
    }
    fn is_live(&self, id: EntryId) -> bool {
        ExtentTable::is_live(self, id)
    }
    fn live_mask(&self) -> &[bool] {
        ExtentTable::live_mask(self)
    }
    fn remove(&mut self, id: EntryId) -> bool {
        ExtentTable::remove(self, id)
    }
    fn clear(&mut self) {
        ExtentTable::clear(self)
    }
    fn bounds(&self) -> Option<Rect> {
        ExtentTable::bounds(self)
    }
}

/// What the join pipeline and the moving set decide differently for the
/// two entry shapes, and nothing else. The tick loop, both executors, the
/// sharded and tiled query phases, tile replication and the movement
/// model ([`Moving`]) are generic over it, so points and rectangles run
/// one implementation; [`PointTable`] and [`ExtentTable`] are its only
/// implementations (DESIGN.md §15). It decides:
///
/// - the **query region** of a row ([`Shape::query_region`]);
/// - the row's **own extent**, which tiling replicates it by and movement
///   keeps the size of ([`Shape::extent`], [`Shape::size`],
///   [`Shape::move_to`]);
/// - whether a tile reports a candidate, by the reference-point rule
///   ([`Shape::tile_reports`]);
/// - the `@tilesauto` tile count ([`Shape::auto_tile_count`]);
/// - which [`SpatialIndex`] and [`BatchJoin`] methods serve the shape.
///
/// Every method is generic or inlined, so the timed paths stay
/// monomorphised per table type: choosing the shape costs no `dyn` call.
pub trait Shape: Table + Clone + std::fmt::Debug + Default + PartialEq + Sync {
    /// One row's geometry: a [`Point`] or a [`Rect`].
    type Row: Copy + std::fmt::Debug + Default + PartialEq;

    /// An empty table with room for `n` rows.
    fn with_capacity(n: usize) -> Self;

    /// Row `id`'s geometry.
    fn row(&self, id: EntryId) -> Self::Row;

    /// Append a live row and return its handle.
    fn push_row(&mut self, row: Self::Row) -> EntryId;

    /// Row `id`'s own geometry as a rectangle: a point is the zero-area
    /// rectangle at its coordinates.
    fn extent(&self, id: EntryId) -> Rect;

    /// Row `id`'s width and height. A point's are the constant zero, so
    /// the bounce's size-reduced interval folds to the space itself.
    fn size(&self, id: EntryId) -> (f32, f32);

    /// Move row `id` so its lower-left corner is `corner`, keeping its
    /// size.
    fn move_to(&mut self, id: EntryId, corner: Point);

    /// The region row `q` queries with. `space` bounds the data and
    /// `query_side` is the workload's query size; a shape ignores what it
    /// does not need.
    fn query_region(&self, q: EntryId, query_side: f32, space: &Rect) -> Rect;

    /// Whether tile `tile` of `grid` reports the candidate `row`, a row of
    /// this table (the tile's replica) that matched a query over `region`.
    /// The tile that reports it holds the pair's reference point, the
    /// corner `(max(region.x1, x1), max(region.y1, y1))` of the pair's
    /// intersection. Both sides of the pair are resident in that tile, and
    /// no other tile holds the point, so each pair is reported once (see
    /// [`crate::tile`]). The tiled paths call it once per candidate.
    fn tile_reports(&self, row: EntryId, region: &Rect, grid: &TileGrid, tile: usize) -> bool;

    /// The `@tilesauto` tile count for this table.
    fn auto_tile_count(&self, space: &Rect, query_side: f32) -> NonZeroUsize;

    /// Rebuild `index` over this table.
    fn build_index<I: SpatialIndex + ?Sized>(&self, index: &mut I);

    /// Call `emit` for every row of this table that matches `region`;
    /// `index` was last built over this table.
    fn probe<I: SpatialIndex + ?Sized>(
        &self,
        index: &I,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    );

    /// Join `queries` against this table in one call, calling `emit`
    /// for every `(querier, row)` pair; querier ids are opaque.
    fn batch_join<J: BatchJoin + ?Sized>(
        &self,
        join: &mut J,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    );
}

/// Points: a querier's region is the centred square of side `query_side`
/// clipped to the space, and the within-range predicate serves the join.
impl Shape for PointTable {
    type Row = Point;

    fn with_capacity(n: usize) -> Self {
        PointTable::with_capacity(n)
    }

    #[inline]
    fn row(&self, id: EntryId) -> Point {
        self.point(id)
    }

    #[inline]
    fn push_row(&mut self, p: Point) -> EntryId {
        self.push(p.x, p.y)
    }

    #[inline]
    fn extent(&self, id: EntryId) -> Rect {
        Rect::at_point(self.x(id), self.y(id))
    }

    #[inline]
    fn size(&self, _id: EntryId) -> (f32, f32) {
        (0.0, 0.0)
    }

    #[inline]
    fn move_to(&mut self, id: EntryId, corner: Point) {
        self.set_position(id, corner.x, corner.y);
    }

    #[inline]
    fn query_region(&self, q: EntryId, query_side: f32, space: &Rect) -> Rect {
        Rect::centered_square(self.point(q), query_side).clipped_to(space)
    }

    /// Always. A matched point lies inside the region, so the reference
    /// point is the point itself, and a point is replicated into that
    /// point's canonical tile only: every candidate of the tile's replica
    /// passes, and the test would cost a corner load and two float
    /// divisions per candidate (DESIGN.md §15).
    #[inline]
    fn tile_reports(&self, row: EntryId, _region: &Rect, grid: &TileGrid, tile: usize) -> bool {
        debug_assert_eq!(
            grid.tile_of(self.x(row), self.y(row)),
            tile,
            "point {row} is resident outside its canonical tile"
        );
        true
    }

    fn auto_tile_count(&self, space: &Rect, query_side: f32) -> NonZeroUsize {
        crate::tile::auto_tile_count(self, space, query_side)
    }

    #[inline]
    fn build_index<I: SpatialIndex + ?Sized>(&self, index: &mut I) {
        index.build(self);
    }

    #[inline]
    fn probe<I: SpatialIndex + ?Sized>(
        &self,
        index: &I,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        index.for_each_in(self, region, emit);
    }

    #[inline]
    fn batch_join<J: BatchJoin + ?Sized>(
        &self,
        join: &mut J,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    ) {
        join.join(self, queries, emit);
    }
}

/// Rectangles: a querier's region is its own extent (`query_side` is
/// unused), and the intersects predicate serves the join.
impl Shape for ExtentTable {
    type Row = Rect;

    fn with_capacity(n: usize) -> Self {
        ExtentTable::with_capacity(n)
    }

    #[inline]
    fn row(&self, id: EntryId) -> Rect {
        self.rect(id)
    }

    #[inline]
    fn push_row(&mut self, r: Rect) -> EntryId {
        self.push(r)
    }

    #[inline]
    fn extent(&self, id: EntryId) -> Rect {
        self.rect(id)
    }

    #[inline]
    fn size(&self, id: EntryId) -> (f32, f32) {
        let r = self.rect(id);
        (r.width(), r.height())
    }

    #[inline]
    fn move_to(&mut self, id: EntryId, corner: Point) {
        let (w, h) = self.size(id);
        self.set_rect(
            id,
            Rect::new(corner.x, corner.y, corner.x + w, corner.y + h),
        );
    }

    #[inline]
    fn query_region(&self, q: EntryId, _query_side: f32, _space: &Rect) -> Rect {
        self.rect(q)
    }

    #[inline]
    fn tile_reports(&self, row: EntryId, region: &Rect, grid: &TileGrid, tile: usize) -> bool {
        let i = row as usize;
        grid.tile_of(region.x1.max(self.x1s[i]), region.y1.max(self.y1s[i])) == tile
    }

    fn auto_tile_count(&self, _space: &Rect, _query_side: f32) -> NonZeroUsize {
        crate::tile::auto_tile_count_extents(self)
    }

    #[inline]
    fn build_index<I: SpatialIndex + ?Sized>(&self, index: &mut I) {
        index.build_extents(self);
    }

    #[inline]
    fn probe<I: SpatialIndex + ?Sized>(
        &self,
        index: &I,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        index.for_each_intersecting(self, region, emit);
    }

    #[inline]
    fn batch_join<J: BatchJoin + ?Sized>(
        &self,
        join: &mut J,
        queries: &[(EntryId, Rect)],
        emit: &mut dyn FnMut(EntryId, EntryId),
    ) {
        join.join_extents(self, queries, emit);
    }
}

/// The moving-object state of one relation: a table of either shape plus
/// per-row velocities. Velocities live outside the table because no index
/// ever reads them — only the workload's movement model does. A velocity
/// translates the whole row; a rectangle's size never changes after
/// insertion.
#[derive(Clone, Debug, Default)]
pub struct Moving<T> {
    pub table: T,
    pub vx: Vec<f32>,
    pub vy: Vec<f32>,
}

/// Moving points, the paper's relation.
pub type MovingSet = Moving<PointTable>;

/// Moving rectangles, the relation of the intersection join.
pub type MovingExtentSet = Moving<ExtentTable>;

impl<T: Shape> Moving<T> {
    pub fn with_capacity(n: usize) -> Self {
        Moving {
            table: T::with_capacity(n),
            vx: Vec::with_capacity(n),
            vy: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, row: T::Row, v: Vec2) -> EntryId {
        let id = self.table.push_row(row);
        self.vx.push(v.x);
        self.vy.push(v.y);
        id
    }

    /// Total number of row slots, dead rows included (see [`Table::len`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Tombstone object `id` (see [`Table::remove`]): its geometry and
    /// velocity freeze, its handle is never reused, and the movement model
    /// skips it from now on. Returns whether it was live.
    pub fn remove(&mut self, id: EntryId) -> bool {
        self.table.remove(id)
    }

    #[inline]
    pub fn is_live(&self, id: EntryId) -> bool {
        self.table.is_live(id)
    }

    /// Number of live objects.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.table.live_len()
    }

    #[inline]
    pub fn velocity(&self, id: EntryId) -> Vec2 {
        Vec2::new(self.vx[id as usize], self.vy[id as usize])
    }

    #[inline]
    pub fn set_velocity(&mut self, id: EntryId, v: Vec2) {
        self.vx[id as usize] = v.x;
        self.vy[id as usize] = v.y;
    }

    /// Advance every live row one tick of linear motion, reflecting its
    /// lower-left corner off the size-reduced interval `[space.x1,
    /// space.x2 - width]` (ditto for y) so the **whole** row bounces inside
    /// `space` with its size intact ("bounce"). A point has zero size, so
    /// its interval is the space itself. A row wider or taller than the
    /// space pins to the low corner (it cannot fit).
    pub fn advance_bouncing(&mut self, space: &Rect) {
        for i in 0..self.len() {
            let id = entry_id(i);
            if !self.table.is_live(id) {
                continue;
            }
            let r = self.table.extent(id);
            let (w, h) = self.table.size(id);
            let hix = (space.x2 - w).max(space.x1);
            let hiy = (space.y2 - h).max(space.y1);
            let mut x = r.x1 + self.vx[i];
            let mut y = r.y1 + self.vy[i];
            if x < space.x1 {
                x = space.x1 + (space.x1 - x);
                self.vx[i] = -self.vx[i];
            } else if x > hix {
                x = hix - (x - hix);
                self.vx[i] = -self.vx[i];
            }
            if y < space.y1 {
                y = space.y1 + (space.y1 - y);
                self.vy[i] = -self.vy[i];
            } else if y > hiy {
                y = hiy - (y - hiy);
                self.vy[i] = -self.vy[i];
            }
            // A reflection can only escape the interval if speed exceeds
            // its length; clamp defensively so the invariant always holds.
            x = x.clamp(space.x1, hix);
            y = y.clamp(space.y1, hiy);
            self.table.move_to(id, Point::new(x, y));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup_roundtrip() {
        let mut t = PointTable::default();
        let a = t.push(1.0, 2.0);
        let b = t.push(3.0, 4.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.point(a), Point::new(1.0, 2.0));
        assert_eq!(t.point(b), Point::new(3.0, 4.0));
    }

    #[test]
    fn minting_accepts_every_entry_id_up_to_the_last() {
        assert_eq!(mint_entry_id(0), 0);
        assert_eq!(mint_entry_id(EntryId::MAX as usize), EntryId::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows EntryId")]
    fn minting_refuses_the_row_past_the_last_entry_id() {
        mint_entry_id(EntryId::MAX as usize + 1);
    }

    #[test]
    fn set_position_updates_base_data() {
        let mut t = PointTable::default();
        let a = t.push(1.0, 2.0);
        t.set_position(a, 9.0, 8.0);
        assert_eq!(t.point(a), Point::new(9.0, 8.0));
    }

    #[test]
    fn bounds_covers_all_points() {
        let mut t = PointTable::default();
        assert!(t.bounds().is_none());
        t.push(5.0, 5.0);
        t.push(-1.0, 7.0);
        t.push(3.0, -2.0);
        let b = t.bounds().unwrap();
        assert_eq!(b, Rect::new(-1.0, -2.0, 5.0, 7.0));
    }

    #[test]
    fn advance_moves_linearly_inside_space() {
        let mut s = MovingSet::default();
        s.push(Point::new(10.0, 10.0), Vec2::new(1.0, -2.0));
        s.advance_bouncing(&Rect::space(100.0));
        assert_eq!(s.table.point(0), Point::new(11.0, 8.0));
    }

    #[test]
    fn advance_bounces_off_walls_and_flips_velocity() {
        let mut s = MovingSet::default();
        s.push(Point::new(1.0, 99.0), Vec2::new(-3.0, 3.0));
        s.advance_bouncing(&Rect::space(100.0));
        // x: 1 - 3 = -2 -> reflect to 2; y: 99 + 3 = 102 -> reflect to 98.
        assert_eq!(s.table.point(0), Point::new(2.0, 98.0));
        assert_eq!(s.velocity(0), Vec2::new(3.0, -3.0));
    }

    #[test]
    fn remove_tombstones_without_moving_survivors() {
        let mut t = PointTable::default();
        let a = t.push(1.0, 2.0);
        let b = t.push(3.0, 4.0);
        let c = t.push(5.0, 6.0);
        assert!(t.all_live());
        assert!(t.remove(b));
        assert!(!t.remove(b), "second removal is a no-op");
        assert_eq!(t.len(), 3, "slots never compact");
        assert_eq!(t.live_len(), 2);
        assert!(!t.all_live());
        assert!(t.is_live(a) && !t.is_live(b) && t.is_live(c));
        // Surviving handles resolve to exactly the same rows as before.
        assert_eq!(t.point(a), Point::new(1.0, 2.0));
        assert_eq!(t.point(c), Point::new(5.0, 6.0));
        // The dead row's coordinates are frozen, not poisoned.
        assert_eq!(t.point(b), Point::new(3.0, 4.0));
        // Live-only iteration and bounds skip the tombstone.
        let ids: Vec<EntryId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(t.bounds(), Some(Rect::new(1.0, 2.0, 5.0, 6.0)));
    }

    #[test]
    fn pushes_after_removal_never_reuse_handles() {
        let mut t = PointTable::default();
        let a = t.push(1.0, 1.0);
        t.remove(a);
        let b = t.push(2.0, 2.0);
        assert_ne!(a, b);
        assert_eq!(b, 1);
        assert_eq!(t.live_len(), 1);
    }

    #[test]
    fn advance_skips_dead_objects() {
        let mut s = MovingSet::default();
        let a = s.push(Point::new(10.0, 10.0), Vec2::new(1.0, 1.0));
        let b = s.push(Point::new(20.0, 20.0), Vec2::new(1.0, 1.0));
        assert!(s.remove(a));
        assert_eq!(s.live_len(), 1);
        s.advance_bouncing(&Rect::space(100.0));
        assert_eq!(s.table.point(a), Point::new(10.0, 10.0), "frozen");
        assert_eq!(s.table.point(b), Point::new(21.0, 21.0));
    }

    #[test]
    fn advance_never_escapes_space() {
        let space = Rect::space(50.0);
        let mut s = MovingSet::default();
        s.push(Point::new(25.0, 25.0), Vec2::new(13.0, -17.0));
        for _ in 0..1000 {
            s.advance_bouncing(&space);
            let p = s.table.point(0);
            assert!(space.contains_point(p.x, p.y), "escaped at {p:?}");
        }
    }

    #[test]
    fn extent_table_mirrors_the_point_table_contract() {
        let mut t = ExtentTable::default();
        let a = t.push(Rect::new(0.0, 0.0, 2.0, 2.0));
        let b = t.push(Rect::new(5.0, 5.0, 9.0, 8.0));
        let c = t.push(Rect::new(1.0, 1.0, 3.0, 3.0));
        assert_eq!(t.len(), 3);
        assert!(t.all_live());
        assert_eq!(t.rect(b), Rect::new(5.0, 5.0, 9.0, 8.0));
        assert!(t.remove(b));
        assert!(!t.remove(b), "second removal is a no-op");
        assert_eq!(t.len(), 3, "slots never compact");
        assert_eq!(t.live_len(), 2);
        assert!(t.is_live(a) && !t.is_live(b) && t.is_live(c));
        // The dead row's rectangle is frozen, not poisoned.
        assert_eq!(t.rect(b), Rect::new(5.0, 5.0, 9.0, 8.0));
        // Live-only iteration and bounds skip the tombstone.
        let ids: Vec<EntryId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(t.bounds(), Some(Rect::new(0.0, 0.0, 3.0, 3.0)));
        // Handles are never reused after a removal.
        let d = t.push(Rect::at_point(7.0, 7.0));
        assert_eq!(d, 3);
        assert_eq!(t.live_len(), 3);
    }

    #[test]
    fn extent_table_set_rect_updates_all_four_columns() {
        let mut t = ExtentTable::default();
        let a = t.push(Rect::new(0.0, 0.0, 1.0, 1.0));
        t.set_rect(a, Rect::new(4.0, 5.0, 6.0, 7.0));
        assert_eq!(t.rect(a), Rect::new(4.0, 5.0, 6.0, 7.0));
        assert_eq!(
            (t.x1s()[0], t.y1s()[0], t.x2s()[0], t.y2s()[0]),
            (4.0, 5.0, 6.0, 7.0)
        );
    }

    #[test]
    fn both_tables_satisfy_the_shared_table_trait() {
        fn contract<T: Table>(t: &mut T, id: EntryId) {
            assert_eq!(t.len(), 2);
            assert!(t.all_live());
            assert!(t.remove(id));
            assert_eq!(t.live_len(), 1);
            assert!(!t.all_live());
            assert!(!t.is_live(id));
            assert_eq!(t.live_mask().len(), 2);
            assert!(t.bounds().is_some());
            t.clear();
            assert!(t.is_empty());
            assert_eq!(t.bounds(), None);
        }
        let mut p = PointTable::default();
        p.push(1.0, 2.0);
        let id = p.push(3.0, 4.0);
        contract(&mut p, id);
        let mut e = ExtentTable::default();
        e.push(Rect::new(0.0, 0.0, 1.0, 1.0));
        let id = e.push(Rect::new(2.0, 2.0, 3.0, 3.0));
        contract(&mut e, id);
    }

    #[test]
    fn extent_advance_preserves_size_and_bounces() {
        let space = Rect::space(100.0);
        let mut s = MovingExtentSet::default();
        // x: 1 - 3 = -2 -> reflect to 2; y reduced interval is
        // [0, 100 - 4] = [0, 96]: 95 + 3 = 98 -> reflect to 94.
        s.push(Rect::new(1.0, 95.0, 3.0, 99.0), Vec2::new(-3.0, 3.0));
        s.advance_bouncing(&space);
        assert_eq!(s.table.rect(0), Rect::new(2.0, 94.0, 4.0, 98.0));
        assert_eq!(s.velocity(0), Vec2::new(3.0, -3.0));
    }

    #[test]
    fn a_zero_size_rectangle_bounces_exactly_like_a_point() {
        let space = Rect::space(50.0);
        let mut points = MovingSet::default();
        let mut rects = MovingExtentSet::default();
        for (p, v) in [
            (Point::new(25.0, 25.0), Vec2::new(13.0, -17.0)),
            (Point::new(0.5, 49.5), Vec2::new(-3.3, 2.9)),
        ] {
            points.push(p, v);
            rects.push(Rect::at_point(p.x, p.y), v);
        }
        for _ in 0..500 {
            points.advance_bouncing(&space);
            rects.advance_bouncing(&space);
            for id in 0..2 {
                let (p, r) = (points.table.point(id), rects.table.rect(id));
                assert_eq!(
                    (p.x.to_bits(), p.y.to_bits()),
                    (r.x1.to_bits(), r.y1.to_bits())
                );
                assert_eq!(
                    (r.x2.to_bits(), r.y2.to_bits()),
                    (r.x1.to_bits(), r.y1.to_bits())
                );
                assert_eq!(points.velocity(id), rects.velocity(id));
            }
        }
    }

    #[test]
    fn extent_advance_skips_dead_objects_and_stays_inside() {
        let space = Rect::space(50.0);
        let mut s = MovingExtentSet::default();
        let a = s.push(Rect::new(10.0, 10.0, 14.0, 12.0), Vec2::new(13.0, -17.0));
        let b = s.push(Rect::new(20.0, 20.0, 21.0, 21.0), Vec2::new(1.0, 1.0));
        s.remove(a);
        for _ in 0..500 {
            s.advance_bouncing(&space);
            let r = s.table.rect(b);
            assert!(space.contains_rect(&r), "escaped at {r:?}");
            assert_eq!((r.width(), r.height()), (1.0, 1.0), "size drifted");
        }
        assert_eq!(s.table.rect(a), Rect::new(10.0, 10.0, 14.0, 12.0), "frozen");
    }
}
