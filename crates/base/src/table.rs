//! Base data storage.
//!
//! All join techniques in the static-index-nested-loop category are
//! *secondary* indexes: they store 4-byte entry handles ([`EntryId`]) that
//! reference rows of a shared base table and read coordinates through that
//! handle (paper §3.1: "the algorithms operate on pointers and never update
//! the base data directly"). The base table is a structure-of-arrays so a
//! cache line holds 16 x- or y-coordinates.
//!
//! ## One table, two shapes
//!
//! [`Columns<N>`] is the base table of both entry shapes: `N` coordinate
//! columns beside one tombstone mask. Points ([`PointTable`]) are
//! `Columns<2>` (`x`, `y`), rectangles ([`ExtentTable`]) `Columns<4>`
//! (`x1`, `y1`, `x2`, `y2`). A row's extent takes its lower corner from
//! the first two columns and its upper corner from the last two, so a
//! point is the zero-area rectangle at its coordinates. Handle minting,
//! tombstones, extents, bounds and the live-row iterator are written once
//! for every `N` (and reach generic code through [`Table`]); each shape
//! adds only its row-typed accessors, and [`Shape`] decides what differs
//! by shape. A relation in motion is one [`Moving`] of either shape: the
//! table plus per-row velocities and one bouncing movement model, under
//! which a point moves exactly like a zero-size rectangle.
//!
//! ## Churn and tombstones
//!
//! Workloads with population churn (objects arriving and departing, as in
//! the u-Grid line of work) remove rows via [`Columns::remove`]. Removal
//! is a **tombstone**: the row's slot — and therefore every surviving
//! [`EntryId`] — stays exactly where it was; the row is merely marked dead
//! and its coordinates frozen. Handles are never reused within a run, so a
//! `(querier, result)` pair checksum is comparable across techniques and
//! across runs regardless of when removals happen (DESIGN.md §9). Indexes
//! must skip dead rows when they (re)build, and scan-style techniques must
//! skip them at query time; [`Columns::live_ids`] and the shapes' `iter`
//! yield live rows only.

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
/// table's `len()`, because the table mints every row's handle through
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

/// The handle of a new row at `index`, checked in every build. The one
/// push of [`Columns`] calls it where a row is born, so a release build
/// refuses row 2³² instead of wrapping it to id 0 and silently joining the
/// wrong rows.
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

/// The storage contract of the base table, for code generic over the
/// entry shape. [`Columns`] implements it once for every column count,
/// and each method is the inherent method of the same name, documented
/// there. Both shapes thus keep one [`EntryId`] scheme and one tombstone
/// discipline:
///
/// - rows are append-only and **never compact or reuse slots** — a
///   surviving handle resolves to the same row forever;
/// - removal is a tombstone ([`Table::remove`]): the row is marked dead,
///   its geometry frozen in place, and indexes/scans must skip it
///   ([`Table::live_mask`], [`Table::live_ids`]);
/// - [`Table::clear`] is reserved for per-tick scratch tables (tile
///   replicas) that are repopulated from scratch — a driver-owned base
///   table is never cleared.
///
/// The driver's tick actions, the tiled executors' replica handling, and
/// the checksum comparability argument (DESIGN.md §9) depend only on this
/// contract; [`Shape`] adds what differs by shape.
pub trait Table {
    fn with_capacity(n: usize) -> Self
    where
        Self: Sized;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool;
    fn live_len(&self) -> usize;
    fn all_live(&self) -> bool;
    fn is_live(&self, id: EntryId) -> bool;
    fn live_mask(&self) -> &[bool];
    fn live_ids(&self) -> impl Iterator<Item = EntryId> + '_;
    fn remove(&mut self, id: EntryId) -> bool;
    fn clear(&mut self);
    fn extent(&self, id: EntryId) -> Rect;
    fn bounds(&self) -> Option<Rect>;
}

/// Structure-of-arrays base table of `N ≥ 2` coordinate columns: the rows
/// of both entry shapes ([`PointTable`], [`ExtentTable`]). A row's extent
/// takes its lower corner from the first two columns and its upper corner
/// from the last two. Beside the columns sits the tombstone mask:
/// `live[i]` is false once row `i` was removed; rows are never compacted,
/// so surviving handles stay stable.
#[derive(Clone, Debug, PartialEq)]
pub struct Columns<const N: usize> {
    cols: [Vec<f32>; N],
    live: Vec<bool>,
    live_len: usize,
}

/// Points: the columns `x`, `y`.
pub type PointTable = Columns<2>;

/// Axis-aligned rectangles: the columns `x1`, `y1`, `x2`, `y2`, so an
/// intersection filter reads them as contiguous lanes exactly like the
/// point filter reads `x`/`y` (the SIMD overlap kernels in [`crate::simd`]
/// depend on this layout).
pub type ExtentTable = Columns<4>;

impl<const N: usize> Default for Columns<N> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<const N: usize> Columns<N> {
    /// An empty table with room for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        Columns {
            cols: std::array::from_fn(|_| Vec::with_capacity(n)),
            live: Vec::with_capacity(n),
            live_len: 0,
        }
    }

    /// Append a live row and return its handle: the one place a handle is
    /// minted.
    fn push_cols(&mut self, row: [f32; N]) -> EntryId {
        let id = mint_entry_id(self.len());
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.live.push(true);
        self.live_len += 1;
        id
    }

    /// Drop every row — live and dead — keeping allocated capacity. For
    /// per-tick scratch tables (the tile replicas of [`crate::tile`]) that
    /// are repopulated from scratch each build; a driver-owned base table
    /// is never cleared, so the handle-stability guarantee is untouched.
    pub fn clear(&mut self) {
        self.cols.iter_mut().for_each(Vec::clear);
        self.live.clear();
        self.live_len = 0;
    }

    /// Tombstone row `id`: mark it dead, freezing its geometry in place.
    /// Surviving handles are untouched — no row ever moves. Returns
    /// whether the row was live (removing a dead row is a no-op).
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
        self.live_len == self.len()
    }

    /// The raw tombstone mask, indexed by row like the columns.
    #[inline]
    pub fn live_mask(&self) -> &[bool] {
        &self.live
    }

    /// The **live** rows' ids, in row order (dead rows are tombstones,
    /// invisible to every index and join).
    pub fn live_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        (self.live.iter().enumerate())
            .filter(|&(_, &live)| live)
            .map(|(i, _)| entry_id(i))
    }

    /// Total number of row slots, dead rows included — the exclusive upper
    /// bound of valid [`EntryId`]s. Use [`Columns::live_len`] for the
    /// population size.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// Whether the table has no row slots, live or dead.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols[0].is_empty()
    }

    /// Row `id`'s own geometry as a rectangle: the lower corner from the
    /// first two columns, the upper corner from the last two, so a point
    /// is the zero-area rectangle at its coordinates.
    #[inline]
    pub fn extent(&self, id: EntryId) -> Rect {
        let (c, i) = (&self.cols, id as usize);
        Rect::new(c[0][i], c[1][i], c[N - 2][i], c[N - 1][i])
    }

    /// Minimum bounding rectangle of all live rows (`None` when empty).
    pub fn bounds(&self) -> Option<Rect> {
        let mut ids = self.live_ids();
        let first = self.extent(ids.next()?);
        Some(ids.fold(first, |r, id| r.union(&self.extent(id))))
    }
}

impl<const N: usize> Table for Columns<N> {
    fn with_capacity(n: usize) -> Self {
        Columns::with_capacity(n)
    }
    fn len(&self) -> usize {
        Columns::len(self)
    }
    fn is_empty(&self) -> bool {
        Columns::is_empty(self)
    }
    fn live_len(&self) -> usize {
        Columns::live_len(self)
    }
    fn all_live(&self) -> bool {
        Columns::all_live(self)
    }
    fn is_live(&self, id: EntryId) -> bool {
        Columns::is_live(self, id)
    }
    fn live_mask(&self) -> &[bool] {
        Columns::live_mask(self)
    }
    fn live_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        Columns::live_ids(self)
    }
    fn remove(&mut self, id: EntryId) -> bool {
        Columns::remove(self, id)
    }
    fn clear(&mut self) {
        Columns::clear(self)
    }
    fn extent(&self, id: EntryId) -> Rect {
        Columns::extent(self, id)
    }
    fn bounds(&self) -> Option<Rect> {
        Columns::bounds(self)
    }
}

impl PointTable {
    /// Append a (live) row and return its handle.
    pub fn push(&mut self, x: f32, y: f32) -> EntryId {
        self.push_cols([x, y])
    }

    #[inline]
    pub fn x(&self, id: EntryId) -> f32 {
        self.cols[0][id as usize]
    }

    #[inline]
    pub fn y(&self, id: EntryId) -> f32 {
        self.cols[1][id as usize]
    }

    #[inline]
    pub fn point(&self, id: EntryId) -> Point {
        Point::new(self.x(id), self.y(id))
    }

    #[inline]
    pub fn set_position(&mut self, id: EntryId, x: f32, y: f32) {
        let [xs, ys] = &mut self.cols;
        xs[id as usize] = x;
        ys[id as usize] = y;
    }

    /// Raw coordinate slices — used by indexes that bulk-load (sorting
    /// entry ids by coordinate) and by the tracer to model base-table
    /// address touches.
    #[inline]
    pub fn xs(&self) -> &[f32] {
        &self.cols[0]
    }

    #[inline]
    pub fn ys(&self) -> &[f32] {
        &self.cols[1]
    }

    /// Iterate the **live** rows (dead rows are tombstones, invisible to
    /// every index and join).
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Point)> + '_ {
        let [xs, ys] = &self.cols;
        (xs.iter().zip(ys).zip(&self.live).enumerate())
            .filter(|(_, (_, &live))| live)
            .map(|(i, ((&x, &y), _))| (entry_id(i), Point::new(x, y)))
    }
}

impl ExtentTable {
    /// Append a (live) rectangle row and return its handle.
    pub fn push(&mut self, r: Rect) -> EntryId {
        self.push_cols([r.x1, r.y1, r.x2, r.y2])
    }

    /// The rectangle of row `id`.
    #[inline]
    pub fn rect(&self, id: EntryId) -> Rect {
        self.extent(id)
    }

    #[inline]
    pub fn set_rect(&mut self, id: EntryId, r: Rect) {
        let i = id as usize;
        let [x1s, y1s, x2s, y2s] = &mut self.cols;
        x1s[i] = r.x1;
        y1s[i] = r.y1;
        x2s[i] = r.x2;
        y2s[i] = r.y2;
    }

    /// Raw coordinate columns, for bulk loads and the SIMD overlap filter.
    #[inline]
    pub fn x1s(&self) -> &[f32] {
        &self.cols[0]
    }

    #[inline]
    pub fn y1s(&self) -> &[f32] {
        &self.cols[1]
    }

    #[inline]
    pub fn x2s(&self) -> &[f32] {
        &self.cols[2]
    }

    #[inline]
    pub fn y2s(&self) -> &[f32] {
        &self.cols[3]
    }

    /// Iterate the **live** rows.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, Rect)> + '_ {
        self.live_ids().map(|id| (id, self.rect(id)))
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
/// - the row's **size**, which movement keeps ([`Shape::size`],
///   [`Shape::move_to`]); its own extent, which tiling replicates it by,
///   is the table's ([`Table::extent`]);
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

    /// Row `id`'s geometry.
    fn row(&self, id: EntryId) -> Self::Row;

    /// Append a live row and return its handle.
    fn push_row(&mut self, row: Self::Row) -> EntryId;

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

    #[inline]
    fn row(&self, id: EntryId) -> Point {
        self.point(id)
    }

    #[inline]
    fn push_row(&mut self, p: Point) -> EntryId {
        self.push(p.x, p.y)
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

    #[inline]
    fn row(&self, id: EntryId) -> Rect {
        self.rect(id)
    }

    #[inline]
    fn push_row(&mut self, r: Rect) -> EntryId {
        self.push(r)
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
        grid.tile_of(region.x1.max(self.x1s()[i]), region.y1.max(self.y1s()[i])) == tile
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

    /// The handle and tombstone contract both shapes keep, run by each
    /// shape's own test on three rows, the middle one
    /// removed: `bounds` is the bounding box of the other two, and
    /// `iter_ids` lists the ids of the shape's own `iter`.
    fn table_contract<T: Shape>(rows: [T::Row; 3], bounds: Rect, iter_ids: fn(&T) -> Vec<EntryId>) {
        let mut t = T::default();
        let [a, b, c] = rows.map(|row| t.push_row(row));
        assert_eq!([a, b, c], [0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert!(t.all_live());
        assert!(t.remove(b));
        assert!(!t.remove(b), "second removal is a no-op");
        assert_eq!(t.len(), 3, "slots never compact");
        assert_eq!(t.live_len(), 2);
        assert!(!t.all_live());
        assert!(t.is_live(a) && !t.is_live(b) && t.is_live(c));
        assert_eq!(t.live_mask(), [true, false, true]);
        // Surviving handles resolve to exactly the same rows as before,
        // and the dead row's geometry is frozen, not poisoned.
        assert_eq!([a, b, c].map(|id| t.row(id)), rows);
        // Live-only iteration and bounds skip the tombstone.
        assert_eq!(t.live_ids().collect::<Vec<_>>(), [a, c]);
        assert_eq!(iter_ids(&t), [a, c]);
        assert_eq!(t.bounds(), Some(bounds));
        // Handles are never reused after a removal.
        assert_eq!(t.push_row(rows[1]), 3);
        assert_eq!(t.live_len(), 3);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.bounds(), None);
    }

    #[test]
    fn remove_tombstones_without_moving_survivors() {
        let p = Point::new;
        table_contract::<PointTable>(
            [p(1.0, 2.0), p(3.0, 4.0), p(5.0, 6.0)],
            Rect::new(1.0, 2.0, 5.0, 6.0),
            |t| t.iter().map(|(id, _)| id).collect(),
        );
    }

    #[test]
    fn extent_table_mirrors_the_point_table_contract() {
        let r = Rect::new;
        table_contract::<ExtentTable>(
            [
                r(0.0, 0.0, 2.0, 2.0),
                r(5.0, 5.0, 9.0, 8.0),
                r(1.0, 1.0, 3.0, 3.0),
            ],
            Rect::new(0.0, 0.0, 3.0, 3.0),
            |t| t.iter().map(|(id, _)| id).collect(),
        );
    }

    #[test]
    fn pushes_after_removal_never_reuse_handles() {
        // Removing the only row frees slot 0; the next push still mints 1.
        fn contract<T: Shape>(row: T::Row) {
            let mut t = T::default();
            let a = t.push_row(row);
            t.remove(a);
            let b = t.push_row(row);
            assert_ne!(a, b);
            assert_eq!(b, 1);
            assert_eq!(t.live_len(), 1);
        }
        contract::<PointTable>(Point::new(1.0, 1.0));
        contract::<ExtentTable>(Rect::new(1.0, 1.0, 2.0, 2.0));
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
    fn an_extent_spans_the_first_two_columns_to_the_last_two() {
        let mut points = PointTable::default();
        let a = points.push(3.0, 4.0);
        assert_eq!(points.extent(a), Rect::at_point(3.0, 4.0));
        let mut rects = ExtentTable::default();
        let b = rects.push(Rect::new(1.0, 2.0, 5.0, 7.0));
        assert_eq!(rects.extent(b), Rect::new(1.0, 2.0, 5.0, 7.0));
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
