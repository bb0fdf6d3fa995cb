//! The refactored Simple Grid storage (Figure 3b): the crate's one bucket
//! arena.
//!
//! The paper's two structural changes (§3.1):
//! 1. the directory cell drops the counter — a single 8-byte bucket handle;
//! 2. buckets store entry handles *inline* — a 16-byte header
//!    (`next`, `len`) followed by `bs` 8-byte entry slots — eliminating the
//!    doubly-linked node layer and one level of indirection.
//!
//! At bs = 4 this is 8 + 16/4 = 12 bytes per point, vs. 32 before.
//!
//! An entry takes `W` slots. `InlineStore` (`W = 1`) is Figure 3b: a query
//! filters a bucket's entry slots with one call of the SIMD gather kernel
//! [`gather_range_each`], which reads the coordinates straight from the
//! base table through the slots; the layout and the traced access stream
//! are the paper's. `InlineStore<2>` copies each point next to its entry
//! (`[entry, packed (x, y) f32 bits]`), removing the base-table hop during
//! filtering. The paper deliberately skips this (it breaks the
//! secondary-index assumption); we implement it as an ablation.
//!
//! The arena also updates in place, for the u-Grid
//! ([`crate::IncrementalGrid`]): [`InlineStore::insert`] returns the
//! entry's `(bucket, slot)`, and [`InlineStore::remove`] fills a hole from
//! the head bucket (only the head of a chain is ever partly full) and puts
//! an emptied head bucket on a free list that bucket allocation pops first.

use sj_base::geom::Rect;
use sj_base::simd::gather_range_each;
use sj_base::table::{entry_id_u64, EntryId, PointTable};
use sj_base::trace::Tracer;

use crate::addr;
use crate::layout_original::NULL;

const BKT_NEXT: usize = 0;
const BKT_LEN: usize = 1;
const HEADER_SLOTS: usize = 2;

/// Most buckets `rows` rows can take over `ncells` cells: one per full
/// bucket, plus a partial one in each of at most `min(rows, ncells)`
/// occupied cells. A small tile fork then holds no bucket per empty cell.
fn max_buckets(rows: usize, bucket_size: u32, ncells: usize) -> usize {
    rows / bucket_size.max(1) as usize + rows.min(ncells)
}

/// See module docs: the Figure 3b layout, at `W` slots per entry.
#[derive(Clone, Debug, Default)]
pub struct InlineStore<const W: usize = 1> {
    /// One slot per cell: head bucket handle.
    cells: Vec<u64>,
    /// Flat bucket arena; bucket `b` occupies slots
    /// `[b, b + 2 + W·bs)`: `[next, len, entry…]`. Handles are slot indices.
    buckets: Vec<u64>,
    /// Emptied buckets, reused before the arena grows.
    free: Vec<u64>,
    bucket_slots: usize,
    bucket_size: u64,
}

impl<const W: usize> InlineStore<W> {
    /// Empty `ncells` cells of `bucket_size`-entry buckets, reserving room
    /// for `expected_points` rows (none for 0: the arena then grows as it
    /// fills).
    pub fn reset(&mut self, ncells: usize, bucket_size: u32, expected_points: usize) {
        self.bucket_size = bucket_size as u64;
        self.bucket_slots = HEADER_SLOTS + W * bucket_size as usize;
        self.cells.clear();
        self.cells.resize(ncells, NULL);
        self.buckets.clear();
        self.free.clear();
        self.buckets
            .reserve_exact(max_buckets(expected_points, bucket_size, ncells) * self.bucket_slots);
    }

    fn alloc_bucket(&mut self, next: u64) -> u64 {
        if let Some(b) = self.free.pop() {
            self.buckets[b as usize + BKT_NEXT] = next;
            return b;
        }
        let h = self.buckets.len() as u64;
        self.buckets.push(next);
        self.buckets.push(0); // len
        self.buckets
            .resize(self.buckets.len() + W * self.bucket_size as usize, 0);
        h
    }

    /// Append an entry's `W` slots to `cell`'s head bucket, pushing a new
    /// head when it is full; returns the entry's `(bucket, slot)`.
    fn push<T: Tracer>(&mut self, cell: usize, entry: [u64; W], tr: &mut T) -> (u64, usize) {
        let dir = addr::DIR_BASE + cell as u64 * addr::INLINE_CELL_BYTES;
        tr.read(dir, addr::INLINE_CELL_BYTES as u32);
        let head = self.cells[cell];
        let bucket = if head == NULL || self.buckets[head as usize + BKT_LEN] == self.bucket_size {
            let b = self.alloc_bucket(head);
            self.cells[cell] = b;
            tr.write(dir, addr::INLINE_CELL_BYTES as u32);
            b
        } else {
            head
        };
        let bbase = bucket as usize;
        tr.read(
            addr::BUCKET_BASE + bucket * 8,
            addr::INLINE_BUCKET_HEADER_BYTES as u32,
        );
        let len = self.buckets[bbase + BKT_LEN] as usize;
        let at = bbase + HEADER_SLOTS + W * len;
        self.buckets[at..at + W].copy_from_slice(&entry);
        self.buckets[bbase + BKT_LEN] = len as u64 + 1;
        tr.write(
            addr::BUCKET_BASE + at as u64 * 8,
            (W as u64 * addr::ENTRY_BYTES) as u32,
        );
        tr.write(addr::BUCKET_BASE + (bucket + BKT_LEN as u64) * 8, 8);
        tr.instr(8);
        (bucket, len)
    }

    /// Remove the entry at `slot` of `bucket`, one of `cell`'s buckets, by
    /// moving the head bucket's last entry into it; a head bucket left
    /// empty goes to the free list. Returns the id now at `(bucket, slot)`:
    /// the moved entry, or the removed one if it was the head's last.
    pub fn remove(&mut self, cell: usize, bucket: u64, slot: usize) -> EntryId {
        let head = self.cells[cell];
        debug_assert_ne!(head, NULL, "removing from an empty cell");
        let hbase = head as usize;
        let len = self.buckets[hbase + BKT_LEN] as usize;
        debug_assert!(len > 0, "head bucket of a non-empty cell is empty");
        let last = hbase + HEADER_SLOTS + W * (len - 1);
        let hole = bucket as usize + HEADER_SLOTS + W * slot;
        self.buckets.copy_within(last..last + W, hole);
        self.buckets[hbase + BKT_LEN] = len as u64 - 1;
        if len == 1 {
            self.cells[cell] = self.buckets[hbase + BKT_NEXT];
            self.free.push(head);
        }
        entry_id_u64(self.buckets[hole])
    }

    /// Walk `cell`'s bucket chain, tracing the directory cell and each
    /// bucket, and hand `visit` each bucket's entry slots.
    #[inline]
    fn each_bucket<T: Tracer>(
        &self,
        cell: usize,
        tr: &mut T,
        mut visit: impl FnMut(&[u64], &mut T),
    ) {
        tr.read(
            addr::DIR_BASE + cell as u64 * addr::INLINE_CELL_BYTES,
            addr::INLINE_CELL_BYTES as u32,
        );
        tr.instr(2);
        let mut b = self.cells[cell];
        while b != NULL {
            let bbase = b as usize;
            let len = self.buckets[bbase + BKT_LEN] as usize;
            tr.read(
                addr::BUCKET_BASE + b * 8,
                (addr::INLINE_BUCKET_HEADER_BYTES as usize + W * len * addr::ENTRY_BYTES as usize)
                    as u32,
            );
            visit(&self.buckets[bbase + HEADER_SLOTS..][..W * len], tr);
            b = self.buckets[bbase + BKT_NEXT];
        }
    }

    pub fn report_all<T: Tracer, F: FnMut(EntryId) + ?Sized>(
        &self,
        cell: usize,
        emit: &mut F,
        tr: &mut T,
    ) {
        self.each_bucket(cell, tr, |slots, tr| {
            let (entries, _) = slots.as_chunks::<W>();
            for entry in entries {
                emit(entry_id_u64(entry[0]));
            }
            tr.instr(2 * entries.len() as u64 + 3);
        });
    }

    /// The id in entry `slot` of `bucket`.
    pub(crate) fn id_at(&self, bucket: u64, slot: usize) -> u64 {
        self.buckets[bucket as usize + HEADER_SLOTS + W * slot]
    }

    /// Live structure bytes (paper §3.1 arithmetic); the trait-level
    /// footprint uses [`InlineStore::allocated_bytes`].
    pub fn live_bytes(&self) -> usize {
        (self.cells.len() + self.buckets.len() + self.free.len()) * std::mem::size_of::<u64>()
    }

    /// Bytes the arenas hold resident (allocated capacity — the
    /// workspace-wide footprint convention).
    pub fn allocated_bytes(&self) -> usize {
        (self.cells.capacity() + self.buckets.capacity() + self.free.capacity())
            * std::mem::size_of::<u64>()
    }

    /// Buckets in the arena, free ones included.
    pub fn num_buckets(&self) -> usize {
        self.buckets
            .len()
            .checked_div(self.bucket_slots)
            .unwrap_or(0)
    }

    /// Buckets on the free list.
    pub fn free_buckets(&self) -> usize {
        self.free.len()
    }
}

impl InlineStore<1> {
    pub fn insert<T: Tracer>(&mut self, cell: usize, entry: EntryId, tr: &mut T) -> (u64, usize) {
        self.push(cell, [u64::from(entry)], tr)
    }

    /// Emit every entry of `cell` whose point lies inside `region`, one
    /// [`gather_range_each`] call per bucket. The tracer sees what the
    /// scalar scan reads: the directory cell, each bucket, and each
    /// entry's x and y in the base table.
    pub fn filter<T: Tracer, F: FnMut(EntryId) + ?Sized>(
        &self,
        cell: usize,
        table: &PointTable,
        region: &Rect,
        emit: &mut F,
        tr: &mut T,
    ) {
        let cols = [table.xs(), table.ys()];
        self.each_bucket(cell, tr, |slots, tr| {
            for &entry in slots {
                tr.read(addr::table_x(entry), addr::COORD_BYTES as u32);
                tr.read(addr::table_y(entry), addr::COORD_BYTES as u32);
            }
            gather_range_each(cols, slots, region, emit);
            tr.instr(6 * slots.len() as u64 + 3);
        });
    }
}

#[inline]
fn pack_xy(x: f32, y: f32) -> u64 {
    ((x.to_bits() as u64) << 32) | y.to_bits() as u64
}

#[inline]
fn unpack_xy(v: u64) -> (f32, f32) {
    (f32::from_bits((v >> 32) as u32), f32::from_bits(v as u32))
}

/// Extension: entry handles *and* coordinates inline. See DESIGN.md §7.
impl InlineStore<2> {
    pub fn insert<T: Tracer>(&mut self, cell: usize, entry: EntryId, x: f32, y: f32, tr: &mut T) {
        self.push(cell, [u64::from(entry), pack_xy(x, y)], tr);
    }

    /// Filter using the *inlined* coordinates — no base-table access.
    /// Never inlined: inlined into `SimpleGrid::visit_cell`, this loop made
    /// the paper stages' report loop there spill to the stack.
    #[inline(never)]
    pub fn filter<T: Tracer, F: FnMut(EntryId) + ?Sized>(
        &self,
        cell: usize,
        region: &Rect,
        emit: &mut F,
        tr: &mut T,
    ) {
        self.each_bucket(cell, tr, |slots, tr| {
            let (entries, _) = slots.as_chunks::<2>();
            for &[entry, xy] in entries {
                let (x, y) = unpack_xy(xy);
                if region.contains_point(x, y) {
                    emit(entry_id_u64(entry));
                }
            }
            tr.instr(5 * entries.len() as u64 + 3);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::table::entry_id;
    use sj_base::trace::{CountingTracer, NullTracer};

    fn table_of(points: &[(f32, f32)]) -> PointTable {
        let mut t = PointTable::default();
        for &(x, y) in points {
            t.push(x, y);
        }
        t
    }

    #[test]
    fn insert_then_report_roundtrips() {
        let mut s = InlineStore::<1>::default();
        s.reset(4, 4, 8);
        for e in 0..6 {
            s.insert(1, e, &mut NullTracer);
        }
        let mut out = Vec::new();
        s.report_all(1, &mut |e| out.push(e), &mut NullTracer);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.num_buckets(), 2);
    }

    #[test]
    fn filter_respects_region() {
        let t = table_of(&[(1.0, 1.0), (5.0, 5.0), (9.0, 9.0)]);
        let mut s = InlineStore::<1>::default();
        s.reset(1, 4, 4);
        for e in 0..3 {
            s.insert(0, e, &mut NullTracer);
        }
        let mut out = Vec::new();
        s.filter(
            0,
            &t,
            &Rect::new(4.0, 4.0, 10.0, 10.0),
            &mut |e| out.push(e),
            &mut NullTracer,
        );
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn filter_traces_the_directory_each_bucket_and_two_coordinates_per_entry() {
        // Nine entries in bs = 4 buckets: 4 + 4 + 1, in a chain of three.
        let points: Vec<(f32, f32)> = (0..9).map(|i| (i as f32, 1.0)).collect();
        let t = table_of(&points);
        let mut s = InlineStore::<1>::default();
        s.reset(1, 4, 9);
        for e in 0..9 {
            s.insert(0, e, &mut NullTracer);
        }
        let mut tr = CountingTracer::default();
        let mut out = Vec::new();
        let region = Rect::new(2.0, 0.0, 6.0, 2.0);
        s.filter(0, &t, &region, &mut |e| out.push(e), &mut tr);
        out.sort_unstable();
        assert_eq!(out, vec![2, 3, 4, 5, 6]);
        assert_eq!(tr.reads, 1 + 3 + 2 * 9, "directory, buckets, x and y");
        let buckets = 3 * 16 + 9 * 8;
        assert_eq!(tr.read_bytes, 8 + buckets + 2 * 9 * 4);
        assert_eq!(tr.instrs, 2 + 3 * 3 + 6 * 9);
        assert_eq!((tr.writes, tr.write_bytes), (0, 0));
    }

    #[test]
    fn memory_matches_paper_arithmetic() {
        // 100 points, one cell, bs = 4: buckets 25 × (16 + 4×8) B = 1200 B,
        // directory 1 × 8 B. Per point: 8 + 16/4 = 12 B (+ directory).
        let mut s = InlineStore::<1>::default();
        s.reset(1, 4, 100);
        for e in 0..100 {
            s.insert(0, e, &mut NullTracer);
        }
        assert_eq!(s.live_bytes(), 25 * (16 + 4 * 8) + 8);
        assert!(s.allocated_bytes() >= s.live_bytes());
    }

    #[test]
    fn report_needs_fewer_touches_than_original_layout() {
        // Same 4 entries as the original-layout test, which needed 6 reads
        // (dir + bucket + 4 nodes); inline needs only dir + bucket.
        let mut s = InlineStore::<1>::default();
        s.reset(1, 4, 4);
        for e in 0..4 {
            s.insert(0, e, &mut NullTracer);
        }
        let mut tr = CountingTracer::default();
        let mut out = Vec::new();
        s.report_all(0, &mut |e| out.push(e), &mut tr);
        assert_eq!(tr.reads, 2);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn inline_coords_filter_skips_base_table() {
        let mut s = InlineStore::<2>::default();
        s.reset(1, 4, 4);
        s.insert(0, 0, 1.0, 1.0, &mut NullTracer);
        s.insert(0, 1, 5.0, 5.0, &mut NullTracer);
        s.insert(0, 2, 9.0, 9.0, &mut NullTracer);
        let mut tr = CountingTracer::default();
        let mut out = Vec::new();
        s.filter(
            0,
            &Rect::new(0.0, 0.0, 6.0, 6.0),
            &mut |e| out.push(e),
            &mut tr,
        );
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
        // dir + one bucket read; zero base-table touches.
        assert_eq!(tr.reads, 2);
    }

    #[test]
    fn remove_fills_the_hole_from_the_head_and_recycles_an_emptied_head() {
        // Nine entries at bs = 4: a chain of three buckets, head first, the
        // head holding 8 alone and the middle bucket 4..8.
        let mut s = InlineStore::<1>::default();
        s.reset(2, 4, 0);
        let locs: Vec<_> = (0..9).map(|e| s.insert(0, e, &mut NullTracer)).collect();
        assert_eq!(s.num_buckets(), 3);
        let chain = |s: &InlineStore| {
            let mut out = Vec::new();
            s.report_all(0, &mut |e| out.push(e), &mut NullTracer);
            out
        };
        assert_eq!(chain(&s), [8, 4, 5, 6, 7, 0, 1, 2, 3]);

        // A hole in the middle bucket takes the head's last entry, 8, which
        // leaves the head empty: it is unlinked onto the free list.
        let (bucket, slot) = locs[5];
        assert_eq!(s.remove(0, bucket, slot), 8);
        assert_eq!(s.id_at(bucket, slot), 8);
        assert_eq!(chain(&s), [4, 8, 6, 7, 0, 1, 2, 3]);
        assert_eq!((s.num_buckets(), s.free_buckets()), (3, 1));

        // The next insert, in another cell, reuses the freed bucket.
        assert_eq!(s.insert(1, 9, &mut NullTracer), locs[8]);
        assert_eq!((s.num_buckets(), s.free_buckets()), (3, 0));
        let mut other = Vec::new();
        s.report_all(1, &mut |e| other.push(e), &mut NullTracer);
        assert_eq!(other, [9]);

        // Removing the head's own last entry moves nothing.
        let (bucket, slot) = locs[7];
        assert_eq!(s.remove(0, bucket, slot), 7);
        assert_eq!(chain(&s), [4, 8, 6, 0, 1, 2, 3]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for &(x, y) in &[(0.0f32, 0.0f32), (-1.5, 3.25), (22_000.0, 1e-7)] {
            let (ux, uy) = unpack_xy(pack_xy(x, y));
            assert_eq!((ux, uy), (x, y));
        }
    }

    #[test]
    fn bucket_overflow_chains() {
        let mut s = InlineStore::<1>::default();
        s.reset(1, 2, 10);
        for e in 0..7 {
            s.insert(0, e, &mut NullTracer);
        }
        assert_eq!(s.num_buckets(), 4); // ceil(7/2)
        let mut out = Vec::new();
        s.report_all(0, &mut |e| out.push(e), &mut NullTracer);
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn alternating_builds_reserve_the_bucket_bound_and_never_double() {
        // A tile fork's rows vary a little tick to tick. Each build fills
        // one cell per row, the worst case for the bound.
        let bound = (4_096 + max_buckets(3_020, 20, 4_096) * (HEADER_SLOTS + 20)) * 8;
        let mut s = InlineStore::<1>::default();
        for rows in [3_000, 3_020, 3_000, 3_020, 3_000] {
            s.reset(4_096, 20, rows);
            for e in 0..rows {
                s.insert(e, entry_id(e), &mut NullTracer);
            }
            assert_eq!(s.num_buckets(), rows);
            assert!(
                s.allocated_bytes() <= bound,
                "{rows} rows: {} B over the 3,020-row bound of {bound} B",
                s.allocated_bytes()
            );
        }
    }

    #[test]
    fn reset_reuses_cleanly() {
        let mut s = InlineStore::<1>::default();
        s.reset(2, 4, 4);
        s.insert(0, 42, &mut NullTracer);
        s.reset(2, 4, 4);
        let mut out = Vec::new();
        s.report_all(0, &mut |e| out.push(e), &mut NullTracer);
        assert!(out.is_empty(), "stale entries after reset: {out:?}");
    }
}
