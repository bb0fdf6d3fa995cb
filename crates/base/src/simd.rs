//! Vectorized range and overlap filtering over structure-of-arrays
//! coordinates.
//!
//! The paper's closing argument — implementation dominates in main
//! memory — invites one more step it does not take: data-parallel
//! filtering. The module holds four kernels, points or rectangles, read
//! from contiguous columns beside an id column or through a slice of ids.
//! Each calls `emit` with the ids of the matching rows, in input order.
//! The kernels and their users:
//!
//! - [`filter_range_each`], points in a region, row `i` of the columns
//!   standing for `ids[i]`: `VecSearchJoin` in `sj-binsearch`, the
//!   quadtree's leaves, and `twolayer`'s point cells, one call per query
//!   in a cell;
//! - [`filter_overlap_each`], rectangles over contiguous columns the same
//!   way: `twolayer`'s rectangle buckets, one call per query replica;
//! - [`gather_overlap_each`], rectangles read through a slice of row
//!   ids: the Simple Grid's extent path, one call per cell row;
//! - [`gather_range_each`], points read through a slice of `u64` entry
//!   slots: the Simple Grid's inline buckets (Figure 3b), one call per
//!   bucket a query filters.
//!
//! Each kernel is a dispatcher and a scalar width. The dispatcher runs a
//! private AVX2 width, 8 rows at a time, where the CPU has AVX2 (detected
//! once at runtime; the detection macro caches its answer, so a call pays
//! one load and a predictable branch). x86 without AVX2 and other
//! architectures run the scalar width, which the tests also use as the
//! reference. The AVX2 widths share one lane test per predicate (`Lanes`)
//! and one block loop per access pattern: unaligned loads from the columns
//! (`filter_each_avx2`), or gathers through ids checked against the
//! columns' length (`gather_each_avx2`). All widths are bit-identical by
//! construction — the lane tests are the ordered-quiet `>=`/`<=` compares
//! of [`Rect::contains_point`] and [`Rect::intersects`], false on NaN —
//! and the tests assert it on boundary ties, NaN lanes and every tail
//! length.
//!
//! Neither block loop branches on which rows hit, since at the
//! selectivities the joins run (a tenth to a third of the rows) no
//! predictor could guess it. Each block's hit ids are left-packed into a
//! small buffer on the stack of the call (`Hits`): one `vpermd` by the
//! permutation the compare mask selects from a 256-entry table, one
//! unaligned store of all 8 lanes, and a length advanced by the mask's
//! popcount. The buffer is emitted, in order, in one loop when it fills
//! and when the call ends. The tail of 1–7 rows runs as one more block
//! under a lane mask: the contiguous loop loads it with masked loads, the
//! gather loop pads it with the tail's first id. An AVX2 width calls the
//! scalar width only for a block holding a bad id, which then panics, or
//! for columns longer than gather indices reach.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m256i};

use crate::geom::Rect;
use crate::table::EntryId;

/// Call `emit` with `ids[i]`, in order, for every row `i` whose point in
/// the columns `[x, y]` lies inside `region`: the closed test of
/// [`Rect::contains_point`]. This is the shape of a secondary index whose
/// coordinate copies are sorted in another order than the base table.
///
/// # Panics
/// Panics if a column's length differs from `ids.len()`, in every width.
pub fn filter_range_each<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { filter_range_each_avx2(cols, ids, region, emit) };
    }
    filter_range_each_scalar(cols, ids, region, emit);
}

/// Portable width of [`filter_range_each`], and the reference of the
/// AVX2 width.
pub fn filter_range_each_scalar<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    filter_each_scalar(cols, ids, |[x, y]| region.contains_point(x, y), emit);
}

/// AVX2 width of [`filter_range_each`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn filter_range_each_avx2<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    let lanes = Lanes::new(region);
    filter_each_avx2(cols, ids, |v| lanes.contains(v), emit);
}

/// Call `emit` with `ids[i]`, in order, for every row `i` whose rectangle
/// in the columns `[x1, y1, x2, y2]` intersects `region`: the closed test
/// of [`Rect::intersects`], so touching edges intersect and a NaN
/// coordinate never does.
///
/// # Panics
/// Panics if a column's length differs from `ids.len()`, in every width.
pub fn filter_overlap_each<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { filter_overlap_each_avx2(cols, ids, region, emit) };
    }
    filter_overlap_each_scalar(cols, ids, region, emit);
}

/// Portable width of [`filter_overlap_each`], and the reference of the
/// AVX2 width.
pub fn filter_overlap_each_scalar<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    filter_each_scalar(cols, ids, |row| overlaps(region, row), emit);
}

/// AVX2 width of [`filter_overlap_each`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn filter_overlap_each_avx2<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    let lanes = Lanes::new(region);
    filter_each_avx2(cols, ids, |v| lanes.overlaps(v), emit);
}

/// Call `emit` with every id in `ids`, in order, whose rectangle in the
/// columns `[x1, y1, x2, y2]` intersects `region`: the closed test of
/// [`filter_overlap_each`], read through the ids. The AVX2 width gathers
/// the coordinates of 8 ids at a time straight from the columns; x86
/// without AVX2 and other architectures run the scalar width. Ids may
/// repeat and come in any order.
///
/// # Panics
/// Panics at the first id that is out of bounds of any column, after
/// emitting the hits before it, in every width.
pub fn gather_overlap_each<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { gather_overlap_each_avx2(cols, ids, region, emit) };
    }
    gather_overlap_each_scalar(cols, ids, region, emit);
}

/// Portable width of [`gather_overlap_each`]; slice indexing panics on a
/// bad id.
pub fn gather_overlap_each_scalar<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    let [x1s, y1s, x2s, y2s] = cols;
    for &id in ids {
        let i = id as usize;
        if overlaps(region, [x1s[i], y1s[i], x2s[i], y2s[i]]) {
            emit(id);
        }
    }
}

/// AVX2 width of [`gather_overlap_each`]: each block of 8 ids is checked
/// against the shortest column's length, then four gathers feed the
/// overlap lane test.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gather_overlap_each_avx2<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    use std::arch::x86_64::{_mm256_i32gather_ps, _mm256_loadu_si256};

    let rows = cols.iter().map(|c| c.len()).fold(usize::MAX, usize::min);
    let ptrs = cols.map(<[f32]>::as_ptr);
    let lanes = Lanes::new(region);
    // SAFETY: AVX2 is enabled here. `lanes` reads the 32 bytes of one
    // block of 8 ids. `hits` gathers only lanes below `rows`, which the
    // block loop checks first, and every column holds `rows` rows.
    unsafe {
        gather_each_avx2(
            rows,
            ids,
            |block| Some(_mm256_loadu_si256(block.as_ptr().cast())),
            |v| lanes.overlaps(ptrs.map(|p| _mm256_i32gather_ps::<4>(p, v))),
            |ids, emit| gather_overlap_each_scalar(cols, ids, region, emit),
            emit,
        )
    }
}

/// Call `emit` with every slot in `slots`, in order, whose point in the
/// columns `[x, y]` lies inside `region`: the closed test of
/// [`Rect::contains_point`], read through the slots. A slot is a row id
/// widened to 8 bytes, the entry slot of the Simple Grid's inline
/// buckets. The AVX2 width gathers the coordinates of 8 slots at a time
/// straight from the columns; x86 without AVX2 and other architectures
/// run the scalar width. Slots may repeat and come in any order.
///
/// # Panics
/// Panics at the first slot that is out of bounds of a column or above
/// [`EntryId::MAX`], after emitting the hits before it, in every width.
pub fn gather_range_each<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    slots: &[u64],
    region: &Rect,
    emit: &mut F,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { gather_range_each_avx2(cols, slots, region, emit) };
    }
    gather_range_each_scalar(cols, slots, region, emit);
}

/// Portable width of [`gather_range_each`], and the reference of the
/// others: a bad slot panics (conversion or slice index). Never inlined:
/// unrolled into the AVX2 width's bad-block path, it doubled that width.
#[inline(never)]
pub fn gather_range_each_scalar<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    slots: &[u64],
    region: &Rect,
    emit: &mut F,
) {
    let [xs, ys] = cols;
    for &slot in slots {
        let Ok(id) = EntryId::try_from(slot) else {
            panic!("slot {slot} is not an EntryId");
        };
        let i = id as usize;
        if region.contains_point(xs[i], ys[i]) {
            emit(id);
        }
    }
}

/// AVX2 width of [`gather_range_each`]: each block of 8 slots is narrowed
/// to `u32` lanes and checked against the shorter column's length, then
/// two gathers feed the point lane test. A block holding a slot above
/// [`EntryId::MAX`] takes the scalar width, like one past a column.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gather_range_each_avx2<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    slots: &[u64],
    region: &Rect,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm256_castps_si256, _mm256_castsi256_ps, _mm256_i32gather_ps, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_permute4x64_epi64, _mm256_set1_epi64x, _mm256_shuffle_ps,
        _mm256_testz_si256,
    };

    let rows = cols[0].len().min(cols[1].len());
    let ptrs = cols.map(<[f32]>::as_ptr);
    let high_halves = _mm256_set1_epi64x(!0xFFFF_FFFF);
    let lanes = Lanes::new(region);
    // SAFETY: AVX2 is enabled here. `lanes` reads the 64 bytes of one
    // block of 8 slots, as two loads of 4. `hits` gathers only lanes below
    // `rows`, which the block loop checks first, and both columns hold
    // `rows` rows.
    unsafe {
        gather_each_avx2(
            rows,
            slots,
            |block| {
                let lo = _mm256_loadu_si256(block.as_ptr().cast());
                let hi = _mm256_loadu_si256(block[4..].as_ptr().cast());
                if _mm256_testz_si256(_mm256_or_si256(lo, hi), high_halves) == 0 {
                    return None;
                }
                // The low halves are the even `u32`s: per 128-bit lane the
                // shuffle takes slots (0, 1, 4, 5) and (2, 3, 6, 7), and the
                // 64-bit permute puts the pairs back in slot order.
                let even = _mm256_shuffle_ps::<0b10_00_10_00>(
                    _mm256_castsi256_ps(lo),
                    _mm256_castsi256_ps(hi),
                );
                Some(_mm256_permute4x64_epi64::<0b11_01_10_00>(
                    _mm256_castps_si256(even),
                ))
            },
            |v| lanes.contains(ptrs.map(|p| _mm256_i32gather_ps::<4>(p, v))),
            |slots, emit| gather_range_each_scalar(cols, slots, region, emit),
            emit,
        )
    }
}

/// Scalar rect-overlap test of a row `[x1, y1, x2, y2]`, spelled exactly
/// like [`Rect::intersects`]: closed semantics, touching edges overlap,
/// any NaN coordinate fails.
#[inline]
fn overlaps(region: &Rect, [x1, y1, x2, y2]: [f32; 4]) -> bool {
    region.x1 <= x2 && x1 <= region.x2 && region.y1 <= y2 && y1 <= region.y2
}

/// The contract of the contiguous kernels: every column holds one row per
/// id.
fn assert_rows<const N: usize>(cols: &[&[f32]; N], ids: &[EntryId]) {
    assert!(
        cols.iter().all(|c| c.len() == ids.len()),
        "coordinate and id columns must have equal length"
    );
}

/// The scalar loop of the contiguous kernels: `ids[i]` for every row `i`
/// of `cols` that `hit` accepts.
fn filter_each_scalar<const N: usize, F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; N],
    ids: &[EntryId],
    hit: impl Fn([f32; N]) -> bool,
    emit: &mut F,
) {
    assert_rows(&cols, ids);
    for (i, &id) in ids.iter().enumerate() {
        if hit(cols.map(|c| c[i])) {
            emit(id);
        }
    }
}

/// `region` broadcast to 8 lanes, with the lane tests of the AVX2 widths:
/// the ordered-quiet compares (`_CMP_GE_OQ`, `_CMP_LE_OQ`: false on NaN)
/// of [`Rect::contains_point`] and [`Rect::intersects`], so every width
/// accepts exactly the rows the scalar tests do. Each test returns a
/// compare mask, all ones in a hit lane.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Lanes {
    x1: __m256,
    y1: __m256,
    x2: __m256,
    y2: __m256,
}

#[cfg(target_arch = "x86_64")]
impl Lanes {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new(region: &Rect) -> Lanes {
        use std::arch::x86_64::_mm256_set1_ps;
        Lanes {
            x1: _mm256_set1_ps(region.x1),
            y1: _mm256_set1_ps(region.y1),
            x2: _mm256_set1_ps(region.x2),
            y2: _mm256_set1_ps(region.y2),
        }
    }

    /// The lanes whose point `[x, y]` lies inside the region.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn contains(self, [x, y]: [__m256; 2]) -> __m256 {
        use std::arch::x86_64::{_mm256_and_ps, _mm256_cmp_ps, _CMP_GE_OQ, _CMP_LE_OQ};
        let in_x = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(x, self.x1),
            _mm256_cmp_ps::<_CMP_LE_OQ>(x, self.x2),
        );
        let in_y = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(y, self.y1),
            _mm256_cmp_ps::<_CMP_LE_OQ>(y, self.y2),
        );
        _mm256_and_ps(in_x, in_y)
    }

    /// The lanes whose rectangle `[x1, y1, x2, y2]` intersects the region.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn overlaps(self, [x1, y1, x2, y2]: [__m256; 4]) -> __m256 {
        use std::arch::x86_64::{_mm256_and_ps, _mm256_cmp_ps, _CMP_GE_OQ, _CMP_LE_OQ};
        let in_x = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LE_OQ>(x1, self.x2),
            _mm256_cmp_ps::<_CMP_GE_OQ>(x2, self.x1),
        );
        let in_y = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LE_OQ>(y1, self.y2),
            _mm256_cmp_ps::<_CMP_GE_OQ>(y2, self.y1),
        );
        _mm256_and_ps(in_x, in_y)
    }
}

/// Slots of the hit buffer of an AVX2 call: it is emitted once more than
/// `HIT_SLOTS - 8` ids are in it, so the 8-lane store of a block always
/// fits.
#[cfg(target_arch = "x86_64")]
const HIT_SLOTS: usize = 64;

/// The left-pack permutations, by 8-bit hit mask: byte `k` of entry
/// `mask` is the lane of the `k`-th bit set in `mask`, so `vpermd` by the
/// entry's bytes moves a block's hit lanes, in lane order, to its front.
/// A `static`, not a `const`: a `const` array indexed at run time is
/// copied to the stack at every use in unoptimized builds.
#[cfg(target_arch = "x86_64")]
static LEFT_PACK: [u64; 256] = {
    let mut table = [0; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut lane, mut k) = (0, 0);
        while lane < 8 {
            if mask >> lane & 1 == 1 {
                table[mask] |= (lane as u64) << (8 * k);
                k += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// The hit buffer of one call of an AVX2 width, over slots on its stack.
/// Each block stores all 8 of its id lanes at `len`, permuted so that the
/// hit lanes come first, and advances `len` by the number of hits, so
/// nothing branches on which lanes hit. The buffer is emitted in one loop
/// when another block might not fit, before a block or tail takes the
/// scalar width, and when the call ends, so ids leave in input order.
/// (The slots are borrowed, not owned, so that `len` lives in a register:
/// the compiler cannot tell a store at a variable offset into the struct
/// from a store to its `len`.)
#[cfg(target_arch = "x86_64")]
struct Hits<'a> {
    slots: &'a mut [EntryId; HIT_SLOTS],
    /// At most `HIT_SLOTS - 8` between pushes, so a block's store fits.
    len: usize,
}

#[cfg(target_arch = "x86_64")]
impl Hits<'_> {
    /// Append the lanes of `ids` set in the compare mask `hits`, in lane
    /// order, and emit the buffer if another block might not fit.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn push<F: FnMut(EntryId) + ?Sized>(&mut self, ids: __m256i, hits: __m256, emit: &mut F) {
        use std::arch::x86_64::{
            _mm256_cvtepu8_epi32, _mm256_movemask_ps, _mm256_permutevar8x32_epi32,
            _mm256_storeu_si256, _mm_cvtsi64_si128,
        };
        let mask = _mm256_movemask_ps(hits) as u8;
        let order = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(LEFT_PACK[mask as usize] as i64));
        // SAFETY: the store is unaligned, and slots `len..len + 8` lie in
        // `slots`: `len <= HIT_SLOTS - 8`, which the flush below restores.
        unsafe {
            let at = self.slots.as_mut_ptr().add(self.len);
            _mm256_storeu_si256(at.cast(), _mm256_permutevar8x32_epi32(ids, order));
        }
        self.len += mask.count_ones() as usize;
        if self.len > HIT_SLOTS - 8 {
            self.flush(emit);
        }
    }

    /// Emit the buffered ids, in order, and empty the buffer.
    fn flush<F: FnMut(EntryId) + ?Sized>(&mut self, emit: &mut F) {
        for &id in &self.slots[..self.len] {
            emit(id);
        }
        self.len = 0;
    }
}

/// The lanes below `n`, all ones: the live lanes of a tail of `n` rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn lanes_below(n: usize) -> __m256i {
    use std::arch::x86_64::{_mm256_cmpgt_epi32, _mm256_set1_epi32, _mm256_setr_epi32};
    debug_assert!(n < 8, "a tail holds at most 7 rows");
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// The compare mask `hits` with only the lanes in `live` kept.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn only(hits: __m256, live: __m256i) -> __m256 {
    use std::arch::x86_64::{_mm256_and_ps, _mm256_castsi256_ps};
    _mm256_and_ps(hits, _mm256_castsi256_ps(live))
}

/// The block loop of the contiguous AVX2 widths, over row `i` of `cols`
/// standing for `ids[i]`. Each block of 8 rows is loaded from every
/// column for `hits`, which returns the lane test as a compare mask, and
/// its hit ids go through the packed buffer. The tail of 1–7 rows is one
/// more block, read by masked loads that touch no row past the end and
/// with its dead lanes masked off the hits. It runs in this loop rather
/// than as a call of the scalar width: `twolayer` calls a contiguous
/// kernel once per query in a cell of ~64 rows, so every call's fixed
/// cost shows in `churn`'s queries a second.
///
/// # Panics
/// Panics if a column's length differs from `ids.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn filter_each_avx2<const N: usize, F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; N],
    ids: &[EntryId],
    hits: impl Fn([__m256; N]) -> __m256,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_epi32, _mm256_maskload_ps,
    };

    assert_rows(&cols, ids);
    let mut out = Hits {
        slots: &mut [0; HIT_SLOTS],
        len: 0,
    };
    let (blocks, tail) = ids.as_chunks::<8>();
    for (b, block) in blocks.iter().enumerate() {
        let i = b * 8;
        // SAFETY: the loads are unaligned, `block` is 8 ids, and rows
        // `i..i + 8` lie in every column: each holds `ids.len() >= i + 8`
        // rows.
        let (v, block) = unsafe {
            let v = cols.map(|c| _mm256_loadu_ps(c.as_ptr().add(i)));
            (v, _mm256_loadu_si256(block.as_ptr().cast()))
        };
        out.push(block, hits(v), emit);
    }
    if !tail.is_empty() {
        let (i, live) = (ids.len() - tail.len(), lanes_below(tail.len()));
        // SAFETY: the masked loads read only the `tail.len()` lanes of
        // `live`, rows `i..ids.len()`, which lie in `tail` and in every
        // column (each holds `ids.len()` rows); the other lanes read as 0.
        let (v, tail) = unsafe {
            let v = cols.map(|c| _mm256_maskload_ps(c.as_ptr().add(i), live));
            (v, _mm256_maskload_epi32(tail.as_ptr().cast(), live))
        };
        out.push(tail, only(hits(v), live), emit);
    }
    out.flush(emit);
}

/// The block loop of the AVX2 gather widths, over ids of type `S`
/// (`EntryId`s, or the grid's `u64` bucket slots) naming rows of columns
/// that each hold at least `rows` rows. `lanes` reads a block of 8 ids as
/// `u32` lanes, or returns `None` if one does not fit in 32 bits. A block
/// whose lanes all lie below `rows` (one unsigned max and compare) goes
/// to `hits`, which gathers the lanes' coordinates and returns the lane
/// test as a compare mask, and its hit ids go through the packed buffer.
/// The tail of 1–7 ids is one more block, padded with its first id and
/// with the padding masked off the hits. A block or tail holding a bad id
/// flushes the buffer and takes `scalar`, the scalar width, which panics
/// at the first bad id after emitting the hits before it; so do columns
/// longer than `i32::MAX` rows (gather indices are signed 32-bit).
///
/// # Safety
/// `lanes` must read no more than its block, and `hits` must read only the
/// rows its lanes name, given lanes below `rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn gather_each_avx2<S, F>(
    rows: usize,
    ids: &[S],
    lanes: impl Fn(&[S; 8]) -> Option<__m256i>,
    hits: impl Fn(__m256i) -> __m256,
    scalar: impl Fn(&[S], &mut F),
    emit: &mut F,
) where
    S: Copy,
    F: FnMut(EntryId) + ?Sized,
{
    use std::arch::x86_64::{
        _mm256_cmpeq_epi32, _mm256_max_epu32, _mm256_movemask_epi8, _mm256_set1_epi32,
    };

    // No rows (`rows - 1` wraps), or more than gather indices reach.
    let Ok(last) = i32::try_from(rows.wrapping_sub(1)) else {
        return scalar(ids, emit);
    };
    let max_id = _mm256_set1_epi32(last);
    // The block's lanes, if each is at most `last = rows − 1 ≤ i32::MAX`:
    // a non-negative gather index below `rows`.
    let checked = |block: &[S; 8]| {
        lanes(block).filter(|&v| {
            _mm256_movemask_epi8(_mm256_cmpeq_epi32(_mm256_max_epu32(v, max_id), max_id)) == -1
        })
    };
    let mut out = Hits {
        slots: &mut [0; HIT_SLOTS],
        len: 0,
    };
    let (blocks, tail) = ids.as_chunks::<8>();
    for block in blocks {
        let Some(v) = checked(block) else {
            out.flush(emit);
            scalar(block, emit);
            continue;
        };
        out.push(v, hits(v), emit);
    }
    if !tail.is_empty() {
        // Eight selects rather than a copy of `tail.len()` ids, which
        // compiles to a call of `memcpy`.
        let id = |k: usize| tail[if k < tail.len() { k } else { 0 }];
        let padded = [id(0), id(1), id(2), id(3), id(4), id(5), id(6), id(7)];
        let Some(v) = checked(&padded) else {
            out.flush(emit);
            return scalar(tail, emit);
        };
        out.push(v, only(hits(v), lanes_below(tail.len())), emit);
    }
    out.flush(emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::table::{entry_id, entry_id_u64};

    fn random_cols(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Xoshiro256::seeded(seed);
        let xs = (0..n).map(|_| rng.range_f32(0.0, 1000.0)).collect();
        let ys = (0..n).map(|_| rng.range_f32(0.0, 1000.0)).collect();
        (xs, ys)
    }

    /// Points exactly on every edge and corner of `[100,200]²`, plus
    /// just-outside near-misses — the ties where `>=`/`>` would diverge.
    fn boundary_cols() -> (Vec<f32>, Vec<f32>) {
        let xs = vec![
            100.0,
            200.0,
            150.0,
            99.999,
            200.001,
            100.0,
            200.0,
            150.0,
            100.0,
            f32::NAN,
            150.0,
        ];
        let ys = vec![
            100.0,
            200.0,
            100.0,
            150.0,
            150.0,
            200.0,
            100.0,
            200.0,
            99.999,
            150.0,
            f32::NAN,
        ];
        (xs, ys)
    }

    /// `col` repeated to 1,013 rows: 126 blocks of 8 and a tail of 5.
    fn tiled(col: &[f32]) -> Vec<f32> {
        col.iter().copied().cycle().take(1_013).collect()
    }

    /// One width of a kernel over `N` columns and ids of type `S`.
    type Width<const N: usize, S> = fn([&[f32]; N], &[S], &Rect, &mut dyn FnMut(EntryId));

    /// The widths of a kernel this CPU runs, by name: the dispatcher, the
    /// scalar width and, with AVX2, the AVX2 width.
    macro_rules! widths {
        ($kernel:ident, $scalar:ident, $avx2:ident) => {{
            let mut widths: Vec<(&'static str, Width<_, _>)> = vec![
                ("dispatched", |c, ids, r, e| $kernel(c, ids, r, e)),
                ("scalar", |c, ids, r, e| $scalar(c, ids, r, e)),
            ];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: detection checked above.
                widths.push(("avx2", |c, ids, r, e| unsafe { $avx2(c, ids, r, e) }));
            }
            widths
        }};
    }

    /// Each width in `widths`, by name, with what it emitted before
    /// returning or panicking, and whether it panicked.
    fn run_widths<const N: usize, S>(
        widths: &[(&'static str, Width<N, S>)],
        cols: [&[f32]; N],
        ids: &[S],
        region: &Rect,
    ) -> Vec<(&'static str, Vec<EntryId>, bool)> {
        widths
            .iter()
            .map(|&(name, width)| {
                let mut out = Vec::new();
                let run =
                    std::panic::AssertUnwindSafe(|| width(cols, ids, region, &mut |e| out.push(e)));
                let panicked = std::panic::catch_unwind(run).is_err();
                (name, out, panicked)
            })
            .collect()
    }

    /// Every width of a contiguous kernel against `hit`, its predicate on
    /// one row, over the first `len` rows of `cols` for every length 0–17
    /// and all of them: no block, one and two blocks, many, and every
    /// tail. Row `i` stands for the id `7 + 3i`, so a width that emits
    /// positions fails. Returns the number of hits the widths had to find.
    fn check_contiguous<const N: usize>(
        widths: &[(&'static str, Width<N, EntryId>)],
        cols: [&[f32]; N],
        region: &Rect,
        hit: impl Fn([f32; N]) -> bool,
    ) -> usize {
        let rows = cols[0].len();
        let ids: Vec<EntryId> = (0..rows).map(|i| entry_id(7 + 3 * i)).collect();
        let mut hits = 0;
        for len in (0..=17).chain([rows]) {
            let cols = cols.map(|c| &c[..len]);
            let want: Vec<EntryId> = (0..len)
                .filter(|&i| hit(cols.map(|c| c[i])))
                .map(|i| ids[i])
                .collect();
            hits += want.len();
            for (width, got, panicked) in run_widths(widths, cols, &ids[..len], region) {
                assert!(!panicked, "{width} panicked on {len} rows");
                assert_eq!(got, want, "{width} on {len} rows");
            }
        }
        hits
    }

    /// The widths of [`filter_range_each`] this CPU runs.
    fn range_each_widths() -> Vec<(&'static str, Width<2, EntryId>)> {
        widths!(
            filter_range_each,
            filter_range_each_scalar,
            filter_range_each_avx2
        )
    }

    /// The widths of [`filter_overlap_each`] this CPU runs.
    fn overlap_each_widths() -> Vec<(&'static str, Width<4, EntryId>)> {
        widths!(
            filter_overlap_each,
            filter_overlap_each_scalar,
            filter_overlap_each_avx2
        )
    }

    /// [`filter_range_each`]'s widths against [`Rect::contains_point`] on
    /// the boundary ties, tiled to 1,013 rows (see [`check_contiguous`]).
    #[test]
    fn avx2_matches_scalar_on_boundaries() {
        let (xs, ys) = boundary_cols();
        let region = Rect::new(100.0, 100.0, 200.0, 200.0);
        let hit = |[x, y]: [f32; 2]| region.contains_point(x, y);
        let cols = [&tiled(&xs)[..], &tiled(&ys)];
        let hits = check_contiguous(&range_each_widths(), cols, &region, hit);
        assert!(hits > 500, "too few hits to pin the widths: {hits}");
    }

    /// [`filter_range_each`]'s widths against [`Rect::contains_point`] on
    /// random columns with NaN lanes (see [`check_contiguous`]), in a
    /// region inside the columns and in one holding the origin, where a
    /// tail lane past the end (read as 0) would hit were it not masked off.
    #[test]
    fn every_width_is_bit_identical_on_random_columns() {
        let (mut xs, mut ys) = random_cols(1_013, 1);
        xs[3] = f32::NAN;
        ys[10] = f32::NAN;
        (xs[20], ys[20]) = (f32::NAN, f32::NAN);
        for (region, floor) in [
            (Rect::new(111.0, 222.0, 666.5, 888.25), 300),
            (Rect::new(-1.0, -1.0, 600.0, 700.0), 350),
        ] {
            let hit = |[x, y]: [f32; 2]| region.contains_point(x, y);
            let hits = check_contiguous(&range_each_widths(), [&xs, &ys], &region, hit);
            assert!(hits > floor, "too few hits in {region:?}: {hits}");
        }
    }

    /// Every width of [`filter_range_each`] emits `ids[i]` for row `i`
    /// whatever the ids are: drawn at random over the whole `EntryId`
    /// range and unsorted, with `EntryId::MAX` on the first and last hit.
    #[test]
    fn gather_widths_are_bit_identical() {
        let (xs, ys) = random_cols(1_013, 9);
        let region = Rect::new(100.0, 100.0, 800.0, 500.0);
        let rows: Vec<usize> = (0..xs.len())
            .filter(|&i| region.contains_point(xs[i], ys[i]))
            .collect();
        assert!(
            rows.len() > 200,
            "too few hits to pin the widths: {}",
            rows.len()
        );
        let mut rng = Xoshiro256::seeded(9);
        let mut ids: Vec<EntryId> = (0..xs.len()).map(|_| rng.next_u32()).collect();
        ids[rows[0]] = EntryId::MAX;
        ids[rows[rows.len() - 1]] = EntryId::MAX;
        let want: Vec<EntryId> = rows.iter().map(|&i| ids[i]).collect();
        for (width, got, panicked) in run_widths(&range_each_widths(), [&xs, &ys], &ids, &region) {
            assert!(!panicked, "{width} panicked");
            assert_eq!(got, want, "{width}");
        }
    }

    #[test]
    fn matches_scalar_on_random_data() {
        let (xs, ys) = random_cols(1_003, 1); // odd length exercises the tail
        let ids: Vec<EntryId> = (10..1_013).collect();
        let region = Rect::new(200.0, 300.0, 600.0, 700.0);
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        filter_range_each([&xs, &ys], &ids, &region, &mut |e| fast.push(e));
        filter_range_each_scalar([&xs, &ys], &ids, &region, &mut |e| slow.push(e));
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let region = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut out = Vec::new();
        filter_range_each([&[]; 2], &[], &region, &mut |e| out.push(e));
        filter_overlap_each([&[]; 4], &[], &region, &mut |e| out.push(e));
        gather_range_each([&[]; 2], &[], &region, &mut |e| out.push(e));
        gather_overlap_each([&[]; 4], &[], &region, &mut |e| out.push(e));
        assert!(out.is_empty());
        filter_range_each([&[0.5]; 2], &[7], &region, &mut |e| out.push(e));
        filter_overlap_each([&[0.5], &[0.5], &[2.0], &[2.0]], &[9], &region, &mut |e| {
            out.push(e)
        });
        gather_range_each([&[0.5]; 2], &[0], &region, &mut |e| out.push(e));
        gather_overlap_each([&[0.5]; 4], &[0], &region, &mut |e| out.push(e));
        assert_eq!(out, vec![7, 9, 0, 0]);
    }

    /// A column one row shorter or longer than the ids, in every width of
    /// both contiguous kernels. With 8 ids and 9-row columns the AVX2 width
    /// has one whole block and no tail, so only the length check panics.
    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_columns_panic() {
        let (long, ids) = (vec![0.5f32; 9], (0..9).collect::<Vec<EntryId>>());
        let region = Rect::new(0.0, 0.0, 1.0, 1.0);
        let (ranges, overlaps) = (range_each_widths(), overlap_each_widths());
        for (short, ids) in [(&long[..8], &ids[..]), (&long[..], &ids[..8])] {
            let widths = run_widths(&ranges, [&long[..], short], ids, &region);
            let widths = widths.into_iter().chain(run_widths(
                &overlaps,
                [&long[..], &long, short, &long],
                ids,
                &region,
            ));
            for (width, _, panicked) in widths {
                assert!(
                    panicked,
                    "{width}: {} ids, a column of {}",
                    ids.len(),
                    short.len()
                );
            }
        }
        filter_range_each([&[1.0], &[]], &[0], &region, &mut |_| {});
    }

    /// Random well-formed rect columns (x1 <= x2, y1 <= y2).
    fn random_rect_cols(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Xoshiro256::seeded(seed);
        let mut cols = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n {
            let x1 = rng.range_f32(0.0, 950.0);
            let y1 = rng.range_f32(0.0, 950.0);
            cols.0.push(x1);
            cols.1.push(y1);
            cols.2.push(x1 + rng.range_f32(0.0, 50.0));
            cols.3.push(y1 + rng.range_f32(0.0, 50.0));
        }
        cols
    }

    /// Rectangles exactly touching every edge/corner of `[100,200]²`, plus
    /// just-outside near-misses, degenerate zero-area rects, and NaN
    /// lanes — the ties where `<=`/`<` (or a non-quiet compare) would
    /// diverge across widths.
    fn boundary_rect_cols() -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut cols = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut push = |x1: f32, y1: f32, x2: f32, y2: f32| {
            cols.0.push(x1);
            cols.1.push(y1);
            cols.2.push(x2);
            cols.3.push(y2);
        };
        push(50.0, 50.0, 100.0, 100.0); // corner touch
        push(200.0, 200.0, 250.0, 250.0); // opposite corner touch
        push(50.0, 120.0, 100.0, 130.0); // left edge touch
        push(200.0, 120.0, 250.0, 130.0); // right edge touch
        push(120.0, 50.0, 130.0, 100.0); // bottom edge touch
        push(120.0, 200.0, 130.0, 250.0); // top edge touch
        push(50.0, 120.0, 99.999, 130.0); // near miss left
        push(200.001, 120.0, 250.0, 130.0); // near miss right
        push(150.0, 150.0, 150.0, 150.0); // zero-area inside
        push(100.0, 100.0, 100.0, 100.0); // zero-area on the corner
        push(99.999, 99.999, 99.999, 99.999); // zero-area just outside
        push(f32::NAN, 120.0, 130.0, 130.0); // NaN lanes never match
        push(120.0, f32::NAN, 130.0, 130.0);
        push(120.0, 120.0, f32::NAN, 130.0);
        push(120.0, 120.0, 130.0, f32::NAN);
        push(0.0, 0.0, 300.0, 300.0); // strictly containing the query
        cols
    }

    #[test]
    fn overlap_filter_matches_rect_intersects_on_boundaries() {
        let region = Rect::new(100.0, 100.0, 200.0, 200.0);
        let (x1s, y1s, x2s, y2s) = boundary_rect_cols();
        let ids: Vec<EntryId> = (0..x1s.len()).map(entry_id).collect();
        let mut got = Vec::new();
        filter_overlap_each([&x1s, &y1s, &x2s, &y2s], &ids, &region, &mut |e| {
            got.push(e)
        });
        let mut expect = Vec::new();
        for i in 0..x1s.len() {
            // NaN lanes cannot construct a Rect (debug assert), so use the
            // raw closed-overlap conjunction as the oracle — identical to
            // Rect::intersects on well-formed rows.
            if region.x1 <= x2s[i]
                && x1s[i] <= region.x2
                && region.y1 <= y2s[i]
                && y1s[i] <= region.y2
            {
                expect.push(i as EntryId);
            }
        }
        assert_eq!(got, expect);
        // Touching edges/corners and degenerate rects all match; near
        // misses and NaN lanes never do.
        assert_eq!(expect, vec![0, 1, 2, 3, 4, 5, 8, 9, 15]);
    }

    /// [`filter_overlap_each`]'s widths against [`Rect::intersects`] on the
    /// boundary ties, tiled to 1,013 rows (see [`check_contiguous`]).
    #[test]
    fn overlap_widths_are_bit_identical_on_boundary_ties() {
        let (x1s, y1s, x2s, y2s) = boundary_rect_cols();
        let cols = [&x1s, &y1s, &x2s, &y2s].map(|c| tiled(c));
        let region = Rect::new(100.0, 100.0, 200.0, 200.0);
        let hit = |[x1, y1, x2, y2]: [f32; 4]| region.intersects(&Rect { x1, y1, x2, y2 });
        let cols = cols.each_ref().map(|c| &c[..]);
        let hits = check_contiguous(&overlap_each_widths(), cols, &region, hit);
        assert!(hits > 500, "too few hits to pin the widths: {hits}");
    }

    /// [`filter_overlap_each`]'s widths against [`Rect::intersects`] on
    /// random columns with NaN lanes (see [`check_contiguous`]), in a
    /// region inside the columns and in one holding the origin, where a
    /// tail lane past the end (read as 0) would hit were it not masked off.
    #[test]
    fn overlap_widths_are_bit_identical_on_random_columns() {
        let mut random = random_rect_cols(1_013, 13);
        for (i, col) in [&mut random.0, &mut random.1, &mut random.2, &mut random.3]
            .into_iter()
            .enumerate()
        {
            col[7 * i + 3] = f32::NAN;
        }
        let cols = [&random.0[..], &random.1, &random.2, &random.3];
        for (region, floor) in [
            (Rect::new(111.0, 222.0, 666.5, 888.25), 300),
            (Rect::new(-1.0, -1.0, 600.0, 700.0), 350),
        ] {
            let hit = |[x1, y1, x2, y2]: [f32; 4]| region.intersects(&Rect { x1, y1, x2, y2 });
            let hits = check_contiguous(&overlap_each_widths(), cols, &region, hit);
            assert!(hits > floor, "too few hits in {region:?}: {hits}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_extent_columns_panic() {
        filter_overlap_each(
            [&[1.0], &[1.0], &[], &[1.0]],
            &[0],
            &Rect::new(0.0, 0.0, 1.0, 1.0),
            &mut |_| {},
        );
    }

    #[test]
    fn gather_translates_through_id_column() {
        // The contiguous kernels emit `ids[i]` for row `i`, the translation
        // the secondary indexes' sorted coordinate copies need.
        let (xs, ys) = random_cols(517, 3);
        let ids: Vec<EntryId> = (0..517).map(|i| 1000 + i as EntryId * 2).collect();
        let region = Rect::new(100.0, 100.0, 800.0, 500.0);
        let mut got = Vec::new();
        filter_range_each([&xs, &ys], &ids, &region, &mut |e| got.push(e));
        let mut expect = Vec::new();
        for i in 0..xs.len() {
            if region.contains_point(xs[i], ys[i]) {
                expect.push(ids[i]);
            }
        }
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    type RectCols = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

    /// The oracle: [`Rect::intersects`] on each id's row, in id order.
    fn intersecting_ids(cols: &RectCols, ids: &[EntryId], region: &Rect) -> Vec<EntryId> {
        let (x1s, y1s, x2s, y2s) = cols;
        let row = |i: usize| Rect {
            x1: x1s[i],
            y1: y1s[i],
            x2: x2s[i],
            y2: y2s[i],
        };
        let hit = |id: &EntryId| region.intersects(&row(*id as usize));
        ids.iter().copied().filter(hit).collect()
    }

    /// Each width of [`gather_overlap_each`] this CPU runs (see
    /// [`run_widths`]).
    fn gather_widths(
        cols: &RectCols,
        ids: &[EntryId],
        region: &Rect,
    ) -> Vec<(&'static str, Vec<EntryId>, bool)> {
        let widths = widths!(
            gather_overlap_each,
            gather_overlap_each_scalar,
            gather_overlap_each_avx2
        );
        let cols = [&cols.0[..], &cols.1, &cols.2, &cols.3];
        run_widths(&widths, cols, ids, region)
    }

    /// Id slices over `n` rows of every length 0–17, and of 1,013 (126
    /// blocks and a tail of 5, past several hit buffers on a region that
    /// holds most rows): ascending, and drawn at random (unsorted, with
    /// repeats).
    fn id_slices(n: usize, seed: u64) -> Vec<Vec<EntryId>> {
        let mut rng = Xoshiro256::seeded(seed);
        let mut slices = Vec::new();
        for len in (0..=17).chain([1_013]) {
            slices.push((0..len).map(|i| entry_id(i % n)).collect());
            slices.push((0..len).map(|_| entry_id(rng.range_usize(n))).collect());
        }
        slices
    }

    #[test]
    fn gather_overlap_widths_match_rect_intersects_through_the_ids() {
        let mut random = random_rect_cols(40, 13);
        for (i, col) in [&mut random.0, &mut random.1, &mut random.2, &mut random.3]
            .into_iter()
            .enumerate()
        {
            col[7 * i + 3] = f32::NAN;
        }
        let inputs = [
            (boundary_rect_cols(), Rect::new(100.0, 100.0, 200.0, 200.0)),
            (random.clone(), Rect::new(111.0, 222.0, 666.5, 888.25)),
            (random, Rect::new(20.0, 20.0, 980.0, 980.0)),
        ];
        let (mut hits, mut most) = (0, 0);
        for (seed, (cols, region)) in (1..).zip(&inputs) {
            for ids in id_slices(cols.0.len(), seed) {
                let want = intersecting_ids(cols, &ids, region);
                (hits, most) = (hits + want.len(), most.max(want.len()));
                for (width, got, panicked) in gather_widths(cols, &ids, region) {
                    assert!(!panicked, "{width} panicked on {ids:?}");
                    assert_eq!(got, want, "{width} on {ids:?}");
                }
            }
        }
        assert!(hits > 100, "too few hits to pin the widths: {hits}");
        assert!(most > 500, "no call spans several hit buffers: {most}");
    }

    #[test]
    fn gather_overlap_panics_on_an_id_out_of_bounds_in_every_width() {
        let cols = random_rect_cols(12, 5);
        let region = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        // The bad id inside the first block, inside a later block, and in
        // the tail, also after more than one hit buffer (every row hits);
        // each width emits the hits before it, then panics.
        for (len, at) in [(8, 5), (17, 13), (11, 9), (1, 0), (200, 150), (203, 201)] {
            let mut ids: Vec<EntryId> = (0..len).map(|i| entry_id(i % 12)).collect();
            ids[at] = 12;
            let want = intersecting_ids(&cols, &ids[..at], &region);
            for (width, got, panicked) in gather_widths(&cols, &ids, &region) {
                assert!(panicked, "{width}: id 12 of 12 rows at {at} of {len}");
                assert_eq!(got, want, "{width}: hits before the bad id");
            }
        }
        let empty: RectCols = Default::default();
        for (width, _, panicked) in gather_widths(&empty, &[0], &region) {
            assert!(panicked, "{width}: id 0 of no rows");
        }
        // A column one row short: its last row is out of bounds too.
        let mut short = cols.clone();
        short.3.pop();
        let ids: Vec<EntryId> = (0..12).collect();
        let want = intersecting_ids(&cols, &ids[..11], &region);
        for (width, got, panicked) in gather_widths(&short, &ids, &region) {
            assert!(panicked, "{width}: id 11 of a column of 11");
            assert_eq!(got, want, "{width}: hits before the short row");
        }
    }

    /// The oracle of [`gather_range_each`]: [`Rect::contains_point`] on
    /// each slot's row, in slot order.
    fn contained_slots(xs: &[f32], ys: &[f32], slots: &[u64], region: &Rect) -> Vec<EntryId> {
        let ids = slots.iter().map(|&s| entry_id_u64(s));
        ids.filter(|&id| region.contains_point(xs[id as usize], ys[id as usize]))
            .collect()
    }

    /// Each width of [`gather_range_each`] this CPU runs (see
    /// [`run_widths`]).
    fn range_widths(
        xs: &[f32],
        ys: &[f32],
        slots: &[u64],
        region: &Rect,
    ) -> Vec<(&'static str, Vec<EntryId>, bool)> {
        let widths = widths!(
            gather_range_each,
            gather_range_each_scalar,
            gather_range_each_avx2
        );
        run_widths(&widths, [xs, ys], slots, region)
    }

    #[test]
    fn gather_range_widths_match_contains_point_through_the_slots() {
        let (mut xs, mut ys) = random_cols(40, 17);
        xs[3] = f32::NAN;
        ys[10] = f32::NAN;
        (xs[20], ys[20]) = (f32::NAN, f32::NAN);
        let inputs = [
            (boundary_cols(), Rect::new(100.0, 100.0, 200.0, 200.0)),
            (
                (xs.clone(), ys.clone()),
                Rect::new(111.0, 222.0, 666.5, 888.25),
            ),
            ((xs, ys), Rect::new(20.0, 20.0, 980.0, 980.0)),
        ];
        let (mut hits, mut most) = (0, 0);
        for (seed, ((xs, ys), region)) in (1..).zip(&inputs) {
            for ids in id_slices(xs.len(), seed) {
                let slots: Vec<u64> = ids.into_iter().map(u64::from).collect();
                let want = contained_slots(xs, ys, &slots, region);
                (hits, most) = (hits + want.len(), most.max(want.len()));
                for (width, got, panicked) in range_widths(xs, ys, &slots, region) {
                    assert!(!panicked, "{width} panicked on {slots:?}");
                    assert_eq!(got, want, "{width} on {slots:?}");
                }
            }
        }
        assert!(hits > 100, "too few hits to pin the widths: {hits}");
        assert!(most > 500, "no call spans several hit buffers: {most}");
    }

    #[test]
    fn gather_range_panics_on_a_bad_slot_in_every_width() {
        let (xs, ys) = random_cols(12, 5);
        let region = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        // A slot one past the rows, slots whose low half names a real row
        // but whose high half is set, and the largest slot; each in the
        // first and second load of a block, in a later block, and in the
        // tail, also after more than one hit buffer (every row hits).
        // Every width emits the hits before it, then panics.
        let bad = [12, 1 << 32, (1 << 32) + 3, u64::MAX];
        let places = [
            (16, 2),
            (8, 5),
            (17, 13),
            (11, 9),
            (1, 0),
            (200, 150),
            (203, 201),
        ];
        for slot in bad {
            for (len, at) in places {
                let mut slots: Vec<u64> = (0..len).map(|i| i % 12).collect();
                slots[at] = slot;
                let want = contained_slots(&xs, &ys, &slots[..at], &region);
                assert!(!want.is_empty() || at == 0);
                for (width, got, panicked) in range_widths(&xs, &ys, &slots, &region) {
                    assert!(panicked, "{width}: slot {slot} at {at} of {len}");
                    assert_eq!(got, want, "{width}: hits before slot {slot}");
                }
            }
        }
        for (width, _, panicked) in range_widths(&[], &[], &[0], &region) {
            assert!(panicked, "{width}: slot 0 of no rows");
        }
        // A y column one row short: its last row is out of bounds too.
        let slots: Vec<u64> = (0..12).collect();
        let want = contained_slots(&xs, &ys, &slots[..11], &region);
        for (width, got, panicked) in range_widths(&xs, &ys[..11], &slots, &region) {
            assert!(panicked, "{width}: slot 11 of a column of 11");
            assert_eq!(got, want, "{width}: hits before the short row");
        }
    }
}
