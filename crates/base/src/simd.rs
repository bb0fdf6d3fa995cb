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
//! Each kernel is a dispatcher, a scalar width and two SIMD widths. The
//! dispatcher picks, per call, the AVX-512 width (16 rows a block) where
//! the CPU has AVX-512F and POPCNT, else the AVX2 width (8 rows) where it
//! has AVX2, else the scalar width: other architectures run it too, and
//! the tests use it as the reference. (The detection macro caches its
//! answer.) The SIMD widths differ only in their lane type (`Avx512`,
//! `Avx2`: the `Simd` trait); one lane test per predicate (`Lanes`) and
//! one block loop per access pattern, loads from the columns
//! (`filter_each`) or gathers through checked ids (`gather_each`), are
//! written once over it. All widths are bit-identical by construction —
//! the lane tests are the ordered-quiet compares of
//! [`Rect::contains_point`] and [`Rect::intersects`], false on NaN — and
//! the tests assert it on boundary ties, NaN lanes and every tail length.
//!
//! Neither block loop branches on which rows hit, since at the
//! selectivities the joins run (a tenth to a third of the rows) no
//! predictor could guess it. Each block packs its hit ids, in lane order,
//! to the front of a register, stores all of it into a buffer on the
//! call's stack (`Hits`), and advances the buffer's length by the hit
//! count: AVX-512 compresses the ids under the compare's `__mmask16`
//! (`vpcompressd`) and counts the mask with `popcnt`; AVX2 permutes them
//! (`vpermd`) by a 256-entry table. The buffer is emitted, in order, when
//! another block might not fit and when the call ends. The tail of 1–15
//! rows (1–7 for AVX2) is one more block under a lane mask: masked loads
//! and gathers read no row past the end, and nothing is padded. A SIMD
//! width calls the scalar width only for a block holding a bad id, which
//! then panics, or for columns longer than gather indices reach.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::geom::Rect;
use crate::table::EntryId;

/// Whether this CPU runs the AVX-512 widths: AVX-512F for the lanes, and
/// POPCNT for the hit count.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("popcnt")
}

/// A kernel's two SIMD widths, `$avx2` and `$avx512`: one body, generic in
/// its lane type `$w`, compiled once with each width's CPU features on, so
/// that every intrinsic in it, its closures' included, inlines.
macro_rules! simd_widths {
    (
        $(#[$doc:meta])*
        fn $avx2:ident, $avx512:ident(
            $w:ident, $cols:ident: $c:ty, $ids:ident: $i:ty, $region:ident, $emit:ident
        ) $body:block
    ) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2<F: FnMut(EntryId) + ?Sized>(
            $cols: $c,
            $ids: $i,
            $region: &Rect,
            $emit: &mut F,
        ) {
            let $w = Avx2::new();
            $body
        }

        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,popcnt")]
        fn $avx512<F: FnMut(EntryId) + ?Sized>(
            $cols: $c,
            $ids: $i,
            $region: &Rect,
            $emit: &mut F,
        ) {
            let $w = Avx512::new();
            $body
        }
    };
}

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
    if has_avx512() {
        // SAFETY: AVX-512F and POPCNT support was just verified on this CPU.
        return unsafe { filter_range_each_avx512(cols, ids, region, emit) };
    } else if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { filter_range_each_avx2(cols, ids, region, emit) };
    }
    filter_range_each_scalar(cols, ids, region, emit);
}

/// Portable width of [`filter_range_each`], and the reference of the
/// SIMD widths.
pub fn filter_range_each_scalar<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    filter_each_scalar(cols, ids, |[x, y]| region.contains_point(x, y), emit);
}

simd_widths! {
    /// The SIMD widths of [`filter_range_each`].
    fn filter_range_each_avx2, filter_range_each_avx512(
        w, cols: [&[f32]; 2], ids: &[EntryId], region, emit
    ) {
        let lanes = Lanes::new(w, region);
        filter_each(w, cols, ids, |v, live| lanes.contains(v, live), emit);
    }
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
    if has_avx512() {
        // SAFETY: AVX-512F and POPCNT support was just verified on this CPU.
        return unsafe { filter_overlap_each_avx512(cols, ids, region, emit) };
    } else if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { filter_overlap_each_avx2(cols, ids, region, emit) };
    }
    filter_overlap_each_scalar(cols, ids, region, emit);
}

/// Portable width of [`filter_overlap_each`], and the reference of the
/// SIMD widths.
pub fn filter_overlap_each_scalar<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    filter_each_scalar(cols, ids, |row| overlaps(region, row), emit);
}

simd_widths! {
    /// The SIMD widths of [`filter_overlap_each`].
    fn filter_overlap_each_avx2, filter_overlap_each_avx512(
        w, cols: [&[f32]; 4], ids: &[EntryId], region, emit
    ) {
        let lanes = Lanes::new(w, region);
        filter_each(w, cols, ids, |v, live| lanes.overlaps(v, live), emit);
    }
}

/// Call `emit` with every id in `ids`, in order, whose rectangle in the
/// columns `[x1, y1, x2, y2]` intersects `region`: the closed test of
/// [`filter_overlap_each`], read through the ids. The SIMD widths gather
/// the coordinates of a block of ids at a time straight from the columns;
/// x86 without AVX2 and other architectures run the scalar width. Ids may
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
    if has_avx512() {
        // SAFETY: AVX-512F and POPCNT support was just verified on this CPU.
        return unsafe { gather_overlap_each_avx512(cols, ids, region, emit) };
    } else if std::arch::is_x86_feature_detected!("avx2") {
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

simd_widths! {
    /// The SIMD widths of [`gather_overlap_each`]: four gathers a block feed
    /// the overlap lane test.
    fn gather_overlap_each_avx2, gather_overlap_each_avx512(
        w, cols: [&[f32]; 4], ids: &[EntryId], region, emit
    ) {
        let lanes = Lanes::new(w, region);
        let scalar = |ids: &[EntryId], emit: &mut F| {
            gather_overlap_each_scalar(cols, ids, region, emit);
        };
        let hits = |v, live| lanes.overlaps(v, live);
        // SAFETY: the closure reads the `n` ids at `p`, as `gather_each` asks.
        unsafe { gather_each(w, cols, ids, |p, n| Some(w.ids(p, n)), hits, scalar, emit) }
    }
}

/// Call `emit` with every slot in `slots`, in order, whose point in the
/// columns `[x, y]` lies inside `region`: the closed test of
/// [`Rect::contains_point`], read through the slots. A slot is a row id
/// widened to 8 bytes, the entry slot of the Simple Grid's inline
/// buckets. The SIMD widths gather the coordinates of a block of slots at
/// a time straight from the columns; x86 without AVX2 and other
/// architectures run the scalar width. Slots may repeat and come in any
/// order.
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
    if has_avx512() {
        // SAFETY: AVX-512F and POPCNT support was just verified on this CPU.
        return unsafe { gather_range_each_avx512(cols, slots, region, emit) };
    } else if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified on this CPU.
        return unsafe { gather_range_each_avx2(cols, slots, region, emit) };
    }
    gather_range_each_scalar(cols, slots, region, emit);
}

/// Portable width of [`gather_range_each`], and the reference of the
/// others: a bad slot panics (conversion or slice index). Never inlined:
/// unrolled into a SIMD width's bad-block path, it doubled that width.
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

simd_widths! {
    /// The SIMD widths of [`gather_range_each`]: each block of slots is
    /// narrowed to `u32` lanes ([`Simd::slots`]), then two gathers feed the
    /// point lane test.
    fn gather_range_each_avx2, gather_range_each_avx512(
        w, cols: [&[f32]; 2], slots: &[u64], region, emit
    ) {
        let lanes = Lanes::new(w, region);
        let scalar = |slots: &[u64], emit: &mut F| {
            gather_range_each_scalar(cols, slots, region, emit);
        };
        let hits = |v, live| lanes.contains(v, live);
        // SAFETY: the closure reads the `n` slots at `p`, as `gather_each` asks.
        unsafe { gather_each(w, cols, slots, |p, n| w.slots(p, n), hits, scalar, emit) }
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

/// A SIMD width of the block loops: `LANES` rows a block, held as `f32`
/// lanes (`F`), `u32` lanes (`I`) and a lane mask (`M`). A value of a
/// width exists only in code that runs with the width's CPU features on
/// (its `new` is a `#[target_feature]` fn), so the safe methods need no
/// other proof. Every method is inlined, so its intrinsics compile with
/// the features of the width's kernels.
#[cfg(target_arch = "x86_64")]
trait Simd: Copy {
    const LANES: usize;
    type F: Copy;
    type I: Copy;
    type M: Copy;

    /// `v` in every lane.
    fn splat(self, v: f32) -> Self::F;
    /// The lanes below `n`, for `n <= LANES`.
    fn below(self, n: usize) -> Self::M;
    /// The lanes of `live` where `a <= b` for every pair `[a, b]`: the
    /// ordered-quiet compare (`_CMP_LE_OQ`), false on NaN.
    fn le_all<const K: usize>(self, live: Self::M, pairs: [[Self::F; 2]; K]) -> Self::M;
    /// Whether no lane of `v` is above `last`, unsigned.
    fn at_most(self, v: Self::I, last: u32) -> bool;
    /// The `n` values at `p` (unaligned) in the lanes below `n`, and 0 in
    /// the others.
    ///
    /// # Safety
    /// The `n` values at `p` must be readable; so for [`Simd::ids`] and
    /// [`Simd::slots`].
    unsafe fn load(self, p: *const f32, n: usize) -> Self::F;
    /// [`Simd::load`] of `u32` ids.
    unsafe fn ids(self, p: *const u32, n: usize) -> Self::I;
    /// The values at `p` that the lanes of `v` index, in the lanes of
    /// `live`, and 0 in the others.
    ///
    /// # Safety
    /// Each lane of `v` in `live` must index a readable value at `p`.
    unsafe fn gather(self, p: *const f32, v: Self::I, live: Self::M) -> Self::F;
    /// Store all lanes of `ids` at `at`, those in `hits` first and in lane
    /// order, and return how many are in `hits`.
    ///
    /// # Safety
    /// `LANES` `u32`s at `at` must be writable.
    unsafe fn compress(self, at: *mut u32, ids: Self::I, hits: Self::M) -> usize;
    /// [`Simd::load`] of `u64` slots, narrowed to their low halves, or
    /// `None` if a high half is set.
    unsafe fn slots(self, p: *const u64, n: usize) -> Option<Self::I>;
}

/// The AVX2 width: 8 lanes, masks as lanes of all ones.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new() -> Avx2 {
        Avx2(())
    }
}

/// # Safety
/// The unsafe methods keep the contracts of [`Simd`], and every method
/// runs on a CPU with AVX2: `self` exists.
#[cfg(target_arch = "x86_64")]
impl Simd for Avx2 {
    const LANES: usize = 8;
    type F = __m256;
    type I = __m256i;
    type M = __m256;

    #[inline(always)]
    unsafe fn load(self, p: *const f32, n: usize) -> __m256 {
        match n {
            8 => _mm256_loadu_ps(p),
            _ => _mm256_maskload_ps(p, _mm256_castps_si256(self.below(n))),
        }
    }

    #[inline(always)]
    unsafe fn ids(self, p: *const u32, n: usize) -> __m256i {
        match n {
            8 => _mm256_loadu_si256(p.cast()),
            _ => _mm256_maskload_epi32(p.cast(), _mm256_castps_si256(self.below(n))),
        }
    }

    #[inline(always)]
    unsafe fn gather(self, p: *const f32, v: __m256i, live: __m256) -> __m256 {
        _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), p.cast(), v, live)
    }

    #[inline(always)]
    unsafe fn compress(self, at: *mut u32, ids: __m256i, hits: __m256) -> usize {
        let mask = _mm256_movemask_ps(hits) as u8;
        let order = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(LEFT_PACK[mask as usize] as i64));
        _mm256_storeu_si256(at.cast(), _mm256_permutevar8x32_epi32(ids, order));
        mask.count_ones() as usize
    }

    /// # Safety
    /// As [`Simd::slots`].
    #[inline(always)]
    unsafe fn slots(self, p: *const u64, n: usize) -> Option<__m256i> {
        // Two loads of 4 slots, under the halves of the live lanes widened
        // to 64 bits.
        let [lo, hi] = match n {
            8 => [
                _mm256_loadu_si256(p.cast()),
                _mm256_loadu_si256(p.add(4).cast()),
            ],
            _ => {
                let live = _mm256_castps_si256(self.below(n));
                let half = |p: *const u64, live| {
                    _mm256_maskload_epi64(p.cast(), _mm256_cvtepi32_epi64(live))
                };
                let hi = _mm256_extracti128_si256::<1>(live);
                [
                    half(p, _mm256_castsi256_si128(live)),
                    half(p.wrapping_add(4), hi),
                ]
            }
        };
        let high_halves = _mm256_set1_epi64x(!0xFFFF_FFFF);
        if _mm256_testz_si256(_mm256_or_si256(lo, hi), high_halves) == 0 {
            return None;
        }
        // The low halves are the even `u32`s: per 128-bit lane the shuffle
        // takes slots (0, 1, 4, 5) and (2, 3, 6, 7), and the 64-bit permute
        // puts the pairs back in slot order.
        let even =
            _mm256_shuffle_ps::<0b10_00_10_00>(_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi));
        Some(_mm256_permute4x64_epi64::<0b11_01_10_00>(
            _mm256_castps_si256(even),
        ))
    }

    #[inline(always)]
    fn splat(self, v: f32) -> __m256 {
        // SAFETY: `self` exists, so AVX2 is on.
        unsafe { _mm256_set1_ps(v) }
    }

    #[inline(always)]
    fn below(self, n: usize) -> __m256 {
        // SAFETY: `self` exists, so AVX2 is on.
        unsafe {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lanes))
        }
    }

    #[inline(always)]
    fn le_all<const K: usize>(self, live: __m256, pairs: [[__m256; 2]; K]) -> __m256 {
        let mut hits = live;
        for [a, b] in &pairs {
            // SAFETY: `self` exists, so AVX2 is on.
            hits = unsafe { _mm256_and_ps(hits, _mm256_cmp_ps::<_CMP_LE_OQ>(*a, *b)) };
        }
        hits
    }

    #[inline(always)]
    fn at_most(self, v: __m256i, last: u32) -> bool {
        // SAFETY: `self` exists, so AVX2 is on.
        unsafe {
            let last = _mm256_set1_epi32(last as i32);
            _mm256_movemask_epi8(_mm256_cmpeq_epi32(_mm256_max_epu32(v, last), last)) == -1
        }
    }
}

/// The AVX-512 width: 16 lanes, masks in mask registers.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512(());

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn new() -> Avx512 {
        Avx512(())
    }
}

/// # Safety
/// The unsafe methods keep the contracts of [`Simd`], and every method
/// runs on a CPU with AVX-512F and POPCNT: `self` exists.
#[cfg(target_arch = "x86_64")]
impl Simd for Avx512 {
    const LANES: usize = 16;
    type F = __m512;
    type I = __m512i;
    type M = __mmask16;

    #[inline(always)]
    unsafe fn load(self, p: *const f32, n: usize) -> __m512 {
        _mm512_maskz_loadu_ps(self.below(n), p)
    }

    #[inline(always)]
    unsafe fn ids(self, p: *const u32, n: usize) -> __m512i {
        _mm512_maskz_loadu_epi32(self.below(n), p.cast())
    }

    #[inline(always)]
    unsafe fn gather(self, p: *const f32, v: __m512i, live: __mmask16) -> __m512 {
        _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), live, v, p.cast())
    }

    #[inline(always)]
    unsafe fn compress(self, at: *mut u32, ids: __m512i, hits: __mmask16) -> usize {
        _mm512_storeu_si512(at.cast(), _mm512_maskz_compress_epi32(hits, ids));
        hits.count_ones() as usize
    }

    /// # Safety
    /// As [`Simd::slots`].
    #[inline(always)]
    unsafe fn slots(self, p: *const u64, n: usize) -> Option<__m512i> {
        // Two loads of 8 slots, each under its half of the live lanes.
        let live = self.below(n);
        let lo = _mm512_maskz_loadu_epi64(live as u8, p.cast());
        let hi = _mm512_maskz_loadu_epi64((live >> 8) as u8, p.wrapping_add(8).cast());
        let high_halves = _mm512_set1_epi64(!0xFFFF_FFFF);
        if _mm512_test_epi64_mask(_mm512_or_si512(lo, hi), high_halves) != 0 {
            return None;
        }
        // The low halves are the even `u32`s of `lo`, then of `hi`.
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        Some(_mm512_permutex2var_epi32(lo, even, hi))
    }

    #[inline(always)]
    fn splat(self, v: f32) -> __m512 {
        // SAFETY: `self` exists, so AVX-512F is on.
        unsafe { _mm512_set1_ps(v) }
    }

    #[inline(always)]
    fn below(self, n: usize) -> __mmask16 {
        (1u32 << n).wrapping_sub(1) as __mmask16
    }

    #[inline(always)]
    fn le_all<const K: usize>(self, live: __mmask16, pairs: [[__m512; 2]; K]) -> __mmask16 {
        let mut hits = live;
        for [a, b] in &pairs {
            // SAFETY: `self` exists, so AVX-512F is on.
            hits = unsafe { _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(hits, *a, *b) };
        }
        hits
    }

    #[inline(always)]
    fn at_most(self, v: __m512i, last: u32) -> bool {
        // SAFETY: `self` exists, so AVX-512F is on.
        unsafe { _mm512_cmple_epu32_mask(v, _mm512_set1_epi32(last as i32)) == __mmask16::MAX }
    }
}

/// `region` broadcast to the lanes of a SIMD width, with the lane tests of
/// the SIMD widths: the compares of [`Rect::contains_point`] and
/// [`Rect::intersects`], each spelled `a <= b` ([`Simd::le_all`]), so every
/// width accepts exactly the rows the scalar tests do. Each test returns
/// the lanes of `live` that hit.
#[cfg(target_arch = "x86_64")]
struct Lanes<W: Simd> {
    w: W,
    x1: W::F,
    y1: W::F,
    x2: W::F,
    y2: W::F,
}

#[cfg(target_arch = "x86_64")]
impl<W: Simd> Lanes<W> {
    #[inline(always)]
    fn new(w: W, region: &Rect) -> Lanes<W> {
        Lanes {
            w,
            x1: w.splat(region.x1),
            y1: w.splat(region.y1),
            x2: w.splat(region.x2),
            y2: w.splat(region.y2),
        }
    }

    /// The lanes of `live` whose point `[x, y]` lies inside the region.
    #[inline(always)]
    fn contains(&self, [x, y]: [W::F; 2], live: W::M) -> W::M {
        let pairs = [[self.x1, x], [x, self.x2], [self.y1, y], [y, self.y2]];
        self.w.le_all(live, pairs)
    }

    /// The lanes of `live` whose rectangle `[x1, y1, x2, y2]` intersects
    /// the region.
    #[inline(always)]
    fn overlaps(&self, [x1, y1, x2, y2]: [W::F; 4], live: W::M) -> W::M {
        let pairs = [[self.x1, x2], [x1, self.x2], [self.y1, y2], [y1, self.y2]];
        self.w.le_all(live, pairs)
    }
}

/// Slots of the hit buffer of a SIMD call: it is emitted once more than
/// `HIT_SLOTS - LANES` ids are in it, so the store of a whole block always
/// fits.
#[cfg(target_arch = "x86_64")]
const HIT_SLOTS: usize = 64;

/// The left-pack permutations of the AVX2 width, by 8-bit hit mask: byte
/// `k` of entry `mask` is the lane of the `k`-th bit set in `mask`, so
/// `vpermd` by the entry's bytes moves a block's hit lanes, in lane order,
/// to its front. A `static`, not a `const`: a `const` array indexed at run
/// time is copied to the stack at every use in unoptimized builds.
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

/// The hit buffer of one call of a SIMD width, over slots on its stack.
/// Each block stores all its id lanes at `len`, packed so that the hit
/// lanes come first ([`Simd::compress`]), and advances `len` by the number
/// of hits, so nothing branches on which lanes hit. The buffer is emitted
/// in one loop when another block might not fit, before a block takes the
/// scalar width, and when the call ends, so ids leave in input order. (The
/// slots are borrowed, not owned, so that `len` lives in a register: the
/// compiler cannot tell a store at a variable offset into the struct from
/// a store to its `len`.)
#[cfg(target_arch = "x86_64")]
struct Hits<'a> {
    slots: &'a mut [EntryId; HIT_SLOTS],
    /// At most `HIT_SLOTS - LANES` between pushes, so a block's store fits.
    len: usize,
}

#[cfg(target_arch = "x86_64")]
impl Hits<'_> {
    /// Append the lanes of `ids` in `hits`, in lane order, and emit the
    /// buffer if another block might not fit.
    #[inline(always)]
    fn push<W: Simd, F: FnMut(EntryId) + ?Sized>(
        &mut self,
        w: W,
        ids: W::I,
        hits: W::M,
        emit: &mut F,
    ) {
        // SAFETY: slots `len..len + LANES` lie in `slots`: `len <=
        // HIT_SLOTS - LANES`, which the flush below restores.
        self.len += unsafe { w.compress(self.slots.as_mut_ptr().add(self.len), ids, hits) };
        if self.len > HIT_SLOTS - W::LANES {
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

/// The block loop of the contiguous SIMD widths, over row `i` of `cols`
/// standing for `ids[i]`. Each block of `LANES` rows, and the tail of
/// fewer, is loaded from every column under the mask of its rows (masked
/// loads touch no row past the end) for `hits`, which returns the lanes of
/// its live lanes that hit, and its hit ids go through the packed buffer.
/// The tail runs in this loop rather than as a call of the scalar width:
/// `twolayer` calls a contiguous kernel once per query in a cell of ~64
/// rows, so every call's fixed cost shows in `churn`'s queries a second.
/// (One loop body for full blocks and the tail: as a closure called for
/// each, the compiler kept it out of line, where it compiles without the
/// width's features.)
///
/// # Panics
/// Panics if a column's length differs from `ids.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn filter_each<W: Simd, const N: usize, F: FnMut(EntryId) + ?Sized>(
    w: W,
    cols: [&[f32]; N],
    ids: &[EntryId],
    hits: impl Fn([W::F; N], W::M) -> W::M,
    emit: &mut F,
) {
    assert_rows(&cols, ids);
    let mut out = Hits {
        slots: &mut [0; HIT_SLOTS],
        len: 0,
    };
    let mut i = 0;
    while i < ids.len() {
        let n = W::LANES.min(ids.len() - i);
        let mut v = [w.splat(0.0); N];
        for (v, c) in v.iter_mut().zip(&cols) {
            // SAFETY: the load reads rows `i..i + n`, which lie in every
            // column: each holds `ids.len()` rows.
            *v = unsafe { w.load(c.as_ptr().add(i), n) };
        }
        // SAFETY: ids `i..i + n` lie in `ids`.
        let block = unsafe { w.ids(ids.as_ptr().add(i), n) };
        out.push(w, block, hits(v, w.below(n)), emit);
        i += n;
    }
    out.flush(emit);
}

/// The block loop of the SIMD gather widths, over ids of type `S`
/// (`EntryId`s, or the grid's `u64` bucket slots) naming rows of `cols`.
/// Each block of `LANES` ids, and the tail of fewer, is read by `read` as
/// `u32` lanes under the mask of its ids (dead lanes read 0), or `None` if
/// an id does not fit. A block whose lanes all lie below the shortest
/// column's length (one unsigned compare) gathers its live lanes'
/// coordinates for `hits`, which returns the lanes that hit, and its hit
/// ids go through the packed buffer. A block holding a bad id flushes the
/// buffer and takes `scalar`, the scalar width, which panics at the first
/// bad id after emitting the hits before it; so do columns longer than
/// `i32::MAX` rows (gather indices are signed 32-bit).
///
/// # Safety
/// `read(p, n)` must read no more than the `n` ids at `p`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gather_each<W: Simd, S, const N: usize, F: FnMut(EntryId) + ?Sized>(
    w: W,
    cols: [&[f32]; N],
    ids: &[S],
    read: impl Fn(*const S, usize) -> Option<W::I>,
    hits: impl Fn([W::F; N], W::M) -> W::M,
    scalar: impl Fn(&[S], &mut F),
    emit: &mut F,
) {
    let rows = cols.iter().map(|c| c.len()).fold(usize::MAX, usize::min);
    // No rows (`rows - 1` wraps), or more than gather indices reach.
    let Ok(last) = i32::try_from(rows.wrapping_sub(1)) else {
        return scalar(ids, emit);
    };
    let mut out = Hits {
        slots: &mut [0; HIT_SLOTS],
        len: 0,
    };
    let mut i = 0;
    while i < ids.len() {
        let n = W::LANES.min(ids.len() - i);
        let live = w.below(n);
        // SAFETY: ids `i..i + n` lie in `ids`.
        let v = unsafe { read(ids.as_ptr().add(i), n) };
        // Lanes at most `last = rows − 1 ≤ i32::MAX` are gather indices
        // below `rows`.
        match v {
            Some(v) if w.at_most(v, last as u32) => {
                let mut v_cols = [w.splat(0.0); N];
                for (v_col, c) in v_cols.iter_mut().zip(&cols) {
                    // SAFETY: every lane indexes a row below `rows`, which
                    // every column holds.
                    *v_col = unsafe { w.gather(c.as_ptr(), v, live) };
                }
                out.push(w, v, hits(v_cols, live), emit);
            }
            _ => {
                out.flush(emit);
                scalar(&ids[i..i + n], emit);
            }
        }
        i += n;
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
    /// scalar width, and each SIMD width whose features it has.
    macro_rules! widths {
        ($kernel:ident, $scalar:ident, $avx2:ident, $avx512:ident) => {{
            let mut widths: Vec<(&'static str, Width<_, _>)> = vec![
                ("dispatched", |c, ids, r, e| $kernel(c, ids, r, e)),
                ("scalar", |c, ids, r, e| $scalar(c, ids, r, e)),
            ];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: detection checked above.
                widths.push(("avx2", |c, ids, r, e| unsafe { $avx2(c, ids, r, e) }));
            }
            #[cfg(target_arch = "x86_64")]
            if has_avx512() {
                // SAFETY: detection checked above.
                widths.push(("avx512", |c, ids, r, e| unsafe { $avx512(c, ids, r, e) }));
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
    /// one row, over the first `len` rows of `cols` for every length 0–33
    /// and all of them: no block, one and two blocks of either SIMD width,
    /// many, and every tail after zero, one and two blocks. Row `i` stands
    /// for the id `7 + 3i`, so a width that emits positions fails. Returns
    /// the number of hits the widths had to find.
    fn check_contiguous<const N: usize>(
        widths: &[(&'static str, Width<N, EntryId>)],
        cols: [&[f32]; N],
        region: &Rect,
        hit: impl Fn([f32; N]) -> bool,
    ) -> usize {
        let rows = cols[0].len();
        let ids: Vec<EntryId> = (0..rows).map(|i| entry_id(7 + 3 * i)).collect();
        let mut hits = 0;
        for len in (0..=33).chain([rows]) {
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
            filter_range_each_avx2,
            filter_range_each_avx512
        )
    }

    /// The widths of [`filter_overlap_each`] this CPU runs.
    fn overlap_each_widths() -> Vec<(&'static str, Width<4, EntryId>)> {
        widths!(
            filter_overlap_each,
            filter_overlap_each_scalar,
            filter_overlap_each_avx2,
            filter_overlap_each_avx512
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
    /// Prints the widths this CPU ran, e.g. `simd widths: scalar avx2
    /// avx512`, so that a log shows which SIMD widths a host tested.
    #[test]
    fn every_width_is_bit_identical_on_random_columns() {
        let widths = range_each_widths();
        let names: Vec<&str> = widths.iter().map(|w| w.0).skip(1).collect();
        println!("simd widths: {}", names.join(" "));
        let (mut xs, mut ys) = random_cols(1_013, 1);
        xs[3] = f32::NAN;
        ys[10] = f32::NAN;
        (xs[20], ys[20]) = (f32::NAN, f32::NAN);
        for (region, floor) in [
            (Rect::new(111.0, 222.0, 666.5, 888.25), 300),
            (Rect::new(-1.0, -1.0, 600.0, 700.0), 350),
        ] {
            let hit = |[x, y]: [f32; 2]| region.contains_point(x, y);
            let hits = check_contiguous(&widths, [&xs, &ys], &region, hit);
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
    /// has one whole block and no tail, and the AVX-512 width one tail, so
    /// only the length check panics.
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
            gather_overlap_each_avx2,
            gather_overlap_each_avx512
        );
        let cols = [&cols.0[..], &cols.1, &cols.2, &cols.3];
        run_widths(&widths, cols, ids, region)
    }

    /// Id slices over `n` rows of every length 0–33 (each tail of either
    /// SIMD width after zero, one and two blocks), and of 1,013 (63 blocks
    /// of 16 or 126 of 8 and a tail of 5, past several hit buffers on a
    /// region that holds most rows): ascending, and drawn at random
    /// (unsorted, with repeats).
    fn id_slices(n: usize, seed: u64) -> Vec<Vec<EntryId>> {
        let mut rng = Xoshiro256::seeded(seed);
        let mut slices = Vec::new();
        for len in (0..=33).chain([1_013]) {
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
        // The bad id inside the first block, inside a later block (of 16
        // too), and in the tail, also behind one or two full blocks of 16
        // and after more than one hit buffer (every row hits); each width
        // emits the hits before it, then panics.
        let places = [
            (8, 5),
            (17, 13),
            (11, 9),
            (1, 0),
            (40, 20),
            (31, 29),
            (33, 32),
            (200, 150),
            (203, 201),
        ];
        for (len, at) in places {
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
            gather_range_each_avx2,
            gather_range_each_avx512
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
        // first and second load of a block of 8 or 16, in a later block (of
        // 16 too), and in the tail, also in either load of a tail behind a
        // full block of 16 and after more than one hit buffer (every row
        // hits). Every width emits the hits before it, then panics.
        let bad = [12, 1 << 32, (1 << 32) + 3, u64::MAX];
        let places = [
            (16, 2),
            (16, 10),
            (8, 5),
            (17, 13),
            (11, 9),
            (1, 0),
            (40, 27),
            (21, 19),
            (31, 29),
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
