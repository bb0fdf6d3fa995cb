//! Vectorized range and overlap filtering over structure-of-arrays
//! coordinates.
//!
//! The paper's closing argument — implementation dominates in main
//! memory — invites one more step it does not take: data-parallel
//! filtering. A contiguous slice of columns can be tested against a
//! rectangle 8 lanes at a time with AVX2 where the CPU has it (detected
//! once at runtime), 4 lanes with SSE2 otherwise (unconditionally
//! available on x86_64); other architectures use an unrolled scalar loop
//! that LLVM auto-vectorizes. The kernels and their users:
//!
//! - [`filter_range`] and [`filter_range_gather_each`], points in a
//!   region: `VecSearchJoin` in `sj-binsearch` and the quadtree's leaves;
//! - [`filter_overlap_each`], rectangles over contiguous columns: the
//!   scan's extent path and `twolayer`'s buckets;
//! - [`gather_overlap_each`], rectangles read through a slice of row
//!   ids: the Simple Grid's extent path, one call per cell row;
//! - [`gather_range_each`], points read through a slice of `u64` entry
//!   slots: the Simple Grid's inline buckets (Figure 3b), one call per
//!   bucket a query filters.
//!
//! The two gather kernels share one AVX2 block loop and fall back to
//! their scalar widths on x86 without AVX2 (SSE2 has no gather). All
//! widths are bit-identical by construction — the same ordered-quiet
//! `>= / <=` lane compares as the scalar `Rect::contains_point` and
//! `Rect::intersects`, with candidates emitted in order via the compare
//! movemask — and the tests assert it on boundary ties, NaN lanes, and
//! random columns.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m256i};

use crate::geom::Rect;
use crate::table::{entry_id, entry_id_u64, EntryId};

/// Append `base + i` for every `i` with `(xs[i], ys[i])` inside `region`
/// (closed semantics). `xs` and `ys` must have equal lengths.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn filter_range(xs: &[f32], ys: &[f32], region: &Rect, base: EntryId, out: &mut Vec<EntryId>) {
    assert_eq!(
        xs.len(),
        ys.len(),
        "coordinate columns must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // The detection macro caches its answer in an atomic, so the hot
        // path pays one load and a predictable branch.
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified on this CPU.
            unsafe { filter_range_avx2(xs, ys, region, base, out) }
        } else {
            filter_range_sse2(xs, ys, region, base, out);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        filter_range_scalar(xs, ys, region, base, out);
    }
}

/// Portable implementation; public so tests and non-x86 builds share it.
pub fn filter_range_scalar(
    xs: &[f32],
    ys: &[f32],
    region: &Rect,
    base: EntryId,
    out: &mut Vec<EntryId>,
) {
    for i in 0..xs.len() {
        if region.contains_point(xs[i], ys[i]) {
            out.push(base + entry_id(i));
        }
    }
}

/// SSE2 path: 4 candidate tests per iteration, branch-free compare, one
/// movemask branch per block (almost always zero — query windows are
/// small relative to the space, so hits are rare and clustered).
#[cfg(target_arch = "x86_64")]
pub fn filter_range_sse2(
    xs: &[f32],
    ys: &[f32],
    region: &Rect,
    base: EntryId,
    out: &mut Vec<EntryId>,
) {
    use std::arch::x86_64::{
        _mm_and_ps, _mm_cmpge_ps, _mm_cmple_ps, _mm_loadu_ps, _mm_movemask_ps, _mm_set1_ps,
    };

    let n = xs.len();
    let blocks = n / 4;
    // SAFETY: SSE2 is part of the x86_64 baseline; loads are unaligned
    // (`loadu`) and stay within `xs`/`ys` because `i + 4 <= blocks * 4 <= n`.
    unsafe {
        let x1 = _mm_set1_ps(region.x1);
        let x2 = _mm_set1_ps(region.x2);
        let y1 = _mm_set1_ps(region.y1);
        let y2 = _mm_set1_ps(region.y2);
        for b in 0..blocks {
            let i = b * 4;
            let vx = _mm_loadu_ps(xs.as_ptr().add(i));
            let vy = _mm_loadu_ps(ys.as_ptr().add(i));
            let in_x = _mm_and_ps(_mm_cmpge_ps(vx, x1), _mm_cmple_ps(vx, x2));
            let in_y = _mm_and_ps(_mm_cmpge_ps(vy, y1), _mm_cmple_ps(vy, y2));
            let mut mask = _mm_movemask_ps(_mm_and_ps(in_x, in_y)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                out.push(base + entry_id(i) + lane);
                mask &= mask - 1;
            }
        }
    }
    // Scalar tail.
    for i in blocks * 4..n {
        if region.contains_point(xs[i], ys[i]) {
            out.push(base + entry_id(i));
        }
    }
}

/// AVX2 path: 8 candidate tests per iteration. The `_CMP_GE_OQ` /
/// `_CMP_LE_OQ` predicates are the 256-bit spellings of the SSE2
/// `cmpge`/`cmple` — ordered, quiet, false on NaN — so every width
/// accepts exactly the candidates the scalar `contains_point` does.
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn filter_range_avx2(
    xs: &[f32],
    ys: &[f32],
    region: &Rect,
    base: EntryId,
    out: &mut Vec<EntryId>,
) {
    use std::arch::x86_64::{
        _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps,
        _CMP_GE_OQ, _CMP_LE_OQ,
    };

    let n = xs.len();
    let blocks = n / 8;
    // SAFETY: caller verified AVX2; loads are unaligned (`loadu`) and stay
    // within `xs`/`ys` because `i + 8 <= blocks * 8 <= n`.
    unsafe {
        let x1 = _mm256_set1_ps(region.x1);
        let x2 = _mm256_set1_ps(region.x2);
        let y1 = _mm256_set1_ps(region.y1);
        let y2 = _mm256_set1_ps(region.y2);
        for b in 0..blocks {
            let i = b * 8;
            let vx = _mm256_loadu_ps(xs.as_ptr().add(i));
            let vy = _mm256_loadu_ps(ys.as_ptr().add(i));
            let in_x = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(vx, x1),
                _mm256_cmp_ps::<_CMP_LE_OQ>(vx, x2),
            );
            let in_y = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(vy, y1),
                _mm256_cmp_ps::<_CMP_LE_OQ>(vy, y2),
            );
            let mut mask = _mm256_movemask_ps(_mm256_and_ps(in_x, in_y)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                out.push(base + entry_id(i) + lane);
                mask &= mask - 1;
            }
        }
    }
    // Scalar tail (at most 7 points).
    for i in blocks * 8..n {
        if region.contains_point(xs[i], ys[i]) {
            out.push(base + entry_id(i));
        }
    }
}

/// Like [`filter_range`], but matching positions are translated through a
/// parallel `ids` column and handed to `emit` — the shape secondary
/// indexes need when their coordinate copies are sorted in a different
/// order than the base table, in the sink form
/// [`crate::index::SpatialIndex::for_each_in`] wants.
///
/// # Panics
/// Panics if the three slices have different lengths.
pub fn filter_range_gather_each<F: FnMut(EntryId) + ?Sized>(
    xs: &[f32],
    ys: &[f32],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    assert!(
        xs.len() == ys.len() && xs.len() == ids.len(),
        "coordinate and id columns must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified on this CPU.
            unsafe { filter_range_gather_each_avx2(xs, ys, ids, region, emit) }
        } else {
            filter_range_gather_each_sse2(xs, ys, ids, region, emit);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for i in 0..xs.len() {
            if region.contains_point(xs[i], ys[i]) {
                emit(ids[i]);
            }
        }
    }
}

/// SSE2 width of [`filter_range_gather_each`]; public so the tests can
/// pin it against the other widths on CPUs that also have AVX2.
#[cfg(target_arch = "x86_64")]
pub fn filter_range_gather_each_sse2<F: FnMut(EntryId) + ?Sized>(
    xs: &[f32],
    ys: &[f32],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm_and_ps, _mm_cmpge_ps, _mm_cmple_ps, _mm_loadu_ps, _mm_movemask_ps, _mm_set1_ps,
    };
    let n = xs.len();
    let blocks = n / 4;
    // SAFETY: see `filter_range_sse2` — baseline SSE2, unaligned loads,
    // indices bounded by `blocks * 4 <= n`.
    unsafe {
        let x1 = _mm_set1_ps(region.x1);
        let x2 = _mm_set1_ps(region.x2);
        let y1 = _mm_set1_ps(region.y1);
        let y2 = _mm_set1_ps(region.y2);
        for b in 0..blocks {
            let i = b * 4;
            let vx = _mm_loadu_ps(xs.as_ptr().add(i));
            let vy = _mm_loadu_ps(ys.as_ptr().add(i));
            let in_x = _mm_and_ps(_mm_cmpge_ps(vx, x1), _mm_cmple_ps(vx, x2));
            let in_y = _mm_and_ps(_mm_cmpge_ps(vy, y1), _mm_cmple_ps(vy, y2));
            let mut mask = _mm_movemask_ps(_mm_and_ps(in_x, in_y)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                emit(ids[i + lane]);
                mask &= mask - 1;
            }
        }
    }
    for i in blocks * 4..n {
        if region.contains_point(xs[i], ys[i]) {
            emit(ids[i]);
        }
    }
}

/// AVX2 width of [`filter_range_gather_each`] — see [`filter_range_avx2`]
/// for the predicate-equivalence argument.
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn filter_range_gather_each_avx2<F: FnMut(EntryId) + ?Sized>(
    xs: &[f32],
    ys: &[f32],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps,
        _CMP_GE_OQ, _CMP_LE_OQ,
    };
    let n = xs.len();
    let blocks = n / 8;
    // SAFETY: caller verified AVX2; unaligned loads bounded by
    // `blocks * 8 <= n`.
    unsafe {
        let x1 = _mm256_set1_ps(region.x1);
        let x2 = _mm256_set1_ps(region.x2);
        let y1 = _mm256_set1_ps(region.y1);
        let y2 = _mm256_set1_ps(region.y2);
        for b in 0..blocks {
            let i = b * 8;
            let vx = _mm256_loadu_ps(xs.as_ptr().add(i));
            let vy = _mm256_loadu_ps(ys.as_ptr().add(i));
            let in_x = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(vx, x1),
                _mm256_cmp_ps::<_CMP_LE_OQ>(vx, x2),
            );
            let in_y = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(vy, y1),
                _mm256_cmp_ps::<_CMP_LE_OQ>(vy, y2),
            );
            let mut mask = _mm256_movemask_ps(_mm256_and_ps(in_x, in_y)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                emit(ids[i + lane]);
                mask &= mask - 1;
            }
        }
    }
    for i in blocks * 8..n {
        if region.contains_point(xs[i], ys[i]) {
            emit(ids[i]);
        }
    }
}

/// Scalar rect-overlap lane test, spelled exactly like
/// [`Rect::intersects`] so the vector widths below have a one-line oracle:
/// closed semantics, touching edges overlap, any NaN coordinate fails.
#[inline]
fn overlaps(x1: f32, y1: f32, x2: f32, y2: f32, region: &Rect) -> bool {
    region.x1 <= x2 && x1 <= region.x2 && region.y1 <= y2 && y1 <= region.y2
}

/// Vectorized extent-overlap filter over structure-of-arrays rectangle
/// columns (the [`crate::table::ExtentTable`] layout): call `emit` with
/// `base + i` for every row `i` whose rectangle intersects `region`
/// (closed semantics — touching edges do intersect), in index order.
/// Dispatches AVX2 → SSE2 → scalar exactly like [`filter_range`]; all
/// widths are bit-identical on touching-edge ties because every lane
/// compare is the same ordered-quiet `>= / <=` as the scalar
/// [`Rect::intersects`].
///
/// # Panics
/// Panics if the four columns have different lengths.
pub fn filter_overlap_each<F: FnMut(EntryId) + ?Sized>(
    x1s: &[f32],
    y1s: &[f32],
    x2s: &[f32],
    y2s: &[f32],
    region: &Rect,
    base: EntryId,
    emit: &mut F,
) {
    assert!(
        x1s.len() == y1s.len() && x1s.len() == x2s.len() && x1s.len() == y2s.len(),
        "extent columns must have equal length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified on this CPU.
            unsafe { filter_overlap_each_avx2(x1s, y1s, x2s, y2s, region, base, emit) }
        } else {
            filter_overlap_each_sse2(x1s, y1s, x2s, y2s, region, base, emit);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        filter_overlap_each_scalar(x1s, y1s, x2s, y2s, region, base, emit);
    }
}

/// Portable width of [`filter_overlap_each`]; public so tests and non-x86
/// builds share it — and so the proptests can use it as the oracle for
/// the vector widths.
pub fn filter_overlap_each_scalar<F: FnMut(EntryId) + ?Sized>(
    x1s: &[f32],
    y1s: &[f32],
    x2s: &[f32],
    y2s: &[f32],
    region: &Rect,
    base: EntryId,
    emit: &mut F,
) {
    for i in 0..x1s.len() {
        if overlaps(x1s[i], y1s[i], x2s[i], y2s[i], region) {
            emit(base + entry_id(i));
        }
    }
}

/// SSE2 width of [`filter_overlap_each`]: 4 overlap tests per iteration.
/// The lane predicate is `x1 <= q.x2 ∧ x2 >= q.x1 ∧ y1 <= q.y2 ∧
/// y2 >= q.y1` — the same four ordered-quiet compares as the scalar
/// [`Rect::intersects`], so NaN lanes are rejected identically.
#[cfg(target_arch = "x86_64")]
pub fn filter_overlap_each_sse2<F: FnMut(EntryId) + ?Sized>(
    x1s: &[f32],
    y1s: &[f32],
    x2s: &[f32],
    y2s: &[f32],
    region: &Rect,
    base: EntryId,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm_and_ps, _mm_cmpge_ps, _mm_cmple_ps, _mm_loadu_ps, _mm_movemask_ps, _mm_set1_ps,
    };

    let n = x1s.len();
    let blocks = n / 4;
    // SAFETY: SSE2 is part of the x86_64 baseline; loads are unaligned
    // (`loadu`) and stay within the columns because `i + 4 <= blocks * 4
    // <= n`.
    unsafe {
        let qx1 = _mm_set1_ps(region.x1);
        let qx2 = _mm_set1_ps(region.x2);
        let qy1 = _mm_set1_ps(region.y1);
        let qy2 = _mm_set1_ps(region.y2);
        for b in 0..blocks {
            let i = b * 4;
            let vx1 = _mm_loadu_ps(x1s.as_ptr().add(i));
            let vy1 = _mm_loadu_ps(y1s.as_ptr().add(i));
            let vx2 = _mm_loadu_ps(x2s.as_ptr().add(i));
            let vy2 = _mm_loadu_ps(y2s.as_ptr().add(i));
            let in_x = _mm_and_ps(_mm_cmple_ps(vx1, qx2), _mm_cmpge_ps(vx2, qx1));
            let in_y = _mm_and_ps(_mm_cmple_ps(vy1, qy2), _mm_cmpge_ps(vy2, qy1));
            let mut mask = _mm_movemask_ps(_mm_and_ps(in_x, in_y)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                emit(base + entry_id(i) + lane);
                mask &= mask - 1;
            }
        }
    }
    // Scalar tail.
    for i in blocks * 4..n {
        if overlaps(x1s[i], y1s[i], x2s[i], y2s[i], region) {
            emit(base + entry_id(i));
        }
    }
}

/// AVX2 width of [`filter_overlap_each`]: 8 overlap tests per iteration
/// via the `_CMP_GE_OQ` / `_CMP_LE_OQ` predicates (ordered, quiet, false
/// on NaN — see [`filter_range_avx2`]).
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn filter_overlap_each_avx2<F: FnMut(EntryId) + ?Sized>(
    x1s: &[f32],
    y1s: &[f32],
    x2s: &[f32],
    y2s: &[f32],
    region: &Rect,
    base: EntryId,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps,
        _CMP_GE_OQ, _CMP_LE_OQ,
    };

    let n = x1s.len();
    let blocks = n / 8;
    // SAFETY: caller verified AVX2; unaligned loads bounded by
    // `blocks * 8 <= n`.
    unsafe {
        let qx1 = _mm256_set1_ps(region.x1);
        let qx2 = _mm256_set1_ps(region.x2);
        let qy1 = _mm256_set1_ps(region.y1);
        let qy2 = _mm256_set1_ps(region.y2);
        for b in 0..blocks {
            let i = b * 8;
            let vx1 = _mm256_loadu_ps(x1s.as_ptr().add(i));
            let vy1 = _mm256_loadu_ps(y1s.as_ptr().add(i));
            let vx2 = _mm256_loadu_ps(x2s.as_ptr().add(i));
            let vy2 = _mm256_loadu_ps(y2s.as_ptr().add(i));
            let in_x = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_LE_OQ>(vx1, qx2),
                _mm256_cmp_ps::<_CMP_GE_OQ>(vx2, qx1),
            );
            let in_y = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_LE_OQ>(vy1, qy2),
                _mm256_cmp_ps::<_CMP_GE_OQ>(vy2, qy1),
            );
            let mut mask = _mm256_movemask_ps(_mm256_and_ps(in_x, in_y)) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                emit(base + entry_id(i) + lane);
                mask &= mask - 1;
            }
        }
    }
    // Scalar tail (at most 7 rectangles).
    for i in blocks * 8..n {
        if overlaps(x1s[i], y1s[i], x2s[i], y2s[i], region) {
            emit(base + entry_id(i));
        }
    }
}

/// Call `emit` with every id in `ids`, in order, whose rectangle in the
/// columns `[x1, y1, x2, y2]` intersects `region`: the closed test of
/// [`filter_overlap_each`], read through the ids. The AVX2 width gathers
/// the coordinates of 8 ids at a time straight from the columns; x86
/// without AVX2 (SSE2 has no gather) and other architectures run the
/// scalar width. Ids may repeat and come in any order.
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
        if overlaps(x1s[i], y1s[i], x2s[i], y2s[i], region) {
            emit(id);
        }
    }
}

/// AVX2 width of [`gather_overlap_each`]: each block of 8 ids is checked
/// against the shortest column's length (one unsigned max and compare),
/// then four gathers feed the lane test of [`filter_overlap_each_avx2`].
/// A block holding a bad id, the tail, and columns longer than `i32::MAX`
/// rows (gather indices are signed 32-bit) take the scalar width. The
/// block loop is shared with [`gather_range_each_avx2`].
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn gather_overlap_each_avx2<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 4],
    ids: &[EntryId],
    region: &Rect,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm256_and_ps, _mm256_cmp_ps, _mm256_i32gather_ps, _mm256_loadu_si256, _mm256_set1_ps,
        _CMP_GE_OQ, _CMP_LE_OQ,
    };

    let rows = cols.iter().map(|c| c.len()).fold(usize::MAX, usize::min);
    let [x1s, y1s, x2s, y2s] = cols.map(<[f32]>::as_ptr);
    let qx1 = _mm256_set1_ps(region.x1);
    let qx2 = _mm256_set1_ps(region.x2);
    let qy1 = _mm256_set1_ps(region.y1);
    let qy2 = _mm256_set1_ps(region.y2);
    // SAFETY: caller verified AVX2. `lanes` reads the 32 bytes of one
    // block of 8 ids. `hits` gathers only lanes below `rows`, which the
    // block loop checks first, and every column holds `rows` rows.
    unsafe {
        gather_each_avx2(
            rows,
            ids,
            |block| Some(_mm256_loadu_si256(block.as_ptr().cast())),
            |v| {
                let in_x = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_i32gather_ps::<4>(x1s, v), qx2),
                    _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_i32gather_ps::<4>(x2s, v), qx1),
                );
                let in_y = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_i32gather_ps::<4>(y1s, v), qy2),
                    _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_i32gather_ps::<4>(y2s, v), qy1),
                );
                _mm256_and_ps(in_x, in_y)
            },
            |ids, emit| gather_overlap_each_scalar(cols, ids, region, emit),
            emit,
        )
    }
}

/// The block loop of the AVX2 gather kernels, over ids of type `S`
/// (`EntryId`s, or the grid's `u64` bucket slots) naming rows of columns
/// that each hold at least `rows` rows. `lanes` reads a block of 8 ids as
/// `u32` lanes, or returns `None` if one does not fit in 32 bits. A block
/// whose lanes all lie below `rows` (one unsigned max and compare) goes
/// to `hits`, which gathers the lanes' coordinates and returns the lane
/// test as a compare mask, and its hits are emitted in block order. A block
/// holding a bad id, the tail, and columns longer than `i32::MAX` rows
/// (gather indices are signed 32-bit) take `scalar`, the scalar width,
/// which panics at the first bad id after emitting the hits before it.
///
/// # Safety
/// The CPU must support AVX2, `lanes` must read no more than its block,
/// and `hits` must read only the rows its lanes name, given lanes below
/// `rows`.
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
    S: Copy + Into<u64>,
    F: FnMut(EntryId) + ?Sized,
{
    use std::arch::x86_64::{
        _mm256_cmpeq_epi32, _mm256_max_epu32, _mm256_movemask_epi8, _mm256_movemask_ps,
        _mm256_set1_epi32,
    };

    let Some(last) = rows.checked_sub(1).and_then(|l| i32::try_from(l).ok()) else {
        return scalar(ids, emit);
    };
    let max_id = _mm256_set1_epi32(last);
    let (blocks, tail) = ids.as_chunks::<8>();
    for block in blocks {
        let Some(v) = lanes(block).filter(|&v| {
            _mm256_movemask_epi8(_mm256_cmpeq_epi32(_mm256_max_epu32(v, max_id), max_id)) == -1
        }) else {
            scalar(block, emit);
            continue;
        };
        // Every lane is at most `last = rows − 1 ≤ i32::MAX`, so it is a
        // non-negative gather index below `rows`.
        let mut mask = _mm256_movemask_ps(hits(v)) as u32;
        while mask != 0 {
            emit(entry_id_u64(block[mask.trailing_zeros() as usize].into()));
            mask &= mask - 1;
        }
    }
    scalar(tail, emit);
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
/// others: a slot above [`EntryId::MAX`] fails the conversion and a slot
/// past a column fails the slice index, either one panicking.
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

/// AVX2 width of [`gather_range_each`], on the block loop of
/// [`gather_overlap_each_avx2`]: each block of 8 slots is narrowed to
/// `u32` lanes and checked against the shorter column's length, then two
/// gathers feed the lane test of [`filter_range_avx2`]. A block holding a
/// slot above [`EntryId::MAX`] or past a column, the tail, and columns
/// longer than `i32::MAX` rows take the scalar width.
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn gather_range_each_avx2<F: FnMut(EntryId) + ?Sized>(
    cols: [&[f32]; 2],
    slots: &[u64],
    region: &Rect,
    emit: &mut F,
) {
    use std::arch::x86_64::{
        _mm256_and_ps, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps,
        _mm256_i32gather_ps, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute4x64_epi64,
        _mm256_set1_epi64x, _mm256_set1_ps, _mm256_shuffle_ps, _mm256_testz_si256, _CMP_GE_OQ,
        _CMP_LE_OQ,
    };

    let rows = cols[0].len().min(cols[1].len());
    let [xs, ys] = cols.map(<[f32]>::as_ptr);
    let high_halves = _mm256_set1_epi64x(!0xFFFF_FFFF);
    let qx1 = _mm256_set1_ps(region.x1);
    let qx2 = _mm256_set1_ps(region.x2);
    let qy1 = _mm256_set1_ps(region.y1);
    let qy2 = _mm256_set1_ps(region.y2);
    // SAFETY: caller verified AVX2. `lanes` reads the 64 bytes of one
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
            |v| {
                let x = _mm256_i32gather_ps::<4>(xs, v);
                let y = _mm256_i32gather_ps::<4>(ys, v);
                let in_x = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GE_OQ>(x, qx1),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(x, qx2),
                );
                let in_y = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GE_OQ>(y, qy1),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(y, qy2),
                );
                _mm256_and_ps(in_x, in_y)
            },
            |slots, emit| gather_range_each_scalar(cols, slots, region, emit),
            emit,
        )
    }
}

/// [`filter_overlap_each`] collecting into a `Vec` (test and bench
/// convenience, mirroring [`filter_range`]).
pub fn filter_overlap(
    x1s: &[f32],
    y1s: &[f32],
    x2s: &[f32],
    y2s: &[f32],
    region: &Rect,
    base: EntryId,
    out: &mut Vec<EntryId>,
) {
    filter_overlap_each(x1s, y1s, x2s, y2s, region, base, &mut |e| out.push(e));
}

/// [`filter_range_gather_each`] collecting into a `Vec` (test and bench
/// convenience).
pub fn filter_range_gather(
    xs: &[f32],
    ys: &[f32],
    ids: &[EntryId],
    region: &Rect,
    out: &mut Vec<EntryId>,
) {
    filter_range_gather_each(xs, ys, ids, region, &mut |e| out.push(e));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

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

    #[test]
    fn matches_scalar_on_random_data() {
        let (xs, ys) = random_cols(1_003, 1); // odd length exercises the tail
        let region = Rect::new(200.0, 300.0, 600.0, 700.0);
        let mut fast = Vec::new();
        filter_range(&xs, &ys, &region, 10, &mut fast);
        let mut slow = Vec::new();
        filter_range_scalar(&xs, &ys, &region, 10, &mut slow);
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_matches_scalar_on_boundaries() {
        let region = Rect::new(100.0, 100.0, 200.0, 200.0);
        let (xs, ys) = boundary_cols();
        let mut fast = Vec::new();
        filter_range_sse2(&xs, &ys, &region, 0, &mut fast);
        let mut slow = Vec::new();
        filter_range_scalar(&xs, &ys, &region, 0, &mut slow);
        assert_eq!(fast, slow);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_on_boundaries() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // nothing to test on this CPU
        }
        let region = Rect::new(100.0, 100.0, 200.0, 200.0);
        let (xs, ys) = boundary_cols();
        let mut fast = Vec::new();
        // SAFETY: detection checked above.
        unsafe { filter_range_avx2(&xs, &ys, &region, 0, &mut fast) };
        let mut slow = Vec::new();
        filter_range_scalar(&xs, &ys, &region, 0, &mut slow);
        assert_eq!(fast, slow);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_width_is_bit_identical_on_random_columns() {
        // 1_013 = 126 AVX2 blocks + 5 tail = 253 SSE2 blocks + 1 tail:
        // both vector tails and both block loops are exercised.
        for seed in 1..=8u64 {
            let (xs, ys) = random_cols(1_013, seed);
            let region = Rect::new(111.0, 222.0, 666.5, 888.25);
            let mut scalar = Vec::new();
            filter_range_scalar(&xs, &ys, &region, 5, &mut scalar);
            let mut sse2 = Vec::new();
            filter_range_sse2(&xs, &ys, &region, 5, &mut sse2);
            assert_eq!(sse2, scalar, "seed {seed}");
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut avx2 = Vec::new();
                // SAFETY: detection checked above.
                unsafe { filter_range_avx2(&xs, &ys, &region, 5, &mut avx2) };
                assert_eq!(avx2, scalar, "seed {seed}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gather_widths_are_bit_identical() {
        let (xs, ys) = random_cols(1_013, 9);
        let ids: Vec<EntryId> = (0..xs.len()).map(|i| 7 + 3 * i as EntryId).collect();
        let region = Rect::new(100.0, 100.0, 800.0, 500.0);
        let mut scalar = Vec::new();
        for i in 0..xs.len() {
            if region.contains_point(xs[i], ys[i]) {
                scalar.push(ids[i]);
            }
        }
        let mut sse2 = Vec::new();
        filter_range_gather_each_sse2(&xs, &ys, &ids, &region, &mut |e| sse2.push(e));
        assert_eq!(sse2, scalar);
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut avx2 = Vec::new();
            // SAFETY: detection checked above.
            unsafe {
                filter_range_gather_each_avx2(&xs, &ys, &ids, &region, &mut |e| avx2.push(e))
            };
            assert_eq!(avx2, scalar);
        }
        assert!(!scalar.is_empty());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let region = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut out = Vec::new();
        filter_range(&[], &[], &region, 0, &mut out);
        assert!(out.is_empty());
        filter_range(&[0.5], &[0.5], &region, 7, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn base_offset_is_applied() {
        let region = Rect::new(0.0, 0.0, 10.0, 10.0);
        let xs = vec![5.0; 8];
        let ys = vec![5.0; 8];
        let mut out = Vec::new();
        filter_range(&xs, &ys, &region, 100, &mut out);
        assert_eq!(out, (100..108).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_columns_panic() {
        let mut out = Vec::new();
        filter_range(&[1.0], &[], &Rect::new(0.0, 0.0, 1.0, 1.0), 0, &mut out);
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
        let mut got = Vec::new();
        filter_overlap(&x1s, &y1s, &x2s, &y2s, &region, 0, &mut got);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn overlap_widths_are_bit_identical_on_random_columns() {
        // 1_013 exercises both vector tails (see the range-filter test).
        for seed in 1..=8u64 {
            let (x1s, y1s, x2s, y2s) = random_rect_cols(1_013, seed);
            let region = Rect::new(111.0, 222.0, 666.5, 888.25);
            let mut scalar = Vec::new();
            filter_overlap_each_scalar(&x1s, &y1s, &x2s, &y2s, &region, 5, &mut |e| scalar.push(e));
            let mut sse2 = Vec::new();
            filter_overlap_each_sse2(&x1s, &y1s, &x2s, &y2s, &region, 5, &mut |e| sse2.push(e));
            assert_eq!(sse2, scalar, "seed {seed}");
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut avx2 = Vec::new();
                // SAFETY: detection checked above.
                unsafe {
                    filter_overlap_each_avx2(&x1s, &y1s, &x2s, &y2s, &region, 5, &mut |e| {
                        avx2.push(e)
                    })
                };
                assert_eq!(avx2, scalar, "seed {seed}");
            }
            assert!(!scalar.is_empty(), "seed {seed}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn overlap_widths_are_bit_identical_on_boundary_ties() {
        let region = Rect::new(100.0, 100.0, 200.0, 200.0);
        let (x1s, y1s, x2s, y2s) = boundary_rect_cols();
        let mut scalar = Vec::new();
        filter_overlap_each_scalar(&x1s, &y1s, &x2s, &y2s, &region, 0, &mut |e| scalar.push(e));
        let mut sse2 = Vec::new();
        filter_overlap_each_sse2(&x1s, &y1s, &x2s, &y2s, &region, 0, &mut |e| sse2.push(e));
        assert_eq!(sse2, scalar);
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut avx2 = Vec::new();
            // SAFETY: detection checked above.
            unsafe {
                filter_overlap_each_avx2(&x1s, &y1s, &x2s, &y2s, &region, 0, &mut |e| avx2.push(e))
            };
            assert_eq!(avx2, scalar);
        }
    }

    #[test]
    fn overlap_filter_applies_base_offset_and_handles_empty_input() {
        let region = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut out = Vec::new();
        filter_overlap(&[], &[], &[], &[], &region, 0, &mut out);
        assert!(out.is_empty());
        let x1s = vec![5.0; 9];
        let y1s = vec![5.0; 9];
        let x2s = vec![6.0; 9];
        let y2s = vec![6.0; 9];
        filter_overlap(&x1s, &y1s, &x2s, &y2s, &region, 100, &mut out);
        assert_eq!(out, (100..109).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_extent_columns_panic() {
        let mut out = Vec::new();
        filter_overlap(
            &[1.0],
            &[1.0],
            &[],
            &[1.0],
            &Rect::new(0.0, 0.0, 1.0, 1.0),
            0,
            &mut out,
        );
    }

    #[test]
    fn gather_translates_through_id_column() {
        let (xs, ys) = random_cols(517, 3);
        let ids: Vec<EntryId> = (0..517).map(|i| 1000 + i as EntryId * 2).collect();
        let region = Rect::new(100.0, 100.0, 800.0, 500.0);
        let mut got = Vec::new();
        filter_range_gather(&xs, &ys, &ids, &region, &mut got);
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

    /// One width of a gather kernel over `N` columns and ids of type `S`.
    type Width<const N: usize, S> = fn([&[f32]; N], &[S], &Rect, &mut dyn FnMut(EntryId));

    /// Each width in `widths`, by name, with what it emitted before
    /// returning or panicking, and whether it panicked.
    fn run_widths<const N: usize, S>(
        widths: Vec<(&'static str, Width<N, S>)>,
        cols: [&[f32]; N],
        ids: &[S],
        region: &Rect,
    ) -> Vec<(&'static str, Vec<EntryId>, bool)> {
        widths
            .into_iter()
            .map(|(name, width)| {
                let mut out = Vec::new();
                let run =
                    std::panic::AssertUnwindSafe(|| width(cols, ids, region, &mut |e| out.push(e)));
                let panicked = std::panic::catch_unwind(run).is_err();
                (name, out, panicked)
            })
            .collect()
    }

    /// Each width of [`gather_overlap_each`] this CPU runs (see
    /// [`run_widths`]).
    fn gather_widths(
        cols: &RectCols,
        ids: &[EntryId],
        region: &Rect,
    ) -> Vec<(&'static str, Vec<EntryId>, bool)> {
        let mut widths: Vec<(&str, Width<4, EntryId>)> = vec![
            ("dispatched", |c, ids, r, e| {
                gather_overlap_each(c, ids, r, e)
            }),
            ("scalar", |c, ids, r, e| {
                gather_overlap_each_scalar(c, ids, r, e)
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            widths.push(("avx2", |c, ids, r, e| {
                // SAFETY: detection checked above.
                unsafe { gather_overlap_each_avx2(c, ids, r, e) }
            }));
        }
        let cols = [&cols.0[..], &cols.1, &cols.2, &cols.3];
        run_widths(widths, cols, ids, region)
    }

    /// Id slices of every length 0–17 over `n` rows: ascending, and drawn
    /// at random (unsorted, with repeats).
    fn id_slices(n: usize, seed: u64) -> Vec<Vec<EntryId>> {
        let mut rng = Xoshiro256::seeded(seed);
        let mut slices = Vec::new();
        for len in 0..=17 {
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
            (random, Rect::new(111.0, 222.0, 666.5, 888.25)),
        ];
        let mut hits = 0;
        for (seed, (cols, region)) in (1..).zip(&inputs) {
            for ids in id_slices(cols.0.len(), seed) {
                let want = intersecting_ids(cols, &ids, region);
                hits += want.len();
                for (width, got, panicked) in gather_widths(cols, &ids, region) {
                    assert!(!panicked, "{width} panicked on {ids:?}");
                    assert_eq!(got, want, "{width} on {ids:?}");
                }
            }
        }
        assert!(hits > 100, "too few hits to pin the widths: {hits}");
    }

    #[test]
    fn gather_overlap_panics_on_an_id_out_of_bounds_in_every_width() {
        let cols = random_rect_cols(12, 5);
        let region = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        // The bad id inside the first block, inside a later block, and in
        // the tail; each width emits the hits before it, then panics.
        for (len, at) in [(8, 5), (17, 13), (11, 9), (1, 0)] {
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
        let mut widths: Vec<(&str, Width<2, u64>)> = vec![
            ("dispatched", |c, s, r, e| gather_range_each(c, s, r, e)),
            ("scalar", |c, s, r, e| gather_range_each_scalar(c, s, r, e)),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            widths.push(("avx2", |c, s, r, e| {
                // SAFETY: detection checked above.
                unsafe { gather_range_each_avx2(c, s, r, e) }
            }));
        }
        run_widths(widths, [xs, ys], slots, region)
    }

    #[test]
    fn gather_range_widths_match_contains_point_through_the_slots() {
        let (mut xs, mut ys) = random_cols(40, 17);
        xs[3] = f32::NAN;
        ys[10] = f32::NAN;
        (xs[20], ys[20]) = (f32::NAN, f32::NAN);
        let inputs = [
            (boundary_cols(), Rect::new(100.0, 100.0, 200.0, 200.0)),
            ((xs, ys), Rect::new(111.0, 222.0, 666.5, 888.25)),
        ];
        let mut hits = 0;
        for (seed, ((xs, ys), region)) in (1..).zip(&inputs) {
            for ids in id_slices(xs.len(), seed) {
                let slots: Vec<u64> = ids.into_iter().map(u64::from).collect();
                let want = contained_slots(xs, ys, &slots, region);
                hits += want.len();
                for (width, got, panicked) in range_widths(xs, ys, &slots, region) {
                    assert!(!panicked, "{width} panicked on {slots:?}");
                    assert_eq!(got, want, "{width} on {slots:?}");
                }
            }
        }
        assert!(hits > 100, "too few hits to pin the widths: {hits}");
    }

    #[test]
    fn gather_range_panics_on_a_bad_slot_in_every_width() {
        let (xs, ys) = random_cols(12, 5);
        let region = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        // A slot one past the rows, slots whose low half names a real row
        // but whose high half is set, and the largest slot; each in the
        // first and second load of a block, in a later block, and in the
        // tail. Every width emits the hits before it, then panics.
        let bad = [12, 1 << 32, (1 << 32) + 3, u64::MAX];
        for slot in bad {
            for (len, at) in [(16, 2), (8, 5), (17, 13), (11, 9), (1, 0)] {
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
