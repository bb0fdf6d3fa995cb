//@ path: crates/base/src/simd.rs
/// # Safety
///
/// Caller must have verified AVX2 support at runtime first (the
/// dispatch wrapper in this module does, and only it can call this
/// private width).
#[target_feature(enable = "avx2")]
unsafe fn kernel(xs: &[f32]) -> f32 {
    xs.iter().sum()
}
