//! Fixture: `#[target_feature]` entry points inside the contained crate.

/// # Safety
/// Requires AVX2; verified by the dispatcher at detection time.
#[target_feature(enable = "avx2")]
pub unsafe fn sum_avx2(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// # Safety
/// Requires SSE4.1; verified by the dispatcher at detection time.
// simd-safety: reached only behind runtime feature detection; all slice
// accesses are bounds-checked.
#[target_feature(enable = "sse4.1")]
pub unsafe fn sum_sse41(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// # Safety
/// Requires AVX2; one generic entry point runs every kernel at that level.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn run_avx2<K: Kernel>(k: K) -> K::Out {
    k.run(unsafe { Avx2::new() })
}
