//! Fixture: properly audited entry points inside the contained crate.

/// # Safety
/// Requires NEON/ASIMD (aarch64 baseline).
// simd-safety: NEON is unconditionally present on aarch64; no raw memory
// access happens here at all.
#[target_feature(enable = "neon")]
pub unsafe fn sum_neon(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// # Safety
/// Requires AVX2; verified by the dispatcher at detection time.
#[target_feature(enable = "avx2")]
// simd-safety: placed between the attribute and the body — also accepted.
pub unsafe fn sum_avx2(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// # Safety
/// Requires AVX2; one generic entry point runs every kernel at that level.
// simd-safety: reached only behind runtime feature detection; the token
// carries that proof to every intrinsic the kernel inlines.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn run_avx2<K: Kernel>(k: K) -> K::Out {
    k.run(unsafe { Avx2::new() })
}
