//! x86_64 backends: [`Sse41`] (2×f64 / 4×f32) and [`Avx2`] (4×f64 / 8×f32).
//!
//! The [`Isa`] impl methods are safe functions whose `unsafe` blocks are
//! justified by a type invariant: `Sse41`/`Avx2` values can only be created
//! through the `unsafe fn new()` constructors, whose contract is "the
//! corresponding CPU feature is present". The two generic `#[target_feature]`
//! entry points, `run_sse41` and `run_avx2`, are the only place those
//! constructors are invoked; each runs any [`Kernel`], and `run_at` in
//! `lib.rs` only calls them after `is_x86_feature_detected!` has succeeded.
//! The byte shuffles below them are hand-written per ISA and have entry
//! points of their own.
//!
//! Everything between an entry point and the intrinsics is
//! `#[inline(always)]` so the whole kernel collapses into the entry point's
//! monomorph for that kernel, the one function that carries the target
//! feature — otherwise each lane op would be an outlined call and the
//! vectorisation would be a pessimisation.

use core::arch::x86_64::*;

use crate::isa::Isa;
use crate::kernels::{self, Kernel};

/// SSE4.1 token. Invariant: a value of this type proves SSE4.1 is available.
#[derive(Clone, Copy)]
pub(crate) struct Sse41(());

impl Sse41 {
    /// # Safety
    /// The caller must guarantee the CPU supports SSE4.1.
    #[inline(always)]
    unsafe fn new() -> Self {
        Sse41(())
    }
}

/// AVX2 token. Invariant: a value of this type proves AVX2 is available.
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// # Safety
    /// The caller must guarantee the CPU supports AVX2.
    #[inline(always)]
    unsafe fn new() -> Self {
        Avx2(())
    }
}

impl Isa for Sse41 {
    const W64: usize = 2;
    const W32: usize = 4;
    type F64 = __m128d;
    type F32 = __m128;
    type M64 = __m128d;
    type M32 = __m128;

    #[inline(always)]
    fn splat(self, x: f64) -> __m128d {
        // SAFETY (here and in every block below): `self` proves SSE4.1 per
        // the type invariant, and every pointer op is preceded by a bounds
        // assert on the slice it reads or writes.
        unsafe { _mm_set1_pd(x) }
    }
    #[inline(always)]
    fn load_f32_wide(self, src: &[f32]) -> __m128d {
        assert!(src.len() >= 2);
        // SAFETY: 2 f32 = 8 bytes available at `src`; unaligned load.
        unsafe {
            let lo = _mm_castsi128_ps(_mm_loadl_epi64(src.as_ptr() as *const __m128i));
            _mm_cvtps_pd(lo)
        }
    }
    #[inline(always)]
    fn narrow_store(self, v: __m128d, dst: &mut [f32]) {
        assert!(dst.len() >= 2);
        // SAFETY: 8 writable bytes at `dst`; unaligned store.
        unsafe {
            _mm_storel_epi64(
                dst.as_mut_ptr() as *mut __m128i,
                _mm_castps_si128(_mm_cvtpd_ps(v)),
            );
        }
    }
    #[inline(always)]
    fn f32_round_trip(self, v: __m128d) -> __m128d {
        // SAFETY: register-only ops.
        unsafe { _mm_cvtps_pd(_mm_cvtpd_ps(v)) }
    }
    #[inline(always)]
    fn load_u32_wide(self, src: &[u32]) -> __m128d {
        assert!(src.len() >= 2);
        // SAFETY: 8 bytes available; values < 2^31 so the signed i32→f64
        // conversion equals `u32 as f64`.
        unsafe { _mm_cvtepi32_pd(_mm_loadl_epi64(src.as_ptr() as *const __m128i)) }
    }
    #[inline(always)]
    fn trunc_store_u32(self, v: __m128d, dst: &mut [u32]) {
        assert!(dst.len() >= 2);
        // SAFETY: 8 writable bytes; lanes are in [0, 2^31) per the trait
        // contract so the signed truncation equals `v as u32`.
        unsafe { _mm_storel_epi64(dst.as_mut_ptr() as *mut __m128i, _mm_cvttpd_epi32(v)) }
    }
    #[inline(always)]
    fn store_f64(self, v: __m128d, dst: &mut [f64]) {
        assert!(dst.len() >= 2);
        // SAFETY: 16 writable bytes; unaligned store.
        unsafe { _mm_storeu_pd(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only.
        unsafe { _mm_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only.
        unsafe { _mm_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only.
        unsafe { _mm_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only.
        unsafe { _mm_div_pd(a, b) }
    }
    #[inline(always)]
    fn abs(self, a: __m128d) -> __m128d {
        // SAFETY: register-only; clears the sign bit.
        unsafe { _mm_andnot_pd(_mm_set1_pd(-0.0), a) }
    }
    #[inline(always)]
    fn trunc(self, a: __m128d) -> __m128d {
        // SAFETY: register-only (SSE4.1 roundpd).
        unsafe { _mm_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(a) }
    }
    #[inline(always)]
    fn copysign_one(self, x: __m128d) -> __m128d {
        // SAFETY: register-only; sign bit of x onto 1.0.
        unsafe { _mm_or_pd(_mm_and_pd(x, _mm_set1_pd(-0.0)), _mm_set1_pd(1.0)) }
    }
    #[inline(always)]
    fn cmp_le(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only; cmplepd is ordered (false on NaN).
        unsafe { _mm_cmple_pd(a, b) }
    }
    #[inline(always)]
    fn cmp_eq(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only; ordered.
        unsafe { _mm_cmpeq_pd(a, b) }
    }
    #[inline(always)]
    fn or(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: register-only.
        unsafe { _mm_or_pd(a, b) }
    }
    #[inline(always)]
    fn not(self, m: __m128d) -> __m128d {
        // SAFETY: register-only; XOR with all-ones.
        unsafe { _mm_xor_pd(m, _mm_castsi128_pd(_mm_set1_epi64x(-1))) }
    }
    #[inline(always)]
    fn select(self, m: __m128d, t: __m128d, f: __m128d) -> __m128d {
        // SAFETY: register-only (SSE4.1 blendvpd; mask sign bit selects t).
        unsafe { _mm_blendv_pd(f, t, m) }
    }
    #[inline(always)]
    fn exponent_unbiased(self, v: __m128d) -> __m128d {
        // SAFETY: register-only. exp - 1023 ∈ [-1023, 1024] fits the low
        // dword of each qword; shuffle picks dwords 0 and 2, cvtepi32_pd
        // converts them exactly.
        unsafe {
            let bits = _mm_castpd_si128(v);
            let exp = _mm_and_si128(_mm_srli_epi64::<52>(bits), _mm_set1_epi64x(0x7FF));
            let unb = _mm_sub_epi64(exp, _mm_set1_epi64x(1023));
            _mm_cvtepi32_pd(_mm_shuffle_epi32::<0b00_00_10_00>(unb))
        }
    }

    #[inline(always)]
    fn splat32(self, x: f32) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_set1_ps(x) }
    }
    #[inline(always)]
    fn load32(self, src: &[f32]) -> __m128 {
        assert!(src.len() >= 4);
        // SAFETY: 16 bytes available; unaligned load.
        unsafe { _mm_loadu_ps(src.as_ptr()) }
    }
    #[inline(always)]
    fn store32(self, v: __m128, dst: &mut [f32]) {
        assert!(dst.len() >= 4);
        // SAFETY: 16 writable bytes; unaligned store.
        unsafe { _mm_storeu_ps(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add32(self, a: __m128, b: __m128) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_add_ps(a, b) }
    }
    #[inline(always)]
    fn mul32(self, a: __m128, b: __m128) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_mul_ps(a, b) }
    }
    #[inline(always)]
    fn abs32(self, a: __m128) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_andnot_ps(_mm_set1_ps(-0.0), a) }
    }
    #[inline(always)]
    fn iota32(self) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_setr_ps(0.0, 1.0, 2.0, 3.0) }
    }
    #[inline(always)]
    fn min_sel32(self, acc: __m128, v: __m128) -> __m128 {
        // SAFETY: register-only. minps(a, b) = a < b ? a : b (second operand
        // on ties/NaN), which with operands (v, acc) is exactly the trait's
        // `v < acc ? v : acc`.
        unsafe { _mm_min_ps(v, acc) }
    }
    #[inline(always)]
    fn max_sel32(self, acc: __m128, v: __m128) -> __m128 {
        // SAFETY: register-only; maxps(v, acc) = v > acc ? v : acc.
        unsafe { _mm_max_ps(v, acc) }
    }
    #[inline(always)]
    fn lt32(self, a: __m128, b: __m128) -> __m128 {
        // SAFETY: register-only; ordered.
        unsafe { _mm_cmplt_ps(a, b) }
    }
    #[inline(always)]
    fn eq32(self, a: __m128, b: __m128) -> __m128 {
        // SAFETY: register-only; ordered.
        unsafe { _mm_cmpeq_ps(a, b) }
    }
    #[inline(always)]
    fn select32(self, m: __m128, t: __m128, f: __m128) -> __m128 {
        // SAFETY: register-only (SSE4.1 blendvps; mask sign bit selects t).
        unsafe { _mm_blendv_ps(f, t, m) }
    }
    #[inline(always)]
    fn and32(self, a: __m128, b: __m128) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_and_ps(a, b) }
    }
    #[inline(always)]
    fn true32(self) -> __m128 {
        // SAFETY: register-only.
        unsafe { _mm_castsi128_ps(_mm_set1_epi32(-1)) }
    }
    #[inline(always)]
    fn all32(self, m: __m128) -> bool {
        // SAFETY: register-only.
        unsafe { _mm_movemask_ps(m) == 0xF }
    }
}

impl Isa for Avx2 {
    const W64: usize = 4;
    const W32: usize = 8;
    type F64 = __m256d;
    type F32 = __m256;
    type M64 = __m256d;
    type M32 = __m256;

    #[inline(always)]
    fn splat(self, x: f64) -> __m256d {
        // SAFETY (here and below): `self` proves AVX2 per the type
        // invariant; pointer ops are preceded by bounds asserts.
        unsafe { _mm256_set1_pd(x) }
    }
    #[inline(always)]
    fn load_f32_wide(self, src: &[f32]) -> __m256d {
        assert!(src.len() >= 4);
        // SAFETY: 16 bytes available; unaligned load.
        unsafe { _mm256_cvtps_pd(_mm_loadu_ps(src.as_ptr())) }
    }
    #[inline(always)]
    fn narrow_store(self, v: __m256d, dst: &mut [f32]) {
        assert!(dst.len() >= 4);
        // SAFETY: 16 writable bytes; unaligned store.
        unsafe { _mm_storeu_ps(dst.as_mut_ptr(), _mm256_cvtpd_ps(v)) }
    }
    #[inline(always)]
    fn f32_round_trip(self, v: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_cvtps_pd(_mm256_cvtpd_ps(v)) }
    }
    #[inline(always)]
    fn load_u32_wide(self, src: &[u32]) -> __m256d {
        assert!(src.len() >= 4);
        // SAFETY: 16 bytes available; values < 2^31 so signed conversion
        // equals `u32 as f64`.
        unsafe { _mm256_cvtepi32_pd(_mm_loadu_si128(src.as_ptr() as *const __m128i)) }
    }
    #[inline(always)]
    fn trunc_store_u32(self, v: __m256d, dst: &mut [u32]) {
        assert!(dst.len() >= 4);
        // SAFETY: 16 writable bytes; lanes in [0, 2^31) per trait contract.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, _mm256_cvttpd_epi32(v)) }
    }
    #[inline(always)]
    fn store_f64(self, v: __m256d, dst: &mut [f64]) {
        assert!(dst.len() >= 4);
        // SAFETY: 32 writable bytes; unaligned store.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_div_pd(a, b) }
    }
    #[inline(always)]
    fn abs(self, a: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), a) }
    }
    #[inline(always)]
    fn trunc(self, a: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(a) }
    }
    #[inline(always)]
    fn copysign_one(self, x: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_or_pd(_mm256_and_pd(x, _mm256_set1_pd(-0.0)), _mm256_set1_pd(1.0)) }
    }
    #[inline(always)]
    fn cmp_le(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only; _CMP_LE_OQ is ordered (false on NaN).
        unsafe { _mm256_cmp_pd::<_CMP_LE_OQ>(a, b) }
    }
    #[inline(always)]
    fn cmp_eq(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only; ordered.
        unsafe { _mm256_cmp_pd::<_CMP_EQ_OQ>(a, b) }
    }
    #[inline(always)]
    fn or(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_or_pd(a, b) }
    }
    #[inline(always)]
    fn not(self, m: __m256d) -> __m256d {
        // SAFETY: register-only.
        unsafe { _mm256_xor_pd(m, _mm256_castsi256_pd(_mm256_set1_epi64x(-1))) }
    }
    #[inline(always)]
    fn select(self, m: __m256d, t: __m256d, f: __m256d) -> __m256d {
        // SAFETY: register-only (blendvpd: mask sign bit selects t).
        unsafe { _mm256_blendv_pd(f, t, m) }
    }
    #[inline(always)]
    fn exponent_unbiased(self, v: __m256d) -> __m256d {
        // SAFETY: register-only. Low dword of each qword holds the full
        // value in [-1023, 1024]; vpermd packs dwords {0,2,4,6} into the low
        // 128 bits for an exact i32→f64 conversion.
        unsafe {
            let bits = _mm256_castpd_si256(v);
            let exp = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(0x7FF));
            let unb = _mm256_sub_epi64(exp, _mm256_set1_epi64x(1023));
            let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
            _mm256_cvtepi32_pd(_mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                unb, idx,
            )))
        }
    }

    #[inline(always)]
    fn splat32(self, x: f32) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_set1_ps(x) }
    }
    #[inline(always)]
    fn load32(self, src: &[f32]) -> __m256 {
        assert!(src.len() >= 8);
        // SAFETY: 32 bytes available; unaligned load.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }
    #[inline(always)]
    fn store32(self, v: __m256, dst: &mut [f32]) {
        assert!(dst.len() >= 8);
        // SAFETY: 32 writable bytes; unaligned store.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add32(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_add_ps(a, b) }
    }
    #[inline(always)]
    fn mul32(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_mul_ps(a, b) }
    }
    #[inline(always)]
    fn abs32(self, a: __m256) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), a) }
    }
    #[inline(always)]
    fn iota32(self) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0) }
    }
    #[inline(always)]
    fn min_sel32(self, acc: __m256, v: __m256) -> __m256 {
        // SAFETY: register-only; minps(v, acc) = v < acc ? v : acc.
        unsafe { _mm256_min_ps(v, acc) }
    }
    #[inline(always)]
    fn max_sel32(self, acc: __m256, v: __m256) -> __m256 {
        // SAFETY: register-only; maxps(v, acc) = v > acc ? v : acc.
        unsafe { _mm256_max_ps(v, acc) }
    }
    #[inline(always)]
    fn lt32(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only; ordered.
        unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn eq32(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only; ordered.
        unsafe { _mm256_cmp_ps::<_CMP_EQ_OQ>(a, b) }
    }
    #[inline(always)]
    fn select32(self, m: __m256, t: __m256, f: __m256) -> __m256 {
        // SAFETY: register-only (blendvps: mask sign bit selects t).
        unsafe { _mm256_blendv_ps(f, t, m) }
    }
    #[inline(always)]
    fn and32(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_and_ps(a, b) }
    }
    #[inline(always)]
    fn true32(self) -> __m256 {
        // SAFETY: register-only.
        unsafe { _mm256_castsi256_ps(_mm256_set1_epi32(-1)) }
    }
    #[inline(always)]
    fn all32(self, m: __m256) -> bool {
        // SAFETY: register-only.
        unsafe { _mm256_movemask_ps(m) == 0xFF }
    }
}

// ---------------------------------------------------------------------------
// `#[target_feature]` entry points — the dispatch surface, one per ISA for
// every kernel. Each monomorph is the single function in its call tree that
// carries the CPU feature; everything it calls is `#[inline(always)]` so the
// intrinsics land inside it.
// ---------------------------------------------------------------------------

/// Run `k` on SSE4.1 lanes.
///
/// # Safety
/// The CPU must support SSE4.1; the dispatcher verifies this with
/// `is_x86_feature_detected!` before selecting this function.
// simd-safety: reached only through the `run_at` arm guarded by runtime
// feature detection; the token constructed below carries that proof to every
// intrinsic the kernel inlines, and all slice accesses are bounds-asserted.
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn run_sse41<K: Kernel>(k: K) -> K::Out {
    // SAFETY: this function's contract is exactly the constructor's.
    k.run(unsafe { Sse41::new() })
}

/// Run `k` on AVX2 lanes.
///
/// # Safety
/// The CPU must support AVX2; the dispatcher verifies this with
/// `is_x86_feature_detected!` before selecting this function.
// simd-safety: reached only through the `run_at` arm guarded by runtime
// feature detection; the token constructed below carries that proof to every
// intrinsic the kernel inlines, and all slice accesses are bounds-asserted.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn run_avx2<K: Kernel>(k: K) -> K::Out {
    // SAFETY: this function's contract is exactly the constructor's.
    k.run(unsafe { Avx2::new() })
}

// ---------------------------------------------------------------------------
// Byte shuffle transpose networks. These do not go through the Isa trait —
// byte permutation has no lane arithmetic to abstract — so the vector bodies
// live here directly, with tails delegated to the scalar forms.
// ---------------------------------------------------------------------------

/// [`crate::shuffle4_into_at`] at SSE4.1: 16 elements (64 bytes) per step.
///
/// # Safety
/// Requires SSE4.1 (SSSE3 pshufb + SSE2); the dispatcher verifies via
/// `is_x86_feature_detected!` before selecting this function.
// simd-safety: feature presence guaranteed by dispatch-time detection; every
// load/store offset is bounded by the `e + 16 <= n` loop condition against
// the asserted plane layout (4 planes of n bytes each).
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn shuffle4_sse41(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "shuffle4: length mismatch");
    assert_eq!(src.len() % 4, 0, "shuffle4: length must be a multiple of 4");
    let n = src.len() / 4;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    // Gathers each element's 4 bytes into per-plane dwords: [P0 P1 P2 P3].
    // (Safe call: the enclosing fn carries the target feature.)
    let mask = _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    let mut e = 0;
    while e + 16 <= n {
        // SAFETY: e + 16 <= n, so the four 16-byte loads cover
        // src[4e .. 4e + 64] ⊂ src, and each plane store writes
        // dst[p * n + e .. p * n + e + 16] ⊂ dst.
        unsafe {
            let a = _mm_shuffle_epi8(_mm_loadu_si128(sp.add(4 * e) as *const __m128i), mask);
            let b = _mm_shuffle_epi8(_mm_loadu_si128(sp.add(4 * e + 16) as *const __m128i), mask);
            let c = _mm_shuffle_epi8(_mm_loadu_si128(sp.add(4 * e + 32) as *const __m128i), mask);
            let d = _mm_shuffle_epi8(_mm_loadu_si128(sp.add(4 * e + 48) as *const __m128i), mask);
            // a..d hold dwords [P0 P1 P2 P3] for elements 0-3, 4-7, 8-11,
            // 12-15 of this step; two unpack rounds transpose to planes.
            let t0 = _mm_unpacklo_epi32(a, b);
            let t1 = _mm_unpackhi_epi32(a, b);
            let t2 = _mm_unpacklo_epi32(c, d);
            let t3 = _mm_unpackhi_epi32(c, d);
            _mm_storeu_si128(dp.add(e) as *mut __m128i, _mm_unpacklo_epi64(t0, t2));
            _mm_storeu_si128(dp.add(n + e) as *mut __m128i, _mm_unpackhi_epi64(t0, t2));
            _mm_storeu_si128(
                dp.add(2 * n + e) as *mut __m128i,
                _mm_unpacklo_epi64(t1, t3),
            );
            _mm_storeu_si128(
                dp.add(3 * n + e) as *mut __m128i,
                _mm_unpackhi_epi64(t1, t3),
            );
        }
        e += 16;
    }
    kernels::shuffle4_scalar(src, dst, e);
}

/// [`crate::unshuffle4_into_at`] at SSE4.1: 16 elements per step.
///
/// # Safety
/// Requires SSE4.1; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection; loads
// read 16 bytes per plane at offsets bounded by `e + 16 <= n`, stores write
// dst[4e .. 4e + 64].
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn unshuffle4_sse41(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "unshuffle4: length mismatch");
    assert_eq!(
        src.len() % 4,
        0,
        "unshuffle4: length must be a multiple of 4"
    );
    let n = src.len() / 4;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut e = 0;
    while e + 16 <= n {
        // SAFETY: e + 16 <= n bounds every plane load; stores cover
        // dst[4e .. 4e + 64] ⊂ dst.
        unsafe {
            let a = _mm_loadu_si128(sp.add(e) as *const __m128i);
            let b = _mm_loadu_si128(sp.add(n + e) as *const __m128i);
            let c = _mm_loadu_si128(sp.add(2 * n + e) as *const __m128i);
            let d = _mm_loadu_si128(sp.add(3 * n + e) as *const __m128i);
            // Interleave planes 0/1 and 2/3 bytewise, then pair the 16-bit
            // halves to rebuild whole 4-byte elements.
            let u0 = _mm_unpacklo_epi8(a, b);
            let u1 = _mm_unpackhi_epi8(a, b);
            let v0 = _mm_unpacklo_epi8(c, d);
            let v1 = _mm_unpackhi_epi8(c, d);
            _mm_storeu_si128(dp.add(4 * e) as *mut __m128i, _mm_unpacklo_epi16(u0, v0));
            _mm_storeu_si128(
                dp.add(4 * e + 16) as *mut __m128i,
                _mm_unpackhi_epi16(u0, v0),
            );
            _mm_storeu_si128(
                dp.add(4 * e + 32) as *mut __m128i,
                _mm_unpacklo_epi16(u1, v1),
            );
            _mm_storeu_si128(
                dp.add(4 * e + 48) as *mut __m128i,
                _mm_unpackhi_epi16(u1, v1),
            );
        }
        e += 16;
    }
    kernels::unshuffle4_scalar(src, dst, e);
}

/// [`crate::shuffle4_into_at`] at AVX2: 32 elements (128 bytes) per step.
///
/// # Safety
/// Requires AVX2; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection; loads
// cover src[4e .. 4e + 128] and each plane store writes 32 bytes at offsets
// bounded by `e + 32 <= n`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn shuffle4_avx2(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "shuffle4: length mismatch");
    assert_eq!(src.len() % 4, 0, "shuffle4: length must be a multiple of 4");
    let n = src.len() / 4;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    // Per-128-bit-lane byte gather (same mask as SSE, applied to each lane).
    // (Safe calls: the enclosing fn carries the target feature.)
    let mask = _mm256_setr_epi8(
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, 0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10,
        14, 3, 7, 11, 15,
    );
    let idx = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let mut e = 0;
    while e + 32 <= n {
        // SAFETY: e + 32 <= n bounds the four 32-byte loads within src and
        // each plane store within its n-byte plane of dst.
        unsafe {
            // After vpshufb each lane holds [P0 P1 P2 P3] dwords for its 4
            // elements; vpermd regroups so qword k holds plane-k bytes of
            // all 8 elements in the register.
            let ld = |off: usize| -> __m256i {
                _mm256_permutevar8x32_epi32(
                    _mm256_shuffle_epi8(_mm256_loadu_si256(sp.add(off) as *const __m256i), mask),
                    idx,
                )
            };
            let za = ld(4 * e); // elements e .. e+8
            let zb = ld(4 * e + 32); // e+8 .. e+16
            let zc = ld(4 * e + 64); // e+16 .. e+24
            let zd = ld(4 * e + 96); // e+24 .. e+32
            let t0 = _mm256_unpacklo_epi64(za, zb); // [A0 B0 | A2 B2]
            let t1 = _mm256_unpackhi_epi64(za, zb); // [A1 B1 | A3 B3]
            let t2 = _mm256_unpacklo_epi64(zc, zd); // [C0 D0 | C2 D2]
            let t3 = _mm256_unpackhi_epi64(zc, zd); // [C1 D1 | C3 D3]
            _mm256_storeu_si256(
                dp.add(e) as *mut __m256i,
                _mm256_permute2x128_si256::<0x20>(t0, t2),
            );
            _mm256_storeu_si256(
                dp.add(n + e) as *mut __m256i,
                _mm256_permute2x128_si256::<0x20>(t1, t3),
            );
            _mm256_storeu_si256(
                dp.add(2 * n + e) as *mut __m256i,
                _mm256_permute2x128_si256::<0x31>(t0, t2),
            );
            _mm256_storeu_si256(
                dp.add(3 * n + e) as *mut __m256i,
                _mm256_permute2x128_si256::<0x31>(t1, t3),
            );
        }
        e += 32;
    }
    kernels::shuffle4_scalar(src, dst, e);
}

/// [`crate::unshuffle4_into_at`] at AVX2: 32 elements per step.
///
/// # Safety
/// Requires AVX2; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection; plane
// loads and element stores are bounded by `e + 32 <= n` as in shuffle4_avx2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn unshuffle4_avx2(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "unshuffle4: length mismatch");
    assert_eq!(
        src.len() % 4,
        0,
        "unshuffle4: length must be a multiple of 4"
    );
    let n = src.len() / 4;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut e = 0;
    while e + 32 <= n {
        // SAFETY: e + 32 <= n bounds every 32-byte plane load; stores cover
        // dst[4e .. 4e + 128] ⊂ dst.
        unsafe {
            let za = _mm256_loadu_si256(sp.add(e) as *const __m256i);
            let zb = _mm256_loadu_si256(sp.add(n + e) as *const __m256i);
            let zc = _mm256_loadu_si256(sp.add(2 * n + e) as *const __m256i);
            let zd = _mm256_loadu_si256(sp.add(3 * n + e) as *const __m256i);
            let u0 = _mm256_unpacklo_epi8(za, zb); // elems [0-7 | 16-23] planes 0,1
            let u1 = _mm256_unpackhi_epi8(za, zb); // [8-15 | 24-31]
            let v0 = _mm256_unpacklo_epi8(zc, zd);
            let v1 = _mm256_unpackhi_epi8(zc, zd);
            let w0 = _mm256_unpacklo_epi16(u0, v0); // whole elems [0-3 | 16-19]
            let w1 = _mm256_unpackhi_epi16(u0, v0); // [4-7 | 20-23]
            let w2 = _mm256_unpacklo_epi16(u1, v1); // [8-11 | 24-27]
            let w3 = _mm256_unpackhi_epi16(u1, v1); // [12-15 | 28-31]
            _mm256_storeu_si256(
                dp.add(4 * e) as *mut __m256i,
                _mm256_permute2x128_si256::<0x20>(w0, w1),
            );
            _mm256_storeu_si256(
                dp.add(4 * e + 32) as *mut __m256i,
                _mm256_permute2x128_si256::<0x20>(w2, w3),
            );
            _mm256_storeu_si256(
                dp.add(4 * e + 64) as *mut __m256i,
                _mm256_permute2x128_si256::<0x31>(w0, w1),
            );
            _mm256_storeu_si256(
                dp.add(4 * e + 96) as *mut __m256i,
                _mm256_permute2x128_si256::<0x31>(w2, w3),
            );
        }
        e += 32;
    }
    kernels::unshuffle4_scalar(src, dst, e);
}

// ---------------------------------------------------------------------------
// Lane-major copies: register-tile transposes of 32-bit words, with the
// lanes and rows past the last whole tile delegated to the scalar forms.
// ---------------------------------------------------------------------------

/// [`crate::to_lane_major_at`] at AVX2: tiles of 8 lanes by 4 rows. A row
/// of four words of block `a` and of block `a + 4` share a register; two
/// rounds of in-lane shuffles turn four such registers into four rows of
/// the tile.
///
/// # Safety
/// Requires AVX2; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection;
// `lane_major_rows` checks that every block holds `rows` words inside `src`
// and that `dst_t` is `rows` rows of `lanes` words, and every load reads
// words `i..i + 4 <= rows` of a block and every store writes words
// `l0..l0 + 8 <= lanes` of a row `< rows`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn to_lane_major_avx2(src: &[u32], starts: &[usize], dst_t: &mut [u32]) {
    let rows = kernels::lane_major_rows(src.len(), starts, dst_t.len());
    let lanes = starts.len();
    let (tiled_lanes, tiled_rows) = (lanes - lanes % 8, rows - rows % 4);
    let sp = src.as_ptr().cast::<f32>();
    let dp = dst_t.as_mut_ptr().cast::<f32>();
    for l0 in (0..tiled_lanes).step_by(8) {
        let s = &starts[l0..l0 + 8];
        let mut i = 0;
        while i < tiled_rows {
            // SAFETY: see the simd-safety comment above.
            unsafe {
                let r0 = _mm256_insertf128_ps::<1>(
                    _mm256_castps128_ps256(_mm_loadu_ps(sp.add(s[0] + i))),
                    _mm_loadu_ps(sp.add(s[4] + i)),
                );
                let r1 = _mm256_insertf128_ps::<1>(
                    _mm256_castps128_ps256(_mm_loadu_ps(sp.add(s[1] + i))),
                    _mm_loadu_ps(sp.add(s[5] + i)),
                );
                let r2 = _mm256_insertf128_ps::<1>(
                    _mm256_castps128_ps256(_mm_loadu_ps(sp.add(s[2] + i))),
                    _mm_loadu_ps(sp.add(s[6] + i)),
                );
                let r3 = _mm256_insertf128_ps::<1>(
                    _mm256_castps128_ps256(_mm_loadu_ps(sp.add(s[3] + i))),
                    _mm_loadu_ps(sp.add(s[7] + i)),
                );
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                let row = dp.add(i * lanes + l0);
                _mm256_storeu_ps(row, _mm256_shuffle_ps::<0x44>(t0, t2));
                _mm256_storeu_ps(row.add(lanes), _mm256_shuffle_ps::<0xEE>(t0, t2));
                _mm256_storeu_ps(row.add(2 * lanes), _mm256_shuffle_ps::<0x44>(t1, t3));
                _mm256_storeu_ps(row.add(3 * lanes), _mm256_shuffle_ps::<0xEE>(t1, t3));
            }
            i += 4;
        }
    }
    kernels::to_lane_major_scalar(src, starts, dst_t, tiled_lanes..lanes, 0..rows);
    kernels::to_lane_major_scalar(src, starts, dst_t, 0..tiled_lanes, tiled_rows..rows);
}

/// [`crate::from_lane_major_at`] at AVX2: the tiles of
/// [`to_lane_major_avx2`] taken apart by the same shuffles, the low half of
/// each register to block `a` and the high half to block `a + 4`.
///
/// # Safety
/// Requires AVX2; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection;
// `lane_major_rows` checks that every block holds `rows` words inside `dst`
// and that `src_t` is `rows` rows of `lanes` words, and every load reads
// words `l0..l0 + 8 <= lanes` of a row `< rows` and every store writes
// words `i..i + 4 <= rows` of a block.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn from_lane_major_avx2(src_t: &[u32], starts: &[usize], dst: &mut [u32]) {
    let rows = kernels::lane_major_rows(dst.len(), starts, src_t.len());
    let lanes = starts.len();
    let (tiled_lanes, tiled_rows) = (lanes - lanes % 8, rows - rows % 4);
    let sp = src_t.as_ptr().cast::<f32>();
    let dp = dst.as_mut_ptr().cast::<f32>();
    for l0 in (0..tiled_lanes).step_by(8) {
        let s = &starts[l0..l0 + 8];
        let mut i = 0;
        while i < tiled_rows {
            // SAFETY: see the simd-safety comment above.
            unsafe {
                let row = sp.add(i * lanes + l0);
                let r0 = _mm256_loadu_ps(row);
                let r1 = _mm256_loadu_ps(row.add(lanes));
                let r2 = _mm256_loadu_ps(row.add(2 * lanes));
                let r3 = _mm256_loadu_ps(row.add(3 * lanes));
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                let b0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let b1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let b2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let b3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                _mm_storeu_ps(dp.add(s[0] + i), _mm256_castps256_ps128(b0));
                _mm_storeu_ps(dp.add(s[1] + i), _mm256_castps256_ps128(b1));
                _mm_storeu_ps(dp.add(s[2] + i), _mm256_castps256_ps128(b2));
                _mm_storeu_ps(dp.add(s[3] + i), _mm256_castps256_ps128(b3));
                _mm_storeu_ps(dp.add(s[4] + i), _mm256_extractf128_ps::<1>(b0));
                _mm_storeu_ps(dp.add(s[5] + i), _mm256_extractf128_ps::<1>(b1));
                _mm_storeu_ps(dp.add(s[6] + i), _mm256_extractf128_ps::<1>(b2));
                _mm_storeu_ps(dp.add(s[7] + i), _mm256_extractf128_ps::<1>(b3));
            }
            i += 4;
        }
    }
    kernels::from_lane_major_scalar(src_t, starts, dst, tiled_lanes..lanes, 0..rows);
    kernels::from_lane_major_scalar(src_t, starts, dst, 0..tiled_lanes, tiled_rows..rows);
}

/// [`crate::to_lane_major_at`] at SSE4.1: tiles of 4 lanes by 4 rows, the
/// shuffles of [`to_lane_major_avx2`] on one 128-bit lane.
///
/// # Safety
/// Requires SSE4.1; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection;
// bounds as in `to_lane_major_avx2`, with tiles 4 lanes wide.
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn to_lane_major_sse41(src: &[u32], starts: &[usize], dst_t: &mut [u32]) {
    let rows = kernels::lane_major_rows(src.len(), starts, dst_t.len());
    let lanes = starts.len();
    let (tiled_lanes, tiled_rows) = (lanes - lanes % 4, rows - rows % 4);
    let sp = src.as_ptr().cast::<f32>();
    let dp = dst_t.as_mut_ptr().cast::<f32>();
    for l0 in (0..tiled_lanes).step_by(4) {
        let s = &starts[l0..l0 + 4];
        let mut i = 0;
        while i < tiled_rows {
            // SAFETY: see the simd-safety comment above.
            unsafe {
                let r0 = _mm_loadu_ps(sp.add(s[0] + i));
                let r1 = _mm_loadu_ps(sp.add(s[1] + i));
                let r2 = _mm_loadu_ps(sp.add(s[2] + i));
                let r3 = _mm_loadu_ps(sp.add(s[3] + i));
                let t0 = _mm_unpacklo_ps(r0, r1);
                let t1 = _mm_unpackhi_ps(r0, r1);
                let t2 = _mm_unpacklo_ps(r2, r3);
                let t3 = _mm_unpackhi_ps(r2, r3);
                let row = dp.add(i * lanes + l0);
                _mm_storeu_ps(row, _mm_shuffle_ps::<0x44>(t0, t2));
                _mm_storeu_ps(row.add(lanes), _mm_shuffle_ps::<0xEE>(t0, t2));
                _mm_storeu_ps(row.add(2 * lanes), _mm_shuffle_ps::<0x44>(t1, t3));
                _mm_storeu_ps(row.add(3 * lanes), _mm_shuffle_ps::<0xEE>(t1, t3));
            }
            i += 4;
        }
    }
    kernels::to_lane_major_scalar(src, starts, dst_t, tiled_lanes..lanes, 0..rows);
    kernels::to_lane_major_scalar(src, starts, dst_t, 0..tiled_lanes, tiled_rows..rows);
}

/// [`crate::from_lane_major_at`] at SSE4.1: tiles of 4 lanes by 4 rows.
///
/// # Safety
/// Requires SSE4.1; verified by the dispatcher at detection time.
// simd-safety: feature presence guaranteed by dispatch-time detection;
// bounds as in `from_lane_major_avx2`, with tiles 4 lanes wide.
#[target_feature(enable = "sse4.1")]
pub(crate) unsafe fn from_lane_major_sse41(src_t: &[u32], starts: &[usize], dst: &mut [u32]) {
    let rows = kernels::lane_major_rows(dst.len(), starts, src_t.len());
    let lanes = starts.len();
    let (tiled_lanes, tiled_rows) = (lanes - lanes % 4, rows - rows % 4);
    let sp = src_t.as_ptr().cast::<f32>();
    let dp = dst.as_mut_ptr().cast::<f32>();
    for l0 in (0..tiled_lanes).step_by(4) {
        let s = &starts[l0..l0 + 4];
        let mut i = 0;
        while i < tiled_rows {
            // SAFETY: see the simd-safety comment above.
            unsafe {
                let row = sp.add(i * lanes + l0);
                let r0 = _mm_loadu_ps(row);
                let r1 = _mm_loadu_ps(row.add(lanes));
                let r2 = _mm_loadu_ps(row.add(2 * lanes));
                let r3 = _mm_loadu_ps(row.add(3 * lanes));
                let t0 = _mm_unpacklo_ps(r0, r1);
                let t1 = _mm_unpackhi_ps(r0, r1);
                let t2 = _mm_unpacklo_ps(r2, r3);
                let t3 = _mm_unpackhi_ps(r2, r3);
                _mm_storeu_ps(dp.add(s[0] + i), _mm_shuffle_ps::<0x44>(t0, t2));
                _mm_storeu_ps(dp.add(s[1] + i), _mm_shuffle_ps::<0xEE>(t0, t2));
                _mm_storeu_ps(dp.add(s[2] + i), _mm_shuffle_ps::<0x44>(t1, t3));
                _mm_storeu_ps(dp.add(s[3] + i), _mm_shuffle_ps::<0xEE>(t1, t3));
            }
            i += 4;
        }
    }
    kernels::from_lane_major_scalar(src_t, starts, dst, tiled_lanes..lanes, 0..rows);
    kernels::from_lane_major_scalar(src_t, starts, dst, 0..tiled_lanes, tiled_rows..rows);
}
