//! aarch64 NEON backend (2×f64 / 4×f32). NEON (ASIMD) is part of the
//! aarch64 baseline, so `detected_level()` selects it unconditionally and
//! the `unsafe` here is a formality of the `std::arch` API rather than a
//! runtime-detection hazard. The structure mirrors `x86.rs`: safe trait
//! methods whose `unsafe` blocks are justified by the [`Neon`] token
//! invariant, plus one generic `#[target_feature]` entry point, `run_neon`,
//! that `run_at` in `lib.rs` calls for every [`Kernel`], and the two
//! hand-written byte shuffles.

use core::arch::aarch64::*;

use crate::isa::Isa;
use crate::kernels::{self, Kernel};

/// NEON token. Invariant: a value of this type proves ASIMD is available
/// (always true on aarch64, but kept symmetric with the x86 tokens).
#[derive(Clone, Copy)]
pub(crate) struct Neon(());

impl Neon {
    /// # Safety
    /// The caller must guarantee NEON/ASIMD is available (aarch64 baseline).
    #[inline(always)]
    unsafe fn new() -> Self {
        Neon(())
    }
}

impl Isa for Neon {
    const W64: usize = 2;
    const W32: usize = 4;
    type F64 = float64x2_t;
    type F32 = float32x4_t;
    type M64 = uint64x2_t;
    type M32 = uint32x4_t;

    #[inline(always)]
    fn splat(self, x: f64) -> float64x2_t {
        // SAFETY (here and in every block below): `self` proves ASIMD per
        // the type invariant; pointer ops are preceded by bounds asserts.
        unsafe { vdupq_n_f64(x) }
    }
    #[inline(always)]
    fn load_f32_wide(self, src: &[f32]) -> float64x2_t {
        assert!(src.len() >= 2);
        // SAFETY: 8 bytes available; widening is exact.
        unsafe { vcvt_f64_f32(vld1_f32(src.as_ptr())) }
    }
    #[inline(always)]
    fn narrow_store(self, v: float64x2_t, dst: &mut [f32]) {
        assert!(dst.len() >= 2);
        // SAFETY: 8 writable bytes; FCVTN rounds to nearest-even like
        // `v as f32`.
        unsafe { vst1_f32(dst.as_mut_ptr(), vcvt_f32_f64(v)) }
    }
    #[inline(always)]
    fn f32_round_trip(self, v: float64x2_t) -> float64x2_t {
        // SAFETY: register-only.
        unsafe { vcvt_f64_f32(vcvt_f32_f64(v)) }
    }
    #[inline(always)]
    fn load_u32_wide(self, src: &[u32]) -> float64x2_t {
        assert!(src.len() >= 2);
        // SAFETY: 8 bytes available; u32→u64→f64 is exact below 2^53.
        unsafe { vcvtq_f64_u64(vmovl_u32(vld1_u32(src.as_ptr()))) }
    }
    #[inline(always)]
    fn trunc_store_u32(self, v: float64x2_t, dst: &mut [u32]) {
        assert!(dst.len() >= 2);
        // SAFETY: 8 writable bytes; FCVTZU truncates toward zero and lanes
        // are in [0, 2^31) per the trait contract, so narrowing is lossless.
        unsafe { vst1_u32(dst.as_mut_ptr(), vmovn_u64(vcvtq_u64_f64(v))) }
    }
    #[inline(always)]
    fn store_f64(self, v: float64x2_t, dst: &mut [f64]) {
        assert!(dst.len() >= 2);
        // SAFETY: 16 writable bytes.
        unsafe { vst1q_f64(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        // SAFETY: register-only.
        unsafe { vaddq_f64(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        // SAFETY: register-only.
        unsafe { vsubq_f64(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        // SAFETY: register-only; FMUL, never fused with a following add.
        unsafe { vmulq_f64(a, b) }
    }
    #[inline(always)]
    fn div(self, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        // SAFETY: register-only.
        unsafe { vdivq_f64(a, b) }
    }
    #[inline(always)]
    fn abs(self, a: float64x2_t) -> float64x2_t {
        // SAFETY: register-only.
        unsafe { vabsq_f64(a) }
    }
    #[inline(always)]
    fn trunc(self, a: float64x2_t) -> float64x2_t {
        // SAFETY: register-only; FRINTZ = toward zero.
        unsafe { vrndq_f64(a) }
    }
    #[inline(always)]
    fn copysign_one(self, x: float64x2_t) -> float64x2_t {
        // SAFETY: register-only; sign bit of x onto 1.0.
        unsafe {
            let sign = vandq_u64(vreinterpretq_u64_f64(x), vdupq_n_u64(0x8000_0000_0000_0000));
            vreinterpretq_f64_u64(vorrq_u64(sign, vreinterpretq_u64_f64(vdupq_n_f64(1.0))))
        }
    }
    #[inline(always)]
    fn cmp_le(self, a: float64x2_t, b: float64x2_t) -> uint64x2_t {
        // SAFETY: register-only; FCMGE-based compares are false on NaN.
        unsafe { vcleq_f64(a, b) }
    }
    #[inline(always)]
    fn cmp_eq(self, a: float64x2_t, b: float64x2_t) -> uint64x2_t {
        // SAFETY: register-only; false on NaN.
        unsafe { vceqq_f64(a, b) }
    }
    #[inline(always)]
    fn or(self, a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        // SAFETY: register-only.
        unsafe { vorrq_u64(a, b) }
    }
    #[inline(always)]
    fn not(self, m: uint64x2_t) -> uint64x2_t {
        // SAFETY: register-only.
        unsafe { veorq_u64(m, vdupq_n_u64(u64::MAX)) }
    }
    #[inline(always)]
    fn select(self, m: uint64x2_t, t: float64x2_t, f: float64x2_t) -> float64x2_t {
        // SAFETY: register-only; masks are all-ones/all-zeros per lane.
        unsafe { vbslq_f64(m, t, f) }
    }
    #[inline(always)]
    fn exponent_unbiased(self, v: float64x2_t) -> float64x2_t {
        // SAFETY: register-only; exp - 1023 ∈ [-1023, 1024], exact in f64.
        unsafe {
            let bits = vreinterpretq_u64_f64(v);
            let exp = vandq_u64(vshrq_n_u64::<52>(bits), vdupq_n_u64(0x7FF));
            let unb = vsubq_s64(vreinterpretq_s64_u64(exp), vdupq_n_s64(1023));
            vcvtq_f64_s64(unb)
        }
    }

    #[inline(always)]
    fn splat32(self, x: f32) -> float32x4_t {
        // SAFETY: register-only.
        unsafe { vdupq_n_f32(x) }
    }
    #[inline(always)]
    fn load32(self, src: &[f32]) -> float32x4_t {
        assert!(src.len() >= 4);
        // SAFETY: 16 bytes available.
        unsafe { vld1q_f32(src.as_ptr()) }
    }
    #[inline(always)]
    fn store32(self, v: float32x4_t, dst: &mut [f32]) {
        assert!(dst.len() >= 4);
        // SAFETY: 16 writable bytes.
        unsafe { vst1q_f32(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add32(self, a: float32x4_t, b: float32x4_t) -> float32x4_t {
        // SAFETY: register-only.
        unsafe { vaddq_f32(a, b) }
    }
    #[inline(always)]
    fn mul32(self, a: float32x4_t, b: float32x4_t) -> float32x4_t {
        // SAFETY: register-only; FMUL, never fused.
        unsafe { vmulq_f32(a, b) }
    }
    #[inline(always)]
    fn abs32(self, a: float32x4_t) -> float32x4_t {
        // SAFETY: register-only.
        unsafe { vabsq_f32(a) }
    }
    #[inline(always)]
    fn iota32(self) -> float32x4_t {
        let lanes: [f32; 4] = [0.0, 1.0, 2.0, 3.0];
        // SAFETY: 16 readable bytes in the local array.
        unsafe { vld1q_f32(lanes.as_ptr()) }
    }
    #[inline(always)]
    fn min_sel32(self, acc: float32x4_t, v: float32x4_t) -> float32x4_t {
        // SAFETY: register-only. Explicit compare+select, NOT vminq_f32:
        // FMIN orders -0.0 < +0.0 (and propagates NaN), which diverges from
        // the scalar `v < acc ? v : acc` the trait pins.
        unsafe { vbslq_f32(vcltq_f32(v, acc), v, acc) }
    }
    #[inline(always)]
    fn max_sel32(self, acc: float32x4_t, v: float32x4_t) -> float32x4_t {
        // SAFETY: register-only; same reasoning as min_sel32.
        unsafe { vbslq_f32(vcgtq_f32(v, acc), v, acc) }
    }
    #[inline(always)]
    fn lt32(self, a: float32x4_t, b: float32x4_t) -> uint32x4_t {
        // SAFETY: register-only; false on NaN.
        unsafe { vcltq_f32(a, b) }
    }
    #[inline(always)]
    fn eq32(self, a: float32x4_t, b: float32x4_t) -> uint32x4_t {
        // SAFETY: register-only; false on NaN.
        unsafe { vceqq_f32(a, b) }
    }
    #[inline(always)]
    fn select32(self, m: uint32x4_t, t: float32x4_t, f: float32x4_t) -> float32x4_t {
        // SAFETY: register-only; masks are all-ones/all-zeros per lane.
        unsafe { vbslq_f32(m, t, f) }
    }
    #[inline(always)]
    fn and32(self, a: uint32x4_t, b: uint32x4_t) -> uint32x4_t {
        // SAFETY: register-only.
        unsafe { vandq_u32(a, b) }
    }
    #[inline(always)]
    fn true32(self) -> uint32x4_t {
        // SAFETY: register-only.
        unsafe { vdupq_n_u32(u32::MAX) }
    }
    #[inline(always)]
    fn all32(self, m: uint32x4_t) -> bool {
        // SAFETY: register-only; horizontal min is MAX iff all lanes set.
        unsafe { vminvq_u32(m) == u32::MAX }
    }
}

// ---------------------------------------------------------------------------
// `#[target_feature]` entry points (see x86.rs for the structure rationale).
// ---------------------------------------------------------------------------

/// Run `k` on NEON lanes.
///
/// # Safety
/// Requires NEON/ASIMD, which is part of the aarch64 baseline; the
/// dispatcher only installs `Level::Neon` on aarch64.
// simd-safety: NEON is unconditionally present on aarch64; the token
// constructed below carries that proof to every intrinsic the kernel inlines,
// and all slice accesses are bounds-asserted.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn run_neon<K: Kernel>(k: K) -> K::Out {
    // SAFETY: this function's contract is exactly the constructor's.
    k.run(unsafe { Neon::new() })
}

/// [`crate::shuffle4_into_at`] at NEON: 16 elements (64 bytes) per step via
/// the de-interleaving structure load `vld4q_u8`.
///
/// # Safety
/// Requires NEON/ASIMD (aarch64 baseline).
// simd-safety: NEON is unconditionally present on aarch64; loads cover
// src[4e .. 4e + 64] and each plane store writes 16 bytes, all bounded by
// the `e + 16 <= n` loop condition against the asserted layout.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn shuffle4_neon(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "shuffle4: length mismatch");
    assert_eq!(src.len() % 4, 0, "shuffle4: length must be a multiple of 4");
    let n = src.len() / 4;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut e = 0;
    while e + 16 <= n {
        // SAFETY: e + 16 <= n bounds the 64-byte structure load within src
        // and each 16-byte plane store within its plane of dst.
        unsafe {
            let q = vld4q_u8(sp.add(4 * e));
            vst1q_u8(dp.add(e), q.0);
            vst1q_u8(dp.add(n + e), q.1);
            vst1q_u8(dp.add(2 * n + e), q.2);
            vst1q_u8(dp.add(3 * n + e), q.3);
        }
        e += 16;
    }
    kernels::shuffle4_scalar(src, dst, e);
}

/// [`crate::unshuffle4_into_at`] at NEON: 16 elements per step via the
/// interleaving structure store `vst4q_u8`.
///
/// # Safety
/// Requires NEON/ASIMD (aarch64 baseline).
// simd-safety: NEON is unconditionally present on aarch64; plane loads and
// the 64-byte structure store are bounded by `e + 16 <= n`.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn unshuffle4_neon(src: &[u8], dst: &mut [u8]) {
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
        // SAFETY: e + 16 <= n bounds every 16-byte plane load within src and
        // the 64-byte structure store within dst.
        unsafe {
            let q = uint8x16x4_t(
                vld1q_u8(sp.add(e)),
                vld1q_u8(sp.add(n + e)),
                vld1q_u8(sp.add(2 * n + e)),
                vld1q_u8(sp.add(3 * n + e)),
            );
            vst4q_u8(dp.add(4 * e), q);
        }
        e += 16;
    }
    kernels::unshuffle4_scalar(src, dst, e);
}
