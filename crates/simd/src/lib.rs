//! Runtime-dispatched SIMD kernels for the codec hot paths.
//!
//! Every kernel here exists in (up to) four implementations — scalar,
//! SSE4.1, AVX2 (x86_64) and NEON (aarch64) — selected once at startup from
//! CPU feature detection (overridable with `FEDSZ_SIMD=scalar|sse41|avx2|
//! neon`). The contract that makes runtime dispatch safe for a compression
//! codec is the **same-bits rule**: every vector kernel is pinned
//! bit-identical to its scalar twin — same rounding (no FMA contraction,
//! same `round`/truncate emulation), same NaN/Inf escape decisions, same
//! remainder handling — so wire bytes, checkpoints, and aggregation folds do
//! not depend on which ISA produced them. `crates/simd/tests/parity.rs`
//! sweeps every kernel across hostile inputs to enforce this.
//!
//! # Architecture
//!
//! * [`isa`] defines the portable lane-width trait `isa::Isa` plus the
//!   always-available `isa::ScalarIsa` reference implementation.
//! * [`kernels`] holds one generic implementation of each kernel, written
//!   against the trait: an argument struct implementing the `Kernel`
//!   visitor. Monomorphised with `ScalarIsa` it *is* the scalar twin;
//!   remainders shorter than a vector are delegated to that same scalar
//!   code so every element takes one of exactly two code paths.
//! * `x86` / `neon` implement the trait over `std::arch` intrinsics and
//!   expose one generic `#[target_feature]` entry point per level
//!   (`run_sse41`, `run_avx2`, `run_neon`) that runs any kernel, plus the
//!   hand-written byte shuffles. These entry points are the only
//!   unsafe-to-call surface, each carrying a `// simd-safety:` audit comment
//!   (enforced by fedsz-lint rule R6).
//! * This module owns [`Level`] selection, `run_at` — the one `match` from a
//!   level to its entry point — and the public dispatched API.
//!
//! The workspace-wide `unsafe_code = "forbid"` stays in force everywhere
//! else; this crate alone opts out and compensates with
//! `#![deny(unsafe_op_in_unsafe_fn)]` and per-function safety comments.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod isa;
pub mod kernels;
#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

use isa::ScalarIsa;
use kernels::{
    AbsResiduals, CubicPreds, Kernel, LinearPreds, LorenzoQuantize, MidpointPreds, MinmaxFinite,
    PackOffsets, Quantize, Reconstruct, ResidualCosts, UnpackOffsets,
};

/// A dispatch level, ordered from the universal fallback upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Plain Rust scalar code; available everywhere and the parity reference.
    Scalar = 1,
    /// SSE4.1 (x86_64): 2×f64 / 4×f32 lanes.
    Sse41 = 2,
    /// AVX2 (x86_64): 4×f64 / 8×f32 lanes.
    Avx2 = 3,
    /// NEON (aarch64, baseline): 2×f64 / 4×f32 lanes.
    Neon = 4,
}

impl Level {
    /// Stable lower-case name, also accepted by the `FEDSZ_SIMD` env var.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse41 => "sse41",
            Level::Avx2 => "avx2",
            Level::Neon => "neon",
        }
    }

    /// Parse a `FEDSZ_SIMD` value (case-insensitive; `sse4.1` is accepted).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Level::Scalar),
            "sse41" | "sse4.1" => Some(Level::Sse41),
            "avx2" => Some(Level::Avx2),
            "neon" => Some(Level::Neon),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Scalar),
            2 => Some(Level::Sse41),
            3 => Some(Level::Avx2),
            4 => Some(Level::Neon),
            _ => None,
        }
    }
}

/// Best level the host CPU supports, ignoring any override: the last of the
/// ascending [`available_levels`].
pub fn detected_level() -> Level {
    available_levels().pop().unwrap_or(Level::Scalar)
}

/// Whether `level` can run on this host.
pub(crate) fn supported(level: Level) -> bool {
    available_levels().contains(&level)
}

/// Every level runnable on this host, ascending (always starts with Scalar).
/// The one place the host's features are detected; NEON is part of the
/// aarch64 baseline, so it needs no runtime check.
pub fn available_levels() -> Vec<Level> {
    let mut out = vec![Level::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.1") {
            out.push(Level::Sse41);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(Level::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        out.push(Level::Neon);
    }
    out
}

/// Active dispatch level. 0 = not yet initialised. An atomic rather than a
/// `OnceLock` so tests and benches can switch levels in-process — harmless
/// mid-stream because every level produces identical bits.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The level all dispatched kernels currently use. First call resolves the
/// `FEDSZ_SIMD` env override (unknown or unsupported values fall back to
/// detection) and caches the result.
pub fn active_level() -> Level {
    match Level::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(l) => l,
        None => init_level(),
    }
}

#[cold]
fn init_level() -> Level {
    let chosen = match std::env::var("FEDSZ_SIMD") {
        Ok(v) => match Level::parse(&v) {
            Some(req) if supported(req) => req,
            _ => detected_level(),
        },
        Err(_) => detected_level(),
    };
    ACTIVE.store(chosen as u8, Ordering::Relaxed);
    chosen
}

/// Force the dispatch level (clamped to what the host supports); returns the
/// level actually installed. Intended for tests, benches, and the parity
/// harness — safe at any time because all levels are bit-identical.
pub fn override_level(level: Level) -> Level {
    let actual = if supported(level) {
        level
    } else {
        detected_level()
    };
    ACTIVE.store(actual as u8, Ordering::Relaxed);
    actual
}

/// Quantizer parameters shared by [`quantize`] and [`reconstruct`].
///
/// `bin` must equal `2 * abs_eb`; `radius` is half the code-book size (codes
/// span `1..2*radius`, code 0 marks an escape).
#[derive(Debug, Clone, Copy)]
pub struct QuantParams {
    /// Absolute error bound ε.
    pub abs_eb: f64,
    /// Quantization bin width, `2ε`.
    pub bin: f64,
    /// Half the code book (`1 << 15` for the SZ pipelines), as f64.
    pub radius: f64,
}

/// Run `k` at `level`: the one `match` over [`Level`] for every
/// [`Kernel`]. The `_ =>` arm covers `Scalar` plus any level this
/// architecture cannot host (which `active_level`/`override_level` never
/// install, but the match must be total).
#[inline(always)]
fn run_at<K: Kernel>(level: Level, k: K) -> K::Out {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Sse41`/`Avx2` are only installed by `active_level`/
        // `override_level` after `is_x86_feature_detected!` succeeded, and
        // `*_at` callers pass levels from `available_levels()`.
        Level::Sse41 => unsafe { x86::run_sse41(k) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2 proven available before this arm is taken.
        Level::Avx2 => unsafe { x86::run_avx2(k) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Level::Neon => unsafe { neon::run_neon(k) },
        _ => k.run(ScalarIsa),
    }
}

// ---------------------------------------------------------------------------
// Dispatched kernels. Each `*_at` runs at an explicit level (the bench micro
// tier and the parity tests need that); the plain form uses `active_level()`.
// ---------------------------------------------------------------------------

/// Batch linear quantization: for each `i`, quantize `values[i]` against
/// `preds[i]`. On success `codes[i]` is the non-zero code and `recons[i]`
/// the reconstruction the decoder will see; on escape (non-finite value or
/// prediction, out-of-range code, or a bound-breaking f32 rounding)
/// `codes[i] == 0` and
/// `recons[i] == 0.0` — the caller stores the original value as a literal
/// and patches its own reconstruction state from it.
///
/// Scalar twin: `Quantizer::quantize` in `crates/eblc/src/quantizer.rs`.
pub fn quantize(
    values: &[f32],
    preds: &[f32],
    p: QuantParams,
    codes: &mut [u32],
    recons: &mut [f32],
) {
    quantize_at(active_level(), values, preds, p, codes, recons);
}

/// [`quantize`] at an explicit dispatch level.
pub fn quantize_at(
    level: Level,
    values: &[f32],
    preds: &[f32],
    p: QuantParams,
    codes: &mut [u32],
    recons: &mut [f32],
) {
    run_at(level, Quantize(values, preds, p, codes, recons))
}

/// Lorenzo chains quantized side by side. `values_t` holds `lanes` chains
/// lane-major — element `i` of chain `lane` at `values_t[i * lanes + lane]`
/// — and `codes_t` receives their codes in the same layout. Each chain
/// starts from a prediction of 0; every later element is predicted by the
/// previous element's reconstruction, or by the previous value itself where
/// that one escaped (code 0, stored as a literal by the caller).
///
/// Panics if `lanes` is 0 or the slices are not the same whole number of
/// rows.
///
/// Scalar twin: `q.quantize(v, prev).unwrap_or((0, v))` per element of one
/// block, `Quantizer::quantize` in `crates/eblc/src/quantizer.rs`.
pub fn lorenzo_quantize(values_t: &[f32], lanes: usize, p: QuantParams, codes_t: &mut [u32]) {
    lorenzo_quantize_at(active_level(), values_t, lanes, p, codes_t);
}

/// [`lorenzo_quantize`] at an explicit dispatch level.
pub fn lorenzo_quantize_at(
    level: Level,
    values_t: &[f32],
    lanes: usize,
    p: QuantParams,
    codes_t: &mut [u32],
) {
    run_at(level, LorenzoQuantize(values_t, lanes, p, codes_t))
}

/// Batch decoder-side reconstruction: `out[i] = (preds[i] + (codes[i] -
/// radius) * bin) as f32` for non-zero codes; escape lanes (`codes[i] == 0`)
/// are written as `0.0` for the caller to patch from the literal stream.
///
/// Scalar twin: `Quantizer::reconstruct` in `crates/eblc/src/quantizer.rs`.
pub fn reconstruct(preds: &[f32], codes: &[u32], p: QuantParams, out: &mut [f32]) {
    reconstruct_at(active_level(), preds, codes, p, out);
}

/// [`reconstruct`] at an explicit dispatch level.
pub fn reconstruct_at(level: Level, preds: &[f32], codes: &[u32], p: QuantParams, out: &mut [f32]) {
    run_at(level, Reconstruct(preds, codes, p, out))
}

/// Regression-predictor fill: `out[j] = a * ((i0 + j) as f32) + b`, all-f32
/// arithmetic (two roundings, never an FMA).
///
/// Scalar twin: the `a * i as f32 + b` expression in `crates/eblc/src/sz2.rs`.
pub fn linear_preds(a: f32, b: f32, i0: usize, out: &mut [f32]) {
    linear_preds_at(active_level(), a, b, i0, out);
}

/// [`linear_preds`] at an explicit dispatch level.
pub fn linear_preds_at(level: Level, a: f32, b: f32, i0: usize, out: &mut [f32]) {
    run_at(level, LinearPreds(a, b, i0, out))
}

/// Interpolation midpoints: `out[j] = 0.5 * (grid[j] + grid[j + 1])` in f32.
/// Requires `grid.len() >= out.len() + 1`.
///
/// Scalar twin: `linear_pred` in `crates/eblc/src/sz3.rs`.
pub fn midpoint_preds(grid: &[f32], out: &mut [f32]) {
    midpoint_preds_at(active_level(), grid, out);
}

/// [`midpoint_preds`] at an explicit dispatch level.
pub fn midpoint_preds_at(level: Level, grid: &[f32], out: &mut [f32]) {
    run_at(level, MidpointPreds(grid, out))
}

/// Catmull-Rom-style 4-point interpolation in f64:
/// `out[j] = (-g0*0.0625 + g1*0.5625 + g2*0.5625 - g3*0.0625) as f32` over
/// the window `grid[j..j + 4]`. Requires `grid.len() >= out.len() + 3`.
///
/// Scalar twin: `cubic_pred` in `crates/eblc/src/sz3.rs`.
pub fn cubic_preds(grid: &[f32], out: &mut [f32]) {
    cubic_preds_at(active_level(), grid, out);
}

/// [`cubic_preds`] at an explicit dispatch level.
pub fn cubic_preds_at(level: Level, grid: &[f32], out: &mut [f32]) {
    run_at(level, CubicPreds(grid, out))
}

/// Per-element predictor cost model: `out[i]` is the f64 exponent field of
/// `|values[i] - preds[i]| / bin + 1.0`, i.e. a free `floor(log2)` of the
/// residual in bins. The caller sums in element order so the fold matches
/// the scalar accumulation bit-for-bit.
///
/// Scalar twin: `residual_bits` in `crates/eblc/src/sz2.rs`.
pub fn residual_costs(values: &[f32], preds: &[f32], bin: f64, out: &mut [f64]) {
    residual_costs_at(active_level(), values, preds, bin, out);
}

/// [`residual_costs`] at an explicit dispatch level.
pub fn residual_costs_at(level: Level, values: &[f32], preds: &[f32], bin: f64, out: &mut [f64]) {
    run_at(level, ResidualCosts(values, preds, bin, out))
}

/// Per-element absolute residuals in f64: `out[i] = |values[i] as f64 -
/// preds[i] as f64|`. The caller folds in element order.
///
/// Scalar twin: the interpolant cost loop in `crates/eblc/src/sz3.rs`.
pub fn abs_residuals(values: &[f32], preds: &[f32], out: &mut [f64]) {
    abs_residuals_at(active_level(), values, preds, out);
}

/// [`abs_residuals`] at an explicit dispatch level.
pub fn abs_residuals_at(level: Level, values: &[f32], preds: &[f32], out: &mut [f64]) {
    run_at(level, AbsResiduals(values, preds, out))
}

/// Block min/max with a finiteness scan: `None` if any element is NaN or
/// infinite, else `Some((min, max))` with `-0.0` canonicalised to `+0.0` so
/// every dispatch level (and fold order) stores identical bits.
///
/// Scalar twin: the block scan in `compress_strict`, `crates/eblc/src/szx.rs`.
pub fn minmax_finite(values: &[f32]) -> Option<(f32, f32)> {
    minmax_finite_at(active_level(), values)
}

/// [`minmax_finite`] at an explicit dispatch level.
pub fn minmax_finite_at(level: Level, values: &[f32]) -> Option<(f32, f32)> {
    run_at(level, MinmaxFinite(values))
}

/// SZx fixed-point packing: `out[i] = ((values[i] as f64 - min) / bin + 0.5)`
/// truncated toward zero. The caller guarantees every result lies in
/// `[0, 2^31)` (it rejects pack widths `k >= 32` first).
///
/// Scalar twin: the packed-block encode loop in `crates/eblc/src/szx.rs`.
pub fn pack_offsets(values: &[f32], min: f64, bin: f64, out: &mut [u32]) {
    pack_offsets_at(active_level(), values, min, bin, out);
}

/// [`pack_offsets`] at an explicit dispatch level.
pub fn pack_offsets_at(level: Level, values: &[f32], min: f64, bin: f64, out: &mut [u32]) {
    run_at(level, PackOffsets(values, min, bin, out))
}

/// SZx fixed-point unpacking: `out[i] = (min + codes[i] as f64 * bin) as
/// f32`. Codes must lie in `[0, 2^31)` (the decoder rejects `k >= 32`).
///
/// Scalar twin: the packed-block decode loop in `crates/eblc/src/szx.rs`.
pub fn unpack_offsets(codes: &[u32], min: f64, bin: f64, out: &mut [f32]) {
    unpack_offsets_at(active_level(), codes, min, bin, out);
}

/// [`unpack_offsets`] at an explicit dispatch level.
pub fn unpack_offsets_at(level: Level, codes: &[u32], min: f64, bin: f64, out: &mut [f32]) {
    run_at(level, UnpackOffsets(codes, min, bin, out))
}

/// Byte-shuffle for 4-byte elements: transpose `src` (N elements × 4 bytes)
/// into `dst` as four contiguous byte planes. `src.len()` must be a multiple
/// of 4 and equal `dst.len()`; `src` and `dst` must not overlap (enforced by
/// `&`/`&mut`).
///
/// Scalar twin: `shuffle` in `crates/lossless/src/shuffle.rs` at typesize 4.
pub fn shuffle4_into(src: &[u8], dst: &mut [u8]) {
    shuffle4_into_at(active_level(), src, dst);
}

/// [`shuffle4_into`] at an explicit dispatch level.
pub fn shuffle4_into_at(level: Level, src: &[u8], dst: &mut [u8]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level installed only after feature detection (see run_at).
        Level::Sse41 => unsafe { x86::shuffle4_sse41(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Level::Avx2 => unsafe { x86::shuffle4_avx2(src, dst) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Level::Neon => unsafe { neon::shuffle4_neon(src, dst) },
        _ => kernels::shuffle4_scalar(src, dst, 0),
    }
}

/// Inverse of [`shuffle4_into`]: interleave four byte planes back into
/// 4-byte elements.
///
/// Scalar twin: `unshuffle` in `crates/lossless/src/shuffle.rs` at typesize 4.
pub fn unshuffle4_into(src: &[u8], dst: &mut [u8]) {
    unshuffle4_into_at(active_level(), src, dst);
}

/// [`unshuffle4_into`] at an explicit dispatch level.
pub fn unshuffle4_into_at(level: Level, src: &[u8], dst: &mut [u8]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level installed only after feature detection (see run_at).
        Level::Sse41 => unsafe { x86::unshuffle4_sse41(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Level::Avx2 => unsafe { x86::unshuffle4_avx2(src, dst) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Level::Neon => unsafe { neon::unshuffle4_neon(src, dst) },
        _ => kernels::unshuffle4_scalar(src, dst, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_name_round_trip() {
        for l in [Level::Scalar, Level::Sse41, Level::Avx2, Level::Neon] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("SSE4.1"), Some(Level::Sse41));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(supported(Level::Scalar));
        assert_eq!(available_levels()[0], Level::Scalar);
        assert!(available_levels().contains(&detected_level()));
    }

    #[test]
    fn override_clamps_to_host() {
        let detected = detected_level();
        // Ask for every level; what comes back must be runnable here, and
        // asking for the detected level must return exactly it.
        for l in [Level::Scalar, Level::Sse41, Level::Avx2, Level::Neon] {
            let got = override_level(l);
            assert!(supported(got));
        }
        assert_eq!(override_level(detected), detected);
        assert_eq!(active_level(), detected);
    }
}
