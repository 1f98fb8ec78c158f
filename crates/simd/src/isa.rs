//! The portable lane-width trait the generic kernels are written against,
//! plus the always-available scalar implementation.
//!
//! The trait is deliberately shaped around what the codec hot loops need —
//! f64 lanes for quantizer math (the scalar code does all its arithmetic in
//! f64 and narrows once), f32 lanes for predictor fills and min/max scans —
//! rather than being a general-purpose vector library. Semantics of every
//! operation are pinned to the exact scalar expression named in its doc
//! comment; implementations must be bit-identical to it, which rules out
//! FMA contraction, reassociation, and approximate reciprocals.

/// Lane-width abstraction over one SIMD instruction set.
///
/// `W64`/`W32` are the f64/f32 lane counts per step. Slice-taking methods
/// read or write exactly that many elements from the front of the slice and
/// must panic (not UB) when the slice is shorter — implementations bounds-
/// check before touching pointers.
pub(crate) trait Isa: Copy {
    /// f64 lanes per vector step.
    const W64: usize;
    /// f32 lanes per vector step (for the all-f32 kernels; not `2 * W64`
    /// for the scalar reference).
    const W32: usize;
    /// Vector of `W64` f64 lanes.
    type F64: Copy;
    /// Vector of `W32` f32 lanes.
    type F32: Copy;
    /// Comparison mask over f64 lanes.
    type M64: Copy;
    /// Comparison mask over f32 lanes.
    type M32: Copy;

    // ---- f64 lane ops ----

    /// All lanes = `x`.
    fn splat(self, x: f64) -> Self::F64;
    /// Widen `W64` f32s to f64 lanes (exact; `v as f64`).
    fn load_f32_wide(self, src: &[f32]) -> Self::F64;
    /// Narrow to f32 (`v as f32`, round-to-nearest-even) and store `W64`.
    fn narrow_store(self, v: Self::F64, dst: &mut [f32]);
    /// `(v as f32) as f64` per lane — the f32 rounding the decoder will see.
    fn f32_round_trip(self, v: Self::F64) -> Self::F64;
    /// Widen `W64` u32s in `[0, 2^31)` to f64 lanes (exact).
    fn load_u32_wide(self, src: &[u32]) -> Self::F64;
    /// Truncate-toward-zero to u32 and store `W64` lanes. Lanes must be in
    /// `[0, 2^31)`; kernels guarantee it (escape lanes are forced to 0.0).
    fn trunc_store_u32(self, v: Self::F64, dst: &mut [u32]);
    /// Store `W64` f64 lanes.
    fn store_f64(self, v: Self::F64, dst: &mut [f64]);
    /// IEEE `a + b`.
    fn add(self, a: Self::F64, b: Self::F64) -> Self::F64;
    /// IEEE `a - b`.
    fn sub(self, a: Self::F64, b: Self::F64) -> Self::F64;
    /// IEEE `a * b` (never fused with a following add).
    fn mul(self, a: Self::F64, b: Self::F64) -> Self::F64;
    /// IEEE `a / b`.
    fn div(self, a: Self::F64, b: Self::F64) -> Self::F64;
    /// `|a|` (sign-bit clear; NaN payload untouched).
    fn abs(self, a: Self::F64) -> Self::F64;
    /// Round toward zero (`f64::trunc`).
    fn trunc(self, a: Self::F64) -> Self::F64;
    /// `±1.0` carrying the sign bit of `x` (`1.0f64.copysign(x)`).
    fn copysign_one(self, x: Self::F64) -> Self::F64;
    /// `a <= b` (ordered: false on NaN).
    fn cmp_le(self, a: Self::F64, b: Self::F64) -> Self::M64;
    /// `a == b` (ordered: false on NaN).
    fn cmp_eq(self, a: Self::F64, b: Self::F64) -> Self::M64;
    /// Lanewise mask OR.
    fn or(self, a: Self::M64, b: Self::M64) -> Self::M64;
    /// Lanewise mask NOT.
    fn not(self, m: Self::M64) -> Self::M64;
    /// `m ? t : f` per lane.
    fn select(self, m: Self::M64, t: Self::F64, f: Self::F64) -> Self::F64;
    /// The raw f64 exponent field minus the bias, as f64 lanes:
    /// `(((v.to_bits() >> 52) & 0x7FF) as i64 - 1023) as f64`. NaN/Inf lanes
    /// yield 1024 regardless of payload, so vector NaN bit patterns cannot
    /// leak into results.
    fn exponent_unbiased(self, v: Self::F64) -> Self::F64;

    /// `f64::round` — round to nearest, ties away from zero. The default
    /// adds the largest double below 0.5, with `x`'s sign, and truncates:
    /// the sum reaches the next integer exactly when `|x|`'s fraction is at
    /// least one half (adding 0.5 itself would carry `0.49999999999999994`
    /// up to 1), and from 2^52 up, where `x` is an integer, the addend is
    /// under half an ulp and leaves `x` unchanged. `Quantizer::quantize` in
    /// `crates/eblc` rounds the same way.
    #[inline(always)]
    fn round_half_away(self, x: Self::F64) -> Self::F64 {
        let half = self.mul(self.copysign_one(x), self.splat(0.499_999_999_999_999_94));
        self.trunc(self.add(x, half))
    }

    // ---- f32 lane ops ----

    /// All lanes = `x`.
    fn splat32(self, x: f32) -> Self::F32;
    /// Load `W32` f32s.
    fn load32(self, src: &[f32]) -> Self::F32;
    /// Store `W32` f32s.
    fn store32(self, v: Self::F32, dst: &mut [f32]);
    /// IEEE f32 `a + b`.
    fn add32(self, a: Self::F32, b: Self::F32) -> Self::F32;
    /// IEEE f32 `a * b` (never fused).
    fn mul32(self, a: Self::F32, b: Self::F32) -> Self::F32;
    /// `|a|` in f32 lanes.
    fn abs32(self, a: Self::F32) -> Self::F32;
    /// `[0.0, 1.0, ..., W32 - 1.0]`.
    fn iota32(self) -> Self::F32;
    /// `v < acc ? v : acc` per lane (ties and NaN keep `acc`).
    fn min_sel32(self, acc: Self::F32, v: Self::F32) -> Self::F32;
    /// `v > acc ? v : acc` per lane (ties and NaN keep `acc`).
    fn max_sel32(self, acc: Self::F32, v: Self::F32) -> Self::F32;
    /// `a < b` (ordered: false on NaN).
    fn lt32(self, a: Self::F32, b: Self::F32) -> Self::M32;
    /// `a == b` (ordered: false on NaN).
    fn eq32(self, a: Self::F32, b: Self::F32) -> Self::M32;
    /// `m ? t : f` per lane.
    fn select32(self, m: Self::M32, t: Self::F32, f: Self::F32) -> Self::F32;
    /// Lanewise mask AND.
    fn and32(self, a: Self::M32, b: Self::M32) -> Self::M32;
    /// All-true mask.
    fn true32(self) -> Self::M32;
    /// Whether every lane of the mask is set.
    fn all32(self, m: Self::M32) -> bool;
}

/// The reference implementation: one element per "lane", plain Rust scalar
/// arithmetic. Every other ISA is tested bit-identical against this one,
/// and generic kernels delegate sub-vector remainders to it.
#[derive(Clone, Copy)]
pub(crate) struct ScalarIsa;

impl Isa for ScalarIsa {
    const W64: usize = 1;
    const W32: usize = 1;
    type F64 = f64;
    type F32 = f32;
    type M64 = bool;
    type M32 = bool;

    fn splat(self, x: f64) -> f64 {
        x
    }
    fn load_f32_wide(self, src: &[f32]) -> f64 {
        src[0] as f64
    }
    fn narrow_store(self, v: f64, dst: &mut [f32]) {
        dst[0] = v as f32;
    }
    fn f32_round_trip(self, v: f64) -> f64 {
        (v as f32) as f64
    }
    fn load_u32_wide(self, src: &[u32]) -> f64 {
        src[0] as f64
    }
    fn trunc_store_u32(self, v: f64, dst: &mut [u32]) {
        dst[0] = v as u32;
    }
    fn store_f64(self, v: f64, dst: &mut [f64]) {
        dst[0] = v;
    }
    fn add(self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn sub(self, a: f64, b: f64) -> f64 {
        a - b
    }
    fn mul(self, a: f64, b: f64) -> f64 {
        a * b
    }
    fn div(self, a: f64, b: f64) -> f64 {
        a / b
    }
    fn abs(self, a: f64) -> f64 {
        a.abs()
    }
    fn trunc(self, a: f64) -> f64 {
        a.trunc()
    }
    fn copysign_one(self, x: f64) -> f64 {
        1.0f64.copysign(x)
    }
    fn cmp_le(self, a: f64, b: f64) -> bool {
        a <= b
    }
    fn cmp_eq(self, a: f64, b: f64) -> bool {
        a == b
    }
    fn or(self, a: bool, b: bool) -> bool {
        a | b
    }
    fn not(self, m: bool) -> bool {
        !m
    }
    fn select(self, m: bool, t: f64, f: f64) -> f64 {
        if m {
            t
        } else {
            f
        }
    }
    fn exponent_unbiased(self, v: f64) -> f64 {
        (((v.to_bits() >> 52) & 0x7FF) as i64 - 1023) as f64
    }
    /// The scalar twin uses `f64::round` directly — it IS the reference the
    /// default emulation is pinned to.
    fn round_half_away(self, x: f64) -> f64 {
        x.round()
    }

    fn splat32(self, x: f32) -> f32 {
        x
    }
    fn load32(self, src: &[f32]) -> f32 {
        src[0]
    }
    fn store32(self, v: f32, dst: &mut [f32]) {
        dst[0] = v;
    }
    fn add32(self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn mul32(self, a: f32, b: f32) -> f32 {
        a * b
    }
    fn abs32(self, a: f32) -> f32 {
        a.abs()
    }
    fn iota32(self) -> f32 {
        0.0
    }
    fn min_sel32(self, acc: f32, v: f32) -> f32 {
        if v < acc {
            v
        } else {
            acc
        }
    }
    fn max_sel32(self, acc: f32, v: f32) -> f32 {
        if v > acc {
            v
        } else {
            acc
        }
    }
    fn lt32(self, a: f32, b: f32) -> bool {
        a < b
    }
    fn eq32(self, a: f32, b: f32) -> bool {
        a == b
    }
    fn select32(self, m: bool, t: f32, f: f32) -> f32 {
        if m {
            t
        } else {
            f
        }
    }
    fn and32(self, a: bool, b: bool) -> bool {
        a & b
    }
    fn true32(self) -> bool {
        true
    }
    fn all32(self, m: bool) -> bool {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_half_away_default_matches_f64_round() {
        // Exercise the *default* emulation (what the vector ISAs use)
        // against f64::round on every shape of input that has ever broken a
        // round emulation: exact ties, values just below/above a tie, huge
        // integers past 2^52, negative zero, NaN, infinities.
        // Re-uses ScalarIsa ops but keeps the default round_half_away body.
        fn emulated(x: f64) -> f64 {
            let isa = ScalarIsa;
            let half = isa.mul(isa.copysign_one(x), isa.splat(0.499_999_999_999_999_94));
            isa.trunc(isa.add(x, half))
        }
        let cases = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            3.5,
            -1.5,
            -2.5,
            -3.5,
            0.49999999999999994,
            -0.49999999999999994,
            1.4999999999999998,
            2.5000000000000004,
            (1u64 << 51) as f64 + 0.5,
            -((1u64 << 51) as f64 + 0.5),
            (1u64 << 52) as f64,
            (1u64 << 53) as f64,
            -((1u64 << 53) as f64),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e-308,
        ];
        for &x in &cases {
            assert_eq!(
                emulated(x).to_bits(),
                x.round().to_bits(),
                "round emulation diverged at {x:?}"
            );
        }
        assert!(emulated(f64::NAN).is_nan());
        // Dense sweep around small half-integers.
        for i in -100i64..100 {
            for d in [-2e-16, -1e-16, 0.0, 1e-16, 2e-16] {
                let x = i as f64 * 0.5 + d;
                assert_eq!(emulated(x).to_bits(), x.round().to_bits(), "x={x:?}");
            }
        }
        // Half-integers and their neighbouring doubles at every magnitude up
        // to where no fraction is left, then random bit patterns of every
        // exponent.
        let mut xs = Vec::new();
        for e in 0..54 {
            let tie = (1u64 << e) as f64 + 0.5;
            for bits in [tie.to_bits() - 1, tie.to_bits(), tie.to_bits() + 1] {
                xs.push(f64::from_bits(bits));
            }
        }
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            xs.push(f64::from_bits(state));
        }
        for x in xs {
            for x in [x, -x] {
                let (got, want) = (emulated(x), x.round());
                assert!(
                    got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                    "x={x:?}"
                );
            }
        }
    }
}
