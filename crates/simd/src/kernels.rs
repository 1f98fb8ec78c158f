//! One generic implementation of every kernel, written against `Isa`.
//!
//! A kernel is an argument struct that implements `Kernel`: `crate::run_at`
//! picks the ISA for a [`crate::Level`] and calls `Kernel::run` with that
//! ISA's token. Each kernel runs whole vectors through the ISA, then hands
//! the sub-vector remainder to the same code monomorphised with `ScalarIsa`
//! (whose lane width 1 always divides the remainder). That structure keeps
//! exactly two code paths per element — vector or scalar twin — and the
//! parity tests pin them bit-identical. `LorenzoQuantize`, whose lanes
//! are chains rather than elements, pads its last vector instead.
//!
//! Everything is `#[inline(always)]`: the one `#[target_feature]` entry point
//! per ISA (`run_sse41`, `run_avx2`, `run_neon`) must fully inline `run` (and
//! the ISA methods inside it) so the intrinsics land in a function that
//! carries their feature — otherwise each op would cost a function call.

use crate::isa::{Isa, ScalarIsa};
use crate::QuantParams;

/// A kernel's arguments, and its body generic over the ISA that runs it.
pub(crate) trait Kernel {
    /// What the kernel returns.
    type Out;
    /// Run on `isa`'s lanes, the sub-vector remainder on [`ScalarIsa`]'s.
    fn run<I: Isa>(self, isa: I) -> Self::Out;
}

/// [`crate::quantize`]`(values, preds, p, codes, recons)`; see there for the
/// contract and `Quantizer::quantize` in `crates/eblc/src/quantizer.rs` for
/// the scalar original this mirrors branch for branch.
pub(crate) struct Quantize<'a>(
    pub(crate) &'a [f32],
    pub(crate) &'a [f32],
    pub(crate) QuantParams,
    pub(crate) &'a mut [u32],
    pub(crate) &'a mut [f32],
);

impl Kernel for Quantize<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let Quantize(values, preds, p, codes, recons) = self;
        let n = values.len();
        assert!(
            preds.len() == n && codes.len() == n && recons.len() == n,
            "quantize: mismatched slice lengths"
        );
        let done = quantize_lanes(isa, values, preds, p, codes, recons);
        if done < n {
            quantize_lanes(
                ScalarIsa,
                &values[done..],
                &preds[done..],
                p,
                &mut codes[done..],
                &mut recons[done..],
            );
        }
    }
}

/// One quantize step on `I::W64` lanes: the arithmetic and escape rules of
/// `Quantizer::quantize`, written once for [`Quantize`] and
/// [`LorenzoQuantize`].
#[derive(Clone, Copy)]
struct QuantLanes<I: Isa> {
    isa: I,
    bin: I::F64,
    eb: I::F64,
    radius: I::F64,
    zero: I::F64,
}

impl<I: Isa> QuantLanes<I> {
    #[inline(always)]
    fn new(isa: I, p: QuantParams) -> Self {
        QuantLanes {
            isa,
            bin: isa.splat(p.bin),
            eb: isa.splat(p.abs_eb),
            radius: isa.splat(p.radius),
            zero: isa.splat(0.0),
        }
    }

    /// Quantize `v` against `pr`: `(code, recon, escape)`. `code` is the
    /// code as f64, 0.0 on escape lanes; `recon` is what the decoder will
    /// reconstruct, meaningful only where `escape` is clear.
    ///
    /// The scalar original also escapes a non-finite value up front, and
    /// maps a NaN quotient to code 0 (`q as i64`). Neither needs an
    /// operation here: a NaN quotient (a NaN operand, or `inf - inf`) gives
    /// a NaN reconstruction, which fails the bound test below; an infinite
    /// one (an infinite operand, or a quotient that overflows) fails the
    /// range test. Every lane those rules catch escapes anyway, and an
    /// escape lane's code and reconstruction are never read.
    #[inline(always)]
    fn step(self, v: I::F64, pr: I::F64) -> (I::F64, I::F64, I::M64) {
        let QuantLanes {
            isa,
            bin,
            eb,
            radius,
            zero,
        } = self;
        // q = ((value - pred) / bin).round()  — f64 throughout, like the
        // scalar original.
        let q = isa.round_half_away(isa.div(isa.sub(v, pr), bin));
        // Escape on range: q.abs() >= radius.
        let esc_range = isa.cmp_le(radius, isa.abs(q));
        // The scalar path uses `qi as f64`, +0.0 for zero: `q + 0.0` turns
        // a -0.0 quotient into it, which `pred = -0.0` would otherwise see.
        let qf = isa.add(q, zero);
        // recon = (pred + qi * bin) as f32, observed through the f32
        // round-trip the decoder will perform.
        let recon = isa.f32_round_trip(isa.add(pr, isa.mul(qf, bin)));
        // Escape on bound: !(|recon - value| <= eb) — fails closed, so a
        // NaN error (NaN prediction) escapes, like the scalar.
        let esc_bound = isa.not(isa.cmp_le(isa.abs(isa.sub(recon, v)), eb));
        let esc = isa.or(esc_range, esc_bound);
        // code = qi + radius on success, 0 on escape. Escape lanes are
        // forced to 0.0 *before* the u32 truncation so every lane converted
        // is in range.
        (isa.select(esc, zero, isa.add(qf, radius)), recon, esc)
    }
}

#[inline(always)]
fn quantize_lanes<I: Isa>(
    isa: I,
    values: &[f32],
    preds: &[f32],
    p: QuantParams,
    codes: &mut [u32],
    recons: &mut [f32],
) -> usize {
    let n = values.len();
    let w = I::W64;
    let q = QuantLanes::new(isa, p);
    let mut i = 0;
    while i + w <= n {
        let v = isa.load_f32_wide(&values[i..]);
        let pr = isa.load_f32_wide(&preds[i..]);
        let (code, recon, esc) = q.step(v, pr);
        isa.trunc_store_u32(code, &mut codes[i..]);
        isa.narrow_store(isa.select(esc, q.zero, recon), &mut recons[i..]);
        i += w;
    }
    i
}

/// [`crate::lorenzo_quantize`]`(values_t, lanes, p, codes_t)`; scalar
/// original: the per-block `q.quantize(v, prev).unwrap_or((0, v))` chain in
/// `compress_reference`, `crates/eblc/src/sz2.rs`.
///
/// Row `i` holds element `i` of every chain. A row's lanes are independent,
/// so each vector of them takes one [`QuantLanes::step`], and every lane
/// sees the operations of a chain stepped on its own, in the same order. The
/// last `lanes % W64` chains are padded out to a vector with chains of
/// zeros, whose codes are dropped.
pub(crate) struct LorenzoQuantize<'a>(
    pub(crate) &'a [f32],
    pub(crate) usize,
    pub(crate) QuantParams,
    pub(crate) &'a mut [u32],
);

impl Kernel for LorenzoQuantize<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let LorenzoQuantize(values_t, lanes, p, codes_t) = self;
        let n = values_t.len();
        assert!(
            lanes > 0 && n.is_multiple_of(lanes) && codes_t.len() == n,
            "lorenzo_quantize: slices are not whole rows of {lanes} lanes"
        );
        let w = I::W64;
        let wide = lanes - lanes % w;
        let q = QuantLanes::new(isa, p);
        // What the decoder holds for each chain's previous element, a vector
        // of chains at a time; a chain's first element is predicted by 0.
        // Both are f32 values, so holding them widened loses nothing.
        let mut prev = vec![q.zero; lanes.div_ceil(w)];
        let (prev, prev_tail) = prev.split_at_mut(wide / w);
        // One vector of the last chains, padded; 8 is at least any W64.
        let mut tail_values = [0.0f32; 8];
        let mut tail_codes = [0u32; 8];
        let mut row = 0;
        while row < n {
            lorenzo_row(q, &values_t[row..row + wide], prev, &mut codes_t[row..]);
            if wide < lanes {
                for k in 0..lanes - wide {
                    tail_values[k] = values_t[row + wide + k];
                }
                lorenzo_row(q, &tail_values[..w], prev_tail, &mut tail_codes);
                for k in 0..lanes - wide {
                    codes_t[row + wide + k] = tail_codes[k];
                }
            }
            row += lanes;
        }
    }
}

/// One step of every chain in `values`, one vector of `prev` each: quantize
/// against it, then leave in it what the next step predicts from — the
/// reconstruction, or on an escape the value itself.
#[inline(always)]
fn lorenzo_row<I: Isa>(q: QuantLanes<I>, values: &[f32], prev: &mut [I::F64], codes: &mut [u32]) {
    let isa = q.isa;
    for (k, pr) in prev.iter_mut().enumerate() {
        let j = k * I::W64;
        let v = isa.load_f32_wide(&values[j..]);
        let (code, recon, esc) = q.step(v, *pr);
        isa.trunc_store_u32(code, &mut codes[j..]);
        *pr = isa.select(esc, v, recon);
    }
}

/// Vectors of chains [`LorenzoReconstruct`] steps side by side, each
/// chain's last value held in a register from row to row. A step is an add,
/// a narrowing, a widening and a select deep, ~20 cycles of latency against
/// a few of throughput: eight vectors in flight keep the adder busy. That is
/// 32 chains at AVX2, 16 at SSE4.1 and NEON, and 8 on the scalar twin.
const CHAIN_VECTORS: usize = 8;

/// [`crate::lorenzo_reconstruct`]`(codes_t, lanes, p, out_t)`; scalar
/// original: the per-block `prev = if code == 0 { literal } else {
/// q.reconstruct(prev, code) }` chain of `decode_payload_reference`,
/// `crates/eblc/src/sz2.rs`.
///
/// Row `i` holds element `i` of every chain, and a row's lanes are
/// independent, so each vector of them takes one step, and every lane sees
/// the operations of a chain stepped on its own, in the same order. The
/// chains go [`CHAIN_VECTORS`] vectors at a time; the ones left over go
/// together, whole vectors and the last `lanes % W64` chains on the scalar
/// twin's lanes, in one pass over the rows.
pub(crate) struct LorenzoReconstruct<'a>(
    pub(crate) &'a [u32],
    pub(crate) usize,
    pub(crate) QuantParams,
    pub(crate) &'a mut [f32],
);

impl Kernel for LorenzoReconstruct<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let LorenzoReconstruct(codes_t, lanes, p, out_t) = self;
        let n = codes_t.len();
        assert!(
            lanes > 0 && n.is_multiple_of(lanes) && out_t.len() == n,
            "lorenzo_reconstruct: slices are not whole rows of {lanes} lanes"
        );
        // Most batches have no escape, and their step skips the literal's
        // load and select; which step a batch takes changes no bit.
        if codes_t.contains(&0) {
            reconstruct_groups::<I, true>(isa, codes_t, lanes, p, out_t);
        } else {
            reconstruct_groups::<I, false>(isa, codes_t, lanes, p, out_t);
        }
    }
}

/// [`LorenzoReconstruct`] over its chains, group by group; `ESCAPES` is
/// whether any code may be zero.
#[inline(always)]
fn reconstruct_groups<I: Isa, const ESCAPES: bool>(
    isa: I,
    codes_t: &[u32],
    lanes: usize,
    p: QuantParams,
    out_t: &mut [f32],
) {
    let w = I::W64;
    let group = CHAIN_VECTORS * w;
    let mut lane = 0;
    while lanes - lane >= group {
        let chains = Chains::new(lane, CHAIN_VECTORS, 0);
        chains.reconstruct::<I, ESCAPES>(isa, codes_t, lanes, p, out_t);
        lane += group;
    }
    let rest = lanes - lane;
    if rest > 0 {
        let chains = Chains::new(lane, rest / w, rest % w);
        chains.reconstruct::<I, ESCAPES>(isa, codes_t, lanes, p, out_t);
    }
}

/// A group of chains of [`LorenzoReconstruct`]: `vectors` whole vectors of
/// them from lane `first`, then `scalars` more on the scalar twin's lanes.
#[derive(Clone, Copy)]
struct Chains {
    first: usize,
    vectors: usize,
    scalars: usize,
}

impl Chains {
    #[inline(always)]
    fn new(first: usize, vectors: usize, scalars: usize) -> Self {
        debug_assert!(vectors <= CHAIN_VECTORS && scalars <= CHAIN_VECTORS);
        Chains {
            first,
            vectors,
            scalars,
        }
    }

    /// Step the group's chains through every row. The loops over the
    /// vectors have a constant trip count, so the `prev` arrays are
    /// registers; a vector past the group's count is skipped, the same way
    /// every row.
    #[inline(always)]
    fn reconstruct<I: Isa, const ESCAPES: bool>(
        self,
        isa: I,
        codes_t: &[u32],
        lanes: usize,
        p: QuantParams,
        out_t: &mut [f32],
    ) {
        let w = I::W64;
        let step = ReconLanes::new(isa, p);
        let tail = ReconLanes::new(ScalarIsa, p);
        let mut prev = [step.zero; CHAIN_VECTORS];
        let mut prev_tail = [0.0f64; CHAIN_VECTORS];
        let scalar_from = self.first + self.vectors * w;
        let mut row = 0;
        while row < codes_t.len() {
            for (k, last) in prev.iter_mut().enumerate() {
                if k < self.vectors {
                    let at = row + self.first + k * w;
                    *last = step.step::<ESCAPES>(*last, &codes_t[at..], &mut out_t[at..]);
                }
            }
            for (j, last) in prev_tail.iter_mut().enumerate() {
                if j < self.scalars {
                    let at = row + scalar_from + j;
                    *last = tail.step::<ESCAPES>(*last, &codes_t[at..], &mut out_t[at..]);
                }
            }
            row += lanes;
        }
    }
}

/// One reconstruct step on `I::W64` chains: the arithmetic of
/// `Quantizer::reconstruct`, and the escape rule of the decoder.
#[derive(Clone, Copy)]
struct ReconLanes<I: Isa> {
    isa: I,
    bin: I::F64,
    radius: I::F64,
    zero: I::F64,
}

impl<I: Isa> ReconLanes<I> {
    #[inline(always)]
    fn new(isa: I, p: QuantParams) -> Self {
        ReconLanes {
            isa,
            bin: isa.splat(p.bin),
            radius: isa.splat(p.radius),
            zero: isa.splat(0.0),
        }
    }

    /// The next value of each chain from its last, `prev`: `(prev + (code -
    /// radius) * bin) as f32`, or for a zero code the literal `out` holds,
    /// if `ESCAPES` says there may be one. Stores it to `out` and returns it
    /// widened, which loses nothing.
    #[inline(always)]
    fn step<const ESCAPES: bool>(self, prev: I::F64, codes: &[u32], out: &mut [f32]) -> I::F64 {
        let isa = self.isa;
        let c = isa.load_u32_wide(codes);
        let delta = isa.mul(isa.sub(c, self.radius), self.bin);
        let mut next = isa.f32_round_trip(isa.add(prev, delta));
        if ESCAPES {
            let literal = isa.load_f32_wide(out);
            next = isa.select(isa.cmp_eq(c, self.zero), literal, next);
        }
        isa.narrow_store(next, out);
        next
    }
}

/// [`crate::reconstruct`]`(preds, codes, p, out)`; scalar original:
/// `Quantizer::reconstruct`.
pub(crate) struct Reconstruct<'a>(
    pub(crate) &'a [f32],
    pub(crate) &'a [u32],
    pub(crate) QuantParams,
    pub(crate) &'a mut [f32],
);

impl Kernel for Reconstruct<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let Reconstruct(preds, codes, p, out) = self;
        let n = preds.len();
        assert!(
            codes.len() == n && out.len() == n,
            "reconstruct: mismatched slice lengths"
        );
        let done = reconstruct_lanes(isa, preds, codes, p, out);
        if done < n {
            reconstruct_lanes(
                ScalarIsa,
                &preds[done..],
                &codes[done..],
                p,
                &mut out[done..],
            );
        }
    }
}

#[inline(always)]
fn reconstruct_lanes<I: Isa>(
    isa: I,
    preds: &[f32],
    codes: &[u32],
    p: QuantParams,
    out: &mut [f32],
) -> usize {
    let n = preds.len();
    let w = I::W64;
    let bin = isa.splat(p.bin);
    let radius = isa.splat(p.radius);
    let zero = isa.splat(0.0);
    let mut i = 0;
    while i + w <= n {
        let pr = isa.load_f32_wide(&preds[i..]);
        let c = isa.load_u32_wide(&codes[i..]);
        // (pred + (code - radius) * bin) as f32; code 0 lanes become 0.0
        // for the caller to patch from the literal stream.
        let rec = isa.add(pr, isa.mul(isa.sub(c, radius), bin));
        let is_escape = isa.cmp_eq(c, zero);
        isa.narrow_store(isa.select(is_escape, zero, rec), &mut out[i..]);
        i += w;
    }
    i
}

/// [`crate::linear_preds`]`(a, b, i0, out)`; scalar original: `a * i as f32
/// + b` in `crates/eblc/src/sz2.rs` (f32 multiply then f32 add, no FMA).
///
/// NaN results are canonicalised to `f32::NAN`: when an addition has *two*
/// NaN operands (e.g. NaN regression coefficients), IEEE-754 leaves the
/// result payload to operand order, which the compiler is free to commute —
/// so raw propagation cannot be bit-stable across dispatch levels. Non-NaN
/// results are untouched.
pub(crate) struct LinearPreds<'a>(
    pub(crate) f32,
    pub(crate) f32,
    pub(crate) usize,
    pub(crate) &'a mut [f32],
);

impl Kernel for LinearPreds<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let LinearPreds(a, b, i0, out) = self;
        let done = linear_preds_lanes(isa, a, b, i0, out);
        if done < out.len() {
            linear_preds_lanes(ScalarIsa, a, b, i0 + done, &mut out[done..]);
        }
    }
}

#[inline(always)]
fn linear_preds_lanes<I: Isa>(isa: I, a: f32, b: f32, i0: usize, out: &mut [f32]) -> usize {
    let n = out.len();
    let w = I::W32;
    let av = isa.splat32(a);
    let bv = isa.splat32(b);
    let step = isa.splat32(w as f32);
    // Indices stay far below 2^24, so every f32 index add below is exact
    // and lane j holds precisely ((i0 + j) as f32).
    let mut iv = isa.add32(isa.splat32(i0 as f32), isa.iota32());
    let nan = isa.splat32(f32::NAN);
    let mut i = 0;
    while i + w <= n {
        let t = isa.add32(isa.mul32(av, iv), bv);
        isa.store32(isa.select32(isa.eq32(t, t), t, nan), &mut out[i..]);
        iv = isa.add32(iv, step);
        i += w;
    }
    i
}

/// [`crate::midpoint_preds`]`(grid, out)`; scalar original: `0.5 * (left +
/// right)` in `linear_pred`, `crates/eblc/src/sz3.rs`. NaN results are
/// canonicalised to `f32::NAN` (see [`LinearPreds`] for why; adjacent grid
/// NaNs hit the two-NaN-operand add).
pub(crate) struct MidpointPreds<'a>(pub(crate) &'a [f32], pub(crate) &'a mut [f32]);

impl Kernel for MidpointPreds<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let MidpointPreds(grid, out) = self;
        assert!(grid.len() > out.len(), "midpoint_preds: grid too short");
        let done = midpoint_preds_lanes(isa, grid, out);
        if done < out.len() {
            midpoint_preds_lanes(ScalarIsa, &grid[done..], &mut out[done..]);
        }
    }
}

#[inline(always)]
fn midpoint_preds_lanes<I: Isa>(isa: I, grid: &[f32], out: &mut [f32]) -> usize {
    let n = out.len();
    let w = I::W32;
    let half = isa.splat32(0.5);
    let nan = isa.splat32(f32::NAN);
    let mut i = 0;
    while i + w <= n {
        let l = isa.load32(&grid[i..]);
        let r = isa.load32(&grid[i + 1..]);
        let t = isa.mul32(half, isa.add32(l, r));
        isa.store32(isa.select32(isa.eq32(t, t), t, nan), &mut out[i..]);
        i += w;
    }
    i
}

/// [`crate::cubic_preds`]`(grid, out)`; scalar original: `cubic_pred` in
/// `crates/eblc/src/sz3.rs`. The coefficient products and left-to-right
/// addition order match it exactly (`g0 * -0.0625` is bit-identical to the
/// original's `-(g0) * 0.0625`: IEEE multiplication is sign-symmetric).
/// NaN results are canonicalised to `f64::NAN` before narrowing (see
/// [`LinearPreds`] for why).
pub(crate) struct CubicPreds<'a>(pub(crate) &'a [f32], pub(crate) &'a mut [f32]);

impl Kernel for CubicPreds<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let CubicPreds(grid, out) = self;
        assert!(grid.len() >= out.len() + 3, "cubic_preds: grid too short");
        let done = cubic_preds_lanes(isa, grid, out);
        if done < out.len() {
            cubic_preds_lanes(ScalarIsa, &grid[done..], &mut out[done..]);
        }
    }
}

#[inline(always)]
fn cubic_preds_lanes<I: Isa>(isa: I, grid: &[f32], out: &mut [f32]) -> usize {
    let n = out.len();
    let w = I::W64;
    let c_outer = isa.splat(-0.0625);
    let c_inner = isa.splat(0.5625);
    let c_last = isa.splat(0.0625);
    let nan = isa.splat(f64::NAN);
    let mut i = 0;
    while i + w <= n {
        let g0 = isa.load_f32_wide(&grid[i..]);
        let g1 = isa.load_f32_wide(&grid[i + 1..]);
        let g2 = isa.load_f32_wide(&grid[i + 2..]);
        let g3 = isa.load_f32_wide(&grid[i + 3..]);
        let acc = isa.add(isa.mul(g0, c_outer), isa.mul(g1, c_inner));
        let acc = isa.add(acc, isa.mul(g2, c_inner));
        let acc = isa.sub(acc, isa.mul(g3, c_last));
        let acc = isa.select(isa.cmp_eq(acc, acc), acc, nan);
        isa.narrow_store(acc, &mut out[i..]);
        i += w;
    }
    i
}

/// [`crate::residual_costs`]`(values, preds, bin, out)`; scalar original:
/// `residual_bits` in `crates/eblc/src/sz2.rs` applied to `|v - pred|`.
pub(crate) struct ResidualCosts<'a>(
    pub(crate) &'a [f32],
    pub(crate) &'a [f32],
    pub(crate) f64,
    pub(crate) &'a mut [f64],
);

impl Kernel for ResidualCosts<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let ResidualCosts(values, preds, bin, out) = self;
        let n = values.len();
        assert!(
            preds.len() == n && out.len() == n,
            "residual_costs: mismatched slice lengths"
        );
        let done = residual_costs_lanes(isa, values, preds, bin, out);
        if done < n {
            residual_costs_lanes(
                ScalarIsa,
                &values[done..],
                &preds[done..],
                bin,
                &mut out[done..],
            );
        }
    }
}

#[inline(always)]
fn residual_costs_lanes<I: Isa>(
    isa: I,
    values: &[f32],
    preds: &[f32],
    bin: f64,
    out: &mut [f64],
) -> usize {
    let n = values.len();
    let w = I::W64;
    let binv = isa.splat(bin);
    let one = isa.splat(1.0);
    let mut i = 0;
    while i + w <= n {
        let v = isa.load_f32_wide(&values[i..]);
        let p = isa.load_f32_wide(&preds[i..]);
        let d = isa.abs(isa.sub(v, p));
        let x = isa.add(isa.div(d, binv), one);
        isa.store_f64(isa.exponent_unbiased(x), &mut out[i..]);
        i += w;
    }
    i
}

/// [`crate::abs_residuals`]`(values, preds, out)`; scalar original: the
/// `(v - pred as f64).abs()` cost terms in `crates/eblc/src/sz3.rs`. NaN
/// results are canonicalised to `f64::NAN` (a NaN-minus-NaN payload is
/// operand-order-dependent; the consumer only sums these, so the payload is
/// semantically irrelevant but must still be bit-stable).
pub(crate) struct AbsResiduals<'a>(
    pub(crate) &'a [f32],
    pub(crate) &'a [f32],
    pub(crate) &'a mut [f64],
);

impl Kernel for AbsResiduals<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let AbsResiduals(values, preds, out) = self;
        let n = values.len();
        assert!(
            preds.len() == n && out.len() == n,
            "abs_residuals: mismatched slice lengths"
        );
        let done = abs_residuals_lanes(isa, values, preds, out);
        if done < n {
            abs_residuals_lanes(ScalarIsa, &values[done..], &preds[done..], &mut out[done..]);
        }
    }
}

#[inline(always)]
fn abs_residuals_lanes<I: Isa>(isa: I, values: &[f32], preds: &[f32], out: &mut [f64]) -> usize {
    let n = values.len();
    let w = I::W64;
    let nan = isa.splat(f64::NAN);
    let mut i = 0;
    while i + w <= n {
        let v = isa.load_f32_wide(&values[i..]);
        let p = isa.load_f32_wide(&preds[i..]);
        let d = isa.abs(isa.sub(v, p));
        isa.store_f64(isa.select(isa.cmp_eq(d, d), d, nan), &mut out[i..]);
        i += w;
    }
    i
}

/// [`crate::minmax_finite`]`(values)`; scalar original: the per-block scan in
/// `compress_strict`, `crates/eblc/src/szx.rs`. The `+ 0.0` canonicalisation
/// of `-0.0` makes the result independent of fold order, which is what lets
/// a lane-strided reduction match the sequential scalar scan bit-for-bit.
pub(crate) struct MinmaxFinite<'a>(pub(crate) &'a [f32]);

impl Kernel for MinmaxFinite<'_> {
    type Out = Option<(f32, f32)>;
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) -> Option<(f32, f32)> {
        let MinmaxFinite(values) = self;
        let n = values.len();
        let w = I::W32;
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        let mut finite = true;
        let mut i = 0;
        if w > 1 && n >= w {
            let inf = isa.splat32(f32::INFINITY);
            let mut vmin = isa.splat32(f32::INFINITY);
            let mut vmax = isa.splat32(f32::NEG_INFINITY);
            let mut fin = isa.true32();
            while i + w <= n {
                let v = isa.load32(&values[i..]);
                fin = isa.and32(fin, isa.lt32(isa.abs32(v), inf));
                vmin = isa.min_sel32(vmin, v);
                vmax = isa.max_sel32(vmax, v);
                i += w;
            }
            finite = isa.all32(fin);
            // Horizontal reduction through memory; order is irrelevant post-
            // canonicalisation (no NaNs survive the finite check).
            let mut lanes_min = [f32::INFINITY; 8];
            let mut lanes_max = [f32::NEG_INFINITY; 8];
            isa.store32(vmin, &mut lanes_min[..w]);
            isa.store32(vmax, &mut lanes_max[..w]);
            for lane in 0..w {
                lo = if lanes_min[lane] < lo {
                    lanes_min[lane]
                } else {
                    lo
                };
                hi = if lanes_max[lane] > hi {
                    lanes_max[lane]
                } else {
                    hi
                };
            }
        }
        for &v in &values[i..] {
            if !v.is_finite() {
                finite = false;
            }
            lo = if v < lo { v } else { lo };
            hi = if v > hi { v } else { hi };
        }
        if !finite {
            return None;
        }
        Some((lo + 0.0, hi + 0.0))
    }
}

/// [`crate::pack_offsets`]`(values, min, bin, out)`; scalar original: the
/// packed-block encode loop in `crates/eblc/src/szx.rs`.
pub(crate) struct PackOffsets<'a>(
    pub(crate) &'a [f32],
    pub(crate) f64,
    pub(crate) f64,
    pub(crate) &'a mut [u32],
);

impl Kernel for PackOffsets<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let PackOffsets(values, min, bin, out) = self;
        let n = values.len();
        assert!(out.len() == n, "pack_offsets: mismatched slice lengths");
        let done = pack_offsets_lanes(isa, values, min, bin, out);
        if done < n {
            pack_offsets_lanes(ScalarIsa, &values[done..], min, bin, &mut out[done..]);
        }
    }
}

#[inline(always)]
fn pack_offsets_lanes<I: Isa>(
    isa: I,
    values: &[f32],
    min: f64,
    bin: f64,
    out: &mut [u32],
) -> usize {
    let n = values.len();
    let w = I::W64;
    let minv = isa.splat(min);
    let binv = isa.splat(bin);
    let half = isa.splat(0.5);
    let mut i = 0;
    while i + w <= n {
        let v = isa.load_f32_wide(&values[i..]);
        let code = isa.add(isa.div(isa.sub(v, minv), binv), half);
        isa.trunc_store_u32(code, &mut out[i..]);
        i += w;
    }
    i
}

/// [`crate::unpack_offsets`]`(codes, min, bin, out)`; scalar original: the
/// packed-block decode loop in `crates/eblc/src/szx.rs`.
pub(crate) struct UnpackOffsets<'a>(
    pub(crate) &'a [u32],
    pub(crate) f64,
    pub(crate) f64,
    pub(crate) &'a mut [f32],
);

impl Kernel for UnpackOffsets<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let UnpackOffsets(codes, min, bin, out) = self;
        let n = codes.len();
        assert!(out.len() == n, "unpack_offsets: mismatched slice lengths");
        let done = unpack_offsets_lanes(isa, codes, min, bin, out);
        if done < n {
            unpack_offsets_lanes(ScalarIsa, &codes[done..], min, bin, &mut out[done..]);
        }
    }
}

#[inline(always)]
fn unpack_offsets_lanes<I: Isa>(
    isa: I,
    codes: &[u32],
    min: f64,
    bin: f64,
    out: &mut [f32],
) -> usize {
    let n = codes.len();
    let w = I::W64;
    let minv = isa.splat(min);
    let binv = isa.splat(bin);
    let mut i = 0;
    while i + w <= n {
        let c = isa.load_u32_wide(&codes[i..]);
        isa.narrow_store(isa.add(minv, isa.mul(c, binv)), &mut out[i..]);
        i += w;
    }
    i
}

// ---------------------------------------------------------------------------
// Byte shuffle. Pure byte permutations have no lane arithmetic to abstract,
// so the scalar forms live here and the per-arch modules implement the
// vector bodies directly, delegating tails to these with `from_elem`.
// ---------------------------------------------------------------------------

/// Scalar 4-byte shuffle over elements `from_elem..`, writing byte planes of
/// the *whole* buffer (plane stride is `src.len() / 4`).
#[inline(always)]
pub(crate) fn shuffle4_scalar(src: &[u8], dst: &mut [u8], from_elem: usize) {
    assert_eq!(src.len(), dst.len(), "shuffle4: length mismatch");
    assert_eq!(src.len() % 4, 0, "shuffle4: length must be a multiple of 4");
    let n = src.len() / 4;
    for e in from_elem..n {
        let base = e * 4;
        dst[e] = src[base];
        dst[n + e] = src[base + 1];
        dst[2 * n + e] = src[base + 2];
        dst[3 * n + e] = src[base + 3];
    }
}

/// Scalar inverse of [`shuffle4_scalar`].
#[inline(always)]
pub(crate) fn unshuffle4_scalar(src: &[u8], dst: &mut [u8], from_elem: usize) {
    assert_eq!(src.len(), dst.len(), "unshuffle4: length mismatch");
    assert_eq!(
        src.len() % 4,
        0,
        "unshuffle4: length must be a multiple of 4"
    );
    let n = src.len() / 4;
    for e in from_elem..n {
        let base = e * 4;
        dst[base] = src[e];
        dst[base + 1] = src[n + e];
        dst[base + 2] = src[2 * n + e];
        dst[base + 3] = src[3 * n + e];
    }
}

// ---------------------------------------------------------------------------
// Lane-major copies. Blocks to and from the layout of the chain kernels:
// pure 32-bit moves, so the scalar forms live here and the x86 bodies
// transpose register tiles in `x86.rs`, delegating the lanes and rows past
// their last whole tile to these.
// ---------------------------------------------------------------------------

/// Rows of a lane-major copy between blocks in a buffer of `len` words,
/// starting at `starts`, and `lane_major` words: panics unless `starts` is
/// not empty, `lane_major` is whole rows and every block lies inside.
pub(crate) fn lane_major_rows(len: usize, starts: &[usize], lane_major: usize) -> usize {
    let lanes = starts.len();
    assert!(
        lanes > 0 && lane_major.is_multiple_of(lanes),
        "lane-major copy: {lane_major} words are not whole rows of {lanes} lanes"
    );
    let rows = lane_major / lanes;
    for &start in starts {
        assert!(
            start <= len && len - start >= rows,
            "lane-major copy: a block of {rows} at {start} runs past {len} words"
        );
    }
    rows
}

/// Scalar [`crate::to_lane_major`] over the given lanes and rows.
pub(crate) fn to_lane_major_scalar(
    src: &[u32],
    starts: &[usize],
    dst_t: &mut [u32],
    lanes: std::ops::Range<usize>,
    rows: std::ops::Range<usize>,
) {
    let width = starts.len();
    for lane in lanes {
        let block = &src[starts[lane]..];
        for i in rows.clone() {
            dst_t[i * width + lane] = block[i];
        }
    }
}

/// Scalar [`crate::from_lane_major`] over the given lanes and rows.
pub(crate) fn from_lane_major_scalar(
    src_t: &[u32],
    starts: &[usize],
    dst: &mut [u32],
    lanes: std::ops::Range<usize>,
    rows: std::ops::Range<usize>,
) {
    let width = starts.len();
    for lane in lanes {
        let block = &mut dst[starts[lane]..];
        for i in rows.clone() {
            block[i] = src_t[i * width + lane];
        }
    }
}
