//! 2-D convolution with stride, padding, and groups, one sample of the batch
//! at a time and nothing materialised that is only a copy.
//!
//! A group's convolution is a product with the `kvol × l` matrix of image
//! patches (`kvol = icg·k·k` taps, `l = oh·ow` output positions). That matrix
//! is never built: its `B` panels for [`crate::math::mul`] are filled
//! straight from the image, one at a time, in the lane order each product
//! wants. The weight panels are packed once per batch. Depthwise layers (one
//! input and one output channel per group, where a product would have
//! `m = 1`) take a direct per-plane loop that adds the same taps in the same
//! order. Every sum keeps the order DESIGN.md §14 "Training kernels" fixes,
//! so the trained bits do not depend on which path ran.

use std::ops::Range;

use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

use crate::act::Act;
use crate::layer::Layer;
use crate::math::{mul, Acc, Mat, PackedA, Panels, NR};

/// 2-D convolution layer.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    weight: Vec<f32>,
    bias: Option<Vec<f32>>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    vw: Vec<f32>,
    vb: Vec<f32>,
    cached_x: Option<Act>,
}

/// One group of one sample: the layer's shape at a given input size.
#[derive(Debug)]
struct Geom {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Input channels per group.
    icg: usize,
    /// Output channels per group.
    opg: usize,
    /// Every tap of one input plane, in `(ky, kx)` order.
    taps: Vec<Tap>,
}

impl Geom {
    /// Taps per output value: rows of the patch matrix.
    fn kvol(&self) -> usize {
        self.icg * self.k * self.k
    }

    /// Output positions per channel: columns of the patch matrix.
    fn l(&self) -> usize {
        self.oh * self.ow
    }

    /// Index in its plane of the pixel tap `(ky, kx)` reads for output
    /// `(oy, ox)`; both must be in the tap's valid ranges.
    fn pixel(&self, ky: usize, kx: usize, oy: usize, ox: usize) -> usize {
        (oy * self.stride + ky - self.pad) * self.w + ox * self.stride + kx - self.pad
    }
}

/// One kernel tap and the outputs for which it reads a pixel, not padding —
/// computed once per layer call, so the loops over them need no per-element
/// test.
#[derive(Debug)]
struct Tap {
    ky: usize,
    kx: usize,
    ys: Range<usize>,
    xs: Range<usize>,
}

/// The outputs along one axis (`len` inputs, `out` outputs) whose tap `t`
/// reads inside the image: `pad <= o * stride + t < len + pad`.
fn valid(t: usize, len: usize, out: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = (len + pad).saturating_sub(t).div_ceil(stride).min(out);
    lo.min(hi)..hi
}

/// `dst[i] = src[i * stride]`.
fn gather(dst: &mut [f32], src: &[f32], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
    }
}

/// The `kvol × l` patch matrix of one group's `icg` planes — row `r` is tap
/// `r` of every output position, padding taps zero — as a panel source: the
/// `B` of the forward product. The matrix itself is never built.
struct Patches<'a> {
    g: &'a Geom,
    x: &'a [f32],
}

impl Panels for Patches<'_> {
    fn k(&self) -> usize {
        self.g.kvol()
    }

    fn n(&self) -> usize {
        self.g.l()
    }

    fn fill(&self, j0: usize, panel: &mut [f32]) {
        let g = self.g;
        let end = (j0 + NR).min(g.l());
        // The panel's positions, one output row at a time.
        let mut p = j0;
        while p < end {
            let (oy, ox) = (p / g.ow, p % g.ow);
            let run = (g.ow - ox).min(end - p);
            let mut rows = panel.chunks_exact_mut(NR);
            for plane in self.x.chunks_exact(g.h * g.w) {
                for (tap, row) in g.taps.iter().zip(&mut rows) {
                    let (x0, x1) = (ox.max(tap.xs.start), (ox + run).min(tap.xs.end));
                    if tap.ys.contains(&oy) && x0 < x1 {
                        let lane = p - j0 + x0 - ox;
                        let src = &plane[g.pixel(tap.ky, tap.kx, oy, x0)..];
                        gather(&mut row[lane..lane + x1 - x0], src, g.stride);
                    }
                }
            }
            p += run;
        }
    }
}

/// The transpose of [`Patches`], `l × kvol`: the `B` of the `dW` product.
struct PatchesT<'a>(Patches<'a>);

impl Panels for PatchesT<'_> {
    fn k(&self) -> usize {
        self.0.g.l()
    }

    fn n(&self) -> usize {
        self.0.g.kvol()
    }

    fn fill(&self, j0: usize, panel: &mut [f32]) {
        let Patches { g, x } = self.0;
        let kk = g.k * g.k;
        for (lane, r) in (j0..(j0 + NR).min(g.kvol())).enumerate() {
            let plane = &x[r / kk * g.h * g.w..][..g.h * g.w];
            let Tap { ky, kx, ys, xs } = &g.taps[r % kk];
            for oy in ys.clone() {
                let src = plane[g.pixel(*ky, *kx, oy, xs.start)..].iter();
                let dst = panel[(oy * g.ow + xs.start) * NR + lane..].iter_mut();
                for (d, &v) in dst.step_by(NR).zip(src.step_by(g.stride)).take(xs.len()) {
                    *d = v;
                }
            }
        }
    }
}

/// Scatter-add one group's patch gradient back into its `icg` input planes,
/// in `(ic, ky, kx, oy, ox)` order.
fn col2im(g: &Geom, gcol: &[f32], gx: &mut [f32]) {
    let mut rows = gcol.chunks_exact(g.l());
    for plane in gx.chunks_exact_mut(g.h * g.w) {
        for (Tap { ky, kx, ys, xs }, row) in g.taps.iter().zip(&mut rows) {
            for oy in ys.clone() {
                let src = &row[oy * g.ow + xs.start..oy * g.ow + xs.end];
                let dst = &mut plane[g.pixel(*ky, *kx, oy, xs.start)..];
                for (d, &v) in dst.iter_mut().step_by(g.stride).zip(src) {
                    *d += v;
                }
            }
        }
    }
}

impl Conv2d {
    /// New convolution with Kaiming-normal initialization.
    ///
    /// # Panics
    /// Panics if channel counts are not divisible by `groups`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bias: bool,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(
            in_ch.is_multiple_of(groups) && out_ch.is_multiple_of(groups),
            "bad group count"
        );
        let icg = in_ch / groups;
        let fan_in = icg * k * k;
        let std = (2.0 / fan_in as f64).sqrt();
        let wlen = out_ch * icg * k * k;
        let weight: Vec<f32> = (0..wlen)
            .map(|_| rng.normal_with(0.0, std) as f32)
            .collect();
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            groups,
            weight,
            bias: bias.then(|| vec![0.0; out_ch]),
            gw: vec![0.0; wlen],
            gb: vec![0.0; out_ch],
            vw: vec![0.0; wlen],
            vb: vec![0.0; out_ch],
            cached_x: None,
        }
    }

    /// The layer's shape on an `h × w` input.
    ///
    /// # Panics
    /// Panics if the input is empty or, padded, smaller than the kernel.
    fn geom(&self, h: usize, w: usize) -> Geom {
        let (k, stride, pad) = (self.k, self.stride, self.pad);
        let out = |len: usize| match len {
            0 => None,
            _ => Some((len + 2 * pad).checked_sub(k)? / stride + 1),
        };
        let (Some(oh), Some(ow)) = (out(h), out(w)) else {
            panic!(
                "conv {}->{} k{k} s{stride} p{pad}: input {h}x{w} is smaller than the kernel",
                self.in_ch, self.out_ch
            );
        };
        let taps = (0..k * k)
            .map(|t| Tap {
                ky: t / k,
                kx: t % k,
                ys: valid(t / k, h, oh, stride, pad),
                xs: valid(t % k, w, ow, stride, pad),
            })
            .collect();
        Geom {
            h,
            w,
            oh,
            ow,
            k,
            stride,
            pad,
            icg: self.in_ch / self.groups,
            opg: self.out_ch / self.groups,
            taps,
        }
    }

    /// One input and one output channel per group: the direct path.
    fn is_depthwise(&self) -> bool {
        self.groups == self.in_ch && self.groups == self.out_ch
    }

    /// `out += W ⊛ x` for the whole batch through the packed product
    /// (`out` arrives zeroed). Groups run outermost so that a group's weight
    /// panels are packed once per batch.
    fn forward_gemm(&self, g: &Geom, x: &Act, out: &mut [f32]) {
        let (kvol, l) = (g.kvol(), g.l());
        let (mut w, mut panel) = (PackedA::default(), Vec::new());
        for (gi, wg) in self.weight.chunks_exact(g.opg * kvol).enumerate() {
            w.pack(Mat::new(wg, g.opg, kvol));
            let samples = x.data.chunks_exact(x.sample_len());
            for (xs, os) in samples.zip(out.chunks_exact_mut(self.out_ch * l)) {
                let x = &xs[gi * g.icg * g.h * g.w..][..g.icg * g.h * g.w];
                let og = &mut os[gi * g.opg * l..][..g.opg * l];
                mul(&w, &Patches { g, x }, &mut panel, og, Acc::FromC);
            }
        }
    }

    /// The depthwise forward: each output plane is its input plane's taps
    /// added in `(ky, kx)` order. A padding tap would add `w · 0.0`, which
    /// cannot change a sum that started at `+0.0`, so it is skipped.
    fn forward_depthwise(&self, g: &Geom, x: &Act, out: &mut [f32]) {
        let planes = x
            .data
            .chunks_exact(g.h * g.w)
            .zip(out.chunks_exact_mut(g.l()));
        // Planes run sample-major, channel-minor: the weights cycle.
        let weights = self.weight.chunks_exact(g.k * g.k).cycle();
        for ((xp, op), w) in planes.zip(weights) {
            for (Tap { ky, kx, ys, xs }, &wv) in g.taps.iter().zip(w) {
                for oy in ys.clone() {
                    let src = xp[g.pixel(*ky, *kx, oy, xs.start)..].iter();
                    let dst = &mut op[oy * g.ow + xs.start..oy * g.ow + xs.end];
                    for (o, &v) in dst.iter_mut().zip(src.step_by(g.stride)) {
                        *o += wv * v;
                    }
                }
            }
        }
    }

    /// `self.gw += dW` in sample order, and `x` becomes `dX`, for the whole
    /// batch through the packed product. Once a sample's planes of a group
    /// have fed their `dW` product nothing reads them again, so that group's
    /// input gradient is scattered into the same storage.
    fn backward_gemm(&mut self, g: &Geom, x: &mut Act, grad: &Act) {
        let (kvol, l) = (g.kvol(), g.l());
        // The weights and one sample's gradient as packed left operands,
        // the one `B` panel, and one sample's `kvol × l` patch gradient.
        let (mut w, mut pg) = (PackedA::default(), PackedA::default());
        let (mut panel, mut gcol) = (Vec::new(), Vec::new());
        let sample_len = x.sample_len();
        let groups = self
            .weight
            .chunks_exact(g.opg * kvol)
            .zip(self.gw.chunks_exact_mut(g.opg * kvol));
        for (gi, (wg, gwg)) in groups.enumerate() {
            w.pack(Mat::new(wg, g.opg, kvol).t());
            let samples = x.data.chunks_exact_mut(sample_len);
            for (xs, gs) in samples.zip(grad.data.chunks_exact(grad.sample_len())) {
                let planes = &mut xs[gi * g.icg * g.h * g.w..][..g.icg * g.h * g.w];
                let gg = Mat::new(&gs[gi * g.opg * l..][..g.opg * l], g.opg, l);
                // dW_g += G_g (opg x l) * patchesᵀ (l x kvol)
                pg.pack(gg);
                let patches = PatchesT(Patches { g, x: planes });
                mul(&pg, &patches, &mut panel, gwg, Acc::FromZero);
                // dpatches = W_gᵀ (kvol x opg) * G_g (opg x l)
                gcol.clear();
                gcol.resize(kvol * l, 0.0);
                mul(&w, &gg, &mut panel, &mut gcol, Acc::FromC);
                planes.fill(0.0);
                col2im(g, &gcol, planes);
            }
        }
    }

    /// The depthwise backward, `x` becoming `dX` plane by plane: `dW` is one
    /// ascending dot product per tap, then the plane receives `w · g` in
    /// `(ky, kx, oy, ox)` order, the padding taps skipped as in the forward.
    fn backward_depthwise(&mut self, g: &Geom, x: &mut Act, grad: &Act) {
        let kk = g.k * g.k;
        let planes = x.data.chunks_exact_mut(g.h * g.w);
        for (i, (xp, gp)) in planes.zip(grad.data.chunks_exact(g.l())).enumerate() {
            let c = i % self.out_ch;
            let gw = &mut self.gw[c * kk..(c + 1) * kk];
            for (Tap { ky, kx, ys, xs }, gwv) in g.taps.iter().zip(gw) {
                let mut acc = 0.0f32;
                for oy in ys.clone() {
                    let src = xp[g.pixel(*ky, *kx, oy, xs.start)..].iter();
                    let g_row = &gp[oy * g.ow + xs.start..oy * g.ow + xs.end];
                    for (&gv, &xv) in g_row.iter().zip(src.step_by(g.stride)) {
                        acc += gv * xv;
                    }
                }
                *gwv += acc;
            }
            xp.fill(0.0);
            let w = &self.weight[c * kk..(c + 1) * kk];
            for (Tap { ky, kx, ys, xs }, &wv) in g.taps.iter().zip(w) {
                for oy in ys.clone() {
                    let dst = xp[g.pixel(*ky, *kx, oy, xs.start)..].iter_mut();
                    let g_row = &gp[oy * g.ow + xs.start..oy * g.ow + xs.end];
                    for (d, &gv) in dst.step_by(g.stride).zip(g_row) {
                        *d += wv * gv;
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Act, train: bool) -> Act {
        assert_eq!(x.c, self.in_ch, "conv input channel mismatch");
        let g = self.geom(x.h, x.w);
        let l = g.l();
        let mut out = vec![0.0f32; x.n * self.out_ch * l];
        if self.is_depthwise() {
            self.forward_depthwise(&g, &x, &mut out);
        } else {
            self.forward_gemm(&g, &x, &mut out);
        }
        if let Some(bias) = &self.bias {
            for (plane, &b) in out.chunks_exact_mut(l).zip(bias.iter().cycle()) {
                for v in plane {
                    *v += b;
                }
            }
        }
        let y = Act::new(out, x.n, self.out_ch, g.oh, g.ow);
        if train {
            self.cached_x = Some(x);
        }
        y
    }

    fn backward(&mut self, grad: Act) -> Act {
        let mut x = self.cached_x.take().expect("conv backward without forward");
        let g = self.geom(x.h, x.w);
        assert_eq!(
            (grad.n, grad.c, grad.h, grad.w),
            (x.n, self.out_ch, g.oh, g.ow)
        );
        self.gw.fill(0.0);
        self.gb.fill(0.0);
        if self.is_depthwise() {
            self.backward_depthwise(&g, &mut x, &grad);
        } else {
            self.backward_gemm(&g, &mut x, &grad);
        }
        if self.bias.is_some() {
            let planes = grad.data.chunks_exact(g.l());
            for (plane, i) in planes.zip((0..self.out_ch).cycle()) {
                self.gb[i] += plane.iter().sum::<f32>();
            }
        }
        x
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for ((w, v), &g) in self.weight.iter_mut().zip(&mut self.vw).zip(&self.gw) {
            *v = momentum * *v - lr * g;
            *w += *v;
        }
        if let Some(bias) = &mut self.bias {
            for ((b, v), &g) in bias.iter_mut().zip(&mut self.vb).zip(&self.gb) {
                *v = momentum * *v - lr * g;
                *b += *v;
            }
        }
    }

    fn export(&self, prefix: &str, sd: &mut StateDict) {
        let icg = self.in_ch / self.groups;
        sd.insert(
            format!("{prefix}.weight"),
            TensorKind::Weight,
            Tensor::new(vec![self.out_ch, icg, self.k, self.k], self.weight.clone()),
        );
        if let Some(bias) = &self.bias {
            sd.insert(
                format!("{prefix}.bias"),
                TensorKind::Bias,
                Tensor::from_vec(bias.clone()),
            );
        }
    }

    fn import(&mut self, prefix: &str, sd: &StateDict) {
        let w = sd
            .get(&format!("{prefix}.weight"))
            .unwrap_or_else(|| panic!("missing {prefix}.weight"));
        assert_eq!(
            w.numel(),
            self.weight.len(),
            "{prefix}.weight shape mismatch"
        );
        self.weight.copy_from_slice(w.data());
        if let Some(bias) = &mut self.bias {
            let b = sd
                .get(&format!("{prefix}.bias"))
                .unwrap_or_else(|| panic!("missing {prefix}.bias"));
            bias.copy_from_slice(b.data());
        }
        self.vw.fill(0.0);
        self.vb.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.as_ref().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(7)
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 1, false, &mut rng());
        conv.weight[0] = 1.0;
        let x = Act::new((0..16).map(|i| i as f32).collect(), 1, 1, 4, 4);
        let y = conv.forward(x.clone(), false);
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 1, false, &mut rng());
        conv.weight
            .copy_from_slice(&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let x = Act::new((0..25).map(|i| i as f32).collect(), 1, 1, 5, 5);
        let y = conv.forward(x, false);
        // Center-tap kernel picks the middle of each 3x3 window.
        assert_eq!((y.h, y.w), (3, 3));
        assert_eq!(y.data, [6.0, 7.0, 8.0, 11.0, 12.0, 13.0, 16.0, 17.0, 18.0]);
    }

    #[test]
    fn padding_and_stride_shapes() {
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, 1, true, &mut rng());
        let y = conv.forward(Act::zeros(2, 3, 32, 32), false);
        assert_eq!((y.n, y.c, y.h, y.w), (2, 8, 16, 16));
    }

    #[test]
    fn depthwise_groups() {
        let mut conv = Conv2d::new(4, 4, 3, 1, 1, 4, false, &mut rng());
        assert_eq!(conv.weight.len(), 4 * 9);
        let y = conv.forward(Act::zeros(1, 4, 8, 8), false);
        assert_eq!((y.c, y.h, y.w), (4, 8, 8));
    }

    /// Finite-difference gradient check on a tiny conv.
    #[test]
    fn gradient_check() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, true, &mut rng());
        let mut r = SplitMix64::new(99);
        let x = Act::new(
            (0..2 * 2 * 5 * 5).map(|_| r.uniform(-1.0, 1.0)).collect(),
            2,
            2,
            5,
            5,
        );
        // Loss = sum(y^2)/2 so dL/dy = y.
        let y = conv.forward(x.clone(), true);
        let gy = y.clone();
        let gx = conv.backward(gy);

        let loss = |conv: &mut Conv2d, x: &Act| -> f64 {
            let y = conv.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;

        // Check a scattering of weight gradients.
        for idx in [0usize, 7, 19, 33, conv.weight.len() - 1] {
            let orig = conv.weight[idx];
            conv.weight[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = conv.gw[idx];
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a scattering of input gradients.
        let mut x2 = x.clone();
        for idx in [0usize, 13, 49, 99] {
            let orig = x2.data[idx];
            x2.data[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            x2.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = gx.data[idx];
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "x[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Finite-difference check for grouped (depthwise) convolution.
    #[test]
    fn depthwise_gradient_check() {
        let mut conv = Conv2d::new(4, 4, 3, 1, 1, 4, false, &mut rng());
        let mut r = SplitMix64::new(123);
        let x = Act::new(
            (0..2 * 4 * 4 * 4).map(|_| r.uniform(-1.0, 1.0)).collect(),
            2,
            4,
            4,
            4,
        );
        let y = conv.forward(x.clone(), true);
        let gx = conv.backward(y);

        let loss = |conv: &mut Conv2d, x: &Act| -> f64 {
            let y = conv.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 9, 17, 35] {
            let orig = conv.weight[idx];
            conv.weight[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - conv.gw[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "dw w[{idx}]: numeric {numeric} vs analytic {}",
                conv.gw[idx]
            );
        }
        let mut x2 = x.clone();
        for idx in [0usize, 31, 77] {
            let orig = x2.data[idx];
            x2.data[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            x2.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - gx.data[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "dw x[{idx}]: numeric {numeric} vs analytic {}",
                gx.data[idx]
            );
        }
    }

    /// Finite-difference check with stride 2 and padding.
    #[test]
    fn strided_gradient_check() {
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, 1, true, &mut rng());
        let mut r = SplitMix64::new(321);
        let x = Act::new(
            (0..2 * 6 * 6).map(|_| r.uniform(-1.0, 1.0)).collect(),
            1,
            2,
            6,
            6,
        );
        let y = conv.forward(x.clone(), true);
        assert_eq!((y.h, y.w), (3, 3));
        let gx = conv.backward(y);
        let loss = |conv: &mut Conv2d, x: &Act| -> f64 {
            let y = conv.forward(x.clone(), false);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 20, 50, 71] {
            let orig = x.data[idx];
            let mut x2 = x.clone();
            x2.data[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - gx.data[idx]).abs() < 0.02 * (1.0 + numeric.abs()),
                "strided x[{idx}]: numeric {numeric} vs analytic {}",
                gx.data[idx]
            );
        }
    }

    /// The patch matrix as the parent built it, kept as the oracle for
    /// `pack_patches`: `kvol × l`, padding taps zero.
    fn im2col(g: &Geom, x: &[f32]) -> Vec<f32> {
        let l = g.l();
        let mut col = vec![0.0; g.kvol() * l];
        for ic in 0..g.icg {
            let plane = &x[ic * g.h * g.w..(ic + 1) * g.h * g.w];
            for ky in 0..g.k {
                for kx in 0..g.k {
                    let row = ((ic * g.k + ky) * g.k + kx) * l;
                    for oy in 0..g.oh {
                        let iy = oy * g.stride + ky;
                        if iy < g.pad || iy >= g.h + g.pad {
                            continue;
                        }
                        let iy = iy - g.pad;
                        for ox in 0..g.ow {
                            let ix = ox * g.stride + kx;
                            if ix < g.pad || ix >= g.w + g.pad {
                                continue;
                            }
                            col[row + oy * g.ow + ox] = plane[iy * g.w + ix - g.pad];
                        }
                    }
                }
            }
        }
        col
    }

    fn random_act(r: &mut SplitMix64, n: usize, c: usize, h: usize, w: usize) -> Act {
        let data = (0..n * c * h * w).map(|_| r.uniform(-1.0, 1.0)).collect();
        Act::new(data, n, c, h, w)
    }

    #[test]
    fn panels_packed_from_the_image_equal_im2col_then_pack() {
        let mut r = SplitMix64::new(41);
        for k in [1usize, 3] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1] {
                    for (h, w) in [(7usize, 7usize), (8, 8), (9, 6), (4, 13)] {
                        let conv = Conv2d::new(3, 5, k, stride, pad, 1, false, &mut rng());
                        let g = conv.geom(h, w);
                        let x = random_act(&mut r, 1, 3, h, w);
                        let col = im2col(&g, &x.data);
                        let (kvol, l) = (g.kvol(), g.l());
                        let ctx = format!("k {k} stride {stride} pad {pad} {h}x{w}");
                        let patches = Patches { g: &g, x: &x.data };
                        let (col, col_t) = (Mat::new(&col, kvol, l), Mat::new(&col, kvol, l).t());
                        let mut got = vec![0.0; kvol.max(l) * NR];
                        let mut want = got.clone();
                        for j0 in (0..l).step_by(NR) {
                            got.fill(0.0);
                            want.fill(0.0);
                            patches.fill(j0, &mut got[..kvol * NR]);
                            col.fill(j0, &mut want[..kvol * NR]);
                            assert_eq!(got, want, "positions {j0} {ctx}");
                        }
                        let patches_t = PatchesT(patches);
                        for j0 in (0..kvol).step_by(NR) {
                            got.fill(0.0);
                            want.fill(0.0);
                            patches_t.fill(j0, &mut got[..l * NR]);
                            col_t.fill(j0, &mut want[..l * NR]);
                            assert_eq!(got, want, "taps {j0} {ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn depthwise_path_equals_the_grouped_product_to_the_bit() {
        use crate::math::tests::bits;
        let mut r = SplitMix64::new(77);
        for stride in [1usize, 2] {
            let mut conv = Conv2d::new(16, 16, 3, stride, 1, 16, false, &mut rng());
            assert!(conv.is_depthwise());
            // Exact zeros, as a ReLU upstream and a pruned weight give.
            conv.weight[4] = 0.0;
            let mut x = random_act(&mut r, 3, 16, 9, 10);
            x.data.iter_mut().step_by(5).for_each(|v| *v = 0.0);
            let g = conv.geom(x.h, x.w);
            let len = x.n * 16 * g.l();

            let (mut direct, mut grouped) = (vec![0.0; len], vec![0.0; len]);
            conv.forward_depthwise(&g, &x, &mut direct);
            conv.forward_gemm(&g, &x, &mut grouped);
            assert_eq!(bits(&direct), bits(&grouped), "forward stride {stride}");

            let grad = random_act(&mut r, x.n, 16, g.oh, g.ow);
            let (mut gx_direct, mut gx_grouped) = (x.clone(), x.clone());
            conv.gw.fill(0.0);
            conv.backward_depthwise(&g, &mut gx_direct, &grad);
            let gw_direct = conv.gw.clone();
            conv.gw.fill(0.0);
            conv.backward_gemm(&g, &mut gx_grouped, &grad);
            assert_eq!(bits(&gw_direct), bits(&conv.gw), "dW stride {stride}");
            assert_eq!(
                bits(&gx_direct.data),
                bits(&gx_grouped.data),
                "gx stride {stride}"
            );
        }
    }

    #[test]
    fn grouped_but_not_depthwise_takes_the_product() {
        // Two channels per group: the path no model uses but `new` allows.
        let mut conv = Conv2d::new(4, 6, 3, 1, 1, 2, true, &mut rng());
        assert!(!conv.is_depthwise());
        let mut r = SplitMix64::new(5);
        let x = random_act(&mut r, 2, 4, 5, 5);
        let y = conv.forward(x.clone(), true);
        // Output channel 4 belongs to group 1: it must ignore channels 0..2.
        let mut x2 = x.clone();
        for i in 0..x2.n {
            x2.sample_mut(i)[..2 * 25].fill(9.0);
        }
        let y2 = conv.forward(x2, false);
        assert_eq!(y.sample(1)[4 * 25..], y2.sample(1)[4 * 25..]);
        assert_ne!(y.sample(1)[..25], y2.sample(1)[..25]);
        let gx = conv.backward(y);
        assert_eq!(gx.data.len(), x.data.len());
    }

    #[test]
    #[should_panic(expected = "conv 1->1 k3 s2 p0: input 2x2 is smaller than the kernel")]
    fn input_smaller_than_the_kernel_is_refused_with_the_geometry() {
        // Unchecked, `2 + 0 - 3` wrapped: an empty activation at stride 1 in
        // release, an allocation abort at stride 2.
        let mut conv = Conv2d::new(1, 1, 3, 2, 0, 1, false, &mut rng());
        conv.forward(Act::zeros(1, 1, 2, 2), false);
    }

    #[test]
    fn export_import_round_trip() {
        let a = Conv2d::new(3, 4, 3, 1, 1, 1, true, &mut SplitMix64::new(1));
        let mut sd = StateDict::new();
        a.export("conv", &mut sd);
        let mut b = Conv2d::new(3, 4, 3, 1, 1, 1, true, &mut SplitMix64::new(2));
        b.import("conv", &sd);
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 1, true, &mut rng());
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }
}
