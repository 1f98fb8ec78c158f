//! The one matrix kernel under the conv and dense layers.
//!
//! `C (+)= A × B`, row-major `C`, operands described by strides so that a
//! transpose is a stride setting and not a second loop. `A` is packed whole
//! into zero-padded `[k][MR]` panels ([`PackedA`]); `B` is anything that can
//! fill one zero-padded `[k][NR]` panel at a time ([`Panels`]: a strided
//! matrix, or image patches that are never built as a matrix), so the only
//! `B` storage is one panel that stays in cache while every `A` panel is
//! multiplied with it. One micro-kernel accumulates an `MR × NR` tile of `C`
//! in registers over the whole of `k`. Everything runs on the calling
//! thread; a layer call owns the buffers and reuses them across the samples
//! of its batch.
//!
//! **Order contract** (DESIGN.md §14 "Training kernels"): every element of
//! `C` is a sum over `k` taken in ascending order by one accumulator, each
//! term a rounded product followed by a rounded add (never `mul_add`).
//! [`Acc::FromC`] starts the accumulator from the value in `C`;
//! [`Acc::FromZero`] starts it from `0.0` and adds it to `C` once at the
//! end. Blocking over `m` and `n` therefore cannot change a bit, and the
//! naive triple loops this replaced live on in the test module as the
//! oracle. Terms are never skipped: `0 × inf` is NaN, as IEEE 754 says.

/// Rows of `C` per register tile.
pub const MR: usize = 4;
/// Columns of `C` per register tile.
pub const NR: usize = 8;

/// Where a tile's accumulators start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acc {
    /// Start from the value in `C`: `c = (..((c + a₀b₀) + a₁b₁)..)`.
    FromC,
    /// Start from `0.0`, add to `C` once: `c += (..((0 + a₀b₀) + a₁b₁)..)`.
    FromZero,
}

/// A strided read-only matrix: element `(i, j)` is `data[i * rs + j * cs]`.
#[derive(Debug, Clone, Copy)]
pub struct Mat<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// A row-major `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics if `data` is not `rows * cols` long.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape");
        Self {
            data,
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose, as a view of the same values.
    pub fn t(self) -> Self {
        Self {
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }
}

/// Interleave `lanes` strided vectors into a zeroed `[k][W]` panel: lane
/// `v` of depth `p` becomes `src[v * vs + p * ps]`.
fn interleave<const W: usize>(panel: &mut [f32], src: &[f32], lanes: usize, vs: usize, ps: usize) {
    if vs == 1 {
        for (p, row) in panel.chunks_exact_mut(W).enumerate() {
            row[..lanes].copy_from_slice(&src[p * ps..][..lanes]);
        }
    } else {
        for lane in 0..lanes {
            let vector = src[lane * vs..].iter().step_by(ps);
            for (row, &v) in panel.chunks_exact_mut(W).zip(vector) {
                row[lane] = v;
            }
        }
    }
}

/// The left operand, packed whole: panel `i / MR` holds `[k][MR]`, the rows
/// past `m` in the last panel zero.
#[derive(Debug, Default)]
pub struct PackedA {
    panels: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Pack `a`, reusing the buffer.
    pub fn pack(&mut self, a: Mat<'_>) {
        (self.m, self.k) = (a.rows, a.cols);
        self.panels.clear();
        self.panels.resize(self.m.div_ceil(MR) * self.k * MR, 0.0);
        if self.k == 0 {
            return;
        }
        let panels = self.panels.chunks_exact_mut(self.k * MR);
        for (panel, i0) in panels.zip((0..self.m).step_by(MR)) {
            let lanes = MR.min(self.m - i0);
            interleave::<MR>(panel, &a.data[i0 * a.rs..], lanes, a.rs, a.cs);
        }
    }
}

/// The right operand (`k × n`) as a source of `[k][NR]` panels, so that it
/// need not exist as a matrix.
pub trait Panels {
    /// Rows: the length of every sum.
    fn k(&self) -> usize;
    /// Columns.
    fn n(&self) -> usize;
    /// Write columns `j0 .. j0 + NR` into `panel` (`k * NR` long, arrives
    /// zeroed): element `(p, j0 + lane)` at `panel[p * NR + lane]`. Lanes
    /// past column `n` stay zero.
    fn fill(&self, j0: usize, panel: &mut [f32]);
}

impl Panels for Mat<'_> {
    fn k(&self) -> usize {
        self.rows
    }

    fn n(&self) -> usize {
        self.cols
    }

    fn fill(&self, j0: usize, panel: &mut [f32]) {
        if self.rows == 0 {
            return;
        }
        let lanes = NR.min(self.cols - j0);
        interleave::<NR>(panel, &self.data[j0 * self.cs..], lanes, self.cs, self.rs);
    }
}

/// The micro-kernel: `tile += A_panel × B_panel` over all of `k`, ascending.
///
/// Plain indexing over fixed-size arrays on purpose: the optimiser keeps the
/// tile in registers and vectorises the `NR` loop at `opt-level >= 2`, and
/// at `opt-level = 1` (the profile the test suite runs under) nothing here
/// depends on an iterator adaptor being inlined.
#[inline(always)]
fn kernel(k: usize, a_panel: &[f32], b_panel: &[f32], tile: &mut [[f32; NR]; MR]) {
    let (a_panel, b_panel) = (&a_panel[..k * MR], &b_panel[..k * NR]);
    let mut t = *tile;
    for p in 0..k {
        let a: &[f32; MR] = a_panel[p * MR..][..MR].try_into().expect("MR floats");
        let b: &[f32; NR] = b_panel[p * NR..][..NR].try_into().expect("NR floats");
        for i in 0..MR {
            for j in 0..NR {
                t[i][j] += a[i] * b[j];
            }
        }
    }
    *tile = t;
}

/// The driver: `C (+)= A × B`, `C` row-major `m × n`. `panel` is the one
/// `B` panel's storage, owned by the caller so that it is reused.
///
/// # Panics
/// Panics if the shapes of `a`, `b` and `c` do not agree.
pub fn mul(a: &PackedA, b: &impl Panels, panel: &mut Vec<f32>, c: &mut [f32], acc: Acc) {
    let (m, k, n) = (a.m, a.k, b.n());
    assert_eq!(b.k(), k, "inner dimensions");
    assert_eq!(c.len(), m * n, "C shape");
    panel.resize(k * NR, 0.0);
    for j0 in (0..n).step_by(NR) {
        panel.fill(0.0);
        b.fill(j0, panel);
        let nr = NR.min(n - j0);
        for (ip, i0) in (0..m).step_by(MR).enumerate() {
            let a_panel = &a.panels[ip * k * MR..(ip + 1) * k * MR];
            let mr = MR.min(m - i0);
            let mut tile = [[0.0f32; NR]; MR];
            if acc == Acc::FromC {
                for (i, row) in tile.iter_mut().enumerate().take(mr) {
                    row[..nr].copy_from_slice(&c[(i0 + i) * n + j0..][..nr]);
                }
            }
            kernel(k, a_panel, panel, &mut tile);
            for (i, row) in tile.iter().enumerate().take(mr) {
                let c_row = &mut c[(i0 + i) * n + j0..][..nr];
                match acc {
                    Acc::FromC => c_row.copy_from_slice(&row[..nr]),
                    Acc::FromZero => {
                        for (cv, &t) in c_row.iter_mut().zip(row) {
                            *cv += t;
                        }
                    }
                }
            }
        }
    }
}

/// Buffers for a layer that multiplies two plain matrices.
#[derive(Debug, Default)]
pub struct Gemm {
    a: PackedA,
    panel: Vec<f32>,
}

impl Gemm {
    /// `C (+)= A × B`, `C` row-major.
    pub fn mul(&mut self, a: Mat<'_>, b: Mat<'_>, c: &mut [f32], acc: Acc) {
        self.a.pack(a);
        mul(&self.a, &b, &mut self.panel, c, acc);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fedsz_tensor::SplitMix64;

    // The three loops the driver replaced, kept to the letter as the oracle
    // (zero-skip included: with finite operands and a `C` that is not `-0.0`
    // it never changes a bit, which is what lets the driver drop it).

    /// `C += A × B` where A is `m×k`, B is `k×n`, C is `m×n`.
    fn mm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// `C += A × Bᵀ` where A is `m×k`, B is `n×k`, C is `m×n`.
    fn mm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `C += Aᵀ × B` where A is `k×m`, B is `k×n`, C is `m×n`.
    fn mm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let c_row = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Finite values of every awkward kind: exact zeros of both signs,
    /// denormals, magnitudes whose products overflow, and ordinary ones.
    fn awkward(rng: &mut SplitMix64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.below(10) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.below(1 << 20) as u32 + 1),
                3 => -f32::from_bits(rng.below(1 << 20) as u32 + 1),
                4 => f32::MAX / 2.0 * rng.uniform(0.5, 1.0),
                5 => -f32::MAX / 2.0 * rng.uniform(0.5, 1.0),
                _ => rng.uniform(-2.0, 2.0),
            })
            .collect()
    }

    const A: [f32; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
    const B: [f32; 6] = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
    const AB: [f32; 4] = [58.0, 64.0, 139.0, 154.0];

    #[test]
    fn all_three_forms_of_a_known_product() {
        let mut g = Gemm::default();
        let mut c = vec![1.0; 4];
        g.mul(Mat::new(&A, 2, 3), Mat::new(&B, 3, 2), &mut c, Acc::FromC);
        assert_eq!(c, [59.0, 65.0, 140.0, 155.0]);

        let bt = [7.0, 9.0, 11.0, 8.0, 10.0, 12.0]; // B as 2x3
        let mut c = vec![0.0; 4];
        let b = Mat::new(&bt, 2, 3).t();
        g.mul(Mat::new(&A, 2, 3), b, &mut c, Acc::FromZero);
        assert_eq!(c, AB);

        let at = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // A as 3x2
        let mut c = vec![0.0; 4];
        let a = Mat::new(&at, 3, 2).t();
        g.mul(a, Mat::new(&B, 3, 2), &mut c, Acc::FromC);
        assert_eq!(c, AB);
    }

    #[test]
    fn driver_equals_the_three_loops_to_the_bit() {
        let sides = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2 * NR + 3];
        let mut rng = SplitMix64::new(0x6E44);
        let mut g = Gemm::default();
        for m in sides {
            for n in sides {
                for k in [0usize, 1, 2, 27, 1024] {
                    let a = awkward(&mut rng, m * k);
                    let b = awkward(&mut rng, k * n);
                    // Non-zero, so that the oracle's zero-skip cannot show.
                    let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform(0.5, 1.5)).collect();
                    let ctx = format!("m {m} k {k} n {n}");

                    let (mut want, mut got) = (c0.clone(), c0.clone());
                    mm_nn(&a, &b, m, k, n, &mut want);
                    g.mul(Mat::new(&a, m, k), Mat::new(&b, k, n), &mut got, Acc::FromC);
                    assert_eq!(bits(&got), bits(&want), "nn {ctx}");

                    let (mut want, mut got) = (c0.clone(), c0.clone());
                    mm_nt(&a, &b, m, k, n, &mut want);
                    let bt = Mat::new(&b, n, k).t();
                    g.mul(Mat::new(&a, m, k), bt, &mut got, Acc::FromZero);
                    assert_eq!(bits(&got), bits(&want), "nt {ctx}");

                    let (mut want, mut got) = (c0.clone(), c0);
                    mm_tn(&a, &b, m, k, n, &mut want);
                    let at = Mat::new(&a, k, m).t();
                    g.mul(at, Mat::new(&b, k, n), &mut got, Acc::FromC);
                    assert_eq!(bits(&got), bits(&want), "tn {ctx}");
                }
            }
        }
    }

    #[test]
    fn zero_c_start_equals_the_loops_too() {
        // What the layers do: `C` starts at `+0.0`. A running sum that starts
        // there can never be `-0.0`, so skipped `±0` terms change nothing.
        let mut rng = SplitMix64::new(9);
        let mut g = Gemm::default();
        let (m, k, n) = (MR + 1, 27, 2 * NR + 3);
        let a = awkward(&mut rng, m * k);
        let b = awkward(&mut rng, k * n);
        let (mut want, mut got) = (vec![0.0; m * n], vec![0.0; m * n]);
        mm_nn(&a, &b, m, k, n, &mut want);
        g.mul(Mat::new(&a, m, k), Mat::new(&b, k, n), &mut got, Acc::FromC);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn zero_times_infinity_is_nan_now() {
        // The one documented difference from the old loops: they skipped a
        // term whose `A` factor was zero, so `0 × inf` contributed nothing;
        // the driver multiplies every term and gets IEEE's NaN. Either model
        // is quarantined by `fl::validate`; this is not a regression.
        let (a, b) = ([0.0f32, 1.0], [f32::INFINITY, 2.0]);
        let mut old = vec![0.0f32];
        mm_nn(&a, &b, 1, 2, 1, &mut old);
        assert_eq!(old, [2.0]);
        let mut new = vec![0.0f32];
        let mut g = Gemm::default();
        g.mul(Mat::new(&a, 1, 2), Mat::new(&b, 2, 1), &mut new, Acc::FromC);
        assert!(new[0].is_nan());
    }
}
