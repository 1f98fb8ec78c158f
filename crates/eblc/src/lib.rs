//! Error-bounded lossy compressors (EBLCs) reimplemented from scratch:
//!
//! * [`sz2`] — block-wise Lorenzo + linear-regression hybrid prediction,
//!   error-bounded quantization, Huffman coding, Zstd-analogue backend
//!   (Liang et al. 2018 — the compressor FedSZ selects).
//! * [`sz3`] — multi-level spline-interpolation prediction with the same
//!   quantization/encoding backend (Zhao et al. 2021 / Liang et al. 2023).
//! * [`szx`] — constant-block detection + bit-truncation fast path
//!   (Yu et al. 2022), in both a strict error-bounded mode and a
//!   "paper" mode replicating the pathology the FedSZ paper observed.
//! * [`zfp`] — block transform coding with fixed-precision bit-plane
//!   encoding (Lindstrom 2014).
//!
//! All compressors consume a flat `&[f32]` (FedSZ flattens every tensor
//! before compression — model weights are treated as 1-D spiky series, see
//! §V-A of the paper) and produce a self-contained byte stream.

pub mod quantizer;
mod stream;
pub mod sz2;
pub mod sz3;
pub mod szx;
pub mod zfp;

pub use fedsz_entropy::CodecError;

/// Error-bound specification, following SZ conventions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|x - x̂| <= eb`.
    Abs(f64),
    /// Value-range relative bound: `|x - x̂| <= eb * (max - min)`.
    ///
    /// This is the mode the paper selects for SZ2/SZ3/SZx (§V-D1): it adapts
    /// to each tensor's dynamic range.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound for a concrete buffer.
    ///
    /// Returns `0.0` for a relative bound over constant (or empty) data —
    /// callers treat a non-positive bound as "store losslessly".
    pub fn absolute(self, data: &[f32]) -> f64 {
        match self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => rel * value_range(data),
        }
    }
}

/// `max - min` over finite values (0 if none are finite or the slice is empty).
pub fn value_range(data: &[f32]) -> f64 {
    // All-finite data, the usual case, takes the dispatched scan; its
    // canonical +0.0 for a zero extreme cannot change a difference.
    match fedsz_simd::minmax_finite(data) {
        Some((min, max)) if min <= max => max as f64 - min as f64,
        Some(_) => 0.0,
        None => value_range_scalar(data),
    }
}

/// [`value_range`] by an element-by-element scan: the path of a tensor that
/// holds a non-finite value, and the tests' oracle for the dispatched one.
pub(crate) fn value_range_scalar(data: &[f32]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in data {
        if v.is_finite() {
            let v = v as f64;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
    }
    if min > max {
        0.0
    } else {
        max - min
    }
}

/// Identifier for one of the lossy compressors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossyKind {
    /// SZ2 analogue (FedSZ's selected compressor).
    Sz2,
    /// SZ3 analogue.
    Sz3,
    /// SZx analogue, strict error-bounded mode.
    Szx,
    /// SZx analogue in "paper" mode: reproduces the behaviour the FedSZ
    /// authors measured (compression ratio pinned near 4.8 regardless of the
    /// bound, reconstruction error large enough to destroy model accuracy).
    SzxPaper,
    /// ZFP analogue in fixed-precision mode.
    Zfp,
}

impl LossyKind {
    /// The four compressors Table I compares, in its row order. `SzxPaper`
    /// stands in for the SZx column because it is the variant whose observed
    /// behaviour the table reports; [`LossyKind::Szx`] is the faithful one.
    pub fn table1() -> [LossyKind; 4] {
        [
            LossyKind::Sz2,
            LossyKind::Sz3,
            LossyKind::SzxPaper,
            LossyKind::Zfp,
        ]
    }

    /// Every variant.
    pub fn all() -> [LossyKind; 5] {
        [
            LossyKind::Sz2,
            LossyKind::Sz3,
            LossyKind::Szx,
            LossyKind::SzxPaper,
            LossyKind::Zfp,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            LossyKind::Sz2 => "SZ2",
            LossyKind::Sz3 => "SZ3",
            LossyKind::Szx => "SZx",
            LossyKind::SzxPaper => "SZx-paper",
            LossyKind::Zfp => "ZFP",
        }
    }

    /// Stable wire tag for serialized FedSZ frames.
    pub fn tag(self) -> u8 {
        match self {
            LossyKind::Sz2 => 0,
            LossyKind::Sz3 => 1,
            LossyKind::Szx => 2,
            LossyKind::SzxPaper => 3,
            LossyKind::Zfp => 4,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => LossyKind::Sz2,
            1 => LossyKind::Sz3,
            2 => LossyKind::Szx,
            3 => LossyKind::SzxPaper,
            4 => LossyKind::Zfp,
            _ => return Err(CodecError::Corrupt("unknown lossy codec tag")),
        })
    }

    /// Whether this compressor guarantees the requested error bound on every
    /// finite value (ZFP's fixed-precision mode and SZx's paper mode do not).
    pub fn is_strictly_bounded(self) -> bool {
        matches!(self, LossyKind::Sz2 | LossyKind::Sz3 | LossyKind::Szx)
    }

    /// Compress a flat buffer under the given bound.
    pub fn compress(self, data: &[f32], eb: ErrorBound) -> Vec<u8> {
        match self {
            LossyKind::Sz2 => sz2::compress(data, eb),
            LossyKind::Sz3 => sz3::compress(data, eb),
            LossyKind::Szx => szx::compress(data, eb, szx::SzxMode::Strict),
            LossyKind::SzxPaper => szx::compress(data, eb, szx::SzxMode::Paper),
            LossyKind::Zfp => zfp::compress(data, eb),
        }
    }

    /// Decompress a buffer produced by [`compress`](Self::compress).
    pub fn decompress(self, bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        match self {
            LossyKind::Sz2 => sz2::decompress(bytes),
            LossyKind::Sz3 => sz3::decompress(bytes),
            LossyKind::Szx | LossyKind::SzxPaper => szx::decompress(bytes),
            LossyKind::Zfp => zfp::decompress(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spiky_weights(n: usize, seed: u64) -> Vec<f32> {
        // Gaussian-ish spiky series like flattened model weights.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let u: f64 = next();
                let v: f64 = next();
                let g = (-2.0 * u.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
                (g * 0.05) as f32
            })
            .collect()
    }

    #[test]
    fn strict_codecs_honor_relative_bound() {
        let data = spiky_weights(10_000, 42);
        let range = value_range(&data);
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
                let c = kind.compress(&data, ErrorBound::Rel(rel));
                let d = kind.decompress(&c).unwrap();
                assert_eq!(d.len(), data.len());
                let max_err = data
                    .iter()
                    .zip(&d)
                    .map(|(a, b)| (a - b).abs() as f64)
                    .fold(0.0, f64::max);
                assert!(
                    max_err <= rel * range * (1.0 + 1e-6),
                    "{} rel {rel}: err {max_err} > {}",
                    kind.name(),
                    rel * range
                );
            }
        }
    }

    #[test]
    fn all_codecs_round_trip_lengths() {
        let data = spiky_weights(3_333, 7);
        for kind in LossyKind::all() {
            let c = kind.compress(&data, ErrorBound::Rel(1e-2));
            let d = kind.decompress(&c).unwrap();
            assert_eq!(d.len(), data.len(), "{}", kind.name());
        }
    }

    #[test]
    fn tighter_bounds_cost_more_bits_for_sz2() {
        let data = spiky_weights(50_000, 99);
        let loose = LossyKind::Sz2.compress(&data, ErrorBound::Rel(1e-1)).len();
        let mid = LossyKind::Sz2.compress(&data, ErrorBound::Rel(1e-2)).len();
        let tight = LossyKind::Sz2.compress(&data, ErrorBound::Rel(1e-4)).len();
        assert!(loose < mid && mid < tight, "{loose} {mid} {tight}");
    }

    #[test]
    fn value_range_ignores_non_finite() {
        assert_eq!(value_range(&[1.0, f32::NAN, 3.0, f32::INFINITY]), 2.0);
        assert_eq!(value_range(&[]), 0.0);
        assert_eq!(value_range(&[5.0; 10]), 0.0);
        assert_eq!(value_range(&[f32::NAN, f32::NEG_INFINITY]), 0.0);
    }

    #[test]
    fn dispatched_value_range_equals_the_scalar_scan() {
        // Same bits from the vector scan as from the element-by-element one,
        // signed zeros and denormals at the extremes included.
        let mut cases: Vec<Vec<f32>> = vec![
            vec![0.0, -0.0],
            vec![-0.0, 0.0, -0.0],
            vec![-0.0; 9],
            vec![-0.0, -1.5],
            vec![0.0, 1.0e-45, -1.0e-45],
            vec![f32::MAX, f32::MIN],
            vec![3.25],
        ];
        for n in [2usize, 7, 8, 9, 31, 1000, 4099] {
            cases.push(spiky_weights(n, n as u64));
            let mut with_zero_max = spiky_weights(n, 3);
            for v in &mut with_zero_max {
                *v = -v.abs();
            }
            with_zero_max[n / 2] = -0.0;
            cases.push(with_zero_max);
        }
        for data in cases {
            assert_eq!(
                value_range(&data).to_bits(),
                value_range_scalar(&data).to_bits(),
                "{:?}",
                &data[..data.len().min(9)]
            );
        }
    }

    #[test]
    fn tags_round_trip() {
        for kind in LossyKind::all() {
            assert_eq!(LossyKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(LossyKind::from_tag(250).is_err());
    }

    #[test]
    fn constant_data_round_trips_everywhere() {
        let data = vec![0.25f32; 4096];
        for kind in LossyKind::all() {
            let c = kind.compress(&data, ErrorBound::Rel(1e-2));
            let d = kind.decompress(&c).unwrap();
            assert_eq!(d.len(), data.len(), "{}", kind.name());
            if kind.is_strictly_bounded() {
                // Constant data has zero range, so the codecs must be exact.
                assert_eq!(d, data, "{}", kind.name());
            }
        }
    }

    #[test]
    fn empty_input_round_trips() {
        for kind in LossyKind::all() {
            let c = kind.compress(&[], ErrorBound::Rel(1e-2));
            assert_eq!(kind.decompress(&c).unwrap(), Vec::<f32>::new());
        }
    }

    #[test]
    fn sz2_compresses_weights_well_at_1e2() {
        let data = spiky_weights(100_000, 1234);
        let c = LossyKind::Sz2.compress(&data, ErrorBound::Rel(1e-2));
        let ratio = (data.len() * 4) as f64 / c.len() as f64;
        // The paper reports 5.4–12.6x at 1e-2 depending on the model; any
        // healthy SZ implementation lands in that decade on Gaussian weights.
        assert!(ratio > 4.0, "SZ2 ratio {ratio:.2} too low");
    }

    #[test]
    fn szx_paper_mode_ratio_is_pinned_near_4_8() {
        let data = spiky_weights(100_000, 5);
        let mut ratios = Vec::new();
        for rel in [1e-2, 1e-3, 1e-4] {
            let c = LossyKind::SzxPaper.compress(&data, ErrorBound::Rel(rel));
            ratios.push((data.len() * 4) as f64 / c.len() as f64);
        }
        for r in &ratios {
            assert!((3.5..6.0).contains(r), "paper-mode ratio {r:.2} not pinned");
        }
        let spread = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.5, "paper-mode ratio varies with eb: {ratios:?}");
    }
}
