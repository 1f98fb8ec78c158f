//! The qualitative orderings the paper's evaluation rests on, asserted as
//! tests so regressions in any codec surface immediately:
//!
//! * SZ2 achieves the best ratio of the EBLCs on spiky weight data (Table I).
//! * ZFP trails the prediction-based compressors on 1-D spiky data (§V-D3).
//! * All EBLCs do far better on smooth scientific data than on weights
//!   (Fig. 2's motivation).
//! * blosc-lz is the fastest lossless codec; xz has the best ratio (Table II).

use fedsz::{LosslessKind, LossyKind};
use fedsz_eblc::ErrorBound;
use fedsz_models::{scidata, ModelKind};
use fedsz_tensor::SplitMix64;
use std::time::Instant;

fn weight_like(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.03 {
                rng.laplace(0.06).clamp(-1.0, 1.0) as f32
            } else {
                rng.normal_with(0.0, 0.03) as f32
            }
        })
        .collect()
}

fn ratio(kind: LossyKind, data: &[f32], rel: f64) -> f64 {
    let c = kind.compress(data, ErrorBound::Rel(rel));
    (data.len() * 4) as f64 / c.len() as f64
}

#[test]
fn sz2_has_the_best_eblc_ratio_on_weights() {
    let data = weight_like(1 << 18, 42);
    let sz2 = ratio(LossyKind::Sz2, &data, 1e-2);
    for other in [LossyKind::SzxPaper, LossyKind::Zfp] {
        let r = ratio(other, &data, 1e-2);
        assert!(sz2 > r, "SZ2 {sz2:.2} should beat {} {r:.2}", other.name());
    }
    // SZ3 is allowed to tie within a few percent (same prediction family).
    let sz3 = ratio(LossyKind::Sz3, &data, 1e-2);
    assert!(sz2 > 0.9 * sz3, "SZ2 {sz2:.2} vs SZ3 {sz3:.2}");
}

#[test]
fn zfp_trails_prediction_based_codecs_on_spiky_1d_data() {
    let data = weight_like(1 << 17, 7);
    for rel in [1e-2, 1e-3] {
        let zfp = ratio(LossyKind::Zfp, &data, rel);
        let sz2 = ratio(LossyKind::Sz2, &data, rel);
        assert!(zfp < sz2, "rel {rel}: ZFP {zfp:.2} vs SZ2 {sz2:.2}");
    }
}

#[test]
fn smooth_science_data_compresses_far_better_than_weights() {
    let field = scidata::miranda_like(512, 256, 3);
    let smooth = field.data();
    let weights = weight_like(smooth.len(), 9);
    for kind in [LossyKind::Sz2, LossyKind::Sz3] {
        let r_smooth = ratio(kind, smooth, 1e-3);
        let r_weights = ratio(kind, &weights, 1e-3);
        assert!(
            r_smooth > 3.0 * r_weights,
            "{}: smooth {r_smooth:.1} vs weights {r_weights:.1}",
            kind.name()
        );
    }
}

#[test]
fn real_model_weights_behave_like_the_synthetic_proxy() {
    // Table I's workload: the actual synthesized AlexNet conv stack.
    let sd = ModelKind::MobileNetV2.synthesize(10, 31);
    let w = sd.get("features.18.0.weight").unwrap().data();
    let sz2 = ratio(LossyKind::Sz2, w, 1e-2);
    assert!((3.0..40.0).contains(&sz2), "SZ2 on real layer: {sz2:.2}");
}

#[test]
fn blosclz_is_fastest_and_xz_best_ratio_on_metadata() {
    // Large enough that timing noise does not invert a ~10x speed gap.
    let mut rng = SplitMix64::new(5);
    let mut bytes = Vec::new();
    for _ in 0..256 * 1024 {
        bytes.extend_from_slice(&(rng.normal_with(0.0, 0.3) as f32).to_le_bytes());
    }
    let mut times = Vec::new();
    let mut sizes = Vec::new();
    for kind in LosslessKind::all() {
        let t0 = Instant::now();
        let c = kind.compress(&bytes);
        times.push((kind, t0.elapsed().as_secs_f64()));
        sizes.push((kind, c.len()));
    }
    let blosc_t = times
        .iter()
        .find(|(k, _)| *k == LosslessKind::BloscLz)
        .unwrap()
        .1;
    let xz_t = times
        .iter()
        .find(|(k, _)| *k == LosslessKind::Xz)
        .unwrap()
        .1;
    assert!(blosc_t * 3.0 < xz_t, "blosc {blosc_t:.3}s vs xz {xz_t:.3}s");
    let xz_len = sizes
        .iter()
        .find(|(k, _)| *k == LosslessKind::Xz)
        .unwrap()
        .1;
    for (kind, len) in &sizes {
        assert!(
            xz_len <= len + len / 20,
            "xz {xz_len} should be within 5% of best ({}: {len})",
            kind.name()
        );
    }
}

#[test]
fn szx_strict_is_the_fastest_eblc() {
    let data = weight_like(1 << 20, 77);
    // Best of five, the two codecs taking turns: one call is a few
    // milliseconds, the other tests of this binary run beside it, and a
    // busy moment should cost both sides or neither.
    let timed = |kind: LossyKind| {
        let t0 = Instant::now();
        std::hint::black_box(kind.compress(&data, ErrorBound::Rel(1e-2)));
        t0.elapsed().as_secs_f64()
    };
    let (mut szx_t, mut sz2_t) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        szx_t = szx_t.min(timed(LossyKind::Szx));
        sz2_t = sz2_t.min(timed(LossyKind::Sz2));
    }
    // SZx's lead is its min/max and offset-packing kernels. With dispatch
    // pinned to the scalar twins it measured 1.44×–1.70× over sixteen release
    // runs (2.6×–2.9× before SZ2's encoder stepped eight Lorenzo chains), so
    // that run alone asserts a margin just under what it measures.
    let margin = if fedsz_simd::active_level() == fedsz_simd::Level::Scalar {
        1.3
    } else {
        2.0
    };
    assert!(
        szx_t * margin < sz2_t,
        "SZx {szx_t:.4}s should be {margin}x faster than SZ2 {sz2_t:.4}s"
    );
}
