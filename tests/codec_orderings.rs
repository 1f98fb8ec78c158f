//! The qualitative orderings the paper's evaluation rests on, asserted as
//! tests so regressions in any codec surface immediately:
//!
//! * SZ2 achieves the best ratio of the EBLCs on spiky weight data (Table I).
//! * ZFP trails the prediction-based compressors on 1-D spiky data (§V-D3).
//! * All EBLCs do far better on smooth scientific data than on weights
//!   (Fig. 2's motivation).
//! * blosc-lz is the fastest lossless codec; xz has the best ratio (Table II).
//! * SZx is the fastest EBLC.
//!
//! The two speed orderings share one `#[ignore]`d test, which CI runs by
//! name in release: a wall-clock ratio is not a tier-1 check.

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

/// A megabyte of f32 metadata-like bytes (Table II's input).
fn metadata_bytes() -> Vec<u8> {
    let mut rng = SplitMix64::new(5);
    let mut bytes = Vec::new();
    for _ in 0..256 * 1024 {
        bytes.extend_from_slice(&(rng.normal_with(0.0, 0.3) as f32).to_le_bytes());
    }
    bytes
}

#[test]
fn xz_has_the_best_ratio_on_metadata() {
    let bytes = metadata_bytes();
    let sizes: Vec<_> = LosslessKind::all()
        .into_iter()
        .map(|kind| (kind, kind.compress(&bytes).len()))
        .collect();
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

/// Best of five calls of `f`, in seconds.
fn best_of_five(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The speed orderings of Table II and §V: blosc-lz is the fastest lossless
/// codec, SZx the fastest EBLC. Wall-clock ratios fail on a loaded machine
/// whatever the code does, so this stays out of the default run.
#[test]
#[ignore = "wall-clock ordering; run by name in CI"]
fn blosclz_and_szx_lead_on_wall_clock() {
    let bytes = metadata_bytes();
    let blosc_t = best_of_five(|| {
        std::hint::black_box(LosslessKind::BloscLz.compress(&bytes));
    });
    let xz_t = best_of_five(|| {
        std::hint::black_box(LosslessKind::Xz.compress(&bytes));
    });
    eprintln!("xz / blosc-lz: {:.2}x", xz_t / blosc_t);
    assert!(blosc_t * 3.0 < xz_t, "blosc {blosc_t:.4}s vs xz {xz_t:.4}s");

    let data = weight_like(1 << 20, 77);
    let timed = |kind: LossyKind| {
        let t0 = Instant::now();
        std::hint::black_box(kind.compress(&data, ErrorBound::Rel(1e-2)));
        t0.elapsed().as_secs_f64()
    };
    // Best of five, the two codecs taking turns, so a busy moment costs
    // both sides or neither.
    let (mut szx_t, mut sz2_t) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        szx_t = szx_t.min(timed(LossyKind::Szx));
        sz2_t = sz2_t.min(timed(LossyKind::Sz2));
    }
    // SZx's lead is its min/max and offset-packing kernels; SZ2's Lorenzo
    // chains run as lane-major vectors. Over ten release runs per level on a
    // two-core Xeon the lead measured 1.48×–1.87× with dispatch pinned to
    // the scalar twins, 2.13×–2.34× at SSE4.1 and 1.86×–2.25× at AVX2, and
    // each level asserts a margin just under its smallest. NEON, never
    // measured, takes AVX2's.
    let level = fedsz_simd::active_level();
    let margin = match level {
        fedsz_simd::Level::Scalar => 1.4,
        fedsz_simd::Level::Sse41 => 2.0,
        _ => 1.75,
    };
    eprintln!("SZ2 / SZx at {level:?}: {:.2}x", sz2_t / szx_t);
    assert!(
        szx_t * margin < sz2_t,
        "SZx {szx_t:.4}s should be {margin}x faster than SZ2 {sz2_t:.4}s"
    );
}
