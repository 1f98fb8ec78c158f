//! A non-finite value costs its own slot and nothing else: with a NaN, +Inf
//! or −Inf planted anywhere in a tensor, every *other* element still comes
//! back within the bound, and the planted value comes back bit-exact.
//!
//! SZ2's Lorenzo predictor feeds each reconstruction into the next
//! prediction, so a NaN literal makes the next prediction NaN; the quantizer
//! has to refuse that prediction (escape to a literal) instead of emitting
//! the centre code with a NaN reconstruction, or the rest of the block
//! decodes as NaN. The sweep runs at every SIMD level the host has, because
//! the batch quantize kernels must make the same decision as the scalar one.

use fedsz_eblc::{value_range, ErrorBound, LossyKind};
use fedsz_tensor::SplitMix64;

/// SZ2's prediction block, interleave width and decode group; SZ3's chunk.
const BLOCK: usize = 256;
const LANES: usize = 8;
const GROUP: usize = 64 * BLOCK;
const SZ3_CHUNK: usize = 4096;

const REL: f64 = 1e-3;
const SPECIALS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
const CODECS: [LossyKind; 4] = [
    LossyKind::Sz2,
    LossyKind::Sz3,
    LossyKind::Szx,
    LossyKind::Zfp,
];

/// Gaussian weights (Lorenzo blocks) with a ramp in every fourth block
/// (regression blocks).
fn tensor(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let noise = rng.normal_with(0.0, 0.05) as f32;
            if (i / BLOCK) % 4 == 3 {
                (i % BLOCK) as f32 * 1e-3 + noise * 1e-3
            } else {
                noise
            }
        })
        .collect()
}

fn round_trip(kind: LossyKind, data: &[f32]) -> Vec<f32> {
    let stream = kind.compress(data, ErrorBound::Rel(REL));
    let back = kind.decompress(&stream).expect("own stream decodes");
    assert_eq!(back.len(), data.len(), "{}", kind.name());
    back
}

fn max_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64 - *y as f64).abs())
        .fold(0.0, f64::max)
}

/// Plant `planted` into `clean`, round-trip through `kind`, and check every
/// slot. `tolerance` is the bound for the strictly bounded codecs and the
/// clean tensor's own realised error for ZFP (fixed precision: it promises
/// no ε, only that a raw block disturbs no other block).
fn check(kind: LossyKind, clean: &[f32], planted: &[(usize, f32)], tolerance: f64, ctx: &str) {
    let mut data = clean.to_vec();
    for &(at, v) in planted {
        data[at] = v;
    }
    let back = round_trip(kind, &data);
    for (i, (&want, &got)) in data.iter().zip(&back).enumerate() {
        if want.is_finite() {
            let err = (want as f64 - got as f64).abs();
            assert!(
                err <= tolerance,
                "{} {ctx}: slot {i} is {got} for {want} (err {err:e} > {tolerance:e}), planted {planted:?}",
                kind.name()
            );
        } else {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} {ctx}: planted slot {i}",
                kind.name()
            );
        }
    }
}

fn tolerance(kind: LossyKind, clean: &[f32]) -> f64 {
    if kind.is_strictly_bounded() {
        REL * value_range(clean) * (1.0 + 1e-6)
    } else {
        max_err(clean, &round_trip(kind, clean))
    }
}

#[test]
fn a_non_finite_value_disturbs_no_other_element() {
    let detected = fedsz_simd::detected_level();
    for level in fedsz_simd::available_levels() {
        assert_eq!(fedsz_simd::override_level(level), level);
        let ctx = format!("{level:?}");

        // Every position of a block, one special per block so all three are
        // swept in one pass: NaN in block 1, +Inf in block 2 (both Lorenzo),
        // −Inf in block 3 (a ramp, the regression candidate).
        let small = tensor(5 * BLOCK + 13, 7);
        for kind in CODECS {
            let tol = tolerance(kind, &small);
            for at in 0..BLOCK {
                let planted: Vec<(usize, f32)> = SPECIALS
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| ((k + 1) * BLOCK + at, v))
                    .collect();
                check(kind, &small, &planted, tol, &ctx);
            }
        }

        // Lane, group and chunk boundaries of a tensor longer than a group.
        let large = tensor(GROUP + 3 * BLOCK + 5, 11);
        let edges = [0, BLOCK, LANES * BLOCK, SZ3_CHUNK, GROUP, large.len() - 1];
        for kind in CODECS {
            let tol = tolerance(kind, &large);
            for edge in edges {
                for at in [edge.wrapping_sub(1), edge, edge + 1] {
                    if at >= large.len() {
                        continue;
                    }
                    for v in SPECIALS {
                        check(kind, &large, &[(at, v)], tol, &ctx);
                    }
                }
            }
            // All three at once, in neighbouring lanes of one interleave set.
            let together = [
                (LANES * BLOCK + 77, SPECIALS[0]),
                ((LANES + 1) * BLOCK + 77, SPECIALS[1]),
                ((LANES + 2) * BLOCK + 78, SPECIALS[2]),
            ];
            check(kind, &large, &together, tol, &ctx);
        }
    }
    fedsz_simd::override_level(detected);
}
