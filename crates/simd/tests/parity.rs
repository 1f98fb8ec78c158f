//! The same-bits contract, enforced: every kernel, at every dispatch level
//! the host supports, must produce output bit-identical to the scalar
//! reference — across NaNs (multiple payloads), infinities, denormals,
//! signed zeros, bin-edge ties, huge magnitudes, and every length from empty
//! through several non-lane-multiple sizes.
//!
//! All comparisons go through `to_bits()` so `-0.0 == 0.0` and NaN equality
//! cannot mask a divergence. Only the `*_at` entry points are used; the
//! process-global dispatch level is never touched, so these tests are safe
//! under the parallel test runner.

use fedsz_simd::{
    abs_residuals_at, available_levels, cubic_preds_at, from_lane_major_at, linear_preds_at,
    lorenzo_quantize_at, lorenzo_reconstruct_at, midpoint_preds_at, minmax_finite_at,
    pack_offsets_at, quantize_at, reconstruct_at, residual_costs_at, shuffle4_into_at,
    to_lane_major_at, unpack_offsets_at, unshuffle4_into_at, Level, QuantParams,
};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn uniform(&mut self) -> f32 {
        // In [-1, 1).
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
    }
}

/// A value drawn from the set of everything that has ever broken a vector
/// float kernel.
fn hostile_f32(rng: &mut Rng) -> f32 {
    match rng.next() % 16 {
        0 => f32::NAN,
        1 => f32::from_bits(0xFFC0_0001), // negative NaN, nonzero payload
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => f32::from_bits((rng.next() as u32 & 0x007F_FFFF) | 1), // denormal
        7 => f32::MAX,
        8 => f32::MIN_POSITIVE,
        9 => (rng.next() % 64) as f32 * 0.25 - 8.0, // exact multiples of 1/4
        10 => rng.uniform() * 1e6,
        11 => rng.uniform() * 1e-6,
        _ => rng.uniform(),
    }
}

fn hostile_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| hostile_f32(rng)).collect()
}

/// Lengths covering empty, every remainder class of the widest lane count
/// (8 f32 lanes at AVX2), and a few larger sizes.
fn lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=25).collect();
    v.extend([100, 1000, 4099]);
    v
}

fn vector_levels() -> Vec<Level> {
    available_levels()
        .into_iter()
        .filter(|&l| l != Level::Scalar)
        .collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn quantize_parity() {
    let mut rng = Rng::new(0x51AD_BEEF);
    for &abs_eb in &[0.25f64, 1e-3, 1e-7] {
        let p = QuantParams {
            abs_eb,
            bin: 2.0 * abs_eb,
            radius: (1u32 << 15) as f64,
        };
        for len in lengths() {
            let values = hostile_vec(&mut rng, len);
            let preds = hostile_vec(&mut rng, len);
            let mut codes_ref = vec![0u32; len];
            let mut recons_ref = vec![0f32; len];
            quantize_at(
                Level::Scalar,
                &values,
                &preds,
                p,
                &mut codes_ref,
                &mut recons_ref,
            );
            for lvl in vector_levels() {
                let mut codes = vec![u32::MAX; len];
                let mut recons = vec![f32::NAN; len];
                quantize_at(lvl, &values, &preds, p, &mut codes, &mut recons);
                assert_eq!(
                    codes, codes_ref,
                    "codes diverged at {lvl:?} eb={abs_eb} len={len}"
                );
                assert_eq!(
                    bits32(&recons),
                    bits32(&recons_ref),
                    "recons diverged at {lvl:?} eb={abs_eb} len={len}"
                );
            }
        }
    }
}

#[test]
fn quantize_bin_edge_ties() {
    // value - pred landing exactly on (k + 1/2) * bin exercises the
    // round-half-away emulation; bin = 1/2 keeps everything representable.
    let p = QuantParams {
        abs_eb: 0.25,
        bin: 0.5,
        radius: (1u32 << 15) as f64,
    };
    let values: Vec<f32> = (-40..40).map(|k| (k as f32 + 0.5) * 0.5).collect();
    let preds = vec![0.0f32; values.len()];
    let len = values.len();
    let mut codes_ref = vec![0u32; len];
    let mut recons_ref = vec![0f32; len];
    quantize_at(
        Level::Scalar,
        &values,
        &preds,
        p,
        &mut codes_ref,
        &mut recons_ref,
    );
    for lvl in vector_levels() {
        let mut codes = vec![0u32; len];
        let mut recons = vec![0f32; len];
        quantize_at(lvl, &values, &preds, p, &mut codes, &mut recons);
        assert_eq!(codes, codes_ref, "tie codes diverged at {lvl:?}");
        assert_eq!(
            bits32(&recons),
            bits32(&recons_ref),
            "tie recons diverged at {lvl:?}"
        );
    }
}

#[test]
fn lorenzo_quantize_parity() {
    // Every lane count up to one past 32 (whole vectors, a padded last
    // vector, one lane), rows around a block, two corpora: hostile values,
    // and random walks whose steps mostly quantize. In each case one chain
    // holds a non-finite literal followed by finite values: the element
    // after it is predicted from that literal and must escape too.
    let mut rng = Rng::new(0x10E3_2020);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for &abs_eb in &[0.25f64, 1e-3, 1e-7] {
        let p = QuantParams {
            abs_eb,
            bin: 2.0 * abs_eb,
            radius: (1u32 << 15) as f64,
        };
        for lanes in 1..=33 {
            for rows in [1usize, 2, 255, 256] {
                let hostile = hostile_vec(&mut rng, rows * lanes);
                let mut walk = vec![0f32; rows * lanes];
                for lane in 0..lanes {
                    let mut x = rng.uniform();
                    for row in 0..rows {
                        x += rng.uniform() * (4.0 * abs_eb) as f32;
                        walk[row * lanes + lane] = x;
                    }
                }
                for (corpus, mut values_t) in [("hostile", hostile), ("walk", walk)] {
                    let lane = rng.next() as usize % lanes;
                    values_t[lane] = specials[rng.next() as usize % specials.len()];
                    for row in 1..rows {
                        values_t[row * lanes + lane] = rng.uniform();
                    }
                    let ctx = format!("{corpus} eb={abs_eb} lanes={lanes} rows={rows}");
                    let mut codes_ref = vec![u32::MAX; rows * lanes];
                    lorenzo_quantize_at(Level::Scalar, &values_t, lanes, p, &mut codes_ref);
                    assert_eq!(codes_ref[lane], 0, "{ctx}: literal did not escape");
                    if rows > 1 {
                        assert_eq!(
                            codes_ref[lanes + lane],
                            0,
                            "{ctx}: successor did not escape"
                        );
                    }
                    for lvl in vector_levels() {
                        let mut codes = vec![u32::MAX; rows * lanes];
                        lorenzo_quantize_at(lvl, &values_t, lanes, p, &mut codes);
                        assert_eq!(codes, codes_ref, "codes diverged at {lvl:?}, {ctx}");
                    }
                }
            }
        }
    }
}

/// Each of `lanes` lane-major chains stepped on its own, as the decoder's
/// block loop does: a zero code takes its literal, any other code
/// `(prev as f64 + (code as f64 - radius) * bin) as f32`, from `prev = 0`.
fn lorenzo_chains_by_hand(
    codes_t: &[u32],
    literals_t: &[f32],
    lanes: usize,
    p: QuantParams,
) -> Vec<f32> {
    let mut out = vec![0f32; codes_t.len()];
    for lane in 0..lanes {
        let mut prev = 0f32;
        let mut at = lane;
        while at < codes_t.len() {
            prev = if codes_t[at] == 0 {
                literals_t[at]
            } else {
                (prev as f64 + (codes_t[at] as f64 - p.radius) * p.bin) as f32
            };
            out[at] = prev;
            at += lanes;
        }
    }
    out
}

#[test]
fn lorenzo_reconstruct_parity() {
    // Lane counts 1..=35: whole vectors, a last vector short of W64 (2 or
    // 4), and more chains than one group of eight vectors (16 at SSE4.1 and
    // NEON, 32 at AVX2); rows 1, 2, 37 (with one lane, a tensor's short
    // last block) and 256. Escapes in the first and last row, in the first
    // and last lane of every vector at either width, and scattered, with
    // finite, signed-zero, infinite and NaN literals (quiet, with payloads:
    // the contract lets a signaling NaN come back quiet). Also a corpus
    // without any escape, which takes the kernel's other step.
    let mut rng = Rng::new(0x10E3_DEC0);
    let literal_pool = [
        1.5f32,
        -0.0,
        0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xFFC0_0001),
        f32::from_bits(0x7FC1_2345),
        3.0e38,
        f32::from_bits(0x8000_0007),
    ];
    for &abs_eb in &[0.25f64, 1e-3, 1e-7] {
        let p = QuantParams {
            abs_eb,
            bin: 2.0 * abs_eb,
            radius: (1u32 << 15) as f64,
        };
        for lanes in 1..=35 {
            for rows in [1usize, 2, 37, 256] {
                let n = lanes * rows;
                for escapes in [true, false] {
                    let mut codes_t = vec![0u32; n];
                    let mut literals_t = vec![0f32; n];
                    for i in 0..n {
                        let (row, lane) = (i / lanes, i % lanes);
                        let edge_row = row == 0 || row == rows - 1;
                        let edge_lane = matches!(lane % 4, 0 | 3) || lane % 2 == 1;
                        let escape = escapes
                            && ((edge_row && rng.next().is_multiple_of(3))
                                || (edge_lane && row % 17 == 5)
                                || rng.next().is_multiple_of(23));
                        if escape {
                            let pick = rng.next() as usize % literal_pool.len();
                            literals_t[i] = literal_pool[pick];
                        } else if rng.next().is_multiple_of(16) {
                            codes_t[i] = (rng.next() % ((1 << 16) - 1) + 1) as u32;
                        } else {
                            codes_t[i] = (32_768 + rng.next() % 101) as u32 - 50;
                        }
                    }
                    let ctx = format!("eb={abs_eb} lanes={lanes} rows={rows} escapes={escapes}");
                    let want = lorenzo_chains_by_hand(&codes_t, &literals_t, lanes, p);
                    for lvl in available_levels() {
                        // Only the escapes' slots hold anything beforehand.
                        let mut out = vec![f32::from_bits(0x7FA0_0BAD); n];
                        for i in 0..n {
                            if codes_t[i] == 0 {
                                out[i] = literals_t[i];
                            }
                        }
                        lorenzo_reconstruct_at(lvl, &codes_t, lanes, p, &mut out);
                        assert_eq!(bits32(&out), bits32(&want), "diverged at {lvl:?}, {ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn lane_major_copies_parity() {
    // Blocks in a scrambled order across a buffer, lane counts 1..=35 (the
    // tiles' 4 and 8 lanes and every remainder), rows 0..=9 and 256 (every
    // remainder of the tiles' 4 rows): both copies at every level against
    // the scalar twin and against the definition, u32 codes and f32 values
    // with NaN payloads, which move bit for bit.
    let mut rng = Rng::new(0x7A1E_5EED);
    for lanes in 1..=35 {
        for rows in (0..=9).chain([256]) {
            let len = lanes * rows + 11;
            let mut order: Vec<usize> = (0..lanes).collect();
            for i in (1..lanes).rev() {
                order.swap(i, rng.next() as usize % (i + 1));
            }
            let mut starts = vec![0usize; lanes];
            for lane in 0..lanes {
                starts[lane] = 3 + order[lane] * rows;
            }
            let src: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
            let src_f: Vec<f32> = (0..len).map(|_| hostile_f32(&mut rng)).collect();
            let ctx = format!("lanes={lanes} rows={rows}");

            let mut want_t = vec![0u32; lanes * rows];
            for i in 0..rows {
                for lane in 0..lanes {
                    want_t[i * lanes + lane] = src[starts[lane] + i];
                }
            }
            let mut want_back = vec![0u32; len];
            for i in 0..len {
                want_back[i] = !src[i];
            }
            for lane in 0..lanes {
                for i in 0..rows {
                    want_back[starts[lane] + i] = want_t[i * lanes + lane];
                }
            }
            let mut want_f = vec![0f32; lanes * rows];
            to_lane_major_at(Level::Scalar, &src_f, &starts, &mut want_f);
            for lvl in available_levels() {
                let mut got_t = vec![u32::MAX; lanes * rows];
                to_lane_major_at(lvl, &src, &starts, &mut got_t);
                assert_eq!(got_t, want_t, "to_lane_major at {lvl:?}, {ctx}");
                let mut got_back: Vec<u32> = src.iter().map(|&w| !w).collect();
                from_lane_major_at(lvl, &got_t, &starts, &mut got_back);
                assert_eq!(got_back, want_back, "from_lane_major at {lvl:?}, {ctx}");

                let mut got_f = vec![0f32; lanes * rows];
                to_lane_major_at(lvl, &src_f, &starts, &mut got_f);
                assert_eq!(bits32(&got_f), bits32(&want_f), "f32 at {lvl:?}, {ctx}");
                let mut back_f = vec![0f32; len];
                from_lane_major_at(lvl, &got_f, &starts, &mut back_f);
                for lane in 0..lanes {
                    let block = &back_f[starts[lane]..starts[lane] + rows];
                    let orig = &src_f[starts[lane]..starts[lane] + rows];
                    assert_eq!(bits32(block), bits32(orig), "f32 back at {lvl:?}, {ctx}");
                }
            }
        }
    }
}

#[test]
fn reconstruct_parity() {
    let mut rng = Rng::new(0xC0DE_C0DE);
    let p = QuantParams {
        abs_eb: 1e-3,
        bin: 2e-3,
        radius: (1u32 << 15) as f64,
    };
    for len in lengths() {
        let preds = hostile_vec(&mut rng, len);
        let codes: Vec<u32> = (0..len)
            .map(|_| {
                // Mostly in-range codes, with a sprinkling of escapes (0).
                if rng.next().is_multiple_of(8) {
                    0
                } else {
                    (rng.next() % ((1 << 16) - 1) + 1) as u32
                }
            })
            .collect();
        let mut out_ref = vec![0f32; len];
        reconstruct_at(Level::Scalar, &preds, &codes, p, &mut out_ref);
        for lvl in vector_levels() {
            let mut out = vec![f32::NAN; len];
            reconstruct_at(lvl, &preds, &codes, p, &mut out);
            assert_eq!(
                bits32(&out),
                bits32(&out_ref),
                "reconstruct diverged at {lvl:?} len={len}"
            );
        }
    }
}

#[test]
fn linear_preds_parity() {
    let mut rng = Rng::new(0x11EA_51ED);
    for len in lengths() {
        for &i0 in &[0usize, 1, 7, 255] {
            let a = hostile_f32(&mut rng);
            let b = hostile_f32(&mut rng);
            let mut out_ref = vec![0f32; len];
            linear_preds_at(Level::Scalar, a, b, i0, &mut out_ref);
            for lvl in vector_levels() {
                let mut out = vec![f32::NAN; len];
                linear_preds_at(lvl, a, b, i0, &mut out);
                assert_eq!(
                    bits32(&out),
                    bits32(&out_ref),
                    "linear_preds diverged at {lvl:?} len={len} i0={i0}"
                );
            }
        }
    }
}

#[test]
fn midpoint_preds_parity() {
    let mut rng = Rng::new(0x3141_5926);
    for len in lengths() {
        let grid = hostile_vec(&mut rng, len + 1);
        let mut out_ref = vec![0f32; len];
        midpoint_preds_at(Level::Scalar, &grid, &mut out_ref);
        for lvl in vector_levels() {
            let mut out = vec![f32::NAN; len];
            midpoint_preds_at(lvl, &grid, &mut out);
            assert_eq!(
                bits32(&out),
                bits32(&out_ref),
                "midpoint diverged at {lvl:?} len={len}"
            );
        }
    }
}

#[test]
fn cubic_preds_parity() {
    let mut rng = Rng::new(0x2718_2818);
    for len in lengths() {
        let grid = hostile_vec(&mut rng, len + 3);
        let mut out_ref = vec![0f32; len];
        cubic_preds_at(Level::Scalar, &grid, &mut out_ref);
        for lvl in vector_levels() {
            let mut out = vec![f32::NAN; len];
            cubic_preds_at(lvl, &grid, &mut out);
            assert_eq!(
                bits32(&out),
                bits32(&out_ref),
                "cubic diverged at {lvl:?} len={len}"
            );
        }
    }
}

#[test]
fn residual_costs_parity() {
    let mut rng = Rng::new(0x6180_3398);
    for &bin in &[2e-3f64, 0.5, 2e-7] {
        for len in lengths() {
            let values = hostile_vec(&mut rng, len);
            let preds = hostile_vec(&mut rng, len);
            let mut out_ref = vec![0f64; len];
            residual_costs_at(Level::Scalar, &values, &preds, bin, &mut out_ref);
            for lvl in vector_levels() {
                let mut out = vec![f64::NAN; len];
                residual_costs_at(lvl, &values, &preds, bin, &mut out);
                assert_eq!(
                    bits64(&out),
                    bits64(&out_ref),
                    "residual_costs diverged at {lvl:?} bin={bin} len={len}"
                );
            }
        }
    }
}

#[test]
fn abs_residuals_parity() {
    let mut rng = Rng::new(0x1414_2135);
    for len in lengths() {
        let values = hostile_vec(&mut rng, len);
        let preds = hostile_vec(&mut rng, len);
        let mut out_ref = vec![0f64; len];
        abs_residuals_at(Level::Scalar, &values, &preds, &mut out_ref);
        for lvl in vector_levels() {
            let mut out = vec![f64::NAN; len];
            abs_residuals_at(lvl, &values, &preds, &mut out);
            assert_eq!(
                bits64(&out),
                bits64(&out_ref),
                "abs_residuals diverged at {lvl:?} len={len}"
            );
        }
    }
}

#[test]
fn minmax_finite_parity() {
    let mut rng = Rng::new(0x7071_0678);
    for len in lengths() {
        // Hostile blocks (usually non-finite somewhere) and guaranteed-
        // finite blocks with signed-zero ties in varying positions.
        let hostile = hostile_vec(&mut rng, len);
        let finite: Vec<f32> = (0..len)
            .map(|i| match rng.next() % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((rng.next() as u32 & 0x007F_FFFF) | 1),
                3 => -(i as f32),
                _ => rng.uniform() * 100.0,
            })
            .collect();
        for values in [&hostile, &finite] {
            let r = minmax_finite_at(Level::Scalar, values);
            for lvl in vector_levels() {
                let v = minmax_finite_at(lvl, values);
                assert_eq!(
                    v.map(|(a, b)| (a.to_bits(), b.to_bits())),
                    r.map(|(a, b)| (a.to_bits(), b.to_bits())),
                    "minmax diverged at {lvl:?} len={len}"
                );
            }
        }
    }
}

#[test]
fn pack_unpack_offsets_parity() {
    let mut rng = Rng::new(0x0B56_70CE);
    for len in lengths() {
        // Per the SZx contract: finite values, codes bounded far below 2^31.
        let values: Vec<f32> = (0..len)
            .map(|_| match rng.next() % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits((rng.next() as u32 & 0x007F_FFFF) | 1),
                _ => rng.uniform() * 1000.0,
            })
            .collect();
        let min = -1000.0f64;
        let bin = 0.01f64;
        let mut packed_ref = vec![0u32; len];
        pack_offsets_at(Level::Scalar, &values, min, bin, &mut packed_ref);
        for lvl in vector_levels() {
            let mut packed = vec![u32::MAX; len];
            pack_offsets_at(lvl, &values, min, bin, &mut packed);
            assert_eq!(
                packed, packed_ref,
                "pack_offsets diverged at {lvl:?} len={len}"
            );
        }
        let codes: Vec<u32> = (0..len).map(|_| (rng.next() % (1 << 20)) as u32).collect();
        let mut un_ref = vec![0f32; len];
        unpack_offsets_at(Level::Scalar, &codes, min, bin, &mut un_ref);
        for lvl in vector_levels() {
            let mut un = vec![f32::NAN; len];
            unpack_offsets_at(lvl, &codes, min, bin, &mut un);
            assert_eq!(
                bits32(&un),
                bits32(&un_ref),
                "unpack_offsets diverged at {lvl:?} len={len}"
            );
        }
    }
}

#[test]
fn shuffle_unshuffle_parity_and_round_trip() {
    let mut rng = Rng::new(0x5EAF_00D5);
    let mut elem_counts: Vec<usize> = (0..=67).collect();
    elem_counts.extend([100, 1000, 4099]);
    for n in elem_counts {
        let src: Vec<u8> = (0..n * 4).map(|_| rng.next() as u8).collect();
        let mut shuffled_ref = vec![0u8; n * 4];
        shuffle4_into_at(Level::Scalar, &src, &mut shuffled_ref);
        for lvl in vector_levels() {
            let mut shuffled = vec![0xAAu8; n * 4];
            shuffle4_into_at(lvl, &src, &mut shuffled);
            assert_eq!(shuffled, shuffled_ref, "shuffle4 diverged at {lvl:?} n={n}");
            let mut back = vec![0x55u8; n * 4];
            unshuffle4_into_at(lvl, &shuffled, &mut back);
            assert_eq!(
                back, src,
                "unshuffle4({lvl:?}) did not invert shuffle, n={n}"
            );
        }
        let mut back_ref = vec![0u8; n * 4];
        unshuffle4_into_at(Level::Scalar, &shuffled_ref, &mut back_ref);
        assert_eq!(
            back_ref, src,
            "scalar unshuffle4 did not invert shuffle, n={n}"
        );
    }
}
