//! Property-based tests (proptest) over the compression stack's core
//! invariants: lossless codecs are bit-exact on arbitrary bytes, strict
//! EBLCs honour their bound on arbitrary finite floats, the FedSZ
//! pipeline preserves arbitrary state-dict structure, and the aggregator's
//! 128-bit window lands on the bits of its 384-bit form.

use fedsz::{compress, decompress, FedSzConfig};
use fedsz_eblc::{value_range, ErrorBound, LossyKind};
use fedsz_lossless::LosslessKind;
use fedsz_tensor::{StateDict, Tensor, TensorKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lossless_codecs_round_trip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for kind in LosslessKind::all() {
            let c = kind.compress(&data);
            prop_assert_eq!(&kind.decompress(&c).unwrap(), &data, "{}", kind.name());
        }
    }

    #[test]
    fn lossless_codecs_round_trip_repetitive_bytes(
        pattern in proptest::collection::vec(any::<u8>(), 1..64),
        repeats in 1usize..200,
    ) {
        let data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * repeats).collect();
        for kind in LosslessKind::all() {
            let c = kind.compress(&data);
            prop_assert_eq!(&kind.decompress(&c).unwrap(), &data, "{}", kind.name());
            // Periodic data must actually compress once it is long enough.
            if data.len() > 2048 {
                prop_assert!(c.len() < data.len(), "{} failed to compress", kind.name());
            }
        }
    }

    #[test]
    fn strict_eblcs_honour_absolute_bounds(
        values in proptest::collection::vec(-1000.0f32..1000.0, 1..2048),
        eb_exp in -6i32..0,
    ) {
        let eb = 10f64.powi(eb_exp);
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            let c = kind.compress(&values, ErrorBound::Abs(eb));
            let d = kind.decompress(&c).unwrap();
            prop_assert_eq!(d.len(), values.len());
            for (a, b) in values.iter().zip(&d) {
                prop_assert!(
                    ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                    "{}: {} vs {} at eb {}", kind.name(), a, b, eb
                );
            }
        }
    }

    #[test]
    fn strict_eblcs_honour_relative_bounds(
        values in proptest::collection::vec(-5.0f32..5.0, 2..2048),
    ) {
        let rel = 1e-2;
        let bound = rel * value_range(&values);
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            let c = kind.compress(&values, ErrorBound::Rel(rel));
            let d = kind.decompress(&c).unwrap();
            for (a, b) in values.iter().zip(&d) {
                prop_assert!(
                    ((a - b).abs() as f64) <= bound * (1.0 + 1e-6) || a == b,
                    "{}: {} vs {}", kind.name(), a, b
                );
            }
        }
    }

    #[test]
    fn eblcs_accept_non_finite_values(
        mut values in proptest::collection::vec(-1.0f32..1.0, 16..512),
        nan_at in 2usize..16,
    ) {
        // Distinct indices: the Inf must not clobber the NaN.
        values[nan_at] = f32::NAN;
        values[nan_at / 2] = f32::INFINITY;
        for kind in LossyKind::all() {
            let c = kind.compress(&values, ErrorBound::Rel(1e-2));
            let d = kind.decompress(&c).unwrap();
            prop_assert_eq!(d.len(), values.len(), "{}", kind.name());
            if kind.is_strictly_bounded() {
                prop_assert!(d[nan_at].is_nan(), "{} lost a NaN", kind.name());
            }
        }
    }

    #[test]
    fn fedsz_preserves_arbitrary_state_dict_structure(
        sizes in proptest::collection::vec(1usize..3000, 1..8),
        seed in any::<u64>(),
    ) {
        let mut rng = fedsz_tensor::SplitMix64::new(seed);
        let mut sd = StateDict::new();
        for (i, &n) in sizes.iter().enumerate() {
            let data: Vec<f32> = (0..n).map(|_| rng.normal_with(0.0, 0.1) as f32).collect();
            let kind = if i % 3 == 0 { TensorKind::Weight } else { TensorKind::Bias };
            let suffix = if i % 3 == 0 { "weight" } else { "bias" };
            sd.insert(format!("layer{i}.{suffix}"), kind, Tensor::from_vec(data));
        }
        let cfg = FedSzConfig { threshold: 256, ..FedSzConfig::default() };
        let back = decompress(&compress(&sd, &cfg)).unwrap();
        prop_assert_eq!(back.len(), sd.len());
        for (a, b) in sd.entries().iter().zip(back.entries()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.tensor.shape(), b.tensor.shape());
        }
    }

    #[test]
    fn fedavg_stays_within_client_hull(
        a in proptest::collection::vec(-10.0f32..10.0, 32),
        b in proptest::collection::vec(-10.0f32..10.0, 32),
        wa in 1usize..100,
        wb in 1usize..100,
    ) {
        let mk = |v: &[f32]| {
            let mut sd = StateDict::new();
            sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(v.to_vec()));
            sd
        };
        let mut acc = fedsz_fl::StreamingFedAvg::new(&mk(&a));
        acc.fold(&mk(&a), wa).unwrap();
        acc.fold(&mk(&b), wb).unwrap();
        let agg = acc.finish().unwrap();
        let out = agg.get("w.weight").unwrap().data();
        for i in 0..32 {
            let lo = a[i].min(b[i]) - 1e-4;
            let hi = a[i].max(b[i]) + 1e-4;
            prop_assert!(out[i] >= lo && out[i] <= hi, "index {}: {} outside [{}, {}]", i, out[i], lo, hi);
        }
    }

    /// The narrow (128-bit window) fold against the 384-bit limb path,
    /// through the public API only. Both sides fold the multiset `M` to
    /// the same exact sum over the same total weight:
    ///
    /// * narrow side — `M` plus an all-zero update of weight 2 (zeros
    ///   never touch a tensor, so `M` alone decides the form);
    /// * limb side — a forcing update `F` of weight 1 first (each tensor
    ///   holds 2^100 and 2^-100, so it is promoted before anything is
    ///   stored), then `M`, then `−F` of weight 1, which cancels `F`
    ///   exactly. Every value of `M` goes through the 384-bit code.
    #[test]
    fn windowed_fold_matches_the_384_bit_path(
        raw in proptest::collection::vec(any::<u32>(), 8..520),
        spread_pick in 0usize..8,
        low_pick in any::<u32>(),
        weight_class in 0usize..3,
        weight_picks in proptest::collection::vec(0usize..4, 64),
    ) {
        use fedsz_fl::{StreamingFedAvg, MAX_SAMPLES};

        let mk = |band: &[f32], free: &[f32]| {
            let mut sd = StateDict::new();
            sd.insert("band.weight", TensorKind::Weight, Tensor::from_vec(band.to_vec()));
            sd.insert("free.weight", TensorKind::Weight, Tensor::from_vec(free.to_vec()));
            sd
        };
        let spread = [0u32, 1, 8, 16, 40, 69, 120, 253][spread_pick];
        let low = low_pick % (254 - spread);
        let weights = [
            [1usize, 2, 3, 600],
            [1, 600, 1 << 16, 1 << 20],
            [1, 600, MAX_SAMPLES - 1, MAX_SAMPLES],
        ][weight_class];
        let updates: Vec<(StateDict, usize)> = raw
            .chunks_exact(8)
            .zip(&weight_picks)
            .map(|(bits, &w)| {
                // Four values with exponents confined to [low, low+spread]…
                let band: Vec<f32> = bits[..4]
                    .iter()
                    .map(|&b| {
                        let biased = 1 + low + (b >> 8) % (spread + 1);
                        f32::from_bits((b & 0x807F_FFFF) | (biased << 23))
                    })
                    .collect();
                // …and four raw bit patterns, non-finite ones made subnormal.
                let free: Vec<f32> = bits[4..]
                    .iter()
                    .map(|&b| {
                        let v = f32::from_bits(b);
                        if v.is_finite() { v } else { f32::from_bits(b & 0x807F_FFFF) }
                    })
                    .collect();
                (mk(&band, &free), weights[w])
            })
            .collect();

        let fold = |order: &[&(StateDict, usize)]| {
            let mut acc = StreamingFedAvg::new(&order[0].0);
            for (sd, n) in order {
                acc.fold(sd, *n).unwrap();
            }
            let wide = acc.wide_tensors();
            let bytes = acc.accumulator_bytes();
            (acc.finish().unwrap().to_bytes(), wide, bytes)
        };

        let big = f32::from_bits((100 + 127) << 23);
        let small = f32::from_bits((127 - 100) << 23);
        let force = (mk(&[big, small, 0.0, -big], &[-small, big, small, 0.0]), 1);
        let unforce = (mk(&[-big, -small, 0.0, big], &[small, -big, -small, 0.0]), 1);
        let zeros = (mk(&[0.0; 4], &[-0.0; 4]), 2);

        let mut limb_order = vec![&force];
        limb_order.extend(&updates);
        limb_order.push(&unforce);
        let (want, wide, bytes) = fold(&limb_order);
        prop_assert_eq!(wide, 2, "the forcing update must promote both tensors");
        prop_assert_eq!(bytes, 8 * 48 + 8 * 4);

        let mut narrow_order: Vec<&(StateDict, usize)> = updates.iter().collect();
        narrow_order.push(&zeros);
        let (forward, wide_fwd, bytes_fwd) = fold(&narrow_order);
        prop_assert_eq!(&forward, &want, "forward, {} tensors promoted", wide_fwd);
        prop_assert_eq!(bytes_fwd, (2 - wide_fwd) * 4 * 16 + wide_fwd * 4 * 48 + 8 * 4);
        narrow_order.reverse();
        let (reverse, wide_rev, _) = fold(&narrow_order);
        prop_assert_eq!(&reverse, &want, "reverse, {} tensors promoted", wide_rev);
        // `free` is raw bit patterns and may promote. `band` may not when
        // growth is small: its window keeps 70 bits below and 32 above the
        // first update's top, and here the total weight stays under 2^16.
        if weight_class == 0 && spread <= 16 {
            prop_assert!(wide_fwd <= 1 && wide_rev <= 1);
        }
    }
}
