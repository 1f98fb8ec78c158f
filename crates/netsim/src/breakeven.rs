//! Equation 1 of the paper: when is compression worth it?
//!
//! `0 < t_C + t_D + S'/B_N < S/B_N` — the total time to compress,
//! decompress, and ship the compressed bytes must beat shipping the raw
//! bytes. Figure 8 sweeps `B_N` and finds a crossover near 500 Mbps for
//! AlexNet on a Raspberry Pi 5.

use crate::link::Bandwidth;

/// End-to-end time with compression: `t_C + t_D + S'/B_N`.
pub fn total_time_compressed(
    compress_s: f64,
    decompress_s: f64,
    compressed_bytes: usize,
    bandwidth: Bandwidth,
) -> f64 {
    compress_s + decompress_s + bandwidth.transfer_seconds(compressed_bytes)
}

/// End-to-end time without compression: `S/B_N`.
pub fn total_time_uncompressed(original_bytes: usize, bandwidth: Bandwidth) -> f64 {
    bandwidth.transfer_seconds(original_bytes)
}

/// Equation 1's decision criterion.
pub fn worthwhile(
    compress_s: f64,
    decompress_s: f64,
    original_bytes: usize,
    compressed_bytes: usize,
    bandwidth: Bandwidth,
) -> bool {
    total_time_compressed(compress_s, decompress_s, compressed_bytes, bandwidth)
        < total_time_uncompressed(original_bytes, bandwidth)
}

/// The bandwidth below which compression wins: solving Eqn. 1 for `B_N`
/// gives `B* = 8 (S - S') / (t_C + t_D)` bits per second. Returns `None` if
/// compression never wins (no size reduction, or zero codec time with a
/// reduction — in which case it always wins).
pub fn crossover_bandwidth(
    compress_s: f64,
    decompress_s: f64,
    original_bytes: usize,
    compressed_bytes: usize,
) -> Option<Bandwidth> {
    if compressed_bytes >= original_bytes {
        return None;
    }
    let codec = compress_s + decompress_s;
    if codec <= 0.0 {
        return None; // always worthwhile; no finite crossover
    }
    Some(Bandwidth::bps(
        8.0 * (original_bytes - compressed_bytes) as f64 / codec,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_bandwidth_favors_compression() {
        // 100 MB reduced 10x with 2 s of codec time.
        assert!(worthwhile(
            1.0,
            1.0,
            100_000_000,
            10_000_000,
            Bandwidth::mbps(10.0)
        ));
        // At 10 Gbps the raw transfer takes 0.08 s; codec time dominates.
        assert!(!worthwhile(
            1.0,
            1.0,
            100_000_000,
            10_000_000,
            Bandwidth::mbps(10_000.0)
        ));
    }

    #[test]
    fn crossover_matches_decision() {
        let (tc, td, s, sp) = (0.8, 0.4, 50_000_000usize, 9_000_000usize);
        let b = crossover_bandwidth(tc, td, s, sp).unwrap();
        let below = Bandwidth::bps(b.bits_per_second() * 0.99);
        let above = Bandwidth::bps(b.bits_per_second() * 1.01);
        assert!(worthwhile(tc, td, s, sp, below));
        assert!(!worthwhile(tc, td, s, sp, above));
    }

    #[test]
    fn no_reduction_never_worthwhile() {
        assert!(crossover_bandwidth(0.1, 0.1, 1000, 1000).is_none());
        assert!(!worthwhile(0.1, 0.1, 1000, 1000, Bandwidth::mbps(1.0)));
    }

    #[test]
    fn free_codec_always_worthwhile() {
        assert!(crossover_bandwidth(0.0, 0.0, 1000, 500).is_none());
        assert!(worthwhile(0.0, 0.0, 1000, 500, Bandwidth::mbps(100_000.0)));
    }

    #[test]
    fn paper_scale_crossover_is_hundreds_of_mbps() {
        // AlexNet-scale: 244 MB, ~12x reduction, ~3.2 s compress + ~3 s
        // decompress (Raspberry Pi-class numbers from Table I).
        let b = crossover_bandwidth(3.2, 3.0, 244_000_000, 20_000_000).unwrap();
        let mbps = b.bits_per_second() / 1e6;
        assert!(
            (100.0..1000.0).contains(&mbps),
            "crossover {mbps} Mbps not in the hundreds"
        );
    }
}
