//! Strong/weak scaling models of the paper's MPI deployment (Figure 9).
//!
//! The testbed places FL clients on CPU cores of one cluster and emulates a
//! 10 Mbps network. Training runs in parallel across cores; the single
//! server ingests one update at a time, so communication serializes at the
//! server link. Round time for `P` processes hosting `C` clients:
//!
//! ```text
//! T(P) = ceil(C / P) * (t_train + t_compress)      (parallel compute waves)
//!      + C * (bytes / B)                           (serialized ingest)
//!      + C * t_decompress                          (server-side decode)
//! ```
//!
//! Weak scaling pins one client per process (`C = P`); strong scaling fixes
//! `C = 127` and grows `P` — the configurations of Figure 9(a)/(b).

use crate::link::Bandwidth;

/// Per-client cost model for one communication round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientCosts {
    /// Local training time per round, seconds.
    pub train_s: f64,
    /// Compression time per update, seconds (0 without FedSZ).
    pub compress_s: f64,
    /// Server-side decompression time per update, seconds.
    pub decompress_s: f64,
    /// Bytes on the wire per update.
    pub update_bytes: usize,
}

impl ClientCosts {
    /// Costs without compression for an uncompressed update size.
    pub fn uncompressed(train_s: f64, update_bytes: usize) -> Self {
        Self {
            train_s,
            compress_s: 0.0,
            decompress_s: 0.0,
            update_bytes,
        }
    }
}

/// Simulated round time for `clients` spread over `procs` processes.
pub(crate) fn round_time(
    costs: &ClientCosts,
    clients: usize,
    procs: usize,
    bandwidth: Bandwidth,
) -> f64 {
    assert!(procs > 0, "need at least one process");
    if clients == 0 {
        return 0.0;
    }
    let waves = clients.div_ceil(procs) as f64;
    waves * (costs.train_s + costs.compress_s)
        + clients as f64 * bandwidth.transfer_seconds(costs.update_bytes)
        + clients as f64 * costs.decompress_s
}

/// Weak scaling: one client per process.
pub fn weak_round_time(costs: &ClientCosts, procs: usize, bandwidth: Bandwidth) -> f64 {
    round_time(costs, procs, procs, bandwidth)
}

/// Weak-scaling speedup relative to one process doing proportionally less
/// work: `P * T(1) / T(P)` (the "recalculated speedup" of §VII-C).
pub fn weak_speedup(costs: &ClientCosts, procs: usize, bandwidth: Bandwidth) -> f64 {
    let t1 = weak_round_time(costs, 1, bandwidth);
    let tp = weak_round_time(costs, procs, bandwidth);
    procs as f64 * t1 / tp
}

/// Strong scaling: a fixed client population over `procs` processes.
pub fn strong_round_time(
    costs: &ClientCosts,
    clients: usize,
    procs: usize,
    bandwidth: Bandwidth,
) -> f64 {
    round_time(costs, clients, procs, bandwidth)
}

/// Strong-scaling speedup `T(1) / T(P)` for a fixed client population.
pub fn strong_speedup(
    costs: &ClientCosts,
    clients: usize,
    procs: usize,
    bandwidth: Bandwidth,
) -> f64 {
    strong_round_time(costs, clients, 1, bandwidth)
        / strong_round_time(costs, clients, procs, bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs_fedsz() -> ClientCosts {
        // MobileNetV2-scale: 14 MB update compressed ~5.4x, sub-second codec.
        ClientCosts {
            train_s: 5.0,
            compress_s: 0.4,
            decompress_s: 0.3,
            update_bytes: 2_600_000,
        }
    }

    fn costs_raw() -> ClientCosts {
        ClientCosts::uncompressed(5.0, 14_000_000)
    }

    #[test]
    fn weak_scaling_comm_grows_linearly() {
        let bw = Bandwidth::mbps(10.0);
        let t8 = weak_round_time(&costs_raw(), 8, bw);
        let t64 = weak_round_time(&costs_raw(), 64, bw);
        // Communication dominates: 8x the clients ≈ 8x the round time minus
        // the constant compute term.
        let comm_per_client = bw.transfer_seconds(14_000_000);
        assert!((t64 - t8 - 56.0 * comm_per_client).abs() < 1e-6);
    }

    #[test]
    fn weak_speedup_saturates_far_below_ideal() {
        // In the serialized-server model, scaled speedup P·T(1)/T(P) rises
        // toward the asymptote T(1)/t_comm and never approaches the ideal P
        // — the "moderate adaptability" §VII-C describes.
        let bw = Bandwidth::mbps(10.0);
        let c = costs_fedsz();
        let asymptote =
            weak_round_time(&c, 1, bw) / (bw.transfer_seconds(c.update_bytes) + c.decompress_s);
        let mut last = 0.0;
        for procs in [2usize, 8, 32, 128] {
            let s = weak_speedup(&c, procs, bw);
            assert!(s > last, "speedup not monotone at {procs}: {s} vs {last}");
            assert!(s <= asymptote + 1e-9, "{s} above asymptote {asymptote}");
            last = s;
        }
        // At scale the speedup is pinned near the asymptote, far below the
        // ideal P (communication-bound, not compute-bound).
        let s128 = weak_speedup(&c, 128, bw);
        assert!(s128 < 16.0, "s128 {s128} too close to ideal 128");
        // FedSZ's smaller updates buy a higher communication-bound ceiling.
        assert!(weak_speedup(&costs_fedsz(), 128, bw) > weak_speedup(&costs_raw(), 128, bw));
    }

    #[test]
    fn strong_speedup_grows_then_saturates() {
        let bw = Bandwidth::mbps(10.0);
        let s2 = strong_speedup(&costs_fedsz(), 127, 2, bw);
        let s128 = strong_speedup(&costs_fedsz(), 127, 128, bw);
        assert!(s2 < s128);
        // Serialized communication caps the speedup well below 128.
        assert!(s128 < 30.0, "s128 {s128}");
        assert!(s128 > 2.0, "s128 {s128}");
    }

    #[test]
    fn compression_helps_more_at_scale() {
        let bw = Bandwidth::mbps(10.0);
        for procs in [2usize, 16, 128] {
            let raw = weak_round_time(&costs_raw(), procs, bw);
            let fedsz = weak_round_time(&costs_fedsz(), procs, bw);
            assert!(fedsz < raw, "procs {procs}: {fedsz} vs {raw}");
        }
        // Absolute saving grows with the client count.
        let save_small =
            weak_round_time(&costs_raw(), 2, bw) - weak_round_time(&costs_fedsz(), 2, bw);
        let save_large =
            weak_round_time(&costs_raw(), 128, bw) - weak_round_time(&costs_fedsz(), 128, bw);
        assert!(save_large > 10.0 * save_small);
    }

    #[test]
    fn zero_clients_round_is_free() {
        assert_eq!(round_time(&costs_raw(), 0, 4, Bandwidth::mbps(10.0)), 0.0);
    }

    #[test]
    fn waves_model_ceil_division() {
        let bw = Bandwidth::mbps(100_000.0); // make comm negligible
        let c = ClientCosts::uncompressed(1.0, 1);
        // 5 clients on 2 procs = 3 waves of training.
        let t = round_time(&c, 5, 2, bw);
        assert!((t - 3.0).abs() < 1e-3, "{t}");
    }
}
