//! Size and timing bookkeeping for compressed updates — the raw material of
//! Tables I/II/V and Figures 6–8.

use crate::partition::Route;

/// Per-entry compression outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
// fedsz-lint: allow(dead-pub) -- the element type of `UpdateStats::entries`, which the benchmark and the suite read
pub struct EntryStats {
    /// State-dict entry name.
    pub name: String,
    /// Which partition the entry was routed to.
    pub route: Route,
    /// Uncompressed size in bytes (`numel * 4`).
    pub uncompressed: usize,
    /// Compressed payload size in bytes (excluding frame header).
    pub compressed: usize,
}

impl EntryStats {
    /// Per-entry compression ratio.
    pub fn ratio(&self) -> f64 {
        if self.compressed == 0 {
            return 0.0;
        }
        self.uncompressed as f64 / self.compressed as f64
    }
}

/// Per-round client-participation outcome under partial participation.
///
/// A fault-tolerant server aggregates over whichever subset of clients
/// delivered a valid update in time; these counters make the degradation
/// observable round by round. `dropped` counts clients excluded up front
/// because their channel was already gone. On a round settled by its first
/// attempt the seven counters sum to the clients it sampled. A quorum retry
/// breaks that sum: `rejected`, `quarantined`, `shed` and `late` add up over
/// all attempts, `delivered`, `suspected` and `dropped` count the last one
/// (2 clients, 1 rejected, then both delivered on the retry: 2 + 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Clients whose valid update made it into the aggregate.
    pub delivered: usize,
    /// Clients whose update arrived but failed validation (corrupt payload).
    pub rejected: usize,
    /// Clients whose update decoded cleanly but was rejected by semantic
    /// validation before aggregation (non-finite tensors, wrong shapes,
    /// hostile sample counts).
    pub quarantined: usize,
    /// Clients whose update was well-formed and on time but was excluded
    /// from the aggregate by the robust-aggregation screen (norm outlier
    /// under clipped mean, majority-trimmed under trimmed mean).
    pub suspected: usize,
    /// Clients whose update was refused by overload protection before its
    /// body was buffered or decoded: the announced frame exceeded the
    /// round's ingest budget, or the connection fell below the minimum
    /// byte rate mid-frame.
    pub shed: usize,
    /// Clients that missed the round deadline (stragglers and clients that
    /// died mid-round without closing their channel in time).
    pub late: usize,
    /// Clients excluded before the round started because they are known
    /// dead (their downlink channel is disconnected).
    pub dropped: usize,
}

impl FaultCounters {
    /// Counters for a fully healthy round of `n` clients.
    pub fn full(n: usize) -> Self {
        Self {
            delivered: n,
            ..Self::default()
        }
    }

    /// Failures over every attempt of the round (see the type docs).
    pub fn failed(&self) -> usize {
        self.rejected + self.quarantined + self.suspected + self.shed + self.late + self.dropped
    }

    /// `delivered` plus [`failed`](Self::failed): the clients sampled, or
    /// more after a quorum retry (see the type docs).
    pub fn population(&self) -> usize {
        self.delivered + self.failed()
    }

    /// `true` when every configured client delivered a valid update.
    pub fn is_clean(&self) -> bool {
        self.failed() == 0
    }
}

impl std::ops::AddAssign for FaultCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.delivered += rhs.delivered;
        self.rejected += rhs.rejected;
        self.quarantined += rhs.quarantined;
        self.suspected += rhs.suspected;
        self.shed += rhs.shed;
        self.late += rhs.late;
        self.dropped += rhs.dropped;
    }
}

/// Per-reason breakdown of the `quarantined` counter: which semantic
/// validation gate rejected the decoded update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineReasons {
    /// The update carried NaN or infinite tensor values.
    pub non_finite: usize,
    /// The update's entry names, kinds, or shapes disagreed with the
    /// broadcast model.
    pub wrong_shape: usize,
    /// The update announced a hostile FedAvg sample count (zero or
    /// overflow-scale).
    pub bad_count: usize,
}

impl QuarantineReasons {
    /// Total quarantined updates across all reasons.
    pub fn total(&self) -> usize {
        self.non_finite + self.wrong_shape + self.bad_count
    }
}

impl std::ops::AddAssign for QuarantineReasons {
    fn add_assign(&mut self, rhs: Self) {
        self.non_finite += rhs.non_finite;
        self.wrong_shape += rhs.wrong_shape;
        self.bad_count += rhs.bad_count;
    }
}

/// Per-reason breakdown of the `suspected` counter: which robust-
/// aggregation screen excluded the well-formed update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuspectReasons {
    /// The update's L2 distance from the broadcast model exceeded the
    /// clipped-mean threshold (median-of-norms x clip factor).
    pub norm_outlier: usize,
    /// The trimmed mean discarded the update's value on a strict majority
    /// of model coordinates.
    pub trim_eliminated: usize,
}

impl SuspectReasons {
    /// Total suspected updates across all reasons.
    pub fn total(&self) -> usize {
        self.norm_outlier + self.trim_eliminated
    }
}

/// Whole-update compression outcome.
#[derive(Debug, Clone, PartialEq)]
// fedsz-lint: allow(dead-pub) -- returned by `compress_with_stats`, which the bench and benchmark call
pub struct UpdateStats {
    /// Outcome per entry, in state-dict order.
    pub entries: Vec<EntryStats>,
    /// Uncompressed state-dict size in bytes.
    pub total_uncompressed: usize,
    /// Serialized update size in bytes (including all frame headers).
    pub total_compressed: usize,
    /// Wall-clock compression time.
    pub compress_seconds: f64,
    /// Wall-clock decompression time (0 until measured).
    pub decompress_seconds: f64,
}

impl UpdateStats {
    /// End-to-end compression ratio (what Table V reports).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_compressed == 0 {
            return 0.0;
        }
        self.total_uncompressed as f64 / self.total_compressed as f64
    }

    /// Compression throughput in MB/s over the uncompressed size (what
    /// Table I's throughput column reports).
    pub fn throughput_mb_s(&self) -> f64 {
        if self.compress_seconds <= 0.0 {
            return 0.0;
        }
        self.total_uncompressed as f64 / 1e6 / self.compress_seconds
    }

    /// Bytes routed to a given partition (uncompressed, compressed).
    pub fn partition_bytes(&self, route: Route) -> (usize, usize) {
        self.entries
            .iter()
            .filter(|e| e.route == route)
            .fold((0, 0), |(u, c), e| (u + e.uncompressed, c + e.compressed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UpdateStats {
        UpdateStats {
            entries: vec![
                EntryStats {
                    name: "w".into(),
                    route: Route::Lossy,
                    uncompressed: 1000,
                    compressed: 100,
                },
                EntryStats {
                    name: "b".into(),
                    route: Route::Lossless,
                    uncompressed: 40,
                    compressed: 35,
                },
            ],
            total_uncompressed: 1040,
            total_compressed: 150,
            compress_seconds: 0.5,
            decompress_seconds: 0.0,
        }
    }

    #[test]
    fn ratios_and_throughput() {
        let s = sample();
        assert!((s.compression_ratio() - 1040.0 / 150.0).abs() < 1e-12);
        assert!((s.throughput_mb_s() - 1040.0 / 1e6 / 0.5).abs() < 1e-12);
        assert!((s.entries[0].ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn partition_bytes_split() {
        let s = sample();
        assert_eq!(s.partition_bytes(Route::Lossy), (1000, 100));
        assert_eq!(s.partition_bytes(Route::Lossless), (40, 35));
    }

    #[test]
    fn shed_counts_as_failure() {
        let f = FaultCounters {
            delivered: 3,
            shed: 2,
            ..FaultCounters::default()
        };
        assert_eq!(f.failed(), 2);
        assert_eq!(f.population(), 5);
        assert!(!f.is_clean());
        assert!(FaultCounters::full(4).is_clean());
    }

    #[test]
    fn suspected_counts_as_failure() {
        let f = FaultCounters {
            delivered: 5,
            suspected: 3,
            ..FaultCounters::default()
        };
        assert_eq!(f.failed(), 3);
        assert_eq!(f.population(), 8);
        assert!(!f.is_clean());
    }

    #[test]
    fn reason_breakdowns_total() {
        let q = QuarantineReasons {
            non_finite: 1,
            wrong_shape: 2,
            bad_count: 3,
        };
        assert_eq!(q.total(), 6);
        let s = SuspectReasons {
            norm_outlier: 2,
            trim_eliminated: 1,
        };
        assert_eq!(s.total(), 3);
        assert_eq!(QuarantineReasons::default().total(), 0);
        assert_eq!(SuspectReasons::default().total(), 0);
    }

    #[test]
    fn counters_accumulate_field_by_field() {
        let mut f = FaultCounters::full(3);
        f += FaultCounters {
            delivered: 1,
            rejected: 2,
            quarantined: 3,
            suspected: 4,
            shed: 5,
            late: 6,
            dropped: 7,
        };
        assert_eq!((f.delivered, f.rejected, f.quarantined), (4, 2, 3));
        assert_eq!((f.suspected, f.shed, f.late, f.dropped), (4, 5, 6, 7));
        let mut q = QuarantineReasons {
            non_finite: 1,
            wrong_shape: 2,
            bad_count: 3,
        };
        q += q;
        assert_eq!((q.non_finite, q.wrong_shape, q.bad_count), (2, 4, 6));
    }

    #[test]
    fn degenerate_cases() {
        let mut s = sample();
        s.total_compressed = 0;
        s.compress_seconds = 0.0;
        assert_eq!(s.compression_ratio(), 0.0);
        assert_eq!(s.throughput_mb_s(), 0.0);
    }
}
