//! The bandwidth model.

/// Network bandwidth in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From bits per second.
    ///
    /// # Panics
    /// Panics unless positive and finite.
    pub fn bps(bits_per_second: f64) -> Self {
        assert!(
            bits_per_second.is_finite() && bits_per_second > 0.0,
            "invalid bandwidth {bits_per_second}"
        );
        Self(bits_per_second)
    }

    /// From megabits per second (the unit the paper quotes: 10 Mbps edge,
    /// 10 Gbps datacenter).
    pub fn mbps(v: f64) -> Self {
        Self::bps(v * 1e6)
    }

    /// From gigabits per second.
    pub fn gbps(v: f64) -> Self {
        Self::bps(v * 1e9)
    }

    /// Bits per second.
    pub fn bits_per_second(self) -> f64 {
        self.0
    }

    /// Seconds to move `bytes` at this bandwidth (no latency).
    pub fn transfer_seconds(self, bytes: usize) -> f64 {
        bytes as f64 * 8.0 / self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_times_scale_linearly() {
        let bw = Bandwidth::mbps(10.0);
        // 10 Mbps moves 1.25 MB per second.
        assert!((bw.transfer_seconds(1_250_000) - 1.0).abs() < 1e-9);
        assert!((bw.transfer_seconds(2_500_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_motivating_example() {
        // §I: a 10 GB update over 10 Mbps takes ~150 minutes.
        let secs = Bandwidth::mbps(10.0).transfer_seconds(10_000_000_000);
        assert!((secs / 60.0 - 133.3).abs() < 1.0, "{} min", secs / 60.0);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(
            Bandwidth::gbps(1.0).bits_per_second(),
            Bandwidth::mbps(1000.0).bits_per_second()
        );
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        Bandwidth::bps(0.0);
    }
}
