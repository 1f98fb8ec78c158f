//! Typed failures of a federated run — the replacement for the seed's
//! server-side panics on corrupt, dead, or straggling clients.

/// Why a federated run could not complete.
///
/// Individual client failures (a corrupt update, a missed deadline, a dead
/// channel) are *not* errors: the server aggregates over the surviving
/// quorum and records them in
/// [`RoundMetrics::faults`](crate::session::RoundMetrics). An `FlError` is
/// returned only when a round cannot legally complete at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlError {
    /// Fewer valid updates than the configured minimum quorum arrived, even
    /// after the configured number of retries.
    QuorumNotMet {
        /// Round that starved.
        round: usize,
        /// Valid updates received on the final attempt.
        delivered: usize,
        /// Minimum required by the transport configuration.
        required: usize,
    },
    /// Every client channel disconnected, so no round can make progress.
    AllClientsDead {
        /// Round at which the last client was lost.
        round: usize,
    },
    /// Overload protection shed so many uplinks that the round starved:
    /// the final attempt ended below quorum with at least one update
    /// refused by the ingest budget or the minimum byte-rate enforcer.
    /// Distinct from [`QuorumNotMet`](FlError::QuorumNotMet) so operators
    /// can tell "clients failed" from "the server turned clients away".
    Overloaded {
        /// Round that starved under shedding.
        round: usize,
        /// Updates shed on the final attempt.
        shed: usize,
        /// Valid updates received on the final attempt.
        delivered: usize,
        /// Minimum required by the transport configuration.
        required: usize,
    },
    /// The TCP transport could not start or keep the session alive:
    /// binding the listener failed, no client joined within the join
    /// timeout, or a client-side option was invalid.
    Transport(String),
    /// Checkpoint persistence or recovery failed: the directory is not
    /// writable, an atomic rename failed, or resume was requested but no
    /// valid checkpoint could be loaded.
    Checkpoint(String),
    /// The run was stopped by the [`FaultPlan`](crate::fault::FaultPlan)
    /// server-kill hook after broadcasting `round` — the test double for a
    /// SIGKILL mid-round. Rounds before `round` are already checkpointed;
    /// `round` itself was lost in flight.
    ServerKilled {
        /// Round whose broadcast went out before the kill.
        round: usize,
    },
    /// Aggregation refused the update set: empty, a structure mismatch
    /// against the accumulator's reference model, a non-finite value, a
    /// hostile sample count, or a total-weight overflow. The typed
    /// replacement for the seed `fedavg`'s asserts, which fired inside a
    /// Rayon worker and aborted the whole server.
    Aggregate(String),
}

impl std::fmt::Display for FlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlError::QuorumNotMet {
                round,
                delivered,
                required,
            } => write!(
                f,
                "round {round}: quorum not met ({delivered} valid updates, {required} required)"
            ),
            FlError::AllClientsDead { round } => {
                write!(f, "round {round}: all clients disconnected")
            }
            FlError::Overloaded {
                round,
                shed,
                delivered,
                required,
            } => write!(
                f,
                "round {round}: overloaded — {shed} updates shed, quorum not met \
                 ({delivered} valid updates, {required} required)"
            ),
            FlError::Transport(m) => write!(f, "transport error: {m}"),
            FlError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            FlError::ServerKilled { round } => {
                write!(f, "server killed after broadcasting round {round}")
            }
            FlError::Aggregate(m) => write!(f, "aggregation failed: {m}"),
        }
    }
}

impl std::error::Error for FlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FlError::QuorumNotMet {
            round: 3,
            delivered: 1,
            required: 2,
        };
        let s = e.to_string();
        assert!(
            s.contains("round 3") && s.contains('1') && s.contains('2'),
            "{s}"
        );
        assert!(FlError::AllClientsDead { round: 0 }
            .to_string()
            .contains("disconnected"));
        let o = FlError::Overloaded {
            round: 2,
            shed: 3,
            delivered: 1,
            required: 4,
        };
        let s = o.to_string();
        assert!(
            s.contains("overloaded") && s.contains("3 updates shed") && s.contains("round 2"),
            "{s}"
        );
        let a = FlError::Aggregate("structure mismatch".into());
        assert!(a.to_string().contains("aggregation failed"), "{a}");
        assert!(a.to_string().contains("structure mismatch"), "{a}");
    }
}
