//! FedAvg federated-learning orchestration with FedSZ-compressed client
//! updates — the simulation harness behind the paper's accuracy and
//! communication experiments.
//!
//! A [`run`] executes the full loop of Figure 1: broadcast the
//! global model, train locally on each client's shard, compress each
//! client's state dict with FedSZ, decompress and FedAvg-aggregate at the
//! server, and evaluate on a held-out set. All timing and size
//! measurements needed by Tables I/V and Figures 4–7 are recorded per
//! round.
//!
//! [`run_with`] is the one entry point; its [`RunSpec`] names the
//! [`Transport`] and holds the round policy, faults and codec schedule.
//! One round engine ([`transport`]'s `serve`) and one client turn run under
//! every transport: [`Transport::InProcess`] takes each turn on the
//! collector thread; [`Transport::Channel`] and [`Transport::Tcp`] ([`net`],
//! CRC-32-checked [`wire`] frames, reconnect with backoff) give every
//! client an OS thread. With the same seeds all three produce bit-identical
//! models. [`serve_tcp`] and [`run_tcp_client`] split a TCP run in two.
//!
//! The engine is fault-tolerant: corrupt, dead, and straggling clients are
//! counted per round ([`RoundMetrics::faults`]) and excluded from the
//! aggregate, which runs over the quorum of valid on-time updates.
//! [`fault::FaultPlan`] injects such failures deterministically — on the
//! loopback too, where a faulted client really produces the bad bytes and
//! the server really refuses them — and [`error::FlError`] is the typed
//! alternative to the server panicking.
//!
//! The round loop is also crash-safe: with a [`FlConfig::checkpoint_dir`]
//! set, every completed round can be persisted as an atomic, CRC-32-trailed
//! checkpoint ([`checkpoint`]), and a server restarted with
//! [`FlConfig::resume`] continues from the newest valid one to a
//! bit-identical final model. Decoded updates are semantically validated
//! ([`validate`]) against the broadcast model before FedAvg; mismatches are
//! quarantined rather than aggregated.
//!
//! Server-side decode + validate runs on a bounded worker pool
//! ([`ingest`], sized by [`FlConfig::ingest_workers`]) while the collector
//! keeps draining the transport; each outcome settles as it finishes and
//! folds into a streaming [`aggregate::StreamingFedAvg`] accumulator, so
//! the server holds O(model) memory — never O(cohort × model). The
//! accumulator is an exact fixed-point superaccumulator, so completion
//! order cannot change the result: any worker count, including 0, the
//! serial path, produces the same models and counters and differs only in
//! wall time.
//!
//! Beyond the paper's four-client cross-silo testbed, [`sampling`] scales
//! the loop to the cross-device regime: a server registers a large
//! [`FlConfig::population`] and trains a per-round cohort of
//! [`FlConfig::sample_fraction`] × population, drawn deterministically from
//! the run seed (resume replays the same cohorts).
//!
//! The server is overload-safe: a per-round ingest memory [`budget::Ledger`]
//! bounds admitted-but-unsettled frame bytes
//! ([`FlConfig::ingest_budget_bytes`]), every inter-thread channel is
//! bounded, and frames that could never fit the budget — or that trickle
//! below [`NetConfig::min_byte_rate`] — are deterministically **shed**
//! (counted in [`fedsz::FaultCounters::shed`], identically on every
//! transport). Shedding is a pure function of `(client, round, frame
//! size)`, never of arrival order, so overloaded runs stay bit-identical
//! across transports and worker counts.

pub mod aggregate;
mod attempt;
pub mod budget;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod ingest;
pub mod net;
pub mod partition;
pub mod robust;
pub mod sampling;
pub mod session;
pub mod sync;
pub mod transport;
pub mod validate;
pub mod wire;

pub use aggregate::StreamingFedAvg;
pub use budget::Ledger;
pub use checkpoint::{config_fingerprint, Checkpoint};
pub use error::FlError;
pub use fault::{FaultKind, FaultPlan};
pub use ingest::{ingest_update, IngestPool};
pub use net::{run_tcp_client, run_tcp_with, serve_tcp, NetConfig};
pub use robust::Aggregation;
pub use session::{run, run_with, FlConfig, FlRunResult, RoundMetrics, SMALL_MODEL_THRESHOLD};
pub use transport::{run_threaded_with, RunSpec, Transport};
pub use validate::{validate_update, UpdateRejection, MAX_SAMPLES};
