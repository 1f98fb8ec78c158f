//! # FedSZ
//!
//! Reproduction of the FedSZ compression scheme (Wilkins et al., IPDPS
//! 2024): error-bounded lossy compression for federated-learning
//! client→server updates.
//!
//! The pipeline (Figure 1 of the paper):
//!
//! 1. **Partition** the model state dictionary: large weight tensors go to
//!    the lossy path, metadata / non-weight tensors to the lossless path
//!    ([`partition`], Algorithm 1).
//! 2. **Compress** each partition — SZ2 under a relative error bound for
//!    weights, blosc-lz for metadata by default ([`pipeline`]).
//! 3. **Serialize** everything into one self-describing bitstream
//!    ([`pipeline::CompressedUpdate`]).
//!
//! The receiving side reverses the framing and rebuilds the state dict; the
//! lossless partition is bit-exact and the lossy partition satisfies the
//! configured error bound.
//!
//! ```
//! use fedsz::{compress, decompress, FedSzConfig};
//! use fedsz_tensor::{StateDict, Tensor, TensorKind};
//!
//! let mut sd = StateDict::new();
//! sd.insert(
//!     "fc.weight",
//!     TensorKind::Weight,
//!     Tensor::new(vec![64, 64], (0..64 * 64).map(|i| (i as f32 * 0.1).sin() * 0.05).collect()),
//! );
//! let update = compress(&sd, &FedSzConfig::default());
//! let restored = decompress(&update).unwrap();
//! assert!(sd.max_abs_diff(&restored) < 1e-2);
//! ```
//!
//! [`privacy`] implements the error-distribution analysis behind the
//! differential-privacy observation of §VII-D.

pub mod adaptive;
pub mod partition;
pub mod pipeline;
pub mod privacy;
pub mod quality;
pub mod sparsify;
pub mod stats;

pub use adaptive::BoundSchedule;
pub use fedsz_eblc::{ErrorBound, LossyKind};
pub use fedsz_entropy::CodecError;
pub use fedsz_lossless::LosslessKind;
pub use partition::{census, route_of, PartitionCensus, Route, DEFAULT_THRESHOLD};
pub use pipeline::{
    compress, compress_with_stats, decompress, decompress_with_stats, CompressedUpdate, FedSzConfig,
};
pub use privacy::{compression_errors, error_histogram, ks_distance, laplace_fit, LaplaceFit};
pub use quality::ReconstructionQuality;
pub use sparsify::{SparseUpdate, TopK};
pub use stats::{EntryStats, FaultCounters, QuarantineReasons, SuspectReasons, UpdateStats};
