//! From-scratch CPU training substrate for the FedSZ reproduction.
//!
//! Implements the pieces a federated-learning experiment needs and nothing
//! more: dense/conv/batch-norm/pooling layers with hand-written backprop
//! ([`conv`], [`dense`], [`norm`], [`pool`]), momentum SGD, softmax
//! cross-entropy ([`loss`]), seeded synthetic datasets with the paper's
//! input geometries ([`data`]), and scaled trainable analogues of AlexNet /
//! MobileNetV2 / ResNet50 ([`models`]). Everything is deterministic given a
//! seed and runs on the calling thread (an FL run's parallelism is one
//! thread per client, above this crate). The conv and dense layers share one
//! packed, register-blocked matrix product ([`math`]) whose summation order
//! is fixed, so the trained bits do not depend on how it blocks.

pub mod act;
pub mod conv;
pub mod data;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod math;
pub mod models;
pub mod network;
pub mod norm;
pub mod pool;

pub use data::{Dataset, DatasetKind};
pub use models::ModelArch;
pub use network::Network;
