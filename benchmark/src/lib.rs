//! The repo's benchmark: six named workloads, the end-to-end metrics a user
//! of the system sees, and an outside-in layer trace. Every layer is reached
//! through `pub` items only; see `README.md` for the vocabulary.

pub mod calibrate;
pub mod compare;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
