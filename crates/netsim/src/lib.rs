//! Network simulation for the FedSZ evaluation.
//!
//! The paper emulates constrained bandwidth by sleeping proportionally to
//! `bytes / bandwidth` inside MPI (§VI-C). This crate computes the same
//! seconds without sleeping, which is deterministic and does not waste
//! wall time: [`Bandwidth`] models transfers, [`breakeven`] implements
//! the Eqn.-1 worthwhileness criterion behind Figure 8, and [`scaling`]
//! models the MPI-style strong/weak scaling placements of Figure 9.

pub mod breakeven;
pub mod link;
pub mod scaling;

pub use breakeven::{crossover_bandwidth, total_time_compressed, worthwhile};
pub use link::Bandwidth;
