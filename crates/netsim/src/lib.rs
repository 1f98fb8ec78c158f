//! Network simulation for the FedSZ evaluation.
//!
//! The paper emulates constrained bandwidth by sleeping proportionally to
//! `bytes / bandwidth` inside MPI (§VI-C). This crate does the same thing
//! against a virtual clock, which is deterministic and does not waste wall
//! time: [`Bandwidth`] models transfers, [`breakeven`] implements
//! the Eqn.-1 worthwhileness criterion behind Figure 8, and [`scaling`]
//! models the MPI-style strong/weak scaling placements of Figure 9.

pub mod breakeven;
pub mod clock;
pub mod link;
pub mod scaling;

pub use breakeven::{crossover_bandwidth, total_time_compressed, worthwhile};
pub use clock::{admit_arrivals, Deadline, VirtualClock};
pub use link::Bandwidth;
