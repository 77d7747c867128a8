//! `invector-moldyn` — the particle-simulation application of the paper
//! (§4.3, Figure 12).
//!
//! Molecular dynamics is the hardest of the paper's workloads for SIMD: the
//! force loop updates **two** indexed targets per interaction pair (force on
//! `i`, reaction on `j`), in three components each. The crate builds the
//! whole substrate — FCC-lattice [inputs](input), cell-list
//! [neighbor lists](neighbor), the Lennard-Jones [force lane](force) that
//! runs every implementation strategy on the kernels crate's edge-map
//! operator — and a [simulation driver](sim) matching
//! the paper's setup (neighbor rebuild every 20 iterations).
//!
//! # Example
//!
//! ```
//! use invector_kernels::Variant;
//! use invector_moldyn::{input::fcc_lattice, sim::simulate};
//!
//! let molecules = fcc_lattice(2, 42); // 32 molecules
//! let result = simulate(&molecules, Variant::Invec, 5);
//! assert_eq!(result.iterations, 5);
//! assert!(result.num_pairs > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod energy;
pub mod force;
pub mod input;
pub mod neighbor;
pub mod sim;

pub use energy::Energy;
pub use force::Forces;
pub use input::Molecules;
pub use neighbor::PairList;
pub use sim::SimResult;
