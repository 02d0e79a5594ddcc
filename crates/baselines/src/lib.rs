#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # kdc-baselines
//!
//! Comparison solvers for the kDC suite:
//!
//! * [`naive`] — an independent brute-force exact solver used as a
//!   correctness oracle (shares no code with the engine);
//! * [`maxclique`] — a Tomita-style exact maximum clique solver (stands in
//!   for MC-BRB in the Table 5/6 experiments);
//! * [`kdbb`] — a KDBB-like configuration \[16\], the pre-kDC practical
//!   state of the art;
//! * [`madec`] — a MADEC⁺-like configuration \[11\], the pre-kDC complexity
//!   state of the art;
//! * [`rds`] — Russian Doll Search \[44\], the problem's first exact
//!   algorithm, implemented independently of the kDC engine.
//!
//! The kdbb/madec baselines are *rule-faithful reconfigurations* of the same
//! engine that powers kDC: identical data structures, different algorithmic
//! content. This matches the paper's own ablation philosophy and isolates
//! the contribution of BR/RR2, RR3/RR4 and UB1.

pub mod kdbb;
pub mod madec;
pub mod maxclique;
pub mod naive;
pub mod rds;

pub use maxclique::{max_clique, max_clique_size};
pub use naive::{max_defective_clique_naive, max_defective_size_naive};
pub use rds::{max_defective_clique_rds, max_defective_size_rds};
