#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # kdc-bench
//!
//! Experiment harness for the kDC suite: synthetic benchmark collections
//! ([`collections`]), a parallel timed runner ([`runner`]), table
//! rendering ([`table`]) and the committed `BENCH_*.json` baselines with
//! their CI gate ([`snapshot`]).
//!
//! One binary per paper artifact regenerates the corresponding table/figure
//! (see the README's "Experiments" section). Every experiment binary accepts
//! `--quick` (small collections) and most accept `--limit <seconds>`
//! (per-solve time limit).

pub mod collections;
pub mod figures;
pub mod runner;
pub mod snapshot;
pub mod table;
