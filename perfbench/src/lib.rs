//! End-to-end and per-layer benchmark of the kDC suite: cold file-to-answer
//! solves on search-heavy and sparse inputs, and a closed-loop client mix
//! against the daemon. See `README.md` in this directory.

pub mod cli;
pub mod inputs;
pub mod pin;
pub mod promtext;
pub mod report;
pub mod serve;
pub mod solve;
pub mod spans;
pub mod stats;
