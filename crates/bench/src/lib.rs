//! # nebula-bench — the evaluation harness
//!
//! Regenerates every table and figure of the Nebula paper's §8
//! evaluation. Each `figNN` module computes one experiment and returns
//! structured rows; the `reproduce` binary prints them in the same shape
//! the paper reports. Speed questions belong to `spine/`, the commit-path
//! benchmark, not to this crate.
//!
//! Run `cargo run -p nebula-bench --release --bin reproduce -- help` for
//! the experiment list.

pub mod ablation;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod profile;
pub mod setup;
pub mod table;

pub use setup::{Scale, Setup};
