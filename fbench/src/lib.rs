//! `fahana-perfbench`: the outside-in benchmark of the FaHaNa campaign
//! engine and `fahana-serve`. See `README.md` for the workloads, the
//! metrics and how to run it.

pub mod campaign;
pub mod loadgen;
pub mod output;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
