//! End-to-end and per-layer latency benchmark for Sapphire: simulated users
//! typing queries keystroke by keystroke and clicking Run, against a single
//! server or a sharded cluster over loopback sockets.
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! to run it.

pub mod cluster;
pub mod guard;
pub mod host;
pub mod replay;
pub mod report;
pub mod sessions;
pub mod single;
pub mod stats;
pub mod timing;
