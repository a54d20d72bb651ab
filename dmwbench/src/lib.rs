//! Closed-loop benchmark of the DMW protocol runner.
//!
//! `dmwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets up one named workload from the seed, runs its trials back to
//! back for the given time through the public `DmwRunner` API, checks
//! every outcome against the workload's oracle, and prints a report
//! followed by one JSON line with every metric. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` the per-layer split. See `NOTES.md`
//! for the workloads and what each metric should move.

pub mod measure;
pub mod replay;
pub mod stats;
pub mod timed;
pub mod workload;
