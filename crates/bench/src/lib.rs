//! Benchmark harness for the RStore reproduction.
//!
//! [`experiments`] holds one module per reproduced table/figure (E1–E17,
//! indexed in `DESIGN.md`) and [`episode`] the paced verified-KV traffic
//! that E13, E15 and E17 run their faults under; [`report`] measures each
//! experiment once and renders it as text and JSON, which the `figures`
//! binary prints and exports. The `bench` binary works on exported reports
//! — `bench diff` (CI's exact baseline gate), `bench check` (the
//! invariants a report asserts about itself) and `bench triage`:
//!
//! ```text
//! cargo run -p bench --release --bin figures -- all
//! cargo run -p bench --release --bin figures -- e4 e6
//! cargo run -p bench --release --bin bench -- diff \
//!     --baseline BENCH_seed.json --current BENCH_pr.json
//! ```
//!
//! The experiments are measured in deterministic virtual time; what they
//! cost the host is recorded beside them in `SELFTIME_<runid>.json`
//! ([`selftime`]).

pub mod check;
pub mod diff;
pub mod episode;
pub mod experiments;
pub mod json;
pub mod report;
pub mod selftime;
pub mod table;
pub mod triage;

pub use table::Table;
