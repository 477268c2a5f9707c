//! Benchmark harness for the RStore reproduction.
//!
//! [`experiments`] holds one module per reproduced table/figure (E1–E17,
//! indexed in `DESIGN.md`) and [`episode`] the paced verified-KV traffic
//! that E13, E15 and E17 run their faults under; the `figures` binary
//! prints the experiments, and the `bench` binary works on exported reports
//! — `bench diff` (the CI perf-regression gate), `bench check` (the
//! invariants a report asserts about itself) and `bench triage`:
//!
//! ```text
//! cargo run -p bench --release --bin figures -- all
//! cargo run -p bench --release --bin figures -- e4 e6
//! cargo run -p bench --release --bin bench -- diff \
//!     --baseline BENCH_seed.json --current BENCH_pr.json
//! ```
//!
//! The self-timed benches under `benches/` track the *real-time* cost of
//! the simulator on representative experiment kernels (the experiments
//! themselves are measured in deterministic virtual time, so the benches'
//! statistics apply to the engine, not the paper's claims).

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
