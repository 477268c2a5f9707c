//! Benchmark harness for the RStore reproduction.
//!
//! [`experiments`] holds one module per reproduced table/figure (E1–E13,
//! indexed in `DESIGN.md`); the `figures` binary prints them, and the
//! `bench` binary works on exported reports — `bench diff` (the CI
//! perf-regression gate), `bench check` (the invariants a report asserts
//! about itself) and `bench triage`:
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
pub mod experiments;
pub mod json;
pub mod report;
pub mod selftime;
pub mod table;
pub mod triage;

pub use table::Table;
