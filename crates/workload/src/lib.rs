//! Deterministic workload generators for the RStore reproduction.
//!
//! * [`graph`] — uniform and RMAT (power-law) directed graphs in CSR form,
//!   for the graph-processing experiments (E6/E7).
//! * [`records`] — TeraGen-style 100-byte sort records, key helpers, and a
//!   Zipf sampler, for the Key-Value sorter experiments (E8/E9).
//!
//! All generators take explicit seeds and are bit-for-bit reproducible.

pub mod graph;
pub mod records;

pub use graph::{rmat_graph, uniform_graph, CsrGraph};
pub use records::{
    is_sorted, key_at, record_key, sort_records, teragen, Zipf, KEY_BYTES, RECORD_BYTES,
};
