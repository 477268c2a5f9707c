//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the virtual-time substrate on which the rest of the
//! RStore reproduction runs. Instead of real machines and a real network we
//! execute ordinary Rust `async` code on a single-threaded executor whose
//! clock is *simulated*: awaiting [`Sim::sleep`] does not block the host, it
//! advances a virtual clock to the next scheduled event. Because the executor
//! is single-threaded and every source of ordering is an explicit event with
//! a `(time, sequence)` key, a simulation run is **bit-for-bit deterministic**
//! for a given seed — every latency figure and bandwidth table in the
//! benchmark harness is exactly reproducible.
//!
//! # Example
//!
//! ```rust
//! use sim::{Sim, Duration};
//!
//! let sim = Sim::new();
//! let handle = sim.spawn({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(Duration::from_micros(5)).await;
//!         sim.now()
//!     }
//! });
//! sim.run();
//! let t = handle.try_result().expect("task finished");
//! assert_eq!(t.as_nanos(), 5_000);
//! ```
//!
//! # Modules
//!
//! * [`time`] — the [`SimTime`] virtual clock type.
//! * [`executor`] — the [`Sim`] handle, task spawning, and the run loop.
//!   Its event queue holds only live events: every scheduling call returns a
//!   [`TimerId`] that [`Sim::cancel`] removes for good, and hot paths
//!   schedule typed events on an [`EventSink`] instead of boxing a closure.
//! * [`mod@channel`] — unbounded mpsc and oneshot channels usable inside tasks.
//! * [`sync`] — semaphores and barriers in virtual time.
//! * [`rng`] — a seeded deterministic random number generator.
//! * [`metrics`] — counters and latency histograms shared between components.
//! * [`trace`] — the recording spine: the simulation's one [`Recorder`]
//!   (one switch with levels, one bounded ring), the [`Event`]s each
//!   layer resolves and fires, and the Chrome-trace export.
//! * [`ledger`] — the per-operation handle: RTTs, doorbells, wire bytes, a
//!   per-layer time split and, at the spans level, the op's causal phase
//!   tree (a `None` when recording is off).
//! * [`optrace`] — what finished ops are filed into at the spans level:
//!   critical-path blame vectors, tail exemplars, and a black-box flight
//!   recorder with triage bundles.
//! * [`timeseries`] — windowed counter-delta / percentile sampling of a
//!   metrics registry on virtual time (fixed-capacity).
//! * [`future_util`] — small `join_all` / `yield_now` helpers and
//!   [`Sim::timeout`], the one way to bound a wait in virtual time (no
//!   external futures crate is used anywhere in the workspace).

pub mod channel;
pub mod executor;
pub mod future_util;
pub mod ledger;
pub mod metrics;
pub mod optrace;
mod queue;
pub mod rng;
pub mod sync;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use channel::{channel, oneshot, Receiver, Sender};
pub use executor::{take_exec_totals, ExecTotals, JoinHandle, Sim};
pub use future_util::{join_all, yield_now, Timeout};
pub use ledger::{Completion, OpCosts, OpLedger, OpMetrics, OpSummary, Phase, SpanRec};
pub use metrics::{Counter, Hist, Histogram, Metrics};
pub use optrace::{BlameVec, EraNote, Exemplar, FlightRec, ForensicsConfig};
pub use queue::{EventSink, TimerId};
pub use rng::DetRng;
pub use time::SimTime;
pub use timeseries::{Sampler, Window, WindowStats};
pub use trace::{Event, Level, NoteArg, Recorder, Span, TraceEvent};

/// Re-export of [`std::time::Duration`]; all simulated delays use it.
pub use std::time::Duration;
