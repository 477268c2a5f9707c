//! Windowed time-series sampling on virtual time.
//!
//! PR 1's tracing and metrics answer "what happened" and "how much in
//! total"; this module answers "how did it move through time". A
//! [`Sampler`] snapshots a chosen set of counters and histograms at a fixed
//! virtual-time interval, turning cumulative metrics into per-window
//! *deltas* (throughput) and per-window *percentiles* (p50/p99 under a
//! fault, queue depth during congestion) stored in a fixed-capacity series.
//!
//! A sampler is a consumer of [`Metrics`], not a recording switch: it costs
//! nothing until [`Sampler::spawn_driver`] is called. Its series does not
//! wrap like the recorder's rings — it *stops* when full, on purpose: the
//! driver task must end so that [`Sim::run`] does, and a timeline wants its
//! first windows (the steady state before the fault) as much as its last.
//! Because sampling is itself just virtual-time events on the deterministic
//! executor, two seeded runs produce byte-identical series.
//!
//! ```rust
//! use sim::{Duration, Metrics, Sim};
//! use sim::timeseries::Sampler;
//!
//! let sim = Sim::new();
//! let m = Metrics::new();
//! let ts = Sampler::new(Duration::from_millis(1), 8);
//! ts.track_counter("ops");
//! ts.track_histogram("lat");
//! ts.spawn_driver(&sim, &m);
//! let (s, mm) = (sim.clone(), m.clone());
//! sim.spawn(async move {
//!     for i in 0..40u64 {
//!         mm.incr("ops");
//!         mm.record_value("lat", 100 + i);
//!         s.sleep(Duration::from_micros(100)).await;
//!     }
//! });
//! sim.run();
//! let w = ts.windows();
//! assert_eq!(w[0].counters["ops"], 10);
//! assert_eq!(w[0].histograms["lat"].count, 10);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crate::executor::Sim;
use crate::metrics::{Counter, Hist, Histogram, Metrics};
use crate::time::SimTime;

/// Per-window summary of one histogram: exact percentiles over only the
/// samples recorded inside the window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Samples recorded in this window.
    pub count: u64,
    /// Window-local median (0 when the window saw no samples).
    pub p50: u64,
    /// Window-local 99th percentile (0 when empty).
    pub p99: u64,
    /// Window-local maximum (0 when empty).
    pub max: u64,
}

/// One sampling window: `[start_ns, end_ns)` in virtual time, with counter
/// deltas and histogram summaries for every tracked series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Zero-based window index.
    pub index: u64,
    /// Window start (virtual nanoseconds, inclusive).
    pub start_ns: u64,
    /// Window end (virtual nanoseconds, exclusive).
    pub end_ns: u64,
    /// Counter increments inside the window, keyed by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries over the window's samples, keyed by metric name.
    pub histograms: BTreeMap<String, WindowStats>,
}

/// One tracked metric: its registry name, the handle it resolves to on
/// first use (the registry is only known once sampling starts), and the
/// reading at the previous sample (counter value / histogram length).
struct Series<H, P> {
    name: String,
    handle: Option<H>,
    prev: P,
}

impl<H, P: Default> Series<H, P> {
    fn track(list: &mut Vec<Self>, name: &str) {
        if !list.iter().any(|s| s.name == name) {
            list.push(Series {
                name: name.to_string(),
                handle: None,
                prev: P::default(),
            });
        }
    }

    fn bind(&mut self, resolve: impl FnOnce(&str) -> H) -> &H {
        self.handle.get_or_insert_with(|| resolve(&self.name))
    }
}

struct State {
    interval: Duration,
    capacity: usize,
    counters: Vec<Series<Counter, u64>>,
    histograms: Vec<Series<Hist, usize>>,
    last_sample_ns: u64,
    windows: Vec<Window>,
}

/// A deterministic windowed sampler over a shared [`Metrics`] registry.
///
/// Clonable handle; all clones share state. See the module docs for the
/// lifecycle (`new` → `track_*` → `spawn_driver` → run → `windows`).
#[derive(Clone)]
pub struct Sampler {
    shared: Rc<RefCell<State>>,
}

impl Sampler {
    /// A sampler closing one window every `interval` of virtual time, into
    /// a series of at most `capacity` windows.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `capacity` is zero.
    pub fn new(interval: Duration, capacity: usize) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be > 0");
        assert!(capacity > 0, "sampling capacity must be > 0");
        Sampler {
            shared: Rc::new(RefCell::new(State {
                interval,
                capacity,
                counters: Vec::new(),
                histograms: Vec::new(),
                last_sample_ns: 0,
                windows: Vec::new(),
            })),
        }
    }

    /// Tracks the counter `name` (fully-qualified registry name): each
    /// window records the counter's increment over that window.
    pub fn track_counter(&self, name: &str) {
        Series::track(&mut self.shared.borrow_mut().counters, name);
    }

    /// Tracks the histogram `name`: each window records count/p50/p99/max
    /// over only the samples that arrived inside that window.
    pub fn track_histogram(&self, name: &str) {
        Series::track(&mut self.shared.borrow_mut().histograms, name);
    }

    /// Re-baselines the delta tracking to the registry's current values, so
    /// the next window measures increments from *now* rather than from the
    /// registry's whole history. A sampler reads one registry: the tracked
    /// names resolve to handles in the first `metrics` it is given.
    pub fn baseline(&self, now: SimTime, metrics: &Metrics) {
        let mut st = self.shared.borrow_mut();
        st.last_sample_ns = now.as_nanos();
        for c in &mut st.counters {
            c.prev = c.bind(|n| metrics.counter_handle(n)).get();
        }
        for h in &mut st.histograms {
            h.prev = h.bind(|n| metrics.hist_handle(n)).read(Histogram::len);
        }
    }

    /// Closes one window ending at `now`: snapshots counter deltas and
    /// window-local histogram percentiles since the previous sample (or
    /// baseline). No-op when the series is full.
    pub fn sample(&self, now: SimTime, metrics: &Metrics) {
        let mut st = self.shared.borrow_mut();
        let st = &mut *st;
        if st.windows.len() >= st.capacity {
            return;
        }
        let end_ns = now.as_nanos();
        let mut win = Window {
            index: st.windows.len() as u64,
            start_ns: st.last_sample_ns,
            end_ns,
            ..Window::default()
        };
        for c in &mut st.counters {
            let v = c.bind(|n| metrics.counter_handle(n)).get();
            win.counters
                .insert(c.name.clone(), v.saturating_sub(c.prev));
            c.prev = v;
        }
        for h in &mut st.histograms {
            let prev = h.prev;
            let (len, stats) = h.bind(|n| metrics.hist_handle(n)).read(|hist| {
                let len = hist.len();
                (len, window_stats(&hist.samples()[prev.min(len)..]))
            });
            win.histograms.insert(h.name.clone(), stats);
            h.prev = len;
        }
        st.last_sample_ns = end_ns;
        st.windows.push(win);
    }

    /// Spawns the bounded driver task: starting from the current virtual
    /// instant it re-baselines, then closes one window per interval until the
    /// series reaches capacity. The task is finite, so [`Sim::run`] still
    /// terminates with a driver attached.
    pub fn spawn_driver(&self, sim: &Sim, metrics: &Metrics) {
        let ts = self.clone();
        let sim2 = sim.clone();
        let metrics = metrics.clone();
        sim.spawn(async move {
            ts.baseline(sim2.now(), &metrics);
            loop {
                let interval = {
                    let st = ts.shared.borrow();
                    if st.windows.len() >= st.capacity {
                        return;
                    }
                    st.interval
                };
                sim2.sleep(interval).await;
                ts.sample(sim2.now(), &metrics);
            }
        });
    }

    /// Snapshot of every recorded window, in order.
    pub fn windows(&self) -> Vec<Window> {
        self.shared.borrow().windows.clone()
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.shared.borrow().windows.len()
    }

    /// True if no windows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.shared.borrow().windows.is_empty()
    }
}

/// Exact percentiles over one window's samples (order-insensitive).
fn window_stats(samples: &[u64]) -> WindowStats {
    if samples.is_empty() {
        return WindowStats::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |p: f64| sorted[((p / 100.0) * (sorted.len() - 1) as f64).floor() as usize];
    WindowStats {
        count: sorted.len() as u64,
        p50: rank(50.0),
        p99: rank(99.0),
        max: *sorted.last().expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_deltas_not_cumulative_values() {
        let sim = Sim::new();
        let m = Metrics::new();
        // Pre-existing history must not leak into the first window.
        m.add("ops", 1000);
        m.record_value("lat", 999_999);
        let ts = Sampler::new(Duration::from_millis(1), 4);
        ts.track_counter("ops");
        ts.track_histogram("lat");
        ts.spawn_driver(&sim, &m);
        let (s, mm) = (sim.clone(), m.clone());
        sim.spawn(async move {
            for i in 0..4u64 {
                // Window i gets i+1 ops with latency 10*(i+1).
                for _ in 0..=i {
                    mm.incr("ops");
                    mm.record_value("lat", 10 * (i + 1));
                }
                s.sleep(Duration::from_millis(1)).await;
            }
        });
        sim.run();
        let w = ts.windows();
        assert_eq!(w.len(), 4);
        for (i, win) in w.iter().enumerate() {
            assert_eq!(win.index as usize, i);
            assert_eq!(win.counters["ops"], i as u64 + 1);
            let h = &win.histograms["lat"];
            assert_eq!(h.count, i as u64 + 1);
            assert_eq!(h.p50, 10 * (i as u64 + 1));
            assert_eq!(h.p99, 10 * (i as u64 + 1));
            assert_eq!(h.max, 10 * (i as u64 + 1));
        }
        assert_eq!(w[0].start_ns, 0);
        assert_eq!(w[0].end_ns, 1_000_000);
        assert_eq!(w[3].end_ns, 4_000_000);
    }

    #[test]
    fn driver_is_bounded_by_capacity() {
        let sim = Sim::new();
        let m = Metrics::new();
        let ts = Sampler::new(Duration::from_millis(1), 3);
        ts.track_counter("x");
        ts.spawn_driver(&sim, &m);
        // With no other tasks, run() must terminate after exactly `capacity`
        // ticks — an unbounded driver would loop forever.
        let end = sim.run();
        assert_eq!(ts.len(), 3);
        assert_eq!(end.as_nanos(), 3_000_000);
    }

    #[test]
    fn empty_windows_are_explicit_zeros() {
        let sim = Sim::new();
        let m = Metrics::new();
        let ts = Sampler::new(Duration::from_millis(1), 2);
        ts.track_counter("ops");
        ts.track_histogram("lat");
        ts.spawn_driver(&sim, &m);
        sim.run();
        let w = ts.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].counters["ops"], 0);
        assert_eq!(w[0].histograms["lat"], WindowStats::default());
    }

    #[test]
    fn two_runs_are_identical() {
        fn run_once() -> Vec<Window> {
            let sim = Sim::new();
            let m = Metrics::new();
            let ts = Sampler::new(Duration::from_micros(500), 6);
            ts.track_counter("ops");
            ts.track_histogram("lat");
            ts.spawn_driver(&sim, &m);
            let (s, mm) = (sim.clone(), m.clone());
            sim.spawn(async move {
                for i in 0..30u64 {
                    mm.incr("ops");
                    mm.record_value("lat", (i * 37) % 11);
                    s.sleep(Duration::from_micros(73)).await;
                }
            });
            sim.run();
            ts.windows()
        }
        assert_eq!(run_once(), run_once());
    }
}
