//! Lightweight metrics shared between simulated components.
//!
//! The benchmark harness reads these to build the tables in
//! `EXPERIMENTS.md`: byte counters for bandwidth figures and latency samples
//! for percentile tables.
//!
//! Naming is set-up, updating is the data path. A name (scope prefix
//! included) is interned once into a dense slot; a [`Counter`] or [`Hist`]
//! handle is that slot's index, so an update through a handle touches no
//! string. The by-name methods on [`Metrics`] resolve the name to the same
//! slot and then index it: one registry, two ways in.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// One interned metric. `live` is "written since the last reset": readers
/// only ever see live slots, so resolving a handle never surfaces a metric.
#[derive(Default)]
struct Slot<T> {
    live: bool,
    value: T,
}

/// Dense storage for one metric kind plus its name index. The index is
/// ordered, which is what keeps exports sorted by full name.
#[derive(Default)]
struct Table<T> {
    ids: BTreeMap<Rc<str>, usize>,
    slots: Vec<Slot<T>>,
}

impl<T: Default> Table<T> {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.slots.len();
        self.slots.push(Slot::default());
        self.ids.insert(name.into(), id);
        id
    }

    /// The slot to write: marks it live.
    fn touch(&mut self, id: usize) -> &mut T {
        let slot = &mut self.slots[id];
        slot.live = true;
        &mut slot.value
    }

    /// The named metric, if it is live.
    fn find(&self, name: &str) -> Option<&T> {
        let slot = &self.slots[*self.ids.get(name)?];
        slot.live.then_some(&slot.value)
    }

    fn live_names(&self) -> Vec<String> {
        self.ids
            .iter()
            .filter(|(_, &id)| self.slots[id].live)
            .map(|(name, _)| name.to_string())
            .collect()
    }
}

#[derive(Default)]
struct Registry {
    counters: Table<u64>,
    histograms: Table<Histogram>,
    /// Reused buffer in which a scoped by-name call spells its full name.
    scratch: String,
}

/// A clonable handle to a metrics registry.
///
/// Counters are monotonically increasing `u64`s; histograms store raw
/// nanosecond samples (simulations are short enough that exact percentiles
/// are affordable and preferable to bucketed approximations).
///
/// Code that updates a metric repeatedly resolves it once, at construction,
/// with [`Metrics::counter_handle`] / [`Metrics::hist_handle`] and updates
/// through the handle. The by-name methods are for set-up code, cold paths
/// and readers.
///
/// A metric is visible to readers ([`Metrics::counter_names`],
/// [`Metrics::histogram`], every export built on them) only once it has been
/// written since the last [`Metrics::reset`]: resolving a handle reserves a
/// slot but shows nothing.
///
/// [`Metrics::scoped`] derives a handle that shares the registry but
/// prefixes every name it touches, so per-instance stats (per-link,
/// per-QP) nest under a common namespace:
///
/// ```rust
/// use sim::Metrics;
/// let m = Metrics::new();
/// let link = m.scoped("fabric.link3");
/// let tx_msgs = link.counter_handle("tx_msgs");
/// assert!(m.counter_names().is_empty());
/// tx_msgs.incr();
/// link.incr("tx_msgs");
/// assert_eq!(m.counter("fabric.link3.tx_msgs"), 2);
/// ```
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<Registry>>,
    /// Dotted namespace prefix (including trailing `.`), if scoped.
    prefix: Option<Rc<str>>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reg = self.inner.borrow();
        f.debug_struct("Metrics")
            .field("counters", &reg.counters.slots.len())
            .field("histograms", &reg.histograms.slots.len())
            .finish()
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a handle sharing this registry in which every metric name is
    /// prefixed with `scope` + `.`. Scopes nest: `m.scoped("a").scoped("b")`
    /// writes under `a.b.`.
    ///
    /// Separators are normalised: leading/trailing dots on `scope` are
    /// ignored (so `scoped("a.")` never yields `a..b` names) and an empty
    /// scope is a no-op returning an equivalent handle.
    pub fn scoped(&self, scope: &str) -> Metrics {
        let scope = scope.trim_matches('.');
        if scope.is_empty() {
            return self.clone();
        }
        let prefix = match &self.prefix {
            Some(p) => format!("{p}{scope}."),
            None => format!("{scope}."),
        };
        Metrics {
            inner: self.inner.clone(),
            prefix: Some(prefix.into()),
        }
    }

    /// Runs `f` on the registry and `name` resolved against this handle's
    /// scope prefix. The full name is spelled into a buffer the registry
    /// keeps, so resolving allocates nothing once that buffer has grown.
    fn resolved<R>(&self, name: &str, f: impl FnOnce(&mut Registry, &str) -> R) -> R {
        let mut reg = self.inner.borrow_mut();
        let Some(prefix) = &self.prefix else {
            return f(&mut reg, name);
        };
        let mut full = std::mem::take(&mut reg.scratch);
        full.clear();
        full.push_str(prefix);
        full.push_str(name);
        let out = f(&mut reg, &full);
        reg.scratch = full;
        out
    }

    /// Resolves the named counter to a handle. Nothing becomes visible to
    /// readers until the handle is written.
    pub fn counter_handle(&self, name: &str) -> Counter {
        Counter {
            reg: self.inner.clone(),
            id: self.resolved(name, |reg, full| reg.counters.intern(full)),
        }
    }

    /// Resolves the named histogram to a handle. Nothing becomes visible to
    /// readers until the handle is written.
    pub fn hist_handle(&self, name: &str) -> Hist {
        Hist {
            reg: self.inner.clone(),
            id: self.resolved(name, |reg, full| reg.histograms.intern(full)),
        }
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        self.resolved(name, |reg, full| {
            let id = reg.counters.intern(full);
            *reg.counters.touch(id) += delta;
        });
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (zero if it was never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.resolved(name, |reg, full| {
            reg.counters.find(full).copied().unwrap_or(0)
        })
    }

    /// Records a duration sample into the named histogram.
    pub fn record(&self, name: &str, sample: Duration) {
        self.record_value(name, sample.as_nanos() as u64);
    }

    /// Records a raw `u64` sample (queue depth, batch size, …) into the
    /// named histogram.
    pub fn record_value(&self, name: &str, value: u64) {
        self.resolved(name, |reg, full| {
            let id = reg.histograms.intern(full);
            reg.histograms.touch(id).record(value);
        });
    }

    /// Returns a snapshot of the named histogram, if any samples exist.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.resolved(name, |reg, full| reg.histograms.find(full).cloned())
    }

    /// All counter names written since the last reset, sorted (unscoped:
    /// the full registry, regardless of this handle's prefix).
    pub fn counter_names(&self) -> Vec<String> {
        self.inner.borrow().counters.live_names()
    }

    /// All histogram names written since the last reset, sorted (unscoped).
    pub fn histogram_names(&self) -> Vec<String> {
        self.inner.borrow().histograms.live_names()
    }

    /// Resets every counter and histogram (used between benchmark phases).
    /// Handles stay valid; their metrics reappear when next written.
    pub fn reset(&self) {
        let mut reg = self.inner.borrow_mut();
        for slot in &mut reg.counters.slots {
            *slot = Slot::default();
        }
        for slot in &mut reg.histograms.slots {
            slot.live = false;
            slot.value.clear();
        }
    }
}

/// A resolved counter: [`Counter::add`] is an index into the registry's
/// dense storage. Cheap to clone; resolve with [`Metrics::counter_handle`].
#[derive(Clone)]
pub struct Counter {
    reg: Rc<RefCell<Registry>>,
    id: usize,
}

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        *self.reg.borrow_mut().counters.touch(self.id) += delta;
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (zero if not written since the last reset).
    pub fn get(&self) -> u64 {
        self.reg.borrow().counters.slots[self.id].value
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.id).finish()
    }
}

/// A resolved histogram: [`Hist::record_value`] is an index plus a `Vec`
/// push. Cheap to clone; resolve with [`Metrics::hist_handle`].
#[derive(Clone)]
pub struct Hist {
    reg: Rc<RefCell<Registry>>,
    id: usize,
}

impl Hist {
    /// Records a duration sample.
    pub fn record(&self, sample: Duration) {
        self.record_value(sample.as_nanos() as u64);
    }

    /// Records a raw `u64` sample.
    pub fn record_value(&self, value: u64) {
        self.reg
            .borrow_mut()
            .histograms
            .touch(self.id)
            .record(value);
    }

    /// Reads the histogram in place (empty if not written since the last
    /// reset), without the copy [`Metrics::histogram`] makes.
    pub fn read<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        f(&self.reg.borrow().histograms.slots[self.id].value)
    }
}

impl fmt::Debug for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Hist").field(&self.id).finish()
    }
}

/// An exact-sample latency histogram (nanoseconds).
#[derive(Clone, Default, Debug)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Records one nanosecond sample.
    pub fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
        self.sorted = false;
    }

    /// Drops the samples but keeps their buffer, so a histogram refilled
    /// after a reset does not regrow it.
    fn clear(&mut self) {
        self.samples.clear();
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean in nanoseconds (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Exact percentile (`p` in `[0, 100]`) in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> u64 {
        assert!(!self.samples.is_empty(), "percentile of empty histogram");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).floor() as usize;
        self.samples[rank]
    }

    /// Exact percentile without mutation or panics: sorts a snapshot of the
    /// samples if needed. Returns `None` if the histogram is empty or `p`
    /// is outside `[0, 100]`.
    pub fn try_percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).floor() as usize;
        if self.sorted {
            return Some(self.samples[rank]);
        }
        let mut snapshot = self.samples.clone();
        snapshot.sort_unstable();
        Some(snapshot[rank])
    }

    /// Median in nanoseconds (zero if empty).
    pub fn p50(&self) -> u64 {
        self.try_percentile(50.0).unwrap_or(0)
    }

    /// 99th percentile in nanoseconds (zero if empty).
    pub fn p99(&self) -> u64 {
        self.try_percentile(99.0).unwrap_or(0)
    }

    /// Raw samples in insertion order (unless [`Histogram::percentile`] has
    /// sorted this instance in place). Registry-held histograms are only ever
    /// appended to, so windowed consumers (e.g. `sim::timeseries`) can slice
    /// `samples()[prev_len..]` to see exactly the samples recorded since a
    /// previous snapshot.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Sum of all samples (zero if empty).
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Minimum sample.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&self) -> u64 {
        *self.samples.iter().min().expect("empty histogram")
    }

    /// Maximum sample.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> u64 {
        *self.samples.iter().max().expect("empty histogram")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add("bytes", 10);
        m.add("bytes", 32);
        m.incr("ops");
        assert_eq!(m.counter("bytes"), 42);
        assert_eq!(m.counter("ops"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_percentiles_exact() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record("lat", Duration::from_nanos(i));
        }
        let mut h = m.histogram("lat").unwrap();
        assert_eq!(h.len(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(100.0), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::new();
        m.add("a", 5);
        m.record("h", Duration::from_nanos(3));
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert!(m.histogram("h").is_none());
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.add("x", 7);
        assert_eq!(m.counter("x"), 7);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn percentile_of_empty_panics() {
        Histogram::default().percentile(50.0);
    }

    #[test]
    fn try_percentile_is_total() {
        let empty = Histogram::default();
        assert_eq!(empty.try_percentile(50.0), None);
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);

        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record("lat", Duration::from_nanos(i));
        }
        let h = m.histogram("lat").unwrap();
        // Immutable access on an unsorted histogram.
        assert_eq!(h.try_percentile(50.0), Some(50));
        assert_eq!(h.try_percentile(101.0), None);
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p99(), 99);
        // Agrees with the sorting accessor.
        let mut hm = h.clone();
        assert_eq!(hm.percentile(99.0), 99);
        assert_eq!(hm.try_percentile(99.0), Some(99));
    }

    #[test]
    fn scoped_handles_prefix_and_share() {
        let m = Metrics::new();
        let link = m.scoped("fabric.link3");
        link.incr("tx_msgs");
        link.add("tx_bytes", 4096);
        link.record("queue_delay", Duration::from_nanos(7));
        assert_eq!(m.counter("fabric.link3.tx_msgs"), 1);
        assert_eq!(m.counter("fabric.link3.tx_bytes"), 4096);
        assert_eq!(link.counter("tx_bytes"), 4096);
        assert_eq!(m.histogram("fabric.link3.queue_delay").unwrap().len(), 1);
        // Nested scoping composes prefixes.
        let qp = m.scoped("rdma").scoped("qp5");
        qp.incr("posted");
        assert_eq!(m.counter("rdma.qp5.posted"), 1);
        // Unscoped name listing sees the fully-qualified names.
        assert!(m.counter_names().contains(&"fabric.link3.tx_msgs".into()));
        // Reset through any handle clears the shared registry.
        qp.reset();
        assert_eq!(m.counter("fabric.link3.tx_msgs"), 0);
    }

    #[test]
    fn scoped_normalises_separators() {
        let m = Metrics::new();
        // Empty scope is a no-op: same registry, same (absent) prefix.
        let same = m.scoped("");
        same.incr("top");
        assert_eq!(m.counter("top"), 1);
        assert!(m.counter_names().contains(&"top".into()));
        // Dots-only scope is also a no-op.
        m.scoped(".").scoped("a").incr("x");
        assert_eq!(m.counter("a.x"), 1);
        // Trailing/leading dots never produce double separators.
        let s = m.scoped("fabric.").scoped(".link2");
        s.incr("tx_msgs");
        assert_eq!(m.counter("fabric.link2.tx_msgs"), 1);
        assert!(m
            .counter_names()
            .iter()
            .all(|n| !n.contains("..") && !n.starts_with('.')));
        // Empty scope on an already-scoped handle keeps the prefix.
        let nested = m.scoped("rdma").scoped("");
        nested.incr("posted");
        assert_eq!(m.counter("rdma.posted"), 1);
    }

    #[test]
    fn metrics_are_visible_once_written_since_reset() {
        let m = Metrics::new();
        let rx = m.scoped("fabric.link1").counter_handle("rx_msgs");
        let lat = m.hist_handle("lat");
        // Resolving reserves a slot and shows nothing.
        assert!(m.counter_names().is_empty());
        assert!(m.histogram_names().is_empty());
        assert!(m.histogram("lat").is_none());
        assert_eq!((rx.get(), m.counter("fabric.link1.rx_msgs")), (0, 0));

        rx.incr();
        m.add("zero", 0); // a write of nothing is still a write
        m.add("fabric.link0.tx_msgs", 2);
        lat.record_value(7);
        m.record_value("depth", 3);
        // Names come back sorted by full name, whichever way they got in.
        assert_eq!(
            m.counter_names(),
            ["fabric.link0.tx_msgs", "fabric.link1.rx_msgs", "zero"]
        );
        assert_eq!(m.histogram_names(), ["depth", "lat"]);
        assert_eq!(m.histogram("lat").unwrap().samples(), &[7]);

        // A reset hides everything again; handles stay valid and their
        // metrics reappear, from zero, when next written.
        m.reset();
        assert!(m.counter_names().is_empty());
        assert!(m.histogram("lat").is_none());
        assert_eq!(rx.get(), 0);
        assert!(lat.read(Histogram::is_empty));
        rx.add(5);
        lat.record(Duration::from_nanos(9));
        assert_eq!(m.counter_names(), ["fabric.link1.rx_msgs"]);
        assert_eq!(m.counter("fabric.link1.rx_msgs"), 5);
        assert_eq!(m.histogram("lat").unwrap().samples(), &[9]);
    }

    #[test]
    fn histogram_samples_accessor_preserves_insertion_order() {
        let m = Metrics::new();
        for v in [5u64, 1, 9, 3] {
            m.record_value("depth", v);
        }
        let h = m.histogram("depth").unwrap();
        assert_eq!(h.samples(), &[5, 1, 9, 3]);
        // try_percentile does not disturb the stored order.
        assert_eq!(h.try_percentile(100.0), Some(9));
        assert_eq!(h.samples(), &[5, 1, 9, 3]);
    }
}
