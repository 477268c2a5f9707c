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
    /// Number of [`Metrics::reset`]s so far.
    epoch: u64,
}

/// A clonable handle to a metrics registry.
///
/// Counters are monotonically increasing `u64`s; histograms are exact (no
/// buckets): each stores every distinct value once with its count, so its
/// memory grows with the distinct values, not with the samples.
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

    /// Number of resets so far: a reader that keeps an earlier value of a
    /// metric compares epochs to tell "reset since" from "unchanged".
    pub(crate) fn reset_epoch(&self) -> u64 {
        self.inner.borrow().epoch
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
        reg.epoch += 1;
        for slot in &mut reg.counters.slots {
            *slot = Slot::default();
        }
        // A histogram keeps its buffers, so one refilled after a reset does
        // not regrow them.
        for slot in &mut reg.histograms.slots {
            slot.live = false;
            slot.value.runs.clear();
            slot.value.pending.clear();
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

/// Samples [`Histogram::record`] buffers before folding them into the runs;
/// a fold waits for `max(FOLD, runs)` of them, so it costs amortized
/// O(log n) per sample.
const FOLD: usize = 64;

/// An exact histogram (nanoseconds, or any `u64`) that stores each distinct
/// value once: its memory grows with the distinct values, not the samples.
#[derive(Clone, Default, Debug)]
pub struct Histogram {
    /// `(value, count)`, ascending by value, each value once, every count > 0.
    runs: Vec<(u64, u64)>,
    /// Samples recorded since the last fold, unsorted.
    pending: Vec<u64>,
}

impl Histogram {
    /// Records one nanosecond sample.
    pub fn record(&mut self, nanos: u64) {
        self.pending.push(nanos);
        if self.pending.len() >= FOLD.max(self.runs.len()) {
            self.fold();
        }
    }

    /// Moves `pending` into `runs`, sorted in place (`sort_unstable` takes
    /// no buffer): allocates only when the runs outgrow their capacity.
    fn fold(&mut self) {
        self.runs.extend(self.pending.drain(..).map(|v| (v, 1)));
        self.runs.sort_unstable_by_key(|r| r.0);
        self.runs.dedup_by(|next, run| {
            run.1 += if next.0 == run.0 { next.1 } else { 0 };
            next.0 == run.0
        });
    }

    /// Every sample as `(value, count)`: the runs, then each pending sample.
    fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let pending = self.pending.iter().map(|&v| (v, 1));
        self.runs.iter().copied().chain(pending)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.counts().map(|(_, n)| n as usize).sum()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.pending.is_empty()
    }

    /// Arithmetic mean in nanoseconds (zero if empty).
    pub fn mean(&self) -> f64 {
        self.sum() as f64 / self.len().max(1) as f64
    }

    /// Exact percentile (`p` in `[0, 100]`) in nanoseconds: the sample of
    /// rank `floor(p / 100 * (len - 1))` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is out of range.
    pub fn percentile(&self, p: f64) -> u64 {
        self.try_percentile(p)
            .expect("percentile of empty histogram, or p out of range")
    }

    /// [`Histogram::percentile`] without panics: `None` if the histogram is
    /// empty or `p` is outside `[0, 100]`.
    pub fn try_percentile(&self, p: f64) -> Option<u64> {
        let last = self
            .len()
            .checked_sub(1)
            .filter(|_| (0.0..=100.0).contains(&p))?;
        let rank = ((p / 100.0) * last as f64).floor() as u64;
        // The least value with more than `rank` samples at or below it.
        let (mut lo, mut hi) = (self.min(), self.max());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at_or_below: u64 = self.counts().filter(|r| r.0 <= mid).map(|r| r.1).sum();
            if at_or_below > rank {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Median in nanoseconds (zero if empty).
    pub fn p50(&self) -> u64 {
        self.try_percentile(50.0).unwrap_or(0)
    }

    /// 99th percentile in nanoseconds (zero if empty).
    pub fn p99(&self) -> u64 {
        self.try_percentile(99.0).unwrap_or(0)
    }

    /// Sum of all samples (zero if empty).
    pub fn sum(&self) -> u64 {
        self.counts().map(|(v, n)| v * n).sum()
    }

    /// Minimum sample.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&self) -> u64 {
        self.counts().map(|r| r.0).min().expect("empty histogram")
    }

    /// Maximum sample.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> u64 {
        self.counts().map(|r| r.0).max().expect("empty histogram")
    }

    /// The samples recorded into this histogram after `earlier`, a snapshot
    /// of it taken since its last reset: each value's count here less its
    /// count there.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` holds a sample this histogram does not.
    pub(crate) fn since(&self, earlier: &Histogram) -> Histogram {
        let mut diff = self.clone();
        diff.fold();
        for (v, n) in earlier.counts() {
            let i = diff.runs.binary_search_by_key(&v, |r| r.0);
            diff.runs[i.expect("an earlier snapshot of this histogram")].1 -= n;
        }
        diff.runs.retain(|r| r.1 > 0);
        diff
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
        let h = m.histogram("lat").unwrap();
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
        assert_eq!(h.try_percentile(50.0), Some(50));
        assert_eq!(h.try_percentile(101.0), None);
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.percentile(99.0), 99);
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
        let lat_sum = |m: &Metrics| m.histogram("lat").map(|h| (h.len(), h.sum()));
        assert_eq!(lat_sum(&m), Some((1, 7)));

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
        assert_eq!(lat_sum(&m), Some((1, 9)));
    }

    /// Every query a `Histogram` answers, against a sorted `Vec` of the
    /// same samples.
    fn assert_matches(h: &Histogram, reference: &[u64], what: &str) {
        let mut sorted = reference.to_vec();
        sorted.sort_unstable();
        assert_eq!(h.len(), sorted.len(), "{what}: len");
        assert_eq!(h.is_empty(), sorted.is_empty(), "{what}: is_empty");
        assert_eq!(h.sum(), sorted.iter().sum::<u64>(), "{what}: sum");
        if sorted.is_empty() {
            assert_eq!((h.mean(), h.p50(), h.p99()), (0.0, 0, 0), "{what}");
            assert_eq!(h.try_percentile(50.0), None, "{what}");
            return;
        }
        let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
        assert_eq!(h.mean(), mean, "{what}: mean");
        assert_eq!(h.min(), sorted[0], "{what}: min");
        assert_eq!(h.max(), *sorted.last().unwrap(), "{what}: max");
        let rank = |p: f64| sorted[((p / 100.0) * (sorted.len() - 1) as f64).floor() as usize];
        for p in [0.0, 0.1, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), rank(p), "{what}: p{p}");
        }
        // `percentile` is `try_percentile` unwrapped, and so are these two.
        assert_eq!((h.p50(), h.p99()), (rank(50.0), rank(99.0)), "{what}");
        assert_eq!(h.try_percentile(100.5), None, "{what}");
    }

    #[test]
    fn histogram_queries_match_a_sorted_reference() {
        use crate::rng::DetRng;
        type Stream = fn(&mut DetRng, u64) -> u64;
        let streams: [(&str, Stream); 5] = [
            ("duplicates", |r, _| r.range_u64(0, 8)),
            ("distinct", |_, i| {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24
            }),
            ("ascending", |_, i| i),
            ("descending", |_, i| 1_000_000 - i),
            ("wide", |r, _| r.range_u64(0, 1 << 40)),
        ];
        for (seed, (name, draw)) in streams.into_iter().enumerate() {
            let mut rng = DetRng::new(seed as u64);
            let m = Metrics::new();
            let hist = m.hist_handle("h");
            let mut reference = Vec::new();
            let mut fork: Option<(Histogram, Vec<u64>)> = None;
            // Lengths straddle folds: before the first, at FOLD, long after
            // (the last round leaves "distinct" with 18k values, as E4 has).
            for (round, n) in [0u64, 1, 5, 63, 64, 65, 700, 5000, 12_000]
                .into_iter()
                .enumerate()
            {
                let window_start = hist.read(Histogram::clone);
                let from = reference.len();
                for i in 0..n {
                    let v = draw(&mut rng, reference.len() as u64);
                    hist.record_value(v);
                    reference.push(v);
                    if let Some((f, fref)) = &mut fork {
                        let w = draw(&mut rng, i) ^ 1;
                        f.record(w);
                        fref.push(w);
                    }
                }
                let what = format!("{name} round {round}");
                hist.read(|h| assert_matches(h, &reference, &what));
                let window = hist.read(|h| h.since(&window_start));
                assert_matches(&window, &reference[from..], &format!("{what} window"));
                if let Some((f, fref)) = &fork {
                    assert_matches(f, fref, &format!("{what} clone"));
                }
                if round == 4 {
                    // A clone records on its own from here.
                    fork = Some((hist.read(Histogram::clone), reference.clone()));
                }
                if round == 6 {
                    m.reset();
                    reference.clear();
                    hist.read(|h| assert_matches(h, &[], "after reset"));
                }
            }
        }
    }
}
