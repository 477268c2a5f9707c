//! The per-operation handle: what one logical op cost, and — when spans are
//! recorded — why it took as long as it did.
//!
//! The disaggregated-memory literature judges a data-store design by its
//! *communication cost per operation* — round trips, doorbells, wire bytes —
//! not by latency averages alone. An [`OpLedger`] is a lightweight handle
//! started at a client API boundary (`get`, `put`, `read`, `write_ck`, …)
//! and threaded down through the region/KV/RDMA layers, each of which
//! *charges* the costs it incurs:
//!
//! * **RTTs** — posting rounds that awaited at least one completion,
//! * **doorbells** — distinct NIC doorbell rings (batched posts ring once),
//! * **wire bytes** — request bytes incl. headers plus read/atomic response
//!   payload,
//! * **retries / failovers / verify failures** — recovery actions taken,
//! * a **per-layer virtual-time split** — time spent building/posting WRs
//!   (`post`), on the fabric (`wire`), in the simulated NIC/server
//!   (`server`), with the remainder attributed to client logic (`client`).
//!
//! How much a handle keeps is the simulation's one switch
//! ([`Recorder::enable`]): at [`Level::Off`] it is a `None` and every charge
//! a branch; at [`Level::Costs`] it accumulates the counters above; at
//! [`Level::Spans`] the same stamps also build the op's causal span tree of
//! [`Phase`]s (see [`crate::optrace`] for what is made of it). One fact is
//! one call: the device's two composite stamps, [`OpLedger::posted`] and
//! [`OpLedger::completed`], feed the cost split and the span tree from one
//! computation, so the two views cannot disagree.
//!
//! When the handle is finished the charges are folded into per-op-type
//! histograms and counters under the `ops.<op>.*` namespace of a
//! [`Metrics`] registry — through an [`OpMetrics`] handle set the owner
//! resolves once per op type — from which [`summarize`] derives
//! deterministic [`OpSummary`] rows (`rtts_per_op` p50/p99/max and friends)
//! for the benchmark JSON and CI's exact baseline gate.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::metrics::{Counter, Hist, Metrics};
use crate::optrace::{analyze, FlightRec};
use crate::time::SimTime;
use crate::trace::{Level, Recorder};

/// Number of [`Phase`] variants (the length of a blame vector).
pub const NUM_PHASES: usize = 12;

/// Maximum span-tree nesting depth recorded; deeper spans are clamped.
pub(crate) const MAX_OPEN: usize = 16;

/// Spans recorded per op before further records are dropped (counted).
const MAX_SPANS: usize = 8192;

/// Raw cost counters accumulated by one logical operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCosts {
    /// Posting rounds that awaited at least one completion.
    pub rtts: u64,
    /// NIC doorbell rings (a batched post of N WRs rings once).
    pub doorbells: u64,
    /// Wire bytes: request messages incl. headers, plus the response
    /// payload of reads and atomics.
    pub wire_bytes: u64,
    /// Re-posts to the same replica after a transient failure.
    pub retries: u64,
    /// Advances to a different replica after exhausting retries.
    pub failovers: u64,
    /// Checksum verification failures observed while reading.
    pub verify_failures: u64,
    /// Virtual time spent building and posting work requests.
    pub post_ns: u64,
    /// Virtual time attributed to the fabric wire.
    pub wire_ns: u64,
    /// Virtual time attributed to the NIC/server side.
    pub server_ns: u64,
    /// Logical units covered by this op (keys in a `multi_get`); at least 1.
    pub units: u64,
}

/// A causally-distinct phase of a logical operation's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// WR build + posting overhead on the client NIC.
    Post = 0,
    /// NIC doorbell ring (instant; recorded as a zero-duration mark).
    Doorbell = 1,
    /// Fabric transmission time.
    Wire = 2,
    /// Simulated NIC / server-side residency.
    Server = 3,
    /// Completion-queue settle: WR resolved but held for in-order release.
    Cqe = 4,
    /// Retry rounds: backoff and re-posting after transient failures.
    Retry = 5,
    /// Failover: advancing to a different replica.
    Failover = 6,
    /// KV slot lock-wait (seqlock held by a concurrent writer).
    LockWait = 7,
    /// Breaking an orphaned KV slot lock via CAS.
    LockBreak = 8,
    /// Descriptor / generation revalidation against the master.
    Reval = 9,
    /// Stall while an extent is sealed for migration or repair.
    Seal = 10,
    /// Client-side logic: elapsed time no other phase explains.
    Client = 11,
}

impl Phase {
    /// Every phase, in blame-vector index order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Post,
        Phase::Doorbell,
        Phase::Wire,
        Phase::Server,
        Phase::Cqe,
        Phase::Retry,
        Phase::Failover,
        Phase::LockWait,
        Phase::LockBreak,
        Phase::Reval,
        Phase::Seal,
        Phase::Client,
    ];

    /// Stable lowercase name used in exports and registry docs.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Post => "post",
            Phase::Doorbell => "doorbell",
            Phase::Wire => "wire",
            Phase::Server => "server",
            Phase::Cqe => "cqe",
            Phase::Retry => "retry",
            Phase::Failover => "failover",
            Phase::LockWait => "lock_wait",
            Phase::LockBreak => "lock_break",
            Phase::Reval => "reval",
            Phase::Seal => "seal",
            Phase::Client => "client",
        }
    }
}

/// One recorded span of an op's tree, in preorder; `depth` encodes nesting
/// (a span's parent is the nearest earlier span with a smaller depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// The phase this span attributes time to.
    pub phase: Phase,
    /// Virtual start time, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// Nesting depth (0 = root).
    pub depth: u8,
}

/// Everything one op type folds into, resolved once by whoever starts that
/// type's ops, so that finishing an op touches no name: its `ops.<op>.*`
/// metrics, the `optrace.*` counters of its registry, and the registry
/// itself (what a triage bundle snapshots).
#[derive(Debug)]
pub struct OpMetrics {
    pub(crate) kind: &'static str,
    pub(crate) registry: Metrics,
    pub(crate) finished: Counter,
    pub(crate) failed: Counter,
    pub(crate) bundles: Counter,
    count: Counter,
    units: Counter,
    rtts: Hist,
    doorbells: Hist,
    bytes: Hist,
    retries: Counter,
    failovers: Counter,
    verify_failures: Counter,
    client_ns: Counter,
    post_ns: Counter,
    wire_ns: Counter,
    server_ns: Counter,
}

impl OpMetrics {
    /// Resolves op type `op`'s names in `metrics`.
    pub fn resolve(metrics: &Metrics, op: &'static str) -> Rc<OpMetrics> {
        let m = metrics.scoped("ops").scoped(op);
        Rc::new(OpMetrics {
            kind: op,
            registry: metrics.clone(),
            finished: metrics.counter_handle("optrace.finished"),
            failed: metrics.counter_handle("optrace.failed"),
            bundles: metrics.counter_handle("optrace.bundles"),
            count: m.counter_handle("count"),
            units: m.counter_handle("units"),
            rtts: m.hist_handle("rtts"),
            doorbells: m.hist_handle("doorbells"),
            bytes: m.hist_handle("bytes"),
            retries: m.counter_handle("retries"),
            failovers: m.counter_handle("failovers"),
            verify_failures: m.counter_handle("verify_failures"),
            client_ns: m.counter_handle("time.client_ns"),
            post_ns: m.counter_handle("time.post_ns"),
            wire_ns: m.counter_handle("time.wire_ns"),
            server_ns: m.counter_handle("time.server_ns"),
        })
    }
}

/// The span tree under construction (only while spans are recorded).
struct SpanTree {
    id: u64,
    spans: Vec<SpanRec>,
    open: [u32; MAX_OPEN],
    open_len: u8,
    dropped: u32,
}

impl SpanTree {
    /// Records a completed span of `phase`, nested under whatever span is
    /// currently open.
    fn span(&mut self, phase: Phase, start_ns: u64, dur_ns: u64) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let depth = self.open_len.min(MAX_OPEN as u8);
        self.spans.push(SpanRec {
            phase,
            start_ns,
            dur_ns,
            depth,
        });
    }
}

struct State {
    costs: OpCosts,
    tree: Option<SpanTree>,
}

impl State {
    fn span(&mut self, phase: Phase, start_ns: u64, dur_ns: u64) {
        if let Some(tree) = &mut self.tree {
            tree.span(phase, start_ns, dur_ns);
        }
    }
}

struct Inner {
    rec: Recorder,
    metrics: Rc<OpMetrics>,
    started: SimTime,
    finished: Cell<bool>,
    state: RefCell<State>,
}

/// Token for an open span returned by [`OpLedger::begin`]; pass it back to
/// [`OpLedger::end`]. Inert unless spans are recorded.
#[derive(Clone, Copy, Debug)]
#[must_use = "a begun span should be ended with OpLedger::end"]
pub struct SpanToken(u32);

const DEAD_TOKEN: SpanToken = SpanToken(u32::MAX);

/// One work request's completion, as the device reports it to
/// [`OpLedger::completed`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// When the WR was posted.
    pub posted_at: SimTime,
    /// Doorbell/WQE-build time already charged for it by
    /// [`OpLedger::posted`].
    pub post_ns: u64,
    /// When its last response was in (the WR resolved); from here to `now`
    /// it waited for in-order release.
    pub resolved_at: SimTime,
    /// When its completion was released.
    pub now: SimTime,
    /// The NIC's processing delay, paid once per direction.
    pub nic_ns: u64,
    /// Whether it succeeded.
    pub ok: bool,
    /// Response payload bytes it carried back (reads and atomics).
    pub response_bytes: u64,
}

/// The handle of one logical operation.
///
/// Cheap to clone (an `Option<Rc>`); clones share the same accumulator, so
/// a handle can be handed to concurrently in-flight pieces of the same
/// logical op and rides in every work request posted for it. All stamps
/// take explicit virtual times so the hot paths need no clock access.
#[derive(Clone, Default)]
pub struct OpLedger {
    inner: Option<Rc<Inner>>,
}

impl OpLedger {
    /// A handle that ignores every charge. Free: no allocation, and each
    /// charge is a single branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Starts the handle of one `op`-type operation at virtual time `now`,
    /// recording as much as `rec`'s level says — at [`Level::Off`], the
    /// free disabled handle. An op id is drawn only when spans are recorded.
    pub fn start(rec: &Recorder, op: &Rc<OpMetrics>, now: SimTime) -> Self {
        let tree = match rec.level() {
            Level::Off => return Self::disabled(),
            Level::Costs => None,
            Level::Spans(_) => {
                let (id, spans) = rec.shared.ops.borrow_mut().open();
                Some(SpanTree {
                    id,
                    spans,
                    open: [0; MAX_OPEN],
                    open_len: 0,
                    dropped: 0,
                })
            }
        };
        let costs = OpCosts {
            units: 1,
            ..OpCosts::default()
        };
        Self {
            inner: Some(Rc::new(Inner {
                rec: rec.clone(),
                metrics: op.clone(),
                started: now,
                finished: Cell::new(false),
                state: RefCell::new(State { costs, tree }),
            })),
        }
    }

    /// True if charges are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The per-simulation op id (0 unless spans are recorded).
    pub fn id(&self) -> u64 {
        self.with(|st| st.tree.as_ref().map_or(0, |t| t.id))
            .unwrap_or(0)
    }

    fn with<R>(&self, f: impl FnOnce(&mut State) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&mut i.state.borrow_mut()))
    }

    fn charge(&self, f: impl FnOnce(&mut OpCosts)) {
        self.with(|st| f(&mut st.costs));
    }

    /// Charges one round trip: a posting round that awaited a completion.
    pub fn rtt(&self) {
        self.charge(|c| c.rtts += 1);
    }

    /// Charges `bytes` wire bytes.
    pub fn wire(&self, bytes: u64) {
        self.charge(|c| c.wire_bytes += bytes);
    }

    /// Charges one retry (re-post to the same replica).
    pub fn retry(&self) {
        self.charge(|c| c.retries += 1);
    }

    /// Charges one failover (advance to a different replica), marked at
    /// `now` in the span tree.
    pub fn failover(&self, now: SimTime) {
        self.with(|st| {
            st.costs.failovers += 1;
            st.span(Phase::Failover, now.as_nanos(), 0);
        });
    }

    /// Charges one checksum verification failure.
    pub fn verify_failure(&self) {
        self.charge(|c| c.verify_failures += 1);
    }

    /// Declares this op to cover `units` logical units (e.g. the number of
    /// keys in a `multi_get`), for per-unit rates downstream.
    pub fn set_units(&self, units: u64) {
        self.charge(|c| c.units = units.max(1));
    }

    /// The device rang one doorbell at `now` for a chunk of this op's work
    /// requests whose WQEs take `post_ns` to build.
    pub fn posted(&self, now: SimTime, post_ns: u64) {
        self.with(|st| {
            st.costs.doorbells += 1;
            st.costs.post_ns += post_ns;
            st.span(Phase::Doorbell, now.as_nanos(), 0);
            st.span(Phase::Post, now.as_nanos(), post_ns);
        });
    }

    /// One of this op's work requests left the send queue. The round trip
    /// is split here, once: after the posting cost already charged, the
    /// time until the WR resolved is NIC/server residency (the NIC delay,
    /// once per direction) and fabric wire time, and what follows is CQE
    /// settle, waiting for in-order release. The span tree keeps the three
    /// apart; the cost split counts settle as wire. A failed attempt's
    /// whole wait goes to the retry phase — recovery is what follows it —
    /// and to no cost layer (the remainder is the client's).
    pub fn completed(&self, c: Completion) {
        self.with(|st| {
            let start_ns = c.posted_at.as_nanos() + c.post_ns;
            let elapsed = c.now.saturating_since(c.posted_at).as_nanos() as u64;
            if !c.ok {
                st.span(Phase::Retry, start_ns, elapsed.saturating_sub(c.post_ns));
                return;
            }
            let settle = c.now.saturating_since(c.resolved_at).as_nanos() as u64;
            let active = elapsed.saturating_sub(c.post_ns + settle);
            let server_ns = (2 * c.nic_ns).min(active);
            let wire_ns = active - server_ns;
            st.costs.wire_bytes += c.response_bytes;
            st.costs.server_ns += server_ns;
            st.costs.wire_ns += wire_ns + settle;
            st.span(Phase::Wire, start_ns, wire_ns);
            st.span(Phase::Server, start_ns + wire_ns, server_ns);
            if settle > 0 {
                st.span(Phase::Cqe, c.resolved_at.as_nanos(), settle);
            }
        });
    }

    /// Opens a span of `phase` at `now`; close it with [`OpLedger::end`].
    /// Spans opened while another is open become its children.
    pub fn begin(&self, phase: Phase, now: SimTime) -> SpanToken {
        self.with(|st| {
            let Some(tree) = &mut st.tree else {
                return DEAD_TOKEN;
            };
            if tree.spans.len() >= MAX_SPANS {
                tree.dropped += 1;
                return DEAD_TOKEN;
            }
            let idx = tree.spans.len() as u32;
            tree.spans.push(SpanRec {
                phase,
                start_ns: now.as_nanos(),
                dur_ns: 0,
                depth: tree.open_len.min(MAX_OPEN as u8 - 1),
            });
            if (tree.open_len as usize) < MAX_OPEN {
                tree.open[tree.open_len as usize] = idx;
                tree.open_len += 1;
            }
            SpanToken(idx)
        })
        .unwrap_or(DEAD_TOKEN)
    }

    /// Closes the span opened by `token`, stamping its duration.
    pub fn end(&self, token: SpanToken, now: SimTime) {
        if token.0 == u32::MAX {
            return;
        }
        self.with(|st| {
            let Some(tree) = &mut st.tree else { return };
            if let Some(s) = tree.spans.get_mut(token.0 as usize) {
                s.dur_ns = now.as_nanos().saturating_sub(s.start_ns);
            }
            // Pop the open stack down past this span (spans close LIFO;
            // anything above a span being closed is already logically
            // closed).
            while tree.open_len > 0 && tree.open[tree.open_len as usize - 1] >= token.0 {
                tree.open_len -= 1;
            }
        });
    }

    /// Adds `other`'s accumulated costs into this handle (without touching
    /// `other`'s units or spans). Used when a sub-operation keeps its own
    /// handle — e.g. `put` absorbing the CAS it issued — so the parent's
    /// totals still cover the whole logical op.
    pub fn absorb(&self, other: &OpLedger) {
        let Some(o) = other.costs() else { return };
        self.charge(|c| {
            c.rtts += o.rtts;
            c.doorbells += o.doorbells;
            c.wire_bytes += o.wire_bytes;
            c.retries += o.retries;
            c.failovers += o.failovers;
            c.verify_failures += o.verify_failures;
            c.post_ns += o.post_ns;
            c.wire_ns += o.wire_ns;
            c.server_ns += o.server_ns;
        });
    }

    /// Snapshot of the costs charged so far (`None` when disabled).
    pub fn costs(&self) -> Option<OpCosts> {
        self.with(|st| st.costs)
    }

    /// Finishes the op at `now`, with `error` naming a structured failure.
    /// When spans were recorded the op is filed with the flight recorder
    /// and the exemplar reservoir, and a failure dumps a triage bundle;
    /// then the charges fold into the registry, elapsed virtual time not
    /// attributed to post/wire/server going to client logic. Idempotent:
    /// only the first call on a given handle (across all clones) records.
    pub fn finish(&self, now: SimTime, error: Option<&'static str>) {
        let Some(inner) = &self.inner else { return };
        if inner.finished.replace(true) {
            return;
        }
        let m = &inner.metrics;
        let elapsed = now.saturating_since(inner.started).as_nanos() as u64;
        let (c, tree) = {
            let mut st = inner.state.borrow_mut();
            (st.costs, st.tree.take())
        };
        if let Some(tree) = tree {
            let flight = FlightRec {
                id: tree.id,
                kind: m.kind,
                start_ns: inner.started.as_nanos(),
                elapsed_ns: elapsed,
                blame: analyze(&tree.spans, elapsed),
                spans: tree.spans.len() as u32 + tree.dropped,
                error,
            };
            let mut log = inner.rec.shared.ops.borrow_mut();
            log.file(m, flight, tree.spans);
        }
        m.count.incr();
        m.units.add(c.units);
        m.rtts.record_value(c.rtts);
        m.doorbells.record_value(c.doorbells);
        m.bytes.record_value(c.wire_bytes);
        m.retries.add(c.retries);
        m.failovers.add(c.failovers);
        m.verify_failures.add(c.verify_failures);
        m.client_ns
            .add(elapsed.saturating_sub(c.post_ns + c.wire_ns + c.server_ns));
        m.post_ns.add(c.post_ns);
        m.wire_ns.add(c.wire_ns);
        m.server_ns.add(c.server_ns);
    }
}

/// Aggregated per-op-type statistics derived from the `ops.*` namespace of
/// a registry. All-integer so experiment stats embedding it stay `Eq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSummary {
    /// Operation type (`get`, `put`, `read_ck`, …).
    pub op: String,
    /// Finished operations of this type.
    pub count: u64,
    /// Logical units covered (≥ count; keys for `multi_get`).
    pub units: u64,
    /// Round trips per op: median.
    pub rtts_p50: u64,
    /// Round trips per op: 99th percentile.
    pub rtts_p99: u64,
    /// Round trips per op: maximum.
    pub rtts_max: u64,
    /// Total round trips across all ops of this type.
    pub rtts_total: u64,
    /// Doorbells per op: median.
    pub doorbells_p50: u64,
    /// Doorbells per op: 99th percentile.
    pub doorbells_p99: u64,
    /// Doorbells per op: maximum.
    pub doorbells_max: u64,
    /// Total doorbell rings.
    pub doorbells_total: u64,
    /// Wire bytes per op: median.
    pub bytes_p50: u64,
    /// Wire bytes per op: 99th percentile.
    pub bytes_p99: u64,
    /// Wire bytes per op: maximum.
    pub bytes_max: u64,
    /// Total wire bytes.
    pub bytes_total: u64,
    /// Total retries.
    pub retries: u64,
    /// Total failovers.
    pub failovers: u64,
    /// Total checksum verification failures.
    pub verify_failures: u64,
    /// Virtual time attributed to client logic, summed over ops.
    pub client_ns: u64,
    /// Virtual time attributed to WR build/post, summed over ops.
    pub post_ns: u64,
    /// Virtual time attributed to the fabric wire, summed over ops.
    pub wire_ns: u64,
    /// Virtual time attributed to the NIC/server, summed over ops.
    pub server_ns: u64,
}

/// Derives one [`OpSummary`] per op type recorded in `metrics`, in
/// deterministic (lexicographic) op order.
pub fn summarize(metrics: &Metrics) -> Vec<OpSummary> {
    let mut out = Vec::new();
    for name in metrics.counter_names() {
        let Some(rest) = name.strip_prefix("ops.") else {
            continue;
        };
        let Some(op) = rest.strip_suffix(".count") else {
            continue;
        };
        if op.contains('.') {
            continue;
        }
        let scope = metrics.scoped("ops").scoped(op);
        let hist = |h: &str| scope.histogram(h).unwrap_or_default();
        let rtts = hist("rtts");
        let doorbells = hist("doorbells");
        let bytes = hist("bytes");
        out.push(OpSummary {
            op: op.to_string(),
            count: scope.counter("count"),
            units: scope.counter("units"),
            rtts_p50: rtts.p50(),
            rtts_p99: rtts.p99(),
            rtts_max: rtts.try_percentile(100.0).unwrap_or(0),
            rtts_total: rtts.sum(),
            doorbells_p50: doorbells.p50(),
            doorbells_p99: doorbells.p99(),
            doorbells_max: doorbells.try_percentile(100.0).unwrap_or(0),
            doorbells_total: doorbells.sum(),
            bytes_p50: bytes.p50(),
            bytes_p99: bytes.p99(),
            bytes_max: bytes.try_percentile(100.0).unwrap_or(0),
            bytes_total: bytes.sum(),
            retries: scope.counter("retries"),
            failovers: scope.counter("failovers"),
            verify_failures: scope.counter("verify_failures"),
            client_ns: scope.counter("time.client_ns"),
            post_ns: scope.counter("time.post_ns"),
            wire_ns: scope.counter("time.wire_ns"),
            server_ns: scope.counter("time.server_ns"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optrace::ForensicsConfig;
    use crate::Sim;
    use std::time::Duration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A recorder at `Level::Costs`.
    fn costs() -> Recorder {
        let rec = Sim::new().recorder();
        rec.enable(Level::Costs, 0);
        rec
    }

    /// A successful WR posted at `posted_at` (its 150 ns of posting already
    /// charged) that resolved and was released at `now`, on a 125 ns NIC.
    fn wr(posted_at: u64, now: u64) -> Completion {
        Completion {
            posted_at: t(posted_at),
            post_ns: 150,
            resolved_at: t(now),
            now: t(now),
            nic_ns: 125,
            ok: true,
            response_bytes: 0,
        }
    }

    #[test]
    fn disabled_ledger_ignores_all_charges() {
        let l = OpLedger::disabled();
        assert!(!l.enabled());
        l.rtt();
        l.wire(4096);
        l.retry();
        l.failover(t(1));
        l.verify_failure();
        l.posted(t(0), 100);
        l.completed(wr(0, 400));
        l.set_units(8);
        l.finish(t(500), None);
        assert_eq!(l.costs(), None);
        // With the switch off, a started handle is the disabled one.
        let m = Metrics::new();
        let rec = Sim::new().recorder();
        let l = OpLedger::start(&rec, &OpMetrics::resolve(&m, "get"), t(0));
        assert!(!l.enabled());
        l.finish(t(500), None);
        assert!(summarize(&m).is_empty());
        assert!(m.counter_names().is_empty());
    }

    #[test]
    fn charges_fold_into_metrics_on_finish() {
        let m = Metrics::new();
        let l = OpLedger::start(&costs(), &OpMetrics::resolve(&m, "get"), t(1_000));
        assert!(l.enabled());
        l.rtt();
        l.wire(512);
        l.posted(t(1_000), 150);
        // 800 ns round trip: 150 post, 2 × 125 server, 400 wire.
        l.completed(wr(1_000, 1_800));
        l.finish(t(2_000), None);
        // Idempotent across clones.
        l.clone().finish(t(9_000), None);
        assert_eq!(m.counter("ops.get.count"), 1);
        assert_eq!(m.counter("ops.get.units"), 1);
        assert_eq!(m.counter("ops.get.time.post_ns"), 150);
        assert_eq!(m.counter("ops.get.time.wire_ns"), 400);
        assert_eq!(m.counter("ops.get.time.server_ns"), 250);
        // 1000 elapsed − 800 attributed = 200 client.
        assert_eq!(m.counter("ops.get.time.client_ns"), 200);
        let s = summarize(&m);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].op, "get");
        assert_eq!(s[0].rtts_p50, 1);
        assert_eq!(s[0].rtts_max, 1);
        assert_eq!(s[0].bytes_total, 512);
        assert_eq!(s[0].doorbells_total, 1);
    }

    #[test]
    fn one_split_feeds_the_cost_layers_and_the_span_tree() {
        let rec = Sim::new().recorder();
        rec.enable(Level::Spans(ForensicsConfig::default()), 0);
        let m = Metrics::new();
        let l = OpLedger::start(&rec, &OpMetrics::resolve(&m, "read"), t(0));
        l.posted(t(0), 150);
        // Resolved at 900, held 100 ns for in-order release; 64 bytes back.
        l.completed(Completion {
            resolved_at: t(900),
            response_bytes: 64,
            ..wr(0, 1_000)
        });
        // A failed attempt charges no layer: its wait is the retry phase.
        l.completed(Completion {
            ok: false,
            ..wr(1_000, 1_500)
        });
        l.finish(t(1_500), None);
        let c = l.costs().unwrap();
        assert_eq!((c.post_ns, c.server_ns, c.wire_ns), (150, 250, 600));
        assert_eq!(c.wire_bytes, 64);
        let blame = rec.ring()[0].blame;
        let of = |p: Phase| blame[p as usize];
        // The tree keeps settle apart; the ledger counts it as wire.
        assert_eq!(of(Phase::Wire) + of(Phase::Cqe), c.wire_ns);
        assert_eq!((of(Phase::Wire), of(Phase::Cqe)), (500, 100));
        assert_eq!(of(Phase::Server), c.server_ns);
        assert_eq!(of(Phase::Post), c.post_ns);
        assert_eq!(of(Phase::Retry), 350);
        assert_eq!(blame.iter().sum::<u64>(), 1_500);
    }

    #[test]
    fn clones_share_the_accumulator() {
        let m = Metrics::new();
        let l = OpLedger::start(&costs(), &OpMetrics::resolve(&m, "read"), SimTime::ZERO);
        let piece = l.clone();
        piece.rtt();
        piece.wire(100);
        l.rtt();
        let c = l.costs().unwrap();
        assert_eq!(c.rtts, 2);
        assert_eq!(c.wire_bytes, 100);
    }

    #[test]
    fn absorb_adds_sub_op_costs() {
        let m = Metrics::new();
        let rec = costs();
        let put = OpLedger::start(&rec, &OpMetrics::resolve(&m, "put"), SimTime::ZERO);
        put.rtt();
        put.set_units(3);
        let cas = OpLedger::start(&rec, &OpMetrics::resolve(&m, "cas"), SimTime::ZERO);
        cas.rtt();
        cas.wire(64);
        cas.finish(t(10), None);
        put.absorb(&cas);
        let c = put.costs().unwrap();
        assert_eq!(c.rtts, 2);
        assert_eq!(c.wire_bytes, 64);
        // Units are the parent's own.
        assert_eq!(c.units, 3);
        // Absorbing a disabled ledger is a no-op.
        put.absorb(&OpLedger::disabled());
        assert_eq!(put.costs().unwrap().rtts, 2);
        put.finish(t(20), None);
        let s = summarize(&m);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].op, "cas");
        assert_eq!(s[1].op, "put");
        assert_eq!(s[1].rtts_total, 2);
    }

    #[test]
    fn traced_ledger_finishes_the_trace_with_it() {
        let rec = Sim::new().recorder();
        rec.enable(Level::Spans(ForensicsConfig::default()), 0);
        let m = Metrics::new();
        let get = OpMetrics::resolve(&m, "get");
        let l = OpLedger::start(&rec, &get, SimTime::ZERO);
        assert_eq!(l.id(), 1);
        l.rtt();
        l.finish(t(250), None);
        assert_eq!(rec.finished(), 1);
        assert_eq!(rec.ring()[0].elapsed_ns, 250);
        // Spans imply costs: the same finish folded the ledger.
        assert_eq!(m.counter("ops.get.count"), 1);
        assert_eq!(m.counter("optrace.finished"), 1);
        // An error finish on a fresh op dumps a triage bundle.
        let l2 = OpLedger::start(&rec, &get, SimTime::ZERO);
        l2.finish(t(990), Some("timeout"));
        assert_eq!(rec.failed(), 1);
        assert!(rec.last_bundle().is_some());
        assert_eq!(m.counter("optrace.bundles"), 1);
        // Costs alone draws no id and files nothing.
        rec.enable(Level::Costs, 0);
        let plain = OpLedger::start(&rec, &get, SimTime::ZERO);
        assert_eq!(plain.id(), 0);
        assert_eq!(OpLedger::disabled().id(), 0);
    }

    #[test]
    fn summarize_orders_ops_lexicographically_and_skips_nested() {
        let m = Metrics::new();
        let rec = costs();
        for op in ["write", "get", "multi_get"] {
            let l = OpLedger::start(&rec, &OpMetrics::resolve(&m, op), SimTime::ZERO);
            l.rtt();
            l.finish(t(5), None);
        }
        // A stray nested counter must not create a phantom op type.
        m.add("ops.get.sub.count", 1);
        let names: Vec<String> = summarize(&m).into_iter().map(|s| s.op).collect();
        assert_eq!(names, ["get", "multi_get", "write"]);
    }

    #[test]
    fn histogram_sum_matches_samples() {
        let m = Metrics::new();
        for v in [3u64, 5, 7] {
            m.record("h", Duration::from_nanos(v));
        }
        assert_eq!(m.histogram("h").unwrap().sum(), 15);
        assert_eq!(crate::metrics::Histogram::default().sum(), 0);
    }
}
