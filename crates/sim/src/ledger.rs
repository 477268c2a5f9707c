//! Per-operation cost attribution.
//!
//! The disaggregated-memory literature judges a data-store design by its
//! *communication cost per operation* — round trips, doorbells, wire bytes —
//! not by latency averages alone. An [`OpLedger`] is a lightweight handle
//! created at a client API boundary (`get`, `put`, `read`, `write_ck`, …)
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
//! When the ledger is finished the charges are folded into per-op-type
//! histograms and counters under the `ops.<op>.*` namespace of a
//! [`Metrics`] registry — through an [`OpMetrics`] handle set the owner
//! resolves once per op type — from which [`summarize`] derives deterministic
//! [`OpSummary`] rows (`rtts_per_op` p50/p99/max and friends) for the
//! benchmark JSON and the CI perf gate.
//!
//! Like `sim::trace`, a disabled ledger is free: [`OpLedger::disabled`]
//! holds no allocation and every charge method is a branch on `None`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::metrics::{Counter, Hist, Metrics};
use crate::optrace::OpTrace;
use crate::time::SimTime;

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

/// The layer charging virtual time via [`OpLedger::layer_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// WR build + doorbell posting overhead on the client NIC.
    Post,
    /// Fabric transmission time.
    Wire,
    /// NIC processing / server-side time.
    Server,
}

/// The `ops.<op>.*` metrics of one op type, resolved once by whoever
/// starts that op's ledgers, so that folding a finished ledger touches no
/// name.
#[derive(Debug)]
pub struct OpMetrics {
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
    /// Resolves the `ops.<op>.*` names in `metrics`.
    pub fn resolve(metrics: &Metrics, op: &str) -> Rc<OpMetrics> {
        let m = metrics.scoped("ops").scoped(op);
        Rc::new(OpMetrics {
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

struct Inner {
    metrics: Rc<OpMetrics>,
    started: SimTime,
    costs: RefCell<OpCosts>,
    finished: Cell<bool>,
    trace: OpTrace,
}

/// A per-operation cost ledger handle.
///
/// Cheap to clone (an `Option<Rc>`); clones share the same cost
/// accumulator, so a ledger can be handed to concurrently in-flight pieces
/// of the same logical op. Created either enabled via [`OpLedger::start`]
/// or as the free [`OpLedger::disabled`] default.
#[derive(Clone, Default)]
pub struct OpLedger {
    inner: Option<Rc<Inner>>,
}

impl OpLedger {
    /// A ledger that ignores every charge. Free: no allocation, and each
    /// charge is a single branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Starts an enabled ledger for one operation of `op`'s type at virtual
    /// time `now`. Charges fold into `op`'s metrics on [`OpLedger::finish`].
    pub fn start(op: &Rc<OpMetrics>, now: SimTime) -> Self {
        Self::start_traced(op, now, OpTrace::disabled())
    }

    /// [`OpLedger::start`] with an attached causal [`OpTrace`]: the trace
    /// rides inside the ledger so every layer holding a ledger clone can
    /// stamp phase spans, and [`OpLedger::finish`] finishes both.
    pub fn start_traced(op: &Rc<OpMetrics>, now: SimTime, trace: OpTrace) -> Self {
        Self {
            inner: Some(Rc::new(Inner {
                metrics: op.clone(),
                started: now,
                costs: RefCell::new(OpCosts {
                    units: 1,
                    ..OpCosts::default()
                }),
                finished: Cell::new(false),
                trace,
            })),
        }
    }

    /// The causal trace riding in this ledger ([`OpTrace::disabled`] when
    /// the ledger is disabled or no trace was attached). Cheap to call:
    /// clones an `Option<Rc>`.
    pub fn optrace(&self) -> OpTrace {
        self.inner
            .as_ref()
            .map(|i| i.trace.clone())
            .unwrap_or_default()
    }

    /// True if charges are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn charge(&self, f: impl FnOnce(&mut OpCosts)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.costs.borrow_mut());
        }
    }

    /// Charges one round trip: a posting round that awaited a completion.
    pub fn rtt(&self) {
        self.charge(|c| c.rtts += 1);
    }

    /// Charges one doorbell ring.
    pub fn doorbell(&self) {
        self.charge(|c| c.doorbells += 1);
    }

    /// Charges `bytes` wire bytes.
    pub fn wire(&self, bytes: u64) {
        self.charge(|c| c.wire_bytes += bytes);
    }

    /// Charges one retry (re-post to the same replica).
    pub fn retry(&self) {
        self.charge(|c| c.retries += 1);
    }

    /// Charges one failover (advance to a different replica).
    pub fn failover(&self) {
        self.charge(|c| c.failovers += 1);
    }

    /// Charges one checksum verification failure.
    pub fn verify_failure(&self) {
        self.charge(|c| c.verify_failures += 1);
    }

    /// Charges `ns` of virtual time to `layer`.
    pub fn layer_ns(&self, layer: Layer, ns: u64) {
        self.charge(|c| match layer {
            Layer::Post => c.post_ns += ns,
            Layer::Wire => c.wire_ns += ns,
            Layer::Server => c.server_ns += ns,
        });
    }

    /// Declares this op to cover `units` logical units (e.g. the number of
    /// keys in a `multi_get`), for per-unit rates downstream.
    pub fn set_units(&self, units: u64) {
        self.charge(|c| c.units = units.max(1));
    }

    /// Adds `other`'s accumulated costs into this ledger (without touching
    /// `other`'s units). Used when a sub-operation keeps its own ledger —
    /// e.g. `put` absorbing the CAS it issued — so the parent's totals
    /// still cover the whole logical op.
    pub fn absorb(&self, other: &OpLedger) {
        let Some(other) = &other.inner else { return };
        let o = *other.costs.borrow();
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
        self.inner.as_ref().map(|i| *i.costs.borrow())
    }

    /// Folds the accumulated charges into the registry. Idempotent: only
    /// the first call on a given ledger (across all clones) records.
    /// Elapsed virtual time not attributed to post/wire/server is charged
    /// to client logic.
    pub fn finish(&self, now: SimTime) {
        self.finish_with(now, None);
    }

    /// [`OpLedger::finish`] for an op that failed with a structured error:
    /// charges fold identically, and the attached trace (if any) records
    /// `reason`, which makes the forensics registry dump a triage bundle.
    pub fn finish_err(&self, now: SimTime, reason: &'static str) {
        self.finish_with(now, Some(reason));
    }

    fn finish_with(&self, now: SimTime, error: Option<&'static str>) {
        let Some(inner) = &self.inner else { return };
        if inner.finished.replace(true) {
            return;
        }
        inner.trace.finish(now, error);
        let c = *inner.costs.borrow();
        let m = &inner.metrics;
        let elapsed = now.saturating_since(inner.started).as_nanos() as u64;
        let client_ns = elapsed.saturating_sub(c.post_ns + c.wire_ns + c.server_ns);
        m.count.incr();
        m.units.add(c.units);
        m.rtts.record_value(c.rtts);
        m.doorbells.record_value(c.doorbells);
        m.bytes.record_value(c.wire_bytes);
        m.retries.add(c.retries);
        m.failovers.add(c.failovers);
        m.verify_failures.add(c.verify_failures);
        m.client_ns.add(client_ns);
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
    use std::time::Duration;

    #[test]
    fn disabled_ledger_ignores_all_charges() {
        let l = OpLedger::disabled();
        assert!(!l.enabled());
        l.rtt();
        l.doorbell();
        l.wire(4096);
        l.retry();
        l.failover();
        l.verify_failure();
        l.layer_ns(Layer::Post, 100);
        l.set_units(8);
        l.finish(SimTime::from_nanos(500));
        assert_eq!(l.costs(), None);
        let m = Metrics::new();
        assert!(summarize(&m).is_empty());
    }

    #[test]
    fn charges_fold_into_metrics_on_finish() {
        let m = Metrics::new();
        let l = OpLedger::start(&OpMetrics::resolve(&m, "get"), SimTime::from_nanos(1_000));
        assert!(l.enabled());
        l.rtt();
        l.doorbell();
        l.wire(512);
        l.layer_ns(Layer::Post, 150);
        l.layer_ns(Layer::Wire, 400);
        l.layer_ns(Layer::Server, 250);
        l.finish(SimTime::from_nanos(2_000));
        // Idempotent across clones.
        l.clone().finish(SimTime::from_nanos(9_000));
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
    fn clones_share_the_accumulator() {
        let m = Metrics::new();
        let l = OpLedger::start(&OpMetrics::resolve(&m, "read"), SimTime::ZERO);
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
        let put = OpLedger::start(&OpMetrics::resolve(&m, "put"), SimTime::ZERO);
        put.rtt();
        put.set_units(3);
        let cas = OpLedger::start(&OpMetrics::resolve(&m, "cas"), SimTime::ZERO);
        cas.rtt();
        cas.wire(64);
        cas.finish(SimTime::from_nanos(10));
        put.absorb(&cas);
        let c = put.costs().unwrap();
        assert_eq!(c.rtts, 2);
        assert_eq!(c.wire_bytes, 64);
        // Units are the parent's own.
        assert_eq!(c.units, 3);
        // Absorbing a disabled ledger is a no-op.
        put.absorb(&OpLedger::disabled());
        assert_eq!(put.costs().unwrap().rtts, 2);
        put.finish(SimTime::from_nanos(20));
        let s = summarize(&m);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].op, "cas");
        assert_eq!(s[1].op, "put");
        assert_eq!(s[1].rtts_total, 2);
    }

    #[test]
    fn traced_ledger_finishes_the_trace_with_it() {
        use crate::optrace::{Forensics, ForensicsConfig};
        use std::rc::Rc;
        let f = Forensics::from_parts(Forensics::new_buf(), Rc::new(|| SimTime::ZERO));
        f.enable(ForensicsConfig::default());
        let m = Metrics::new();
        let tr = f.start("get", SimTime::ZERO);
        let l = OpLedger::start_traced(&OpMetrics::resolve(&m, "get"), SimTime::ZERO, tr);
        assert!(l.optrace().enabled());
        l.rtt();
        l.finish(SimTime::from_nanos(250));
        assert_eq!(f.finished(), 1);
        assert_eq!(f.ring()[0].elapsed_ns, 250);
        // An error finish on a fresh op dumps a triage bundle.
        let l2 = OpLedger::start_traced(
            &OpMetrics::resolve(&m, "get"),
            SimTime::ZERO,
            f.start("get", SimTime::ZERO),
        );
        l2.finish_err(SimTime::from_nanos(990), "timeout");
        assert_eq!(f.failed(), 1);
        assert!(f.last_bundle().is_some());
        // A plain ledger exposes a disabled trace.
        assert!(
            !OpLedger::start(&OpMetrics::resolve(&m, "put"), SimTime::ZERO)
                .optrace()
                .enabled()
        );
        assert!(!OpLedger::disabled().optrace().enabled());
    }

    #[test]
    fn summarize_orders_ops_lexicographically_and_skips_nested() {
        let m = Metrics::new();
        for op in ["write", "get", "multi_get"] {
            let l = OpLedger::start(&OpMetrics::resolve(&m, op), SimTime::ZERO);
            l.rtt();
            l.finish(SimTime::from_nanos(5));
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
