//! The core layer's metric handles and events: every `rstore.*`, `kv.*`,
//! `integrity.*` and migration name the client, the tables and the master
//! write — counter, histogram, trace span or era note — is spelled here,
//! once, and resolved when its owner is built, so that the data path indexes
//! the registry instead of naming it and records each fact with one call.

use std::cell::OnceCell;
use std::rc::Rc;

use sim::{Counter, Event, Metrics, NoteArg, OpMetrics, Recorder};

use crate::proto::{
    Alloc, Drain, Free, Grow, Heartbeat, Lookup, RegisterServer, Report, ReportCorruption, Request,
    Stat,
};

/// The op types a client starts ledgers for; indexes [`ClientStats::op`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    Read,
    ReadCk,
    ReadMany,
    Write,
    WriteCk,
    WriteMany,
    Get,
    MultiGet,
    Put,
    Delete,
    Cas,
    Resize,
    BulkLoad,
}

impl OpKind {
    /// The `<op>` of each kind's `ops.<op>.*` metrics and flight records, in
    /// declaration order.
    const NAMES: [&'static str; 13] = [
        "read",
        "read_ck",
        "read_many",
        "write",
        "write_ck",
        "write_many",
        "get",
        "multi_get",
        "put",
        "delete",
        "cas",
        "resize",
        "bulk_load",
    ];

    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// The kind an IO on a checksummed region is charged to.
    pub fn checksummed(self) -> OpKind {
        match self {
            OpKind::Read | OpKind::ReadMany => OpKind::ReadCk,
            OpKind::Write | OpKind::WriteMany => OpKind::WriteCk,
            other => other,
        }
    }
}

/// `(trace span, latency histogram)` of each control RPC, indexed by
/// [`CtrlOp::ROW`].
const CTRL_OPS: [(&str, &str); 10] = [
    ("rstore.ctrl.alloc", "rstore.ctrl_latency.alloc"),
    ("rstore.ctrl.grow", "rstore.ctrl_latency.grow"),
    ("rstore.ctrl.lookup", "rstore.ctrl_latency.lookup"),
    ("rstore.ctrl.free", "rstore.ctrl_latency.free"),
    ("rstore.ctrl.stat", "rstore.ctrl_latency.stat"),
    (
        "rstore.ctrl.cluster_stats",
        "rstore.ctrl_latency.cluster_stats",
    ),
    ("rstore.ctrl.register", "rstore.ctrl_latency.register"),
    ("rstore.ctrl.heartbeat", "rstore.ctrl_latency.heartbeat"),
    (
        "rstore.ctrl.report_corruption",
        "rstore.ctrl_latency.report_corruption",
    ),
    ("rstore.ctrl.drain", "rstore.ctrl_latency.drain"),
];

/// A control request, timed under its row of [`CTRL_OPS`].
pub(crate) trait CtrlOp: Request {
    const ROW: usize;
}

macro_rules! ctrl_rows {
    ($($req:ident => $row:literal),* $(,)?) => {$(
        impl CtrlOp for $req {
            const ROW: usize = $row;
        }
    )*};
}

ctrl_rows!(
    Alloc => 0,
    Grow => 1,
    Lookup => 2,
    Free => 3,
    Stat => 4,
    Report => 5,
    RegisterServer => 6,
    Heartbeat => 7,
    ReportCorruption => 8,
    Drain => 9,
);

/// The client's metrics and events, resolved once in
/// `RStoreClient::connect_with`. Spans run on the client's node as track.
pub(crate) struct ClientStats {
    pub desc_stale: Counter,
    /// A revalidation installed a changed descriptor (arg = attempt).
    pub desc_refresh: Event,
    pub inline_writes: Counter,
    pub inline_bytes: Counter,
    /// A stripe failed verification (track = its node, arg = its group).
    pub read_corrupt: Event,
    pub read_bytes: Counter,
    pub write_bytes: Counter,
    /// One read round of one pair (arg = bytes) / of many (arg = pairs).
    pub read: Event,
    pub read_many: Event,
    /// One write round of one pair (arg = bytes) / of many (arg = pairs).
    pub write: Event,
    pub write_many: Event,
    /// One control RPC per [`CTRL_OPS`] row: its span, timed into its
    /// latency histogram.
    ctrl: [Event; 10],
    /// What each [`OpKind`] folds into, resolved by its first recorded op:
    /// with recording off (every benchmark workload) a connect resolves no
    /// `ops.*` name.
    ops: [OnceCell<Rc<OpMetrics>>; 13],
    registry: Metrics,
}

impl ClientStats {
    pub fn resolve(m: &Metrics, rec: &Recorder) -> Self {
        let event = |name| rec.event("core", name);
        ClientStats {
            desc_stale: m.counter_handle("rstore.desc.stale"),
            desc_refresh: event("rstore.desc.refresh")
                .counting(m.counter_handle("rstore.desc.refresh")),
            inline_writes: m.counter_handle("rstore.inline.writes"),
            inline_bytes: m.counter_handle("rstore.inline.bytes"),
            read_corrupt: event("rstore.read.corrupt")
                .counting(m.counter_handle("integrity.read_mismatch")),
            read_bytes: m.counter_handle("rstore.read_bytes"),
            write_bytes: m.counter_handle("rstore.write_bytes"),
            read: event("rstore.read"),
            read_many: event("rstore.read_many"),
            write: event("rstore.write"),
            write_many: event("rstore.write_many"),
            ctrl: CTRL_OPS.map(|(span, latency)| event(span).timing(m.hist_handle(latency))),
            ops: Default::default(),
            registry: m.clone(),
        }
    }

    /// The event of control requests of type `Q`.
    pub fn ctrl<Q: CtrlOp>(&self) -> &Event {
        &self.ctrl[Q::ROW]
    }

    /// What ops of `kind` fold into.
    pub fn op(&self, kind: OpKind) -> &Rc<OpMetrics> {
        self.ops[kind as usize].get_or_init(|| OpMetrics::resolve(&self.registry, kind.name()))
    }
}

/// The table's `kv.*` counters, resolved when the handle is built.
pub(crate) struct KvStats {
    pub hit: Counter,
    pub miss: Counter,
    pub stale: Counter,
    pub invalidate: Counter,
    pub evict: Counter,
    pub refresh: Counter,
    pub slot_corrupt: Counter,
    pub lock_break: Counter,
    pub chase: Counter,
    pub resize_count: Counter,
    pub resize_moved: Counter,
    pub resize_free_failed: Counter,
}

impl KvStats {
    pub fn resolve(m: &Metrics) -> Self {
        KvStats {
            hit: m.counter_handle("kv.index.hit"),
            miss: m.counter_handle("kv.index.miss"),
            stale: m.counter_handle("kv.index.stale"),
            invalidate: m.counter_handle("kv.index.invalidate"),
            evict: m.counter_handle("kv.index.evict"),
            refresh: m.counter_handle("kv.index.refresh"),
            slot_corrupt: m.counter_handle("kv.slot_corrupt"),
            lock_break: m.counter_handle("kv.lock.break"),
            chase: m.counter_handle("kv.lock.chase"),
            resize_count: m.counter_handle("kv.resize.count"),
            resize_moved: m.counter_handle("kv.resize.moved"),
            resize_free_failed: m.counter_handle("kv.resize.free_failed"),
        }
    }
}

/// The master's counters and events, resolved in `Master::spawn`.
pub(crate) struct MasterStats {
    pub scrub_passes: Counter,
    pub scrub_mismatch: Counter,
    /// `integrity.detected`, which [`MasterStats::corrupt_mark`] counts.
    pub detected: Counter,
    /// A replica was marked corrupt (track = its node, arg = its group).
    pub corrupt_mark: Event,
    /// `rstore.repair.extents`, which [`MasterStats::repaired`] grows.
    pub repair_extents: Counter,
    /// One repair pass over a region (track = the master's node).
    pub repair: Event,
    /// Repair replaced one extent (track = the node it left, arg = bytes).
    pub repair_extent: Event,
    /// A repair pass replaced `arg` extents: the count and the era note.
    pub repaired: Event,
    /// One graceful drain (track = the drained node).
    pub drain_span: Event,
    /// Era notes only: a lease lapsed; a move sealed / unsealed the extent
    /// it replaces (track = the node).
    pub server_expired: Event,
    pub extent_sealed: Event,
    pub extent_unsealed: Event,
    /// One extent moved by a planned move of that kind: the
    /// `rstore.migrate.extent` instant (track = the node it left, arg =
    /// physical bytes), counted in `<kind>.extents`, summed into
    /// `<kind>.bytes`.
    pub drain: Event,
    pub rebalance: Event,
}

impl MasterStats {
    pub fn resolve(m: &Metrics, rec: &Recorder) -> Self {
        let moved = |kind| {
            let m = m.scoped(kind);
            rec.event("core", "rstore.migrate.extent")
                .counting(m.counter_handle("extents"))
                .adding(m.counter_handle("bytes"))
        };
        let detected = m.counter_handle("integrity.detected");
        let repair_extents = m.counter_handle("rstore.repair.extents");
        MasterStats {
            scrub_passes: m.counter_handle("integrity.scrub_passes"),
            scrub_mismatch: m.counter_handle("integrity.scrub.mismatch"),
            corrupt_mark: rec
                .event("core", "rstore.corrupt.mark")
                .counting(detected.clone()),
            detected,
            repair: rec.event("core", "rstore.repair"),
            repair_extent: rec.event("core", "rstore.repair.extent"),
            repaired: rec
                .note("repair", "extents_repaired", NoteArg::Arg)
                .adding(repair_extents.clone()),
            repair_extents,
            drain_span: rec.event("core", "rstore.drain"),
            server_expired: rec.note("lease", "server_expired", NoteArg::Track),
            extent_sealed: rec.note("migrate", "extent_sealed", NoteArg::Track),
            extent_unsealed: rec.note("migrate", "extent_unsealed", NoteArg::Track),
            drain: moved("drain"),
            rebalance: moved("rebalance"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_names_follow_declaration_order() {
        assert_eq!(OpKind::Read.name(), "read");
        assert_eq!(OpKind::WriteCk.name(), "write_ck");
        assert_eq!(OpKind::WriteMany.name(), "write_many");
        assert_eq!(OpKind::MultiGet.name(), "multi_get");
        assert_eq!(OpKind::BulkLoad.name(), "bulk_load");
        assert_eq!(OpKind::BulkLoad as usize + 1, OpKind::NAMES.len());
    }
    #[test]
    fn every_control_request_indexes_the_row_that_names_it() {
        for (row, op) in [
            (Stat::ROW, "stat"),
            (Report::ROW, "cluster_stats"),
            (RegisterServer::ROW, "register"),
            (Heartbeat::ROW, "heartbeat"),
            (Drain::ROW, "drain"),
            (Lookup::ROW, "lookup"),
            (Free::ROW, "free"),
            (Alloc::ROW, "alloc"),
            (Grow::ROW, "grow"),
            (ReportCorruption::ROW, "report_corruption"),
        ] {
            let (span, latency) = CTRL_OPS[row];
            assert_eq!(span, format!("rstore.ctrl.{op}"));
            assert_eq!(latency, format!("rstore.ctrl_latency.{op}"));
        }
    }
}
