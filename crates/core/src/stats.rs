//! The core layer's metric handles: every `rstore.*`, `kv.*`, `integrity.*`
//! and migration counter the client, the tables and the master write is
//! spelled here, once, and resolved when its owner is built, so that the data
//! path indexes the registry instead of naming it.

use std::rc::Rc;

use sim::{Counter, Metrics, OpMetrics};

/// The op types a client starts cost ledgers for; indexes
/// [`ClientStats::ops`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    Read,
    ReadCk,
    ReadMany,
    Write,
    WriteCk,
    Get,
    MultiGet,
    Put,
    Delete,
    Cas,
    Resize,
    BulkLoad,
}

impl OpKind {
    /// The `<op>` of each kind's `ops.<op>.*` metrics and forensics traces,
    /// in declaration order.
    const NAMES: [&'static str; 12] = [
        "read",
        "read_ck",
        "read_many",
        "write",
        "write_ck",
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
            OpKind::Write => OpKind::WriteCk,
            other => other,
        }
    }
}

/// The client's data-path metrics, resolved once in
/// `RStoreClient::connect_with`. (Control RPC latencies stay by name:
/// `ctrl_call` is the control path.)
pub(crate) struct ClientStats {
    pub redial_attempts: Counter,
    pub redial_ok: Counter,
    pub desc_stale: Counter,
    pub desc_refresh: Counter,
    pub inline_writes: Counter,
    pub inline_bytes: Counter,
    pub inflight_max: Counter,
    pub read_mismatch: Counter,
    pub read_bytes: Counter,
    pub write_bytes: Counter,
    pub io_timeout: Counter,
    /// Ledger metrics per [`OpKind`]; empty unless `ClientConfig::ledger`.
    pub ops: Vec<Rc<OpMetrics>>,
}

impl ClientStats {
    pub fn resolve(m: &Metrics, ledger: bool) -> Self {
        ClientStats {
            redial_attempts: m.counter_handle("rstore.redial.attempts"),
            redial_ok: m.counter_handle("rstore.redial.ok"),
            desc_stale: m.counter_handle("rstore.desc.stale"),
            desc_refresh: m.counter_handle("rstore.desc.refresh"),
            inline_writes: m.counter_handle("rstore.inline.writes"),
            inline_bytes: m.counter_handle("rstore.inline.bytes"),
            inflight_max: m.counter_handle("rstore.pipeline.inflight_max"),
            read_mismatch: m.counter_handle("integrity.read_mismatch"),
            read_bytes: m.counter_handle("rstore.read_bytes"),
            write_bytes: m.counter_handle("rstore.write_bytes"),
            io_timeout: m.counter_handle("rstore.io_timeout"),
            ops: if ledger {
                OpKind::NAMES
                    .iter()
                    .map(|op| OpMetrics::resolve(m, op))
                    .collect()
            } else {
                Vec::new()
            },
        }
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
            resize_count: m.counter_handle("kv.resize.count"),
            resize_moved: m.counter_handle("kv.resize.moved"),
            resize_free_failed: m.counter_handle("kv.resize.free_failed"),
        }
    }
}

/// The metric family one kind of planned extent move is charged to.
pub(crate) struct MoveStats {
    pub extents: Counter,
    pub bytes: Counter,
}

impl MoveStats {
    pub fn resolve(m: &Metrics, reason: &str) -> Self {
        let m = m.scoped(reason);
        MoveStats {
            extents: m.counter_handle("extents"),
            bytes: m.counter_handle("bytes"),
        }
    }
}

/// The master's counters, resolved in `Master::spawn`.
pub(crate) struct MasterStats {
    pub scrub_passes: Counter,
    pub scrub_mismatch: Counter,
    pub detected: Counter,
    pub repair_extents: Counter,
    pub drain: MoveStats,
    pub rebalance: MoveStats,
}

impl MasterStats {
    pub fn resolve(m: &Metrics) -> Self {
        MasterStats {
            scrub_passes: m.counter_handle("integrity.scrub_passes"),
            scrub_mismatch: m.counter_handle("integrity.scrub.mismatch"),
            detected: m.counter_handle("integrity.detected"),
            repair_extents: m.counter_handle("rstore.repair.extents"),
            drain: MoveStats::resolve(m, "drain"),
            rebalance: MoveStats::resolve(m, "rebalance"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::OpKind;

    #[test]
    fn op_kind_names_follow_declaration_order() {
        assert_eq!(OpKind::Read.name(), "read");
        assert_eq!(OpKind::WriteCk.name(), "write_ck");
        assert_eq!(OpKind::MultiGet.name(), "multi_get");
        assert_eq!(OpKind::BulkLoad.name(), "bulk_load");
        assert_eq!(OpKind::BulkLoad as usize + 1, OpKind::NAMES.len());
    }
}
