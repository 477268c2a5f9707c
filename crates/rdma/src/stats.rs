//! The rdma layer's metric handles: every `rdma.*` name the device writes
//! is spelled here, once, and resolved at construction so that posting and
//! completing work requests index the registry instead of naming it.

use fabric::NodeId;
use sim::{Counter, Hist, Metrics};

use crate::cq::CqeOpcode;
use crate::types::Qpn;

/// One QP's `rdma.n<node>.qp<qpn>.*` metrics, resolved when the QP is
/// created.
pub(crate) struct QpStats {
    pub posted: Counter,
    pub completed: Counter,
    pub flushed: Counter,
    pub outstanding_depth: Hist,
    pub cq_backlog: Hist,
}

impl QpStats {
    pub fn resolve(m: &Metrics, node: NodeId, qpn: Qpn) -> Self {
        let m = m.scoped(&format!("rdma.n{}.qp{}", node.0, qpn.0));
        QpStats {
            posted: m.counter_handle("posted"),
            completed: m.counter_handle("completed"),
            flushed: m.counter_handle("flushed"),
            outstanding_depth: m.hist_handle("outstanding_depth"),
            cq_backlog: m.hist_handle("cq_backlog"),
        }
    }
}

/// The device-wide `rdma.*` metrics, resolved in `RdmaDevice::new`. Every
/// device on a fabric shares the registry, hence the same slots.
pub(crate) struct DevStats {
    pub doorbells: Counter,
    pub doorbell_wrs: Hist,
    pub doorbell_bytes: Hist,
    pub sge_wrs: Counter,
    pub sge_entries: Hist,
    /// `rdma.wr_latency.<opcode>`, indexed by `CqeOpcode as usize`.
    pub wr_latency: [Hist; 6],
    pub integrity_injected: Counter,
}

impl DevStats {
    pub fn resolve(m: &Metrics) -> Self {
        // In declaration order, so that `op as usize` indexes it.
        let wr_latency = [
            CqeOpcode::Send,
            CqeOpcode::Recv,
            CqeOpcode::Read,
            CqeOpcode::Write,
            CqeOpcode::CompSwap,
            CqeOpcode::FetchAdd,
        ]
        .map(|op| m.hist_handle(opcode_latency_metric(op)));
        DevStats {
            doorbells: m.counter_handle("rdma.doorbells"),
            doorbell_wrs: m.hist_handle("rdma.doorbell_wrs"),
            doorbell_bytes: m.hist_handle("rdma.doorbell_bytes"),
            sge_wrs: m.counter_handle("rdma.sge_wrs"),
            sge_entries: m.hist_handle("rdma.sge_entries"),
            wr_latency,
            integrity_injected: m.counter_handle("integrity.injected"),
        }
    }
}

fn opcode_latency_metric(op: CqeOpcode) -> &'static str {
    match op {
        CqeOpcode::Send => "rdma.wr_latency.send",
        CqeOpcode::Recv => "rdma.wr_latency.recv",
        CqeOpcode::Read => "rdma.wr_latency.read",
        CqeOpcode::Write => "rdma.wr_latency.write",
        CqeOpcode::CompSwap => "rdma.wr_latency.comp_swap",
        CqeOpcode::FetchAdd => "rdma.wr_latency.fetch_add",
    }
}
