//! The rdma layer's metric handles: every `rdma.*` name the device writes
//! is spelled here, once, and resolved at construction so that posting and
//! completing work requests index the registry instead of naming it.

use fabric::NodeId;
use sim::{Counter, Event, Hist, Metrics, Recorder};

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
    /// One completed work request, indexed by `CqeOpcode as usize`: the
    /// `rdma.wr.<opcode>` span, timed into `rdma.wr_latency.<opcode>`.
    pub wr: [Event; 6],
    /// One bit flipped at rest / in an in-flight WRITE payload (track =
    /// byte address, arg = bit); both count as `integrity.injected`.
    pub corrupt_bit: Event,
    pub corrupt_inflight: Event,
    /// A QP entered the error state (track = QP number, arg = victim WR).
    pub qp_error: Event,
}

impl DevStats {
    pub fn resolve(m: &Metrics, rec: &Recorder) -> Self {
        let injected = |name| {
            rec.event("rdma", name)
                .counting(m.counter_handle("integrity.injected"))
        };
        // In declaration order, so that `op as usize` indexes it.
        let wr = [
            CqeOpcode::Send,
            CqeOpcode::Recv,
            CqeOpcode::Read,
            CqeOpcode::Write,
            CqeOpcode::CompSwap,
            CqeOpcode::FetchAdd,
        ]
        .map(|op| {
            let (span, latency) = opcode_names(op);
            rec.event("rdma", span).timing(m.hist_handle(latency))
        });
        DevStats {
            doorbells: m.counter_handle("rdma.doorbells"),
            doorbell_wrs: m.hist_handle("rdma.doorbell_wrs"),
            doorbell_bytes: m.hist_handle("rdma.doorbell_bytes"),
            sge_wrs: m.counter_handle("rdma.sge_wrs"),
            sge_entries: m.hist_handle("rdma.sge_entries"),
            wr,
            corrupt_bit: injected("rdma.corrupt.bit"),
            corrupt_inflight: injected("rdma.corrupt.inflight"),
            qp_error: rec.event("rdma", "rdma.qp_error"),
        }
    }
}

/// A completed work request's trace span name and latency histogram, by
/// opcode.
fn opcode_names(op: CqeOpcode) -> (&'static str, &'static str) {
    match op {
        CqeOpcode::Send => ("rdma.wr.send", "rdma.wr_latency.send"),
        CqeOpcode::Recv => ("rdma.wr.recv", "rdma.wr_latency.recv"),
        CqeOpcode::Read => ("rdma.wr.read", "rdma.wr_latency.read"),
        CqeOpcode::Write => ("rdma.wr.write", "rdma.wr_latency.write"),
        CqeOpcode::CompSwap => ("rdma.wr.comp_swap", "rdma.wr_latency.comp_swap"),
        CqeOpcode::FetchAdd => ("rdma.wr.fetch_add", "rdma.wr_latency.fetch_add"),
    }
}
