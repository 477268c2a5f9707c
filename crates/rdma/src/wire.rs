//! On-the-wire message formats for the simulated RDMA protocol.
//!
//! These types play the role of InfiniBand transport packets. Wire sizes are
//! charged to the fabric explicitly: a fixed header per message (BTH + CRCs,
//! rounded to 42 bytes) plus the payload length, so bandwidth figures include
//! realistic protocol overhead.

use crate::memory::Pin;
use crate::types::{Qpn, RKey};

/// Fixed per-message header cost in bytes.
pub const HEADER_BYTES: u64 = 42;

/// A message payload: real bytes, or merely `len` of them (fluid mode —
/// timing and accounting without data movement).
///
/// Real bytes travel by reference. The buffer of a WRITE or SEND and the
/// source range of a READ response are *pinned* in the arena they are
/// sampled from and copied once, into the destination arena at delivery (see
/// DESIGN.md, "Payload sampling model").
#[derive(Debug)]
pub enum Payload {
    /// A pinned range of the source device's arena, or an inline WRITE's
    /// copy in its WQE (a pin that owns its bytes from the start).
    Pinned(Pin),
    /// An atomic's prior value, eight little-endian bytes carried by value.
    Word(u64),
    /// Synthetic payload of the given length; `Synthetic(0)` is also the
    /// empty payload of an error response.
    Synthetic(u64),
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Pinned(pin) => pin.len(),
            Payload::Word(_) => 8,
            Payload::Synthetic(n) => *n,
        }
    }

    /// True for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Status carried by acknowledgements and responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireStatus {
    /// The operation executed.
    Ok,
    /// rkey unknown or rights insufficient.
    AccessDenied,
    /// Address range outside the registered region.
    OutOfBounds,
    /// SEND payload larger than the posted receive buffer.
    RecvOverflow,
}

/// Atomic operations executed by the responder NIC.
#[derive(Clone, Copy, Debug)]
pub enum AtomicOp {
    /// Compare-and-swap on a u64: if `*addr == expect`, store `swap`;
    /// returns the prior value either way.
    CompareSwap {
        /// Expected current value.
        expect: u64,
        /// Replacement value.
        swap: u64,
    },
    /// Fetch-and-add on a u64; returns the prior value.
    FetchAdd {
        /// Addend.
        add: u64,
    },
}

/// Connection-management messages (the `rdma_cm` analogue).
#[derive(Debug)]
pub enum CmMsg {
    /// Client asks to connect to a service.
    ConnReq {
        /// Correlates the eventual accept/reject with the connect call.
        conn_id: u64,
        /// Service id the client is dialing.
        service: u16,
        /// The client's queue pair number.
        client_qpn: Qpn,
    },
    /// Server accepted; carries its queue pair number.
    ConnAccept {
        /// Echoed correlation id.
        conn_id: u64,
        /// The server's queue pair number.
        server_qpn: Qpn,
    },
    /// No listener (or listener dropped).
    ConnReject {
        /// Echoed correlation id.
        conn_id: u64,
    },
}

/// Transport messages addressed to a specific queue pair.
#[derive(Debug)]
pub enum QpMsg {
    /// Two-sided SEND carrying a payload.
    Send {
        /// Requester-side sequence id.
        req_id: u64,
        /// Data.
        payload: Payload,
        /// Optional 32-bit immediate.
        imm: Option<u32>,
    },
    /// Acknowledgement completing a SEND.
    SendAck {
        /// Echoed sequence id.
        req_id: u64,
        /// Outcome.
        status: WireStatus,
    },
    /// One-sided READ request.
    ReadReq {
        /// Requester-side sequence id.
        req_id: u64,
        /// Remote start address.
        raddr: u64,
        /// Authorizing key.
        rkey: RKey,
        /// Bytes to read.
        len: u64,
    },
    /// READ response carrying the data.
    ReadResp {
        /// Echoed sequence id.
        req_id: u64,
        /// Outcome.
        status: WireStatus,
        /// The data (empty on error).
        payload: Payload,
    },
    /// One-sided WRITE carrying the data.
    WriteReq {
        /// Requester-side sequence id.
        req_id: u64,
        /// Remote start address.
        raddr: u64,
        /// Authorizing key.
        rkey: RKey,
        /// Data.
        payload: Payload,
    },
    /// Acknowledgement completing a WRITE.
    WriteAck {
        /// Echoed sequence id.
        req_id: u64,
        /// Outcome.
        status: WireStatus,
    },
    /// One-sided atomic request.
    AtomicReq {
        /// Requester-side sequence id.
        req_id: u64,
        /// Remote address (8-byte aligned).
        raddr: u64,
        /// Authorizing key.
        rkey: RKey,
        /// The operation.
        op: AtomicOp,
    },
    /// Atomic response with the prior value.
    AtomicResp {
        /// Echoed sequence id.
        req_id: u64,
        /// Outcome.
        status: WireStatus,
        /// Value at the address before the operation.
        old: u64,
    },
}

/// Everything the RDMA layer puts on the fabric.
#[derive(Debug)]
pub enum NetMsg {
    /// Connection management.
    Cm(CmMsg),
    /// Queue-pair transport, addressed to the destination QP.
    Qp {
        /// Destination queue pair on the receiving node.
        dst: Qpn,
        /// The transport message.
        msg: QpMsg,
    },
}

impl NetMsg {
    /// Bytes this message occupies on the wire (header + payload).
    pub fn wire_bytes(&self) -> u64 {
        let body = match self {
            NetMsg::Cm(_) => 24,
            NetMsg::Qp { msg, .. } => match msg {
                QpMsg::Send { payload, .. } => payload.len(),
                QpMsg::SendAck { .. } => 0,
                QpMsg::ReadReq { .. } => 16,
                QpMsg::ReadResp { payload, .. } => payload.len(),
                QpMsg::WriteReq { payload, .. } => 16 + payload.len(),
                QpMsg::WriteAck { .. } => 0,
                QpMsg::AtomicReq { .. } => 32,
                QpMsg::AtomicResp { .. } => 8,
            },
        };
        HEADER_BYTES + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_len() {
        assert_eq!(Payload::Word(7).len(), 8);
        assert_eq!(Payload::Synthetic(1 << 40).len(), 1 << 40);
        assert!(Payload::Synthetic(0).is_empty());
        let arena = crate::memory::Arena::new(64);
        assert_eq!(arena.inline_payload(&[1, 2, 3]).len(), 3);
    }

    #[test]
    fn wire_bytes_include_header() {
        let msg = NetMsg::Qp {
            dst: Qpn(1),
            msg: QpMsg::WriteReq {
                req_id: 0,
                raddr: 0,
                rkey: RKey(1),
                payload: Payload::Synthetic(1000),
            },
        };
        assert_eq!(msg.wire_bytes(), HEADER_BYTES + 16 + 1000);
        let ack = NetMsg::Qp {
            dst: Qpn(1),
            msg: QpMsg::WriteAck {
                req_id: 0,
                status: WireStatus::Ok,
            },
        };
        assert_eq!(ack.wire_bytes(), HEADER_BYTES);
    }
}
