//! The simulated RDMA device (NIC): queue pairs, connection management, and
//! the dispatcher that executes remote one-sided operations.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use fabric::{Delivery, Fabric, NodeId};
use sim::channel::{channel, oneshot, Receiver, Sender};
use sim::{Completion, EventSink, Metrics, OpLedger, Sim, SimTime, TimerId};

use crate::config::RdmaConfig;
use crate::cq::{CompletionQueue, CqStatus, Cqe, CqeOpcode};
use crate::doorbell::Doorbells;
use crate::memory::{Arena, DmaBuf, MrEntry};
use crate::stats::{DevStats, QpStats};
use crate::types::{Access, Qpn, RKey, RdmaError, Result};
use crate::wire::{AtomicOp, CmMsg, NetMsg, Payload, QpMsg, WireStatus};

/// A registered memory region owned by a device.
#[derive(Clone, Copy, Debug)]
pub struct Mr {
    /// Node owning the memory.
    pub node: NodeId,
    /// The registered range.
    pub buf: DmaBuf,
    /// Key remote peers must present.
    pub rkey: RKey,
    /// Rights granted at registration.
    pub access: Access,
}

impl Mr {
    /// The shareable token a peer needs to address this region.
    pub fn token(&self) -> RemoteMr {
        RemoteMr {
            node: self.node,
            addr: self.buf.addr,
            len: self.buf.len,
            rkey: self.rkey,
        }
    }
}

/// A shareable description of a remote memory region (node, address range,
/// rkey). This is what RStore's master hands to clients on the control path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RemoteMr {
    /// Node owning the memory.
    pub node: NodeId,
    /// Region start address on that node.
    pub addr: u64,
    /// Region length.
    pub len: u64,
    /// Authorizing key.
    pub rkey: RKey,
}

impl RemoteMr {
    /// Addresses a sub-range of the region.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the sub-range exceeds the region.
    pub fn at(&self, offset: u64, len: u64) -> Result<RemoteAddr> {
        let end = offset
            .checked_add(len)
            .ok_or(RdmaError::OutOfBounds { addr: offset, len })?;
        if end > self.len {
            return Err(RdmaError::OutOfBounds {
                addr: self.addr + offset,
                len,
            });
        }
        Ok(RemoteAddr {
            addr: self.addr + offset,
            rkey: self.rkey,
        })
    }
}

/// A concrete remote target address for a one-sided operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RemoteAddr {
    /// Absolute address on the remote node.
    pub addr: u64,
    /// Authorizing key.
    pub rkey: RKey,
}

struct PendingWr {
    req_id: u64,
    wr_id: u64,
    opcode: CqeOpcode,
    byte_len: u64,
    status: Option<CqStatus>,
    /// Virtual time the WR was posted; start of its trace span.
    posted_at: SimTime,
    /// Virtual time every sub-response was in (the WR resolved); time from
    /// here to release is CQE settle — waiting for in-order delivery.
    resolved_at: SimTime,
    /// Whether a *successful* completion generates a CQE. Error and flush
    /// completions are always delivered, matching verbs hardware.
    signaled: bool,
    /// Handle of the logical op this WR belongs to (disabled unless a
    /// [`RdmaDevice::ledger_scope`] was active at post time).
    ledger: OpLedger,
    /// Doorbell/WQE-build nanoseconds already charged to the op for this
    /// WR; subtracted when attributing completion latency.
    post_cost_ns: u64,
    /// How many wire sub-requests this WR issued: one per scatter-gather
    /// element. Sub-requests occupy the consecutive sequence ids
    /// `[req_id, req_id + subs)`.
    subs: u64,
    /// Sub-responses still outstanding; the WR resolves when this hits 0.
    remaining: u64,
    /// Per-element landing buffers for READ data and atomic prior values,
    /// indexed by `response req_id - req_id`.
    dsts: [DmaBuf; MAX_SGE],
    /// Worst sub-response status folded so far (first failure wins); the
    /// WR's final status once every sub-response is in.
    folded: CqStatus,
    /// The per-op timeout, cancelled where the WR gets its status.
    timeout: TimerId,
}

struct RecvWr {
    wr_id: u64,
    buf: DmaBuf,
}

struct QpState {
    remote_node: NodeId,
    remote_qpn: Option<Qpn>,
    cq: CompletionQueue,
    next_req: u64,
    sq: VecDeque<PendingWr>,
    recvq: VecDeque<RecvWr>,
    /// SENDs that arrived before a receive buffer was posted (RNR queue).
    unmatched: VecDeque<(u64, Payload, Option<u32>)>,
    error: bool,
    stats: Rc<QpStats>,
}

/// A WR leaving the send queue in [`RdmaDevice::complete`]: its CQE, then
/// `(posted_at, resolved_at, signaled, ledger, post_cost_ns)`.
type Released = (Cqe, SimTime, SimTime, bool, OpLedger, u64);

struct PendingConn {
    peer: NodeId,
    peer_qpn: Qpn,
    conn_id: u64,
}

struct DevInner {
    arena: Arena,
    qps: HashMap<u64, QpState>,
    listeners: HashMap<u16, Sender<PendingConn>>,
    connects: HashMap<u64, oneshot::Sender<Result<(NodeId, Qpn)>>>,
    next_qpn: u64,
    next_conn: u64,
    /// Sum of `byte_len` over every in-flight work request on this device;
    /// feeds the backlog-aware operation timeout (a device that just posted
    /// gigabytes must not expire ops queued behind its own backlog).
    outstanding_bytes: u64,
    /// Ledger charged by work requests posted while a
    /// [`RdmaDevice::ledger_scope`] is active. Disabled by default.
    current_ledger: OpLedger,
    /// Scratch for [`RdmaDevice::complete`]: the WRs one completion
    /// releases, handed over empty-handed so the buffer is reused.
    released: Vec<Released>,
}

/// A simulated RDMA NIC attached to one fabric node.
///
/// Cheap to clone. Creating a device spawns its dispatcher task, which plays
/// the role of the NIC's packet-processing pipeline: it executes incoming
/// one-sided operations against the local [`Arena`] **without involving any
/// application task on this node** — the property RStore's data path is built
/// on.
#[derive(Clone)]
pub struct RdmaDevice {
    sim: Sim,
    fabric: Fabric<NetMsg>,
    node: NodeId,
    cfg: Rc<RdmaConfig>,
    inner: Rc<RefCell<DevInner>>,
    stats: Rc<DevStats>,
    doorbells: Rc<Doorbells>,
    timeouts: Rc<OpTimeouts>,
}

/// The per-op timeouts of a device's work requests, fired with
/// `(qpn, req_id)`. A WR's timer is cancelled the moment the WR gets a
/// status, so one that fires names a WR still waiting: its QP fails.
struct OpTimeouts {
    sim: Sim,
    inner: Rc<RefCell<DevInner>>,
    stats: Rc<DevStats>,
}

impl EventSink for OpTimeouts {
    fn fire(self: Rc<Self>, qpn: u64, req_id: u64) {
        self.fail_qp(Qpn(qpn), req_id);
    }
}

impl fmt::Debug for RdmaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("RdmaDevice")
            .field("node", &self.node)
            .field("qps", &inner.qps.len())
            .field("mem_used", &inner.arena.used())
            .finish()
    }
}

impl RdmaDevice {
    /// Creates a device on a fresh fabric node and starts its dispatcher.
    pub fn new(fabric: &Fabric<NetMsg>, cfg: RdmaConfig) -> RdmaDevice {
        let node = fabric.add_node();
        let inbox = fabric.attach(node);
        let inner = Rc::new(RefCell::new(DevInner {
            arena: Arena::new(cfg.mem_capacity),
            qps: HashMap::new(),
            listeners: HashMap::new(),
            connects: HashMap::new(),
            next_qpn: 1,
            next_conn: 1,
            outstanding_bytes: 0,
            current_ledger: OpLedger::disabled(),
            released: Vec::new(),
        }));
        let stats = Rc::new(DevStats::resolve(
            fabric.metrics(),
            &fabric.sim().recorder(),
        ));
        let dev = RdmaDevice {
            sim: fabric.sim().clone(),
            fabric: fabric.clone(),
            node,
            doorbells: Doorbells::new(fabric, node),
            timeouts: Rc::new(OpTimeouts {
                sim: fabric.sim().clone(),
                inner: inner.clone(),
                stats: stats.clone(),
            }),
            inner,
            stats,
            cfg: Rc::new(cfg),
        };
        // Register the corruption hook: a `CorruptRegion` fault on this node
        // flips seeded random bits inside registered backed memory — silent
        // damage the server CPU never observes, exactly the hazard a
        // one-sided data path is exposed to. Each flip is traced.
        let hook_dev = dev.clone();
        fabric.set_corruption_hook(
            node,
            Rc::new(move |salt: u64, bits: u32| {
                let flips = {
                    let mut rng = sim::DetRng::new(salt);
                    hook_dev
                        .inner
                        .borrow_mut()
                        .arena
                        .corrupt_registered(&mut rng, bits)
                };
                for &(addr, bit) in &flips {
                    hook_dev.stats.corrupt_bit.fire(addr, bit as u64);
                }
            }),
        );
        let d = dev.clone();
        dev.sim.spawn(async move { d.dispatch(inbox).await });
        dev
    }

    /// The fabric node this device is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The simulation driving this device.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The fabric this device is attached to.
    pub fn fabric(&self) -> &Fabric<NetMsg> {
        &self.fabric
    }

    /// Shared metrics (same registry as the fabric's).
    pub fn metrics(&self) -> Metrics {
        self.fabric.metrics().clone()
    }

    /// The device's timing configuration.
    pub fn config(&self) -> &RdmaConfig {
        &self.cfg
    }

    /// Makes `ledger` the cost ledger charged by every work request posted
    /// on this device until the returned guard drops (scopes nest: the
    /// previous ledger is restored). The simulation is single-threaded and
    /// posting is synchronous, so a scope held across `post_*` calls
    /// attributes exactly those WRs — in-flight completion charges follow
    /// the WR, not the scope.
    pub fn ledger_scope(&self, ledger: &OpLedger) -> LedgerScope {
        let prev = std::mem::replace(&mut self.inner.borrow_mut().current_ledger, ledger.clone());
        LedgerScope {
            inner: self.inner.clone(),
            prev,
        }
    }

    /// Upper bound on how long an operation of `bytes` posted *now* may take
    /// before this device's own timeout resolves it: the configured
    /// [`RdmaConfig::op_timeout`] widened by every byte already in flight,
    /// exactly as the post path grants it. Callers layering their own
    /// deadlines on top (e.g. RStore's per-IO backstop) must wait at least
    /// this long to avoid expiring ops that are merely queued behind a deep
    /// backlog.
    pub fn op_deadline(&self, bytes: u64) -> std::time::Duration {
        let backlog = self.inner.borrow().outstanding_bytes;
        self.cfg.op_timeout(bytes.saturating_add(backlog))
    }

    /// Resolves the metrics of one of this device's queue pairs.
    fn qp_stats(&self, qpn: Qpn) -> Rc<QpStats> {
        Rc::new(QpStats::resolve(&self.metrics(), self.node, qpn))
    }

    // --- memory ------------------------------------------------------------

    /// Allocates zero-initialized, locally DMA-able memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfMemory`] if the arena is exhausted.
    pub fn alloc(&self, len: u64) -> Result<DmaBuf> {
        self.inner.borrow_mut().arena.alloc(len)
    }

    /// Allocates backed memory whose start address is a multiple of `align`
    /// (see [`Arena::alloc_aligned`]); required for buffers accessed through
    /// the word-granularity helpers ([`read_u64`](Self::read_u64) and the
    /// CAS scratch path), which reject misaligned addresses.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfMemory`] if the arena is exhausted,
    /// [`RdmaError::OutOfBounds`] on a bad `align`.
    pub fn alloc_aligned(&self, len: u64, align: u64) -> Result<DmaBuf> {
        self.inner.borrow_mut().arena.alloc_aligned(len, align)
    }

    /// Allocates synthetic (unbacked) memory for fluid-mode experiments.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfMemory`] if the arena is exhausted.
    pub fn alloc_synthetic(&self, len: u64) -> Result<DmaBuf> {
        self.inner.borrow_mut().arena.alloc_synthetic(len)
    }

    /// Allocates and initializes a buffer with `bytes`.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfMemory`] if the arena is exhausted.
    pub fn alloc_init(&self, bytes: &[u8]) -> Result<DmaBuf> {
        let buf = self.alloc(bytes.len() as u64)?;
        self.write_mem(buf.addr, bytes)?;
        Ok(buf)
    }

    /// Frees an allocation (and any registrations covering it).
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if `buf` is not a live allocation.
    pub fn free(&self, buf: DmaBuf) -> Result<()> {
        self.inner.borrow_mut().arena.free(buf)
    }

    /// Reads local device memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if outside a live allocation.
    pub fn read_mem(&self, addr: u64, len: u64) -> Result<Vec<u8>> {
        self.inner.borrow().arena.read(addr, len)
    }

    /// Reads local device memory into a caller-owned slice without
    /// allocating (see [`Arena::read_into`]).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read_mem_into(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
        self.inner.borrow().arena.read_into(addr, dst)
    }

    /// Writes local device memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if outside a live allocation.
    pub fn write_mem(&self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.inner.borrow_mut().arena.write(addr, bytes)
    }

    /// Reads a little-endian u64 from local memory (8-byte aligned).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] on bad range or misalignment.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        self.inner.borrow().arena.read_u64(addr)
    }

    /// Writes a little-endian u64 to local memory (8-byte aligned).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] on bad range or misalignment.
    pub fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        self.inner.borrow_mut().arena.write_u64(addr, value)
    }

    /// Bytes currently allocated in the arena.
    pub fn mem_used(&self) -> u64 {
        self.inner.borrow().arena.used()
    }

    /// Of those, the bytes that hold stored data and so cost host memory
    /// (see [`Arena::resident`]).
    pub fn mem_resident(&self) -> u64 {
        self.inner.borrow().arena.resident()
    }

    /// `(live, materialised)` for this device's memory: payloads still
    /// pinned on it, and pins ever copied out (see [`Arena::pin_stats`]).
    pub fn pin_stats(&self) -> (usize, u64) {
        self.inner.borrow().arena.pin_stats()
    }

    /// Registers `buf` for remote access and returns the region handle.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if `buf` is not within one allocation.
    pub fn reg_mr(&self, buf: DmaBuf, access: Access) -> Result<Mr> {
        let entry: MrEntry = self.inner.borrow_mut().arena.register(buf, access)?;
        Ok(Mr {
            node: self.node,
            buf,
            rkey: entry.rkey,
            access,
        })
    }

    /// Deregisters a region by rkey.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if the rkey is unknown.
    pub fn dereg_mr(&self, rkey: RKey) -> Result<()> {
        self.inner.borrow_mut().arena.deregister(rkey)
    }

    /// Changes the remote rights on a live registration without changing its
    /// rkey (re-register semantics). Remote ops in flight observe the new
    /// rights at their access check; a WRITE/CAS against a region sealed to
    /// [`Access::REMOTE_READ`] completes with `CqStatus::RemoteAccess`.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if the rkey is unknown.
    pub fn set_mr_access(&self, rkey: RKey, access: Access) -> Result<()> {
        self.inner.borrow_mut().arena.set_access(rkey, access)
    }

    // --- connection management ----------------------------------------------

    /// Starts listening for connections on `service`.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if the service id is already in use.
    pub fn listen(&self, service: u16) -> Result<Listener> {
        let (tx, rx) = channel();
        let mut inner = self.inner.borrow_mut();
        if inner.listeners.contains_key(&service) {
            return Err(RdmaError::InvalidHandle);
        }
        inner.listeners.insert(service, tx);
        Ok(Listener {
            dev: self.clone(),
            service,
            rx,
        })
    }

    /// Connects to `peer`'s listener on `service`, creating a reliable
    /// connected queue pair whose completions land on `cq`.
    ///
    /// # Errors
    ///
    /// * [`RdmaError::ConnectionRefused`] — no listener at the peer.
    /// * [`RdmaError::Timeout`] — peer unreachable.
    pub async fn connect(&self, peer: NodeId, service: u16, cq: &CompletionQueue) -> Result<Qp> {
        let (qpn, conn_id, reply) = {
            let mut inner = self.inner.borrow_mut();
            let qpn = Qpn(inner.next_qpn);
            inner.next_qpn += 1;
            inner.qps.insert(
                qpn.0,
                QpState {
                    remote_node: peer,
                    remote_qpn: None,
                    cq: cq.clone(),
                    next_req: 1,
                    sq: VecDeque::new(),
                    recvq: VecDeque::new(),
                    unmatched: VecDeque::new(),
                    error: false,
                    stats: self.qp_stats(qpn),
                },
            );
            let conn_id = inner.next_conn;
            inner.next_conn += 1;
            let (tx, rx) = oneshot::channel();
            inner.connects.insert(conn_id, tx);
            (qpn, conn_id, rx)
        };
        let msg = NetMsg::Cm(CmMsg::ConnReq {
            conn_id,
            service,
            client_qpn: qpn,
        });
        let wire = msg.wire_bytes();
        self.fabric.send(self.node, peer, wire, msg);

        // No answer in time — or none ever: the reply's sender is gone — is
        // a timeout.
        let reply = self.sim.timeout(self.cfg.base_timeout, reply).await;
        let mut inner = self.inner.borrow_mut();
        match reply.flatten().unwrap_or(Err(RdmaError::Timeout)) {
            Ok((node, server_qpn)) => {
                let qp = inner.qps.get_mut(&qpn.0).expect("qp vanished");
                debug_assert_eq!(node, peer);
                qp.remote_qpn = Some(server_qpn);
                Ok(Qp {
                    dev: self.clone(),
                    qpn,
                })
            }
            Err(e) => {
                inner.connects.remove(&conn_id);
                inner.qps.remove(&qpn.0);
                Err(e)
            }
        }
    }

    // --- dispatcher -----------------------------------------------------------

    async fn dispatch(self, mut inbox: Receiver<Delivery<NetMsg>>) {
        while let Some(delivery) = inbox.recv().await {
            // Model per-packet NIC processing latency.
            self.sim.sleep(self.cfg.nic_delay).await;
            self.handle(delivery.src, delivery.msg);
        }
    }

    fn reply(&self, dst_node: NodeId, dst_qpn: Qpn, msg: QpMsg) {
        let msg = NetMsg::Qp { dst: dst_qpn, msg };
        let wire = msg.wire_bytes();
        self.fabric.send(self.node, dst_node, wire, msg);
    }

    fn handle(&self, src: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Cm(cm) => self.handle_cm(src, cm),
            NetMsg::Qp { dst, msg } => self.handle_qp(src, dst, msg),
        }
    }

    fn handle_cm(&self, src: NodeId, cm: CmMsg) {
        match cm {
            CmMsg::ConnReq {
                conn_id,
                service,
                client_qpn,
            } => {
                let listener = self.inner.borrow().listeners.get(&service).cloned();
                let accepted = listener.is_some_and(|tx| {
                    tx.send(PendingConn {
                        peer: src,
                        peer_qpn: client_qpn,
                        conn_id,
                    })
                    .is_ok()
                });
                if !accepted {
                    let msg = NetMsg::Cm(CmMsg::ConnReject { conn_id });
                    let wire = msg.wire_bytes();
                    self.fabric.send(self.node, src, wire, msg);
                }
            }
            CmMsg::ConnAccept {
                conn_id,
                server_qpn,
            } => {
                if let Some(tx) = self.inner.borrow_mut().connects.remove(&conn_id) {
                    tx.send(Ok((src, server_qpn)));
                }
            }
            CmMsg::ConnReject { conn_id } => {
                if let Some(tx) = self.inner.borrow_mut().connects.remove(&conn_id) {
                    tx.send(Err(RdmaError::ConnectionRefused));
                }
            }
        }
    }

    /// The queue pair to address responses to: the requester's QPN, taken
    /// from the local (responder-side) QP's connection state.
    fn reply_target(&self, local: Qpn) -> Option<Qpn> {
        self.inner
            .borrow()
            .qps
            .get(&local.0)
            .and_then(|qp| qp.remote_qpn)
    }

    fn handle_qp(&self, src: NodeId, dst: Qpn, msg: QpMsg) {
        match msg {
            // ---- responder side: execute one-sided ops against the arena ----
            QpMsg::ReadReq {
                req_id,
                raddr,
                rkey,
                len,
            } => {
                let Some(reply_to) = self.reply_target(dst) else {
                    return; // stale message to a destroyed QP
                };
                let inner = self.inner.borrow();
                let (status, payload) =
                    match check(&inner.arena, rkey, raddr, len, Access::REMOTE_READ) {
                        Ok(()) => match inner.arena.read_payload(raddr, len) {
                            Ok(p) => (WireStatus::Ok, p),
                            Err(_) => (WireStatus::OutOfBounds, Payload::Synthetic(0)),
                        },
                        Err(s) => (s, Payload::Synthetic(0)),
                    };
                drop(inner);
                self.reply(
                    src,
                    reply_to,
                    QpMsg::ReadResp {
                        req_id,
                        status,
                        payload,
                    },
                );
            }
            QpMsg::WriteReq {
                req_id,
                raddr,
                rkey,
                payload,
            } => {
                let Some(reply_to) = self.reply_target(dst) else {
                    return;
                };
                // In-flight fault injection: flip one payload bit before it
                // commits, modeling DMA/wire corruption a CRC-less transport
                // would write through silently. Synthetic payloads carry no
                // bytes and cannot be damaged.
                if let Payload::Pinned(pin) = &payload {
                    if let Some(bit) = self.fabric.inflight_flip(pin.len() * 8) {
                        pin.flip_bit(bit);
                        self.stats.corrupt_inflight.fire(raddr + bit / 8, bit % 8);
                    }
                }
                let mut inner = self.inner.borrow_mut();
                let status = match check(
                    &inner.arena,
                    rkey,
                    raddr,
                    payload.len(),
                    Access::REMOTE_WRITE,
                ) {
                    Ok(()) => match inner.arena.write_payload(raddr, &payload) {
                        Ok(()) => WireStatus::Ok,
                        Err(_) => WireStatus::OutOfBounds,
                    },
                    Err(s) => s,
                };
                drop(inner);
                self.reply(src, reply_to, QpMsg::WriteAck { req_id, status });
            }
            QpMsg::AtomicReq {
                req_id,
                raddr,
                rkey,
                op,
            } => {
                let Some(reply_to) = self.reply_target(dst) else {
                    return;
                };
                let mut inner = self.inner.borrow_mut();
                let (status, old) = match check(&inner.arena, rkey, raddr, 8, Access::REMOTE_ATOMIC)
                {
                    Ok(()) => match inner.arena.read_u64(raddr) {
                        Ok(old) => {
                            let new = match op {
                                AtomicOp::CompareSwap { expect, swap } => {
                                    if old == expect {
                                        swap
                                    } else {
                                        old
                                    }
                                }
                                AtomicOp::FetchAdd { add } => old.wrapping_add(add),
                            };
                            inner
                                .arena
                                .write_u64(raddr, new)
                                .expect("write after successful read");
                            (WireStatus::Ok, old)
                        }
                        Err(_) => (WireStatus::OutOfBounds, 0),
                    },
                    Err(s) => (s, 0),
                };
                drop(inner);
                self.reply(
                    src,
                    reply_to,
                    QpMsg::AtomicResp {
                        req_id,
                        status,
                        old,
                    },
                );
            }
            QpMsg::Send {
                req_id,
                payload,
                imm,
            } => {
                let mut inner = self.inner.borrow_mut();
                let Some(qp) = inner.qps.get_mut(&dst.0) else {
                    return; // stale message to a destroyed QP
                };
                if qp.error {
                    return; // no receive can be posted any more: drop it
                }
                if let Some(recv) = qp.recvq.pop_front() {
                    let cq = qp.cq.clone();
                    let stats = qp.stats.clone();
                    let reply_to = qp.remote_qpn.expect("connected QP has a peer");
                    drop(inner);
                    let status = self.deliver_recv(&cq, &stats, recv, payload, imm);
                    self.reply(src, reply_to, QpMsg::SendAck { req_id, status });
                } else {
                    qp.unmatched.push_back((req_id, payload, imm));
                }
            }

            // ---- requester side: responses complete pending WRs ----
            QpMsg::ReadResp {
                req_id,
                status,
                payload,
            } => self.complete(dst, req_id, status, Some(payload)),
            QpMsg::WriteAck { req_id, status } | QpMsg::SendAck { req_id, status } => {
                self.complete(dst, req_id, status, None)
            }
            QpMsg::AtomicResp {
                req_id,
                status,
                old,
            } => self.complete(dst, req_id, status, Some(Payload::Word(old))),
        }
    }

    /// Copies an incoming SEND into a posted receive buffer and produces the
    /// RECV completion. Returns the status to acknowledge with.
    fn deliver_recv(
        &self,
        cq: &CompletionQueue,
        stats: &QpStats,
        recv: RecvWr,
        payload: Payload,
        imm: Option<u32>,
    ) -> WireStatus {
        let len = payload.len();
        let (status, cq_status) = if len > recv.buf.len {
            (WireStatus::RecvOverflow, CqStatus::RecvOverflow)
        } else {
            let mut inner = self.inner.borrow_mut();
            match inner.arena.write_payload(recv.buf.addr, &payload) {
                Ok(()) => (WireStatus::Ok, CqStatus::Success),
                Err(_) => (WireStatus::OutOfBounds, CqStatus::RemoteOutOfBounds),
            }
        };
        cq.push(Cqe {
            wr_id: recv.wr_id,
            opcode: CqeOpcode::Recv,
            status: cq_status,
            byte_len: len,
            imm,
        });
        stats.cq_backlog.record_value(cq.len() as u64);
        status
    }

    /// Marks `req_id` complete on the requester side and releases
    /// completions in post order.
    fn complete(&self, qpn: Qpn, req_id: u64, status: WireStatus, payload: Option<Payload>) {
        let mut inner = self.inner.borrow_mut();
        let Some(qp) = inner.qps.get_mut(&qpn.0) else {
            return;
        };
        // A WR owns the consecutive sub-request ids [req_id, req_id + subs).
        let Some(wr) = qp
            .sq
            .iter_mut()
            .find(|w| req_id >= w.req_id && req_id - w.req_id < w.subs)
        else {
            return; // late response after timeout flush
        };
        if wr.status.is_some() {
            return;
        }
        // Fold this sub-response into the WR outcome: first failure wins.
        if wr.folded == CqStatus::Success {
            wr.folded = wire_to_cq(status);
        }
        let dst = wr.dsts[(req_id - wr.req_id) as usize];
        wr.remaining = wr.remaining.saturating_sub(1);
        let resolved = wr.remaining == 0;
        if resolved {
            wr.status = Some(wr.folded);
            wr.resolved_at = self.sim.now();
            self.sim.cancel(wr.timeout);
        }
        let cq = qp.cq.clone();

        if let (Some(payload), WireStatus::Ok) = (payload.as_ref(), status) {
            if let Err(e) = inner.arena.write_payload(dst.addr, payload) {
                debug_assert!(false, "local landing buffer vanished: {e}");
            }
        }
        if !resolved {
            // More sub-responses of a scatter-gather WR to come; nothing can
            // release until the whole WR resolves.
            return;
        }

        // Release completions strictly in post order.
        let mut cqes = std::mem::take(&mut inner.released);
        let qp = inner.qps.get_mut(&qpn.0).expect("qp still present");
        let stats = qp.stats.clone();
        let mut released = 0u64;
        while qp.sq.front().is_some_and(|w| w.status.is_some()) {
            let w = qp.sq.pop_front().expect("front checked");
            released += w.byte_len;
            cqes.push((
                Cqe {
                    wr_id: w.wr_id,
                    opcode: w.opcode,
                    status: w.status.expect("status set"),
                    byte_len: w.byte_len,
                    imm: None,
                },
                w.posted_at,
                w.resolved_at,
                w.signaled,
                w.ledger,
                w.post_cost_ns,
            ));
        }
        inner.outstanding_bytes = inner.outstanding_bytes.saturating_sub(released);
        drop(inner);
        let now = self.sim.now();
        let nic_ns = self.cfg.nic_delay.as_nanos() as u64;
        for (cqe, posted_at, resolved_at, signaled, ledger, post_cost_ns) in cqes.drain(..) {
            stats.completed.incr();
            let ok = cqe.status == CqStatus::Success;
            // Reads and atomics carry a response payload back.
            let responds = matches!(
                cqe.opcode,
                CqeOpcode::Read | CqeOpcode::CompSwap | CqeOpcode::FetchAdd
            );
            ledger.completed(Completion {
                posted_at,
                post_ns: post_cost_ns,
                resolved_at,
                now,
                nic_ns,
                ok,
                response_bytes: if responds { cqe.byte_len } else { 0 },
            });
            self.stats.wr[cqe.opcode as usize].complete(qpn.0, posted_at, cqe.byte_len);
            // Selective signaling: an unsignaled WR that succeeded still had
            // every fabric side effect, but produces no CQE. Errors always
            // surface, so a suppressed batch cannot fail silently.
            if signaled || !ok {
                cq.push(cqe);
            }
        }
        self.inner.borrow_mut().released = cqes;
        // CQ backlog gauge: how many delivered-but-unpolled completions the
        // consumer has let accumulate at this completion instant.
        stats.cq_backlog.record_value(cq.len() as u64);
    }
}

impl OpTimeouts {
    /// Puts a QP in the error state, flushing every pending work request.
    /// Flush CQEs are generated for unsignaled WRs too — error completions
    /// are never suppressed — and retain post order.
    fn fail_qp(&self, qpn: Qpn, victim_req: u64) {
        let mut inner = self.inner.borrow_mut();
        let Some(qp) = inner.qps.get_mut(&qpn.0) else {
            return;
        };
        qp.error = true;
        let cq = qp.cq.clone();
        let stats = qp.stats.clone();
        let mut cqes = Vec::new();
        let mut released = 0u64;
        let now = self.sim.now();
        for w in qp.sq.drain(..) {
            self.sim.cancel(w.timeout);
            released += w.byte_len;
            stats.flushed.incr();
            // The victim op spent its whole wait on an attempt that timed
            // out: a failed completion, blamed on the retry phase of its
            // span tree (flushed siblings shared the same wait; one span
            // suffices for the batch).
            if w.req_id == victim_req {
                w.ledger.completed(Completion {
                    posted_at: w.posted_at,
                    post_ns: w.post_cost_ns,
                    resolved_at: now,
                    now,
                    nic_ns: 0,
                    ok: false,
                    response_bytes: 0,
                });
            }
            cqes.push(Cqe {
                wr_id: w.wr_id,
                opcode: w.opcode,
                status: if w.req_id == victim_req {
                    CqStatus::Timeout
                } else {
                    CqStatus::Flushed
                },
                byte_len: w.byte_len,
                imm: None,
            });
        }
        self.stats.qp_error.fire(qpn.0, victim_req);
        qp.unmatched.clear(); // nothing can match them now; their pins go
        for r in qp.recvq.drain(..) {
            cqes.push(Cqe {
                wr_id: r.wr_id,
                opcode: CqeOpcode::Recv,
                status: CqStatus::Flushed,
                byte_len: 0,
                imm: None,
            });
        }
        inner.outstanding_bytes = inner.outstanding_bytes.saturating_sub(released);
        drop(inner);
        for cqe in cqes {
            cq.push(cqe);
        }
        stats.cq_backlog.record_value(cq.len() as u64);
    }
}

/// Guard returned by [`RdmaDevice::ledger_scope`]; restores the previously
/// active ledger on drop.
pub struct LedgerScope {
    inner: Rc<RefCell<DevInner>>,
    prev: OpLedger,
}

impl Drop for LedgerScope {
    fn drop(&mut self) {
        self.inner.borrow_mut().current_ledger = std::mem::take(&mut self.prev);
    }
}

fn check(
    arena: &Arena,
    rkey: RKey,
    addr: u64,
    len: u64,
    needed: Access,
) -> std::result::Result<(), WireStatus> {
    let Some(mr) = arena.mr(rkey) else {
        return Err(WireStatus::AccessDenied);
    };
    match mr.check(addr, len, needed) {
        Ok(()) => Ok(()),
        Err(RdmaError::AccessDenied) => Err(WireStatus::AccessDenied),
        Err(_) => Err(WireStatus::OutOfBounds),
    }
}

fn wire_to_cq(status: WireStatus) -> CqStatus {
    match status {
        WireStatus::Ok => CqStatus::Success,
        WireStatus::AccessDenied => CqStatus::RemoteAccess,
        WireStatus::OutOfBounds => CqStatus::RemoteOutOfBounds,
        WireStatus::RecvOverflow => CqStatus::RecvOverflow,
    }
}

/// A listening endpoint (the `rdma_cm` listener analogue).
pub struct Listener {
    dev: RdmaDevice,
    service: u16,
    rx: Receiver<PendingConn>,
}

impl fmt::Debug for Listener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Listener")
            .field("node", &self.dev.node)
            .field("service", &self.service)
            .finish()
    }
}

impl Listener {
    /// Waits for the next connection request and accepts it, creating the
    /// server-side queue pair with completions on `cq`.
    ///
    /// # Errors
    ///
    /// [`RdmaError::ConnectionRefused`] if the listener was shut down.
    pub async fn accept(&mut self, cq: &CompletionQueue) -> Result<Qp> {
        let conn = self.rx.recv().await.ok_or(RdmaError::ConnectionRefused)?;
        let qpn = {
            let mut inner = self.dev.inner.borrow_mut();
            let qpn = Qpn(inner.next_qpn);
            inner.next_qpn += 1;
            inner.qps.insert(
                qpn.0,
                QpState {
                    remote_node: conn.peer,
                    remote_qpn: Some(conn.peer_qpn),
                    cq: cq.clone(),
                    next_req: 1,
                    sq: VecDeque::new(),
                    recvq: VecDeque::new(),
                    unmatched: VecDeque::new(),
                    error: false,
                    stats: self.dev.qp_stats(qpn),
                },
            );
            qpn
        };
        let msg = NetMsg::Cm(CmMsg::ConnAccept {
            conn_id: conn.conn_id,
            server_qpn: qpn,
        });
        let wire = msg.wire_bytes();
        self.dev.fabric.send(self.dev.node, conn.peer, wire, msg);
        Ok(Qp {
            dev: self.dev.clone(),
            qpn,
        })
    }

    /// The service id this listener serves.
    pub fn service(&self) -> u16 {
        self.service
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.dev.inner.borrow_mut().listeners.remove(&self.service);
    }
}

/// A reliable connected queue pair.
///
/// All `post_*` methods are non-blocking, verbs style: they enqueue the work
/// request and return; a [`Cqe`] lands on the QP's completion queue when the
/// operation finishes. Completions are delivered in post order.
#[derive(Clone)]
pub struct Qp {
    dev: RdmaDevice,
    qpn: Qpn,
}

impl fmt::Debug for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Qp")
            .field("node", &self.dev.node)
            .field("qpn", &self.qpn)
            .finish()
    }
}

impl Qp {
    /// This queue pair's number.
    pub fn qpn(&self) -> Qpn {
        self.qpn
    }

    /// The node on the other end of the connection.
    pub fn peer(&self) -> NodeId {
        self.dev.inner.borrow().qps[&self.qpn.0].remote_node
    }

    /// The owning device.
    pub fn device(&self) -> &RdmaDevice {
        &self.dev
    }

    /// True once the QP has entered the error state.
    pub fn is_errored(&self) -> bool {
        self.dev
            .inner
            .borrow()
            .qps
            .get(&self.qpn.0)
            .is_some_and(|q| q.error)
    }

    /// Posts a one-sided RDMA READ of `dst.len` bytes from `remote` into the
    /// local buffer `dst`: a chain of one through [`Qp::post_batch`], like
    /// every `post_*` call below.
    ///
    /// # Errors
    ///
    /// As for [`Qp::post_batch`].
    pub fn post_read(&self, wr_id: u64, dst: DmaBuf, remote: RemoteAddr) -> Result<()> {
        self.post_batch(&[Wr::read(wr_id, dst, remote)])
    }

    /// Posts a one-sided RDMA WRITE of the local buffer `src` to `remote`.
    ///
    /// # Errors
    ///
    /// As for [`Qp::post_batch`].
    pub fn post_write(&self, wr_id: u64, src: DmaBuf, remote: RemoteAddr) -> Result<()> {
        self.post_batch(&[Wr::write(wr_id, src, remote)])
    }

    /// Posts a compare-and-swap on a remote u64; the prior value lands in
    /// `result` (8 bytes) on completion.
    ///
    /// # Errors
    ///
    /// As for [`Qp::post_batch`].
    pub fn post_cas(
        &self,
        wr_id: u64,
        result: DmaBuf,
        remote: RemoteAddr,
        expect: u64,
        swap: u64,
    ) -> Result<()> {
        let op = AtomicOp::CompareSwap { expect, swap };
        self.post_batch(&[Wr::atomic(wr_id, result, remote, op)])
    }

    /// Posts a two-sided SEND of the local buffer `src`, optionally carrying
    /// a 32-bit immediate.
    ///
    /// # Errors
    ///
    /// As for [`Qp::post_batch`].
    pub fn post_send(&self, wr_id: u64, src: DmaBuf, imm: Option<u32>) -> Result<()> {
        self.post_batch(&[Wr::send(wr_id, src, imm)])
    }

    /// Posts a receive buffer for an incoming SEND. If a SEND is already
    /// waiting (RNR queue), it is delivered immediately.
    ///
    /// # Errors
    ///
    /// [`RdmaError::QpError`] if the QP is in the error state.
    pub fn post_recv(&self, wr_id: u64, buf: DmaBuf) -> Result<()> {
        let mut inner = self.dev.inner.borrow_mut();
        let qp = inner
            .qps
            .get_mut(&self.qpn.0)
            .ok_or(RdmaError::InvalidHandle)?;
        if qp.error {
            return Err(RdmaError::QpError);
        }
        if let Some((req_id, payload, imm)) = qp.unmatched.pop_front() {
            let cq = qp.cq.clone();
            let stats = qp.stats.clone();
            let peer = qp.remote_node;
            let peer_qpn = qp.remote_qpn.expect("connected");
            drop(inner);
            let status = self
                .dev
                .deliver_recv(&cq, &stats, RecvWr { wr_id, buf }, payload, imm);
            self.dev
                .reply(peer, peer_qpn, QpMsg::SendAck { req_id, status });
        } else {
            qp.recvq.push_back(RecvWr { wr_id, buf });
        }
        Ok(())
    }

    /// Posts a linked list of work requests — the one way anything enters
    /// the send queue; a lone READ is a chain of one. Verbs
    /// `ibv_post_send`-style, each chunk of [`RdmaConfig::max_batch`] WRs
    /// rings **one doorbell**: its first WR pays
    /// [`RdmaConfig::post_overhead`] ([`RdmaConfig::inline_post_overhead`]
    /// when it is an inline WRITE), each linked successor only the amortized
    /// [`RdmaConfig::batch_wr_overhead`]. Combined with unsignaled WRs (see
    /// [`Wr::unsignaled`]) this is the Storm-style small-IO batching recipe:
    /// ring once, reap one CQE.
    ///
    /// The whole chain is validated before anything is posted, so an invalid
    /// WR posts nothing. WRs enter the send queue (and the fabric) in slice
    /// order; completions release in the same order.
    ///
    /// # Errors
    ///
    /// * [`RdmaError::InvalidHandle`] — empty chain (nothing to ring for).
    /// * [`RdmaError::QpError`] — QP already in the error state.
    /// * [`RdmaError::OutOfBounds`] — a WR's local buffer is invalid, or an
    ///   inline payload exceeds [`RdmaConfig::inline_max`] (`0`, the
    ///   default, disables inlining entirely).
    pub fn post_batch(&self, wrs: &[Wr<'_>]) -> Result<()> {
        if wrs.is_empty() {
            return Err(RdmaError::InvalidHandle);
        }
        let cfg = &self.dev.cfg;
        let ledger = {
            let inner = self.dev.inner.borrow();
            let qp = inner.qps.get(&self.qpn.0).ok_or(RdmaError::InvalidHandle)?;
            if qp.error {
                return Err(RdmaError::QpError);
            }
            for wr in wrs {
                match &wr.op {
                    WrOp::Read(sges) | WrOp::Write(sges) => {
                        for e in sges.entries() {
                            inner.arena.check_range(e.local.addr, e.local.len)?;
                        }
                    }
                    WrOp::WriteInline { bytes, remote } => {
                        let len = bytes.len() as u64;
                        if cfg.inline_max == 0 || len > cfg.inline_max {
                            return Err(RdmaError::OutOfBounds {
                                addr: remote.addr,
                                len,
                            });
                        }
                    }
                    WrOp::Atomic { result: buf, .. } | WrOp::Send { src: buf, .. } => {
                        inner.arena.check_range(buf.addr, buf.len)?;
                    }
                }
            }
            inner.current_ledger.clone()
        };
        let stats = &self.dev.stats;
        // Cumulative WQE-build delay: chunk k's packets leave once every WQE
        // of chunks 0..=k is built.
        let mut build_delay = std::time::Duration::ZERO;
        for chunk in wrs.chunks(cfg.max_batch.max(1)) {
            let mut guard = self.dev.inner.borrow_mut();
            let inner = &mut *guard;
            let now = self.dev.sim.now();
            let qp = inner
                .qps
                .get_mut(&self.qpn.0)
                .ok_or(RdmaError::InvalidHandle)?;
            let peer_qpn = qp.remote_qpn.expect("QP not connected");
            // The chunk's wire requests are staged in a doorbell slot and go
            // on the wire when the chunk's doorbell timer, armed below, fires.
            let (slot, mut chain) = self.dev.doorbells.reserve();
            let mut chunk_post_ns = 0u64;
            for (i, wr) in chunk.iter().enumerate() {
                let (opcode, byte_len, subs) = wr.op.shape();
                let post_cost = if i > 0 {
                    cfg.batch_wr_overhead
                } else if matches!(wr.op, WrOp::WriteInline { .. }) {
                    cfg.inline_post_overhead
                } else {
                    cfg.post_overhead
                };
                let post_cost_ns = post_cost.as_nanos() as u64;
                chunk_post_ns += post_cost_ns;
                let base = qp.next_req;
                qp.next_req += subs;
                let mut dsts = [DmaBuf { addr: 0, len: 0 }; MAX_SGE];
                let mut emit = |msg: QpMsg| {
                    let msg = NetMsg::Qp { dst: peer_qpn, msg };
                    let wire = msg.wire_bytes();
                    ledger.wire(wire);
                    chain.push((wire, msg));
                };
                // WRITE and SEND payloads are sampled here, at post time, by
                // pinning the buffer; the ranges were validated above.
                let snapshot = |buf: &DmaBuf| {
                    inner
                        .arena
                        .read_payload(buf.addr, buf.len)
                        .expect("validated before posting")
                };
                // One wire request per element, on the consecutive
                // sub-ids `base..base + subs`.
                match &wr.op {
                    WrOp::Read(sges) => {
                        for (req_id, e) in (base..).zip(sges.entries()) {
                            dsts[(req_id - base) as usize] = e.local;
                            emit(QpMsg::ReadReq {
                                req_id,
                                raddr: e.remote.addr,
                                rkey: e.remote.rkey,
                                len: e.local.len,
                            });
                        }
                    }
                    WrOp::Write(sges) => {
                        for (req_id, e) in (base..).zip(sges.entries()) {
                            emit(QpMsg::WriteReq {
                                req_id,
                                raddr: e.remote.addr,
                                rkey: e.remote.rkey,
                                payload: snapshot(&e.local),
                            });
                        }
                    }
                    WrOp::WriteInline { bytes, remote } => emit(QpMsg::WriteReq {
                        req_id: base,
                        raddr: remote.addr,
                        rkey: remote.rkey,
                        payload: inner.arena.inline_payload(bytes),
                    }),
                    WrOp::Atomic { result, remote, op } => {
                        dsts[0] = *result;
                        emit(QpMsg::AtomicReq {
                            req_id: base,
                            raddr: remote.addr,
                            rkey: remote.rkey,
                            op: *op,
                        });
                    }
                    WrOp::Send { src, imm } => emit(QpMsg::Send {
                        req_id: base,
                        payload: snapshot(src),
                        imm: *imm,
                    }),
                }
                // The per-op timeout is backlog-aware: everything this
                // device already had in flight drains ahead of (or
                // interleaved with) this op, so it is granted wire time for
                // that backlog too.
                let budget = byte_len.saturating_add(inner.outstanding_bytes);
                let timeout = self.dev.sim.schedule_event(
                    now + cfg.op_timeout(budget),
                    &self.dev.timeouts,
                    self.qpn.0,
                    base,
                );
                qp.sq.push_back(PendingWr {
                    req_id: base,
                    wr_id: wr.wr_id,
                    opcode,
                    byte_len,
                    status: None,
                    posted_at: now,
                    resolved_at: now,
                    signaled: wr.signaled,
                    ledger: ledger.clone(),
                    post_cost_ns,
                    subs,
                    remaining: subs,
                    dsts,
                    folded: CqStatus::Success,
                    timeout,
                });
                inner.outstanding_bytes += byte_len;
                stats.doorbell_bytes.record_value(byte_len);
                if subs > 1 {
                    stats.sge_wrs.incr();
                    stats.sge_entries.record_value(subs);
                }
                qp.stats.posted.incr();
                qp.stats.outstanding_depth.record_value(qp.sq.len() as u64);
            }
            // One doorbell for the whole chunk; per-WR bytes were recorded
            // above, and the ring size feeds the batching histogram.
            stats.doorbells.incr();
            stats.doorbell_wrs.record_value(chunk.len() as u64);
            ledger.posted(now, chunk_post_ns);
            // Charge the doorbell/WQE-build CPU cost before the packets
            // exist.
            build_delay += std::time::Duration::from_nanos(chunk_post_ns);
            let (at, peer) = (now + build_delay, qp.remote_node.0 as u64);
            self.dev
                .sim
                .schedule_event(at, &self.dev.doorbells, slot, peer);
        }
        Ok(())
    }
}

/// One send-queue work request: what [`Qp::post_batch`] chains. The
/// lifetime is that of an inline payload's host bytes; every other WR is a
/// [`BatchWr`].
#[derive(Clone, Copy, Debug)]
pub struct Wr<'a> {
    /// Caller's completion correlation id.
    pub wr_id: u64,
    /// The operation to perform.
    pub op: WrOp<'a>,
    /// Whether a *successful* completion generates a CQE. Error and flush
    /// completions are always delivered regardless. The canonical batch
    /// signals only its last WR: post-order completion release then makes
    /// that one CQE prove the whole batch finished.
    pub signaled: bool,
}

/// A [`Wr`] that borrows no host bytes — anything but an inline WRITE.
pub type BatchWr = Wr<'static>;

impl<'a> Wr<'a> {
    fn new(wr_id: u64, op: WrOp<'a>) -> Wr<'a> {
        Wr {
            wr_id,
            op,
            signaled: true,
        }
    }

    /// A signaled RDMA READ of `dst.len` bytes from `remote` into `dst`.
    pub fn read(wr_id: u64, dst: DmaBuf, remote: RemoteAddr) -> Wr<'a> {
        Wr::read_sge(wr_id, SgeList::one(dst, remote))
    }

    /// A signaled RDMA WRITE of `src` to `remote`.
    pub fn write(wr_id: u64, src: DmaBuf, remote: RemoteAddr) -> Wr<'a> {
        Wr::write_sge(wr_id, SgeList::one(src, remote))
    }

    /// A signaled scatter-gather READ: one WR/CQE covering every element.
    pub fn read_sge(wr_id: u64, sges: SgeList) -> Wr<'a> {
        Wr::new(wr_id, WrOp::Read(sges))
    }

    /// A signaled scatter-gather WRITE: one WR/CQE covering every element.
    pub fn write_sge(wr_id: u64, sges: SgeList) -> Wr<'a> {
        Wr::new(wr_id, WrOp::Write(sges))
    }

    /// A signaled inline RDMA WRITE of the host slice `bytes` to `remote`.
    pub fn write_inline(wr_id: u64, bytes: &'a [u8], remote: RemoteAddr) -> Wr<'a> {
        Wr::new(wr_id, WrOp::WriteInline { bytes, remote })
    }

    /// A signaled atomic on the remote u64 at `remote`; the prior value
    /// lands in `result` (8 bytes).
    pub fn atomic(wr_id: u64, result: DmaBuf, remote: RemoteAddr, op: AtomicOp) -> Wr<'a> {
        Wr::new(wr_id, WrOp::Atomic { result, remote, op })
    }

    /// A signaled two-sided SEND of `src`, optionally with an immediate.
    pub fn send(wr_id: u64, src: DmaBuf, imm: Option<u32>) -> Wr<'a> {
        Wr::new(wr_id, WrOp::Send { src, imm })
    }

    /// Suppresses the success CQE for this WR.
    pub fn unsignaled(mut self) -> Wr<'a> {
        self.signaled = false;
        self
    }
}

/// Operation carried by a [`Wr`].
#[derive(Clone, Copy, Debug)]
pub enum WrOp<'a> {
    /// RDMA READ: one CQE, each element's remote extent lands in its own
    /// local buffer (whose length is the element's read size).
    Read(SgeList),
    /// RDMA WRITE: one CQE, each element's local buffer (snapshotted at post
    /// time) goes to its remote extent.
    Write(SgeList),
    /// RDMA WRITE whose payload is copied from host memory into the WQE at
    /// post time, verbs `IBV_SEND_INLINE` style: no local DmaBuf is staged
    /// or registered — the data travels with the work request — and a
    /// doorbell rung for it costs the cheaper
    /// [`RdmaConfig::inline_post_overhead`] (no lkey check or DMA readback
    /// of the source buffer).
    WriteInline {
        /// The payload, at most [`RdmaConfig::inline_max`] bytes.
        bytes: &'a [u8],
        /// Remote destination.
        remote: RemoteAddr,
    },
    /// Atomic on a remote u64, executed by the responder NIC.
    Atomic {
        /// Local 8-byte buffer receiving the prior value.
        result: DmaBuf,
        /// The remote word (8-byte aligned).
        remote: RemoteAddr,
        /// Compare-and-swap or fetch-and-add.
        op: AtomicOp,
    },
    /// Two-sided SEND of a local buffer (snapshotted at post time).
    Send {
        /// Local source buffer.
        src: DmaBuf,
        /// Optional 32-bit immediate.
        imm: Option<u32>,
    },
}

impl WrOp<'_> {
    /// `(completion opcode, logical byte count, wire sub-requests)`.
    fn shape(&self) -> (CqeOpcode, u64, u64) {
        match self {
            WrOp::Read(sges) => (CqeOpcode::Read, sges.total_bytes(), sges.len() as u64),
            WrOp::Write(sges) => (CqeOpcode::Write, sges.total_bytes(), sges.len() as u64),
            WrOp::WriteInline { bytes, .. } => (CqeOpcode::Write, bytes.len() as u64, 1),
            WrOp::Atomic { op, .. } => match op {
                AtomicOp::CompareSwap { .. } => (CqeOpcode::CompSwap, 8, 1),
                AtomicOp::FetchAdd { .. } => (CqeOpcode::FetchAdd, 8, 1),
            },
            WrOp::Send { src, .. } => (CqeOpcode::Send, src.len, 1),
        }
    }
}

/// Maximum number of elements in an [`SgeList`] — the modeled
/// `max_send_sge` device cap (real NICs commonly advertise 16-32).
pub const MAX_SGE: usize = 16;

/// One scatter/gather element: a local buffer paired with the remote
/// extent it reads from / writes to.
///
/// Unlike real verbs SGEs (which scatter/gather only the *local* side of a
/// single contiguous remote extent), each element here carries its own
/// remote address — the shape striped IO actually needs. See DESIGN.md for
/// how this maps onto hardware.
#[derive(Clone, Copy, Debug)]
pub struct Sge {
    /// Local buffer; its length is the element's transfer size.
    pub local: DmaBuf,
    /// Remote extent the element targets.
    pub remote: RemoteAddr,
}

/// A fixed-capacity scatter/gather list (1..=[`MAX_SGE`] elements), `Copy`
/// so [`Wr`] stays `Copy`.
#[derive(Clone, Copy, Debug)]
pub struct SgeList {
    len: u8,
    entries: [Sge; MAX_SGE],
}

impl SgeList {
    /// Builds a list from a slice of elements.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] — empty slice or more than [`MAX_SGE`]
    /// elements (the modeled device cap).
    pub fn new(elems: &[Sge]) -> Result<SgeList> {
        if elems.is_empty() || elems.len() > MAX_SGE {
            return Err(RdmaError::InvalidHandle);
        }
        let mut entries = [elems[0]; MAX_SGE];
        entries[..elems.len()].copy_from_slice(elems);
        Ok(SgeList {
            len: elems.len() as u8,
            entries,
        })
    }

    /// The list of one element a plain READ or WRITE carries.
    fn one(local: DmaBuf, remote: RemoteAddr) -> SgeList {
        SgeList {
            len: 1,
            entries: [Sge { local, remote }; MAX_SGE],
        }
    }

    /// The populated elements.
    pub fn entries(&self) -> &[Sge] {
        &self.entries[..self.len as usize]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false: [`SgeList::new`] rejects empty lists.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of element lengths — the WR's logical byte count.
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.local.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::FabricConfig;
    use std::time::Duration;

    fn two_devices() -> (Sim, Fabric<NetMsg>, RdmaDevice, RdmaDevice) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let a = RdmaDevice::new(&fabric, RdmaConfig::default());
        let b = RdmaDevice::new(&fabric, RdmaConfig::default());
        (sim, fabric, a, b)
    }

    /// Connect a<->b and run `f` with (client qp, client cq, server qp, server cq).
    fn connected<F, Fut, T>(f: F) -> T
    where
        F: FnOnce(RdmaDevice, RdmaDevice, Qp, CompletionQueue, Qp, CompletionQueue) -> Fut
            + 'static,
        Fut: std::future::Future<Output = T> + 'static,
        T: 'static,
    {
        let (sim, _fabric, a, b) = two_devices();
        sim.block_on(async move {
            let mut listener = b.listen(7).unwrap();
            let scq = CompletionQueue::new();
            let ccq = CompletionQueue::new();
            let b2 = b.clone();
            let scq2 = scq.clone();
            let accept = b
                .sim()
                .spawn(async move { listener.accept(&scq2).await.unwrap() });
            let cqp = a.connect(b2.node(), 7, &ccq).await.unwrap();
            let sqp = accept.await;
            f(a, b2, cqp, ccq, sqp, scq).await
        })
    }

    #[test]
    fn read_moves_real_bytes() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"remote-data!").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(12).unwrap();
            cqp.post_read(1, dst, mr.token().at(0, 12).unwrap())
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.wr_id, 1);
            assert_eq!(cqe.status, CqStatus::Success);
            assert_eq!(cqe.opcode, CqeOpcode::Read);
            assert_eq!(cqe.byte_len, 12);
            assert_eq!(a.read_mem(dst.addr, 12).unwrap(), b"remote-data!");
        });
    }

    #[test]
    fn write_moves_real_bytes() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(16).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();
            let src = a.alloc_init(b"hello, server").unwrap();
            cqp.post_write(2, src, mr.token().at(0, 13).unwrap())
                .unwrap();
            let cqe = ccq.next().await;
            assert!(cqe.status.is_ok());
            assert_eq!(b.read_mem(server_buf.addr, 13).unwrap(), b"hello, server");
        });
    }

    #[test]
    fn small_read_latency_is_close_to_hardware() {
        let lat = connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(8).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(8).unwrap();
            let t0 = a.sim().now();
            cqp.post_read(1, dst, mr.token().at(0, 8).unwrap()).unwrap();
            ccq.next().await;
            a.sim().now() - t0
        });
        // The paper's "close to hardware" claim: single-digit microseconds.
        assert!(
            lat >= Duration::from_nanos(1200),
            "suspiciously fast: {lat:?}"
        );
        assert!(lat <= Duration::from_micros(4), "too slow: {lat:?}");
    }

    #[test]
    fn access_violations_complete_with_error() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(8).unwrap();
            // Registered read-only: writes must be rejected.
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let src = a.alloc(8).unwrap();
            cqp.post_write(1, src, mr.token().at(0, 8).unwrap())
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.status, CqStatus::RemoteAccess);

            // Bogus rkey.
            let dst = a.alloc(8).unwrap();
            cqp.post_read(
                2,
                dst,
                RemoteAddr {
                    addr: server_buf.addr,
                    rkey: RKey(0xBAD),
                },
            )
            .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.status, CqStatus::RemoteAccess);
        });
    }

    #[test]
    fn set_mr_access_seals_writes_but_keeps_reads() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"migrate!").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_ALL).unwrap();
            let src = a.alloc_init(b"clobber!").unwrap();
            cqp.post_write(1, src, mr.token().at(0, 8).unwrap())
                .unwrap();
            assert_eq!(ccq.next().await.status, CqStatus::Success);

            // Seal to read-only: same rkey, writes now fault, reads still serve.
            b.set_mr_access(mr.rkey, Access::REMOTE_READ).unwrap();
            cqp.post_write(2, src, mr.token().at(0, 8).unwrap())
                .unwrap();
            assert_eq!(ccq.next().await.status, CqStatus::RemoteAccess);
            let dst = a.alloc(8).unwrap();
            cqp.post_read(3, dst, mr.token().at(0, 8).unwrap()).unwrap();
            assert_eq!(ccq.next().await.status, CqStatus::Success);
            assert_eq!(a.read_mem(dst.addr, 8).unwrap(), b"clobber!");

            // Restore full rights: writes succeed again.
            b.set_mr_access(mr.rkey, Access::REMOTE_ALL).unwrap();
            cqp.post_write(4, src, mr.token().at(0, 8).unwrap())
                .unwrap();
            assert_eq!(ccq.next().await.status, CqStatus::Success);

            assert!(b.set_mr_access(RKey(0xBAD), Access::REMOTE_READ).is_err());
        });
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(8).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(64).unwrap();
            // Try to read 64 bytes from an 8-byte region.
            cqp.post_read(
                1,
                dst,
                RemoteAddr {
                    addr: mr.buf.addr,
                    rkey: mr.rkey,
                },
            )
            .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.status, CqStatus::RemoteOutOfBounds);
        });
    }

    #[test]
    fn completions_release_in_post_order() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let big = b.alloc(1 << 20).unwrap();
            let small = b.alloc(8).unwrap();
            let mr_big = b.reg_mr(big, Access::REMOTE_READ).unwrap();
            let mr_small = b.reg_mr(small, Access::REMOTE_READ).unwrap();
            let dst_big = a.alloc(1 << 20).unwrap();
            let dst_small = a.alloc(8).unwrap();
            // Post the slow (1 MiB) read first, the fast (8 B) read second:
            // completions must still arrive 1 then 2.
            cqp.post_read(1, dst_big, mr_big.token().at(0, 1 << 20).unwrap())
                .unwrap();
            cqp.post_read(2, dst_small, mr_small.token().at(0, 8).unwrap())
                .unwrap();
            let first = ccq.next().await;
            let second = ccq.next().await;
            assert_eq!((first.wr_id, second.wr_id), (1, 2));
        });
    }

    #[test]
    fn send_recv_round_trip_with_imm() {
        connected(|a, b, cqp, ccq, sqp, scq| async move {
            let rbuf = b.alloc(32).unwrap();
            sqp.post_recv(10, rbuf).unwrap();
            let src = a.alloc_init(b"ping").unwrap();
            cqp.post_send(11, src, Some(77)).unwrap();
            let recv_cqe = scq.next().await;
            assert_eq!(recv_cqe.opcode, CqeOpcode::Recv);
            assert_eq!(recv_cqe.wr_id, 10);
            assert_eq!(recv_cqe.imm, Some(77));
            assert_eq!(recv_cqe.byte_len, 4);
            assert_eq!(b.read_mem(rbuf.addr, 4).unwrap(), b"ping");
            let send_cqe = ccq.next().await;
            assert_eq!(send_cqe.wr_id, 11);
            assert!(send_cqe.status.is_ok());
        });
    }

    #[test]
    fn send_before_recv_waits_rnr() {
        connected(|a, b, cqp, ccq, sqp, scq| async move {
            let src = a.alloc_init(b"early").unwrap();
            cqp.post_send(1, src, None).unwrap();
            // Give the SEND time to arrive before the receive is posted.
            a.sim().sleep(Duration::from_micros(5)).await;
            assert!(scq.is_empty(), "no recv posted yet");
            let rbuf = b.alloc(8).unwrap();
            sqp.post_recv(2, rbuf).unwrap();
            let recv_cqe = scq.next().await;
            assert_eq!(recv_cqe.wr_id, 2);
            assert_eq!(b.read_mem(rbuf.addr, 5).unwrap(), b"early");
            assert!(ccq.next().await.status.is_ok());
        });
    }

    #[test]
    fn recv_overflow_reported_both_sides() {
        connected(|a, b, cqp, ccq, sqp, scq| async move {
            let rbuf = b.alloc(2).unwrap();
            sqp.post_recv(1, rbuf).unwrap();
            let src = a.alloc_init(b"too large for two bytes").unwrap();
            cqp.post_send(2, src, None).unwrap();
            assert_eq!(scq.next().await.status, CqStatus::RecvOverflow);
            assert_eq!(ccq.next().await.status, CqStatus::RecvOverflow);
        });
    }

    #[test]
    fn atomics_fetch_add_and_cas() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let counter = b.alloc(8).unwrap();
            b.write_u64(counter.addr, 100).unwrap();
            let mr = b.reg_mr(counter, Access::REMOTE_ATOMIC).unwrap();
            let result = a.alloc(8).unwrap();

            let faa = AtomicOp::FetchAdd { add: 5 };
            cqp.post_batch(&[Wr::atomic(1, result, mr.token().at(0, 8).unwrap(), faa)])
                .unwrap();
            let cqe = ccq.next().await;
            assert!(cqe.status.is_ok());
            assert_eq!(a.read_u64(result.addr).unwrap(), 100);
            assert_eq!(b.read_u64(counter.addr).unwrap(), 105);

            // Successful CAS.
            cqp.post_cas(2, result, mr.token().at(0, 8).unwrap(), 105, 7)
                .unwrap();
            ccq.next().await;
            assert_eq!(a.read_u64(result.addr).unwrap(), 105);
            assert_eq!(b.read_u64(counter.addr).unwrap(), 7);

            // Failed CAS leaves the value.
            cqp.post_cas(3, result, mr.token().at(0, 8).unwrap(), 999, 1)
                .unwrap();
            ccq.next().await;
            assert_eq!(a.read_u64(result.addr).unwrap(), 7);
            assert_eq!(b.read_u64(counter.addr).unwrap(), 7);
        });
    }

    #[test]
    fn connect_to_missing_service_refused() {
        let (sim, _fabric, a, b) = two_devices();
        let err = sim.block_on(async move {
            let cq = CompletionQueue::new();
            a.connect(b.node(), 99, &cq).await.err().unwrap()
        });
        assert_eq!(err, RdmaError::ConnectionRefused);
    }

    #[test]
    fn connect_to_dead_node_times_out() {
        let (sim, fabric, a, b) = two_devices();
        fabric.set_node_up(b.node(), false);
        let err = sim.block_on(async move {
            let cq = CompletionQueue::new();
            a.connect(b.node(), 7, &cq).await.err().unwrap()
        });
        assert_eq!(err, RdmaError::Timeout);
    }

    #[test]
    fn op_to_dead_node_times_out_and_flushes() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(8).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            // Kill the server mid-connection.
            let fabric_down = b.clone();
            fabric_down.fabric.set_node_up(b.node(), false);
            let dst = a.alloc(8).unwrap();
            cqp.post_read(1, dst, mr.token().at(0, 8).unwrap()).unwrap();
            cqp.post_read(2, dst, mr.token().at(0, 8).unwrap()).unwrap();
            let c1 = ccq.next().await;
            let c2 = ccq.next().await;
            assert_eq!(c1.status, CqStatus::Timeout);
            assert_eq!(c2.status, CqStatus::Flushed);
            assert!(cqp.is_errored());
            let err = cqp.post_read(3, dst, mr.token().at(0, 8).unwrap());
            assert_eq!(err, Err(RdmaError::QpError));
            // The flush released both WRs' bytes, and the rejected post
            // added none: the device backlog is empty again.
            assert_eq!(a.op_deadline(0), a.config().op_timeout(0));
        });
    }

    #[test]
    fn large_read_bandwidth_near_line_rate() {
        let (secs, bytes) = connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let len = 512u64 << 20; // 512 MiB, synthetic so no real copy
            let server_buf = b.alloc_synthetic(len).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc_synthetic(len).unwrap();
            let t0 = a.sim().now();
            cqp.post_read(1, dst, mr.token().at(0, len).unwrap())
                .unwrap();
            let cqe = ccq.next().await;
            assert!(cqe.status.is_ok());
            ((a.sim().now() - t0).as_secs_f64(), len)
        });
        let gbps = bytes as f64 * 8.0 / secs / 1e9;
        assert!(
            (gbps - 54.3).abs() < 1.5,
            "single-flow read should run near line rate, got {gbps:.2} Gb/s"
        );
    }

    #[test]
    fn fluid_write_does_not_touch_backed_memory() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"keepme!!").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();
            let src = a.alloc_synthetic(8).unwrap();
            cqp.post_write(1, src, mr.token().at(0, 8).unwrap())
                .unwrap();
            assert!(ccq.next().await.status.is_ok());
            // Synthetic payloads move no bytes.
            assert_eq!(b.read_mem(server_buf.addr, 8).unwrap(), b"keepme!!");
        });
    }

    #[test]
    fn remote_mr_at_checks_bounds() {
        let mr = RemoteMr {
            node: NodeId(0),
            addr: 1000,
            len: 100,
            rkey: RKey(1),
        };
        assert_eq!(mr.at(50, 50).unwrap().addr, 1050);
        assert!(mr.at(50, 51).is_err());
    }

    #[test]
    fn dereg_mr_blocks_subsequent_access() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let buf = b.alloc(8).unwrap();
            let mr = b.reg_mr(buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(8).unwrap();
            cqp.post_read(1, dst, mr.token().at(0, 8).unwrap()).unwrap();
            assert!(ccq.next().await.status.is_ok());
            b.dereg_mr(mr.rkey).unwrap();
            cqp.post_read(2, dst, mr.token().at(0, 8).unwrap()).unwrap();
            assert_eq!(ccq.next().await.status, CqStatus::RemoteAccess);
        });
    }

    #[test]
    fn listener_drop_refuses_new_connections() {
        let (sim, _fabric, a, b) = {
            let (sim, fabric, a, b) = {
                let sim = Sim::new();
                let fabric = Fabric::new(sim.clone(), fabric::FabricConfig::default());
                let a = RdmaDevice::new(&fabric, RdmaConfig::default());
                let b = RdmaDevice::new(&fabric, RdmaConfig::default());
                (sim, fabric, a, b)
            };
            (sim, fabric, a, b)
        };
        let err = sim.block_on(async move {
            {
                let _listener = b.listen(5).unwrap();
                // Listener dropped at end of scope without accepting.
            }
            let cq = CompletionQueue::new();
            a.connect(b.node(), 5, &cq).await.err().unwrap()
        });
        assert_eq!(err, RdmaError::ConnectionRefused);
    }

    #[test]
    fn many_qps_between_one_pair_are_independent() {
        let (sim, _fabric, a, b) = two_devices();
        sim.block_on(async move {
            let mut listener = b.listen(7).unwrap();
            let scq = CompletionQueue::new();
            let b2 = b.clone();
            b.sim().spawn(async move {
                loop {
                    if listener.accept(&scq).await.is_err() {
                        break;
                    }
                }
            });
            let data = b2.alloc_init(b"independent-qps!").unwrap();
            let mr = b2.reg_mr(data, Access::REMOTE_READ).unwrap();
            let mut qps = Vec::new();
            for _ in 0..8 {
                let cq = CompletionQueue::new();
                let qp = a.connect(b2.node(), 7, &cq).await.unwrap();
                qps.push((qp, cq));
            }
            // Issue one read per QP concurrently; each completes on its own CQ.
            let mut dsts = Vec::new();
            for (i, (qp, _)) in qps.iter().enumerate() {
                let dst = a.alloc(16).unwrap();
                qp.post_read(i as u64, dst, mr.token().at(0, 16).unwrap())
                    .unwrap();
                dsts.push(dst);
            }
            for (i, (_, cq)) in qps.iter().enumerate() {
                let cqe = cq.next().await;
                assert_eq!(cqe.wr_id, i as u64);
                assert!(cqe.status.is_ok());
            }
            for dst in dsts {
                assert_eq!(a.read_mem(dst.addr, 16).unwrap(), b"independent-qps!");
            }
        });
    }

    #[test]
    fn pipelined_sends_drain_rnr_queue_in_order() {
        connected(|a, b, cqp, _ccq, sqp, scq| async move {
            // Five SENDs before any receive is posted.
            for i in 0..5u8 {
                let src = a.alloc_init(&[i; 4]).unwrap();
                cqp.post_send(i as u64, src, None).unwrap();
            }
            a.sim().sleep(Duration::from_micros(10)).await;
            // Post receives one by one: deliveries must come in send order.
            for i in 0..5u8 {
                let rbuf = b.alloc(4).unwrap();
                sqp.post_recv(100 + i as u64, rbuf).unwrap();
                let cqe = scq.next().await;
                assert_eq!(cqe.wr_id, 100 + i as u64);
                assert_eq!(b.read_mem(rbuf.addr, 4).unwrap(), vec![i; 4]);
            }
        });
    }

    #[test]
    fn per_qp_stats_and_latency_histograms() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(64).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(64).unwrap();
            for i in 0..3 {
                cqp.post_read(i, dst, mr.token().at(0, 64).unwrap())
                    .unwrap();
            }
            for _ in 0..3 {
                assert!(ccq.next().await.status.is_ok());
            }
            let m = a.metrics();
            let scope = format!("rdma.n{}.qp{}", a.node().0, cqp.qpn().0);
            assert_eq!(m.counter(&format!("{scope}.posted")), 3);
            assert_eq!(m.counter(&format!("{scope}.completed")), 3);
            let depth = m
                .histogram(&format!("{scope}.outstanding_depth"))
                .expect("depth recorded");
            assert_eq!(depth.len(), 3);
            assert_eq!(depth.max(), 3); // three reads were in flight at once
            let lat = m.histogram("rdma.wr_latency.read").expect("read latency");
            assert_eq!(lat.len(), 3);
            assert!(lat.min() > 0);
            assert_eq!(m.counter("rdma.doorbells"), 3);
        });
    }

    #[test]
    fn cq_backlog_gauge_tracks_unpolled_completions() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(64).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(64).unwrap();
            // Four reads posted back to back, none polled until all are
            // done: the CQ backlog climbs to 4 at the final completion.
            for i in 0..4 {
                cqp.post_read(i, dst, mr.token().at(0, 64).unwrap())
                    .unwrap();
            }
            a.sim().sleep(Duration::from_millis(1)).await;
            let m = a.metrics();
            let scope = format!("rdma.n{}.qp{}", a.node().0, cqp.qpn().0);
            let backlog = m
                .histogram(&format!("{scope}.cq_backlog"))
                .expect("backlog recorded");
            assert_eq!(backlog.len(), 4); // one sample per completion event
            assert_eq!(backlog.max(), 4);
            assert_eq!(backlog.min(), 1);
            for _ in 0..4 {
                assert!(ccq.next().await.status.is_ok());
            }
        });
    }

    #[test]
    fn empty_batch_rejected() {
        // Pinned edge case: an empty batch is an error before any state
        // changes — no doorbell rings, no CQE is ever delivered.
        connected(|a, _b, cqp, ccq, _sqp, _scq| async move {
            assert_eq!(cqp.post_batch(&[]), Err(RdmaError::InvalidHandle));
            a.sim().sleep(Duration::from_micros(20)).await;
            assert!(ccq.is_empty());
            assert_eq!(a.metrics().counter("rdma.doorbells"), 0);
        });
    }

    #[test]
    fn zero_length_payloads_complete_normally() {
        // Pinned edge case: zero-length READ/WRITE are legal WRs (verbs
        // allows 0-byte DMA lengths). They ring a doorbell, traverse the
        // fabric, and deliver a success CQE with byte_len 0 — they are NOT
        // silently elided.
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"untouched").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_ALL).unwrap();
            let empty = a.alloc(1).unwrap(); // non-empty alloc, 0-len slice
            let zero = DmaBuf {
                addr: empty.addr,
                len: 0,
            };
            cqp.post_write(1, zero, mr.token().at(0, 0).unwrap())
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(
                (cqe.wr_id, cqe.status, cqe.byte_len),
                (1, CqStatus::Success, 0)
            );
            cqp.post_read(2, zero, mr.token().at(0, 0).unwrap())
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(
                (cqe.wr_id, cqe.status, cqe.byte_len),
                (2, CqStatus::Success, 0)
            );
            // Both zero-length ops rang a real doorbell each.
            assert_eq!(a.metrics().counter("rdma.doorbells"), 2);
            assert_eq!(b.read_mem(server_buf.addr, 9).unwrap(), b"untouched");
        });
    }

    #[test]
    fn sge_read_gathers_with_one_doorbell() {
        // One scatter-gather READ covering four disjoint remote extents:
        // one WR, one doorbell, one CQE summing the element lengths, and
        // every element lands in its own local buffer.
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"AAAABBBBCCCCDDDD").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dsts: Vec<DmaBuf> = (0..4).map(|_| a.alloc(4).unwrap()).collect();
            let elems: Vec<Sge> = dsts
                .iter()
                .enumerate()
                .map(|(i, &local)| Sge {
                    local,
                    remote: mr.token().at(i as u64 * 4, 4).unwrap(),
                })
                .collect();
            cqp.post_batch(&[BatchWr::read_sge(7, SgeList::new(&elems).unwrap())])
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.wr_id, 7);
            assert_eq!(cqe.status, CqStatus::Success);
            assert_eq!(cqe.opcode, CqeOpcode::Read);
            assert_eq!(cqe.byte_len, 16);
            for (i, want) in [b"AAAA", b"BBBB", b"CCCC", b"DDDD"].iter().enumerate() {
                assert_eq!(a.read_mem(dsts[i].addr, 4).unwrap(), want.to_vec());
            }
            let m = a.metrics();
            assert_eq!(m.counter("rdma.doorbells"), 1);
            assert_eq!(m.counter("rdma.sge_wrs"), 1);
            let entries = m.histogram("rdma.sge_entries").unwrap();
            assert_eq!((entries.len(), entries.max()), (1, 4));
        });
    }

    #[test]
    fn sge_write_scatters_with_one_doorbell() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(&[0u8; 16]).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();
            let srcs = [b"aaaa", b"bbbb", b"cccc", b"dddd"];
            let elems: Vec<Sge> = srcs
                .iter()
                .enumerate()
                .map(|(i, s)| Sge {
                    local: a.alloc_init(*s).unwrap(),
                    remote: mr.token().at(i as u64 * 4, 4).unwrap(),
                })
                .collect();
            cqp.post_batch(&[BatchWr::write_sge(8, SgeList::new(&elems).unwrap())])
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(
                (cqe.wr_id, cqe.status, cqe.byte_len),
                (8, CqStatus::Success, 16)
            );
            assert_eq!(
                b.read_mem(server_buf.addr, 16).unwrap(),
                b"aaaabbbbccccdddd"
            );
            assert_eq!(a.metrics().counter("rdma.doorbells"), 1);
        });
    }

    #[test]
    fn sge_list_rejects_empty_and_oversized() {
        assert_eq!(SgeList::new(&[]).err(), Some(RdmaError::InvalidHandle));
        let e = Sge {
            local: DmaBuf { addr: 0, len: 1 },
            remote: RemoteAddr {
                addr: 0,
                rkey: RKey(1),
            },
        };
        assert_eq!(
            SgeList::new(&vec![e; MAX_SGE + 1]).err(),
            Some(RdmaError::InvalidHandle)
        );
        let ok = SgeList::new(&vec![e; MAX_SGE]).unwrap();
        assert_eq!(ok.len(), MAX_SGE);
        assert_eq!(ok.total_bytes(), MAX_SGE as u64);
    }

    #[test]
    fn sge_partial_failure_folds_whole_wr_status() {
        // One element of the gather list targets a bogus rkey: the WR's
        // single CQE reports the failure (first failing element wins), while
        // the healthy elements' side effects still land — exactly how a
        // multi-packet WR behaves on real hardware before the QP faults.
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"GOODGOOD").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let good = a.alloc(4).unwrap();
            let bad_dst = a.alloc(4).unwrap();
            let elems = [
                Sge {
                    local: good,
                    remote: mr.token().at(0, 4).unwrap(),
                },
                Sge {
                    local: bad_dst,
                    remote: RemoteAddr {
                        addr: server_buf.addr + 4,
                        rkey: RKey(0xBAD),
                    },
                },
            ];
            cqp.post_batch(&[BatchWr::read_sge(9, SgeList::new(&elems).unwrap())])
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.wr_id, 9);
            assert_eq!(cqe.status, CqStatus::RemoteAccess);
            // The healthy element completed its transfer before the WR
            // resolved.
            assert_eq!(a.read_mem(good.addr, 4).unwrap(), b"GOOD");
        });
    }

    #[test]
    fn sge_wr_counts_as_one_wr_in_a_chain() {
        // A batch mixing plain and SGE WRs: the SGE WR occupies ONE chain
        // slot (doorbell_wrs counts WRs, not elements).
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"0123456789abcdef").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let plain = a.alloc(4).unwrap();
            let elems: Vec<Sge> = (0..3)
                .map(|i| Sge {
                    local: a.alloc(4).unwrap(),
                    remote: mr.token().at(4 + i * 4, 4).unwrap(),
                })
                .collect();
            cqp.post_batch(&[
                BatchWr::read(1, plain, mr.token().at(0, 4).unwrap()).unsignaled(),
                BatchWr::read_sge(2, SgeList::new(&elems).unwrap()),
            ])
            .unwrap();
            let cqe = ccq.next().await;
            assert_eq!((cqe.wr_id, cqe.byte_len), (2, 12));
            assert_eq!(a.read_mem(plain.addr, 4).unwrap(), b"0123");
            let m = a.metrics();
            assert_eq!(m.counter("rdma.doorbells"), 1);
            let wrs = m.histogram("rdma.doorbell_wrs").unwrap();
            assert_eq!((wrs.len(), wrs.max()), (1, 2));
        });
    }

    fn connected_cfg<F, Fut, T>(cfg: RdmaConfig, f: F) -> T
    where
        F: FnOnce(RdmaDevice, RdmaDevice, Qp, CompletionQueue, Qp, CompletionQueue) -> Fut
            + 'static,
        Fut: std::future::Future<Output = T> + 'static,
        T: 'static,
    {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let a = RdmaDevice::new(&fabric, cfg.clone());
        let b = RdmaDevice::new(&fabric, cfg);
        sim.block_on(async move {
            let mut listener = b.listen(7).unwrap();
            let scq = CompletionQueue::new();
            let ccq = CompletionQueue::new();
            let b2 = b.clone();
            let scq2 = scq.clone();
            let accept = b
                .sim()
                .spawn(async move { listener.accept(&scq2).await.unwrap() });
            let cqp = a.connect(b2.node(), 7, &ccq).await.unwrap();
            let sqp = accept.await;
            f(a, b2, cqp, ccq, sqp, scq).await
        })
    }

    #[test]
    fn inline_write_lands_and_posts_cheaper() {
        let cfg = RdmaConfig {
            inline_max: 64,
            ..RdmaConfig::default()
        };
        connected_cfg(cfg, |a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(32).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();

            // Inline write straight from a host slice: no DmaBuf involved.
            let t0 = a.sim().now();
            cqp.post_batch(&[Wr::write_inline(
                1,
                b"inline-hello",
                mr.token().at(0, 12).unwrap(),
            )])
            .unwrap();
            let cqe = ccq.next().await;
            let inline_rtt = a.sim().now() - t0;
            assert_eq!(
                (cqe.wr_id, cqe.status, cqe.byte_len),
                (1, CqStatus::Success, 12)
            );
            assert_eq!(b.read_mem(server_buf.addr, 12).unwrap(), b"inline-hello");

            // The same write via the registered-buffer path takes longer:
            // the full post_overhead is charged instead of the inline cost.
            let src = a.alloc_init(b"regular-hullo").unwrap();
            let t1 = a.sim().now();
            cqp.post_write(2, src, mr.token().at(0, 13).unwrap())
                .unwrap();
            ccq.next().await;
            let regular_rtt = a.sim().now() - t1;
            let cfg = a.config().clone();
            assert_eq!(
                regular_rtt - inline_rtt,
                cfg.post_overhead - cfg.inline_post_overhead,
                "inline saves exactly the WQE-build delta \
                 (inline {inline_rtt:?} vs regular {regular_rtt:?})"
            );
        });
    }

    #[test]
    fn inline_write_rejected_when_disabled_or_oversized() {
        // Default config: inline posting disabled outright.
        connected(|_a, b, cqp, _ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(8).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();
            let err = cqp
                .post_batch(&[Wr::write_inline(1, b"x", mr.token().at(0, 1).unwrap())])
                .unwrap_err();
            assert!(matches!(err, RdmaError::OutOfBounds { .. }));
        });
        // Enabled with a cap: payloads over inline_max are rejected at post
        // time (verbs returns EINVAL from ibv_post_send the same way).
        let cfg = RdmaConfig {
            inline_max: 8,
            ..RdmaConfig::default()
        };
        connected_cfg(cfg, |a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(16).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();
            let err = cqp
                .post_batch(&[Wr::write_inline(
                    1,
                    b"nine-bytes",
                    mr.token().at(0, 10).unwrap(),
                )])
                .unwrap_err();
            assert!(matches!(err, RdmaError::OutOfBounds { len: 10, .. }));
            a.sim().sleep(Duration::from_micros(20)).await;
            assert!(ccq.is_empty());
            assert_eq!(a.metrics().counter("rdma.doorbells"), 0);
            // At the cap it goes through.
            cqp.post_batch(&[Wr::write_inline(
                2,
                b"88888888",
                mr.token().at(0, 8).unwrap(),
            )])
            .unwrap();
            assert_eq!(ccq.next().await.status, CqStatus::Success);
        });
    }

    #[test]
    fn batch_of_one_matches_single_post() {
        // A batch of one signaled WR must be observationally identical to
        // post_read: same CQE, same bytes, same doorbell count.
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc_init(b"batch-of-1!!").unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let dst = a.alloc(12).unwrap();
            cqp.post_batch(&[BatchWr::read(9, dst, mr.token().at(0, 12).unwrap())])
                .unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.wr_id, 9);
            assert_eq!(cqe.status, CqStatus::Success);
            assert_eq!(cqe.opcode, CqeOpcode::Read);
            assert_eq!(a.read_mem(dst.addr, 12).unwrap(), b"batch-of-1!!");
            assert_eq!(a.metrics().counter("rdma.doorbells"), 1);
            let wrs = a.metrics().histogram("rdma.doorbell_wrs").unwrap();
            assert_eq!((wrs.len(), wrs.max()), (1, 1));
        });
    }

    #[test]
    fn batch_rings_one_doorbell_and_signals_last_only() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(8 * 16).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_WRITE).unwrap();
            // 8 writes, only the last signaled: fabric side effects for all,
            // exactly one CQE, one doorbell.
            let wrs: Vec<BatchWr> = (0..8u64)
                .map(|i| {
                    let src = a.alloc_init(&[i as u8; 8]).unwrap();
                    let wr = BatchWr::write(i, src, mr.token().at(i * 8, 8).unwrap());
                    if i == 7 {
                        wr
                    } else {
                        wr.unsignaled()
                    }
                })
                .collect();
            cqp.post_batch(&wrs).unwrap();
            let cqe = ccq.next().await;
            assert_eq!(cqe.wr_id, 7, "only the last WR signals");
            assert!(cqe.status.is_ok());
            assert!(ccq.is_empty(), "unsignaled successes produce no CQE");
            // Post-order release: the signaled CQE proves all eight landed.
            for i in 0..8u64 {
                assert_eq!(
                    b.read_mem(server_buf.addr + i * 8, 8).unwrap(),
                    vec![i as u8; 8],
                    "unsignaled WR {i} must still complete its fabric side effects"
                );
            }
            assert_eq!(a.metrics().counter("rdma.doorbells"), 1);
            let wrs_per_ring = a.metrics().histogram("rdma.doorbell_wrs").unwrap();
            assert_eq!(wrs_per_ring.max(), 8);
        });
    }

    #[test]
    fn oversized_batch_splits_into_max_batch_chunks() {
        let (sim, fabric, a, b) = two_devices();
        let _ = fabric;
        sim.block_on(async move {
            let mut listener = b.listen(7).unwrap();
            let scq = CompletionQueue::new();
            let ccq = CompletionQueue::new();
            let b2 = b.clone();
            let scq2 = scq.clone();
            let accept = b
                .sim()
                .spawn(async move { listener.accept(&scq2).await.unwrap() });
            let cqp = a.connect(b2.node(), 7, &ccq).await.unwrap();
            let _sqp = accept.await;
            // Default max_batch is 16: 20 reads ring exactly two doorbells.
            let server_buf = b2.alloc(20 * 4).unwrap();
            let mr = b2.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let wrs: Vec<BatchWr> = (0..20u64)
                .map(|i| {
                    let dst = a.alloc(4).unwrap();
                    BatchWr::read(i, dst, mr.token().at(i * 4, 4).unwrap())
                })
                .collect();
            cqp.post_batch(&wrs).unwrap();
            for i in 0..20u64 {
                let cqe = ccq.next().await;
                assert_eq!(cqe.wr_id, i);
                assert!(cqe.status.is_ok());
            }
            assert_eq!(a.metrics().counter("rdma.doorbells"), 2);
            let h = a.metrics().histogram("rdma.doorbell_wrs").unwrap();
            assert_eq!((h.len(), h.max(), h.min()), (2, 16, 4));
        });
    }

    #[test]
    fn invalid_wr_posts_nothing() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(16).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            let good = a.alloc(8).unwrap();
            let bogus = DmaBuf {
                addr: 0xDEAD_0000,
                len: 8,
            };
            let err = cqp.post_batch(&[
                BatchWr::read(1, good, mr.token().at(0, 8).unwrap()),
                BatchWr::read(2, bogus, mr.token().at(8, 8).unwrap()),
            ]);
            assert!(matches!(err, Err(RdmaError::OutOfBounds { .. })));
            // Pre-validation: the good WR must not have been posted either.
            a.sim().sleep(Duration::from_micros(20)).await;
            assert!(ccq.is_empty());
            assert_eq!(a.metrics().counter("rdma.doorbells"), 0);
        });
    }

    #[test]
    fn batch_straddling_qp_error_flushes_in_post_order() {
        connected(|a, b, cqp, ccq, _sqp, _scq| async move {
            let server_buf = b.alloc(64).unwrap();
            let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
            // Kill the server, then post a batch with a mix of unsignaled
            // and signaled WRs: the timeout must flush ALL of them, in post
            // order, unsignaled ones included (error CQEs are never
            // suppressed).
            let fabric_down = b.clone();
            fabric_down.fabric.set_node_up(b.node(), false);
            let wrs: Vec<BatchWr> = (0..4u64)
                .map(|i| {
                    let dst = a.alloc(8).unwrap();
                    let wr = BatchWr::read(i, dst, mr.token().at(i * 8, 8).unwrap());
                    if i == 3 {
                        wr
                    } else {
                        wr.unsignaled()
                    }
                })
                .collect();
            cqp.post_batch(&wrs).unwrap();
            let mut seen = Vec::new();
            for _ in 0..4 {
                let cqe = ccq.next().await;
                assert!(
                    matches!(cqe.status, CqStatus::Timeout | CqStatus::Flushed),
                    "got {:?}",
                    cqe.status
                );
                seen.push(cqe.wr_id);
            }
            assert_eq!(seen, vec![0, 1, 2, 3], "flush preserves post order");
            assert!(cqp.is_errored());
            // Posting to the errored QP is rejected batch-wide.
            let dst = a.alloc(8).unwrap();
            let err = cqp.post_batch(&[BatchWr::read(9, dst, mr.token().at(0, 8).unwrap())]);
            assert_eq!(err, Err(RdmaError::QpError));
        });
    }

    #[test]
    fn batched_posting_beats_awaited_per_op_stream() {
        // The point of the tentpole: 16 small reads rung with one doorbell
        // finish far sooner than a stream that posts and awaits each read,
        // because the batch overlaps all sixteen round trips.
        let elapsed = |batched: bool| {
            connected(move |a, b, cqp, ccq, _sqp, _scq| async move {
                let server_buf = b.alloc(16 * 64).unwrap();
                let mr = b.reg_mr(server_buf, Access::REMOTE_READ).unwrap();
                let t0 = a.sim().now();
                let wrs: Vec<BatchWr> = (0..16u64)
                    .map(|i| {
                        let dst = a.alloc(64).unwrap();
                        BatchWr::read(i, dst, mr.token().at(i * 64, 64).unwrap())
                    })
                    .collect();
                if batched {
                    cqp.post_batch(&wrs).unwrap();
                    for _ in 0..16 {
                        assert!(ccq.next().await.status.is_ok());
                    }
                } else {
                    for wr in &wrs {
                        let WrOp::Read(sges) = wr.op else {
                            unreachable!()
                        };
                        let Sge { local, remote } = sges.entries()[0];
                        cqp.post_read(wr.wr_id, local, remote).unwrap();
                        assert!(ccq.next().await.status.is_ok());
                    }
                }
                a.sim().now() - t0
            })
        };
        let per_op = elapsed(false);
        let batch = elapsed(true);
        assert!(
            batch * 2 < per_op,
            "batched ({batch:?}) must clearly beat awaited per-op ({per_op:?})"
        );
    }

    #[test]
    fn mem_used_tracks_alloc_and_free() {
        let (_sim, _fabric, a, _b) = two_devices();
        assert_eq!(a.mem_used(), 0);
        let b1 = a.alloc(100).unwrap();
        let b2 = a.alloc_synthetic(1 << 30).unwrap();
        assert_eq!(a.mem_used(), 100 + (1 << 30));
        a.free(b1).unwrap();
        a.free(b2).unwrap();
        assert_eq!(a.mem_used(), 0);
    }
}
