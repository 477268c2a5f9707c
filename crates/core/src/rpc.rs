//! Two-sided RPC over SEND/RECV queue pairs.
//!
//! RStore's *control path* (client ↔ master, master ↔ memory server) uses
//! ordinary request/response RPC: every message crosses the server's CPU,
//! costs a configurable amount of processing time, and involves buffer
//! copies — exactly the costs the *data path* avoids. The two-sided baseline
//! store in the `baseline` crate reuses this module to quantify that gap.
//!
//! The protocol is deliberately simple: one outstanding request per
//! connection (callers hold the connection exclusively for the duration of a
//! call), fixed-size message buffers.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use fabric::NodeId;
use rdma::{CompletionQueue, CqStatus, CqeOpcode, DmaBuf, Qp, RdmaDevice, RdmaError};

use crate::error::{RStoreError, Result};

/// Maximum encoded message size (requests and responses).
pub const RPC_BUF_BYTES: u64 = 4 * 1024 * 1024;

/// Application-level guard on the *response* wait. The verbs layer times out
/// a SEND whose delivery is lost (the QP fails and the call errors), but a
/// response dropped by a lossy fabric leaves only a posted RECV behind — and
/// receives carry no timer, so without this bound the caller would wait
/// forever. Generous on purpose: control handlers legitimately run long
/// (a graceful drain migrates extents between its progress passes).
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(1);

/// A connected RPC client endpoint.
///
/// Holds a queue pair plus pre-allocated, pre-registered send/receive
/// buffers — acquiring one is a control-path (setup) action.
pub struct RpcClient {
    qp: Qp,
    cq: CompletionQueue,
    send_buf: DmaBuf,
    recv_buf: DmaBuf,
    next_wr: u64,
    peer: NodeId,
    /// Set once a call times out: the connection's request/response pairing
    /// can no longer be trusted (a late response may still arrive), so every
    /// subsequent call fails fast and the owner reconnects.
    broken: bool,
    /// Per-connection response deadline (defaults to [`RESPONSE_TIMEOUT`]).
    /// Periodic callers whose liveness a peer judges — heartbeats against a
    /// 50 ms lease, say — must lose at most one period to a dropped
    /// response, not the generous control-path default.
    response_timeout: Duration,
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient")
            .field("peer", &self.peer)
            .finish()
    }
}

impl RpcClient {
    /// Connects to the RPC service `service` on `peer`.
    ///
    /// # Errors
    ///
    /// Propagates connection and allocation failures from the verbs layer.
    pub async fn connect(dev: &RdmaDevice, peer: NodeId, service: u16) -> Result<RpcClient> {
        let cq = CompletionQueue::new();
        let qp = dev.connect(peer, service, &cq).await?;
        let send_buf = dev.alloc(RPC_BUF_BYTES)?;
        let recv_buf = dev.alloc(RPC_BUF_BYTES)?;
        Ok(RpcClient {
            qp,
            cq,
            send_buf,
            recv_buf,
            next_wr: 1,
            peer,
            broken: false,
            response_timeout: RESPONSE_TIMEOUT,
        })
    }

    /// The node this client is connected to.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Overrides the response deadline for every subsequent call on this
    /// connection. Use a bound matched to the caller's cadence: a heartbeat
    /// loop that waits [`RESPONSE_TIMEOUT`] for one lost response goes
    /// silent long enough for the master to declare the server dead.
    pub fn set_response_timeout(&mut self, timeout: Duration) {
        self.response_timeout = timeout;
    }

    /// Issues one request and waits for the response, bounded by
    /// [`RESPONSE_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// * [`RStoreError::Protocol`] if the request exceeds [`RPC_BUF_BYTES`].
    /// * [`RStoreError::Io`] if the connection failed mid-call, or — with
    ///   [`CqStatus::Timeout`] — if no response arrived in time (lossy
    ///   fabric, partitioned or overloaded peer). A timed-out client is
    ///   *broken*: every later call fails the same way, so owners must
    ///   reconnect.
    pub async fn call(&mut self, req: &[u8]) -> Result<Vec<u8>> {
        if self.broken {
            return Err(RStoreError::Io(CqStatus::Timeout));
        }
        if req.len() as u64 > RPC_BUF_BYTES {
            return Err(RStoreError::Protocol(format!(
                "request of {} bytes exceeds RPC buffer",
                req.len()
            )));
        }
        let dev = self.qp.device().clone();
        dev.write_mem(self.send_buf.addr, req)?;
        let recv_wr = self.next_wr;
        let send_wr = self.next_wr + 1;
        self.next_wr += 2;
        self.qp.post_recv(recv_wr, self.recv_buf)?;
        self.qp
            .post_send(send_wr, self.send_buf.slice(0, req.len() as u64), None)?;

        let deadline = Deadline::arm(dev.sim(), self.response_timeout);
        let mut resp_len = None;
        let mut send_done = false;
        while resp_len.is_none() || !send_done {
            let Some(cqe) = deadline.next_before(&self.cq).await else {
                self.broken = true;
                return Err(RStoreError::Io(CqStatus::Timeout));
            };
            if !cqe.status.is_ok() {
                return Err(RStoreError::Io(cqe.status));
            }
            match cqe.opcode {
                CqeOpcode::Recv => resp_len = Some(cqe.byte_len),
                CqeOpcode::Send => send_done = true,
                other => {
                    debug_assert!(false, "unexpected completion {other:?} on RPC QP");
                }
            }
        }
        let len = resp_len.expect("loop exit implies response");
        Ok(dev.read_mem(self.recv_buf.addr, len)?)
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        // Callers reconnect by dropping broken clients — under a lossy
        // fabric that happens on every timed-out beat, and without this the
        // abandoned send/recv buffers bleed the device arena dry.
        let dev = self.qp.device().clone();
        let _ = dev.free(self.send_buf);
        let _ = dev.free(self.recv_buf);
    }
}

/// A one-shot virtual-time deadline that bounds waits on a completion queue.
/// Disarmed when dropped: a call that returns early leaves no timer behind.
struct Deadline {
    sim: sim::Sim,
    state: Rc<DeadlineState>,
    timer: sim::TimerId,
}

impl Drop for Deadline {
    fn drop(&mut self) {
        self.sim.cancel(self.timer);
    }
}

#[derive(Default)]
struct DeadlineState {
    fired: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

impl sim::EventSink for DeadlineState {
    fn fire(self: Rc<Self>, _: u64, _: u64) {
        self.fired.set(true);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

impl Deadline {
    /// Schedules the deadline `after` from now.
    fn arm(sim: &sim::Sim, after: Duration) -> Deadline {
        let state = Rc::new(DeadlineState::default());
        let timer = sim.schedule_event(sim.now() + after, &state, 0, 0);
        Deadline {
            sim: sim.clone(),
            state,
            timer,
        }
    }

    /// Waits for the next completion on `cq`, or `None` once the deadline
    /// has passed.
    fn next_before<'a>(&'a self, cq: &'a CompletionQueue) -> NextBefore<'a> {
        NextBefore { deadline: self, cq }
    }
}

struct NextBefore<'a> {
    deadline: &'a Deadline,
    cq: &'a CompletionQueue,
}

impl Future for NextBefore<'_> {
    type Output = Option<rdma::Cqe>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(cqe) = self.cq.try_next() {
            return Poll::Ready(Some(cqe));
        }
        if self.deadline.state.fired.get() {
            return Poll::Ready(None);
        }
        // Register with both wake sources: the CQ (via its own future) and
        // the deadline timer.
        let mut next = self.cq.next();
        if let Poll::Ready(cqe) = Pin::new(&mut next).poll(cx) {
            return Poll::Ready(Some(cqe));
        }
        *self.deadline.state.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Async request handler: `(peer, request bytes) -> response bytes`.
pub type RpcHandler = Rc<dyn Fn(NodeId, Vec<u8>) -> Pin<Box<dyn Future<Output = Vec<u8>>>>>;

/// Spawns an RPC server for `service` on `dev`.
///
/// Every accepted connection gets its own task; each request costs
/// `cpu_per_req` of simulated server CPU before the handler runs — this is
/// the "server CPU on the critical path" that one-sided RStore IO avoids.
///
/// # Errors
///
/// [`RStoreError::Rdma`] if the service id is already in use on this device.
pub fn spawn_rpc_server(
    dev: &RdmaDevice,
    service: u16,
    cpu_per_req: Duration,
    handler: RpcHandler,
) -> Result<()> {
    let mut listener = dev.listen(service)?;
    let dev = dev.clone();
    let sim = dev.sim().clone();
    sim.clone().spawn(async move {
        loop {
            let cq = CompletionQueue::new();
            let qp = match listener.accept(&cq).await {
                Ok(qp) => qp,
                Err(_) => return, // listener shut down
            };
            let dev = dev.clone();
            let handler = handler.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                if let Err(e) = serve_connection(dev, sim2, qp, cq, cpu_per_req, handler).await {
                    // Peer death mid-request: the connection task just ends.
                    let _ = e;
                }
            });
        }
    });
    Ok(())
}

async fn serve_connection(
    dev: RdmaDevice,
    sim: sim::Sim,
    qp: Qp,
    cq: CompletionQueue,
    cpu_per_req: Duration,
    handler: RpcHandler,
) -> std::result::Result<(), RdmaError> {
    let recv_buf = dev.alloc(RPC_BUF_BYTES)?;
    let send_buf = dev.alloc(RPC_BUF_BYTES)?;
    let peer = qp.peer();
    let mut wr = 1u64;
    qp.post_recv(wr, recv_buf)?;
    let result = async {
        loop {
            let cqe = cq.next().await;
            if !cqe.status.is_ok() {
                return Ok(());
            }
            match cqe.opcode {
                CqeOpcode::Recv => {
                    let req = dev.read_mem(recv_buf.addr, cqe.byte_len)?;
                    // Repost immediately so a back-to-back request can land
                    // while the handler runs.
                    wr += 1;
                    qp.post_recv(wr, recv_buf)?;
                    sim.sleep(cpu_per_req).await;
                    let resp = handler(peer, req).await;
                    debug_assert!(resp.len() as u64 <= RPC_BUF_BYTES, "oversized RPC response");
                    dev.write_mem(send_buf.addr, &resp)?;
                    wr += 1;
                    qp.post_send(wr, send_buf.slice(0, resp.len() as u64), None)?;
                }
                CqeOpcode::Send => {}
                _ => {}
            }
        }
    }
    .await;
    let _ = dev.free(recv_buf);
    let _ = dev.free(send_buf);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Fabric, FabricConfig};
    use rdma::RdmaConfig;
    use sim::Sim;

    fn setup() -> (Sim, Fabric<rdma::NetMsg>, RdmaDevice, RdmaDevice) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let server = RdmaDevice::new(&fabric, RdmaConfig::default());
        let client = RdmaDevice::new(&fabric, RdmaConfig::default());
        (sim, fabric, server, client)
    }

    fn echo_handler() -> RpcHandler {
        Rc::new(|_peer, mut req: Vec<u8>| {
            Box::pin(async move {
                req.reverse();
                req
            }) as Pin<Box<dyn Future<Output = Vec<u8>>>>
        })
    }

    #[test]
    fn call_round_trips() {
        let (sim, _fabric, server, client) = setup();
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let peer = server.node();
        let out = sim.block_on(async move {
            let mut rpc = RpcClient::connect(&client, peer, 9).await.unwrap();
            rpc.call(b"abc").await.unwrap()
        });
        assert_eq!(out, b"cba");
    }

    #[test]
    fn sequential_calls_reuse_connection() {
        let (sim, _fabric, server, client) = setup();
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let peer = server.node();
        let out = sim.block_on(async move {
            let mut rpc = RpcClient::connect(&client, peer, 9).await.unwrap();
            let mut results = Vec::new();
            for i in 0..5u8 {
                results.push(rpc.call(&[i, i + 1]).await.unwrap());
            }
            results
        });
        assert_eq!(out.len(), 5);
        assert_eq!(out[4], vec![5, 4]);
    }

    #[test]
    fn concurrent_clients_are_served() {
        let (sim, fabric, server, _client) = setup();
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let peer = server.node();
        // Three separate client devices hammering the same server.
        let mut handles = Vec::new();
        for i in 0..3u8 {
            let dev = RdmaDevice::new(&fabric, RdmaConfig::default());
            let h = sim.spawn(async move {
                let mut rpc = RpcClient::connect(&dev, peer, 9).await.unwrap();
                rpc.call(&[i]).await.unwrap()
            });
            handles.push(h);
        }
        sim.run();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.try_result().unwrap(), vec![i as u8]);
        }
    }

    #[test]
    fn oversized_request_rejected_locally() {
        let (sim, _fabric, server, client) = setup();
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let peer = server.node();
        let err = sim.block_on(async move {
            let mut rpc = RpcClient::connect(&client, peer, 9).await.unwrap();
            rpc.call(&vec![0u8; (RPC_BUF_BYTES + 1) as usize])
                .await
                .err()
                .unwrap()
        });
        assert!(matches!(err, RStoreError::Protocol(_)));
    }

    #[test]
    fn dropped_response_times_out_instead_of_hanging() {
        let (sim, fabric, server, client) = setup();
        // Handler takes 1 ms of server CPU, so the request is delivered
        // before the loss window opens and only the *response* is dropped —
        // the case the verbs-layer send timeout cannot cover.
        spawn_rpc_server(&server, 9, Duration::from_millis(1), echo_handler()).unwrap();
        let peer = server.node();
        fabric::FaultPlan::new(7)
            .loss_window(Duration::from_micros(500), Duration::from_millis(20), 1.0)
            .install(&fabric);
        let sim2 = sim.clone();
        let (err, err2, waited) = sim.block_on(async move {
            let mut rpc = RpcClient::connect(&client, peer, 9).await.unwrap();
            let t0 = sim2.now();
            let err = rpc.call(b"hi").await.expect_err("response was dropped");
            let waited = sim2.now().saturating_since(t0);
            // The client is now broken: a late response could desync the
            // next request/response pair, so reuse must fail fast.
            let err2 = rpc.call(b"again").await.expect_err("broken client");
            (err, err2, waited)
        });
        assert!(matches!(err, RStoreError::Io(rdma::CqStatus::Timeout)));
        assert!(matches!(err2, RStoreError::Io(rdma::CqStatus::Timeout)));
        assert!(waited >= RESPONSE_TIMEOUT, "must wait the full deadline");
        assert!(
            waited < RESPONSE_TIMEOUT + Duration::from_millis(100),
            "must not wait much past the deadline (got {waited:?})"
        );
    }

    #[test]
    fn call_to_dead_server_fails_with_io_error() {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let server = RdmaDevice::new(&fabric, RdmaConfig::default());
        let client = RdmaDevice::new(&fabric, RdmaConfig::default());
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let peer = server.node();
        let fabric2 = fabric.clone();
        let err = sim.block_on(async move {
            let mut rpc = RpcClient::connect(&client, peer, 9).await.unwrap();
            fabric2.set_node_up(peer, false);
            rpc.call(b"hi").await.err().unwrap()
        });
        assert!(matches!(err, RStoreError::Io(_)));
    }
}
