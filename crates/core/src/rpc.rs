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
//!
//! One form for every service: a caller sends a typed [`Request`] through a
//! [`Channel`] — one call at a time, over a connection that is dialed when
//! missing and dropped when it fails — and gets back its exact reply or the
//! error the peer answered with. A service is a [`spawn_rpc_server`] handler that decodes its
//! request enum and answers each request with that request's reply. The
//! byte-level connection under a channel is private to this module.

use std::cell::Cell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::{CompletionQueue, CqStatus, CqeOpcode, DmaBuf, Qp, RdmaDevice, RdmaError};
use sim::sync::Semaphore;

use crate::error::{RStoreError, Result};
use crate::proto::{error_reply, Request};

/// Maximum encoded message size (requests and responses). Each end of a
/// connection books two buffers of this size in its device arena — a
/// reservation, not a footprint: the arena backs a block only as far as it
/// is written, so a buffer costs the host its longest message.
pub const RPC_BUF_BYTES: u64 = 4 * 1024 * 1024;

/// One connection end's two message buffers, or neither. Two blocks, never
/// one: a first write at the second buffer's offset would zero-fill the
/// whole first (DESIGN.md "Arena backing").
fn alloc_bufs(dev: &RdmaDevice) -> std::result::Result<(DmaBuf, DmaBuf), RdmaError> {
    let first = dev.alloc(RPC_BUF_BYTES)?;
    let second = dev.alloc(RPC_BUF_BYTES).inspect_err(|_| {
        let _ = dev.free(first);
    })?;
    Ok((first, second))
}

/// Application-level guard on the *response* wait. The verbs layer times out
/// a SEND whose delivery is lost (the QP fails and the call errors), but a
/// response dropped by a lossy fabric leaves only a posted RECV behind — and
/// receives carry no timer, so without this bound the caller would wait
/// forever. Generous on purpose: control handlers legitimately run long
/// (a graceful drain migrates extents between its progress passes).
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(1);

/// A connected RPC client endpoint: the connection a [`Channel`] holds.
///
/// Holds a queue pair plus pre-allocated, pre-registered send/receive
/// buffers — acquiring one is a control-path (setup) action.
struct RpcClient {
    qp: Qp,
    cq: CompletionQueue,
    send_buf: DmaBuf,
    recv_buf: DmaBuf,
    next_wr: u64,
    /// Set once a call times out: the connection's request/response pairing
    /// can no longer be trusted (a late response may still arrive), so every
    /// subsequent call fails fast and the owner reconnects.
    broken: bool,
    /// How long a call waits for its response.
    response_timeout: Duration,
}

impl RpcClient {
    /// Connects to the service `ch` calls, with `ch`'s response deadline.
    ///
    /// # Errors
    ///
    /// Propagates connection and allocation failures from the verbs layer.
    async fn connect(ch: &Channel) -> Result<RpcClient> {
        let cq = CompletionQueue::new();
        let qp = ch.dev.connect(ch.peer, ch.service, &cq).await?;
        let (send_buf, recv_buf) = alloc_bufs(&ch.dev)?;
        Ok(RpcClient {
            qp,
            cq,
            send_buf,
            recv_buf,
            next_wr: 1,
            broken: false,
            response_timeout: ch.response_timeout,
        })
    }

    /// Issues one request and waits for the response, bounded by the
    /// connection's response deadline.
    ///
    /// # Errors
    ///
    /// * [`RStoreError::Protocol`] if the request exceeds [`RPC_BUF_BYTES`].
    /// * [`RStoreError::Io`] if the connection failed mid-call, or — with
    ///   [`CqStatus::Timeout`] — if no response arrived in time (lossy
    ///   fabric, partitioned or overloaded peer). A timed-out client is
    ///   *broken*: every later call fails the same way, so owners must
    ///   reconnect.
    async fn call(&mut self, req: &[u8]) -> Result<Vec<u8>> {
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

        // One deadline over both completions. The timer is drawn at the
        // first poll, right behind the SEND just posted.
        let cq = &self.cq;
        let completions = pin!(async {
            let mut resp_len = None;
            let mut send_done = false;
            while resp_len.is_none() || !send_done {
                let cqe = cq.next().await;
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
            Ok(resp_len.expect("loop exit implies response"))
        });
        let waited = dev.sim().timeout(self.response_timeout, completions).await;
        let Some(len) = waited else {
            self.broken = true;
            return Err(RStoreError::Io(CqStatus::Timeout));
        };
        Ok(dev.read_mem(self.recv_buf.addr, len?)?)
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

/// The one owner of a control connection over time: client → master, master
/// → each memory server, memory server → master all call through one of
/// these.
///
/// * **Gate.** Calls are admitted one at a time, in arrival order
///   ([`admit`](Self::admit)); the connection carries one request at a time.
/// * **Dial points.** A call that finds no connection dials one, with this
///   channel's response deadline; nothing is dialed earlier unless the owner
///   asks ([`dial`](Self::dial)).
/// * **What drops the connection.** A call that fails in transport — flushed
///   QP, lost response (the timed-out connection is broken) — so the next
///   call redials. **What keeps it:** any answer, an error reply included.
pub struct Channel {
    dev: RdmaDevice,
    peer: NodeId,
    service: u16,
    response_timeout: Duration,
    gate: Semaphore,
    conn: Cell<Option<RpcClient>>,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("peer", &self.peer)
            .field("service", &self.service)
            .finish()
    }
}

impl Channel {
    /// A channel to `service` on `peer` whose calls wait `response_timeout`
    /// for their answer. Use a bound matched to the caller's cadence: a
    /// heartbeat loop that waits [`RESPONSE_TIMEOUT`] for one lost response
    /// goes silent long enough for the master to declare the server dead.
    pub fn new(dev: &RdmaDevice, peer: NodeId, service: u16, response_timeout: Duration) -> Self {
        Channel {
            dev: dev.clone(),
            peer,
            service,
            response_timeout,
            gate: Semaphore::new(1),
            conn: Cell::new(None),
        }
    }

    /// Takes the connection out of the channel, dialing one if there is none.
    async fn take(&self) -> Result<RpcClient> {
        match self.conn.take() {
            Some(conn) => Ok(conn),
            None => RpcClient::connect(self).await,
        }
    }

    /// Dials now, if there is no connection, instead of inside the next
    /// call, so that a peer that is not there fails its owner's setup.
    ///
    /// # Errors
    ///
    /// Connection failures from the verbs layer.
    pub async fn dial(&self) -> Result<()> {
        let _turn = self.admit().await;
        self.conn.set(Some(self.take().await?));
        Ok(())
    }

    /// Waits for this channel's turn. The turn ends when the guard drops.
    pub async fn admit(&self) -> Admitted<'_> {
        self.gate.acquire().await;
        Admitted(self)
    }

    /// [`admit`](Self::admit), then [`Admitted::call`].
    ///
    /// # Errors
    ///
    /// As [`Admitted::call`].
    pub async fn call<Q: Request>(&self, req: &Q) -> Result<Q::Reply> {
        self.admit().await.call(req).await
    }
}

/// A turn on a [`Channel`]. Separate from the call so that a caller can
/// start its clock after the queue.
#[derive(Debug)]
pub struct Admitted<'a>(&'a Channel);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.gate.release();
    }
}

impl Admitted<'_> {
    /// Sends `req` and decodes its reply.
    ///
    /// # Errors
    ///
    /// * What the peer answered, if it answered with an error.
    /// * [`RStoreError::Io`] / [`RStoreError::Rdma`] if the dial or the call
    ///   failed in transport; the connection is gone and the next call
    ///   redials.
    /// * [`RStoreError::Protocol`] if the reply does not decode.
    pub async fn call<Q: Request>(&self, req: &Q) -> Result<Q::Reply> {
        let mut conn = self.0.take().await?;
        let reply = conn.call(&req.encode()).await?;
        self.0.conn.set(Some(conn));
        Q::decode_reply(&reply)
    }
}

/// Async request handler: `(peer, request bytes) -> response bytes`.
pub type RpcHandler = Rc<dyn Fn(NodeId, Vec<u8>) -> Pin<Box<dyn Future<Output = Vec<u8>>>>>;

/// Spawns an RPC server for `service` on `dev`.
///
/// Every accepted connection gets its own task; each request costs
/// `cpu_per_req` of simulated server CPU before the handler runs — this is
/// the "server CPU on the critical path" that one-sided RStore IO avoids. A
/// reply too long for the RPC buffer is answered with the error reply
/// (`Protocol`) instead, so the caller hears at once rather than at its
/// deadline.
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
                // Peer death mid-request: the connection task just ends.
                let _ = serve_connection(dev, sim2, qp, cq, cpu_per_req, handler).await;
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
    let (recv_buf, send_buf) = alloc_bufs(&dev)?;
    let peer = qp.peer();
    let mut wr = 1u64;
    let result = async {
        qp.post_recv(wr, recv_buf)?;
        loop {
            let cqe = cq.next().await;
            if !cqe.status.is_ok() {
                return Ok(());
            }
            // Anything else is a SEND's own completion.
            if cqe.opcode == CqeOpcode::Recv {
                let req = dev.read_mem(recv_buf.addr, cqe.byte_len)?;
                // Repost immediately so a back-to-back request can land
                // while the handler runs.
                wr += 1;
                qp.post_recv(wr, recv_buf)?;
                sim.sleep(cpu_per_req).await;
                let mut resp = handler(peer, req).await;
                if resp.len() as u64 > RPC_BUF_BYTES {
                    let why = format!("reply of {} bytes exceeds RPC buffer", resp.len());
                    resp = error_reply(RStoreError::Protocol(why));
                }
                dev.write_mem(send_buf.addr, &resp)?;
                wr += 1;
                qp.post_send(wr, send_buf.slice(0, resp.len() as u64), None)?;
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

    /// A connection to service 9 on `peer`, as a channel would dial it.
    async fn connect(dev: &RdmaDevice, peer: NodeId) -> Result<RpcClient> {
        RpcClient::connect(&Channel::new(dev, peer, 9, RESPONSE_TIMEOUT)).await
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
        sim.block_on(async move {
            let mut rpc = connect(&client, peer).await.unwrap();
            assert_eq!(rpc.call(b"abc").await.unwrap(), b"cba");
            // Each end books its two buffers in full and backs them as far
            // as the one message each has carried.
            for dev in [&client, &server] {
                assert_eq!(dev.mem_used(), 2 * RPC_BUF_BYTES);
                assert_eq!(dev.mem_resident(), 2 * 3);
            }
        });
    }

    #[test]
    fn failed_connect_frees_the_buffer_it_got() {
        // Room for one message buffer but not two, at both ends.
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let tight = RdmaConfig {
            mem_capacity: RPC_BUF_BYTES * 3 / 2,
            ..RdmaConfig::default()
        };
        let server = RdmaDevice::new(&fabric, tight.clone());
        let client = RdmaDevice::new(&fabric, tight);
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let (peer, dev) = (server.node(), client.clone());
        let err = sim.block_on(async move { connect(&dev, peer).await.err() });
        assert!(matches!(
            err,
            Some(RStoreError::Rdma(RdmaError::OutOfMemory { .. }))
        ));
        sim.run();
        assert_eq!((client.mem_used(), server.mem_used()), (0, 0));
    }

    #[test]
    fn sequential_calls_reuse_connection() {
        let (sim, _fabric, server, client) = setup();
        spawn_rpc_server(&server, 9, Duration::from_micros(1), echo_handler()).unwrap();
        let peer = server.node();
        let out = sim.block_on(async move {
            let mut rpc = connect(&client, peer).await.unwrap();
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
                let mut rpc = connect(&dev, peer).await.unwrap();
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
            let mut rpc = connect(&client, peer).await.unwrap();
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
            let mut rpc = connect(&client, peer).await.unwrap();
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
    fn channel_keeps_its_connection_across_an_error_reply_and_redials_after_a_lost_one() {
        use crate::proto::{CtrlReq, Free, Lookup, Wire};
        let (sim, fabric, server, client) = setup();
        // Answers a lookup with an error and a free with `Ok`, after 1 ms of
        // CPU — so a loss window can drop a response alone.
        let handler: RpcHandler = Rc::new(|_peer, req| {
            Box::pin(async move {
                match CtrlReq::decode(&req) {
                    Ok(CtrlReq::Lookup(Lookup { name })) => {
                        error_reply(RStoreError::NotFound(name))
                    }
                    _ => Free::encode_reply(Ok(())),
                }
            })
        });
        spawn_rpc_server(&server, 9, Duration::from_millis(1), handler).unwrap();
        fabric::FaultPlan::new(7)
            .loss_window(Duration::from_micros(3500), Duration::from_millis(20), 1.0)
            .install(&fabric);
        let peer = server.node();
        // The serving end of a connection holds two buffers while it lives.
        let dials = move || server.mem_used() / (2 * RPC_BUF_BYTES);
        let sim2 = sim.clone();
        sim.block_on(async move {
            let ch = Channel::new(&client, peer, 9, Duration::from_millis(5));
            let free = Free { name: "y".into() };
            assert_eq!(dials(), 0, "nothing is dialed before the first call");
            assert_eq!(ch.call(&free).await, Ok(()));
            let name = "no such region: \"x\"".to_owned();
            let refused = ch.call(&Lookup { name: name.clone() }).await;
            assert_eq!(refused, Err(RStoreError::NotFound(name)));
            assert_eq!(ch.call(&free).await, Ok(()));
            assert_eq!(dials(), 1, "an error reply is an answer: same connection");
            // This one's response falls into the loss window.
            let lost = ch.call(&free).await;
            assert_eq!(lost, Err(RStoreError::Io(CqStatus::Timeout)));
            sim2.sleep_until(sim::SimTime::ZERO + Duration::from_millis(21))
                .await;
            assert_eq!(ch.call(&free).await, Ok(()));
            assert_eq!(dials(), 2, "a lost response drops the connection");
        });
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
            let mut rpc = connect(&client, peer).await.unwrap();
            fabric2.set_node_up(peer, false);
            rpc.call(b"hi").await.err().unwrap()
        });
        assert!(matches!(err, RStoreError::Io(_)));
    }
}
