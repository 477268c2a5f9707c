//! A two-sided (server-CPU-mediated) in-memory store.
//!
//! This is the design RStore argues against: every read and write is an RPC
//! that wakes a server thread, parses a request, performs a memcpy, and
//! sends a response. It reuses the exact same fabric, NICs and RPC machinery
//! as RStore's *control* path — so the latency gap measured in experiment E3
//! isolates precisely the cost of putting a CPU on the data path.

use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::{DmaBuf, RdmaDevice};
use rstore::proto::Request;
use rstore::rpc::{spawn_rpc_server, Channel, RESPONSE_TIMEOUT};
use rstore::{RStoreError, Result};

/// Service id of the two-sided store.
pub const TWOSIDED_SERVICE: u16 = 10;

/// Server CPU cost per request (dispatch, parse, respond).
const PER_REQUEST: Duration = Duration::from_micros(2);
/// Server CPU cost per KiB moved (request parsing + memcpy into/out of the
/// store).
const PER_KIB: Duration = Duration::from_nanos(30);

/// The server CPU time one request moving `bytes` costs.
fn request_cost(bytes: u64) -> Duration {
    PER_REQUEST + Duration::from_nanos(PER_KIB.as_nanos() as u64 * bytes / 1024)
}

// Messages are priced in the control plane's layout: a request is its tag
// and its fields, a reply `Result<Reply>` (DESIGN.md "Control plane").
rstore::wire_requests! {
    /// A two-sided store request, as the server decodes it.
    pub(crate) enum TwoSidedReq {
        /// Read `len` bytes at `offset`; answered with the bytes.
        0 => Read {
            /// Store offset.
            offset: u64,
            /// Bytes to read.
            len: u64,
        } -> Vec<u8>,
        /// Write `data` at `offset`.
        1 => Write {
            /// Store offset.
            offset: u64,
            /// Bytes to write.
            data: Vec<u8>,
        } -> (),
    }
}

/// The server's side: the donated buffer.
struct Store {
    dev: RdmaDevice,
    backing: DmaBuf,
}

impl Store {
    /// The address of `len` bytes at `offset`, if they lie in the store. Both
    /// numbers come off the wire, so their sum is checked, never wrapped.
    fn addr(&self, offset: u64, len: u64) -> Result<u64> {
        match offset.checked_add(len) {
            Some(end) if end <= self.backing.len => Ok(self.backing.addr + offset),
            _ => Err(RStoreError::OutOfRange {
                offset,
                len,
                size: self.backing.len,
            }),
        }
    }

    async fn read(&self, Read { offset, len }: Read) -> Result<Vec<u8>> {
        let addr = self.addr(offset, len)?;
        self.dev.sim().sleep(request_cost(len)).await;
        Ok(self.dev.read_mem(addr, len)?)
    }

    async fn write(&self, Write { offset, data }: Write) -> Result<()> {
        let len = data.len() as u64;
        let addr = self.addr(offset, len)?;
        self.dev.sim().sleep(request_cost(len)).await;
        Ok(self.dev.write_mem(addr, &data)?)
    }

    /// Serves one request: `out` with that request's reply appended.
    async fn serve(self: Rc<Self>, req: TwoSidedReq, mut out: Vec<u8>) -> Vec<u8> {
        match req {
            TwoSidedReq::Read(req) => Read::encode_reply(self.read(req).await, &mut out),
            TwoSidedReq::Write(req) => Write::encode_reply(self.write(req).await, &mut out),
        }
        out
    }
}

/// Starts a two-sided store server donating `capacity` bytes on `dev`.
///
/// # Errors
///
/// Service-id collisions or allocation failures.
pub fn spawn_server(dev: &RdmaDevice, capacity: u64) -> Result<()> {
    let store = Rc::new(Store {
        dev: dev.clone(),
        backing: dev.alloc(capacity)?,
    });
    // Costs are charged per op, by size, not per request.
    spawn_rpc_server(dev, TWOSIDED_SERVICE, Duration::ZERO, move |req, out| {
        store.clone().serve(req, out)
    })
}

/// Client handle to a two-sided store server.
#[derive(Debug)]
pub struct TwoSidedClient {
    rpc: Channel,
}

impl TwoSidedClient {
    /// Connects to the store on `server`.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub async fn connect(dev: &RdmaDevice, server: NodeId) -> Result<TwoSidedClient> {
        let rpc = Channel::new(dev, server, TWOSIDED_SERVICE, RESPONSE_TIMEOUT);
        rpc.dial().await?;
        Ok(TwoSidedClient { rpc })
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// The server's rejection as it sent it — an out-of-range access
    /// arrives as [`RStoreError::Remote`], a reply too long for the RPC
    /// buffer as [`RStoreError::Protocol`] — or transport errors.
    pub async fn read(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.rpc.call(&Read { offset, len }).await
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// As for [`TwoSidedClient::read`].
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let data = data.to_vec();
        self.rpc.call(&Write { offset, data }).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Fabric, FabricConfig};
    use rdma::RdmaConfig;
    use sim::Sim;

    fn setup() -> (Sim, RdmaDevice, RdmaDevice) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let server = RdmaDevice::new(&fabric, RdmaConfig::default());
        let client = RdmaDevice::new(&fabric, RdmaConfig::default());
        (sim, server, client)
    }

    #[test]
    fn read_write_round_trip() {
        let (sim, server, client) = setup();
        spawn_server(&server, 1 << 20).unwrap();
        let node = server.node();
        let out = sim.block_on(async move {
            let c = TwoSidedClient::connect(&client, node).await.unwrap();
            c.write(100, b"two-sided data").await.unwrap();
            c.read(100, 14).await.unwrap()
        });
        assert_eq!(out, b"two-sided data");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (sim, server, client) = setup();
        spawn_server(&server, 1024).unwrap();
        let node = server.node();
        let err = sim.block_on(async move {
            let c = TwoSidedClient::connect(&client, node).await.unwrap();
            c.read(1000, 100).await.err().unwrap()
        });
        assert!(matches!(err, RStoreError::Remote(_)));
    }

    #[test]
    fn ranges_that_overflow_are_refused_and_the_client_keeps_working() {
        let (sim, server, client) = setup();
        // The store does not start at address 0, so a wrapped range would
        // land on real memory just before it.
        server.alloc(4096).unwrap();
        spawn_server(&server, 1024).unwrap();
        let node = server.node();
        let (read, write, after) = sim.block_on(async move {
            let c = TwoSidedClient::connect(&client, node).await.unwrap();
            let read = c.read(u64::MAX, 2).await;
            let write = c.write(u64::MAX, b"x").await;
            c.write(0, b"ok").await.unwrap();
            (read, write, c.read(0, 2).await)
        });
        assert!(matches!(read, Err(RStoreError::Remote(_))), "{read:?}");
        assert!(matches!(write, Err(RStoreError::Remote(_))), "{write:?}");
        assert_eq!(after.unwrap(), b"ok");
    }

    #[test]
    fn a_reply_too_long_for_the_buffer_is_an_error_not_a_hang() {
        use rstore::rpc::RPC_BUF_BYTES;
        let (sim, server, client) = setup();
        spawn_server(&server, 16 << 20).unwrap();
        let node = server.node();
        let clock = sim.clone();
        let (err, waited, after) = sim.block_on(async move {
            let c = TwoSidedClient::connect(&client, node).await.unwrap();
            let t0 = clock.now();
            let err = c
                .read(0, RPC_BUF_BYTES)
                .await
                .expect_err("reply outgrows the buffer");
            let waited = clock.now().saturating_since(t0);
            (err, waited, c.read(0, 4).await)
        });
        assert!(matches!(err, RStoreError::Protocol(_)), "{err:?}");
        assert!(waited < RESPONSE_TIMEOUT / 10, "waited {waited:?}");
        assert_eq!(after.unwrap(), [0; 4], "the connection still serves");
    }

    #[test]
    fn two_sided_read_is_slower_than_one_sided() {
        // The E3 effect in miniature: same fabric, same NICs; the two-sided
        // read pays server CPU + two-sided protocol.
        let (sim, server, client) = setup();
        spawn_server(&server, 1 << 20).unwrap();
        let node = server.node();
        let two_sided = sim.block_on({
            let sim = sim.clone();
            async move {
                let c = TwoSidedClient::connect(&client, node).await.unwrap();
                c.read(0, 64).await.unwrap(); // warm
                let t0 = sim.now();
                for _ in 0..10 {
                    c.read(0, 64).await.unwrap();
                }
                (sim.now() - t0) / 10
            }
        });

        // One-sided read of the same size on a fresh pair.
        let (sim, server, client) = setup();
        let buf = server.alloc(1 << 20).unwrap();
        let mr = server.reg_mr(buf, rdma::Access::REMOTE_READ).unwrap();
        let one_sided = sim.block_on({
            let sim = sim.clone();
            async move {
                let cq = rdma::CompletionQueue::new();
                let qp = client
                    .connect(
                        mr.node,
                        {
                            // data service: use a raw listener on the server side
                            let mut l = server.listen(42).unwrap();
                            let scq = rdma::CompletionQueue::new();
                            server
                                .sim()
                                .spawn(async move { l.accept(&scq).await.unwrap() });
                            42
                        },
                        &cq,
                    )
                    .await
                    .unwrap();
                let dst = client.alloc(64).unwrap();
                qp.post_read(1, dst, mr.token().at(0, 64).unwrap()).unwrap();
                cq.next().await; // warm
                let t0 = sim.now();
                for i in 0..10 {
                    qp.post_read(2 + i, dst, mr.token().at(0, 64).unwrap())
                        .unwrap();
                    cq.next().await;
                }
                (sim.now() - t0) / 10
            }
        });
        assert!(
            two_sided > one_sided * 2,
            "two-sided {two_sided:?} should be >2x one-sided {one_sided:?}"
        );
    }
}
