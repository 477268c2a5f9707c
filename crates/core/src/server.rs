//! The RStore memory server.
//!
//! A memory server *donates DRAM*. On the control path it registers with the
//! master, heartbeats, and serves extent allocation requests (which include
//! the simulated cost of pinning/registering memory with the NIC). On the
//! data path its CPU does **nothing**: clients access its memory with
//! one-sided RDMA handled entirely by the (simulated) NIC.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use rdma::{Access, CompletionQueue, CqStatus, DmaBuf, RKey, RdmaDevice, RemoteAddr, Wr};
use sim::{EventSink, Sim, SimTime, TimerId};

use crate::client::DataQps;
use crate::crc::zero_trailer;
use crate::error::{RStoreError, Result};
use crate::proto::{
    error_reply, extent_alloc_len, AllocExtents, FreeExtents, Heartbeat, RegisterServer,
    Registration, Replicate, Request, SetAccess, SrvReq, Wire,
};
use crate::rpc::{spawn_rpc_server, Channel};
use crate::{CTRL_SERVICE, DATA_SERVICE, SRV_SERVICE};

/// Memory-server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bytes of DRAM donated to the store.
    pub donate: u64,
    /// Heartbeat period (must be well under the master's lease).
    pub heartbeat: Duration,
    /// CPU cost per control RPC.
    pub rpc_cpu: Duration,
    /// Simulated memory-registration (pinning) cost per MiB of extent.
    pub pin_per_mib: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            donate: 32 * 1024 * 1024 * 1024,
            heartbeat: Duration::from_millis(100),
            rpc_cpu: Duration::from_micros(2),
            pin_per_mib: Duration::from_micros(3),
        }
    }
}

/// Handle to a running memory server.
#[derive(Clone)]
pub struct MemServer {
    dev: RdmaDevice,
    sim: Sim,
}

impl fmt::Debug for MemServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemServer")
            .field("node", &self.dev.node())
            .field("mem_used", &self.dev.mem_used())
            .finish()
    }
}

/// One granted extent: what remote peers may do with it is a function of
/// this record and of whether the server holds a lease, never set ad hoc.
struct Grant {
    rkey: RKey,
    /// Physical length (trailer included).
    len: u64,
    /// Sealed read-only by the master for a move in flight.
    sealed: bool,
}

/// What the server serves and on what terms: the extents it has granted, and
/// the lease under which remote peers may touch them.
///
/// **A server without a lease serves nothing.** The lease runs from the
/// instant the last acknowledged beat was *sent* — never later than the
/// instant the master counts from — so by the time the master can declare
/// this server dead and start replacing its extents, every one of them
/// already answers `RemoteAccess`. The control path (heartbeats,
/// registration, `SRV_SERVICE`) is SEND/RECV and needs no remotely
/// accessible memory, so a fenced server can still win its lease back.
struct Served {
    dev: RdmaDevice,
    grants: RefCell<BTreeMap<u64, Grant>>,
    /// As the master's last registration reply named it.
    lease: Cell<Duration>,
    fenced: Cell<bool>,
    /// When the lease runs out, and the event that fences the server then.
    lease_end: Cell<SimTime>,
    expiry: Cell<Option<TimerId>>,
    /// Simulated pinning cost per MiB of the extents [`AllocExtents`] grants.
    pin_per_mib: Duration,
    /// The data-QP dialer of [`Replicate`]'s copy READs: one QP per
    /// source server, shared by every copy from it.
    qps: Rc<DataQps>,
}

impl EventSink for Served {
    /// The lease ran out unrenewed.
    fn fire(self: Rc<Self>, _: u64, _: u64) {
        self.set_fenced(true);
    }
}

impl Served {
    /// The remote rights of a grant right now.
    fn access(&self, sealed: bool) -> Access {
        match (self.fenced.get(), sealed) {
            (true, _) => Access::LOCAL_ONLY,
            (false, true) => Access::REMOTE_READ,
            (false, false) => Access::REMOTE_ALL,
        }
    }

    /// Revokes or restores remote access to every grant. Rkeys and sealed
    /// flags are untouched, so an extent sealed before the fence is still
    /// sealed after it.
    fn set_fenced(&self, fenced: bool) {
        if self.fenced.replace(fenced) != fenced {
            for g in self.grants.borrow().values() {
                let _ = self.dev.set_mr_access(g.rkey, self.access(g.sealed));
            }
        }
    }

    /// A beat sent at `sent` was acknowledged: the lease now runs from then.
    fn renew(self: &Rc<Self>, sent: SimTime) {
        let sim = self.dev.sim();
        if let Some(old) = self.expiry.take() {
            sim.cancel(old);
        }
        self.lease_end.set(sent + self.lease.get());
        let at = self.lease_end.get().max(sim.now());
        self.expiry.set(Some(sim.schedule_event(at, self, 0, 0)));
        self.set_fenced(false);
    }

    /// Frees the extent at `addr` if it is still the grant `rkey` names (by
    /// now the address may have been freed and granted again).
    fn retire(&self, addr: u64, rkey: u64) {
        let mut grants = self.grants.borrow_mut();
        if grants.get(&addr).is_some_and(|g| g.rkey.0 == rkey) {
            let g = grants.remove(&addr).expect("checked");
            let _ = self.dev.free(DmaBuf { addr, len: g.len });
        }
    }
}

impl MemServer {
    /// Starts a memory server on `dev`: registers with the master at
    /// `master`, begins heartbeating, and serves allocation RPCs plus
    /// data-path connections.
    ///
    /// # Errors
    ///
    /// [`crate::RStoreError::Rdma`] if the service ids are already in use on
    /// this device.
    pub fn spawn(dev: &RdmaDevice, master: fabric::NodeId, cfg: ServerConfig) -> Result<MemServer> {
        let server = MemServer {
            dev: dev.clone(),
            sim: dev.sim().clone(),
        };
        let served = Rc::new(Served {
            dev: dev.clone(),
            grants: RefCell::default(),
            lease: Cell::new(Duration::ZERO),
            fenced: Cell::new(true),
            lease_end: Cell::new(SimTime::ZERO),
            expiry: Cell::new(None),
            pin_per_mib: cfg.pin_per_mib,
            qps: DataQps::new(dev),
        });

        // Extent allocation service (master -> server).
        let sv = served.clone();
        spawn_rpc_server(
            dev,
            SRV_SERVICE,
            cfg.rpc_cpu,
            Rc::new(move |_peer, req| {
                let sv = sv.clone();
                Box::pin(async move {
                    match SrvReq::decode(&req) {
                        Ok(req) => handle_srv_req(&sv, req).await,
                        Err(e) => error_reply(e),
                    }
                })
            }),
        )?;

        // Data-path listener: accept QPs. No receive processing — the QPs
        // exist purely as targets of one-sided IO, and the device keeps
        // their state, so the handles need not be kept.
        let mut data_listener = dev.listen(DATA_SERVICE)?;
        server.sim.spawn(async move {
            let cq = CompletionQueue::new();
            while data_listener.accept(&cq).await.is_ok() {}
        });

        // Registration + heartbeat loop.
        let sim2 = server.sim.clone();
        let node = dev.node().0;
        let capacity = cfg.donate;
        let heartbeat = cfg.heartbeat;
        // A dropped heartbeat *response* must cost one beat, not the
        // control-path default — the lease keeps running while we wait.
        let ctrl = Channel::new(dev, master, CTRL_SERVICE, heartbeat);
        server.sim.spawn(async move {
            let mut registered = false;
            loop {
                let started = sim2.now();
                let reply = if registered {
                    ctrl.call(&Heartbeat { node }).await
                } else {
                    // Reconcile before unfence: what the master replaced
                    // while it could not reach us goes first, so no
                    // replaced extent is ever reachable again.
                    let reply = ctrl.call(&RegisterServer { node, capacity }).await;
                    reply.map(|Registration { lease, retire }| {
                        for (addr, rkey) in retire {
                            served.retire(addr, rkey);
                        }
                        served.lease.set(lease);
                    })
                };
                // An error reply means the master does not count us as a
                // live server (it lost its soft state, or saw our lease
                // lapse); a failed call, that the connection broke (master
                // restart / partition) and the channel redials. Either way:
                // register again. (A dial that fails changes nothing: there
                // is no connection only before the first registration and
                // after a failed call.)
                let acked = reply.is_ok();
                registered = acked;
                // An acknowledged beat renews the lease from the instant it
                // was sent. The next attempt follows a period later, whether
                // this one was acknowledged or not — unless it failed and
                // that wait would reach into the last period of the lease
                // (or the lease is gone): then it follows a period after
                // this one *started*, which after a time-out is at once.
                if acked {
                    served.renew(started);
                }
                let now = sim2.now();
                let next = if acked || now + 2 * heartbeat <= served.lease_end.get() {
                    now + heartbeat
                } else {
                    (started + heartbeat).max(now)
                };
                sim2.sleep_until(next).await;
            }
        });

        Ok(server)
    }

    /// The server's fabric node.
    pub fn node(&self) -> fabric::NodeId {
        self.dev.node()
    }

    /// Bytes of the arena currently allocated to regions.
    pub fn mem_used(&self) -> u64 {
        self.dev.mem_used()
    }
}

/// Serves one request from the master, answering with that request's reply.
async fn handle_srv_req(sv: &Served, req: SrvReq) -> Vec<u8> {
    match req {
        SrvReq::AllocExtents(req) => AllocExtents::encode_reply(alloc_extents(sv, req).await),
        SrvReq::FreeExtents(FreeExtents { extents }) => {
            for (addr, len) in extents {
                sv.grants.borrow_mut().remove(&addr);
                let _ = sv.dev.free(DmaBuf { addr, len });
            }
            FreeExtents::encode_reply(Ok(()))
        }
        SrvReq::SetAccess(req) => SetAccess::encode_reply(set_access(sv, req)),
        SrvReq::Replicate(req) => Replicate::encode_reply(replicate(sv, req).await),
    }
}

async fn alloc_extents(sv: &Served, req: AllocExtents) -> Result<Vec<(u64, u64, u64)>> {
    let (dev, len, synthetic) = (&sv.dev, req.len, req.synthetic);
    // Synthetic extents carry no bytes, so there is nothing to
    // checksum; the master never asks for both, but normalize anyway.
    let checksums = req.checksums && !synthetic;
    let alloc_len = extent_alloc_len(len, checksums);
    // Charge the pinning/registration cost: this is what makes the
    // control path "slow but once".
    let total_mib = (req.count as u64 * alloc_len) / (1024 * 1024);
    let pin = sv.pin_per_mib.as_nanos() as u64 * total_mib;
    dev.sim().sleep(Duration::from_nanos(pin)).await;

    // A trailer initialized to the CRCs of the zero-filled blocks
    // makes never-written stripes verify clean (no false positives).
    // Writing it backs the extent's whole prefix: the documented
    // cliff (DESIGN.md, "Arena backing").
    let trailer = checksums.then(|| zero_trailer(len));
    let mut granted: Vec<(u64, u64, u64)> = Vec::new();
    let mut bufs: Vec<DmaBuf> = Vec::new();
    let mut grant_next = || -> Result<()> {
        let buf = if synthetic {
            dev.alloc_synthetic(alloc_len)?
        } else {
            dev.alloc(alloc_len)?
        };
        bufs.push(buf);
        if let Some(trailer) = &trailer {
            dev.write_mem(buf.addr + len, trailer)?;
        }
        // The granted length is the *logical* extent size; the
        // trailer is an implementation detail the master re-derives
        // with `extent_alloc_len`.
        let mr = dev.reg_mr(buf, sv.access(false))?;
        granted.push((buf.addr, mr.rkey.0, len));
        Ok(())
    };
    // All or nothing: one failure frees every buffer so far.
    if let Err(e) = (0..req.count).try_for_each(|_| grant_next()) {
        for b in bufs {
            let _ = dev.free(b);
        }
        return Err(e);
    }
    let mut grants = sv.grants.borrow_mut();
    for (buf, &(_, rkey, _)) in bufs.iter().zip(&granted) {
        let grant = Grant {
            rkey: RKey(rkey),
            len: buf.len,
            sealed: false,
        };
        grants.insert(buf.addr, grant);
    }
    Ok(granted)
}

/// The seal of an extent move: flip the extent's rights in place, keeping
/// the rkey clients hold. Sealed writers complete with RemoteAccess and
/// revalidate their descriptor; readers are unaffected. Under a fence the
/// flag is only recorded: it takes effect when access comes back.
fn set_access(sv: &Served, req: SetAccess) -> Result<()> {
    let mut grants = sv.grants.borrow_mut();
    let Some(g) = grants.values_mut().find(|g| g.rkey.0 == req.rkey) else {
        return Err(rdma::RdmaError::InvalidHandle.into());
    };
    g.sealed = !req.writable;
    Ok(sv.dev.set_mr_access(g.rkey, sv.access(g.sealed))?)
}

/// The copy of an extent move: pull the source into the local extent with a
/// one-sided READ over the data path. The source server's CPU stays idle —
/// only its NIC serves the read.
async fn replicate(sv: &Served, req: Replicate) -> Result<()> {
    let src = RemoteAddr {
        addr: req.src_addr,
        rkey: RKey(req.src_rkey),
    };
    sv.qps.dial(req.src_node, true).await?;
    let dst = DmaBuf {
        addr: req.dst_addr,
        len: req.len,
    };
    let status = sv
        .qps
        .post(req.src_node, Wr::read(0, dst, src), req.len)?
        .await;
    match status.unwrap_or(CqStatus::Flushed) {
        CqStatus::Success => Ok(()),
        status => {
            let what = format!("replicate read failed: {status:?}");
            Err(RStoreError::Remote(what))
        }
    }
}
