//! The RStore client: control-path calls to the master, plus the machinery
//! shared by all of a client's regions (data completion routing, connection
//! cache).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::{CompletionQueue, CqStatus, Qp, RdmaDevice, RdmaError};
use sim::channel::oneshot;
use sim::sync::Semaphore;
use sim::{EventSink, Recorder, Sim, SimTime, TimerId};

use crate::error::{RStoreError, Result};
use crate::proto::{
    AllocOptions, ClusterReport, ClusterStats, CtrlReq, CtrlResp, RegionDesc, RegionState,
};
use crate::region::Region;
use crate::rpc::Channel;
use crate::stats::ClientStats;
use crate::{CTRL_SERVICE, DATA_SERVICE};

/// Per-client tuning: the KV hint cache and the control-call deadline. The
/// data path has no knob: every [`Region`] IO, plain or checksummed, is one
/// planned round.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Capacity of the per-table cached KV index (key → slot hints) that
    /// [`KvTable`](crate::kv::KvTable) handles opened through this client
    /// keep, in entries. A warm hint turns a `get` into a single one-sided
    /// READ and a `put` into CAS + WRITE regardless of probe-chain depth.
    /// `0` disables the cache (every op probes from the home slot).
    pub kv_hint_capacity: usize,
    /// How long a control RPC to the master waits for its response before
    /// the connection is declared broken and redialed. The default matches
    /// the RPC layer's conservative 1s; chaos-tolerant deployments should
    /// set it near their data-path timeout so a lost response costs one
    /// revalidation round, not a second of stalled retries.
    pub ctrl_response_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            kv_hint_capacity: 4096,
            ctrl_response_timeout: crate::rpc::RESPONSE_TIMEOUT,
        }
    }
}

/// Delay before the first QP re-dial retry to a node after a failed
/// attempt; doubles on each consecutive failure.
const REDIAL_BACKOFF: Duration = Duration::from_millis(1);
/// Cap on the re-dial backoff.
const REDIAL_BACKOFF_MAX: Duration = Duration::from_millis(100);
/// Extra grace added to the device's per-op timeout before a posted IO is
/// failed client-side with [`CqStatus::Timeout`] ([`ClientShared::fire`]) —
/// a backstop that bounds every region IO in virtual time.
pub(crate) const IO_GRACE: Duration = Duration::from_millis(100);

/// Re-dial state for one memory server: a single-attempt gate plus the
/// capped-exponential-backoff clock.
struct RedialSlot {
    sem: Semaphore,
    attempts: Cell<u32>,
    next_at: Cell<SimTime>,
}

pub(crate) struct ClientShared {
    pub dev: RdmaDevice,
    pub sim: Sim,
    /// The simulation's recorder: its level decides, per op, whether a
    /// ledger is started at all.
    pub rec: Recorder,
    pub cfg: ClientConfig,
    pub stats: ClientStats,
    /// The control channel to the master.
    ctrl: Channel,
    pub data_cq: CompletionQueue,
    /// Waiters of posted WRs by wr_id, each with its timeout backstop.
    pub pending: RefCell<HashMap<u64, (oneshot::Sender<CqStatus>, TimerId)>>,
    pub next_wr: Cell<u64>,
    pub conns: RefCell<HashMap<u32, Qp>>,
    redial: RefCell<HashMap<u32, Rc<RedialSlot>>>,
}

impl EventSink for ClientShared {
    /// The timeout backstop of work request `wr_id` expired with no
    /// completion routed back: fail its waiter. The device-generated CQE
    /// (the verbs layer always produces one) then finds no waiter and is
    /// dropped by the completion router.
    fn fire(self: Rc<Self>, wr_id: u64, _: u64) {
        if let Some((tx, _)) = self.pending.borrow_mut().remove(&wr_id) {
            self.stats.io_timeout.incr();
            tx.send(CqStatus::Timeout);
        }
    }
}

/// A handle to the RStore service.
///
/// Obtained with [`RStoreClient::connect`]; cheap to clone. The client owns
/// one control connection to the master and a cache of data-path queue pairs
/// to memory servers — establishing those is setup; using them is the
/// one-sided fast path.
///
/// This is the paper's "memory-like API": [`alloc`](Self::alloc) a named
/// region of distributed DRAM, [`map`](Self::map) it from any client, then
/// read/write it like memory through [`Region`].
///
/// # Errors of control calls
///
/// What the master answers with arrives as the value it constructed, for
/// every name: `NotFound(name)` and `NameExists(name)` carry exactly the
/// name that was asked for. "Transport errors" below are this client's own
/// [`RStoreError::Io`] / [`RStoreError::Rdma`]: the call did not complete
/// and the control connection is redialed by the next one. A failure of the
/// master's own calls to a memory server is not one of those — it arrives
/// as [`RStoreError::Remote`].
#[derive(Clone)]
pub struct RStoreClient {
    pub(crate) shared: Rc<ClientShared>,
}

impl fmt::Debug for RStoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RStoreClient")
            .field("node", &self.shared.dev.node())
            .field("ctrl", &self.shared.ctrl)
            .field("data_conns", &self.shared.conns.borrow().len())
            .finish()
    }
}

impl RStoreClient {
    /// Connects to the master and starts the client's completion router.
    ///
    /// # Errors
    ///
    /// Connection failures from the verbs layer.
    pub async fn connect(dev: &RdmaDevice, master: NodeId) -> Result<RStoreClient> {
        Self::connect_with(dev, master, ClientConfig::default()).await
    }

    /// Like [`connect`](Self::connect) with explicit tuning.
    ///
    /// # Errors
    ///
    /// Connection failures from the verbs layer.
    pub async fn connect_with(
        dev: &RdmaDevice,
        master: NodeId,
        cfg: ClientConfig,
    ) -> Result<RStoreClient> {
        let ctrl = Channel::new(dev, master, CTRL_SERVICE, cfg.ctrl_response_timeout);
        ctrl.dial().await?;
        let rec = dev.sim().recorder();
        let shared = Rc::new(ClientShared {
            dev: dev.clone(),
            sim: dev.sim().clone(),
            stats: ClientStats::resolve(&dev.metrics(), &rec),
            rec,
            cfg,
            ctrl,
            data_cq: CompletionQueue::new(),
            pending: RefCell::new(HashMap::new()),
            next_wr: Cell::new(1),
            conns: RefCell::new(HashMap::new()),
            redial: RefCell::new(HashMap::new()),
        });

        // Completion router: forwards every data CQE to the waiter that
        // posted the work request.
        let s = shared.clone();
        shared.sim.spawn(async move {
            loop {
                let cqe = s.data_cq.next().await;
                let waiter = s.pending.borrow_mut().remove(&cqe.wr_id);
                if let Some((tx, backstop)) = waiter {
                    s.sim.cancel(backstop);
                    tx.send(cqe.status);
                }
            }
        });

        Ok(RStoreClient { shared })
    }

    /// The client's RDMA device (for allocating the IO buffers of the
    /// region's `_into` / `_from` calls).
    pub fn device(&self) -> &RdmaDevice {
        &self.shared.dev
    }

    /// Allocates a named region of distributed memory and maps it.
    ///
    /// This is a control-path operation: the master places stripes on memory
    /// servers, the servers pin and register memory, and the client connects
    /// to every involved server — all before the call returns, so that
    /// subsequent IO is pure one-sided RDMA.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NameExists`], [`RStoreError::InsufficientCapacity`],
    /// [`RStoreError::NotEnoughServers`], [`RStoreError::Protocol`] for a zero
    /// size, stripe size or replica count, or transport errors.
    pub async fn alloc(&self, name: &str, size: u64, opts: AllocOptions) -> Result<Region> {
        let req = CtrlReq::Alloc {
            name: name.to_owned(),
            size,
            opts,
        };
        match self.ctrl_call(req).await? {
            CtrlResp::Region(desc) => self.region_from_desc(desc).await,
            _ => Err(RStoreError::Protocol("unexpected alloc response".into())),
        }
    }

    /// Maps an existing region by name.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown,
    /// [`RStoreError::Degraded`] if any of its memory servers is down (use
    /// [`RStoreClient::map_degraded`] to map anyway), or transport errors.
    pub async fn map(&self, name: &str) -> Result<Region> {
        let desc = self.lookup(name).await?;
        if desc.state == RegionState::Degraded {
            return Err(RStoreError::Degraded(name.to_owned()));
        }
        self.region_from_desc(desc).await
    }

    /// Maps a region even if some of its servers are down. Reads served by
    /// replicas may still succeed; IO touching dead servers fails.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown, or transport errors.
    pub async fn map_degraded(&self, name: &str) -> Result<Region> {
        let desc = self.lookup(name).await?;
        self.region_from_desc(desc).await
    }

    /// Extends an existing region by `additional` bytes and returns a
    /// re-mapped [`Region`] covering the new size. Previously returned
    /// handles remain valid for the old range; existing data is untouched.
    ///
    /// The new stripes reuse the region's stripe size; `opts` supplies the
    /// placement policy and replication for them.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`], [`RStoreError::NameExists`] while another
    /// grow of the region is in flight, [`RStoreError::InsufficientCapacity`],
    /// [`RStoreError::NotEnoughServers`], [`RStoreError::Protocol`] for a
    /// zero-sized grow, or transport errors.
    pub async fn grow(&self, name: &str, additional: u64, opts: AllocOptions) -> Result<Region> {
        let req = CtrlReq::Grow {
            name: name.to_owned(),
            additional,
            opts,
        };
        match self.ctrl_call(req).await? {
            CtrlResp::Region(desc) => self.region_from_desc(desc).await,
            _ => Err(RStoreError::Protocol("unexpected grow response".into())),
        }
    }

    /// Fetches a region descriptor without establishing data connections.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown, or transport errors.
    pub async fn lookup(&self, name: &str) -> Result<RegionDesc> {
        let name = name.to_owned();
        match self.ctrl_call(CtrlReq::Lookup { name }).await? {
            CtrlResp::Region(desc) => Ok(desc),
            _ => Err(RStoreError::Protocol("unexpected lookup response".into())),
        }
    }

    /// Destroys a region, reclaiming server memory. Existing [`Region`]
    /// handles become invalid (their IO will fail with access errors).
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown, or transport errors.
    pub async fn free(&self, name: &str) -> Result<()> {
        let name = name.to_owned();
        match self.ctrl_call(CtrlReq::Free { name }).await? {
            CtrlResp::Ok => Ok(()),
            _ => Err(RStoreError::Protocol("unexpected free response".into())),
        }
    }

    /// Cluster statistics from the master.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub async fn stats(&self) -> Result<ClusterStats> {
        match self.ctrl_call(CtrlReq::Stat).await? {
            CtrlResp::Stats(s) => Ok(s),
            _ => Err(RStoreError::Protocol("unexpected stat response".into())),
        }
    }

    /// Full cluster introspection report from the master: per-server
    /// capacity and liveness, per-region health states, and cumulative
    /// corruption/repair counters, all as of the current virtual time.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub async fn cluster_stats(&self) -> Result<ClusterReport> {
        match self.ctrl_call(CtrlReq::ClusterStats).await? {
            CtrlResp::Report(r) => Ok(r),
            _ => Err(RStoreError::Protocol(
                "unexpected cluster stats response".into(),
            )),
        }
    }

    /// Gracefully drains a memory server: the master migrates every extent
    /// it hosts onto other servers (live, one-sided copies with atomic
    /// descriptor swaps) and excludes it from future placement. Returns
    /// `(extents, bytes)` migrated.
    ///
    /// # Errors
    ///
    /// * [`RStoreError::InsufficientCapacity`] — the remaining servers
    ///   cannot absorb the node's data; the node stays in service.
    /// * [`RStoreError::Remote`] — unknown server, duplicate drain, or a
    ///   stalled drain.
    /// * Transport errors.
    pub async fn drain(&self, node: NodeId) -> Result<(u64, u64)> {
        match self.ctrl_call(CtrlReq::Drain { node: node.0 }).await? {
            CtrlResp::Drained { extents, bytes } => Ok((extents, bytes)),
            _ => Err(RStoreError::Protocol("unexpected drain response".into())),
        }
    }

    /// Tells the master that a stripe replica failed checksum verification,
    /// so the scrubber/repair path can re-replicate it. Best-effort: callers
    /// on the data path fire this asynchronously and ignore failures.
    pub(crate) async fn report_corruption(
        &self,
        name: &str,
        group: u32,
        replica: u32,
        node: u32,
    ) -> Result<()> {
        let req = CtrlReq::ReportCorruption {
            name: name.to_owned(),
            group,
            replica,
            node,
        };
        match self.ctrl_call(req).await? {
            CtrlResp::Ok => Ok(()),
            _ => Err(RStoreError::Protocol("unexpected report response".into())),
        }
    }

    /// Re-establishes the data QP to `node`, replacing a missing or errored
    /// cached connection. At most one attempt runs per node at a time, and
    /// attempts are rate-limited by capped exponential backoff — a call
    /// inside the backoff window fails fast instead of sleeping, so read
    /// callers fail over to another replica rather than stall.
    pub(crate) async fn redial(&self, node: u32) -> Result<Qp> {
        let s = &self.shared;
        if let Some(qp) = s.conns.borrow().get(&node) {
            if !qp.is_errored() {
                return Ok(qp.clone());
            }
        }
        let slot = s
            .redial
            .borrow_mut()
            .entry(node)
            .or_insert_with(|| {
                Rc::new(RedialSlot {
                    sem: Semaphore::new(1),
                    attempts: Cell::new(0),
                    next_at: Cell::new(SimTime::ZERO),
                })
            })
            .clone();
        slot.sem.acquire().await;
        // Another task may have re-dialed while we queued on the gate.
        if let Some(qp) = s.conns.borrow().get(&node) {
            if !qp.is_errored() {
                slot.sem.release();
                return Ok(qp.clone());
            }
        }
        if s.sim.now() < slot.next_at.get() {
            slot.sem.release();
            return Err(RStoreError::Rdma(RdmaError::Timeout));
        }
        s.stats.redial_attempts.incr();
        let result = s.dev.connect(NodeId(node), DATA_SERVICE, &s.data_cq).await;
        let out = match result {
            Ok(qp) => {
                s.conns.borrow_mut().insert(node, qp.clone());
                slot.attempts.set(0);
                s.stats.redial_ok.incr();
                Ok(qp)
            }
            Err(e) => {
                let n = slot.attempts.get().saturating_add(1);
                slot.attempts.set(n);
                let backoff = REDIAL_BACKOFF
                    .saturating_mul(1u32 << (n - 1).min(16))
                    .min(REDIAL_BACKOFF_MAX);
                slot.next_at.set(s.sim.now() + backoff);
                Err(e.into())
            }
        };
        slot.sem.release();
        out
    }

    /// One control RPC to the master. A remote error is the `Err` it
    /// carries; the master's own answer is never `CtrlResp::Err`.
    async fn ctrl_call(&self, req: CtrlReq) -> Result<CtrlResp> {
        let s = &self.shared;
        let turn = s.ctrl.admit().await;
        // The span (and its latency histogram) cover the RPC itself, not
        // time queued behind this client's other control calls.
        let span = s.stats.ctrl(&req).span(s.dev.node().0 as u64, 0);
        let result = turn.call(&req).await;
        drop(turn);
        span.end();
        result
    }

    /// Builds a [`Region`], eagerly connecting to every server in the
    /// descriptor (setup!), so the data path never has to.
    async fn region_from_desc(&self, desc: RegionDesc) -> Result<Region> {
        let nodes: std::collections::BTreeSet<u32> = desc
            .groups
            .iter()
            .flat_map(|g| &g.replicas)
            .map(|x| x.node)
            .collect();
        for node in nodes {
            let missing = !self.shared.conns.borrow().contains_key(&node);
            if missing {
                match self
                    .shared
                    .dev
                    .connect(NodeId(node), DATA_SERVICE, &self.shared.data_cq)
                    .await
                {
                    Ok(qp) => {
                        self.shared.conns.borrow_mut().insert(node, qp);
                    }
                    Err(e) => {
                        // A dead server is tolerable for degraded maps; the
                        // affected stripes will fail at IO time.
                        if desc.state == RegionState::Healthy {
                            return Err(e.into());
                        }
                    }
                }
            }
        }
        Ok(Region::new(self.clone(), desc))
    }
}
