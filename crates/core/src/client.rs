//! The RStore client: control-path calls to the master, plus the machinery
//! shared by all of a client's regions — and by the master's scrubber and a
//! memory server's extent copies: the one data-QP dialer, `DataQps`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::{CompletionQueue, CqStatus, Qp, RdmaDevice, RdmaError, Wr};
use sim::sync::Semaphore;
use sim::{Counter, EventSink, Recorder, Rendezvous, Sim, SimTime, TimerId, Wait};

use crate::error::{RStoreError, Result};
use crate::proto::{
    Alloc, AllocOptions, ClusterReport, ClusterStats, Drain, Free, Lookup, RegionDesc, RegionState,
    Report, ReportCorruption, Stat,
};
use crate::region::Region;
use crate::rpc::Channel;
use crate::stats::{ClientStats, CtrlOp};
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
    /// `0` disables the cache (every op probes from the home slot). Each
    /// cached entry costs the host about 64–72 B plus its key's heap
    /// buffer: 56 B of entry and 8–16 B of index. That storage grows with
    /// the entries, not with this number, and is reused once full.
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
/// Extra grace added to the device's per-op timeout before a posted WR is
/// failed with [`CqStatus::Timeout`] ([`DataQps::fire`]) — a backstop that
/// bounds every data-path wait in virtual time.
const IO_GRACE: Duration = Duration::from_millis(100);

/// Re-dial state for one memory server: a single-attempt gate, and the
/// capped-exponential-backoff clock — failed dials in a row, and the instant
/// before which the next dial fails fast.
struct RedialSlot(Semaphore, Cell<(u32, SimTime)>);

/// The one data-QP dialer: how a one-sided WR gets its QP, its wr_id, its
/// waiter and its deadline. A client, the master's scrubber and every memory
/// server's extent copies each own one, so they dial, back off and time out
/// by one policy:
/// - one cached QP per node, replaced only by a dial;
/// - at most one dial per node at a time, rate-limited by capped exponential
///   backoff — a dial inside the backoff window fails fast instead of
///   sleeping, so a reader fails over to another replica rather than stall;
/// - one CQ whose router, spawned by the first dial, forwards each CQE to the
///   waiter of its wr_id, and a backstop per WR that fails the waiter if no
///   CQE comes.
pub(crate) struct DataQps {
    dev: RdmaDevice,
    cq: CompletionQueue,
    conns: RefCell<HashMap<u32, Qp>>,
    gates: RefCell<HashMap<u32, Rc<RedialSlot>>>,
    /// Waiters of posted WRs, each with its timeout backstop; a WR's wr_id
    /// is its cell's ticket.
    pub(crate) pending: Rendezvous<CqStatus, TimerId>,
    routing: Cell<bool>,
    attempts: Counter,
    dialed: Counter,
    timeouts: Counter,
}

impl EventSink for DataQps {
    /// The timeout backstop of work request `wr_id` expired with no
    /// completion routed back: fail its waiter. The device-generated CQE
    /// (the verbs layer always produces one) then finds no waiter and is
    /// dropped by the completion router.
    fn fire(self: Rc<Self>, wr_id: u64, _: u64) {
        if self.pending.fill(wr_id.into(), CqStatus::Timeout).is_some() {
            self.timeouts.incr();
        }
    }
}

impl DataQps {
    pub(crate) fn new(dev: &RdmaDevice) -> Rc<DataQps> {
        let m = dev.metrics();
        Rc::new(DataQps {
            dev: dev.clone(),
            cq: CompletionQueue::new(),
            conns: RefCell::default(),
            gates: RefCell::default(),
            pending: Rendezvous::new(),
            routing: Cell::new(false),
            attempts: m.counter_handle("rstore.redial.attempts"),
            dialed: m.counter_handle("rstore.redial.ok"),
            timeouts: m.counter_handle("rstore.io_timeout"),
        })
    }

    /// Makes sure a QP to `node` is cached: a healthy one, or with `heal`
    /// false any one, errored or not (so a map never waits on a dial to a
    /// node it already knows). Otherwise dials through the node's gate.
    pub(crate) async fn dial(self: &Rc<Self>, node: u32, heal: bool) -> Result<()> {
        let cached = || {
            let conns = self.conns.borrow();
            conns.get(&node).is_some_and(|qp| !heal || !qp.is_errored())
        };
        if cached() {
            return Ok(());
        }
        let gate = self
            .gates
            .borrow_mut()
            .entry(node)
            .or_insert_with(|| Rc::new(RedialSlot(Semaphore::new(1), Cell::default())))
            .clone();
        let RedialSlot(sem, backoff) = &*gate;
        sem.acquire().await;
        let sim = self.dev.sim();
        // Another task may have dialed while we queued on the gate.
        let out = if cached() {
            Ok(())
        } else if sim.now() < backoff.get().1 {
            Err(RStoreError::Rdma(RdmaError::Timeout))
        } else {
            if !self.routing.replace(true) {
                sim.spawn(self.clone().route());
            }
            self.attempts.incr();
            match self.dev.connect(NodeId(node), DATA_SERVICE, &self.cq).await {
                Ok(qp) => {
                    self.conns.borrow_mut().insert(node, qp);
                    backoff.set((0, SimTime::ZERO));
                    self.dialed.incr();
                    Ok(())
                }
                Err(e) => {
                    let n = backoff.get().0.saturating_add(1);
                    let wait = REDIAL_BACKOFF.saturating_mul(1 << (n - 1).min(16));
                    backoff.set((n, sim.now() + wait.min(REDIAL_BACKOFF_MAX)));
                    Err(e.into())
                }
            }
        };
        sem.release();
        out
    }

    /// Posts `wr` on the cached QP to `node` under a fresh wr_id — the
    /// ticket of the `pending` cell it completes into — and returns that
    /// cell's waiter. Every WR stays signaled: its waiter resolves
    /// on the CQE the router forwards, so a suppressed success would leave
    /// the waiter to its backstop. The backstop's deadline is the device's
    /// backlog-aware bound for `bytes`, not the isolated-op timeout — behind
    /// a deep backlog (e.g. a fluid-mode shuffle) an op legitimately
    /// outlives `op_timeout` of its own size — plus [`IO_GRACE`].
    pub(crate) fn post(
        self: &Rc<Self>,
        node: u32,
        mut wr: Wr,
        bytes: u64,
    ) -> Result<Wait<CqStatus, TimerId>> {
        let conns = self.conns.borrow();
        let qp = conns.get(&node).ok_or(RdmaError::QpError)?;
        debug_assert!(wr.signaled, "an unsignaled WR would wait for its backstop");
        wr.wr_id = self.pending.next_ticket().into();
        qp.post_batch(&[wr])?;
        let sim = self.dev.sim();
        let deadline = sim.now() + self.dev.op_deadline(bytes) + IO_GRACE;
        let backstop = sim.schedule_event(deadline, self, wr.wr_id, 0);
        Ok(self.pending.open(backstop))
    }

    /// The completion router: forwards every CQE to the waiter that posted
    /// its WR, cancelling that WR's backstop.
    async fn route(self: Rc<Self>) {
        loop {
            let cqe = self.cq.next().await;
            if let Some(backstop) = self.pending.fill(cqe.wr_id.into(), cqe.status) {
                self.dev.sim().cancel(backstop);
            }
        }
    }
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
    pub qps: Rc<DataQps>,
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
            .field("data_conns", &self.shared.qps.conns.borrow().len())
            .finish()
    }
}

impl RStoreClient {
    /// Connects to the master.
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
            qps: DataQps::new(dev),
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
        let name = name.to_owned();
        let desc = self.ctrl_call(Alloc { name, size, opts }).await?;
        self.region_from_desc(desc).await
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

    /// Fetches a region descriptor without establishing data connections.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown, or transport errors.
    pub async fn lookup(&self, name: &str) -> Result<RegionDesc> {
        let name = name.to_owned();
        self.ctrl_call(Lookup { name }).await
    }

    /// Destroys a region, reclaiming server memory. Existing [`Region`]
    /// handles become invalid (their IO will fail with access errors).
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown, or transport errors.
    pub async fn free(&self, name: &str) -> Result<()> {
        let name = name.to_owned();
        self.ctrl_call(Free { name }).await
    }

    /// Cluster statistics from the master.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub async fn stats(&self) -> Result<ClusterStats> {
        self.ctrl_call(Stat {}).await
    }

    /// Full cluster introspection report from the master: per-server
    /// capacity and liveness, per-region health states, and cumulative
    /// corruption/repair counters, all as of the current virtual time.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub async fn cluster_stats(&self) -> Result<ClusterReport> {
        self.ctrl_call(Report {}).await
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
        self.ctrl_call(Drain { node: node.0 }).await
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
        let name = name.to_owned();
        self.ctrl_call(ReportCorruption {
            name,
            group,
            replica,
            node,
        })
        .await
    }

    /// One control RPC to the master, answered with the request's reply or
    /// the error the master answered with.
    async fn ctrl_call<Q: CtrlOp>(&self, req: Q) -> Result<Q::Reply> {
        let s = &self.shared;
        let turn = s.ctrl.admit().await;
        // The span (and its latency histogram) cover the RPC itself, not
        // time queued behind this client's other control calls.
        let span = s.stats.ctrl::<Q>().span(s.dev.node().0 as u64, 0);
        let result = turn.call(&req).await;
        drop(turn);
        span.end();
        result
    }

    /// Builds a [`Region`], eagerly dialing every server in the descriptor
    /// that has no QP cached (setup!), so the data path never has to.
    async fn region_from_desc(&self, desc: RegionDesc) -> Result<Region> {
        let nodes: std::collections::BTreeSet<u32> = desc
            .groups
            .iter()
            .flat_map(|g| &g.replicas)
            .map(|x| x.node)
            .collect();
        for node in nodes {
            // A dead server is tolerable for degraded maps; the affected
            // stripes will fail at IO time.
            let dialed = self.shared.qps.dial(node, false).await;
            if desc.state == RegionState::Healthy {
                dialed?;
            }
        }
        Ok(Region::new(self.clone(), desc))
    }
}
