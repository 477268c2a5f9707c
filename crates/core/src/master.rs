//! The RStore master: the control-path coordinator.
//!
//! The master owns the namespace (region name → descriptor), the registry of
//! memory servers (capacity, liveness via heartbeat leases), and placement.
//! It is involved in **setup only**: once a client holds a region
//! descriptor, reads and writes never touch the master — that is the
//! "separation philosophy extended to a distributed setting" of the paper.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::{CqStatus, DmaBuf, RKey, RdmaDevice, RemoteAddr, Wr};
use sim::{DetRng, Event, Sim, SimTime};

use crate::client::DataQps;
use crate::crc::verify_blocks;
use crate::error::{RStoreError, Result};
use crate::proto::{
    error_reply, extent_alloc_len, Alloc, AllocExtents, AllocOptions, ClusterReport, ClusterStats,
    CtrlReq, Drain, Extent, Free, FreeExtents, Grow, Heartbeat, Lookup, Policy, RegionDesc,
    RegionState, RegionStats, RegisterServer, Registration, Replicate, Report, ReportCorruption,
    Request, ServerStats, SetAccess, Stat, StripeGroup, Wire,
};
use crate::rpc::{spawn_rpc_server, Channel};
use crate::stats::MasterStats;
use crate::{CTRL_SERVICE, SRV_SERVICE};

/// Bytes-moved budget per rebalance sweep: a sweep stops migrating once it
/// has moved this many physical bytes, resuming next interval. Bounds the
/// data-path interference of any single sweep.
const REBALANCE_BUDGET: u64 = 64 << 20;

/// Master configuration.
#[derive(Clone, Debug)]
pub struct MasterConfig {
    /// A server missing heartbeats for this long is declared dead. Servers
    /// learn it when they register and hold themselves to it: one that goes
    /// this long without an acknowledged beat revokes all remote access to
    /// its extents until it has registered again.
    pub lease: Duration,
    /// How often the liveness sweep runs.
    pub sweep_interval: Duration,
    /// CPU cost per control RPC at the master.
    pub rpc_cpu: Duration,
    /// Seed for randomized placement.
    pub seed: u64,
    /// How often the repair task scans for degraded regions, re-replicating
    /// stripe groups whose replicas sit on dead servers.
    pub repair_interval: Duration,
    /// Whether the background scrubber runs, re-verifying the checksum blocks
    /// of checksummed regions with one-sided READs and marking mismatching
    /// replicas corrupt (handing them to the repair task).
    pub scrub: bool,
    /// How often the scrubber sweeps.
    pub scrub_interval: Duration,
    /// Whether the background rebalancer runs, migrating extents from the
    /// most- to the least-utilized server when the utilization spread
    /// exceeds [`rebalance_spread`](Self::rebalance_spread). Off by
    /// default: planned data movement is an operator choice.
    pub rebalance: bool,
    /// How often the rebalancer sweeps.
    pub rebalance_interval: Duration,
    /// Hysteresis: the rebalancer only acts while
    /// `max(utilization) - min(utilization)` across live servers exceeds
    /// this fraction (utilization = (used + pending) / capacity). Keeps it
    /// from thrashing on noise-level imbalance.
    pub rebalance_spread: f64,
    /// How long a server-facing RPC (extent alloc, replicate, seal) waits
    /// for its response before the connection is declared broken. The 1s
    /// default is safe for any alloc size; chaos-tolerant deployments
    /// should set it near their repair cadence — a migration blocked a
    /// whole second on one lost response holds the source extent sealed
    /// while writers spin on revalidation.
    pub srv_response_timeout: Duration,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            lease: Duration::from_millis(500),
            sweep_interval: Duration::from_millis(200),
            rpc_cpu: Duration::from_micros(2),
            seed: 0x5707E,
            repair_interval: Duration::from_millis(500),
            scrub: true,
            scrub_interval: Duration::from_millis(500),
            rebalance: false,
            rebalance_interval: Duration::from_millis(500),
            rebalance_spread: 0.15,
            srv_response_timeout: crate::rpc::RESPONSE_TIMEOUT,
        }
    }
}

struct ServerInfo {
    capacity: u64,
    /// Bytes granted to extents that appear in a region descriptor. The
    /// accounting invariant — checked by [`Master::local_stats`] — is that
    /// this equals the per-descriptor sum at every await point; transfers
    /// between `pending` and `used` happen in the same borrow as the
    /// descriptor mutation they mirror.
    used: u64,
    /// Bytes reserved by an in-flight allocation, repair, or migration:
    /// granted (or about to be granted) on the server but not yet published
    /// in any descriptor. Returned to zero on commit (moved into `used`) or
    /// rollback.
    pending: u64,
    last_hb: SimTime,
    alive: bool,
}

struct MState {
    servers: BTreeMap<u32, ServerInfo>,
    regions: HashMap<String, RegionDesc>,
    /// Names reserved by in-flight allocations and grows.
    reserved: std::collections::HashSet<String>,
    /// Regions backed by synthetic (sizes-only) memory; repair must
    /// allocate replacement extents of the same kind.
    synthetic: std::collections::HashSet<String>,
    /// Replicas that failed checksum verification (reported by clients or
    /// found by the scrubber), keyed by region name with `(group, replica)`
    /// indices. A marked replica is treated like a dead one: excluded as a
    /// repair source, re-replicated by the repair task, and keeping the
    /// region `Degraded` until cleared.
    corrupt: BTreeMap<String, BTreeSet<(usize, usize)>>,
    /// Servers being gracefully drained: excluded as placement, repair, and
    /// migration targets while their data moves off. Cleared when the drain
    /// completes or fails.
    draining: BTreeSet<u32>,
    /// Per-region in-flight-move guard: a region in this set has a repair,
    /// drain, or rebalance actively rewriting its descriptor, and every
    /// other mover must skip it. Held via [`RegionGuard`] so a panicking or
    /// early-returning mover can never leak the lock.
    busy_regions: std::collections::HashSet<String>,
    /// Extents no descriptor refers to any more whose server could not be
    /// told so, per node: replaced by a move or freed with their region
    /// while the server was out of reach. Handed back in the node's next
    /// registration reply, which it acts on before it serves anything again.
    retired: BTreeMap<u32, Retired>,
    rng: DetRng,
    /// The control channel to each memory server, made on first use.
    conns: HashMap<u32, Rc<Channel>>,
}

/// One node's entry in [`MState::retired`].
#[derive(Default)]
struct Retired {
    /// `(addr, rkey)` per extent, in the order they were retired.
    extents: Vec<(u64, u64)>,
    /// How many of them the last registration reply carried. The node's next
    /// accepted heartbeat proves it acted on that reply, and only then are
    /// they forgotten: a reply lost on the way is simply sent again.
    handed: usize,
}

impl MState {
    /// Whether `node` is registered with a current lease.
    fn alive(&self, node: u32) -> bool {
        self.servers.get(&node).is_some_and(|s| s.alive)
    }

    /// Whether replica `ri` of group `gi` of region `name` is marked corrupt.
    fn marked(&self, name: &str, gi: usize, ri: usize) -> bool {
        self.corrupt
            .get(name)
            .is_some_and(|m| m.contains(&(gi, ri)))
    }

    /// `Some(t)` iff the master itself has seen `node`'s lease lapse, `t`
    /// being the last beat it accepted from it. Any later registration moves
    /// `t`, so two equal answers bracket a span in which the node — fenced by
    /// its own lease timer before the master could notice — stayed fenced.
    fn lapsed_since(&self, node: u32) -> Option<SimTime> {
        let info = self.servers.get(&node)?;
        (!info.alive).then_some(info.last_hb)
    }

    /// Health of `desc` as `Lookup` and the cluster report state it.
    fn health(&self, desc: &RegionDesc) -> RegionState {
        let clean = self.corrupt.get(&desc.name).is_none_or(|m| m.is_empty());
        let mut replicas = desc.groups.iter().flat_map(|g| &g.replicas);
        if clean && replicas.all(|x| self.alive(x.node)) {
            RegionState::Healthy
        } else {
            RegionState::Degraded
        }
    }

    /// The one extent scan behind every mover: `(region, group, replica,
    /// extent)` for each extent `want` accepts, in sorted order — region
    /// iteration is unseeded, and move order (with it every trace) must be
    /// identical across runs.
    fn extents<'a>(
        &'a self,
        want: impl Fn(&str, usize, usize, &Extent) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a str, usize, usize, Extent)> + 'a {
        let mut names: Vec<&String> = self.regions.keys().collect();
        names.sort();
        let all = names.into_iter().flat_map(|name| {
            let groups = self.regions[name].groups.iter().enumerate();
            groups.flat_map(move |(gi, g)| {
                let replicas = g.replicas.iter().enumerate();
                replicas.map(move |(ri, x)| (name.as_str(), gi, ri, *x))
            })
        });
        all.filter(move |(name, gi, ri, x)| want(name, *gi, *ri, x))
    }
}

/// RAII holder of a `busy_regions` entry (see [`MState::busy_regions`]).
struct RegionGuard {
    state: Rc<RefCell<MState>>,
    name: String,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        self.state.borrow_mut().busy_regions.remove(&self.name);
    }
}

/// Result of one extent move attempt.
enum MoveOutcome {
    /// Copied, swapped, and retired: the extent now lives elsewhere. Carries
    /// the physical bytes moved.
    Moved(u64),
    /// The descriptor changed underneath us (region freed, slot swapped by
    /// another mover, the lapsed host back in service) — nothing was moved
    /// and nothing needs to be.
    Gone,
    /// No eligible target server has the capacity.
    NoCapacity,
    /// A server call failed mid-protocol; everything was rolled back
    /// exactly (new extent freed, old one unsealed, accounting restored).
    Failed,
}

/// Handle to a running master.
#[derive(Clone)]
pub struct Master {
    dev: RdmaDevice,
    sim: Sim,
    cfg: Rc<MasterConfig>,
    state: Rc<RefCell<MState>>,
    stats: Rc<MasterStats>,
}

impl fmt::Debug for Master {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Master")
            .field("node", &self.dev.node())
            .field("servers", &st.servers.len())
            .field("regions", &st.regions.len())
            .finish()
    }
}

impl Master {
    /// Starts a master on `dev`, listening for control RPCs.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Rdma`] if the control service id is already taken on
    /// this device.
    pub fn spawn(dev: &RdmaDevice, cfg: MasterConfig) -> Result<Master> {
        let master = Master {
            dev: dev.clone(),
            sim: dev.sim().clone(),
            stats: Rc::new(MasterStats::resolve(&dev.metrics(), &dev.sim().recorder())),
            state: Rc::new(RefCell::new(MState {
                servers: BTreeMap::new(),
                regions: HashMap::new(),
                reserved: std::collections::HashSet::new(),
                synthetic: std::collections::HashSet::new(),
                corrupt: BTreeMap::new(),
                draining: BTreeSet::new(),
                busy_regions: std::collections::HashSet::new(),
                retired: BTreeMap::new(),
                rng: DetRng::new(cfg.seed),
                conns: HashMap::new(),
            })),
            cfg: Rc::new(cfg),
        };

        let m = master.clone();
        spawn_rpc_server(
            dev,
            CTRL_SERVICE,
            master.cfg.rpc_cpu,
            Rc::new(move |_peer, req| {
                let m = m.clone();
                Box::pin(async move {
                    match CtrlReq::decode(&req) {
                        Ok(req) => m.handle(req).await,
                        Err(e) => error_reply(e),
                    }
                })
            }),
        )?;

        // Liveness sweep.
        let m = master.clone();
        master.sim.spawn(async move {
            loop {
                m.sim.sleep(m.cfg.sweep_interval).await;
                let now = m.sim.now();
                let mut expired: Vec<u32> = Vec::new();
                {
                    let mut st = m.state.borrow_mut();
                    let lease = m.cfg.lease;
                    for (&n, info) in st.servers.iter_mut() {
                        if info.alive && now.saturating_since(info.last_hb) > lease {
                            info.alive = false;
                            expired.push(n);
                        }
                    }
                }
                // HashMap iteration order is unseeded; sort so era notes
                // are deterministic when several leases expire in one sweep.
                expired.sort_unstable();
                for n in expired {
                    m.stats.server_expired.fire(n as u64, 0);
                }
            }
        });

        // Repair task: re-replicate stripe groups stranded on dead servers.
        let m = master.clone();
        master.sim.spawn(async move {
            loop {
                m.sim.sleep(m.cfg.repair_interval).await;
                m.repair_sweep().await;
            }
        });

        // Rebalancer: migrate extents from the most- to the least-utilized
        // server while the utilization spread exceeds the hysteresis band.
        if master.cfg.rebalance {
            let m = master.clone();
            master.sim.spawn(async move {
                loop {
                    m.sim.sleep(m.cfg.rebalance_interval).await;
                    m.rebalance_sweep().await;
                }
            });
        }

        // Scrubber: periodically re-verify the checksum blocks of checksummed
        // regions with one-sided READs, marking mismatches for repair.
        if master.cfg.scrub {
            let m = master.clone();
            master.sim.spawn(async move {
                let mut scrub = Scrubber {
                    qps: DataQps::new(&m.dev),
                    buf: None,
                    bytes: Vec::new(),
                };
                loop {
                    m.sim.sleep(m.cfg.scrub_interval).await;
                    m.scrub_sweep(&mut scrub).await;
                    m.stats.scrub_passes.incr();
                }
            });
        }

        Ok(master)
    }

    /// The master's fabric node (what clients and servers dial).
    pub fn node(&self) -> NodeId {
        self.dev.node()
    }

    /// Number of servers currently considered alive.
    pub fn live_servers(&self) -> usize {
        let st = self.state.borrow();
        st.servers.values().filter(|s| s.alive).count()
    }

    /// Waits (in virtual time) until at least `n` servers have registered
    /// and are alive. Used when booting clusters.
    pub async fn wait_for_servers(&self, n: usize) {
        while self.live_servers() < n {
            self.sim.sleep(Duration::from_micros(100)).await;
        }
    }

    /// Drops `node` from the server registry, as if the master had restarted
    /// and lost its soft state. The server's next heartbeat is answered with
    /// an error, prompting it to re-register. A forgotten server has not
    /// lapsed: it is reachable and still serving, so an extent moved off it
    /// meanwhile is sealed like any live host's. Admin/test hook.
    pub fn forget_server(&self, node: NodeId) {
        let mut st = self.state.borrow_mut();
        st.servers.remove(&node.0);
        st.draining.remove(&node.0);
    }

    /// A local (non-RPC) snapshot of cluster statistics, including the
    /// accounting-invariant check: `consistent` is true iff every registered
    /// server's `used` counter equals the sum of extent allocation lengths
    /// the descriptors place on it.
    pub fn local_stats(&self) -> ClusterStats {
        let st = self.state.borrow();
        ClusterStats {
            servers: st.servers.values().filter(|s| s.alive).count() as u32,
            regions: st.regions.len() as u32,
            capacity: st.servers.values().map(|s| s.capacity).sum(),
            used: st.servers.values().map(|s| s.used).sum(),
            consistent: accounting_consistent(&st),
        }
    }

    /// Acquires the in-flight-move guard for `name`, or returns `None` if
    /// another mover (repair, drain, rebalance) already holds it.
    fn try_guard_region(&self, name: &str) -> Option<RegionGuard> {
        if self.state.borrow_mut().busy_regions.insert(name.to_owned()) {
            Some(RegionGuard {
                state: self.state.clone(),
                name: name.to_owned(),
            })
        } else {
            None
        }
    }

    /// A local (non-RPC) snapshot of the full introspection report — the
    /// same view [`Report`] returns over the wire: per-server
    /// capacity and liveness, per-region health (computed exactly like
    /// `Lookup`), and the corruption/repair counters at the current virtual
    /// time. Rows are ordered (node id, region name) so the report is
    /// deterministic.
    pub fn local_report(&self) -> ClusterReport {
        let st = self.state.borrow();
        let servers = st
            .servers
            .iter()
            .map(|(&node, s)| ServerStats {
                node,
                capacity: s.capacity,
                used: s.used,
                alive: s.alive,
            })
            .collect();
        let mut names: Vec<&String> = st.regions.keys().collect();
        names.sort();
        let regions = names
            .into_iter()
            .map(|name| RegionStats {
                name: name.clone(),
                size: st.regions[name].size,
                state: st.health(&st.regions[name]),
                corrupt_extents: st.corrupt.get(name).map_or(0, |s| s.len() as u32),
            })
            .collect();
        ClusterReport {
            servers,
            regions,
            corruption_detected: self.stats.detected.get(),
            repaired_extents: self.stats.repair_extents.get(),
            scrub_passes: self.stats.scrub_passes.get(),
        }
    }

    /// Serves one control request, answering with that request's reply.
    async fn handle(&self, req: CtrlReq) -> Vec<u8> {
        match req {
            CtrlReq::RegisterServer(req) => RegisterServer::encode_reply(Ok(self.register(req))),
            CtrlReq::Heartbeat(Heartbeat { node }) => Heartbeat::encode_reply(self.heartbeat(node)),
            CtrlReq::Alloc(Alloc { name, size, opts }) => {
                Alloc::encode_reply(self.alloc(name, size, opts).await)
            }
            CtrlReq::Lookup(Lookup { name }) => Lookup::encode_reply(self.lookup(name)),
            CtrlReq::Free(Free { name }) => Free::encode_reply(self.free(name).await),
            CtrlReq::Stat(_) => Stat::encode_reply(Ok(self.local_stats())),
            CtrlReq::Report(_) => Report::encode_reply(Ok(self.local_report())),
            CtrlReq::Grow(Grow {
                name,
                additional,
                opts,
            }) => Grow::encode_reply(self.grow(name, additional, opts).await),
            CtrlReq::ReportCorruption(req) => {
                ReportCorruption::encode_reply(self.report_corruption(req))
            }
            CtrlReq::Drain(Drain { node }) => Drain::encode_reply(self.drain(NodeId(node)).await),
        }
    }

    /// A memory server (re-)registers: the terms it serves under, with what
    /// it must free before it serves again.
    fn register(&self, RegisterServer { node, capacity }: RegisterServer) -> Registration {
        let now = self.sim.now();
        let mut st = self.state.borrow_mut();
        // A node whose row is missing (the master forgot it mid-flight, or
        // restarted) may still be referenced by live descriptors: `used` is
        // rebuilt from them, never restarted at zero, or the master would
        // over-allocate. A node that re-registers after a control blip keeps
        // its books.
        if !st.servers.contains_key(&node) {
            let info = ServerInfo {
                capacity,
                used: desc_usage(&st).get(&node).copied().unwrap_or(0),
                pending: 0,
                last_hb: now,
                alive: true,
            };
            st.servers.insert(node, info);
        }
        let info = st.servers.get_mut(&node).expect("present or just inserted");
        (info.capacity, info.last_hb, info.alive) = (capacity, now, true);
        let retire = st.retired.get_mut(&node).map_or(Vec::new(), |r| {
            r.handed = r.extents.len();
            r.extents.clone()
        });
        Registration {
            lease: self.cfg.lease,
            retire,
        }
    }

    /// A memory server's beat: renews its lease if it is a live server.
    fn heartbeat(&self, node: u32) -> Result<()> {
        let mut st = self.state.borrow_mut();
        match st.servers.get_mut(&node) {
            // A node declared dead may have had extents replaced under it:
            // it gets its lease back only by registering, which is where it
            // learns what to free first.
            Some(info) if !info.alive => Err(RStoreError::Remote(format!(
                "lease of server {node} expired"
            ))),
            Some(info) => {
                info.last_hb = self.sim.now();
                // It heartbeats, so it acted on its registration reply: what
                // that reply carried is settled.
                if let Some(r) = st.retired.get_mut(&node) {
                    r.extents.drain(..std::mem::take(&mut r.handed));
                }
                Ok(())
            }
            None => Err(RStoreError::Remote(format!("unknown server {node}"))),
        }
    }

    /// The descriptor of region `name`, with its health as of now.
    fn lookup(&self, name: String) -> Result<RegionDesc> {
        let st = self.state.borrow();
        let desc = st.regions.get(&name).ok_or(RStoreError::NotFound(name))?;
        Ok(RegionDesc {
            state: st.health(desc),
            ..desc.clone()
        })
    }

    /// Marks a replica a client found corrupt, if the report still matches
    /// the descriptor — the replica may already have been repaired and
    /// swapped out.
    fn report_corruption(&self, req: ReportCorruption) -> Result<()> {
        let ReportCorruption {
            name,
            group,
            replica,
            node,
        } = req;
        let mut st = self.state.borrow_mut();
        let Some(desc) = st.regions.get(&name) else {
            return Err(RStoreError::NotFound(name));
        };
        let matches = desc.checksums
            && desc
                .groups
                .get(group as usize)
                .and_then(|g| g.replicas.get(replica as usize))
                .is_some_and(|x| x.node == node);
        if matches
            && st
                .corrupt
                .entry(name)
                .or_default()
                .insert((group as usize, replica as usize))
        {
            self.mark_detected(group as u64, node as u64);
        }
        Ok(())
    }

    /// Records a newly discovered corrupt replica: one count per distinct
    /// `(region, group, replica)` mark, no matter how many reads or scrub
    /// passes rediscover it.
    fn mark_detected(&self, group: u64, node: u64) {
        self.stats.corrupt_mark.fire(node, group);
    }

    /// Computes the per-stripe replica placement and reserves capacity.
    /// `stripe_lens` are logical; with `ck` set, the checksum trailer is
    /// included in every capacity check and reservation.
    fn place(
        &self,
        stripe_lens: &[u64],
        replicas: usize,
        policy: Policy,
        ck: bool,
    ) -> Result<Vec<Vec<u32>>> {
        let mut st = self.state.borrow_mut();
        let alive: Vec<u32> = st
            .servers
            .iter()
            .filter(|(&n, s)| s.alive && !st.draining.contains(&n))
            .map(|(&n, _)| n)
            .collect();
        if alive.len() < replicas {
            return Err(RStoreError::NotEnoughServers {
                replicas,
                available: alive.len(),
            });
        }
        let mut planned: HashMap<u32, u64> = HashMap::new();
        let free = |st: &MState, planned: &HashMap<u32, u64>, n: u32| {
            let s = &st.servers[&n];
            (s.capacity - s.used)
                .saturating_sub(s.pending)
                .saturating_sub(planned.get(&n).copied().unwrap_or(0))
        };

        let mut placement = Vec::with_capacity(stripe_lens.len());
        for (i, &logical) in stripe_lens.iter().enumerate() {
            let len = extent_alloc_len(logical, ck);
            let mut chosen = Vec::with_capacity(replicas);
            match policy {
                Policy::RoundRobin => {
                    for j in 0..replicas {
                        let n = alive[(i + j) % alive.len()];
                        if free(&st, &planned, n) < len {
                            return Err(RStoreError::InsufficientCapacity {
                                requested: stripe_lens.iter().sum(),
                            });
                        }
                        chosen.push(n);
                    }
                }
                Policy::Random => {
                    let mut pool = alive.clone();
                    st.rng.shuffle(&mut pool);
                    for &n in pool.iter() {
                        if chosen.len() == replicas {
                            break;
                        }
                        if free(&st, &planned, n) >= len {
                            chosen.push(n);
                        }
                    }
                    if chosen.len() < replicas {
                        return Err(RStoreError::InsufficientCapacity {
                            requested: stripe_lens.iter().sum(),
                        });
                    }
                }
                Policy::CapacityWeighted => {
                    let mut pool = alive.clone();
                    pool.sort_by_key(|&n| std::cmp::Reverse(free(&st, &planned, n)));
                    for &n in pool.iter().take(replicas) {
                        if free(&st, &planned, n) < len {
                            return Err(RStoreError::InsufficientCapacity {
                                requested: stripe_lens.iter().sum(),
                            });
                        }
                        chosen.push(n);
                    }
                }
            }
            for &n in &chosen {
                *planned.entry(n).or_default() += len;
            }
            placement.push(chosen);
        }

        // Reserve the bytes as pending; they move to `used` in the same
        // borrow that publishes the extents into a descriptor.
        for (n, bytes) in planned {
            st.servers
                .get_mut(&n)
                .expect("placed on known server")
                .pending += bytes;
        }
        Ok(placement)
    }

    async fn alloc(&self, name: String, size: u64, opts: AllocOptions) -> Result<RegionDesc> {
        if size == 0 {
            return Err(RStoreError::Protocol("zero-sized region".into()));
        }
        if opts.stripe_size == 0 {
            return Err(RStoreError::Protocol("zero stripe size".into()));
        }
        if opts.replicas == 0 {
            return Err(RStoreError::Protocol("zero replicas".into()));
        }
        {
            let mut st = self.state.borrow_mut();
            if st.regions.contains_key(&name) || !st.reserved.insert(name.clone()) {
                return Err(RStoreError::NameExists(name));
            }
        }
        let synthetic = opts.synthetic;
        let result = self.alloc_inner(&name, size, opts).await;
        let mut st = self.state.borrow_mut();
        st.reserved.remove(&name);
        match result {
            Ok(desc) => {
                if synthetic {
                    st.synthetic.insert(name.clone());
                }
                // Publish and commit atomically: the extents enter the
                // namespace in the same borrow their reservation moves from
                // `pending` to `used`.
                commit_groups(&mut st, &desc.groups, desc.checksums);
                st.regions.insert(name, desc.clone());
                Ok(desc)
            }
            Err(e) => Err(e),
        }
    }

    async fn alloc_inner(&self, name: &str, size: u64, opts: AllocOptions) -> Result<RegionDesc> {
        let stripe_lens = stripe_lengths(size, opts.stripe_size);
        let groups = self.allocate_groups(&stripe_lens, opts).await?;
        Ok(RegionDesc {
            name: name.to_owned(),
            size,
            stripe_size: opts.stripe_size,
            groups,
            state: RegionState::Healthy,
            // Synthetic regions carry no bytes, hence nothing to checksum.
            checksums: opts.checksums && !opts.synthetic,
        })
    }

    /// Extends an existing region by `additional` bytes: new stripes are
    /// placed and allocated like an alloc, then appended to the descriptor.
    /// Existing descriptors held by clients stay valid for the old range.
    async fn grow(&self, name: String, additional: u64, opts: AllocOptions) -> Result<RegionDesc> {
        if additional == 0 {
            return Err(RStoreError::Protocol("zero-sized grow".into()));
        }
        let (stripe_size, checksums) = {
            let mut st = self.state.borrow_mut();
            let Some(d) = st.regions.get(&name) else {
                return Err(RStoreError::NotFound(name));
            };
            let inherited = (d.stripe_size, d.checksums);
            // Hold the name for the duration of the grow (like `alloc`
            // does) so a concurrent free + alloc cannot recycle it while we
            // await the servers, and a concurrent grow cannot interleave.
            if !st.reserved.insert(name.clone()) {
                return Err(RStoreError::NameExists(name));
            }
            inherited
        };
        // New stripes inherit the region's stripe size and checksum mode so
        // the descriptor stays uniform.
        let opts = AllocOptions {
            stripe_size,
            checksums,
            ..opts
        };
        let stripe_lens = stripe_lengths(additional, stripe_size);
        let groups = match self.allocate_groups(&stripe_lens, opts).await {
            Ok(g) => g,
            Err(e) => {
                self.state.borrow_mut().reserved.remove(&name);
                return Err(e);
            }
        };
        let committed = {
            let mut st = self.state.borrow_mut();
            st.reserved.remove(&name);
            match st.regions.get_mut(&name) {
                Some(desc) => {
                    desc.groups.extend(groups.iter().cloned());
                    desc.size += additional;
                    let desc = desc.clone();
                    commit_groups(&mut st, &groups, checksums);
                    Some(desc)
                }
                None => None,
            }
        };
        match committed {
            Some(desc) => Ok(desc),
            // The region was freed while we were allocating: roll back the
            // fresh extents and their capacity reservation (still pending —
            // they never made it into a descriptor).
            None => {
                self.release_groups(&groups, checksums, true).await;
                Err(RStoreError::NotFound(name))
            }
        }
    }

    /// Places and allocates one extent group per stripe length, rolling the
    /// whole batch back on any failure.
    async fn allocate_groups(
        &self,
        stripe_lens: &[u64],
        opts: AllocOptions,
    ) -> Result<Vec<StripeGroup>> {
        let ck = opts.checksums && !opts.synthetic;
        let placement = self.place(stripe_lens, opts.replicas as usize, opts.policy, ck)?;

        // Group requests per (server, extent length).
        let mut wanted: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        for (i, servers) in placement.iter().enumerate() {
            for &n in servers {
                *wanted.entry((n, stripe_lens[i])).or_default() += 1;
            }
        }

        // Ask each server for its extents; on failure, roll everything back.
        let mut granted: HashMap<(u32, u64), Vec<Extent>> = HashMap::new();
        let asked = async {
            for (&(node, len), &count) in &wanted {
                let alloc = AllocExtents {
                    count,
                    len,
                    synthetic: opts.synthetic,
                    checksums: ck,
                };
                let extents = self.server_call(node, alloc).await?;
                let extent = |(addr, rkey, elen)| Extent {
                    node,
                    addr,
                    rkey,
                    len: elen,
                };
                granted.insert((node, len), extents.into_iter().map(extent).collect());
            }
            Ok(())
        };
        if let Err(e) = asked.await {
            // Roll back the pending reservation first (sync, one borrow),
            // then free granted extents best-effort.
            {
                let mut st = self.state.borrow_mut();
                for (i, servers) in placement.iter().enumerate() {
                    for &n in servers {
                        if let Some(info) = st.servers.get_mut(&n) {
                            info.pending = info
                                .pending
                                .saturating_sub(extent_alloc_len(stripe_lens[i], ck));
                        }
                    }
                }
            }
            for ((node, _len), extents) in granted {
                self.retire(node, &extents, ck).await;
            }
            return Err(e);
        }

        // Assemble stripe groups in logical order.
        let mut groups = Vec::with_capacity(stripe_lens.len());
        for (i, servers) in placement.iter().enumerate() {
            let mut replicas_v = Vec::with_capacity(servers.len());
            for &n in servers {
                let pool = granted
                    .get_mut(&(n, stripe_lens[i]))
                    .expect("granted for every placed stripe");
                replicas_v.push(pool.pop().expect("count matched"));
            }
            groups.push(StripeGroup {
                replicas: replicas_v,
            });
        }
        Ok(groups)
    }

    async fn free(&self, name: String) -> Result<()> {
        let desc = {
            let mut st = self.state.borrow_mut();
            let desc = st
                .regions
                .remove(&name)
                .ok_or(RStoreError::NotFound(name.clone()))?;
            st.synthetic.remove(&name);
            st.corrupt.remove(&name);
            desc
        };
        self.release_groups(&desc.groups, desc.checksums, false)
            .await;
        Ok(())
    }

    /// Frees the extents of `groups` on their servers and returns the
    /// reserved capacity to the accounting. A server that cannot be told now
    /// — no current lease, or the call failed — is told when it next
    /// registers ([`MState::retired`]). `ck` selects the physical
    /// (trailer-inclusive) extent length. `from_pending` picks which counter
    /// the bytes come back from: `pending` for extents that never reached a
    /// descriptor (grow rollback), `used` for published ones (free). The
    /// accounting is returned synchronously in one borrow — before any RPC —
    /// so the invariant holds at every await point.
    async fn release_groups(&self, groups: &[StripeGroup], ck: bool, from_pending: bool) {
        let mut per_server: BTreeMap<u32, Vec<Extent>> = BTreeMap::new();
        for x in groups.iter().flat_map(|g| &g.replicas) {
            per_server.entry(x.node).or_default().push(*x);
        }
        {
            let mut st = self.state.borrow_mut();
            for (&node, extents) in &per_server {
                let bytes: u64 = extents.iter().map(|x| extent_alloc_len(x.len, ck)).sum();
                if let Some(info) = st.servers.get_mut(&node) {
                    if from_pending {
                        info.pending = info.pending.saturating_sub(bytes);
                    } else {
                        info.used = info.used.saturating_sub(bytes);
                    }
                }
            }
        }
        for (node, extents) in per_server {
            self.retire(node, &extents, ck).await;
        }
    }

    /// Hands extents no descriptor refers to back to their server `node`:
    /// freed now if it holds a lease and answers, otherwise remembered for
    /// its next registration reply.
    async fn retire(&self, node: u32, extents: &[Extent], ck: bool) {
        let free = FreeExtents {
            extents: extents
                .iter()
                .map(|x| (x.addr, extent_alloc_len(x.len, ck)))
                .collect(),
        };
        let reachable = self.state.borrow().lapsed_since(node).is_none();
        if !(reachable && self.server_call(node, free).await.is_ok()) {
            let mut st = self.state.borrow_mut();
            let list = &mut st.retired.entry(node).or_default().extents;
            list.extend(extents.iter().map(|x| (x.addr, x.rkey)));
        }
    }

    /// One pass of the repair task: find regions with replicas stranded on
    /// dead servers — or marked corrupt — and re-replicate them onto live
    /// ones.
    async fn repair_sweep(&self) {
        let mut names: Vec<String> = {
            let st = self.state.borrow();
            let bad = st.extents(|name, gi, ri, x| !st.alive(x.node) || st.marked(name, gi, ri));
            bad.map(|(name, ..)| name.to_owned()).collect()
        };
        names.dedup();
        for name in names {
            self.repair_region(&name).await;
        }
    }

    /// Re-replicates every stripe group of `name` that has replicas on dead
    /// servers or marked corrupt, copying from a surviving intact replica.
    /// Groups with no live intact replica are unrecoverable and left
    /// degraded; unreplicated regions therefore stay `Degraded`.
    async fn repair_region(&self, name: &str) {
        // One mover per region: if a drain or rebalance is mid-migration
        // here, skip — the next sweep revisits.
        let Some(_guard) = self.try_guard_region(name) else {
            return;
        };
        let groups = {
            let st = self.state.borrow();
            st.regions.get(name).map_or(0, |d| d.groups.len())
        };
        let span = self.stats.repair.span(self.dev.node().0 as u64, 0);
        let mut repaired = 0u64;
        for gi in 0..groups {
            // A replica is usable as-is only if its server is alive AND it
            // has not been marked corrupt; both kinds need re-replication,
            // and a corrupt replica must never serve as the copy source.
            let (bad, src) = {
                let st = self.state.borrow();
                let Some(group) = st.regions.get(name).and_then(|d| d.groups.get(gi)) else {
                    break;
                };
                let replicas = group.replicas.iter().copied().enumerate();
                let (bad, intact): (Vec<_>, Vec<_>) =
                    replicas.partition(|(ri, x)| !st.alive(x.node) || st.marked(name, gi, *ri));
                (bad, intact.first().map(|&(_, x)| x))
            };
            let Some(src) = src else {
                continue;
            };
            let mut group_fully_repaired = !bad.is_empty();
            for (ri, old) in bad {
                match self.move_extent(name, gi, ri, old, src, None).await {
                    MoveOutcome::Moved(_) => repaired += 1,
                    _ => group_fully_repaired = false,
                }
            }
            // A replacement holds a copy pulled from `src` while the region
            // was degraded: writes issued under a degraded mapping (and
            // per-slot lock words CASed by writers mid-episode) landed on
            // the survivors only. Promote the copy source to replica 0 — the
            // read/CAS primary — so clients keep seeing the authoritative
            // image. Skipped while any replica of the group is still bad:
            // corruption marks are keyed by replica index and must stay
            // valid.
            if group_fully_repaired {
                let mut st = self.state.borrow_mut();
                let marked = st
                    .corrupt
                    .get(name)
                    .is_some_and(|marks| marks.iter().any(|&(g, _)| g == gi));
                if !marked {
                    if let Some(g) = st.regions.get_mut(name).and_then(|d| d.groups.get_mut(gi)) {
                        if let Some(pos) = g.replicas.iter().position(|x| *x == src) {
                            g.replicas.swap(0, pos);
                        }
                    }
                }
            }
        }
        if repaired > 0 {
            self.stats.repaired.fire(0, repaired);
        }
        span.end();
    }

    /// The one extent-move protocol, behind repair, drain and rebalance
    /// alike: replica `ri` of group `gi` of region `name` leaves `old` for
    /// the best eligible server, **reserve → alloc → fence → copy → swap →
    /// retire**. `src` is what gets copied: `old` itself for a planned move,
    /// an intact survivor when `old` is dead or corrupt.
    ///
    /// `old` is made unwritable *before* the copy and stays so: a write needs
    /// every replica, so a client still holding the old descriptor bounces
    /// off it with `RemoteAccess`, revalidates, and retries onto the new
    /// replica set — nothing can be acknowledged on extents about to leave
    /// the descriptor. A host that answers is sealed read-only (same rkey, so
    /// readers and the copy keep working). The seal is skipped only for a
    /// host whose lease the master has itself seen lapse: that server
    /// revoked all remote access on its own before the master could notice
    /// (`server.rs`), and the swap is refused if it re-registered meanwhile.
    ///
    /// Any failure rolls back exactly: the replacement is freed, `old`
    /// unsealed if this call sealed it, the reservation returned. The caller
    /// holds the region's [`RegionGuard`]. `charge` is the event a
    /// planned move fires; repair (`None`) counts per region.
    async fn move_extent(
        &self,
        name: &str,
        gi: usize,
        ri: usize,
        old: Extent,
        src: Extent,
        charge: Option<&Event>,
    ) -> MoveOutcome {
        // Pick the live, non-draining server with the most free capacity
        // that does not already host a replica of this group, and reserve.
        let (target, ck, alloc, lapsed) = {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            let Some(desc) = st.regions.get(name) else {
                return MoveOutcome::Gone;
            };
            let hosts: Vec<u32> = match desc.groups.get(gi) {
                Some(g) if g.replicas.get(ri) == Some(&old) => {
                    g.replicas.iter().map(|x| x.node).collect()
                }
                _ => return MoveOutcome::Gone,
            };
            // Corrupt replicas are the repair task's to rebuild (it copies
            // from an intact source); migrating one would spread bad bytes.
            if src == old && st.marked(name, gi, ri) {
                return MoveOutcome::Gone;
            }
            let phys = extent_alloc_len(old.len, desc.checksums);
            let eligible = st
                .servers
                .iter()
                .filter(|(n, info)| info.alive && !hosts.contains(n) && !st.draining.contains(n));
            let roomiest = eligible
                .map(|(&n, info)| (info.capacity.saturating_sub(info.used + info.pending), n))
                .filter(|&(free, _)| free >= phys)
                .max_by_key(|&(free, n)| (free, Reverse(n)));
            let Some((_, target)) = roomiest else {
                return MoveOutcome::NoCapacity;
            };
            let alloc = AllocExtents {
                count: 1,
                len: old.len,
                synthetic: st.synthetic.contains(name),
                checksums: desc.checksums,
            };
            st.servers.get_mut(&target).expect("alive server").pending += phys;
            (target, desc.checksums, alloc, st.lapsed_since(old.node))
        };
        let phys = extent_alloc_len(old.len, ck);
        let unreserve = || {
            if let Some(info) = self.state.borrow_mut().servers.get_mut(&target) {
                info.pending = info.pending.saturating_sub(phys);
            }
        };
        let Ok(&[(addr, rkey, len)]) = self.server_call(target, alloc).await.as_deref() else {
            unreserve();
            return MoveOutcome::Failed;
        };
        let new = Extent {
            node: target,
            addr,
            rkey,
            len,
        };
        let set_writable = |writable: bool| {
            let rkey = old.rkey;
            self.server_call(old.node, SetAccess { rkey, writable })
        };
        let mut sealed = false;
        let failed = 'protocol: {
            // From here until the swap (or the rollback), writers to `old`
            // bounce.
            if lapsed.is_none() {
                if set_writable(false).await.is_err() {
                    break 'protocol Some(MoveOutcome::Failed);
                }
                sealed = true;
                self.stats.extent_sealed.fire(old.node as u64, 0);
            }
            // Point-in-time copy over the data path: the target pulls the
            // stripe (trailer included — it must travel with the data) with
            // a one-sided READ; the master only orchestrates.
            let copy = Replicate {
                src_node: src.node,
                src_addr: src.addr,
                src_rkey: src.rkey,
                dst_addr: new.addr,
                len: phys,
            };
            if self.server_call(target, copy).await.is_err() {
                break 'protocol Some(MoveOutcome::Failed);
            }
            // Atomic descriptor swap, guarded against the region changing
            // underneath — and, for an unsealed `old`, against its host
            // having been back in service since — with the accounting and
            // the corruption mark moved in the same borrow.
            let mut st = self.state.borrow_mut();
            let fenced = sealed || st.lapsed_since(old.node) == lapsed;
            let slot = st.regions.get_mut(name).and_then(|d| d.groups.get_mut(gi));
            match slot.and_then(|g| g.replicas.get_mut(ri)) {
                Some(slot) if *slot == old && fenced => *slot = new,
                _ => break 'protocol Some(MoveOutcome::Gone),
            }
            if src != old {
                // The slot no longer refers to the bad extent.
                if let Some(marks) = st.corrupt.get_mut(name) {
                    marks.remove(&(gi, ri));
                }
            }
            if let Some(info) = st.servers.get_mut(&target) {
                info.pending = info.pending.saturating_sub(phys);
                info.used += phys;
            }
            if let Some(info) = st.servers.get_mut(&old.node) {
                info.used = info.used.saturating_sub(phys);
            }
            None
        };
        if let Some(outcome) = failed {
            if sealed {
                self.stats.extent_unsealed.fire(old.node as u64, 0);
                let _ = set_writable(true).await;
            }
            self.retire(target, &[new], ck).await;
            unreserve();
            return outcome;
        }
        // Retire `old`: dropping its MR makes stale cached descriptors fault
        // `RemoteAccess` and revalidate. A lapsed host frees it when it next
        // registers, before it serves anything again.
        self.retire(old.node, &[old], ck).await;
        match charge {
            Some(charge) => charge.fire(old.node as u64, phys),
            None => self.stats.repair_extent.fire(old.node as u64, old.len),
        }
        MoveOutcome::Moved(phys)
    }

    /// Gracefully drains `node`: migrates every extent it hosts onto other
    /// servers and leaves it registered but permanently excluded from
    /// placement, so a subsequent [`forget_server`](Master::forget_server)
    /// (or shutdown) loses no data. Returns `(extents, bytes)` moved.
    ///
    /// # Errors
    ///
    /// * [`RStoreError::InsufficientCapacity`] — the remaining servers
    ///   cannot absorb the node's data; the drain mark is cleared and the
    ///   node resumes normal service (extents already moved stay moved).
    /// * [`RStoreError::Remote`] — unknown/duplicate drain, or the drain
    ///   stalled (e.g. unmovable corrupt extents with repair disabled).
    ///   Never hangs: progress is re-checked each pass with a bounded stall
    ///   count.
    pub async fn drain(&self, node: NodeId) -> Result<(u64, u64)> {
        let node = node.0;
        {
            let mut st = self.state.borrow_mut();
            if !st.servers.contains_key(&node) {
                return Err(RStoreError::Remote(format!("unknown server {node}")));
            }
            if !st.draining.insert(node) {
                return Err(RStoreError::Remote(format!(
                    "server {node} is already draining"
                )));
            }
        }
        let span = self.stats.drain_span.span(node as u64, 0);
        let result = self.drain_inner(node).await;
        if result.is_err() {
            // Failed drains put the node back into normal service; a
            // successful drain keeps the mark so the empty node never
            // receives new placements.
            self.state.borrow_mut().draining.remove(&node);
        }
        span.end();
        result
    }

    async fn drain_inner(&self, node: u32) -> Result<(u64, u64)> {
        let mut extents_moved = 0u64;
        let mut bytes_moved = 0u64;
        let mut stalls = 0u32;
        let remaining = || {
            let st = self.state.borrow();
            desc_usage(&st).get(&node).copied().unwrap_or(0)
        };
        loop {
            // Everything movable the node hosts (corrupt replicas are the
            // repair task's), region by region.
            let hosted: Vec<(String, usize, usize, Extent)> = {
                let st = self.state.borrow();
                st.extents(|name, gi, ri, x| x.node == node && !st.marked(name, gi, ri))
                    .map(|(name, gi, ri, x)| (name.to_owned(), gi, ri, x))
                    .collect()
            };
            let mut progressed = false;
            for region in hosted.chunk_by(|a, b| a.0 == b.0) {
                let Some(_guard) = self.try_guard_region(&region[0].0) else {
                    continue; // another mover owns it; next pass revisits
                };
                for &(ref name, gi, ri, old) in region {
                    let charge = Some(&self.stats.drain);
                    match self.move_extent(name, gi, ri, old, old, charge).await {
                        MoveOutcome::Moved(b) => {
                            extents_moved += 1;
                            bytes_moved += b;
                            progressed = true;
                        }
                        MoveOutcome::NoCapacity => {
                            return Err(RStoreError::InsufficientCapacity {
                                requested: remaining(),
                            });
                        }
                        // Re-scan next pass.
                        MoveOutcome::Gone | MoveOutcome::Failed => break,
                    }
                }
            }
            let remaining = remaining();
            if remaining == 0 {
                break;
            }
            if progressed {
                stalls = 0;
            } else {
                stalls += 1;
                if stalls >= 3 {
                    return Err(RStoreError::Remote(format!(
                        "drain of server {node} stalled with {remaining} bytes unmovable"
                    )));
                }
            }
            // Give the repair task a beat to clear corrupt extents (their
            // replacements land off the draining node) and busy regions a
            // chance to quiesce.
            self.sim.sleep(self.cfg.repair_interval).await;
        }
        Ok((extents_moved, bytes_moved))
    }

    /// One rebalancer pass: while the utilization spread across live,
    /// non-draining servers exceeds the hysteresis band and the sweep's
    /// bytes-moved budget remains, migrate one extent at a time off the
    /// most-loaded server. Utilization is `(used + pending) / capacity`;
    /// ties on utilization are broken toward the server whose fabric link
    /// has been busier (`fabric.link<N>.{tx,rx}_busy_ns` gauges).
    async fn rebalance_sweep(&self) {
        let link_busy = |n: u32| {
            let (tx, rx) = self.dev.fabric().link_busy_ns(NodeId(n));
            tx + rx
        };
        let mut moved = 0u64;
        while moved < REBALANCE_BUDGET {
            // Hottest eligible server, by (utilization, link busy).
            let src = {
                let st = self.state.borrow();
                let mut lo: Option<f64> = None;
                let mut hi: Option<(f64, u64, u32)> = None;
                for (&n, info) in &st.servers {
                    if !info.alive || st.draining.contains(&n) || info.capacity == 0 {
                        continue;
                    }
                    let util = (info.used + info.pending) as f64 / info.capacity as f64;
                    if lo.is_none_or(|l| util < l) {
                        lo = Some(util);
                    }
                    let busy = link_busy(n);
                    if hi.is_none_or(|(hu, hb, _)| util > hu || (util == hu && busy > hb)) {
                        hi = Some((util, busy, n));
                    }
                }
                match (lo, hi) {
                    (Some(lo), Some((hu, _, n))) if hu - lo > self.cfg.rebalance_spread => n,
                    _ => break, // inside the hysteresis band: nothing to do
                }
            };
            // First movable extent on the hot server, skipping busy regions
            // and corrupt replicas.
            let found = {
                let st = self.state.borrow();
                let movable = |name: &str, gi, ri, x: &Extent| {
                    x.node == src && !st.busy_regions.contains(name) && !st.marked(name, gi, ri)
                };
                let first = st.extents(movable).next();
                first.map(|(name, gi, ri, x)| (name.to_owned(), gi, ri, x))
            };
            let Some((name, gi, ri, old)) = found else {
                break;
            };
            let Some(_guard) = self.try_guard_region(&name) else {
                break;
            };
            let charge = Some(&self.stats.rebalance);
            match self.move_extent(&name, gi, ri, old, old, charge).await {
                MoveOutcome::Moved(b) => moved += b,
                MoveOutcome::Gone => continue,
                MoveOutcome::NoCapacity | MoveOutcome::Failed => break,
            }
        }
    }

    /// One scrubber pass: re-verify the checksum blocks of every replica of
    /// every checksummed region with one-sided READs. Reads are sequential
    /// (one outstanding at a time) — the scrubber is a background sweeper,
    /// not a throughput path. IO errors are ignored: liveness is the lease
    /// sweep's job, and the extent will be revisited next pass.
    async fn scrub_sweep(&self, scrub: &mut Scrubber) {
        // Region iteration is sorted so scrub order (and every trace) is
        // identical across runs.
        let mut names: Vec<String> = {
            let st = self.state.borrow();
            st.regions
                .iter()
                .filter(|(_, d)| d.checksums)
                .map(|(n, _)| n.clone())
                .collect()
        };
        names.sort();
        for name in names {
            let groups = {
                let st = self.state.borrow();
                match st.regions.get(&name) {
                    Some(d) => d.groups.clone(),
                    None => continue,
                }
            };
            for (gi, group) in groups.iter().enumerate() {
                for (ri, extent) in group.replicas.iter().enumerate() {
                    self.scrub_extent(scrub, &name, gi, ri, extent).await;
                }
            }
        }
        // The landing buffer lives for one sweep; the host scratch is kept.
        if let Some(buf) = scrub.buf.take() {
            let _ = self.dev.free(buf);
        }
    }

    /// Verifies every checksum block of one replica against its trailer
    /// entry (`crc::verify_blocks`). A mismatch is re-checked once after a
    /// short delay — a writer's WR carries the blocks and their entries as
    /// two elements, which land as separate WRITEs, so a single torn
    /// observation is not proof of corruption — and only a persistent
    /// mismatch marks the replica corrupt for the repair task.
    async fn scrub_extent(
        &self,
        scrub: &mut Scrubber,
        name: &str,
        gi: usize,
        ri: usize,
        extent: &Extent,
    ) {
        {
            let st = self.state.borrow();
            if !st.alive(extent.node) || st.marked(name, gi, ri) {
                return;
            }
        }
        let phys = extent_alloc_len(extent.len, true);
        // One landing buffer per sweep, grown to the largest extent it meets.
        if scrub.buf.is_none_or(|b| b.len < phys) {
            if let Some(small) = scrub.buf.take() {
                let _ = self.dev.free(small);
            }
            scrub.buf = self.dev.alloc(phys).ok();
        }
        let Some(buf) = scrub.buf.map(|b| b.slice(0, phys)) else {
            return;
        };
        scrub.bytes.resize(phys as usize, 0);
        let remote = RemoteAddr {
            addr: extent.addr,
            rkey: RKey(extent.rkey),
        };
        let mut bad = false;
        for attempt in 0..2 {
            if scrub.qps.dial(extent.node, true).await.is_err() {
                break;
            }
            let Ok(done) = scrub.qps.post(extent.node, Wr::read(0, buf, remote), phys) else {
                break;
            };
            if done.await != Some(CqStatus::Success)
                || self.dev.read_mem_into(buf.addr, &mut scrub.bytes).is_err()
            {
                break;
            }
            let (data, trailer) = scrub.bytes.split_at(extent.len as usize);
            bad = verify_blocks(data, trailer).is_some();
            if !bad {
                break;
            }
            if attempt == 0 {
                self.sim.sleep(Duration::from_micros(500)).await;
            }
        }
        if bad {
            let newly = {
                let mut st = self.state.borrow_mut();
                // Guard against the region changing while we were reading.
                let still = st
                    .regions
                    .get(name)
                    .and_then(|d| d.groups.get(gi))
                    .and_then(|g| g.replicas.get(ri))
                    == Some(extent);
                still
                    && st
                        .corrupt
                        .entry(name.to_owned())
                        .or_default()
                        .insert((gi, ri))
            };
            if newly {
                self.stats.scrub_mismatch.incr();
                self.mark_detected(gi as u64, extent.node as u64);
            }
        }
    }

    /// RPC to memory server `node` through its [`Channel`].
    async fn server_call<Q: Request>(&self, node: u32, req: Q) -> Result<Q::Reply> {
        let channel = {
            let mut st = self.state.borrow_mut();
            let fresh = || {
                let timeout = self.cfg.srv_response_timeout;
                Rc::new(Channel::new(&self.dev, NodeId(node), SRV_SERVICE, timeout))
            };
            st.conns.entry(node).or_insert_with(fresh).clone()
        };
        channel.call(&req).await
    }
}

/// What the scrubber task keeps between sweeps: its data-QP dialer, the
/// landing buffer of the sweep in progress and the host scratch extents are
/// verified in.
struct Scrubber {
    qps: Rc<DataQps>,
    buf: Option<DmaBuf>,
    bytes: Vec<u8>,
}

/// Per-node sum of physical extent allocation lengths over every region
/// descriptor: the ground truth the `used` counters must mirror.
fn desc_usage(st: &MState) -> BTreeMap<u32, u64> {
    let mut usage: BTreeMap<u32, u64> = BTreeMap::new();
    for desc in st.regions.values() {
        for x in desc.groups.iter().flat_map(|g| &g.replicas) {
            *usage.entry(x.node).or_default() += extent_alloc_len(x.len, desc.checksums);
        }
    }
    usage
}

/// The capacity-accounting invariant: every registered server's `used`
/// equals what the descriptors place on it. Extents referencing servers the
/// master has forgotten are excluded — that is the known master-restart
/// window, healed by re-registration or repair.
fn accounting_consistent(st: &MState) -> bool {
    let usage = desc_usage(st);
    st.servers
        .iter()
        .all(|(n, info)| info.used == usage.get(n).copied().unwrap_or(0))
}

/// Moves the capacity reservation of freshly allocated `groups` from
/// `pending` to `used`. Must be called in the same borrow that publishes the
/// extents into a descriptor, so the invariant holds at every await point.
fn commit_groups(st: &mut MState, groups: &[StripeGroup], ck: bool) {
    for x in groups.iter().flat_map(|g| &g.replicas) {
        let phys = extent_alloc_len(x.len, ck);
        if let Some(info) = st.servers.get_mut(&x.node) {
            info.pending = info.pending.saturating_sub(phys);
            info.used += phys;
        }
    }
}

/// Stripe lengths for `size` bytes at `stripe_size`: full stripes plus a
/// trailing partial.
fn stripe_lengths(size: u64, stripe_size: u64) -> Vec<u64> {
    let full = size / stripe_size;
    let tail = size % stripe_size;
    let mut lens = vec![stripe_size; full as usize];
    if tail > 0 {
        lens.push(tail);
    }
    lens
}
