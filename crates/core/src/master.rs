//! The RStore master: the control-path coordinator.
//!
//! The master owns the namespace (region name → descriptor), the registry of
//! memory servers (capacity, liveness via heartbeat leases), and placement.
//! It is involved in **setup only**: once a client holds a region
//! descriptor, reads and writes never touch the master — that is the
//! "separation philosophy extended to a distributed setting" of the paper.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::{CompletionQueue, CqStatus, Qp, RKey, RdmaDevice, RemoteAddr};
use sim::sync::Semaphore;
use sim::{DetRng, Sim, SimTime};

use crate::crc::crc32c;
use crate::error::{RStoreError, Result};
use crate::proto::{
    extent_alloc_len, AllocOptions, ClusterReport, ClusterStats, CtrlReq, CtrlResp, Extent, Policy,
    RegionDesc, RegionState, RegionStats, ServerStats, SrvReq, SrvResp, StripeGroup,
};
use crate::rpc::{spawn_rpc_server, RpcClient};
use crate::stats::{MasterStats, MoveStats};
use crate::{CTRL_SERVICE, SRV_SERVICE};

/// Master configuration.
#[derive(Clone, Debug)]
pub struct MasterConfig {
    /// A server missing heartbeats for this long is declared dead.
    pub lease: Duration,
    /// How often the liveness sweep runs.
    pub sweep_interval: Duration,
    /// CPU cost per control RPC at the master.
    pub rpc_cpu: Duration,
    /// Seed for randomized placement.
    pub seed: u64,
    /// Whether the background repair task runs, re-replicating stripe
    /// groups whose replicas sit on dead servers.
    pub repair: bool,
    /// How often the repair task scans for degraded regions.
    pub repair_interval: Duration,
    /// Whether the background scrubber runs, re-verifying stripe checksums
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
    /// Bytes-moved budget per rebalance sweep: a sweep stops migrating once
    /// it has moved this many physical bytes, resuming next interval. Bounds
    /// the data-path interference of any single sweep.
    pub rebalance_budget: u64,
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
            repair: true,
            repair_interval: Duration::from_millis(500),
            scrub: true,
            scrub_interval: Duration::from_millis(500),
            rebalance: false,
            rebalance_interval: Duration::from_millis(500),
            rebalance_spread: 0.15,
            rebalance_budget: 64 << 20,
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

struct ConnSlot {
    sem: Semaphore,
    conn: RefCell<Option<RpcClient>>,
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
    rng: DetRng,
    conns: HashMap<u32, Rc<ConnSlot>>,
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

/// Result of one planned extent migration attempt.
enum MigrateOutcome {
    /// Copied, swapped, and freed: the extent now lives elsewhere. Carries
    /// the physical bytes moved.
    Moved(u64),
    /// The descriptor changed underneath us (region freed, slot swapped by
    /// another mover) — nothing was migrated and nothing needs to be.
    Gone,
    /// No eligible target server has the capacity.
    NoCapacity,
    /// A server call failed mid-protocol; everything was rolled back
    /// exactly (new extent freed, source unsealed, accounting restored).
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
            stats: Rc::new(MasterStats::resolve(&dev.metrics())),
            state: Rc::new(RefCell::new(MState {
                servers: BTreeMap::new(),
                regions: HashMap::new(),
                reserved: std::collections::HashSet::new(),
                synthetic: std::collections::HashSet::new(),
                corrupt: BTreeMap::new(),
                draining: BTreeSet::new(),
                busy_regions: std::collections::HashSet::new(),
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
                Box::pin(async move { m.handle(req).await.encode() })
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
                    m.sim.forensics().note("lease", "server_expired", n as u64);
                }
            }
        });

        // Repair task: re-replicate stripe groups stranded on dead servers.
        if master.cfg.repair {
            let m = master.clone();
            master.sim.spawn(async move {
                loop {
                    m.sim.sleep(m.cfg.repair_interval).await;
                    m.repair_sweep().await;
                }
            });
        }

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

        // Scrubber: periodically re-verify stripe checksums of checksummed
        // regions with one-sided READs, marking mismatches for repair.
        if master.cfg.scrub {
            let m = master.clone();
            master.sim.spawn(async move {
                let cq = CompletionQueue::new();
                let mut conns: HashMap<u32, Qp> = HashMap::new();
                let mut next_wr = 1u64;
                loop {
                    m.sim.sleep(m.cfg.scrub_interval).await;
                    m.scrub_sweep(&cq, &mut conns, &mut next_wr).await;
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
        self.state
            .borrow()
            .servers
            .values()
            .filter(|s| s.alive)
            .count()
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
    /// an error, prompting it to re-register. Admin/test hook.
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
    /// same view [`CtrlReq::ClusterStats`] returns over the wire: per-server
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
            .map(|name| {
                let desc = &st.regions[name];
                let all_alive = desc
                    .groups
                    .iter()
                    .flat_map(|g| &g.replicas)
                    .all(|x| st.servers.get(&x.node).is_some_and(|s| s.alive));
                let corrupt = st.corrupt.get(name).map_or(0, |s| s.len() as u32);
                RegionStats {
                    name: name.clone(),
                    size: desc.size,
                    state: if all_alive && corrupt == 0 {
                        RegionState::Healthy
                    } else {
                        RegionState::Degraded
                    },
                    corrupt_extents: corrupt,
                }
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

    async fn handle(&self, req: Vec<u8>) -> CtrlResp {
        let req = match CtrlReq::decode(&req) {
            Ok(r) => r,
            Err(e) => return CtrlResp::Err(e.to_string()),
        };
        match req {
            CtrlReq::RegisterServer { node, capacity } => {
                let now = self.sim.now();
                let mut st = self.state.borrow_mut();
                match st.servers.get_mut(&node) {
                    // A re-register after a control-connection blip must not
                    // reset `used`: the server's extents are still referenced
                    // by live regions, and zeroing the accounting would let
                    // the master over-allocate.
                    Some(info) => {
                        info.capacity = capacity;
                        info.last_hb = now;
                        info.alive = true;
                    }
                    None => {
                        // An unknown node may still be referenced by live
                        // descriptors (the master forgot it mid-flight, or
                        // restarted): rebuild `used` from the descriptors
                        // instead of assuming zero, or the books would
                        // double-count every extent the repair task touches
                        // afterwards and the master would over-allocate.
                        let used = desc_usage(&st).get(&node).copied().unwrap_or(0);
                        st.servers.insert(
                            node,
                            ServerInfo {
                                capacity,
                                used,
                                pending: 0,
                                last_hb: now,
                                alive: true,
                            },
                        );
                    }
                }
                CtrlResp::Ok
            }
            CtrlReq::Heartbeat { node } => {
                let mut st = self.state.borrow_mut();
                match st.servers.get_mut(&node) {
                    Some(info) => {
                        info.last_hb = self.sim.now();
                        info.alive = true;
                        CtrlResp::Ok
                    }
                    None => CtrlResp::Err(format!("unknown server {node}")),
                }
            }
            CtrlReq::Alloc { name, size, opts } => match self.alloc(name, size, opts).await {
                Ok(desc) => CtrlResp::Region(desc),
                Err(e) => CtrlResp::Err(e.to_string()),
            },
            CtrlReq::Lookup { name } => {
                let st = self.state.borrow();
                match st.regions.get(&name) {
                    Some(desc) => {
                        let mut desc = desc.clone();
                        let all_alive = desc
                            .groups
                            .iter()
                            .flat_map(|g| &g.replicas)
                            .all(|x| st.servers.get(&x.node).is_some_and(|s| s.alive));
                        let clean = st.corrupt.get(&name).is_none_or(|s| s.is_empty());
                        desc.state = if all_alive && clean {
                            RegionState::Healthy
                        } else {
                            RegionState::Degraded
                        };
                        CtrlResp::Region(desc)
                    }
                    None => CtrlResp::Err(RStoreError::NotFound(name).to_string()),
                }
            }
            CtrlReq::Free { name } => match self.free(name).await {
                Ok(()) => CtrlResp::Ok,
                Err(e) => CtrlResp::Err(e.to_string()),
            },
            CtrlReq::Stat => CtrlResp::Stats(self.local_stats()),
            CtrlReq::ClusterStats => CtrlResp::Report(self.local_report()),
            CtrlReq::Grow {
                name,
                additional,
                opts,
            } => match self.grow(name, additional, opts).await {
                Ok(desc) => CtrlResp::Region(desc),
                Err(e) => CtrlResp::Err(e.to_string()),
            },
            CtrlReq::ReportCorruption {
                name,
                group,
                replica,
                node,
            } => {
                let mut st = self.state.borrow_mut();
                let Some(desc) = st.regions.get(&name) else {
                    return CtrlResp::Err(RStoreError::NotFound(name).to_string());
                };
                // Only mark if the report still matches the descriptor — the
                // replica may already have been repaired and swapped out.
                let matches = desc.checksums
                    && desc
                        .groups
                        .get(group as usize)
                        .and_then(|g| g.replicas.get(replica as usize))
                        .is_some_and(|x| x.node == node);
                if matches
                    && st
                        .corrupt
                        .entry(name.clone())
                        .or_default()
                        .insert((group as usize, replica as usize))
                {
                    self.mark_detected(group as u64, node as u64);
                }
                CtrlResp::Ok
            }
            CtrlReq::Drain { node } => match self.drain(NodeId(node)).await {
                Ok((extents, bytes)) => CtrlResp::Drained { extents, bytes },
                Err(e) => CtrlResp::Err(e.to_string()),
            },
        }
    }

    /// Records a newly discovered corrupt replica: one count per distinct
    /// `(region, group, replica)` mark, no matter how many reads or scrub
    /// passes rediscover it.
    fn mark_detected(&self, group: u64, node: u64) {
        self.stats.detected.incr();
        self.sim
            .tracer()
            .instant("core", "rstore.corrupt.mark", node, group);
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
        let mut failure: Option<RStoreError> = None;
        for (&(node, len), &count) in &wanted {
            let resp = self
                .server_call(
                    node,
                    SrvReq::AllocExtents {
                        count,
                        len,
                        synthetic: opts.synthetic,
                        checksums: ck,
                    },
                )
                .await;
            match resp {
                Ok(SrvResp::Extents(v)) if v.len() == count as usize => {
                    granted.insert(
                        (node, len),
                        v.into_iter()
                            .map(|(addr, rkey, elen)| Extent {
                                node,
                                addr,
                                rkey,
                                len: elen,
                            })
                            .collect(),
                    );
                }
                Ok(SrvResp::Err(m)) => {
                    failure = Some(RStoreError::Remote(m));
                    break;
                }
                Ok(_) => {
                    failure = Some(RStoreError::Protocol("bad server response".into()));
                    break;
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }

        if let Some(e) = failure {
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
                let _ = self
                    .server_call(
                        node,
                        SrvReq::FreeExtents {
                            extents: extents
                                .iter()
                                .map(|x| (x.addr, extent_alloc_len(x.len, ck)))
                                .collect(),
                        },
                    )
                    .await;
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

    /// Frees the extents of `groups` on their servers (best effort, skipping
    /// dead ones — a server dying loses the memory anyway) and returns the
    /// reserved capacity to the accounting. `ck` selects the physical
    /// (trailer-inclusive) extent length. `from_pending` picks which counter
    /// the bytes come back from: `pending` for extents that never reached a
    /// descriptor (grow rollback), `used` for published ones (free). The
    /// accounting is returned synchronously in one borrow — before any RPC —
    /// so the invariant holds at every await point.
    async fn release_groups(&self, groups: &[StripeGroup], ck: bool, from_pending: bool) {
        let mut per_server: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for g in groups {
            for x in &g.replicas {
                per_server
                    .entry(x.node)
                    .or_default()
                    .push((x.addr, extent_alloc_len(x.len, ck)));
            }
        }
        {
            let mut st = self.state.borrow_mut();
            for (&node, extents) in &per_server {
                let bytes: u64 = extents.iter().map(|(_, l)| l).sum();
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
            let alive = self
                .state
                .borrow()
                .servers
                .get(&node)
                .is_some_and(|s| s.alive);
            if alive {
                let _ = self
                    .server_call(node, SrvReq::FreeExtents { extents })
                    .await;
            }
        }
    }

    /// One pass of the repair task: find regions with replicas stranded on
    /// dead servers — or marked corrupt — and re-replicate them onto live
    /// ones.
    async fn repair_sweep(&self) {
        let mut names: Vec<String> = {
            let st = self.state.borrow();
            st.regions
                .iter()
                .filter(|(name, d)| {
                    d.groups
                        .iter()
                        .flat_map(|g| &g.replicas)
                        .any(|x| !st.servers.get(&x.node).is_some_and(|s| s.alive))
                        || st.corrupt.get(*name).is_some_and(|s| !s.is_empty())
                })
                .map(|(n, _)| n.clone())
                .collect()
        };
        // HashMap iteration order is not seeded; sort so repair order (and
        // with it every trace) is identical across runs.
        names.sort();
        for name in names {
            self.repair_region(&name).await;
        }
    }

    /// Re-replicates every stripe group of `name` that has replicas on dead
    /// servers or marked corrupt, copying from a surviving intact replica
    /// and atomically swapping the descriptor entry. Groups with no live
    /// intact replica are unrecoverable and left degraded; unreplicated
    /// regions therefore stay `Degraded`.
    async fn repair_region(&self, name: &str) {
        // One mover per region: if a drain or rebalance is mid-migration
        // here, skip — the next sweep revisits.
        let Some(_guard) = self.try_guard_region(name) else {
            return;
        };
        let groups = {
            let st = self.state.borrow();
            match st.regions.get(name) {
                Some(d) => d.groups.clone(),
                None => return,
            }
        };
        let span = self
            .sim
            .tracer()
            .span("core", "rstore.repair", self.dev.node().0 as u64);
        let mut repaired = 0u64;
        for (gi, group) in groups.iter().enumerate() {
            // A replica is usable as-is only if its server is alive AND it
            // has not been marked corrupt; both kinds need re-replication,
            // and a corrupt replica must never serve as the copy source.
            let alive: Vec<bool> = {
                let st = self.state.borrow();
                group
                    .replicas
                    .iter()
                    .enumerate()
                    .map(|(ri, x)| {
                        st.servers.get(&x.node).is_some_and(|s| s.alive)
                            && !st
                                .corrupt
                                .get(name)
                                .is_some_and(|marks| marks.contains(&(gi, ri)))
                    })
                    .collect()
            };
            if alive.iter().all(|&a| a) {
                continue;
            }
            let Some(src_idx) = alive.iter().position(|&a| a) else {
                continue;
            };
            let src = group.replicas[src_idx];
            let mut group_fully_repaired = true;
            for (ri, &replica_alive) in alive.iter().enumerate() {
                if replica_alive {
                    continue;
                }
                let old = group.replicas[ri];
                if self.repair_extent(name, gi, ri, &src, &old).await {
                    repaired += 1;
                } else {
                    group_fully_repaired = false;
                }
            }
            // A replacement extent holds a point-in-time copy pulled from
            // `src` while the region was taking traffic: writes issued under
            // a degraded mapping (and per-slot lock words CASed by writers
            // mid-episode) landed on the survivors only. Promote the copy
            // source to replica 0 — the read/CAS primary — so clients keep
            // seeing the authoritative image; the replacement converges as
            // new writes land and is only read if the source fails later.
            // Skipped while any replica of the group is still bad: corruption
            // marks are keyed by replica index and must stay valid.
            if group_fully_repaired {
                let mut st = self.state.borrow_mut();
                let marked = st
                    .corrupt
                    .get(name)
                    .is_some_and(|marks| marks.iter().any(|&(g, _)| g == gi));
                if !marked {
                    if let Some(g) = st.regions.get_mut(name).and_then(|d| d.groups.get_mut(gi)) {
                        if let Some(pos) = g.replicas.iter().position(|x| *x == src) {
                            if pos != 0 {
                                g.replicas.swap(0, pos);
                            }
                        }
                    }
                }
            }
        }
        if repaired > 0 {
            self.stats.repair_extents.add(repaired);
            self.sim
                .forensics()
                .note("repair", "extents_repaired", repaired);
        }
        span.end();
    }

    /// Repairs one dead replica: allocates a replacement extent on a live
    /// server not already hosting the group, has that server pull the stripe
    /// from the surviving replica `src` with a one-sided READ, and swaps the
    /// descriptor entry — but only if the slot still holds `old` (the region
    /// may have been freed or re-grown while we were copying). Returns
    /// whether the swap happened.
    async fn repair_extent(
        &self,
        name: &str,
        gi: usize,
        ri: usize,
        src: &Extent,
        old: &Extent,
    ) -> bool {
        let (synthetic, ck) = {
            let st = self.state.borrow();
            (
                st.synthetic.contains(name),
                st.regions.get(name).is_some_and(|d| d.checksums),
            )
        };
        let phys = extent_alloc_len(old.len, ck);
        // Pick the live server with the most free capacity that does not
        // already host a replica of this group, and reserve the bytes.
        let target = {
            let mut st = self.state.borrow_mut();
            let Some(group) = st.regions.get(name).and_then(|d| d.groups.get(gi)) else {
                return false;
            };
            if group.replicas.get(ri) != Some(old) {
                return false;
            }
            let hosts: Vec<u32> = group.replicas.iter().map(|x| x.node).collect();
            let mut best: Option<(u64, u32)> = None;
            for (&n, info) in &st.servers {
                if !info.alive || hosts.contains(&n) || st.draining.contains(&n) {
                    continue;
                }
                let free = info
                    .capacity
                    .saturating_sub(info.used)
                    .saturating_sub(info.pending);
                if free < phys {
                    continue;
                }
                if best.is_none_or(|(bf, _)| free > bf) {
                    best = Some((free, n));
                }
            }
            let Some((_, n)) = best else {
                return false;
            };
            st.servers.get_mut(&n).expect("alive server").pending += phys;
            n
        };
        let unreserve = |node: u32, bytes: u64| {
            let mut st = self.state.borrow_mut();
            if let Some(info) = st.servers.get_mut(&node) {
                info.pending = info.pending.saturating_sub(bytes);
            }
        };
        let new_extent = match self
            .server_call(
                target,
                SrvReq::AllocExtents {
                    count: 1,
                    len: old.len,
                    synthetic,
                    checksums: ck,
                },
            )
            .await
        {
            Ok(SrvResp::Extents(v)) if v.len() == 1 => {
                let (addr, rkey, len) = v[0];
                Extent {
                    node: target,
                    addr,
                    rkey,
                    len,
                }
            }
            _ => {
                unreserve(target, phys);
                return false;
            }
        };
        let rollback_extent = |master: &Master| {
            let master = master.clone();
            async move {
                let _ = master
                    .server_call(
                        target,
                        SrvReq::FreeExtents {
                            extents: vec![(new_extent.addr, extent_alloc_len(new_extent.len, ck))],
                        },
                    )
                    .await;
            }
        };
        // Copy the stripe (including the checksum trailer, which must travel
        // with the data): the target server pulls from the surviving replica
        // over the data path; the master only orchestrates.
        let copied = matches!(
            self.server_call(
                target,
                SrvReq::Replicate {
                    src_node: src.node,
                    src_addr: src.addr,
                    src_rkey: src.rkey,
                    dst_addr: new_extent.addr,
                    len: phys,
                },
            )
            .await,
            Ok(SrvResp::Ok)
        );
        if !copied {
            rollback_extent(self).await;
            unreserve(target, phys);
            return false;
        }
        // Atomic swap, guarded against the region changing underneath. On
        // success the replaced replica's corruption mark (if any) is
        // cleared: the slot no longer refers to the bad extent.
        let (swapped, old_alive) = {
            let mut st = self.state.borrow_mut();
            match st
                .regions
                .get_mut(name)
                .and_then(|d| d.groups.get_mut(gi))
                .and_then(|g| g.replicas.get_mut(ri))
            {
                Some(slot) if slot == old => {
                    *slot = new_extent;
                    if let Some(marks) = st.corrupt.get_mut(name) {
                        marks.remove(&(gi, ri));
                        if marks.is_empty() {
                            st.corrupt.remove(name);
                        }
                    }
                    // Transfer the accounting in the same borrow as the
                    // descriptor swap: the new extent becomes `used` on the
                    // target, the old one stops being `used` on the source.
                    if let Some(info) = st.servers.get_mut(&target) {
                        info.pending = info.pending.saturating_sub(phys);
                        info.used += phys;
                    }
                    if let Some(info) = st.servers.get_mut(&old.node) {
                        info.used = info.used.saturating_sub(phys);
                    }
                    let old_alive = st.servers.get(&old.node).is_some_and(|s| s.alive);
                    (true, old_alive)
                }
                _ => (false, false),
            }
        };
        if !swapped {
            rollback_extent(self).await;
            unreserve(target, phys);
            return false;
        }
        // A dead server's copy is abandoned with the server (if it flaps
        // back, its arena is assumed lost wholesale, matching the
        // volatile-DRAM failure model) — but a *corrupt* replica's server is
        // alive and still holds the extent, so free it there. Either way the
        // accounting is released so the capacity books stay balanced.
        if old_alive {
            let _ = self
                .server_call(
                    old.node,
                    SrvReq::FreeExtents {
                        extents: vec![(old.addr, phys)],
                    },
                )
                .await;
        }
        self.sim
            .tracer()
            .instant("core", "rstore.repair.extent", old.node as u64, old.len);
        true
    }

    /// Migrates one live extent off `old.node` onto the best eligible
    /// server: **seal → copy → swap → free**. The source is first sealed
    /// read-only (same rkey — readers keep serving), so no client WRITE/CAS
    /// can land between the point-in-time copy and the descriptor swap;
    /// sealed writers fault with `RemoteAccess`, revalidate their
    /// descriptor, and retry against the new home. Any mid-protocol failure
    /// rolls back exactly: the replacement is freed, the source unsealed,
    /// and the pending reservation returned. The caller must hold the
    /// region's [`RegionGuard`]. `charge` is the metric family the move
    /// counts under (drain or rebalance).
    async fn migrate_extent(
        &self,
        name: &str,
        gi: usize,
        ri: usize,
        old: &Extent,
        charge: &MoveStats,
    ) -> MigrateOutcome {
        let (synthetic, ck) = {
            let st = self.state.borrow();
            if st.corrupt.get(name).is_some_and(|m| m.contains(&(gi, ri))) {
                // Corrupt replicas are the repair task's to rebuild (it
                // copies from an intact source); migrating one would spread
                // the bad bytes.
                return MigrateOutcome::Gone;
            }
            (
                st.synthetic.contains(name),
                st.regions.get(name).is_some_and(|d| d.checksums),
            )
        };
        let phys = extent_alloc_len(old.len, ck);
        // Pick the live, non-draining server with the most free capacity
        // that does not already host a replica of this group, and reserve.
        let target = {
            let mut st = self.state.borrow_mut();
            let Some(group) = st.regions.get(name).and_then(|d| d.groups.get(gi)) else {
                return MigrateOutcome::Gone;
            };
            if group.replicas.get(ri) != Some(old) {
                return MigrateOutcome::Gone;
            }
            let hosts: Vec<u32> = group.replicas.iter().map(|x| x.node).collect();
            let mut best: Option<(u64, u32)> = None;
            for (&n, info) in &st.servers {
                if !info.alive || hosts.contains(&n) || st.draining.contains(&n) {
                    continue;
                }
                let free = info
                    .capacity
                    .saturating_sub(info.used)
                    .saturating_sub(info.pending);
                if free < phys {
                    continue;
                }
                if best.is_none_or(|(bf, _)| free > bf) {
                    best = Some((free, n));
                }
            }
            let Some((_, n)) = best else {
                return MigrateOutcome::NoCapacity;
            };
            st.servers.get_mut(&n).expect("alive server").pending += phys;
            n
        };
        let unreserve = |node: u32, bytes: u64| {
            let mut st = self.state.borrow_mut();
            if let Some(info) = st.servers.get_mut(&node) {
                info.pending = info.pending.saturating_sub(bytes);
            }
        };
        let new_extent = match self
            .server_call(
                target,
                SrvReq::AllocExtents {
                    count: 1,
                    len: old.len,
                    synthetic,
                    checksums: ck,
                },
            )
            .await
        {
            Ok(SrvResp::Extents(v)) if v.len() == 1 => {
                let (addr, rkey, len) = v[0];
                Extent {
                    node: target,
                    addr,
                    rkey,
                    len,
                }
            }
            _ => {
                unreserve(target, phys);
                return MigrateOutcome::Failed;
            }
        };
        let free_new = |master: &Master| {
            let master = master.clone();
            async move {
                let _ = master
                    .server_call(
                        target,
                        SrvReq::FreeExtents {
                            extents: vec![(new_extent.addr, extent_alloc_len(new_extent.len, ck))],
                        },
                    )
                    .await;
            }
        };
        // Seal the source read-only before the copy. From here until the
        // swap (or the rollback unseal), writers to this extent bounce.
        let sealed = matches!(
            self.server_call(
                old.node,
                SrvReq::SetAccess {
                    rkey: old.rkey,
                    writable: false,
                },
            )
            .await,
            Ok(SrvResp::Ok)
        );
        if !sealed {
            free_new(self).await;
            unreserve(target, phys);
            return MigrateOutcome::Failed;
        }
        self.sim
            .forensics()
            .note("migrate", "extent_sealed", old.node as u64);
        let unseal = |master: &Master| {
            let master = master.clone();
            async move {
                let _ = master
                    .server_call(
                        old.node,
                        SrvReq::SetAccess {
                            rkey: old.rkey,
                            writable: true,
                        },
                    )
                    .await;
            }
        };
        // Point-in-time copy over the data path: the target pulls the
        // sealed source (stripe + trailer) with a one-sided READ.
        let copied = matches!(
            self.server_call(
                target,
                SrvReq::Replicate {
                    src_node: old.node,
                    src_addr: old.addr,
                    src_rkey: old.rkey,
                    dst_addr: new_extent.addr,
                    len: phys,
                },
            )
            .await,
            Ok(SrvResp::Ok)
        );
        if !copied {
            self.sim
                .forensics()
                .note("migrate", "extent_unsealed", old.node as u64);
            unseal(self).await;
            free_new(self).await;
            unreserve(target, phys);
            return MigrateOutcome::Failed;
        }
        // Atomic descriptor swap, guarded against the region changing
        // underneath, with the accounting transferred in the same borrow.
        let swapped = {
            let mut st = self.state.borrow_mut();
            match st
                .regions
                .get_mut(name)
                .and_then(|d| d.groups.get_mut(gi))
                .and_then(|g| g.replicas.get_mut(ri))
            {
                Some(slot) if slot == old => {
                    *slot = new_extent;
                    if let Some(info) = st.servers.get_mut(&target) {
                        info.pending = info.pending.saturating_sub(phys);
                        info.used += phys;
                    }
                    if let Some(info) = st.servers.get_mut(&old.node) {
                        info.used = info.used.saturating_sub(phys);
                    }
                    true
                }
                _ => false,
            }
        };
        if !swapped {
            unseal(self).await;
            free_new(self).await;
            unreserve(target, phys);
            return MigrateOutcome::Gone;
        }
        // Free the source extent (dropping its MR — stale cached
        // descriptors now fault RemoteAccess and revalidate).
        let _ = self
            .server_call(
                old.node,
                SrvReq::FreeExtents {
                    extents: vec![(old.addr, phys)],
                },
            )
            .await;
        charge.extents.incr();
        charge.bytes.add(phys);
        self.sim
            .tracer()
            .instant("core", "rstore.migrate.extent", old.node as u64, phys);
        MigrateOutcome::Moved(phys)
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
        let span = self.sim.tracer().span("core", "rstore.drain", node as u64);
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
        loop {
            // Regions hosting extents on the node, in sorted order so drain
            // order (and every trace) is identical across runs.
            let mut names: Vec<String> = {
                let st = self.state.borrow();
                st.regions
                    .iter()
                    .filter(|(_, d)| {
                        d.groups
                            .iter()
                            .flat_map(|g| &g.replicas)
                            .any(|x| x.node == node)
                    })
                    .map(|(n, _)| n.clone())
                    .collect()
            };
            names.sort();
            let mut progressed = false;
            for name in names {
                let Some(_guard) = self.try_guard_region(&name) else {
                    continue; // another mover owns it; next pass revisits
                };
                loop {
                    let found = {
                        let st = self.state.borrow();
                        st.regions.get(&name).and_then(|d| {
                            d.groups.iter().enumerate().find_map(|(gi, g)| {
                                g.replicas.iter().enumerate().find_map(|(ri, x)| {
                                    let corrupt = st
                                        .corrupt
                                        .get(&name)
                                        .is_some_and(|m| m.contains(&(gi, ri)));
                                    (x.node == node && !corrupt).then_some((gi, ri, *x))
                                })
                            })
                        })
                    };
                    let Some((gi, ri, old)) = found else {
                        break;
                    };
                    match self
                        .migrate_extent(&name, gi, ri, &old, &self.stats.drain)
                        .await
                    {
                        MigrateOutcome::Moved(b) => {
                            extents_moved += 1;
                            bytes_moved += b;
                            progressed = true;
                        }
                        MigrateOutcome::Gone => break, // re-scan next pass
                        MigrateOutcome::NoCapacity => {
                            let remaining = {
                                let st = self.state.borrow();
                                desc_usage(&st).get(&node).copied().unwrap_or(0)
                            };
                            return Err(RStoreError::InsufficientCapacity {
                                requested: remaining,
                            });
                        }
                        MigrateOutcome::Failed => break,
                    }
                }
            }
            let remaining = {
                let st = self.state.borrow();
                desc_usage(&st).get(&node).copied().unwrap_or(0)
            };
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
        while moved < self.cfg.rebalance_budget {
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
            // First migratable extent on the hot server, in sorted region
            // order, skipping busy regions and corrupt replicas.
            let found = {
                let st = self.state.borrow();
                let mut names: Vec<&String> = st.regions.keys().collect();
                names.sort();
                let mut found = None;
                'outer: for name in names {
                    if st.busy_regions.contains(name) {
                        continue;
                    }
                    let desc = &st.regions[name];
                    for (gi, g) in desc.groups.iter().enumerate() {
                        for (ri, x) in g.replicas.iter().enumerate() {
                            let corrupt =
                                st.corrupt.get(name).is_some_and(|m| m.contains(&(gi, ri)));
                            if x.node == src && !corrupt {
                                found = Some((name.clone(), gi, ri, *x));
                                break 'outer;
                            }
                        }
                    }
                }
                found
            };
            let Some((name, gi, ri, old)) = found else {
                break;
            };
            let Some(_guard) = self.try_guard_region(&name) else {
                break;
            };
            match self
                .migrate_extent(&name, gi, ri, &old, &self.stats.rebalance)
                .await
            {
                MigrateOutcome::Moved(b) => moved += b,
                MigrateOutcome::Gone => continue,
                MigrateOutcome::NoCapacity | MigrateOutcome::Failed => break,
            }
        }
    }

    /// One scrubber pass: re-verify the checksum of every replica of every
    /// checksummed region with one-sided READs. Reads are sequential (one
    /// outstanding at a time) — the scrubber is a background sweeper, not a
    /// throughput path. IO errors are ignored: liveness is the lease
    /// sweep's job, and the extent will be revisited next pass.
    async fn scrub_sweep(
        &self,
        cq: &CompletionQueue,
        conns: &mut HashMap<u32, Qp>,
        next_wr: &mut u64,
    ) {
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
                    self.scrub_extent(cq, conns, next_wr, &name, gi, ri, extent)
                        .await;
                }
            }
        }
    }

    /// Verifies one replica's stripe + trailer. A mismatch is re-checked
    /// once after a short delay — a concurrent writer updates the data and
    /// the trailer with separate WRITEs, so a single torn observation is
    /// not proof of corruption — and only a persistent mismatch marks the
    /// replica corrupt for the repair task.
    #[allow(clippy::too_many_arguments)]
    async fn scrub_extent(
        &self,
        cq: &CompletionQueue,
        conns: &mut HashMap<u32, Qp>,
        next_wr: &mut u64,
        name: &str,
        gi: usize,
        ri: usize,
        extent: &Extent,
    ) {
        {
            let st = self.state.borrow();
            if !st.servers.get(&extent.node).is_some_and(|s| s.alive) {
                return;
            }
            if st.corrupt.get(name).is_some_and(|m| m.contains(&(gi, ri))) {
                return;
            }
        }
        let phys = extent_alloc_len(extent.len, true);
        let Ok(buf) = self.dev.alloc(phys) else {
            return;
        };
        let mut bad = false;
        for attempt in 0..2 {
            let Some(qp) = self.scrub_conn(cq, conns, extent.node).await else {
                break;
            };
            let wr = *next_wr;
            *next_wr += 1;
            let remote = RemoteAddr {
                addr: extent.addr,
                rkey: RKey(extent.rkey),
            };
            if qp.post_read(wr, buf, remote).is_err() {
                conns.remove(&extent.node);
                break;
            }
            let cqe = loop {
                let c = cq.next().await;
                if c.wr_id == wr {
                    break c;
                }
            };
            if cqe.status != CqStatus::Success {
                conns.remove(&extent.node);
                break;
            }
            let Ok(bytes) = self.dev.read_mem(buf.addr, phys) else {
                break;
            };
            let logical = extent.len as usize;
            let stored =
                u64::from_le_bytes(bytes[logical..logical + 8].try_into().expect("trailer"));
            if crc32c(&bytes[..logical]) as u64 == stored {
                bad = false;
                break;
            }
            bad = true;
            if attempt == 0 {
                self.sim.sleep(Duration::from_micros(500)).await;
            }
        }
        let _ = self.dev.free(buf);
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

    /// Cached data-path QP to `node` for scrub reads, re-dialing missing or
    /// errored connections.
    async fn scrub_conn(
        &self,
        cq: &CompletionQueue,
        conns: &mut HashMap<u32, Qp>,
        node: u32,
    ) -> Option<Qp> {
        if let Some(qp) = conns.get(&node) {
            if !qp.is_errored() {
                return Some(qp.clone());
            }
            conns.remove(&node);
        }
        match self
            .dev
            .connect(NodeId(node), crate::DATA_SERVICE, cq)
            .await
        {
            Ok(qp) => {
                conns.insert(node, qp.clone());
                Some(qp)
            }
            Err(_) => None,
        }
    }

    /// RPC to a memory server through a cached, serialized connection.
    #[allow(clippy::await_holding_refcell_ref)] // single-threaded sim; semaphore-guarded
    async fn server_call(&self, node: u32, req: SrvReq) -> Result<SrvResp> {
        let slot = {
            let mut st = self.state.borrow_mut();
            st.conns
                .entry(node)
                .or_insert_with(|| {
                    Rc::new(ConnSlot {
                        sem: Semaphore::new(1),
                        conn: RefCell::new(None),
                    })
                })
                .clone()
        };
        slot.sem.acquire().await;
        let result = async {
            let mut conn = match slot.conn.borrow_mut().take() {
                Some(c) => c,
                None => {
                    let mut c = RpcClient::connect(&self.dev, NodeId(node), SRV_SERVICE).await?;
                    c.set_response_timeout(self.cfg.srv_response_timeout);
                    c
                }
            };
            match conn.call(&req.encode()).await {
                Ok(bytes) => {
                    *slot.conn.borrow_mut() = Some(conn);
                    SrvResp::decode(&bytes)
                }
                Err(e) => Err(e), // drop the broken connection
            }
        }
        .await;
        slot.sem.release();
        result
    }
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
