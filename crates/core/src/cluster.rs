//! One-call cluster bootstrap for examples, tests, and benchmarks.

use std::cell::RefCell;
use std::fmt;
use std::time::Duration;

use fabric::{Fabric, FabricConfig, NodeId};
use rdma::{NetMsg, RdmaConfig, RdmaDevice};
use sim::Sim;

use crate::client::{ClientConfig, RStoreClient};
use crate::error::Result;
use crate::master::{Master, MasterConfig};
use crate::server::{MemServer, ServerConfig};

/// Parameters for [`Cluster::boot`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of memory servers.
    pub servers: usize,
    /// Number of client machines (devices) to pre-create.
    pub clients: usize,
    /// Network parameters.
    pub fabric: FabricConfig,
    /// NIC parameters (shared by all machines).
    pub rdma: RdmaConfig,
    /// Master parameters.
    pub master: MasterConfig,
    /// Memory-server parameters.
    pub server: ServerConfig,
    /// Client parameters applied by [`Cluster::client`] (override per
    /// connection with [`Cluster::client_with`]).
    pub client: ClientConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 4,
            clients: 1,
            fabric: FabricConfig::default(),
            rdma: RdmaConfig::default(),
            master: MasterConfig::default(),
            server: ServerConfig::default(),
            client: ClientConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// A testbed like the paper's: `n` machines each running a memory server,
    /// with `clients` separate client machines.
    pub fn with_servers(n: usize) -> Self {
        ClusterConfig {
            servers: n,
            ..Self::default()
        }
    }

    /// [`with_servers`](Self::with_servers) with failure detection sped up
    /// from seconds to tens of milliseconds, for fault runs: a crash is
    /// noticed, surfaced to clients and repaired within ~100 ms of virtual
    /// time. The five timings hold a relation, so they are set together:
    /// heartbeat (10 ms) ≪ lease (50 ms), so a few lost heartbeats do not
    /// expire a live server; sweep (20 ms) < lease, so an expired lease is
    /// seen within half a lease; repair (40 ms) follows the sweep that marks
    /// the loss; and the RC base timeout (25 ms) < lease, so a client's IO
    /// to a dead server errors — and the client re-maps — before the master
    /// has declared the server dead, not 2 s after.
    pub fn fast_detection(servers: usize) -> Self {
        ClusterConfig {
            master: MasterConfig {
                lease: Duration::from_millis(50),
                sweep_interval: Duration::from_millis(20),
                repair_interval: Duration::from_millis(40),
                ..MasterConfig::default()
            },
            server: ServerConfig {
                heartbeat: Duration::from_millis(10),
                ..ServerConfig::default()
            },
            rdma: RdmaConfig {
                base_timeout: Duration::from_millis(25),
                ..RdmaConfig::default()
            },
            ..Self::with_servers(servers)
        }
    }
}

/// A booted RStore cluster: master + memory servers + client devices, all on
/// one simulated fabric.
pub struct Cluster {
    /// The simulation everything runs on.
    pub sim: Sim,
    /// The shared network.
    pub fabric: Fabric<NetMsg>,
    /// The master handle.
    pub master: Master,
    /// Memory-server handles.
    pub servers: Vec<MemServer>,
    /// Pre-created client devices (one per client machine).
    pub client_devs: Vec<RdmaDevice>,
    client_cfg: ClientConfig,
    rdma_cfg: RdmaConfig,
    server_cfg: ServerConfig,
    /// Every device created here: master, servers, clients, dark standbys.
    devices: RefCell<Vec<RdmaDevice>>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .field("clients", &self.client_devs.len())
            .finish()
    }
}

impl Cluster {
    /// Boots a cluster on a fresh simulation and waits (in virtual time)
    /// until every server has registered with the master.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures (e.g. service id collisions).
    pub fn boot(cfg: ClusterConfig) -> Result<Cluster> {
        let sim = Sim::new();
        Self::boot_on(sim, cfg)
    }

    /// Boots a cluster on an existing simulation.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn boot_on(sim: Sim, cfg: ClusterConfig) -> Result<Cluster> {
        let fabric = Fabric::new(sim.clone(), cfg.fabric.clone());
        let master_dev = RdmaDevice::new(&fabric, cfg.rdma.clone());
        let master = Master::spawn(&master_dev, cfg.master.clone())?;

        let mut devices = vec![master_dev];
        let mut servers = Vec::with_capacity(cfg.servers);
        for _ in 0..cfg.servers {
            let dev = RdmaDevice::new(&fabric, cfg.rdma.clone());
            servers.push(MemServer::spawn(&dev, master.node(), cfg.server.clone())?);
            devices.push(dev);
        }

        let client_devs: Vec<RdmaDevice> = (0..cfg.clients)
            .map(|_| RdmaDevice::new(&fabric, cfg.rdma.clone()))
            .collect();
        devices.extend(client_devs.iter().cloned());

        let cluster = Cluster {
            sim: sim.clone(),
            fabric,
            master: master.clone(),
            servers,
            client_devs,
            client_cfg: cfg.client,
            rdma_cfg: cfg.rdma,
            server_cfg: cfg.server,
            devices: RefCell::new(devices),
        };

        // Let registration traffic drain so callers start from a settled
        // cluster.
        let m = master.clone();
        let n = cfg.servers;
        sim.block_on(async move { m.wait_for_servers(n).await });
        Ok(cluster)
    }

    /// The master's fabric node.
    pub fn master_node(&self) -> NodeId {
        self.master.node()
    }

    /// Connects an [`RStoreClient`] on client machine `i`.
    ///
    /// # Errors
    ///
    /// Connection failures.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub async fn client(&self, i: usize) -> Result<RStoreClient> {
        RStoreClient::connect_with(&self.client_devs[i], self.master.node(), self.client_cfg).await
    }

    /// Connects client machine `i` with an explicit [`ClientConfig`] (e.g.
    /// to enable per-op cost ledgers).
    ///
    /// # Errors
    ///
    /// Connection failures.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub async fn client_with(&self, i: usize, cfg: ClientConfig) -> Result<RStoreClient> {
        RStoreClient::connect_with(&self.client_devs[i], self.master.node(), cfg).await
    }

    /// Creates a *dark* standby server machine: a device on the fabric whose
    /// `NodeId` is known immediately — so a [`fabric::FaultPlan`] can name it
    /// in a `join_at` event — but which donates nothing and serves nothing
    /// until [`start_server`](Self::start_server) brings it up.
    pub fn add_dark_server(&self) -> RdmaDevice {
        let dev = RdmaDevice::new(&self.fabric, self.rdma_cfg.clone());
        self.devices.borrow_mut().push(dev.clone());
        dev
    }

    /// Starts a memory server on a (dark) device with the cluster's boot-time
    /// [`ServerConfig`]: the elastic join. The server registers with the
    /// master on its first heartbeat; the handle is returned rather than
    /// appended to [`servers`](Self::servers) so membership hooks holding
    /// `&Cluster` can join nodes mid-run.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures (e.g. service id collisions from calling
    /// this twice on one device).
    pub fn start_server(&self, dev: &RdmaDevice) -> Result<MemServer> {
        MemServer::spawn(dev, self.master.node(), self.server_cfg.clone())
    }

    /// `(booked, resident)` summed over every device of the cluster: the
    /// bytes allocated in its arena ([`RdmaDevice::mem_used`]), and those of
    /// them that hold stored data and so cost the host memory
    /// ([`RdmaDevice::mem_resident`]).
    pub fn mem_footprint(&self) -> (u64, u64) {
        let devices = self.devices.borrow();
        devices.iter().fold((0, 0), |(booked, resident), d| {
            (booked + d.mem_used(), resident + d.mem_resident())
        })
    }

    /// Runs the simulation on until the messages still in flight have landed
    /// (at most 10 ms of virtual time), then checks that no device of the
    /// cluster holds a pinned payload ([`RdmaDevice::pin_stats`]): a pin is
    /// released when its message is delivered or dropped, so one that stays
    /// is a leak. Call it from outside `block_on`, after a run's numbers are
    /// taken.
    ///
    /// # Panics
    ///
    /// Panics if a pin is still live after the wait.
    pub fn assert_pins_released(&self) {
        let live = || -> usize {
            let devices = self.devices.borrow();
            devices.iter().map(|d| d.pin_stats().0).sum()
        };
        for _ in 0..10_000 {
            if live() == 0 {
                return;
            }
            self.sim
                .run_until(self.sim.now() + Duration::from_micros(1));
        }
        panic!("{} payload pins outlived their messages", live());
    }
}
