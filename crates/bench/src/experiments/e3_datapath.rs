//! E3 — data-path latency: RStore vs raw verbs vs a two-sided store.
//!
//! Identical fabric and NICs in all three columns. The gap between "RStore"
//! and "raw verbs" is the cost of RStore's abstraction (striping lookup +
//! completion routing, tens of ns); the gap to "two-sided" is the cost of a
//! server CPU on the data path — the paper's core architectural claim.

use std::time::Duration;

use baseline::twosided::{spawn_server, TwoSidedClient, TwoSidedCost};
use fabric::{Fabric, FabricConfig};
use rdma::{Access, CompletionQueue, RdmaConfig, RdmaDevice};
use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, RStoreClient};
use sim::Sim;

use crate::table::{fmt_bytes, fmt_dur, Table};

const REPS: u64 = 20;
const SIZES: [u64; 6] = [64, 512, 4096, 32 * 1024, 256 * 1024, 1024 * 1024];

/// Runs E3.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E3: data-path READ latency vs size (4 servers)",
        &["size", "RStore", "raw verbs", "two-sided", "2-sided/RStore"],
    );
    let rstore = measure_rstore();
    let raw = measure_raw();
    let two = measure_twosided();
    for (i, &size) in SIZES.iter().enumerate() {
        table.row(vec![
            fmt_bytes(size),
            fmt_dur(rstore[i]),
            fmt_dur(raw[i]),
            fmt_dur(two[i]),
            format!("{:.2}x", two[i].as_secs_f64() / rstore[i].as_secs_f64()),
        ]);
    }
    table.note("claim C2: RStore within a few hundred ns of raw verbs; two-sided pays CPU");

    let mut kv_table = kv_latency();
    let mut wtable = Table::new(
        "E3b: data-path WRITE latency vs size (4 servers)",
        &["size", "RStore write", "two-sided write"],
    );
    let rw = measure_rstore_write();
    let tw = measure_twosided_write();
    for (i, &size) in SIZES.iter().enumerate() {
        wtable.row(vec![fmt_bytes(size), fmt_dur(rw[i]), fmt_dur(tw[i])]);
    }
    kv_table
        .note("KV facade (extension): GET = 1 one-sided read; PUT = probe walk (home slot, then 1 KiB of chain per READ) + CAS lock + 1 publishing write (2 RTTs once the slot is hinted)");
    vec![table, wtable, kv_table]
}

/// One row of E3's per-layer latency attribution (for the JSON export).
///
/// `doorbell`, `nic` and `wire` are derived from the simulator's configured
/// hardware constants ([`RdmaConfig`] / [`FabricConfig`]); `software` is the
/// residual of the measured mean over those — striping lookup, completion
/// routing and scheduler overhead. Percentiles come from the per-WR
/// `rdma.wr_latency.read` histogram of the same run.
#[derive(Clone, Debug)]
pub struct LayerStat {
    /// Transfer size in bytes.
    pub size: u64,
    /// Measured mean READ latency (virtual nanoseconds).
    pub total_ns: u64,
    /// Median per-WR latency.
    pub p50_ns: u64,
    /// 99th-percentile per-WR latency.
    pub p99_ns: u64,
    /// CPU doorbell/DMA-post cost.
    pub doorbell_ns: u64,
    /// NIC processing, both endpoints.
    pub nic_ns: u64,
    /// Wire time: serialization + propagation + switch, request and response.
    pub wire_ns: u64,
    /// Residual attributed to RStore/driver software.
    pub software_ns: u64,
}

/// Measures RStore READ latency per size and decomposes it into
/// doorbell / NIC / wire / software layers.
pub fn attribution() -> Vec<LayerStat> {
    let rdma_cfg = RdmaConfig::default();
    let fab_cfg = FabricConfig::default();
    let doorbell_ns = rdma_cfg.post_overhead.as_nanos() as u64;
    let nic_ns = 2 * rdma_cfg.nic_delay.as_nanos() as u64;
    // One cut-through switched hop each way: sender host overhead,
    // propagation and switch forwarding, paid for the (tiny) request and
    // again for the payload-bearing response.
    let hop_ns =
        (fab_cfg.host_overhead + fab_cfg.link_latency + fab_cfg.switch_delay).as_nanos() as u64;

    let (cluster, sim) = rstore_cluster();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let metrics = cluster.fabric.metrics().clone();
    let totals = sim.block_on({
        let sim = sim.clone();
        let metrics = metrics.clone();
        async move {
            let client = RStoreClient::connect(&devs[0], master)
                .await
                .expect("connect");
            let region = client
                .alloc("e3attr", 16 << 20, AllocOptions::default())
                .await
                .expect("alloc");
            let dev = client.device().clone();
            let mut out = Vec::new();
            for &size in &SIZES {
                let buf = dev.alloc(size).expect("buf");
                region.read_into(0, buf).await.expect("warm");
                metrics.reset();
                let t0 = sim.now();
                for _ in 0..REPS {
                    region.read_into(0, buf).await.expect("read");
                }
                let mean = ((sim.now() - t0) / REPS as u32).as_nanos() as u64;
                let wr = metrics
                    .histogram("rdma.wr_latency.read")
                    .expect("read WR latency histogram");
                out.push((size, mean, wr.p50(), wr.p99()));
                dev.free(buf).expect("free");
            }
            out
        }
    });
    totals
        .into_iter()
        .map(|(size, total_ns, p50_ns, p99_ns)| {
            let ser_ns = size * 8 * 1_000_000_000 / fab_cfg.link_bps;
            let wire_ns = 2 * hop_ns + ser_ns;
            let software_ns = total_ns.saturating_sub(doorbell_ns + nic_ns + wire_ns);
            LayerStat {
                size,
                total_ns,
                p50_ns,
                p99_ns,
                doorbell_ns,
                nic_ns,
                wire_ns,
                software_ns,
            }
        })
        .collect()
}

fn kv_latency() -> Table {
    let mut t = Table::new(
        "E3c: KV-facade operation latency (64B values, 4 servers)",
        &["operation", "mean latency"],
    );
    let (cluster, sim) = rstore_cluster();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let rows = sim.block_on({
        let sim = sim.clone();
        async move {
            let client = RStoreClient::connect(&devs[0], master).await.expect("c");
            let kv = KvTable::create(&client, "e3kv", KvConfig::default())
                .await
                .expect("create");
            let value = [7u8; 64];
            // Warm: the key exists and its slot hint is cached.
            kv.put(b"bench-key", &value).await.expect("warm put");
            kv.get(b"bench-key").await.expect("warm get");

            let reps = 20u32;
            let t0 = sim.now();
            for _ in 0..reps {
                kv.get(b"bench-key").await.expect("get");
            }
            let get = (sim.now() - t0) / reps;

            let t0 = sim.now();
            for _ in 0..reps {
                kv.put(b"bench-key", &value).await.expect("put");
            }
            let put = (sim.now() - t0) / reps;

            let t0 = sim.now();
            for _ in 0..reps {
                kv.get(b"absent-key").await.expect("miss");
            }
            let miss = (sim.now() - t0) / reps;
            vec![
                ("GET (hit)", get),
                ("GET (miss)", miss),
                ("PUT (overwrite)", put),
            ]
        }
    });
    for (name, d) in rows {
        t.row(vec![name.to_string(), fmt_dur(d)]);
    }
    t
}

fn rstore_cluster() -> (Cluster, sim::Sim) {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    (cluster, sim)
}

fn measure_rstore() -> Vec<Duration> {
    let (cluster, sim) = rstore_cluster();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let client = RStoreClient::connect(&devs[0], master)
                .await
                .expect("connect");
            let region = client
                .alloc("e3", 16 << 20, AllocOptions::default())
                .await
                .expect("alloc");
            let dev = client.device().clone();
            let mut out = Vec::new();
            for &size in &SIZES {
                let buf = dev.alloc(size).expect("buf");
                region.read_into(0, buf).await.expect("warm");
                let t0 = sim.now();
                for _ in 0..REPS {
                    region.read_into(0, buf).await.expect("read");
                }
                out.push((sim.now() - t0) / REPS as u32);
                dev.free(buf).expect("free");
            }
            out
        }
    })
}

fn measure_rstore_write() -> Vec<Duration> {
    let (cluster, sim) = rstore_cluster();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let client = RStoreClient::connect(&devs[0], master)
                .await
                .expect("connect");
            let region = client
                .alloc("e3w", 16 << 20, AllocOptions::default())
                .await
                .expect("alloc");
            let dev = client.device().clone();
            let mut out = Vec::new();
            for &size in &SIZES {
                let buf = dev.alloc(size).expect("buf");
                region.write_from(0, buf).await.expect("warm");
                let t0 = sim.now();
                for _ in 0..REPS {
                    region.write_from(0, buf).await.expect("write");
                }
                out.push((sim.now() - t0) / REPS as u32);
                dev.free(buf).expect("free");
            }
            out
        }
    })
}

fn measure_raw() -> Vec<Duration> {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let server = RdmaDevice::new(&fabric, RdmaConfig::default());
    let client = RdmaDevice::new(&fabric, RdmaConfig::default());
    sim.block_on({
        let sim = sim.clone();
        async move {
            let buf = server.alloc(16 << 20).expect("alloc");
            let mr = server.reg_mr(buf, Access::REMOTE_READ).expect("register");
            let mut listener = server.listen(1).expect("listen");
            let scq = CompletionQueue::new();
            server
                .sim()
                .spawn(async move { listener.accept(&scq).await.expect("accept") });
            let cq = CompletionQueue::new();
            let qp = client.connect(mr.node, 1, &cq).await.expect("connect");
            let mut out = Vec::new();
            for &size in &SIZES {
                let local = client.alloc(size).expect("buf");
                let target = mr.token().at(0, size).expect("range");
                qp.post_read(0, local, target).expect("warm");
                cq.next().await;
                let t0 = sim.now();
                for i in 0..REPS {
                    qp.post_read(i, local, target).expect("post");
                    cq.next().await;
                }
                out.push((sim.now() - t0) / REPS as u32);
                client.free(local).expect("free");
            }
            out
        }
    })
}

fn twosided_pair() -> (Sim, RdmaDevice, RdmaDevice) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let server = RdmaDevice::new(&fabric, RdmaConfig::default());
    let client = RdmaDevice::new(&fabric, RdmaConfig::default());
    spawn_server(&server, 16 << 20, TwoSidedCost::default()).expect("spawn");
    (sim, server, client)
}

fn measure_twosided() -> Vec<Duration> {
    let (sim, server, client) = twosided_pair();
    let node = server.node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let c = TwoSidedClient::connect(&client, node)
                .await
                .expect("connect");
            let mut out = Vec::new();
            for &size in &SIZES {
                c.read(0, size).await.expect("warm");
                let t0 = sim.now();
                for _ in 0..REPS {
                    c.read(0, size).await.expect("read");
                }
                out.push((sim.now() - t0) / REPS as u32);
            }
            out
        }
    })
}

fn measure_twosided_write() -> Vec<Duration> {
    let (sim, server, client) = twosided_pair();
    let node = server.node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let c = TwoSidedClient::connect(&client, node)
                .await
                .expect("connect");
            let mut out = Vec::new();
            for &size in &SIZES {
                let data = vec![7u8; size as usize];
                c.write(0, &data).await.expect("warm");
                let t0 = sim.now();
                for _ in 0..REPS {
                    c.write(0, &data).await.expect("write");
                }
                out.push((sim.now() - t0) / REPS as u32);
            }
            out
        }
    })
}
