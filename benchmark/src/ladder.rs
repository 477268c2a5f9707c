//! The layer ladder: one micro-loop per layer boundary, each through the
//! layer's public functions only, on default configurations.
//!
//! A rung reports host nanoseconds per iteration and, where it advances the
//! simulated clock, the virtual nanoseconds per iteration too. Rungs stack:
//! a hinted 128 B `KvTable::get` is a `Region::read` is a one-WR
//! `Qp::post_batch` is a fabric round trip, so a layer's *self* cost is its
//! rung minus the rung below (reported as `ladder.get128_self_ns.*`). Those
//! four rungs are timed in alternation, block by block, so that a burst of
//! host noise cannot hit one of them and spare the one it is subtracted from.

use std::cell::RefCell;
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Instant;

use fabric::{Fabric, FabricConfig, NodeId};
use rdma::{Access, BatchWr, CompletionQueue, DmaBuf, Qp, RdmaConfig, RdmaDevice, RemoteMr};
use rstore::{AllocOptions, ClientConfig, Cluster, ClusterConfig, KvConfig, KvTable, RStoreError, Region};
use sim::{Duration, Metrics, Sim};
use workload::Zipf;

use crate::spans::{host_ns, SpanLog};

/// Each rung is timed in this many blocks (after one untimed block) and
/// reports the fastest: interference only ever adds time, so the fastest
/// block is the one that ran undisturbed.
const BLOCKS: usize = 10;
const SMALL_ITERS: u64 = 5_000;
const BULK_ITERS: u64 = 50;
const CTRL_ITERS: u64 = 50;
const MIB: u64 = 1 << 20;

/// One rung's result.
pub struct Rung {
    pub name: &'static str,
    pub host: f64,
    pub host_unit: &'static str,
    /// The virtual-clock twin: (name, value, unit).
    pub sim: Option<(&'static str, f64, &'static str)>,
}

/// Builds one block of `n` iterations of a rung's loop.
type Make<'a> = Box<dyn FnMut(u64) -> Pin<Box<dyn Future<Output = ()>>> + 'a>;

fn make<'a, Fut: Future<Output = ()> + 'static>(mut f: impl FnMut(u64) -> Fut + 'a) -> Make<'a> {
    Box::new(move |n| Box::pin(f(n)))
}

struct Ladder {
    rungs: Vec<Rung>,
    log: SpanLog,
    root: u32,
}

impl Ladder {
    /// Times the given rungs together: `BLOCKS` rounds, in each round one
    /// block of `iters` iterations of every rung in turn, keeping each rung's
    /// fastest block. Rungs that are compared with each other go in one call,
    /// so that they sample the same stretch of host noise. Returns the host
    /// ns per iteration of each.
    fn rungs(&mut self, iters: u64, mut specs: Vec<(&Sim, &'static str, &'static str, Make)>) -> Vec<f64> {
        let mut spans = Vec::with_capacity(specs.len());
        for (sim, name, _, make) in &mut specs {
            sim.block_on(make(iters.div_ceil(10))); // untimed: dial, fault in, fill caches
            spans.push((self.log.begin(self.root, "rung", name), sim.now()));
        }
        let mut host = vec![f64::INFINITY; specs.len()];
        for _ in 0..BLOCKS {
            for ((sim, _, _, make), host) in specs.iter_mut().zip(&mut host) {
                let fut = make(iters);
                let t0 = Instant::now();
                sim.block_on(fut);
                *host = host.min(t0.elapsed().as_nanos() as f64 / iters as f64);
            }
        }
        for (((sim, name, sim_name, _), host), (span, virt_start)) in specs.iter().zip(&host).zip(spans) {
            let virt = sim.now().saturating_since(virt_start).as_nanos() as f64 / (BLOCKS as u64 * iters) as f64;
            self.log.end(span, host_ns(), virt_start.as_nanos(), sim.now().as_nanos());
            let sim = (!sim_name.is_empty()).then_some((*sim_name, virt, "sim_ns"));
            self.rungs.push(Rung { name, host: *host, host_unit: "ns", sim });
        }
        host
    }

    /// One rung on its own (see [`rungs`](Self::rungs)).
    fn rung(&mut self, sim: &Sim, name: &'static str, sim_name: &'static str, iters: u64, make: Make) {
        self.rungs(iters, vec![(sim, name, sim_name, make)]);
    }

    /// Divides the last rung (both clocks) by `n`: for rungs whose iteration
    /// covers `n` of the things the rung is named after.
    fn per(&mut self, n: f64) {
        let rung = self.rungs.last_mut().expect("a rung was just pushed");
        rung.host /= n;
        rung.sim = rung.sim.map(|(name, v, unit)| (name, v / n, unit));
    }

    /// A rung of plain host code (no simulated clock).
    fn host_rung(&mut self, name: &'static str, iters: u64, mut block: impl FnMut(u64)) -> f64 {
        block(iters.div_ceil(10));
        let span = self.log.begin(self.root, "rung", name);
        let mut host = f64::INFINITY;
        for _ in 0..BLOCKS {
            let t0 = Instant::now();
            block(iters);
            host = host.min(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.log.end(span, host_ns(), 0, 0);
        self.rungs.push(Rung { name, host, host_unit: "ns", sim: None });
        host
    }
}

/// Runs every rung; returns them with the `ladder → rung` spans.
pub fn run(seed: u64) -> Result<(Vec<Rung>, SpanLog), String> {
    let mut log = SpanLog::default();
    let root = log.begin(0, "ladder", "");
    let mut l = Ladder { rungs: Vec::new(), log, root };
    let wire = Wire::new();
    let verbs = Verbs::new().map_err(|e| format!("ladder: rdma: {e}"))?;
    let regions = Regions::new().map_err(|e| format!("ladder: core.region: {e}"))?;
    let tables = Tables::new().map_err(|e| format!("ladder: core.kv: {e}"))?;

    sim_rungs(&mut l);
    // The stack under one hinted 128 B get, timed together: a layer's self
    // cost is its rung minus the rung below.
    let stack = l.rungs(
        SMALL_ITERS,
        vec![
            (&wire.sim, "fabric.ns_per_small_rt", "fabric.small_rt_sim_ns", make(|n| wire.ping(30, n))),
            (
                &verbs.sim,
                "rdma.ns_per_read_128",
                "rdma.read_128_sim_ns",
                make(|n| verbs.chain(vec![verbs.read_128()], n)),
            ),
            (
                &regions.sim,
                "core.region.ns_per_read_128",
                "core.region.read_128_sim_ns",
                make(|n| regions.read(false, 128, n)),
            ),
            (
                &tables.sim,
                "core.kv.ns_per_get_hinted",
                "core.kv.get_hinted_sim_ns",
                make(|n| tables.ops(true, false, n)),
            ),
        ],
    );
    for (name, value) in [
        ("ladder.get128_self_ns.fabric", stack[0]),
        ("ladder.get128_self_ns.rdma", stack[1] - stack[0]),
        ("ladder.get128_self_ns.core.region", stack[2] - stack[1]),
        ("ladder.get128_self_ns.core.kv", stack[3] - stack[2]),
    ] {
        l.rungs.push(Rung { name, host: value, host_unit: "ns", sim: None });
    }
    l.rung(&wire.sim, "fabric.ns_per_mib", "fabric.mib_sim_ns", BULK_ITERS, make(|n| wire.ping(MIB, n)));
    rdma_rungs(&mut l, &verbs);
    region_rungs(&mut l, &regions);
    l.rung(
        &tables.sim,
        "core.kv.ns_per_get_probe",
        "core.kv.get_probe_sim_ns",
        SMALL_ITERS,
        make(|n| tables.ops(false, false, n)),
    );
    l.rung(
        &tables.sim,
        "core.kv.ns_per_put_hinted",
        "core.kv.put_hinted_sim_ns",
        SMALL_ITERS,
        make(|n| tables.ops(true, true, n)),
    );
    master_rung(&mut l).map_err(|e| format!("ladder: core.master: {e}"))?;
    let mut zipf = Zipf::new(1 << 18, 0.99, seed);
    l.host_rung("workload.zipf_ns_per_draw", 10 * SMALL_ITERS, |n| {
        for _ in 0..n {
            black_box(zipf.next());
        }
    });
    l.log.end(root, host_ns(), 0, 0);
    Ok((l.rungs, l.log))
}

/// `sim`: timers (beside 0 and 4096 pending ones), channels, the registry.
fn sim_rungs(l: &mut Ladder) {
    for (name, pending) in [("sim.timer_ns_per_event.idle", 0), ("sim.timer_ns_per_event.4k", 4096)] {
        let sim = Sim::new();
        for _ in 0..pending {
            sim.schedule(Duration::from_secs(3600), || {});
        }
        let sleeper = |n| {
            let sim = sim.clone();
            async move {
                for _ in 0..n {
                    sim.sleep(Duration::from_micros(1)).await;
                }
            }
        };
        l.rung(&sim, name, "", 10 * SMALL_ITERS, make(sleeper));
    }

    // Two tasks ping-pong: every message wakes the other side.
    let sim = Sim::new();
    let (to_echo, mut echo_rx) = sim::channel::<u64>();
    let (to_main, main_rx) = sim::channel::<u64>();
    sim.spawn(async move {
        while let Some(v) = echo_rx.recv().await {
            if to_main.send(v).is_err() {
                return;
            }
        }
    });
    let main_rx = Rc::new(RefCell::new(main_rx));
    let ping_pong = |n| {
        let (to_echo, main_rx) = (to_echo.clone(), main_rx.clone());
        #[allow(clippy::await_holding_refcell_ref)] // one block runs at a time
        async move {
            let mut rx = main_rx.borrow_mut();
            for i in 0..n {
                to_echo.send(i).expect("echo task alive");
                black_box(rx.recv().await);
            }
        }
    };
    l.rung(&sim, "sim.channel_ns_per_msg", "", 10 * SMALL_ITERS, make(ping_pong));
    l.per(2.0); // a round trip is two messages

    // The registry as the hot paths use it: through a scoped handle.
    let link = Metrics::new().scoped("fabric.link3");
    l.host_rung("sim.metrics_ns_per_add", 10 * SMALL_ITERS, |n| {
        for _ in 0..n {
            link.add("tx_bytes", 64);
        }
    });
    l.host_rung("sim.metrics_ns_per_record", 10 * SMALL_ITERS, |n| {
        for i in 0..n {
            link.record_value("rx_queue_delay", i);
        }
        link.reset(); // the exact-sample histogram must not grow across blocks
    });
}

/// `fabric`: two nodes; the far one answers every message with a 158 B one
/// (30 B out / 158 B back are the wire sizes of a 128 B READ).
struct Wire {
    sim: Sim,
    fabric: Fabric<u64>,
    near: NodeId,
    far: NodeId,
    inbox: Rc<RefCell<sim::Receiver<fabric::Delivery<u64>>>>,
}

impl Wire {
    fn new() -> Wire {
        let sim = Sim::new();
        let fabric: Fabric<u64> = Fabric::new(sim.clone(), FabricConfig::default());
        let (near, far) = (fabric.add_node(), fabric.add_node());
        let inbox = Rc::new(RefCell::new(fabric.attach(near)));
        let mut far_rx = fabric.attach(far);
        let echo = fabric.clone();
        sim.spawn(async move {
            while let Some(d) = far_rx.recv().await {
                echo.send(far, near, 158, d.msg);
            }
        });
        Wire { sim, fabric, near, far, inbox }
    }

    /// `n` round trips of a `bytes`-sized message and its reply.
    fn ping(&self, bytes: u64, n: u64) -> impl Future<Output = ()> + 'static {
        let (fabric, inbox, near, far) = (self.fabric.clone(), self.inbox.clone(), self.near, self.far);
        #[allow(clippy::await_holding_refcell_ref)] // one block runs at a time
        async move {
            let mut rx = inbox.borrow_mut();
            for i in 0..n {
                fabric.send(near, far, bytes, i);
                black_box(rx.recv().await);
            }
        }
    }
}

/// `rdma`: a connected QP pair and a registered 2 MiB remote buffer.
struct Verbs {
    sim: Sim,
    qp: Qp,
    cq: CompletionQueue,
    small: DmaBuf,
    word: DmaBuf,
    big: DmaBuf,
    remote: RemoteMr,
}

impl Verbs {
    fn new() -> Result<Verbs, rdma::RdmaError> {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let server = RdmaDevice::new(&fabric, RdmaConfig::default());
        let client = RdmaDevice::new(&fabric, RdmaConfig::default());
        let remote = server.reg_mr(server.alloc(2 * MIB)?, Access::REMOTE_ALL)?.token();
        let mut listener = server.listen(1)?;
        sim.spawn(async move {
            let cq = CompletionQueue::new();
            let _qp = listener.accept(&cq).await;
            std::future::pending::<()>().await // keep the server QP alive
        });
        let cq = CompletionQueue::new();
        let qp = {
            let (client, cq) = (client.clone(), cq.clone());
            sim.block_on(async move { client.connect(remote.node, 1, &cq).await })?
        };
        let (small, word, big) = (client.alloc(128)?, client.alloc_aligned(8, 8)?, client.alloc(MIB)?);
        Ok(Verbs { sim, qp, cq, small, word, big, remote })
    }

    fn read_128(&self) -> BatchWr {
        BatchWr::read(1, self.small, self.remote.at(0, 128).expect("in range"))
    }

    /// `n` times: post the chain through `Qp::post_batch` (a lone READ is a
    /// chain of one), await its one CQE.
    fn chain(&self, wrs: Vec<BatchWr>, n: u64) -> impl Future<Output = ()> + 'static {
        let (qp, cq) = (self.qp.clone(), self.cq.clone());
        async move {
            for _ in 0..n {
                qp.post_batch(&wrs).expect("post");
                assert!(cq.next().await.status.is_ok(), "ladder WR failed");
            }
        }
    }
}

/// The `rdma` rungs above the 128 B READ. CAS has no chain form (`BatchOp`
/// lacks one) and goes through `Qp::post_cas`.
fn rdma_rungs(l: &mut Ladder, v: &Verbs) {
    let small_at = v.remote.at(0, 128).expect("in range");
    let write = vec![BatchWr::write(1, v.small, small_at)];
    l.rung(&v.sim, "rdma.ns_per_write_128", "rdma.write_128_sim_ns", SMALL_ITERS, make(|n| v.chain(write.clone(), n)));
    let mib = vec![BatchWr::read(1, v.big, v.remote.at(MIB, MIB).expect("in range"))];
    l.rung(&v.sim, "rdma.ns_per_mib_read", "rdma.mib_read_sim_ns", BULK_ITERS, make(|n| v.chain(mib.clone(), n)));
    // Chains of 16: the last WR signals for all of them.
    let mut sixteen = vec![v.read_128().unsignaled(); 15];
    sixteen.push(v.read_128());
    l.rung(
        &v.sim,
        "rdma.ns_per_batched_wr",
        "rdma.batched_wr_sim_ns",
        SMALL_ITERS / 16,
        make(|n| v.chain(sixteen.clone(), n)),
    );
    l.per(16.0);
    let word_at = v.remote.at(4096, 8).expect("in range");
    let cas = |n| {
        let (qp, cq, word) = (v.qp.clone(), v.cq.clone(), v.word);
        async move {
            for i in 0..n {
                qp.post_cas(1, word, word_at, i, i + 1).expect("post");
                assert!(cq.next().await.status.is_ok(), "ladder CAS failed");
            }
        }
    };
    l.rung(&v.sim, "rdma.ns_per_cas", "rdma.cas_sim_ns", SMALL_ITERS, make(cas));
}

fn boot(clients: usize) -> Result<(Sim, Rc<Cluster>), RStoreError> {
    let cluster = Cluster::boot(ClusterConfig { clients, ..ClusterConfig::with_servers(4) })?;
    Ok((cluster.sim.clone(), Rc::new(cluster)))
}

/// `core.region`: a plain and a checksummed 16 MiB region, filled.
struct Regions {
    sim: Sim,
    plain: Region,
    checked: Region,
    _cluster: Rc<Cluster>,
}

impl Regions {
    fn new() -> Result<Regions, RStoreError> {
        let (sim, cluster) = boot(1)?;
        let opts = AllocOptions { stripe_size: 64 << 10, ..AllocOptions::default() };
        let c = cluster.clone();
        let (plain, checked) = sim.block_on(async move {
            let client = c.client(0).await?;
            let plain = client.alloc("plain", 16 * MIB, opts).await?;
            let checked = client.alloc("checked", 16 * MIB, AllocOptions { checksums: true, ..opts }).await?;
            let fill = vec![0x5Au8; MIB as usize];
            for i in 0..16 {
                plain.write(i * MIB, &fill).await?;
                checked.write(i * MIB, &fill).await?;
            }
            Ok::<_, RStoreError>((plain, checked))
        })?;
        Ok(Regions { sim, plain, checked, _cluster: cluster })
    }

    /// `n` reads of `len` bytes, walking the region.
    fn read(&self, checksummed: bool, len: u64, n: u64) -> impl Future<Output = ()> + 'static {
        let region = if checksummed { self.checked.clone() } else { self.plain.clone() };
        async move {
            for i in 0..n {
                black_box(region.read((i * len) % (16 * MIB), len).await.expect("ladder read"));
            }
        }
    }
}

/// The `core.region` rungs above the 128 B read, `core.crc`, and the slot hash.
fn region_rungs(l: &mut Ladder, r: &Regions) {
    l.rung(
        &r.sim,
        "core.region.ns_per_mib_read",
        "core.region.mib_read_sim_ns",
        BULK_ITERS,
        make(|n| r.read(false, MIB, n)),
    );
    l.rung(
        &r.sim,
        "core.region.ns_per_mib_read_ck",
        "core.region.mib_read_ck_sim_ns",
        BULK_ITERS,
        make(|n| r.read(true, MIB, n)),
    );

    let buf = vec![0xA7u8; MIB as usize];
    for (name, f) in [
        ("core.crc.mib_per_s", (|b: &[u8]| rstore::crc::crc32c(b) as u64) as fn(&[u8]) -> u64),
        ("core.kv.hash_mib_per_s", |b: &[u8]| rstore::kv::hash_key(b)),
    ] {
        let ns_per_mib = l.host_rung(name, BULK_ITERS, |n| {
            for _ in 0..n {
                black_box(f(black_box(&buf)));
            }
        });
        let rung = l.rungs.last_mut().expect("just pushed");
        rung.host = 1e9 / ns_per_mib;
        rung.host_unit = "MiB/s";
    }
}

/// `core.kv`: one table of 1024 keys behind two handles — one with a warm
/// hint cache, one from a client with `kv_hint_capacity: 0`, which must probe.
struct Tables {
    sim: Sim,
    hinted: Rc<KvTable>,
    probing: Rc<KvTable>,
    keys: Rc<Vec<Vec<u8>>>,
    _cluster: Rc<Cluster>,
}

impl Tables {
    const KEYS: u64 = 1024;

    fn new() -> Result<Tables, RStoreError> {
        let keys: Rc<Vec<Vec<u8>>> = Rc::new((0..Self::KEYS).map(|k| format!("k{k:07}").into_bytes()).collect());
        let (sim, cluster) = boot(2)?;
        let (c, k) = (cluster.clone(), keys.clone());
        let (hinted, probing) = sim.block_on(async move {
            let client = c.client(0).await?;
            let cfg = KvConfig { buckets: 1 << 12, slot_bytes: 128, ..KvConfig::default() };
            let table = KvTable::create(&client, "ladder", cfg).await?;
            table.bulk_load(k.iter().map(|key| (key, [key[7]; 64]))).await?;
            let no_hints = ClientConfig { kv_hint_capacity: 0, ..ClientConfig::default() };
            let prober = c.client_with(1, no_hints).await?;
            let probing = KvTable::open(&prober, "ladder", 128, KvConfig::default().max_probe).await?;
            Ok::<_, RStoreError>((Rc::new(table), Rc::new(probing)))
        })?;
        Ok(Tables { sim, hinted, probing, keys, _cluster: cluster })
    }

    /// `n` gets (or puts) cycling over the keys, through the hinted or the
    /// probing handle.
    fn ops(&self, hinted: bool, put: bool, n: u64) -> impl Future<Output = ()> + 'static {
        let table = if hinted { self.hinted.clone() } else { self.probing.clone() };
        let keys = self.keys.clone();
        async move {
            for i in 0..n {
                let k = &keys[(i % Self::KEYS) as usize];
                if put {
                    table.put(k, &[i as u8; 64]).await.expect("ladder put");
                } else {
                    black_box(table.get(k).await.expect("ladder get").expect("loaded key"));
                }
            }
        }
    }
}

/// `core.master` (with `server` and `rpc` under it): allocate, map from a
/// second client, free.
fn master_rung(l: &mut Ladder) -> Result<(), RStoreError> {
    let (sim, cluster) = boot(2)?;
    let (owner, mapper) = {
        let c = cluster.clone();
        sim.block_on(async move { Ok::<_, RStoreError>((c.client(0).await?, c.client(1).await?)) })?
    };
    let cycle = |n| {
        let (owner, mapper) = (owner.clone(), mapper.clone());
        async move {
            for _ in 0..n {
                owner.alloc("ctl", MIB, AllocOptions::default()).await.expect("ladder alloc");
                black_box(mapper.map("ctl").await.expect("ladder map"));
                owner.free("ctl").await.expect("ladder free");
            }
        }
    };
    l.rung(&sim, "core.master.alloc_map_free_us", "core.master.alloc_map_free_sim_us", CTRL_ITERS, make(cycle));
    l.per(1e3);
    let rung = l.rungs.last_mut().expect("just pushed");
    rung.host_unit = "us";
    rung.sim = rung.sim.map(|(name, v, _)| (name, v, "sim_us"));
    Ok(())
}
