//! The fault episode E13, E15 and E17 share: paced, verified KV traffic over
//! a prefilled replicated table while the cluster fails and heals under it.
//!
//! [`run_traffic`] is the one worker loop; [`crash_episode`] wraps it in the
//! one-server-crash run that E13 and E17 record at different levels, and E15
//! calls it from inside its own membership-change setup. Every RNG draw,
//! sleep and spawn here is an experiment output (timer sequence numbers
//! order simultaneous events — DESIGN.md "Event queue"), so a reordering in
//! this file moves three baselines at once.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use fabric::FaultPlan;
use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, RStoreClient, RegionState};
use sim::{DetRng, Sim, SimTime};

/// Concurrent workers. Each owns a disjoint slice of the keys, so a put
/// never races a get on the same slot; there are several so that every
/// fault-era sampling window carries enough ops for its p99 to show a spike.
pub const WORKERS: u64 = 8;
/// Slot size of the episode's tables.
pub const SLOT_BYTES: u64 = 256;
/// Probe bound of the episode's tables.
pub const MAX_PROBE: u64 = 64;
/// Length of the values the stock generators produce.
pub const VALUE_LEN: u64 = 64;
/// Share of a worker's ops that are puts.
const WRITE_FRACTION: f64 = 0.4;
/// Per-worker pause between ops.
const PACE: Duration = Duration::from_millis(2);
/// Pause after a failed attempt, before the next one.
const RETRY_PAUSE: Duration = Duration::from_millis(2);
/// Failed attempts after which an op is given up and counted abandoned.
const MAX_ATTEMPTS: u32 = 200;
/// How often the caller's task checks whether every worker has finished.
const JOIN_POLL: Duration = Duration::from_millis(5);

/// When [`crash_episode`] kills its victim, from the start of the run.
pub const KILL_AT: Duration = Duration::from_millis(150);
const CRASH_WORKLOAD_END: Duration = Duration::from_millis(600);
/// Idle tail of a crash episode, so a sampler closes its trailing windows
/// before `block_on` returns and stops driving events.
const CRASH_COOLDOWN_END: Duration = Duration::from_millis(700);
const CRASH_KEYS: u64 = 128;

/// The table a run works on and the deterministic contents it must hold:
/// key index `k` lives under `key(k)` and always reads `value(k)`. Rewrites
/// are idempotent, so any replica interleaving of a repeated put converges.
#[derive(Clone, Copy, Debug)]
pub struct Keyspace {
    /// Table name.
    pub table: &'static str,
    /// Number of key indices, split evenly over the [`WORKERS`].
    pub keys: u64,
    /// Key bytes of index `k`.
    pub key: fn(u64) -> Vec<u8>,
    /// Value bytes of index `k`.
    pub value: fn(u64) -> Vec<u8>,
}

/// Metric names a run reports each op under, for a `Sampler` to window over.
#[derive(Clone, Copy, Debug)]
pub struct OpSeries {
    /// Counter: ops that reached a good answer.
    pub ops: &'static str,
    /// Counter: attempts that failed.
    pub errors: &'static str,
    /// Histogram: time from an op's first attempt to its good answer, µs —
    /// the client-visible latency, which is what spikes while a region is
    /// degraded and recovers once repair lands.
    pub latency_us: &'static str,
}

/// What one [`run_traffic`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Ops finished (each retried until it succeeded or was abandoned).
    pub ops: u64,
    /// Attempts that surfaced an error to the client.
    pub io_errors: u64,
    /// Gets that returned something other than the key's value.
    pub value_errors: u64,
    /// Ops given up after [`MAX_ATTEMPTS`] failures.
    pub abandoned: u64,
}

/// Virtual time elapsed since the simulation began.
pub(crate) fn since_start(sim: &Sim) -> Duration {
    sim.now().saturating_since(SimTime::ZERO)
}

/// Creates `ks.table` with `buckets` buckets and stores every key's value.
///
/// # Panics
///
/// Panics if the create or a put fails: prefill runs on a healthy cluster.
pub async fn prefill(client: &RStoreClient, ks: Keyspace, buckets: u64, opts: AllocOptions) {
    let cfg = KvConfig {
        buckets,
        slot_bytes: SLOT_BYTES,
        max_probe: MAX_PROBE,
        opts,
    };
    let table = KvTable::create(client, ks.table, cfg)
        .await
        .expect("create");
    for k in 0..ks.keys {
        table
            .put(&(ks.key)(k), &(ks.value)(k))
            .await
            .expect("prefill put");
    }
}

/// Runs [`WORKERS`] paced workers over `ks` until virtual time `end` (from
/// the start of the simulation) and returns once all have finished. Worker
/// `w` opens the table through `clients[w % clients.len()]`, draws from
/// `seed ^ (w + 1)`, and per op picks a key of its slice and put-or-get,
/// then retries until the answer is good: a failed attempt re-opens the
/// table (after a repair the descriptor names the replacement replicas) and
/// pauses. Every get is compared with the key's value.
///
/// # Panics
///
/// Panics if a worker cannot open the table when it starts.
pub async fn run_traffic(
    clients: &[RStoreClient],
    ks: Keyspace,
    seed: u64,
    end: Duration,
    series: Option<OpSeries>,
) -> Totals {
    let sim = clients[0].device().sim().clone();
    let metrics = clients[0].device().metrics();
    let totals = Rc::new(RefCell::new(Totals::default()));
    let done = Rc::new(Cell::new(0u64));
    let keys_per_worker = ks.keys / WORKERS;
    for w in 0..WORKERS {
        let sim2 = sim.clone();
        let m = metrics.clone();
        let client = clients[w as usize % clients.len()].clone();
        let totals = totals.clone();
        let done = done.clone();
        sim.spawn(async move {
            let sim = sim2;
            let mut table = KvTable::open(&client, ks.table, SLOT_BYTES, MAX_PROBE)
                .await
                .expect("open");
            let mut rng = DetRng::new(seed ^ (w + 1));
            while since_start(&sim) < end {
                let k = w * keys_per_worker + rng.range_u64(0, keys_per_worker);
                let write = rng.chance(WRITE_FRACTION);
                let t0 = since_start(&sim);
                let mut attempts = 0u32;
                loop {
                    let result = if write {
                        table.put(&(ks.key)(k), &(ks.value)(k)).await
                    } else {
                        table.get(&(ks.key)(k)).await.map(|got| {
                            if got.as_deref() != Some(&(ks.value)(k)[..]) {
                                totals.borrow_mut().value_errors += 1;
                            }
                        })
                    };
                    match result {
                        Ok(()) => {
                            if let Some(s) = series {
                                let us = (since_start(&sim) - t0).as_micros() as u64;
                                m.incr(s.ops);
                                m.record_value(s.latency_us, us);
                            }
                            break;
                        }
                        Err(_) => {
                            totals.borrow_mut().io_errors += 1;
                            if let Some(s) = series {
                                m.incr(s.errors);
                            }
                            if let Ok(t) =
                                KvTable::open_degraded(&client, ks.table, SLOT_BYTES, MAX_PROBE)
                                    .await
                            {
                                table = t;
                            }
                            sim.sleep(RETRY_PAUSE).await;
                        }
                    }
                    attempts += 1;
                    if attempts > MAX_ATTEMPTS {
                        totals.borrow_mut().abandoned += 1;
                        break;
                    }
                }
                totals.borrow_mut().ops += 1;
                sim.sleep(PACE).await;
            }
            done.set(done.get() + 1);
        });
    }
    while done.get() < WORKERS {
        sim.sleep(JOIN_POLL).await;
    }
    totals.take()
}

fn crash_key(k: u64) -> Vec<u8> {
    format!("k{k:04}").into_bytes()
}

fn crash_value(k: u64) -> Vec<u8> {
    (0..VALUE_LEN)
        .map(|i| ((k * 131 + i * 7 + 13) % 251) as u8)
        .collect()
}

/// A finished [`crash_episode`].
#[derive(Debug)]
pub struct CrashEpisode<R> {
    /// The cluster the episode ran on.
    pub cluster: Cluster,
    /// What the caller's `record` returned.
    pub recording: R,
    /// The traffic's totals.
    pub totals: Totals,
    /// Whether a lookup after the cooldown reported the table `Healthy`.
    pub healthy_after_repair: bool,
}

/// One server crash under traffic: boots 4 servers with fast failure
/// detection, schedules `servers[1]` to crash at [`KILL_AT`], calls `record`
/// (the caller switches on whatever it wants on record), then connects one
/// client, prefills a 2-replica `table`, runs the traffic over the kill and
/// the master's repair, idles through a cooldown and asks whether the table
/// is healthy again. The seed is `base_seed` mixed with `RSTORE_BENCH_SEED`.
pub fn crash_episode<R>(
    base_seed: u64,
    table: &'static str,
    series: Option<OpSeries>,
    record: impl FnOnce(&Cluster) -> R,
) -> CrashEpisode<R> {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::fast_detection(4)
    })
    .expect("boot");
    let seed = crate::experiments::seed_mix(base_seed);
    FaultPlan::new(seed)
        .crash_at(KILL_AT, cluster.servers[1].node())
        .install(&cluster.fabric);
    let recording = record(&cluster);

    let ks = Keyspace {
        table,
        keys: CRASH_KEYS,
        key: crash_key,
        value: crash_value,
    };
    let sim = cluster.sim.clone();
    let dev = cluster.client_devs[0].clone();
    let master = cluster.master_node();
    let (totals, healthy_after_repair) = cluster.sim.block_on(async move {
        let client = RStoreClient::connect(&dev, master).await.expect("connect");
        let opts = AllocOptions {
            stripe_size: 128 * 1024,
            replicas: 2,
            ..AllocOptions::default()
        };
        prefill(&client, ks, 1024, opts).await;
        let clients = std::slice::from_ref(&client);
        let totals = run_traffic(clients, ks, seed, CRASH_WORKLOAD_END, series).await;
        while since_start(&sim) < CRASH_COOLDOWN_END {
            sim.sleep(Duration::from_millis(10)).await;
        }
        let healthy = client
            .lookup(table)
            .await
            .map(|d| d.state == RegionState::Healthy)
            .unwrap_or(false);
        (totals, healthy)
    });
    CrashEpisode {
        cluster,
        recording,
        totals,
        healthy_after_repair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KS: Keyspace = Keyspace {
        table: "ep",
        keys: 2 * WORKERS,
        key: crash_key,
        value: crash_value,
    };

    /// A booted fast-detection cluster and a connected client on its sim.
    fn boot(servers: usize) -> (Cluster, RStoreClient) {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::fast_detection(servers)
        })
        .expect("boot");
        let dev = cluster.client_devs[0].clone();
        let master = cluster.master_node();
        let client = cluster
            .sim
            .block_on(async move { RStoreClient::connect(&dev, master).await })
            .expect("connect");
        (cluster, client)
    }

    /// Every other assertion on these drivers is `value_errors == 0`; this
    /// is the one that sees the comparison fire.
    #[test]
    fn planted_value_is_counted_until_a_put_overwrites_it() {
        const SEED: u64 = 7;
        // Worker 0's first 50 draws, replayed: per key of its slice, the
        // gets ahead of the key's first put are the ones that would read a
        // planted value. Plant under a key that has some and is then put.
        let mut rng = DetRng::new(SEED ^ 1);
        let (mut put, mut early_gets) = ([false; 2], [0u64; 2]);
        for _ in 0..50 {
            let k = rng.range_u64(0, KS.keys / WORKERS) as usize;
            if rng.chance(WRITE_FRACTION) {
                put[k] = true;
            } else if !put[k] {
                early_gets[k] += 1;
            }
        }
        let planted = (0..2)
            .find(|&k| put[k] && early_gets[k] > 0)
            .expect("a key got before it is put") as u64;
        let wrong_gets = early_gets[planted as usize];

        let (cluster, client) = boot(2);
        let sim = cluster.sim.clone();
        let (first, healed, second) = cluster.sim.block_on(async move {
            prefill(&client, KS, 1024, AllocOptions::default()).await;
            let table = KvTable::open(&client, KS.table, SLOT_BYTES, MAX_PROBE)
                .await
                .expect("open");
            table
                .put(&crash_key(planted), &crash_value(planted + 1))
                .await
                .expect("plant");
            let clients = [client];
            let end = since_start(&sim) + Duration::from_millis(200);
            let first = run_traffic(&clients, KS, SEED, end, None).await;
            let healed = table.get(&crash_key(planted)).await.expect("get");
            let end = since_start(&sim) + Duration::from_millis(200);
            let second = run_traffic(&clients, KS, SEED, end, None).await;
            (first, healed, second)
        });
        assert!(first.ops >= 50 * WORKERS, "worker 0 must outrun the replay");
        assert_eq!(first.value_errors, wrong_gets, "each wrong get, once");
        assert_eq!(healed, Some(crash_value(planted)), "the put restored it");
        assert_eq!(second.value_errors, 0, "and nothing is counted after");
        assert_eq!((first.io_errors, first.abandoned), (0, 0));
    }

    #[test]
    fn episode_on_a_table_whose_only_server_is_dead_ends_with_ops_abandoned() {
        let (cluster, client) = boot(1);
        FaultPlan::new(1)
            .crash_at(Duration::from_millis(20), cluster.servers[0].node())
            .install(&cluster.fabric);
        let sim = cluster.sim.clone();
        let totals = cluster.sim.block_on(async move {
            prefill(&client, KS, 1024, AllocOptions::default()).await;
            let end = since_start(&sim) + Duration::from_millis(50);
            run_traffic(&[client], KS, 7, end, None).await
        });
        assert!(totals.abandoned >= 1, "no op can succeed: {totals:?}");
        assert!(totals.io_errors >= totals.abandoned * MAX_ATTEMPTS as u64);
        assert_eq!(totals.value_errors, 0);
    }
}
