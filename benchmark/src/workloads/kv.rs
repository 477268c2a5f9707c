//! `kv_read` and `kv_update`: zipfian point ops on a `KvTable` 64× the
//! default hint cache, so the 1-RTT hinted path and the probe path both run.
//!
//! Why two: per-op software cost dominates both (`sim`, the fabric's
//! small-message path, `rdma` posting and `core.kv` do the work; bulk fabric
//! scheduling and `core.crc` do none). `kv_update` drives the same layers
//! for writes — CAS lock + publishing write, stale hints and lock waits on
//! hot keys — so a read-path gain that costs writers shows.

use std::collections::HashMap;
use std::rc::Rc;

use rstore::{Cluster, ClusterConfig, KvConfig, KvTable};
use sim::{DetRng, Sim};
use workload::Zipf;

use super::{mix_seed, self_test_hits, ClientLog, OpRec, Pass, Registry, Workload, MAX_ATTEMPTS, WARMUP};
use crate::host::measured;
use crate::spans::host_ns;

const SERVERS: usize = 4;
const CLIENTS: usize = 16;
const KEYS: usize = 1 << 18;
const BUCKETS: u64 = 1 << 19;
const SLOT_BYTES: u64 = 128;
const MAX_PROBE: u64 = 64;
const VALUE_BYTES: usize = 64;
/// YCSB's default zipfian skew.
const THETA: f64 = 0.99;
const TABLE: &str = "bench";
const KINDS: [&str; 2] = ["get", "put"];
const GET: u8 = 0;
const PUT: u8 = 1;
/// Script entries are key indices; this bit marks a put.
const PUT_BIT: u32 = 1 << 31;

/// The two mixes.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    name: &'static str,
    read_fraction: f64,
    ops_per_client: usize,
    /// Enough for every client to draw more distinct keys than its hint
    /// cache holds, so measured passes start at the steady hit ratio.
    warmup_ops_per_client: usize,
}

/// 100 % get.
pub const READ: Mix =
    Mix { name: "kv_read", read_fraction: 1.0, ops_per_client: 30_000, warmup_ops_per_client: 10_000 };

/// 50 % get / 50 % put (YCSB-A); half the ops because a put costs twice a get.
pub const UPDATE: Mix =
    Mix { name: "kv_update", read_fraction: 0.5, ops_per_client: 15_000, warmup_ops_per_client: 5_000 };

type Key = [u8; 8];
type Value = [u8; VALUE_BYTES];
/// One pass's scripts: per client, one entry per op.
type Scripts = Vec<Vec<u32>>;

fn key(k: usize) -> Key {
    let mut out = *b"k0000000";
    let mut k = k;
    for d in out[1..].iter_mut().rev() {
        *d = b'0' + (k % 10) as u8;
        k /= 10;
    }
    out
}

/// The value a put tagged `nonce` stores under key `k` (nonce 0 is the
/// bulk load). Self-describing — key index, nonce, then 48 bytes derived
/// from both — so a reader can check all 64 bytes of whatever version it
/// sees, and a torn or misdirected read cannot pass.
fn value(k: u32, nonce: u64) -> Value {
    let mut out = [0u8; VALUE_BYTES];
    out[..8].copy_from_slice(&(k as u64).to_le_bytes());
    out[8..16].copy_from_slice(&nonce.to_le_bytes());
    let mut x = (k as u64) ^ nonce.rotate_left(32) ^ 0x5EED_5EED_5EED_5EED;
    for word in out[16..].chunks_exact_mut(8) {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        word.copy_from_slice(&x.to_le_bytes());
    }
    out
}

/// Nonce of the put at (`script`, `client`, `op`); never 0.
fn nonce(script: u32, client: usize, op: usize) -> u64 {
    ((script as u64 + 1) << 40) | ((client as u64) << 24) | op as u64
}

/// The client that issued the put tagged `tag` (not the bulk load's 0).
fn writer(tag: u64) -> usize {
    (tag >> 24) as usize & 0xFFFF
}

/// One client's reading of key `k`, and what it may see.
struct Reading<'a> {
    client: usize,
    k: u32,
    got: Option<&'a [u8]>,
    /// Nonce of this client's last acknowledged put to `k`, if it has one.
    own_last: Option<u64>,
}

/// Checks a value read under a key byte for byte. Beyond matching its own
/// header, its nonce must name a put this run really issued to the key; and
/// a client reads its own writes: once its put is acknowledged, it may see
/// that put or another client's, never the bulk load or an older put of
/// its own.
fn check_value(r: &Reading, history: &[(u32, Rc<Scripts>)], flip: bool) -> Result<(), String> {
    let k = r.k;
    let name = String::from_utf8_lossy(&key(k as usize)).into_owned();
    let got = r.got.ok_or(format!("key {name}: get returned None for a loaded key"))?;
    if got.len() != VALUE_BYTES {
        return Err(format!("key {name}: value is {} bytes, want {VALUE_BYTES}", got.len()));
    }
    let tag = u64::from_le_bytes(got[8..16].try_into().expect("8 bytes"));
    let mut want = value(k, tag);
    if flip {
        want[20] ^= 1;
    }
    if let Some(i) = (0..VALUE_BYTES).find(|&i| got[i] != want[i]) {
        return Err(format!("key {name}: value byte {i} is {:#04x}, want {:#04x} (nonce {tag:#x})", got[i], want[i]));
    }
    if tag != 0 {
        let (script, op) = (((tag >> 40) as u32).wrapping_sub(1), tag as usize & 0xFF_FFFF);
        let issued = history
            .iter()
            .find(|(p, _)| *p == script)
            .and_then(|(_, scripts)| scripts.get(writer(tag))?.get(op).copied());
        if issued != Some(k | PUT_BIT) {
            return Err(format!("key {name}: nonce {tag:#x} names no put to this key"));
        }
    }
    let stale = match r.own_last {
        Some(last) => tag == 0 || (writer(tag) == r.client && tag != last),
        None => tag != 0 && writer(tag) == r.client,
    };
    if stale {
        return Err(format!(
            "key {name}: stale read: nonce {tag:#x}, but client {}'s last acknowledged put there is {:#x}",
            r.client,
            r.own_last.unwrap_or(0)
        ));
    }
    Ok(())
}

/// One client's table handle and the nonce of its last acknowledged put per
/// key (what [`check_value`] holds its reads against).
struct Endpoint {
    table: KvTable,
    own: HashMap<u32, u64>,
}

struct State {
    sim: Sim,
    cluster: Rc<Cluster>,
    endpoints: Vec<Endpoint>,
    /// Scripts this process has run (warm-up, measured), by script index.
    history: Vec<(u32, Rc<Scripts>)>,
}

/// A KV workload (see the module docs).
pub struct Kv {
    mix: Mix,
    seed: u64,
    self_test: bool,
    keys: Rc<Vec<Key>>,
    state: Option<State>,
}

impl Kv {
    pub fn new(mix: Mix, seed: u64, self_test: bool) -> Kv {
        Kv { mix, seed, self_test, keys: Rc::new((0..KEYS).map(key).collect()), state: None }
    }

    /// Per client: zipfian keys, and exactly the mix's share of puts at
    /// shuffled positions (seeds differ in which ops write, not in how many).
    fn draw_scripts(&self, script: u32) -> Scripts {
        let mut zipf = Zipf::new(KEYS, THETA, mix_seed(self.seed, script, 0));
        let mut rng = DetRng::new(mix_seed(self.seed, script, 1));
        let ops = if script == WARMUP { self.mix.warmup_ops_per_client } else { self.mix.ops_per_client };
        let gets = (ops as f64 * self.mix.read_fraction).round() as usize;
        (0..CLIENTS)
            .map(|_| {
                let mut script: Vec<u32> = (0..ops).map(|i| if i < gets { 0 } else { PUT_BIT }).collect();
                rng.shuffle(&mut script);
                for entry in &mut script {
                    *entry |= zipf.next() as u32;
                }
                script
            })
            .collect()
    }

    /// Runs one closed-loop pass over script `script` ([`WARMUP`] or the
    /// index of a measured pass).
    fn run(&mut self, script: u32, traced: bool) -> Result<Pass, String> {
        let scripts = Rc::new(self.draw_scripts(script));
        let st = self.state.as_mut().ok_or("pass before setup")?;
        st.history.push((script, scripts.clone()));
        let history: Rc<[(u32, Rc<Scripts>)]> = st.history.clone().into();
        let metrics = st.cluster.client_devs[0].metrics();
        metrics.reset();

        let sim = st.sim.clone();
        let mut endpoints = std::mem::take(&mut st.endpoints);
        for (ep, script) in endpoints.iter_mut().zip(scripts.iter()) {
            // Room for every put of the pass, so the oracle's bookkeeping
            // allocates nothing inside the measured window.
            ep.own.reserve(script.iter().filter(|&&e| e & PUT_BIT != 0).count());
        }
        let keys = self.keys.clone();
        let self_test = self.self_test;
        let mix_name = self.mix.name;
        let (out, host) = measured(|| {
            st.sim.block_on(async move {
                let virt_start_ns = sim.now().as_nanos();
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(c, mut ep)| {
                        let (sim, keys, scripts, history) = (sim.clone(), keys.clone(), scripts.clone(), history.clone());
                        sim.clone().spawn(async move {
                            let ops = &scripts[c];
                            let mut log = ClientLog { recs: Vec::with_capacity(ops.len()), ..ClientLog::default() };
                            for (i, &entry) in ops.iter().enumerate() {
                                let k = entry & !PUT_BIT;
                                let kind = if entry & PUT_BIT != 0 { PUT } else { GET };
                                let host_start_ns = if traced { host_ns() } else { 0 };
                                let virt_start_ns = sim.now().as_nanos();
                                let mut tries = 0;
                                loop {
                                    log.attempts += 1;
                                    tries += 1;
                                    let key = &keys[k as usize];
                                    let result = if kind == PUT {
                                        ep.table.put(key, &value(k, nonce(script, c, i))).await
                                    } else {
                                        match ep.table.get(key).await {
                                            Ok(got) => {
                                                let reading = Reading {
                                                    client: c,
                                                    k,
                                                    got: got.as_deref(),
                                                    own_last: ep.own.get(&k).copied(),
                                                };
                                                let flip = self_test_hits(self_test, script, c, i);
                                                if let Err(e) = check_value(&reading, &history, flip) {
                                                    return (ep, log, Err(format!("{mix_name}: client {c} op {i}: {e}")));
                                                }
                                                Ok(())
                                            }
                                            Err(e) => Err(e),
                                        }
                                    };
                                    match result {
                                        Ok(()) => break,
                                        Err(e) if tries >= MAX_ATTEMPTS => {
                                            let name = String::from_utf8_lossy(key);
                                            return (ep, log, Err(format!(
                                                "{mix_name}: client {c} op {i} on key {name} abandoned after {tries} attempts: {e}"
                                            )));
                                        }
                                        Err(_) => log.errors += 1,
                                    }
                                }
                                if kind == PUT {
                                    ep.own.insert(k, nonce(script, c, i));
                                }
                                log.recs.push(OpRec {
                                    kind,
                                    bytes: VALUE_BYTES as u32,
                                    virt_start_ns,
                                    virt_end_ns: sim.now().as_nanos(),
                                    host_start_ns,
                                    host_end_ns: if traced { host_ns() } else { 0 },
                                });
                            }
                            (ep, log, Ok(()))
                        })
                    })
                    .collect();
                let done = sim::join_all(handles).await;
                (done, virt_start_ns, sim.now().as_nanos())
            })
        })?;
        let (done, virt_start_ns, virt_end_ns) = out;

        let mut logs = Vec::with_capacity(CLIENTS);
        let mut first_error = Ok(());
        for (ep, log, result) in done {
            st.endpoints.push(ep);
            logs.push(log);
            first_error = first_error.and(result);
        }
        first_error?;
        Ok(Pass {
            logs,
            virt_start_ns,
            virt_end_ns,
            host,
            registry: Registry::read(&metrics, (1 + SERVERS + CLIENTS) as u32),
            live_tasks_end: st.sim.live_tasks() as u64,
            chaos: None,
        })
    }
}

impl Workload for Kv {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn setup(&mut self) -> Result<(), String> {
        let cluster = Cluster::boot(ClusterConfig { clients: CLIENTS, ..ClusterConfig::with_servers(SERVERS) })
            .map_err(|e| format!("boot: {e}"))?;
        let sim = cluster.sim.clone();
        let cluster = Rc::new(cluster);
        let c = cluster.clone();
        let keys = self.keys.clone();
        let endpoints = sim.block_on(async move {
            let creator = c.client(0).await.map_err(|e| format!("connect: {e}"))?;
            let table = KvTable::create(
                &creator,
                TABLE,
                KvConfig { buckets: BUCKETS, slot_bytes: SLOT_BYTES, max_probe: MAX_PROBE, ..KvConfig::default() },
            )
            .await
            .map_err(|e| format!("create: {e}"))?;
            let loaded = table
                .bulk_load(keys.iter().enumerate().map(|(k, key)| (*key, value(k as u32, 0))))
                .await
                .map_err(|e| format!("bulk_load: {e}"))?;
            if loaded != KEYS as u64 {
                return Err(format!("bulk_load placed {loaded} of {KEYS} keys"));
            }
            drop(table);
            let mut endpoints = Vec::with_capacity(CLIENTS);
            for i in 0..CLIENTS {
                let client = c.client(i).await.map_err(|e| format!("connect {i}: {e}"))?;
                let table =
                    KvTable::open(&client, TABLE, SLOT_BYTES, MAX_PROBE).await.map_err(|e| format!("open {i}: {e}"))?;
                endpoints.push(Endpoint { table, own: HashMap::new() });
            }
            Ok::<_, String>(endpoints)
        })?;
        self.state = Some(State { sim, cluster, endpoints, history: Vec::new() });
        // Warm-up: dials data QPs and fills the hint caches.
        self.run(WARMUP, false).map(|_| ())
    }

    fn measure(&mut self, pass: u32, traced: bool) -> Result<Pass, String> {
        self.run(pass, traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_decimal() {
        assert_eq!(&key(0), b"k0000000");
        assert_eq!(&key(262_143), b"k0262143");
    }

    fn reading(client: usize, k: u32, got: Option<&[u8]>, own_last: Option<u64>) -> Reading<'_> {
        Reading { client, k, got, own_last }
    }

    #[test]
    fn values_check_byte_for_byte() {
        let scripts: Scripts = vec![vec![7 | PUT_BIT, 9]];
        let history = vec![(0, Rc::new(Vec::new())), (1, Rc::new(scripts))];
        // Client 1 reads; client 0 is the one that wrote.
        let check = |k, got: Option<&[u8]>, flip| check_value(&reading(1, k, got, None), &history, flip);
        assert!(check(7, Some(&value(7, 0)), false).is_ok());
        let tag = nonce(1, 0, 0);
        assert!(check(7, Some(&value(7, tag)), false).is_ok());
        // A put that was never issued, a wrong key, a flipped byte, a miss.
        assert!(check(9, Some(&value(9, nonce(1, 0, 1))), false).is_err());
        assert!(check(8, Some(&value(7, 0)), false).is_err());
        let mut torn = value(7, 0);
        torn[63] ^= 0x80;
        let err = check(7, Some(&torn), false).unwrap_err();
        assert!(err.contains("k0000007") && err.contains("byte 63"), "{err}");
        assert!(check(7, None, false).is_err());
        // The self-test's flipped expectation rejects a correct value.
        let err = check(7, Some(&value(7, 0)), true).unwrap_err();
        assert!(err.contains("byte 20"), "{err}");
    }

    #[test]
    fn a_client_reads_its_own_writes() {
        // Client 0 put key 7 twice; client 1 put it once.
        let scripts: Scripts = vec![vec![7 | PUT_BIT, 7 | PUT_BIT], vec![7 | PUT_BIT]];
        let history = vec![(1, Rc::new(scripts))];
        let (first, second, other) = (nonce(1, 0, 0), nonce(1, 0, 1), nonce(1, 1, 0));
        let check = |tag, own_last| check_value(&reading(0, 7, Some(&value(7, tag)), own_last), &history, false);
        // After its second put is acknowledged, client 0 may see that put
        // or client 1's, but neither its first put nor the bulk load.
        assert!(check(second, Some(second)).is_ok());
        assert!(check(other, Some(second)).is_ok());
        assert!(check(first, Some(second)).unwrap_err().contains("stale read"));
        assert!(check(0, Some(second)).unwrap_err().contains("stale read"));
        // Before any acknowledged put of its own, its own nonce is no valid sight.
        assert!(check(0, None).is_ok());
        assert!(check(first, None).unwrap_err().contains("stale read"));
    }

    #[test]
    fn scripts_depend_on_seed_and_pass_only() {
        let a = Kv::new(UPDATE, 11, false);
        let b = Kv::new(UPDATE, 11, false);
        assert_eq!(a.draw_scripts(1), b.draw_scripts(1));
        assert_ne!(a.draw_scripts(1), a.draw_scripts(2));
        assert_ne!(a.draw_scripts(1), Kv::new(UPDATE, 12, false).draw_scripts(1));
        let s = a.draw_scripts(1);
        assert_eq!((s.len(), s[0].len()), (CLIENTS, UPDATE.ops_per_client));
        for script in &s {
            let puts = script.iter().filter(|&&e| e & PUT_BIT != 0).count();
            assert_eq!(puts, UPDATE.ops_per_client / 2, "the put share is exact");
        }
    }
}
