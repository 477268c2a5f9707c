//! E14 — YCSB-style KV mixes at a million keys: what the client-cached
//! index buys under zipfian skew.
//!
//! A 2^20-key table (2^21 buckets) takes three classic mixes from 112
//! concurrent client machines, each running a pre-drawn zipfian op script
//! (θ = 0.99, YCSB default): **A** 50/50 read/update, **B** 95/5, **C**
//! read-only. Every mix runs twice — an identical warmup pass that
//! populates each client's hint cache, then a measured pass over a reset
//! metrics registry — so the exported per-op ledger shows the *warm*
//! communication cost of the fleet: `rtts_per_op`, doorbells, and bytes
//! per `get`/`put`, plus the `kv.index.*` hit/miss/invalidation counters.
//!
//! An auxiliary **warm-probe** phase makes the headline invariants exact
//! rather than statistical: a single client measures one hinted `get`,
//! `put`, and `delete` in isolation — the ledger must read exactly 1 RTT /
//! 1 doorbell for the get and 2 RTTs for the mutations — and, on a cold
//! handle, one `get` of a key 6 slots past its home in a side table: the
//! home slot, then one READ window for the rest of the chain = 2 RTTs.
//!
//! Values are a deterministic function of the key, so every read is
//! verified byte-for-byte (`data_errors` must stay 0), and the whole run
//! is seeded: two runs export byte-identical JSON.

use std::cell::RefCell;
use std::rc::Rc;

use rstore::kv::hash_key;
use rstore::{Cluster, ClusterConfig, KvConfig, KvTable};
use sim::{DetRng, Level, OpSummary};
use workload::Zipf;

use crate::report::{export_fields, op_row, Entry};
use crate::table::Table;

const SEED: u64 = 0xE14;
/// Keys in the main table.
const KEYS: u64 = 1 << 20;
/// Buckets in the main table (load factor 0.5).
const BUCKETS: u64 = 1 << 21;
const SLOT_BYTES: u64 = 128;
const MAX_PROBE: u64 = 64;
/// Concurrent client machines in the mix phases.
const CLIENTS: usize = 112;
/// Ops per client per mix (per pass).
const OPS_PER_CLIENT: usize = 60;
const VALUE_BYTES: u64 = 64;
/// YCSB's default zipfian skew.
const THETA: f64 = 0.99;
/// The three mixes: (name, fraction of ops that are reads).
const MIXES: [(&str, f64); 3] = [("A", 0.5), ("B", 0.95), ("C", 1.0)];
/// Most round trips any warmed put of mix A may take. A writer's lost lock
/// rounds back off by how many it has lost, so the herd on mix A's hottest
/// keys thins out instead of re-CASing every few µs (it took up to 178 RTTs
/// behind a flat 2 µs backoff, 23 since).
pub const PUT_RTTS_MAX_A: u64 = 32;

/// One measured mix.
#[derive(Clone, Debug, PartialEq)]
pub struct MixStats {
    /// Mix name (`A`/`B`/`C`).
    pub name: &'static str,
    /// Fraction of ops that are reads.
    pub read_fraction: f64,
    /// Ops completed in the measured pass.
    pub ops_total: u64,
    /// Reads whose value mismatched the deterministic pattern. Must be 0.
    pub value_errors: u64,
    /// Fleet throughput over the measured pass, ops per virtual second.
    pub ops_per_sec: f64,
    /// The cached index's counters over the measured pass.
    pub index: IndexCounts,
    /// Fleet-wide per-op cost attribution for the measured pass.
    pub per_op: Vec<OpSummary>,
}

export_fields!(MixStats: name, read_fraction, ops_total, value_errors, ops_per_sec, index, per_op);

impl MixStats {
    /// The ledger row for `op`, if the mix issued any.
    pub fn row(&self, op: &str) -> Option<&OpSummary> {
        op_row(&self.per_op, op)
    }
}

/// The `kv.index.*` counters of one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexCounts {
    /// Cached-index hits (hint led straight to the entry).
    pub hit: u64,
    /// Ops that started without a usable hint.
    pub miss: u64,
    /// Hints found stale (the slot's key changed) and dropped.
    pub stale: u64,
    /// Hints dropped by delete/error invalidation.
    pub invalidate: u64,
    /// Hints evicted by capacity pressure.
    pub evict: u64,
}

export_fields!(IndexCounts: hit, miss, stale, invalidate, evict);

/// The isolated warm-path measurement (exact, not statistical).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmProbe {
    /// Round trips of one hinted get. Must be 1.
    pub get_rtts: u64,
    /// Doorbells of one hinted get. Must be 1.
    pub get_doorbells: u64,
    /// Round trips of one hinted put (CAS + publishing write). Must be 2.
    pub put_rtts: u64,
    /// Doorbells of one hinted put. Must be 2.
    pub put_doorbells: u64,
    /// Round trips of one hinted delete (CAS + tombstone write). Must be 2.
    pub delete_rtts: u64,
    /// Round trips of one cold get of a key 6 slots past its home: the home
    /// slot alone, then one READ window that covers the rest. Must be 2.
    pub cold_chain_get_rtts: u64,
}

export_fields!(WarmProbe: get_rtts, get_doorbells, put_rtts, put_doorbells, delete_rtts,
    cold_chain_get_rtts);

/// Aggregate E14 results.
#[derive(Clone, Debug, PartialEq)]
pub struct YcsbStats {
    /// Keys in the main table.
    pub keys: u64,
    /// Client machines in the mix phases.
    pub clients: u64,
    /// Ops per client per mix.
    pub ops_per_client: u64,
    /// One entry per mix in `MIXES` order.
    pub mixes: Vec<MixStats>,
    /// The exact warm-path costs.
    pub warm_probe: WarmProbe,
    /// Total verified-read mismatches across all phases. Must be 0.
    pub data_errors: u64,
}

export_fields!(YcsbStats: keys, clients, ops_per_client, mixes, warm_probe, data_errors);

/// E14's report entry from one measurement: the `ycsb` block, and the
/// asserts that every read was exact and that the warm paths cost the
/// paper's round trips.
pub fn entry(s: &YcsbStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("ycsb", s);
    let a = &mut e.asserts;
    a.eq("data_errors", s.data_errors, 0);
    a.eq("warm_get_rtts", s.warm_probe.get_rtts, 1);
    a.eq("warm_get_doorbells", s.warm_probe.get_doorbells, 1);
    a.eq("cold_chain_get_rtts", s.warm_probe.cold_chain_get_rtts, 2);
    a.eq("warm_put_rtts", s.warm_probe.put_rtts, 2);
    a.eq("warm_delete_rtts", s.warm_probe.delete_rtts, 2);
    // Readers read through locks: no warmed get waits on a writer. A slot's
    // version moves only when its key changes, and the mixes only update:
    // no warmed hint goes stale, however hot its key.
    for x in &s.mixes {
        let get_max = x.row("get").map_or(0, |r| r.rtts_max);
        a.eq(&format!("get.rtts_per_op.max@{}", x.name), get_max, 1);
        a.eq(&format!("index.stale@{}", x.name), x.index.stale, 0);
    }
    // Lost lock rounds back off by rounds lost: mix A's herd thins out.
    let mix_a = s.mixes.iter().find(|x| x.name == "A");
    let put_max = mix_a.and_then(|x| x.row("put")).map_or(0, |r| r.rtts_max);
    let bound = PUT_RTTS_MAX_A as f64;
    a.at_most("put.rtts_per_op.max@A", put_max as f64, bound);
    e
}

/// The deterministic value stored under key index `k`.
fn value(k: u64) -> Vec<u8> {
    (0..VALUE_BYTES)
        .map(|i| ((k.wrapping_mul(131) + i * 7 + 13) % 251) as u8)
        .collect()
}

fn key(k: u64) -> Vec<u8> {
    format!("y{k:07}").into_bytes()
}

/// Runs the full scenario once.
pub fn measure() -> YcsbStats {
    let cluster = Cluster::boot(ClusterConfig {
        clients: CLIENTS,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    let metrics = cluster.client_devs[0].metrics();
    let seed = super::seed_mix(SEED);

    // Pre-draw every client's op script for every mix from one sampler, so
    // the access pattern is independent of task interleaving.
    let mut zipf = Zipf::new(KEYS as usize, THETA, seed);
    let mut rng = DetRng::new(seed ^ 0x5c21);
    let scripts: Vec<Vec<Vec<(bool, u64)>>> = MIXES
        .iter()
        .map(|&(_, read_frac)| {
            (0..CLIENTS)
                .map(|_| {
                    (0..OPS_PER_CLIENT)
                        .map(|_| (!rng.chance(read_frac), zipf.next() as u64))
                        .collect()
                })
                .collect()
        })
        .collect();

    let m = metrics.clone();
    let s = sim.clone();
    sim.block_on(async move {
        let sim = s;
        let creator = cluster.client(0).await.expect("client");
        let table = KvTable::create(
            &creator,
            "e14",
            KvConfig {
                buckets: BUCKETS,
                slot_bytes: SLOT_BYTES,
                max_probe: MAX_PROBE,
                ..KvConfig::default()
            },
        )
        .await
        .expect("create");
        let loaded = table
            .bulk_load((0..KEYS).map(|k| (key(k), value(k))))
            .await
            .expect("bulk load");
        assert_eq!(loaded, KEYS, "prefill must cover the keyspace");
        drop(table);

        // One handle per client machine, reused across all mixes so hint
        // caches stay warm the way a real fleet's would.
        let mut tables = Vec::with_capacity(CLIENTS);
        for i in 0..CLIENTS {
            let client = cluster.client(i).await.expect("client");
            tables.push(
                KvTable::open(&client, "e14", SLOT_BYTES, MAX_PROBE)
                    .await
                    .expect("open"),
            );
        }

        let mut mixes = Vec::new();
        for (mix_idx, &(name, read_frac)) in MIXES.iter().enumerate() {
            // Warmup pass: the identical script, so every key a client is
            // about to touch has a hint by the measured pass.
            for pass in 0..2u32 {
                let measured = pass == 1;
                if measured {
                    m.reset();
                }
                let errors = Rc::new(RefCell::new(0u64));
                let t0 = sim.now();
                let mut handles = Vec::with_capacity(CLIENTS);
                for (i, table) in tables.drain(..).enumerate() {
                    let script = scripts[mix_idx][i].clone();
                    let errors = errors.clone();
                    handles.push(sim.spawn(async move {
                        for &(is_put, k) in &script {
                            if is_put {
                                table.put(&key(k), &value(k)).await.expect("put");
                            } else {
                                let got = table.get(&key(k)).await.expect("get");
                                if got.as_deref() != Some(&value(k)[..]) {
                                    *errors.borrow_mut() += 1;
                                }
                            }
                        }
                        table
                    }));
                }
                tables = sim::join_all(handles).await;
                if measured {
                    let elapsed = (sim.now() - t0).as_secs_f64();
                    let ops_total = (CLIENTS * OPS_PER_CLIENT) as u64;
                    mixes.push(MixStats {
                        name,
                        read_fraction: read_frac,
                        ops_total,
                        value_errors: *errors.borrow(),
                        ops_per_sec: ops_total as f64 / elapsed,
                        index: IndexCounts {
                            hit: m.counter("kv.index.hit"),
                            miss: m.counter("kv.index.miss"),
                            stale: m.counter("kv.index.stale"),
                            invalidate: m.counter("kv.index.invalidate"),
                            evict: m.counter("kv.index.evict"),
                        },
                        per_op: sim::ledger::summarize(&m),
                    });
                }
            }
        }
        drop(tables);

        // Warm-probe: one op of each kind, alone on a reset registry, on a
        // fresh handle.
        let wp = KvTable::open(&creator, "e14", SLOT_BYTES, MAX_PROBE)
            .await
            .expect("open");
        wp.put(b"warmprobe", b"wp").await.expect("put");
        assert_eq!(
            wp.get(b"warmprobe").await.expect("get").as_deref(),
            Some(&b"wp"[..])
        );
        let one = |label: &str| {
            let ops = sim::ledger::summarize(&m);
            let row = ops
                .iter()
                .find(|s| s.op == label)
                .unwrap_or_else(|| panic!("warm probe must record a {label}"))
                .clone();
            assert_eq!(row.count, 1);
            row
        };
        m.reset();
        wp.get(b"warmprobe").await.expect("warm get");
        let g = one("get");
        m.reset();
        wp.put(b"warmprobe", b"w2").await.expect("warm put");
        let p = one("put");
        m.reset();
        assert!(wp.delete(b"warmprobe").await.expect("warm delete"));
        let d = one("delete");

        // Cold chain: seven keys crafted to share home slot 0 of a side
        // table, so the last one sits 6 slots past its home; a fresh handle
        // has no hint for it.
        let chain_cfg = KvConfig {
            buckets: 64,
            slot_bytes: SLOT_BYTES,
            max_probe: MAX_PROBE,
            ..KvConfig::default()
        };
        let chain = KvTable::create(&creator, "e14c", chain_cfg)
            .await
            .expect("create");
        let chained: Vec<Vec<u8>> = (0u64..)
            .map(key)
            .filter(|k| hash_key(k) & 63 == 0)
            .take(7)
            .collect();
        for k in &chained {
            chain.put(k, b"chain").await.expect("put");
        }
        let cold = KvTable::open(&creator, "e14c", SLOT_BYTES, MAX_PROBE)
            .await
            .expect("open");
        m.reset();
        let got = cold.get(&chained[6]).await.expect("cold get");
        assert_eq!(got.as_deref(), Some(&b"chain"[..]));
        let c = one("get");
        let warm_probe = WarmProbe {
            get_rtts: g.rtts_max,
            get_doorbells: g.doorbells_max,
            put_rtts: p.rtts_max,
            put_doorbells: p.doorbells_max,
            delete_rtts: d.rtts_max,
            cold_chain_get_rtts: c.rtts_max,
        };

        let data_errors = mixes.iter().map(|x| x.value_errors).sum::<u64>();
        YcsbStats {
            keys: KEYS,
            clients: CLIENTS as u64,
            ops_per_client: OPS_PER_CLIENT as u64,
            mixes,
            warm_probe,
            data_errors,
        }
    })
}

/// Renders E14's tables from one measurement.
pub fn tables(s: &YcsbStats) -> Vec<Table> {
    let mut t = Table::new(
        "E14: YCSB zipfian mixes, 2^20 keys, 112 clients, cached index (warm passes)",
        &[
            "mix",
            "reads",
            "ops",
            "kops/s",
            "get RTTs p50/max",
            "put RTTs p50/max",
            "hint hit rate",
        ],
    );
    for x in &s.mixes {
        let fmt_op = |row: Option<&OpSummary>| match row {
            Some(r) => format!("{}/{}", r.rtts_p50, r.rtts_max),
            None => "-".to_string(),
        };
        let looked = x.index.hit + x.index.miss + x.index.stale;
        t.row(vec![
            x.name.to_string(),
            format!("{:.0}%", x.read_fraction * 100.0),
            x.ops_total.to_string(),
            format!("{:.0}", x.ops_per_sec / 1e3),
            fmt_op(x.row("get")),
            fmt_op(x.row("put")),
            format!("{:.1}%", x.index.hit as f64 / looked.max(1) as f64 * 100.0),
        ]);
    }
    t.note(format!(
        "warm probe (exact): get {} RTT / {} doorbell, put {} RTTs, delete {} RTTs; \
         cold get 6 slots past home {} RTTs; data errors {}",
        s.warm_probe.get_rtts,
        s.warm_probe.get_doorbells,
        s.warm_probe.put_rtts,
        s.warm_probe.delete_rtts,
        s.warm_probe.cold_chain_get_rtts,
        s.data_errors
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_paths_hit_paper_rtt_budgets_at_scale() {
        let s = measure();
        // The headline invariants, exact by construction.
        assert_eq!(
            (s.warm_probe.get_rtts, s.warm_probe.get_doorbells),
            (1, 1),
            "warm cached-index get must be one one-sided READ"
        );
        assert_eq!(
            (s.warm_probe.put_rtts, s.warm_probe.put_doorbells),
            (2, 2),
            "warm put is CAS + publishing write"
        );
        assert_eq!(
            s.warm_probe.delete_rtts, 2,
            "warm delete is CAS + tombstone"
        );
        assert_eq!(
            s.warm_probe.cold_chain_get_rtts, 2,
            "a cold walk reads the home slot, then one window"
        );
        assert_eq!(s.data_errors, 0, "verified reads must match the pattern");

        // Fleet invariants under zipfian contention: every warmed read is
        // one RTT in every mix — readers read through locks — and the index
        // absorbs the overwhelming majority of lookups.
        for x in &s.mixes {
            assert_eq!(x.ops_total, (CLIENTS * OPS_PER_CLIENT) as u64);
            let get = x.row("get").expect("every mix reads");
            assert_eq!(get.rtts_max, 1, "mix {}: every warmed get", x.name);
            // A slot's version moves only when its key changes, and the
            // mixes only update: another client's update leaves a hot key's
            // hint valid, so a warmed pass never misses the index.
            assert_eq!(
                (x.index.miss, x.index.stale),
                (0, 0),
                "mix {}: a warmed pass never misses the index",
                x.name
            );
            if x.name == "C" {
                assert!(x.row("put").is_none(), "mix C is read-only");
            } else {
                let put = x.row("put").expect("mixes A/B write");
                assert!(
                    put.rtts_p50 <= 3,
                    "mix {}: put p50 {} should stay near the warm cost",
                    x.name,
                    put.rtts_p50
                );
                if x.name == "A" {
                    assert!(
                        put.rtts_max <= PUT_RTTS_MAX_A,
                        "mix A: a put took {} RTTs",
                        put.rtts_max
                    );
                }
            }
        }

        // The report entry carries the structure `bench check` and the
        // ledger readers depend on, and every assert in it passes. Its
        // byte-identity across runs is CI's exact `bench diff` of the suite
        // against BENCH_seed.json.
        let json = entry(&s).json("e14").render();
        crate::json::validate(&json).expect("e14 report must be valid JSON");
        for field in [
            "\"ycsb\"",
            "\"mixes\"",
            "\"warm_probe\"",
            "\"get_rtts\"",
            "\"put_rtts\"",
            "\"cold_chain_get_rtts\"",
            "\"data_errors\"",
            "\"rtts_per_op\"",
            "\"doorbells_per_op\"",
        ] {
            assert!(json.contains(field), "e14 export must carry {field}");
        }
        assert!(
            !json.contains("\"pass\": false"),
            "an E14 assert failed:\n{json}"
        );
    }
}
