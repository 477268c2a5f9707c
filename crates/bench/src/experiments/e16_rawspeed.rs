//! E16 — the raw-speed per-op software path: what scatter-gather WRs,
//! inline small WRITEs, and the sliced checksum/hash kernels buy.
//!
//! Three deterministic arms plus one wall-clock µ-bench:
//!
//! * **scatter-gather**: a 16-piece striped IO posts one multi-element WR
//!   per QP, not one WR per piece — doorbells per IO equal the QP count,
//!   and so does the number of `post_overhead` charges the ledger
//!   attributes to posting.
//! * **inline WRITEs** (`RdmaConfig::inline_max` 0 vs 256): a warm KV put's
//!   slot publish rides in the WQE instead of a staged DMA buffer, paying
//!   `inline_post_overhead` instead of `post_overhead` per WR.
//! * **per-op cost ledger**: the full op set (`get`/`put`/`delete`/CAS/
//!   `multi_get`/region read/write/read_ck/write_ck/read_many) run under
//!   the raw-speed configuration with the [`sim::OpLedger`] enabled — the
//!   E3/E12-shaped attribution the baseline gate pins exactly.
//!
//! The checksum/hash µ-bench ([`selftime_extras`]) measures *host* MB/s of
//! the sliced CRC32C against the byte-at-a-time scalar fold, plus the KV
//! hash and word-wise key compare. Wall-clock is nondeterministic, so those
//! numbers go only to `SELFTIME_<runid>.json` — never into the
//! byte-identical `BENCH_*.json` tables.

use std::hint::black_box;
use std::time::Instant;

use rdma::{DmaBuf, RdmaConfig};
use rstore::crc::{crc32c_scalar, Crc32c};
use rstore::kv::{hash_key, keys_eq};
use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, Region};
use sim::{DetRng, Level, OpSummary};

use crate::table::{fmt_bytes, Table};

/// Bytes per striped IO in the scatter-gather arms.
const IO_BYTES: u64 = 64 << 10;
/// Stripe size: `IO_BYTES / STRIPE` = 16 pieces per IO.
const STRIPE: u64 = 4 << 10;
/// Memory servers in the scatter-gather arms (= QPs a striped IO touches).
const SERVERS: usize = 4;
/// Timed ops per direction in the scatter-gather arm.
const OPS: u64 = 32;
/// Warm puts timed in the inline arms.
const PUTS: u64 = 64;

/// The scatter-gather arm's measurements (per striped 16-piece IO).
///
/// Grouping does not shorten completion latency (`read_ns`/`write_ns`):
/// WQE-build costs of WRs posted in the same instant overlap in the NIC
/// model. What it buys shows up in the doorbell counters and in the
/// ledger's post-layer attribution (`read_post_ns`/`write_post_ns`) — one
/// `post_overhead` charge per WR instead of one per piece.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SgeArm {
    /// Doorbells rung per read IO.
    pub read_doorbells: u64,
    /// Doorbells rung per write IO.
    pub write_doorbells: u64,
    /// Virtual ns per read IO (completion latency).
    pub read_ns: u64,
    /// Virtual ns per write IO (completion latency).
    pub write_ns: u64,
    /// Ledger post-layer (WQE build + doorbell) ns attributed per read IO.
    pub read_post_ns: u64,
    /// Ledger post-layer ns attributed per write IO.
    pub write_post_ns: u64,
    /// Multi-element WRs posted per read IO.
    pub sge_wrs_per_read: u64,
}

/// Aggregate E16 results. All-integer virtual-time and counter facts, so
/// two seeded runs must be identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawSpeedStats {
    /// Stripe pieces per IO (16).
    pub pieces: u64,
    /// Distinct QPs (= servers) a striped IO touches.
    pub qps: u64,
    /// Scatter-gather posting: one multi-element WR per QP.
    pub sge: SgeArm,
    /// Largest SGE list observed in the scatter-gather arm.
    pub sge_entries_max: u64,
    /// `RdmaConfig::post_overhead` of the arm's devices, in ns.
    pub post_overhead_ns: u64,
    /// Virtual ns per warm KV put, staged publish (`inline_max` 0).
    pub staged_put_ns: u64,
    /// Virtual ns per warm KV put, inline publish (`inline_max` 256).
    pub inline_put_ns: u64,
    /// Inline slot publishes posted in the timed inline window.
    pub inline_writes: u64,
    /// Payload bytes those publishes carried in their WQEs.
    pub inline_bytes: u64,
    /// Read-backs that did not match the written pattern (must be 0).
    pub data_errors: u64,
}

impl RawSpeedStats {
    /// Whether a striped IO rang exactly one doorbell per QP in both
    /// directions, and the ledger charged exactly one `post_overhead` per
    /// QP to posting — the headline posting-cost claim.
    pub fn sge_one_doorbell_per_qp(&self) -> bool {
        let post_ns = self.qps * self.post_overhead_ns;
        self.sge.read_doorbells == self.qps
            && self.sge.write_doorbells == self.qps
            && self.sge.read_post_ns == post_ns
            && self.sge.write_post_ns == post_ns
    }

    /// Virtual-ns saving per warm put from inline posting (expected:
    /// `post_overhead - inline_post_overhead` per publish WR).
    pub fn inline_delta_ns(&self) -> i64 {
        self.staged_put_ns as i64 - self.inline_put_ns as i64
    }
}

/// The deterministic byte at region offset `off` (same family as E12).
fn pattern_byte(off: u64) -> u8 {
    ((off.wrapping_mul(37) + 11) % 251) as u8
}

fn pattern(off: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| pattern_byte(off + i)).collect()
}

/// Compares `len` bytes of local memory at `addr` against the pattern for
/// region offset `off`; returns 1 on mismatch.
fn verify(region: &Region, addr: u64, off: u64, len: u64) -> u64 {
    let got = region
        .client()
        .device()
        .read_mem(addr, len)
        .expect("local read");
    u64::from(got != pattern(off, len))
}

/// Runs all deterministic arms and collects the stats.
pub fn measure() -> RawSpeedStats {
    let (sge, qps, sge_entries_max, mut data_errors) = measure_sge();
    let (staged_put_ns, _, _, errs) = measure_inline(0);
    data_errors += errs;
    let (inline_put_ns, inline_writes, inline_bytes, errs) = measure_inline(256);
    data_errors += errs;
    RawSpeedStats {
        pieces: IO_BYTES / STRIPE,
        qps,
        sge,
        sge_entries_max,
        post_overhead_ns: RdmaConfig::default().post_overhead.as_nanos() as u64,
        staged_put_ns,
        inline_put_ns,
        inline_writes,
        inline_bytes,
        data_errors,
    }
}

/// The scatter-gather arm: a 16-piece striped region, timed reads and
/// writes, doorbell/WR counts from the device counters. Returns
/// `(arm, qps, sge_entries_max, data_errors)`.
fn measure_sge() -> (SgeArm, u64, u64, u64) {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(SERVERS)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    sim.block_on({
        let sim = sim.clone();
        async move {
            let dev = cluster.client_devs[0].clone();
            let client = cluster.client(0).await.expect("client");
            let opts = AllocOptions {
                stripe_size: STRIPE,
                ..AllocOptions::default()
            };
            let region = client.alloc("e16sge", IO_BYTES, opts).await.expect("alloc");
            let qps = {
                let mut nodes: Vec<u32> = region
                    .desc()
                    .groups
                    .iter()
                    .flat_map(|g| g.replicas.iter().map(|x| x.node))
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes.len() as u64
            };
            let fill = pattern(0, IO_BYTES);
            region.write(0, &fill).await.expect("prefill");
            let m = dev.metrics();
            let buf = dev.alloc(IO_BYTES).expect("buf");
            region.read_into(0, buf).await.expect("warm");
            let mut errs = 0u64;

            // Timed reads: the whole region in one striped IO per op.
            let db0 = m.counter("rdma.doorbells");
            let wr0 = m.counter("rdma.sge_wrs");
            let t0 = sim.now();
            for _ in 0..OPS {
                region.read_into(0, buf).await.expect("read");
            }
            let read_ns = (sim.now() - t0).as_nanos() as u64 / OPS;
            let read_doorbells = (m.counter("rdma.doorbells") - db0) / OPS;
            let sge_wrs_per_read = (m.counter("rdma.sge_wrs") - wr0) / OPS;
            errs += verify(&region, buf.addr, 0, IO_BYTES);

            // Timed writes: the buffer still holds the verified pattern.
            let db0 = m.counter("rdma.doorbells");
            let t0 = sim.now();
            for _ in 0..OPS {
                region.write_from(0, buf).await.expect("write");
            }
            let write_ns = (sim.now() - t0).as_nanos() as u64 / OPS;
            let write_doorbells = (m.counter("rdma.doorbells") - db0) / OPS;
            region.read_into(0, buf).await.expect("readback");
            errs += verify(&region, buf.addr, 0, IO_BYTES);
            dev.free(buf).expect("free");

            // Ledger post-layer attribution per IO. Every read (warm, timed,
            // readback) and every write (prefill, timed) is the identical
            // full-region striped IO, so the per-op mean is exact.
            let sums = sim::ledger::summarize(&m);
            let row = |op: &str| {
                sums.iter()
                    .find(|s| s.op == op)
                    .expect("ledger row for op type")
            };
            let (rd, wr) = (row("read"), row("write"));
            let entries_max = m.histogram("rdma.sge_entries").map_or(0, |h| h.max());
            (
                SgeArm {
                    read_doorbells,
                    write_doorbells,
                    read_ns,
                    write_ns,
                    read_post_ns: rd.post_ns / rd.count,
                    write_post_ns: wr.post_ns / wr.count,
                    sge_wrs_per_read,
                },
                qps,
                entries_max,
                errs,
            )
        }
    })
}

/// One inline arm: warm KV overwrites with `inline_max` as given. Returns
/// `(put_ns, inline_writes, inline_bytes, data_errors)` where the inline
/// counters are deltas over the timed window only.
fn measure_inline(inline_max: u64) -> (u64, u64, u64, u64) {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        rdma: RdmaConfig {
            inline_max,
            ..RdmaConfig::default()
        },
        ..ClusterConfig::with_servers(3)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let client = cluster.client(0).await.expect("client");
            let dev = client.device().clone();
            let table = KvTable::create(&client, "e16kv", KvConfig::default())
                .await
                .expect("create");
            let keys: Vec<Vec<u8>> = (0..8).map(|k| format!("e16-{k:02}").into_bytes()).collect();
            // Cold inserts, then one warm round so hint caches are primed.
            for key in &keys {
                table.put(key, &[0xA5; 32]).await.expect("cold put");
            }
            for key in &keys {
                table.put(key, &[0x5A; 32]).await.expect("warm-up put");
            }

            let m = dev.metrics();
            let iw0 = m.counter("rstore.inline.writes");
            let ib0 = m.counter("rstore.inline.bytes");
            let t0 = sim.now();
            for round in 0..(PUTS / keys.len() as u64) {
                for key in &keys {
                    table.put(key, &[round as u8; 32]).await.expect("put");
                }
            }
            let put_ns = (sim.now() - t0).as_nanos() as u64 / PUTS;
            let inline_writes = m.counter("rstore.inline.writes") - iw0;
            let inline_bytes = m.counter("rstore.inline.bytes") - ib0;

            let last = (PUTS / keys.len() as u64 - 1) as u8;
            let mut errs = 0u64;
            for key in &keys {
                let got = table.get(key).await.expect("get");
                errs += u64::from(got.as_deref() != Some(&[last; 32][..]));
            }
            (put_ns, inline_writes, inline_bytes, errs)
        }
    })
}

/// Per-op cost attribution for the full op set under the raw-speed
/// configuration (inline publishes on, ledger enabled).
///
/// Same shape as E12's profile — all-integer and [`Eq`], so two seeded runs
/// must produce an identical profile; the report test asserts it, and the
/// baseline gate pins every leaf of it exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpsProfile {
    /// One row per op type, lexicographic (`cas`, `get`, `multi_get`, …).
    pub ops: Vec<OpSummary>,
}

impl OpsProfile {
    fn row(&self, op: &str) -> &OpSummary {
        self.ops
            .iter()
            .find(|s| s.op == op)
            .expect("profiled op type")
    }

    /// Whether the striped reads rang at most one doorbell per QP (the
    /// `read` rows cover a 16-piece IO over [`SERVERS`] QPs).
    pub fn read_doorbells_le_qps(&self) -> bool {
        self.row("read").doorbells_max <= SERVERS as u64
    }
}

/// Runs the ledger-enabled op burst on the raw-speed configuration.
pub fn ops_profile() -> OpsProfile {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        rdma: RdmaConfig {
            inline_max: 256,
            ..RdmaConfig::default()
        },
        ..ClusterConfig::with_servers(SERVERS)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    let ops = sim.block_on(async move {
        let dev = cluster.client_devs[0].clone();
        let client = cluster.client(0).await.expect("client");

        // Plain region: striped writes and reads (16 pieces per full IO),
        // plus one batched posting round.
        let opts = AllocOptions {
            stripe_size: STRIPE,
            ..AllocOptions::default()
        };
        let region = client.alloc("e16ops", IO_BYTES, opts).await.expect("alloc");
        let fill = pattern(0, IO_BYTES);
        region.write(0, &fill).await.expect("write");
        for _ in 0..4u64 {
            region.read(0, IO_BYTES).await.expect("read");
        }
        let batch_buf = dev.alloc(16 * STRIPE).expect("buf");
        let ios: Vec<(u64, DmaBuf)> = (0..16)
            .map(|i| (i * STRIPE, batch_buf.slice(i * STRIPE, STRIPE)))
            .collect();
        region.read_into_many(&ios).await.expect("read_many");
        dev.free(batch_buf).expect("free");

        // Checksummed region: verified write and read.
        let ck_opts = AllocOptions {
            stripe_size: 16 << 10,
            checksums: true,
            ..AllocOptions::default()
        };
        let ck = client
            .alloc("e16opsck", 256 << 10, ck_opts)
            .await
            .expect("alloc ck");
        ck.write(0, &pattern(0, 128 << 10)).await.expect("write ck");
        ck.read(0, 128 << 10).await.expect("read ck");

        // KV: cold puts (CAS + inline publish), warm gets, one batched
        // multi_get, deletes (inline tombstones).
        let table = KvTable::create(&client, "e16opskv", KvConfig::default())
            .await
            .expect("create");
        let keys: Vec<Vec<u8>> = (0..32u64)
            .map(|k| format!("raw{k:03}").into_bytes())
            .collect();
        for key in &keys {
            table.put(key, b"raw-speed-value").await.expect("put");
        }
        for key in &keys[..8] {
            table.get(key).await.expect("get");
        }
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let got = table.multi_get(&refs).await.expect("multi_get");
        assert!(got.iter().all(|v| v.is_some()), "profiled keys must exist");
        for key in &keys[..4] {
            table.delete(key).await.expect("delete");
        }

        sim::ledger::summarize(&dev.metrics())
    });
    OpsProfile { ops }
}

/// Host MB/s of the software kernels, measured with [`Instant`]. The only
/// nondeterministic numbers E16 produces — exported to
/// `SELFTIME_<runid>.json`, never to `BENCH_*.json`.
#[derive(Clone, Copy, Debug)]
pub struct RawSpeedSelfTime {
    /// Slicing-by-8 CRC32C throughput.
    pub crc32c_sliced_mbps: f64,
    /// Byte-at-a-time scalar CRC32C throughput.
    pub crc32c_scalar_mbps: f64,
    /// Sliced-over-scalar speedup (the ≥4x acceptance claim).
    pub crc32c_speedup: f64,
    /// KV slot hash ([`hash_key`]) throughput.
    pub hash_mbps: f64,
    /// Word-wise key compare ([`keys_eq`]) throughput.
    pub keys_eq_mbps: f64,
}

/// Best-of-5 throughput of `body` consuming `bytes` per call.
fn best_mbps(bytes: usize, mut body: impl FnMut()) -> f64 {
    body(); // warmup (and table initialisation for the CRC engines)
    let mut best = f64::MIN;
    for _ in 0..5 {
        let t0 = Instant::now();
        body();
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max(bytes as f64 / secs / 1e6);
    }
    best
}

/// Runs the checksum/hash µ-bench.
pub fn selftime_extras() -> RawSpeedSelfTime {
    let mut buf = vec![0u8; 1 << 20];
    DetRng::new(0xE16_0BEC).fill_bytes(&mut buf);
    let ck = Crc32c::new();
    let crc32c_sliced_mbps = best_mbps(buf.len(), || {
        black_box(ck.checksum(black_box(&buf)));
    });
    let crc32c_scalar_mbps = best_mbps(buf.len(), || {
        black_box(crc32c_scalar(black_box(&buf)));
    });
    let hash_mbps = best_mbps(buf.len(), || {
        black_box(hash_key(black_box(&buf)));
    });
    let (a, b) = buf.split_at(buf.len() / 2);
    let keys_eq_mbps = best_mbps(buf.len(), || {
        black_box(keys_eq(black_box(a), black_box(b)));
    });
    RawSpeedSelfTime {
        crc32c_sliced_mbps,
        crc32c_scalar_mbps,
        crc32c_speedup: crc32c_sliced_mbps / crc32c_scalar_mbps,
        hash_mbps,
        keys_eq_mbps,
    }
}

/// Renders E16's tables from one measurement and its op profile.
pub fn tables(stats: &RawSpeedStats, profile: &OpsProfile) -> Vec<Table> {
    let mut t1 = Table::new(
        format!(
            "E16a: scatter-gather WRs, {}-piece striped IO over {} QPs ({} ops)",
            stats.pieces, stats.qps, OPS
        ),
        &[
            "db/read",
            "db/write",
            "SGE WRs/read",
            "post ns/read",
            "read us",
        ],
    );
    let arm = &stats.sge;
    t1.row(vec![
        arm.read_doorbells.to_string(),
        arm.write_doorbells.to_string(),
        arm.sge_wrs_per_read.to_string(),
        arm.read_post_ns.to_string(),
        format!("{:.2}", arm.read_ns as f64 / 1e3),
    ]);
    t1.note(format!(
        "one doorbell and one post_overhead per QP: {}; largest SGE list: {} entries; IO size {}",
        stats.sge_one_doorbell_per_qp(),
        stats.sge_entries_max,
        fmt_bytes(IO_BYTES)
    ));
    t1.note(
        "grouping does not shorten completion latency: WQE-build costs of same-instant posts \
         overlap in the NIC model; it saves doorbells and posting-CPU attribution",
    );

    let mut t2 = Table::new(
        format!("E16b: inline small WRITEs, {PUTS} warm KV puts (32 B values)"),
        &["publish", "ns/put", "inline WRs", "inline bytes"],
    );
    t2.row(vec![
        "staged".to_string(),
        stats.staged_put_ns.to_string(),
        "0".to_string(),
        "0".to_string(),
    ]);
    t2.row(vec![
        "inline".to_string(),
        stats.inline_put_ns.to_string(),
        stats.inline_writes.to_string(),
        stats.inline_bytes.to_string(),
    ]);
    t2.note(format!(
        "inline saves {} ns/put (post_overhead - inline_post_overhead per publish WR); data errors across all arms: {}",
        stats.inline_delta_ns(),
        stats.data_errors
    ));

    let mut t3 = Table::new(
        "E16c: raw-path per-op cost (inline + ledger, 4 servers)",
        &["op", "count", "RTTs p50", "db p50", "bytes p50", "retries"],
    );
    for s in &profile.ops {
        t3.row(vec![
            s.op.clone(),
            s.count.to_string(),
            s.rtts_p50.to_string(),
            s.doorbells_p50.to_string(),
            s.bytes_p50.to_string(),
            s.retries.to_string(),
        ]);
    }
    t3.note("full attribution (p99/max, per-layer time) in the BENCH JSON rawspeed block");
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gather_and_inline_pay_off_without_data_errors() {
        let stats = measure();
        assert_eq!(stats.data_errors, 0, "read-back verification failed");
        assert_eq!(stats.pieces, 16, "arm must exercise a 16-piece IO");
        assert_eq!(stats.qps, SERVERS as u64, "striping must touch every QP");
        // One multi-element WR, one doorbell and one post_overhead charge
        // per QP, in both directions.
        assert_eq!(stats.sge.read_doorbells, stats.qps);
        assert_eq!(stats.sge.write_doorbells, stats.qps);
        assert_eq!(stats.sge.sge_wrs_per_read, stats.qps);
        assert!(stats.sge_entries_max >= stats.pieces / stats.qps);
        assert!(stats.sge_entries_max <= rdma::MAX_SGE as u64);
        assert_eq!(stats.sge.read_post_ns, stats.qps * stats.post_overhead_ns);
        assert_eq!(stats.sge.write_post_ns, stats.qps * stats.post_overhead_ns);
        assert!(stats.sge_one_doorbell_per_qp());
        // Inline publishes: every timed put posts its publish inline,
        // saving post overhead per op.
        assert_eq!(stats.inline_writes, PUTS);
        assert!(
            stats.inline_delta_ns() > 0,
            "inline put {} ns not cheaper than staged {} ns",
            stats.inline_put_ns,
            stats.staged_put_ns
        );

        let again = measure();
        assert_eq!(stats, again, "seeded E16 stats must be identical");
    }

    #[test]
    fn ops_profile_is_deterministic_and_raw() {
        let a = ops_profile();
        let names: Vec<&str> = a.ops.iter().map(|s| s.op.as_str()).collect();
        for op in [
            "cas",
            "delete",
            "get",
            "multi_get",
            "put",
            "read",
            "read_ck",
            "read_many",
            "write",
            "write_ck",
        ] {
            assert!(names.contains(&op), "profile missing op type {op:?}");
        }
        let get = a.row("get");
        assert_eq!((get.rtts_p50, get.rtts_max), (1, 1), "warm get RTTs");
        assert!(
            a.read_doorbells_le_qps(),
            "striped read rang {} doorbells",
            a.row("read").doorbells_max
        );
        for s in &a.ops {
            assert_eq!(s.verify_failures, 0, "{}: clean run verify failures", s.op);
            assert_eq!(s.retries + s.failovers, 0, "{}: clean run retries", s.op);
        }
        let b = ops_profile();
        assert_eq!(a, b, "seeded op profile must be identical across runs");
    }

    #[test]
    fn microbench_kernels_beat_their_baselines() {
        let st = selftime_extras();
        assert!(st.hash_mbps > 0.0 && st.keys_eq_mbps > 0.0);
        assert!(st.crc32c_sliced_mbps > 0.0 && st.crc32c_scalar_mbps > 0.0);
        // The ≥4x margin is a property of the optimized kernel: debug
        // builds don't hoist the table base loads or schedule the sixteen
        // independent lookups, flattening the gap to ~1x. The CI E16 smoke
        // step enforces the margin on the release build's SELFTIME export.
        if !cfg!(debug_assertions) {
            assert!(
                st.crc32c_speedup >= 4.0,
                "sliced CRC32C only {:.2}x the scalar fold ({:.0} vs {:.0} MB/s)",
                st.crc32c_speedup,
                st.crc32c_sliced_mbps,
                st.crc32c_scalar_mbps
            );
        }
    }
}
