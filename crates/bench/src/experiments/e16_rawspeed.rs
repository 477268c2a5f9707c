//! E16 — the raw-speed per-op software path: what scatter-gather WRs and
//! the sliced checksum/hash kernels buy.
//!
//! Two deterministic arms plus one wall-clock µ-bench:
//!
//! * **scatter-gather**: a 16-piece striped IO posts one multi-element WR
//!   per QP, not one WR per piece — doorbells per IO equal the QP count,
//!   and so does the number of [`rdma::POST_OVERHEAD`] charges the ledger
//!   attributes to posting.
//! * **per-op cost ledger**: the full op set (`get`/`put`/`delete`/CAS/
//!   `multi_get`/region read/write/read_ck/write_ck/read_many) run on four
//!   servers with the [`sim::OpLedger`] enabled — the E3/E12-shaped
//!   attribution the baseline gate pins exactly.
//!
//! The checksum/hash µ-bench ([`selftime_extras`]) measures *host* MB/s of
//! each CRC32C kernel by name — the one [`Crc32c`] runs on this CPU, the
//! slicing-by-16 fallback and the byte-at-a-time scalar fold — plus the KV
//! hash and word-wise key compare. Wall-clock is nondeterministic, so those
//! numbers go only to `SELFTIME_<runid>.json` — never into the
//! byte-identical `BENCH_*.json` tables.

use std::hint::black_box;
use std::time::Instant;

use rstore::crc::{crc32c_scalar, crc32c_sliced, Crc32c};
use rstore::kv::{hash_key, keys_eq};
use rstore::{AllocOptions, Cluster, ClusterConfig};
use sim::{DetRng, Level, OpSummary};

use super::e12_smallio::{ops_profile, pattern, verify, IoShape};
use crate::report::{export_fields, op_row, Entry, Export};
use crate::table::{fmt_bytes, Table};

/// Bytes per striped IO in the scatter-gather arms.
const IO_BYTES: u64 = 64 << 10;
/// Stripe size: `IO_BYTES / STRIPE` = 16 pieces per IO.
const STRIPE: u64 = 4 << 10;
/// Memory servers in the scatter-gather arms (= QPs a striped IO touches).
const SERVERS: usize = 4;
/// Timed ops per direction in the scatter-gather arm.
const OPS: u64 = 32;

/// The scatter-gather arm's measurements (per striped 16-piece IO).
///
/// Grouping does not shorten completion latency (`read_ns`/`write_ns`):
/// WQE-build costs of WRs posted in the same instant overlap in the NIC
/// model. What it buys shows up in the doorbell counters and in the
/// ledger's post-layer attribution (`read_post_ns`/`write_post_ns`) — one
/// `POST_OVERHEAD` charge per WR instead of one per piece.
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

export_fields!(SgeArm: read_doorbells, write_doorbells, read_ns, write_ns, read_post_ns,
    write_post_ns, sge_wrs_per_read);

/// The scatter-gather arm: a 16-piece striped IO over every QP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SgeStats {
    /// Stripe pieces per IO (16).
    pub pieces_per_io: u64,
    /// Distinct QPs (= servers) a striped IO touches.
    pub qps: u64,
    /// Scatter-gather posting: one multi-element WR per QP.
    pub scatter_gather: SgeArm,
    /// Largest SGE list observed.
    pub sge_entries_max: u64,
}

export_fields!(SgeStats: pieces_per_io, qps, scatter_gather, sge_entries_max);

/// Aggregate E16 results. All-integer virtual-time and counter facts, so
/// two seeded runs must be identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawSpeedStats {
    /// The scatter-gather arm.
    pub sge: SgeStats,
    /// [`rdma::POST_OVERHEAD`], in ns.
    pub post_overhead_ns: u64,
    /// Read-backs that did not match the written pattern (must be 0).
    pub data_errors: u64,
    /// The full op set's per-op cost profile, on four servers.
    pub ops: Vec<OpSummary>,
}

export_fields!(RawSpeedStats: sge, data_errors);

impl RawSpeedStats {
    /// Whether a striped IO rang exactly one doorbell per QP in both
    /// directions, and the ledger charged exactly one `POST_OVERHEAD` per
    /// QP to posting — the headline posting-cost claim.
    pub fn sge_one_doorbell_per_qp(&self) -> bool {
        let (qps, arm) = (self.sge.qps, &self.sge.scatter_gather);
        let post_ns = qps * self.post_overhead_ns;
        arm.read_doorbells == qps
            && arm.write_doorbells == qps
            && arm.read_post_ns == post_ns
            && arm.write_post_ns == post_ns
    }

    /// Whether the profile's striped reads rang at most one doorbell per QP
    /// (the `read` rows cover a 16-piece IO over `SERVERS` QPs).
    pub fn read_doorbells_le_qps(&self) -> bool {
        op_row(&self.ops, "read").is_some_and(|r| r.doorbells_max <= SERVERS as u64)
    }
}

/// Runs all deterministic arms and collects the stats.
pub fn measure() -> RawSpeedStats {
    let (sge, data_errors) = measure_sge();
    RawSpeedStats {
        sge,
        post_overhead_ns: rdma::POST_OVERHEAD.as_nanos() as u64,
        data_errors,
        ops: profile(),
    }
}

/// E16's report entry from one measurement: the `rawspeed` block and the
/// profile's `ops` ledger, the asserts behind the posting-cost claims, and
/// the kernels' host MB/s for its `SELFTIME` entry.
pub fn entry(s: &RawSpeedStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("rawspeed", s);
    let a = &mut e.asserts;
    a.eq("data_errors", s.data_errors, 0);
    a.holds("one_doorbell_per_qp", s.sge_one_doorbell_per_qp());
    a.holds("read_doorbells_le_qps", s.read_doorbells_le_qps());
    e.ops(&s.ops);
    e.selftime(|| selftime_extras().export());
    e
}

/// The scatter-gather arm: a 16-piece striped region, timed reads and
/// writes, doorbell/WR counts from the device counters. Returns the arm
/// and its data errors.
fn measure_sge() -> (SgeStats, u64) {
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
            let row = |op: &str| op_row(&sums, op).expect("ledger row for op type");
            let (rd, wr) = (row("read"), row("write"));
            let entries_max = m.histogram("rdma.sge_entries").map_or(0, |h| h.max());
            let scatter_gather = SgeArm {
                read_doorbells,
                write_doorbells,
                read_ns,
                write_ns,
                read_post_ns: rd.post_ns / rd.count,
                write_post_ns: wr.post_ns / wr.count,
                sge_wrs_per_read,
            };
            let sge = SgeStats {
                pieces_per_io: IO_BYTES / STRIPE,
                qps,
                scatter_gather,
                sge_entries_max: entries_max,
            };
            (sge, errs)
        }
    })
}

/// E16's ops profile: one client, `SERVERS` servers, four reads of the
/// whole 16-piece striped region.
fn profile() -> Vec<OpSummary> {
    let cluster = ClusterConfig::with_servers(SERVERS);
    let io = IoShape {
        region: IO_BYTES,
        stripe: STRIPE,
        fill: IO_BYTES,
        read: IO_BYTES,
        reads: 4,
    };
    ops_profile(cluster, io, "e16")
}

/// Host MB/s of the software kernels, measured with [`Instant`]. The only
/// nondeterministic numbers E16 produces — exported to
/// `SELFTIME_<runid>.json`, never to `BENCH_*.json`.
#[derive(Clone, Copy, Debug)]
pub struct RawSpeedSelfTime {
    /// Throughput of the CRC32C kernel [`Crc32c`] runs on this CPU (the
    /// SSE4.2 kernel where it has SSE4.2, else slicing-by-16).
    pub crc32c_mbps: f64,
    /// Slicing-by-16 CRC32C throughput ([`crc32c_sliced`], the fallback).
    pub crc32c_sliced_mbps: f64,
    /// Byte-at-a-time scalar CRC32C throughput.
    pub crc32c_scalar_mbps: f64,
    /// Sliced-over-scalar speedup (the fallback's ≥4x acceptance claim).
    pub crc32c_speedup: f64,
    /// KV slot hash ([`hash_key`]) throughput.
    pub hash_mbps: f64,
    /// Word-wise key compare ([`keys_eq`]) throughput.
    pub keys_eq_mbps: f64,
}

export_fields!(RawSpeedSelfTime: crc32c_mbps, crc32c_sliced_mbps, crc32c_scalar_mbps,
    crc32c_speedup, hash_mbps, keys_eq_mbps);

/// Best-of-5 throughput of `kernel` over `buf`.
fn best_mbps<T>(buf: &[u8], kernel: impl Fn(&[u8]) -> T) -> f64 {
    black_box(kernel(black_box(buf))); // warmup (and table initialisation for the CRC engines)
    let mut best = f64::MIN;
    for _ in 0..5 {
        let t0 = Instant::now();
        black_box(kernel(black_box(buf)));
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max(buf.len() as f64 / secs / 1e6);
    }
    best
}

/// Runs the checksum/hash µ-bench.
pub fn selftime_extras() -> RawSpeedSelfTime {
    let mut buf = vec![0u8; 1 << 20];
    DetRng::new(0xE16_0BEC).fill_bytes(&mut buf);
    let ck = Crc32c::new();
    let crc32c_mbps = best_mbps(&buf, |b| ck.checksum(b));
    let crc32c_sliced_mbps = best_mbps(&buf, crc32c_sliced);
    let crc32c_scalar_mbps = best_mbps(&buf, crc32c_scalar);
    RawSpeedSelfTime {
        crc32c_mbps,
        crc32c_sliced_mbps,
        crc32c_scalar_mbps,
        crc32c_speedup: crc32c_sliced_mbps / crc32c_scalar_mbps,
        hash_mbps: best_mbps(&buf, hash_key),
        keys_eq_mbps: best_mbps(&buf, |b| keys_eq(&b[..b.len() / 2], &b[b.len() / 2..])),
    }
}

/// Renders E16's tables from one measurement.
pub fn tables(stats: &RawSpeedStats) -> Vec<Table> {
    let mut t1 = Table::new(
        format!(
            "E16a: scatter-gather WRs, {}-piece striped IO over {} QPs ({} ops)",
            stats.sge.pieces_per_io, stats.sge.qps, OPS
        ),
        &[
            "db/read",
            "db/write",
            "SGE WRs/read",
            "post ns/read",
            "read us",
        ],
    );
    let arm = &stats.sge.scatter_gather;
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
        stats.sge.sge_entries_max,
        fmt_bytes(IO_BYTES)
    ));
    t1.note(
        "grouping does not shorten completion latency: WQE-build costs of same-instant posts \
         overlap in the NIC model; it saves doorbells and posting-CPU attribution",
    );

    let mut t2 = Table::new(
        "E16b: raw-path per-op cost (ledger, 4 servers)",
        &["op", "count", "RTTs p50", "db p50", "bytes p50", "retries"],
    );
    for s in &stats.ops {
        t2.row(vec![
            s.op.clone(),
            s.count.to_string(),
            s.rtts_p50.to_string(),
            s.doorbells_p50.to_string(),
            s.bytes_p50.to_string(),
            s.retries.to_string(),
        ]);
    }
    t2.note("full attribution (p99/max, per-layer time) in the BENCH JSON rawspeed block");
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gather_pays_off_without_data_errors() {
        let stats = measure();
        let (sge, arm) = (&stats.sge, &stats.sge.scatter_gather);
        assert_eq!(stats.data_errors, 0, "read-back verification failed");
        assert_eq!(sge.pieces_per_io, 16, "arm must exercise a 16-piece IO");
        assert_eq!(sge.qps, SERVERS as u64, "striping must touch every QP");
        // One multi-element WR, one doorbell and one `POST_OVERHEAD` charge
        // per QP, in both directions.
        assert_eq!(arm.read_doorbells, sge.qps);
        assert_eq!(arm.write_doorbells, sge.qps);
        assert_eq!(arm.sge_wrs_per_read, sge.qps);
        assert!(sge.sge_entries_max >= sge.pieces_per_io / sge.qps);
        assert!(sge.sge_entries_max <= rdma::MAX_SGE as u64);
        assert_eq!(arm.read_post_ns, sge.qps * stats.post_overhead_ns);
        assert_eq!(arm.write_post_ns, sge.qps * stats.post_overhead_ns);
        assert!(stats.sge_one_doorbell_per_qp());

        // The report entry carries the structure `bench check` and the
        // ledger readers depend on, and every assert in it passes. Its
        // byte-identity across runs is `trace_determinism`'s.
        let json = entry(&stats).json("e16").render();
        crate::json::validate(&json).expect("e16 report must be valid JSON");
        for field in [
            "\"rawspeed\"",
            "\"sge\"",
            "\"pieces_per_io\"",
            "\"scatter_gather\"",
            "\"read_doorbells\"",
            "\"name\": \"one_doorbell_per_qp\"",
            "\"data_errors\": 0",
            "\"rtts_per_op\"",
            "\"doorbells_per_op\"",
        ] {
            assert!(json.contains(field), "e16 export must carry {field}");
        }
        assert!(
            !json.contains("\"pass\": false"),
            "an E16 assert failed:\n{json}"
        );
    }

    #[test]
    fn ops_profile_is_deterministic_and_raw() {
        let a = profile();
        let names: Vec<&str> = a.iter().map(|s| s.op.as_str()).collect();
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
        let row = |op: &str| op_row(&a, op).expect("profiled op type");
        let get = row("get");
        assert_eq!((get.rtts_p50, get.rtts_max), (1, 1), "warm get RTTs");
        let read = row("read");
        assert!(
            read.doorbells_max <= SERVERS as u64,
            "striped read rang {} doorbells",
            read.doorbells_max
        );
        for s in &a {
            assert_eq!(s.verify_failures, 0, "{}: clean run verify failures", s.op);
            assert_eq!(s.retries + s.failovers, 0, "{}: clean run retries", s.op);
        }
        let b = profile();
        assert_eq!(a, b, "seeded op profile must be identical across runs");
    }

    #[test]
    fn microbench_kernels_beat_their_baselines() {
        let st = selftime_extras();
        assert!(st.hash_mbps > 0.0 && st.keys_eq_mbps > 0.0);
        assert!(st.crc32c_mbps > 0.0);
        assert!(st.crc32c_sliced_mbps > 0.0 && st.crc32c_scalar_mbps > 0.0);
        // The ≥4x margin is a property of the optimized kernel: debug
        // builds don't hoist the table base loads or schedule the sixteen
        // independent lookups, flattening the gap to ~1x. The CI E16 smoke
        // step enforces both margins on the release build's SELFTIME export.
        if !cfg!(debug_assertions) {
            assert!(
                st.crc32c_speedup >= 4.0,
                "sliced CRC32C only {:.2}x the scalar fold ({:.0} vs {:.0} MB/s)",
                st.crc32c_speedup,
                st.crc32c_sliced_mbps,
                st.crc32c_scalar_mbps
            );
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("sse4.2") {
                assert!(
                    st.crc32c_mbps >= 3.0 * st.crc32c_sliced_mbps,
                    "SSE4.2 CRC32C only {:.0} MB/s against sliced {:.0} MB/s",
                    st.crc32c_mbps,
                    st.crc32c_sliced_mbps
                );
            }
        }
    }
}
