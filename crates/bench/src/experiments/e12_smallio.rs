//! E12 — small-IO streaming throughput: what doorbell batching buys at
//! 4–64 KiB request sizes, and what one verified read of 256 stripes moves.
//!
//! Two comparisons, both over a prefilled region whose every byte is
//! verified on the way back (`data_errors` must stay zero):
//!
//! * **per-op vs batched** (plain region): an awaited `read_into` per op vs
//!   [`Region::read_into_many`] rounds of 16 — one doorbell per memory
//!   server instead of one per piece.
//! * **one verified read** (checksummed region, stripe = IO size): one
//!   `read_into` of all 256 stripes — in rounds of at most 4 MiB of frames
//!   (1, 2 and 5 rounds at 4, 16 and 64 KiB), every frame of a round in
//!   flight at once and verified once the round has landed.
//!
//! And one arm that is about bytes, not speedups: **`ck_substripe`** — 4 KiB
//! verified reads and writes on a 64 KiB-stripe checksummed region, where an
//! IO is a sixteenth of its stripe. It must move its checksum block and the
//! block's entry, not the stripe (`ck_substripe_no_amplification`).
//!
//! Everything is seeded and deterministic: two runs produce byte-identical
//! tables and JSON.

use rdma::DmaBuf;
use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, RStoreClient, Region};
use sim::{Level, OpSummary};

use crate::report::{export_fields, op_row, Entry};
use crate::table::{fmt_bytes, Table};

/// Ops per size and arm.
const OPS: u64 = 256;
/// Ops folded into one `read_into_many` posting round.
const BATCH: u64 = 16;
/// Request sizes under test.
const SIZES: [u64; 3] = [4 << 10, 16 << 10, 64 << 10];

/// Measured results for one IO size.
#[derive(Clone, Copy, Debug)]
pub struct SizeStats {
    /// Request size in bytes.
    pub size_bytes: u64,
    /// Streaming throughput of awaited per-op reads.
    pub per_op_gbps: f64,
    /// Streaming throughput of batched posting rounds.
    pub batched_gbps: f64,
    /// Doorbells rung per op, per-op arm (always 1.0).
    pub per_op_doorbells: f64,
    /// Doorbells rung per op, batched arm.
    pub batched_doorbells: f64,
    /// Throughput of one verified read of all `OPS` stripes.
    pub ck_gbps: f64,
}

impl SizeStats {
    /// Batched-over-per-op throughput.
    pub fn batched_speedup(&self) -> f64 {
        self.batched_gbps / self.per_op_gbps
    }
}

export_fields!(SizeStats: size_bytes, per_op_gbps, batched_gbps, per_op_doorbells,
    batched_doorbells, ck_gbps; batched_speedup());

/// The sub-stripe arm: awaited 4 KiB verified reads and writes on a
/// checksummed region whose stripe is sixteen times the IO.
#[derive(Clone, Copy, Debug)]
pub struct SubStripeStats {
    /// Request size in bytes.
    pub io_bytes: u64,
    /// Stripe size of the region.
    pub stripe_bytes: u64,
    /// Replicas of every stripe (a write reaches each).
    pub replicas: u64,
    /// Throughput of the awaited verified reads.
    pub read_gbps: f64,
    /// Throughput of the awaited verified writes.
    pub write_gbps: f64,
    /// Wire bytes per read, requests and headers included (op ledger).
    pub read_wire_bytes_per_op: f64,
    /// Wire bytes per write, all replicas together (op ledger).
    pub write_wire_bytes_per_op: f64,
}

impl SubStripeStats {
    /// Whether an IO moved less than 1.05x its size per replica it touches:
    /// its block and the block's entry, not its stripe.
    pub fn no_amplification(&self) -> bool {
        let bound = 1.05 * self.io_bytes as f64;
        self.read_wire_bytes_per_op < bound
            && self.write_wire_bytes_per_op < bound * self.replicas as f64
    }
}

export_fields!(SubStripeStats: io_bytes, stripe_bytes, replicas, read_gbps, write_gbps,
    read_wire_bytes_per_op, write_wire_bytes_per_op);

/// Aggregate E12 results.
#[derive(Clone, Debug)]
pub struct SmallIoStats {
    /// One entry per size in `SIZES` order.
    pub sizes: Vec<SizeStats>,
    /// The sub-stripe verified-IO arm.
    pub ck_substripe: SubStripeStats,
    /// Reads whose bytes did not match the prefilled pattern (must be 0).
    pub data_errors: u64,
    /// The per-op cost profile (`ops_profile`), on a cluster of its own.
    pub ops: Vec<OpSummary>,
}

export_fields!(SmallIoStats: sizes, ck_substripe, data_errors; speedup_4k());

impl SmallIoStats {
    fn at(&self, size: u64) -> &SizeStats {
        self.sizes
            .iter()
            .find(|s| s.size_bytes == size)
            .expect("measured size")
    }

    /// Batched-over-per-op speedup at 4 KiB — the headline claim.
    pub fn speedup_4k(&self) -> f64 {
        self.at(4 << 10).batched_speedup()
    }

    /// Doorbells per op in the batched arm at 4 KiB.
    pub fn batched_doorbells_4k(&self) -> f64 {
        self.at(4 << 10).batched_doorbells
    }

    /// Whether the profile's batched `multi_get` rang fewer doorbells than
    /// it looked up keys — the whole point of doorbell-batched multi-key
    /// reads.
    pub fn multi_get_doorbells_lt_one(&self) -> bool {
        op_row(&self.ops, "multi_get").is_some_and(|s| s.doorbells_total < s.units)
    }
}

/// The deterministic bytes at region offset `off`, the same for every
/// experiment that verifies what it reads back.
pub(crate) fn pattern(off: u64, len: u64) -> Vec<u8> {
    let byte = |at: u64| ((at.wrapping_mul(37) + 11) % 251) as u8;
    (off..off + len).map(byte).collect()
}

/// Runs all arms for every size and collects the stats.
pub fn measure() -> SmallIoStats {
    let mut sizes = Vec::new();
    let mut data_errors = 0;
    for &size in &SIZES {
        let (stats, errs) = measure_size(size);
        sizes.push(stats);
        data_errors += errs;
    }
    let (ck_substripe, errs) = measure_substripe();
    SmallIoStats {
        sizes,
        ck_substripe,
        data_errors: data_errors + errs,
        ops: profile(),
    }
}

/// E12's ops profile: 4 servers, eight 4 KiB reads of a 1 MiB region
/// striped at 64 KiB whose first 256 KiB are written.
fn profile() -> Vec<OpSummary> {
    let cluster = ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(4)
    };
    let io = IoShape {
        region: 1 << 20,
        stripe: 64 << 10,
        fill: 256 << 10,
        read: 4 << 10,
        reads: 8,
    };
    ops_profile(cluster, io, "e12")
}

/// E12's report entry from one measurement: the `smallio` block and the
/// profile's `ops` ledger, and the asserts behind the headline claims.
pub fn entry(s: &SmallIoStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("smallio", s);
    let a = &mut e.asserts;
    a.eq("data_errors", s.data_errors, 0);
    a.holds("speedup_4k_ok", s.speedup_4k() >= 1.5);
    a.holds("batched_doorbells_lt_one", s.batched_doorbells_4k() < 1.0);
    let no_amplification = s.ck_substripe.no_amplification();
    a.holds("ck_substripe_no_amplification", no_amplification);
    a.holds("multi_get_doorbells_lt_one", s.multi_get_doorbells_lt_one());
    e.ops(&s.ops);
    e
}

/// The `ck_substripe` arm, on a cluster of its own with recording at
/// `Level::Costs`: the per-op wire bytes are the op ledger's, so control
/// traffic in the window is not in them.
fn measure_substripe() -> (SubStripeStats, u64) {
    const IO: u64 = 4 << 10;
    const STRIPE: u64 = 64 << 10;
    const REPLICAS: u64 = 2;
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    sim.clone().block_on(async move {
        let dev = cluster.client_devs[0].clone();
        let client = cluster.client(0).await.expect("client");
        let total = OPS * IO;
        let opts = AllocOptions {
            stripe_size: STRIPE,
            replicas: REPLICAS as u8,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = client.alloc("e12sub", total, opts).await.expect("alloc");
        region.write(0, &pattern(0, total)).await.expect("prefill");
        let buf = dev.alloc(IO).expect("buf");
        region.read_into(0, buf).await.expect("warm");
        let before = sim::ledger::summarize(&dev.metrics());
        let mut errs = 0u64;

        let t0 = sim.now();
        for op in 0..OPS {
            region.read_into(op * IO, buf).await.expect("read");
            errs += verify(&region, buf.addr, op * IO, IO);
        }
        let read_secs = (sim.now() - t0).as_secs_f64();

        // Every block is overwritten with the pattern of the block after it
        // (the offsets are not a multiple of the pattern's period).
        let t0 = sim.now();
        for op in 0..OPS {
            let fresh = pattern((op + 1) * IO, IO);
            dev.write_mem(buf.addr, &fresh).expect("local write");
            region.write_from(op * IO, buf).await.expect("write");
        }
        let write_secs = (sim.now() - t0).as_secs_f64();
        let after = sim::ledger::summarize(&dev.metrics());
        let shifted = region.read(0, total).await.expect("read back");
        errs += u64::from(shifted != pattern(IO, total));
        dev.free(buf).expect("free");

        // Wire bytes per op over the timed loops alone.
        let wire = |op: &str| {
            let row = |rows: &[OpSummary]| {
                let r = op_row(rows, op).expect("ledger row");
                (r.bytes_total, r.count)
            };
            let ((b0, n0), (b1, n1)) = (row(&before), row(&after));
            (b1 - b0) as f64 / (n1 - n0) as f64
        };
        let gbps = |secs: f64| total as f64 * 8.0 / secs / 1e9;
        let stats = SubStripeStats {
            io_bytes: IO,
            stripe_bytes: STRIPE,
            replicas: REPLICAS,
            read_gbps: gbps(read_secs),
            write_gbps: gbps(write_secs),
            read_wire_bytes_per_op: wire("read_ck"),
            write_wire_bytes_per_op: wire("write_ck"),
        };
        (stats, errs)
    })
}

fn measure_size(size: u64) -> (SizeStats, u64) {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let dev = devs[0].clone();
            let client = RStoreClient::connect(&dev, master).await.expect("client");
            let total = OPS * size;
            let fill = pattern(0, total);
            let mut errs = 0u64;

            // Plain region, striped at 64 KiB so a stream touches every
            // server, prefilled with the deterministic pattern.
            let opts = AllocOptions {
                stripe_size: 64 << 10,
                ..AllocOptions::default()
            };
            let region = client.alloc("e12", total, opts).await.expect("alloc");
            region.write(0, &fill).await.expect("prefill");
            let m = dev.metrics();

            // Arm 1: awaited per-op stream. Verification reads local memory
            // only, so it costs zero virtual time and cannot skew timings.
            let buf = dev.alloc(size).expect("buf");
            region.read_into(0, buf).await.expect("warm");
            let db0 = m.counter("rdma.doorbells");
            let t0 = sim.now();
            for op in 0..OPS {
                region.read_into(op * size, buf).await.expect("read");
                errs += verify(&region, buf.addr, op * size, size);
            }
            let per_op_secs = (sim.now() - t0).as_secs_f64();
            let per_op_doorbells = (m.counter("rdma.doorbells") - db0) as f64 / OPS as f64;
            dev.free(buf).expect("free");

            // Arm 2: batched posting rounds of BATCH ops.
            let round_buf = dev.alloc(BATCH * size).expect("buf");
            let db0 = m.counter("rdma.doorbells");
            let t0 = sim.now();
            let mut op = 0;
            while op < OPS {
                let ios: Vec<(u64, DmaBuf)> = (0..BATCH)
                    .map(|i| ((op + i) * size, round_buf.slice(i * size, size)))
                    .collect();
                region.read_into_many(&ios).await.expect("read");
                for i in 0..BATCH {
                    errs += verify(&region, round_buf.addr + i * size, (op + i) * size, size);
                }
                op += BATCH;
            }
            let batched_secs = (sim.now() - t0).as_secs_f64();
            let batched_doorbells = (m.counter("rdma.doorbells") - db0) as f64 / OPS as f64;
            dev.free(round_buf).expect("free");

            // Checksummed arm: stripe = IO size, so one read spans OPS
            // verified stripes, in rounds of at most 4 MiB of frames.
            let ck_opts = AllocOptions {
                stripe_size: size,
                checksums: true,
                ..AllocOptions::default()
            };
            let ck = client.alloc("e12ck", total, ck_opts).await.expect("alloc");
            ck.write(0, &fill).await.expect("prefill");
            let big = dev.alloc(total).expect("buf");
            ck.read_into(0, big).await.expect("warm");
            let t0 = sim.now();
            ck.read_into(0, big).await.expect("read");
            let ck_secs = (sim.now() - t0).as_secs_f64();
            errs += verify(&ck, big.addr, 0, total);
            dev.free(big).expect("free");

            let gbps = |secs: f64| total as f64 * 8.0 / secs / 1e9;
            (
                SizeStats {
                    size_bytes: size,
                    per_op_gbps: gbps(per_op_secs),
                    batched_gbps: gbps(batched_secs),
                    per_op_doorbells,
                    batched_doorbells,
                    ck_gbps: gbps(ck_secs),
                },
                errs,
            )
        }
    })
}

/// Keys in the per-op cost profile's KV phase.
const PROFILE_KEYS: u64 = 32;

/// The plain-region half of an ops profile: a region of `region` bytes
/// striped at `stripe`, its first `fill` bytes written, then `reads` reads
/// of `read` bytes, one after another through the region.
pub(crate) struct IoShape {
    pub region: u64,
    pub stripe: u64,
    pub fill: u64,
    pub read: u64,
    pub reads: u64,
}

/// Per-op cost attribution for one representative burst of every data-path
/// op type, on a fresh cluster booted from `cluster` with recording at
/// `Level::Costs`: the plain-region IO of `io` and one batched round of
/// sixteen 4 KiB reads, a verified write and read of 128 KiB on a
/// checksummed region, and on a KV table puts, warm gets, one batched
/// `multi_get` and deletes. Its regions and table are named after
/// `prefix`.
///
/// On its own cluster, so recording cannot perturb timed runs; all-integer
/// ([`OpSummary`] is `Eq`), so two seeded runs produce an identical profile.
pub(crate) fn ops_profile(cluster: ClusterConfig, io: IoShape, prefix: &str) -> Vec<OpSummary> {
    let cluster = Cluster::boot(cluster).expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    let prefix = prefix.to_string();
    sim.block_on(async move {
        let dev = cluster.client_devs[0].clone();
        let client = cluster.client(0).await.expect("client");
        let opts = AllocOptions {
            stripe_size: io.stripe,
            ..AllocOptions::default()
        };
        let name = format!("{prefix}ops");
        let region = client.alloc(&name, io.region, opts).await.expect("alloc");
        region.write(0, &pattern(0, io.fill)).await.expect("write");
        for op in 0..io.reads {
            let off = (op * io.read) % io.region;
            region.read(off, io.read).await.expect("read");
        }
        let batch_buf = dev.alloc(BATCH * (4 << 10)).expect("buf");
        let ios: Vec<(u64, DmaBuf)> = (0..BATCH)
            .map(|i| (i * (4 << 10), batch_buf.slice(i * (4 << 10), 4 << 10)))
            .collect();
        region.read_into_many(&ios).await.expect("read_many");
        dev.free(batch_buf).expect("free");

        let ck_opts = AllocOptions {
            stripe_size: 16 << 10,
            checksums: true,
            ..AllocOptions::default()
        };
        let name = format!("{prefix}opsck");
        let ck = client
            .alloc(&name, 256 << 10, ck_opts)
            .await
            .expect("alloc ck");
        ck.write(0, &pattern(0, 128 << 10)).await.expect("write ck");
        ck.read(0, 128 << 10).await.expect("read ck");

        let name = format!("{prefix}opskv");
        let table = KvTable::create(&client, &name, KvConfig::default())
            .await
            .expect("create");
        let keys: Vec<Vec<u8>> = (0..PROFILE_KEYS)
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
    })
}

/// Compares `len` bytes of local memory at `addr` against the pattern for
/// region offset `off`; returns 1 on mismatch.
pub(crate) fn verify(region: &Region, addr: u64, off: u64, len: u64) -> u64 {
    let got = region
        .client()
        .device()
        .read_mem(addr, len)
        .expect("local read");
    u64::from(got != pattern(off, len))
}

/// Renders E12's tables from one measurement.
pub fn tables(stats: &SmallIoStats) -> Vec<Table> {
    let mut t1 = Table::new(
        "E12a: small-IO streaming, per-op vs batched posting (4 servers, 256 ops/size)",
        &[
            "IO size",
            "per-op Gb/s",
            "batched Gb/s",
            "speedup",
            "per-op db/op",
            "batched db/op",
        ],
    );
    for s in &stats.sizes {
        t1.row(vec![
            fmt_bytes(s.size_bytes),
            format!("{:.2}", s.per_op_gbps),
            format!("{:.2}", s.batched_gbps),
            format!("{:.2}x", s.batched_speedup()),
            format!("{:.2}", s.per_op_doorbells),
            format!("{:.3}", s.batched_doorbells),
        ]);
    }
    t1.note("batched rounds post 16 ops per read_into_many call; every byte read-verified");

    let mut t2 = Table::new(
        "E12b: checksummed reads, one verified read_into of 256 stripes (stripe = IO size)",
        &["IO size", "Gb/s"],
    );
    for s in &stats.sizes {
        t2.row(vec![fmt_bytes(s.size_bytes), format!("{:.2}", s.ck_gbps)]);
    }
    t2.note(format!(
        "rounds of <= 4 MiB of frames, each wholly in flight; data errors across all arms: {}",
        stats.data_errors
    ));

    let z = &stats.ck_substripe;
    let mut t3 = Table::new(
        "E12c: sub-stripe verified IO (4 KiB ops, 64 KiB checksummed stripes, 2 replicas)",
        &["op", "Gb/s", "wire B/op", "x IO size"],
    );
    for (op, gbps, wire) in [
        ("read", z.read_gbps, z.read_wire_bytes_per_op),
        ("write", z.write_gbps, z.write_wire_bytes_per_op),
    ] {
        t3.row(vec![
            op.into(),
            format!("{gbps:.2}"),
            format!("{wire:.0}"),
            format!("{:.3}", wire / z.io_bytes as f64),
        ]);
    }
    t3.note(format!(
        "awaited per-op; an IO moves its 4 KiB checksum block and the block's entry per replica, \
         not its stripe: no amplification = {}",
        z.no_amplification()
    ));
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_and_pipelining_pay_off_without_data_errors() {
        let stats = measure();
        assert_eq!(stats.data_errors, 0, "read-back verification failed");
        assert!(
            stats.speedup_4k() >= 1.5,
            "batched 4 KiB speedup {:.2} below 1.5x",
            stats.speedup_4k()
        );
        assert!(
            stats.batched_doorbells_4k() < 1.0,
            "batched arm rang {:.2} doorbells/op",
            stats.batched_doorbells_4k()
        );
        for s in &stats.sizes {
            assert!(
                s.ck_gbps > s.per_op_gbps,
                "one verified read slower than awaited plain reads at {} bytes",
                s.size_bytes
            );
        }
        let z = &stats.ck_substripe;
        assert!(z.no_amplification(), "sub-stripe IO moves stripes: {z:?}");
        assert!(z.read_wire_bytes_per_op > z.io_bytes as f64);
        assert!(z.write_wire_bytes_per_op > (z.replicas * z.io_bytes) as f64);
    }

    #[test]
    fn ops_profile_is_deterministic_and_batched() {
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

        // Clean-path cost invariants, asserted on ledger counts rather than
        // timing: a warm first-probe get is exactly one posting round, a
        // cold put is probe + CAS + single publishing write, and the batched
        // multi_get amortises its doorbells across keys.
        let row = |op: &str| op_row(&a, op).expect("profiled op type");
        let get = row("get");
        assert_eq!((get.rtts_p50, get.rtts_max), (1, 1), "warm get RTTs");
        assert_eq!(get.retries + get.failovers, 0, "warm gets must be clean");
        let put = row("put");
        assert_eq!((put.rtts_p50, put.rtts_max), (3, 3), "cold put RTTs");
        let mg = row("multi_get");
        assert_eq!(mg.units, PROFILE_KEYS, "multi_get must cover every key");
        assert!(
            mg.doorbells_total < mg.units,
            "multi_get rang {} doorbells for {} keys",
            mg.doorbells_total,
            mg.units
        );
        for s in &a {
            assert_eq!(s.verify_failures, 0, "{}: clean run verify failures", s.op);
            assert!(s.bytes_total > 0, "{}: ops must move wire bytes", s.op);
        }

        let b = profile();
        assert_eq!(a, b, "seeded op profile must be identical across runs");
    }
}
