//! `region_stream` and `region_ck`: mixed-size reads and writes of one
//! striped region, every read compared to a local shadow copy.
//!
//! Why two: `region_stream` is about bytes, not ops — a 1 MiB IO is 16
//! pieces over 4 servers and 16 fabric quanta, so `fabric` chunk scheduling
//! and `core.region` piece planning dominate and `core.kv` does nothing.
//! `region_ck` runs the same script shape on a checksummed region, where
//! every 4 KiB op verifies or read-modify-writes a 64 KiB stripe, so
//! `core.crc` and the pipelined stripe window do most of the work. The
//! pairing isolates checksum cost from transfer cost.

use std::rc::Rc;

use rstore::{AllocOptions, Cluster, ClusterConfig, Region};
use sim::{DetRng, Sim};

use super::{mix_seed, self_test_hits, ClientLog, OpRec, Pass, Registry, Workload, MAX_ATTEMPTS, WARMUP};
use crate::host::measured;
use crate::spans::host_ns;

const SERVERS: usize = 4;
const CLIENTS: usize = 4;
const REGION_BYTES: u64 = 64 << 20;
const STRIPE_BYTES: u64 = 64 << 10;
/// Each client reads and writes only its own slice, so its shadow is exact.
const SLICE_BYTES: u64 = REGION_BYTES / CLIENTS as u64;
/// IO sizes and their shares (per cent) of the ops.
const SIZES: [(u32, u64); 3] = [(4 << 10, 60), (64 << 10, 30), (1 << 20, 10)];
const READ_FRACTION: f64 = 0.5;
/// Write payloads are windows into one seeded random pool: drawing fresh
/// bytes per op would cost more host time than the store does.
const POOL_BYTES: usize = 4 << 20;
const REGION: &str = "bench";
const KINDS: [&str; 6] = ["read.4k", "read.64k", "read.1m", "write.4k", "write.64k", "write.1m"];

/// The two region shapes.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    name: &'static str,
    checksums: bool,
    ops_per_client: usize,
    warmup_ops_per_client: usize,
}

/// Plain region.
pub const STREAM: Shape =
    Shape { name: "region_stream", checksums: false, ops_per_client: 13_200, warmup_ops_per_client: 1_500 };

/// Checksummed region; a third of the ops because each costs three times
/// as much.
pub const CHECKSUMMED: Shape =
    Shape { name: "region_ck", checksums: true, ops_per_client: 4_400, warmup_ops_per_client: 500 };

/// One scripted IO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Io {
    /// Index into [`KINDS`].
    kind: u8,
    /// Offset within the client's slice.
    offset: u32,
    /// Where in the pool a write takes its payload.
    pool_offset: u32,
}

impl Io {
    fn is_write(&self) -> bool {
        self.kind >= 3
    }

    fn len(&self) -> u32 {
        SIZES[self.kind as usize % 3].0
    }
}

/// Ops per block of a script; each block holds the exact mix.
const BLOCK_OPS: usize = 100;

/// A script of `ops` IOs in blocks of [`BLOCK_OPS`]. Every block holds the
/// exact size and read/write mix, shuffled, so seeds differ in order and
/// placement, never in load; each IO lands at a random aligned offset.
fn draw_script(seed: u64, ops: usize) -> Vec<Io> {
    assert!(ops.is_multiple_of(BLOCK_OPS), "scripts are whole blocks");
    let mut rng = DetRng::new(seed);
    let mut block = Vec::with_capacity(BLOCK_OPS);
    for (size, &(_, share)) in SIZES.iter().enumerate() {
        let n = BLOCK_OPS * share as usize / 100;
        let reads = (n as f64 * READ_FRACTION).round() as usize;
        block.extend((0..n).map(|i| size as u8 + if i < reads { 0 } else { 3 }));
    }
    assert_eq!(block.len(), BLOCK_OPS, "the shares fill a block exactly");
    let mut script = Vec::with_capacity(ops);
    for _ in 0..ops / BLOCK_OPS {
        rng.shuffle(&mut block);
        for &kind in &block {
            let len = SIZES[kind as usize % 3].0 as u64;
            // Aligned to the IO size up to one stripe, so a 1 MiB IO is
            // exactly 16 pieces.
            let align = len.min(STRIPE_BYTES);
            script.push(Io {
                kind,
                offset: (rng.range_u64(0, (SLICE_BYTES - len) / align + 1) * align) as u32,
                pool_offset: rng.range_u64(0, POOL_BYTES as u64 - len + 1) as u32,
            });
        }
    }
    script
}

/// One client's handle and the bytes it expects the region to hold.
struct Endpoint {
    region: Region,
    shadow: Vec<u8>,
}

struct State {
    sim: Sim,
    cluster: Rc<Cluster>,
    endpoints: Vec<Endpoint>,
}

/// A region workload (see the module docs).
pub struct RegionIo {
    shape: Shape,
    seed: u64,
    self_test: bool,
    pool: Rc<Vec<u8>>,
    state: Option<State>,
}

impl RegionIo {
    pub fn new(shape: Shape, seed: u64, self_test: bool) -> RegionIo {
        let mut pool = vec![0u8; POOL_BYTES];
        DetRng::new(mix_seed(seed, 0, 99)).fill_bytes(&mut pool);
        RegionIo { shape, seed, self_test, pool: Rc::new(pool), state: None }
    }

    /// Runs one closed-loop pass over script `pass` ([`WARMUP`] or the index
    /// of a measured pass).
    fn run(&mut self, pass: u32, traced: bool) -> Result<Pass, String> {
        let ops = if pass == WARMUP { self.shape.warmup_ops_per_client } else { self.shape.ops_per_client };
        let scripts: Rc<Vec<Vec<Io>>> =
            Rc::new((0..CLIENTS).map(|c| draw_script(mix_seed(self.seed, pass, c as u64), ops)).collect());
        let st = self.state.as_mut().ok_or("pass before setup")?;
        let metrics = st.cluster.client_devs[0].metrics();
        metrics.reset();

        let sim = st.sim.clone();
        let endpoints = std::mem::take(&mut st.endpoints);
        let pool = self.pool.clone();
        let self_test = self.self_test;
        let name = self.shape.name;
        let (out, host) = measured(|| {
            st.sim.block_on(async move {
                let virt_start_ns = sim.now().as_nanos();
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(c, mut ep)| {
                        let (sim, pool, scripts) = (sim.clone(), pool.clone(), scripts.clone());
                        sim.clone().spawn(async move {
                            let script = &scripts[c];
                            let base = c as u64 * SLICE_BYTES;
                            let mut log = ClientLog {
                                recs: Vec::with_capacity(script.len()),
                                ..ClientLog::default()
                            };
                            for (i, io) in script.iter().enumerate() {
                                let (off, len) = (io.offset as usize, io.len() as usize);
                                let host_start_ns = if traced { host_ns() } else { 0 };
                                let virt_start_ns = sim.now().as_nanos();
                                let mut tries = 0;
                                loop {
                                    log.attempts += 1;
                                    tries += 1;
                                    let result = if io.is_write() {
                                        let data = &pool[io.pool_offset as usize..][..len];
                                        // Shadow first: a retried write is idempotent.
                                        ep.shadow[off..off + len].copy_from_slice(data);
                                        ep.region.write(base + off as u64, data).await
                                    } else {
                                        match ep.region.read(base + off as u64, len as u64).await {
                                            Ok(got) => {
                                                if self_test_hits(self_test, pass, c, i) {
                                                    ep.shadow[off + len / 2] ^= 1;
                                                }
                                                let want = &ep.shadow[off..off + len];
                                                if got != want {
                                                    let at = (0..len.min(got.len()))
                                                        .find(|&j| got[j] != want[j])
                                                        .unwrap_or(got.len().min(len));
                                                    let e = format!(
                                                        "{name}: client {c} op {i}: read of {len} bytes differs from the shadow at \
                                                         region offset {} ({} bytes returned)",
                                                        base as usize + off + at,
                                                        got.len()
                                                    );
                                                    return (ep, log, Err(e));
                                                }
                                                Ok(())
                                            }
                                            Err(e) => Err(e),
                                        }
                                    };
                                    match result {
                                        Ok(()) => break,
                                        Err(e) if tries >= MAX_ATTEMPTS => {
                                            let e = format!(
                                                "{name}: client {c} op {i} at region offset {} abandoned after {tries} attempts: {e}",
                                                base as usize + off
                                            );
                                            return (ep, log, Err(e));
                                        }
                                        Err(_) => log.errors += 1,
                                    }
                                }
                                log.recs.push(OpRec {
                                    kind: io.kind,
                                    bytes: len as u32,
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

impl Workload for RegionIo {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn setup(&mut self) -> Result<(), String> {
        let cluster = Cluster::boot(ClusterConfig { clients: CLIENTS, ..ClusterConfig::with_servers(SERVERS) })
            .map_err(|e| format!("boot: {e}"))?;
        let sim = cluster.sim.clone();
        let cluster = Rc::new(cluster);
        let c = cluster.clone();
        let pool = self.pool.clone();
        let opts =
            AllocOptions { stripe_size: STRIPE_BYTES, checksums: self.shape.checksums, ..AllocOptions::default() };
        let endpoints = sim.block_on(async move {
            let mut endpoints = Vec::with_capacity(CLIENTS);
            for i in 0..CLIENTS {
                let client = c.client(i).await.map_err(|e| format!("connect {i}: {e}"))?;
                let region =
                    if i == 0 { client.alloc(REGION, REGION_BYTES, opts).await } else { client.map(REGION).await }
                        .map_err(|e| format!("alloc/map {i}: {e}"))?;
                // Fill the slice so every later read has known bytes under it
                // (a different window of the pool per MiB and per client).
                let mut shadow = Vec::with_capacity(SLICE_BYTES as usize);
                while (shadow.len() as u64) < SLICE_BYTES {
                    let chunk = &pool[(shadow.len() / 7 + i * 4099) % (POOL_BYTES / 2)..][..1 << 20];
                    region
                        .write(i as u64 * SLICE_BYTES + shadow.len() as u64, chunk)
                        .await
                        .map_err(|e| format!("fill {i}: {e}"))?;
                    shadow.extend_from_slice(chunk);
                }
                endpoints.push(Endpoint { region, shadow });
            }
            Ok::<_, String>(endpoints)
        })?;
        self.state = Some(State { sim, cluster, endpoints });
        // Warm-up: settles staging buffers and the allocator's working set.
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
    fn scripts_stay_inside_the_slice_and_follow_the_mix() {
        let script = draw_script(7, 20_000);
        assert_eq!(script, draw_script(7, 20_000));
        assert_ne!(script, draw_script(8, 20_000));
        let mut by_size = [0usize; 3];
        let mut writes = 0;
        for io in &script {
            let len = io.len() as u64;
            assert!(io.offset as u64 + len <= SLICE_BYTES);
            assert_eq!(io.offset as u64 % len.min(STRIPE_BYTES), 0);
            assert!(io.pool_offset as usize + len as usize <= POOL_BYTES);
            by_size[io.kind as usize % 3] += 1;
            writes += io.is_write() as usize;
        }
        // The mix is exact, not merely expected — in every block.
        assert_eq!(by_size, [12_000, 6_000, 2_000]);
        assert_eq!(writes, 10_000);
        for block in script.chunks(BLOCK_OPS) {
            assert_eq!(block.iter().filter(|io| io.len() == 1 << 20).count(), 10);
            assert_eq!(block.iter().filter(|io| io.is_write()).count(), 50);
        }
    }
}
