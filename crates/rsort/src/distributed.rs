//! The distributed sort itself.
//!
//! Phase structure (all coordination over RStore, all bulk data movement
//! one-sided):
//!
//! 1. **Sample** — each worker reads a key sample from its input slice;
//!    worker 0 derives range splitters and publishes them.
//! 2. **Partition & count** — each worker streams its input slice, buckets
//!    records by splitter, and posts its counts row to the shared counts
//!    region; the full matrix gives every worker the exact output offset of
//!    every chunk ([`ShufflePlan`]).
//! 3. **Shuffle** — each worker RDMA-writes every bucket directly to its
//!    final location in the output region, all of them as one
//!    [`Region::write_from_many`] round. No receiver CPU, no intermediate
//!    spooling.
//! 4. **Local sort** — each worker reads its output partition, sorts it in
//!    memory, and writes it back. The output region is then globally
//!    sorted.
//!
//! Both modes run this one worker body. [`SortMode::Real`] moves and sorts
//! real TeraGen records (fully verifiable at laptop scale);
//! [`SortMode::Fluid`] runs on synthetic (unbacked) regions holding the
//! sizes of `teragen(n, FLUID_SEED)`, so the 256 GB headline experiment
//! runs with exact timing but no data movement. The worker consults the
//! mode at five steps only, the ones that touch a record's bytes (see
//! [`SortMode`]); every READ, WRITE, barrier and CPU charge is the same.

use std::time::Duration;

use fabric::NodeId;
use rdma::{CqStatus, DmaBuf, RdmaDevice};
use rstore::{AllocOptions, RStoreClient, RStoreError, Region, Result};
use sim::sync::{gang, Gang};
use workload::{key_at, sort_records, KEY_BYTES, RECORD_BYTES};

use crate::plan::{choose_splitters, partition_records, uniform_counts, Key, ShufflePlan};

/// The TeraGen seed a fluid run's input stands for: its records are
/// `teragen(n, FLUID_SEED)` in size only, and its sample keys are that
/// input's keys, computed from the record index.
pub const FLUID_SEED: u64 = 42;

/// Whether the sort moves real bytes or synthetic sizes — the one switch of
/// the worker body. Its methods are the five steps where the modes differ;
/// a worker's staging buffers are backed only when its records are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortMode {
    /// Real records; output is verifiable.
    Real,
    /// Synthetic regions standing for `teragen(n, FLUID_SEED)`; timing only
    /// (for paper-scale runs). Models TeraGen's uniform keys only.
    Fluid,
}

impl SortMode {
    fn alloc(self, dev: &RdmaDevice, len: u64) -> Result<DmaBuf> {
        Ok(match self {
            SortMode::Real => dev.alloc(len)?,
            SortMode::Fluid => dev.alloc_synthetic(len)?,
        })
    }

    /// (1) The key of input record `rec`, whose first bytes were `read`.
    fn sample_key(self, read: &[u8], rec: u64) -> Key {
        match self {
            SortMode::Real => read.try_into().expect("key size"),
            SortMode::Fluid => key_at(FLUID_SEED, rec),
        }
    }

    /// (2) The counts row of an `m`-record slice: the bucket sizes of a real
    /// run, the expected sizes for TeraGen's uniform keys
    /// ([`uniform_counts`]) of a fluid one. Either row sums to `m`.
    fn counts(self, buckets: &[Vec<u8>], splitters: &[Key], m: u64) -> Vec<u64> {
        match self {
            SortMode::Real => buckets
                .iter()
                .map(|b| (b.len() / RECORD_BYTES) as u64)
                .collect(),
            SortMode::Fluid => uniform_counts(splitters, m),
        }
    }

    /// (3) Appends the records of a staged chunk to their buckets, read
    /// where they lie.
    fn bucket(
        self,
        dev: &RdmaDevice,
        DmaBuf { addr, len }: DmaBuf,
        splitters: &[Key],
        buckets: &mut [Vec<u8>],
    ) -> Result<()> {
        if self == SortMode::Real {
            let parts =
                dev.with_mem(|mem| mem.view(addr, len, |recs| partition_records(recs, splitters)))?;
            for (bucket, part) in buckets.iter_mut().zip(parts.into_iter().flatten()) {
                bucket.extend_from_slice(&part);
            }
        }
        Ok(())
    }

    /// (4) Fills one shuffle staging buffer with its bucket.
    fn stage(self, dev: &RdmaDevice, buf: DmaBuf, bucket: &[u8]) -> Result<()> {
        if self == SortMode::Real {
            dev.write_mem(buf.addr, bucket)?;
        }
        Ok(())
    }

    /// (5) Sorts the staged records where they lie (the host sort).
    fn sort(self, dev: &RdmaDevice, DmaBuf { addr, len }: DmaBuf) -> Result<()> {
        if self == SortMode::Real {
            dev.with_mem(|mem| mem.view_mut(addr, len, sort_records))?;
        }
        Ok(())
    }
}

/// Keys each worker samples for splitter selection.
const SAMPLE_PER_WORKER: usize = 256;

/// Partitioning throughput of a worker machine, all cores (bytes/s).
const PARTITION_BPS: u64 = 4_000_000_000;

/// In-memory sort throughput of a worker machine, all cores (bytes/s).
const SORT_BPS: u64 = 2_500_000_000;

/// Sort parameters.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Streaming IO chunk size in bytes (multiple of the record size).
    pub io_chunk: u64,
    /// Region-name prefix for this job.
    pub job: String,
    /// Data or timing-only.
    pub mode: SortMode,
    /// Striping for the job's regions.
    pub opts: AllocOptions,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            io_chunk: 8 * 1024 * 1024,
            job: "sort".into(),
            mode: SortMode::Real,
            opts: AllocOptions::default(),
        }
    }
}

/// Per-phase timing of a sort run (virtual time, as seen by worker 0).
#[derive(Clone, Copy, Default, Debug)]
pub struct PhaseTimes {
    /// Splitter sampling and publication.
    pub sample: Duration,
    /// Input streaming + partitioning + counts exchange.
    pub partition: Duration,
    /// One-sided shuffle writes.
    pub shuffle: Duration,
    /// Partition read + in-memory sort + write-back.
    pub local_sort: Duration,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.sample + self.partition + self.shuffle + self.local_sort
    }
}

/// Result of a sort run.
#[derive(Clone, Debug)]
pub struct SortOutcome {
    /// Records sorted.
    pub records: u64,
    /// End-to-end virtual time (including job-region setup).
    pub total: Duration,
    /// Phase breakdown.
    pub phases: PhaseTimes,
}

/// Loads real input records into the job's input region (call before
/// [`run`] in [`SortMode::Real`]).
///
/// # Errors
///
/// Allocation or IO failures.
///
/// # Panics
///
/// Panics if `records` is not a whole number of records.
pub async fn load_input(client: &RStoreClient, cfg: &SortConfig, records: &[u8]) -> Result<Region> {
    assert_eq!(records.len() % RECORD_BYTES, 0, "ragged input");
    let name = format!("{}/input", cfg.job);
    let region = client.alloc(&name, records.len() as u64, cfg.opts).await?;
    for (i, chunk) in records.chunks(cfg.io_chunk as usize).enumerate() {
        region.write(i as u64 * cfg.io_chunk, chunk).await?;
    }
    Ok(region)
}

/// Creates a synthetic input region of `records` records for
/// [`SortMode::Fluid`] runs: the sizes of `teragen(records, FLUID_SEED)`.
///
/// # Errors
///
/// Allocation failures.
pub async fn create_fluid_input(
    client: &RStoreClient,
    cfg: &SortConfig,
    records: u64,
) -> Result<Region> {
    let opts = AllocOptions {
        synthetic: true,
        ..cfg.opts
    };
    let name = format!("{}/input", cfg.job);
    client
        .alloc(&name, records * RECORD_BYTES as u64, opts)
        .await
}

/// Runs the distributed sort, one worker per device. The input region must
/// exist (see [`load_input`] / [`create_fluid_input`]).
///
/// # Errors
///
/// Store or IO failures: the error of the first worker to fail. That
/// failure ends the sort: the others leave the phase barrier instead of
/// waiting there for it.
///
/// # Panics
///
/// Panics if `devs` is empty.
pub async fn run(devs: &[RdmaDevice], master: NodeId, cfg: SortConfig) -> Result<SortOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len();
    let sim = devs[0].sim().clone();
    let t0 = sim.now();

    // The job's shared regions are allocated once, by one client, before
    // the gang starts. The sort's total (E8's times) includes this setup in
    // this order.
    {
        let setup = RStoreClient::connect(&devs[0], master).await?;
        let input = setup.map(&format!("{}/input", cfg.job)).await?;
        let n = input.size() / RECORD_BYTES as u64;
        let out_opts = AllocOptions {
            synthetic: cfg.mode == SortMode::Fluid,
            ..cfg.opts
        };
        for (name, size, opts) in [
            ("samples", k * SAMPLE_PER_WORKER * KEY_BYTES, cfg.opts),
            ("splitters", (k - 1) * KEY_BYTES, cfg.opts),
            ("counts", k * k * 8, cfg.opts),
            ("output", n as usize * RECORD_BYTES, out_opts),
        ] {
            let name = format!("{}/{name}", cfg.job);
            setup.alloc(&name, size.max(8) as u64, opts).await?;
        }
    }

    let flushed = || RStoreError::Io(CqStatus::Flushed);
    let outs = gang(&sim, k, flushed, |me, gang| {
        worker(me, devs[me].clone(), master, cfg.clone(), gang)
    })
    .await?;
    // Worker 0's view.
    let (records, phases) = outs[0];
    Ok(SortOutcome {
        records,
        total: sim.now() - t0,
        phases,
    })
}

fn cpu_time(bytes: u64, bps: u64) -> Duration {
    Duration::from_nanos((bytes as u128 * 1_000_000_000 / bps as u128) as u64)
}

/// Record range `[start, end)` of worker `w`'s input slice.
fn slice(n: u64, k: usize, w: usize) -> (u64, u64) {
    (w as u64 * n / k as u64, (w as u64 + 1) * n / k as u64)
}

fn keys(bytes: &[u8]) -> Vec<Key> {
    bytes
        .chunks_exact(KEY_BYTES)
        .map(|c| c.try_into().expect("key size"))
        .collect()
}

#[allow(clippy::needless_range_loop)]
async fn worker(
    me: usize,
    dev: RdmaDevice,
    master: NodeId,
    cfg: SortConfig,
    gang: Gang<RStoreError>,
) -> Result<(u64, PhaseTimes)> {
    let (k, sim, mode) = (gang.size(), dev.sim().clone(), cfg.mode);
    // Stream in whole records.
    let io_chunk = (cfg.io_chunk / RECORD_BYTES as u64).max(1) * RECORD_BYTES as u64;
    let client = RStoreClient::connect(&dev, master).await?;
    let input = client.map(&format!("{}/input", cfg.job)).await?;
    let n = input.size() / RECORD_BYTES as u64;
    let (part_start, part_end) = slice(n, k, me);
    let my_records = part_end - part_start;
    let mut phases = PhaseTimes::default();

    let samples_r = client.map(&format!("{}/samples", cfg.job)).await?;
    let splitters_r = client.map(&format!("{}/splitters", cfg.job)).await?;
    let counts_r = client.map(&format!("{}/counts", cfg.job)).await?;
    let output = client.map(&format!("{}/output", cfg.job)).await?;

    // ---- phase 1: sample ---------------------------------------------------------
    let t = sim.now();
    let spw = SAMPLE_PER_WORKER;
    let samples = spw.min(my_records as usize);
    let mut my_sample = Vec::with_capacity(samples * KEY_BYTES);
    for s in 0..samples {
        let rec = part_start + (s as u64 * my_records / samples as u64);
        let read = input
            .read(rec * RECORD_BYTES as u64, KEY_BYTES as u64)
            .await?;
        my_sample.extend_from_slice(&mode.sample_key(&read, rec));
    }
    samples_r
        .write((me * spw * KEY_BYTES) as u64, &my_sample)
        .await?;
    gang.sync().await?;

    if me == 0 {
        // Worker `w` wrote `min(spw, |slice w|)` keys; the rest of its
        // `spw` slots is padding that must not become a splitter.
        let all = samples_r.read(0, samples_r.size()).await?;
        let mut sample: Vec<Key> = (0..k)
            .flat_map(|w| {
                let (start, end) = slice(n, k, w);
                let at = w * spw * KEY_BYTES;
                keys(&all[at..at + spw.min((end - start) as usize) * KEY_BYTES])
            })
            .collect();
        let splitters = choose_splitters(&mut sample, k);
        splitters_r.write(0, &splitters.concat()).await?;
    }
    gang.sync().await?;
    let splitters = keys(&splitters_r.read(0, ((k - 1) * KEY_BYTES) as u64).await?);
    phases.sample = sim.now() - t;

    // ---- phase 2: stream, partition, count ---------------------------------------
    let t = sim.now();
    let my_bytes = my_records * RECORD_BYTES as u64;
    let mut buckets: Vec<Vec<u8>> = vec![Vec::new(); k];
    let staging = mode.alloc(&dev, io_chunk.min(my_bytes).max(1))?;
    let streamed: Result<()> = async {
        let mut off = 0;
        while off < my_bytes {
            let chunk = staging.slice(0, (my_bytes - off).min(io_chunk));
            input
                .read_into(part_start * RECORD_BYTES as u64 + off, chunk)
                .await?;
            mode.bucket(&dev, chunk, &splitters, &mut buckets)?;
            off += chunk.len;
        }
        Ok(())
    }
    .await;
    dev.free(staging)?;
    streamed?;
    sim.sleep(cpu_time(my_bytes, PARTITION_BPS)).await;

    let my_counts = mode.counts(&buckets, &splitters, my_records);
    let flat: Vec<u8> = my_counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    counts_r.write((me * k * 8) as u64, &flat).await?;
    gang.sync().await?;

    let counts: Vec<u64> = (counts_r.read(0, (k * k * 8) as u64).await?)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
        .collect();
    let plan = ShufflePlan::new(counts.chunks(k).map(<[u64]>::to_vec).collect());
    phases.partition = sim.now() - t;

    // ---- phase 3: one-sided shuffle ------------------------------------------------
    let t = sim.now();
    let mut shuffle: Vec<(u64, DmaBuf)> = Vec::new();
    let staged = async {
        for j in 0..k {
            let bytes = plan.count(me, j) * RECORD_BYTES as u64;
            if bytes == 0 {
                continue;
            }
            let buf = mode.alloc(&dev, bytes)?;
            shuffle.push((plan.write_index(me, j) * RECORD_BYTES as u64, buf));
            mode.stage(&dev, buf, &buckets[j])?;
        }
        output.write_from_many(&shuffle).await
    }
    .await;
    for (_, buf) in shuffle {
        dev.free(buf)?;
    }
    staged?;
    drop(buckets);
    gang.sync().await?;
    phases.shuffle = sim.now() - t;

    // ---- phase 4: local sort ---------------------------------------------------------
    let t = sim.now();
    let (p_start, p_end) = plan.partition_range(me);
    let p_bytes = (p_end - p_start) * RECORD_BYTES as u64;
    if p_bytes > 0 {
        let p_off = p_start * RECORD_BYTES as u64;
        let staging = mode.alloc(&dev, p_bytes)?;
        let sorted = async {
            output.read_into(p_off, staging).await?;
            mode.sort(&dev, staging)?;
            sim.sleep(cpu_time(p_bytes, SORT_BPS)).await;
            output.write_from(p_off, staging).await
        }
        .await;
        dev.free(staging)?;
        sorted?;
    }
    gang.sync().await?;
    phases.local_sort = sim.now() - t;

    Ok((n, phases))
}
