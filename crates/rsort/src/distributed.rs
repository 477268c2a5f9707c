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
//! The same code runs in two modes: [`SortMode::Real`] moves and sorts real
//! TeraGen records (fully verifiable at laptop scale); [`SortMode::Fluid`]
//! uses synthetic (unbacked) regions so the 256 GB headline experiment runs
//! with exact timing but no data movement.

use std::time::Duration;

use fabric::NodeId;
use rdma::{DmaBuf, RdmaDevice};
use rstore::{AllocOptions, RStoreClient, Region, Result};
use sim::sync::Barrier;
use sim::{join_all, Sim};
use workload::{sort_records, KEY_BYTES, RECORD_BYTES};

use crate::plan::{choose_splitters, partition_records, Key, ShufflePlan};

/// Whether the sort moves real bytes or synthetic sizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortMode {
    /// Real records; output is verifiable.
    Real,
    /// Synthetic regions; timing only (for paper-scale runs).
    Fluid,
}

/// CPU-throughput model for the sort's compute phases, representing all
/// cores of a worker machine.
#[derive(Clone, Copy, Debug)]
pub struct SortCostModel {
    /// Partitioning pass throughput (bytes/s).
    pub partition_bps: u64,
    /// In-memory sort throughput (bytes/s).
    pub sort_bps: u64,
}

impl Default for SortCostModel {
    fn default() -> Self {
        SortCostModel {
            partition_bps: 4_000_000_000,
            sort_bps: 2_500_000_000,
        }
    }
}

/// Sort parameters.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Keys sampled per worker for splitter selection.
    pub sample_per_worker: usize,
    /// Streaming IO chunk size in bytes (multiple of the record size).
    pub io_chunk: u64,
    /// Compute model.
    pub cost: SortCostModel,
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
            sample_per_worker: 256,
            io_chunk: 8 * 1024 * 1024,
            cost: SortCostModel::default(),
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
    let region = client
        .alloc(
            &format!("{}/input", cfg.job),
            records.len() as u64,
            cfg.opts,
        )
        .await?;
    let mut off = 0usize;
    while off < records.len() {
        let end = (off + cfg.io_chunk as usize).min(records.len());
        region.write(off as u64, &records[off..end]).await?;
        off = end;
    }
    Ok(region)
}

/// Creates a synthetic input region of `records` records for
/// [`SortMode::Fluid`] runs.
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
    client
        .alloc(
            &format!("{}/input", cfg.job),
            records * RECORD_BYTES as u64,
            opts,
        )
        .await
}

/// Runs the distributed sort, one worker per device. The input region must
/// exist (see [`load_input`] / [`create_fluid_input`]).
///
/// # Errors
///
/// Store or IO failures from any worker.
///
/// # Panics
///
/// Panics if `devs` is empty.
pub async fn run(devs: &[RdmaDevice], master: NodeId, cfg: SortConfig) -> Result<SortOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len();
    let sim = devs[0].sim().clone();
    let barrier = Barrier::new(k);
    let t0 = sim.now();

    // Job-scoped region setup happens before any worker is spawned so that
    // allocation failures (e.g. insufficient cluster capacity for the
    // output region) surface as clean errors instead of stranding workers
    // at the first barrier.
    {
        let setup = RStoreClient::connect(&devs[0], master).await?;
        let input = setup.map(&format!("{}/input", cfg.job)).await?;
        let n = input.size() / RECORD_BYTES as u64;
        let fluid = cfg.mode == SortMode::Fluid;
        let out_opts = if fluid {
            AllocOptions {
                synthetic: true,
                ..cfg.opts
            }
        } else {
            cfg.opts
        };
        setup
            .alloc(
                &format!("{}/samples", cfg.job),
                (k * cfg.sample_per_worker * KEY_BYTES).max(8) as u64,
                cfg.opts,
            )
            .await?;
        setup
            .alloc(
                &format!("{}/splitters", cfg.job),
                ((k - 1) * KEY_BYTES).max(8) as u64,
                cfg.opts,
            )
            .await?;
        setup
            .alloc(&format!("{}/counts", cfg.job), (k * k * 8) as u64, cfg.opts)
            .await?;
        setup
            .alloc(
                &format!("{}/output", cfg.job),
                n * RECORD_BYTES as u64,
                out_opts,
            )
            .await?;
    }

    let mut handles = Vec::with_capacity(k);
    for (i, dev) in devs.iter().enumerate() {
        let dev = dev.clone();
        let barrier = barrier.clone();
        let cfg = cfg.clone();
        let sim2 = sim.clone();
        handles.push(sim.spawn(async move { worker(i, k, dev, master, cfg, barrier, sim2).await }));
    }
    let outs = join_all(handles).await;

    let mut records = 0;
    let mut phases = PhaseTimes::default();
    for out in outs {
        match out {
            Ok(Some((r, p))) => {
                records = r;
                phases = p;
            }
            Ok(None) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(SortOutcome {
        records,
        total: sim.now() - t0,
        phases,
    })
}

fn cpu_time(bytes: u64, bps: u64) -> Duration {
    Duration::from_nanos((bytes as u128 * 1_000_000_000 / bps as u128) as u64)
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
async fn worker(
    me: usize,
    k: usize,
    dev: RdmaDevice,
    master: NodeId,
    cfg: SortConfig,
    barrier: Barrier,
    sim: Sim,
) -> Result<Option<(u64, PhaseTimes)>> {
    let fluid = cfg.mode == SortMode::Fluid;
    // Stream in whole records.
    let io_chunk = (cfg.io_chunk / RECORD_BYTES as u64).max(1) * RECORD_BYTES as u64;
    let client = RStoreClient::connect(&dev, master).await?;
    let input = client.map(&format!("{}/input", cfg.job)).await?;
    let n = input.size() / RECORD_BYTES as u64;
    let part_start = me as u64 * n / k as u64;
    let part_end = (me as u64 + 1) * n / k as u64;
    let my_records = part_end - part_start;
    let mut phases = PhaseTimes::default();

    let samples_r = client.map(&format!("{}/samples", cfg.job)).await?;
    let splitters_r = client.map(&format!("{}/splitters", cfg.job)).await?;
    let counts_r = client.map(&format!("{}/counts", cfg.job)).await?;
    let output = client.map(&format!("{}/output", cfg.job)).await?;

    // ---- phase 1: sample ---------------------------------------------------------
    let t = sim.now();
    let samples = cfg.sample_per_worker.min(my_records as usize);
    let mut my_sample = Vec::with_capacity(samples * KEY_BYTES);
    for s in 0..samples {
        let rec = part_start + (s as u64 * my_records / samples.max(1) as u64);
        let key = input
            .read(rec * RECORD_BYTES as u64, KEY_BYTES as u64)
            .await?;
        my_sample.extend_from_slice(&key);
    }
    samples_r
        .write((me * cfg.sample_per_worker * KEY_BYTES) as u64, &my_sample)
        .await?;
    barrier.wait().await;

    if me == 0 && !fluid {
        let all = samples_r.read(0, samples_r.size()).await?;
        let mut keys: Vec<Key> = all
            .chunks_exact(KEY_BYTES)
            .map(|c| c.try_into().expect("key size"))
            .collect();
        let splitters = choose_splitters(&mut keys, k);
        let flat: Vec<u8> = splitters.iter().flat_map(|s| s.iter().copied()).collect();
        splitters_r.write(0, &flat).await?;
    }
    barrier.wait().await;
    let splitters: Vec<Key> = if fluid {
        Vec::new()
    } else {
        splitters_r
            .read(0, ((k - 1) * KEY_BYTES) as u64)
            .await?
            .chunks_exact(KEY_BYTES)
            .map(|c| c.try_into().expect("key size"))
            .collect()
    };
    phases.sample = sim.now() - t;

    // ---- phase 2: stream, partition, count ---------------------------------------
    let t = sim.now();
    let my_bytes = my_records * RECORD_BYTES as u64;
    let mut buckets: Vec<Vec<u8>> = vec![Vec::new(); k];
    let mut read_off = part_start * RECORD_BYTES as u64;
    let mut remaining = my_bytes;
    while remaining > 0 {
        let chunk = remaining.min(io_chunk);
        if fluid {
            // Timing-only read of the chunk.
            let staging = dev.alloc_synthetic(chunk)?;
            input.read_into(read_off, staging).await?;
            dev.free(staging)?;
        } else {
            let bytes = input.read(read_off, chunk).await?;
            for (d, part) in partition_records(&bytes, &splitters)
                .into_iter()
                .enumerate()
            {
                buckets[d].extend_from_slice(&part);
            }
        }
        read_off += chunk;
        remaining -= chunk;
    }
    sim.sleep(cpu_time(my_bytes, cfg.cost.partition_bps)).await;

    let my_counts: Vec<u64> = if fluid {
        // Uniform keys: an even split with the remainder on the last worker.
        let mut c = vec![my_records / k as u64; k];
        c[k - 1] += my_records % k as u64;
        c
    } else {
        buckets
            .iter()
            .map(|b| (b.len() / RECORD_BYTES) as u64)
            .collect()
    };
    let flat: Vec<u8> = my_counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    counts_r.write((me * k * 8) as u64, &flat).await?;
    barrier.wait().await;

    let all_counts = counts_r.read(0, (k * k * 8) as u64).await?;
    let matrix: Vec<Vec<u64>> = all_counts
        .chunks_exact(k * 8)
        .map(|row| {
            row.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
                .collect()
        })
        .collect();
    let plan = ShufflePlan::new(matrix);
    phases.partition = sim.now() - t;

    // ---- phase 3: one-sided shuffle ------------------------------------------------
    let t = sim.now();
    // A worker's staging buffers are real only when its records are.
    let alloc = |len: u64| match fluid {
        true => dev.alloc_synthetic(len),
        false => dev.alloc(len),
    };
    let mut shuffle: Vec<(u64, DmaBuf)> = Vec::new();
    let staged = async {
        for j in 0..k {
            let bytes = plan.count(me, j) * RECORD_BYTES as u64;
            if bytes == 0 {
                continue;
            }
            let buf = alloc(bytes)?;
            shuffle.push((plan.write_index(me, j) * RECORD_BYTES as u64, buf));
            if !fluid {
                dev.write_mem(buf.addr, &buckets[j])?;
            }
        }
        output.write_from_many(&shuffle).await
    }
    .await;
    for (_, buf) in shuffle {
        dev.free(buf)?;
    }
    staged?;
    drop(buckets);
    barrier.wait().await;
    phases.shuffle = sim.now() - t;

    // ---- phase 4: local sort ---------------------------------------------------------
    let t = sim.now();
    let (p_start, p_end) = plan.partition_range(me);
    let p_bytes = (p_end - p_start) * RECORD_BYTES as u64;
    if p_bytes > 0 {
        let p_off = p_start * RECORD_BYTES as u64;
        let staging = alloc(p_bytes)?;
        let sorted = async {
            output.read_into(p_off, staging).await?;
            if !fluid {
                let mut data = dev.read_mem(staging.addr, p_bytes)?;
                sort_records(&mut data);
                dev.write_mem(staging.addr, &data)?;
            }
            sim.sleep(cpu_time(p_bytes, cfg.cost.sort_bps)).await;
            output.write_from(p_off, staging).await
        }
        .await;
        dev.free(staging)?;
        sorted?;
    }
    barrier.wait().await;
    phases.local_sort = sim.now() - t;

    Ok(if me == 0 { Some((n, phases)) } else { None })
}
