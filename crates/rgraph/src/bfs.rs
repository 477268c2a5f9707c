//! Distributed BFS using one-sided mailboxes.
//!
//! Unlike the pull-style kernels, BFS is frontier-driven: each superstep a
//! worker pushes the ids of newly reachable vertices directly into their
//! owners' mailbox regions with one-sided writes — message passing that
//! never wakes a remote CPU.

use std::time::Duration;

use fabric::NodeId;
use rdma::RdmaDevice;
use rstore::{AllocOptions, RStoreClient, Result};
use sim::sync::Barrier;

use crate::config::CostModel;
use crate::partition::VertexPartition;
use crate::store::GraphStore;
use crate::worker::{run_partitions, ConvBoard, CsrSlice, Mailboxes};

/// BFS parameters.
#[derive(Clone, Copy, Debug)]
pub struct BfsConfig {
    /// Per-mailbox capacity in vertex ids. Must bound the unique vertices a
    /// single worker can discover for one peer in a superstep.
    pub mailbox_cap: u64,
    /// Compute-cost model.
    pub cost: CostModel,
    /// Distinguishes concurrent runs in the namespace.
    pub job_nonce: u64,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig {
            mailbox_cap: 64 * 1024,
            cost: CostModel::default(),
            job_nonce: 0,
        }
    }
}

/// Result of a BFS run.
#[derive(Clone, Debug)]
pub struct BfsOutcome {
    /// BFS level per vertex (`u64::MAX` = unreachable).
    pub levels: Vec<u64>,
    /// Supersteps executed (= eccentricity of the source + 1).
    pub supersteps: usize,
    /// Total virtual time.
    pub total: Duration,
}

/// Runs distributed BFS from `src`, one worker per device.
///
/// # Errors
///
/// Store or IO failures from any worker.
///
/// # Panics
///
/// Panics if `devs` is empty.
pub async fn run(
    devs: &[RdmaDevice],
    master: NodeId,
    graph: &str,
    src: u64,
    cfg: BfsConfig,
) -> Result<BfsOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len() as u64;
    let sim = devs[0].sim().clone();
    let t0 = sim.now();

    // Job-scoped setup before spawning: a failure here must not strand
    // workers at a barrier.
    {
        let setup = RStoreClient::connect(&devs[0], master).await?;
        let prefix = format!("{graph}/bfs{src}_{}", cfg.job_nonce);
        Mailboxes::create(&setup, &prefix, k, cfg.mailbox_cap, AllocOptions::default()).await?;
        ConvBoard::create(
            &setup,
            &format!("{prefix}/conv"),
            k,
            AllocOptions::default(),
        )
        .await?;
    }

    let (levels, supersteps) = run_partitions(devs, u64::MAX, |me, dev, barrier| {
        worker(me, k, dev, master, graph.to_owned(), src, cfg, barrier)
    })
    .await?;
    Ok(BfsOutcome {
        levels,
        supersteps,
        total: sim.now() - t0,
    })
}

#[allow(clippy::too_many_arguments)]
async fn worker(
    me: u64,
    k: u64,
    dev: RdmaDevice,
    master: NodeId,
    graph: String,
    src: u64,
    cfg: BfsConfig,
    barrier: Barrier,
) -> Result<(u64, Vec<u64>, usize)> {
    let sim = dev.sim().clone();
    let client = RStoreClient::connect(&dev, master).await?;
    let store = GraphStore::open(&client, &graph).await?;
    let part = VertexPartition::new(store.n, k);
    let (s, e) = part.range(me);
    let count = (e - s) as usize;

    let out_slice = CsrSlice::load(&store, &client, "out", s, e).await?;

    let prefix = format!("{graph}/bfs{src}_{}", cfg.job_nonce);
    let mbox = Mailboxes::open(&client, &prefix, k, me).await?;
    let board = ConvBoard::open(&client, &format!("{prefix}/conv"), k).await?;

    let mut levels = vec![u64::MAX; count];
    let mut frontier: Vec<u64> = Vec::new();
    if (s..e).contains(&src) {
        levels[(src - s) as usize] = 0;
        frontier.push(src);
    }

    let mut depth = 0u64;
    let mut steps = 0usize;
    loop {
        depth += 1;
        steps += 1;

        // Push phase: every out-neighbour of the frontier, deduplicated,
        // routed to its owner's mailbox.
        let mut targets: Vec<u64> = frontier
            .iter()
            .flat_map(|&v| out_slice.neighbors(v).iter().copied())
            .collect();
        let edges_touched = targets.len() as u64;
        targets.sort_unstable();
        targets.dedup();
        let outboxes = Mailboxes::route(&part, targets);
        sim.sleep(cfg.cost.superstep(edges_touched, frontier.len() as u64))
            .await;
        mbox.send_all(&outboxes).await?;
        barrier.wait().await;

        // Pull phase: adopt newly discovered owned vertices.
        let mut discovered = 0u64;
        frontier.clear();
        for payload in mbox.recv_all().await? {
            for v in payload {
                let i = (v - s) as usize;
                if levels[i] == u64::MAX {
                    levels[i] = depth;
                    frontier.push(v);
                    discovered += 1;
                }
            }
        }
        board.post(me, discovered).await?;
        barrier.wait().await;
        let total = board.total().await?;
        barrier.wait().await;
        if total == 0 {
            break;
        }
    }

    Ok((s, levels, steps))
}
