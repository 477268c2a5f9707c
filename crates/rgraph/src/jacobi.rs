//! Shared machinery for Jacobi-style fixpoint algorithms (WCC, SSSP):
//! per-superstep page gathers of a u64 value vector, local relaxation, and
//! convergence via the shared scoreboard.

use std::time::Duration;

use fabric::NodeId;
use rdma::RdmaDevice;
use rstore::{RStoreClient, Result};
use sim::sync::Barrier;

use crate::config::CostModel;
use crate::partition::VertexPartition;
use crate::reference::edge_weight;
use crate::store::{u64s_to_bytes, GraphStore};
use crate::worker::{run_partitions, ConvBoard, CsrSlice, PageGather};

/// Which fixpoint to run.
#[derive(Clone, Copy, Debug)]
pub(crate) enum JacobiKind {
    /// Min-label propagation over both edge directions.
    Wcc,
    /// Single-source shortest paths over in-edges with [`edge_weight`].
    Sssp {
        /// Source vertex.
        src: u64,
    },
}

impl JacobiKind {
    fn init(&self, v: u64) -> u64 {
        match self {
            JacobiKind::Wcc => v,
            JacobiKind::Sssp { src } => {
                if v == *src {
                    0
                } else {
                    u64::MAX
                }
            }
        }
    }

    fn tag(&self) -> String {
        match self {
            JacobiKind::Wcc => "wcc".into(),
            JacobiKind::Sssp { src } => format!("sssp{src}"),
        }
    }
}

/// Parameters shared by WCC and SSSP runs.
#[derive(Clone, Copy, Debug)]
pub struct JacobiConfig {
    /// Page size for remote value gathers.
    pub page_bytes: u64,
    /// Compute-cost model.
    pub cost: CostModel,
    /// Safety cap on supersteps (0 = no cap).
    pub max_supersteps: usize,
    /// Distinguishes concurrent runs in the namespace.
    pub job_nonce: u64,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            page_bytes: 4096,
            cost: CostModel::default(),
            max_supersteps: 0,
            job_nonce: 0,
        }
    }
}

/// Result of a fixpoint run.
#[derive(Clone, Debug)]
pub struct JacobiOutcome {
    /// Final per-vertex values (labels or distances).
    pub values: Vec<u64>,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Total virtual time.
    pub total: Duration,
}

pub(crate) async fn run(
    devs: &[RdmaDevice],
    master: NodeId,
    graph: &str,
    kind: JacobiKind,
    cfg: JacobiConfig,
) -> Result<JacobiOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len() as u64;
    let sim = devs[0].sim().clone();
    let t0 = sim.now();

    // Job-scoped setup before spawning: a failure here must not strand
    // workers at a barrier.
    {
        let setup = rstore::RStoreClient::connect(&devs[0], master).await?;
        let board_name = format!("{graph}/{}/conv{}", kind.tag(), cfg.job_nonce);
        ConvBoard::create(&setup, &board_name, k, rstore::AllocOptions::default()).await?;
    }

    let (values, supersteps) = run_partitions(devs, 0u64, |me, dev, barrier| {
        worker(me, k, dev, master, graph.to_owned(), kind, cfg, barrier)
    })
    .await?;
    Ok(JacobiOutcome {
        values,
        supersteps,
        total: sim.now() - t0,
    })
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
async fn worker(
    me: u64,
    k: u64,
    dev: RdmaDevice,
    master: NodeId,
    graph: String,
    kind: JacobiKind,
    cfg: JacobiConfig,
    barrier: Barrier,
) -> Result<(u64, Vec<u64>, usize)> {
    let sim = dev.sim().clone();
    // ---- setup ---------------------------------------------------------------
    let client = RStoreClient::connect(&dev, master).await?;
    let store = GraphStore::open(&client, &graph).await?;
    let part = VertexPartition::new(store.n, k);
    let (s, e) = part.range(me);
    let count = (e - s) as usize;

    let in_slice = CsrSlice::load(&store, &client, "in", s, e).await?;
    let out_slice = match kind {
        JacobiKind::Wcc => Some(CsrSlice::load(&store, &client, "out", s, e).await?),
        JacobiKind::Sssp { .. } => None,
    };

    let board_name = format!("{graph}/{}/conv{}", kind.tag(), cfg.job_nonce);
    let board = ConvBoard::open(&client, &board_name, k).await?;

    let val_a = store.map(&client, "val_a").await?;
    let val_b = store.map(&client, "val_b").await?;

    let mut values: Vec<u64> = (0..count).map(|i| kind.init(s + i as u64)).collect();
    val_a.write(s * 8, &u64s_to_bytes(&values)).await?;
    barrier.wait().await;

    let gather_ids = || {
        in_slice
            .adj
            .iter()
            .copied()
            .chain(out_slice.iter().flat_map(|o| o.adj.iter().copied()))
    };
    let mut gather_a = PageGather::plan(val_a.clone(), gather_ids(), cfg.page_bytes)?;
    let mut gather_b = PageGather::plan(val_b.clone(), gather_ids(), cfg.page_bytes)?;
    let edges = in_slice.edge_count() + out_slice.as_ref().map_or(0, |o| o.edge_count());

    // ---- supersteps -------------------------------------------------------------
    let mut step = 0usize;
    loop {
        let (gather, out_region) = if step.is_multiple_of(2) {
            (&mut gather_a, &val_b)
        } else {
            (&mut gather_b, &val_a)
        };
        gather.fetch().await?;

        let mut changes = 0u64;
        for i in 0..count {
            let v = s + i as u64;
            let mut best = values[i];
            match kind {
                JacobiKind::Wcc => {
                    for &u in in_slice.neighbors(v) {
                        best = best.min(gather.get(u));
                    }
                    if let Some(out) = &out_slice {
                        for &u in out.neighbors(v) {
                            best = best.min(gather.get(u));
                        }
                    }
                }
                JacobiKind::Sssp { .. } => {
                    for &u in in_slice.neighbors(v) {
                        let du = gather.get(u);
                        if du != u64::MAX {
                            best = best.min(du + edge_weight(u, v));
                        }
                    }
                }
            }
            if best < values[i] {
                values[i] = best;
                changes += 1;
            }
        }
        sim.sleep(cfg.cost.superstep(edges, count as u64)).await;
        out_region.write(s * 8, &u64s_to_bytes(&values)).await?;
        board.post(me, changes).await?;
        barrier.wait().await;
        step += 1;

        let total_changes = board.total().await?;
        barrier.wait().await; // don't let anyone overwrite the board early
        if total_changes == 0 || (cfg.max_supersteps > 0 && step >= cfg.max_supersteps) {
            break;
        }
    }

    Ok((s, values, step))
}
