//! Distributed pull-style PageRank over RStore.
//!
//! Each worker owns a contiguous vertex range. Setup (control path): map the
//! graph regions, load the in-edge slice, plan the page gather. Each
//! superstep (data path): one batched round of one-sided page reads of the
//! contribution vector, local compute, one contiguous one-sided write of the
//! new contributions, barrier. The master and the memory-server CPUs are
//! never involved.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::RdmaDevice;
use rstore::{RStoreClient, Result};
use sim::sync::Barrier;
use sim::SimTime;

use crate::config::CostModel;
use crate::partition::VertexPartition;
use crate::store::{u64s_to_bytes, GraphStore};
use crate::worker::{run_partitions, CsrSlice, PageGather};

/// PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Synchronous iterations to run.
    pub iters: usize,
    /// Damping factor (0.85 in the paper's era).
    pub damping: f64,
    /// Page size for remote gathers of the contribution vector.
    pub page_bytes: u64,
    /// Compute-cost model.
    pub cost: CostModel,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            iters: 10,
            damping: 0.85,
            page_bytes: 4096,
            cost: CostModel::default(),
        }
    }
}

/// Result of a distributed PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankOutcome {
    /// Final ranks, indexed by vertex.
    pub ranks: Vec<f64>,
    /// Wall (virtual) time of the whole job, including worker setup.
    pub total: Duration,
    /// Per-superstep durations observed by worker 0.
    pub superstep_times: Vec<Duration>,
}

impl PageRankOutcome {
    /// Mean superstep duration.
    pub fn superstep_mean(&self) -> Duration {
        if self.superstep_times.is_empty() {
            return Duration::ZERO;
        }
        self.superstep_times.iter().sum::<Duration>() / self.superstep_times.len() as u32
    }
}

/// Runs distributed PageRank on a published graph, one worker per device.
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
    cfg: PageRankConfig,
) -> Result<PageRankOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len() as u64;
    let sim = devs[0].sim().clone();
    let t0 = sim.now();
    let (ranks, superstep_times) = run_partitions(devs, 0.0, |me, dev, barrier| {
        worker(me, k, dev, master, graph.to_owned(), cfg, barrier)
    })
    .await?;
    Ok(PageRankOutcome {
        ranks,
        total: sim.now() - t0,
        superstep_times,
    })
}

async fn worker(
    me: u64,
    k: u64,
    dev: RdmaDevice,
    master: NodeId,
    graph: String,
    cfg: PageRankConfig,
    barrier: Barrier,
) -> Result<(u64, Vec<f64>, Vec<Duration>)> {
    let sim = dev.sim().clone();
    // ---- control path: setup, paid once -------------------------------------
    let client = RStoreClient::connect(&dev, master).await?;
    let store = GraphStore::open(&client, &graph).await?;
    let part = VertexPartition::new(store.n, k);
    let (s, e) = part.range(me);
    let count = (e - s) as usize;
    let n = store.n;

    let in_slice = CsrSlice::load(&store, &client, "in", s, e).await?;
    let degs = store.read_u64s(&client, "out_deg", s, count as u64).await?;
    let val_a = store.map(&client, "val_a").await?;
    let val_b = store.map(&client, "val_b").await?;

    // Initial state: rank = 1/n, contribution = rank/deg.
    let mut ranks = vec![1.0 / n as f64; count];
    let init_contrib: Vec<u64> = (0..count)
        .map(|i| {
            let c = if degs[i] > 0 {
                ranks[i] / degs[i] as f64
            } else {
                0.0
            };
            c.to_bits()
        })
        .collect();
    val_a.write(s * 8, &u64s_to_bytes(&init_contrib)).await?;
    barrier.wait().await;

    let mut gather_a =
        PageGather::plan(val_a.clone(), in_slice.adj.iter().copied(), cfg.page_bytes)?;
    let mut gather_b =
        PageGather::plan(val_b.clone(), in_slice.adj.iter().copied(), cfg.page_bytes)?;
    let edges = in_slice.edge_count();

    // ---- data path: supersteps ------------------------------------------------
    let times = Rc::new(RefCell::new(Vec::new()));
    for it in 0..cfg.iters {
        let t_start: SimTime = sim.now();
        let (gather, out_region) = if it % 2 == 0 {
            (&mut gather_a, &val_b)
        } else {
            (&mut gather_b, &val_a)
        };
        gather.fetch().await?;

        let mut new_contrib = Vec::with_capacity(count);
        for i in 0..count {
            let v = s + i as u64;
            let mut sum = 0.0;
            for &u in in_slice.neighbors(v) {
                sum += gather.get_f64(u);
            }
            let r = (1.0 - cfg.damping) / n as f64 + cfg.damping * sum;
            ranks[i] = r;
            let c = if degs[i] > 0 { r / degs[i] as f64 } else { 0.0 };
            new_contrib.push(c.to_bits());
        }
        sim.sleep(cfg.cost.superstep(edges, count as u64)).await;
        out_region
            .write(s * 8, &u64s_to_bytes(&new_contrib))
            .await?;
        barrier.wait().await;
        if me == 0 {
            times.borrow_mut().push(sim.now() - t_start);
        }
    }

    let superstep_times = times.borrow().clone();
    Ok((s, ranks, superstep_times))
}
