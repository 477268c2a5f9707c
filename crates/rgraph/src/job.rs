//! One graph job: a [`Kernel`] run by one worker per device over a
//! published graph.
//!
//! PageRank, WCC and SSSP share one pull superstep body. Setup (control
//! path): connect, load the in-edge slice and the kernel's extra structure,
//! map the double-buffered value vectors, plan the page gathers. Each
//! superstep (data path): one batched round of one-sided page reads of the
//! value vector, local relaxation, one contiguous one-sided write of the new
//! values, barrier — and, for the converging kernels, the convergence vote.
//! BFS pushes instead ([`crate::bfs`]) but shares the job setup and the vote.
//! The master and the memory-server CPUs are never involved.

use std::time::Duration;

use fabric::NodeId;
use rdma::{CqStatus, RdmaDevice};
use rstore::{AllocOptions, RStoreClient, RStoreError, Result};
use sim::sync::{gang, Gang};
use sim::Sim;

use crate::bfs;
use crate::partition::VertexPartition;
use crate::reference::edge_weight;
use crate::store::{u64s_to_bytes, GraphStore};
use crate::worker::{ConvBoard, CsrSlice, Mailboxes, PageGather};

/// PageRank's damping factor (0.85 in the paper's era).
pub const DAMPING: f64 = 0.85;

/// The virtual CPU time a superstep charges for scanning `edges` edges of
/// `vertices` vertices: 4 ns per edge and 12 ns per vertex, in the range
/// measured for in-memory PageRank kernels of the era (a few ns per edge on
/// a 2.5 GHz core). It stands in for the arithmetic the real system does.
pub(crate) fn compute_cost(edges: u64, vertices: u64) -> Duration {
    Duration::from_nanos(4 * edges + 12 * vertices)
}

/// What a job computes, and so what [`Outcome::values`] holds per vertex.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// `iters` synchronous PageRank iterations: the rank, as `f64` bits
    /// ([`Outcome::ranks`]).
    PageRank {
        /// Iterations to run.
        iters: usize,
    },
    /// Weakly-connected components by min-label propagation over both edge
    /// directions: the smallest vertex id in the vertex's component.
    Wcc,
    /// Single-source shortest paths (Bellman-Ford supersteps) over in-edges
    /// weighted by [`edge_weight`]: the distance from `src`, `u64::MAX` if
    /// unreachable.
    Sssp {
        /// Source vertex.
        src: u64,
    },
    /// Breadth-first search over out-edges, pushed through one-sided
    /// mailboxes: the level from `src`, `u64::MAX` if unreachable.
    Bfs {
        /// Source vertex.
        src: u64,
    },
}

impl Kernel {
    /// The convergence board's region name; `None` for PageRank, which
    /// stops after a fixed count.
    fn board(&self, graph: &str, nonce: u64) -> Option<String> {
        match self {
            Kernel::PageRank { .. } => None,
            Kernel::Wcc => Some(format!("{graph}/wcc/conv{nonce}")),
            Kernel::Sssp { src } => Some(format!("{graph}/sssp{src}/conv{nonce}")),
            Kernel::Bfs { src } => Some(format!("{}/conv", bfs::prefix(graph, *src, nonce))),
        }
    }
}

/// Result of a job.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Final per-vertex values, indexed by vertex (see [`Kernel`]).
    pub values: Vec<u64>,
    /// Supersteps run.
    pub supersteps: usize,
    /// Per-superstep durations observed by worker 0.
    pub superstep_times: Vec<Duration>,
    /// Virtual time of the whole job, worker setup included.
    pub total: Duration,
}

impl Outcome {
    /// PageRank's ranks: [`Outcome::values`] read as `f64`.
    pub fn ranks(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|&bits| f64::from_bits(bits))
            .collect()
    }

    /// Mean superstep duration.
    pub fn superstep_mean(&self) -> Duration {
        if self.superstep_times.is_empty() {
            return Duration::ZERO;
        }
        self.superstep_times.iter().sum::<Duration>() / self.superstep_times.len() as u32
    }
}

/// One worker's values, its superstep count and (worker 0's) superstep
/// times.
pub(crate) type Share = (Vec<u64>, usize, Vec<Duration>);

/// Runs `kernel` on the published graph `graph`, one worker per device.
/// `nonce` namespaces the job's own regions (the convergence board, BFS's
/// mailboxes): two runs of one converging kernel on one graph need two.
///
/// # Errors
///
/// Store or IO failures: the error of the first worker to fail. That
/// failure ends the job: the others leave the superstep barrier instead of
/// waiting there for it.
///
/// # Panics
///
/// Panics if `devs` is empty.
pub async fn run(
    devs: &[RdmaDevice],
    master: NodeId,
    graph: &str,
    kernel: Kernel,
    nonce: u64,
) -> Result<Outcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len() as u64;
    let sim = devs[0].sim().clone();
    let t0 = sim.now();
    let board = kernel.board(graph, nonce);
    // Job-scoped setup, once, before the gang starts.
    if let Some(board) = &board {
        let setup = RStoreClient::connect(&devs[0], master).await?;
        if let Kernel::Bfs { src } = kernel {
            let prefix = bfs::prefix(graph, src, nonce);
            Mailboxes::create(
                &setup,
                &prefix,
                k,
                bfs::MAILBOX_CAP,
                AllocOptions::default(),
            )
            .await?;
        }
        ConvBoard::create(&setup, board, k, AllocOptions::default()).await?;
    }

    let flushed = || RStoreError::Io(CqStatus::Flushed);
    let shares = gang(&sim, devs.len(), flushed, |me, gang| {
        let (dev, graph, board) = (devs[me].clone(), graph.to_owned(), board.clone());
        async move {
            let seat = Seat::join(me as u64, &dev, master, &graph, gang).await?;
            match (kernel, board.as_deref()) {
                (Kernel::Bfs { src }, Some(board)) => {
                    bfs::push(&seat, src, &bfs::prefix(&graph, src, nonce), board).await
                }
                (_, board) => pull(&seat, kernel, board).await,
            }
        }
    })
    .await?;
    // Vertex ranges are contiguous in worker order; worker 0 keeps the times.
    let mut shares = shares.into_iter();
    let (mut values, supersteps, superstep_times) = shares.next().expect("one worker per device");
    for (vals, _, _) in shares {
        values.extend(vals);
    }
    Ok(Outcome {
        values,
        supersteps,
        superstep_times,
        total: sim.now() - t0,
    })
}

/// One worker's place in a job: its client, the graph, its vertex range and
/// its seat in the job's gang.
pub(crate) struct Seat {
    pub me: u64,
    pub sim: Sim,
    pub client: RStoreClient,
    pub store: GraphStore,
    pub part: VertexPartition,
    /// The owned vertex range `[s, e)`.
    pub s: u64,
    pub e: u64,
    /// The job's superstep barrier: `sync` returns `Io(Flushed)` once
    /// another worker has failed.
    pub gang: Gang<RStoreError>,
}

impl Seat {
    /// The setup every kernel starts with: connect, open the graph, take
    /// this worker's vertex range.
    async fn join(
        me: u64,
        dev: &RdmaDevice,
        master: NodeId,
        graph: &str,
        gang: Gang<RStoreError>,
    ) -> Result<Seat> {
        let client = RStoreClient::connect(dev, master).await?;
        let store = GraphStore::open(&client, graph).await?;
        let part = VertexPartition::new(store.n, gang.size() as u64);
        let (s, e) = part.range(me);
        Ok(Seat {
            me,
            sim: dev.sim().clone(),
            client,
            store,
            part,
            s,
            e,
            gang,
        })
    }

    /// The convergence vote: posts this worker's change count and, once
    /// every worker has, reads the total. True when nothing changed
    /// anywhere. The second barrier keeps a fast worker from overwriting
    /// the board before everyone has read it.
    pub async fn vote(&self, board: &ConvBoard, changes: u64) -> Result<bool> {
        board.post(self.me, changes).await?;
        self.gang.sync().await?;
        let total = board.total().await?;
        self.gang.sync().await?;
        Ok(total == 0)
    }
}

/// The pull superstep body of PageRank, WCC and SSSP.
async fn pull(seat: &Seat, kernel: Kernel, board: Option<&str>) -> Result<Share> {
    let (client, store, s, e) = (&seat.client, &seat.store, seat.s, seat.e);
    let count = e - s;
    let n = store.n;
    let in_slice = CsrSlice::load(store, client, "in", s, e).await?;
    // The kernel's extra structure: PageRank's out-degrees, WCC's out-edges.
    let (mut degs, mut out_slice) = (Vec::new(), None);
    match kernel {
        Kernel::PageRank { .. } => degs = store.read_u64s(client, "out_deg", s, count).await?,
        Kernel::Wcc => out_slice = Some(CsrSlice::load(store, client, "out", s, e).await?),
        _ => {}
    }
    let board = match board {
        Some(name) => Some(ConvBoard::open(client, name, seat.part.k).await?),
        None => None,
    };
    let val_a = store.map(client, "val_a").await?;
    let val_b = store.map(client, "val_b").await?;

    let mut values: Vec<u64> = (s..e)
        .map(|v| match kernel {
            Kernel::PageRank { .. } => (1.0 / n as f64).to_bits(),
            Kernel::Wcc => v,
            Kernel::Sssp { src } if v == src => 0,
            _ => u64::MAX,
        })
        .collect();
    // What neighbours gather: PageRank's contribution (rank over
    // out-degree), the value itself otherwise.
    let published = |values: &[u64]| match kernel {
        Kernel::PageRank { .. } => {
            let contrib = values.iter().zip(&degs).map(|(&r, &d)| match d {
                0 => 0.0,
                d => f64::from_bits(r) / d as f64,
            });
            u64s_to_bytes(&contrib.map(f64::to_bits).collect::<Vec<_>>())
        }
        _ => u64s_to_bytes(values),
    };
    val_a.write(s * 8, &published(&values)).await?;
    seat.gang.sync().await?;

    let ids = || {
        let out = out_slice.iter().flat_map(|o| o.adj.iter());
        in_slice.adj.iter().chain(out).copied()
    };
    let mut gathers = [
        PageGather::plan(val_a.clone(), ids())?,
        PageGather::plan(val_b.clone(), ids())?,
    ];
    let edges = in_slice.edge_count() + out_slice.as_ref().map_or(0, |o| o.edge_count());

    // ---- data path: supersteps --------------------------------------------
    let (mut step, mut times) = (0, Vec::new());
    let mut done = matches!(kernel, Kernel::PageRank { iters: 0 });
    while !done {
        let t = seat.sim.now();
        let gather = &mut gathers[step % 2];
        gather.fetch().await?;
        let mut changes = 0u64;
        for (value, v) in values.iter_mut().zip(s..e) {
            let ins = in_slice.neighbors(v).iter();
            let new = match kernel {
                Kernel::PageRank { .. } => {
                    let sum = ins.fold(0.0, |sum, &u| sum + gather.get_f64(u));
                    ((1.0 - DAMPING) / n as f64 + DAMPING * sum).to_bits()
                }
                Kernel::Wcc => {
                    let outs = out_slice.iter().flat_map(|o| o.neighbors(v));
                    ins.chain(outs)
                        .fold(*value, |best, &u| best.min(gather.get(u)))
                }
                Kernel::Sssp { .. } => ins.fold(*value, |best, &u| match gather.get(u) {
                    u64::MAX => best,
                    du => best.min(du + edge_weight(u, v)),
                }),
                Kernel::Bfs { .. } => unreachable!("BFS pushes"),
            };
            if new != *value {
                *value = new;
                changes += 1;
            }
        }
        seat.sim.sleep(compute_cost(edges, count)).await;
        let out = if step % 2 == 0 { &val_b } else { &val_a };
        out.write(s * 8, &published(&values)).await?;
        step += 1;
        done = match &board {
            Some(board) => seat.vote(board, changes).await?,
            None => {
                seat.gang.sync().await?;
                matches!(kernel, Kernel::PageRank { iters } if iters == step)
            }
        };
        if seat.me == 0 {
            times.push(seat.sim.now() - t);
        }
    }
    Ok((values, step, times))
}
