//! Pregel-style message-passing PageRank — the "state of the art" the paper
//! compares its graph framework against.
//!
//! Same simulated hardware as RStore's framework, different architecture:
//! each superstep, every worker *pushes* one message per out-edge
//! (vertex id + contribution) to the owner of the target vertex over
//! two-sided RPC. The receiving worker's CPU deserializes and applies every
//! message. Per-edge messages and CPU-mediated receives are exactly the
//! overheads RStore's one-sided pull avoids.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use fabric::NodeId;
use rdma::RdmaDevice;
use rstore::proto::{error_reply, Dec, Request, Wire};
use rstore::rpc::{spawn_rpc_server, Channel, RESPONSE_TIMEOUT};
use rstore::{RStoreError, Result};
use sim::sync::Barrier;
use sim::{join_all, Sim};
use workload::CsrGraph;

/// Service id used by message-passing graph workers.
pub const MSG_GRAPH_SERVICE: u16 = 11;

/// Cost model for the message-passing framework.
#[derive(Clone, Copy, Debug)]
pub struct MsgGraphCost {
    /// Receiver CPU per delivered message batch (RPC dispatch).
    pub per_batch: Duration,
    /// Receiver CPU per individual (vertex, contribution) message.
    pub per_message: Duration,
    /// Sender CPU per individual message (serialize + route).
    pub per_send: Duration,
    /// Compute per owned vertex per superstep.
    pub per_vertex: Duration,
}

impl Default for MsgGraphCost {
    fn default() -> Self {
        MsgGraphCost {
            per_batch: Duration::from_micros(3),
            per_message: Duration::from_nanos(10),
            per_send: Duration::from_nanos(5),
            per_vertex: Duration::from_nanos(12),
        }
    }
}

/// PageRank parameters for the baseline.
#[derive(Clone, Copy, Debug)]
pub struct MsgPageRankConfig {
    /// Iterations.
    pub iters: usize,
    /// Damping.
    pub damping: f64,
    /// Costs.
    pub cost: MsgGraphCost,
    /// Max messages per RPC batch (framing limit).
    pub batch_messages: usize,
}

impl Default for MsgPageRankConfig {
    fn default() -> Self {
        MsgPageRankConfig {
            iters: 10,
            damping: 0.85,
            cost: MsgGraphCost::default(),
            batch_messages: 64 * 1024,
        }
    }
}

/// Result of a baseline PageRank run.
#[derive(Clone, Debug)]
pub struct MsgPageRankOutcome {
    /// Final ranks by vertex.
    pub ranks: Vec<f64>,
    /// Total virtual time (worker setup + supersteps).
    pub total: Duration,
    /// Per-superstep durations observed by worker 0.
    pub superstep_times: Vec<Duration>,
}

impl MsgPageRankOutcome {
    /// Mean superstep duration.
    pub fn superstep_mean(&self) -> Duration {
        if self.superstep_times.is_empty() {
            return Duration::ZERO;
        }
        self.superstep_times.iter().sum::<Duration>() / self.superstep_times.len() as u32
    }
}

struct Accum {
    /// Sums of incoming contributions for owned vertices (by local index).
    sums: Vec<f64>,
    start: u64,
}

impl Accum {
    /// Adds `msgs` into the sums, or refuses the whole batch if it names a
    /// vertex this worker does not own: the ids come off the wire.
    fn apply(&mut self, msgs: &[(u64, f64)]) -> Result<()> {
        let owned = self.start..self.start + self.sums.len() as u64;
        if let Some(&(v, _)) = msgs.iter().find(|(v, _)| !owned.contains(v)) {
            let why = format!("vertex {v} is not in this worker's range {owned:?}");
            return Err(RStoreError::Protocol(why));
        }
        for &(v, c) in msgs {
            self.sums[(v - self.start) as usize] += c;
        }
        Ok(())
    }
}

/// One batch of messages to one worker, `(target vertex, contribution)`
/// each: on the wire, a count and then 16 bytes per message. Answered with
/// `()` once the receiver has applied them.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Contributions(pub Vec<(u64, f64)>);

impl Wire for Contributions {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Wire::take(d).map(Contributions)
    }
}

impl Request for Contributions {
    type Reply = ();
}

/// Runs message-passing PageRank, one worker per device. The graph is held
/// in worker-local memory (partitioned by contiguous vertex ranges), as a
/// Pregel-style system would.
///
/// # Errors
///
/// Transport failures.
///
/// # Panics
///
/// Panics if `devs` is empty.
pub async fn run(
    devs: &[RdmaDevice],
    graph: Rc<CsrGraph>,
    cfg: MsgPageRankConfig,
) -> Result<MsgPageRankOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let k = devs.len() as u64;
    let n = graph.n;
    let sim = devs[0].sim().clone();
    let barrier = Barrier::new(devs.len());
    let t0 = sim.now();

    // Per-worker accumulators, filled by the RPC handlers.
    let mut accums = Vec::with_capacity(devs.len());
    let nodes: Vec<NodeId> = devs.iter().map(|d| d.node()).collect();
    for (i, dev) in devs.iter().enumerate() {
        let (s, e) = range(n, k, i as u64);
        let accum = Rc::new(RefCell::new(Accum {
            sums: vec![0.0; (e - s) as usize],
            start: s,
        }));
        accums.push(accum.clone());
        let sim2 = sim.clone();
        let cost = cfg.cost;
        spawn_rpc_server(
            dev,
            MSG_GRAPH_SERVICE,
            Duration::ZERO,
            Rc::new(move |_peer, req: Vec<u8>| {
                let accum = accum.clone();
                let sim = sim2.clone();
                Box::pin(async move {
                    let msgs = match Contributions::decode(&req) {
                        Ok(Contributions(msgs)) => msgs,
                        Err(e) => return error_reply(e),
                    };
                    let per_message = cost.per_message.as_nanos() as u64 * msgs.len() as u64;
                    sim.sleep(cost.per_batch + Duration::from_nanos(per_message))
                        .await;
                    Contributions::encode_reply(accum.borrow_mut().apply(&msgs))
                })
            }),
        )?;
    }

    let mut handles = Vec::with_capacity(devs.len());
    for (i, dev) in devs.iter().enumerate() {
        let dev = dev.clone();
        let barrier = barrier.clone();
        let graph = graph.clone();
        let accum = accums[i].clone();
        let nodes = nodes.clone();
        let sim2 = sim.clone();
        handles.push(sim.spawn(async move {
            worker(i as u64, k, dev, graph, cfg, barrier, accum, nodes, sim2).await
        }));
    }
    let outs = join_all(handles).await;

    let mut ranks = vec![0.0; n as usize];
    let mut superstep_times = Vec::new();
    for out in outs {
        let (start, vals, times) = out?;
        ranks[start as usize..start as usize + vals.len()].copy_from_slice(&vals);
        if !times.is_empty() {
            superstep_times = times;
        }
    }
    Ok(MsgPageRankOutcome {
        ranks,
        total: sim.now() - t0,
        superstep_times,
    })
}

fn range(n: u64, k: u64, i: u64) -> (u64, u64) {
    (i * n / k, (i + 1) * n / k)
}

fn owner(n: u64, k: u64, v: u64) -> u64 {
    // Contiguous balanced ranges; same binary search as the RStore framework.
    let (mut lo, mut hi) = (0u64, k - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if range(n, k, mid).1 <= v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
async fn worker(
    me: u64,
    k: u64,
    dev: RdmaDevice,
    graph: Rc<CsrGraph>,
    cfg: MsgPageRankConfig,
    barrier: Barrier,
    accum: Rc<RefCell<Accum>>,
    nodes: Vec<NodeId>,
    sim: Sim,
) -> Result<(u64, Vec<f64>, Vec<Duration>)> {
    let n = graph.n;
    let (s, e) = range(n, k, me);
    let count = (e - s) as usize;

    // Setup: one RPC connection per peer.
    let mut conns = Vec::with_capacity(k as usize);
    for (j, &node) in nodes.iter().enumerate() {
        if j as u64 == me {
            conns.push(None);
        } else {
            let conn = Channel::new(&dev, node, MSG_GRAPH_SERVICE, RESPONSE_TIMEOUT);
            conn.dial().await?;
            conns.push(Some(conn));
        }
    }
    barrier.wait().await;

    let mut ranks = vec![1.0 / n as f64; count];
    let mut times = Vec::new();

    for _ in 0..cfg.iters {
        let t_start = sim.now();

        // Scatter: one message per out-edge, batched per destination.
        let mut outgoing: Vec<Vec<(u64, f64)>> = vec![Vec::new(); k as usize];
        let mut sent = 0u64;
        for i in 0..count {
            let v = s + i as u64;
            let deg = graph.out_degree(v);
            if deg == 0 {
                continue;
            }
            let contrib = ranks[i] / deg as f64;
            for &u in graph.out_neighbors(v) {
                outgoing[owner(n, k, u) as usize].push((u, contrib));
                sent += 1;
            }
        }
        sim.sleep(Duration::from_nanos(
            cfg.cost.per_send.as_nanos() as u64 * sent,
        ))
        .await;

        for (j, msgs) in outgoing.iter().enumerate() {
            if j as u64 == me {
                // Local delivery: still costs apply-time, no network.
                accum.borrow_mut().apply(msgs)?;
                continue;
            }
            let conn = conns[j].as_ref().expect("peer connection");
            for chunk in msgs.chunks(cfg.batch_messages.max(1)) {
                conn.call(&Contributions(chunk.to_vec())).await?;
            }
        }
        barrier.wait().await;

        // Apply: fold accumulated sums into new ranks.
        {
            let mut acc = accum.borrow_mut();
            for i in 0..count {
                ranks[i] = (1.0 - cfg.damping) / n as f64 + cfg.damping * acc.sums[i];
                acc.sums[i] = 0.0;
            }
        }
        sim.sleep(Duration::from_nanos(
            cfg.cost.per_vertex.as_nanos() as u64 * count as u64,
        ))
        .await;
        barrier.wait().await;
        if me == 0 {
            times.push(sim.now() - t_start);
        }
    }

    Ok((s, ranks, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Fabric, FabricConfig};
    use rdma::RdmaConfig;

    fn devices(n: usize) -> (Sim, Vec<RdmaDevice>) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), FabricConfig::default());
        let devs = (0..n)
            .map(|_| RdmaDevice::new(&fabric, RdmaConfig::default()))
            .collect();
        (sim, devs)
    }

    /// Single-node PageRank with push semantics (summation order differs
    /// from the pull reference, so compare with tolerance).
    #[allow(clippy::needless_range_loop)]
    fn push_reference(g: &CsrGraph, iters: usize, d: f64) -> Vec<f64> {
        let n = g.n as usize;
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..iters {
            let mut sums = vec![0.0; n];
            for v in 0..n {
                let deg = g.out_degree(v as u64);
                if deg == 0 {
                    continue;
                }
                let c = rank[v] / deg as f64;
                for &u in g.out_neighbors(v as u64) {
                    sums[u as usize] += c;
                }
            }
            for v in 0..n {
                rank[v] = (1.0 - d) / n as f64 + d * sums[v];
            }
        }
        rank
    }

    #[test]
    fn a_batch_naming_a_vertex_the_worker_does_not_own_is_refused_whole() {
        let mut acc = Accum {
            sums: vec![0.0; 4],
            start: 10,
        };
        acc.apply(&[(10, 1.0), (13, 2.0)]).unwrap();
        for bad in [9, 14, u64::MAX] {
            let err = acc.apply(&[(11, 5.0), (bad, 1.0)]);
            assert!(
                matches!(err, Err(RStoreError::Protocol(_))),
                "{bad}: {err:?}"
            );
        }
        assert_eq!(
            acc.sums,
            [1.0, 0.0, 0.0, 2.0],
            "a refused batch adds nothing"
        );
    }

    #[test]
    fn owner_covers_all_vertices() {
        for (n, k) in [(10u64, 3u64), (100, 7), (5, 8)] {
            for v in 0..n {
                let o = owner(n, k, v);
                let (s, e) = range(n, k, o);
                assert!(s <= v && v < e);
            }
        }
    }

    #[test]
    fn msg_pagerank_matches_reference() {
        let (sim, devs) = devices(4);
        let g = Rc::new(workload::uniform_graph(300, 1800, 17));
        let expect = push_reference(&g, 6, 0.85);
        let out = sim.block_on({
            let g = g.clone();
            async move {
                let cfg = MsgPageRankConfig {
                    iters: 6,
                    ..MsgPageRankConfig::default()
                };
                run(&devs, g, cfg).await.unwrap()
            }
        });
        for (v, (a, b)) in out.ranks.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-12 * (1.0 + b.abs()),
                "mismatch at {v}: {a} vs {b}"
            );
        }
        assert_eq!(out.superstep_times.len(), 6);
    }

    #[test]
    fn batching_limit_respected() {
        let (sim, devs) = devices(2);
        let g = Rc::new(workload::uniform_graph(100, 900, 8));
        let expect = push_reference(&g, 3, 0.85);
        let out = sim.block_on({
            let g = g.clone();
            async move {
                let cfg = MsgPageRankConfig {
                    iters: 3,
                    batch_messages: 7, // force many small batches
                    ..MsgPageRankConfig::default()
                };
                run(&devs, g, cfg).await.unwrap()
            }
        });
        for (a, b) in out.ranks.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }
}
