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
use rdma::{CqStatus, RdmaDevice};
use rgraph::{VertexPartition, DAMPING};
use rstore::proto::{Dec, Request, Wire};
use rstore::rpc::{spawn_rpc_server, Channel, RESPONSE_TIMEOUT};
use rstore::{RStoreError, Result};
use sim::sync::{gang, Gang};
use workload::CsrGraph;

/// Service id used by message-passing graph workers.
pub const MSG_GRAPH_SERVICE: u16 = 11;

/// Receiver CPU per delivered message batch (RPC dispatch).
const PER_BATCH: Duration = Duration::from_micros(3);
/// Receiver CPU per individual (vertex, contribution) message.
const PER_MESSAGE: Duration = Duration::from_nanos(10);
/// Sender CPU per individual message (serialize + route).
const PER_SEND: Duration = Duration::from_nanos(5);
/// Compute per owned vertex per superstep.
const PER_VERTEX: Duration = Duration::from_nanos(12);
/// Max messages per RPC batch (framing limit).
const BATCH_MESSAGES: usize = 64 * 1024;

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

/// Runs `iters` iterations of message-passing PageRank, one worker per
/// device. The graph is held in worker-local memory (partitioned by
/// contiguous vertex ranges, as in [`VertexPartition`]), as a Pregel-style
/// system would.
///
/// # Errors
///
/// Transport failures: the error of the first worker to fail. That failure
/// ends the run: the others leave the superstep barrier instead of waiting
/// there for it.
///
/// # Panics
///
/// Panics if `devs` is empty.
pub async fn run(
    devs: &[RdmaDevice],
    graph: Rc<CsrGraph>,
    iters: usize,
) -> Result<MsgPageRankOutcome> {
    assert!(!devs.is_empty(), "need at least one worker device");
    let part = VertexPartition::new(graph.n, devs.len() as u64);
    let sim = devs[0].sim().clone();
    let t0 = sim.now();

    // Per-worker accumulators, filled by the RPC handlers.
    let mut accums = Vec::with_capacity(devs.len());
    let nodes: Vec<NodeId> = devs.iter().map(|d| d.node()).collect();
    for (i, dev) in devs.iter().enumerate() {
        let (s, e) = part.range(i as u64);
        let accum = Rc::new(RefCell::new(Accum {
            sums: vec![0.0; (e - s) as usize],
            start: s,
        }));
        accums.push(accum.clone());
        let sim = sim.clone();
        let serve = move |Contributions(msgs), mut out| {
            let (accum, sim) = (accum.clone(), sim.clone());
            async move {
                let per_message = PER_MESSAGE.as_nanos() as u64 * msgs.len() as u64;
                sim.sleep(PER_BATCH + Duration::from_nanos(per_message))
                    .await;
                Contributions::encode_reply(accum.borrow_mut().apply(&msgs), &mut out);
                out
            }
        };
        spawn_rpc_server(dev, MSG_GRAPH_SERVICE, Duration::ZERO, serve)?;
    }

    let flushed = || RStoreError::Io(CqStatus::Flushed);
    let mut shares = gang(&sim, devs.len(), flushed, |me, gang| {
        let (dev, accum) = (devs[me].clone(), accums[me].clone());
        worker(me, dev, graph.clone(), iters, accum, nodes.clone(), gang)
    })
    .await?;
    // Vertex ranges are contiguous in worker order; worker 0 keeps the times.
    let ranks = shares.iter().flat_map(|(r, _)| r).copied().collect();
    let superstep_times = shares.swap_remove(0).1;
    Ok(MsgPageRankOutcome {
        ranks,
        total: sim.now() - t0,
        superstep_times,
    })
}

#[allow(clippy::needless_range_loop)]
async fn worker(
    me: usize,
    dev: RdmaDevice,
    graph: Rc<CsrGraph>,
    iters: usize,
    accum: Rc<RefCell<Accum>>,
    nodes: Vec<NodeId>,
    gang: Gang<RStoreError>,
) -> Result<(Vec<f64>, Vec<Duration>)> {
    let (n, sim) = (graph.n, dev.sim().clone());
    let part = VertexPartition::new(n, nodes.len() as u64);
    let (s, e) = part.range(me as u64);
    let count = (e - s) as usize;

    // Setup: one RPC connection per peer.
    let mut conns = Vec::with_capacity(nodes.len());
    for (j, &node) in nodes.iter().enumerate() {
        if j == me {
            conns.push(None);
        } else {
            let conn = Channel::new(&dev, node, MSG_GRAPH_SERVICE, RESPONSE_TIMEOUT);
            conn.dial().await?;
            conns.push(Some(conn));
        }
    }
    gang.sync().await?;

    let mut ranks = vec![1.0 / n as f64; count];
    let mut times = Vec::new();

    for _ in 0..iters {
        let t_start = sim.now();

        // Scatter: one message per out-edge, batched per destination.
        let mut outgoing: Vec<Vec<(u64, f64)>> = vec![Vec::new(); nodes.len()];
        let mut sent = 0u64;
        for i in 0..count {
            let v = s + i as u64;
            let deg = graph.out_degree(v);
            if deg == 0 {
                continue;
            }
            let contrib = ranks[i] / deg as f64;
            for &u in graph.out_neighbors(v) {
                outgoing[part.owner(u) as usize].push((u, contrib));
                sent += 1;
            }
        }
        sim.sleep(Duration::from_nanos(PER_SEND.as_nanos() as u64 * sent))
            .await;

        for (j, msgs) in outgoing.iter().enumerate() {
            if j == me {
                // Local delivery: still costs apply-time, no network.
                accum.borrow_mut().apply(msgs)?;
                continue;
            }
            let conn = conns[j].as_ref().expect("peer connection");
            for chunk in msgs.chunks(BATCH_MESSAGES) {
                conn.call(&Contributions(chunk.to_vec())).await?;
            }
        }
        gang.sync().await?;

        // Apply: fold accumulated sums into new ranks.
        {
            let mut acc = accum.borrow_mut();
            for i in 0..count {
                ranks[i] = (1.0 - DAMPING) / n as f64 + DAMPING * acc.sums[i];
                acc.sums[i] = 0.0;
            }
        }
        sim.sleep(Duration::from_nanos(
            PER_VERTEX.as_nanos() as u64 * count as u64,
        ))
        .await;
        gang.sync().await?;
        if me == 0 {
            times.push(sim.now() - t_start);
        }
    }

    Ok((ranks, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Fabric, FabricConfig};
    use rdma::RdmaConfig;
    use sim::Sim;

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
    fn msg_pagerank_matches_reference() {
        let (sim, devs) = devices(4);
        let g = Rc::new(workload::uniform_graph(300, 1800, 17));
        let expect = push_reference(&g, 6, DAMPING);
        let out = sim.block_on({
            let g = g.clone();
            async move { run(&devs, g, 6).await.unwrap() }
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
        // Every vertex of worker 0's half points at 160 of worker 1's: the
        // pair's traffic is 80 Ki messages per superstep, two batches.
        let (sim, devs) = devices(2);
        let (n, fan) = (1024u64, 160u64);
        let edges: Vec<(u64, u64)> = (0..n / 2)
            .flat_map(|v| (0..fan).map(move |j| (v, n / 2 + (v + j) % (n / 2))))
            .collect();
        assert!(edges.len() > BATCH_MESSAGES, "{} messages", edges.len());
        let g = Rc::new(CsrGraph::from_edges(n, &edges));
        let expect = push_reference(&g, 3, DAMPING);
        let out = sim.block_on({
            let g = g.clone();
            async move { run(&devs, g, 3).await.unwrap() }
        });
        for (a, b) in out.ranks.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }
}
