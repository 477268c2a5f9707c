//! E6 — PageRank: RStore's graph framework vs message-passing state of the
//! art (the paper's 2.6–4.2× claim, Table/Figure "graph processing").
//!
//! Both systems run on the same simulated 12-machine fabric with the same
//! graphs and iteration count. The RStore framework pulls neighbour state
//! with one-sided page reads; the baseline pushes one message per edge
//! through receiver CPUs.

use std::rc::Rc;
use std::time::Duration;

use baseline::msg_graph;
use fabric::{Fabric, FabricConfig};
use rdma::{RdmaConfig, RdmaDevice};
use rgraph::{reference, GraphStore, Kernel};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use sim::{Level, OpSummary, Sim};
use workload::{rmat_graph, uniform_graph, CsrGraph};

use crate::report::{export_fields, op_row, Entry};
use crate::table::{fmt_dur, Table};

const ITERS: usize = 5;
const WORKERS: usize = 12;

/// One RStore-framework PageRank run.
#[derive(Clone, Debug)]
pub struct RStoreRun {
    /// Virtual time of the whole job, worker setup included.
    pub total: Duration,
    /// Ranks that differ from the single-node reference in any bit.
    pub rank_errors: u64,
    /// Per-op costs of every worker's region IO; `read_many` is the
    /// supersteps' gathers.
    pub per_op: Vec<OpSummary>,
}

export_fields!(RStoreRun: total, rank_errors, per_op);

/// One graph's row: both systems on the same fabric.
#[derive(Clone, Debug)]
pub struct GraphRow {
    /// Row label.
    pub graph: &'static str,
    /// Vertices.
    pub n: u64,
    /// Edges.
    pub m: u64,
    /// The RStore framework's run.
    pub rstore: RStoreRun,
    /// The message-passing baseline's total.
    pub msg_passing: Duration,
}

export_fields!(GraphRow: graph, rstore, msg_passing; speedup());

impl GraphRow {
    /// Baseline time over RStore time.
    pub fn speedup(&self) -> f64 {
        self.msg_passing.as_secs_f64() / self.rstore.total.as_secs_f64()
    }
}

/// Measures every graph once.
pub fn measure() -> Vec<GraphRow> {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("rmat-14 (deg 16)", rmat_graph(14, 16 * (1 << 14), 7)),
        ("rmat-16 (deg 16)", rmat_graph(16, 16 * (1 << 16), 8)),
        ("rmat-14 (deg 48)", rmat_graph(14, 48 * (1 << 14), 10)),
        ("uniform-16k", uniform_graph(1 << 14, 16 * (1 << 14), 9)),
    ];
    graphs
        .into_iter()
        .map(|(graph, g)| GraphRow {
            graph,
            n: g.n,
            m: g.m(),
            rstore: run_rstore(&g),
            msg_passing: run_msg(&g),
        })
        .collect()
}

/// Renders E6's table from one measurement.
pub fn tables(rows: &[GraphRow]) -> Vec<Table> {
    let mut t = Table::new(
        "E6: PageRank runtime — RStore framework vs message-passing (12 workers, 5 iters)",
        &[
            "graph",
            "V",
            "E",
            "RStore total",
            "msg-passing total",
            "speedup",
        ],
    );
    for row in rows {
        t.row(vec![
            row.graph.to_string(),
            row.n.to_string(),
            row.m.to_string(),
            fmt_dur(row.rstore.total),
            fmt_dur(row.msg_passing),
            format!("{:.2}x", row.speedup()),
        ]);
    }
    t.note("paper claim C4: 2.6-4.2x over state-of-the-art message-passing systems");
    t.note("the claim's graphs are power-law (Twitter/web); the uniform row is an");
    t.note("out-of-band control showing the gap narrows without hub-induced skew");
    vec![t]
}

/// E6's report entry from one measurement: the `graphs` block, and the
/// asserts that every rank is exact and every gather one round trip.
pub fn entry(rows: &[GraphRow]) -> Entry {
    let mut e = Entry::new(tables(rows));
    e.block("graphs", rows);
    let rank_errors = rows.iter().map(|r| r.rstore.rank_errors).sum();
    let a = &mut e.asserts;
    a.eq("data_errors", rank_errors, 0);
    for r in rows {
        let gather = op_row(&r.rstore.per_op, "read_many").map_or(0, |s| s.rtts_p50);
        a.eq(&format!("gather.rtts_per_op.p50@{}", r.graph), gather, 1);
        a.ops_recorded(&r.rstore.per_op);
    }
    e
}

/// RStore framework run, with per-op costs recorded.
pub fn run_rstore(g: &CsrGraph) -> RStoreRun {
    let cluster = Cluster::boot(ClusterConfig {
        clients: WORKERS,
        ..ClusterConfig::with_servers(12)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let expect = reference::pagerank(g, ITERS, rgraph::DAMPING);
    let g = g.clone();
    sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await.expect("c");
        let opts = AllocOptions {
            stripe_size: 1 << 20,
            ..AllocOptions::default()
        };
        GraphStore::publish(&loader, "e6", &g, opts)
            .await
            .expect("publish");
        let metrics = devs[0].metrics();
        metrics.reset();
        let job = Kernel::PageRank { iters: ITERS };
        let out = rgraph::run(&devs, master, "e6", job, 0).await.expect("run");
        let wrong = out.ranks().into_iter().zip(&expect);
        RStoreRun {
            total: out.total,
            rank_errors: wrong.filter(|(a, b)| a.to_bits() != b.to_bits()).count() as u64,
            per_op: sim::ledger::summarize(&metrics),
        }
    })
}

/// Message-passing baseline run; returns total.
pub fn run_msg(g: &CsrGraph) -> std::time::Duration {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let devs: Vec<RdmaDevice> = (0..WORKERS)
        .map(|_| RdmaDevice::new(&fabric, RdmaConfig::default()))
        .collect();
    let g = Rc::new(g.clone());
    sim.block_on(async move { msg_graph::run(&devs, g, ITERS).await.expect("run").total })
}
