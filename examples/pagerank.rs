//! PageRank on the RStore graph framework vs the message-passing baseline —
//! the paper's headline graph-processing scenario, end to end.
//!
//! ```text
//! cargo run -p integration --release --example pagerank
//! ```

use std::rc::Rc;

use baseline::msg_graph;
use fabric::{Fabric, FabricConfig};
use rdma::{RdmaConfig, RdmaDevice};
use rgraph::{reference, GraphStore, Kernel};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use sim::Sim;
use workload::rmat_graph;

const WORKERS: usize = 8;
const ITERS: usize = 5;

fn main() -> rstore::Result<()> {
    let graph = rmat_graph(13, 16 * (1 << 13), 99);
    println!("graph: 2^13 vertices, {} edges (RMAT power-law)", graph.m());

    // --- RStore framework ---------------------------------------------------
    let cluster = Cluster::boot(ClusterConfig {
        clients: WORKERS,
        ..ClusterConfig::with_servers(8)
    })?;
    let sim = cluster.sim.clone();
    let g = graph.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let outcome = sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await?;
        GraphStore::publish(
            &loader,
            "pr",
            &g,
            AllocOptions {
                stripe_size: 1 << 20,
                ..AllocOptions::default()
            },
        )
        .await?;
        rgraph::run(&devs, master, "pr", Kernel::PageRank { iters: ITERS }, 0).await
    })?;
    println!(
        "RStore framework : total {} | superstep mean {}",
        bench_fmt(outcome.total),
        bench_fmt(outcome.superstep_mean())
    );

    // Verify against the single-node reference.
    let expect = reference::pagerank(&graph, ITERS, rgraph::DAMPING);
    let max_err = outcome
        .ranks()
        .iter()
        .zip(&expect)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max deviation from reference: {max_err:.2e}");
    assert!(max_err < 1e-12);

    // --- message-passing baseline --------------------------------------------
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let devs: Vec<RdmaDevice> = (0..WORKERS)
        .map(|_| RdmaDevice::new(&fabric, RdmaConfig::default()))
        .collect();
    let g = Rc::new(graph);
    let msg = sim.block_on(async move { msg_graph::run(&devs, g, ITERS).await })?;
    println!(
        "message-passing  : total {} | superstep mean {}",
        bench_fmt(msg.total),
        bench_fmt(msg.superstep_mean())
    );
    println!(
        "speedup: {:.2}x (paper band: 2.6-4.2x on power-law graphs)",
        msg.total.as_secs_f64() / outcome.total.as_secs_f64()
    );
    Ok(())
}

fn bench_fmt(d: std::time::Duration) -> String {
    if d.as_millis() > 0 {
        format!("{:.2}ms", d.as_nanos() as f64 / 1e6)
    } else {
        format!("{:.2}us", d.as_nanos() as f64 / 1e3)
    }
}
