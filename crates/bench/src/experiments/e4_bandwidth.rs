//! E4 — aggregate read bandwidth vs machine count (the 705 Gb/s claim).
//!
//! `m` memory servers and `m` client machines. One region of `m` GiB is
//! striped over all servers; each client reads its own 1 GiB slice with one
//! large zero-copy read. Aggregate bandwidth = total bytes / completion
//! time. Scaling is linear because striping spreads every client's pieces
//! over all server links.

use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use sim::join_all;

use crate::report::Entry;
use crate::table::Table;

const SLICE: u64 = 1 << 30;

/// Runs E4: its report entry is its tables.
pub fn entry() -> Entry {
    let mut table = Table::new(
        "E4: aggregate read bandwidth vs machines (1 GiB/client, 16MiB stripes)",
        &["machines", "time", "aggregate Gb/s", "per-machine Gb/s"],
    );
    for &m in &[2usize, 4, 6, 8, 10, 12] {
        let secs = measure(m);
        let total_bits = (m as u64 * SLICE * 8) as f64;
        let gbps = total_bits / secs / 1e9;
        table.row(vec![
            m.to_string(),
            format!("{:.4}s", secs),
            format!("{gbps:.1}"),
            format!("{:.2}", gbps / m as f64),
        ]);
    }
    table.note("paper claim C1: 705 Gb/s on 12 machines (58.8 Gb/s per FDR port, raw)");
    table.note("we report goodput on 54.3 Gb/s links; shape (linear scaling) is the result");
    Entry::new(vec![table])
}

fn measure(m: usize) -> f64 {
    let cluster = Cluster::boot(ClusterConfig {
        clients: m,
        ..ClusterConfig::with_servers(m)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            // Set up the striped region (control path, not timed).
            let owner = RStoreClient::connect(&devs[0], master)
                .await
                .expect("connect");
            let opts = AllocOptions {
                synthetic: true,
                stripe_size: 16 << 20,
                ..AllocOptions::default()
            };
            owner
                .alloc("e4", m as u64 * SLICE, opts)
                .await
                .expect("alloc");

            // Every client maps and pre-allocates its landing buffer.
            let mut clients = Vec::new();
            for dev in &devs {
                let c = RStoreClient::connect(dev, master).await.expect("connect");
                let region = c.map("e4").await.expect("map");
                let buf = dev.alloc_synthetic(SLICE).expect("staging");
                clients.push((c, region, buf));
            }

            // Timed: all clients read their slice concurrently.
            let t0 = sim.now();
            let reads = clients
                .iter()
                .enumerate()
                .map(|(i, (_, region, buf))| {
                    let region = region.clone();
                    let buf = *buf;
                    async move { region.read_into(i as u64 * SLICE, buf).await }
                })
                .collect::<Vec<_>>();
            for r in join_all(reads).await {
                r.expect("read");
            }
            (sim.now() - t0).as_secs_f64()
        }
    })
}
