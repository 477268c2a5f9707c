//! E5 — design-choice ablations called out in `DESIGN.md`:
//!
//! * **a. striping width**: 12 readers against 1..12 memory servers — how
//!   much aggregate bandwidth striping unlocks.
//! * **b. IO size**: single-client bandwidth vs request size — the
//!   latency-bound to bandwidth-bound crossover.
//! * **c. setup amortization**: control-path cost (alloc + map) divided by
//!   per-IO gain over the two-sided baseline — how many IOs until RStore's
//!   setup pays for itself.

use std::time::Duration;

use baseline::twosided::{spawn_server, TwoSidedClient};
use fabric::{Fabric, FabricConfig};
use rdma::{RdmaConfig, RdmaDevice};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use sim::{join_all, Sim};

use crate::report::Entry;
use crate::table::{fmt_bytes, fmt_dur, Table};

/// Runs E5: its report entry is its tables.
pub fn entry() -> Entry {
    Entry::new(vec![stripe_width(), io_size(), amortization()])
}

fn stripe_width() -> Table {
    let mut t = Table::new(
        "E5a: aggregate bandwidth of 12 readers vs number of memory servers",
        &["servers", "aggregate Gb/s", "vs 1 server"],
    );
    let readers = 12usize;
    let slice = 256u64 << 20;
    let mut base = 0.0;
    for &servers in &[1usize, 2, 4, 8, 12] {
        let cluster = Cluster::boot(ClusterConfig {
            clients: readers,
            ..ClusterConfig::with_servers(servers)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let secs = sim.block_on({
            let sim = sim.clone();
            async move {
                let owner = RStoreClient::connect(&devs[0], master).await.expect("c");
                let opts = AllocOptions {
                    synthetic: true,
                    stripe_size: 16 << 20,
                    ..AllocOptions::default()
                };
                owner
                    .alloc("e5a", readers as u64 * slice, opts)
                    .await
                    .expect("alloc");
                let mut handles = Vec::new();
                for (i, dev) in devs.iter().enumerate() {
                    let c = RStoreClient::connect(dev, master).await.expect("c");
                    let region = c.map("e5a").await.expect("map");
                    let buf = dev.alloc_synthetic(slice).expect("buf");
                    handles.push(async move { region.read_into(i as u64 * slice, buf).await });
                }
                let t0 = sim.now();
                for r in join_all(handles).await {
                    r.expect("read");
                }
                (sim.now() - t0).as_secs_f64()
            }
        });
        let gbps = readers as f64 * slice as f64 * 8.0 / secs / 1e9;
        if base == 0.0 {
            base = gbps;
        }
        t.row(vec![
            servers.to_string(),
            format!("{gbps:.1}"),
            format!("{:.2}x", gbps / base),
        ]);
    }
    t.note("server links are the bottleneck until width matches the reader count");
    t
}

fn io_size() -> Table {
    let mut t = Table::new(
        "E5b: single-client read bandwidth vs IO size (4 servers)",
        &["IO size", "latency", "Gb/s"],
    );
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let rows = sim.block_on({
        let sim = sim.clone();
        async move {
            let client = RStoreClient::connect(&devs[0], master).await.expect("c");
            let opts = AllocOptions {
                synthetic: true,
                stripe_size: 16 << 20,
                ..AllocOptions::default()
            };
            let region = client.alloc("e5b", 1 << 30, opts).await.expect("alloc");
            let dev = client.device().clone();
            let mut rows = Vec::new();
            for &size in &[4096u64, 64 << 10, 1 << 20, 16 << 20, 256 << 20] {
                let buf = dev.alloc_synthetic(size).expect("buf");
                region.read_into(0, buf).await.expect("warm");
                let reps = 5u32;
                let t0 = sim.now();
                for _ in 0..reps {
                    region.read_into(0, buf).await.expect("read");
                }
                let lat = (sim.now() - t0) / reps;
                rows.push((size, lat));
                dev.free(buf).expect("free");
            }
            rows
        }
    });
    for (size, lat) in rows {
        let gbps = size as f64 * 8.0 / lat.as_secs_f64() / 1e9;
        t.row(vec![fmt_bytes(size), fmt_dur(lat), format!("{gbps:.2}")]);
    }
    t.note("crossover from latency-bound to the 54.3 Gb/s client link around ~1MiB");
    t
}

fn amortization() -> Table {
    let mut t = Table::new(
        "E5c: setup amortization — control-path cost vs per-IO advantage",
        &["metric", "value"],
    );
    // Control-path cost of a 64 MiB region on 4 servers.
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let (setup, rstore_io) = sim.block_on({
        let sim = sim.clone();
        async move {
            let client = RStoreClient::connect(&devs[0], master).await.expect("c");
            let t0 = sim.now();
            let region = client
                .alloc("e5c", 64 << 20, AllocOptions::default())
                .await
                .expect("alloc");
            let setup = sim.now() - t0;
            let dev = client.device().clone();
            let buf = dev.alloc(4096).expect("buf");
            region.read_into(0, buf).await.expect("warm");
            let reps = 20u32;
            let t0 = sim.now();
            for _ in 0..reps {
                region.read_into(0, buf).await.expect("read");
            }
            (setup, (sim.now() - t0) / reps)
        }
    });

    // Two-sided per-IO cost for the same 4 KiB read.
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let server = RdmaDevice::new(&fabric, RdmaConfig::default());
    let client = RdmaDevice::new(&fabric, RdmaConfig::default());
    spawn_server(&server, 64 << 20).expect("spawn");
    let node = server.node();
    let two_io = sim.block_on({
        let sim = sim.clone();
        async move {
            let c = TwoSidedClient::connect(&client, node).await.expect("c");
            c.read(0, 4096).await.expect("warm");
            let reps = 20u32;
            let t0 = sim.now();
            for _ in 0..reps {
                c.read(0, 4096).await.expect("read");
            }
            (sim.now() - t0) / reps
        }
    });

    let gain = two_io.saturating_sub(rstore_io);
    let breakeven = if gain > Duration::ZERO {
        (setup.as_nanos() / gain.as_nanos().max(1)).to_string()
    } else {
        "never".into()
    };
    t.row(vec![
        "setup (alloc 64MiB, 4 servers)".into(),
        fmt_dur(setup),
    ]);
    t.row(vec!["RStore 4KiB read".into(), fmt_dur(rstore_io)]);
    t.row(vec!["two-sided 4KiB read".into(), fmt_dur(two_io)]);
    t.row(vec!["per-IO gain".into(), fmt_dur(gain)]);
    t.row(vec!["break-even IO count".into(), breakeven]);
    t.note("claim C3 quantified: a few thousand IOs amortize the entire setup");
    t
}
