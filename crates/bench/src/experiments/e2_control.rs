//! E2 — control-path cost: what setup costs, and why it is paid once.
//!
//! Table A: alloc and map latency vs region size (11 memory servers).
//! Table B: alloc latency of a fixed region vs number of servers.
//!
//! Alloc includes master placement, per-server extent RPCs, and the
//! simulated memory pinning/registration cost; map includes the lookup RPC
//! plus data-path connection establishment — everything the data path never
//! pays again.

use std::time::Duration;

use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};

use crate::report::Entry;
use crate::table::{fmt_bytes, fmt_dur, Table};

/// Runs E2: its report entry is its tables.
pub fn entry() -> Entry {
    let mut a = Table::new(
        "E2a: control-path latency vs region size (11 servers, 16MiB stripes)",
        &["region size", "alloc", "map (2nd client)", "per-GiB alloc"],
    );
    for &size in &[1u64 << 20, 16 << 20, 256 << 20, 1 << 30, 8u64 << 30] {
        let (alloc, map) = measure_size(11, size);
        let per_gib =
            Duration::from_nanos((alloc.as_nanos() * (1u128 << 30) / size as u128) as u64);
        a.row(vec![
            fmt_bytes(size),
            fmt_dur(alloc),
            fmt_dur(map),
            fmt_dur(per_gib),
        ]);
    }
    a.note("claim C3: setup is ms-scale and grows with size; IO after map never pays it");

    let mut b = Table::new(
        "E2b: alloc latency of 256MiB vs number of memory servers",
        &["servers", "alloc", "map (2nd client)"],
    );
    for &servers in &[1usize, 2, 4, 8, 11] {
        let (alloc, map) = measure_size(servers, 256 << 20);
        b.row(vec![servers.to_string(), fmt_dur(alloc), fmt_dur(map)]);
    }
    b.note("more servers = more extent RPCs + more data connections at map time");
    Entry::new(vec![a, b])
}

fn measure_size(servers: usize, size: u64) -> (Duration, Duration) {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 2,
        ..ClusterConfig::with_servers(servers)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on({
        let sim = sim.clone();
        async move {
            let c0 = RStoreClient::connect(&devs[0], master)
                .await
                .expect("connect");
            let c1 = RStoreClient::connect(&devs[1], master)
                .await
                .expect("connect");
            let opts = AllocOptions {
                synthetic: true, // isolate control-path cost; no data pages
                ..AllocOptions::default()
            };
            let t0 = sim.now();
            c0.alloc("e2", size, opts).await.expect("alloc");
            let alloc = sim.now() - t0;

            let t0 = sim.now();
            c1.map("e2").await.expect("map");
            let map = sim.now() - t0;
            (alloc, map)
        }
    })
}
