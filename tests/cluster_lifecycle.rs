//! Cross-crate integration: full cluster lifecycle scenarios.

use std::time::Duration;

use rstore::{
    AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, Policy, RStoreClient, RStoreError,
};

fn boot(servers: usize, clients: usize) -> Cluster {
    Cluster::boot(ClusterConfig {
        clients,
        ..ClusterConfig::with_servers(servers)
    })
    .expect("boot")
}

#[test]
fn many_regions_many_clients() {
    let cluster = boot(4, 4);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        // Every client allocates its own regions and writes a signature.
        let mut clients = Vec::new();
        for (i, dev) in devs.iter().enumerate() {
            let c = RStoreClient::connect(dev, master).await.unwrap();
            for r in 0..3 {
                let region = c
                    .alloc(&format!("c{i}/r{r}"), 256 * 1024, AllocOptions::default())
                    .await
                    .unwrap();
                region
                    .write(0, format!("sig-{i}-{r}").as_bytes())
                    .await
                    .unwrap();
            }
            clients.push(c);
        }
        // Every client reads every other client's regions.
        for (i, c) in clients.iter().enumerate() {
            for j in 0..clients.len() {
                for r in 0..3 {
                    let region = c.map(&format!("c{j}/r{r}")).await.unwrap();
                    let sig = region.read(0, 7).await.unwrap();
                    assert_eq!(sig, format!("sig-{j}-{r}").as_bytes(), "client {i} view");
                }
            }
        }
        let stats = clients[0].stats().await.unwrap();
        assert_eq!(stats.regions, 12);
    });
    cluster.assert_pins_released();
}

#[test]
fn free_then_reallocate_reuses_capacity() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        // Fill most of the cluster, free, repeat: capacity must be stable.
        let big = 16u64 << 30; // 16 GiB across 2 x 32 GiB donations
        for round in 0..5 {
            let opts = AllocOptions {
                synthetic: true,
                ..AllocOptions::default()
            };
            let name = format!("cycle{round}");
            c.alloc(&name, big, opts).await.unwrap();
            let stats = c.stats().await.unwrap();
            assert_eq!(stats.used, big, "round {round}");
            c.free(&name).await.unwrap();
            let stats = c.stats().await.unwrap();
            assert_eq!(stats.used, 0, "round {round}");
        }
    });
    cluster.assert_pins_released();
}

#[test]
fn placement_policies_differ_but_work() {
    let cluster = boot(6, 1);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        for (name, policy) in [
            ("rr", Policy::RoundRobin),
            ("rnd", Policy::Random),
            ("cap", Policy::CapacityWeighted),
        ] {
            let region = c
                .alloc(
                    name,
                    1 << 20,
                    AllocOptions {
                        stripe_size: 64 * 1024,
                        policy,
                        ..AllocOptions::default()
                    },
                )
                .await
                .unwrap();
            region.write(12345, b"policy check").await.unwrap();
            assert_eq!(region.read(12345, 12).await.unwrap(), b"policy check");
        }
        // Round-robin must spread over all six servers.
        let rr = c.map("rr").await.unwrap();
        let mut nodes: Vec<u32> = rr
            .desc()
            .groups
            .iter()
            .map(|g| g.replicas[0].node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 6);
    });
    cluster.assert_pins_released();
}

#[test]
fn replicated_writes_visible_on_every_replica() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let server_nodes: Vec<_> = cluster.servers.iter().map(|s| s.node()).collect();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let region = c
            .alloc(
                "mirrored",
                64 * 1024,
                AllocOptions {
                    replicas: 3,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, b"three copies").await.unwrap();
        // Kill any two of the three servers: the data must still be there.
        fabric.set_node_up(server_nodes[0], false);
        fabric.set_node_up(server_nodes[1], false);
        assert_eq!(region.read(0, 12).await.unwrap(), b"three copies");
    });
    cluster.assert_pins_released();
}

#[test]
fn replication_factor_exceeding_servers_fails() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let err = c
            .alloc(
                "over",
                4096,
                AllocOptions {
                    replicas: 3,
                    ..AllocOptions::default()
                },
            )
            .await
            .err()
            .unwrap();
        assert!(matches!(err, RStoreError::NotEnoughServers { .. }));
    });
    cluster.assert_pins_released();
}

#[test]
fn region_descriptor_is_stable_across_lookups() {
    let cluster = boot(3, 2);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let a = RStoreClient::connect(&devs[0], master).await.unwrap();
        let b = RStoreClient::connect(&devs[1], master).await.unwrap();
        a.alloc("stable", 1 << 20, AllocOptions::default())
            .await
            .unwrap();
        let d1 = a.lookup("stable").await.unwrap();
        let d2 = b.lookup("stable").await.unwrap();
        assert_eq!(d1, d2, "all clients must see identical placement");
    });
    cluster.assert_pins_released();
}

#[test]
fn io_throughput_accounting_matches_fabric() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let metrics = cluster.fabric.metrics().clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let region = c
            .alloc("counted", 1 << 20, AllocOptions::default())
            .await
            .unwrap();
        metrics.reset();
        region.write(0, &vec![1u8; 512 * 1024]).await.unwrap();
        let written = metrics.counter("rstore.write_bytes");
        assert_eq!(written, 512 * 1024);
        region.read(0, 128 * 1024).await.unwrap();
        assert_eq!(metrics.counter("rstore.read_bytes"), 128 * 1024);
    });
    cluster.assert_pins_released();
}

#[test]
fn data_path_ops_leave_no_events_behind() {
    // Every WR arms a per-op timeout in the device and a backstop in the
    // client; both are cancelled when the WR completes, so a run of healthy
    // ops must not grow the simulator's event queue. (Two dead timers per WR
    // used to stay queued for seconds of virtual time: this loop took the
    // queue from 138 to 22 135 events.)
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.clone().block_on(async move {
        let client = RStoreClient::connect(&devs[0], master).await.unwrap();
        let region = client
            .alloc("quiet/region", 64 * 1024, AllocOptions::default())
            .await
            .unwrap();
        let kv = KvTable::create(&client, "quiet/kv", KvConfig::default())
            .await
            .unwrap();
        kv.put(b"key", &[7u8; 64]).await.unwrap();
        assert!(kv.get(b"key").await.unwrap().is_some());
        region.write(0, &[1u8; 4096]).await.unwrap();
        // Let the set-up settle: what stays queued is the servers' heartbeat
        // cycle.
        sim.sleep(Duration::from_secs(2)).await;
        let before = sim.pending_events();
        for _ in 0..10_000 {
            assert!(kv.get(b"key").await.unwrap().is_some());
        }
        for _ in 0..1_000 {
            region.write(0, &[1u8; 4096]).await.unwrap();
        }
        let after = sim.pending_events();
        assert!(
            after <= before,
            "11 000 WRs grew the event queue from {before} to {after} events"
        );
        // Control RPCs likewise: each arms a response deadline (1 s by
        // default) and disarms it when the response arrives, so a thousand
        // of them — a few milliseconds of virtual time — leave nothing
        // queued behind them.
        for _ in 0..1_000 {
            client.lookup("quiet/region").await.unwrap();
        }
        // The servers' heartbeats keep running beside the lookups, and one
        // in flight holds an event or two of its own for a few µs: take the
        // least of a few samples.
        let mut after = usize::MAX;
        for _ in 0..20 {
            after = after.min(sim.pending_events());
            sim.sleep(Duration::from_micros(5)).await;
        }
        assert!(
            after <= before,
            "1 000 lookups grew the event queue from {before} to {after} events"
        );
    });
    cluster.assert_pins_released();
}

#[test]
fn control_connections_book_gigabytes_and_back_kilobytes() {
    // 64 heartbeating servers and 32 connected clients: every control
    // connection books four message buffers, two at each end, and has
    // carried a few hundred bytes. What the host pays for is the latter.
    let cluster = Cluster::boot(ClusterConfig {
        clients: 32,
        ..ClusterConfig::fast_detection(64)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    // Held to the end: a dropped client frees its buffers.
    let _clients = sim.clone().block_on(async move {
        let mut clients = Vec::new();
        for dev in &devs {
            clients.push(RStoreClient::connect(dev, master).await.unwrap());
        }
        sim.sleep(Duration::from_millis(50)).await;
        clients
    });
    let (booked, resident) = cluster.mem_footprint();
    assert!(booked > 1 << 30, "{booked} bytes booked");
    assert!(
        resident < rstore::rpc::RPC_BUF_BYTES,
        "{resident} of {booked} booked bytes are backed: less than one buffer should be"
    );
}
