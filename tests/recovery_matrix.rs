//! Recovery matrix: data-path reconnect, read failover under injected
//! loss, master repair, and the control-path accounting fixes — all driven
//! through [`FaultPlan`] or direct fabric faults in virtual time.

use std::rc::Rc;
use std::time::Duration;

use fabric::FaultPlan;
use rstore::{
    AllocOptions, Cluster, ClusterConfig, Extent, KvConfig, KvTable, Master, MasterConfig,
    RStoreClient, RStoreError, RegionState, ServerConfig,
};

fn boot(servers: usize, clients: usize) -> Cluster {
    // Short leases and an eager repair task so recovery converges quickly
    // (virtual time); short RC timeouts so IO errors surface fast instead of
    // after the default 2 s budget.
    Cluster::boot(ClusterConfig {
        clients,
        ..ClusterConfig::fast_detection(servers)
    })
    .expect("boot")
}

fn replicated() -> AllocOptions {
    AllocOptions {
        stripe_size: 64 * 1024,
        replicas: 2,
        ..AllocOptions::default()
    }
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u64 * 31 % 239) as u8).collect()
}

#[test]
fn write_during_server_death_errors_then_recovers_after_repair() {
    let cluster = boot(4, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let victim = cluster.servers[1].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(512 * 1024);
        let region = c.alloc("wounded", 512 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();

        fabric.set_node_up(victim, false);
        // A write spanning the dead server must surface an error, not hang.
        let err = region.write(0, &data).await.err().unwrap();
        assert!(matches!(err, RStoreError::Io(_)), "got {err:?}");

        // Wait until repair has rebuilt every group on live servers.
        let mut repaired = false;
        for _ in 0..100 {
            s.sleep(Duration::from_millis(20)).await;
            if let Ok(d) = c.lookup("wounded").await {
                if d.state == RegionState::Healthy
                    && d.groups
                        .iter()
                        .flat_map(|g| &g.replicas)
                        .all(|x| x.node != victim.0)
                {
                    repaired = true;
                    break;
                }
            }
        }
        assert!(repaired, "repair must restore a Healthy descriptor");

        // A fresh mapping writes and reads cleanly, with the data intact.
        let fresh = c.map_degraded("wounded").await.unwrap();
        assert_eq!(fresh.read(0, 512 * 1024).await.unwrap(), data);
        fresh.write(0, &data).await.unwrap();
        assert_eq!(fresh.read(0, 512 * 1024).await.unwrap(), data);
    });
}

#[test]
fn a_read_that_fails_over_from_a_dead_replica_moves_the_handle_to_its_replacement() {
    // A 2-replica stripe [X, B] on three servers. X dies and the master
    // rebuilds the stripe on the third server, but a handle mapped before
    // the crash still names X. Its read times out on X, fails over to B
    // and — X having stopped answering — re-fetches the descriptor in the
    // background, so the next write through the same handle reaches the
    // replacement. (The handle used to keep X until the caller re-mapped,
    // and every write through it failed on X.)
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let s = sim.clone();
    sim.block_on(async move {
        let c = cluster.client(0).await.unwrap();
        let len = 64 * 1024;
        let region = c.alloc("replaced", len, replicated()).await.unwrap();
        region.write(0, &vec![1u8; len as usize]).await.unwrap();
        let x = region.desc().groups[0].replicas[0];

        fabric.set_node_up(fabric::NodeId(x.node), false);
        let mut repaired = None;
        for _ in 0..100 {
            s.sleep(Duration::from_millis(10)).await;
            let d = c.lookup("replaced").await.unwrap();
            if d.state == RegionState::Healthy && !d.groups[0].replicas.contains(&x) {
                repaired = Some(d);
                break;
            }
        }
        let repaired = repaired.expect("repair rebuilds the stripe without X");
        assert_eq!(
            region.desc().groups[0].replicas[0],
            x,
            "the handle still names X"
        );

        assert_eq!(region.read(0, 8).await.unwrap(), [1u8; 8]);
        s.sleep(Duration::from_millis(1)).await;
        assert_eq!(
            region.desc().groups,
            repaired.groups,
            "the read refreshed the handle"
        );
        region.write(0, &vec![2u8; len as usize]).await.unwrap();
        assert_eq!(region.read(0, 8).await.unwrap(), [2u8; 8]);
    });
}

#[test]
fn reads_survive_a_fault_plan_loss_window() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(256 * 1024);
        let region = c.alloc("lossy", 256 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();

        // From here, drop 20% of fabric messages for 100 ms.
        FaultPlan::new(11)
            .loss_window(Duration::from_millis(1), Duration::from_millis(100), 0.2)
            .install(&fabric);

        // Reads across the window must all eventually succeed with the
        // right bytes: dropped packets surface as timeouts, and the client
        // redials / fails over to the other replica.
        for i in 0..40u64 {
            let off = (i % 32) * 4096;
            let mut ok = false;
            for _ in 0..10 {
                match region.read(off, 4096).await {
                    Ok(bytes) => {
                        assert_eq!(bytes, data[off as usize..off as usize + 4096]);
                        ok = true;
                        break;
                    }
                    Err(_) => s.sleep(Duration::from_millis(2)).await,
                }
            }
            assert!(ok, "read {i} never succeeded");
            s.sleep(Duration::from_millis(2)).await;
        }
        assert!(
            fabric.metrics().counter("fabric.dropped.injected") > 0,
            "the loss window must actually drop traffic"
        );
    });
}

#[test]
fn repair_restores_healthy_descriptor_data_and_accounting() {
    let cluster = boot(4, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let victim = cluster.servers[2].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(512 * 1024);
        let region = c.alloc("phoenix", 512 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();
        let used_before = c.stats().await.unwrap().used;
        assert_eq!(used_before, 2 * 512 * 1024, "two replicas of every byte");

        FaultPlan::new(3)
            .crash_at(Duration::from_millis(10), victim)
            .install(&fabric);

        // The region must pass through Degraded and come back Healthy.
        let mut saw_degraded = false;
        let mut healthy_again = false;
        for _ in 0..200 {
            s.sleep(Duration::from_millis(10)).await;
            let Ok(d) = c.lookup("phoenix").await else {
                continue;
            };
            match d.state {
                RegionState::Degraded => saw_degraded = true,
                RegionState::Healthy if saw_degraded => {
                    healthy_again = true;
                    break;
                }
                RegionState::Healthy => {}
            }
        }
        assert!(saw_degraded, "lease expiry must degrade the region");
        assert!(healthy_again, "repair must restore Healthy");

        // New descriptor avoids the dead server and the data is intact.
        let fresh = c.map_degraded("phoenix").await.unwrap();
        for g in &fresh.desc().groups {
            for x in &g.replicas {
                assert_ne!(x.node, victim.0, "repaired replica on the dead server");
            }
        }
        assert_eq!(fresh.read(0, 512 * 1024).await.unwrap(), data);

        // Repair moved bytes, it did not leak them: total accounting is
        // unchanged, and a free returns the cluster to zero.
        assert_eq!(c.stats().await.unwrap().used, used_before);
        c.free("phoenix").await.unwrap();
        assert_eq!(c.stats().await.unwrap().used, 0);
    });
}

/// One seeded fault scenario, traced end to end.
fn traced_fault_run() -> String {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let victim = cluster.servers[0].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let rec = sim.recorder();
    rec.enable(sim::Level::Off, 1 << 16);
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(128 * 1024);
        let region = c.alloc("seeded", 128 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();
        FaultPlan::new(42)
            .crash_at(Duration::from_millis(5), victim)
            .loss_window(Duration::from_millis(8), Duration::from_millis(40), 0.1)
            .install(&fabric);
        for i in 0..20u64 {
            // Errors are expected mid-fault; the trace records them too.
            let _ = region.read((i % 16) * 4096, 4096).await;
            s.sleep(Duration::from_millis(3)).await;
        }
        s.sleep(Duration::from_millis(400)).await;
        let _ = c.lookup("seeded").await;
    });
    rec.export_chrome_trace()
}

#[test]
fn same_fault_seed_traces_identically() {
    let a = traced_fault_run();
    let b = traced_fault_run();
    assert_eq!(a, b, "same fault seed must reproduce the same trace");
}

#[test]
fn server_reregisters_after_master_loses_state() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let master_handle = cluster.master.clone();
    let victim = cluster.servers[0].node();
    let s = sim.clone();
    sim.block_on(async move {
        assert_eq!(master_handle.live_servers(), 2);
        // Master "restarts": its server registry is gone. The next
        // heartbeat is answered with an error, which must push the server
        // back into registration instead of looping on dead heartbeats.
        master_handle.forget_server(victim);
        assert_eq!(master_handle.live_servers(), 1);
        s.sleep(Duration::from_millis(100)).await;
        assert_eq!(
            master_handle.live_servers(),
            2,
            "an Err heartbeat reply must trigger re-registration"
        );
    });
}

#[test]
fn used_accounting_survives_reregistration() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let master_handle = cluster.master.clone();
    let victim = cluster.servers[0].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        c.alloc("sticky", 128 * 1024, AllocOptions::default())
            .await
            .unwrap();
        assert_eq!(c.stats().await.unwrap().used, 128 * 1024);

        // Flap the server: on revival its control connection is broken, so
        // it re-registers — which must not reset its `used` accounting
        // while the region still references its extents.
        fabric.set_node_up(victim, false);
        s.sleep(Duration::from_millis(150)).await;
        fabric.set_node_up(victim, true);
        s.sleep(Duration::from_secs(5)).await;
        assert_eq!(master_handle.live_servers(), 2);
        assert_eq!(
            c.stats().await.unwrap().used,
            128 * 1024,
            "re-registration must preserve used capacity"
        );
        c.free("sticky").await.unwrap();
        assert_eq!(c.stats().await.unwrap().used, 0);
    });
}

#[test]
fn kv_handle_survives_a_server_flap_without_reopen() {
    // A table handle owns no connections: its CAS rides the client's data
    // QPs, so once the client has re-dialed a flapped server the *same*
    // handle mutates that server's slots again. (A handle with an atomic QP
    // of its own never re-dialed it: every key homed on the victim answered
    // `Rdma(QpError)` until the table was reopened.)
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let victim = cluster.servers[0].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        // 1 KiB stripes alternate between the two servers, so about half
        // the keys are homed on the victim.
        let cfg = KvConfig {
            buckets: 256,
            slot_bytes: 128,
            max_probe: 16,
            opts: AllocOptions {
                stripe_size: 1024,
                ..AllocOptions::default()
            },
        };
        let kv = KvTable::create(&c, "flap", cfg).await.unwrap();
        let key = |i: u32| format!("flap-{i}").into_bytes();
        for i in 0..64 {
            kv.put(&key(i), b"before").await.unwrap();
        }

        fabric.set_node_up(victim, false);
        let mut failed = 0;
        for i in 0..64 {
            if kv.put(&key(i), b"during").await.is_err() {
                failed += 1;
            }
        }
        assert!(failed > 0, "puts homed on the downed server must fail");
        fabric.set_node_up(victim, true);

        for i in 0..64 {
            let value = format!("after-{i}").into_bytes();
            let mut attempts = 0;
            while let Err(e) = kv.put(&key(i), &value).await {
                attempts += 1;
                assert!(attempts < 20, "key {i} stayed unwritable: {e:?}");
                s.sleep(Duration::from_millis(20)).await;
            }
            assert_eq!(kv.get(&key(i)).await.unwrap().unwrap(), value);
        }
    });
}

// --- live migration / drain matrix ------------------------------------------

fn single_replica() -> AllocOptions {
    AllocOptions {
        stripe_size: 64 * 1024,
        replicas: 1,
        ..AllocOptions::default()
    }
}

#[test]
fn stale_descriptor_after_drain_revalidates_and_retries() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(256 * 1024);
        let reader = c
            .alloc("moving", 256 * 1024, single_replica())
            .await
            .unwrap();
        reader.write(0, &data).await.unwrap();
        // An independently mapped handle: its cached descriptor does not
        // share the reader's, so it exercises write-path revalidation on
        // its own.
        let writer = c.map("moving").await.unwrap();

        let victim = fabric::NodeId(reader.desc().groups[0].replicas[0].node);
        let (extents, bytes) = c.drain(victim).await.unwrap();
        assert!(extents >= 1, "the victim hosted stripe 0");
        assert!(bytes >= 64 * 1024);

        // Reading through the stale handle must revalidate and succeed —
        // before the revalidation path existed this surfaced an IO error.
        assert_eq!(reader.read(0, 256 * 1024).await.unwrap(), data);
        assert!(
            fabric.metrics().counter("rstore.desc.refresh") >= 1,
            "the stale read must have refreshed its descriptor"
        );

        // Writing through the other stale handle must also revalidate.
        let data2 = payload(64 * 1024);
        writer.write(0, &data2).await.unwrap();
        let fresh = c.map("moving").await.unwrap();
        assert_eq!(fresh.read(0, 64 * 1024).await.unwrap(), data2);
        assert_eq!(
            fresh.read(64 * 1024, 192 * 1024).await.unwrap(),
            data[64 * 1024..],
            "bytes outside the overwrite survive the move"
        );
    });
}

/// A region read and a KV put whose extents were drained away while the
/// master's replies are lost: the first descriptor refreshes of the
/// revalidation ladder time out. A refresh that fails for any reason but
/// `NotFound` counts as an unchanged descriptor, so each IO backs off and
/// retries until a refresh gets through, and completes. (A failed refresh
/// used to end the ladder with the `RemoteAccess` that started it.)
#[test]
fn an_io_whose_descriptor_refresh_reply_is_lost_retries_until_the_master_answers() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let cfg = rstore::ClientConfig {
        ctrl_response_timeout: Duration::from_millis(5),
        ..rstore::ClientConfig::default()
    };
    let kv_cfg = KvConfig {
        buckets: 64,
        slot_bytes: 128,
        max_probe: 16,
        opts: single_replica(),
    };
    sim.block_on(async move {
        let c = RStoreClient::connect_with(&devs[0], master, cfg)
            .await
            .unwrap();
        let data = payload(64 * 1024);
        let region = c.alloc("unlit", 64 * 1024, single_replica()).await.unwrap();
        region.write(0, &data).await.unwrap();
        let kv = KvTable::create(&c, "unlit_kv", kv_cfg).await.unwrap();
        kv.put(b"key", b"old").await.unwrap();
        for name in ["unlit", "unlit_kv@g1"] {
            let victim = c.lookup(name).await.unwrap().groups[0].replicas[0].node;
            c.drain(fabric::NodeId(victim)).await.unwrap();
        }
        let refreshes = || fabric.metrics().counter("rstore.desc.refresh");

        // Each IO starts with the master cut off for long enough that its
        // first two refreshes lose their reply (5 ms each).
        let cut_off = || {
            FaultPlan::new(1)
                .flap(Duration::ZERO, master, Duration::from_millis(12))
                .install(&fabric)
        };
        let before = refreshes();
        cut_off();
        assert_eq!(region.read(0, 64 * 1024).await.unwrap(), data);
        assert!(refreshes() > before, "the read installed the moved extent");

        let before = refreshes();
        cut_off();
        kv.put(b"key", b"new").await.unwrap();
        assert!(refreshes() > before, "the put installed the moved extent");
        assert_eq!(kv.get(b"key").await.unwrap().as_deref(), Some(&b"new"[..]));
    });
}

#[test]
fn stale_checksummed_read_is_not_misdiagnosed_as_corruption() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(128 * 1024);
        let region = c
            .alloc(
                "movck",
                128 * 1024,
                AllocOptions {
                    checksums: true,
                    ..single_replica()
                },
            )
            .await
            .unwrap();
        region.write(0, &data).await.unwrap();

        let victim = fabric::NodeId(region.desc().groups[0].replicas[0].node);
        c.drain(victim).await.unwrap();

        // The verified read path must surface the stale descriptor as a
        // revalidate-and-retry, not as CorruptionDetected (and must not
        // file a corruption report against healthy data).
        assert_eq!(region.read(0, 128 * 1024).await.unwrap(), data);
        assert_eq!(
            fabric.metrics().counter("integrity.read_mismatch"),
            0,
            "a migrated-away extent is not corruption"
        );
        assert!(fabric.metrics().counter("rstore.desc.refresh") >= 1);
    });
}

#[test]
fn drain_empties_server_preserving_data_and_accounting() {
    let cluster = boot(4, 1);
    let sim = cluster.sim.clone();
    let victim = cluster.servers[1].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(512 * 1024);
        let region = c.alloc("evac", 512 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();
        let used_before = c.stats().await.unwrap().used;

        let (extents, bytes) = c.drain(victim).await.unwrap();
        assert!(
            extents > 0 && bytes > 0,
            "round-robin put data on every node"
        );

        // Every descriptor now avoids the drained node and the data moved
        // intact; the books balance exactly (nothing leaked, nothing lost).
        let fresh = c.map("evac").await.unwrap();
        for g in &fresh.desc().groups {
            for x in &g.replicas {
                assert_ne!(x.node, victim.0, "extent left on the drained server");
            }
        }
        assert_eq!(fresh.read(0, 512 * 1024).await.unwrap(), data);
        let st = c.stats().await.unwrap();
        assert_eq!(st.used, used_before);
        assert!(st.consistent, "drain must keep the accounting invariant");

        // The drained node stays excluded: a second drain is rejected and
        // new allocations avoid it.
        assert!(c.drain(victim).await.is_err(), "duplicate drain must error");
        let after = c.alloc("after", 256 * 1024, replicated()).await.unwrap();
        for g in &after.desc().groups {
            for x in &g.replicas {
                assert_ne!(x.node, victim.0, "drained server must get no placements");
            }
        }
    });
}

#[test]
fn drain_without_spare_capacity_fails_structured_not_hanging() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let victim = cluster.servers[0].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        // Two replicas on two servers: every group already spans both, so
        // there is no third node to absorb the drained extents.
        let data = payload(128 * 1024);
        let region = c.alloc("stuck", 128 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();

        let err = c.drain(victim).await.err().unwrap();
        assert!(
            matches!(err, RStoreError::InsufficientCapacity { .. }),
            "drain without headroom must degrade to a structured error, got {err:?}"
        );

        // The failed drain put the node back into normal service: new
        // allocations still succeed, the data is whole, the books balance.
        c.alloc("still-works", 64 * 1024, replicated())
            .await
            .unwrap();
        assert_eq!(region.read(0, 128 * 1024).await.unwrap(), data);
        assert!(c.stats().await.unwrap().consistent);
    });
}

#[test]
fn drain_racing_crash_converges_to_healthy_books_balanced() {
    let cluster = boot(5, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let drained = cluster.servers[0].node();
    let crashed = cluster.servers[3].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(512 * 1024);
        let region = c.alloc("storm", 512 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();
        let used_before = c.stats().await.unwrap().used;

        // Crash one server shortly after the drain of another begins, so
        // migration, lease expiry, and repair all overlap.
        FaultPlan::new(21)
            .crash_at(Duration::from_millis(15), crashed)
            .install(&fabric);
        // The drain may fail while placement churns (targets die under
        // it); the operator's answer is to retry — each attempt must
        // return, structured, never hang.
        let mut drained_ok = false;
        for _ in 0..20 {
            match c.drain(drained).await {
                Ok(_) => {
                    drained_ok = true;
                    break;
                }
                Err(_) => s.sleep(Duration::from_millis(50)).await,
            }
        }
        assert!(drained_ok, "drain must eventually complete");

        // Repair clears the crashed server too; wait for a fully healthy
        // descriptor that avoids both nodes.
        let mut settled = false;
        for _ in 0..200 {
            s.sleep(Duration::from_millis(10)).await;
            if let Ok(d) = c.lookup("storm").await {
                if d.state == RegionState::Healthy
                    && d.groups
                        .iter()
                        .flat_map(|g| &g.replicas)
                        .all(|x| x.node != drained.0 && x.node != crashed.0)
                {
                    settled = true;
                    break;
                }
            }
        }
        assert!(settled, "drain + crash repair must converge to Healthy");
        assert_eq!(region.read(0, 512 * 1024).await.unwrap(), data);
        let st = c.stats().await.unwrap();
        assert_eq!(st.used, used_before, "no bytes leaked by the race");
        assert!(st.consistent);
    });
}

#[test]
fn reregistration_recomputes_used_from_descriptors() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let master_handle = cluster.master.clone();
    let victim = cluster.servers[0].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        c.alloc("ledger", 128 * 1024, replicated()).await.unwrap();
        let before = c.stats().await.unwrap();
        assert_eq!(before.used, 2 * 128 * 1024);
        assert!(before.consistent);

        // Master loses the server's row while its extents are still
        // referenced by a descriptor. The next heartbeat re-registers it;
        // the fresh row must re-derive `used` from the descriptors instead
        // of restarting at zero (which double-frees capacity and breaks
        // the invariant).
        master_handle.forget_server(victim);
        s.sleep(Duration::from_millis(100)).await;
        let after = c.stats().await.unwrap();
        assert_eq!(
            after.used,
            2 * 128 * 1024,
            "re-registration must rebuild used from descriptors"
        );
        assert!(after.consistent, "accounting invariant must hold");
        c.free("ledger").await.unwrap();
        let zero = c.stats().await.unwrap();
        assert_eq!(zero.used, 0);
        assert!(zero.consistent);
    });
}

#[test]
fn rebalancer_spreads_load_onto_joined_server() {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        master: MasterConfig {
            lease: Duration::from_millis(50),
            sweep_interval: Duration::from_millis(20),
            repair_interval: Duration::from_millis(40),
            rebalance: true,
            rebalance_interval: Duration::from_millis(20),
            rebalance_spread: 0.10,
            ..MasterConfig::default()
        },
        server: ServerConfig {
            donate: 16 * 1024 * 1024,
            heartbeat: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        ..ClusterConfig::with_servers(2)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let master_handle = cluster.master.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let dark = cluster.add_dark_server();
    let joined = dark.node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let mut payloads = Vec::new();
        for i in 0..4 {
            let data = payload(1024 * 1024);
            let r = c
                .alloc(&format!("ball{i}"), 1024 * 1024, single_replica())
                .await
                .unwrap();
            r.write(0, &data).await.unwrap();
            payloads.push((r, data));
        }

        // A fresh empty server joins: utilization spread jumps well past
        // the hysteresis band, so the rebalancer must level it out.
        let _joined_server = cluster.start_server(&dark).unwrap();
        s.sleep(Duration::from_secs(2)).await;

        let report = master_handle.local_report();
        let row = report
            .servers
            .iter()
            .find(|r| r.node == joined.0)
            .expect("joined server registered");
        assert!(
            row.used > 0,
            "rebalancer must migrate extents onto the empty server"
        );
        let st = c.stats().await.unwrap();
        assert!(st.consistent, "rebalancing must keep the books balanced");
        assert!(
            cluster.fabric.metrics().counter("rebalance.extents") > 0,
            "moves must be attributed to the rebalancer"
        );

        // Every region still reads back through its (possibly stale)
        // original handle — revalidation under planned movement.
        for (r, data) in &payloads {
            assert_eq!(&r.read(0, 1024 * 1024).await.unwrap(), data);
        }
    });
}

/// A seeded run mixing planned membership (join + drain via the fault
/// plan's membership hook) with a crash and a loss window, traced end to
/// end — the chaos-composition determinism check.
fn traced_membership_run() -> String {
    let cluster = boot(4, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let victim = cluster.servers[2].node();
    let crash = cluster.servers[3].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let master_handle = cluster.master.clone();
    let dark = cluster.add_dark_server();
    let dark_node = dark.node();
    let rec = sim.recorder();
    rec.enable(sim::Level::Off, 1 << 16);

    // Wire membership events to the cluster: Join starts the dark server,
    // Drain asks the master to migrate the node empty (fire-and-forget,
    // like an operator would).
    let cluster = std::rc::Rc::new(cluster);
    {
        let cluster = cluster.clone();
        let sim2 = sim.clone();
        fabric.set_membership_hook(Rc::new(move |ev| match ev {
            fabric::MembershipEvent::Join(n) if n == dark_node => {
                let _ = cluster.start_server(&dark);
            }
            fabric::MembershipEvent::Drain(n) => {
                let m = master_handle.clone();
                sim2.spawn(async move {
                    let _ = m.drain(n).await;
                });
            }
            _ => {}
        }));
    }
    FaultPlan::new(77)
        .join_at(Duration::from_millis(5), dark_node)
        .drain_at(Duration::from_millis(30), victim)
        .crash_at(Duration::from_millis(45), crash)
        .loss_window(Duration::from_millis(40), Duration::from_millis(90), 0.1)
        .install(&fabric);

    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let data = payload(256 * 1024);
        let region = c.alloc("churn", 256 * 1024, replicated()).await.unwrap();
        region.write(0, &data).await.unwrap();
        for i in 0..30u64 {
            let off = (i % 32) * 4096;
            // Errors mid-chaos are acceptable; the trace records them.
            let _ = region.read(off, 4096).await;
            s.sleep(Duration::from_millis(5)).await;
        }
        s.sleep(Duration::from_millis(500)).await;
        // The workload itself must have stayed correct wherever it
        // succeeded: a final verified read.
        assert_eq!(region.read(0, 256 * 1024).await.unwrap(), data);
        let st = c.stats().await.unwrap();
        assert!(st.consistent, "chaos must not unbalance the books");
    });
    rec.export_chrome_trace()
}

#[test]
fn same_membership_plan_traces_identically() {
    let a = traced_membership_run();
    let b = traced_membership_run();
    assert_eq!(a, b, "join/drain/crash/loss under one seed must reproduce");
}

// --- one extent-move protocol, leases ---------------------------------------

/// A raw one-sided READ of 8 bytes of `x` from `dev`, bypassing every
/// descriptor: what the memory server's NIC says about that `(addr, rkey)`
/// right now.
async fn raw_read(dev: &rdma::RdmaDevice, x: &rstore::Extent) -> rdma::CqStatus {
    raw_read_bytes(dev, x, 8).await.0
}

/// [`raw_read`] of the first `len` bytes of `x`, with what landed.
async fn raw_read_bytes(
    dev: &rdma::RdmaDevice,
    x: &rstore::Extent,
    len: u64,
) -> (rdma::CqStatus, Vec<u8>) {
    let cq = rdma::CompletionQueue::new();
    let qp = dev
        .connect(fabric::NodeId(x.node), rstore::DATA_SERVICE, &cq)
        .await
        .expect("dial the data service");
    let buf = dev.alloc(len).unwrap();
    let remote = rdma::RemoteAddr {
        addr: x.addr,
        rkey: rdma::RKey(x.rkey),
    };
    qp.post_read(1, buf, remote).unwrap();
    let status = cq.next().await.status;
    let bytes = dev.read_mem(buf.addr, len).unwrap();
    dev.free(buf).unwrap();
    (status, bytes)
}

/// Checks every server's arena against the master's books. RPC buffers are
/// whole multiples of [`rstore::rpc::RPC_BUF_BYTES`] and the extents of these
/// tests are far smaller, so what a server holds beyond such a multiple is
/// what it has granted to extents: an extent replaced or rolled back but
/// never freed shows as bytes the master does not know of.
fn assert_no_server_holds_unbooked_bytes(cluster_servers: &[rstore::MemServer], master: &Master) {
    let report = master.local_report();
    for server in cluster_servers {
        let node = server.node().0;
        let booked = report.servers.iter().find(|r| r.node == node);
        assert_eq!(
            server.mem_used() % rstore::rpc::RPC_BUF_BYTES,
            booked.map_or(0, |r| r.used),
            "server {node} holds extent bytes the master has no record of"
        );
    }
}

/// Polls `lookup(name)` every 10 ms until the region is Healthy (bounded).
async fn wait_healthy(c: &RStoreClient, name: &str) -> rstore::RegionDesc {
    let sim = c.device().sim().clone();
    for _ in 0..200 {
        if let Ok(d) = c.lookup(name).await {
            if d.state == RegionState::Healthy {
                return d;
            }
        }
        sim.sleep(Duration::from_millis(10)).await;
    }
    panic!("{name} did not return to Healthy");
}

/// Writes `data` at offset 0 through `region`, retrying a refused write
/// every 10 ms as a caller would (bounded): refused is fine — the extent is
/// fenced or sealed and the handle revalidates — parked for ever is not.
async fn write_until_acked(region: &rstore::Region, data: &[u8], what: &str) {
    let sim = region.client().device().sim().clone();
    let mut tries = 0;
    while let Err(e) = region.write(0, data).await {
        tries += 1;
        assert!(tries < 50, "{what}: the write never landed: {e:?}");
        sim.sleep(Duration::from_millis(10)).await;
    }
}

/// One cell of the flap sweep: a 2-replica stripe `[A, X]`, X's link down
/// for `flap`, then — `delay` after it is back — a write through the handle
/// that was mapped before the flap.
fn stale_handle_write_after_flap(flap: Duration, delay: Duration) {
    let cell = format!("flap {flap:?}, write {delay:?} after link-up");
    let cluster = boot(4, 2);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let master_handle = cluster.master.clone();
    let servers = cluster.servers.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let other = RStoreClient::connect(&devs[1], master).await.unwrap();
        let len = 64 * 1024;
        let stale = c.alloc("flapped", len, replicated()).await.unwrap();
        stale.write(0, &vec![1u8; len as usize]).await.unwrap();
        let before = stale.desc().groups[0].replicas.clone();
        let x = before[1];

        fabric.set_node_up(fabric::NodeId(x.node), false);
        s.sleep(flap).await;
        fabric.set_node_up(fabric::NodeId(x.node), true);
        s.sleep(delay).await;

        // The stale handle writes. Acknowledged on extents the descriptor
        // no longer holds is what must not happen.
        let two = vec![2u8; len as usize];
        write_until_acked(&stale, &two, &cell).await;
        let acked_on = stale.desc().groups[0].replicas.clone();
        let now = other.lookup("flapped").await.unwrap().groups[0]
            .replicas
            .clone();
        for extent in &acked_on {
            assert!(
                now.contains(extent),
                "{cell}: write acknowledged on {extent:?}, descriptor holds {now:?}"
            );
        }

        // Whatever repair still has in flight settles; X gets its lease back.
        let settled = wait_healthy(&other, "flapped").await;
        for _ in 0..100 {
            let report = master_handle.local_report();
            if report.servers.iter().all(|r| r.alive) {
                break;
            }
            s.sleep(Duration::from_millis(10)).await;
        }
        assert!(master_handle.local_stats().consistent, "{cell}");
        assert_no_server_holds_unbooked_bytes(&servers, &master_handle);

        // A replaced extent was handed back to X and freed there: its old
        // (addr, rkey) answers nothing, for ever.
        let live = &settled.groups[0].replicas;
        if !live.contains(&x) {
            let status = raw_read(&devs[1], &x).await;
            assert_eq!(
                status,
                rdma::CqStatus::RemoteAccess,
                "{cell}: the replaced extent on X is still served"
            );
        }

        // The acknowledged bytes are on every replica: take the primary
        // down and read what is left through a fresh mapping.
        let fresh = other.map("flapped").await.unwrap();
        fabric.set_node_up(fabric::NodeId(live[0].node), false);
        let got = fresh.read(0, len).await.unwrap();
        assert!(
            got == two,
            "{cell}: after losing the primary the region reads {:#04x}, \
             acknowledged was 0x02",
            got[0]
        );
    });
}

#[test]
fn stale_handle_after_a_flap_never_writes_a_replaced_extent() {
    for flap in [20, 40, 60, 80, 120, 200] {
        for delay in [0, 1, 5, 20, 100, 300] {
            stale_handle_write_after_flap(
                Duration::from_millis(flap),
                Duration::from_millis(delay),
            );
        }
    }
}

/// One run of the corrupt-replica repair schedule: a checksummed 2-replica
/// stripe whose second replica is corrupted at rest, found by the scrubber
/// and rebuilt by repair. With `write_at`, one full-stripe write is issued
/// at exactly that instant and — once repair has settled — checked against
/// the replacement alone. Returns when the stripe's `rstore.repair.extent`
/// instant fired.
fn corrupt_repair_run(write_at: Option<sim::SimTime>) -> sim::SimTime {
    let cluster = boot(4, 2);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let rec = sim.recorder();
    rec.enable(sim::Level::Off, 1 << 16);
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let other = RStoreClient::connect(&devs[1], master).await.unwrap();
        let len = 64 * 1024;
        let opts = AllocOptions {
            checksums: true,
            ..replicated()
        };
        let region = c.alloc("scrubbed", len, opts).await.unwrap();
        region.write(0, &vec![1u8; len as usize]).await.unwrap();
        let bad = region.desc().groups[0].replicas[1];
        FaultPlan::new(0xBAD)
            .corrupt_at(Duration::from_millis(1), fabric::NodeId(bad.node), 8)
            .install(&fabric);

        let two = vec![2u8; len as usize];
        if let Some(at) = write_at {
            s.sleep_until(at).await;
            write_until_acked(&region, &two, &format!("write at {at:?}")).await;
        }

        // The scrubber marks the replica, repair replaces it.
        let mut repaired_at = None;
        for _ in 0..300 {
            let instants = rec.events();
            let repair = instants.iter().find(|e| e.name == "rstore.repair.extent");
            if let Some(e) = repair {
                repaired_at = Some(e.start);
                break;
            }
            s.sleep(Duration::from_millis(10)).await;
        }
        let repaired_at = repaired_at.expect("the scrubber must hand the replica to repair");
        let settled = wait_healthy(&other, "scrubbed").await;
        let live = &settled.groups[0].replicas;
        assert!(!live.contains(&bad), "the corrupt replica was replaced");

        if let Some(at) = write_at {
            // Only the replacement is left to read from.
            let fresh = other.map("scrubbed").await.unwrap();
            fabric.set_node_up(fabric::NodeId(live[0].node), false);
            let got = fresh.read(0, len).await.unwrap();
            let lead = repaired_at.saturating_since(at);
            assert!(
                got == two,
                "a write issued {lead:?} before the repair finished was acknowledged, \
                 yet the replacement reads {:#04x}",
                got[0]
            );
        }
        repaired_at
    })
}

#[test]
fn write_racing_a_corrupt_replica_repair_reaches_the_replacement() {
    // The schedule is deterministic: a dry run says when the repair of the
    // stripe completes, and every 1 µs step of the 40 µs before that gets a
    // run of its own with one write issued at that step — somewhere in
    // there lies the window between the copy's READ and the swap.
    let repaired_at = corrupt_repair_run(None);
    for lead_us in 1..=40 {
        let at = sim::SimTime::from_nanos(repaired_at.as_nanos() - lead_us * 1_000);
        corrupt_repair_run(Some(at));
    }
}

/// One run of the repair-rollback schedule on three servers donating 1 MiB
/// each: the corrupt second replica `S` of a checksummed stripe `[P, S]` can
/// only be rebuilt on the third server `N`. With `kill_at`, N's link goes
/// down at that instant for 200 ms and the run checks the rollback and the
/// books. Returns when the move's seal took effect.
fn repair_rollback_run(kill_at: Option<sim::SimTime>) -> sim::SimTime {
    const DONATE: u64 = 1 << 20;
    let fast = ClusterConfig::fast_detection(3);
    let cluster = Cluster::boot(ClusterConfig {
        clients: 2,
        master: MasterConfig {
            srv_response_timeout: Duration::from_millis(50),
            ..fast.master
        },
        server: ServerConfig {
            donate: DONATE,
            ..fast.server
        },
        ..fast
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let master_handle = cluster.master.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let servers = cluster.servers.clone();
    let nodes: Vec<u32> = servers.iter().map(|s| s.node().0).collect();
    let rec = sim.recorder();
    rec.enable(sim::Level::Spans(sim::ForensicsConfig::default()), 0);
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let other = RStoreClient::connect(&devs[1], master).await.unwrap();
        let len = 64 * 1024;
        let opts = AllocOptions {
            checksums: true,
            ..replicated()
        };
        let region = c.alloc("rolled", len, opts).await.unwrap();
        region.write(0, &vec![1u8; len as usize]).await.unwrap();
        let before = region.desc().groups[0].replicas.clone();
        let bad = before[1];
        let spare = *nodes
            .iter()
            .find(|n| before.iter().all(|x| x.node != **n))
            .expect("three servers, two replicas");
        FaultPlan::new(0xBAD)
            .corrupt_at(Duration::from_millis(1), fabric::NodeId(bad.node), 8)
            .install(&fabric);

        let two = vec![2u8; len as usize];
        if let Some(at) = kill_at {
            s.sleep_until(at).await;
            fabric.set_node_up(fabric::NodeId(spare), false);
            // The copy's RPC fails on the transport time-out (25 ms); by
            // now the move has rolled back, and nothing can replace `S`
            // while the only spare is away. `S` must take writes again: the
            // handle's descriptor was never wrong.
            s.sleep(Duration::from_millis(100)).await;
            assert_eq!(region.desc().groups[0].replicas, before);
            region
                .write(0, &two)
                .await
                .expect("the rolled-back move must leave `old` writable");
            assert_eq!(
                other.lookup("rolled").await.unwrap().groups[0].replicas,
                before
            );
            assert!(master_handle.local_stats().consistent);
            s.sleep(Duration::from_millis(100)).await;
            fabric.set_node_up(fabric::NodeId(spare), true);
        }

        // The next sweep that finds the spare alive succeeds.
        let mut sealed_at = None;
        for _ in 0..300 {
            let replaced = other.lookup("rolled").await.is_ok_and(|d| {
                d.state == RegionState::Healthy && !d.groups[0].replicas.contains(&bad)
            });
            if replaced {
                let notes = rec.era_notes();
                let seal = notes.iter().find(|n| n.name == "extent_sealed");
                sealed_at = seal.map(|n| sim::SimTime::from_nanos(n.at_ns));
                break;
            }
            s.sleep(Duration::from_millis(10)).await;
        }
        let sealed_at =
            sealed_at.expect("repair must replace the corrupt replica, sealing it first");
        if kill_at.is_none() {
            return sealed_at;
        }
        let fresh = other.map("rolled").await.unwrap();
        assert_eq!(fresh.read(0, len).await.unwrap(), two);

        // The books, to the byte. `S` is empty again; `P` and `N` hold one
        // extent each. Three one-stripe regions sized to exactly what is
        // left fit if and only if nothing is still reserved for the move
        // that rolled back and nothing it granted was left behind.
        let extent = rstore::proto::extent_alloc_len(len, true);
        let fill = |stripe_size: u64| AllocOptions {
            stripe_size,
            policy: rstore::Policy::CapacityWeighted,
            ..AllocOptions::default()
        };
        c.alloc("fill/s", DONATE, fill(DONATE)).await.unwrap();
        for name in ["fill/p", "fill/n"] {
            let rest = DONATE - extent;
            c.alloc(name, rest, fill(rest))
                .await
                .unwrap_or_else(|e| panic!("{name}: capacity leaked by the rollback: {e:?}"));
        }
        let st = c.stats().await.unwrap();
        assert_eq!(st.used, 3 * DONATE, "every donated byte is accounted for");
        assert!(st.consistent);
        assert_no_server_holds_unbooked_bytes(&servers, &master_handle);
        sealed_at
    })
}

/// The one recording switch needs no cooperation from the client's
/// configuration and nothing attached in any order: spans enabled on a
/// default-config cluster record every op, and an op that fails with a
/// structured error dumps a bundle that snapshots the registry it folds
/// into. (Recording used to ride a per-client `ledger` flag that was off by
/// default — forensics alone recorded nothing — and a registry attached
/// before the enable was dropped by it.)
#[test]
fn spans_on_a_default_config_cluster_record_ops_and_bundle_the_registry() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let rec = sim.recorder();
    rec.enable(sim::Level::Spans(sim::ForensicsConfig::default()), 0);
    sim.block_on(async move {
        let c = cluster.client(0).await.unwrap();
        let region = c
            .alloc("plain", 64 * 1024, AllocOptions::default())
            .await
            .unwrap();
        for i in 0..10u64 {
            region.write(i * 64, &[i as u8; 64]).await.unwrap();
            assert_eq!(region.read(i * 64, 64).await.unwrap(), [i as u8; 64]);
        }
        // One replica, and its server is gone: the read exhausts its
        // recovery and fails with a structured error.
        let host = region.desc().groups[0].replicas[0].node;
        fabric.set_node_up(fabric::NodeId(host), false);
        assert!(region.read(0, 64).await.is_err());
    });
    assert_eq!((rec.finished(), rec.failed(), rec.bundles()), (21, 1, 1));
    assert_eq!(rec.ring().len(), 21);
    let exemplars = rec.exemplars();
    assert!(exemplars.iter().any(|e| e.rec.kind == "write"));
    let failed = exemplars
        .iter()
        .find(|e| e.rec.error.is_some())
        .expect("the slowest read of its window is the one that failed");
    assert!(failed.spans.iter().any(|s| s.phase == sim::Phase::Retry));
    let bundle = rec
        .last_bundle()
        .expect("a structured error dumps a bundle");
    let bench::json::Json::Obj(doc) = bench::json::parse(&bundle).expect("valid JSON") else {
        panic!("a bundle is an object")
    };
    let Some(bench::json::Json::Obj(gauges)) = doc.get("gauges") else {
        panic!("a bundle snapshots its registry")
    };
    // Written before this op folded: the 20 that succeeded are in it.
    for (name, value) in [("ops.read.count", 10), ("optrace.failed", 1)] {
        assert_eq!(gauges.get(name), Some(&bench::json::Json::int(value)));
    }
}

#[test]
fn repair_whose_target_dies_before_the_copy_rolls_back_exactly() {
    // Deterministic schedule: a dry run says when the seal took effect —
    // `AllocExtents` has been answered, `Replicate` is about to be sent.
    // The re-run takes the target's link down 1 µs before that.
    let sealed_at = repair_rollback_run(None);
    let kill_at = sim::SimTime::from_nanos(sealed_at.as_nanos() - 1_000);
    let resealed_at = repair_rollback_run(Some(kill_at));
    assert_eq!(
        resealed_at, sealed_at,
        "the first move sealed before it failed"
    );
}

#[test]
fn sixteen_tasks_sharing_one_client_survive_a_flap_on_the_control_gate() {
    // Every control call of a client goes through one single-permit gate
    // (its `rpc::Channel`'s), and every call arms a response deadline. A deadline that
    // outlived its call used to wake its task while that task was queued at
    // the gate for a later call; the second poll queued a second waker, the
    // stale one absorbed a `release`, and the workers behind it slept for
    // ever. Sixteen tasks hammer the gate through a server flap for 400 ms
    // of virtual time; the run is cut off 3 s later, so a stranded waiter
    // is a failed assertion, not a hung test binary.
    let cluster = boot(4, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let dev = cluster.client_devs[0].clone();
    let master = cluster.master_node();
    let cfg = rstore::ClientConfig {
        // Deadlines that come due while the traffic is still running.
        ctrl_response_timeout: Duration::from_millis(50),
        ..rstore::ClientConfig::default()
    };
    let kv_cfg = KvConfig {
        buckets: 256,
        slot_bytes: 128,
        max_probe: 16,
        opts: replicated(),
    };
    let s = sim.clone();
    let (shared, victim) = sim.block_on(async move {
        let c = RStoreClient::connect_with(&dev, master, cfg).await.unwrap();
        let kv = KvTable::create(&c, "gate", kv_cfg).await.unwrap();
        kv.put(b"k", b"v").await.unwrap();
        let data = c.lookup("gate@g1").await.unwrap();
        (c, fabric::NodeId(data.groups[0].replicas[0].node))
    });

    let until = sim.now() + Duration::from_millis(400);
    let workers: Vec<_> = (0..16)
        .map(|_| {
            let (c, s) = (shared.clone(), s.clone());
            sim.spawn(async move {
                let mut calls = 0u64;
                while s.now() < until {
                    // Errors are expected mid-flap; being parked is not.
                    let _ = c.lookup("gate@g1").await;
                    let _ = KvTable::open_degraded(&c, "gate", 128, 16).await;
                    calls += 1;
                }
                calls
            })
        })
        .collect();
    FaultPlan::new(5)
        .flap(
            Duration::from_millis(100),
            victim,
            Duration::from_millis(60),
        )
        .install(&fabric);
    sim.run_until(until + Duration::from_secs(3));

    let calls: Vec<Option<u64>> = workers.iter().map(|w| w.try_result()).collect();
    let stranded = calls.iter().filter(|c| c.is_none()).count();
    assert_eq!(
        stranded, 0,
        "{stranded} of 16 workers are still parked at the control gate: {calls:?}"
    );
    assert!(
        calls.iter().flatten().all(|&n| n > 10),
        "every worker kept making progress: {calls:?}"
    );
}

// --- the applications' IO form: gather and shuffle ----------------------------

#[test]
fn page_gather_fails_over_when_a_primary_is_down() {
    // A superstep's gather is one `read_into_many`, so it inherits replica
    // failover: with the primary of a stripe unreachable every page still
    // lands, from the second replica. (The gather used to post raw
    // per-page READs with no failover and surfaced `Io`.)
    let cluster = boot(4, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let n = 40_000u64; // 5 stripes of 64 KiB, the last one partial
        let value = |id: u64| id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4;
        let image: Vec<u8> = (0..n).flat_map(|id| value(id).to_le_bytes()).collect();
        let region = c.alloc("vector", n * 8, replicated()).await.unwrap();
        region.write(0, &image).await.unwrap();

        let ids: Vec<u64> = (0..n).step_by(3).collect();
        let mut gather =
            rgraph::worker::PageGather::plan(region.clone(), ids.iter().copied()).unwrap();
        let page = rgraph::worker::PAGE_BYTES;
        assert_eq!(gather.page_count() as u64, (n * 8).div_ceil(page));

        let victim = region.desc().groups[1].replicas[0].node;
        fabric.set_node_up(fabric::NodeId(victim), false);
        gather
            .fetch()
            .await
            .expect("gather through replica failover");
        for &id in &ids {
            assert_eq!(gather.get(id), value(id), "element {id}");
        }
    });
}

#[test]
fn write_from_many_redials_an_errored_qp_and_reaches_every_replica() {
    // A link flap leaves the client's data QP to the flapped server in the
    // error state. The next multi-pair write cannot post on it: the
    // recovery round re-dials once, reposts what failed, and every replica
    // of every stripe holds the new bytes. (A shuffle used to post raw
    // WRITEs and surfaced the flush from its first wait.)
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let dev = &devs[0];
        let c = RStoreClient::connect(dev, master).await.unwrap();
        let stripe = 64 * 1024u64;
        let region = c.alloc("shuffled", 4 * stripe, replicated()).await.unwrap();
        let mut model = payload(4 * stripe as usize);
        region.write(0, &model).await.unwrap();

        // Shorter than the lease: membership and placement do not change.
        let victim = fabric::NodeId(region.desc().groups[0].replicas[1].node);
        fabric.set_node_up(victim, false);
        let err = region.write(0, &model[..100]).await.err().unwrap();
        assert!(matches!(err, RStoreError::Io(_)), "got {err:?}");
        fabric.set_node_up(victim, true);
        // Past the re-dial backoff the failed write armed (1 ms).
        s.sleep(Duration::from_millis(5)).await;
        let desc = region.desc();
        assert_eq!(desc, c.lookup("shuffled").await.unwrap(), "placement held");

        let buf = dev.alloc(4 * stripe).unwrap();
        let pairs = [
            (0, stripe),
            (stripe + 100, 1000),
            (2 * stripe - 512, stripe),
        ];
        let mut ios = Vec::new();
        let mut at = 0;
        for (i, &(offset, len)) in pairs.iter().enumerate() {
            let bytes = vec![0xB0 + i as u8; len as usize];
            dev.write_mem(buf.addr + at, &bytes).unwrap();
            model[offset as usize..(offset + len) as usize].copy_from_slice(&bytes);
            ios.push((offset, buf.slice(at, len)));
            at += len;
        }
        let redials = dev.metrics().counter("rstore.redial.ok");
        region
            .write_from_many(&ios)
            .await
            .expect("re-dial and repost");
        assert_eq!(dev.metrics().counter("rstore.redial.ok"), redials + 1);
        dev.free(buf).unwrap();

        let nodes: std::collections::BTreeSet<u32> = desc.groups[..3]
            .iter()
            .flat_map(|g| g.replicas.iter().map(|x| x.node))
            .collect();
        assert!(nodes.len() >= 2, "the pairs span servers: {nodes:?}");
        for (g, group) in desc.groups.iter().enumerate() {
            let want = &model[g * stripe as usize..(g + 1) * stripe as usize];
            for x in &group.replicas {
                let (status, bytes) = raw_read_bytes(dev, x, stripe).await;
                assert_eq!(status, rdma::CqStatus::Success);
                assert!(bytes == want, "stripe {g} on node {}", x.node);
            }
        }
    });
}

// --- slot locks: one unlock, two callers ----------------------------------------

/// A table of 256 slots of 128 bytes in 1 KiB stripes, each stripe on both
/// servers of a two-server cluster.
fn two_replica_table() -> KvConfig {
    KvConfig {
        buckets: 256,
        slot_bytes: 128,
        max_probe: 16,
        opts: AllocOptions {
            stripe_size: 1024,
            replicas: 2,
            ..AllocOptions::default()
        },
    }
}

/// The primary and secondary extents of the stripe holding `key`'s home slot
/// in the [`two_replica_table`] `name`, and the slot's offset in both.
async fn home_slot(c: &RStoreClient, name: &str, key: &[u8]) -> (Extent, Extent, u64) {
    let offset = (rstore::kv::hash_key(key) & 255) * 128;
    let desc = c.lookup(&format!("{name}@g1")).await.unwrap();
    let group = &desc.groups[(offset / 1024) as usize];
    (group.replicas[0], group.replicas[1], offset % 1024)
}

/// The 8-byte word at `off` of extent `x`, by a raw one-sided READ from
/// `dev` — after a raw one-sided WRITE of the bytes `plant` there, if given.
/// Neither goes through a descriptor or takes a lock.
async fn raw_word(dev: &rdma::RdmaDevice, x: &Extent, off: u64, plant: Option<&[u8]>) -> u64 {
    let cq = rdma::CompletionQueue::new();
    let qp = dev
        .connect(fabric::NodeId(x.node), rstore::DATA_SERVICE, &cq)
        .await
        .expect("dial the data service");
    let len = plant.map_or(8, |bytes| bytes.len().max(8) as u64);
    let buf = dev.alloc_aligned(len, 8).unwrap();
    let remote = rdma::RemoteAddr {
        addr: x.addr + off,
        rkey: rdma::RKey(x.rkey),
    };
    if let Some(bytes) = plant {
        dev.write_mem(buf.addr, bytes).unwrap();
        qp.post_write(1, buf.slice(0, bytes.len() as u64), remote)
            .unwrap();
        assert_eq!(cq.next().await.status, rdma::CqStatus::Success);
    }
    qp.post_read(2, buf.slice(0, 8), remote).unwrap();
    assert_eq!(cq.next().await.status, rdma::CqStatus::Success);
    let word = dev.read_u64(buf.addr).unwrap();
    dev.free(buf).unwrap();
    word
}

/// The stable version a slot's version word stands for: the word itself
/// when even, the version it was locked over when odd (a lock word's low 32
/// bits are `version + 1`, a nonce sits above them).
fn stable_version(word: u64) -> u64 {
    if word.is_multiple_of(2) {
        word
    } else {
        (word & 0xFFFF_FFFF) - 1
    }
}

/// How long a waiter watches one unchanged lock word before breaking it
/// (`kv.rs`'s `ORPHAN_BREAK_AGE`).
const ORPHAN_BREAK_AGE: Duration = Duration::from_millis(15);

#[test]
fn a_put_that_fails_after_its_lock_leaves_the_old_or_the_new_value() {
    // The lock CAS lands on the primary and so does the publish, but the
    // secondary is down: its copy times out and so does its re-dial, and
    // the put fails. Releasing the lock must not take the key's
    // acknowledged value with it. (The release was a tombstone WRITE over
    // the slot: the key read back absent.)
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let s = sim.clone();
    sim.block_on(async move {
        let c = cluster.client(0).await.unwrap();
        let kv = KvTable::create(&c, "failed-put", two_replica_table())
            .await
            .unwrap();
        kv.put(b"k", b"v1").await.unwrap();
        let (_, secondary, _) = home_slot(&c, "failed-put", b"k").await;
        let secondary = fabric::NodeId(secondary.node);

        fabric.set_node_up(secondary, false);
        let err = kv.put(b"k", b"v2").await.unwrap_err();
        assert!(matches!(err, RStoreError::Io(_)), "got {err:?}");
        let left = kv.get(b"k").await.unwrap();
        assert!(
            matches!(left.as_deref(), Some(b"v1" | b"v2")),
            "a failed put left {left:?}"
        );

        fabric.set_node_up(secondary, true);
        let mut attempts = 0;
        while let Err(e) = kv.put(b"k", b"v3").await {
            attempts += 1;
            assert!(attempts < 20, "the key stayed unwritable: {e:?}");
            s.sleep(Duration::from_millis(20)).await;
        }
        assert_eq!(kv.get(b"k").await.unwrap().as_deref(), Some(&b"v3"[..]));
    });
}

#[test]
fn a_lost_release_completion_is_never_replayed_over_a_later_insert() {
    // Defect (a). A put's publish fails, so the put releases its slot lock —
    // and the release executes while its completion is lost. The release
    // used to be a tombstone WRITE, which the region layer re-posts after a
    // re-dial one transport time-out later; an insert acknowledged in
    // between was erased by the copy and the slot's version went back.
    //
    // The schedule, in virtual time from the put's start (read off a trace
    // of this run): the walk, the lock CAS and the publish's copy on the
    // primary land; the secondary is down until +26 ms, so its copy times
    // out (+25.005 ms) and its re-dial's connect request is lost too; the
    // publish fails at +50.004 87 ms and the release leaves the owner's
    // node at +50.005 02 ms. The owner's node is off the fabric from
    // +50.005 4 ms for 1 ms, so the primary's answer (sent at +50.005 74 ms)
    // is lost. At +51 ms another client inserts a second key whose home
    // slot is the same.
    let cluster = boot(2, 2);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let owner_node = cluster.client_devs[0].node();
    let raw_dev = cluster.client_devs[1].clone();
    let s = sim.clone();
    sim.block_on(async move {
        let owner = cluster.client(0).await.unwrap();
        let other = cluster.client(1).await.unwrap();
        let kv = KvTable::create(&owner, "replay", two_replica_table())
            .await
            .unwrap();
        let kv2 = KvTable::open(&other, "replay", 128, 16).await.unwrap();
        let (k1, k2): (&[u8], &[u8]) = (b"d-0", b"d-154");
        let home = |k: &[u8]| rstore::kv::hash_key(k) & 255;
        assert_eq!(home(k1), home(k2), "one home slot");
        let (primary, secondary, off) = home_slot(&owner, "replay", k1).await;
        let secondary = fabric::NodeId(secondary.node);

        fabric.set_node_up(secondary, false);
        FaultPlan::new(1)
            .restart_at(Duration::from_millis(26), secondary)
            .flap(
                Duration::from_nanos(50_005_400),
                owner_node,
                Duration::from_millis(1),
            )
            .install(&fabric);
        let start = s.now();
        let failed = s.spawn(async move { kv.put(k1, b"v1").await });
        s.sleep(Duration::from_millis(51)).await;
        kv2.put(k2, b"v2")
            .await
            .expect("the insert is acknowledged");
        let acked = raw_word(&raw_dev, &primary, off, None).await;
        assert!(failed.await.is_err(), "the put fails");
        assert!(
            s.now().saturating_since(start) >= Duration::from_millis(75),
            "the release's completion was lost and waited out"
        );

        // Past any copy still in flight, the insert reads back and the
        // slot's version has not gone back.
        s.sleep(Duration::from_millis(50)).await;
        assert_eq!(
            kv2.get(k2).await.unwrap().as_deref(),
            Some(&b"v2"[..]),
            "an acknowledged insert was erased"
        );
        let later = raw_word(&raw_dev, &primary, off, None).await;
        assert!(
            stable_version(later) >= stable_version(acked),
            "the slot's version went back: {acked:#x} -> {later:#x}"
        );
    });
}

#[test]
fn a_writer_whose_lock_cas_completion_is_lost_releases_its_own_lock() {
    // The owner release: the hinted put's lock CAS executes on the primary,
    // but the answer is lost (the owner's node is off the fabric from
    // 500 ns to 1 ms after the put starts; the CAS leaves at +150 ns and is
    // answered at +870 ns). The CAS times out, and the writer CASes its own
    // tagged word back before it surfaces the error: the old value stays,
    // no waiter breaks anything, and the next writer gets in at once —
    // not after a waiter's `ORPHAN_BREAK_AGE`.
    let cluster = boot(2, 2);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let owner_node = cluster.client_devs[0].node();
    let raw_dev = cluster.client_devs[1].clone();
    let s = sim.clone();
    sim.block_on(async move {
        let owner = cluster.client(0).await.unwrap();
        let other = cluster.client(1).await.unwrap();
        let kv = KvTable::create(&owner, "owner", two_replica_table())
            .await
            .unwrap();
        let kv2 = KvTable::open(&other, "owner", 128, 16).await.unwrap();
        kv.put(b"k", b"v1").await.unwrap();
        let (primary, _, off) = home_slot(&owner, "owner", b"k").await;
        let version = raw_word(&raw_dev, &primary, off, None).await;
        assert_eq!(version % 2, 0, "stable");

        FaultPlan::new(1)
            .flap(
                Duration::from_nanos(500),
                owner_node,
                Duration::from_millis(1),
            )
            .install(&fabric);
        let failed = s.spawn(async move {
            let result = kv.put(b"k", b"v2").await;
            (result, kv)
        });
        s.sleep(Duration::from_millis(10)).await;
        let held = raw_word(&raw_dev, &primary, off, None).await;
        assert_eq!(
            (held % 2, stable_version(held)),
            (1, version),
            "the lost CAS executed: {held:#x}"
        );
        let (result, kv) = failed.await;
        assert!(result.is_err(), "the put surfaces the CAS's error");
        assert_eq!(
            raw_word(&raw_dev, &primary, off, None).await,
            version,
            "the owner put the pre-lock version back"
        );
        assert_eq!(kv.get(b"k").await.unwrap().as_deref(), Some(&b"v1"[..]));

        let t = s.now();
        kv2.put(b"k", b"v3").await.unwrap();
        assert!(
            s.now().saturating_since(t) < ORPHAN_BREAK_AGE / 10,
            "the next writer waited {:?}",
            s.now().saturating_since(t)
        );
        assert_eq!(kv2.get(b"k").await.unwrap().as_deref(), Some(&b"v3"[..]));
        assert_eq!(
            fabric.metrics().counter("kv.lock.break"),
            0,
            "no waiter broke it"
        );
    });
}

#[test]
fn a_waiter_breaks_an_orphaned_lock_and_reads_the_pre_lock_value() {
    // The waiter break: a tagged lock word with no owner — what a slot
    // copied by a migration while locked holds — is planted on the primary
    // by a raw one-sided WRITE. A reader reads through it at once: the value
    // under the lock, in one RTT, breaking nothing. A writer's chase waits
    // on it, watches the same word for `ORPHAN_BREAK_AGE`, CASes it back to
    // the pre-lock version and then publishes over it — at that version,
    // since the key keeps its slot.
    let cluster = boot(2, 2);
    let sim = cluster.sim.clone();
    sim.recorder().enable(sim::Level::Costs, 0);
    let raw_dev = cluster.client_devs[1].clone();
    let s = sim.clone();
    sim.block_on(async move {
        let owner = cluster.client(0).await.unwrap();
        let waiter = cluster.client(1).await.unwrap();
        let kv = KvTable::create(&owner, "orphan", two_replica_table())
            .await
            .unwrap();
        kv.put(b"k", b"v1").await.unwrap();
        let (primary, _, off) = home_slot(&owner, "orphan", b"k").await;
        let version = raw_word(&raw_dev, &primary, off, None).await;
        // `lock_word(version, nonce)`: `version + 1` under a nonce.
        let orphan = (version + 1) | (0x5EED << 32);
        assert_eq!(
            raw_word(&raw_dev, &primary, off, Some(&orphan.to_le_bytes())).await,
            orphan
        );

        let kv2 = KvTable::open(&waiter, "orphan", 128, 16).await.unwrap();
        let metrics = waiter.device().metrics();
        metrics.reset();
        assert_eq!(kv2.get(b"k").await.unwrap().as_deref(), Some(&b"v1"[..]));
        let ops = sim::ledger::summarize(&metrics);
        assert_eq!(ops[0].op, "get");
        assert_eq!(ops[0].rtts_max, 1, "read through the orphan");
        assert_eq!(metrics.counter("kv.lock.break"), 0);
        assert_eq!(raw_word(&raw_dev, &primary, off, None).await, orphan);

        let t = s.now();
        kv2.put(b"k", b"v2").await.unwrap();
        assert!(s.now().saturating_since(t) >= ORPHAN_BREAK_AGE);
        assert_eq!(metrics.counter("kv.lock.break"), 1);
        assert_eq!(raw_word(&raw_dev, &primary, off, None).await, version);
        assert_eq!(kv.get(b"k").await.unwrap().as_deref(), Some(&b"v2"[..]));
    });
}

#[test]
fn a_hint_is_never_taken_from_a_read_the_primary_did_not_serve() {
    // A failed insert of K can leave the secondary holding `[2 | K]` while
    // the primary, unlocked, is back at the never-used slot: a raw one-sided
    // WRITE plants that state. With the primary down, a get of K fails over
    // and sees K on the secondary. Once the primary is back, another client
    // inserts J into the same slot, at version 2. A hint taken from the
    // failed-over read would name version 2, K's hinted CAS would win over
    // J, and K's publish would erase J. Hints come only from the primary,
    // so K's put walks past J, and both keys stay. A writer's walk keeps the
    // same rule: a put of K while the primary is down never CASes on the
    // version the secondary showed.
    let cluster = boot(2, 2);
    let sim = cluster.sim.clone();
    sim.recorder().enable(sim::Level::Costs, 0);
    let fabric = cluster.fabric.clone();
    let raw_dev = cluster.client_devs[1].clone();
    let s = sim.clone();
    sim.block_on(async move {
        let writer = cluster.client(0).await.unwrap();
        let reader = cluster.client(1).await.unwrap();
        let kv = KvTable::create(&writer, "diverged", two_replica_table())
            .await
            .unwrap();
        let kv2 = KvTable::open(&reader, "diverged", 128, 16).await.unwrap();
        let (k, j): (&[u8], &[u8]) = (b"d-0", b"d-154");
        let home = |key: &[u8]| rstore::kv::hash_key(key) & 255;
        assert_eq!(home(k), home(j), "one home slot");
        let (primary, secondary, off) = home_slot(&writer, "diverged", k).await;
        // `[version | klen | vlen | pad | key | value]`
        let mut image = 2u64.to_le_bytes().to_vec();
        image.extend((k.len() as u16).to_le_bytes());
        image.extend(4u16.to_le_bytes());
        image.extend([0; 4]);
        image.extend(k.iter().chain(b"lost"));
        assert_eq!(raw_word(&raw_dev, &secondary, off, Some(&image)).await, 2);
        assert_eq!(raw_word(&raw_dev, &primary, off, None).await, 0);

        let primary_node = fabric::NodeId(primary.node);
        fabric.set_node_up(primary_node, false);
        let read = kv2.get(k).await.unwrap();
        assert_eq!(
            read.as_deref(),
            Some(&b"lost"[..]),
            "the secondary served it"
        );
        let metrics = reader.device().metrics();
        metrics.reset();
        let err = kv2.put(k, b"early").await.unwrap_err();
        let ops = sim::ledger::summarize(&metrics);
        assert!(
            ops.iter().all(|op| op.op != "cas"),
            "a CAS was posted: {ops:?}"
        );
        assert!(matches!(err, RStoreError::Io(_)), "got {err:?}");
        fabric.set_node_up(primary_node, true);
        // Past the reader's re-dial backoff, so its put reaches the primary.
        s.sleep(Duration::from_millis(50)).await;
        kv.put(j, b"theirs").await.unwrap();
        assert_eq!(raw_word(&raw_dev, &primary, off, None).await, 2);

        kv2.put(k, b"mine").await.unwrap();
        assert_eq!(
            kv.get(j).await.unwrap().as_deref(),
            Some(&b"theirs"[..]),
            "the insert of J was erased"
        );
        assert_eq!(kv.get(k).await.unwrap().as_deref(), Some(&b"mine"[..]));
    });
}

// --- one data-QP dialer -----------------------------------------------------

/// Queue pairs `dev` holds — connected, errored or orphaned alike — read from
/// its `Debug` form, the one place the verbs layer reports the count.
fn qps_held(dev: &rdma::RdmaDevice) -> usize {
    let dbg = format!("{dev:?}");
    let count = dbg.split("qps: ").nth(1).expect("the device reports qps");
    count.split(',').next().unwrap().parse().unwrap()
}

#[test]
fn concurrent_maps_share_one_dial_per_server_and_skip_errored_qps() {
    // Two `map`s of one region on a fresh client race for every server's
    // first dial: they must share it, one QP per server. (Each used to dial
    // its own, and the later insert orphaned the other's QP for good.) A map
    // never re-dials a cached QP, errored or not — that is the IO path's job.
    let cluster = boot(3, 2);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let owner = RStoreClient::connect(&devs[1], master).await.unwrap();
        let region = owner.alloc("raced", 3 * 64 * 1024, replicated());
        let desc = region.await.unwrap().desc();
        let replicas = desc.groups.iter().flat_map(|g| &g.replicas);
        let servers: std::collections::BTreeSet<u32> = replicas.map(|x| x.node).collect();
        assert_eq!(servers.len(), 3);

        let dev = &devs[0];
        let c = RStoreClient::connect(dev, master).await.unwrap();
        let ctrl = qps_held(dev);
        let maps = sim::join_all(vec![c.map("raced"), c.map("raced")]).await;
        let region = maps.into_iter().map(Result::unwrap).next().unwrap();
        assert_eq!(qps_held(dev), ctrl + servers.len(), "one QP per server");

        // A flap shorter than the lease leaves one QP errored behind a
        // failed write; mapping again dials nothing.
        let victim = fabric::NodeId(desc.groups[0].replicas[1].node);
        fabric.set_node_up(victim, false);
        assert!(region.write(0, &[1; 100]).await.is_err());
        fabric.set_node_up(victim, true);
        c.map_degraded("raced").await.unwrap();
        assert_eq!(
            qps_held(dev),
            ctrl + servers.len(),
            "a map dials no errored QP"
        );
        // Past the re-dial backoff, the next write replaces it.
        s.sleep(Duration::from_millis(5)).await;
        region.write(0, &[2; 100]).await.unwrap();
        assert_eq!(qps_held(dev), ctrl + servers.len() + 1);
    });
}

#[test]
fn a_drain_whose_source_flaps_between_copies_completes_intact() {
    // An extent copy is a READ the target posts through its data-QP dialer.
    // Two servers, one replica: every extent drained off X moves to Y. Right
    // after the first move, X flaps — after the second move's seal, before
    // its READ reaches X (half a millisecond of RPC CPU per server request
    // holds that window open). The READ is lost, Y's QP to X errors and the
    // move rolls back; the drain's next pass re-dials through the same
    // dialer and completes. Every copy from X to Y shares Y's one QP to X:
    // the whole drain dials X twice, once for the flap.
    let fast = ClusterConfig::fast_detection(2);
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        server: ServerConfig {
            rpc_cpu: Duration::from_micros(500),
            ..fast.server.clone()
        },
        ..fast
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let victim = cluster.servers[0].node();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let stripe = 1024 * 1024u64;
        let opts = AllocOptions {
            stripe_size: stripe,
            ..AllocOptions::default()
        };
        let data = payload(8 * stripe as usize);
        let region = c.alloc("evac", 8 * stripe, opts).await.unwrap();
        region.write(0, &data).await.unwrap();
        let groups = region.desc().groups;
        let hosted = groups.iter().filter(|g| g.replicas[0].node == victim.0);
        assert!(hosted.count() >= 2, "two copies to flap between");

        let m = fabric.metrics();
        let dials = || {
            (
                m.counter("rstore.redial.attempts"),
                m.counter("rstore.redial.ok"),
            )
        };
        let before = dials();
        let drain = {
            let c = c.clone();
            s.spawn(async move { c.drain(victim).await })
        };
        // The first move is done and the second has begun: its alloc on Y
        // and its seal on X take ~1 ms, then Y's RPC CPU holds the READ back
        // another 0.5 ms.
        while m.counter("drain.extents") == 0 {
            s.sleep(Duration::from_micros(10)).await;
        }
        FaultPlan::new(27)
            .flap(
                Duration::from_micros(1250),
                victim,
                Duration::from_millis(2),
            )
            .install(&fabric);
        drain.await.expect("the drain completes");
        let after = dials();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (2, 2),
            "dials of X"
        );

        let fresh = c.map("evac").await.unwrap();
        let mut replicas = fresh.desc().groups.into_iter().flat_map(|g| g.replicas);
        assert!(replicas.all(|x| x.node != victim.0));
        assert_eq!(fresh.read(0, 8 * stripe).await.unwrap(), data);
        assert!(c.stats().await.unwrap().consistent);
    });
}
