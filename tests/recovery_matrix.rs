//! Recovery matrix: data-path reconnect, read failover under injected
//! loss, master repair, and the control-path accounting fixes — all driven
//! through [`FaultPlan`] or direct fabric faults in virtual time.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use fabric::FaultPlan;
use rstore::{
    AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, MasterConfig, RStoreClient,
    RStoreError, RegionState, ServerConfig,
};

fn boot(servers: usize, clients: usize) -> Cluster {
    Cluster::boot(ClusterConfig {
        clients,
        // Short leases and an eager repair task so recovery converges
        // quickly (virtual time); short RC timeouts so IO errors surface
        // fast instead of after the default 2 s budget.
        master: MasterConfig {
            lease: Duration::from_millis(50),
            sweep_interval: Duration::from_millis(20),
            repair_interval: Duration::from_millis(40),
            ..MasterConfig::default()
        },
        server: ServerConfig {
            heartbeat: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        rdma: rdma::RdmaConfig {
            base_timeout: Duration::from_millis(25),
            ..rdma::RdmaConfig::default()
        },
        ..ClusterConfig::with_servers(servers)
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
    let tracer = sim.tracer();
    tracer.enable(1 << 16);
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
    tracer.export_chrome_trace()
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

#[test]
fn failed_grow_releases_name_reservation() {
    let cluster = boot(2, 1);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        c.alloc("g", 64 * 1024, AllocOptions::default())
            .await
            .unwrap();
        // Impossible grow: more replicas than live servers. The error must
        // come back structured (remapped from the wire), and the failed
        // grow must drop its name reservation.
        let err = c
            .grow(
                "g",
                64 * 1024,
                AllocOptions {
                    replicas: 5,
                    ..AllocOptions::default()
                },
            )
            .await
            .err()
            .unwrap();
        assert_eq!(
            err,
            RStoreError::NotEnoughServers {
                replicas: 5,
                available: 2
            }
        );
        // A feasible grow right after must succeed — the name is free.
        c.grow("g", 64 * 1024, AllocOptions::default())
            .await
            .unwrap();
    });
}

#[test]
fn grow_racing_with_free_rolls_back_cleanly() {
    let cluster = boot(2, 2);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c0 = RStoreClient::connect(&devs[0], master).await.unwrap();
        let c1 = RStoreClient::connect(&devs[1], master).await.unwrap();
        c0.alloc("ephemeral", 64 * 1024, AllocOptions::default())
            .await
            .unwrap();

        // Start a large grow, then free the region while the master is
        // still collecting extents from the servers.
        let grow_result: Rc<RefCell<Option<rstore::Result<()>>>> = Rc::new(RefCell::new(None));
        {
            let c0 = c0.clone();
            let grow_result = grow_result.clone();
            s.spawn(async move {
                let r = c0
                    .grow("ephemeral", 64 * 1024 * 1024, AllocOptions::default())
                    .await
                    .map(|_| ());
                *grow_result.borrow_mut() = Some(r);
            });
        }
        s.sleep(Duration::from_micros(50)).await;
        c1.free("ephemeral").await.unwrap();

        while grow_result.borrow().is_none() {
            s.sleep(Duration::from_millis(1)).await;
        }
        let r = grow_result.borrow_mut().take().unwrap();
        assert!(
            matches!(r, Err(RStoreError::NotFound(_))),
            "grow over a freed region must report NotFound, got {r:?}"
        );
        // The aborted grow must leak neither capacity nor the name.
        assert_eq!(c0.stats().await.unwrap().used, 0);
        c1.alloc("ephemeral", 4096, AllocOptions::default())
            .await
            .unwrap();
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
    let tracer = sim.tracer();
    tracer.enable(1 << 16);

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
    tracer.export_chrome_trace()
}

#[test]
fn same_membership_plan_traces_identically() {
    let a = traced_membership_run();
    let b = traced_membership_run();
    assert_eq!(a, b, "join/drain/crash/loss under one seed must reproduce");
}
