//! End-to-end data integrity: at-rest corruption injection, checksummed
//! reads with failover, the background scrubber, and repair back to Healthy.

use std::time::Duration;

use fabric::{FaultPlan, NodeId};
use rstore::{
    AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable, MasterConfig, RStoreClient,
    RStoreError, RegionState, ServerConfig,
};
use sim::DetRng;

fn boot(servers: usize, scrub: bool) -> Cluster {
    Cluster::boot(ClusterConfig {
        clients: 1,
        // Short intervals so corruption handling converges quickly
        // (virtual time).
        master: MasterConfig {
            lease: Duration::from_millis(50),
            sweep_interval: Duration::from_millis(20),
            repair_interval: Duration::from_millis(40),
            scrub,
            scrub_interval: Duration::from_millis(50),
            ..MasterConfig::default()
        },
        server: ServerConfig {
            heartbeat: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        ..ClusterConfig::with_servers(servers)
    })
    .expect("boot")
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

#[test]
fn checksummed_region_round_trips_partial_and_spanning_io() {
    let cluster = boot(3, true);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 64 * 1024u64;
        let region = c
            .alloc(
                "ck",
                size,
                AllocOptions {
                    stripe_size: 8 * 1024,
                    replicas: 2,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        assert!(region.desc().checksums);

        // Mirror every write into a local model and compare afterwards.
        let mut model = pattern(size as usize);
        region.write(0, &model).await.unwrap();
        // Partial overwrite inside one stripe (read-modify-write path).
        let patch = vec![0xABu8; 100];
        region.write(300, &patch).await.unwrap();
        model[300..400].copy_from_slice(&patch);
        // Overwrite spanning a stripe boundary.
        let span = vec![0xCDu8; 4096];
        region.write(8 * 1024 - 1000, &span).await.unwrap();
        model[8 * 1024 - 1000..8 * 1024 - 1000 + 4096].copy_from_slice(&span);

        assert_eq!(region.read(0, size).await.unwrap(), model);

        // Freeing returns every physical byte, trailers included.
        c.free("ck").await.unwrap();
        assert_eq!(c.stats().await.unwrap().used, 0);
    });
}

#[test]
fn write_from_many_on_a_checksummed_region_seals_stripes_and_a_flip_is_detected() {
    // Caller-buffer writes go through the same stripe assembly as `write`:
    // trailers stay valid, so a later at-rest flip in one replica is caught
    // by `read_into_many` and served from the other.
    let cluster = boot(4, false);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let dev = &devs[0];
        let (stripe, size) = (16 * 1024u64, 128 * 1024u64);
        let opts = AllocOptions {
            stripe_size: stripe,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("ck_many", size, opts).await.unwrap();
        let mut model = pattern(size as usize);
        region.write(0, &model).await.unwrap();

        // A whole stripe, two partial writes into one stripe (each a
        // read-modify-write of it: neither may lose the other's bytes) and
        // one pair spanning a stripe boundary.
        let buf = dev.alloc(size).unwrap();
        let pairs = [
            (2 * stripe, stripe),
            (300, 100),
            (5 * stripe - 1000, 4096),
            (9000, 50),
        ];
        let mut ios = Vec::new();
        let mut at = 0;
        for (i, &(offset, len)) in pairs.iter().enumerate() {
            let bytes = vec![0xA0 + i as u8; len as usize];
            dev.write_mem(buf.addr + at, &bytes).unwrap();
            model[offset as usize..(offset + len) as usize].copy_from_slice(&bytes);
            ios.push((offset, buf.slice(at, len)));
            at += len;
        }
        region.write_from_many(&ios).await.unwrap();
        assert_eq!(region.read(0, size).await.unwrap(), model);
        let m = fabric.metrics();
        assert_eq!(m.counter("integrity.read_mismatch"), 0, "trailers valid");

        // Flip bits at rest under group 0's primary, then gather every
        // stripe back in one round.
        let victim = region.desc().groups[0].replicas[0].node;
        FaultPlan::new(0xC7)
            .corrupt_at(Duration::from_millis(1), NodeId(victim), 32)
            .install(&fabric);
        s.sleep(Duration::from_millis(5)).await;
        assert_eq!(m.counter("integrity.injected"), 32);
        let gather: Vec<_> = (0..size / stripe)
            .map(|g| (g * stripe, buf.slice(g * stripe, stripe)))
            .collect();
        region.read_into_many(&gather).await.unwrap();
        assert_eq!(dev.read_mem(buf.addr, size).unwrap(), model);
        assert!(m.counter("integrity.read_mismatch") >= 1, "flip detected");
        dev.free(buf).unwrap();
    });
}

#[test]
fn corrupted_replica_read_fails_over_and_region_repairs() {
    let cluster = boot(4, true);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 256 * 1024u64;
        let data = pattern(size as usize);
        let region = c
            .alloc(
                "guarded",
                size,
                AllocOptions {
                    stripe_size: 64 * 1024,
                    replicas: 2,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, &data).await.unwrap();

        // Flip bits at rest on the server holding group 0's first replica.
        let victim = region.desc().groups[0].replicas[0].node;
        FaultPlan::new(0xC0)
            .corrupt_at(Duration::from_millis(1), NodeId(victim), 32)
            .install(&fabric);
        s.sleep(Duration::from_millis(5)).await;
        let m = fabric.metrics();
        assert_eq!(m.counter("integrity.injected"), 32);

        // Reads still return the written bytes: verification fails over to
        // the intact replica and reports the bad one.
        assert_eq!(region.read(0, size).await.unwrap(), data);
        assert!(m.counter("integrity.read_mismatch") >= 1);

        // The master re-replicates the damaged extents and the region
        // returns to Healthy.
        s.sleep(Duration::from_secs(2)).await;
        assert!(m.counter("integrity.detected") >= 1);
        let desc = c.lookup("guarded").await.unwrap();
        assert_eq!(desc.state, RegionState::Healthy, "repair must complete");
        let remapped = c.map("guarded").await.unwrap();
        assert_eq!(remapped.read(0, size).await.unwrap(), data);
    });
}

#[test]
fn scrubber_finds_corruption_without_any_reads() {
    let cluster = boot(3, true);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 128 * 1024u64;
        let data = pattern(size as usize);
        let region = c
            .alloc(
                "swept",
                size,
                AllocOptions {
                    stripe_size: 32 * 1024,
                    replicas: 2,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, &data).await.unwrap();

        let victim = region.desc().groups[0].replicas[0].node;
        FaultPlan::new(0x5C)
            .corrupt_at(Duration::from_millis(1), NodeId(victim), 16)
            .install(&fabric);

        // No client IO at all: detection must come from the scrub sweep.
        s.sleep(Duration::from_secs(2)).await;
        let m = fabric.metrics();
        assert!(m.counter("integrity.scrub_passes") >= 1);
        assert!(m.counter("integrity.scrub.mismatch") >= 1);
        assert!(m.counter("integrity.detected") >= 1);
        assert_eq!(m.counter("integrity.read_mismatch"), 0);

        // ...and repair still restores the region.
        let desc = c.lookup("swept").await.unwrap();
        assert_eq!(desc.state, RegionState::Healthy, "repair must complete");
        assert_eq!(region.read(0, size).await.unwrap(), data);
    });
}

#[test]
fn all_replicas_corrupt_surfaces_structured_error() {
    let cluster = boot(2, false);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 32 * 1024u64;
        let region = c
            .alloc(
                "fragile",
                size,
                AllocOptions {
                    stripe_size: 32 * 1024,
                    replicas: 1,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, &pattern(size as usize)).await.unwrap();

        let victim = region.desc().groups[0].replicas[0].node;
        FaultPlan::new(0xF1)
            .corrupt_at(Duration::from_millis(1), NodeId(victim), 8)
            .install(&fabric);
        s.sleep(Duration::from_millis(5)).await;

        // With no intact replica left, the read surfaces the damage instead
        // of returning wrong bytes.
        let err = region.read(0, size).await.err().unwrap();
        match err {
            RStoreError::CorruptionDetected { region, node, .. } => {
                assert_eq!(region, "fragile");
                assert_eq!(node, victim);
            }
            other => panic!("expected CorruptionDetected, got {other:?}"),
        }
    });
}

#[test]
fn kv_slot_corruption_storm_never_panics_clients() {
    // Adversarial property test for the slot codec: seeded random byte
    // flips — header words and payload alike — land on the live KV data
    // region between client ops. KV tables carry no stripe checksums (the
    // seqlock replaces them), so a flip that forges a structurally valid
    // slot may legally surface stale/garbage bytes; what must NEVER happen
    // is a client panic (e.g. a slice out of bounds on a forged klen/vlen)
    // or an unstructured error. Before the codec hardening, a flipped
    // length word panicked `parse_slot`.
    let cluster = boot(3, false);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let cfg = KvConfig {
            buckets: 64,
            slot_bytes: 128,
            max_probe: 16,
            opts: AllocOptions {
                stripe_size: 1024,
                replicas: 1,
                ..AllocOptions::default()
            },
        };
        let table = KvTable::create(&c, "storm", cfg).await.unwrap();
        let key = |i: u64| format!("storm{i:03}").into_bytes();
        for i in 0..48u64 {
            table.put(&key(i), &pattern(40)).await.unwrap();
        }

        // A raw mapping of the table's current-generation data region: the
        // very bytes every client op reads.
        let raw = c.map("storm@g1").await.unwrap();
        let size = 64 * 128u64;
        let mut rng = DetRng::new(0xAD5107);
        for _ in 0..120 {
            // Flip 1..=8 bytes somewhere in the live image.
            let mut junk = [0u8; 8];
            rng.fill_bytes(&mut junk);
            let n = rng.range_u64(1, 9) as usize;
            let off = rng.range_u64(0, size - n as u64);
            raw.write(off, &junk[..n]).await.unwrap();

            // A burst of ops right on top of the damage. Every outcome must
            // be a structured Result — the match below cannot catch a
            // panic, so merely completing the storm is the property.
            for _ in 0..4 {
                let k = key(rng.range_u64(0, 64));
                let outcome = match rng.range_u64(0, 4) {
                    0 => table.get(&k).await.map(|_| ()),
                    1 => table.put(&k, b"fresh").await,
                    2 => table.delete(&k).await.map(|_| ()),
                    _ => {
                        let ks = [&k[..], b"storm000", b"absent"];
                        table.multi_get(&ks).await.map(|_| ())
                    }
                };
                if let Err(e) = outcome {
                    assert!(
                        matches!(
                            e,
                            RStoreError::CorruptionDetected { .. }
                                | RStoreError::Protocol(_)
                                | RStoreError::Io(_)
                                | RStoreError::InsufficientCapacity { .. }
                        ),
                        "storm op must fail structurally, got {e:?}"
                    );
                }
            }
        }
        // The storm must actually have exercised the corruption path, not
        // just missed every slot.
        assert!(
            fabric.metrics().counter("kv.slot_corrupt") >= 1,
            "structural validation never fired; the storm was too gentle"
        );

        // The connection (device, QPs, mappings) survives: a fresh table on
        // the same client works end to end.
        let t2 = KvTable::create(&c, "after", cfg).await.unwrap();
        t2.put(b"alive", b"yes").await.unwrap();
        assert_eq!(
            t2.get(b"alive").await.unwrap().as_deref(),
            Some(&b"yes"[..])
        );
    });
}

#[test]
fn checksummed_random_reads_never_return_silent_garbage() {
    // The checksummed counterpart of the storm: with trailers on, a seeded
    // spray of at-rest flips means every subsequent read — random offset,
    // random length, stripe-spanning or not — must return either the exact
    // written bytes or a structured `CorruptionDetected`. Silent garbage is
    // the one forbidden outcome.
    let cluster = boot(2, false);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 64 * 1024u64;
        let model = pattern(size as usize);
        let region = c
            .alloc(
                "advck",
                size,
                AllocOptions {
                    stripe_size: 4096,
                    replicas: 1,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, &model).await.unwrap();

        let victim = region.desc().groups[0].replicas[0].node;
        FaultPlan::new(0xADC)
            .corrupt_at(Duration::from_millis(1), NodeId(victim), 48)
            .install(&fabric);
        s.sleep(Duration::from_millis(5)).await;
        assert_eq!(fabric.metrics().counter("integrity.injected"), 48);

        let mut rng = DetRng::new(0xADC2);
        let mut detected = 0u64;
        for _ in 0..200 {
            let off = rng.range_u64(0, size - 1);
            let len = rng.range_u64(1, (size - off).min(9000) + 1);
            match region.read(off, len).await {
                Ok(bytes) => assert_eq!(
                    bytes,
                    &model[off as usize..(off + len) as usize],
                    "verified read returned wrong bytes at {off}+{len}"
                ),
                Err(RStoreError::CorruptionDetected { region, .. }) => {
                    assert_eq!(region, "advck");
                    detected += 1;
                }
                Err(other) => panic!("expected clean data or CorruptionDetected, got {other:?}"),
            }
        }
        assert!(
            detected >= 1,
            "48 at-rest flips with one replica must trip at least one read"
        );
    });
}

#[test]
fn clean_cluster_reports_zero_corruption() {
    let cluster = boot(3, true);
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 128 * 1024u64;
        let data = pattern(size as usize);
        let region = c
            .alloc(
                "clean",
                size,
                AllocOptions {
                    stripe_size: 32 * 1024,
                    replicas: 2,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, &data).await.unwrap();
        for _ in 0..4 {
            s.sleep(Duration::from_millis(200)).await;
            assert_eq!(region.read(0, size).await.unwrap(), data);
        }
        // Several scrub passes over live traffic: zero false positives.
        let m = fabric.metrics();
        assert!(m.counter("integrity.scrub_passes") >= 4);
        assert_eq!(m.counter("integrity.injected"), 0);
        assert_eq!(m.counter("integrity.read_mismatch"), 0);
        assert_eq!(m.counter("integrity.scrub.mismatch"), 0);
        assert_eq!(m.counter("integrity.detected"), 0);
        assert_eq!(c.lookup("clean").await.unwrap().state, RegionState::Healthy);
    });
}
