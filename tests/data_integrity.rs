//! End-to-end data integrity: at-rest corruption injection, checksummed
//! reads with failover, the background scrubber, and repair back to Healthy.

use std::time::Duration;

use fabric::{FaultPlan, NodeId};
use rdma::{CompletionQueue, RKey, RdmaDevice, RemoteAddr};
use rstore::{
    AllocOptions, Cluster, ClusterConfig, Extent, KvConfig, KvTable, MasterConfig, RStoreClient,
    RStoreError, RegionState, ServerConfig,
};
use sim::{DetRng, Metrics};

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
fn scrubber_redials_a_qp_a_flap_broke_and_still_finds_a_flip() {
    // The scrubber reads through its own data-QP dialer. A flap of a
    // replica's server across a sweep loses that sweep's READ to it, which
    // errors the scrubber's QP; the scrubber re-dials it through the
    // dialer's gate like any client, and its next sweep still finds the flip
    // planted once the server is back.
    let fast = ClusterConfig::fast_detection(3);
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        master: MasterConfig {
            scrub_interval: Duration::from_millis(50),
            ..fast.master.clone()
        },
        ..fast
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let size = 128 * 1024u64;
        let data = pattern(size as usize);
        let opts = AllocOptions {
            stripe_size: 32 * 1024,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("swept", size, opts).await.unwrap();
        region.write(0, &data).await.unwrap();
        let victim = NodeId(region.desc().groups[0].replicas[0].node);

        // A sweep has dialed every server; the next one starts 50 ms on.
        let m = fabric.metrics();
        while m.counter("integrity.scrub_passes") == 0 {
            s.sleep(Duration::from_micros(100)).await;
        }
        let dials = || {
            (
                m.counter("rstore.redial.attempts"),
                m.counter("rstore.redial.ok"),
            )
        };
        let before = dials();
        FaultPlan::new(0x5D)
            .flap(Duration::from_millis(45), victim, Duration::from_millis(20))
            .corrupt_at(Duration::from_millis(70), victim, 16)
            .install(&fabric);

        // No client IO at all: the detection is the scrubber's, and so is
        // every dial until then (the repair it hands over to dials copies).
        for _ in 0..500 {
            if m.counter("integrity.scrub.mismatch") > 0 {
                break;
            }
            s.sleep(Duration::from_millis(1)).await;
        }
        assert!(m.counter("integrity.detected") >= 1, "the flip is found");
        let after = dials();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (1, 1),
            "one re-dial"
        );
        assert_eq!(m.counter("integrity.read_mismatch"), 0);
        s.sleep(Duration::from_millis(200)).await;
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

// --- checksum blocks (DESIGN.md, "Checksum blocks") ---------------------------

const CK_BLOCK: u64 = rstore::crc::CK_BLOCK;

/// Flips the low bit of the byte at `offset` of `extent` at rest: a raw
/// one-sided READ and WRITE on a QP of the test's own, so no checksum is
/// kept up — what a DRAM fault does, at a chosen place. `offset` may lie in
/// the trailer (at or past `extent.len`).
async fn flip_at_rest(dev: &RdmaDevice, extent: &Extent, offset: u64) {
    let cq = CompletionQueue::new();
    let qp = dev
        .connect(NodeId(extent.node), rstore::DATA_SERVICE, &cq)
        .await
        .expect("raw data QP");
    let byte = dev.alloc(1).unwrap();
    let remote = RemoteAddr {
        addr: extent.addr + offset,
        rkey: RKey(extent.rkey),
    };
    qp.post_read(1, byte, remote).unwrap();
    assert_eq!(cq.next().await.status, rdma::CqStatus::Success);
    let was = dev.read_mem(byte.addr, 1).unwrap()[0];
    dev.write_mem(byte.addr, &[was ^ 1]).unwrap();
    qp.post_write(2, byte, remote).unwrap();
    assert_eq!(cq.next().await.status, rdma::CqStatus::Success);
    dev.free(byte).unwrap();
}

#[test]
fn a_flipped_block_or_entry_fails_only_the_reads_that_touch_it() {
    // An unreplicated 64 KiB stripe, sixteen checksum blocks. A bit flipped
    // at rest in block K — or in trailer entry K — is confined to it: reads
    // of the stripe's other blocks verify and return their bytes, a read
    // that touches K is `CorruptionDetected` (never wrong bytes), one scrub
    // sweep marks the extent, and a block-aligned overwrite of K — which
    // reads nothing — heals it.
    const K: u64 = 5;
    let stripe = 16 * CK_BLOCK;
    for (case, in_trailer) in [("data", false), ("entry", true)] {
        let cluster = boot(2, true);
        let sim = cluster.sim.clone();
        let metrics = cluster.fabric.metrics().clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let s = sim.clone();
        sim.block_on(async move {
            let c = RStoreClient::connect(&devs[0], master).await.unwrap();
            let opts = AllocOptions {
                stripe_size: stripe,
                checksums: true,
                ..AllocOptions::default()
            };
            let region = c.alloc("local", 2 * stripe, opts).await.unwrap();
            let mut model = pattern(2 * stripe as usize);
            region.write(0, &model).await.unwrap();

            let extent = region.desc().groups[0].replicas[0];
            let at = if in_trailer {
                stripe + 8 * K + 1
            } else {
                K * CK_BLOCK + 1234
            };
            flip_at_rest(&devs[0], &extent, at).await;

            // Every other block of the stripe, one by one and in runs up to
            // K's edges, byte for byte; and the other stripe.
            let expect = |offset: u64, len: u64| &model[offset as usize..(offset + len) as usize];
            for b in (0..16).filter(|&b| b != K) {
                let got = region.read(b * CK_BLOCK + 7, CK_BLOCK - 7).await;
                assert_eq!(
                    got.unwrap(),
                    expect(b * CK_BLOCK + 7, CK_BLOCK - 7),
                    "{case}"
                );
            }
            let (below, above) = (K * CK_BLOCK, (K + 1) * CK_BLOCK);
            assert_eq!(region.read(0, below).await.unwrap(), expect(0, below));
            let rest = 2 * stripe - above;
            assert_eq!(region.read(above, rest).await.unwrap(), expect(above, rest));
            assert_eq!(metrics.counter("integrity.read_mismatch"), 0, "{case}");

            // The scrubber needs no client read to find it: one sweep.
            assert_eq!(metrics.counter("integrity.scrub.mismatch"), 0, "{case}");
            let sweeps = metrics.counter("integrity.scrub_passes");
            while metrics.counter("integrity.scrub_passes") == sweeps {
                s.sleep(Duration::from_millis(10)).await;
            }
            assert_eq!(metrics.counter("integrity.scrub.mismatch"), 1, "{case}");
            assert_eq!(metrics.counter("integrity.detected"), 1, "{case}");

            // Anything that touches K — one byte of it, a range across it,
            // the whole stripe — is loud.
            for (offset, len) in [(below, 1), (above - 1, 1), (below - 10, 20), (0, stripe)] {
                match region.read(offset, len).await {
                    Err(RStoreError::CorruptionDetected { stripe: 0, .. }) => {}
                    other => panic!("{case}: read({offset}, {len}) = {other:?}"),
                }
            }
            // So is a write that would have to read K to re-seal it …
            let patch = vec![0xEEu8; 100];
            match region.write(below + 50, &patch).await {
                Err(RStoreError::CorruptionDetected { .. }) => {}
                other => panic!("{case}: partial write of the bad block = {other:?}"),
            }
            // … while an aligned overwrite reads nothing and heals it.
            let fresh = vec![0x5Au8; CK_BLOCK as usize];
            region.write(below, &fresh).await.unwrap();
            model[below as usize..above as usize].copy_from_slice(&fresh);
            assert_eq!(region.read(0, 2 * stripe).await.unwrap(), model, "{case}");
        });
    }
}

/// `(ops, round trips, doorbells, wire bytes)` the ledger has recorded for
/// `op`, and the bytes region IO has READ so far.
fn costs(m: &Metrics, op: &str) -> [u64; 5] {
    let scope = m.scoped("ops").scoped(op);
    let sum = |h: &str| scope.histogram(h).map_or(0, |h| h.sum());
    [
        scope.counter("count"),
        sum("rtts"),
        sum("doorbells"),
        sum("bytes"),
        m.counter("rstore.read_bytes"),
    ]
}

#[test]
fn a_sub_stripe_verified_io_moves_its_blocks_not_its_stripe() {
    // Ledger pins on a 64 KiB-stripe, 2-replica checksummed region: what a
    // 4 KiB IO costs is its block and the block's entry.
    let cluster = boot(3, false);
    let sim = cluster.sim.clone();
    sim.recorder().enable(sim::Level::Costs, 0);
    let metrics = cluster.fabric.metrics().clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let stripe = 16 * CK_BLOCK;
        let opts = AllocOptions {
            stripe_size: stripe,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("costs", 8 * stripe, opts).await.unwrap();
        let mut model = pattern(8 * stripe as usize);
        region.write(0, &model).await.unwrap();
        let delta = |before: [u64; 5], op: &str| {
            let after = costs(&metrics, op);
            std::array::from_fn::<u64, 5, _>(|i| after[i] - before[i])
        };

        // Aligned 4 KiB read: one WR of two elements to one replica.
        let before = costs(&metrics, "read_ck");
        let got = region.read(stripe + 3 * CK_BLOCK, CK_BLOCK).await.unwrap();
        assert_eq!(
            got,
            model[(stripe + 3 * CK_BLOCK) as usize..][..CK_BLOCK as usize]
        );
        let [ops, rtts, doorbells, wire, read] = delta(before, "read_ck");
        assert_eq!((ops, rtts, doorbells), (1, 1, 1), "aligned 4 KiB read");
        assert_eq!(read, CK_BLOCK + 8, "one block and its entry");
        assert!(wire < CK_BLOCK + 8 + 256, "{wire} B on the wire for 4 KiB");

        // Aligned 4 KiB write: sealed locally, one WR per replica, no READ.
        let before = costs(&metrics, "write_ck");
        let block = vec![0xB7u8; CK_BLOCK as usize];
        region
            .write(2 * stripe + 9 * CK_BLOCK, &block)
            .await
            .unwrap();
        model[(2 * stripe + 9 * CK_BLOCK) as usize..][..CK_BLOCK as usize].copy_from_slice(&block);
        let [ops, rtts, doorbells, wire, read] = delta(before, "write_ck");
        assert_eq!((ops, rtts, doorbells), (1, 1, 2), "aligned 4 KiB write");
        assert_eq!(read, 0, "an aligned write posts no READ");
        assert!(wire < 2 * (CK_BLOCK + 8 + 256), "{wire} B for 4 KiB x 2");

        // 100 bytes across a block boundary: the two boundary blocks are
        // fetched (verified) in one round trip, re-sealed, written back.
        let before = costs(&metrics, "write_ck");
        let patch = vec![0x11u8; 100];
        region.write(7 * CK_BLOCK - 50, &patch).await.unwrap();
        model[(7 * CK_BLOCK - 50) as usize..][..100].copy_from_slice(&patch);
        let [ops, rtts, _, wire, read] = delta(before, "write_ck");
        assert_eq!((ops, rtts), (1, 2), "unaligned write: fetch, then write");
        assert_eq!(read, 2 * (CK_BLOCK + 8), "exactly the two boundary blocks");
        assert!(wire < 3 * 2 * (CK_BLOCK + 8 + 256), "{wire} B");

        // A whole stripe still moves as one element: stripe + 16 entries.
        let before = costs(&metrics, "read_ck");
        region.read(3 * stripe, stripe).await.unwrap();
        let [_, rtts, doorbells, _, read] = delta(before, "read_ck");
        assert_eq!((rtts, doorbells, read), (1, 1, stripe + 16 * 8));

        // Eight stripes are one round each way: every frame is in flight at
        // once, one WR per frame and replica (the stripe window charged 8).
        let buf = devs[0].alloc(8 * stripe).unwrap();
        let before = costs(&metrics, "write_ck");
        let fresh = vec![0x3Cu8; 8 * stripe as usize];
        devs[0].write_mem(buf.addr, &fresh).unwrap();
        region.write_from(0, buf).await.unwrap();
        model.copy_from_slice(&fresh);
        let [ops, rtts, doorbells, _, read] = delta(before, "write_ck");
        assert_eq!(
            (ops, rtts, doorbells, read),
            (1, 1, 8 * 2, 0),
            "8-stripe write"
        );
        let before = costs(&metrics, "read_ck");
        region.read_into(0, buf).await.unwrap();
        let [ops, rtts, doorbells, _, read] = delta(before, "read_ck");
        assert_eq!((ops, rtts, doorbells), (1, 1, 8), "8-stripe read");
        assert_eq!(read, 8 * (stripe + 16 * 8));
        devs[0].free(buf).unwrap();

        assert_eq!(region.read(0, 8 * stripe).await.unwrap(), model);

        // Past 4 MiB of frame images a round ends, so staging stays bounded:
        // 80 frames of 64 KiB + 128 B are rounds of 63 and 17.
        let big = c.alloc("costs.big", 80 * stripe, opts).await.unwrap();
        let buf = devs[0].alloc(80 * stripe).unwrap();
        let fresh = pattern(80 * stripe as usize);
        devs[0].write_mem(buf.addr, &fresh).unwrap();
        let before = costs(&metrics, "write_ck");
        big.write_from(0, buf).await.unwrap();
        let [_, rtts, doorbells, _, _] = delta(before, "write_ck");
        assert_eq!((rtts, doorbells), (2, 80 * 2), "80-stripe write");
        devs[0].write_mem(buf.addr, &vec![0; fresh.len()]).unwrap();
        let before = costs(&metrics, "read_ck");
        big.read_into(0, buf).await.unwrap();
        let [_, rtts, doorbells, _, _] = delta(before, "read_ck");
        assert_eq!((rtts, doorbells), (2, 80), "80-stripe read");
        assert!(devs[0].read_mem(buf.addr, 80 * stripe).unwrap() == fresh);
        devs[0].free(buf).unwrap();
        assert_eq!(metrics.counter("integrity.read_mismatch"), 0);
    });
}

/// `(retries, failovers, verify failures)` the ledger has charged to `op`.
fn recovery(m: &Metrics, op: &str) -> [u64; 3] {
    let scope = m.scoped("ops").scoped(op);
    ["retries", "failovers", "verify_failures"].map(|c| scope.counter(c))
}

#[test]
fn one_read_round_recovers_a_corrupt_piece_and_an_errored_qp_together() {
    // One `read_into_many` of three pieces on a 2-replica, 3-server
    // checksummed region, each in a stripe of its own: A's primary holds a
    // block flipped at rest, B's primary sits behind an errored data QP, C
    // is clean. The one failover loop takes each its own way — A fails over
    // at once and is reported, B re-dials and reposts on its primary — and
    // every byte comes back. Then the two failures stacked on one piece: A's
    // corrupt primary fails over to a secondary behind the errored QP, which
    // cannot even post — a re-dial retry, not a second corrupt replica.
    for stacked in [false, true] {
        one_mixed_failure_round(stacked);
    }
}

fn one_mixed_failure_round(stacked: bool) {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::fast_detection(3)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let metrics = fabric.metrics().clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let s = sim.clone();
    sim.block_on(async move {
        let dev = &devs[0];
        let c = RStoreClient::connect(dev, master).await.unwrap();
        let stripe = 16 * CK_BLOCK;
        let opts = AllocOptions {
            stripe_size: stripe,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("mixed", 3 * stripe, opts).await.unwrap();
        let model = pattern(3 * stripe as usize);
        region.write(0, &model).await.unwrap();
        let desc = region.desc();
        let nodes = |g: usize| {
            desc.groups[g]
                .replicas
                .iter()
                .map(|x| x.node)
                .collect::<Vec<_>>()
        };
        // Stacked: A is B's stripe (other blocks) and the victim its
        // secondary, so B's primary stays healthy.
        let (b, victim) = (0, nodes(0)[stacked as usize]);
        let a = match stacked {
            true => b,
            false => (1..3)
                .find(|&g| !nodes(g).contains(&victim))
                .expect("a stripe away from B's primary"),
        };
        let clean = (1..3)
            .find(|&g| g != a && nodes(g)[0] != victim)
            .expect("C reads through a healthy QP");

        // The victim: a link flap, shorter than the lease, leaves the
        // client's data QP to it in the error state (an aligned block write
        // of the bytes already there cannot post on it).
        fabric.set_node_up(NodeId(victim), false);
        let block = &model[..CK_BLOCK as usize];
        let err = region.write(b as u64 * stripe, block).await.err().unwrap();
        assert!(matches!(err, RStoreError::Io(_)), "got {err:?}");
        fabric.set_node_up(NodeId(victim), true);
        // Past the re-dial backoff the failed write armed (1 ms).
        s.sleep(Duration::from_millis(5)).await;
        assert_eq!(desc, c.lookup("mixed").await.unwrap(), "placement held");
        // A: one block of its primary flipped at rest.
        flip_at_rest(dev, &desc.groups[a].replicas[0], 3 * CK_BLOCK + 5).await;

        s.recorder().enable(sim::Level::Costs, 0);
        let pieces = [
            (a as u64 * stripe + 3 * CK_BLOCK - 100, 300),
            (b as u64 * stripe + 1000, 5000),
            (clean as u64 * stripe + 7, 2 * CK_BLOCK),
        ];
        let buf = dev.alloc(pieces.iter().map(|p| p.1).sum()).unwrap();
        let mut at = 0;
        let ios: Vec<_> = pieces
            .iter()
            .map(|&(offset, len)| {
                at += len;
                (offset, buf.slice(at - len, len))
            })
            .collect();
        let mismatches = metrics.counter("integrity.read_mismatch");
        let redials = metrics.counter("rstore.redial.ok");
        let before = recovery(&metrics, "read_ck");
        region
            .read_into_many(&ios)
            .await
            .expect("every piece recovers");
        for (&(offset, len), &(_, dst)) in pieces.iter().zip(&ios) {
            let want = &model[offset as usize..(offset + len) as usize];
            assert!(dev.read_mem(dst.addr, len).unwrap() == want, "at {offset}");
        }
        let mismatched = metrics.counter("integrity.read_mismatch") - mismatches;
        assert_eq!(mismatched, 1, "stacked {stacked}");
        assert_eq!(metrics.counter("rstore.redial.ok"), redials + 1);
        let after = recovery(&metrics, "read_ck");
        let charged: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
        // The repost after the re-dial (B's, or stacked A's on its
        // secondary) is the retry, A's advance the failover.
        assert_eq!(
            charged,
            [1, 1, 1],
            "stacked {stacked}: (retries, failovers, verify failures)"
        );
        // The report runs in the background: exactly one, against A.
        s.sleep(Duration::from_millis(5)).await;
        let reports = metrics.histogram("rstore.ctrl_latency.report_corruption");
        assert_eq!(reports.map_or(0, |h| h.len()), 1);
        dev.free(buf).unwrap();
    });
}

#[test]
fn an_exhausted_verified_read_surfaces_the_error_that_explains_it() {
    // Every replica corrupt: `CorruptionDetected`, naming the last replica
    // that failed verification.
    let cluster = boot(3, false);
    let sim = cluster.sim.clone();
    let metrics = cluster.fabric.metrics().clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let opts = AllocOptions {
            stripe_size: 16 * CK_BLOCK,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("ruined", 32 * CK_BLOCK, opts).await.unwrap();
        region
            .write(0, &pattern(32 * CK_BLOCK as usize))
            .await
            .unwrap();
        let group = region.desc().groups[1].clone();
        for extent in &group.replicas {
            flip_at_rest(&devs[0], extent, 2 * CK_BLOCK).await;
        }
        match region.read(18 * CK_BLOCK, 10).await {
            Err(RStoreError::CorruptionDetected { node, stripe, .. }) => {
                assert_eq!((node, stripe), (group.replicas[1].node, 1));
            }
            other => panic!("expected CorruptionDetected, got {other:?}"),
        }
        assert_eq!(metrics.counter("integrity.read_mismatch"), 2);
    });

    // A primary drained away under the reader's cached descriptor (it
    // refuses the rkey) and a corrupt secondary: the refusal outranks the
    // mismatch, so the read re-fetches the descriptor and returns the moved
    // primary's bytes instead of reporting the region corrupt.
    let cluster = boot(3, false);
    let sim = cluster.sim.clone();
    let metrics = cluster.fabric.metrics().clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let opts = AllocOptions {
            stripe_size: 16 * CK_BLOCK,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("moved", 16 * CK_BLOCK, opts).await.unwrap();
        let model = pattern(16 * CK_BLOCK as usize);
        region.write(0, &model).await.unwrap();
        let [primary, secondary] = [0, 1].map(|r| region.desc().groups[0].replicas[r]);
        flip_at_rest(&devs[0], &secondary, 5 * CK_BLOCK).await;
        c.drain(NodeId(primary.node)).await.unwrap();
        let got = region.read(4 * CK_BLOCK, 2 * CK_BLOCK).await;
        assert_eq!(
            got.unwrap(),
            model[4 * CK_BLOCK as usize..6 * CK_BLOCK as usize]
        );
        assert_eq!(
            metrics.counter("integrity.read_mismatch"),
            1,
            "the secondary"
        );
        assert!(metrics.counter("rstore.desc.refresh") >= 1);
    });
}

/// One seeded script of unaligned reads and writes against a 2-replica
/// checksummed region of `stripe`-byte stripes, checked against a host
/// shadow as it goes.
fn run_block_script(stripe: u64) {
    let cluster = boot(3, false);
    let sim = cluster.sim.clone();
    sim.recorder().enable(sim::Level::Costs, 0);
    let metrics = cluster.fabric.metrics().clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let dev = &devs[0];
        let c = RStoreClient::connect(dev, master).await.unwrap();
        // Four whole stripes and a half one, so the last stripe (and, at
        // 6 KiB, every stripe) ends in a short block.
        let size = 4 * stripe + stripe / 2;
        let opts = AllocOptions {
            stripe_size: stripe,
            replicas: 2,
            checksums: true,
            ..AllocOptions::default()
        };
        let region = c.alloc("script", size, opts).await.unwrap();
        let mut shadow = vec![0u8; size as usize];
        // A never-written region verifies clean and reads as zeros.
        assert_eq!(region.read(0, size).await.unwrap(), shadow);

        let mut rng = DetRng::new(0xB10C ^ stripe);
        let buf = dev.alloc(2 * CK_BLOCK).unwrap();
        for step in 0..240u32 {
            // A range: anywhere, or hugging a block / stripe boundary.
            let (offset, len) = match rng.index(4) {
                0 => {
                    let unit = if rng.chance(0.5) { CK_BLOCK } else { stripe };
                    let edge = rng.range_u64(0, size / unit + 1) * unit;
                    (
                        edge.saturating_sub(rng.range_u64(0, 100)),
                        rng.range_u64(0, 200),
                    )
                }
                1 => (rng.range_u64(0, size + 1), rng.range_u64(0, 2 * CK_BLOCK)),
                2 => (rng.range_u64(0, size + 1), rng.range_u64(0, 5 * stripe / 2)),
                _ => (rng.range_u64(0, size / 64) * 64, rng.range_u64(0, 64) * 64),
            };
            let len = len.min(size - offset.min(size));
            let offset = offset.min(size);
            let range = offset as usize..(offset + len) as usize;
            match step % 5 {
                0 | 1 => {
                    let mut data = vec![0u8; len as usize];
                    rng.fill_bytes(&mut data);
                    region.write(offset, &data).await.unwrap();
                    shadow[range].copy_from_slice(&data);
                }
                2 | 3 => {
                    let got = region.read(offset, len).await.unwrap();
                    assert_eq!(got, shadow[range], "step {step}: read({offset}, {len})");
                }
                _ => {
                    // Two pairs of one `write_from_many` in one stripe: in
                    // the same block, or (when it has two) in different ones.
                    // Each covers its block in part, so a round is a fetch
                    // and a write: pairs in different blocks are one round,
                    // pairs in one block two (the second must see the first).
                    let base = rng.range_u64(0, 4) * stripe;
                    let blocks = stripe.div_ceil(CK_BLOCK);
                    let (b0, b1) = (rng.range_u64(0, blocks), rng.range_u64(0, blocks));
                    let mut ios = Vec::new();
                    for (i, b) in [b0, b1].into_iter().enumerate() {
                        // Disjoint halves of a (possibly short) block, so
                        // sharing one is well defined.
                        let span = CK_BLOCK.min(stripe - b * CK_BLOCK) / 2;
                        let at = base + b * CK_BLOCK + i as u64 * span;
                        let at = at + rng.range_u64(0, span / 2);
                        let len = rng.range_u64(1, span / 2);
                        let mut data = vec![0u8; len as usize];
                        rng.fill_bytes(&mut data);
                        let src = buf.slice(i as u64 * CK_BLOCK, len);
                        dev.write_mem(src.addr, &data).unwrap();
                        shadow[at as usize..(at + len) as usize].copy_from_slice(&data);
                        ios.push((at, src));
                    }
                    let rtts = costs(&metrics, "write_ck")[1];
                    region.write_from_many(&ios).await.unwrap();
                    let rounds = if b0 == b1 { 2 } else { 1 };
                    let rtts = costs(&metrics, "write_ck")[1] - rtts;
                    assert_eq!(rtts, 2 * rounds, "step {step}: blocks {b0} and {b1}");
                }
            }
        }
        assert_eq!(
            region.read(0, size).await.unwrap(),
            shadow,
            "stripe {stripe}"
        );
        assert_eq!(metrics.counter("integrity.read_mismatch"), 0);
    })
}

#[test]
fn random_unaligned_io_matches_a_shadow_at_every_stripe_size() {
    // 1 KiB stripes are one short block each (the single-CRC layout), 6 KiB
    // stripes a whole block and a 2 KiB one, 64 KiB stripes sixteen blocks.
    for stripe in [1 << 10, 6 << 10, 64 << 10] {
        run_block_script(stripe);
    }
}
