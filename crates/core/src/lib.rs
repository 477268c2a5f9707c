//! **RStore** — a direct-access DRAM-based data store (ICDCS 2015),
//! reproduced over a simulated RDMA fabric.
//!
//! RStore extends RDMA's *separation philosophy* — do all resource setup up
//! front so the IO path is lean — to a distributed setting:
//!
//! * A **master** ([`Master`]) owns the namespace and placement. It is only
//!   ever involved in setup (allocate / map / free).
//! * **Memory servers** ([`MemServer`]) donate DRAM. After registering their
//!   memory, their CPUs are idle: all data access is one-sided RDMA executed
//!   by their NICs.
//! * **Clients** ([`RStoreClient`]) allocate and map named [`Region`]s of
//!   distributed memory, then read and write them like memory — with
//!   striping across servers for aggregate bandwidth, optional replication
//!   and checksums, and batched IO that posts many ranges in one round.
//!
//! # Quickstart
//!
//! ```rust
//! use rstore::{AllocOptions, Cluster, ClusterConfig};
//!
//! # fn main() -> Result<(), rstore::RStoreError> {
//! let cluster = Cluster::boot(ClusterConfig::with_servers(4))?;
//! let sim = cluster.sim.clone();
//! let out = sim.block_on(async move {
//!     let client = cluster.client(0).await.unwrap();
//!     let region = client
//!         .alloc("demo", 1 << 20, AllocOptions::default())
//!         .await
//!         .unwrap();
//!     region.write(4096, b"distributed DRAM").await.unwrap();
//!     region.read(4096, 16).await.unwrap()
//! });
//! assert_eq!(out, b"distributed DRAM");
//! # Ok(())
//! # }
//! ```
//!
//! # Crate layout
//!
//! | module | role |
//! |---|---|
//! | [`master`] | namespace, server registry, leases, placement |
//! | [`server`] | memory donation, extent allocation, heartbeats |
//! | [`client`] | control-path calls, connection cache, completion routing |
//! | [`region`] | the memory-like data path: striped one-sided IO |
//! | [`layout`] | stripe math |
//! | [`proto`] | control-plane wire format: one field list per message, one typed reply per request, errors as values |
//! | [`crc`] | CRC32C used by checksummed stripes and the scrubber |
//! | [`rpc`] | two-sided RPC, and the one channel every call goes through |
//! | [`cluster`] | one-call bootstrap for tests and benchmarks |
//! | [`kv`] | a key-value facade over regions (one-sided GET, CAS-locked PUT) |

pub mod client;
pub mod cluster;
pub mod crc;
pub mod error;
pub mod kv;
pub mod layout;
pub mod master;
pub mod proto;
pub mod region;
pub mod rpc;
pub mod server;
mod stats;

pub use client::{ClientConfig, RStoreClient};
pub use cluster::{Cluster, ClusterConfig};
pub use error::{RStoreError, Result};
pub use kv::{KvConfig, KvTable};
pub use master::{Master, MasterConfig};
pub use proto::{
    AllocOptions, ClusterReport, ClusterStats, Extent, Policy, RegionDesc, RegionState,
    RegionStats, ServerStats,
};
pub use region::Region;
pub use server::{MemServer, ServerConfig};

/// Service id of the master's control RPC endpoint.
pub const CTRL_SERVICE: u16 = 1;
/// Service id of the memory servers' extent-allocation endpoint.
pub const SRV_SERVICE: u16 = 2;
/// Service id of the memory servers' data-path (one-sided) endpoint.
pub const DATA_SERVICE: u16 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use rdma::DmaBuf;
    use std::time::Duration;

    fn boot(n: usize) -> Cluster {
        Cluster::boot(ClusterConfig::with_servers(n)).expect("boot")
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        let out = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let region = client
                .alloc("r", 1 << 20, AllocOptions::default())
                .await
                .unwrap();
            let data: Vec<u8> = (0..255u8).collect();
            region.write(1000, &data).await.unwrap();
            region.read(1000, 255).await.unwrap()
        });
        assert_eq!(out, (0..255u8).collect::<Vec<_>>());
    }

    #[test]
    fn io_spanning_stripes_is_correct() {
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        let ok = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 4096,
                ..AllocOptions::default()
            };
            let region = client.alloc("striped", 64 * 1024, opts).await.unwrap();
            // Write a pattern across many stripe boundaries.
            let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7 % 251) as u8).collect();
            region.write(100, &data).await.unwrap();
            let back = region.read(100, 40_000).await.unwrap();
            back == data
        });
        assert!(ok);
        // With 4 KiB stripes over 4 servers, the region must touch them all.
    }

    #[test]
    fn region_striped_across_all_servers() {
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        let nodes = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 1024,
                ..AllocOptions::default()
            };
            let region = client.alloc("spread", 16 * 1024, opts).await.unwrap();
            let mut nodes: Vec<u32> = region
                .desc()
                .groups
                .iter()
                .flat_map(|g| g.replicas.iter().map(|x| x.node))
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes.len()
        });
        assert_eq!(nodes, 4, "round-robin must use every server");
    }

    #[test]
    fn map_from_second_client_sees_data() {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 2,
            ..ClusterConfig::with_servers(3)
        })
        .unwrap();
        let sim = cluster.sim.clone();
        let out = sim.block_on(async move {
            let c0 = cluster.client(0).await.unwrap();
            let c1 = cluster.client(1).await.unwrap();
            let r0 = c0
                .alloc("shared", 1 << 16, AllocOptions::default())
                .await
                .unwrap();
            r0.write(0, b"written by c0").await.unwrap();
            let r1 = c1.map("shared").await.unwrap();
            r1.read(0, 13).await.unwrap()
        });
        assert_eq!(out, b"written by c0");
    }

    #[test]
    fn alloc_duplicate_name_fails() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let err = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            client
                .alloc("dup", 4096, AllocOptions::default())
                .await
                .unwrap();
            client
                .alloc("dup", 4096, AllocOptions::default())
                .await
                .err()
                .unwrap()
        });
        assert_eq!(err, RStoreError::NameExists("dup".into()));
    }

    #[test]
    fn map_unknown_name_fails() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let err = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            client.map("ghost").await.err().unwrap()
        });
        assert_eq!(err, RStoreError::NotFound("ghost".into()));
    }

    #[test]
    fn remote_errors_carry_the_exact_name_whatever_it_says() {
        // An error crosses the wire as a value, not as its message: a name
        // that reads like another error, or holds a quote, changes nothing.
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let (looked_up, mapped) = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let looked_up = client.lookup("jobs already exists").await.err().unwrap();
            (looked_up, client.map("a\"b").await.err().unwrap())
        });
        assert_eq!(
            looked_up,
            RStoreError::NotFound("jobs already exists".into())
        );
        assert_eq!(mapped, RStoreError::NotFound("a\"b".into()));
    }

    #[test]
    fn free_reclaims_capacity() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let master = cluster.master.clone();
        let (used_before, used_mid, used_after) = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let before = master.local_stats().used;
            client
                .alloc("tmp", 1 << 20, AllocOptions::default())
                .await
                .unwrap();
            let mid = master.local_stats().used;
            client.free("tmp").await.unwrap();
            let after = master.local_stats().used;
            (before, mid, after)
        });
        assert_eq!(used_before, 0);
        assert_eq!(used_mid, 1 << 20);
        assert_eq!(used_after, 0);
    }

    #[test]
    fn alloc_beyond_capacity_fails_cleanly() {
        let cluster = Cluster::boot(ClusterConfig {
            server: ServerConfig {
                donate: 1 << 20,
                ..ServerConfig::default()
            },
            ..ClusterConfig::with_servers(2)
        })
        .unwrap();
        let sim = cluster.sim.clone();
        let err = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            client
                .alloc("big", 1 << 30, AllocOptions::default())
                .await
                .err()
                .unwrap()
        });
        assert!(matches!(err, RStoreError::InsufficientCapacity { .. }));
    }

    #[test]
    fn replicated_region_survives_server_failure() {
        let cluster = boot(3);
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        let victim = cluster.servers[0].node();
        let out = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let opts = AllocOptions {
                replicas: 2,
                stripe_size: 4096,
                ..AllocOptions::default()
            };
            let region = client.alloc("ha", 32 * 1024, opts).await.unwrap();
            region.write(0, b"replicated payload").await.unwrap();
            // Kill one memory server; reads must fail over to replicas.
            fabric.set_node_up(victim, false);
            region.read(0, 18).await.unwrap()
        });
        assert_eq!(out, b"replicated payload");
    }

    #[test]
    fn unreplicated_region_degrades_on_failure() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        let victim = cluster.servers[0].node();
        let master_cfg_lease = MasterConfig::default().lease;
        let err = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let region = client
                .alloc("frail", 64 * 1024, AllocOptions::default())
                .await
                .unwrap();
            region.write(0, b"x").await.unwrap();
            fabric.set_node_up(victim, false);
            // Wait out the lease so the master notices.
            region.client().shared.sim.sleep(master_cfg_lease * 3).await;
            client.map("frail").await.err().unwrap()
        });
        assert_eq!(err, RStoreError::Degraded("frail".into()));
    }

    #[test]
    fn write_from_many_is_one_round_and_one_doorbell_per_server() {
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let dev = client.device().clone();
            let opts = AllocOptions {
                stripe_size: 64 * 1024,
                ..AllocOptions::default()
            };
            let region = client.alloc("pipe", 1 << 20, opts).await.unwrap();
            // Eight 64 KiB writes, one posting round.
            let buf = dev.alloc(8 * 64 * 1024).unwrap();
            let ios: Vec<(u64, DmaBuf)> = (0..8u64)
                .map(|i| (i * 64 * 1024, buf.slice(i * 64 * 1024, 64 * 1024)))
                .collect();
            for (i, (_, src)) in ios.iter().enumerate() {
                dev.write_mem(src.addr, &vec![i as u8; 64 * 1024]).unwrap();
            }
            let metrics = dev.metrics();
            metrics.reset();
            region.write_from_many(&ios).await.unwrap();
            let ops = sim::ledger::summarize(&metrics);
            assert_eq!(ops.len(), 1, "one write_many op recorded: {ops:?}");
            let op = &ops[0];
            assert_eq!((op.op.as_str(), op.count, op.units), ("write_many", 1, 8));
            assert_eq!((op.rtts_p50, op.rtts_max), (1, 1), "one round trip");
            let servers: std::collections::BTreeSet<u32> = region.desc().groups[..8]
                .iter()
                .map(|g| g.replicas[0].node)
                .collect();
            assert_eq!(op.doorbells_max, servers.len() as u64);
            assert_eq!(op.retries + op.failovers, 0);
            for i in 0..8u64 {
                let back = region.read(i * 64 * 1024 + 100, 4).await.unwrap();
                assert_eq!(back, vec![i as u8; 4]);
            }
            dev.free(buf).unwrap();
        });
    }

    #[test]
    fn out_of_range_io_rejected() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let (err, many_errs, doorbells) = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let region = client
                .alloc("small", 4096, AllocOptions::default())
                .await
                .unwrap();
            let err = region.read(4000, 200).await.err().unwrap();
            // Every pair of a multi-read or multi-write is planned before
            // anything posts, on a checksummed region too: a bad last pair
            // rings no doorbell.
            let opts = AllocOptions {
                checksums: true,
                ..AllocOptions::default()
            };
            let ck = client.alloc("small_ck", 4096, opts).await.unwrap();
            let dev = client.device();
            let buf = dev.alloc(256).unwrap();
            let rung = dev.metrics().counter("rdma.doorbells");
            let ios = [(0, buf.slice(0, 128)), (4000, buf.slice(128, 128))];
            let many_errs = [
                ck.read_into_many(&ios).await.err().unwrap(),
                ck.write_from_many(&ios).await.err().unwrap(),
                region.write_from_many(&ios).await.err().unwrap(),
            ];
            (
                err,
                many_errs,
                dev.metrics().counter("rdma.doorbells") - rung,
            )
        });
        assert!(matches!(err, RStoreError::OutOfRange { .. }));
        for many_err in many_errs {
            assert!(matches!(many_err, RStoreError::OutOfRange { .. }));
        }
        assert_eq!(doorbells, 0, "a planned-out multi-IO must post nothing");
    }

    #[test]
    fn synthetic_region_moves_no_bytes_but_times_io() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let (elapsed, len) = sim.block_on({
            let sim = sim.clone();
            async move {
                let client = cluster.client(0).await.unwrap();
                let opts = AllocOptions {
                    synthetic: true,
                    stripe_size: 16 * 1024 * 1024,
                    ..AllocOptions::default()
                };
                let len = 256u64 << 20;
                let region = client.alloc("fluid", len, opts).await.unwrap();
                let dev = client.device().clone();
                let buf = dev.alloc_synthetic(len).unwrap();
                let t0 = sim.now();
                region.write_from(0, buf).await.unwrap();
                ((sim.now() - t0).as_secs_f64(), len)
            }
        });
        let gbps = len as f64 * 8.0 / elapsed / 1e9;
        // One client pushing to 2 servers: bottleneck is the client's tx
        // link at 54.3 Gb/s.
        assert!(gbps > 40.0 && gbps < 56.0, "got {gbps:.1} Gb/s");
    }

    #[test]
    fn stats_reflect_cluster() {
        let cluster = boot(3);
        let sim = cluster.sim.clone();
        let stats = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            client
                .alloc("s", 1 << 20, AllocOptions::default())
                .await
                .unwrap();
            client.stats().await.unwrap()
        });
        assert_eq!(stats.servers, 3);
        assert_eq!(stats.regions, 1);
        assert_eq!(stats.used, 1 << 20);
    }

    #[test]
    fn cluster_report_tracks_liveness_and_region_health() {
        let cluster = boot(3);
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        let victim = cluster.servers[0].node();
        let lease = MasterConfig::default().lease;
        let (before, after) = sim.block_on({
            let sim = sim.clone();
            async move {
                let client = cluster.client(0).await.unwrap();
                client
                    .alloc("watched", 1 << 20, AllocOptions::default())
                    .await
                    .unwrap();
                let before = client.cluster_stats().await.unwrap();
                fabric.set_node_up(victim, false);
                // Wait out the lease so the master marks the server dead.
                sim.sleep(lease * 3).await;
                let after = client.cluster_stats().await.unwrap();
                (before, after)
            }
        });

        assert_eq!(before.servers.len(), 3);
        assert!(before.servers.iter().all(|s| s.alive));
        assert_eq!(before.servers.iter().map(|s| s.used).sum::<u64>(), 1 << 20);
        assert_eq!(before.regions.len(), 1);
        assert_eq!(before.regions[0].name, "watched");
        assert_eq!(before.regions[0].state, RegionState::Healthy);
        assert_eq!(before.regions[0].corrupt_extents, 0);
        assert_eq!(before.corruption_detected, 0);

        // The dead server is still listed (capacity intact) but not alive,
        // and every region striped across it reports Degraded.
        assert_eq!(after.servers.len(), 3);
        let dead = after.servers.iter().find(|s| s.node == victim.0).unwrap();
        assert!(!dead.alive);
        assert_eq!(after.regions[0].state, RegionState::Degraded);
    }

    #[test]
    fn control_path_is_paid_once_not_per_io() {
        // The core claim of the paper in miniature: after map(), a thousand
        // small IOs never touch the master. We verify by killing the master
        // and watching IO continue to work.
        let cluster = boot(3);
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        let master_node = cluster.master_node();
        let ok = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let region = client
                .alloc("autonomy", 1 << 20, AllocOptions::default())
                .await
                .unwrap();
            fabric.set_node_up(master_node, false);
            for i in 0..50u64 {
                region.write(i * 128, &[i as u8; 64]).await.unwrap();
            }
            let back = region.read(49 * 128, 64).await.unwrap();
            back == vec![49u8; 64]
        });
        assert!(ok, "data path must not depend on the master");
    }

    #[test]
    fn grow_extends_region_preserving_data() {
        let cluster = boot(3);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 64 * 1024,
                ..AllocOptions::default()
            };
            let region = client.alloc("growing", 128 * 1024, opts).await.unwrap();
            region.write(0, b"before-grow").await.unwrap();
            region.write(128 * 1024 - 8, b"tail-old").await.unwrap();

            // Old handle cannot reach past the original size.
            assert!(region.read(128 * 1024, 8).await.is_err());

            let bigger = client.grow("growing", 256 * 1024, opts).await.unwrap();
            assert_eq!(bigger.size(), 384 * 1024);
            // Old data intact through the new handle.
            assert_eq!(bigger.read(0, 11).await.unwrap(), b"before-grow");
            assert_eq!(bigger.read(128 * 1024 - 8, 8).await.unwrap(), b"tail-old");
            // New range is writable, spanning the old/new boundary.
            bigger
                .write(128 * 1024 - 4, b"straddles-the-boundary")
                .await
                .unwrap();
            assert_eq!(
                bigger.read(128 * 1024 - 4, 22).await.unwrap(),
                b"straddles-the-boundary"
            );
            // Old handle still serves the old range.
            assert_eq!(region.read(0, 11).await.unwrap(), b"before-grow");
            // Capacity accounting includes the growth.
            assert_eq!(client.stats().await.unwrap().used, 384 * 1024);
        });
    }

    #[test]
    fn grow_unknown_region_fails() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let err = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            client
                .grow("nothing", 4096, AllocOptions::default())
                .await
                .err()
                .unwrap()
        });
        assert_eq!(err, RStoreError::NotFound("nothing".into()));
    }

    #[test]
    fn grow_then_free_reclaims_everything() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            client
                .alloc("tmp_grow", 64 * 1024, AllocOptions::default())
                .await
                .unwrap();
            client
                .grow("tmp_grow", 192 * 1024, AllocOptions::default())
                .await
                .unwrap();
            client.free("tmp_grow").await.unwrap();
            assert_eq!(client.stats().await.unwrap().used, 0);
        });
    }

    #[test]
    fn trace_spans_cover_control_and_data_path() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        let rec = sim.recorder();
        rec.enable(sim::Level::Off, 4096);
        let metrics = sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let region = client
                .alloc("traced", 1 << 16, AllocOptions::default())
                .await
                .unwrap();
            region.write(0, b"abc").await.unwrap();
            region.read(0, 3).await.unwrap();
            client.device().metrics().clone()
        });
        let names: Vec<&str> = rec.events().iter().map(|e| e.name).collect();
        for expected in ["rstore.ctrl.alloc", "rstore.write", "rstore.read"] {
            assert!(names.contains(&expected), "missing span {expected}");
        }
        let alloc_lat = metrics.histogram("rstore.ctrl_latency.alloc").unwrap();
        assert_eq!(alloc_lat.len(), 1);
        assert!(alloc_lat.min() > 0, "control RPC must take virtual time");
        // The data-path spans must enclose their constituent WR completions.
        let read_span = rec
            .events()
            .iter()
            .find(|e| e.name == "rstore.read")
            .copied()
            .unwrap();
        assert!(read_span.dur.unwrap_or(0) > 0);
    }

    #[test]
    fn many_small_reads_have_low_latency() {
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        let mean_us = sim.block_on({
            let sim = sim.clone();
            async move {
                let client = cluster.client(0).await.unwrap();
                let region = client
                    .alloc("lat", 1 << 20, AllocOptions::default())
                    .await
                    .unwrap();
                let dev = client.device().clone();
                let buf = dev.alloc(64).unwrap();
                let mut total = Duration::ZERO;
                let n = 100;
                for i in 0..n {
                    let t0 = sim.now();
                    region.read_into((i * 64) % (1 << 20), buf).await.unwrap();
                    total += sim.now() - t0;
                }
                total.as_micros() as f64 / n as f64
            }
        });
        assert!(
            mean_us < 5.0,
            "small striped reads should stay close to hardware latency, got {mean_us:.2}us"
        );
        let _ = DmaBuf { addr: 0, len: 0 };
    }
}
