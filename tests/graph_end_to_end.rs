//! End-to-end graph processing: publish once, run the whole algorithm suite
//! on the same cluster, and cross-check everything against single-node
//! references and the message-passing baseline.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use rdma::CqStatus;
use rgraph::worker::PAGE_BYTES;
use rgraph::{reference, GraphStore, Kernel};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient, RStoreError};
use workload::{rmat_graph, CsrGraph};

#[test]
fn full_suite_on_one_published_graph() {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 6,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let g = rmat_graph(10, 8 * 1024, 77);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();

    let expect_pr = reference::pagerank(&g, 4, rgraph::DAMPING);
    let expect_bfs = reference::bfs(&g, 3);
    let expect_wcc = reference::wcc(&g);
    let expect_sssp = reference::sssp(&g, 3);

    let g2 = g.clone();
    sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
        GraphStore::publish(
            &loader,
            "suite",
            &g2,
            AllocOptions {
                stripe_size: 256 * 1024,
                ..AllocOptions::default()
            },
        )
        .await
        .unwrap();

        let pr = rgraph::run(&devs, master, "suite", Kernel::PageRank { iters: 4 }, 0)
            .await
            .unwrap();
        assert_eq!(pr.ranks(), expect_pr, "bit-for-bit the single-node ranks");

        let b = rgraph::run(&devs, master, "suite", Kernel::Bfs { src: 3 }, 0)
            .await
            .unwrap();
        assert_eq!(b.values, expect_bfs);

        let w = rgraph::run(&devs, master, "suite", Kernel::Wcc, 0)
            .await
            .unwrap();
        assert_eq!(w.values, expect_wcc);

        let s = rgraph::run(&devs, master, "suite", Kernel::Sssp { src: 3 }, 1)
            .await
            .unwrap();
        assert_eq!(s.values, expect_sssp);
    });
}

/// WCC's supersteps, from the graph alone: synchronous min-label rounds
/// over both edge directions, up to and including the first that changes
/// nothing.
fn wcc_supersteps(g: &CsrGraph) -> usize {
    let mut labels: Vec<u64> = (0..g.n).collect();
    for step in 1.. {
        let next: Vec<u64> = (0..g.n)
            .map(|v| {
                let nbrs = g.in_neighbors(v).iter().chain(g.out_neighbors(v));
                nbrs.fold(labels[v as usize], |best, &u| best.min(labels[u as usize]))
            })
            .collect();
        if next == labels {
            return step;
        }
        labels = next;
    }
    unreachable!()
}

#[test]
fn a_gather_is_one_round_trip_and_one_wr_per_sixteen_pages_per_server() {
    // The communication cost of a superstep's gather, pinned in the op
    // ledger for both pull kernels: every worker's gather is one
    // `read_many` op of exactly one round trip, ringing one doorbell per
    // MAX_SGE pages per memory server. PageRank gathers the pages its
    // in-neighbours fall on; WCC those of its in- and out-neighbours.
    let (workers, iters, stripe) = (4u64, 3usize, 64 * 1024u64);
    let cluster = Cluster::boot(ClusterConfig {
        clients: workers as usize,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let g = rmat_graph(16, 4 << 16, 31); // 512 KiB vectors: 8 stripes, 128 pages
    let sim = cluster.sim.clone();
    sim.recorder().enable(sim::Level::Costs, 0);
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
        let opts = AllocOptions {
            stripe_size: stripe,
            ..AllocOptions::default()
        };
        GraphStore::publish(&loader, "pinned", &g, opts)
            .await
            .unwrap();
        let part = rgraph::VertexPartition::new(g.n, workers);
        let pagerank = Kernel::PageRank { iters };
        let pr_bits = reference::pagerank(&g, iters, rgraph::DAMPING);
        let pr_bits: Vec<u64> = pr_bits.into_iter().map(f64::to_bits).collect();
        let runs = [
            (pagerank, iters, pr_bits),
            (Kernel::Wcc, wcc_supersteps(&g), reference::wcc(&g)),
        ];
        for (kernel, supersteps, expect) in runs {
            let metrics = devs[0].metrics();
            metrics.reset();
            let out = rgraph::run(&devs, master, "pinned", kernel, 0)
                .await
                .unwrap();
            assert_eq!(out.values, expect, "{kernel:?}: bit-for-bit the reference");
            assert_eq!(out.supersteps, supersteps, "{kernel:?}");

            // What the gathers must have cost, from the graph and the
            // placement alone: worker w reads the pages its neighbours fall
            // on, from val_a on even supersteps and val_b on odd ones.
            let mut doorbells = 0u64;
            let mut pages_read = 0u64;
            for step in 0..supersteps {
                let vector = if step % 2 == 0 { "val_a" } else { "val_b" };
                let desc = loader.lookup(&format!("pinned/{vector}")).await.unwrap();
                for w in 0..workers {
                    let (start, end) = part.range(w);
                    let pages: BTreeSet<u64> = (start..end)
                        .flat_map(|v| {
                            let outs = match kernel {
                                Kernel::Wcc => g.out_neighbors(v),
                                _ => &[],
                            };
                            g.in_neighbors(v).iter().chain(outs)
                        })
                        .map(|u| u * 8 / PAGE_BYTES)
                        .collect();
                    let mut per_server = BTreeMap::new();
                    for page in &pages {
                        let group = (page * PAGE_BYTES / stripe) as usize;
                        *per_server
                            .entry(desc.groups[group].replicas[0].node)
                            .or_insert(0u64) += 1;
                    }
                    assert!(per_server.values().any(|&n| n > rdma::MAX_SGE as u64));
                    doorbells += per_server
                        .values()
                        .map(|n| n.div_ceil(rdma::MAX_SGE as u64))
                        .sum::<u64>();
                    pages_read += pages.len() as u64;
                }
            }
            let ops = sim::ledger::summarize(&metrics);
            let gather = ops.iter().find(|s| s.op == "read_many").expect("gathers");
            assert_eq!(gather.count, workers * supersteps as u64, "{kernel:?}");
            assert_eq!(gather.units, pages_read, "{kernel:?}");
            assert_eq!((gather.rtts_p50, gather.rtts_max), (1, 1), "{kernel:?}");
            assert_eq!(gather.doorbells_total, doorbells, "{kernel:?}");
            assert_eq!(gather.retries + gather.failovers, 0, "{kernel:?}");
        }
    });
}

#[test]
fn a_failed_worker_fails_the_job_instead_of_stranding_the_rest() {
    // Unreplicated 4 KiB stripes over four servers, four workers. A little
    // over 1 ms into the job one server goes down for good. The workers
    // that touch it fail with the IO timeout; the rest must not wait at the
    // superstep barrier for them. The cluster's heartbeats never let the
    // simulation run dry, so a stranded worker would leave the job pending
    // past the deadline instead of returning.
    //
    // The victims: for PageRank, the server of `val_a`'s first page; for
    // WCC, of its third (the first shares its server with WCC's convergence
    // board, which every worker reads, so every worker would fail); for
    // BFS, the server of worker 0's mailbox for worker 1. Every region
    // starts its stripes on the same server, so every mailbox and the board
    // are there, and every BFS worker fails — that case covers the push
    // loop's error path, not a strand. The fourth case (`None`) is the
    // message-passing baseline: on a path only worker 2 sends to worker 3,
    // so downing worker 3's node fails worker 2's RPC while the others wait
    // at the superstep barrier.
    let n = 2048u64;
    let path: Vec<(u64, u64)> = (1..n).map(|v| (v - 1, v)).collect();
    let g = CsrGraph::from_edges(n, &path); // thousands of supersteps to converge
    let jobs = [
        (Some(Kernel::PageRank { iters: 400 }), "line/val_a", 0),
        (Some(Kernel::Wcc), "line/val_a", 2),
        (Some(Kernel::Bfs { src: 0 }), "line/bfs0_0/mbox_0_1", 0),
        (None, "", 0),
    ];
    for (kernel, victim_region, group) in jobs {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 4,
            ..ClusterConfig::with_servers(4)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let line = Rc::new(g.clone());
        let g = g.clone();
        let loader = sim.block_on(async move {
            let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 4096,
                ..AllocOptions::default()
            };
            GraphStore::publish(&loader, "line", &g, opts)
                .await
                .unwrap();
            loader
        });
        let devs = cluster.client_devs.clone();
        let last = devs[3].node();
        let job = sim.spawn(async move {
            match kernel {
                Some(kernel) => rgraph::run(&devs, master, "line", kernel, 0)
                    .await
                    .map(drop),
                None => baseline::msg_graph::run(&devs, line, 400).await.map(drop),
            }
        });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_millis(1)).await;
            let victim = match kernel {
                Some(_) => {
                    let desc = loader.lookup(victim_region).await.unwrap();
                    fabric::NodeId(desc.groups[group].replicas[0].node)
                }
                None => last,
            };
            fabric.set_node_up(victim, false);
        });
        sim.run_until(sim.now() + Duration::from_secs(10));
        match job.try_result() {
            Some(Err(e)) => assert_eq!(e, RStoreError::Io(CqStatus::Timeout), "{kernel:?}"),
            other => panic!("{kernel:?}: expected the failing worker's error, got {other:?}"),
        }
    }
}

#[test]
fn rstore_framework_beats_message_passing_on_powerlaw() {
    // The E6 effect as a regression test: at least 2x on a power-law graph.
    let g = rmat_graph(11, 16 * 2048, 5);

    let cluster = Cluster::boot(ClusterConfig {
        clients: 8,
        ..ClusterConfig::with_servers(8)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let g2 = g.clone();
    let rstore_total = sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
        GraphStore::publish(&loader, "fast", &g2, AllocOptions::default())
            .await
            .unwrap();
        rgraph::run(&devs, master, "fast", Kernel::PageRank { iters: 3 }, 0)
            .await
            .unwrap()
            .total
    });

    let sim = sim::Sim::new();
    let fabric = fabric::Fabric::new(sim.clone(), fabric::FabricConfig::default());
    let devs: Vec<rdma::RdmaDevice> = (0..8)
        .map(|_| rdma::RdmaDevice::new(&fabric, rdma::RdmaConfig::default()))
        .collect();
    let g = Rc::new(g);
    let msg_total =
        sim.block_on(async move { baseline::msg_graph::run(&devs, g, 3).await.unwrap().total });

    let speedup = msg_total.as_secs_f64() / rstore_total.as_secs_f64();
    assert!(
        speedup > 2.0,
        "expected >2x on power-law graphs, got {speedup:.2}x"
    );
}

#[test]
fn graph_survives_reopen_from_new_client() {
    // Publish with one client; a completely fresh client on another machine
    // opens by name and reads consistent structure.
    let cluster = Cluster::boot(ClusterConfig {
        clients: 2,
        ..ClusterConfig::with_servers(3)
    })
    .expect("boot");
    let g = rmat_graph(8, 1024, 13);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let (n, m) = (g.n, g.m());
    sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
        GraphStore::publish(&loader, "persisted", &g, AllocOptions::default())
            .await
            .unwrap();

        let other = RStoreClient::connect(&devs[1], master).await.unwrap();
        let store = GraphStore::open(&other, "persisted").await.unwrap();
        assert_eq!((store.n, store.m), (n, m));
        let xadj = store.read_u64s(&other, "out_xadj", 0, n + 1).await.unwrap();
        assert_eq!(xadj[0], 0);
        assert_eq!(*xadj.last().unwrap(), m);
        assert!(xadj.windows(2).all(|w| w[0] <= w[1]));
    });
}
