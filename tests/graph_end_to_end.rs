//! End-to-end graph processing: publish once, run the whole algorithm suite
//! on the same cluster, and cross-check everything against single-node
//! references and the message-passing baseline.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rgraph::{
    bfs, pagerank, reference, sssp, wcc, BfsConfig, GraphStore, JacobiConfig, PageRankConfig,
};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use workload::rmat_graph;

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

    let expect_pr = reference::pagerank(&g, 4, 0.85);
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

        let pr = pagerank::run(
            &devs,
            master,
            "suite",
            PageRankConfig {
                iters: 4,
                ..PageRankConfig::default()
            },
        )
        .await
        .unwrap();
        assert_eq!(pr.ranks, expect_pr, "bit-for-bit the single-node ranks");

        let b = bfs::run(&devs, master, "suite", 3, BfsConfig::default())
            .await
            .unwrap();
        assert_eq!(b.levels, expect_bfs);

        let w = wcc::run(&devs, master, "suite", JacobiConfig::default())
            .await
            .unwrap();
        assert_eq!(w.values, expect_wcc);

        let s = sssp::run(
            &devs,
            master,
            "suite",
            3,
            JacobiConfig {
                job_nonce: 1,
                ..JacobiConfig::default()
            },
        )
        .await
        .unwrap();
        assert_eq!(s.values, expect_sssp);
    });
}

#[test]
fn a_gather_is_one_round_trip_and_one_wr_per_sixteen_pages_per_server() {
    // The communication cost of a superstep's gather, pinned in the op
    // ledger: every worker's gather is one `read_many` op of exactly one
    // round trip, ringing one doorbell per MAX_SGE pages per memory server.
    let (workers, iters, page_bytes, stripe) = (4u64, 3usize, 256u64, 8 * 1024u64);
    let cluster = Cluster::boot(ClusterConfig {
        clients: workers as usize,
        ..ClusterConfig::with_servers(4)
    })
    .expect("boot");
    let g = rmat_graph(12, 8 * 4096, 31); // 32 KiB vectors: 4 stripes, 128 pages
    let expect_pr = reference::pagerank(&g, iters, 0.85);
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
        let metrics = devs[0].metrics();
        metrics.reset();
        let cfg = PageRankConfig {
            iters,
            page_bytes,
            ..PageRankConfig::default()
        };
        let pr = pagerank::run(&devs, master, "pinned", cfg).await.unwrap();
        assert_eq!(pr.ranks, expect_pr, "bit-for-bit the single-node ranks");

        // What the gathers must have cost, from the graph and the placement
        // alone: worker w reads the pages its in-neighbours fall on, from
        // val_a on even supersteps and val_b on odd ones.
        let part = rgraph::VertexPartition::new(g.n, workers);
        let mut doorbells = 0u64;
        let mut pages_read = 0u64;
        for it in 0..iters {
            let vector = if it % 2 == 0 { "val_a" } else { "val_b" };
            let desc = loader.lookup(&format!("pinned/{vector}")).await.unwrap();
            for w in 0..workers {
                let (start, end) = part.range(w);
                let pages: BTreeSet<u64> = (start..end)
                    .flat_map(|v| g.in_neighbors(v))
                    .map(|u| u * 8 / page_bytes)
                    .collect();
                let mut per_server = BTreeMap::new();
                for page in &pages {
                    let group = (page * page_bytes / stripe) as usize;
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
        assert_eq!(gather.count, workers * iters as u64);
        assert_eq!(gather.units, pages_read);
        assert_eq!((gather.rtts_p50, gather.rtts_max), (1, 1));
        assert_eq!(gather.doorbells_total, doorbells);
        assert_eq!(gather.retries + gather.failovers, 0);
    });
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
        pagerank::run(
            &devs,
            master,
            "fast",
            PageRankConfig {
                iters: 3,
                ..PageRankConfig::default()
            },
        )
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
    let msg_total = sim.block_on(async move {
        baseline::msg_graph::run(
            &devs,
            g,
            baseline::msg_graph::MsgPageRankConfig {
                iters: 3,
                ..Default::default()
            },
        )
        .await
        .unwrap()
        .total
    });

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
