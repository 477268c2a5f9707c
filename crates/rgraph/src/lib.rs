//! A distributed graph-processing framework built on RStore's memory-like
//! API — the first of the paper's two showcase applications.
//!
//! The graph (CSR arrays plus a double-buffered per-vertex value vector)
//! lives in named RStore regions striped across the cluster. One worker per
//! machine owns a contiguous vertex range. All coordination and data access
//! is one-sided. A job is one [`run`] of one [`Kernel`]:
//!
//! * **PageRank / WCC / SSSP** share one pull superstep body: each superstep
//!   gathers neighbour values with batched page-granular RDMA reads
//!   ([`worker::PageGather`], pages of [`worker::PAGE_BYTES`]).
//! * **BFS** pushes frontier discoveries straight into the owners' mailbox
//!   regions ([`worker::Mailboxes`]) — message passing without receiver CPU.
//! * Termination of the converging kernels is decided through a shared
//!   scoreboard region ([`worker::ConvBoard`]), not a coordinator.
//! * The workers run as one [`sim::sync::gang`]: the first to fail ends
//!   the job, and [`run`] returns that worker's error.
//!
//! Single-node [`mod@reference`] implementations verify every kernel.
//!
//! # Example
//!
//! ```rust
//! use rstore::{Cluster, ClusterConfig, AllocOptions};
//! use rgraph::{GraphStore, Kernel, reference};
//! use workload::uniform_graph;
//!
//! # fn main() -> rstore::Result<()> {
//! let cluster = Cluster::boot(ClusterConfig {
//!     clients: 2,
//!     ..ClusterConfig::with_servers(3)
//! })?;
//! let sim = cluster.sim.clone();
//! let g = uniform_graph(200, 1000, 42);
//! let expect = reference::pagerank(&g, 5, rgraph::DAMPING);
//! let ranks = sim.block_on(async move {
//!     let loader = cluster.client(0).await.unwrap();
//!     GraphStore::publish(&loader, "g", &g, AllocOptions::default())
//!         .await
//!         .unwrap();
//!     let job = Kernel::PageRank { iters: 5 };
//!     rgraph::run(&cluster.client_devs, cluster.master_node(), "g", job, 0)
//!         .await
//!         .unwrap()
//!         .ranks()
//! });
//! for (a, b) in ranks.iter().zip(&expect) {
//!     assert!((a - b).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

mod bfs;
mod job;
pub mod partition;
pub mod reference;
pub mod store;
pub mod worker;

pub use job::{run, Kernel, Outcome, DAMPING};
pub use partition::VertexPartition;
pub use store::GraphStore;

#[cfg(test)]
mod tests {
    use super::*;
    use rstore::{AllocOptions, Cluster, ClusterConfig};
    use workload::{rmat_graph, uniform_graph, CsrGraph};

    fn cluster(servers: usize, clients: usize) -> Cluster {
        Cluster::boot(ClusterConfig {
            clients,
            ..ClusterConfig::with_servers(servers)
        })
        .expect("boot")
    }

    fn publish(cluster: &Cluster, name: &str, g: &CsrGraph) {
        let sim = cluster.sim.clone();
        let dev = cluster.client_devs[0].clone();
        let master = cluster.master_node();
        let g = g.clone();
        let name = name.to_owned();
        sim.block_on(async move {
            let loader = rstore::RStoreClient::connect(&dev, master).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 64 * 1024,
                ..AllocOptions::default()
            };
            GraphStore::publish(&loader, &name, &g, opts).await.unwrap();
        });
    }

    #[test]
    fn distributed_pagerank_matches_reference() {
        let cl = cluster(3, 4);
        let g = uniform_graph(500, 3000, 7);
        publish(&cl, "pg", &g);
        let expect = reference::pagerank(&g, 8, 0.85);
        let sim = cl.sim.clone();
        let outcome = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move {
                let job = Kernel::PageRank { iters: 8 };
                run(&devs, master, "pg", job, 0).await.unwrap()
            }
        });
        assert_eq!(outcome.values.len(), 500);
        for (v, (a, b)) in outcome.ranks().iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "rank mismatch at {v}: {a} vs {b}");
        }
        assert_eq!(outcome.superstep_times.len(), 8);
        assert!(outcome.total > outcome.superstep_mean());
    }

    #[test]
    fn pagerank_on_skewed_rmat_graph() {
        let cl = cluster(4, 3);
        let g = rmat_graph(9, 4096, 3);
        publish(&cl, "rmat", &g);
        let expect = reference::pagerank(&g, 5, 0.85);
        let sim = cl.sim.clone();
        let ranks = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move {
                let job = Kernel::PageRank { iters: 5 };
                run(&devs, master, "rmat", job, 0).await.unwrap().ranks()
            }
        });
        for (a, b) in ranks.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn distributed_bfs_matches_reference() {
        let cl = cluster(3, 3);
        let g = uniform_graph(400, 2400, 9);
        publish(&cl, "bg", &g);
        let expect = reference::bfs(&g, 0);
        let sim = cl.sim.clone();
        let outcome = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move {
                run(&devs, master, "bg", Kernel::Bfs { src: 0 }, 0)
                    .await
                    .unwrap()
            }
        });
        assert_eq!(outcome.values, expect);
        assert!(outcome.supersteps > 0);
    }

    #[test]
    fn distributed_wcc_matches_reference() {
        let cl = cluster(3, 3);
        // Sparse graph: several components.
        let g = uniform_graph(300, 400, 4);
        publish(&cl, "wg", &g);
        let expect = reference::wcc(&g);
        let sim = cl.sim.clone();
        let outcome = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move { run(&devs, master, "wg", Kernel::Wcc, 0).await.unwrap() }
        });
        assert_eq!(outcome.values, expect);
    }

    #[test]
    fn distributed_sssp_matches_reference() {
        let cl = cluster(3, 3);
        let g = uniform_graph(300, 1800, 13);
        publish(&cl, "sg", &g);
        let expect = reference::sssp(&g, 5);
        let sim = cl.sim.clone();
        let outcome = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move {
                run(&devs, master, "sg", Kernel::Sssp { src: 5 }, 0)
                    .await
                    .unwrap()
            }
        });
        assert_eq!(outcome.values, expect);
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let cl = cluster(2, 1);
        let g = uniform_graph(100, 500, 21);
        publish(&cl, "solo", &g);
        let expect = reference::pagerank(&g, 4, 0.85);
        let sim = cl.sim.clone();
        let ranks = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move {
                let job = Kernel::PageRank { iters: 4 };
                run(&devs, master, "solo", job, 0).await.unwrap().ranks()
            }
        });
        for (a, b) in ranks.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn more_workers_than_vertices_is_fine() {
        let cl = cluster(2, 5);
        let g = uniform_graph(3, 6, 2);
        publish(&cl, "tiny", &g);
        let expect = reference::bfs(&g, 1);
        let sim = cl.sim.clone();
        let levels = sim.block_on({
            let devs = cl.client_devs.clone();
            let master = cl.master_node();
            async move {
                run(&devs, master, "tiny", Kernel::Bfs { src: 1 }, 0)
                    .await
                    .unwrap()
                    .values
            }
        });
        assert_eq!(levels, expect);
    }

    #[test]
    fn more_workers_speed_up_supersteps() {
        // Scaling sanity: the same PageRank with more workers should have
        // shorter supersteps (more parallel IO + compute).
        let g = rmat_graph(11, 16 * 1024, 5);
        let times: Vec<f64> = [2usize, 8]
            .iter()
            .map(|&workers| {
                let cl = cluster(4, workers);
                publish(&cl, "scale", &g);
                let sim = cl.sim.clone();
                let outcome = sim.block_on({
                    let devs = cl.client_devs.clone();
                    let master = cl.master_node();
                    async move {
                        let job = Kernel::PageRank { iters: 3 };
                        run(&devs, master, "scale", job, 0).await.unwrap()
                    }
                });
                outcome.superstep_mean().as_secs_f64()
            })
            .collect();
        assert!(
            times[1] < times[0] * 0.7,
            "8 workers ({:.6}s) should beat 2 workers ({:.6}s)",
            times[1],
            times[0]
        );
    }
}
