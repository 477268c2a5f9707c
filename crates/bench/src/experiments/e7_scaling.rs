//! E7 — graph framework scaling and the full algorithm suite.
//!
//! Table A: PageRank per-superstep time vs worker count (strong scaling).
//! Table B: BFS / WCC / SSSP runtimes and superstep counts at 8 workers.
//!
//! Every run's output is checked bit for bit against the single-node
//! reference of its kernel.

use rgraph::{reference, GraphStore, Kernel, Outcome};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use workload::{rmat_graph, uniform_graph, CsrGraph};

use crate::report::Entry;
use crate::table::{fmt_dur, Table};

/// Runs E7: its two tables, and the assert that no vertex of any run
/// differs in any bit from the single-node reference.
pub fn entry() -> Entry {
    let (a, a_errors) = strong_scaling();
    let (b, b_errors) = algorithm_suite();
    let mut e = Entry::new(vec![a, b]);
    e.asserts.eq("data_errors", a_errors + b_errors, 0);
    e
}

/// Vertices whose value differs from `expect` in any bit.
fn errors(out: &Outcome, expect: &[u64]) -> u64 {
    let wrong = out.values.iter().zip(expect).filter(|(a, b)| a != b);
    (wrong.count() + out.values.len().abs_diff(expect.len())) as u64
}

/// A reference PageRank as the bits a run returns.
fn pagerank_bits(g: &CsrGraph, iters: usize) -> Vec<u64> {
    let ranks = reference::pagerank(g, iters, rgraph::DAMPING);
    ranks.into_iter().map(f64::to_bits).collect()
}

fn boot(workers: usize) -> Cluster {
    Cluster::boot(ClusterConfig {
        clients: workers,
        ..ClusterConfig::with_servers(8)
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
        let loader = RStoreClient::connect(&dev, master).await.expect("c");
        let opts = AllocOptions {
            stripe_size: 1 << 20,
            ..AllocOptions::default()
        };
        GraphStore::publish(&loader, &name, &g, opts)
            .await
            .expect("publish");
    });
}

fn strong_scaling() -> (Table, u64) {
    let mut t = Table::new(
        "E7a: PageRank superstep time vs workers (rmat-16, deg 24, 5 iters)",
        &["workers", "superstep mean", "total", "speedup"],
    );
    let g = rmat_graph(16, 24 * (1 << 16), 21);
    let expect = pagerank_bits(&g, 5);
    let (mut base, mut data_errors) = (0.0, 0);
    for &workers in &[2usize, 4, 8, 12] {
        let cluster = boot(workers);
        publish(&cluster, "e7", &g);
        let sim = cluster.sim.clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let out = sim.block_on(async move {
            let job = Kernel::PageRank { iters: 5 };
            rgraph::run(&devs, master, "e7", job, 0).await.expect("run")
        });
        data_errors += errors(&out, &expect);
        let mean = out.superstep_mean();
        if base == 0.0 {
            base = mean.as_secs_f64();
        }
        t.row(vec![
            workers.to_string(),
            fmt_dur(mean),
            fmt_dur(out.total),
            format!("{:.2}x", base / mean.as_secs_f64()),
        ]);
    }
    (t, data_errors)
}

fn algorithm_suite() -> (Table, u64) {
    let mut t = Table::new(
        "E7b: algorithm suite at 8 workers (uniform graph, 32k vertices, 256k edges)",
        &["algorithm", "supersteps", "total"],
    );
    let g = uniform_graph(1 << 15, 1 << 18, 33);
    let cluster = boot(8);
    publish(&cluster, "suite", &g);
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let jobs = [
        (
            "pagerank(5)",
            Kernel::PageRank { iters: 5 },
            0,
            pagerank_bits(&g, 5),
        ),
        ("bfs", Kernel::Bfs { src: 0 }, 0, reference::bfs(&g, 0)),
        ("wcc", Kernel::Wcc, 0, reference::wcc(&g)),
        ("sssp", Kernel::Sssp { src: 0 }, 1, reference::sssp(&g, 0)),
    ];
    let (rows, data_errors) = sim.block_on(async move {
        let (mut rows, mut data_errors) = (Vec::new(), 0);
        for (name, kernel, nonce, expect) in jobs {
            let out = rgraph::run(&devs, master, "suite", kernel, nonce)
                .await
                .expect(name);
            data_errors += errors(&out, &expect);
            rows.push((name.to_string(), out.supersteps, out.total));
        }
        (rows, data_errors)
    });
    for (name, steps, total) in rows {
        t.row(vec![name, steps.to_string(), fmt_dur(total)]);
    }
    t.note("every run here and in E7a is checked bit for bit against its single-node reference");
    (t, data_errors)
}
