//! The Key-Value sorter end to end: a real sort, verified, and its fluid
//! twin compared phase by phase; then a paper-scale fluid run against the
//! Hadoop TeraSort model.
//!
//! ```text
//! cargo run -p integration --release --example terasort
//! ```

use baseline::hadoop::{terasort_time, HadoopConfig};
use fabric::FabricConfig;
use rsort::{distributed, twin, SortConfig, SortMode};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
use workload::RECORD_BYTES;

fn main() -> rstore::Result<()> {
    // --- part 1: 20 MB sorted for real, then its fluid twin -----------------
    let cluster = ClusterConfig {
        clients: 8,
        fabric: FabricConfig::fluid(),
        ..ClusterConfig::with_servers(4)
    };
    let cfg = SortConfig {
        opts: AllocOptions {
            stripe_size: 1 << 20,
            ..AllocOptions::default()
        },
        ..SortConfig::default()
    };
    let t = twin(&cluster, &cfg, 200_000)?; // 20 MB of 100-byte records
    println!(
        "real sort: {} records, output is the sorted input = {}",
        t.real.records, t.verified
    );
    for ((phase, real, fluid), (_, gap)) in t.phases().into_iter().zip(t.gaps()) {
        println!(
            "  {phase:<10} real {:>9.3} ms   fluid twin {:>9.3} ms   gap {:.3}%",
            real as f64 / 1e6,
            fluid as f64 / 1e6,
            gap * 100.0
        );
    }
    assert!(t.verified && t.agrees());

    // --- part 2: 64 GiB fluid run vs Hadoop model ---------------------------
    let gib = 64u64;
    let cluster = Cluster::boot(ClusterConfig {
        clients: 12,
        fabric: FabricConfig::fluid(),
        ..ClusterConfig::with_servers(12)
    })?;
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let outcome = sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await?;
        let cfg = SortConfig {
            mode: SortMode::Fluid,
            io_chunk: 64 << 20,
            opts: AllocOptions {
                stripe_size: 64 << 20,
                ..AllocOptions::default()
            },
            ..SortConfig::default()
        };
        distributed::create_fluid_input(&loader, &cfg, (gib << 30) / RECORD_BYTES as u64).await?;
        distributed::run(&devs, master, cfg).await
    })?;
    let hadoop = terasort_time(&HadoopConfig::default(), gib << 30);
    println!(
        "rsort  {gib} GiB on 12 machines: {:.1}s  (partition {:.1}s, shuffle {:.1}s, sort {:.1}s)",
        outcome.total.as_secs_f64(),
        outcome.phases.partition.as_secs_f64(),
        outcome.phases.shuffle.as_secs_f64(),
        outcome.phases.local_sort.as_secs_f64(),
    );
    println!(
        "hadoop {gib} GiB on 12 nodes   : {:.1}s  -> rsort is {:.1}x faster",
        hadoop.total().as_secs_f64(),
        hadoop.total().as_secs_f64() / outcome.total.as_secs_f64()
    );
    Ok(())
}
