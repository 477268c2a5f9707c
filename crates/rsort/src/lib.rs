//! A distributed Key-Value sorter on RStore — the paper's second showcase
//! application (TeraSort-style: 10-byte keys, 100-byte records).
//!
//! The sorter showcases what RStore's one-sided, memory-like API buys a data
//! pipeline: after splitter agreement, the entire shuffle is RDMA writes to
//! *final* output locations — there is no receiving CPU, no re-spooling, no
//! framework between a worker and remote DRAM. See [`distributed`] for the
//! phase structure, [`plan`] for the routing math and [`twin`] for how a
//! fluid (sizes-only) run is tied to a real one.
//!
//! One worker body serves both modes: a real run sorts real records, a
//! fluid run sorts the sizes of `teragen(n, FLUID_SEED)` through the same
//! sample, splitter round, counts exchange and shuffle plan, computing the
//! keys and counts that a real run would observe.
//!
//! # Example
//!
//! ```rust
//! use rstore::{Cluster, ClusterConfig};
//! use rsort::{distributed, SortConfig};
//!
//! # fn main() -> rstore::Result<()> {
//! let cluster = Cluster::boot(ClusterConfig {
//!     clients: 2,
//!     ..ClusterConfig::with_servers(3)
//! })?;
//! let sim = cluster.sim.clone();
//! let sorted = sim.block_on(async move {
//!     let loader = cluster.client(0).await.unwrap();
//!     let cfg = SortConfig::default();
//!     let input = workload::teragen(1000, 7);
//!     distributed::load_input(&loader, &cfg, &input).await.unwrap();
//!     distributed::run(&cluster.client_devs, cluster.master_node(), cfg.clone())
//!         .await
//!         .unwrap();
//!     let out = loader.map("sort/output").await.unwrap();
//!     let bytes = out.read(0, out.size()).await.unwrap();
//!     workload::is_sorted(&bytes)
//! });
//! assert!(sorted);
//! # Ok(())
//! # }
//! ```

pub mod distributed;
pub mod plan;
pub mod twin;

pub use distributed::{
    create_fluid_input, load_input, run, PhaseTimes, SortConfig, SortCostModel, SortMode,
    SortOutcome, FLUID_SEED,
};
pub use plan::{choose_splitters, dest_of, partition_records, uniform_counts, Key, ShufflePlan};
pub use twin::{twin, Twin, TWIN_TOLERANCE};

#[cfg(test)]
mod tests {
    use super::*;
    use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
    use workload::{is_sorted, teragen, RECORD_BYTES};

    fn cluster(servers: usize, clients: usize) -> Cluster {
        Cluster::boot(ClusterConfig {
            clients,
            ..ClusterConfig::with_servers(servers)
        })
        .expect("boot")
    }

    /// Order-independent multiset fingerprint of the records in a buffer.
    fn fingerprint(buf: &[u8]) -> u128 {
        buf.chunks_exact(RECORD_BYTES)
            .map(|rec| {
                let mut h = 0xcbf29ce484222325u128;
                for &b in rec {
                    h = (h ^ b as u128).wrapping_mul(0x100000001b3);
                }
                h
            })
            .fold(0u128, |acc, h| acc.wrapping_add(h))
    }

    /// Sorts `teragen(records, seed)`: the input, the output, the outcome
    /// and the splitters the workers published.
    fn run_real_sort(
        workers: usize,
        records: u64,
        seed: u64,
    ) -> (Vec<u8>, Vec<u8>, SortOutcome, Vec<Key>) {
        let cl = cluster(3, workers);
        let sim = cl.sim.clone();
        let devs = cl.client_devs.clone();
        let master = cl.master_node();
        sim.block_on(async move {
            let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
            let cfg = SortConfig {
                io_chunk: 64 * 1024,
                opts: AllocOptions {
                    stripe_size: 256 * 1024,
                    ..AllocOptions::default()
                },
                ..SortConfig::default()
            };
            let input = teragen(records, seed);
            distributed::load_input(&loader, &cfg, &input)
                .await
                .unwrap();
            let outcome = distributed::run(&devs, master, cfg).await.unwrap();
            let out = loader.map("sort/output").await.unwrap();
            let bytes = out.read(0, out.size()).await.unwrap();
            let s = loader.map("sort/splitters").await.unwrap();
            let splitters = s.read(0, s.size()).await.unwrap();
            let splitters = splitters
                .chunks_exact(workload::KEY_BYTES)
                .map(|c| c.try_into().unwrap())
                .collect();
            (input, bytes, outcome, splitters)
        })
    }

    #[test]
    fn sorts_correctly_with_multiple_workers() {
        let (input, output, outcome, _) = run_real_sort(4, 2000, 11);
        assert_eq!(output.len(), input.len());
        assert!(is_sorted(&output), "output must be globally sorted");
        assert_eq!(
            fingerprint(&input),
            fingerprint(&output),
            "output must be a permutation of the input"
        );
        assert_eq!(outcome.records, 2000);
        assert!(outcome.phases.total() <= outcome.total);
    }

    #[test]
    fn single_worker_sort_works() {
        let (_, output, outcome, _) = run_real_sort(1, 500, 3);
        assert!(is_sorted(&output));
        assert_eq!(outcome.records, 500);
    }

    #[test]
    fn skewed_worker_counts_handle_remainders() {
        // 7 workers over 1001 records: uneven slices everywhere, and each
        // worker samples fewer keys than `sample_per_worker`.
        let (input, output, _, splitters) = run_real_sort(7, 1001, 23);
        assert!(is_sorted(&output));
        assert_eq!(fingerprint(&input), fingerprint(&output));
        // Only written sample keys may become splitters: zero padding in
        // the sample would give empty partitions and overloaded ones.
        let k = 7;
        assert_eq!(splitters.len(), k - 1);
        let mut sizes = vec![0u64; k];
        for rec in output.chunks_exact(RECORD_BYTES) {
            sizes[dest_of(&rec[..workload::KEY_BYTES], &splitters)] += 1;
        }
        let mean = 1001 / k as u64;
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every worker sorts: {sizes:?}"
        );
        assert!(
            sizes.iter().all(|&s| s <= 2 * mean),
            "no partition over 2x the mean: {sizes:?}"
        );
    }

    #[test]
    fn fluid_sort_reports_paper_scale_timing() {
        // 1 GB fluid sort on 4 workers: no data moves, but the phase times
        // must be consistent with link bandwidth.
        let cl = cluster(4, 4);
        let sim = cl.sim.clone();
        let devs = cl.client_devs.clone();
        let master = cl.master_node();
        let outcome = sim.block_on(async move {
            let loader = RStoreClient::connect(&devs[0], master).await.unwrap();
            let cfg = SortConfig {
                mode: SortMode::Fluid,
                job: "fsort".into(),
                opts: AllocOptions {
                    stripe_size: 16 * 1024 * 1024,
                    ..AllocOptions::default()
                },
                ..SortConfig::default()
            };
            let records = (1u64 << 30) / RECORD_BYTES as u64;
            distributed::create_fluid_input(&loader, &cfg, records)
                .await
                .unwrap();
            distributed::run(&devs, master, cfg).await.unwrap()
        });
        let gb = 1.0f64;
        let secs = outcome.total.as_secs_f64();
        // 4 workers with ~6.8 GB/s links: a 1 GB end-to-end sort (read +
        // shuffle + sort + write) should take a fraction of a second but
        // clearly more than a single pass at aggregate bandwidth.
        assert!(secs > gb / (4.0 * 6.79) / 4.0, "too fast: {secs}s");
        assert!(secs < 3.0, "too slow: {secs}s");
        assert!(outcome.phases.shuffle > std::time::Duration::ZERO);
        assert!(outcome.phases.local_sort > outcome.phases.sample);
    }

    #[test]
    fn fluid_and_real_twins_agree_per_phase() {
        // 16 MiB on 4 workers and 4 servers: the fluid twin of a verified
        // real sort takes the same time in every phase, within E8's
        // tolerance.
        let cluster = ClusterConfig {
            clients: 4,
            fabric: fabric::FabricConfig::fluid(),
            ..ClusterConfig::with_servers(4)
        };
        let cfg = SortConfig {
            io_chunk: 1 << 20,
            opts: AllocOptions {
                stripe_size: 1 << 20,
                ..AllocOptions::default()
            },
            ..SortConfig::default()
        };
        let t = twin(&cluster, &cfg, (16 << 20) / RECORD_BYTES as u64).unwrap();
        assert!(t.verified, "the real run sorts its input exactly");
        for (phase, gap) in t.gaps() {
            assert!(gap <= TWIN_TOLERANCE, "{phase}: gap {gap:.4} ({t:?})");
        }
    }
}
