//! End-to-end sorting: correctness under varied worker counts, data
//! skews, and repeat runs.

use std::time::Duration;

use rdma::CqStatus;
use rsort::{distributed, SortConfig, SortMode};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient, RStoreError};
use workload::{is_sorted, record_key, teragen, RECORD_BYTES};

fn boot(workers: usize) -> Cluster {
    Cluster::boot(ClusterConfig {
        clients: workers,
        ..ClusterConfig::with_servers(3)
    })
    .expect("boot")
}

fn cfg(job: &str) -> SortConfig {
    SortConfig {
        job: job.into(),
        io_chunk: 256 * 1024,
        opts: AllocOptions {
            stripe_size: 512 * 1024,
            ..AllocOptions::default()
        },
        ..SortConfig::default()
    }
}

async fn sort_and_fetch(
    cluster: &Cluster,
    job: &str,
    input: &[u8],
) -> (Vec<u8>, rsort::SortOutcome) {
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let loader = RStoreClient::connect(&devs[0], master).await.expect("c");
    let cfg = cfg(job);
    distributed::load_input(&loader, &cfg, input)
        .await
        .expect("load");
    let outcome = distributed::run(&devs, master, cfg).await.expect("sort");
    let out = loader.map(&format!("{job}/output")).await.expect("map");
    let bytes = out.read(0, out.size()).await.expect("read").into_vec();
    (bytes, outcome)
}

#[test]
fn sorted_output_is_the_sorted_input() {
    let cluster = boot(5);
    let sim = cluster.sim.clone();
    let input = teragen(3_000, 77);
    let (output, outcome) = sim.block_on({
        let input = input.clone();
        async move { sort_and_fetch(&cluster, "s1", &input).await }
    });
    assert_eq!(outcome.records, 3_000);
    assert!(is_sorted(&output));
    // Exact multiset check: sort the input locally and compare bytes.
    let mut expect = input;
    workload::sort_records(&mut expect);
    assert_eq!(output, expect);
}

#[test]
fn skewed_keys_still_balance_and_sort() {
    // All keys share a common prefix: splitters must still divide the
    // space and the output must be correct.
    let cluster = boot(4);
    let sim = cluster.sim.clone();
    let mut input = teragen(2_000, 5);
    for i in 0..2_000 {
        input[i * RECORD_BYTES] = 0xAB; // collapse the leading byte
    }
    let (output, _) = sim.block_on({
        let input = input.clone();
        async move { sort_and_fetch(&cluster, "skew", &input).await }
    });
    assert!(is_sorted(&output));
    let mut expect = input;
    workload::sort_records(&mut expect);
    assert_eq!(output, expect);
}

#[test]
fn duplicate_keys_are_preserved() {
    let cluster = boot(3);
    let sim = cluster.sim.clone();
    let mut input = teragen(1_000, 9);
    // Make 100 records share one key.
    let key: Vec<u8> = record_key(&input, 0).to_vec();
    for i in 0..100 {
        input[i * RECORD_BYTES..i * RECORD_BYTES + key.len()].copy_from_slice(&key);
    }
    let (output, _) = sim.block_on({
        let input = input.clone();
        async move { sort_and_fetch(&cluster, "dup", &input).await }
    });
    assert!(is_sorted(&output));
    assert_eq!(output.len(), input.len());
    let dups = (0..1000)
        .filter(|&i| record_key(&output, i) == &key[..])
        .count();
    assert_eq!(dups, 100);
}

#[test]
fn two_jobs_back_to_back_are_independent() {
    let cluster = boot(4);
    let sim = cluster.sim.clone();
    sim.block_on(async move {
        let a = teragen(800, 1);
        let b = teragen(800, 2);
        let (out_a, _) = sort_and_fetch(&cluster, "job_a", &a).await;
        let (out_b, _) = sort_and_fetch(&cluster, "job_b", &b).await;
        assert!(is_sorted(&out_a));
        assert!(is_sorted(&out_b));
        assert_ne!(out_a, out_b);
    });
}

#[test]
fn fluid_mode_matches_paper_scaling_shape() {
    // Doubling the data roughly doubles the (virtual) time.
    let run = |gib: u64, job: &str| {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 4,
            fabric: fabric::FabricConfig::fluid(),
            ..ClusterConfig::with_servers(4)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let job = job.to_owned();
        sim.block_on(async move {
            let loader = RStoreClient::connect(&devs[0], master).await.expect("c");
            let cfg = SortConfig {
                mode: SortMode::Fluid,
                job,
                io_chunk: 16 << 20,
                opts: AllocOptions {
                    stripe_size: 16 << 20,
                    ..AllocOptions::default()
                },
            };
            distributed::create_fluid_input(&loader, &cfg, (gib << 30) / RECORD_BYTES as u64)
                .await
                .expect("input");
            distributed::run(&devs, master, cfg)
                .await
                .expect("sort")
                .total
                .as_secs_f64()
        })
    };
    let t2 = run(2, "f2");
    let t4 = run(4, "f4");
    let ratio = t4 / t2;
    assert!(
        (1.6..2.4).contains(&ratio),
        "expected ~2x for 2x data, got {ratio:.2}"
    );
}

#[test]
fn a_failed_sort_worker_fails_the_job_instead_of_stranding_the_rest() {
    // Unreplicated 4 MiB stripes over four servers, four workers, 16 MiB of
    // input: worker w's input slice lies on the w-th server (bar worker 3's
    // first record, read before the failure), and the small shared regions
    // (samples, splitters, counts) on the first. A little over 1 ms into
    // the sort, while the workers stream their slices, the third server
    // goes down for good. Worker 2 fails with the IO timeout; the others
    // finish the phase and must not wait at its barrier for it. The
    // cluster's heartbeats never let the simulation run dry, so a stranded
    // worker would leave the sort pending past the deadline instead of
    // returning.
    let records = (16 << 20) / RECORD_BYTES as u64;
    for mode in [SortMode::Real, SortMode::Fluid] {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 4,
            ..ClusterConfig::with_servers(4)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let cfg = SortConfig {
            job: "down".into(),
            io_chunk: 64 * 1024,
            mode,
            opts: AllocOptions {
                stripe_size: 4 << 20,
                ..AllocOptions::default()
            },
        };
        let loader = sim.block_on({
            let cfg = cfg.clone();
            async move {
                let loader = RStoreClient::connect(&devs[0], master).await.expect("c");
                match mode {
                    SortMode::Real => {
                        let input = teragen(records, 3);
                        distributed::load_input(&loader, &cfg, &input).await
                    }
                    SortMode::Fluid => {
                        distributed::create_fluid_input(&loader, &cfg, records).await
                    }
                }
                .expect("input");
                loader
            }
        });
        let devs = cluster.client_devs.clone();
        let job = sim.spawn(async move { distributed::run(&devs, master, cfg).await });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_millis(1)).await;
            let desc = loader.lookup("down/input").await.expect("lookup");
            let victim = fabric::NodeId(desc.groups[2].replicas[0].node);
            fabric.set_node_up(victim, false);
        });
        sim.run_until(sim.now() + Duration::from_secs(10));
        match job.try_result() {
            Some(Err(e)) => assert_eq!(e, RStoreError::Io(CqStatus::Timeout), "{mode:?}"),
            other => panic!("{mode:?}: expected the failing worker's error, got {other:?}"),
        }
    }
}
