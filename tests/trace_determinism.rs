//! Trace exports must be deterministic: two identically-seeded cluster runs
//! produce byte-identical Chrome trace logs.

use bench::json::validate;
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};

fn boot(servers: usize, clients: usize) -> Cluster {
    Cluster::boot(ClusterConfig {
        clients,
        ..ClusterConfig::with_servers(servers)
    })
    .expect("boot")
}

/// One traced lifecycle: alloc, cross-client map, writes, reads, free.
fn traced_run() -> String {
    let cluster = boot(3, 2);
    let sim = cluster.sim.clone();
    let rec = sim.recorder();
    rec.enable(sim::Level::Off, 1 << 15);
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let a = RStoreClient::connect(&devs[0], master).await.unwrap();
        let b = RStoreClient::connect(&devs[1], master).await.unwrap();
        let region = a
            .alloc(
                "det",
                1 << 20,
                AllocOptions {
                    stripe_size: 64 * 1024,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        region.write(0, &vec![7u8; 128 * 1024]).await.unwrap();
        let view = b.map("det").await.unwrap();
        assert_eq!(view.read(0, 16).await.unwrap(), vec![7u8; 16]);
        view.write(512 * 1024, b"second client").await.unwrap();
        region.read(512 * 1024, 13).await.unwrap();
        a.free("det").await.unwrap();
    });
    rec.export_chrome_trace()
}

#[test]
fn seeded_runs_trace_identically() {
    let first = traced_run();
    let second = traced_run();
    assert_eq!(first, second, "traces must be bit-for-bit reproducible");
}

#[test]
fn trace_export_is_valid_chrome_json() {
    let trace = traced_run();
    validate(&trace).expect("export must be well-formed JSON");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"displayTimeUnit\": \"ns\""));
    // Spans from every instrumented layer are present.
    for name in [
        "fabric.tx",
        "fabric.rx",
        "rdma.wr.read",
        "rdma.wr.write",
        "rstore.ctrl.alloc",
        "rstore.ctrl.lookup",
        "rstore.ctrl.free",
        "rstore.read",
        "rstore.write",
    ] {
        assert!(trace.contains(name), "trace must contain {name} events");
    }
}

/// A trace ring smaller than the workload must overflow loudly: the evicted
/// count surfaces as the `trace.evicted` metrics counter when published, so
/// a truncated export is never mistaken for a complete one.
#[test]
fn trace_ring_overflow_is_surfaced_in_metrics() {
    let cluster = boot(3, 1);
    let sim = cluster.sim.clone();
    let metrics = cluster.fabric.metrics().clone();
    let rec = sim.recorder();
    rec.enable(sim::Level::Off, 8); // far fewer slots than a lifecycle emits
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let c = RStoreClient::connect(&devs[0], master).await.unwrap();
        let r = c
            .alloc("ov", 1 << 20, AllocOptions::default())
            .await
            .unwrap();
        r.write(0, &vec![3u8; 256 * 1024]).await.unwrap();
        r.read(0, 256 * 1024).await.unwrap();
        c.free("ov").await.unwrap();
    });
    rec.publish_evicted(&metrics);
    assert!(
        metrics.counter("trace.evicted") > 0,
        "an overflowed ring must be visible in the metrics namespace"
    );
    // Publishing is delta-tracked: a second publish with no new evictions
    // must not double-count.
    let count = metrics.counter("trace.evicted");
    rec.publish_evicted(&metrics);
    assert_eq!(metrics.counter("trace.evicted"), count);
}

/// The elasticity experiment (E15: join, drain, live migration) must be
/// deterministic end to end: two full runs produce byte-identical exports —
/// sampled windows, per-op ledgers, drain accounting and all.
#[test]
fn e15_elasticity_export_is_byte_identical_across_runs() {
    let a = bench::report::experiment("e15").1.render();
    let b = bench::report::experiment("e15").1.render();
    assert_eq!(a, b, "E15 export must be bit-for-bit reproducible");
    validate(&a).expect("E15 export must be well-formed JSON");
}

/// Same for the raw-speed experiment (E16: scatter-gather, inline writes):
/// its doorbell/posting counts are design invariants, so the export must
/// not wander between runs.
#[test]
fn e16_rawspeed_export_is_byte_identical_across_runs() {
    let a = bench::report::experiment("e16").1.render();
    let b = bench::report::experiment("e16").1.render();
    assert_eq!(a, b, "E16 export must be bit-for-bit reproducible");
    validate(&a).expect("E16 export must be well-formed JSON");
}

#[test]
fn metrics_are_deterministic_across_runs() {
    let run = || {
        let cluster = boot(3, 1);
        let sim = cluster.sim.clone();
        let metrics = cluster.fabric.metrics().clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        sim.block_on(async move {
            let c = RStoreClient::connect(&devs[0], master).await.unwrap();
            let r = c
                .alloc("m", 1 << 20, AllocOptions::default())
                .await
                .unwrap();
            r.write(0, &vec![1u8; 64 * 1024]).await.unwrap();
            r.read(0, 64 * 1024).await.unwrap();
        });
        let mut dump: Vec<(String, u64)> = metrics
            .counter_names()
            .into_iter()
            .map(|n| {
                let v = metrics.counter(&n);
                (n, v)
            })
            .collect();
        dump.sort();
        dump
    };
    assert_eq!(run(), run());
}
