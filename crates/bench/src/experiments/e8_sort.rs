//! E8 — the 256 GB sort (claim C5: 31.7 s, 8× better than Hadoop TeraSort).
//!
//! Three parts:
//! 1. a **twin** at 64 MiB on 4 workers + 4 memory servers: a real sort of
//!    `teragen(n, FLUID_SEED)`, verified byte for byte, and its fluid twin,
//!    compared phase by phase (the correctness anchor, and the evidence
//!    that fluid timing is the real code's timing),
//! 2. the **fluid-mode** 256 GB run on 12 workers + 12 memory servers (the
//!    same worker body, synthetic payloads), and
//! 3. the Hadoop TeraSort **cost model** on 12 nodes for the ratio.

use std::time::Duration;

use baseline::hadoop::{terasort_time, HadoopConfig, TeraSortEstimate};
use fabric::FabricConfig;
use rsort::{distributed, twin, SortConfig, SortMode, SortOutcome, Twin, TWIN_TOLERANCE};
use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient, ServerConfig};
use sim::{Level, OpSummary};

use crate::table::{fmt_dur, Table};

/// Size of E8's real/fluid twin.
pub const TWIN_BYTES: u64 = 64 << 20;
/// Workers (and memory servers) of E8's twin.
pub const TWIN_WORKERS: usize = 4;

/// One measurement of E8's three parts.
#[derive(Clone, Debug)]
pub struct SortStats {
    /// The 64 MiB real run and its fluid twin.
    pub twin: Twin,
    /// The 256 GB fluid run.
    pub outcome: SortOutcome,
    /// Per-op costs of the fluid run's region IO; `write_many` is the
    /// workers' shuffles.
    pub ops: Vec<OpSummary>,
    /// The Hadoop TeraSort model at the same size.
    pub hadoop: TeraSortEstimate,
}

/// Measures the three parts once.
pub fn measure() -> SortStats {
    let (outcome, ops) = fluid_sort(256u64 << 30, 12);
    SortStats {
        twin: twin_sort(),
        outcome,
        ops,
        hadoop: terasort_time(&HadoopConfig::default(), 256 << 30),
    }
}

/// Renders E8's table from one measurement.
pub fn tables(s: &SortStats) -> Vec<Table> {
    let mut t = Table::new(
        "E8: 256 GB Key-Value sort — RStore sorter vs Hadoop TeraSort model",
        &["system", "phase", "time"],
    );

    // Part 1: verified correctness at small scale.
    t.row(vec![
        "rsort (real, 64 MiB)".into(),
        "verified sorted".into(),
        s.twin.verified.to_string(),
    ]);

    // Part 2: 256 GB fluid run.
    let outcome = &s.outcome;
    t.row(vec![
        "rsort 256GB".into(),
        "sample".into(),
        fmt_dur(outcome.phases.sample),
    ]);
    t.row(vec![
        "rsort 256GB".into(),
        "partition+count".into(),
        fmt_dur(outcome.phases.partition),
    ]);
    t.row(vec![
        "rsort 256GB".into(),
        "one-sided shuffle".into(),
        fmt_dur(outcome.phases.shuffle),
    ]);
    t.row(vec![
        "rsort 256GB".into(),
        "local sort".into(),
        fmt_dur(outcome.phases.local_sort),
    ]);
    t.row(vec![
        "rsort 256GB".into(),
        "TOTAL".into(),
        fmt_dur(outcome.total),
    ]);

    // Part 3: Hadoop model.
    let est = &s.hadoop;
    t.row(vec![
        "hadoop 256GB".into(),
        "startup".into(),
        fmt_dur(est.startup),
    ]);
    t.row(vec!["hadoop 256GB".into(), "map".into(), fmt_dur(est.map)]);
    t.row(vec![
        "hadoop 256GB".into(),
        "shuffle".into(),
        fmt_dur(est.shuffle),
    ]);
    t.row(vec![
        "hadoop 256GB".into(),
        "reduce".into(),
        fmt_dur(est.reduce),
    ]);
    t.row(vec![
        "hadoop 256GB".into(),
        "output(x3)".into(),
        fmt_dur(est.output),
    ]);
    t.row(vec![
        "hadoop 256GB".into(),
        "TOTAL".into(),
        fmt_dur(est.total()),
    ]);

    let ratio = est.total().as_secs_f64() / outcome.total.as_secs_f64();
    t.row(vec![
        "ratio".into(),
        "hadoop / rsort".into(),
        format!("{ratio:.1}x"),
    ]);
    t.note("paper claim C5: 256 GB in 31.7 s, 8x better than Hadoop TeraSort");

    let mut tw = Table::new(
        "E8b: real sort vs its fluid twin — 64 MiB, 4 workers + 4 servers",
        &["phase", "real", "fluid", "gap"],
    );
    for ((phase, real, fluid), (_, gap)) in s.twin.phases().into_iter().zip(s.twin.gaps()) {
        tw.row(vec![
            phase.into(),
            fmt_dur(Duration::from_nanos(real)),
            fmt_dur(Duration::from_nanos(fluid)),
            format!("{:.3}%", gap * 100.0),
        ]);
    }
    tw.note(format!(
        "every phase within {:.0}%: the fluid run is the real run minus the bytes",
        TWIN_TOLERANCE * 100.0
    ));
    vec![t, tw]
}

/// The cluster of every E8/E9 sort: one worker per client, as many memory
/// servers, and the fluid fabric's coarse link quantum.
fn sort_cluster(workers: usize) -> ClusterConfig {
    ClusterConfig {
        clients: workers,
        fabric: FabricConfig::fluid(),
        server: ServerConfig {
            // Input + output regions at 256 GB need ~43 GiB per server.
            donate: 56 << 30,
            ..ServerConfig::default()
        },
        ..ClusterConfig::with_servers(workers)
    }
}

/// E8's twin: [`TWIN_BYTES`] sorted for real and verified, then as a fluid
/// run, both on [`sort_cluster`]`(TWIN_WORKERS)` with 1 MiB stripes and
/// IO chunks.
fn twin_sort() -> Twin {
    let cfg = SortConfig {
        io_chunk: 1 << 20,
        opts: AllocOptions {
            stripe_size: 1 << 20,
            ..AllocOptions::default()
        },
        ..SortConfig::default()
    };
    let records = TWIN_BYTES / workload::RECORD_BYTES as u64;
    twin(&sort_cluster(TWIN_WORKERS), &cfg, records).expect("twin sort")
}

/// Fluid-mode sort of `bytes` on `workers` workers (+ equal servers), with
/// the per-op costs of its region IO.
pub fn fluid_sort(bytes: u64, workers: usize) -> (SortOutcome, Vec<OpSummary>) {
    let cluster = Cluster::boot(sort_cluster(workers)).expect("boot");
    let sim = cluster.sim.clone();
    sim.recorder().enable(Level::Costs, 0);
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    sim.block_on(async move {
        let loader = RStoreClient::connect(&devs[0], master).await.expect("c");
        let cfg = SortConfig {
            mode: SortMode::Fluid,
            io_chunk: 64 << 20,
            opts: AllocOptions {
                stripe_size: 64 << 20,
                ..AllocOptions::default()
            },
            ..SortConfig::default()
        };
        let records = bytes / workload::RECORD_BYTES as u64;
        distributed::create_fluid_input(&loader, &cfg, records)
            .await
            .expect("input");
        let outcome = distributed::run(&devs, master, cfg).await.expect("sort");
        (outcome, sim::ledger::summarize(&devs[0].metrics()))
    })
}
