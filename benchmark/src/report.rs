//! Turns pass records (and ladder rungs) into the named metrics, and
//! prints them: one `name value unit` line each, then the JSON result line.
//!
//! The passes of a run are different samples of one workload (the scripts
//! fold in the pass index), so virtual-clock metrics are computed over the
//! ops of all passes pooled, and host metrics are the median over passes.

use crate::host::Usage;
use crate::json::Json;
use crate::ladder::Rung;
use crate::record::PassRecord;
use crate::stats::{median, percentile};

/// Unit of virtual-clock durations: what the modelled RStore would take,
/// not a host timing (those are `us`, `s`, …).
const SIM_US: &str = "sim_us";

pub struct Metric {
    pub name: String,
    /// `None`: the program emitted nothing this metric is made of (see
    /// `Registry`). Printed as `null`; only per-layer metrics can be.
    pub value: Option<f64>,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value: Some(value), unit }
}

/// Median over passes of a per-pass quantity.
fn over_passes<'a>(records: impl IntoIterator<Item = &'a PassRecord>, f: impl Fn(&PassRecord) -> f64) -> f64 {
    median(&records.into_iter().map(f).collect::<Vec<_>>())
}

/// User-mode CPU µs per completed op, median over the given passes.
fn cpu_us_per_op<'a>(records: impl IntoIterator<Item = &'a PassRecord>) -> f64 {
    over_passes(records, |r| r.host.usage.user_us as f64 / r.ops() as f64)
}

/// The virtual latency of every op of every pass, ascending; of one op kind
/// if `kind` names one.
fn pooled_latencies(records: &[PassRecord], kind: Option<&str>) -> Vec<u64> {
    let mut lat: Vec<u64> = records
        .iter()
        .flat_map(|r| r.kinds.iter().zip(&r.lat_ns))
        .filter(|(k, _)| kind.is_none_or(|want| want == k.as_str()))
        .flat_map(|(_, lat)| lat.iter().copied())
        .collect();
    lat.sort_unstable();
    lat
}

fn total(records: &[PassRecord], f: impl Fn(&PassRecord) -> u64) -> u64 {
    records.iter().map(f).sum()
}

/// The end-to-end metrics (`--trace 0`).
pub fn end_to_end(records: &[PassRecord]) -> Result<Vec<Metric>, String> {
    let lat = pooled_latencies(records, None);
    let pct = |p: f64| {
        percentile(&lat, p).map(|ns| ns as f64 / 1e3).ok_or(format!("p{p} refused: only {} ops measured", lat.len()))
    };
    let ops = total(records, PassRecord::ops) as f64;
    let virt_ns = total(records, |r| r.virt_ns) as f64;
    let per_op = |count: fn(&Usage) -> u64| over_passes(records, |r| count(&r.host.usage) as f64 / r.ops() as f64);
    Ok(vec![
        metric("sim_op_p50_us", pct(50.0)?, SIM_US),
        metric("sim_op_p999_us", pct(99.9)?, SIM_US),
        metric("sim_op_mean_us", lat.iter().sum::<u64>() as f64 / ops / 1e3, SIM_US),
        metric("sim_throughput_kops", ops / virt_ns * 1e6, "kop/sim_s"),
        metric("sim_goodput_gbps", total(records, |r| r.payload_bytes) as f64 * 8.0 / virt_ns, "Gb/sim_s"),
        metric("op_attempts_per_op", total(records, |r| r.attempts) as f64 / ops, "attempts/op"),
        metric("host_allocs_per_op", per_op(|u| u.allocs), "allocs/op"),
        metric("host_alloc_bytes_per_op", per_op(|u| u.alloc_bytes), "B/op"),
        metric("host_page_faults_per_kop", per_op(|u| u.minflt) * 1e3, "faults/kop"),
        metric("peak_rss_mb", over_passes(records, |r| r.peak_rss_kb as f64 / 1024.0), "MiB"),
        metric("setup_s", over_passes(records, |r| r.setup_ns as f64 / 1e9), "s"),
    ])
}

/// The per-layer metrics (`--trace 1`): the ladder rungs; counts and splits
/// the first pass left in the registry (they repeat per seed); latency
/// splits by op kind, failed attempts and recovery over all passes; harness
/// health.
pub fn per_layer(records: &[PassRecord], rungs: &[Rung]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for r in rungs {
        out.push(metric(r.name, r.host, r.host_unit));
        if let Some((name, value, unit)) = r.sim {
            out.push(metric(name, value, unit));
        }
    }

    let first = &records[0];
    let reg = &first.registry;
    let ops = first.ops() as f64;
    let kops = ops / 1e3;
    let ratio = |num: Option<u64>, den: Option<u64>| Some(num? as f64 / den.filter(|&d| d != 0)? as f64);
    let scaled = |v: Option<u64>, by: f64| v.map(|v| v as f64 / by);
    let kind_pct = |kind: &str, p: f64| percentile(&pooled_latencies(records, Some(kind)), p).map(|ns| ns as f64 / 1e3);

    let hint_lookups = reg.hint_hits.map(|hits| hits + reg.hint_misses.unwrap_or(0) + reg.hint_stale.unwrap_or(0));
    let chaos: Vec<_> = records.iter().filter_map(|r| r.chaos).collect();
    let recover_ms =
        (!chaos.is_empty()).then(|| median(&chaos.iter().map(|c| c.recover_ns as f64 / 1e6).collect::<Vec<_>>()));
    let mut count = |name: &str, value: Option<f64>, unit| out.push(Metric { name: name.to_owned(), value, unit });
    count("rdma.doorbells_per_op", scaled(reg.doorbells, ops), "1/op");
    count("rdma.wrs_per_op", scaled(reg.wrs, ops), "1/op");
    count("rdma.wr_sim_p50_us.read", scaled(reg.wr_read_p50_ns, 1e3), SIM_US);
    count("rdma.wr_sim_p50_us.write", scaled(reg.wr_write_p50_ns, 1e3), SIM_US);
    count("rdma.wr_sim_p50_us.comp_swap", scaled(reg.wr_cas_p50_ns, 1e3), SIM_US);
    count("fabric.wire_bytes_per_op", scaled(reg.wire_bytes, ops), "B/op");
    count("fabric.msgs_per_op", scaled(reg.msgs, ops), "1/op");
    count("fabric.link_busy_pct_max", scaled(reg.link_busy_ns_max, first.virt_ns as f64 / 100.0), "%");
    count("fabric.dropped_msgs", scaled(reg.dropped_msgs, 1.0), "count");
    count("core.kv.hint_hit_ratio", ratio(reg.hint_hits, hint_lookups), "ratio");
    count("core.kv.stale_per_kop", scaled(reg.hint_stale, kops), "1/kop");
    count("core.kv.evict_per_kop", scaled(reg.hint_evictions, kops), "1/kop");
    count("core.kv.lock_breaks", scaled(reg.lock_breaks, 1.0), "count");
    count("core.kv.get_p50_us", kind_pct("get", 50.0), SIM_US);
    count("core.kv.put_p50_us", kind_pct("put", 50.0), SIM_US);
    count("core.kv.put_p999_us", kind_pct("put", 99.9), SIM_US);
    for dir in ["read", "write"] {
        for size in ["4k", "64k", "1m"] {
            let p50 = kind_pct(&format!("{dir}.{size}"), 50.0);
            count(&format!("core.region.{dir}_p50_us.{size}"), p50, SIM_US);
        }
    }
    count("core.region.inflight_max", scaled(reg.inflight_max, 1.0), "count");
    count("core.crc.verify_failures", scaled(reg.crc_verify_failures, 1.0), "count");
    // No sample under any control-call name is the steady workloads' 0,
    // which `main.rs` enforces; a renamed histogram would read the same, so
    // this one count stays a number.
    count("core.client.ctrl_rpcs_per_kop", Some(reg.ctrl_rpcs.unwrap_or(0) as f64 / kops), "1/kop");
    count("core.client.redials", scaled(reg.redials, 1.0), "count");
    count("core.client.io_timeouts", scaled(reg.io_timeouts, 1.0), "count");
    count("core.client.desc_refreshes", scaled(reg.desc_refreshes, 1.0), "count");
    count("core.master.repair_extents", scaled(reg.repair_extents, 1.0), "count");
    count("core.master.drain_bytes", scaled(reg.drain_bytes, 1.0), "B");
    count("core.master.drain_overhead", ratio(reg.drain_bytes, first.chaos.map(|c| c.drain_hosted_bytes)), "ratio");
    count("core.master.rebalance_bytes", scaled(reg.rebalance_bytes, 1.0), "B");
    count("sim_recover_ms", recover_ms, "sim_ms");
    count("op_fail_ratio", Some(total(records, |r| r.errors) as f64 / total(records, |r| r.attempts) as f64), "ratio");
    count("core.kv.stale_reads", Some(total(records, |r| r.stale_reads) as f64), "count");
    count("sim.live_tasks_end", Some(first.live_tasks_end as f64), "count");

    let plain = cpu_us_per_op(records.iter().filter(|r| !r.traced));
    let traced = cpu_us_per_op(records.iter().filter(|r| r.traced));
    out.push(metric("host_cpu_us_per_op", plain, "us"));
    out.push(metric("bench.trace_overhead_pct", (traced - plain) / plain * 100.0, "%"));
    Ok(out)
}

/// Prints every metric by name with its unit, the unbounded diagnostics
/// (host time among them, see `host.rs`), and — last — the result line the
/// driver parses.
pub fn print(workload: &str, seed: u64, records: &[PassRecord], metrics: &[Metric]) -> Result<(), String> {
    if let Some(bad) = metrics.iter().find(|m| m.value.is_some_and(|v| !v.is_finite())) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    println!("workload {workload} seed {seed} passes {}", records.len());
    for m in metrics {
        match m.value {
            Some(v) => println!("{} {v} {}", m.name, m.unit),
            None => println!("{} null {}", m.name, m.unit),
        }
    }
    let ops = total(records, PassRecord::ops);
    println!("ops_measured {ops} count");
    println!("op_attempt_errors {} of {} attempts", total(records, |r| r.errors), total(records, |r| r.attempts));
    println!("stale_reads {} count", total(records, |r| r.stale_reads));
    if !metrics.iter().any(|m| m.name == "host_cpu_us_per_op") {
        println!("host_cpu_us_per_op {} us", cpu_us_per_op(records));
    }
    println!("host.wall_s {} s", over_passes(records, |r| r.host.wall_ns as f64 / 1e9));
    println!("host.user_s {} s", over_passes(records, |r| r.host.usage.user_us as f64 / 1e6));
    println!("host.sys_s {} s", over_passes(records, |r| r.host.usage.sys_us as f64 / 1e6));

    // The result line counts operations, each a closed-loop request with
    // its retries. An operation that cannot be completed fails the run
    // before anything is printed, so none of the operations reported here
    // failed; attempts that failed inside an operation are the bounded
    // metric `op_attempts_per_op`. The line's values are numbers by
    // contract, so a `null` metric is written as 0 here (and only here).
    let mut j = Json::default();
    j.begin_obj();
    j.key("correct").bool(true);
    j.key("attempted").uint(ops);
    j.key("failed").uint(0);
    j.key("metrics").begin_obj();
    for m in metrics {
        j.key(&m.name).begin_obj().key("value").num(m.value.unwrap_or(0.0)).key("unit").str(m.unit).end_obj();
    }
    j.end_obj().end_obj();
    println!("{}", j.finish());
    Ok(())
}
