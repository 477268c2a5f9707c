//! One measurement per experiment, rendered as text and as JSON.
//!
//! `figures` runs the suite through [`run_suite`]: each experiment is
//! measured once, its tables are printed, and — with `--json` — the same
//! measurement becomes its entry of the `BENCH_<runid>.json` document: the
//! tables, plus structured extras where a table is too lossy (E3 gets a
//! per-layer latency attribution with percentiles). `figures --trace`
//! captures a representative cluster lifecycle with the simulator's event
//! ring on and dumps it as Chrome trace-event JSON.
//!
//! E6 and E8–E17 are self-checking: each exports an `asserts` array — the
//! invariants it claims, as `{name, expected, observed, pass}` built from
//! the stats it already computes — which `bench check` verifies (see
//! [`Asserts`]).

use std::time::Duration;

use crate::experiments::e3_datapath::{self, LayerStat};
use crate::experiments::{
    e10_availability, e11_integrity, e12_smallio, e13_timeline, e14_ycsb, e15_elasticity,
    e16_rawspeed, e17_forensics, e1_verbs, e2_control, e4_bandwidth, e5_ablation, e6_pagerank,
    e7_scaling, e8_sort, e9_sort_scaling,
};
use crate::json::Json;
use crate::selftime::SelfTime;
use crate::table::Table;

use rstore::{AllocOptions, Cluster, ClusterConfig};
use sim::OpSummary;

/// Serialises one result table: headers, rows and notes verbatim.
pub fn table_json(t: &Table) -> Json {
    Json::obj([
        ("title".to_string(), Json::str(&t.title)),
        (
            "headers".to_string(),
            Json::Arr(t.headers.iter().map(Json::str).collect()),
        ),
        (
            "rows".to_string(),
            Json::Arr(
                t.rows
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
        (
            "notes".to_string(),
            Json::Arr(t.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// Serialises one sampler window: virtual-time bounds, counters, and
/// histogram percentiles. Shared by the continuous-telemetry experiments
/// (E13 fault timeline, E15 elasticity).
fn window_json(w: &sim::Window) -> Json {
    let counters = Json::obj(w.counters.iter().map(|(k, v)| (k.clone(), Json::int(*v))));
    let histograms = Json::obj(w.histograms.iter().map(|(k, h)| {
        (
            k.clone(),
            Json::obj([
                ("count".to_string(), Json::int(h.count)),
                ("p50".to_string(), Json::int(h.p50)),
                ("p99".to_string(), Json::int(h.p99)),
                ("max".to_string(), Json::int(h.max)),
            ]),
        )
    }));
    Json::obj([
        ("index".to_string(), Json::int(w.index)),
        ("start_ns".to_string(), Json::int(w.start_ns)),
        ("end_ns".to_string(), Json::int(w.end_ns)),
        ("counters".to_string(), counters),
        ("histograms".to_string(), histograms),
    ])
}

/// Round trips of the median op of type `op` (0 if none was recorded).
fn rtts_p50(ops: &[OpSummary], op: &str) -> u64 {
    ops.iter().find(|s| s.op == op).map_or(0, |s| s.rtts_p50)
}

fn dur_ns(d: Duration) -> Json {
    Json::int(d.as_nanos() as u64)
}

fn per_op_hist_json(p50: u64, p99: u64, max: u64, total: u64) -> Json {
    Json::obj([
        ("p50".to_string(), Json::int(p50)),
        ("p99".to_string(), Json::int(p99)),
        ("max".to_string(), Json::int(max)),
        ("total".to_string(), Json::int(total)),
    ])
}

/// Serialises a per-op cost attribution (one object per op type, in the
/// summaries' deterministic order): the round trips, doorbells, bytes and
/// per-layer time of each op type, every one of which the baseline gate
/// compares exactly, so a clean-path op growing a posting round — or a
/// nanosecond of wire time — fails CI.
pub fn ops_json(ops: &[OpSummary]) -> Json {
    Json::Arr(
        ops.iter()
            .map(|s| {
                Json::obj([
                    ("op".to_string(), Json::str(&s.op)),
                    ("count".to_string(), Json::int(s.count)),
                    ("units".to_string(), Json::int(s.units)),
                    (
                        "rtts_per_op".to_string(),
                        per_op_hist_json(s.rtts_p50, s.rtts_p99, s.rtts_max, s.rtts_total),
                    ),
                    (
                        "doorbells_per_op".to_string(),
                        per_op_hist_json(
                            s.doorbells_p50,
                            s.doorbells_p99,
                            s.doorbells_max,
                            s.doorbells_total,
                        ),
                    ),
                    (
                        "bytes_per_op".to_string(),
                        per_op_hist_json(s.bytes_p50, s.bytes_p99, s.bytes_max, s.bytes_total),
                    ),
                    ("retries".to_string(), Json::int(s.retries)),
                    ("failovers".to_string(), Json::int(s.failovers)),
                    ("verify_failures".to_string(), Json::int(s.verify_failures)),
                    (
                        "time_ns".to_string(),
                        Json::obj([
                            ("client".to_string(), Json::int(s.client_ns)),
                            ("post".to_string(), Json::int(s.post_ns)),
                            ("wire".to_string(), Json::int(s.wire_ns)),
                            ("server".to_string(), Json::int(s.server_ns)),
                        ]),
                    ),
                ])
            })
            .collect(),
    )
}

/// Serialises a critical-path blame vector keyed by phase name, all twelve
/// phases always present so the baseline gate sees a stable shape.
fn blame_json(rec: &sim::FlightRec) -> Json {
    Json::obj(
        sim::Phase::ALL
            .iter()
            .map(|&p| (p.name().to_string(), Json::int(rec.blame[p as usize]))),
    )
}

/// Serialises one tail exemplar's summary (span tree elided — only the
/// spike exemplar carries its full tree).
fn exemplar_json(e: &sim::Exemplar) -> Json {
    Json::obj([
        ("id".to_string(), Json::int(e.rec.id)),
        ("kind".to_string(), Json::str(e.rec.kind)),
        ("window".to_string(), Json::int(e.window)),
        ("rank".to_string(), Json::int(e.rank as u64)),
        ("start_ns".to_string(), Json::int(e.rec.start_ns)),
        ("elapsed_ns".to_string(), Json::int(e.rec.elapsed_ns)),
        ("span_count".to_string(), Json::int(e.spans.len() as u64)),
        (
            "error".to_string(),
            e.rec.error.map(Json::str).unwrap_or(Json::Null),
        ),
        ("blame_ns".to_string(), blame_json(&e.rec)),
    ])
}

fn span_rec_json(s: &sim::SpanRec) -> Json {
    Json::obj([
        ("phase".to_string(), Json::str(s.phase.name())),
        ("start_ns".to_string(), Json::int(s.start_ns)),
        ("dur_ns".to_string(), Json::int(s.dur_ns)),
        ("depth".to_string(), Json::int(s.depth as u64)),
    ])
}

fn layer_stat_json(s: &LayerStat) -> Json {
    Json::obj([
        ("size_bytes".to_string(), Json::int(s.size)),
        ("total_ns".to_string(), Json::int(s.total_ns)),
        ("p50_ns".to_string(), Json::int(s.p50_ns)),
        ("p99_ns".to_string(), Json::int(s.p99_ns)),
        (
            "layers_ns".to_string(),
            Json::obj([
                ("doorbell".to_string(), Json::int(s.doorbell_ns)),
                ("nic".to_string(), Json::int(s.nic_ns)),
                ("wire".to_string(), Json::int(s.wire_ns)),
                ("software".to_string(), Json::int(s.software_ns)),
            ]),
        ),
    ])
}

/// The invariants one experiment asserts about its own run, for the
/// `asserts` array of its report entry. `bench check` fails a report with
/// a `pass` of false whatever the baseline says; `observed` stays a number
/// or a flag, compared exactly like every other leaf by `bench diff`.
#[derive(Default)]
struct Asserts(Vec<Json>);

impl Asserts {
    fn push(&mut self, name: &str, expected: String, observed: Json, pass: bool) {
        self.0.push(Json::obj([
            ("name".to_string(), Json::str(name)),
            ("expected".to_string(), Json::str(expected)),
            ("observed".to_string(), observed),
            ("pass".to_string(), Json::Bool(pass)),
        ]));
    }

    /// `observed == expected`.
    fn eq(&mut self, name: &str, observed: u64, expected: u64) {
        let pass = observed == expected;
        self.push(name, format!("== {expected}"), Json::int(observed), pass);
    }

    /// `observed > 0`.
    fn positive(&mut self, name: &str, observed: u64) {
        self.push(name, "> 0".to_string(), Json::int(observed), observed > 0);
    }

    /// `observed` is true.
    fn holds(&mut self, name: &str, observed: bool) {
        self.push(name, "true".to_string(), Json::Bool(observed), observed);
    }

    /// `observed <= bound`.
    fn at_most(&mut self, name: &str, observed: f64, bound: f64) {
        let pass = observed <= bound;
        self.push(name, format!("<= {bound}"), Json::float(observed), pass);
    }

    /// The `ops` block is there: the run recorded per-op costs.
    fn ops_recorded(&mut self, ops: &[OpSummary]) {
        self.positive("ops_recorded", ops.len() as u64);
    }
}

/// Runs experiment `id` once and renders that one measurement twice: as
/// its text tables, and as its report entry — the same tables plus
/// structured extras (and the `asserts` of E6 and E8–E17).
///
/// # Panics
///
/// Panics on an unknown id.
pub fn experiment(id: &str) -> (Vec<Table>, Json) {
    let mut fields = vec![("id".to_string(), Json::str(id))];
    let mut asserts = Asserts::default();
    let tables = match id {
        "e1" => e1_verbs::run(),
        "e2" => e2_control::run(),
        "e3" => {
            let attr: Vec<Json> = e3_datapath::attribution()
                .iter()
                .map(layer_stat_json)
                .collect();
            fields.push(("read_latency_attribution".to_string(), Json::Arr(attr)));
            e3_datapath::run()
        }
        "e4" => e4_bandwidth::run(),
        "e5" => e5_ablation::run(),
        "e6" => {
            let rows = e6_pagerank::measure();
            let rank_errors: u64 = rows.iter().map(|r| r.rstore.rank_errors).sum();
            asserts.eq("data_errors", rank_errors, 0);
            for r in &rows {
                let name = format!("gather.rtts_per_op.p50@{}", r.name);
                asserts.eq(&name, rtts_p50(&r.rstore.ops, "read_many"), 1);
                asserts.ops_recorded(&r.rstore.ops);
            }
            let graphs = rows.iter().map(|r| {
                Json::obj([
                    ("graph".to_string(), Json::str(r.name)),
                    ("rstore_ns".to_string(), dur_ns(r.rstore.total)),
                    ("msg_passing_ns".to_string(), dur_ns(r.msg_total)),
                    ("speedup".to_string(), Json::float(r.speedup())),
                    ("rank_errors".to_string(), Json::int(r.rstore.rank_errors)),
                    ("per_op".to_string(), ops_json(&r.rstore.ops)),
                ])
            });
            fields.push((
                "ops".to_string(),
                Json::obj([("graphs".to_string(), Json::Arr(graphs.collect()))]),
            ));
            e6_pagerank::tables(&rows)
        }
        "e7" => e7_scaling::run(),
        "e8" => {
            let s = e8_sort::measure();
            asserts.eq("data_errors", !s.twin.verified as u64, 0);
            for (phase, gap) in s.twin.gaps() {
                asserts.at_most(&format!("twin.gap@{phase}"), gap, rsort::TWIN_TOLERANCE);
            }
            asserts.eq("shuffle.rtts_per_op.p50", rtts_p50(&s.ops, "write_many"), 1);
            asserts.ops_recorded(&s.ops);
            let p = &s.outcome.phases;
            let twin = s.twin.phases().into_iter().zip(s.twin.gaps()).map(
                |((phase, real, fluid), (_, gap))| {
                    (
                        phase.to_string(),
                        Json::obj([
                            ("real_ns".to_string(), Json::int(real)),
                            ("fluid_ns".to_string(), Json::int(fluid)),
                            ("gap".to_string(), Json::float(gap)),
                        ]),
                    )
                },
            );
            fields.push((
                "twin".to_string(),
                Json::obj([
                    ("bytes".to_string(), Json::int(e8_sort::TWIN_BYTES)),
                    (
                        "workers".to_string(),
                        Json::int(e8_sort::TWIN_WORKERS as u64),
                    ),
                    ("records".to_string(), Json::int(s.twin.real.records)),
                    ("verified".to_string(), Json::Bool(s.twin.verified)),
                    ("phases".to_string(), Json::obj(twin)),
                ]),
            ));
            fields.push((
                "sort".to_string(),
                Json::obj([
                    ("records".to_string(), Json::int(s.outcome.records)),
                    ("total_ns".to_string(), dur_ns(s.outcome.total)),
                    ("sample_ns".to_string(), dur_ns(p.sample)),
                    ("partition_ns".to_string(), dur_ns(p.partition)),
                    ("shuffle_ns".to_string(), dur_ns(p.shuffle)),
                    ("local_sort_ns".to_string(), dur_ns(p.local_sort)),
                    ("hadoop_ns".to_string(), dur_ns(s.hadoop.total())),
                ]),
            ));
            fields.push((
                "ops".to_string(),
                Json::obj([("per_op".to_string(), ops_json(&s.ops))]),
            ));
            e8_sort::tables(&s)
        }
        "e9" => {
            let rows = e9_sort_scaling::measure();
            let sizes = rows.iter().map(|r| {
                let (o, p) = (&r.outcome, &r.outcome.phases);
                let size = format!("{}GiB", r.bytes >> 30);
                asserts.eq(&format!("records@{size}"), o.records, r.bytes / 100);
                asserts.holds(&format!("phases_le_total@{size}"), p.total() <= o.total);
                Json::obj([
                    ("bytes".to_string(), Json::int(r.bytes)),
                    ("records".to_string(), Json::int(o.records)),
                    ("total_ns".to_string(), dur_ns(o.total)),
                    ("sample_ns".to_string(), dur_ns(p.sample)),
                    ("partition_ns".to_string(), dur_ns(p.partition)),
                    ("shuffle_ns".to_string(), dur_ns(p.shuffle)),
                    ("local_sort_ns".to_string(), dur_ns(p.local_sort)),
                ])
            });
            let sizes = Json::Arr(sizes.collect());
            fields.push((
                "scaling".to_string(),
                Json::obj([("sizes".to_string(), sizes)]),
            ));
            e9_sort_scaling::tables(&rows)
        }
        "e10" => {
            let s = e10_availability::measure();
            asserts.eq("data_errors", s.data_errors, 0);
            asserts.holds("healthy_after_repair", s.healthy_after_repair);
            fields.push((
                "availability".to_string(),
                Json::obj([
                    ("ops_total".to_string(), Json::int(s.ops_total)),
                    ("io_errors".to_string(), Json::int(s.io_errors)),
                    ("data_errors".to_string(), Json::int(s.data_errors)),
                    ("kill_ns".to_string(), Json::int(s.kill_ns)),
                    ("recovery_ns".to_string(), Json::int(s.recovery_ns)),
                    (
                        "degraded_window_ns".to_string(),
                        Json::int(s.degraded_window_ns),
                    ),
                    (
                        "healthy_after_repair".to_string(),
                        Json::Bool(s.healthy_after_repair),
                    ),
                ]),
            ));
            e10_availability::tables(&s)
        }
        "e11" => {
            let s = e11_integrity::measure();
            let injected = s.injected_in_flight + s.injected_at_rest;
            asserts.eq("data_errors", s.data_errors, 0);
            asserts.eq("false_positives", s.false_positives, 0);
            asserts.eq("detected", s.detected, injected);
            asserts.holds("healthy_after_repair", s.healthy_after_repair);
            fields.push((
                "integrity".to_string(),
                Json::obj([
                    (
                        "injected_in_flight".to_string(),
                        Json::int(s.injected_in_flight),
                    ),
                    (
                        "injected_at_rest".to_string(),
                        Json::int(s.injected_at_rest),
                    ),
                    ("detected".to_string(), Json::int(s.detected)),
                    (
                        "detection_complete".to_string(),
                        Json::Bool(s.detected == injected),
                    ),
                    ("false_positives".to_string(), Json::int(s.false_positives)),
                    ("data_errors".to_string(), Json::int(s.data_errors)),
                    ("loud_errors".to_string(), Json::int(s.loud_errors)),
                    ("scrub_passes".to_string(), Json::int(s.scrub_passes)),
                    (
                        "detect_latency_mean_ns".to_string(),
                        Json::int(s.detect_latency_mean_ns),
                    ),
                    (
                        "detect_latency_max_ns".to_string(),
                        Json::int(s.detect_latency_max_ns),
                    ),
                    (
                        "healthy_after_repair".to_string(),
                        Json::Bool(s.healthy_after_repair),
                    ),
                    (
                        "read_p99_scrub_off_ns".to_string(),
                        Json::int(s.read_p99_scrub_off_ns),
                    ),
                    (
                        "read_p99_scrub_on_ns".to_string(),
                        Json::int(s.read_p99_scrub_on_ns),
                    ),
                ]),
            ));
            e11_integrity::tables(&s)
        }
        "e12" => {
            let s = e12_smallio::measure();
            let sizes: Vec<Json> = s
                .sizes
                .iter()
                .map(|z| {
                    Json::obj([
                        ("size_bytes".to_string(), Json::int(z.size)),
                        ("per_op_gbps".to_string(), Json::float(z.per_op_gbps)),
                        ("batched_gbps".to_string(), Json::float(z.batched_gbps)),
                        (
                            "batched_speedup".to_string(),
                            Json::float(z.batched_gbps / z.per_op_gbps),
                        ),
                        (
                            "per_op_doorbells_per_op".to_string(),
                            Json::float(z.per_op_doorbells),
                        ),
                        (
                            "batched_doorbells_per_op".to_string(),
                            Json::float(z.batched_doorbells),
                        ),
                        ("ck_gbps".to_string(), Json::float(z.ck_gbps)),
                    ])
                })
                .collect();
            fields.push((
                "smallio".to_string(),
                Json::obj([
                    ("sizes".to_string(), Json::Arr(sizes)),
                    ("ck_substripe".to_string(), {
                        let z = &s.ck_substripe;
                        Json::obj([
                            ("io_bytes".to_string(), Json::int(z.io_bytes)),
                            ("stripe_bytes".to_string(), Json::int(z.stripe_bytes)),
                            ("replicas".to_string(), Json::int(z.replicas)),
                            ("read_gbps".to_string(), Json::float(z.read_gbps)),
                            ("write_gbps".to_string(), Json::float(z.write_gbps)),
                            (
                                "read_wire_bytes_per_op".to_string(),
                                Json::float(z.read_wire_bytes_per_op),
                            ),
                            (
                                "write_wire_bytes_per_op".to_string(),
                                Json::float(z.write_wire_bytes_per_op),
                            ),
                        ])
                    }),
                    ("data_errors".to_string(), Json::int(s.data_errors)),
                    ("speedup_4k".to_string(), Json::float(s.speedup_4k())),
                    (
                        "speedup_4k_ok".to_string(),
                        Json::Bool(s.speedup_4k() >= 1.5),
                    ),
                    (
                        "batched_doorbells_lt_one".to_string(),
                        Json::Bool(s.batched_doorbells_4k() < 1.0),
                    ),
                ]),
            ));
            let profile = e12_smallio::ops_profile();
            asserts.eq("data_errors", s.data_errors, 0);
            asserts.holds("speedup_4k_ok", s.speedup_4k() >= 1.5);
            asserts.holds("batched_doorbells_lt_one", s.batched_doorbells_4k() < 1.0);
            asserts.holds(
                "ck_substripe_no_amplification",
                s.ck_substripe.no_amplification(),
            );
            asserts.holds(
                "multi_get_doorbells_lt_one",
                profile.multi_get_doorbells_lt_one(),
            );
            asserts.ops_recorded(&profile.ops);
            fields.push((
                "ops".to_string(),
                Json::obj([
                    ("per_op".to_string(), ops_json(&profile.ops)),
                    (
                        "multi_get_doorbells_lt_one".to_string(),
                        Json::Bool(profile.multi_get_doorbells_lt_one()),
                    ),
                ]),
            ));
            e12_smallio::tables(&s)
        }
        "e13" => {
            let s = e13_timeline::measure();
            asserts.eq("value_errors", s.value_errors, 0);
            asserts.eq("abandoned", s.abandoned, 0);
            asserts.positive("io_errors", s.io_errors);
            asserts.holds("healthy_after_repair", s.healthy_after_repair);
            asserts.ops_recorded(&s.ops);
            let windows: Vec<Json> = s.windows.iter().map(window_json).collect();
            fields.push((
                "timeline".to_string(),
                Json::obj([
                    ("window_ns".to_string(), Json::int(s.window_ns)),
                    ("kill_ns".to_string(), Json::int(s.kill_ns)),
                    (
                        "fault_window".to_string(),
                        Json::int(s.fault_window() as u64),
                    ),
                    ("ops_total".to_string(), Json::int(s.ops_total)),
                    ("io_errors".to_string(), Json::int(s.io_errors)),
                    ("value_errors".to_string(), Json::int(s.value_errors)),
                    ("abandoned".to_string(), Json::int(s.abandoned)),
                    ("pre_fault_p99_us".to_string(), Json::int(s.pre_fault_p99())),
                    ("spike_p99_us".to_string(), Json::int(s.spike_p99())),
                    ("recovery_p99_us".to_string(), Json::int(s.recovery_p99())),
                    (
                        "healthy_after_repair".to_string(),
                        Json::Bool(s.healthy_after_repair),
                    ),
                    ("windows".to_string(), Json::Arr(windows)),
                ]),
            ));
            fields.push((
                "ops".to_string(),
                Json::obj([("per_op".to_string(), ops_json(&s.ops))]),
            ));
            e13_timeline::tables(&s)
        }
        "e14" => {
            let s = e14_ycsb::measure();
            asserts.eq("data_errors", s.data_errors, 0);
            asserts.eq("warm_get_rtts", s.warm.get_rtts, 1);
            asserts.eq("warm_get_doorbells", s.warm.get_doorbells, 1);
            asserts.eq("cold_chain_get_rtts", s.warm.cold_chain_get_rtts, 2);
            asserts.eq("warm_put_rtts", s.warm.put_rtts, 2);
            asserts.eq("warm_delete_rtts", s.warm.delete_rtts, 2);
            asserts.eq("resize.reader_errors", s.resize.reader_errors, 0);
            // Readers read through locks: no warmed get waits on a writer.
            for x in &s.mixes {
                let get_max = x.row("get").map_or(0, |r| r.rtts_max);
                asserts.eq(&format!("get.rtts_per_op.max@{}", x.name), get_max, 1);
            }
            let mixes: Vec<Json> = s
                .mixes
                .iter()
                .map(|x| {
                    Json::obj([
                        ("name".to_string(), Json::str(x.name)),
                        ("read_fraction".to_string(), Json::float(x.read_fraction)),
                        ("ops_total".to_string(), Json::int(x.ops_total)),
                        ("value_errors".to_string(), Json::int(x.value_errors)),
                        ("ops_per_sec".to_string(), Json::float(x.ops_per_sec)),
                        (
                            "index".to_string(),
                            Json::obj([
                                ("hit".to_string(), Json::int(x.index_hit)),
                                ("miss".to_string(), Json::int(x.index_miss)),
                                ("stale".to_string(), Json::int(x.index_stale)),
                                ("invalidate".to_string(), Json::int(x.index_invalidate)),
                                ("evict".to_string(), Json::int(x.index_evict)),
                            ]),
                        ),
                        ("per_op".to_string(), ops_json(&x.ops)),
                    ])
                })
                .collect();
            fields.push((
                "ycsb".to_string(),
                Json::obj([
                    ("keys".to_string(), Json::int(s.keys)),
                    ("clients".to_string(), Json::int(s.clients)),
                    ("ops_per_client".to_string(), Json::int(s.ops_per_client)),
                    ("mixes".to_string(), Json::Arr(mixes)),
                    (
                        "warm_probe".to_string(),
                        Json::obj([
                            ("warm_get_rtts".to_string(), Json::int(s.warm.get_rtts)),
                            (
                                "warm_get_doorbells".to_string(),
                                Json::int(s.warm.get_doorbells),
                            ),
                            ("warm_put_rtts".to_string(), Json::int(s.warm.put_rtts)),
                            (
                                "warm_put_doorbells".to_string(),
                                Json::int(s.warm.put_doorbells),
                            ),
                            (
                                "warm_delete_rtts".to_string(),
                                Json::int(s.warm.delete_rtts),
                            ),
                            (
                                "cold_chain_get_rtts".to_string(),
                                Json::int(s.warm.cold_chain_get_rtts),
                            ),
                        ]),
                    ),
                    (
                        "resize".to_string(),
                        Json::obj([
                            ("keys".to_string(), Json::int(s.resize.keys)),
                            ("moved".to_string(), Json::int(s.resize.moved)),
                            (
                                "reader_errors".to_string(),
                                Json::int(s.resize.reader_errors),
                            ),
                            ("refreshes".to_string(), Json::int(s.resize.refreshes)),
                            (
                                "verify_errors".to_string(),
                                Json::int(s.resize.verify_errors),
                            ),
                        ]),
                    ),
                    ("data_errors".to_string(), Json::int(s.data_errors)),
                ]),
            ));
            e14_ycsb::tables(&s)
        }
        "e15" => {
            let s = e15_elasticity::measure();
            let data_errors: u64 = s.scales.iter().map(|x| x.value_errors + x.abandoned).sum();
            asserts.eq("data_errors", data_errors, 0);
            for x in &s.scales {
                let at = |name: &str| format!("{name}@{}", x.servers);
                asserts.positive(&at("drain.bytes"), x.drain_bytes);
                asserts.eq(&at("drain.residual_bytes"), x.drained_residual_bytes, 0);
                asserts.holds(&at("consistent"), x.consistent);
                asserts.holds(&at("p99_bounded"), x.p99_bounded());
                asserts.ops_recorded(&x.ops);
            }
            let scales: Vec<Json> = s
                .scales
                .iter()
                .map(|x| {
                    Json::obj([
                        ("servers".to_string(), Json::int(x.servers)),
                        ("ops_total".to_string(), Json::int(x.ops_total)),
                        ("io_errors".to_string(), Json::int(x.io_errors)),
                        ("value_errors".to_string(), Json::int(x.value_errors)),
                        ("abandoned".to_string(), Json::int(x.abandoned)),
                        ("joined".to_string(), Json::int(x.joined)),
                        (
                            "drain".to_string(),
                            Json::obj([
                                ("ok".to_string(), Json::Bool(x.drain_ok)),
                                ("min_bytes".to_string(), Json::int(x.drain_min_bytes)),
                                ("bytes".to_string(), Json::int(x.drain_bytes)),
                                ("extents".to_string(), Json::int(x.drain_extents)),
                                (
                                    "residual_bytes".to_string(),
                                    Json::int(x.drained_residual_bytes),
                                ),
                                ("overhead".to_string(), Json::float(x.drain_overhead())),
                            ]),
                        ),
                        ("rebalance_bytes".to_string(), Json::int(x.rebalance_bytes)),
                        ("desc_refreshes".to_string(), Json::int(x.desc_refreshes)),
                        ("pre_p99_us".to_string(), Json::int(x.pre_p99_us)),
                        ("spike_p99_us".to_string(), Json::int(x.spike_p99_us)),
                        ("final_p99_us".to_string(), Json::int(x.final_p99_us)),
                        ("p99_bounded".to_string(), Json::Bool(x.p99_bounded())),
                        ("healthy_after".to_string(), Json::Bool(x.healthy_after)),
                        ("consistent".to_string(), Json::Bool(x.consistent)),
                        (
                            "windows".to_string(),
                            Json::Arr(x.windows.iter().map(window_json).collect()),
                        ),
                        ("per_op".to_string(), ops_json(&x.ops)),
                    ])
                })
                .collect();
            fields.push((
                "elasticity".to_string(),
                Json::obj([
                    ("scales".to_string(), Json::Arr(scales)),
                    ("data_errors".to_string(), Json::int(data_errors)),
                ]),
            ));
            e15_elasticity::tables(&s)
        }
        "e16" => {
            let s = e16_rawspeed::measure();
            let arm_json = |a: &e16_rawspeed::SgeArm| {
                Json::obj([
                    (
                        "doorbells_per_read_io".to_string(),
                        Json::int(a.read_doorbells),
                    ),
                    (
                        "doorbells_per_write_io".to_string(),
                        Json::int(a.write_doorbells),
                    ),
                    (
                        "sge_wrs_per_read_io".to_string(),
                        Json::int(a.sge_wrs_per_read),
                    ),
                    ("read_post_ns".to_string(), Json::int(a.read_post_ns)),
                    ("write_post_ns".to_string(), Json::int(a.write_post_ns)),
                    ("read_ns".to_string(), Json::int(a.read_ns)),
                    ("write_ns".to_string(), Json::int(a.write_ns)),
                ])
            };
            fields.push((
                "rawspeed".to_string(),
                Json::obj([
                    (
                        "sge".to_string(),
                        Json::obj([
                            ("pieces_per_io".to_string(), Json::int(s.pieces)),
                            ("qps".to_string(), Json::int(s.qps)),
                            ("scatter_gather".to_string(), arm_json(&s.sge)),
                            ("sge_entries_max".to_string(), Json::int(s.sge_entries_max)),
                            (
                                "one_doorbell_per_qp".to_string(),
                                Json::Bool(s.sge_one_doorbell_per_qp()),
                            ),
                        ]),
                    ),
                    (
                        "inline".to_string(),
                        Json::obj([
                            ("staged_put_ns".to_string(), Json::int(s.staged_put_ns)),
                            ("inline_put_ns".to_string(), Json::int(s.inline_put_ns)),
                            (
                                "delta_ns_per_put".to_string(),
                                Json::int(s.inline_delta_ns().max(0) as u64),
                            ),
                            ("writes".to_string(), Json::int(s.inline_writes)),
                            ("bytes".to_string(), Json::int(s.inline_bytes)),
                        ]),
                    ),
                    ("data_errors".to_string(), Json::int(s.data_errors)),
                ]),
            ));
            let profile = e16_rawspeed::ops_profile();
            asserts.eq("data_errors", s.data_errors, 0);
            asserts.holds("one_doorbell_per_qp", s.sge_one_doorbell_per_qp());
            asserts.holds("read_doorbells_le_qps", profile.read_doorbells_le_qps());
            asserts.ops_recorded(&profile.ops);
            fields.push((
                "ops".to_string(),
                Json::obj([
                    ("per_op".to_string(), ops_json(&profile.ops)),
                    (
                        "read_doorbells_le_qps".to_string(),
                        Json::Bool(profile.read_doorbells_le_qps()),
                    ),
                ]),
            ));
            e16_rawspeed::tables(&s, &profile)
        }
        "e17" => {
            let s = e17_forensics::measure();
            asserts.holds("fault_blame_pins_on_stall", s.fault_blame_pins_on_stall());
            asserts.eq("value_errors", s.value_errors, 0);
            asserts.eq("abandoned", s.abandoned, 0);
            asserts.holds("healthy_after_repair", s.healthy_after_repair);
            asserts.positive("bundles", s.bundles);
            asserts.positive("exemplars", s.exemplars.len() as u64);
            let spike = s.slowest_fault_exemplar();
            let mut spike_fields = match exemplar_json(spike) {
                Json::Obj(m) => m,
                _ => unreachable!("exemplar_json returns an object"),
            };
            spike_fields.insert(
                "spans".to_string(),
                Json::Arr(spike.spans.iter().map(span_rec_json).collect()),
            );
            fields.push((
                "exemplars".to_string(),
                Json::obj([
                    ("window_ns".to_string(), Json::int(s.window_ns)),
                    ("kill_ns".to_string(), Json::int(s.kill_ns)),
                    ("fault_window".to_string(), Json::int(s.fault_window())),
                    ("ops_total".to_string(), Json::int(s.ops_total)),
                    ("io_errors".to_string(), Json::int(s.io_errors)),
                    ("value_errors".to_string(), Json::int(s.value_errors)),
                    ("abandoned".to_string(), Json::int(s.abandoned)),
                    (
                        "healthy_after_repair".to_string(),
                        Json::Bool(s.healthy_after_repair),
                    ),
                    ("finished".to_string(), Json::int(s.finished)),
                    ("failed".to_string(), Json::int(s.failed)),
                    ("bundles".to_string(), Json::int(s.bundles)),
                    ("ring_len".to_string(), Json::int(s.ring.len() as u64)),
                    ("era_notes".to_string(), Json::int(s.era_notes.len() as u64)),
                    ("count".to_string(), Json::int(s.exemplars.len() as u64)),
                    (
                        "fault_blame_pins_on_stall".to_string(),
                        Json::Bool(s.fault_blame_pins_on_stall()),
                    ),
                    ("slowest_fault".to_string(), Json::Obj(spike_fields)),
                    (
                        "list".to_string(),
                        Json::Arr(s.exemplars.iter().map(exemplar_json).collect()),
                    ),
                ]),
            ));
            e17_forensics::tables(&s)
        }
        other => panic!("unknown experiment id {other:?} (expected e1..e17)"),
    };
    if !asserts.0.is_empty() {
        fields.push(("asserts".to_string(), Json::Arr(asserts.0)));
    }
    let rendered = tables.iter().map(table_json).collect();
    fields.push(("tables".to_string(), Json::Arr(rendered)));
    (tables, Json::obj(fields))
}

/// Runs each experiment of `ids` once, in order, handing its tables and
/// the wall clock it took to `show` as soon as it finishes. Returns the
/// `BENCH_<run_id>.json` document built from the same measurements, and
/// its `SELFTIME_<run_id>.json` companion: the host-CPU cost of each
/// experiment, which never leaks into the bench document, so that one
/// stays byte-identical across same-seed runs.
pub fn run_suite(
    ids: &[&str],
    run_id: &str,
    mut show: impl FnMut(&str, &[Table], Duration),
) -> (Json, Json) {
    let mut selftime = SelfTime::new();
    let mut experiments = Vec::with_capacity(ids.len());
    for id in ids {
        let ((tables, entry), wall) = selftime.measure(id, || experiment(id));
        show(id, &tables, wall);
        if *id == "e16" {
            // The checksum/hash µ-bench is host-side MB/s: nondeterministic
            // like wall-clock, so it rides in the selftime document rather
            // than the byte-identical bench report.
            let st = e16_rawspeed::selftime_extras();
            for (key, value) in [
                ("crc32c_sliced_mbps", st.crc32c_sliced_mbps),
                ("crc32c_scalar_mbps", st.crc32c_scalar_mbps),
                ("crc32c_speedup", st.crc32c_speedup),
                ("hash_mbps", st.hash_mbps),
                ("keys_eq_mbps", st.keys_eq_mbps),
            ] {
                selftime.attach(id, key, Json::float(value));
            }
        }
        experiments.push(((*id).to_string(), entry));
    }
    let report = Json::obj([
        ("schema".to_string(), Json::str("rstore-bench-v1")),
        ("run_id".to_string(), Json::str(run_id)),
        ("experiments".to_string(), Json::obj(experiments)),
    ]);
    (report, selftime.to_json(run_id))
}

/// Runs a representative cluster lifecycle (boot, alloc, write, read, grow,
/// free) with tracing enabled and returns the Chrome trace-event JSON.
///
/// The run is fully deterministic: two calls return byte-identical output.
pub fn trace_cluster_lifecycle() -> String {
    let cluster = Cluster::boot(ClusterConfig::with_servers(3)).expect("boot");
    let sim = cluster.sim.clone();
    let metrics = cluster.fabric.metrics().clone();
    let rec = sim.recorder();
    rec.enable(sim::Level::Off, 1 << 16);
    sim.block_on(async move {
        let client = cluster.client(0).await.expect("client");
        let opts = AllocOptions {
            stripe_size: 64 * 1024,
            ..AllocOptions::default()
        };
        let region = client
            .alloc("lifecycle", 1 << 20, opts)
            .await
            .expect("alloc");
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        region.write(0, &payload).await.expect("write");
        region.read(0, 4096).await.expect("read");
        let grown = client.grow("lifecycle", 1 << 20, opts).await.expect("grow");
        grown.write((1 << 20) + 512, b"tail").await.expect("write2");
        client.free("lifecycle").await.expect("free");
    });
    // Surface ring overflow in the metrics namespace next to the export: any
    // spans the bounded ring evicted mid-run show up as `trace.evicted`.
    rec.publish_evicted(&metrics);
    rec.export_chrome_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn table_json_is_valid() {
        let mut t = Table::new("T: \"quoted\"", &["a", "b"]);
        t.row(vec!["1".into(), "x\ny".into()]);
        t.note("n");
        validate(&table_json(&t).render()).expect("valid JSON");
    }

    #[test]
    fn e13_timeline_json_is_valid_and_deterministic() {
        let a = experiment("e13").1.render();
        validate(&a).expect("e13 report must be valid JSON");
        assert!(a.contains("\"timeline\""));
        assert!(a.contains("\"e13.op_latency_us\""));
        // The per-op cost ledger must be in the export, with the RTT series
        // the baseline gate pins exactly.
        assert!(a.contains("\"ops\""));
        assert!(a.contains("\"rtts_per_op\""));
        assert!(a.contains("\"doorbells_per_op\""));
        let b = experiment("e13").1.render();
        assert_eq!(a, b, "seeded timeline export must be byte-identical");
    }

    #[test]
    fn e14_ycsb_json_is_valid_and_complete() {
        // Byte-identity across runs is enforced end-to-end by CI's exact
        // `bench diff` of the suite against BENCH_seed.json; here we pin
        // the structure `bench check` and the ledger readers depend on.
        let a = experiment("e14").1.render();
        validate(&a).expect("e14 report must be valid JSON");
        for field in [
            "\"ycsb\"",
            "\"mixes\"",
            "\"warm_probe\"",
            "\"warm_get_rtts\"",
            "\"warm_put_rtts\"",
            "\"cold_chain_get_rtts\"",
            "\"resize\"",
            "\"data_errors\"",
            "\"rtts_per_op\"",
            "\"doorbells_per_op\"",
        ] {
            assert!(a.contains(field), "e14 export must carry {field}");
        }
    }

    #[test]
    fn e15_elasticity_json_is_valid_and_complete() {
        // Byte-identity across runs is enforced end-to-end by CI's exact
        // `bench diff` of the suite against BENCH_seed.json; here we pin
        // the structure `bench check` and the ledger readers depend on.
        let a = experiment("e15").1.render();
        validate(&a).expect("e15 report must be valid JSON");
        for field in [
            "\"elasticity\"",
            "\"scales\"",
            "\"drain\"",
            "\"min_bytes\"",
            "\"residual_bytes\"",
            "\"overhead\"",
            "\"rebalance_bytes\"",
            "\"desc_refreshes\"",
            "\"p99_bounded\"",
            "\"consistent\"",
            "\"data_errors\"",
            "\"windows\"",
            "\"e15.op_latency_us\"",
            "\"rtts_per_op\"",
        ] {
            assert!(a.contains(field), "e15 export must carry {field}");
        }
    }

    #[test]
    fn e16_rawspeed_json_is_valid_and_complete() {
        // Byte-identity across runs is enforced end-to-end by CI's exact
        // `bench diff` of the suite against BENCH_seed.json; here we pin
        // the structure `bench check` and the ledger readers depend on.
        let a = experiment("e16").1.render();
        validate(&a).expect("e16 report must be valid JSON");
        for field in [
            "\"rawspeed\"",
            "\"sge\"",
            "\"pieces_per_io\"",
            "\"scatter_gather\"",
            "\"doorbells_per_read_io\"",
            "\"one_doorbell_per_qp\": true",
            "\"inline\"",
            "\"delta_ns_per_put\"",
            "\"data_errors\": 0",
            "\"rtts_per_op\"",
            "\"doorbells_per_op\"",
        ] {
            assert!(a.contains(field), "e16 export must carry {field}");
        }
    }

    #[test]
    fn e17_exemplars_json_is_valid_and_deterministic() {
        let a = experiment("e17").1.render();
        validate(&a).expect("e17 report must be valid JSON");
        for field in [
            "\"exemplars\"",
            "\"fault_blame_pins_on_stall\": true",
            "\"slowest_fault\"",
            "\"blame_ns\"",
            "\"spans\"",
            "\"list\"",
            "\"value_errors\": 0",
            "\"abandoned\": 0",
            "\"healthy_after_repair\": true",
        ] {
            assert!(a.contains(field), "e17 export must carry {field}");
        }
        let b = experiment("e17").1.render();
        assert_eq!(a, b, "seeded forensics export must be byte-identical");
    }

    #[test]
    fn e17_triage_bundle_round_trips_and_is_self_contained() {
        // The fault era forces structured (Io) failures, so the flight
        // recorder must have dumped at least one triage bundle; the last
        // one must parse back and carry the failing op's full span tree,
        // the ring, the era notes, and a gauge snapshot.
        let s = crate::experiments::e17_forensics::measure();
        let bundle = s.last_bundle.expect("fault era must produce a bundle");
        let doc = crate::json::parse(&bundle).expect("bundle must be valid JSON");
        let Json::Obj(m) = &doc else {
            panic!("bundle must be an object")
        };
        assert_eq!(m.get("schema"), Some(&Json::str("rstore-triage-v1")));
        let Some(Json::Obj(op)) = m.get("op") else {
            panic!("bundle must embed the failing op")
        };
        assert!(op.contains_key("blame"), "op must carry its blame");
        assert!(
            matches!(op.get("error"), Some(Json::Str(_))),
            "the failing op must name its structured error"
        );
        let Some(Json::Arr(spans)) = m.get("spans") else {
            panic!("bundle must embed the failing op's span tree")
        };
        assert!(!spans.is_empty(), "a fault-era op records spans");
        let Some(Json::Arr(ring)) = m.get("ring") else {
            panic!("bundle must embed the flight ring")
        };
        assert!(!ring.is_empty(), "the ring has prior ops by fault time");
        assert!(m.contains_key("era_notes"), "bundle must carry era notes");
        let Some(Json::Obj(gauges)) = m.get("gauges") else {
            panic!("bundle must embed a gauge snapshot")
        };
        assert!(!gauges.is_empty(), "gauges snapshot the metrics registry");
    }

    #[test]
    fn lifecycle_trace_is_valid_and_deterministic() {
        let a = trace_cluster_lifecycle();
        validate(&a).expect("chrome trace must be valid JSON");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("rstore.ctrl.alloc"));
        assert!(a.contains("rstore.read"));
        let b = trace_cluster_lifecycle();
        assert_eq!(a, b, "seeded runs must trace identically");
    }
}
