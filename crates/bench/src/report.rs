//! One measurement per experiment, rendered as text and as JSON.
//!
//! Every experiment module builds its own report [`Entry`] from its one
//! measurement: its text tables, its structured blocks and the `asserts`
//! it makes about its own run. A block is a stats struct in the form its
//! field list gives it (`export_fields!`, declared beside the struct), so
//! an exported key is the field's own name. `figures` runs the suite
//! through [`run_suite`], which prints each experiment's tables as soon as
//! it finishes and — with `--json` — collects the entries into the
//! `BENCH_<runid>.json` document. [`EXPERIMENTS`] is the one list of ids.
//! `figures --trace` captures a representative cluster lifecycle with the
//! simulator's event ring on and dumps it as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::experiments::{
    e10_availability as e10, e11_integrity as e11, e12_smallio as e12, e13_timeline as e13,
    e14_ycsb as e14, e15_elasticity as e15, e16_rawspeed as e16, e17_forensics as e17,
    e1_verbs as e1, e2_control as e2, e3_datapath as e3, e4_bandwidth as e4, e5_ablation as e5,
    e6_pagerank as e6, e7_scaling as e7, e8_sort as e8, e9_sort_scaling as e9,
};
use crate::json::Json;
use crate::selftime::SelfTime;
use crate::table::Table;

use rstore::{AllocOptions, Cluster, ClusterConfig};
use sim::{Exemplar, OpSummary, Phase, SpanRec, Window, WindowStats};

/// A value in the form a report entry carries it.
pub trait Export {
    /// The value as JSON.
    fn export(&self) -> Json;
}

/// Declares a struct's form in a report: an object whose keys are the
/// listed fields' names (and, after a `;`, the listed methods' names), each
/// in its own [`Export`] form.
macro_rules! export_fields {
    ($t:ty: $($f:ident),* $(; $($m:ident()),+)?) => {
        impl $crate::report::Export for $t {
            fn export(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((stringify!($f).to_string(), $crate::report::Export::export(&self.$f)),)*
                    $($((
                        stringify!($m).to_string(),
                        $crate::report::Export::export(&self.$m()),
                    ),)+)?
                ])
            }
        }
    };
}
pub(crate) use export_fields;

impl Export for u64 {
    fn export(&self) -> Json {
        Json::int(*self)
    }
}

impl Export for usize {
    fn export(&self) -> Json {
        Json::int(*self as u64)
    }
}

impl Export for u8 {
    fn export(&self) -> Json {
        Json::int(u64::from(*self))
    }
}

impl Export for i64 {
    fn export(&self) -> Json {
        Json::Num(self.to_string())
    }
}

impl Export for f64 {
    fn export(&self) -> Json {
        Json::float(*self)
    }
}

impl Export for bool {
    fn export(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Export for str {
    fn export(&self) -> Json {
        Json::str(self)
    }
}

impl Export for String {
    fn export(&self) -> Json {
        Json::str(self)
    }
}

/// Virtual time, in integer nanoseconds.
impl Export for Duration {
    fn export(&self) -> Json {
        Json::int(self.as_nanos() as u64)
    }
}

impl<T: Export + ?Sized> Export for &T {
    fn export(&self) -> Json {
        (**self).export()
    }
}

impl<T: Export> Export for Option<T> {
    fn export(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::export)
    }
}

impl<T: Export> Export for [T] {
    fn export(&self) -> Json {
        Json::Arr(self.iter().map(T::export).collect())
    }
}

impl<T: Export> Export for Vec<T> {
    fn export(&self) -> Json {
        self.as_slice().export()
    }
}

impl<T: Export> Export for BTreeMap<String, T> {
    fn export(&self) -> Json {
        Json::obj(self.iter().map(|(k, v)| (k.clone(), v.export())))
    }
}

/// A phase by its name.
impl Export for Phase {
    fn export(&self) -> Json {
        Json::str(self.name())
    }
}

fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::obj(pairs.map(|(k, v)| (k.to_string(), v)))
}

export_fields!(Table: title, headers, rows, notes);
export_fields!(WindowStats: count, p50, p99, max);
export_fields!(Window: index, start_ns, end_ns, counters, histograms);
export_fields!(SpanRec: phase, start_ns, dur_ns, depth);

/// A per-op cost attribution row: the round trips, doorbells, bytes and
/// per-layer time of one op type, every one of which the baseline gate
/// compares exactly, so a clean-path op growing a posting round — or a
/// nanosecond of wire time — fails CI.
impl Export for OpSummary {
    fn export(&self) -> Json {
        let hist = |p50: u64, p99: u64, max: u64, total: u64| {
            obj([
                ("p50", p50.export()),
                ("p99", p99.export()),
                ("max", max.export()),
                ("total", total.export()),
            ])
        };
        let s = self;
        obj([
            ("op", s.op.export()),
            ("count", s.count.export()),
            ("units", s.units.export()),
            (
                "rtts_per_op",
                hist(s.rtts_p50, s.rtts_p99, s.rtts_max, s.rtts_total),
            ),
            (
                "doorbells_per_op",
                hist(
                    s.doorbells_p50,
                    s.doorbells_p99,
                    s.doorbells_max,
                    s.doorbells_total,
                ),
            ),
            (
                "bytes_per_op",
                hist(s.bytes_p50, s.bytes_p99, s.bytes_max, s.bytes_total),
            ),
            ("retries", s.retries.export()),
            ("failovers", s.failovers.export()),
            ("verify_failures", s.verify_failures.export()),
            (
                "time_ns",
                obj([
                    ("client", s.client_ns.export()),
                    ("post", s.post_ns.export()),
                    ("wire", s.wire_ns.export()),
                    ("server", s.server_ns.export()),
                ]),
            ),
        ])
    }
}

/// One tail exemplar's summary, its span tree elided, with its critical-path
/// blame keyed by phase name (all phases always present, so the baseline
/// gate sees a stable shape).
impl Export for Exemplar {
    fn export(&self) -> Json {
        let r = &self.rec;
        let blame = Phase::ALL.map(|p| (p.name().to_string(), r.blame[p as usize].export()));
        obj([
            ("id", r.id.export()),
            ("kind", r.kind.export()),
            ("window", self.window.export()),
            ("rank", self.rank.export()),
            ("start_ns", r.start_ns.export()),
            ("elapsed_ns", r.elapsed_ns.export()),
            ("span_count", self.spans.len().export()),
            ("error", r.error.export()),
            ("blame_ns", Json::obj(blame)),
        ])
    }
}

/// An exemplar with its full span tree.
pub struct WithSpans<'a>(pub &'a Exemplar);

impl Export for WithSpans<'_> {
    fn export(&self) -> Json {
        let mut json = self.0.export();
        if let Json::Obj(m) = &mut json {
            m.insert("spans".to_string(), self.0.spans.export());
        }
        json
    }
}

/// The ledger row of op type `op`, if the run recorded one.
pub(crate) fn op_row<'a>(ops: &'a [OpSummary], op: &str) -> Option<&'a OpSummary> {
    ops.iter().find(|s| s.op == op)
}

/// The invariants one experiment asserts about its own run, for the
/// `asserts` array of its report entry. `bench check` fails a report with
/// a `pass` of false whatever the baseline says; `observed` stays a number
/// or a flag, compared exactly like every other leaf by `bench diff`.
#[derive(Default)]
pub struct Asserts(Vec<Json>);

impl Asserts {
    fn push(&mut self, name: &str, expected: String, observed: Json, pass: bool) {
        self.0.push(obj([
            ("name", name.export()),
            ("expected", expected.export()),
            ("observed", observed),
            ("pass", pass.export()),
        ]));
    }

    /// `observed == expected`.
    pub fn eq(&mut self, name: &str, observed: u64, expected: u64) {
        let pass = observed == expected;
        self.push(name, format!("== {expected}"), observed.export(), pass);
    }

    /// `observed > 0`.
    pub fn positive(&mut self, name: &str, observed: u64) {
        self.push(name, "> 0".to_string(), observed.export(), observed > 0);
    }

    /// `observed` is true.
    pub fn holds(&mut self, name: &str, observed: bool) {
        self.push(name, "true".to_string(), observed.export(), observed);
    }

    /// `observed <= bound`.
    pub fn at_most(&mut self, name: &str, observed: f64, bound: f64) {
        let pass = observed <= bound;
        self.push(name, format!("<= {bound}"), observed.export(), pass);
    }

    /// The run recorded per-op costs.
    pub fn ops_recorded(&mut self, ops: &[OpSummary]) {
        self.positive("ops_recorded", ops.len() as u64);
    }
}

/// One experiment's measurement, rendered: the tables `figures` prints, and
/// the structured blocks and asserts its report entry adds to them.
#[derive(Default)]
pub struct Entry {
    /// The text tables, printed as they are and exported verbatim.
    pub tables: Vec<Table>,
    blocks: Vec<(&'static str, Json)>,
    /// The invariants the experiment claims about this run.
    pub asserts: Asserts,
    selftime: Option<fn() -> Json>,
}

impl Entry {
    /// An entry of `tables` alone.
    pub fn new(tables: Vec<Table>) -> Entry {
        Entry {
            tables,
            ..Entry::default()
        }
    }

    /// Adds the structured block `key`.
    pub fn block(&mut self, key: &'static str, value: &(impl Export + ?Sized)) {
        self.blocks.push((key, value.export()));
    }

    /// Adds the `ops` block, the run's per-op cost ledger, and the assert
    /// that the run recorded one.
    pub fn ops(&mut self, ops: &[OpSummary]) {
        self.asserts.ops_recorded(ops);
        self.blocks.push(("ops", obj([("per_op", ops.export())])));
    }

    /// Adds host-side numbers to the experiment's `SELFTIME` entry:
    /// `extras` runs once the experiment's wall clock is taken, and the
    /// fields of the object it returns join the entry. They are
    /// nondeterministic like wall clock, so they never enter the report.
    pub fn selftime(&mut self, extras: fn() -> Json) {
        self.selftime = Some(extras);
    }

    /// The report entry of experiment `id`.
    pub fn json(&self, id: &str) -> Json {
        let mut fields = vec![
            ("id".to_string(), id.export()),
            ("tables".to_string(), self.tables.export()),
        ];
        if !self.asserts.0.is_empty() {
            fields.push(("asserts".to_string(), Json::Arr(self.asserts.0.clone())));
        }
        fields.extend(self.blocks.iter().map(|(k, v)| (k.to_string(), v.clone())));
        Json::obj(fields)
    }
}

/// One registry row: an experiment's id, the function that measures it once
/// and builds its entry, and whether that entry must assert its invariants
/// (the experiments whose claims are correctness or cost invariants rather
/// than curves; `bench check` flags such an entry without `asserts`).
pub type Experiment = (&'static str, fn() -> Entry, bool);

/// Every experiment, in suite order. `figures` runs ids from here and
/// rejects any other.
pub static EXPERIMENTS: [Experiment; 17] = [
    ("e1", e1::entry, false),
    ("e2", e2::entry, false),
    ("e3", e3::entry, false),
    ("e4", e4::entry, false),
    ("e5", e5::entry, false),
    ("e6", || e6::entry(&e6::measure()), true),
    ("e7", e7::entry, true),
    ("e8", || e8::entry(&e8::measure()), true),
    ("e9", || e9::entry(&e9::measure()), true),
    ("e10", || e10::entry(&e10::measure()), true),
    ("e11", || e11::entry(&e11::measure()), true),
    ("e12", || e12::entry(&e12::measure()), true),
    ("e13", || e13::entry(&e13::measure()), true),
    ("e14", || e14::entry(&e14::measure()), true),
    ("e15", || e15::entry(&e15::measure()), true),
    ("e16", || e16::entry(&e16::measure()), true),
    ("e17", || e17::entry(&e17::measure()), true),
];

/// The [`EXPERIMENTS`] row of `id`, if it names an experiment.
pub fn registered(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.0 == id)
}

/// Measures experiment `id` once and builds its entry.
///
/// # Panics
///
/// On an id that is not in [`EXPERIMENTS`] (`figures` rejects those before
/// anything runs), and on an entry whose `asserts` contradict the
/// registry's self-checking flag.
fn run(id: &str) -> Entry {
    let (_, entry, self_checking) =
        registered(id).unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
    let entry = entry();
    let asserts = !entry.asserts.0.is_empty();
    assert_eq!(asserts, *self_checking, "{id}: asserts vs EXPERIMENTS");
    entry
}

/// Runs experiment `id` once and renders that one measurement twice: as
/// its text tables, and as its report entry.
///
/// # Panics
///
/// On an id that is not in [`EXPERIMENTS`].
pub fn experiment(id: &str) -> (Vec<Table>, Json) {
    let entry = run(id);
    let json = entry.json(id);
    (entry.tables, json)
}

/// Runs each experiment of `ids` once, in order, handing its tables and
/// the wall clock it took to `show` as soon as it finishes. Returns the
/// `BENCH_<run_id>.json` document built from the same measurements, and
/// its `SELFTIME_<run_id>.json` companion: the host-CPU cost of each
/// experiment, which never leaks into the bench document, so that one
/// stays byte-identical across same-seed runs.
///
/// # Panics
///
/// On an id that is not in [`EXPERIMENTS`].
pub fn run_suite(
    ids: &[&str],
    run_id: &str,
    mut show: impl FnMut(&str, &[Table], Duration),
) -> (Json, Json) {
    let mut selftime = SelfTime::new();
    let mut experiments = Vec::with_capacity(ids.len());
    for id in ids {
        let (entry, wall) = selftime.measure(id, || run(id));
        show(id, &entry.tables, wall);
        if let Some(Json::Obj(extras)) = entry.selftime.map(|extras| extras()) {
            for (key, value) in extras {
                selftime.attach(id, &key, value);
            }
        }
        experiments.push(((*id).to_string(), entry.json(id)));
    }
    let report = obj([
        ("schema", "rstore-bench-v1".export()),
        ("run_id", run_id.export()),
        ("experiments", Json::obj(experiments)),
    ]);
    (report, selftime.to_json(run_id))
}

/// Runs a representative cluster lifecycle (boot, alloc, write, read, map
/// by name — a lookup — write, free) with tracing enabled and returns the
/// Chrome trace-event JSON.
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
        let mapped = client.map("lifecycle").await.expect("map");
        mapped.write(1 << 19, b"tail").await.expect("write2");
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
        validate(&t.export().render()).expect("valid JSON");
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
