//! The host-CPU per-experiment series exported by `figures --json`.
//!
//! [`SelfTime`] collects how much *wall-clock* time each experiment cost
//! the host while a report was built, and how much executor work it was
//! spent on (`events`, `events_cancelled`, `peak_pending_events`,
//! `events_per_sec`: the simulator's thread totals, read and reset around
//! each experiment). Wall-clock is nondeterministic, so the series is
//! written to its own `SELFTIME_<runid>.json` — never into `BENCH_*.json`,
//! which CI compares exactly against the committed baseline.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Host-CPU (wall-clock) cost per experiment of building one report.
#[derive(Clone, Debug, Default)]
pub struct SelfTime {
    entries: Vec<(String, u64)>,
    /// Extra per-experiment host-side values (E16's checksum/hash MB/s):
    /// nondeterministic like wall-clock, so they belong in this document
    /// and nowhere else.
    extras: Vec<(String, String, Json)>,
}

impl SelfTime {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one experiment's wall-clock cost, in document order.
    pub fn record(&mut self, id: &str, wall_ns: u64) {
        self.entries.push((id.to_string(), wall_ns));
    }

    /// Runs experiment `id` and records what it cost the host: wall clock,
    /// and the executor events every simulation it ran fired, cancelled and
    /// at most held pending. Returns what `run` returned and the wall clock.
    pub fn measure<T>(&mut self, id: &str, run: impl FnOnce() -> T) -> (T, Duration) {
        sim::take_exec_totals(); // whatever ran before is not this experiment's
        let t0 = Instant::now();
        let out = run();
        let wall = t0.elapsed();
        let exec = sim::take_exec_totals();
        self.record(id, wall.as_nanos() as u64);
        let per_sec = exec.events as f64 / wall.as_secs_f64().max(1e-9);
        for (key, value) in [
            ("events", Json::int(exec.events)),
            ("events_cancelled", Json::int(exec.events_cancelled)),
            ("peak_pending_events", Json::int(exec.peak_pending_events)),
            ("events_per_sec", Json::float(per_sec)),
        ] {
            self.attach(id, key, value);
        }
        (out, wall)
    }

    /// Attaches an extra key to experiment `id`'s object, after `wall_ns`
    /// in attachment order.
    pub fn attach(&mut self, id: &str, key: &str, value: Json) {
        self.extras.push((id.to_string(), key.to_string(), value));
    }

    /// Renders the `rstore-selftime-v1` document.
    pub fn to_json(&self, run_id: &str) -> Json {
        let total: u64 = self.entries.iter().map(|(_, ns)| *ns).sum();
        Json::obj([
            ("schema".to_string(), Json::str("rstore-selftime-v1")),
            ("run_id".to_string(), Json::str(run_id)),
            (
                "experiments".to_string(),
                Json::obj(self.entries.iter().map(|(id, ns)| {
                    let mut fields = vec![("wall_ns".to_string(), Json::int(*ns))];
                    fields.extend(
                        self.extras
                            .iter()
                            .filter(|(eid, _, _)| eid == id)
                            .map(|(_, k, v)| (k.clone(), v.clone())),
                    );
                    (id.clone(), Json::obj(fields))
                })),
            ),
            ("total_wall_ns".to_string(), Json::int(total)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftime_document_is_valid_and_totals_entries() {
        let mut st = SelfTime::new();
        st.record("e1", 100);
        st.record("e2", 250);
        let doc = st.to_json("test").render();
        crate::json::validate(&doc).expect("selftime must render valid JSON");
        assert!(doc.contains("rstore-selftime-v1"), "{doc}");
        assert!(doc.contains("\"wall_ns\": 100"), "{doc}");
        assert!(doc.contains("\"total_wall_ns\": 350"), "{doc}");
    }

    #[test]
    fn measure_attaches_the_executor_totals_of_the_run() {
        let mut st = SelfTime::new();
        let (ran, _) = st.measure("e0", || {
            let sim = sim::Sim::new();
            let dead = sim.schedule(Duration::from_secs(1), || {});
            sim.schedule(Duration::from_nanos(5), || {});
            sim.cancel(dead);
            sim.run()
        });
        assert_eq!(ran.as_nanos(), 5);
        let doc = st.to_json("test").render();
        crate::json::validate(&doc).expect("selftime must render valid JSON");
        assert!(doc.contains("\"events\": 1"), "{doc}");
        assert!(doc.contains("\"events_cancelled\": 1"), "{doc}");
        assert!(doc.contains("\"peak_pending_events\": 2"), "{doc}");
        assert!(doc.contains("\"events_per_sec\""), "{doc}");
    }

    #[test]
    fn attached_extras_ride_in_their_experiments_object() {
        let mut st = SelfTime::new();
        st.record("e16", 42);
        st.attach("e16", "crc32c_sliced_mbps", Json::float(1234.5));
        let doc = st.to_json("test").render();
        crate::json::validate(&doc).expect("selftime must render valid JSON");
        assert!(doc.contains("\"crc32c_sliced_mbps\""), "{doc}");
        // Extras never count toward the wall-clock total.
        assert!(doc.contains("\"total_wall_ns\": 42"), "{doc}");
    }
}
