//! Benchmark-side spans for the traced run: recorded around the calls into
//! the store, kept in memory, written once at exit. Nothing inside the
//! program is switched on (no ledger, optrace or tracer).

use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call (made at process start).
pub fn host_ns() -> u64 {
    PROCESS_START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One span. `parent == 0` marks the root; ids are 1-based positions.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: u32,
    pub kind: &'static str,
    /// What distinguishes siblings of one kind: `pass.3`, a rung name, or
    /// an op's type (`get`, `write`).
    pub label: Cow<'static, str>,
    pub client: u32,
    pub bytes: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

/// The in-memory span log of one run.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a span now on the host clock and returns its id; close it
    /// with [`end`](Self::end), which supplies the host instant it ended at
    /// (from [`host_ns`]) and the virtual interval.
    pub fn begin(&mut self, parent: u32, kind: &'static str, label: &str) -> u32 {
        let now = host_ns();
        self.spans.push(Span {
            parent,
            kind,
            label: Cow::Owned(label.to_owned()),
            client: 0,
            bytes: 0,
            host_start_ns: now,
            host_end_ns: now,
            virt_start_ns: 0,
            virt_end_ns: 0,
        });
        self.spans.len() as u32
    }

    pub fn end(&mut self, id: u32, host_end_ns: u64, virt_start_ns: u64, virt_end_ns: u64) {
        let s = &mut self.spans[id as usize - 1];
        s.host_end_ns = host_end_ns;
        s.virt_start_ns = virt_start_ns;
        s.virt_end_ns = virt_end_ns;
    }

    /// Appends already-closed spans (the per-client op logs of a pass).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON: a column legend plus one array per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut j = Json::default();
        j.begin_obj();
        j.key("workload").str(workload);
        j.key("seed").uint(seed);
        j.key("columns").begin_arr();
        for c in [
            "id",
            "parent",
            "kind",
            "label",
            "client",
            "bytes",
            "host_start_ns",
            "host_end_ns",
            "virt_start_ns",
            "virt_end_ns",
        ] {
            j.str(c);
        }
        j.end_arr();
        j.key("spans").begin_arr();
        for (i, s) in self.spans.iter().enumerate() {
            j.begin_arr();
            j.uint(i as u64 + 1).uint(s.parent as u64).str(s.kind).str(&s.label);
            j.uint(s.client as u64).uint(s.bytes);
            j.uint(s.host_start_ns).uint(s.host_end_ns);
            j.uint(s.virt_start_ns).uint(s.virt_end_ns);
            j.end_arr();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

/// Checks that each client's `op` spans under `pass` tile that client's
/// timeline: Σ op virtual durations + Σ think time = last end − first
/// start, within 1 %. A closed loop that loses or double-counts time
/// between ops fails here, not in a reader of the span file.
pub fn check_tiling(spans: &[Span], pass: u32, think_ns: u64) -> Result<(), String> {
    use std::collections::BTreeMap;
    // client → (first start, last end, Σ durations, ops)
    let mut per_client: BTreeMap<u32, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == pass && s.kind == "op") {
        let e = per_client.entry(s.client).or_insert((s.virt_start_ns, s.virt_end_ns, 0, 0));
        e.0 = e.0.min(s.virt_start_ns);
        e.1 = e.1.max(s.virt_end_ns);
        e.2 += s.virt_end_ns - s.virt_start_ns;
        e.3 += 1;
    }
    if per_client.is_empty() {
        return Err(format!("span tiling: pass span {pass} has no op spans"));
    }
    for (client, (first, last, busy, ops)) in per_client {
        let covered = busy + think_ns * (ops - 1);
        let span = last - first;
        if covered.abs_diff(span) * 100 > span {
            return Err(format!("span tiling: client {client}: {ops} ops cover {covered} ns of a {span} ns timeline"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(parent: u32, client: u32, v0: u64, v1: u64) -> Span {
        Span {
            parent,
            kind: "op",
            label: Cow::Borrowed("get"),
            client,
            bytes: 64,
            host_start_ns: 0,
            host_end_ns: 1,
            virt_start_ns: v0,
            virt_end_ns: v1,
        }
    }

    #[test]
    fn back_to_back_ops_tile() {
        let spans = vec![op(7, 0, 0, 10), op(7, 0, 10, 30), op(7, 1, 5, 25), op(7, 1, 25, 26)];
        assert!(check_tiling(&spans, 7, 0).is_ok());
    }

    #[test]
    fn think_time_counts_between_ops_only() {
        let spans = vec![op(2, 0, 0, 10), op(2, 0, 110, 120), op(2, 0, 220, 230)];
        assert!(check_tiling(&spans, 2, 100).is_ok());
        assert!(check_tiling(&spans, 2, 0).is_err());
    }

    #[test]
    fn a_gap_or_a_missing_pass_fails() {
        let spans = vec![op(2, 0, 0, 10), op(2, 0, 50, 60)];
        assert!(check_tiling(&spans, 2, 0).unwrap_err().contains("client 0"));
        assert!(check_tiling(&spans, 3, 0).is_err());
    }

    #[test]
    fn begin_end_and_json_round_trip_shape() {
        let mut log = SpanLog::default();
        let run = log.begin(0, "run", "");
        let pass = log.begin(run, "pass", "pass.1");
        log.extend([op(pass, 3, 5, 9)]);
        let now = host_ns();
        log.end(pass, now, 5, 9);
        log.end(run, now, 0, 9);
        assert_eq!(log.spans().len(), 3);
        assert!(log.spans()[0].host_end_ns >= log.spans()[0].host_start_ns);
        assert_eq!(log.spans()[1].host_end_ns, now);
        let text = log.to_json("kv_read", 11);
        assert!(text.starts_with(r#"{"workload":"kv_read","seed":11,"columns":["id","#));
        assert!(text.contains(r#"[3,2,"op","get",3,64,0,1,5,9]"#));
    }
}
