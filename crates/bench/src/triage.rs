//! Renders forensics output for humans: the `bench triage` subcommand.
//!
//! Three input shapes are understood, distinguished by their `schema` field:
//!
//! - a `BENCH_*.json` report (`rstore-bench-v1`): every experiment carrying
//!   an `exemplars` block gets its tail exemplars printed as a ranked blame
//!   table, worst first, with the verdict of its `fault_blame_pins_on_stall`
//!   assert;
//! - a flight-recorder triage bundle (`rstore-triage-v1`), as dumped on a
//!   structured error: the failing op's blame and span tree, the ring, and
//!   the cluster-era notes;
//! - a `SELFTIME_*.json` companion (`rstore-selftime-v1`): the host cost of
//!   each experiment — wall clock and executor events — costliest first.

use std::fmt::Write as _;

use crate::json::Json;
use crate::table::Table;

fn as_u64(v: Option<&Json>) -> u64 {
    match v {
        Some(Json::Num(s)) => s.parse::<f64>().map(|f| f as u64).unwrap_or(0),
        _ => 0,
    }
}

fn as_str(v: Option<&Json>) -> &str {
    match v {
        Some(Json::Str(s)) => s.as_str(),
        _ => "-",
    }
}

/// The blame entry with the largest share, ties broken by phase name so the
/// output is deterministic for any input document.
fn dominant(blame: &Json) -> (&str, u64) {
    let Json::Obj(m) = blame else {
        return ("-", 0);
    };
    let mut best = ("-", 0u64);
    for (k, v) in m {
        let ns = as_u64(Some(v));
        if ns > best.1 {
            best = (k.as_str(), ns);
        }
    }
    best
}

fn blame_row(
    kind: &str,
    id: u64,
    window: &str,
    elapsed_ns: u64,
    error: &str,
    blame: &Json,
) -> Vec<String> {
    let (phase, ns) = dominant(blame);
    let share = match (ns * 100).checked_div(elapsed_ns) {
        Some(pct) => format!("{pct}%"),
        None => "-".to_string(),
    };
    vec![
        kind.to_string(),
        format!("#{id}"),
        window.to_string(),
        format!("{}", elapsed_ns / 1_000),
        phase.to_string(),
        format!("{}", ns / 1_000),
        share,
        error.to_string(),
    ]
}

/// Renders one experiment's `exemplars` block as a ranked blame table.
fn exemplars_table(exp_id: &str, block: &Json, asserts: Option<&Json>, top: usize) -> Table {
    let Json::Obj(m) = block else {
        return Table::new(format!("{exp_id}: malformed exemplars block"), &[]);
    };
    let mut t = Table::new(
        format!(
            "{exp_id}: tail exemplars, worst first (fault window {}, {} retained)",
            as_u64(m.get("fault_window")),
            as_u64(m.get("exemplars_len")),
        ),
        &[
            "kind",
            "op",
            "window",
            "elapsed us",
            "blame",
            "blame us",
            "share",
            "error",
        ],
    );
    let mut rows: Vec<&Json> = match m.get("exemplars") {
        Some(Json::Arr(list)) => list.iter().collect(),
        _ => Vec::new(),
    };
    rows.sort_by_key(|e| {
        let Json::Obj(x) = e else { return (0, 0, 0) };
        (
            u64::MAX - as_u64(x.get("elapsed_ns")),
            as_u64(x.get("start_ns")),
            as_u64(x.get("id")),
        )
    });
    for e in rows.iter().take(top) {
        let Json::Obj(x) = e else { continue };
        t.row(blame_row(
            as_str(x.get("kind")),
            as_u64(x.get("id")),
            &as_u64(x.get("window")).to_string(),
            as_u64(x.get("elapsed_ns")),
            as_str(x.get("error")),
            x.get("blame_ns").unwrap_or(&Json::Null),
        ));
    }
    let pins = match asserts {
        Some(Json::Arr(list)) => list.iter().find_map(|a| match a {
            Json::Obj(a) if a.get("name") == Some(&Json::str("fault_blame_pins_on_stall")) => {
                a.get("observed")
            }
            _ => None,
        }),
        _ => None,
    };
    if let Some(Json::Bool(pinned)) = pins {
        t.note(format!(
            "fault-era blame {} on stall phases (retry / lock_wait / failover / seal)",
            if *pinned { "pins" } else { "does NOT pin" }
        ));
    }
    t
}

/// Renders a flight-recorder triage bundle: the failing op, its span tree,
/// the ring, and the era notes.
fn bundle_text(m: &std::collections::BTreeMap<String, Json>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "triage bundle #{} — reason: {}",
        as_u64(m.get("bundle_seq")),
        as_str(m.get("reason")),
    );
    if let Some(Json::Obj(op)) = m.get("op") {
        let elapsed = as_u64(op.get("elapsed_ns"));
        let mut t = Table::new(
            format!(
                "failing op: {} #{} ({} us)",
                as_str(op.get("kind")),
                as_u64(op.get("id")),
                elapsed / 1_000
            ),
            &["phase", "blame us", "share"],
        );
        if let Some(Json::Obj(blame)) = op.get("blame") {
            let mut entries: Vec<(&String, u64)> =
                blame.iter().map(|(k, v)| (k, as_u64(Some(v)))).collect();
            entries.sort_by_key(|&(k, ns)| (u64::MAX - ns, k.clone()));
            for (phase, ns) in entries.into_iter().filter(|&(_, ns)| ns > 0) {
                t.row(vec![
                    phase.clone(),
                    format!("{}", ns / 1_000),
                    match (ns * 100).checked_div(elapsed) {
                        Some(pct) => format!("{pct}%"),
                        None => "-".to_string(),
                    },
                ]);
            }
        }
        let _ = writeln!(out, "{t}");
    }
    if let Some(Json::Arr(spans)) = m.get("spans") {
        let _ = writeln!(out, "span tree ({} spans):", spans.len());
        for s in spans {
            let Json::Obj(x) = s else { continue };
            let depth = as_u64(x.get("depth")) as usize;
            let _ = writeln!(
                out,
                "  {}{} [{} +{} us]",
                "  ".repeat(depth),
                as_str(x.get("phase")),
                as_u64(x.get("start_ns")) / 1_000,
                as_u64(x.get("dur_ns")) / 1_000,
            );
        }
    }
    if let Some(Json::Arr(notes)) = m.get("era_notes") {
        let _ = writeln!(
            out,
            "era notes ({} kept, {} dropped):",
            notes.len(),
            as_u64(m.get("era_notes_dropped"))
        );
        for n in notes {
            let Json::Obj(x) = n else { continue };
            let _ = writeln!(
                out,
                "  {:>10} us  {}.{} arg={}",
                as_u64(x.get("at_ns")) / 1_000,
                as_str(x.get("cat")),
                as_str(x.get("name")),
                as_u64(x.get("arg")),
            );
        }
    }
    if let Some(Json::Arr(ring)) = m.get("ring") {
        let mut t = Table::new(
            format!("flight ring ({} recent ops, oldest first)", ring.len()),
            &[
                "kind",
                "op",
                "window",
                "elapsed us",
                "blame",
                "blame us",
                "share",
                "error",
            ],
        );
        for r in ring {
            let Json::Obj(x) = r else { continue };
            t.row(blame_row(
                as_str(x.get("kind")),
                as_u64(x.get("id")),
                "-",
                as_u64(x.get("elapsed_ns")),
                as_str(x.get("error")),
                x.get("blame").unwrap_or(&Json::Null),
            ));
        }
        let _ = writeln!(out, "{t}");
    }
    out
}

/// Renders a selftime document: what each experiment cost the host, the
/// costliest first. `-` marks a field the document does not carry.
fn selftime_table(m: &std::collections::BTreeMap<String, Json>, top: usize) -> Table {
    let mut t = Table::new(
        format!(
            "host cost per experiment, costliest first (total {} ms)",
            as_u64(m.get("total_wall_ns")) / 1_000_000
        ),
        &[
            "experiment",
            "wall ms",
            "events",
            "cancelled",
            "peak pending",
            "events/s",
        ],
    );
    let mut rows: Vec<(&String, &Json)> = match m.get("experiments") {
        Some(Json::Obj(exps)) => exps.iter().collect(),
        _ => Vec::new(),
    };
    rows.sort_by_key(|(id, e)| {
        let Json::Obj(x) = e else {
            return (0, (*id).clone());
        };
        (u64::MAX - as_u64(x.get("wall_ns")), (*id).clone())
    });
    for (id, e) in rows.into_iter().take(top) {
        let Json::Obj(x) = e else { continue };
        let count = |key: &str| match x.get(key) {
            Some(v) => as_u64(Some(v)).to_string(),
            None => "-".to_string(),
        };
        t.row(vec![
            id.clone(),
            format!("{}", as_u64(x.get("wall_ns")) / 1_000_000),
            count("events"),
            count("events_cancelled"),
            count("peak_pending_events"),
            count("events_per_sec"),
        ]);
    }
    t
}

/// Renders a parsed document — bench report, triage bundle or selftime
/// companion — as ranked tables.
///
/// # Errors
///
/// A human-readable message when the document is neither shape, or a bench
/// report carries no `exemplars` block (run `figures --json` including an
/// experiment that exports one, e.g. E17).
pub fn triage_text(doc: &Json, top: usize) -> Result<String, String> {
    let Json::Obj(m) = doc else {
        return Err("triage input must be a JSON object".into());
    };
    match as_str(m.get("schema")) {
        "rstore-triage-v1" => Ok(bundle_text(m)),
        "rstore-selftime-v1" => Ok(format!("{}\n", selftime_table(m, top))),
        "rstore-bench-v1" => {
            let Some(Json::Obj(exps)) = m.get("experiments") else {
                return Err("bench report has no experiments object".into());
            };
            let mut out = String::new();
            for (id, exp) in exps {
                let Json::Obj(x) = exp else { continue };
                if let Some(block) = x.get("exemplars") {
                    let table = exemplars_table(id, block, x.get("asserts"), top);
                    let _ = writeln!(out, "{table}");
                }
            }
            if out.is_empty() {
                return Err("no experiment in this report exports an exemplars block \
                     (generate one with `figures --json` including e17)"
                    .into());
            }
            Ok(out)
        }
        other => Err(format!(
            "unrecognised document schema {other:?} \
             (expected rstore-bench-v1, rstore-triage-v1 or rstore-selftime-v1)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn bench_doc() -> Json {
        parse(
            r#"{
  "schema": "rstore-bench-v1",
  "run_id": "t",
  "experiments": {
    "e17": {
      "id": "e17",
      "asserts": [{"name": "fault_blame_pins_on_stall", "expected": "true",
                   "observed": true, "pass": true}],
      "exemplars": {
        "fault_window": 3,
        "exemplars_len": 2,
        "exemplars": [
          {"id": 7, "kind": "get", "window": 3, "rank": 0, "start_ns": 151000000,
           "elapsed_ns": 40000000, "span_count": 9, "error": "timeout",
           "blame_ns": {"retry": 38000000, "wire": 1000000, "client": 1000000}},
          {"id": 2, "kind": "put", "window": 1, "rank": 0, "start_ns": 50000000,
           "elapsed_ns": 200000, "span_count": 4, "error": null,
           "blame_ns": {"wire": 150000, "client": 50000}}
        ]
      }
    }
  }
}"#,
        )
        .expect("test doc parses")
    }

    #[test]
    fn report_triage_ranks_worst_first() {
        let text = triage_text(&bench_doc(), 10).expect("triage");
        let slow = text.find("#7").expect("slow op listed");
        let fast = text.find("#2").expect("fast op listed");
        assert!(slow < fast, "worst op must rank first:\n{text}");
        assert!(text.contains("retry"), "dominant phase shown:\n{text}");
        assert!(text.contains("95%"), "blame share shown:\n{text}");
        assert!(text.contains("pins"), "stall verdict shown:\n{text}");
    }

    #[test]
    fn top_limits_rows() {
        let text = triage_text(&bench_doc(), 1).expect("triage");
        assert!(text.contains("#7"));
        assert!(!text.contains("#2"), "top=1 must keep only the worst");
    }

    #[test]
    fn bundle_triage_renders_spans_and_ring() {
        let doc = parse(
            r#"{
  "schema": "rstore-triage-v1", "reason": "timeout", "bundle_seq": 1,
  "op": {"id": 9, "kind": "get", "start_ns": 150000000, "elapsed_ns": 30000000,
         "spans": 3, "error": "timeout",
         "blame": {"retry": 29000000, "post": 1000000}},
  "spans": [
    {"phase": "post", "start_ns": 150000000, "dur_ns": 1000000, "depth": 0},
    {"phase": "retry", "start_ns": 151000000, "dur_ns": 29000000, "depth": 0},
    {"phase": "wire", "start_ns": 151000000, "dur_ns": 1000000, "depth": 1}
  ],
  "ring": [{"id": 8, "kind": "put", "start_ns": 140000000, "elapsed_ns": 200000,
            "spans": 2, "error": null, "blame": {"wire": 200000}}],
  "era_notes_dropped": 0,
  "era_notes": [{"at_ns": 150000000, "cat": "fault", "name": "crash", "arg": 2}],
  "gauges": {"rdma.doorbells": 12}
}"#,
        )
        .expect("bundle parses");
        let text = triage_text(&doc, 10).expect("triage");
        assert!(text.contains("reason: timeout"), "{text}");
        assert!(text.contains("failing op: get #9"), "{text}");
        assert!(text.contains("retry"), "{text}");
        assert!(text.contains("fault.crash"), "{text}");
        assert!(text.contains("flight ring (1 recent ops"), "{text}");
        // Span nesting is shown by indentation: the wire span (depth 1) is
        // indented one level deeper than its retry parent.
        assert!(text.contains("  retry ["), "{text}");
        assert!(text.contains("    wire ["), "{text}");
    }

    #[test]
    fn selftime_triage_ranks_experiments_by_wall_clock() {
        let doc = parse(
            r#"{
  "schema": "rstore-selftime-v1", "run_id": "t", "total_wall_ns": 9000000000,
  "experiments": {
    "e14": {"wall_ns": 2000000000, "events": 5000000, "events_cancelled": 3000000,
            "peak_pending_events": 412, "events_per_sec": 2500000.0},
    "e15": {"wall_ns": 7000000000}
  }
}"#,
        )
        .expect("selftime parses");
        let text = triage_text(&doc, 10).expect("triage");
        let slow = text.find("e15").expect("e15 listed");
        let fast = text.find("e14").expect("e14 listed");
        assert!(slow < fast, "costliest experiment first:\n{text}");
        assert!(text.contains("total 9000 ms"), "{text}");
        assert!(text.contains("3000000"), "cancelled events shown:\n{text}");
        assert!(text.contains("412"), "peak pending shown:\n{text}");
        assert!(text.contains("2500000"), "event rate shown:\n{text}");
    }

    #[test]
    fn unrecognised_documents_error_out() {
        let doc = parse(r#"{"schema": "something-else"}"#).expect("parses");
        assert!(triage_text(&doc, 10).is_err());
        let doc = parse(r#"{"schema": "rstore-bench-v1", "experiments": {"e1": {"id": "e1"}}}"#)
            .expect("parses");
        let err = triage_text(&doc, 10).expect_err("no exemplars block");
        assert!(err.contains("exemplars"), "{err}");
    }
}
