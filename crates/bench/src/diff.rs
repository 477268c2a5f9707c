//! Leaf-by-leaf comparison of two `BENCH_*.json` documents.
//!
//! Backs the `bench diff` CLI and CI's baseline gate. The simulator is
//! deterministic, so a default-seed run reproduces the committed baseline
//! byte for byte: every leaf — each number, flag, string and table cell —
//! must equal the baseline's exactly. The one exception is the top-level
//! `run_id`, which names the run rather than measuring it. A node that
//! disappears, appears or changes type is a finding too, so a baseline is
//! regenerated deliberately when a change moves what is measured
//! (`EXPERIMENTS.md`, "Baselines and the exact gate").

use std::collections::BTreeSet;

use crate::json::Json;

/// One divergence between baseline and current report.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Dot-separated path of the diverging node, e.g.
    /// `experiments.e12.ops.per_op[0].time_ns.wire`.
    pub path: String,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// Loads one side of a comparison, turning the usual operator mistakes —
/// wrong path, truncated export, stale artifact — into a one-line error
/// that names the file and says what to do about it.
///
/// # Errors
///
/// A human-readable message naming `path` when the file is missing,
/// unreadable, empty, or not valid JSON.
pub fn load_report(role: &str, path: &str) -> Result<Json, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(format!(
                "{role} report {path} not found \
                 (generate it with `figures --json --runid <id> all`)"
            ));
        }
        Err(e) => return Err(format!("{role} report {path} unreadable: {e}")),
    };
    if text.trim().is_empty() {
        return Err(format!(
            "{role} report {path} is empty (the export was interrupted?)"
        ));
    }
    crate::json::parse(&text).map_err(|e| format!("{role} report {path} is not valid JSON: {e}"))
}

/// Compares two bench reports and returns every finding, in document order.
/// An empty result means the current report reproduces the baseline.
pub fn diff_reports(baseline: &Json, current: &Json) -> Vec<Finding> {
    let mut findings = Vec::new();
    walk("", baseline, current, &mut findings);
    findings
}

fn push(findings: &mut Vec<Finding>, path: &str, detail: String) {
    findings.push(Finding {
        path: if path.is_empty() { "<root>" } else { path }.to_string(),
        detail,
    });
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(path: &str, baseline: &Json, current: &Json, out: &mut Vec<Finding>) {
    match (baseline, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            let keys: BTreeSet<&String> = b.keys().chain(c.keys()).collect();
            for key in keys {
                let at = join(path, key);
                match (b.get(key), c.get(key)) {
                    _ if at == "run_id" => {}
                    (Some(bv), Some(cv)) => walk(&at, bv, cv, out),
                    (Some(_), None) => push(out, &at, "missing from current report".into()),
                    _ => push(
                        out,
                        &at,
                        "not in baseline (regenerate the baseline to accept)".into(),
                    ),
                }
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                push(
                    out,
                    path,
                    format!(
                        "length changed: baseline {} vs current {}",
                        b.len(),
                        c.len()
                    ),
                );
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                walk(&format!("{path}[{i}]"), bv, cv, out);
            }
        }
        (b, c) if kind(b) != kind(c) => push(
            out,
            path,
            format!("type changed: baseline {} vs current {}", kind(b), kind(c)),
        ),
        (b, c) => {
            if b != c {
                push(
                    out,
                    path,
                    format!(
                        "changed: baseline {} vs current {}",
                        b.render().trim_end(),
                        c.render().trim_end()
                    ),
                );
            }
        }
    }
}

fn kind(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A report shaped like the committed baseline: a run id, an E10 block
    /// with a correctness counter and a flag, an E12 per-op cost ledger,
    /// and a table.
    fn doc(run_id: &str, errors: u64, healthy: bool, wire_ns: u64, cell: &str) -> Json {
        parse(&format!(
            r#"{{"schema": "rstore-bench-v1", "run_id": "{run_id}", "experiments": {{
                "e10": {{"availability": {{"data_errors": {errors},
                    "healthy_after_repair": {healthy}}}}},
                "e12": {{"ops": {{"per_op": [{{"op": "get",
                    "rtts_per_op": {{"p50": 1, "max": 2}},
                    "time_ns": {{"client": 0, "wire": {wire_ns}}}}}]}},
                    "tables": [{{"title": "E12a", "headers": ["IO size", "Gb/s"],
                        "rows": [["4KiB", "{cell}"]], "notes": []}}]}}
            }}}}"#
        ))
        .expect("fixture parses")
    }

    fn base() -> Json {
        doc("seed", 0, true, 33732, "14.98")
    }

    fn paths(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.path.as_str()).collect()
    }

    #[test]
    fn identical_reports_are_clean() {
        assert_eq!(diff_reports(&base(), &base()), vec![]);
    }

    #[test]
    fn run_id_is_not_a_finding() {
        let renamed = doc("pr", 0, true, 33732, "14.98");
        assert_eq!(diff_reports(&base(), &renamed), vec![]);
    }

    #[test]
    fn a_one_unit_change_to_any_leaf_is_a_finding() {
        // 1 ns in 33 732 is a 0.003% drift: still a different measurement.
        let findings = diff_reports(&base(), &doc("seed", 0, true, 33733, "14.98"));
        assert_eq!(
            paths(&findings),
            ["experiments.e12.ops.per_op[0].time_ns.wire"],
            "{findings:?}"
        );
        assert!(findings[0].detail.contains("33732"), "{findings:?}");
        assert!(findings[0].detail.contains("33733"), "{findings:?}");
    }

    #[test]
    fn a_changed_table_cell_is_a_finding() {
        let findings = diff_reports(&base(), &doc("seed", 0, true, 33732, "14.99"));
        assert_eq!(
            paths(&findings),
            ["experiments.e12.tables[0].rows[0][1]"],
            "{findings:?}"
        );
        assert!(findings[0].detail.contains("\"14.98\""), "{findings:?}");
    }

    #[test]
    fn findings_are_listed_in_document_order() {
        let findings = diff_reports(&base(), &doc("pr", 1, false, 33733, "14.99"));
        assert_eq!(
            paths(&findings),
            [
                "experiments.e10.availability.data_errors",
                "experiments.e10.availability.healthy_after_repair",
                "experiments.e12.ops.per_op[0].time_ns.wire",
                "experiments.e12.tables[0].rows[0][1]",
            ]
        );
    }

    #[test]
    fn structural_changes_are_findings() {
        let mut missing = base();
        if let Json::Obj(m) = &mut missing {
            let Some(Json::Obj(exps)) = m.get_mut("experiments") else {
                unreachable!()
            };
            exps.remove("e10");
        }
        let findings = diff_reports(&base(), &missing);
        assert_eq!(paths(&findings), ["experiments.e10"]);
        assert!(findings[0].detail.contains("missing"));
        // The reverse direction: a new metric also needs a new baseline.
        let findings = diff_reports(&missing, &base());
        assert_eq!(paths(&findings), ["experiments.e10"]);
        assert!(findings[0].detail.contains("not in baseline"));
        // A number that became a string is a type change, not a value change.
        let retyped = parse(&base().render().replace("33732", "\"33732\"")).expect("parse");
        let findings = diff_reports(&base(), &retyped);
        assert!(findings[0].detail.contains("type changed"), "{findings:?}");
    }

    #[test]
    fn load_report_errors_name_the_file() {
        let err = load_report("baseline", "/nonexistent/BENCH_seed.json")
            .expect_err("missing file must fail");
        assert!(err.contains("/nonexistent/BENCH_seed.json"), "{err}");
        assert!(err.contains("not found"), "{err}");
        assert!(err.contains("baseline"), "{err}");

        let dir = std::env::temp_dir().join("rstore_diff_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "  \n").expect("write");
        let err = load_report("current", empty.to_str().unwrap()).expect_err("empty must fail");
        assert!(err.contains("is empty"), "{err}");

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").expect("write");
        let err = load_report("current", bad.to_str().unwrap()).expect_err("bad json must fail");
        assert!(err.contains("not valid JSON"), "{err}");

        let good = dir.join("good.json");
        std::fs::write(&good, "{\"schema\": \"x\"}").expect("write");
        load_report("current", good.to_str().unwrap()).expect("valid file must load");
    }

    #[test]
    fn diffs_parsed_documents() {
        let reparsed = parse(&base().render()).expect("parse");
        assert_eq!(diff_reports(&base(), &reparsed), vec![]);
    }
}
