//! Metric-level comparison of two `BENCH_*.json` documents.
//!
//! Backs the `bench diff` CLI and the CI perf-regression gate: the current
//! report is walked against a committed baseline and every numeric leaf is
//! checked under a relative tolerance. Presentation subtrees (`tables`) and
//! run identity (`run_id`) are skipped — the gate compares *metrics*, not
//! formatting — while a metric that disappears, appears, or changes type is
//! always a finding, so baselines must be refreshed deliberately when the
//! report schema grows.
//!
//! Counters that measure correctness rather than performance (for example
//! `data_errors`) and boolean health flags are compared exactly: no
//! tolerance makes a lost write acceptable. That covers the `pass` flag of
//! every entry of an experiment's `asserts` array (an assert's `observed`
//! number keeps its tolerance; whether it passed does not).

use crate::json::Json;

/// Keys whose values are correctness counters: any drift is a finding,
/// regardless of tolerance.
const EXACT_KEYS: [&str; 5] = [
    "abandoned",
    "data_errors",
    "false_positives",
    "loud_errors",
    "value_errors",
];

/// Path suffixes compared exactly, regardless of tolerance. Clean-path RTT
/// counts are design invariants, not performance numbers: a warm KV get
/// growing from 1 to 2 round trips is a 100% latency regression that a
/// relative tolerance of 25% — or even 99% — would wave through. Only the
/// median is pinned: fault-era maxima legitimately wander with retry
/// schedules, but the typical op's posting-round count is an API contract.
const EXACT_SUFFIXES: [&str; 1] = ["rtts_per_op.p50"];

/// Subtree keys excluded from comparison wherever they appear.
const SKIPPED_KEYS: [&str; 2] = ["tables", "run_id"];

/// Comparison policy for [`diff_reports`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Default relative tolerance for numeric leaves, as a fraction of the
    /// larger magnitude (`0.25` = 25% drift allowed).
    pub tolerance: f64,
    /// Per-metric overrides: the longest pattern that is a substring of a
    /// leaf's path wins over the default (`"smallio" -> 0.5` loosens every
    /// metric under the E12 block).
    pub overrides: Vec<(String, f64)>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.25,
            overrides: Vec::new(),
        }
    }
}

impl DiffOptions {
    fn tolerance_for(&self, path: &str) -> f64 {
        self.overrides
            .iter()
            .filter(|(pat, _)| path.contains(pat.as_str()))
            .max_by_key(|(pat, _)| pat.len())
            .map(|(_, tol)| *tol)
            .unwrap_or(self.tolerance)
    }
}

/// One divergence between baseline and current report.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Dot-separated path of the diverging node, e.g.
    /// `experiments.e12.smallio.sizes[2].batched_gbps`.
    pub path: String,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Ranking key for the worst-first report: the relative drift for a
    /// numeric leaf, [`f64::INFINITY`] for structural, type, exact-match,
    /// and flag findings (those are never acceptable, so they outrank any
    /// drift).
    pub severity: f64,
}

/// Orders findings worst-first: severity descending, path ascending for
/// deterministic output on ties (structural findings all rank `INFINITY`).
pub fn rank_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.severity
            .partial_cmp(&a.severity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
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
/// An empty result means the current report is within policy.
pub fn diff_reports(baseline: &Json, current: &Json, opts: &DiffOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    walk("", baseline, current, opts, &mut findings);
    findings
}

fn push(findings: &mut Vec<Finding>, path: &str, detail: String) {
    push_sev(findings, path, detail, f64::INFINITY);
}

fn push_sev(findings: &mut Vec<Finding>, path: &str, detail: String, severity: f64) {
    findings.push(Finding {
        path: if path.is_empty() { "<root>" } else { path }.to_string(),
        detail,
        severity,
    });
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(path: &str, baseline: &Json, current: &Json, opts: &DiffOptions, out: &mut Vec<Finding>) {
    match (baseline, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (key, bv) in b {
                if SKIPPED_KEYS.contains(&key.as_str()) {
                    continue;
                }
                match c.get(key) {
                    Some(cv) => walk(&join(path, key), bv, cv, opts, out),
                    None => push(out, &join(path, key), "missing from current report".into()),
                }
            }
            for key in c.keys() {
                if !SKIPPED_KEYS.contains(&key.as_str()) && !b.contains_key(key) {
                    push(
                        out,
                        &join(path, key),
                        "not in baseline (refresh the baseline to accept)".into(),
                    );
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
                walk(&format!("{path}[{i}]"), bv, cv, opts, out);
            }
        }
        (Json::Num(b), Json::Num(c)) => compare_numbers(path, b, c, opts, out),
        (Json::Bool(b), Json::Bool(c)) => {
            if b != c {
                push(
                    out,
                    path,
                    format!("flag changed: baseline {b} vs current {c}"),
                );
            }
        }
        (Json::Str(b), Json::Str(c)) => {
            if b != c {
                push(
                    out,
                    path,
                    format!("string changed: baseline {b:?} vs current {c:?}"),
                );
            }
        }
        (Json::Null, Json::Null) => {}
        (b, c) => push(
            out,
            path,
            format!("type changed: baseline {} vs current {}", kind(b), kind(c)),
        ),
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

fn compare_numbers(path: &str, b: &str, c: &str, opts: &DiffOptions, out: &mut Vec<Finding>) {
    let (Ok(bv), Ok(cv)) = (b.parse::<f64>(), c.parse::<f64>()) else {
        if b != c {
            push(out, path, format!("unparseable number: {b:?} vs {c:?}"));
        }
        return;
    };
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if EXACT_KEYS.contains(&leaf) {
        if bv != cv {
            push(
                out,
                path,
                format!("correctness counter changed: baseline {b} vs current {c}"),
            );
        }
        return;
    }
    if EXACT_SUFFIXES.iter().any(|s| path.ends_with(s)) {
        if bv != cv {
            push(
                out,
                path,
                format!(
                    "cost invariant changed: baseline {b} vs current {c} (exact match required)"
                ),
            );
        }
        return;
    }
    let scale = bv.abs().max(cv.abs());
    if scale == 0.0 {
        return;
    }
    let rel = (cv - bv).abs() / scale;
    let tol = opts.tolerance_for(path);
    if rel > tol {
        push_sev(
            out,
            path,
            format!(
                "drift {:.1}% exceeds tolerance {:.1}%: baseline {b} vs current {c}",
                rel * 100.0,
                tol * 100.0
            ),
            rel,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(ops: u64, gbps: f64, errors: u64, healthy: bool) -> Json {
        Json::obj([
            ("schema".to_string(), Json::str("rstore-bench-v1")),
            ("run_id".to_string(), Json::str(format!("r{ops}"))),
            (
                "experiments".to_string(),
                Json::obj([(
                    "e10".to_string(),
                    Json::obj([
                        ("id".to_string(), Json::str("e10")),
                        (
                            "tables".to_string(),
                            Json::Arr(vec![Json::str(format!("free-form {gbps}"))]),
                        ),
                        (
                            "availability".to_string(),
                            Json::obj([
                                ("ops_total".to_string(), Json::int(ops)),
                                ("gbps".to_string(), Json::float(gbps)),
                                ("data_errors".to_string(), Json::int(errors)),
                                ("healthy_after_repair".to_string(), Json::Bool(healthy)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn identical_reports_are_clean() {
        let a = doc(1000, 3.5, 0, true);
        assert_eq!(diff_reports(&a, &a, &DiffOptions::default()), vec![]);
    }

    #[test]
    fn run_id_and_tables_are_ignored() {
        let a = doc(1000, 3.5, 0, true);
        let mut b = doc(1000, 3.5, 0, true);
        if let Json::Obj(m) = &mut b {
            m.insert("run_id".into(), Json::str("other"));
        }
        assert_eq!(diff_reports(&a, &b, &DiffOptions::default()), vec![]);
    }

    #[test]
    fn drift_within_tolerance_passes_and_beyond_fails() {
        let base = doc(1000, 4.0, 0, true);
        let close = doc(1100, 3.6, 0, true); // 10% ops, 10% gbps
        assert_eq!(diff_reports(&base, &close, &DiffOptions::default()), vec![]);
        let far = doc(1000, 2.0, 0, true); // 50% gbps drop
        let findings = diff_reports(&base, &far, &DiffOptions::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "experiments.e10.availability.gbps");
        assert!(findings[0].detail.contains("50.0%"));
    }

    #[test]
    fn correctness_counters_and_flags_have_no_tolerance() {
        let base = doc(1000, 4.0, 0, true);
        let bad = doc(1000, 4.0, 1, false);
        let findings = diff_reports(&base, &bad, &DiffOptions::default());
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"experiments.e10.availability.data_errors"));
        assert!(paths.contains(&"experiments.e10.availability.healthy_after_repair"));
    }

    #[test]
    fn per_metric_override_beats_default() {
        let base = doc(1000, 4.0, 0, true);
        let far = doc(1000, 2.0, 0, true);
        let loose = DiffOptions {
            tolerance: 0.25,
            overrides: vec![("gbps".into(), 0.6)],
        };
        assert_eq!(diff_reports(&base, &far, &loose), vec![]);
        let tight = DiffOptions {
            tolerance: 0.6,
            overrides: vec![("gbps".into(), 0.1)],
        };
        assert_eq!(diff_reports(&base, &far, &tight).len(), 1);
    }

    #[test]
    fn structural_changes_are_findings() {
        let base = doc(1000, 4.0, 0, true);
        let mut missing = doc(1000, 4.0, 0, true);
        if let Json::Obj(m) = &mut missing {
            let Some(Json::Obj(exps)) = m.get_mut("experiments") else {
                unreachable!()
            };
            exps.remove("e10");
        }
        let findings = diff_reports(&base, &missing, &DiffOptions::default());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].detail.contains("missing"));
        // The reverse direction: a new metric also needs a baseline refresh.
        let findings = diff_reports(&missing, &base, &DiffOptions::default());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].detail.contains("not in baseline"));
    }

    fn ops_doc(rtts_p50: u64) -> Json {
        Json::obj([(
            "experiments".to_string(),
            Json::obj([(
                "e12".to_string(),
                Json::obj([(
                    "ops".to_string(),
                    Json::obj([(
                        "per_op".to_string(),
                        Json::Arr(vec![Json::obj([
                            ("op".to_string(), Json::str("get")),
                            (
                                "rtts_per_op".to_string(),
                                Json::obj([
                                    ("p50".to_string(), Json::int(rtts_p50)),
                                    ("max".to_string(), Json::int(rtts_p50 + 1)),
                                ]),
                            ),
                        ])]),
                    )]),
                )]),
            )]),
        )])
    }

    #[test]
    fn clean_path_rtt_p50_is_compared_exactly() {
        // 1 -> 2 RTTs is only 50% relative drift, but the suffix rule must
        // flag it even under an arbitrarily loose tolerance.
        let base = ops_doc(1);
        let regressed = ops_doc(2);
        let loose = DiffOptions {
            tolerance: 10.0,
            overrides: Vec::new(),
        };
        let findings = diff_reports(&base, &regressed, &loose);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(
            findings[0].path,
            "experiments.e12.ops.per_op[0].rtts_per_op.p50"
        );
        assert!(findings[0].detail.contains("cost invariant"));
        // The max leaf drifted too (2 -> 3) but stays within tolerance: only
        // the median is pinned.
        assert_eq!(diff_reports(&base, &base, &loose), vec![]);
    }

    #[test]
    fn an_assert_that_stops_passing_is_a_finding_at_any_tolerance() {
        let asserts = |io_errors: u64| {
            parse(&format!(
                r#"{{"experiments": {{"e13": {{"asserts": [{{"name": "io_errors",
                    "expected": "> 0", "observed": {io_errors}, "pass": {}}}]}}}}}}"#,
                io_errors > 0
            ))
            .expect("fixture parses")
        };
        let loose = DiffOptions {
            tolerance: 10.0,
            overrides: Vec::new(),
        };
        // What was observed may drift; whether it passed may not.
        assert_eq!(diff_reports(&asserts(40), &asserts(37), &loose), vec![]);
        let findings = diff_reports(&asserts(40), &asserts(0), &loose);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "experiments.e13.asserts[0].pass");
        assert!(findings[0].severity.is_infinite());
    }

    #[test]
    fn rank_orders_worst_first_with_exact_findings_on_top() {
        // Two numeric drifts (10x on gbps, 10% on ops under a 5% tolerance)
        // plus one exact correctness finding: ranking must lead with the
        // exact finding, then the bigger drift.
        let base = doc(1000, 4.0, 0, true);
        let cur = doc(1100, 0.4, 1, true);
        let tight = DiffOptions {
            tolerance: 0.05,
            overrides: Vec::new(),
        };
        let mut findings = diff_reports(&base, &cur, &tight);
        rank_findings(&mut findings);
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "experiments.e10.availability.data_errors",
                "experiments.e10.availability.gbps",
                "experiments.e10.availability.ops_total",
            ],
            "findings: {findings:?}"
        );
        assert!(findings[0].severity.is_infinite());
        assert!(findings[1].severity > findings[2].severity);
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
        let base = doc(1000, 4.0, 0, true);
        let reparsed = parse(&base.render()).expect("parse");
        assert_eq!(
            diff_reports(&base, &reparsed, &DiffOptions::default()),
            vec![]
        );
    }
}
