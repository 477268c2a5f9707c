//! Verifies the invariants a `BENCH_*.json` report asserts about itself.
//!
//! Backs the `bench check` CLI, which replaced CI's per-experiment `grep`s:
//! every E6 and E8–E17 entry of a report carries an `asserts` array of
//! `{name, expected, observed, pass}` built from the stats the experiment
//! already computes ([`crate::report`]). A report is in policy when every
//! such entry has the array and every assert in it passed.

use crate::json::Json;

/// The experiments that must assert their invariants (the ones whose claims
/// are correctness or cost invariants rather than curves).
const SELF_CHECKING: [&str; 11] = [
    "e6", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17",
];

/// Returns one line per violation in `report`: a failed assert, or a
/// self-checking experiment without an `asserts` array. Empty means the
/// report is in policy. Experiments absent from the report are not its
/// concern: a one-experiment smoke export checks that experiment.
///
/// # Errors
///
/// When `report` is not a bench report at all.
pub fn check_report(report: &Json) -> Result<Vec<String>, String> {
    let Json::Obj(top) = report else {
        return Err("not a JSON object".into());
    };
    let Some(Json::Obj(experiments)) = top.get("experiments") else {
        return Err("no `experiments` object (not a BENCH_*.json report?)".into());
    };
    let mut violations = Vec::new();
    for (id, entry) in experiments {
        let asserts = match entry {
            Json::Obj(fields) => fields.get("asserts"),
            _ => None,
        };
        let Some(Json::Arr(asserts)) = asserts else {
            if SELF_CHECKING.contains(&id.as_str()) {
                violations.push(format!("{id}: no `asserts` block"));
            }
            continue;
        };
        for assert in asserts {
            let Json::Obj(a) = assert else {
                violations.push(format!("{id}: malformed assert {}", assert.render().trim()));
                continue;
            };
            if a.get("pass") == Some(&Json::Bool(true)) {
                continue;
            }
            let field = |key: &str| match a.get(key) {
                Some(Json::Str(s)) => s.clone(),
                Some(other) => other.render().trim().to_string(),
                None => "?".to_string(),
            };
            violations.push(format!(
                "{id}: {} expected {}, observed {}",
                field("name"),
                field("expected"),
                field("observed")
            ));
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn report(e12_pass: bool, e13_has_asserts: bool) -> Json {
        let e13 = if e13_has_asserts {
            r#", "asserts": []"#
        } else {
            ""
        };
        parse(&format!(
            r#"{{"schema": "rstore-bench-v1", "experiments": {{
                "e1": {{"id": "e1", "tables": []}},
                "e12": {{"id": "e12", "asserts": [
                    {{"name": "data_errors", "expected": "== 0", "observed": 0, "pass": true}},
                    {{"name": "speedup_4k_ok", "expected": "true", "observed": {e12_pass}, "pass": {e12_pass}}}
                ]}},
                "e13": {{"id": "e13"{e13}}}
            }}}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn a_report_whose_asserts_all_pass_is_in_policy() {
        // E1 asserts nothing and need not; E14 is absent and not missed.
        assert_eq!(check_report(&report(true, true)), Ok(vec![]));
    }

    #[test]
    fn a_failed_assert_and_a_missing_block_are_both_listed() {
        let violations = check_report(&report(false, false)).unwrap();
        assert_eq!(
            violations,
            [
                "e12: speedup_4k_ok expected true, observed false",
                "e13: no `asserts` block"
            ]
        );
    }

    #[test]
    fn anything_but_a_bench_report_is_an_error() {
        assert!(check_report(&parse("[1, 2]").unwrap()).is_err());
        assert!(check_report(&parse(r#"{"schema": "rstore-triage-v1"}"#).unwrap()).is_err());
    }
}
