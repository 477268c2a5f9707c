//! The seventeen experiments of the reproduction (see `DESIGN.md`'s
//! per-experiment index). Each returns one or more [`Table`]s; the
//! `figures` binary prints them, and `EXPERIMENTS.md` records
//! paper-vs-measured.

pub mod e10_availability;
pub mod e11_integrity;
pub mod e12_smallio;
pub mod e13_timeline;
pub mod e14_ycsb;
pub mod e15_elasticity;
pub mod e16_rawspeed;
pub mod e17_forensics;
pub mod e1_verbs;
pub mod e2_control;
pub mod e3_datapath;
pub mod e4_bandwidth;
pub mod e5_ablation;
pub mod e6_pagerank;
pub mod e7_scaling;
pub mod e8_sort;
pub mod e9_sort_scaling;

use crate::table::Table;

const SEED_VAR: &str = "RSTORE_BENCH_SEED";

/// The value `RSTORE_BENCH_SEED` mixes into every base seed: `0` when the
/// variable is unset, so committed outputs stay byte-identical on a default
/// run, else its decimal `u64`.
///
/// # Errors
///
/// A message naming the variable when it is set to anything else. A typo
/// must not fall back to the default seed: CI's seed matrix would run one
/// seed three times and go green.
pub fn parse_seed(raw: Option<&str>) -> Result<u64, String> {
    match raw {
        None => Ok(0),
        Some(v) => v
            .trim()
            .parse()
            .map_err(|e| format!("{SEED_VAR}={v:?} is not a decimal u64 seed: {e}")),
    }
}

/// Mixes an experiment's base seed with `RSTORE_BENCH_SEED` from the
/// environment, letting CI re-run the failure/integrity experiments across
/// several seeds. Exits with status 2 when the variable does not parse.
pub fn seed_mix(base: u64) -> u64 {
    let raw = std::env::var_os(SEED_VAR).map(|v| v.to_string_lossy().into_owned());
    match parse_seed(raw.as_deref()) {
        Ok(mix) => base ^ mix,
        Err(msg) => {
            eprintln!("bench: {msg}");
            std::process::exit(2);
        }
    }
}

/// Runs one experiment by id (`"e1"`..`"e17"`), returning its tables.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run(id: &str) -> Vec<Table> {
    match id {
        "e1" => e1_verbs::run(),
        "e2" => e2_control::run(),
        "e3" => e3_datapath::run(),
        "e4" => e4_bandwidth::run(),
        "e5" => e5_ablation::run(),
        "e6" => e6_pagerank::run(),
        "e7" => e7_scaling::run(),
        "e8" => e8_sort::run(),
        "e9" => e9_sort_scaling::run(),
        "e10" => e10_availability::run(),
        "e11" => e11_integrity::run(),
        "e12" => e12_smallio::run(),
        "e13" => e13_timeline::run(),
        "e14" => e14_ycsb::run(),
        "e15" => e15_elasticity::run(),
        "e16" => e16_rawspeed::run(),
        "e17" => e17_forensics::run(),
        other => panic!("unknown experiment id {other:?} (expected e1..e17)"),
    }
}

/// All experiment ids in order.
pub const ALL: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];

#[cfg(test)]
mod tests {
    use super::parse_seed;

    #[test]
    fn seed_is_absent_or_a_number_never_a_silent_default() {
        assert_eq!(parse_seed(None), Ok(0), "unset leaves the base seed");
        assert_eq!(parse_seed(Some("3")).map(|m| 0xE10 ^ m), Ok(0xE13));
        assert_eq!(parse_seed(Some(" 3\n")), Ok(3), "as CI's YAML may pass it");
        for bad in ["x3", "", "-1", "0x3"] {
            let err = parse_seed(Some(bad)).expect_err(bad);
            assert!(err.contains("RSTORE_BENCH_SEED"), "{err}");
        }
    }
}
