//! The seventeen experiments of the reproduction (see `DESIGN.md`'s
//! per-experiment index). Each module builds its own report
//! [`Entry`](crate::report::Entry): E1–E5 and E7 an `entry()` that runs
//! them; E6 and E8–E17 a `measure` that returns their stats, a `tables`
//! that renders them and an `entry(&stats)` that adds the structured blocks
//! and asserts. [`crate::report::EXPERIMENTS`] lists them in suite order;
//! `EXPERIMENTS.md` records paper-vs-measured.

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
