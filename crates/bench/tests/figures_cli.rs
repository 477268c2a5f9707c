//! The `figures` binary checks every argument before it runs anything.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run figures")
}

#[test]
fn an_unknown_id_or_flag_is_a_usage_error_before_anything_runs() {
    for (args, bad) in [
        (&["e1", "e99"][..], "\"e99\""),
        (&["--jsn", "e1"][..], "\"--jsn\""),
    ] {
        let out = figures(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}: {err}");
        assert!(out.stdout.is_empty(), "figures {args:?} ran an experiment");
        assert!(err.contains(bad), "figures {args:?} must name {bad}: {err}");
        assert!(err.contains("usage: figures"), "{err}");
    }
}
