//! Bad command lines fail loudly: the `repro` binary prints `error: ...`
//! on stderr and exits 2, before it runs anything, for an unknown id, an
//! unknown flag (including the retired `--streaming` and `--no-cache`),
//! `--n 0` and `--jobs 0`.

use std::process::Command;

fn assert_rejected(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: stderr {stderr:?}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "repro {args:?}: stderr {stderr:?} lacks {needle:?}"
    );
    assert!(out.stdout.is_empty(), "repro {args:?} ran before rejecting its input");
}

#[test]
fn unknown_id_exits_2() {
    assert_rejected(&["fig99"], "unknown id \"fig99\"");
    assert_rejected(&["fig1", "fig99"], "unknown id \"fig99\"");
}

#[test]
fn unknown_flag_exits_2() {
    assert_rejected(&["all", "--bogus-flag"], "unknown flag \"--bogus-flag\"");
    assert_rejected(&["fig4", "--streaming"], "unknown flag \"--streaming\"");
    assert_rejected(&["fig4", "--no-cache"], "unknown flag \"--no-cache\"");
}

#[test]
fn zero_counts_exit_2() {
    assert_rejected(&["fig4", "--n", "0"], "--n");
    assert_rejected(&["fig4", "--jobs", "0"], "--jobs");
}

#[test]
fn malformed_value_exits_2() {
    assert_rejected(&["fig4", "--n", "many"], "invalid value \"many\" for --n");
    assert_rejected(&["fig4", "--seed"], "--seed requires a value");
}
