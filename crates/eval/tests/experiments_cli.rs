//! The `experiments` binary's `--help` names every flag its parser
//! accepts.

use std::process::Command;

#[test]
fn help_names_every_accepted_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--help")
        .output()
        .expect("run experiments --help");
    assert!(out.status.success(), "{out:?}");
    let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
    for flag in [
        "--table N",
        "--all",
        "--seed S",
        "--paper-cf",
        "--ablations",
        "--seeds N",
        "--extraction",
        "--jobs N",
        "--json",
    ] {
        assert!(usage.contains(flag), "usage omits {flag}: {usage}");
    }
}
