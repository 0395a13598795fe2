//! The runner's command line, through the binary: experiment ids and
//! nothing else.

use std::process::Command;

#[test]
fn anything_but_an_experiment_id_exits_4_naming_the_known_ones() {
    for bad in [&["E99"][..], &["E5", "--quick"], &["e5"], &["--help"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cal-bench")).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(4), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}: nothing may run before the arguments are read");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let named = |arg: &&str| stderr.starts_with(&format!("unknown experiment {arg:?}\n"));
        assert!(bad.iter().any(named) || bad == ["--help"], "{stderr}");
        for known in ["usage: ", "\n  E5 ", "\n  ablations "] {
            assert!(stderr.contains(known), "{stderr}");
        }
    }
}
