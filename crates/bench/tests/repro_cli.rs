//! `repro`'s command line: a flag without its value, an unparsable
//! value, an empty population or an unknown section is a usage error —
//! the usage line on stderr and exit status 2 — never a panic, and
//! nothing is printed on stdout.

use std::process::Command;

use panoptes_bench::study::Phase;

#[test]
fn bad_command_lines_exit_2_with_the_usage_line() {
    let cases: [&[&str]; 6] = [
        &["--sites"],
        &["--seed", "0x51"],
        &["--jobs", "many"],
        &["--population", "0"],
        &["--only", "bogus"],
        &["--overlap"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed a document");
    }
}

#[test]
fn unknown_section_lists_every_section() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--only", "bogus"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in Phase::ALL.into_iter().flat_map(Phase::sections) {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
