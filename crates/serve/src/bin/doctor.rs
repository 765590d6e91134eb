//! `panoptes-doctor` — offline analysis of serve-path evidence.
//!
//! Reads one or more files, each either a trace (`panoptes_obs` JSONL,
//! e.g. from `repro --trace-out` or drained from a traced server) or a
//! flight-recorder post-mortem dump, and
//! prints per-request waterfalls, latency attribution with the
//! critical phase called out, the top-N slowest studies, and cache
//! causality (who built each key, who replayed or waited on it).
//!
//! ```text
//! panoptes-doctor [--top N] [--check] FILE...
//! ```
//!
//! `--check` additionally checks each trace document (it re-emits byte
//! for byte, its spans balance, a span starts and ends in the same
//! request, no span is its own parent) and validates every timing
//! trailer (phases + other must reconcile with the measured
//! completion), and exits non-zero on a violation — the CI smoke gate.

use std::process::ExitCode;

use panoptes_serve::doctor;

fn usage() -> ExitCode {
    eprintln!("usage: panoptes-doctor [--top N] [--check] FILE...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut top = 5usize;
    let mut check = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                top = n;
            }
            "--check" => check = true,
            "--help" | "-h" => {
                println!("panoptes-doctor: waterfalls, attribution and cache causality");
                println!("from trace JSONL or flight-recorder dumps.");
                println!();
                println!("usage: panoptes-doctor [--top N] [--check] FILE...");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => return usage(),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return usage();
    }

    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("panoptes-doctor: {file}: {e}");
                failed = true;
                continue;
            }
        };
        println!("== {file} ==");
        if doctor::is_flight_dump(&text) {
            match doctor::parse_flight_dump(&text) {
                Ok(dump) => print!("{}", doctor::render_flight_dump(&dump)),
                Err(e) => {
                    eprintln!("panoptes-doctor: {file}: {e}");
                    failed = true;
                }
            }
            continue;
        }
        match doctor::analyze_jsonl(&text) {
            Ok(report) => {
                print!("{}", doctor::render_report(&report, top));
                if check {
                    if let Err(e) = doctor::check_trace(&text) {
                        eprintln!("panoptes-doctor: {file}: CHECK FAILED: {e}");
                        failed = true;
                    } else {
                        println!(
                            "check: the trace re-emits byte for byte; its spans balance and \
                             stay in their requests"
                        );
                    }
                    // 2ms of slack: phase slots are timed with separate
                    // Instant reads, so sub-ms drift per phase is
                    // measurement noise, not an attribution hole.
                    if let Err(e) = report.validate(2_000) {
                        eprintln!("panoptes-doctor: {file}: CHECK FAILED: {e}");
                        failed = true;
                    } else {
                        println!("check: every timing trailer reconciles");
                    }
                }
            }
            Err(e) => {
                eprintln!("panoptes-doctor: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
