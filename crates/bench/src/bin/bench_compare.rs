//! `bench_compare` — diff two suite documents and fail on regressions.
//!
//! The gate for the committed trajectory: load a baseline `BENCH_<n>.json`
//! and a current run, match cells by id, and exit nonzero when a
//! comparable cell's per-tick time grew beyond the noise threshold, its
//! join checksum drifted, or the matrix shrank. Incomparable cells (quick
//! vs full scale) are skipped with a note; `--schema-only` skips only the
//! wall-clock diff (what CI's bench-smoke job uses, since wall-clock does
//! not transfer across machines) — a checksum drift between comparable
//! cells still fails the run.
//!
//! Exit codes: 0 clean, 1 regression/drift/missing cells, 2 usage or
//! parse error (including the `null` a writer emits for a non-finite
//! measurement — a poisoned snapshot is refused, not diffed around).
//!
//! Run: `cargo run -p sj-bench --release --bin bench_compare --
//! BASELINE.json CURRENT.json [--threshold 1.5] [--schema-only]`

use sj_bench::compare::{compare, load_file, Finding, DEFAULT_THRESHOLD};

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare BASELINE.json CURRENT.json [--threshold RATIO] [--schema-only]"
    );
    std::process::exit(2);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut schema_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|t| t.is_finite() && *t > 1.0)
                    .unwrap_or_else(|| {
                        eprintln!("--threshold wants a finite ratio > 1.0");
                        std::process::exit(2);
                    });
            }
            "--schema-only" => schema_only = true,
            _ if !arg.starts_with('-') && paths.len() < 2 => paths.push(arg),
            _ => usage(),
        }
    }
    if paths.len() != 2 {
        usage();
    }

    // load_file names the offending document in every rejection, so a
    // bad snapshot is attributable when two are in play.
    let baseline = load_file(&paths[0]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let current = load_file(&paths[1]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let report = compare(&baseline, &current, threshold, schema_only);
    let mut skipped = 0usize;
    for finding in &report.findings {
        match finding {
            Finding::Regression { id, ratio } => {
                println!("REGRESSION  {id}: {ratio:.2}x slower (threshold {threshold:.2}x)");
            }
            Finding::ChecksumDrift { id } => {
                println!(
                    "DRIFT       {id}: join checksum or pair count changed at pinned parameters"
                );
            }
            Finding::Missing { id } => println!("MISSING     {id}: cell absent from current run"),
            Finding::Improvement { id, ratio } => println!("improvement {id}: {ratio:.2}x"),
            Finding::Incomparable { .. } | Finding::BelowNoiseFloor { .. } => skipped += 1,
        }
    }
    println!(
        "compared {} cells ({} skipped: different scale or below noise floor, {} new), \
         baseline {} mode vs current {} mode{}",
        report.compared,
        skipped,
        report.added,
        baseline.mode,
        current.mode,
        if schema_only { ", schema-only" } else { "" }
    );
    if report.passed() {
        println!("OK: no regressions");
    } else {
        println!("FAIL: {} fatal finding(s)", report.failures().len());
        std::process::exit(1);
    }
}
