//! The AT-GIS benchmark: one command runs one of four seeded
//! workloads against the public API, checks every answer against an
//! oracle, and prints its end-to-end metrics (or, with `--trace 1`,
//! its per-layer metrics) by name with units. The last line of
//! standard output is the machine-readable JSON result.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc_scan --seed 1 --seconds 20 --trace 0
//! ```

mod adhoc;
mod common;
mod ingest;
mod replay;
mod served;
mod trace;

use common::{calibration_mbps, Args};

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let calibration_before = calibration_mbps();
    let mut report = match args.workload.as_str() {
        "adhoc_scan" => adhoc::run_scan(&args),
        "adhoc_join" => adhoc::run_join(&args),
        "ingest" => ingest::run(&args),
        "served" => served::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?} (adhoc_scan, adhoc_join, ingest, served)");
            std::process::exit(2);
        }
    };
    let calibration = (calibration_before + calibration_mbps()) / 2.0;
    println!("bench.calibration_mbps: {calibration} MiB/s (pure-std hashing loop)");
    report.set("bench.calibration_mbps", calibration);
    std::process::exit(report.finish(args.trace));
}
