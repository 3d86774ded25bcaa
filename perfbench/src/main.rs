//! The repository benchmark: four serving workloads against in-process
//! `Router` and loopback `NetServer` instances.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the end-to-end measurement; `--trace 1` runs the
//! separate traced measurement that reports per-layer figures and writes
//! its spans under `.bench_out/`. The last line of standard output is
//! one JSON object with the run's result. See `perfbench/README.md`.

mod check;
mod closedloop;
mod drive;
mod e2e;
mod gen;
mod report;
mod setup;
mod spans;
mod spec;
mod stats;
mod traced;
mod wireloop;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_at: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <wire-lookup|inproc-cold|wire-score|refresh> \
--seed <n> --seconds <s> --trace <0|1> [--corrupt-reply <k>]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corrupt_at: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            // Test hook: flip one bit of the k-th reply before it is
            // checked, to show that a wrong reply fails the run.
            "--corrupt-reply" => args.corrupt_at = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced::run(&spec, args.seed, args.seconds, args.corrupt_at)
    } else {
        e2e::run(&spec, args.seed, args.seconds, args.corrupt_at)
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
