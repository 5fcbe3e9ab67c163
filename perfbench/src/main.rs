//! `perfbench` — the end-to-end and per-layer benchmark of `cundef`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-exec --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. It builds the release `cundef` from
//! the checkout, generates the workload's inputs from the seed, drives
//! the binary, checks every answer against the one the input was built
//! with, and prints the metrics; the last line is one JSON object.
//! `--trace 1` instead times each layer's public entry point in process
//! on the same inputs. See `perfbench/README.md` for the workloads,
//! metrics and predictions.

mod answer;
mod batch;
mod corpus;
mod product;
mod serve;
mod stats;
mod trace;

use batch::Batch;
use std::process::ExitCode;
use trace::{Format, Phase};

/// Which end-to-end metric each per-layer metric should move, on which
/// workload, and where it should stay flat.
const PREDICTIONS: &[(&str, &str)] = &[
    (
        "lexer.",
        "moves throughput_cps, cpu_ms_per_check on batch-frontend; flat on batch-exec",
    ),
    (
        "parser.",
        "moves throughput_cps, cpu_ms_per_check on batch-frontend; flat on batch-exec",
    ),
    (
        "analysis.",
        "moves throughput_cps, cpu_ms_per_check on batch-frontend; flat on serve-mixed hits",
    ),
    (
        "compile.",
        "moves throughput_cps on batch-exec; flat on batch-frontend",
    ),
    (
        "vm.",
        "moves throughput_cps, cpu_ms_per_check on batch-exec; flat on batch-frontend",
    ),
    (
        "render.",
        "moves throughput_cps on batch-frontend, latency_p50_ms (hits) on serve-mixed",
    ),
    (
        "cache.hash",
        "moves latency_p50_ms (hits) on serve-mixed; flat on batch workloads",
    ),
    (
        "cache.lookup",
        "moves latency_p50_ms (hits) on serve-mixed; flat on batch workloads",
    ),
    (
        "cache.",
        "moves throughput_cps, latency_p50_ms on serve-mixed; flat on batch workloads",
    ),
    (
        "serve.",
        "moves latency_p50_ms, throughput_cps on serve-mixed; flat on batch workloads",
    ),
    (
        "trace.coverage",
        "share of the product's CPU per check the layers explain",
    ),
];

const USAGE: &str = "usage: perfbench --workload batch-exec|batch-frontend|serve-mixed \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<stats::Report, String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let product = product::build()?;
    let work = product::target_dir()
        .join("perfbench")
        .join(format!("{}-{}", args.workload, args.seed));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("clearing {}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}, {jobs} CPUs, cundef {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        product.version
    );
    match args.workload.as_str() {
        "batch-exec" => Batch {
            units: corpus::batch_exec(args.seed)?,
            phase: Phase::All,
            format: Format::Json,
        }
        .run(&product, &work, jobs, args.seconds, args.trace),
        "batch-frontend" => Batch {
            units: corpus::batch_frontend(args.seed),
            phase: Phase::Translation,
            format: Format::Sarif,
        }
        .run(&product, &work, jobs, args.seconds, args.trace),
        "serve-mixed" => serve::run(
            &product,
            &corpus::hot_set(args.seed)?,
            args.seed,
            jobs,
            args.seconds,
            args.trace,
            &work,
        ),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                let prediction = PREDICTIONS
                    .iter()
                    .find(|(prefix, _)| m.name.starts_with(prefix))
                    .map_or("", |(_, p)| p);
                println!(
                    "{:<28} {:>14.4} {:<6} {prediction}",
                    m.name, m.value, m.unit
                );
            }
            for b in &report.broken {
                println!("perfbench: FAILED: {b}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
