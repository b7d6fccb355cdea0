//! ```text
//! fahana-perfbench --workload campaign_grid|serve_ingest
//!                  [--seed N] [--seconds S] [--trace 0|1] [--bin-dir DIR]
//! ```
//!
//! Prints diagnostics, then as its last line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). `--bin-dir` holds
//! the release `fahana-campaign` and `fahana-serve` it checks against and
//! drives; `run.sh` builds them and passes it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fahana_perfbench::output::{catalogue, result_line, RunResult};
use fahana_perfbench::{campaign, serve};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 2022;

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    bin_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        bin_dir: PathBuf::from(".bench_build/release"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| "--seed expects a number")?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                cli.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--bin-dir" => cli.bin_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn run(cli: &Cli, work_dir: &Path) -> Result<RunResult, String> {
    match cli.workload.as_str() {
        "campaign_grid" => campaign::run(cli.seed, cli.seconds, cli.traced, work_dir, &cli.bin_dir),
        "serve_ingest" => serve::run(cli.seed, cli.seconds, cli.traced, work_dir, &cli.bin_dir),
        other => Err(format!(
            "unknown workload `{other}` (campaign_grid, serve_ingest)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("fahana-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // scratch space inside the checkout; the span trace stays behind
    let work_dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.seed,
        u8::from(cli.traced)
    ));
    std::fs::remove_dir_all(&work_dir).ok();
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("fahana-perfbench: {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&cli, &work_dir).and_then(|result| {
        let declared = [catalogue("end_to_end")?, catalogue("per_layer")?];
        Ok((result, declared))
    });
    clean(&work_dir);
    match outcome {
        Ok((mut result, [end_to_end, per_layer])) => {
            // a metric the workload sets under a name BENCHMARK.json does
            // not declare would never be printed
            let undeclared: Vec<_> = result
                .metrics
                .names()
                .filter(|name| !end_to_end.iter().chain(&per_layer).any(|(n, _)| n == name))
                .collect();
            for name in undeclared {
                result
                    .errors
                    .push(format!("metric `{name}` is not declared in BENCHMARK.json"));
            }
            for error in &result.errors {
                eprintln!("check failed: {error}");
            }
            let printed = if cli.traced { per_layer } else { end_to_end };
            println!("{}", result_line(&result, &printed));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("fahana-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Removes everything a run left in `work_dir` except the span trace.
fn clean(work_dir: &Path) {
    if !work_dir.join("trace.jsonl").exists() {
        std::fs::remove_dir_all(work_dir).ok();
        return;
    }
    let Ok(entries) = std::fs::read_dir(work_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            std::fs::remove_dir_all(&path).ok();
        } else if path.file_name().is_some_and(|n| n != "trace.jsonl") {
            std::fs::remove_file(&path).ok();
        }
    }
}
