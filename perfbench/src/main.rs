//! The PairwiseHist serving benchmark.
//!
//! ```text
//! perfbench --workload <dashboard|adhoc|ingest> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <dir A> <dir B>
//! ```
//!
//! A run prints progress to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! measures the end-to-end metrics against a served table; `--trace 1`
//! replays the same inputs in-process, layer by layer, and reports the
//! per-layer metrics. Any failed correctness check exits with code 1.
//! `compare` reads two directories of saved runs (one file per run, named
//! `<workload>-<seed>.json`) and flags the metrics whose median in the second
//! is worse than in the first by more than the bound `BENCHMARK.json` gives.

mod accuracy;
mod compare;
mod data;
mod inputs;
mod queries;
mod replay;
mod served;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Inputs, BASE_ROWS};

/// Scratch space (the WALs) in the working directory, removed on every
/// exit path, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or(format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    if !["dashboard", "adhoc", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, scratch: &std::path::Path) -> Result<served::Outcome, String> {
    // The traced run replays continuation batches on every workload.
    let extra = if args.workload == "ingest" || args.trace {
        served::INGEST_BATCHES
    } else {
        0
    };
    let inputs = Inputs::generate(args.seed, extra);
    let adhoc = (args.workload == "adhoc").then(|| queries::Adhoc::new(&inputs.base, args.seed));
    eprintln!(
        "{} seed {}: {} base rows, {} dashboard templates",
        args.workload,
        args.seed,
        BASE_ROWS,
        inputs.dashboard.len(),
    );
    if args.trace {
        replay::run(
            &args.workload,
            &inputs,
            adhoc.as_ref(),
            scratch,
            args.seconds,
        )
    } else if args.workload == "ingest" {
        served::ingest_workload(&inputs, args.seconds, &scratch.join("wal"))
    } else {
        served::read_workload(&inputs, adhoc.as_ref(), args.seconds)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(PathBuf::from(format!(
        ".perfbench-tmp-{}",
        std::process::id()
    )));
    let started = std::time::Instant::now();
    let outcome = run(&args, &scratch.0);
    drop(scratch);
    eprintln!("run took {:.1} s", started.elapsed().as_secs_f64());
    match outcome {
        Ok(o) => {
            for v in &o.violations {
                eprintln!("CHECK FAILED: {v}");
            }
            let correct = o.violations.is_empty();
            println!(
                "{}",
                stats::result_line(correct, o.attempted, o.failed, &o.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
