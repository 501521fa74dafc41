//! `bench`: the repository's one benchmark runner.
//!
//! ```text
//! bench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! bench --aa [--seed <u64>] [--seconds <n>]
//! ```
//!
//! Without `--workload` all four workloads run in order. The last line of
//! standard output of each run is its JSON result; the report for a person
//! goes to standard error. `--out` also writes the result with its
//! metadata to a file and, for a traced run, the spans to
//! `trace-<workload>.json` beside it.

use std::path::Path;
use std::process::ExitCode;

use vectorh_perfbench::report;
use vectorh_perfbench::run::{run, RunOpts, RunReport};
use vectorh_perfbench::spec::{Workload, WORKLOADS};
use vectorh_perfbench::trace;
use vectorh_perfbench::workloads::Budget;
use vectorh_perfbench::{BenchError, Result};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    aa: bool,
}

fn usage() -> BenchError {
    BenchError(
        "usage: bench [--workload tpch_power|scan_q1q6|htap_trickle|frontdoor_mix] \
         [--seed <u64>] [--seconds <n>] [--trace 0|1] [--out <file>] [--aa]"
            .into(),
    )
}

fn parse_args() -> Result<Args> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 24.0,
        trace: false,
        out: None,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--aa" {
            args.aa = true;
            continue;
        }
        let value = it.next().ok_or_else(usage)?;
        let bad = || BenchError(format!("{flag}: cannot use '{value}'"));
        match flag.as_str() {
            "--workload" => args.workloads = vec![Workload::from_name(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value),
            _ => return Err(usage()),
        }
    }
    if args.out.is_some() && args.workloads.len() != 1 {
        return Err(BenchError(
            "--out names one file, so it needs --workload".into(),
        ));
    }
    Ok(args)
}

fn write_out(out: &str, r: &RunReport) -> Result<()> {
    std::fs::write(out, report::out_json(r))?;
    if r.opts.trace {
        let beside =
            Path::new(out).with_file_name(format!("trace-{}.json", r.opts.workload.name()));
        std::fs::write(beside, trace::to_json(&r.spans))?;
    }
    Ok(())
}

/// Run each workload three times untraced (seed, seed again, seed + 1) and
/// hold every end-to-end metric against its own bound.
fn aa(args: &Args) -> Result<bool> {
    let mut rows = Vec::new();
    for &workload in &args.workloads {
        let go = |seed| {
            run(RunOpts {
                workload,
                seed,
                budget: Budget::Seconds(args.seconds),
                trace: false,
                sf: None,
            })
        };
        let runs = [go(args.seed)?, go(args.seed)?, go(args.seed + 1)?];
        if let Some(bad) = runs.iter().find(|r| !r.correct()) {
            eprint!("{}", report::human(bad));
            return Ok(false);
        }
        rows.extend(report::aa_rows(&runs));
    }
    print!("{}", report::aa_table(&rows));
    Ok(rows.iter().all(report::AaRow::within_bound))
}

fn main_inner() -> Result<bool> {
    let args = parse_args()?;
    if args.aa {
        return aa(&args);
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        let r = run(RunOpts {
            workload,
            seed: args.seed,
            budget: Budget::Seconds(args.seconds),
            trace: args.trace,
            sf: None,
        })?;
        eprint!("{}", report::human(&r));
        if let Some(out) = &args.out {
            write_out(out, &r)?;
        }
        println!("{}", report::result_line(&r));
        all_correct &= r.correct();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench: a check failed (see the report above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
