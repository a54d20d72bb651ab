//! Command-line entry point; see the crate docs of `dmwbench`.

use dmwbench::{measure, workload};
use std::process::ExitCode;

const USAGE: &str = "usage: dmwbench --workload <auction-n32|chaos-n8|blackout-n128> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: workload::Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        measure::traced(args.workload, args.seed, args.seconds)
    } else {
        measure::end_to_end(args.workload, args.seed, args.seconds)
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
