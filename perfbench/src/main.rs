//! Benchmark of the fault-tolerant task-graph scheduler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid|fanout|kernels|service|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it runs the traced pass and reports the per-layer
//! metrics. Every metric is printed as a `metric` line with its unit and
//! basis; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every op passed its checks. See `perfbench/README.md`.

mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::{result_line, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", a.seconds));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <grid|fanout|kernels|service|all> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let cfg = run::Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    println!(
        "workload {} seed {} seconds {} trace {} workers {} (available parallelism)",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.threads
    );
    let out = run::run(&cfg);
    for note in &out.notes {
        println!("{note}");
    }
    let (catalog, zero_ok) = if cfg.trace {
        (&PER_LAYER[..], true)
    } else {
        (&END_TO_END[..], false)
    };
    let (metrics, problems) = out.values.render(catalog, zero_ok);
    let t = &out.tally;
    println!("ops: {} failed of {} attempted", t.failed, t.attempted);
    for e in t.errors.iter().chain(&problems) {
        println!("error: {e}");
    }
    let correct = t.failed == 0 && t.attempted > 0 && problems.is_empty();
    println!("{}", result_line(correct, t.attempted, t.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in its own process (so each gets its own peak
/// resident set), forward their output and end with one combined result
/// whose metric names are prefixed by the workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let mut args = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("flag parsed")
            + 1;
        args[at] = w.name().to_string();
        let child = Command::new(&exe).args(&args).output();
        let stdout = match child {
            Ok(o) => {
                correct &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                correct = false;
                eprintln!("error: {}: {e}", w.name());
                continue;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in &lines {
            println!("{l}");
            if let Some(rest) = l.strip_prefix("metric ") {
                let mut f = rest.split_whitespace();
                if let (Some(name), Some("="), Some(value), Some(unit)) =
                    (f.next(), f.next(), f.next(), f.next())
                {
                    metrics.push(format!(
                        "\"{}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                        w.name()
                    ));
                }
            }
            if let Some(rest) = l.strip_prefix("ops: ") {
                let nums: Vec<u64> = rest
                    .split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect();
                if let [f, a] = nums[..] {
                    failed += f;
                    attempted += a;
                }
            }
        }
        correct &= last.starts_with("{\"correct\": true");
        println!();
    }
    let metrics = format!("{{{}}}", metrics.join(", "));
    println!(
        "{}",
        result_line(correct && attempted > 0, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload grid --seed 42 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("grid", 42, 3.0, true)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
