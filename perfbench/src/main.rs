//! `perfbench --workload <live_feed|live_mixed|sim_day> --seed <n>
//! --seconds <s> --trace <0|1> [--clients <n>] [--work-dir <dir>]`
//!
//! Runs one workload, prints a human-readable report, and prints as its
//! last line one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 when an output check fails, 2 on bad arguments or
//! a run that could not complete.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::{run, Options, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <live_feed|live_mixed|sim_day> --seed <n> --seconds <s> \
         --trace <0|1> [--clients <n>] [--work-dir <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .map_or_else(|| usage(&format!("{flag} needs a value")), String::as_str)
        })
    };
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("{flag}: cannot parse {v:?}")))
    }
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload = Workload::parse(workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload:?}")));
    let seed = num(
        "--seed",
        value("--seed").unwrap_or_else(|| usage("--seed is required")),
    );
    let seconds: f64 = num("--seconds", value("--seconds").unwrap_or("10"));
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace must be 0 or 1, not {other:?}")),
    };
    let mut opts = Options::new(workload, seed, seconds, trace);
    if let Some(v) = value("--clients") {
        opts.clients = num("--clients", v);
    }
    if let Some(v) = value("--work-dir") {
        opts.work_dir = PathBuf::from(v);
    }
    opts
}

fn main() {
    let process_start = Instant::now();
    let opts = parse_args();
    let outcome = match run(&opts, process_start) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: run failed: {err}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for check in &outcome.checks {
        println!(
            "# check {}: {} — {}",
            if check.passed { "ok" } else { "FAILED" },
            check.name,
            check.detail
        );
    }
    let reported = outcome.reported(opts.trace);
    for m in &reported.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        reported.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
