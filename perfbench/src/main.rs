//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints provenance, notes and exact counts, then as its last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits non-zero on bad arguments.

use perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
    };
    let out = run(&cfg);
    let prov: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("provenance {{{}}}", prov.join(", "));
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("counts {{{}}}", counts.join(", "));
    for note in &out.notes {
        println!("{note}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!("{}", out.result_line(trace));
    ExitCode::SUCCESS
}
