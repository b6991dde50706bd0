//! `perfbench --workload <sky_wire|tpch_tight|tpch_refresh> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a report of every metric by name and unit, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Exits with 1 when any answer differs from the naive twin's, 2 on bad
//! arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <sky_wire|tpch_tight|tpch_refresh> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => seconds = v,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag {value}")),
            },
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        trace_dir: Some(PathBuf::from(".bench_trace")),
    };
    eprintln!(
        "perfbench: {} seed {seed}, {seconds} s, trace {}",
        workload.name(),
        u8::from(trace)
    );
    let outcome = run(&cfg);
    print!("{}", outcome.render());
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.json_line(names));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
