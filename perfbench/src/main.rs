//! `rrq-perfbench --workload <indexed-pool|churn> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints progress lines, then one JSON result line as the last line of
//! standard output. With `--trace 1` the Perfetto trace of the traced
//! pass is written to `perfbench/out/<workload>-<seed>.trace.json`.
//! Exits 2 on bad arguments and 1 when a set-up step fails.

use rrq_perfbench::{run, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-{seed}.trace.json", workload.name()))
    });
    Ok(Config {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        trace,
        scale: Scale::full(workload),
        trace_out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("rrq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} threads={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.window.as_secs(),
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match run(&cfg) {
        Ok(out) => {
            println!("# steps={} digest={:016x}", out.steps, out.digest);
            if let Some(path) = &cfg.trace_out {
                println!("# trace {}", path.display());
            }
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rrq-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
