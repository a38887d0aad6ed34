//! The repository benchmark: end-to-end and per-layer metrics of the
//! phased-logic/EE toolchain on three workloads.
//!
//! ```text
//! perfbench --workload table3|stream|serve --seed N --seconds S --trace 0|1
//! perfbench pin          # print pinned/table3.tsv for the canonical seed
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run, and
//! the spans go to `.bench_build/perfbench/trace-<workload>-<seed>.jsonl`.
//! A `host` line (core count, compiler, peak memory) precedes the result.
//! See `BENCHMARK.json` for what each workload and metric stands for.

#![forbid(unsafe_code)]

mod layers;
mod serve;
mod stream;
mod table3;
mod trace;
mod util;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("pin") {
        if let Err(e) = table3::write_pinned() {
            eprintln!("perfbench pin: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload table3|stream|serve --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "table3" => table3::run(&args),
        "stream" => stream::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (table3|stream|serve)");
            std::process::exit(2);
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("host {}", util::host_json());
    println!("{}", out.to_json());
}
