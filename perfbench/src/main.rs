//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-pipeline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the host, one `name value unit` line per metric (with the
//! sample count and quartiles behind a median), and as the last line a
//! JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones and writes the spans under `perfbench/out/`.

use perfbench::{host_line, quantile, result_json, run, Params, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(String, Params), String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                params.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(params.seconds.is_finite() && params.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required; one of {WORKLOADS:?}"))?;
    Ok((workload, params))
}

fn main() -> ExitCode {
    let (workload, params) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        params.seed, params.seconds, params.trace
    );
    let outcome = match run(&workload, &params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if params.trace { PER_LAYER } else { END_TO_END };
    for perfbench::Metric { name, unit, .. } in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        match outcome.samples.get(name) {
            Some(s) => println!(
                "{name} {value} {unit} (median of {}; quartiles {} .. {})",
                s.len(),
                quantile(s, 0.25),
                quantile(s, 0.75)
            ),
            None => println!("{name} {value} {unit}"),
        }
    }
    println!("{}", result_json(&outcome, params.trace));
    ExitCode::SUCCESS
}
