//! Every workload at tiny scale: the checks pass, no operation fails,
//! and every metric is printed by name with its unit — at the default
//! seed and at one other.

use perfbench::{result_json, run, Params, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

const DEFAULT_SEED: u64 = 1;

fn smoke(workload: &str, seed: u64, trace: bool) -> perfbench::Outcome {
    let params = Params {
        seed,
        seconds: 0.3,
        trace,
        smoke: true,
        // Tests run in parallel threads of one process; each run gets
        // its own directory for spans and temporary files.
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}-{seed}-{trace}")),
    };
    let outcome = run(workload, &params).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(outcome.attempted > 0, "{workload}: nothing checked");
    assert_eq!(outcome.failed, 0, "{workload} seed {seed}: failed operations");
    let line = result_json(&outcome, trace);
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    let table = if trace { PER_LAYER } else { END_TO_END };
    for metric in table {
        let value = outcome.metrics.get(metric.name).copied();
        assert!(value.is_some_and(f64::is_finite), "{workload}: {} missing", metric.name);
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", metric.name))
                && line.contains(&format!("\"unit\": \"{}\"", metric.unit)),
            "{workload}: {} not printed with its unit",
            metric.name
        );
    }
    outcome
}

#[test]
fn every_workload_reports_every_end_to_end_metric_at_two_seeds() {
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, 2] {
            let outcome = smoke(workload, seed, false);
            for metric in END_TO_END {
                assert!(outcome.metrics[metric.name] > 0.0, "{workload}: {} is 0", metric.name);
            }
        }
    }
}

#[test]
fn traced_runs_measure_each_workloads_own_layers() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, DEFAULT_SEED, true);
        for metric in PER_LAYER.iter().filter(|m| m.workload == *workload) {
            // Nothing is rejected by an unlimited service.
            if metric.name != "serve.rejected" {
                assert!(outcome.metrics[metric.name] != 0.0, "{workload}: {} is 0", metric.name);
            }
        }
        assert!(outcome.metrics["bench.trace_overhead_ratio"] > 0.0);
    }
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_code_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"better\":").count(), END_TO_END.len() + PER_LAYER.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks workload {w}");
    }
}
