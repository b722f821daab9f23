//! End-to-end and per-layer benchmark of the DDoS modeling system.
//!
//! Four workloads, each a different user of the system and each loading
//! different layers (crates):
//!
//! | workload | user | loads | bypasses |
//! |---|---|---|---|
//! | `paper-pipeline` | reproducer | astopo (Eq. 4), stats (ARIMA), neural, cart, core | serve |
//! | `model-zoo` | model comparison (E8) | cart, stats (regress), core (design) | astopo Eq. 4, serve |
//! | `serve-openloop` | `ddos-serve` operator | serve, cart scoring, exec fan-out | astopo, ARIMA, generation |
//! | `stream-columnar` | corpus producer | trace (stream, columnar), astopo (substrate) | models, Eq. 4 |
//!
//! An untraced run reports the end-to-end metrics of [`END_TO_END`]; a
//! traced run wraps the same public calls in [`span::Tracer`] spans and
//! reports the per-layer metrics of [`PER_LAYER`]. Every run checks the
//! workload's outputs and counts failed operations against attempted
//! ones.

pub mod pipeline;
pub mod serve;
pub mod span;
pub mod stream;
pub mod zoo;

use ddos_adversary::trace::CorpusConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The workload that measures it, or `*` for every workload.
    pub workload: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    workload: &'static str,
) -> Metric {
    Metric { name, unit, better, workload }
}

/// Every end-to-end metric. Each workload reports all of them; what the
/// "result" and the "items" are differs per workload and is documented
/// in each workload's module.
pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s", "lower", "*"),
    metric("peak_rss_mib", "MiB", "lower", "*"),
    metric("result_s", "s", "lower", "*"),
    metric("items_per_s", "1/s", "higher", "*"),
];

/// Every per-layer metric, with the workload that measures it. A traced
/// run prints all of them; one its workload does not measure reads 0.
/// The `<layer>.self_s` metrics are each crate's self time over the
/// traced pass; `bench.trace_overhead_ratio` is the traced `result_s`
/// over the untraced one.
pub const PER_LAYER: &[Metric] = &[
    metric("trace.generate_s", "s", "lower", "paper-pipeline"),
    metric("astopo.eq4_cold_s", "s", "lower", "paper-pipeline"),
    metric("astopo.eq4_warm_s", "s", "lower", "paper-pipeline"),
    metric("astopo.eq4_pairs", "count", "lower", "paper-pipeline"),
    metric("astopo.eq4_ns_per_pair", "ns", "lower", "paper-pipeline"),
    metric("stats.arima_search_s", "s", "lower", "paper-pipeline"),
    metric("core.fit_temporal_s", "s", "lower", "paper-pipeline"),
    metric("core.serve_temporal_s", "s", "lower", "paper-pipeline"),
    metric("exec.temporal_max_family_share", "ratio", "lower", "paper-pipeline"),
    metric("neural.fit_spatial_distribution_s", "s", "lower", "paper-pipeline"),
    metric("neural.fit_spatial_durations_s", "s", "lower", "paper-pipeline"),
    metric("cart.fit_spatiotemporal_s", "s", "lower", "paper-pipeline"),
    metric("core.serve_spatiotemporal_s", "s", "lower", "paper-pipeline"),
    metric("core.artifact_encode_us", "us", "lower", "paper-pipeline"),
    metric("core.artifact_decode_us", "us", "lower", "paper-pipeline"),
    metric("core.artifact_bytes", "bytes", "lower", "paper-pipeline"),
    metric("core.training_design_s", "s", "lower", "model-zoo"),
    metric("stats.regress_fit_s", "s", "lower", "model-zoo"),
    metric("cart.tree_fit_s", "s", "lower", "model-zoo"),
    metric("cart.forest_fit_s", "s", "lower", "model-zoo"),
    metric("cart.boosted_fit_s", "s", "lower", "model-zoo"),
    metric("cart.predict_s", "s", "lower", "model-zoo"),
    metric("cart.trees_grown", "count", "lower", "model-zoo"),
    metric("exec.forest_speedup", "ratio", "higher", "model-zoo"),
    metric("serve_p50_us", "us", "lower", "serve-openloop"),
    metric("serve_p99_us", "us", "lower", "serve-openloop"),
    metric("serve_burst_rps", "1/s", "higher", "serve-openloop"),
    metric("serve.submit_us", "us", "lower", "serve-openloop"),
    metric("serve.mean_batch_len", "count", "higher", "serve-openloop"),
    metric("serve.batches", "count", "lower", "serve-openloop"),
    metric("serve.score_us_per_req", "us", "lower", "serve-openloop"),
    metric("serve.queue_wait_us", "us", "lower", "serve-openloop"),
    metric("serve.late_p99_ms", "ms", "lower", "serve-openloop"),
    metric("serve.rejected", "count", "lower", "serve-openloop"),
    metric("exec.serve_worker_ratio", "ratio", "lower", "serve-openloop"),
    metric("serve.store_load_ms", "ms", "lower", "serve-openloop"),
    metric("write_records_per_s", "1/s", "higher", "stream-columnar"),
    metric("read_records_per_s", "1/s", "higher", "stream-columnar"),
    metric("trace.substrate_s", "s", "lower", "stream-columnar"),
    metric("trace.stream_next_s", "s", "lower", "stream-columnar"),
    metric("trace.columnar_encode_s", "s", "lower", "stream-columnar"),
    metric("trace.columnar_decode_s", "s", "lower", "stream-columnar"),
    metric("trace.bytes_per_record", "bytes", "lower", "stream-columnar"),
    metric("trace.self_s", "s", "lower", "*"),
    metric("astopo.self_s", "s", "lower", "*"),
    metric("stats.self_s", "s", "lower", "*"),
    metric("neural.self_s", "s", "lower", "*"),
    metric("cart.self_s", "s", "lower", "*"),
    metric("core.self_s", "s", "lower", "*"),
    metric("serve.self_s", "s", "lower", "*"),
    metric("bench.trace_overhead_ratio", "ratio", "lower", "*"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] =
    &["paper-pipeline", "model-zoo", "serve-openloop", "stream-columnar"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured phase runs (at least one pass always runs).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub smoke: bool,
    /// Where spans and temporary files go.
    pub out_dir: PathBuf,
}

/// Generator seed of the corpora models are fit on.
///
/// These corpora are fixed, stated inputs. The cost of fitting one swings
/// up to threefold with the generator seed (one family's bot-pool draw
/// sets most of the Eq. 4 work), so corpora of different seeds are inputs
/// of different sizes, not samples of one. `--seed` drives what the
/// workloads randomize on top of them: the pipeline's and the zoo's
/// model seeds and bootstrap draws, and the order of serving requests.
pub const CORPUS_SEED: u64 = 42;

/// Days of the corpus `paper-pipeline` and `model-zoo` fit on: the
/// medium configuration (all ten families, paper-scale topology) over
/// its first 30 days, 5,879 attacks at [`CORPUS_SEED`]. The full
/// 110-day medium corpus takes 11–13 s per pass; this one takes about
/// 2 s, so a run medians several passes and shrugs off a slow second of
/// the host.
const MODEL_CORPUS_DAYS: u32 = 30;

impl Params {
    /// The corpus `paper-pipeline` and `model-zoo` fit on; the small
    /// corpus in smoke mode.
    pub fn model_corpus(&self) -> CorpusConfig {
        if self.smoke {
            CorpusConfig::small()
        } else {
            CorpusConfig { days: MODEL_CORPUS_DAYS, ..CorpusConfig::medium() }
        }
    }

    /// Whether set-up should run again: at least three times (once in
    /// smoke mode) and, for cheap set-ups, until a second of set-up time
    /// has accumulated, so the median rests on enough samples.
    fn more_setup(&self, times: &[f64]) -> bool {
        let (min, max) = if self.smoke { (1, 1) } else { (3, 20) };
        times.len() < min || (times.len() < max && times.iter().sum::<f64>() < 1.0)
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The samples behind each metric reported as a median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a metric as the median of `samples`, keeping the samples.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, median(&samples));
        self.samples.insert(name, samples);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a failure that stopped the workload
/// before it could report.
pub fn run(workload: &str, params: &Params) -> Result<Outcome, String> {
    std::fs::create_dir_all(&params.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.out_dir.display()))?;
    let mut outcome = match workload {
        "paper-pipeline" => pipeline::run(params),
        "model-zoo" => zoo::run(params),
        "serve-openloop" => serve::run(params),
        "stream-columnar" => stream::run(params),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }?;
    let wanted = if params.trace { PER_LAYER } else { END_TO_END };
    for Metric { name, .. } in wanted {
        if params.trace {
            outcome.metrics.entry(name).or_insert(0.0);
        } else if !outcome.metrics.contains_key(name) {
            return Err(format!("{workload} did not measure {name}"));
        }
    }
    outcome.metrics.retain(|name, _| wanted.iter().any(|m| m.name == *name));
    // A metric that is not a finite number is a broken measurement.
    let broken = outcome.metrics.values().filter(|v| !v.is_finite()).count() as u64;
    outcome.check_many(broken, broken);
    Ok(outcome)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, Metric { name, unit, .. }) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
    )
}

/// The host every number was measured on.
pub fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={} cpu=\"{cpu}\" rustc=\"{}\" workers={} (default parallelism: all cores)",
        nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
        nproc(),
    )
}

/// Cores available to this process — the worker count every workload
/// runs with, since it uses the system's default parallelism.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process in MiB since start or
/// the last [`reset_peak_rss`]; NaN where `/proc/self/status` has none,
/// which the run reports as a failed measurement.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Lowers the peak resident set to the current one, so the next
/// [`peak_rss_mib`] covers only what runs after this call. Where the
/// kernel lacks the interface the peak simply keeps covering the whole
/// process.
pub(crate) fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `f` and returns its result with its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Median of `values` (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs `set_up` repeatedly (see [`Params::more_setup`]) and returns the
/// last result with every set-up time.
///
/// # Errors
///
/// The first set-up failure.
pub(crate) fn repeated_setup<T>(
    params: &Params,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    while params.more_setup(&times) {
        drop(last.take());
        let (value, secs) = timed(&mut set_up);
        times.push(secs);
        last = Some(value?);
    }
    Ok((last.expect("at least one set-up runs"), times))
}

/// What [`passes`] measured, one entry per pass.
#[derive(Debug)]
pub(crate) struct Passes<T> {
    /// Each pass's result.
    pub(crate) results: Vec<T>,
    /// Each pass's wall time in seconds.
    pub(crate) secs: Vec<f64>,
    /// Each pass's peak resident set in MiB.
    pub(crate) peak_mib: Vec<f64>,
}

/// Runs `pass` at least once and then again while another pass of the
/// last one's length still fits in `seconds`, timing each and resetting
/// the peak resident set before each.
pub(crate) fn passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Passes<T> {
    let started = Instant::now();
    let mut out = Passes { results: Vec::new(), secs: Vec::new(), peak_mib: Vec::new() };
    loop {
        reset_peak_rss();
        let (result, secs) = timed(&mut pass);
        out.results.push(result);
        out.secs.push(secs);
        out.peak_mib.push(peak_rss_mib());
        if started.elapsed().as_secs_f64() + secs > seconds {
            return out;
        }
    }
}

/// A directory for one run's temporary files, removed when dropped.
#[derive(Debug)]
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<out_dir>/tmp-<pid>-<label>`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub(crate) fn new(params: &Params, label: &str) -> Result<Self, String> {
        let dir = params.out_dir.join(format!("tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Self time per crate over the traced pass rooted at span `root`, as
/// the `<layer>.self_s` metrics, and spans written to the output
/// directory.
///
/// # Errors
///
/// When the span file cannot be written.
pub(crate) fn finish_trace(
    outcome: &mut Outcome,
    tracer: &span::Tracer,
    root: usize,
    workload: &str,
    params: &Params,
) -> Result<(), String> {
    let spans = tracer.spans();
    for (layer, time) in span::layer_self_times(&spans, root) {
        let name = format!("{layer}.self_s");
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            outcome.set(m.name, time.as_secs_f64());
        }
    }
    let path = params.out_dir.join(format!("spans-{workload}-seed{}.json", params.seed));
    tracer.write_json(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.check(true);
        o.set("result_s", 1.25);
        let line = result_json(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"result_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for Metric { name, unit, .. } in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
}
