//! `serve-openloop`: `ddos-serve` as deployed.
//!
//! Set-up generates the small corpus, fits its spatiotemporal model (both
//! at [`CORPUS_SEED`]: the served model is a fixed input, since tree
//! depth sets the scoring cost), saves it as an artifact into a
//! `DirModelStore` and loads it back.
//! The service runs with `ServeConfig::unlimited()`: the default batch
//! policy and every core. Requests are the training-design rows of the
//! small corpus in an order shuffled by `--seed`.
//!
//! Phase 1 is an open loop: one submitter thread sends 25k requests per
//! second on a fixed schedule whatever the service does, and one
//! collector thread waits for the answers. Each request's latency runs
//! from when it was due, so a stall also counts against the requests it
//! delays. Phase 2 is a closed loop: submit a batch of 256, wait for
//! all, repeat.
//!
//! `result_s` is the phase-1 median latency and `items_per_s` the
//! phase-2 rate of requests answered per second. Both are taken per
//! window of [`WINDOW_S`] and reported as the median over windows, so a
//! short stall of the host moves one window, not the result. No Eq. 4,
//! ARIMA or generation runs while measuring: admission, the queue,
//! per-flush fan-out and batched tree scoring do.

use crate::span::Tracer;
use crate::{
    finish_trace, median, peak_rss_mib, quantile, repeated_setup, reset_peak_rss, timed, Outcome,
    Params, TempDir, CORPUS_SEED,
};
use ddos_adversary::astopo::Asn;
use ddos_adversary::model::artifact::ModelArtifact;
use ddos_adversary::model::pipeline::{Pipeline, PipelineConfig};
use ddos_adversary::model::spatiotemporal::{
    AttackForecast, InstanceFeatures, SpatioTemporalConfig, SpatioTemporalModel,
};
use ddos_adversary::serve::{
    DirModelStore, ForecastRequest, ForecastResponse, ForecastService, ForecastTicket, ModelStore,
    ServeConfig, ServeError,
};
use ddos_adversary::trace::{CorpusConfig, TraceGenerator};
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The store key the model is saved under.
const KEY: &str = "spatiotemporal";
/// Phase-1 requests per second. At 50k/s, a threefold slowdown of the
/// 2-core host it was sized on let the backlog pass the default
/// 4,096-request admission bound and requests were refused; at this rate
/// the bound leaves room for such stalls.
const OPEN_LOOP_RATE: f64 = 25_000.0;
/// Phase-2 batch size.
const BURST: usize = 256;
/// Share of the measured time given to phase 1; phase 2 gets the rest.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Length of the windows both phases are summarized over.
const WINDOW_S: f64 = 0.25;

/// Everything set-up leaves for the measured phases.
struct Served {
    store: Arc<dyn ModelStore>,
    /// Request features and the in-memory model's answer to each.
    pool: Vec<(InstanceFeatures, AttackForecast)>,
    load_s: f64,
    _dir: TempDir,
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// When set-up fails or the span file cannot be written.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let tracer = Tracer::new(params.trace);
    let rate = if params.smoke { 5_000.0 } else { OPEN_LOOP_RATE };
    let (served, setup) = repeated_setup(params, || set_up(params, &tracer))?;
    let mut outcome = Outcome::default();
    let open_s = params.seconds * OPEN_LOOP_SHARE;
    let burst_s = params.seconds - open_s;

    let phases = |tracer: &Tracer, outcome: &mut Outcome| -> Result<(OpenLoop, Vec<f64>), String> {
        let open = tracer.span("serve.open_loop", || open_loop(&served, rate, open_s, outcome))?;
        let burst = tracer.span("serve.burst", || burst(&served, None, burst_s, outcome))?;
        Ok((open, burst))
    };
    reset_peak_rss();
    let (open, rates) = phases(&Tracer::new(false), &mut outcome)?;
    let p50_s = median(&open.window_p50s());
    if !params.trace {
        outcome.set_median("setup_s", setup);
        outcome.set("peak_rss_mib", peak_rss_mib());
        outcome.set_median("result_s", open.window_p50s());
        outcome.set_median("items_per_s", rates);
        return Ok(outcome);
    }

    let root = tracer.spans().len();
    let (open, rates) = tracer.span("bench.pass", || phases(&tracer, &mut outcome))?;
    let traced_p50_s = median(&open.window_p50s());
    let rps = median(&rates);
    outcome.set("bench.trace_overhead_ratio", traced_p50_s / p50_s);
    outcome.set("serve_p50_us", traced_p50_s * 1e6);
    outcome.set("serve_p99_us", quantile(&open.latencies, 0.99) * 1e6);
    outcome.set("serve_burst_rps", rps);
    outcome.set("serve.submit_us", open.submit_s / open.lateness.len().max(1) as f64 * 1e6);
    outcome.set("serve.late_p99_ms", quantile(&open.lateness, 0.99) * 1e3);
    let mean_batch = open.served as f64 / open.batches.max(1) as f64;
    outcome.set("serve.mean_batch_len", mean_batch);
    outcome.set("serve.batches", open.batches as f64);
    outcome.set("serve.rejected", open.rejected as f64);
    outcome.set("serve.store_load_ms", served.load_s * 1e3);

    // Scoring alone, on batches of the size the service actually formed:
    // what is left of the latency is waiting in the queue and dispatch.
    let model = served.store.load(KEY).map_err(|e| e.to_string())?;
    let batch = (mean_batch.round() as usize).clamp(1, served.pool.len());
    let features: Vec<InstanceFeatures> = served.pool.iter().map(|(f, _)| *f).collect();
    let per_req: Vec<f64> = tracer.span("bench.probe", || {
        features
            .chunks_exact(batch)
            .cycle()
            .take(256)
            .map(|chunk| {
                let (_, secs) = timed(|| {
                    tracer.span("core.forecast_features", || {
                        black_box(model.forecast_features(chunk))
                    })
                });
                secs / batch as f64
            })
            .collect()
    });
    let score_us = median(&per_req) * 1e6;
    outcome.set("serve.score_us_per_req", score_us);
    outcome.set("serve.queue_wait_us", traced_p50_s * 1e6 - score_us * mean_batch);

    let serial = tracer.span("bench.probe", || burst(&served, Some(1), burst_s, &mut outcome))?;
    outcome.set("exec.serve_worker_ratio", median(&serial) / rps);
    finish_trace(&mut outcome, &tracer, root, "serve-openloop", params)?;
    Ok(outcome)
}

/// Generates the corpus, fits the model, saves it as an artifact into a
/// fresh store directory and loads it from there.
fn set_up(params: &Params, tracer: &Tracer) -> Result<Served, String> {
    let dir = TempDir::new(params, "serve-store")?;
    let corpus = tracer
        .span("trace.generate", || {
            TraceGenerator::new(CorpusConfig::small(), CORPUS_SEED).generate()
        })
        .map_err(|e| format!("corpus generation failed: {e}"))?;
    let config = PipelineConfig::fast();
    let model = tracer
        .span("cart.fit_spatiotemporal", || {
            Pipeline::new(config.clone(), CORPUS_SEED).fit_spatiotemporal(&corpus)
        })
        .map_err(|e| format!("spatiotemporal fit failed: {e}"))?;
    tracer
        .span("core.artifact_save", || model.save_artifact(&dir.path().join(format!("{KEY}.mdl"))))
        .map_err(|e| format!("artifact save failed: {e}"))?;
    let store: Arc<dyn ModelStore> = Arc::new(DirModelStore::open(dir.path()));
    let (loaded, load_s) = timed(|| tracer.span("serve.store_load", || store.load(KEY)));
    loaded.map_err(|e| format!("store load failed: {e}"))?;

    let (train, _) = corpus.split(config.split).map_err(|e| e.to_string())?;
    let (rows, _) =
        SpatioTemporalModel::training_design(train, &SpatioTemporalConfig::fast(), CORPUS_SEED)
            .map_err(|e| format!("request design failed: {e}"))?;
    let features: Vec<InstanceFeatures> =
        rows.iter().filter_map(|r| InstanceFeatures::from_row(r)).collect();
    let expected =
        model.forecast_features(&features).map_err(|e| format!("direct forecast failed: {e}"))?;
    if features.is_empty() {
        return Err("the small corpus gave no request rows".to_string());
    }
    // Shuffle the pool by seed so each seed sends its own request order.
    let mut pool: Vec<_> = features.into_iter().zip(expected).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, (splitmix64(params.seed, i as u64) % (i as u64 + 1)) as usize);
    }
    Ok(Served { store, pool, load_s, _dir: dir })
}

/// A splitmix64 draw keyed by `seed` and `index`.
fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request `i` of a phase: pool row `i mod len`, its index carried in the
/// target field so the answer can be matched to the row it scored.
fn request(served: &Served, i: usize) -> ForecastRequest {
    let idx = i % served.pool.len();
    ForecastRequest {
        source: (i % 64) as u64,
        target: Asn(idx as u32),
        features: served.pool[idx].0,
    }
}

/// Whether an answer is bit-identical to the direct forecast of its row.
fn answer_ok(served: &Served, answer: Result<ForecastResponse, ServeError>) -> bool {
    let bits = |f: &AttackForecast| [f.hour, f.day, f.magnitude, f.duration_secs].map(f64::to_bits);
    answer.is_ok_and(|r| {
        served
            .pool
            .get(r.target.0 as usize)
            .is_some_and(|(_, want)| bits(want) == bits(&r.forecast))
    })
}

/// What phase 1 observed.
struct OpenLoop {
    /// Requests sent per second.
    rate: f64,
    /// Seconds from due time to answer, per answered request, in order.
    latencies: Vec<f64>,
    /// Seconds each request was sent after its due time, per request sent.
    lateness: Vec<f64>,
    /// Total seconds spent inside `submit`.
    submit_s: f64,
    served: usize,
    batches: usize,
    rejected: usize,
}

impl OpenLoop {
    /// Each window's median latency.
    fn window_p50s(&self) -> Vec<f64> {
        let per_window = ((self.rate * WINDOW_S) as usize).max(1);
        self.latencies.chunks(per_window).map(median).collect()
    }
}

/// Phase 1: a fixed-rate schedule for `seconds`, answered on a collector
/// thread. Every request is one checked operation: it must be admitted,
/// resolve, and match the direct forecast bit for bit.
fn open_loop(
    served: &Served,
    rate: f64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<OpenLoop, String> {
    let handle = ForecastService::start(&served.store, KEY, ServeConfig::unlimited())
        .map_err(|e| e.to_string())?;
    let client = handle.client();
    let n = ((rate * seconds) as usize).max(1);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<(Instant, Result<ForecastTicket, ServeError>)>();
    let (latencies, lateness, submit_s) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut latencies = Vec::with_capacity(n);
            for (due, ticket) in rx {
                if answer_ok(served, ticket.and_then(ForecastTicket::wait)) {
                    latencies.push(due.elapsed().as_secs_f64());
                }
            }
            latencies
        });
        let submitter = s.spawn(move || {
            let mut lateness = Vec::with_capacity(n);
            let mut submit_s = 0.0;
            let start = Instant::now();
            for i in 0..n {
                let due = start + interval * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64());
                let (ticket, secs) = timed(|| client.submit(request(served, i)));
                submit_s += secs;
                if tx.send((due, ticket)).is_err() {
                    break;
                }
            }
            (lateness, submit_s)
        });
        let (lateness, submit_s) = submitter.join().expect("submitter thread panicked");
        let latencies = collector.join().expect("collector thread panicked");
        (latencies, lateness, submit_s)
    });
    let stats = handle.shutdown().map_err(|e| e.to_string())?;
    outcome.check_many(n as u64, (n - latencies.len()) as u64);
    Ok(OpenLoop {
        rate,
        latencies,
        lateness,
        submit_s,
        served: stats.served,
        batches: stats.batches,
        rejected: stats.rejected_overload + stats.rejected_rate,
    })
}

/// Phase 2: closed-loop batches of [`BURST`] for `seconds` on a service
/// with `workers`; returns each window's rate of requests answered per
/// second. Every request is one checked operation.
fn burst(
    served: &Served,
    workers: Option<usize>,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let config = ServeConfig { workers, ..ServeConfig::unlimited() };
    let handle = ForecastService::start(&served.store, KEY, config).map_err(|e| e.to_string())?;
    let client = handle.client();
    let started = Instant::now();
    let mut window = (Instant::now(), 0usize);
    let mut rates = Vec::new();
    let mut sent = 0usize;
    let mut failed = 0u64;
    while rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let requests: Vec<ForecastRequest> =
            (sent..sent + BURST).map(|i| request(served, i)).collect();
        match client.submit_batch(&requests) {
            Ok(tickets) => {
                for ticket in tickets {
                    failed += u64::from(!answer_ok(served, ticket.wait()));
                }
            }
            Err(_) => failed += BURST as u64,
        }
        sent += BURST;
        let elapsed = window.0.elapsed().as_secs_f64();
        if elapsed >= WINDOW_S.min(seconds) {
            rates.push((sent - window.1) as f64 / elapsed);
            window = (Instant::now(), sent);
        }
    }
    handle.shutdown().map_err(|e| e.to_string())?;
    outcome.check_many(sent as u64, failed);
    Ok(rates)
}
