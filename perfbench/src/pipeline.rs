//! `paper-pipeline`: the reproducer's run.
//!
//! Set-up generates the model corpus (see [`Params::model_corpus`] and
//! [`CORPUS_SEED`]); `--seed` seeds the pipeline's models.
//! One pass fits and serves Fig. 1 (temporal ARIMA), Fig. 2 (spatial
//! source distribution), the §V per-network durations and Figs. 3–4
//! (spatiotemporal CART), then round-trips the spatiotemporal model
//! through artifact bytes and serves the decoded copy.
//!
//! `result_s` is one pass; `items_per_s` is corpus attacks per second of
//! pass time. Most of a pass is Eq. 4 distances inside the temporal fit
//! and serve, so `astopo` and `exec` changes show here.

use crate::span::Tracer;
use crate::{finish_trace, median, passes, repeated_setup, timed, Outcome, Params, CORPUS_SEED};
use ddos_adversary::model::artifact::ModelArtifact;
use ddos_adversary::model::features::FeatureExtractor;
use ddos_adversary::model::pipeline::{Pipeline, PipelineConfig, SpatioTemporalReport};
use ddos_adversary::model::spatiotemporal::{SpatioTemporalModel, StPrediction};
use ddos_adversary::model::temporal::{TemporalConfig, TemporalModel};
use ddos_adversary::stats::select::search;
use ddos_adversary::trace::{AttackRecord, Corpus, FamilyId, TraceGenerator};
use std::hint::black_box;

/// Victim networks the §V duration experiment models.
const DURATION_NETWORKS: usize = 4;

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// When corpus generation fails or the span file cannot be written.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let tracer = Tracer::new(params.trace);
    let config = params.model_corpus();
    let (corpus, setup) = repeated_setup(params, || {
        tracer
            .span("trace.generate", || TraceGenerator::new(config.clone(), CORPUS_SEED).generate())
            .map_err(|e| format!("corpus generation failed: {e}"))
    })?;
    let pipeline = Pipeline::new(PipelineConfig::fast(), params.seed);
    let mut outcome = Outcome::default();

    let untraced = Tracer::new(false);
    let runs = passes(params.seconds, || pass(&pipeline, &corpus, &untraced, &mut outcome));
    let pass_s = median(&runs.secs);
    if !params.trace {
        outcome.set_median("setup_s", setup);
        outcome.set_median("peak_rss_mib", runs.peak_mib);
        outcome
            .set_median("items_per_s", runs.secs.iter().map(|s| corpus.len() as f64 / s).collect());
        outcome.set_median("result_s", runs.secs);
        return Ok(outcome);
    }

    let root = tracer.spans().len();
    let ((), traced_s) =
        timed(|| tracer.span("bench.pass", || pass(&pipeline, &corpus, &tracer, &mut outcome)));
    outcome.set("bench.trace_overhead_ratio", traced_s / pass_s);
    outcome.set("trace.generate_s", median(&setup));
    for (metric, span) in [
        ("core.fit_temporal_s", "core.fit_temporal"),
        ("core.serve_temporal_s", "core.serve_temporal"),
        ("neural.fit_spatial_distribution_s", "neural.fit_spatial_distribution"),
        ("neural.fit_spatial_durations_s", "neural.fit_spatial_durations"),
        ("cart.fit_spatiotemporal_s", "cart.fit_spatiotemporal"),
        ("core.serve_spatiotemporal_s", "core.serve_spatiotemporal"),
    ] {
        outcome.set(metric, tracer.total(span).as_secs_f64());
    }
    tracer.span("bench.probe", || probe(&pipeline, &corpus, &tracer, &mut outcome));
    finish_trace(&mut outcome, &tracer, root, "paper-pipeline", params)?;
    Ok(outcome)
}

/// One pass: fit and serve every figure, then the artifact round trip.
/// Each report and the round trip is one checked operation.
fn pass(pipeline: &Pipeline, corpus: &Corpus, tracer: &Tracer, outcome: &mut Outcome) {
    let temporal =
        tracer.span("core.fit_temporal", || pipeline.fit_temporal(corpus)).and_then(|models| {
            tracer.span("core.serve_temporal", || pipeline.serve_temporal(corpus, &models))
        });
    outcome.check(temporal.is_ok_and(|r| {
        r.per_family
            .iter()
            .all(|f| f.magnitudes.rmse.is_finite() && f.source_coefficient.rmse.is_finite())
    }));

    let distribution = tracer
        .span("neural.fit_spatial_distribution", || pipeline.fit_spatial_distribution(corpus))
        .and_then(|models| {
            tracer.span("core.serve_spatial_distribution", || {
                pipeline.serve_spatial_distribution(corpus, &models)
            })
        });
    outcome
        .check(distribution.is_ok_and(|r| r.per_family.iter().all(|f| f.share_rmse.is_finite())));

    let durations = tracer
        .span("neural.fit_spatial_durations", || {
            pipeline.fit_spatial_durations(corpus, DURATION_NETWORKS)
        })
        .and_then(|models| {
            tracer.span("core.serve_spatial_durations", || {
                pipeline.serve_spatial_durations(corpus, &models)
            })
        });
    outcome.check(durations.is_ok_and(|r| {
        r.per_network.iter().all(|n| {
            n.spatial_rmse.is_finite()
                && n.always_same_rmse.is_finite()
                && n.always_mean_rmse.is_finite()
        })
    }));

    let Ok(model) = tracer.span("cart.fit_spatiotemporal", || pipeline.fit_spatiotemporal(corpus))
    else {
        // Neither the report nor the round trip can run.
        outcome.check_many(2, 2);
        return;
    };
    let report =
        tracer.span("core.serve_spatiotemporal", || pipeline.serve_spatiotemporal(corpus, &model));
    outcome.check(report.as_ref().is_ok_and(st_rmses_finite));

    let bytes = tracer.span("core.artifact_encode", || model.to_artifact_bytes());
    let decoded =
        tracer.span("core.artifact_decode", || SpatioTemporalModel::from_artifact_bytes(&bytes));
    let served = decoded.ok().and_then(|m| {
        tracer.span("core.serve_decoded", || pipeline.serve_spatiotemporal(corpus, &m)).ok()
    });
    outcome.check(match (&report, &served) {
        (Ok(a), Some(b)) => same_bits(&a.predictions, &b.predictions),
        _ => false,
    });
}

fn st_rmses_finite(r: &SpatioTemporalReport) -> bool {
    [r.st_hour_rmse, r.spatial_hour_rmse, r.temporal_hour_rmse]
        .iter()
        .chain(&[r.st_day_rmse, r.spatial_day_rmse, r.temporal_day_rmse])
        .all(|v| v.is_finite())
}

fn same_bits(a: &[StPrediction], b: &[StPrediction]) -> bool {
    let bits = |p: &StPrediction| {
        [
            p.truth_hour,
            p.truth_day,
            p.truth_magnitude,
            p.truth_duration,
            p.st_hour,
            p.st_day,
            p.st_magnitude,
            p.st_duration,
            p.spatial_hour,
            p.spatial_day,
            p.temporal_hour,
            p.temporal_day,
        ]
        .map(f64::to_bits)
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Each evaluated family's chronological training attacks: the global
/// 80/20 cut restricted to the family, as the pipeline splits them.
fn family_trains<'c>(
    pipeline: &Pipeline,
    corpus: &'c Corpus,
) -> Vec<(FamilyId, Vec<&'c AttackRecord>)> {
    let Ok((_, test)) = corpus.split(pipeline.config().split) else { return Vec::new() };
    let Some(cut) = test.first().map(|a| a.start) else { return Vec::new() };
    pipeline
        .families(corpus)
        .into_iter()
        .map(|f| (f, corpus.family_attacks(f).into_iter().filter(|a| a.start < cut).collect()))
        .collect()
}

/// The traced run's decomposition of the temporal fit, which the
/// pipeline runs as one opaque parallel call: Eq. 4 on a fresh and on a
/// reused extractor, the ARIMA order searches, and each family's fit
/// timed alone.
fn probe(pipeline: &Pipeline, corpus: &Corpus, tracer: &Tracer, outcome: &mut Outcome) {
    let trains = family_trains(pipeline, corpus);
    let fx = FeatureExtractor::new(corpus);
    let eq4 = |name: &'static str| {
        tracer.span(name, || {
            trains
                .iter()
                .map(|(_, t)| fx.source_distribution_series(t))
                .collect::<Result<Vec<_>, _>>()
        })
    };
    let cold = eq4("astopo.eq4_cold");
    let warm = eq4("astopo.eq4_warm");
    outcome.check(cold.is_ok() && warm.is_ok());
    let pairs: u64 = trains
        .iter()
        .flat_map(|(_, t)| t.iter())
        .map(|a| {
            let k = a.asn_histogram().len() as u64;
            k * k.saturating_sub(1) / 2
        })
        .sum();
    let cold_s = tracer.total("astopo.eq4_cold").as_secs_f64();
    outcome.set("astopo.eq4_cold_s", cold_s);
    outcome.set("astopo.eq4_warm_s", tracer.total("astopo.eq4_warm").as_secs_f64());
    outcome.set("astopo.eq4_pairs", pairs as f64);
    outcome.set("astopo.eq4_ns_per_pair", cold_s * 1e9 / pairs.max(1) as f64);

    let temporal = TemporalConfig::default();
    let sources = warm.unwrap_or_default();
    tracer.span("stats.arima_search", || {
        for ((_, train), source) in trains.iter().zip(&sources) {
            let gaps: Vec<f64> =
                train.windows(2).map(|w| w[1].start.abs_diff(w[0].start) as f64).collect();
            for series in [
                FeatureExtractor::magnitude_series(train),
                FeatureExtractor::activity_series(train),
                FeatureExtractor::active_bots_series(train),
                source.clone(),
                gaps,
            ] {
                let _ = black_box(search(&series, temporal.search));
            }
        }
    });
    outcome.set("stats.arima_search_s", tracer.total("stats.arima_search").as_secs_f64());

    let fresh = FeatureExtractor::new(corpus);
    let fits: Vec<f64> = trains
        .iter()
        .map(|(family, train)| {
            timed(|| {
                tracer.span("core.temporal_family_fit", || {
                    black_box(TemporalModel::fit(&fresh, *family, train, &temporal))
                })
            })
            .1
        })
        .collect();
    let total: f64 = fits.iter().sum();
    let max = fits.iter().copied().fold(0.0, f64::max);
    outcome.set("exec.temporal_max_family_share", if total > 0.0 { max / total } else { 0.0 });

    let Ok(model) = pipeline.fit_spatiotemporal(corpus) else { return };
    let encode: Vec<f64> =
        (0..64).map(|_| timed(|| black_box(model.to_artifact_bytes())).1).collect();
    let bytes = model.to_artifact_bytes();
    let decode: Vec<f64> = (0..64)
        .map(|_| timed(|| black_box(SpatioTemporalModel::from_artifact_bytes(&bytes))).1)
        .collect();
    outcome.set("core.artifact_encode_us", median(&encode) * 1e6);
    outcome.set("core.artifact_decode_us", median(&decode) * 1e6);
    outcome.set("core.artifact_bytes", bytes.len() as f64);
}
