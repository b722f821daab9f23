//! `model-zoo`: the extended §VII-A comparison (E8 forecaster ladder).
//!
//! Set-up generates the model corpus (see [`Params::model_corpus`] and
//! [`CORPUS_SEED`]); `--seed`
//! seeds the design's model components and the forests' bootstrap
//! draws. One pass builds the
//! spatiotemporal training design from its 80% training split, then for
//! each of the four targets (hour, day, magnitude, duration) fits
//! Always-Same, Always-Mean, Linear, Poly(2), Huber, one CART model
//! tree, a 16-tree bagged forest and a boosted ensemble on the
//! chronological head and scores the 20% holdout.
//!
//! `result_s` is one pass; `items_per_s` is design instances per second
//! of pass time. Nearly all of a pass is CART growth, with no Eq. 4
//! work, so `cart` and `exec` fan-out changes show here and an `astopo`
//! change predicts no move.

use crate::span::Tracer;
use crate::{finish_trace, median, passes, repeated_setup, timed, Outcome, Params, CORPUS_SEED};
use ddos_adversary::cart::ensemble::{BaggedForest, BoostConfig, BoostedTrees, ForestConfig};
use ddos_adversary::cart::tree::RegressionTree;
use ddos_adversary::cart::CartError;
use ddos_adversary::model::spatiotemporal::{SpatioTemporalConfig, SpatioTemporalModel};
use ddos_adversary::stats::metrics::rmse;
use ddos_adversary::stats::ols::LinearModel;
use ddos_adversary::stats::regress::{HuberConfig, HuberModel, PolyConfig, PolynomialModel};
use ddos_adversary::trace::{Corpus, TraceGenerator};

/// Trees per bagged forest, as in the E8 table.
const FOREST_TREES: usize = 16;

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// When corpus generation fails or the span file cannot be written.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let tracer = Tracer::new(params.trace);
    let config = params.model_corpus();
    let (corpus, setup) = repeated_setup(params, || {
        TraceGenerator::new(config.clone(), CORPUS_SEED)
            .generate()
            .map_err(|e| format!("corpus generation failed: {e}"))
    })?;
    let mut outcome = Outcome::default();

    let untraced = Tracer::new(false);
    let runs = passes(params.seconds, || pass(&corpus, params.seed, &untraced, &mut outcome));
    let pass_s = median(&runs.secs);
    if !params.trace {
        let instances = runs.results[0].xs.len() as f64;
        outcome.set_median("setup_s", setup);
        outcome.set_median("peak_rss_mib", runs.peak_mib);
        outcome.set_median("items_per_s", runs.secs.iter().map(|s| instances / s).collect());
        outcome.set_median("result_s", runs.secs);
        return Ok(outcome);
    }

    let root = tracer.spans().len();
    let (traced, traced_s) =
        timed(|| tracer.span("bench.pass", || pass(&corpus, params.seed, &tracer, &mut outcome)));
    outcome.set("bench.trace_overhead_ratio", traced_s / pass_s);
    for (metric, span) in [
        ("core.training_design_s", "core.training_design"),
        ("stats.regress_fit_s", "stats.regress_fit"),
        ("cart.tree_fit_s", "cart.tree_fit"),
        ("cart.forest_fit_s", "cart.forest_fit"),
        ("cart.boosted_fit_s", "cart.boosted_fit"),
        ("cart.predict_s", "cart.predict"),
    ] {
        outcome.set(metric, tracer.total(span).as_secs_f64());
    }
    outcome.set("cart.trees_grown", traced.trees_grown as f64);

    // The pass's forests again on one worker: how much of the forest
    // time the default fan-out saves.
    let serial_s: f64 = tracer.span("bench.probe", || {
        (0..4)
            .map(|target| {
                let ys: Vec<f64> = traced.labels[..traced.cut].iter().map(|l| l[target]).collect();
                let xs = &traced.xs[..traced.cut];
                timed(|| {
                    tracer.span("cart.forest_fit_serial", || {
                        fit_forest(xs, &ys, params.seed, Some(1))
                    })
                })
                .1
            })
            .sum()
    });
    outcome.set("exec.forest_speedup", serial_s / tracer.total("cart.forest_fit").as_secs_f64());
    finish_trace(&mut outcome, &tracer, root, "model-zoo", params)?;
    Ok(outcome)
}

/// What a pass built.
#[derive(Default)]
struct Pass {
    xs: Vec<Vec<f64>>,
    labels: Vec<[f64; 4]>,
    cut: usize,
    trees_grown: usize,
}

fn fit_forest(
    xs: &[Vec<f64>],
    ys: &[f64],
    seed: u64,
    parallelism: Option<usize>,
) -> Result<BaggedForest, CartError> {
    let tree = SpatioTemporalConfig::fast().tree;
    BaggedForest::fit(xs, ys, &ForestConfig { n_trees: FOREST_TREES, tree, seed, parallelism })
}

/// One pass of the ladder. Each (model, target) score cell is one
/// checked operation: it must be finite, or `n/a` because a baseline
/// regression reported a typed fit error.
fn pass(corpus: &Corpus, seed: u64, tracer: &Tracer, outcome: &mut Outcome) -> Pass {
    let st = SpatioTemporalConfig::fast();
    let design = corpus.split(0.8).map_err(|e| e.to_string()).and_then(|(train, _)| {
        tracer
            .span("core.training_design", || SpatioTemporalModel::training_design(train, &st, seed))
            .map_err(|e| e.to_string())
    });
    let Ok((xs, labels)) = design else {
        outcome.check(false);
        return Pass::default();
    };
    let cut = (xs.len() as f64 * 0.8) as usize;
    let (xs_tr, xs_te) = (&xs[..cut], &xs[cut..]);
    let mut trees_grown = 0;
    for target in 0..4 {
        let ys_tr: Vec<f64> = labels[..cut].iter().map(|l| l[target]).collect();
        let ys_te: Vec<f64> = labels[cut..].iter().map(|l| l[target]).collect();
        let score = |preds: Result<Vec<f64>, String>| -> Option<f64> {
            preds.ok().and_then(|p| rmse(&p, &ys_te).ok())
        };
        // A learned cell is checked when its model fitted; a typed fit
        // error of a baseline regression is the table's expected `n/a`.
        let mut cells: Vec<Option<f64>> = Vec::new();

        let last = ys_tr.last().copied().unwrap_or(f64::NAN);
        cells.push(score(Ok(vec![last; ys_te.len()])));
        let mean = ys_tr.iter().sum::<f64>() / ys_tr.len() as f64;
        cells.push(score(Ok(vec![mean; ys_te.len()])));

        let (linear, poly, huber) = tracer.span("stats.regress_fit", || {
            (
                LinearModel::fit(xs_tr, &ys_tr),
                PolynomialModel::fit(xs_tr, &ys_tr, &PolyConfig { degree: 2 }),
                HuberModel::fit(xs_tr, &ys_tr, &HuberConfig::default()),
            )
        });
        tracer.span("stats.regress_predict", || {
            let per_row = |f: &dyn Fn(&[f64]) -> Result<f64, String>| {
                xs_te.iter().map(|r| f(r)).collect::<Result<Vec<_>, _>>()
            };
            if let Ok(m) = &linear {
                cells.push(score(m.predict_many(xs_te).map_err(|e| e.to_string())));
            }
            if let Ok(m) = &poly {
                cells.push(score(per_row(&|r| m.predict(r).map_err(|e| e.to_string()))));
            }
            if let Ok(m) = &huber {
                cells.push(score(per_row(&|r| m.predict(r).map_err(|e| e.to_string()))));
            }
        });

        let tree = tracer.span("cart.tree_fit", || RegressionTree::fit(xs_tr, &ys_tr, &st.tree));
        let forest = tracer.span("cart.forest_fit", || fit_forest(xs_tr, &ys_tr, seed, None));
        let boosted = tracer
            .span("cart.boosted_fit", || BoostedTrees::fit(xs_tr, &ys_tr, &BoostConfig::default()));
        trees_grown += usize::from(tree.is_ok())
            + forest.as_ref().map_or(0, BaggedForest::n_trees)
            + boosted.as_ref().map_or(0, |b| b.trees().len());
        tracer.span("cart.predict", || {
            let err = |e: CartError| e.to_string();
            cells.push(score(tree.map_err(err).and_then(|m| m.predict_many(xs_te).map_err(err))));
            cells.push(score(forest.map_err(err).and_then(|m| m.predict_many(xs_te).map_err(err))));
            cells
                .push(score(boosted.map_err(err).and_then(|m| m.predict_many(xs_te).map_err(err))));
        });

        let expected_na = [linear.is_err(), poly.is_err(), huber.is_err()];
        outcome.check_many(expected_na.iter().filter(|&&na| na).count() as u64, 0);
        for cell in cells {
            outcome.check(cell.is_some_and(f64::is_finite));
        }
    }
    Pass { xs, labels, cut, trees_grown }
}
