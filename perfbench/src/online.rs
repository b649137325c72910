//! `online`: one MSDS-like stream (10 dims, so `d_model` = 20 with 5
//! heads). A paper-default model (window 10, context 20) is trained, saved
//! and loaded in setup; a closed loop then sends each test point through
//! `OnlineState::push` only after the previous verdict returned, with
//! `TRANAD_THREADS=1`. This is batch-1 tape-free inference: per-op
//! overhead, window-10 attention and SPOT refits dominate, and no batching
//! amortizes them.
//!
//! The gated figures are the fastest push and the fastest block of
//! `BLOCK` consecutive pushes, not medians: on a shared host this loop's
//! pushes fall into speed modes (about 170, 285 and 335 us per push on
//! a 2-vCPU Xeon VM) that last from a fraction of a second to
//! minutes, so the median of a run follows the host, not the code. Host
//! interference only adds time, and the fastest pushes of a run are the
//! ones it spared. Medians and tails are still printed.
//!
//! The traced run splits each push into `ingest` -> `stage_tail` ->
//! `phase1` -> `phase2` -> `apply_scores`, and requires the split to equal
//! `OnlineState::push` bitwise.

use crate::trace::{next_request, span, Layer};
use crate::{interleave, offline, probes, repeat_setup, serve, stats, Args, Report};
use std::path::PathBuf;
use std::time::Instant;
use tranad::{train, OnlineState, OnlineVerdict, PotConfig, TrainedTranad, TranadConfig};
use tranad_data::{generate, DatasetKind, GenConfig, TimeSeries};
use tranad_nn::{InferCtx, InferWorkspace};
use tranad_tensor::Tensor;

/// MSDS-like data at this scale has 2,929-point train and test splits.
const MSDS_SCALE: f64 = 0.02;
/// Training points the setup model sees: a prefix of the train split.
const TRAIN_POINTS: usize = 1000;
/// Consecutive pushes per throughput block (about 10 ms of pushes).
const BLOCK: usize = 50;

/// The paper-default model of this workload, trained for one epoch so
/// that setup stays short.
fn config() -> TranadConfig {
    TranadConfig {
        epochs: 1,
        patience: 2,
        ..TranadConfig::default()
    }
}

/// A generated stream with its model, after a train -> save -> load
/// round trip. Shared with the `serve` workload, which trains another
/// configuration on the same data.
pub struct StreamSetup {
    pub model: TrainedTranad,
    pub model_path: PathBuf,
    pub test: TimeSeries,
    pub truth: Vec<bool>,
    pub epoch_s: Vec<f64>,
    pub steps_per_epoch: usize,
    pub generate_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
}

pub fn stream_setup(args: &Args, config: TranadConfig) -> Result<StreamSetup, String> {
    let t = Instant::now();
    let gen = GenConfig {
        scale: MSDS_SCALE,
        min_len: 400,
        seed: args.seed,
    };
    let ds = span("generate", Layer::Data, || generate(DatasetKind::Msds, gen));
    let generate_s = t.elapsed().as_secs_f64();
    let train_series = ds.train.slice(0, TRAIN_POINTS.min(ds.train.len()));
    let (trained, report) = span("train", Layer::Tranad, || train(&train_series, config))
        .map_err(|e| format!("train: {e}"))?;
    let model_path = args.scratch.join("model.json");
    let t = Instant::now();
    span("TrainedTranad::save", Layer::Tranad, || {
        trained.save(&model_path)
    })
    .map_err(|e| format!("save: {e}"))?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let model = span("TrainedTranad::load", Layer::Tranad, || {
        TrainedTranad::load(&model_path)
    })
    .map_err(|e| format!("load: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let train_windows = tranad_data::train_val_split(&train_series, 0.8).0.len();
    Ok(StreamSetup {
        model,
        model_path,
        truth: ds.point_labels(),
        test: ds.test,
        epoch_s: report.epoch_seconds,
        steps_per_epoch: train_windows.div_ceil(config.batch_size),
        generate_s,
        save_ms,
        load_ms,
    })
}

/// The setup figures every stream workload reports per layer.
pub fn report_setup(r: &mut Report, s: &StreamSetup) {
    let epoch_s = stats::median(&s.epoch_s);
    r.layer("data.generate_s", s.generate_s, 1);
    r.layer("tranad.epoch_s", epoch_s, s.epoch_s.len());
    r.layer(
        "tranad.step_ms",
        epoch_s * 1e3 / s.steps_per_epoch as f64,
        s.epoch_s.len(),
    );
    r.layer("tranad.save_ms", s.save_ms, 1);
    r.layer("tranad.load_ms", s.load_ms, 1);
}

/// Bitwise verdict equality (`==` would equate 0.0 with -0.0).
pub fn same_verdict(a: &OnlineVerdict, b: &OnlineVerdict) -> bool {
    a.anomalous == b.anomalous
        && a.dim_labels == b.dim_labels
        && a.scores.len() == b.scores.len()
        && a.scores
            .iter()
            .zip(&b.scores)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Point-adjusted F1 and ROC-AUC of `labels`/`scores` against `truth`.
pub fn quality(scores: &[f64], labels: &[bool], truth: &[bool]) -> (f64, f64) {
    let m = tranad_metrics::evaluate(scores, labels, &truth[..labels.len()]);
    (m.f1, m.auc)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[derive(Default)]
struct LoopStats {
    latency_us: Vec<f64>,
    /// Per pass over the series: push p50, p90 and p99, and pushes per
    /// second.
    pass_p50_us: Vec<f64>,
    pass_p90_us: Vec<f64>,
    pass_p99_us: Vec<f64>,
    pass_rate: Vec<f64>,
    /// Pushes per second of each block of `BLOCK` consecutive pushes.
    block_rate: Vec<f64>,
    /// The first pass's timestamp labels and aggregate scores.
    labels: Vec<bool>,
    scores: Vec<f64>,
    /// Every later pass reproduced the first bitwise.
    reproducible: bool,
    refits_per_pass: u64,
}

impl LoopStats {
    fn new() -> LoopStats {
        LoopStats {
            reproducible: true,
            ..LoopStats::default()
        }
    }
}

/// One pass of the closed loop: every point of `test` through a fresh
/// `OnlineState`, each sent after the previous verdict returned. Fresh
/// state keeps the work of every pass the same (SPOT state grows with
/// stream length), and every pass must reproduce the first bitwise.
fn pass(model: &TrainedTranad, test: &TimeSeries, out: &mut LoopStats) -> Result<(), String> {
    let mut state = OnlineState::new(model, PotConfig::default()).map_err(|e| e.to_string())?;
    let first = out.pass_rate.is_empty();
    let from = out.latency_us.len();
    let started = Instant::now();
    let mut block = started;
    for i in 0..test.len() {
        if i % BLOCK == 0 && i > 0 {
            let now = Instant::now();
            out.block_rate
                .push(BLOCK as f64 / (now - block).as_secs_f64());
            block = now;
        }
        let t = Instant::now();
        let v = state
            .push(model, test.row(i))
            .map_err(|e| format!("push {i}: {e}"))?;
        out.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        let score = mean(&v.scores);
        if first {
            out.labels.push(v.anomalous);
            out.scores.push(score);
        } else {
            out.reproducible &=
                out.labels[i] == v.anomalous && out.scores[i].to_bits() == score.to_bits();
        }
    }
    out.pass_rate
        .push(test.len() as f64 / started.elapsed().as_secs_f64());
    let latency = &out.latency_us[from..];
    out.pass_p50_us.push(stats::median(latency));
    out.pass_p90_us.push(stats::quantile(latency, 0.9));
    out.pass_p99_us.push(stats::p99(latency));
    out.refits_per_pass = state.refits();
    Ok(())
}

/// Per-push times of each step of the traced split, in microseconds.
#[derive(Default)]
pub struct SplitTimes {
    pub ingest: Vec<f64>,
    pub stage: Vec<f64>,
    pub phase1: Vec<f64>,
    pub phase2: Vec<f64>,
    pub apply: Vec<f64>,
    /// Whole split per push (the sum of the steps plus span bookkeeping).
    pub total: Vec<f64>,
}

impl SplitTimes {
    pub fn report(&self, r: &mut Report) {
        let n = self.total.len();
        r.layer("tranad.ingest_us", stats::median(&self.ingest), n);
        r.layer("tranad.stage_us", stats::median(&self.stage), n);
        r.layer("tranad.phase1_us", stats::median(&self.phase1), n);
        r.layer("tranad.phase2_us", stats::median(&self.phase2), n);
        r.layer("tranad.apply_us", stats::median(&self.apply), n);
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Sends the first `points` points of `test` through the split push from
/// fresh state, one span per step and one request per point, appending
/// the step times to `times`. A twin state fed through
/// `OnlineState::push` must produce bitwise-identical verdicts; returns
/// whether it did, and the split state's SPOT refits.
pub fn split_pass(
    model: &TrainedTranad,
    test: &TimeSeries,
    points: usize,
    times: &mut SplitTimes,
) -> Result<(bool, u64), String> {
    let pot = PotConfig::default();
    let mut split = OnlineState::new(model, pot).map_err(|e| e.to_string())?;
    let mut twin = OnlineState::new(model, pot).map_err(|e| e.to_string())?;
    let config = *model.model.config();
    let (k, c, m) = (config.window, config.context, model.model.dims());
    let mut ws = InferWorkspace::new();
    let mut equal = true;
    for i in 0..points.min(test.len()) {
        let row = test.row(i);
        next_request();
        let t0 = Instant::now();
        span("OnlineState::ingest", Layer::Tranad, || {
            split.ingest(model, row)
        })
        .map_err(|e| format!("ingest {i}: {e}"))?;
        times.ingest.push(us_since(t0));
        let t = Instant::now();
        span("OnlineState::stage_tail", Layer::Tranad, || {
            let (wdst, cdst) = ws.stage(1, k, c, m);
            split.stage_tail(wdst, cdst);
        });
        times.stage.push(us_since(t));
        let ctx = InferCtx::new(&model.store);
        let (w, cx) = (ws.window().clone(), ws.context().clone());
        let t = Instant::now();
        let (o1, _o2) = span("TranadModel::phase1", Layer::Tranad, || {
            model.model.phase1(&ctx, &w, &cx)
        });
        times.phase1.push(us_since(t));
        let t = Instant::now();
        let o2_hat = span("TranadModel::phase2", Layer::Tranad, || {
            let focus = if config.self_conditioning {
                o1.zip(&w, |a, b| (a - b) * (a - b))
            } else {
                Tensor::zeros(*w.shape())
            };
            model.model.phase2(&ctx, &w, &cx, focus)
        });
        times.phase2.push(us_since(t));
        let t = Instant::now();
        let v = span("OnlineState::apply_scores", Layer::Tranad, || {
            split.apply_scores(w.data(), o1.data(), o2_hat.data())
        });
        times.apply.push(us_since(t));
        times.total.push(us_since(t0));
        drop((w, cx, o1, o2_hat));
        let reference = twin
            .push(model, row)
            .map_err(|e| format!("push {i}: {e}"))?;
        equal &= same_verdict(&v, &reference);
    }
    Ok((equal, split.refits()))
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let (setup, setup_s, setups) = repeat_setup(5, 0.0, || stream_setup(args, config()))?;
    let model = &setup.model;
    let len = setup.test.len();

    if !args.traced {
        let mut run = LoopStats::new();
        let started = Instant::now();
        while run.pass_rate.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            pass(model, &setup.test, &mut run)?;
        }
        let n = run.latency_us.len();
        let passes = run.pass_rate.len();
        let (p50, p90) = (
            stats::median(&run.pass_p50_us),
            stats::median(&run.pass_p90_us),
        );
        let rate = stats::median(&run.pass_rate);
        let best_block = stats::max(&run.block_rate);
        let fastest = stats::min(&run.latency_us);
        let (f1, auc) = quality(&run.scores, &run.labels, &setup.truth);
        r.attempted = n as u64;
        r.e2e("setup_s", setup_s, setups);
        r.e2e("work_per_s", best_block, run.block_rate.len());
        r.e2e("latency_us", fastest, n);
        r.named(
            &format!("pushes_per_s (fastest {BLOCK}-push block)"),
            best_block,
            "1/s",
            run.block_rate.len(),
        );
        r.named("push_min_us", fastest, "us", n);
        r.named("pushes_per_s (median over passes)", rate, "1/s", passes);
        r.named("push_p50_us (median of pass p50s)", p50, "us", n);
        r.named("push_p90_us (median of pass p90s)", p90, "us", n);
        r.named(
            "push_p99_us (median of pass p99s)",
            stats::median(&run.pass_p99_us),
            "us",
            n,
        );
        r.named(
            "push_p50_us (pooled)",
            stats::median(&run.latency_us),
            "us",
            n,
        );
        r.named(
            &format!("push_{}_us (pooled)", stats::tail_label(n)),
            stats::tail(&run.latency_us),
            "us",
            n,
        );
        r.named("passes", passes as f64, "count", 1);
        r.named("f1", f1, "ratio", len);
        r.named("auc", auc, "ratio", len);
        r.named(
            "spot_refits_per_pass",
            run.refits_per_pass as f64,
            "count",
            len,
        );
        r.check(
            "online: every pass over the stream reproduces the first bitwise",
            run.reproducible,
        );
        r.check("f1 and auc are finite", f1.is_finite() && auc.is_finite());
        return Ok(());
    }

    // Traced run: untraced passes alternate with traced split passes over
    // the same stream, so the tracing overhead is measured in-process.
    report_setup(r, &setup);
    let (mut run, mut split, mut equal) = (LoopStats::new(), SplitTimes::default(), true);
    let counters = interleave(args.seconds, |on| {
        if on {
            equal &= split_pass(model, &setup.test, len, &mut split)?.0;
            Ok(())
        } else {
            pass(model, &setup.test, &mut run)
        }
    })?;
    crate::trace::mark_probes();
    let n = run.latency_us.len();
    r.check(
        "online: every pass over the stream reproduces the first bitwise",
        run.reproducible,
    );
    split.report(r);
    r.check("traced split push equals OnlineState::push bitwise", equal);
    let (f1, auc) = quality(&run.scores, &run.labels, &setup.truth);
    r.check("f1 and auc are finite", f1.is_finite() && auc.is_finite());
    r.layer("metrics.f1", f1, len);
    r.layer("metrics.auc", auc, len);
    let untraced = stats::median(&run.pass_p50_us);
    let traced = stats::median(&split.total);
    r.layer("trace.overhead", traced / untraced - 1.0, split.total.len());
    r.named("untraced_push_p50_us", untraced, "us", n);
    r.named("traced_split_p50_us", traced, "us", split.total.len());
    r.attempted = (n + split.total.len()) as u64;
    r.layer("evt.spot_refits", run.refits_per_pass as f64, len);
    r.layer("tail.latency_p99_us", stats::median(&run.pass_p99_us), n);
    let shape = probes::ModelShape::of(model.model.config(), model.model.dims(), 1);
    probes::report(r, shape, &counters, n);
    // The layers this workload does not exercise, probed at its shapes.
    offline::score_probe(r, model, &setup.test)?;
    serve::probe(args, r, &setup.model_path, &setup.test)?;
    Ok(())
}

/// One pass of `test` through a fresh `OnlineState::push`, for the
/// quality figures of a workload whose own loop does not keep verdicts.
pub fn quality_pass(
    r: &mut Report,
    model: &TrainedTranad,
    test: &TimeSeries,
    truth: &[bool],
) -> Result<(), String> {
    let mut run = LoopStats::new();
    pass(model, test, &mut run)?;
    let (f1, auc) = quality(&run.scores, &run.labels, truth);
    r.check("f1 and auc are finite", f1.is_finite() && auc.is_finite());
    r.layer("metrics.f1", f1, test.len());
    r.layer("metrics.auc", auc, test.len());
    Ok(())
}

/// A short traced split over `test` at another workload's model; returns
/// the split state's SPOT refits.
pub fn split_probe(
    r: &mut Report,
    model: &TrainedTranad,
    test: &TimeSeries,
) -> Result<u64, String> {
    let mut times = SplitTimes::default();
    let (equal, refits) = split_pass(model, test, 300, &mut times)?;
    times.report(r);
    r.check("traced split push equals OnlineState::push bitwise", equal);
    Ok(refits)
}
