//! `offline`: SMD-like data (38 dims, so `d_model` = 76 and the matmuls
//! take the packed-kernel path). Each cycle trains a paper-default model
//! (window 10, context 20, batch 128, ff 64, MAML on) for a fixed number
//! of epochs, with patience above it so early stopping never cuts the run,
//! then runs `TrainedTranad::detect` on the test split several times, with
//! `TRANAD_THREADS=2`. It exercises taped training, tape backward, AdamW,
//! MAML, parallel batch scoring and POT, and never touches serving code.
//!
//! The gated figures are the fastest `train` call and the fastest
//! `detect` call; medians are printed beside them (see `online` for why).

use crate::online;
use crate::probes::{self, ModelShape};
use crate::trace::{next_request, span, Layer};
use crate::{interleave, repeat_setup, serve, stats, Args, Report};
use std::time::Instant;
use tranad::{detect_from_scores, train, Detection, PotConfig, TrainedTranad, TranadConfig};
use tranad_data::{generate, DatasetKind, GenConfig, TimeSeries};

/// SMD-like data at this scale has 1,417-point train and test splits.
const SMD_SCALE: f64 = 0.002;
/// Prefix of the train split each cycle trains on.
const TRAIN_POINTS: usize = 400;
/// Prefix of the test split each detect call scores.
const TEST_POINTS: usize = 500;
const EPOCHS: usize = 1;
const DETECTS_PER_CYCLE: usize = 4;

fn config() -> TranadConfig {
    TranadConfig {
        epochs: EPOCHS,
        patience: EPOCHS + 1,
        ..TranadConfig::default()
    }
}

fn pot() -> PotConfig {
    PotConfig::with_low_quantile(DatasetKind::Smd.pot_low_quantile())
}

struct Data {
    train: TimeSeries,
    test: TimeSeries,
    truth: Vec<bool>,
}

fn setup(seed: u64) -> Data {
    let gen = GenConfig {
        scale: SMD_SCALE,
        min_len: 400,
        seed,
    };
    let ds = span("generate", Layer::Data, || generate(DatasetKind::Smd, gen));
    let truth = ds.point_labels()[..TEST_POINTS].to_vec();
    Data {
        train: ds.train.slice(0, TRAIN_POINTS),
        test: ds.test.slice(0, TEST_POINTS),
        truth,
    }
}

fn same_detection(a: &Detection, b: &Detection) -> bool {
    let bits =
        |rows: &[Vec<f64>]| -> Vec<u64> { rows.iter().flatten().map(|v| v.to_bits()).collect() };
    a.labels == b.labels && a.dim_labels == b.dim_labels && bits(&a.scores) == bits(&b.scores)
}

#[derive(Default)]
struct Pass {
    train_windows_per_s: Vec<f64>,
    epoch_s: Vec<f64>,
    detect_s: Vec<f64>,
    /// The first detection, and the last cycle's model and detection.
    first: Option<Detection>,
    last: Option<(TrainedTranad, Detection)>,
    /// Every detection equals the first one bitwise (training and
    /// detection are deterministic for a fixed seed) and no `train` call
    /// stopped early.
    deterministic: bool,
    windows: usize,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            deterministic: true,
            ..Pass::default()
        }
    }
}

/// One train -> detect cycle, appended to `p`.
fn cycle(data: &Data, p: &mut Pass) -> Result<(), String> {
    let windows_per_epoch = tranad_data::train_val_split(&data.train, 0.8).0.len();
    next_request();
    let t = Instant::now();
    let (model, report) = span("train", Layer::Tranad, || train(&data.train, config()))
        .map_err(|e| format!("train: {e}"))?;
    p.train_windows_per_s
        .push((EPOCHS * windows_per_epoch) as f64 / t.elapsed().as_secs_f64());
    p.epoch_s.extend(&report.epoch_seconds);
    p.deterministic &= report.epochs_run == EPOCHS;
    p.windows += EPOCHS * windows_per_epoch;
    let mut detection = None;
    for _ in 0..DETECTS_PER_CYCLE {
        next_request();
        let t = Instant::now();
        let det = span("TrainedTranad::detect", Layer::Tranad, || {
            model.detect(&data.test, pot())
        })
        .map_err(|e| format!("detect: {e}"))?;
        p.detect_s.push(t.elapsed().as_secs_f64());
        p.windows += data.test.len();
        let first = p.first.get_or_insert_with(|| det.clone());
        p.deterministic &= same_detection(first, &det);
        detection = Some(det);
    }
    p.last = Some((model, detection.expect("at least one detect per cycle")));
    Ok(())
}

/// `score_series` and `detect_from_scores` timed alone on `test`; their
/// composition must equal `detect` bitwise.
pub fn score_probe(r: &mut Report, model: &TrainedTranad, test: &TimeSeries) -> Result<(), String> {
    let t = Instant::now();
    let scores = span("TrainedTranad::score_series", Layer::Tranad, || {
        model.score_series(test)
    });
    r.layer(
        "tranad.score_windows_per_s",
        test.len() as f64 / t.elapsed().as_secs_f64(),
        test.len(),
    );
    let t = Instant::now();
    let composed = span("detect_from_scores", Layer::Evt, || {
        detect_from_scores(&model.train_scores, &scores, pot())
    })
    .map_err(|e| format!("detect_from_scores: {e}"))?;
    r.layer(
        "evt.pot_fit_ms",
        t.elapsed().as_secs_f64() * 1e3,
        test.len(),
    );
    let direct = model
        .detect(test, pot())
        .map_err(|e| format!("detect: {e}"))?;
    r.check(
        "score_series + detect_from_scores equals detect bitwise",
        same_detection(&composed, &direct),
    );
    Ok(())
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let (data, setup_s, setups) = repeat_setup(3, 0.3, || Ok(setup(args.seed)))?;

    if !args.traced {
        let mut p = Pass::new();
        let started = Instant::now();
        while p.last.is_none() || started.elapsed().as_secs_f64() < args.seconds {
            cycle(&data, &mut p)?;
        }
        let (_, det) = p.last.as_ref().expect("one cycle ran");
        let (f1, auc) = online::quality(&det.aggregate, &det.labels, &data.truth);
        let n = p.detect_s.len();
        let detect_p50 = stats::median(&p.detect_s);
        let detect_p90 = stats::quantile(&p.detect_s, 0.9);
        let train_wps = stats::median(&p.train_windows_per_s);
        let train_best = stats::max(&p.train_windows_per_s);
        let detect_min = stats::min(&p.detect_s);
        r.attempted = p.windows as u64;
        r.e2e("setup_s", setup_s, setups);
        r.e2e("work_per_s", train_best, p.train_windows_per_s.len());
        r.e2e("latency_us", detect_min * 1e6, n);
        r.named(
            "train_windows_per_s (fastest train call)",
            train_best,
            "1/s",
            p.train_windows_per_s.len(),
        );
        r.named("detect_min_us", detect_min * 1e6, "us", n);
        r.named(
            "train_windows_per_s (median)",
            train_wps,
            "1/s",
            p.train_windows_per_s.len(),
        );
        r.named(
            "detect_windows_per_s",
            data.test.len() as f64 / detect_p50,
            "1/s",
            n,
        );
        r.named("detect_p50_us", detect_p50 * 1e6, "us", n);
        r.named("detect_p90_us", detect_p90 * 1e6, "us", n);
        r.named(
            "detect_max_us",
            stats::quantile(&p.detect_s, 1.0) * 1e6,
            "us",
            n,
        );
        r.named("epoch_s", stats::median(&p.epoch_s), "s", p.epoch_s.len());
        r.named("f1", f1, "ratio", data.test.len());
        r.named("auc", auc, "ratio", data.test.len());
        r.check(
            "train and detect are deterministic across cycles",
            p.deterministic,
        );
        r.check("f1 and auc are finite", f1.is_finite() && auc.is_finite());
        return Ok(());
    }

    // Traced run: untraced and traced cycles alternate.
    let t = Instant::now();
    setup(args.seed);
    r.layer("data.generate_s", t.elapsed().as_secs_f64(), 1);
    let (mut plain, mut traced) = (Pass::new(), Pass::new());
    let counters = interleave(args.seconds, |on| {
        cycle(&data, if on { &mut traced } else { &mut plain })
    })?;
    crate::trace::mark_probes();
    let same = match (&plain.first, &traced.first) {
        (Some(a), Some(b)) => same_detection(a, b),
        _ => false,
    };
    r.check(
        "train and detect are deterministic across cycles",
        plain.deterministic && traced.deterministic && same,
    );
    r.attempted = (plain.windows + traced.windows) as u64;
    let epoch_s = stats::median(&traced.epoch_s);
    let steps = tranad_data::train_val_split(&data.train, 0.8)
        .0
        .len()
        .div_ceil(config().batch_size);
    r.layer("tranad.epoch_s", epoch_s, traced.epoch_s.len());
    r.layer(
        "tranad.step_ms",
        epoch_s * 1e3 / steps as f64,
        traced.epoch_s.len(),
    );
    r.layer(
        "trace.overhead",
        stats::median(&plain.train_windows_per_s) / stats::median(&traced.train_windows_per_s)
            - 1.0,
        traced.train_windows_per_s.len(),
    );
    let (model, det) = traced.last.expect("one cycle ran");
    let (f1, auc) = online::quality(&det.aggregate, &det.labels, &data.truth);
    r.check("f1 and auc are finite", f1.is_finite() && auc.is_finite());
    r.layer("metrics.f1", f1, data.test.len());
    r.layer("metrics.auc", auc, data.test.len());
    let shape = ModelShape::of(&config(), data.train.dims(), config().batch_size);
    probes::report(r, shape, &counters, plain.windows);
    // Too few detect calls for a p99: the tail of a batch job is its
    // slowest call.
    let slowest = stats::quantile(&plain.detect_s, 1.0) * 1e6;
    r.layer("tail.latency_p99_us", slowest, plain.detect_s.len());
    score_probe(r, &model, &data.test)?;

    // The layers this workload does not exercise, probed at its shapes.
    let path = args.scratch.join("model.json");
    let t = Instant::now();
    span("TrainedTranad::save", Layer::Tranad, || model.save(&path))
        .map_err(|e| format!("save: {e}"))?;
    r.layer("tranad.save_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let t = Instant::now();
    span("TrainedTranad::load", Layer::Tranad, || {
        TrainedTranad::load(&path)
    })
    .map_err(|e| format!("load: {e}"))?;
    r.layer("tranad.load_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let refits = online::split_probe(r, &model, &data.test)?;
    r.layer("evt.spot_refits", refits as f64, data.test.len());
    serve::probe(args, r, &path, &data.test)?;
    Ok(())
}
