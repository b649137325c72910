//! Taped vs tape-free inference throughput.
//!
//! Scores the same trained model through the tape-backed `TrainCtx::eval` path
//! (what serving ran before the `Fwd`/`InferCtx` refactor) and the
//! tape-free path (what it runs now), for both batch scoring and
//! single-point online pushes. Prints windows/sec and pushes/sec for each
//! and, with `--out <path>`, records the comparison as JSON (the committed
//! copy lives at `results/infer_throughput.json`).
//!
//! Usage: `cargo run --release -p tranad-bench --bin bench-infer [-- --out results/infer_throughput.json]`

use std::time::Instant;
use tranad::config::TranadConfig;
use tranad::train::{train, TrainedTranad};
use tranad::{OnlineState, PotConfig};
use tranad_data::{SignalRng, TimeSeries, Windows};
use tranad_nn::TrainCtx;

fn toy_series(len: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut rng = SignalRng::new(seed);
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| {
            (0..len)
                .map(|t| ((t as f64) / (10.0 + d as f64)).sin() + 0.05 * rng.normal())
                .collect()
        })
        .collect();
    TimeSeries::from_columns(&cols)
}

/// Best-of-`reps` wall time for `f`, after one untimed warm-up call.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Batch scoring through the tape-backed path: identical batch boundaries
/// and score arithmetic to `TrainedTranad::score_normalized`, but every op
/// records a tape node with its backward closure.
fn taped_score(trained: &TrainedTranad, normalized: &TimeSeries) {
    let config = *trained.model.config();
    let windows = Windows::borrowed(normalized, config.window);
    let (k, m) = (config.window, normalized.dims());
    let n = windows.len();
    let bs = config.batch_size.max(1);
    for start in (0..n).step_by(bs) {
        let end = (start + bs).min(n);
        let ctx = TrainCtx::eval(&trained.store);
        let w = ctx.input(windows.batch_range(start, end));
        let c = ctx.input(windows.context_batch_range(start, end, config.context));
        let out = trained.model.forward(&ctx, &w, &c);
        let (o1, o2h, wv) = (out.o1.value(), out.o2_hat.value(), w.value());
        let mut acc = 0.0;
        for bi in 0..end - start {
            let base = (bi * k + (k - 1)) * m;
            for d in 0..m {
                let target = wv.data()[base + d];
                let e1 = o1.data()[base + d] - target;
                let e2 = o2h.data()[base + d] - target;
                acc += 0.5 * e1 * e1 + 0.5 * e2 * e2;
            }
        }
        std::hint::black_box(acc);
    }
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter().position(|a| a == "--out").map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--out requires a path");
                std::process::exit(2);
            })
        })
    };

    let train_series = toy_series(800, 4, 1);
    let config = TranadConfig { epochs: 3, patience: 10, ..TranadConfig::default() };
    let (trained, _) = train(&train_series, config).expect("training");

    // ---- Batch scoring ----
    let test = toy_series(4000, 4, 2);
    let normalized = trained.normalizer.transform(&test);
    let reps = 5;
    let taped_s = best_secs(reps, || taped_score(&trained, &normalized));
    let free_s = best_secs(reps, || {
        std::hint::black_box(trained.score_normalized(&normalized));
    });
    let windows = test.len() as f64;
    let batch_taped = windows / taped_s;
    let batch_free = windows / free_s;

    // ---- Online pushes ----
    let stream = toy_series(1024, 4, 3);
    let pushes = 512usize;
    let mut state = OnlineState::new(&trained, PotConfig::default()).expect("SPOT init");
    for t in 0..stream.len() - pushes {
        state.push(&trained, stream.row(t)).expect("warm-up push");
    }
    let start = Instant::now();
    for t in stream.len() - pushes..stream.len() {
        state.push(&trained, stream.row(t)).expect("measured push");
    }
    let online_free = pushes as f64 / start.elapsed().as_secs_f64();

    // Taped reference for one push's forward pass, on the same shapes.
    let cfg = *trained.model.config();
    let w_windows = Windows::borrowed(&normalized, cfg.window);
    let n = w_windows.len();
    let w_t = w_windows.batch_range(n - 1, n);
    let c_t = w_windows.context_batch_range(n - 1, n, cfg.context);
    let start = Instant::now();
    for _ in 0..pushes {
        let ctx = TrainCtx::eval(&trained.store);
        let w = ctx.input(w_t.clone());
        let c = ctx.input(c_t.clone());
        let out = trained.model.forward(&ctx, &w, &c);
        std::hint::black_box(out.o1.value().data()[0]);
    }
    let online_taped = pushes as f64 / start.elapsed().as_secs_f64();

    println!(
        "batch scoring: taped {batch_taped:.0} windows/s, tape-free {batch_free:.0} windows/s ({:.2}x)",
        batch_free / batch_taped
    );
    println!(
        "online push:   taped {online_taped:.0} pushes/s, tape-free {online_free:.0} pushes/s ({:.2}x)",
        online_free / online_taped
    );

    if let Some(path) = out_path {
        let json = format!(
            "{{\n  \"comment\": \"Inference throughput, taped TrainCtx::eval vs tape-free InferCtx, from `bench-infer` (best of {reps} runs; {} windows batch, {pushes} online pushes, 4 dims). The online taped column times only the forward pass — the real pre-refactor push did strictly more work.\",\n  \"batch\": {{ \"taped_windows_per_s\": {batch_taped:.0}, \"tape_free_windows_per_s\": {batch_free:.0}, \"speedup\": {:.2} }},\n  \"online\": {{ \"taped_pushes_per_s\": {online_taped:.0}, \"tape_free_pushes_per_s\": {online_free:.0}, \"speedup\": {:.2} }}\n}}\n",
            test.len(),
            batch_free / batch_taped,
            online_free / online_taped,
        );
        std::fs::write(&path, json).expect("write --out file");
        println!("wrote {path}");
    }
}
