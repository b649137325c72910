//! Microbenchmarks for the substrate layers, including the DESIGN.md
//! ablation (tape-based autograd overhead vs. a hand-fused forward pass)
//! and the thread-pool matmul sizes.
//!
//! Hand-rolled harness (no `criterion` — the workspace builds with zero
//! external crates): each subject is warmed up, then timed over adaptively
//! chosen iteration counts, reporting the median per-iteration time.
//! Run with `cargo bench -p tranad-bench`; set `TRANAD_THREADS=1` to time
//! the serial baseline.

use std::hint::black_box;
use std::time::Instant;
use tranad_baselines::detector::Detector;
use tranad_baselines::{Merlin, MerlinConfig};
use tranad_data::{generate, DatasetKind, GenConfig, SignalRng, TimeSeries, Windows};
use tranad_evt::{Pot, PotConfig};
use tranad_nn::attention::{causal_mask, scaled_dot_attention};
use tranad_nn::{Init, ParamStore, TrainCtx};
use tranad_tensor::{pool, Tape, Tensor, Value};

/// Times `f`, printing the median per-iteration wall-clock time.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm-up, and a first estimate of the per-call cost.
    let start = Instant::now();
    f();
    let first = start.elapsed().as_secs_f64().max(1e-9);
    // Aim each sample at ~50 ms, capped so a whole subject stays ~1 s.
    let iters = ((0.05 / first) as usize).clamp(1, 10_000);
    let samples = 7;
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[samples / 2];
    let unit = if median >= 1.0 {
        format!("{median:.3} s")
    } else if median >= 1e-3 {
        format!("{:.3} ms", median * 1e3)
    } else {
        format!("{:.3} µs", median * 1e6)
    };
    println!("{name:<44} {unit:>12}  ({iters} iters/sample)");
}

fn bench_matmul() {
    let a = Tensor::from_fn([64, 64], |i| (i as f64 * 0.1).sin());
    let b = Tensor::from_fn([64, 64], |i| (i as f64 * 0.2).cos());
    bench("tensor/matmul_64x64", || {
        black_box(a.matmul(black_box(&b)));
    });
    let batched = Tensor::from_fn([32, 10, 64], |i| (i as f64 * 0.05).sin());
    bench("tensor/matmul_batched_32x10x64", || {
        black_box(batched.matmul(black_box(&b)));
    });
    // The thread-pool acceptance sizes: a large 2-D product and a batched
    // product with the same flop count, both far above MATMUL_CUTOFF.
    let big_a = Tensor::from_fn([256, 256], |i| (i as f64 * 0.01).sin());
    let big_b = Tensor::from_fn([256, 256], |i| (i as f64 * 0.02).cos());
    bench("tensor/matmul_256x256", || {
        black_box(big_a.matmul(black_box(&big_b)));
    });
    let big_batched = Tensor::from_fn([256, 256, 256], |i| ((i % 97) as f64) / 97.0);
    bench("tensor/matmul_batched_256x256x256", || {
        black_box(big_batched.matmul(black_box(&big_b)));
    });
}

fn bench_autograd_overhead() {
    // Ablation: the tape's bookkeeping cost vs. the raw fused computation.
    let x = Tensor::from_fn([32, 64], |i| (i as f64 * 0.01).sin());
    let w = Tensor::from_fn([64, 64], |i| (i as f64 * 0.02).cos());
    bench("autograd/fused_forward_only", || {
        let y = x.matmul(&w).map(|v| 1.0 / (1.0 + (-v).exp()));
        black_box(y.mean());
    });
    bench("autograd/tape_forward", || {
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(w.clone());
        black_box(xv.matmul(&wv).sigmoid().mean_all().value().item());
    });
    bench("autograd/tape_forward_backward", || {
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(w.clone());
        let loss = xv.matmul(&wv).sigmoid().mean_all();
        loss.backward();
        black_box(wv.grad().data()[0]);
    });
}

fn bench_attention() {
    let qt = Tensor::from_fn([16, 10, 32], |i| (i as f64 * 0.03).sin());
    let mask_t = causal_mask(10);
    // Fresh tape per iteration: a shared tape would accumulate every
    // iteration's nodes (and their tensors), so later samples would time
    // allocator growth instead of the attention forward.
    bench("nn/causal_self_attention_16x10x32", || {
        let tape = Tape::new();
        let q = tape.leaf(qt.clone());
        let mask = tape.leaf(mask_t.clone());
        black_box(scaled_dot_attention(&q, &q, &q, Some(&mask)).value());
    });
}

fn bench_pot() {
    let mut rng = SignalRng::new(7);
    let scores: Vec<f64> = (0..20_000).map(|_| rng.normal().abs()).collect();
    bench("evt/pot_fit_20k", || {
        black_box(Pot::fit(&scores, PotConfig { q: 1e-4, level: 0.02 }));
    });
}

fn bench_merlin() {
    let mut rng = SignalRng::new(8);
    let col: Vec<f64> =
        (0..600).map(|t| (t as f64 / 9.0).sin() + 0.05 * rng.normal()).collect();
    let series = TimeSeries::from_columns(&[col]);
    bench("merlin/profile_600_early_abandon", || {
        let mut det = Merlin::new(MerlinConfig::optimized(8, 16));
        black_box(det.fit(black_box(&series), &tranad_telemetry::Recorder::disabled()).unwrap());
    });
    bench("merlin/profile_600_exhaustive", || {
        let mut det = Merlin::new(MerlinConfig::reference(8, 16));
        black_box(det.fit(black_box(&series), &tranad_telemetry::Recorder::disabled()).unwrap());
    });
}

fn bench_windows() {
    let ds = generate(DatasetKind::Smd, GenConfig { scale: 0.001, min_len: 500, seed: 1 });
    let windows = Windows::new(ds.train.clone(), 10);
    let idx: Vec<usize> = (0..128).collect();
    bench("data/window_batch_128x10", || {
        black_box(windows.batch(black_box(&idx)));
    });
}

fn bench_tranad_step() {
    use tranad::{TranadConfig, TranadModel};
    let cfg = TranadConfig { dropout: 0.0, ..TranadConfig::default() };
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(0);
    let model = TranadModel::new(&mut store, &mut init, 8, cfg);
    let w = Tensor::from_fn([32, cfg.window, 8], |i| ((i % 13) as f64) / 13.0);
    let cx = Tensor::from_fn([32, cfg.context, 8], |i| ((i % 11) as f64) / 11.0);
    bench("tranad/two_phase_forward_backward_b32_m8", || {
        let ctx = TrainCtx::train(&store, 0);
        let wv = ctx.input(w.clone());
        let cv = ctx.input(cx.clone());
        let out = model.forward(&ctx, &wv, &cv);
        let loss = out.o1.mse(&wv).add(&out.o2_hat.mse(&wv));
        loss.backward();
        black_box(ctx.grad_norm_sq());
    });
}

fn main() {
    println!("threads: {}", pool::current_threads());
    bench_matmul();
    bench_autograd_overhead();
    bench_attention();
    bench_pot();
    bench_merlin();
    bench_windows();
    bench_tranad_step();
}
