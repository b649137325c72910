//! Standalone probes of the `tensor` and `nn` layers: their public calls,
//! built through public constructors and timed from outside at a
//! workload's dominant shape.

use crate::trace::{span, Layer};
use crate::{stats, Counters, Report};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tranad::TranadConfig;
use tranad_nn::attention::{causal_mask, MultiHeadAttention};
use tranad_nn::transformer::{EncoderLayer, WindowEncoderLayer};
use tranad_nn::{InferCtx, Init, ParamStore, TrainCtx};
use tranad_tensor::{Rng, Tensor};

/// The shapes one forward pass of a workload's model runs at.
#[derive(Debug, Clone, Copy)]
pub struct ModelShape {
    /// Windows per forward: the training batch, or the streams per round.
    pub batch: usize,
    pub window: usize,
    pub context: usize,
    pub d_model: usize,
    pub heads: usize,
    pub ff: usize,
}

impl ModelShape {
    pub fn of(config: &TranadConfig, dims: usize, batch: usize) -> ModelShape {
        ModelShape {
            batch,
            window: config.window,
            context: config.context,
            d_model: config.d_model(dims),
            heads: config.heads_for(dims),
            ff: config.ff_hidden,
        }
    }

    /// The `[rows x d_model] . [d_model x d_model]` projection every
    /// attention and feed-forward layer of the window path runs.
    pub fn matmul_dims(&self) -> (usize, usize) {
        (self.batch * self.window, self.d_model)
    }
}

/// Median microseconds per call of `f`, over at least five calls and
/// about `budget` of wall time.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 20_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples)
}

fn filled(shape: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |_| rng.range_f64(-1.0, 1.0))
}

/// `Tensor::matmul` at the shape's dominant size, in GFLOP/s computed as
/// `2 * rows * d * d` flops per call.
fn matmul_gflops(shape: ModelShape) -> f64 {
    let (rows, d) = shape.matmul_dims();
    let mut rng = Rng::new(11);
    let a = filled(&[rows, d], &mut rng);
    let b = filled(&[d, d], &mut rng);
    let us = time_us(Duration::from_millis(200), || {
        black_box(span("Tensor::matmul", Layer::Tensor, || a.matmul(&b)));
    });
    2.0 * (rows * d * d) as f64 / (us * 1e3)
}

/// The `tensor` and `nn` figures every traced run reports: pool and
/// allocation counters over the untraced calls (`points` windows, pushes
/// or points), the buffer-pool high watermark, then the standalone probes
/// at `shape`.
pub fn report(r: &mut Report, shape: ModelShape, c: &Counters, points: usize) {
    let tasks = c.parallel_tasks + c.serial_tasks;
    let share = if tasks == 0 {
        0.0
    } else {
        c.serial_tasks as f64 / tasks as f64
    };
    r.layer("tensor.pool_jobs", c.jobs as f64, points);
    r.layer("tensor.pool_serial_share", share, tasks as usize);
    r.named(
        "pool_parallel_tasks",
        c.parallel_tasks as f64,
        "count",
        points,
    );
    r.named("pool_serial_tasks", c.serial_tasks as f64, "count", points);
    r.layer(
        "tensor.allocs_per_point",
        c.allocs as f64 / points as f64,
        points,
    );
    let hwm = tranad_tensor::bufpool::high_watermark_bytes() as f64 / (1024.0 * 1024.0);
    r.layer("tensor.bufpool_hwm_mb", hwm, 1);
    r.layer("tensor.matmul_gflops", matmul_gflops(shape), 1);
    nn_layers(r, shape);
}

/// Times `EncoderLayer` (over the context), `WindowEncoderLayer` (window
/// against context, causal mask) and `MultiHeadAttention` (causal window
/// self-attention), in microseconds per call: tape-free under `InferCtx`,
/// and as taped forward plus backward under `TrainCtx::train`.
fn nn_layers(r: &mut Report, s: ModelShape) {
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(5);
    let encoder = EncoderLayer::new(&mut store, &mut init, s.d_model, s.heads, s.ff, 0.1);
    let window_encoder =
        WindowEncoderLayer::new(&mut store, &mut init, s.d_model, s.heads, s.ff, 0.1);
    let attention = MultiHeadAttention::new(&mut store, &mut init, s.d_model, s.heads);
    let mut rng = Rng::new(13);
    let ctx_in = filled(&[s.batch, s.context, s.d_model], &mut rng);
    let win_in = filled(&[s.batch, s.window, s.d_model], &mut rng);
    let mask = causal_mask(s.window);
    let budget = Duration::from_millis(150);

    let infer = InferCtx::new(&store);
    let us = time_us(budget, || {
        black_box(span("EncoderLayer::forward", Layer::Nn, || {
            encoder.forward(&infer, &ctx_in, None)
        }));
    });
    r.layer("nn.encoder_us", us, 1);
    let us = time_us(budget, || {
        black_box(span("WindowEncoderLayer::forward", Layer::Nn, || {
            window_encoder.forward(&infer, &win_in, &ctx_in, &mask)
        }));
    });
    r.layer("nn.window_encoder_us", us, 1);
    let us = time_us(budget, || {
        black_box(span("MultiHeadAttention::forward", Layer::Nn, || {
            attention.self_attention(&infer, &win_in, Some(&mask))
        }));
    });
    r.layer("nn.attention_us", us, 1);

    let us = time_us(budget, || {
        span("EncoderLayer::forward+backward", Layer::Nn, || {
            let ctx = TrainCtx::train(&store, 1);
            let x = ctx.input(ctx_in.clone());
            encoder.forward(&ctx, &x, None).sum_all().backward();
        })
    });
    r.layer("nn.encoder_train_us", us, 1);
    let us = time_us(budget, || {
        span("WindowEncoderLayer::forward+backward", Layer::Nn, || {
            let ctx = TrainCtx::train(&store, 1);
            let (w, c, m) = (
                ctx.input(win_in.clone()),
                ctx.input(ctx_in.clone()),
                ctx.input(mask.clone()),
            );
            window_encoder
                .forward(&ctx, &w, &c, &m)
                .sum_all()
                .backward();
        })
    });
    r.layer("nn.window_encoder_train_us", us, 1);
    let us = time_us(budget, || {
        span("MultiHeadAttention::forward+backward", Layer::Nn, || {
            let ctx = TrainCtx::train(&store, 1);
            let (w, m) = (ctx.input(win_in.clone()), ctx.input(mask.clone()));
            attention
                .self_attention(&ctx, &w, Some(&m))
                .sum_all()
                .backward();
        })
    });
    r.layer("nn.attention_train_us", us, 1);
}
