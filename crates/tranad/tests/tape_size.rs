//! Regression test pinning the autograd tape size of one TranAD training
//! step. The fused ops (linear+bias+activation, layer-norm affine, scaled
//! q·kᵀ) each collapse several tape nodes into one; if a code path quietly
//! falls back to the unfused chain, the node count grows and this test
//! fails. Update the constants deliberately when the architecture changes.

use tranad::config::TranadConfig;
use tranad::model::TranadModel;
use tranad_nn::{Init, ParamStore, TrainCtx, Value};
use tranad_tensor::Tensor;

fn tiny_config() -> TranadConfig {
    TranadConfig {
        epochs: 1,
        batch_size: 4,
        dropout: 0.0,
        context: 12,
        window: 6,
        ff_hidden: 16,
        ..TranadConfig::default()
    }
}

fn step_tape_len(config: TranadConfig, dims: usize) -> usize {
    let mut store = ParamStore::new();
    let mut init = Init::with_seed(7);
    let model = TranadModel::new(&mut store, &mut init, dims, config);

    let ctx = TrainCtx::train(&store, 11);
    let b = 4;
    let wv = ctx.input(Tensor::from_fn([b, config.window, dims], |i| {
        (i as f64 * 0.17).sin()
    }));
    let cv = ctx.input(Tensor::from_fn([b, config.context, dims], |i| {
        (i as f64 * 0.29).cos()
    }));
    let out = model.forward(&ctx, &wv, &cv);
    // The phase-1/phase-2 loss of training update 1 (Eq. 10 at epoch 0).
    let loss = out
        .o1
        .mse(&wv)
        .scale(1.0)
        .add(&out.o2_hat.mse(&wv).scale(0.0));
    loss.backward();
    ctx.tape().len()
}

#[test]
fn transformer_step_tape_size_is_pinned() {
    // One full two-phase forward + loss on the transformer trunk. Fused
    // linear/layer-norm/attention nodes keep this count flat; the unfused
    // chains would add 2 nodes per linear+activation, 2 per layer norm and
    // 2 per attention score product.
    assert_eq!(step_tape_len(tiny_config(), 2), 446);
}

#[test]
fn feedforward_ablation_step_tape_size_is_pinned() {
    let config = TranadConfig {
        use_transformer: false,
        ..tiny_config()
    };
    assert_eq!(step_tape_len(config, 2), 34);
}
