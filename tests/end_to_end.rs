//! End-to-end integration: the full INCEPTIONN stack — real training,
//! ring exchange, NIC-grade compression — against the paper's claims.

use inceptionn::api::CollectiveContext;
use inceptionn::ErrorBound;
use inceptionn_distrib::{CodecSelection, DistributedTrainer, ExchangeStrategy, TrainerConfig};
use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::models;
use inceptionn_dnn::optim::SgdConfig;

fn trainer_config(strategy: ExchangeStrategy, compression: Option<ErrorBound>) -> TrainerConfig {
    TrainerConfig {
        workers: 4,
        strategy,
        codec: CodecSelection::from_bound(compression),
        sgd: SgdConfig {
            learning_rate: 0.05,
            ..SgdConfig::default()
        },
        batch_per_worker: 8,
        seed: 1234,
        ..TrainerConfig::default()
    }
}

#[test]
fn full_system_trains_to_baseline_accuracy() {
    // Train the same model three ways: single-logical-node baseline
    // (WA lossless), INCEPTIONN ring lossless, and the full system with
    // hardware-bound compression at 2^-10. All must reach comparable
    // accuracy — the paper's central accuracy claim.
    let train = DigitDataset::generate(600, 77);
    let test = DigitDataset::generate(200, 78);
    let mut accs = Vec::new();
    for (strategy, compression) in [
        (ExchangeStrategy::WorkerAggregator, None),
        (ExchangeStrategy::Ring, None),
        (ExchangeStrategy::Ring, Some(ErrorBound::pow2(10))),
    ] {
        let mut t = DistributedTrainer::new(
            trainer_config(strategy, compression),
            models::hdc_mlp_small,
            &train,
        );
        t.train_iterations(400);
        accs.push(t.evaluate(&test));
    }
    let baseline = accs[0];
    assert!(baseline > 0.6, "baseline failed to train: {baseline}");
    for (i, acc) in accs.iter().enumerate().skip(1) {
        assert!(
            (acc - baseline).abs() < 0.08,
            "variant {i} diverged: {acc} vs baseline {baseline}"
        );
    }
}

#[test]
fn compressed_ring_replicas_remain_usable_after_long_runs() {
    let train = DigitDataset::generate(400, 80);
    let mut t = DistributedTrainer::new(
        trainer_config(ExchangeStrategy::Ring, Some(ErrorBound::pow2(8))),
        models::hdc_mlp_small,
        &train,
    );
    t.train_iterations(120);
    // Every replica ends each exchange with the same aggregate bits, so
    // even a loose bound over a long run leaves no drift.
    assert_eq!(t.max_replica_divergence(), 0.0);
}

#[test]
fn collective_api_sums_real_model_gradients() {
    // Pull real gradients out of backprop, push them through the public
    // collective API with compression, and verify against a direct sum.
    let data = DigitDataset::generate(64, 90);
    let workers = 4usize;
    let mut grads: Vec<Vec<f32>> = (0..workers)
        .map(|w| {
            let mut net = models::hdc_mlp_small(99);
            let (x, y) = data.minibatch(w * 16, 16);
            net.forward_backward(&x, &y);
            net.flat_grads()
        })
        .collect();
    let mut direct = vec![0.0f32; grads[0].len()];
    for g in &grads {
        for (d, v) in direct.iter_mut().zip(g) {
            *d += v;
        }
    }
    let ctx = CollectiveContext::new(workers).with_compression(ErrorBound::pow2(10));
    ctx.allreduce(&mut grads);
    let eb = ErrorBound::pow2(10).value();
    let budget = 2.0 * workers as f32 * eb * workers as f32;
    let mut worst = 0.0f32;
    for (a, b) in grads[0].iter().zip(&direct) {
        worst = worst.max((a - b).abs());
    }
    assert!(worst <= budget, "worst error {worst} over budget {budget}");
}

#[test]
fn hierarchical_grouping_matches_flat_ring() {
    let data = DigitDataset::generate(64, 91);
    let workers = 8usize;
    let make_grads = || -> Vec<Vec<f32>> {
        (0..workers)
            .map(|w| {
                let mut net = models::tiny_mlp(500 + w as u64);
                let x = inceptionn_tensor::Tensor::full(&[4, 16], 0.1 * (w as f32 + 1.0));
                net.forward_backward(&x, &[0, 1, 0, 1]);
                net.flat_grads()
            })
            .collect()
    };
    let _ = &data;
    let ctx = CollectiveContext::new(workers);
    let mut flat = make_grads();
    ctx.allreduce(&mut flat);
    let mut grouped = make_grads();
    ctx.allreduce_with(
        ExchangeStrategy::HierarchicalRing { group_size: 4 },
        &mut grouped,
    );
    for (a, b) in flat[0].iter().zip(&grouped[0]) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}
