//! Determinism contract of the fault-injection subsystem: one seed and
//! one plan produce one execution. Re-running the identical
//! configuration must replay the exact same faults at the exact same
//! points and land on byte-identical state — that property is what
//! makes a failing soak run reproducible from its seed alone.

use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::{CodecSelection, FabricBuilder, TransportKind};
use inceptionn_distrib::trainer::{DistributedTrainer, ExchangeStrategy, TrainerConfig};
use inceptionn_distrib::{Exchange, FaultPlan, FaultStats, MembershipSchedule};
use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::models;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_prob(0.04)
        .corrupt_prob(0.02)
        .poison_prob(0.05)
}

fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-0.3f32..0.3)).collect())
        .collect()
}

/// The bit pattern of a parameter vector — `==` on `f32` would also
/// accept `-0.0 == 0.0`, and "byte-identical" means bits, not values.
fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// One faulty exchange replayed twice at the fabric level: outputs and
/// every fault counter agree bit-for-bit.
#[test]
fn fabric_level_replay_is_bit_exact() {
    let run = || -> (Vec<Vec<u32>>, FaultStats) {
        let mut grads = random_grads(5, 700, 11);
        let endpoints: Vec<usize> = (0..5).collect();
        let mut fabric = FabricBuilder::new(5)
            .transport(TransportKind::Nic)
            .compression(Some(ErrorBound::pow2(10)))
            .faults(noisy_plan(77))
            .build();
        Exchange::new(5)
            .run(
                ExchangeStrategy::Ring,
                fabric.as_mut(),
                &mut grads,
                &endpoints,
            )
            .expect("all injected faults in this plan are recoverable");
        (
            grads.iter().map(|g| bits(g)).collect(),
            fabric.fault_stats(),
        )
    };
    let (values_a, stats_a) = run();
    let (values_b, stats_b) = run();
    assert_eq!(values_a, values_b, "same seed+plan must replay bit-exactly");
    assert_eq!(stats_a, stats_b, "fault counters are part of the trace");
    assert!(
        stats_a.drops > 0 && stats_a.corruptions > 0,
        "the plan must actually have fired: {stats_a:?}"
    );
}

/// A full faulty training run replayed twice: the per-iteration trace
/// (logs plus fault-counter snapshots after every step) and the final
/// parameter bits of every replica are identical.
#[test]
fn same_seed_and_plan_replay_byte_identically() {
    let data = DigitDataset::generate(160, 23);
    let run = |data: &DigitDataset| {
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                workers: 4,
                strategy: ExchangeStrategy::Ring,
                transport: TransportKind::Nic,
                codec: CodecSelection::Scalar(ErrorBound::pow2(10)),
                faults: Some(noisy_plan(123)),
                batch_per_worker: 8,
                ..TrainerConfig::default()
            },
            models::hdc_mlp_small,
            data,
        );
        let mut trace = Vec::new();
        for _ in 0..6 {
            let log = t.step();
            trace.push((log, t.fault_stats()));
        }
        let params: Vec<Vec<u32>> = (0..4).map(|w| bits(&t.replica(w).flat_params())).collect();
        (trace, params)
    };
    let (trace_a, params_a) = run(&data);
    let (trace_b, params_b) = run(&data);
    assert_eq!(trace_a, trace_b, "iteration trace must replay exactly");
    assert_eq!(params_a, params_b, "final replica bits must replay exactly");
    let last = &trace_a.last().expect("six iterations ran").1;
    assert!(
        last.drops + last.corruptions + last.poisons > 0,
        "the plan must actually have fired: {last:?}"
    );
}

/// Error-feedback residuals are fabric state that persists across
/// iterations, so they are part of the replay contract: a training run
/// under the sparse codec with the full recovery ladder firing
/// (retransmits, renegotiated-plain legs, and a crash excision) must
/// land on byte-identical parameters when replayed from the same seed.
/// Retransmits re-deliver an already-encoded frame and renegotiated
/// legs re-encode `Plain`, so neither may touch a residual twice.
#[test]
fn sparse_error_feedback_replays_byte_identically_through_the_recovery_ladder() {
    let data = DigitDataset::generate(160, 29);
    let ladder_plan = || {
        noisy_plan(321)
            .poison_prob(0.25) // hot enough to exhaust budgets and renegotiate
            .max_retransmits(1)
    };
    let run = |data: &DigitDataset| {
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                workers: 4,
                strategy: ExchangeStrategy::Ring,
                transport: TransportKind::Nic,
                codec: CodecSelection::Sparse {
                    bound: ErrorBound::pow2(6),
                    top_per_mille: 200,
                },
                faults: Some(ladder_plan()),
                membership: MembershipSchedule::new().crash(3, 2),
                batch_per_worker: 8,
                ..TrainerConfig::default()
            },
            models::hdc_mlp_small,
            data,
        );
        let mut trace = Vec::new();
        for _ in 0..6 {
            let log = t.step();
            trace.push((log, t.fault_stats()));
        }
        let params: Vec<Vec<u32>> = (0..4).map(|w| bits(&t.replica(w).flat_params())).collect();
        (trace, params)
    };
    let (trace_a, params_a) = run(&data);
    let (trace_b, params_b) = run(&data);
    assert_eq!(trace_a, trace_b, "iteration trace must replay exactly");
    assert_eq!(
        params_a, params_b,
        "residual state must not desynchronize the replay"
    );
    let last = &trace_a.last().expect("six iterations ran").1;
    assert!(
        last.retransmits > 0,
        "retransmits must have fired: {last:?}"
    );
    assert!(
        last.degraded_legs > 0 || last.poisons > 0,
        "the plain-renegotiation path must have been exercised: {last:?}"
    );
    assert!(
        last.crashes > 0,
        "the crash excision must have fired: {last:?}"
    );
}
