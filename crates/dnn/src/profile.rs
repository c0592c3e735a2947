//! Workload profiles of the paper's benchmark DNNs.
//!
//! Training AlexNet/VGG-16/ResNet-50 on ImageNet is out of scope for
//! this environment (no dataset, no GPUs), but the *timing* experiments
//! (Fig. 3, Table II, Figs. 12/13/15) only need each model's exchanged
//! data size and per-iteration local compute costs. The paper publishes
//! both: model sizes in Sec. VII-A and measured 100-iteration compute
//! phases on the Titan XP cluster in Table II. These profiles carry that
//! data, making the paper's own measurements the compute substrate of
//! the cluster simulator (see `DESIGN.md`).

use inceptionn_compress::gradmodel::GradientPreset;
use serde::{Deserialize, Serialize};

use crate::optim::SgdConfig;

/// Identifier for the paper's benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelId {
    /// AlexNet (233 MB).
    AlexNet,
    /// Handwritten-digit classifier (2.5 MB).
    Hdc,
    /// ResNet-50 (98 MB).
    ResNet50,
    /// ResNet-152 (appears in Fig. 3 only; ~230 MB).
    ResNet152,
    /// VGG-16 (525 MB).
    Vgg16,
}

impl ModelId {
    /// The four models in the evaluation tables (Table I/II order).
    pub const EVALUATED: [ModelId; 4] = [
        ModelId::AlexNet,
        ModelId::Hdc,
        ModelId::ResNet50,
        ModelId::Vgg16,
    ];

    /// The three models in Fig. 3.
    pub const FIG3: [ModelId; 3] = [ModelId::AlexNet, ModelId::ResNet152, ModelId::Vgg16];

    /// Display name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::AlexNet => "AlexNet",
            ModelId::Hdc => "HDC",
            ModelId::ResNet50 => "ResNet-50",
            ModelId::ResNet152 => "ResNet-152",
            ModelId::Vgg16 => "VGG-16",
        }
    }
}

/// Convergence data for Fig. 13 (epochs and accuracy at parity).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// Epochs the uncompressed baseline needs.
    pub epochs_baseline: u32,
    /// Epochs INCEPTIONN-with-compression needs for the same accuracy
    /// (1–2 more, Sec. VIII-B).
    pub epochs_compressed: u32,
    /// The common final top-1 accuracy both systems reach.
    pub final_accuracy: f64,
}

/// A complete workload profile for one benchmark DNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Which model this profiles.
    pub id: ModelId,
    /// Weight (= gradient) size exchanged per iteration, in bytes.
    pub weight_bytes: u64,
    /// Per-node minibatch size (Table I).
    pub batch_per_node: usize,
    /// Optimizer hyper-parameters (Table I).
    pub sgd: SgdConfig,
    /// Total training iterations (Table I).
    pub train_iterations: u64,
    /// Forward-pass time per iteration, seconds (Table II / 100).
    pub t_forward: f64,
    /// Backward-pass time per iteration, seconds.
    pub t_backward: f64,
    /// GPU↔host copy time per iteration, seconds.
    pub t_gpu_copy: f64,
    /// Gradient-summation time per iteration on the 4-worker cluster,
    /// seconds (aggregating 4 streams of `weight_bytes`).
    pub t_grad_sum: f64,
    /// Weight-update time per iteration, seconds.
    pub t_update: f64,
    /// The paper's measured communication time per iteration on the
    /// 5-node worker-aggregator cluster, seconds (Table II / 100) —
    /// kept as the calibration target the simulator is validated
    /// against, never fed back into the simulation.
    pub paper_t_communicate: f64,
    /// Convergence data for Fig. 13 (absent for ResNet-152, which the
    /// paper does not train to convergence).
    pub convergence: Option<Convergence>,
    /// Which synthetic gradient distribution the model's streams follow.
    pub grad_preset: GradientPreset,
}

impl ModelProfile {
    /// Looks up the calibrated profile of a benchmark model.
    pub fn of(id: ModelId) -> ModelProfile {
        match id {
            ModelId::AlexNet => ModelProfile {
                id,
                weight_bytes: 233 * 1_000_000,
                batch_per_node: 64,
                sgd: SgdConfig {
                    learning_rate: 0.01,
                    momentum: 0.9,
                    weight_decay: 5e-5,
                    lr_reduction: 10.0,
                    lr_reduction_iters: 100_000,
                },
                train_iterations: 320_000,
                t_forward: 0.0313,
                t_backward: 0.1622,
                t_gpu_copy: 0.0568,
                t_grad_sum: 0.0894,
                t_update: 0.1367,
                paper_t_communicate: 1.4871,
                convergence: Some(Convergence {
                    epochs_baseline: 64,
                    epochs_compressed: 65,
                    final_accuracy: 0.572,
                }),
                grad_preset: GradientPreset::AlexNet,
            },
            ModelId::Hdc => ModelProfile {
                id,
                weight_bytes: 2_500_000,
                batch_per_node: 25,
                sgd: SgdConfig {
                    learning_rate: 0.1,
                    momentum: 0.9,
                    weight_decay: 5e-5,
                    lr_reduction: 5.0,
                    lr_reduction_iters: 2_000,
                },
                train_iterations: 10_000,
                t_forward: 0.0008,
                t_backward: 0.0007,
                t_gpu_copy: 0.0,
                t_grad_sum: 0.0009,
                t_update: 0.0009,
                paper_t_communicate: 0.0136,
                convergence: Some(Convergence {
                    epochs_baseline: 17,
                    epochs_compressed: 18,
                    final_accuracy: 0.985,
                }),
                grad_preset: GradientPreset::Hdc,
            },
            ModelId::ResNet50 => ModelProfile {
                id,
                weight_bytes: 98 * 1_000_000,
                batch_per_node: 16,
                sgd: SgdConfig {
                    learning_rate: 0.1,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    lr_reduction: 10.0,
                    lr_reduction_iters: 200_000,
                },
                train_iterations: 600_000,
                t_forward: 0.0263,
                t_backward: 0.0487,
                t_gpu_copy: 0.0224,
                t_grad_sum: 0.0368,
                t_update: 0.0155,
                paper_t_communicate: 0.6058,
                convergence: Some(Convergence {
                    epochs_baseline: 90,
                    epochs_compressed: 92,
                    final_accuracy: 0.753,
                }),
                grad_preset: GradientPreset::ResNet50,
            },
            ModelId::ResNet152 => ModelProfile {
                id,
                weight_bytes: 230 * 1_000_000,
                batch_per_node: 16,
                sgd: SgdConfig {
                    learning_rate: 0.1,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    lr_reduction: 10.0,
                    lr_reduction_iters: 200_000,
                },
                train_iterations: 600_000,
                // Scaled ~2.6x from ResNet-50 (depth ratio), Fig. 3 only.
                t_forward: 0.068,
                t_backward: 0.127,
                t_gpu_copy: 0.052,
                t_grad_sum: 0.086,
                t_update: 0.040,
                paper_t_communicate: 1.45,
                convergence: None,
                grad_preset: GradientPreset::ResNet50,
            },
            ModelId::Vgg16 => ModelProfile {
                id,
                weight_bytes: 525 * 1_000_000,
                batch_per_node: 64,
                sgd: SgdConfig {
                    learning_rate: 0.01,
                    momentum: 0.9,
                    weight_decay: 5e-5,
                    lr_reduction: 10.0,
                    lr_reduction_iters: 100_000,
                },
                train_iterations: 370_000,
                t_forward: 0.3225,
                t_backward: 1.4234,
                t_gpu_copy: 0.1209,
                t_grad_sum: 0.1989,
                t_update: 0.3050,
                paper_t_communicate: 5.8358,
                convergence: Some(Convergence {
                    epochs_baseline: 74,
                    epochs_compressed: 75,
                    final_accuracy: 0.715,
                }),
                grad_preset: GradientPreset::Vgg16,
            },
        }
    }

    /// Display name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// Total local compute per iteration excluding any aggregation
    /// (forward + backward + copies + update), seconds.
    pub fn local_compute_seconds(&self) -> f64 {
        self.t_forward + self.t_backward + self.t_gpu_copy + self.t_update
    }

    /// Per-byte gradient sum-reduction cost `γ` (seconds/byte), derived
    /// from the measured 4-stream aggregation in Table II.
    pub fn gamma_per_byte(&self) -> f64 {
        self.t_grad_sum / (4.0 * self.weight_bytes as f64)
    }

    /// Replays one modeled iteration into an obs buffer as back-to-back
    /// virtual-time phase spans (Table II timings converted to
    /// nanoseconds) on `track`, starting at `start_ns` with the
    /// iteration index as the span key. Returns the end timestamp so
    /// successive iterations chain. This makes the paper's measured
    /// breakdown visible in the same chrome trace as the simulated wire
    /// activity, replacing ad-hoc per-experiment printing.
    pub fn record_iteration(
        &self,
        buf: &mut obs::EventBuf,
        track: u32,
        iteration: u32,
        start_ns: u64,
    ) -> u64 {
        let phases = [
            (obs::labels::PHASE_FORWARD, self.t_forward),
            (obs::labels::PHASE_BACKWARD, self.t_backward),
            (obs::labels::PHASE_GPU_COPY, self.t_gpu_copy),
            (obs::labels::PHASE_GRAD_SUM, self.t_grad_sum),
            (obs::labels::PHASE_COMMUNICATE, self.paper_t_communicate),
            (obs::labels::PHASE_UPDATE, self.t_update),
        ];
        let mut t = start_ns;
        let record = buf.is_on();
        for (label, seconds) in phases {
            let dur = (seconds * 1e9) as u64;
            if record && dur > 0 {
                buf.push(obs::Event::complete(
                    label,
                    obs::Domain::Net,
                    track,
                    iteration,
                    t,
                    dur,
                ));
            }
            t += dur;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_totals_are_consistent() {
        // Table II: the six phases sum (within rounding) to the totals the
        // paper prints for 100 iterations.
        let totals = [
            (ModelId::AlexNet, 196.35),
            (ModelId::Hdc, 1.7),
            (ModelId::ResNet50, 75.55),
            (ModelId::Vgg16, 823.65),
        ];
        for (id, want) in totals {
            let p = ModelProfile::of(id);
            let sum = 100.0
                * (p.t_forward
                    + p.t_backward
                    + p.t_gpu_copy
                    + p.t_grad_sum
                    + p.t_update
                    + p.paper_t_communicate);
            assert!(
                (sum - want).abs() / want < 0.02,
                "{}: {sum} vs {want}",
                p.name()
            );
        }
    }

    #[test]
    fn communication_dominates_every_profile() {
        // Table II's headline: >70% of WA training time is communication.
        for id in ModelId::EVALUATED {
            let p = ModelProfile::of(id);
            let total = p.local_compute_seconds() + p.t_grad_sum + p.paper_t_communicate;
            let frac = p.paper_t_communicate / total;
            assert!(frac > 0.70, "{}: comm fraction {frac:.2}", p.name());
        }
    }

    #[test]
    fn model_sizes_match_paper() {
        assert_eq!(ModelProfile::of(ModelId::AlexNet).weight_bytes, 233_000_000);
        assert_eq!(ModelProfile::of(ModelId::Vgg16).weight_bytes, 525_000_000);
        assert_eq!(ModelProfile::of(ModelId::ResNet50).weight_bytes, 98_000_000);
        assert_eq!(ModelProfile::of(ModelId::Hdc).weight_bytes, 2_500_000);
    }

    #[test]
    fn convergence_needs_at_most_two_extra_epochs() {
        for id in ModelId::EVALUATED {
            let c = ModelProfile::of(id).convergence.expect("evaluated model");
            let extra = c.epochs_compressed - c.epochs_baseline;
            assert!((1..=2).contains(&extra), "{id:?}: {extra} extra epochs");
        }
    }

    #[test]
    fn recorded_iteration_spans_cover_the_modeled_time() {
        let p = ModelProfile::of(ModelId::AlexNet);
        let mut buf = obs::EventBuf::local();
        let end0 = p.record_iteration(&mut buf, 0, 0, 0);
        let end1 = p.record_iteration(&mut buf, 0, 1, end0);
        // Six phases per iteration, contiguous spans, no gaps.
        assert_eq!(buf.events().len(), 12);
        let total: u64 = buf.events().iter().take(6).map(|e| e.value).sum();
        assert_eq!(total, end0);
        assert_eq!(end1, 2 * end0);
        let mut cursor = 0u64;
        for e in buf.events().iter().take(6) {
            assert_eq!(e.ts, cursor, "{} out of sequence", e.label);
            cursor += e.value;
        }
        // The clock advances identically with recording off.
        let mut off = obs::EventBuf::disabled();
        assert_eq!(p.record_iteration(&mut off, 0, 0, 0), end0);
        assert!(off.events().is_empty());
    }

    #[test]
    fn gamma_is_sub_nanosecond_per_byte() {
        for id in ModelId::EVALUATED {
            let g = ModelProfile::of(id).gamma_per_byte();
            assert!(g > 0.0 && g < 1e-8, "{id:?}: gamma {g}");
        }
    }
}
