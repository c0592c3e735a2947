//! Fig. 3, Table I, and Table II: model sizes, hyper-parameters, and
//! the worker-aggregator time breakdown.

use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::{CodecSelection, TransportKind};
use inceptionn_distrib::{DistributedTrainer, ExchangeStrategy, TrainerConfig};
use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::models;
use inceptionn_dnn::profile::{ModelId, ModelProfile};
use serde::{Deserialize, Serialize};

use crate::cluster::{iteration_breakdown, ClusterConfig, SystemKind};

/// One row of the reproduced Table II (absolute seconds per 100
/// iterations on the 5-node WA cluster).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Model name.
    pub model: String,
    /// Forward pass (from the paper's measurements).
    pub forward: f64,
    /// Backward pass.
    pub backward: f64,
    /// GPU↔host copies.
    pub gpu_copy: f64,
    /// Gradient summation.
    pub grad_sum: f64,
    /// Communication — **simulated** by the packet-level model.
    pub communicate: f64,
    /// Weight update.
    pub update: f64,
    /// The paper's measured communication time, for comparison.
    pub paper_communicate: f64,
}

impl Table2Row {
    /// Total of the six phases.
    pub fn total(&self) -> f64 {
        self.forward
            + self.backward
            + self.gpu_copy
            + self.grad_sum
            + self.communicate
            + self.update
    }

    /// Fraction of time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        self.communicate / self.total()
    }
}

/// Reproduces Table II: per-phase times for 100 training iterations.
pub fn table2(cfg: &ClusterConfig) -> Vec<Table2Row> {
    ModelId::EVALUATED
        .iter()
        .map(|&id| {
            let p = ModelProfile::of(id);
            let sim = iteration_breakdown(&p, SystemKind::Wa, cfg);
            Table2Row {
                model: p.name().to_string(),
                forward: 100.0 * p.t_forward,
                backward: 100.0 * p.t_backward,
                gpu_copy: 100.0 * p.t_gpu_copy,
                grad_sum: 100.0 * sim.reduce_s,
                communicate: 100.0 * sim.comm_s,
                update: 100.0 * p.t_update,
                paper_communicate: 100.0 * p.paper_t_communicate,
            }
        })
        .collect()
}

/// One bar pair of Fig. 3: model size and communication share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Model name.
    pub model: String,
    /// Exchanged weight/gradient size, MB.
    pub size_mb: f64,
    /// Fraction of WA training time spent communicating.
    pub comm_fraction: f64,
}

/// Reproduces Fig. 3 for the three models it plots.
pub fn fig3(cfg: &ClusterConfig) -> Vec<Fig3Row> {
    ModelId::FIG3
        .iter()
        .map(|&id| {
            let p = ModelProfile::of(id);
            let sim = iteration_breakdown(&p, SystemKind::Wa, cfg);
            Fig3Row {
                model: p.name().to_string(),
                size_mb: p.weight_bytes as f64 / 1e6,
                comm_fraction: sim.comm_fraction(),
            }
        })
        .collect()
}

/// Per-iteration transport measurements of one system on the trainable
/// HDC proxy — Table II's communication column cross-checked against the
/// real fabric stack instead of the closed-form collective model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricCommRow {
    /// System label (Fig. 12 vocabulary: WA, WA+C, INC, INC+C).
    pub system: String,
    /// Application gradient bytes entering the transport per iteration.
    pub payload_bytes_per_iter: f64,
    /// Post-compression bytes on the wire per iteration.
    pub wire_bytes_per_iter: f64,
    /// Link latency charged per iteration, seconds.
    pub link_s_per_iter: f64,
    /// NIC engine cycles spent per iteration.
    pub engine_cycles_per_iter: f64,
}

impl FabricCommRow {
    /// Achieved wire compression ratio.
    pub fn wire_ratio(&self) -> f64 {
        self.payload_bytes_per_iter / self.wire_bytes_per_iter.max(1.0)
    }
}

/// Measures the four Fig. 12 systems on the real stack: the HDC proxy
/// trains for `iters` iterations over the full co-design transport
/// ([`TransportKind::TimedNic`] — every gradient block traverses the
/// modeled NIC engines and is charged 10 GbE link latency), and the
/// per-iteration transport totals are read off the fabric counters.
/// Every system's run records its iteration spans, fabric counters,
/// NIC engine spans, and link occupancy into `recorder` (the four
/// systems share one wall-clock epoch, so they appear back to back in
/// the exported trace).
pub fn hdc_fabric_comm(
    workers: usize,
    iters: usize,
    seed: u64,
    recorder: &obs::Recorder,
) -> Vec<FabricCommRow> {
    let data = DigitDataset::generate(workers * 40, seed);
    SystemKind::ALL
        .iter()
        .map(|&system| {
            let cfg = TrainerConfig {
                workers,
                strategy: if system.is_ring() {
                    ExchangeStrategy::Ring
                } else {
                    ExchangeStrategy::WorkerAggregator
                },
                transport: TransportKind::TimedNic,
                codec: CodecSelection::from_bound(
                    system.is_compressed().then(|| ErrorBound::pow2(10)),
                ),
                batch_per_worker: 8,
                seed,
                recorder: recorder.clone(),
                ..TrainerConfig::default()
            };
            let mut trainer = DistributedTrainer::new(cfg, models::hdc_mlp_small, &data);
            trainer.train_iterations(iters);
            trainer.flush_trace();
            let stats = trainer.fabric_stats();
            let per_iter = |v: u64| v as f64 / iters as f64;
            FabricCommRow {
                system: system.label().to_string(),
                payload_bytes_per_iter: per_iter(stats.payload_bytes),
                wire_bytes_per_iter: per_iter(stats.wire_bytes),
                link_s_per_iter: per_iter(stats.link_latency_ns) * 1e-9,
                engine_cycles_per_iter: per_iter(stats.engine_cycles),
            }
        })
        .collect()
}

/// One column of Table I (training hyper-parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Column {
    /// Model name.
    pub model: String,
    /// Per-node minibatch size.
    pub batch_per_node: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// LR division factor of the step schedule.
    pub lr_reduction: f32,
    /// Schedule period (iterations).
    pub lr_reduction_iters: u64,
    /// Momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Total training iterations.
    pub train_iterations: u64,
}

/// Reproduces Table I.
pub fn table1() -> Vec<Table1Column> {
    ModelId::EVALUATED
        .iter()
        .map(|&id| {
            let p = ModelProfile::of(id);
            Table1Column {
                model: p.name().to_string(),
                batch_per_node: p.batch_per_node,
                learning_rate: p.sgd.learning_rate,
                lr_reduction: p.sgd.lr_reduction,
                lr_reduction_iters: p.sgd.lr_reduction_iters,
                momentum: p.sgd.momentum,
                weight_decay: p.sgd.weight_decay,
                train_iterations: p.train_iterations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ClusterConfig {
        ClusterConfig {
            ratio_samples: 2000,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn table2_reproduces_comm_dominance() {
        let rows = table2(&quick());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            // VGG-16's simulated share is ~60% (the paper's own testbed ran
            // VGG communication anomalously slow; see EXPERIMENTS.md).
            assert!(
                row.comm_fraction() > 0.55,
                "{}: comm {:.2}",
                row.model,
                row.comm_fraction()
            );
        }
    }

    #[test]
    fn table2_simulated_comm_tracks_paper_for_most_models() {
        // The paper's own VGG-16 measurement runs ~70% above raw-bandwidth
        // expectations (see EXPERIMENTS.md); everything else should land
        // within 25%.
        let rows = table2(&quick());
        let mut close = 0;
        for row in &rows {
            let rel = (row.communicate - row.paper_communicate).abs() / row.paper_communicate;
            if rel < 0.25 {
                close += 1;
            }
        }
        assert!(close >= 3, "only {close} models near the paper's comm time");
    }

    #[test]
    fn fig3_sizes_match_the_paper() {
        let rows = fig3(&quick());
        let sizes: Vec<(String, f64)> = rows.iter().map(|r| (r.model.clone(), r.size_mb)).collect();
        assert_eq!(sizes[0], ("AlexNet".to_string(), 233.0));
        assert_eq!(sizes[2], ("VGG-16".to_string(), 525.0));
        for r in &rows {
            assert!(r.comm_fraction > 0.5 && r.comm_fraction < 0.95);
        }
    }

    #[test]
    fn fabric_comm_reproduces_the_fig12_ordering() {
        let rows = hdc_fabric_comm(4, 2, 17, &obs::Recorder::off());
        assert_eq!(rows.len(), 4);
        let get = |label: &str| rows.iter().find(|r| r.system == label).unwrap();
        let (wa, wac, inc, incc) = (get("WA"), get("WA+C"), get("INC"), get("INC+C"));
        // Uncompressed systems ship raw bytes; compressed ones spend
        // engine cycles and shrink the wire.
        assert_eq!(wa.engine_cycles_per_iter, 0.0);
        assert_eq!(wa.payload_bytes_per_iter, wa.wire_bytes_per_iter);
        assert!(incc.engine_cycles_per_iter > 0.0);
        assert!(
            incc.wire_ratio() > 1.5,
            "INC+C ratio {:.2}",
            incc.wire_ratio()
        );
        // WA+C compresses only the gather leg; INC+C compresses both, so
        // its achieved ratio is strictly better.
        assert!(
            incc.wire_ratio() > wac.wire_ratio() * 1.2,
            "INC+C {:.2} vs WA+C {:.2}",
            incc.wire_ratio(),
            wac.wire_ratio()
        );
        // Compression cuts the link time charged for the same exchange.
        assert!(incc.link_s_per_iter < inc.link_s_per_iter);
        assert!(wac.link_s_per_iter < wa.link_s_per_iter);
        assert!(inc.link_s_per_iter > 0.0);
    }

    #[test]
    fn traced_fabric_comm_totals_match_the_counters() {
        let recorder = obs::Recorder::on();
        let rows = hdc_fabric_comm(2, 1, 18, &recorder);
        let summary = recorder.finish().summary();
        // One iteration per system, so the per-iteration columns are the
        // run totals; the trace must account for every wire byte.
        let want_wire: f64 = rows.iter().map(|r| r.wire_bytes_per_iter).sum();
        assert_eq!(summary.total_wire_bytes() as f64, want_wire);
        assert!(summary.total_engine_cycles() > 0);
        assert!(summary.comm_fraction() > 0.0);
        // Four systems × one iteration each, sharing iteration keys.
        assert_eq!(summary.exchange_ns_by_label.len(), 2, "ring + aggregator");
    }

    #[test]
    fn table1_matches_paper_hyperparameters() {
        let cols = table1();
        let alex = &cols[0];
        assert_eq!(alex.batch_per_node, 64);
        assert_eq!(alex.train_iterations, 320_000);
        let hdc = &cols[1];
        assert_eq!(hdc.batch_per_node, 25);
        assert!((hdc.learning_rate - 0.1).abs() < 1e-6);
        assert_eq!(hdc.lr_reduction_iters, 2_000);
    }
}
