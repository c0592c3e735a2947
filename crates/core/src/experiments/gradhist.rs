//! Fig. 5: the distribution of gradient values at early, middle, and
//! final training stages.
//!
//! The paper plots AlexNet's gradients at iterations 100 / 100k / 300k:
//! all values inside `(-1, 1)`, sharply peaked at zero, at every stage.
//! This driver trains the HDC network for real and snapshots its
//! gradient vector at three stages; the `fig05` entry of
//! [`super::artifacts`] renders the histograms.

use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::models;
use inceptionn_dnn::optim::{Sgd, SgdConfig};
use serde::{Deserialize, Serialize};

use super::Fidelity;

/// A normalized histogram over `(-range, +range)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Half-width of the domain.
    pub range: f32,
    /// Per-bin frequency (sums to ≤ 1; out-of-range mass excluded).
    pub bins: Vec<f64>,
    /// Fraction of values inside `(-range, +range)`.
    pub in_range_fraction: f64,
    /// Fraction of values with |v| below `range / 100` (the "peak").
    pub near_zero_fraction: f64,
}

impl Histogram {
    /// Builds a histogram of `values` with `bins` buckets over
    /// `(-range, +range)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `range <= 0`.
    pub fn build(values: &[f32], bins: usize, range: f32) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(range > 0.0, "range must be positive");
        let mut counts = vec![0u64; bins];
        let mut inside = 0u64;
        let mut near_zero = 0u64;
        for &v in values {
            if v.abs() < range {
                inside += 1;
                let pos = ((v + range) / (2.0 * range) * bins as f32) as usize;
                counts[pos.min(bins - 1)] += 1;
            }
            if v.abs() < range / 100.0 {
                near_zero += 1;
            }
        }
        let n = values.len().max(1) as f64;
        Histogram {
            range,
            bins: counts.iter().map(|&c| c as f64 / n).collect(),
            in_range_fraction: inside as f64 / n,
            near_zero_fraction: near_zero as f64 / n,
        }
    }
}

/// One training-stage snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Label ("early" / "middle" / "final").
    pub stage: String,
    /// Iteration the snapshot was taken at.
    pub iteration: usize,
    /// The gradient histogram.
    pub histogram: Histogram,
}

/// Reproduces Fig. 5 on the real HDC network: gradient histograms at
/// three stages of training.
pub fn run(fidelity: Fidelity, seed: u64) -> Vec<StageSnapshot> {
    let total_iters = fidelity.scale(1500, 120);
    let stages = [
        ("early", total_iters / 30),
        ("middle", total_iters / 2),
        ("final", total_iters - 1),
    ];
    let mut net = match fidelity {
        Fidelity::Quick => models::hdc_mlp_small(seed),
        Fidelity::Full => models::hdc_mlp(seed),
    };
    let data = DigitDataset::generate(fidelity.scale(4000, 400), seed.wrapping_add(1));
    let mut sgd = Sgd::new(
        SgdConfig {
            learning_rate: 0.05,
            ..SgdConfig::default()
        },
        net.param_count(),
    );
    let batch = 25usize; // Table I's HDC batch size
    let mut out = Vec::new();
    for it in 0..total_iters {
        let (x, y) = data.minibatch(it * batch, batch);
        net.forward_backward(&x, &y);
        let mut grads = net.flat_grads();
        if let Some((stage, _)) = stages.iter().find(|&&(_, at)| at == it) {
            out.push(StageSnapshot {
                stage: stage.to_string(),
                iteration: it,
                histogram: Histogram::build(&grads, 41, 1.0),
            });
        }
        let mut params = net.flat_params();
        sgd.step(&mut params, &mut grads);
        net.set_flat_params(&params);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mechanics() {
        let h = Histogram::build(&[-0.5, 0.0, 0.5, 2.0], 4, 1.0);
        assert!((h.in_range_fraction - 0.75).abs() < 1e-9);
        let total: f64 = h.bins.iter().sum();
        assert!((total - 0.75).abs() < 1e-9);
        // -0.5 lands in bin 1, 0.0 in bin 2, 0.5 in bin 3.
        assert!(h.bins[1] > 0.0 && h.bins[2] > 0.0 && h.bins[3] > 0.0);
        assert_eq!(h.bins[0], 0.0);
    }

    #[test]
    fn real_gradients_match_paper_shape_at_all_stages() {
        let snaps = run(Fidelity::Quick, 3);
        assert_eq!(snaps.len(), 3);
        for s in &snaps {
            // Fig. 5: essentially all mass inside (-1, 1)…
            assert!(
                s.histogram.in_range_fraction > 0.99,
                "{}: {:.3} in range",
                s.stage,
                s.histogram.in_range_fraction
            );
            // …peaked tightly at zero.
            assert!(
                s.histogram.near_zero_fraction > 0.5,
                "{}: near-zero {:.3}",
                s.stage,
                s.histogram.near_zero_fraction
            );
            // The central bin dominates any edge bin.
            let center = s.histogram.bins[20];
            assert!(center > 10.0 * s.histogram.bins[1].max(1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::build(&[0.0], 0, 1.0);
    }
}
