//! Fig. 14 and Table III: compression ratios, bitwidth distributions,
//! and accuracy under each lossy scheme.

use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_compress::truncate::Truncation;
use inceptionn_compress::{BitwidthHistogram, ErrorBound, InceptionnCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use super::truncation::{train_with_corruption, ProxyModel};
use super::Fidelity;

/// A lossy gradient-compression scheme compared in Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// No compression.
    Base,
    /// Truncate `n` LSBs.
    Truncate(u8),
    /// The INCEPTIONN codec at an error bound `2^-e`.
    Inceptionn(u8),
}

impl Scheme {
    /// Fig. 14's seven bars, in order.
    pub const ALL: [Scheme; 7] = [
        Scheme::Base,
        Scheme::Truncate(16),
        Scheme::Truncate(22),
        Scheme::Truncate(24),
        Scheme::Inceptionn(10),
        Scheme::Inceptionn(8),
        Scheme::Inceptionn(6),
    ];

    /// Paper-style label.
    pub fn label(self) -> String {
        match self {
            Scheme::Base => "Base".to_string(),
            Scheme::Truncate(b) => format!("{b}b-T"),
            Scheme::Inceptionn(e) => format!("INC(2^-{e})"),
        }
    }
}

/// One (model, scheme) measurement of Fig. 14(a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioRow {
    /// Model name.
    pub model: String,
    /// Scheme measured.
    pub scheme: Scheme,
    /// Average compression ratio on the model's gradient stream.
    pub ratio: f64,
}

/// Reproduces Fig. 14(a): average compression ratio of every scheme on
/// every model's (synthetic, calibrated) gradient stream.
pub fn fig14_ratios(fidelity: Fidelity, seed: u64) -> Vec<RatioRow> {
    let samples = fidelity.scale(400_000, 20_000);
    let mut rows = Vec::new();
    for preset in GradientPreset::ALL {
        let mut rng = StdRng::seed_from_u64(seed ^ preset as u64);
        let grads = GradientModel::preset(preset).sample(&mut rng, samples);
        for scheme in Scheme::ALL {
            let ratio = match scheme {
                Scheme::Base => 1.0,
                Scheme::Truncate(b) => Truncation::new(b).compression_ratio(),
                Scheme::Inceptionn(e) => InceptionnCodec::new(ErrorBound::pow2(e))
                    .compress(&grads)
                    .compression_ratio(),
            };
            rows.push(RatioRow {
                model: preset.name().to_string(),
                scheme,
                ratio,
            });
        }
    }
    rows
}

/// One (model, scheme) accuracy measurement of Fig. 14(b), run on a
/// really-trained proxy network (see `DESIGN.md` on model substitution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyRow {
    /// Proxy network name.
    pub model: String,
    /// Scheme applied to every exchanged gradient.
    pub scheme: Scheme,
    /// Final test accuracy.
    pub accuracy: f32,
    /// Accuracy relative to the Base run.
    pub relative: f32,
}

/// Reproduces Fig. 14(b) on a trainable proxy: final accuracy when
/// every iteration's gradient passes through the scheme (same number of
/// epochs for all schemes, like the paper).
pub fn fig14_accuracy(model: ProxyModel, fidelity: Fidelity, seed: u64) -> Vec<AccuracyRow> {
    let mut rows: Vec<AccuracyRow> = Vec::new();
    let mut base_acc = 1.0f32;
    for scheme in Scheme::ALL {
        let accuracy = match scheme {
            Scheme::Base => train_with_corruption(model, fidelity, seed, |_| {}, |_| {}),
            Scheme::Truncate(b) => {
                let t = Truncation::new(b);
                train_with_corruption(model, fidelity, seed, move |g| t.apply_inplace(g), |_| {})
            }
            Scheme::Inceptionn(e) => {
                let codec = InceptionnCodec::new(ErrorBound::pow2(e));
                train_with_corruption(
                    model,
                    fidelity,
                    seed,
                    move |g| codec.quantize_inplace(g),
                    |_| {},
                )
            }
        };
        if matches!(scheme, Scheme::Base) {
            base_acc = accuracy.max(1e-6);
        }
        rows.push(AccuracyRow {
            model: model.name().to_string(),
            scheme,
            accuracy,
            relative: accuracy / base_acc,
        });
    }
    rows
}

/// Reproduces Fig. 14(a) *on the wire*: instead of asking the software
/// codec for its output size, every stream is pushed through the
/// modeled NIC datapath (`NicFabric`) and the ratio is read off the
/// transport counters — payload bytes in over post-compression packet
/// payload bytes out. Slightly below [`fig14_ratios`] because each MTU
/// packet is compressed independently (per-packet byte alignment), which
/// is exactly what the hardware ships.
pub fn fig14_wire_ratios(fidelity: Fidelity, seed: u64) -> Vec<RatioRow> {
    use inceptionn_distrib::fabric::{FabricBuilder, TransportKind};
    let samples = fidelity.scale(400_000, 20_000);
    let mut rows = Vec::new();
    for preset in GradientPreset::ALL {
        let mut rng = StdRng::seed_from_u64(seed ^ preset as u64);
        let grads = GradientModel::preset(preset).sample(&mut rng, samples);
        for e in [10u8, 8, 6] {
            let mut fabric = FabricBuilder::new(2)
                .transport(TransportKind::Nic)
                .compression(Some(ErrorBound::pow2(e)))
                .build();
            fabric
                .transfer(0, 1, &grads)
                .expect("matched NIC endpoints always decode each other's frames");
            rows.push(RatioRow {
                model: preset.name().to_string(),
                scheme: Scheme::Inceptionn(e),
                ratio: fabric.stats().wire_ratio(),
            });
        }
    }
    rows
}

/// One row of Table III: the bitwidth distribution of one model at one
/// error bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Model name.
    pub model: String,
    /// Error-bound exponent (`2^-e`).
    pub bound_exp: u8,
    /// The measured tag distribution.
    pub histogram: BitwidthHistogram,
}

/// Reproduces Table III over the calibrated synthetic gradient streams.
pub fn table3(fidelity: Fidelity, seed: u64) -> Vec<Table3Row> {
    let samples = fidelity.scale(400_000, 30_000);
    let mut rows = Vec::new();
    for preset in GradientPreset::ALL {
        let mut rng = StdRng::seed_from_u64(seed ^ (preset as u64) << 3);
        let grads = GradientModel::preset(preset).sample(&mut rng, samples);
        for e in [10u8, 8, 6] {
            let hist = InceptionnCodec::new(ErrorBound::pow2(e)).histogram(&grads);
            rows.push(Table3Row {
                model: preset.name().to_string(),
                bound_exp: e,
                histogram: hist,
            });
        }
    }
    rows
}

/// Table III measured on *real* gradients from a short HDC training run
/// (cross-checking the synthetic calibration).
pub fn table3_real_hdc(fidelity: Fidelity, seed: u64) -> Vec<Table3Row> {
    use inceptionn_dnn::data::DigitDataset;
    use inceptionn_dnn::models;
    use inceptionn_dnn::optim::{Sgd, SgdConfig};
    let mut net = models::hdc_mlp_small(seed);
    let data = DigitDataset::generate(fidelity.scale(2000, 300), seed.wrapping_add(1));
    let mut sgd = Sgd::new(SgdConfig::default(), net.param_count());
    let mut all_grads: Vec<f32> = Vec::new();
    let iters = fidelity.scale(60, 15);
    for it in 0..iters {
        let (x, y) = data.minibatch(it * 25, 25);
        net.forward_backward(&x, &y);
        let mut g = net.flat_grads();
        if it % 5 == 0 {
            all_grads.extend_from_slice(&g);
        }
        let mut p = net.flat_params();
        sgd.step(&mut p, &mut g);
        net.set_flat_params(&p);
    }
    [10u8, 8, 6]
        .into_iter()
        .map(|e| Table3Row {
            model: "HDC (real gradients)".to_string(),
            bound_exp: e,
            histogram: InceptionnCodec::new(ErrorBound::pow2(e)).histogram(&all_grads),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_ratios_are_constant_and_capped_at_four() {
        let rows = fig14_ratios(Fidelity::Quick, 1);
        for r in rows
            .iter()
            .filter(|r| matches!(r.scheme, Scheme::Truncate(_)))
        {
            assert!(r.ratio <= 4.0, "{:?}: {}", r.scheme, r.ratio);
        }
        // INC at the loosest bound reaches near-15x on at least one model.
        let best = rows
            .iter()
            .filter(|r| r.scheme == Scheme::Inceptionn(6))
            .map(|r| r.ratio)
            .fold(0.0f64, f64::max);
        assert!(best > 11.0, "best INC(2^-6) ratio {best:.1}");
    }

    #[test]
    fn inceptionn_ratio_grows_as_bound_relaxes() {
        let rows = fig14_ratios(Fidelity::Quick, 2);
        for model in ["AlexNet", "HDC", "ResNet-50", "VGG-16"] {
            let get = |s: Scheme| {
                rows.iter()
                    .find(|r| r.model == model && r.scheme == s)
                    .unwrap()
                    .ratio
            };
            let (r10, r8, r6) = (
                get(Scheme::Inceptionn(10)),
                get(Scheme::Inceptionn(8)),
                get(Scheme::Inceptionn(6)),
            );
            assert!(r10 < r8 && r8 < r6, "{model}: {r10:.1} {r8:.1} {r6:.1}");
            assert!(
                r10 > 2.0,
                "{model}: even the tight bound beats 2x ({r10:.1})"
            );
        }
    }

    #[test]
    fn inceptionn_preserves_accuracy_where_deep_truncation_fails() {
        // Fig. 14(b)'s contrast on the trainable proxy: every INC bound
        // keeps relative accuracy near 1.0.
        let rows = fig14_accuracy(ProxyModel::Hdc, Fidelity::Quick, 11);
        for r in &rows {
            if let Scheme::Inceptionn(e) = r.scheme {
                // Tight bounds must be indistinguishable from lossless; the
                // aggressive 2^-6 bound may lag at quick fidelity (the paper
                // recovers its ~2% gap with 1-2 extra epochs, Sec. VIII-B).
                let floor = if e >= 8 { 0.85 } else { 0.70 };
                assert!(
                    r.relative > floor,
                    "{}: relative {:.2}",
                    r.scheme.label(),
                    r.relative
                );
            }
        }
        // (No truncation comparison here: the paper itself finds HDC-class
        // MLPs tolerate even 24-bit gradient truncation — Fig. 14's
        // truncation collapse only appears on the complex CNNs.)
    }

    #[test]
    fn wire_ratios_track_the_codec_ratios() {
        // The NIC ships per-packet compressed streams; the achieved wire
        // ratio must sit within a few percent of the whole-stream codec
        // ratio (per-packet alignment costs at most a byte per 1448).
        let codec = fig14_ratios(Fidelity::Quick, 5);
        let wire = fig14_wire_ratios(Fidelity::Quick, 5);
        for w in &wire {
            let c = codec
                .iter()
                .find(|r| r.model == w.model && r.scheme == w.scheme)
                .unwrap();
            assert!(
                w.ratio > 1.5,
                "{} {:?}: wire {:.2}",
                w.model,
                w.scheme,
                w.ratio
            );
            let rel = (w.ratio - c.ratio).abs() / c.ratio;
            assert!(
                rel < 0.05,
                "{} {:?}: wire {:.2} vs codec {:.2}",
                w.model,
                w.scheme,
                w.ratio,
                c.ratio
            );
        }
    }

    #[test]
    fn table3_matches_paper_trends() {
        let rows = table3(Fidelity::Quick, 3);
        assert_eq!(rows.len(), 12);
        for model in ["AlexNet", "HDC", "ResNet-50", "VGG-16"] {
            let zero_at = |e: u8| {
                rows.iter()
                    .find(|r| r.model == model && r.bound_exp == e)
                    .unwrap()
                    .histogram
                    .fractions()
                    .0
            };
            // Looser bound -> more 2-bit values; >= 74% everywhere.
            assert!(
                zero_at(10) < zero_at(8) && zero_at(8) < zero_at(6),
                "{model}"
            );
            assert!(zero_at(10) > 0.70, "{model}: {:.3}", zero_at(10));
            assert!(zero_at(6) > 0.90, "{model}: {:.3}", zero_at(6));
        }
    }

    #[test]
    fn real_hdc_gradients_compress_like_the_calibration() {
        let real = table3_real_hdc(Fidelity::Quick, 4);
        for row in &real {
            let (zero, _, _, _) = row.histogram.fractions();
            assert!(
                zero > 0.5,
                "real HDC @2^-{}: zero fraction {zero:.3}",
                row.bound_exp
            );
        }
        // The compression ratio on real gradients is substantial.
        let r10 = &real[0];
        assert!(r10.histogram.compression_ratio() > 3.0);
    }
}
