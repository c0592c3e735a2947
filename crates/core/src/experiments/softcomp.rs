//! Fig. 7: why *software* compression does not pay.
//!
//! The paper measures that routing gradients through Snappy (lossless)
//! or SZ (error-bounded lossy) in software makes total training time
//! *worse* — the CPU cycles spent compressing outweigh the network time
//! saved (Sec. III / Fig. 7), which is the case for pushing the codec
//! into the NIC. This driver measures our real software codecs'
//! throughput on this machine, then projects the per-iteration effect
//! on each model exactly as the paper frames it.

use std::time::Instant;

use inceptionn_compress::gradmodel::GradientModel;
use inceptionn_compress::szlike::SzCodec;
use inceptionn_compress::truncate::Truncation;
use inceptionn_compress::{lz, ErrorBound};
use inceptionn_dnn::profile::{ModelId, ModelProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::cluster::{iteration_breakdown, ClusterConfig, SystemKind};
use inceptionn_netsim::collective::worker_aggregator_exchange;
use inceptionn_netsim::sim::NetworkConfig;
use inceptionn_netsim::transfer::CompressionSpec;

use super::Fidelity;

/// A software compression scheme of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SoftScheme {
    /// No compression (the baseline).
    Base,
    /// Snappy-class lossless LZ.
    Lz,
    /// SZ-class error-bounded lossy (at `2^-10`).
    Sz,
    /// 16-LSB truncation with software bit packing.
    Trunc16,
    /// The paper's answer: the same lossy codec in the NIC datapath
    /// (measured via the fabric stack, not part of Fig. 7's four bars).
    NicHardware,
}

impl SoftScheme {
    /// The schemes in Fig. 7's order.
    pub const ALL: [SoftScheme; 4] = [
        SoftScheme::Base,
        SoftScheme::Lz,
        SoftScheme::Sz,
        SoftScheme::Trunc16,
    ];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            SoftScheme::Base => "Base",
            SoftScheme::Lz => "Snappy-class LZ",
            SoftScheme::Sz => "SZ-class lossy",
            SoftScheme::Trunc16 => "16b-T (software)",
            SoftScheme::NicHardware => "INC in-NIC (hardware)",
        }
    }
}

/// Measured behaviour of one software codec on gradient data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodecProfile {
    /// Which scheme.
    pub scheme: SoftScheme,
    /// Compression ratio achieved on the sampled gradient stream.
    pub ratio: f64,
    /// One-way software throughput, bytes/second (compress side;
    /// decompress assumed symmetric, which is conservative for LZ).
    pub throughput_bps: f64,
}

/// Measures ratio and throughput of every scheme on a synthetic
/// AlexNet-distribution gradient buffer.
pub fn profile_codecs(fidelity: Fidelity, seed: u64) -> Vec<CodecProfile> {
    let n_values = fidelity.scale(2_000_000, 50_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let grads = GradientModel::preset(inceptionn_compress::gradmodel::GradientPreset::AlexNet)
        .sample(&mut rng, n_values);
    let bytes = (grads.len() * 4) as f64;
    let mut out = Vec::new();
    for scheme in SoftScheme::ALL {
        let (ratio, secs) = match scheme {
            SoftScheme::Base => (1.0, f64::INFINITY),
            SoftScheme::NicHardware => {
                unreachable!("hardware reference is measured by fig7_nic_reference, not profiled")
            }
            SoftScheme::Lz => {
                let raw: Vec<u8> = grads.iter().flat_map(|v| v.to_le_bytes()).collect();
                let t = Instant::now();
                let packed = lz::compress(&raw);
                (bytes / packed.len() as f64, t.elapsed().as_secs_f64())
            }
            SoftScheme::Sz => {
                let codec = SzCodec::new(ErrorBound::pow2(10));
                let t = Instant::now();
                let packed = codec.compress(&grads);
                (bytes / packed.len() as f64, t.elapsed().as_secs_f64())
            }
            SoftScheme::Trunc16 => {
                let trunc = Truncation::new(16);
                let t = Instant::now();
                let packed = trunc.compress(&grads);
                (bytes / packed.len() as f64, t.elapsed().as_secs_f64())
            }
        };
        let throughput = if secs.is_finite() && secs > 0.0 {
            bytes / secs
        } else {
            f64::INFINITY
        };
        out.push(CodecProfile {
            scheme,
            ratio,
            throughput_bps: throughput,
        });
    }
    out
}

/// One bar of Fig. 7: the projected training-time impact of a software
/// scheme on one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Model name.
    pub model: String,
    /// Scheme applied.
    pub scheme: SoftScheme,
    /// Per-iteration total, seconds.
    pub iteration_s: f64,
    /// Normalized to the model's Base bar.
    pub normalized: f64,
}

/// CPU worker threads the software codec parallelizes over at the
/// aggregator (the paper's Xeon E5-2640 has 10 cores; stream-parallel
/// compression scales nearly linearly).
pub const CODEC_THREADS: f64 = 8.0;

/// Projects Fig. 7 for AlexNet and HDC using measured codec profiles.
///
/// The model follows the paper's WA setup: the gradient (up) leg is
/// software-compressed at the measured ratio, and the aggregator — the
/// compute bottleneck — must decompress `p` gradient streams and
/// compress `p` outgoing streams per iteration at the measured
/// single-thread throughput scaled by [`CODEC_THREADS`].
pub fn fig7(cfg: &ClusterConfig, codecs: &[CodecProfile]) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for id in [ModelId::AlexNet, ModelId::Hdc] {
        let profile = ModelProfile::of(id);
        let base = iteration_breakdown(&profile, SystemKind::Wa, cfg);
        for c in codecs {
            let total = if matches!(c.scheme, SoftScheme::Base) {
                base.total_s()
            } else {
                // Comm with the gradient leg shrunk by the software ratio
                // (packets still form in the host, so treat it as an ideal
                // payload reduction with no engine latency).
                let spec = CompressionSpec::new(c.ratio.max(1.0), 0);
                let net = NetworkConfig::ten_gbe(cfg.workers + 1);
                let exchange = worker_aggregator_exchange(
                    &net,
                    cfg.workers,
                    profile.weight_bytes,
                    profile.gamma_per_byte(),
                    Some(spec),
                );
                // Aggregator-side software codec cost: p streams in, p out,
                // parallelized over the Xeon's cores.
                let codec_s = 2.0 * cfg.workers as f64 * profile.weight_bytes as f64
                    / (c.throughput_bps * CODEC_THREADS);
                base.local_compute_s + exchange.reduce_s + exchange.comm_s + codec_s
            };
            rows.push(Fig7Row {
                model: profile.name().to_string(),
                scheme: c.scheme,
                iteration_s: total,
                normalized: total / base.total_s(),
            });
        }
    }
    rows
}

/// The counterpoint row Fig. 7 argues *for*: the same error-bounded
/// codec moved into the NIC. The compression ratio and per-packet engine
/// time are measured on the real modeled datapath (a [`NicFabric`]
/// transfer of the sampled stream), then projected onto the same WA
/// exchange as [`fig7`] — with **zero** host codec seconds, because the
/// engines sit in line with the MAC.
///
/// [`NicFabric`]: inceptionn_distrib::fabric::NicFabric
pub fn fig7_nic_reference(cfg: &ClusterConfig, fidelity: Fidelity, seed: u64) -> Vec<Fig7Row> {
    use inceptionn_distrib::fabric::{FabricBuilder, TransportKind};
    use inceptionn_nicsim::engine::NS_PER_CYCLE;

    let n_values = fidelity.scale(2_000_000, 50_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let grads = GradientModel::preset(inceptionn_compress::gradmodel::GradientPreset::AlexNet)
        .sample(&mut rng, n_values);
    let mut fabric = FabricBuilder::new(2)
        .transport(TransportKind::Nic)
        .compression(Some(ErrorBound::pow2(10)))
        .build();
    fabric
        .transfer(0, 1, &grads)
        .expect("matched NIC endpoints always decode each other's frames");
    let stats = fabric.stats();
    // Compress + decompress engine time, averaged per MTU packet.
    let engine_ns_per_packet = stats.engine_cycles * NS_PER_CYCLE / stats.packets.max(1);
    let spec = CompressionSpec::new(stats.wire_ratio().max(1.0), engine_ns_per_packet);

    let mut rows = Vec::new();
    for id in [ModelId::AlexNet, ModelId::Hdc] {
        let profile = ModelProfile::of(id);
        let base = iteration_breakdown(&profile, SystemKind::Wa, cfg);
        let net = NetworkConfig::ten_gbe(cfg.workers + 1);
        let exchange = worker_aggregator_exchange(
            &net,
            cfg.workers,
            profile.weight_bytes,
            profile.gamma_per_byte(),
            Some(spec),
        );
        let total = base.local_compute_s + exchange.reduce_s + exchange.comm_s;
        rows.push(Fig7Row {
            model: profile.name().to_string(),
            scheme: SoftScheme::NicHardware,
            iteration_s: total,
            normalized: total / base.total_s(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            ratio_samples: 2000,
            ..ClusterConfig::default()
        }
    }

    /// Hand-written codec behaviour, the ratios and single-thread rates
    /// of the committed `results/fig07.txt`, so the `fig7` verdicts below
    /// depend on the model and not on how fast or loaded the host is.
    /// (16b-T's verdict flips near 0.6 GB/s, which is how the
    /// host-timed form of these tests flaked.)
    fn model_profiles() -> Vec<CodecProfile> {
        [
            (SoftScheme::Base, 1.0, f64::INFINITY),
            (SoftScheme::Lz, 1.0, 0.2e9),
            (SoftScheme::Sz, 3.9, 0.13e9),
            (SoftScheme::Trunc16, 2.0, 0.5e9),
        ]
        .into_iter()
        .map(|(scheme, ratio, throughput_bps)| CodecProfile {
            scheme,
            ratio,
            throughput_bps,
        })
        .collect()
    }

    #[test]
    fn lossless_ratio_is_poor_on_gradients() {
        let codecs = profile_codecs(Fidelity::Quick, 1);
        let lz = codecs.iter().find(|c| c.scheme == SoftScheme::Lz).unwrap();
        assert!(lz.ratio < 2.0, "LZ ratio {:.2}", lz.ratio);
        let sz = codecs.iter().find(|c| c.scheme == SoftScheme::Sz).unwrap();
        assert!(sz.ratio > lz.ratio, "SZ should beat LZ on ratio");
    }

    #[test]
    fn software_compression_hurts_total_time() {
        // Fig. 7's headline: every software scheme makes AlexNet training
        // slower than no compression at all.
        let rows = fig7(&quick_cfg(), &model_profiles());
        let alex: Vec<&Fig7Row> = rows.iter().filter(|r| r.model == "AlexNet").collect();
        let base = alex.iter().find(|r| r.scheme == SoftScheme::Base).unwrap();
        assert!((base.normalized - 1.0).abs() < 1e-9);
        for r in &alex {
            if r.scheme != SoftScheme::Base {
                assert!(
                    r.normalized > 1.0,
                    "{:?} unexpectedly helped: {:.2}",
                    r.scheme,
                    r.normalized
                );
            }
        }
    }

    #[test]
    fn rows_cover_both_models_and_all_schemes() {
        let rows = fig7(&quick_cfg(), &model_profiles());
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|r| r.model == "HDC"));
    }

    #[test]
    fn in_nic_compression_beats_every_software_scheme_and_base() {
        // Fig. 7's conclusion, measured on the fabric stack: software
        // compression makes iterations slower, hardware makes them
        // faster.
        let cfg = quick_cfg();
        let hw = fig7_nic_reference(&cfg, Fidelity::Quick, 4);
        assert_eq!(hw.len(), 2);
        let soft = fig7(&cfg, &model_profiles());
        for row in &hw {
            assert!(
                row.normalized < 1.0,
                "{}: in-NIC normalized {:.3}",
                row.model,
                row.normalized
            );
            for s in soft.iter().filter(|s| s.model == row.model) {
                assert!(
                    row.normalized < s.normalized + 1e-9,
                    "{}: hw {:.3} vs {:?} {:.3}",
                    row.model,
                    row.normalized,
                    s.scheme,
                    s.normalized
                );
            }
        }
    }
}
