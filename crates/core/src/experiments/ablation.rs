//! Ablations of the design choices DESIGN.md calls out.

use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_compress::{ErrorBound, InceptionnCodec};
use inceptionn_netsim::collective::ring_exchange;
use inceptionn_netsim::sim::NetworkConfig;
use inceptionn_netsim::topology::phase;
use inceptionn_netsim::transfer::{CompressionSpec, Transfer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use super::Fidelity;

/// Ablation 1 — per-value size selection vs a fixed 16-bit payload for
/// every non-droppable value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeSelAblation {
    /// Error-bound exponent.
    pub bound_exp: u8,
    /// Ratio of the full adaptive codec.
    pub adaptive_ratio: f64,
    /// Ratio when every kept sub-1.0 value uses the 16-bit form.
    pub fixed16_ratio: f64,
}

/// Measures how much the adaptive 0/8/16/32 size selection buys over a
/// zero-or-16-bit codec on an AlexNet-style stream.
pub fn size_selection(fidelity: Fidelity, seed: u64) -> Vec<SizeSelAblation> {
    let samples = fidelity.scale(300_000, 20_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let grads = GradientModel::preset(GradientPreset::AlexNet).sample(&mut rng, samples);
    [10u8, 8, 6]
        .into_iter()
        .map(|e| {
            let codec = InceptionnCodec::new(ErrorBound::pow2(e));
            let hist = codec.histogram(&grads);
            let adaptive_ratio = hist.compression_ratio();
            // Fixed-16 variant: Zero and Full keep their encodings; the
            // 8- and 16-bit classes all cost 16 payload bits.
            let fixed_bits = 2 * hist.total() + 16 * (hist.bits8 + hist.bits16) + 32 * hist.full;
            let fixed16_ratio = (hist.total() as f64 * 32.0) / fixed_bits as f64;
            SizeSelAblation {
                bound_exp: e,
                adaptive_ratio,
                fixed16_ratio,
            }
        })
        .collect()
}

/// Ablation 2 — the ring schedule vs a naive full-gradient all-to-all
/// broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyAblation {
    /// Worker count.
    pub nodes: usize,
    /// Ring exchange communication time, seconds.
    pub ring_s: f64,
    /// All-to-all broadcast communication time, seconds.
    pub all_to_all_s: f64,
}

/// Compares the ring against every-worker-broadcasts-everything for a
/// 100 MB gradient.
pub fn topology(nodes_list: &[usize]) -> Vec<TopologyAblation> {
    let bytes = 100_000_000u64;
    nodes_list
        .iter()
        .map(|&p| {
            let cfg = NetworkConfig::ten_gbe(p);
            let ring = ring_exchange(&cfg, bytes, 0.0, None, 0.0).comm_s;
            // All-to-all: every node unicasts its full gradient to every
            // other node, all at once.
            let all_to_all = phase(
                &cfg.tree(),
                (0..p).flat_map(|src| {
                    (0..p)
                        .filter(move |&dst| src != dst)
                        .map(move |dst| Transfer::new(src, dst, bytes))
                }),
            );
            TopologyAblation {
                nodes: p,
                ring_s: ring,
                all_to_all_s: all_to_all,
            }
        })
        .collect()
}

/// Ablation 3 — why compression ratio does not convert 1:1 into
/// communication-time reduction: sweep the per-packet fixed overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketOverheadPoint {
    /// Per-packet header bytes modeled.
    pub header_bytes: u64,
    /// Payload compression ratio applied.
    pub ratio: f64,
    /// Achieved communication-time gain (plain time / compressed time).
    pub time_gain: f64,
}

/// Sweeps header overhead at a fixed 14.9x payload ratio (the paper's
/// best case) on a 20 MB point-to-point transfer.
pub fn packet_overhead_sweep() -> Vec<PacketOverheadPoint> {
    let ratio = 14.9;
    [0u64, 20, 40, 78, 120, 200]
        .into_iter()
        .map(|header_bytes| {
            let mut cfg = NetworkConfig::ten_gbe(2);
            cfg.header_bytes = header_bytes;
            // Isolate the header effect: near-zero host cost per packet.
            cfg.host_ns_per_packet = 10;
            let bytes = 20_000_000u64;
            let (tree, t) = (cfg.tree(), Transfer::new(0, 1, bytes));
            let plain = phase(&tree, [t]);
            let compressed = phase(&tree, [t.compressed(CompressionSpec::new(ratio, 500))]);
            PacketOverheadPoint {
                header_bytes,
                ratio,
                time_gain: plain / compressed,
            }
        })
        .collect()
}

/// Ablation 4 — what fraction of the codec's benefit comes from the
/// 0-bit (dropped) class alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZeroClassAblation {
    /// Error-bound exponent.
    pub bound_exp: u8,
    /// Fraction of values in the 0-bit class.
    pub zero_fraction: f64,
    /// Full codec ratio.
    pub full_ratio: f64,
    /// Ratio of a codec that only drops sub-bound values (everything
    /// else stays 32-bit + tag).
    pub drop_only_ratio: f64,
}

/// Quantifies the 0-bit class's contribution on an AlexNet stream.
pub fn zero_class(fidelity: Fidelity, seed: u64) -> Vec<ZeroClassAblation> {
    let samples = fidelity.scale(300_000, 20_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let grads = GradientModel::preset(GradientPreset::AlexNet).sample(&mut rng, samples);
    [10u8, 8, 6]
        .into_iter()
        .map(|e| {
            let codec = InceptionnCodec::new(ErrorBound::pow2(e));
            let hist = codec.histogram(&grads);
            let zero = hist.zero;
            let kept = hist.total() - zero;
            let drop_only_bits = 2 * hist.total() + 32 * kept;
            ZeroClassAblation {
                bound_exp: e,
                zero_fraction: hist.fractions().0,
                full_ratio: hist.compression_ratio(),
                drop_only_ratio: (hist.total() as f64 * 32.0) / drop_only_bits as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_selection_beats_fixed_16() {
        for a in size_selection(Fidelity::Quick, 1) {
            assert!(
                a.adaptive_ratio >= a.fixed16_ratio * 0.999,
                "2^-{}: adaptive {:.2} vs fixed {:.2}",
                a.bound_exp,
                a.adaptive_ratio,
                a.fixed16_ratio
            );
        }
        // At the loose bound nearly everything fits in 8 bits, so the
        // advantage is pronounced.
        let loose = size_selection(Fidelity::Quick, 1)
            .into_iter()
            .find(|a| a.bound_exp == 6)
            .unwrap();
        assert!(loose.adaptive_ratio > loose.fixed16_ratio * 1.1);
    }

    #[test]
    fn ring_crushes_all_to_all() {
        let rows = topology(&[4, 8]);
        for r in &rows {
            // All-to-all moves (p-1)·n per node vs the ring's 2·(p-1)/p·n.
            assert!(
                r.all_to_all_s > r.ring_s * (r.nodes as f64 / 2.2),
                "p={}: ring {:.3} vs a2a {:.3}",
                r.nodes,
                r.ring_s,
                r.all_to_all_s
            );
        }
    }

    #[test]
    fn packet_overhead_erodes_compression_gain() {
        let sweep = packet_overhead_sweep();
        // Gain decreases monotonically as headers grow.
        for w in sweep.windows(2) {
            assert!(
                w[0].time_gain >= w[1].time_gain * 0.98,
                "{} -> {}: {:.2} then {:.2}",
                w[0].header_bytes,
                w[1].header_bytes,
                w[0].time_gain,
                w[1].time_gain
            );
        }
        // With no headers the gain approaches the ratio; with real headers
        // it lands in the paper's 5.5-11.6x window.
        assert!(sweep[0].time_gain > 12.0);
        let realistic = sweep.iter().find(|p| p.header_bytes == 78).unwrap();
        assert!(
            (5.0..12.0).contains(&realistic.time_gain),
            "realistic gain {:.2}",
            realistic.time_gain
        );
    }

    #[test]
    fn zero_class_does_most_of_the_work_at_loose_bounds() {
        let rows = zero_class(Fidelity::Quick, 2);
        let loose = rows.iter().find(|r| r.bound_exp == 6).unwrap();
        assert!(loose.zero_fraction > 0.85);
        // But the 8/16-bit classes still matter: full ratio well above
        // drop-only.
        assert!(loose.full_ratio > loose.drop_only_ratio * 1.3);
    }
}
