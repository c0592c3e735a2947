//! The paper's two gradient exchanges on its one-switch star.
//!
//! Both are the depth-1 case of the topology builders in
//! [`crate::topology`], which hold the one simulated description of
//! each strategy:
//!
//! * [`worker_aggregator_exchange`] — the conventional baseline (Fig. 2):
//!   every worker ships its full gradient to the aggregator (an incast
//!   onto one downlink), the aggregator sum-reduces all streams, then
//!   ships the updated weights back (a broadcast off one uplink). The
//!   aggregator is one more leaf of the star, so this is
//!   [`wa_exchange_on`] over `workers + 1` nodes;
//! * [`ring_exchange`] — INCEPTIONN's Algorithm 1: gradients are split
//!   into `p` blocks; `p−1` reduce-scatter steps pass partial sums
//!   around the ring while every node adds its contribution, then `p−1`
//!   all-gather steps propagate the fully reduced blocks. Every link
//!   carries traffic concurrently and aggregation work is spread evenly.
//!   This is [`ring_exchange_on`] with one ring over all `p` nodes.

use crate::sim::NetworkConfig;
use crate::topology::{ring_exchange_on, wa_exchange_on, ExchangeTimes};
use crate::transfer::CompressionSpec;

/// Simulates one iteration of the conventional worker-aggregator
/// exchange.
///
/// The star has `workers + 1` nodes: `workers` workers plus the
/// aggregator (only `cfg`'s link and per-hop constants are used, not its
/// node count). `gradient_bytes` flow up from every worker (optionally
/// compressed — the only compressible leg, since the downward leg
/// carries weights); the same number of weight bytes flows back down
/// uncompressed. `gamma_s_per_byte` is the aggregator's sum-reduction
/// cost per byte per stream. With no workers nothing moves and the
/// exchange takes no time.
pub fn worker_aggregator_exchange(
    cfg: &NetworkConfig,
    workers: usize,
    gradient_bytes: u64,
    gamma_s_per_byte: f64,
    gradient_compression: Option<CompressionSpec>,
) -> ExchangeTimes {
    wa_exchange_on(
        &NetworkConfig {
            nodes: workers + 1,
            ..*cfg
        }
        .tree(),
        &[workers + 1],
        gradient_bytes,
        gamma_s_per_byte,
        gradient_compression,
    )
}

/// Per-byte host-side cost of one ring step in the paper's software
/// stack, seconds per *uncompressed* block byte.
///
/// The paper's ring is a custom receive→reduce→send loop over OpenMPI
/// point-to-point sockets, and its measured step times run well above
/// wire serialization (e.g., AlexNet: ~111 ms/step observed vs ~49 ms
/// of pure 10 GbE wire time for a 58 MB block; ResNet-50: ~42 vs
/// ~21 ms). The gap is the non-pipelined per-byte receive/copy path,
/// and — critically — it is paid on *decompressed* bytes, which is why
/// the paper's compressed exchange has a time floor (Sec. VIII-C).
/// 0.5 ns/B reproduces the Table II / Fig. 12 step times across the
/// models; pass `0.0` for an idealized fully-pipelined stack.
pub const RING_HOST_S_PER_BYTE: f64 = 0.5e-9;

/// Simulates one iteration of INCEPTIONN's gradient-centric ring
/// exchange (Algorithm 1).
///
/// All `p = cfg.nodes` nodes participate; gradients are split into `p`
/// blocks of `gradient_bytes / p`. With `compression` set, *both* legs
/// (reduce-scatter and all-gather) are compressed — the property the
/// aggregator-free algorithm exists to enable. A single node has no
/// ring and the exchange takes no time.
///
/// `host_s_per_byte` is the per-block-byte host cost serialized after
/// each step's wire time (see [`RING_HOST_S_PER_BYTE`]); it applies to
/// the uncompressed block size on both legs.
///
/// # Panics
///
/// Panics if the configuration has no nodes.
pub fn ring_exchange(
    cfg: &NetworkConfig,
    gradient_bytes: u64,
    gamma_s_per_byte: f64,
    compression: Option<CompressionSpec>,
    host_s_per_byte: f64,
) -> ExchangeTimes {
    ring_exchange_on(
        &cfg.tree(),
        &[cfg.nodes],
        gradient_bytes,
        gamma_s_per_byte,
        compression,
        host_s_per_byte,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAMMA: f64 = 1e-10; // ~0.1 ns/byte, Table II scale

    fn mb(m: u64) -> u64 {
        m * 1_000_000
    }

    /// The compression setting of the pinned cells.
    fn spec(compressed: bool) -> Option<CompressionSpec> {
        compressed.then_some(CompressionSpec::new(14.9, 500))
    }

    #[test]
    fn wa_times_are_pinned_to_the_bit() {
        // (workers, bytes, compressed, γ, comm_s bits, reduce_s bits),
        // recorded from the star's own gather/broadcast before it became
        // the depth-1 tree builder.
        #[rustfmt::skip]
        let cells: [(usize, u64, bool, f64, u64, u64); 8] = [
            (2, 1_000_000, false, GAMMA, 0x3f6bb28124b64b5f, 0x3f2a36e2eb1c432d),
            (4, 1_000_000, true, GAMMA, 0x3f6ee258d025c7bb, 0x3f3a36e2eb1c432d),
            (4, 250_000, false, 0.0, 0x3f5bc3ffb876426c, 0),
            (8, 999_999, true, 0.0, 0x3f7eda8fae086682, 0),
            (8, 1_000_000, false, GAMMA, 0x3f8ba5f0bff11c38, 0x3f4a36e2eb1c432d),
            (3, 12_345, true, GAMMA, 0x3f06314d5d897b9d, 0x3ecf1134a81fbbaa),
            (1, 65_536, false, GAMMA, 0x3f1f35fb399caecd, 0x3edb7cdfd9d7bdbb),
            (6, 0, true, GAMMA, 0, 0),
        ];
        for (workers, bytes, compressed, gamma, comm, reduce) in cells {
            let cfg = NetworkConfig::ten_gbe(workers + 1);
            let t = worker_aggregator_exchange(&cfg, workers, bytes, gamma, spec(compressed));
            let cell = (workers, bytes, compressed, gamma);
            assert_eq!(t.comm_s.to_bits(), comm, "comm_s {cell:?}");
            assert_eq!(t.reduce_s.to_bits(), reduce, "reduce_s {cell:?}");
        }
    }

    #[test]
    fn ring_times_are_pinned_to_the_bit() {
        // (nodes, bytes, compressed, γ, host s/B, comm_s bits, reduce_s
        // bits). comm_s was recorded from the star's own ring before it
        // became the depth-1 tree builder; reduce_s is
        // `((p−1)·block)·γ`, which rounds once.
        const H: f64 = RING_HOST_S_PER_BYTE;
        #[rustfmt::skip]
        let cells: [(usize, u64, bool, f64, f64, u64, u64); 10] = [
            (2, 1_000_000, false, GAMMA, 0.0, 0x3f4be918f78c82ca, 0x3f0a36e2eb1c432d),
            (4, 1_000_000, true, GAMMA, H, 0x3f4e628e0c142cd6, 0x3f13a92a30553262),
            (5, 999_999, false, GAMMA, H, 0x3f61e2e35bfccd68, 0x3f14f8b588e368f1),
            (8, 1_000_000, true, 0.0, 0.0, 0x3f2e7f71fb1a1225, 0),
            (8, 777_777, false, GAMMA, 0.0, 0x3f53c8f972610a4b, 0x3f11d72ae52a1283),
            (3, 12_345, true, GAMMA, H, 0x3ef9a89d9881c18c, 0x3eab9d8423aa6dec),
            (7, 1_000_000, false, GAMMA, H, 0x3f6347dfac674071, 0x3f1678390d1708be),
            (6, 1_000_000, true, GAMMA, 0.0, 0x3f2b76a8febc5e15, 0x3f15d86aa0eedeac),
            (3, 1_000_000, false, GAMMA, 0.0, 0x3f52b35c9f7968b3, 0x3f1179eee7257ef0),
            (7, 333_333, true, GAMMA, 0.0, 0x3f1af0a4cbda671e, 0x3efdf593a8597412),
        ];
        for (nodes, bytes, compressed, gamma, host, comm, reduce) in cells {
            let cfg = NetworkConfig::ten_gbe(nodes);
            let t = ring_exchange(&cfg, bytes, gamma, spec(compressed), host);
            let cell = (nodes, bytes, compressed, gamma, host);
            assert_eq!(t.comm_s.to_bits(), comm, "comm_s {cell:?}");
            assert_eq!(t.reduce_s.to_bits(), reduce, "reduce_s {cell:?}");
        }
    }

    #[test]
    fn ring_beats_worker_aggregator_on_comm() {
        // The headline of Fig. 12's WA vs INC comparison.
        let wa_cfg = NetworkConfig::ten_gbe(5);
        let ring_cfg = NetworkConfig::ten_gbe(4);
        let wa = worker_aggregator_exchange(&wa_cfg, 4, mb(100), GAMMA, None);
        let ring = ring_exchange(&ring_cfg, mb(100), GAMMA, None, 0.0);
        assert!(
            ring.comm_s < wa.comm_s * 0.5,
            "ring {:.3}s vs wa {:.3}s",
            ring.comm_s,
            wa.comm_s
        );
    }

    #[test]
    fn wa_comm_matches_table_ii_scale() {
        // AlexNet: 233 MB through one 10GbE port, gather + scatter ->
        // ~1.5 s/iteration (Table II: 1.487 s).
        let cfg = NetworkConfig::ten_gbe(5);
        let wa = worker_aggregator_exchange(&cfg, 4, mb(233), GAMMA, None);
        assert!(
            (1.3..1.8).contains(&wa.comm_s),
            "AlexNet WA comm {:.3}s",
            wa.comm_s
        );
    }

    #[test]
    fn ring_comm_approaches_two_n_over_bandwidth() {
        // 2(p-1)/p * n / B plus per-packet overhead.
        let cfg = NetworkConfig::ten_gbe(4);
        let n = mb(100);
        let ring = ring_exchange(&cfg, n, 0.0, None, 0.0);
        let ideal = 2.0 * 0.75 * (n as f64 * 8.0) / cfg.link_bps as f64;
        assert!(ring.comm_s >= ideal, "{} < ideal {}", ring.comm_s, ideal);
        assert!(
            ring.comm_s < ideal * 1.15,
            "{} vs ideal {}",
            ring.comm_s,
            ideal
        );
    }

    #[test]
    fn wa_scales_linearly_with_workers_ring_stays_flat() {
        // Fig. 15's shape.
        let n = mb(50);
        let wa4 = worker_aggregator_exchange(&NetworkConfig::ten_gbe(5), 4, n, GAMMA, None);
        let wa8 = worker_aggregator_exchange(&NetworkConfig::ten_gbe(9), 8, n, GAMMA, None);
        let ratio_wa = wa8.total_s() / wa4.total_s();
        assert!(ratio_wa > 1.7, "WA should roughly double: {ratio_wa:.2}");

        let r4 = ring_exchange(&NetworkConfig::ten_gbe(4), n, GAMMA, None, 0.0);
        let r8 = ring_exchange(&NetworkConfig::ten_gbe(8), n, GAMMA, None, 0.0);
        let ratio_ring = r8.total_s() / r4.total_s();
        assert!(
            (0.9..1.35).contains(&ratio_ring),
            "ring should stay near-flat: {ratio_ring:.2}"
        );
    }

    #[test]
    fn compressing_both_legs_beats_one_leg() {
        // WA can only compress the gradient leg; the ring compresses both.
        let spec = CompressionSpec::new(8.0, 500);
        let cfg5 = NetworkConfig::ten_gbe(5);
        let cfg4 = NetworkConfig::ten_gbe(4);
        let n = mb(100);
        let wa = worker_aggregator_exchange(&cfg5, 4, n, GAMMA, None);
        let wa_c = worker_aggregator_exchange(&cfg5, 4, n, GAMMA, Some(spec));
        let inc_c = ring_exchange(&cfg4, n, GAMMA, Some(spec), 0.0);
        // One compressible leg caps WA+C's gain below ~50%.
        let wa_gain = 1.0 - wa_c.comm_s / wa.comm_s;
        assert!(
            (0.2..0.55).contains(&wa_gain),
            "WA+C comm gain {wa_gain:.2} should be capped by the weight leg"
        );
        // INC+C blows past it.
        assert!(
            inc_c.comm_s < wa.comm_s * 0.2,
            "INC+C {:.4}s vs WA {:.4}s",
            inc_c.comm_s,
            wa.comm_s
        );
    }

    #[test]
    fn reduce_work_is_distributed_in_the_ring() {
        let cfg = NetworkConfig::ten_gbe(4);
        let wa_cfg = NetworkConfig::ten_gbe(5);
        let n = mb(200);
        let gamma = 1e-9;
        let wa = worker_aggregator_exchange(&wa_cfg, 4, n, gamma, None);
        let ring = ring_exchange(&cfg, n, gamma, None, 0.0);
        // WA: p*n*gamma at one node; ring: ((p-1)/p)*n*gamma per node.
        assert!(ring.reduce_s < wa.reduce_s / 4.0);
    }

    #[test]
    fn zero_bytes_exchange_is_instant() {
        let cfg = NetworkConfig::ten_gbe(4);
        let r = ring_exchange(&cfg, 0, GAMMA, None, 0.0);
        assert_eq!(r.reduce_s, 0.0);
        assert!(r.comm_s < 1e-3);
    }
}
