//! Gradient-exchange collectives composed from simulated transfers.
//!
//! Two patterns reproduce the paper's systems:
//!
//! * [`worker_aggregator_exchange`] — the conventional baseline (Fig. 2):
//!   every worker ships its full gradient to the aggregator (an incast
//!   onto one downlink), the aggregator sum-reduces all streams, then
//!   ships the updated weights back (a broadcast off one uplink);
//! * [`ring_exchange`] — INCEPTIONN's Algorithm 1: gradients are split
//!   into `p` blocks; `p−1` reduce-scatter steps pass partial sums
//!   around the ring while every node adds its contribution, then `p−1`
//!   all-gather steps propagate the fully reduced blocks. Every link
//!   carries traffic concurrently and aggregation work is spread evenly.

use crate::sim::NetworkConfig;
use crate::topology::{maybe_compress, phase};
use crate::transfer::{CompressionSpec, Transfer};

/// Wall-clock breakdown of one gradient exchange (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeTimes {
    /// Time spent moving bytes (the "Communicate" row of Table II).
    pub comm_s: f64,
    /// Time spent sum-reducing gradients (the "Gradient sum" row).
    pub reduce_s: f64,
}

impl ExchangeTimes {
    /// Total exchange wall-clock.
    pub fn total_s(&self) -> f64 {
        self.comm_s + self.reduce_s
    }
}

/// Simulates one iteration of the conventional worker-aggregator
/// exchange.
///
/// The cluster has `workers + 1` nodes; node `workers` is the
/// aggregator. `gradient_bytes` flow up from every worker
/// (optionally compressed — the only compressible leg, since the
/// downward leg carries weights); the same number of weight bytes flows
/// back down uncompressed. `gamma_s_per_byte` is the aggregator's
/// sum-reduction cost per byte per stream.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn worker_aggregator_exchange(
    cfg: &NetworkConfig,
    workers: usize,
    gradient_bytes: u64,
    gamma_s_per_byte: f64,
    gradient_compression: Option<CompressionSpec>,
) -> ExchangeTimes {
    assert!(workers > 0, "need at least one worker");
    assert!(
        cfg.nodes > workers,
        "config must include the aggregator node"
    );
    let agg = workers;
    let tree = cfg.tree();
    // Phase 1: gradient gather (incast onto the aggregator's downlink).
    let t_gather = phase(
        &tree,
        (0..workers)
            .map(|w| maybe_compress(Transfer::new(w, agg, gradient_bytes), gradient_compression)),
    );
    // Phase 2: the aggregator folds `workers` streams into the model.
    let t_reduce = workers as f64 * gradient_bytes as f64 * gamma_s_per_byte;
    // Phase 3: weight broadcast (unicast per worker off one uplink).
    let t_scatter = phase(
        &tree,
        (0..workers).map(|w| Transfer::new(agg, w, gradient_bytes)),
    );
    ExchangeTimes {
        comm_s: t_gather + t_scatter,
        reduce_s: t_reduce,
    }
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
/// aggregator-free algorithm exists to enable.
///
/// `host_s_per_byte` is the per-block-byte host cost serialized after
/// each step's wire time (see [`RING_HOST_S_PER_BYTE`]); it applies to
/// the uncompressed block size on both legs.
///
/// # Panics
///
/// Panics if the configuration has fewer than 2 nodes.
pub fn ring_exchange(
    cfg: &NetworkConfig,
    gradient_bytes: u64,
    gamma_s_per_byte: f64,
    compression: Option<CompressionSpec>,
    host_s_per_byte: f64,
) -> ExchangeTimes {
    let p = cfg.nodes;
    assert!(p >= 2, "ring exchange needs at least two nodes");
    let block = gradient_bytes.div_ceil(p as u64);
    // One ring step: every node sends one block to its successor; links
    // are disjoint so a single simulated step generalizes to all steps.
    let wire_s = phase(
        &cfg.tree(),
        (0..p).map(|i| maybe_compress(Transfer::new(i, (i + 1) % p, block), compression)),
    );
    let step_s = wire_s + block as f64 * host_s_per_byte;
    let steps = (p - 1) as f64;
    // Reduce-scatter: each step is receive + local block sum;
    // all-gather: receive only.
    let per_step_reduce = block as f64 * gamma_s_per_byte;
    ExchangeTimes {
        comm_s: 2.0 * steps * step_s,
        reduce_s: steps * per_step_reduce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAMMA: f64 = 1e-10; // ~0.1 ns/byte, Table II scale

    fn mb(m: u64) -> u64 {
        m * 1_000_000
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
