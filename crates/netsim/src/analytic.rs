//! Closed-form collective cost models (Sec. VIII-D).
//!
//! The paper adapts the classic α-β-γ communication models of Thakur et
//! al. to explain Fig. 15: for `p` workers, model size `n` bytes, link
//! latency `α`, per-byte transfer time `β`, and per-byte reduction time
//! `γ`,
//!
//! * worker-aggregator (reduction tree):
//!   `T = (1 + log₂p)·α + (p + log₂p)·n·β + (p−1)·n·γ`
//! * INCEPTIONN ring:
//!   `T = 2(p−1)·α + 2·((p−1)/p)·n·β + ((p−1)/p)·n·γ`
//!
//! The `p`-proportional β term makes WA linear in cluster size while the
//! ring's `(p−1)/p` factor saturates — the scalability argument of
//! Fig. 15. [`flat_wa_time`] additionally models the paper's *actual*
//! testbed (a single flat aggregator, no tree), which is what
//! [`crate::collective`]'s star exchanges — the depth-1 case of the
//! packet-level builders in [`crate::topology`] — reproduce; the two
//! flavors are cross-validated against the simulator in this crate's
//! tests.

use serde::{Deserialize, Serialize};

use crate::topology::TreeConfig;

/// The α-β-γ parameters (seconds, seconds/byte, seconds/byte).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Per-message network latency, seconds.
    pub alpha: f64,
    /// Per-byte transfer time, seconds (inverse effective bandwidth).
    pub beta: f64,
    /// Per-byte sum-reduction time, seconds.
    pub gamma: f64,
}

impl CostModel {
    /// A model matching the simulated 10 GbE fabric: effective β
    /// includes the per-packet header overhead on a 1448-byte MSS.
    pub fn ten_gbe(gamma: f64) -> Self {
        let wire_per_payload = (1448.0 + 78.0) / 1448.0;
        CostModel {
            alpha: 3e-6,
            beta: 8.0 * wire_per_payload / 10_000_000_000.0,
            gamma,
        }
    }
}

/// Paper Eq. (Sec. VIII-D): gradient-exchange time of the hierarchical
/// worker-aggregator approach for `p` workers and `n` bytes.
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn wa_time(p: usize, n_bytes: u64, m: &CostModel) -> f64 {
    assert!(p > 0, "at least one worker required");
    let p_f = p as f64;
    let n = n_bytes as f64;
    let log_p = p_f.log2();
    (1.0 + log_p) * m.alpha + (p_f + log_p) * n * m.beta + (p_f - 1.0) * n * m.gamma
}

/// Paper Eq. (Sec. VIII-D): gradient-exchange time of the INCEPTIONN
/// ring for `p` workers and `n` bytes.
///
/// # Panics
///
/// Panics if `p < 2`.
pub fn ring_time(p: usize, n_bytes: u64, m: &CostModel) -> f64 {
    assert!(p >= 2, "a ring needs at least two workers");
    let p_f = p as f64;
    let n = n_bytes as f64;
    let frac = (p_f - 1.0) / p_f;
    2.0 * (p_f - 1.0) * m.alpha + 2.0 * frac * n * m.beta + frac * n * m.gamma
}

/// Exchange time of the *flat* single-aggregator layout the paper's
/// testbed (and our packet simulator) actually uses: a serialized
/// `p`-stream gather, a `p`-stream reduction at one node, and a
/// serialized `p`-stream weight scatter.
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn flat_wa_time(p: usize, n_bytes: u64, m: &CostModel) -> f64 {
    assert!(p > 0, "at least one worker required");
    let p_f = p as f64;
    let n = n_bytes as f64;
    2.0 * m.alpha + 2.0 * p_f * n * m.beta + p_f * n * m.gamma
}

/// Per-tier extension of the α-β-γ model for tree fabrics: one β per
/// switch tier (index 0 the core), derived from the tier link rates the
/// same way [`CostModel::ten_gbe`] derives its flat β.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeCostModel {
    /// Per-message network latency, seconds.
    pub alpha: f64,
    /// Per-byte wire time per tier, seconds/byte; index 0 is the core.
    pub tier_beta: Vec<f64>,
    /// Per-byte sum-reduction time at a host, seconds.
    pub gamma: f64,
}

impl TreeCostModel {
    /// Derives the per-tier betas from a tree fabric's link rates,
    /// folding per-packet header overhead into each β.
    pub fn of_tree(cfg: &TreeConfig, gamma: f64) -> Self {
        let wire_per_payload = (cfg.mtu_payload + cfg.header_bytes) as f64 / cfg.mtu_payload as f64;
        TreeCostModel {
            alpha: 3e-6,
            tier_beta: cfg
                .tier_bps
                .iter()
                .map(|&bps| 8.0 * wire_per_payload / bps as f64)
                .collect(),
            gamma,
        }
    }

    /// The per-byte time of a transfer whose route spans tiers
    /// `from_tier..` — store-and-forward pipelines the hops, so the
    /// slowest link on the path sets the throughput.
    fn path_beta(&self, from_tier: usize) -> f64 {
        self.tier_beta[from_tier..]
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }
}

/// Closed-form exchange time of the generic tree ring
/// ([`crate::topology::ring_exchange_on`]) for a collective hierarchy
/// `arities` over the fabric the model was derived from: ring
/// all-reduce among the children of every level (deepest first), then
/// chain broadcasts back down. A level-ℓ ring step moves one
/// `n/aₗ` block between adjacent subtree leaders, so it pays the
/// slowest β on the tier-ℓ..edge path.
///
/// Degenerate single-member levels contribute nothing, so the model is
/// exact over `arities = [p]` too, where it reduces to [`ring_time`]'s
/// structure with the fabric's own β.
pub fn tree_ring_time(arities: &[usize], n_bytes: u64, m: &TreeCostModel) -> f64 {
    assert!(
        arities.len() <= m.tier_beta.len(),
        "collective deeper than the fabric"
    );
    let n = n_bytes as f64;
    let mut t = 0.0;
    for (level, &a) in arities.iter().enumerate() {
        if a < 2 {
            continue;
        }
        let block = n_bytes.div_ceil(a as u64) as f64;
        let beta = m.path_beta(level);
        // 2(a−1) ring steps (reduce-scatter + all-gather) …
        t += 2.0 * (a - 1) as f64 * (m.alpha + block * beta);
        // … each folding one block at every member.
        t += (a - 1) as f64 * block * m.gamma;
        // Levels below the top also rebroadcast the full sum down the
        // leader chain afterwards.
        if level > 0 {
            t += m.alpha + n * beta;
        }
    }
    t
}

/// Closed-form exchange time of switch-resident in-network reduction
/// ([`crate::topology::switch_reduce_exchange`]): one full-gradient
/// traversal up each tier (workers→edge switches, then one folded
/// stream per uplink) and its mirror image down — `2·Σ_d (α + n·β_d)`.
/// Switch reduce units fold at line rate, so there is no γ term: the
/// gather leg, and the host reduction with it, are gone.
pub fn switch_reduce_time(n_bytes: u64, m: &TreeCostModel) -> f64 {
    let n = n_bytes as f64;
    2.0 * m
        .tier_beta
        .iter()
        .map(|&beta| m.alpha + n * beta)
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{ring_exchange, worker_aggregator_exchange};
    use crate::sim::NetworkConfig;
    use crate::topology::{ring_exchange_on, switch_reduce_exchange};

    const GAMMA: f64 = 1e-10;

    #[test]
    fn wa_is_linear_in_p_ring_saturates() {
        let m = CostModel::ten_gbe(GAMMA);
        let n = 100_000_000;
        let wa4 = wa_time(4, n, &m);
        let wa8 = wa_time(8, n, &m);
        assert!(wa8 / wa4 > 1.6, "WA growth {:.2}", wa8 / wa4);
        let r4 = ring_time(4, n, &m);
        let r8 = ring_time(8, n, &m);
        assert!(r8 / r4 < 1.2, "ring growth {:.2}", r8 / r4);
        // And the ring wins outright.
        assert!(r8 < wa8 / 4.0);
    }

    #[test]
    fn latency_term_dominates_for_tiny_messages() {
        let m = CostModel::ten_gbe(GAMMA);
        // 1-byte exchange: the ring pays 2(p-1) hops of latency and loses.
        assert!(ring_time(16, 1, &m) > wa_time(16, 1, &m));
    }

    #[test]
    fn flat_wa_matches_simulator_within_ten_percent() {
        let gamma = 5e-10;
        let m = CostModel::ten_gbe(gamma);
        for (workers, n) in [(4usize, 50_000_000u64), (8, 20_000_000), (2, 80_000_000)] {
            let cfg = NetworkConfig::ten_gbe(workers + 1);
            let sim = worker_aggregator_exchange(&cfg, workers, n, gamma, None);
            let model = flat_wa_time(workers, n, &m);
            let rel = (sim.total_s() - model).abs() / model;
            assert!(
                rel < 0.10,
                "p={workers} n={n}: sim {:.4} vs model {model:.4} ({rel:.3})",
                sim.total_s()
            );
        }
    }

    #[test]
    fn ring_model_matches_simulator_within_ten_percent() {
        let gamma = 5e-10;
        let m = CostModel::ten_gbe(gamma);
        for (p, n) in [(4usize, 50_000_000u64), (8, 20_000_000), (6, 30_000_000)] {
            let cfg = NetworkConfig::ten_gbe(p);
            let sim = ring_exchange(&cfg, n, gamma, None, 0.0);
            let model = ring_time(p, n, &m);
            let rel = (sim.total_s() - model).abs() / model;
            assert!(
                rel < 0.10,
                "p={p} n={n}: sim {:.4} vs model {model:.4} ({rel:.3})",
                sim.total_s()
            );
        }
    }

    #[test]
    fn tree_wa_is_cheaper_than_flat_wa() {
        // The hierarchical tree's (p + log p) beats the flat 2p for p > 2.
        let m = CostModel::ten_gbe(GAMMA);
        let n = 100_000_000;
        assert!(wa_time(8, n, &m) < flat_wa_time(8, n, &m));
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn ring_rejects_singleton() {
        ring_time(1, 10, &CostModel::ten_gbe(GAMMA));
    }

    /// The scale-sweep agreement the refactor is accepted on: at 64,
    /// 256, and 1024 workers, the extended per-tier model tracks the
    /// packet-level tree simulator within tolerance.
    #[test]
    fn tree_ring_model_matches_simulator_at_scale() {
        for (arities, n) in [
            (&[8usize, 8][..], 16_000_000u64),
            (&[16, 16][..], 8_000_000),
            (&[32, 32][..], 4_000_000),
        ] {
            let cfg = TreeConfig::ten_gbe(arities, &[4, 1]);
            let m = TreeCostModel::of_tree(&cfg, 0.0);
            let sim = ring_exchange_on(&cfg, arities, n, 0.0, None, 0.0);
            let model = tree_ring_time(arities, n, &m);
            let rel = (sim.comm_s - model).abs() / model;
            assert!(
                rel < 0.15,
                "{arities:?} n={n}: sim {:.4} vs model {model:.4} ({rel:.3})",
                sim.comm_s
            );
        }
    }

    #[test]
    fn switch_reduce_model_matches_simulator_at_scale() {
        for (arities, n) in [
            (&[8usize, 8][..], 16_000_000u64),
            (&[16, 16][..], 8_000_000),
            (&[32, 32][..], 4_000_000),
        ] {
            let cfg = TreeConfig::ten_gbe(arities, &[4, 1]);
            let m = TreeCostModel::of_tree(&cfg, 0.0);
            let (sim, _) = switch_reduce_exchange(&cfg, n, None);
            let model = switch_reduce_time(n, &m);
            let rel = (sim.comm_s - model).abs() / model;
            assert!(
                rel < 0.15,
                "{arities:?} n={n}: sim {:.4} vs model {model:.4} ({rel:.3})",
                sim.comm_s
            );
        }
    }

    #[test]
    fn flat_collective_makes_tree_model_collapse_to_ring_time() {
        // Over a flat fabric the per-tier model and the paper's flat
        // ring formula describe the same machine.
        let cfg = TreeConfig::ten_gbe(&[8], &[1]);
        let m = TreeCostModel::of_tree(&cfg, GAMMA);
        let flat = CostModel {
            alpha: m.alpha,
            beta: m.tier_beta[0],
            gamma: GAMMA,
        };
        let n = 50_000_000;
        let tree = tree_ring_time(&[8], n, &m);
        let classic = ring_time(8, n, &flat);
        assert!(
            (tree - classic).abs() / classic < 0.01,
            "{tree} vs {classic}"
        );
    }
}
