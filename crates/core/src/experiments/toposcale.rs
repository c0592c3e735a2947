//! Extension: the fig12-style topology-tree scaling sweep, 4→1024
//! workers, with switch-resident in-network reduction.
//!
//! The paper's testbed stops at one rack (Fig. 15 sweeps 4–8 nodes);
//! this study carries its algorithms onto switch trees of growing depth
//! (4 = one switch, 1024 = five tiers of radix-4 switches with 4:1 core
//! oversubscription) and adds the NetReduce-style mode where the
//! switches themselves fold gradient packets in flight. Every simulated
//! point is cross-validated against the per-tier α-β-γ extension of the
//! paper's Sec. VIII-D cost model.

use inceptionn_compress::gradmodel::GradientPreset;
use inceptionn_netsim::analytic::{switch_reduce_time, tree_ring_time, TreeCostModel};
use inceptionn_netsim::topology::{
    ring_exchange_on, switch_reduce_exchange, wa_exchange_with_wire, ExchangeWire, TreeConfig,
};
use serde::{Deserialize, Serialize};

use crate::cluster::compression_spec;
use crate::ErrorBound;

/// Exchange mode of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleMode {
    /// One global aggregator host (Fig. 2), flat over the whole tree.
    FlatWa,
    /// One ring across all workers (Fig. 1(b)) laid over the tree.
    FlatRing,
    /// Rings at every tier of the topology tree (the generic Fig. 1(c)).
    TreeRing,
    /// Switch-resident in-network reduction: no gather leg exists.
    SwitchReduce,
}

impl ScaleMode {
    /// All modes, in presentation order.
    pub const ALL: [ScaleMode; 4] = [
        ScaleMode::FlatWa,
        ScaleMode::FlatRing,
        ScaleMode::TreeRing,
        ScaleMode::SwitchReduce,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ScaleMode::FlatWa => "flat WA",
            ScaleMode::FlatRing => "flat ring",
            ScaleMode::TreeRing => "tree ring",
            ScaleMode::SwitchReduce => "switch reduce",
        }
    }
}

/// One point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToposcalePoint {
    /// Exchange mode measured.
    pub mode: ScaleMode,
    /// Worker count (product of `arities`).
    pub nodes: usize,
    /// Switch radix per tier, root first.
    pub arities: Vec<usize>,
    /// Whether NIC compression was on (eb = 2^-10, AlexNet stream).
    pub compressed: bool,
    /// Simulated exchange time (comm + host reduce), seconds.
    pub exchange_s: f64,
    /// The per-tier α-β-γ prediction, seconds (`None` for modes the
    /// extended model does not cover).
    pub analytic_s: Option<f64>,
    /// Per-tier wire volume and gather-leg bytes (`None` for modes
    /// without wire instrumentation).
    pub wire: Option<ExchangeWire>,
}

/// The worker counts the sweep visits: radix-4 trees of depth 1–5.
pub const NODE_COUNTS: [usize; 5] = [4, 16, 64, 256, 1024];

/// Per-byte host γ (sum-reduction cost), matching [`hierarchy`].
///
/// [`hierarchy`]: crate::experiments::hierarchy
const GAMMA: f64 = 1e-10;

/// The radix-4 tree for `nodes` workers and its per-tier
/// oversubscription (non-blocking edge, 4:1 at every aggregation tier).
fn fabric_for(nodes: usize) -> (Vec<usize>, TreeConfig) {
    let mut arities = Vec::new();
    let mut left = nodes;
    while left > 1 {
        assert!(left.is_multiple_of(4), "sweep sizes are powers of four");
        arities.push(4);
        left /= 4;
    }
    let mut oversub = vec![4u64; arities.len()];
    *oversub.last_mut().expect("at least one tier") = 1;
    let cfg = TreeConfig::ten_gbe(&arities, &oversub);
    (arities, cfg)
}

/// Runs the sweep for gradient vectors of `bytes` bytes, up to
/// `max_nodes` workers (smoke runs stop early), with the compression
/// ratio measured from `ratio_samples` modeled AlexNet gradients.
///
/// Host-stack cost is set to zero on the ring modes so the simulated
/// and analytic curves describe the same machine; [`hierarchy`] covers
/// the host-stack sensitivity separately.
///
/// [`hierarchy`]: crate::experiments::hierarchy
pub fn run(bytes: u64, max_nodes: usize, ratio_samples: usize) -> Vec<ToposcalePoint> {
    let spec = compression_spec(GradientPreset::AlexNet, ErrorBound::pow2(10), ratio_samples);
    let mut out = Vec::new();
    for &nodes in NODE_COUNTS.iter().filter(|&&n| n <= max_nodes) {
        let (arities, cfg) = fabric_for(nodes);
        let model = TreeCostModel::of_tree(&cfg, GAMMA);
        let flat = vec![nodes];
        for compressed in [false, true] {
            let s = compressed.then_some(spec);
            for mode in ScaleMode::ALL {
                let (times, analytic_s, wire) = match mode {
                    ScaleMode::FlatWa => {
                        let (times, wire) = wa_exchange_with_wire(&cfg, &flat, bytes, GAMMA, s);
                        (times, None, Some(wire))
                    }
                    // No analytic prediction for the flat ring: laid
                    // over a tree, only some of each step's transfers
                    // cross the core, and the per-tier model has no term
                    // for that partial sharing.
                    ScaleMode::FlatRing => (
                        ring_exchange_on(&cfg, &flat, bytes, GAMMA, s, 0.0),
                        None,
                        None,
                    ),
                    ScaleMode::TreeRing => (
                        ring_exchange_on(&cfg, &arities, bytes, GAMMA, s, 0.0),
                        (!compressed).then(|| tree_ring_time(&arities, bytes, &model)),
                        None,
                    ),
                    ScaleMode::SwitchReduce => {
                        let (times, wire) = switch_reduce_exchange(&cfg, bytes, s);
                        let analytic = (!compressed).then(|| switch_reduce_time(bytes, &model));
                        (times, analytic, Some(wire))
                    }
                };
                out.push(ToposcalePoint {
                    mode,
                    nodes,
                    arities: arities.clone(),
                    compressed,
                    exchange_s: times.total_s(),
                    analytic_s,
                    wire,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The sweep is minutes-scale in debug builds; run it once and share
    /// it across the test functions.
    fn points() -> &'static [ToposcalePoint] {
        static POINTS: OnceLock<Vec<ToposcalePoint>> = OnceLock::new();
        POINTS.get_or_init(|| run(1_000_000, 1024, 2_000))
    }

    fn get(
        pts: &[ToposcalePoint],
        mode: ScaleMode,
        nodes: usize,
        compressed: bool,
    ) -> &ToposcalePoint {
        pts.iter()
            .find(|p| p.mode == mode && p.nodes == nodes && p.compressed == compressed)
            .unwrap()
    }

    #[test]
    fn switch_reduce_eliminates_the_gather_leg() {
        let pts = points();
        for p in pts.iter().filter(|p| p.mode == ScaleMode::SwitchReduce) {
            let wire = p.wire.as_ref().unwrap();
            assert_eq!(
                wire.gather_leg, 0,
                "@{} compressed={}",
                p.nodes, p.compressed
            );
            assert!(wire.by_tier.iter().sum::<u64>() > 0);
        }
        // ... which the host-aggregator baseline cannot do.
        for p in pts.iter().filter(|p| p.mode == ScaleMode::FlatWa) {
            assert!(p.wire.as_ref().unwrap().gather_leg > 0, "@{}", p.nodes);
        }
    }

    #[test]
    fn analytic_model_tracks_simulation_at_scale() {
        // The refactor's acceptance bar: the per-tier α-β-γ extension
        // stays within tolerance of the packet-level simulator at 64,
        // 256, and 1024 workers.
        let pts = points();
        for nodes in [64usize, 256, 1024] {
            for mode in [ScaleMode::TreeRing, ScaleMode::SwitchReduce] {
                let p = get(pts, mode, nodes, false);
                let model = p.analytic_s.unwrap();
                let rel = (p.exchange_s - model).abs() / model;
                assert!(
                    rel < 0.15,
                    "{} @{nodes}: sim {:.4} vs model {model:.4} ({rel:.3})",
                    mode.label(),
                    p.exchange_s
                );
            }
        }
    }

    #[test]
    fn localized_exchanges_win_once_the_core_is_oversubscribed() {
        let pts = points();
        for nodes in [64usize, 256, 1024] {
            let wa = get(pts, ScaleMode::FlatWa, nodes, false).exchange_s;
            let tree = get(pts, ScaleMode::TreeRing, nodes, false).exchange_s;
            let sw = get(pts, ScaleMode::SwitchReduce, nodes, false).exchange_s;
            assert!(tree < wa, "@{nodes}: tree {tree:.3} vs WA {wa:.3}");
            assert!(sw < wa, "@{nodes}: switch {sw:.3} vs WA {wa:.3}");
        }
        // The flat ring holds its own at rack scale, but once the block
        // a step moves is big relative to the oversubscribed core the
        // tiered rings (which localize most steps) pull ahead.
        for nodes in [256usize, 1024] {
            let flat = get(pts, ScaleMode::FlatRing, nodes, false).exchange_s;
            let tree = get(pts, ScaleMode::TreeRing, nodes, false).exchange_s;
            assert!(
                tree < flat,
                "@{nodes}: tiered rings must beat the flat ring on an \
                 oversubscribed core ({tree:.3} vs {flat:.3})"
            );
        }
    }

    #[test]
    fn compression_shrinks_every_mode() {
        let pts = points();
        for mode in ScaleMode::ALL {
            let plain = get(pts, mode, 64, false).exchange_s;
            let comp = get(pts, mode, 64, true).exchange_s;
            assert!(comp < plain, "{}: {comp:.3} vs {plain:.3}", mode.label());
        }
    }
}
