//! Extension: the Fig. 1 cluster organizations on an oversubscribed
//! two-tier fabric (Sec. VII-C's datacenter assumptions).
//!
//! The paper's testbed is one rack behind one switch; its Fig. 1 sketches
//! how INCEPTIONN scales beyond a rack — replace leaf worker groups
//! (Fig. 1(b)) or every level (Fig. 1(c)) with the gradient-centric
//! algorithm. This study quantifies those organizations on a modeled
//! rack+core fabric with configurable core oversubscription.

use inceptionn_compress::gradmodel::GradientPreset;
use inceptionn_netsim::collective::RING_HOST_S_PER_BYTE;
use inceptionn_netsim::topology::{ring_exchange_on, wa_exchange_on, TreeConfig};
use serde::{Deserialize, Serialize};

use crate::cluster::compression_spec;
use crate::ErrorBound;

/// The four organizations of Fig. 1 (flat WA is Fig. 2's baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Organization {
    /// One global aggregator (Fig. 2).
    FlatWa,
    /// Per-rack aggregators under a root (Fig. 1(a)).
    HierarchicalWa,
    /// One ring across all nodes (Fig. 1(b), the paper's testbed).
    FlatRing,
    /// Rings in racks + a leader ring across racks (Fig. 1(c)).
    HierarchicalRing,
}

impl Organization {
    /// All four, in presentation order.
    pub const ALL: [Organization; 4] = [
        Organization::FlatWa,
        Organization::HierarchicalWa,
        Organization::FlatRing,
        Organization::HierarchicalRing,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Organization::FlatWa => "flat WA",
            Organization::HierarchicalWa => "hierarchical WA",
            Organization::FlatRing => "flat ring",
            Organization::HierarchicalRing => "hierarchical ring",
        }
    }
}

/// One measured point of the study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyPoint {
    /// Organization measured.
    pub organization: Organization,
    /// Core oversubscription factor.
    pub oversubscription: u64,
    /// Whether NIC compression was on (eb = 2^-10, AlexNet stream).
    pub compressed: bool,
    /// Gradient-exchange time (comm + reduce), seconds.
    pub exchange_s: f64,
}

/// Runs the study: a 32-node fabric (4 racks × 8), AlexNet-sized
/// gradients, sweeping core oversubscription, with and without
/// compression.
pub fn run(ratio_samples: usize) -> Vec<HierarchyPoint> {
    // Collective shapes over the same 32 workers: one group of all of
    // them, or 4 racks of 8.
    const FLAT: [usize; 1] = [32];
    const RACKS: [usize; 2] = [4, 8];
    let bytes = 233_000_000u64;
    let gamma = 1e-10f64;
    let spec = compression_spec(GradientPreset::AlexNet, ErrorBound::pow2(10), ratio_samples);
    let mut out = Vec::new();
    for oversub in [1u64, 4, 16, 80] {
        let cfg = TreeConfig::ten_gbe(&RACKS, &[oversub, 1]);
        for compressed in [false, true] {
            let s = compressed.then_some(spec);
            for org in Organization::ALL {
                let times = match org {
                    Organization::FlatWa => wa_exchange_on(&cfg, &FLAT, bytes, gamma, s),
                    Organization::HierarchicalWa => wa_exchange_on(&cfg, &RACKS, bytes, gamma, s),
                    Organization::FlatRing => {
                        ring_exchange_on(&cfg, &FLAT, bytes, gamma, s, RING_HOST_S_PER_BYTE)
                    }
                    Organization::HierarchicalRing => {
                        ring_exchange_on(&cfg, &RACKS, bytes, gamma, s, RING_HOST_S_PER_BYTE)
                    }
                };
                out.push(HierarchyPoint {
                    organization: org,
                    oversubscription: oversub,
                    compressed,
                    exchange_s: times.total_s(),
                });
            }
        }
    }
    out
}

/// Fabric-measured wire volume of one organization (the gradient-level
/// cross-check of the analytic `exchange_s` numbers above).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireVolumeRow {
    /// Organization measured.
    pub organization: Organization,
    /// Whether NIC compression was on (eb = 2^-10).
    pub compressed: bool,
    /// Application gradient bytes entering the transport.
    pub payload_bytes: u64,
    /// Post-compression bytes on the wire.
    pub wire_bytes: u64,
}

/// Runs the three gradient-level organizations (flat WA, flat ring,
/// hierarchical ring — hierarchical WA has no gradient-level
/// implementation) over a [`NicFabric`] and reports the bytes each one
/// actually puts on the wire. `values_per_worker` gradients per worker,
/// 8 workers in 2 groups of 4.
///
/// [`NicFabric`]: inceptionn_distrib::fabric::NicFabric
pub fn measured_wire_volume(values_per_worker: usize, seed: u64) -> Vec<WireVolumeRow> {
    use inceptionn_distrib::fabric::{FabricBuilder, TransportKind};
    use inceptionn_distrib::{Exchange, ExchangeStrategy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = 8usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            (0..values_per_worker)
                .map(|_| {
                    // Heavy-tailed like real gradients: most values sit
                    // near (or below) the error bound.
                    let u: f32 = rng.gen_range(-1.0f32..1.0);
                    u * u * u * 0.01
                })
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for compressed in [false, true] {
        let bound = compressed.then(|| ErrorBound::pow2(10));
        for org in [
            Organization::FlatWa,
            Organization::FlatRing,
            Organization::HierarchicalRing,
        ] {
            let mut grads = inputs.clone();
            let mut fabric = FabricBuilder::new(n + 1)
                .transport(TransportKind::Nic)
                .compression(bound)
                .build();
            let strategy = match org {
                Organization::FlatWa => ExchangeStrategy::WorkerAggregator,
                Organization::FlatRing => ExchangeStrategy::Ring,
                Organization::HierarchicalRing => {
                    ExchangeStrategy::HierarchicalRing { group_size: 4 }
                }
                Organization::HierarchicalWa => unreachable!(),
            };
            let endpoints: Vec<usize> = (0..n).collect();
            Exchange::new(n)
                .run(strategy, fabric.as_mut(), &mut grads, &endpoints)
                .expect("matched NIC endpoints always decode each other's frames");
            let stats = fabric.stats();
            out.push(WireVolumeRow {
                organization: org,
                compressed,
                payload_bytes: stats.payload_bytes,
                wire_bytes: stats.wire_bytes,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep shared by every test that reads it: `run` is
    /// deterministic and by far the slowest thing in tier-1.
    fn points() -> &'static [HierarchyPoint] {
        static POINTS: OnceLock<Vec<HierarchyPoint>> = OnceLock::new();
        POINTS.get_or_init(|| run(2_000))
    }

    fn get(pts: &[HierarchyPoint], org: Organization, oversub: u64, compressed: bool) -> f64 {
        pts.iter()
            .find(|p| {
                p.organization == org && p.oversubscription == oversub && p.compressed == compressed
            })
            .unwrap()
            .exchange_s
    }

    #[test]
    fn rings_beat_aggregators_everywhere() {
        let pts = points();
        for oversub in [1u64, 4, 16, 80] {
            let flat_wa = get(pts, Organization::FlatWa, oversub, false);
            let best_ring = get(pts, Organization::FlatRing, oversub, false).min(get(
                pts,
                Organization::HierarchicalRing,
                oversub,
                false,
            ));
            assert!(
                best_ring < flat_wa * 0.5,
                "oversub {oversub}: ring {best_ring:.2} vs flat WA {flat_wa:.2}"
            );
        }
    }

    #[test]
    fn hierarchy_pays_off_only_under_core_pressure() {
        let pts = points();
        // Non-blocking core: flat ring wins (the paper's testbed choice).
        assert!(
            get(pts, Organization::FlatRing, 1, false)
                < get(pts, Organization::HierarchicalRing, 1, false)
        );
        // Heavily oversubscribed core: the hierarchy's smaller cross-core
        // volume wins.
        assert!(
            get(pts, Organization::HierarchicalRing, 80, false)
                < get(pts, Organization::FlatRing, 80, false)
        );
        // Same flip for the worker-aggregator organizations.
        assert!(
            get(pts, Organization::HierarchicalWa, 80, false)
                < get(pts, Organization::FlatWa, 80, false)
        );
    }

    #[test]
    fn compression_helps_most_where_links_are_scarce() {
        let pts = points();
        let gain_at = |oversub| {
            get(pts, Organization::HierarchicalRing, oversub, false)
                / get(pts, Organization::HierarchicalRing, oversub, true)
        };
        assert!(gain_at(80) > 1.5, "gain at 80:1 {:.2}", gain_at(80));
        // Compression gain should not *shrink* as the core gets slower.
        assert!(gain_at(80) >= gain_at(1) * 0.8);
    }

    #[test]
    fn measured_wire_volume_matches_the_block_accounting() {
        let len = 4000usize;
        let rows = measured_wire_volume(len, 9);
        assert_eq!(rows.len(), 6);
        let get = |org: Organization, compressed: bool| {
            rows.iter()
                .find(|r| r.organization == org && r.compressed == compressed)
                .unwrap()
        };
        // Uncompressed payload totals are exact block arithmetic: the
        // flat ring moves 2(n−1) blocks of len/n per worker, WA moves a
        // full vector up and down per worker.
        let n = 8u64;
        let bytes = (len * 4) as u64;
        let ring = get(Organization::FlatRing, false);
        assert_eq!(ring.payload_bytes, 2 * (n - 1) * bytes);
        assert_eq!(ring.payload_bytes, ring.wire_bytes, "lossless ships raw");
        let wa = get(Organization::FlatWa, false);
        assert_eq!(wa.payload_bytes, 2 * n * bytes);
        // Compression shrinks both ring legs but only WA's gather leg,
        // so the compressed ring puts less on the wire than compressed
        // WA despite moving almost as much payload.
        let ring_c = get(Organization::FlatRing, true);
        let wa_c = get(Organization::FlatWa, true);
        assert!(ring_c.wire_bytes < ring.wire_bytes / 2);
        assert!(ring_c.wire_bytes < wa_c.wire_bytes);
        // The hierarchy trades extra local hops for less cross-group
        // traffic; globally it still moves more payload than one flat
        // ring at this scale.
        let hier = get(Organization::HierarchicalRing, false);
        assert!(hier.payload_bytes > ring.payload_bytes);
    }

    #[test]
    fn exchange_time_grows_with_oversubscription() {
        let pts = points();
        for org in Organization::ALL {
            let t1 = get(pts, org, 1, false);
            let t80 = get(pts, org, 80, false);
            assert!(t80 > t1, "{}: {t1:.3} -> {t80:.3}", org.label());
        }
    }
}
