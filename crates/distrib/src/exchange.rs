//! The single seam over every gradient-exchange schedule.
//!
//! [`Exchange::run`] takes the configured [`ExchangeStrategy`], the
//! fabric, the gradients, and the *live* worker set, and calls the one
//! schedule body that strategy has in the chunked executor
//! ([`crate::pipeline`]) with the membership-aware fallback applied
//! first: degrade to the survivor ring when the worker set is not
//! intact, when the tree fell out of sync with the live set, or when
//! the aggregator star lost its center. Joins, leaves and crashes
//! reshape the live set mid-run; they touch exactly this struct — the
//! trainer updates the exchange's live topology and aggregator flag,
//! and every strategy follows.
//!
//! How a leg crosses the fabric is a value, not a code path: an
//! [`Exchange`] holds one [`PipelineConfig`]. [`Exchange::new`] starts
//! whole-block (one chunk per leg, one frame in flight);
//! [`Exchange::pipelined`] arms a chunked, windowed config that is
//! bit-identical for every codec. Either way the exchange keeps one
//! scratch (frame arena, windows, accumulator) across calls, so a held
//! `Exchange` allocates nothing in steady state.

use std::fmt;

use inceptionn_netsim::Topology;

use crate::fabric::{Fabric, FabricError};
use crate::pipeline::{
    ring_schedule, switch_schedule, tree_schedule, worker_aggregator_schedule, PipelineConfig,
    PipelineScratch,
};
use crate::trainer::ExchangeStrategy;

/// The exchange schedules behind one entry point, carrying the
/// membership-dependent state every strategy needs: the live topology
/// tree and whether the aggregator endpoint is down.
///
/// # Examples
///
/// ```
/// use inceptionn_distrib::fabric::FabricBuilder;
/// use inceptionn_distrib::{Exchange, ExchangeStrategy};
///
/// let mut fabric = FabricBuilder::new(4).build();
/// let mut grads = vec![vec![1.0f32, 2.0]; 3];
/// let live: Vec<usize> = (0..3).collect();
/// let mut exchange = Exchange::new(3);
/// exchange
///     .run(ExchangeStrategy::Ring, fabric.as_mut(), &mut grads, &live)
///     .unwrap();
/// assert_eq!(grads[0], vec![3.0, 6.0]);
/// ```
pub struct Exchange {
    /// The configured (full) worker count; a live set smaller than this
    /// is not intact and degrades the flat strategies to the survivor
    /// ring.
    workers: usize,
    /// The live topology tree driving [`ExchangeStrategy::Tree`];
    /// `None` falls back to the survivor ring.
    topology: Option<Topology>,
    /// Whether the aggregator endpoint (index `workers`) is down, which
    /// reroutes [`ExchangeStrategy::WorkerAggregator`] to the ring.
    aggregator_down: bool,
    /// How every leg is chunked and windowed.
    pipeline: PipelineConfig,
    /// Executor state reused across runs (zero-allocation steady
    /// state).
    scratch: PipelineScratch,
}

impl fmt::Debug for Exchange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Exchange")
            .field("workers", &self.workers)
            .field("topology", &self.topology)
            .field("aggregator_down", &self.aggregator_down)
            .field("pipeline", &self.pipeline)
            .finish_non_exhaustive()
    }
}

impl Exchange {
    /// A whole-block exchange for a cluster of `workers` workers with no
    /// topology tree (tree dispatch degrades to the ring until one is
    /// set).
    pub fn new(workers: usize) -> Self {
        Exchange {
            workers,
            topology: None,
            aggregator_down: false,
            pipeline: PipelineConfig::WHOLE_LEG,
            scratch: PipelineScratch::default(),
        }
    }

    /// Arms the live topology tree [`ExchangeStrategy::Tree`] runs
    /// over.
    pub fn with_topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Cuts every leg into `cfg`'s chunks under its in-flight window
    /// (bit-identical to whole-block; overlaps encode/transfer/decode
    /// per chunk).
    pub fn pipelined(mut self, cfg: PipelineConfig) -> Self {
        self.pipeline = cfg;
        self
    }

    /// Replaces the live topology (e.g. after a membership transition
    /// re-derived it from the pristine tree). `None` degrades tree
    /// dispatch to the survivor ring.
    pub fn set_topology(&mut self, topo: Option<Topology>) {
        self.topology = topo;
    }

    /// The live topology, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// Records that `endpoint` is down: the aggregator endpoint
    /// (`>= workers`) drops the star's center, a worker endpoint is
    /// pruned from the live topology.
    pub fn note_endpoint_down(&mut self, endpoint: usize) {
        if endpoint >= self.workers {
            self.aggregator_down = true;
        } else if let Some(topo) = &self.topology {
            self.topology = topo.excise(endpoint);
        }
    }

    /// Clears the aggregator-down flag (the aggregator endpoint
    /// rejoined).
    pub fn revive_aggregator(&mut self) {
        self.aggregator_down = false;
    }

    /// Whether the aggregator endpoint is currently down.
    pub fn aggregator_down(&self) -> bool {
        self.aggregator_down
    }

    /// Runs one all-reduce of `grads` (where `grads[k]` belongs to
    /// worker `live[k]`, which is also its fabric endpoint) under
    /// `strategy`, with the membership-aware fallbacks:
    ///
    /// * a live set that is not the full worker set (or a downed
    ///   aggregator) degrades the flat strategies to the survivor ring;
    /// * [`ExchangeStrategy::Tree`] runs over the armed topology only
    ///   while its leaves equal the live set, and falls back to the
    ///   ring otherwise;
    /// * [`ExchangeStrategy::SwitchReduce`] always folds exactly the
    ///   live ports.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] when the selected schedule fails past
    /// the recovery ladder (see [`crate::pipeline`]).
    ///
    /// # Panics
    ///
    /// Panics as the selected schedule does (empty worker set,
    /// mismatched gradient lengths, endpoints out of range, or a group
    /// size that does not divide an intact hierarchical cluster).
    pub fn run(
        &mut self,
        strategy: ExchangeStrategy,
        fabric: &mut dyn Fabric,
        grads: &mut [Vec<f32>],
        live: &[usize],
    ) -> Result<(), FabricError> {
        let Exchange {
            workers,
            topology,
            aggregator_down,
            pipeline,
            scratch,
        } = self;
        let cfg = *pipeline;
        let intact = live.len() == *workers && !*aggregator_down;
        match strategy {
            ExchangeStrategy::SwitchReduce => switch_schedule(fabric, grads, live, cfg, scratch),
            ExchangeStrategy::Tree => {
                match topology.as_ref().filter(|t| t.workers() == live) {
                    Some(topo) => tree_schedule(fabric, grads, topo, cfg, scratch),
                    // The tree fell out of sync with the live set (no
                    // topology armed, or excision had nothing to
                    // remove): flat survivor ring.
                    None => ring_schedule(fabric, grads, live, cfg, scratch),
                }
            }
            _ if !intact => ring_schedule(fabric, grads, live, cfg, scratch),
            ExchangeStrategy::Ring => ring_schedule(fabric, grads, live, cfg, scratch),
            ExchangeStrategy::HierarchicalRing { group_size } => {
                // Fig. 1(c)'s grouped rings are the two-tier (or flat,
                // for one group) special case of the tree exchange.
                let n = grads.len();
                assert!(group_size > 0, "group size must be positive");
                assert!(
                    n.is_multiple_of(group_size),
                    "group size {group_size} must divide worker count {n}"
                );
                let groups = n / group_size;
                let topo = if groups <= 1 {
                    Topology::flat(n)
                } else {
                    Topology::two_tier(groups, group_size)
                };
                tree_schedule(fabric, grads, &topo, cfg, scratch)
            }
            ExchangeStrategy::WorkerAggregator => {
                worker_aggregator_schedule(fabric, grads, cfg, scratch)
            }
        }
    }

    /// One all-reduce of the full worker set, worker `k` on endpoint
    /// `k`: what the unit tests run.
    #[cfg(test)]
    pub(crate) fn run_all(
        mut self,
        strategy: ExchangeStrategy,
        fabric: &mut dyn Fabric,
        grads: &mut [Vec<f32>],
    ) -> Result<(), FabricError> {
        let live: Vec<usize> = (0..grads.len()).collect();
        self.run(strategy, fabric, grads, &live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricBuilder, TransportKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-0.3f32..0.3)).collect())
            .collect()
    }

    fn bits(w: &[Vec<f32>]) -> Vec<Vec<u32>> {
        w.iter()
            .map(|g| g.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// A shrunken live set degrades every flat strategy to the survivor
    /// ring, and a pruned topology keeps tree dispatch on the tree.
    #[test]
    fn non_intact_live_sets_fall_back_to_the_survivor_ring() {
        let live = vec![0usize, 2, 3];
        let mut want = grads(3, 300, 9);
        let mut fabric = FabricBuilder::new(5).transport(TransportKind::Nic).build();
        Exchange::new(3)
            .run(ExchangeStrategy::Ring, fabric.as_mut(), &mut want, &live)
            .unwrap();
        for strategy in [
            ExchangeStrategy::Ring,
            ExchangeStrategy::HierarchicalRing { group_size: 2 },
            ExchangeStrategy::WorkerAggregator,
            ExchangeStrategy::Tree, // no topology armed
        ] {
            let mut got = grads(3, 300, 9);
            let mut fabric = FabricBuilder::new(5).transport(TransportKind::Nic).build();
            let mut ex = Exchange::new(4);
            ex.run(strategy, fabric.as_mut(), &mut got, &live).unwrap();
            assert_eq!(bits(&got), bits(&want), "{strategy:?}");
        }
        // With a pruned topology matching the live set, Tree stays a tree.
        let pruned = Topology::two_tier(2, 2).excise(1).unwrap();
        let mut want_tree = grads(3, 300, 9);
        let mut fabric = FabricBuilder::new(5).transport(TransportKind::Nic).build();
        Exchange::new(3)
            .with_topology(pruned)
            .run(
                ExchangeStrategy::Tree,
                fabric.as_mut(),
                &mut want_tree,
                &live,
            )
            .unwrap();
        let tree_transfers = fabric.stats().transfers;
        let mut got = grads(3, 300, 9);
        let mut fabric = FabricBuilder::new(5).transport(TransportKind::Nic).build();
        let mut ex = Exchange::new(4).with_topology(Topology::two_tier(2, 2));
        ex.note_endpoint_down(1);
        ex.run(ExchangeStrategy::Tree, fabric.as_mut(), &mut got, &live)
            .unwrap();
        assert_eq!(bits(&got), bits(&want_tree));
        // Lossless values cannot tell a tree from a ring; the frame
        // count can.
        assert_eq!(fabric.stats().transfers, tree_transfers);
    }

    /// A downed aggregator reroutes the star to the ring even when every
    /// worker is live, and a revive restores the star.
    #[test]
    fn aggregator_down_reroutes_the_star() {
        let live: Vec<usize> = (0..4).collect();
        let mut want = grads(4, 200, 5);
        let mut fabric = FabricBuilder::new(5).transport(TransportKind::Nic).build();
        Exchange::new(4)
            .run_all(ExchangeStrategy::Ring, fabric.as_mut(), &mut want)
            .unwrap();
        let mut got = grads(4, 200, 5);
        let mut fabric = FabricBuilder::new(5).transport(TransportKind::Nic).build();
        let mut ex = Exchange::new(4);
        ex.note_endpoint_down(4);
        assert!(ex.aggregator_down());
        ex.run(
            ExchangeStrategy::WorkerAggregator,
            fabric.as_mut(),
            &mut got,
            &live,
        )
        .unwrap();
        assert_eq!(bits(&got), bits(&want), "star must degrade to the ring");
        ex.revive_aggregator();
        assert!(!ex.aggregator_down());
    }
}
