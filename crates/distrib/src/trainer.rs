//! End-to-end data-parallel training over model replicas.

use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::optim::{Sgd, SgdConfig};
use inceptionn_dnn::Network;
use inceptionn_netsim::{NetworkConfig, Topology};
use obs::{labels, Domain, Event, EventBuf, Recorder};

use crate::exchange::Exchange;
use crate::fabric::{
    CodecSelection, Fabric, FabricBuilder, FabricError, FabricStats, PayloadKind, TransportKind,
};
use crate::faults::{FaultPlan, FaultStats};
use crate::membership::{MembershipEvent, MembershipSchedule};

/// Which gradient-exchange algorithm the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// Conventional centralized exchange (gradient leg compressible).
    WorkerAggregator,
    /// INCEPTIONN's aggregator-free ring (both legs compressible).
    Ring,
    /// Grouped rings (Fig. 1(c)) with the given group size.
    HierarchicalRing {
        /// Workers per leaf group (must divide the worker count).
        group_size: usize,
    },
    /// Topology-tree rings over [`TrainerConfig::topology`] (flat over
    /// all workers when no topology is configured).
    Tree,
    /// Switch-resident in-network reduction: the switch's reduce unit
    /// folds gradient packets in flight, so no gather leg exists.
    SwitchReduce,
}

impl ExchangeStrategy {
    /// The obs span label this strategy's exchange is recorded under.
    pub fn trace_label(self) -> &'static str {
        match self {
            ExchangeStrategy::Ring => labels::EXCHANGE_RING,
            ExchangeStrategy::HierarchicalRing { .. } => labels::EXCHANGE_HIERARCHICAL,
            ExchangeStrategy::WorkerAggregator => labels::EXCHANGE_WORKER_AGGREGATOR,
            ExchangeStrategy::Tree => labels::EXCHANGE_TREE,
            ExchangeStrategy::SwitchReduce => labels::EXCHANGE_SWITCH_REDUCE,
        }
    }
}

/// Configuration of a distributed training run.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of worker replicas.
    pub workers: usize,
    /// Exchange algorithm.
    pub strategy: ExchangeStrategy,
    /// Transport the exchange runs over (see [`TransportKind`]).
    pub transport: TransportKind,
    /// Lossy compression applied to exchanged gradients
    /// ([`CodecSelection::None`] = the lossless baseline).
    pub codec: CodecSelection,
    /// Deterministic fault injection armed on the transport (`None` =
    /// a clean fabric).
    pub faults: Option<FaultPlan>,
    /// Typed membership transitions — joins (with snapshot catch-up),
    /// graceful leaves, crashes — pinned to iterations. The empty
    /// default never fires.
    pub membership: MembershipSchedule,
    /// Link/switch timing model for the timed transports (`None` = the
    /// default 10 GbE model). A multi-tenant host scales each tenant's
    /// `link_bps` by its bandwidth share here.
    pub network: Option<NetworkConfig>,
    /// Switch topology the cluster hangs off (`None` = one flat switch
    /// over all workers). Leaves must be exactly the worker ids. Drives
    /// [`ExchangeStrategy::Tree`] and the timed transports' per-tier
    /// wire accounting.
    pub topology: Option<Topology>,
    /// Optimizer hyper-parameters (shared by all replicas).
    pub sgd: SgdConfig,
    /// Per-worker minibatch size.
    pub batch_per_worker: usize,
    /// Seed for shared model initialization.
    pub seed: u64,
    /// Observability handle. The default ([`Recorder::off`]) records
    /// nothing and costs one branch per potential event.
    pub recorder: Recorder,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            workers: 4,
            strategy: ExchangeStrategy::Ring,
            transport: TransportKind::InProcess,
            codec: CodecSelection::None,
            faults: None,
            membership: MembershipSchedule::new(),
            network: None,
            topology: None,
            sgd: SgdConfig::default(),
            batch_per_worker: 16,
            seed: 0,
            recorder: Recorder::off(),
        }
    }
}

/// Per-iteration record of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationLog {
    /// Mean training loss across live workers.
    pub loss: f32,
    /// Mean minibatch accuracy across live workers.
    pub accuracy: f32,
    /// The endpoint excised from the exchange topology this iteration
    /// (a crashed worker, or the aggregator), if any.
    pub excised: Option<usize>,
    /// A gradient-exchange failure that survived every recovery layer;
    /// the iteration's SGD update is skipped when set.
    pub exchange_error: Option<FabricError>,
    /// Workers that (re)joined the collective this iteration, after
    /// snapshot catch-up from the leader.
    pub joined: Vec<usize>,
    /// Workers that left gracefully before this iteration's exchange.
    pub left: Vec<usize>,
}

impl IterationLog {
    fn clean(loss: f32, accuracy: f32) -> Self {
        IterationLog {
            loss,
            accuracy,
            excised: None,
            exchange_error: None,
            joined: Vec::new(),
            left: Vec::new(),
        }
    }
}

/// Applies one membership transition to the trainer-side live flags —
/// the fabric-level half (endpoint liveness) is the schedule's own
/// [`MembershipSchedule::down_at`]. Returns whether the transition
/// changed anything: a join of an already-live worker, or a leave of an
/// already-departed one, is a no-op, and crashes are not applied here
/// at all (they surface through the fabric as
/// [`FabricError::EndpointDown`] and take the recovery-ladder path).
///
/// Runs at the top of every training iteration, so it allocates nothing
/// and cannot panic.
fn apply_membership_event(
    event: MembershipEvent,
    alive: &mut [bool],
    aggregator_down: &mut bool,
) -> bool {
    let workers = alive.len();
    match event {
        MembershipEvent::Join { worker, .. } if worker >= workers => {
            let changed = *aggregator_down;
            *aggregator_down = false;
            changed
        }
        MembershipEvent::Join { worker, .. } => match alive.get_mut(worker) {
            Some(slot) if !*slot => {
                *slot = true;
                true
            }
            _ => false,
        },
        MembershipEvent::Leave { worker, .. } => match alive.get_mut(worker) {
            Some(slot) if *slot => {
                *slot = false;
                true
            }
            _ => false,
        },
        MembershipEvent::Crash { .. } => false,
    }
}

/// Ships one snapshot block from `src` to `dst` as plain frames (the
/// lossy engines must never touch checkpoint state), copying the
/// delivered values into `out`. Snapshot catch-up rides the fabric's
/// delivery path, so byte accounting, timing, and fault injection all
/// apply to it like any other transfer; the copy itself allocates
/// nothing beyond `out`'s growth and cannot panic.
fn transfer_snapshot(
    fabric: &mut dyn Fabric,
    src: usize,
    dst: usize,
    values: &[f32],
    out: &mut Vec<f32>,
) -> Result<(), FabricError> {
    out.clear();
    fabric.transfer_with(src, dst, values, PayloadKind::Plain, &mut |vals| {
        out.extend_from_slice(vals)
    })
}

/// A data-parallel cluster of model replicas (Sec. II-A / Sec. IV).
///
/// Every worker holds a full model replica initialized from the same
/// seed (`w_0` shared, Algorithm 1 line 1) and a shard `D_i` of the
/// training data. Each iteration: every live worker computes its local
/// gradient on its own minibatch, the configured exchange sums the
/// gradients over the configured transport fabric (with optional lossy
/// compression in flight), and every live worker applies the same SGD
/// update.
///
/// # Fault handling
///
/// With a [`FaultPlan`] armed, most injected faults are absorbed below
/// this layer (frame retransmission in the fault decorator, per-leg
/// plain renegotiation in the exchanges). Two kinds surface here:
///
/// * **Endpoint crash** ([`FabricError::EndpointDown`]): the trainer
///   excises the endpoint — [`ExchangeStrategy::Tree`] prunes the leaf
///   from its topology and keeps the tree,
///   [`ExchangeStrategy::SwitchReduce`] keeps folding the survivor
///   ports, and the flat strategies re-stitch over the survivor ring
///   (group structure and
///   the star topology no longer hold) — the iteration's exchange is
///   re-run from the pre-exchange gradients, and training continues on
///   the live replicas.
/// * Anything else that defeats recovery: recorded in
///   [`IterationLog::exchange_error`], and the iteration's update is
///   skipped on all replicas (so they stay consistent) instead of
///   unwinding.
///
/// # Elastic membership
///
/// With a [`MembershipSchedule`] on [`TrainerConfig::membership`],
/// scheduled transitions apply at the top of their iteration, before
/// compute: a `Leave` drains the worker (it finished the previous
/// iteration) and excises it without touching the recovery ladder; a
/// `Join` revives the worker — including one that previously crashed or
/// left — with snapshot catch-up (parameters + optimizer state shipped
/// from the current leader over the fabric as plain frames) and
/// re-grafts it at its original topology position; a `Crash` surfaces
/// through the fabric as `EndpointDown` on every touching delivery.
///
/// # Examples
///
/// ```
/// use inceptionn_distrib::{DistributedTrainer, TrainerConfig};
/// use inceptionn_dnn::data::DigitDataset;
/// use inceptionn_dnn::models;
///
/// let data = DigitDataset::generate(64, 9);
/// let cfg = TrainerConfig { workers: 2, batch_per_worker: 4, ..TrainerConfig::default() };
/// let mut trainer = DistributedTrainer::new(cfg, models::hdc_mlp_small, &data);
/// let log = trainer.train_iterations(2);
/// assert_eq!(log.len(), 2);
/// ```
pub struct DistributedTrainer {
    config: TrainerConfig,
    replicas: Vec<Network>,
    optimizers: Vec<Sgd>,
    shards: Vec<DigitDataset>,
    cursor: usize,
    fabric: Box<dyn Fabric>,
    buf: EventBuf,
    iteration: u64,
    alive: Vec<bool>,
    /// The exchange dispatch seam, carrying the live topology and the
    /// aggregator-down flag across membership transitions.
    exchange: Exchange,
    /// The configured tree (or flat) topology, untouched by membership:
    /// the live topology is re-derived from it on every transition, so
    /// a rejoining worker re-grafts at its original position.
    pristine_topology: Topology,
}

impl std::fmt::Debug for DistributedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Replicas, optimizer state, and the fabric trait object are too
        // bulky (or unprintable) to dump; the configuration and progress
        // identify the trainer.
        f.debug_struct("DistributedTrainer")
            .field("config", &self.config)
            .field("cursor", &self.cursor)
            .field("alive", &self.alive)
            .field("fabric_stats", &self.fabric.stats())
            .finish_non_exhaustive()
    }
}

impl DistributedTrainer {
    /// Builds a cluster of `config.workers` replicas of the model
    /// produced by `model_fn(config.seed)` over shards of `dataset`.
    ///
    /// The transport fabric gets one endpoint per worker plus one for
    /// the aggregator (used only by
    /// [`ExchangeStrategy::WorkerAggregator`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` or the dataset has fewer samples
    /// than workers.
    pub fn new(
        config: TrainerConfig,
        model_fn: impl Fn(u64) -> Network,
        dataset: &DigitDataset,
    ) -> Self {
        assert!(config.workers > 0, "at least one worker required");
        assert!(
            dataset.len() >= config.workers,
            "dataset smaller than worker count"
        );
        let replicas: Vec<Network> = (0..config.workers).map(|_| model_fn(config.seed)).collect();
        let optimizers = (0..config.workers)
            .map(|_| Sgd::new(config.sgd, replicas[0].param_count()))
            .collect();
        let shards = dataset.shards(config.workers);
        let topology = match &config.topology {
            Some(t) => {
                assert_eq!(
                    t.workers(),
                    (0..config.workers).collect::<Vec<_>>(),
                    "topology leaves must be exactly the worker ids"
                );
                t.clone()
            }
            None => Topology::flat(config.workers),
        };
        let mut builder = FabricBuilder::new(config.workers + 1)
            .transport(config.transport)
            .codec(config.codec)
            .topology(topology.clone())
            .membership(config.membership.clone())
            .recorder(&config.recorder);
        if let Some(plan) = &config.faults {
            builder = builder.faults(plan.clone());
        }
        if let Some(net) = config.network {
            builder = builder.network(net);
        }
        let fabric = builder.build();
        let buf = config.recorder.buffer();
        let alive = vec![true; config.workers];
        let exchange = Exchange::new(config.workers).with_topology(topology.clone());
        DistributedTrainer {
            config,
            replicas,
            optimizers,
            shards,
            cursor: 0,
            fabric,
            buf,
            iteration: 0,
            alive,
            exchange,
            pristine_topology: topology,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// What has crossed the transport fabric so far (wire volume, engine
    /// cycles, link latency — depending on the transport kind).
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// What the fault decorator injected and recovered so far (all zero
    /// on a clean fabric).
    pub fn fault_stats(&self) -> FaultStats {
        self.fabric.fault_stats()
    }

    /// Which workers are currently in the exchange topology (`false` =
    /// excised after a crash or a graceful leave; a later `Join` flips
    /// it back).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Indices of live workers, in ring order.
    fn live_workers(&self) -> Vec<usize> {
        (0..self.config.workers)
            .filter(|&w| self.alive[w])
            .collect()
    }

    /// Applies this iteration's scheduled membership transitions:
    /// graceful leaves excise without touching the recovery ladder,
    /// joins revive the worker with snapshot catch-up from the current
    /// leader, and an aggregator join restores the star. Returns the
    /// workers that joined and left, plus any catch-up failure.
    fn apply_membership(&mut self) -> (Vec<usize>, Vec<usize>, Option<FabricError>) {
        let mut joined = Vec::new();
        let mut left = Vec::new();
        let mut error = None;
        if self.config.membership.is_empty() {
            return (joined, left, error);
        }
        let events: Vec<MembershipEvent> =
            self.config.membership.events_at(self.iteration).collect();
        let mut changed = false;
        for event in events {
            let mut aggregator_down = self.exchange.aggregator_down();
            if !apply_membership_event(event, &mut self.alive, &mut aggregator_down) {
                continue;
            }
            if !aggregator_down {
                self.exchange.revive_aggregator();
            }
            match event {
                MembershipEvent::Join { worker, .. } if worker < self.config.workers => {
                    if let Err(e) = self.catch_up(worker) {
                        // The joiner could not be caught up: keep it out
                        // and surface the failure on the iteration log.
                        self.alive[worker] = false;
                        error = Some(e);
                        continue;
                    }
                    changed = true;
                    joined.push(worker);
                    self.record_member(labels::MEMBER_JOIN, worker);
                }
                // An aggregator join only clears the star's down flag.
                MembershipEvent::Join { .. } => {}
                MembershipEvent::Leave { worker, .. } => {
                    changed = true;
                    left.push(worker);
                    self.record_member(labels::MEMBER_LEAVE, worker);
                }
                MembershipEvent::Crash { .. } => {}
            }
        }
        if changed {
            // Re-derive the live topology from the pristine tree so a
            // rejoining worker re-grafts at its original position.
            let live = self.live_workers();
            self.exchange
                .set_topology(self.pristine_topology.restrict(&live));
        }
        (joined, left, error)
    }

    /// Ships the leader's parameters and optimizer state to a
    /// (re)joining worker over the fabric as plain frames, so the joiner
    /// resumes bit-identical to a worker that never left.
    fn catch_up(&mut self, worker: usize) -> Result<(), FabricError> {
        let Some(leader) = (0..self.config.workers).find(|&w| self.alive[w] && w != worker) else {
            // Nobody to catch up from: the joiner's own state is the
            // freshest copy left in the collective.
            return Ok(());
        };
        let params = self.replicas[leader].flat_params();
        let mut state = Vec::with_capacity(params.len());
        transfer_snapshot(self.fabric.as_mut(), leader, worker, &params, &mut state)?;
        self.replicas[worker].set_flat_params(&state);
        transfer_snapshot(
            self.fabric.as_mut(),
            leader,
            worker,
            self.optimizers[leader].velocity(),
            &mut state,
        )?;
        let snapshot_bytes = ((params.len() + state.len()) * 4) as f64;
        let leader_iteration = self.optimizers[leader].iteration();
        self.optimizers[worker].restore(state, leader_iteration);
        if self.buf.is_on() {
            self.buf.push(Event::metric(
                labels::MEMBER_SNAPSHOT_BYTES,
                Domain::Wall,
                leader as u32,
                worker as u32,
                self.config.recorder.wall_ns(),
                snapshot_bytes,
            ));
        }
        Ok(())
    }

    fn record_member(&mut self, label: &'static str, worker: usize) {
        if self.buf.is_on() {
            self.buf.push(Event::metric(
                label,
                Domain::Wall,
                0,
                self.iteration as u32,
                self.config.recorder.wall_ns(),
                worker as f64,
            ));
        }
    }

    /// Runs one synchronous training iteration; returns the mean loss
    /// and accuracy across live workers, plus any membership and
    /// fault-handling events (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if every worker has crashed or left.
    pub fn step(&mut self) -> IterationLog {
        self.fabric.begin_iteration(self.iteration);
        let (joined, left, membership_error) = self.apply_membership();
        let mut live = self.live_workers();
        assert!(!live.is_empty(), "every worker has crashed");
        let t_compute = self.config.recorder.wall_ns();
        let mut grads: Vec<Vec<f32>> = Vec::with_capacity(live.len());
        let mut loss_sum = 0.0f32;
        let mut acc_sum = 0.0f32;
        for &w in &live {
            let (x, y) = self.shards[w].minibatch(self.cursor, self.config.batch_per_worker);
            let (loss, acc) = self.replicas[w].forward_backward(&x, &y);
            loss_sum += loss;
            acc_sum += acc;
            grads.push(self.replicas[w].flat_grads());
        }
        self.cursor += self.config.batch_per_worker;
        // With faults or membership transitions armed the exchange can
        // fail mid-flight, leaving gradients partially folded; a
        // snapshot makes the re-stitched retry start from clean inputs.
        let snapshot = (self.config.faults.is_some() || !self.config.membership.is_empty())
            .then(|| grads.clone());
        let t_exchange = self.config.recorder.wall_ns();
        let mut log =
            IterationLog::clean(loss_sum / live.len() as f32, acc_sum / live.len() as f32);
        log.joined = joined;
        log.left = left;
        let result = match membership_error {
            Some(e) => Err(e),
            None => self.exchange.run(
                self.config.strategy,
                self.fabric.as_mut(),
                &mut grads,
                &live,
            ),
        };
        match result {
            Ok(()) => {}
            Err(FabricError::EndpointDown { endpoint }) => {
                log.excised = Some(endpoint);
                if endpoint < self.config.workers {
                    self.alive[endpoint] = false;
                }
                self.exchange.note_endpoint_down(endpoint);
                if let Some(snap) = snapshot {
                    grads = snap;
                }
                if let Some(pos) = live.iter().position(|&w| w == endpoint) {
                    live.remove(pos);
                    grads.remove(pos);
                }
                if self.buf.is_on() {
                    self.buf.push(Event::metric(
                        labels::RING_RESTITCH,
                        Domain::Wall,
                        0,
                        self.iteration as u32,
                        self.config.recorder.wall_ns(),
                        endpoint as f64,
                    ));
                }
                if live.is_empty() {
                    log.exchange_error = Some(FabricError::EndpointDown { endpoint });
                } else if let Err(e) = self.exchange.run(
                    self.config.strategy,
                    self.fabric.as_mut(),
                    &mut grads,
                    &live,
                ) {
                    log.exchange_error = Some(e);
                }
            }
            Err(e) => {
                log.exchange_error = Some(e);
            }
        }
        let t_update = self.config.recorder.wall_ns();
        if log.exchange_error.is_none() {
            // Average the summed gradient so the effective step matches
            // the single-node formulation regardless of worker count.
            let scale = 1.0 / live.len() as f32;
            for (&w, mut g) in live.iter().zip(grads) {
                for v in &mut g {
                    *v *= scale;
                }
                let mut params = self.replicas[w].flat_params();
                self.optimizers[w].step(&mut params, &mut g);
                self.replicas[w].set_flat_params(&params);
            }
        }
        if self.buf.is_on() {
            let t_end = self.config.recorder.wall_ns();
            let key = self.iteration as u32;
            let label = self.config.strategy.trace_label();
            self.buf.push(Event::complete(
                labels::ITER_COMPUTE,
                Domain::Wall,
                0,
                key,
                t_compute,
                t_exchange - t_compute,
            ));
            self.buf.push(Event::complete(
                label,
                Domain::Wall,
                0,
                key,
                t_exchange,
                t_update - t_exchange,
            ));
            self.buf.push(Event::complete(
                labels::ITER_UPDATE,
                Domain::Wall,
                0,
                key,
                t_update,
                t_end - t_update,
            ));
            self.buf.push(Event::metric(
                labels::ITER_LOSS,
                Domain::Wall,
                0,
                key,
                t_end,
                log.loss as f64,
            ));
            self.buf.push(Event::metric(
                labels::ITER_ACCURACY,
                Domain::Wall,
                0,
                key,
                t_end,
                log.accuracy as f64,
            ));
        }
        self.iteration += 1;
        log
    }

    /// Drains buffered trace events (the trainer's iteration spans and
    /// the fabric's transfer counters) into the configured recorder, so
    /// a following [`Recorder::finish`] sees everything recorded so far.
    pub fn flush_trace(&mut self) {
        self.fabric.flush_obs();
        self.buf.flush();
    }

    /// Runs `iters` iterations, returning the per-iteration log.
    pub fn train_iterations(&mut self, iters: usize) -> Vec<IterationLog> {
        (0..iters).map(|_| self.step()).collect()
    }

    /// Evaluates the first live replica on a held-out dataset.
    pub fn evaluate(&mut self, test: &DigitDataset) -> f32 {
        let w = self.live_workers()[0];
        let x = test.images_flat();
        self.replicas[w].evaluate(&x, test.labels(), 64)
    }

    /// The largest absolute parameter difference between any live
    /// replica and the first live replica — zero for lossless
    /// exchanges, bounded by the accumulated quantization drift
    /// otherwise. Crashed replicas are excluded: they stopped receiving
    /// updates when they were excised.
    pub fn max_replica_divergence(&self) -> f32 {
        let live = self.live_workers();
        let reference = self.replicas[live[0]].flat_params();
        let mut worst = 0.0f32;
        for &w in &live[1..] {
            for (a, b) in reference.iter().zip(self.replicas[w].flat_params()) {
                worst = worst.max((a - b).abs());
            }
        }
        worst
    }

    /// Borrow a replica (for inspecting gradients/weights in tests and
    /// experiments).
    pub fn replica(&self, index: usize) -> &Network {
        &self.replicas[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inceptionn_compress::ErrorBound;
    use inceptionn_dnn::models;

    fn quick_config(strategy: ExchangeStrategy, codec: CodecSelection) -> TrainerConfig {
        TrainerConfig {
            workers: 4,
            strategy,
            codec,
            sgd: SgdConfig {
                learning_rate: 0.05,
                ..SgdConfig::default()
            },
            batch_per_worker: 8,
            seed: 3,
            ..TrainerConfig::default()
        }
    }

    fn pow2_codec(e: u8) -> CodecSelection {
        CodecSelection::from_bound(Some(ErrorBound::pow2(e)))
    }

    #[test]
    fn replicas_stay_identical_without_compression() {
        let data = DigitDataset::generate(160, 8);
        let mut t = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, CodecSelection::None),
            models::hdc_mlp_small,
            &data,
        );
        t.train_iterations(3);
        assert_eq!(t.max_replica_divergence(), 0.0);
    }

    #[test]
    fn ring_and_aggregator_train_equivalently_without_compression() {
        let data = DigitDataset::generate(160, 9);
        let mut ring = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, CodecSelection::None),
            models::hdc_mlp_small,
            &data,
        );
        let mut agg = DistributedTrainer::new(
            quick_config(ExchangeStrategy::WorkerAggregator, CodecSelection::None),
            models::hdc_mlp_small,
            &data,
        );
        let lr = ring.train_iterations(3);
        let la = agg.train_iterations(3);
        for (a, b) in lr.iter().zip(&la) {
            // Same math, different summation order: near-identical.
            assert!((a.loss - b.loss).abs() < 1e-3, "{} vs {}", a.loss, b.loss);
        }
        let pr = ring.replica(0).flat_params();
        let pa = agg.replica(0).flat_params();
        let max_diff = pr
            .iter()
            .zip(&pa)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-3, "params drifted {max_diff}");
    }

    #[test]
    fn training_learns_the_digit_task() {
        let train = DigitDataset::generate(400, 10);
        let test = DigitDataset::generate(100, 11);
        let mut t = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, CodecSelection::None),
            models::hdc_mlp_small,
            &train,
        );
        let before = t.evaluate(&test);
        t.train_iterations(200);
        let after = t.evaluate(&test);
        assert!(
            after > before + 0.3 && after > 0.6,
            "accuracy {before} -> {after}"
        );
    }

    #[test]
    fn compressed_training_matches_lossless_accuracy() {
        // The paper's core claim: with eb = 2^-10 training quality is
        // unaffected.
        let train = DigitDataset::generate(400, 12);
        let test = DigitDataset::generate(100, 13);
        let mut lossless = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, CodecSelection::None),
            models::hdc_mlp_small,
            &train,
        );
        let mut lossy = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, pow2_codec(10)),
            models::hdc_mlp_small,
            &train,
        );
        lossless.train_iterations(60);
        lossy.train_iterations(60);
        let a0 = lossless.evaluate(&test);
        let a1 = lossy.evaluate(&test);
        assert!(a1 > a0 - 0.05, "lossless {a0} vs compressed {a1}");
    }

    #[test]
    fn compressed_replica_drift_stays_small() {
        let data = DigitDataset::generate(160, 14);
        let mut t = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, pow2_codec(10)),
            models::hdc_mlp_small,
            &data,
        );
        t.train_iterations(10);
        let drift = t.max_replica_divergence();
        // Quantization is deterministic; divergence only enters through
        // rare re-quantization boundary cases, each bounded by eb.
        assert!(drift < 0.01, "replica drift {drift}");
    }

    #[test]
    fn hierarchical_strategy_trains_like_the_flat_ring() {
        let data = DigitDataset::generate(160, 15);
        let mut flat = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, CodecSelection::None),
            models::hdc_mlp_small,
            &data,
        );
        let mut hier = DistributedTrainer::new(
            quick_config(
                ExchangeStrategy::HierarchicalRing { group_size: 2 },
                CodecSelection::None,
            ),
            models::hdc_mlp_small,
            &data,
        );
        let lf = flat.train_iterations(5);
        let lh = hier.train_iterations(5);
        for (a, b) in lf.iter().zip(&lh) {
            assert!((a.loss - b.loss).abs() < 1e-3, "{} vs {}", a.loss, b.loss);
        }
        assert_eq!(hier.max_replica_divergence(), 0.0);
    }

    #[test]
    fn tree_strategy_trains_like_the_flat_ring() {
        let data = DigitDataset::generate(160, 25);
        let mut flat = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, CodecSelection::None),
            models::hdc_mlp_small,
            &data,
        );
        let mut tree = DistributedTrainer::new(
            TrainerConfig {
                topology: Some(inceptionn_netsim::Topology::two_tier(2, 2)),
                ..quick_config(ExchangeStrategy::Tree, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let lf = flat.train_iterations(5);
        let lt = tree.train_iterations(5);
        for (a, b) in lf.iter().zip(&lt) {
            assert!((a.loss - b.loss).abs() < 1e-3, "{} vs {}", a.loss, b.loss);
        }
        assert_eq!(tree.max_replica_divergence(), 0.0);
    }

    #[test]
    fn switch_reduce_trains_bit_identically_to_the_host_aggregator() {
        // Acceptance criterion for in-network reduction: final weights
        // under a fixed seed must equal host-side gather/broadcast.
        let data = DigitDataset::generate(160, 26);
        for codec in [CodecSelection::None, pow2_codec(10)] {
            let mut host = DistributedTrainer::new(
                TrainerConfig {
                    transport: TransportKind::Nic,
                    ..quick_config(ExchangeStrategy::WorkerAggregator, codec)
                },
                models::hdc_mlp_small,
                &data,
            );
            let mut in_net = DistributedTrainer::new(
                TrainerConfig {
                    transport: TransportKind::Nic,
                    ..quick_config(ExchangeStrategy::SwitchReduce, codec)
                },
                models::hdc_mlp_small,
                &data,
            );
            host.train_iterations(3);
            in_net.train_iterations(3);
            assert_eq!(
                host.replica(0).flat_params(),
                in_net.replica(0).flat_params(),
                "switch-resident reduction must be a drop-in substitution"
            );
        }
    }

    #[test]
    fn tree_crash_prunes_the_leaf_and_keeps_the_tree() {
        let data = DigitDataset::generate(160, 27);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().crash(3, 2),
                topology: Some(inceptionn_netsim::Topology::two_tier(2, 2)),
                ..quick_config(ExchangeStrategy::Tree, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(6);
        assert_eq!(logs[3].excised, Some(2), "crash must excise worker 2");
        assert!(logs.iter().all(|l| l.exchange_error.is_none()));
        assert_eq!(t.alive(), &[true, true, false, true]);
        assert_eq!(t.max_replica_divergence(), 0.0);
    }

    #[test]
    fn switch_reduce_crash_drops_the_port_and_continues() {
        let data = DigitDataset::generate(160, 28);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().crash(2, 1),
                ..quick_config(ExchangeStrategy::SwitchReduce, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(4);
        assert_eq!(logs[2].excised, Some(1));
        assert!(logs.iter().all(|l| l.exchange_error.is_none()));
        assert_eq!(t.alive(), &[true, false, true, true]);
        assert_eq!(t.max_replica_divergence(), 0.0);
    }

    #[test]
    fn nic_transport_trains_bit_identically_to_in_process() {
        // Transport choice changes accounting, never values: the NIC
        // datapath round trip is bit-exact against the shortcut.
        let data = DigitDataset::generate(160, 16);
        let mut shortcut = DistributedTrainer::new(
            quick_config(ExchangeStrategy::Ring, pow2_codec(10)),
            models::hdc_mlp_small,
            &data,
        );
        let mut nic = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::TimedNic,
                ..quick_config(ExchangeStrategy::Ring, pow2_codec(10))
            },
            models::hdc_mlp_small,
            &data,
        );
        shortcut.train_iterations(3);
        nic.train_iterations(3);
        assert_eq!(
            shortcut.replica(0).flat_params(),
            nic.replica(0).flat_params()
        );
        let stats = nic.fabric_stats();
        assert!(stats.wire_ratio() > 1.5, "ratio {}", stats.wire_ratio());
        assert!(stats.engine_cycles > 0);
        assert!(stats.link_latency_ns > 0);
        assert_eq!(shortcut.fabric_stats().link_latency_ns, 0);
    }

    #[test]
    fn traced_run_records_iteration_spans_and_metrics() {
        let data = DigitDataset::generate(160, 17);
        let recorder = Recorder::on();
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                recorder: recorder.clone(),
                ..quick_config(ExchangeStrategy::Ring, pow2_codec(10))
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(2);
        t.flush_trace();
        let rec = recorder.finish();
        let summary = rec.summary();
        assert_eq!(summary.iters.len(), 2, "one entry per iteration");
        for stats in summary.iters.values() {
            assert!(stats.compute_ns > 0);
            assert!(stats.exchange_ns > 0);
        }
        assert_eq!(
            summary.exchange_ns_by_label.keys().collect::<Vec<_>>(),
            vec![labels::EXCHANGE_RING]
        );
        let loss0 = rec
            .events()
            .iter()
            .find(|e| e.label == labels::ITER_LOSS && e.key == 0)
            .expect("loss metric for iteration 0");
        assert_eq!(loss0.metric_value(), logs[0].loss as f64);
    }

    #[test]
    fn tracing_does_not_change_training() {
        let data = DigitDataset::generate(160, 18);
        let cfg = quick_config(ExchangeStrategy::Ring, pow2_codec(10));
        let mut plain = DistributedTrainer::new(cfg.clone(), models::hdc_mlp_small, &data);
        let mut traced = DistributedTrainer::new(
            TrainerConfig {
                recorder: Recorder::on(),
                ..cfg
            },
            models::hdc_mlp_small,
            &data,
        );
        plain.train_iterations(3);
        traced.train_iterations(3);
        assert_eq!(
            plain.replica(0).flat_params(),
            traced.replica(0).flat_params()
        );
    }

    #[test]
    fn injected_faults_are_absorbed_bit_exactly() {
        // Drops and corruption below the degradation threshold are
        // repaired by retransmission: training is bit-identical to the
        // clean run and replicas never diverge.
        let data = DigitDataset::generate(160, 19);
        let cfg = TrainerConfig {
            transport: TransportKind::Nic,
            ..quick_config(ExchangeStrategy::Ring, CodecSelection::None)
        };
        let mut clean = DistributedTrainer::new(cfg.clone(), models::hdc_mlp_small, &data);
        let mut faulty = DistributedTrainer::new(
            TrainerConfig {
                faults: Some(FaultPlan::new(31).drop_prob(0.01).corrupt_prob(0.001)),
                ..cfg
            },
            models::hdc_mlp_small,
            &data,
        );
        let lc = clean.train_iterations(5);
        let lf = faulty.train_iterations(5);
        assert_eq!(lc, lf, "fault recovery must not perturb training");
        assert_eq!(
            clean.replica(0).flat_params(),
            faulty.replica(0).flat_params()
        );
        assert_eq!(faulty.max_replica_divergence(), 0.0);
    }

    #[test]
    fn endpoint_crash_is_excised_and_training_continues() {
        let data = DigitDataset::generate(160, 20);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().crash(3, 2),
                ..quick_config(ExchangeStrategy::Ring, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(6);
        assert_eq!(logs[2].excised, None, "crash arms at iteration 3");
        assert_eq!(logs[3].excised, Some(2), "crash must excise worker 2");
        assert!(
            logs.iter().all(|l| l.exchange_error.is_none()),
            "re-stitched ring must complete every iteration"
        );
        assert_eq!(t.alive(), &[true, true, false, true]);
        assert_eq!(
            t.max_replica_divergence(),
            0.0,
            "survivors must stay in lockstep after the re-stitch"
        );
        assert_eq!(t.fault_stats().crashes, 1);
    }

    #[test]
    fn aggregator_crash_reroutes_to_the_survivor_ring() {
        // Endpoint `workers` is the aggregator; crashing it forces the
        // star topology over to the flat worker ring.
        let data = DigitDataset::generate(160, 21);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().crash(2, 4),
                ..quick_config(ExchangeStrategy::WorkerAggregator, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(4);
        assert_eq!(logs[2].excised, Some(4));
        assert!(logs.iter().all(|l| l.exchange_error.is_none()));
        assert_eq!(t.alive(), &[true, true, true, true]);
        assert_eq!(t.max_replica_divergence(), 0.0);
    }

    #[test]
    fn graceful_leave_skips_the_recovery_ladder_and_rejoin_catches_up() {
        let data = DigitDataset::generate(160, 22);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().leave(2, 3).join(4, 3),
                ..quick_config(ExchangeStrategy::Ring, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(6);
        assert_eq!(logs[2].left, vec![3]);
        assert_eq!(logs[2].excised, None, "a leave never takes the ladder");
        assert_eq!(logs[4].joined, vec![3]);
        assert!(logs.iter().all(|l| l.exchange_error.is_none()));
        assert_eq!(t.alive(), &[true, true, true, true]);
        assert_eq!(t.fault_stats().crashes, 0, "no crash was ever injected");
        assert_eq!(
            t.max_replica_divergence(),
            0.0,
            "snapshot catch-up must restore bit-identical state"
        );
    }

    #[test]
    fn a_crashed_worker_rejoins_with_snapshot_catch_up() {
        let data = DigitDataset::generate(160, 23);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().crash(2, 1).join(4, 1),
                ..quick_config(ExchangeStrategy::Ring, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(6);
        assert_eq!(logs[2].excised, Some(1), "crash takes the recovery ladder");
        assert_eq!(logs[4].joined, vec![1]);
        assert_eq!(t.alive(), &[true, true, true, true]);
        assert_eq!(t.fault_stats().crashes, 1);
        assert_eq!(
            t.replica(1).flat_params(),
            t.replica(0).flat_params(),
            "the rejoined replica must match a survivor bit for bit"
        );
        assert_eq!(t.max_replica_divergence(), 0.0);
    }

    #[test]
    fn tree_rejoin_regrafts_at_the_original_position() {
        // Same schedule under the tree strategy: the leave prunes the
        // leaf, the rejoin re-grafts it, and training never degrades to
        // an error.
        let data = DigitDataset::generate(160, 24);
        let mut t = DistributedTrainer::new(
            TrainerConfig {
                transport: TransportKind::Nic,
                membership: MembershipSchedule::new().leave(2, 1).join(4, 1),
                topology: Some(inceptionn_netsim::Topology::two_tier(2, 2)),
                ..quick_config(ExchangeStrategy::Tree, CodecSelection::None)
            },
            models::hdc_mlp_small,
            &data,
        );
        let logs = t.train_iterations(6);
        assert!(logs.iter().all(|l| l.exchange_error.is_none()));
        assert_eq!(t.alive(), &[true, true, true, true]);
        assert_eq!(t.max_replica_divergence(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let data = DigitDataset::generate(10, 1);
        let cfg = TrainerConfig {
            workers: 0,
            ..TrainerConfig::default()
        };
        DistributedTrainer::new(cfg, models::hdc_mlp_small, &data);
    }
}
