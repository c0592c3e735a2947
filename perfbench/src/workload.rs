//! The six workloads: what each runs, at what size, and how every op's
//! output is checked. Inputs come from the seed alone; the library
//! under test receives only the generated inputs.

use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_compress::ErrorBound;
use inceptionn_distrib::{
    CodecSelection, DistributedTrainer, Exchange, ExchangeStrategy, Fabric, FabricBuilder,
    FabricStats, PipelineConfig, TrainerConfig, TransportKind,
};
use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::layer::{Layer, Linear, Relu};
use inceptionn_dnn::Network;
use inceptionn_netsim::collective::{self, RING_HOST_S_PER_BYTE};
use inceptionn_netsim::topology::{ring_exchange_on, switch_reduce_exchange, wa_exchange_on};
use inceptionn_netsim::{CompressionSpec, NetworkConfig, TreeConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{fingerprint, FINGERPRINT_SEED};
use crate::tracing::{Call, SpanKind, Trace, TracingFabric};

/// Untimed ops run after every build so arenas fill, the codec pool
/// spins up and pages fault in before the first timed op.
pub const WARMUP_OPS: usize = 5;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x1ce9;

/// Size divisor and timed ops per measurement loop of `--smoke`.
pub const SMOKE_SCALE: usize = 16;
pub const SMOKE_OPS: usize = 10;

/// Cumulative simulated-budget counters after an op, compared exactly
/// between the untraced and the traced run: a [`FabricStats`] in field
/// order for fabric workloads, `[simulated ns, tree wire bytes, 0, ..]`
/// for the sweep.
pub type Counters = [u64; 6];

fn fabric_counters(s: FabricStats) -> Counters {
    [
        s.transfers,
        s.payload_bytes,
        s.wire_bytes,
        s.packets,
        s.engine_cycles,
        s.link_latency_ns,
    ]
}

/// One all-reduce configuration over a [`Fabric`].
#[derive(Debug, Clone, Copy)]
pub struct ExchangeSpec {
    pub workers: usize,
    /// Whether the fabric gets an extra aggregator endpoint.
    pub aggregator: bool,
    /// `f32` values per worker at full size.
    pub values: usize,
    pub strategy: ExchangeStrategy,
    pub pipelined: bool,
    pub codec: CodecSelection,
    pub transport: TransportKind,
    /// How far one worker's contribution may move an output element:
    /// the codec's bound or grid step, `0.0` when lossless.
    pub step: f32,
}

impl ExchangeSpec {
    /// Fabric endpoints: the workers plus the aggregator, if any.
    pub fn endpoints(&self) -> usize {
        self.workers + usize::from(self.aggregator)
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Exchange(ExchangeSpec),
    Train,
    Sweep,
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// How much of a busy sibling hardware thread this workload feels,
    /// as a share of what the probe's dense part feels (the rest follows
    /// the chain part): fitted on recordings of this workload's ops and
    /// probe passes next to a load that comes and goes on the other
    /// core, as the weight that makes the op time the same with the
    /// load on and off. It belongs to the code the workload runs today;
    /// fit it again in a benchmark change when a layer's mix of serial
    /// and wide code changes.
    pub sibling_share: f64,
}

/// Hidden width of the trained MLP: `models::hdc_mlp` narrowed from 500
/// so a step fits ≥100 times into one run (263 k parameters).
const TRAIN_HIDDEN: usize = 192;
const TRAIN_WORKERS: usize = 4;
const TRAIN_BATCH: usize = 32;
const TRAIN_SAMPLES: usize = 2048;
const TRAIN_BOUND_EXP: u8 = 10;

/// The workloads, in the order they run and are reported.
pub fn specs() -> [Spec; 6] {
    [
        Spec {
            name: "ring-none-nic",
            why: "lossless whole-block ring over the NIC transport: framing, CRC and per-packet packetise do nearly all the work, compress and netsim none",
            kind: Kind::Exchange(ExchangeSpec {
                workers: 4,
                aggregator: false,
                values: 512 * 1024,
                strategy: ExchangeStrategy::Ring,
                pipelined: false,
                codec: CodecSelection::None,
                transport: TransportKind::Nic,
                step: 0.0,
            }),
            sibling_share: 0.05,
        },
        Spec {
            name: "ring-inc-timednic",
            why: "pipelined ring, INCEPTIONN engines, timed NIC: nicsim engines take the largest share, 4x the frames per op, the zero-alloc arena path plus the netsim link charge",
            kind: Kind::Exchange(ExchangeSpec {
                workers: 4,
                aggregator: false,
                values: 512 * 1024,
                strategy: ExchangeStrategy::Ring,
                pipelined: true,
                codec: CodecSelection::Parallel {
                    bound: ErrorBound::pow2(8),
                    shards: 0,
                },
                transport: TransportKind::TimedNic,
                step: 1.0 / 256.0,
            }),
            sibling_share: 0.30,
        },
        Spec {
            name: "switch-sketch-nic",
            why: "switch-resident reduction of homomorphic sketch frames: compress::sketch and the compressed-domain switch fold, the fabric used as a reducer instead of peer to peer",
            kind: Kind::Exchange(ExchangeSpec {
                workers: 4,
                aggregator: false,
                values: 256 * 1024,
                strategy: ExchangeStrategy::SwitchReduce,
                pipelined: true,
                codec: CodecSelection::Sketch { frac_bits: 10 },
                transport: TransportKind::Nic,
                step: 1.0 / 1024.0,
            }),
            sibling_share: 0.05,
        },
        Spec {
            name: "wa-sparse-timednic",
            why: "worker-aggregator incast with the only stateful codec (error-feedback sparsifier) and a plain broadcast that must bypass the engines",
            kind: Kind::Exchange(ExchangeSpec {
                workers: 4,
                aggregator: true,
                values: 512 * 1024,
                strategy: ExchangeStrategy::WorkerAggregator,
                pipelined: false,
                codec: CodecSelection::Sparse {
                    bound: ErrorBound::pow2(6),
                    top_per_mille: 0,
                },
                transport: TransportKind::TimedNic,
                // An output element is off by the residual a worker
                // carried in minus the residual it carries out, each at
                // most the threshold.
                step: 2.0 / 64.0,
            }),
            sibling_share: 0.05,
        },
        Spec {
            name: "train-hdc-inproc",
            why: "what a library user waits for: DistributedTrainer steps (dnn and tensor compute) over the default in-process transport with its loopback frames and the software ParallelCodec",
            kind: Kind::Train,
            sibling_share: 0.25,
        },
        Spec {
            name: "netsim-sweep",
            why: "no fabric: both netsim discrete-event engines (topology tree and star) with every other layer idle",
            kind: Kind::Sweep,
            sibling_share: 0.60,
        },
    ]
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The size this workload runs at under `scale`, for the results
    /// file.
    pub fn size(&self, scale: usize) -> Vec<(&'static str, u64)> {
        match self.kind {
            Kind::Exchange(e) => vec![
                ("workers", e.workers as u64),
                ("values_per_worker", (e.values / scale) as u64),
            ],
            Kind::Train => {
                let t = TrainSize::at(scale);
                vec![
                    ("workers", TRAIN_WORKERS as u64),
                    ("hidden", t.hidden as u64),
                    ("batch_per_worker", t.batch as u64),
                    ("samples", t.samples as u64),
                ]
            }
            Kind::Sweep => {
                let s = SweepSize::at(scale, 0);
                vec![
                    ("tree_workers", 64),
                    ("tree_block_bytes", s.tree_bytes),
                    ("star_workers", 8),
                    ("star_block_bytes", s.star_bytes),
                ]
            }
        }
    }
}

/// A built workload: the state one closed-loop caller drives.
pub enum Bench {
    Exchange(ExchangeBench),
    Train(Box<TrainBench>),
    Sweep(SweepBench),
}

impl Bench {
    /// Generates the inputs from `seed` and builds everything an op
    /// needs. `traced` wraps the layers in the benchmark's own spans.
    pub fn build(spec: &Spec, seed: u64, scale: usize, traced: bool) -> Bench {
        match spec.kind {
            Kind::Exchange(e) => Bench::Exchange(ExchangeBench::build(e, seed, scale, traced)),
            Kind::Train => Bench::Train(Box::new(TrainBench::build(seed, scale, traced))),
            Kind::Sweep => Bench::Sweep(SweepBench::build(seed, scale, traced)),
        }
    }

    /// From now on a traced exchange workload keeps the data of every
    /// fabric call, until [`take_capture`](Self::take_capture).
    pub fn start_capture(&mut self) {
        if let Bench::Exchange(ExchangeBench {
            fabric: FabricSlot::Traced(f),
            ..
        }) = self
        {
            f.captured = Some(Vec::new());
        }
    }

    /// Ends a capture and returns the calls it kept.
    pub fn take_capture(&mut self) -> Vec<Call> {
        match self {
            Bench::Exchange(ExchangeBench {
                fabric: FabricSlot::Traced(f),
                ..
            }) => f.captured.take().unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// The spans recorded so far by the benchmark's own tracing (the
    /// trainer records its own, into its recorder).
    pub fn trace_mut(&mut self) -> Option<&mut Trace> {
        match self {
            Bench::Exchange(ExchangeBench {
                fabric: FabricSlot::Traced(f),
                ..
            }) => Some(&mut f.trace),
            Bench::Sweep(b) => b.trace.as_mut(),
            _ => None,
        }
    }

    /// Untimed per-op preparation (the input clone).
    pub fn prepare(&mut self) {
        if let Bench::Exchange(b) = self {
            b.prepare();
        }
    }

    /// One op.
    pub fn run(&mut self) -> Result<(), String> {
        match self {
            Bench::Exchange(b) => b.run(),
            Bench::Train(b) => b.run(),
            Bench::Sweep(b) => {
                b.run();
                Ok(())
            }
        }
    }

    /// Checks the op that just ran and returns its output fingerprint.
    pub fn verify(&mut self) -> Result<u64, String> {
        match self {
            Bench::Exchange(b) => b.verify(),
            Bench::Train(b) => b.verify(),
            Bench::Sweep(b) => b.verify(),
        }
    }

    /// A check over the whole run, after its last op.
    pub fn verify_run(&self) -> Result<(), String> {
        match self {
            Bench::Train(b) => b.verify_run(),
            _ => Ok(()),
        }
    }

    /// Gradient payload bytes one op all-reduces (simulated bytes for
    /// the sweep).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Bench::Exchange(b) => (b.spec.workers * b.spec.values * 4) as u64,
            Bench::Train(b) => (TRAIN_WORKERS * b.params * 4) as u64,
            Bench::Sweep(b) => b.size.payload_bytes(),
        }
    }

    /// Cumulative counters after the ops run so far.
    pub fn counters(&self) -> Counters {
        match self {
            Bench::Exchange(b) => fabric_counters(b.fabric.as_dyn().stats()),
            Bench::Train(b) => fabric_counters(b.trainer.fabric_stats()),
            Bench::Sweep(b) => [b.sim_ns, b.wire_bytes, 0, 0, 0, 0],
        }
    }
}

/// The fabric an exchange workload runs over: as built, or behind the
/// tracing decorator.
pub enum FabricSlot {
    Plain(Box<dyn Fabric>),
    Traced(Box<TracingFabric>),
}

impl FabricSlot {
    pub fn as_dyn(&self) -> &dyn Fabric {
        match self {
            FabricSlot::Plain(f) => f.as_ref(),
            FabricSlot::Traced(f) => f.as_ref(),
        }
    }

    pub fn as_dyn_mut(&mut self) -> &mut dyn Fabric {
        match self {
            FabricSlot::Plain(f) => f.as_mut(),
            FabricSlot::Traced(f) => f.as_mut(),
        }
    }
}

/// Per-worker gradients drawn from the AlexNet gradient model.
pub fn gradients(seed: u64, workers: usize, values: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = GradientModel::preset(GradientPreset::AlexNet);
    (0..workers)
        .map(|_| model.sample(&mut rng, values))
        .collect()
}

pub struct ExchangeBench {
    /// The spec at the size actually run.
    pub spec: ExchangeSpec,
    grads: Vec<Vec<f32>>,
    work: Vec<Vec<f32>>,
    /// Element-wise f64 sum of the inputs, and the sum of their
    /// magnitudes (what f32 rounding scales with).
    reference: Vec<(f64, f64)>,
    pub fabric: FabricSlot,
    exchange: Exchange,
    live: Vec<usize>,
    iteration: u64,
}

impl ExchangeBench {
    fn build(mut spec: ExchangeSpec, seed: u64, scale: usize, traced: bool) -> Self {
        spec.values /= scale;
        let grads = gradients(seed, spec.workers, spec.values);
        let reference = (0..spec.values)
            .map(|i| {
                grads.iter().fold((0.0, 0.0), |(sum, mag), g| {
                    (sum + f64::from(g[i]), mag + f64::from(g[i].abs()))
                })
            })
            .collect();
        let inner = FabricBuilder::new(spec.endpoints())
            .transport(spec.transport)
            .codec(spec.codec)
            .build();
        let fabric = if traced {
            FabricSlot::Traced(Box::new(TracingFabric::new(inner)))
        } else {
            FabricSlot::Plain(inner)
        };
        let mut exchange = Exchange::new(spec.workers);
        if spec.pipelined {
            exchange = exchange.pipelined(PipelineConfig::default());
        }
        ExchangeBench {
            spec,
            work: grads.clone(),
            grads,
            reference,
            fabric,
            exchange,
            live: (0..spec.workers).collect(),
            iteration: 0,
        }
    }

    fn prepare(&mut self) {
        for (w, g) in self.work.iter_mut().zip(&self.grads) {
            w.copy_from_slice(g);
        }
        // What the trainer does before every exchange; it rewinds the
        // error-feedback codec's per-iteration leg cursor.
        self.fabric.as_dyn_mut().begin_iteration(self.iteration);
        self.iteration += 1;
    }

    fn run(&mut self) -> Result<(), String> {
        if let FabricSlot::Traced(f) = &mut self.fabric {
            f.trace.begin_op();
        }
        let result = self.exchange.run(
            self.spec.strategy,
            self.fabric.as_dyn_mut(),
            &mut self.work,
            &self.live,
        );
        if let FabricSlot::Traced(f) = &mut self.fabric {
            f.trace.end_op();
        }
        result.map_err(|e| format!("exchange failed: {e}"))
    }

    fn verify(&mut self) -> Result<u64, String> {
        let lossy = f64::from(self.spec.step) * self.spec.workers as f64;
        let mut print = FINGERPRINT_SEED;
        for (k, out) in self.work.iter().enumerate() {
            for (i, (&v, &(sum, magnitude))) in out.iter().zip(&self.reference).enumerate() {
                let tolerance = lossy + 8.0 * f64::from(f32::EPSILON) * magnitude;
                // Written so a NaN output fails the check.
                if (f64::from(v) - sum).abs() > tolerance || v.is_nan() {
                    return Err(format!(
                        "worker {k} element {i}: got {v}, reference sum {sum}, tolerance {tolerance}"
                    ));
                }
            }
            print = fingerprint(print, out.iter().map(|v| v.to_bits()));
        }
        Ok(print)
    }
}

/// Sizes of the train workload under a scale divisor.
struct TrainSize {
    hidden: usize,
    batch: usize,
    samples: usize,
}

impl TrainSize {
    fn at(scale: usize) -> Self {
        TrainSize {
            hidden: (TRAIN_HIDDEN / scale).max(8),
            batch: (TRAIN_BATCH / scale).max(2),
            samples: (TRAIN_SAMPLES / scale).max(128),
        }
    }
}

/// `models::hdc_mlp` with a configurable hidden width: five fully
/// connected layers over the 784-feature digits.
pub fn hdc_mlp(seed: u64, hidden: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = inceptionn_dnn::models::DIGIT_FEATURES;
    let classes = inceptionn_dnn::models::DIGIT_CLASSES;
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(Linear::new(&mut rng, features, hidden)));
    layers.push(Box::new(Relu::new()));
    for _ in 0..3 {
        layers.push(Box::new(Linear::new(&mut rng, hidden, hidden)));
        layers.push(Box::new(Relu::new()));
    }
    layers.push(Box::new(Linear::new(&mut rng, hidden, classes)));
    Network::new(layers)
}

pub struct TrainBench {
    pub trainer: DistributedTrainer,
    /// On for a traced build: the trainer's own wall spans land here.
    pub recorder: Recorder,
    pub params: usize,
    pub workers: usize,
    pub hidden: usize,
    pub batch: usize,
    pub bound: ErrorBound,
    pub seed: u64,
    last_error: Option<String>,
    /// Loss of every step run, warm-up included.
    pub losses: Vec<f32>,
}

impl TrainBench {
    fn build(seed: u64, scale: usize, traced: bool) -> Self {
        let size = TrainSize::at(scale);
        let data = DigitDataset::generate(size.samples, seed);
        let recorder = if traced {
            Recorder::on()
        } else {
            Recorder::off()
        };
        let bound = ErrorBound::pow2(TRAIN_BOUND_EXP);
        let config = TrainerConfig {
            workers: TRAIN_WORKERS,
            strategy: ExchangeStrategy::Ring,
            codec: CodecSelection::from_bound(Some(bound)),
            batch_per_worker: size.batch,
            seed,
            recorder: recorder.clone(),
            ..TrainerConfig::default()
        };
        let hidden = size.hidden;
        let trainer = DistributedTrainer::new(config, |s| hdc_mlp(s, hidden), &data);
        let params = trainer.replica(0).param_count();
        TrainBench {
            trainer,
            recorder,
            params,
            workers: TRAIN_WORKERS,
            hidden,
            batch: size.batch,
            bound,
            seed,
            last_error: None,
            losses: Vec::new(),
        }
    }

    fn run(&mut self) -> Result<(), String> {
        let log = self.trainer.step();
        self.losses.push(log.loss);
        self.last_error = log.exchange_error.map(|e| format!("exchange failed: {e}"));
        Ok(())
    }

    fn verify(&mut self) -> Result<u64, String> {
        if let Some(e) = self.last_error.take() {
            return Err(e);
        }
        let loss = *self.losses.last().ok_or("verify before the first step")?;
        if !loss.is_finite() {
            return Err(format!("loss {loss} is not finite"));
        }
        let params = self.trainer.replica(0).flat_params();
        let print = fingerprint(FINGERPRINT_SEED, [loss.to_bits()]);
        Ok(fingerprint(print, params.iter().map(|v| v.to_bits())))
    }

    /// Training must make progress: the mean loss of the last quarter
    /// of the steps lies below that of the first quarter.
    fn verify_run(&self) -> Result<(), String> {
        let quarter = self.losses.len() / 4;
        if quarter == 0 {
            return Ok(());
        }
        let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
        let first = mean(&self.losses[..quarter]);
        let last = mean(&self.losses[self.losses.len() - quarter..]);
        if last < first {
            Ok(())
        } else {
            Err(format!(
                "loss did not decrease: first quarter {first}, last quarter {last}"
            ))
        }
    }
}

/// Sum-reduction cost per byte, as in the repo's topology experiments.
const GAMMA: f64 = 1e-10;
const TREE_ARITIES: [usize; 3] = [4, 4, 4];
/// Non-blocking edge, 4:1 at both aggregation tiers.
const TREE_OVERSUB: [u64; 3] = [4, 4, 1];
const STAR_WORKERS: usize = 8;

/// Block sizes of the sweep under a scale divisor.
#[derive(Debug, Clone, Copy)]
pub struct SweepSize {
    pub tree_bytes: u64,
    pub star_bytes: u64,
}

impl SweepSize {
    /// The seed moves both blocks by up to 1 KiB, so inputs follow the
    /// seed while every seed simulates the same packet count to within
    /// a quarter of a percent.
    fn at(scale: usize, seed: u64) -> Self {
        let jitter = seed % 1024;
        SweepSize {
            tree_bytes: 400_000 / scale as u64 + jitter,
            star_bytes: 8_000_000 / scale as u64 + jitter,
        }
    }

    fn payload_bytes(&self) -> u64 {
        let tree_workers: usize = TREE_ARITIES.iter().product();
        // Eight tree exchanges (four collectives, plain and compressed)
        // and two star exchanges.
        8 * tree_workers as u64 * self.tree_bytes + 2 * STAR_WORKERS as u64 * self.star_bytes
    }
}

/// Everything one sweep simulates: the simulated exchange time of each
/// call in seconds, in call order, and the tree's wire volume.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepResult {
    pub times_s: Vec<f64>,
    pub tree_wire_bytes: u64,
}

pub struct SweepBench {
    size: SweepSize,
    tree: TreeConfig,
    star_wa: NetworkConfig,
    star_ring: NetworkConfig,
    compression: CompressionSpec,
    pub trace: Option<Trace>,
    pub last: SweepResult,
    reference: Option<SweepResult>,
    sim_ns: u64,
    wire_bytes: u64,
}

fn span<T>(trace: &mut Option<Trace>, kind: SpanKind, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.time(kind, f),
        None => f(),
    }
}

impl SweepBench {
    fn build(seed: u64, scale: usize, traced: bool) -> Self {
        SweepBench {
            size: SweepSize::at(scale, seed),
            tree: TreeConfig::ten_gbe(&TREE_ARITIES, &TREE_OVERSUB),
            star_wa: NetworkConfig::ten_gbe(STAR_WORKERS + 1),
            star_ring: NetworkConfig::ten_gbe(STAR_WORKERS),
            // A typical measured INCEPTIONN ratio and the engines'
            // per-packet pipeline latency.
            compression: CompressionSpec::new(5.0, 1_000),
            trace: traced.then(Trace::new),
            last: SweepResult::default(),
            reference: None,
            sim_ns: 0,
            wire_bytes: 0,
        }
    }

    fn run(&mut self) {
        let SweepBench {
            size,
            tree,
            star_wa,
            star_ring,
            compression,
            trace,
            ..
        } = self;
        let flat = [TREE_ARITIES.iter().product::<usize>()];
        let bytes = size.tree_bytes;
        let mut out = SweepResult::default();
        if let Some(t) = trace {
            t.begin_op();
        }
        for spec in [None, Some(*compression)] {
            let t = span(trace, SpanKind::TreeWa, || {
                wa_exchange_on(tree, &TREE_ARITIES, bytes, GAMMA, spec)
            });
            out.times_s.push(t.total_s());
            let t = span(trace, SpanKind::TreeRingFlat, || {
                ring_exchange_on(tree, &flat, bytes, GAMMA, spec, RING_HOST_S_PER_BYTE)
            });
            out.times_s.push(t.total_s());
            let t = span(trace, SpanKind::TreeRingTiered, || {
                ring_exchange_on(
                    tree,
                    &TREE_ARITIES,
                    bytes,
                    GAMMA,
                    spec,
                    RING_HOST_S_PER_BYTE,
                )
            });
            out.times_s.push(t.total_s());
            let (t, wire) = span(trace, SpanKind::TreeSwitch, || {
                switch_reduce_exchange(tree, bytes, spec)
            });
            out.times_s.push(t.total_s());
            out.tree_wire_bytes += wire.by_tier.iter().sum::<u64>();
        }
        let t = span(trace, SpanKind::StarWa, || {
            collective::worker_aggregator_exchange(
                star_wa,
                STAR_WORKERS,
                size.star_bytes,
                GAMMA,
                Some(*compression),
            )
        });
        out.times_s.push(t.total_s());
        let t = span(trace, SpanKind::StarRing, || {
            collective::ring_exchange(
                star_ring,
                size.star_bytes,
                GAMMA,
                Some(*compression),
                RING_HOST_S_PER_BYTE,
            )
        });
        out.times_s.push(t.total_s());
        if let Some(t) = trace {
            t.end_op();
        }
        self.sim_ns += out
            .times_s
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .sum::<u64>();
        self.wire_bytes += out.tree_wire_bytes;
        self.last = out;
    }

    /// A deterministic simulator must repeat itself exactly, compress
    /// must never slow an exchange down, and every simulated time is a
    /// positive finite number.
    fn verify(&mut self) -> Result<u64, String> {
        let r = &self.last;
        if let Some(bad) = r.times_s.iter().find(|t| !(t.is_finite() && **t > 0.0)) {
            return Err(format!("simulated exchange time {bad} is not positive"));
        }
        // Calls 0..4 are the plain tree collectives, 4..8 the same
        // collectives compressed.
        for i in 0..4 {
            if r.times_s[i + 4] > r.times_s[i] {
                return Err(format!(
                    "tree collective {i}: compressed {} s is slower than plain {} s",
                    r.times_s[i + 4],
                    r.times_s[i]
                ));
            }
        }
        match &self.reference {
            None => self.reference = Some(r.clone()),
            Some(first) if first != r => {
                return Err("the sweep did not repeat its first result".to_string());
            }
            Some(_) => {}
        }
        let print = fingerprint(
            FINGERPRINT_SEED,
            r.times_s.iter().flat_map(|t| {
                let bits = t.to_bits();
                [bits as u32, (bits >> 32) as u32]
            }),
        );
        Ok(fingerprint(
            print,
            [r.tree_wire_bytes as u32, (r.tree_wire_bytes >> 32) as u32],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        assert_eq!(gradients(11, 3, 500), gradients(11, 3, 500));
        assert_ne!(gradients(11, 3, 500), gradients(12, 3, 500));
        let a = SweepSize::at(1, 11);
        let b = SweepSize::at(1, 11);
        assert_eq!((a.tree_bytes, a.star_bytes), (b.tree_bytes, b.star_bytes));
        assert_ne!(a.tree_bytes, SweepSize::at(1, 12).tree_bytes);
    }

    /// Every workload, at smoke size: ops pass their own output check,
    /// and a rebuilt workload repeats the first one's fingerprints.
    #[test]
    fn every_workload_runs_checks_and_repeats_at_smoke_size() {
        for spec in specs() {
            let prints = |traced: bool| -> Vec<u64> {
                let mut bench = Bench::build(&spec, DEFAULT_SEED, SMOKE_SCALE, traced);
                (0..3)
                    .map(|_| {
                        bench.prepare();
                        bench.run().expect(spec.name);
                        bench.verify().expect(spec.name)
                    })
                    .collect()
            };
            let untraced = prints(false);
            assert_eq!(untraced, prints(true), "{}", spec.name);
            assert_ne!(untraced[0], 0, "{}", spec.name);
        }
    }

    #[test]
    fn a_wrong_sum_fails_the_output_check() {
        let spec = find("ring-none-nic").expect("listed");
        let Bench::Exchange(mut bench) = Bench::build(&spec, 3, SMOKE_SCALE, false) else {
            panic!("an exchange workload");
        };
        bench.prepare();
        bench.run().expect("a clean fabric delivers");
        assert!(bench.verify().is_ok());
        bench.work[1][17] += 1e-3;
        let err = bench.verify().expect_err("the check must notice");
        assert!(err.contains("worker 1 element 17"), "{err}");
    }
}
