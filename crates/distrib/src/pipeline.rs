//! The chunked executor: the one implementation of every exchange
//! schedule.
//!
//! Each strategy — the ring of Algorithm 1, its topology-tree
//! composition, the worker-aggregator baseline, and the switch-resident
//! reduce — is a fixed sequence of **legs** (one sender's block moving
//! to one receiver, folded or overwritten there). A [`PipelineConfig`]
//! says how a leg crosses the fabric: cut into `chunk_values`-sized
//! chunks with up to `depth` encoded frames in flight, so chunk `k+1`
//! encodes while chunk `k` is on the wire and chunk `k-1` decodes — the
//! software shape of the paper's NIC datapath, where compression
//! overlaps DMA and transmission. *Whole-block* exchange is not a
//! second code path but a value of that config — one chunk per leg, one
//! frame in flight — which [`Exchange::new`](crate::Exchange::new) runs
//! until [`Exchange::pipelined`](crate::Exchange::pipelined) arms
//! another.
//!
//! Frames are checked out of a [`FrameArena`] and filled through
//! [`Fabric::encode_into`], so an exchange that reuses its scratch
//! (every [`Exchange`](crate::Exchange) does) allocates nothing in steady state: at most `depth` frame bodies
//! exist, recycled from leg to leg. `tests/alloc_gate.rs` pins that for
//! the NIC-transport ring, chunked and whole-leg alike.
//!
//! # Chunking never changes a value
//!
//! Every codec the fabric carries quantizes per element, so encoding a
//! slice chunk by chunk produces exactly the values of encoding it
//! whole (packet framing differs only in wire *accounting*). Folds are
//! elementwise too, and a chunked leg touches the same disjoint element
//! ranges in the same per-element order as the whole leg. So every
//! schedule here is **bit-identical across configs** for every
//! [`CodecSelection`] — ragged final chunks included — which
//! `tests/pipeline_differential.rs` pins for all four strategies
//! against executor-independent references.
//!
//! # Graceful degradation
//!
//! A delivery that fails *recoverably* (CRC miss, decode failure from a
//! poisoned stream, exhausted link retransmit budget) is re-encoded
//! [`PayloadKind::Plain`] from the sender's still-intact values and
//! redelivered, chunk by chunk. Repeated failures renegotiate the leg
//! down to plain through [`Fabric::note_degraded`]: after
//! [`RENEGOTIATE_AFTER`] consecutive failures per ring sender (the
//! state persists across that sender's legs), at the first failure of a
//! point-to-point leg. The switch gather has no retransmission — a
//! failed contribution restarts that chunk's gather plain.
//! Non-recoverable failures — a frame on the wrong transport, a crashed
//! endpoint — surface as the typed error so the trainer can re-stitch.
//!
//! [`CodecSelection`]: crate::fabric::CodecSelection

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use inceptionn_netsim::Topology;

use crate::fabric::{Fabric, FabricError, FrameArena, PayloadKind, SwitchAccum, WireFrame};
use crate::faults::RENEGOTIATE_AFTER;
use crate::ring::{apply_block, assert_uniform, block_range};

/// How an exchange cuts legs into chunks and how many encoded frames it
/// keeps in flight per leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Values per pipeline chunk. Legs shorter than one chunk move
    /// whole; the final chunk of a longer leg is ragged.
    pub chunk_values: usize,
    /// Encoded frames in flight per leg before the oldest is delivered
    /// (the pipeline depth). `1` degenerates to encode-then-deliver.
    pub depth: usize,
}

impl PipelineConfig {
    /// A chunk size that keeps several chunks in flight for typical
    /// layer-sized blocks while staying far above per-frame overheads.
    pub const DEFAULT_CHUNK_VALUES: usize = 32 * 1024;

    /// Three stages in flight: encode, wire, decode.
    pub const DEFAULT_DEPTH: usize = 3;

    /// Whole-block exchange: every leg is one chunk, delivered before
    /// the next leg encodes. What [`Exchange::new`](crate::Exchange::new)
    /// runs until [`pipelined`](crate::Exchange::pipelined) arms a
    /// chunked config.
    pub(crate) const WHOLE_LEG: PipelineConfig = PipelineConfig {
        chunk_values: usize::MAX,
        depth: 1,
    };

    /// A config with the given chunk size and the default depth.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_values` is zero.
    pub fn with_chunk(chunk_values: usize) -> Self {
        assert!(chunk_values > 0, "pipeline chunks must hold values");
        PipelineConfig {
            chunk_values,
            depth: Self::DEFAULT_DEPTH,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_values: Self::DEFAULT_CHUNK_VALUES,
            depth: Self::DEFAULT_DEPTH,
        }
    }
}

/// The recovery ladder's state for one sender: consecutive recoverable
/// failures, and whether its sends have been renegotiated down to plain.
#[derive(Debug, Clone, Copy)]
struct Ladder {
    failures: usize,
    degraded: bool,
    /// Consecutive failures that trigger the renegotiation.
    renegotiate_after: usize,
}

impl Ladder {
    /// A clean ladder. A ring sender's outlives the leg, so only
    /// [`RENEGOTIATE_AFTER`] repeated failures renegotiate; a
    /// point-to-point leg's lives for that leg, and its first failure
    /// (`1`) renegotiates the rest of it.
    fn new(renegotiate_after: usize) -> Self {
        Ladder {
            failures: 0,
            degraded: false,
            renegotiate_after,
        }
    }
}

/// Reusable working state of the executor: the frame arena, the
/// in-flight windows, the ring senders' ladders, and the reduction
/// accumulator. An [`Exchange`](crate::Exchange) holds one across
/// iterations, which is what makes the steady state allocation-free.
#[derive(Debug, Default)]
pub(crate) struct PipelineScratch {
    /// Recycled wire frames.
    arena: FrameArena,
    /// The bounded in-flight window of a point-to-point leg.
    inflight: VecDeque<(WireFrame, Range<usize>)>,
    /// The bounded in-flight window of a switch gather (frame plus the
    /// contributing worker's index).
    gather_inflight: VecDeque<(WireFrame, usize)>,
    /// One ladder per ring sender, reset at the start of every ring.
    ladders: Vec<Ladder>,
    /// Reduction accumulator (aggregator/switch sum, tree broadcast
    /// buffer).
    sum: Vec<f32>,
}

/// Splits `range` into consecutive chunks of `chunk` elements; the last
/// chunk is ragged. An empty range yields no chunks. Saturating, so a
/// chunk of `usize::MAX` (the whole-leg config) is one chunk.
fn chunk_ranges(range: Range<usize>, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = chunk.max(1);
    let Range { start, end } = range;
    std::iter::successors((start < end).then_some(start), move |&s| {
        Some(s.saturating_add(chunk)).filter(|&next| next < end)
    })
    .map(move |s| s..s.saturating_add(chunk).min(end))
}

/// Which latency a chunk's transfer is charged: a full point-to-point
/// link, or the downlink half-leg of the switch-resident aggregation
/// path (the uplink half is charged inline by the switch gather, which
/// has its own fold-and-restart flow).
#[derive(Debug, Clone, Copy)]
enum Charge {
    Link,
    FromSwitch,
}

/// The fixed attributes of one leg: who sends to whom, as what payload
/// kind, charged how.
#[derive(Debug, Clone, Copy)]
struct Leg {
    src: usize,
    dst: usize,
    kind: PayloadKind,
    charge: Charge,
}

impl Leg {
    fn charge(&self, fabric: &mut dyn Fabric, frame: &WireFrame) {
        match self.charge {
            Charge::Link => fabric.charge(self.src, self.dst, frame),
            Charge::FromSwitch => fabric.charge_from_switch(self.dst, frame),
        }
    }
}

/// One leg of an exchange: `values` at endpoint `leg.src` stream to
/// endpoint `leg.dst` chunk by chunk with up to `cfg.depth` frames in
/// flight, each delivered chunk handed to `apply` with its element
/// range. The one recovery ladder: a recoverably failed chunk is
/// re-encoded plain from `values` (still intact — no schedule lets a
/// receiver write the block its sender is sending) and redelivered
/// once; `ladder.renegotiate_after` consecutive failures degrade the
/// sender's remaining chunks to plain.
#[allow(clippy::too_many_arguments)]
fn pipelined_leg(
    fabric: &mut dyn Fabric,
    arena: &mut FrameArena,
    inflight: &mut VecDeque<(WireFrame, Range<usize>)>,
    cfg: PipelineConfig,
    leg: Leg,
    values: &[f32],
    ladder: &mut Ladder,
    apply: &mut dyn FnMut(Range<usize>, &[f32]),
) -> Result<(), FabricError> {
    // A failed prior leg may have left frames behind; they are dead.
    inflight.clear();
    let drain = |fabric: &mut dyn Fabric,
                 arena: &mut FrameArena,
                 ladder: &mut Ladder,
                 frame: WireFrame,
                 r: Range<usize>,
                 apply: &mut dyn FnMut(Range<usize>, &[f32])|
     -> Result<(), FabricError> {
        let outcome = fabric.deliver(leg.dst, &frame, &mut |rb| apply(r.clone(), rb));
        arena.recycle(frame);
        match outcome {
            Ok(()) => {
                ladder.failures = 0;
                Ok(())
            }
            Err(e) if e.is_recoverable() => {
                ladder.failures += 1;
                if ladder.failures >= ladder.renegotiate_after && !ladder.degraded {
                    ladder.degraded = true;
                    fabric.note_degraded(leg.src, leg.dst);
                }
                let mut plain = arena.checkout();
                fabric.encode_into(leg.src, &values[r.clone()], PayloadKind::Plain, &mut plain);
                leg.charge(fabric, &plain);
                let retried = fabric.deliver(leg.dst, &plain, &mut |rb| apply(r.clone(), rb));
                arena.recycle(plain);
                retried
            }
            Err(e) => Err(e),
        }
    };
    for r in chunk_ranges(0..values.len(), cfg.chunk_values) {
        let mut frame = arena.checkout();
        let kind = if ladder.degraded {
            PayloadKind::Plain
        } else {
            leg.kind
        };
        fabric.encode_into(leg.src, &values[r.clone()], kind, &mut frame);
        leg.charge(fabric, &frame);
        inflight.push_back((frame, r));
        if inflight.len() >= cfg.depth.max(1) {
            if let Some((frame, r)) = inflight.pop_front() {
                drain(fabric, arena, ladder, frame, r, apply)?;
            }
        }
    }
    while let Some((frame, r)) = inflight.pop_front() {
        drain(fabric, arena, ladder, frame, r, apply)?;
    }
    Ok(())
}

/// `(&xs[a], &mut xs[b])` for `a != b`.
fn pair_mut<T>(xs: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    if a < b {
        let (lo, hi) = xs.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

/// In-place ring all-reduce over one gradient vector per worker
/// (Algorithm 1): `endpoints[i]` is worker `i`'s NIC and the ring runs
/// `endpoints[i] → endpoints[(i+1) % n]`. After the call every
/// `workers[i]` holds the elementwise sum of all inputs.
///
/// Chunking happens **within** each leg at the schedule's fixed block
/// boundaries, so each element is folded along the same ring path in
/// the same order whatever `cfg` says. Without compression the result
/// is bit-exact and identical across workers.
///
/// # Errors
///
/// Returns [`FabricError`] if a chunk's delivery fails past the
/// recovery ladder.
///
/// # Panics
///
/// Panics if the worker vectors differ in length, `workers` is empty,
/// `endpoints.len() != workers.len()`, or an endpoint is out of range.
pub(crate) fn ring_schedule(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    endpoints: &[usize],
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<(), FabricError> {
    let n = workers.len();
    let len = assert_uniform(workers);
    assert_eq!(endpoints.len(), n, "one endpoint per worker");
    assert!(
        endpoints.iter().all(|&e| e < fabric.endpoints()),
        "endpoint out of range for fabric with {} endpoints",
        fabric.endpoints()
    );
    if n == 1 || len == 0 {
        return Ok(());
    }
    scratch.ladders.clear();
    scratch.ladders.resize(n, Ladder::new(RENEGOTIATE_AFTER));
    // Steps 0..n−1 aggregate (reduce-scatter): node i sends
    // blk[(i−step) mod n] and its successor folds it. Steps n−1..2(n−1)
    // propagate (all-gather): node i owns the fully reduced
    // blk[(i+1) mod n], sends blk[(i+1−(step−(n−1))) mod n], and its
    // successor overwrites its copy. The block a node receives at a step
    // is never a block any node sends at that step, so streaming each
    // sender's leg to completion is value-identical to the simultaneous
    // step the paper draws.
    for step in 0..2 * (n - 1) {
        let fold = step < n - 1;
        for i in 0..n {
            let k = if fold {
                (i + n - step) % n
            } else {
                (i + 2 * n - step) % n
            };
            let block = block_range(len, n, k);
            let recv = (i + 1) % n;
            let (from, to) = pair_mut(workers, i, recv);
            let to = &mut to[block.clone()];
            pipelined_leg(
                fabric,
                &mut scratch.arena,
                &mut scratch.inflight,
                cfg,
                Leg {
                    src: endpoints[i],
                    dst: endpoints[recv],
                    kind: PayloadKind::Gradient,
                    charge: Charge::Link,
                },
                &from[block],
                &mut scratch.ladders[i],
                &mut |r, rb| apply_block(&mut to[r], rb, fold),
            )?;
        }
    }
    Ok(())
}

/// Bottom-up reduction over one topology subtree: recursively reduce
/// each child, then ring all-reduce over the child leaders' gradient
/// slots in place. Returns the subtree's leader endpoint; on return
/// every child leader of this subtree holds the subtree sum.
fn reduce_up(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    pos: &BTreeMap<usize, usize>,
    topo: &Topology,
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<usize, FabricError> {
    match topo {
        Topology::Worker(w) => Ok(*w),
        Topology::Group(children) => {
            let mut leaders = Vec::with_capacity(children.len());
            for child in children {
                leaders.push(reduce_up(fabric, workers, pos, child, cfg, scratch)?);
            }
            if leaders.len() > 1 {
                // The ring needs a contiguous `&mut [Vec<f32>]`, so the
                // leaders' slots are taken out and restored around the
                // call (even on error, so a failed exchange leaves every
                // gradient where it was).
                let mut grads: Vec<Vec<f32>> = leaders
                    .iter()
                    .map(|&e| std::mem::take(&mut workers[pos[&e]]))
                    .collect();
                let outcome = ring_schedule(fabric, &mut grads, &leaders, cfg, scratch);
                for (&e, g) in leaders.iter().zip(grads) {
                    workers[pos[&e]] = g;
                }
                outcome?;
            }
            Ok(leaders[0])
        }
    }
}

/// Top-down broadcast into one subtree whose leader already holds the
/// sum: the leader forwards it to every other child leader (one
/// compressible gradient hop each) and applies the wire round trip to
/// its own slot, then each child group recurses. Worker leaves are
/// no-ops: a worker reached here already received the sum from its
/// group leader.
fn spread_into(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    pos: &BTreeMap<usize, usize>,
    topo: &Topology,
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<(), FabricError> {
    let Topology::Group(children) = topo else {
        return Ok(());
    };
    let leader = topo.leader();
    // The broadcast source must be snapshotted (the leader's own slot is
    // overwritten by its self round trip below), but into the scratch
    // accumulator rather than a fresh clone.
    let mut sum = std::mem::take(&mut scratch.sum);
    sum.clear();
    sum.extend_from_slice(&workers[pos[&leader]]);
    for child in children {
        let to = child.leader();
        if to == leader {
            continue;
        }
        let slot = &mut workers[pos[&to]];
        pipelined_leg(
            fabric,
            &mut scratch.arena,
            &mut scratch.inflight,
            cfg,
            Leg {
                src: leader,
                dst: to,
                kind: PayloadKind::Gradient,
                charge: Charge::Link,
            },
            &sum,
            &mut Ladder::new(1),
            &mut |r, rb| apply_block(&mut slot[r], rb, false),
        )?;
    }
    // The leader applies the same wire round trip locally (bit-identical
    // to receiving its own frame) instead of a phantom self-transfer
    // that would inflate the wire/packet counters with traffic that
    // never crosses a link.
    let slot = &mut workers[pos[&leader]];
    for r in chunk_ranges(0..sum.len(), cfg.chunk_values) {
        let rt = fabric.self_roundtrip(leader, &sum[r.clone()])?;
        apply_block(&mut slot[r], &rt, false);
    }
    // Return the buffer before recursing so every level reuses it.
    scratch.sum = sum;
    for child in children {
        spread_into(fabric, workers, pos, child, cfg, scratch)?;
    }
    Ok(())
}

/// Starts the broadcast below the topmost level at which a leader ring
/// actually ran: after that ring every child leader already holds the
/// sum, so the descent begins inside each child subtree. Single-child
/// groups contribute no ring of their own and are skipped through.
fn spread_from_root(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    pos: &BTreeMap<usize, usize>,
    topo: &Topology,
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<(), FabricError> {
    match topo {
        Topology::Worker(_) => Ok(()),
        Topology::Group(children) if children.len() == 1 => {
            spread_from_root(fabric, workers, pos, &children[0], cfg, scratch)
        }
        Topology::Group(children) => {
            for child in children {
                spread_into(fabric, workers, pos, child, cfg, scratch)?;
            }
            Ok(())
        }
    }
}

/// Topology-tree composition of the ring exchange: rings run bottom-up
/// at every level of `topo` (members of each group first, then group
/// leaders one tier up, and so on to the root), and the global sum is
/// broadcast back down leader-to-leader. The two-level hierarchy of
/// Fig. 1(c) is the `depth == 2` special case.
///
/// `workers[k]` is the gradient of topology leaf `topo.workers()[k]`,
/// and that leaf id is used as the fabric endpoint.
///
/// Without compression the result equals the flat ring bit-for-bit on
/// every worker. With compression, workers inside one group stay
/// bit-identical to their group leader; divergence across groups is
/// bounded by the codec's error bound per tier.
///
/// # Errors
///
/// Returns [`FabricError`] if any hop's delivery fails past recovery.
///
/// # Panics
///
/// Panics if `workers.len()` differs from the topology's leaf count,
/// the vectors differ in length, or a leaf id is out of range.
pub(crate) fn tree_schedule(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    topo: &Topology,
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<(), FabricError> {
    let order = topo.workers();
    assert_eq!(
        order.len(),
        workers.len(),
        "one gradient vector per topology leaf"
    );
    assert_uniform(workers);
    assert!(
        order.iter().all(|&e| e < fabric.endpoints()),
        "topology leaf out of range for a fabric with {} endpoints",
        fabric.endpoints()
    );
    let pos: BTreeMap<usize, usize> = order.iter().enumerate().map(|(k, &e)| (e, k)).collect();
    reduce_up(fabric, workers, &pos, topo, cfg, scratch)?;
    spread_from_root(fabric, workers, &pos, topo, cfg, scratch)
}

/// The conventional worker-aggregator exchange (Fig. 2): every worker's
/// gradient is shipped to the aggregator endpoint (the fabric's
/// endpoint `workers.len()`), summed there in worker order, and the sum
/// is returned to every worker.
///
/// The upward gradient leg is [`PayloadKind::Gradient`] — compressible
/// if the fabric compresses. The downward leg is sent as
/// [`PayloadKind::Plain`] and is **never** compressed: in the real
/// system it carries updated weights, which the paper shows do not
/// tolerate lossy compression (Fig. 4) — the structural reason WA+C
/// gains less than INC+C (Fig. 12).
///
/// # Errors
///
/// Returns [`FabricError`] if either leg fails past the recovery
/// ladder.
///
/// # Panics
///
/// Panics if `workers` is empty, the vectors differ in length, or the
/// fabric has fewer than `workers.len() + 1` endpoints.
pub(crate) fn worker_aggregator_schedule(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<(), FabricError> {
    let n = workers.len();
    let len = assert_uniform(workers);
    let aggregator = n;
    assert!(
        fabric.endpoints() > aggregator,
        "fabric needs {n} worker endpoints plus an aggregator endpoint"
    );
    let mut sum = std::mem::take(&mut scratch.sum);
    sum.clear();
    sum.resize(len, 0.0);
    for (i, w) in workers.iter().enumerate() {
        pipelined_leg(
            fabric,
            &mut scratch.arena,
            &mut scratch.inflight,
            cfg,
            Leg {
                src: i,
                dst: aggregator,
                kind: PayloadKind::Gradient,
                charge: Charge::Link,
            },
            w,
            &mut Ladder::new(1),
            &mut |r, rb| apply_block(&mut sum[r], rb, true),
        )?;
    }
    for (i, w) in workers.iter_mut().enumerate() {
        pipelined_leg(
            fabric,
            &mut scratch.arena,
            &mut scratch.inflight,
            cfg,
            Leg {
                src: aggregator,
                dst: i,
                kind: PayloadKind::Plain,
                charge: Charge::Link,
            },
            &sum,
            &mut Ladder::new(1),
            &mut |r, rb| apply_block(&mut w[r], rb, false),
        )?;
    }
    scratch.sum = sum;
    Ok(())
}

/// In-place all-reduce through a switch-resident reduce unit:
/// `endpoints[k]` is worker `k`'s NIC. Gather: for each chunk range,
/// every worker's contribution is encoded, charged one **uplink
/// half-leg**, and folded into the switch accumulator in worker order —
/// bit-identical per element to the host aggregator's fold — with the
/// in-flight window overlapping worker `k+1`'s encode with worker `k`'s
/// fold. Distribute: the folded sum streams down every member port as a
/// plain (incompressible) frame, charged one **downlink half-leg** each.
///
/// The reduce unit has no retransmission protocol: a contribution that
/// fails recoverably leaves a partial fold behind, so **that chunk's**
/// gather restarts from a zeroed accumulator with plain frames (and the
/// failing endpoint's leg is noted degraded). Modeling shortcut on the
/// distribute leg: the plain frame is encoded at the receiving endpoint
/// — the bytes equal what the switch would send, and the wire counters
/// attribute the downlink volume to the endpoint that owns the link.
///
/// # Errors
///
/// Returns [`FabricError`] if a fold or delivery fails past recovery.
///
/// # Panics
///
/// Panics if `workers` is empty, the gradients differ in length,
/// `endpoints.len() != workers.len()`, or an endpoint is out of range.
pub(crate) fn switch_schedule(
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    endpoints: &[usize],
    cfg: PipelineConfig,
    scratch: &mut PipelineScratch,
) -> Result<(), FabricError> {
    let n = workers.len();
    let len = assert_uniform(workers);
    assert_eq!(endpoints.len(), n, "one endpoint per worker");
    assert!(
        endpoints.iter().all(|&e| e < fabric.endpoints()),
        "endpoint out of range for a fabric with {} endpoints",
        fabric.endpoints()
    );
    let arena = &mut scratch.arena;
    let mut sum = std::mem::take(&mut scratch.sum);
    sum.clear();
    sum.resize(len, 0.0);
    let mut inflight = std::mem::take(&mut scratch.gather_inflight);
    for r in chunk_ranges(0..len, cfg.chunk_values) {
        // The fabric picks the accumulator shape per chunk (dense lanes,
        // or the sketch unit folding compressed frames natively); the
        // plain restart always re-gathers into a fresh dense accumulator
        // so the exact path never touches a codec.
        let mut accum = fabric.switch_accum(r.len());
        let mut plain_restart = false;
        'gather: loop {
            if plain_restart {
                accum = SwitchAccum::dense(r.len());
            }
            let mut fold =
                |fabric: &mut dyn Fabric, arena: &mut FrameArena, frame: WireFrame, k: usize| {
                    let outcome = fabric.switch_fold_into(&mut accum, &frame);
                    arena.recycle(frame);
                    outcome.map_err(|e| (e, k))
                };
            let mut failed = None;
            for (k, w) in workers.iter().enumerate() {
                let kind = if plain_restart {
                    PayloadKind::Plain
                } else {
                    PayloadKind::Gradient
                };
                let mut frame = arena.checkout();
                fabric.encode_into(endpoints[k], &w[r.clone()], kind, &mut frame);
                fabric.charge_to_switch(endpoints[k], &frame);
                inflight.push_back((frame, k));
                if inflight.len() >= cfg.depth.max(1) {
                    if let Some((frame, k)) = inflight.pop_front() {
                        if let Err(e) = fold(fabric, arena, frame, k) {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            }
            if failed.is_none() {
                while let Some((frame, k)) = inflight.pop_front() {
                    if let Err(e) = fold(fabric, arena, frame, k) {
                        failed = Some(e);
                        break;
                    }
                }
            }
            // Frames still in flight when a fold fails are abandoned to
            // the arena: the chunk restarts from a zeroed accumulator.
            for (frame, _) in inflight.drain(..) {
                arena.recycle(frame);
            }
            match failed {
                None => break,
                Some((e, k)) if e.is_recoverable() && !plain_restart => {
                    fabric.note_degraded(endpoints[k], endpoints[k]);
                    plain_restart = true;
                    continue 'gather;
                }
                Some((e, _)) => return Err(e),
            }
        }
        accum.finish_into(&mut sum[r.clone()]);
    }
    scratch.gather_inflight = inflight;
    for (k, w) in workers.iter_mut().enumerate() {
        let e = endpoints[k];
        pipelined_leg(
            fabric,
            &mut scratch.arena,
            &mut scratch.inflight,
            cfg,
            Leg {
                src: e,
                dst: e,
                kind: PayloadKind::Plain,
                charge: Charge::FromSwitch,
            },
            &sum,
            &mut Ladder::new(1),
            &mut |r, rb| apply_block(&mut w[r], rb, false),
        )?;
    }
    scratch.sum = sum;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricBuilder, TransportKind};
    use crate::{Exchange, ExchangeStrategy};
    use inceptionn_compress::ErrorBound;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
            .collect()
    }

    fn build(kind: TransportKind, endpoints: usize, bound: Option<ErrorBound>) -> Box<dyn Fabric> {
        FabricBuilder::new(endpoints)
            .transport(kind)
            .compression(bound)
            .build()
    }

    /// One ring all-reduce of `grads` over endpoints `0..n` under `cfg`.
    fn ring(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>], cfg: PipelineConfig) {
        Exchange::new(grads.len())
            .pipelined(cfg)
            .run_all(ExchangeStrategy::Ring, fabric, grads)
            .unwrap();
    }

    /// Chunk sizes that exercise single-chunk legs, aligned chunks, and
    /// ragged final chunks against the 1000-element workloads below.
    const CHUNKS: [usize; 3] = [64, 256, 4096];

    /// Whole-leg and chunked runs of `exchange` under `strategy` land on
    /// the same bits, for every chunk size in [`CHUNKS`].
    fn assert_chunking_is_invisible(
        strategy: ExchangeStrategy,
        exchange: impl Fn() -> Exchange,
        workers: usize,
        endpoints: usize,
        kinds: &[TransportKind],
        seed: u64,
    ) {
        for &kind in kinds {
            for bound in [None, Some(ErrorBound::pow2(10))] {
                let grads = random_grads(workers, 1000, seed);
                let mut whole = grads.clone();
                exchange()
                    .run_all(strategy, build(kind, endpoints, bound).as_mut(), &mut whole)
                    .unwrap();
                for chunk in CHUNKS {
                    let mut piped = grads.clone();
                    exchange()
                        .pipelined(PipelineConfig::with_chunk(chunk))
                        .run_all(strategy, build(kind, endpoints, bound).as_mut(), &mut piped)
                        .unwrap();
                    assert_eq!(whole, piped, "{kind:?} bound {bound:?} chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_with_ragged_tail() {
        let got: Vec<_> = chunk_ranges(10..45, 16).collect();
        assert_eq!(got, vec![10..26, 26..42, 42..45]);
        assert_eq!(chunk_ranges(7..7, 16).count(), 0);
        // Huge chunks (the whole-leg config) must not overflow, from a
        // zero or a non-zero start.
        let whole: Vec<_> = chunk_ranges(0..45, usize::MAX).collect();
        assert_eq!(whole, vec![0..45]);
        let offset: Vec<_> = chunk_ranges(10..45, usize::MAX).collect();
        assert_eq!(offset, vec![10..45]);
        let top: Vec<_> = chunk_ranges(usize::MAX - 3..usize::MAX, 2).collect();
        assert_eq!(
            top,
            vec![usize::MAX - 3..usize::MAX - 1, usize::MAX - 1..usize::MAX]
        );
    }

    #[test]
    fn pipelined_ring_matches_unpipelined_bit_exactly() {
        assert_chunking_is_invisible(
            ExchangeStrategy::Ring,
            || Exchange::new(4),
            4,
            4,
            &[TransportKind::InProcess, TransportKind::Nic],
            41,
        );
    }

    #[test]
    fn pipelined_ring_moves_the_same_payload_in_more_frames() {
        let grads = random_grads(4, 1000, 42);
        let mut whole = grads.clone();
        let mut a = build(TransportKind::Nic, 4, Some(ErrorBound::pow2(10)));
        ring(a.as_mut(), &mut whole, PipelineConfig::WHOLE_LEG);
        let mut piped = grads.clone();
        let mut b = build(TransportKind::Nic, 4, Some(ErrorBound::pow2(10)));
        ring(b.as_mut(), &mut piped, PipelineConfig::with_chunk(100));
        assert_eq!(a.stats().payload_bytes, b.stats().payload_bytes);
        assert!(b.stats().transfers > a.stats().transfers);
    }

    #[test]
    fn pipelined_tree_matches_unpipelined_bit_exactly() {
        let topo = Topology::uniform(&[2, 2, 2]);
        assert_chunking_is_invisible(
            ExchangeStrategy::Tree,
            || Exchange::new(8).with_topology(topo.clone()),
            8,
            8,
            &[TransportKind::Nic],
            43,
        );
    }

    #[test]
    fn pipelined_aggregator_matches_unpipelined_bit_exactly() {
        assert_chunking_is_invisible(
            ExchangeStrategy::WorkerAggregator,
            || Exchange::new(4),
            4,
            5,
            &[TransportKind::Nic],
            44,
        );
    }

    #[test]
    fn pipelined_switch_matches_unpipelined_bit_exactly() {
        assert_chunking_is_invisible(
            ExchangeStrategy::SwitchReduce,
            || Exchange::new(5),
            5,
            5,
            &[TransportKind::Nic],
            45,
        );
    }

    #[test]
    fn pipelined_ring_recovers_bit_exactly_under_injected_faults() {
        use crate::faults::FaultPlan;
        let grads = random_grads(4, 800, 46);
        let cfg = PipelineConfig::with_chunk(100);
        let mut clean = grads.clone();
        ring(build(TransportKind::Nic, 4, None).as_mut(), &mut clean, cfg);
        let mut faulty = grads.clone();
        let mut b = FabricBuilder::new(4)
            .transport(TransportKind::Nic)
            .faults(FaultPlan::new(42).drop_prob(0.05).corrupt_prob(0.02))
            .build();
        ring(b.as_mut(), &mut faulty, cfg);
        assert_eq!(clean, faulty, "recovered pipelined exchange must be exact");
        assert!(b.fault_stats().retransmits > 0, "faults must have fired");
    }

    #[test]
    fn pipelined_switch_restarts_only_the_failed_chunk_plain() {
        // A fold failure restarts *that chunk's* gather from a zeroed
        // accumulator with plain frames; every other chunk still folds
        // compressed. So the failed chunk's range must carry the exact
        // sum while the rest matches the clean compressed exchange.
        let grads = random_grads(3, 600, 47);
        let mut exact = vec![0.0f32; 600];
        for w in &grads {
            for (s, v) in exact.iter_mut().zip(w) {
                *s += v;
            }
        }
        let mut compressed = grads.clone();
        let mut clean = build(TransportKind::Nic, 3, Some(ErrorBound::pow2(10)));
        Exchange::new(3)
            .run_all(
                ExchangeStrategy::SwitchReduce,
                clean.as_mut(),
                &mut compressed,
            )
            .unwrap();

        let mut fabric = crate::switch::tests::PoisonedSwitch {
            inner: build(TransportKind::Nic, 3, Some(ErrorBound::pow2(10))),
            remaining_failures: 1,
            degraded: Vec::new(),
        };
        let mut piped = grads.clone();
        Exchange::new(3)
            .pipelined(PipelineConfig::with_chunk(100))
            .run_all(ExchangeStrategy::SwitchReduce, &mut fabric, &mut piped)
            .unwrap();
        for w in &piped {
            assert_eq!(&w[..100], &exact[..100], "failed chunk must refold plain");
            assert_eq!(
                &w[100..],
                &compressed[0][100..],
                "untouched chunks must keep the compressed fold"
            );
        }
        assert_eq!(fabric.degraded, vec![(0, 0)], "the failing leg was noted");
    }

    #[test]
    fn depth_one_degenerates_to_stop_and_wait_with_identical_values() {
        let grads = random_grads(3, 500, 48);
        let run = |depth: usize| {
            let mut g = grads.clone();
            let mut fabric = build(TransportKind::Nic, 3, Some(ErrorBound::pow2(10)));
            let cfg = PipelineConfig {
                chunk_values: 64,
                depth,
            };
            ring(fabric.as_mut(), &mut g, cfg);
            (g, fabric.stats().transfers)
        };
        assert_eq!(run(3), run(1));
    }
}
