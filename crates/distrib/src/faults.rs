//! Deterministic fault injection for the gradient-exchange fabric.
//!
//! Real datacenter fabrics lose, corrupt, and delay traffic; the
//! INCEPTIONN co-design only pays off if the compressed exchange
//! *recovers* from that without stalling training. This module is the
//! adversary: a seeded [`FaultPlan`] describes per-link packet drops,
//! in-flight bit corruption, packet reordering, compressed-stream
//! poisoning, link slowdown windows, and straggler uplinks;
//! [`FaultyFabric`] decorates any [`Fabric`] stack and perturbs frames
//! on delivery according to the plan. Endpoint liveness (crashes and
//! the joins that revive them) comes from a typed
//! [`MembershipSchedule`] armed through `FabricBuilder::membership`.
//!
//! Everything is deterministic by construction. Fault draws are pure
//! functions of `(seed, src, dst, per-link sequence number, salt)`
//! through a splitmix64-style mixer — no global RNG state — so the same
//! plan produces the same fault schedule regardless of thread
//! interleaving, and two runs of a seeded soak are byte-identical. The
//! recovery machinery layered on top:
//!
//! * frame-level CRC-32 tags ([`WireFrame`]) catch corruption and
//!   reordering before any bytes reach a decoder;
//! * a bounded retransmit/backoff loop in [`FaultyFabric::deliver`]
//!   absorbs drops and detected corruption, surfacing
//!   [`FabricError::RetriesExhausted`] only past the budget;
//! * stream poisoning survives the CRC gate (it models damage *before*
//!   framing) and surfaces as a typed decode error, which the exchange
//!   strategies answer by renegotiating the leg to the uncompressed
//!   encoding after [`RENEGOTIATE_AFTER`] consecutive failures;
//! * a crashed endpoint turns every touching delivery into
//!   [`FabricError::EndpointDown`], which the trainer answers by
//!   re-stitching the ring around the survivor set.

use std::fmt;

use inceptionn_netsim::{LinkRateSchedule, RateWindow};
use inceptionn_nicsim::FlatPayload;
use obs::{labels, Domain, Event, EventBuf, Recorder};

use crate::fabric::{
    Fabric, FabricError, FabricStats, FrameBody, PayloadKind, SwitchAccum, WireFrame,
};
use crate::membership::{MembershipEvent, MembershipSchedule};

/// Consecutive recoverable delivery failures from one sender before an
/// exchange strategy renegotiates that leg down to the uncompressed
/// encoding (the degradation ladder's only rung below retransmission).
pub const RENEGOTIATE_AFTER: usize = 3;

/// Fault probabilities for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a transmission attempt is dropped in flight.
    pub drop_prob: f64,
    /// Probability a frame arrives with one payload bit flipped (caught
    /// by the CRC gate, recovered by retransmission).
    pub corrupt_prob: f64,
    /// Probability a compressed frame's encoded stream is damaged in a
    /// way that passes framing but fails decode (truncation before the
    /// CRC was stamped). Ignored for uncompressed frames, which have no
    /// decode step to desynchronize.
    pub poison_prob: f64,
    /// Probability a frame's packets arrive out of order (caught by the
    /// CRC gate, which covers packet order).
    pub reorder_prob: f64,
}

impl LinkFaults {
    fn is_clean(&self) -> bool {
        self.drop_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.poison_prob <= 0.0
            && self.reorder_prob <= 0.0
    }
}

/// A seeded, deterministic schedule of faults for a whole fabric.
///
/// Built fluently and handed to `FabricBuilder::faults`:
///
/// ```
/// use inceptionn_distrib::faults::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .drop_prob(0.01)
///     .corrupt_prob(0.001)
///     .straggler(2, 4.0);
/// assert!(plan.link_faults(0, 1).drop_prob > 0.0);
/// ```
///
/// Endpoint crashes are no longer part of the plan: schedule them (and
/// the joins/leaves around them) through a
/// [`MembershipSchedule`] on
/// `FabricBuilder::membership` or `TrainerConfig::membership`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    per_link: Vec<((usize, usize), LinkFaults)>,
    max_retransmits: u32,
    backoff_base_ns: u64,
    stragglers: Vec<(usize, f64)>,
    slowdowns: Vec<(usize, RateWindow)>,
}

impl FaultPlan {
    /// A clean plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::default(),
            per_link: Vec::new(),
            max_retransmits: 4,
            backoff_base_ns: 1_000,
            stragglers: Vec::new(),
            slowdowns: Vec::new(),
        }
    }

    /// Sets the default per-attempt drop probability on every link.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.default_link.drop_prob = p;
        self
    }

    /// Sets the default bit-corruption probability on every link.
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        self.default_link.corrupt_prob = p;
        self
    }

    /// Sets the default compressed-stream poisoning probability.
    pub fn poison_prob(mut self, p: f64) -> Self {
        self.default_link.poison_prob = p;
        self
    }

    /// Sets the default packet-reorder probability on every link.
    pub fn reorder_prob(mut self, p: f64) -> Self {
        self.default_link.reorder_prob = p;
        self
    }

    /// Overrides the fault probabilities of one directed link.
    pub fn link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        self.per_link.retain(|(k, _)| *k != (src, dst));
        self.per_link.push(((src, dst), faults));
        self
    }

    /// Bounds the retransmit budget per delivery (default 4 retransmits,
    /// i.e. 5 transmission attempts).
    pub fn max_retransmits(mut self, n: u32) -> Self {
        self.max_retransmits = n;
        self
    }

    /// Sets the base backoff charged per retransmit (doubles per
    /// attempt, default 1 µs).
    pub fn backoff_ns(mut self, ns: u64) -> Self {
        self.backoff_base_ns = ns;
        self
    }

    /// Marks `endpoint`'s uplink as a permanent straggler: every charge
    /// on it takes `slowdown` times as long. Only timed transports model
    /// latency, so this is a no-op on untimed stacks.
    pub fn straggler(mut self, endpoint: usize, slowdown: f64) -> Self {
        self.stragglers.push((endpoint, slowdown));
        self
    }

    /// Adds a time-bounded slowdown window on `endpoint`'s uplink
    /// (no-op on untimed stacks, like [`straggler`](Self::straggler)).
    pub fn slowdown(mut self, endpoint: usize, window: RateWindow) -> Self {
        self.slowdowns.push((endpoint, window));
        self
    }

    /// The determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fault probabilities in effect on the `src -> dst` link.
    pub fn link_faults(&self, src: usize, dst: usize) -> LinkFaults {
        self.per_link
            .iter()
            .find(|(k, _)| *k == (src, dst))
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }

    /// The per-uplink rate schedules this plan implies (stragglers as
    /// never-ending windows, plus any explicit windows), for endpoints
    /// `0..endpoints`. Links without degradation are omitted.
    pub fn link_schedules(&self, endpoints: usize) -> Vec<(usize, LinkRateSchedule)> {
        (0..endpoints)
            .filter_map(|ep| {
                let mut schedule = LinkRateSchedule::new();
                for &(e, slowdown) in &self.stragglers {
                    if e == ep {
                        schedule = schedule.with_window(RateWindow::forever(slowdown));
                    }
                }
                for &(e, window) in &self.slowdowns {
                    if e == ep {
                        schedule = schedule.with_window(window);
                    }
                }
                (!schedule.is_identity()).then_some((ep, schedule))
            })
            .collect()
    }
}

/// splitmix64 finalizer: the stateless mixer behind every fault draw.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic draw in `[0, 1)` keyed on the link, its transmission
/// sequence number, and a salt separating fault kinds. Independent of
/// call order and thread interleaving by construction.
fn draw(seed: u64, src: usize, dst: usize, seq: u64, salt: u64) -> f64 {
    let mut h = seed;
    for v in [salt, src as u64, dst as u64, seq] {
        h = mix(h ^ v);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Like [`draw`], but returning the raw mixed hash for index selection
/// (which bit to flip, which packets to swap).
fn draw_index(seed: u64, src: usize, dst: usize, seq: u64, salt: u64, modulus: usize) -> usize {
    if modulus == 0 {
        return 0;
    }
    let mut h = seed;
    for v in [salt, src as u64, dst as u64, seq] {
        h = mix(h ^ v);
    }
    (h % modulus as u64) as usize
}

const SALT_DROP: u64 = 0xD120;
const SALT_CORRUPT: u64 = 0xC021;
const SALT_POISON: u64 = 0x9015;
const SALT_REORDER: u64 = 0x2E02;
const SALT_POSITION: u64 = 0x9051;

/// Counters of injected faults and recovery work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transmission attempts dropped in flight.
    pub drops: u64,
    /// Frames delivered with a flipped bit (and caught by the CRC gate).
    pub corruptions: u64,
    /// Frames delivered with reordered packets.
    pub reorders: u64,
    /// Compressed streams poisoned past the CRC gate.
    pub poisons: u64,
    /// Retransmissions performed by the recovery loop.
    pub retransmits: u64,
    /// Total backoff charged across retransmissions, nanoseconds.
    pub backoff_ns: u64,
    /// One-shot endpoint crashes that have fired.
    pub crashes: u64,
    /// Legs renegotiated down to the uncompressed encoding.
    pub degraded_legs: u64,
}

/// Decorates a [`Fabric`] stack with the faults of a [`FaultPlan`] and
/// the recovery loop that absorbs the transient ones.
///
/// Built through `FabricBuilder::faults` as the outermost layer, so
/// perturbed frames cross the timing layer exactly like real corrupted
/// traffic. Delivery applies, per transmission attempt and in this
/// order: drop, poison (compressed frames only), corruption, reorder.
/// Dropped and corrupted attempts are retried within the plan's bounded
/// retransmit budget, re-charging the link each time; poison and crash
/// pass straight through to the caller, because no retransmission can
/// fix a stream damaged before framing or a peer that is gone.
pub struct FaultyFabric {
    inner: Box<dyn Fabric>,
    plan: FaultPlan,
    /// Endpoint liveness schedule (crashes and reviving joins).
    membership: MembershipSchedule,
    /// Per-directed-link transmission counters (`src * endpoints + dst`),
    /// the sequence dimension of every fault draw.
    seq: Vec<u64>,
    iteration: u64,
    /// How many of the schedule's crash events (in schedule order) have
    /// fired their one-time crash stat.
    crashes_fired: u64,
    stats: FaultStats,
    buf: EventBuf,
    obs_seq: u64,
}

impl fmt::Debug for FaultyFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyFabric")
            .field("plan", &self.plan)
            .field("iteration", &self.iteration)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FaultyFabric {
    /// Wraps `inner`, perturbing deliveries per `plan` and gating
    /// endpoint liveness on `membership`. Crate-private: the only
    /// construction path is `FabricBuilder::faults` /
    /// `FabricBuilder::membership`.
    pub(crate) fn decorate(
        inner: Box<dyn Fabric>,
        plan: FaultPlan,
        membership: MembershipSchedule,
        recorder: &Recorder,
    ) -> Self {
        let endpoints = inner.endpoints();
        FaultyFabric {
            inner,
            plan,
            membership,
            seq: vec![0; endpoints * endpoints],
            iteration: 0,
            crashes_fired: 0,
            stats: FaultStats::default(),
            buf: recorder.buffer(),
            obs_seq: 0,
        }
    }

    /// The plan driving this decorator.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The membership schedule gating endpoint liveness.
    pub fn membership(&self) -> &MembershipSchedule {
        &self.membership
    }

    /// Whether `endpoint` is crash-down at the current iteration.
    fn is_down(&self, endpoint: usize) -> bool {
        self.membership.down_at(endpoint, self.iteration)
    }

    fn record(&mut self, label: &'static str, src: usize, dst: usize, value: u64) {
        if !self.buf.is_on() {
            return;
        }
        self.obs_seq += 1;
        self.buf.push(Event::count(
            label,
            Domain::Seq,
            src as u32,
            dst as u32,
            self.obs_seq,
            value,
        ));
    }

    /// Advances the link's transmission counter and returns the sequence
    /// number this attempt draws with.
    fn next_seq(&mut self, src: usize, dst: usize) -> u64 {
        let endpoints = self.inner.endpoints();
        let idx = src * endpoints + dst;
        match self.seq.get_mut(idx) {
            Some(slot) => {
                *slot += 1;
                *slot
            }
            None => 0,
        }
    }

    /// The fault, if any, hitting transmission attempt `seq` on the
    /// link, in precedence order.
    fn fault_for(&self, src: usize, dst: usize, seq: u64, compressed: bool) -> Option<Injected> {
        let faults = self.plan.link_faults(src, dst);
        if faults.is_clean() {
            return None;
        }
        let s = self.plan.seed;
        if draw(s, src, dst, seq, SALT_DROP) < faults.drop_prob {
            return Some(Injected::Drop);
        }
        if compressed && draw(s, src, dst, seq, SALT_POISON) < faults.poison_prob {
            return Some(Injected::Poison);
        }
        if draw(s, src, dst, seq, SALT_CORRUPT) < faults.corrupt_prob {
            return Some(Injected::Corrupt);
        }
        if draw(s, src, dst, seq, SALT_REORDER) < faults.reorder_prob {
            return Some(Injected::Reorder);
        }
        None
    }

    /// Delivers a copy of `frame` whose flat wire image `perturb` has
    /// damaged. In-flight damage (`retag == false`) keeps the sender's
    /// CRC, which goes stale so the receiver's gate catches it;
    /// sender-side damage before framing (`retag == true`) is framed
    /// afresh, so only the decode can notice. Any other body goes on
    /// unperturbed, and the inner transport rejects it.
    fn deliver_perturbed(
        &mut self,
        dst: usize,
        frame: &WireFrame,
        retag: bool,
        sink: &mut dyn FnMut(&[f32]),
        perturb: impl FnOnce(&mut FlatPayload),
    ) -> Result<(), FabricError> {
        let FrameBody::Flat(payload) = frame.body() else {
            return self.inner.deliver(dst, frame, sink);
        };
        let mut payload = payload.clone();
        perturb(&mut payload);
        let bad = if retag {
            WireFrame::flat(frame.src(), payload)
        } else {
            frame.with_perturbed_body(FrameBody::Flat(payload))
        };
        self.inner.deliver(dst, &bad, sink)
    }
}

/// One injected fault on one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injected {
    Drop,
    Corrupt,
    Reorder,
    Poison,
}

impl Fabric for FaultyFabric {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn encode_into(
        &mut self,
        src: usize,
        values: &[f32],
        kind: PayloadKind,
        frame: &mut WireFrame,
    ) {
        self.inner.encode_into(src, values, kind, frame);
    }

    fn charge(&mut self, src: usize, dst: usize, frame: &WireFrame) {
        self.inner.charge(src, dst, frame);
    }

    fn charge_to_switch(&mut self, endpoint: usize, frame: &WireFrame) {
        self.inner.charge_to_switch(endpoint, frame);
    }

    fn charge_from_switch(&mut self, endpoint: usize, frame: &WireFrame) {
        self.inner.charge_from_switch(endpoint, frame);
    }

    fn deliver(
        &mut self,
        dst: usize,
        frame: &WireFrame,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError> {
        let src = frame.src();
        if src == dst {
            // Self-deliveries never cross the wire; nothing to fault.
            return self.inner.deliver(dst, frame, sink);
        }
        if self.is_down(src) {
            return Err(FabricError::EndpointDown { endpoint: src });
        }
        if self.is_down(dst) {
            return Err(FabricError::EndpointDown { endpoint: dst });
        }
        let budget = self.plan.max_retransmits;
        let seed = self.plan.seed;
        let mut attempt: u32 = 0;
        loop {
            let seq = self.next_seq(src, dst);
            let pos = |m| draw_index(seed, src, dst, seq, SALT_POSITION, m);
            let outcome = match self.fault_for(src, dst, seq, frame.is_compressed()) {
                None => self.inner.deliver(dst, frame, sink),
                Some(Injected::Drop) => {
                    self.stats.drops += 1;
                    self.record(labels::FAULT_DROP, src, dst, 1);
                    Err(FabricError::RetriesExhausted {
                        src,
                        dst,
                        attempts: attempt + 1,
                    })
                }
                Some(Injected::Corrupt) => {
                    self.stats.corruptions += 1;
                    self.record(labels::FAULT_CORRUPT, src, dst, 1);
                    // One bit of the wire image; on a raw segment that
                    // is bit `i % 32` of value `i / 32`.
                    self.deliver_perturbed(dst, frame, false, sink, |p| {
                        p.flip_bit(pos(p.bytes.len().max(1) * 8));
                    })
                }
                Some(Injected::Reorder) => {
                    self.stats.reorders += 1;
                    self.record(labels::FAULT_REORDER, src, dst, 1);
                    // Two adjacent segments; a one-segment frame has
                    // no order to break, so it arrives intact.
                    self.deliver_perturbed(dst, frame, false, sink, |p| {
                        p.swap_adjacent_segs(pos(p.segs.len()));
                    })
                }
                Some(Injected::Poison) => {
                    self.stats.poisons += 1;
                    self.record(labels::FAULT_POISON, src, dst, 1);
                    // Poison is pre-framing damage: retransmitting the
                    // same stream cannot fix it, so it goes straight to
                    // the caller's degradation ladder. It halves the
                    // first compressed segment, or the first segment of
                    // a compressed frame of raw values (the in-process
                    // transport's), which desynchronizes either decode.
                    return self.deliver_perturbed(dst, frame, true, sink, |p| {
                        let i = p.segs.iter().position(|s| s.compressed).unwrap_or(0);
                        if let Some(seg) = p.segs.get(i) {
                            let keep = seg.wire_bytes as usize / 2;
                            p.truncate_seg(i, keep);
                        }
                    });
                }
            };
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) if !e.is_recoverable() => return Err(e),
                Err(_) if attempt < budget => {
                    attempt += 1;
                    // Exponential backoff (capped shift), then the
                    // retransmission re-occupies the link.
                    let backoff = self
                        .plan
                        .backoff_base_ns
                        .saturating_mul(1u64 << (attempt - 1).min(16));
                    self.stats.retransmits += 1;
                    self.stats.backoff_ns += backoff;
                    self.record(labels::FAULT_RETRANSMIT, src, dst, 1);
                    self.record(labels::FAULT_BACKOFF_NS, src, dst, backoff);
                    self.inner.charge(src, dst, frame);
                }
                Err(_) => {
                    return Err(FabricError::RetriesExhausted {
                        src,
                        dst,
                        attempts: attempt + 1,
                    })
                }
            }
        }
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn switch_fold(&mut self, acc: &mut [f32], frame: &WireFrame) -> Result<(), FabricError> {
        // A crashed endpoint offers no contribution; link-level faults
        // on the uplink half-leg are folded into the plan's per-link
        // poisoning of the *exchange restart* path instead of being
        // drawn here — the reduce unit has no retransmission protocol.
        if self.is_down(frame.src()) {
            return Err(FabricError::EndpointDown {
                endpoint: frame.src(),
            });
        }
        self.inner.switch_fold(acc, frame)
    }

    fn switch_accum(&mut self, len: usize) -> SwitchAccum {
        self.inner.switch_accum(len)
    }

    fn switch_fold_into(
        &mut self,
        acc: &mut SwitchAccum,
        frame: &WireFrame,
    ) -> Result<(), FabricError> {
        // Same contract as `switch_fold`: a crashed endpoint offers no
        // contribution, whatever shape the accumulator takes.
        if self.is_down(frame.src()) {
            return Err(FabricError::EndpointDown {
                endpoint: frame.src(),
            });
        }
        self.inner.switch_fold_into(acc, frame)
    }

    fn flush_obs(&mut self) {
        self.buf.flush();
        self.inner.flush_obs();
    }

    fn begin_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
        // Fire the one-time crash stat for every crash event whose
        // iteration has arrived. Events are sorted by iteration, so the
        // already-fired ones are exactly the first `crashes_fired`
        // crash events in schedule order.
        let mut due = 0u64;
        for i in 0..self.membership.events().len() {
            let event = self.membership.events()[i];
            if event.at() > iteration {
                break;
            }
            if let MembershipEvent::Crash { worker, .. } = event {
                due += 1;
                if due > self.crashes_fired {
                    self.stats.crashes += 1;
                    self.record(labels::FAULT_CRASH, worker, worker, 1);
                }
            }
        }
        self.crashes_fired = self.crashes_fired.max(due);
        self.inner.begin_iteration(iteration);
    }

    fn note_degraded(&mut self, src: usize, dst: usize) {
        self.stats.degraded_legs += 1;
        self.record(labels::FAULT_DEGRADED, src, dst, 1);
        self.inner.note_degraded(src, dst);
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{CodecSelection, FabricBuilder, TransportKind};
    use inceptionn_compress::ErrorBound;

    fn vals(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32).sin() * 0.1).collect()
    }

    #[test]
    fn draws_are_deterministic_and_salted() {
        assert_eq!(draw(1, 0, 1, 5, SALT_DROP), draw(1, 0, 1, 5, SALT_DROP));
        assert_ne!(draw(1, 0, 1, 5, SALT_DROP), draw(1, 0, 1, 5, SALT_CORRUPT));
        assert_ne!(draw(1, 0, 1, 5, SALT_DROP), draw(2, 0, 1, 5, SALT_DROP));
        assert_ne!(draw(1, 0, 1, 5, SALT_DROP), draw(1, 1, 0, 5, SALT_DROP));
        let d = draw(99, 3, 4, 1_000_000, SALT_REORDER);
        assert!((0.0..1.0).contains(&d));
    }

    #[test]
    fn clean_plan_is_a_transparent_decorator() {
        let v = vals(2000);
        for kind in TransportKind::ALL {
            let mut plain = FabricBuilder::new(3).transport(kind).build();
            let mut faulty = FabricBuilder::new(3)
                .transport(kind)
                .faults(FaultPlan::new(7))
                .build();
            let a = plain.transfer(0, 1, &v).unwrap();
            let b = faulty.transfer(0, 1, &v).unwrap();
            assert_eq!(a, b, "{kind:?} zero-fault decorator changed values");
            assert_eq!(
                plain.stats(),
                faulty.stats(),
                "{kind:?} zero-fault decorator changed accounting"
            );
            assert_eq!(faulty.fault_stats(), FaultStats::default());
        }
    }

    #[test]
    fn drops_are_recovered_by_retransmission() {
        let v = vals(500);
        let mut fabric = FabricBuilder::new(2)
            .transport(TransportKind::Nic)
            .faults(FaultPlan::new(11).drop_prob(0.3))
            .build();
        let mut delivered = 0u32;
        for _ in 0..50 {
            let out = fabric.transfer(0, 1, &v).unwrap();
            assert_eq!(out, v);
            delivered += 1;
        }
        assert_eq!(delivered, 50);
        let fs = fabric.fault_stats();
        assert!(fs.drops > 0, "30% drop rate must fire over 50 transfers");
        assert_eq!(fs.retransmits, fs.drops, "every drop costs one retransmit");
        assert!(fs.backoff_ns > 0);
    }

    #[test]
    fn corruption_and_reorder_are_caught_and_recovered() {
        let v = vals(4000);
        for kind in [TransportKind::InProcess, TransportKind::Nic] {
            let mut fabric = FabricBuilder::new(2)
                .transport(kind)
                .codec(CodecSelection::from_bound(Some(ErrorBound::pow2(10))))
                // Half of all attempts fault, so the default budget of 4
                // can run dry (5 bad draws in a row); the point here is
                // the CRC gate + retransmission, not budget exhaustion.
                .faults(
                    FaultPlan::new(13)
                        .corrupt_prob(0.25)
                        .reorder_prob(0.25)
                        .max_retransmits(12),
                )
                .build();
            let mut clean = FabricBuilder::new(2)
                .transport(kind)
                .codec(CodecSelection::from_bound(Some(ErrorBound::pow2(10))))
                .build();
            let want = clean.transfer(0, 1, &v).unwrap();
            for _ in 0..20 {
                assert_eq!(
                    fabric.transfer(0, 1, &v).unwrap(),
                    want,
                    "{kind:?} corrupted values leaked past the CRC gate"
                );
            }
            let fs = fabric.fault_stats();
            assert!(
                fs.corruptions + fs.reorders > 0,
                "{kind:?} faults must fire"
            );
            assert!(fs.retransmits > 0, "{kind:?}");
        }
    }

    #[test]
    fn exhausted_budget_surfaces_a_typed_error() {
        let v = vals(100);
        let mut fabric = FabricBuilder::new(2)
            .faults(FaultPlan::new(5).drop_prob(1.0).max_retransmits(3))
            .build();
        let err = fabric
            .transfer(0, 1, &v)
            .expect_err("100% drop cannot deliver");
        assert_eq!(
            err,
            FabricError::RetriesExhausted {
                src: 0,
                dst: 1,
                attempts: 4
            }
        );
        assert!(err.is_recoverable(), "the caller may still degrade the leg");
        assert_eq!(fabric.fault_stats().drops, 4);
    }

    #[test]
    fn poison_fails_decode_without_retransmission() {
        let v = vals(300);
        for kind in [TransportKind::InProcess, TransportKind::Nic] {
            let mut fabric = FabricBuilder::new(2)
                .transport(kind)
                .codec(CodecSelection::from_bound(Some(ErrorBound::pow2(10))))
                .faults(FaultPlan::new(3).poison_prob(1.0))
                .build();
            let err = fabric
                .transfer(0, 1, &v)
                .expect_err("poisoned compressed stream must fail decode");
            assert!(matches!(err, FabricError::Decode(_)), "{kind:?}: {err}");
            let fs = fabric.fault_stats();
            assert_eq!(fs.poisons, 1, "{kind:?}");
            assert_eq!(fs.retransmits, 0, "{kind:?} poison must not retransmit");

            // Plain traffic has no decode step: the poison never fires.
            let out = fabric.transfer_plain(0, 1, &v).unwrap();
            assert_eq!(out, v, "{kind:?}");
        }
    }

    #[test]
    fn crash_blocks_all_touching_traffic_from_its_iteration() {
        let v = vals(64);
        let mut fabric = FabricBuilder::new(3)
            .membership(MembershipSchedule::new().crash(4, 2))
            .build();
        fabric.begin_iteration(3);
        assert_eq!(fabric.transfer(0, 2, &v).unwrap(), v, "not crashed yet");
        fabric.begin_iteration(4);
        for (src, dst) in [(0, 2), (2, 0)] {
            let err = fabric.transfer(src, dst, &v).expect_err("crashed endpoint");
            assert_eq!(err, FabricError::EndpointDown { endpoint: 2 });
            assert!(!err.is_recoverable());
        }
        // Survivor-to-survivor traffic is unaffected.
        assert_eq!(fabric.transfer(0, 1, &v).unwrap(), v);
        assert_eq!(fabric.fault_stats().crashes, 1);
    }

    #[test]
    fn join_revives_a_crashed_endpoint() {
        let v = vals(64);
        let mut fabric = FabricBuilder::new(3)
            .membership(MembershipSchedule::new().crash(2, 1).join(5, 1))
            .build();
        fabric.begin_iteration(2);
        let err = fabric.transfer(0, 1, &v).expect_err("crashed");
        assert_eq!(err, FabricError::EndpointDown { endpoint: 1 });
        fabric.begin_iteration(5);
        assert_eq!(fabric.transfer(0, 1, &v).unwrap(), v, "revived by join");
        assert_eq!(fabric.transfer(1, 2, &v).unwrap(), v, "sends again too");
        assert_eq!(fabric.fault_stats().crashes, 1, "one crash event fired");
    }

    #[test]
    fn crashed_endpoint_contributes_nothing_to_the_switch() {
        let v = vals(64);
        let mut fabric = FabricBuilder::new(2)
            .membership(MembershipSchedule::new().crash(1, 1))
            .build();
        fabric.begin_iteration(1);
        let mut acc = vec![0.0f32; 64];
        let frame = fabric.encode(1, &v, PayloadKind::Gradient);
        let err = fabric
            .switch_fold(&mut acc, &frame)
            .expect_err("a crashed worker cannot reach the reduce unit");
        assert_eq!(err, FabricError::EndpointDown { endpoint: 1 });
        let frame = fabric.encode(0, &v, PayloadKind::Gradient);
        fabric.switch_fold(&mut acc, &frame).unwrap();
        assert_eq!(acc, v, "the survivor's contribution still folds");
    }

    #[test]
    fn same_plan_same_faults_across_runs() {
        let v = vals(1000);
        let run = || {
            let mut fabric = FabricBuilder::new(4)
                .transport(TransportKind::Nic)
                .codec(CodecSelection::from_bound(Some(ErrorBound::pow2(10))))
                .faults(FaultPlan::new(77).drop_prob(0.05).corrupt_prob(0.05))
                .build();
            let mut sums = Vec::new();
            for s in 0..3 {
                for d in 0..3 {
                    if s != d {
                        let out = fabric.transfer(s, d, &v).unwrap();
                        sums.push(out.iter().map(|x| x.to_bits() as u64).sum::<u64>());
                    }
                }
            }
            (fabric.fault_stats(), sums)
        };
        assert_eq!(run(), run(), "seeded fault schedule must be replayable");
    }

    #[test]
    fn plan_builds_link_schedules_for_stragglers_and_windows() {
        let plan = FaultPlan::new(0)
            .straggler(1, 4.0)
            .slowdown(
                2,
                RateWindow {
                    start_ns: 100,
                    end_ns: 200,
                    slowdown: 2.0,
                },
            )
            .straggler(9, 2.0);
        let schedules = plan.link_schedules(4);
        assert_eq!(schedules.len(), 2, "endpoint 9 is out of range, 0/3 clean");
        assert_eq!(schedules[0].0, 1);
        assert_eq!(schedules[0].1.slowdown_at(0), 4.0);
        assert_eq!(schedules[1].0, 2);
        assert_eq!(schedules[1].1.slowdown_at(150), 2.0);
        assert_eq!(schedules[1].1.slowdown_at(50), 1.0);
    }
}
