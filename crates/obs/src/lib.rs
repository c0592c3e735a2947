//! Cycle-accurate observability for the INCEPTIONN reproduction.
//!
//! The paper's headline claims are *accounting* claims — comm-vs-compute
//! splits per iteration, bytes on the wire per leg, NIC engine cycles per
//! burst — so measurement is a subsystem, not a sprinkle of printlns.
//! This crate provides:
//!
//! * an [`Event`] model: static label id + `u64` payload + timestamp.
//!   No strings are formatted and no allocations beyond a `Vec` push
//!   happen while recording; rendering is deferred to export time.
//! * per-thread append-only [`EventBuf`]s. The hot path never takes a
//!   lock: each instrumented component owns a buffer and pushes into it;
//!   buffers drain into the shared sink only at `flush` (or drop).
//! * dual clock [`Domain`]s. Simulated components stamp events in
//!   *virtual* time (netsim nanoseconds, nicsim engine cycles) injected
//!   by the caller — wire/sim code never reads `Instant::now()`,
//!   consistent with the analyzer's no-clock rule. Host-side stages use
//!   wall time read once per span edge via [`Recorder::wall_ns`].
//! * a [`Recorder`] handle threaded through configuration. The default
//!   recorder is off: every buffer it hands out is permanently disabled
//!   and `push` compiles to a branch on a bool.
//!
//! Exporters live in [`export`]: a chrome://tracing trace-event JSON
//! writer and a per-run [`export::Summary`] table. The `trace-report`
//! binary re-reads an exported trace and prints the summary.

pub mod export;
pub mod json;

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical label ids used across the instrumented crates.
///
/// Labels are `&'static str` so recording an event stores a pointer, not
/// a formatted string. The `component/detail` shape groups related
/// tracks in the chrome trace viewer.
pub mod labels {
    /// Wall-time span: forward+backward compute for one iteration.
    pub const ITER_COMPUTE: &str = "iter/compute";
    /// Wall-time span: optimizer update for one iteration.
    pub const ITER_UPDATE: &str = "iter/update";
    /// Wall-time span: ring-allreduce gradient exchange.
    pub const EXCHANGE_RING: &str = "exchange/ring";
    /// Wall-time span: hierarchical ring gradient exchange.
    pub const EXCHANGE_HIERARCHICAL: &str = "exchange/hierarchical";
    /// Wall-time span: worker/aggregator gradient exchange.
    pub const EXCHANGE_WORKER_AGGREGATOR: &str = "exchange/worker-aggregator";
    /// Wall-time span: topology-tree gradient exchange (rings per tier).
    pub const EXCHANGE_TREE: &str = "exchange/tree";
    /// Wall-time span: switch-resident in-network reduction exchange.
    pub const EXCHANGE_SWITCH_REDUCE: &str = "exchange/switch-reduce";
    /// Metric: mean training loss for one iteration.
    pub const ITER_LOSS: &str = "iter/loss";
    /// Metric: mean training accuracy for one iteration.
    pub const ITER_ACCURACY: &str = "iter/accuracy";
    /// Counter: uncompressed payload bytes entering the fabric
    /// (track = source endpoint, key = payload kind).
    pub const FABRIC_PAYLOAD_BYTES: &str = "fabric/payload_bytes";
    /// Counter: bytes actually put on the wire
    /// (track = source endpoint, key = payload kind).
    pub const FABRIC_WIRE_BYTES: &str = "fabric/wire_bytes";
    /// Counter: packets emitted (track = source endpoint).
    pub const FABRIC_PACKETS: &str = "fabric/packets";
    /// Counter: wire bytes attributed to one topology tier
    /// (track = tier, 0 = core; emitted by timed fabrics built with a
    /// topology). Per-tier sums equal `fabric/wire_bytes` to the byte.
    pub const FABRIC_TIER_BYTES: &str = "fabric/tier_bytes";
    /// Cycle-domain span: a switch reduce unit folding one contribution
    /// (track = worker whose contribution was folded).
    pub const SWITCH_REDUCE: &str = "switch/reduce";
    /// Counter: gradient wire bytes folded in-network at a switch reduce
    /// unit instead of descending to an aggregation host.
    pub const SWITCH_REDUCE_BYTES: &str = "switch/reduce_bytes";
    /// Cycle-domain span: NIC compression engine busy on one payload.
    pub const NIC_COMPRESS: &str = "nic/compress";
    /// Cycle-domain span: NIC decompression engine busy on one payload.
    pub const NIC_DECOMPRESS: &str = "nic/decompress";
    /// Counter: 256-bit bursts consumed by a NIC TX engine.
    pub const NIC_TX_BURSTS: &str = "nic/tx_bursts";
    /// Counter: 256-bit bursts produced by a NIC RX engine.
    pub const NIC_RX_BURSTS: &str = "nic/rx_bursts";
    /// Virtual-time span: one fabric leg occupying a network link
    /// (track = source endpoint, key = destination endpoint).
    pub const NET_LINK: &str = "net/link";
    /// Counter: wire bytes charged to a link leg (track = src, key = dst).
    pub const NET_LEG_BYTES: &str = "net/leg_bytes";
    /// Virtual-time span: one netsim flow from start to finish.
    pub const NET_TRANSFER: &str = "net/transfer";
    /// Counter: wire bytes (payload + headers) of one netsim flow.
    pub const NET_TRANSFER_BYTES: &str = "net/transfer_bytes";
    /// Virtual-time span: one packet traversing the TX datapath.
    pub const DP_PACKET: &str = "dp/packet";
    /// Counter: nanoseconds a packet sat in the engine→MAC FIFO.
    pub const DP_STALL_NS: &str = "dp/stall_ns";
    /// Counter: peak engine→MAC FIFO occupancy over a trace.
    pub const DP_FIFO_PEAK: &str = "dp/fifo_peak";
    /// Virtual-time span: modeled forward pass (dnn::profile adapter).
    pub const PHASE_FORWARD: &str = "phase/forward";
    /// Virtual-time span: modeled backward pass.
    pub const PHASE_BACKWARD: &str = "phase/backward";
    /// Virtual-time span: modeled GPU→host gradient copy.
    pub const PHASE_GPU_COPY: &str = "phase/gpu_copy";
    /// Virtual-time span: modeled local gradient summation.
    pub const PHASE_GRAD_SUM: &str = "phase/grad_sum";
    /// Virtual-time span: modeled weight update.
    pub const PHASE_UPDATE: &str = "phase/update";
    /// Virtual-time span: paper-reported communication time.
    pub const PHASE_COMMUNICATE: &str = "phase/communicate";
    /// Counter: a transmission dropped by fault injection (track = src,
    /// key = dst).
    pub const FAULT_DROP: &str = "fault/drop";
    /// Counter: a frame corrupted in flight and caught by its CRC tag.
    pub const FAULT_CORRUPT: &str = "fault/corrupt";
    /// Counter: packets reordered inside a frame (caught by the CRC tag).
    pub const FAULT_REORDER: &str = "fault/reorder";
    /// Counter: an undetected (post-tag) corruption that reached the
    /// decoder and surfaced as a decode error.
    pub const FAULT_POISON: &str = "fault/poison";
    /// Counter: one bounded-retransmit attempt on a link.
    pub const FAULT_RETRANSMIT: &str = "fault/retransmit";
    /// Counter: retransmit backoff charged, nanoseconds.
    pub const FAULT_BACKOFF_NS: &str = "fault/backoff_ns";
    /// Counter: a leg renegotiated down to the uncompressed encoding
    /// after repeated decode failures.
    pub const FAULT_DEGRADED: &str = "fault/degraded";
    /// Counter: a delivery refused because an endpoint has crashed.
    pub const FAULT_CRASH: &str = "fault/crash";
    /// Counter: the trainer excised a crashed endpoint and re-stitched
    /// the ring over the survivors (key = excised endpoint).
    pub const RING_RESTITCH: &str = "ring/restitch";
    /// Counter: a worker joined (or rejoined) the collective
    /// (key = joining worker).
    pub const MEMBER_JOIN: &str = "member/join";
    /// Counter: a worker left the collective gracefully
    /// (key = departing worker).
    pub const MEMBER_LEAVE: &str = "member/leave";
    /// Counter: snapshot catch-up bytes shipped to a joining worker
    /// (track = leader, key = joiner).
    pub const MEMBER_SNAPSHOT_BYTES: &str = "member/snapshot_bytes";
}

/// The clock an event's `ts` (and a span's duration) is expressed in.
///
/// Simulated components never read a host clock: they stamp events with
/// the virtual time they already maintain. Only `Wall` events come from
/// [`Recorder::wall_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Host wall-clock nanoseconds since the recorder was created.
    Wall,
    /// Virtual network nanoseconds (netsim / TimedFabric link time).
    Net,
    /// NIC engine cycles (100 MHz burst pipeline).
    Cycles,
    /// Logical sequence numbers for untimed components.
    Seq,
}

impl Domain {
    /// All domains, in export (pid) order.
    pub const ALL: [Domain; 4] = [Domain::Wall, Domain::Net, Domain::Cycles, Domain::Seq];

    /// Stable index used as the chrome-trace process id (plus one).
    pub fn index(self) -> usize {
        match self {
            Domain::Wall => 0,
            Domain::Net => 1,
            Domain::Cycles => 2,
            Domain::Seq => 3,
        }
    }

    /// Inverse of [`Domain::index`].
    pub fn from_index(index: usize) -> Option<Domain> {
        Domain::ALL.get(index).copied()
    }

    /// Human-readable name shown as the chrome-trace process name.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Wall => "wall clock (ns)",
            Domain::Net => "network (virtual ns)",
            Domain::Cycles => "nic engines (cycles)",
            Domain::Seq => "sequence (logical)",
        }
    }

    /// Whether `ts`/duration are nanoseconds (true) or raw ticks.
    pub fn is_nanoseconds(self) -> bool {
        matches!(self, Domain::Wall | Domain::Net)
    }
}

/// Event phase, mirroring the chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ph {
    /// Span start (`B`). Prefer [`Ph::Complete`] where the duration is
    /// known when the event is recorded.
    Begin,
    /// Span end (`E`).
    End,
    /// Complete span (`X`): `ts` = start, `value` = duration.
    Complete,
    /// Counter delta (`C`): `value` is added to the running series.
    Counter,
    /// Floating-point sample: `value` holds `f64::to_bits`.
    Metric,
}

/// One recorded event: static label + integers. 32 bytes of payload,
/// nothing formatted, nothing allocated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Static label id (see [`labels`]).
    pub label: &'static str,
    /// Phase: span edge, complete span, counter, or metric sample.
    pub ph: Ph,
    /// Clock domain `ts` is expressed in.
    pub domain: Domain,
    /// Track within the domain (worker, endpoint, shard, ...); becomes
    /// the chrome-trace thread id.
    pub track: u32,
    /// Free secondary dimension (payload kind, destination, iteration).
    pub key: u32,
    /// Timestamp in the domain's unit.
    pub ts: u64,
    /// Payload: duration for `Complete`, delta for `Counter`, bits of an
    /// `f64` for `Metric`, zero for `Begin`/`End`.
    pub value: u64,
}

impl Event {
    /// A span start.
    pub fn begin(label: &'static str, domain: Domain, track: u32, key: u32, ts: u64) -> Event {
        Event {
            label,
            ph: Ph::Begin,
            domain,
            track,
            key,
            ts,
            value: 0,
        }
    }

    /// A span end.
    pub fn end(label: &'static str, domain: Domain, track: u32, key: u32, ts: u64) -> Event {
        Event {
            label,
            ph: Ph::End,
            domain,
            track,
            key,
            ts,
            value: 0,
        }
    }

    /// A complete span: starts at `ts`, lasts `dur` domain units.
    pub fn complete(
        label: &'static str,
        domain: Domain,
        track: u32,
        key: u32,
        ts: u64,
        dur: u64,
    ) -> Event {
        Event {
            label,
            ph: Ph::Complete,
            domain,
            track,
            key,
            ts,
            value: dur,
        }
    }

    /// A counter increment of `delta`.
    pub fn count(
        label: &'static str,
        domain: Domain,
        track: u32,
        key: u32,
        ts: u64,
        delta: u64,
    ) -> Event {
        Event {
            label,
            ph: Ph::Counter,
            domain,
            track,
            key,
            ts,
            value: delta,
        }
    }

    /// A floating-point sample, stored losslessly as bits.
    pub fn metric(
        label: &'static str,
        domain: Domain,
        track: u32,
        key: u32,
        ts: u64,
        sample: f64,
    ) -> Event {
        Event {
            label,
            ph: Ph::Metric,
            domain,
            track,
            key,
            ts,
            value: sample.to_bits(),
        }
    }

    /// The `f64` carried by a [`Ph::Metric`] event.
    pub fn metric_value(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

/// Shared drain the per-thread buffers flush into, plus the wall-clock
/// epoch. Only `flush`/`finish` touch the mutex — never `push`.
#[derive(Debug)]
struct Shared {
    epoch: Instant,
    done: Mutex<Vec<Vec<Event>>>,
}

/// A per-component append-only event buffer.
///
/// `push` on an enabled buffer is a bounds-checked `Vec` push; on a
/// disabled buffer it is a single predictable branch. Buffers flush
/// their batch into the recorder's shared sink on [`EventBuf::flush`]
/// or drop, so the hot path never contends on a lock.
pub struct EventBuf {
    enabled: bool,
    shared: Option<Arc<Shared>>,
    events: Vec<Event>,
}

impl EventBuf {
    /// A permanently disabled buffer: `push` is a no-op.
    pub fn disabled() -> EventBuf {
        EventBuf {
            enabled: false,
            shared: None,
            events: Vec::new(),
        }
    }

    /// An enabled buffer with no sink; inspect via [`EventBuf::events`]
    /// or [`EventBuf::take`]. Used by components that export their own
    /// events and in tests.
    pub fn local() -> EventBuf {
        EventBuf {
            enabled: true,
            shared: None,
            events: Vec::new(),
        }
    }

    /// Whether pushes are recorded. Check before computing anything
    /// nontrivial for an event.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Records an event. No-op when the buffer is disabled.
    #[inline]
    pub fn push(&mut self, event: Event) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// The events recorded and not yet flushed.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Removes and returns the unflushed events.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Moves the buffered batch into the recorder's sink (if any).
    /// The one place a lock is taken, off the hot path.
    pub fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        if let Some(shared) = &self.shared {
            let batch = std::mem::take(&mut self.events);
            if let Ok(mut done) = shared.done.lock() {
                done.push(batch);
            }
        }
    }
}

impl Clone for EventBuf {
    /// Clones the *sink*, not the pending events: the clone starts
    /// empty but drains to the same recorder.
    fn clone(&self) -> EventBuf {
        EventBuf {
            enabled: self.enabled,
            shared: self.shared.clone(),
            events: Vec::new(),
        }
    }
}

impl Drop for EventBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

impl fmt::Debug for EventBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBuf")
            .field("enabled", &self.enabled)
            .field("pending", &self.events.len())
            .finish()
    }
}

/// Handle threaded through configuration to switch tracing on.
///
/// `Recorder::default()` (= [`Recorder::off`]) hands out disabled
/// buffers and reports wall time as zero, so instrumented code costs a
/// branch per potential event. [`Recorder::on`] hands out buffers that
/// drain into a shared sink; [`Recorder::finish`] collects them into a
/// deterministic, canonically ordered [`Recording`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl Recorder {
    /// The no-op recorder.
    pub fn off() -> Recorder {
        Recorder { shared: None }
    }

    /// A live recorder; its wall-clock epoch is this call.
    pub fn on() -> Recorder {
        Recorder {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                done: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this recorder collects events.
    pub fn is_on(&self) -> bool {
        self.shared.is_some()
    }

    /// Wall-clock nanoseconds since the recorder was created; zero when
    /// off. This is the *only* clock read in the observability stack —
    /// simulated components stamp events with their own virtual time.
    #[inline]
    pub fn wall_ns(&self) -> u64 {
        match &self.shared {
            Some(shared) => shared.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// A buffer draining into this recorder (disabled when off).
    pub fn buffer(&self) -> EventBuf {
        EventBuf {
            enabled: self.shared.is_some(),
            shared: self.shared.clone(),
            events: Vec::new(),
        }
    }

    /// Collects everything flushed so far into a canonical recording.
    ///
    /// Events are sorted by `(domain, track, ts, key, label, ph)` so the
    /// recording is independent of flush order — two runs of a
    /// deterministic simulation produce byte-identical virtual-domain
    /// traces.
    pub fn finish(&self) -> Recording {
        let mut events = Vec::new();
        if let Some(shared) = &self.shared {
            if let Ok(mut done) = shared.done.lock() {
                for batch in done.drain(..) {
                    events.extend(batch);
                }
            }
        }
        Recording::from_events(events)
    }
}

/// A drained, canonically ordered set of events plus export helpers.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    events: Vec<Event>,
}

impl Recording {
    /// Builds a recording, applying the canonical sort.
    pub fn from_events(mut events: Vec<Event>) -> Recording {
        events.sort_by(|a, b| {
            (a.domain, a.track, a.ts, a.key, a.label, a.ph)
                .cmp(&(b.domain, b.track, b.ts, b.key, b.label, b.ph))
        });
        Recording { events }
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the recording as chrome://tracing trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        export::chrome_trace(&self.events)
    }

    /// Writes the chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Aggregates the recording into the per-run summary table.
    pub fn summary(&self) -> export::Summary {
        export::Summary::of(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_hands_out_disabled_buffers() {
        let rec = Recorder::off();
        assert!(!rec.is_on());
        assert_eq!(rec.wall_ns(), 0);
        let mut buf = rec.buffer();
        assert!(!buf.is_on());
        buf.push(Event::count("x", Domain::Seq, 0, 0, 0, 1));
        assert!(buf.events().is_empty());
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn events_flow_from_buffer_to_recording() {
        let rec = Recorder::on();
        let mut buf = rec.buffer();
        assert!(buf.is_on());
        buf.push(Event::count(
            labels::FABRIC_WIRE_BYTES,
            Domain::Seq,
            1,
            0,
            2,
            64,
        ));
        buf.push(Event::complete(
            labels::NIC_COMPRESS,
            Domain::Cycles,
            0,
            0,
            10,
            5,
        ));
        buf.flush();
        let recording = rec.finish();
        assert_eq!(recording.len(), 2);
        // Canonical order: Cycles sorts after Wall/Net but before Seq.
        assert_eq!(recording.events()[0].label, labels::NIC_COMPRESS);
        assert_eq!(recording.events()[1].value, 64);
    }

    #[test]
    fn dropping_a_buffer_flushes_it() {
        let rec = Recorder::on();
        {
            let mut buf = rec.buffer();
            buf.push(Event::count("dropped", Domain::Seq, 0, 0, 0, 7));
        }
        assert_eq!(rec.finish().len(), 1);
    }

    #[test]
    fn canonical_sort_is_flush_order_independent() {
        let a = Event::count("a", Domain::Net, 0, 0, 5, 1);
        let b = Event::complete("b", Domain::Net, 0, 0, 3, 2);
        let fwd = Recording::from_events(vec![a, b]);
        let rev = Recording::from_events(vec![b, a]);
        assert_eq!(fwd.events(), rev.events());
        assert_eq!(fwd.events()[0].label, "b");
    }

    #[test]
    fn metric_roundtrips_bits() {
        let ev = Event::metric("m", Domain::Wall, 0, 0, 0, 0.1250001_f64);
        assert_eq!(ev.metric_value(), 0.1250001_f64);
    }

    #[test]
    fn cloned_buffer_shares_the_sink_but_not_pending_events() {
        let rec = Recorder::on();
        let mut buf = rec.buffer();
        buf.push(Event::count("orig", Domain::Seq, 0, 0, 0, 1));
        let mut clone = buf.clone();
        assert!(clone.events().is_empty());
        clone.push(Event::count("clone", Domain::Seq, 0, 0, 1, 2));
        buf.flush();
        clone.flush();
        assert_eq!(rec.finish().len(), 2);
    }
}
