//! The transport seam between the collectives and the modeled hardware.
//!
//! Every exchange strategy in this crate (`ring`, `aggregator`,
//! `trainer`) moves gradient blocks between worker-indexed endpoints.
//! [`Fabric`] abstracts that move: a payload of `f32` values is *encoded*
//! at the source endpoint into a ToS-tagged [`WireFrame`], optionally
//! *charged* network latency for the link it crosses, and *delivered* at
//! the destination endpoint. Three implementations span the co-design
//! stack:
//!
//! * [`InProcessFabric`] — the modeling shortcut: compression is the
//!   codec's whole-stream round trip in place, and the result ships as
//!   the NIC's bypass image (raw little-endian `f32` segments, one per
//!   MTU chunk) without modeling engines. Fast, bit-exact baseline.
//! * [`NicFabric`] — the real datapath: every payload is cut into
//!   MTU-sized chunks and pushed through `inceptionn-nicsim`'s
//!   compression / decompression engines into one flat wire image
//!   ([`FrameBody::Flat`], the one body every transport builds), so
//!   the bytes "on the wire" are the actual encoding and engine cycles
//!   are accounted.
//!   Per-packet hardware compression composes to exactly the same
//!   values as the whole-stream software round trip, so [`NicFabric`]
//!   and [`InProcessFabric`] agree bit for bit — a property the
//!   cross-crate tests pin.
//! * [`TimedFabric`] — wraps either of the above and charges
//!   `inceptionn-netsim` serialization + store-and-forward latency per
//!   transfer, accumulated per source link.
//!
//! Both base transports hold one wire codec from the private `codec`
//! module, the one place a [`CodecSelection`] is resolved and a codec
//! family dispatched: nothing in this file branches on the family.
//!
//! [`TransportKind`] is the user-facing selector consumed by
//! `TrainerConfig` and the `inceptionn` experiment drivers.

use std::fmt;

use inceptionn_compress::{DecodeError, ErrorBound};
use inceptionn_netsim::{LinkRateSchedule, NetworkConfig, TierMap, Topology};
use inceptionn_nicsim::{
    decode_raw_flat, encode_raw_flat, FlatPayload, NicPipeline, Packet, SketchSwitchUnit,
};
use obs::{labels, Domain, Event, EventBuf, Recorder};

use crate::codec::WireCodec;
use crate::crc32::Crc32;
use crate::faults::{FaultPlan, FaultStats, FaultyFabric};
use crate::membership::MembershipSchedule;

/// `f32` values per MTU packet — one 1448-byte payload.
use inceptionn_nicsim::VALUES_PER_PACKET;

/// How a payload is classified on the wire (the ToS tag of Sec. VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Lossy-compressible gradient traffic (`ToS = 0x28`).
    Gradient,
    /// Plain traffic the engines must never touch (e.g. the
    /// worker-aggregator weight broadcast, Fig. 4).
    Plain,
}

/// The payload of a [`WireFrame`]. Every transport ships
/// [`Flat`](Self::Flat); the other two variants are names the repository
/// benchmark still pins, and a transport handed either rejects it as a
/// [`FabricError::FrameMismatch`].
#[derive(Debug, Clone)]
pub enum FrameBody {
    /// The values themselves. No transport builds this; kept verbatim
    /// for the benchmark until ROADMAP 1(c) (only
    /// [`WireFrame::loopback`] constructs it).
    Loopback(Vec<f32>),
    /// One refcounted buffer per MTU packet. No frame can carry this
    /// body: nothing constructs it, and every fabric rejects it as a
    /// [`FabricError::FrameMismatch`]. Only the name remains, pinned by
    /// the repository benchmark until ROADMAP item 1c removes it.
    Packets(Vec<Packet>),
    /// The wire image: the bytes of every MTU segment laid back to back
    /// in one reusable buffer, with a per-segment descriptor table —
    /// engine output on the NIC datapath, raw little-endian `f32`s from
    /// the in-process transport. The one body a transport builds, and
    /// the representation the zero-allocation steady state of the
    /// exchanges runs on.
    Flat(FlatPayload),
}

/// The flat wire image of a frame handed to `fabric`, or the typed
/// mismatch for any other body: the one place a transport meets a body
/// it does not carry.
fn flat_body<'a>(
    frame: &'a WireFrame,
    fabric: &'static str,
) -> Result<&'a FlatPayload, FabricError> {
    let got = match frame.body() {
        FrameBody::Flat(payload) => return Ok(payload),
        FrameBody::Loopback(_) => "loopback",
        FrameBody::Packets(_) => "packet",
    };
    Err(FabricError::FrameMismatch { fabric, got })
}

/// The integrity tag of a body: CRC-32 over its wire serialisation —
/// loopback values as little-endian `f32`s; for a flat payload every
/// 17-byte segment descriptor (`compressed`, `value_count`,
/// `wire_bytes`, the integers as little-endian `u64`s), then the wire
/// bytes. Small fields are staged through stack buffers so the kernel is
/// fed long runs, never a field at a time.
fn crc_of(body: &FrameBody) -> u32 {
    let mut c = Crc32::new();
    match body {
        FrameBody::Loopback(values) => {
            let mut buf = [0u8; 4 * 1024];
            for run in values.chunks(1024) {
                for (dst, v) in buf.chunks_exact_mut(4).zip(run) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
                c.update(&buf[..run.len() * 4]);
            }
        }
        // No constructor takes this body, so no frame carries one:
        // nothing to hash.
        FrameBody::Packets(_) => {}
        FrameBody::Flat(payload) => {
            let mut buf = [0u8; 17 * 64];
            for run in payload.segs.chunks(64) {
                for (dst, seg) in buf.chunks_exact_mut(17).zip(run) {
                    dst[0] = seg.compressed as u8;
                    dst[1..9].copy_from_slice(&(seg.value_count as u64).to_le_bytes());
                    dst[9..].copy_from_slice(&(seg.wire_bytes as u64).to_le_bytes());
                }
                c.update(&buf[..run.len() * 17]);
            }
            c.update(&payload.bytes);
        }
    }
    c.finish()
}

/// An encoded payload in flight between two endpoints: a source-address
/// header, a frame-level CRC-32 integrity tag, a compression marker, and
/// the body — the flat wire image every transport ships
/// ([`flat`](Self::flat)), or values ([`loopback`](Self::loopback)),
/// which only the benchmark builds; there is no other constructor.
///
/// The tag covers the body only — it rides *next to* the payload
/// bytes, like an Ethernet FCS, so wire-byte and serialization
/// accounting are unchanged by its presence. Delivery verifies it before
/// any bytes reach the receive engines; fault decorators that perturb a
/// body without re-tagging are therefore caught as
/// [`FabricError::Integrity`] and recovered by retransmission.
///
/// Frames are [`Send`]: like a byte stream on a real fabric, a frame
/// owns everything it carries and can move to another thread.
#[derive(Debug, Clone)]
pub struct WireFrame {
    src: usize,
    crc: u32,
    compressed: bool,
    body: FrameBody,
}

impl WireFrame {
    /// An empty placeholder frame: what a [`FrameArena`] hands out
    /// before the first [`encode_into`](Fabric::encode_into) fills (and
    /// thereafter recycles) its body allocation.
    pub fn empty() -> Self {
        WireFrame::flat(0, FlatPayload::new())
    }

    /// A loopback frame from endpoint `src`; `compressed` marks whether
    /// a lossy codec produced `values`. No transport builds this; kept
    /// verbatim for the benchmark until ROADMAP 1(c). Every transport
    /// rejects it as a [`FabricError::FrameMismatch`].
    pub fn loopback(src: usize, values: Vec<f32>, compressed: bool) -> Self {
        let body = FrameBody::Loopback(values);
        WireFrame {
            src,
            crc: crc_of(&body),
            compressed,
            body,
        }
    }

    /// A flat-datapath frame from endpoint `src`. The compression
    /// marker is read off the first segment's classification.
    pub fn flat(src: usize, payload: FlatPayload) -> Self {
        let compressed = payload.is_compressed();
        let body = FrameBody::Flat(payload);
        WireFrame {
            src,
            crc: crc_of(&body),
            compressed,
            body,
        }
    }

    /// The sending endpoint (the frame's source-address header).
    pub fn src(&self) -> usize {
        self.src
    }

    /// The integrity tag the sender stamped.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Whether the body carries a lossy-compressed stream.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// The frame payload.
    pub fn body(&self) -> &FrameBody {
        &self.body
    }

    /// Whether the body still matches the integrity tag.
    pub fn integrity_ok(&self) -> bool {
        crc_of(&self.body) == self.crc
    }

    /// Takes the frame's flat wire buffer for an encode to refill (an
    /// empty one if the frame carries another body), so a recycled frame
    /// encodes into its existing allocations.
    fn take_flat(&mut self) -> FlatPayload {
        match std::mem::replace(&mut self.body, FrameBody::Flat(FlatPayload::new())) {
            FrameBody::Flat(payload) => payload,
            _ => FlatPayload::new(),
        }
    }

    /// Refills the frame in place: header, compression marker, body and
    /// a fresh integrity tag.
    fn refill(&mut self, src: usize, compressed: bool, payload: FlatPayload) {
        self.src = src;
        self.compressed = compressed;
        self.body = FrameBody::Flat(payload);
        self.crc = crc_of(&self.body);
    }

    /// Replaces the body *without* re-tagging — the fault injector's
    /// model of in-flight corruption. The stale CRC is what lets the
    /// receiver detect it.
    pub(crate) fn with_perturbed_body(&self, body: FrameBody) -> Self {
        WireFrame {
            src: self.src,
            crc: self.crc,
            compressed: self.compressed,
            body,
        }
    }

    /// Post-compression payload bytes of each packet this frame occupies
    /// on the wire (a loopback body counts raw `f32` MTU packets, the
    /// segments the in-process transport's flat image has).
    pub fn packet_wire_bytes(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        self.packet_wire_bytes_into(&mut sizes);
        sizes
    }

    /// [`packet_wire_bytes`](Self::packet_wire_bytes) into a caller-held
    /// buffer (cleared first, capacity kept), so a per-frame link charge
    /// allocates nothing once the buffer has warmed.
    pub(crate) fn packet_wire_bytes_into(&self, sizes: &mut Vec<u64>) {
        sizes.clear();
        match &self.body {
            FrameBody::Loopback(values) => sizes.extend(
                values
                    .chunks(VALUES_PER_PACKET)
                    .map(|c| (c.len() * 4) as u64),
            ),
            FrameBody::Packets(packets) => {
                sizes.extend(packets.iter().map(|p| p.payload.len() as u64));
            }
            FrameBody::Flat(payload) => {
                sizes.extend(payload.segs.iter().map(|s| s.wire_bytes as u64));
            }
        }
    }
}

/// Recycled wire-frame buffers for exchange loops.
///
/// An exchange keeps up to its pipeline depth in frames in flight
/// (chunk `k+1` encoding while chunk `k` is on the wire); checking
/// frames out of the arena and recycling them after delivery means the
/// frame bodies — the flat wire buffers — are allocated once and reused
/// for every subsequent leg via
/// [`Fabric::encode_into`]. One free list serves every endpoint (a
/// fabric's frames all have the same body shape), so an exchange holds
/// exactly as many frames as it ever had in flight at once.
#[derive(Debug, Default)]
pub struct FrameArena {
    free: Vec<WireFrame>,
}

impl FrameArena {
    /// Takes the most recently recycled frame (or an empty one if none
    /// is free). The caller owns it until [`recycle`](Self::recycle).
    pub fn checkout(&mut self) -> WireFrame {
        self.free.pop().unwrap_or_else(WireFrame::empty)
    }

    /// Returns a delivered frame so its body allocation is reused by the
    /// next checkout.
    pub fn recycle(&mut self, frame: WireFrame) {
        self.free.push(frame);
    }
}

/// A delivery failure at a fabric endpoint.
///
/// Transports are typed about what they carry: both move flat wire
/// images, but only the NIC datapath can read engine-compressed
/// segments. Handing a frame to the wrong transport — or bytes the
/// receiver cannot decode — is reported here instead of tearing down
/// the process, so
/// an exchange can surface the fault through its `Result` and the
/// trainer can recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A frame of the wrong wire format reached this fabric (e.g.
    /// engine-compressed segments delivered to the in-process
    /// transport).
    FrameMismatch {
        /// The transport that rejected the frame.
        fabric: &'static str,
        /// The frame variant it was handed.
        got: &'static str,
    },
    /// The receive-side NIC could not decode a compressed payload
    /// (truncated stream, or peer engines programmed to a different
    /// error bound).
    Decode(DecodeError),
    /// The frame body no longer matches its CRC-32 tag — in-flight
    /// corruption detected before the bytes reached the decoder.
    Integrity {
        /// The frame's source endpoint.
        src: usize,
    },
    /// A link kept failing past its bounded retransmit budget.
    RetriesExhausted {
        /// Sending endpoint.
        src: usize,
        /// Receiving endpoint.
        dst: usize,
        /// Transmission attempts made (original plus retransmits).
        attempts: u32,
    },
    /// The endpoint has crashed (one-shot fault): no traffic can be
    /// sent to or from it until the collective is re-stitched around it.
    EndpointDown {
        /// The crashed endpoint.
        endpoint: usize,
    },
}

impl FabricError {
    /// Whether the degradation ladder can retry this failure with an
    /// uncompressed re-encode: integrity/decode/budget failures are
    /// link-level trouble a plain resend can clear; a frame handed to
    /// the wrong transport or a crashed endpoint cannot be retried.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            FabricError::Decode(_)
                | FabricError::Integrity { .. }
                | FabricError::RetriesExhausted { .. }
        )
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::FrameMismatch { fabric, got } => {
                write!(f, "{fabric} fabric received a {got} frame")
            }
            FabricError::Decode(e) => write!(f, "receive-side decode failed: {e}"),
            FabricError::Integrity { src } => {
                write!(
                    f,
                    "frame from endpoint {src} failed its CRC-32 integrity check"
                )
            }
            FabricError::RetriesExhausted { src, dst, attempts } => {
                write!(
                    f,
                    "link {src} -> {dst} still failing after {attempts} transmission attempts"
                )
            }
            FabricError::EndpointDown { endpoint } => {
                write!(f, "endpoint {endpoint} has crashed")
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for FabricError {
    fn from(e: DecodeError) -> Self {
        FabricError::Decode(e)
    }
}

/// Running totals of what crossed a fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Point-to-point transfers performed.
    pub transfers: u64,
    /// Application payload bytes entering the fabric (pre-compression).
    pub payload_bytes: u64,
    /// Payload bytes on the wire (post-compression).
    pub wire_bytes: u64,
    /// Packets sent.
    pub packets: u64,
    /// Compression + decompression engine cycles spent.
    pub engine_cycles: u64,
    /// Network link/serialization latency charged, nanoseconds
    /// (nonzero only behind a [`TimedFabric`]).
    pub link_latency_ns: u64,
}

impl FabricStats {
    /// Achieved wire compression ratio (1.0 when nothing was sent).
    pub fn wire_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / self.wire_bytes as f64
        }
    }
}

/// A worker-indexed transport: endpoints send and receive ToS-tagged
/// payloads, and the fabric accounts wire volume, engine time, and link
/// latency.
///
/// The split into [`encode`](Fabric::encode) /
/// [`charge`](Fabric::charge) / [`deliver`](Fabric::deliver) mirrors a
/// real transport — serialize at the sender, cross the link, decode at
/// the receiver — and lets the chunked executor keep several encoded
/// frames in flight between the two ends. Callers moving one block at a
/// time use the [`transfer`](Fabric::transfer) convenience wrappers.
pub trait Fabric: Send {
    /// Number of endpoints (workers plus any aggregator).
    fn endpoints(&self) -> usize;

    /// Encodes `values` for the wire at endpoint `src` **into** a
    /// caller-owned frame — the zero-copy seam: production transports
    /// serialize straight into the frame's existing flat wire buffer
    /// instead of
    /// materializing a fresh one per leg. Pair with a [`FrameArena`] to
    /// recycle frames across exchange legs.
    fn encode_into(&mut self, src: usize, values: &[f32], kind: PayloadKind, frame: &mut WireFrame);

    /// Encodes `values` at endpoint `src` into a fresh frame:
    /// [`encode_into`](Fabric::encode_into) on [`WireFrame::empty`].
    fn encode(&mut self, src: usize, values: &[f32], kind: PayloadKind) -> WireFrame {
        let mut frame = WireFrame::empty();
        self.encode_into(src, values, kind, &mut frame);
        frame
    }

    /// Charges transport latency for moving `frame` from `src` to `dst`.
    /// Untimed fabrics charge nothing.
    fn charge(&mut self, _src: usize, _dst: usize, _frame: &WireFrame) {}

    /// Charges the *uplink half* of a transfer: `endpoint` pushes `frame`
    /// as far as its first-hop switch and no further. The
    /// switch-resident aggregation mode uses this for contribution legs,
    /// whose traffic terminates at the reduce unit instead of descending
    /// to an aggregation host. Untimed fabrics charge nothing.
    fn charge_to_switch(&mut self, _endpoint: usize, _frame: &WireFrame) {}

    /// Charges the *downlink half* of a transfer: the first-hop switch
    /// pushes `frame` down to `endpoint`. The switch-resident
    /// aggregation mode uses this for the result distribution legs.
    /// Untimed fabrics charge nothing.
    fn charge_from_switch(&mut self, _endpoint: usize, _frame: &WireFrame) {}

    /// Decodes `frame` at endpoint `dst` and hands the received values
    /// to `sink` (borrowed from the transport's reused receive buffer).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if the frame's wire format does not match
    /// this transport, or the receive-side decode fails.
    fn deliver(
        &mut self,
        dst: usize,
        frame: &WireFrame,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError>;

    /// Folds `frame`'s decoded values into `acc` *at the switch* — the
    /// in-network reduction step of the switch-resident aggregation
    /// mode. The fold is plain `f32` adds in call order, so a gather
    /// performed through this hook is bit-identical to the host-side
    /// aggregator folding the same delivered values.
    ///
    /// The default decodes through [`deliver`](Fabric::deliver) at the
    /// frame's source endpoint (a pure software model); [`NicFabric`]
    /// overrides it with the `inceptionn-nicsim` reduce unit so switch
    /// cycles and reduced bytes are observable.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] on an integrity or decode failure. The
    /// accumulator may then hold a partial fold — like real reduce
    /// hardware, recovery is restarting the exchange, not the packet.
    fn switch_fold(&mut self, acc: &mut [f32], frame: &WireFrame) -> Result<(), FabricError> {
        let mut at = 0usize;
        self.deliver(frame.src(), frame, &mut |b| {
            for &v in b {
                acc[at] += v;
                at += 1;
            }
        })
    }

    /// Allocates the gather accumulator the switch-resident strategies
    /// fold into. The default is a dense `f32` sum (every fabric can
    /// fold into that); fabrics running the homomorphic sketch codec
    /// override this to hand back a compressed-domain
    /// [`SketchSwitchUnit`], so contributions fold without ever
    /// decompressing.
    fn switch_accum(&mut self, len: usize) -> SwitchAccum {
        SwitchAccum::dense(len)
    }

    /// Folds `frame` into a [`SwitchAccum`] at the switch. The dense
    /// arm dispatches through [`switch_fold`](Fabric::switch_fold), so
    /// decorators and test fabrics that override only `switch_fold`
    /// keep intercepting every dense fold. A sketch accumulator
    /// reaching a fabric that did not create one is a wiring bug and
    /// surfaces as a non-recoverable frame mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] on integrity/decode failure (partial
    /// folds stay committed, as with `switch_fold`) or on a sketch
    /// accumulator this fabric cannot fold into.
    fn switch_fold_into(
        &mut self,
        acc: &mut SwitchAccum,
        frame: &WireFrame,
    ) -> Result<(), FabricError> {
        match acc {
            SwitchAccum::Dense(values) => self.switch_fold(values, frame),
            SwitchAccum::Sketch(_) => Err(FabricError::FrameMismatch {
                fabric: "dense-fold fabric",
                got: "sketch accumulator",
            }),
        }
    }

    /// Totals accumulated so far.
    fn stats(&self) -> FabricStats;

    /// Full transfer with a borrowing sink: encode at `src`, charge the
    /// link, deliver at `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if delivery fails (see
    /// [`deliver`](Fabric::deliver)).
    fn transfer_with(
        &mut self,
        src: usize,
        dst: usize,
        values: &[f32],
        kind: PayloadKind,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError> {
        let frame = self.encode(src, values, kind);
        self.charge(src, dst, &frame);
        self.deliver(dst, &frame, sink)
    }

    /// Transfers a gradient payload and returns the received values.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if delivery fails (see
    /// [`deliver`](Fabric::deliver)).
    fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        values: &[f32],
    ) -> Result<Vec<f32>, FabricError> {
        let mut out = Vec::with_capacity(values.len());
        self.transfer_with(src, dst, values, PayloadKind::Gradient, &mut |b| {
            out.extend_from_slice(b)
        })?;
        Ok(out)
    }

    /// Transfers a plain (never-compressed) payload and returns the
    /// received values.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if delivery fails (see
    /// [`deliver`](Fabric::deliver)).
    fn transfer_plain(
        &mut self,
        src: usize,
        dst: usize,
        values: &[f32],
    ) -> Result<Vec<f32>, FabricError> {
        let mut out = Vec::with_capacity(values.len());
        self.transfer_with(src, dst, values, PayloadKind::Plain, &mut |b| {
            out.extend_from_slice(b)
        })?;
        Ok(out)
    }

    /// Applies this fabric's gradient wire round trip locally at
    /// `endpoint` — the values an endpoint would receive from itself —
    /// without putting anything on the wire. Collectives use this where
    /// a node keeps its own block (e.g. a group leader rebroadcasting),
    /// so the phantom self-transfer neither inflates the wire counters
    /// nor breaks bit-identity with peers that received the same block
    /// through the fabric.
    ///
    /// The default goes through a full `transfer` (and therefore *does*
    /// count a transfer); the production fabrics override it stat-free.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if the underlying round trip fails.
    fn self_roundtrip(&mut self, endpoint: usize, values: &[f32]) -> Result<Vec<f32>, FabricError> {
        self.transfer(endpoint, endpoint, values)
    }

    /// Drains any buffered telemetry into the recorder this fabric was
    /// built with. A no-op for fabrics without instrumentation.
    fn flush_obs(&mut self) {}

    /// Advances the fabric's iteration clock. Fault decorators use this
    /// to arm iteration-indexed faults (e.g. a one-shot endpoint crash);
    /// plain transports ignore it.
    fn begin_iteration(&mut self, _iteration: u64) {}

    /// Notes that the `src -> dst` leg was renegotiated down to the
    /// uncompressed encoding after repeated decode failures. Default:
    /// ignored; fault decorators count it.
    fn note_degraded(&mut self, _src: usize, _dst: usize) {}

    /// Fault-injection and recovery counters. All zero for fabrics
    /// without a fault decorator in the stack.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// The switch-side gather accumulator of the switch-resident
/// strategies: either a dense `f32` running sum (the historical fold
/// target, and what plain-restart recovery always uses so the exact
/// re-gather never quantizes), or the homomorphic sketch reduce unit
/// folding compressed frames natively.
#[derive(Debug)]
pub enum SwitchAccum {
    /// Dense `f32` sum; contributions decode (if needed) and add.
    Dense(Vec<f32>),
    /// Compressed-domain fixed-point accumulator; contributions fold
    /// as sketch frames without decompressing.
    Sketch(SketchSwitchUnit),
}

impl SwitchAccum {
    /// A zeroed dense accumulator of `len` lanes.
    pub fn dense(len: usize) -> Self {
        SwitchAccum::Dense(vec![0.0; len])
    }

    /// Gradient lane count.
    pub fn len(&self) -> usize {
        match self {
            SwitchAccum::Dense(v) => v.len(),
            SwitchAccum::Sketch(u) => u.len(),
        }
    }

    /// Whether the accumulator has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the accumulated sum (codec configuration survives).
    pub fn reset(&mut self) {
        match self {
            SwitchAccum::Dense(v) => v.fill(0.0),
            SwitchAccum::Sketch(u) => u.reset(),
        }
    }

    /// Materializes the folded sum into `out` — for the sketch arm,
    /// the one decompression of the whole gather.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` disagrees with the accumulator's lane
    /// count (a collective-layer bug).
    pub fn finish_into(&self, out: &mut [f32]) {
        match self {
            SwitchAccum::Dense(v) => {
                assert_eq!(out.len(), v.len(), "finish buffer lane mismatch");
                out.copy_from_slice(v);
            }
            SwitchAccum::Sketch(u) => u.finish_into(out),
        }
    }
}

/// The `key` dimension fabric counters carry: 0 gradient, 1 plain.
fn payload_kind_key(kind: PayloadKind) -> u32 {
    match kind {
        PayloadKind::Gradient => 0,
        PayloadKind::Plain => 1,
    }
}

/// Counts one transfer of `values` from `src` into `stats` and mirrors
/// it into the event buffer, stamped with the running transfer count,
/// so the obs totals are the same numbers as [`FabricStats`] by
/// construction — cross-checked (not merely trusted) in
/// `tests/obs_stack.rs`.
fn count_transfer(
    stats: &mut FabricStats,
    buf: &mut EventBuf,
    src: usize,
    kind: PayloadKind,
    values: &[f32],
    wire_bytes: u64,
    packets: u64,
) {
    let payload_bytes = (values.len() * 4) as u64;
    stats.transfers += 1;
    stats.payload_bytes += payload_bytes;
    stats.wire_bytes += wire_bytes;
    stats.packets += packets;
    if !buf.is_on() {
        return;
    }
    let track = src as u32;
    let key = payload_kind_key(kind);
    let ts = stats.transfers;
    buf.push(Event::count(
        labels::FABRIC_PAYLOAD_BYTES,
        Domain::Seq,
        track,
        key,
        ts,
        payload_bytes,
    ));
    buf.push(Event::count(
        labels::FABRIC_WIRE_BYTES,
        Domain::Seq,
        track,
        key,
        ts,
        wire_bytes,
    ));
    buf.push(Event::count(
        labels::FABRIC_PACKETS,
        Domain::Seq,
        track,
        key,
        ts,
        packets,
    ));
}

/// The gradient codec a fabric runs on the wire.
///
/// The first family (`Scalar`/`Burst`/`Parallel`) is the INCEPTIONN
/// FP-truncation *quantizer*. The three names are one codec: every
/// fabric runs each of them on the burst kernel, on the calling thread,
/// and `Parallel`'s `shards` is ignored. The names stay because the
/// repository benchmark selects `Parallel { shards: 0 }`; once it no
/// longer does, they fold into one selection.
/// `Sparse` and `Sketch` are different *compression families* with
/// their own wire layouts and semantics (see
/// `inceptionn_compress::{sparse, sketch}` and DESIGN.md "Compression
/// families"); they are not quantizers, and [`bound()`](Self::bound)
/// deliberately reports no error bound for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecSelection {
    /// Lossless: no codec in the loop.
    #[default]
    None,
    /// The INCEPTIONN quantizer (the same codec as `Burst`).
    Scalar(ErrorBound),
    /// The INCEPTIONN quantizer on the burst kernel.
    Burst(ErrorBound),
    /// The INCEPTIONN quantizer (the same codec as `Burst`).
    Parallel {
        /// Quantization error bound.
        bound: ErrorBound,
        /// Ignored: the codec runs on the calling thread.
        shards: usize,
    },
    /// Error-feedback sparsification: entries whose residual-corrected
    /// magnitude exceeds `2^-e` travel as exact `(index, f32)` pairs;
    /// everything withheld accumulates in a per-endpoint residual and
    /// drains on later iterations.
    Sparse {
        /// Transmit threshold `2^-e` on the residual-corrected
        /// magnitude.
        bound: ErrorBound,
        /// Optional top-k cap in per-mille of the block length
        /// (`0` = threshold only). Ties break by a seeded
        /// rank-keyed hash, so replay is byte-identical.
        top_per_mille: u16,
    },
    /// Lossless homomorphic count-sketch codec: frames add in the
    /// compressed domain, so the switch-resident reduce unit folds
    /// sketches natively without decompressing.
    Sketch {
        /// Fixed-point grid precision: values quantize to multiples of
        /// `2^-frac_bits` (the only lossy step; the frame itself is
        /// lossless).
        frac_bits: u8,
    },
}

/// Seed for the deterministic hash draws of the sparse tie-break and
/// the sketch cell hashes. A fixed crate-level constant: replay
/// determinism requires every run to agree on it, and worker rank is
/// mixed in per draw so workers still decorrelate.
pub const WIRE_CODEC_SEED: u64 = 0x1CEE_D5EE_D0DE_C0DE;

impl CodecSelection {
    /// The historical `Option<ErrorBound>` spelling: `Some` maps to the
    /// INCEPTIONN quantizer, `None` to lossless.
    pub fn from_bound(bound: Option<ErrorBound>) -> Self {
        match bound {
            Some(b) => CodecSelection::Parallel {
                bound: b,
                shards: 0,
            },
            None => CodecSelection::None,
        }
    }

    /// The quantization error bound in effect, if the selection is a
    /// member of the quantizer family. `Sparse` and `Sketch` are not
    /// quantizers — their loss is omission resp. grid rounding, neither
    /// of which the engine's per-value error bound describes — so they
    /// report `None` here just like the lossless selection. Callers
    /// that mean "is anything transforming the gradient?" must ask
    /// [`is_none()`](Self::is_none), not this.
    pub fn bound(self) -> Option<ErrorBound> {
        match self {
            CodecSelection::None => None,
            CodecSelection::Scalar(b) | CodecSelection::Burst(b) => Some(b),
            CodecSelection::Parallel { bound, .. } => Some(bound),
            CodecSelection::Sparse { .. } | CodecSelection::Sketch { .. } => None,
        }
    }

    /// Whether the selection is lossless.
    pub fn is_none(self) -> bool {
        self == CodecSelection::None
    }
}

/// The lossless/quantize shortcut, preserved for bit-exact baselines:
/// compression is the wire codec's whole-stream round trip, applied in
/// place, and every frame carries the NIC's bypass image of the result
/// (raw little-endian `f32` segments, one per MTU chunk), so wire bytes
/// and packets are the segmentation a NIC would put on the link.
#[derive(Debug, Clone)]
pub struct InProcessFabric {
    endpoints: usize,
    codec: WireCodec,
    stats: FabricStats,
    buf: EventBuf,
    /// Reused value buffer: an encode stages the quantized values in it,
    /// a delivery reassembles the received ones into it, so neither
    /// allocates in steady state.
    scratch: Vec<f32>,
}

impl InProcessFabric {
    /// The real constructor, reached through [`FabricBuilder`].
    pub(crate) fn assemble(endpoints: usize, codec: CodecSelection, recorder: &Recorder) -> Self {
        InProcessFabric {
            endpoints,
            codec: WireCodec::new(codec, endpoints),
            stats: FabricStats::default(),
            buf: recorder.buffer(),
            scratch: Vec::new(),
        }
    }

    /// Verifies `frame` and reads its raw segments into the scratch
    /// buffer. Engine-compressed segments are a frame from a transport
    /// this one cannot read: a wiring bug, not a wire fault.
    fn unframe(&mut self, frame: &WireFrame) -> Result<&[f32], FabricError> {
        if !frame.integrity_ok() {
            return Err(FabricError::Integrity { src: frame.src() });
        }
        let payload = flat_body(frame, "in-process")?;
        if payload.segs.iter().any(|s| s.compressed) {
            return Err(FabricError::FrameMismatch {
                fabric: "in-process",
                got: "compressed-segment",
            });
        }
        decode_raw_flat(payload, &mut self.scratch)?;
        Ok(&self.scratch)
    }
}

impl Fabric for InProcessFabric {
    fn endpoints(&self) -> usize {
        self.endpoints
    }

    fn encode_into(
        &mut self,
        src: usize,
        values: &[f32],
        kind: PayloadKind,
        frame: &mut WireFrame,
    ) {
        let compressed = kind == PayloadKind::Gradient && self.codec.is_on();
        let mut wire = frame.take_flat();
        if compressed {
            self.scratch.clear();
            self.scratch.extend_from_slice(values);
            self.codec.quantize_inplace(src, &mut self.scratch);
            encode_raw_flat(&self.scratch, &mut wire);
        } else {
            encode_raw_flat(values, &mut wire);
        }
        count_transfer(
            &mut self.stats,
            &mut self.buf,
            src,
            kind,
            values,
            wire.bytes.len() as u64,
            wire.segs.len() as u64,
        );
        frame.refill(src, compressed, wire);
    }

    fn deliver(
        &mut self,
        _dst: usize,
        frame: &WireFrame,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError> {
        sink(self.unframe(frame)?);
        Ok(())
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }

    fn self_roundtrip(&mut self, endpoint: usize, values: &[f32]) -> Result<Vec<f32>, FabricError> {
        Ok(self.codec.quantize(endpoint, values))
    }

    fn switch_accum(&mut self, len: usize) -> SwitchAccum {
        self.codec.switch_accum(len)
    }

    fn switch_fold_into(
        &mut self,
        acc: &mut SwitchAccum,
        frame: &WireFrame,
    ) -> Result<(), FabricError> {
        let unit = match acc {
            SwitchAccum::Dense(values) => return self.switch_fold(values, frame),
            SwitchAccum::Sketch(unit) => unit,
        };
        let values = self.unframe(frame)?;
        if !frame.is_compressed() {
            return Err(FabricError::FrameMismatch {
                fabric: "sketch switch unit",
                got: "plain flat frame",
            });
        }
        // Gradient values already round-tripped onto the codec grid, so
        // the unit's exact re-quantization reproduces the wire frame's
        // counts and the fold stays bit-identical with the NIC fabric's
        // native frame fold.
        unit.fold_values(values);
        Ok(())
    }

    fn begin_iteration(&mut self, _iteration: u64) {
        self.codec.begin_iteration();
    }

    fn flush_obs(&mut self) {
        self.buf.flush();
    }
}

/// The real datapath: every payload traverses the nicsim compression /
/// decompression engines MTU chunk by MTU chunk, so wire bytes are the
/// codec's actual encoding and engine cycles are accounted.
///
/// Each endpoint owns a [`NicPipeline`] (its NIC). Every frame carries
/// one [`FrameBody::Flat`] wire image; any other body is a typed
/// [`FabricError::FrameMismatch`]. Lossless mode marks segments as plain
/// traffic, which bypasses the engines but still ships the real
/// little-endian bytes.
#[derive(Debug, Clone)]
pub struct NicFabric {
    nics: Vec<NicPipeline>,
    codec: WireCodec,
    stats: FabricStats,
    buf: EventBuf,
    /// Reused receive-side value buffer: `deliver` reassembles into it
    /// and hands the sink a borrowed slice, so steady-state delivery
    /// allocates nothing (`&mut self` makes the reuse exclusive).
    scratch: Vec<f32>,
    /// Per-endpoint cumulative engine time, the cycle-domain clock the
    /// compress/decompress spans are stamped in.
    clock: Vec<u64>,
    /// Cumulative switch reduce-unit time, the clock the in-network
    /// aggregation spans are stamped in (one reduce unit per fabric —
    /// the mode folds at the workers' first-hop switch).
    switch_clock: u64,
}

impl NicFabric {
    /// The real constructor, reached through [`FabricBuilder`].
    pub(crate) fn assemble(endpoints: usize, codec: CodecSelection, recorder: &Recorder) -> Self {
        let codec = WireCodec::new(codec, endpoints);
        let cfg = codec.nic_config();
        NicFabric {
            nics: (0..endpoints).map(|_| NicPipeline::new(cfg)).collect(),
            codec,
            stats: FabricStats::default(),
            buf: recorder.buffer(),
            scratch: Vec::new(),
            clock: vec![0; endpoints],
            switch_clock: 0,
        }
    }

    /// Per-endpoint NIC statistics (packet and byte counters).
    pub fn nic_stats(&self, endpoint: usize) -> &inceptionn_nicsim::nic::NicStats {
        self.nics[endpoint].stats()
    }

    /// Makes one switch fold observable. The reduce unit's cycles belong
    /// to the switch, not to any endpoint's NIC engines, so they surface
    /// as `switch/reduce` spans on the switch clock rather than as
    /// engine-cycle stats.
    fn record_switch_fold(&mut self, src: usize, payload: &FlatPayload, cycles: u64) {
        if !self.buf.is_on() {
            return;
        }
        let track = src as u32;
        if cycles > 0 {
            self.buf.push(Event::complete(
                labels::SWITCH_REDUCE,
                Domain::Cycles,
                track,
                payload.segs.len() as u32,
                self.switch_clock,
                cycles,
            ));
        }
        self.buf.push(Event::count(
            labels::SWITCH_REDUCE_BYTES,
            Domain::Cycles,
            track,
            0,
            self.switch_clock,
            payload.wire_bytes(),
        ));
        self.switch_clock += cycles;
    }
}

impl Fabric for NicFabric {
    fn endpoints(&self) -> usize {
        self.nics.len()
    }

    fn encode_into(
        &mut self,
        src: usize,
        values: &[f32],
        kind: PayloadKind,
        frame: &mut WireFrame,
    ) {
        let bursts_before = self.nics[src].stats().tx_bursts;
        // Reuse the frame's flat wire buffer across legs; the datapath
        // appends its engine output straight into it, so a recycled
        // frame encodes with zero heap allocations.
        let mut wire = frame.take_flat();
        let trace = self.codec.encode_flat(
            &mut self.nics[src],
            src,
            values,
            kind == PayloadKind::Gradient,
            &mut wire,
        );
        count_transfer(
            &mut self.stats,
            &mut self.buf,
            src,
            kind,
            values,
            trace.wire_payload_bytes,
            trace.packets,
        );
        self.stats.engine_cycles += trace.engine_cycles;
        if self.buf.is_on() {
            let track = src as u32;
            if trace.engine_cycles > 0 {
                self.buf.push(Event::complete(
                    labels::NIC_COMPRESS,
                    Domain::Cycles,
                    track,
                    trace.packets as u32,
                    self.clock[src],
                    trace.engine_cycles,
                ));
            }
            let bursts = self.nics[src].stats().tx_bursts - bursts_before;
            if bursts > 0 {
                self.buf.push(Event::count(
                    labels::NIC_TX_BURSTS,
                    Domain::Cycles,
                    track,
                    0,
                    self.clock[src],
                    bursts,
                ));
            }
            self.clock[src] += trace.engine_cycles;
        }
        frame.refill(src, wire.is_compressed(), wire);
    }

    fn deliver(
        &mut self,
        dst: usize,
        frame: &WireFrame,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError> {
        if !frame.integrity_ok() {
            return Err(FabricError::Integrity { src: frame.src() });
        }
        let payload = flat_body(frame, "NIC")?;
        let bursts_before = self.nics[dst].stats().rx_bursts;
        let mut values = std::mem::take(&mut self.scratch);
        let decoded = self.codec.decode_flat(
            &mut self.nics[dst],
            payload,
            frame.is_compressed(),
            &mut values,
        );
        let cycles = match decoded {
            Ok(cycles) => cycles,
            Err(e) => {
                self.scratch = values;
                return Err(e.into());
            }
        };
        self.stats.engine_cycles += cycles;
        if self.buf.is_on() {
            let track = dst as u32;
            if cycles > 0 {
                self.buf.push(Event::complete(
                    labels::NIC_DECOMPRESS,
                    Domain::Cycles,
                    track,
                    payload.segs.len() as u32,
                    self.clock[dst],
                    cycles,
                ));
            }
            // The codec-frame decoders never enter the NIC pipeline, so
            // only engine-burst payloads move this counter.
            let bursts = self.nics[dst].stats().rx_bursts - bursts_before;
            if bursts > 0 {
                self.buf.push(Event::count(
                    labels::NIC_RX_BURSTS,
                    Domain::Cycles,
                    track,
                    0,
                    self.clock[dst],
                    bursts,
                ));
            }
            self.clock[dst] += cycles;
        }
        sink(&values);
        self.scratch = values;
        Ok(())
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }

    fn self_roundtrip(&mut self, endpoint: usize, values: &[f32]) -> Result<Vec<f32>, FabricError> {
        // Per-packet hardware compression composes to exactly the
        // whole-stream software round trip (pinned by the cross-fabric
        // tests), so a local round trip needs no engine time, packets,
        // or wire accounting.
        Ok(self.codec.quantize(endpoint, values))
    }

    fn switch_fold(&mut self, acc: &mut [f32], frame: &WireFrame) -> Result<(), FabricError> {
        if !frame.integrity_ok() {
            return Err(FabricError::Integrity { src: frame.src() });
        }
        let payload = flat_body(frame, "NIC")?;
        let cycles = self.codec.switch_fold(acc, payload)?;
        self.record_switch_fold(frame.src(), payload, cycles);
        Ok(())
    }

    fn switch_accum(&mut self, len: usize) -> SwitchAccum {
        self.codec.switch_accum(len)
    }

    fn switch_fold_into(
        &mut self,
        acc: &mut SwitchAccum,
        frame: &WireFrame,
    ) -> Result<(), FabricError> {
        let unit = match acc {
            SwitchAccum::Dense(values) => return self.switch_fold(values, frame),
            SwitchAccum::Sketch(unit) => unit,
        };
        if !frame.integrity_ok() {
            return Err(FabricError::Integrity { src: frame.src() });
        }
        let payload = flat_body(frame, "NIC")?;
        if !(frame.is_compressed() && payload.is_compressed()) {
            return Err(FabricError::FrameMismatch {
                fabric: "sketch switch unit",
                got: "plain flat frame",
            });
        }
        // Native in-network sketch fold: the switch adds integer cells
        // straight off the frame bytes, never widening to f32. The cycle
        // delta the unit reports is switch time, observable under the
        // same `switch/reduce` labels as the engine reduce unit.
        let before = unit.cycles();
        unit.fold_frame(&payload.bytes)?;
        let cycles = unit.cycles() - before;
        self.record_switch_fold(frame.src(), payload, cycles);
        Ok(())
    }

    fn begin_iteration(&mut self, _iteration: u64) {
        self.codec.begin_iteration();
    }

    fn flush_obs(&mut self) {
        self.buf.flush();
    }
}

/// Wraps another fabric and charges `inceptionn-netsim` link latency for
/// every transfer: per-packet serialization (post-compression sizes),
/// host injection pacing, and store-and-forward hops, via the closed
/// form of the star-network DES
/// ([`NetworkConfig::message_latency_ns`]).
pub struct TimedFabric {
    inner: Box<dyn Fabric>,
    net: NetworkConfig,
    /// Latency charged per source endpoint's uplink, nanoseconds.
    link_ns: Vec<u64>,
    /// Per-source-link time-varying rate schedule: congestion windows
    /// and straggler uplinks slow the base serialization latency down
    /// by a multiplicative factor over windows of link virtual time.
    schedules: Vec<LinkRateSchedule>,
    /// Compiled topology tree: attributes each charge's wire bytes to
    /// the switch tier the traffic crosses. Defaults to a flat
    /// single-switch tree (everything on tier 0).
    tiers: TierMap,
    total_ns: u64,
    /// Per-packet wire sizes of the frame being charged, reused across
    /// charges.
    sizes: Vec<u64>,
    buf: EventBuf,
}

impl fmt::Debug for TimedFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The wrapped fabric is a trait object, so only the timing state
        // is printable.
        f.debug_struct("TimedFabric")
            .field("net", &self.net)
            .field("link_ns", &self.link_ns)
            .field("total_ns", &self.total_ns)
            .finish_non_exhaustive()
    }
}

impl TimedFabric {
    /// The real constructor, reached through [`FabricBuilder`].
    pub(crate) fn assemble(
        inner: Box<dyn Fabric>,
        net: NetworkConfig,
        tiers: TierMap,
        recorder: &Recorder,
    ) -> Self {
        let endpoints = inner.endpoints();
        TimedFabric {
            inner,
            net,
            link_ns: vec![0; endpoints],
            schedules: vec![LinkRateSchedule::new(); endpoints],
            tiers,
            total_ns: 0,
            sizes: Vec::new(),
            buf: recorder.buffer(),
        }
    }

    /// Attributes one charge's wire bytes to topology tier `tier`,
    /// stamped at the charging link's current virtual time. Per-tier
    /// sums therefore reconcile with the wire counters by construction
    /// (fault-free; retransmits re-cross their tier).
    fn note_tier_bytes(&mut self, tier: usize, endpoint: usize, wire: u64) {
        if self.buf.is_on() {
            self.buf.push(Event::count(
                labels::FABRIC_TIER_BYTES,
                Domain::Net,
                tier as u32,
                endpoint as u32,
                self.link_ns[endpoint],
                wire,
            ));
        }
    }

    /// Charges one switch half-leg (uplink when `to_switch`, else
    /// downlink) against `endpoint`'s link and emits its occupancy span.
    fn charge_switch_leg(&mut self, endpoint: usize, frame: &WireFrame, to_switch: bool) {
        frame.packet_wire_bytes_into(&mut self.sizes);
        let wire: u64 = self.sizes.iter().sum();
        let base_ns = self.net.half_message_latency_ns(&self.sizes);
        // Only the uplink runs through the endpoint's rate schedule:
        // stragglers and congestion windows model the host's send side.
        let ns = if to_switch {
            self.schedules[endpoint].scaled_ns(self.link_ns[endpoint], base_ns)
        } else {
            base_ns
        };
        // Switch legs terminate in the fabric: the edge tier carries the
        // bytes, and the leg's `key == track` self-loop marks that no
        // remote endpoint is involved.
        self.note_tier_bytes(self.tiers.tiers() - 1, endpoint, wire);
        if self.buf.is_on() {
            let track = endpoint as u32;
            let at = self.link_ns[endpoint];
            self.buf.push(Event::complete(
                labels::NET_LINK,
                Domain::Net,
                track,
                track,
                at,
                ns,
            ));
            self.buf.push(Event::count(
                labels::NET_LEG_BYTES,
                Domain::Net,
                track,
                track,
                at,
                wire,
            ));
        }
        self.link_ns[endpoint] += ns;
        self.total_ns += ns;
    }

    /// Replaces the rate schedule of endpoint `src`'s uplink. Out-of-
    /// range endpoints are ignored.
    pub fn set_link_schedule(&mut self, src: usize, schedule: LinkRateSchedule) {
        if let Some(slot) = self.schedules.get_mut(src) {
            *slot = schedule;
        }
    }

    /// Latency charged against each source endpoint's link so far.
    pub fn per_link_latency_ns(&self) -> &[u64] {
        &self.link_ns
    }

    /// The network being modeled.
    pub fn network(&self) -> &NetworkConfig {
        &self.net
    }
}

impl Fabric for TimedFabric {
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
        frame.packet_wire_bytes_into(&mut self.sizes);
        let wire: u64 = self.sizes.iter().sum();
        // Tier attribution happens before the self-delivery early return:
        // a self-transfer's encoded bytes were counted by the wire
        // counters, so the edge tier absorbs them to keep the per-tier
        // sums equal to `fabric/wire_bytes`.
        self.note_tier_bytes(self.tiers.tier_of(src, dst), src, wire);
        if src == dst {
            // Self-delivery (e.g. a leader rebroadcasting to itself)
            // never touches the network.
            return;
        }
        let base_ns = self.net.message_latency_ns(&self.sizes);
        // A slowdown window (congestion, straggler uplink) stretches the
        // charge by the schedule's factor at the link's current virtual
        // time; the identity schedule is exactly the historical charge.
        let ns = self.schedules[src].scaled_ns(self.link_ns[src], base_ns);
        if self.buf.is_on() {
            // Stamped in the source link's virtual time: spans on one
            // track abut exactly because each leg occupies its uplink
            // for the charged duration.
            let track = src as u32;
            let key = dst as u32;
            let at = self.link_ns[src];
            self.buf.push(Event::complete(
                labels::NET_LINK,
                Domain::Net,
                track,
                key,
                at,
                ns,
            ));
            self.buf.push(Event::count(
                labels::NET_LEG_BYTES,
                Domain::Net,
                track,
                key,
                at,
                wire,
            ));
        }
        self.link_ns[src] += ns;
        self.total_ns += ns;
    }

    fn charge_to_switch(&mut self, endpoint: usize, frame: &WireFrame) {
        self.inner.charge_to_switch(endpoint, frame);
        self.charge_switch_leg(endpoint, frame, true);
    }

    fn charge_from_switch(&mut self, endpoint: usize, frame: &WireFrame) {
        self.inner.charge_from_switch(endpoint, frame);
        self.charge_switch_leg(endpoint, frame, false);
    }

    fn deliver(
        &mut self,
        dst: usize,
        frame: &WireFrame,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError> {
        self.inner.deliver(dst, frame, sink)
    }

    fn stats(&self) -> FabricStats {
        let mut stats = self.inner.stats();
        stats.link_latency_ns += self.total_ns;
        stats
    }

    fn self_roundtrip(&mut self, endpoint: usize, values: &[f32]) -> Result<Vec<f32>, FabricError> {
        self.inner.self_roundtrip(endpoint, values)
    }

    fn switch_fold(&mut self, acc: &mut [f32], frame: &WireFrame) -> Result<(), FabricError> {
        // The reduce unit spends switch cycles, not link time; timing of
        // the contribution leg was already charged by `charge_to_switch`.
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
        self.inner.switch_fold_into(acc, frame)
    }

    fn flush_obs(&mut self) {
        self.buf.flush();
        self.inner.flush_obs();
    }

    fn begin_iteration(&mut self, iteration: u64) {
        self.inner.begin_iteration(iteration);
    }

    fn note_degraded(&mut self, src: usize, dst: usize) {
        self.inner.note_degraded(src, dst);
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

/// User-facing fabric selector, consumed by `TrainerConfig` and the
/// experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// [`InProcessFabric`]: the fast bit-exact modeling shortcut.
    #[default]
    InProcess,
    /// [`NicFabric`]: payloads traverse the modeled NIC engines.
    Nic,
    /// [`TimedFabric`] over [`InProcessFabric`]: shortcut values plus
    /// 10 GbE latency accounting (uncompressed wire sizes).
    TimedInProcess,
    /// [`TimedFabric`] over [`NicFabric`]: the full co-design stack —
    /// real encoded bytes, engine cycles, and link latency.
    TimedNic,
}

impl TransportKind {
    /// Whether this kind wraps the base transport in a [`TimedFabric`].
    pub fn is_timed(self) -> bool {
        matches!(
            self,
            TransportKind::TimedInProcess | TransportKind::TimedNic
        )
    }

    /// All four kinds, for exhaustive property tests.
    pub const ALL: [TransportKind; 4] = [
        TransportKind::InProcess,
        TransportKind::Nic,
        TransportKind::TimedInProcess,
        TransportKind::TimedNic,
    ];
}

/// The one construction path for every fabric stack in this crate.
///
/// Pick the endpoints, then optionally a transport kind, codec,
/// recorder, network model, topology tree, and fault plan, and
/// [`build`](Self::build) assembles the full decorator stack in the
/// right order —
/// base transport → [`TimedFabric`] (timed kinds) → fault decorator
/// (outermost, so perturbed frames cross the timing layer like real
/// corrupted traffic).
///
/// # Examples
///
/// ```
/// use inceptionn_distrib::fabric::{Fabric, FabricBuilder, TransportKind};
/// use inceptionn_compress::ErrorBound;
///
/// let mut fabric = FabricBuilder::new(4)
///     .transport(TransportKind::TimedNic)
///     .compression(Some(ErrorBound::pow2(10)))
///     .build();
/// let out = fabric.transfer(0, 1, &[0.25, -0.5]).unwrap();
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FabricBuilder {
    endpoints: usize,
    transport: TransportKind,
    codec: CodecSelection,
    recorder: Recorder,
    network: Option<NetworkConfig>,
    topology: Option<Topology>,
    faults: Option<FaultPlan>,
    membership: MembershipSchedule,
}

impl FabricBuilder {
    /// Starts a builder for `endpoints` endpoints: in-process transport,
    /// lossless, untraced, default 10 GbE star, no faults.
    pub fn new(endpoints: usize) -> Self {
        FabricBuilder {
            endpoints,
            transport: TransportKind::default(),
            codec: CodecSelection::default(),
            recorder: Recorder::off(),
            network: None,
            topology: None,
            faults: None,
            membership: MembershipSchedule::new(),
        }
    }

    /// Selects the transport stack.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Selects the gradient codec.
    pub fn codec(mut self, codec: CodecSelection) -> Self {
        self.codec = codec;
        self
    }

    /// The historical `Option<ErrorBound>` compression knob: `Some`
    /// selects the INCEPTIONN codec at that bound, `None` lossless.
    pub fn compression(mut self, bound: Option<ErrorBound>) -> Self {
        self.codec = CodecSelection::from_bound(bound);
        self
    }

    /// Wires every layer of the stack to `recorder`.
    pub fn recorder(mut self, recorder: &Recorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// Overrides the network model for timed transports (default: the
    /// paper's 10 GbE star sized to the endpoint count). Ignored by
    /// untimed transports.
    pub fn network(mut self, net: NetworkConfig) -> Self {
        self.network = Some(net);
        self
    }

    /// Declares the topology tree the endpoints hang off. Timed
    /// transports attribute every charge's wire bytes to the switch tier
    /// the traffic crosses (`fabric/tier_bytes`, tier 0 = core); untimed
    /// transports have no charge step, so the declaration is inert
    /// there. Default: a flat single-switch tree (all traffic tier 0).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Arms deterministic fault injection: the built stack is wrapped in
    /// a fault decorator driving `plan`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms a typed membership schedule: crash events take endpoints
    /// down (every touching delivery fails with
    /// [`FabricError::EndpointDown`]) and join events revive them.
    /// Leave events are trainer-level and inert at the fabric layer.
    /// Armed alone, the schedule still wraps the stack in the fault
    /// decorator (with a clean plan) so liveness is enforced.
    pub fn membership(mut self, schedule: MembershipSchedule) -> Self {
        self.membership = schedule;
        self
    }

    /// Assembles the configured stack.
    pub fn build(self) -> Box<dyn Fabric> {
        let base: Box<dyn Fabric> = match self.transport {
            TransportKind::InProcess | TransportKind::TimedInProcess => Box::new(
                InProcessFabric::assemble(self.endpoints, self.codec, &self.recorder),
            ),
            TransportKind::Nic | TransportKind::TimedNic => Box::new(NicFabric::assemble(
                self.endpoints,
                self.codec,
                &self.recorder,
            )),
        };
        let timed: Box<dyn Fabric> = if self.transport.is_timed() {
            let net = self
                .network
                .unwrap_or_else(|| NetworkConfig::ten_gbe(self.endpoints.max(2)));
            let tiers = self
                .topology
                .as_ref()
                .map(Topology::tier_map)
                .unwrap_or_else(|| Topology::flat(self.endpoints.max(1)).tier_map());
            let mut timed = TimedFabric::assemble(base, net, tiers, &self.recorder);
            if let Some(plan) = &self.faults {
                for (src, schedule) in plan.link_schedules(self.endpoints) {
                    timed.set_link_schedule(src, schedule);
                }
            }
            Box::new(timed)
        } else {
            base
        };
        if self.faults.is_none() && self.membership.is_empty() {
            return timed;
        }
        let plan = self
            .faults
            .unwrap_or_else(|| FaultPlan::new(WIRE_CODEC_SEED));
        Box::new(FaultyFabric::decorate(
            timed,
            plan,
            self.membership,
            &self.recorder,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inceptionn_nicsim::{encode_payload_flat, NicConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gradients(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-0.1f32..0.1)).collect()
    }

    /// One selection per codec family a fabric can run: lossless,
    /// INCEPTIONN, sparse threshold, sparse top-k and sketch.
    fn every_codec() -> [CodecSelection; 5] {
        [
            CodecSelection::None,
            CodecSelection::Burst(ErrorBound::pow2(10)),
            CodecSelection::Sparse {
                bound: ErrorBound::pow2(6),
                top_per_mille: 0,
            },
            CodecSelection::Sparse {
                bound: ErrorBound::pow2(8),
                top_per_mille: 50,
            },
            CodecSelection::Sketch { frac_bits: 10 },
        ]
    }

    fn build_with(kind: TransportKind, endpoints: usize, codec: CodecSelection) -> Box<dyn Fabric> {
        FabricBuilder::new(endpoints)
            .transport(kind)
            .codec(codec)
            .build()
    }

    fn build(
        kind: TransportKind,
        endpoints: usize,
        compression: Option<ErrorBound>,
    ) -> Box<dyn Fabric> {
        build_with(kind, endpoints, CodecSelection::from_bound(compression))
    }

    #[test]
    fn lossless_transfer_is_identity_on_every_fabric() {
        let vals = gradients(1000, 1);
        for kind in TransportKind::ALL {
            let mut fabric = build(kind, 3, None);
            let out = fabric.transfer(0, 2, &vals).unwrap();
            assert_eq!(out, vals, "{kind:?} corrupted a lossless transfer");
            let out = fabric.transfer_plain(2, 1, &vals).unwrap();
            assert_eq!(out, vals, "{kind:?} corrupted a plain transfer");
        }
    }

    #[test]
    fn nic_fabric_matches_quantize_shortcut_bit_exactly() {
        let bound = ErrorBound::pow2(10);
        let vals = gradients(2000, 2);
        let mut shortcut = build(TransportKind::InProcess, 2, Some(bound));
        let mut nic = build(TransportKind::Nic, 2, Some(bound));
        assert_eq!(
            nic.transfer(0, 1, &vals).unwrap(),
            shortcut.transfer(0, 1, &vals).unwrap(),
            "per-packet hardware compression must compose to whole-stream quantization"
        );
    }

    #[test]
    fn nic_fabric_accounts_wire_volume_and_cycles() {
        let mut fabric = build(TransportKind::Nic, 2, Some(ErrorBound::pow2(10)));
        let vals = gradients(1448, 3);
        fabric.transfer(0, 1, &vals).unwrap();
        let stats = fabric.stats();
        assert_eq!(stats.transfers, 1);
        assert_eq!(stats.payload_bytes, 1448 * 4);
        assert_eq!(stats.packets, 4);
        assert!(stats.wire_bytes < stats.payload_bytes);
        assert!(stats.wire_ratio() > 1.5, "ratio {}", stats.wire_ratio());
        assert!(stats.engine_cycles > 0);
        assert_eq!(stats.link_latency_ns, 0, "untimed fabric charges nothing");
    }

    #[test]
    fn plain_payloads_never_touch_the_engines() {
        let mut fabric = NicFabric::assemble(
            2,
            CodecSelection::from_bound(Some(ErrorBound::pow2(6))),
            &Recorder::off(),
        );
        let vals = gradients(500, 4);
        let out = fabric.transfer_plain(0, 1, &vals).unwrap();
        assert_eq!(out, vals, "plain leg must be lossless");
        assert_eq!(fabric.stats().engine_cycles, 0);
        assert_eq!(fabric.nic_stats(0).compressed_packets, 0);
    }

    #[test]
    fn timed_fabric_charges_per_source_link() {
        let mut fabric = TimedFabric::assemble(
            Box::new(NicFabric::assemble(
                3,
                CodecSelection::from_bound(Some(ErrorBound::pow2(10))),
                &Recorder::off(),
            )),
            NetworkConfig::ten_gbe(3),
            Topology::flat(3).tier_map(),
            &Recorder::off(),
        );
        let vals = gradients(3000, 5);
        fabric.transfer(0, 1, &vals).unwrap();
        fabric.transfer(2, 0, &vals).unwrap();
        fabric.transfer(2, 1, &vals).unwrap();
        assert!(fabric.per_link_latency_ns()[0] > 0);
        assert_eq!(fabric.per_link_latency_ns()[1], 0);
        assert!(
            fabric.per_link_latency_ns()[2] > fabric.per_link_latency_ns()[0],
            "two sends should charge link 2 more than link 0's one"
        );
        let stats = fabric.stats();
        assert_eq!(
            stats.link_latency_ns,
            fabric.per_link_latency_ns().iter().sum::<u64>()
        );
        assert!(stats.engine_cycles > 0, "inner NIC stats must pass through");
    }

    #[test]
    fn compressed_transfers_charge_less_link_time_than_lossless() {
        let vals: Vec<f32> = gradients(100_000, 6).iter().map(|v| v * 1e-3).collect();
        let run = |compression| {
            let mut fabric = build(TransportKind::TimedNic, 2, compression);
            fabric.transfer(0, 1, &vals).unwrap();
            fabric.stats().link_latency_ns
        };
        let lossless = run(None);
        let compressed = run(Some(ErrorBound::pow2(12)));
        assert!(
            compressed * 2 < lossless,
            "compression should cut serialization time: {compressed} vs {lossless}"
        );
    }

    #[test]
    fn mismatched_frames_surface_typed_errors() {
        // Both transports ship flat wire images, so a lossless frame
        // crosses them either way. A body a transport cannot read is a
        // protocol bug the caller must see, not a process abort.
        let vals = gradients(16, 7);
        let mut in_proc = build(TransportKind::InProcess, 2, None);
        let mut nic = build(TransportKind::Nic, 2, None);
        let ours = in_proc.encode(0, &vals, PayloadKind::Gradient);
        let theirs = nic.encode(0, &vals, PayloadKind::Gradient);
        let mut got = Vec::new();
        nic.deliver(1, &ours, &mut |v| got = v.to_vec()).unwrap();
        assert_eq!(
            got, vals,
            "NIC fabric must read an in-process lossless frame"
        );
        in_proc
            .deliver(1, &theirs, &mut |v| got = v.to_vec())
            .unwrap();
        assert_eq!(
            got, vals,
            "in-process fabric must read a NIC lossless frame"
        );

        let inceptionn = build(TransportKind::Nic, 2, Some(ErrorBound::pow2(10))).encode(
            0,
            &vals,
            PayloadKind::Gradient,
        );
        let err = in_proc
            .deliver(1, &inceptionn, &mut |_| {})
            .expect_err("in-process fabric must reject engine-compressed segments");
        assert!(matches!(err, FabricError::FrameMismatch { .. }), "{err}");
        assert!(!err.is_recoverable());
        let loopback = WireFrame::loopback(0, vals, false);
        let err = in_proc
            .deliver(1, &loopback, &mut |_| {})
            .expect_err("in-process fabric must reject value bodies");
        assert!(matches!(err, FabricError::FrameMismatch { .. }), "{err}");
        let err = nic
            .deliver(1, &loopback, &mut |_| {})
            .expect_err("NIC fabric must reject value bodies");
        assert_eq!(err.to_string(), "NIC fabric received a loopback frame");
    }

    #[test]
    fn hostile_flat_bodies_surface_typed_errors_in_process() {
        // Every forged body is re-framed with a fresh CRC, so it passes
        // the gate and reaches the raw-segment reader, which must answer
        // with a typed error before any value reaches the sink.
        let vals = gradients(1000, 24);
        let mut in_proc = build(TransportKind::InProcess, 2, None);
        let frame = in_proc.encode(0, &vals, PayloadKind::Gradient);
        let FrameBody::Flat(good) = frame.body() else {
            panic!("in-process fabric must emit a flat body");
        };
        assert_eq!(good.segs.len(), 3);
        let forge = |edit: &dyn Fn(&mut FlatPayload)| {
            let mut payload = good.clone();
            edit(&mut payload);
            WireFrame::flat(0, payload)
        };
        let cases: [(&str, WireFrame, bool); 5] = [
            (
                "value count is not wire bytes / 4",
                forge(&|p| p.segs[1].value_count = u32::MAX),
                true,
            ),
            (
                "segment overruns the bytes",
                forge(&|p| {
                    p.segs[2].wire_bytes += 4;
                    p.segs[2].value_count += 1;
                }),
                true,
            ),
            ("trailing unclaimed byte", forge(&|p| p.bytes.push(0)), true),
            (
                "truncated raw segment",
                forge(&|p| p.truncate_seg(0, 7)),
                true,
            ),
            (
                "engine-compressed segment",
                forge(&|p| p.segs[1].compressed = true),
                false,
            ),
        ];
        for (what, bad, recoverable) in cases {
            let mut delivered = false;
            let err = in_proc
                .deliver(1, &bad, &mut |_| delivered = true)
                .expect_err(what);
            if recoverable {
                assert!(matches!(err, FabricError::Decode(_)), "{what}: {err}");
            } else {
                assert!(
                    matches!(err, FabricError::FrameMismatch { .. }),
                    "{what}: {err}"
                );
            }
            assert_eq!(err.is_recoverable(), recoverable, "{what}");
            assert!(!delivered, "{what} reached the sink");
        }
    }

    #[test]
    fn undecodable_packets_surface_decode_errors() {
        // Truncate a compressed packet and re-tag the frame (so the CRC
        // gate passes): the RX engines must report a typed decode
        // failure with the failure position. This models corruption that
        // happens *before* framing — e.g. a sender-side engine bug —
        // rather than in-flight damage, which the CRC gate catches.
        let mut fabric = build(TransportKind::Nic, 2, Some(ErrorBound::pow2(10)));
        let frame = fabric.encode(0, &gradients(64, 8), PayloadKind::Gradient);
        let FrameBody::Flat(payload) = frame.body() else {
            panic!("NIC fabric must emit a flat body");
        };
        let mut payload = payload.clone();
        payload.truncate_seg(0, payload.segs[0].wire_bytes as usize / 2);
        let err = fabric
            .deliver(1, &WireFrame::flat(0, payload), &mut |_| {})
            .expect_err("truncated payload must fail decode");
        assert!(matches!(err, FabricError::Decode(_)), "{err}");
    }

    #[test]
    fn in_flight_corruption_is_caught_by_the_crc_gate() {
        // Perturbing a body without re-tagging (what the fault injector
        // does) must surface as an integrity failure on every transport,
        // before any bytes reach a decoder or sink.
        let vals = gradients(64, 12);
        let mut nic = build(TransportKind::Nic, 2, Some(ErrorBound::pow2(10)));
        let frame = nic.encode(0, &vals, PayloadKind::Gradient);
        assert!(frame.integrity_ok());
        let FrameBody::Flat(payload) = frame.body() else {
            panic!("NIC fabric must emit a flat body");
        };
        let mut corrupted = payload.clone();
        corrupted.flip_bit(17);
        let bad = frame.with_perturbed_body(FrameBody::Flat(corrupted));
        assert!(!bad.integrity_ok());
        let err = nic
            .deliver(1, &bad, &mut |_| {})
            .expect_err("stale CRC must be rejected");
        assert_eq!(err, FabricError::Integrity { src: 0 });
        assert!(err.is_recoverable());

        let mut in_proc = build(TransportKind::InProcess, 2, None);
        let frame = in_proc.encode(0, &vals, PayloadKind::Gradient);
        let FrameBody::Flat(payload) = frame.body() else {
            panic!("in-process fabric must emit a flat body");
        };
        // Value 3's lowest mantissa bit, in its little-endian image.
        let mut flipped = payload.clone();
        flipped.flip_bit(3 * 32);
        let bad = frame.with_perturbed_body(FrameBody::Flat(flipped));
        let mut delivered = false;
        let err = in_proc
            .deliver(1, &bad, &mut |_| delivered = true)
            .expect_err("stale CRC must be rejected");
        assert_eq!(err, FabricError::Integrity { src: 0 });
        assert!(!delivered, "no bytes may reach the sink past the gate");
    }

    /// The fixed body the pinned CRC constants below were recorded over.
    fn ramp() -> Vec<f32> {
        (0..3001).map(|i| (i as f32 - 1500.0) / 16384.0).collect()
    }

    /// The NIC frame over [`ramp`], lossless (`None`) or through engines
    /// programmed to `bound`.
    fn nic_frame(bound: Option<ErrorBound>) -> WireFrame {
        let mut tx = NicPipeline::new(NicConfig {
            bound: bound.unwrap_or_default(),
            ..NicConfig::default()
        });
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut tx, &ramp(), bound.is_some(), &mut flat);
        WireFrame::flat(2, flat)
    }

    #[test]
    fn crc_values_are_pinned_per_body_kind() {
        // Recorded with the byte-at-a-time table loop feeding `crc_of`
        // one field per `update` (commit 2df0e3c). A kernel differential
        // cannot see a change in how `crc_of` serialises a body; these
        // constants can.
        assert_eq!(WireFrame::empty().crc(), 0);
        assert_eq!(WireFrame::loopback(2, ramp(), true).crc(), 0x2496_3134);
        assert_eq!(nic_frame(None).crc(), 0xDF2B_1E82);
        // The in-process transport ships the NIC's bypass image byte for
        // byte, so its lossless frame carries the NIC lossless pin.
        let in_proc =
            build(TransportKind::InProcess, 3, None).encode(2, &ramp(), PayloadKind::Gradient);
        assert_eq!(in_proc.crc(), 0xDF2B_1E82);
        let nic = nic_frame(None);
        let (FrameBody::Flat(ours), FrameBody::Flat(theirs)) = (in_proc.body(), nic.body()) else {
            panic!("both transports must emit a flat body");
        };
        assert_eq!(ours.segs, theirs.segs);
        assert_eq!(ours.bytes, theirs.bytes);
        let flat = nic_frame(Some(ErrorBound::pow2(8)));
        assert!(flat.is_compressed());
        assert_eq!(flat.crc(), 0x76DD_4AA5);
    }

    #[test]
    fn a_single_flipped_bit_anywhere_in_a_body_is_detected() {
        // Positions chosen against how `crc_of` feeds the kernel: the
        // first and last byte, the sub-16-byte tail of the final run, a
        // staged segment descriptor, and the two values either side of
        // the 1024-value loopback staging boundary.
        fn assert_detected(fabric: &mut dyn Fabric, good: &WireFrame, body: FrameBody, at: &str) {
            let bad = good.with_perturbed_body(body);
            assert!(!bad.integrity_ok(), "flip at {at} went unnoticed");
            let mut delivered = false;
            let err = fabric
                .deliver(1, &bad, &mut |_| delivered = true)
                .expect_err("stale CRC must be rejected");
            assert_eq!(err, FabricError::Integrity { src: 2 }, "flip at {at}");
            assert!(!delivered, "flip at {at} reached the sink");
        }

        let mut nic = build(TransportKind::Nic, 3, None);
        let frame = nic_frame(None);
        nic.deliver(1, &frame, &mut |_| {}).expect("intact frame");
        let FrameBody::Flat(payload) = frame.body() else {
            panic!("flat frame expected");
        };
        let len = payload.bytes.len();
        assert_eq!(len % 16, 4, "the body must end in a sub-16-byte tail");
        for (byte, at) in [(0, "first byte"), (len - 1, "last byte"), (len - 3, "tail")] {
            let mut flipped = payload.clone();
            flipped.flip_bit(byte * 8 + 5);
            assert_detected(&mut *nic, &frame, FrameBody::Flat(flipped), at);
        }
        let mut flipped = payload.clone();
        flipped.segs[4].value_count ^= 1;
        assert_detected(&mut *nic, &frame, FrameBody::Flat(flipped), "descriptor");

        let mut in_proc = build(TransportKind::InProcess, 3, None);
        let frame = WireFrame::loopback(2, ramp(), false);
        assert!(frame.integrity_ok(), "intact frame");
        for i in [0, 1023, 1024, 3000] {
            let mut flipped = ramp();
            flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << 9));
            let at = format!("value {i}");
            assert_detected(&mut *in_proc, &frame, FrameBody::Loopback(flipped), &at);
        }
    }

    #[test]
    fn inceptionn_selection_matches_the_scalar_oracle() {
        // The fabric runs the burst kernel; the scalar reference codec
        // is the specification its values must equal.
        let bound = ErrorBound::pow2(10);
        let vals = gradients(5000, 13);
        let mut fabric = FabricBuilder::new(2)
            .codec(CodecSelection::Burst(bound))
            .build();
        let out = fabric.transfer(0, 1, &vals).unwrap();
        assert_eq!(
            out,
            inceptionn_compress::InceptionnCodec::new(bound).quantize(&vals)
        );
        assert_ne!(out, vals, "the bound must actually quantize");
    }

    #[test]
    fn sparse_and_sketch_codecs_are_transport_invariant() {
        // The compression families must deliver the same bits whether
        // the wire is the in-process shortcut or the modeled NIC path:
        // the shortcut's in-place apply, the NIC's encode/decode frame
        // trip, and the timed wrappers all agree per codec. Two
        // back-to-back transfers double as a residual-state check — the
        // second sparse frame depends on what the first one banked. The
        // lossless and INCEPTIONN selections ride along as controls.
        let vals = gradients(4000, 21);
        for sel in every_codec() {
            let mut reference: Option<[Vec<f32>; 2]> = None;
            for kind in TransportKind::ALL {
                let mut fabric = build_with(kind, 2, sel);
                fabric.begin_iteration(0);
                let first = fabric.transfer(0, 1, &vals).unwrap();
                fabric.begin_iteration(1);
                let second = fabric.transfer(0, 1, &vals).unwrap();
                match &reference {
                    None => {
                        assert_eq!(
                            first == vals,
                            sel.is_none(),
                            "{sel:?} must be lossy on this input exactly when it is a codec"
                        );
                        reference = Some([first, second]);
                    }
                    Some([f, s]) => {
                        assert_eq!(&first, f, "{sel:?} first transfer diverged on {kind:?}");
                        assert_eq!(&second, s, "{sel:?} second transfer diverged on {kind:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_self_roundtrip_advances_the_residual_like_a_transfer() {
        // A sparse self round trip is stat-free but not state-free: it
        // must consume an encode leg exactly as a wire transfer would,
        // so a leader that keeps its own block stays bit-identical to
        // peers that received it through the fabric.
        let vals = gradients(2000, 22);
        let sel = CodecSelection::Sparse {
            bound: ErrorBound::pow2(6),
            top_per_mille: 0,
        };
        for kind in TransportKind::ALL {
            // The leg cursor rewinds each iteration, so the second
            // iteration's encode reuses leg 0 and sees what the first
            // one banked there.
            let mut wired = FabricBuilder::new(2).transport(kind).codec(sel).build();
            wired.begin_iteration(0);
            let w1 = wired.transfer(0, 0, &vals).unwrap();
            wired.begin_iteration(1);
            let w2 = wired.transfer(0, 0, &vals).unwrap();
            let mut local = FabricBuilder::new(2).transport(kind).codec(sel).build();
            local.begin_iteration(0);
            let l1 = local.self_roundtrip(0, &vals).unwrap();
            local.begin_iteration(1);
            let l2 = local.self_roundtrip(0, &vals).unwrap();
            assert_eq!(l1, w1, "{kind:?} first self round trip diverged");
            assert_eq!(
                l2, w2,
                "{kind:?} second self round trip must see the banked residual"
            );
            assert_ne!(l1, l2, "error feedback must change the second leg");
            assert_eq!(
                local.stats(),
                FabricStats::default(),
                "{kind:?} self round trip must not count wire traffic"
            );
        }
    }

    #[test]
    fn link_schedules_stretch_timed_charges() {
        let vals = gradients(3000, 14);
        let baseline = {
            let mut f = build(TransportKind::TimedNic, 2, None);
            f.transfer(0, 1, &vals).unwrap();
            f.stats().link_latency_ns
        };
        let mut slowed = TimedFabric::assemble(
            Box::new(NicFabric::assemble(
                2,
                CodecSelection::None,
                &Recorder::off(),
            )),
            NetworkConfig::ten_gbe(2),
            Topology::flat(2).tier_map(),
            &Recorder::off(),
        );
        slowed.set_link_schedule(0, LinkRateSchedule::always(3.0));
        slowed.transfer(0, 1, &vals).unwrap();
        let slow_ns = slowed.stats().link_latency_ns;
        assert!(
            slow_ns > baseline * 2 && slow_ns <= baseline * 3 + 1,
            "3x straggler link should charge ~3x: {slow_ns} vs {baseline}"
        );
        // The other direction is unaffected.
        slowed.transfer(1, 0, &vals).unwrap();
        assert_eq!(slowed.per_link_latency_ns()[1], baseline);
    }

    #[test]
    fn zero_length_payloads_are_free() {
        for kind in TransportKind::ALL {
            let mut fabric = build(kind, 2, Some(ErrorBound::pow2(8)));
            let out = fabric.transfer(0, 1, &[]).unwrap();
            assert!(out.is_empty());
            let stats = fabric.stats();
            assert_eq!(stats.packets, 0, "{kind:?}");
            assert_eq!(stats.link_latency_ns, 0, "{kind:?}");
        }
    }

    #[test]
    fn self_roundtrip_matches_a_self_transfer_without_counting_one() {
        let vals = gradients(3000, 9);
        for sel in every_codec() {
            for kind in TransportKind::ALL {
                let mut through = build_with(kind, 2, sel);
                let received = through.transfer(0, 0, &vals).unwrap();
                let mut local = build_with(kind, 2, sel);
                let out = local.self_roundtrip(0, &vals).unwrap();
                assert_eq!(
                    out, received,
                    "{kind:?} {sel:?} self round trip diverged from the wire"
                );
                assert_eq!(
                    local.stats(),
                    FabricStats::default(),
                    "{kind:?} {sel:?} self round trip must not count wire traffic"
                );
            }
        }
    }

    #[test]
    fn recorded_counters_bit_match_fabric_stats() {
        let vals = gradients(3000, 10);
        for kind in TransportKind::ALL {
            let rec = Recorder::on();
            let mut fabric = FabricBuilder::new(3)
                .transport(kind)
                .compression(Some(ErrorBound::pow2(10)))
                .recorder(&rec)
                .build();
            fabric.transfer(0, 1, &vals).unwrap();
            fabric.transfer(1, 2, &vals).unwrap();
            fabric.transfer_plain(2, 0, &vals).unwrap();
            fabric.flush_obs();
            let stats = fabric.stats();
            let summary = rec.finish().summary();
            assert_eq!(summary.total_transfers(), stats.transfers, "{kind:?}");
            assert_eq!(
                summary.total_payload_bytes(),
                stats.payload_bytes,
                "{kind:?}"
            );
            assert_eq!(summary.total_wire_bytes(), stats.wire_bytes, "{kind:?}");
            assert_eq!(summary.total_packets(), stats.packets, "{kind:?}");
            assert_eq!(
                summary.total_engine_cycles(),
                stats.engine_cycles,
                "{kind:?}"
            );
            assert_eq!(summary.total_link_ns(), stats.link_latency_ns, "{kind:?}");
        }
    }

    #[test]
    fn switch_fold_matches_the_host_gather_fold_bit_exactly() {
        // The in-network reduction must be indistinguishable (in values)
        // from delivering every contribution to a host and folding there
        // in the same worker order — the property that lets the trainer
        // swap the aggregation mode without perturbing training.
        let grads: Vec<Vec<f32>> = (0..3).map(|w| gradients(1500, 20 + w as u64)).collect();
        for sel in every_codec() {
            for kind in TransportKind::ALL {
                let mut host_fabric = build_with(kind, 4, sel);
                let mut host = vec![0.0f32; 1500];
                for (w, g) in grads.iter().enumerate() {
                    let out = host_fabric.transfer(w, 3, g).unwrap();
                    for (a, v) in host.iter_mut().zip(out) {
                        *a += v;
                    }
                }
                let mut fabric = build_with(kind, 4, sel);
                let mut acc = vec![0.0f32; 1500];
                for (w, g) in grads.iter().enumerate() {
                    let frame = fabric.encode(w, g, PayloadKind::Gradient);
                    fabric.charge_to_switch(w, &frame);
                    fabric.switch_fold(&mut acc, &frame).unwrap();
                }
                assert_eq!(acc, host, "{kind:?} {sel:?}");
            }
        }
    }

    #[test]
    fn switch_half_legs_split_the_full_message_charge() {
        let vals = gradients(50_000, 21);
        let mut full = build(TransportKind::TimedNic, 2, None);
        full.transfer(0, 1, &vals).unwrap();
        let full_ns = full.stats().link_latency_ns;
        let mut half = build(TransportKind::TimedNic, 2, None);
        let frame = half.encode(0, &vals, PayloadKind::Gradient);
        half.charge_to_switch(0, &frame);
        let up_ns = half.stats().link_latency_ns;
        assert!(
            up_ns > 0 && up_ns < full_ns,
            "one half-leg must cost less than the full path: {up_ns} vs {full_ns}"
        );
        half.charge_from_switch(1, &frame);
        let both_ns = half.stats().link_latency_ns;
        assert_eq!(
            both_ns,
            2 * up_ns,
            "identity schedules make the two half-legs symmetric"
        );
    }

    #[test]
    fn tier_accounting_reconciles_with_wire_counters_at_every_depth() {
        let vals = gradients(2000, 22);
        for topo in [
            Topology::flat(4),
            Topology::two_tier(2, 2),
            Topology::uniform(&[2, 2, 1]),
        ] {
            let rec = Recorder::on();
            let mut fabric = FabricBuilder::new(4)
                .transport(TransportKind::TimedNic)
                .compression(Some(ErrorBound::pow2(10)))
                .topology(topo.clone())
                .recorder(&rec)
                .build();
            fabric.transfer(0, 3, &vals).unwrap(); // crosses the core
            fabric.transfer(0, 1, &vals).unwrap(); // same rack on deep trees
            fabric.transfer_plain(2, 2, &vals).unwrap(); // self → edge tier
            let frame = fabric.encode(1, &vals, PayloadKind::Gradient);
            fabric.charge_to_switch(1, &frame); // switch half-leg → edge tier
            fabric.flush_obs();
            let stats = fabric.stats();
            let summary = rec.finish().summary();
            assert_eq!(
                summary.total_tier_bytes(),
                stats.wire_bytes,
                "{topo:?}: per-tier sums must equal the wire total to the byte"
            );
            assert!(
                summary
                    .wire_bytes_by_tier
                    .keys()
                    .all(|&t| (t as usize) < topo.depth()),
                "{topo:?}: tiers beyond the tree depth appeared"
            );
            assert!(summary.wire_bytes_by_tier.contains_key(&0), "{topo:?}");
        }
    }

    #[test]
    fn switch_reduction_is_observable() {
        let vals = gradients(1448 * 2, 23);
        let rec = Recorder::on();
        let mut fabric = FabricBuilder::new(2)
            .transport(TransportKind::Nic)
            .compression(Some(ErrorBound::pow2(10)))
            .recorder(&rec)
            .build();
        let mut acc = vec![0.0f32; vals.len()];
        for w in 0..2 {
            let frame = fabric.encode(w, &vals, PayloadKind::Gradient);
            fabric.switch_fold(&mut acc, &frame).unwrap();
        }
        fabric.flush_obs();
        let summary = rec.finish().summary();
        assert_eq!(summary.switch_reduce_folds, 2);
        assert!(summary.switch_reduce_cycles > 0);
        assert_eq!(
            summary.switch_reduce_bytes,
            fabric.stats().wire_bytes,
            "the reduce unit saw exactly the encoded wire bytes"
        );
    }

    #[test]
    fn untraced_fabrics_record_nothing() {
        let rec = Recorder::off();
        let mut fabric = FabricBuilder::new(2)
            .transport(TransportKind::TimedNic)
            .compression(Some(ErrorBound::pow2(10)))
            .recorder(&rec)
            .build();
        fabric.transfer(0, 1, &gradients(500, 11)).unwrap();
        fabric.flush_obs();
        assert!(rec.finish().is_empty());
    }
}
