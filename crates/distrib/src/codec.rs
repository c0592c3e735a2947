//! The one wire codec a fabric runs: the only place a
//! [`CodecSelection`] is resolved and the only place a codec family is
//! dispatched.
//!
//! The paper's NIC has one compression engine, switched on per packet by
//! the ToS tag (Sec. VI-A), and the in-process transport is its software
//! model. So both base transports hold one [`WireCodec`] and ask it
//! every family question: whether anything transforms a gradient, the
//! local round trip, the switch accumulator, and — on the NIC datapath —
//! how a payload becomes wire segments and back, each with its cycle
//! model. The INCEPTIONN family is per-MTU engine segments; sparse and
//! sketch are one self-describing codec frame cut into MTU segments
//! afterwards.

use inceptionn_compress::{
    sketch, sparse, BurstCodec, DecodeError, ErrorBound, ResidualState, SketchCodec, SparseCodec,
    SparseConfig,
};
use inceptionn_nicsim::{
    decode_payload_flat, encode_payload_flat, engine, switchagg, FlatPayload, FlatSeg, FlatTrace,
    NicConfig, NicPipeline, SketchSwitchUnit, SwitchReducer, VALUES_PER_PACKET,
};

use crate::fabric::{CodecSelection, SwitchAccum, WIRE_CODEC_SEED};

/// `f32` values per MTU packet expressed in payload bytes — the
/// segment ceiling for codec-framed byte payloads.
const MTU_PAYLOAD_BYTES: usize = VALUES_PER_PACKET * 4;

/// The instantiated codec behind a [`CodecSelection`].
///
/// The INCEPTIONN quantizer is stateless; the sparse family carries one
/// [`ResidualState`] per endpoint (error feedback is per-worker by
/// definition), which is why the encode entry points take the source
/// endpoint and `&mut self`.
#[derive(Debug, Clone)]
pub(crate) enum WireCodec {
    /// Lossless: no codec in the loop; every segment ships plain.
    Off,
    /// The INCEPTIONN truncation engine: MTU-chunked engine bursts.
    /// Only the error bound is programmable, so all three INCEPTIONN
    /// selections resolve here.
    Inceptionn(BurstCodec),
    /// The sparsifier engine: per-endpoint error-feedback state, exact
    /// `(index, value)` pair frames.
    Sparse {
        codec: SparseCodec,
        states: Vec<ResidualState>,
    },
    /// The homomorphic sketch engine: fixed-point self-describing
    /// frames the switch folds without decompressing.
    Sketch(SketchCodec),
}

impl WireCodec {
    /// Resolves `selection` for a fabric of `endpoints` endpoints.
    pub(crate) fn new(selection: CodecSelection, endpoints: usize) -> Self {
        match selection {
            CodecSelection::None => WireCodec::Off,
            CodecSelection::Scalar(bound)
            | CodecSelection::Burst(bound)
            | CodecSelection::Parallel { bound, .. } => {
                WireCodec::Inceptionn(BurstCodec::new(bound))
            }
            CodecSelection::Sparse {
                bound,
                top_per_mille,
            } => WireCodec::Sparse {
                codec: SparseCodec::new(SparseConfig {
                    bound,
                    top_per_mille,
                    seed: WIRE_CODEC_SEED,
                }),
                states: vec![ResidualState::new(); endpoints],
            },
            CodecSelection::Sketch { frac_bits } => {
                WireCodec::Sketch(SketchCodec::new(frac_bits, WIRE_CODEC_SEED))
            }
        }
    }

    /// Whether gradient payloads are transformed at all.
    pub(crate) fn is_on(&self) -> bool {
        !matches!(self, WireCodec::Off)
    }

    /// The bound the NIC's truncation engines (and the switch's dense
    /// reduce unit) are programmed to, when this is the INCEPTIONN
    /// family.
    pub(crate) fn engine_bound(&self) -> Option<ErrorBound> {
        match self {
            WireCodec::Inceptionn(c) => Some(c.bound()),
            WireCodec::Off | WireCodec::Sparse { .. } | WireCodec::Sketch(_) => None,
        }
    }

    /// The configuration of every endpoint's NIC: the truncation
    /// engines programmed to the INCEPTIONN bound, or to the default
    /// bound where they only ever see plain traffic.
    pub(crate) fn nic_config(&self) -> NicConfig {
        NicConfig {
            bound: self.engine_bound().unwrap_or_default(),
            ..NicConfig::default()
        }
    }

    /// Rewinds per-endpoint leg cursors at an iteration boundary so
    /// this iteration's encode legs line up with last iteration's
    /// residual slots. Stateless codecs ignore it.
    pub(crate) fn begin_iteration(&mut self) {
        if let WireCodec::Sparse { states, .. } = self {
            for s in states.iter_mut() {
                s.begin_iteration();
            }
        }
    }

    /// The gradient round trip at endpoint `src`, in place: exactly the
    /// values the receiving end of a wire transfer reconstructs. Not
    /// state-free: a sparse round trip is a real encode leg and advances
    /// the endpoint's residual like a wire transfer would.
    pub(crate) fn quantize_inplace(&mut self, src: usize, values: &mut [f32]) {
        match self {
            WireCodec::Off => {}
            WireCodec::Inceptionn(c) => c.quantize_inplace(values),
            WireCodec::Sparse { codec, states } => {
                codec.apply(src as u64, &mut states[src], values);
            }
            WireCodec::Sketch(c) => c.quantize_inplace(values),
        }
    }

    /// The gather accumulator the switch-resident strategies fold into:
    /// the compressed-domain sketch unit for the sketch family, a dense
    /// `f32` sum otherwise.
    pub(crate) fn switch_accum(&self, len: usize) -> SwitchAccum {
        match self {
            WireCodec::Sketch(c) => SwitchAccum::Sketch(SketchSwitchUnit::new(len, c.frac_bits())),
            WireCodec::Off | WireCodec::Inceptionn(_) | WireCodec::Sparse { .. } => {
                SwitchAccum::dense(len)
            }
        }
    }

    /// Encodes `values` at endpoint `src` through its NIC into `wire`.
    /// INCEPTIONN gradients run the truncation engines MTU chunk by
    /// chunk; sparse and sketch gradients become one codec frame cut
    /// into MTU segments; plain traffic and lossless gradients bypass
    /// the engines but still ship the real little-endian bytes.
    pub(crate) fn encode_flat(
        &mut self,
        nic: &mut NicPipeline,
        src: usize,
        values: &[f32],
        gradient: bool,
        wire: &mut FlatPayload,
    ) -> FlatTrace {
        match self {
            WireCodec::Sparse { codec, states } if gradient => {
                // One self-describing frame, and the endpoint's
                // error-feedback residual advances.
                wire.clear();
                let appended =
                    codec.encode_append(src as u64, &mut states[src], values, &mut wire.bytes);
                let cycles = engine::sparse_encode_cycles(values.len(), sparse_pairs(appended));
                segment_codec_frame(wire, values.len(), appended, cycles)
            }
            WireCodec::Sketch(codec) if gradient => {
                wire.clear();
                let appended = codec.encode_append(values, &mut wire.bytes);
                let cycles = engine::sketch_encode_cycles(values.len(), appended);
                segment_codec_frame(wire, values.len(), appended, cycles)
            }
            WireCodec::Inceptionn(_) if gradient => encode_payload_flat(nic, values, true, wire),
            _ => encode_payload_flat(nic, values, false, wire),
        }
    }

    /// Decodes `payload` received through `nic` into `values` and
    /// returns the engine cycles spent. `compressed` is the frame's
    /// compression marker: compressed sparse/sketch frames go through
    /// their codec's decoder (truncation — the poison fault — fails the
    /// frame-length checks as a typed error), everything else through
    /// the NIC's receive engines.
    pub(crate) fn decode_flat(
        &self,
        nic: &mut NicPipeline,
        payload: &FlatPayload,
        compressed: bool,
        values: &mut Vec<f32>,
    ) -> Result<u64, DecodeError> {
        match self {
            WireCodec::Sparse { .. } if compressed => {
                let n = sized(values, payload);
                sparse::decode_frame(&payload.bytes, values)?;
                Ok(engine::sparse_decode_cycles(
                    n,
                    sparse_pairs(payload.bytes.len()),
                ))
            }
            WireCodec::Sketch(_) if compressed => {
                let n = sized(values, payload);
                sketch::decode_frame(&payload.bytes, values)?;
                Ok(engine::sketch_decode_cycles(n, payload.bytes.len()))
            }
            _ => decode_payload_flat(nic, payload, values).map(|(_ns, cycles)| cycles),
        }
    }

    /// Folds one contribution into the dense switch accumulator `acc`
    /// and returns the reduce unit's cycles. Compressed sparse frames
    /// are streamed pair-adds (only the nnz pairs cost lanes); compressed
    /// sketch frames fold through a one-shot sketch unit, since a dense
    /// `acc` cannot hold integer cells across contributions (the
    /// [`SwitchAccum::Sketch`] accumulator does); everything else is
    /// decoded and folded by the engine reduce unit.
    ///
    /// On error `acc` may hold a partial fold.
    pub(crate) fn switch_fold(
        &self,
        acc: &mut [f32],
        payload: &FlatPayload,
    ) -> Result<u64, DecodeError> {
        let compressed = payload.is_compressed();
        match self {
            WireCodec::Sparse { .. } if compressed => {
                let nnz = sparse::fold_frame(&payload.bytes, acc.len(), |i, v| acc[i] += v)?;
                Ok(switchagg::sparse_fold_cycles(nnz as u64))
            }
            WireCodec::Sketch(c) if compressed => {
                let mut unit = SketchSwitchUnit::new(acc.len(), c.frac_bits());
                unit.fold_frame(&payload.bytes)?;
                let mut tmp = vec![0.0f32; acc.len()];
                unit.finish_into(&mut tmp);
                for (a, v) in acc.iter_mut().zip(tmp) {
                    *a += v;
                }
                Ok(unit.cycles())
            }
            _ => {
                let mut unit = match self.engine_bound() {
                    Some(bound) => SwitchReducer::with_codec(acc.len(), bound),
                    None => SwitchReducer::plain(acc.len()),
                };
                unit.fold_flat_contribution(payload)?;
                for (a, &v) in acc.iter_mut().zip(unit.sum()) {
                    *a += v;
                }
                Ok(unit.cycles())
            }
        }
    }
}

/// `(index, value)` pairs in a sparse frame of `frame_bytes` bytes.
fn sparse_pairs(frame_bytes: usize) -> usize {
    frame_bytes.saturating_sub(sparse::FRAME_HEADER_BYTES) / sparse::PAIR_BYTES
}

/// Sizes `values` to the payload's block length and returns that
/// length. The contents are left as they are: both codec decoders
/// write every element (the sparse one zero-fills before it scatters),
/// and no caller reads `values` after a decode error.
fn sized(values: &mut Vec<f32>, payload: &FlatPayload) -> usize {
    let n = payload.value_count();
    values.resize(n, 0.0);
    n
}

/// Cuts a codec frame of `appended` bytes (already in `wire.bytes`)
/// into MTU segments and reports it as the datapath's trace. The frame's
/// bytes stay contiguous; segment 0 carries the block's value count and
/// later segments carry 0, so [`FlatPayload::value_count`] still
/// reports the block length. Every segment is marked compressed, so the
/// fault machinery's poison/truncation paths hit these frames like any
/// other compressed traffic.
fn segment_codec_frame(
    wire: &mut FlatPayload,
    values: usize,
    appended: usize,
    cycles: u64,
) -> FlatTrace {
    let total = wire.bytes.len();
    let mut off = 0usize;
    loop {
        let seg = (total - off).min(MTU_PAYLOAD_BYTES);
        wire.segs.push(FlatSeg {
            wire_bytes: seg as u32,
            value_count: if off == 0 { values as u32 } else { 0 },
            compressed: true,
        });
        off += seg;
        if off >= total {
            break;
        }
    }
    FlatTrace {
        payload_bytes_in: (values * 4) as u64,
        wire_payload_bytes: appended as u64,
        packets: wire.segs.len() as u64,
        nic_latency_ns: cycles * engine::NS_PER_CYCLE,
        engine_cycles: cycles,
    }
}
