//! Isolated replays: the frames and values one captured op pushed
//! through the fabric, fed again to each lower layer's public function
//! on its own, so a fabric span can be split into the layers under it.
//!
//! A replay measures the layer function alone on warm buffers; what the
//! fabric adds around it (frame bookkeeping, stats, copies) stays in
//! `distrib.fabric.self_ms`. Passes run between the traced ops, so both
//! sides of that subtraction see the same stretch of host time.

use std::hint::black_box;
use std::time::Instant;

use inceptionn_compress::{
    sketch, sparse, ErrorBound, ParallelCodec, ResidualState, SketchCodec, SparseCodec,
    SparseConfig,
};
use inceptionn_distrib::{CodecSelection, FrameBody, PayloadKind, WireFrame, WIRE_CODEC_SEED};
use inceptionn_netsim::NetworkConfig;
use inceptionn_nicsim::{
    decode_payload_flat, encode_payload_flat, FlatPayload, NicConfig, NicPipeline,
    SketchSwitchUnit, SwitchReducer,
};

use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::models::{DIGIT_CLASSES, DIGIT_FEATURES};
use inceptionn_dnn::optim::{Sgd, SgdConfig};
use inceptionn_dnn::Network;
use inceptionn_tensor::{matmul, matmul_nt, matmul_tn, Tensor};

use crate::stats::median;
use crate::tracing::Call;
use crate::workload::{hdc_mlp, ExchangeSpec, WARMUP_OPS};

/// Host seconds one op spends in each lower layer, by replay, plus the
/// work counts the rates are taken over.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parts {
    /// `WireFrame::integrity_ok()` once per encode, deliver and switch
    /// fold — every CRC pass the fabric makes.
    pub crc_s: f64,
    pub nic_tx_s: f64,
    pub nic_rx_s: f64,
    pub nic_switch_s: f64,
    /// MTU packets through the three `nicsim` replays.
    pub nic_packets: u64,
    pub compress_encode_s: f64,
    pub compress_decode_s: f64,
    /// Raw `f32` bytes into the codec's encoder / out of its decoder.
    pub compress_encode_bytes: u64,
    pub compress_decode_bytes: u64,
    pub netsim_charge_s: f64,
}

/// The codec a NIC fabric runs for gradient traffic, rebuilt from the
/// selection the way `FabricBuilder` resolves it.
enum Family {
    Engine(Option<ErrorBound>),
    Sparse(SparseCodec, Vec<ResidualState>),
    Sketch(SketchCodec),
}

fn family(codec: CodecSelection, endpoints: usize) -> Family {
    match codec {
        CodecSelection::None => Family::Engine(None),
        CodecSelection::Scalar(b) | CodecSelection::Burst(b) => Family::Engine(Some(b)),
        CodecSelection::Parallel { bound, .. } => Family::Engine(Some(bound)),
        CodecSelection::Sparse {
            bound,
            top_per_mille,
        } => Family::Sparse(
            SparseCodec::new(SparseConfig {
                bound,
                top_per_mille,
                seed: WIRE_CODEC_SEED,
            }),
            vec![ResidualState::new(); endpoints],
        ),
        CodecSelection::Sketch { frac_bits } => {
            Family::Sketch(SketchCodec::new(frac_bits, WIRE_CODEC_SEED))
        }
    }
}

fn flat_of(frame: &WireFrame) -> Option<&FlatPayload> {
    match frame.body() {
        FrameBody::Flat(p) => Some(p),
        FrameBody::Loopback(_) | FrameBody::Packets(_) => None,
    }
}

/// Times `f` and adds the elapsed seconds to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// Replays one captured op's calls through the layers under the fabric.
pub struct ExchangeReplay {
    calls: Vec<Call>,
    family: Family,
    nic: NicPipeline,
    /// The link model of a timed transport; untimed ones charge nothing.
    net: Option<NetworkConfig>,
    wire: FlatPayload,
    bytes: Vec<u8>,
    values: Vec<f32>,
}

impl ExchangeReplay {
    /// A replayer for `calls`, captured from the last of the
    /// [`WARMUP_OPS`] warm-up ops. The sparsifier's cost follows its
    /// residual state, which builds up over the first ops, so as many
    /// untimed passes bring the replay's state to where the measured
    /// fabric's was when the calls were captured.
    pub fn new(spec: &ExchangeSpec, calls: Vec<Call>) -> Self {
        let endpoints = spec.endpoints();
        let family = family(spec.codec, endpoints);
        let bound = match &family {
            Family::Engine(Some(b)) => *b,
            _ => ErrorBound::default(),
        };
        let mut replay = ExchangeReplay {
            calls,
            family,
            nic: NicPipeline::new(NicConfig {
                bound,
                ..NicConfig::default()
            }),
            net: spec
                .transport
                .is_timed()
                .then(|| NetworkConfig::ten_gbe(endpoints.max(2))),
            wire: FlatPayload::new(),
            bytes: Vec::new(),
            values: Vec::new(),
        };
        if matches!(replay.family, Family::Sparse(..)) {
            for _ in 0..WARMUP_OPS {
                // A frame that fails here fails every measured pass too.
                let _ = replay.pass();
            }
        }
        replay
    }

    /// One pass over the captured calls: the host seconds each lower
    /// layer takes for one op's worth of frames. A captured frame the
    /// layer rejects is an error: its time would be that of the early
    /// return.
    pub fn pass(&mut self) -> Result<Parts, String> {
        let ExchangeReplay {
            calls,
            family,
            nic,
            net,
            wire,
            bytes,
            values,
        } = self;
        let mut p = Parts::default();
        if let Family::Sparse(_, states) = family {
            for s in states.iter_mut() {
                s.begin_iteration();
            }
        }
        for call in calls.iter() {
            match call {
                Call::Encode {
                    src,
                    kind,
                    values: input,
                    frame,
                } => {
                    timed(&mut p.crc_s, || black_box(frame.integrity_ok()));
                    let raw = (input.len() * 4) as u64;
                    match (&mut *family, kind) {
                        (Family::Sparse(codec, states), PayloadKind::Gradient) => {
                            bytes.clear();
                            timed(&mut p.compress_encode_s, || {
                                codec.encode_append(*src as u64, &mut states[*src], input, bytes)
                            });
                            p.compress_encode_bytes += raw;
                        }
                        (Family::Sketch(codec), PayloadKind::Gradient) => {
                            bytes.clear();
                            timed(&mut p.compress_encode_s, || {
                                codec.encode_append(input, bytes)
                            });
                            p.compress_encode_bytes += raw;
                        }
                        (family, kind) => {
                            let compressible = matches!(family, Family::Engine(Some(_)))
                                && *kind == PayloadKind::Gradient;
                            let trace = timed(&mut p.nic_tx_s, || {
                                encode_payload_flat(nic, input, compressible, wire)
                            });
                            p.nic_packets += trace.packets;
                        }
                    }
                }
                Call::Deliver { frame } => {
                    timed(&mut p.crc_s, || black_box(frame.integrity_ok()));
                    let Some(payload) = flat_of(frame) else {
                        continue;
                    };
                    if frame.is_compressed() && !matches!(family, Family::Engine(_)) {
                        values.clear();
                        values.resize(payload.value_count(), 0.0);
                        timed(&mut p.compress_decode_s, || match family {
                            Family::Sparse(..) => sparse::decode_frame(&payload.bytes, values),
                            _ => sketch::decode_frame(&payload.bytes, values),
                        })
                        .map_err(|e| format!("replay: codec decode failed: {e:?}"))?;
                        p.compress_decode_bytes += (values.len() * 4) as u64;
                    } else {
                        timed(&mut p.nic_rx_s, || {
                            decode_payload_flat(nic, payload, values)
                        })
                        .map_err(|e| format!("replay: NIC decode failed: {e:?}"))?;
                        p.nic_packets += payload.segs.len() as u64;
                    }
                }
                Call::SwitchFold { lanes, frame } => {
                    timed(&mut p.crc_s, || black_box(frame.integrity_ok()));
                    let Some(payload) = flat_of(frame) else {
                        continue;
                    };
                    match family {
                        Family::Sketch(codec) => {
                            let mut unit = SketchSwitchUnit::new(*lanes, codec.frac_bits());
                            timed(&mut p.nic_switch_s, || unit.fold_frame(&payload.bytes))
                                .map_err(|e| format!("replay: sketch switch fold failed: {e:?}"))?;
                        }
                        Family::Engine(b) => {
                            let mut unit = match b {
                                Some(b) => SwitchReducer::with_codec(*lanes, *b),
                                None => SwitchReducer::plain(*lanes),
                            };
                            timed(&mut p.nic_switch_s, || unit.fold_flat_contribution(payload))
                                .map_err(|e| format!("replay: switch fold failed: {e:?}"))?;
                        }
                        // No workload folds sparse frames at the switch.
                        Family::Sparse(..) => continue,
                    }
                    p.nic_packets += payload.segs.len() as u64;
                }
                Call::Charge { half, frame } => {
                    if let Some(net) = net {
                        timed(&mut p.netsim_charge_s, || {
                            let sizes = frame.packet_wire_bytes();
                            black_box(if *half {
                                net.half_message_latency_ns(&sizes)
                            } else {
                                net.message_latency_ns(&sizes)
                            })
                        });
                    }
                }
                Call::SelfRoundtrip {
                    endpoint,
                    values: input,
                } => {
                    let raw = (input.len() * 4) as u64;
                    match family {
                        Family::Engine(Some(b)) => {
                            timed(&mut p.compress_encode_s, || {
                                black_box(ParallelCodec::with_host_parallelism(*b).quantize(input))
                            });
                            p.compress_encode_bytes += raw;
                        }
                        Family::Engine(None) => {}
                        Family::Sketch(codec) => {
                            timed(&mut p.compress_encode_s, || {
                                black_box(codec.quantize(input))
                            });
                            p.compress_encode_bytes += raw;
                        }
                        Family::Sparse(codec, states) => {
                            values.clear();
                            values.extend_from_slice(input);
                            timed(&mut p.compress_encode_s, || {
                                codec.apply(*endpoint as u64, &mut states[*endpoint], values)
                            });
                            p.compress_encode_bytes += raw;
                        }
                    }
                }
            }
        }
        Ok(p)
    }
}

/// Host seconds one train step spends in `dnn` and `tensor`, by replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainParts {
    pub fwd_bwd_s: f64,
    pub flatten_s: f64,
    pub sgd_s: f64,
    pub gemm_s: f64,
}

/// Replays what one trainer step is made of, from its shape: the
/// compute on a replica of the trained model, and the codec and CRC
/// work of the in-process fabric's loopback frames.
pub struct TrainReplay {
    workers: usize,
    transfers: usize,
    net: Network,
    batch: (Tensor, Vec<usize>),
    sgd: Sgd,
    /// Per linear layer: an input, a weight and an output gradient of
    /// the shapes its three matrix products take.
    gemm_inputs: Vec<(Tensor, Tensor, Tensor)>,
    codec: ParallelCodec,
    leg: Vec<f32>,
    scratch: Vec<f32>,
    frame: WireFrame,
}

impl TrainReplay {
    /// A replayer for steps that move `transfers` legs of `leg_values`
    /// values each.
    pub fn new(
        seed: u64,
        hidden: usize,
        batch: usize,
        workers: usize,
        bound: ErrorBound,
        transfers: usize,
        leg_values: usize,
    ) -> Self {
        let net = hdc_mlp(seed, hidden);
        let data = DigitDataset::generate(batch.max(16), seed);
        let widths = [
            DIGIT_FEATURES,
            hidden,
            hidden,
            hidden,
            hidden,
            DIGIT_CLASSES,
        ];
        let gemm_inputs = widths
            .windows(2)
            .map(|w| {
                (
                    Tensor::full(&[batch, w[0]], 0.01),
                    Tensor::full(&[w[0], w[1]], 0.02),
                    Tensor::full(&[batch, w[1]], 0.03),
                )
            })
            .collect();
        let codec = ParallelCodec::with_host_parallelism(bound);
        let leg: Vec<f32> = (0..leg_values)
            .map(|i| ((i % 2001) as f32 - 1000.0) * 1e-5)
            .collect();
        TrainReplay {
            workers,
            transfers,
            sgd: Sgd::new(SgdConfig::default(), net.param_count()),
            batch: data.minibatch(0, batch),
            net,
            gemm_inputs,
            frame: WireFrame::loopback(0, codec.quantize(&leg), true),
            codec,
            scratch: leg.clone(),
            leg,
        }
    }

    /// One step's worth: `forward_backward` once per worker, the flat
    /// gradient and parameter copies, the optimizer step, and — on
    /// their own — the matrix products `forward_backward` is made of;
    /// then per transfer the in-place quantization and the two CRC
    /// passes (one at encode, one at delivery) of a loopback frame.
    pub fn pass(&mut self) -> (Parts, TrainParts) {
        let mut t = TrainParts::default();
        let (x, y) = &self.batch;
        for _ in 0..self.workers {
            timed(&mut t.fwd_bwd_s, || {
                black_box(self.net.forward_backward(x, y))
            });
            let (mut grads, mut params) = timed(&mut t.flatten_s, || {
                (self.net.flat_grads(), self.net.flat_params())
            });
            timed(&mut t.sgd_s, || self.sgd.step(&mut params, &mut grads));
            timed(&mut t.flatten_s, || self.net.set_flat_params(&params));
            for (input, weight, grad_out) in &self.gemm_inputs {
                timed(&mut t.gemm_s, || {
                    black_box(matmul(input, weight));
                    black_box(matmul_tn(input, grad_out));
                    black_box(matmul_nt(grad_out, weight));
                });
            }
        }
        let mut p = Parts::default();
        for _ in 0..self.transfers {
            self.scratch.copy_from_slice(&self.leg);
            timed(&mut p.compress_encode_s, || {
                self.codec.quantize_inplace(&mut self.scratch)
            });
            for _ in 0..2 {
                timed(&mut p.crc_s, || black_box(self.frame.integrity_ok()));
            }
        }
        p.compress_encode_bytes = (self.transfers * self.leg.len() * 4) as u64;
        (p, t)
    }
}

/// Field-wise median of the times of several passes (the counts are
/// those of the first pass; every pass does the same work).
pub fn median_parts(passes: &[Parts]) -> Parts {
    let Some(first) = passes.first() else {
        return Parts::default();
    };
    let med = |f: fn(&Parts) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Parts {
        crc_s: med(|p| p.crc_s),
        nic_tx_s: med(|p| p.nic_tx_s),
        nic_rx_s: med(|p| p.nic_rx_s),
        nic_switch_s: med(|p| p.nic_switch_s),
        compress_encode_s: med(|p| p.compress_encode_s),
        compress_decode_s: med(|p| p.compress_decode_s),
        netsim_charge_s: med(|p| p.netsim_charge_s),
        ..*first
    }
}

/// Field-wise median of several passes.
pub fn median_train_parts(passes: &[TrainParts]) -> TrainParts {
    let med = |f: fn(&TrainParts) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    TrainParts {
        fwd_bwd_s: med(|p| p.fwd_bwd_s),
        flatten_s: med(|p| p.flatten_s),
        sgd_s: med(|p| p.sgd_s),
        gemm_s: med(|p| p.gemm_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, Bench, SMOKE_SCALE};

    /// The frames of one captured op replay cleanly through the layers
    /// that made them, and a layer that rejects them is an error, not a
    /// (short) time.
    #[test]
    fn a_rejected_frame_fails_the_pass() {
        let spec = find("switch-sketch-nic").expect("listed");
        let mut bench = Bench::build(&spec, 5, SMOKE_SCALE, true);
        bench.start_capture();
        bench.prepare();
        bench.run().expect("a clean fabric delivers");
        let calls = bench.take_capture();
        let Bench::Exchange(b) = &bench else {
            panic!("an exchange workload");
        };

        let parts = ExchangeReplay::new(&b.spec, calls.clone())
            .pass()
            .expect("the switch unit folds the frames its own codec made");
        assert!(parts.nic_switch_s > 0.0 && parts.nic_packets > 0);

        let mut wrong = b.spec;
        wrong.codec = CodecSelection::Sketch { frac_bits: 12 };
        let err = ExchangeReplay::new(&wrong, calls)
            .pass()
            .expect_err("a switch unit on another grid rejects the frames");
        assert!(err.starts_with("replay: "), "{err}");
    }
}
