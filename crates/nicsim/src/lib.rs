//! Burst-level model of the INCEPTIONN NIC accelerators.
//!
//! The paper integrates a compression engine and a decompression engine
//! into the 10 GbE reference design of a Xilinx VC709 board (Sec. VI,
//! Figs. 8–10). Both engines speak 256-bit AXI-stream bursts — eight
//! `f32` lanes per cycle at 100 MHz (25.6 Gb/s, comfortably above line
//! rate) — and are selected per packet by the IP Type-of-Service field:
//! `ToS = 0x28` marks a lossy-compressible gradient packet, anything
//! else bypasses the engines untouched.
//!
//! This crate reproduces that hardware as a cycle-accounted functional
//! model:
//!
//! * [`engine::CompressionEngine`] — eight Compression Blocks (one per
//!   lane, each running Algorithm 2) feeding a shifter-tree alignment
//!   unit that packs the variable 16–272-bit group outputs into a dense
//!   burst stream (Fig. 9);
//! * [`engine::DecompressionEngine`] — a two-burst (512-bit) burst
//!   buffer, tag decoder, and eight Decompression Blocks (Fig. 10);
//! * [`packet`] — ToS-tagged packets and the per-packet classify /
//!   bypass logic;
//! * [`nic::NicPipeline`] — the TX and RX paths: classify, compress or
//!   decompress the payload, account pipeline latency in nanoseconds;
//! * [`flat`] — the transport path: a whole application payload through
//!   those engines MTU chunk by MTU chunk into one contiguous, reusable
//!   wire buffer ([`FlatPayload`]), which is what a fabric frames, CRCs
//!   and delivers and what the [`switchagg`] reduce units fold;
//! * [`chunker`] — the per-packet reference ([`chunker::packetize`] /
//!   [`chunker::reassemble`] around `NicPipeline::{transmit, receive}`)
//!   the flat path is checked against, segment for segment.
//!
//! The engines are *bit-exact* against the software reference codec in
//! [`inceptionn_compress`]: the tests assert that hardware-packed bytes
//! equal [`inceptionn_compress::InceptionnCodec::compress`] output.
//!
//! # Examples
//!
//! ```
//! use inceptionn_compress::ErrorBound;
//! use inceptionn_nicsim::engine::CompressionEngine;
//!
//! let engine = CompressionEngine::new(ErrorBound::pow2(10));
//! let grads = vec![0.002f32; 64];
//! let out = engine.process(&grads);
//! assert!(out.bytes.len() < 64 * 4);
//! // 8 input bursts, pipelined one per cycle.
//! assert!(out.cycles >= 8);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod chunker;
pub mod datapath;
pub mod engine;
pub mod flat;
pub mod nic;
pub mod packet;
pub mod switchagg;

pub use chunker::VALUES_PER_PACKET;
pub use engine::{CompressionEngine, DecompressionEngine, EngineMetrics, EngineOutput};
pub use flat::{
    decode_payload_flat, decode_raw_flat, encode_payload_flat, encode_raw_flat, FlatPayload,
    FlatSeg, FlatTrace,
};
pub use nic::{NicConfig, NicPipeline};
pub use packet::{Packet, TOS_COMPRESSED};
pub use switchagg::{SketchSwitchUnit, SwitchReducer};
