//! Distributed training runtime for the INCEPTIONN reproduction.
//!
//! The paper's system contribution (Sec. IV) is a *gradient-centric,
//! aggregator-free* training algorithm: every worker keeps a model
//! replica, gradients are partitioned into `N` blocks, and two rounds of
//! neighbor-to-neighbor exchange — `N−1` reduce-scatter steps, then
//! `N−1` all-gather steps — leave every worker holding the fully summed
//! gradient. Both legs carry *gradients*, so both legs compress; the
//! aggregation work is spread evenly across workers.
//!
//! All exchanges run over a [`fabric::Fabric`] — the transport seam that
//! decides *how* a block moves between workers: in-process quantization
//! shortcut ([`fabric::InProcessFabric`]), the modeled NIC
//! compression/decompression datapath ([`fabric::NicFabric`]), or that
//! datapath with network link timing charged per transfer
//! ([`fabric::TimedFabric`]), each picked by a [`TransportKind`] on the
//! [`FabricBuilder`]. The exchange schedules themselves sit behind one
//! entry point, [`Exchange::run`] — the only way to run an exchange —
//! which picks by [`ExchangeStrategy`]:
//!
//! * `Ring` — deterministic sequential-semantics implementation of
//!   Algorithm 1;
//! * `HierarchicalRing` / `Tree` — the grouped composition of
//!   Fig. 1(c) and its generalisation to a topology tree of arbitrary
//!   depth (the former is the two-tier special case of the latter);
//! * `WorkerAggregator` — the conventional centralized exchange
//!   (Fig. 2), where only the gradient (up) leg is compressible; the
//!   fabric needs one endpoint more than there are workers;
//! * `SwitchReduce` — in-network reduction: the switch's reduce unit
//!   folds gradient packets in flight, eliminating the gather leg
//!   entirely (bit-identical to the worker/aggregator result).
//!
//! Each strategy has exactly one schedule body, in the chunked executor
//! [`pipeline`]; whole-block and pipelined exchange are two
//! [`PipelineConfig`] values of it. [`trainer::DistributedTrainer`]
//! drives them end to end: data-parallel training of model replicas
//! over dataset shards with any exchange × transport combination
//! ([`trainer::TrainerConfig::transport`]).
//!
//! A note on Algorithm 1 as printed: the paper's pseudo-code for the
//! propagation phase (lines 14–18) uses block indices shifted by one
//! relative to its own worked example in Fig. 6 (step 4 has worker 3
//! sending `blk[0]`, which is `(i−s+1) mod N`, not `(i−s+2) mod N`).
//! This crate implements the Fig. 6 schedule; the tests prove every
//! worker ends with the exact direct sum.
//!
//! # Examples
//!
//! ```
//! use inceptionn_distrib::{Exchange, ExchangeStrategy, FabricBuilder};
//!
//! let mut fabric = FabricBuilder::new(3).build();
//! let mut grads = vec![vec![1.0f32, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
//! Exchange::new(3)
//!     .run(ExchangeStrategy::Ring, fabric.as_mut(), &mut grads, &[0, 1, 2])
//!     .unwrap();
//! for g in &grads {
//!     assert_eq!(g, &vec![111.0, 222.0]);
//! }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

mod codec;
mod crc32;
pub mod exchange;
pub mod fabric;
pub mod faults;
pub mod membership;
pub mod pipeline;
pub mod trainer;

// The whole-exchange tests of the schedules in `pipeline`, one module
// per strategy family, all run through `Exchange::run`. The modules sit
// at the crate root only so that the tests keep their names
// (`ring::tests::…`).
#[cfg(test)]
#[path = "schedule_tests/aggregator.rs"]
mod aggregator;
#[cfg(test)]
#[path = "schedule_tests/ring.rs"]
mod ring;
#[cfg(test)]
#[path = "schedule_tests/switch.rs"]
mod switch;

pub use exchange::Exchange;
pub use fabric::{
    CodecSelection, Fabric, FabricBuilder, FabricError, FabricStats, FrameArena, FrameBody,
    InProcessFabric, NicFabric, PayloadKind, SwitchAccum, TimedFabric, TransportKind, WireFrame,
    WIRE_CODEC_SEED,
};
pub use faults::{FaultPlan, FaultStats, FaultyFabric, LinkFaults, RENEGOTIATE_AFTER};
pub use membership::{MembershipEvent, MembershipSchedule};
pub use pipeline::PipelineConfig;
pub use trainer::{DistributedTrainer, ExchangeStrategy, TrainerConfig};
