//! Discrete-event datacenter network simulator for the INCEPTIONN
//! reproduction.
//!
//! The paper's testbed is a star of worker nodes around one 10 GbE
//! switch (NETGEAR XS712T, Intel X540 NICs). This crate substitutes for
//! that hardware with a packet-level discrete-event simulation:
//!
//! * [`topology`] — the event core: first-class topology trees of
//!   arbitrary depth whose worker↔switch and switch↔switch edges are
//!   full-duplex FIFO servers with store-and-forward switching, output
//!   queueing, per-packet wire framing and host (driver/stack)
//!   overheads; the paper's star is the depth-1 tree. Also the generic
//!   tree exchanges and the switch-resident in-network aggregation mode;
//! * [`sim`] — the star's parameters ([`NetworkConfig`], whose
//!   [`tree`](NetworkConfig::tree) hands the star to the event core),
//!   its closed-form per-message latency charges and link-rate
//!   degradation schedules;
//! * [`transfer`] — point-to-point transfer descriptions, including the
//!   on-NIC compression model (payload shrinks, packet count and headers
//!   do not — the reason compression ratio does not translate 1:1 into
//!   communication-time reduction, Sec. VIII-C);
//! * [`collective`] — the paper's two gradient exchanges on its star:
//!   the worker-aggregator gather/broadcast and INCEPTIONN's ring
//!   reduce-scatter/all-gather (Algorithm 1). Each is the depth-1 case
//!   of a [`topology`] builder, which holds the one simulated
//!   description of every exchange strategy;
//! * [`analytic`] — the closed-form α-β-γ cost models of Sec. VIII-D,
//!   cross-validated against the event simulation in this crate's tests;
//! * [`event`] — the calendar-queue scheduler the event core runs on
//!   (O(1) amortized vs a binary heap's O(log n)); its buckets stay
//!   sorted by `(time, insertion seq)`, so tied events pop in O(1).
//!
//! # Examples
//!
//! ```
//! use inceptionn_netsim::sim::NetworkConfig;
//! use inceptionn_netsim::topology::phase;
//! use inceptionn_netsim::transfer::Transfer;
//!
//! let star = NetworkConfig::ten_gbe(2).tree();
//! let makespan_s = phase(&star, [Transfer::new(0, 1, 1_000_000)]);
//! // ~1 MB over 10 Gb/s takes a bit under a millisecond of simulated time.
//! assert!(makespan_s < 0.002);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod collective;
pub mod event;
pub mod sharing;
pub mod sim;
pub mod topology;
pub mod transfer;

pub use sharing::TenantShares;
pub use sim::{LinkRateSchedule, NetworkConfig, RateWindow};
pub use topology::{TierMap, Topology, TreeConfig, TreeSim};
pub use transfer::{CompressionSpec, Transfer};
