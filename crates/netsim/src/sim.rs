//! The star network's parameters: the one-switch [`NetworkConfig`] with
//! its closed-form latency charges, and link-rate degradation
//! schedules. The packet-level simulation of a star is the depth-1 case
//! of [`crate::topology::TreeSim`] — see [`NetworkConfig::tree`].

use serde::{Deserialize, Serialize};

use crate::topology::{Topology, TreeConfig};

/// Physical parameters of the simulated cluster network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Number of nodes attached to the switch.
    pub nodes: usize,
    /// Link bandwidth in bits per second (each direction of each link).
    pub link_bps: u64,
    /// Propagation + PHY latency per hop, nanoseconds.
    pub hop_latency_ns: u64,
    /// Switch forwarding latency, nanoseconds.
    pub switch_latency_ns: u64,
    /// Maximum TCP payload per packet (MSS), bytes.
    pub mtu_payload: u64,
    /// Per-packet wire overhead: Ethernet framing (preamble, header,
    /// FCS, IFG) plus IP and TCP headers, bytes.
    pub header_bytes: u64,
    /// Per-packet host (driver + stack) cost at the sender, nanoseconds.
    /// A flow cannot inject packets faster than one per this interval —
    /// the reason compressed flows stop gaining once packets are tiny.
    pub host_ns_per_packet: u64,
}

impl NetworkConfig {
    /// The paper's testbed fabric: 10 GbE links through one switch,
    /// standard 1500-byte MTU.
    pub fn ten_gbe(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            link_bps: 10_000_000_000,
            hop_latency_ns: 1_000,
            switch_latency_ns: 1_000,
            mtu_payload: 1448,
            header_bytes: 78,
            host_ns_per_packet: 150,
        }
    }

    /// The star as the packet-level simulator sees it: a
    /// [`Topology::flat`] tree whose single tier runs at `link_bps`,
    /// with the same per-hop constants.
    pub fn tree(&self) -> TreeConfig {
        TreeConfig {
            topology: Topology::flat(self.nodes),
            tier_bps: vec![self.link_bps],
            hop_latency_ns: self.hop_latency_ns,
            switch_latency_ns: self.switch_latency_ns,
            mtu_payload: self.mtu_payload,
            header_bytes: self.header_bytes,
            host_ns_per_packet: self.host_ns_per_packet,
        }
    }

    /// Serialization time of `bytes` on a link, nanoseconds (rounded up).
    pub fn serialize_ns(&self, bytes: u64) -> u64 {
        (bytes * 8 * 1_000_000_000).div_ceil(self.link_bps)
    }

    /// End-to-end latency of one uncontended message through the star,
    /// nanoseconds, given the *wire* payload of each of its packets
    /// (post-compression, headers excluded — they are added here).
    ///
    /// This is the closed-form solution of the discrete-event model —
    /// the depth-1 [`TreeSim`](crate::topology::TreeSim) over
    /// [`NetworkConfig::tree`] — for a single flow: packets are injected
    /// one host interval apart, serialized FIFO onto the uplink, forwarded
    /// across the switch, then serialized FIFO onto the downlink. It is
    /// exact (not an approximation) when no other flow shares the links,
    /// which makes it suitable as a per-transfer latency charge for
    /// transport layers that sequence their sends (see
    /// `inceptionn-distrib`'s `TimedFabric`).
    pub fn message_latency_ns(&self, packet_payloads: &[u64]) -> u64 {
        let mut uplink_free = 0u64;
        let mut downlink_free = 0u64;
        for (i, &payload) in packet_payloads.iter().enumerate() {
            let inject = i as u64 * self.host_ns_per_packet;
            let ser = self.serialize_ns(payload + self.header_bytes);
            uplink_free = inject.max(uplink_free) + ser;
            let at_switch = uplink_free + self.hop_latency_ns + self.switch_latency_ns;
            downlink_free = at_switch.max(downlink_free) + ser;
        }
        if packet_payloads.is_empty() {
            0
        } else {
            downlink_free + self.hop_latency_ns
        }
    }

    /// Latency of one *half* leg — host to switch port, or switch port to
    /// host — given the wire payload of each packet. This is the charge a
    /// switch-resident aggregation path pays per contribution: packets
    /// terminate (or originate) at the switch's reduce unit, so only one
    /// access link is serialized instead of the uplink + downlink pair of
    /// [`message_latency_ns`](Self::message_latency_ns). Injection pacing
    /// applies in both directions (the switch forwards at the same
    /// per-packet cadence the host injects at — a deliberate
    /// simplification).
    pub fn half_message_latency_ns(&self, packet_payloads: &[u64]) -> u64 {
        let mut link_free = 0u64;
        for (i, &payload) in packet_payloads.iter().enumerate() {
            let inject = i as u64 * self.host_ns_per_packet;
            let ser = self.serialize_ns(payload + self.header_bytes);
            link_free = inject.max(link_free) + ser;
        }
        if packet_payloads.is_empty() {
            0
        } else {
            link_free + self.hop_latency_ns + self.switch_latency_ns
        }
    }
}

/// One window of degraded service on a link: between `start_ns`
/// (inclusive) and `end_ns` (exclusive) of the link's virtual time, every
/// transfer takes `slowdown` times as long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateWindow {
    /// Window start, nanoseconds of link-local virtual time (inclusive).
    pub start_ns: u64,
    /// Window end, nanoseconds (exclusive). `u64::MAX` never ends.
    pub end_ns: u64,
    /// Latency multiplier while the window is active (`>= 1.0` models a
    /// degraded link; values below 1.0 are clamped to 1.0).
    pub slowdown: f64,
}

impl RateWindow {
    /// A window that never ends — a permanently degraded (straggler)
    /// link.
    pub fn forever(slowdown: f64) -> Self {
        RateWindow {
            start_ns: 0,
            end_ns: u64::MAX,
            slowdown,
        }
    }

    fn contains(&self, at_ns: u64) -> bool {
        at_ns >= self.start_ns && at_ns < self.end_ns
    }

    fn factor(&self) -> f64 {
        if self.slowdown > 1.0 {
            self.slowdown
        } else {
            1.0
        }
    }
}

/// A piecewise schedule of link-rate degradation windows. Outside every
/// window the link runs at full rate; overlapping windows compound
/// multiplicatively. The empty schedule is the identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkRateSchedule {
    windows: Vec<RateWindow>,
}

impl LinkRateSchedule {
    /// The identity schedule: full rate at all times.
    pub fn new() -> Self {
        Self::default()
    }

    /// A permanent uniform slowdown (a straggler link).
    pub fn always(slowdown: f64) -> Self {
        LinkRateSchedule {
            windows: vec![RateWindow::forever(slowdown)],
        }
    }

    /// Adds a degradation window.
    pub fn with_window(mut self, window: RateWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// The combined slowdown factor in effect at `at_ns` of the link's
    /// virtual time (`1.0` when no window is active).
    pub fn slowdown_at(&self, at_ns: u64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.contains(at_ns))
            .map(RateWindow::factor)
            .product()
    }

    /// Scales a base latency charge that starts at `at_ns` by the
    /// slowdown in effect at that instant.
    pub fn scaled_ns(&self, at_ns: u64, base_ns: u64) -> u64 {
        let factor = self.slowdown_at(at_ns);
        if factor <= 1.0 {
            base_ns
        } else {
            (base_ns as f64 * factor).round() as u64
        }
    }

    /// Whether the schedule never changes anything.
    pub fn is_identity(&self) -> bool {
        self.windows.iter().all(|w| w.factor() <= 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{TreeRunReport, TreeSim};
    use crate::transfer::{CompressionSpec, Transfer};

    fn cfg(nodes: usize) -> NetworkConfig {
        NetworkConfig::ten_gbe(nodes)
    }

    /// Runs `transfers` through the star `c` on the packet-level DES.
    fn run(c: &NetworkConfig, transfers: impl IntoIterator<Item = Transfer>) -> TreeRunReport {
        let mut sim = TreeSim::new(c.tree());
        for t in transfers {
            sim.add_transfer(t);
        }
        sim.run()
    }

    /// Ideal line-rate time for `bytes` (payload-only accounting).
    fn ideal_secs(c: &NetworkConfig, bytes: u64) -> f64 {
        let packets = bytes.div_ceil(c.mtu_payload);
        ((bytes + packets * c.header_bytes) * 8) as f64 / c.link_bps as f64
    }

    /// The per-packet wire payloads of `t`, as the closed forms take them.
    fn payloads(c: &NetworkConfig, t: &Transfer) -> Vec<u64> {
        (0..t.packet_count(c.mtu_payload))
            .map(|i| t.wire_payload(c.mtu_payload, i))
            .collect()
    }

    #[test]
    fn single_transfer_close_to_line_rate() {
        let c = cfg(2);
        let bytes = 10_000_000u64;
        let t = run(&c, [Transfer::new(0, 1, bytes)]).makespan_s;
        let ideal = ideal_secs(&c, bytes);
        assert!(t >= ideal, "faster than the wire: {t} < {ideal}");
        assert!(t < ideal * 1.05, "too slow: {t} vs {ideal}");
    }

    #[test]
    fn empty_transfer_finishes_at_start() {
        let rep = run(&cfg(2), [Transfer::new(0, 1, 0).starting_at(42)]);
        assert_eq!(rep.makespan_ns, 42);
    }

    #[test]
    fn incast_shares_the_downlink() {
        // 4 senders to one receiver: the receiver downlink serializes
        // everything, so the makespan is ~4x a single flow.
        let c = cfg(5);
        let bytes = 5_000_000u64;
        let t = run(&c, (1..5).map(|s| Transfer::new(s, 0, bytes))).makespan_s;
        let ideal = 4.0 * ideal_secs(&c, bytes);
        assert!(t >= ideal * 0.98 && t < ideal * 1.05, "{t} vs {ideal}");
    }

    #[test]
    fn disjoint_pairs_run_fully_parallel() {
        let c = cfg(4);
        let bytes = 5_000_000u64;
        // 0->1 and 2->3 share nothing.
        let t = run(&c, [Transfer::new(0, 1, bytes), Transfer::new(2, 3, bytes)]).makespan_s;
        let solo = ideal_secs(&c, bytes);
        assert!(t < solo * 1.05, "parallel flows slowed down: {t} vs {solo}");
    }

    #[test]
    fn ring_neighbors_run_fully_parallel() {
        // i -> (i+1)%p uses p distinct uplinks and p distinct downlinks.
        let c = cfg(4);
        let bytes = 2_000_000u64;
        let t = run(&c, (0..4).map(|i| Transfer::new(i, (i + 1) % 4, bytes))).makespan_s;
        let solo = ideal_secs(&c, bytes);
        assert!(t < solo * 1.05, "{t} vs {solo}");
    }

    #[test]
    fn compression_cuts_time_but_not_proportionally() {
        let c = cfg(2);
        let bytes = 20_000_000u64;
        let t_plain = run(&c, [Transfer::new(0, 1, bytes)]).makespan_s;
        let spec = CompressionSpec::new(14.9, 500);
        let t_comp = run(&c, [Transfer::new(0, 1, bytes).compressed(spec)]).makespan_s;
        let gain = t_plain / t_comp;
        // Sec. VIII-C: ratio 14.9 yields only ~5.5-11.6x time reduction
        // because packet count and headers are unchanged.
        assert!(gain > 5.0, "compression gained only {gain:.2}x");
        assert!(gain < 12.0, "gain {gain:.2}x should trail the 14.9x ratio");
    }

    #[test]
    fn staggered_start_delays_completion() {
        let rep = run(&cfg(2), [Transfer::new(0, 1, 1000).starting_at(1_000_000)]);
        assert!(rep.makespan_ns > 1_000_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            run(
                &cfg(5),
                (1..5).flat_map(|s| {
                    [
                        Transfer::new(s, 0, 3_333_333),
                        Transfer::new(0, s, 1_234_567),
                    ]
                }),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn wire_bytes_account_headers() {
        // Two full packets, each served once by the source's uplink and
        // once by the destination's downlink, headers included.
        let c = cfg(2);
        let rep = run(&c, [Transfer::new(0, 1, 2 * c.mtu_payload)]);
        let per_link = 2 * c.mtu_payload + 2 * c.header_bytes;
        let mut busy = rep.wire_bytes_by_link.clone();
        busy.retain(|&b| b > 0);
        assert_eq!(busy, [per_link, per_link]);
        assert_eq!(rep.total_wire_bytes(), 2 * per_link);
    }

    #[test]
    fn run_replays_flows_into_obs() {
        let c = cfg(3);
        let mut sim = TreeSim::new(c.tree());
        let flows = [
            Transfer::new(0, 1, 100_000),
            Transfer::new(2, 1, 50_000).starting_at(5_000),
        ];
        for t in flows {
            sim.add_transfer(t);
        }
        let mut early = obs::EventBuf::local();
        sim.record_into(&mut early);
        assert!(early.events().is_empty(), "unfinished flows are skipped");
        let rep = sim.run();
        let mut buf = obs::EventBuf::local();
        sim.record_into(&mut buf);
        let summary = obs::export::Summary::of(buf.events());
        assert_eq!(summary.net_transfers, 2);
        // Each packet is counted once per flow, not once per link.
        let wire: u64 = flows
            .iter()
            .map(|t| t.bytes + t.packet_count(c.mtu_payload) * c.header_bytes)
            .sum();
        assert_eq!(summary.net_transfer_bytes, wire);
        // Both flows share node 1's downlink; the second finishes first,
        // at 92_810 ns (recorded from the star core this DES replaced).
        assert_eq!(rep.makespan_ns, 130_794);
        assert_eq!(summary.net_transfer_ns, 130_794 + (92_810 - 5_000));
        let mut off = obs::EventBuf::disabled();
        sim.record_into(&mut off);
        assert!(off.events().is_empty());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn add_transfer_validates_endpoints() {
        run(&cfg(2), [Transfer::new(0, 7, 10)]);
    }

    #[test]
    fn message_latency_matches_des_exactly() {
        // The closed form solves the single-flow DES, so for a lone
        // transfer the two must agree to the nanosecond.
        let c = cfg(2);
        for &bytes in &[1u64, 100, 1448, 1449, 50_000, 3_000_000] {
            let t = Transfer::new(0, 1, bytes);
            assert_eq!(
                c.message_latency_ns(&payloads(&c, &t)),
                run(&c, [t]).makespan_ns,
                "closed form diverged from DES at {bytes} bytes"
            );
        }
    }

    #[test]
    fn message_latency_handles_shrunk_payloads() {
        // Compressed flows keep the packet count but shrink payloads; the
        // closed form takes the per-packet wire sizes directly. Engine
        // latency is charged by the NIC model, not here, so compare
        // against a DES spec with zero engine latency.
        let c = cfg(2);
        let spec = CompressionSpec::new(5.2, 0);
        let t = Transfer::new(0, 1, 500_000).compressed(spec);
        assert_eq!(
            c.message_latency_ns(&payloads(&c, &t)),
            run(&c, [t]).makespan_ns
        );
        assert!(c.message_latency_ns(&[]) == 0);
    }

    #[test]
    fn half_leg_latency_is_between_half_and_full_message_latency() {
        // One access link serialized instead of two: the half leg is
        // strictly cheaper than the full star traversal, but no cheaper
        // than the serialization floor of the same packets on one link.
        let c = cfg(2);
        for &bytes in &[1u64, 1448, 50_000, 3_000_000] {
            let payloads = payloads(&c, &Transfer::new(0, 1, bytes));
            let half = c.half_message_latency_ns(&payloads);
            let full = c.message_latency_ns(&payloads);
            assert!(half < full, "{bytes} bytes: half {half} vs full {full}");
            let floor: u64 = payloads
                .iter()
                .map(|&p| c.serialize_ns(p + c.header_bytes))
                .sum();
            assert!(half >= floor, "{bytes} bytes: half {half} < floor {floor}");
        }
        assert_eq!(c.half_message_latency_ns(&[]), 0);
    }

    #[test]
    fn rate_schedule_scales_only_inside_windows() {
        let sched = LinkRateSchedule::new().with_window(RateWindow {
            start_ns: 1_000,
            end_ns: 2_000,
            slowdown: 4.0,
        });
        assert_eq!(sched.scaled_ns(0, 100), 100);
        assert_eq!(sched.scaled_ns(1_000, 100), 400);
        assert_eq!(sched.scaled_ns(1_999, 100), 400);
        assert_eq!(sched.scaled_ns(2_000, 100), 100);
        assert!(!sched.is_identity());
    }

    #[test]
    fn overlapping_windows_compound_and_identity_is_free() {
        let sched = LinkRateSchedule::always(2.0).with_window(RateWindow {
            start_ns: 0,
            end_ns: 10,
            slowdown: 3.0,
        });
        assert_eq!(sched.scaled_ns(5, 100), 600);
        assert_eq!(sched.scaled_ns(50, 100), 200);
        let identity = LinkRateSchedule::new();
        assert!(identity.is_identity());
        assert_eq!(identity.scaled_ns(123, 777), 777);
        // Sub-unity slowdowns clamp: a "fast" window cannot create time.
        assert!(LinkRateSchedule::always(0.5).is_identity());
        assert_eq!(LinkRateSchedule::always(0.5).scaled_ns(0, 100), 100);
    }
}
