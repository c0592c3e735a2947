//! First-class topology trees and the packet-level simulator.
//!
//! The paper's testbed is a star around one switch and its Fig. 1
//! sketches stop at racks under a core. Both are instances of a
//! configurable [`Topology`] — rings of racks, racks of rings, arbitrary
//! depth — that the exchange strategies traverse generically and the
//! packet-level [`TreeSim`], the crate's one discrete-event loop,
//! simulates directly: the star is the depth-1 tree
//! ([`crate::sim::NetworkConfig::tree`]). The DES runs on the
//! calendar-queue scheduler from [`crate::event`], which is what keeps a
//! 1024-worker simulation inside the CI smoke budget. It schedules only
//! events that change state: a packet leaving its route's last link
//! records its flow's finish time directly instead of scheduling an
//! `Arrive` that would do nothing else, which leaves the order of every
//! other event, and so every simulated number, unchanged. Each
//! exchange builds one [`TreeSim`] and resets it between its phases,
//! keeping the compiled links and all storage.
//!
//! Three things live here:
//!
//! * [`Topology`] — the tree grammar: a worker leaf or a group of
//!   subtrees ringed together at one tier. Supports per-tier excision
//!   ([`Topology::excise`]) for fault re-stitch and compiles to a
//!   [`TierMap`] for per-tier wire accounting;
//! * [`TreeSim`] / [`TreeConfig`] — the event core: every worker↔switch
//!   and switch↔switch edge is a full-duplex FIFO server, with
//!   store-and-forward latency per hop;
//! * the generic exchanges — [`wa_exchange_on`] (with its wire volume,
//!   [`wa_exchange_with_wire`]), [`ring_exchange_on`] and
//!   [`switch_reduce_exchange`]: the worker-aggregator and ring
//!   collectives over an arbitrary collective hierarchy, plus the
//!   NetReduce-style switch-resident aggregation mode in which switch
//!   ports fold gradient packets in flight and the gather leg's wire
//!   volume disappears. They are the one simulated description of each
//!   strategy: [`crate::collective`]'s star exchanges are their depth-1
//!   case.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::CalendarQueue;
use crate::transfer::{CompressionSpec, Transfer};

/// A cluster topology: a worker leaf or a group of subtrees joined at
/// one switch tier.
///
/// Worker ids are explicit so excision keeps surviving ids stable. Tier
/// numbering follows lowest-common-ancestor depth: tier 0 is the root
/// (core) ring, deeper tiers are closer to the workers.
///
/// # Examples
///
/// ```
/// use inceptionn_netsim::topology::Topology;
///
/// let t = Topology::uniform(&[2, 4]); // 2 racks of 4 workers
/// assert_eq!(t.worker_count(), 8);
/// assert_eq!(t.depth(), 2);
/// let map = t.tier_map();
/// assert_eq!(map.tier_of(0, 1), 1); // same rack: edge tier
/// assert_eq!(map.tier_of(0, 5), 0); // cross rack: core tier
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// A single worker endpoint.
    Worker(usize),
    /// A group of subtrees hanging off one switch.
    Group(Vec<Topology>),
}

impl Topology {
    /// A flat topology: `n` workers around one switch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn flat(n: usize) -> Topology {
        Topology::uniform(&[n])
    }

    /// The classic rack fabric: `racks` groups of `per_rack` workers.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn two_tier(racks: usize, per_rack: usize) -> Topology {
        Topology::uniform(&[racks, per_rack])
    }

    /// A uniform tree: `arities[0]` children at the root, each with
    /// `arities[1]` children, and so on; leaves are workers numbered
    /// leaf-major from zero.
    ///
    /// # Panics
    ///
    /// Panics if `arities` is empty or contains a zero.
    pub fn uniform(arities: &[usize]) -> Topology {
        assert!(!arities.is_empty(), "topology needs at least one tier");
        assert!(arities.iter().all(|&a| a > 0), "zero arity");
        let mut next = 0usize;
        fn build(arities: &[usize], next: &mut usize) -> Topology {
            match arities {
                [] => {
                    let id = *next;
                    *next += 1;
                    Topology::Worker(id)
                }
                [a, rest @ ..] => Topology::Group((0..*a).map(|_| build(rest, next)).collect()),
            }
        }
        build(arities, &mut next)
    }

    /// Number of worker leaves.
    pub fn worker_count(&self) -> usize {
        match self {
            Topology::Worker(_) => 1,
            Topology::Group(kids) => kids.iter().map(Topology::worker_count).sum(),
        }
    }

    /// Worker ids in leaf-major order.
    pub fn workers(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.worker_count());
        self.collect_workers(&mut out);
        out
    }

    fn collect_workers(&self, out: &mut Vec<usize>) {
        match self {
            Topology::Worker(w) => out.push(*w),
            Topology::Group(kids) => kids.iter().for_each(|k| k.collect_workers(out)),
        }
    }

    /// The subtree's leader: its first worker in leaf order.
    pub fn leader(&self) -> usize {
        match self {
            Topology::Worker(w) => *w,
            Topology::Group(kids) => kids[0].leader(),
        }
    }

    /// Switch tiers between the root and the deepest worker (a flat
    /// topology has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Topology::Worker(_) => 0,
            Topology::Group(kids) => 1 + kids.iter().map(Topology::depth).max().unwrap_or(0),
        }
    }

    /// The per-tier arities when the tree is uniform (every group at a
    /// depth has the same child count and shape); `None` for ragged
    /// trees, e.g. after excision.
    pub fn arities(&self) -> Option<Vec<usize>> {
        match self {
            Topology::Worker(_) => Some(Vec::new()),
            Topology::Group(kids) => {
                let first = kids[0].arities()?;
                for k in &kids[1..] {
                    if k.arities()? != first {
                        return None;
                    }
                }
                let mut out = vec![kids.len()];
                out.extend(first);
                Some(out)
            }
        }
    }

    /// Removes one worker, dropping any group the removal empties; the
    /// per-tier fault re-stitch. Returns `None` when the last worker is
    /// excised.
    pub fn excise(&self, worker: usize) -> Option<Topology> {
        match self {
            Topology::Worker(w) => (*w != worker).then(|| self.clone()),
            Topology::Group(kids) => {
                let kids: Vec<Topology> = kids.iter().filter_map(|k| k.excise(worker)).collect();
                (!kids.is_empty()).then_some(Topology::Group(kids))
            }
        }
    }

    /// Rebuilds the subtree containing only the workers in `live`,
    /// dropping any group the restriction empties. This is the
    /// membership counterpart of [`excise`](Self::excise): excision
    /// prunes one leaf from the *live* tree, while `restrict` re-derives
    /// the live tree from the *pristine* configured topology — so a
    /// worker that left (or crashed) and rejoins is re-grafted at its
    /// original position with the original group structure around it.
    /// Returns `None` when no live worker remains.
    pub fn restrict(&self, live: &[usize]) -> Option<Topology> {
        match self {
            Topology::Worker(w) => live.contains(w).then(|| self.clone()),
            Topology::Group(kids) => {
                let kids: Vec<Topology> = kids.iter().filter_map(|k| k.restrict(live)).collect();
                (!kids.is_empty()).then_some(Topology::Group(kids))
            }
        }
    }

    /// Compiles the per-worker root paths used for tier attribution.
    pub fn tier_map(&self) -> TierMap {
        let mut paths = BTreeMap::new();
        fn walk(t: &Topology, path: &mut Vec<u32>, paths: &mut BTreeMap<usize, Vec<u32>>) {
            match t {
                Topology::Worker(w) => {
                    paths.insert(*w, path.clone());
                }
                Topology::Group(kids) => {
                    for (i, k) in kids.iter().enumerate() {
                        path.push(i as u32);
                        walk(k, path, paths);
                        path.pop();
                    }
                }
            }
        }
        walk(self, &mut Vec::new(), &mut paths);
        TierMap {
            paths,
            depth: self.depth().max(1),
        }
    }
}

/// Compiled worker→root paths: answers "which tier does traffic between
/// two workers belong to" in O(depth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierMap {
    /// Per worker: child indices from the root down to the leaf's group.
    paths: BTreeMap<usize, Vec<u32>>,
    depth: usize,
}

impl TierMap {
    /// Number of switch tiers (≥ 1).
    pub fn tiers(&self) -> usize {
        self.depth
    }

    /// The tier a transfer between `a` and `b` belongs to: the depth of
    /// their lowest common ancestor. 0 is the root (core) ring; an
    /// endpoint outside the topology (e.g. a host-side aggregator bolted
    /// onto the fabric) attributes to tier 0.
    pub fn tier_of(&self, a: usize, b: usize) -> usize {
        let (Some(pa), Some(pb)) = (self.paths.get(&a), self.paths.get(&b)) else {
            return 0;
        };
        let lca = pa.iter().zip(pb).take_while(|(x, y)| x == y).count();
        // Two distinct leaves diverge strictly above leaf depth, so the
        // LCA depth is a valid link tier; clamp defensively anyway.
        lca.min(self.depth - 1)
    }

    /// Whether `worker` is a leaf of the compiled topology.
    pub fn contains(&self, worker: usize) -> bool {
        self.paths.contains_key(&worker)
    }
}

/// Parameters of the tree fabric: a topology plus per-tier link rates
/// and the per-hop constants of the star's
/// [`NetworkConfig`](crate::sim::NetworkConfig).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// The switch tree. Workers must be numbered `0..worker_count`.
    pub topology: Topology,
    /// Link bandwidth per tier, bits/s; `tier_bps[0]` is the core ring,
    /// the last entry the worker edge links.
    pub tier_bps: Vec<u64>,
    /// Propagation + PHY latency per hop, ns.
    pub hop_latency_ns: u64,
    /// Per-switch forwarding latency, ns.
    pub switch_latency_ns: u64,
    /// MSS payload bytes.
    pub mtu_payload: u64,
    /// Per-packet wire overhead bytes.
    pub header_bytes: u64,
    /// Per-packet host cost at the sender, ns.
    pub host_ns_per_packet: u64,
}

impl TreeConfig {
    /// A 10 GbE edge fabric over `Topology::uniform(arities)` where the
    /// tier-`d` uplinks carry the full subtree bandwidth divided by
    /// `oversub[d]` (the leaf tier is the 10 GbE edge itself, so its
    /// entry is normally 1).
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, lengths differ, or any entry is
    /// zero.
    pub fn ten_gbe(arities: &[usize], oversub: &[u64]) -> Self {
        assert_eq!(
            arities.len(),
            oversub.len(),
            "one oversubscription factor per tier"
        );
        assert!(oversub.iter().all(|&o| o > 0), "zero oversubscription");
        const EDGE: u64 = 10_000_000_000;
        let depth = arities.len();
        let tier_bps = (0..depth)
            .map(|d| {
                // A tier-d link feeds the whole subtree below it.
                let subtree: u64 =
                    arities[d..].iter().map(|&a| a as u64).product::<u64>() / arities[d] as u64;
                EDGE * subtree.max(1) / oversub[d]
            })
            .collect();
        TreeConfig {
            topology: Topology::uniform(arities),
            tier_bps,
            hop_latency_ns: 1_000,
            switch_latency_ns: 1_000,
            mtu_payload: 1448,
            header_bytes: 78,
            host_ns_per_packet: 150,
        }
    }

    /// Total worker count.
    pub fn workers(&self) -> usize {
        self.topology.worker_count()
    }
}

/// A flow with at least one end inside a switch port: the legs of
/// switch-resident reduction. Each is anchored at one worker and at the
/// depth of one of that worker's ancestor switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SwitchLeg {
    /// Worker up to its ancestor switch at the depth (inclusive): the
    /// contribution leg. The packet never descends: the gather leg does
    /// not exist.
    Contribution,
    /// Ancestor switch at the depth down to the worker: the broadcast
    /// leg.
    Distribution,
    /// One switch-to-switch hop upward from the worker's ancestor at the
    /// depth to its parent: a folded partial stream climbing the tree.
    Uplink,
    /// The downward mirror of [`SwitchLeg::Uplink`].
    Downlink,
}

/// One packet in flight. Its size is all it carries of its own; the
/// route, the engine latency and whether it is the flow's last packet
/// are the flow's.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    flow: u32,
    /// Links of the route crossed so far.
    hop: u32,
    wire_bytes: u64,
}

#[derive(Debug, Default)]
struct LinkState {
    queue: std::collections::VecDeque<Pkt>,
    busy: bool,
    /// The last on-wire size served and its serialisation time: a
    /// flow's packets but the last share one size.
    last_wire: u64,
    last_ser_ns: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Inject { flow: u32 },
    Free { link: u32 },
    Arrive { pkt: Pkt },
}

#[derive(Debug)]
struct Flow {
    transfer: Transfer,
    /// The route is `routes[route_start..route_start + route_len]`.
    route_start: u32,
    route_len: u32,
    next_packet: u64,
    packets: u64,
    /// On-wire payload of every packet but the last, and of the last.
    wire_payload: u64,
    last_wire_payload: u64,
    /// Packets that have left the route's last link.
    delivered: u64,
    /// The compression engines' per-packet latency, paid on the last hop.
    extra_latency_ns: u64,
    /// When the last packet fully arrived; `None` until then.
    finish_ns: Option<u64>,
    /// Payload + header bytes injected so far, each packet counted once
    /// however many links it crosses.
    wire_bytes: u64,
}

/// What one [`TreeSim`] run moved and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRunReport {
    /// Makespan in integer nanoseconds of simulated time.
    pub makespan_ns: u64,
    /// Makespan in seconds.
    pub makespan_s: f64,
    /// On-wire bytes (payload + headers) served per link tier; one
    /// entry per tier, index 0 the core.
    pub wire_bytes_by_tier: Vec<u64>,
    /// On-wire bytes served per individual link.
    pub wire_bytes_by_link: Vec<u64>,
}

impl TreeRunReport {
    /// Total on-wire bytes across all tiers.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes_by_tier.iter().sum()
    }
}

/// Packet-level simulation of concurrent transfers through the tree
/// fabric, scheduled on the calendar queue.
#[derive(Debug)]
pub struct TreeSim {
    cfg: TreeConfig,
    links: Vec<LinkState>,
    rates: Vec<u64>,
    tiers: Vec<usize>,
    /// Per worker: edge links to/from the parent switch.
    leaf_up: Vec<usize>,
    leaf_down: Vec<usize>,
    /// Per worker: ancestor group ids root→parent.
    group_path: Vec<Vec<usize>>,
    /// Per non-root group id: links to/from its parent.
    group_up: Vec<Option<usize>>,
    group_down: Vec<Option<usize>>,
    flows: Vec<Flow>,
    /// Every flow's route, back to back: link ids in hop order.
    routes: Vec<u32>,
    events: CalendarQueue<Ev>,
    served: Vec<u64>,
}

impl TreeSim {
    /// Compiles the topology into per-port link state.
    ///
    /// # Panics
    ///
    /// Panics if the topology's workers are not exactly `0..n`, any
    /// tier lacks a bandwidth entry or has zero bandwidth, or the MTU
    /// payload is zero.
    pub fn new(cfg: TreeConfig) -> Self {
        let n = cfg.topology.worker_count();
        let depth = cfg.topology.depth().max(1);
        assert_eq!(
            cfg.tier_bps.len(),
            depth,
            "one bandwidth per tier (depth {depth})"
        );
        assert!(
            cfg.tier_bps.iter().all(|&bps| bps > 0),
            "link bandwidth must be positive"
        );
        assert!(cfg.mtu_payload > 0, "mtu payload must be positive");
        let workers = cfg.topology.workers();
        assert!(
            workers.iter().enumerate().all(|(i, &w)| i == w),
            "TreeSim requires workers numbered 0..n in leaf order"
        );
        let mut sim = TreeSim {
            links: Vec::new(),
            rates: Vec::new(),
            tiers: Vec::new(),
            leaf_up: vec![usize::MAX; n],
            leaf_down: vec![usize::MAX; n],
            group_path: vec![Vec::new(); n],
            group_up: Vec::new(),
            group_down: Vec::new(),
            flows: Vec::new(),
            routes: Vec::new(),
            events: CalendarQueue::new(),
            served: Vec::new(),
            cfg,
        };
        let topo = sim.cfg.topology.clone();
        sim.compile(&topo, 0, &mut Vec::new());
        sim.served = vec![0; sim.links.len()];
        sim
    }

    /// Registers one link at `tier`, returning its id.
    fn add_link(&mut self, tier: usize) -> usize {
        let id = self.links.len();
        self.links.push(LinkState::default());
        self.rates.push(self.cfg.tier_bps[tier]);
        self.tiers.push(tier);
        id
    }

    /// Walks the tree assigning group ids and link ids. `depth` is the
    /// depth of the *current* node; `chain` holds ancestor group ids.
    fn compile(&mut self, node: &Topology, depth: usize, chain: &mut Vec<usize>) {
        match node {
            Topology::Worker(w) => {
                // Edge link tier = depth of the parent switch.
                let tier = depth - 1;
                self.leaf_up[*w] = self.add_link(tier);
                self.leaf_down[*w] = self.add_link(tier);
                self.group_path[*w] = chain.clone();
            }
            Topology::Group(kids) => {
                let gid = self.group_up.len();
                if depth == 0 {
                    self.group_up.push(None);
                    self.group_down.push(None);
                } else {
                    let up = self.add_link(depth - 1);
                    let down = self.add_link(depth - 1);
                    self.group_up.push(Some(up));
                    self.group_down.push(Some(down));
                }
                chain.push(gid);
                for k in kids {
                    self.compile(k, depth + 1, chain);
                }
                chain.pop();
            }
        }
    }

    /// Appends the route from `src`'s NIC up to the LCA with `dst` and
    /// back down to `routes`.
    fn end_to_end_route(&mut self, src: usize, dst: usize) {
        let (pa, pb) = (&self.group_path[src], &self.group_path[dst]);
        let lca = pa.iter().zip(pb).take_while(|(x, y)| x == y).count();
        let routes = &mut self.routes;
        routes.push(self.leaf_up[src] as u32);
        for &g in pa[lca..].iter().rev() {
            routes.push(self.group_up[g].expect("non-root ancestor has an uplink") as u32);
        }
        for &g in &pb[lca..] {
            routes.push(self.group_down[g].expect("non-root ancestor has a downlink") as u32);
        }
        routes.push(self.leaf_down[dst] as u32);
    }

    /// Appends the route of `leg` for `worker` at `depth` to `routes`.
    fn switch_route(&mut self, leg: SwitchLeg, worker: usize, depth: usize) {
        let path = &self.group_path[worker];
        assert!(depth < path.len(), "no ancestor switch at depth {depth}");
        let routes = &mut self.routes;
        match leg {
            SwitchLeg::Contribution => {
                // Up through ancestors until the switch at `depth`.
                routes.push(self.leaf_up[worker] as u32);
                for &g in path[depth + 1..].iter().rev() {
                    routes.push(self.group_up[g].expect("ancestor uplink") as u32);
                }
            }
            SwitchLeg::Distribution => {
                for &g in &path[depth + 1..] {
                    routes.push(self.group_down[g].expect("ancestor downlink") as u32);
                }
                routes.push(self.leaf_down[worker] as u32);
            }
            SwitchLeg::Uplink => {
                routes.push(self.group_up[path[depth]].expect("child switch has an uplink") as u32)
            }
            SwitchLeg::Downlink => routes
                .push(self.group_down[path[depth]].expect("child switch has a downlink") as u32),
        }
    }

    /// Registers a flow whose route was just appended to `routes`.
    fn add_flow(&mut self, transfer: Transfer, route_start: usize) -> usize {
        let id = self.flows.len();
        let mtu = self.cfg.mtu_payload;
        let packets = transfer.packet_count(mtu);
        let payload = |i| {
            if packets == 0 {
                0
            } else {
                transfer.wire_payload(mtu, i)
            }
        };
        self.flows.push(Flow {
            packets,
            wire_payload: payload(0),
            last_wire_payload: payload(packets.saturating_sub(1)),
            extra_latency_ns: transfer.compression.map_or(0, |c| c.engine_latency_ns),
            transfer,
            route_start: route_start as u32,
            route_len: (self.routes.len() - route_start) as u32,
            next_packet: 0,
            delivered: 0,
            finish_ns: None,
            wire_bytes: 0,
        });
        id
    }

    /// Submits a worker-to-worker transfer.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_transfer(&mut self, t: Transfer) -> usize {
        let n = self.leaf_up.len();
        assert!(t.src < n && t.dst < n, "endpoint out of range");
        let start = self.routes.len();
        self.end_to_end_route(t.src, t.dst);
        self.add_flow(t, start)
    }

    /// Submits `bytes` (optionally compressed) along one switch leg of
    /// `worker` at `depth`. The flow has no second NIC, so its transfer
    /// names `worker` as both endpoints.
    fn add_switch_leg(
        &mut self,
        leg: SwitchLeg,
        worker: usize,
        depth: usize,
        bytes: u64,
        compression: Option<CompressionSpec>,
    ) -> usize {
        let start = self.routes.len();
        self.switch_route(leg, worker, depth);
        let transfer = Transfer {
            src: worker,
            dst: worker,
            bytes,
            start_ns: 0,
            compression,
        };
        self.add_flow(transfer, start)
    }

    /// Starts serialising the head of `link`'s queue if the link is idle.
    fn kick(&mut self, link: usize, now: u64) {
        let state = &mut self.links[link];
        if state.busy {
            return;
        }
        let Some(pkt) = state.queue.front() else {
            return;
        };
        state.busy = true;
        let wire = pkt.wire_bytes + self.cfg.header_bytes;
        self.served[link] += wire;
        if wire != state.last_wire {
            state.last_wire = wire;
            state.last_ser_ns = (wire * 8 * 1_000_000_000).div_ceil(self.rates[link]);
        }
        self.events
            .push(now + state.last_ser_ns, Ev::Free { link: link as u32 });
    }

    /// Clears flows, routes and served bytes for the next phase, keeping
    /// the compiled links and all storage. The link queues and the event
    /// queue are already empty: a run delivers every packet.
    fn reset(&mut self) {
        debug_assert!(self.events.is_empty());
        self.flows.clear();
        self.routes.clear();
        self.served.fill(0);
    }

    /// Resets, submits `transfers` and runs them; the makespan in
    /// seconds (0 when there are none).
    fn run_phase(&mut self, transfers: impl IntoIterator<Item = Transfer>) -> f64 {
        self.reset();
        for t in transfers {
            self.add_transfer(t);
        }
        self.simulate() as f64 * 1e-9
    }

    /// Adds each link's served bytes to its tier's entry of `by_tier`.
    fn add_served_by_tier(&self, by_tier: &mut [u64]) {
        for (&bytes, &tier) in self.served.iter().zip(&self.tiers) {
            by_tier[tier] += bytes;
        }
    }

    /// The event loop: runs every submitted flow to completion and
    /// returns the makespan in nanoseconds.
    ///
    /// A packet's `Arrive` at the end of its route would change no
    /// state but its flow's `finish_ns`, so it is never scheduled: the
    /// last hop's `Free` records that time directly. An event that
    /// pushes nothing and touches no link, once dropped, leaves the
    /// relative `(time, seq)` order of every other event, and so the
    /// whole run, unchanged. `Free` and `Inject` events, and when an
    /// intermediate `Arrive` is pushed, must stay as they are: they
    /// decide the order of equal-time appends to a shared link's FIFO.
    fn simulate(&mut self) -> u64 {
        for (id, flow) in self.flows.iter_mut().enumerate() {
            if flow.packets == 0 {
                flow.finish_ns = Some(flow.transfer.start_ns);
            } else {
                self.events
                    .push(flow.transfer.start_ns, Ev::Inject { flow: id as u32 });
            }
        }
        let TreeConfig {
            hop_latency_ns,
            switch_latency_ns,
            host_ns_per_packet,
            header_bytes,
            ..
        } = self.cfg;
        while let Some((now, ev)) = self.events.pop() {
            match ev {
                Ev::Inject { flow: id } => {
                    let flow = &mut self.flows[id as usize];
                    flow.next_packet += 1;
                    let more = flow.next_packet < flow.packets;
                    let wire = if more {
                        flow.wire_payload
                    } else {
                        flow.last_wire_payload
                    };
                    flow.wire_bytes += wire + header_bytes;
                    let first = self.routes[flow.route_start as usize] as usize;
                    self.links[first].queue.push_back(Pkt {
                        flow: id,
                        hop: 0,
                        wire_bytes: wire,
                    });
                    self.kick(first, now);
                    if more {
                        self.events
                            .push(now + host_ns_per_packet, Ev::Inject { flow: id });
                    }
                }
                Ev::Free { link } => {
                    let link = link as usize;
                    let mut pkt = {
                        let s = &mut self.links[link];
                        s.busy = false;
                        s.queue.pop_front().expect("busy link has head")
                    };
                    pkt.hop += 1;
                    let flow = &mut self.flows[pkt.flow as usize];
                    if pkt.hop < flow.route_len {
                        self.events
                            .push(now + hop_latency_ns + switch_latency_ns, Ev::Arrive { pkt });
                    } else {
                        // Links are FIFO and a flow's packets share one
                        // route, so they leave it in injection order.
                        flow.delivered += 1;
                        if flow.delivered == flow.packets {
                            flow.finish_ns = Some(now + hop_latency_ns + flow.extra_latency_ns);
                        }
                    }
                    self.kick(link, now);
                }
                Ev::Arrive { pkt } => {
                    let flow = &self.flows[pkt.flow as usize];
                    let next = self.routes[(flow.route_start + pkt.hop) as usize] as usize;
                    self.links[next].queue.push_back(pkt);
                    self.kick(next, now);
                }
            }
        }
        self.flows
            .iter()
            .filter_map(|f| f.finish_ns)
            .max()
            .unwrap_or(0)
    }

    /// Runs all flows to completion.
    pub fn run(&mut self) -> TreeRunReport {
        let makespan = self.simulate();
        let mut by_tier = vec![0u64; self.cfg.tier_bps.len()];
        self.add_served_by_tier(&mut by_tier);
        TreeRunReport {
            makespan_ns: makespan,
            makespan_s: makespan as f64 * 1e-9,
            wire_bytes_by_tier: by_tier,
            wire_bytes_by_link: self.served.clone(),
        }
    }

    /// Replays the completed run into an obs buffer: one virtual-time
    /// span per flow (track = source, key = destination, start → finish
    /// in simulated nanoseconds) plus its wire-byte counter, each packet
    /// counted once however many links it crossed. Call after
    /// [`TreeSim::run`]; flows that have not finished are skipped.
    pub fn record_into(&self, buf: &mut obs::EventBuf) {
        if !buf.is_on() {
            return;
        }
        for flow in &self.flows {
            let Some(finish) = flow.finish_ns else {
                continue;
            };
            let start = flow.transfer.start_ns;
            let src = flow.transfer.src as u32;
            let dst = flow.transfer.dst as u32;
            buf.push(obs::Event::complete(
                obs::labels::NET_TRANSFER,
                obs::Domain::Net,
                src,
                dst,
                start,
                finish - start,
            ));
            buf.push(obs::Event::count(
                obs::labels::NET_TRANSFER_BYTES,
                obs::Domain::Net,
                src,
                dst,
                start,
                flow.wire_bytes,
            ));
        }
    }
}

fn maybe_compress(t: Transfer, spec: Option<CompressionSpec>) -> Transfer {
    match spec {
        Some(s) => t.compressed(s),
        None => t,
    }
}

/// Runs a batch of concurrent worker-to-worker transfers; returns the
/// makespan in seconds.
pub fn phase(cfg: &TreeConfig, transfers: impl IntoIterator<Item = Transfer>) -> f64 {
    TreeSim::new(cfg.clone()).run_phase(transfers)
}

/// Group geometry of one level of a uniform collective hierarchy.
struct Level {
    /// Groups at this level.
    groups: usize,
    /// Members per group.
    arity: usize,
    /// Worker-id stride between adjacent members.
    stride: usize,
}

fn levels(arities: &[usize]) -> Vec<Level> {
    (0..arities.len())
        .map(|d| Level {
            groups: arities[..d].iter().product(),
            arity: arities[d],
            stride: arities[d + 1..].iter().product(),
        })
        .collect()
}

/// Wall-clock breakdown of one gradient exchange (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeTimes {
    /// Time spent moving bytes (the "Communicate" row of Table II).
    pub comm_s: f64,
    /// Time spent sum-reducing gradients (the "Gradient sum" row).
    pub reduce_s: f64,
}

impl ExchangeTimes {
    /// Total exchange wall-clock.
    pub fn total_s(&self) -> f64 {
        self.comm_s + self.reduce_s
    }
}

/// Worker-aggregator exchange over a collective hierarchy `arities`
/// (`[n]` is the flat Fig. 2 organization, `[racks, per_rack]` the
/// hierarchical Fig. 1(a)): members gather to leaders level by level,
/// the root folds, then weights flow back down uncompressed.
///
/// # Panics
///
/// Panics unless `arities` multiplies to the fabric's worker count.
pub fn wa_exchange_on(
    cfg: &TreeConfig,
    arities: &[usize],
    bytes: u64,
    gamma: f64,
    spec: Option<CompressionSpec>,
) -> ExchangeTimes {
    wa_exchange_with_wire(cfg, arities, bytes, gamma, spec).0
}

/// [`wa_exchange_on`] that also reports what the exchange put on the
/// wire: per-tier volume and the gather-leg bytes delivered into the
/// aggregation hosts — the baseline the switch-reduce curves are
/// plotted against.
///
/// # Panics
///
/// Panics unless `arities` multiplies to the fabric's worker count.
pub fn wa_exchange_with_wire(
    cfg: &TreeConfig,
    arities: &[usize],
    bytes: u64,
    gamma: f64,
    spec: Option<CompressionSpec>,
) -> (ExchangeTimes, ExchangeWire) {
    let n: usize = arities.iter().product();
    assert_eq!(n, cfg.workers(), "collective shape must cover the fabric");
    let lv = levels(arities);
    let mut comm = 0.0;
    let mut by_tier = vec![0u64; cfg.tier_bps.len()];
    let mut gather_leg = 0u64;
    // Up: deepest level first, members -> leader of each group. Down:
    // weights retrace the tree, top level first, uncompressed.
    let phases = lv.iter().rev().map(|l| (true, l));
    let mut sim = TreeSim::new(cfg.clone());
    for (up, level) in phases.chain(lv.iter().map(|l| (false, l))) {
        let direction = move |leader, member| {
            if up {
                (member, leader)
            } else {
                (leader, member)
            }
        };
        comm += sim.run_phase(
            group_transfers(level, bytes, direction)
                .map(|t| maybe_compress(t, spec.filter(|_| up))),
        );
        if up {
            // Bytes the aggregation hosts' downlinks carried: the
            // gather leg that in-switch reduction removes.
            gather_leg += (0..level.groups)
                .map(|q| sim.served[sim.leaf_down[q * level.arity * level.stride]])
                .sum::<u64>();
        }
        sim.add_served_by_tier(&mut by_tier);
    }
    // Folds: the flat organization folds p-1 incoming streams at the
    // root; each hierarchical level folds `arity` streams per leader
    // (members plus the leader's own).
    let reduce = if arities.len() == 1 {
        (n - 1) as f64 * bytes as f64 * gamma
    } else {
        arities.iter().map(|&a| a as f64).sum::<f64>() * bytes as f64 * gamma
    };
    (
        ExchangeTimes {
            comm_s: comm,
            reduce_s: reduce,
        },
        ExchangeWire {
            by_tier,
            gather_leg,
        },
    )
}

/// All leader↔member transfers of one level, all groups concurrent.
fn group_transfers(
    level: &Level,
    bytes: u64,
    direction: impl Fn(usize, usize) -> (usize, usize) + Copy,
) -> impl Iterator<Item = Transfer> {
    let (groups, arity, stride) = (level.groups, level.arity, level.stride);
    (0..groups).flat_map(move |q| {
        let base = q * arity * stride;
        (1..arity).map(move |m| {
            let (src, dst) = direction(base, base + m * stride);
            Transfer::new(src, dst, bytes)
        })
    })
}

/// Ring exchange over a collective hierarchy `arities` (`[n]` is the
/// flat Fig. 1(b) ring, `[racks, per_rack]` the hierarchical Fig. 1(c)):
/// ring all-reduce among the children of every group deepest level
/// first, then leaders propagate the sum back down via pipelined chain
/// broadcasts.
///
/// # Panics
///
/// Panics unless `arities` multiplies to the fabric's worker count.
pub fn ring_exchange_on(
    cfg: &TreeConfig,
    arities: &[usize],
    bytes: u64,
    gamma: f64,
    spec: Option<CompressionSpec>,
    host_s_per_byte: f64,
) -> ExchangeTimes {
    let n: usize = arities.iter().product();
    assert_eq!(n, cfg.workers(), "collective shape must cover the fabric");
    let lv = levels(arities);
    let mut comm = 0.0;
    let mut reduce = 0.0;
    let mut sim = TreeSim::new(cfg.clone());
    // Ring phases, deepest first.
    for level in lv.iter().rev() {
        if level.arity < 2 {
            continue;
        }
        let block = bytes.div_ceil(level.arity as u64);
        let (groups, arity, stride) = (level.groups, level.arity, level.stride);
        let step = sim.run_phase(
            (0..groups)
                .flat_map(move |q| {
                    let base = q * arity * stride;
                    (0..arity).map(move |m| {
                        Transfer::new(base + m * stride, base + (m + 1) % arity * stride, block)
                    })
                })
                .map(|t| maybe_compress(t, spec)),
        ) + block as f64 * host_s_per_byte;
        comm += 2.0 * (level.arity - 1) as f64 * step;
        reduce += (level.arity - 1) as f64 * block as f64 * gamma;
    }
    // Broadcast phases, top first: each group leader seeds a pipelined
    // chain through its group (modeled as the first-hop transfer).
    for level in lv.iter().skip(1) {
        if level.arity < 2 {
            continue;
        }
        let (groups, arity, stride) = (level.groups, level.arity, level.stride);
        comm += sim.run_phase(
            (0..groups)
                .map(move |q| {
                    let base = q * arity * stride;
                    Transfer::new(base, base + stride, bytes)
                })
                .map(|t| maybe_compress(t, spec)),
        );
    }
    ExchangeTimes {
        comm_s: comm,
        reduce_s: reduce,
    }
}

/// Per-leg wire volumes of one switch-reduce or worker-aggregator
/// exchange, for the fig12-style curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExchangeWire {
    /// On-wire bytes served per tier (payload + headers).
    pub by_tier: Vec<u64>,
    /// Bytes delivered *into an aggregation host NIC* during the gather
    /// direction — the leg switch-resident reduction eliminates.
    pub gather_leg: u64,
}

/// NetReduce-style switch-resident aggregation over the whole fabric:
/// every worker ships its (optionally compressed) gradient one hop up,
/// switch ports fold packets in flight tier by tier, and the root
/// switch broadcasts the folded stream back down. No gradient ever
/// descends toward an aggregation host, so the gather leg's wire volume
/// is exactly zero.
///
/// Folding happens at line rate in the switch reduce units
/// ([`inceptionn-nicsim`'s switch aggregation model]), so `reduce_s`
/// is zero: the fold is overlapped with reception.
pub fn switch_reduce_exchange(
    cfg: &TreeConfig,
    bytes: u64,
    spec: Option<CompressionSpec>,
) -> (ExchangeTimes, ExchangeWire) {
    let arities = cfg
        .topology
        .arities()
        .expect("switch reduction runs on uniform fabrics");
    let depth = arities.len();
    let lv = levels(&arities);
    let mut comm = 0.0;
    let mut by_tier = vec![0u64; cfg.tier_bps.len()];
    let mut sim = TreeSim::new(cfg.clone());
    // One concurrent phase: `leg` at `d` for every anchor worker.
    let mut phase = |leg, d, anchors: &mut dyn Iterator<Item = usize>, spec| {
        sim.reset();
        for w in anchors {
            sim.add_switch_leg(leg, w, d, bytes, spec);
        }
        comm += sim.simulate() as f64 * 1e-9;
        sim.add_served_by_tier(&mut by_tier);
    };
    // The leader worker of each depth-d group identifies its switch.
    let leaders = |d: usize| {
        let level = &lv[d];
        (0..level.groups).map(move |q| q * level.arity * level.stride)
    };
    // Leg 1: every worker's contribution terminates at its edge switch.
    phase(
        SwitchLeg::Contribution,
        depth - 1,
        &mut (0..cfg.workers()),
        spec,
    );
    // Legs 2..: one folded partial per child switch climbs each tier.
    for d in (1..depth).rev() {
        phase(SwitchLeg::Uplink, d, &mut leaders(d), spec);
    }
    // Downward broadcast: mirror of the climb, then edge fan-out. The
    // switch egress re-frames the folded sum; the final hop to each
    // worker is plain (weights are never lossy-compressed).
    for d in 1..depth {
        phase(SwitchLeg::Downlink, d, &mut leaders(d), spec);
    }
    phase(
        SwitchLeg::Distribution,
        depth - 1,
        &mut (0..cfg.workers()),
        None,
    );
    (
        ExchangeTimes {
            comm_s: comm,
            reduce_s: 0.0,
        },
        ExchangeWire {
            by_tier,
            gather_leg: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::oracle::XorShift;
    use crate::sim::NetworkConfig;

    const MB: u64 = 1_000_000;
    const GAMMA: f64 = 1e-10;

    /// The rack fabric of the paper's Fig. 1 sketches: `racks` ×
    /// `per_rack` 10 GbE servers under a core oversubscribed `oversub`:1.
    fn racks(racks: usize, per_rack: usize, oversub: u64) -> TreeConfig {
        TreeConfig::ten_gbe(&[racks, per_rack], &[oversub, 1])
    }

    #[test]
    fn uniform_tree_shape() {
        let t = Topology::uniform(&[3, 2, 2]);
        assert_eq!(t.worker_count(), 12);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.workers(), (0..12).collect::<Vec<_>>());
        assert_eq!(t.leader(), 0);
        assert_eq!(t.arities(), Some(vec![3, 2, 2]));
    }

    #[test]
    fn tier_map_attributes_by_lca_depth() {
        let t = Topology::uniform(&[2, 2, 2]);
        let m = t.tier_map();
        assert_eq!(m.tiers(), 3);
        assert_eq!(m.tier_of(0, 1), 2, "same leaf group");
        assert_eq!(m.tier_of(0, 2), 1, "same mid group");
        assert_eq!(m.tier_of(0, 7), 0, "across the core");
        assert_eq!(m.tier_of(0, 99), 0, "outside endpoints hit the core");
        assert!(m.contains(7) && !m.contains(8));
    }

    #[test]
    fn excision_is_per_tier_and_drops_empty_groups() {
        let t = Topology::uniform(&[2, 2]);
        let t = t.excise(1).expect("three workers left");
        assert_eq!(t.workers(), vec![0, 2, 3]);
        assert_eq!(t.arities(), None, "ragged after excision");
        // Excising the rest of rack 0 drops the whole rack subtree.
        let t = t.excise(0).expect("two workers left");
        assert_eq!(
            t,
            Topology::Group(vec![Topology::Group(vec![
                Topology::Worker(2),
                Topology::Worker(3),
            ])])
        );
        assert_eq!(t.excise(2).unwrap().workers(), vec![3]);
        assert_eq!(t.excise(2).unwrap().excise(3), None, "last worker");
    }

    #[test]
    fn restrict_regrafts_a_rejoining_worker_at_its_original_position() {
        let pristine = Topology::uniform(&[2, 2]);
        // Worker 1 leaves: the live tree equals the excised tree.
        let without = pristine.restrict(&[0, 2, 3]).expect("three live");
        assert_eq!(without, pristine.excise(1).unwrap());
        // Worker 1 rejoins: restriction over the pristine tree restores
        // the original group structure exactly (excision cannot).
        let regrafted = pristine.restrict(&[0, 1, 2, 3]).expect("all live");
        assert_eq!(regrafted, pristine);
        // Restriction drops emptied groups and handles the empty set.
        assert_eq!(pristine.restrict(&[2, 3]).unwrap().workers(), vec![2, 3]);
        assert_eq!(
            pristine.restrict(&[3]).unwrap(),
            Topology::Group(vec![Topology::Group(vec![Topology::Worker(3)])])
        );
        assert_eq!(pristine.restrict(&[]), None, "no live workers");
        assert_eq!(pristine.restrict(&[99]), None, "unknown ids restrict away");
    }

    #[test]
    fn flat_tree_matches_depth_one_grammar() {
        let t = Topology::flat(4);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.tier_map().tier_of(0, 3), 0);
        assert_eq!(Topology::two_tier(2, 3), Topology::uniform(&[2, 3]));
    }

    #[test]
    fn star_makespans_are_pinned_to_the_nanosecond() {
        // Integer-ns makespans recorded from the dedicated star event
        // loop this simulator replaced (`sim.rs` at 79b589c): the
        // depth-1 tree must reproduce every one exactly.
        let ten = NetworkConfig::ten_gbe;
        let odd = NetworkConfig {
            nodes: 3,
            link_bps: 25_000_000_000,
            hop_latency_ns: 700,
            switch_latency_ns: 1_300,
            mtu_payload: 1_000,
            header_bytes: 120,
            host_ns_per_packet: 3_000,
        };
        let spec = CompressionSpec::new(14.9, 500);
        let cases: [(&str, NetworkConfig, Vec<Transfer>, u64); 8] = [
            (
                "single flow",
                ten(2),
                vec![Transfer::new(0, 1, 1_000_000)],
                847_478,
            ),
            (
                "4->1 incast",
                ten(5),
                (1..5).map(|s| Transfer::new(s, 0, 500_000)).collect(),
                1_690_861,
            ),
            (
                "disjoint pairs",
                ten(4),
                vec![Transfer::new(0, 1, 500_000), Transfer::new(2, 3, 500_000)],
                425_881,
            ),
            (
                "5-node ring step",
                ten(5),
                (0..5)
                    .map(|i| Transfer::new(i, (i + 1) % 5, 400_000))
                    .collect(),
                341_561,
            ),
            (
                "compressed flow with engine latency",
                ten(2),
                vec![Transfer::new(0, 1, 2_000_000).compressed(spec)],
                210_862,
            ),
            (
                "staggered start",
                ten(3),
                vec![
                    Transfer::new(0, 1, 100_000),
                    Transfer::new(2, 1, 50_000).starting_at(5_000),
                ],
                130_794,
            ),
            (
                "every constant off its default",
                odd,
                vec![Transfer::new(0, 2, 300_000), Transfer::new(1, 2, 300_000)],
                900_777,
            ),
            (
                "zero-byte flow",
                ten(2),
                vec![Transfer::new(0, 1, 0).starting_at(42)],
                42,
            ),
        ];
        for (name, cfg, transfers, want_ns) in cases {
            let mut sim = TreeSim::new(cfg.tree());
            for t in transfers {
                sim.add_transfer(t);
            }
            assert_eq!(sim.run().makespan_ns, want_ns, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be positive")]
    fn rejects_a_tier_whose_rate_rounds_to_zero() {
        TreeSim::new(TreeConfig::ten_gbe(&[2, 2], &[u64::MAX, 1]));
    }

    #[test]
    #[should_panic(expected = "mtu payload must be positive")]
    fn rejects_zero_mtu() {
        TreeSim::new(TreeConfig {
            mtu_payload: 0,
            ..TreeConfig::ten_gbe(&[2], &[1])
        });
    }

    #[test]
    fn intra_rack_transfer_ignores_uplink() {
        // Same-rack transfer speed must not depend on oversubscription.
        let t_fast = phase(&racks(2, 4, 1), [Transfer::new(0, 1, 10 * MB)]);
        let t_slow = phase(&racks(2, 4, 8), [Transfer::new(0, 1, 10 * MB)]);
        assert!((t_fast - t_slow).abs() < 1e-9);
    }

    #[test]
    fn cross_rack_transfer_is_uplink_bound() {
        let cfg = racks(2, 4, 8); // uplink 5 Gb/s
        let within = phase(&cfg, [Transfer::new(0, 1, 10 * MB)]);
        let across = phase(&cfg, [Transfer::new(0, 4, 10 * MB)]);
        assert!(
            across > within * 1.8,
            "across {across:.4} vs within {within:.4}"
        );
    }

    #[test]
    fn nonblocking_core_behaves_like_one_switch() {
        // With a full-bisection uplink, a cross-rack transfer runs at edge
        // speed (plus one extra switch hop of latency).
        let cfg = racks(2, 2, 1);
        let within = phase(&cfg, [Transfer::new(0, 1, 20 * MB)]);
        let across = phase(&cfg, [Transfer::new(0, 2, 20 * MB)]);
        assert!((across - within) / within < 0.02, "{across} vs {within}");
    }

    #[test]
    fn flat_wa_suffers_most_from_oversubscription() {
        let cfg = racks(4, 4, 4);
        let n = 50 * MB;
        let wa = wa_exchange_on(&cfg, &[16], n, GAMMA, None);
        let hwa = wa_exchange_on(&cfg, &[4, 4], n, GAMMA, None);
        let ring = ring_exchange_on(&cfg, &[16], n, GAMMA, None, 0.0);
        // All gather traffic squeezes through one uplink for flat WA.
        assert!(
            wa.comm_s > hwa.comm_s * 1.5,
            "flat {:.3} vs hierarchical {:.3}",
            wa.comm_s,
            hwa.comm_s
        );
        assert!(ring.comm_s < hwa.comm_s, "ring should beat both WAs");
    }

    #[test]
    fn hierarchical_ring_beats_flat_ring_under_heavy_oversubscription() {
        // The flat ring pushes 2(p-1)/p·n bytes across every uplink while
        // the leader ring pushes only 2(R-1)/R·n; with the core the clear
        // bottleneck (1 Gb/s uplinks) that volume difference dominates
        // the hierarchy's extra intra-rack phases.
        let cfg = racks(2, 8, 80);
        let n = 100 * MB;
        let flat = ring_exchange_on(&cfg, &[16], n, GAMMA, None, 0.0);
        let hier = ring_exchange_on(&cfg, &[2, 8], n, GAMMA, None, 0.0);
        assert!(
            hier.comm_s < flat.comm_s * 0.85,
            "hier {:.3} vs flat {:.3}",
            hier.comm_s,
            flat.comm_s
        );
    }

    #[test]
    fn flat_ring_wins_on_nonblocking_fabric() {
        // Without oversubscription the hierarchy's extra phases are pure
        // overhead — the paper's flat testbed rightly used one ring.
        let cfg = racks(2, 4, 1);
        let n = 50 * MB;
        let flat = ring_exchange_on(&cfg, &[8], n, GAMMA, None, 0.0);
        let hier = ring_exchange_on(&cfg, &[2, 4], n, GAMMA, None, 0.0);
        assert!(
            flat.comm_s < hier.comm_s,
            "flat {:.3} vs hier {:.3}",
            flat.comm_s,
            hier.comm_s
        );
    }

    #[test]
    fn compression_relieves_the_oversubscribed_core() {
        let cfg = racks(4, 4, 8);
        let n = 50 * MB;
        let spec = CompressionSpec::new(8.0, 500);
        let plain = ring_exchange_on(&cfg, &[4, 4], n, GAMMA, None, 0.0);
        let comp = ring_exchange_on(&cfg, &[4, 4], n, GAMMA, Some(spec), 0.0);
        assert!(
            comp.comm_s < plain.comm_s * 0.35,
            "comp {:.3} vs plain {:.3}",
            comp.comm_s,
            plain.comm_s
        );
    }

    #[test]
    fn deep_transfers_cross_every_tier_once() {
        let cfg = TreeConfig::ten_gbe(&[2, 2, 2], &[4, 2, 1]);
        let mut sim = TreeSim::new(cfg);
        sim.add_transfer(Transfer::new(0, 7, MB));
        let r = sim.run();
        // Route 0->7: leaf up, mid up, core... every tier served > 0.
        assert!(r.wire_bytes_by_tier.iter().all(|&b| b > 0), "{r:?}");
        assert!(r.makespan_s > 0.0);
    }

    #[test]
    fn intra_group_transfer_stays_off_upper_tiers() {
        let cfg = TreeConfig::ten_gbe(&[2, 4], &[8, 1]);
        let mut sim = TreeSim::new(cfg);
        sim.add_transfer(Transfer::new(0, 1, MB));
        let r = sim.run();
        assert_eq!(r.wire_bytes_by_tier[0], 0, "no core traffic");
        assert!(r.wire_bytes_by_tier[1] > 0);
    }

    #[test]
    fn contribution_leg_never_descends() {
        let cfg = TreeConfig::ten_gbe(&[2, 4], &[1, 1]);
        let mut sim = TreeSim::new(cfg);
        for w in 0..8 {
            sim.add_switch_leg(SwitchLeg::Contribution, w, 1, MB, None);
        }
        let r = sim.run();
        // Only the 8 edge uplinks carried traffic; every downlink and
        // the core stayed silent.
        assert_eq!(r.wire_bytes_by_tier[0], 0);
        for w in 0..8 {
            assert_eq!(r.wire_bytes_by_link[sim.leaf_down[w]], 0);
        }
        assert!(r.wire_bytes_by_tier[1] > 0);
    }

    #[test]
    fn switch_reduce_eliminates_the_gather_leg() {
        let cfg = TreeConfig::ten_gbe(&[4, 4], &[4, 1]);
        let (times, wire) = switch_reduce_exchange(&cfg, 10 * MB, None);
        assert!(times.comm_s > 0.0);
        assert_eq!(wire.gather_leg, 0);
        let (_, wa) = wa_exchange_with_wire(&cfg, &[16], 10 * MB, 0.0, None);
        assert!(
            wa.gather_leg > 15 * 10 * MB,
            "flat WA funnels every contribution into one host downlink: {wa:?}"
        );
        // And the total wire volume shrinks: contributions stop at the
        // switch instead of traversing down to a host and back up.
        let wa_total: u64 = wa.by_tier.iter().sum();
        let sr_total: u64 = wire.by_tier.iter().sum();
        assert!(
            sr_total * 2 < wa_total,
            "switch {sr_total} vs WA {wa_total}"
        );
    }

    #[test]
    fn switch_reduce_beats_flat_wa_on_time() {
        let cfg = TreeConfig::ten_gbe(&[4, 4], &[4, 1]);
        let (sr, _) = switch_reduce_exchange(&cfg, 10 * MB, None);
        let wa = wa_exchange_on(&cfg, &[16], 10 * MB, 0.0, None);
        assert!(
            sr.comm_s < wa.comm_s / 4.0,
            "switch {:.4} vs WA {:.4}",
            sr.comm_s,
            wa.comm_s
        );
    }

    #[test]
    fn three_tier_ring_exchange_runs_all_phases() {
        // Under heavy core oversubscription the tree traversal wins:
        // the flat ring drags a block across the starved core on every
        // one of its 2(p-1) steps, while the tree crosses it only
        // during the small top-level ring.
        let cfg = TreeConfig::ten_gbe(&[2, 2, 4], &[256, 8, 1]);
        let flat = ring_exchange_on(&cfg, &[16], 10 * MB, 0.0, None, 0.0);
        let tree = ring_exchange_on(&cfg, &[2, 2, 4], 10 * MB, 0.0, None, 0.0);
        assert!(flat.comm_s > 0.0 && tree.comm_s > 0.0);
        assert!(
            tree.comm_s < flat.comm_s,
            "tree {:.4} vs flat {:.4}",
            tree.comm_s,
            flat.comm_s
        );
        // On an uncontended fabric the flat ring is bandwidth-optimal
        // and the hierarchy costs extra full-size broadcasts.
        let fast = TreeConfig::ten_gbe(&[2, 2, 4], &[1, 1, 1]);
        let flat_fast = ring_exchange_on(&fast, &[16], 10 * MB, 0.0, None, 0.0);
        let tree_fast = ring_exchange_on(&fast, &[2, 2, 4], 10 * MB, 0.0, None, 0.0);
        assert!(flat_fast.comm_s < tree_fast.comm_s);
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = TreeConfig::ten_gbe(&[3, 3], &[3, 1]);
        let run = || {
            let mut sim = TreeSim::new(cfg.clone());
            for i in 0..9 {
                sim.add_transfer(Transfer::new(i, (i + 4) % 9, MB));
            }
            sim.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        assert_eq!(a.wire_bytes_by_tier, b.wire_bytes_by_tier);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn validates_endpoints() {
        let mut sim = TreeSim::new(TreeConfig::ten_gbe(&[2, 2], &[1, 1]));
        sim.add_transfer(Transfer::new(0, 9, 10));
    }

    /// One submission of the randomised differential.
    #[derive(Debug, Clone, Copy)]
    enum Sub {
        Transfer(Transfer),
        Leg(SwitchLeg, usize, usize, u64, Option<CompressionSpec>),
    }

    impl Sub {
        fn submit(self, sim: &mut TreeSim) {
            match self {
                Sub::Transfer(t) => sim.add_transfer(t),
                Sub::Leg(leg, w, d, bytes, spec) => sim.add_switch_leg(leg, w, d, bytes, spec),
            };
        }

        /// The flow's transfer and route, derived from the compiled
        /// tables independently of the simulator's route buffer.
        fn route(self, sim: &TreeSim) -> (Transfer, Vec<usize>) {
            let up = |g: usize| sim.group_up[g].expect("uplink");
            let down = |g: usize| sim.group_down[g].expect("downlink");
            match self {
                Sub::Transfer(t) => {
                    let (pa, pb) = (&sim.group_path[t.src], &sim.group_path[t.dst]);
                    let lca = pa.iter().zip(pb).take_while(|(x, y)| x == y).count();
                    let mut route = vec![sim.leaf_up[t.src]];
                    route.extend(pa[lca..].iter().rev().map(|&g| up(g)));
                    route.extend(pb[lca..].iter().map(|&g| down(g)));
                    route.push(sim.leaf_down[t.dst]);
                    (t, route)
                }
                Sub::Leg(leg, w, d, bytes, compression) => {
                    let path = &sim.group_path[w];
                    let route = match leg {
                        SwitchLeg::Contribution => std::iter::once(sim.leaf_up[w])
                            .chain(path[d + 1..].iter().rev().map(|&g| up(g)))
                            .collect(),
                        SwitchLeg::Distribution => path[d + 1..]
                            .iter()
                            .map(|&g| down(g))
                            .chain([sim.leaf_down[w]])
                            .collect(),
                        SwitchLeg::Uplink => vec![up(path[d])],
                        SwitchLeg::Downlink => vec![down(path[d])],
                    };
                    let t = Transfer {
                        src: w,
                        dst: w,
                        bytes,
                        start_ns: 0,
                        compression,
                    };
                    (t, route)
                }
            }
        }
    }

    /// The event loop as it stood before the last hop's `Arrive` was
    /// dropped, on the test-only binary heap: every packet carries its
    /// engine latency and last-packet flag, and every hop, the last one
    /// included, ends in an `Arrive`. Returns per-flow finish times,
    /// per-link served bytes and the makespan.
    fn oracle_run(
        cfg: &TreeConfig,
        rates: &[u64],
        flows: &[(Transfer, Vec<usize>)],
    ) -> (Vec<Option<u64>>, Vec<u64>, u64) {
        use crate::event::oracle::BinaryHeapQueue;
        use std::collections::VecDeque;

        #[derive(Debug, Clone, Copy)]
        struct P {
            flow: usize,
            wire_bytes: u64,
            extra_latency_ns: u64,
            last: bool,
            hop: usize,
        }
        enum E {
            Inject(usize),
            Free(usize),
            Arrive(P),
        }
        struct Links {
            queues: Vec<VecDeque<P>>,
            busy: Vec<bool>,
            served: Vec<u64>,
        }
        impl Links {
            fn kick(
                &mut self,
                l: usize,
                now: u64,
                hdr: u64,
                rates: &[u64],
                ev: &mut BinaryHeapQueue<E>,
            ) {
                if self.busy[l] {
                    return;
                }
                let Some(p) = self.queues[l].front() else {
                    return;
                };
                self.busy[l] = true;
                let wire = p.wire_bytes + hdr;
                self.served[l] += wire;
                ev.push(
                    now + (wire * 8 * 1_000_000_000).div_ceil(rates[l]),
                    E::Free(l),
                );
            }
        }
        let n = rates.len();
        let mut links = Links {
            queues: vec![VecDeque::new(); n],
            busy: vec![false; n],
            served: vec![0; n],
        };
        let hdr = cfg.header_bytes;
        let mut next = vec![0u64; flows.len()];
        let mut finish = vec![None; flows.len()];
        let mut ev = BinaryHeapQueue::new();
        for (id, (t, _)) in flows.iter().enumerate() {
            if t.packet_count(cfg.mtu_payload) == 0 {
                finish[id] = Some(t.start_ns);
            } else {
                ev.push(t.start_ns, E::Inject(id));
            }
        }
        while let Some((now, e)) = ev.pop() {
            match e {
                E::Inject(id) => {
                    let (t, route) = &flows[id];
                    let packets = t.packet_count(cfg.mtu_payload);
                    let i = next[id];
                    next[id] += 1;
                    let p = P {
                        flow: id,
                        wire_bytes: t.wire_payload(cfg.mtu_payload, i),
                        extra_latency_ns: t.compression.map_or(0, |c| c.engine_latency_ns),
                        last: i + 1 == packets,
                        hop: 0,
                    };
                    links.queues[route[0]].push_back(p);
                    links.kick(route[0], now, hdr, rates, &mut ev);
                    if next[id] < packets {
                        ev.push(now + cfg.host_ns_per_packet, E::Inject(id));
                    }
                }
                E::Free(l) => {
                    links.busy[l] = false;
                    let mut p = links.queues[l].pop_front().expect("head");
                    p.hop += 1;
                    let latency = if p.hop < flows[p.flow].1.len() {
                        cfg.hop_latency_ns + cfg.switch_latency_ns
                    } else {
                        cfg.hop_latency_ns + p.extra_latency_ns
                    };
                    ev.push(now + latency, E::Arrive(p));
                    links.kick(l, now, hdr, rates, &mut ev);
                }
                E::Arrive(p) => {
                    let route = &flows[p.flow].1;
                    if p.hop < route.len() {
                        links.queues[route[p.hop]].push_back(p);
                        links.kick(route[p.hop], now, hdr, rates, &mut ev);
                    } else if p.last {
                        finish[p.flow] = Some(now);
                    }
                }
            }
        }
        assert!(ev.is_empty());
        let makespan = finish.iter().flatten().copied().max().unwrap_or(0);
        (finish, links.served, makespan)
    }

    /// A random batch for the `n`-worker tree of depth `depth`: `kind` 0
    /// is lockstep (every flow starts at 0 with the same size), 1 is
    /// independent flows of every size class, 2 is every switch leg
    /// kind at every depth mixed with worker-to-worker flows.
    fn random_batch(rng: &mut XorShift, n: usize, depth: usize, kind: u64) -> Vec<Sub> {
        let spec = |rng: &mut XorShift| match rng.below(3) {
            0 => None,
            // Every packet compresses to 1 byte: serialisation (79 B at
            // ≥ 10 Gb/s, ≤ 64 ns) is shorter than the host's per-packet
            // cost.
            1 => Some(CompressionSpec::new(4096.0, rng.below(1_500))),
            _ => Some(CompressionSpec::new(5.0, 1_000)),
        };
        let bytes = |rng: &mut XorShift| match rng.below(4) {
            0 => 0,
            1 => 1 + rng.below(1_447),
            2 => 1_448 * (1 + rng.below(8)),
            _ => rng.below(20_000),
        };
        let pair = |rng: &mut XorShift| {
            let src = rng.below(n as u64) as usize;
            (src, (src + 1 + rng.below(n as u64 - 1) as usize) % n)
        };
        let mut out = Vec::new();
        match kind {
            0 if n > 1 => {
                let (b, c) = (1 + bytes(rng), spec(rng));
                let incast = rng.below(2) == 0;
                for src in 0..n {
                    let dst = if incast { 0 } else { (src + 1) % n };
                    if src != dst {
                        let t = Transfer::new(src, dst, b);
                        out.push(Sub::Transfer(c.map_or(t, |c| t.compressed(c))));
                    }
                }
            }
            1 if n > 1 => {
                for _ in 0..1 + rng.below(24) {
                    let (src, dst) = pair(rng);
                    let t = Transfer::new(src, dst, bytes(rng)).starting_at(match rng.below(3) {
                        0 => 0,
                        _ => rng.below(20_000),
                    });
                    out.push(Sub::Transfer(spec(rng).map_or(t, |c| t.compressed(c))));
                }
            }
            _ => {
                let legs = [
                    SwitchLeg::Contribution,
                    SwitchLeg::Distribution,
                    SwitchLeg::Uplink,
                    SwitchLeg::Downlink,
                ];
                for d in 0..depth {
                    for leg in legs {
                        // The root switch has no parent link.
                        let vertical = matches!(leg, SwitchLeg::Uplink | SwitchLeg::Downlink);
                        if vertical && d == 0 {
                            continue;
                        }
                        for _ in 0..1 + rng.below(3) {
                            let w = rng.below(n as u64) as usize;
                            out.push(Sub::Leg(leg, w, d, bytes(rng), spec(rng)));
                        }
                    }
                }
                if n > 1 {
                    for _ in 0..rng.below(6) {
                        let (src, dst) = pair(rng);
                        out.push(Sub::Transfer(Transfer::new(src, dst, bytes(rng))));
                    }
                }
                // Interleave the legs and the flows.
                for i in (1..out.len()).rev() {
                    out.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
        }
        out
    }

    #[test]
    fn randomised_differential_against_the_per_hop_arrive_loop() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut flows_checked = 0;
        for case in 0..200 {
            let depth = 1 + rng.below(3) as usize;
            let arities: Vec<usize> = loop {
                let a: Vec<usize> = (0..depth).map(|_| 1 + rng.below(8) as usize).collect();
                if a.iter().product::<usize>() <= 64 {
                    break a;
                }
            };
            let n: usize = arities.iter().product();
            let oversub: Vec<u64> = (0..depth).map(|_| 1 << rng.below(3)).collect();
            // Half the trees time a hop plus a switch, and the host's
            // per-packet cost, to exactly one full packet's serialisation
            // at 10 Gb/s (1 526 B in 1 221 ns), so `Free`, `Arrive` and
            // `Inject` events tie all the time.
            let (host, hop, switch) = match rng.below(2) {
                0 => (
                    [0, 150, 1_000][rng.below(3) as usize],
                    rng.below(2_000),
                    rng.below(2_000),
                ),
                _ => (1_221, 1_000, 221),
            };
            let cfg = TreeConfig {
                host_ns_per_packet: host,
                hop_latency_ns: hop,
                switch_latency_ns: switch,
                ..TreeConfig::ten_gbe(&arities, &oversub)
            };
            // One simulator serves every batch of the tree, reset between
            // batches as the exchanges do.
            let mut sim = TreeSim::new(cfg.clone());
            for batch in 0..6 {
                let subs = random_batch(&mut rng, n, depth, batch % 3);
                sim.reset();
                for sub in &subs {
                    sub.submit(&mut sim);
                }
                let flows: Vec<_> = subs.iter().map(|s| s.route(&sim)).collect();
                let (finish, served, makespan) = oracle_run(&cfg, &sim.rates, &flows);
                let at = format!("case {case} batch {batch}, arities {arities:?}");
                assert_eq!(sim.simulate(), makespan, "makespan, {at}");
                assert_eq!(sim.served, served, "served bytes, {at}");
                let got: Vec<_> = sim.flows.iter().map(|f| f.finish_ns).collect();
                assert_eq!(got, finish, "finish times, {at}");
                flows_checked += flows.len();
            }
        }
        assert!(flows_checked > 2_000, "{flows_checked} flows");
    }

    #[test]
    fn thousand_worker_exchange_fits_the_smoke_budget() {
        // The scale target: a 1024-worker hierarchical exchange on the
        // calendar-queue core. Wall-clock is asserted indirectly — this
        // is a tier-1 test, so it must stay fast enough for CI.
        let cfg = TreeConfig::ten_gbe(&[32, 32], &[8, 1]);
        let t = ring_exchange_on(&cfg, &[32, 32], 4 * MB, 0.0, None, 0.0);
        assert!(t.comm_s > 0.0);
        let (sr, wire) = switch_reduce_exchange(&cfg, 4 * MB, None);
        assert!(sr.comm_s > 0.0);
        assert_eq!(wire.gather_leg, 0);
    }
}
