//! Exporters: chrome://tracing trace-event JSON and the per-run
//! summary table.
//!
//! The JSON writer emits the standard `{"traceEvents":[...]}` object
//! format. Each clock [`Domain`] becomes a chrome *process* (with a
//! `process_name` metadata record) so wall time, virtual network time,
//! and engine cycles get separate, honestly labeled timelines instead
//! of being forced onto one axis. Timestamps are microseconds per the
//! trace-event spec; nanosecond domains are written as `ns/1000` with
//! three decimals (exact), tick domains (cycles, sequence numbers) are
//! written raw.
//!
//! Every event also carries its raw fields in `args`, so
//! [`events_from_json`] reconstructs the recording losslessly — the
//! `trace-report` binary and `tests/obs_stack.rs` both rely on totals
//! surviving the roundtrip bit-exactly.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, Value};
use crate::{labels, Domain, Event, Ph};

/// Escapes a string for inclusion in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a domain timestamp as trace-event microseconds: exact
/// `ns/1000` with three decimals for nanosecond domains, raw ticks
/// otherwise.
fn format_ts(domain: Domain, ts: u64) -> String {
    if domain.is_nanoseconds() {
        format!("{}.{:03}", ts / 1000, ts % 1000)
    } else {
        ts.to_string()
    }
}

/// Inverse of [`format_ts`]: microseconds (as parsed `f64`) back to
/// domain units.
fn parse_ts(domain: Domain, us: f64) -> u64 {
    if domain.is_nanoseconds() {
        (us * 1000.0).round() as u64
    } else {
        us.round() as u64
    }
}

/// Renders events as a chrome://tracing trace-event JSON document.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&line);
        *first = false;
        // Reborrow dance: closure owns `out` mutably via capture.
    };
    // `process_name` metadata for every domain that appears, so the
    // viewer labels each timeline with its clock.
    let mut seen = [false; 4];
    for ev in events {
        seen[ev.domain.index()] = true;
    }
    for domain in Domain::ALL {
        if seen[domain.index()] {
            push(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    domain.index() + 1,
                    escape(domain.name())
                ),
                &mut first,
            );
        }
    }
    for ev in events {
        let pid = ev.domain.index() + 1;
        let ts = format_ts(ev.domain, ev.ts);
        let line = match ev.ph {
            Ph::Complete => format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\
                 \"dur\":{},\"args\":{{\"key\":\"{}\"}}}}",
                escape(ev.label),
                ev.track,
                format_ts(ev.domain, ev.value),
                ev.key
            ),
            Ph::Begin | Ph::End => format!(
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\
                 \"args\":{{\"key\":\"{}\"}}}}",
                escape(ev.label),
                if ev.ph == Ph::Begin { 'B' } else { 'E' },
                ev.track,
                ev.key
            ),
            Ph::Counter => format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\
                 \"args\":{{\"value\":{},\"key\":\"{}\"}}}}",
                escape(ev.label),
                ev.track,
                ev.value,
                ev.key
            ),
            Ph::Metric => format!(
                // `bits` (a string arg, so chrome does not plot it)
                // carries the exact f64 for lossless re-import.
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\
                 \"args\":{{\"value\":{},\"key\":\"{}\",\"bits\":\"{}\"}}}}",
                escape(ev.label),
                ev.track,
                format_f64(ev.metric_value()),
                ev.key,
                ev.value
            ),
        };
        push(line, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

/// Formats an `f64` so it parses back to a finite JSON number.
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` on f64 is shortest-roundtrip and always includes a
        // `.0` or exponent for integral values, which is valid JSON.
        format!("{v:?}")
    } else {
        // JSON has no NaN/inf; the exact value still rides in `bits`.
        "0.0".to_string()
    }
}

/// An event re-read from an exported trace: identical to [`Event`] but
/// with an owned label.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// The label string.
    pub label: String,
    /// Phase.
    pub ph: Ph,
    /// Clock domain.
    pub domain: Domain,
    /// Track within the domain.
    pub track: u32,
    /// Secondary dimension.
    pub key: u32,
    /// Timestamp in domain units.
    pub ts: u64,
    /// Payload (duration / delta / f64 bits).
    pub value: u64,
}

/// Parses an exported chrome trace back into events, losslessly.
///
/// Metadata records are skipped; everything else must carry the fields
/// the exporter wrote or the whole parse fails — a trace that cannot be
/// re-read exactly is a bug, not something to paper over.
pub fn events_from_json(src: &str) -> Result<Vec<OwnedEvent>, String> {
    let doc = json::parse(src).map_err(|e| e.to_string())?;
    let trace = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing `traceEvents` array".to_string())?;
    let mut out = Vec::with_capacity(trace.len());
    for (i, item) in trace.iter().enumerate() {
        let field = |name: &str| {
            item.get(name)
                .ok_or_else(|| format!("event {i}: missing `{name}`"))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("event {i}: `{name}` not a number"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `ph` not a string"))?;
        if ph == "M" {
            continue;
        }
        let args = field("args")?;
        let label = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `name` not a string"))?
            .to_string();
        let pid = num("pid")? as usize;
        let domain = Domain::from_index(pid.wrapping_sub(1))
            .ok_or_else(|| format!("event {i}: pid {pid} maps to no clock domain"))?;
        let track = num("tid")? as u32;
        let ts = parse_ts(domain, num("ts")?);
        let key = args
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `args.key`"))?
            .parse::<u32>()
            .map_err(|_| format!("event {i}: `args.key` not a u32"))?;
        let (ph, value) = match ph {
            "X" => (Ph::Complete, parse_ts(domain, num("dur")?)),
            "B" => (Ph::Begin, 0),
            "E" => (Ph::End, 0),
            "C" => match args.get("bits").and_then(Value::as_str) {
                Some(bits) => (
                    Ph::Metric,
                    bits.parse::<u64>()
                        .map_err(|_| format!("event {i}: `args.bits` not a u64"))?,
                ),
                None => (
                    Ph::Counter,
                    args.get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("event {i}: missing `args.value`"))?
                        as u64,
                ),
            },
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        };
        out.push(OwnedEvent {
            label,
            ph,
            domain,
            track,
            key,
            ts,
            value,
        });
    }
    Ok(out)
}

/// Wire volume attributed to one (source endpoint, payload kind) leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LegStats {
    /// Transfers recorded on this leg.
    pub transfers: u64,
    /// Uncompressed payload bytes entering the fabric.
    pub payload_bytes: u64,
    /// Bytes put on the wire after (optional) compression.
    pub wire_bytes: u64,
    /// Packets emitted.
    pub packets: u64,
}

impl LegStats {
    /// payload / wire: > 1 means compression saved wire bytes.
    pub fn wire_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / self.wire_bytes as f64
        }
    }
}

/// Busy accounting for one NIC endpoint's engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycles the compression engine was busy.
    pub compress_cycles: u64,
    /// Cycles the decompression engine was busy.
    pub decompress_cycles: u64,
    /// 256-bit bursts consumed on TX.
    pub tx_bursts: u64,
    /// 256-bit bursts produced on RX.
    pub rx_bursts: u64,
}

/// Virtual link occupancy between one ordered endpoint pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Legs charged to this link.
    pub transfers: u64,
    /// Virtual nanoseconds the link was occupied.
    pub busy_ns: u64,
    /// Wire bytes carried.
    pub wire_bytes: u64,
}

/// Wall-time split for one training iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterStats {
    /// Forward+backward compute nanoseconds.
    pub compute_ns: u64,
    /// Gradient-exchange nanoseconds.
    pub exchange_ns: u64,
    /// Optimizer-update nanoseconds.
    pub update_ns: u64,
}

impl IterStats {
    /// Fraction of the iteration spent exchanging gradients.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.compute_ns + self.exchange_ns + self.update_ns;
        if total == 0 {
            0.0
        } else {
            self.exchange_ns as f64 / total as f64
        }
    }
}

/// The per-run summary table: every aggregate the paper's figures are
/// built from, computed from the recorded events alone so it can be
/// cross-checked against component-private tallies.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Wire volume per (source endpoint, payload kind) leg.
    pub legs: BTreeMap<(u32, u32), LegStats>,
    /// Link occupancy per (src, dst) endpoint pair.
    pub links: BTreeMap<(u32, u32), LinkStats>,
    /// Engine busy cycles per NIC endpoint.
    pub engines: BTreeMap<u32, EngineStats>,
    /// Wall-time split per iteration index.
    pub iters: BTreeMap<u32, IterStats>,
    /// Exchange wall time per strategy label.
    pub exchange_ns_by_label: BTreeMap<String, u64>,
    /// Packets recorded through the TX datapath.
    pub dp_packets: u64,
    /// Total engine→MAC FIFO residency nanoseconds.
    pub dp_stall_ns: u64,
    /// Peak FIFO occupancy.
    pub dp_fifo_peak: u64,
    /// Netsim flows completed.
    pub net_transfers: u64,
    /// Total netsim flow duration (virtual ns).
    pub net_transfer_ns: u64,
    /// Total netsim flow wire bytes.
    pub net_transfer_bytes: u64,
    /// Wire bytes attributed to each topology tier (0 = core), from
    /// `fabric/tier_bytes` events of a topology-aware timed fabric.
    pub wire_bytes_by_tier: BTreeMap<u32, u64>,
    /// Cycles switch reduce units spent folding contributions in-network.
    pub switch_reduce_cycles: u64,
    /// Contributions folded at switch reduce units.
    pub switch_reduce_folds: u64,
    /// Gradient wire bytes folded in-network (never descended to a host).
    pub switch_reduce_bytes: u64,
    /// Last value and sample count per metric label.
    pub metrics: BTreeMap<String, (f64, u64)>,
    /// Fault-injection and recovery counters (`fault/*` labels plus the
    /// trainer's ring re-stitch events), summed per label.
    pub faults: BTreeMap<String, u64>,
}

impl Summary {
    /// Builds the summary from in-memory events.
    pub fn of(events: &[Event]) -> Summary {
        let mut s = Summary::default();
        for ev in events {
            s.add(ev.label, ev.ph, ev.track, ev.key, ev.value);
        }
        s
    }

    /// Builds the summary from re-imported events; same aggregation.
    pub fn of_owned(events: &[OwnedEvent]) -> Summary {
        let mut s = Summary::default();
        for ev in events {
            s.add(&ev.label, ev.ph, ev.track, ev.key, ev.value);
        }
        s
    }

    fn add(&mut self, label: &str, ph: Ph, track: u32, key: u32, value: u64) {
        if ph == Ph::Metric {
            let entry = self.metrics.entry(label.to_string()).or_insert((0.0, 0));
            entry.0 = f64::from_bits(value);
            entry.1 += 1;
            return;
        }
        match label {
            labels::FABRIC_PAYLOAD_BYTES => {
                let leg = self.legs.entry((track, key)).or_default();
                leg.transfers += 1;
                leg.payload_bytes += value;
            }
            labels::FABRIC_WIRE_BYTES => {
                self.legs.entry((track, key)).or_default().wire_bytes += value;
            }
            labels::FABRIC_PACKETS => {
                self.legs.entry((track, key)).or_default().packets += value;
            }
            labels::FABRIC_TIER_BYTES => {
                *self.wire_bytes_by_tier.entry(track).or_insert(0) += value;
            }
            labels::SWITCH_REDUCE => {
                self.switch_reduce_cycles += value;
                self.switch_reduce_folds += 1;
            }
            labels::SWITCH_REDUCE_BYTES => {
                self.switch_reduce_bytes += value;
            }
            labels::NIC_COMPRESS => {
                self.engines.entry(track).or_default().compress_cycles += value;
            }
            labels::NIC_DECOMPRESS => {
                self.engines.entry(track).or_default().decompress_cycles += value;
            }
            labels::NIC_TX_BURSTS => {
                self.engines.entry(track).or_default().tx_bursts += value;
            }
            labels::NIC_RX_BURSTS => {
                self.engines.entry(track).or_default().rx_bursts += value;
            }
            labels::NET_LINK => {
                let link = self.links.entry((track, key)).or_default();
                link.transfers += 1;
                link.busy_ns += value;
            }
            labels::NET_LEG_BYTES => {
                self.links.entry((track, key)).or_default().wire_bytes += value;
            }
            labels::NET_TRANSFER => {
                self.net_transfers += 1;
                self.net_transfer_ns += value;
            }
            labels::NET_TRANSFER_BYTES => {
                self.net_transfer_bytes += value;
            }
            labels::ITER_COMPUTE => {
                self.iters.entry(key).or_default().compute_ns += value;
            }
            labels::ITER_UPDATE => {
                self.iters.entry(key).or_default().update_ns += value;
            }
            labels::DP_PACKET => {
                self.dp_packets += 1;
            }
            labels::DP_STALL_NS => {
                self.dp_stall_ns += value;
            }
            labels::DP_FIFO_PEAK => {
                self.dp_fifo_peak = self.dp_fifo_peak.max(value);
            }
            other => {
                if other.starts_with("exchange/") {
                    self.iters.entry(key).or_default().exchange_ns += value;
                    *self
                        .exchange_ns_by_label
                        .entry(other.to_string())
                        .or_insert(0) += value;
                } else if other.starts_with("fault/") || other == labels::RING_RESTITCH {
                    *self.faults.entry(other.to_string()).or_insert(0) += value;
                }
            }
        }
    }

    /// Total transfers across all legs.
    pub fn total_transfers(&self) -> u64 {
        self.legs.values().map(|l| l.transfers).sum()
    }

    /// Total payload bytes across all legs.
    pub fn total_payload_bytes(&self) -> u64 {
        self.legs.values().map(|l| l.payload_bytes).sum()
    }

    /// Total wire bytes across all legs.
    pub fn total_wire_bytes(&self) -> u64 {
        self.legs.values().map(|l| l.wire_bytes).sum()
    }

    /// Total packets across all legs.
    pub fn total_packets(&self) -> u64 {
        self.legs.values().map(|l| l.packets).sum()
    }

    /// Total engine cycles (compress + decompress, all endpoints).
    pub fn total_engine_cycles(&self) -> u64 {
        self.engines
            .values()
            .map(|e| e.compress_cycles + e.decompress_cycles)
            .sum()
    }

    /// Total virtual link occupancy.
    pub fn total_link_ns(&self) -> u64 {
        self.links.values().map(|l| l.busy_ns).sum()
    }

    /// Wire bytes summed across topology tiers. When a topology-aware
    /// timed fabric recorded the run, this equals
    /// [`total_wire_bytes`](Self::total_wire_bytes) to the byte — every
    /// encoded frame is attributed to exactly one tier.
    pub fn total_tier_bytes(&self) -> u64 {
        self.wire_bytes_by_tier.values().sum()
    }

    /// payload / wire over all legs.
    pub fn wire_ratio(&self) -> f64 {
        let wire = self.total_wire_bytes();
        if wire == 0 {
            1.0
        } else {
            self.total_payload_bytes() as f64 / wire as f64
        }
    }

    /// Fraction of total iteration wall time spent in gradient
    /// exchange.
    pub fn comm_fraction(&self) -> f64 {
        let (mut comm, mut total) = (0u64, 0u64);
        for it in self.iters.values() {
            comm += it.exchange_ns;
            total += it.compute_ns + it.exchange_ns + it.update_ns;
        }
        if total == 0 {
            0.0
        } else {
            comm as f64 / total as f64
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.legs.is_empty() {
            writeln!(f, "== wire volume per leg (by source endpoint) ==")?;
            writeln!(
                f,
                "{:>4} {:>9} {:>10} {:>14} {:>14} {:>9} {:>7}",
                "src", "kind", "transfers", "payload B", "wire B", "packets", "ratio"
            )?;
            for ((src, kind), leg) in &self.legs {
                writeln!(
                    f,
                    "{src:>4} {:>9} {:>10} {:>14} {:>14} {:>9} {:>7.3}",
                    if *kind == 0 { "gradient" } else { "plain" },
                    leg.transfers,
                    leg.payload_bytes,
                    leg.wire_bytes,
                    leg.packets,
                    leg.wire_ratio()
                )?;
            }
            writeln!(
                f,
                "{:>4} {:>9} {:>10} {:>14} {:>14} {:>9} {:>7.3}",
                "all",
                "",
                self.total_transfers(),
                self.total_payload_bytes(),
                self.total_wire_bytes(),
                self.total_packets(),
                self.wire_ratio()
            )?;
        }
        if !self.engines.is_empty() {
            writeln!(f, "== nic engine busy cycles ==")?;
            writeln!(
                f,
                "{:>8} {:>14} {:>16} {:>11} {:>11}",
                "endpoint", "compress cyc", "decompress cyc", "tx bursts", "rx bursts"
            )?;
            for (ep, e) in &self.engines {
                writeln!(
                    f,
                    "{ep:>8} {:>14} {:>16} {:>11} {:>11}",
                    e.compress_cycles, e.decompress_cycles, e.tx_bursts, e.rx_bursts
                )?;
            }
            writeln!(f, "   total engine cycles: {}", self.total_engine_cycles())?;
        }
        if !self.links.is_empty() {
            writeln!(f, "== virtual link occupancy ==")?;
            writeln!(
                f,
                "{:>9} {:>10} {:>12} {:>14}",
                "src->dst", "transfers", "busy ms", "wire B"
            )?;
            for ((src, dst), link) in &self.links {
                writeln!(
                    f,
                    "{:>9} {:>10} {:>12.4} {:>14}",
                    format!("{src}->{dst}"),
                    link.transfers,
                    ms(link.busy_ns),
                    link.wire_bytes
                )?;
            }
            writeln!(f, "   total link time: {:.4} ms", ms(self.total_link_ns()))?;
        }
        if !self.iters.is_empty() {
            writeln!(f, "== comm vs compute per iteration (wall time) ==")?;
            writeln!(
                f,
                "{:>5} {:>12} {:>12} {:>12} {:>7}",
                "iter", "compute ms", "exchange ms", "update ms", "comm%"
            )?;
            for (iter, it) in &self.iters {
                writeln!(
                    f,
                    "{iter:>5} {:>12.4} {:>12.4} {:>12.4} {:>6.1}%",
                    ms(it.compute_ns),
                    ms(it.exchange_ns),
                    ms(it.update_ns),
                    it.comm_fraction() * 100.0
                )?;
            }
            writeln!(
                f,
                "   overall comm fraction: {:.1}%",
                self.comm_fraction() * 100.0
            )?;
            for (label, ns) in &self.exchange_ns_by_label {
                writeln!(f, "   {label}: {:.4} ms", ms(*ns))?;
            }
        }
        if !self.wire_bytes_by_tier.is_empty() {
            writeln!(f, "== wire volume per topology tier ==")?;
            for (tier, bytes) in &self.wire_bytes_by_tier {
                writeln!(
                    f,
                    "   tier {tier}{}: {bytes} B",
                    if *tier == 0 { " (core)" } else { "" }
                )?;
            }
            writeln!(f, "   all tiers: {} B", self.total_tier_bytes())?;
        }
        if self.switch_reduce_folds > 0 {
            writeln!(f, "== switch-resident reduction ==")?;
            writeln!(
                f,
                "   contributions folded: {}  reduce cycles: {}  bytes folded in-network: {}",
                self.switch_reduce_folds, self.switch_reduce_cycles, self.switch_reduce_bytes
            )?;
        }
        if self.dp_packets > 0 {
            writeln!(f, "== tx datapath ==")?;
            writeln!(
                f,
                "   packets: {}  fifo stall: {:.4} ms  peak fifo: {}",
                self.dp_packets,
                ms(self.dp_stall_ns),
                self.dp_fifo_peak
            )?;
        }
        if self.net_transfers > 0 {
            writeln!(f, "== netsim flows ==")?;
            writeln!(
                f,
                "   flows: {}  total flow time: {:.4} ms  wire B: {}",
                self.net_transfers,
                ms(self.net_transfer_ns),
                self.net_transfer_bytes
            )?;
        }
        if !self.metrics.is_empty() {
            writeln!(f, "== metrics (last sample) ==")?;
            for (label, (value, count)) in &self.metrics {
                writeln!(f, "   {label}: {value:.6} ({count} samples)")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recording;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::complete(labels::ITER_COMPUTE, Domain::Wall, 0, 0, 1_234_567, 890_123),
            Event::complete(
                labels::EXCHANGE_RING,
                Domain::Wall,
                0,
                0,
                2_124_690,
                500_001,
            ),
            Event::complete(labels::ITER_UPDATE, Domain::Wall, 0, 0, 2_624_691, 99_999),
            Event::count(labels::FABRIC_PAYLOAD_BYTES, Domain::Seq, 2, 0, 1, 4096),
            Event::count(labels::FABRIC_WIRE_BYTES, Domain::Seq, 2, 0, 1, 1100),
            Event::count(labels::FABRIC_PACKETS, Domain::Seq, 2, 0, 1, 3),
            Event::complete(labels::NIC_COMPRESS, Domain::Cycles, 2, 3, 40, 132),
            Event::complete(labels::NET_LINK, Domain::Net, 2, 3, 1000, 3296),
            Event::count(labels::NET_LEG_BYTES, Domain::Net, 2, 3, 1000, 1100),
            Event::metric(labels::ITER_LOSS, Domain::Wall, 0, 0, 2_724_690, 0.37512),
            Event::begin("span/open", Domain::Wall, 1, 9, 10_500),
            Event::end("span/open", Domain::Wall, 1, 9, 11_750),
        ]
    }

    #[test]
    fn export_then_import_is_lossless() {
        let recording = Recording::from_events(sample_events());
        let json = recording.to_chrome_json();
        let imported = events_from_json(&json).expect("trace parses");
        assert_eq!(imported.len(), recording.len());
        for (orig, owned) in recording.events().iter().zip(&imported) {
            assert_eq!(owned.label, orig.label);
            assert_eq!(owned.ph, orig.ph);
            assert_eq!(owned.domain, orig.domain);
            assert_eq!(owned.track, orig.track);
            assert_eq!(owned.key, orig.key);
            assert_eq!(owned.ts, orig.ts, "ts drifted for {}", orig.label);
            assert_eq!(owned.value, orig.value, "value drifted for {}", orig.label);
        }
    }

    #[test]
    fn trace_is_valid_json_with_metadata() {
        let json_text = chrome_trace(&sample_events());
        let doc = json::parse(&json_text).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("array");
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&Domain::Wall.name()));
        assert!(names.contains(&Domain::Cycles.name()));
        for ev in events {
            assert!(ev.get("name").is_some() && ev.get("ph").is_some());
            assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
        }
    }

    #[test]
    fn summary_aggregates_the_sample() {
        let s = Summary::of(&sample_events());
        assert_eq!(s.total_transfers(), 1);
        assert_eq!(s.total_payload_bytes(), 4096);
        assert_eq!(s.total_wire_bytes(), 1100);
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.total_engine_cycles(), 132);
        assert_eq!(s.total_link_ns(), 3296);
        assert_eq!(s.links[&(2, 3)].wire_bytes, 1100);
        let it = s.iters[&0];
        assert_eq!(it.compute_ns, 890_123);
        assert_eq!(it.exchange_ns, 500_001);
        assert_eq!(it.update_ns, 99_999);
        assert!((s.comm_fraction() - 500_001.0 / 1_490_123.0).abs() < 1e-12);
        assert_eq!(s.metrics[labels::ITER_LOSS], (0.37512, 1));
        // Summary from the re-imported trace matches bit-for-bit.
        let json = Recording::from_events(sample_events()).to_chrome_json();
        let owned = events_from_json(&json).unwrap();
        let s2 = Summary::of_owned(&owned);
        assert_eq!(s2.total_wire_bytes(), s.total_wire_bytes());
        assert_eq!(s2.total_engine_cycles(), s.total_engine_cycles());
        assert_eq!(s2.metrics[labels::ITER_LOSS], s.metrics[labels::ITER_LOSS]);
        let rendered = format!("{s}");
        assert!(rendered.contains("wire volume per leg"));
        assert!(rendered.contains("comm vs compute"));
    }
}
