//! The names every later issue uses: the end-to-end and per-layer
//! metric tables. `BENCHMARK.json` repeats them (a test keeps the two
//! in step).

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Measured with tracing off, reported per workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.15),
    e2e("op_ms_p90", "ms", Better::Lower, 0.20),
    e2e("payload_gbps", "GB/s", Better::Higher, 0.15),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Measured in the traced run, reported per workload. `_ms` is median
/// host milliseconds per op, `_per_op` an exact count per op; a layer a
/// workload never enters reads 0.
pub const PER_LAYER: [MetricDef; 48] = [
    layer("distrib.exchange.self_ms", "ms", Lower),
    layer("distrib.exchange.fold_ms", "ms", Lower),
    layer("distrib.exchange.frames_per_op", "count", Lower),
    layer("distrib.fabric.encode_ms", "ms", Lower),
    layer("distrib.fabric.deliver_ms", "ms", Lower),
    layer("distrib.fabric.charge_ms", "ms", Lower),
    layer("distrib.fabric.switch_fold_ms", "ms", Lower),
    layer("distrib.fabric.self_roundtrip_ms", "ms", Lower),
    layer("distrib.fabric.crc_ms", "ms", Lower),
    layer("distrib.fabric.self_ms", "ms", Lower),
    layer("distrib.fabric.transfers_per_op", "count", Lower),
    layer("distrib.fabric.payload_bytes_per_op", "bytes", Lower),
    layer("distrib.fabric.wire_bytes_per_op", "bytes", Lower),
    layer("distrib.fabric.packets_per_op", "count", Lower),
    layer("distrib.fabric.wire_ratio", "ratio", Higher),
    layer("nicsim.tx_ms", "ms", Lower),
    layer("nicsim.rx_ms", "ms", Lower),
    layer("nicsim.switch_fold_ms", "ms", Lower),
    layer("nicsim.host_ns_per_packet", "ns", Lower),
    layer("nicsim.engine_cycles_per_op", "cycles", Lower),
    layer("compress.encode_ms", "ms", Lower),
    layer("compress.decode_ms", "ms", Lower),
    layer("compress.encode_gbps", "GB/s", Higher),
    layer("compress.decode_gbps", "GB/s", Higher),
    layer("netsim.charge_ms", "ms", Lower),
    layer("netsim.link_ns_per_op", "ns", Lower),
    layer("netsim.tree.wa_ms", "ms", Lower),
    layer("netsim.tree.ring_flat_ms", "ms", Lower),
    layer("netsim.tree.ring_tiered_ms", "ms", Lower),
    layer("netsim.tree.switch_ms", "ms", Lower),
    layer("netsim.star.wa_ms", "ms", Lower),
    layer("netsim.star.ring_ms", "ms", Lower),
    layer("netsim.tree.wire_bytes_per_op", "bytes", Lower),
    layer("netsim.sim_exchange_us", "us", Lower),
    layer("distrib.trainer.compute_ms", "ms", Lower),
    layer("distrib.trainer.exchange_ms", "ms", Lower),
    layer("distrib.trainer.update_ms", "ms", Lower),
    layer("dnn.fwd_bwd_ms", "ms", Lower),
    layer("dnn.flatten_ms", "ms", Lower),
    layer("dnn.sgd_ms", "ms", Lower),
    layer("tensor.gemm_ms", "ms", Lower),
    layer("distrib.trainer.final_loss", "loss", Lower),
    layer("obs.events_per_op", "count", Lower),
    layer("obs.overhead_pct", "%", Lower),
    layer("host.alloc_calls_per_op", "count", Lower),
    layer("host.alloc_bytes_per_op", "bytes", Lower),
    layer("host.cpu_s_per_op", "s", Lower),
    layer("trace.unattributed_pct", "%", Lower),
];

/// Measured values by metric name; a name never set reads 0.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "`{name}` is in neither metric table"
        );
        self.0.push((name, value));
    }

    /// Brings every host time set so far (and every rate per host
    /// time) from what the clock read to the reference host speed,
    /// given how many times slower than it the host ran; counts,
    /// simulated times and shares stay as they are.
    pub fn bring_to_reference_speed(&mut self, slowdown: f64) {
        for (name, value) in &mut self.0 {
            let unit = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|d| d.name == *name)
                .map_or("", |d| d.unit);
            match (unit, *name) {
                ("ms", _) | (_, "nicsim.host_ns_per_packet") => *value /= slowdown,
                ("GB/s", _) => *value *= slowdown,
                _ => {}
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::specs;
    use obs::json::{parse, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect(key)
    }

    /// `BENCHMARK.json` at the repository root is what the driver
    /// reads; it must say what this crate measures.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect("a list");

        let workloads = list("workloads");
        assert_eq!(workloads.len(), specs().len());
        for (w, spec) in workloads.iter().zip(specs()) {
            assert_eq!(field(w, "name"), spec.name);
            assert_eq!(field(w, "why"), spec.why);
            assert!(spec.why.len() <= 200, "{} why is too long", spec.name);
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (m, def) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            assert_eq!(field(m, "better"), def.better.as_str());
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(def.bound));
            assert!(def.bound <= 0.25);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (m, def) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            assert_eq!(field(m, "better"), def.better.as_str());
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn metric_names_are_unique_and_unset_values_read_zero() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);

        let mut v = Values::default();
        assert_eq!(v.get("nicsim.tx_ms"), 0.0);
        v.set("nicsim.tx_ms", 1.5);
        v.set("nicsim.tx_ms", 2.5);
        assert_eq!(v.get("nicsim.tx_ms"), 2.5);

        // On a host 25 % slow: times shrink, rates grow, the rest stays.
        v.set("compress.encode_gbps", 2.0);
        v.set("nicsim.host_ns_per_packet", 50.0);
        v.set("netsim.link_ns_per_op", 7.0);
        v.set("trace.unattributed_pct", 3.0);
        v.bring_to_reference_speed(1.25);
        assert_eq!(v.get("nicsim.tx_ms"), 2.0);
        assert_eq!(v.get("compress.encode_gbps"), 2.5);
        assert_eq!(v.get("nicsim.host_ns_per_packet"), 40.0);
        assert_eq!(v.get("netsim.link_ns_per_op"), 7.0);
        assert_eq!(v.get("trace.unattributed_pct"), 3.0);
    }
}
