//! Spans recorded from the benchmark's own files, and the decorator
//! that records them around every call into the [`Fabric`] layer.

use std::time::Instant;

use inceptionn_distrib::{
    Fabric, FabricError, FabricStats, FaultStats, PayloadKind, SwitchAccum, WireFrame,
};

/// What a span measures. The first group is recorded by
/// [`TracingFabric`]; the rest by the sweep workload around its own
/// calls. (The trainer records its own spans into its `obs` recorder.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole op: the root every other span of that op hangs off.
    Op,
    Encode,
    Charge,
    Deliver,
    /// The delivery sink the exchange schedule passed in (its fold or
    /// copy), a child of the `Deliver` span that invoked it.
    Sink,
    SwitchFold,
    SelfRoundtrip,
    TreeWa,
    TreeRingFlat,
    TreeRingTiered,
    TreeSwitch,
    StarWa,
    StarRing,
}

impl SpanKind {
    /// Span name in an exported trace.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Op => "bench/op",
            SpanKind::Encode => "fabric/encode",
            SpanKind::Charge => "fabric/charge",
            SpanKind::Deliver => "fabric/deliver",
            SpanKind::Sink => "exchange/fold",
            SpanKind::SwitchFold => "fabric/switch_fold",
            SpanKind::SelfRoundtrip => "fabric/self_roundtrip",
            SpanKind::TreeWa => "netsim/tree_wa",
            SpanKind::TreeRingFlat => "netsim/tree_ring_flat",
            SpanKind::TreeRingTiered => "netsim/tree_ring_tiered",
            SpanKind::TreeSwitch => "netsim/tree_switch",
            SpanKind::StarWa => "netsim/star_wa",
            SpanKind::StarRing => "netsim/star_ring",
        }
    }

    /// The lane (one per layer) an exported trace draws the span on.
    pub fn track(self) -> u32 {
        match self {
            SpanKind::Op => 0,
            SpanKind::Sink => 1,
            SpanKind::Encode
            | SpanKind::Charge
            | SpanKind::Deliver
            | SpanKind::SwitchFold
            | SpanKind::SelfRoundtrip => 2,
            SpanKind::TreeWa
            | SpanKind::TreeRingFlat
            | SpanKind::TreeRingTiered
            | SpanKind::TreeSwitch
            | SpanKind::StarWa
            | SpanKind::StarRing => 3,
        }
    }
}

/// One recorded interval. `parent` indexes the span that caused it in
/// the same [`Trace`]; spans of one op share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the open op span, `NO_PARENT` between ops.
    op_span: u32,
    ops: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            op_span: NO_PARENT,
            ops: 0,
        }
    }

    /// Nanoseconds since the trace was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ops begun so far.
    pub fn ops(&self) -> u32 {
        self.ops
    }

    /// Drops everything recorded (the warm-up ops' spans).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.op_span = NO_PARENT;
        self.ops = 0;
    }

    /// Opens the root span of the next op.
    pub fn begin_op(&mut self) {
        let now = self.now();
        self.op_span = self.spans.len() as u32;
        self.spans.push(Span {
            kind: SpanKind::Op,
            op: self.ops,
            parent: NO_PARENT,
            start_ns: now,
            end_ns: now,
        });
        self.ops += 1;
    }

    /// Closes the open op span.
    pub fn end_op(&mut self) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(self.op_span as usize) {
            span.end_ns = now;
        }
        self.op_span = NO_PARENT;
    }

    /// Records a finished span under `parent` (the open op when `None`)
    /// and returns its index.
    pub fn push(&mut self, kind: SpanKind, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            kind,
            op: self.ops.saturating_sub(1),
            parent: parent.unwrap_or(self.op_span),
            start_ns,
            end_ns,
        });
        index
    }

    /// Runs `f` inside a span of `kind` under the open op.
    pub fn time<T>(&mut self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(kind, None, start, end);
        out
    }
}

/// One call into the fabric with the data it carried, kept from a
/// single capture op so each lower layer can be replayed on exactly the
/// frames the exchange produced.
#[derive(Debug, Clone)]
pub enum Call {
    Encode {
        src: usize,
        kind: PayloadKind,
        values: Vec<f32>,
        frame: WireFrame,
    },
    /// `to_switch`/`from_switch` legs are the half-path charges.
    Charge {
        half: bool,
        frame: WireFrame,
    },
    Deliver {
        frame: WireFrame,
    },
    SwitchFold {
        lanes: usize,
        frame: WireFrame,
    },
    SelfRoundtrip {
        endpoint: usize,
        values: Vec<f32>,
    },
}

/// A [`Fabric`] decorator that forwards every method to the wrapped
/// stack unchanged and records a span around each call. Values, wire
/// frames and [`FabricStats`] are those of the inner fabric, bit for
/// bit (pinned by this crate's tests).
///
/// `transfer_with` is decomposed into `encode` + `charge` + `deliver`
/// exactly as the trait's provided body does, which is also what the
/// NIC and timed transports run; only the loopback transport overrides
/// it (same values and stats, fewer copies), so wrap that one only
/// where host time is not what is being measured.
pub struct TracingFabric {
    inner: Box<dyn Fabric>,
    pub trace: Trace,
    /// `Some` while the capture op runs.
    pub captured: Option<Vec<Call>>,
}

impl TracingFabric {
    pub fn new(inner: Box<dyn Fabric>) -> Self {
        TracingFabric {
            inner,
            trace: Trace::new(),
            captured: None,
        }
    }

    /// Runs one call into the wrapped fabric inside a span of `kind`.
    fn spanned<T>(&mut self, kind: SpanKind, call: impl FnOnce(&mut dyn Fabric) -> T) -> T {
        let start = self.trace.now();
        let out = call(self.inner.as_mut());
        let end = self.trace.now();
        self.trace.push(kind, None, start, end);
        out
    }

    fn capture(&mut self, call: impl FnOnce() -> Call) {
        if let Some(calls) = &mut self.captured {
            calls.push(call());
        }
    }
}

impl Fabric for TracingFabric {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn encode(&mut self, src: usize, values: &[f32], kind: PayloadKind) -> WireFrame {
        let frame = self.spanned(SpanKind::Encode, |f| f.encode(src, values, kind));
        self.capture(|| Call::Encode {
            src,
            kind,
            values: values.to_vec(),
            frame: frame.clone(),
        });
        frame
    }

    fn encode_into(
        &mut self,
        src: usize,
        values: &[f32],
        kind: PayloadKind,
        frame: &mut WireFrame,
    ) {
        self.spanned(SpanKind::Encode, |f| {
            f.encode_into(src, values, kind, frame)
        });
        self.capture(|| Call::Encode {
            src,
            kind,
            values: values.to_vec(),
            frame: frame.clone(),
        });
    }

    fn charge(&mut self, src: usize, dst: usize, frame: &WireFrame) {
        self.spanned(SpanKind::Charge, |f| f.charge(src, dst, frame));
        self.capture(|| Call::Charge {
            half: false,
            frame: frame.clone(),
        });
    }

    fn charge_to_switch(&mut self, endpoint: usize, frame: &WireFrame) {
        self.spanned(SpanKind::Charge, |f| f.charge_to_switch(endpoint, frame));
        self.capture(|| Call::Charge {
            half: true,
            frame: frame.clone(),
        });
    }

    fn charge_from_switch(&mut self, endpoint: usize, frame: &WireFrame) {
        self.spanned(SpanKind::Charge, |f| f.charge_from_switch(endpoint, frame));
        self.capture(|| Call::Charge {
            half: true,
            frame: frame.clone(),
        });
    }

    fn deliver(
        &mut self,
        dst: usize,
        frame: &WireFrame,
        sink: &mut dyn FnMut(&[f32]),
    ) -> Result<(), FabricError> {
        let TracingFabric { inner, trace, .. } = self;
        let start = trace.now();
        // Reserve the deliver span first so sink spans can name it as
        // their parent; its end is patched once the inner call returns.
        let index = trace.push(SpanKind::Deliver, None, start, start);
        let result = inner.deliver(dst, frame, &mut |values| {
            let sink_start = trace.now();
            sink(values);
            let sink_end = trace.now();
            trace.push(SpanKind::Sink, Some(index), sink_start, sink_end);
        });
        trace.spans[index as usize].end_ns = trace.now();
        self.capture(|| Call::Deliver {
            frame: frame.clone(),
        });
        result
    }

    fn switch_fold(&mut self, acc: &mut [f32], frame: &WireFrame) -> Result<(), FabricError> {
        let result = self.spanned(SpanKind::SwitchFold, |f| f.switch_fold(acc, frame));
        self.capture(|| Call::SwitchFold {
            lanes: acc.len(),
            frame: frame.clone(),
        });
        result
    }

    fn switch_accum(&mut self, len: usize) -> SwitchAccum {
        self.spanned(SpanKind::SwitchFold, |f| f.switch_accum(len))
    }

    fn switch_fold_into(
        &mut self,
        acc: &mut SwitchAccum,
        frame: &WireFrame,
    ) -> Result<(), FabricError> {
        let result = self.spanned(SpanKind::SwitchFold, |f| f.switch_fold_into(acc, frame));
        self.capture(|| Call::SwitchFold {
            lanes: acc.len(),
            frame: frame.clone(),
        });
        result
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn self_roundtrip(&mut self, endpoint: usize, values: &[f32]) -> Result<Vec<f32>, FabricError> {
        let result = self.spanned(SpanKind::SelfRoundtrip, |f| {
            f.self_roundtrip(endpoint, values)
        });
        self.capture(|| Call::SelfRoundtrip {
            endpoint,
            values: values.to_vec(),
        });
        result
    }

    fn flush_obs(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use inceptionn_compress::ErrorBound;
    use inceptionn_distrib::{
        CodecSelection, Exchange, ExchangeStrategy, FabricBuilder, PipelineConfig, TransportKind,
    };
    use inceptionn_netsim::Topology;

    use crate::workload::gradients;

    const WORKERS: usize = 4;

    /// Two all-reduces (so the stateful codec carries a residual over)
    /// through a fresh fabric, bare or behind the decorator.
    fn exchange(
        strategy: ExchangeStrategy,
        codec: CodecSelection,
        pipelined: bool,
        decorated: bool,
    ) -> (Vec<Vec<u32>>, FabricStats) {
        // One endpoint more than workers: the aggregator's.
        let inner = FabricBuilder::new(WORKERS + 1)
            .transport(TransportKind::TimedNic)
            .codec(codec)
            .build();
        let mut fabric: Box<dyn Fabric> = if decorated {
            Box::new(TracingFabric::new(inner))
        } else {
            inner
        };
        let mut ex = Exchange::new(WORKERS).with_topology(Topology::two_tier(2, 2));
        if pipelined {
            ex = ex.pipelined(PipelineConfig::with_chunk(256));
        }
        let live: Vec<usize> = (0..WORKERS).collect();
        let mut bits = Vec::new();
        for iteration in 0..2 {
            let mut grads = gradients(7, WORKERS, 1500);
            fabric.begin_iteration(iteration);
            ex.run(strategy, fabric.as_mut(), &mut grads, &live)
                .expect("a clean fabric delivers");
            bits.extend(
                grads
                    .iter()
                    .map(|g| g.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()),
            );
        }
        (bits, fabric.stats())
    }

    #[test]
    fn decorator_changes_neither_outputs_nor_fabric_stats() {
        let strategies = [
            ExchangeStrategy::Ring,
            ExchangeStrategy::Tree,
            ExchangeStrategy::WorkerAggregator,
            ExchangeStrategy::SwitchReduce,
        ];
        let codecs = [
            CodecSelection::None,
            CodecSelection::Parallel {
                bound: ErrorBound::pow2(8),
                shards: 0,
            },
            CodecSelection::Sparse {
                bound: ErrorBound::pow2(6),
                top_per_mille: 0,
            },
            CodecSelection::Sketch { frac_bits: 10 },
        ];
        for strategy in strategies {
            for codec in codecs {
                for pipelined in [false, true] {
                    let bare = exchange(strategy, codec, pipelined, false);
                    let traced = exchange(strategy, codec, pipelined, true);
                    assert_eq!(
                        bare.0, traced.0,
                        "{strategy:?}/{codec:?}/pipelined={pipelined}: outputs differ"
                    );
                    assert_eq!(
                        bare.1, traced.1,
                        "{strategy:?}/{codec:?}/pipelined={pipelined}: stats differ"
                    );
                    assert!(bare.1.transfers > 0 && bare.1.link_latency_ns > 0);
                }
            }
        }
    }

    #[test]
    fn spans_nest_under_their_op_and_sinks_under_their_delivery() {
        let inner = FabricBuilder::new(2).transport(TransportKind::Nic).build();
        let mut fabric = TracingFabric::new(inner);
        fabric.trace.begin_op();
        fabric.captured = Some(Vec::new());
        let out = fabric.transfer(0, 1, &[1.0, 2.0, 3.0]).expect("delivers");
        fabric.trace.end_op();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);

        let kinds: Vec<SpanKind> = fabric.trace.spans().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::Op,
                SpanKind::Encode,
                SpanKind::Charge,
                SpanKind::Deliver,
                SpanKind::Sink
            ]
        );
        let spans = fabric.trace.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        for s in &spans[1..4] {
            assert_eq!(s.parent, 0, "{:?} hangs off the op", s.kind);
        }
        assert_eq!(spans[4].parent, 3, "the sink hangs off its delivery");
        assert!(spans.iter().all(|s| s.op == 0 && s.end_ns >= s.start_ns));
        let (deliver, sink) = (spans[3], spans[4]);
        assert!(deliver.start_ns <= sink.start_ns && sink.end_ns <= deliver.end_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[3].end_ns <= spans[0].end_ns);

        let calls = fabric.captured.take().expect("capture was on");
        assert!(matches!(calls[0], Call::Encode { src: 0, .. }));
        assert!(matches!(calls[1], Call::Charge { half: false, .. }));
        assert!(matches!(calls[2], Call::Deliver { .. }));
    }
}
