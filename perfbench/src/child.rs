//! One workload in one process: set-up, the closed measurement loop of
//! a single caller thread, the output checks, and the metrics. With
//! tracing off it reports the end-to-end metrics; with tracing on, the
//! per-layer ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use obs::{labels, Domain, Event, Ph, Recorder};

use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::probe::{quiet_ops, slowdown, Pass, Probe};
use crate::replay::{
    median_parts, median_train_parts, ExchangeReplay, Parts, TrainParts, TrainReplay,
};
use crate::stats::{median, percentile, Json};
use crate::tracing::{Span, SpanKind};
use crate::workload::{Bench, Counters, FabricSlot, Spec, SMOKE_OPS, SMOKE_SCALE, WARMUP_OPS};
use crate::{alloc, host};

/// Everything `--workload` runs with.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
}

impl ChildArgs {
    fn scale(&self) -> usize {
        if self.smoke {
            SMOKE_SCALE
        } else {
            1
        }
    }

    /// The fewest and the most timed ops of a measurement loop: at
    /// least `floor` however slow the host, so the percentiles keep
    /// their samples; exactly [`SMOKE_OPS`] under `--smoke`.
    fn op_limits(&self, floor: usize) -> (usize, usize) {
        if self.smoke {
            (SMOKE_OPS, SMOKE_OPS)
        } else {
            (floor, usize::MAX)
        }
    }
}

/// Timed ops an untraced run never goes below: the quieter half of
/// them is reported, and ten of those samples lie beyond `op_ms_p90`.
const MIN_OPS: usize = 200;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Probe passes before and after each set-up.
const SETUP_PASSES: usize = 8;

/// How a traced run divides `--seconds`: an untraced reference (for the
/// tracing overhead, the host counters and the transparency check),
/// then the traced ops with a replay pass after every few of them.
const REFERENCE_SHARE: f64 = 0.30;
const TRACED_SHARE: f64 = 0.70;
const REPLAY_EVERY: usize = 4;

/// Exact per-op counts are taken over the first this-many timed ops, so
/// they do not move with how many ops fit into the window; a traced
/// loop never runs fewer.
const COUNT_OPS: usize = 32;

/// The closure gates of the exchange workloads: the isolated parts may
/// exceed their inclusive fabric span by this factor at most, and the
/// time no span explains may be this share of the op at most.
const PARTS_OVERSHOOT: f64 = 1.10;
const UNATTRIBUTED_MAX_PCT: f64 = 10.0;

/// What one measurement loop saw.
#[derive(Default)]
struct Phase {
    op_s: Vec<f64>,
    /// One probe pass after every op, untimed like the output check.
    passes: Vec<Pass>,
    prints: Vec<u64>,
    counters: Vec<Counters>,
    failures: Vec<String>,
    alloc_calls: Vec<f64>,
    alloc_bytes: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl Phase {
    /// Median op time in ms at the reference host speed.
    fn op_ms_p50(&self, sibling_share: f64) -> f64 {
        median(&self.op_s) * 1e3 / slowdown(&self.passes, sibling_share)
    }
}

/// Builds the workload and runs its untimed warm-up ops; returns the
/// counters the first timed op starts from. A traced exchange build
/// keeps the data of the last warm-up op's fabric calls for the
/// replays, and its trace starts empty at the first timed op.
fn set_up(args: &ChildArgs, traced: bool) -> Result<(Bench, Counters), String> {
    let mut bench = Bench::build(&args.spec, args.seed, args.scale(), traced);
    for i in 0..WARMUP_OPS {
        if i + 1 == WARMUP_OPS {
            bench.start_capture();
        }
        bench.prepare();
        bench.run()?;
    }
    if let Some(trace) = bench.trace_mut() {
        trace.clear();
    }
    let base = bench.counters();
    Ok((bench, base))
}

/// The closed loop: one caller, the next op starts when the previous
/// one (and its untimed check) is done. It ends once `window` has
/// passed and `min_ops` ops have run, or at `max_ops`. One pass of the
/// host-speed `probe` follows every op, untimed; `host_counters`
/// brackets every op with the allocation and CPU-time counters;
/// `between` runs untimed after op number `n` (from 1).
fn measure(
    bench: &mut Bench,
    probe: &mut Probe,
    window: Duration,
    (min_ops, max_ops): (usize, usize),
    host_counters: bool,
    between: &mut dyn FnMut(usize),
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        bench.prepare();
        let before = host_counters.then(|| (alloc::snapshot(), host::process_cpu_s()));
        let t = Instant::now();
        let ran = bench.run();
        phase.op_s.push(t.elapsed().as_secs_f64());
        if let Some(((calls0, bytes0), cpu0)) = before {
            phase.cpu_s.push(host::process_cpu_s() - cpu0);
            let (calls1, bytes1) = alloc::snapshot();
            phase.alloc_calls.push((calls1 - calls0) as f64);
            phase.alloc_bytes.push((bytes1 - bytes0) as f64);
        }
        match ran.and_then(|()| bench.verify()) {
            Ok(print) => phase.prints.push(print),
            Err(e) => {
                phase.prints.push(0);
                phase.failures.push(e);
            }
        }
        phase.counters.push(bench.counters());
        phase.passes.push(probe.sample());
        between(phase.op_s.len());
        let ops = phase.op_s.len();
        if ops >= max_ops || (ops >= min_ops && started.elapsed() >= window) {
            break;
        }
    }
    if let Err(e) = bench.verify_run() {
        phase.failures.push(e);
    }
    phase
}

/// Per-op increase of counter `field` over the first [`COUNT_OPS`] ops.
fn per_op(base: &Counters, counters: &[Counters], field: usize) -> f64 {
    let n = counters.len().min(COUNT_OPS);
    if n == 0 {
        return 0.0;
    }
    (counters[n - 1][field] - base[field]) as f64 / n as f64
}

fn print_metrics(defs: &[MetricDef], values: &Values) -> Json {
    Json::obj(defs.iter().map(|d| {
        let v = values.get(d.name);
        println!("{} {} {}", d.name, v, d.unit);
        (
            d.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
        )
    }))
}

/// Prints the result object the driver reads off the last line.
fn finish(failures: &[String], attempted: usize, failed: usize, metrics: Json) -> bool {
    for f in failures.iter().take(5) {
        eprintln!("check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "failed_ops_share {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as u64)),
        ("failed", Json::Int(failed as u64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    correct
}

/// Runs the workload; `Ok(true)` when every check held.
pub fn run(args: &ChildArgs) -> Result<bool, String> {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &ChildArgs) -> Result<bool, String> {
    let sibling = args.spec.sibling_share;
    let mut probe = Probe::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous build first: peak memory is one workload's.
        drop(built.take());
        let mut passes: Vec<Pass> = (0..SETUP_PASSES).map(|_| probe.sample()).collect();
        let t = Instant::now();
        built = Some(set_up(args, false)?);
        let secs = t.elapsed().as_secs_f64();
        passes.extend((0..SETUP_PASSES).map(|_| probe.sample()));
        setup_s.push(secs / slowdown(&passes, sibling));
    }
    let (mut bench, _) = built.ok_or("no set-up ran")?;
    let phase = measure(
        &mut bench,
        &mut probe,
        Duration::from_secs_f64(args.seconds),
        args.op_limits(MIN_OPS),
        false,
        &mut |_| {},
    );

    let ops = phase.op_s.len();
    let quiet = quiet_ops(&phase.op_s, &phase.passes, sibling);
    let quiet_ms: Vec<f64> = quiet.iter().map(|s| s * 1e3).collect();
    let quiet_s: f64 = quiet.iter().sum();
    let mut v = Values::default();
    v.set("setup_s", median(&setup_s));
    v.set("op_ms_p50", median(&quiet_ms));
    v.set("op_ms_p90", percentile(&quiet_ms, 0.9));
    v.set(
        "payload_gbps",
        bench.payload_bytes() as f64 * quiet.len() as f64 / quiet_s / 1e9,
    );
    v.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    println!("ops {ops} count");
    println!("quiet_ops {} count", quiet.len());
    // What the clock read, before the probe's correction.
    println!("host_slowdown {} ratio", slowdown(&phase.passes, sibling));
    println!("wall_op_ms_p50 {} ms", median(&phase.op_s) * 1e3);
    println!("wall_op_ms_p90 {} ms", percentile(&phase.op_s, 0.9) * 1e3);
    let metrics = print_metrics(&END_TO_END, &v);
    // An op fails at most one check; the run-level check is extra.
    let failed = phase.failures.len().min(ops);
    Ok(finish(&phase.failures, ops, failed, metrics))
}

/// The spans of one kind, totalled per op.
struct KindTotals {
    kind: SpanKind,
    secs: Vec<f64>,
    count: Vec<f64>,
}

/// Per-op span totals in seconds, one entry per op.
#[derive(Default)]
struct PerOp {
    op: Vec<f64>,
    by_kind: Vec<KindTotals>,
}

impl PerOp {
    fn of(spans: &[Span], ops: usize) -> PerOp {
        let mut out = PerOp {
            op: vec![0.0; ops],
            ..PerOp::default()
        };
        for s in spans {
            let i = s.op as usize;
            if i >= ops {
                continue;
            }
            let secs = s.dur_ns() as f64 * 1e-9;
            if s.kind == SpanKind::Op {
                out.op[i] = secs;
                continue;
            }
            let slot = match out.by_kind.iter().position(|t| t.kind == s.kind) {
                Some(p) => p,
                None => {
                    out.by_kind.push(KindTotals {
                        kind: s.kind,
                        secs: vec![0.0; ops],
                        count: vec![0.0; ops],
                    });
                    out.by_kind.len() - 1
                }
            };
            out.by_kind[slot].secs[i] += secs;
            out.by_kind[slot].count[i] += 1.0;
        }
        out
    }

    /// Per-op seconds of `kind` (zeros when no such span was recorded).
    fn secs(&self, kind: SpanKind) -> Vec<f64> {
        self.by_kind
            .iter()
            .find(|t| t.kind == kind)
            .map_or_else(|| vec![0.0; self.op.len()], |t| t.secs.clone())
    }

    fn median_ms(&self, kind: SpanKind) -> f64 {
        median(&self.secs(kind)) * 1e3
    }

    fn median_count(&self, kind: SpanKind) -> f64 {
        self.by_kind
            .iter()
            .find(|t| t.kind == kind)
            .map_or(0.0, |t| median(&t.count))
    }
}

/// Median over ops of `a[i] - b[i] - ...`, in milliseconds.
fn median_diff_ms(a: &[f64], subtract: &[&[f64]]) -> f64 {
    let diffs: Vec<f64> = a
        .iter()
        .enumerate()
        .map(|(i, x)| x - subtract.iter().map(|s| s[i]).sum::<f64>())
        .collect();
    median(&diffs) * 1e3
}

fn set_fabric_counts(v: &mut Values, base: &Counters, counters: &[Counters]) {
    let payload = per_op(base, counters, 1);
    let wire = per_op(base, counters, 2);
    v.set("distrib.fabric.transfers_per_op", per_op(base, counters, 0));
    v.set("distrib.fabric.payload_bytes_per_op", payload);
    v.set("distrib.fabric.wire_bytes_per_op", wire);
    v.set("distrib.fabric.packets_per_op", per_op(base, counters, 3));
    v.set(
        "distrib.fabric.wire_ratio",
        if wire > 0.0 { payload / wire } else { 1.0 },
    );
    v.set("nicsim.engine_cycles_per_op", per_op(base, counters, 4));
    v.set("netsim.link_ns_per_op", per_op(base, counters, 5));
}

fn set_parts(v: &mut Values, p: &Parts) {
    let gbps = |bytes: u64, secs: f64| {
        if secs > 0.0 {
            bytes as f64 / secs / 1e9
        } else {
            0.0
        }
    };
    v.set("distrib.fabric.crc_ms", p.crc_s * 1e3);
    v.set("nicsim.tx_ms", p.nic_tx_s * 1e3);
    v.set("nicsim.rx_ms", p.nic_rx_s * 1e3);
    v.set("nicsim.switch_fold_ms", p.nic_switch_s * 1e3);
    if p.nic_packets > 0 {
        v.set(
            "nicsim.host_ns_per_packet",
            (p.nic_tx_s + p.nic_rx_s + p.nic_switch_s) * 1e9 / p.nic_packets as f64,
        );
    }
    v.set("compress.encode_ms", p.compress_encode_s * 1e3);
    v.set("compress.decode_ms", p.compress_decode_s * 1e3);
    v.set(
        "compress.encode_gbps",
        gbps(p.compress_encode_bytes, p.compress_encode_s),
    );
    v.set(
        "compress.decode_gbps",
        gbps(p.compress_decode_bytes, p.compress_decode_s),
    );
    v.set("netsim.charge_ms", p.netsim_charge_s * 1e3);
}

/// The replayer a traced workload runs between its ops.
enum Replayer {
    Exchange(ExchangeReplay),
    Train(TrainReplay),
    None,
}

fn run_traced(args: &ChildArgs) -> Result<bool, String> {
    let window = |share: f64| Duration::from_secs_f64(args.seconds * share);

    let sibling = args.spec.sibling_share;
    let mut probe = Probe::new();
    let (mut bench, _) = set_up(args, false)?;
    let reference = measure(
        &mut bench,
        &mut probe,
        window(REFERENCE_SHARE),
        args.op_limits(COUNT_OPS),
        true,
        &mut |_| {},
    );
    drop(bench);

    let (mut bench, base) = set_up(args, true)?;
    let calls = bench.take_capture();
    let mut replayer = match &bench {
        Bench::Exchange(b) => Replayer::Exchange(ExchangeReplay::new(&b.spec, calls)),
        Bench::Train(b) => {
            // The shape of a step's traffic, read off the warm-up ops.
            let transfers = base[0] as usize / WARMUP_OPS;
            let leg_values = (base[1] as usize / WARMUP_OPS)
                .checked_div(transfers * 4)
                .unwrap_or(0);
            Replayer::Train(TrainReplay::new(
                b.seed, b.hidden, b.batch, b.workers, b.bound, transfers, leg_values,
            ))
        }
        Bench::Sweep(_) => Replayer::None,
    };
    let mut passes: Vec<Parts> = Vec::new();
    let mut train_passes: Vec<TrainParts> = Vec::new();
    let mut replay_failures: Vec<String> = Vec::new();
    let traced = measure(
        &mut bench,
        &mut probe,
        window(TRACED_SHARE),
        args.op_limits(COUNT_OPS),
        false,
        &mut |n| {
            if n % REPLAY_EVERY != 0 {
                return;
            }
            match &mut replayer {
                Replayer::Exchange(r) => match r.pass() {
                    Ok(p) => passes.push(p),
                    Err(e) => replay_failures.push(e),
                },
                Replayer::Train(r) => {
                    let (p, t) = r.pass();
                    passes.push(p);
                    train_passes.push(t);
                }
                Replayer::None => {}
            }
        },
    );
    let ops = traced.op_s.len();
    let parts = median_parts(&passes);

    let mut failures = reference.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    // A replay that failed timed an error path, not the layer.
    failures.extend(replay_failures);
    // Same inputs, same outputs, same simulated budget, with or without
    // the benchmark's spans: the runs are deterministic and the tracing
    // is transparent.
    let common = ops.min(reference.op_s.len());
    if reference.prints[..common] != traced.prints[..common] {
        failures.push("traced and untraced output fingerprints differ".to_string());
    }
    if reference.counters[..common] != traced.counters[..common] {
        failures.push("traced and untraced simulated counters differ".to_string());
    }

    // Everything the traced loop timed goes into `v` as the clock read
    // it and is brought to the reference host speed in one step below;
    // what the reference loop timed is corrected by its own slowdown.
    let mut v = Values::default();
    let traced_p50 = median(&traced.op_s) * 1e3;
    set_parts(&mut v, &parts);

    let mut export: Vec<Event> = Vec::new();
    match &mut bench {
        Bench::Exchange(b) => {
            let FabricSlot::Traced(fabric) = &b.fabric else {
                return Err("traced build without the tracing fabric".to_string());
            };
            let per = PerOp::of(fabric.trace.spans(), ops);
            let kinds = [
                SpanKind::Encode,
                SpanKind::Charge,
                SpanKind::Deliver,
                SpanKind::SwitchFold,
                SpanKind::SelfRoundtrip,
            ];
            let inclusive: Vec<Vec<f64>> = kinds.iter().map(|k| per.secs(*k)).collect();
            let refs: Vec<&[f64]> = inclusive.iter().map(Vec::as_slice).collect();
            let sink = per.secs(SpanKind::Sink);
            let exchange_self_ms = median_diff_ms(&per.op, &refs);
            let op_ms = median(&per.op) * 1e3;
            // The fabric's own time: its spans without the sinks it
            // called back into.
            let fabric_ms: f64 = kinds.iter().map(|k| per.median_ms(*k)).sum::<f64>()
                - per.median_ms(SpanKind::Sink);
            let parts_ms = (parts.crc_s
                + parts.nic_tx_s
                + parts.nic_rx_s
                + parts.nic_switch_s
                + parts.compress_encode_s
                + parts.compress_decode_s
                + parts.netsim_charge_s)
                * 1e3;

            v.set("distrib.exchange.self_ms", exchange_self_ms);
            v.set("distrib.exchange.fold_ms", per.median_ms(SpanKind::Sink));
            v.set(
                "distrib.exchange.frames_per_op",
                per.median_count(SpanKind::Encode),
            );
            v.set("distrib.fabric.encode_ms", per.median_ms(SpanKind::Encode));
            v.set(
                "distrib.fabric.deliver_ms",
                median_diff_ms(&per.secs(SpanKind::Deliver), &[&sink]),
            );
            v.set("distrib.fabric.charge_ms", per.median_ms(SpanKind::Charge));
            v.set(
                "distrib.fabric.switch_fold_ms",
                per.median_ms(SpanKind::SwitchFold),
            );
            v.set(
                "distrib.fabric.self_roundtrip_ms",
                per.median_ms(SpanKind::SelfRoundtrip),
            );
            v.set("distrib.fabric.self_ms", fabric_ms - parts_ms);
            set_fabric_counts(&mut v, &base, &traced.counters);
            let events = fabric.trace.spans().len() as f64 / f64::from(fabric.trace.ops().max(1));
            v.set("obs.events_per_op", events);
            let unattributed = exchange_self_ms / op_ms * 100.0;
            v.set("trace.unattributed_pct", unattributed);

            if parts_ms > fabric_ms * PARTS_OVERSHOOT {
                failures.push(format!(
                    "closure gate: isolated parts {parts_ms:.3} ms exceed the fabric spans {fabric_ms:.3} ms by more than {:.0} %",
                    (PARTS_OVERSHOOT - 1.0) * 100.0
                ));
            }
            if unattributed > UNATTRIBUTED_MAX_PCT {
                failures.push(format!(
                    "closure gate: {unattributed:.2} % of the op is in no span (limit {UNATTRIBUTED_MAX_PCT} %)"
                ));
            }
            export.extend(fabric.trace.spans().iter().map(span_event));
        }
        Bench::Train(b) => {
            b.trainer.flush_trace();
            let recording = b.recorder.finish();
            let mut compute = vec![0.0; ops];
            let mut exchange = vec![0.0; ops];
            let mut update = vec![0.0; ops];
            for e in recording.events() {
                let step = (e.key as usize).wrapping_sub(WARMUP_OPS);
                if e.domain != Domain::Wall || e.ph != Ph::Complete || step >= ops {
                    continue;
                }
                let slot = match e.label {
                    labels::ITER_COMPUTE => &mut compute,
                    labels::EXCHANGE_RING => &mut exchange,
                    labels::ITER_UPDATE => &mut update,
                    _ => continue,
                };
                slot[step] = e.value as f64 * 1e-9;
            }
            v.set("distrib.trainer.compute_ms", median(&compute) * 1e3);
            v.set("distrib.trainer.exchange_ms", median(&exchange) * 1e3);
            v.set("distrib.trainer.update_ms", median(&update) * 1e3);
            let outside = median_diff_ms(&traced.op_s, &[&compute, &exchange, &update]);
            v.set("trace.unattributed_pct", outside / traced_p50 * 100.0);
            v.set(
                "obs.events_per_op",
                recording.len() as f64 / (ops + WARMUP_OPS) as f64,
            );
            set_fabric_counts(&mut v, &base, &traced.counters);
            let horizon = (WARMUP_OPS + ops.min(COUNT_OPS)).min(b.losses.len());
            v.set(
                "distrib.trainer.final_loss",
                f64::from(b.losses[horizon - 1]),
            );
            let dnn = median_train_parts(&train_passes);
            v.set("dnn.fwd_bwd_ms", dnn.fwd_bwd_s * 1e3);
            v.set("dnn.flatten_ms", dnn.flatten_s * 1e3);
            v.set("dnn.sgd_ms", dnn.sgd_s * 1e3);
            v.set("tensor.gemm_ms", dnn.gemm_s * 1e3);
            export.extend(recording.events().iter().copied());
        }
        Bench::Sweep(b) => {
            let trace = b.trace.as_ref().ok_or("traced sweep without a trace")?;
            let per = PerOp::of(trace.spans(), ops);
            let kinds = [
                ("netsim.tree.wa_ms", SpanKind::TreeWa),
                ("netsim.tree.ring_flat_ms", SpanKind::TreeRingFlat),
                ("netsim.tree.ring_tiered_ms", SpanKind::TreeRingTiered),
                ("netsim.tree.switch_ms", SpanKind::TreeSwitch),
                ("netsim.star.wa_ms", SpanKind::StarWa),
                ("netsim.star.ring_ms", SpanKind::StarRing),
            ];
            for (name, kind) in kinds {
                v.set(name, per.median_ms(kind));
            }
            let inclusive: Vec<Vec<f64>> = kinds.iter().map(|(_, k)| per.secs(*k)).collect();
            let refs: Vec<&[f64]> = inclusive.iter().map(Vec::as_slice).collect();
            let outside = median_diff_ms(&per.op, &refs);
            v.set(
                "trace.unattributed_pct",
                outside / (median(&per.op) * 1e3) * 100.0,
            );
            v.set(
                "netsim.sim_exchange_us",
                per_op(&base, &traced.counters, 0) / 1e3,
            );
            v.set(
                "netsim.tree.wire_bytes_per_op",
                per_op(&base, &traced.counters, 1),
            );
            v.set(
                "obs.events_per_op",
                trace.spans().len() as f64 / f64::from(trace.ops().max(1)),
            );
            export.extend(trace.spans().iter().map(span_event));
        }
    }

    v.bring_to_reference_speed(slowdown(&traced.passes, sibling));
    v.set(
        "obs.overhead_pct",
        (traced.op_ms_p50(sibling) - reference.op_ms_p50(sibling)) / reference.op_ms_p50(sibling)
            * 100.0,
    );
    v.set("host.alloc_calls_per_op", median(&reference.alloc_calls));
    v.set("host.alloc_bytes_per_op", median(&reference.alloc_bytes));
    v.set(
        "host.cpu_s_per_op",
        median(&reference.cpu_s) / slowdown(&reference.passes, sibling),
    );

    if let Some(path) = &args.trace_out {
        let recorder = Recorder::on();
        let mut buf = recorder.buffer();
        for e in export {
            buf.push(e);
        }
        buf.flush();
        recorder
            .finish()
            .write_chrome_trace(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    println!("ops {ops} count");
    let metrics = print_metrics(&PER_LAYER, &v);
    let attempted = ops + reference.op_s.len();
    let failed = (reference.failures.len() + traced.failures.len()).min(attempted);
    Ok(finish(&failures, attempted, failed, metrics))
}

/// A span as a wall-domain complete event: one track per layer, the op
/// id as the key.
fn span_event(s: &Span) -> Event {
    Event::complete(
        s.kind.label(),
        Domain::Wall,
        s.kind.track(),
        s.op,
        s.start_ns,
        s.dur_ns(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::Trace;

    #[test]
    fn per_op_totals_and_self_time_come_from_the_span_tree() {
        let mut trace = Trace::new();
        for _ in 0..2 {
            trace.begin_op();
            let deliver = trace.push(SpanKind::Deliver, None, 10, 40);
            trace.push(SpanKind::Sink, Some(deliver), 20, 25);
            trace.push(SpanKind::Encode, None, 50, 70);
            trace.push(SpanKind::Encode, None, 70, 80);
            trace.end_op();
        }
        let per = PerOp::of(trace.spans(), 2);
        for secs in per.secs(SpanKind::Encode) {
            assert!((secs - 30e-9).abs() < 1e-15);
        }
        assert_eq!(per.median_count(SpanKind::Encode), 2.0);
        assert_eq!(per.median_count(SpanKind::Charge), 0.0);
        assert_eq!(per.secs(SpanKind::Charge), vec![0.0, 0.0]);
        // Delivery without the sink it called back into.
        let own = median_diff_ms(&per.secs(SpanKind::Deliver), &[&per.secs(SpanKind::Sink)]);
        assert!((own - 25e-6).abs() < 1e-12);
        // A capture op past the measured ones is left out.
        assert_eq!(PerOp::of(trace.spans(), 1).op.len(), 1);
    }

    #[test]
    fn exact_counts_use_a_fixed_prefix_of_the_ops() {
        let base = [10, 0, 0, 0, 0, 0];
        let counters: Vec<Counters> = (1..=40u64).map(|i| [10 + 3 * i, 0, 0, 0, 0, 0]).collect();
        assert_eq!(per_op(&base, &counters, 0), 3.0);
        assert_eq!(per_op(&base, &counters[..5], 0), 3.0);
        assert_eq!(per_op(&base, &[], 0), 0.0);
    }
}
