//! End-to-end exchange throughput: whole-leg vs pipelined exchange.
//!
//! Runs every exchange strategy (ring, tree, worker-aggregator, switch)
//! over the NIC transport — the real modeled datapath, packets and
//! engines included — with and without compression, timing the whole
//! all-reduce. Each strategy is measured under both configs of the one
//! chunked executor: the whole-leg default of `Exchange::new` and
//! `PipelineConfig::default()` (chunked legs, bounded in-flight
//! window). The numbers land in `BENCH_exchange.json` at the repo root
//! (or the path given as an argument).
//!
//! The binary is its own regression gate: the pipelined path must reach
//! at least [`GATE`]× the unpipelined throughput for every strategy ×
//! codec cell, or it exits nonzero — CI runs the `--smoke` variant so a
//! hot-path regression cannot merge. It also asserts the pipelined
//! result is bit-identical to the unpipelined one on the measured
//! workload, a live differential on top of the test-suite pins.
//!
//! `--smoke` (or `INCEPTIONN_QUICK=1`) shrinks the workload for CI; the
//! full run uses the 4M-value-per-worker block the acceptance numbers
//! are quoted for.

use std::time::Instant;

use inceptionn::experiments::Fidelity;
use inceptionn_bench::{banner, fidelity_from_env};
use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_compress::ErrorBound;
use inceptionn_distrib::{
    CodecSelection, Exchange, ExchangeStrategy, Fabric, FabricBuilder, PipelineConfig,
    TransportKind,
};
use inceptionn_netsim::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timing repetitions; the best (minimum) wall time is reported.
const REPS: usize = 3;
/// Error bound exponent for the compressed cells (2^-8, the paper's
/// middle setting).
const BOUND_EXP: u8 = 8;
/// Workers in every exchange.
const WORKERS: usize = 4;
/// Regression gate: pipelined throughput must reach this fraction of
/// the unpipelined throughput in every cell.
const GATE: f64 = 0.70;

struct Cell {
    strategy: &'static str,
    codec: &'static str,
    unpipelined_gbps: f64,
    pipelined_gbps: f64,
}

impl Cell {
    fn ratio(&self) -> f64 {
        self.pipelined_gbps / self.unpipelined_gbps.max(1e-12)
    }
}

/// Times `run` over fresh clones of `grads`, returning the best wall
/// seconds and the final gradients (identical across reps for these
/// deterministic fabrics).
fn time_exchange(grads: &[Vec<f32>], mut run: impl FnMut(&mut [Vec<f32>])) -> (f64, Vec<Vec<f32>>) {
    let mut best_s = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let mut w = grads.to_vec();
        let t = Instant::now();
        run(&mut w);
        best_s = best_s.min(t.elapsed().as_secs_f64());
        out = Some(w);
    }
    (best_s, out.expect("REPS > 0"))
}

fn build(endpoints: usize, codec: CodecSelection) -> Box<dyn Fabric> {
    FabricBuilder::new(endpoints)
        .transport(TransportKind::Nic)
        .codec(codec)
        .build()
}

/// One all-reduce through the [`Exchange`] seam over a fresh fabric:
/// whole-leg when `pipeline` is `None`, chunked under `cfg` otherwise.
fn run_exchange(
    strategy: ExchangeStrategy,
    topo: Option<&Topology>,
    pipeline: Option<PipelineConfig>,
    endpoints: usize,
    live: &[usize],
    codec: CodecSelection,
    w: &mut [Vec<f32>],
) {
    let mut f = build(endpoints, codec);
    let mut ex = Exchange::new(live.len());
    if let Some(t) = topo {
        ex = ex.with_topology(t.clone());
    }
    if let Some(cfg) = pipeline {
        ex = ex.pipelined(cfg);
    }
    ex.run(strategy, f.as_mut(), w, live).expect("exchange");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_exchange.json".to_string());
    let fidelity = if smoke {
        Fidelity::Quick
    } else {
        fidelity_from_env()
    };

    print!(
        "{}",
        banner(
            "end-to-end exchange throughput",
            "pipelined zero-copy hot path",
        )
    );
    let len = fidelity.scale(4 * 1024 * 1024, 64 * 1024);
    let cfg = PipelineConfig::default();
    println!(
        "{WORKERS} workers x {len} values ({:.1} MiB each), NIC transport, \
         chunk {} values, depth {}, {REPS} reps (best)",
        (len * 4) as f64 / (1024.0 * 1024.0),
        cfg.chunk_values,
        cfg.depth,
    );

    let mut rng = StdRng::seed_from_u64(0x1ce9);
    let model = GradientModel::preset(GradientPreset::AlexNet);
    let grads: Vec<Vec<f32>> = (0..WORKERS).map(|_| model.sample(&mut rng, len)).collect();
    // Aggregate gradient payload one all-reduce moves to completion.
    let total_bytes = (WORKERS * len * 4) as f64;
    let gbps = |secs: f64| total_bytes / secs / 1e9;

    let endpoints: Vec<usize> = (0..WORKERS).collect();
    let topo = Topology::two_tier(2, WORKERS / 2);
    // All four wire families. The sparse cell runs threshold-only
    // (`top_per_mille: 0`): per-encode-call top-k picks a different
    // transmit set per chunk, so a capped cell could not pass the
    // plain == pipelined bit-identity assert below. Threshold-EF and
    // the sketch are elementwise and chunk-stable.
    let bounds: [(&'static str, CodecSelection); 4] = [
        ("none", CodecSelection::None),
        (
            "inceptionn",
            CodecSelection::Parallel {
                bound: ErrorBound::pow2(BOUND_EXP),
                shards: 0,
            },
        ),
        (
            "sparse",
            CodecSelection::Sparse {
                bound: ErrorBound::pow2(6),
                top_per_mille: 0,
            },
        ),
        ("sketch", CodecSelection::Sketch { frac_bits: 10 }),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (codec, bound) in bounds {
        // Ring.
        let (plain_s, plain_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::Ring,
                None,
                None,
                WORKERS,
                &endpoints,
                bound,
                w,
            );
        });
        let (piped_s, piped_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::Ring,
                None,
                Some(cfg),
                WORKERS,
                &endpoints,
                bound,
                w,
            );
        });
        assert_eq!(plain_out, piped_out, "ring/{codec}: pipelined diverged");
        cells.push(Cell {
            strategy: "ring",
            codec,
            unpipelined_gbps: gbps(plain_s),
            pipelined_gbps: gbps(piped_s),
        });

        // Topology tree (two tiers of two).
        let (plain_s, plain_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::Tree,
                Some(&topo),
                None,
                WORKERS,
                &endpoints,
                bound,
                w,
            );
        });
        let (piped_s, piped_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::Tree,
                Some(&topo),
                Some(cfg),
                WORKERS,
                &endpoints,
                bound,
                w,
            );
        });
        assert_eq!(plain_out, piped_out, "tree/{codec}: pipelined diverged");
        cells.push(Cell {
            strategy: "tree",
            codec,
            unpipelined_gbps: gbps(plain_s),
            pipelined_gbps: gbps(piped_s),
        });

        // Worker-aggregator (one extra endpoint for the aggregator).
        let (plain_s, plain_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::WorkerAggregator,
                None,
                None,
                WORKERS + 1,
                &endpoints,
                bound,
                w,
            );
        });
        let (piped_s, piped_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::WorkerAggregator,
                None,
                Some(cfg),
                WORKERS + 1,
                &endpoints,
                bound,
                w,
            );
        });
        assert_eq!(
            plain_out, piped_out,
            "worker-aggregator/{codec}: pipelined diverged"
        );
        cells.push(Cell {
            strategy: "worker-aggregator",
            codec,
            unpipelined_gbps: gbps(plain_s),
            pipelined_gbps: gbps(piped_s),
        });

        // Switch-resident in-network aggregation.
        let (plain_s, plain_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::SwitchReduce,
                None,
                None,
                WORKERS,
                &endpoints,
                bound,
                w,
            );
        });
        let (piped_s, piped_out) = time_exchange(&grads, |w| {
            run_exchange(
                ExchangeStrategy::SwitchReduce,
                None,
                Some(cfg),
                WORKERS,
                &endpoints,
                bound,
                w,
            );
        });
        assert_eq!(plain_out, piped_out, "switch/{codec}: pipelined diverged");
        cells.push(Cell {
            strategy: "switch",
            codec,
            unpipelined_gbps: gbps(plain_s),
            pipelined_gbps: gbps(piped_s),
        });
    }

    println!(
        "\n{:<20} {:<12} {:>14} {:>14} {:>8}",
        "strategy", "codec", "whole GB/s", "piped GB/s", "ratio"
    );
    for c in &cells {
        println!(
            "{:<20} {:<12} {:>14.3} {:>14.3} {:>7.2}x",
            c.strategy,
            c.codec,
            c.unpipelined_gbps,
            c.pipelined_gbps,
            c.ratio(),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"values_per_worker\": {len},\n"));
    json.push_str(&format!("  \"bound_exp\": {BOUND_EXP},\n"));
    json.push_str(&format!("  \"chunk_values\": {},\n", cfg.chunk_values));
    json.push_str(&format!("  \"pipeline_depth\": {},\n", cfg.depth));
    json.push_str(&format!("  \"gate_ratio\": {GATE},\n"));
    json.push_str(&format!(
        "  \"fidelity\": \"{}\",\n",
        if len == 4 * 1024 * 1024 {
            "full"
        } else {
            "quick"
        }
    ));
    json.push_str("  \"transport\": \"nic\",\n");
    json.push_str("  \"strategies\": {\n");
    let strategies = ["ring", "tree", "worker-aggregator", "switch"];
    for (si, s) in strategies.iter().enumerate() {
        json.push_str(&format!("    \"{s}\": {{\n"));
        let of: Vec<&Cell> = cells.iter().filter(|c| c.strategy == *s).collect();
        for (ci, c) in of.iter().enumerate() {
            json.push_str(&format!(
                "      \"{}\": {{ \"unpipelined_gbps\": {:.4}, \"pipelined_gbps\": {:.4}, \"ratio\": {:.4} }}{}\n",
                c.codec,
                c.unpipelined_gbps,
                c.pipelined_gbps,
                c.ratio(),
                if ci + 1 < of.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
            if si + 1 < strategies.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_exchange.json");
    println!("\nwrote {out_path}");

    let mut failed = false;
    for c in &cells {
        if c.ratio() < GATE {
            eprintln!(
                "FAIL: {}/{} pipelined path at {:.2}x of unpipelined (< {GATE:.2}x)",
                c.strategy,
                c.codec,
                c.ratio(),
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
