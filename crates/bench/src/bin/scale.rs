//! Topology-tree scaling sweep: 4→1024 workers, four exchange modes.
//!
//! Runs [`toposcale::run`](inceptionn::experiments::toposcale::run) over radix-4 switch trees of growing depth
//! (4:1 core oversubscription) for the flat worker/aggregator, the flat
//! ring, tiered rings over the topology tree, and switch-resident
//! in-network reduction, then writes the fig12-style curves to
//! `BENCH_topo.json` at the repo root (or the path given as the first
//! argument). The binary exits nonzero if
//!
//! * any switch-reduce point carries gather-leg bytes (in-network
//!   reduction exists to make that leg vanish),
//! * a tree-ring or switch-reduce point at ≥64 workers drifts more than
//!   15% from the per-tier α-β-γ prediction, or
//! * the topology-aware modes stop beating the flat worker/aggregator
//!   once the core is oversubscribed (≥64 workers),
//!
//! and CI, which runs it at full fidelity into the committed file, also
//! fails on any diff: the output is deterministic simulator output.
//!
//! `INCEPTIONN_QUICK=1` stops the sweep at 256 workers and shrinks the
//! gradient block for smoke runs; the full run sweeps to 1024 with the
//! 1 MB block the committed artifact is quoted for.

use inceptionn::experiments::toposcale::{run, ScaleMode, ToposcalePoint};
use inceptionn::experiments::Fidelity;
use inceptionn::report::TextTable;
use inceptionn_bench::{banner, fidelity_from_env};

/// Relative tolerance between the simulator and the analytic model.
const MODEL_TOLERANCE: f64 = 0.15;

fn mode_key(mode: ScaleMode) -> &'static str {
    match mode {
        ScaleMode::FlatWa => "flat_wa",
        ScaleMode::FlatRing => "flat_ring",
        ScaleMode::TreeRing => "tree_ring",
        ScaleMode::SwitchReduce => "switch_reduce",
    }
}

fn get(pts: &[ToposcalePoint], mode: ScaleMode, nodes: usize, compressed: bool) -> &ToposcalePoint {
    pts.iter()
        .find(|p| p.mode == mode && p.nodes == nodes && p.compressed == compressed)
        .expect("sweep covers every (mode, nodes, compressed) cell")
}

fn main() {
    print!(
        "{}",
        banner("4→1024 topology-tree scaling", "Fig. 12/15 extension")
    );
    let fidelity = fidelity_from_env();
    let (bytes, max_nodes) = match fidelity {
        Fidelity::Full => (1_000_000u64, 1024),
        Fidelity::Quick => (250_000u64, 256),
    };
    let ratio_samples = fidelity.scale(50_000, 2_000);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_topo.json".to_string());

    println!(
        "radix-4 trees, 4:1 core oversubscription, 10 GbE edge, {bytes} B gradient block, \
         sweep to {max_nodes} workers\n"
    );
    let points = run(bytes, max_nodes, ratio_samples);
    let node_counts: Vec<usize> = {
        let mut ns: Vec<usize> = points.iter().map(|p| p.nodes).collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    };

    for compressed in [false, true] {
        println!(
            "{}",
            if compressed {
                "WITH in-NIC compression (eb = 2^-10, AlexNet stream):"
            } else {
                "without compression:"
            }
        );
        let mut t = TextTable::new(vec![
            "workers",
            "flat WA",
            "flat ring",
            "tree ring",
            "switch reduce",
        ]);
        for &nodes in &node_counts {
            let mut row = vec![format!("{nodes}")];
            for mode in ScaleMode::ALL {
                let p = get(&points, mode, nodes, compressed);
                let model = match p.analytic_s {
                    Some(m) => format!(" (model {m:.4})"),
                    None => String::new(),
                };
                row.push(format!("{:.4}s{model}", p.exchange_s));
            }
            t.row(row);
        }
        println!("{}", t.render());
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"bytes\": {bytes},\n"));
    json.push_str(&format!("  \"max_nodes\": {max_nodes},\n"));
    json.push_str(&format!(
        "  \"fidelity\": \"{}\",\n",
        match fidelity {
            Fidelity::Full => "full",
            Fidelity::Quick => "quick",
        }
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let analytic = match p.analytic_s {
            Some(m) => format!("{m:.6}"),
            None => "null".to_string(),
        };
        let (by_tier, gather_leg) = match &p.wire {
            Some(w) => {
                let tiers: Vec<String> = w.by_tier.iter().map(|b| b.to_string()).collect();
                (format!("[{}]", tiers.join(", ")), w.gather_leg.to_string())
            }
            None => ("null".to_string(), "null".to_string()),
        };
        json.push_str(&format!(
            "    {{ \"mode\": \"{}\", \"nodes\": {}, \"depth\": {}, \"compressed\": {}, \
             \"exchange_s\": {:.6}, \"analytic_s\": {analytic}, \
             \"wire_by_tier\": {by_tier}, \"gather_leg\": {gather_leg} }}{}\n",
            mode_key(p.mode),
            p.nodes,
            p.arities.len(),
            p.compressed,
            p.exchange_s,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_topo.json");
    println!("wrote {out_path}");

    // --- regression gates ---
    let mut failed = false;
    for p in points.iter().filter(|p| p.mode == ScaleMode::SwitchReduce) {
        let wire = p.wire.as_ref().expect("switch reduce reports wire volume");
        if wire.gather_leg != 0 {
            eprintln!(
                "FAIL: switch reduce @{} (compressed={}) carried {} gather-leg bytes; \
                 in-network reduction must eliminate that leg",
                p.nodes, p.compressed, wire.gather_leg
            );
            failed = true;
        }
    }
    for p in points.iter().filter(|p| !p.compressed && p.nodes >= 64) {
        let Some(model) = p.analytic_s else { continue };
        let rel = (p.exchange_s - model).abs() / model;
        if rel > MODEL_TOLERANCE {
            eprintln!(
                "FAIL: {} @{}: sim {:.4}s vs model {model:.4}s drifts {:.1}% (> {:.0}%)",
                p.mode.label(),
                p.nodes,
                p.exchange_s,
                rel * 100.0,
                MODEL_TOLERANCE * 100.0
            );
            failed = true;
        }
    }
    for &nodes in node_counts.iter().filter(|&&n| n >= 64) {
        let wa = get(&points, ScaleMode::FlatWa, nodes, false).exchange_s;
        for mode in [ScaleMode::TreeRing, ScaleMode::SwitchReduce] {
            let p = get(&points, mode, nodes, false);
            if p.exchange_s >= wa {
                eprintln!(
                    "FAIL: {} @{nodes} ({:.4}s) no longer beats the flat WA ({wa:.4}s) \
                     on the oversubscribed core",
                    mode.label(),
                    p.exchange_s
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gates passed: gather leg 0 B, model within {:.0}%, topology modes ahead of flat WA",
        MODEL_TOLERANCE * 100.0
    );
}
