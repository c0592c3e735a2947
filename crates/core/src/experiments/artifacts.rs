//! The registry of every artifact the reproduction regenerates: the
//! paper's tables and figures plus the extension studies, in paper
//! order.
//!
//! Each entry renders one driver's results as the text committed in
//! `results/<name>.txt` (minus the banner, which the caller prints from
//! [`Artifact::title`] and [`Artifact::section`]). The `repro` binary of
//! `inceptionn-bench` is the one front end:
//!
//! ```sh
//! cargo run --release -p inceptionn-bench --bin repro -- fig12
//! cargo run --release -p inceptionn-bench --bin repro -- --all
//! ```

use std::fmt::{self, Write};

use obs::Recorder;

use super::breakdown::{Table1Column, Table2Row};
use super::Fidelity;
use crate::cluster::ClusterConfig;
use crate::report::{pct, TextTable};
use crate::{ModelId, ModelProfile};

/// One regenerable table or figure.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// Short name: the `repro` argument and the `results/<name>.txt` stem.
    pub name: &'static str,
    /// Banner title, e.g. `Fig. 12`.
    pub title: &'static str,
    /// Paper section the artifact reproduces or extends.
    pub section: &'static str,
    write: fn(&mut String, Fidelity, &Recorder) -> fmt::Result,
}

impl Artifact {
    /// Runs the artifact's experiment and renders its text. Fig. 12 and
    /// Table II record what they simulate into `recorder`; the others
    /// ignore it, and no artifact's text depends on it.
    pub fn render(&self, fidelity: Fidelity, recorder: &Recorder) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = (self.write)(&mut out, fidelity, recorder);
        out
    }
}

const fn artifact(
    name: &'static str,
    title: &'static str,
    section: &'static str,
    write: fn(&mut String, Fidelity, &Recorder) -> fmt::Result,
) -> Artifact {
    Artifact {
        name,
        title,
        section,
        write,
    }
}

/// Every artifact, in paper order, extension studies last.
pub const ARTIFACTS: &[Artifact] = &[
    artifact("table1", "Table I", "Sec. VII-A", table1),
    artifact("table2", "Table II", "Sec. VIII-A", table2),
    artifact("table3", "Table III", "Sec. VIII-C", table3),
    artifact("fig03", "Fig. 3", "Sec. II-B", fig03),
    artifact("fig04", "Fig. 4", "Sec. III-A", fig04),
    artifact("fig05", "Fig. 5", "Sec. III-B", fig05),
    artifact("fig07", "Fig. 7", "Sec. VI", fig07),
    artifact("fig12", "Fig. 12", "Sec. VIII-A", fig12),
    artifact("fig13", "Fig. 13", "Sec. VIII-B", fig13),
    artifact("fig14", "Fig. 14", "Sec. VIII-C", fig14),
    artifact("fig15", "Fig. 15", "Sec. VIII-D", fig15),
    artifact("ablations", "Ablations", "DESIGN.md", ablations),
    artifact("boundsweep", "Error-bound sweep", "extension", boundsweep),
    artifact(
        "hierarchy",
        "Fig. 1 organizations on a two-tier fabric",
        "Sec. VII-C extension",
        hierarchy,
    ),
    artifact(
        "related_work",
        "Related-work comparison",
        "Sec. IX extension",
        related_work,
    ),
    artifact(
        "frontier",
        "Compression-family frontier",
        "extension",
        frontier,
    ),
];

/// Table I: training hyper-parameters per benchmark.
fn table1(out: &mut String, _: Fidelity, _: &Recorder) -> fmt::Result {
    let cols = super::breakdown::table1();
    let mut t = TextTable::new(vec![
        "Hyperparameter",
        "AlexNet",
        "HDC",
        "ResNet-50",
        "VGG-16",
    ]);
    type Cell = fn(&Table1Column) -> String;
    let rows: [(&str, Cell); 7] = [
        ("Per-node batch size", |c| c.batch_per_node.to_string()),
        ("Learning rate (LR)", |c| c.learning_rate.to_string()),
        ("LR reduction", |c| c.lr_reduction.to_string()),
        ("LR reduction iters", |c| c.lr_reduction_iters.to_string()),
        ("Momentum", |c| c.momentum.to_string()),
        ("Weight decay", |c| c.weight_decay.to_string()),
        ("Training iterations", |c| c.train_iterations.to_string()),
    ];
    for (name, cell) in rows {
        let mut row = vec![name.to_string()];
        row.extend(cols.iter().map(cell));
        t.row(row);
    }
    writeln!(out, "{}", t.render())
}

/// Table II: time breakdown of 100 training iterations on the 5-node
/// worker-aggregator cluster (communication simulated). Records one
/// modeled iteration per evaluated model, each on its own track of the
/// virtual-time domain (Table I order), with the Table II timings as
/// spans.
fn table2(out: &mut String, _: Fidelity, recorder: &Recorder) -> fmt::Result {
    let rows = super::breakdown::table2(&ClusterConfig::default());
    let mut t = TextTable::new(vec![
        "Steps",
        "AlexNet",
        "",
        "HDC",
        " ",
        "ResNet-50",
        "  ",
        "VGG-16",
        "   ",
    ]);
    type Phase = fn(&Table2Row) -> f64;
    let phase_rows: [(&str, Phase); 6] = [
        ("Forward pass", |r| r.forward),
        ("Backward pass", |r| r.backward),
        ("GPU copy", |r| r.gpu_copy),
        ("Gradient sum", |r| r.grad_sum),
        ("Communicate", |r| r.communicate),
        ("Update", |r| r.update),
    ];
    for (name, get) in phase_rows {
        let mut row = vec![name.to_string()];
        for r in &rows {
            row.push(format!("{:.2}", get(r)));
            row.push(pct(get(r) / r.total()));
        }
        t.row(row);
    }
    let mut total = vec!["Total (100 iters)".to_string()];
    for r in &rows {
        total.push(format!("{:.2}", r.total()));
        total.push("100%".to_string());
    }
    t.row(total);
    writeln!(out, "{}", t.render())?;
    out.write_str("Paper 'Communicate' rows (for comparison):\n")?;
    for r in &rows {
        writeln!(
            out,
            "  {:<10} paper {:>7.2}s  simulated {:>7.2}s  ({:+.1}%)",
            r.model,
            r.paper_communicate,
            r.communicate,
            (r.communicate / r.paper_communicate - 1.0) * 100.0
        )?;
    }

    let mut buf = recorder.buffer();
    for (track, id) in ModelId::EVALUATED.into_iter().enumerate() {
        ModelProfile::of(id).record_iteration(&mut buf, track as u32, 0, 0);
    }
    Ok(())
}

/// Table III: the bitwidth distribution of compressed gradients at each
/// error bound.
fn table3(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    use super::ratios::{table3, table3_real_hdc};
    let mut rows = table3(fidelity, 9);
    rows.extend(table3_real_hdc(fidelity, 10));
    let mut t = TextTable::new(vec![
        "model", "bound", "2-bit", "10-bit", "18-bit", "34-bit", "ratio",
    ]);
    for r in &rows {
        let (z, b8, b16, full) = r.histogram.fractions();
        t.row(vec![
            r.model.clone(),
            format!("2^-{}", r.bound_exp),
            pct(z),
            pct(b8),
            pct(b16),
            pct(full),
            format!("{:.1}x", r.histogram.compression_ratio()),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("Paper: 74.9-94.2% of gradients fit in 2 bits at 2^-10;\n")?;
    out.write_str(">=93% at 2^-6 for every model.\n")
}

/// Fig. 3: model sizes and the share of training time spent exchanging
/// gradients/weights on the worker-aggregator cluster.
fn fig03(out: &mut String, _: Fidelity, _: &Recorder) -> fmt::Result {
    let rows = super::breakdown::fig3(&ClusterConfig::default());
    let mut t = TextTable::new(vec!["model", "size (MB)", "communication share"]);
    for r in &rows {
        t.row(vec![
            r.model.clone(),
            format!("{:.0}", r.size_mb),
            pct(r.comm_fraction),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("Paper: AlexNet 233 MB / ~75%, ResNet-152 ~230 MB, VGG-16 525 MB / ~71%.\n")
}

/// Fig. 4: training accuracy under LSB truncation of weights only,
/// gradients only, and both — on the really-trained HDC network and the
/// MiniCNN AlexNet stand-in.
fn fig04(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    use super::truncation::{run, CorruptTarget, ProxyModel};
    for model in [ProxyModel::Hdc, ProxyModel::MiniCnn] {
        let study = run(model, fidelity, 2024);
        writeln!(
            out,
            "{} — lossless baseline accuracy {}",
            study.model,
            pct(study.baseline_accuracy as f64)
        )?;
        let mut t = TextTable::new(vec!["truncation", "g only", "w only", "w & g"]);
        for bits in [16u8, 22, 24] {
            let mut row = vec![format!("{bits}b-T")];
            for target in CorruptTarget::ALL {
                let acc = study.accuracy(bits, target).unwrap_or(f32::NAN);
                row.push(pct(acc as f64));
            }
            t.row(row);
        }
        writeln!(out, "{}", t.render())?;
    }
    out.write_str("Paper shape: 'g only' stays near baseline at every depth;\n")?;
    out.write_str("'w only' and 'w & g' collapse at 22-24 bits (exponent damage).\n")
}

/// Fig. 5: the gradient value distribution at early, middle, and final
/// training stages (real HDC training).
fn fig05(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    let snaps = super::gradhist::run(fidelity, 7);
    for s in &snaps {
        writeln!(
            out,
            "stage {:>6} (iteration {:>5}): {} inside (-1,1), {} within ±0.01",
            s.stage,
            s.iteration,
            pct(s.histogram.in_range_fraction),
            pct(s.histogram.near_zero_fraction),
        )?;
        // ASCII histogram, 41 bins over (-1, 1).
        let peak = s.histogram.bins.iter().cloned().fold(0.0f64, f64::max);
        for (i, &b) in s.histogram.bins.iter().enumerate() {
            let x = -1.0 + 2.0 * (i as f64 + 0.5) / s.histogram.bins.len() as f64;
            let width = if peak > 0.0 {
                (b / peak * 60.0) as usize
            } else {
                0
            };
            if b > 0.0005 || i % 8 == 0 {
                writeln!(
                    out,
                    "  {x:>5.2} | {}",
                    "#".repeat(width.max(usize::from(b > 0.0)))
                )?;
            }
        }
        writeln!(out)?;
    }
    out.write_str("Paper shape: every stage is sharply peaked at zero, fully inside (-1, 1).\n")
}

/// Fig. 7: the total-training-time impact of running compression in
/// *software* (Snappy-class LZ, SZ-class lossy, packed truncation) on
/// the worker-aggregator cluster.
fn fig07(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    use super::softcomp::{fig7, fig7_nic_reference, profile_codecs};
    let codecs = profile_codecs(fidelity, 11);
    out.write_str("measured software codec profiles (this machine, release build):\n")?;
    let mut t = TextTable::new(vec!["scheme", "ratio", "throughput"]);
    for c in &codecs {
        let thr = if c.throughput_bps.is_finite() {
            format!("{:.0} MB/s", c.throughput_bps / 1e6)
        } else {
            "-".to_string()
        };
        t.row(vec![
            c.scheme.label().to_string(),
            format!("{:.2}x", c.ratio),
            thr,
        ]);
    }
    writeln!(out, "{}", t.render())?;

    // The counterpoint the figure argues for: the same codec in the NIC,
    // measured on the modeled datapath (NicFabric transfer), zero host
    // codec seconds.
    let mut rows = fig7(&ClusterConfig::default(), &codecs);
    rows.extend(fig7_nic_reference(&ClusterConfig::default(), fidelity, 11));
    rows.sort_by(|a, b| a.model.cmp(&b.model));
    let mut t = TextTable::new(vec!["model", "scheme", "iteration", "normalized"]);
    for r in &rows {
        t.row(vec![
            r.model.clone(),
            r.scheme.label().to_string(),
            format!("{:.3}s", r.iteration_s),
            format!("{:.2}x", r.normalized),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("Paper shape: software compression makes training 2-4x SLOWER —\n")?;
    out.write_str("the CPU codec cost swamps the saved network time; hence the NIC.\n")
}

/// Fig. 12: normalized training time of WA / WA+C / INC / INC+C with the
/// computation/communication split. The fabric-measured runs record
/// into `recorder`.
fn fig12(out: &mut String, fidelity: Fidelity, recorder: &Recorder) -> fmt::Result {
    let rows = super::speedup::fig12(&ClusterConfig::default());
    let mut t = TextTable::new(vec![
        "model",
        "system",
        "compute+sum (s)",
        "comm (s)",
        "total (s)",
        "normalized",
        "speedup vs WA",
    ]);
    for r in &rows {
        t.row(vec![
            r.model.clone(),
            r.system.label().to_string(),
            format!("{:.3}", r.breakdown.local_compute_s + r.breakdown.reduce_s),
            format!("{:.3}", r.breakdown.comm_s),
            format!("{:.3}", r.breakdown.total_s()),
            format!("{:.3}", r.normalized),
            format!("{:.2}x", 1.0 / r.normalized),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    out.write_str("fabric-measured transport per iteration (HDC proxy, TimedNic):\n\n")?;
    let iters = fidelity.scale(10, 2);
    let rows = super::breakdown::hdc_fabric_comm(4, iters, 17, recorder);
    let mut t = TextTable::new(vec![
        "system",
        "payload B/iter",
        "wire B/iter",
        "wire ratio",
        "link s/iter",
        "engine cyc/iter",
    ]);
    for r in &rows {
        t.row(vec![
            r.system.clone(),
            format!("{:.0}", r.payload_bytes_per_iter),
            format!("{:.0}", r.wire_bytes_per_iter),
            format!("{:.2}x", r.wire_ratio()),
            format!("{:.6}", r.link_s_per_iter),
            format!("{:.0}", r.engine_cycles_per_iter),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("Paper shape: INC alone trains 31-52% faster than WA;\n")?;
    out.write_str("INC+C reaches 2.2x (VGG-16) to 3.1x (AlexNet) over WA.\n")
}

/// Fig. 13: speedup of the full INCEPTIONN system over the conventional
/// approach when both train to the *same final accuracy*.
fn fig13(out: &mut String, _: Fidelity, _: &Recorder) -> fmt::Result {
    let rows = super::speedup::fig13(&ClusterConfig::default());
    let mut t = TextTable::new(vec![
        "model",
        "final acc",
        "epochs WA",
        "epochs INC+C",
        "time WA",
        "time INC+C",
        "speedup",
    ]);
    for r in &rows {
        let fmt_h = |h: f64| {
            if h < 0.5 {
                format!("{:.0}s", h * 3600.0)
            } else {
                format!("{h:.0}h")
            }
        };
        t.row(vec![
            r.model.clone(),
            pct(r.final_accuracy),
            r.epochs_wa.to_string(),
            r.epochs_inc_c.to_string(),
            fmt_h(r.hours_wa),
            fmt_h(r.hours_inc_c),
            format!("{:.2}x", r.speedup),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("Paper: 175h->56h (AlexNet), 170s->64s (HDC), 378h->127h (ResNet-50),\n")?;
    out.write_str("847h->384h (VGG-16); 1-2 extra epochs buy back the compression loss.\n")
}

/// Fig. 14: compression ratio of every lossy scheme and its impact on
/// trained accuracy (same epoch budget for all schemes).
fn fig14(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    use super::ratios::{fig14_accuracy, fig14_ratios, fig14_wire_ratios, RatioRow, Scheme};
    use super::truncation::ProxyModel;

    // One row per scheme, one ratio column per model.
    let ratio_table = |rows: &[RatioRow], schemes: &[Scheme]| {
        let mut t = TextTable::new(vec!["scheme", "AlexNet", "HDC", "ResNet-50", "VGG-16"]);
        for &scheme in schemes {
            let mut row = vec![scheme.label()];
            for model in ["AlexNet", "HDC", "ResNet-50", "VGG-16"] {
                let r = rows
                    .iter()
                    .find(|r| r.model == model && r.scheme == scheme)
                    .map(|r| r.ratio)
                    .unwrap_or(f64::NAN);
                row.push(format!("{r:.1}x"));
            }
            t.row(row);
        }
        t.render()
    };
    out.write_str("(a) average compression ratio\n\n")?;
    writeln!(
        out,
        "{}",
        ratio_table(&fig14_ratios(fidelity, 5), &Scheme::ALL)
    )?;

    out.write_str("(a') INC ratios measured on the wire (NicFabric, per-MTU-packet)\n\n")?;
    let inc = [10u8, 8, 6].map(Scheme::Inceptionn);
    writeln!(
        out,
        "{}",
        ratio_table(&fig14_wire_ratios(fidelity, 5), &inc)
    )?;

    out.write_str("(b) accuracy per scheme, trained proxies (same epochs, no extra)\n\n")?;
    for model in [ProxyModel::Hdc, ProxyModel::MiniCnn] {
        let rows = fig14_accuracy(model, fidelity, 6);
        let mut t = TextTable::new(vec!["scheme", "accuracy", "relative to Base"]);
        for r in &rows {
            t.row(vec![
                r.scheme.label(),
                pct(r.accuracy as f64),
                format!("{:.3}", r.relative),
            ]);
        }
        writeln!(out, "{}:\n{}", rows[0].model, t.render())?;
    }
    out.write_str("Paper shape: truncation caps at 4x ratio and collapses accuracy at\n")?;
    out.write_str("22-24 bits; INCEPTIONN reaches ~15x at 2^-6 with <2% accuracy loss.\n")
}

/// Fig. 15: gradient-exchange time vs cluster size for the
/// worker-aggregator baseline and the INCEPTIONN ring, with the α-β-γ
/// analytic predictions alongside.
fn fig15(out: &mut String, _: Fidelity, _: &Recorder) -> fmt::Result {
    use super::scaling::{fig15, NODE_COUNTS};
    let points = fig15();
    for model in ["AlexNet", "HDC", "ResNet-50", "VGG-16"] {
        let mut t = TextTable::new(vec![
            "nodes",
            "WA sim (s)",
            "WA norm",
            "INC sim (s)",
            "INC norm",
            "WA analytic",
            "INC analytic",
        ]);
        for &nodes in &NODE_COUNTS {
            let wa = points
                .iter()
                .find(|p| p.model == model && p.is_wa && p.nodes == nodes)
                .unwrap();
            let inc = points
                .iter()
                .find(|p| p.model == model && !p.is_wa && p.nodes == nodes)
                .unwrap();
            t.row(vec![
                nodes.to_string(),
                format!("{:.3}", wa.exchange_s),
                format!("{:.2}", wa.normalized),
                format!("{:.3}", inc.exchange_s),
                format!("{:.2}", inc.normalized),
                format!("{:.3}", wa.analytic_s),
                format!("{:.3}", inc.analytic_s),
            ]);
        }
        writeln!(out, "{model}:\n{}", t.render())?;
    }
    out.write_str("Paper shape: WA grows ~linearly with node count; INC stays ~flat\n")?;
    out.write_str("(the (p-1)/p factor saturates), especially for the large models.\n")
}

/// The design-choice ablations DESIGN.md calls out.
fn ablations(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    use super::ablation::{packet_overhead_sweep, size_selection, topology, zero_class};

    out.write_str("1) per-value size selection vs fixed 16-bit payloads (AlexNet stream)\n\n")?;
    let mut t = TextTable::new(vec!["bound", "adaptive ratio", "fixed-16 ratio", "gain"]);
    for a in size_selection(fidelity, 1) {
        t.row(vec![
            format!("2^-{}", a.bound_exp),
            format!("{:.2}x", a.adaptive_ratio),
            format!("{:.2}x", a.fixed16_ratio),
            format!("{:.2}x", a.adaptive_ratio / a.fixed16_ratio),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    out.write_str("2) ring schedule vs naive all-to-all broadcast (100 MB gradients)\n\n")?;
    let mut t = TextTable::new(vec![
        "nodes",
        "ring (s)",
        "all-to-all (s)",
        "ring advantage",
    ]);
    for r in topology(&[4, 6, 8]) {
        t.row(vec![
            r.nodes.to_string(),
            format!("{:.3}", r.ring_s),
            format!("{:.3}", r.all_to_all_s),
            format!("{:.1}x", r.all_to_all_s / r.ring_s),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    out.write_str("3) per-packet overhead vs achieved compression gain (ratio 14.9x)\n\n")?;
    let mut t = TextTable::new(vec!["header bytes", "time gain"]);
    for p in packet_overhead_sweep() {
        t.row(vec![
            p.header_bytes.to_string(),
            format!("{:.1}x", p.time_gain),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("(why Sec. VIII-C sees 5.5-11.6x from a 14.9x ratio)\n\n")?;

    out.write_str("4) contribution of the 0-bit class alone (AlexNet stream)\n\n")?;
    let mut t = TextTable::new(vec!["bound", "zero frac", "drop-only ratio", "full ratio"]);
    for z in zero_class(fidelity, 2) {
        t.row(vec![
            format!("2^-{}", z.bound_exp),
            pct(z.zero_fraction),
            format!("{:.2}x", z.drop_only_ratio),
            format!("{:.2}x", z.full_ratio),
        ]);
    }
    writeln!(out, "{}", t.render())
}

/// Extension: fine sweep of the error bound (ratio / zero-class /
/// accuracy trade-off curve).
fn boundsweep(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    let pts = super::boundsweep::run(fidelity, true, 55);
    let mut t = TextTable::new(vec!["bound", "ratio", "2-bit class", "proxy accuracy"]);
    for p in &pts {
        t.row(vec![
            format!("2^-{}", p.exponent),
            format!("{:.1}x", p.ratio),
            pct(p.zero_fraction),
            p.accuracy
                .map(|a| pct(a as f64))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("The paper's operating points (2^-10 … 2^-6) sit on the knee:\n")?;
    out.write_str("looser bounds add ratio slowly while accuracy risk grows.\n")
}

/// Extension: the Fig. 1 cluster organizations on a two-tier fabric
/// with core oversubscription (Sec. VII-C's datacenter setting).
fn hierarchy(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    use super::hierarchy::{measured_wire_volume, run, Organization};
    out.write_str("32 nodes (4 racks x 8), AlexNet-sized gradients (233 MB), 10 GbE edge\n\n")?;
    let points = run(50_000);
    for compressed in [false, true] {
        writeln!(
            out,
            "{}",
            if compressed {
                "WITH in-NIC compression (eb = 2^-10):"
            } else {
                "without compression:"
            }
        )?;
        let mut t = TextTable::new(vec![
            "core oversubscription",
            "flat WA",
            "hier WA",
            "flat ring",
            "hier ring",
        ]);
        for oversub in [1u64, 4, 16, 80] {
            let mut row = vec![format!("{oversub}:1")];
            for org in Organization::ALL {
                let p = points
                    .iter()
                    .find(|p| {
                        p.organization == org
                            && p.oversubscription == oversub
                            && p.compressed == compressed
                    })
                    .unwrap();
                row.push(format!("{:.2}s", p.exchange_s));
            }
            t.row(row);
        }
        writeln!(out, "{}", t.render())?;
    }
    out.write_str("fabric-measured wire volume (8 workers in 2 groups of 4, NicFabric):\n\n")?;
    let len = fidelity.scale(40_000, 4_000);
    let rows = measured_wire_volume(len, 9);
    let mut t = TextTable::new(vec!["organization", "compressed", "payload B", "wire B"]);
    for r in &rows {
        t.row(vec![
            r.organization.label().to_string(),
            if r.compressed { "eb=2^-10" } else { "-" }.to_string(),
            format!("{}", r.payload_bytes),
            format!("{}", r.wire_bytes),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    out.write_str("Expected shape: rings dominate aggregators; the hierarchical ring\n")?;
    out.write_str("only pays off once the core is heavily oversubscribed; compression\n")?;
    out.write_str("recovers most of the oversubscription penalty.\n")
}

/// Extension: INCEPTIONN vs the related-work gradient-reduction
/// algorithms of Sec. IX (1-bit SGD, TernGrad, DGC-style top-k).
fn related_work(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    let rows = super::related::run(fidelity, 77);
    let mut t = TextTable::new(vec![
        "approach",
        "ratio",
        "accuracy",
        "relative",
        "stateless (NIC-ready)",
    ]);
    for r in &rows {
        t.row(vec![
            r.approach.label().to_string(),
            format!("{:.1}x", r.ratio),
            pct(r.accuracy as f64),
            format!("{:.3}", r.relative),
            if r.approach.is_stateful() {
                "no"
            } else {
                "yes"
            }
            .to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("The reduction algorithms reach larger ratios but carry per-worker\n")?;
    out.write_str("state (error feedback / sparsity bookkeeping) that must run on the\n")?;
    out.write_str("host CPU — the paper's case for a stateless per-value NIC codec.\n")
}

/// Extension: the accuracy-vs-wire-ratio frontier across the three
/// compression families (burst truncation, sparse+EF, sketch) on both
/// proxy models.
fn frontier(out: &mut String, fidelity: Fidelity, _: &Recorder) -> fmt::Result {
    let pts = super::frontier::run(fidelity, 41);
    let mut t = TextTable::new(vec!["codec", "model", "wire ratio", "accuracy"]);
    for p in &pts {
        t.row(vec![
            p.codec.clone(),
            p.model.clone(),
            format!("{:.2}x", p.wire_ratio),
            pct(p.accuracy as f64),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_str("Ratios are measured from the actual encoded bytes of every\n")?;
    out.write_str("training iteration's gradients, not a closed-form model.\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};

    #[test]
    fn registry_and_committed_results_name_the_same_artifacts() {
        let names: BTreeSet<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(
            names.len(),
            ARTIFACTS.len(),
            "artifact names must be unique"
        );
        let mut files = BTreeSet::new();
        for entry in std::fs::read_dir(results_dir()).expect("results/ directory") {
            let name = entry.expect("results/ entry").file_name();
            let name = name.to_str().expect("UTF-8 file name");
            if name != "README.md" {
                let stem = name.strip_suffix(".txt").unwrap_or(name);
                files.insert(stem.to_string());
            }
        }
        let names: BTreeSet<String> = names.into_iter().map(String::from).collect();
        assert_eq!(
            files, names,
            "every results/*.txt must name an artifact and every artifact must have its file"
        );
    }

    /// The results directory, where `repro --all` writes each artifact.
    fn results_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    /// The two artifacts that trace render, with the recorder on, the
    /// text committed in `results/` (written with the recorder off,
    /// after a three-line banner). Full fidelity costs them no more
    /// than quick, and rendering each once keeps this test short.
    #[test]
    fn tracing_artifacts_render_the_committed_text_with_the_recorder_on() {
        let traced = |name: &str| {
            let a = ARTIFACTS.iter().find(|a| a.name == name).unwrap();
            let on = Recorder::on();
            (a.render(Fidelity::Full, &on), on.finish())
        };
        let ((fig12, fig12_rec), (table2, table2_rec)) = std::thread::scope(|s| {
            let fig12 = s.spawn(|| traced("fig12"));
            (fig12.join().unwrap(), traced("table2"))
        });
        for (name, text) in [("fig12", fig12), ("table2", table2)] {
            let file = std::fs::read_to_string(results_dir().join(format!("{name}.txt"))).unwrap();
            let committed: String = file.split_inclusive('\n').skip(3).collect();
            assert_eq!(
                text, committed,
                "{name} with the recorder on differs from results/{name}.txt \
                 (if the change is intended, regenerate with `repro --all`)"
            );
        }
        assert!(!fig12_rec.is_empty(), "fig12 recorded nothing");
        let tracks: BTreeSet<u32> = table2_rec.events().iter().map(|e| e.track).collect();
        assert_eq!(
            tracks.len(),
            ModelId::EVALUATED.len(),
            "one track per model"
        );
    }
}
