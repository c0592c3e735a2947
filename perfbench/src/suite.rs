//! The whole benchmark in one command: every workload in a child
//! process of its own, first untraced for the end-to-end metrics, then
//! traced for the per-layer ones; `--repeat` for the spread between
//! runs; the results file.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use obs::json::{self, Value};

use crate::host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, relative_range, Json};
use crate::workload::{specs, Spec, SMOKE_SCALE};

/// Everything a run without `--workload` takes.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub repeat: usize,
    pub trace_out: Option<PathBuf>,
    pub out: PathBuf,
}

/// What one child reported on its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_report(line: &str) -> Result<Report, String> {
    let doc = json::parse(line).map_err(|e| format!("result line is not JSON: {e:?}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("result line lacks `{key}`"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks `metrics`")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric `{name}` has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Report {
        correct: matches!(doc.get("correct"), Some(Value::Bool(true))),
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
    })
}

/// Runs one workload in a child of this same executable, echoes what it
/// printed, and parses its result line. The child has ended when this
/// returns.
fn run_child(args: &SuiteArgs, spec: &Spec, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (traced, &args.trace_out) {
        let mut name = path.clone().into_os_string();
        name.push(format!(".{}.json", spec.name));
        cmd.arg("--trace-out").arg(name);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rfind(|l| !l.trim().is_empty());
    for line in stdout.lines().filter(|l| Some(*l) != last) {
        println!("  {line}");
    }
    let report = parse_report(last.ok_or(format!("{} printed no result", spec.name))?)?;
    if !output.status.success() && report.correct {
        return Err(format!("{} exited with {}", spec.name, output.status));
    }
    Ok(report)
}

/// Per-layer values a deterministic program must repeat exactly: the
/// simulated budget and the work counts, as opposed to host times.
fn repeats_exactly(name: &str) -> bool {
    (name.ends_with("_per_op") && !name.starts_with("host."))
        || matches!(
            name,
            "netsim.sim_exchange_us" | "distrib.trainer.final_loss" | "distrib.fabric.wire_ratio"
        )
}

/// Runs the suite; `Ok(true)` when every check and gate held.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let scale = if args.smoke { SMOKE_SCALE } else { 1 };
    let mut ok = true;
    let mut workloads = Vec::new();
    // runs[workload][repeat] = (untraced, traced)
    let mut runs: Vec<Vec<(Report, Report)>> = specs().iter().map(|_| Vec::new()).collect();
    for repeat in 0..args.repeat {
        for (w, spec) in specs().iter().enumerate() {
            println!(
                "== {} (run {}/{}, untraced)",
                spec.name,
                repeat + 1,
                args.repeat
            );
            let untraced = run_child(args, spec, false)?;
            println!(
                "== {} (run {}/{}, traced)",
                spec.name,
                repeat + 1,
                args.repeat
            );
            let traced = run_child(args, spec, true)?;
            ok &= untraced.correct && traced.correct;
            runs[w].push((untraced, traced));
        }
    }

    for (spec, reports) in specs().iter().zip(&runs) {
        // One metric's value in every repeat of the untraced
        // (`traced == false`) or the traced runs.
        let values_of = |name: &str, traced: bool| -> Vec<f64> {
            reports
                .iter()
                .map(|(u, t)| if traced { t } else { u })
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name))
                .map(|(_, v)| *v)
                .collect()
        };
        let mut end_to_end = Vec::new();
        for def in &END_TO_END {
            let values = values_of(def.name, false);
            let range = relative_range(&values);
            let within = range <= def.bound;
            if args.repeat > 1 {
                println!(
                    "{} {} min {} median {} max {} {} range {:.2} % (bound {:.0} %){}",
                    spec.name,
                    def.name,
                    percentile(&values, 0.0),
                    median(&values),
                    percentile(&values, 1.0),
                    def.unit,
                    range * 100.0,
                    def.bound * 100.0,
                    // Runs that differ by more than the bound cannot
                    // show a regression of that size on this host.
                    if within { "" } else { " UNRESOLVED" },
                );
                ok &= within;
            }
            end_to_end.push((
                def.name,
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.as_str())),
                    ("bound", Json::Num(def.bound)),
                    (
                        "runs",
                        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                    ("min", Json::Num(percentile(&values, 0.0))),
                    ("median", Json::Num(median(&values))),
                    ("max", Json::Num(percentile(&values, 1.0))),
                    ("relative_range", Json::Num(range)),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for def in &PER_LAYER {
            let values = values_of(def.name, true);
            if repeats_exactly(def.name) && values.windows(2).any(|w| w[0] != w[1]) {
                println!(
                    "{} {} did not repeat exactly: {values:?}",
                    spec.name, def.name
                );
                ok = false;
            }
            per_layer.push((
                def.name,
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    (
                        "runs",
                        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                    ("median", Json::Num(median(&values))),
                ]),
            ));
        }
        let ops: Vec<Json> = reports
            .iter()
            .map(|(u, _)| Json::Int(u.attempted))
            .collect();
        let failed: u64 = reports.iter().map(|(u, t)| u.failed + t.failed).sum();
        workloads.push((
            spec.name,
            Json::obj([
                ("why", Json::str(spec.why)),
                (
                    "size",
                    Json::obj(spec.size(scale).into_iter().map(|(k, v)| (k, Json::Int(v)))),
                ),
                ("timed_ops", Json::Arr(ops)),
                ("failed_ops", Json::Int(failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let results = Json::obj([
        ("environment", host::environment()),
        ("seed", Json::Int(args.seed)),
        ("run_seconds", Json::Num(args.seconds)),
        ("repeat", Json::Int(args.repeat as u64)),
        ("smoke", Json::Bool(args.smoke)),
        ("all_checks_passed", Json::Bool(ok)),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(&args.out, results.pretty())
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_parses_back() {
        let line = r#"{"correct":true,"attempted":120,"failed":0,"metrics":{"op_ms_p50":{"value":1.25,"unit":"ms"}}}"#;
        let report = parse_report(line).expect("parses");
        assert!(report.correct);
        assert_eq!((report.attempted, report.failed), (120, 0));
        assert_eq!(report.metrics, vec![("op_ms_p50".to_string(), 1.25)]);
        assert!(parse_report("ops 3 count").is_err());
        assert!(parse_report(r#"{"correct":true}"#).is_err());
    }

    #[test]
    fn counts_and_simulated_values_must_repeat_host_times_need_not() {
        assert!(repeats_exactly("distrib.fabric.packets_per_op"));
        assert!(repeats_exactly("netsim.sim_exchange_us"));
        assert!(repeats_exactly("obs.events_per_op"));
        assert!(!repeats_exactly("host.alloc_calls_per_op"));
        assert!(!repeats_exactly("nicsim.tx_ms"));
    }
}
