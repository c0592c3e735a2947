//! The repository benchmark.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs
//! one workload in this process and ends with one JSON result line;
//! without `--workload` it runs all six, each in a child process,
//! untraced and then traced, and writes a results file. `README.md`
//! next to this crate's manifest is the glossary.

mod alloc;
mod child;
mod host;
mod metrics;
mod probe;
mod replay;
mod stats;
mod suite;
mod tracing;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use child::ChildArgs;
use suite::SuiteArgs;
use workload::DEFAULT_SEED;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Length of one measured run unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 18.0;

const USAGE: &str = "usage: perfbench [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] \
[--smoke] [--repeat K] [--trace-out FILE] [--out FILE]";

/// A decimal or `0x` hexadecimal seed.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

enum Mode {
    Child(ChildArgs),
    Suite(SuiteArgs),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut traced = false;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut smoke = false;
    let mut repeat = 1usize;
    let mut trace_out = None;
    let mut out = PathBuf::from("perfbench_results.json");

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--trace" => {
                let v = value()?;
                traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--seed" => {
                let v = value()?;
                seed = parse_seed(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--repeat" => {
                let v = value()?;
                repeat = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| bad(v))?;
            }
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    Ok(match workload {
        Some(name) => {
            let spec = workload::find(&name).ok_or(format!("unknown workload `{name}`"))?;
            Mode::Child(ChildArgs {
                spec,
                seed,
                seconds,
                smoke,
                traced,
                trace_out,
            })
        }
        None => Mode::Suite(SuiteArgs {
            seed,
            seconds,
            smoke,
            repeat,
            trace_out,
            out,
        }),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &mode {
        Mode::Child(args) => child::run(args),
        Mode::Suite(args) => suite::run(args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budget the hot-path rules get here, in the format of
    /// `crates/analyzer/allowlist.txt`.
    const ALLOWLIST: &str = "no-alloc-hot-path perfbench/src/tracing.rs 2 \
        the capture copies in encode_into run in one untimed warm-up op; `captured` is None in every timed op";

    /// `tests/analyzer_gate.rs` walks `crates/*/src` only, so the
    /// repository's per-file rules (`// SAFETY:` on every `unsafe`,
    /// among others) are applied to this crate's files here.
    #[test]
    fn the_analyzer_rules_hold_on_these_sources() {
        use analyzer::rules::{apply_allowlist, lint_source, parse_allowlist};
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut found = Vec::new();
        let mut linted = 0;
        for entry in std::fs::read_dir(&src).expect("src directory") {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("file name");
            let text = std::fs::read_to_string(&path).expect("readable source");
            found.extend(lint_source(&format!("perfbench/src/{name}"), &text));
            linted += 1;
        }
        assert!(linted >= 10, "only {linted} files linted");
        let allow = parse_allowlist(ALLOWLIST).expect("well-formed allowlist");
        let left: Vec<String> = apply_allowlist(found, &allow)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(left.is_empty(), "{}", left.join("\n"));
    }

    #[test]
    fn smoke_is_a_flag_and_the_op_cap_is_not_settable() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parsed = parse_args(&args(&["--workload", "netsim-sweep", "--smoke"]));
        assert!(matches!(
            parsed,
            Ok(Mode::Child(ChildArgs { smoke: true, .. }))
        ));
        assert!(parse_args(&args(&["--ops", "3"])).is_err());
    }
}
