//! Loads an exported chrome trace and prints the per-run summary table.
//!
//! ```text
//! cargo run -p obs --bin trace-report [-- RESULTS_trace.json]
//! ```
//!
//! Produce a trace first, e.g.
//! `cargo run --release -p inceptionn --example traced_ring` or
//! `cargo run --release -p inceptionn-bench --bin repro -- --trace RESULTS_trace.json fig12`.

use std::process::ExitCode;

use obs::export::{events_from_json, Summary};

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "RESULTS_trace.json".to_string());
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(err) => {
            eprintln!("trace-report: cannot read `{path}`: {err}");
            eprintln!(
                "hint: produce one with `cargo run --release -p inceptionn --example traced_ring`"
            );
            return ExitCode::from(2);
        }
    };
    let events = match events_from_json(&src) {
        Ok(events) => events,
        Err(err) => {
            eprintln!("trace-report: `{path}` is not a valid exported trace: {err}");
            return ExitCode::from(2);
        }
    };
    println!("trace: {path} ({} events)", events.len());
    println!();
    print!("{}", Summary::of_owned(&events));
    ExitCode::SUCCESS
}
