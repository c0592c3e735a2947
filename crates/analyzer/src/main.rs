//! CLI for the analyzer: `cargo run -p analyzer -- --check`.
//!
//! Modes:
//! - `--check` (default): invariant linter; exit 1 on any violation.
//! - `--callgraph`: emit the hot-reachable call subgraph as DOT on
//!   stdout (per-crate node/edge summary in leading comment lines);
//!   pipe through `dot -Tsvg` to render.
//!
//! `--root <dir>` overrides the workspace root (default: walk up from
//! the current directory until a `crates/` directory is found).

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use analyzer::{run_callgraph, run_lint, CheckOutcome};

fn find_repo_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(root) = explicit {
        return Some(root);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn report(label: &str, outcome: &CheckOutcome) -> bool {
    for line in &outcome.summary {
        println!("{line}");
    }
    for line in &outcome.failures {
        eprintln!("{line}");
    }
    if outcome.passed() {
        true
    } else {
        eprintln!("{label}: {} failure(s)", outcome.failures.len());
        false
    }
}

fn main() -> ExitCode {
    let mut mode = "--check".to_string();
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" | "--callgraph" => mode = arg,
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: analyzer [--check|--callgraph] [--root <dir>]");
                return ExitCode::from(2);
            }
        }
    }

    if mode == "--callgraph" {
        return match find_repo_root(root) {
            Some(repo_root) => match run_callgraph(&repo_root) {
                Ok(dot) => {
                    print!("{dot}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("callgraph: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!("callgraph: could not locate workspace root (pass --root <dir>)");
                ExitCode::FAILURE
            }
        };
    }

    let ok = match find_repo_root(root) {
        Some(repo_root) => report("lint", &run_lint(&repo_root)),
        None => {
            eprintln!("lint: could not locate workspace root (pass --root <dir>)");
            false
        }
    };
    if ok {
        println!("analyzer: all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
