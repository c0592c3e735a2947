//! Project-invariant linter + deterministic concurrency model-checker
//! for the INCEPTIONN workspace.
//!
//! Two subsystems, both self-contained (no external deps — this
//! environment has no crates.io, so clippy plugins, miri, and loom are
//! unavailable by construction):
//!
//! - [`lexer`] + [`rules`] + [`callgraph`]: a string/comment-aware Rust
//!   tokenizer, a rule engine that walks every `crates/*/src/**.rs`
//!   enforcing the project's safety and determinism invariants (SAFETY
//!   comments on `unsafe`, guarded `#[target_feature]` dispatch, no
//!   clocks/RNG in wire-layout code, shim-facade hygiene), and an
//!   interprocedural pass: a function-level call graph over the whole
//!   workspace in which hot roots (encode/decode, `Fabric::transfer*`,
//!   the pipelined exchanges, the recovery ladders) taint everything
//!   reachable — panic and allocation sites in the reachable set fail
//!   with the root→sink call chain, modulo a shrink-only allowlist.
//! - [`conc`] + [`models`]: a mini-loom that exhaustively explores
//!   bounded-preemption thread interleavings of the ParallelCodec shard
//!   protocol and the compression pool's park/unpark handshake — the
//!   workspace's only cross-thread protocols — asserting deadlock
//!   freedom and byte-identical output on every schedule, plus racy,
//!   deadlocking and lost-wakeup fixtures it must keep catching.
//!
//! `cargo run -p analyzer -- --check` runs both and exits nonzero on
//! any violation; `tests/analyzer_gate.rs` wires the same entry points
//! into tier-1 `cargo test`.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod callgraph;
pub mod conc;
pub mod lexer;
pub mod models;
pub mod rules;

use std::path::Path;

/// Outcome of the full `--check` pass: linter diagnostics plus any
/// concurrency-model violation, already formatted for printing.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Human-readable failure lines (empty = pass).
    pub failures: Vec<String>,
    /// Human-readable pass/summary lines.
    pub summary: Vec<String>,
}

impl CheckOutcome {
    /// True when nothing failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the invariant linter over the workspace tree at `repo_root`.
pub fn run_lint(repo_root: &Path) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    match rules::lint_tree(repo_root) {
        Ok(diags) if diags.is_empty() => {
            let n = rules::workspace_rust_files(repo_root)
                .map(|f| f.len())
                .unwrap_or(0);
            out.summary.push(format!(
                "lint: OK ({n} files, {} rules, 0 violations)",
                rules::RULE_COUNT
            ));
        }
        Ok(diags) => {
            for d in &diags {
                out.failures.push(d.to_string());
            }
            out.summary
                .push(format!("lint: FAILED ({} violations)", diags.len()));
        }
        Err(e) => {
            out.failures.push(format!("lint: error: {e}"));
        }
    }
    out
}

/// Runs the concurrency checker: the four production-protocol models
/// must be clean, the three seeded-bug fixtures must be caught. `smoke`
/// shrinks the model sizes for CI latency without changing the bounds.
pub fn run_conc(smoke: bool) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    let (shards, per_shard) = if smoke { (2, 24) } else { (3, 24) };

    match models::parallel_encode_model(shards, per_shard) {
        Ok(r) => out.summary.push(format!(
            "conc: parallel encode OK ({} schedules, {} steps, byte-identical)",
            r.schedules, r.total_steps
        )),
        Err(v) => out.failures.push(format!("conc: parallel encode: {v}")),
    }
    match models::parallel_decode_model(shards, per_shard) {
        Ok(r) => out.summary.push(format!(
            "conc: parallel decode OK ({} schedules, {} steps, byte-identical)",
            r.schedules, r.total_steps
        )),
        Err(v) => out.failures.push(format!("conc: parallel decode: {v}")),
    }
    match models::pool_handshake_model(2, 3) {
        Ok(r) => out.summary.push(format!(
            "conc: pool handshake OK ({} schedules, no lost wakeup, deterministic placement)",
            r.schedules
        )),
        Err(v) => out.failures.push(format!("conc: pool handshake: {v}")),
    }
    match models::pool_panic_propagation_model() {
        Ok(r) => out.summary.push(format!(
            "conc: pool panic propagation OK ({} schedules, JobPanic surfaces identically)",
            r.schedules
        )),
        Err(v) => out
            .failures
            .push(format!("conc: pool panic propagation: {v}")),
    }
    match models::racy_counter_model() {
        Err(conc::Violation::ModelPanic { .. }) => out
            .summary
            .push("conc: racy fixture caught (lost update found)".to_string()),
        Err(v) => out
            .failures
            .push(format!("conc: racy fixture misreported: {v}")),
        Ok(_) => out
            .failures
            .push("conc: racy fixture NOT caught — checker is blind to races".to_string()),
    }
    match models::lock_inversion_model() {
        Err(conc::Violation::Deadlock { .. }) => out
            .summary
            .push("conc: deadlock fixture caught (AB-BA inversion found)".to_string()),
        Err(v) => out
            .failures
            .push(format!("conc: deadlock fixture misreported: {v}")),
        Ok(_) => out
            .failures
            .push("conc: deadlock fixture NOT caught — checker is blind to deadlocks".to_string()),
    }
    match models::pool_lost_wakeup_fixture() {
        Err(conc::Violation::Deadlock { .. }) => out.summary.push(
            "conc: lost-wakeup fixture caught (notify lands in the release->park window)"
                .to_string(),
        ),
        Err(v) => out
            .failures
            .push(format!("conc: lost-wakeup fixture misreported: {v}")),
        Ok(_) => out.failures.push(
            "conc: lost-wakeup fixture NOT caught — checker is blind to lost wakeups".to_string(),
        ),
    }
    out
}

/// Builds the workspace call graph and renders the hot-reachable
/// subgraph as DOT (with a per-crate node/edge summary in leading
/// comment lines). `cargo run -p analyzer -- --callgraph` prints it;
/// pipe through `dot -Tsvg` to render.
pub fn run_callgraph(repo_root: &Path) -> Result<String, String> {
    let sources = rules::load_workspace_sources(repo_root)?;
    let ctxs: Vec<rules::FileCtx> = sources
        .iter()
        .map(|(path, text)| rules::FileCtx::new(path, text))
        .collect();
    let graph = callgraph::CallGraph::build(&ctxs);
    Ok(callgraph::hot_subgraph_dot(&graph))
}
