//! Project-invariant linter for the INCEPTIONN workspace.
//!
//! Self-contained, with no external deps (the workspace builds offline
//! from vendored shims, so lint plugins are out of reach):
//!
//! - [`lexer`]: a string/comment-aware Rust tokenizer;
//! - [`rules`]: a rule engine that walks every `crates/*/src/**.rs`
//!   enforcing the project's safety and determinism invariants (SAFETY
//!   comments on `unsafe`, guarded `#[target_feature]` dispatch, no
//!   clocks/RNG in wire-layout code, no threads in library code,
//!   shim-facade hygiene);
//! - [`callgraph`]: an interprocedural pass over a function-level call
//!   graph of the whole workspace, in which hot roots (encode/decode,
//!   `Fabric::transfer*`, the pipelined exchanges, the recovery ladders)
//!   taint everything reachable — panic and allocation sites in the
//!   reachable set fail with the root→sink call chain, modulo a
//!   shrink-only allowlist.
//!
//! `cargo run -p analyzer -- --check` runs the linter and exits nonzero
//! on any violation; `tests/analyzer_gate.rs` wires the same entry point
//! into tier-1 `cargo test`.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod callgraph;
pub mod lexer;
pub mod rules;

use std::path::Path;

/// Outcome of the `--check` pass: linter diagnostics, already formatted
/// for printing.
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
