//! Interprocedural analysis: a lightweight symbol table and
//! function-level call graph built from the [`crate::lexer`] token
//! stream, plus hot-root reachability propagation.
//!
//! The graph is deliberately syntactic — no type inference, no borrow
//! information. Function *definitions* are discovered with their
//! enclosing `impl`/`trait` qualifier; call *sites* are classified as
//! free calls (`helper(x)`), method calls (`fabric.deliver(x)`), or
//! qualified calls (`Fabric::transfer(..)`, `sparse::decode_frame(..)`), and
//! resolved by name:
//!
//! - free calls bind to free functions of the same name anywhere in the
//!   workspace;
//! - method calls bind to *every* method of that name (a sound
//!   over-approximation of dynamic dispatch through `dyn Fabric`);
//! - qualified calls bind to methods whose `impl` self-type or trait
//!   matches the qualifier, falling back to free functions when the
//!   qualifier is a lowercase module path (`sparse::decode_frame`).
//!
//! Hot roots — `encode_into`/`decode_into`, the `Fabric::transfer*`
//! family, `Exchange::run` and the four `*_schedule` bodies it calls,
//! and every function in a recovery-ladder file — taint everything
//! reachable.
//! Panic sites (`unwrap`/`expect`/`panic!`) and allocation sites
//! (`Vec::new`, `to_vec`, `clone`, `Box::new`, `format!`) anywhere in
//! the reachable set fail with the full root→sink call chain in the
//! diagnostic ([`rule_hot_reachability`]).
//!
//! Over-approximation is the design: a name-resolved graph has false
//! edges, and the shrink-only allowlist absorbs the handful of sites
//! that are genuinely cold (recovery re-sends, one-shot wrappers). A
//! missed edge would be worse — it silently un-taints a real hot path —
//! so resolution always errs toward more edges.
//!
//! The `analyzer` and `bench` crates are excluded from the graph: they
//! are dev tools never linked into the training stack, and the
//! mini-loom's simulated primitives (`lock`, `send`, `recv`, `get`,
//! `set`) alias std method names, which would wire the product's hot
//! set into the checker itself.

use std::collections::{BTreeMap, VecDeque};

use crate::lexer::TokenKind;
use crate::rules::{Diagnostic, FileCtx, RECOVERY_PATH_FILES};

/// Function names that seed the hot set wherever they are defined.
pub const HOT_ROOT_NAMES: &[&str] = &[
    "encode_into",
    "decode_into",
    // The one body each exchange strategy has in the chunked executor
    // (`Exchange::run`, which calls them, is matched by qualifier
    // below).
    "ring_schedule",
    "tree_schedule",
    "worker_aggregator_schedule",
    "switch_schedule",
    // Membership transitions run at the top of every training
    // iteration; the per-endpoint liveness probe runs on every
    // delivery. (Snapshot catch-up's `transfer_snapshot` is already
    // tainted by the `transfer_` prefix rule.)
    "apply_membership_event",
    "down_at",
];

/// The exact allocation-sink list. `Vec::with_capacity` and `vec![]`
/// are deliberately absent: sized pre-allocation at setup or leg entry
/// is the *sanctioned* pattern the scratch buffers are built from.
pub const ALLOC_SINKS: &[&str] = &["Vec::new", "to_vec", "clone", "Box::new", "format!"];

/// Crates excluded from the graph (dev tools whose simulated primitives
/// alias std method names — see the module docs).
const EXCLUDED_PREFIXES: &[&str] = &["crates/analyzer/", "crates/bench/"];

/// Method names whose std-type meaning swamps any workspace meaning:
/// resolving `.map(…)` by name would wire every iterator adapter to
/// `Tensor::map`, `.pop()` to `CalendarQueue::pop`, `.value()` on an
/// `ErrorBound` to the JSON `Parser::value`, and so on. Dropping these
/// edges loses nothing real: the workspace methods sharing the names
/// are leaf accessors. Tuned against the actual tree — extend when a
/// new false chain appears, never to silence a true one.
pub const AMBIENT_METHODS: &[&str] = &["map", "pop", "resize", "finish", "value"];

/// Identifiers that look like calls but are control flow or tuple
/// constructors, never workspace function names.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "in", "as", "move", "ref", "impl", "trait", "where", "unsafe", "dyn", "pub", "use", "mod",
    "Some", "None", "Ok", "Err", "self", "super", "crate",
];

/// One function (or method) definition discovered in the tree.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Repo-relative file defining it.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self-type or `trait` name, if any.
    pub qualifier: Option<String>,
    /// For `impl Trait for Type` methods and trait default methods, the
    /// trait name (qualified calls through the trait resolve here too).
    pub trait_name: Option<String>,
    /// 1-based line of the definition.
    pub line: u32,
    /// Byte range of the body block.
    pub body: (usize, usize),
    /// Defined inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

impl FnDef {
    /// The crate this definition lives in (`crates/<name>/…`).
    pub fn crate_name(&self) -> &str {
        self.file
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("workspace")
    }

    /// `Type::name` for methods, bare `name` for free functions.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{}::{}", q, self.name),
            None => self.name.clone(),
        }
    }

    /// Is this definition a hot root? Recovery-ladder files contribute
    /// only their delivery/recovery entry points — fault *planning* and
    /// injection helpers (`FaultPlan::new`, `corrupted`) are cold setup.
    pub fn is_hot_root(&self) -> bool {
        HOT_ROOT_NAMES.contains(&self.name.as_str())
            || self.name == "transfer"
            || self.name.starts_with("transfer_")
            || (self.name == "run" && self.qualifier.as_deref() == Some("Exchange"))
            || (RECOVERY_PATH_FILES.contains(&self.file.as_str())
                && (self.name.starts_with("deliver")
                    || self.name.starts_with("redeliver")
                    || self.name.contains("recover")))
    }
}

/// What a sink does when executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Unwinds: `unwrap`, `expect`, `panic!`.
    Panic,
    /// Heap-allocates: one of [`ALLOC_SINKS`].
    Alloc,
}

/// One panic/allocation site inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Panic or allocation.
    pub kind: SinkKind,
    /// The offending token (`unwrap`, `Vec::new`, `format!`, …).
    pub what: &'static str,
    /// 1-based line of the site.
    pub line: u32,
}

/// A call site classified by syntax, pre-resolution.
#[derive(Debug, Clone)]
enum Callee {
    /// `helper(x)` — binds to free functions.
    Free(String),
    /// `recv.deliver(x)` — binds to every method of that name.
    Method(String),
    /// `Fabric::transfer(..)`, `sparse::decode_frame(..)` — binds through the
    /// qualifier.
    Qualified(String, String),
}

/// The workspace call graph: definitions, adjacency, per-function
/// sinks, and the hot-root seed set.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every discovered definition.
    pub fns: Vec<FnDef>,
    /// `callees[i]` = indices of functions `fns[i]` may call.
    pub callees: Vec<Vec<usize>>,
    /// `sinks[i]` = panic/alloc sites inside `fns[i]`.
    pub sinks: Vec<Vec<Sink>>,
    /// Indices of hot-root definitions.
    pub roots: Vec<usize>,
}

/// Matches the `{` at code index `open` to its closing brace. Returns
/// (byte end of the block, code index of the close).
fn match_brace(ctx: &FileCtx, open: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut k = open;
    while k < ctx.code.len() {
        match ctx.ct(k).kind {
            TokenKind::Punct(b'{') => depth += 1,
            TokenKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return (ctx.ct(k).end, k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    (ctx.src.len(), ctx.code.len().saturating_sub(1))
}

/// `(start byte, end byte, self type, trait name)` of an `impl`/`trait`
/// block body.
type ContextBlock = (usize, usize, Option<String>, Option<String>);

/// Collects `impl …` and `trait …` block contexts for one file.
fn collect_contexts(ctx: &FileCtx) -> Vec<ContextBlock> {
    let n = ctx.code.len();
    let mut contexts = Vec::new();
    let mut i = 0;
    while i < n {
        let is_impl = ctx.is_ident(i, "impl");
        let is_trait = ctx.is_ident(i, "trait");
        if !(is_impl || is_trait) {
            i += 1;
            continue;
        }
        // Skip type positions: `-> impl Trait`, `&impl T`, `dyn Trait`,
        // generic bounds (`T: impl …` cannot occur, but `+ impl` can't
        // hurt to skip).
        if i > 0 {
            let skip = match ctx.ct(i - 1).kind {
                TokenKind::Punct(p) => {
                    matches!(p, b'>' | b'(' | b',' | b'&' | b'=' | b'<' | b'+' | b':')
                }
                TokenKind::Ident => ctx.text(i - 1) == "dyn",
                _ => false,
            };
            if skip {
                i += 1;
                continue;
            }
        }
        // Header scan: depth-0 idents up to the body `{` (or `;` for
        // bodyless forms). `for` splits trait path from self type;
        // `where` ends path collection.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut first_path: Vec<String> = Vec::new();
        let mut second_path: Vec<String> = Vec::new();
        let mut after_for = false;
        let mut in_where = false;
        // Set by a depth-0 single `:` (supertrait list: `trait Fabric:
        // Send`) or `+` (auto-trait bound): idents after it are bounds,
        // not the path. A `::` pair is a path separator, not a bound.
        let mut in_bounds = false;
        let mut open = None;
        while j < n {
            match ctx.ct(j).kind {
                TokenKind::Punct(b'<') => angle += 1,
                TokenKind::Punct(b'>') => angle -= 1,
                TokenKind::Punct(b'{') => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(b';') => break,
                TokenKind::Punct(b':') if angle <= 0 => {
                    let paired = (j + 1 < n && ctx.is_punct(j + 1, b':'))
                        || (j > 0 && ctx.is_punct(j - 1, b':'));
                    if !paired {
                        in_bounds = true;
                    }
                }
                TokenKind::Punct(b'+') if angle <= 0 => in_bounds = true,
                TokenKind::Ident if angle <= 0 => {
                    let t = ctx.text(j);
                    if t == "for" {
                        after_for = true;
                        in_bounds = false;
                    } else if t == "where" {
                        in_where = true;
                    } else if !in_where && !in_bounds && t != "dyn" {
                        if after_for {
                            second_path.push(t.to_string());
                        } else {
                            first_path.push(t.to_string());
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let (body_end, _) = match_brace(ctx, open);
        let self_ty = if after_for {
            second_path.last().cloned()
        } else {
            first_path.last().cloned()
        };
        let trait_ty = if is_trait {
            // Trait default methods answer to the trait's own name.
            first_path.first().cloned()
        } else if after_for {
            first_path.last().cloned()
        } else {
            None
        };
        contexts.push((ctx.ct(open).start, body_end, self_ty, trait_ty));
        // Keep scanning inside the block: trait items never nest, but a
        // module may hold several impls.
        i = open + 1;
    }
    contexts
}

impl CallGraph {
    /// Builds the graph over a set of tokenized files. Pass one file
    /// for the single-file approximation `lint_source` uses, or the
    /// whole tree for the real interprocedural pass.
    pub fn build(ctxs: &[FileCtx]) -> CallGraph {
        let mut fns: Vec<FnDef> = Vec::new();
        let mut sinks_raw: Vec<(usize, Sink)> = Vec::new();
        let mut calls: Vec<(usize, Callee)> = Vec::new();
        for ctx in ctxs {
            if EXCLUDED_PREFIXES.iter().any(|p| ctx.path.starts_with(p)) {
                continue;
            }
            parse_file(ctx, &mut fns, &mut sinks_raw, &mut calls);
        }

        // Name-resolution indices over non-test definitions.
        let mut by_free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (idx, d) in fns.iter().enumerate() {
            if d.is_test {
                continue;
            }
            match &d.qualifier {
                None => by_free.entry(d.name.as_str()).or_default().push(idx),
                Some(q) => {
                    by_method.entry(d.name.as_str()).or_default().push(idx);
                    by_qual
                        .entry((q.as_str(), d.name.as_str()))
                        .or_default()
                        .push(idx);
                }
            }
            if let Some(t) = &d.trait_name {
                by_qual
                    .entry((t.as_str(), d.name.as_str()))
                    .or_default()
                    .push(idx);
            }
        }

        let empty: Vec<usize> = Vec::new();
        let mut callees = vec![Vec::new(); fns.len()];
        for (owner, callee) in &calls {
            let targets = match callee {
                Callee::Free(n) => by_free.get(n.as_str()).unwrap_or(&empty),
                Callee::Method(n) => by_method.get(n.as_str()).unwrap_or(&empty),
                Callee::Qualified(q, n) => {
                    if let Some(v) = by_qual.get(&(q.as_str(), n.as_str())) {
                        v
                    } else if q.starts_with(|c: char| c.is_lowercase()) {
                        // Module-qualified free call: `sparse::decode_frame(..)`.
                        by_free.get(n.as_str()).unwrap_or(&empty)
                    } else {
                        &empty
                    }
                }
            };
            for &t in targets {
                if t != *owner {
                    callees[*owner].push(t);
                }
            }
        }
        for v in &mut callees {
            v.sort_unstable();
            v.dedup();
        }

        let mut sinks = vec![Vec::new(); fns.len()];
        for (owner, s) in sinks_raw {
            sinks[owner].push(s);
        }

        let roots: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_test && d.is_hot_root())
            .map(|(i, _)| i)
            .collect();

        CallGraph {
            fns,
            callees,
            sinks,
            roots,
        }
    }

    /// Multi-source BFS from the hot roots. Returns (reachable mask,
    /// BFS predecessor per function) — predecessors reconstruct a
    /// shortest root→sink chain deterministically.
    pub fn reachable(&self) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut seen = vec![false; self.fns.len()];
        let mut pred = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for &r in &self.roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.callees[u] {
                if !seen[v] {
                    seen[v] = true;
                    pred[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        (seen, pred)
    }

    /// The root→…→`idx` chain of definition indices.
    pub fn chain_to(&self, pred: &[Option<usize>], idx: usize) -> Vec<usize> {
        let mut chain = vec![idx];
        let mut cur = idx;
        while let Some(p) = pred[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// Parses one file: definitions, sinks, call sites. Sinks and calls are
/// attributed to the innermost enclosing non-test definition.
fn parse_file(
    ctx: &FileCtx,
    fns: &mut Vec<FnDef>,
    sinks_raw: &mut Vec<(usize, Sink)>,
    calls: &mut Vec<(usize, Callee)>,
) {
    let n = ctx.code.len();
    let contexts = collect_contexts(ctx);

    // Pass 1: function definitions.
    let first_local = fns.len();
    let mut i = 0;
    while i + 1 < n {
        if !ctx.is_ident(i, "fn") || ctx.ct(i + 1).kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = ctx.text(i + 1).to_string();
        // Body: the first `{` before any terminating `;` (a `;` first
        // means a bodyless trait/extern declaration). A `;` inside
        // brackets is an array type's length (`&[u8; 32]`), not one.
        let mut j = i + 2;
        let mut open = None;
        let mut brackets = 0u32;
        while j < n {
            match ctx.ct(j).kind {
                TokenKind::Punct(b'{') => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(b'[') => brackets += 1,
                TokenKind::Punct(b']') => brackets = brackets.saturating_sub(1),
                TokenKind::Punct(b';') if brackets == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 2) + 1;
            continue;
        };
        let (body_end, close) = match_brace(ctx, open);
        let start = ctx.ct(i).start;
        let (qualifier, trait_name) = contexts
            .iter()
            .filter(|(s, e, _, _)| start > *s && start < *e)
            .min_by_key(|(s, e, _, _)| e - s)
            .map(|(_, _, q, t)| (q.clone(), t.clone()))
            .unwrap_or((None, None));
        fns.push(FnDef {
            file: ctx.path.to_string(),
            name,
            qualifier,
            trait_name,
            line: ctx.ct(i + 1).line,
            body: (ctx.ct(open).start, body_end),
            is_test: ctx.offset_in_test(start),
        });
        // Nested fns get their own defs: resume just inside the body.
        let _ = close;
        i += 2;
    }
    let local: Vec<usize> = (first_local..fns.len()).collect();

    // Innermost enclosing definition of a byte offset.
    let innermost = |b: usize| -> Option<usize> {
        local
            .iter()
            .copied()
            .filter(|&d| b > fns[d].body.0 && b < fns[d].body.1)
            .min_by_key(|&d| fns[d].body.1 - fns[d].body.0)
    };

    // `let`-bound names per definition: a call through a local binding
    // (`let run = |job| …; run(job)`) is a closure invocation, not a
    // free-function call — resolving it by name would wire the owner to
    // every free fn that happens to share the binding's name.
    let mut shadowed: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut i = 0;
    while i < n {
        if !ctx.is_ident(i, "let") {
            i += 1;
            continue;
        }
        let owner = innermost(ctx.ct(i).start);
        let mut j = i + 1;
        while j < n {
            match ctx.ct(j).kind {
                TokenKind::Punct(b'=') | TokenKind::Punct(b';') | TokenKind::Punct(b':') => break,
                TokenKind::Ident => {
                    let t = ctx.text(j);
                    if t != "mut" && t != "ref" {
                        if let Some(o) = owner {
                            shadowed.entry(o).or_default().push(t.to_string());
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
    }

    // Pass 2: sinks and call sites.
    for i in 0..n {
        if ctx.ct(i).kind != TokenKind::Ident {
            continue;
        }
        let at = ctx.ct(i).start;
        let Some(owner) = innermost(at) else { continue };
        if fns[owner].is_test {
            continue;
        }
        let name = ctx.text(i);
        let line = ctx.ct(i).line;
        let next_paren = i + 1 < n && ctx.is_punct(i + 1, b'(');
        let next_bang = i + 1 < n && ctx.is_punct(i + 1, b'!');
        let prev_dot = i > 0 && ctx.is_punct(i - 1, b'.');
        let qual_prev = i >= 2 && ctx.is_punct(i - 1, b':') && ctx.is_punct(i - 2, b':');

        let sink = match name {
            "unwrap" if prev_dot && next_paren => Some((SinkKind::Panic, "unwrap")),
            "expect" if prev_dot && next_paren => Some((SinkKind::Panic, "expect")),
            "panic" if next_bang => Some((SinkKind::Panic, "panic!")),
            "to_vec" if prev_dot && next_paren => Some((SinkKind::Alloc, "to_vec")),
            "clone" if prev_dot && next_paren => Some((SinkKind::Alloc, "clone")),
            "format" if next_bang => Some((SinkKind::Alloc, "format!")),
            "new" if next_paren && qual_prev && i >= 3 && ctx.is_ident(i - 3, "Vec") => {
                Some((SinkKind::Alloc, "Vec::new"))
            }
            "new" if next_paren && qual_prev && i >= 3 && ctx.is_ident(i - 3, "Box") => {
                Some((SinkKind::Alloc, "Box::new"))
            }
            _ => None,
        };
        if let Some((kind, what)) = sink {
            sinks_raw.push((owner, Sink { kind, what, line }));
        }

        if !next_paren || NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        if i > 0 && ctx.is_ident(i - 1, "fn") {
            continue; // the definition itself
        }
        let callee = if prev_dot {
            // Sink method names never double as call edges (`.expect(`
            // would otherwise wire its caller to the JSON parser's
            // `Parser::expect`); ambient std methods likewise.
            if matches!(name, "unwrap" | "expect" | "clone" | "to_vec")
                || AMBIENT_METHODS.contains(&name)
            {
                continue;
            }
            Callee::Method(name.to_string())
        } else if qual_prev {
            if i >= 3 && ctx.ct(i - 3).kind == TokenKind::Ident {
                let q = ctx.text(i - 3);
                if q == "Self" {
                    match &fns[owner].qualifier {
                        Some(sq) => Callee::Qualified(sq.clone(), name.to_string()),
                        None => Callee::Free(name.to_string()),
                    }
                } else {
                    Callee::Qualified(q.to_string(), name.to_string())
                }
            } else {
                continue; // turbofish or other non-ident qualifier
            }
        } else {
            if shadowed
                .get(&owner)
                .is_some_and(|s| s.iter().any(|b| b == name))
            {
                continue; // local closure/binding, not a free fn
            }
            Callee::Free(name.to_string())
        };
        calls.push((owner, callee));
    }
}

/// The two interprocedural rules: `no-panic-hot-path` and
/// `no-alloc-hot-path`. Every sink in a hot-reachable function fails
/// with the full root→sink call chain. Panic sinks in recovery-ladder
/// files are skipped — the stricter, allowlist-free
/// `no-panic-recovery-path` rule owns those.
pub fn rule_hot_reachability(graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let (seen, pred) = graph.reachable();
    for (idx, d) in graph.fns.iter().enumerate() {
        if !seen[idx] || graph.sinks[idx].is_empty() {
            continue;
        }
        let chain: Vec<String> = graph
            .chain_to(&pred, idx)
            .into_iter()
            .map(|i| graph.fns[i].display_name())
            .collect();
        let chain_str = chain.join(" -> ");
        for s in &graph.sinks[idx] {
            match s.kind {
                SinkKind::Panic => {
                    if RECOVERY_PATH_FILES.contains(&d.file.as_str()) {
                        continue;
                    }
                    out.push(Diagnostic {
                        rule: "no-panic-hot-path",
                        file: d.file.clone(),
                        line: s.line,
                        message: format!(
                            "`{}` reachable from hot root `{}` (call chain: {chain_str})",
                            s.what, chain[0]
                        ),
                        hint: "propagate a typed error (DecodeError / FrameError / FabricError) \
                               instead; if the panic is provably unreachable, add an allowlist \
                               entry with the proof sketch"
                            .to_string(),
                    });
                }
                SinkKind::Alloc => {
                    out.push(Diagnostic {
                        rule: "no-alloc-hot-path",
                        file: d.file.clone(),
                        line: s.line,
                        message: format!(
                            "`{}` allocates on a path reachable from hot root `{}` \
                             (call chain: {chain_str})",
                            s.what, chain[0]
                        ),
                        hint: "reuse a PipelineScratch / FrameArena / ByteSink buffer or hoist \
                               the allocation to setup; genuinely cold sites (recovery resends, \
                               one-shot wrappers) may take a justified allowlist entry"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// DOT rendering of the hot-reachable subgraph, with a per-crate
/// summary in comment lines (also returned by [`summary_lines`] for
/// DESIGN.md).
pub fn hot_subgraph_dot(graph: &CallGraph) -> String {
    let (seen, _) = graph.reachable();
    let mut out = String::from("digraph hot_paths {\n");
    for line in summary_lines(graph) {
        out.push_str("    // ");
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("    rankdir=LR;\n    node [shape=box, fontsize=10];\n");
    let node_id = |i: usize| -> String {
        let d = &graph.fns[i];
        format!("{}::{}#{i}", d.crate_name(), d.display_name())
    };
    for (i, d) in graph.fns.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        let style = if graph.roots.contains(&i) {
            ", style=bold, color=red"
        } else if !graph.sinks[i].is_empty() {
            ", style=dashed"
        } else {
            ""
        };
        out.push_str(&format!(
            "    \"{}\" [label=\"{}::{}\"{}];\n",
            node_id(i),
            d.crate_name(),
            d.display_name(),
            style
        ));
    }
    for (i, cs) in graph.callees.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        for &c in cs {
            if seen[c] {
                out.push_str(&format!("    \"{}\" -> \"{}\";\n", node_id(i), node_id(c)));
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Per-crate node/edge/root/sink counts of the hot-reachable subgraph,
/// one formatted line per crate plus a totals line.
pub fn summary_lines(graph: &CallGraph) -> Vec<String> {
    let (seen, _) = graph.reachable();
    let mut per: BTreeMap<&str, (usize, usize, usize, usize)> = BTreeMap::new();
    let mut total_edges = 0usize;
    for (i, d) in graph.fns.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        let entry = per.entry(d.crate_name()).or_default();
        entry.0 += 1;
        let edges = graph.callees[i].iter().filter(|&&c| seen[c]).count();
        entry.1 += edges;
        total_edges += edges;
        if graph.roots.contains(&i) {
            entry.2 += 1;
        }
        entry.3 += graph.sinks[i].len();
    }
    let total_nodes = seen.iter().filter(|&&s| s).count();
    let mut lines: Vec<String> = per
        .iter()
        .map(|(c, (nodes, edges, roots, sinks))| {
            format!("{c}: {nodes} hot fns, {edges} edges, {roots} roots, {sinks} sinks")
        })
        .collect();
    lines.push(format!(
        "total: {} fns in graph, {total_nodes} hot-reachable, {total_edges} edges in hot subgraph",
        graph.fns.len()
    ));
    lines
}
