//! The project-invariant rule engine.
//!
//! Nine rules over every `crates/*/src/**/*.rs` file, each encoding an
//! invariant the INCEPTIONN reproduction's correctness story depends on
//! (see DESIGN.md §"Static analysis" for the catalog and how to add a
//! rule):
//!
//! | id | invariant |
//! |----|-----------|
//! | `safety-comment` | every `unsafe` block/fn/impl carries a `SAFETY:` comment immediately above it |
//! | `target-feature-dispatch` | `#[target_feature]` kernels are only referenced under a matching `is_x86_feature_detected!` guard (or from a kernel enabling a superset) |
//! | `no-panic-hot-path` | no `unwrap()`/`expect()`/`panic!` in non-test code **reachable from a hot root** over the [`crate::callgraph`] call graph, modulo a shrink-only allowlist |
//! | `no-alloc-hot-path` | no `Vec::new`/`to_vec`/`clone`/`Box::new`/`format!` allocation sites in code reachable from a hot root, modulo the same allowlist |
//! | `no-panic-recovery-path` | fault-injection and recovery code never panics at all — no allowlist: a recovery path that can itself unwind defeats its purpose |
//! | `no-time-rng-in-wire` | code that determines wire byte layout never consults wall clocks or RNGs |
//! | `shim-facade` | vendored shims are only imported by the crates the facade declares |
//! | `no-eager-format-hot-path` | obs-instrumented hot paths never format strings (`format!`, `.to_string()`) or read `Instant` — events are static labels + integers, rendering deferred to export |
//! | `no-thread-in-library` | no library code creates threads (`std::thread`'s `spawn`, `scope` or `Builder`): every codec, fabric and exchange runs on the caller's thread |
//!
//! The two hot-path rules are *interprocedural*: instead of a file
//! list, [`crate::callgraph`] seeds the codec/transport entry points
//! (`encode_into`/`decode_into`, the `Fabric::transfer*` family,
//! `Exchange::run` with the four `*_schedule` bodies, and the recovery
//! ladders) as hot roots and taints everything reachable; a panic or allocation
//! site anywhere in the reachable set fails with the full root→sink
//! call chain in the diagnostic. The remaining rules run on the token
//! stream of [`crate::lexer`], so text inside strings and comments
//! never fires them, and `#[cfg(test)]` regions are excluded where a
//! rule targets production code only.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{tokenize, Token, TokenKind};

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (`safety-comment`, …).
    pub rule: &'static str,
    /// Repo-relative file path (unix separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Number of distinct rule ids the engine can emit (excluding the
/// `allowlist-ratchet` meta-diagnostic).
pub const RULE_COUNT: usize = 9;

/// Obs-instrumented hot-path files covered by
/// `no-eager-format-hot-path`: the codec fast path, the transport seam,
/// and the NIC datapath. (Panic/alloc coverage is no longer file-based:
/// [`crate::callgraph`] propagates hotness over the call graph.)
/// Growing this list is encouraged; shrinking it needs a DESIGN.md note.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/compress/src/burst.rs",
    "crates/compress/src/parallel.rs",
    "crates/compress/src/inceptionn.rs",
    "crates/compress/src/bitio.rs",
    "crates/compress/src/sparse.rs",
    "crates/compress/src/sketch.rs",
    "crates/distrib/src/codec.rs",
    "crates/distrib/src/crc32.rs",
    "crates/distrib/src/fabric.rs",
    "crates/distrib/src/pipeline.rs",
    "crates/nicsim/src/chunker.rs",
    "crates/nicsim/src/datapath.rs",
    "crates/nicsim/src/engine.rs",
    "crates/nicsim/src/nic.rs",
    "crates/nicsim/src/packet.rs",
];

/// Fault-injection and recovery files covered by
/// `no-panic-recovery-path`. Stricter than the hot-path rule: there is
/// no allowlist. These paths exist to absorb failures; an `unwrap` here
/// turns an injected fault into a process abort, which is exactly the
/// failure mode the subsystem promises cannot happen.
pub const RECOVERY_PATH_FILES: &[&str] = &["crates/distrib/src/faults.rs"];

/// Files whose code determines wire byte layout: covered by
/// `no-time-rng-in-wire`. A wall-clock or RNG read here could make two
/// encoders of the same block disagree — the one thing the codec's
/// bit-exactness claim cannot survive. The event core and the topology
/// layer are covered too: a wall-clock timestamp or random tie-break in
/// the scheduler would let two replays of the same schedule order
/// deliveries (and thus switch folds) differently, breaking the
/// bit-identity guarantee of in-network reduction.
pub const WIRE_LAYOUT_FILES: &[&str] = &[
    "crates/compress/src/burst.rs",
    "crates/compress/src/parallel.rs",
    "crates/compress/src/inceptionn.rs",
    "crates/compress/src/bitio.rs",
    "crates/compress/src/sparse.rs",
    "crates/compress/src/sketch.rs",
    "crates/distrib/src/codec.rs",
    "crates/nicsim/src/chunker.rs",
    "crates/nicsim/src/engine.rs",
    "crates/nicsim/src/nic.rs",
    "crates/nicsim/src/packet.rs",
    "crates/nicsim/src/switchagg.rs",
    "crates/netsim/src/event.rs",
    "crates/netsim/src/topology.rs",
];

/// The declared shim facade: which workspace crates may import each
/// vendored shim from **non-test** code. Test modules and `tests/`
/// targets are always free to use any shim.
pub const SHIM_FACADE: &[(&str, &[&str])] = &[
    ("rand", &["tensor", "dnn", "compress", "core", "bench"]),
    ("serde", &["dnn", "compress", "nicsim", "netsim", "core"]),
    ("serde_derive", &[]),
    ("bytes", &["nicsim"]),
    ("proptest", &[]),
];

/// Identifiers that read wall clocks or randomness.
const TIME_RNG_IDENTS: &[&str] = &["SystemTime", "Instant", "UNIX_EPOCH", "thread_rng"];

/// A tokenized source file plus the derived structure rules need.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Repo-relative path with unix separators.
    pub path: &'a str,
    /// Full source text.
    pub src: &'a str,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]` items (whole `mod tests { … }`).
    test_ranges: Vec<(usize, usize)>,
    /// Per 1-based line: classification for the SAFETY-comment scan.
    line_kinds: Vec<LineKind>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LineKind {
    Blank,
    /// Only comments (text of every comment covering the line joined).
    Comment(String),
    /// Only attribute tokens (plus optional comments).
    Attr,
    Code,
}

impl<'a> FileCtx<'a> {
    /// Tokenizes and indexes one file.
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = tokenize(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let attr_mask = attr_mask(&tokens, &code);
        let test_ranges = test_ranges(src, &tokens, &code);
        let line_kinds = line_kinds(src, &tokens, &code, &attr_mask);
        FileCtx {
            path,
            src,
            tokens,
            code,
            test_ranges,
            line_kinds,
        }
    }

    /// The `i`-th code token.
    pub(crate) fn ct(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Text of the `i`-th code token.
    pub(crate) fn text(&self, i: usize) -> &str {
        self.ct(i).text(self.src)
    }

    /// Is the `i`-th code token inside a `#[cfg(test)]` region?
    fn in_test(&self, i: usize) -> bool {
        let at = self.ct(i).start;
        self.test_ranges.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// Is byte offset `at` inside a `#[cfg(test)]` region?
    pub fn offset_in_test(&self, at: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| at >= s && at < e)
    }

    pub(crate) fn is_punct(&self, i: usize, b: u8) -> bool {
        self.ct(i).kind == TokenKind::Punct(b)
    }

    pub(crate) fn is_ident(&self, i: usize, s: &str) -> bool {
        self.ct(i).kind == TokenKind::Ident && self.text(i) == s
    }
}

/// Marks code tokens belonging to `#[…]` / `#![…]` attributes.
fn attr_mask(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let open = if tokens[code[i]].kind == TokenKind::Punct(b'#') {
            match code.get(i + 1).map(|&j| tokens[j].kind) {
                Some(TokenKind::Punct(b'[')) => Some(i + 1),
                Some(TokenKind::Punct(b'!'))
                    if code.get(i + 2).map(|&j| tokens[j].kind) == Some(TokenKind::Punct(b'[')) =>
                {
                    Some(i + 2)
                }
                _ => None,
            }
        } else {
            None
        };
        if let Some(first_bracket) = open {
            let mut depth = 0i32;
            let mut j = first_bracket;
            while j < code.len() {
                match tokens[code[j]].kind {
                    TokenKind::Punct(b'[') => depth += 1,
                    TokenKind::Punct(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            for m in mask.iter_mut().take((j + 1).min(code.len())).skip(i) {
                *m = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Byte ranges of items annotated `#[cfg(test)]` (attribute through the
/// matching close brace, or the trailing `;` for non-block items).
fn test_ranges(src: &str, tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 5 < code.len() {
        let t = |k: usize| &tokens[code[k]];
        let is_cfg_test = t(i).kind == TokenKind::Punct(b'#')
            && t(i + 1).kind == TokenKind::Punct(b'[')
            && t(i + 2).text(src) == "cfg"
            && t(i + 3).kind == TokenKind::Punct(b'(')
            && t(i + 4).text(src) == "test"
            && t(i + 5).kind == TokenKind::Punct(b')');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = t(i).start;
        // Scan forward to the item body: the first `{` not preceded by
        // a terminating `;` (a `;` first means a block-less item).
        let mut j = i + 6;
        let mut end = None;
        while j < code.len() {
            match tokens[code[j]].kind {
                TokenKind::Punct(b'{') => {
                    let mut depth = 0i32;
                    let mut k = j;
                    while k < code.len() {
                        match tokens[code[k]].kind {
                            TokenKind::Punct(b'{') => depth += 1,
                            TokenKind::Punct(b'}') => {
                                depth -= 1;
                                if depth == 0 {
                                    end = Some(tokens[code[k]].end);
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    break;
                }
                TokenKind::Punct(b';') => {
                    end = Some(tokens[code[j]].end);
                    break;
                }
                _ => j += 1,
            }
        }
        let end = end.unwrap_or(src.len());
        ranges.push((start, end));
        i = j + 1;
    }
    ranges
}

/// Classifies every 1-based source line for the SAFETY-comment
/// adjacency walk.
fn line_kinds(src: &str, tokens: &[Token], code: &[usize], attr: &[bool]) -> Vec<LineKind> {
    let n_lines = src.lines().count() + 2;
    let mut kinds = vec![LineKind::Blank; n_lines + 1];
    // Comments first (weakest), then attributes, then code (strongest).
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let text = t.text(src);
        let span = text.matches('\n').count();
        for l in t.line as usize..=(t.line as usize + span) {
            if let Some(slot) = kinds.get_mut(l) {
                match slot {
                    LineKind::Blank => *slot = LineKind::Comment(text.to_string()),
                    LineKind::Comment(existing) => {
                        existing.push('\n');
                        existing.push_str(text);
                    }
                    _ => {}
                }
            }
        }
    }
    for (pos, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        let span = t.text(src).matches('\n').count();
        for l in t.line as usize..=(t.line as usize + span) {
            if let Some(slot) = kinds.get_mut(l) {
                if attr[pos] {
                    if !matches!(slot, LineKind::Code) {
                        *slot = LineKind::Attr;
                    }
                } else {
                    *slot = LineKind::Code;
                }
            }
        }
    }
    kinds
}

// ---------------------------------------------------------------------
// Rule: safety-comment
// ---------------------------------------------------------------------

/// Every `unsafe` block, `unsafe fn`, and `unsafe impl` must have a
/// comment containing `SAFETY:` immediately above it (attribute lines
/// and doc comments may sit in between; a blank or code line breaks
/// adjacency). A trailing comment on the `unsafe` line itself also
/// counts.
pub fn rule_safety_comment(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.code.len() {
        if !ctx.is_ident(i, "unsafe") {
            continue;
        }
        // Skip type positions: `let k: unsafe fn(…)`, fn-pointer params.
        if i > 0 {
            if let TokenKind::Punct(p) = ctx.ct(i - 1).kind {
                if matches!(p, b':' | b'(' | b',' | b'<' | b'=') {
                    continue;
                }
            }
        }
        // Only block/fn/impl/trait/extern forms are unsafe *sites*.
        let next_is_site = ctx
            .code
            .get(i + 1)
            .map(|_| {
                ctx.is_punct(i + 1, b'{')
                    || ctx.is_ident(i + 1, "fn")
                    || ctx.is_ident(i + 1, "impl")
                    || ctx.is_ident(i + 1, "trait")
                    || ctx.is_ident(i + 1, "extern")
            })
            .unwrap_or(false);
        if !next_is_site {
            continue;
        }
        let line = ctx.ct(i).line as usize;
        if has_adjacent_safety_comment(ctx, line) {
            continue;
        }
        let form = if ctx.is_punct(i + 1, b'{') {
            "unsafe block"
        } else {
            "unsafe declaration"
        };
        out.push(Diagnostic {
            rule: "safety-comment",
            file: ctx.path.to_string(),
            line: ctx.ct(i).line,
            message: format!("{form} without an adjacent `SAFETY:` comment"),
            hint: "add `// SAFETY: <why the preconditions hold>` directly above \
                   (attributes and doc lines may sit in between)"
                .to_string(),
        });
    }
}

fn has_adjacent_safety_comment(ctx: &FileCtx, site_line: usize) -> bool {
    // Same-line comment (e.g. `unsafe { // SAFETY: …`). Line kinds
    // record such mixed lines as Code, so scan the comment tokens.
    if ctx
        .tokens
        .iter()
        .filter(|t| t.is_comment())
        .any(|t| t.line as usize == site_line && t.text(ctx.src).contains("SAFETY:"))
    {
        return true;
    }
    let mut l = site_line.saturating_sub(1);
    while l >= 1 {
        match ctx.line_kinds.get(l) {
            Some(LineKind::Comment(text)) => {
                if text.contains("SAFETY:") {
                    return true;
                }
                l -= 1;
            }
            Some(LineKind::Attr) => l -= 1,
            _ => return false,
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule: target-feature-dispatch
// ---------------------------------------------------------------------

/// A `#[target_feature(enable = …)]` function found in the tree.
#[derive(Debug, Clone)]
pub struct KernelFn {
    /// Repo-relative file that defines it.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Features it enables.
    pub features: Vec<String>,
    /// Byte range of its body (for containment checks).
    pub body: (usize, usize),
    /// Line of the definition.
    pub line: u32,
}

/// Collects `#[target_feature]` functions from one file.
pub fn collect_kernels(ctx: &FileCtx) -> Vec<KernelFn> {
    let mut kernels = Vec::new();
    let mut i = 0;
    while i + 2 < ctx.code.len() {
        let is_tf_attr = ctx.is_punct(i, b'#')
            && ctx.is_punct(i + 1, b'[')
            && ctx.is_ident(i + 2, "target_feature");
        if !is_tf_attr {
            i += 1;
            continue;
        }
        // Find the feature string inside the attribute.
        let mut j = i + 3;
        let mut features = Vec::new();
        while j < ctx.code.len() && !ctx.is_punct(j, b']') {
            if ctx.ct(j).kind == TokenKind::Str {
                let raw = ctx.text(j).trim_matches('"');
                features.extend(raw.split(',').map(|f| f.trim().to_string()));
            }
            j += 1;
        }
        // Then skip to the `fn` and take its name and body span.
        while j < ctx.code.len() && !ctx.is_ident(j, "fn") {
            j += 1;
        }
        if j + 1 >= ctx.code.len() {
            break;
        }
        let name = ctx.text(j + 1).to_string();
        let line = ctx.ct(j + 1).line;
        let mut k = j + 2;
        while k < ctx.code.len() && !ctx.is_punct(k, b'{') {
            k += 1;
        }
        let body_start = ctx.ct(k.min(ctx.code.len() - 1)).start;
        let mut depth = 0i32;
        let mut body_end = ctx.src.len();
        while k < ctx.code.len() {
            match ctx.ct(k).kind {
                TokenKind::Punct(b'{') => depth += 1,
                TokenKind::Punct(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = ctx.ct(k).end;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        kernels.push(KernelFn {
            file: ctx.path.to_string(),
            name,
            features,
            body: (body_start, body_end),
            line,
        });
        i = k + 1;
    }
    kernels
}

/// Features named by `is_x86_feature_detected!` invocations in a file.
fn detected_features(ctx: &FileCtx) -> Vec<String> {
    let mut feats = Vec::new();
    for i in 0..ctx.code.len() {
        if ctx.is_ident(i, "is_x86_feature_detected")
            && i + 1 < ctx.code.len()
            && ctx.is_punct(i + 1, b'!')
        {
            let mut j = i + 2;
            while j < ctx.code.len() && j < i + 6 {
                if ctx.ct(j).kind == TokenKind::Str {
                    feats.push(ctx.text(j).trim_matches('"').to_string());
                    break;
                }
                j += 1;
            }
        }
    }
    feats
}

/// Checks every reference to a known kernel in `ctx`: the reference
/// must sit inside another kernel enabling a superset of the callee's
/// features, or the file must runtime-detect every feature the callee
/// enables.
pub fn rule_target_feature_dispatch(
    ctx: &FileCtx,
    kernels: &[KernelFn],
    out: &mut Vec<Diagnostic>,
) {
    if kernels.is_empty() {
        return;
    }
    let detected = detected_features(ctx);
    for i in 0..ctx.code.len() {
        if ctx.ct(i).kind != TokenKind::Ident {
            continue;
        }
        let name = ctx.text(i);
        let Some(kernel) = kernels.iter().find(|k| k.name == name) else {
            continue;
        };
        // Skip the definition itself (`fn name`).
        if i > 0 && ctx.is_ident(i - 1, "fn") {
            continue;
        }
        let at = ctx.ct(i).start;
        // Same-file kernel-to-kernel call with a feature superset is a
        // compile-time-guaranteed context.
        let enclosing_ok = kernels.iter().any(|k| {
            k.file == ctx.path
                && at > k.body.0
                && at < k.body.1
                && kernel.features.iter().all(|f| k.features.contains(f))
        });
        if enclosing_ok {
            continue;
        }
        let missing: Vec<&String> = kernel
            .features
            .iter()
            .filter(|f| !detected.contains(f))
            .collect();
        if !missing.is_empty() {
            out.push(Diagnostic {
                rule: "target-feature-dispatch",
                file: ctx.path.to_string(),
                line: ctx.ct(i).line,
                message: format!(
                    "reference to `#[target_feature]` fn `{name}` in a file with no \
                     `is_x86_feature_detected!({:?})` guard",
                    missing
                ),
                hint: format!(
                    "dispatch through a runtime check: gate this call on \
                     `is_x86_feature_detected!(\"{}\")` (probed once, stored, and \
                     consulted before every call), or call it from a kernel enabling \
                     a superset of its features",
                    missing
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join("\", \"")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-panic-recovery-path
// ---------------------------------------------------------------------

/// Finds `unwrap()` / `expect(` / `panic!` in non-test code of a
/// fault-recovery file. Unlike the hot-path rule there is no allowlist
/// escape hatch: every failure a recovery path can see must flow into a
/// typed `FabricError`-style result.
pub fn rule_no_panic_recovery_path(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !RECOVERY_PATH_FILES.contains(&ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.ct(i).kind != TokenKind::Ident || ctx.in_test(i) {
            continue;
        }
        let name = ctx.text(i);
        let flagged = match name {
            "unwrap" | "expect" => {
                i > 0
                    && ctx.is_punct(i - 1, b'.')
                    && i + 1 < ctx.code.len()
                    && ctx.is_punct(i + 1, b'(')
            }
            "panic" => i + 1 < ctx.code.len() && ctx.is_punct(i + 1, b'!'),
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                rule: "no-panic-recovery-path",
                file: ctx.path.to_string(),
                line: ctx.ct(i).line,
                message: format!(
                    "`{name}` on a fault-recovery path — recovery code must never unwind"
                ),
                hint: "return the typed error (FabricError) so the retry/degradation \
                       ladder can handle it; there is no allowlist for recovery paths"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-time-rng-in-wire
// ---------------------------------------------------------------------

/// Flags wall-clock and RNG reads in wire-layout-determining code.
pub fn rule_no_time_rng_in_wire(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !WIRE_LAYOUT_FILES.contains(&ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.ct(i).kind != TokenKind::Ident || ctx.in_test(i) {
            continue;
        }
        let name = ctx.text(i);
        let flagged = TIME_RNG_IDENTS.contains(&name)
            || (name == "rand" && i + 1 < ctx.code.len() && ctx.is_punct(i + 1, b':'));
        if flagged {
            out.push(Diagnostic {
                rule: "no-time-rng-in-wire",
                file: ctx.path.to_string(),
                line: ctx.ct(i).line,
                message: format!(
                    "`{name}` in wire-layout code — encoded bytes must be a pure \
                     function of the input block"
                ),
                hint: "move nondeterminism out of the codec/datapath; derive any \
                       needed variation from the input values or explicit config"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-eager-format-hot-path
// ---------------------------------------------------------------------

/// Flags eager string work (`format!`, `.to_string()`) and direct
/// `Instant` reads in non-test code of obs-instrumented hot-path files.
/// The observability contract is that recording an event costs a static
/// label pointer plus integers: any formatting belongs in the exporters,
/// and wall time enters the stack only through `Recorder::wall_ns` in
/// code that owns a recorder (never in codec/fabric/NIC internals).
pub fn rule_no_eager_format_hot_path(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !HOT_PATH_FILES.contains(&ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.ct(i).kind != TokenKind::Ident || ctx.in_test(i) {
            continue;
        }
        let name = ctx.text(i);
        let flagged = match name {
            "format" => i + 1 < ctx.code.len() && ctx.is_punct(i + 1, b'!'),
            "to_string" => {
                i > 0
                    && ctx.is_punct(i - 1, b'.')
                    && i + 1 < ctx.code.len()
                    && ctx.is_punct(i + 1, b'(')
            }
            "Instant" => true,
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                rule: "no-eager-format-hot-path",
                file: ctx.path.to_string(),
                line: ctx.ct(i).line,
                message: format!("eager `{name}` on an obs-instrumented hot path"),
                hint: "record a static label id plus integers into an obs::EventBuf and \
                       defer formatting to the exporters; take wall time from \
                       Recorder::wall_ns at the recorder-owning call site"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-thread-in-library
// ---------------------------------------------------------------------

/// Flags thread creation — a `thread` path ending in `spawn`, `scope` or
/// `Builder` — in non-test code of any file under `crates/`. The
/// library runs every codec, fabric and exchange on the caller's
/// thread, so bit-determinism never depends on a schedule and there is
/// no cross-thread protocol to model-check. Reading the host
/// (`available_parallelism`) is not thread creation and stays legal;
/// the benchmark package outside `crates/` is out of scope.
pub fn rule_no_thread_in_library(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.path.starts_with("crates/") {
        return;
    }
    for i in 0..ctx.code.len() {
        if !ctx.is_ident(i, "thread") || ctx.in_test(i) {
            continue;
        }
        let is_path =
            i + 3 < ctx.code.len() && ctx.is_punct(i + 1, b':') && ctx.is_punct(i + 2, b':');
        if !is_path {
            continue;
        }
        let callee = ctx.text(i + 3);
        if matches!(callee, "spawn" | "scope" | "Builder") {
            out.push(Diagnostic {
                rule: "no-thread-in-library",
                file: ctx.path.to_string(),
                line: ctx.ct(i).line,
                message: format!("`thread::{callee}` creates a thread in library code"),
                hint: "run the work on the calling thread; a cross-thread protocol \
                       needs a measured reason and a checker of its own"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: shim-facade
// ---------------------------------------------------------------------

/// Flags non-test imports of vendored shims from crates outside the
/// declared facade.
pub fn rule_shim_facade(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let Some(crate_name) = ctx
        .path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
    else {
        return;
    };
    for i in 0..ctx.code.len() {
        if ctx.ct(i).kind != TokenKind::Ident || ctx.in_test(i) {
            continue;
        }
        let name = ctx.text(i);
        let Some((_, allowed)) = SHIM_FACADE.iter().find(|(shim, _)| *shim == name) else {
            continue;
        };
        // Only path uses (`rand::…`), which covers `use rand::…` too.
        let is_path_use = i + 1 < ctx.code.len()
            && ctx.is_punct(i + 1, b':')
            && i + 2 < ctx.code.len()
            && ctx.is_punct(i + 2, b':');
        // Not a path segment of something else (`foo::rand::` is not a
        // shim root).
        let rooted = i < 2 || !ctx.is_punct(i - 1, b':');
        if is_path_use && rooted && !allowed.contains(&crate_name) {
            out.push(Diagnostic {
                rule: "shim-facade",
                file: ctx.path.to_string(),
                line: ctx.ct(i).line,
                message: format!(
                    "crate `{crate_name}` imports vendored shim `{name}` outside the \
                     declared facade"
                ),
                hint: format!(
                    "route through an existing facade crate, or extend SHIM_FACADE in \
                     crates/analyzer/src/rules.rs with (`{name}`, `{crate_name}`) and \
                     justify it in DESIGN.md"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Allowlist ratchet
// ---------------------------------------------------------------------

/// One allowlist entry: a (rule, file) budget that may only shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the budget applies to.
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// Number of grandfathered sites.
    pub max: usize,
    /// Why the sites are acceptable.
    pub justification: String,
}

/// Parses the allowlist format: `rule<ws>file<ws>count<ws>justification`
/// per line, `#` comments and blank lines ignored.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, char::is_whitespace);
        let (rule, file, count, justification) = (
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default().trim(),
        );
        let max: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{count}`", lineno + 1))?;
        if justification.is_empty() {
            return Err(format!(
                "allowlist line {}: every entry needs a justification",
                lineno + 1
            ));
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            max,
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

/// Applies the shrink-only allowlist to raw diagnostics: a (rule, file)
/// budget silences exactly `max` findings. More findings than budget →
/// all of them surface. Fewer → a ratchet diagnostic demands the entry
/// shrink. A budget with zero findings → a stale-entry diagnostic.
pub fn apply_allowlist(raw: Vec<Diagnostic>, allow: &[AllowEntry]) -> Vec<Diagnostic> {
    let mut counts: BTreeMap<(String, String), Vec<Diagnostic>> = BTreeMap::new();
    let mut passthrough = Vec::new();
    for d in raw {
        if allow.iter().any(|a| a.rule == d.rule && a.file == d.file) {
            counts
                .entry((d.rule.to_string(), d.file.clone()))
                .or_default()
                .push(d);
        } else {
            passthrough.push(d);
        }
    }
    let mut out = passthrough;
    for a in allow {
        let found = counts
            .remove(&(a.rule.clone(), a.file.clone()))
            .unwrap_or_default();
        match found.len().cmp(&a.max) {
            std::cmp::Ordering::Greater => {
                out.extend(found.into_iter().map(|mut d| {
                    d.message = format!(
                        "{} (allowlist budget {} exceeded — the list may shrink, never grow)",
                        d.message, a.max
                    );
                    d
                }));
            }
            std::cmp::Ordering::Less if !found.is_empty() || a.max > 0 => {
                out.push(Diagnostic {
                    rule: "allowlist-ratchet",
                    file: a.file.clone(),
                    line: 0,
                    message: format!(
                        "allowlist budget for `{}` is {} but only {} sites remain",
                        a.rule,
                        a.max,
                        found.len()
                    ),
                    hint: format!(
                        "shrink the entry in crates/analyzer/allowlist.txt to {} \
                         (the ratchet only tightens)",
                        found.len()
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Lints one in-memory file against every rule (kernel and call-graph
/// cross-file info restricted to this file). Unit-test entry point.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, src);
    let kernels = collect_kernels(&ctx);
    let mut out = Vec::new();
    rule_safety_comment(&ctx, &mut out);
    rule_target_feature_dispatch(&ctx, &kernels, &mut out);
    rule_no_panic_recovery_path(&ctx, &mut out);
    rule_no_time_rng_in_wire(&ctx, &mut out);
    rule_no_eager_format_hot_path(&ctx, &mut out);
    rule_no_thread_in_library(&ctx, &mut out);
    rule_shim_facade(&ctx, &mut out);
    let graph = crate::callgraph::CallGraph::build(std::slice::from_ref(&ctx));
    crate::callgraph::rule_hot_reachability(&graph, &mut out);
    out
}

/// Recursively lists `.rs` files under `crates/*/src` of `repo_root`,
/// repo-relative with unix separators, sorted for deterministic output.
pub fn workspace_rust_files(repo_root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = repo_root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src_dir = entry?.path().join("src");
        if src_dir.is_dir() {
            collect_rs(&src_dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every workspace `.rs` file into `(repo-relative path, text)`
/// pairs, sorted. Shared by [`lint_tree`] and the `--callgraph` mode.
pub fn load_workspace_sources(repo_root: &Path) -> Result<Vec<(String, String)>, String> {
    let files = workspace_rust_files(repo_root).map_err(|e| format!("walking tree: {e}"))?;
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f
            .strip_prefix(repo_root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(f).map_err(|e| format!("reading {rel}: {e}"))?;
        sources.push((rel, text));
    }
    Ok(sources)
}

/// Tokenizes every `(repo-relative path, text)` source. A file declared
/// by a `#[cfg(test)] mod name;` item, with or without `#[path]`, is
/// compiled only under test, so all of it counts as test code whether
/// or not it repeats `#[cfg(test)]` inside.
pub(crate) fn workspace_ctxs(sources: &[(String, String)]) -> Vec<FileCtx<'_>> {
    let mut ctxs: Vec<FileCtx> = sources
        .iter()
        .map(|(rel, text)| FileCtx::new(rel, text))
        .collect();
    let test_files: Vec<String> = ctxs.iter().flat_map(test_module_files).collect();
    for ctx in &mut ctxs {
        if test_files.iter().any(|f| f == ctx.path) {
            ctx.test_ranges = vec![(0, ctx.src.len())];
        }
    }
    ctxs
}

/// The candidate paths of the files that `ctx`'s out-of-line
/// `#[cfg(test)] mod` items declare: `#[path]` resolves against the
/// declaring file's directory; otherwise `name.rs` or `name/mod.rs`
/// sits beside a `lib.rs`/`main.rs`/`mod.rs` and under `stem/` of any
/// other file.
fn test_module_files(ctx: &FileCtx) -> Vec<String> {
    let (dir, file) = ctx.path.rsplit_once('/').unwrap_or(("", ctx.path));
    let mut out = Vec::new();
    for &(start, end) in &ctx.test_ranges {
        let item: Vec<usize> = (0..ctx.code.len())
            .filter(|&i| (start..end).contains(&ctx.ct(i).start))
            .collect();
        let [.., kw, name, semi] = item[..] else {
            continue;
        };
        if !ctx.is_ident(kw, "mod") || !ctx.is_punct(semi, b';') {
            continue;
        }
        let path_attr = item.windows(3).find_map(|w| {
            (ctx.is_ident(w[0], "path")
                && ctx.is_punct(w[1], b'=')
                && ctx.ct(w[2]).kind == TokenKind::Str)
                .then(|| ctx.text(w[2]).trim_matches('"'))
        });
        let name = ctx.text(name);
        let base = match file {
            "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
            other => format!("{dir}/{}", other.trim_end_matches(".rs")),
        };
        match path_attr {
            Some(p) => out.push(format!("{dir}/{p}")),
            None => out.extend([format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")]),
        }
    }
    out
}

/// Runs every rule over in-memory sources, before the allowlist.
fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let ctxs = workspace_ctxs(sources);
    // Kernel index is global: calls in one file may target another's
    // kernels (module-qualified), so dispatch checking sees them all.
    let kernels: Vec<KernelFn> = ctxs.iter().flat_map(collect_kernels).collect();
    let mut raw = Vec::new();
    for ctx in &ctxs {
        rule_safety_comment(ctx, &mut raw);
        rule_target_feature_dispatch(ctx, &kernels, &mut raw);
        rule_no_panic_recovery_path(ctx, &mut raw);
        rule_no_time_rng_in_wire(ctx, &mut raw);
        rule_no_eager_format_hot_path(ctx, &mut raw);
        rule_no_thread_in_library(ctx, &mut raw);
        rule_shim_facade(ctx, &mut raw);
    }
    // The interprocedural pass needs the whole tree at once: hot roots
    // in one crate taint callees in another.
    let graph = crate::callgraph::CallGraph::build(&ctxs);
    crate::callgraph::rule_hot_reachability(&graph, &mut raw);
    raw
}

/// Lints the whole workspace tree rooted at `repo_root`, applying the
/// allowlist at `crates/analyzer/allowlist.txt` (missing file = empty
/// list). Returns surviving diagnostics, deterministically ordered.
pub fn lint_tree(repo_root: &Path) -> Result<Vec<Diagnostic>, String> {
    let raw = lint_sources(&load_workspace_sources(repo_root)?);
    let allow_path = repo_root.join("crates/analyzer/allowlist.txt");
    let allow = if allow_path.exists() {
        let text =
            std::fs::read_to_string(&allow_path).map_err(|e| format!("reading allowlist: {e}"))?;
        parse_allowlist(&text)?
    } else {
        Vec::new()
    };
    let mut out = apply_allowlist(raw, &allow);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rules each diagnostic fired, in order.
    fn fired(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    // -- safety-comment ------------------------------------------------

    #[test]
    fn bare_unsafe_block_is_flagged_with_line() {
        let src = "fn f() {\n    unsafe { g(); }\n}\n";
        let diags = lint_source("crates/demo/src/lib.rs", src);
        assert_eq!(fired(&diags), ["safety-comment"]);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("unsafe block"));
    }

    #[test]
    fn safety_comment_above_or_trailing_satisfies_the_rule() {
        let above = "fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g(); }\n}\n";
        let trailing = "fn f() {\n    unsafe { /* SAFETY: fine */ g(); }\n}\n";
        assert!(lint_source("crates/demo/src/lib.rs", above).is_empty());
        assert!(lint_source("crates/demo/src/lib.rs", trailing).is_empty());
    }

    #[test]
    fn attributes_and_docs_may_sit_between_comment_and_site() {
        let src = "// SAFETY: caller checked the CPU\n/// Docs.\n#[inline]\npub unsafe fn k() {}\n";
        assert!(lint_source("crates/demo/src/lib.rs", src).is_empty());
        let blank_breaks = "// SAFETY: stale\n\npub unsafe fn k() {}\n";
        assert_eq!(
            fired(&lint_source("crates/demo/src/lib.rs", blank_breaks)),
            ["safety-comment"]
        );
    }

    #[test]
    fn safety_inside_string_literal_does_not_count() {
        let src = "fn f() {\n    let _s = \"// SAFETY: lies\";\n    unsafe { g(); }\n}\n";
        assert_eq!(
            fired(&lint_source("crates/demo/src/lib.rs", src)),
            ["safety-comment"]
        );
    }

    // -- target-feature-dispatch ---------------------------------------

    const KERNEL: &str = "// SAFETY: caller detects avx2\n\
                          #[target_feature(enable = \"avx2\")]\n\
                          unsafe fn k8(x: &[f32; 8]) {}\n";

    #[test]
    fn unguarded_kernel_reference_is_flagged() {
        let src = format!(
            "{KERNEL}fn call(x: &[f32; 8]) {{\n    // SAFETY: wrong — nothing was detected\n    unsafe {{ k8(x) }}\n}}\n"
        );
        let diags = lint_source("crates/demo/src/lib.rs", &src);
        assert_eq!(fired(&diags), ["target-feature-dispatch"]);
        assert!(diags[0].message.contains("k8"));
    }

    #[test]
    fn runtime_detection_guard_satisfies_dispatch() {
        let src = format!(
            "{KERNEL}fn call(x: &[f32; 8]) {{\n    if is_x86_feature_detected!(\"avx2\") {{\n        // SAFETY: detected above\n        unsafe {{ k8(x) }}\n    }}\n}}\n"
        );
        assert!(lint_source("crates/demo/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn kernel_to_kernel_call_with_feature_superset_passes() {
        let src = "// SAFETY: caller detects avx2\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn inner() {}\n\
                   // SAFETY: caller detects avx2+fma\n\
                   #[target_feature(enable = \"avx2,fma\")]\n\
                   unsafe fn outer() {\n    // SAFETY: outer enables a superset\n    unsafe { inner() }\n}\n";
        let subset_ok = lint_source("crates/demo/src/lib.rs", src);
        assert!(subset_ok.is_empty(), "{subset_ok:?}");
        // The reverse direction (narrow kernel calling a wider one) fails.
        let src = src.replace("avx2,fma", "sse2");
        assert_eq!(
            fired(&lint_source("crates/demo/src/lib.rs", &src)),
            ["target-feature-dispatch"]
        );
    }

    // -- no-panic-hot-path / no-alloc-hot-path (interprocedural) -------

    #[test]
    fn unwrap_in_a_hot_root_is_flagged_in_any_file() {
        // Hotness follows the call graph, not the file list: a root-named
        // fn is hot wherever it lives…
        let src = "pub fn decode_into(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            fired(&lint_source("crates/compress/src/frame.rs", src)),
            ["no-panic-hot-path"]
        );
        // …and the same body under a non-root name is unreachable, so clean.
        let src = "pub fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_source("crates/compress/src/frame.rs", src).is_empty());
    }

    #[test]
    fn panic_via_helper_reports_the_full_call_chain() {
        let src = "pub fn transfer_plain(n: usize) { stage(n) }\n\
                   fn stage(n: usize) { finish(n) }\n\
                   fn finish(n: usize) { if n == 0 { panic!(\"empty\"); } }\n";
        let diags = lint_source("crates/demo/src/lib.rs", src);
        assert_eq!(fired(&diags), ["no-panic-hot-path"]);
        assert!(
            diags[0]
                .message
                .contains("transfer_plain -> stage -> finish"),
            "chain missing from: {}",
            diags[0].message
        );
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn panics_in_test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn decode_into(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint_source("crates/compress/src/bitio.rs", src).is_empty());
    }

    #[test]
    fn expect_and_panic_macro_are_flagged() {
        let src = "pub fn encode_into(x: Option<u8>) -> u8 {\n    if x.is_none() { panic!(\"no\"); }\n    x.expect(\"checked\")\n}\n";
        assert_eq!(
            fired(&lint_source("crates/compress/src/bitio.rs", src)),
            ["no-panic-hot-path", "no-panic-hot-path"]
        );
    }

    #[test]
    fn expects_a_field_named_unwrap_is_not_flagged() {
        // Only `.unwrap(` call syntax counts, not arbitrary identifiers.
        let src = "pub fn transfer(unwrap: u8) -> u8 { unwrap }\n";
        assert!(lint_source("crates/compress/src/bitio.rs", src).is_empty());
    }

    #[test]
    fn allocation_reachable_from_a_hot_root_is_flagged_with_chain() {
        let src = "pub fn ring_schedule(n: usize) { stage(n) }\n\
                   fn stage(n: usize) { let _ = format!(\"{n}\"); }\n";
        let diags = lint_source("crates/demo/src/lib.rs", src);
        assert_eq!(fired(&diags), ["no-alloc-hot-path"]);
        assert!(
            diags[0].message.contains("ring_schedule -> stage"),
            "chain missing from: {}",
            diags[0].message
        );
    }

    #[test]
    fn sized_preallocation_is_not_an_alloc_sink() {
        // `Vec::with_capacity`/`vec![]` are the sanctioned setup pattern.
        let src = "pub fn decode_into(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
        assert!(lint_source("crates/compress/src/bitio.rs", src).is_empty());
    }

    #[test]
    fn membership_transition_roots_are_hot() {
        // The membership-event applier runs at the top of every training
        // iteration; a panic seeded into it must fire the hot-path rule.
        let src = "pub fn apply_membership_event(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            fired(&lint_source("crates/distrib/src/trainer.rs", src)),
            ["no-panic-hot-path"]
        );
        // The per-delivery liveness probe is a hot root too.
        let src = "pub fn down_at(n: u64) -> u64 { n.checked_mul(2).expect(\"ovf\") }\n";
        assert_eq!(
            fired(&lint_source("crates/distrib/src/membership.rs", src)),
            ["no-panic-hot-path"]
        );
    }

    #[test]
    fn snapshot_transfer_path_may_not_allocate() {
        // `transfer_snapshot` is tainted by the `transfer_` prefix rule,
        // so an allocation seeded downstream of it fires with its chain.
        let src = "pub fn transfer_snapshot(n: usize) { frame(n) }\n\
                   fn frame(n: usize) { let _ = format!(\"{n}\"); }\n";
        let diags = lint_source("crates/distrib/src/trainer.rs", src);
        assert_eq!(fired(&diags), ["no-alloc-hot-path"]);
        assert!(
            diags[0].message.contains("transfer_snapshot -> frame"),
            "chain missing from: {}",
            diags[0].message
        );
    }

    // -- no-panic-recovery-path ----------------------------------------

    #[test]
    fn panics_in_recovery_files_are_flagged_without_allowlist() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            fired(&lint_source("crates/distrib/src/faults.rs", src)),
            ["no-panic-recovery-path"]
        );
        // Same code outside the recovery set only trips the hot-path rule
        // (or nothing at all).
        assert!(lint_source("crates/distrib/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn recovery_rule_exempts_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint_source("crates/distrib/src/faults.rs", src).is_empty());
    }

    // -- no-time-rng-in-wire -------------------------------------------

    #[test]
    fn clocks_and_rng_are_flagged_in_wire_layout_files() {
        let src = "fn f() -> u64 {\n    let t = std::time::Instant::now();\n    0\n}\n";
        // packet.rs is both a wire-layout and a hot-path file, so an
        // `Instant` read trips the eager-format rule too.
        let mut rules = fired(&lint_source("crates/nicsim/src/packet.rs", src));
        rules.sort();
        assert_eq!(rules, ["no-eager-format-hot-path", "no-time-rng-in-wire"]);
        let src = "fn f() -> u64 { rand::random() }\n";
        assert_eq!(
            fired(&lint_source("crates/compress/src/inceptionn.rs", src)),
            ["no-time-rng-in-wire"]
        );
        // Same code in a non-wire file is fine.
        let src = "fn f() -> u64 {\n    let t = std::time::Instant::now();\n    0\n}\n";
        assert!(lint_source("crates/netsim/src/sim.rs", src).is_empty());
    }

    // -- no-eager-format-hot-path --------------------------------------

    #[test]
    fn eager_formatting_is_flagged_only_on_hot_path_files() {
        let src = "fn f(x: u8) -> String { format!(\"{x}\") }\n";
        assert_eq!(
            fired(&lint_source("crates/distrib/src/fabric.rs", src)),
            ["no-eager-format-hot-path"]
        );
        assert!(lint_source("crates/distrib/src/trainer.rs", src).is_empty());
        let src = "fn f(x: u8) -> String { x.to_string() }\n";
        assert_eq!(
            fired(&lint_source("crates/nicsim/src/engine.rs", src)),
            ["no-eager-format-hot-path"]
        );
    }

    #[test]
    fn instant_fires_on_hot_paths_even_outside_wire_layout_files() {
        // fabric.rs is a hot path but not a wire-layout file: only the
        // new rule covers it.
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        assert_eq!(
            fired(&lint_source("crates/distrib/src/fabric.rs", src)),
            ["no-eager-format-hot-path"]
        );
        // bitio.rs is in both lists: both clock rules fire.
        let mut rules = fired(&lint_source("crates/compress/src/bitio.rs", src));
        rules.sort();
        assert_eq!(rules, ["no-eager-format-hot-path", "no-time-rng-in-wire"]);
    }

    #[test]
    fn formatting_in_test_modules_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = format!(\"{}\", 1.to_string()); }\n}\n";
        assert!(lint_source("crates/distrib/src/fabric.rs", src).is_empty());
    }

    #[test]
    fn ident_named_format_without_bang_is_not_flagged() {
        let src = "fn f(format: u8) -> u8 { format }\n";
        assert!(lint_source("crates/distrib/src/fabric.rs", src).is_empty());
    }

    // -- no-thread-in-library ------------------------------------------

    #[test]
    fn thread_creation_is_flagged_in_any_library_file() {
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        let diags = lint_source("crates/compress/src/parallel.rs", src);
        assert_eq!(fired(&diags), ["no-thread-in-library"]);
        assert!(diags[0].message.contains("thread::scope"));
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            fired(&lint_source("crates/core/src/service.rs", src)),
            ["no-thread-in-library"]
        );
        let src = "fn f() { let _ = std::thread::Builder::new(); }\n";
        assert_eq!(
            fired(&lint_source("crates/tensor/src/ops.rs", src)),
            ["no-thread-in-library"]
        );
    }

    #[test]
    fn thread_rule_exempts_tests_host_queries_and_plain_idents() {
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_source("crates/distrib/src/pipeline.rs", test_src).is_empty());
        let src = "fn f() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        assert!(lint_source("crates/compress/src/parallel.rs", src).is_empty());
        // `thread` as an ordinary identifier (no `::spawn`/`::scope`
        // path) and other thread:: items stay legal.
        let src = "fn f(thread: u8) -> u8 { thread }\n";
        assert!(lint_source("crates/compress/src/parallel.rs", src).is_empty());
        let src = "fn f() { std::thread::yield_now(); }\n";
        assert!(lint_source("crates/compress/src/parallel.rs", src).is_empty());
        // The benchmark package is not library code.
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(lint_source("perfbench/src/main.rs", src).is_empty());
    }

    // -- shim-facade ---------------------------------------------------

    #[test]
    fn shim_import_outside_facade_is_flagged() {
        let src = "use rand::Rng;\n";
        assert_eq!(
            fired(&lint_source("crates/distrib/src/pipeline.rs", src)),
            ["shim-facade"]
        );
        assert!(lint_source("crates/tensor/src/lib.rs", src).is_empty());
    }

    #[test]
    fn shim_use_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use rand::Rng;\n}\n";
        assert!(lint_source("crates/distrib/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn files_declared_by_cfg_test_mod_items_are_test_code() {
        // A test-only file with no `#[cfg(test)]` of its own: a shim
        // import, and an allocation and a panic under a hot-root name.
        let body = "use proptest::prelude::*;\n\
                    fn decode_into(x: Option<u8>) -> Vec<u8> { let mut v = Vec::new(); v.push(x.unwrap()); v }\n";
        let tree = |lib: &str, file: &str| {
            lint_sources(&[
                ("crates/distrib/src/lib.rs".to_string(), lib.to_string()),
                (file.to_string(), body.to_string()),
            ])
        };
        let with_path = "#[cfg(test)]\n#[path = \"schedule_tests/ring.rs\"]\nmod ring;\n";
        assert!(tree(with_path, "crates/distrib/src/schedule_tests/ring.rs").is_empty());
        let plain = "#[cfg(test)]\nmod ring;\n";
        assert!(tree(plain, "crates/distrib/src/ring.rs").is_empty());
        assert!(tree(plain, "crates/distrib/src/ring/mod.rs").is_empty());
        // Declared without `#[cfg(test)]`, the same file is library code.
        let fired_rules = fired(&tree("mod ring;\n", "crates/distrib/src/ring.rs"));
        assert!(fired_rules.contains(&"shim-facade"), "{fired_rules:?}");
        assert!(
            fired_rules.contains(&"no-panic-hot-path"),
            "{fired_rules:?}"
        );
        assert!(
            fired_rules.contains(&"no-alloc-hot-path"),
            "{fired_rules:?}"
        );
    }

    // -- allowlist ratchet ---------------------------------------------

    fn diag(rule: &'static str, file: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line: 1,
            message: "m".to_string(),
            hint: "h".to_string(),
        }
    }

    #[test]
    fn allowlist_parses_and_rejects_bad_lines() {
        let good = "# comment\nno-panic-hot-path crates/a/src/b.rs 2 join only re-raises\n";
        let entries = parse_allowlist(good).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].max, 2);
        assert_eq!(entries[0].justification, "join only re-raises");
        assert!(parse_allowlist("rule file nope justification").is_err());
        assert!(
            parse_allowlist("rule file 3").is_err(),
            "missing justification"
        );
    }

    #[test]
    fn budget_exactly_met_silences_findings() {
        let allow = parse_allowlist("r crates/a.rs 2 fine").unwrap();
        let raw = vec![diag("r", "crates/a.rs"), diag("r", "crates/a.rs")];
        assert!(apply_allowlist(raw, &allow).is_empty());
    }

    #[test]
    fn budget_exceeded_surfaces_every_finding() {
        let allow = parse_allowlist("r crates/a.rs 1 fine").unwrap();
        let raw = vec![diag("r", "crates/a.rs"), diag("r", "crates/a.rs")];
        let out = apply_allowlist(raw, &allow);
        assert_eq!(out.len(), 2);
        assert!(out[0].message.contains("budget 1 exceeded"));
    }

    #[test]
    fn stale_budget_demands_shrinking() {
        let allow = parse_allowlist("r crates/a.rs 3 fine").unwrap();
        let raw = vec![diag("r", "crates/a.rs")];
        let out = apply_allowlist(raw, &allow);
        assert_eq!(fired(&out), ["allowlist-ratchet"]);
        assert!(out[0].hint.contains("shrink the entry"));
        // Unrelated findings pass straight through.
        let out = apply_allowlist(vec![diag("other", "crates/b.rs")], &allow);
        assert_eq!(out.len(), 2, "passthrough + stale ratchet");
    }
}
