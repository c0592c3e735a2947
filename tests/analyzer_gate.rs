//! Tier-1 gate for the static analyzer: the invariant linter must pass
//! on the tree as committed, must still *catch* seeded violations with
//! a `file:line` diagnostic, and the concurrency checker's smoke-sized
//! exploration must hold (production models clean, seeded-bug fixtures
//! caught). Wires the same entry points as
//! `cargo run -p analyzer -- --check` into `cargo test`.

use std::fs;
use std::path::{Path, PathBuf};

use analyzer::{conc, models, rules, run_conc, run_lint};

/// The workspace root, two levels above this test's owning crate.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/core sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn lint_passes_on_the_committed_tree() {
    let outcome = run_lint(&repo_root());
    assert!(
        outcome.passed(),
        "the tree violates its own invariants:\n{}",
        outcome.failures.join("\n")
    );
}

/// A violation seeded into a scratch tree is reported with the rule id
/// and a `file:line` location — the contract CI greps for.
#[test]
fn seeded_violations_fail_with_file_and_line() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyzer_gate_seeded");
    let src_dir = scratch.join("crates/compress/src");
    fs::create_dir_all(&src_dir).expect("scratch tree");
    // Several violation kinds in one fn: wall-clock time inside
    // wire-layout code (which is also an obs hot path, so the eager-
    // format rule fires on the same line), an uncommented unsafe block,
    // eager string formatting on an instrumented hot path, and — because
    // `decode_into` is an interprocedural hot root wherever it is
    // defined — a heap allocation and a panic on a hot path.
    fs::write(
        src_dir.join("bitio.rs"),
        "pub fn decode_into(x: Option<u8>) -> String {\n\
         \x20   let t = std::time::Instant::now();\n\
         \x20   unsafe { core::hint::unreachable_unchecked() };\n\
         \x20   let label = format!(\"t={t:?}\").to_string();\n\
         \x20   let _ = (label, x.unwrap());\n\
         \x20   String::new()\n\
         }\n",
    )
    .expect("seed file");

    // And a sixth: an unwrap seeded onto a fault-recovery path, which
    // has no allowlist escape at all.
    let faults_dir = scratch.join("crates/distrib/src");
    fs::create_dir_all(&faults_dir).expect("scratch tree");
    fs::write(
        faults_dir.join("faults.rs"),
        "pub fn redeliver(x: Option<u8>) -> u8 {\n\
         \x20   x.unwrap()\n\
         }\n",
    )
    .expect("seed file");

    // And a seventh: an RNG read seeded into the event core, which the
    // wire-layout rule now covers (a random tie-break would let two
    // replays of the same schedule disagree on wire bytes).
    let netsim_dir = scratch.join("crates/netsim/src");
    fs::create_dir_all(&netsim_dir).expect("scratch tree");
    fs::write(
        netsim_dir.join("event.rs"),
        "pub fn tie_break() -> u64 {\n\
         \x20   let _rng = thread_rng();\n\
         \x20   0\n\
         }\n",
    )
    .expect("seed file");

    // And an eighth: per-call thread creation seeded onto the pooled
    // codec hot path, which the transient-thread rule must flag as a
    // perf regression. The same file also holds the helper chain of the
    // interprocedural seed below — `stage` and `finish` are not hot by
    // name or by file; only the call graph makes them hot.
    fs::write(
        src_dir.join("parallel.rs"),
        "pub fn fan_out() {\n\
         \x20   std::thread::scope(|s| {\n\
         \x20       let _ = s;\n\
         \x20   });\n\
         }\n\
         pub fn stage(n: usize) { finish(n) }\n\
         fn finish(n: usize) {\n\
         \x20   let _scratch = [0u8; 4].to_vec();\n\
         \x20   if n == 0 { panic!(\"empty fold window\"); }\n\
         }\n",
    )
    .expect("seed file");

    // And a ninth: an RNG read seeded into the sparse wire codec. Its
    // top-k tie-breaks must derive from the shared wire seed — a
    // `thread_rng` draw would let two encoders of the same block pick
    // different transmit sets, so the wire-layout rule covers the
    // compression modules too.
    fs::write(
        src_dir.join("sparse.rs"),
        "pub fn tie_key() -> u64 {\n\
         \x20   let _rng = thread_rng();\n\
         \x20   0\n\
         }\n",
    )
    .expect("seed file");

    // The interprocedural seed: a schedule hot root in one crate whose
    // panic and allocation live two calls away in another crate. Only
    // root→sink propagation over the cross-file call graph can connect
    // them.
    fs::write(
        faults_dir.join("pipeline.rs"),
        "pub fn ring_schedule(n: usize) {\n\
         \x20   super_stage(n)\n\
         }\n\
         fn super_stage(n: usize) { crate::stage(n) }\n",
    )
    .expect("seed file");

    let diags = rules::lint_tree(&scratch).expect("lint runs on the scratch tree");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    for (rule, line, file) in [
        ("no-time-rng-in-wire", 2, "bitio.rs"),
        ("no-eager-format-hot-path", 2, "bitio.rs"),
        ("safety-comment", 3, "bitio.rs"),
        ("no-eager-format-hot-path", 4, "bitio.rs"),
        ("no-alloc-hot-path", 4, "bitio.rs"),
        ("no-panic-hot-path", 5, "bitio.rs"),
        ("no-panic-recovery-path", 2, "faults.rs"),
        ("no-time-rng-in-wire", 2, "event.rs"),
        ("no-time-rng-in-wire", 2, "sparse.rs"),
        ("no-transient-thread-hot-path", 2, "parallel.rs"),
        // The cross-file chain: both sinks sit in parallel.rs but are
        // reported hot because pipeline.rs's root reaches them.
        ("no-alloc-hot-path", 8, "parallel.rs"),
        ("no-panic-hot-path", 9, "parallel.rs"),
    ] {
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rule && d.line == line && d.file.ends_with(file)),
            "seeded `{rule}` violation at {file}:{line} not reported; got:\n{}",
            rendered.join("\n")
        );
    }
    // The interprocedural diagnostics carry the full root→sink chain.
    for rule in ["no-panic-hot-path", "no-alloc-hot-path"] {
        assert!(
            diags.iter().any(|d| d.rule == rule
                && d.file.ends_with("parallel.rs")
                && d.message
                    .contains("ring_schedule -> super_stage -> stage -> finish")),
            "`{rule}` diagnostic lost its call chain; got:\n{}",
            rendered.join("\n")
        );
    }
    // Every diagnostic renders as `file:line: [rule] …` for CI/editors.
    for (d, text) in diags.iter().zip(&rendered) {
        assert!(text.starts_with(&format!("{}:{}: [{}]", d.file, d.line, d.rule)));
    }
}

/// The allowlist is a shrink-only ratchet: raising a budget above what
/// the tree contains is itself a failure.
#[test]
fn allowlist_cannot_grow_past_the_tree() {
    let allow =
        rules::parse_allowlist("no-panic-hot-path crates/x.rs 5 pretend these are fine").unwrap();
    let out = rules::apply_allowlist(Vec::new(), &allow);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "allowlist-ratchet");
}

#[test]
fn concurrency_smoke_bound_holds() {
    let outcome = run_conc(true);
    assert!(
        outcome.passed(),
        "concurrency models regressed:\n{}",
        outcome.failures.join("\n")
    );
}

/// The checker itself must stay able to see bugs: a lost-update race,
/// an AB-BA lock inversion and a condvar lost wakeup — all seeded on
/// purpose.
#[test]
fn seeded_race_and_deadlock_are_still_caught() {
    assert!(matches!(
        models::racy_counter_model(),
        Err(conc::Violation::ModelPanic { .. })
    ));
    assert!(matches!(
        models::lock_inversion_model(),
        Err(conc::Violation::Deadlock { .. })
    ));
    assert!(matches!(
        models::pool_lost_wakeup_fixture(),
        Err(conc::Violation::Deadlock { .. })
    ));
}
