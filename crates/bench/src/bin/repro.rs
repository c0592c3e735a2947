//! Regenerates the paper's tables and figures and the extension studies,
//! one per entry of `inceptionn::experiments::artifacts::ARTIFACTS`.
//!
//! ```sh
//! # print the named artifacts
//! cargo run --release -p inceptionn-bench --bin repro -- fig12 table2
//! # also write what they simulate as a chrome://tracing JSON
//! cargo run --release -p inceptionn-bench --bin repro -- --trace fig12.json fig12
//! # write every artifact to results/<name>.txt
//! cargo run --release -p inceptionn-bench --bin repro -- --all
//! ```
//!
//! `INCEPTIONN_RESULTS_DIR` overrides `--all`'s `results` directory and
//! `INCEPTIONN_QUICK` (any value) selects quick fidelity. An unknown
//! name, or no argument, lists the registry and exits 2. Fig. 12 and
//! Table II are the artifacts that record into a trace, one artifact
//! per trace: load it in chrome://tracing or run
//! `cargo run -p obs --bin trace-report -- <path>`.

use std::path::PathBuf;
use std::process::ExitCode;

use inceptionn::experiments::artifacts::{Artifact, ARTIFACTS};
use inceptionn_bench::{banner, fidelity_from_env};

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: repro NAME... | repro --all | repro --trace PATH NAME\nartifacts:"
    );
    for a in ARTIFACTS {
        eprintln!("  {:<14}{} ({})", a.name, a.title, a.section);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut trace: Option<PathBuf> = None;
    let mut all = false;
    let mut chosen: Vec<&Artifact> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(path) => trace = Some(PathBuf::from(path)),
                None => return usage("--trace requires a path argument"),
            },
            "--all" => all = true,
            name => match ARTIFACTS.iter().find(|a| a.name == name) {
                Some(a) => chosen.push(a),
                None => return usage(&format!("unknown artifact `{name}`")),
            },
        }
    }
    // Exactly one of `--all` and a list of names.
    if all != chosen.is_empty() {
        return usage("name the artifacts to print, or pass --all alone");
    }
    // Artifacts reuse track numbers, so a trace holds one artifact.
    if trace.is_some() && chosen.len() != 1 {
        return usage("--trace takes exactly one artifact name");
    }

    let fidelity = fidelity_from_env();
    let recorder = if trace.is_some() {
        obs::Recorder::on()
    } else {
        obs::Recorder::off()
    };
    let text = |a: &Artifact| banner(a.title, a.section) + &a.render(fidelity, &recorder);
    if all {
        let dir = std::env::var_os("INCEPTIONN_RESULTS_DIR")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from);
        std::fs::create_dir_all(&dir).expect("create results directory");
        for a in ARTIFACTS {
            print!("{:<14}", a.name);
            let path = dir.join(format!("{}.txt", a.name));
            std::fs::write(&path, text(a)).expect("write artifact");
            println!("-> {}", path.display());
        }
        let n = ARTIFACTS.len();
        println!("\nall {n} artifacts regenerated into {}", dir.display());
    } else {
        for a in chosen {
            print!("{}", text(a));
        }
    }

    if let Some(path) = trace {
        let recording = recorder.finish();
        if let Err(e) = recording.write_chrome_trace(&path) {
            eprintln!("failed to write trace {}: {e}", path.display());
            return ExitCode::from(2);
        }
        let events = recording.len();
        println!(
            "\nwrote {} ({events} events)\n{}",
            path.display(),
            recording.summary()
        );
    }
    ExitCode::SUCCESS
}
