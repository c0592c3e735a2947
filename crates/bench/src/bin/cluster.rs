//! Multi-tenant cluster soak: concurrent training jobs with membership
//! churn on one host, asserting the service's contracts end to end.
//!
//! Admits several tenants — different strategies, priorities, and
//! elastic membership schedules (a graceful leave + rejoin, a crash +
//! revive) — runs them under the weighted-fair scheduler, and checks:
//!
//! 1. **Determinism** — running the identical cluster twice produces
//!    byte-identical tenant reports, parameter fingerprints included.
//! 2. **Reconciliation** — every tenant's obs-side wire-byte total
//!    equals its transport's [`FabricStats`] counter to the byte.
//! 3. **Churn** — each scheduled join, leave, and crash actually fired,
//!    every job completed all its iterations, and every excision was
//!    recovered.
//! 4. **Sharing** — bandwidth fractions follow the priorities, and the
//!    thin-share tenant pays more link time per wire byte.
//!
//! Exits non-zero on any violated contract. `--smoke` shrinks the
//! workload for CI (2 jobs, <1 s); the full run admits more tenants for
//! longer.
//!
//! ```sh
//! cargo run --release -p inceptionn-bench --bin cluster -- --smoke
//! ```
//!
//! [`FabricStats`]: inceptionn_distrib::FabricStats

use inceptionn::service::{ClusterService, JobSpec, TenantReport};
use inceptionn_bench::banner;
use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::CodecSelection;
use inceptionn_distrib::trainer::ExchangeStrategy;
use inceptionn_distrib::MembershipSchedule;

struct Soak {
    failures: Vec<String>,
}

impl Soak {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            println!("  PASS  {name} ({detail})");
        } else {
            println!("  FAIL  {name} ({detail})");
            self.failures.push(format!("{name}: {detail}"));
        }
    }
}

/// The admitted tenant set: every job sees membership churn.
fn jobs(smoke: bool) -> Vec<JobSpec> {
    let iters = if smoke { 6 } else { 20 };
    let samples = if smoke { 48 } else { 160 };
    let mut jobs = vec![
        JobSpec {
            name: "ring-elastic".into(),
            workers: 3,
            strategy: ExchangeStrategy::Ring,
            iterations: iters,
            priority: 3,
            batch_per_worker: 4,
            data_samples: samples,
            seed: 11,
            membership: MembershipSchedule::new().leave(2, 2).join(4, 2),
            ..JobSpec::default()
        },
        JobSpec {
            name: "switch-crashy".into(),
            workers: 3,
            strategy: ExchangeStrategy::SwitchReduce,
            iterations: iters.saturating_sub(1),
            priority: 1,
            batch_per_worker: 4,
            data_samples: samples,
            seed: 13,
            membership: MembershipSchedule::new().crash(2, 1).join(4, 1),
            ..JobSpec::default()
        },
    ];
    if !smoke {
        jobs.push(JobSpec {
            name: "tree-compressed".into(),
            workers: 4,
            strategy: ExchangeStrategy::Tree,
            codec: CodecSelection::Scalar(ErrorBound::pow2(10)),
            iterations: iters,
            priority: 2,
            batch_per_worker: 4,
            data_samples: samples,
            seed: 17,
            membership: MembershipSchedule::new().leave(3, 3).join(6, 3),
            ..JobSpec::default()
        });
    }
    jobs
}

fn run_cluster(smoke: bool) -> Vec<TenantReport> {
    let mut cluster = ClusterService::new();
    for job in jobs(smoke) {
        cluster.admit(job);
    }
    cluster.run()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "multi-tenant cluster soak",
            if smoke { "smoke" } else { "full" },
        )
    );
    let specs = jobs(smoke);
    println!(
        "{} tenants, priorities {:?}",
        specs.len(),
        specs.iter().map(|j| j.priority).collect::<Vec<_>>()
    );

    let mut soak = Soak {
        failures: Vec::new(),
    };
    let a = run_cluster(smoke);
    let b = run_cluster(smoke);

    println!(
        "\n{:<16} {:>6} {:>6} {:>12} {:>10} {:>6} {:>6} {:>7}",
        "tenant", "share", "iters", "wire B", "comm", "joins", "left", "crashes"
    );
    for r in &a {
        println!(
            "{:<16} {:>5.0}% {:>6} {:>12} {:>9.1}% {:>6} {:>6} {:>7}",
            r.name,
            r.bandwidth_fraction * 100.0,
            r.completed_iterations,
            r.wire_bytes,
            r.comm_fraction * 100.0,
            r.joins,
            r.leaves,
            r.crashes,
        );
    }
    println!();

    soak.check(
        "determinism",
        a == b,
        "replayed cluster reports byte-identical (fingerprints included)".to_string(),
    );
    for (r, spec) in a.iter().zip(&specs) {
        soak.check(
            &format!("{} reconcile", r.name),
            r.wire_bytes > 0 && r.wire_bytes == r.obs_wire_bytes,
            format!("fabric {} B vs obs {} B", r.wire_bytes, r.obs_wire_bytes),
        );
        soak.check(
            &format!("{} completion", r.name),
            r.completed_iterations == spec.iterations,
            format!(
                "{} of {} iterations",
                r.completed_iterations, spec.iterations
            ),
        );
        let scheduled_joins = spec
            .membership
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    inceptionn_distrib::MembershipEvent::Join { worker, .. }
                        if *worker < spec.workers
                )
            })
            .count();
        soak.check(
            &format!("{} churn", r.name),
            r.joins == scheduled_joins && r.recovered_steps == u64::from(r.crashes > 0),
            format!(
                "{} joins (want {}), {} recovered steps, {} crashes",
                r.joins, scheduled_joins, r.recovered_steps, r.crashes
            ),
        );
    }
    // The thin-share tenant pays more link time per wire byte.
    let cost = |r: &TenantReport| r.link_latency_ns as f64 / r.wire_bytes.max(1) as f64;
    let fat = &a[0];
    let thin = &a[1];
    soak.check(
        "sharing",
        cost(thin) > cost(fat),
        format!(
            "{:.3} ns/B at {:.0}% vs {:.3} ns/B at {:.0}%",
            cost(thin),
            thin.bandwidth_fraction * 100.0,
            cost(fat),
            fat.bandwidth_fraction * 100.0,
        ),
    );

    if soak.failures.is_empty() {
        println!("\ncluster OK: every multi-tenant contract held");
    } else {
        eprintln!("\ncluster FAILED:");
        for f in &soak.failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
