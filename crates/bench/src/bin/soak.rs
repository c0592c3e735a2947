//! Fault-injection soak: seeded long runs of the resilient gradient
//! exchange, asserting the recovery contracts end to end.
//!
//! Three phases — link faults from a deterministic [`FaultPlan`],
//! crashes from a typed [`MembershipSchedule`]:
//!
//! 1. **Recovery** — 1% frame drops + 0.1% corruption on every exchange
//!    strategy. All injected faults must be absorbed *bit-invisibly*:
//!    every iteration log and every final parameter bit must equal the
//!    clean run's, and replicas must agree exactly.
//! 2. **Worker crash** — an endpoint dies mid-run. The trainer must
//!    excise it, re-stitch the ring over the survivors, and keep the
//!    surviving replicas in agreement.
//! 3. **Aggregator crash** — the central endpoint of the
//!    worker-aggregator exchange dies; training must reroute onto the
//!    survivor ring with every worker still alive.
//!
//! Exits non-zero on any violated contract. `--smoke` shrinks the
//! iteration counts for CI; the full run soaks long enough for every
//! fault class to fire.
//!
//! ```sh
//! cargo run --release -p inceptionn-bench --bin soak -- --smoke
//! ```

use inceptionn_bench::banner;
use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::{CodecSelection, TransportKind};
use inceptionn_distrib::trainer::{DistributedTrainer, ExchangeStrategy, TrainerConfig};
use inceptionn_distrib::{FaultPlan, MembershipSchedule};
use inceptionn_dnn::data::DigitDataset;
use inceptionn_dnn::models;

/// The workers-excluded endpoint index hosting the aggregator.
const WORKERS: usize = 4;

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

fn config(strategy: ExchangeStrategy, codec: CodecSelection) -> TrainerConfig {
    TrainerConfig {
        workers: WORKERS,
        strategy,
        transport: TransportKind::Nic,
        codec,
        batch_per_worker: 8,
        ..TrainerConfig::default()
    }
}

/// Parameter bits of every replica — "bit-identical" means bits.
fn replica_bits(t: &DistributedTrainer) -> Vec<Vec<u32>> {
    (0..WORKERS)
        .map(|w| {
            t.replica(w)
                .flat_params()
                .iter()
                .map(|p| p.to_bits())
                .collect()
        })
        .collect()
}

fn recovery_phase(soak: &mut Soak, data: &DigitDataset, iters: usize, smoke: bool) {
    println!("\nphase 1: recovery under 1% drop + 0.1% corruption ({iters} iterations)");
    let plan = FaultPlan::new(2024).drop_prob(0.01).corrupt_prob(0.001);
    let strategies = [
        ("ring", ExchangeStrategy::Ring),
        ("hier", ExchangeStrategy::HierarchicalRing { group_size: 2 }),
        ("wa", ExchangeStrategy::WorkerAggregator),
    ];
    let codecs = [
        ("lossless", CodecSelection::None),
        ("eb=2^-10", CodecSelection::Scalar(ErrorBound::pow2(10))),
    ];
    let mut fired = 0u64;
    for (sname, strategy) in strategies {
        for (cname, codec) in codecs {
            let cfg = config(strategy, codec);
            let mut clean = DistributedTrainer::new(cfg.clone(), models::hdc_mlp_small, data);
            let mut faulty = DistributedTrainer::new(
                TrainerConfig {
                    faults: Some(plan.clone()),
                    ..cfg
                },
                models::hdc_mlp_small,
                data,
            );
            let lc = clean.train_iterations(iters);
            let lf = faulty.train_iterations(iters);
            let name = format!("{sname}/{cname}");
            soak.check(
                &format!("{name} trace"),
                lc == lf,
                "faulty iteration logs equal the clean run's".to_string(),
            );
            soak.check(
                &format!("{name} params"),
                replica_bits(&clean) == replica_bits(&faulty),
                "final parameters bit-identical to the clean run".to_string(),
            );
            // Every replica holds the same bits, lossy codec or not,
            // and with or without faults.
            let div = faulty.max_replica_divergence();
            let want = clean.max_replica_divergence();
            soak.check(
                &format!("{name} replicas"),
                div == 0.0 && want == 0.0,
                format!("max replica divergence {div}, clean run {want}"),
            );
            let errors = lf.iter().filter(|l| l.exchange_error.is_some()).count();
            soak.check(
                &format!("{name} errors"),
                errors == 0,
                format!("{errors} exchange errors surfaced"),
            );
            let fs = faulty.fault_stats();
            fired += fs.drops + fs.corruptions;
        }
    }
    // A soak that never injected anything proves nothing; the smoke run
    // is too short to guarantee a draw fires, so only the full run gates
    // on this.
    soak.check(
        "plan fired",
        smoke || fired > 0,
        format!("{fired} drops+corruptions injected across the phase"),
    );
}

fn worker_crash_phase(soak: &mut Soak, data: &DigitDataset, iters: usize, crash_at: u64) {
    println!("\nphase 2: worker crash at iteration {crash_at} ({iters} iterations)");
    let mut t = DistributedTrainer::new(
        TrainerConfig {
            membership: MembershipSchedule::new().crash(crash_at, 2),
            ..config(ExchangeStrategy::Ring, CodecSelection::None)
        },
        models::hdc_mlp_small,
        data,
    );
    let logs = t.train_iterations(iters);
    let excised: Vec<(usize, usize)> = logs
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.excised.map(|e| (i, e)))
        .collect();
    soak.check(
        "excision",
        excised == [(crash_at as usize, 2)],
        format!("excised events {excised:?}, want [({crash_at}, 2)]"),
    );
    soak.check(
        "liveness",
        t.alive() == [true, true, false, true],
        format!("alive map {:?}", t.alive()),
    );
    let errors = logs.iter().filter(|l| l.exchange_error.is_some()).count();
    soak.check(
        "continuity",
        errors == 0,
        format!("{errors} exchange errors after re-stitch"),
    );
    let div = t.max_replica_divergence();
    soak.check(
        "divergence",
        div == 0.0,
        format!("surviving replica divergence {div}, want 0"),
    );
    soak.check(
        "crash count",
        t.fault_stats().crashes == 1,
        format!("{} crashes recorded", t.fault_stats().crashes),
    );
}

fn aggregator_crash_phase(soak: &mut Soak, data: &DigitDataset, iters: usize, crash_at: u64) {
    println!("\nphase 3: aggregator crash at iteration {crash_at} ({iters} iterations)");
    let mut t = DistributedTrainer::new(
        TrainerConfig {
            membership: MembershipSchedule::new().crash(crash_at, WORKERS),
            ..config(ExchangeStrategy::WorkerAggregator, CodecSelection::None)
        },
        models::hdc_mlp_small,
        data,
    );
    let logs = t.train_iterations(iters);
    let excised: Vec<(usize, usize)> = logs
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.excised.map(|e| (i, e)))
        .collect();
    soak.check(
        "excision",
        excised == [(crash_at as usize, WORKERS)],
        format!("excised events {excised:?}, want [({crash_at}, {WORKERS})]"),
    );
    soak.check(
        "liveness",
        t.alive().iter().all(|&a| a),
        format!("alive map {:?} — workers all survive", t.alive()),
    );
    let errors = logs.iter().filter(|l| l.exchange_error.is_some()).count();
    soak.check(
        "continuity",
        errors == 0,
        format!("{errors} exchange errors after reroute"),
    );
    let div = t.max_replica_divergence();
    soak.check(
        "divergence",
        div == 0.0,
        format!("replica divergence {div} on the survivor ring, want 0"),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner("fault-injection soak", if smoke { "smoke" } else { "full" })
    );
    let (recovery_iters, crash_iters, crash_at) = if smoke { (8, 8, 3) } else { (40, 30, 5) };
    let data = DigitDataset::generate(160, 2024);
    let mut soak = Soak {
        failures: Vec::new(),
    };
    recovery_phase(&mut soak, &data, recovery_iters, smoke);
    worker_crash_phase(&mut soak, &data, crash_iters, crash_at);
    aggregator_crash_phase(&mut soak, &data, crash_iters, crash_at);
    if soak.failures.is_empty() {
        println!("\nsoak OK: every recovery contract held");
    } else {
        eprintln!("\nsoak FAILED:");
        for f in &soak.failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
