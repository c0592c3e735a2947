//! Concurrency models of the repo's hand-rolled threading protocols
//! (the codec's shard fan-out and its worker pool — the only code in
//! the workspace that shares state between threads; `distrib`'s
//! pipeline is one thread), plus the intentionally-broken fixtures the
//! checker must catch.
//!
//! The models run the *real* production kernels — `BurstCodec`
//! encode/decode from `inceptionn-compress`, `block_range` from
//! `inceptionn-distrib` — under the mini-loom's instrumented
//! primitives, so what gets explored is the actual sharding
//! protocol logic with the actual codec math inside it. What the
//! checker proves within its preemption bound:
//!
//! - [`parallel_encode_model`] / [`parallel_decode_model`]: the
//!   ParallelCodec shard protocol (fan out disjoint shards, collect
//!   results through a shared table, assemble in shard order) never
//!   deadlocks and yields byte-identical frames on every schedule;
//! - [`pool_handshake_model`] / [`pool_panic_propagation_model`]: the
//!   `compress::pool` park/claim/notify handshake loses no wakeup and
//!   places shards (and a captured job panic) identically on every
//!   schedule;
//! - [`racy_counter_model`], [`lock_inversion_model`] and
//!   [`pool_lost_wakeup_fixture`]: seeded-bug fixtures — a lost-update
//!   race, an AB-BA deadlock and a lost wakeup — that the checker MUST
//!   flag; the gate test fails if it ever stops catching them.

use std::sync::Arc;

use inceptionn_compress::{BurstCodec, ErrorBound};
use inceptionn_distrib::ring::block_range;

use crate::conc::{Explorer, JoinHandle, RaceCell, Report, SimCondvar, SimMutex, Violation};

/// Deterministic pseudo-gradient: a fixed mix of zeros, small and large
/// magnitudes, with no RNG (the checker forbids wall-clock/RNG in
/// models just as the linter forbids it in wire code).
pub fn synthetic_values(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761);
            match h % 4 {
                0 => 0.0,
                1 => ((h >> 8) % 1000) as f32 * 1e-4,
                2 => -(((h >> 8) % 1000) as f32) * 1e-2,
                _ => ((h >> 8) % 1000) as f32,
            }
        })
        .collect()
}

/// Splits `len` values into `shards` contiguous ranges the same way for
/// every schedule (mirrors `ParallelCodec::shard_ranges`' burst-aligned
/// split in miniature).
fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    (0..shards).map(|k| block_range(len, shards, k)).collect()
}

/// ParallelCodec encode protocol: each worker compresses a disjoint
/// shard with the real [`BurstCodec`] and publishes into a shared slot
/// table; the root assembles the self-describing frame in shard order.
/// Output bytes must not depend on worker completion order.
pub fn parallel_encode_model(shards: usize, values_per_shard: usize) -> Result<Report, Violation> {
    let values = Arc::new(synthetic_values(shards * values_per_shard));
    Explorer::default().explore(move |sim| {
        let codec = Arc::new(BurstCodec::new(ErrorBound::pow2(8)));
        let slots: Arc<SimMutex<Vec<Option<Vec<u8>>>>> =
            Arc::new(SimMutex::new(sim, vec![None; shards]));
        let ranges = shard_ranges(values.len(), shards);
        let handles: Vec<JoinHandle> = ranges
            .iter()
            .cloned()
            .enumerate()
            .map(|(k, range)| {
                let (codec, slots, values) =
                    (Arc::clone(&codec), Arc::clone(&slots), Arc::clone(&values));
                sim.spawn(move || {
                    let stream = codec.compress(&values[range]);
                    slots.lock()[k] = Some(stream.bytes);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        // Frame assembly: shard order, length-prefixed — like ShardFrame.
        let table = slots.lock();
        let mut frame = Vec::new();
        for slot in table.iter() {
            let bytes = slot.as_ref().expect("every shard published");
            frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            frame.extend_from_slice(bytes);
        }
        frame
    })
}

/// ParallelCodec decode protocol: shards (pre-encoded outside the
/// exploration, so they are schedule-independent inputs) are decoded
/// concurrently and stitched in shard order.
pub fn parallel_decode_model(shards: usize, values_per_shard: usize) -> Result<Report, Violation> {
    let codec = BurstCodec::new(ErrorBound::pow2(8));
    let values = synthetic_values(shards * values_per_shard);
    let encoded: Arc<Vec<(Vec<u8>, usize)>> = Arc::new(
        shard_ranges(values.len(), shards)
            .into_iter()
            .map(|r| {
                let stream = codec.compress(&values[r.clone()]);
                (stream.bytes, r.len())
            })
            .collect(),
    );
    Explorer::default().explore(move |sim| {
        let codec = Arc::new(BurstCodec::new(ErrorBound::pow2(8)));
        let slots: Arc<SimMutex<Vec<Option<Vec<f32>>>>> =
            Arc::new(SimMutex::new(sim, vec![None; shards]));
        let handles: Vec<JoinHandle> = (0..shards)
            .map(|k| {
                let (codec, slots, encoded) =
                    (Arc::clone(&codec), Arc::clone(&slots), Arc::clone(&encoded));
                sim.spawn(move || {
                    let (bytes, count) = &encoded[k];
                    let mut out = vec![0f32; *count];
                    codec
                        .decompress_into(bytes, *count, &mut out)
                        .expect("shard decodes");
                    slots.lock()[k] = Some(out);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let table = slots.lock();
        table
            .iter()
            .flat_map(|s| s.as_ref().expect("every shard decoded"))
            .flat_map(|v| v.to_le_bytes())
            .collect()
    })
}

/// Seeded-bug fixture: two workers perform a non-atomic
/// read-modify-write on a shared [`RaceCell`]. Some schedule loses an
/// update; the checker must report the failed assertion.
pub fn racy_counter_model() -> Result<Report, Violation> {
    Explorer::default().explore(|sim| {
        let counter = Arc::new(RaceCell::new(sim, 0u32));
        let handles: Vec<JoinHandle> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                sim.spawn(move || {
                    let v = counter.get();
                    counter.set(v + 1);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.get(), 2, "racy counter lost an update");
        Vec::new()
    })
}

/// Seeded-bug fixture: classic AB-BA lock inversion. Some schedule
/// deadlocks; the checker must report it.
pub fn lock_inversion_model() -> Result<Report, Violation> {
    Explorer::default().explore(|sim| {
        let a = Arc::new(SimMutex::new(sim, ()));
        let b = Arc::new(SimMutex::new(sim, ()));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = sim.spawn(move || {
            let _ga = a1.lock();
            let _gb = b1.lock();
        });
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t2 = sim.spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        });
        t1.join();
        t2.join();
        Vec::new()
    })
}

/// Shared state of the miniature `compress::pool` model: the installed
/// task's claim cursor, the completion count, the first recorded job
/// panic (the real pool's `Task::panicked` slot), and the shutdown
/// flag the model adds so exploration terminates (real workers park
/// forever between tasks).
struct PoolTask {
    next: usize,
    remaining: usize,
    jobs: usize,
    installed: bool,
    shutdown: bool,
    panicked: Option<&'static str>,
}

/// The `compress::pool` worker park/unpark handshake, in miniature but
/// with the real protocol shape: workers park on a work condvar while
/// no task is installed, claim job indices from a shared cursor under
/// the state mutex, run the job with the lock dropped, write an
/// index-addressed slot, and signal a done condvar when the last job
/// completes; the submitter installs the task, notifies, and waits on
/// the done condvar. Clean on every schedule = no lost wakeup; byte-
/// identical output = shard placement is a function of the index, not
/// the claim order. `poison_job` injects the real pool's `JobPanic`
/// capture: that job records itself in the `panicked` slot instead of
/// producing output, and the submitter surfaces the message after the
/// barrier — completion of the *other* jobs must not depend on it.
fn pool_model(workers: usize, jobs: usize, poison_job: Option<usize>) -> Result<Report, Violation> {
    let explorer = Explorer {
        // Two condvars multiply scheduling points; one forced preemption
        // already interleaves park/notify every way that matters.
        max_preemptions: 1,
        ..Explorer::default()
    };
    explorer.explore(move |sim| {
        let state = Arc::new(SimMutex::new(
            sim,
            PoolTask {
                next: 0,
                remaining: jobs,
                jobs,
                installed: false,
                shutdown: false,
                panicked: None,
            },
        ));
        let work_cv = Arc::new(SimCondvar::new(sim));
        let done_cv = Arc::new(SimCondvar::new(sim));
        let slots: Arc<SimMutex<Vec<u8>>> = Arc::new(SimMutex::new(sim, vec![0; jobs]));
        let inputs = Arc::new(synthetic_values(jobs * 8));

        let handles: Vec<JoinHandle> = (0..workers)
            .map(|_| {
                let (state, work_cv, done_cv) = (
                    Arc::clone(&state),
                    Arc::clone(&work_cv),
                    Arc::clone(&done_cv),
                );
                let (slots, inputs) = (Arc::clone(&slots), Arc::clone(&inputs));
                sim.spawn(move || loop {
                    let i = {
                        let mut g = state.lock();
                        loop {
                            if g.shutdown {
                                return;
                            }
                            if g.installed && g.next < g.jobs {
                                break;
                            }
                            g = work_cv.wait(g);
                        }
                        let i = g.next;
                        g.next += 1;
                        i
                    };
                    // Job body runs with the state lock dropped, like the
                    // real pool: fold the job's input block to one byte.
                    let byte = if poison_job == Some(i) {
                        None
                    } else {
                        let block = &inputs[i * 8..(i + 1) * 8];
                        Some(block.iter().fold(0u8, |acc, v| {
                            acc.wrapping_mul(31).wrapping_add(v.to_bits() as u8)
                        }))
                    };
                    match byte {
                        Some(b) => slots.lock()[i] = b,
                        None => {
                            // The real worker records the first panic via
                            // get_or_insert and still decrements `remaining`.
                            state.lock().panicked.get_or_insert("shard poisoned");
                        }
                    }
                    let mut g = state.lock();
                    g.remaining -= 1;
                    if g.remaining == 0 {
                        drop(g);
                        done_cv.notify_all();
                    }
                })
            })
            .collect();

        // Submitter: install the task, wake the parked workers, wait for
        // the barrier, then shut the pool down.
        {
            let mut g = state.lock();
            g.installed = true;
        }
        work_cv.notify_all();
        {
            let mut g = state.lock();
            while g.remaining > 0 {
                g = done_cv.wait(g);
            }
            g.shutdown = true;
        }
        work_cv.notify_all();
        for h in handles {
            h.join();
        }

        // Output: the slot bytes, plus the propagated panic (if any) the
        // way `JobPanic::resume` would re-surface it to the submitter.
        let mut out = slots.lock().clone();
        if let Some(msg) = state.lock().panicked {
            out.push(0xEE);
            out.extend_from_slice(msg.as_bytes());
        }
        out
    })
}

/// Clean pool handshake: no lost wakeup (deadlock-free on every
/// schedule) and deterministic, index-addressed shard placement.
pub fn pool_handshake_model(workers: usize, jobs: usize) -> Result<Report, Violation> {
    pool_model(workers, jobs, None)
}

/// Pool panic propagation: job 1 "panics"; every other job still
/// completes and the recorded panic surfaces identically on every
/// schedule (the real pool's `JobPanic::resume` contract).
pub fn pool_panic_propagation_model() -> Result<Report, Violation> {
    pool_model(2, 3, Some(1))
}

/// Seeded-bug fixture: a worker parks with the broken release-yield-
/// park sequence ([`SimCondvar::wait_racy`]); the submitter's only
/// notification can land in the window, after which nobody ever wakes
/// the worker. The checker must report the deadlock.
pub fn pool_lost_wakeup_fixture() -> Result<Report, Violation> {
    Explorer::default().explore(|sim| {
        let installed = Arc::new(SimMutex::new(sim, false));
        let work_cv = Arc::new(SimCondvar::new(sim));
        let (st, cv) = (Arc::clone(&installed), Arc::clone(&work_cv));
        let worker = sim.spawn(move || {
            let mut g = st.lock();
            while !*g {
                g = cv.wait_racy(g); // release, yield, park: the bug
            }
        });
        {
            let mut g = installed.lock();
            *g = true;
        }
        work_cv.notify_all();
        worker.join();
        Vec::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_encode_is_deadlock_free_and_deterministic() {
        let report = parallel_encode_model(2, 24).expect("encode protocol is clean");
        assert!(report.schedules > 1, "exploration actually branched");
        assert!(!report.output.is_empty());
    }

    #[test]
    fn parallel_decode_is_deadlock_free_and_deterministic() {
        let report = parallel_decode_model(2, 24).expect("decode protocol is clean");
        assert!(report.schedules > 1);
        // Output is the stitched f32 bytes: 2 shards × 24 values × 4 bytes.
        assert_eq!(report.output.len(), 2 * 24 * 4);
    }

    #[test]
    fn racy_fixture_is_caught() {
        let err = racy_counter_model().expect_err("the race must be found");
        match err {
            Violation::ModelPanic { message, .. } => {
                assert!(message.contains("lost an update"), "message: {message}")
            }
            other => panic!("expected ModelPanic, got {other}"),
        }
    }

    #[test]
    fn deadlock_fixture_is_caught() {
        let err = lock_inversion_model().expect_err("the inversion must deadlock");
        assert!(matches!(err, Violation::Deadlock { .. }), "got {err}");
    }

    #[test]
    fn pool_handshake_is_clean_and_placement_is_deterministic() {
        let report = pool_handshake_model(2, 3).expect("park/claim handshake is clean");
        assert!(report.schedules > 1, "exploration actually branched");
        assert_eq!(report.output.len(), 3, "one byte per index-addressed slot");
    }

    #[test]
    fn pool_panic_propagates_identically_on_every_schedule() {
        let report = pool_panic_propagation_model().expect("panic capture is schedule-independent");
        // Slots for jobs 0 and 2, a zeroed slot for the poisoned job,
        // then the marker and message — identical on every schedule.
        assert_eq!(report.output[3], 0xEE);
        assert!(report.output.ends_with(b"shard poisoned"));
    }

    #[test]
    fn pool_lost_wakeup_fixture_is_caught() {
        let err = pool_lost_wakeup_fixture().expect_err("the lost wakeup must be found");
        assert!(matches!(err, Violation::Deadlock { .. }), "got {err}");
    }
}
