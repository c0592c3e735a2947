//! Persistent worker pool for the sharded codec hot path.
//!
//! [`ParallelCodec`](crate::ParallelCodec) used to spawn fresh OS
//! threads per call through `std::thread::scope`; at exchange rates
//! (thousands of encode/decode calls per training run) the spawn/join
//! cost dominated the codec work itself and capped parallel decode at a
//! fifth of the burst kernel's throughput. This module replaces that
//! with one process-wide pool of **parked** workers: threads are
//! created once (lazily, on first use), sleep on a condvar between
//! calls, and wake to claim shard indices from a shared counter.
//!
//! # Determinism
//!
//! The pool never influences *what* is computed, only *where*. A
//! submission is a pure function `index -> work on a disjoint,
//! index-addressed slot`: shard `i` always reads slice `i` and writes
//! slot `i`, so the bytes produced are a function of `(input, shard
//! count)` alone — identical across runs, machines, pool sizes, and
//! claim orders. This is the same argument the mini-loom concurrency
//! model checks exhaustively for the shard protocol.
//!
//! # Panic containment
//!
//! Worker panics are caught with `catch_unwind` and surfaced to the
//! submitter as a [`JobPanic`] value instead of poisoning a thread or
//! aborting the process. Encode paths re-raise (the input was
//! caller-controlled), decode paths map the panic to a typed
//! [`DecodeError`](crate::DecodeError) so a poisoned shard cannot
//! panic the recovery ladder.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// A captured panic from one submitted job.
pub struct JobPanic {
    payload: Box<dyn std::any::Any + Send + 'static>,
}

impl JobPanic {
    /// Re-raises the captured panic on the calling thread.
    pub fn resume(self) -> ! {
        panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobPanic(..)")
    }
}

/// Lifetime-erased pointer to the submitted job closure. Sent to
/// workers through the shared task slot.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (calling it from any thread is sound)
// and `run_indexed` blocks until every claimed index has completed
// before the referent goes out of scope, so the pointer never dangles
// while a worker can observe it.
unsafe impl Send for JobPtr {}

/// One in-flight submission: a job closure plus claim/completion
/// counters. At most one task is installed at a time (the submit lock
/// in [`WorkerPool`] serializes submitters).
struct Task {
    job: JobPtr,
    n_jobs: usize,
    /// Next unclaimed index.
    next: usize,
    /// Indices claimed but not yet completed, plus unclaimed ones.
    remaining: usize,
    /// First captured panic payload, if any job panicked.
    panicked: Option<Box<dyn std::any::Any + Send + 'static>>,
}

struct Shared {
    state: Mutex<Option<Task>>,
    /// Workers park here waiting for claimable indices.
    work_cv: Condvar,
    /// The submitter parks here waiting for `remaining == 0`.
    done_cv: Condvar,
}

/// Locks the task slot, recovering from (impossible in practice)
/// poisoning: jobs run under `catch_unwind`, so no panic can escape
/// while the lock is held.
fn lock(shared: &Shared) -> MutexGuard<'_, Option<Task>> {
    shared.state.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(shared: &Shared) {
    let mut guard = lock(shared);
    loop {
        let claim = match guard.as_mut() {
            Some(t) if t.next < t.n_jobs => {
                let i = t.next;
                t.next += 1;
                Some((t.job, i))
            }
            _ => None,
        };
        match claim {
            Some((job, i)) => {
                drop(guard);
                // SAFETY: `run_indexed` keeps the closure alive until
                // `remaining` (which still counts this claim) reaches
                // zero, and the closure is `Sync`.
                let f = unsafe { &*job.0 };
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
                guard = lock(shared);
                if let Some(t) = guard.as_mut() {
                    t.remaining -= 1;
                    if let Err(payload) = outcome {
                        t.panicked.get_or_insert(payload);
                    }
                    if t.remaining == 0 {
                        shared.done_cv.notify_all();
                    }
                }
            }
            None => {
                guard = shared
                    .work_cv
                    .wait(guard)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// A persistent pool of parked worker threads executing index-addressed
/// jobs. See the module docs for the determinism and panic-containment
/// arguments.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes submitters; a busy pool makes later submitters run
    /// their jobs inline instead of queueing (identical results either
    /// way, by the determinism argument).
    submit: Mutex<()>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` parked threads. Zero workers is
    /// valid: every submission then runs inline on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        for i in 0..workers {
            let s = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("inceptionn-codec-{i}"))
                .spawn(move || worker_loop(&s));
            // A host refusing threads degrades to inline execution on
            // whatever workers did start; results are unaffected.
            drop(spawned);
        }
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            workers,
        }
    }

    /// Number of parked worker threads (the caller participates too, so
    /// effective parallelism is `workers() + 1`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(0..n_jobs)` across the pool, with the calling thread
    /// participating. Blocks until every index has completed. Each
    /// index must address its own disjoint output (the codec's shard
    /// slots), which is what makes results schedule-independent.
    ///
    /// # Errors
    ///
    /// Returns [`JobPanic`] if any job panicked; the remaining jobs
    /// still run to completion first.
    pub fn run_indexed(&self, n_jobs: usize, job: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
        if n_jobs == 0 {
            return Ok(());
        }
        if self.workers > 0 && n_jobs > 1 {
            // A concurrent submission already owns the pool: run inline
            // rather than queue behind it (e.g. two fabrics on
            // different threads encoding through the global pool).
            if let Ok(_guard) = self.submit.try_lock() {
                return self.run_pooled(n_jobs, job);
            }
        }
        Self::run_inline(n_jobs, job)
    }

    fn run_inline(n_jobs: usize, job: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
        let mut first_panic = None;
        for i in 0..n_jobs {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                first_panic.get_or_insert(payload);
            }
        }
        match first_panic {
            Some(payload) => Err(JobPanic { payload }),
            None => Ok(()),
        }
    }

    /// The pooled path: install the task, help drain indices, then park
    /// until the workers finish the rest.
    fn run_pooled(&self, n_jobs: usize, job: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
        let shared = &*self.shared;
        // SAFETY: lifetime erasure only — the referent outlives every
        // use because this function does not return until `remaining`
        // hits zero, i.e. until no worker can still hold the pointer.
        let erased: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job)
        };
        let mut guard = lock(shared);
        *guard = Some(Task {
            job: JobPtr(erased),
            n_jobs,
            next: 0,
            remaining: n_jobs,
            panicked: None,
        });
        shared.work_cv.notify_all();
        // The submitter claims indices alongside the workers.
        loop {
            let claim = match guard.as_mut() {
                Some(t) if t.next < t.n_jobs => {
                    let i = t.next;
                    t.next += 1;
                    Some(i)
                }
                _ => None,
            };
            let Some(i) = claim else { break };
            drop(guard);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(i)));
            guard = lock(shared);
            if let Some(t) = guard.as_mut() {
                t.remaining -= 1;
                if let Err(payload) = outcome {
                    t.panicked.get_or_insert(payload);
                }
            }
        }
        while guard.as_ref().is_some_and(|t| t.remaining > 0) {
            guard = shared
                .done_cv
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
        let finished = guard.take();
        drop(guard);
        match finished.and_then(|t| t.panicked) {
            Some(payload) => Err(JobPanic { payload }),
            None => Ok(()),
        }
    }
}

/// The process-wide codec pool, created lazily with one worker per
/// spare host core (`available_parallelism - 1`: the submitting thread
/// participates, so total parallelism equals the host's).
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(host_parallelism().saturating_sub(1)))
}

/// The host's available parallelism (1 if it cannot be queried).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.run_indexed(5, &|_i| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        for n in [1usize, 2, 3, 7, 64] {
            let slots: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run_indexed(n, &|i| {
                slots[i].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(s.load(Ordering::SeqCst), 1, "index {i} of {n}");
            }
        }
    }

    #[test]
    fn indexed_outputs_are_schedule_independent() {
        // The determinism contract: index-addressed slots produce the
        // same bytes whatever the claim order. Run the same job many
        // times and across pool sizes.
        let reference: Vec<u64> = (0..32u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        for workers in [0usize, 1, 4] {
            let pool = WorkerPool::new(workers);
            for _ in 0..10 {
                let slots: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
                pool.run_indexed(32, &|i| {
                    slots[i].store(
                        (i as u64).wrapping_mul(0x9e3779b9) as usize,
                        Ordering::SeqCst,
                    );
                })
                .unwrap();
                let got: Vec<u64> = slots
                    .iter()
                    .map(|s| s.load(Ordering::SeqCst) as u64)
                    .collect();
                assert_eq!(got, reference, "workers={workers}");
            }
        }
    }

    #[test]
    fn a_panicked_job_is_captured_not_propagated() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let err = pool
            .run_indexed(8, &|i| {
                if i == 3 {
                    panic!("shard 3 poisoned");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        // The other jobs still ran; the pool stays usable.
        assert_eq!(done.load(Ordering::SeqCst), 7);
        drop(err);
        let hits = AtomicUsize::new(0);
        pool.run_indexed(4, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn resume_reraises_the_original_payload() {
        let pool = WorkerPool::new(1);
        let err = pool
            .run_indexed(2, &|i| {
                if i == 1 {
                    panic!("boom");
                }
            })
            .unwrap_err();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| err.resume())).unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn concurrent_submitters_fall_back_inline_without_deadlock() {
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pool.run_indexed(6, &|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 20 * 6);
    }

    #[test]
    fn global_pool_matches_host_parallelism() {
        let pool = global();
        assert_eq!(pool.workers(), host_parallelism() - 1);
        let hits = AtomicUsize::new(0);
        pool.run_indexed(3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }
}
