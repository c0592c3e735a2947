//! A miniature deterministic concurrency model-checker (a "mini-loom").
//!
//! Real OS threads run the model, but a lockstep scheduler lets exactly
//! one *virtual* thread make progress at a time: every instrumented
//! operation ([`SimMutex::lock`], [`SimCondvar::wait`], [`RaceCell`]
//! reads/writes, [`Sim::spawn`], [`JoinHandle::join`]) is a
//! scheduling point where the checker picks which thread runs next. A
//! depth-first search over those decisions — bounded by a preemption
//! budget, loom/CHESS-style — re-executes the model once per distinct
//! schedule, so a model that is deterministic *given* a schedule is
//! explored exhaustively within the bound.
//!
//! The checker reports:
//! - **deadlock**: every live thread is blocked;
//! - **model panic**: an assertion inside the model failed on some
//!   schedule (this is how the racy fixture is caught);
//! - **nondeterministic output**: the model's result bytes differ
//!   between two schedules — the INCEPTIONN exactness claim is exactly
//!   "this never happens" for the codec's shard and pool protocols.
//!
//! Bounds: `max_preemptions` caps forced context switches per schedule
//! (unforced switches — the running thread blocked or finished — are
//! free), `max_schedules` and `max_steps` are safety valves that turn
//! runaway exploration into an explicit [`Violation`] instead of a hang.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    /// Virtual-thread id of the current OS thread, set by the spawn
    /// wrapper before the model closure runs.
    static CURRENT_VTHREAD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Panic payload used to unwind parked threads after a violation; the
/// spawn wrapper recognizes and swallows it.
struct SimAbort;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(usize),
    Finished,
}

/// One scheduling decision: which candidates were runnable, which ran.
#[derive(Debug, Clone)]
struct Decision {
    chosen: usize,
    candidates: Vec<usize>,
}

/// A property violation found on some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// All live threads blocked; the trace is the schedule that got there.
    Deadlock {
        /// Virtual-thread ids stuck at a blocking operation.
        blocked: Vec<usize>,
        /// The schedule (sequence of chosen thread ids) reproducing it.
        trace: Vec<usize>,
    },
    /// The model panicked (assertion failure, index error, …).
    ModelPanic {
        /// The panic payload, stringified.
        message: String,
        /// The schedule reproducing it.
        trace: Vec<usize>,
    },
    /// Two schedules produced different result bytes.
    NondeterministicOutput {
        /// Output of the first schedule explored.
        first: Vec<u8>,
        /// The differing output.
        differing: Vec<u8>,
        /// The schedule that produced `differing`.
        trace: Vec<usize>,
    },
    /// A single run exceeded `max_steps` scheduling points.
    StepLimit {
        /// The configured step bound.
        steps: usize,
    },
    /// Exploration exceeded `max_schedules` before exhausting the bound.
    ScheduleLimit {
        /// The configured schedule bound.
        schedules: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { blocked, trace } => write!(
                f,
                "deadlock: threads {blocked:?} all blocked (schedule {trace:?})"
            ),
            Violation::ModelPanic { message, trace } => {
                write!(f, "model panicked: {message} (schedule {trace:?})")
            }
            Violation::NondeterministicOutput { trace, .. } => write!(
                f,
                "nondeterministic output: result bytes differ on schedule {trace:?}"
            ),
            Violation::StepLimit { steps } => {
                write!(f, "run exceeded {steps} scheduling points")
            }
            Violation::ScheduleLimit { schedules } => {
                write!(f, "exploration exceeded {schedules} schedules")
            }
        }
    }
}

/// Successful exploration summary.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct schedules executed.
    pub schedules: usize,
    /// Scheduling points across all runs.
    pub total_steps: usize,
    /// The (schedule-independent) model output.
    pub output: Vec<u8>,
}

struct Inner {
    status: Vec<Status>,
    active: usize,
    /// Prescribed choices for this run (the DFS prefix).
    schedule: Vec<usize>,
    decisions: Vec<Decision>,
    preemptions: usize,
    max_preemptions: usize,
    steps: usize,
    max_steps: usize,
    violation: Option<Violation>,
    poisoned: bool,
    finished: usize,
    total: usize,
    next_resource: usize,
    output: Option<Vec<u8>>,
}

impl Inner {
    fn trace(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.status.len())
            .filter(|&t| self.status[t] == Status::Runnable)
            .collect()
    }
}

/// The per-run simulation world. Models receive an `Arc<Sim>` and build
/// their primitives from it.
pub struct Sim {
    inner: Mutex<Inner>,
    cv: Condvar,
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim").finish_non_exhaustive()
    }
}

impl Sim {
    fn new(schedule: Vec<usize>, max_preemptions: usize, max_steps: usize) -> Arc<Self> {
        Arc::new(Sim {
            inner: Mutex::new(Inner {
                status: Vec::new(),
                active: 0,
                schedule,
                decisions: Vec::new(),
                preemptions: 0,
                max_preemptions,
                steps: 0,
                max_steps,
                violation: None,
                poisoned: false,
                finished: 0,
                total: 0,
                next_resource: 0,
                output: None,
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        })
    }

    fn me(&self) -> usize {
        CURRENT_VTHREAD.with(|c| c.get())
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn fresh_resource(&self) -> usize {
        let mut inner = self.lock_inner();
        inner.next_resource += 1;
        inner.next_resource
    }

    /// Picks the next thread to run. `me_runnable` says whether the
    /// calling thread may continue. Returns without waiting; the caller
    /// then waits for its turn (or aborts).
    fn choose(&self, inner: &mut Inner, me: usize, me_runnable: bool) {
        if inner.poisoned {
            // Unwind mode: hand the token to any runnable thread so the
            // teardown drains; no decisions are recorded.
            if let Some(&next) = inner.runnable().first() {
                inner.active = next;
                self.cv.notify_all();
            }
            return;
        }
        inner.steps += 1;
        if inner.steps > inner.max_steps {
            self.poison(
                inner,
                Violation::StepLimit {
                    steps: inner.max_steps,
                },
            );
            return;
        }
        let runnable = inner.runnable();
        if runnable.is_empty() {
            let blocked: Vec<usize> = (0..inner.status.len())
                .filter(|&t| matches!(inner.status[t], Status::Blocked(_)))
                .collect();
            if blocked.is_empty() {
                // Everyone finished; controller is woken by finish().
                return;
            }
            let trace = inner.trace();
            self.poison(inner, Violation::Deadlock { blocked, trace });
            return;
        }
        // Candidate order: current thread first (run-to-completion is
        // the DFS trunk), then the rest ascending. Once the preemption
        // budget is spent, a runnable current thread is the only choice.
        // Forced switches (the current thread blocked or finished) are
        // deterministic — CHESS-style, only *preemptions* branch the
        // DFS; this is what keeps exploration polynomial in the number
        // of scheduling points instead of exponential.
        let mut candidates = Vec::with_capacity(runnable.len());
        if me_runnable && runnable.contains(&me) {
            if inner.preemptions >= inner.max_preemptions {
                candidates.push(me);
            } else {
                candidates.push(me);
                candidates.extend(runnable.iter().copied().filter(|&t| t != me));
            }
        } else {
            candidates.push(runnable[0]);
        }
        let step_idx = inner.decisions.len();
        let chosen = match inner.schedule.get(step_idx) {
            Some(&prescribed) if candidates.contains(&prescribed) => prescribed,
            Some(_) => {
                // A replay divergence means the model is nondeterministic
                // at the structural level (different ops per schedule) —
                // surface it rather than exploring garbage.
                let trace = inner.trace();
                self.poison(
                    inner,
                    Violation::ModelPanic {
                        message: "schedule replay diverged: model structure is \
                                  schedule-dependent"
                            .to_string(),
                        trace,
                    },
                );
                return;
            }
            None => candidates[0],
        };
        if me_runnable && chosen != me {
            inner.preemptions += 1;
        }
        inner.decisions.push(Decision { chosen, candidates });
        inner.active = chosen;
        self.cv.notify_all();
    }

    fn poison(&self, inner: &mut Inner, v: Violation) {
        if inner.violation.is_none() {
            inner.violation = Some(v);
        }
        inner.poisoned = true;
        // Wake everything; parked threads see `poisoned` and unwind.
        for s in inner.status.iter_mut() {
            if matches!(s, Status::Blocked(_)) {
                *s = Status::Runnable;
            }
        }
        if let Some(&next) = inner.runnable().first() {
            inner.active = next;
        }
        self.cv.notify_all();
    }

    /// Parks the calling thread until it is scheduled again. Panics with
    /// [`SimAbort`] when the run has been poisoned.
    fn wait_for_turn(&self, me: usize) {
        let mut inner = self.lock_inner();
        loop {
            if inner.poisoned && inner.status[me] != Status::Finished {
                inner.status[me] = Status::Runnable;
                drop(inner);
                panic::panic_any(SimAbort);
            }
            if inner.active == me && inner.status[me] == Status::Runnable {
                return;
            }
            inner = match self.cv.wait(inner) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// A plain scheduling point: the current thread offers to yield.
    fn schedule_point(&self) {
        let me = self.me();
        {
            let mut inner = self.lock_inner();
            self.choose(&mut inner, me, true);
        }
        self.wait_for_turn(me);
    }

    /// Blocks the calling thread on `resource` and schedules another
    /// thread; returns when rescheduled (the caller re-checks its
    /// condition and may block again).
    fn block_on(&self, resource: usize) {
        let me = self.me();
        {
            let mut inner = self.lock_inner();
            inner.status[me] = Status::Blocked(resource);
            self.choose(&mut inner, me, false);
        }
        self.wait_for_turn(me);
    }

    /// Marks every thread blocked on `resource` runnable.
    fn wake(&self, resource: usize) {
        let mut inner = self.lock_inner();
        for s in inner.status.iter_mut() {
            if *s == Status::Blocked(resource) {
                *s = Status::Runnable;
            }
        }
    }

    /// Spawns a new virtual thread running `f`. A scheduling point.
    pub fn spawn<F>(self: &Arc<Self>, f: F) -> JoinHandle
    where
        F: FnOnce() + Send + 'static,
    {
        let tid = {
            let mut inner = self.lock_inner();
            inner.status.push(Status::Runnable);
            inner.total += 1;
            inner.status.len() - 1
        };
        let sim = Arc::clone(self);
        let os = std::thread::spawn(move || {
            CURRENT_VTHREAD.with(|c| c.set(tid));
            sim.wait_for_turn(tid);
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            sim.finish(tid, result.err());
        });
        self.os_handles.lock().map(|mut v| v.push(os)).ok();
        if self.me() != usize::MAX {
            self.schedule_point();
        }
        JoinHandle {
            sim: Arc::clone(self),
            tid,
        }
    }

    /// Thread epilogue: record panics, mark finished, hand off the token.
    fn finish(&self, me: usize, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        let mut inner = self.lock_inner();
        if let Some(payload) = panic_payload {
            if payload.downcast_ref::<SimAbort>().is_none() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let trace = inner.trace();
                self.poison(&mut inner, Violation::ModelPanic { message, trace });
            }
        }
        inner.status[me] = Status::Finished;
        inner.finished += 1;
        drop(inner);
        self.wake(JOIN_RESOURCE_BASE + me);
        let mut inner = self.lock_inner();
        if inner.finished == inner.total {
            self.cv.notify_all(); // controller watches finished == total
        } else {
            self.choose(&mut inner, me, false);
        }
    }
}

/// Resource ids `JOIN_RESOURCE_BASE + tid` mean "waiting for thread tid
/// to finish"; ordinary primitives allocate ids below this.
const JOIN_RESOURCE_BASE: usize = 1 << 32;

/// Handle to a spawned virtual thread.
#[derive(Debug)]
pub struct JoinHandle {
    sim: Arc<Sim>,
    tid: usize,
}

impl JoinHandle {
    /// Waits for the thread to finish. A scheduling point.
    pub fn join(self) {
        self.sim.schedule_point();
        loop {
            {
                let inner = self.sim.lock_inner();
                if inner.status[self.tid] == Status::Finished {
                    return;
                }
            }
            self.sim.block_on(JOIN_RESOURCE_BASE + self.tid);
        }
    }
}

// ---------------------------------------------------------------------
// SimMutex
// ---------------------------------------------------------------------

struct MutexCtl {
    owner: Option<usize>,
}

/// A model-level mutex: acquisition is a scheduling point, ownership is
/// tracked by the checker (so contention blocks the *virtual* thread),
/// and the data itself lives in an uncontended std mutex.
pub struct SimMutex<T> {
    sim: Arc<Sim>,
    resource: usize,
    ctl: Mutex<MutexCtl>,
    data: Mutex<T>,
}

impl<T: fmt::Debug> fmt::Debug for SimMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMutex")
            .field("resource", &self.resource)
            .finish_non_exhaustive()
    }
}

impl<T> SimMutex<T> {
    /// Creates a mutex owned by the given simulation.
    pub fn new(sim: &Arc<Sim>, value: T) -> Self {
        SimMutex {
            sim: Arc::clone(sim),
            resource: sim.fresh_resource(),
            ctl: Mutex::new(MutexCtl { owner: None }),
            data: Mutex::new(value),
        }
    }

    /// Locks, exploring schedules around the acquisition.
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        let me = self.sim.me();
        self.sim.schedule_point();
        loop {
            {
                let mut ctl = match self.ctl.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                if ctl.owner.is_none() {
                    ctl.owner = Some(me);
                    break;
                }
            }
            self.sim.block_on(self.resource);
        }
        let data = match self.data.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        SimMutexGuard {
            mutex: self,
            data: Some(data),
        }
    }
}

/// RAII guard; releasing wakes blocked contenders.
pub struct SimMutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    data: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: fmt::Debug> fmt::Debug for SimMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMutexGuard").finish_non_exhaustive()
    }
}

impl<T> std::ops::Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard data present until drop")
    }
}

impl<T> std::ops::DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard data present until drop")
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.data.take();
        if let Ok(mut ctl) = self.mutex.ctl.lock() {
            ctl.owner = None;
        }
        self.mutex.sim.wake(self.mutex.resource);
    }
}

// ---------------------------------------------------------------------
// SimCondvar
// ---------------------------------------------------------------------

/// A model-level condition variable paired with [`SimMutex`], modeling
/// `std::sync::Condvar`'s atomic release-and-wait: [`SimCondvar::wait`]
/// releases the guard and parks in one step with no scheduling point in
/// between, so a notification can never land between the release and
/// the park. [`SimCondvar::wait_racy`] deliberately opens that window —
/// it exists so the checker's lost-wakeup detection stays honest (see
/// `models::pool_lost_wakeup_fixture`).
pub struct SimCondvar {
    sim: Arc<Sim>,
    resource: usize,
}

impl fmt::Debug for SimCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCondvar")
            .field("resource", &self.resource)
            .finish_non_exhaustive()
    }
}

impl SimCondvar {
    /// Creates a condvar owned by the given simulation.
    pub fn new(sim: &Arc<Sim>) -> Self {
        SimCondvar {
            sim: Arc::clone(sim),
            resource: sim.fresh_resource(),
        }
    }

    /// Releases `guard`, parks until notified, re-locks, and returns the
    /// new guard. Atomic in the model: dropping the guard wakes mutex
    /// contenders but transfers no control, and the park happens before
    /// the next scheduling point — exactly std's release-and-wait
    /// contract. Spurious wakeups exist (every notification wakes all
    /// waiters), so callers loop over their predicate as they would with
    /// std.
    pub fn wait<'a, T>(&self, guard: SimMutexGuard<'a, T>) -> SimMutexGuard<'a, T> {
        let mutex = guard.mutex;
        drop(guard);
        self.sim.block_on(self.resource);
        mutex.lock()
    }

    /// The broken variant: releases the guard, *yields*, and only then
    /// parks. A notification delivered in that window wakes nobody —
    /// the classic lost wakeup. Kept only as a seeded fixture target;
    /// production models must use [`SimCondvar::wait`].
    pub fn wait_racy<'a, T>(&self, guard: SimMutexGuard<'a, T>) -> SimMutexGuard<'a, T> {
        let mutex = guard.mutex;
        drop(guard);
        self.sim.schedule_point(); // <- the lost-wakeup window
        self.sim.block_on(self.resource);
        mutex.lock()
    }

    /// Wakes every thread parked in [`SimCondvar::wait`], then offers to
    /// yield so a woken waiter can run. Call while holding the paired
    /// mutex for std-equivalent semantics (the model does not enforce
    /// it — dropping the guard first is exactly the bug `wait_racy`
    /// fixtures catch).
    pub fn notify_all(&self) {
        self.sim.wake(self.resource);
        self.sim.schedule_point();
    }
}

// ---------------------------------------------------------------------
// RaceCell — a deliberately non-atomic shared cell
// ---------------------------------------------------------------------

/// A shared cell whose `get` and `set` are *separate* scheduling points,
/// so read-modify-write sequences built from them are not atomic. This
/// is the instrument for racy fixtures: the checker must find the
/// interleaving where an update is lost.
pub struct RaceCell<T: Copy> {
    sim: Arc<Sim>,
    value: Mutex<T>,
}

impl<T: Copy + fmt::Debug> fmt::Debug for RaceCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaceCell").finish_non_exhaustive()
    }
}

impl<T: Copy> RaceCell<T> {
    /// Creates a cell owned by the given simulation.
    pub fn new(sim: &Arc<Sim>, value: T) -> Self {
        RaceCell {
            sim: Arc::clone(sim),
            value: Mutex::new(value),
        }
    }

    /// Reads the value. A scheduling point.
    pub fn get(&self) -> T {
        self.sim.schedule_point();
        match self.value.lock() {
            Ok(g) => *g,
            Err(p) => *p.into_inner(),
        }
    }

    /// Writes the value. A scheduling point.
    pub fn set(&self, v: T) {
        self.sim.schedule_point();
        match self.value.lock() {
            Ok(mut g) => *g = v,
            Err(p) => *p.into_inner() = v,
        }
    }
}

// ---------------------------------------------------------------------
// Explorer — DFS over schedules
// ---------------------------------------------------------------------

/// Exploration bounds. `max_preemptions` is the CHESS-style context
/// bound; 2 already catches most real bugs and keeps ring-sized models
/// in the low thousands of schedules.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Forced context switches allowed per schedule.
    pub max_preemptions: usize,
    /// Safety valve: distinct schedules before giving up.
    pub max_schedules: usize,
    /// Safety valve: scheduling points per run.
    pub max_steps: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_preemptions: 2,
            max_schedules: 200_000,
            max_steps: 100_000,
        }
    }
}

impl Explorer {
    /// Explores every schedule of `model` within the bounds. The model
    /// runs once per schedule on fresh state; its returned bytes must be
    /// identical across schedules.
    pub fn explore<F>(&self, model: F) -> Result<Report, Violation>
    where
        F: Fn(&Arc<Sim>) -> Vec<u8> + Send + Sync + Clone + 'static,
    {
        let mut schedule: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        let mut total_steps = 0usize;
        let mut reference_output: Option<Vec<u8>> = None;
        loop {
            let (decisions, outcome, output, steps) = self.run_once(&schedule, model.clone());
            total_steps += steps;
            if let Some(v) = outcome {
                return Err(v);
            }
            schedules += 1;
            let output = output.unwrap_or_default();
            match &reference_output {
                None => reference_output = Some(output),
                Some(first) if *first != output => {
                    return Err(Violation::NondeterministicOutput {
                        first: first.clone(),
                        differing: output,
                        trace: decisions.iter().map(|d| d.chosen).collect(),
                    });
                }
                Some(_) => {}
            }
            if schedules >= self.max_schedules {
                return Err(Violation::ScheduleLimit { schedules });
            }
            // DFS backtrack: deepest decision with an untried candidate.
            let mut next_schedule = None;
            for i in (0..decisions.len()).rev() {
                let d = &decisions[i];
                let pos = d
                    .candidates
                    .iter()
                    .position(|&c| c == d.chosen)
                    .unwrap_or(d.candidates.len());
                if pos + 1 < d.candidates.len() {
                    let mut s: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
                    s.push(d.candidates[pos + 1]);
                    next_schedule = Some(s);
                    break;
                }
            }
            match next_schedule {
                Some(s) => schedule = s,
                None => {
                    return Ok(Report {
                        schedules,
                        total_steps,
                        output: reference_output.unwrap_or_default(),
                    })
                }
            }
        }
    }

    fn run_once<F>(
        &self,
        schedule: &[usize],
        model: F,
    ) -> (Vec<Decision>, Option<Violation>, Option<Vec<u8>>, usize)
    where
        F: Fn(&Arc<Sim>) -> Vec<u8> + Send + 'static,
    {
        let sim = Sim::new(schedule.to_vec(), self.max_preemptions, self.max_steps);
        let root_sim = Arc::clone(&sim);
        sim.spawn(move || {
            let out = model(&root_sim);
            let mut inner = root_sim.lock_inner();
            inner.output = Some(out);
        });
        // Thread 0 starts immediately (`active` is 0 from construction);
        // wait for the run to drain. Touching `active` here would race
        // with the already-running model.
        {
            let mut inner = sim.lock_inner();
            while inner.finished < inner.total {
                inner = match sim.cv.wait(inner) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }
        for h in sim
            .os_handles
            .lock()
            .map(|mut v| v.drain(..).collect::<Vec<_>>())
            .unwrap_or_default()
        {
            let _ = h.join();
        }
        let inner = sim.lock_inner();
        (
            inner.decisions.clone(),
            inner.violation.clone(),
            inner.output.clone(),
            inner.steps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_runs_once() {
        let report = Explorer::default()
            .explore(|_sim| vec![1, 2, 3])
            .expect("trivial model");
        assert_eq!(report.schedules, 1);
        assert_eq!(report.output, vec![1, 2, 3]);
    }

    #[test]
    fn two_independent_threads_explore_multiple_schedules() {
        let report = Explorer::default()
            .explore(|sim| {
                let log = Arc::new(SimMutex::new(sim, Vec::new()));
                let handles: Vec<JoinHandle> = (0u8..2)
                    .map(|i| {
                        let log = Arc::clone(&log);
                        sim.spawn(move || {
                            log.lock().push(i);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
                // Output must be schedule-independent: sort.
                let mut v = log.lock().clone();
                v.sort_unstable();
                v
            })
            .expect("independent threads are clean");
        assert!(report.schedules > 1, "should explore >1 interleaving");
        assert_eq!(report.output, vec![0, 1]);
    }

    #[test]
    fn order_dependent_output_is_reported() {
        let err = Explorer::default()
            .explore(|sim| {
                let log = Arc::new(SimMutex::new(sim, Vec::new()));
                let handles: Vec<JoinHandle> = (0u8..2)
                    .map(|i| {
                        let log = Arc::clone(&log);
                        sim.spawn(move || {
                            log.lock().push(i);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
                let v = log.lock().clone(); // deliberately unsorted
                v
            })
            .expect_err("arrival order leaks into output");
        assert!(matches!(err, Violation::NondeterministicOutput { .. }));
    }

    #[test]
    fn ab_ba_deadlock_is_found() {
        let err = Explorer::default()
            .explore(|sim| {
                let a = Arc::new(SimMutex::new(sim, 0u32));
                let b = Arc::new(SimMutex::new(sim, 0u32));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t1 = sim.spawn(move || {
                    let _ga = a2.lock();
                    let _gb = b2.lock();
                });
                let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
                let t2 = sim.spawn(move || {
                    let _gb = b3.lock();
                    let _ga = a3.lock();
                });
                t1.join();
                t2.join();
                Vec::new()
            })
            .expect_err("AB-BA must deadlock on some schedule");
        assert!(matches!(err, Violation::Deadlock { .. }), "got {err}");
    }

    #[test]
    fn condvar_handshake_is_clean_on_every_schedule() {
        let report = Explorer::default()
            .explore(|sim| {
                let slot = Arc::new(SimMutex::new(sim, None::<u8>));
                let cv = Arc::new(SimCondvar::new(sim));
                let (s2, c2) = (Arc::clone(&slot), Arc::clone(&cv));
                let t = sim.spawn(move || {
                    let mut g = s2.lock();
                    while g.is_none() {
                        g = c2.wait(g);
                    }
                    assert_eq!(*g, Some(7), "woke to the published value");
                });
                {
                    let mut g = slot.lock();
                    *g = Some(7);
                }
                cv.notify_all();
                t.join();
                vec![1]
            })
            .expect("atomic release-and-wait never loses a wakeup");
        assert!(report.schedules > 1, "should explore >1 interleaving");
    }

    #[test]
    fn racy_wait_loses_a_wakeup_and_deadlocks() {
        let err = Explorer::default()
            .explore(|sim| {
                let slot = Arc::new(SimMutex::new(sim, None::<u8>));
                let cv = Arc::new(SimCondvar::new(sim));
                let (s2, c2) = (Arc::clone(&slot), Arc::clone(&cv));
                let t = sim.spawn(move || {
                    let mut g = s2.lock();
                    while g.is_none() {
                        g = c2.wait_racy(g); // release, yield, park
                    }
                });
                {
                    let mut g = slot.lock();
                    *g = Some(7);
                }
                cv.notify_all();
                t.join();
                Vec::new()
            })
            .expect_err("the notify can land in the release->park window");
        assert!(matches!(err, Violation::Deadlock { .. }), "got {err}");
    }

    #[test]
    fn model_assertion_failures_surface_with_a_trace() {
        let err = Explorer::default()
            .explore(|sim| {
                let cell = Arc::new(RaceCell::new(sim, 0u32));
                let c = Arc::clone(&cell);
                let t = sim.spawn(move || {
                    let v = c.get();
                    c.set(v + 1);
                });
                let v = cell.get();
                cell.set(v + 1);
                t.join();
                assert_eq!(cell.get(), 2, "lost update");
                Vec::new()
            })
            .expect_err("non-atomic increment must lose an update on some schedule");
        match err {
            Violation::ModelPanic { message, trace } => {
                assert!(message.contains("lost update"), "message: {message}");
                assert!(!trace.is_empty());
            }
            other => panic!("expected ModelPanic, got {other}"),
        }
    }
}
