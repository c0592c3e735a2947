//! Typed elastic-membership schedules for the training fabric.
//!
//! Historically the only membership transition was a one-shot crash
//! field on [`FaultPlan`](crate::FaultPlan). This module replaces that
//! hook with a first-class, typed schedule: a [`MembershipSchedule`] is
//! an ordered list of [`MembershipEvent`]s — joins, graceful leaves,
//! and crashes, each pinned to an iteration — armed on
//! `TrainerConfig::membership` (trainer-level transitions) and
//! `FabricBuilder::membership` (fabric-level endpoint liveness).
//!
//! The three event kinds differ in *which layer reacts*:
//!
//! * **`Crash`** is a fabric-level event: from its iteration every
//!   delivery touching the endpoint fails with `EndpointDown` until the
//!   collective is re-stitched around it — the recovery-ladder path PR 5
//!   built.
//! * **`Leave`** is a trainer-level event: the worker drains (it
//!   completes iteration `at - 1`), then the trainer excises it *before*
//!   iteration `at`'s exchange — no failed delivery, no recovery ladder,
//!   no wire traffic wasted on a peer that announced its departure. The
//!   fabric keeps treating the endpoint as up.
//! * **`Join`** is both: the fabric revives the endpoint (clearing any
//!   prior crash), and the trainer re-admits the worker with state
//!   catch-up — the current leader snapshots its parameters and
//!   optimizer state over the fabric (plain frames, so the copy is
//!   bit-exact) before the worker's first exchange.
//!
//! Like every fault-injection surface in this crate, a schedule is pure
//! data: replaying the same seed and schedule replays the same
//! transitions at the same points, byte-identically.

/// One membership transition, pinned to the start of iteration `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// `worker` (re)enters the collective at iteration `at`, with state
    /// catch-up from the current leader before its first exchange. Also
    /// revives the endpoint after a prior [`Crash`](Self::Crash).
    Join {
        /// First iteration the worker participates in.
        at: u64,
        /// The joining worker's endpoint.
        worker: usize,
    },
    /// `worker` leaves gracefully: it completes iteration `at - 1`,
    /// then is excised before iteration `at`'s exchange without
    /// touching the recovery ladder.
    Leave {
        /// First iteration the worker no longer participates in.
        at: u64,
        /// The departing worker's endpoint.
        worker: usize,
    },
    /// `worker` crashes: from iteration `at` every delivery touching
    /// its endpoint fails with `EndpointDown` until a later
    /// [`Join`](Self::Join) revives it. The trainer recovers by
    /// re-stitching the exchange around the survivors.
    Crash {
        /// First iteration the endpoint is down.
        at: u64,
        /// The crashed worker's endpoint.
        worker: usize,
    },
}

impl MembershipEvent {
    /// The iteration the transition takes effect at.
    pub fn at(self) -> u64 {
        match self {
            MembershipEvent::Join { at, .. }
            | MembershipEvent::Leave { at, .. }
            | MembershipEvent::Crash { at, .. } => at,
        }
    }

    /// The worker (fabric endpoint) the transition concerns.
    pub fn worker(self) -> usize {
        match self {
            MembershipEvent::Join { worker, .. }
            | MembershipEvent::Leave { worker, .. }
            | MembershipEvent::Crash { worker, .. } => worker,
        }
    }
}

/// An ordered schedule of membership transitions, built fluently:
///
/// ```
/// use inceptionn_distrib::membership::MembershipSchedule;
///
/// // Worker 3 leaves at iteration 2 and rejoins at 5; worker 1
/// // crashes at 3 and is revived (join-after-crash) at 6.
/// let schedule = MembershipSchedule::new()
///     .leave(2, 3)
///     .crash(3, 1)
///     .join(5, 3)
///     .join(6, 1);
/// assert_eq!(schedule.events().len(), 4);
/// assert!(schedule.down_at(1, 4), "crashed and not yet revived");
/// assert!(!schedule.down_at(1, 6), "revived by the join");
/// assert!(!schedule.down_at(3, 3), "a graceful leave keeps the NIC up");
/// ```
///
/// Events are kept sorted by iteration (stable for equal iterations, so
/// same-iteration events apply in the order they were scheduled).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipSchedule {
    events: Vec<MembershipEvent>,
}

impl MembershipSchedule {
    /// An empty schedule (no transitions ever fire).
    pub fn new() -> Self {
        MembershipSchedule::default()
    }

    fn push(mut self, event: MembershipEvent) -> Self {
        // Stable insertion sort by iteration: schedules are tiny and
        // built once, and stability keeps same-iteration ordering under
        // the scheduler's control.
        let pos = self
            .events
            .iter()
            .position(|e| e.at() > event.at())
            .unwrap_or(self.events.len());
        self.events.insert(pos, event);
        self
    }

    /// Schedules a [`MembershipEvent::Join`] at iteration `at`.
    pub fn join(self, at: u64, worker: usize) -> Self {
        self.push(MembershipEvent::Join { at, worker })
    }

    /// Schedules a [`MembershipEvent::Leave`] at iteration `at`.
    pub fn leave(self, at: u64, worker: usize) -> Self {
        self.push(MembershipEvent::Leave { at, worker })
    }

    /// Schedules a [`MembershipEvent::Crash`] at iteration `at`.
    pub fn crash(self, at: u64, worker: usize) -> Self {
        self.push(MembershipEvent::Crash { at, worker })
    }

    /// Whether the schedule contains no transitions.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All scheduled transitions, sorted by iteration.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// The transitions taking effect at the start of iteration `at`, in
    /// schedule order.
    pub fn events_at(&self, at: u64) -> impl Iterator<Item = MembershipEvent> + '_ {
        self.events.iter().copied().filter(move |e| e.at() == at)
    }

    /// Whether `worker`'s *endpoint* is crash-down at `iteration`: a
    /// [`Crash`](MembershipEvent::Crash) has taken effect with no
    /// [`Join`](MembershipEvent::Join) reviving it since. Graceful
    /// leaves do not count — the departed worker's NIC stays up, it
    /// just no longer participates in the collective.
    ///
    /// This runs on the fabric's delivery hot path, so it allocates
    /// nothing and cannot panic.
    pub fn down_at(&self, worker: usize, iteration: u64) -> bool {
        let mut down = false;
        for e in &self.events {
            if e.at() > iteration {
                break;
            }
            match *e {
                MembershipEvent::Crash { worker: w, .. } if w == worker => down = true,
                MembershipEvent::Join { worker: w, .. } if w == worker => down = false,
                _ => {}
            }
        }
        down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_stably_by_iteration() {
        let s = MembershipSchedule::new()
            .crash(5, 0)
            .leave(2, 1)
            .join(5, 2)
            .join(2, 3);
        let order: Vec<(u64, usize)> = s.events().iter().map(|e| (e.at(), e.worker())).collect();
        assert_eq!(order, vec![(2, 1), (2, 3), (5, 0), (5, 2)]);
        assert_eq!(s.events_at(2).count(), 2);
        assert_eq!(s.events_at(3).count(), 0);
    }

    #[test]
    fn down_tracks_crash_and_revive_per_worker() {
        let s = MembershipSchedule::new().crash(3, 1).join(6, 1).crash(8, 1);
        assert!(!s.down_at(1, 2), "not yet crashed");
        assert!(s.down_at(1, 3) && s.down_at(1, 5), "crashed");
        assert!(!s.down_at(1, 6) && !s.down_at(1, 7), "revived");
        assert!(s.down_at(1, 8), "second crash");
        assert!(!s.down_at(0, 8), "other workers unaffected");
    }

    #[test]
    fn leaves_never_mark_the_endpoint_down() {
        let s = MembershipSchedule::new().leave(1, 0).join(4, 0);
        for it in 0..6 {
            assert!(!s.down_at(0, it), "iteration {it}");
        }
    }
}
