//! The fleet's worker pool: persistent helper threads that run a round's
//! jobs beside the thread that called [`crate::DetectorFleet::drain_round`].
//!
//! Jobs are owned values. A round moves them into a preallocated queue,
//! the caller and the helpers claim them one at a time, and each comes
//! back, run, through a second preallocated queue; nothing is borrowed
//! across threads and dispatch allocates nothing. Two rules keep the
//! round's critical path off the scheduler:
//!
//! * a helper that runs out of jobs polls for the next round for
//!   [`POLL`] before it parks, so back-to-back rounds find it awake;
//! * the caller never sleeps: once the queue is empty it spins until
//!   every job a helper claimed has come back.
//!
//! A helper parks after its poll, so an idle fleet burns no CPU, and a
//! round unparks no more helpers than it has jobs to spare. A job that
//! panics is caught on the thread that ran it, and the round hands the
//! first panic to the caller once every job of the round is back. With no
//! helpers, the caller runs every job itself.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a helper that ran out of jobs keeps polling before it parks:
/// longer than the gap between two rounds of a busy engine, short enough
/// that an idle fleet is quiet at once.
const POLL: Duration = Duration::from_micros(200);

/// Spins the caller makes, waiting on a helper's job, before it starts to
/// yield its time slice between polls.
const SPINS_BEFORE_YIELD: u32 = 1 << 12;

/// A panic caught on the thread that ran a job.
pub(crate) type Panic = Box<dyn Any + Send>;

/// A unit of work the pool can move to a helper and back.
pub(crate) trait Job: Send + 'static {
    fn run(&mut self);
}

struct Queues<J> {
    /// Jobs not yet claimed, in dispatch order.
    todo: VecDeque<J>,
    /// Jobs the helpers ran, with the panic each one raised.
    done: Vec<(J, Option<Panic>)>,
}

struct Shared<J> {
    queues: Mutex<Queues<J>>,
    /// Jobs in `todo`, readable without the lock by polling helpers.
    open: AtomicUsize,
    /// Jobs of the current round not yet run.
    unfinished: AtomicUsize,
    /// Per helper: whether it is parked (or about to park).
    parked: Vec<AtomicBool>,
    /// Jobs the helpers ran, over the pool's life.
    helper_jobs: AtomicUsize,
    shutdown: AtomicBool,
}

impl<J: Job> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, Queues<J>> {
        // No job runs under the lock, so a poisoned lock guards intact
        // queues.
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn claim(&self) -> Option<J> {
        if self.open.load(SeqCst) == 0 {
            return None;
        }
        let job = self.lock().todo.pop_front()?;
        self.open.fetch_sub(1, SeqCst);
        Some(job)
    }
}

/// Runs `job`, catching a panic.
fn run_caught<J: Job>(job: &mut J) -> Option<Panic> {
    panic::catch_unwind(AssertUnwindSafe(|| job.run())).err()
}

fn helper<J: Job>(shared: &Shared<J>, me: usize) {
    loop {
        while let Some(mut job) = shared.claim() {
            let panic = run_caught(&mut job);
            shared.lock().done.push((job, panic));
            shared.helper_jobs.fetch_add(1, SeqCst);
            // Last, so the caller finds the job in `done` once it sees
            // the round finished.
            shared.unfinished.fetch_sub(1, SeqCst);
        }
        let idle_since = Instant::now();
        loop {
            if shared.shutdown.load(SeqCst) {
                return;
            }
            if shared.open.load(SeqCst) > 0 {
                break;
            }
            if idle_since.elapsed() >= POLL {
                // Announce the park before the last look at the queue: a
                // round that dispatches after that look sees the flag and
                // unparks this helper.
                shared.parked[me].store(true, SeqCst);
                if shared.open.load(SeqCst) == 0 && !shared.shutdown.load(SeqCst) {
                    thread::park();
                }
                shared.parked[me].store(false, SeqCst);
                break;
            }
            std::hint::spin_loop();
        }
    }
}

/// The pool: `helpers` threads sharing one pair of job queues with the
/// thread that owns the pool.
pub(crate) struct Pool<J: Job> {
    shared: Arc<Shared<J>>,
    helpers: Vec<JoinHandle<()>>,
}

impl<J: Job> Pool<J> {
    /// Spawns `helpers` threads, each from `builder(i)`. A failed spawn
    /// ends the spawning: the pool keeps the helpers it has, and with none
    /// the caller runs every job itself.
    pub(crate) fn new(helpers: usize, builder: impl Fn(usize) -> thread::Builder) -> Self {
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues { todo: VecDeque::new(), done: Vec::new() }),
            open: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(0),
            parked: (0..helpers).map(|_| AtomicBool::new(false)).collect(),
            helper_jobs: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut spawned = Vec::with_capacity(helpers);
        for i in 0..helpers {
            let own = Arc::clone(&shared);
            match builder(i).spawn(move || helper(&own, i)) {
                Ok(handle) => spawned.push(handle),
                Err(_) => break,
            }
        }
        Self { shared, helpers: spawned }
    }

    /// Helper threads running beside the caller.
    pub(crate) fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Jobs the helpers have run since the pool started.
    pub(crate) fn helper_jobs(&self) -> usize {
        self.shared.helper_jobs.load(SeqCst)
    }

    /// Makes room for `jobs` jobs in one round, so dispatch never
    /// allocates.
    pub(crate) fn reserve(&self, jobs: usize) {
        let mut q = self.shared.lock();
        let todo = jobs.saturating_sub(q.todo.len());
        q.todo.reserve(todo);
        let done = jobs.saturating_sub(q.done.len());
        q.done.reserve(done);
    }

    /// Queues `jobs` for the round and wakes parked helpers for the jobs
    /// the caller will not get to first: all of them when `caller_busy`
    /// (the caller has work of its own to do before it claims), all but
    /// one otherwise. Returns the number queued.
    pub(crate) fn dispatch(&self, jobs: impl Iterator<Item = J>, caller_busy: bool) -> usize {
        let shared = &*self.shared;
        let queued = {
            let mut q = shared.lock();
            debug_assert!(q.todo.is_empty() && q.done.is_empty(), "one round at a time");
            q.todo.extend(jobs);
            // Under the lock: a helper that read `open` during the last
            // round may pop one of these jobs as soon as the lock is free,
            // and its decrements must find the counts already set.
            shared.unfinished.store(q.todo.len(), SeqCst);
            shared.open.store(q.todo.len(), SeqCst);
            q.todo.len()
        };
        if queued == 0 {
            return queued;
        }
        let spare = queued - usize::from(!caller_busy);
        let helpers = &shared.parked[..self.helpers.len()];
        let awake = helpers.iter().filter(|p| !p.load(SeqCst)).count();
        let mut wake = spare.saturating_sub(awake);
        for (handle, parked) in self.helpers.iter().zip(helpers) {
            if wake == 0 {
                break;
            }
            if parked.load(SeqCst) {
                handle.thread().unpark();
                wake -= 1;
            }
        }
        queued
    }

    /// Finishes the round: the caller claims and runs queued jobs until
    /// none is left, waits for the jobs the helpers claimed, and hands
    /// every job back through `land`. `panic` is one the caller already
    /// caught this round; after it, or after any job of the caller's
    /// panics, the caller stops running jobs and lands the unclaimed ones
    /// unrun. Returns the round's first panic, for the caller to re-raise
    /// once it has put its state back together; it is only returned after
    /// every helper has left the round.
    #[must_use = "a panic a job raised must be re-raised"]
    pub(crate) fn complete(
        &self,
        mut panic: Option<Panic>,
        mut land: impl FnMut(J),
    ) -> Option<Panic> {
        let shared = &*self.shared;
        loop {
            if panic.is_some() {
                let mut q = shared.lock();
                while let Some(job) = q.todo.pop_front() {
                    shared.open.fetch_sub(1, SeqCst);
                    shared.unfinished.fetch_sub(1, SeqCst);
                    land(job);
                }
                break;
            }
            let Some(mut job) = shared.claim() else { break };
            panic = run_caught(&mut job);
            shared.unfinished.fetch_sub(1, SeqCst);
            land(job);
        }
        let mut spins = 0u32;
        while shared.unfinished.load(SeqCst) > 0 {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        for (job, raised) in shared.lock().done.drain(..) {
            panic = panic.or(raised);
            land(job);
        }
        panic
    }
}

impl<J: Job> Drop for Pool<J> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        for handle in &self.helpers {
            handle.thread().unpark();
        }
        for handle in self.helpers.drain(..) {
            // A helper catches every job's panic, so it only ends by
            // returning.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds one to its value; panics on `PANIC`.
    struct Add(u64);

    const PANIC: u64 = 13;

    impl Job for Add {
        fn run(&mut self) {
            assert!(self.0 != PANIC, "job {PANIC} panics");
            self.0 += 1;
        }
    }

    fn named(i: usize) -> thread::Builder {
        thread::Builder::new().name(format!("pool-test-{i}"))
    }

    #[test]
    fn every_job_runs_once_and_lands() {
        for helpers in [0, 1, 3] {
            let pool = Pool::new(helpers, named);
            pool.reserve(64);
            for round in 0..50u64 {
                let n = (round % 7) as usize;
                pool.dispatch((0..n as u64).map(|i| Add(100 + i)), round % 2 == 0);
                let mut landed = Vec::new();
                assert!(pool.complete(None, |job| landed.push(job.0)).is_none());
                landed.sort_unstable();
                assert_eq!(landed, (0..n as u64).map(|i| 101 + i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_panicking_job_lands_every_job_and_reraises_on_the_caller() {
        for helpers in [0, 1, 2] {
            let pool = Pool::new(helpers, named);
            pool.reserve(16);
            pool.dispatch([1, PANIC, 2, PANIC, 3].into_iter().map(Add), false);
            let mut landed = 0;
            let raised = pool.complete(None, |_| landed += 1);
            assert!(raised.is_some(), "helpers={helpers}: the job's panic reaches the caller");
            assert_eq!(landed, 5, "helpers={helpers}: run or not, every job lands");
            // The pool serves the next round.
            pool.dispatch([5].into_iter().map(Add), false);
            let mut got = Vec::new();
            assert!(pool.complete(None, |job| got.push(job.0)).is_none());
            assert_eq!(got, [6]);
        }
    }

    #[test]
    fn a_failed_spawn_leaves_the_caller_running_every_job() {
        // No stack of 2^60 bytes can be mapped, so every spawn fails
        // before a thread starts.
        let pool = Pool::new(2, |_| thread::Builder::new().stack_size(1 << 60));
        assert_eq!(pool.helpers(), 0);
        pool.dispatch((0..4).map(Add), false);
        let mut landed = Vec::new();
        assert!(pool.complete(None, |job| landed.push(job.0)).is_none());
        assert_eq!(landed, [1, 2, 3, 4]);
        assert_eq!(pool.helper_jobs(), 0);
    }
}
