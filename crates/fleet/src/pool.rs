//! The fleet's worker pool: persistent helper threads that run jobs beside
//! the thread that called [`crate::DetectorFleet::drain_round`].
//!
//! Jobs are owned values on two lanes:
//!
//! * the *round* lane holds the jobs of the current round. The caller
//!   and the helpers claim them one at a time, and the round ends once
//!   every one of them is back on the caller ([`Pool::complete`]). A
//!   drain round of the fleet completes the lane twice: once for the
//!   scoring jobs of its cohort phase, with the adaptations its resumed
//!   streams wait for, and once for the scoring jobs of its resume pass,
//!   which serves those streams;
//! * the *background* lane holds jobs no round waits for: a round job
//!   may return a follow-up (a drifted stream's scoring job returns its
//!   adaptation), which the thread that ran it queues there at once.
//!   Helpers claim them once the round lane is empty; the caller takes
//!   them back only when it needs one: it [recalls](Pool::recall) an
//!   unclaimed job onto the round lane, or [waits](Pool::wait_back) for a
//!   claimed one to be [returned](Pool::take_returned).
//!
//! Nothing is borrowed across threads, and with capacity reserved per job
//! ([`Pool::reserve`]) dispatch allocates nothing. Two rules keep the
//! round's critical path off the scheduler:
//!
//! * a helper that runs out of jobs polls for the next one for [`POLL`]
//!   before it parks, so back-to-back rounds find it awake;
//! * the caller never sleeps: once the round lane is empty it spins until
//!   every round job a helper claimed has come back.
//!
//! A helper parks after its poll, so an idle fleet burns no CPU, and a
//! dispatch unparks no more helpers than it has jobs to spare. A job that
//! panics is caught on the thread that ran it, and the panic travels with
//! the job back to the caller, which decides when to re-raise it. With no
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
pub(crate) trait Job: Send + Sized + 'static {
    /// Runs the job. A job may return a follow-up job, which whichever
    /// thread ran it queues on the background lane at once.
    fn run(&mut self) -> Option<Self>;
}

/// A job, run, with the panic it raised.
type Ran<J> = (J, Option<Panic>);

struct Queues<J> {
    /// Round jobs not yet claimed, in dispatch order.
    todo: VecDeque<J>,
    /// Round jobs the helpers ran.
    done: Vec<Ran<J>>,
    /// Background jobs not yet claimed, in queue order.
    background: VecDeque<J>,
    /// Background jobs the helpers ran, not yet taken back.
    returned: Vec<Ran<J>>,
}

/// Which lane a claimed job came from.
#[derive(Clone, Copy)]
enum Lane {
    Round,
    Background,
}

struct Shared<J> {
    queues: Mutex<Queues<J>>,
    /// The length of each queue, stored under the lock whenever it
    /// changes, so polling threads read it without taking the lock.
    todo_len: AtomicUsize,
    done_len: AtomicUsize,
    background_len: AtomicUsize,
    returned_len: AtomicUsize,
    /// Round jobs dispatched or recalled and not yet run.
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

    /// A helper's claim: the round lane first, then the background lane.
    fn claim(&self) -> Option<(J, Lane)> {
        if self.todo_len.load(SeqCst) == 0 && self.background_len.load(SeqCst) == 0 {
            return None;
        }
        let mut q = self.lock();
        if let Some(job) = q.todo.pop_front() {
            self.todo_len.store(q.todo.len(), SeqCst);
            return Some((job, Lane::Round));
        }
        let job = q.background.pop_front()?;
        self.background_len.store(q.background.len(), SeqCst);
        Some((job, Lane::Background))
    }

    /// The caller's claim: the round lane only.
    fn claim_round(&self) -> Option<J> {
        if self.todo_len.load(SeqCst) == 0 {
            return None;
        }
        let mut q = self.lock();
        let job = q.todo.pop_front()?;
        self.todo_len.store(q.todo.len(), SeqCst);
        Some(job)
    }

    fn pop_done(&self) -> Option<Ran<J>> {
        if self.done_len.load(SeqCst) == 0 {
            return None;
        }
        let mut q = self.lock();
        let ran = q.done.pop()?;
        self.done_len.store(q.done.len(), SeqCst);
        Some(ran)
    }

    fn pop_returned(&self) -> Option<Ran<J>> {
        if self.returned_len.load(SeqCst) == 0 {
            return None;
        }
        let mut q = self.lock();
        let ran = q.returned.pop()?;
        self.returned_len.store(q.returned.len(), SeqCst);
        Some(ran)
    }
}

/// Runs `job`, catching a panic; returns the panic or the follow-up job.
fn run_caught<J: Job>(job: &mut J) -> (Option<Panic>, Option<J>) {
    match panic::catch_unwind(AssertUnwindSafe(|| job.run())) {
        Ok(next) => (None, next),
        Err(panic) => (Some(panic), None),
    }
}

fn helper<J: Job>(shared: &Shared<J>, me: usize) {
    loop {
        while !shared.shutdown.load(SeqCst) {
            let Some((mut job, lane)) = shared.claim() else { break };
            let (panic, next) = run_caught(&mut job);
            shared.helper_jobs.fetch_add(1, SeqCst);
            let mut q = shared.lock();
            if let Some(next) = next {
                q.background.push_back(next);
                shared.background_len.store(q.background.len(), SeqCst);
            }
            match lane {
                Lane::Round => {
                    q.done.push((job, panic));
                    shared.done_len.store(q.done.len(), SeqCst);
                    // Last, so the caller finds the job in `done` once it
                    // sees the round finished.
                    shared.unfinished.fetch_sub(1, SeqCst);
                }
                Lane::Background => {
                    q.returned.push((job, panic));
                    shared.returned_len.store(q.returned.len(), SeqCst);
                }
            }
        }
        let idle_since = Instant::now();
        let open = || shared.todo_len.load(SeqCst) + shared.background_len.load(SeqCst);
        loop {
            if shared.shutdown.load(SeqCst) {
                return;
            }
            if open() > 0 {
                break;
            }
            if idle_since.elapsed() >= POLL {
                // Announce the park before the last look at the queues: a
                // job queued after that look sees the flag and unparks
                // this helper.
                shared.parked[me].store(true, SeqCst);
                if open() == 0 && !shared.shutdown.load(SeqCst) {
                    thread::park();
                }
                shared.parked[me].store(false, SeqCst);
                break;
            }
            std::hint::spin_loop();
        }
    }
}

/// Spins, then yields, until `ready` holds.
fn spin_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

/// The pool: `helpers` threads sharing one set of job queues with the
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
            queues: Mutex::new(Queues {
                todo: VecDeque::new(),
                done: Vec::new(),
                background: VecDeque::new(),
                returned: Vec::new(),
            }),
            todo_len: AtomicUsize::new(0),
            done_len: AtomicUsize::new(0),
            background_len: AtomicUsize::new(0),
            returned_len: AtomicUsize::new(0),
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

    /// Makes room for `jobs` jobs on each lane, so neither dispatch nor a
    /// background job allocates.
    pub(crate) fn reserve(&self, jobs: usize) {
        let mut q = self.shared.lock();
        let todo = jobs.saturating_sub(q.todo.len());
        q.todo.reserve(todo);
        let done = jobs.saturating_sub(q.done.len());
        q.done.reserve(done);
        let background = jobs.saturating_sub(q.background.len());
        q.background.reserve(background);
        let returned = jobs.saturating_sub(q.returned.len());
        q.returned.reserve(returned);
    }

    /// Unparks up to `wake` parked helpers.
    fn wake(&self, mut wake: usize) {
        for (handle, parked) in self.helpers.iter().zip(&self.shared.parked) {
            if wake == 0 {
                break;
            }
            if parked.load(SeqCst) {
                handle.thread().unpark();
                wake -= 1;
            }
        }
    }

    /// Helpers not parked.
    fn awake(&self) -> usize {
        let parked = &self.shared.parked[..self.helpers.len()];
        parked.iter().filter(|p| !p.load(SeqCst)).count()
    }

    /// Moves every unclaimed background job that `wanted` selects onto the
    /// round lane, ahead of the round's other jobs, so the next
    /// [`Self::complete`] runs them. Call it between rounds, before
    /// [`Self::dispatch`]. Returns the number moved.
    pub(crate) fn recall(&self, mut wanted: impl FnMut(&J) -> bool) -> usize {
        let shared = &*self.shared;
        if shared.background_len.load(SeqCst) == 0 {
            return 0;
        }
        let mut q = shared.lock();
        debug_assert!(q.todo.is_empty(), "recall before the round's dispatch");
        for _ in 0..q.background.len() {
            let job = q.background.pop_front().expect("counted above");
            if wanted(&job) {
                q.todo.push_back(job);
            } else {
                q.background.push_back(job);
            }
        }
        let moved = q.todo.len();
        shared.unfinished.fetch_add(moved, SeqCst);
        shared.background_len.store(q.background.len(), SeqCst);
        shared.todo_len.store(moved, SeqCst);
        moved
    }

    /// Queues `jobs` on the round lane, behind the ones already there
    /// (recalled ones first), and wakes parked helpers for the jobs the
    /// caller will not get to first: all of them when `caller_busy` (the
    /// caller has work of its own to do before it claims), all but one
    /// otherwise. A round may dispatch more than once before it completes.
    /// Returns the number of round jobs waiting to be claimed.
    pub(crate) fn dispatch(&self, jobs: impl Iterator<Item = J>, caller_busy: bool) -> usize {
        let shared = &*self.shared;
        let queued = {
            let mut q = shared.lock();
            let before = q.todo.len();
            q.todo.extend(jobs);
            // Under the lock: a helper may pop one of these jobs as soon
            // as the lock is free, and its decrement must find the count
            // already raised.
            shared.unfinished.fetch_add(q.todo.len() - before, SeqCst);
            shared.todo_len.store(q.todo.len(), SeqCst);
            q.todo.len()
        };
        if queued > 0 {
            let spare = queued - usize::from(!caller_busy);
            self.wake(spare.saturating_sub(self.awake()));
        }
        queued
    }

    /// Queues a job no round waits for (a follow-up the caller's job
    /// returned). A helper claims it once the round lane is empty;
    /// [`Self::recall`] or [`Self::take_returned`] brings it back. Wakes a
    /// helper if every helper is parked.
    fn background(&self, job: J) {
        let shared = &*self.shared;
        {
            let mut q = shared.lock();
            q.background.push_back(job);
            shared.background_len.store(q.background.len(), SeqCst);
        }
        if self.awake() == 0 {
            self.wake(1);
        }
    }

    /// Finishes the round: the caller claims and runs round jobs until
    /// none is left, then waits for the ones the helpers claimed, handing
    /// every job back through `land` with the panic it raised, as soon as
    /// it is back. After a panic of a job the caller ran, or with `stop`
    /// set (the caller already caught one this round), the caller lands
    /// the jobs it claims unrun. Returns once every round job is back.
    pub(crate) fn complete(&self, mut stop: bool, mut land: impl FnMut(J, Option<Panic>)) {
        let shared = &*self.shared;
        while let Some(mut job) = shared.claim_round() {
            let (panic, next) = if stop { (None, None) } else { run_caught(&mut job) };
            if let Some(next) = next {
                self.background(next);
            }
            stop |= panic.is_some();
            shared.unfinished.fetch_sub(1, SeqCst);
            land(job, panic);
        }
        loop {
            let finished = shared.unfinished.load(SeqCst) == 0;
            if let Some((job, panic)) = shared.pop_done() {
                land(job, panic);
            } else if finished {
                return;
            } else {
                spin_until(|| {
                    shared.unfinished.load(SeqCst) == 0 || shared.done_len.load(SeqCst) > 0
                });
            }
        }
    }

    /// Hands every background job the helpers have finished back through
    /// `land`, with the panic it raised.
    pub(crate) fn take_returned(&self, mut land: impl FnMut(J, Option<Panic>)) {
        while let Some((job, panic)) = self.shared.pop_returned() {
            land(job, panic);
        }
    }

    /// Waits until a helper hands back a job, of either lane, then lands
    /// every job the helpers have handed back so far. Only call it while a
    /// helper holds a job.
    pub(crate) fn wait_back(&self, mut land: impl FnMut(J, Option<Panic>)) {
        debug_assert!(!self.helpers.is_empty(), "only a helper can hold a job");
        let shared = &*self.shared;
        spin_until(|| shared.done_len.load(SeqCst) + shared.returned_len.load(SeqCst) > 0);
        while let Some((job, panic)) = shared.pop_done() {
            land(job, panic);
        }
        self.take_returned(land);
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

    /// A job that queues `Add(FOLLOWED * 10)` as its follow-up.
    const FOLLOWED: u64 = 7;

    impl Job for Add {
        fn run(&mut self) -> Option<Self> {
            assert!(self.0 != PANIC, "job {PANIC} panics");
            self.0 += 1;
            (self.0 == FOLLOWED + 1).then_some(Add(FOLLOWED * 10))
        }
    }

    fn named(i: usize) -> thread::Builder {
        thread::Builder::new().name(format!("pool-test-{i}"))
    }

    /// Runs a round of `jobs` and returns the landed values, sorted, and
    /// the number of panics that came back.
    fn round(pool: &Pool<Add>, jobs: &[u64], caller_busy: bool) -> (Vec<u64>, usize) {
        pool.dispatch(jobs.iter().copied().map(Add), caller_busy);
        let (mut landed, mut panics) = (Vec::new(), 0);
        pool.complete(false, |job, panic| {
            landed.push(job.0);
            panics += usize::from(panic.is_some());
        });
        landed.sort_unstable();
        (landed, panics)
    }

    #[test]
    fn every_job_runs_once_and_lands() {
        for helpers in [0, 1, 3] {
            let pool = Pool::new(helpers, named);
            pool.reserve(64);
            for r in 0..50u64 {
                let jobs: Vec<u64> = (0..r % 7).map(|i| 100 + i).collect();
                let (landed, panics) = round(&pool, &jobs, r % 2 == 0);
                assert_eq!(landed, jobs.iter().map(|v| v + 1).collect::<Vec<_>>());
                assert_eq!(panics, 0);
            }
        }
    }

    #[test]
    fn a_panicking_job_lands_every_job_with_its_panic() {
        for helpers in [0, 1, 2] {
            let pool = Pool::new(helpers, named);
            pool.reserve(16);
            let (landed, panics) = round(&pool, &[1, PANIC, 2, PANIC, 3], false);
            assert!(panics >= 1, "helpers={helpers}: the job's panic reaches the caller");
            assert_eq!(landed.len(), 5, "helpers={helpers}: run or not, every job lands");
            // The pool serves the next round.
            assert_eq!(round(&pool, &[5], false), (vec![6], 0));
        }
    }

    #[test]
    fn a_failed_spawn_leaves_the_caller_running_every_job() {
        // No stack of 2^60 bytes can be mapped, so every spawn fails
        // before a thread starts.
        let pool = Pool::new(2, |_| thread::Builder::new().stack_size(1 << 60));
        assert_eq!(pool.helpers(), 0);
        assert_eq!(round(&pool, &[0, 1, 2, 3], false), (vec![1, 2, 3, 4], 0));
        assert_eq!(pool.helper_jobs(), 0);
    }

    /// Background jobs outlive rounds: a helper runs them once the round
    /// lane is empty and returns them with their panics; a recall brings
    /// the unclaimed ones onto the next round, where the caller runs them
    /// if no helper does. Every job comes back exactly once. (A job the
    /// caller claims after a panic of its own comes back unrun; the
    /// panicking job is recalled last here.)
    #[test]
    fn background_jobs_come_back_once_returned_or_recalled() {
        for helpers in [0, 1, 2] {
            let pool = Pool::new(helpers, named);
            pool.reserve(16);
            let mut back = Vec::new();
            let mut panics = 0;
            for v in [10, PANIC, 20, 30] {
                pool.background(Add(v));
            }
            // A round of its own runs beside the queued background jobs.
            assert_eq!(round(&pool, &[1, 2], true), (vec![2, 3], 0));
            // Recall two (unless a helper claimed them) onto the next round.
            let recalled = pool.recall(|job| job.0 == 20 || job.0 == 30);
            assert!(recalled <= 2);
            pool.dispatch(std::iter::empty(), false);
            pool.complete(false, |job, panic| {
                panics += usize::from(panic.is_some());
                back.push(job.0);
            });
            assert_eq!(back.len(), recalled, "helpers={helpers}: every recalled job landed");
            // The rest: returned by a helper, or recalled and run now.
            while back.len() < 4 {
                let _ = pool.recall(|_| true);
                pool.dispatch(std::iter::empty(), false);
                let mut land = |job: Add, panic: Option<Panic>| {
                    panics += usize::from(panic.is_some());
                    back.push(job.0);
                };
                pool.complete(false, &mut land);
                pool.take_returned(&mut land);
            }
            back.sort_unstable();
            assert_eq!(back, [11, 13, 21, 31], "helpers={helpers}: each ran once");
            assert_eq!(panics, 1, "helpers={helpers}: the panic travelled with its job");
        }
    }

    /// A round job's follow-up goes to the background lane from whichever
    /// thread ran the job, and comes back once like any background job.
    #[test]
    fn a_follow_up_job_runs_on_the_background_lane() {
        for helpers in [0, 1, 2] {
            let pool = Pool::new(helpers, named);
            pool.reserve(8);
            assert_eq!(round(&pool, &[1, FOLLOWED, 2], false), (vec![2, 3, 8], 0));
            let mut back = Vec::new();
            while back.is_empty() {
                let _ = pool.recall(|_| true);
                pool.dispatch(std::iter::empty(), false);
                let mut land = |job: Add, _| back.push(job.0);
                pool.complete(false, &mut land);
                pool.take_returned(&mut land);
            }
            assert_eq!(back, [FOLLOWED * 10 + 1], "helpers={helpers}");
        }
    }
}
