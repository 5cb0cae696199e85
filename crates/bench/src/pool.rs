//! A bounded work-stealing thread pool on `std::thread::scope`.
//!
//! The harness runs dozens of independent, CPU-bound, deterministic
//! simulations (experiments, sweep points, trial ladders). This pool
//! saturates the machine without any external crates:
//!
//! - jobs are indexed up front and a shared **injector** hands each
//!   worker a contiguous chunk at a time (cheap under low contention);
//! - each worker owns a **deque**: it pops locally from the front and,
//!   when both its deque and the injector are empty, **steals** one job
//!   from the back of a sibling's deque, so stragglers' queues drain
//!   instead of idling the rest of the machine;
//! - worker count is capped at [`std::thread::available_parallelism`]
//!   (and at the job count), and a pool started from inside another
//!   multi-worker pool's job runs its jobs inline on that worker, so
//!   nested pools degrade to serial execution rather than
//!   oversubscribing;
//! - results land in their job's slot, so the output order — and
//!   therefore every downstream artifact — is **identical to a serial
//!   run** regardless of scheduling.
//!
//! The caller's thread participates as worker 0: `run` never blocks a
//! core on pure coordination.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::Mutex;

thread_local! {
    /// Set while this thread works for a multi-worker pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, then
/// restores the previous mark (the caller's thread is worker 0 and
/// outlives the pool).
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> Self {
        WorkerMark(IN_POOL.with(|f| f.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(self.0));
    }
}

/// A bounded pool; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A pool capped at the machine's available parallelism.
    pub fn new() -> Self {
        let n = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Pool::with_workers(n)
    }

    /// A pool with an explicit worker cap (≥ 1). Used by the harness's
    /// determinism tests to force serial and parallel schedules.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        Pool { workers }
    }

    /// The worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job, returning results in job order.
    ///
    /// Jobs must be independent; they may freely use nested pools. A
    /// pool run from inside another multi-worker pool's job runs its
    /// jobs inline on that worker's thread, in job order: the outer
    /// pool already keeps every core busy.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = if IN_POOL.with(Cell::get) { 1 } else { self.workers.min(n) };
        if workers == 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }

        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let injector = Mutex::new((0..n).collect::<VecDeque<usize>>());
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // Refill granularity: large enough to amortize the injector
        // lock, small enough to leave stealable work behind.
        let chunk = (n / (workers * 4)).max(1);

        let worker_loop = |me: usize| loop {
            // 1. Local work, front first (cache-warm order).
            let idx = deques[me].lock().expect("deque poisoned").pop_front();
            let idx = match idx {
                Some(i) => Some(i),
                None => {
                    // 2. Refill a chunk from the shared injector.
                    let mut inj = injector.lock().expect("injector poisoned");
                    let grabbed: Vec<usize> = (0..chunk).map_while(|_| inj.pop_front()).collect();
                    drop(inj);
                    let mut first = None;
                    if !grabbed.is_empty() {
                        let mut dq = deques[me].lock().expect("deque poisoned");
                        let mut it = grabbed.into_iter();
                        first = it.next();
                        dq.extend(it);
                    }
                    match first {
                        Some(i) => Some(i),
                        // 3. Steal one job from the back of a sibling.
                        None => (0..workers)
                            .filter(|&w| w != me)
                            .find_map(|w| deques[w].lock().expect("deque poisoned").pop_back()),
                    }
                }
            };
            let Some(idx) = idx else {
                break; // nothing local, injector dry, nothing to steal
            };
            let job = slots[idx].lock().expect("job slot poisoned").take().expect("job ran twice");
            let out = job();
            *results[idx].lock().expect("result slot poisoned") = Some(out);
        };

        std::thread::scope(|scope| {
            for w in 1..workers {
                scope.spawn(move || {
                    let _mark = WorkerMark::enter();
                    worker_loop(w)
                });
            }
            let _mark = WorkerMark::enter();
            worker_loop(0); // the caller works too
        });

        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited with jobs unfinished")
            })
            .collect()
    }

    /// Maps `f` over `items` in parallel, preserving order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.run(items.into_iter().map(|item| move || f(item)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let pool = Pool::with_workers(4);
        let out = pool.map((0..100u64).collect(), |i| i * i);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = Pool::with_workers(8);
        let out = pool.map((0..257usize).collect(), |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn serial_and_parallel_schedules_agree() {
        let work = |seed: u64| {
            // A little deterministic number crunching.
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let serial = Pool::with_workers(1).map((0..64u64).collect(), work);
        let parallel = Pool::with_workers(6).map((0..64u64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        let out = Pool::new().run(jobs);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_jobs_all_complete() {
        // Stragglers at the front force the refill + steal paths.
        let pool = Pool::with_workers(4);
        let out = pool.map((0..40u64).collect(), |i| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = i;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, *j);
        }
    }

    #[test]
    fn nested_pools_do_not_deadlock() {
        let outer = Pool::with_workers(3);
        let sums = outer.map((0..6u64).collect(), |i| {
            let inner = Pool::with_workers(2);
            inner.map((0..10u64).collect(), move |j| i * 100 + j).into_iter().sum::<u64>()
        });
        assert_eq!(sums.len(), 6);
        assert_eq!(sums[1], (100..110u64).sum::<u64>());
    }

    #[test]
    fn nested_pool_runs_inline_on_the_calling_worker() {
        let outer = Pool::with_workers(3);
        let rows = outer.map((0..6u64).collect(), |i| {
            let me = std::thread::current().id();
            let inner = Pool::with_workers(4);
            let jobs = inner
                .map((0..10u64).collect(), move |j| (i * 100 + j, std::thread::current().id()));
            (me, jobs)
        });
        for (i, (me, jobs)) in rows.iter().enumerate() {
            let values: Vec<u64> = jobs.iter().map(|(v, _)| *v).collect();
            assert_eq!(values, (0..10).map(|j| i as u64 * 100 + j).collect::<Vec<_>>());
            assert!(jobs.iter().all(|(_, t)| t == me), "a nested job left its worker's thread");
        }
        // Outside any pool, the mark is clear again: a fresh pool fans out.
        assert!(!IN_POOL.with(Cell::get));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::with_workers(0);
    }
}
