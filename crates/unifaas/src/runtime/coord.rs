//! The exactly-once coordinator under [`LiveRuntime`] and [`FabricRuntime`].
//!
//! One state machine carries the function-level fault-tolerance contract
//! (§IV-G) for every real-execution runtime:
//!
//! * **execution at-least-once, resolution exactly-once** — each attempt
//!   is recorded in flight as `(start, attempt, endpoint)`; a result whose
//!   attempt no longer matches (superseded by a fail-over, or arriving
//!   after the task resolved) is dropped;
//! * **bounded retries** — a failed attempt is re-dispatched until
//!   [`LiveRetryPolicy::max_attempts`] is spent, then the last error is
//!   final; an upstream failure is deterministic and never retried;
//! * **health-aware placement** — `Coord::place` skips endpoints the
//!   driver reports unschedulable, then prefers free workers and local
//!   input bytes.
//!
//! The coordinator is sans-IO: it takes no lock, spawns no thread, reads
//! no clock (callers pass `now`) and touches no endpoint. A driver holds it
//! behind its own mutex, makes one transition under the lock, and acts on
//! the returned decision — dispatch, stage, trace, health, backoff — after
//! releasing it. The driver supplies the task body `B` (what to run) and
//! the output type `T` (what a result carries).
//!
//! [`LiveRuntime`]: crate::runtime::live::LiveRuntime
//! [`FabricRuntime`]: crate::runtime::fabric::FabricRuntime

use crate::error::UniFaasError;
use crate::monitor::{HealthMonitor, HealthState};
use fedci::endpoint::EndpointId;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskgraph::TaskId;

/// Retry/timeout policy for the real-execution runtimes (the live
/// analogue of [`RetryPolicy`](crate::config::RetryPolicy)).
///
/// The default — one attempt, no timeout — reproduces the pre-retry
/// behavior exactly: failures propagate immediately and nothing watches
/// the clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveRetryPolicy {
    /// Attempts per task (≥ 1). An application error or timeout on the
    /// last attempt is final.
    pub max_attempts: u32,
    /// Wall-clock budget per attempt; exceeded attempts are presumed
    /// swallowed (crashed worker) and re-dispatched by the `wait_all`
    /// watchdog. `None` disables the watchdog.
    pub task_timeout: Option<Duration>,
    /// Base backoff before retry attempt `k`, doubling per attempt. Zero
    /// disables backoff.
    pub backoff: Duration,
}

impl Default for LiveRetryPolicy {
    fn default() -> Self {
        LiveRetryPolicy {
            max_attempts: 1,
            task_timeout: None,
            backoff: Duration::ZERO,
        }
    }
}

impl LiveRetryPolicy {
    /// Whether an attempt can ever be re-dispatched, so tasks must stay
    /// re-dispatchable while in flight.
    fn enabled(&self) -> bool {
        self.max_attempts > 1 || self.task_timeout.is_some()
    }

    /// Backoff before `attempt` (1-based; the first attempt never waits).
    fn backoff_for(&self, attempt: u32) -> Option<Duration> {
        if attempt <= 1 || self.backoff.is_zero() {
            return None;
        }
        Some(self.backoff * 2u32.saturating_pow((attempt - 2).min(16)))
    }
}

struct Cell<T> {
    slot: Mutex<Option<Result<T, String>>>,
    cond: Condvar,
}

/// A handle to the eventual result of a task (the paper's `Future`).
#[derive(Clone)]
pub struct TaskFuture<T> {
    pub(crate) id: usize,
    cell: Arc<Cell<T>>,
}

impl<T: Clone> TaskFuture<T> {
    fn new(id: usize) -> Self {
        TaskFuture {
            id,
            cell: Arc::new(Cell {
                slot: Mutex::new(None),
                cond: Condvar::new(),
            }),
        }
    }

    /// The task id backing this future.
    pub fn task_id(&self) -> TaskId {
        TaskId(self.id as u32)
    }

    /// Blocks until the task completes, returning its output.
    pub fn wait(&self) -> Result<T, UniFaasError> {
        let mut slot = self.cell.slot.lock();
        while slot.is_none() {
            self.cell.cond.wait(&mut slot);
        }
        match slot.as_ref().expect("checked above") {
            Ok(v) => Ok(v.clone()),
            Err(msg) => Err(UniFaasError::FunctionError {
                task: self.task_id(),
                message: msg.clone(),
            }),
        }
    }

    /// Non-blocking poll.
    pub fn is_done(&self) -> bool {
        self.cell.slot.lock().is_some()
    }

    fn resolve(&self, result: Result<T, String>) {
        let mut slot = self.cell.slot.lock();
        debug_assert!(slot.is_none(), "future resolved twice");
        *slot = Some(result);
        self.cell.cond.notify_all();
    }
}

/// A submitted task: waiting on dependencies, or ready to (re-)dispatch.
#[derive(Clone)]
pub(crate) struct PendingTask<B> {
    /// What to run; owned by the driver.
    pub body: B,
    pub dep_ids: Vec<usize>,
    remaining: usize,
}

/// What [`Coord::start`] hands the driver for one attempt.
pub(crate) struct Attempt<T> {
    pub attempt: u32,
    /// Dependency outputs in `dep_ids` order, or the first failed
    /// dependency `(task, error)`, which dooms this task deterministically.
    pub inputs: Result<Vec<T>, (usize, String)>,
    /// Input bytes produced on endpoints other than the chosen one.
    pub remote_bytes: u64,
}

/// What [`Coord::complete`] decided for one result.
pub(crate) enum Next<B> {
    /// Superseded or duplicate result: dropped.
    Stale,
    /// The attempt failed with budget left: dispatch `task` again after
    /// `backoff`.
    Retry {
        task: PendingTask<B>,
        backoff: Option<Duration>,
    },
    /// The future resolved. `ran` is false when the result never touched
    /// the endpoint (an upstream failure), so it says nothing about
    /// health. `ready` holds dependents whose last input just resolved.
    Finalize {
        failed: bool,
        ran: bool,
        ready: Vec<(usize, PendingTask<B>)>,
    },
}

/// An attempt the watchdog found past its budget, with the error to
/// complete it with.
pub(crate) struct Overdue {
    pub id: usize,
    pub ep: usize,
    pub attempt: u32,
    pub bytes: u64,
    pub error: String,
}

/// One task's row in the slab; a resolved row keeps only its output.
struct Slot<B, T> {
    /// Waiting on dependencies, or kept for re-dispatch while retriable.
    task: Option<PendingTask<B>>,
    /// Tasks waiting on this one's output, once per listing.
    dependents: Vec<usize>,
    /// The future, which holds the outcome once resolved.
    future: TaskFuture<T>,
    /// Once resolved: the endpoint holding the output, and its size.
    at: Option<(usize, u64)>,
    /// In flight or next to start (1-based): the generation guard.
    attempt: u32,
    /// Index into [`Coord::inflight`] while an attempt is in flight.
    inflight: Option<u32>,
}

/// The coordination state: a slab indexed by the dense task id.
pub(crate) struct Coord<B, T> {
    pub retry: LiveRetryPolicy,
    slots: Vec<Slot<B, T>>,
    /// In-flight attempts as (task, start, endpoint): the watchdog's scan.
    inflight: Vec<(usize, Instant, usize)>,
    outstanding: usize,
}

impl<B: Clone, T: Clone> Coord<B, T> {
    pub fn new() -> Self {
        Coord {
            retry: LiveRetryPolicy::default(),
            slots: Vec::new(),
            inflight: Vec::new(),
            outstanding: 0,
        }
    }

    /// Submitted tasks whose futures have not resolved.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Registers a task over `deps`. Returns its future and, when every
    /// dependency has already resolved, the task ready to dispatch.
    pub fn submit(
        &mut self,
        body: B,
        deps: &[&TaskFuture<T>],
    ) -> (TaskFuture<T>, Option<PendingTask<B>>) {
        let id = self.slots.len();
        let future = TaskFuture::new(id);
        let dep_ids: Vec<usize> = deps.iter().map(|d| d.id).collect();
        let mut remaining = 0;
        for &d in &dep_ids {
            let dep = &mut self.slots[d];
            if dep.at.is_none() {
                dep.dependents.push(id);
                remaining += 1;
            }
        }
        let mut task = Some(PendingTask {
            body,
            dep_ids,
            remaining,
        });
        let ready = if remaining == 0 { task.take() } else { None };
        self.slots.push(Slot {
            task,
            dependents: Vec::new(),
            future: future.clone(),
            at: None,
            attempt: 1,
            inflight: None,
        });
        self.outstanding += 1;
        (future, ready)
    }

    /// Picks an endpoint for `task` among `n_endpoints`. `free_workers(ep)`
    /// is the driver's view: `None` when `ep` is unschedulable (failed
    /// probe or Down health), else its free worker count. Maximizes free
    /// workers — any positive count is as good as another — breaking ties
    /// toward the endpoint already holding the most input bytes. When
    /// nothing is schedulable, falls back to endpoint 0: the attempt fails
    /// or times out and the retry machinery keeps going until an endpoint
    /// recovers.
    pub fn place(
        &self,
        task: &PendingTask<B>,
        n_endpoints: usize,
        free_workers: impl Fn(usize) -> Option<i64>,
    ) -> usize {
        let mut best: Option<usize> = None;
        let mut best_key = (i64::MIN, i64::MIN);
        for ep in 0..n_endpoints {
            let Some(free) = free_workers(ep) else {
                continue;
            };
            let local_bytes: i64 = task
                .dep_ids
                .iter()
                .filter_map(|&d| self.slots[d].at)
                .filter(|&(at, _)| at == ep)
                .map(|(_, bytes)| bytes as i64)
                .sum();
            let key = (free.min(1), local_bytes);
            if best.is_none() || key > best_key {
                best_key = key;
                best = Some(ep);
            }
        }
        best.unwrap_or(0)
    }

    /// Starts the next attempt of task `id` on `ep` at `now`: records it in
    /// flight, keeps the task re-dispatchable while retries are possible,
    /// and gathers its dependency outputs.
    pub fn start(
        &mut self,
        id: usize,
        task: &PendingTask<B>,
        ep: usize,
        now: Instant,
    ) -> Attempt<T> {
        let slot = &mut self.slots[id];
        debug_assert!(slot.inflight.is_none(), "task {id} started twice");
        slot.inflight = Some(self.inflight.len() as u32);
        self.inflight.push((id, now, ep));
        let attempt = slot.attempt;
        slot.task = self.retry.enabled().then(|| task.clone());
        let mut outputs = Vec::with_capacity(task.dep_ids.len());
        let mut remote_bytes = 0;
        for &d in &task.dep_ids {
            let dep = &self.slots[d];
            let (at, bytes) = dep.at.expect("dependency resolved");
            if at != ep {
                remote_bytes += bytes;
            }
            match dep.future.cell.slot.lock().clone().expect("resolved") {
                Ok(v) => outputs.push(v),
                Err(e) => {
                    return Attempt {
                        attempt,
                        inputs: Err((d, e)),
                        remote_bytes,
                    }
                }
            }
        }
        Attempt {
            attempt,
            inputs: Ok(outputs),
            remote_bytes,
        }
    }

    /// Applies the outcome of attempt `attempt` of task `id` on `ep`,
    /// whose output occupies `bytes` there. `can_retry` is false for
    /// upstream failures, which retrying cannot change.
    pub fn complete(
        &mut self,
        id: usize,
        ep: usize,
        attempt: u32,
        result: Result<T, String>,
        bytes: u64,
        can_retry: bool,
    ) -> Next<B> {
        match self.slots.get(id) {
            Some(s) if s.attempt == attempt && s.inflight.is_some() => {}
            _ => return Next::Stale,
        }
        let slot = &mut self.slots[id];
        let i = slot.inflight.take().expect("in flight") as usize;
        self.inflight.swap_remove(i);
        if let Some(&(moved, ..)) = self.inflight.get(i) {
            self.slots[moved].inflight = Some(i as u32);
        }
        let slot = &mut self.slots[id];
        if result.is_err() && can_retry && attempt < self.retry.max_attempts {
            slot.attempt = attempt + 1;
            let task = slot.task.clone().expect("retriable recorded");
            return Next::Retry {
                task,
                backoff: self.retry.backoff_for(attempt + 1),
            };
        }
        slot.task = None;
        let failed = result.is_err();
        slot.at = Some((ep, bytes));
        slot.future.resolve(result);
        self.outstanding -= 1;
        let mut ready = Vec::new();
        for dep in std::mem::take(&mut slot.dependents) {
            let waiting = &mut self.slots[dep].task;
            if let Some(t) = waiting {
                t.remaining -= 1;
                if t.remaining == 0 {
                    ready.push((dep, waiting.take().expect("present")));
                }
            }
        }
        Next::Finalize {
            failed,
            ran: can_retry,
            ready,
        }
    }

    /// The watchdog's scan: attempts in flight for `timeout` or longer at
    /// `now`, each to be completed with its timeout error. `bytes` gives
    /// the output size to record for a body should its timeout be final.
    pub fn overdue(
        &self,
        now: Instant,
        timeout: Duration,
        bytes: impl Fn(&B) -> u64,
    ) -> Vec<Overdue> {
        self.inflight
            .iter()
            .filter(|(_, start, _)| now.saturating_duration_since(*start) >= timeout)
            .map(|&(id, _, ep)| {
                let (attempt, task) = (self.slots[id].attempt, &self.slots[id].task);
                Overdue {
                    id,
                    ep,
                    attempt,
                    bytes: task.as_ref().map_or(0, |t| bytes(&t.body)),
                    error: format!("attempt {attempt} timed out after {timeout:?}"),
                }
            })
            .collect()
    }
}

/// Folds an attempt outcome on `ep` into `health`, returning the state
/// transition it caused.
pub(crate) fn record_outcome(
    health: &mut HealthMonitor,
    ep: usize,
    success: bool,
) -> Option<HealthState> {
    let id = EndpointId(ep as u16);
    if success {
        health.record_success(id)
    } else {
        health.record_failure(id)
    }
}

#[cfg(test)]
#[path = "coord_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    type C = Coord<(), u32>;

    const TIMEOUT: Duration = Duration::from_secs(10);

    fn with_retry(max_attempts: u32, task_timeout: Option<Duration>) -> C {
        let mut c = C::new();
        c.retry = LiveRetryPolicy {
            max_attempts,
            task_timeout,
            backoff: Duration::from_millis(1),
        };
        c
    }

    fn submit_ready(c: &mut C, deps: &[&TaskFuture<u32>]) -> (TaskFuture<u32>, PendingTask<()>) {
        let (f, ready) = c.submit((), deps);
        (f, ready.expect("every dependency resolved"))
    }

    /// Runs task `id` on `ep` to completion with `out`, returning the
    /// dependents it released.
    fn finish(
        c: &mut C,
        id: usize,
        task: &PendingTask<()>,
        ep: usize,
        out: u32,
        bytes: u64,
    ) -> Vec<(usize, PendingTask<()>)> {
        let a = c.start(id, task, ep, Instant::now());
        match c.complete(id, ep, a.attempt, Ok(out), bytes, true) {
            Next::Finalize { ready, .. } => ready,
            _ => panic!("a success finalizes"),
        }
    }

    /// Fails every attempt of task `id` until the coordinator finalizes
    /// it; returns the attempts made and the dependents released.
    fn fail_to_the_end(
        c: &mut C,
        id: usize,
        mut task: PendingTask<()>,
    ) -> (u32, Vec<(usize, PendingTask<()>)>) {
        loop {
            let a = c.start(id, &task, 0, Instant::now());
            let err = Err(format!("error {}", a.attempt));
            match c.complete(id, 0, a.attempt, err, 0, true) {
                Next::Retry { task: t, .. } => task = t,
                Next::Finalize { failed, ran, ready } => {
                    assert!(failed && ran);
                    return (a.attempt, ready);
                }
                Next::Stale => panic!("the current attempt is never stale"),
            }
        }
    }

    fn error_of(f: &TaskFuture<u32>) -> String {
        match f.wait() {
            Err(UniFaasError::FunctionError { message, .. }) => message,
            other => panic!("expected a function error, got {other:?}"),
        }
    }

    #[test]
    fn result_of_a_superseded_attempt_is_dropped() {
        let mut c = with_retry(3, Some(TIMEOUT));
        let (f, task) = submit_ready(&mut c, &[]);
        let t0 = Instant::now();
        assert_eq!(c.start(0, &task, 0, t0).attempt, 1);
        assert!(c.overdue(t0 + TIMEOUT / 2, TIMEOUT, |_| 0).is_empty());
        let late = c.overdue(t0 + TIMEOUT, TIMEOUT, |_| 0);
        assert_eq!(late.len(), 1);
        let o = &late[0];
        assert_eq!((o.id, o.ep, o.attempt), (0, 0, 1));
        assert_eq!(o.error, "attempt 1 timed out after 10s");
        let Next::Retry { task, .. } = c.complete(0, 0, 1, Err(o.error.clone()), 0, true) else {
            panic!("a timed-out attempt with budget left is retried");
        };
        assert_eq!(c.start(0, &task, 1, t0 + TIMEOUT).attempt, 2);
        // The swallowed first attempt reports after all.
        assert!(matches!(c.complete(0, 0, 1, Ok(7), 0, true), Next::Stale));
        assert!(!f.is_done());
        assert!(matches!(
            c.complete(0, 1, 2, Ok(8), 0, true),
            Next::Finalize {
                failed: false,
                ran: true,
                ..
            }
        ));
        assert_eq!(f.wait().unwrap(), 8);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn duplicate_result_after_finalize_is_dropped() {
        let mut c = with_retry(3, Some(TIMEOUT));
        let (f, task) = submit_ready(&mut c, &[]);
        c.start(0, &task, 0, Instant::now());
        assert!(matches!(
            c.complete(0, 0, 1, Ok(5), 4, true),
            Next::Finalize { .. }
        ));
        assert!(matches!(c.complete(0, 0, 1, Ok(6), 4, true), Next::Stale));
        assert!(matches!(
            c.complete(0, 0, 1, Err("late".into()), 0, true),
            Next::Stale
        ));
        assert_eq!(f.wait().unwrap(), 5);
        assert_eq!(c.outstanding(), 0);
        assert!(c
            .overdue(Instant::now() + TIMEOUT, TIMEOUT, |_| 0)
            .is_empty());
    }

    #[test]
    fn exactly_max_attempts_then_the_last_error_is_final() {
        let mut c = with_retry(3, None);
        let (f, mut task) = submit_ready(&mut c, &[]);
        let mut backoffs = Vec::new();
        for attempt in 1..=3 {
            let a = c.start(0, &task, 0, Instant::now());
            assert_eq!(a.attempt, attempt);
            match c.complete(0, 0, attempt, Err(format!("error {attempt}")), 0, true) {
                Next::Retry { task: t, backoff } => {
                    task = t;
                    backoffs.push(backoff);
                }
                Next::Finalize { failed, .. } => {
                    assert!(failed);
                    assert_eq!(attempt, 3, "finalized only once the budget is spent");
                }
                Next::Stale => panic!("the current attempt is never stale"),
            }
        }
        let ms = Duration::from_millis;
        assert_eq!(backoffs, [Some(ms(1)), Some(ms(2))], "backoff doubles");
        assert_eq!(error_of(&f), "error 3");
    }

    #[test]
    fn upstream_failure_finalizes_without_a_retry_or_health_evidence() {
        let mut c = with_retry(3, None);
        let (parent, pt) = submit_ready(&mut c, &[]);
        let (child, ready) = c.submit((), &[&parent]);
        assert!(ready.is_none());
        let (attempts, released) = fail_to_the_end(&mut c, 0, pt);
        assert_eq!(attempts, 3);
        let [(id, ct)]: [_; 1] = released.try_into().ok().expect("child released");
        assert_eq!(id, 1);
        let a = c.start(id, &ct, 1, Instant::now());
        assert_eq!(a.attempt, 1);
        let Err((up, e)) = a.inputs else {
            panic!("a failed dependency dooms the attempt");
        };
        assert_eq!((up, e.as_str()), (0, "error 3"));
        let msg = format!("upstream task {up} failed");
        assert!(matches!(
            c.complete(id, 1, 1, Err(msg.clone()), 0, false),
            Next::Finalize {
                failed: true,
                ran: false,
                ..
            }
        ));
        assert_eq!(error_of(&child), msg);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn fan_in_dependent_is_released_exactly_once() {
        let mut c = C::new();
        let (a, ta) = submit_ready(&mut c, &[]);
        assert!(finish(&mut c, 0, &ta, 0, 10, 0).is_empty());
        let (b, tb) = submit_ready(&mut c, &[]);
        let (d, td) = submit_ready(&mut c, &[]);
        // `a` already resolved; `b` is listed twice.
        let (_, ready) = c.submit((), &[&a, &b, &d, &b]);
        assert!(ready.is_none());
        assert!(finish(&mut c, 1, &tb, 0, 20, 0).is_empty());
        assert!(matches!(c.complete(1, 0, 1, Ok(20), 0, true), Next::Stale));
        let released = finish(&mut c, 2, &td, 1, 30, 0);
        assert_eq!(released.len(), 1);
        let (id, task) = &released[0];
        assert_eq!((*id, task.dep_ids.as_slice()), (3, &[0, 1, 2, 1][..]));
        let inputs = c.start(3, task, 0, Instant::now()).inputs;
        assert_eq!(inputs.ok(), Some(vec![10, 20, 30, 20]));
        assert!(matches!(c.complete(2, 1, 1, Ok(30), 0, true), Next::Stale));
    }

    #[test]
    fn place_skips_unschedulable_and_breaks_free_worker_ties_by_local_bytes() {
        let mut c = C::new();
        let (x, tx) = submit_ready(&mut c, &[]);
        finish(&mut c, 0, &tx, 1, 0, 100);
        let (y, ty) = submit_ready(&mut c, &[]);
        finish(&mut c, 1, &ty, 2, 0, 10);
        let (_, task) = submit_ready(&mut c, &[&x, &y]);
        let place = |view: [Option<i64>; 3]| c.place(&task, 3, |ep| view[ep]);
        // Endpoint 0 has the most free workers but is unschedulable; any
        // positive free count ties, and endpoint 1 holds the most bytes.
        assert_eq!(place([None, Some(2), Some(5)]), 1);
        assert_eq!(place([Some(9), Some(1), Some(1)]), 1);
        // A saturated endpoint loses to any free one, whatever it holds.
        assert_eq!(place([Some(9), Some(0), Some(1)]), 2);
        assert_eq!(place([Some(-1), Some(0), None]), 1);
        // Nothing schedulable: fall back to endpoint 0.
        assert_eq!(place([None, None, None]), 0);
        let start = c.start(2, &task, 2, Instant::now());
        assert_eq!(start.remote_bytes, 100);
    }
    /// The slab and the map-based oracle side by side, driven through the
    /// same history the way a driver would.
    struct Twin {
        slab: Coord<u32, u32>,
        maps: oracle::MapCoord<u32, u32>,
        futures: Vec<(TaskFuture<u32>, TaskFuture<u32>)>,
        /// Tasks ready to start: id, the slab's copy, the oracle's copy.
        ready: Vec<(usize, PendingTask<u32>, PendingTask<u32>)>,
        /// Attempts started and not completed: (id, attempt, ep).
        flying: Vec<(usize, u32, usize)>,
        /// Every attempt ever started, replayed as stale and duplicate
        /// results.
        started: Vec<(usize, u32, usize)>,
        now: Instant,
        /// Decisions seen: stale, retry, upstream failure, timeout.
        seen: [u32; 4],
    }

    fn same_task(a: &PendingTask<u32>, b: &PendingTask<u32>) {
        assert_eq!(
            (a.body, &a.dep_ids, a.remaining),
            (b.body, &b.dep_ids, b.remaining)
        );
    }

    fn outcome(f: &TaskFuture<u32>) -> Option<Result<u32, String>> {
        f.is_done().then(|| f.wait().map_err(|e| e.to_string()))
    }

    impl Twin {
        fn new(retry: LiveRetryPolicy) -> Twin {
            let mut slab = Coord::new();
            let mut maps = oracle::MapCoord::new();
            slab.retry = retry;
            maps.retry = retry;
            Twin {
                slab,
                maps,
                futures: Vec::new(),
                ready: Vec::new(),
                flying: Vec::new(),
                started: Vec::new(),
                now: Instant::now(),
                seen: [0; 4],
            }
        }

        fn submit(&mut self, deps: &[usize]) {
            let body = self.futures.len() as u32;
            let a: Vec<_> = deps.iter().map(|&d| &self.futures[d].0).collect();
            let (fa, ra) = self.slab.submit(body, &a);
            let b: Vec<_> = deps.iter().map(|&d| &self.futures[d].1).collect();
            let (fb, rb) = self.maps.submit(body, &b);
            assert_eq!(fa.id, fb.id);
            match (ra, rb) {
                (Some(ta), Some(tb)) => {
                    same_task(&ta, &tb);
                    self.ready.push((fa.id, ta, tb));
                }
                (None, None) => {}
                _ => panic!("task {} ready in one coordinator only", fa.id),
            }
            self.futures.push((fa, fb));
        }

        /// Places and starts ready task `k` under the endpoint view
        /// `view`; a doomed attempt completes as an upstream failure.
        fn start(&mut self, k: usize, view: [Option<i64>; 3]) {
            let (id, ta, tb) = self.ready.swap_remove(k);
            let ep = self.slab.place(&ta, 3, |e| view[e]);
            assert_eq!(ep, self.maps.place(&tb, 3, |e| view[e]));
            let a = self.slab.start(id, &ta, ep, self.now);
            let b = self.maps.start(id, &tb, ep, self.now);
            assert_eq!(
                (a.attempt, &a.inputs, a.remote_bytes),
                (b.attempt, &b.inputs, b.remote_bytes)
            );
            self.started.push((id, a.attempt, ep));
            match a.inputs {
                Ok(_) => self.flying.push((id, a.attempt, ep)),
                Err((d, _)) => {
                    let msg = format!("upstream task {d} failed");
                    self.complete(id, ep, a.attempt, Err(msg), 0, false);
                }
            }
        }

        fn complete(
            &mut self,
            id: usize,
            ep: usize,
            attempt: u32,
            result: Result<u32, String>,
            bytes: u64,
            can_retry: bool,
        ) {
            let a = self
                .slab
                .complete(id, ep, attempt, result.clone(), bytes, can_retry);
            let b = self
                .maps
                .complete(id, ep, attempt, result, bytes, can_retry);
            let released = match (a, b) {
                (Next::Stale, Next::Stale) => {
                    self.seen[0] += 1;
                    return;
                }
                (
                    Next::Retry {
                        task: ta,
                        backoff: ba,
                    },
                    Next::Retry {
                        task: tb,
                        backoff: bb,
                    },
                ) => {
                    assert_eq!(ba, bb);
                    self.seen[1] += 1;
                    vec![(id, ta, tb)]
                }
                (
                    Next::Finalize {
                        failed: fa,
                        ran: ra,
                        ready: a,
                    },
                    Next::Finalize {
                        failed: fb,
                        ran: rb,
                        ready: b,
                    },
                ) => {
                    assert_eq!((fa, ra, a.len()), (fb, rb, b.len()));
                    self.seen[2] += u32::from(!ra);
                    a.into_iter()
                        .zip(b)
                        .map(|((ia, ta), (ib, tb))| {
                            assert_eq!(ia, ib);
                            (ia, ta, tb)
                        })
                        .collect()
                }
                _ => panic!("task {id} attempt {attempt}: the coordinators disagree"),
            };
            for (rid, ta, tb) in released {
                same_task(&ta, &tb);
                self.ready.push((rid, ta, tb));
            }
            self.flying.retain(|f| (f.0, f.1) != (id, attempt));
        }

        /// Runs the watchdog scan on both, then completes what it found.
        fn overdue(&mut self, timeout: Duration) {
            let key = |o: &Overdue| (o.id, o.ep, o.attempt, o.bytes, o.error.clone());
            let mut a: Vec<_> = self.slab.overdue(self.now, timeout, |b| u64::from(*b));
            let mut b: Vec<_> = self.maps.overdue(self.now, timeout, |b| u64::from(*b));
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(
                a.iter().map(key).collect::<Vec<_>>(),
                b.iter().map(key).collect::<Vec<_>>()
            );
            self.seen[3] += a.len() as u32;
            for o in a {
                self.complete(o.id, o.ep, o.attempt, Err(o.error), o.bytes, true);
            }
        }

        fn check_futures(&self) {
            for (a, b) in &self.futures {
                assert_eq!(outcome(a), outcome(b), "future {}", a.id);
            }
        }
    }

    #[test]
    fn slab_matches_the_map_based_oracle_on_random_histories() {
        use simkit::rng::SimRng;
        const TIMEOUT: Duration = Duration::from_millis(10);
        let mut seen = [0; 4];
        for seed in 0..300u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut t = Twin::new(LiveRetryPolicy {
                max_attempts: rng.uniform_usize(1, 4) as u32,
                task_timeout: Some(TIMEOUT),
                backoff: Duration::from_millis(rng.uniform_usize(0, 2) as u64),
            });
            for _ in 0..400 {
                t.now += Duration::from_micros(rng.uniform_usize(0, 4000) as u64);
                let n = t.futures.len();
                match rng.uniform_usize(0, 10) {
                    0..=2 => {
                        let k = if n == 0 { 0 } else { rng.uniform_usize(0, 4) };
                        let deps: Vec<usize> = (0..k).map(|_| rng.uniform_usize(0, n)).collect();
                        t.submit(&deps);
                    }
                    3..=4 if !t.ready.is_empty() => {
                        let k = rng.uniform_usize(0, t.ready.len());
                        let mut view = [None; 3];
                        for v in &mut view {
                            *v = rng.chance(0.8).then(|| rng.uniform_usize(0, 3) as i64 - 1);
                        }
                        t.start(k, view);
                    }
                    5..=6 if !t.flying.is_empty() => {
                        let (id, attempt, ep) = t.flying[rng.uniform_usize(0, t.flying.len())];
                        let result = if rng.chance(0.6) {
                            Ok(rng.uniform_usize(0, 1000) as u32)
                        } else {
                            Err(format!("error {id}/{attempt}"))
                        };
                        let bytes = rng.uniform_usize(0, 100) as u64;
                        t.complete(id, ep, attempt, result, bytes, true);
                    }
                    // A replayed, duplicate or superseded result; or one
                    // for a task nobody submitted.
                    7 if !t.started.is_empty() => {
                        let (id, attempt, ep) = t.started[rng.uniform_usize(0, t.started.len())];
                        t.complete(id, ep, attempt, Ok(99), 1, true);
                    }
                    7 => t.complete(n + 3, 0, 1, Ok(0), 0, true),
                    8 => t.overdue(TIMEOUT),
                    _ => {}
                }
                assert_eq!(t.slab.outstanding(), t.maps.outstanding());
            }
            t.check_futures();
            for (s, n) in seen.iter_mut().zip(t.seen) {
                *s += n;
            }
        }
        // Every kind of decision the drivers act on came up.
        assert!(seen.iter().all(|&n| n > 100), "{seen:?}");
    }
}
