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
use std::collections::HashMap;
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

/// A resolved task: where its output lives, its size, and the outcome.
struct Produced<T> {
    ep: usize,
    bytes: u64,
    result: Result<T, String>,
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

/// The coordination tables. See the module docs.
pub(crate) struct Coord<B, T> {
    pub retry: LiveRetryPolicy,
    pending: HashMap<usize, PendingTask<B>>,
    dependents: HashMap<usize, Vec<usize>>,
    produced: HashMap<usize, Produced<T>>,
    /// Futures of unresolved tasks.
    futures: HashMap<usize, TaskFuture<T>>,
    next_id: usize,
    outstanding: usize,
    /// Next attempt number per task (absent = first attempt).
    attempts: HashMap<usize, u32>,
    /// In-flight attempts: task → (start, attempt, endpoint). The attempt
    /// number is the generation guard.
    inflight: HashMap<usize, (Instant, u32, usize)>,
    /// Tasks kept re-dispatchable while retries are still possible.
    retriable: HashMap<usize, PendingTask<B>>,
}

impl<B: Clone, T: Clone> Coord<B, T> {
    pub fn new() -> Self {
        Coord {
            retry: LiveRetryPolicy::default(),
            pending: HashMap::new(),
            dependents: HashMap::new(),
            produced: HashMap::new(),
            futures: HashMap::new(),
            next_id: 0,
            outstanding: 0,
            attempts: HashMap::new(),
            inflight: HashMap::new(),
            retriable: HashMap::new(),
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
        let id = self.next_id;
        self.next_id += 1;
        let future = TaskFuture::new(id);
        self.futures.insert(id, future.clone());
        self.outstanding += 1;
        let dep_ids: Vec<usize> = deps.iter().map(|d| d.id).collect();
        let mut remaining = 0;
        for &d in &dep_ids {
            if !self.produced.contains_key(&d) {
                self.dependents.entry(d).or_default().push(id);
                remaining += 1;
            }
        }
        let task = PendingTask {
            body,
            dep_ids,
            remaining,
        };
        if remaining == 0 {
            return (future, Some(task));
        }
        self.pending.insert(id, task);
        (future, None)
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
                .filter_map(|d| self.produced.get(d))
                .filter(|p| p.ep == ep)
                .map(|p| p.bytes as i64)
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
        let attempt = self.attempts.get(&id).copied().unwrap_or(1);
        self.inflight.insert(id, (now, attempt, ep));
        if self.retry.enabled() {
            self.retriable.insert(id, task.clone());
        }
        let mut outputs = Vec::with_capacity(task.dep_ids.len());
        let mut remote_bytes = 0;
        for &d in &task.dep_ids {
            let p = self.produced.get(&d).expect("dependency resolved");
            if p.ep != ep {
                remote_bytes += p.bytes;
            }
            match &p.result {
                Ok(v) => outputs.push(v.clone()),
                Err(e) => {
                    return Attempt {
                        attempt,
                        inputs: Err((d, e.clone())),
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
        match self.inflight.get(&id) {
            Some(&(_, a, _)) if a == attempt => {}
            _ => return Next::Stale,
        }
        self.inflight.remove(&id);
        if result.is_err() && can_retry && attempt < self.retry.max_attempts {
            self.attempts.insert(id, attempt + 1);
            let task = self.retriable.get(&id).expect("retriable recorded").clone();
            return Next::Retry {
                task,
                backoff: self.retry.backoff_for(attempt + 1),
            };
        }
        self.retriable.remove(&id);
        self.attempts.remove(&id);
        let failed = result.is_err();
        let future = self.futures.remove(&id).expect("future exists");
        self.produced.insert(
            id,
            Produced {
                ep,
                bytes,
                result: result.clone(),
            },
        );
        future.resolve(result);
        self.outstanding -= 1;
        let mut ready = Vec::new();
        for dep in self.dependents.remove(&id).unwrap_or_default() {
            if let Some(t) = self.pending.get_mut(&dep) {
                t.remaining -= 1;
                if t.remaining == 0 {
                    ready.push((dep, self.pending.remove(&dep).expect("present")));
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
            .filter(|(_, (start, _, _))| now.saturating_duration_since(*start) >= timeout)
            .map(|(&id, &(_, attempt, ep))| Overdue {
                id,
                ep,
                attempt,
                bytes: self.retriable.get(&id).map_or(0, |t| bytes(&t.body)),
                error: format!("attempt {attempt} timed out after {timeout:?}"),
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
}
