//! The map-based [`Coord`](super::Coord) that the dense slab replaced,
//! kept as the differential oracle for `coord::tests`: the same API and
//! decisions over seven id-keyed `HashMap`s. Test-only.

use super::{Attempt, LiveRetryPolicy, Next, Overdue, PendingTask, TaskFuture};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A resolved task: where its output lives, its size, and the outcome.
struct Produced<T> {
    ep: usize,
    bytes: u64,
    result: Result<T, String>,
}

/// The map-based coordinator: one id-keyed table per concern.
pub(crate) struct MapCoord<B, T> {
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

impl<B: Clone, T: Clone> MapCoord<B, T> {
    pub fn new() -> Self {
        MapCoord {
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
