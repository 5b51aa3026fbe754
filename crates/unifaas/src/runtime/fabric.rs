//! The fabric runtime: one client path over every live backend.
//!
//! [`FabricRuntime`] drives the same exactly-once
//! [`coord`](crate::runtime::coord) state machine as
//! [`LiveRuntime`](crate::runtime::live::LiveRuntime) — attempt-generation
//! guards, a straggler watchdog, health-filtered placement — but speaks
//! [`fedci::fabric::Fabric`], so the identical code drives in-process
//! worker pools ([`ThreadedFabric`](fedci::fabric::ThreadedFabric)) and
//! process-isolated TCP endpoints
//! ([`ProcessFabric`](fedci::process::ProcessFabric)). That is the point:
//! when a chaos test SIGKILLs a daemon, the recovery it exercises is the
//! one machinery every backend shares.
//!
//! Work is a *named function over bytes* — the only shape that crosses a
//! process boundary. A task's input is the concatenation of its
//! dependencies' outputs (staged to the executing endpoint as keyed
//! blobs) followed by its payload.
//!
//! Robustness contract, mirrored from the simulated runtime (§IV-G):
//!
//! * **execution at-least-once, resolution exactly-once** — a RESULT for
//!   a superseded attempt (the endpoint was declared dead and the task
//!   failed over) no longer matches the in-flight `(task, attempt)`
//!   record and is dropped;
//! * **fail-over exactly once per loss** — a dead connection fails every
//!   in-flight attempt through the same `complete` path an application
//!   error takes, so the retry budget and backoff apply uniformly;
//! * **probes feed health** — the fabric's heartbeat/liveness verdict
//!   ([`ProbeState`]) is folded into the [`HealthMonitor`] by the
//!   watchdog: a Dead probe forces Down, a recovered probe re-admits the
//!   endpoint via Recovering, and attempt outcomes keep their usual
//!   weight in between. Placement filters on both.

use crate::monitor::{HealthMonitor, HealthState};
use crate::runtime::coord::{record_outcome, Coord, Next, PendingTask, TaskFuture};
use fedci::endpoint::EndpointId;
use fedci::fabric::{Fabric, JobSpec, ProbeState};
use parking_lot::{Condvar, Mutex};
use simkit::time::SimTime;
use simkit::trace::{LabelId, TraceLevel, Tracer};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

pub use crate::runtime::coord::LiveRetryPolicy;

/// Result bytes of one task.
pub type WireResult = fedci::fabric::JobOutput;

/// A handle to the eventual byte result of a fabric task.
pub type WireFuture = TaskFuture<Arc<Vec<u8>>>;

/// Labels for the client-side trace, interned once at setup so the hot
/// path emits only ids.
struct ClientLabels {
    track: LabelId,
    submit: LabelId,
    attempt: LabelId,
    dispatch: LabelId,
    result: LabelId,
    retry: LabelId,
    timeout: LabelId,
    resolve: LabelId,
}

/// Wall-clock tracer for the client half of a fabric run.
///
/// Timestamps are microseconds since the fabric's
/// [`clock_epoch`](Fabric::clock_epoch) — the same zero the process
/// backend's clock-alignment estimator maps daemon stamps onto, so a
/// client trace and offset-corrected daemon telemetry merge onto one
/// timeline without further adjustment.
struct ClientTrace {
    epoch: Instant,
    labels: ClientLabels,
    tracer: Mutex<Tracer>,
}

/// Ring capacity of the client trace: comfortably holds every event of a
/// million-task run at ~6 records per task once the ring wraps old noise.
const CLIENT_TRACE_CAPACITY: usize = 1 << 21;

impl ClientTrace {
    fn new(level: TraceLevel, epoch: Instant) -> ClientTrace {
        let mut tracer = Tracer::new(level, CLIENT_TRACE_CAPACITY);
        let labels = ClientLabels {
            track: tracer.intern("client"),
            submit: tracer.intern("c.submit"),
            attempt: tracer.intern("c.attempt"),
            dispatch: tracer.intern("c.dispatch"),
            result: tracer.intern("c.result"),
            retry: tracer.intern("c.retry"),
            timeout: tracer.intern("c.timeout"),
            resolve: tracer.intern("c.resolve"),
        };
        ClientTrace {
            epoch,
            labels,
            tracer: Mutex::new(tracer),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn instant(&self, name: LabelId, id: u64, arg: i64) {
        let at = self.now();
        self.tracer
            .lock()
            .instant(at, name, self.labels.track, id, arg);
    }

    fn begin(&self, name: LabelId, id: u64) {
        let at = self.now();
        self.tracer.lock().begin(at, name, self.labels.track, id);
    }

    fn end(&self, name: LabelId, id: u64) {
        let at = self.now();
        self.tracer.lock().end(at, name, self.labels.track, id);
    }
}

/// Span correlation id for one attempt: spans are matched by `(name, id)`,
/// so retries of the same task must not collide.
fn attempt_span_id(task: usize, attempt: u32) -> u64 {
    ((task as u64) << 32) | u64::from(attempt)
}

/// What a fabric task runs: a registered function name and its payload.
#[derive(Clone)]
struct Body {
    function: Arc<str>,
    payload: Vec<u8>,
}

/// Aggregate robustness statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricRunStats {
    /// Attempts dispatched to the fabric (retries included).
    pub dispatched: u64,
    /// Tasks resolved (success or final failure).
    pub completed: u64,
    /// Attempts that failed and were re-dispatched.
    pub retries: u64,
    /// Attempts the watchdog timed out (a subset of `retries` unless the
    /// budget was exhausted).
    pub watchdog_timeouts: u64,
}

/// The coordinator plus this runtime's counters, under one lock.
struct State {
    coord: Coord<Body, Arc<Vec<u8>>>,
    stats: FabricRunStats,
}

/// State shared with fabric completions (which run on fabric threads) and
/// backoff timers.
struct Inner {
    fabric: Arc<dyn Fabric>,
    state: Mutex<State>,
    done_cond: Condvar,
    /// Read-held by each completion from its decision until its records
    /// land (see `Inner::complete`).
    recording: RwLock<()>,
    health: Mutex<HealthMonitor>,
    trace: Option<ClientTrace>,
}

/// The fabric-backed UniFaaS runtime. See the module docs.
pub struct FabricRuntime {
    inner: Arc<Inner>,
}

impl FabricRuntime {
    /// Wraps `fabric` with the default (no-retry) policy.
    pub fn new(fabric: Arc<dyn Fabric>) -> Self {
        let n = fabric.n_endpoints();
        FabricRuntime {
            inner: Arc::new(Inner {
                fabric,
                state: Mutex::new(State {
                    coord: Coord::new(),
                    stats: FabricRunStats::default(),
                }),
                done_cond: Condvar::new(),
                recording: RwLock::new(()),
                health: Mutex::new(HealthMonitor::new(n)),
                trace: None,
            }),
        }
    }

    /// Enables client-side tracing (builder style). Emits the `c.*`
    /// lifecycle events — submit, per-attempt spans, dispatch / result /
    /// retry / timeout instants and final resolution — on a `client`
    /// track stamped in microseconds since the fabric's clock epoch.
    /// Retrieve the recording with [`take_client_tracer`]
    /// (FabricRuntime::take_client_tracer) after the run.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        if level != TraceLevel::Off {
            let trace = ClientTrace::new(level, self.inner.fabric.clock_epoch());
            Arc::get_mut(&mut self.inner)
                .expect("configure the runtime before submitting")
                .trace = Some(trace);
        }
        self
    }

    /// Takes the client trace recorded so far, leaving a disabled tracer
    /// behind. Returns `None` when tracing was never enabled.
    pub fn take_client_tracer(&self) -> Option<Tracer> {
        self.inner
            .trace
            .as_ref()
            .map(|t| std::mem::replace(&mut *t.tracer.lock(), Tracer::disabled()))
    }

    /// Sets the retry/timeout policy (builder style). Runs on a fabric
    /// that can lose endpoints need `max_attempts > 1` and a
    /// `task_timeout`; without them a lost attempt is a final failure.
    pub fn with_retry(self, policy: LiveRetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.inner.state.lock().coord.retry = policy;
        self
    }

    /// Current health state of endpoint `i`.
    pub fn endpoint_health(&self, i: usize) -> HealthState {
        self.inner.health.lock().state(EndpointId(i as u16))
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.inner.fabric
    }

    /// Run statistics so far.
    pub fn stats(&self) -> FabricRunStats {
        self.inner.state.lock().stats
    }

    /// Submits one task: run `function` over the concatenation of the
    /// dependencies' outputs (in order) and `payload`. Returns
    /// immediately with a future.
    pub fn submit(&self, function: &str, payload: Vec<u8>, deps: &[&WireFuture]) -> WireFuture {
        let inner = &self.inner;
        let body = Body {
            function: Arc::from(function),
            payload,
        };
        let (future, ready) = inner.state.lock().coord.submit(body, deps);
        if let Some(tr) = &inner.trace {
            tr.instant(tr.labels.submit, future.id as u64, deps.len() as i64);
        }
        if let Some(task) = ready {
            inner.dispatch(future.id, task);
        }
        future
    }

    /// Blocks until every submitted task has resolved.
    ///
    /// With a task timeout set this is also the straggler watchdog *and*
    /// the probe-to-health bridge: every tick it fails over attempts past
    /// their budget and folds each endpoint's [`ProbeState`] into the
    /// [`HealthMonitor`] (Dead ⇒ Down, Alive again ⇒ Recovering), which
    /// is how heartbeat-detected crashes steer placement.
    pub fn wait_all(&self) {
        self.watch();
        // The completions that resolved the last tasks may still be
        // recording them.
        drop(
            self.inner
                .recording
                .write()
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// [`FabricRuntime::wait_all`] up to the last resolution.
    fn watch(&self) {
        let inner = &self.inner;
        let timeout = inner.state.lock().coord.retry.task_timeout;
        let Some(timeout) = timeout else {
            let mut state = inner.state.lock();
            while state.coord.outstanding() > 0 {
                inner.done_cond.wait(&mut state);
            }
            return;
        };
        let tick = (timeout / 4).max(Duration::from_millis(5));
        loop {
            self.feed_probes();
            let overdue = {
                let mut state = inner.state.lock();
                if state.coord.outstanding() == 0 {
                    return;
                }
                inner.done_cond.wait_for(&mut state, tick);
                if state.coord.outstanding() == 0 {
                    return;
                }
                let overdue = state.coord.overdue(Instant::now(), timeout, |_| 0);
                state.stats.watchdog_timeouts += overdue.len() as u64;
                overdue
            };
            for o in overdue {
                if let Some(tr) = &inner.trace {
                    tr.instant(tr.labels.timeout, o.id as u64, i64::from(o.attempt));
                }
                inner.complete(o.id, o.ep, o.attempt, Err(o.error), true);
            }
        }
    }

    /// Folds fabric probes into the health monitor. A Dead probe is
    /// authoritative (the connection is gone — no attempt outcome will
    /// say it better); an Alive probe only *re-admits* a Down endpoint,
    /// so accumulated attempt-failure evidence against a flaky-but-
    /// connected endpoint is not erased by mere liveness.
    fn feed_probes(&self) {
        let fabric = &self.inner.fabric;
        let mut h = self.inner.health.lock();
        for ep in 0..fabric.n_endpoints() {
            let id = EndpointId(ep as u16);
            match fabric.probe(ep) {
                ProbeState::Dead => {
                    h.mark_down(id);
                }
                ProbeState::Alive => {
                    if h.is_down(id) {
                        h.mark_recovering(id);
                    }
                }
                ProbeState::Suspect => {}
            }
        }
    }
}

impl Inner {
    /// Reports the outcome of attempt `attempt` of task `id` on `ep`
    /// through the coordinator, then acts on its decision outside the
    /// lock.
    fn complete(
        self: &Arc<Self>,
        id: usize,
        ep: usize,
        attempt: u32,
        result: WireResult,
        can_retry: bool,
    ) {
        let ok = result.is_ok();
        let bytes = result.as_ref().map_or(0, |b| b.len() as u64);
        let (next, recording) = {
            let mut state = self.state.lock();
            let next = state
                .coord
                .complete(id, ep, attempt, result, bytes, can_retry);
            match next {
                Next::Stale => return,
                Next::Retry { .. } => state.stats.retries += 1,
                Next::Finalize { .. } => state.stats.completed += 1,
            }
            // Taken before the lock drops and held until this completion's
            // records and health update land: `wait_all` takes the write
            // side before it returns, so it never returns ahead of them.
            let recording = self
                .recording
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if state.coord.outstanding() == 0 {
                self.done_cond.notify_all();
            }
            (next, recording)
        };
        if let Some(tr) = &self.trace {
            tr.end(tr.labels.attempt, attempt_span_id(id, attempt));
            tr.instant(tr.labels.result, id as u64, i64::from(ok));
        }
        match next {
            Next::Stale => {}
            Next::Retry { task, backoff } => {
                if let Some(tr) = &self.trace {
                    tr.instant(tr.labels.retry, id as u64, i64::from(attempt + 1));
                }
                record_outcome(&mut self.health.lock(), ep, false);
                drop(recording);
                match backoff {
                    // The completion runs on a fabric thread (often the
                    // endpoint supervisor) — sleeping there would stall
                    // heartbeats, so backoff gets its own short-lived
                    // timer thread.
                    Some(d) => {
                        let this = Arc::clone(self);
                        std::thread::spawn(move || {
                            std::thread::sleep(d);
                            this.dispatch(id, task);
                        });
                    }
                    None => self.dispatch(id, task),
                }
            }
            Next::Finalize { failed, ran, ready } => {
                if let Some(tr) = &self.trace {
                    tr.instant(tr.labels.resolve, id as u64, i64::from(failed));
                }
                if ran {
                    record_outcome(&mut self.health.lock(), ep, !failed);
                }
                drop(recording);
                for (rid, task) in ready {
                    self.dispatch(rid, task);
                }
            }
        }
    }

    /// Places and starts an attempt, stages its dependency outputs on the
    /// chosen endpoint and submits it.
    fn dispatch(self: &Arc<Self>, id: usize, task: PendingTask<Body>) {
        let fabric = &self.fabric;
        let (ep, start) = {
            let mut state = self.state.lock();
            let health = self.health.lock();
            let ep = state.coord.place(&task, fabric.n_endpoints(), |ep| {
                (fabric.probe(ep) != ProbeState::Dead
                    && health.is_schedulable(EndpointId(ep as u16)))
                .then(|| fabric.n_workers(ep) as i64 - fabric.busy_workers(ep) as i64)
            });
            drop(health);
            state.stats.dispatched += 1;
            (ep, state.coord.start(id, &task, ep, Instant::now()))
        };
        let attempt = start.attempt;
        if let Some(tr) = &self.trace {
            tr.begin(tr.labels.attempt, attempt_span_id(id, attempt));
            tr.instant(tr.labels.dispatch, id as u64, ep as i64);
        }
        let outputs = match start.inputs {
            Ok(outputs) => outputs,
            // Never touched the endpoint: not retryable, says nothing
            // about endpoint health.
            Err((d, _)) => {
                let msg = format!("upstream task {d} failed");
                return self.complete(id, ep, attempt, Err(msg), false);
            }
        };
        for (d, bytes) in task.dep_ids.iter().zip(&outputs) {
            fabric.stage(ep, *d as u64, bytes);
        }
        let job = JobSpec {
            task: id as u64,
            attempt,
            function: task.body.function,
            deps: task.dep_ids.iter().map(|d| *d as u64).collect(),
            payload: task.body.payload,
        };
        let this = Arc::clone(self);
        fabric.submit(
            ep,
            job,
            Box::new(move |result| {
                this.complete(id, ep, attempt, result, true);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::fabric::{FabricTiming, ThreadedFabric};

    fn threaded(workers: &[(&str, usize)]) -> Arc<ThreadedFabric> {
        Arc::new(ThreadedFabric::new(workers, &FabricTiming::fast()))
    }

    #[test]
    fn single_task_round_trip() {
        let rt = FabricRuntime::new(threaded(&[("a", 2)]));
        let f = rt.submit("echo", b"hello".to_vec(), &[]);
        assert_eq!(f.wait().unwrap().as_ref(), b"hello");
        rt.wait_all();
        let stats = rt.stats();
        assert_eq!((stats.dispatched, stats.completed), (1, 1));
    }

    #[test]
    fn chains_concatenate_dep_outputs() {
        let rt = FabricRuntime::new(threaded(&[("a", 1), ("b", 1)]));
        let x = rt.submit("echo", b"AB".to_vec(), &[]);
        let y = rt.submit("echo", b"CD".to_vec(), &[]);
        // input = out(x) ++ out(y) ++ payload
        let z = rt.submit("echo", b"EF".to_vec(), &[&x, &y]);
        assert_eq!(z.wait().unwrap().as_ref(), b"ABCDEF");
        rt.wait_all();
    }

    #[test]
    fn deep_chain_on_single_worker_does_not_deadlock() {
        let rt = FabricRuntime::new(threaded(&[("solo", 1)]));
        let mut prev = rt.submit("echo", b"x".to_vec(), &[]);
        for _ in 0..20 {
            prev = rt.submit("fnv", vec![], &[&prev]);
        }
        assert_eq!(prev.wait().unwrap().len(), 8);
        rt.wait_all();
    }

    #[test]
    fn upstream_errors_propagate_without_retry_burn() {
        let rt = FabricRuntime::new(threaded(&[("a", 2)])).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::ZERO,
        });
        let bad = rt.submit("fail", b"kaput".to_vec(), &[]);
        let child = rt.submit("echo", vec![], &[&bad]);
        let err = child.wait().unwrap_err();
        assert!(err.to_string().contains("upstream"), "err = {err}");
        rt.wait_all();
        // `fail` is an application error: retried per policy. The child
        // fails deterministically: exactly one dispatch.
        let stats = rt.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.retries, 2, "only the app error burns retries");
    }

    #[test]
    fn watchdog_recovers_swallowed_work() {
        let fabric = threaded(&[("flaky", 1)]);
        // Swallow the first job pulled: no completion will ever come.
        fabric.pool(0).faults().set_crash_every(1);
        let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(
            LiveRetryPolicy {
                max_attempts: 5,
                task_timeout: Some(Duration::from_millis(150)),
                backoff: Duration::ZERO,
            },
        );
        let f = rt.submit("echo", b"survivor".to_vec(), &[]);
        // Heal after the first swallow so a retry can land.
        std::thread::sleep(Duration::from_millis(50));
        fabric.pool(0).faults().set_crash_every(0);
        rt.wait_all();
        assert_eq!(f.wait().unwrap().as_ref(), b"survivor");
        let stats = rt.stats();
        assert!(stats.watchdog_timeouts >= 1, "{stats:?}");
        assert!(stats.retries >= 1, "{stats:?}");
    }

    #[test]
    fn down_pool_is_avoided_and_health_reflects_probe() {
        let fabric = threaded(&[("up", 1), ("down", 1)]);
        fabric.pool(1).faults().set_down(true);
        let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(
            LiveRetryPolicy {
                max_attempts: 3,
                task_timeout: Some(Duration::from_millis(200)),
                backoff: Duration::ZERO,
            },
        );
        let futs: Vec<WireFuture> = (0..6)
            .map(|i| rt.submit("echo", vec![i as u8], &[]))
            .collect();
        rt.wait_all();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.wait().unwrap().as_ref(), &[i as u8]);
        }
        assert_eq!(rt.endpoint_health(1), HealthState::Down);
        assert_ne!(rt.endpoint_health(0), HealthState::Down);
    }

    #[test]
    fn client_trace_records_lifecycle_events() {
        let rt = FabricRuntime::new(threaded(&[("a", 2)])).with_trace(TraceLevel::Spans);
        let x = rt.submit("echo", b"ab".to_vec(), &[]);
        let y = rt.submit("echo", b"cd".to_vec(), &[&x]);
        assert_eq!(y.wait().unwrap().as_ref(), b"abcd");
        rt.wait_all();
        let tracer = rt.take_client_tracer().expect("tracing enabled");
        let names: Vec<&str> = tracer
            .records()
            .map(|r| {
                tracer.label(match r.event {
                    simkit::trace::TraceEvent::Begin { name, .. }
                    | simkit::trace::TraceEvent::End { name, .. }
                    | simkit::trace::TraceEvent::Instant { name, .. }
                    | simkit::trace::TraceEvent::Counter { name, .. } => name,
                })
            })
            .collect();
        for expected in [
            "c.submit",
            "c.attempt",
            "c.dispatch",
            "c.result",
            "c.resolve",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert_eq!(
            names.iter().filter(|n| **n == "c.resolve").count(),
            2,
            "one resolve per task"
        );
        // A second take returns an empty (disabled) recording.
        assert!(rt.take_client_tracer().expect("still Some").is_empty());
    }

    #[test]
    fn exhausted_attempts_fail_finally() {
        let rt = FabricRuntime::new(threaded(&[("a", 1)])).with_retry(LiveRetryPolicy {
            max_attempts: 2,
            task_timeout: None,
            backoff: Duration::from_millis(1),
        });
        let f = rt.submit("fail", b"always".to_vec(), &[]);
        let err = f.wait().unwrap_err();
        assert!(err.to_string().contains("always"));
        rt.wait_all();
        assert_eq!(rt.stats().retries, 1);
    }
}
