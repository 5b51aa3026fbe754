//! The live runtime: the UniFaaS programming model over real threads.
//!
//! This is the analogue of the paper's Python `@function` interface
//! (Listing 1): register functions, invoke them to get futures, pass
//! futures as arguments to compose a dynamic task graph, and let the
//! runtime place tasks on endpoints — here, per-endpoint worker thread
//! pools from `fedci::threaded`.
//!
//! Placement is locality- and load-aware: a ready task goes to the
//! endpoint with the most free workers, biased toward where its
//! (byte-weighted) inputs were produced; an optional simulated WAN
//! bandwidth converts remote input bytes into real dispatch delay, so the
//! examples can observe data-gravity effects.
//!
//! Dependencies are tracked client-side and a task is only submitted to a
//! pool once every input future resolved — a chain of tasks can never
//! deadlock a single worker.
//!
//! Fault tolerance mirrors the simulated runtime (§IV-G) and is the
//! shared [`coord`](crate::runtime::coord) state machine: a
//! [`LiveRetryPolicy`] bounds attempts per task, a watchdog inside
//! [`LiveRuntime::wait_all`] re-dispatches attempts that exceed the task
//! timeout (recovering jobs swallowed by a crashed worker), and a
//! [`HealthMonitor`] fed by pool liveness probes and attempt outcomes
//! steers placement away from Down pools. Execution is at-least-once
//! under retries; future resolution is exactly-once (stale attempts are
//! dropped by an attempt-generation guard).

use crate::error::UniFaasError;
use crate::monitor::{HealthMonitor, HealthState};
use crate::runtime::coord::{record_outcome, Coord, Next, PendingTask, TaskFuture};
use crate::trace::TraceConfig;
use fedci::endpoint::EndpointId;
use fedci::threaded::ThreadedEndpoint;
use fedci::trace::FedciTraceLabels;
use parking_lot::{Condvar, Mutex};
use simkit::trace::{LabelId, Tracer};
use simkit::SimTime;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

pub use crate::runtime::coord::LiveRetryPolicy;

/// A dynamically typed value passed between functions.
pub type Value = Arc<dyn Any + Send + Sync>;

/// Wraps a concrete value as a [`Value`].
pub fn value<T: Any + Send + Sync>(x: T) -> Value {
    Arc::new(x)
}

/// Downcasts a [`Value`] to a concrete type.
pub fn downcast<T: Any + Send + Sync>(v: &Value) -> Option<&T> {
    v.downcast_ref::<T>()
}

/// A registered function: takes resolved input values, returns a value or
/// an application error.
pub type AppFn = Arc<dyn Fn(&[Value]) -> Result<Value, String> + Send + Sync>;

/// A handle to the eventual result of a task (the paper's `Future`).
pub type AppFuture = TaskFuture<Value>;

/// What a live task runs: the function resolved at submit, its plain
/// arguments (resolved dependency values are appended at dispatch) and
/// its declared output size.
#[derive(Clone)]
struct Body {
    f: AppFn,
    args: Vec<Value>,
    output_bytes: u64,
}

/// Wall-clock tracing state for the live runtime: the same event
/// vocabulary as the simulated runtime, stamped with elapsed real time
/// mapped onto [`SimTime`]. Shared behind a mutex because worker threads
/// complete tasks concurrently.
struct LiveTrace {
    tracer: Tracer,
    t0: std::time::Instant,
    labels: FedciTraceLabels,
    client_track: LabelId,
    /// Span: submitted but dependencies/placement still pending.
    pending: LabelId,
}

impl LiveTrace {
    fn new(cfg: &TraceConfig, endpoint_labels: &[String]) -> LiveTrace {
        let mut tracer = Tracer::new(cfg.level, cfg.ring_capacity);
        let labels = FedciTraceLabels::new(&mut tracer, endpoint_labels);
        LiveTrace {
            client_track: tracer.intern("client"),
            pending: tracer.intern("pending"),
            labels,
            tracer,
            t0: std::time::Instant::now(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64())
    }
}

/// State shared with worker closures, which report completions and
/// dispatch dependents.
struct Shared {
    endpoints: Vec<ThreadedEndpoint>,
    coord: Mutex<Coord<Body, Value>>,
    done_cond: Condvar,
    /// Read-held by each completion from its decision until its records
    /// land (see `Shared::complete`).
    recording: RwLock<()>,
    /// Simulated WAN bandwidth in bytes/second: moving inputs produced on
    /// another endpoint costs real wall time. `None` disables it.
    transfer_bandwidth_bps: Option<f64>,
    trace: Option<Mutex<LiveTrace>>,
    health: Mutex<HealthMonitor>,
}

/// The live, multi-threaded UniFaaS runtime.
pub struct LiveRuntime {
    shared: Arc<Shared>,
    labels: Vec<String>,
    functions: Mutex<HashMap<String, AppFn>>,
}

impl LiveRuntime {
    /// Creates a runtime with one worker pool per `(label, workers)` pair.
    pub fn new(endpoints: &[(&str, usize)]) -> Self {
        Self::with_pool_poll_timeout(endpoints, fedci::threaded::DEFAULT_POLL_TIMEOUT)
    }

    /// Like [`LiveRuntime::new`], with an explicit worker-pool poll/
    /// shutdown timeout (how long an idle worker blocks on its queue
    /// before re-checking for shutdown; see
    /// [`ThreadedEndpoint::with_poll_timeout`]).
    pub fn with_pool_poll_timeout(endpoints: &[(&str, usize)], poll: Duration) -> Self {
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        let pools: Vec<ThreadedEndpoint> = endpoints
            .iter()
            .map(|(l, w)| ThreadedEndpoint::with_poll_timeout(l, *w, poll))
            .collect();
        let n = pools.len();
        LiveRuntime {
            shared: Arc::new(Shared {
                endpoints: pools,
                coord: Mutex::new(Coord::new()),
                done_cond: Condvar::new(),
                recording: RwLock::new(()),
                transfer_bandwidth_bps: None,
                trace: None,
                health: Mutex::new(HealthMonitor::new(n)),
            }),
            labels: endpoints.iter().map(|(l, _)| l.to_string()).collect(),
            functions: Mutex::new(HashMap::new()),
        }
    }

    /// The shared state, for builder methods (nothing else holds it yet).
    fn configure(&mut self) -> &mut Shared {
        Arc::get_mut(&mut self.shared).expect("configure the runtime before submitting")
    }

    /// Sets the retry/timeout policy (builder style). The default policy
    /// — one attempt, no timeout — leaves behavior identical to a
    /// runtime without fault tolerance.
    pub fn with_retry(self, policy: LiveRetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.shared.coord.lock().retry = policy;
        self
    }

    /// The underlying worker pool for endpoint `i` (fault-injection and
    /// introspection hooks live on the pool).
    pub fn pool(&self, i: usize) -> &ThreadedEndpoint {
        &self.shared.endpoints[i]
    }

    /// Current health state of endpoint `i`.
    pub fn endpoint_health(&self, i: usize) -> HealthState {
        self.shared.health.lock().state(EndpointId(i as u16))
    }

    /// Enables the simulated WAN: remote input bytes are converted into a
    /// real sleep at this bandwidth before the function runs.
    pub fn with_transfer_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        self.configure().transfer_bandwidth_bps = Some(bytes_per_sec);
        self
    }

    /// Enables wall-clock tracing: pending/executing spans per task on
    /// per-endpoint tracks and fault instants, with timestamps measured
    /// from this call. Snapshot the result with
    /// [`LiveRuntime::trace_snapshot`].
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        if cfg.level != simkit::trace::TraceLevel::Off {
            let trace = LiveTrace::new(&cfg, &self.labels);
            self.configure().trace = Some(Mutex::new(trace));
        }
        self
    }

    /// A snapshot of the trace ring so far (`None` when tracing is off).
    /// Typically called after [`LiveRuntime::wait_all`] and exported with
    /// [`Tracer::export_perfetto`] / [`Tracer::export_jsonl`].
    pub fn trace_snapshot(&self) -> Option<Tracer> {
        self.shared.trace.as_ref().map(|t| t.lock().tracer.clone())
    }

    /// Starts a Prometheus scrape server at `addr` (e.g. `127.0.0.1:9100`;
    /// port 0 picks an ephemeral port, readable from
    /// [`MetricsServer::local_addr`](simkit::MetricsServer::local_addr)).
    ///
    /// `GET /metrics` renders per-pool worker/liveness gauges and
    /// completed/crashed job counters plus a client-side outstanding-tasks
    /// gauge, all sampled from live state at scrape time. The server stops
    /// when the returned handle is dropped; the runtime keeps running
    /// either way.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<simkit::MetricsServer> {
        let mut reg = simkit::MetricsRegistry::new();
        let ids: Vec<fedci::threaded::PoolMetricIds> = self
            .shared
            .endpoints
            .iter()
            .map(|ep| ep.register_metrics(&mut reg))
            .collect();
        let outstanding = reg.gauge(
            "unifaas_outstanding_tasks",
            "Submitted tasks whose futures have not resolved.",
            &[],
        );
        let shared = Arc::clone(&self.shared);
        // The refresh hook is `Fn`, so the per-pool counter high-water
        // marks live behind their own lock.
        let ids = std::sync::Mutex::new(ids);
        let refresh: simkit::metrics::RefreshFn = Box::new(move |reg| {
            let mut ids = ids.lock().expect("refresh hook never panics");
            for (ep, id) in shared.endpoints.iter().zip(ids.iter_mut()) {
                ep.sample_metrics(reg, id);
            }
            reg.set(outstanding, shared.coord.lock().outstanding() as f64);
        });
        simkit::MetricsServer::start(addr, Arc::new(std::sync::Mutex::new(reg)), Some(refresh))
    }

    /// Endpoint labels.
    pub fn endpoint_labels(&self) -> &[String] {
        &self.labels
    }

    /// Registers a function under `name` (the `@function` decorator).
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        self.functions.lock().insert(name.to_string(), Arc::new(f));
    }

    /// Invokes `name` with plain values and future dependencies; the
    /// function receives `args` followed by the resolved dependency values,
    /// in order. Returns immediately with a future.
    pub fn submit(
        &self,
        name: &str,
        args: Vec<Value>,
        deps: &[&AppFuture],
    ) -> Result<AppFuture, UniFaasError> {
        self.submit_sized(name, args, deps, 0)
    }

    /// Like [`LiveRuntime::submit`], declaring the output size in bytes so
    /// the placer can weigh data gravity (the `RemoteFile` analogue).
    pub fn submit_sized(
        &self,
        name: &str,
        args: Vec<Value>,
        deps: &[&AppFuture],
        output_bytes: u64,
    ) -> Result<AppFuture, UniFaasError> {
        // Resolved now, so a later registration never changes what an
        // already-submitted task runs.
        let f = self
            .functions
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| UniFaasError::UnknownFunction(name.to_string()))?;
        let sh = &self.shared;
        let (future, ready) = {
            let mut coord = sh.coord.lock();
            let submitted = coord.submit(
                Body {
                    f,
                    args,
                    output_bytes,
                },
                deps,
            );
            // Under the lock: once it drops, a completion on a worker may
            // release this task and close its pending span.
            sh.trace_submit(submitted.0.id);
            submitted
        };
        if let Some(task) = ready {
            sh.dispatch(future.id, task, None);
        }
        Ok(future)
    }

    /// Blocks until every submitted task has completed.
    ///
    /// When the retry policy sets a task timeout, this doubles as the
    /// straggler watchdog: it wakes every quarter-timeout, scans in-flight
    /// attempts, and fails-over any that exceeded the budget (covering
    /// attempts swallowed by a crashed worker, which would otherwise never
    /// complete).
    pub fn wait_all(&self) {
        self.watch();
        // The completions that resolved the last tasks may still be
        // recording them.
        drop(
            self.shared
                .recording
                .write()
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// [`LiveRuntime::wait_all`] up to the last resolution.
    fn watch(&self) {
        let sh = &self.shared;
        let timeout = sh.coord.lock().retry.task_timeout;
        let Some(timeout) = timeout else {
            let mut coord = sh.coord.lock();
            while coord.outstanding() > 0 {
                sh.done_cond.wait(&mut coord);
            }
            return;
        };
        let tick = (timeout / 4).max(Duration::from_millis(5));
        loop {
            let overdue = {
                let mut coord = sh.coord.lock();
                if coord.outstanding() == 0 {
                    return;
                }
                sh.done_cond.wait_for(&mut coord, tick);
                if coord.outstanding() == 0 {
                    return;
                }
                coord.overdue(Instant::now(), timeout, |b| b.output_bytes)
            };
            for o in overdue {
                sh.complete(o.id, o.ep, o.attempt, Err(o.error), o.bytes, true);
            }
        }
    }
}

impl Shared {
    /// Runs `f` on the trace state with the current timestamp, when
    /// tracing is on.
    fn trace(&self, f: impl FnOnce(&mut LiveTrace, SimTime)) {
        if let Some(t) = &self.trace {
            let mut tr = t.lock();
            let at = tr.now();
            f(&mut tr, at);
        }
    }

    /// Opens the pending span for a freshly submitted task.
    fn trace_submit(&self, id: usize) {
        self.trace(|tr, at| tr.tracer.begin(at, tr.pending, tr.client_track, id as u64));
    }

    /// Moves a task's span from pending to executing on its endpoint's
    /// track. Only the first attempt closes the pending span; retries just
    /// open a fresh executing span.
    fn trace_exec_begin(&self, id: usize, ep: usize, first: bool) {
        self.trace(|tr, at| {
            if first {
                tr.tracer.end(at, tr.pending, tr.client_track, id as u64);
            }
            let track = tr.labels.tracks[ep];
            tr.tracer.begin(at, tr.labels.executing, track, id as u64);
        });
    }

    /// Closes a task's executing span, adding a fault instant on failure.
    fn trace_done(&self, id: usize, ep: usize, failed: bool) {
        self.trace(|tr, at| {
            let track = tr.labels.tracks[ep];
            tr.tracer.end(at, tr.labels.executing, track, id as u64);
            if failed {
                let fault = tr.labels.fault_task;
                tr.tracer.instant(at, fault, track, id as u64, ep as i64);
            }
        });
    }

    /// Feeds an attempt outcome into the health monitor, tracing any
    /// state transition it causes.
    fn record_health(&self, ep: usize, success: bool) {
        let transition = record_outcome(&mut self.health.lock(), ep, success);
        if let Some(state) = transition {
            self.trace(|tr, at| {
                let (health, track) = (tr.labels.health, tr.labels.tracks[ep]);
                let code = state.code() as i64;
                tr.tracer.instant(at, health, track, ep as u64, code);
            });
        }
    }

    /// Reports the outcome of attempt `attempt` of task `id` on `ep`
    /// through the coordinator, then acts on its decision outside the
    /// lock.
    fn complete(
        self: &Arc<Self>,
        id: usize,
        ep: usize,
        attempt: u32,
        result: Result<Value, String>,
        bytes: u64,
        can_retry: bool,
    ) {
        let (next, recording) = {
            let mut coord = self.coord.lock();
            let next = coord.complete(id, ep, attempt, result, bytes, can_retry);
            if matches!(next, Next::Stale) {
                return;
            }
            // Held until this completion's records and health update land;
            // `wait_all` takes the write side before it returns.
            let recording = self
                .recording
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if coord.outstanding() == 0 {
                self.done_cond.notify_all();
            }
            (next, recording)
        };
        match next {
            Next::Stale => {}
            Next::Retry { task, backoff } => {
                self.trace_done(id, ep, true);
                self.trace(|tr, at| {
                    let (retry, track) = (tr.labels.retry, tr.labels.tracks[ep]);
                    tr.tracer
                        .instant(at, retry, track, id as u64, attempt as i64);
                });
                self.record_health(ep, false);
                drop(recording);
                self.dispatch(id, task, backoff);
            }
            Next::Finalize { failed, ran, ready } => {
                self.trace_done(id, ep, failed);
                if ran {
                    self.record_health(ep, !failed);
                }
                drop(recording);
                for (rid, task) in ready {
                    self.dispatch(rid, task, None);
                }
            }
        }
    }

    /// Places and starts an attempt, then runs it on the chosen pool; the
    /// worker sleeps `backoff` (a retry) and any simulated WAN staging
    /// before calling the function.
    fn dispatch(self: &Arc<Self>, id: usize, task: PendingTask<Body>, backoff: Option<Duration>) {
        let (ep, start) = {
            let mut coord = self.coord.lock();
            let health = self.health.lock();
            let ep = coord.place(&task, self.endpoints.len(), |i| {
                let pool = &self.endpoints[i];
                (pool.responsive() && health.is_schedulable(EndpointId(i as u16)))
                    .then(|| pool.n_workers() as i64 - pool.busy_workers() as i64)
            });
            drop(health);
            (ep, coord.start(id, &task, ep, Instant::now()))
        };
        let attempt = start.attempt;
        self.trace_exec_begin(id, ep, attempt == 1);
        let Body {
            f,
            args: mut inputs,
            output_bytes,
        } = task.body;
        let dep_values = match start.inputs {
            Ok(values) => values,
            Err((d, e)) => {
                let msg = format!("upstream task {d} failed: {e}");
                return self.complete(id, ep, attempt, Err(msg), output_bytes, false);
            }
        };
        inputs.extend(dep_values);
        let transfer_sleep = self
            .transfer_bandwidth_bps
            .filter(|_| start.remote_bytes > 0)
            .map(|bw| Duration::from_secs_f64(start.remote_bytes as f64 / bw));
        let this = Arc::clone(self);
        self.endpoints[ep].submit_then(move || {
            if let Some(d) = backoff {
                std::thread::sleep(d); // retry backoff
            }
            if let Some(d) = transfer_sleep {
                std::thread::sleep(d); // simulated WAN staging
            }
            let result = f(&inputs);
            // Complete after the worker frees, so dependents see it as
            // placeable capacity.
            Some(Box::new(move || {
                this.complete(id, ep, attempt, result, output_bytes, true);
            }) as Box<dyn FnOnce() + Send>)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_fn(rt: &LiveRuntime) {
        rt.register("add", |args| {
            let mut sum = 0i64;
            for v in args {
                sum += *downcast::<i64>(v).ok_or_else(|| "not an i64".to_string())?;
            }
            Ok(value(sum))
        });
    }

    #[test]
    fn single_task_roundtrip() {
        let rt = LiveRuntime::new(&[("local", 2)]);
        add_fn(&rt);
        let f = rt
            .submit("add", vec![value(2i64), value(3i64)], &[])
            .unwrap();
        let v = f.wait().unwrap();
        assert_eq!(*downcast::<i64>(&v).unwrap(), 5);
    }

    #[test]
    fn future_passing_builds_chains() {
        let rt = LiveRuntime::new(&[("a", 1), ("b", 1)]);
        add_fn(&rt);
        let f1 = rt
            .submit("add", vec![value(1i64), value(1i64)], &[])
            .unwrap();
        let f2 = rt.submit("add", vec![value(10i64)], &[&f1]).unwrap();
        let f3 = rt.submit("add", vec![value(100i64)], &[&f2]).unwrap();
        assert_eq!(*downcast::<i64>(&f3.wait().unwrap()).unwrap(), 112);
    }

    #[test]
    fn chain_on_single_worker_does_not_deadlock() {
        let rt = LiveRuntime::new(&[("solo", 1)]);
        add_fn(&rt);
        let mut prev = rt.submit("add", vec![value(0i64)], &[]).unwrap();
        for _ in 0..20 {
            prev = rt.submit("add", vec![value(1i64)], &[&prev]).unwrap();
        }
        assert_eq!(*downcast::<i64>(&prev.wait().unwrap()).unwrap(), 20);
    }

    #[test]
    fn fan_in_waits_for_all_dependencies() {
        let rt = LiveRuntime::new(&[("a", 4)]);
        add_fn(&rt);
        let parts: Vec<AppFuture> = (0..8)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        let refs: Vec<&AppFuture> = parts.iter().collect();
        let total = rt.submit("add", vec![], &refs).unwrap();
        assert_eq!(*downcast::<i64>(&total.wait().unwrap()).unwrap(), 28);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let rt = LiveRuntime::new(&[("a", 1)]);
        assert!(matches!(
            rt.submit("nope", vec![], &[]),
            Err(UniFaasError::UnknownFunction(_))
        ));
    }

    #[test]
    fn application_errors_propagate_to_dependents() {
        let rt = LiveRuntime::new(&[("a", 2)]);
        rt.register("boom", |_| Err("kaput".into()));
        add_fn(&rt);
        let bad = rt.submit("boom", vec![], &[]).unwrap();
        let child = rt.submit("add", vec![value(1i64)], &[&bad]).unwrap();
        let err = child.wait().unwrap_err();
        match err {
            UniFaasError::FunctionError { message, .. } => {
                assert!(message.contains("upstream"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(bad.wait().is_err());
    }

    #[test]
    fn wait_all_drains_everything() {
        let rt = LiveRuntime::new(&[("a", 4), ("b", 4)]);
        add_fn(&rt);
        let futures: Vec<AppFuture> = (0..50)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        rt.wait_all();
        for f in &futures {
            assert!(f.is_done());
        }
    }

    #[test]
    fn traced_run_produces_span_pairs() {
        let rt = LiveRuntime::new(&[("a", 2)]).with_trace(TraceConfig::default());
        add_fn(&rt);
        let f = rt
            .submit("add", vec![value(1i64), value(2i64)], &[])
            .unwrap();
        assert_eq!(*downcast::<i64>(&f.wait().unwrap()).unwrap(), 3);
        rt.wait_all();
        let tr = rt.trace_snapshot().expect("tracing enabled");
        // pending begin/end + executing begin/end.
        assert_eq!(tr.len(), 4);
        let mut buf = Vec::new();
        tr.export_perfetto(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("executing"));
        // Untraced runtimes have no snapshot.
        assert!(LiveRuntime::new(&[("a", 1)]).trace_snapshot().is_none());
    }

    #[test]
    fn retry_recovers_from_crashing_pool() {
        // Every 2nd job on the only pool is swallowed without running; the
        // wait_all watchdog must time the lost attempts out and retry until
        // everything completes.
        let rt = LiveRuntime::new(&[("flaky", 1)]).with_retry(LiveRetryPolicy {
            max_attempts: 6,
            task_timeout: Some(Duration::from_millis(150)),
            backoff: Duration::from_millis(1),
        });
        add_fn(&rt);
        rt.pool(0).faults().set_crash_every(2);
        let futs: Vec<AppFuture> = (0..6)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        rt.wait_all();
        for (i, f) in futs.iter().enumerate() {
            let v = f.wait().expect("retries recover swallowed jobs");
            assert_eq!(*downcast::<i64>(&v).unwrap(), i as i64);
        }
        assert!(
            rt.pool(0).faults().crashed_jobs() > 0,
            "fault injection actually fired"
        );
    }

    #[test]
    fn placement_avoids_unresponsive_pool() {
        let rt = LiveRuntime::new(&[("dead", 4), ("live", 1)]);
        add_fn(&rt);
        rt.pool(0).faults().set_down(true);
        let futs: Vec<AppFuture> = (0..5)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        rt.wait_all();
        for f in &futs {
            assert!(f.wait().is_ok());
        }
        assert_eq!(
            rt.pool(0).faults().crashed_jobs(),
            0,
            "no job was routed to the dead pool"
        );
    }

    #[test]
    fn repeated_failures_mark_endpoint_down() {
        let rt = LiveRuntime::new(&[("a", 1)]);
        rt.register("boom", |_| Err("kaput".into()));
        for _ in 0..3 {
            let f = rt.submit("boom", vec![], &[]).unwrap();
            assert!(f.wait().is_err());
        }
        rt.wait_all();
        assert_eq!(rt.endpoint_health(0), HealthState::Down);
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let rt = LiveRuntime::new(&[("a", 1)]).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::ZERO,
        });
        let tries = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let t = Arc::clone(&tries);
        rt.register("always-fails", move |_| {
            t.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Err("kaput".into())
        });
        let f = rt.submit("always-fails", vec![], &[]).unwrap();
        assert!(f.wait().is_err());
        rt.wait_all();
        assert_eq!(
            tries.load(std::sync::atomic::Ordering::SeqCst),
            3,
            "exactly max_attempts executions"
        );
    }

    #[test]
    fn retry_succeeds_after_transient_app_error() {
        let rt = LiveRuntime::new(&[("a", 2)]).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::from_millis(1),
        });
        let tries = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let t = Arc::clone(&tries);
        rt.register("flaky", move |_| {
            if t.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2 {
                Err("transient".into())
            } else {
                Ok(value(7i64))
            }
        });
        let f = rt.submit("flaky", vec![], &[]).unwrap();
        let v = f.wait().expect("third attempt succeeds");
        assert_eq!(*downcast::<i64>(&v).unwrap(), 7);
        rt.wait_all();
    }

    #[test]
    fn parallelism_across_endpoints() {
        let rt = LiveRuntime::new(&[("a", 2), ("b", 2)]);
        rt.register("sleepy", |_| {
            std::thread::sleep(std::time::Duration::from_millis(100));
            Ok(value(()))
        });
        let t0 = std::time::Instant::now();
        let futs: Vec<AppFuture> = (0..4)
            .map(|_| rt.submit("sleepy", vec![], &[]).unwrap())
            .collect();
        for f in futs {
            f.wait().unwrap();
        }
        let elapsed = t0.elapsed();
        // 4 × 100 ms across 4 workers ≈ 100 ms; serial would be 400 ms.
        assert!(
            elapsed < std::time::Duration::from_millis(350),
            "{elapsed:?}"
        );
    }

    #[test]
    fn dependent_runs_a_function_registered_after_its_parent_was_submitted() {
        let rt = LiveRuntime::new(&[("a", 2)]);
        // The parent blocks until the child is submitted, so the child is
        // released by the parent's completion, not dispatched at submit.
        let (go, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        rt.register("slow", move |_| {
            gate.lock().recv().map_err(|e| e.to_string())?;
            Ok(value(1i64))
        });
        let parent = rt.submit("slow", vec![], &[]).unwrap();
        rt.register("inc", |args| {
            Ok(value(downcast::<i64>(&args[0]).ok_or("not an i64")? + 1))
        });
        let child = rt.submit("inc", vec![], &[&parent]).unwrap();
        go.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !child.is_done() {
            assert!(Instant::now() < deadline, "dependent never resolved");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*downcast::<i64>(&child.wait().unwrap()).unwrap(), 2);
    }
}
