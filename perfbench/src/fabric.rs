//! The real-wire workloads: `FabricRuntime` over a `ProcessFabric` whose
//! two endpoints are spawned `unifaas-endpointd` daemons (and, for the
//! ceiling figure, over the in-process `ThreadedFabric`).
//!
//! Every call into the program is timed from outside: setup, each
//! `submit`, the blocking waits and `shutdown`. The traced pass also turns
//! on the program's own client trace (`FabricRuntime::with_trace`) and
//! daemon telemetry (`ProcessFabricConfig::telemetry`) and joins them with
//! `unifaas::obs::attempt_chains` for the per-hop split.

use crate::record::{
    fast_rate, fast_time, listing, median, quantile, ratio, Metrics, Outcome, Spans, SplitMix,
};
use fedci::fabric::{Fabric, FabricTiming, ProbeState, ThreadedFabric};
use fedci::process::{EndpointMode, ProcessEndpointSpec, ProcessFabric, ProcessFabricConfig};
use simkit::metrics::LogHistogram;
use simkit::metrics::MetricsRegistry;
use simkit::TraceLevel;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unifaas::obs::{attempt_chains, AttemptChain};
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy, WireFuture};

/// Endpoints per fabric: two, one connection each.
const ENDPOINTS: usize = 2;
/// Workers per endpoint daemon.
const WORKERS: usize = 2;
/// Daemon telemetry ring for traced runs, large enough that a
/// heartbeat interval of events never overflows it.
const TRACED_RING: &str = "1048576";
/// Setup samples a run takes at least (extra set-up/shutdown cycles top
/// up workloads whose repetitions are few).
const MIN_SETUPS: usize = 7;
/// Command-name prefix of the daemon processes (`comm` is cut at 15).
const DAEMON_COMM: &str = "unifaas-endpoin";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Layered DAG, whole DAG submitted up front.
    Dag,
    /// Closed loop: submit one task depending on the previous, wait
    /// (a side pass of the traced run).
    Chain,
    /// 1 MiB echo producers, two sum64 consumers each (a side pass of the
    /// traced run).
    Bytes,
}

/// Workload sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub dag_tasks: usize,
    pub dag_width: usize,
    pub chain_tasks: usize,
    pub producers: usize,
    pub payload_bytes: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dag_tasks: 100_000,
        dag_width: 1_000,
        chain_tasks: 10_000,
        producers: 200,
        payload_bytes: 1 << 20,
    };
    pub const SMOKE: Sizes = Sizes {
        dag_tasks: 2_000,
        dag_width: 100,
        chain_tasks: 500,
        producers: 8,
        payload_bytes: 64 << 10,
    };
}

/// What the output of one task must be.
#[derive(Clone, Copy)]
enum Expect {
    /// Exactly these 8 bytes (an `fnv` or `sum64` result).
    Word([u8; 8]),
    /// The `len` bytes `SplitMix(seed).bytes(len)` (an echoed payload).
    Regen { seed: u64, len: usize },
}

struct TaskIn {
    function: &'static str,
    payload: Vec<u8>,
    deps: Vec<usize>,
}

/// One repetition's inputs: tasks in submission order (deps point to
/// earlier tasks) and the reference output of each.
struct Inputs {
    tasks: Vec<TaskIn>,
    expect: Vec<Expect>,
}

fn fnv_word(bytes: &[u8]) -> [u8; 8] {
    fedci::fabric::fnv1a64(bytes).to_le_bytes()
}

/// Builds the inputs of `kind` from `seed`. The reference outputs follow
/// the builtin semantics (`fnv` over deps ++ payload, `echo`, `sum64`),
/// computed here without the fabric.
fn inputs(kind: Kind, sizes: &Sizes, seed: u64) -> Inputs {
    let mut rng = SplitMix(seed);
    let salt = rng.next_u64();
    let word_payload = |i: usize| {
        let mut p = Vec::with_capacity(16);
        p.extend_from_slice(&salt.to_le_bytes());
        p.extend_from_slice(&(i as u64).to_le_bytes());
        p
    };
    let mut tasks = Vec::new();
    let mut expect = Vec::new();
    let fnv_task = |tasks: &mut Vec<TaskIn>, expect: &mut Vec<Expect>, deps: Vec<usize>| {
        let payload = word_payload(tasks.len());
        let mut input = Vec::with_capacity(8 * deps.len() + payload.len());
        for &d in &deps {
            let Expect::Word(w) = expect[d] else {
                unreachable!("fnv deps are fnv tasks")
            };
            input.extend_from_slice(&w);
        }
        input.extend_from_slice(&payload);
        expect.push(Expect::Word(fnv_word(&input)));
        tasks.push(TaskIn {
            function: "fnv",
            payload,
            deps,
        });
    };
    match kind {
        Kind::Dag => {
            let w = sizes.dag_width;
            for i in 0..sizes.dag_tasks {
                let deps = if i < w {
                    Vec::new()
                } else {
                    // Two distinct tasks of the previous layer.
                    let prev = (i / w - 1) * w;
                    let a = rng.below(w);
                    let b = (a + 1 + rng.below(w - 1)) % w;
                    vec![prev + a, prev + b]
                };
                fnv_task(&mut tasks, &mut expect, deps);
            }
        }
        Kind::Chain => {
            for i in 0..sizes.chain_tasks {
                let deps = if i == 0 { Vec::new() } else { vec![i - 1] };
                fnv_task(&mut tasks, &mut expect, deps);
            }
        }
        Kind::Bytes => {
            let len = sizes.payload_bytes;
            for _ in 0..sizes.producers {
                let pseed = rng.next_u64();
                let payload = SplitMix(pseed).bytes(len);
                let sum = payload.chunks_exact(8).fold(0u64, |s, c| {
                    s.wrapping_add(u64::from_le_bytes(c.try_into().expect("8 bytes")))
                });
                let producer = tasks.len();
                tasks.push(TaskIn {
                    function: "echo",
                    payload,
                    deps: Vec::new(),
                });
                expect.push(Expect::Regen { seed: pseed, len });
                for _ in 0..2 {
                    let word = rng.next_u64();
                    tasks.push(TaskIn {
                        function: "sum64",
                        payload: word.to_le_bytes().to_vec(),
                        deps: vec![producer],
                    });
                    expect.push(Expect::Word(sum.wrapping_add(word).to_le_bytes()));
                }
            }
        }
    }
    Inputs { tasks, expect }
}

/// Which fabric a pass runs on.
enum Backend {
    /// Spawned `unifaas-endpointd` daemons (path to the binary).
    Process(PathBuf),
    /// In-process worker pools.
    Threaded,
}

/// The retry policy `unifaas-fabric` uses on the process backend.
fn policy() -> LiveRetryPolicy {
    LiveRetryPolicy {
        max_attempts: 5,
        task_timeout: Some(Duration::from_secs(10)),
        backoff: Duration::from_millis(50),
    }
}

/// A running fabric with the runtime on top.
struct Rig {
    rt: FabricRuntime,
    process: Option<Arc<ProcessFabric>>,
    /// The wire metrics registry and its handles (process backend).
    registry: Option<(MetricsRegistry, Vec<fedci::process::ProcMetricIds>)>,
}

/// Starts a fabric and waits until every endpoint probes Alive. The
/// returned duration is the set-up time.
fn setup(backend: &Backend, seed: u64, traced: bool) -> Result<(Rig, Duration), String> {
    let t0 = Instant::now();
    let (fabric, process): (Arc<dyn Fabric>, _) = match backend {
        Backend::Threaded => {
            let eps: Vec<(String, usize)> = (0..ENDPOINTS)
                .map(|i| (format!("ep{i}"), WORKERS))
                .collect();
            let eps: Vec<(&str, usize)> = eps.iter().map(|(n, w)| (n.as_str(), *w)).collect();
            (
                Arc::new(ThreadedFabric::new(&eps, &FabricTiming::default())),
                None,
            )
        }
        Backend::Process(daemon) => {
            let mut command = vec![daemon.to_string_lossy().into_owned()];
            if traced {
                command.push("--telemetry-ring".into());
                command.push(TRACED_RING.into());
            }
            let specs = (0..ENDPOINTS)
                .map(|i| ProcessEndpointSpec {
                    name: format!("ep{i}"),
                    workers: WORKERS,
                    mode: EndpointMode::Spawn {
                        command: command.clone(),
                    },
                })
                .collect();
            let cfg = ProcessFabricConfig {
                timing: FabricTiming::default(),
                seed,
                respawn: true,
                telemetry: traced,
            };
            let pf = Arc::new(ProcessFabric::new(specs, cfg));
            for ep in 0..ENDPOINTS {
                while pf.probe(ep) != ProbeState::Alive {
                    if t0.elapsed() > Duration::from_secs(20) {
                        pf.shutdown();
                        return Err(format!("endpoint {ep} did not come up within 20 s"));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            (Arc::clone(&pf) as Arc<dyn Fabric>, Some(pf))
        }
    };
    let level = if traced {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    let rt = FabricRuntime::new(fabric)
        .with_retry(policy())
        .with_trace(level);
    let setup = t0.elapsed();
    let registry = process.as_ref().map(|pf| {
        let mut reg = MetricsRegistry::new();
        let ids = pf.register_metrics(&mut reg);
        (reg, ids)
    });
    Ok((
        Rig {
            rt,
            process,
            registry,
        },
        setup,
    ))
}

/// Everything one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    tasks: usize,
    failed: usize,
    /// First submit → every future resolved.
    makespan: f64,
    /// Median and 99th percentile of submit → `wait()` returns, µs.
    p50_us: f64,
    p99_us: f64,
    /// Peak RSS of this process during the repetition.
    client_rss_mb: f64,
    dispatched: u64,
    retries: u64,
    watchdog_timeouts: u64,
    daemon_rss_mb: f64,
    // Wire counters (process backend), summed over endpoints.
    frames: f64,
    bytes: f64,
    dispatch_rtt: Option<LogHistogram>,
    failovers: u64,
    stale_results: u64,
    connects: u64,
    // Traced pass only.
    chains: Vec<AttemptChain>,
    dispatches: Vec<u64>,
    /// Daemon events lost to the daemon's ring or the client's buffer.
    telemetry_dropped: u64,
}

/// Runs one repetition on a fresh fabric: set up, submit, wait, check,
/// shut down. Spans go to `spans` under one `rep` span.
fn rep(
    kind: Kind,
    backend: &Backend,
    inputs: Inputs,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let rep_id = spans.reserve();
    crate::record::reset_peak_rss();
    let t_rep = Instant::now();
    let (mut rig, setup) = setup(backend, seed, traced)?;
    spans.record("setup", rep_id, t_rep, t_rep + setup);
    let rt = &rig.rt;
    let Inputs { tasks, expect } = inputs;
    let n = tasks.len();
    let mut futures: Vec<WireFuture> = Vec::with_capacity(n);
    let mut submitted: Vec<Instant> = Vec::with_capacity(n);
    let mut outputs = Vec::with_capacity(n);
    let mut latency_us = Vec::with_capacity(n);
    let first = Instant::now();
    match kind {
        Kind::Chain => {
            for task in tasks {
                let s = Instant::now();
                let f = {
                    let deps: Vec<&WireFuture> = task.deps.iter().map(|&d| &futures[d]).collect();
                    rt.submit(task.function, task.payload, &deps)
                };
                let e = Instant::now();
                spans.record("runtime.fabric.submit", rep_id, s, e);
                let out = f.wait();
                let done = Instant::now();
                spans.record("runtime.fabric.wait", rep_id, e, done);
                latency_us.push((done - s).as_secs_f64() * 1e6);
                outputs.push(out);
                futures.push(f);
            }
        }
        Kind::Dag | Kind::Bytes => {
            for task in tasks {
                let s = Instant::now();
                let f = {
                    let deps: Vec<&WireFuture> = task.deps.iter().map(|&d| &futures[d]).collect();
                    rt.submit(task.function, task.payload, &deps)
                };
                spans.record("runtime.fabric.submit", rep_id, s, Instant::now());
                submitted.push(s);
                futures.push(f);
            }
            let last_submit = Instant::now();
            for (f, s) in futures.iter().zip(&submitted) {
                let out = f.wait();
                latency_us.push(s.elapsed().as_secs_f64() * 1e6);
                outputs.push(out);
            }
            spans.record("runtime.fabric.wait", rep_id, last_submit, Instant::now());
        }
    }
    let end = Instant::now();
    rt.wait_all();
    let stats = rt.stats();
    let client_rss_mb = crate::record::peak_rss_mb("self").unwrap_or(0.0);

    let mut out = Rep {
        setup_s: setup.as_secs_f64(),
        tasks: n,
        makespan: (end - first).as_secs_f64(),
        p50_us: quantile(&mut latency_us, 0.50),
        p99_us: quantile(&mut latency_us, 0.99),
        client_rss_mb,
        dispatched: stats.dispatched,
        retries: stats.retries,
        watchdog_timeouts: stats.watchdog_timeouts,
        ..Rep::default()
    };
    let mut regen = Vec::new();
    for (got, want) in outputs.iter().zip(&expect) {
        let ok = match (got, want) {
            (Ok(bytes), Expect::Word(w)) => bytes.as_slice() == w.as_slice(),
            (Ok(bytes), Expect::Regen { seed, len }) => {
                regen.clear();
                regen.extend_from_slice(&SplitMix(*seed).bytes(*len));
                bytes.as_slice() == regen.as_slice()
            }
            (Err(_), _) => false,
        };
        out.failed += usize::from(!ok);
    }
    drop(outputs);

    if let Some(pf) = &rig.process {
        out.daemon_rss_mb = crate::record::children_peak_rss_mb(DAEMON_COMM);
        let (reg, ids) = rig.registry.as_mut().expect("registered at setup");
        pf.sample_metrics(reg, ids);
        let mut rtt = LogHistogram::new();
        for (ep, name) in pf.labels().iter().enumerate() {
            let l = &[("endpoint", name.as_str())];
            for family in [
                "fedci_wire_frames_sent_total",
                "fedci_wire_frames_received_total",
            ] {
                let id = reg.counter(family, "", l);
                out.frames += reg.counter_value(id);
            }
            for family in [
                "fedci_wire_bytes_sent_total",
                "fedci_wire_bytes_received_total",
            ] {
                let id = reg.counter(family, "", l);
                out.bytes += reg.counter_value(id);
            }
            let h = reg.histogram("fedci_wire_dispatch_roundtrip_seconds", "", l);
            if let Some(sketch) = reg.histogram_sketch(h) {
                rtt.merge(sketch);
            }
            let c = pf.counters(ep);
            out.failovers += c.failovers;
            out.stale_results += c.stale_results;
            out.connects += c.connects;
        }
        out.dispatch_rtt = Some(rtt);
    }

    let tracer = rt.take_client_tracer();
    let t_shut = Instant::now();
    rig.rt.fabric().shutdown();
    spans.record("fedci.process.shutdown", rep_id, t_shut, Instant::now());
    spans.record_as(rep_id, "rep", 0, t_rep, Instant::now());

    if traced {
        if let Some(pf) = &rig.process {
            let telemetry: Vec<_> = (0..ENDPOINTS).map(|ep| pf.telemetry(ep)).collect();
            out.dispatches = telemetry.iter().map(|t| t.counters.dispatches).collect();
            out.telemetry_dropped = telemetry
                .iter()
                .map(|t| t.ring_dropped + t.dropped_events)
                .sum();
            out.chains = attempt_chains(tracer.as_ref(), &telemetry);
        }
    }
    Ok(out)
}

/// Repetitions of one pass, run until `budget` is spent (at least one).
fn pass(
    kind: Kind,
    backend: &Backend,
    sizes: &Sizes,
    seed: u64,
    budget: Duration,
    traced: bool,
    spans: &mut Spans,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed() < budget {
        // Each repetition gets fresh inputs from the same seed, built
        // before its clock starts.
        let inp = inputs(kind, sizes, seed);
        reps.push(rep(kind, backend, inp, seed, traced, spans)?);
    }
    Ok(reps)
}

/// Set-up times of a pass's repetitions, topped up with extra
/// set-up/shutdown cycles to [`MIN_SETUPS`] samples.
fn setup_samples(backend: &Backend, seed: u64, reps: &[Rep]) -> Result<Vec<f64>, String> {
    let mut all: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while all.len() < MIN_SETUPS {
        let (rig, d) = setup(backend, seed, false)?;
        rig.rt.fabric().shutdown();
        all.push(d.as_secs_f64());
    }
    Ok(all)
}

/// One figure per repetition.
fn each(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

fn tasks_per_s(reps: &[Rep]) -> f64 {
    fast_rate(&each(reps, |r| ratio(r.tasks as f64, r.makespan)))
}

/// Tasks attempted and failed over a pass.
fn tally(reps: &[Rep]) -> (u64, u64) {
    (
        reps.iter().map(|r| r.tasks as u64).sum(),
        reps.iter().map(|r| r.failed as u64).sum(),
    )
}

/// The untraced, timed run: every end-to-end metric. Times and rates are
/// the fast quartile over repetitions; memory is the first repetition's
/// (client) and the median (daemons, fresh in every repetition).
pub fn timed(
    kind: Kind,
    daemon: PathBuf,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let backend = Backend::Process(daemon);
    let reps = pass(
        kind,
        &backend,
        sizes,
        seed,
        Duration::from_secs_f64(seconds),
        false,
        &mut Spans::new(false),
    )?;
    let setups = setup_samples(&backend, seed, &reps)?;
    // The first repetition's peak: it runs in a fresh process. Later ones
    // start on the heap earlier repetitions freed but glibc kept mapped.
    let client = reps[0].client_rss_mb;
    let daemons = median(&each(&reps, |r| r.daemon_rss_mb));
    let mut m = Metrics::default();
    m.put("setup_s", fast_time(&setups), "s");
    m.put("tasks_per_s", tasks_per_s(&reps), "1/s");
    m.put("makespan_s", fast_time(&each(&reps, |r| r.makespan)), "s");
    m.put("client_peak_rss_mb", client, "MiB");
    m.put("total_peak_rss_mb", client + daemons, "MiB");
    let (attempted, failed) = tally(&reps);
    let notes = vec![
        format!(
            "reps={} tasks_per_rep={} setup_samples={}",
            reps.len(),
            reps[0].tasks,
            setups.len()
        ),
        format!("daemon_peak_rss_mb = {daemons} MiB (median over reps, both daemons)"),
        format!(
            "latency_p50_us = {} us, latency_p99_us = {} us (fast quartile over reps)",
            fast_time(&each(&reps, |r| r.p50_us)),
            fast_time(&each(&reps, |r| r.p99_us))
        ),
        format!(
            "per-rep tasks/s: {}",
            listing(each(&reps, |r| ratio(r.tasks as f64, r.makespan)))
        ),
        format!(
            "per-rep client peak rss MiB: {}",
            listing(each(&reps, |r| r.client_rss_mb))
        ),
        format!(
            "per-rep daemon peak rss MiB: {}",
            listing(each(&reps, |r| r.daemon_rss_mb))
        ),
        format!(
            "per-rep latency p50 us: {}",
            listing(each(&reps, |r| r.p50_us))
        ),
        format!(
            "per-rep latency p99 us: {}",
            listing(each(&reps, |r| r.p99_us))
        ),
    ];
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        notes,
        spans: None,
    })
}

/// Per-hop samples joined from complete attempt chains, µs.
///
/// The hops telescope: out + queue + exec + reply + in is the client's
/// attempt time. queue, exec and reply are differences on the daemon's
/// clock and out + in (the wire round trip) on the client's, so those are
/// exact; only the split between out and in rests on the clock offset,
/// and is reported with its uncertainty.
#[derive(Default)]
struct Hops {
    attempt: Vec<f64>,
    out: Vec<f64>,
    queue: Vec<f64>,
    exec: Vec<f64>,
    reply: Vec<f64>,
    back: Vec<f64>,
    wire: Vec<f64>,
    uncertainty: Vec<f64>,
    /// Client attempt time, over every attempt and over the attempts
    /// whose chain is complete.
    attempt_total: f64,
    covered_total: f64,
}

fn hops(reps: &[Rep]) -> Hops {
    let mut h = Hops::default();
    for c in reps.iter().flat_map(|r| &r.chains) {
        let (Some(dispatch), Some(done)) = (c.c_dispatch_us, c.c_done_us) else {
            continue;
        };
        let attempt = (done - dispatch) as f64;
        h.attempt.push(attempt);
        h.attempt_total += attempt;
        let (Some(recv), Some(begin), Some(end), Some(sent)) =
            (c.d_recv_us, c.d_exec_begin_us, c.d_exec_end_us, c.d_sent_us)
        else {
            continue;
        };
        h.covered_total += attempt;
        h.out.push((recv - dispatch) as f64);
        h.queue.push((begin - recv) as f64);
        h.exec.push((end - begin) as f64);
        h.reply.push((sent - end) as f64);
        h.back.push((done - sent) as f64);
        h.wire.push(attempt - (sent - recv) as f64);
        h.uncertainty.push(c.uncertainty_us as f64);
    }
    h
}

/// The traced run: an untraced pass, a traced pass, a threaded pass and
/// two side passes, each on a share of the budget; every per-layer metric.
///
/// The side passes run the other two shapes on the same process fabric,
/// untraced: the one-in-flight chain gives the per-hop latency (submit →
/// `wait()` returns), the 1 MiB echo/sum64 pass the payload path (wire
/// bytes, throughput, daemon memory). They are per-layer figures rather
/// than workloads of their own because between runs they drift with the
/// host by more than any bound: the chain with how fast the host wakes
/// the next thread, the bytes pass with memory bandwidth and page faults.
pub fn traced(
    kind: Kind,
    daemon: PathBuf,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let backend = Backend::Process(daemon);
    let eighth = Duration::from_secs_f64(seconds / 8.0);
    let mut quiet = Spans::new(false);
    let plain = pass(kind, &backend, sizes, seed, eighth * 2, false, &mut quiet)?;
    let mut spans = Spans::new(true);
    let traced = pass(kind, &backend, sizes, seed, eighth * 2, true, &mut spans)?;
    let threaded = pass(
        kind,
        &Backend::Threaded,
        sizes,
        seed,
        eighth,
        false,
        &mut quiet,
    )?;
    let chain = pass(
        Kind::Chain,
        &backend,
        sizes,
        seed,
        eighth,
        false,
        &mut quiet,
    )?;
    let payload = pass(
        Kind::Bytes,
        &backend,
        sizes,
        seed,
        eighth * 2,
        false,
        &mut quiet,
    )?;

    let tasks: f64 = traced.iter().map(|r| r.tasks as f64).sum();
    let plain_tasks: f64 = plain.iter().map(|r| r.tasks as f64).sum();
    let mut metrics = Metrics::default();
    let m = &mut metrics;

    m.put(
        "runtime.fabric.latency_p50_us",
        fast_time(&each(&chain, |r| r.p50_us)),
        "us",
    );
    m.put(
        "runtime.fabric.latency_p99_us",
        fast_time(&each(&chain, |r| r.p99_us)),
        "us",
    );
    let mut submit = spans.durations_us("runtime.fabric.submit");
    m.put(
        "runtime.fabric.submit_us_p50",
        quantile(&mut submit, 0.50),
        "us",
    );
    m.put(
        "runtime.fabric.submit_us_p99",
        quantile(&mut submit, 0.99),
        "us",
    );
    // Blocked time per repetition: chain waits once per task, the DAG
    // workloads once after their last submit.
    m.put(
        "runtime.fabric.wait_s",
        median(&spans.sum_by_parent_s("runtime.fabric.wait")),
        "s",
    );
    let dispatched: u64 = traced.iter().map(|r| r.dispatched).sum();
    m.put(
        "runtime.fabric.attempts_per_task",
        ratio(dispatched as f64, tasks),
        "ratio",
    );
    m.put(
        "runtime.fabric.retries",
        traced.iter().map(|r| r.retries).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "runtime.fabric.watchdog_timeouts",
        traced.iter().map(|r| r.watchdog_timeouts).sum::<u64>() as f64,
        "count",
    );
    let mut per_ep = [0u64; ENDPOINTS];
    for r in &traced {
        for (ep, d) in r.dispatches.iter().enumerate() {
            per_ep[ep] += d;
        }
    }
    let total: u64 = per_ep.iter().sum();
    m.put(
        "runtime.fabric.max_endpoint_share",
        ratio(*per_ep.iter().max().unwrap_or(&0) as f64, total as f64),
        "ratio",
    );
    m.put(
        "runtime.fabric.threaded_tasks_per_s",
        tasks_per_s(&threaded),
        "1/s",
    );

    let mut h = hops(&traced);
    m.put(
        "runtime.fabric.attempt_us_p50",
        quantile(&mut h.attempt, 0.50),
        "us",
    );
    m.put(
        "runtime.fabric.attempt_us_p99",
        quantile(&mut h.attempt, 0.99),
        "us",
    );

    // Wire counters come from the untraced pass, so TELEMETRY frames do
    // not inflate them.
    let frames: f64 = plain.iter().map(|r| r.frames).sum();
    let bytes: f64 = plain.iter().map(|r| r.bytes).sum();
    m.put(
        "fedci.proto.frames_per_task",
        ratio(frames, plain_tasks),
        "frames/task",
    );
    m.put(
        "fedci.proto.bytes_per_task",
        ratio(bytes, plain_tasks),
        "B/task",
    );
    let mut rtt = LogHistogram::new();
    for r in &plain {
        if let Some(s) = &r.dispatch_rtt {
            rtt.merge(s);
        }
    }
    m.put(
        "fedci.process.dispatch_rtt_p50_us",
        rtt.quantile(0.50).unwrap_or(0.0) * 1e6,
        "us",
    );
    m.put(
        "fedci.process.dispatch_rtt_p99_us",
        rtt.quantile(0.99).unwrap_or(0.0) * 1e6,
        "us",
    );
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    m.put(
        "fedci.process.failovers",
        all.iter().map(|r| r.failovers).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "fedci.process.stale_results",
        all.iter().map(|r| r.stale_results).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "fedci.process.connects",
        ratio(
            all.iter().map(|r| r.connects).sum::<u64>() as f64,
            (all.len() * ENDPOINTS) as f64,
        ),
        "1/endpoint",
    );
    m.put(
        "fedci.process.shutdown_s",
        median(&spans.durations_s("fedci.process.shutdown")),
        "s",
    );

    for (name, v) in [
        ("queue", &mut h.queue),
        ("exec", &mut h.exec),
        ("reply", &mut h.reply),
    ] {
        m.put(format!("endpointd.{name}_us_p50"), quantile(v, 0.50), "us");
        m.put(format!("endpointd.{name}_us_p99"), quantile(v, 0.99), "us");
    }
    for (ep, d) in per_ep.iter().enumerate() {
        m.put(
            format!("endpointd.dispatches.ep{ep}"),
            ratio(*d as f64, traced.len() as f64),
            "count",
        );
    }
    m.put(
        "endpointd.telemetry_dropped",
        traced.iter().map(|r| r.telemetry_dropped).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "endpointd.peak_rss_mb",
        median(&each(&plain, |r| r.daemon_rss_mb)),
        "MiB",
    );
    m.put(
        "runtime.fabric.bytes_pass.tasks_per_s",
        tasks_per_s(&payload),
        "1/s",
    );
    m.put(
        "fedci.proto.bytes_pass.bytes_per_task",
        ratio(
            payload.iter().map(|r| r.bytes).sum(),
            payload.iter().map(|r| r.tasks as f64).sum(),
        ),
        "B/task",
    );
    m.put(
        "endpointd.bytes_pass.peak_rss_mb",
        median(&each(&payload, |r| r.daemon_rss_mb)),
        "MiB",
    );

    m.put("wire.out_us_p50", quantile(&mut h.out, 0.50), "us");
    m.put("wire.in_us_p50", quantile(&mut h.back, 0.50), "us");
    m.put(
        "wire.clock_uncertainty_us",
        quantile(&mut h.uncertainty, 0.50),
        "us",
    );
    m.put("wire.rtt_us_p50", quantile(&mut h.wire, 0.50), "us");
    m.put(
        "wire.hop_coverage",
        ratio(h.covered_total, h.attempt_total),
        "ratio",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(tasks_per_s(&traced), tasks_per_s(&plain)),
        "ratio",
    );

    let (a1, f1) = tally(&plain);
    let (a2, f2) = tally(&traced);
    let (a3, f3) = tally(&threaded);
    let (a4, f4) = tally(&chain);
    let (a5, f5) = tally(&payload);
    Ok(Outcome {
        metrics,
        attempted: a1 + a2 + a3 + a4 + a5,
        failed: f1 + f2 + f3 + f4 + f5,
        notes: Vec::new(),
        spans: Some(spans),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_references_chain() {
        let sizes = Sizes::SMOKE;
        let a = inputs(Kind::Dag, &sizes, 5);
        let b = inputs(Kind::Dag, &sizes, 5);
        let c = inputs(Kind::Dag, &sizes, 6);
        assert_eq!(a.tasks.len(), sizes.dag_tasks);
        let deps = |i: &Inputs| i.tasks.iter().map(|t| t.deps.clone()).collect::<Vec<_>>();
        assert_eq!(deps(&a), deps(&b));
        assert_ne!(deps(&a), deps(&c));
        // Every non-root task depends on two distinct tasks one layer up.
        for (i, t) in a.tasks.iter().enumerate().skip(sizes.dag_width) {
            let layer = i / sizes.dag_width;
            assert_eq!(t.deps.len(), 2);
            assert_ne!(t.deps[0], t.deps[1]);
            assert!(t.deps.iter().all(|d| d / sizes.dag_width == layer - 1));
        }
        let bytes = inputs(Kind::Bytes, &sizes, 5);
        assert_eq!(bytes.tasks.len(), 3 * sizes.producers);
        assert_eq!(bytes.tasks[0].payload.len(), sizes.payload_bytes);
    }

    #[test]
    fn threaded_run_matches_the_references() {
        let mut spans = Spans::new(true);
        for kind in [Kind::Dag, Kind::Chain, Kind::Bytes] {
            let r = rep(
                kind,
                &Backend::Threaded,
                inputs(kind, &Sizes::SMOKE, 3),
                3,
                false,
                &mut spans,
            )
            .unwrap();
            assert_eq!(r.failed, 0, "{kind:?}");
            assert!(r.p50_us > 0.0 && r.p99_us >= r.p50_us, "{kind:?}");
        }
    }
}
