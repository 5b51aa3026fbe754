//! The simulator workload: the paper's drug-screening DAG (Table V,
//! 12,001 functions) on the §VI-B dynamic-capacity pool under DHA with
//! re-scheduling. Each repetition times `drug::generate`,
//! `SimRuntime::new` and `SimRuntime::run` from outside.

use crate::record::{
    fast_rate, fast_time, listing, median, ratio, Metrics, Outcome, Spans, SplitMix,
};
use std::time::Instant;
use taskgraph::workloads::drug::{self, DrugParams};
use unifaas::config::SchedulingStrategy;
use unifaas::SimRuntime;

/// Workload sizes: drug pipelines per DAG and seeded DAGs per run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub pipelines: usize,
    pub dags: usize,
}

impl Sizes {
    /// Table V's study size: 3,000 pipelines, 12,001 functions.
    pub const FULL: Sizes = Sizes {
        pipelines: 3_000,
        dags: 4,
    };
    pub const SMOKE: Sizes = Sizes {
        pipelines: 50,
        dags: 2,
    };
}

/// One simulated workflow run.
struct Rep {
    dag: usize,
    tasks: usize,
    generate_s: f64,
    new_s: f64,
    run_s: f64,
    ok: bool,
    makespan_s: f64,
    digest: u64,
    events: u64,
    sched_wall_s: f64,
    sched_calls: u64,
    transfer_gb: f64,
}

fn rep(k: usize, dag_seed: u64, sizes: &Sizes, spans: &mut Spans) -> Rep {
    let params = DrugParams {
        n_pipelines: sizes.pipelines,
        seed: dag_seed,
        ..DrugParams::dynamic_study()
    };
    let mut cfg = unifaas_bench::drug_dynamic_pool().seed(dag_seed).build();
    cfg.strategy = SchedulingStrategy::Dha { rescheduling: true };
    let rep_id = spans.reserve();
    let t0 = Instant::now();
    let dag = drug::generate(&params);
    let t1 = Instant::now();
    let tasks = dag.len();
    let rt = SimRuntime::new(cfg, dag);
    let t2 = Instant::now();
    let report = rt.run();
    let t3 = Instant::now();
    spans.record("taskgraph.generate", rep_id, t0, t1);
    spans.record("runtime.sim.new", rep_id, t1, t2);
    spans.record("runtime.sim.run", rep_id, t2, t3);
    spans.record_as(rep_id, "rep", 0, t0, t3);
    let mut out = Rep {
        dag: k,
        tasks,
        generate_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        ok: false,
        makespan_s: 0.0,
        digest: 0,
        events: 0,
        sched_wall_s: 0.0,
        sched_calls: 0,
        transfer_gb: 0.0,
    };
    match report {
        Ok(r) => {
            out.ok = r.tasks_completed == tasks && r.failed_attempts == 0;
            out.makespan_s = r.makespan.as_secs_f64();
            out.digest = r.determinism_digest();
            out.events = r.events_processed;
            out.sched_wall_s = r.scheduler_wall.as_secs_f64();
            out.sched_calls = r.scheduler_calls;
            out.transfer_gb = r.transfer_gb();
        }
        Err(e) => eprintln!("sim-drug: dag {k} failed: {e}"),
    }
    out
}

/// Runs batches of the seeded DAGs (each DAG once per batch) until
/// `seconds` is spent and at least two batches ran, so every DAG's
/// makespan and digest can be checked for repeatability.
fn pass(sizes: &Sizes, seed: u64, seconds: f64, spans: &mut Spans) -> Vec<Rep> {
    let mut rng = SplitMix(seed ^ 0x5ee0_d4c6);
    let dag_seeds: Vec<u64> = (0..sizes.dags).map(|_| rng.next_u64()).collect();
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 * sizes.dags
        || start.elapsed().as_secs_f64() < seconds
        || reps.len() % sizes.dags != 0
    {
        let k = reps.len() % sizes.dags;
        reps.push(rep(k, dag_seeds[k], sizes, spans));
    }
    reps
}

/// Marks every repetition whose makespan or digest differs from the
/// first run of the same DAG as failed.
fn check_repeats(reps: &mut [Rep]) {
    let mut first: Vec<Option<(f64, u64)>> = Vec::new();
    for r in reps.iter_mut() {
        if first.len() <= r.dag {
            first.resize(r.dag + 1, None);
        }
        match first[r.dag] {
            None if r.ok => first[r.dag] = Some((r.makespan_s, r.digest)),
            Some(f) if f != (r.makespan_s, r.digest) => {
                eprintln!("sim-drug: dag {} did not repeat", r.dag);
                r.ok = false;
            }
            _ => {}
        }
    }
}

/// Simulated tasks attempted and failed; a failed run counts all its
/// tasks as failed.
fn tally(reps: &[Rep]) -> (u64, u64) {
    (
        reps.iter().map(|r| r.tasks as u64).sum(),
        reps.iter().filter(|r| !r.ok).map(|r| r.tasks as u64).sum(),
    )
}

/// Rate of one batch: its simulated tasks over its `run()` wall.
fn batch_rate(batch: &[Rep]) -> f64 {
    ratio(
        batch.iter().map(|r| r.tasks as f64).sum(),
        batch.iter().map(|r| r.run_s).sum(),
    )
}

/// The simulator's own speed: simulated tasks per wall second.
fn wall_tasks_per_s(reps: &[Rep], sizes: &Sizes) -> f64 {
    fast_rate(&reps.chunks(sizes.dags).map(batch_rate).collect::<Vec<_>>())
}

/// Mean of `f` over the distinct DAGs (first run of each).
fn per_dag_mean(reps: &[Rep], sizes: &Sizes, f: impl Fn(&Rep) -> f64) -> f64 {
    let firsts: Vec<f64> = reps.iter().take(sizes.dags).map(f).collect();
    firsts.iter().sum::<f64>() / firsts.len() as f64
}

/// The untraced, timed run: every end-to-end metric. Throughput and
/// makespan are the simulated federation's, which repeat exactly for a
/// seed; the simulator's wall speed is a per-layer metric
/// (`runtime.sim.*`), because the shared host moves it by up to ~45%
/// for minutes at a time.
pub fn timed(sizes: &Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut reps = pass(sizes, seed, seconds, &mut Spans::new(false));
    check_repeats(&mut reps);
    let first = &reps[..sizes.dags];
    let setups: Vec<f64> = reps.iter().map(|r| r.generate_s + r.new_s).collect();
    let rss = crate::record::peak_rss_mb("self").unwrap_or(0.0);
    let mut m = Metrics::default();
    m.put("setup_s", fast_time(&setups), "s");
    m.put(
        "tasks_per_s",
        ratio(
            first.iter().map(|r| r.tasks as f64).sum(),
            first.iter().map(|r| r.makespan_s).sum(),
        ),
        "1/s",
    );
    m.put(
        "makespan_s",
        per_dag_mean(&reps, sizes, |r| r.makespan_s),
        "s",
    );
    m.put("client_peak_rss_mb", rss, "MiB");
    m.put("total_peak_rss_mb", rss, "MiB");
    let (attempted, failed) = tally(&reps);
    let notes = vec![
        format!(
            "batches={} dags_per_batch={} tasks_per_dag={}",
            reps.len() / sizes.dags,
            sizes.dags,
            reps[0].tasks
        ),
        format!(
            "simulator wall tasks/s per batch: {}",
            listing(reps.chunks(sizes.dags).map(batch_rate))
        ),
    ];
    Outcome {
        metrics: m,
        attempted,
        failed,
        notes,
        spans: None,
    }
}

/// The traced run: an untraced and a span-recording pass, half the
/// budget each; the simulator's per-layer metrics.
pub fn traced(sizes: &Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut quiet = Spans::new(false);
    let mut plain = pass(sizes, seed, seconds / 2.0, &mut quiet);
    let mut spans = Spans::new(true);
    let mut reps = pass(sizes, seed, seconds / 2.0, &mut spans);
    check_repeats(&mut plain);
    check_repeats(&mut reps);
    let mut m = Metrics::default();
    m.put(
        "taskgraph.generate_s",
        median(&spans.durations_s("taskgraph.generate")),
        "s",
    );
    m.put(
        "runtime.sim.new_s",
        median(&spans.durations_s("runtime.sim.new")),
        "s",
    );
    m.put(
        "runtime.sim.run_s",
        median(&spans.durations_s("runtime.sim.run")),
        "s",
    );
    m.put(
        "runtime.sim.tasks_per_s",
        wall_tasks_per_s(&plain, sizes),
        "1/s",
    );
    m.put(
        "runtime.sim.events_per_s",
        median(
            &reps
                .iter()
                .map(|r| ratio(r.events as f64, r.run_s))
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    m.put(
        "runtime.sim.nonsched_s",
        median(
            &reps
                .iter()
                .map(|r| r.run_s - r.sched_wall_s)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.put(
        "sched.wall_s",
        median(&reps.iter().map(|r| r.sched_wall_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "sched.us_per_task",
        median(
            &reps
                .iter()
                .map(|r| ratio(r.sched_wall_s * 1e6, r.tasks as f64))
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    m.put(
        "sched.calls",
        per_dag_mean(&reps, sizes, |r| r.sched_calls as f64),
        "count",
    );
    m.put(
        "data.transfer_gb",
        per_dag_mean(&reps, sizes, |r| r.transfer_gb),
        "GB",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(
            wall_tasks_per_s(&reps, sizes),
            wall_tasks_per_s(&plain, sizes),
        ),
        "ratio",
    );
    let (a1, f1) = tally(&plain);
    let (a2, f2) = tally(&reps);
    Outcome {
        metrics: m,
        attempted: a1 + a2,
        failed: f1 + f2,
        notes: Vec::new(),
        spans: Some(spans),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dags_complete_and_repeat() {
        let mut spans = Spans::new(true);
        let mut reps = pass(&Sizes::SMOKE, 9, 0.0, &mut spans);
        assert_eq!(reps.len(), 2 * Sizes::SMOKE.dags);
        check_repeats(&mut reps);
        assert!(reps.iter().all(|r| r.ok));
        assert_ne!(reps[0].digest, reps[1].digest, "DAG seeds differ");
        assert_eq!(spans.durations_s("runtime.sim.run").len(), reps.len());
    }

    #[test]
    fn a_changed_digest_fails_the_run() {
        let mut spans = Spans::new(false);
        let mut reps = pass(&Sizes::SMOKE, 9, 0.0, &mut spans);
        reps[2].digest ^= 1;
        check_repeats(&mut reps);
        assert_eq!(tally(&reps).1, reps[2].tasks as u64);
    }
}
