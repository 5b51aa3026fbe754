//! UniFaaS benchmark: two workloads over the real-wire fabric and the
//! simulator, timed from outside through the crates' public functions.
//!
//! ```text
//! perfbench --workload fabric-dag|sim-drug
//!           --seed <n> --seconds <s> --trace 0|1
//!           [--daemon <unifaas-endpointd>] [--smoke]
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs an
//! untraced and a traced pass and prints every per-layer metric, writing
//! the benchmark's spans to `.bench_out/<workload>.spans.json`. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--smoke` shrinks every workload to a few seconds'
//! worth. See `perfbench/README.md` for the workloads and metrics.

mod fabric;
mod record;
mod sim;

use record::{Metrics, Outcome};
use std::path::{Path, PathBuf};

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

/// Every per-layer metric name: the traced run reports each one on every
/// workload (0 where the workload leaves the layer idle).
const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.fabric.latency_p50_us", "us"),
    ("runtime.fabric.latency_p99_us", "us"),
    ("runtime.fabric.submit_us_p50", "us"),
    ("runtime.fabric.submit_us_p99", "us"),
    ("runtime.fabric.wait_s", "s"),
    ("runtime.fabric.attempts_per_task", "ratio"),
    ("runtime.fabric.retries", "count"),
    ("runtime.fabric.watchdog_timeouts", "count"),
    ("runtime.fabric.max_endpoint_share", "ratio"),
    ("runtime.fabric.threaded_tasks_per_s", "1/s"),
    ("runtime.fabric.attempt_us_p50", "us"),
    ("runtime.fabric.attempt_us_p99", "us"),
    ("fedci.proto.frames_per_task", "frames/task"),
    ("fedci.proto.bytes_per_task", "B/task"),
    ("fedci.process.dispatch_rtt_p50_us", "us"),
    ("fedci.process.dispatch_rtt_p99_us", "us"),
    ("fedci.process.failovers", "count"),
    ("fedci.process.stale_results", "count"),
    ("fedci.process.connects", "1/endpoint"),
    ("fedci.process.shutdown_s", "s"),
    ("endpointd.queue_us_p50", "us"),
    ("endpointd.queue_us_p99", "us"),
    ("endpointd.exec_us_p50", "us"),
    ("endpointd.exec_us_p99", "us"),
    ("endpointd.reply_us_p50", "us"),
    ("endpointd.reply_us_p99", "us"),
    ("endpointd.dispatches.ep0", "count"),
    ("endpointd.dispatches.ep1", "count"),
    ("endpointd.telemetry_dropped", "count"),
    ("endpointd.peak_rss_mb", "MiB"),
    ("runtime.fabric.bytes_pass.tasks_per_s", "1/s"),
    ("fedci.proto.bytes_pass.bytes_per_task", "B/task"),
    ("endpointd.bytes_pass.peak_rss_mb", "MiB"),
    ("wire.out_us_p50", "us"),
    ("wire.in_us_p50", "us"),
    ("wire.clock_uncertainty_us", "us"),
    ("wire.rtt_us_p50", "us"),
    ("wire.hop_coverage", "ratio"),
    ("taskgraph.generate_s", "s"),
    ("runtime.sim.new_s", "s"),
    ("runtime.sim.run_s", "s"),
    ("runtime.sim.tasks_per_s", "1/s"),
    ("runtime.sim.events_per_s", "1/s"),
    ("runtime.sim.nonsched_s", "s"),
    ("sched.wall_s", "s"),
    ("sched.us_per_task", "us"),
    ("sched.calls", "count"),
    ("data.transfer_gb", "GB"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload fabric-dag|sim-drug \
         --seed <n> --seconds <s> --trace 0|1 [--daemon <path>] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--daemon" => a.daemon = Some(PathBuf::from(value())),
            "--smoke" => a.smoke = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    a
}

/// The run's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Fills in the per-layer metrics a workload leaves idle with 0, in the
/// canonical order.
fn complete_per_layer(m: Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value =
            m.0.iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
        out.put(*name, value, unit);
    }
    debug_assert!(m
        .0
        .iter()
        .all(|(n, _, _)| PER_LAYER.iter().any(|(p, _)| p == n)));
    out
}

fn run(a: &Args) -> Result<Outcome, String> {
    let kind = match a.workload.as_str() {
        "fabric-dag" => Some(fabric::Kind::Dag),
        "sim-drug" => None,
        other => usage(&format!("unknown workload `{other}`")),
    };
    let mut out = match kind {
        Some(kind) => {
            let daemon = a
                .daemon
                .clone()
                .ok_or("fabric workloads need --daemon <unifaas-endpointd>")?;
            if !daemon.is_file() {
                return Err(format!("no daemon binary at {}", daemon.display()));
            }
            let sizes = if a.smoke {
                fabric::Sizes::SMOKE
            } else {
                fabric::Sizes::FULL
            };
            if a.trace {
                fabric::traced(kind, daemon, &sizes, a.seed, a.seconds)?
            } else {
                fabric::timed(kind, daemon, &sizes, a.seed, a.seconds)?
            }
        }
        None => {
            let sizes = if a.smoke {
                sim::Sizes::SMOKE
            } else {
                sim::Sizes::FULL
            };
            if a.trace {
                sim::traced(&sizes, a.seed, a.seconds)
            } else {
                sim::timed(&sizes, a.seed, a.seconds)
            }
        }
    };
    if let Some(spans) = &out.spans {
        let path = Path::new(SPAN_DIR).join(format!("{}.spans.json", a.workload));
        spans.write_chrome(&path).map_err(|e| e.to_string())?;
        out.metrics = complete_per_layer(std::mem::take(&mut out.metrics));
    }
    Ok(out)
}

fn main() {
    let a = parse_args();
    if a.workload.is_empty() {
        usage("--workload is required");
    }
    let out = run(&a).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for n in &out.notes {
        println!("{}: {n}", a.workload);
    }
    for (name, value, unit) in &out.metrics.0 {
        println!("{}: {name} = {value} {unit}", a.workload);
    }
    println!(
        "{}: failed_task_ratio = {} ratio ({} of {} tasks)",
        a.workload,
        record::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    let finite = out.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &out.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.125, "s");
        m.put("tasks_per_s", 36000.5, "1/s");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"tasks_per_s\": {\"value\": 36000.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn per_layer_list_is_complete_and_unique() {
        let mut m = Metrics::default();
        m.put("sched.calls", 7.0, "count");
        let out = complete_per_layer(m);
        assert_eq!(out.0.len(), PER_LAYER.len());
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(out
            .0
            .iter()
            .any(|(n, v, _)| n == "sched.calls" && *v == 7.0));
    }
}
