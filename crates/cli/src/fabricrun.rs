//! Shared driver for fabric-backed runs: a deterministic layered DAG of
//! byte-level `fnv` tasks plus a digest over the full result vector.
//!
//! Both the `unifaas-fabric` binary and the chaos integration tests use
//! this module, because the headline robustness assertion is *semantic
//! equivalence*: a run that survived SIGKILLs, cut connections, and
//! re-dispatch must produce exactly the per-task results of an unfaulted
//! run. The workload is therefore built to be placement-independent —
//! every task's output is a pure function of the DAG structure and the
//! seed, never of which endpoint ran it or in what order.

use std::sync::Arc;
use unifaas::runtime::fabric::{FabricRuntime, WireFuture};

/// Shape of the layered chained-hash workload.
#[derive(Clone, Copy, Debug)]
pub struct FabricWorkload {
    /// Total task count.
    pub tasks: usize,
    /// Layer width: task `i` depends on `i-1` (chain) and `i-width`
    /// (cross-layer edge), where present. Width > 1 adds edges, not
    /// parallelism: the `i-1` edge makes the DAG a serial chain at any
    /// width, with at most one task runnable at a time, so a mid-run
    /// fault always lands on in-flight work.
    pub width: usize,
    /// Mixed into every task's payload; two runs agree iff seeds agree.
    pub seed: u64,
}

impl FabricWorkload {
    /// A workload of `tasks` tasks with a default width of 4.
    pub fn new(tasks: usize, seed: u64) -> Self {
        FabricWorkload {
            tasks,
            width: 4,
            seed,
        }
    }
}

/// Submits the whole DAG without blocking; returns one future per task,
/// in task order.
pub fn submit_layered(rt: &FabricRuntime, w: &FabricWorkload) -> Vec<WireFuture> {
    let mut futures: Vec<WireFuture> = Vec::with_capacity(w.tasks);
    for i in 0..w.tasks {
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&w.seed.to_le_bytes());
        payload.extend_from_slice(&(i as u64).to_le_bytes());
        let mut deps: Vec<&WireFuture> = Vec::with_capacity(2);
        if i >= 1 {
            deps.push(&futures[i - 1]);
        }
        if w.width > 1 && i >= w.width {
            deps.push(&futures[i - w.width]);
        }
        futures.push(rt.submit("fnv", payload, &deps));
    }
    futures
}

/// Collected outcome of one run: per-task results in task order, their
/// digest, and the failure count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Per-task output bytes (or the final error message), task order.
    pub results: Vec<Result<Arc<Vec<u8>>, String>>,
    /// Order-sensitive FNV-1a digest over every task's outcome.
    pub digest: u64,
    /// How many tasks failed permanently.
    pub failures: usize,
}

/// Waits for every future and folds the results into a digest. The
/// digest covers task index, ok/err tag, and the output bytes, so two
/// runs match iff they agree on *every* task's result.
pub fn collect_outcome(futures: &[WireFuture]) -> RunOutcome {
    let mut stream = Vec::with_capacity(futures.len() * 17);
    let mut results = Vec::with_capacity(futures.len());
    let mut failures = 0;
    for (i, f) in futures.iter().enumerate() {
        stream.extend_from_slice(&(i as u64).to_le_bytes());
        match f.wait() {
            Ok(bytes) => {
                stream.push(1);
                stream.extend_from_slice(&bytes);
                results.push(Ok(bytes));
            }
            Err(e) => {
                let msg = e.to_string();
                stream.push(0);
                failures += 1;
                results.push(Err(msg));
            }
        }
    }
    RunOutcome {
        results,
        digest: fedci::fabric::fnv1a64(&stream),
        failures,
    }
}

/// Runs the workload to completion on `rt` and returns the outcome.
pub fn run_workload(rt: &FabricRuntime, w: &FabricWorkload) -> RunOutcome {
    let futures = submit_layered(rt, w);
    rt.wait_all();
    collect_outcome(&futures)
}

/// The expected outcome computed in-process, no fabric involved — the
/// ground truth faulted runs are compared against.
pub fn reference_outcome(w: &FabricWorkload) -> Vec<Vec<u8>> {
    let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(w.tasks);
    for i in 0..w.tasks {
        let mut input = Vec::new();
        if i >= 1 {
            input.extend_from_slice(&outputs[i - 1]);
        }
        if w.width > 1 && i >= w.width {
            input.extend_from_slice(&outputs[i - w.width]);
        }
        input.extend_from_slice(&w.seed.to_le_bytes());
        input.extend_from_slice(&(i as u64).to_le_bytes());
        outputs.push(fedci::fabric::fnv1a64(&input).to_le_bytes().to_vec());
    }
    outputs
}

/// Locates the sibling `unifaas-endpointd` binary next to the running
/// executable (the layout `cargo` produces for both `target/debug` and
/// integration-test runs, where test binaries live one level deeper).
pub fn default_daemon_path() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("unifaas-endpointd{}", std::env::consts::EXE_SUFFIX);
    for dir in exe.ancestors().skip(1).take(3) {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::fabric::{FabricTiming, ThreadedFabric};

    #[test]
    fn reference_matches_threaded_run() {
        let w = FabricWorkload::new(40, 7);
        let fabric = Arc::new(ThreadedFabric::new(
            &[("a", 2), ("b", 2)],
            &FabricTiming::fast(),
        ));
        let rt = FabricRuntime::new(fabric);
        let outcome = run_workload(&rt, &w);
        assert_eq!(outcome.failures, 0);
        let want = reference_outcome(&w);
        for (i, (got, want)) in outcome.results.iter().zip(&want).enumerate() {
            assert_eq!(
                got.as_ref().unwrap().as_slice(),
                want.as_slice(),
                "task {i}"
            );
        }
    }

    #[test]
    fn digest_is_seed_and_shape_sensitive() {
        let fabric = Arc::new(ThreadedFabric::new(&[("a", 2)], &FabricTiming::fast()));
        let rt = FabricRuntime::new(fabric);
        let a = run_workload(&rt, &FabricWorkload::new(10, 1));
        let b = run_workload(&rt, &FabricWorkload::new(10, 2));
        assert_ne!(a.digest, b.digest);
    }
}
