//! Workflow execution runtimes.
//!
//! Three engines execute workflows:
//!
//! * [`sim`] — a deterministic discrete-event runtime over virtual time,
//!   reproducing the paper's experiments at full scale in milliseconds;
//! * [`live`] — a real-thread runtime executing actual Rust closures on
//!   per-endpoint worker pools (the `fedci::threaded` fabric);
//! * [`fabric`] — a wire-level runtime over any [`fedci::fabric::Fabric`]
//!   backend, including process-isolated TCP endpoint daemons
//!   (`fedci::process`).
//!
//! [`live`] and [`fabric`] are thin drivers around one exactly-once
//! coordinator, [`coord`]: futures, dependency release, retries, the
//! watchdog's overdue scan and health-filtered placement exist once. The
//! paper's schedulers, data manager and profilers run inside [`sim`].

pub mod coord;
pub mod fabric;
pub mod live;
pub mod sim;

/// Lifecycle of a task in the simulated runtime ([`sim`]).
///
/// ```text
/// Waiting → Ready → Staging → Staged → Dispatched → Running
///                                                      ├→ AwaitResult → Done
///                                                      └→ (failure) → Ready (retry) | Failed
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Dependencies incomplete.
    Waiting,
    /// All dependencies complete; scheduler notified.
    Ready,
    /// Target endpoint chosen; transfers in flight.
    Staging,
    /// All inputs present at the target; awaiting dispatch (DHA's delay
    /// queue lives here).
    Staged,
    /// Submitted; travelling to, or queued at, the endpoint.
    Dispatched,
    /// Executing on a worker.
    Running,
    /// Execution finished; result not yet observed by the client.
    AwaitResult,
    /// Completed successfully.
    Done,
    /// Permanently failed.
    Failed,
}
