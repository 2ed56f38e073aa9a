//! Execution statistics for a task-graph run.
//!
//! The experiments of Section VI report recovery overheads and re-executed
//! task counts ("we verify the fault injection by ensuring that the number
//! of tasks recovered matches the loss of work […] intended"). These
//! counters make that verification possible: every successful compute,
//! re-execution, recovery initiation, reset, and injected fault is counted.
//!
//! Cold-path counters (recoveries, faults, resets) are process-wide
//! atomics: a compute call dwarfs one `fetch_add`. The per-compute and
//! per-notification counters fire on *every task and graph edge*, so they
//! are [`ShardedCounter`]s —
//! cache-padded per-worker lanes selected by the worker index the engine
//! threads through, summed only at snapshot time — and never contend
//! cross-worker.
//!
//! The per-task execution counts N(A) of Section V are not kept here: they
//! live in each task descriptor, which the computing worker already owns,
//! and the engine folds them into an [`ExecTally`] when the run quiesces.
//! A compute therefore writes no shared map and takes no lock.

use ft_steal::metrics::CachePadded;
use ft_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of lanes in a [`ShardedCounter`]. Workers beyond this fold onto
/// existing lanes (still correct, marginally more contended).
const COUNTER_LANES: usize = 16;

/// A relaxed event counter split into cache-padded per-worker lanes.
///
/// `add` lands on the calling worker's lane, so two workers bumping the
/// same logical counter never bounce a cache line between them; `load`
/// sums the lanes (called once per run, after quiescence).
pub struct ShardedCounter {
    lanes: Box<[CachePadded<AtomicU64>]>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        ShardedCounter {
            lanes: (0..COUNTER_LANES)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Increment the lane of `worker` (threads outside the pool share the
    /// last lane); returns that lane's count after the increment.
    #[inline]
    pub fn add(&self, worker: Option<usize>) -> u64 {
        let lane = worker.map_or(COUNTER_LANES - 1, |w| w % COUNTER_LANES);
        // ord: Relaxed — per-lane statistics counter, summed at quiescence.
        self.lanes[lane].0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Sum of all lanes.
    pub fn load(&self) -> u64 {
        // ord: Relaxed — statistics read at quiescence.
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }
}

/// Mutable counters owned by one scheduler run.
#[derive(Default)]
pub struct RunMetrics {
    /// Successful executions of user compute functions (Σ N(A)).
    /// Per-task hot path: sharded by worker.
    pub computes: ShardedCounter,
    /// Compute attempts that returned a fault.
    pub compute_faults: AtomicU64,
    /// Recoveries actually performed (`RecoverTask` bodies entered).
    pub recoveries: AtomicU64,
    /// `RecoverTaskOnce` calls suppressed because the incarnation was
    /// already being recovered (Guarantee 1 at work).
    pub recoveries_suppressed: AtomicU64,
    /// `ResetNode` invocations (task re-explored after an input fault).
    pub resets: AtomicU64,
    /// Notifications delivered (`NotifyOnce` bit-unset successes).
    /// Per-edge hot path: sharded by worker.
    pub notifications: ShardedCounter,
    /// Duplicate notifications absorbed by the bit vector (bit already 0).
    /// Per-edge hot path: sharded by worker.
    pub duplicate_notifications: ShardedCounter,
    /// Faults injected by the plan.
    pub injected: AtomicU64,
    /// Evicted-version reads (each starts a producer chain re-execution).
    pub overwrite_faults: AtomicU64,
}

impl RunMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successful compute from outside the pool, on the shared
    /// lane of [`RunMetrics::computes`]; returns that lane's count. `key`
    /// is not recorded: a task's own count N(key) lives in its descriptor.
    pub fn record_compute(&self, _key: i64) -> u64 {
        self.computes.add(None)
    }

    /// Snapshot into a [`RunReport`] (without timing fields). `execs`
    /// summarizes the per-task execution counts N(A), read from the
    /// descriptors at quiescence.
    pub fn snapshot(&self, execs: ExecTally) -> RunReport {
        RunReport {
            // ord: Relaxed throughout — snapshot of statistics counters
            // taken after the run quiesces; no cross-field ordering is
            // implied.
            computes: self.computes.load(),
            compute_faults: self.compute_faults.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            recoveries_suppressed: self.recoveries_suppressed.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            notifications: self.notifications.load(),
            duplicate_notifications: self.duplicate_notifications.load(),
            injected: self.injected.load(Ordering::Relaxed),
            overwrite_faults: self.overwrite_faults.load(Ordering::Relaxed),
            distinct_tasks_executed: execs.distinct,
            re_executions: execs.total - execs.distinct,
            max_executions_one_task: execs.max,
            sink_completed: false,
            elapsed: Duration::ZERO,
        }
    }
}

/// Running summary of per-task execution counts N(A): fed one task at a
/// time (tasks that never executed, N = 0, are skipped).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecTally {
    distinct: u64,
    total: u64,
    max: u64,
}

impl ExecTally {
    /// Add one task that executed `n` times.
    pub fn add(&mut self, n: u64) {
        if n > 0 {
            self.distinct += 1;
            self.total += n;
            self.max = self.max.max(n);
        }
    }
}

impl FromIterator<u64> for ExecTally {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut t = ExecTally::default();
        iter.into_iter().for_each(|n| t.add(n));
        t
    }
}

/// Immutable summary of one run, consumed by tests and the experiment
/// harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Successful compute executions (Σ N(A)).
    pub computes: u64,
    /// Compute attempts that observed a fault.
    pub compute_faults: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Recovery attempts suppressed by the recovery table.
    pub recoveries_suppressed: u64,
    /// `ResetNode` invocations.
    pub resets: u64,
    /// Join-counter decrements delivered.
    pub notifications: u64,
    /// Duplicate notifications absorbed by bit vectors.
    pub duplicate_notifications: u64,
    /// Faults injected.
    pub injected: u64,
    /// Evicted-version faults observed.
    pub overwrite_faults: u64,
    /// Number of distinct tasks that executed at least once.
    pub distinct_tasks_executed: u64,
    /// Σ max(0, N(A) − 1): the paper's "number of re-executed tasks".
    pub re_executions: u64,
    /// max_A N(A) — the `N` of Theorem 2.
    pub max_executions_one_task: u64,
    /// Whether the sink task reached Completed status.
    pub sink_completed: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RunReport {
    /// Human-oriented one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "computes={} (distinct={}, re-exec={}), recoveries={} (+{} suppressed), \
             resets={}, faults: injected={} observed={} overwrites={}, sink={} in {:?}",
            self.computes,
            self.distinct_tasks_executed,
            self.re_executions,
            self.recoveries,
            self.recoveries_suppressed,
            self.resets,
            self.injected,
            self.compute_faults,
            self.overwrite_faults,
            self.sink_completed,
            self.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_compute_counts_per_task() {
        use crate::scheduler::Descriptor;
        use crate::task::{BaseDesc, FtDesc};
        use ft_steal::arena::Arena;
        // N(A) lives in the descriptors: task 1 computed on its first
        // incarnation and again on the one recovery made, task 2 once.
        let m = RunMetrics::new();
        let arena = Arena::new();
        let t1 = arena.alloc(FtDesc::new(1, 1, &[], 1));
        let mut life2 = FtDesc::new(1, 2, &[], 1);
        life2.prev = Some(t1);
        let t1 = arena.alloc(life2);
        let t2 = BaseDesc::new(2, &[], 0);
        for d in [t1.prev.unwrap().execs(), t1.execs(), t2.execs()] {
            d.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(m.record_compute(1), 1);
        m.computes.add(Some(0));
        m.computes.add(Some(3));
        let r = m.snapshot(
            [t1.execs_all_lives(), t2.execs_all_lives(), 0]
                .into_iter()
                .collect(),
        );
        assert_eq!(r.computes, 3);
        assert_eq!(r.distinct_tasks_executed, 2);
        assert_eq!(r.re_executions, 1);
        assert_eq!(r.max_executions_one_task, 2);
    }

    #[test]
    fn sharded_counter_sums_lanes() {
        let c = ShardedCounter::new();
        c.add(Some(0));
        c.add(Some(1));
        c.add(Some(COUNTER_LANES + 1)); // folds onto lane 1
        c.add(None); // non-pool thread lane
        assert_eq!(c.load(), 4);
    }

    #[test]
    fn sharded_counter_concurrent_adds() {
        let c = std::sync::Arc::new(ShardedCounter::new());
        std::thread::scope(|s| {
            for w in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(Some(w));
                    }
                });
            }
        });
        assert_eq!(c.load(), 8000);
    }

    #[test]
    fn empty_metrics_snapshot() {
        let m = RunMetrics::new();
        let r = m.snapshot(ExecTally::default());
        assert_eq!(r.computes, 0);
        assert_eq!(r.re_executions, 0);
        assert_eq!(r.max_executions_one_task, 0);
        assert!(!r.sink_completed);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let m = RunMetrics::new();
        m.record_compute(7);
        m.injected.store(3, Ordering::Relaxed);
        let mut r = m.snapshot([1].into_iter().collect());
        r.sink_completed = true;
        let s = r.summary();
        assert!(s.contains("computes=1"));
        assert!(s.contains("injected=3"));
        assert!(s.contains("sink=true"));
    }
}
