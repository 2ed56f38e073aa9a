//! Work-first traversal: the last predecessor of every task, and the
//! traversal of each task a visit creates, run inline on the visiting
//! worker instead of as pool jobs, bounded by `MAX_INLINE_CHAIN`.
//!
//! Two properties are pinned here:
//!
//! * **Bounded stack.** A long serial chain nests one inline traversal
//!   level per task. Without the depth bound a 100,000-task chain
//!   overflows the worker's stack; with it, every `MAX_INLINE_CHAIN`
//!   levels the traversal is re-enqueued as a fresh job and the run
//!   completes — on a real 1-worker pool (with and without faults) and on
//!   the deterministic pool.
//! * **About one job per task.** On a wavefront grid each task spawns one
//!   `TryInitCompute` job (for its first predecessor) and nothing else in
//!   the common case, so the deterministic pool executes ≤ 1.1 jobs per
//!   task. A job per traversal step would cost ≈ 3.

use ft_det::DetPool;
use ft_integration::graphs::{Chain, Grid};
use ft_steal::pool::{Executor, Pool, PoolConfig};
use nabbit_ft::graph::TaskGraph;
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::metrics::RunReport;
use nabbit_ft::scheduler::{BaselineScheduler, FtScheduler};
use std::sync::Arc;

const CHAIN_LEN: i64 = 100_000;

fn chain() -> Arc<dyn TaskGraph> {
    Arc::new(Chain { len: CHAIN_LEN })
}

fn assert_chain_complete(label: &str, r: &RunReport) {
    assert!(r.sink_completed, "{label}: sink not completed");
    assert_eq!(
        r.distinct_tasks_executed, CHAIN_LEN as u64,
        "{label}: not every chain task executed"
    );
}

fn run_chain_both(exec: &dyn Executor, label: &str) {
    let base = BaselineScheduler::new(chain()).run(exec);
    assert_chain_complete(&format!("{label} baseline"), &base);
    assert_eq!(base.computes, CHAIN_LEN as u64);
    let ft = FtScheduler::new(chain()).run(exec);
    assert_chain_complete(&format!("{label} ft"), &ft);
    assert_eq!(ft.computes, CHAIN_LEN as u64);
}

#[test]
fn long_chain_completes_on_one_worker_pool() {
    let pool = Pool::new(PoolConfig::with_threads(1));
    run_chain_both(&pool, "1-worker pool");
}

#[test]
fn long_chain_completes_on_det_pool() {
    run_chain_both(&DetPool::new(3), "det pool");
}

#[test]
fn long_chain_with_faults_completes_on_one_worker_pool() {
    // Faults in every phase, spread along the chain (including its ends):
    // recovery re-traverses from the middle of deep inline nests.
    let sites = [
        (0, Phase::BeforeCompute),
        (1_000, Phase::AfterCompute),
        (25_000, Phase::BeforeCompute),
        (50_000, Phase::AfterNotify),
        (75_000, Phase::AfterCompute),
        (CHAIN_LEN - 1, Phase::AfterCompute),
    ];
    let plan = Arc::new(FaultPlan::new(
        sites.iter().map(|&(k, p)| FaultSite::once(k, p)),
    ));
    let pool = Pool::new(PoolConfig::with_threads(1));
    let r = FtScheduler::with_plan(chain(), plan).run(&pool);
    assert_chain_complete("1-worker pool ft faulty", &r);
    assert_eq!(r.injected, sites.len() as u64);
    assert!(r.recoveries >= 2, "after-compute faults were recovered");
}

/// Jobs the deterministic pool executes per task on a 64×64 grid.
fn det_jobs_per_task(run: impl FnOnce(Arc<dyn TaskGraph>, &DetPool) -> RunReport) -> f64 {
    let n = 64;
    let pool = DetPool::new(17);
    let r = run(Arc::new(Grid { n }), &pool);
    assert!(r.sink_completed);
    assert_eq!(r.computes, (n * n) as u64);
    pool.jobs_executed() as f64 / (n * n) as f64
}

#[test]
fn grid_costs_about_one_job_per_task() {
    let base = det_jobs_per_task(|g, p| BaselineScheduler::new(g).run(p));
    let ft = det_jobs_per_task(|g, p| FtScheduler::new(g).run(p));
    assert!(base <= 1.1, "baseline executes {base:.2} jobs/task");
    assert!(ft <= 1.1, "ft executes {ft:.2} jobs/task");
}
