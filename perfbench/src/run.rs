//! One run of one workload: repeated set-up, then the untraced pass (the
//! end-to-end metrics) or the traced pass (the per-layer metrics).

use crate::probes::{self, Probe};
use crate::report::Values;
use crate::stats::{median, middle_half_by, percentile, quartiles, ratio, tail_rung};
use crate::trace::{self, now_ns, Call, ClassStats, Recorder, Stat, Traced};
use crate::workloads::{
    engine_op, rng, service_loop, subjects, Instance, Mode, Reference, Sample, ServiceRun, Subject,
    Tally, Tap, Workload, MODES, SEQ_SLOT, SLOTS,
};
use ft_steal::metrics::MetricsSnapshot;
use ft_steal::pool::{Pool, PoolConfig};
use ft_steal::rng::XorShift64Star;
use nabbit_ft::inject::FaultPlan;
use nabbit_ft::seq;
use std::sync::Arc;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the measured pass runs.
    pub seconds: f64,
    /// Run the traced pass instead of the untraced one.
    pub trace: bool,
    /// Pool workers.
    pub threads: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed ops.
    pub tally: Tally,
    /// Metric values.
    pub values: Values,
    /// Extra report lines.
    pub notes: Vec<String>,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Warm-up passes over every (subject, mode) pair in each set-up.
const WARMUP_PASSES: usize = 2;
/// Warm-up instances of the service workload in each set-up.
const WARMUP_INSTANCES: u64 = 64;
/// Modes of one measured cycle over a subject. Fault-free FT runs at
/// least as often as any other mode, so its tail rests on enough samples
/// (see `stats::tail_rung`). `fanout` measures baseline against fault-free
/// FT; its one faulty op in eight only keeps `faulty_tasks_per_s` defined.
fn cycle(w: Workload) -> &'static [Mode] {
    use Mode::{Baseline as B, Faulty as F, Ft};
    match w {
        Workload::Fanout => &[B, Ft, B, Ft, B, Ft, F, Ft],
        _ => &[B, Ft, F, Ft],
    }
}

/// Traced op ids divisible by this keep their calls as spans...
const SPAN_EVERY: u64 = 16;
/// ...until about this many spans are kept (a task makes about four).
const SPAN_BUDGET: u64 = 100_000;

/// The resident state a measured pass runs on.
struct Bench {
    pool: Pool,
    subjects: Vec<Subject>,
    plans: XorShift64Star,
    tenants: XorShift64Star,
}

impl Bench {
    fn op(
        &mut self,
        subject: usize,
        mode: Mode,
        tap: Option<&Tap>,
        tally: &mut Tally,
    ) -> Option<Sample> {
        let (subj, plans) = (&self.subjects[subject], &mut self.plans);
        let plan = |inst: &Instance| match mode {
            Mode::Faulty => subj.plan(inst, plans),
            _ => FaultPlan::none(),
        };
        tally.count(engine_op(&self.pool, subj, subject, mode, plan, tap))
    }
}

fn setup(cfg: &Config, tally: &mut Tally) -> Bench {
    let w = cfg.workload;
    let pool = Pool::new(PoolConfig {
        seed: crate::workloads::derive(cfg.seed, 0),
        ..PoolConfig::with_threads(cfg.threads)
    });
    let mut b = Bench {
        pool,
        subjects: subjects(w, cfg.seed),
        plans: rng(w, cfg.seed, 0),
        tenants: rng(w, cfg.seed, 1),
    };
    if w == Workload::Service {
        let (p, t) = (&mut b.plans, &mut b.tenants);
        service_loop(
            &b.pool,
            &b.subjects[0],
            0.0,
            WARMUP_INSTANCES,
            t,
            p,
            None,
            tally,
        );
    } else {
        for _ in 0..WARMUP_PASSES {
            for s in 0..b.subjects.len() {
                for mode in MODES {
                    b.op(s, mode, None, tally);
                }
            }
        }
    }
    b
}

/// Peak resident set of this process in MB: `VmHWM` of the process's own
/// status. (`getrusage` would not do: its maximum survives `exec`, so a
/// child reports its parent's peak when that is larger.)
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t0 = now_ns();
        bench = Some(setup(cfg, &mut out.tally));
        setups.push((now_ns() - t0) as f64 / 1e9);
    }
    let mut b = bench.expect("at least one set-up");
    let subj_line: Vec<String> = b
        .subjects
        .iter()
        .map(|s| {
            let drawn = if s.reference == Reference::SeqRun {
                ", first draw"
            } else {
                ""
            };
            format!("{} ({} tasks, {} edges{drawn})", s.name, s.tasks, s.edges)
        })
        .collect();
    out.notes.push(format!("graphs: {}", subj_line.join(", ")));
    if let Some([q1, q2, q3]) = quartiles(&setups) {
        out.notes.push(format!(
            "set-ups: median {q2:.4} s, quartiles {q1:.4}..{q3:.4} s, n={SETUPS}"
        ));
    }
    if cfg.trace {
        traced(cfg, &mut b, &mut out);
    } else {
        untraced(cfg, &mut b, &mut out);
        out.values.set(
            "setup_s",
            median(&setups),
            format!("median of {SETUPS} set-ups"),
        );
        out.values
            .set("peak_rss_mb", peak_rss_mb(), "VmHWM of /proc/self/status");
    }
    out
}

/// Per subject, per mode: the samples of the ops that passed.
type Series = Vec<[Vec<Sample>; 3]>;

fn secs(v: &[Sample]) -> Vec<f64> {
    v.iter().map(|s| s.secs).collect()
}

/// One pass in one mode: per graph, the mean task count and the mean op
/// time of the same ops — the middle half of the graph's ops by throughput —
/// summed over the graphs; `n` is the smallest op count behind a graph.
#[derive(Debug, Clone, Copy)]
struct Pass {
    tasks: f64,
    secs: f64,
    n: usize,
}

impl Pass {
    fn of(series: &Series, mode: Mode) -> Pass {
        let mut p = Pass {
            tasks: 0.0,
            secs: 0.0,
            n: if series.is_empty() { 0 } else { usize::MAX },
        };
        for per_mode in series {
            let v = &per_mode[mode.idx()];
            let mid = middle_half_by(v, |x| x.tasks as f64 / x.secs);
            let k = mid.len() as f64;
            p.tasks += ratio(mid.iter().map(|x| x.tasks as f64).sum(), k);
            p.secs += ratio(mid.iter().map(|x| x.secs).sum(), k);
            p.n = p.n.min(v.len());
        }
        p
    }

    /// Tasks per second.
    fn rate(&self) -> f64 {
        ratio(self.tasks, self.secs)
    }
}

/// Fault-free FT pass times: the k-th fault-free FT op of every graph,
/// summed, for each k that every graph reached.
fn pass_samples(series: &Series) -> Vec<f64> {
    let n = series
        .iter()
        .map(|s| s[Mode::Ft.idx()].len())
        .min()
        .unwrap_or(0);
    (0..n)
        .map(|k| series.iter().map(|s| s[Mode::Ft.idx()][k].secs).sum())
        .collect()
}

fn untraced(cfg: &Config, b: &mut Bench, out: &mut Outcome) {
    let tally = &mut out.tally;
    let start = now_ns();
    let series: Series = if cfg.workload == Workload::Service {
        let (p, t) = (&mut b.plans, &mut b.tenants);
        let run = service_loop(&b.pool, &b.subjects[0], cfg.seconds, 0, t, p, None, tally);
        let all: Vec<f64> = run.samples.iter().flat_map(|v| secs(v)).collect();
        for (name, pct) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
            if let Some((v, beyond)) = percentile(&all, pct) {
                out.notes.push(format!(
                    "info {name} = {} ms  (all instances, n={}, {beyond} beyond)",
                    v * 1e3,
                    all.len()
                ));
            }
        }
        vec![run.samples]
    } else {
        let mut series: Series = b.subjects.iter().map(|_| Default::default()).collect();
        let deadline = start + (cfg.seconds * 1e9) as u64;
        'measure: loop {
            for (s, modes) in series.iter_mut().enumerate() {
                for &mode in cycle(cfg.workload) {
                    if now_ns() >= deadline {
                        break 'measure;
                    }
                    if let Some(x) = b.op(s, mode, None, tally) {
                        modes[mode.idx()].push(x);
                    }
                }
            }
        }
        series
    };
    let end = now_ns();
    for (subj, modes) in b.subjects.iter().zip(&series) {
        for mode in MODES {
            let v = secs(&modes[mode.idx()]);
            if let (Some([q1, q2, q3]), Some((p95, _))) = (quartiles(&v), percentile(&v, 95.0)) {
                out.notes.push(format!(
                    "{} {mode:?}: median {:.4} ms, quartiles {:.4}..{:.4} ms, p95 {:.4} ms, n={}",
                    subj.name,
                    q2 * 1e3,
                    q1 * 1e3,
                    q3 * 1e3,
                    p95 * 1e3,
                    v.len()
                ));
            }
        }
    }
    let ops: usize = series.iter().flatten().map(Vec::len).sum();
    let wall = (end - start) as f64 / 1e9;
    for (name, mode) in [
        ("ft_tasks_per_s", Mode::Ft),
        ("baseline_tasks_per_s", Mode::Baseline),
        ("faulty_tasks_per_s", Mode::Faulty),
    ] {
        if cfg.workload == Workload::Service {
            // Instances overlap, so a class's throughput is its share of
            // the closed loop's: the tenant mix is fixed, and these follow
            // `graphs_per_s`.
            let v = &series[0][mode.idx()];
            let tasks: u64 = v.iter().map(|x| x.tasks).sum();
            out.values.set(
                name,
                tasks as f64 / wall,
                format!(
                    "{} {mode:?} instances, {tasks} tasks in {wall:.3} s",
                    v.len()
                ),
            );
        } else {
            let p = Pass::of(&series, mode);
            out.values.set(
                name,
                p.rate(),
                format!("{:.1} tasks per pass, n={} per graph", p.tasks, p.n),
            );
        }
    }
    let what = if cfg.workload == Workload::Service {
        "instances"
    } else {
        "ops of every mode, checks included,"
    };
    out.values.set(
        "graphs_per_s",
        ops as f64 / wall,
        format!("{ops} {what} completed in {wall:.3} s"),
    );
    // Reported, not gated: on a shared host a burst of stolen CPU time
    // doubles this tail for whole runs (see README).
    let passes = pass_samples(&series);
    match tail_rung(passes.len()).and_then(|pct| Some((pct, percentile(&passes, pct)?))) {
        Some((pct, (v, beyond))) => out.notes.push(format!(
            "info ft_run_tail_ms = {} ms  (fault-free FT pass time, p{pct} of {} passes, {beyond} beyond)",
            v * 1e3,
            passes.len()
        )),
        None => out
            .notes
            .push(format!("info ft_run_tail_ms: only {} passes", passes.len())),
    }
}

/// What the traced pass measured, for [`layer_metrics`].
struct Traces<'a> {
    threads: usize,
    subjects: &'a [Subject],
    wrapped: Series,
    untraced: Series,
    one_worker: Series,
    stats: Vec<ClassStats>,
    seq_compute_ns: Vec<f64>,
    /// Service instances overlap: their run's wall time and pool counters
    /// stand in for per-op figures.
    overlap: Option<ServiceRun>,
    probes: Vec<Probe>,
}

fn class_stat(stats: &[ClassStats], class: usize, pick: impl Fn(Call) -> bool) -> Stat {
    let mut acc = Stat::default();
    if let Some(c) = stats.get(class) {
        for call in trace::ALL_CALLS {
            if pick(call) {
                acc.add(c[call as usize]);
            }
        }
    }
    acc
}

fn traced(cfg: &Config, b: &mut Bench, out: &mut Outcome) {
    let rec = Arc::new(Recorder::new());
    let n = b.subjects.len();
    let empty = || -> Series { (0..n).map(|_| Default::default()).collect() };
    let (mut wrapped, mut untraced, mut one_worker) = (empty(), empty(), empty());
    let mut op = 0u64;
    let mut overlap = None;
    let one = Pool::new(PoolConfig::with_threads(1));
    let tally = &mut out.tally;
    if cfg.workload == Workload::Service {
        let (p, t) = (&mut b.plans, &mut b.tenants);
        let subj = &b.subjects[0];
        let mut run = service_loop(
            &b.pool,
            subj,
            cfg.seconds * 0.5,
            0,
            t,
            p,
            Some((&rec, &mut op)),
            tally,
        );
        let u = service_loop(&b.pool, subj, cfg.seconds * 0.2, 0, t, p, None, tally);
        let o = service_loop(&one, subj, cfg.seconds * 0.15, 0, t, p, None, tally);
        wrapped[0] = std::mem::take(&mut run.samples);
        untraced[0] = u.samples;
        one_worker[0] = o.samples;
        out.values.set(
            "service.rejected",
            run.rejected as f64,
            "traced closed loop",
        );
        overlap = Some(run);
    } else {
        // Traced ops of every mode, interleaved with untraced baseline
        // and fault-free FT ops for the overhead ratios.
        let max_tasks = b.subjects.iter().map(|s| s.tasks).max().unwrap_or(1);
        let mut span_ops = SPAN_BUDGET / (4 * max_tasks);
        let deadline = now_ns() + (cfg.seconds * 0.6e9) as u64;
        'main: loop {
            for s in 0..n {
                for (mode, traced) in [
                    (Mode::Baseline, true),
                    (Mode::Ft, true),
                    (Mode::Faulty, true),
                    (Mode::Ft, false),
                    (Mode::Baseline, false),
                ] {
                    if now_ns() >= deadline {
                        break 'main;
                    }
                    op += 1;
                    let spans = traced && op.is_multiple_of(SPAN_EVERY) && span_ops > 0;
                    span_ops -= u64::from(spans);
                    let tap = traced.then(|| Tap {
                        rec: Arc::clone(&rec),
                        op,
                        spans,
                    });
                    if let Some(x) = b.op(s, mode, tap.as_ref(), tally) {
                        let into = if traced { &mut wrapped } else { &mut untraced };
                        into[s][mode.idx()].push(x);
                    }
                }
            }
        }
        let deadline = now_ns() + (cfg.seconds * 0.2e9) as u64;
        'one: loop {
            for (s, subj) in b.subjects.iter().enumerate() {
                if now_ns() >= deadline {
                    break 'one;
                }
                let r = engine_op(&one, subj, s, Mode::Ft, |_| FaultPlan::none(), None);
                if let Some(x) = tally.count(r) {
                    one_worker[s][Mode::Ft.idx()].push(x);
                }
            }
        }
        out.values.set(
            "service.rejected",
            0.0,
            "Engine::run has no admission control",
        );
    }
    drop(one);
    let stats = rec.take_stats();
    // Σ compute time of the same graphs under seq::run, median of three.
    let seq_compute_ns = b
        .subjects
        .iter()
        .enumerate()
        .map(|(s, subj)| {
            let reps: Vec<f64> = (0..3)
                .map(|_| {
                    let inst = subj.fresh();
                    let class = s * SLOTS + SEQ_SLOT;
                    let g = Traced::new(inst.graph(), Arc::clone(&rec), class, 0, false);
                    if let Err(f) = seq::run(g.as_ref()) {
                        tally.count(Err(format!("{}: seq::run faulted: {f}", subj.name)));
                    }
                    let st = rec.take_stats();
                    class_stat(&st, class, |c| c == Call::Compute).ns as f64
                })
                .collect();
            median(&reps)
        })
        .collect();
    let probes = probes::run_all(cfg.threads);
    let spans = rec.take_spans();
    for st in trace::self_times(&spans) {
        out.notes.push(format!(
            "span {}: {} spans, total {:.3} ms, self {:.3} ms",
            st.name,
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        ));
    }
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
    match trace::write_spans(&path, cfg.workload.name(), cfg.seed, &spans) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    let t = Traces {
        threads: cfg.threads,
        subjects: &b.subjects,
        wrapped,
        untraced,
        one_worker,
        stats,
        seq_compute_ns,
        overlap,
        probes,
    };
    layer_metrics(&t, &mut out.values, &mut out.notes);
}

/// Sums over a set of samples.
#[derive(Debug, Default)]
struct Sums {
    ops: f64,
    tasks: f64,
    edges: f64,
    wall: f64,
    created: f64,
    computes: f64,
    notifications: f64,
    duplicates: f64,
    injected: f64,
    recoveries: f64,
    suppressed: f64,
    resets: f64,
    reexec: f64,
    overwrites: f64,
    distinct: f64,
    pool: MetricsSnapshot,
}

impl Sums {
    fn add(&mut self, x: &Sample) {
        let r = &x.report;
        self.ops += 1.0;
        self.tasks += x.tasks as f64;
        self.edges += x.edges as f64;
        self.wall += x.secs;
        self.created += x.created as f64;
        self.computes += r.computes as f64;
        self.notifications += r.notifications as f64;
        self.duplicates += r.duplicate_notifications as f64;
        self.injected += r.injected as f64;
        self.recoveries += r.recoveries as f64;
        self.suppressed += r.recoveries_suppressed as f64;
        self.resets += r.resets as f64;
        self.reexec += r.re_executions as f64;
        self.overwrites += r.overwrite_faults as f64;
        self.distinct += r.distinct_tasks_executed as f64;
        self.pool = self.pool.merge(&x.pool);
    }

    fn over(series: &Series, modes: &[Mode]) -> Sums {
        let mut sums = Sums::default();
        for per_mode in series {
            for m in modes {
                for x in &per_mode[m.idx()] {
                    sums.add(x);
                }
            }
        }
        sums
    }
}

fn layer_metrics(t: &Traces<'_>, v: &mut Values, notes: &mut Vec<String>) {
    let w = t.threads as f64;
    let subjects = t.subjects;
    let stat = |modes: &[usize], pick: &dyn Fn(Call) -> bool| {
        let mut acc = Stat::default();
        for s in 0..subjects.len() {
            for &m in modes {
                acc.add(class_stat(&t.stats, s * SLOTS + m, pick));
            }
        }
        acc
    };
    let compute = |c: Call| c == Call::Compute;
    let query = |c: Call| c.is_query();
    let all = Sums::over(&t.wrapped, &MODES);
    let ft = Sums::over(&t.wrapped, &[Mode::Ft]);
    let faulty = Sums::over(&t.wrapped, &[Mode::Faulty]);
    let ft_any = Sums::over(&t.wrapped, &[Mode::Ft, Mode::Faulty]);
    let all_compute = stat(&[0, 1, 2], &compute);
    let ft_compute = stat(&[Mode::Ft.idx()], &compute);
    let ft_query = stat(&[Mode::Ft.idx()], &query);
    let all_query = stat(&[0, 1, 2], &query);
    // Instances of the service overlap, so its op wall time is the closed
    // loop's, and its pool counters are the loop's.
    let (all_wall, pool, pool_tasks, pool_ops) = match &t.overlap {
        Some(run) => (run.wall, run.pool, all.tasks, all.ops),
        None => (all.wall, all.pool, all.tasks, all.ops),
    };
    let n = "traced ops";
    v.set(
        "apps.compute_ns",
        ratio(all_compute.ns as f64, all_compute.calls as f64),
        n,
    );
    v.set(
        "apps.compute_calls_per_task",
        ratio(all_compute.calls as f64, all.tasks),
        n,
    );
    v.set(
        "apps.compute_share",
        ratio(all_compute.ns as f64, w * all_wall * 1e9),
        n,
    );
    let per_pass_ft: f64 = (0..subjects.len())
        .map(|s| {
            let c = class_stat(&t.stats, s * SLOTS + Mode::Ft.idx(), compute);
            ratio(c.ns as f64, t.wrapped[s][Mode::Ft.idx()].len() as f64)
        })
        .sum();
    let seq: f64 = t.seq_compute_ns.iter().sum();
    v.set(
        "apps.work_inflation",
        ratio(per_pass_ft, seq),
        "fault-free FT ops vs seq::run",
    );
    v.set(
        "graph.query_calls_per_task",
        ratio(ft_query.calls as f64, ft.tasks),
        "fault-free FT ops",
    );
    v.set(
        "graph.query_ns_per_task",
        ratio(ft_query.ns as f64, ft.tasks),
        "fault-free FT ops",
    );
    let residual = match &t.overlap {
        Some(run) => ratio(
            w * run.wall * 1e9 - all_compute.ns as f64 - all_query.ns as f64,
            all.tasks,
        ),
        None => ratio(
            w * ft.wall * 1e9 - ft_compute.ns as f64 - ft_query.ns as f64,
            ft.tasks,
        ),
    };
    v.set("engine.residual_ns_per_task", residual, "fault-free FT ops");
    v.set(
        "engine.descs_per_task",
        ratio(ft.created, ft.tasks),
        "fault-free FT ops",
    );
    v.set(
        "engine.jobs_per_task",
        ratio(ft.pool.executed as f64, ft.computes),
        "fault-free FT ops",
    );
    let ft_u = Pass::of(&t.untraced, Mode::Ft);
    v.set(
        "ft.overhead_ratio",
        ratio(Pass::of(&t.untraced, Mode::Baseline).rate(), ft_u.rate()),
        format!("n={} untraced FT ops", ft_u.n),
    );
    v.set(
        "ft.dup_notify_ratio",
        ratio(ft_any.duplicates, ft_any.notifications),
        "FT ops",
    );
    let nf = "faulty ops";
    v.set("recovery.injected", ratio(faulty.injected, faulty.ops), nf);
    v.set(
        "recovery.recoveries_per_fault",
        ratio(faulty.recoveries, faulty.injected),
        nf,
    );
    v.set(
        "recovery.suppressed_share",
        ratio(faulty.suppressed, faulty.recoveries + faulty.suppressed),
        nf,
    );
    v.set(
        "recovery.resets_per_fault",
        ratio(faulty.resets, faulty.injected),
        nf,
    );
    v.set(
        "recovery.reexec_per_fault",
        ratio(faulty.reexec, faulty.injected),
        nf,
    );
    v.set(
        "recovery.overwrite_faults",
        ratio(faulty.overwrites, faulty.ops),
        nf,
    );
    v.set(
        "recovery.useful_ratio",
        ratio(faulty.distinct, faulty.computes),
        nf,
    );
    let injected_med: f64 = t
        .wrapped
        .iter()
        .map(|s| {
            median(
                &s[Mode::Faulty.idx()]
                    .iter()
                    .map(|x| x.report.injected as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    // A faulty pass's time less a fault-free FT pass's time for as many
    // tasks.
    let faulty_pass = Pass::of(&t.wrapped, Mode::Faulty);
    let ft_w = Pass::of(&t.wrapped, Mode::Ft);
    let extra = (faulty_pass.secs - ratio(faulty_pass.tasks, ft_w.rate())) * 1e3;
    v.set(
        "recovery.extra_ms_per_fault",
        ratio(extra, injected_med),
        nf,
    );
    let np = "traced ops";
    v.set(
        "pool.steals_per_task",
        ratio(pool.steals as f64, pool_tasks),
        np,
    );
    v.set(
        "pool.steal_success_ratio",
        ratio(
            pool.steals as f64,
            (pool.steals + pool.failed_steals) as f64,
        ),
        np,
    );
    v.set(
        "pool.injector_steal_share",
        ratio(pool.injector_steals as f64, pool.steals as f64),
        np,
    );
    v.set(
        "pool.sleeps_per_op",
        ratio(pool.sleeps as f64, pool_ops),
        np,
    );
    let one = Pass::of(&t.one_worker, Mode::Ft);
    v.set(
        "pool.speedup_1t",
        ratio(ft_u.rate(), one.rate()),
        format!("n={} one-worker ops", one.n),
    );
    let phases: Vec<_> = t
        .wrapped
        .iter()
        .flat_map(|s| s[Mode::Ft.idx()].iter().filter_map(|x| x.phases))
        .collect();
    for (i, stem) in ["submit", "queue_wait", "run", "release"]
        .into_iter()
        .enumerate()
    {
        let xs: Vec<f64> = phases.iter().map(|p| p[i]).collect();
        for (pct, suffix) in [(50.0, "p50"), (99.0, "p99")] {
            let (val, beyond) = percentile(&xs, pct).unwrap_or((f64::NAN, 0));
            v.set(
                format!("service.{stem}_us_{suffix}"),
                val,
                format!("n={}, {beyond} beyond", xs.len()),
            );
        }
    }
    for p in &t.probes {
        for (suffix, val) in [("_1t", p.one), ("_nt", p.all)] {
            v.set(format!("{}{suffix}", p.name), val, "median of 3");
        }
    }
    // Reconciliation: per fault-free FT task, the structure operations the
    // engine performs (from its counters and the graph's edge count),
    // priced at the nproc-thread probe costs.
    let probe = |name: &str| {
        t.probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.all)
    };
    let per_task = |x: f64| ratio(x, ft.tasks);
    let (edges, descs, computes) = (
        per_task(ft.edges),
        per_task(ft.created),
        per_task(ft.computes),
    );
    let (jobs, steals, inj) = match &t.overlap {
        Some(run) => (
            per_task(ft.pool.executed as f64),
            ratio(run.pool.steals as f64, pool_tasks),
            ratio(run.pool.injector_steals as f64, pool_tasks),
        ),
        None => (
            per_task(ft.pool.executed as f64),
            per_task(ft.pool.steals as f64),
            per_task(ft.pool.injector_steals as f64),
        ),
    };
    let blocks = subjects.iter().any(|s| s.has_blocks);
    let parts = [
        ("cmap.get_ns", (2.0 * edges - descs).max(0.0)),
        ("cmap.insert_ns", descs),
        ("metrics.record_compute_ns", computes),
        ("steal.deque_push_pop_ns", (jobs - steals).max(0.0)),
        ("steal.deque_steal_ns", (steals - inj).max(0.0)),
        ("steal.injector_push_steal_ns", inj),
        ("steal.arena_alloc_ns", descs),
        ("bitvec.unset_ns", per_task(ft.notifications)),
        ("blocks.read_latest_ns", if blocks { edges } else { 0.0 }),
        ("blocks.publish_ns", if blocks { computes } else { 0.0 }),
    ];
    let mut explained = 0.0;
    for (name, per) in parts {
        let ns = probe(name) * per;
        explained += ns;
        notes.push(format!(
            "reconcile {name}: {per:.3} ops/task × {:.1} ns = {ns:.1} ns/task",
            probe(name)
        ));
    }
    v.set(
        "reconcile.explained_share",
        ratio(explained, residual),
        "fault-free FT ops",
    );
    v.set(
        "reconcile.unexplained_ns_per_task",
        residual - explained,
        "fault-free FT ops",
    );
    v.set(
        "trace.overhead_ratio",
        ratio(ft_w.rate(), ft_u.rate()),
        format!("traced n={}, untraced n={}", ft_w.n, ft_u.n),
    );
}
