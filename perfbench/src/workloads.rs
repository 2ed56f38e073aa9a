//! The four workloads, their inputs, their ops and the checks on each op.
//!
//! Every input is generated from the run's seed: graphs, kernel inputs,
//! fault plans and the choice of service tenants that carry faults. One
//! resident [`Pool`] with `nproc` workers runs everything, driven from the
//! calling thread.

use crate::trace::{now_ns, Recorder, Traced};
use ft_apps::cholesky::Cholesky;
use ft_apps::common::extract_tile;
use ft_apps::lcs::Lcs;
use ft_apps::sw::Sw;
use ft_apps::{AppConfig, BenchApp, VersionClass};
use ft_bench::dag_gen::{DagGenConfig, RandDag};
use ft_bench::grids::{EmptyGrid, Star};
use ft_bench::registry::{parse_randdag, FANOUT_RANDDAG_SPECS};
use ft_steal::metrics::MetricsSnapshot;
use ft_steal::pool::Pool;
use ft_steal::rng::XorShift64Star;
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::metrics::RunReport;
use nabbit_ft::scheduler::{
    BaselineScheduler, FtRecovery, FtScheduler, GraphService, InstanceReport, InstanceTicket, NoFt,
    ServiceConfig,
};
use nabbit_ft::seq;
use std::collections::VecDeque;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 96×96 empty wavefront grid: scheduler-bound traversal.
    Grid,
    /// A 4096-wide star alternated with the p=0.6 fan-out random DAG.
    Fanout,
    /// LCS, Cholesky and Smith-Waterman solves.
    Kernels,
    /// Closed-loop stream of small busy-work grids through a GraphService.
    Service,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Grid,
        Workload::Fanout,
        Workload::Kernels,
        Workload::Service,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Fanout => "fanout",
            Workload::Kernels => "kernels",
            Workload::Service => "service",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Seed stream of this workload's inputs, so workloads never share
    /// draws.
    fn stream(self) -> u64 {
        self as u64 + 1
    }
}

/// How an op runs its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `BaselineScheduler`: plain NABBIT.
    Baseline,
    /// `FtScheduler` with no faults.
    Ft,
    /// `FtScheduler` under a seeded fault plan.
    Faulty,
}

/// The modes, in the order ops cycle through them.
pub const MODES: [Mode; 3] = [Mode::Baseline, Mode::Ft, Mode::Faulty];

/// Recorder class slots per subject: the three modes plus `seq::run`.
pub const SLOTS: usize = 4;

/// Recorder slot of `seq::run` passes.
pub const SEQ_SLOT: usize = 3;

impl Mode {
    /// Index into [`MODES`].
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// SplitMix64 of `seed` and `stream`: independent sub-seeds from one seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Side of the `grid` workload's graph.
pub const GRID_N: i64 = 96;
/// Width of the `fanout` workload's star.
pub const STAR_WIDTH: i64 = 4096;
/// Side of each `service` instance's grid.
pub const WORK_N: i64 = 8;
/// Busy-work iterations per `service` task: a few µs, so an instance is
/// dominated by its own work and the per-instance lifecycle shows.
const WORK_ITERS: u64 = 10_000;
/// Instances the `service` client keeps in flight (below the admission
/// budget, so no submission is refused).
pub const WINDOW: usize = 4;
/// Admission budget of the `service` workload's GraphService.
const MAX_IN_FLIGHT: usize = 16;
/// Traced service instances whose id is divisible by this keep their calls
/// as spans (about 250 spans each).
const SERVICE_SPAN_EVERY: u64 = 64;
/// Faults per thousand tasks in a fault plan (at least one per plan).
const FAULTS_PER_MILLE: u64 = 10;

/// [`EmptyGrid`] edges with a busy-work compute of a few µs per task.
pub struct WorkGrid(EmptyGrid);

impl TaskGraph for WorkGrid {
    fn sink(&self) -> Key {
        self.0.sink()
    }
    fn predecessors(&self, k: Key) -> Vec<Key> {
        self.0.predecessors(k)
    }
    fn predecessors_into(&self, k: Key, out: &mut Vec<Key>) {
        self.0.predecessors_into(k, out)
    }
    fn successors(&self, k: Key) -> Vec<Key> {
        self.0.successors(k)
    }
    fn out_degree(&self, k: Key) -> usize {
        self.0.out_degree(k)
    }
    fn compute(&self, k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        let mut acc = k as u64 | 1;
        for i in 1..WORK_ITERS {
            acc = acc.wrapping_mul(i) ^ (acc >> 7);
        }
        black_box(acc);
        Ok(())
    }
}

/// Which graph a subject is.
#[derive(Debug, Clone)]
enum Kind {
    Grid(i64),
    Star(i64),
    Rand(DagGenConfig),
    Lcs(AppConfig),
    Cholesky(AppConfig),
    Sw(AppConfig),
    Work(i64),
}

/// What an op's output is checked against, computed at set-up by a
/// sequential reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// The graph has no output beyond its execution counts.
    Counts,
    /// Each op's random DAG is checked against `seq::run` of the same draw.
    SeqRun,
    /// LCS length or Smith-Waterman score of the rolling-row reference.
    Score(i32),
    /// Unblocked Cholesky factor, row-major.
    Factor(Vec<f64>),
}

/// The graph of one op, typed so its output can be checked.
pub enum Graph {
    /// Stateless graph shared by every op.
    Shared(Arc<dyn TaskGraph>),
    /// Random DAG, with the value of its sink under `seq::run`.
    Rand(Arc<RandDag>, u64),
    /// LCS (per-run block store).
    Lcs(Arc<Lcs>),
    /// Cholesky (per-run block store).
    Cholesky(Arc<Cholesky>),
    /// Smith-Waterman (per-run block store).
    Sw(Arc<Sw>),
}

/// One op's graph instance. Stateful graphs are built fresh per op.
pub struct Instance {
    /// The graph.
    pub graph: Graph,
    /// Its tasks.
    pub tasks: u64,
    /// Its edges.
    pub edges: u64,
}

impl Instance {
    /// The instance as a task graph.
    pub fn graph(&self) -> Arc<dyn TaskGraph> {
        match &self.graph {
            Graph::Shared(g) => Arc::clone(g),
            Graph::Rand(g, _) => Arc::clone(g) as _,
            Graph::Lcs(g) => Arc::clone(g) as _,
            Graph::Cholesky(g) => Arc::clone(g) as _,
            Graph::Sw(g) => Arc::clone(g) as _,
        }
    }
}

fn count_edges(graph: &dyn TaskGraph, keys: impl Iterator<Item = Key>) -> u64 {
    let mut buf = Vec::new();
    keys.map(|k| {
        graph.predecessors_into(k, &mut buf);
        buf.len() as u64
    })
    .sum()
}

/// One graph of a workload's pass, with its expected counts, fault-site
/// candidates and reference output.
pub struct Subject {
    /// Report name.
    pub name: &'static str,
    kind: Kind,
    shared: Option<Arc<dyn TaskGraph>>,
    /// Seeds of the random DAGs drawn per op.
    draws: Mutex<XorShift64Star>,
    /// Tasks of the graph (of the first draw, for a random DAG).
    pub tasks: u64,
    /// Edges of the graph (of the first draw, for a random DAG).
    pub edges: u64,
    /// Fault-site candidates: `v=rand` tasks, then `v=last` tasks (empty
    /// for graphs without versioned blocks). Random DAGs draw theirs per op.
    candidates: [Vec<Key>; 2],
    /// Expected output.
    pub reference: Reference,
    /// The graph reads and publishes versioned blocks.
    pub has_blocks: bool,
}

impl Subject {
    fn new(name: &'static str, kind: Kind, seed: u64) -> Subject {
        let shared: Option<Arc<dyn TaskGraph>> = match kind {
            Kind::Grid(n) => Some(Arc::new(EmptyGrid { n })),
            Kind::Star(width) => Some(Arc::new(Star { width })),
            Kind::Work(n) => Some(Arc::new(WorkGrid(EmptyGrid { n }))),
            _ => None,
        };
        let mut subj = Subject {
            name,
            kind,
            shared,
            draws: Mutex::new(XorShift64Star::new(seed)),
            tasks: 0,
            edges: 0,
            candidates: [Vec::new(), Vec::new()],
            reference: Reference::Counts,
            has_blocks: false,
        };
        let inst = subj.build();
        let graph = inst.graph();
        let sink = graph.sink();
        let (keys, last): (Vec<Key>, Vec<Key>) = match &inst.graph {
            Graph::Shared(_) => match subj.kind {
                Kind::Star(w) => ((0..w + 2).collect(), Vec::new()),
                Kind::Grid(n) | Kind::Work(n) => ((0..n * n).collect(), Vec::new()),
                _ => unreachable!("only grids and stars are shared"),
            },
            Graph::Rand(g, _) => (g.all_keys(), Vec::new()),
            Graph::Lcs(g) => (g.all_tasks(), g.tasks_of_class(VersionClass::Last)),
            Graph::Cholesky(g) => (g.all_tasks(), g.tasks_of_class(VersionClass::Last)),
            Graph::Sw(g) => (g.all_tasks(), g.tasks_of_class(VersionClass::Last)),
        };
        subj.edges = count_edges(graph.as_ref(), keys.iter().copied());
        subj.tasks = keys.len() as u64;
        let rand: Vec<Key> = match &inst.graph {
            Graph::Lcs(g) => g.tasks_of_class(VersionClass::Rand),
            Graph::Cholesky(g) => g.tasks_of_class(VersionClass::Rand),
            Graph::Sw(g) => g.tasks_of_class(VersionClass::Rand),
            _ => keys,
        };
        let no_sink = |v: Vec<Key>| v.into_iter().filter(|&k| k != sink).collect::<Vec<_>>();
        subj.candidates = [no_sink(rand), no_sink(last)];
        subj.reference = match &inst.graph {
            Graph::Shared(_) => Reference::Counts,
            Graph::Rand(..) => Reference::SeqRun,
            Graph::Lcs(g) => Reference::Score(g.reference()),
            Graph::Sw(g) => Reference::Score(g.reference()),
            Graph::Cholesky(g) => Reference::Factor(g.reference()),
        };
        subj.has_blocks = matches!(subj.kind, Kind::Lcs(_) | Kind::Cholesky(_) | Kind::Sw(_));
        subj
    }

    /// A graph instance for one op. A random DAG is a new draw every op,
    /// so its medians average over the spec's size distribution rather
    /// than resting on one seed's draw; its reference is `seq::run` of an
    /// identical copy.
    pub fn fresh(&self) -> Instance {
        let mut inst = self.build();
        if !matches!(inst.graph, Graph::Rand(..)) {
            inst.tasks = self.tasks;
            inst.edges = self.edges;
        }
        inst
    }

    fn build(&self) -> Instance {
        let graph = match &self.kind {
            _ if self.shared.is_some() => {
                Graph::Shared(Arc::clone(self.shared.as_ref().expect("checked")))
            }
            Kind::Rand(cfg) => {
                let cfg = DagGenConfig {
                    seed: self.draws.lock().expect("draws poisoned").next_u64(),
                    ..cfg.clone()
                };
                let reference = RandDag::generate(cfg.clone());
                seq::run(&reference).expect("fault-free sequential run");
                let want = reference.value_of(reference.sink()).expect("sink computed");
                let g = Arc::new(RandDag::generate(cfg));
                let (tasks, edges) = (
                    g.task_count() as u64,
                    count_edges(g.as_ref(), g.all_keys().into_iter()),
                );
                return Instance {
                    graph: Graph::Rand(g, want),
                    tasks,
                    edges,
                };
            }
            Kind::Lcs(cfg) => Graph::Lcs(Arc::new(Lcs::new(*cfg))),
            Kind::Cholesky(cfg) => Graph::Cholesky(Arc::new(Cholesky::new(*cfg))),
            Kind::Sw(cfg) => Graph::Sw(Arc::new(Sw::new(*cfg))),
            Kind::Grid(_) | Kind::Star(_) | Kind::Work(_) => unreachable!("shared graphs"),
        };
        Instance {
            graph,
            tasks: self.tasks,
            edges: self.edges,
        }
    }

    /// A fault plan for `inst` failing about 1% of its tasks once each,
    /// before or after compute. On block-store kernels half the sites are
    /// drawn from the `v=last` tasks, whose recovery can re-execute a chain
    /// of overwritten versions.
    pub fn plan(&self, inst: &Instance, rng: &mut XorShift64Star) -> FaultPlan {
        let want = (inst.tasks * FAULTS_PER_MILLE).div_ceil(1000).max(1) as usize;
        // A random DAG's keys are 0..tasks with the sink last.
        let drawn: Vec<Key>;
        let candidates: [&[Key]; 2] = match &inst.graph {
            Graph::Rand(..) => {
                drawn = (0..inst.tasks as Key - 1).collect();
                [&drawn, &[]]
            }
            _ => [&self.candidates[0], &self.candidates[1]],
        };
        let mut sites: Vec<FaultSite> = Vec::with_capacity(want);
        for _ in 0..want * 8 {
            if sites.len() == want {
                break;
            }
            let class = if candidates[1].is_empty() {
                0
            } else {
                rng.next_below(2)
            };
            let pool = candidates[class];
            let key = pool[rng.next_below(pool.len())];
            if sites.iter().any(|s| s.key == key) {
                continue;
            }
            let phase = if rng.next_below(2) == 0 {
                Phase::BeforeCompute
            } else {
                Phase::AfterCompute
            };
            sites.push(FaultSite::once(key, phase));
        }
        FaultPlan::new(sites)
    }

    /// Check one op's outcome: the sink completed, every task ran, a
    /// fault-free op computed each task exactly once and saw no fault or
    /// recovery, and the output matches the reference.
    pub fn check(&self, mode: Mode, inst: &Instance, r: &RunReport) -> Result<(), String> {
        if !r.sink_completed {
            return Err(format!("{}: sink did not complete", self.name));
        }
        if r.distinct_tasks_executed != inst.tasks {
            return Err(format!(
                "{}: {} distinct tasks ran, graph has {}",
                self.name, r.distinct_tasks_executed, inst.tasks
            ));
        }
        if mode != Mode::Faulty {
            if r.computes != inst.tasks {
                return Err(format!(
                    "{}: fault-free run computed {} times, graph has {} tasks",
                    self.name, r.computes, inst.tasks
                ));
            }
            if r.injected + r.compute_faults + r.recoveries + r.resets > 0 {
                return Err(format!(
                    "{}: fault-free run reported faults or recoveries: {}",
                    self.name,
                    r.summary()
                ));
            }
        }
        self.verify(inst)
    }

    fn verify(&self, inst: &Instance) -> Result<(), String> {
        let got = match (&self.reference, &inst.graph) {
            (Reference::Counts, Graph::Shared(_)) => return Ok(()),
            (Reference::SeqRun, Graph::Rand(g, want)) => {
                let got = g.value_of(g.sink());
                return (got == Some(*want)).then_some(()).ok_or(format!(
                    "{}: sink value {got:?} != reference {want}",
                    self.name
                ));
            }
            (Reference::Score(want), Graph::Lcs(g)) => (g.result(), *want),
            (Reference::Score(want), Graph::Sw(g)) => (g.result(), *want),
            (Reference::Factor(want), Graph::Cholesky(g)) => {
                let Kind::Cholesky(cfg) = self.kind else {
                    unreachable!("factor reference belongs to Cholesky")
                };
                return verify_factor(g, want, cfg);
            }
            _ => {
                return Err(format!(
                    "{}: reference does not fit the instance",
                    self.name
                ))
            }
        };
        match got {
            (Some(g), w) if g == w => Ok(()),
            (g, w) => Err(format!("{}: result {g:?} != reference {w}", self.name)),
        }
    }
}

fn verify_factor(g: &Cholesky, want: &[f64], cfg: AppConfig) -> Result<(), String> {
    let (n, b) = (cfg.n, cfg.b);
    let tol = 1e-9 * n as f64;
    for ti in 0..cfg.nb() {
        for tj in 0..=ti {
            let got = g
                .factored_tile(ti, tj)
                .ok_or(format!("Cholesky: tile ({ti},{tj}) unreadable"))?;
            let reference = extract_tile(want, n, b, ti, tj);
            for r in 0..b {
                let cols = if ti == tj { r + 1 } else { b };
                for c in 0..cols {
                    let d = (got[r * b + c] - reference[r * b + c]).abs();
                    if d.is_nan() || d > tol {
                        return Err(format!("Cholesky: tile ({ti},{tj}) differs by {d}"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The subjects of a workload's pass, generated from `seed`.
pub fn subjects(w: Workload, seed: u64) -> Vec<Subject> {
    let s = |i| derive(seed, w.stream() * 16 + i);
    match w {
        Workload::Grid => vec![Subject::new("grid96", Kind::Grid(GRID_N), 0)],
        Workload::Fanout => {
            // Four random DAGs per pass give them about a quarter of the
            // pass's time next to the star; each draws a new graph per op.
            let names = [
                "randdag_p0.6_a",
                "randdag_p0.6_b",
                "randdag_p0.6_c",
                "randdag_p0.6_d",
            ];
            let cfg = parse_randdag(FANOUT_RANDDAG_SPECS[1]).expect("committed spec parses");
            let mut v = vec![Subject::new("star4096", Kind::Star(STAR_WIDTH), 0)];
            for (i, name) in names.into_iter().enumerate() {
                v.push(Subject::new(name, Kind::Rand(cfg.clone()), s(i as u64)));
            }
            v
        }
        Workload::Kernels => vec![
            Subject::new(
                "lcs",
                Kind::Lcs(AppConfig::new(1536, 96).with_seed(s(1))),
                0,
            ),
            Subject::new(
                "cholesky",
                Kind::Cholesky(AppConfig::new(288, 36).with_seed(s(2))),
                0,
            ),
            Subject::new("sw", Kind::Sw(AppConfig::new(1536, 96).with_seed(s(3))), 0),
        ],
        Workload::Service => vec![Subject::new("workgrid8", Kind::Work(WORK_N), 0)],
    }
}

/// Seeded generator for a workload's fault plans (`which` = 0) or tenant
/// choice (`which` = 1).
pub fn rng(w: Workload, seed: u64, which: u64) -> XorShift64Star {
    XorShift64Star::new(derive(seed, w.stream() * 16 + 8 + which))
}

/// Where a traced op records.
#[derive(Clone)]
pub struct Tap {
    /// The recorder.
    pub rec: Arc<Recorder>,
    /// Op id.
    pub op: u64,
    /// Keep the op's calls as spans.
    pub spans: bool,
}

/// Phases of one op, in µs: hand-over, queue wait, run, release.
pub type Phases = [f64; 4];

/// Outcome of one op that passed its checks.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Op wall time (for a service instance: submit until `wait` returns).
    pub secs: f64,
    /// Tasks of the op's graph.
    pub tasks: u64,
    /// Edges of the op's graph.
    pub edges: u64,
    /// The run's report.
    pub report: RunReport,
    /// Task descriptors created.
    pub created: u64,
    /// Change in pool counters across the op. Service instances overlap,
    /// so theirs carries only the instance's own executed jobs.
    pub pool: MetricsSnapshot,
    /// Phases, on traced ops.
    pub phases: Option<Phases>,
}

/// Counter difference `b − a`.
pub fn pool_delta(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        executed: b.executed - a.executed,
        spawned: b.spawned - a.spawned,
        steals: b.steals - a.steals,
        injector_steals: b.injector_steals - a.injector_steals,
        failed_steals: b.failed_steals - a.failed_steals,
        sleeps: b.sleeps - a.sleeps,
    }
}

fn phases(tr: &Traced, handed: u64, handed_back: u64, done: u64) -> Option<Phases> {
    let (first, last) = (tr.first_compute()?, tr.last_compute_end()?);
    let us = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e3;
    Some([
        us(handed, handed_back),
        us(handed_back, first),
        us(first, last),
        us(last, done),
    ])
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// One op: build the engine, run `subj` on `pool` in `mode`, drop the
/// engine, then check the outcome. A panic is caught and reported as a
/// failed op.
pub fn engine_op(
    pool: &Pool,
    subj: &Subject,
    subject: usize,
    mode: Mode,
    plan: impl FnOnce(&Instance) -> FaultPlan,
    tap: Option<&Tap>,
) -> Result<Sample, String> {
    let inst = subj.fresh();
    let plan = plan(&inst);
    let traced = tap.map(|t| {
        let class = subject * SLOTS + mode.idx();
        Traced::new(inst.graph(), Arc::clone(&t.rec), class, t.op, t.spans)
    });
    let graph: Arc<dyn TaskGraph> = match &traced {
        Some(t) => Arc::clone(t) as _,
        None => inst.graph(),
    };
    let before = pool.metrics();
    let t0 = now_ns();
    let run = catch_unwind(AssertUnwindSafe(|| match mode {
        Mode::Baseline => {
            let e = BaselineScheduler::new(graph);
            let built = now_ns();
            let r = e.run(pool);
            (r, e.tasks_created(), built)
        }
        Mode::Ft | Mode::Faulty => {
            let e = FtScheduler::with_plan(graph, Arc::new(plan));
            let built = now_ns();
            let r = e.run(pool);
            (r, e.tasks_created(), built)
        }
    }));
    let t1 = now_ns();
    let after = pool.metrics();
    let (report, created, built) =
        run.map_err(|p| format!("{}: panicked: {}", subj.name, panic_message(p)))?;
    subj.check(mode, &inst, &report)?;
    if let Some(tap) = tap.filter(|t| t.spans) {
        tap.rec.op_span("engine.run", tap.op, t0, t1);
    }
    Ok(Sample {
        secs: (t1 - t0) as f64 / 1e9,
        tasks: inst.tasks,
        edges: inst.edges,
        report,
        created: created as u64,
        pool: pool_delta(&before, &after),
        phases: traced.as_deref().and_then(|t| phases(t, t0, built, t1)),
    })
}

/// Attempted and failed ops, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// First failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one op's outcome; returns its sample if it passed.
    pub fn count(&mut self, r: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        match r {
            Ok(s) => Some(s),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

enum Ticket {
    Ft(InstanceTicket<FtRecovery>),
    Base(InstanceTicket<NoFt>),
}

impl Ticket {
    /// Wait for the instance; returns its report and the descriptors it
    /// created.
    fn wait(self) -> (InstanceReport, u64) {
        match self {
            Ticket::Ft(t) => {
                let e = Arc::clone(t.engine());
                (t.wait(), e.tasks_created() as u64)
            }
            Ticket::Base(t) => {
                let e = Arc::clone(t.engine());
                (t.wait(), e.tasks_created() as u64)
            }
        }
    }
}

struct Pending {
    ticket: Ticket,
    mode: Mode,
    inst: Instance,
    traced: Option<(Arc<Traced>, Tap)>,
    t_submit: u64,
    t_submitted: u64,
}

/// Samples of one closed-loop service run.
#[derive(Debug, Default)]
pub struct ServiceRun {
    /// Per mode, the instances that passed their checks.
    pub samples: [Vec<Sample>; 3],
    /// Instances completed (passed or failed).
    pub completed: u64,
    /// Seconds from the first submit until the last wait returned.
    pub wall: f64,
    /// Change in pool counters over the run.
    pub pool: MetricsSnapshot,
    /// Submissions refused.
    pub rejected: u64,
}

/// Modes of eight consecutive service instances: one carries a fault
/// plan, one runs the baseline policy, the rest are fault-free FT; the
/// positions are drawn from `tenants`.
fn tenant_modes(tenants: &mut XorShift64Star) -> [Mode; 8] {
    let mut m = [Mode::Ft; 8];
    let faulty = tenants.next_below(8);
    let base = (faulty + 1 + tenants.next_below(7)) % 8;
    m[faulty] = Mode::Faulty;
    m[base] = Mode::Baseline;
    m
}

/// Run the closed loop for `seconds` (or, with `seconds == 0`, for
/// `instances` instances): the one client keeps [`WINDOW`] instances in
/// flight and waits for the oldest before submitting the next.
#[allow(clippy::too_many_arguments)]
pub fn service_loop(
    pool: &Pool,
    subj: &Subject,
    seconds: f64,
    instances: u64,
    tenants: &mut XorShift64Star,
    plans: &mut XorShift64Star,
    rec: Option<(&Arc<Recorder>, &mut u64)>,
    tally: &mut Tally,
) -> ServiceRun {
    let service = GraphService::with_config(
        pool,
        ServiceConfig {
            max_in_flight: MAX_IN_FLIGHT,
            ..ServiceConfig::default()
        },
    );
    let mut out = ServiceRun::default();
    let mut rec = rec;
    let mut modes = [Mode::Ft; 8];
    let mut next = 0u64;
    let mut window: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let before = pool.metrics();
    let start = now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    let more = |next: u64| {
        if seconds > 0.0 {
            now_ns() < deadline
        } else {
            next < instances
        }
    };
    loop {
        while window.len() < WINDOW && more(next) {
            if next.is_multiple_of(8) {
                modes = tenant_modes(tenants);
            }
            let mode = modes[(next % 8) as usize];
            next += 1;
            let inst = subj.fresh();
            let traced = rec.as_mut().map(|(r, op)| {
                **op += 1;
                let tap = Tap {
                    rec: Arc::clone(r),
                    op: **op,
                    spans: op.is_multiple_of(SERVICE_SPAN_EVERY),
                };
                let t = Traced::new(inst.graph(), Arc::clone(r), mode.idx(), tap.op, tap.spans);
                (t, tap)
            });
            let graph: Arc<dyn TaskGraph> = match &traced {
                Some((t, _)) => Arc::clone(t) as _,
                None => inst.graph(),
            };
            let plan = match mode {
                Mode::Faulty => subj.plan(&inst, plans),
                _ => FaultPlan::none(),
            };
            let t_submit = now_ns();
            let ticket = match mode {
                Mode::Baseline => service
                    .submit(&BaselineScheduler::new(graph))
                    .map(Ticket::Base),
                _ => service
                    .submit(&FtScheduler::with_plan(graph, Arc::new(plan)))
                    .map(Ticket::Ft),
            };
            let t_submitted = now_ns();
            match ticket {
                Ok(ticket) => window.push_back(Pending {
                    ticket,
                    mode,
                    inst,
                    traced,
                    t_submit,
                    t_submitted,
                }),
                Err(e) => {
                    out.rejected += 1;
                    tally.count(Err(format!("{}: submission refused: {e}", subj.name)));
                }
            }
        }
        let Some(p) = window.pop_front() else { break };
        let waited = catch_unwind(AssertUnwindSafe(|| p.ticket.wait()));
        let done = now_ns();
        out.completed += 1;
        let result = waited
            .map_err(|e| format!("{}: instance panicked: {}", subj.name, panic_message(e)))
            .and_then(|(r, created)| {
                subj.check(p.mode, &p.inst, &r.report)?;
                let phases = p
                    .traced
                    .as_ref()
                    .and_then(|(t, _)| phases(t, p.t_submit, p.t_submitted, done));
                if let Some((_, tap)) = p.traced.as_ref().filter(|(_, tap)| tap.spans) {
                    tap.rec
                        .op_span("service.instance", tap.op, p.t_submit, done);
                }
                Ok(Sample {
                    secs: (done - p.t_submit) as f64 / 1e9,
                    tasks: p.inst.tasks,
                    edges: p.inst.edges,
                    report: r.report,
                    created,
                    pool: MetricsSnapshot {
                        executed: r.jobs.jobs_executed,
                        ..MetricsSnapshot::default()
                    },
                    phases,
                })
            });
        if let Some(s) = tally.count(result) {
            out.samples[p.mode.idx()].push(s);
        }
    }
    out.wall = (now_ns() - start) as f64 / 1e9;
    out.pool = pool_delta(&before, &pool.metrics());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_steal::pool::PoolConfig;

    fn small(kind: Kind) -> Subject {
        Subject::new("small", kind, 1)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        // Random DAG draws: their sizes and reference sink values.
        let draws = |seed| {
            let s = &subjects(Workload::Fanout, seed)[1];
            (0..4)
                .map(|_| match s.fresh() {
                    Instance {
                        graph: Graph::Rand(_, want),
                        tasks,
                        ..
                    } => (tasks, want),
                    _ => panic!("fanout's second graph is a random DAG"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        let kernel = |seed| subjects(Workload::Kernels, seed).remove(0).reference;
        assert_eq!(kernel(1), kernel(1));
        assert_ne!(kernel(1), kernel(2));
        let plan = |seed| {
            let mut r = rng(Workload::Grid, seed, 0);
            let s = small(Kind::Grid(20));
            let inst = s.fresh();
            (0..4)
                .map(|_| s.plan(&inst, &mut r).sites())
                .collect::<Vec<_>>()
        };
        let keys = |p: Vec<Vec<FaultSite>>| -> Vec<Vec<Key>> {
            p.iter()
                .map(|v| v.iter().map(|s| s.key).collect())
                .collect()
        };
        assert_eq!(keys(plan(5)), keys(plan(5)));
        assert_ne!(keys(plan(5)), keys(plan(6)));
    }

    #[test]
    fn plans_fail_about_one_percent_and_never_the_sink() {
        let s = small(Kind::Grid(40));
        let mut r = XorShift64Star::new(3);
        let p = s.plan(&s.fresh(), &mut r);
        assert_eq!(p.planned(), 16);
        assert!(p.sites().iter().all(|site| site.key != 40 * 40 - 1));
    }

    #[test]
    fn every_mode_passes_its_checks_on_each_kind() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let kinds = [
            Kind::Grid(12),
            Kind::Star(40),
            Kind::Rand(parse_randdag(FANOUT_RANDDAG_SPECS[1]).unwrap()),
            Kind::Lcs(AppConfig::new(128, 16)),
            Kind::Cholesky(AppConfig::new(96, 16)),
            Kind::Sw(AppConfig::new(128, 16)),
        ];
        let mut r = XorShift64Star::new(11);
        for kind in kinds {
            let s = small(kind.clone());
            for mode in MODES {
                let plan = |i: &Instance| match mode {
                    Mode::Faulty => s.plan(i, &mut r),
                    _ => FaultPlan::none(),
                };
                let out = engine_op(&pool, &s, 0, mode, plan, None);
                let sample = out.unwrap_or_else(|e| panic!("{kind:?} {mode:?}: {e}"));
                if mode == Mode::Faulty {
                    assert!(sample.report.injected > 0, "{kind:?}: plan did not fire");
                }
            }
        }
    }

    #[test]
    fn a_wrong_task_count_is_a_failed_op() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let mut s = small(Kind::Grid(10));
        s.tasks += 1;
        let mut tally = Tally::default();
        for mode in MODES {
            tally.count(engine_op(&pool, &s, 0, mode, |_| FaultPlan::none(), None));
        }
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert!(
            tally.errors[0].contains("distinct tasks"),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn a_corrupted_kernel_reference_is_a_failed_op() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let mut lcs = small(Kind::Lcs(AppConfig::new(128, 16)));
        let Reference::Score(v) = lcs.reference else {
            panic!("LCS has a score")
        };
        lcs.reference = Reference::Score(v + 1);
        let mut chol = small(Kind::Cholesky(AppConfig::new(96, 16)));
        if let Reference::Factor(m) = &mut chol.reference {
            m[0] += 1.0;
        }
        let mut tally = Tally::default();
        for s in [&lcs, &chol] {
            tally.count(engine_op(
                &pool,
                s,
                0,
                Mode::Ft,
                |_| FaultPlan::none(),
                None,
            ));
        }
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 2),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn a_fault_free_op_that_recovers_is_a_failed_op() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let s = small(Kind::Grid(10));
        let plan = FaultPlan::single(33, Phase::AfterCompute);
        let err = engine_op(&pool, &s, 0, Mode::Ft, |_| plan, None).unwrap_err();
        assert!(err.contains("fault-free"), "{err}");
    }

    #[test]
    fn service_loop_runs_every_tenant_kind() {
        let pool = Pool::new(PoolConfig::with_threads(2));
        let s = small(Kind::Work(WORK_N));
        let mut tally = Tally::default();
        let (mut t, mut p) = (XorShift64Star::new(1), XorShift64Star::new(2));
        let run = service_loop(&pool, &s, 0.0, 24, &mut t, &mut p, None, &mut tally);
        assert_eq!((tally.attempted, tally.failed, run.completed), (24, 0, 24));
        assert_eq!(
            run.samples.iter().map(Vec::len).collect::<Vec<_>>(),
            [3, 18, 3]
        );
        assert!(run.samples[Mode::Faulty.idx()]
            .iter()
            .all(|s| s.report.injected == 1));
    }
}
