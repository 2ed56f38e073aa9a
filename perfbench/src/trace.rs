//! The traced pass: a forwarding [`TaskGraph`] wrapper that times every
//! call the engine makes into the graph, and the span recorder it writes
//! to.
//!
//! The wrapper forwards every trait method, the zero-allocation overrides
//! (`predecessors_into`, `out_degree`) included, so a wrapped graph takes
//! the same engine paths as the bare one. Each call adds its duration to a
//! per-thread, per-class counter; calls of sampled ops are also kept as
//! spans (name, start, end, parent, op id). Buffers are per thread and are
//! merged only after the pool has quiesced, so recording never contends
//! across workers.

use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock that
/// op timings, phases and spans share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The graph calls the wrapper times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `compute`: the application's kernel.
    Compute,
    /// `predecessors`.
    Predecessors,
    /// `predecessors_into`.
    PredecessorsInto,
    /// `successors`.
    Successors,
    /// `out_degree`.
    OutDegree,
    /// `poison_outputs`: the fault injector corrupting a task's blocks.
    PoisonOutputs,
    /// `source_hint`.
    SourceHint,
}

/// Number of [`Call`] kinds.
pub const CALLS: usize = 7;

/// Every [`Call`] kind, in discriminant order.
pub const ALL_CALLS: [Call; CALLS] = [
    Call::Compute,
    Call::Predecessors,
    Call::PredecessorsInto,
    Call::Successors,
    Call::OutDegree,
    Call::PoisonOutputs,
    Call::SourceHint,
];

impl Call {
    /// Span name of the call.
    pub fn name(self) -> &'static str {
        match self {
            Call::Compute => "apps.compute",
            Call::Predecessors => "graph.predecessors",
            Call::PredecessorsInto => "graph.predecessors_into",
            Call::Successors => "graph.successors",
            Call::OutDegree => "graph.out_degree",
            Call::PoisonOutputs => "apps.poison_outputs",
            Call::SourceHint => "graph.source_hint",
        }
    }

    /// True for the structure queries of the `graph` layer.
    pub fn is_query(self) -> bool {
        matches!(
            self,
            Call::Predecessors | Call::PredecessorsInto | Call::Successors | Call::OutDegree
        )
    }
}

/// Call count and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    /// Calls.
    pub calls: u64,
    /// Summed nanoseconds.
    pub ns: u64,
}

impl Stat {
    /// Element-wise sum.
    pub fn add(&mut self, other: Stat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Per-class counters of every [`Call`] kind.
pub type ClassStats = [Stat; CALLS];

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Span id (an op span's id is its op id).
    pub id: u64,
    /// Id of the span that caused this one (`None` for an op span).
    pub parent: Option<u64>,
    /// Op the span belongs to.
    pub op: u64,
    /// Start, on the [`now_ns`] clock.
    pub start: u64,
    /// End, on the [`now_ns`] clock.
    pub end: u64,
}

/// Spans one thread keeps; later ones are counted but not kept.
const SPANS_PER_THREAD: usize = 40_000;

/// Child span ids carry this bit so they never collide with op ids.
const CHILD_ID: u64 = 1 << 63;

#[derive(Default)]
struct ThreadBuf {
    slot: u64,
    seq: u64,
    spans: Vec<Span>,
    stats: Vec<ClassStats>,
}

/// Collects per-thread counters and spans.
pub struct Recorder {
    id: u64,
    bufs: Mutex<Vec<Arc<Mutex<ThreadBuf>>>>,
}

thread_local! {
    /// This thread's buffer in each live recorder, keyed by recorder id.
    static LOCAL: RefCell<Vec<(u64, Arc<Mutex<ThreadBuf>>)>> = const { RefCell::new(Vec::new()) };
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Recorder {
            // ord: Relaxed — a unique id, no data published through it.
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            bufs: Mutex::new(Vec::new()),
        }
    }

    fn with_buf<R>(&self, f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
        let buf = LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if let Some((_, b)) = local.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(b);
            }
            let mut bufs = self.bufs.lock().expect("recorder registry poisoned");
            let b = Arc::new(Mutex::new(ThreadBuf {
                slot: bufs.len() as u64,
                ..ThreadBuf::default()
            }));
            bufs.push(Arc::clone(&b));
            local.push((self.id, Arc::clone(&b)));
            b
        });
        let mut guard = buf.lock().expect("span buffer poisoned");
        f(&mut guard)
    }

    /// Count one call of `class`, keeping it as a span when `span_of` names
    /// its op.
    pub fn record(&self, class: usize, call: Call, start: u64, end: u64, span_of: Option<u64>) {
        self.with_buf(|b| {
            if b.stats.len() <= class {
                b.stats.resize(class + 1, ClassStats::default());
            }
            let st = &mut b.stats[class][call as usize];
            st.calls += 1;
            st.ns += end.saturating_sub(start);
            if let Some(op) = span_of {
                if b.spans.len() < SPANS_PER_THREAD {
                    b.seq += 1;
                    let id = CHILD_ID | (b.slot << 40) | b.seq;
                    b.spans.push(Span {
                        name: call.name(),
                        id,
                        parent: Some(op),
                        op,
                        start,
                        end,
                    });
                }
            }
        });
    }

    /// Keep the root span of op `op`.
    pub fn op_span(&self, name: &'static str, op: u64, start: u64, end: u64) {
        self.with_buf(|b| {
            if b.spans.len() < SPANS_PER_THREAD {
                b.spans.push(Span {
                    name,
                    id: op,
                    parent: None,
                    op,
                    start,
                    end,
                });
            }
        });
    }

    /// Merge and reset every thread's counters. Call after quiescence.
    pub fn take_stats(&self) -> Vec<ClassStats> {
        let mut out: Vec<ClassStats> = Vec::new();
        for b in self.bufs.lock().expect("recorder registry poisoned").iter() {
            let mut b = b.lock().expect("span buffer poisoned");
            if out.len() < b.stats.len() {
                out.resize(b.stats.len(), ClassStats::default());
            }
            for (acc, st) in out.iter_mut().zip(b.stats.drain(..)) {
                for (a, s) in acc.iter_mut().zip(st) {
                    a.add(s);
                }
            }
        }
        out
    }

    /// Merge and drain every thread's spans, ordered by start. Call after
    /// quiescence.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for b in self.bufs.lock().expect("recorder registry poisoned").iter() {
            out.append(&mut b.lock().expect("span buffer poisoned").spans);
        }
        out.sort_by_key(|s| (s.start, s.id));
        out
    }
}

/// A [`TaskGraph`] that forwards every call to `inner` and records it.
pub struct Traced {
    inner: Arc<dyn TaskGraph>,
    rec: Arc<Recorder>,
    class: usize,
    op: u64,
    spans: bool,
    sink: Key,
    first_start: AtomicU64,
    sink_end: AtomicU64,
}

impl Traced {
    /// Wrap `inner` for op `op`, counting into `class`; `spans` keeps the
    /// op's calls as spans.
    pub fn new(
        inner: Arc<dyn TaskGraph>,
        rec: Arc<Recorder>,
        class: usize,
        op: u64,
        spans: bool,
    ) -> Arc<Self> {
        let sink = inner.sink();
        Arc::new(Traced {
            inner,
            rec,
            class,
            op,
            spans,
            sink,
            first_start: AtomicU64::new(u64::MAX),
            sink_end: AtomicU64::new(0),
        })
    }

    /// Start of the op's first `compute`. Read after quiescence.
    pub fn first_compute(&self) -> Option<u64> {
        // ord: Relaxed — read after the run quiesced, which orders it
        // after every worker's store.
        let t = self.first_start.load(Ordering::Relaxed);
        (t != u64::MAX).then_some(t)
    }

    /// End of the sink's last `compute`, which is the op's last compute:
    /// every other task precedes the sink. Read after quiescence.
    pub fn last_compute_end(&self) -> Option<u64> {
        // ord: Relaxed — as in `first_compute`.
        let t = self.sink_end.load(Ordering::Relaxed);
        (t != 0).then_some(t)
    }

    fn timed<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.rec
            .record(self.class, call, start, end, self.spans.then_some(self.op));
        r
    }
}

impl TaskGraph for Traced {
    fn sink(&self) -> Key {
        self.sink
    }

    fn predecessors(&self, key: Key) -> Vec<Key> {
        self.timed(Call::Predecessors, || self.inner.predecessors(key))
    }

    fn predecessors_into(&self, key: Key, out: &mut Vec<Key>) {
        self.timed(Call::PredecessorsInto, || {
            self.inner.predecessors_into(key, out)
        })
    }

    fn successors(&self, key: Key) -> Vec<Key> {
        self.timed(Call::Successors, || self.inner.successors(key))
    }

    fn out_degree(&self, key: Key) -> usize {
        self.timed(Call::OutDegree, || self.inner.out_degree(key))
    }

    fn compute(&self, key: Key, ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        let start = now_ns();
        // ord: Relaxed (both atomics) — timestamps read after quiescence;
        // they publish no other data. The load keeps the common case
        // (not the earliest compute) free of read-modify-writes.
        if start < self.first_start.load(Ordering::Relaxed) {
            self.first_start.fetch_min(start, Ordering::Relaxed);
        }
        let r = self.inner.compute(key, ctx);
        let end = now_ns();
        if key == self.sink {
            self.sink_end.fetch_max(end, Ordering::Relaxed);
        }
        self.rec.record(
            self.class,
            Call::Compute,
            start,
            end,
            self.spans.then_some(self.op),
        );
        r
    }

    fn poison_outputs(&self, key: Key) {
        self.timed(Call::PoisonOutputs, || self.inner.poison_outputs(key))
    }

    fn source_hint(&self) -> Option<Vec<Key>> {
        self.timed(Call::SourceHint, || self.inner.source_hint())
    }
}

/// Total and self time of all spans of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Self time per span name. A span's self time is its duration minus the
/// union of its children's intervals (clipped to the span): children run
/// in parallel on several workers, so their durations may not simply be
/// subtracted.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut by_name: Vec<SelfTime> = Vec::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let entry = match by_name.iter_mut().find(|e| e.name == s.name) {
            Some(e) => e,
            None => {
                by_name.push(SelfTime {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                by_name.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur - covered;
    }
    by_name
}

/// Write `spans` as JSON lines after a header line naming the run.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": {}}}",
        spans.len()
    )?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.id, s.op, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_apps::lcs::Lcs;
    use ft_apps::AppConfig;
    use ft_bench::grids::EmptyGrid;
    use ft_det::DetPool;
    use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
    use nabbit_ft::metrics::RunReport;
    use nabbit_ft::scheduler::FtScheduler;
    use std::time::Duration;

    fn plan() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new([
            FaultSite::once(5, Phase::BeforeCompute),
            FaultSite::once(17, Phase::AfterCompute),
            FaultSite::once(30, Phase::AfterCompute),
        ]))
    }

    fn run_det(graph: Arc<dyn TaskGraph>, seed: u64) -> RunReport {
        let mut r = FtScheduler::with_plan(graph, plan()).run(&DetPool::new(seed));
        r.elapsed = Duration::ZERO;
        r
    }

    #[test]
    fn wrapped_and_bare_graphs_give_identical_reports_on_detpool() {
        let seed = 7;
        let rec = Arc::new(Recorder::new());
        let bare = run_det(Arc::new(EmptyGrid { n: 8 }), seed);
        let traced = Traced::new(Arc::new(EmptyGrid { n: 8 }), Arc::clone(&rec), 0, 1, true);
        let wrapped = run_det(traced.clone(), seed);
        assert!(bare.injected > 0 && bare.recoveries > 0, "plan must fire");
        assert_eq!(bare, wrapped);
        let stats = rec.take_stats();
        assert_eq!(
            stats[0][Call::Compute as usize].calls,
            wrapped.computes + wrapped.compute_faults
        );
        assert!(traced.first_compute().expect("computed") < traced.last_compute_end().unwrap());
    }

    #[test]
    fn wrapper_forwards_poison_outputs_of_a_block_store_app() {
        // LCS keys encode tile (i, j); (1, 1) and (2, 0) are inner tiles.
        let key = |i: i64, j: i64| (i << 20) | j;
        let plan = || {
            Arc::new(FaultPlan::new([
                FaultSite::once(key(1, 1), Phase::AfterCompute),
                FaultSite::once(key(2, 0), Phase::AfterCompute),
            ]))
        };
        let run = |graph: Arc<dyn TaskGraph>| {
            let mut r = FtScheduler::with_plan(graph, plan()).run(&DetPool::new(3));
            r.elapsed = Duration::ZERO;
            r
        };
        let cfg = AppConfig::new(64, 16);
        let bare = run(Arc::new(Lcs::new(cfg)));
        let rec = Arc::new(Recorder::new());
        let wrapped = run(Traced::new(
            Arc::new(Lcs::new(cfg)),
            Arc::clone(&rec),
            0,
            1,
            false,
        ));
        assert_eq!(bare.injected, 2);
        assert_eq!(bare, wrapped);
        assert_eq!(rec.take_stats()[0][Call::PoisonOutputs as usize].calls, 2);
        assert!(rec.take_spans().is_empty(), "spans were not requested");
    }

    #[test]
    fn every_trait_method_is_forwarded() {
        let rec = Arc::new(Recorder::new());
        let g = Traced::new(Arc::new(EmptyGrid { n: 3 }), Arc::clone(&rec), 2, 9, true);
        let bare = EmptyGrid { n: 3 };
        assert_eq!(g.sink(), bare.sink());
        assert_eq!(g.predecessors(4), bare.predecessors(4));
        assert_eq!(g.successors(4), bare.successors(4));
        assert_eq!(g.out_degree(4), bare.out_degree(4));
        let mut buf = Vec::new();
        g.predecessors_into(4, &mut buf);
        assert_eq!(buf, bare.predecessors(4));
        g.compute(4, &ComputeCtx::new(1, false, None)).unwrap();
        g.poison_outputs(4);
        assert_eq!(g.source_hint(), None);
        let stats = rec.take_stats();
        assert!(stats[2].iter().all(|s| s.calls == 1), "{stats:?}");
        let spans = rec.take_spans();
        assert_eq!(spans.len(), CALLS);
        assert!(spans.iter().all(|s| s.op == 9 && s.parent == Some(9)));
        assert!(rec.take_stats().iter().flatten().all(|s| s.calls == 0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, id, parent, start, end| Span {
            name,
            id,
            parent,
            op: 1,
            start,
            end,
        };
        let spans = [
            span("op", 1, None, 0, 100),
            // Two overlapping children cover [10, 40); a third [60, 70);
            // one pokes out of the parent and is clipped to [90, 100).
            span("c", 10, Some(1), 10, 30),
            span("c", 11, Some(1), 20, 40),
            span("c", 12, Some(1), 60, 70),
            span("c", 13, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        let op = t.iter().find(|e| e.name == "op").unwrap();
        assert_eq!(
            (op.count, op.total_ns, op.self_ns),
            (1, 100, 100 - 30 - 10 - 10)
        );
        let c = t.iter().find(|e| e.name == "c").unwrap();
        assert_eq!((c.count, c.total_ns, c.self_ns), (4, 20 + 20 + 10 + 30, 80));
    }
}
