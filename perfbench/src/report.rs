//! Metric catalog and output.
//!
//! The catalog names every metric the benchmark reports, with its unit and
//! what it is measured against. Every workload reports every metric of its
//! pass: the untraced pass the end-to-end metrics, the traced pass the
//! per-layer metrics. A per-layer metric that a workload's layers never
//! exercise reads 0 (for instance `recovery.overwrite_faults` where no
//! block store reuses memory).

use std::collections::BTreeMap;

/// A catalog entry: name, unit, and what the value is measured against.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Definition; for a ratio, the numerator `÷` its base.
    pub what: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, what: &'static str) -> Spec {
    Spec { name, unit, what }
}

/// End-to-end metrics, measured with tracing off. The tasks and time of a
/// *pass* are summed over the workload's graphs; per graph they are the
/// mean task count and mean op time of the same ops, the middle half of
/// the graph's ops by throughput.
pub const END_TO_END: [Spec; 6] = [
    spec(
        "ft_tasks_per_s",
        "1/s",
        "tasks of a fault-free FT pass ÷ its time (service: tasks of fault-free FT instances ÷ closed-loop seconds)",
    ),
    spec(
        "baseline_tasks_per_s",
        "1/s",
        "tasks of a baseline pass ÷ its time (service: tasks of baseline instances ÷ closed-loop seconds)",
    ),
    spec(
        "faulty_tasks_per_s",
        "1/s",
        "distinct tasks of a pass under the fault plan ÷ its time (service: tasks of fault-planned instances ÷ closed-loop seconds)",
    ),
    spec(
        "graphs_per_s",
        "1/s",
        "ops of every mode completed, output checks included, ÷ seconds of the measured pass (service: instances)",
    ),
    spec(
        "peak_rss_mb",
        "MB",
        "peak resident set (VmHWM) of the process",
    ),
    spec(
        "setup_s",
        "s",
        "median of the repeated set-ups: pool, inputs, references, warm-up",
    ),
];

/// Per-layer metrics, from the traced pass.
pub const PER_LAYER: [Spec; 58] = [
    spec("apps.compute_ns", "ns", "Σ compute time ÷ compute calls"),
    spec(
        "apps.compute_calls_per_task",
        "ratio",
        "compute calls ÷ graph tasks",
    ),
    spec(
        "apps.compute_share",
        "ratio",
        "Σ compute time ÷ (workers × op wall time)",
    ),
    spec(
        "apps.work_inflation",
        "ratio",
        "Σ compute time of a parallel fault-free FT pass ÷ Σ compute time under seq::run",
    ),
    spec(
        "graph.query_calls_per_task",
        "ratio",
        "graph structure queries ÷ graph tasks",
    ),
    spec(
        "graph.query_ns_per_task",
        "ns",
        "Σ graph query time ÷ graph tasks",
    ),
    spec(
        "engine.residual_ns_per_task",
        "ns",
        "(workers × op wall time − Σ compute − Σ query) ÷ graph tasks",
    ),
    spec(
        "engine.descs_per_task",
        "ratio",
        "tasks_created() ÷ graph tasks",
    ),
    spec(
        "engine.jobs_per_task",
        "ratio",
        "pool jobs executed ÷ computes",
    ),
    spec(
        "ft.overhead_ratio",
        "ratio",
        "baseline ÷ fault-free FT pass throughput (untraced, interleaved)",
    ),
    spec(
        "ft.dup_notify_ratio",
        "ratio",
        "duplicate notifications ÷ notifications (FT ops)",
    ),
    spec(
        "recovery.injected",
        "count",
        "faults injected per faulty op",
    ),
    spec(
        "recovery.recoveries_per_fault",
        "ratio",
        "recoveries ÷ injected faults",
    ),
    spec(
        "recovery.suppressed_share",
        "ratio",
        "suppressed recoveries ÷ (recoveries + suppressed)",
    ),
    spec(
        "recovery.resets_per_fault",
        "ratio",
        "resets ÷ injected faults",
    ),
    spec(
        "recovery.reexec_per_fault",
        "ratio",
        "re-executions ÷ injected faults",
    ),
    spec(
        "recovery.overwrite_faults",
        "count",
        "overwritten-version faults per faulty op",
    ),
    spec(
        "recovery.useful_ratio",
        "ratio",
        "distinct tasks ÷ computes (faulty ops)",
    ),
    spec(
        "recovery.extra_ms_per_fault",
        "ms",
        "(faulty pass time − fault-free FT time for as many tasks) ÷ median injected faults",
    ),
    spec(
        "pool.steals_per_task",
        "ratio",
        "successful steals ÷ graph tasks",
    ),
    spec(
        "pool.steal_success_ratio",
        "ratio",
        "successful steals ÷ steal attempts",
    ),
    spec(
        "pool.injector_steal_share",
        "ratio",
        "injector steals ÷ successful steals",
    ),
    spec("pool.sleeps_per_op", "ratio", "worker parks ÷ ops"),
    spec(
        "pool.speedup_1t",
        "ratio",
        "fault-free FT pass throughput on nproc workers ÷ that on 1 worker",
    ),
    spec(
        "service.submit_us_p50",
        "us",
        "time handing the graph over: GraphService::submit, or engine construction for Engine::run",
    ),
    spec(
        "service.submit_us_p99",
        "us",
        "as service.submit_us_p50, 99th percentile",
    ),
    spec(
        "service.queue_wait_us_p50",
        "us",
        "from hand-over until the first compute starts",
    ),
    spec(
        "service.queue_wait_us_p99",
        "us",
        "as service.queue_wait_us_p50, 99th percentile",
    ),
    spec(
        "service.run_us_p50",
        "us",
        "from the first compute start until the last compute ends",
    ),
    spec(
        "service.run_us_p99",
        "us",
        "as service.run_us_p50, 99th percentile",
    ),
    spec(
        "service.release_us_p50",
        "us",
        "from the last compute end until wait() or Engine::run returns",
    ),
    spec(
        "service.release_us_p99",
        "us",
        "as service.release_us_p50, 99th percentile",
    ),
    spec(
        "service.rejected",
        "count",
        "submissions refused by admission control",
    ),
    spec("cmap.get_ns_1t", "ns", "ShardedMap::get, 1 thread"),
    spec("cmap.get_ns_nt", "ns", "ShardedMap::get, nproc threads"),
    spec(
        "cmap.insert_ns_1t",
        "ns",
        "ShardedMap::insert_if_absent of a new key, 1 thread",
    ),
    spec(
        "cmap.insert_ns_nt",
        "ns",
        "ShardedMap::insert_if_absent of a new key, nproc threads",
    ),
    spec(
        "cmap.locked_update_ns_1t",
        "ns",
        "LockedMap::update_cas, 1 thread",
    ),
    spec(
        "cmap.locked_update_ns_nt",
        "ns",
        "LockedMap::update_cas, nproc threads",
    ),
    spec(
        "metrics.record_compute_ns_1t",
        "ns",
        "RunMetrics::record_compute, 1 thread",
    ),
    spec(
        "metrics.record_compute_ns_nt",
        "ns",
        "RunMetrics::record_compute, nproc threads",
    ),
    spec(
        "steal.deque_push_pop_ns_1t",
        "ns",
        "deque push + pop pair, 1 thread",
    ),
    spec(
        "steal.deque_push_pop_ns_nt",
        "ns",
        "deque push + pop pair, nproc threads each on its own deque",
    ),
    spec("steal.deque_steal_ns_1t", "ns", "successful steal, 1 thief"),
    spec(
        "steal.deque_steal_ns_nt",
        "ns",
        "successful steal, nproc thieves on one deque",
    ),
    spec(
        "steal.injector_push_steal_ns_1t",
        "ns",
        "injector push + steal pair, 1 thread",
    ),
    spec(
        "steal.injector_push_steal_ns_nt",
        "ns",
        "injector push + steal pair, nproc threads on one injector",
    ),
    spec("steal.arena_alloc_ns_1t", "ns", "Arena::alloc, 1 thread"),
    spec(
        "steal.arena_alloc_ns_nt",
        "ns",
        "Arena::alloc, nproc threads on one arena",
    ),
    spec("bitvec.unset_ns_1t", "ns", "AtomicBitVec::unset, 1 thread"),
    spec(
        "bitvec.unset_ns_nt",
        "ns",
        "AtomicBitVec::unset, nproc threads on shared words",
    ),
    spec(
        "blocks.read_latest_ns_1t",
        "ns",
        "BlockStore::read_latest, 1 thread",
    ),
    spec(
        "blocks.read_latest_ns_nt",
        "ns",
        "BlockStore::read_latest, nproc threads",
    ),
    spec(
        "blocks.publish_ns_1t",
        "ns",
        "BlockStore::publish under KeepLast(2), 1 thread",
    ),
    spec(
        "blocks.publish_ns_nt",
        "ns",
        "BlockStore::publish under KeepLast(2), nproc threads",
    ),
    spec(
        "reconcile.explained_share",
        "ratio",
        "Σ (probe ns/op × ops per task) ÷ engine.residual_ns_per_task",
    ),
    spec(
        "reconcile.unexplained_ns_per_task",
        "ns",
        "engine.residual_ns_per_task − Σ (probe ns/op × ops per task)",
    ),
    spec(
        "trace.overhead_ratio",
        "ratio",
        "traced ÷ untraced fault-free FT pass throughput",
    ),
];

/// Measured metric values of one run, with a note each (sample count,
/// percentile, base) for the human-readable report.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<String, (f64, String)>,
}

impl Values {
    /// Record `name = value` with a note.
    pub fn set(&mut self, name: impl Into<String>, value: f64, note: impl Into<String>) {
        self.map.insert(name.into(), (value, note.into()));
    }

    /// Print one line per catalog metric and return the final JSON line's
    /// `metrics` object. Missing or non-finite values are returned as
    /// problems.
    pub fn render(&self, catalog: &[Spec], zero_ok: bool) -> (String, Vec<String>) {
        let mut problems = Vec::new();
        let mut json = Vec::new();
        for s in catalog {
            let (value, note) = match self.map.get(s.name) {
                Some((v, n)) if v.is_finite() && (zero_ok || *v != 0.0) => (*v, n.as_str()),
                Some((v, _)) => {
                    problems.push(format!("metric {} is {v}", s.name));
                    (0.0, "")
                }
                None => {
                    problems.push(format!("metric {} was not measured", s.name));
                    (0.0, "")
                }
            };
            let base = if s.unit == "ratio" {
                format!("base: {}", s.what)
            } else {
                s.what.to_string()
            };
            let note = if note.is_empty() {
                String::new()
            } else {
                format!("; {note}")
            };
            println!("metric {} = {value} {}  ({base}{note})", s.name, s.unit);
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            ));
        }
        (format!("{{{}}}", json.join(", ")), problems)
    }
}

/// The last line of the output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one section of BENCHMARK.json.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value opens") + 1..];
                    rest[..rest.find('"').expect("value closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |c: &[Spec]| -> Vec<(String, String)> {
            c.iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(section(json, "end_to_end"), names(&END_TO_END));
        assert_eq!(section(json, "per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn every_ratio_states_its_base() {
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            if s.unit == "ratio" {
                assert!(s.what.contains('÷'), "{} does not state its base", s.name);
            }
            assert!(!s.what.is_empty(), "{} has no definition", s.name);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(s.name), "{} listed twice", s.name);
            assert!(s.name.len() <= 64);
            assert!(s
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn missing_or_zero_end_to_end_values_are_problems() {
        let mut v = Values::default();
        for s in &END_TO_END {
            v.set(s.name, 1.5, "");
        }
        assert!(v.render(&END_TO_END, false).1.is_empty());
        v.set("setup_s", 0.0, "");
        v.set("ft_tasks_per_s", f64::NAN, "");
        let (json, problems) = v.render(&END_TO_END, false);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(json.contains("\"graphs_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        assert!(!json.contains("NaN"));
    }
}
