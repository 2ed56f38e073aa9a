//! Direct probes of each hot-path structure's public API.
//!
//! Each probe runs the same operation on 1 thread and on `nproc` threads
//! sharing one structure (the way workers share it during a run) and
//! reports nanoseconds per operation as seen by one thread: summed thread
//! time over summed operations. Each figure is the median of three
//! repetitions.

use crate::stats::median;
use ft_cmap::{LockedMap, ShardedMap};
use ft_steal::deque::{deque, Steal};
use ft_steal::injector::Injector;
use ft_steal::rng::XorShift64Star;
use ft_steal::Arena;
use nabbit_ft::bitvec::AtomicBitVec;
use nabbit_ft::blocks::{BlockStore, Retention};
use nabbit_ft::metrics::RunMetrics;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// One probed operation: its metric stem and ns/op at 1 and `nproc`
/// threads.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Metric stem, e.g. `cmap.get_ns`.
    pub name: &'static str,
    /// ns/op on one thread.
    pub one: f64,
    /// ns/op on `nproc` threads.
    pub all: f64,
}

/// Probe stems, in report order.
pub const PROBES: [&str; 11] = [
    "cmap.get_ns",
    "cmap.insert_ns",
    "cmap.locked_update_ns",
    "metrics.record_compute_ns",
    "steal.deque_push_pop_ns",
    "steal.deque_steal_ns",
    "steal.injector_push_steal_ns",
    "steal.arena_alloc_ns",
    "bitvec.unset_ns",
    "blocks.read_latest_ns",
    "blocks.publish_ns",
];

const REPS: usize = 3;
const KEYS: i64 = 4096;

/// Run `body(thread, n_threads)` on `threads` threads started together;
/// each returns (operations, its own elapsed ns). Returns ns per op.
fn on_threads(threads: usize, body: impl Fn(usize, usize) -> (u64, u64) + Sync) -> f64 {
    let start = Barrier::new(threads);
    let (ops, ns) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (start, body) = (&start, &body);
                s.spawn(move || {
                    start.wait();
                    body(t, threads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold((0, 0), |(a, b), (o, n)| (a + o, b + n))
    });
    ns as f64 / ops.max(1) as f64
}

fn timed(n: u64, mut f: impl FnMut(u64)) -> (u64, u64) {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    (n, t0.elapsed().as_nanos() as u64)
}

fn probe_once(name: &str, threads: usize) -> f64 {
    match name {
        "cmap.get_ns" => {
            let map = ShardedMap::new();
            for k in 0..KEYS {
                map.insert_if_absent(k, || k as u64);
            }
            on_threads(threads, |t, _| {
                let mut rng = XorShift64Star::new(t as u64 + 1);
                timed(200_000, |_| {
                    black_box(map.get(rng.next_below(KEYS as usize) as i64));
                })
            })
        }
        "cmap.insert_ns" => {
            let map = ShardedMap::new();
            on_threads(threads, |t, _| {
                let base = t as i64 * 1_000_000;
                timed(40_000, |i| {
                    map.insert_if_absent(base + i as i64, || i);
                })
            })
        }
        "cmap.locked_update_ns" => {
            let map: LockedMap<u64> = LockedMap::with_shards(64);
            on_threads(threads, |t, _| {
                let mut rng = XorShift64Star::new(t as u64 + 1);
                timed(100_000, |_| {
                    let k = rng.next_below(KEYS as usize) as i64;
                    map.update_cas(k, |c| (Some(c.copied().unwrap_or(0) + 1), ()));
                })
            })
        }
        "metrics.record_compute_ns" => {
            let m = RunMetrics::new();
            on_threads(threads, |t, _| {
                let base = t as i64 * 1_000_000;
                timed(60_000, |i| {
                    black_box(m.record_compute(base + i as i64));
                })
            })
        }
        "steal.deque_push_pop_ns" => on_threads(threads, |_, _| {
            let (w, _s) = deque::<u64>();
            timed(400_000, |i| {
                w.push(i);
                black_box(w.pop());
            })
        }),
        "steal.deque_steal_ns" => {
            let (w, s) = deque::<u64>();
            let per_thread = 100_000;
            for i in 0..per_thread * threads as u64 {
                w.push(i);
            }
            let ns = on_threads(threads, |_, _| {
                let s = s.clone();
                let mut got = 0;
                let t0 = Instant::now();
                loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            black_box(v);
                            got += 1;
                        }
                        Steal::Retry => {}
                        Steal::Empty => break,
                    }
                }
                (got, t0.elapsed().as_nanos() as u64)
            });
            drop(w);
            ns
        }
        "steal.injector_push_steal_ns" => {
            let inj = Injector::new();
            on_threads(threads, |_, _| {
                timed(100_000, |i| {
                    inj.push(i);
                    black_box(inj.steal());
                })
            })
        }
        "steal.arena_alloc_ns" => {
            let arena: Arena<[u64; 8]> = Arena::new();
            on_threads(threads, |_, _| {
                timed(200_000, |i| {
                    black_box(arena.alloc([i; 8]));
                })
            })
        }
        "bitvec.unset_ns" => {
            // Threads interleave over shared words, like the predecessors
            // of one wide fan-in task.
            let per_thread = 500_000;
            let bits = AtomicBitVec::new_all_set(per_thread * threads);
            on_threads(threads, |t, n| {
                timed(per_thread as u64, |i| {
                    black_box(bits.unset(i as usize * n + t));
                })
            })
        }
        "blocks.read_latest_ns" => {
            let store: BlockStore<i32> = BlockStore::new(64, Retention::KeepLast(2));
            for b in 0..64 {
                store.publish(b, 0, b as i64, vec![0; 16]);
            }
            on_threads(threads, |t, _| {
                let mut rng = XorShift64Star::new(t as u64 + 1);
                timed(200_000, |_| {
                    black_box(store.read_latest(rng.next_below(64)).ok());
                })
            })
        }
        "blocks.publish_ns" => {
            // Sixteen versions per block, as in a kernel with 16 tile rows:
            // each publish of a new latest version evicts the oldest.
            const VERSIONS: u64 = 16;
            const BLOCKS: u64 = 2_500;
            let store: BlockStore<i32> =
                BlockStore::new(BLOCKS as usize * threads, Retention::KeepLast(2));
            on_threads(threads, |t, _| {
                let n = BLOCKS * VERSIONS;
                let mut data: Vec<Vec<i32>> = (0..n).map(|_| vec![0; 16]).collect();
                timed(n, |i| {
                    let block = t * BLOCKS as usize + (i / VERSIONS) as usize;
                    let v = data.pop().unwrap_or_default();
                    store.publish(block, i % VERSIONS, i as i64, v);
                })
            })
        }
        other => unreachable!("unknown probe {other}"),
    }
}

/// Run every probe at 1 and `threads` threads.
pub fn run_all(threads: usize) -> Vec<Probe> {
    PROBES
        .iter()
        .map(|&name| {
            let rep = |t| median(&(0..REPS).map(|_| probe_once(name, t)).collect::<Vec<_>>());
            Probe {
                name,
                one: rep(1),
                all: rep(threads),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_measures_a_positive_cost() {
        for name in PROBES {
            let ns = probe_once(name, 2);
            assert!(ns.is_finite() && ns > 0.0, "{name}: {ns}");
        }
    }
}
