//! Order-preserving parallel primitives with a determinism contract.
//!
//! One `parallel_map` for the experiment sweeps. The contract every
//! caller relies on:
//!
//! * **Order preservation.** `parallel_map(items, f)` returns exactly
//!   `items.iter().map(f).collect()` — result `i` came from item `i`,
//!   in input order, regardless of which worker computed it or when.
//! * **Purity requirement.** `f` must be a pure function of its
//!   argument (no interior mutability, no I/O ordering dependence).
//!   Every `f` passed in this repo derives its output from immutable
//!   borrows only.
//!
//! Together these make parallel execution *bit-identical* to sequential
//! execution for any caller that consumes the results in order.
//!
//! The sweeps map over independent cells, each of which solves on the
//! thread that picked it up. A scheduler solve never fans out: `vod_core`
//! runs it on its caller's thread (DESIGN.md §8). A map over a batch's
//! shards lost to the in-order loop at every benchmark workload on two
//! vCPUs, and a map inside a solve lost at every size measured
//! (EXPERIMENTS.md, *One thread per solve* and *Inner fan-out: measured,
//! then removed*).
//!
//! Built on `std::thread::scope`; no external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// How a fan-out over independent items should execute. No code in
/// this workspace branches on it: it survives only as the type of the
/// ignored `_mode` parameter on the four `vod_core` entry points the
/// benchmark harness calls, and leaves with benchmark revision 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Run on the calling thread, in input order.
    Sequential,
    /// Fan out across worker threads.
    Parallel,
}

/// Map `f` over `items` on all available cores, preserving input order.
///
/// Work is distributed by an atomic cursor (dynamic load balancing), so
/// uneven item costs don't idle workers; each worker buffers its
/// `(index, result)` pairs locally and the results are re-assembled in
/// input order afterwards. Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_map_with_workers(items, workers, f)
}

/// [`parallel_map`] with an explicit worker count (single-worker calls
/// run inline on the caller's thread). Exists so tests can drive the
/// concurrent path on machines where `available_parallelism` is 1 and
/// callers with better knowledge of the workload can size the pool.
pub fn parallel_map_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.extend(items.iter().map(|_| None));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        produced.push((i, f(&items[i])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("parallel_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots.into_iter().map(|s| s.expect("every slot filled exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map_with_workers(&items, 4, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    /// The two ways to map agree: in order on the caller's thread, and
    /// across more workers than the machine has.
    #[test]
    fn modes_agree() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37)).collect();
        let forced = parallel_map_with_workers(&items, 8, |&x| x.wrapping_mul(0x9E37));
        assert_eq!(seq, forced);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still land in their slots.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_with_workers(&items, 4, |&x| {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn propagates_panics() {
        let items: Vec<u32> = (0..128).collect();
        let _ = parallel_map_with_workers(&items, 4, |&x| {
            if x == 97 {
                panic!("boom");
            }
            x
        });
    }
}
