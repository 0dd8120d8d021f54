//! The workspace's one parallel driver.
//!
//! [`claim_map`] runs a list of independent jobs on a few threads —
//! the calling thread and scoped helpers beside it — and hands the
//! results back by index. Threads decide only *who* computes a job,
//! never *what* the jobs are or where a result lands, so a caller
//! whose jobs are pure functions of their index gets the same output
//! on one thread or sixteen. The simulator's universe and pipeline
//! sweeps, the figure suite's `run_all` and the live daily builder's
//! batch fold all go through it; the analyses themselves are serial.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many threads a sweep runs on: the machine's parallelism, at
/// most 16. Asked of the system once per process.
pub fn sweep_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
    })
}

/// Runs `work` once per index in `order` on up to `threads` threads
/// and returns the results by index (`order` is a permutation of
/// `0..order.len()`) plus each thread's state. The caller is always
/// one of the `threads`: it spawns the other `threads - 1` as scoped
/// helpers and then works beside them. A thread makes its state with
/// `init`, then claims the next unclaimed position of `order` until
/// none is left — so `order` decides what is started first and a
/// thread that drew cheap work simply claims more.
pub fn claim_map<S: Send, R: Send>(
    order: &[usize],
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> R + Sync,
) -> (Vec<R>, Vec<S>) {
    // Relaxed: the counter only hands out positions; `order` was
    // complete before any thread started and results travel back
    // through `join`.
    let next = AtomicUsize::new(0);
    let run = || {
        let mut state = init();
        let mut done = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, work(&mut state, i)));
        }
        (state, done)
    };
    let helpers = threads.min(order.len()).saturating_sub(1);
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(run)).collect();
        let mine = run();
        std::iter::once(mine)
            .chain(handles.into_iter().map(|handle| handle.join().expect("sweep thread panicked")))
            .collect()
    });
    let mut results: Vec<Option<R>> = order.iter().map(|_| None).collect();
    let mut states = Vec::with_capacity(per_thread.len());
    for (state, done) in per_thread {
        states.push(state);
        for (i, result) in done {
            results[i] = Some(result);
        }
    }
    (results.into_iter().map(|r| r.expect("every index claimed once")).collect(), states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_map_returns_results_by_index_whatever_the_claim_order() {
        let order = [3usize, 0, 4, 1, 2];
        for threads in [0, 1, 2, 8] {
            let (squares, states) = claim_map(&order, threads, || 0usize, |claimed, i| {
                *claimed += 1;
                i * i
            });
            assert_eq!(squares, [0, 1, 4, 9, 16]);
            assert_eq!(states.iter().sum::<usize>(), order.len());
            assert!(states.len() <= threads.max(1));
        }
        // Each worker's state is made on the worker, so the states name
        // every thread that ran: the caller is one of the two.
        let me = std::thread::current().id();
        let (squares, workers) =
            claim_map(&order, 2, || std::thread::current().id(), |_, i| i * i);
        assert_eq!(squares, [0, 1, 4, 9, 16]);
        assert_eq!(workers.len(), 2);
        assert!(workers.contains(&me), "the calling thread works a share");
        assert_ne!(workers[0], workers[1]);
        let (none, states) = claim_map(&[], 4, || (), |(), i| i);
        assert!(none.is_empty());
        assert_eq!(states.len(), 1);
    }
}
