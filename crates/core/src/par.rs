//! The workspace's one parallel driver.
//!
//! [`claim_map`] runs a list of independent jobs on a few scoped
//! threads and hands the results back by index. Threads decide only
//! *who* computes a job, never *what* the jobs are or where a result
//! lands, so a caller whose jobs are pure functions of their index gets
//! the same output on one thread or sixteen. The simulator's universe
//! and pipeline sweeps and the figure suite's `run_all` all go through
//! it; the analyses themselves are serial.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work` once per index in `order` on up to `threads` scoped
/// threads and returns the results by index (`order` is a permutation
/// of `0..order.len()`) plus each thread's state. A thread makes its
/// state with `init`, then claims the next unclaimed position of
/// `order` until none is left — so `order` decides what is started
/// first and a thread that drew cheap work simply claims more. At one
/// thread (or none) the caller works through `order` itself.
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
    let threads = threads.min(order.len());
    let per_thread = if threads <= 1 {
        vec![run()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("sweep thread panicked"))
                .collect()
        })
    };
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
        let (none, states) = claim_map(&[], 4, || (), |(), i| i);
        assert!(none.is_empty());
        assert_eq!(states.len(), 1);
    }
}
