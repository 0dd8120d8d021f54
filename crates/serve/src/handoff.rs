//! The one place a serving thread waits for another.
//!
//! The byte pipe and the admission queue are both "a producer changes
//! state under a mutex, a consumer waits until the state has something
//! for it", and both sit on the request path, where a thread that
//! parks for every item spends more time in futex calls than on the
//! item. [`Handoff`] holds the policy once:
//!
//! * a consumer that finds nothing gives up the core [`YIELDS`] times
//!   (a producer running on it usually delivers within one) and only
//!   then parks, having counted itself as parked *under the mutex*;
//! * a producer wakes only when that count is non-zero, so a hand-over
//!   to a consumer that is busy or merely yielding costs no syscall
//!   (`Condvar::notify_*` is one in std, waiter or not).
//!
//! No wake-up can be lost: the consumer's last look at the state, the
//! increment of `parked` and the start of `Condvar::wait` are one
//! critical section (the wait releases the mutex atomically), so a
//! producer either changed the state before that look, or runs after
//! the wait began and sees `parked > 0`.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Times a consumer yields the core before it parks. `serve_hot`
/// `work_per_s` on the 2-vCPU box (32 requests in flight, 5 s runs,
/// ten rounds with the order rotated, a seed per round), min / median
/// / max in M req/s: 1 → 1.11 / 1.44 / 1.61, 8 → 1.45 / 1.64 / 2.64,
/// 32 → 1.78 / 2.01 / 2.91 (above 8 in nine rounds of ten, 8 above 1
/// in all ten); six more rounds: 16 → 1.86, 32 → 2.06, 64 → 1.83,
/// 128 → 1.90 at the median — flat from 16 on, so the smallest count
/// well on the plateau. Without the yield (0) the batching gains
/// little — four runs read 0.66–0.84 M beside the parent's 0.53–0.60 M
/// — because threads still park between items. With idle cores
/// `yield_now` returns at once, so an idle server still parks within
/// tens of microseconds.
const YIELDS: u32 = 32;

struct Slot<T> {
    state: T,
    /// Consumers inside `Condvar::wait` (or woken and not yet running).
    parked: usize,
}

/// State of type `T` handed from producers to consumers.
pub(crate) struct Handoff<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

impl<T> Handoff<T> {
    pub(crate) fn new(state: T) -> Handoff<T> {
        Handoff { slot: Mutex::new(Slot { state, parked: 0 }), ready: Condvar::new() }
    }

    /// Every closure run under this lock leaves the state valid at
    /// each step (appends, swaps, flag stores), so a peer's panic does
    /// not make it unusable — and `Drop` impls publish through here.
    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Producer side: applies `change` under the lock, then wakes the
    /// parked consumers, if there are any.
    pub(crate) fn publish<R>(&self, change: impl FnOnce(&mut T) -> R) -> R {
        let mut slot = self.lock();
        let out = change(&mut slot.state);
        if slot.parked > 0 {
            self.ready.notify_all();
        }
        out
    }

    /// Consumer side: runs `poll` under the lock until it yields a
    /// value, giving up the core and finally parking in between.
    pub(crate) fn wait<R>(&self, mut poll: impl FnMut(&mut T) -> Option<R>) -> R {
        let mut yields = 0;
        let mut slot = self.lock();
        loop {
            if let Some(out) = poll(&mut slot.state) {
                return out;
            }
            if yields < YIELDS {
                yields += 1;
                drop(slot);
                thread::yield_now();
                slot = self.lock();
            } else {
                slot.parked += 1;
                slot = self.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);
                slot.parked -= 1;
            }
        }
    }
}

#[cfg(test)]
impl<T> Handoff<T> {
    /// Consumers parked right now: what a test waits on to force the
    /// "consumer parked, then the producer publishes" interleaving.
    pub(crate) fn parked(&self) -> usize {
        self.lock().parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn a_parked_consumer_is_woken_by_the_next_publish() {
        let cell = Arc::new(Handoff::new(None::<u32>));
        let parking = Arc::new(Barrier::new(2));
        let consumer = {
            let (cell, parking) = (cell.clone(), parking.clone());
            thread::spawn(move || {
                let mut polls = 0;
                cell.wait(|v| {
                    polls += 1;
                    // The poll after the last yield runs in the critical
                    // section that parks: meet the producer inside it.
                    if v.is_none() && polls == YIELDS + 1 {
                        parking.wait();
                    }
                    v.take()
                })
            })
        };
        // The consumer holds the lock from that poll until its wait
        // releases it, so this publish can only run once it is parked.
        parking.wait();
        cell.publish(|v| *v = Some(7));
        assert_eq!(consumer.join().unwrap(), 7);
        assert_eq!(cell.parked(), 0);
    }
}
