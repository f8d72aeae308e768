//! Per-worker work-stealing deques — the scheduling substrate shared by
//! the batch [`crate::cluster::Cluster`] and the streaming
//! [`crate::serve::Server`] (`DESIGN.md` §9).
//!
//! One shared `Mutex<VecDeque>` job queue is fine for a figure sweep's
//! handful of coarse jobs, but a serving front-end sends each query to
//! the home lane of its affinity class — the worker whose session/LUT
//! pools are already hot — and a single FIFO cannot express "home worker
//! first, help elsewhere when idle". This module uses the classic
//! work-stealing shape instead:
//!
//! * one deque (*lane*) per worker; producers [`StealDeques::push`] onto
//!   a chosen home lane,
//! * the owner consumes its own lane front-first (arrival order),
//! * an idle worker *steals* from the **back** of another lane — the item
//!   that would otherwise wait longest behind the victim's in-flight
//!   work, which is exactly the small latency-sensitive query stuck
//!   behind a large sweep.
//!
//! The implementation is deliberately lock-per-lane rather than a
//! lock-free Chase–Lev deque: the workspace forbids `unsafe`, items are
//! coarse (each is one `cluster::Job` closure — a batch shard or a serve
//! query, milliseconds of work), and the contract that matters here is
//! *scheduling behavior* (steal accounting, wakeups, shutdown), not
//! nanosecond pop latency. Locks recover from poisoning — a panicking
//! worker must degrade the pool gracefully, never wedge it (see
//! `PlutoError::WorkerLost`). Closing the set drops every queued item and
//! every item pushed later, so a job that owns its reply channel
//! disconnects it instead of waiting in a lane no worker reads.
//!
//! Scheduling never affects results: every consumer of this module
//! executes items on per-run-reset machines, so outputs and
//! `CostReport`s are bit-identical regardless of which lane ran what
//! (asserted by `tests/serve.rs` and `tests/cluster.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks tolerating poison: a worker that panicked while holding a lane
/// briefly leaves the deque in a consistent state (`VecDeque` ops don't
/// tear), so recovering the guard is always safe and keeps the rest of
/// the pool serving.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wakeup/shutdown state shared by all lanes. `queued` counts items
/// published-or-about-to-be-published: producers increment *before*
/// pushing and consumers decrement *after* popping, so a positive count
/// with empty lanes only ever lasts for the instant between a producer's
/// increment and its push — a waiter re-scans instead of sleeping through
/// it, and can never spin forever on a phantom item.
#[derive(Debug)]
struct Gate {
    queued: usize,
    open: bool,
}

/// A set of per-worker deques with steal semantics, blocking consumers,
/// and abortable shutdown. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct StealDeques<T> {
    lanes: Vec<Mutex<VecDeque<T>>>,
    gate: Mutex<Gate>,
    available: Condvar,
    steals: AtomicU64,
}

impl<T> StealDeques<T> {
    /// A deque set with `lanes` lanes (clamped to at least one).
    pub(crate) fn new(lanes: usize) -> Self {
        StealDeques {
            lanes: (0..lanes.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            gate: Mutex::new(Gate {
                queued: 0,
                open: true,
            }),
            available: Condvar::new(),
            steals: AtomicU64::new(0),
        }
    }

    /// Number of lanes (== workers).
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Items stolen across lanes since construction.
    pub(crate) fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Items currently queued across all lanes.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        lock_recover(&self.gate).queued
    }

    /// Publishes `item` onto `lane`'s deque (wrapping out-of-range lanes)
    /// and wakes one waiting worker. Non-blocking. Once the set is closed
    /// the item is dropped instead.
    ///
    /// The gate is released before the lane is locked, because `pop`
    /// holds a lane lock while it takes the gate. So a `close` that ran
    /// between the two steps would strand the item; callers never run
    /// `push` and `close` concurrently (the owning `Cluster` calls both
    /// through `&mut self`).
    pub(crate) fn push(&self, lane: usize, item: T) {
        let mut gate = lock_recover(&self.gate);
        if !gate.open {
            return; // `item` drops after the gate guard
        }
        gate.queued += 1;
        drop(gate);
        lock_recover(&self.lanes[lane % self.lanes.len()]).push_back(item);
        self.available.notify_one();
    }

    /// Blocking pop for worker `lane`: its own lane front-first, then a
    /// steal sweep over the other lanes (back-first, round-robin from
    /// `lane + 1`), then sleep until work arrives. `None` once the set
    /// is closed: the worker should exit.
    pub(crate) fn pop(&self, lane: usize) -> Option<T> {
        loop {
            if let Some(item) = lock_recover(&self.lanes[lane]).pop_front() {
                self.finish_take();
                return Some(item);
            }
            for offset in 1..self.lanes.len() {
                let victim = (lane + offset) % self.lanes.len();
                if let Some(item) = lock_recover(&self.lanes[victim]).pop_back() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    self.finish_take();
                    return Some(item);
                }
            }
            let gate = lock_recover(&self.gate);
            if !gate.open {
                return None;
            }
            if gate.queued > 0 {
                // A producer won the race between our scan and this
                // lock (or is between its increment and its push) —
                // re-scan rather than sleep through the wakeup.
                continue;
            }
            let _unused = self
                .available
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn finish_take(&self) {
        let mut gate = lock_recover(&self.gate);
        gate.queued = gate.queued.saturating_sub(1);
    }

    /// Closes the set: queued items are dropped, later pushes drop their
    /// item, and every current or future [`StealDeques::pop`] returns
    /// `None`. Callers that need graceful draining wait for completions
    /// *before* closing (the serve path's `drain`).
    pub(crate) fn close(&self) {
        let discarded: usize = self
            .lanes
            .iter()
            .map(|lane| {
                let mut q = lock_recover(lane);
                let n = q.len();
                q.clear();
                n
            })
            .sum();
        let mut gate = lock_recover(&self.gate);
        gate.open = false;
        gate.queued = gate.queued.saturating_sub(discarded);
        drop(gate);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;

    #[test]
    fn own_lane_is_fifo_and_steals_come_from_the_back() {
        let d: StealDeques<u32> = StealDeques::new(2);
        d.push(0, 1);
        d.push(0, 2);
        d.push(0, 3);
        // Owner consumes arrival order.
        assert_eq!(d.pop(0), Some(1));
        assert_eq!(d.steal_count(), 0, "an owner's pop is no steal");
        // A thief takes the newest item — the one that would wait longest.
        assert_eq!(d.pop(1), Some(3));
        assert_eq!(d.steal_count(), 1);
        assert_eq!(d.queued(), 1);
    }

    #[test]
    fn close_discards_queued_items_and_wakes_sleepers() {
        let d: Arc<StealDeques<u32>> = Arc::new(StealDeques::new(1));
        let sleeper = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.pop(0).is_none())
        };
        // Give the sleeper a moment to block, then close underneath it.
        thread::sleep(std::time::Duration::from_millis(10));
        d.push(0, 7);
        d.push(0, 8);
        d.close();
        // The items pushed before close may or may not have been taken;
        // after close, pops always report `None` and the discarded items
        // no longer count as queued.
        assert_eq!(d.pop(0), None);
        let _ = sleeper.join().unwrap();
        assert!(d.queued() <= 1);
    }

    #[test]
    fn a_push_after_close_drops_its_item() {
        let d: StealDeques<mpsc::Sender<()>> = StealDeques::new(2);
        d.close();
        let (tx, rx) = mpsc::channel();
        d.push(1, tx);
        // The sender was dropped, not queued: its receiver disconnects.
        assert!(rx.recv().is_err());
        assert_eq!(d.queued(), 0);
        assert!(d.pop(0).is_none());
    }

    #[test]
    fn concurrent_producers_and_stealing_consumers_drain_exactly() {
        let d: Arc<StealDeques<u64>> = Arc::new(StealDeques::new(4));
        const N: u64 = 400;
        let consumers: Vec<_> = (0..4)
            .map(|lane| {
                let d = Arc::clone(&d);
                thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some(item) = d.pop(lane) {
                        sum += item;
                    }
                    sum
                })
            })
            .collect();
        for i in 0..N {
            d.push((i % 4) as usize, i);
        }
        // Wait for the queue to drain, then close.
        while d.queued() > 0 {
            thread::yield_now();
        }
        d.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, N * (N - 1) / 2, "every item consumed exactly once");
    }
}
