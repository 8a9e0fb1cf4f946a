//! Worker supervision: heartbeat epochs and the live-worker registry.
//!
//! Every worker owns a [`WorkerSlot`] and bumps its epoch at the top of
//! each loop iteration — including the ≤5 ms park timeouts of an idle
//! queue, so a healthy worker's epoch *always* advances, busy or idle. The
//! supervisor thread (spawned by the service) scans the registry on a
//! short tick and classifies each worker:
//!
//! * **dead** — the thread exited (a `KillWorker` fault, or a panic that
//!   escaped the job guard, e.g. inside the queue itself). The handle is
//!   reaped (its panic payload, if any, is swallowed here — never
//!   propagated into the supervisor or `Drop`) and the service respawns a
//!   replacement under the same worker index, which names its thread and
//!   picks its trace ring.
//! * **stalled** — the epoch has not advanced for `stall_after` while the
//!   thread is still running: the worker is wedged inside a job. Rust has
//!   no safe way to kill a wedged thread, so the entry is *abandoned*
//!   (handle detached — joining it could hang shutdown forever) and a
//!   substitute is spawned under its index. If the wedged worker ever
//!   unsticks it simply becomes an extra consumer until the queue closes,
//!   which the MPMC queue tolerates by construction.
//!
//! The registry mutex is cold: only the supervisor tick, respawn, and
//! shutdown touch it — never the submit or completion hot paths.

use moqo_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use moqo_sync::Arc;
use moqo_sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One worker's heartbeat: an epoch stamped every loop iteration plus an
/// explicit exit flag (set before the thread returns, so death is visible
/// even before the OS reaps the thread).
#[derive(Debug, Default)]
pub(crate) struct WorkerSlot {
    epoch: AtomicU64,
    exited: AtomicBool,
}

impl WorkerSlot {
    /// Stamps one heartbeat; called at the top of every worker-loop
    /// iteration (relaxed — the supervisor only compares for *change*).
    #[moqo::hot_path]
    pub(crate) fn beat(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the worker as exiting (cleanly or not).
    pub(crate) fn mark_exited(&self) {
        self.exited.store(true, Ordering::Release);
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn has_exited(&self) -> bool {
        self.exited.load(Ordering::Acquire)
    }
}

/// Registry entry for one live worker.
pub(crate) struct WorkerEntry {
    pub(crate) worker: usize,
    pub(crate) slot: Arc<WorkerSlot>,
    pub(crate) handle: JoinHandle<()>,
    /// Supervisor bookkeeping: the epoch seen last tick, and how long it
    /// has been unchanged.
    last_epoch: u64,
    stale_for: Duration,
}

/// What one supervisor scan found wrong with a worker; the index is the
/// one its replacement takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Finding {
    /// The worker thread exited; its handle was reaped.
    Dead {
        /// Index of the dead worker.
        worker: usize,
    },
    /// The worker is wedged in a job; its handle was detached.
    Stalled {
        /// Index of the wedged worker.
        worker: usize,
    },
}

/// Shared supervision state: the worker registry plus the supervisor
/// thread's parking and shutdown signalling.
pub(crate) struct Supervision {
    entries: Mutex<Vec<WorkerEntry>>,
    shutting_down: AtomicBool,
    /// Monotone worker-name generation counter (respawns get fresh names).
    generation: AtomicUsize,
    parker: Mutex<()>,
    wake: Condvar,
}

impl Supervision {
    pub(crate) fn new() -> Self {
        Supervision {
            entries: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            generation: AtomicUsize::new(0),
            parker: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Registers a newly spawned worker.
    pub(crate) fn register(&self, worker: usize, slot: Arc<WorkerSlot>, handle: JoinHandle<()>) {
        let last_epoch = slot.epoch();
        self.entries
            .lock()
            .expect("supervision registry poisoned")
            .push(WorkerEntry {
                worker,
                slot,
                handle,
                last_epoch,
                stale_for: Duration::ZERO,
            });
    }

    /// Fresh generation number for a worker thread name.
    pub(crate) fn next_generation(&self) -> usize {
        self.generation.fetch_add(1, Ordering::Relaxed)
    }

    /// One supervision pass: reaps dead workers, abandons wedged ones, and
    /// returns what the service must respawn. `tick` is the time since the
    /// previous pass; `stall_after == ZERO` disables stall detection.
    pub(crate) fn scan(&self, tick: Duration, stall_after: Duration) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut entries = self.entries.lock().expect("supervision registry poisoned");
        let mut index = 0;
        while index < entries.len() {
            let entry = &mut entries[index];
            if entry.slot.has_exited() || entry.handle.is_finished() {
                let entry = entries.swap_remove(index);
                // The thread already exited (or is returning); join is
                // near-instant. A panic payload must die here: letting it
                // unwind out of the supervisor would kill supervision.
                drop(entry.handle.join());
                findings.push(Finding::Dead {
                    worker: entry.worker,
                });
                continue;
            }
            let epoch = entry.slot.epoch();
            if epoch == entry.last_epoch {
                entry.stale_for += tick;
                if !stall_after.is_zero() && entry.stale_for >= stall_after {
                    // Wedged: detach (a join could hang forever) and let
                    // the service field a substitute under its index.
                    let entry = entries.swap_remove(index);
                    drop(entry.handle);
                    findings.push(Finding::Stalled {
                        worker: entry.worker,
                    });
                    continue;
                }
            } else {
                entry.last_epoch = epoch;
                entry.stale_for = Duration::ZERO;
            }
            index += 1;
        }
        findings
    }

    /// Workers currently alive: registered, not abandoned, and whose
    /// thread is actually still running — a worker that died but has not
    /// been reaped by a scan yet does not count.
    pub(crate) fn alive(&self) -> usize {
        self.entries
            .lock()
            .expect("supervision registry poisoned")
            .iter()
            .filter(|entry| !entry.slot.has_exited() && !entry.handle.is_finished())
            .count()
    }

    /// Removes and returns every live handle — the shutdown join set.
    pub(crate) fn take_handles(&self) -> Vec<JoinHandle<()>> {
        self.entries
            .lock()
            .expect("supervision registry poisoned")
            .drain(..)
            .map(|entry| entry.handle)
            .collect()
    }

    /// Signals the supervisor loop to exit and wakes it.
    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.nudge();
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Wakes the supervisor out of its tick sleep (e.g. a worker about to
    /// die from an injected kill, so the respawn lands promptly).
    pub(crate) fn nudge(&self) {
        drop(self.parker.lock().expect("supervision parker poisoned"));
        self.wake.notify_all();
    }

    /// Parks the supervisor thread for up to `tick` (early-woken by
    /// [`Supervision::nudge`]).
    pub(crate) fn park(&self, tick: Duration) {
        let guard = self.parker.lock().expect("supervision parker poisoned");
        drop(
            self.wake
                .wait_timeout(guard, tick)
                .expect("supervision parker poisoned"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_workers_are_reaped_and_reported() {
        let sup = Supervision::new();
        let slot = Arc::new(WorkerSlot::default());
        let worker_slot = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            worker_slot.beat();
            worker_slot.mark_exited();
        });
        sup.register(3, slot, handle);
        // The thread flips `exited` before returning; wait for the flag.
        while sup
            .scan(Duration::from_millis(1), Duration::ZERO)
            .is_empty()
        {
            std::thread::yield_now();
        }
        assert_eq!(sup.alive(), 0);
    }

    #[test]
    fn stalled_workers_are_abandoned_after_the_threshold() {
        let sup = Supervision::new();
        let slot = Arc::new(WorkerSlot::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            // Wedged: never beats, never exits, until released.
            let _ = done_rx.recv();
        });
        sup.register(1, Arc::clone(&slot), handle);
        let tick = Duration::from_millis(10);
        let stall_after = Duration::from_millis(25);
        assert!(sup.scan(tick, stall_after).is_empty(), "not stale yet");
        assert!(sup.scan(tick, stall_after).is_empty(), "still under");
        let findings = sup.scan(tick, stall_after);
        assert_eq!(findings, vec![Finding::Stalled { worker: 1 }]);
        assert_eq!(sup.alive(), 0);
        done_tx.send(()).unwrap();
    }

    #[test]
    fn beating_workers_are_never_flagged() {
        let sup = Supervision::new();
        let slot = Arc::new(WorkerSlot::default());
        let worker_slot = Arc::clone(&slot);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let _ = done_rx.recv();
            worker_slot.mark_exited();
        });
        sup.register(0, Arc::clone(&slot), handle);
        for _ in 0..5 {
            slot.beat(); // heartbeats arrive between scans
            assert!(sup
                .scan(Duration::from_secs(1), Duration::from_millis(1))
                .is_empty());
        }
        assert_eq!(sup.alive(), 1);
        done_tx.send(()).unwrap();
        while sup
            .scan(Duration::from_millis(1), Duration::ZERO)
            .is_empty()
        {
            std::thread::yield_now();
        }
    }
}
