//! The group-commit lane: one [`Engine`] behind a leader/follower
//! write queue, with its published [`Snapshot`] and its counters.
//!
//! Both write stacks are built from it. [`Service`](crate::Service) is
//! one lane plus event fan-out and a history ring;
//! [`ShardedService`](crate::ShardedService) is one lane per shard plus
//! the router. The commit rules therefore live here and nowhere else:
//!
//! * **Batch.** The first writer to arrive becomes the *leader*: it
//!   takes the engine lock and, until the queue is empty, swaps out
//!   everything queued and applies it as one batch. Writers arriving
//!   meanwhile enqueue and park on their result slot (*followers*).
//! * **Count.** Each batch is counted as it is taken off the queue
//!   (ops, batches, largest batch); the queue-depth gauge drops to zero
//!   under the same queue lock.
//! * **Publish before waking.** After a batch the lane replaces its
//!   published snapshot and runs the owner's `published` hook; only
//!   then does any submitter wake, so every writer sees its own commit
//!   in the next snapshot it reads (read-your-writes).
//!
//! What a job *does* is the owner's business: the lane hands each job
//! to the owner's `apply` closure together with the locked engine.
//! Owners charge engine time to the lane through [`Lane::apply`], which
//! keeps router or bookkeeping time out of the busy counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

use crate::engine::Engine;
use crate::error::HybridResult;
use crate::events::Event;
use crate::ops::Op;
use crate::service::ServiceStats;
use crate::snapshot::Snapshot;

/// What a submitter gets back: the commit sequence and event, or the
/// op's error.
pub(crate) type Outcome = HybridResult<(u64, Event)>;

/// Lock a mutex, riding through poisoning: a writer that panicked
/// mid-batch must not take the whole service down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted job waiting for its batch to commit.
struct Slot {
    result: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, result: Outcome) {
        *lock(&self.result) = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self) -> Outcome {
        let mut guard = lock(&self.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The batched apply queue. `draining` marks that a leader is inside
/// the engine critical section; writers that arrive meanwhile enqueue
/// and either park or take over once the leader hands the engine back.
struct Queue<J> {
    pending: Vec<(J, Arc<Slot>)>,
    draining: bool,
}

/// Running counters of one lane; all cheap relaxed atomics.
#[derive(Debug, Default)]
struct Counters {
    /// Jobs committed through the queue.
    ops: AtomicU64,
    /// Engine critical sections (group commits).
    batches: AtomicU64,
    /// Largest single batch.
    max_batch: AtomicU64,
    /// Writers that parked as followers instead of leading.
    writer_waits: AtomicU64,
    /// Snapshot reads that found the publish lock briefly held.
    reader_waits: AtomicU64,
    /// Jobs enqueued but not yet taken by a leader (gauge).
    queue_depth: AtomicU64,
    /// Deepest the queue has ever been.
    max_queue_depth: AtomicU64,
    /// Nanoseconds spent in [`Lane::apply`] (lock wait excluded).
    busy_ns: AtomicU64,
}

/// One write lane over one engine; `J` is the owner's job type.
pub(crate) struct Lane<J> {
    engine: Mutex<Engine>,
    queue: Mutex<Queue<J>>,
    /// The published read view; replaced (not mutated) once per batch.
    snapshot: Mutex<Arc<Snapshot>>,
    /// Sequence number of the published snapshot, for cheap staleness
    /// checks without taking the snapshot lock.
    published_seq: AtomicU64,
    counters: Counters,
}

impl<J> Lane<J> {
    /// A lane over `engine`, publishing its current state.
    pub(crate) fn new(engine: Engine) -> Lane<J> {
        Lane {
            snapshot: Mutex::new(engine.snapshot()),
            published_seq: AtomicU64::new(engine.seq()),
            engine: Mutex::new(engine),
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                draining: false,
            }),
            counters: Counters::default(),
        }
    }

    /// The engine under its write lock, outside the queue (maintenance
    /// paths, and the sharded broadcast leader's other lanes).
    pub(crate) fn engine(&self) -> MutexGuard<'_, Engine> {
        lock(&self.engine)
    }

    /// The published snapshot. Never waits on a batch: a brush with
    /// the publish lock is counted as a reader wait.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        match self.snapshot.try_lock() {
            Ok(guard) => Arc::clone(&guard),
            Err(TryLockError::WouldBlock) => {
                self.counters.reader_waits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&lock(&self.snapshot))
            }
            Err(TryLockError::Poisoned(p)) => Arc::clone(&p.into_inner()),
        }
    }

    /// The sequence number of the published snapshot.
    pub(crate) fn published_seq(&self) -> u64 {
        self.published_seq.load(Ordering::Acquire)
    }

    /// Replaces the published snapshot with `engine`'s current state.
    pub(crate) fn publish(&self, engine: &Engine) {
        *lock(&self.snapshot) = engine.snapshot();
        self.published_seq.store(engine.seq(), Ordering::Release);
    }

    /// Applies `op` on `engine` (this lane's, locked by the caller),
    /// charging the time to the lane's busy counter.
    pub(crate) fn apply(&self, engine: &mut Engine, op: Op) -> HybridResult<Event> {
        let start = Instant::now();
        let result = engine.apply(op);
        self.counters
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Jobs queued and not yet taken by a leader: one atomic load.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.counters.queue_depth.load(Ordering::Relaxed)
    }

    /// A copy of the lane's queue and snapshot counters (the busy
    /// time is read separately, by [`Lane::busy_ns`]).
    pub(crate) fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            ops: c.ops.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            max_batch: c.max_batch.load(Ordering::Relaxed),
            writer_waits: c.writer_waits.load(Ordering::Relaxed),
            reader_waits: c.reader_waits.load(Ordering::Relaxed),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Nanoseconds spent in [`Lane::apply`].
    pub(crate) fn busy_ns(&self) -> u64 {
        self.counters.busy_ns.load(Ordering::Relaxed)
    }

    /// Submits one job and blocks until its batch commits.
    ///
    /// If no leader is draining, this caller leads: `apply` runs once
    /// per queued job with the locked engine, then the lane publishes
    /// and calls `published` with the batch's outcomes, then the batch
    /// wakes. Followers' closures are never called.
    pub(crate) fn submit(
        &self,
        job: J,
        mut apply: impl FnMut(&mut Engine, J) -> Outcome,
        mut published: impl FnMut(&[Outcome]),
    ) -> Outcome {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let lead = {
            let mut queue = lock(&self.queue);
            queue.pending.push((job, Arc::clone(&slot)));
            let depth = queue.pending.len() as u64;
            self.counters.queue_depth.store(depth, Ordering::Relaxed);
            self.counters
                .max_queue_depth
                .fetch_max(depth, Ordering::Relaxed);
            if queue.draining {
                // A leader is inside the engine; it (or the next
                // leader) picks this job up.
                self.counters.writer_waits.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                queue.draining = true;
                true
            }
        };
        if lead {
            let mut engine = lock(&self.engine);
            while let Some(batch) = self.take_batch() {
                let mut slots = Vec::with_capacity(batch.len());
                let mut outcomes = Vec::with_capacity(batch.len());
                for (job, slot) in batch {
                    outcomes.push(apply(&mut engine, job));
                    slots.push(slot);
                }
                self.publish(&engine);
                published(&outcomes);
                for (slot, outcome) in slots.into_iter().zip(outcomes) {
                    slot.fill(outcome);
                }
            }
        }
        slot.wait()
    }

    /// Swaps out the pending queue and counts it as one batch; `None`
    /// (handing leadership back) once nothing is queued.
    fn take_batch(&self) -> Option<Vec<(J, Arc<Slot>)>> {
        let mut queue = lock(&self.queue);
        if queue.pending.is_empty() {
            queue.draining = false;
            return None;
        }
        let batch = std::mem::take(&mut queue.pending);
        let c = &self.counters;
        let size = batch.len() as u64;
        c.queue_depth.store(0, Ordering::Relaxed);
        c.batches.fetch_add(1, Ordering::Relaxed);
        c.ops.fetch_add(size, Ordering::Relaxed);
        c.max_batch.fetch_max(size, Ordering::Relaxed);
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREADS: usize = 8;
    const SUBMITS: usize = 64;

    /// K threads × M submits through one lane under contention: each
    /// submitter gets its own answer exactly once, and the counters
    /// add up.
    #[test]
    fn lane_group_commits_under_contention() {
        let lane: Arc<Lane<u64>> = Arc::new(Lane::new(Engine::builder().build()));
        let batch_sizes = Arc::new(Mutex::new(Vec::new()));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let lane = Arc::clone(&lane);
                let batch_sizes = Arc::clone(&batch_sizes);
                std::thread::spawn(move || {
                    let mut answers = Vec::with_capacity(SUBMITS);
                    for i in 0..SUBMITS {
                        let token = (t * SUBMITS + i) as u64;
                        let (answer, _) = lane
                            .submit(
                                token,
                                |_, job| {
                                    std::thread::yield_now();
                                    Ok((job, Event::StagingModeSet))
                                },
                                |outcomes| lock(&batch_sizes).push(outcomes.len() as u64),
                            )
                            .expect("jobs never fail");
                        assert_eq!(answer, token, "a submitter got another's result");
                        answers.push(answer);
                    }
                    answers
                })
            })
            .collect();
        let mut answers: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("submitter"))
            .collect();
        answers.sort_unstable();
        let k = THREADS as u64;
        assert_eq!(answers, (0..k * SUBMITS as u64).collect::<Vec<_>>());
        let stats = lane.stats();
        let sizes = lock(&batch_sizes);
        assert_eq!(stats.ops, k * SUBMITS as u64);
        assert_eq!(sizes.iter().sum::<u64>(), stats.ops);
        assert_eq!(sizes.len() as u64, stats.batches);
        assert_eq!(sizes.iter().copied().max(), Some(stats.max_batch));
        assert!(stats.max_batch <= k, "max batch {}", stats.max_batch);
        assert!(stats.max_queue_depth <= k);
        assert_eq!(stats.queue_depth, 0, "gauge drained");
        assert_eq!(lane.queue_depth(), 0);
    }
}
