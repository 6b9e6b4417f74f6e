//! Concurrent multi-session front-end over the [`Engine`], and the
//! designer's [`Session`] for both write stacks.
//!
//! The paper's system was inherently multi-user: several designers
//! drive the coupled frameworks at once, each through their own JCF
//! desktop session. This module reproduces that shape as a
//! thread-safe service: one group-commit [`Lane`] (shared with every
//! shard of [`ShardedService`]) plus per-session event fan-out and the
//! time-travel history ring.
//!
//! * **Reads are snapshot reads.** The lane keeps a published
//!   [`Snapshot`] (an immutable view over the OMS database and the
//!   coupling state); `browse`, `read_design_data` and arbitrary
//!   queries run against it with `&self`, in parallel, with zero byte
//!   copies — concurrent readers share [`cad_vfs::Blob`] handles.
//! * **Writes are group-committed.** All mutations funnel into the
//!   lane's batched queue. The first writer to arrive leads: it
//!   applies every queued op in one engine critical section, offers
//!   each committed seq to the history ring, republishes the snapshot
//!   once per batch and fans the batch's events out to every
//!   session's subscription queue before any submitter wakes.
//!   Followers just park on their slot.
//!
//! The effect is the classic group-commit trade: writers pay one lock
//! handoff per *batch* instead of per op, and readers never wait on
//! writers at all (at worst they read the previous snapshot).
//!
//! # Sessions
//!
//! [`Session`] is written once for both write stacks: `Session`
//! (= `Session<Service>`) over a single engine and
//! [`ShardedSession`](crate::ShardedSession)
//! (= `Session<ShardedService>`) over the partitioned one. Both carry
//! the same typed desktop wrappers with the same return shapes, the
//! same cached zero-copy `browse`/`read_design_data` (revalidated
//! against the service's published seq or view version), the same
//! time travel ([`Session::at`]) and branch workspaces
//! ([`Session::reserve_at`]). Only a `Service` session subscribes to
//! the event stream ([`Session::events`]).
//!
//! # Examples
//!
//! ```
//! use hybrid::{Engine, Service};
//!
//! # fn main() -> Result<(), hybrid::HybridError> {
//! let service = Service::new(Engine::builder().build());
//! let mut admin = service.open_session(service.admin());
//! let alice_id = admin.add_user("alice", false)?;
//! let alice = service.open_session(alice_id);
//! // Reads run against the published snapshot, in parallel, &self:
//! assert_eq!(alice.snapshot().seq(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use cad_vfs::Blob;
use jcf::{
    ActivityId, CellId, CellVersionId, DesignObjectId, DovId, FlowId, ProjectId, TeamId, UserId,
    VariantId,
};

use crate::encapsulation::ToolOutput;
use crate::engine::Engine;
use crate::error::{HybridError, HybridResult};
use crate::events::Event;
use crate::framework::StandardFlow;
use crate::history::{HistoryRing, HistoryView, RetentionPolicy, Workspace};
use crate::lane::{lock, Lane, Outcome};
use crate::ops::Op;
use crate::shard::{ShardView, ShardedService};
use crate::snapshot::Snapshot;

/// A session's private queue of committed `(seq, event)` pairs. The
/// service holds one handle per subscriber and the session the other;
/// a queue whose session has dropped is pruned at the next fan-out.
type EventQueue = Arc<Mutex<VecDeque<(u64, Event)>>>;

/// A point-in-time copy of a write lane's concurrency counters.
///
/// Returned by [`Service::stats`] for the service's one lane; the E12
/// benchmark reports these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Ops committed through the write queue.
    pub ops: u64,
    /// Engine critical sections (group commits).
    pub batches: u64,
    /// Largest single group commit, in ops.
    pub max_batch: u64,
    /// Writers that parked as followers instead of leading a batch.
    pub writer_waits: u64,
    /// Snapshot reads that found the publish lock briefly held.
    pub reader_waits: u64,
    /// Ops enqueued but not yet taken by a leader at sample time (the
    /// write-queue depth the network front-end's BUSY threshold reads).
    pub queue_depth: u64,
    /// Deepest the pending queue has ever been.
    pub max_queue_depth: u64,
}

struct Inner {
    lane: Lane<Op>,
    /// Per-session event queues.
    subscribers: Mutex<Vec<EventQueue>>,
    /// The time-travel retention ring: recently published snapshots by
    /// commit seq, plus pins (§15). Only writers touch it (once per
    /// committed op); history reads clone an `Arc` out and leave.
    history: Mutex<HistoryRing<Arc<Snapshot>>>,
    admin: UserId,
}

/// Thread-safe multi-session service over one [`Engine`].
///
/// Cloning is cheap (an [`Arc`] bump); clones share the engine, the
/// write queue and the published snapshot. Open one [`Session`] per
/// user with [`Service::open_session`].
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Wraps an engine (typically from [`Engine::builder`]) into a
    /// service and publishes the initial snapshot. History is retained
    /// under the default [`RetentionPolicy`]; use
    /// [`Service::with_retention`] to pick another.
    pub fn new(engine: Engine) -> Service {
        Service::with_retention(engine, RetentionPolicy::default())
    }

    /// Like [`Service::new`] with an explicit history retention policy.
    pub fn with_retention(engine: Engine, policy: RetentionPolicy) -> Service {
        let admin = engine.admin();
        let mut history = HistoryRing::new(policy);
        history.observe(engine.seq(), engine.snapshot());
        Service {
            inner: Arc::new(Inner {
                lane: Lane::new(engine),
                subscribers: Mutex::new(Vec::new()),
                history: Mutex::new(history),
                admin,
            }),
        }
    }

    /// The built-in framework administrator.
    pub fn admin(&self) -> UserId {
        self.inner.admin
    }

    /// Opens a session acting as `user`. The session subscribes to the
    /// engine's event stream from this point on.
    pub fn open_session(&self, user: UserId) -> Session {
        Session::open(self.clone(), user)
    }

    /// The currently published [`Snapshot`]. Never blocks on writers:
    /// if a leader is just republishing, the previous snapshot is
    /// returned (and the brush with the lock is counted as a
    /// `reader_wait`).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.inner.lane.snapshot()
    }

    /// A copy of the service's concurrency counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.lane.stats()
    }

    /// The current write-queue depth: ops enqueued but not yet taken
    /// by a batch leader. One relaxed atomic load — cheap enough for a
    /// per-request saturation check (the network front-end's BUSY
    /// threshold).
    pub fn queue_depth(&self) -> u64 {
        self.inner.lane.queue_depth()
    }

    /// Runs a closure against the engine under the write lock, outside
    /// the batching queue. For maintenance paths (checkpointing, fault
    /// arming) that need the whole engine, not one op.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let lane = &self.inner.lane;
        let mut engine = lane.engine();
        let out = f(&mut engine);
        lock(&self.inner.history).observe(engine.seq(), engine.snapshot());
        lane.publish(&engine);
        out
    }

    /// Submits one op through the batched write queue and blocks until
    /// its batch commits. Returns the engine sequence number the op
    /// committed at together with its event — the form the network
    /// front-end ships back over the wire. (In-process callers usually
    /// go through the typed [`Session`] wrappers instead.)
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    pub fn submit(&self, op: Op) -> HybridResult<(u64, Event)> {
        let lane = &self.inner.lane;
        lane.submit(
            op,
            |engine, op| {
                let result = engine.apply(op);
                let seq = engine.seq();
                // Offer every committed seq to the retention ring —
                // O(1) per op (the snapshot cache hands back one Arc
                // per seq) and entirely off the read path.
                lock(&self.inner.history).observe(seq, engine.snapshot());
                result.map(|event| (seq, event))
            },
            |outcomes| self.fan_out(outcomes),
        )
    }

    /// Delivers a batch's committed events to every open session's
    /// queue (including the submitter's own); failed ops fan out
    /// nothing.
    fn fan_out(&self, outcomes: &[Outcome]) {
        let mut subscribers = lock(&self.inner.subscribers);
        subscribers.retain(|queue| Arc::strong_count(queue) > 1);
        for queue in subscribers.iter() {
            let mut queue = lock(queue);
            for (seq, event) in outcomes.iter().flatten() {
                queue.push_back((*seq, event.clone()));
            }
        }
    }

    // --- the time-travel surface (§15) ------------------------------------

    /// The snapshot retained at exactly commit seq `seq`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`] (naming the closest
    /// retained boundary) when `seq` was never retained or has been
    /// evicted.
    pub fn at(&self, seq: u64) -> HybridResult<Arc<Snapshot>> {
        lock(&self.inner.history).at(seq)
    }

    /// Pins a retained seq so it survives ring eviction until
    /// [`Service::unpin`].
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`] for unretained seqs.
    pub fn pin(&self, seq: u64) -> HybridResult<()> {
        lock(&self.inner.history).pin(seq)
    }

    /// Drops a pin; returns whether one existed.
    pub fn unpin(&self, seq: u64) -> bool {
        lock(&self.inner.history).unpin(seq)
    }

    /// Every currently retained seq (ring and pins), sorted ascending.
    pub fn retained_seqs(&self) -> Vec<u64> {
        lock(&self.inner.history).retained()
    }
}

// --- the session layer, shared by both write stacks -----------------------

/// What a [`Session`] needs from the write stack behind it. Implemented
/// by [`Service`] and [`ShardedService`] only: the trait is public so
/// it can bound the public session types, but it lives in a private
/// module, so it cannot be named or implemented outside this crate.
pub trait WriteStack: Clone + Send + Sync + 'static {
    /// The stack's read view.
    type View: ReadView + std::fmt::Debug;
    /// What an open session holds on the stack.
    type Subscription: std::fmt::Debug + Send + Sync;

    /// Registers a new session.
    fn subscribe(&self) -> Self::Subscription;
    /// Submits one op and blocks until it commits.
    fn submit(&self, op: Op) -> HybridResult<(u64, Event)>;
    /// The live view.
    fn view(&self) -> Arc<Self::View>;
    /// Whether `view` is still the live view: one atomic load of the
    /// freshness key (the published seq of a [`Service`], the view
    /// version of a [`ShardedService`]).
    fn is_live(&self, view: &Self::View) -> bool;
    /// The view retained at exactly commit seq `seq`.
    fn at(&self, seq: u64) -> HybridResult<Arc<Self::View>>;
}

/// The read surface a [`Session`] and a [`HistoryView`] share across
/// both write stacks' views ([`Snapshot`] and [`ShardView`]). Sealed
/// like [`WriteStack`].
pub trait ReadView: Send + Sync + 'static {
    /// Browses a design object version (zero-copy).
    fn browse(&self, user: UserId, dov: DovId) -> HybridResult<Blob>;
    /// Reads design data via the desktop (zero-copy).
    fn read_design_data(&self, user: UserId, dov: DovId) -> HybridResult<Blob>;
    /// Per design object under `cv`, its version count, sorted by
    /// object — the optimistic-merge baseline of a [`Workspace`].
    fn design_object_versions(&self, cv: CellVersionId)
        -> HybridResult<Vec<(DesignObjectId, u32)>>;
}

impl WriteStack for Service {
    type View = Snapshot;
    type Subscription = EventQueue;

    fn subscribe(&self) -> EventQueue {
        let events = EventQueue::default();
        lock(&self.inner.subscribers).push(Arc::clone(&events));
        events
    }

    fn submit(&self, op: Op) -> HybridResult<(u64, Event)> {
        Service::submit(self, op)
    }

    fn view(&self) -> Arc<Snapshot> {
        self.snapshot()
    }

    fn is_live(&self, view: &Snapshot) -> bool {
        view.seq() == self.inner.lane.published_seq()
    }

    fn at(&self, seq: u64) -> HybridResult<Arc<Snapshot>> {
        Service::at(self, seq)
    }
}

/// One user's handle on a write stack: typed write wrappers that
/// group-commit through the shared queue, snapshot reads that never
/// block on writers, time travel and branch workspaces.
///
/// `Session` (= `Session<Service>`) runs over a single engine and also
/// receives the committed event stream until it drops.
/// [`ShardedSession`](crate::ShardedSession)
/// (= `Session<ShardedService>`) runs over the partitioned service,
/// where every id it takes or returns is in *virtual* form.
#[derive(Debug)]
pub struct Session<S: WriteStack = Service> {
    service: S,
    user: UserId,
    subscription: S::Subscription,
    /// The session's cached view, revalidated against the service on
    /// every read. A session is driven by one thread, so this mutex is
    /// effectively uncontended — reads of an unchanged view never
    /// touch shared service locks.
    cache: Mutex<Option<Arc<S::View>>>,
}

impl Session<Service> {
    /// The currently published [`Snapshot`] — the session's read view.
    /// Cached per session: only the first read after a write batch
    /// pays the (brief) shared snapshot lock.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.with_view(Arc::clone)
    }

    /// Drains the events committed since the last call (each with the
    /// engine sequence number it committed at).
    pub fn events(&self) -> Vec<(u64, Event)> {
        lock(&self.subscription).drain(..).collect()
    }
}

impl Session<ShardedService> {
    /// The current composed cross-shard read view (cached per session
    /// like [`Session::snapshot`]).
    pub fn view(&self) -> Arc<ShardView> {
        self.with_view(Arc::clone)
    }
}

impl<S: WriteStack> Session<S> {
    pub(crate) fn open(service: S, user: UserId) -> Session<S> {
        Session {
            subscription: service.subscribe(),
            service,
            user,
            cache: Mutex::new(None),
        }
    }

    /// The user this session acts as.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The owning service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Runs a closure against the session's cached view, revalidated
    /// first — the zero-shared-traffic read path.
    fn with_view<R>(&self, f: impl FnOnce(&Arc<S::View>) -> R) -> R {
        let mut cache = lock(&self.cache);
        if cache.as_ref().is_none_or(|v| !self.service.is_live(v)) {
            *cache = Some(self.service.view());
        }
        f(cache.as_ref().expect("revalidation filled the cache"))
    }

    /// Submits one raw op through the write queue and blocks until its
    /// batch commits.
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    pub fn apply(&self, op: Op) -> HybridResult<Event> {
        self.apply_seq(op).map(|(_, event)| event)
    }

    /// Like [`Session::apply`], also returning the sequence number the
    /// op committed at — the handle read-your-writes time travel
    /// needs: `let (seq, _) = s.apply_seq(op)?; s.at(seq)?` sees
    /// exactly that write (given it was retained).
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    pub fn apply_seq(&self, op: Op) -> HybridResult<(u64, Event)> {
        self.service.submit(op)
    }

    /// This session's reads against the view retained at commit seq
    /// `seq` — time travel. The returned [`HistoryView`] answers every
    /// zero-copy read of the live session at that fixed seq, `&self`,
    /// without ever touching the write path.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`] when `seq` is not
    /// retained (see [`Service::at`]).
    pub fn at(&self, seq: u64) -> HybridResult<HistoryView<S::View>> {
        Ok(HistoryView::new(self.user, seq, self.service.at(seq)?))
    }

    /// Opens a branch [`Workspace`] on `cv` against the view retained
    /// at `seq`. Unlike [`Session::reserve`], this takes no lock on
    /// the head — the reservation happens atomically inside
    /// [`Workspace::merge_forward`], and concurrent edits surface
    /// there as typed [`Event::MergeConflict`] outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`] when `seq` is not
    /// retained, and [`HybridError::ShardRouting`] on a sharded
    /// service when `cv` was unknown at `seq`.
    pub fn reserve_at(&self, cv: CellVersionId, seq: u64) -> HybridResult<Workspace<S>> {
        let base = self.service.at(seq)?;
        Workspace::open(self.service.clone(), self.user, cv, seq, &base)
    }

    /// Reads design data from the session's view: zero-copy, in
    /// parallel with other readers, never blocking on writers, never
    /// journaled.
    ///
    /// # Errors
    ///
    /// Returns desktop visibility errors (and, on a sharded service,
    /// [`HybridError::ShardRouting`] for unknown ids).
    pub fn read_design_data(&self, dov: DovId) -> HybridResult<Blob> {
        self.with_view(|view| view.read_design_data(self.user, dov))
    }

    /// Browses design data from the session's view (same zero-copy
    /// path as [`Session::read_design_data`]).
    ///
    /// # Errors
    ///
    /// Returns desktop visibility errors (and, on a sharded service,
    /// [`HybridError::ShardRouting`] for unknown ids).
    pub fn browse(&self, dov: DovId) -> HybridResult<Blob> {
        self.with_view(|view| view.browse(self.user, dov))
    }

    // --- typed write wrappers (the session-side desktop) -----------------

    /// Applies `op` and returns only its commit seq.
    fn commit(&self, op: Op) -> HybridResult<u64> {
        self.apply_seq(op).map(|(seq, _)| seq)
    }

    /// Adds a user (broadcast on a sharded service; sessions are not
    /// permission-checked, the acting user travels in the op where the
    /// desktop requires one).
    ///
    /// # Errors
    ///
    /// Returns desktop errors (e.g. a taken name).
    pub fn add_user(&self, name: &str, manager: bool) -> HybridResult<UserId> {
        let name = name.to_owned();
        match self.apply(Op::AddUser { name, manager })? {
            Event::UserAdded(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Adds a team owned by this session's user.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    pub fn add_team(&self, name: &str) -> HybridResult<TeamId> {
        let (actor, name) = (self.user, name.to_owned());
        match self.apply(Op::AddTeam { actor, name })? {
            Event::TeamAdded(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Adds a member to a team.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    pub fn add_team_member(&self, team: TeamId, user: UserId) -> HybridResult<()> {
        let actor = self.user;
        self.commit(Op::AddTeamMember { actor, team, user })?;
        Ok(())
    }

    /// Defines and freezes the paper's standard three-tool flow.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    pub fn standard_flow(&self, name: &str) -> HybridResult<StandardFlow> {
        let name = name.to_owned();
        match self.apply(Op::DefineStandardFlow { name })? {
            Event::StandardFlowDefined(flow) => Ok(flow),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a project with its coupled FMCAD library — on a sharded
    /// service, the op that *places* a partition on its owning shard
    /// ([`shard_of_name`](crate::shard_of_name)).
    ///
    /// # Errors
    ///
    /// Returns name-clash errors from either framework.
    pub fn create_project(&self, name: &str) -> HybridResult<ProjectId> {
        let name = name.to_owned();
        match self.apply(Op::CreateProject { name })? {
            Event::ProjectCreated(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a cell under a project.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    pub fn create_cell(&self, project: ProjectId, name: &str) -> HybridResult<CellId> {
        let name = name.to_owned();
        match self.apply(Op::CreateCell { project, name })? {
            Event::CellCreated(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a cell version (and its mapped FMCAD cell) with its
    /// initial variant.
    ///
    /// # Errors
    ///
    /// Returns errors from either framework.
    pub fn create_cell_version(
        &self,
        cell: CellId,
        flow: FlowId,
        team: TeamId,
    ) -> HybridResult<(CellVersionId, VariantId)> {
        match self.apply(Op::CreateCellVersion { cell, flow, team })? {
            Event::CellVersionCreated(cv, variant) => Ok((cv, variant)),
            other => Err(unexpected(&other)),
        }
    }

    /// Derives a named variant of a reserved cell version.
    ///
    /// # Errors
    ///
    /// Returns reservation and naming errors.
    pub fn derive_variant(
        &self,
        cv: CellVersionId,
        name: &str,
        base: Option<VariantId>,
    ) -> HybridResult<VariantId> {
        let (user, name) = (self.user, name.to_owned());
        match self.apply(Op::DeriveVariant {
            user,
            cv,
            name,
            base,
        })? {
            Event::VariantDerived(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Reserves a cell version for this session's user; returns the
    /// commit seq.
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    pub fn reserve(&self, cv: CellVersionId) -> HybridResult<u64> {
        self.commit(Op::Reserve {
            user: self.user,
            cv,
        })
    }

    /// Publishes a reserved cell version's design data; returns the
    /// commit seq.
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    pub fn publish(&self, cv: CellVersionId) -> HybridResult<u64> {
        self.commit(Op::Publish {
            user: self.user,
            cv,
        })
    }

    /// Declares a hierarchy child of a cell version; returns the
    /// commit seq. On a sharded service, a child cell in a different
    /// partition makes this a cross-shard two-phase commit.
    ///
    /// # Errors
    ///
    /// Returns reservation and hierarchy errors.
    pub fn declare_comp_of(&self, cv: CellVersionId, child: CellId) -> HybridResult<u64> {
        let user = self.user;
        self.commit(Op::DeclareCompOf { user, cv, child })
    }

    /// Marks two design object versions equivalent; returns the commit
    /// seq (cross-shard when they live in different partitions).
    ///
    /// # Errors
    ///
    /// Returns desktop errors for unknown versions.
    pub fn mark_equivalent(&self, a: DovId, b: DovId) -> HybridResult<u64> {
        self.commit(Op::MarkEquivalent { a, b })
    }

    /// Runs an encapsulated activity with pre-recorded tool outputs
    /// (the replayable form of
    /// [`Engine::run_activity`](crate::Engine::run_activity));
    /// `session_error` replays a tool session that failed.
    ///
    /// # Errors
    ///
    /// Returns flow, reservation and consistency errors.
    pub fn run_activity(
        &self,
        variant: VariantId,
        activity: ActivityId,
        override_pending: bool,
        outputs: Vec<ToolOutput>,
        session_error: Option<String>,
    ) -> HybridResult<Vec<DovId>> {
        match self.apply(Op::RunActivity {
            user: self.user,
            variant,
            activity,
            override_pending,
            outputs: outputs.into_iter().map(|o| (o.viewtype, o.data)).collect(),
            session_error,
        })? {
            Event::ActivityRun { dovs } => Ok(dovs),
            other => Err(unexpected(&other)),
        }
    }
}

/// The typed error for a committed op whose event does not match its
/// kind.
fn unexpected(event: &Event) -> HybridError {
    HybridError::Journal(format!(
        "engine returned unexpected event {}",
        event.kind_name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_and_session_are_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<Service>();
        assert_both::<Session>();
        assert_both::<Arc<Snapshot>>();
    }

    #[test]
    fn writes_commit_and_events_fan_out_to_all_sessions() {
        let service = Service::new(Engine::builder().build());
        let admin = service.open_session(service.admin());
        let observer = service.open_session(service.admin());
        let alice = admin.add_user("alice", false).unwrap();
        let _ = alice;
        let seen: Vec<_> = observer.events();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 1);
        assert_eq!(seen[0].1.kind_name(), "user-added");
        // The submitter sees its own event too.
        assert_eq!(admin.events().len(), 1);
    }

    #[test]
    fn snapshot_republishes_once_per_batch() {
        let service = Service::new(Engine::builder().build());
        let session = service.open_session(service.admin());
        assert_eq!(session.snapshot().seq(), 0);
        session.create_project("p").unwrap();
        assert_eq!(session.snapshot().seq(), 1);
        let stats = service.stats();
        assert_eq!(stats.ops, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch, 1);
    }

    #[test]
    fn failed_ops_return_their_error_to_the_submitter() {
        let service = Service::new(Engine::builder().build());
        let session = service.open_session(service.admin());
        session.create_project("p").unwrap();
        let err = session.create_project("p").unwrap_err();
        assert_eq!(err.kind(), "jcf");
        // Failures are journaled (engine semantics) but not fanned out.
        assert_eq!(
            session.events().len(),
            1,
            "only the successful op produced an event"
        );
    }

    #[test]
    fn dropped_sessions_stop_receiving_events() {
        let service = Service::new(Engine::builder().build());
        let writer = service.open_session(service.admin());
        let ephemeral = service.open_session(service.admin());
        drop(ephemeral);
        writer.create_project("p").unwrap();
        assert_eq!(lock(&service.inner.subscribers).len(), 1);
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let service = Service::new(Engine::builder().build());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let service = service.clone();
                std::thread::spawn(move || {
                    let session = service.open_session(service.admin());
                    (0..16)
                        .map(|j| session.create_project(&format!("p-{i}-{j}")).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut projects = Vec::new();
        for t in threads {
            projects.extend(t.join().unwrap());
        }
        let stats = service.stats();
        assert_eq!(stats.ops, 128);
        assert!(stats.batches <= 128);
        let snap = service.snapshot();
        assert_eq!(snap.seq(), 128);
        // Every project committed exactly once, visible in the view.
        projects.sort();
        projects.dedup();
        assert_eq!(projects.len(), 128);
        for project in projects {
            assert!(snap.library_of(project).is_ok());
        }
    }

    #[test]
    fn queue_depth_counters_track_the_write_queue() {
        let service = Service::new(Engine::builder().build());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let service = service.clone();
                std::thread::spawn(move || {
                    let session = service.open_session(service.admin());
                    for j in 0..16 {
                        session.create_project(&format!("q-{i}-{j}")).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = service.stats();
        assert!(stats.max_queue_depth >= 1, "at least one op was queued");
        assert!(stats.max_queue_depth <= 128);
        assert_eq!(service.queue_depth(), 0, "all ops committed, gauge drained");
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn raw_submit_returns_the_commit_sequence() {
        let service = Service::new(Engine::builder().build());
        let (seq, event) = service
            .submit(Op::CreateProject { name: "p".into() })
            .unwrap();
        assert_eq!(seq, 1);
        assert_eq!(event.kind_name(), "project-created");
        assert_eq!(service.snapshot().seq(), 1);
    }

    #[test]
    fn concurrent_readers_share_payloads_with_zero_copies() {
        let service = Service::new(Engine::builder().build());
        let admin = service.open_session(service.admin());
        let alice = admin.add_user("alice", false).unwrap();
        let team = admin.add_team("asic").unwrap();
        admin.add_team_member(team, alice).unwrap();
        let flow = admin.standard_flow("std").unwrap();
        let project = admin.create_project("alu").unwrap();
        let cell = admin.create_cell(project, "adder").unwrap();
        let (cv, variant) = admin.create_cell_version(cell, flow.flow, team).unwrap();
        let alice_session = service.open_session(alice);
        alice_session.reserve(cv).unwrap();
        let dovs = alice_session
            .run_activity(
                variant,
                flow.enter_schematic,
                false,
                vec![crate::ToolOutput {
                    viewtype: "schematic".into(),
                    data: b"netlist adder\nport a input\n".to_vec().into(),
                }],
                None,
            )
            .unwrap();
        let dov = dovs[0];
        let reference = alice_session.read_design_data(dov).unwrap();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let service = service.clone();
                let reference = reference.clone();
                std::thread::spawn(move || {
                    let session = service.open_session(alice);
                    let before = Blob::materializations();
                    for _ in 0..32 {
                        let data = session.read_design_data(dov).unwrap();
                        assert!(Blob::ptr_eq(&data, &reference));
                    }
                    assert_eq!(Blob::materializations(), before);
                })
            })
            .collect();
        for t in readers {
            t.join().unwrap();
        }
    }

    #[test]
    fn with_engine_republishes_the_snapshot() {
        let service = Service::new(Engine::builder().build());
        let session = service.open_session(service.admin());
        service.with_engine(|engine| {
            engine.create_project("direct").unwrap();
        });
        assert_eq!(session.snapshot().seq(), 1);
    }
}
