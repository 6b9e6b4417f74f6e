//! The time-travel layer: retained views, branch workspaces and
//! impact queries.
//!
//! PR 5 made snapshots O(1) to retain and the durability layer made
//! any persisted seq recoverable; this module spends that substrate on
//! the version-control features a 1995-era coupling could not offer.
//! Each feature is written once and serves both write stacks — the
//! single-engine [`Service`](crate::Service) (views are
//! [`Snapshot`]s) and the [`ShardedService`](crate::ShardedService)
//! (views are composed [`ShardView`](crate::ShardView)s):
//!
//! * **Retention** — each service keeps a bounded ring of published
//!   views keyed by commit sequence number, governed by a pluggable
//!   [`RetentionPolicy`] plus explicit pins. Retaining a view is a
//!   handful of `Arc` bumps, so the write path never notices.
//! * **Time-travel reads** — [`Session::at`](crate::Session::at)
//!   returns a [`HistoryView`]: every zero-copy read of the live
//!   session (`browse`, `read_design_data`, the impact queries)
//!   answered against any retained seq, `&self`, without blocking
//!   writers; [`HistoryView::view`] opens the retained view itself for
//!   arbitrary queries.
//! * **Branch workspaces** —
//!   [`Session::reserve_at`](crate::Session::reserve_at) opens a
//!   [`Workspace`] against a historical view; staged writes merge
//!   forward into the current head as **one atomic op**, with
//!   concurrent edits surfaced as typed
//!   [`MergeConflict`](crate::Event::MergeConflict) events through the
//!   existing reserve/publish model.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use cad_vfs::Blob;
use jcf::{CellVersionId, DesignObjectId, DovId, ProjectId, UserId};

use crate::error::{HybridError, HybridResult};
use crate::events::Event;
use crate::framework::MirrorLocation;
use crate::ops::Op;
use crate::service::{ReadView, Service, WriteStack};
use crate::shard::ShardView;
use crate::snapshot::Snapshot;

/// Which published views the history ring keeps.
///
/// Retention is evaluated at publication time against the commit
/// sequence number; explicitly [pinned](crate::Service::pin) seqs are
/// kept regardless of policy until unpinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Keep the most recent `N` published seqs (at least one).
    LastN(usize),
    /// Keep every `stride`-th seq — the checkpoint-cadence policy:
    /// align `stride` with the durability layer's checkpoint interval
    /// and every retained view has a recoverable twin on disk — up to
    /// `cap` of them.
    EveryNth {
        /// Retain seqs divisible by this (at least 1).
        stride: u64,
        /// Keep at most this many matching seqs (at least one).
        cap: usize,
    },
}

impl Default for RetentionPolicy {
    /// The default keeps the last 64 commits.
    fn default() -> RetentionPolicy {
        RetentionPolicy::LastN(64)
    }
}

/// The bounded retention ring: recent views per [`RetentionPolicy`]
/// plus explicit pins, both keyed by commit seq — the one retention
/// surface behind `at`/`pin`/`unpin`/`retained_seqs` of [`Service`]
/// (`Arc<Snapshot>`) and [`ShardedService`](crate::ShardedService)
/// (`Arc<ShardView>`).
#[derive(Debug)]
pub(crate) struct HistoryRing<V> {
    policy: RetentionPolicy,
    ring: VecDeque<(u64, V)>,
    pinned: BTreeMap<u64, V>,
}

impl<V: Clone> HistoryRing<V> {
    pub(crate) fn new(policy: RetentionPolicy) -> HistoryRing<V> {
        HistoryRing {
            policy,
            ring: VecDeque::new(),
            pinned: BTreeMap::new(),
        }
    }

    /// Offers the view published at `seq` to the ring. Idempotent at
    /// an unchanged seq, so callers may offer defensively.
    pub(crate) fn observe(&mut self, seq: u64, view: V) {
        let cap = match self.policy {
            RetentionPolicy::LastN(n) => n,
            RetentionPolicy::EveryNth { stride, cap } if seq.is_multiple_of(stride.max(1)) => cap,
            RetentionPolicy::EveryNth { .. } => return,
        };
        if self.ring.back().is_some_and(|(s, _)| *s >= seq) {
            return;
        }
        self.ring.push_back((seq, view));
        while self.ring.len() > cap.max(1) {
            self.ring.pop_front();
        }
    }

    /// The view retained at exactly `seq`, or the typed miss naming
    /// the closest retained boundary.
    pub(crate) fn at(&self, seq: u64) -> HybridResult<V> {
        self.get(seq).ok_or_else(|| self.unreachable(seq))
    }

    /// The view retained at exactly `seq`, if any (pins win).
    fn get(&self, seq: u64) -> Option<V> {
        if let Some(view) = self.pinned.get(&seq) {
            return Some(view.clone());
        }
        self.ring
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, view)| view.clone())
    }

    /// Pins a currently retained seq so it survives ring eviction.
    pub(crate) fn pin(&mut self, seq: u64) -> HybridResult<()> {
        let view = self.at(seq)?;
        self.pinned.insert(seq, view);
        Ok(())
    }

    /// Drops a pin; returns whether one existed.
    pub(crate) fn unpin(&mut self, seq: u64) -> bool {
        self.pinned.remove(&seq).is_some()
    }

    /// Every retained seq (ring and pins), sorted ascending.
    pub(crate) fn retained(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.ring.iter().map(|(s, _)| *s).collect();
        out.extend(self.pinned.keys().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The typed miss for `seq`: closest retained boundary attached.
    fn unreachable(&self, seq: u64) -> HybridError {
        let reachable = self
            .retained()
            .into_iter()
            .min_by_key(|s| s.abs_diff(seq))
            .unwrap_or(0);
        HybridError::SeqUnreachable {
            requested: seq,
            reachable,
        }
    }
}

/// A session's read handle on one retained view: every zero-copy read
/// of the live [`Session`](crate::Session), answered at a fixed
/// historical seq. All methods are `&self` and never touch the write
/// path — a history read can not block (or be blocked by) writers.
///
/// `V` is the retaining service's view: a [`Snapshot`] for a
/// [`Service`] session, a composed [`ShardView`] for a
/// [`ShardedSession`](crate::ShardedSession). Created by
/// [`Session::at`](crate::Session::at).
#[derive(Debug)]
pub struct HistoryView<V = Snapshot> {
    user: UserId,
    seq: u64,
    view: Arc<V>,
}

impl<V> Clone for HistoryView<V> {
    fn clone(&self) -> HistoryView<V> {
        HistoryView {
            user: self.user,
            seq: self.seq,
            view: Arc::clone(&self.view),
        }
    }
}

impl<V: ReadView> HistoryView<V> {
    pub(crate) fn new(user: UserId, seq: u64, view: Arc<V>) -> HistoryView<V> {
        HistoryView { user, seq, view }
    }

    /// The commit seq this view is fixed at.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The user the owning session acts as.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The underlying retained view, for arbitrary queries.
    pub fn view(&self) -> &Arc<V> {
        &self.view
    }

    /// Reads a design object version's data as it stood at this seq —
    /// zero-copy, with the live desktop's visibility rule.
    ///
    /// # Errors
    ///
    /// Returns the same routing and visibility errors as the live path.
    pub fn read_design_data(&self, dov: DovId) -> HybridResult<Blob> {
        self.view.read_design_data(self.user, dov)
    }

    /// Browses a design object version at this seq (the same zero-copy
    /// path as [`HistoryView::read_design_data`]).
    ///
    /// # Errors
    ///
    /// Returns the same routing and visibility errors as the live path.
    pub fn browse(&self, dov: DovId) -> HybridResult<Blob> {
        self.view.browse(self.user, dov)
    }
}

impl HistoryView<Snapshot> {
    /// The FMCAD library mapped from a project at this seq.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::MappingMissing`] for uncoupled projects.
    pub fn library_of(&self, project: ProjectId) -> HybridResult<&str> {
        self.view.library_of(project)
    }

    /// Everything that goes stale if `cv` changes, evaluated on this
    /// seq's derivation/equivalence graph
    /// (see [`Snapshot::stale_dovs`]).
    pub fn stale_dovs(&self, cv: CellVersionId) -> Vec<DovId> {
        self.view.stale_dovs(cv)
    }

    /// The stale set narrowed to FMCAD-mirrored cellviews
    /// (see [`Snapshot::impacted_cellviews`]).
    pub fn impacted_cellviews(&self, cv: CellVersionId) -> Vec<(DovId, Arc<MirrorLocation>)> {
        self.view.impacted_cellviews(cv)
    }
}

impl HistoryView<ShardView> {
    /// Everything that goes stale if `cv` changes, evaluated on this
    /// seq's cross-shard graph (see [`ShardView::stale_dovs`]).
    ///
    /// # Errors
    ///
    /// [`HybridError::ShardRouting`] for ids the view does not know.
    pub fn stale_dovs(&self, cv: CellVersionId) -> HybridResult<Vec<DovId>> {
        self.view.stale_dovs(cv)
    }

    /// The stale set narrowed to FMCAD-mirrored cellviews
    /// (see [`ShardView::impacted_cellviews`]).
    ///
    /// # Errors
    ///
    /// [`HybridError::ShardRouting`] for ids the view does not know.
    pub fn impacted_cellviews(
        &self,
        cv: CellVersionId,
    ) -> HybridResult<Vec<(DovId, Arc<MirrorLocation>)>> {
        self.view.impacted_cellviews(cv)
    }
}

/// A branch workspace: opened against a *historical* view with
/// [`Session::reserve_at`](crate::Session::reserve_at), edited by
/// staging new design-object versions, and landed on the current head
/// with [`Workspace::merge_forward`] — one atomic
/// reserve → write → publish, with optimistic conflict detection
/// against the recorded branch point. `S` is the service the merge
/// commits through ([`Service`] or
/// [`ShardedService`](crate::ShardedService)); on a sharded service
/// the merge routes to `cv`'s owning shard like any other
/// single-partition op.
///
/// Unlike a live [`reserve`](crate::Session::reserve), opening a
/// workspace takes **no lock on the head**: other designers keep
/// publishing while the branch is edited. The price is optimism — if
/// the head moved under a staged object (or someone holds the
/// reservation at merge time), the merge comes back as a typed
/// [`MergeConflict`](crate::Event::MergeConflict) event and changes
/// nothing.
#[derive(Debug)]
pub struct Workspace<S = Service> {
    service: S,
    user: UserId,
    cv: CellVersionId,
    base_seq: u64,
    /// Per design object known at the branch point, its version count
    /// then — the optimistic-concurrency baseline.
    expected: Vec<(DesignObjectId, u32)>,
    staged: Vec<(DesignObjectId, Blob)>,
}

impl<S: WriteStack> Workspace<S> {
    pub(crate) fn open(
        service: S,
        user: UserId,
        cv: CellVersionId,
        base_seq: u64,
        base: &S::View,
    ) -> HybridResult<Workspace<S>> {
        Ok(Workspace {
            service,
            user,
            cv,
            base_seq,
            expected: base.design_object_versions(cv)?,
            staged: Vec::new(),
        })
    }

    /// The designer who opened the workspace.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The cell version this workspace branches.
    pub fn cv(&self) -> CellVersionId {
        self.cv
    }

    /// The retained commit seq the workspace branched from.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The design objects staged so far, in staging order.
    pub fn staged(&self) -> impl Iterator<Item = DesignObjectId> + '_ {
        self.staged.iter().map(|(d, _)| *d)
    }

    /// The design objects that existed under the branched cell version
    /// at the branch point, ascending by id — the stageable set.
    pub fn objects(&self) -> impl Iterator<Item = DesignObjectId> + '_ {
        self.expected.iter().map(|(d, _)| *d)
    }

    /// Stages one new version of `design_object` for the merge. The
    /// object must have existed under the branched cell version at the
    /// branch point; restaging the same object replaces the earlier
    /// staged data (a merge publishes one new version per object).
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Merge`] for objects the branch point
    /// never knew.
    pub fn stage(&mut self, design_object: DesignObjectId, data: Blob) -> HybridResult<()> {
        if !self.expected.iter().any(|(d, _)| *d == design_object) {
            return Err(HybridError::Merge(format!(
                "{design_object} did not exist under {} at seq {}",
                self.cv, self.base_seq
            )));
        }
        if let Some(slot) = self.staged.iter_mut().find(|(d, _)| *d == design_object) {
            slot.1 = data;
        } else {
            self.staged.push((design_object, data));
        }
        Ok(())
    }

    /// Merges the workspace into the current head as one atomic op and
    /// returns the commit seq with the outcome event:
    /// [`Event::MergeApplied`] when the head accepted every staged
    /// write, or [`Event::MergeConflict`] (with *no* state change) when
    /// the head moved underneath the branch. Both outcomes commit,
    /// journal and replay deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Merge`] for workspaces inconsistent with
    /// the head (e.g. a staged object that no longer exists) and
    /// desktop errors from the underlying reserve/publish.
    pub fn merge_forward(self) -> HybridResult<(u64, Event)> {
        let op = Op::MergeForward {
            user: self.user,
            cv: self.cv,
            base_seq: self.base_seq,
            expected: self.expected,
            writes: self.staged,
        };
        self.service.submit(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_n_keeps_a_sliding_window() {
        let mut ring: HistoryRing<u64> = HistoryRing::new(RetentionPolicy::LastN(3));
        for seq in 1..=5 {
            ring.observe(seq, seq * 10);
        }
        assert_eq!(ring.retained(), vec![3, 4, 5]);
        assert_eq!(ring.get(4), Some(40));
        assert_eq!(ring.get(1), None);
    }

    #[test]
    fn observe_is_idempotent_at_an_unchanged_seq() {
        let mut ring: HistoryRing<u64> = HistoryRing::new(RetentionPolicy::LastN(3));
        ring.observe(1, 10);
        ring.observe(1, 99);
        assert_eq!(ring.get(1), Some(10), "the first offer wins");
        assert_eq!(ring.retained(), vec![1]);
    }

    #[test]
    fn every_nth_skips_off_stride_seqs() {
        let mut ring: HistoryRing<u64> =
            HistoryRing::new(RetentionPolicy::EveryNth { stride: 3, cap: 2 });
        for seq in 1..=12 {
            ring.observe(seq, seq);
        }
        assert_eq!(ring.retained(), vec![9, 12], "stride 3, capped at 2");
    }

    #[test]
    fn pins_survive_ring_eviction() {
        let mut ring: HistoryRing<u64> = HistoryRing::new(RetentionPolicy::LastN(2));
        ring.observe(1, 10);
        ring.pin(1).unwrap();
        for seq in 2..=5 {
            ring.observe(seq, seq);
        }
        assert_eq!(ring.retained(), vec![1, 4, 5]);
        assert_eq!(ring.get(1), Some(10));
        assert!(ring.unpin(1));
        assert!(!ring.unpin(1), "second unpin is a no-op");
        assert_eq!(ring.get(1), None);
    }

    #[test]
    fn misses_name_the_closest_retained_boundary() {
        let mut ring: HistoryRing<u64> = HistoryRing::new(RetentionPolicy::LastN(2));
        ring.observe(7, 7);
        ring.observe(9, 9);
        match ring.unreachable(8) {
            HybridError::SeqUnreachable {
                requested,
                reachable,
            } => {
                assert_eq!(requested, 8);
                assert!(reachable == 7 || reachable == 9);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(ring.pin(42).is_err(), "pinning an unretained seq fails");
    }
}
