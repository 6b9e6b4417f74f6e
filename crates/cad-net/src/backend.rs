//! The engine-side surface the server runs against.
//!
//! The protocol front-end is backend-agnostic: anything that can
//! resolve desktop user names, execute ops and report its write-queue
//! pressure can sit behind it. The two production implementations are
//! the single-engine [`Service`] and the partitioned
//! [`ShardedService`] — the server code is identical for both.

use hybrid::{Event, HybridResult, ImpactAnswer, Op, Service, ShardedService};
use jcf::{CellVersionId, DovId, UserId};

/// An op-executing engine the server can front.
pub trait Backend: Send + Sync + 'static {
    /// The built-in framework administrator.
    fn admin_user(&self) -> UserId;

    /// Resolves a registered desktop user name.
    fn resolve_user(&self, name: &str) -> Option<UserId>;

    /// Executes one op through the write path, returning the commit
    /// sequence and typed event.
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    fn execute(&self, op: Op) -> HybridResult<(u64, Event)>;

    /// Ops currently queued behind the write path — the signal the
    /// server's `busy` threshold samples.
    fn queue_depth(&self) -> u64;

    /// The commit seqs the retention ring currently holds, ascending.
    fn retained_seqs(&self) -> Vec<u64>;

    /// Reads one design object version from the retained snapshot at
    /// `seq`, visibility-scoped to `user`'s desktop.
    ///
    /// # Errors
    ///
    /// `SeqUnreachable` if the ring does not retain `seq`, or
    /// whatever the read rejects with (unknown dov, visibility).
    fn history_read(&self, user: UserId, seq: u64, dov: DovId) -> HybridResult<Vec<u8>>;

    /// Evaluates the impact query on the retained snapshot at `seq`:
    /// the full stale derivation cone of `cv` plus the FMCAD-mirrored
    /// subset with mirror coordinates.
    ///
    /// # Errors
    ///
    /// `SeqUnreachable` if the ring does not retain `seq`, or an
    /// unresolvable `cv`.
    fn history_impact(&self, seq: u64, cv: CellVersionId) -> HybridResult<ImpactAnswer>;
}

impl Backend for Service {
    fn admin_user(&self) -> UserId {
        self.admin()
    }

    fn resolve_user(&self, name: &str) -> Option<UserId> {
        self.snapshot().jcf().user_by_name(name)
    }

    fn execute(&self, op: Op) -> HybridResult<(u64, Event)> {
        self.submit(op)
    }

    fn queue_depth(&self) -> u64 {
        self.queue_depth()
    }

    fn retained_seqs(&self) -> Vec<u64> {
        self.retained_seqs()
    }

    fn history_read(&self, user: UserId, seq: u64, dov: DovId) -> HybridResult<Vec<u8>> {
        Ok(self.at(seq)?.read_design_data(user, dov)?.to_vec())
    }

    fn history_impact(&self, seq: u64, cv: CellVersionId) -> HybridResult<ImpactAnswer> {
        Ok(self.at(seq)?.impact(cv))
    }
}

impl Backend for ShardedService {
    fn admin_user(&self) -> UserId {
        self.admin()
    }

    /// Users are broadcast entities: every shard applies the same
    /// `add-user` stream in lane-0 commit order, so shard 0's local
    /// ids are valid on every shard (bootstrap passthrough in the
    /// router's `local_on`).
    fn resolve_user(&self, name: &str) -> Option<UserId> {
        self.view().shard(0).jcf().user_by_name(name)
    }

    fn execute(&self, op: Op) -> HybridResult<(u64, Event)> {
        self.submit(op)
    }

    fn queue_depth(&self) -> u64 {
        self.queue_depth()
    }

    fn retained_seqs(&self) -> Vec<u64> {
        self.retained_seqs()
    }

    fn history_read(&self, user: UserId, seq: u64, dov: DovId) -> HybridResult<Vec<u8>> {
        Ok(self.at(seq)?.read_design_data(user, dov)?.to_vec())
    }

    fn history_impact(&self, seq: u64, cv: CellVersionId) -> HybridResult<ImpactAnswer> {
        self.at(seq)?.impact(cv)
    }
}
