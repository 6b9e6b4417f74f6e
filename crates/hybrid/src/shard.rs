//! Sharded write path: partitioned engines behind one service.
//!
//! [`Service`](crate::Service) funnels every write through a single
//! engine critical section; on a workload of independent projects that
//! single queue is the scaling wall. This module splits the OMS behind
//! the service into N partition [`Engine`]s keyed by project/library:
//!
//! * A **[`ShardRouter`]** (internal) maps each [`Op`] to its owning
//!   partition. Partition names hash to shards with a pure FNV-1a
//!   placement function ([`shard_of_name`]), so routing at submit time
//!   needs no registry lookup for name-keyed ops.
//! * **One group-commit lane per shard.** Each shard is the same
//!   leader/follower lane [`Service`](crate::Service) is built from,
//!   with its own engine lock, batch queue, published snapshot and
//!   counters. A lane's batch runs each op's plan through one plan
//!   executor, which recovery replay shares (see *Persistence*).
//! * **Per-shard append-only journals** record every op in *envelope*
//!   form (the virtual-id op plus its global commit sequence) before
//!   the engine applies it, so restart replay reproduces successes
//!   *and* failures in commit order.
//! * **Per-shard snapshot caches** are composed into one cross-shard
//!   [`ShardView`] for readers, revalidated against a global version
//!   counter.
//!
//! # Virtual ids
//!
//! Each partition engine has its own object-id space, so the ids two
//! engines hand out collide. The router therefore exposes *virtual*
//! ids: `vid = VIRT_BASE + seq * 256 + k`, a pure function of the op's
//! global commit sequence `seq` and the index `k` of the created id
//! within the op's event. Ids below `VIRT_BASE` (the bootstrap
//! entities, identical on every shard) pass through untranslated.
//! Because the vid depends only on the journal record, live execution
//! and restart replay allocate byte-identical ids regardless of how
//! concurrent shard drains interleave — and regardless of the shard
//! count, which is what makes the 1/2/4/8-shard fingerprints of the
//! E14 campaign comparable.
//!
//! # Routing classes
//!
//! * **Broadcast** ops (users, teams, tools, viewtypes, flows, mode
//!   switches) apply to *every* shard in index order; the created
//!   entities get one virtual id mapping to a per-shard local id each.
//! * **Partition** ops route to the single shard owning their
//!   project/library, either by name hash (`create-project`,
//!   `import-library`, the `fmcad-*` family) or by resolving a virtual
//!   id back to its partition.
//! * **Cross-partition** ops — hierarchy binding across libraries
//!   (`declare-comp-of`) and equivalence relations (`mark-equivalent`)
//!   — go through a deterministic two-phase commit: a `prep` record in
//!   both participating shards' journals under one shared commit
//!   sequence, the router-level effect, then a `cmit` record in both.
//!   Recovery treats the op as committed only when the commit record
//!   is present in **both** journals; an orphaned prepare is rolled
//!   back deterministically and reported in
//!   [`RecoveryReport::rolled_back_prepares`].
//!
//! Cross-ness is partition inequality, not shard inequality, so the
//! decision — and therefore the journal record stream — is invariant
//! across shard counts.
//!
//! # Persistence
//!
//! Epochs: `root/CURRENT` is a one-line pointer at the live epoch
//! directory `ck-<k>`, which holds the epoch metadata (`epoch.meta`:
//! each shard engine's chain boundary), the router image
//! (`router.meta`) and the envelope journals (`shard-<i>.log`). Each
//! shard's engine checkpoint chain lives beside the epochs at
//! `root/shard-<i>/` and holds only images: the envelope journals are
//! the one op log. [`ShardedService::checkpoint`] adds one delta per
//! chain, stages a new epoch and flips `CURRENT` atomically;
//! [`ShardedService::sync`] appends each shard's new records to its
//! journal (ascending shard order), rewriting a journal whole only
//! when it is not known to be intact;
//! [`ShardedService::recover`] merges the journals by commit sequence
//! and replays them through the same plan executor as live commits,
//! with the recorded sequence forced. The executor varies only in how
//! it reaches the router (locked and timed live, owned during replay)
//! and where it charges engine time; it never holds the router across
//! an engine apply.
//!
//! # Sessions
//!
//! [`ShardedSession`] is the one [`Session`] type instantiated over
//! this service: the same typed wrappers, return shapes and error
//! kinds as a single-engine session, in virtual ids. Its `browse` and
//! `read_design_data` read a per-session cached [`ShardView`],
//! revalidated against the view version: zero-copy, journaling nothing
//! and touching no write lane. Submit [`Op::Browse`] or
//! [`Op::ReadDesignData`] to take the journaled §3.6 copy path.
//!
//! # Simplifications
//!
//! The sharded service does not fan events out to per-session
//! subscription queues (use [`Service`](crate::Service) when event
//! subscriptions matter); each write returns its own `(seq, event)`
//! pair instead, through [`Session::apply_seq`] or the seq-returning
//! wrappers. Recovery requires the same shard count the journals were
//! written with (it is recorded in `router.meta`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cad_vfs::{Blob, Vfs, VfsPath};
use jcf::{CellVersionId, DesignObjectId, DovId, UserId};
use oms::persist::{enc_str, fnv64, fnv64_seeded, Fields};
use oms::PMap;

use crate::engine::{Engine, RecoveryReport};
use crate::error::{HybridError, HybridResult};
use crate::events::Event;
use crate::framework::{MirrorLocation, StagingMode};
use crate::future::FutureFeatures;
use crate::history::{HistoryRing, RetentionPolicy};
use crate::lane::{lock, Lane, Outcome};
use crate::ops::Op;
use crate::service::{ReadView, Session, WriteStack};
use crate::snapshot::{ImpactAnswer, Snapshot};

/// First virtual id. Everything below is a bootstrap-era local id,
/// identical on every shard, and passes through the router untouched.
pub const VIRT_BASE: u64 = 1 << 32;

/// Virtual ids per commit sequence: one op creates at most this many
/// entities (the largest creator, `run-activity`, is bounded by the
/// flow's created-viewtype list).
const VID_STRIDE: u64 = 256;

const CURRENT_PTR: &str = "CURRENT";
const ROUTER_META: &str = "router.meta";
/// Per-epoch record of where each shard's engine chain stood when the
/// epoch was committed: `Engine::recover_at` targets at recovery time.
const EPOCH_META: &str = "epoch.meta";

/// The design objects `event` created implicitly (an activity's first
/// output for a viewtype), shard-local ids in order of each object's
/// first produced dov. An object is fresh exactly when its first
/// version is one of the activity's dovs, so the answer — and the
/// vid slots derived from it — cannot depend on the shard count.
fn fresh_activity_objects(engine: &Engine, event: &Event) -> Vec<u64> {
    let Event::ActivityRun { dovs } = event else {
        return Vec::new();
    };
    let mut fresh = Vec::new();
    for dov in dovs {
        if let Ok(d) = engine.jcf().design_object_of(*dov) {
            if engine.jcf().versions_of_design_object(d).first() == Some(dov)
                && !fresh.contains(&d.raw())
            {
                fresh.push(d.raw());
            }
        }
    }
    fresh
}

/// The pure placement function: which shard owns the partition named
/// `name` when `nshards` shards exist. Stable across restarts (it is
/// a function of the name alone), so submit-time routing needs no
/// registry lookup.
pub fn shard_of_name(name: &str, nshards: usize) -> usize {
    (fnv64(name.as_bytes()) % nshards.max(1) as u64) as usize
}

fn map_oms(e: oms::OmsError) -> HybridError {
    match e {
        oms::OmsError::Vfs(fs) => HybridError::Vfs(fs),
        other => HybridError::Journal(format!("shard store: {other}")),
    }
}

// ---------------------------------------------------------------------------
// Envelope journal records
// ---------------------------------------------------------------------------

/// One entry of a per-shard envelope journal. Records carry the op in
/// *virtual-id* form — replay re-translates against the rebuilt maps.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EnvelopeRecord {
    /// A partition-local op owned by this shard.
    Local { seq: u64, op: Op },
    /// A broadcast op; the same record lands in every shard's journal
    /// and is deduplicated by sequence at recovery.
    Bcast { seq: u64, op: Op },
    /// Phase one of a cross-partition commit between partitions `a`
    /// and `b`; recorded in both participants' journals.
    Prepare { seq: u64, a: u32, b: u32, op: Op },
    /// Phase two: the commit marker that makes a prepare durable.
    Commit { seq: u64 },
}

impl EnvelopeRecord {
    /// Renders one journal line. The `line=` field is last because op
    /// lines contain `|` themselves.
    fn to_line(&self) -> String {
        match self {
            EnvelopeRecord::Local { seq, op } => format!("op|seq={seq}|line={}", op.to_line()),
            EnvelopeRecord::Bcast { seq, op } => format!("bcast|seq={seq}|line={}", op.to_line()),
            EnvelopeRecord::Prepare { seq, a, b, op } => {
                format!("prep|seq={seq}|a={a}|b={b}|line={}", op.to_line())
            }
            EnvelopeRecord::Commit { seq } => format!("cmit|seq={seq}"),
        }
    }

    /// Parses a [`EnvelopeRecord::to_line`] line; each kind has the
    /// one field layout the writer emits.
    fn parse_line(line: &str) -> Result<EnvelopeRecord, String> {
        let f = Fields::parse_with_tail(line, "line")?;
        let layout: &[&str] = match f.kind {
            "op" | "bcast" => &["seq", "line"],
            "prep" => &["seq", "a", "b", "line"],
            "cmit" => &["seq"],
            other => return Err(format!("unknown record kind {other:?}")),
        };
        f.expect_keys(layout)?;
        let seq = f.num("seq")?;
        let op = || Op::parse_line(f.get("line")?).map_err(|e| format!("bad op line: {e}"));
        Ok(match f.kind {
            "op" => EnvelopeRecord::Local { seq, op: op()? },
            "bcast" => EnvelopeRecord::Bcast { seq, op: op()? },
            "prep" => EnvelopeRecord::Prepare {
                seq,
                a: f.num("a")?,
                b: f.num("b")?,
                op: op()?,
            },
            _ => EnvelopeRecord::Commit { seq },
        })
    }
}

// ---------------------------------------------------------------------------
// Router state
// ---------------------------------------------------------------------------

/// Where a virtual id lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum VirtEntry {
    /// A broadcast entity: one local id per shard, indexed by shard.
    Broadcast { locals: Vec<u64> },
    /// A partition entity: the owning partition and its local id
    /// there. Partitions (not shards) key the entry, so the map is
    /// byte-identical across shard counts.
    Sharded { part: u32, local: u64 },
}

/// How an op travels, resolved against the router state at submit
/// time. Stable until drain: partitions are never unregistered (a
/// failed create rolls back before its vid is ever visible) and vid
/// entries are immutable once registered.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RoutePlan {
    /// Apply on every shard (home lane 0).
    AllShards,
    /// Apply on one shard; `part` is the owning partition for vid
    /// registration (`None` for the partition-less `fmcad-*` family).
    One { shard: usize, part: Option<u32> },
    /// `create-project` / `import-library`: registers the partition.
    NewPart { shard: usize, name: String },
    /// Two-phase commit between distinct partitions.
    Cross {
        pa: u32,
        pb: u32,
        sa: usize,
        sb: usize,
    },
}

impl RoutePlan {
    /// The lane whose queue carries the op.
    fn home(&self) -> usize {
        match self {
            RoutePlan::AllShards => 0,
            RoutePlan::One { shard, .. } | RoutePlan::NewPart { shard, .. } => *shard,
            RoutePlan::Cross { sa, sb, .. } => (*sa).min(*sb),
        }
    }
}

/// A registered partition: its name and its owning shard under the
/// current shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Partition {
    name: Arc<str>,
    shard: u32,
}

/// The router tables a [`ShardView`] reads. Every one is a persistent
/// map, so capturing a view clones a few roots and a commit
/// path-copies O(log n) nodes of the tables it changes — the rest stay
/// shared with every view the history ring holds.
#[derive(Debug, Clone)]
struct RouterTables {
    /// vid → location.
    forward: PMap<u64, VirtEntry>,
    /// Per shard: local raw id → vid. Maintained with `forward`; not
    /// serialized.
    reverse: Vec<PMap<u64, u64>>,
    /// Partition index → name and owning shard.
    partitions: PMap<u64, Partition>,
    /// Cross-partition hierarchy edges `(cv vid, child cell vid)`,
    /// keyed by commit ordinal.
    comp_edges: PMap<u64, (u64, u64)>,
    /// Cross-partition equivalences `(dov vid, dov vid)`, keyed by
    /// commit ordinal.
    equiv_edges: PMap<u64, (u64, u64)>,
    /// dov vid → the set of its cross-partition equivalence partners,
    /// so adding an edge path-copies O(log n) nodes however many
    /// partners a hub dov has. Maintained with `equiv_edges`; not
    /// serialized.
    equiv_adj: PMap<u64, PMap<u64, ()>>,
}

impl RouterTables {
    fn new(nshards: usize) -> RouterTables {
        RouterTables {
            forward: PMap::new(),
            reverse: vec![PMap::new(); nshards],
            partitions: PMap::new(),
            comp_edges: PMap::new(),
            equiv_edges: PMap::new(),
            equiv_adj: PMap::new(),
        }
    }

    /// The owning shard of partition `part`.
    fn shard_of(&self, part: u32) -> Option<usize> {
        self.partitions
            .get(&u64::from(part))
            .map(|p| p.shard as usize)
    }

    /// The owning shard and shard-local id of a sharded virtual id.
    fn resolve(&self, raw: u64) -> Option<(usize, u64)> {
        match self.forward.get(&raw)? {
            VirtEntry::Sharded { part, local } => Some((self.shard_of(*part)?, *local)),
            VirtEntry::Broadcast { .. } => None,
        }
    }

    /// The virtual id of shard-local `local` on `shard`. Bootstrap ids
    /// (below [`VIRT_BASE`]) pass through untranslated.
    fn vid_of(&self, shard: usize, local: u64) -> Option<u64> {
        self.reverse[shard]
            .get(&local)
            .copied()
            .or((local < VIRT_BASE).then_some(local))
    }

    fn push_comp(&mut self, parent: u64, child: u64) {
        self.comp_edges
            .insert(self.comp_edges.len() as u64, (parent, child));
    }

    fn push_equiv(&mut self, a: u64, b: u64) {
        self.equiv_edges
            .insert(self.equiv_edges.len() as u64, (a, b));
        for (from, to) in [(a, b), (b, a)] {
            self.equiv_adj
                .get_or_insert_with(from, PMap::new)
                .insert(to, ());
        }
    }
}

/// The shard router: virtual-id maps, partition registry, envelope
/// journals and the global commit sequence. Guarded by one mutex in
/// the live service; owned directly during recovery replay.
struct ShardRouter {
    nshards: usize,
    /// Next global commit sequence to assign.
    next_seq: u64,
    /// Current persistence epoch (0 = never checkpointed).
    epoch: u64,
    /// Next partition index; failed creates burn an index so replay
    /// assigns identically without rollback bookkeeping.
    next_part: u32,
    /// Live partition name → partition index.
    parts: BTreeMap<String, u32>,
    /// The id maps and relation tables every composed view shares.
    tables: RouterTables,
    /// Per-shard envelope journals since the last checkpoint.
    logs: Vec<Vec<EnvelopeRecord>>,
    /// Per shard: how many records of `logs[i]` the live epoch's
    /// `shard-<i>.log` already holds, so a sync appends only the rest.
    /// `None` — the first sync of an epoch, after a failed write to
    /// that log, or on a recovered service — means the file is not
    /// known to match, and the next sync rewrites it whole.
    synced: Vec<Option<usize>>,
    /// Broadcast ops committed.
    broadcasts: u64,
    /// Cross-partition two-phase commits.
    cross_commits: u64,
}

impl ShardRouter {
    fn new(nshards: usize) -> ShardRouter {
        ShardRouter {
            nshards,
            next_seq: 0,
            epoch: 0,
            next_part: 0,
            parts: BTreeMap::new(),
            tables: RouterTables::new(nshards),
            logs: vec![Vec::new(); nshards],
            synced: vec![None; nshards],
            broadcasts: 0,
            cross_commits: 0,
        }
    }

    fn assign_seq(&mut self, forced: Option<u64>) -> u64 {
        match forced {
            Some(seq) => {
                self.next_seq = self.next_seq.max(seq + 1);
                seq
            }
            None => {
                let seq = self.next_seq;
                self.next_seq += 1;
                seq
            }
        }
    }

    // -- id translation ----------------------------------------------------

    /// vid → local id on `shard`. Sub-`VIRT_BASE` ids pass through.
    fn resolve_raw(&self, raw: u64, shard: usize) -> Result<u64, String> {
        if raw < VIRT_BASE {
            return Ok(raw);
        }
        match self.tables.forward.get(&raw) {
            Some(VirtEntry::Broadcast { locals }) => Ok(locals[shard]),
            Some(VirtEntry::Sharded { part, local }) => {
                let owner = self.shard_of_part(*part)?;
                if owner == shard {
                    Ok(*local)
                } else {
                    Err(format!(
                        "id {raw} lives on shard {owner} but the op routes to shard {shard}"
                    ))
                }
            }
            None => Err(format!("unknown virtual id {raw}")),
        }
    }

    /// local id on `shard` → vid (pass-through for bootstrap ids).
    fn rv_raw(&self, shard: usize, local: u64) -> u64 {
        self.tables.reverse[shard]
            .get(&local)
            .copied()
            .unwrap_or(local)
    }

    fn shard_of_part(&self, part: u32) -> Result<usize, String> {
        self.tables
            .shard_of(part)
            .ok_or_else(|| format!("unknown partition {part}"))
    }

    fn sharded_part(&self, raw: u64) -> Result<u32, String> {
        match self.tables.forward.get(&raw) {
            Some(VirtEntry::Sharded { part, .. }) => Ok(*part),
            Some(VirtEntry::Broadcast { .. }) => Err(format!(
                "id {raw} is replicated on every shard and cannot anchor a partition op"
            )),
            None => Err(format!("id {raw} is not a routable virtual id")),
        }
    }

    fn register(&mut self, vid: u64, entry: VirtEntry) {
        match &entry {
            VirtEntry::Broadcast { locals } => {
                for (shard, &local) in locals.iter().enumerate() {
                    self.tables.reverse[shard].insert(local, vid);
                }
            }
            VirtEntry::Sharded { part, local } => {
                if let Ok(shard) = self.shard_of_part(*part) {
                    self.tables.reverse[shard].insert(*local, vid);
                }
            }
        }
        self.tables.forward.insert(vid, entry);
    }

    // -- routing -----------------------------------------------------------

    fn plan(&self, op: &Op) -> Result<RoutePlan, String> {
        use Op::*;
        Ok(match op {
            AddUser { .. }
            | AddTeam { .. }
            | AddTeamMember { .. }
            | RegisterViewtype { .. }
            | RegisterTool { .. }
            | DefineStandardFlow { .. }
            | DefineQualityGatedFlow { .. }
            | DefineFlow { .. }
            | AddActivity { .. }
            | FreezeFlow { .. }
            | SetFutureFeatures { .. }
            | SetStagingMode { .. } => RoutePlan::AllShards,
            CreateProject { name } => RoutePlan::NewPart {
                shard: shard_of_name(name, self.nshards),
                name: name.clone(),
            },
            ImportLibrary { library, .. } => RoutePlan::NewPart {
                shard: shard_of_name(library, self.nshards),
                name: library.clone(),
            },
            FmcadCreateLibrary { name } => RoutePlan::One {
                shard: shard_of_name(name, self.nshards),
                part: None,
            },
            FmcadCreateCell { library, .. }
            | FmcadCreateCellview { library, .. }
            | FmcadCheckout { library, .. }
            | FmcadCheckin { library, .. }
            | FmcadPurgeVersion { library, .. }
            | FmcadDirectWrite { library, .. } => RoutePlan::One {
                shard: shard_of_name(library, self.nshards),
                part: None,
            },
            CreateCell { project, .. } => self.plan_by_id(project.raw())?,
            CreateCellVersion { cell, .. } => self.plan_by_id(cell.raw())?,
            DeriveVariant { cv, .. } => self.plan_by_id(cv.raw())?,
            ShareCell { cell, .. } => self.plan_by_id(cell.raw())?,
            PromoteVariant { winner, .. } => self.plan_by_id(winner.raw())?,
            Reserve { cv, .. } => self.plan_by_id(cv.raw())?,
            Publish { cv, .. } => self.plan_by_id(cv.raw())?,
            CreateDesignObject { variant, .. } => self.plan_by_id(variant.raw())?,
            AddDesignObjectVersion { design_object, .. } => self.plan_by_id(design_object.raw())?,
            RunActivity { variant, .. } => self.plan_by_id(variant.raw())?,
            Browse { dov, .. } => self.plan_by_id(dov.raw())?,
            ReadDesignData { dov, .. } => self.plan_by_id(dov.raw())?,
            CreateConfiguration { cv, .. } => self.plan_by_id(cv.raw())?,
            CreateConfigVersion { config, .. } => self.plan_by_id(config.raw())?,
            ExportConfig { config_version, .. } => self.plan_by_id(config_version.raw())?,
            RunLvs { variant, .. } => self.plan_by_id(variant.raw())?,
            DeclareCompOf { cv, child, .. } => self.plan_cross(cv.raw(), child.raw())?,
            MarkEquivalent { a, b } => self.plan_cross(a.raw(), b.raw())?,
            MergeForward { cv, .. } => self.plan_by_id(cv.raw())?,
        })
    }

    fn plan_by_id(&self, raw: u64) -> Result<RoutePlan, String> {
        let part = self.sharded_part(raw)?;
        Ok(RoutePlan::One {
            shard: self.shard_of_part(part)?,
            part: Some(part),
        })
    }

    fn plan_cross(&self, ra: u64, rb: u64) -> Result<RoutePlan, String> {
        let pa = self.sharded_part(ra)?;
        let pb = self.sharded_part(rb)?;
        if pa == pb {
            Ok(RoutePlan::One {
                shard: self.shard_of_part(pa)?,
                part: Some(pa),
            })
        } else {
            Ok(RoutePlan::Cross {
                pa,
                pb,
                sa: self.shard_of_part(pa)?,
                sb: self.shard_of_part(pb)?,
            })
        }
    }

    // -- op translation (vid → local) --------------------------------------

    /// Rebuilds `op` with every id translated into `shard`'s local id
    /// space. Errors when an id does not resolve onto that shard.
    fn translate(&self, op: &Op, shard: usize) -> Result<Op, String> {
        let mut local = op.clone();
        local.walk_ids(&mut |_, raw| {
            *raw = self.resolve_raw(*raw, shard)?;
            Ok(())
        })?;
        Ok(local)
    }
}

impl ShardRouter {
    // -- live/replay op protocol (pre = under router lock before the
    //    engine applies; post = under router lock after) ------------------

    /// Assigns the sequence, appends the envelope record and returns
    /// the shard-local translation. A translation failure records
    /// nothing and consumes no sequence — the op never reached any
    /// engine, so there is nothing to replay.
    fn pre_local(
        &mut self,
        shard: usize,
        op: &Op,
        forced: Option<u64>,
    ) -> Result<(u64, Op), String> {
        let translated = self.translate(op, shard)?;
        let seq = self.assign_seq(forced);
        self.logs[shard].push(EnvelopeRecord::Local {
            seq,
            op: op.clone(),
        });
        Ok((seq, translated))
    }

    /// `pre_local` plus partition registration for `create-project` /
    /// `import-library`. The index comes from a monotone counter that
    /// never rolls back — a failed create burns its index, which is
    /// what keeps replay's assignments identical without bookkeeping.
    fn pre_new_part(
        &mut self,
        shard: usize,
        name: &str,
        op: &Op,
        forced: Option<u64>,
    ) -> Result<(u64, Op, u32, bool), String> {
        let (seq, translated) = self.pre_local(shard, op, forced)?;
        let (part, fresh) = match self.parts.get(name) {
            Some(&existing) => (existing, false),
            None => {
                let part = self.next_part;
                self.next_part += 1;
                self.parts.insert(name.to_owned(), part);
                self.tables.partitions.insert(
                    u64::from(part),
                    Partition {
                        name: Arc::from(name),
                        shard: shard as u32,
                    },
                );
                (part, true)
            }
        };
        Ok((seq, translated, part, fresh))
    }

    /// Rolls a freshly registered partition back after the owning
    /// engine rejected its create op.
    fn rollback_part(&mut self, name: &str, part: u32) {
        self.parts.remove(name);
        self.tables.partitions.remove(&u64::from(part));
    }

    /// Translates a broadcast op for every shard (all-or-nothing) and
    /// appends the shared record to every journal.
    fn pre_bcast(&mut self, op: &Op, forced: Option<u64>) -> Result<(u64, Vec<Op>), String> {
        let translated = (0..self.nshards)
            .map(|shard| self.translate(op, shard))
            .collect::<Result<Vec<_>, _>>()?;
        let seq = self.assign_seq(forced);
        for log in &mut self.logs {
            log.push(EnvelopeRecord::Bcast {
                seq,
                op: op.clone(),
            });
        }
        self.broadcasts += 1;
        Ok((seq, translated))
    }

    /// The deterministic two-phase commit for a cross-partition op:
    /// prepare in both participants' journals, the router-level
    /// effect, commit in both — all under one router critical section,
    /// so a live 2PC cannot be left half-done (only injected
    /// persistence faults can tear it, which is what recovery's
    /// commit-in-both rule handles).
    fn commit_cross(
        &mut self,
        op: &Op,
        pa: u32,
        pb: u32,
        sa: usize,
        sb: usize,
        forced: Option<u64>,
    ) -> Result<(u64, Event), String> {
        let event = match op {
            Op::DeclareCompOf { cv, child, .. } => Event::CompOfDeclared(*cv, *child),
            Op::MarkEquivalent { a, b } => Event::MarkedEquivalent(*a, *b),
            other => {
                return Err(format!(
                    "op {} is not cross-partition capable",
                    other.kind_name()
                ))
            }
        };
        let seq = self.assign_seq(forced);
        let prepare = EnvelopeRecord::Prepare {
            seq,
            a: pa,
            b: pb,
            op: op.clone(),
        };
        self.logs[sa].push(prepare.clone());
        if sb != sa {
            self.logs[sb].push(prepare);
        }
        match op {
            Op::DeclareCompOf { cv, child, .. } => self.tables.push_comp(cv.raw(), child.raw()),
            Op::MarkEquivalent { a, b } => self.tables.push_equiv(a.raw(), b.raw()),
            _ => unreachable!("validated above"),
        }
        self.logs[sa].push(EnvelopeRecord::Commit { seq });
        if sb != sa {
            self.logs[sb].push(EnvelopeRecord::Commit { seq });
        }
        self.cross_commits += 1;
        Ok((seq, event))
    }

    // -- event absorption (local → vid, with registration) -----------------

    /// Absorbs a local apply outcome, also registering vids for the
    /// design objects an activity created implicitly (`objects`, from
    /// [`fresh_activity_objects`]; no event carries them).
    fn absorb_local(
        &mut self,
        seq: u64,
        shard: usize,
        part: Option<u32>,
        event: &Event,
        objects: &[u64],
    ) -> Event {
        let virt = self.translate_outcome(seq, std::slice::from_ref(event), Some((shard, part)));
        if let Event::ActivityRun { dovs } = event {
            self.register_activity_objects(seq, part, dovs.len() as u64, objects);
        }
        virt
    }

    /// Registers virtual ids for the design objects an activity created
    /// implicitly. They appear in no event — the engine numbers them
    /// behind [`Event::ActivityRun`] — but the branch-workspace surface
    /// addresses them across shard counts, so they need vids like any
    /// created id. Slots continue after the activity's dov slots,
    /// ordered by each object's first produced dov, which makes every
    /// vid a pure function of the global seq.
    fn register_activity_objects(
        &mut self,
        seq: u64,
        part: Option<u32>,
        first_slot: u64,
        locals: &[u64],
    ) {
        let part = part.expect("activities run on an owning partition");
        for (j, &local) in locals.iter().enumerate() {
            let k = first_slot + j as u64;
            assert!(k < VID_STRIDE, "one op created {k}+ ids");
            self.register(
                VIRT_BASE + seq * VID_STRIDE + k,
                VirtEntry::Sharded { part, local },
            );
        }
    }

    /// Translates an apply outcome into virtual-id form, allocating
    /// and registering `vid = VIRT_BASE + seq*256 + k` for every id
    /// the event *created* (`k` counts the created ids in line order)
    /// and reverse-mapping every id it merely *references*. For
    /// broadcast outcomes (`local == None`) `events` is indexed by
    /// shard and the vid maps to one local id per shard.
    fn translate_outcome(
        &mut self,
        seq: u64,
        events: &[Event],
        local: Option<(usize, Option<u32>)>,
    ) -> Event {
        let created_per_shard: Vec<Vec<u64>> = match local {
            Some(_) => Vec::new(),
            None => events
                .iter()
                .map(|event| {
                    assert_eq!(
                        event.kind_name(),
                        events[0].kind_name(),
                        "apply outcomes diverged across shards"
                    );
                    event.created_ids()
                })
                .collect(),
        };
        let ref_shard = local.map_or(0, |(shard, _)| shard);
        let mut virt = events[0].clone();
        let mut k = 0;
        let walked = virt.walk_ids(&mut |created, raw| {
            if !created {
                *raw = self.rv_raw(ref_shard, *raw);
                return Ok(());
            }
            assert!(k < VID_STRIDE, "one op created {k}+ ids");
            let entry = match local {
                Some((_, part)) => VirtEntry::Sharded {
                    part: part.expect("creator ops carry their owning partition"),
                    local: *raw,
                },
                None => VirtEntry::Broadcast {
                    locals: created_per_shard
                        .iter()
                        .map(|ids| ids[k as usize])
                        .collect(),
                },
            };
            *raw = VIRT_BASE + seq * VID_STRIDE + k;
            self.register(*raw, entry);
            k += 1;
            Ok(())
        });
        walked.expect("the outcome walk cannot fail");
        virt
    }

    // -- router image (router.meta) ----------------------------------------

    /// Renders the router image persisted at a checkpoint: shard
    /// count, sequence, partition registry, the full virtual-id map
    /// and the cross-partition relation edges. Reverse maps are
    /// derived, not serialized. Deterministic line order (sorted maps)
    /// makes the rendering double as a fingerprint input.
    fn meta_lines(&self, epoch: u64) -> Vec<String> {
        let mut lines = vec![format!(
            "meta|v=1|shards={}|seq={}|epoch={}|next-part={}",
            self.nshards, self.next_seq, epoch, self.next_part
        )];
        for (name, idx) in &self.parts {
            lines.push(format!(
                "part|idx={idx}|shard={}|name={}",
                self.tables
                    .shard_of(*idx)
                    .expect("every named partition is registered"),
                enc_str(name)
            ));
        }
        for (vid, entry) in self.tables.forward.iter() {
            match entry {
                VirtEntry::Broadcast { locals } => lines.push(format!(
                    "vid|id={vid}|bcast={}",
                    locals
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                )),
                VirtEntry::Sharded { part, local } => {
                    lines.push(format!("vid|id={vid}|part={part}|local={local}"))
                }
            }
        }
        for (parent, child) in self.tables.comp_edges.values() {
            lines.push(format!("comp|parent={parent}|child={child}"));
        }
        for (a, b) in self.tables.equiv_edges.values() {
            lines.push(format!("equiv|a={a}|b={b}"));
        }
        lines
    }

    /// Rebuilds a router from its persisted image, re-deriving the
    /// per-shard reverse maps from the forward entries and the
    /// equivalence adjacency from the equivalence edges.
    fn from_meta(lines: &[String]) -> Result<ShardRouter, String> {
        let head = lines.first().ok_or("empty router image")?;
        let f = Fields::parse(head)?;
        if f.kind != "meta" || f.get("v") != Ok("1") {
            return Err(format!("unsupported router image header {head:?}"));
        }
        let mut router = ShardRouter::new(f.num("shards")?);
        router.next_seq = f.num("seq")?;
        router.epoch = f.num("epoch")?;
        router.next_part = f.num("next-part")?;
        for line in &lines[1..] {
            let f = Fields::parse(line)?;
            match f.kind {
                "part" => {
                    let idx: u32 = f.num("idx")?;
                    let name = f.str("name")?;
                    router.tables.partitions.insert(
                        u64::from(idx),
                        Partition {
                            name: Arc::from(name.as_str()),
                            shard: f.num("shard")?,
                        },
                    );
                    router.parts.insert(name, idx);
                }
                "vid" => {
                    let entry = match f.get("bcast") {
                        Ok(bcast) => VirtEntry::Broadcast {
                            locals: bcast
                                .split(',')
                                .map(|raw| raw.parse().map_err(|e| format!("bad local id: {e}")))
                                .collect::<Result<_, String>>()?,
                        },
                        Err(_) => VirtEntry::Sharded {
                            part: f.num("part")?,
                            local: f.num("local")?,
                        },
                    };
                    router.register(f.num("id")?, entry);
                }
                "comp" => router.tables.push_comp(f.num("parent")?, f.num("child")?),
                "equiv" => router.tables.push_equiv(f.num("a")?, f.num("b")?),
                other => return Err(format!("unknown router image line kind {other:?}")),
            }
        }
        Ok(router)
    }

    /// FNV-1a fold over the rendered router image — the router's
    /// contribution to [`ShardedService::state_fingerprint`].
    fn fingerprint(&self) -> String {
        let mut h = oms::persist::FNV_OFFSET;
        for line in self.meta_lines(self.epoch) {
            h = fnv64_seeded(fnv64_seeded(h, line.as_bytes()), &[0x1f]);
        }
        format!("{h:016x}")
    }
}

// ---------------------------------------------------------------------------
// The plan executor: live commits and journal replay
// ---------------------------------------------------------------------------

/// How the plan executor reaches the router and where it charges
/// engine time. The live service locks and times the router and
/// charges each lane's busy counter; recovery replay owns the router
/// outright and charges nothing.
trait PlanAccess {
    /// Runs `f` against the router.
    fn route<R>(&mut self, f: impl FnOnce(&mut ShardRouter) -> R) -> R;

    /// Applies a translated op on shard `shard`'s engine.
    fn apply(&mut self, shard: usize, engine: &mut Engine, op: Op) -> HybridResult<Event>;
}

impl PlanAccess for ShardRouter {
    fn route<R>(&mut self, f: impl FnOnce(&mut ShardRouter) -> R) -> R {
        f(self)
    }

    fn apply(&mut self, _shard: usize, engine: &mut Engine, op: Op) -> HybridResult<Event> {
        engine.apply(op)
    }
}

impl PlanAccess for &ShardedService {
    fn route<R>(&mut self, f: impl FnOnce(&mut ShardRouter) -> R) -> R {
        self.with_router(f)
    }

    fn apply(&mut self, shard: usize, engine: &mut Engine, op: Op) -> HybridResult<Event> {
        self.inner.lanes[shard].apply(engine, op)
    }
}

/// Executes a `One`, `NewPart` or `AllShards` plan, live or in replay
/// (`forced` carries the recorded sequence). `engines` are the target
/// engines: the owning shard's alone, or every shard's in index order
/// for a broadcast.
///
/// The router assigns the sequence, journals the envelope record and
/// translates the op; the engines apply it with the router released;
/// the router then absorbs the outcome into virtual-id form. The outer
/// error is a routing failure, which journals nothing; the inner
/// result is the op's own outcome. A failed op keeps its journal
/// record, so replay reproduces the rejection in commit order.
fn execute_plan(
    access: &mut impl PlanAccess,
    engines: &mut [&mut Engine],
    op: &Op,
    plan: RoutePlan,
    forced: Option<u64>,
) -> Result<Outcome, String> {
    let (shard, seq, translated, part, created) = match plan {
        RoutePlan::One { shard, part } => {
            let (seq, translated) = access.route(|r| r.pre_local(shard, op, forced))?;
            (shard, seq, translated, part, None)
        }
        RoutePlan::NewPart { shard, name } => {
            let (seq, translated, part, fresh) =
                access.route(|r| r.pre_new_part(shard, &name, op, forced))?;
            (
                shard,
                seq,
                translated,
                Some(part),
                fresh.then_some((name, part)),
            )
        }
        RoutePlan::AllShards => {
            let (seq, translated) = access.route(|r| r.pre_bcast(op, forced))?;
            let mut events = Vec::with_capacity(translated.len());
            let mut failure = None;
            for (shard, (engine, translated)) in engines.iter_mut().zip(translated).enumerate() {
                match access.apply(shard, engine, translated) {
                    Ok(event) => events.push(event),
                    Err(e) => {
                        failure.get_or_insert(e);
                    }
                }
            }
            return Ok(match failure {
                None => Ok((
                    seq,
                    access.route(|r| r.translate_outcome(seq, &events, None)),
                )),
                // Broadcast state is identical on every shard, so every
                // engine rejected with the same error.
                Some(e) if events.is_empty() => Err(e),
                Some(_) => Err(HybridError::Journal(
                    "broadcast outcome diverged across shards".into(),
                )),
            });
        }
        RoutePlan::Cross { .. } => {
            return Err(format!(
                "{} is cross-partition and commits through two-phase commit",
                op.kind_name()
            ))
        }
    };
    let engine = &mut *engines[0];
    Ok(match access.apply(shard, engine, translated) {
        Ok(event) => {
            let objects = fresh_activity_objects(engine, &event);
            Ok((
                seq,
                access.route(|r| r.absorb_local(seq, shard, part, &event, &objects)),
            ))
        }
        Err(e) => {
            if let Some((name, part)) = created {
                // The index stays burned; only the name mapping rolls
                // back.
                access.route(|r| r.rollback_part(&name, part));
            }
            Err(e)
        }
    })
}

// ---------------------------------------------------------------------------
// The live service
// ---------------------------------------------------------------------------

/// A point-in-time copy of one write lane's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardLaneStats {
    /// Ops committed through this lane (including broadcast legs).
    pub ops: u64,
    /// Engine critical sections (group commits) led on this lane.
    pub batches: u64,
    /// Largest single group commit, in ops.
    pub max_batch: u64,
    /// Writers that parked as followers instead of leading a batch.
    pub writer_waits: u64,
    /// Nanoseconds spent applying ops inside the engine critical
    /// section (lock wait excluded).
    pub busy_ns: u64,
}

/// A point-in-time copy of the sharded service's counters.
///
/// The E14 benchmark computes its critical-path throughput from
/// `max(shards[i].busy_ns) + router_ns` — the serial spine of the
/// sharded write path on a machine with unbounded cores.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardStats {
    /// Per-lane counters, indexed by shard.
    pub shards: Vec<ShardLaneStats>,
    /// Nanoseconds spent inside the router critical section (routing,
    /// sequence assignment, id translation; lock wait excluded). This
    /// work is serial across all lanes.
    pub router_ns: u64,
    /// Broadcast ops committed (each applied once per shard).
    pub broadcasts: u64,
    /// Cross-partition two-phase commits.
    pub cross_commits: u64,
    /// The next global commit sequence.
    pub seq: u64,
}

struct ShardInner {
    /// One group-commit lane per shard; a job is an op with its plan.
    lanes: Vec<Lane<(Op, RoutePlan)>>,
    router: Mutex<ShardRouter>,
    /// Serial time inside the router lock (post-acquisition only).
    router_ns: AtomicU64,
    /// Bumped on every lane publish and cross commit; readers
    /// revalidate their cached [`ShardView`] against it.
    version: AtomicU64,
    view: Mutex<Option<Arc<ShardView>>>,
    /// The retention ring of composed views, keyed by global commit
    /// seq.
    history: Mutex<HistoryRing<Arc<ShardView>>>,
    admin: UserId,
}

/// Thread-safe multi-session service over N partition [`Engine`]s.
///
/// Cloning is cheap (an [`Arc`] bump); clones share the lanes and the
/// router. Open one [`ShardedSession`] per user with
/// [`ShardedService::open_session`]; compose a cross-shard read view
/// with [`ShardedService::view`]. DESIGN.md §12 describes the routing
/// and determinism model.
#[derive(Clone)]
pub struct ShardedService {
    inner: Arc<ShardInner>,
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.inner.lanes.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ShardedService {
    /// A builder for a sharded service with non-default engine options.
    pub fn builder() -> ShardedServiceBuilder {
        ShardedServiceBuilder::new()
    }

    /// A sharded service over `shards` default-configured engines
    /// (clamped to at least one).
    pub fn new(shards: usize) -> ShardedService {
        ShardedService::builder().shards(shards).build()
    }

    fn from_engines(
        engines: Vec<Engine>,
        router: ShardRouter,
        retention: RetentionPolicy,
    ) -> ShardedService {
        let admin = engines[0].admin();
        let lanes = engines.into_iter().map(Lane::new).collect();
        let service = ShardedService {
            inner: Arc::new(ShardInner {
                lanes,
                router: Mutex::new(router),
                router_ns: AtomicU64::new(0),
                version: AtomicU64::new(1),
                view: Mutex::new(None),
                history: Mutex::new(HistoryRing::new(retention)),
                admin,
            }),
        };
        // A recovered service re-seeds its ring with the recovered
        // head; a fresh one has no commits to retain yet.
        service.observe_history();
        service
    }

    /// The built-in framework administrator (identical on every shard).
    pub fn admin(&self) -> UserId {
        self.inner.admin
    }

    /// The number of partition engines.
    pub fn shards(&self) -> usize {
        self.inner.lanes.len()
    }

    /// Ops currently queued (not yet committed) across all write
    /// lanes: one atomic load per lane. The network front-end samples
    /// this to decide when to answer `busy` instead of accepting more
    /// work.
    pub fn queue_depth(&self) -> u64 {
        self.inner.lanes.iter().map(Lane::queue_depth).sum()
    }

    /// Opens a session acting as `user`.
    ///
    /// Unlike [`Service::open_session`](crate::Service::open_session),
    /// sharded sessions do not subscribe to an event stream — each
    /// write returns its own `(seq, event)` pair instead.
    pub fn open_session(&self, user: UserId) -> ShardedSession {
        Session::open(self.clone(), user)
    }

    /// Runs a closure against the router under its lock, charging the
    /// time *inside* the closure (not the lock wait) to `router_ns`.
    fn with_router<R>(&self, f: impl FnOnce(&mut ShardRouter) -> R) -> R {
        let mut router = lock(&self.inner.router);
        let start = Instant::now();
        let out = f(&mut router);
        self.inner
            .router_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Replaces lane `i`'s published snapshot and bumps the view
    /// version.
    fn publish_lane(&self, i: usize, engine: &Engine) {
        self.inner.lanes[i].publish(engine);
        self.inner.version.fetch_add(1, Ordering::Release);
    }

    /// Submits one op in virtual-id form and blocks until its lane's
    /// batch commits. Returns the global commit sequence and the
    /// event, with every id translated back to virtual form.
    pub fn submit(&self, op: Op) -> HybridResult<(u64, Event)> {
        let plan = self
            .with_router(|r| r.plan(&op))
            .map_err(HybridError::ShardRouting)?;
        self.inner.lanes[plan.home()].submit(
            (op, plan),
            |engine, (op, plan)| self.run_plan(engine, &op, plan),
            |_| {
                // The lane has republished; stale views revalidate,
                // and the fresh composed view goes to the history ring.
                self.inner.version.fetch_add(1, Ordering::Release);
                self.observe_history();
            },
        )
    }

    /// Executes one planned op while holding its home lane's engine.
    fn run_plan(&self, engine: &mut Engine, op: &Op, plan: RoutePlan) -> Outcome {
        let mut live = self;
        let outcome = match plan {
            RoutePlan::Cross { pa, pb, sa, sb } => {
                let out = self
                    .with_router(|r| r.commit_cross(op, pa, pb, sa, sb, None))
                    .map_err(HybridError::ShardRouting)?;
                // The router's relation tables changed; stale views
                // must revalidate.
                self.inner.version.fetch_add(1, Ordering::Release);
                return Ok(out);
            }
            RoutePlan::AllShards => {
                // The lane-0 leader is the only thread that ever locks
                // more than one engine, and it does so in ascending
                // index order — no cycle with single-lane leaders.
                let mut others: Vec<MutexGuard<'_, Engine>> =
                    self.inner.lanes[1..].iter().map(Lane::engine).collect();
                let mut engines: Vec<&mut Engine> = std::iter::once(engine)
                    .chain(others.iter_mut().map(|guard| &mut **guard))
                    .collect();
                let outcome = execute_plan(&mut live, &mut engines, op, plan, None);
                for (i, other) in others.iter().enumerate() {
                    self.publish_lane(i + 1, other);
                }
                outcome
            }
            _ => execute_plan(&mut live, &mut [engine], op, plan, None),
        };
        outcome.map_err(HybridError::ShardRouting)?
    }

    /// Offers the current composed view to the retention ring, keyed
    /// by the last committed global sequence. The ring skips repeat
    /// offers at an unchanged seq, so this is safe to call from every
    /// publication site.
    fn observe_history(&self) {
        let view = self.view();
        if let Some(seq) = view.seq().checked_sub(1) {
            lock(&self.inner.history).observe(seq, view);
        }
    }

    /// The retained composed view at exactly commit seq `seq`.
    ///
    /// # Errors
    ///
    /// [`HybridError::SeqUnreachable`] (naming the closest retained
    /// boundary) when `seq` was never retained or has been evicted.
    pub fn at(&self, seq: u64) -> HybridResult<Arc<ShardView>> {
        lock(&self.inner.history).at(seq)
    }

    /// Pins a retained seq so it survives ring eviction.
    ///
    /// # Errors
    ///
    /// [`HybridError::SeqUnreachable`] when `seq` is not retained.
    pub fn pin(&self, seq: u64) -> HybridResult<()> {
        lock(&self.inner.history).pin(seq)
    }

    /// Drops a pin; returns whether one existed.
    pub fn unpin(&self, seq: u64) -> bool {
        lock(&self.inner.history).unpin(seq)
    }

    /// Every retained commit seq (ring and pins), sorted ascending.
    pub fn retained_seqs(&self) -> Vec<u64> {
        lock(&self.inner.history).retained()
    }

    /// A copy of the service's concurrency counters.
    pub fn stats(&self) -> ShardStats {
        let shards = self
            .inner
            .lanes
            .iter()
            .map(|lane| {
                let s = lane.stats();
                ShardLaneStats {
                    ops: s.ops,
                    batches: s.batches,
                    max_batch: s.max_batch,
                    writer_waits: s.writer_waits,
                    busy_ns: lane.busy_ns(),
                }
            })
            .collect();
        let router = lock(&self.inner.router);
        ShardStats {
            shards,
            router_ns: self.inner.router_ns.load(Ordering::Relaxed),
            broadcasts: router.broadcasts,
            cross_commits: router.cross_commits,
            seq: router.next_seq,
        }
    }

    /// Runs a closure against one shard's engine under its write lock,
    /// outside the batching queue, republishing its snapshot after.
    /// For maintenance paths (fault arming, meter inspection).
    pub fn with_shard_engine<R>(&self, shard: usize, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut engine = self.inner.lanes[shard].engine();
        let out = f(&mut engine);
        self.publish_lane(shard, &engine);
        out
    }

    /// The shard owning a virtual id, with its shard-local id there —
    /// `None` for broadcast or unknown ids.
    pub fn resolve_shard(&self, raw: u64) -> Option<(usize, u64)> {
        lock(&self.inner.router).tables.resolve(raw)
    }

    /// A deterministic fingerprint over every shard engine's state
    /// plus the router image. Byte-identical across live execution,
    /// restart replay, and — for the same op stream — across shard
    /// counts of the *router* contribution's logical content (the E14
    /// campaign compares full fingerprints only between runs with the
    /// same shard count, and per-owner-shard engine fingerprints
    /// across counts).
    pub fn state_fingerprint(&self) -> HybridResult<String> {
        let guards: Vec<MutexGuard<'_, Engine>> =
            self.inner.lanes.iter().map(Lane::engine).collect();
        let mut joined = String::new();
        for (i, engine) in guards.iter().enumerate() {
            joined.push_str(&format!("shard-{i}={}\n", engine.state_fingerprint()?));
        }
        drop(guards);
        let router = lock(&self.inner.router);
        joined.push_str(&format!("router={}\n", router.fingerprint()));
        Ok(format!("{:016x}", fnv64(joined.as_bytes())))
    }
}

// ---------------------------------------------------------------------------
// Persistence: epoch checkpoints, journal sync, recovery
// ---------------------------------------------------------------------------

/// One merged journal entry at recovery time, after deduplicating
/// broadcast and cross records across the per-shard logs.
enum Merged {
    Local { shard: usize, op: Op },
    Bcast { op: Op },
    Cross { a: u32, b: u32, op: Op },
}

/// Commit sequence number of an envelope record.
fn env_seq(rec: &EnvelopeRecord) -> u64 {
    match rec {
        EnvelopeRecord::Local { seq, .. }
        | EnvelopeRecord::Bcast { seq, .. }
        | EnvelopeRecord::Prepare { seq, .. }
        | EnvelopeRecord::Commit { seq } => *seq,
    }
}

/// Parsed `epoch.meta`: the router's next commit sequence at the
/// epoch flip, and each shard engine's sequence number at its
/// checkpoint — the exact [`Engine::recover_at`] targets that rebuild
/// the epoch's engine states from the per-shard chains.
struct EpochMeta {
    next_seq: u64,
    engine_seqs: Vec<u64>,
}

/// One `epoch.meta` record: `seq|next=<n>` or
/// `engseq|shard=<i>|seq=<s>`, each in exactly that layout.
enum EpochRecord {
    Next(u64),
    EngineSeq(usize, u64),
}

impl EpochRecord {
    fn to_line(&self) -> String {
        match self {
            EpochRecord::Next(next) => format!("seq|next={next}"),
            EpochRecord::EngineSeq(shard, seq) => format!("engseq|shard={shard}|seq={seq}"),
        }
    }

    fn parse_line(line: &str) -> Result<EpochRecord, String> {
        let f = Fields::parse(line)?;
        match f.kind {
            "seq" => {
                f.expect_keys(&["next"])?;
                Ok(EpochRecord::Next(f.num("next")?))
            }
            "engseq" => {
                f.expect_keys(&["shard", "seq"])?;
                Ok(EpochRecord::EngineSeq(f.num("shard")?, f.num("seq")?))
            }
            other => Err(format!("unknown record kind {other:?}")),
        }
    }
}

/// Reads just the `seq|next=` record of an epoch's metadata — enough
/// to pick the point-in-time anchor epoch before any router state is
/// loaded. `None` for unreadable or uncommitted epoch directories.
fn epoch_next_seq(fs: &Vfs, dir: &VfsPath) -> Option<u64> {
    let path = dir.join(EPOCH_META).ok()?;
    if !fs.exists(&path) {
        return None;
    }
    let lines = oms::persist::load_journal(fs, &path).ok()?;
    lines
        .iter()
        .find_map(|line| match EpochRecord::parse_line(line) {
            Ok(EpochRecord::Next(next)) => Some(next),
            _ => None,
        })
}

fn load_epoch_meta(fs: &Vfs, dir: &VfsPath, nshards: usize) -> HybridResult<EpochMeta> {
    let lines = oms::persist::load_journal(fs, &dir.join(EPOCH_META)?).map_err(map_oms)?;
    let mut next_seq = None;
    let mut engine_seqs = vec![None; nshards];
    for line in &lines {
        let err =
            |e: String| HybridError::Journal(format!("malformed epoch meta line {line:?}: {e}"));
        match EpochRecord::parse_line(line).map_err(err)? {
            EpochRecord::Next(next) => next_seq = Some(next),
            EpochRecord::EngineSeq(shard, seq) => {
                let slot = engine_seqs
                    .get_mut(shard)
                    .ok_or_else(|| err(format!("no shard {shard}")))?;
                *slot = Some(seq);
            }
        }
    }
    let engine_seqs: Option<Vec<u64>> = engine_seqs.into_iter().collect();
    match (next_seq, engine_seqs) {
        (Some(next_seq), Some(engine_seqs)) => Ok(EpochMeta {
            next_seq,
            engine_seqs,
        }),
        _ => Err(HybridError::Journal(
            "epoch meta is missing records".to_owned(),
        )),
    }
}

/// Directory of shard `i`'s engine checkpoint chain. The chains live
/// *beside* the epoch directories and span them: every service
/// checkpoint adds one O(Δ) delta checkpoint per shard instead of
/// rewriting full images into a fresh epoch directory.
fn shard_chain_dir(root: &VfsPath, i: usize) -> HybridResult<VfsPath> {
    Ok(root.join(&format!("shard-{i}"))?)
}

impl ShardedService {
    /// Writes an epoch checkpoint: one **delta** checkpoint per shard
    /// into the persistent per-shard chains (`shard-<i>/`; the first
    /// epoch writes the base images), the epoch metadata and router
    /// image into `ck-<k>/`, and the `CURRENT` pointer flip that
    /// commits it all — then truncates the in-memory envelope
    /// journals. The deltas carry images only: a shard engine's ops
    /// are already in the envelope journals, and recovery only ever
    /// targets the chain boundaries `epoch.meta` records, so no op
    /// segment is sealed into the chains. Earlier epoch directories
    /// are retained for [`ShardedService::recover_at`] until
    /// [`ShardedService::compact`] removes them.
    ///
    /// Locks every engine (ascending) and the router for the duration,
    /// so the images are mutually consistent.
    pub fn checkpoint(&self, fs: &mut Vfs, root: &VfsPath) -> HybridResult<()> {
        let mut guards: Vec<MutexGuard<'_, Engine>> =
            self.inner.lanes.iter().map(Lane::engine).collect();
        let mut router = lock(&self.inner.router);
        let next = router.epoch + 1;
        let dir = root.join(&format!("ck-{next}"))?;
        fs.mkdir_all(&dir)?;
        // A crash after some engine checkpoints leaves their chains
        // one delta ahead of the committed epoch; recovery targets
        // the recorded engine sequences, so the extra delta is simply
        // an unreferenced fork until a retry commits past it.
        let mut epoch_lines = vec![EpochRecord::Next(router.next_seq).to_line()];
        for (i, engine) in guards.iter_mut().enumerate() {
            engine.checkpoint_images(fs, &shard_chain_dir(root, i)?)?;
            epoch_lines.push(EpochRecord::EngineSeq(i, engine.seq()).to_line());
        }
        oms::persist::save_journal(fs, &dir.join(EPOCH_META)?, &epoch_lines).map_err(map_oms)?;
        oms::persist::save_journal(fs, &dir.join(ROUTER_META)?, &router.meta_lines(next))
            .map_err(map_oms)?;
        // The pointer flip is the commit point: everything before it
        // is invisible to recovery, everything after is cleanup.
        oms::persist::save_text(fs, &root.join(CURRENT_PTR)?, &format!("ck-{next}"))
            .map_err(map_oms)?;
        router.epoch = next;
        for log in &mut router.logs {
            log.clear();
        }
        router.synced.fill(None);
        Ok(())
    }

    /// Drops persistence no longer needed to restore the **newest**
    /// epoch: every epoch directory other than the current one
    /// (including stale `ck-*` beyond the pointer, left by crashed
    /// checkpoints) and every file of each shard's engine chain that
    /// its manifest no longer names (deltas of abandoned forks, staging
    /// debris, and the op segments chains written by older versions
    /// still hold). Nothing is synced: afterwards a chain holds only
    /// its base, delta and manifest files. Point-in-time recovery to
    /// the removed epochs is given up; the current epoch is
    /// unaffected.
    ///
    /// Returns the number of files and directories removed.
    pub fn compact(&self, fs: &mut Vfs, root: &VfsPath) -> HybridResult<usize> {
        let mut guards: Vec<MutexGuard<'_, Engine>> =
            self.inner.lanes.iter().map(Lane::engine).collect();
        let router = lock(&self.inner.router);
        if router.epoch == 0 || !fs.exists(root) {
            return Ok(0);
        }
        let mut removed = 0;
        for name in fs.read_dir(root)? {
            if let Some(k) = name.strip_prefix("ck-").and_then(|v| v.parse::<u64>().ok()) {
                if k != router.epoch {
                    fs.remove_all(&root.join(&name)?)?;
                    removed += 1;
                }
            }
        }
        for (i, engine) in guards.iter_mut().enumerate() {
            removed += engine.compact_images(fs, &shard_chain_dir(root, i)?)?;
        }
        Ok(removed)
    }

    /// Makes the per-shard envelope journals under the live epoch
    /// durable, in ascending shard order, doing O(Δ) work: each shard
    /// appends only the records added since its previous successful
    /// sync to `ck-<E>/shard-<i>.log`, and a shard with no new records
    /// writes nothing.
    ///
    /// A shard's log is instead rewritten whole and atomically on the
    /// first sync of an epoch, on the first sync after a failed write
    /// to that log, and on the first sync of a service built by
    /// [`recover`](ShardedService::recover) or
    /// [`recover_at`](ShardedService::recover_at). So a torn append is
    /// never followed by more records, and a recovered service drops
    /// its torn tail, rolled-back prepares and any records past its
    /// fork point. Requires a prior
    /// [`checkpoint`](ShardedService::checkpoint) to anchor the epoch.
    pub fn sync(&self, fs: &mut Vfs, root: &VfsPath) -> HybridResult<()> {
        let mut router = lock(&self.inner.router);
        if router.epoch == 0 {
            return Err(HybridError::Journal(
                "sync before first checkpoint: no epoch to anchor the journals to".into(),
            ));
        }
        let dir = root.join(&format!("ck-{}", router.epoch))?;
        let ShardRouter { logs, synced, .. } = &mut *router;
        for (i, (log, on_disk)) in logs.iter().zip(synced.iter_mut()).enumerate() {
            if *on_disk == Some(log.len()) {
                continue;
            }
            let path = dir.join(&format!("shard-{i}.log"))?;
            let from = on_disk.unwrap_or(0);
            let lines: Vec<String> = log[from..].iter().map(EnvelopeRecord::to_line).collect();
            let written = match on_disk {
                Some(_) => oms::persist::append_journal(fs, &path, &lines),
                None => oms::persist::save_journal(fs, &path, &lines),
            };
            *on_disk = written.is_ok().then_some(log.len());
            written.map_err(map_oms)?;
        }
        Ok(())
    }

    /// Restores a sharded service from the live epoch and replays the
    /// envelope journals, merged across shards by commit sequence.
    ///
    /// Replay goes through the same routing, translation and
    /// absorption code as live execution with the recorded sequence
    /// forced, so virtual ids, partition indexes and fingerprints come
    /// out byte-identical. Recorded ops whose apply fails again are
    /// reproduced failures, not recovery errors. A cross-partition
    /// prepare counts as committed only when its commit record is in
    /// **both** participants' journals; otherwise it is rolled back
    /// and reported.
    pub fn recover(
        backup: &mut Vfs,
        root: &VfsPath,
    ) -> HybridResult<(ShardedService, RecoveryReport)> {
        Self::recover_inner(backup, root, None)
    }

    /// **Point-in-time recovery** to commit sequence `seq`: restores
    /// the service to the state after exactly the commits numbered
    /// `0..=seq`. The newest committed epoch whose checkpoint precedes
    /// the target anchors the restore — each shard engine recovers to
    /// its recorded chain boundary via [`Engine::recover_at`] — and
    /// the epoch's envelope journals replay only up to the target
    /// (cross-shard prepares past it, or without both commit records
    /// at or below it, are rolled back as usual).
    ///
    /// Requires the epochs covering `seq` to still exist:
    /// [`ShardedService::compact`] removes old epochs and with them
    /// their targets.
    ///
    /// # Errors
    ///
    /// [`HybridError::SeqUnreachable`] when no retained epoch
    /// checkpoint precedes `seq`, or when `seq` lies beyond the last
    /// commit the synced journals persisted; otherwise as
    /// [`ShardedService::recover`].
    pub fn recover_at(
        backup: &mut Vfs,
        root: &VfsPath,
        seq: u64,
    ) -> HybridResult<(ShardedService, RecoveryReport)> {
        Self::recover_inner(backup, root, Some(seq))
    }

    fn recover_inner(
        backup: &mut Vfs,
        root: &VfsPath,
        target: Option<u64>,
    ) -> HybridResult<(ShardedService, RecoveryReport)> {
        let current = oms::persist::load_text(backup, &root.join(CURRENT_PTR)?).map_err(map_oms)?;
        let cur_epoch: u64 = current
            .trim()
            .strip_prefix("ck-")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                HybridError::Journal(format!("malformed CURRENT pointer {current:?}"))
            })?;
        // Epoch selection: the newest committed epoch whose recorded
        // next commit sequence does not pass the target. Epochs past
        // `CURRENT` are uncommitted leftovers and never considered.
        let epoch = match target {
            None => cur_epoch,
            Some(t) => (1..=cur_epoch)
                .rev()
                .find(|k| {
                    root.join(&format!("ck-{k}"))
                        .ok()
                        .and_then(|d| epoch_next_seq(backup, &d))
                        .is_some_and(|next| next <= t + 1)
                })
                .ok_or(HybridError::SeqUnreachable {
                    requested: t,
                    reachable: 0,
                })?,
        };
        let dir = root.join(&format!("ck-{epoch}"))?;
        let meta = oms::persist::load_journal(backup, &dir.join(ROUTER_META)?).map_err(map_oms)?;
        let mut router = ShardRouter::from_meta(&meta).map_err(HybridError::Journal)?;
        let nshards = router.nshards;
        let epoch_meta = load_epoch_meta(backup, &dir, nshards)?;
        if epoch_meta.next_seq != router.next_seq {
            return Err(HybridError::Journal(format!(
                "epoch meta next sequence {} disagrees with the router image's {}",
                epoch_meta.next_seq, router.next_seq
            )));
        }
        // Each engine recovers to the exact chain boundary the epoch
        // recorded — not the newest one, which may belong to a later
        // (or crashed, uncommitted) checkpoint.
        let mut engines = Vec::with_capacity(nshards);
        for (i, &engseq) in epoch_meta.engine_seqs.iter().enumerate() {
            let (engine, _) = Engine::recover_at(backup, &shard_chain_dir(root, i)?, engseq)?;
            engines.push(engine);
        }
        // Merge the per-shard envelope journals by commit sequence.
        // Missing logs mean "no sync since the checkpoint" for that
        // shard; a torn tail drops only the unterminated fragment.
        let mut dropped_fragment = None;
        let mut torn_segment = None;
        let mut torn_offset = None;
        let mut merged: BTreeMap<u64, Merged> = BTreeMap::new();
        let mut commits: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); nshards];
        for (shard, shard_commits) in commits.iter_mut().enumerate() {
            let path = dir.join(&format!("shard-{shard}.log"))?;
            if !backup.exists(&path) {
                continue;
            }
            let (lines, fragment) =
                oms::persist::load_journal_lenient(backup, &path).map_err(map_oms)?;
            if dropped_fragment.is_none() {
                if let Some(tail) = fragment {
                    dropped_fragment = Some(tail.fragment);
                    torn_segment = Some(format!("ck-{epoch}/shard-{shard}.log"));
                    torn_offset = Some(tail.offset);
                }
            }
            for line in &lines {
                let record = EnvelopeRecord::parse_line(line).map_err(HybridError::Journal)?;
                if target.is_some_and(|t| env_seq(&record) > t) {
                    continue;
                }
                match record {
                    EnvelopeRecord::Local { seq, op } => {
                        merged.insert(seq, Merged::Local { shard, op });
                    }
                    EnvelopeRecord::Bcast { seq, op } => {
                        merged.entry(seq).or_insert(Merged::Bcast { op });
                    }
                    EnvelopeRecord::Prepare { seq, a, b, op } => {
                        merged.entry(seq).or_insert(Merged::Cross { a, b, op });
                    }
                    EnvelopeRecord::Commit { seq } => {
                        shard_commits.insert(seq);
                    }
                }
            }
        }
        let mut replayed = 0usize;
        let mut rolled_back_prepares = Vec::new();
        for (seq, entry) in merged {
            match entry {
                Merged::Local { shard, op } => {
                    let plan = router.plan(&op).map_err(HybridError::Journal)?;
                    let local = matches!(plan, RoutePlan::One { .. } | RoutePlan::NewPart { .. });
                    if !local || plan.home() != shard {
                        return Err(HybridError::Journal(format!(
                            "local journal record at seq {seq} replans off shard {shard}"
                        )));
                    }
                    // A failed apply is a reproduced failure, not a
                    // recovery error.
                    let _ = execute_plan(
                        &mut router,
                        &mut [&mut engines[shard]],
                        &op,
                        plan,
                        Some(seq),
                    )
                    .map_err(HybridError::Journal)?;
                    replayed += 1;
                }
                Merged::Bcast { op } => {
                    let mut all: Vec<&mut Engine> = engines.iter_mut().collect();
                    let _ =
                        execute_plan(&mut router, &mut all, &op, RoutePlan::AllShards, Some(seq))
                            .map_err(HybridError::Journal)?;
                    replayed += 1;
                }
                Merged::Cross { a, b, op } => {
                    // Lazy commit check: the participating partitions
                    // may have been registered by replayed ops after
                    // the checkpoint, so resolve them here, in
                    // sequence order.
                    let committed = match (router.shard_of_part(a), router.shard_of_part(b)) {
                        (Ok(sa), Ok(sb)) => {
                            if commits[sa].contains(&seq) && commits[sb].contains(&seq) {
                                Some((sa, sb))
                            } else {
                                None
                            }
                        }
                        _ => None,
                    };
                    match committed {
                        Some((sa, sb)) => {
                            router
                                .commit_cross(&op, a, b, sa, sb, Some(seq))
                                .map_err(HybridError::Journal)?;
                            replayed += 1;
                        }
                        None => {
                            // Orphaned prepare: burn the sequence (so
                            // post-recovery vids stay monotone) and
                            // record nothing.
                            router.assign_seq(Some(seq));
                            rolled_back_prepares.push(seq);
                        }
                    }
                }
            }
        }
        // The target must be reached exactly: a forced-sequence replay
        // advances the router through every persisted commit at or
        // below it, so falling short means the journals never recorded
        // the requested commit.
        if let Some(t) = target {
            if router.next_seq != t + 1 {
                return Err(HybridError::SeqUnreachable {
                    requested: t,
                    reachable: router.next_seq.saturating_sub(1),
                });
            }
        }
        let report = RecoveryReport {
            replayed,
            dropped_fragment,
            torn_segment,
            torn_offset,
            chain_break: None,
            rolled_back_prepares,
        };
        // Retention is a runtime knob, not persisted state: a
        // recovered service starts with the default policy and the
        // recovered head as its only retained seq.
        Ok((
            ShardedService::from_engines(engines, router, RetentionPolicy::default()),
            report,
        ))
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and builds a [`ShardedService`] — shard count plus the
/// engine options every partition engine is built with.
#[derive(Debug)]
pub struct ShardedServiceBuilder {
    shards: usize,
    staging: Option<StagingMode>,
    features: Option<FutureFeatures>,
    trace_capacity: Option<usize>,
    retention: Option<RetentionPolicy>,
}

impl ShardedServiceBuilder {
    /// A builder for a single-shard service with default options.
    pub fn new() -> ShardedServiceBuilder {
        ShardedServiceBuilder {
            shards: 1,
            staging: None,
            features: None,
            trace_capacity: None,
            retention: None,
        }
    }

    /// The number of partition engines (clamped to at least one).
    pub fn shards(mut self, shards: usize) -> ShardedServiceBuilder {
        self.shards = shards.max(1);
        self
    }

    /// The staging mode every partition engine runs in.
    pub fn staging_mode(mut self, mode: StagingMode) -> ShardedServiceBuilder {
        self.staging = Some(mode);
        self
    }

    /// The future-features toggles every partition engine runs with.
    pub fn future_features(mut self, features: FutureFeatures) -> ShardedServiceBuilder {
        self.features = Some(features);
        self
    }

    /// The trace ring capacity of every partition engine.
    pub fn trace_capacity(mut self, capacity: usize) -> ShardedServiceBuilder {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The history retention policy of the composed-view ring.
    pub fn retention(mut self, policy: RetentionPolicy) -> ShardedServiceBuilder {
        self.retention = Some(policy);
        self
    }

    /// Builds the service: `shards` identically configured engines
    /// behind one router.
    pub fn build(self) -> ShardedService {
        let engines = (0..self.shards)
            .map(|_| {
                let mut builder = Engine::builder();
                if let Some(mode) = self.staging {
                    builder = builder.staging_mode(mode);
                }
                if let Some(features) = self.features {
                    builder = builder.future_features(features);
                }
                if let Some(capacity) = self.trace_capacity {
                    builder = builder.trace_capacity(capacity);
                }
                builder.build()
            })
            .collect();
        ShardedService::from_engines(
            engines,
            ShardRouter::new(self.shards),
            self.retention.unwrap_or_default(),
        )
    }
}

impl Default for ShardedServiceBuilder {
    fn default() -> ShardedServiceBuilder {
        ShardedServiceBuilder::new()
    }
}

// ---------------------------------------------------------------------------
// Sessions and the composed read view
// ---------------------------------------------------------------------------

/// A user-scoped handle over a [`ShardedService`]: the one [`Session`]
/// type, instantiated for the sharded write stack. Every id it takes
/// or returns is in *virtual* form — callers never see shard-local ids
/// unless they go through the [`ShardView::shard`] escape hatch.
pub type ShardedSession = Session<ShardedService>;

impl WriteStack for ShardedService {
    type View = ShardView;
    type Subscription = ();

    fn subscribe(&self) {}

    fn submit(&self, op: Op) -> HybridResult<(u64, Event)> {
        ShardedService::submit(self, op)
    }

    fn view(&self) -> Arc<ShardView> {
        ShardedService::view(self)
    }

    fn is_live(&self, view: &ShardView) -> bool {
        view.version == self.inner.version.load(Ordering::Acquire)
    }

    fn at(&self, seq: u64) -> HybridResult<Arc<ShardView>> {
        ShardedService::at(self, seq)
    }
}

/// The router's contribution to a [`ShardView`]: the frozen virtual-id
/// maps, partition registry and cross-partition relations — clones of
/// the router's persistent tables, sharing every node with the live
/// router and with the other retained views.
#[derive(Debug, Clone)]
pub struct RouterView {
    tables: RouterTables,
    nshards: usize,
    seq: u64,
}

impl RouterView {
    /// The owning shard and shard-local id of a virtual id — `None`
    /// for broadcast entities (which live on every shard) and unknown
    /// ids.
    pub fn resolve(&self, raw: u64) -> Option<(usize, u64)> {
        self.tables.resolve(raw)
    }

    /// The shard-local id of a virtual id on a given shard: broadcast
    /// entities resolve everywhere, sharded entities only on their
    /// owner, bootstrap ids (below [`VIRT_BASE`]) pass through.
    pub fn local_on(&self, raw: u64, shard: usize) -> Option<u64> {
        if raw < VIRT_BASE {
            return Some(raw);
        }
        match self.tables.forward.get(&raw)? {
            VirtEntry::Broadcast { locals } => locals.get(shard).copied(),
            VirtEntry::Sharded { part, local } => {
                (self.tables.shard_of(*part)? == shard).then_some(*local)
            }
        }
    }

    /// The registered partitions as `(name, shard)` pairs, sorted by
    /// name (built on call).
    pub fn partitions(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .tables
            .partitions
            .values()
            .map(|p| (p.name.to_string(), p.shard as usize))
            .collect();
        out.sort_unstable();
        out
    }

    /// Cross-partition `comp-of` edges as `(parent cv, child cell)`
    /// virtual-id pairs, in commit order (built on call).
    pub fn cross_comp_edges(&self) -> Vec<(u64, u64)> {
        self.tables.comp_edges.values().copied().collect()
    }

    /// Cross-partition equivalence edges as virtual-id pairs, in
    /// commit order (built on call).
    pub fn cross_equivalences(&self) -> Vec<(u64, u64)> {
        self.tables.equiv_edges.values().copied().collect()
    }

    /// The number of shards behind the view.
    pub fn shards(&self) -> usize {
        self.nshards
    }

    /// The next global commit sequence at capture time.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// A composed point-in-time read view over every shard's published
/// [`Snapshot`] plus the router's id map — the sharded counterpart of
/// [`Service::snapshot`](crate::Service::snapshot). Cheap to capture
/// (Arc clones) and revalidated against a version counter.
#[derive(Debug)]
pub struct ShardView {
    version: u64,
    snaps: Vec<Arc<Snapshot>>,
    router: RouterView,
}

impl ShardView {
    /// The number of shard snapshots composed into this view.
    pub fn shards(&self) -> usize {
        self.snaps.len()
    }

    /// One shard's snapshot — the escape hatch into shard-local ids
    /// (use [`RouterView::local_on`] to translate).
    pub fn shard(&self, shard: usize) -> &Arc<Snapshot> {
        &self.snaps[shard]
    }

    /// The router's id map and relation tables at capture time.
    pub fn router(&self) -> &RouterView {
        &self.router
    }

    /// The view's monotone freshness version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The next global commit sequence at capture time.
    pub fn seq(&self) -> u64 {
        self.router.seq
    }

    /// Browses a design object version through the owning shard's
    /// snapshot — the zero-materialization read path (no journal
    /// entry, no engine lock).
    pub fn browse(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        let (shard, local_user, local_dov) = self.locate(user, dov)?;
        self.snaps[shard].browse(local_user, local_dov)
    }

    /// Reads design data through the owning shard's snapshot.
    pub fn read_design_data(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        let (shard, local_user, local_dov) = self.locate(user, dov)?;
        self.snaps[shard].read_design_data(local_user, local_dov)
    }

    fn locate(&self, user: UserId, dov: DovId) -> HybridResult<(usize, UserId, DovId)> {
        let (shard, local) = self.router.resolve(dov.raw()).ok_or_else(|| {
            HybridError::ShardRouting(format!(
                "design object version {} has no owning shard",
                dov.raw()
            ))
        })?;
        let local_user = self.router.local_on(user.raw(), shard).ok_or_else(|| {
            HybridError::ShardRouting(format!("user {} is unknown on shard {shard}", user.raw()))
        })?;
        Ok((shard, UserId::from_raw(local_user), DovId::from_raw(local)))
    }

    fn resolve_cv(&self, cv: CellVersionId) -> HybridResult<(usize, CellVersionId)> {
        let (shard, local) = self.router.resolve(cv.raw()).ok_or_else(|| {
            HybridError::ShardRouting(format!("cell version {} has no owning shard", cv.raw()))
        })?;
        Ok((shard, CellVersionId::from_raw(local)))
    }

    /// Everything that goes stale if `cv` changes — the cross-shard
    /// twin of [`Snapshot::stale_dovs`]: each shard's local
    /// derivation/equivalence walk, glued together through the
    /// router's cross-partition equivalence edges, answered in virtual
    /// ids. Sorted by id, so the answer is invariant across shard
    /// counts for the same op stream. The walk touches only what it
    /// reaches: ids lift through the router's reverse maps and cross
    /// edges come from its equivalence adjacency, both persistent maps
    /// the view shares with the router, so no per-query table is
    /// built.
    ///
    /// # Errors
    ///
    /// [`HybridError::ShardRouting`] for ids the view does not know.
    pub fn stale_dovs(&self, cv: CellVersionId) -> HybridResult<Vec<DovId>> {
        let (cv_shard, local_cv) = self.resolve_cv(cv)?;
        let tables = &self.router.tables;
        let seeds: Vec<u64> = self.snaps[cv_shard]
            .dovs_under(local_cv)
            .into_iter()
            .filter_map(|d| tables.vid_of(cv_shard, d.raw()))
            .collect();
        let stale = oms::graph::reachable(&seeds, |vid| {
            let mut out = Vec::new();
            if let Some((shard, local)) = tables.resolve(vid) {
                for n in self.snaps[shard].impact_neighbors(DovId::from_raw(local)) {
                    out.extend(tables.vid_of(shard, n));
                }
            }
            if let Some(glued) = tables.equiv_adj.get(&vid) {
                out.extend(glued.keys());
            }
            out
        });
        Ok(stale.into_iter().map(DovId::from_raw).collect())
    }

    /// The stale set of [`ShardView::stale_dovs`] narrowed to versions
    /// mirrored into FMCAD, with their Table-1 mirror locations.
    ///
    /// # Errors
    ///
    /// [`HybridError::ShardRouting`] for ids the view does not know.
    pub fn impacted_cellviews(
        &self,
        cv: CellVersionId,
    ) -> HybridResult<Vec<(DovId, Arc<MirrorLocation>)>> {
        Ok(self.impact(cv)?.1)
    }

    /// [`ShardView::stale_dovs`] and [`ShardView::impacted_cellviews`]
    /// from one walk of the cross-shard graph.
    ///
    /// # Errors
    ///
    /// [`HybridError::ShardRouting`] for ids the view does not know.
    pub fn impact(&self, cv: CellVersionId) -> HybridResult<ImpactAnswer> {
        let stale = self.stale_dovs(cv)?;
        let mirrored = stale
            .iter()
            .filter_map(|&dov| {
                let (shard, local) = self.router.resolve(dov.raw())?;
                Some((dov, self.snaps[shard].mirror_arc(DovId::from_raw(local))?))
            })
            .collect();
        Ok((stale, mirrored))
    }
}

impl ReadView for ShardView {
    fn browse(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        ShardView::browse(self, user, dov)
    }

    fn read_design_data(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        ShardView::read_design_data(self, user, dov)
    }

    /// The owning shard's baseline, lifted into virtual ids.
    fn design_object_versions(
        &self,
        cv: CellVersionId,
    ) -> HybridResult<Vec<(DesignObjectId, u32)>> {
        let (shard, local_cv) = self.resolve_cv(cv)?;
        let mut out = self.snaps[shard]
            .design_object_versions(local_cv)?
            .into_iter()
            .map(
                |(d, count)| match self.router.tables.vid_of(shard, d.raw()) {
                    Some(vid) => Ok((DesignObjectId::from_raw(vid), count)),
                    None => Err(HybridError::ShardRouting(format!(
                        "design object {} has no virtual id",
                        d.raw()
                    ))),
                },
            )
            .collect::<HybridResult<Vec<_>>>()?;
        out.sort_unstable_by_key(|(d, _)| *d);
        Ok(out)
    }
}

impl ShardedService {
    /// The current composed read view, rebuilt only when a write has
    /// been published since the last capture.
    pub fn view(&self) -> Arc<ShardView> {
        let version = self.inner.version.load(Ordering::Acquire);
        if let Some(view) = lock(&self.inner.view).as_ref() {
            if view.version == version {
                return Arc::clone(view);
            }
        }
        let snaps: Vec<Arc<Snapshot>> = self.inner.lanes.iter().map(Lane::snapshot).collect();
        let router = {
            let router = lock(&self.inner.router);
            RouterView {
                tables: router.tables.clone(),
                nshards: router.nshards,
                seq: router.next_seq,
            }
        };
        let view = Arc::new(ShardView {
            version,
            snaps,
            router,
        });
        *lock(&self.inner.view) = Some(Arc::clone(&view));
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulation::ToolOutput;
    use crate::framework::StandardFlow;
    use jcf::{CellId, ProjectId, TeamId, VariantId};

    /// The recorded sharded fixture's envelope logs, router images and
    /// epoch metadata parse and re-render to the bytes on disk.
    #[test]
    fn fixture_records_re_render_byte_for_byte() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/sharded_backup_with_op_segments");
        let mut records = 0;
        for epoch in 1..=3 {
            let dir = root.join(format!("ck-{epoch}"));
            let lines = |name: &str| -> Vec<String> {
                std::fs::read_to_string(dir.join(name))
                    .map(|t| t.lines().skip(1).map(str::to_owned).collect())
                    .unwrap_or_default()
            };
            for shard in 0..2 {
                for line in lines(&format!("shard-{shard}.log")) {
                    assert_eq!(EnvelopeRecord::parse_line(&line).unwrap().to_line(), line);
                    records += 1;
                }
            }
            for line in lines(EPOCH_META) {
                assert_eq!(EpochRecord::parse_line(&line).unwrap().to_line(), line);
            }
            let image = lines(ROUTER_META);
            let router = ShardRouter::from_meta(&image).unwrap();
            assert_eq!(router.meta_lines(router.epoch), image, "ck-{epoch}");
        }
        assert!(records > 0, "the fixture's envelope logs hold records");
    }

    const NETLIST: &[u8] = b"netlist adder\nport a input\n";

    struct Bootstrapped {
        service: ShardedService,
        designer: UserId,
        team: TeamId,
        flow: StandardFlow,
    }

    fn bootstrap(shards: usize) -> Bootstrapped {
        let service = ShardedService::new(shards);
        let admin = service.open_session(service.admin());
        let designer = admin.add_user("alice", false).expect("fresh user");
        let team = admin.add_team("asic").expect("fresh team");
        admin
            .add_team_member(team, designer)
            .expect("manager adds members");
        let flow = admin.standard_flow("asic").expect("fresh flow");
        Bootstrapped {
            service,
            designer,
            team,
            flow,
        }
    }

    /// One cell version reserved and drawn in the named project; the
    /// returned ids are all virtual.
    fn drawn_cell(
        b: &Bootstrapped,
        project_name: &str,
    ) -> (ProjectId, CellId, CellVersionId, VariantId, DovId) {
        let alice = b.service.open_session(b.designer);
        let project = alice.create_project(project_name).expect("fresh project");
        let cell = alice.create_cell(project, "adder").expect("fresh cell");
        let (cv, variant) = alice
            .create_cell_version(cell, b.flow.flow, b.team)
            .expect("fresh version");
        alice.reserve(cv).expect("free version");
        let dovs = alice
            .run_activity(
                variant,
                b.flow.enter_schematic,
                false,
                vec![ToolOutput {
                    viewtype: "schematic".into(),
                    data: NETLIST.to_vec().into(),
                }],
                None,
            )
            .expect("schematic entry");
        (project, cell, cv, variant, dovs[0])
    }

    #[test]
    fn placement_is_pure_and_total() {
        for n in [1, 2, 4, 8] {
            assert!(shard_of_name("alu16", n) < n);
            assert_eq!(shard_of_name("alu16", n), shard_of_name("alu16", n));
        }
        assert_eq!(shard_of_name("anything", 1), 0);
    }

    #[test]
    fn created_ids_are_virtual_and_browsable() {
        let b = bootstrap(2);
        assert!(b.designer.raw() >= VIRT_BASE, "created ids are virtual");
        assert!(b.flow.flow.raw() >= VIRT_BASE);
        let (project, _, _, _, dov) = drawn_cell(&b, "alu16");
        assert!(project.raw() >= VIRT_BASE);
        let view = b.service.view();
        let data = view.browse(b.designer, dov).expect("visible to holder");
        assert_eq!(data.as_slice(), NETLIST);
        let via_session = b
            .service
            .open_session(b.designer)
            .browse(dov)
            .expect("snapshot browse");
        assert_eq!(via_session.as_slice(), NETLIST);
    }

    #[test]
    fn partitions_land_on_their_hashed_shard() {
        let b = bootstrap(4);
        let (project, ..) = drawn_cell(&b, "alu16");
        let expected = shard_of_name("alu16", 4);
        assert_eq!(
            b.service
                .resolve_shard(project.raw())
                .map(|(shard, _)| shard),
            Some(expected)
        );
        let partitions = b.service.view().router().partitions();
        assert_eq!(partitions, vec![("alu16".to_string(), expected)]);
    }

    /// The determinism tentpole: the same op script commits with
    /// byte-identical `(seq, event)` streams at 1, 2 and 4 shards.
    #[test]
    fn event_stream_is_invariant_across_shard_counts() {
        let streams: Vec<Vec<(u64, Event)>> = [1usize, 2, 4]
            .into_iter()
            .map(|shards| {
                let b = bootstrap(shards);
                let alice = b.service.open_session(b.designer);
                let mut stream = Vec::new();
                for name in ["alu16", "dsp", "rom", "fpu"] {
                    let project = alice.create_project(name).expect("fresh project");
                    let cell = alice.create_cell(project, "top").expect("fresh cell");
                    let (cv, variant) = alice
                        .create_cell_version(cell, b.flow.flow, b.team)
                        .expect("fresh version");
                    alice.reserve(cv).expect("free version");
                    stream.push(
                        alice
                            .apply_seq(Op::RunActivity {
                                user: b.designer,
                                variant,
                                activity: b.flow.enter_schematic,
                                override_pending: false,
                                outputs: vec![("schematic".into(), NETLIST.to_vec().into())],
                                session_error: None,
                            })
                            .expect("schematic entry"),
                    );
                }
                // A reproduced failure: duplicate project name.
                alice
                    .create_project("alu16")
                    .expect_err("duplicate project must fail");
                stream
            })
            .collect();
        assert_eq!(streams[0], streams[1], "1 vs 2 shards");
        assert_eq!(streams[0], streams[2], "1 vs 4 shards");
    }

    #[test]
    fn cross_partition_ops_two_phase_commit() {
        for shards in [1usize, 2] {
            let b = bootstrap(shards);
            let (_, _, cv_a, _, dov_a) = drawn_cell(&b, "alu16");
            let (_, cell_b, _, _, dov_b) = drawn_cell(&b, "dsp");
            let alice = b.service.open_session(b.designer);
            let comp_seq = alice.declare_comp_of(cv_a, cell_b).expect("cross comp-of");
            let equiv_seq = alice.mark_equivalent(dov_a, dov_b).expect("cross equiv");
            let stats = b.service.stats();
            assert_eq!(stats.cross_commits, 2, "at {shards} shard(s)");
            let view = b.service.view();
            assert_eq!(
                view.router().cross_comp_edges(),
                [(cv_a.raw(), cell_b.raw())]
            );
            assert_eq!(
                view.router().cross_equivalences(),
                [(dov_a.raw(), dov_b.raw())]
            );
            assert!(comp_seq < equiv_seq);
        }
    }

    #[test]
    fn same_partition_relations_stay_local() {
        let b = bootstrap(2);
        let (project, _, cv, _, _) = drawn_cell(&b, "alu16");
        let alice = b.service.open_session(b.designer);
        let child = alice.create_cell(project, "carry").expect("fresh cell");
        alice.declare_comp_of(cv, child).expect("local comp-of");
        let stats = b.service.stats();
        assert_eq!(stats.cross_commits, 0, "same partition is not a 2PC");
    }

    #[test]
    fn routing_errors_are_typed() {
        let b = bootstrap(2);
        let alice = b.service.open_session(b.designer);
        let bogus = ProjectId::from_raw(VIRT_BASE + 999 * 256);
        let err = alice.create_cell(bogus, "x").expect_err("unknown vid");
        assert_eq!(err.kind(), "shard-routing");
        // A broadcast entity cannot anchor a partition op.
        let err = b
            .service
            .submit(Op::CreateCellVersion {
                cell: CellId::from_raw(b.team.raw()),
                flow: b.flow.flow,
                team: b.team,
            })
            .expect_err("broadcast id cannot own a partition op");
        assert_eq!(err.kind(), "shard-routing");
    }

    #[test]
    fn broadcast_rejections_are_uniform() {
        let b = bootstrap(4);
        let admin = b.service.open_session(b.service.admin());
        admin
            .add_user("alice", false)
            .expect_err("duplicate user everywhere");
        // The service keeps working afterwards.
        admin.add_user("bob", false).expect("fresh user");
    }

    #[test]
    fn sync_before_checkpoint_is_an_error() {
        let b = bootstrap(2);
        let mut fs = Vfs::new();
        let root = VfsPath::root();
        let err = b.service.sync(&mut fs, &root).expect_err("no epoch yet");
        assert_eq!(err.kind(), "journal");
    }

    #[test]
    fn checkpoint_recover_round_trips_fingerprints() {
        let b = bootstrap(2);
        let (_, _, cv_a, _, dov_a) = drawn_cell(&b, "alu16");
        let mut fs = Vfs::new();
        let root = VfsPath::root();
        b.service.checkpoint(&mut fs, &root).expect("checkpoint");
        // Post-checkpoint tail: a new partition, a cross 2PC, and a
        // reproduced failure — all carried by the envelope journals.
        let (_, cell_b, _, _, dov_b) = drawn_cell(&b, "dsp");
        let alice = b.service.open_session(b.designer);
        alice.declare_comp_of(cv_a, cell_b).expect("cross comp-of");
        alice.mark_equivalent(dov_a, dov_b).expect("cross equiv");
        alice
            .create_project("dsp")
            .expect_err("duplicate project must fail");
        b.service.sync(&mut fs, &root).expect("sync");
        let live = b.service.state_fingerprint().expect("live fingerprint");
        let (recovered, report) = ShardedService::recover(&mut fs, &root).expect("recover");
        assert_eq!(
            recovered
                .state_fingerprint()
                .expect("recovered fingerprint"),
            live
        );
        assert!(report.replayed > 0);
        assert!(report.rolled_back_prepares.is_empty());
        assert!(report.dropped_fragment.is_none());
        // The recovered service keeps committing at the right seq.
        let next = recovered.open_session(b.designer);
        let before = b.service.stats().seq;
        let (seq, _) = next
            .apply_seq(Op::CreateProject { name: "fpu".into() })
            .expect("post-recovery write");
        assert_eq!(seq, before);
        assert_eq!(
            recovered
                .view()
                .browse(b.designer, dov_a)
                .expect("recovered data")
                .as_slice(),
            NETLIST
        );
    }

    #[test]
    fn recovery_requires_checkpoint_and_reports_missing_store() {
        let mut fs = Vfs::new();
        let err = ShardedService::recover(&mut fs, &VfsPath::root())
            .expect_err("empty store has no CURRENT pointer");
        assert_eq!(err.kind(), "journal");
    }

    #[test]
    fn concurrent_writers_preserve_per_project_order() {
        let b = bootstrap(4);
        let alice = b.service.open_session(b.designer);
        let projects: Vec<ProjectId> = (0..4)
            .map(|i| alice.create_project(&format!("p{i}")).expect("fresh"))
            .collect();
        let threads: Vec<_> = projects
            .iter()
            .enumerate()
            .map(|(w, &project)| {
                let service = b.service.clone();
                let user = b.designer;
                std::thread::spawn(move || {
                    let session = service.open_session(user);
                    for i in 0..8 {
                        session
                            .create_cell(project, &format!("c{w}-{i}"))
                            .expect("fresh cell");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer");
        }
        let stats = b.service.stats();
        let total: u64 = stats.shards.iter().map(|s| s.ops).sum();
        // Broadcasts count once per shard; everything else once.
        assert!(total >= 4 * 8);
        let view = b.service.view();
        for (w, &project) in projects.iter().enumerate() {
            let (shard, local) = view.router().resolve(project.raw()).expect("placed");
            let snap = view.shard(shard);
            assert_eq!(
                snap.jcf().cells_of(ProjectId::from_raw(local)).len(),
                8,
                "writer {w}'s cells on shard {shard}"
            );
        }
    }

    /// The per-query derivation the composed view ran before the
    /// router kept its reverse maps and equivalence adjacency itself:
    /// the oracle the maintained maps must equal.
    fn assert_router_maps_match_oracle(service: &ShardedService, when: &str) {
        let router = lock(&service.inner.router);
        let tables = &router.tables;
        let mut reverse: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); router.nshards];
        for (vid, entry) in tables.forward.iter() {
            match entry {
                VirtEntry::Broadcast { locals } => {
                    for (shard, local) in locals.iter().enumerate() {
                        reverse[shard].insert(*local, vid);
                    }
                }
                VirtEntry::Sharded { part, local } => {
                    if let Some(shard) = tables.shard_of(*part) {
                        reverse[shard].insert(*local, vid);
                    }
                }
            }
        }
        for (shard, oracle) in reverse.iter().enumerate() {
            let kept: BTreeMap<u64, u64> =
                tables.reverse[shard].iter().map(|(k, v)| (k, *v)).collect();
            assert_eq!(&kept, oracle, "{when}: reverse map of shard {shard}");
        }
        let mut adjacency: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for &(a, b) in tables.equiv_edges.values() {
            adjacency.entry(a).or_default().insert(b);
            adjacency.entry(b).or_default().insert(a);
        }
        let kept: BTreeMap<u64, BTreeSet<u64>> = tables
            .equiv_adj
            .iter()
            .map(|(vid, partners)| (vid, partners.keys().collect()))
            .collect();
        assert_eq!(kept, adjacency, "{when}: equivalence adjacency");
    }

    #[test]
    fn router_maintained_maps_equal_their_derivation_live_and_recovered() {
        let b = bootstrap(2);
        let alice = b.service.open_session(b.designer);
        let admin = b.service.open_session(b.service.admin());
        let mut rng = cad_vfs::SplitMix64::new(0x5EED_0A7E);
        let mut fs = Vfs::new();
        let root = VfsPath::root();
        let mut cvs = Vec::new();
        let mut cells = Vec::new();
        let mut dovs = Vec::new();
        let mut boundaries = Vec::new();
        for k in 0..6 {
            let (_, cell, cv, _, dov) = drawn_cell(&b, &format!("proj{k}"));
            cells.push(cell);
            cvs.push(cv);
            dovs.push(dov);
        }
        b.service.checkpoint(&mut fs, &root).expect("checkpoint");
        for step in 0..120 {
            let pick = |rng: &mut cad_vfs::SplitMix64, n: usize| rng.below(n);
            match rng.below(5) {
                0 => {
                    let (a, z) = (pick(&mut rng, dovs.len()), pick(&mut rng, dovs.len()));
                    let _ = alice.mark_equivalent(dovs[a], dovs[z]);
                }
                1 => {
                    let (a, z) = (pick(&mut rng, cvs.len()), pick(&mut rng, cells.len()));
                    let _ = alice.declare_comp_of(cvs[a], cells[z]);
                }
                2 => {
                    let _ = admin.add_user(&format!("user{step}"), false);
                }
                3 => {
                    let (_, cell, cv, _, dov) = drawn_cell(&b, &format!("extra{step}"));
                    cells.push(cell);
                    cvs.push(cv);
                    dovs.push(dov);
                }
                _ => {
                    let _ = alice.create_project("proj0");
                }
            }
            match rng.below(12) {
                0 => b.service.checkpoint(&mut fs, &root).expect("checkpoint"),
                1 | 2 => b.service.sync(&mut fs, &root).expect("sync"),
                _ => continue,
            }
            boundaries.push(b.service.stats().seq - 1);
        }
        b.service.sync(&mut fs, &root).expect("sync");
        assert!(!lock(&b.service.inner.router).tables.equiv_adj.is_empty());
        assert_router_maps_match_oracle(&b.service, "live");
        let (recovered, _) = ShardedService::recover(&mut fs, &root).expect("recover");
        assert_router_maps_match_oracle(&recovered, "recover");
        for seq in boundaries {
            let (at, _) = ShardedService::recover_at(&mut fs, &root, seq).expect("recover_at");
            assert_router_maps_match_oracle(&at, &format!("recover_at({seq})"));
        }
    }

    #[test]
    fn views_around_a_local_commit_share_the_router_tables() {
        let b = bootstrap(2);
        let (project, _, cv_a, _, dov_a) = drawn_cell(&b, "alu16");
        let (_, cell_b, _, _, dov_b) = drawn_cell(&b, "dsp");
        let alice = b.service.open_session(b.designer);
        alice.declare_comp_of(cv_a, cell_b).expect("cross comp-of");
        alice.mark_equivalent(dov_a, dov_b).expect("cross equiv");
        let before = b.service.view();
        alice.create_cell(project, "mux").expect("local commit");
        let after = b.service.view();
        assert!(
            after.seq() > before.seq(),
            "the commit published a new view"
        );
        let (was, now) = (&before.router().tables, &after.router().tables);
        // What the commit did not touch is the same nodes, not a copy.
        assert!(now.partitions.root_shared_with(&was.partitions));
        assert!(now.comp_edges.root_shared_with(&was.comp_edges));
        assert!(now.equiv_edges.root_shared_with(&was.equiv_edges));
        assert!(now.equiv_adj.root_shared_with(&was.equiv_adj));
        // The new cell registered a vid: those maps path-copied.
        assert!(!now.forward.root_shared_with(&was.forward));
        assert_eq!(now.forward.len(), was.forward.len() + 1);
    }
}
