//! The command/event engine — the only public mutation path.
//!
//! [`Engine`] wraps a [`Hybrid`] installation and routes every
//! mutation through [`Engine::apply`]: the [`Op`] is executed, pushed
//! onto the in-memory ops journal, and its outcome is delivered to the
//! subscribed [`EventSink`]s. Because the journal is replayable, a
//! restart is a checkpoint chain (base image + O(Δ) delta
//! checkpoints) plus a replay of the segmented journal tail
//! ([`Engine::checkpoint`] / [`Engine::restore_from`] /
//! [`Engine::recover_at`]), and snapshot⊕replay provably reproduces
//! the live state ([`Engine::state_fingerprint`]).
//!
//! Convenience wrappers (`engine.reserve(..)`, `engine.publish(..)`,
//! …) build the [`Op`] and destructure the [`Event`], so call sites
//! read like the old direct API while everything still flows through
//! the journal.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use cad_tools::ToolKind;
use cad_vfs::{Blob, Change, CostMeter, NodeKind, Vfs, VfsError, VfsPath};
use fmcad::Fmcad;
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    Jcf, ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};
use oms::persist::{hex, unhex, Fields};
use oms::{DiffEntry, PMap, PmapKey};

use crate::consistency::ConsistencyFinding;
use crate::encapsulation::{ToolOutput, ToolSession};
use crate::error::{HybridError, HybridResult};
use crate::events::{CounterSink, Event, EventSink, JournalEntry, MergeConflict, TraceSink};
use crate::framework::{
    Hybrid, MirrorCache, MirrorKey, MirrorLocation, Mirrored, StagingMode, StandardFlow,
    BOOTSTRAP_SCRIPT,
};
use crate::future::FutureFeatures;
use crate::import::ImportReport;
use crate::ops::Op;
use crate::release::ExportManifest;

/// Magic first line of a persisted file-system image.
const FS_MAGIC: &str = "vfs-image v1";
/// Magic first line of the persisted hybrid coupling state.
const META_MAGIC: &str = "hybrid-meta v1";

/// File names inside a checkpoint directory.
const OMS_IMG: &str = "oms.img";
const FS_IMG: &str = "fs.img";
const HYBRID_META: &str = "hybrid.meta";

/// Magic first line of the checkpoint-chain manifest ([`CK_MANIFEST`]).
const CK_MAGIC: &str = "hybrid-ck v1";
/// Magic first line of a combined delta-checkpoint file (`delta-<k>.ck`):
/// its `m|` lines are meta *records* folded over the chain-head meta.
const DELTA_MAGIC: &str = "hybrid-delta v2";
/// Magic first line of a delta written before meta records: its `m|`
/// lines are the whole meta text. Still read, never written.
const DELTA_MAGIC_V1: &str = "hybrid-delta v1";
/// The chain manifest: renaming its staged replacement into place is
/// the commit point of every delta checkpoint.
const CK_MANIFEST: &str = "ck.manifest";
/// Journal entries per closed segment. Once the open segment reaches
/// this many entries a sync seals it (immutable from then on) and
/// starts the next one, so no sync ever rewrites more than
/// `SEG_CAP - 1` already-persisted entries.
const SEG_CAP: u64 = 64;

/// File name of journal segment `id`.
fn seg_file(id: u64) -> String {
    format!("seg-{id}.log")
}

/// File name of delta checkpoint `id`.
fn delta_file(id: u64) -> String {
    format!("delta-{id}.ck")
}

/// The command/event engine over a [`Hybrid`] installation.
///
/// Dereferences to [`Hybrid`] for all read access; mutations go
/// through [`Engine::apply`] (or the typed wrappers built on it).
///
/// That is the *only* mutation path: there are no raw `jcf_mut()` /
/// `fmcad_mut()` handles that bypass the journal, so this does not
/// compile:
///
/// ```compile_fail
/// let mut en = hybrid::Engine::builder().build();
/// en.jcf_mut(); // no bypass handle exists
/// ```
pub struct Engine {
    hy: Hybrid,
    /// Ops applied since the last checkpoint, in order — including
    /// failed ones, whose partial effects replay must reproduce.
    journal: Vec<Op>,
    /// Total ops applied over the engine's lifetime.
    seq: u64,
    trace: TraceSink,
    counters: CounterSink,
    extra: Vec<Box<dyn EventSink + Send>>,
    /// The last snapshot published at the current `seq`, if any.
    /// Capture is already O(1), but callers republish after every
    /// write batch; when nothing changed in between they all share
    /// one `Arc<Snapshot>` instead of four map clones each.
    snap_cache: std::sync::Mutex<Option<std::sync::Arc<crate::Snapshot>>>,
    /// The engine's memory of its persisted checkpoint chain, present
    /// once [`Engine::checkpoint`] has written a base image. Holds the
    /// chain-head state the next delta diffs against; `None` means the
    /// next checkpoint writes a full base and [`Engine::sync_journal`]
    /// refuses to run.
    durable: Option<DurableState>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("hy", &self.hy)
            .field("journal", &self.journal.len())
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Deref for Engine {
    type Target = Hybrid;

    fn deref(&self) -> &Hybrid {
        &self.hy
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine over a fresh hybrid installation (see
    /// [`Hybrid`] for what the bootstrap registers). The bootstrap is
    /// part of construction, not of the journal.
    pub fn new() -> Engine {
        Engine::from_hybrid(Hybrid::new(), TraceSink::default(), Vec::new())
    }

    /// Starts an [`EngineBuilder`](crate::EngineBuilder), the preferred
    /// way to configure staging mode, future features, fault plans and
    /// event sinks before the first operation runs.
    pub fn builder() -> crate::EngineBuilder {
        crate::EngineBuilder::new()
    }

    /// Assembles an engine around an already-configured [`Hybrid`]
    /// installation. The journal starts empty: whatever configuration
    /// the builder applied is construction, not history.
    pub(crate) fn from_hybrid(
        hy: Hybrid,
        trace: TraceSink,
        extra: Vec<Box<dyn EventSink + Send>>,
    ) -> Engine {
        Engine {
            hy,
            journal: Vec::new(),
            seq: 0,
            trace,
            counters: CounterSink::default(),
            extra,
            snap_cache: std::sync::Mutex::new(None),
            durable: None,
        }
    }

    /// Total operations applied so far (successes and failures).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The ops applied since the last checkpoint.
    pub fn journal_ops(&self) -> &[Op] {
        &self.journal
    }

    /// Freezes the current state into a thread-shareable
    /// [`Snapshot`](crate::Snapshot): reads against it are zero-copy
    /// and cost the engine nothing.
    ///
    /// Capture itself is O(1) (the database and coupling maps are
    /// persistent structures), and repeat calls at an unchanged
    /// [`Engine::seq`] return the *same* `Arc<Snapshot>` — callers
    /// that republish defensively share one allocation.
    pub fn snapshot(&self) -> std::sync::Arc<crate::Snapshot> {
        let mut cache = self
            .snap_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(snap) = cache.as_ref() {
            if snap.seq() == self.seq {
                return std::sync::Arc::clone(snap);
            }
        }
        let snap = std::sync::Arc::new(crate::Snapshot::capture(&self.hy, self.seq));
        *cache = Some(std::sync::Arc::clone(&snap));
        snap
    }

    /// Drops the cached snapshot; used by the mutation paths that do
    /// not advance `seq` (raw handles, checkpointing).
    fn invalidate_snap_cache(&self) {
        *self
            .snap_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// The built-in tracing ring buffer (the shell's `journal` view).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The built-in operation/failure counters.
    pub fn counters(&self) -> &CounterSink {
        &self.counters
    }

    /// Applies one operation: executes it against the coupled
    /// frameworks, journals it (success or failure — failed ops can
    /// have partial effects, e.g. a started activity execution, that a
    /// replay must reproduce), and notifies the sinks.
    ///
    /// # Errors
    ///
    /// Returns whatever the underlying operation returns.
    pub fn apply(&mut self, op: Op) -> HybridResult<Event> {
        let result = self.exec(&op);
        self.record(op, result.as_ref());
        result
    }

    fn record(&mut self, op: Op, outcome: Result<&Event, &HybridError>) {
        self.seq += 1;
        let seq = self.seq;
        match outcome {
            Ok(event) => {
                self.trace.on_event(seq, &op, event);
                self.counters.on_event(seq, &op, event);
                for sink in &mut self.extra {
                    sink.on_event(seq, &op, event);
                }
            }
            Err(error) => {
                self.trace.on_error(seq, &op, error);
                self.counters.on_error(seq, &op, error);
                for sink in &mut self.extra {
                    sink.on_error(seq, &op, error);
                }
            }
        }
        self.journal.push(op);
    }

    fn exec(&mut self, op: &Op) -> HybridResult<Event> {
        let hy = &mut self.hy;
        match op {
            Op::AddUser { name, manager } => Ok(Event::UserAdded(hy.jcf.add_user(name, *manager)?)),
            Op::AddTeam { actor, name } => Ok(Event::TeamAdded(hy.jcf.add_team(*actor, name)?)),
            Op::AddTeamMember { actor, team, user } => {
                hy.jcf.add_team_member(*actor, *team, *user)?;
                Ok(Event::TeamMemberAdded(*team, *user))
            }
            Op::RegisterViewtype { name, application } => Ok(Event::ViewtypeRegistered(
                hy.register_viewtype(name, *application)?,
            )),
            Op::RegisterTool { name, kind } => {
                Ok(Event::ToolRegistered(hy.register_tool(name, *kind)?))
            }
            Op::DefineStandardFlow { name } => {
                Ok(Event::StandardFlowDefined(hy.standard_flow(name)?))
            }
            Op::DefineQualityGatedFlow { name } => {
                Ok(Event::QualityGatedFlowDefined(hy.quality_gated_flow(name)?))
            }
            Op::DefineFlow { actor, name } => {
                Ok(Event::FlowDefined(hy.jcf.define_flow(*actor, name)?))
            }
            Op::AddActivity {
                actor,
                flow,
                name,
                tool,
                needs,
                creates,
                predecessors,
            } => Ok(Event::ActivityAdded(hy.jcf.add_activity(
                *actor,
                *flow,
                name,
                *tool,
                needs,
                creates,
                predecessors,
            )?)),
            Op::FreezeFlow { actor, flow } => {
                hy.jcf.freeze_flow(*actor, *flow)?;
                Ok(Event::FlowFrozen(*flow))
            }
            Op::CreateProject { name } => Ok(Event::ProjectCreated(hy.create_project(name)?)),
            Op::CreateCell { project, name } => {
                Ok(Event::CellCreated(hy.create_cell(*project, name)?))
            }
            Op::CreateCellVersion { cell, flow, team } => {
                let (cv, variant) = hy.create_cell_version(*cell, *flow, *team)?;
                Ok(Event::CellVersionCreated(cv, variant))
            }
            Op::DeriveVariant {
                user,
                cv,
                name,
                base,
            } => Ok(Event::VariantDerived(
                hy.jcf.derive_variant(*user, *cv, name, *base)?,
            )),
            Op::DeclareCompOf { user, cv, child } => {
                hy.jcf.declare_comp_of(*user, *cv, *child)?;
                Ok(Event::CompOfDeclared(*cv, *child))
            }
            Op::ShareCell { actor, cell } => {
                hy.share_cell(*actor, *cell)?;
                Ok(Event::CellShared(*cell))
            }
            Op::PromoteVariant { user, winner } => {
                let (cv, variant) = hy.jcf.promote_variant(*user, *winner)?;
                Ok(Event::VariantPromoted(cv, variant))
            }
            Op::Reserve { user, cv } => {
                hy.jcf.reserve(*user, *cv)?;
                Ok(Event::Reserved(*cv))
            }
            Op::Publish { user, cv } => {
                hy.jcf.publish(*user, *cv)?;
                Ok(Event::Published(*cv))
            }
            Op::CreateDesignObject {
                user,
                variant,
                name,
                viewtype,
            } => Ok(Event::DesignObjectCreated(
                hy.jcf
                    .create_design_object(*user, *variant, name, *viewtype)?,
            )),
            Op::AddDesignObjectVersion {
                user,
                design_object,
                data,
            } => Ok(Event::DovAdded(hy.jcf.add_design_object_version(
                *user,
                *design_object,
                data.clone(),
            )?)),
            Op::MarkEquivalent { a, b } => {
                hy.jcf.mark_equivalent(*a, *b)?;
                Ok(Event::MarkedEquivalent(*a, *b))
            }
            Op::MergeForward {
                user,
                cv,
                base_seq: _,
                expected,
                writes,
            } => {
                // Reject inconsistent workspaces before touching any
                // state: every staged write must target a design
                // object that lives under the merged cell version.
                for (design_object, _) in writes {
                    let variant = hy
                        .jcf
                        .variant_of_design_object(*design_object)
                        .map_err(|e| HybridError::Merge(format!("staged write: {e}")))?;
                    let owner = hy
                        .jcf
                        .cell_version_of(variant)
                        .map_err(|e| HybridError::Merge(format!("staged write: {e}")))?;
                    if owner != *cv {
                        return Err(HybridError::Merge(format!(
                            "staged write to {design_object} which belongs to {owner}, not {cv}"
                        )));
                    }
                }
                // Conflict detection is a pure read: a reservation held
                // by someone else first, then every design object that
                // advanced past its branch-point version count, in the
                // workspace's staging order.
                let mut conflicts = Vec::new();
                if let Some(holder) = hy.jcf.reserver(*cv) {
                    if holder != *user {
                        conflicts.push(MergeConflict::ReservedByOther { holder });
                    }
                }
                for (design_object, expected_count) in expected {
                    let found = hy.jcf.versions_of_design_object(*design_object).len() as u32;
                    if found != *expected_count {
                        conflicts.push(MergeConflict::DesignObjectAdvanced {
                            design_object: *design_object,
                            expected: *expected_count,
                            found,
                        });
                    }
                }
                if !conflicts.is_empty() {
                    return Ok(Event::MergeConflict { cv: *cv, conflicts });
                }
                // Clean merge: one atomic reserve → write → publish.
                let already_holder = hy.jcf.reserver(*cv) == Some(*user);
                if !already_holder {
                    hy.jcf.reserve(*user, *cv)?;
                }
                let mut dovs = Vec::with_capacity(writes.len());
                for (design_object, data) in writes {
                    dovs.push(hy.jcf.add_design_object_version(
                        *user,
                        *design_object,
                        data.clone(),
                    )?);
                }
                hy.jcf.publish(*user, *cv)?;
                Ok(Event::MergeApplied { cv: *cv, dovs })
            }
            Op::RunActivity {
                user,
                variant,
                activity,
                override_pending,
                outputs,
                session_error,
            } => {
                let outs: Vec<ToolOutput> = outputs
                    .iter()
                    .map(|(viewtype, data)| ToolOutput {
                        viewtype: viewtype.clone(),
                        data: data.clone(),
                    })
                    .collect();
                let error = session_error.clone();
                let dovs = hy.run_activity(
                    *user,
                    *variant,
                    *activity,
                    *override_pending,
                    move |_session| match error {
                        Some(text) => Err(HybridError::Journal(text)),
                        None => Ok(outs),
                    },
                )?;
                Ok(Event::ActivityRun { dovs })
            }
            Op::Browse { user, dov } => Ok(Event::Browsed {
                data: hy.browse(*user, *dov)?,
            }),
            Op::ReadDesignData { user, dov } => Ok(Event::DesignDataRead {
                data: hy.jcf.read_design_data(*user, *dov)?,
            }),
            Op::CreateConfiguration { user, cv, name } => Ok(Event::ConfigurationCreated(
                hy.jcf.create_configuration(*user, *cv, name)?,
            )),
            Op::CreateConfigVersion {
                user,
                config,
                contents,
            } => Ok(Event::ConfigVersionCreated(
                hy.jcf.create_config_version(*user, *config, contents)?,
            )),
            Op::ExportConfig {
                user,
                config_version,
                dest,
            } => {
                let path = VfsPath::parse(dest)?;
                Ok(Event::ConfigExported(hy.export_config(
                    *user,
                    *config_version,
                    &path,
                )?))
            }
            Op::RunLvs { user, variant } => Ok(Event::LvsRun(hy.run_lvs(*user, *variant)?)),
            Op::SetFutureFeatures { features } => {
                hy.set_future_features(*features);
                Ok(Event::FutureFeaturesSet)
            }
            Op::SetStagingMode { mode } => {
                hy.set_staging_mode(*mode);
                Ok(Event::StagingModeSet)
            }
            Op::ImportLibrary {
                actor,
                library,
                flow,
                team,
            } => {
                let (project, report) = hy.import_library(*actor, library, *flow, *team)?;
                Ok(Event::LibraryImported(project, report))
            }
            Op::FmcadCreateLibrary { name } => {
                hy.fmcad.create_library(name)?;
                Ok(Event::FmcadLibraryCreated)
            }
            Op::FmcadCreateCell { library, cell } => {
                hy.fmcad.create_cell(library, cell)?;
                Ok(Event::FmcadCellCreated)
            }
            Op::FmcadCreateCellview {
                library,
                cell,
                view,
                viewtype,
            } => {
                hy.fmcad.create_cellview(library, cell, view, viewtype)?;
                Ok(Event::FmcadCellviewCreated)
            }
            Op::FmcadCheckout {
                user,
                library,
                cell,
                view,
            } => Ok(Event::FmcadCheckedOut {
                data: hy.fmcad.checkout(user, library, cell, view)?,
            }),
            Op::FmcadCheckin {
                user,
                library,
                cell,
                view,
                data,
            } => Ok(Event::FmcadCheckedIn {
                version: hy.fmcad.checkin(user, library, cell, view, data.clone())?,
            }),
            Op::FmcadPurgeVersion {
                user,
                library,
                cell,
                view,
                version,
            } => {
                hy.fmcad
                    .purge_version(user, library, cell, view, *version)?;
                Ok(Event::FmcadVersionPurged)
            }
            Op::FmcadDirectWrite {
                library,
                cell,
                view,
                version,
                data,
            } => {
                hy.fmcad
                    .direct_file_write(library, cell, view, *version, data.clone())?;
                Ok(Event::FmcadFileWritten)
            }
        }
    }
}

/// Typed wrappers: each builds the [`Op`], applies it, and
/// destructures the matching [`Event`]. Call sites keep the shape of
/// the old direct API while every mutation still flows through the
/// journal.
impl Engine {
    fn unreachable_event(event: Event) -> ! {
        unreachable!("apply returned a mismatched event {:?}", event.kind_name())
    }

    /// Registers a user on the JCF desktop.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub fn add_user(&mut self, name: &str, manager: bool) -> HybridResult<UserId> {
        match self.apply(Op::AddUser {
            name: name.to_owned(),
            manager,
        })? {
            Event::UserAdded(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Creates a team (manager-only).
    ///
    /// # Errors
    ///
    /// Returns JCF permission and name-clash errors.
    pub fn add_team(&mut self, actor: UserId, name: &str) -> HybridResult<TeamId> {
        match self.apply(Op::AddTeam {
            actor,
            name: name.to_owned(),
        })? {
            Event::TeamAdded(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Adds a user to a team (manager-only).
    ///
    /// # Errors
    ///
    /// Returns JCF permission errors.
    pub fn add_team_member(
        &mut self,
        actor: UserId,
        team: TeamId,
        user: UserId,
    ) -> HybridResult<()> {
        self.apply(Op::AddTeamMember { actor, team, user })?;
        Ok(())
    }

    /// Registers a viewtype on both sides of the coupling.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub fn register_viewtype(
        &mut self,
        name: &str,
        application: ToolKind,
    ) -> HybridResult<ViewTypeId> {
        match self.apply(Op::RegisterViewtype {
            name: name.to_owned(),
            application,
        })? {
            Event::ViewtypeRegistered(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Registers an encapsulated tool resource.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub fn register_tool(&mut self, name: &str, kind: ToolKind) -> HybridResult<ToolId> {
        match self.apply(Op::RegisterTool {
            name: name.to_owned(),
            kind,
        })? {
            Event::ToolRegistered(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Defines and freezes the paper's three-tool standard flow.
    ///
    /// # Errors
    ///
    /// Returns JCF errors (e.g. a taken flow name).
    pub fn standard_flow(&mut self, name: &str) -> HybridResult<StandardFlow> {
        match self.apply(Op::DefineStandardFlow {
            name: name.to_owned(),
        })? {
            Event::StandardFlowDefined(flow) => Ok(flow),
            other => Self::unreachable_event(other),
        }
    }

    /// Defines and freezes the quality-gated variant of the standard
    /// flow (§3.5).
    ///
    /// # Errors
    ///
    /// Returns JCF errors (e.g. a taken flow name).
    pub fn quality_gated_flow(&mut self, name: &str) -> HybridResult<StandardFlow> {
        match self.apply(Op::DefineQualityGatedFlow {
            name: name.to_owned(),
        })? {
            Event::QualityGatedFlowDefined(flow) => Ok(flow),
            other => Self::unreachable_event(other),
        }
    }

    /// Defines an empty custom flow (manager-only).
    ///
    /// # Errors
    ///
    /// Returns JCF permission and name-clash errors.
    pub fn define_flow(&mut self, actor: UserId, name: &str) -> HybridResult<FlowId> {
        match self.apply(Op::DefineFlow {
            actor,
            name: name.to_owned(),
        })? {
            Event::FlowDefined(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Adds an activity to an unfrozen flow (manager-only).
    ///
    /// # Errors
    ///
    /// Returns JCF permission and frozen-flow errors.
    #[allow(clippy::too_many_arguments)]
    pub fn add_activity(
        &mut self,
        actor: UserId,
        flow: FlowId,
        name: &str,
        tool: ToolId,
        needs: &[ViewTypeId],
        creates: &[ViewTypeId],
        predecessors: &[ActivityId],
    ) -> HybridResult<ActivityId> {
        match self.apply(Op::AddActivity {
            actor,
            flow,
            name: name.to_owned(),
            tool,
            needs: needs.to_vec(),
            creates: creates.to_vec(),
            predecessors: predecessors.to_vec(),
        })? {
            Event::ActivityAdded(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Freezes a flow so cell versions can use it (manager-only).
    ///
    /// # Errors
    ///
    /// Returns JCF permission errors.
    pub fn freeze_flow(&mut self, actor: UserId, flow: FlowId) -> HybridResult<()> {
        self.apply(Op::FreezeFlow { actor, flow })?;
        Ok(())
    }

    /// Creates a project and its coupled FMCAD library (Table 1).
    ///
    /// # Errors
    ///
    /// Returns name-clash errors from either framework.
    pub fn create_project(&mut self, name: &str) -> HybridResult<ProjectId> {
        match self.apply(Op::CreateProject {
            name: name.to_owned(),
        })? {
            Event::ProjectCreated(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Creates a JCF cell.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub fn create_cell(&mut self, project: ProjectId, name: &str) -> HybridResult<CellId> {
        match self.apply(Op::CreateCell {
            project,
            name: name.to_owned(),
        })? {
            Event::CellCreated(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Creates a cell version (with base variant) and the mapped FMCAD
    /// cell.
    ///
    /// # Errors
    ///
    /// Returns errors from either framework.
    pub fn create_cell_version(
        &mut self,
        cell: CellId,
        flow: FlowId,
        team: TeamId,
    ) -> HybridResult<(CellVersionId, VariantId)> {
        match self.apply(Op::CreateCellVersion { cell, flow, team })? {
            Event::CellVersionCreated(cv, variant) => Ok((cv, variant)),
            other => Self::unreachable_event(other),
        }
    }

    /// Derives a named variant inside a reserved cell version.
    ///
    /// # Errors
    ///
    /// Returns reservation and name-clash errors.
    pub fn derive_variant(
        &mut self,
        user: UserId,
        cv: CellVersionId,
        name: &str,
        base: Option<VariantId>,
    ) -> HybridResult<VariantId> {
        match self.apply(Op::DeriveVariant {
            user,
            cv,
            name: name.to_owned(),
            base,
        })? {
            Event::VariantDerived(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Declares a hierarchy child of a cell version.
    ///
    /// # Errors
    ///
    /// Returns reservation and cross-project errors.
    pub fn declare_comp_of(
        &mut self,
        user: UserId,
        cv: CellVersionId,
        child: CellId,
    ) -> HybridResult<()> {
        self.apply(Op::DeclareCompOf { user, cv, child })?;
        Ok(())
    }

    /// Shares a cell across projects (future-work feature).
    ///
    /// # Errors
    ///
    /// Returns an error when the feature is off, or JCF permission
    /// errors.
    pub fn share_cell(&mut self, actor: UserId, cell: CellId) -> HybridResult<()> {
        self.apply(Op::ShareCell { actor, cell })?;
        Ok(())
    }

    /// Promotes a winning variant into a new cell version.
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    pub fn promote_variant(
        &mut self,
        user: UserId,
        winner: VariantId,
    ) -> HybridResult<(CellVersionId, VariantId)> {
        match self.apply(Op::PromoteVariant { user, winner })? {
            Event::VariantPromoted(cv, variant) => Ok((cv, variant)),
            other => Self::unreachable_event(other),
        }
    }

    /// Reserves a cell version into a designer's workspace.
    ///
    /// # Errors
    ///
    /// Returns JCF reservation errors.
    pub fn reserve(&mut self, user: UserId, cv: CellVersionId) -> HybridResult<()> {
        self.apply(Op::Reserve { user, cv })?;
        Ok(())
    }

    /// Publishes a reserved cell version back to the team.
    ///
    /// # Errors
    ///
    /// Returns JCF reservation errors.
    pub fn publish(&mut self, user: UserId, cv: CellVersionId) -> HybridResult<()> {
        self.apply(Op::Publish { user, cv })?;
        Ok(())
    }

    /// Creates a design object under a variant via the desktop.
    ///
    /// # Errors
    ///
    /// Returns reservation and name-clash errors.
    pub fn create_design_object(
        &mut self,
        user: UserId,
        variant: VariantId,
        name: &str,
        viewtype: ViewTypeId,
    ) -> HybridResult<DesignObjectId> {
        match self.apply(Op::CreateDesignObject {
            user,
            variant,
            name: name.to_owned(),
            viewtype,
        })? {
            Event::DesignObjectCreated(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Adds a design object version (raw desktop write, no tool run).
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    pub fn add_design_object_version(
        &mut self,
        user: UserId,
        design_object: DesignObjectId,
        data: impl Into<Blob>,
    ) -> HybridResult<DovId> {
        match self.apply(Op::AddDesignObjectVersion {
            user,
            design_object,
            data: data.into(),
        })? {
            Event::DovAdded(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Records that two design object versions are equivalent.
    ///
    /// # Errors
    ///
    /// Returns JCF database errors.
    pub fn mark_equivalent(&mut self, a: DovId, b: DovId) -> HybridResult<()> {
        self.apply(Op::MarkEquivalent { a, b })?;
        Ok(())
    }

    /// Runs one encapsulated tool session as a JCF activity (§2.4).
    ///
    /// The live tool session runs exactly once; its outputs (or its
    /// rendered error) are captured into the journaled
    /// [`Op::RunActivity`], so a replay re-feeds the recorded outputs
    /// through the full pipeline without re-running the tool.
    ///
    /// # Errors
    ///
    /// Returns flow violations, reservation errors, consistency
    /// rejections and transfer errors.
    pub fn run_activity(
        &mut self,
        user: UserId,
        variant: VariantId,
        activity: ActivityId,
        override_pending: bool,
        session: impl FnOnce(&ToolSession) -> HybridResult<Vec<ToolOutput>>,
    ) -> HybridResult<Vec<DovId>> {
        let mut captured: Option<Result<Vec<ToolOutput>, String>> = None;
        let result =
            self.hy
                .run_activity(user, variant, activity, override_pending, |tool_session| {
                    let produced = session(tool_session);
                    captured = Some(match &produced {
                        Ok(outputs) => Ok(outputs.clone()),
                        Err(error) => Err(error.to_string()),
                    });
                    produced
                });
        let (outputs, session_error) = match captured {
            Some(Ok(outputs)) => (
                outputs.into_iter().map(|o| (o.viewtype, o.data)).collect(),
                None,
            ),
            Some(Err(error)) => (Vec::new(), Some(error)),
            // The pipeline failed before the tool session ran; replay
            // fails at the same spot before consulting the outputs.
            None => (Vec::new(), None),
        };
        let op = Op::RunActivity {
            user,
            variant,
            activity,
            override_pending,
            outputs,
            session_error,
        };
        let event = result.clone().map(|dovs| Event::ActivityRun { dovs });
        self.record(op, event.as_ref());
        result
    }

    /// Browses (read-only opens) a design object version; pays the
    /// §3.6 copy path.
    ///
    /// # Errors
    ///
    /// Returns visibility and transfer errors.
    pub fn browse(&mut self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        match self.apply(Op::Browse { user, dov })? {
            Event::Browsed { data } => Ok(data),
            other => Self::unreachable_event(other),
        }
    }

    /// Reads design data via the desktop (bumps the desktop counter).
    ///
    /// # Errors
    ///
    /// Returns visibility errors.
    pub fn read_design_data(&mut self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        match self.apply(Op::ReadDesignData { user, dov })? {
            Event::DesignDataRead { data } => Ok(data),
            other => Self::unreachable_event(other),
        }
    }

    /// Creates a configuration under a cell version.
    ///
    /// # Errors
    ///
    /// Returns reservation and name-clash errors.
    pub fn create_configuration(
        &mut self,
        user: UserId,
        cv: CellVersionId,
        name: &str,
    ) -> HybridResult<ConfigId> {
        match self.apply(Op::CreateConfiguration {
            user,
            cv,
            name: name.to_owned(),
        })? {
            Event::ConfigurationCreated(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Freezes a selection of design object versions as a
    /// configuration version.
    ///
    /// # Errors
    ///
    /// Returns conflict and reservation errors.
    pub fn create_config_version(
        &mut self,
        user: UserId,
        config: ConfigId,
        selection: &[DovId],
    ) -> HybridResult<ConfigVersionId> {
        match self.apply(Op::CreateConfigVersion {
            user,
            config,
            contents: selection.to_vec(),
        })? {
            Event::ConfigVersionCreated(id) => Ok(id),
            other => Self::unreachable_event(other),
        }
    }

    /// Exports a configuration version into a directory of the shared
    /// file system (the tapeout package).
    ///
    /// # Errors
    ///
    /// Returns visibility and file system errors.
    pub fn export_config(
        &mut self,
        user: UserId,
        config_version: ConfigVersionId,
        dest: &VfsPath,
    ) -> HybridResult<ExportManifest> {
        match self.apply(Op::ExportConfig {
            user,
            config_version,
            dest: dest.to_string(),
        })? {
            Event::ConfigExported(manifest) => Ok(manifest),
            other => Self::unreachable_event(other),
        }
    }

    /// Runs layout-versus-schematic on a variant's latest views.
    ///
    /// # Errors
    ///
    /// Returns missing-view and parse errors.
    pub fn run_lvs(
        &mut self,
        user: UserId,
        variant: VariantId,
    ) -> HybridResult<cad_tools::LvsReport> {
        match self.apply(Op::RunLvs { user, variant })? {
            Event::LvsRun(report) => Ok(report),
            other => Self::unreachable_event(other),
        }
    }

    /// Imports an uncoupled FMCAD library into the master (Table 1).
    ///
    /// # Errors
    ///
    /// Returns errors from either framework.
    pub fn import_library(
        &mut self,
        actor: UserId,
        library: &str,
        flow: FlowId,
        team: TeamId,
    ) -> HybridResult<(ProjectId, ImportReport)> {
        match self.apply(Op::ImportLibrary {
            actor,
            library: library.to_owned(),
            flow,
            team,
        })? {
            Event::LibraryImported(project, report) => Ok((project, report)),
            other => Self::unreachable_event(other),
        }
    }

    /// Verifies the consistency of a project's mirrored data. A
    /// diagnostic, not an [`Op`]: it journals nothing, so don't rely
    /// on it between a checkpoint and a fingerprint comparison (it
    /// charges the shared file system meter, and under the procedural
    /// interface it may batch-declare discovered hierarchy edges).
    ///
    /// # Errors
    ///
    /// Returns mapping and file system errors.
    pub fn verify_project(&mut self, project: ProjectId) -> HybridResult<Vec<ConsistencyFinding>> {
        self.hy.verify_project(project)
    }

    /// Creates a standalone FMCAD library (out-of-band legacy data).
    ///
    /// # Errors
    ///
    /// Returns FMCAD name-clash errors.
    pub fn fmcad_create_library(&mut self, name: &str) -> HybridResult<()> {
        self.apply(Op::FmcadCreateLibrary {
            name: name.to_owned(),
        })?;
        Ok(())
    }

    /// Creates a cell in an FMCAD library directly.
    ///
    /// # Errors
    ///
    /// Returns FMCAD errors.
    pub fn fmcad_create_cell(&mut self, library: &str, cell: &str) -> HybridResult<()> {
        self.apply(Op::FmcadCreateCell {
            library: library.to_owned(),
            cell: cell.to_owned(),
        })?;
        Ok(())
    }

    /// Creates a cellview in an FMCAD library directly.
    ///
    /// # Errors
    ///
    /// Returns FMCAD errors.
    pub fn fmcad_create_cellview(
        &mut self,
        library: &str,
        cell: &str,
        view: &str,
        viewtype: &str,
    ) -> HybridResult<()> {
        self.apply(Op::FmcadCreateCellview {
            library: library.to_owned(),
            cell: cell.to_owned(),
            view: view.to_owned(),
            viewtype: viewtype.to_owned(),
        })?;
        Ok(())
    }

    /// Checks a cellview out of an FMCAD library directly.
    ///
    /// # Errors
    ///
    /// Returns FMCAD checkout errors.
    pub fn fmcad_checkout(
        &mut self,
        user: &str,
        library: &str,
        cell: &str,
        view: &str,
    ) -> HybridResult<Blob> {
        match self.apply(Op::FmcadCheckout {
            user: user.to_owned(),
            library: library.to_owned(),
            cell: cell.to_owned(),
            view: view.to_owned(),
        })? {
            Event::FmcadCheckedOut { data } => Ok(data),
            other => Self::unreachable_event(other),
        }
    }

    /// Checks data into an FMCAD cellview directly.
    ///
    /// # Errors
    ///
    /// Returns FMCAD checkout errors.
    pub fn fmcad_checkin(
        &mut self,
        user: &str,
        library: &str,
        cell: &str,
        view: &str,
        data: impl Into<Blob>,
    ) -> HybridResult<u32> {
        match self.apply(Op::FmcadCheckin {
            user: user.to_owned(),
            library: library.to_owned(),
            cell: cell.to_owned(),
            view: view.to_owned(),
            data: data.into(),
        })? {
            Event::FmcadCheckedIn { version } => Ok(version),
            other => Self::unreachable_event(other),
        }
    }

    /// Purges one cellview version from an FMCAD library.
    ///
    /// # Errors
    ///
    /// Returns FMCAD conflict errors.
    pub fn fmcad_purge_version(
        &mut self,
        user: &str,
        library: &str,
        cell: &str,
        view: &str,
        version: u32,
    ) -> HybridResult<()> {
        self.apply(Op::FmcadPurgeVersion {
            user: user.to_owned(),
            library: library.to_owned(),
            cell: cell.to_owned(),
            view: view.to_owned(),
            version,
        })?;
        Ok(())
    }

    /// Overwrites a versioned library file behind the framework's back
    /// (the experiments' out-of-band corruption probe).
    ///
    /// # Errors
    ///
    /// Returns file system errors.
    pub fn fmcad_direct_write(
        &mut self,
        library: &str,
        cell: &str,
        view: &str,
        version: u32,
        data: impl Into<Blob>,
    ) -> HybridResult<()> {
        self.apply(Op::FmcadDirectWrite {
            library: library.to_owned(),
            cell: cell.to_owned(),
            view: view.to_owned(),
            version,
            data: data.into(),
        })?;
        Ok(())
    }
}

// --- persistence: checkpoint ⊕ replay ---------------------------------------

fn unhex_str(s: &str) -> HybridResult<String> {
    String::from_utf8(unhex(s).ok_or_else(|| HybridError::Journal("bad hex".to_owned()))?)
        .map_err(|_| HybridError::Journal("hex is not utf-8".to_owned()))
}

fn bad(line: &str) -> HybridError {
    HybridError::Journal(format!("bad meta line {line:?}"))
}

fn parse_num<T: std::str::FromStr>(raw: &str, line: &str) -> HybridResult<T> {
    raw.parse().map_err(|_| bad(line))
}

/// Serialises a whole virtual file system from an already-completed
/// [`fs_scan`]: every directory and file (bytes hex-armoured), then the
/// clock and the cost meter — captured *after* the reads, so a restored
/// instance resumes with exactly the charges the checkpoint walk left
/// behind. Reads nothing itself, so the scan's meter charges are the
/// walk's only cost no matter how many consumers share it.
fn fs_image_from_scan(fs: &Vfs, scan: &[ScanEntry]) -> String {
    let mut image = format!("{FS_MAGIC}\n");
    for entry in scan {
        match entry {
            ScanEntry::Dir(path) => {
                image.push_str(&format!("dir {}\n", hex(path.as_bytes())));
            }
            ScanEntry::File(path, blob) => {
                image.push_str(&format!("file {} {}\n", hex(path.as_bytes()), hex(blob)));
            }
        }
    }
    push_clock_meter(&mut image, "", fs.now(), &fs.meter());
    image
}

/// The `meter` record: the five cost-meter counters.
fn meter_record(meter: &CostMeter) -> String {
    format!(
        "meter {} {} {} {} {}",
        meter.ticks, meter.bytes_read, meter.bytes_written, meter.content_ops, meter.metadata_ops
    )
}

/// Appends the `clock` and `meter` records that close an FMCAD image
/// or delta section, each line behind `prefix`.
fn push_clock_meter(out: &mut String, prefix: &str, clock: u64, meter: &CostMeter) {
    out.push_str(&format!(
        "{prefix}clock {clock}\n{prefix}{}\n",
        meter_record(meter)
    ));
}

/// Rebuilds a virtual file system from [`fs_image_from_scan`] output:
/// its records applied to an empty tree. The recorded meter and clock
/// are returned separately so the caller can install them *after*
/// re-opening FMCAD over the tree (which charges its own parse reads).
fn restore_fs(image: &str) -> HybridResult<(Vfs, CostMeter, u64)> {
    let mut lines = image.lines();
    if lines.next() != Some(FS_MAGIC) {
        return Err(HybridError::Journal(
            "bad file system image header".to_owned(),
        ));
    }
    let mut fs = Vfs::new();
    let (clock, meter) = apply_fs_records(&mut fs, lines, FsRecords::Image)?;
    Ok((fs, meter.unwrap_or_default(), clock.unwrap_or(0)))
}

/// One node of a deterministic pre-order file-system walk.
enum ScanEntry {
    Dir(String),
    File(String, Blob),
}

/// Walks the whole tree once, in the exact order (and with the exact
/// meter charges) the classic full-image walk used: `read_dir` per
/// directory, `metadata` per child, `read` per file, sorted names.
/// Only a base checkpoint walks; a delta charges the same amount
/// through [`Vfs::charge_walk`].
fn fs_scan(fs: &Vfs) -> HybridResult<Vec<ScanEntry>> {
    fn collect(fs: &Vfs, path: &VfsPath, out: &mut Vec<ScanEntry>) -> HybridResult<()> {
        for name in fs.read_dir(path)? {
            let child = path.join(&name)?;
            match fs.metadata(&child)?.kind {
                NodeKind::Directory => {
                    out.push(ScanEntry::Dir(child.to_string()));
                    collect(fs, &child, out)?;
                }
                NodeKind::File => {
                    let data = fs.read(&child)?;
                    out.push(ScanEntry::File(child.to_string(), data));
                }
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    collect(fs, &VfsPath::root(), &mut out)?;
    Ok(out)
}

/// Appends the file-system section of a delta checkpoint: one record
/// per path the tree's change window saw ([`Vfs::changes`]), then the
/// clock and meter. Removals come first and remove whatever node the
/// path names; creations follow, parents first. Reads nothing, so it
/// charges nothing.
fn fs_delta_section(changes: &[Change], clock: u64, meter: &CostMeter, out: &mut String) {
    let path = |p: &VfsPath| hex(p.to_string().as_bytes());
    for change in changes {
        match change {
            Change::Removed(p) => out.push_str(&format!("f|del {}\n", path(p))),
            Change::Dir(p) => out.push_str(&format!("f|dir+ {}\n", path(p))),
            Change::File(p, blob) => {
                out.push_str(&format!("f|file {} {}\n", path(p), hex(blob)));
            }
        }
    }
    push_clock_meter(out, "f|", clock, meter);
}

/// Applies the `f|` records of a delta checkpoint to the chain-head
/// tree, returning the recorded clock and meter (installed into FMCAD
/// only after the re-open, like a full restore does).
fn apply_fs_delta(fs: &mut Vfs, records: &[String]) -> HybridResult<(u64, CostMeter)> {
    match apply_fs_records(fs, records.iter().map(String::as_str), FsRecords::Delta)? {
        (Some(c), Some(m)) => Ok((c, m)),
        _ => Err(HybridError::DeltaChain(
            "delta checkpoint is missing its clock/meter record".to_owned(),
        )),
    }
}

/// The tag set of an FMCAD record list: a whole image carries `dir`
/// records, a delta `del`, `dir-` and `dir+`; both carry `file`,
/// `clock` and `meter`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FsRecords {
    Image,
    Delta,
}

/// Applies FMCAD records to `fs` — the one reader of the image and
/// the delta grammar — and returns the clock and meter they record.
fn apply_fs_records<'a>(
    fs: &mut Vfs,
    lines: impl Iterator<Item = &'a str>,
    records: FsRecords,
) -> HybridResult<(Option<u64>, Option<CostMeter>)> {
    let mut clock = None;
    let mut meter = None;
    for line in lines {
        let (tag, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
        match (tag, records) {
            ("dir", FsRecords::Image) | ("dir+", FsRecords::Delta) => {
                fs.mkdir_all(&VfsPath::parse(&unhex_str(rest)?)?)?;
            }
            // Removes whatever node is there. v1 deltas named only
            // files; a v2 delta names every path its change window saw
            // removed, directories included.
            ("del" | "dir-", FsRecords::Delta) => {
                let path = VfsPath::parse(&unhex_str(rest)?)?;
                if fs.exists(&path) {
                    fs.remove_all(&path)?;
                }
            }
            ("file", _) => {
                let (raw_path, raw_data) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                let path = VfsPath::parse(&unhex_str(raw_path)?)?;
                let data = unhex(raw_data).ok_or_else(|| bad(line))?;
                if let Some(parent) = path.parent() {
                    fs.mkdir_all(&parent)?;
                }
                fs.write(&path, data)?;
            }
            ("clock", _) => clock = Some(parse_num(rest, line)?),
            ("meter", _) => {
                let fields: Vec<&str> = rest.split(' ').collect();
                let [ticks, bytes_read, bytes_written, content_ops, metadata_ops] = fields[..]
                else {
                    return Err(bad(line));
                };
                meter = Some(CostMeter {
                    ticks: parse_num(ticks, line)?,
                    bytes_read: parse_num(bytes_read, line)?,
                    bytes_written: parse_num(bytes_written, line)?,
                    content_ops: parse_num(content_ops, line)?,
                    metadata_ops: parse_num(metadata_ops, line)?,
                });
            }
            _ => return Err(bad(line)),
        }
    }
    Ok((clock, meter))
}

/// The meta section of a delta checkpoint.
enum DeltaMeta {
    /// A v1 delta: the whole `hybrid.meta` text.
    Whole(String),
    /// Records to fold over the chain-head meta ([`fold_meta`]).
    Records(String),
}

/// One delta checkpoint in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeltaRec {
    id: u64,
    /// Engine sequence number the delta's state corresponds to.
    seq: u64,
    /// Sequence number of the chain state the delta extends.
    parent: u64,
    /// FNV-1a 64 of the `delta-<id>.ck` file bytes.
    fp: u64,
}

/// One sealed (immutable) journal segment in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegRec {
    id: u64,
    /// Sequence number of the segment's first entry.
    start: u64,
    /// Sequence number of the segment's last entry.
    end: u64,
    /// FNV-1a 64 of the `seg-<id>.log` file bytes.
    fp: u64,
    /// Sealed segments whose whole range is covered by a later delta
    /// checkpoint are *retired*: recovery to the chain head never
    /// reads them, [`Engine::compact`] deletes them (giving up
    /// point-in-time targets inside their windows).
    retired: bool,
}

/// Parsed form of `ck.manifest` — the authoritative description of the
/// checkpoint chain: one base image, the delta checkpoints stacked on
/// it, the sealed journal segments, and the identity of the open
/// (still-growing) segment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    base_seq: u64,
    /// Chained FNV-1a 64 over the three base image files
    /// (`oms.img`, then `fs.img`, then `hybrid.meta`).
    base_fp: u64,
    deltas: Vec<DeltaRec>,
    segs: Vec<SegRec>,
    /// `(id, start)` of the open segment slot. The file may not exist
    /// yet (no sync since the last checkpoint); a file whose header
    /// disagrees with this slot is a stale leftover and is ignored.
    open: (u64, u64),
}

impl Manifest {
    /// Sequence number of the chain head — the state the next delta
    /// checkpoint extends.
    fn head_seq(&self) -> u64 {
        self.deltas.last().map_or(self.base_seq, |d| d.seq)
    }

    fn render(&self) -> String {
        let mut out = format!("{CK_MAGIC}\n");
        out.push_str(&format!(
            "base|seq={}|fp={:016x}\n",
            self.base_seq, self.base_fp
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "delta|id={}|seq={}|parent={}|fp={:016x}\n",
                d.id, d.seq, d.parent, d.fp
            ));
        }
        for s in &self.segs {
            out.push_str(&format!(
                "seg|id={}|start={}|end={}|fp={:016x}|state={}\n",
                s.id,
                s.start,
                s.end,
                s.fp,
                if s.retired { "retired" } else { "live" }
            ));
        }
        out.push_str(&format!("open|id={}|start={}\n", self.open.0, self.open.1));
        out
    }

    /// Parses `ck.manifest`. Every record has the one field layout
    /// [`Manifest::render`] writes; reordered, missing or extra fields
    /// are refused.
    fn parse(text: &str) -> HybridResult<Manifest> {
        let mut lines = text.lines();
        if lines.next() != Some(CK_MAGIC) {
            return Err(HybridError::DeltaChain("manifest: bad header".to_owned()));
        }
        let mut base = None;
        let mut deltas = Vec::new();
        let mut segs = Vec::new();
        let mut open = None;
        for line in lines {
            let mut record = || -> Result<(), String> {
                let f = Fields::parse(line)?;
                // `{:016x}`: eight big-endian bytes in the lower-case armour.
                let fp = || {
                    unhex(f.get("fp")?)
                        .and_then(|b| b.try_into().ok())
                        .map(u64::from_be_bytes)
                        .ok_or_else(|| "bad fingerprint".to_owned())
                };
                match f.kind {
                    "base" => {
                        f.expect_keys(&["seq", "fp"])?;
                        base = Some((f.num("seq")?, fp()?));
                    }
                    "delta" => {
                        f.expect_keys(&["id", "seq", "parent", "fp"])?;
                        deltas.push(DeltaRec {
                            id: f.num("id")?,
                            seq: f.num("seq")?,
                            parent: f.num("parent")?,
                            fp: fp()?,
                        });
                    }
                    "seg" => {
                        f.expect_keys(&["id", "start", "end", "fp", "state"])?;
                        segs.push(SegRec {
                            id: f.num("id")?,
                            start: f.num("start")?,
                            end: f.num("end")?,
                            fp: fp()?,
                            retired: match f.get("state")? {
                                "retired" => true,
                                "live" => false,
                                other => return Err(format!("unknown segment state {other:?}")),
                            },
                        });
                    }
                    "open" => {
                        f.expect_keys(&["id", "start"])?;
                        open = Some((f.num("id")?, f.num("start")?));
                    }
                    other => return Err(format!("unrecognised record {other:?}")),
                }
                Ok(())
            };
            record().map_err(|e| HybridError::DeltaChain(format!("manifest: {e} in {line:?}")))?;
        }
        let (base_seq, base_fp) = base
            .ok_or_else(|| HybridError::DeltaChain("manifest: missing base record".to_owned()))?;
        let open = open.ok_or_else(|| {
            HybridError::DeltaChain("manifest: missing open-segment record".to_owned())
        })?;
        Ok(Manifest {
            base_seq,
            base_fp,
            deltas,
            segs,
            open,
        })
    }
}

/// Parsed journal segment file: the self-describing header entry plus
/// the op lines, and the torn tail if the final write was interrupted.
struct Segment {
    id: u64,
    start: u64,
    entries: Vec<String>,
    torn: Option<oms::persist::TornTail>,
}

/// First entry of every segment file: `@seg|id=<n>|start=<s>`. The
/// leading `@` cannot begin an op line, and the self-description lets
/// recovery detect stale segment files left behind by an abandoned
/// fork or rebase.
fn seg_header(id: u64, start: u64) -> String {
    format!("@seg|id={id}|start={start}")
}

fn parse_segment(fs: &Vfs, path: &VfsPath) -> HybridResult<Segment> {
    let (mut entries, torn) = oms::persist::load_journal_lenient(fs, path)
        .map_err(|e| HybridError::DeltaChain(format!("segment {path}: {e}")))?;
    if entries.is_empty() {
        return Err(HybridError::DeltaChain(format!(
            "segment {path}: missing header entry"
        )));
    }
    let header = entries.remove(0);
    let parsed = Fields::parse(&header).and_then(|f| {
        if f.kind != "@seg" {
            return Err(format!("unknown kind {:?}", f.kind));
        }
        f.expect_keys(&["id", "start"])?;
        Ok((f.num("id")?, f.num("start")?))
    });
    let (id, start) = parsed.map_err(|e| {
        HybridError::DeltaChain(format!("segment {path}: bad header {header:?}: {e}"))
    })?;
    Ok(Segment {
        id,
        start,
        entries,
        torn,
    })
}

/// The engine's in-memory mirror of its persisted chain: where it
/// lives, its manifest, and the chain-head state the next delta
/// checkpoint diffs against.
struct DurableState {
    /// Checkpoint directory the chain lives in; checkpointing to a
    /// different directory starts a fresh chain with a full base.
    dir: VfsPath,
    head: ChainHead,
    /// Mirror of the on-disk `ck.manifest`.
    manifest: Manifest,
    /// The `ck.manifest` text this engine last committed to (or
    /// recovered from) `dir`. The chain is extended only on a disk that
    /// still holds exactly this text ([`Engine::chain_in`]).
    on_disk: String,
    /// Highest sequence number persisted into a *sealed* segment or
    /// covered by a delta checkpoint; journal entries past this point
    /// live only in the open segment (or nowhere, if not yet synced).
    closed_upto: u64,
    /// Next delta checkpoint id (monotonic, never reused).
    next_delta: u64,
}

/// The persistent state at the chain head, as O(1) clones of the live
/// persistent maps: a delta checkpoint diffs the live maps against
/// these roots in O(changes). The FMCAD tree and the mirror cache need
/// no copy — they record their own changes since the head
/// ([`Vfs::track_changes`], [`MirrorCache::track_changes`]) — and the
/// trace ring needs none either: its entries past the head's seq are
/// the new ones.
struct ChainHead {
    db: oms::Database,
    project_lib: PMap<ProjectId, Arc<str>>,
    cv_cell: PMap<CellVersionId, Arc<str>>,
    viewtype_names: PMap<ViewTypeId, Arc<str>>,
    dov_mirror: PMap<DovId, Arc<MirrorLocation>>,
}

/// A parsed, reusable base checkpoint. Recovering many times from one
/// slowly-changing chain (the paper's restart scenario) parses the
/// base images once and replays only deltas and segments per restart —
/// the O(Δ) warm path [`Engine::recover_with_base`] exposes.
pub struct BaseImage {
    db: oms::Database,
    fs: Vfs,
    meter: CostMeter,
    clock: u64,
    meta: MetaState,
    seq: u64,
    fp: u64,
}

impl BaseImage {
    /// Engine sequence number the base image captured.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Everything `hybrid.meta` records besides the two framework images.
#[derive(Clone)]
struct MetaState {
    admin: UserId,
    desktop_ops: u64,
    clock: i64,
    fmcad_ui_ops: u64,
    staging_mode: StagingMode,
    features: FutureFeatures,
    seq: u64,
    mirror_cache_hits: u64,
    project_lib: BTreeMap<ProjectId, String>,
    cv_cell: BTreeMap<CellVersionId, String>,
    viewtype_names: BTreeMap<ViewTypeId, String>,
    viewtype_apps: BTreeMap<String, ToolKind>,
    tool_kinds: BTreeMap<ToolId, ToolKind>,
    dov_mirror: BTreeMap<DovId, MirrorLocation>,
    mirror_cache: BTreeMap<MirrorKey, Mirrored>,
    trace_capacity: usize,
    trace: Vec<JournalEntry>,
    counter_ops: BTreeMap<String, u64>,
    counter_failures: BTreeMap<String, u64>,
}

// One renderer per meta line kind, shared by the full meta text and
// the delta records so the two grammars cannot drift apart.

fn meta_project_lib(out: &mut String, project: ProjectId, lib: &str) {
    out.push_str(&format!(
        "project-lib {} {}\n",
        project.raw(),
        hex(lib.as_bytes())
    ));
}

fn meta_cv_cell(out: &mut String, cv: CellVersionId, cell: &str) {
    out.push_str(&format!("cv-cell {} {}\n", cv.raw(), hex(cell.as_bytes())));
}

fn meta_viewtype(out: &mut String, id: ViewTypeId, name: &str) {
    out.push_str(&format!("viewtype {} {}\n", id.raw(), hex(name.as_bytes())));
}

fn meta_dov_mirror(out: &mut String, dov: DovId, loc: &MirrorLocation) {
    out.push_str(&format!(
        "dov-mirror {} {} {} {} {}\n",
        dov.raw(),
        hex(loc.library.as_bytes()),
        hex(loc.cell.as_bytes()),
        hex(loc.view.as_bytes()),
        loc.version
    ));
}

fn meta_mirror_cache(out: &mut String, (lib, cell, view): &MirrorKey, (hash, version): Mirrored) {
    out.push_str(&format!(
        "mirror-cache {} {} {} {} {}\n",
        hex(lib.as_bytes()),
        hex(cell.as_bytes()),
        hex(view.as_bytes()),
        hash,
        version
    ));
}

fn meta_trace(out: &mut String, entry: &JournalEntry) {
    out.push_str(&format!(
        "trace {} {} {} {} {}\n",
        entry.seq,
        entry.ok,
        hex(entry.kind.as_bytes()),
        hex(entry.summary.as_bytes()),
        hex(entry.outcome.as_bytes())
    ));
}

/// Renders the records that turn persistent map `head` into `live`:
/// the current line of every added or changed key, `<tag>- <key>` for
/// every removed one.
fn meta_diff<K: PmapKey, V: Clone + PartialEq>(
    out: &mut String,
    tag: &str,
    head: &PMap<K, V>,
    live: &PMap<K, V>,
    line: impl Fn(&mut String, K, &V),
) {
    for entry in head.diff(live) {
        match entry {
            DiffEntry::Added(key, value) | DiffEntry::Updated(key, value) => line(out, key, &value),
            DiffEntry::Removed(key) => out.push_str(&format!("{tag}- {}\n", key.to_bits())),
        }
    }
}

impl Engine {
    /// The scalar meta lines, in `hybrid.meta` order.
    fn meta_scalars(&self, out: &mut String) {
        let hy = &self.hy;
        out.push_str(&format!("admin {}\n", hy.admin.raw()));
        out.push_str(&format!("desktop-ops {}\n", hy.jcf.desktop_ops()));
        out.push_str(&format!("clock {}\n", hy.jcf.clock()));
        out.push_str(&format!("fmcad-ui-ops {}\n", hy.fmcad_ui_ops));
        out.push_str(&format!(
            "staging {}\n",
            match hy.staging_mode {
                StagingMode::ZeroCopy => "zero",
                StagingMode::DeepCopy => "deep",
            }
        ));
        out.push_str(&format!(
            "features {} {} {}\n",
            hy.features.procedural_interface,
            hy.features.non_isomorphic_hierarchies,
            hy.features.cross_project_sharing
        ));
        out.push_str(&format!("seq {}\n", self.seq));
        out.push_str(&format!("mirror-hits {}\n", hy.mirror_cache_hits));
    }

    /// The viewtype-application and tool registries, written whole by
    /// the full text and by every delta (a handful of lines each).
    fn meta_registries(&self, out: &mut String) {
        for (name, kind) in &self.hy.viewtype_apps {
            out.push_str(&format!("viewtype-app {} {kind}\n", hex(name.as_bytes())));
        }
        for (id, kind) in &self.hy.tool_kinds {
            out.push_str(&format!("tool {} {kind}\n", id.raw()));
        }
    }

    /// The op and failure counters, written whole like the registries.
    fn meta_counters(&self, out: &mut String) {
        for (kind, count) in self.counters.ops() {
            out.push_str(&format!("counter-op {} {count}\n", hex(kind.as_bytes())));
        }
        for (kind, count) in self.counters.failures() {
            out.push_str(&format!("counter-err {} {count}\n", hex(kind.as_bytes())));
        }
    }

    /// The whole coupling meta: `hybrid.meta` of a base checkpoint.
    fn meta_text(&self) -> String {
        let hy = &self.hy;
        let mut text = format!("{META_MAGIC}\n");
        self.meta_scalars(&mut text);
        for (project, lib) in &hy.project_lib {
            meta_project_lib(&mut text, project, lib);
        }
        for (cv, cell) in &hy.cv_cell {
            meta_cv_cell(&mut text, cv, cell);
        }
        for (id, name) in &hy.viewtype_names {
            meta_viewtype(&mut text, id, name);
        }
        self.meta_registries(&mut text);
        for (dov, loc) in &hy.dov_mirror {
            meta_dov_mirror(&mut text, dov, loc);
        }
        for (key, value) in hy.mirror_cache.iter() {
            meta_mirror_cache(&mut text, key, *value);
        }
        text.push_str(&format!("trace-cap {}\n", self.trace.capacity()));
        for entry in self.trace.entries() {
            meta_trace(&mut text, entry);
        }
        self.meta_counters(&mut text);
        text
    }

    /// The meta records of a delta checkpoint: what changed since the
    /// chain head `head` (at seq `head_seq`). Scalars, the small
    /// registries and the counters are written whole; the coupling
    /// maps as [`PMap::diff`] records; the mirror cache as its
    /// recorded changes (a `mirror-cache-clear` first if it was
    /// cleared); the trace ring as the entries appended since the
    /// head. [`fold_meta`] applies them.
    fn meta_delta(&self, head: &ChainHead, head_seq: u64) -> String {
        let hy = &self.hy;
        let mut out = String::new();
        self.meta_scalars(&mut out);
        meta_diff(
            &mut out,
            "project-lib",
            &head.project_lib,
            &hy.project_lib,
            |o, k, v| meta_project_lib(o, k, v),
        );
        meta_diff(
            &mut out,
            "cv-cell",
            &head.cv_cell,
            &hy.cv_cell,
            |o, k, v| meta_cv_cell(o, k, v),
        );
        meta_diff(
            &mut out,
            "viewtype",
            &head.viewtype_names,
            &hy.viewtype_names,
            |o, k, v| meta_viewtype(o, k, v),
        );
        self.meta_registries(&mut out);
        meta_diff(
            &mut out,
            "dov-mirror",
            &head.dov_mirror,
            &hy.dov_mirror,
            |o, k, v| meta_dov_mirror(o, k, v),
        );
        let (cleared, inserted) = hy
            .mirror_cache
            .changes()
            .expect("a chain head tracks the mirror cache");
        if cleared {
            out.push_str("mirror-cache-clear\n");
        }
        for (key, value) in inserted {
            meta_mirror_cache(&mut out, key, *value);
        }
        out.push_str(&format!("trace-cap {}\n", self.trace.capacity()));
        for entry in self.trace.entries().filter(|e| e.seq > head_seq) {
            meta_trace(&mut out, entry);
        }
        self.meta_counters(&mut out);
        out
    }

    /// Captures the chain head the next delta diffs against and starts
    /// a fresh change window on the FMCAD tree and the mirror cache.
    /// Called once the state it captures is durable.
    fn mark_chain_head(&mut self) -> ChainHead {
        self.hy.fmcad.fs().track_changes();
        self.hy.mirror_cache.track_changes();
        let hy = &self.hy;
        ChainHead {
            db: hy.jcf.database().snapshot(),
            project_lib: hy.project_lib.clone(),
            cv_cell: hy.cv_cell.clone(),
            viewtype_names: hy.viewtype_names.clone(),
            dov_mirror: hy.dov_mirror.clone(),
        }
    }
}

impl MetaState {
    fn new() -> MetaState {
        MetaState {
            admin: UserId::from_raw(0),
            desktop_ops: 0,
            clock: 0,
            fmcad_ui_ops: 0,
            staging_mode: StagingMode::default(),
            features: FutureFeatures::default(),
            seq: 0,
            mirror_cache_hits: 0,
            project_lib: BTreeMap::new(),
            cv_cell: BTreeMap::new(),
            viewtype_names: BTreeMap::new(),
            viewtype_apps: BTreeMap::new(),
            tool_kinds: BTreeMap::new(),
            dov_mirror: BTreeMap::new(),
            mirror_cache: BTreeMap::new(),
            trace_capacity: crate::events::TRACE_CAPACITY,
            trace: Vec::new(),
            counter_ops: BTreeMap::new(),
            counter_failures: BTreeMap::new(),
        }
    }
}

/// Parses a whole `hybrid.meta` text: its records folded over an
/// empty state.
fn parse_meta(text: &str) -> HybridResult<MetaState> {
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(HybridError::Journal("bad hybrid meta header".to_owned()));
    }
    let mut meta = MetaState::new();
    fold_meta(&mut meta, lines)?;
    Ok(meta)
}

/// Folds meta records into `meta`. A record sets a scalar, inserts or
/// replaces a map entry, removes one (`<tag>- <key>`), clears the
/// mirror cache (`mirror-cache-clear`) or appends a trace entry; the
/// trace is cut back to its capacity at the end. A whole `hybrid.meta`
/// is such a record list, and so is the `m|` section of a delta.
fn fold_meta<'a>(meta: &mut MetaState, lines: impl Iterator<Item = &'a str>) -> HybridResult<()> {
    for line in lines {
        if line == "mirror-cache-clear" {
            meta.mirror_cache.clear();
            continue;
        }
        let (tag, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
        let fields: Vec<&str> = rest.split(' ').collect();
        match (tag, fields.as_slice()) {
            ("admin", [raw]) => meta.admin = UserId::from_raw(parse_num(raw, line)?),
            ("desktop-ops", [raw]) => meta.desktop_ops = parse_num(raw, line)?,
            ("clock", [raw]) => meta.clock = parse_num(raw, line)?,
            ("fmcad-ui-ops", [raw]) => meta.fmcad_ui_ops = parse_num(raw, line)?,
            ("staging", ["zero"]) => meta.staging_mode = StagingMode::ZeroCopy,
            ("staging", ["deep"]) => meta.staging_mode = StagingMode::DeepCopy,
            ("features", [a, b, c]) => {
                meta.features = FutureFeatures {
                    procedural_interface: parse_num(a, line)?,
                    non_isomorphic_hierarchies: parse_num(b, line)?,
                    cross_project_sharing: parse_num(c, line)?,
                }
            }
            ("seq", [raw]) => meta.seq = parse_num(raw, line)?,
            ("mirror-hits", [raw]) => meta.mirror_cache_hits = parse_num(raw, line)?,
            ("project-lib", [raw, name]) => {
                meta.project_lib
                    .insert(ProjectId::from_raw(parse_num(raw, line)?), unhex_str(name)?);
            }
            ("project-lib-", [raw]) => {
                meta.project_lib
                    .remove(&ProjectId::from_raw(parse_num(raw, line)?));
            }
            ("cv-cell", [raw, name]) => {
                meta.cv_cell.insert(
                    CellVersionId::from_raw(parse_num(raw, line)?),
                    unhex_str(name)?,
                );
            }
            ("cv-cell-", [raw]) => {
                meta.cv_cell
                    .remove(&CellVersionId::from_raw(parse_num(raw, line)?));
            }
            ("viewtype", [raw, name]) => {
                meta.viewtype_names.insert(
                    ViewTypeId::from_raw(parse_num(raw, line)?),
                    unhex_str(name)?,
                );
            }
            ("viewtype-", [raw]) => {
                meta.viewtype_names
                    .remove(&ViewTypeId::from_raw(parse_num(raw, line)?));
            }
            ("viewtype-app", [name, kind]) => {
                meta.viewtype_apps
                    .insert(unhex_str(name)?, parse_num(kind, line)?);
            }
            ("tool", [raw, kind]) => {
                meta.tool_kinds.insert(
                    ToolId::from_raw(parse_num(raw, line)?),
                    parse_num(kind, line)?,
                );
            }
            ("dov-mirror", [raw, lib, cell, view, version]) => {
                meta.dov_mirror.insert(
                    DovId::from_raw(parse_num(raw, line)?),
                    MirrorLocation {
                        library: unhex_str(lib)?,
                        cell: unhex_str(cell)?,
                        view: unhex_str(view)?,
                        version: parse_num(version, line)?,
                    },
                );
            }
            ("dov-mirror-", [raw]) => {
                meta.dov_mirror
                    .remove(&DovId::from_raw(parse_num(raw, line)?));
            }
            ("mirror-cache", [lib, cell, view, hash, version]) => {
                meta.mirror_cache.insert(
                    (unhex_str(lib)?, unhex_str(cell)?, unhex_str(view)?),
                    (parse_num(hash, line)?, parse_num(version, line)?),
                );
            }
            ("trace-cap", [raw]) => meta.trace_capacity = parse_num(raw, line)?,
            ("trace", [seq, ok, kind, summary, outcome]) => meta.trace.push(JournalEntry {
                seq: parse_num(seq, line)?,
                ok: parse_num(ok, line)?,
                kind: unhex_str(kind)?,
                summary: unhex_str(summary)?,
                outcome: unhex_str(outcome)?,
            }),
            ("counter-op", [kind, count]) => {
                meta.counter_ops
                    .insert(unhex_str(kind)?, parse_num(count, line)?);
            }
            ("counter-err", [kind, count]) => {
                meta.counter_failures
                    .insert(unhex_str(kind)?, parse_num(count, line)?);
            }
            _ => return Err(bad(line)),
        }
    }
    let excess = meta.trace.len().saturating_sub(meta.trace_capacity);
    meta.trace.drain(..excess);
    Ok(())
}

/// What [`Engine::recover_from`] did to bring a crashed journal back:
/// how many complete entries replayed, and the torn suffix (if any)
/// that was dropped instead of replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete journal entries replayed after the checkpoint.
    pub replayed: usize,
    /// The unterminated trailing bytes dropped from the journal, if
    /// the tail was torn.
    pub dropped_fragment: Option<String>,
    /// File whose tail was torn, if any: a journal segment inside the
    /// checkpoint directory like `seg-3.log`, or, for a sharded
    /// backup, an envelope log under the backup root like
    /// `ck-2/shard-0.log`.
    pub torn_segment: Option<String>,
    /// Byte offset within [`RecoveryReport::torn_segment`] at which the
    /// dropped fragment begins.
    pub torn_offset: Option<usize>,
    /// Why lenient recovery stopped short of the chain's newest
    /// record, if it did: a missing or fingerprint-mismatched delta or
    /// segment. The engine is at the last boundary the intact prefix
    /// of the chain reaches.
    pub chain_break: Option<String>,
    /// Commit sequence numbers of cross-shard prepares that were
    /// rolled back because the matching commit record was missing from
    /// a participant journal. Always empty for single-engine recovery;
    /// filled by [`ShardedService::recover`](crate::ShardedService::recover).
    pub rolled_back_prepares: Vec<u64>,
}

impl Engine {
    /// Checkpoints the engine into `dir` of the `backup` file system,
    /// doing **O(Δ) work**: the first call (per directory) writes a
    /// full base image; every later call writes a *delta checkpoint* —
    /// only what changed since the chain head — plus a rewritten
    /// `ck.manifest`. The in-memory journal is cleared afterwards;
    /// ops applied next land in the segment tail that
    /// [`Engine::sync_journal`] persists.
    ///
    /// Every checkpoint is a *group commit*: all files are first
    /// staged in full at sibling `*.tmp` paths (the only writes that
    /// can fail), then renamed into place back-to-back — metadata-only
    /// moves that cannot tear. A crash anywhere during staging leaves
    /// every destination file exactly as the previous commit wrote it,
    /// and the in-memory journal is cleared only after the commit, so
    /// a failed checkpoint loses nothing.
    ///
    /// Every checkpoint charges the live FMCAD meter a walk of the
    /// whole tree (a base walks it; a delta charges the same through
    /// [`Vfs::charge_walk`] without reading) and records the meter
    /// *after* that charge, so a restored engine resumes with exactly
    /// the live instance's charges.
    ///
    /// # Errors
    ///
    /// Returns image encoding and backup file system errors.
    pub fn checkpoint(&mut self, backup: &mut Vfs, dir: &VfsPath) -> HybridResult<()> {
        self.checkpoint_chain(backup, dir, true)
    }

    /// [`Engine::checkpoint`] for an engine whose ops are journaled
    /// elsewhere — a shard engine, whose ops the router's envelope
    /// logs hold: a delta checkpoint writes the images and the
    /// manifest but seals no op segment, so the chain holds only
    /// base, delta and manifest files. Its delta boundaries stay
    /// [`Engine::recover_at`] targets; the seqs between them do not.
    pub(crate) fn checkpoint_images(
        &mut self,
        backup: &mut Vfs,
        dir: &VfsPath,
    ) -> HybridResult<()> {
        self.checkpoint_chain(backup, dir, false)
    }

    fn checkpoint_chain(
        &mut self,
        backup: &mut Vfs,
        dir: &VfsPath,
        seal: bool,
    ) -> HybridResult<()> {
        if self.chain_in(backup, dir).is_some() {
            self.checkpoint_delta(backup, dir, seal)
        } else {
            self.checkpoint_full(backup, dir)
        }
    }

    /// The chain this engine keeps in `dir`, if `backup` holds it: the
    /// directory matches and the disk's manifest is the very text this
    /// engine last committed or recovered from. Any other disk at the
    /// same path — a fresh one, or one whose chain this engine has
    /// since moved away from — gets `None`, so no delta, segment or
    /// compaction lands on a chain it does not extend. The check reads
    /// nothing through the meter ([`Vfs::holds`]).
    fn chain_in(&self, backup: &Vfs, dir: &VfsPath) -> Option<&DurableState> {
        let d = self.durable.as_ref().filter(|d| d.dir == *dir)?;
        let manifest = dir.join(CK_MANIFEST).ok()?;
        backup.holds(&manifest, d.on_disk.as_bytes()).then_some(d)
    }

    /// Writes a full base checkpoint (images of everything) and starts
    /// a fresh chain: any previous deltas and segments in `dir` are
    /// dropped from the new manifest and become garbage for
    /// [`Engine::compact`]. Point-in-time targets older than this base
    /// are no longer reachable.
    fn checkpoint_full(&mut self, backup: &mut Vfs, dir: &VfsPath) -> HybridResult<()> {
        self.invalidate_snap_cache();
        backup.mkdir_all(dir)?;
        let oms_text = oms::persist::dump(self.hy.jcf.database());
        let scan = fs_scan(self.hy.fmcad.fs_ref())?;
        let fs_text = fs_image_from_scan(self.hy.fmcad.fs_ref(), &scan);
        let meta_text = self.meta_text();
        let base_fp = oms::persist::fnv64_seeded(
            oms::persist::fnv64_seeded(
                oms::persist::fnv64(oms_text.as_bytes()),
                fs_text.as_bytes(),
            ),
            meta_text.as_bytes(),
        );
        // Id continuity across a rebase: never reuse a file name the
        // old chain may still occupy on disk.
        let (next_delta, open_id) = match self.durable.as_ref().filter(|d| d.dir == *dir) {
            Some(d) => (d.next_delta, d.manifest.open.0 + 1),
            None => (1, 1),
        };
        let manifest = Manifest {
            base_seq: self.seq,
            base_fp,
            deltas: Vec::new(),
            segs: Vec::new(),
            open: (open_id, self.seq + 1),
        };
        let on_disk = manifest.render();
        let files = [
            (OMS_IMG.to_owned(), oms_text),
            (FS_IMG.to_owned(), fs_text),
            (HYBRID_META.to_owned(), meta_text),
            (CK_MANIFEST.to_owned(), on_disk.clone()),
        ];
        Self::group_commit(backup, dir, &files)?;
        self.journal.clear();
        let head = self.mark_chain_head();
        self.durable = Some(DurableState {
            dir: dir.clone(),
            head,
            manifest,
            on_disk,
            closed_upto: self.seq,
            next_delta,
        });
        Ok(())
    }

    /// Writes a delta checkpoint against the chain head: the pending
    /// journal tail is sealed into a final (retired) segment (when
    /// `seal`), the OMS diff, the FMCAD paths changed since the head
    /// and the coupling-meta records go into one `delta-<k>.ck` file,
    /// and the rewritten manifest commits it all. Work and bytes are
    /// proportional to the delta, not the database.
    ///
    /// The FMCAD section reads nothing: the tree's change window
    /// ([`Vfs::changes`]) hands over the touched paths with their
    /// content. The live meter is still charged what a walk of the
    /// whole tree costs ([`Vfs::charge_walk`], O(1)) — the modeled
    /// cost of taking the backup, unchanged from when the checkpoint
    /// did walk — and the delta records the meter after that charge,
    /// so a recovered engine resumes with exactly the live charges.
    fn checkpoint_delta(
        &mut self,
        backup: &mut Vfs,
        dir: &VfsPath,
        seal: bool,
    ) -> HybridResult<()> {
        self.invalidate_snap_cache();
        let d = self
            .durable
            .as_ref()
            .expect("delta checkpoint needs a chain");
        let head = d.manifest.head_seq();
        debug_assert_eq!(self.seq - head, self.journal.len() as u64);
        // Nothing happened since the chain head: every engine mutation
        // is an op, so an unchanged sequence number means an unchanged
        // state. Writing a delta here would only smear the current
        // walk's meter charges over a boundary another consumer (a
        // sharded epoch, a point-in-time target) may have recorded
        // before this call. Δ = 0 ⟹ zero writes.
        if self.seq == head {
            return Ok(());
        }

        // Seal whatever the journal holds past the last sealed
        // segment, so every entry up to this checkpoint stays
        // reachable for point-in-time recovery.
        let mut files = Vec::with_capacity(3);
        let mut segs = d.manifest.segs.clone();
        let mut open_id = d.manifest.open.0;
        if seal && self.seq > d.closed_upto {
            let skip = (d.closed_upto - head) as usize;
            let mut entries = vec![seg_header(open_id, d.closed_upto + 1)];
            entries.extend(self.journal[skip..].iter().map(Op::to_line));
            let text = oms::persist::render_journal(&entries)
                .map_err(|e| HybridError::Journal(format!("journal: {e}")))?;
            segs.push(SegRec {
                id: open_id,
                start: d.closed_upto + 1,
                end: self.seq,
                fp: oms::persist::fnv64(text.as_bytes()),
                retired: true,
            });
            files.push((seg_file(open_id), text));
            open_id += 1;
        }
        for seg in &mut segs {
            seg.retired |= seg.end <= self.seq;
        }

        // The delta file: OMS records, file-system records, then the
        // coupling-meta records.
        let oms_delta =
            oms::persist::dump_delta(&d.head.db, self.hy.jcf.database(), &format!("seq-{head}"))
                .map_err(|e| HybridError::Journal(format!("delta: {e}")))?;
        let fs = self.hy.fmcad.fs_ref();
        let changes = fs.changes().expect("a chain head tracks the FMCAD tree");
        fs.charge_walk();
        let mut delta_text = format!("{DELTA_MAGIC}\nseq {}\nparent {head}\n", self.seq);
        for line in oms_delta.lines() {
            delta_text.push_str("o|");
            delta_text.push_str(line);
            delta_text.push('\n');
        }
        fs_delta_section(&changes, fs.now(), &fs.meter(), &mut delta_text);
        for line in self.meta_delta(&d.head, head).lines() {
            delta_text.push_str("m|");
            delta_text.push_str(line);
            delta_text.push('\n');
        }

        let delta_id = d.next_delta;
        let mut manifest = Manifest {
            base_seq: d.manifest.base_seq,
            base_fp: d.manifest.base_fp,
            deltas: d.manifest.deltas.clone(),
            segs,
            open: (open_id, self.seq + 1),
        };
        manifest.deltas.push(DeltaRec {
            id: delta_id,
            seq: self.seq,
            parent: head,
            fp: oms::persist::fnv64(delta_text.as_bytes()),
        });
        let on_disk = manifest.render();
        files.push((delta_file(delta_id), delta_text));
        files.push((CK_MANIFEST.to_owned(), on_disk.clone()));
        Self::group_commit(backup, dir, &files)?;

        self.journal.clear();
        let head = self.mark_chain_head();
        self.durable = Some(DurableState {
            dir: dir.clone(),
            head,
            manifest,
            on_disk,
            closed_upto: self.seq,
            next_delta: delta_id + 1,
        });
        Ok(())
    }

    /// Stages every `(name, text)` at a sibling `*.tmp` path (the only
    /// writes that can fail), then renames all of them into place —
    /// the atomic group commit every persistence operation uses.
    fn group_commit(
        backup: &mut Vfs,
        dir: &VfsPath,
        files: &[(String, String)],
    ) -> HybridResult<()> {
        let mut commits = Vec::with_capacity(files.len());
        for (name, text) in files {
            let dest = dir.join(name)?;
            let tmp =
                oms::persist::staging_path(&dest).expect("checkpoint files are never the root");
            backup.write(&tmp, text.as_bytes().to_vec())?;
            commits.push((tmp, dest));
        }
        for (tmp, dest) in commits {
            backup.rename(&tmp, &dest)?;
        }
        Ok(())
    }

    /// Persists the ops journal tail (everything applied since the
    /// last [`Engine::checkpoint`]) next to the checkpoint.
    ///
    /// With a chain in place ([`Engine::checkpoint`] has run for this
    /// directory) the tail is **segmented**: entries beyond the
    /// segment cap seal into immutable, individually-fingerprinted
    /// `seg-<n>.log` files that are never rewritten again; only the
    /// open (newest) segment is rewritten per sync, so sync cost is
    /// bounded by the segment cap instead of growing with the tail.
    /// The whole sync — sealed segments, open segment, manifest — is
    /// one atomic group commit.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Journal`], writing nothing, when no
    /// [`Engine::checkpoint`] into `dir` of this disk has anchored a
    /// chain yet (or a later checkpoint moved the chain elsewhere);
    /// otherwise backup file system errors — typed
    /// [`HybridError::Vfs`] faults for injected or out-of-space
    /// writes, journal errors for framing problems.
    pub fn sync_journal(&mut self, backup: &mut Vfs, dir: &VfsPath) -> HybridResult<()> {
        let Some(d) = self.chain_in(backup, dir) else {
            return Err(HybridError::Journal(format!(
                "sync before first checkpoint: no chain in {dir} to anchor the journal to"
            )));
        };
        let head = d.manifest.head_seq();
        debug_assert_eq!(self.seq - head, self.journal.len() as u64);
        let render = |id: u64, start: u64, ops: &[Op]| -> HybridResult<String> {
            let mut entries = vec![seg_header(id, start)];
            entries.extend(ops.iter().map(Op::to_line));
            oms::persist::render_journal(&entries)
                .map_err(|e| HybridError::Journal(format!("journal: {e}")))
        };

        let mut files = Vec::new();
        let mut segs = d.manifest.segs.clone();
        let mut closed_upto = d.closed_upto;
        let mut open_id = d.manifest.open.0;
        // Seal full segments; each is written once here and never
        // touched again.
        while self.seq - closed_upto >= SEG_CAP {
            let start = closed_upto + 1;
            let skip = (closed_upto - head) as usize;
            let ops = &self.journal[skip..skip + SEG_CAP as usize];
            let text = render(open_id, start, ops)?;
            segs.push(SegRec {
                id: open_id,
                start,
                end: closed_upto + SEG_CAP,
                fp: oms::persist::fnv64(text.as_bytes()),
                retired: false,
            });
            files.push((seg_file(open_id), text));
            open_id += 1;
            closed_upto += SEG_CAP;
        }
        // The open segment: the (short) remainder, rewritten wholesale.
        let skip = (closed_upto - head) as usize;
        files.push((
            seg_file(open_id),
            render(open_id, closed_upto + 1, &self.journal[skip..])?,
        ));
        let manifest = Manifest {
            base_seq: d.manifest.base_seq,
            base_fp: d.manifest.base_fp,
            deltas: d.manifest.deltas.clone(),
            segs,
            open: (open_id, closed_upto + 1),
        };
        let on_disk = manifest.render();
        files.push((CK_MANIFEST.to_owned(), on_disk.clone()));
        Self::group_commit(backup, dir, &files)?;
        let d = self.durable.as_mut().expect("chain checked above");
        d.manifest = manifest;
        d.on_disk = on_disk;
        d.closed_upto = closed_upto;
        Ok(())
    }

    /// Restarts an engine from a checkpoint directory: rebuilds the
    /// shared file system, re-opens FMCAD over it (re-running the §2.4
    /// bootstrap and re-coupling every mapped library — customisation
    /// state is session-local), restores the OMS database with its
    /// exact desktop counters, and then **replays** the persisted ops
    /// journal tail. Replayed ops that originally failed fail again,
    /// reproducing their partial effects, so the result is equivalent
    /// to the live instance — [`Engine::state_fingerprint`] proves it.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Vfs`] with [`VfsError::NotFound`] naming
    /// `dir/ck.manifest` when `dir` holds no checkpoint chain (nothing
    /// was ever checkpointed there), [`HybridError::DeltaChain`] or
    /// [`HybridError::Jcf`] for corrupt images,
    /// [`HybridError::TornJournal`] when the journal tail is truncated
    /// mid-entry (see [`Engine::recover_from`]), plus framework errors
    /// from the rebuild.
    pub fn restore_from(backup: &mut Vfs, dir: &VfsPath) -> HybridResult<Engine> {
        Self::require_chain(backup, dir)?;
        let base = Self::load_base(backup, dir)?;
        Ok(Self::restore_chain(backup, dir, &base, None, false)?.0)
    }

    /// Restarts like [`Engine::restore_from`], but *recovers* from a
    /// journal whose final line was torn by a crashed write: the torn
    /// suffix — necessarily the remains of a single entry, because
    /// [`Engine::sync_journal`] terminates every line — is dropped and
    /// only the complete prefix is replayed. The report says how many
    /// entries replayed and what (if anything) was dropped.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::restore_from`], except a torn tail is handled
    /// instead of reported.
    pub fn recover_from(backup: &mut Vfs, dir: &VfsPath) -> HybridResult<(Engine, RecoveryReport)> {
        Self::require_chain(backup, dir)?;
        let base = Self::load_base(backup, dir)?;
        Self::restore_chain(backup, dir, &base, None, true)
    }

    /// Refuses a directory without a chain manifest — nothing was
    /// checkpointed there — with a typed [`VfsError::NotFound`] naming
    /// the manifest.
    fn require_chain(backup: &Vfs, dir: &VfsPath) -> HybridResult<()> {
        let manifest = dir.join(CK_MANIFEST)?;
        if backup.exists(&manifest) {
            Ok(())
        } else {
            Err(HybridError::Vfs(VfsError::NotFound(manifest)))
        }
    }

    /// **Point-in-time recovery**: restores the engine to *exactly*
    /// sequence number `seq` — any state the chain persisted, not just
    /// the newest. The chain is walked only as far as needed: the base
    /// image, then every delta checkpoint at or below `seq`, then
    /// journal segments (including retired ones still on disk) up to
    /// the target. Every file read along the way is verified against
    /// its manifest fingerprint.
    ///
    /// A recovered-then-resumed engine *forks* the timeline: its next
    /// sync or checkpoint rewrites the manifest and the records beyond
    /// `seq` become unreferenced garbage for [`Engine::compact`].
    ///
    /// # Errors
    ///
    /// [`HybridError::SeqUnreachable`] when `seq` precedes the base or
    /// exceeds what the chain persisted (after [`Engine::compact`],
    /// targets inside retired windows are gone too);
    /// [`HybridError::DeltaChain`] when a file needed to reach `seq`
    /// is missing or fails fingerprint verification.
    pub fn recover_at(
        backup: &mut Vfs,
        dir: &VfsPath,
        seq: u64,
    ) -> HybridResult<(Engine, RecoveryReport)> {
        let base = Self::load_base(backup, dir)?;
        Self::restore_chain(backup, dir, &base, Some(seq), false)
    }

    /// Parses the base checkpoint of the chain in `dir` once, verified
    /// against the manifest's base fingerprint, for reuse across many
    /// [`Engine::recover_with_base`] calls. This is what makes a warm
    /// restart O(Δ): the (large, slowly-changing) base is paid for
    /// once, and each restart replays only deltas and segments.
    ///
    /// # Errors
    ///
    /// [`HybridError::DeltaChain`] for a missing or corrupt manifest
    /// or base image.
    pub fn load_base(backup: &Vfs, dir: &VfsPath) -> HybridResult<BaseImage> {
        let manifest = Self::load_manifest(backup, dir)?;
        let oms_text = oms::persist::load_text(backup, &dir.join(OMS_IMG)?)
            .map_err(|e| HybridError::DeltaChain(format!("{OMS_IMG}: {e}")))?;
        let fs_text = oms::persist::load_text(backup, &dir.join(FS_IMG)?)
            .map_err(|e| HybridError::DeltaChain(format!("{FS_IMG}: {e}")))?;
        let meta_text = oms::persist::load_text(backup, &dir.join(HYBRID_META)?)
            .map_err(|e| HybridError::DeltaChain(format!("{HYBRID_META}: {e}")))?;
        let fp = oms::persist::fnv64_seeded(
            oms::persist::fnv64_seeded(
                oms::persist::fnv64(oms_text.as_bytes()),
                fs_text.as_bytes(),
            ),
            meta_text.as_bytes(),
        );
        if fp != manifest.base_fp {
            return Err(HybridError::DeltaChain(format!(
                "base image fingerprint mismatch (manifest {:016x}, files {fp:016x})",
                manifest.base_fp
            )));
        }
        let db = oms::persist::parse(jcf::schema::jcf_schema(), &oms_text)
            .map_err(|e| HybridError::Jcf(jcf::JcfError::Database(e)))?;
        let (fs, meter, clock) = restore_fs(&fs_text)?;
        Ok(BaseImage {
            db,
            fs,
            meter,
            clock,
            meta: parse_meta(&meta_text)?,
            seq: manifest.base_seq,
            fp,
        })
    }

    /// Recovers to the newest reachable state like
    /// [`Engine::recover_from`], but reuses an already-parsed
    /// [`BaseImage`] — the warm-restart fast path: O(1) snapshots of
    /// the cached base plus replay of the deltas and segments written
    /// since it, never re-reading the full images.
    ///
    /// # Errors
    ///
    /// As [`Engine::recover_from`]; additionally
    /// [`HybridError::DeltaChain`] when the chain was rebased since
    /// `base` was loaded (reload it and retry).
    pub fn recover_with_base(
        backup: &Vfs,
        dir: &VfsPath,
        base: &BaseImage,
    ) -> HybridResult<(Engine, RecoveryReport)> {
        Self::restore_chain(backup, dir, base, None, true)
    }

    /// Reads and parses `ck.manifest`.
    fn load_manifest(backup: &Vfs, dir: &VfsPath) -> HybridResult<Manifest> {
        Manifest::parse(&Self::manifest_text(backup, dir)?)
    }

    /// Reads `ck.manifest` as text.
    fn manifest_text(backup: &Vfs, dir: &VfsPath) -> HybridResult<String> {
        oms::persist::load_text(backup, &dir.join(CK_MANIFEST)?)
            .map_err(|e| HybridError::DeltaChain(format!("{CK_MANIFEST}: {e}")))
    }

    /// Deletes every file in the chain directory the manifest no
    /// longer needs for a newest-state restore: retired segments
    /// (their entries are covered by delta checkpoints), stale
    /// segments and deltas from abandoned forks or rebases, leftover
    /// `*.tmp` staging debris, and any other file it does not name. The journal
    /// tail is synced first — recovery may have moved the open slot to
    /// a fresh segment id whose file is not on disk yet, and the
    /// rewritten manifest must only ever reference files that exist.
    /// The manifest is then rewritten without the retired records
    /// (atomically) and the files are unlinked — a crash in between
    /// leaves only unreferenced garbage that the next compact removes.
    ///
    /// Returns the number of files removed. After compaction,
    /// point-in-time targets inside retired windows are no longer
    /// reachable; delta-checkpoint boundaries remain.
    ///
    /// # Errors
    ///
    /// Returns backup file system errors.
    pub fn compact(&mut self, backup: &mut Vfs, dir: &VfsPath) -> HybridResult<usize> {
        self.compact_chain(backup, dir, true)
    }

    /// [`Engine::compact`] for a chain written by
    /// [`Engine::checkpoint_images`]: the journal tail is not synced
    /// (the router's envelope logs hold it). The manifest is committed
    /// whenever it differs from the one on disk — after a recovery
    /// short of the chain's newest delta the on-disk manifest still
    /// names the abandoned deltas this compact deletes.
    pub(crate) fn compact_images(
        &mut self,
        backup: &mut Vfs,
        dir: &VfsPath,
    ) -> HybridResult<usize> {
        self.compact_chain(backup, dir, false)
    }

    fn compact_chain(
        &mut self,
        backup: &mut Vfs,
        dir: &VfsPath,
        sync_tail: bool,
    ) -> HybridResult<usize> {
        if self.chain_in(backup, dir).is_none() {
            return Ok(0);
        }
        if sync_tail {
            self.sync_journal(backup, dir)?;
        }
        let d = self.durable.as_ref().expect("chain checked above");
        let mut manifest = d.manifest.clone();
        manifest.segs.retain(|s| !s.retired);
        // A sync just committed `d.manifest`; without one, compare
        // against the manifest on disk.
        let committed = if sync_tail {
            manifest == d.manifest
        } else {
            Self::load_manifest(backup, dir).is_ok_and(|on_disk| on_disk == manifest)
        };
        let mut on_disk = None;
        if !committed {
            let text = manifest.render();
            Self::group_commit(backup, dir, &[(CK_MANIFEST.to_owned(), text.clone())])?;
            on_disk = Some(text);
        }
        let mut keep: std::collections::BTreeSet<String> = [
            OMS_IMG.to_owned(),
            FS_IMG.to_owned(),
            HYBRID_META.to_owned(),
            CK_MANIFEST.to_owned(),
            seg_file(manifest.open.0),
        ]
        .into();
        keep.extend(manifest.segs.iter().map(|s| seg_file(s.id)));
        keep.extend(manifest.deltas.iter().map(|del| delta_file(del.id)));
        let mut removed = 0;
        for name in backup.read_dir(dir)? {
            let path = dir.join(&name)?;
            if keep.contains(&name) || backup.metadata(&path)?.kind == NodeKind::Directory {
                continue;
            }
            backup.remove_file(&path)?;
            removed += 1;
        }
        let d = self.durable.as_mut().expect("chain checked above");
        d.manifest = manifest;
        if let Some(text) = on_disk {
            d.on_disk = text;
        }
        Ok(removed)
    }

    /// Walks the chain: base (from `base`, already parsed) → delta
    /// checkpoints → journal segments, stopping at `target` (or the
    /// newest reachable record when `None`). `lenient` recovery stops
    /// at the last valid boundary when the chain is damaged and notes
    /// why; strict mode reports the damage as a typed error. The
    /// returned engine is ready to continue the chain — its next
    /// checkpoint is a delta, and a fork (recovery short of the
    /// newest record) is committed by whichever sync or checkpoint
    /// next rewrites the manifest.
    fn restore_chain(
        backup: &Vfs,
        dir: &VfsPath,
        base: &BaseImage,
        target: Option<u64>,
        lenient: bool,
    ) -> HybridResult<(Engine, RecoveryReport)> {
        let on_disk = Self::manifest_text(backup, dir)?;
        let manifest = Manifest::parse(&on_disk)?;
        if manifest.base_seq != base.seq || manifest.base_fp != base.fp {
            return Err(HybridError::DeltaChain(
                "chain was rebased since the base image was loaded".to_owned(),
            ));
        }
        if let Some(t) = target {
            if t < base.seq {
                return Err(HybridError::SeqUnreachable {
                    requested: t,
                    reachable: base.seq,
                });
            }
        }

        // Phase 1: fold delta checkpoints over O(1) copies of the base.
        let mut db = base.db.snapshot();
        let mut fs = base.fs.clone();
        let mut meter = base.meter;
        let mut clock = base.clock;
        let mut meta = base.meta.clone();
        let mut at = base.seq;
        let mut chain_break = None;
        let mut applied_deltas = 0;
        for rec in &manifest.deltas {
            if target.is_some_and(|t| rec.seq > t) {
                break;
            }
            match Self::read_delta(backup, dir, rec, at) {
                Ok((oms_lines, fs_lines, delta_meta)) => {
                    let in_delta = |e: HybridError| {
                        HybridError::DeltaChain(format!("{}: {e}", delta_file(rec.id)))
                    };
                    oms::persist::apply_delta(&mut db, &oms_lines)
                        .map_err(|e| HybridError::DeltaChain(format!("delta {}: {e}", rec.id)))?;
                    let (c, m) = apply_fs_delta(&mut fs, &fs_lines)?;
                    clock = c;
                    meter = m;
                    match delta_meta {
                        DeltaMeta::Whole(text) => meta = parse_meta(&text).map_err(in_delta)?,
                        DeltaMeta::Records(text) => {
                            fold_meta(&mut meta, text.lines()).map_err(in_delta)?
                        }
                    }
                    at = rec.seq;
                    applied_deltas += 1;
                }
                Err(e) if lenient => {
                    chain_break = Some(e.to_string());
                    break;
                }
                Err(e) => return Err(e),
            }
        }

        // Phase 2: assemble the engine and capture the chain head (what
        // its next delta checkpoint will diff against) before replay
        // moves on.
        let head = at;
        if meta.seq != at {
            return Err(HybridError::DeltaChain(format!(
                "checkpoint at seq {at} recorded meta seq {}",
                meta.seq
            )));
        }
        let mut engine = Self::assemble_from_parts(db, fs, meter, clock, meta)?;
        let chain_head = engine.mark_chain_head();

        // Phase 3: replay journal segments past the chain head. Sealed
        // segments verify against their manifest fingerprints; the
        // open segment may have a torn tail.
        let mut report = RecoveryReport {
            replayed: 0,
            dropped_fragment: None,
            torn_segment: None,
            torn_offset: None,
            chain_break,
            rolled_back_prepares: Vec::new(),
        };
        let mut done = report.chain_break.is_some();
        let mut replayed_segs = Vec::new();
        for rec in &manifest.segs {
            if done || rec.end <= engine.seq {
                continue;
            }
            if target.is_some_and(|t| rec.start > t) {
                break;
            }
            match Self::read_sealed_segment(backup, dir, rec, engine.seq) {
                Ok(entries) => {
                    let fully = Self::replay_entries(&mut engine, &entries, target, &mut report)?;
                    if fully {
                        replayed_segs.push(rec.clone());
                    } else {
                        done = true;
                    }
                }
                Err(e) if lenient => {
                    report.chain_break = Some(e.to_string());
                    done = true;
                }
                Err(e) => return Err(e),
            }
        }
        let (open_id, open_start) = manifest.open;
        let open_path = dir.join(&seg_file(open_id))?;
        if !done && open_start == engine.seq + 1 && backup.exists(&open_path) {
            let seg = parse_segment(backup, &open_path)?;
            // A file that disagrees with the manifest's open slot is a
            // stale leftover from before a rebase; nothing is
            // committed there yet.
            if seg.id == open_id && seg.start == open_start {
                if let Some(tail) = &seg.torn {
                    if !lenient && target.is_none() {
                        return Err(HybridError::TornJournal {
                            complete: seg.entries.len(),
                            fragment: tail.fragment.clone(),
                        });
                    }
                    report.dropped_fragment = Some(tail.fragment.clone());
                    report.torn_segment = Some(seg_file(open_id));
                    report.torn_offset = Some(tail.offset);
                }
                Self::replay_entries(&mut engine, &seg.entries, target, &mut report)?;
            }
        }
        if let Some(t) = target {
            if engine.seq != t {
                return Err(HybridError::SeqUnreachable {
                    requested: t,
                    reachable: engine.seq,
                });
            }
        }

        // Rebuild the durable chain state so the engine continues with
        // O(Δ) checkpoints. The open slot always gets a fresh id: if
        // recovery forked the timeline, the abandoned records stay
        // untouched (and recoverable) until the next commit rewrites
        // the manifest.
        let closed_upto = replayed_segs.last().map_or(head, |s| s.end);
        let max_id = manifest
            .segs
            .iter()
            .map(|s| s.id)
            .chain([open_id])
            .max()
            .unwrap_or(0);
        let next_delta = manifest.deltas.iter().map(|d| d.id).max().unwrap_or(0) + 1;
        engine.durable = Some(DurableState {
            dir: dir.clone(),
            head: chain_head,
            manifest: Manifest {
                base_seq: manifest.base_seq,
                base_fp: manifest.base_fp,
                deltas: manifest.deltas[..applied_deltas].to_vec(),
                segs: {
                    let mut segs: Vec<SegRec> = manifest
                        .segs
                        .iter()
                        .filter(|s| s.end <= head || replayed_segs.iter().any(|r| r.id == s.id))
                        .cloned()
                        .collect();
                    segs.sort_by_key(|s| s.id);
                    segs
                },
                open: (max_id + 1, closed_upto + 1),
            },
            on_disk,
            closed_upto,
            next_delta,
        });
        Ok((engine, report))
    }

    /// Reads and verifies one delta checkpoint file, splitting it into
    /// its OMS section, file-system records, and meta section — meta
    /// records in the current format, the whole meta text in a v1
    /// delta.
    fn read_delta(
        backup: &Vfs,
        dir: &VfsPath,
        rec: &DeltaRec,
        at: u64,
    ) -> HybridResult<(String, Vec<String>, DeltaMeta)> {
        let name = delta_file(rec.id);
        let text = oms::persist::load_text(backup, &dir.join(&name)?)
            .map_err(|e| HybridError::DeltaChain(format!("{name}: {e}")))?;
        if oms::persist::fnv64(text.as_bytes()) != rec.fp {
            return Err(HybridError::DeltaChain(format!(
                "{name}: fingerprint mismatch"
            )));
        }
        if rec.parent != at {
            return Err(HybridError::DeltaChain(format!(
                "{name}: extends seq {} but the chain is at {at}",
                rec.parent
            )));
        }
        let mut lines = text.lines();
        let whole_meta = match lines.next() {
            Some(DELTA_MAGIC) => false,
            Some(DELTA_MAGIC_V1) => true,
            _ => return Err(HybridError::DeltaChain(format!("{name}: bad header"))),
        };
        let mut oms_section = String::new();
        let mut fs_records = Vec::new();
        let mut meta_text = String::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("o|") {
                oms_section.push_str(rest);
                oms_section.push('\n');
            } else if let Some(rest) = line.strip_prefix("f|") {
                fs_records.push(rest.to_owned());
            } else if let Some(rest) = line.strip_prefix("m|") {
                meta_text.push_str(rest);
                meta_text.push('\n');
            } else if let Some(rest) = line.strip_prefix("seq ") {
                if parse_num::<u64>(rest, line)? != rec.seq {
                    return Err(HybridError::DeltaChain(format!(
                        "{name}: seq disagrees with the manifest"
                    )));
                }
            } else if let Some(rest) = line.strip_prefix("parent ") {
                if parse_num::<u64>(rest, line)? != rec.parent {
                    return Err(HybridError::DeltaChain(format!(
                        "{name}: parent disagrees with the manifest"
                    )));
                }
            } else {
                return Err(HybridError::DeltaChain(format!(
                    "{name}: unrecognised line {line:?}"
                )));
            }
        }
        let meta = if whole_meta {
            DeltaMeta::Whole(meta_text)
        } else {
            DeltaMeta::Records(meta_text)
        };
        Ok((oms_section, fs_records, meta))
    }

    /// Reads and verifies one sealed segment, checking fingerprint,
    /// header, continuity with the chain position, and entry count.
    fn read_sealed_segment(
        backup: &Vfs,
        dir: &VfsPath,
        rec: &SegRec,
        at: u64,
    ) -> HybridResult<Vec<String>> {
        let name = seg_file(rec.id);
        if rec.start != at + 1 {
            return Err(HybridError::DeltaChain(format!(
                "{name}: starts at seq {} but the chain is at {at}",
                rec.start
            )));
        }
        let text = oms::persist::load_text(backup, &dir.join(&name)?)
            .map_err(|e| HybridError::DeltaChain(format!("{name}: {e}")))?;
        if oms::persist::fnv64(text.as_bytes()) != rec.fp {
            return Err(HybridError::DeltaChain(format!(
                "{name}: fingerprint mismatch"
            )));
        }
        let seg = parse_segment(backup, &dir.join(&name)?)?;
        if seg.id != rec.id || seg.start != rec.start || seg.torn.is_some() {
            return Err(HybridError::DeltaChain(format!(
                "{name}: header disagrees with the manifest"
            )));
        }
        if seg.entries.len() as u64 != rec.end - rec.start + 1 {
            return Err(HybridError::DeltaChain(format!(
                "{name}: {} entrie(s), manifest says {}",
                seg.entries.len(),
                rec.end - rec.start + 1
            )));
        }
        Ok(seg.entries)
    }

    /// Replays journal entries through the normal apply path (failed
    /// ops re-fail, reproducing their partial effects), stopping at
    /// the target. Returns whether every entry was replayed.
    fn replay_entries(
        engine: &mut Engine,
        entries: &[String],
        target: Option<u64>,
        report: &mut RecoveryReport,
    ) -> HybridResult<bool> {
        for line in entries {
            if target.is_some_and(|t| engine.seq >= t) {
                return Ok(false);
            }
            let op = Op::parse_line(line)?;
            let _ = engine.apply(op);
            report.replayed += 1;
        }
        Ok(true)
    }

    /// Rebuilds an engine from its restored parts — the shared middle
    /// of every restore path: re-open FMCAD over
    /// the tree (re-running the §2.4 bootstrap and re-coupling every
    /// mapped library — customisation state is session-local), resume
    /// the OMS desktop counters, re-intern the coupling maps, and
    /// restore the trace ring and counters. The journal starts empty;
    /// the caller replays whatever tail applies.
    fn assemble_from_parts(
        db: oms::Database,
        fs: Vfs,
        meter: CostMeter,
        fs_clock: u64,
        meta: MetaState,
    ) -> HybridResult<Engine> {
        // Slave: re-open over the restored tree, re-register the
        // post-bootstrap viewtypes, re-install the customisation layer
        // and re-couple every mapped library (creation order).
        let mut fmcad = Fmcad::open_existing(fs)?;
        for (name, kind) in &meta.viewtype_apps {
            fmcad.register_viewtype(name, *kind);
        }
        fmcad.run_script(BOOTSTRAP_SCRIPT)?;
        for lib in meta.project_lib.values() {
            fmcad.fire_trigger("library-coupled", &[fml::Value::Str(lib.clone())])?;
        }
        // Install the recorded meter and clock only now: the re-open
        // parsed `.meta` files, and those reads must not count twice.
        fmcad.fs().restore_clock(fs_clock);
        fmcad.fs_ref().restore_meter(meter);

        // Master: the OMS database plus the exact desktop counters
        // (the lossy timestamp-based recovery is not enough for
        // replay).
        let mut jcf = Jcf::from_database(db);
        jcf.resume_counters(meta.desktop_ops, meta.clock);

        // The meta file stores plain owned strings; the live coupling
        // maps are persistent tries over interned `Arc` values, so the
        // restore re-interns each entry once here.
        let viewtypes_by_name = meta
            .viewtype_names
            .iter()
            .map(|(id, name)| (name.clone(), *id))
            .collect();
        let hy = Hybrid {
            jcf,
            fmcad,
            admin: meta.admin,
            project_lib: meta
                .project_lib
                .into_iter()
                .map(|(k, v)| (k, std::sync::Arc::from(v)))
                .collect(),
            cv_cell: meta
                .cv_cell
                .into_iter()
                .map(|(k, v)| (k, std::sync::Arc::from(v)))
                .collect(),
            viewtype_names: meta
                .viewtype_names
                .into_iter()
                .map(|(k, v)| (k, std::sync::Arc::from(v)))
                .collect(),
            viewtypes_by_name,
            viewtype_apps: meta.viewtype_apps,
            tool_kinds: meta.tool_kinds,
            dov_mirror: meta
                .dov_mirror
                .into_iter()
                .map(|(k, v)| (k, std::sync::Arc::new(v)))
                .collect(),
            fmcad_ui_ops: meta.fmcad_ui_ops,
            features: meta.features,
            staging_mode: meta.staging_mode,
            mirror_cache: MirrorCache::from_entries(meta.mirror_cache),
            mirror_cache_hits: meta.mirror_cache_hits,
            // Pure memoization; rebuilt on demand, never persisted.
            children_cache: BTreeMap::new(),
        };
        let mut trace = TraceSink::new(meta.trace_capacity);
        trace.restore(meta.trace);
        let mut counters = CounterSink::default();
        counters.restore(meta.counter_ops, meta.counter_failures);
        Ok(Engine {
            hy,
            journal: Vec::new(),
            seq: meta.seq,
            trace,
            counters,
            extra: Vec::new(),
            snap_cache: std::sync::Mutex::new(None),
            durable: None,
        })
    }

    /// A deterministic fingerprint of everything the engine models:
    /// the OMS database, desktop counters, the shared file system
    /// (tree, contents, clock, cost meter), the coupling tables, and
    /// the observable engine state (sequence number, trace ring,
    /// counters). Two engines with equal fingerprints are in
    /// equivalent states.
    ///
    /// The meter is captured *first*; the fingerprint walk itself then
    /// charges the meter, so compute at most one fingerprint per
    /// instance when comparing.
    ///
    /// # Errors
    ///
    /// Returns file system errors from the walk.
    pub fn state_fingerprint(&self) -> HybridResult<String> {
        let fs = self.hy.fmcad.fs_ref();
        let mut s = format!("{}\nfs-clock {}\n", meter_record(&fs.meter()), fs.now());
        s.push_str(&self.meta_text());
        s.push_str("oms\n");
        s.push_str(&oms::persist::dump(self.hy.jcf.database()));
        for path in fs.walk_files(&VfsPath::root())? {
            let data = fs.read(&path)?;
            s.push_str(&format!("hash {path} {}\n", data.content_hash()));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (Engine, UserId, StandardFlow, TeamId) {
        let mut en = Engine::new();
        let admin = en.admin();
        let alice = en.add_user("alice", false).unwrap();
        let team = en.add_team(admin, "asic").unwrap();
        en.add_team_member(admin, team, alice).unwrap();
        let flow = en.standard_flow("std").unwrap();
        (en, alice, flow, team)
    }

    #[test]
    fn wrappers_journal_every_op() {
        let (mut en, alice, flow, team) = seeded();
        let project = en.create_project("alu").unwrap();
        let cell = en.create_cell(project, "adder").unwrap();
        let (cv, variant) = en.create_cell_version(cell, flow.flow, team).unwrap();
        en.reserve(alice, cv).unwrap();
        let dovs = en
            .run_activity(alice, variant, flow.enter_schematic, false, |_s| {
                Ok(vec![ToolOutput {
                    viewtype: "schematic".into(),
                    data: b"netlist adder\nport a input\n".to_vec().into(),
                }])
            })
            .unwrap();
        assert_eq!(dovs.len(), 1);
        assert_eq!(en.seq(), 9);
        assert_eq!(en.journal_ops().len(), 9);
        assert_eq!(en.counters().ops()["run-activity"], 1);
        assert!(en.trace().entries().all(|e| e.ok));
        // Failed ops are journaled too.
        assert!(en.create_project("alu").is_err());
        assert_eq!(en.seq(), 10);
        assert_eq!(en.counters().failures()["jcf"], 1);
        assert!(!en.trace().entries().last().unwrap().ok);
    }

    #[test]
    fn checkpoint_replay_reproduces_live_state() {
        let (mut en, alice, flow, team) = seeded();
        let project = en.create_project("alu").unwrap();
        let cell = en.create_cell(project, "adder").unwrap();
        let (cv, variant) = en.create_cell_version(cell, flow.flow, team).unwrap();
        en.reserve(alice, cv).unwrap();

        let mut backup = Vfs::new();
        let dir = VfsPath::parse("/backup/ck1").unwrap();
        en.checkpoint(&mut backup, &dir).unwrap();

        // Post-checkpoint tail: a real activity plus a failing op.
        en.run_activity(alice, variant, flow.enter_schematic, false, |_s| {
            Ok(vec![ToolOutput {
                viewtype: "schematic".into(),
                data: b"netlist adder\nport a input\n".to_vec().into(),
            }])
        })
        .unwrap();
        assert!(en.create_cell(project, "adder").is_err());
        en.publish(alice, cv).unwrap();
        en.sync_journal(&mut backup, &dir).unwrap();

        let restored = Engine::restore_from(&mut backup, &dir).unwrap();
        assert_eq!(restored.seq(), en.seq());
        assert_eq!(
            restored.state_fingerprint().unwrap(),
            en.state_fingerprint().unwrap()
        );
    }

    /// The private records of the recorded chain fixtures — manifests,
    /// segment headers and whole FMCAD images — parse and re-render to
    /// the bytes on disk.
    #[test]
    fn fixture_records_re_render_byte_for_byte() {
        let fixtures =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        for chain in [
            "engine_chain_v1/chain",
            "sharded_backup_with_op_segments/shard-0",
            "sharded_backup_with_op_segments/shard-1",
        ] {
            let dir = fixtures.join(chain);
            let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
            let manifest = read(CK_MANIFEST);
            assert_eq!(Manifest::parse(&manifest).unwrap().render(), manifest);

            let image = read(FS_IMG);
            let (mut fs, meter, clock) = restore_fs(&image).unwrap();
            let scan = fs_scan(&fs).unwrap();
            fs.restore_meter(meter);
            fs.restore_clock(clock);
            assert_eq!(fs_image_from_scan(&fs, &scan), image, "{chain}");

            let mut disk = Vfs::new();
            for entry in std::fs::read_dir(&dir).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                if name.starts_with("seg-") {
                    let path = VfsPath::parse(&format!("/{name}")).unwrap();
                    disk.write(&path, read(&name).into_bytes()).unwrap();
                    let seg = parse_segment(&disk, &path).unwrap();
                    let header = read(&name).lines().nth(1).unwrap().to_owned();
                    assert_eq!(seg_header(seg.id, seg.start), header, "{chain}/{name}");
                }
            }
        }
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut backup = Vfs::new();
        let dir = VfsPath::parse("/backup/bad").unwrap();
        let (mut en, ..) = seeded();
        en.checkpoint(&mut backup, &dir).unwrap();
        backup
            .write(&dir.join(HYBRID_META).unwrap(), b"not a meta".to_vec())
            .unwrap();
        // The base fingerprint recorded in the manifest no longer
        // matches the tampered image.
        assert!(matches!(
            Engine::restore_from(&mut backup, &dir),
            Err(HybridError::DeltaChain(_))
        ));
    }
}
