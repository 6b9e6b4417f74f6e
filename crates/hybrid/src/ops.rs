//! The typed command vocabulary of the hybrid framework.
//!
//! Every mutation of the coupled JCF/FMCAD world is described by one
//! [`Op`] value. The [`Engine`](crate::Engine) is the only public path
//! that executes them, which gives the system a single choke point for
//! journaling, metrics and replay — the description-driven command
//! dispatch the CRISTAL line of work recommends for long-lived EDM
//! systems.
//!
//! Ops are serializable to a one-line text form ([`Op::to_line`] /
//! [`Op::parse_line`]) in the same hex-armoured style as the OMS image
//! format, so an ops journal can be persisted next to a database
//! checkpoint and replayed after a restart.

use cad_tools::ToolKind;
use cad_vfs::Blob;
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};

use crate::error::{HybridError, HybridResult};
use crate::framework::StagingMode;
use crate::future::FutureFeatures;

/// One serializable mutating operation of the hybrid framework.
///
/// The variants cover everything the workspace performs today: desktop
/// administration, flow definition, project structure, workspace
/// reserve/publish, encapsulated activity runs, configurations, the
/// future-work switches, and the out-of-band FMCAD operations the
/// experiments exercise (checkout/checkin, purge, direct writes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Register a user on the JCF desktop.
    AddUser {
        /// Unique user name.
        name: String,
        /// Whether the user is a project manager.
        manager: bool,
    },
    /// Create a team (manager-only).
    AddTeam {
        /// The acting manager.
        actor: UserId,
        /// Unique team name.
        name: String,
    },
    /// Add a user to a team (manager-only).
    AddTeamMember {
        /// The acting manager.
        actor: UserId,
        /// The team.
        team: TeamId,
        /// The new member.
        user: UserId,
    },
    /// Register a viewtype on both sides of the coupling.
    RegisterViewtype {
        /// The viewtype name.
        name: String,
        /// The FMCAD application bound to the viewtype.
        application: ToolKind,
    },
    /// Register an encapsulated tool resource.
    RegisterTool {
        /// The tool name.
        name: String,
        /// The real application behind it.
        kind: ToolKind,
    },
    /// Define and freeze the paper's three-tool standard flow.
    DefineStandardFlow {
        /// The flow name.
        name: String,
    },
    /// Define and freeze the quality-gated variant of the standard flow.
    DefineQualityGatedFlow {
        /// The flow name.
        name: String,
    },
    /// Define an empty custom flow.
    DefineFlow {
        /// The acting manager.
        actor: UserId,
        /// The flow name.
        name: String,
    },
    /// Add an activity to an unfrozen flow.
    AddActivity {
        /// The acting manager.
        actor: UserId,
        /// The flow under construction.
        flow: FlowId,
        /// The activity name.
        name: String,
        /// The tool the activity runs.
        tool: ToolId,
        /// Input viewtypes.
        needs: Vec<ViewTypeId>,
        /// Output viewtypes.
        creates: Vec<ViewTypeId>,
        /// Activities that must finish first.
        predecessors: Vec<ActivityId>,
    },
    /// Freeze a flow so cell versions can use it.
    FreezeFlow {
        /// The acting manager.
        actor: UserId,
        /// The flow to freeze.
        flow: FlowId,
    },
    /// Create a project and its coupled FMCAD library.
    CreateProject {
        /// The project (and library) name.
        name: String,
    },
    /// Create a cell inside a project.
    CreateCell {
        /// The owning project.
        project: ProjectId,
        /// The cell name.
        name: String,
    },
    /// Create a cell version (with base variant) and its mapped FMCAD
    /// cell.
    CreateCellVersion {
        /// The cell.
        cell: CellId,
        /// The governing flow.
        flow: FlowId,
        /// The owning team.
        team: TeamId,
    },
    /// Derive a named variant inside a reserved cell version.
    DeriveVariant {
        /// The reserving designer.
        user: UserId,
        /// The reserved cell version.
        cv: CellVersionId,
        /// The variant name.
        name: String,
        /// The variant derived from, if any.
        base: Option<VariantId>,
    },
    /// Declare a hierarchy child of a cell version (`CompOf`).
    DeclareCompOf {
        /// The reserving designer.
        user: UserId,
        /// The parent cell version.
        cv: CellVersionId,
        /// The child cell.
        child: CellId,
    },
    /// Share a cell across projects (future-work feature).
    ShareCell {
        /// The acting manager.
        actor: UserId,
        /// The cell to share.
        cell: CellId,
    },
    /// Promote a winning variant into a new cell version.
    PromoteVariant {
        /// The reserving designer.
        user: UserId,
        /// The winning variant.
        winner: VariantId,
    },
    /// Reserve a cell version into a designer's workspace.
    Reserve {
        /// The designer.
        user: UserId,
        /// The cell version.
        cv: CellVersionId,
    },
    /// Publish a reserved cell version back to the team.
    Publish {
        /// The reserving designer.
        user: UserId,
        /// The cell version.
        cv: CellVersionId,
    },
    /// Create a design object under a variant via the desktop.
    CreateDesignObject {
        /// The reserving designer.
        user: UserId,
        /// The owning variant.
        variant: VariantId,
        /// The design object name.
        name: String,
        /// Its viewtype.
        viewtype: ViewTypeId,
    },
    /// Add a design object version (raw desktop write, no tool run).
    AddDesignObjectVersion {
        /// The reserving designer.
        user: UserId,
        /// The design object.
        design_object: DesignObjectId,
        /// The design data.
        data: Blob,
    },
    /// Record that two design object versions are equivalent.
    MarkEquivalent {
        /// One version.
        a: DovId,
        /// The other version.
        b: DovId,
    },
    /// Merge a branch workspace forward into the current head: one
    /// atomic reserve → write → publish against a cell version, with
    /// optimistic conflict detection against the recorded branch
    /// point. The op *succeeds* with either
    /// [`Event::MergeApplied`](crate::Event::MergeApplied) (state
    /// changed) or
    /// [`Event::MergeConflict`](crate::Event::MergeConflict) (typed
    /// conflicts, no state change), so a replay reproduces the same
    /// outcome deterministically.
    MergeForward {
        /// The merging designer.
        user: UserId,
        /// The cell version merged into.
        cv: CellVersionId,
        /// The retained commit sequence the workspace branched from.
        base_seq: u64,
        /// Per design object, the version count observed at the branch
        /// point; a higher count at merge time is a conflict.
        expected: Vec<(DesignObjectId, u32)>,
        /// The staged writes: one new version per design object.
        writes: Vec<(DesignObjectId, Blob)>,
    },
    /// Run one encapsulated tool session as a JCF activity. The
    /// recorded `outputs` are what the tool produced (viewtype name,
    /// data); on replay they are fed back through the full §2.4
    /// pipeline, so staging, consistency checks, derivation recording
    /// and mirroring all happen again deterministically. A session that
    /// itself failed is recorded with `session_error`; the replay
    /// reproduces the failure (rendered text preserved, reported as a
    /// [`HybridError::Journal`] error) after the same partial pipeline.
    RunActivity {
        /// The designer running the activity.
        user: UserId,
        /// The variant worked on.
        variant: VariantId,
        /// The activity.
        activity: ActivityId,
        /// Whether a pending predecessor was overridden.
        override_pending: bool,
        /// The produced `(viewtype name, data)` outputs.
        outputs: Vec<(String, Blob)>,
        /// The rendered error of a failed tool session, if any.
        session_error: Option<String>,
    },
    /// Browse (read-only open) a design object version; pays the §3.6
    /// copy path and bumps the UI counter, so it is journaled.
    Browse {
        /// The reading user.
        user: UserId,
        /// The version to browse.
        dov: DovId,
    },
    /// Read design data via the desktop (bumps the desktop counter).
    ReadDesignData {
        /// The reading user.
        user: UserId,
        /// The version to read.
        dov: DovId,
    },
    /// Create a configuration under a cell version.
    CreateConfiguration {
        /// The acting user.
        user: UserId,
        /// The owning cell version.
        cv: CellVersionId,
        /// The configuration name.
        name: String,
    },
    /// Freeze a selection of design object versions as a configuration
    /// version.
    CreateConfigVersion {
        /// The acting user.
        user: UserId,
        /// The configuration.
        config: ConfigId,
        /// The selected design object versions.
        contents: Vec<DovId>,
    },
    /// Export a configuration version into a directory of the shared
    /// file system (the tapeout package).
    ExportConfig {
        /// The acting user.
        user: UserId,
        /// The configuration version.
        config_version: ConfigVersionId,
        /// Destination directory (absolute VFS path).
        dest: String,
    },
    /// Run layout-versus-schematic on a variant's latest views.
    RunLvs {
        /// The acting user.
        user: UserId,
        /// The variant to check.
        variant: VariantId,
    },
    /// Switch the future-work feature set.
    SetFutureFeatures {
        /// The new switches.
        features: FutureFeatures,
    },
    /// Switch how design data moves through the staging area.
    SetStagingMode {
        /// The new mode.
        mode: StagingMode,
    },
    /// Import an uncoupled FMCAD library into the master (Table 1).
    ImportLibrary {
        /// The importing designer (team member).
        actor: UserId,
        /// The legacy library name.
        library: String,
        /// The flow for the created cell versions.
        flow: FlowId,
        /// The owning team.
        team: TeamId,
    },
    /// Create a standalone FMCAD library (out-of-band, e.g. legacy
    /// data that predates the coupling).
    FmcadCreateLibrary {
        /// The library name.
        name: String,
    },
    /// Create a cell in an FMCAD library directly.
    FmcadCreateCell {
        /// The library.
        library: String,
        /// The cell name.
        cell: String,
    },
    /// Create a cellview in an FMCAD library directly.
    FmcadCreateCellview {
        /// The library.
        library: String,
        /// The cell.
        cell: String,
        /// The view name.
        view: String,
        /// The registered viewtype.
        viewtype: String,
    },
    /// Check a cellview out of an FMCAD library directly.
    FmcadCheckout {
        /// The FMCAD-side user name.
        user: String,
        /// The library.
        library: String,
        /// The cell.
        cell: String,
        /// The view.
        view: String,
    },
    /// Check data into an FMCAD cellview directly.
    FmcadCheckin {
        /// The FMCAD-side user name.
        user: String,
        /// The library.
        library: String,
        /// The cell.
        cell: String,
        /// The view.
        view: String,
        /// The data to check in.
        data: Blob,
    },
    /// Purge one cellview version from an FMCAD library.
    FmcadPurgeVersion {
        /// The FMCAD-side user name.
        user: String,
        /// The library.
        library: String,
        /// The cell.
        cell: String,
        /// The view.
        view: String,
        /// The version to purge.
        version: u32,
    },
    /// Scribble over a versioned library file behind the framework's
    /// back (the experiments' out-of-band corruption probe).
    FmcadDirectWrite {
        /// The library.
        library: String,
        /// The cell.
        cell: String,
        /// The view.
        view: String,
        /// The version whose file is overwritten.
        version: u32,
        /// The bytes to write.
        data: Blob,
    },
}

impl Op {
    /// The stable kind name of this operation (journal + counters key).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::AddUser { .. } => "add-user",
            Op::AddTeam { .. } => "add-team",
            Op::AddTeamMember { .. } => "add-team-member",
            Op::RegisterViewtype { .. } => "register-viewtype",
            Op::RegisterTool { .. } => "register-tool",
            Op::DefineStandardFlow { .. } => "define-standard-flow",
            Op::DefineQualityGatedFlow { .. } => "define-quality-gated-flow",
            Op::DefineFlow { .. } => "define-flow",
            Op::AddActivity { .. } => "add-activity",
            Op::FreezeFlow { .. } => "freeze-flow",
            Op::CreateProject { .. } => "create-project",
            Op::CreateCell { .. } => "create-cell",
            Op::CreateCellVersion { .. } => "create-cell-version",
            Op::DeriveVariant { .. } => "derive-variant",
            Op::DeclareCompOf { .. } => "declare-comp-of",
            Op::ShareCell { .. } => "share-cell",
            Op::PromoteVariant { .. } => "promote-variant",
            Op::Reserve { .. } => "reserve",
            Op::Publish { .. } => "publish",
            Op::CreateDesignObject { .. } => "create-design-object",
            Op::AddDesignObjectVersion { .. } => "add-design-object-version",
            Op::MarkEquivalent { .. } => "mark-equivalent",
            Op::MergeForward { .. } => "merge-forward",
            Op::RunActivity { .. } => "run-activity",
            Op::Browse { .. } => "browse",
            Op::ReadDesignData { .. } => "read-design-data",
            Op::CreateConfiguration { .. } => "create-configuration",
            Op::CreateConfigVersion { .. } => "create-config-version",
            Op::ExportConfig { .. } => "export-config",
            Op::RunLvs { .. } => "run-lvs",
            Op::SetFutureFeatures { .. } => "set-future-features",
            Op::SetStagingMode { .. } => "set-staging-mode",
            Op::ImportLibrary { .. } => "import-library",
            Op::FmcadCreateLibrary { .. } => "fmcad-create-library",
            Op::FmcadCreateCell { .. } => "fmcad-create-cell",
            Op::FmcadCreateCellview { .. } => "fmcad-create-cellview",
            Op::FmcadCheckout { .. } => "fmcad-checkout",
            Op::FmcadCheckin { .. } => "fmcad-checkin",
            Op::FmcadPurgeVersion { .. } => "fmcad-purge-version",
            Op::FmcadDirectWrite { .. } => "fmcad-direct-write",
        }
    }

    /// A short human-readable summary (kind plus key scalars, no
    /// payload bytes) for the tracing ring buffer.
    pub fn summary(&self) -> String {
        match self {
            Op::AddUser { name, manager } => format!("add-user {name} manager={manager}"),
            Op::AddTeam { name, .. } => format!("add-team {name}"),
            Op::AddTeamMember { team, user, .. } => format!("add-team-member {team} {user}"),
            Op::RegisterViewtype { name, application } => {
                format!("register-viewtype {name} ({application})")
            }
            Op::RegisterTool { name, kind } => format!("register-tool {name} ({kind})"),
            Op::DefineStandardFlow { name } => format!("define-standard-flow {name}"),
            Op::DefineQualityGatedFlow { name } => format!("define-quality-gated-flow {name}"),
            Op::DefineFlow { name, .. } => format!("define-flow {name}"),
            Op::AddActivity { flow, name, .. } => format!("add-activity {flow} {name}"),
            Op::FreezeFlow { flow, .. } => format!("freeze-flow {flow}"),
            Op::CreateProject { name } => format!("create-project {name}"),
            Op::CreateCell { project, name } => format!("create-cell {project} {name}"),
            Op::CreateCellVersion { cell, .. } => format!("create-cell-version {cell}"),
            Op::DeriveVariant { cv, name, .. } => format!("derive-variant {cv} {name}"),
            Op::DeclareCompOf { cv, child, .. } => format!("declare-comp-of {cv} {child}"),
            Op::ShareCell { cell, .. } => format!("share-cell {cell}"),
            Op::PromoteVariant { winner, .. } => format!("promote-variant {winner}"),
            Op::Reserve { user, cv } => format!("reserve {cv} by {user}"),
            Op::Publish { user, cv } => format!("publish {cv} by {user}"),
            Op::CreateDesignObject { variant, name, .. } => {
                format!("create-design-object {variant} {name}")
            }
            Op::AddDesignObjectVersion {
                design_object,
                data,
                ..
            } => format!(
                "add-design-object-version {design_object} ({} byte(s))",
                data.len()
            ),
            Op::MarkEquivalent { a, b } => format!("mark-equivalent {a} {b}"),
            Op::MergeForward {
                cv,
                base_seq,
                writes,
                ..
            } => format!(
                "merge-forward {cv} from seq {base_seq} ({} write(s))",
                writes.len()
            ),
            Op::RunActivity {
                variant,
                activity,
                outputs,
                session_error,
                ..
            } => {
                if let Some(err) = session_error {
                    format!("run-activity {activity} on {variant} [session failed: {err}]")
                } else {
                    format!(
                        "run-activity {activity} on {variant} ({} output(s))",
                        outputs.len()
                    )
                }
            }
            Op::Browse { user, dov } => format!("browse {dov} by {user}"),
            Op::ReadDesignData { user, dov } => format!("read-design-data {dov} by {user}"),
            Op::CreateConfiguration { cv, name, .. } => {
                format!("create-configuration {cv} {name}")
            }
            Op::CreateConfigVersion {
                config, contents, ..
            } => format!("create-config-version {config} ({} dov(s))", contents.len()),
            Op::ExportConfig {
                config_version,
                dest,
                ..
            } => format!("export-config {config_version} -> {dest}"),
            Op::RunLvs { variant, .. } => format!("run-lvs {variant}"),
            Op::SetFutureFeatures { features } => format!(
                "set-future-features procedural={} non-isomorphic={} sharing={}",
                features.procedural_interface,
                features.non_isomorphic_hierarchies,
                features.cross_project_sharing
            ),
            Op::SetStagingMode { mode } => format!("set-staging-mode {mode:?}"),
            Op::ImportLibrary { library, .. } => format!("import-library {library}"),
            Op::FmcadCreateLibrary { name } => format!("fmcad-create-library {name}"),
            Op::FmcadCreateCell { library, cell } => format!("fmcad-create-cell {library}/{cell}"),
            Op::FmcadCreateCellview {
                library,
                cell,
                view,
                ..
            } => format!("fmcad-create-cellview {library}/{cell}/{view}"),
            Op::FmcadCheckout {
                user,
                library,
                cell,
                view,
            } => format!("fmcad-checkout {library}/{cell}/{view} by {user}"),
            Op::FmcadCheckin {
                user,
                library,
                cell,
                view,
                data,
            } => format!(
                "fmcad-checkin {library}/{cell}/{view} by {user} ({} byte(s))",
                data.len()
            ),
            Op::FmcadPurgeVersion {
                library,
                cell,
                view,
                version,
                ..
            } => format!("fmcad-purge-version {library}/{cell}/{view} v{version}"),
            Op::FmcadDirectWrite {
                library,
                cell,
                view,
                version,
                data,
            } => format!(
                "fmcad-direct-write {library}/{cell}/{view} v{version} ({} byte(s))",
                data.len()
            ),
        }
    }
}

// --- line codec -------------------------------------------------------------

use oms::persist::{assemble, enc_ids, enc_str, hex, unhex, Fields};

impl Op {
    /// Serialises the operation into its one-line journal form:
    /// `kind|field=value|...` with hex-armoured strings and payloads.
    pub fn to_line(&self) -> String {
        let mut f: Vec<(&str, String)> = Vec::new();
        let kind = self.kind_name();
        match self {
            Op::AddUser { name, manager } => {
                f.push(("name", enc_str(name)));
                f.push(("manager", manager.to_string()));
            }
            Op::AddTeam { actor, name } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("name", enc_str(name)));
            }
            Op::AddTeamMember { actor, team, user } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("team", team.raw().to_string()));
                f.push(("user", user.raw().to_string()));
            }
            Op::RegisterViewtype { name, application } => {
                f.push(("name", enc_str(name)));
                f.push(("application", application.to_string()));
            }
            Op::RegisterTool { name, kind } => {
                f.push(("name", enc_str(name)));
                f.push(("kind", kind.to_string()));
            }
            Op::DefineStandardFlow { name } | Op::DefineQualityGatedFlow { name } => {
                f.push(("name", enc_str(name)));
            }
            Op::DefineFlow { actor, name } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("name", enc_str(name)));
            }
            Op::AddActivity {
                actor,
                flow,
                name,
                tool,
                needs,
                creates,
                predecessors,
            } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("flow", flow.raw().to_string()));
                f.push(("name", enc_str(name)));
                f.push(("tool", tool.raw().to_string()));
                f.push(("needs", enc_ids(needs, ViewTypeId::raw)));
                f.push(("creates", enc_ids(creates, ViewTypeId::raw)));
                f.push(("predecessors", enc_ids(predecessors, ActivityId::raw)));
            }
            Op::FreezeFlow { actor, flow } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("flow", flow.raw().to_string()));
            }
            Op::CreateProject { name } | Op::FmcadCreateLibrary { name } => {
                f.push(("name", enc_str(name)));
            }
            Op::CreateCell { project, name } => {
                f.push(("project", project.raw().to_string()));
                f.push(("name", enc_str(name)));
            }
            Op::CreateCellVersion { cell, flow, team } => {
                f.push(("cell", cell.raw().to_string()));
                f.push(("flow", flow.raw().to_string()));
                f.push(("team", team.raw().to_string()));
            }
            Op::DeriveVariant {
                user,
                cv,
                name,
                base,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("cv", cv.raw().to_string()));
                f.push(("name", enc_str(name)));
                f.push((
                    "base",
                    base.map(|b| b.raw().to_string()).unwrap_or("-".to_owned()),
                ));
            }
            Op::DeclareCompOf { user, cv, child } => {
                f.push(("user", user.raw().to_string()));
                f.push(("cv", cv.raw().to_string()));
                f.push(("child", child.raw().to_string()));
            }
            Op::ShareCell { actor, cell } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("cell", cell.raw().to_string()));
            }
            Op::PromoteVariant { user, winner } => {
                f.push(("user", user.raw().to_string()));
                f.push(("winner", winner.raw().to_string()));
            }
            Op::Reserve { user, cv } | Op::Publish { user, cv } => {
                f.push(("user", user.raw().to_string()));
                f.push(("cv", cv.raw().to_string()));
            }
            Op::CreateDesignObject {
                user,
                variant,
                name,
                viewtype,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("variant", variant.raw().to_string()));
                f.push(("name", enc_str(name)));
                f.push(("viewtype", viewtype.raw().to_string()));
            }
            Op::AddDesignObjectVersion {
                user,
                design_object,
                data,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("design_object", design_object.raw().to_string()));
                f.push(("data", hex(data)));
            }
            Op::MarkEquivalent { a, b } => {
                f.push(("a", a.raw().to_string()));
                f.push(("b", b.raw().to_string()));
            }
            Op::MergeForward {
                user,
                cv,
                base_seq,
                expected,
                writes,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("cv", cv.raw().to_string()));
                f.push(("base_seq", base_seq.to_string()));
                let exp = expected
                    .iter()
                    .map(|(d, n)| format!("{}:{}", d.raw(), n))
                    .collect::<Vec<_>>()
                    .join(";");
                f.push(("expected", exp));
                let wr = writes
                    .iter()
                    .map(|(d, data)| format!("{}:{}", d.raw(), hex(data)))
                    .collect::<Vec<_>>()
                    .join(";");
                f.push(("writes", wr));
            }
            Op::RunActivity {
                user,
                variant,
                activity,
                override_pending,
                outputs,
                session_error,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("variant", variant.raw().to_string()));
                f.push(("activity", activity.raw().to_string()));
                f.push(("override", override_pending.to_string()));
                let outs = outputs
                    .iter()
                    .map(|(v, d)| format!("{}:{}", enc_str(v), hex(d)))
                    .collect::<Vec<_>>()
                    .join(";");
                f.push(("outputs", outs));
                f.push((
                    "session_error",
                    session_error
                        .as_ref()
                        .map(|e| enc_str(e))
                        .unwrap_or("-".to_owned()),
                ));
            }
            Op::Browse { user, dov } | Op::ReadDesignData { user, dov } => {
                f.push(("user", user.raw().to_string()));
                f.push(("dov", dov.raw().to_string()));
            }
            Op::CreateConfiguration { user, cv, name } => {
                f.push(("user", user.raw().to_string()));
                f.push(("cv", cv.raw().to_string()));
                f.push(("name", enc_str(name)));
            }
            Op::CreateConfigVersion {
                user,
                config,
                contents,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("config", config.raw().to_string()));
                f.push(("contents", enc_ids(contents, DovId::raw)));
            }
            Op::ExportConfig {
                user,
                config_version,
                dest,
            } => {
                f.push(("user", user.raw().to_string()));
                f.push(("config_version", config_version.raw().to_string()));
                f.push(("dest", enc_str(dest)));
            }
            Op::RunLvs { user, variant } => {
                f.push(("user", user.raw().to_string()));
                f.push(("variant", variant.raw().to_string()));
            }
            Op::SetFutureFeatures { features } => {
                f.push(("procedural", features.procedural_interface.to_string()));
                f.push((
                    "non_isomorphic",
                    features.non_isomorphic_hierarchies.to_string(),
                ));
                f.push(("sharing", features.cross_project_sharing.to_string()));
            }
            Op::SetStagingMode { mode } => {
                f.push((
                    "mode",
                    match mode {
                        StagingMode::ZeroCopy => "zero-copy",
                        StagingMode::DeepCopy => "deep-copy",
                    }
                    .to_owned(),
                ));
            }
            Op::ImportLibrary {
                actor,
                library,
                flow,
                team,
            } => {
                f.push(("actor", actor.raw().to_string()));
                f.push(("library", enc_str(library)));
                f.push(("flow", flow.raw().to_string()));
                f.push(("team", team.raw().to_string()));
            }
            Op::FmcadCreateCell { library, cell } => {
                f.push(("library", enc_str(library)));
                f.push(("cell", enc_str(cell)));
            }
            Op::FmcadCreateCellview {
                library,
                cell,
                view,
                viewtype,
            } => {
                f.push(("library", enc_str(library)));
                f.push(("cell", enc_str(cell)));
                f.push(("view", enc_str(view)));
                f.push(("viewtype", enc_str(viewtype)));
            }
            Op::FmcadCheckout {
                user,
                library,
                cell,
                view,
            } => {
                f.push(("user", enc_str(user)));
                f.push(("library", enc_str(library)));
                f.push(("cell", enc_str(cell)));
                f.push(("view", enc_str(view)));
            }
            Op::FmcadCheckin {
                user,
                library,
                cell,
                view,
                data,
            } => {
                f.push(("user", enc_str(user)));
                f.push(("library", enc_str(library)));
                f.push(("cell", enc_str(cell)));
                f.push(("view", enc_str(view)));
                f.push(("data", hex(data)));
            }
            Op::FmcadPurgeVersion {
                user,
                library,
                cell,
                view,
                version,
            } => {
                f.push(("user", enc_str(user)));
                f.push(("library", enc_str(library)));
                f.push(("cell", enc_str(cell)));
                f.push(("view", enc_str(view)));
                f.push(("version", version.to_string()));
            }
            Op::FmcadDirectWrite {
                library,
                cell,
                view,
                version,
                data,
            } => {
                f.push(("library", enc_str(library)));
                f.push(("cell", enc_str(cell)));
                f.push(("view", enc_str(view)));
                f.push(("version", version.to_string()));
                f.push(("data", hex(data)));
            }
        }
        assemble(kind, &f)
    }

    /// Parses an operation back from its [`Op::to_line`] form.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Journal`] for malformed lines.
    pub fn parse_line(line: &str) -> HybridResult<Op> {
        Self::parse_inner(line).map_err(HybridError::Journal)
    }

    fn parse_inner(line: &str) -> Result<Op, String> {
        let f = Fields::parse(line)?;
        let op = match f.kind {
            "add-user" => Op::AddUser {
                name: f.str("name")?,
                manager: f.num("manager")?,
            },
            "add-team" => Op::AddTeam {
                actor: f.id("actor", UserId::from_raw)?,
                name: f.str("name")?,
            },
            "add-team-member" => Op::AddTeamMember {
                actor: f.id("actor", UserId::from_raw)?,
                team: f.id("team", TeamId::from_raw)?,
                user: f.id("user", UserId::from_raw)?,
            },
            "register-viewtype" => Op::RegisterViewtype {
                name: f.str("name")?,
                application: f.num("application")?,
            },
            "register-tool" => Op::RegisterTool {
                name: f.str("name")?,
                kind: f.num("kind")?,
            },
            "define-standard-flow" => Op::DefineStandardFlow {
                name: f.str("name")?,
            },
            "define-quality-gated-flow" => Op::DefineQualityGatedFlow {
                name: f.str("name")?,
            },
            "define-flow" => Op::DefineFlow {
                actor: f.id("actor", UserId::from_raw)?,
                name: f.str("name")?,
            },
            "add-activity" => Op::AddActivity {
                actor: f.id("actor", UserId::from_raw)?,
                flow: f.id("flow", FlowId::from_raw)?,
                name: f.str("name")?,
                tool: f.id("tool", ToolId::from_raw)?,
                needs: f.ids("needs", ViewTypeId::from_raw)?,
                creates: f.ids("creates", ViewTypeId::from_raw)?,
                predecessors: f.ids("predecessors", ActivityId::from_raw)?,
            },
            "freeze-flow" => Op::FreezeFlow {
                actor: f.id("actor", UserId::from_raw)?,
                flow: f.id("flow", FlowId::from_raw)?,
            },
            "create-project" => Op::CreateProject {
                name: f.str("name")?,
            },
            "create-cell" => Op::CreateCell {
                project: f.id("project", ProjectId::from_raw)?,
                name: f.str("name")?,
            },
            "create-cell-version" => Op::CreateCellVersion {
                cell: f.id("cell", CellId::from_raw)?,
                flow: f.id("flow", FlowId::from_raw)?,
                team: f.id("team", TeamId::from_raw)?,
            },
            "derive-variant" => Op::DeriveVariant {
                user: f.id("user", UserId::from_raw)?,
                cv: f.id("cv", CellVersionId::from_raw)?,
                name: f.str("name")?,
                base: match f.get("base")? {
                    "-" => None,
                    raw => Some(VariantId::from_raw(
                        raw.parse().map_err(|_| "bad base id".to_owned())?,
                    )),
                },
            },
            "declare-comp-of" => Op::DeclareCompOf {
                user: f.id("user", UserId::from_raw)?,
                cv: f.id("cv", CellVersionId::from_raw)?,
                child: f.id("child", CellId::from_raw)?,
            },
            "share-cell" => Op::ShareCell {
                actor: f.id("actor", UserId::from_raw)?,
                cell: f.id("cell", CellId::from_raw)?,
            },
            "promote-variant" => Op::PromoteVariant {
                user: f.id("user", UserId::from_raw)?,
                winner: f.id("winner", VariantId::from_raw)?,
            },
            "reserve" => Op::Reserve {
                user: f.id("user", UserId::from_raw)?,
                cv: f.id("cv", CellVersionId::from_raw)?,
            },
            "publish" => Op::Publish {
                user: f.id("user", UserId::from_raw)?,
                cv: f.id("cv", CellVersionId::from_raw)?,
            },
            "create-design-object" => Op::CreateDesignObject {
                user: f.id("user", UserId::from_raw)?,
                variant: f.id("variant", VariantId::from_raw)?,
                name: f.str("name")?,
                viewtype: f.id("viewtype", ViewTypeId::from_raw)?,
            },
            "add-design-object-version" => Op::AddDesignObjectVersion {
                user: f.id("user", UserId::from_raw)?,
                design_object: f.id("design_object", DesignObjectId::from_raw)?,
                data: f.blob("data")?,
            },
            "mark-equivalent" => Op::MarkEquivalent {
                a: f.id("a", DovId::from_raw)?,
                b: f.id("b", DovId::from_raw)?,
            },
            "merge-forward" => {
                let raw_expected = f.get("expected")?;
                let mut expected = Vec::new();
                if !raw_expected.is_empty() {
                    for pair in raw_expected.split(';') {
                        let (d, n) = pair
                            .split_once(':')
                            .ok_or_else(|| "bad expected pair".to_owned())?;
                        let design_object = DesignObjectId::from_raw(
                            d.parse().map_err(|_| "bad expected id".to_owned())?,
                        );
                        let count: u32 = n.parse().map_err(|_| "bad expected count".to_owned())?;
                        expected.push((design_object, count));
                    }
                }
                let raw_writes = f.get("writes")?;
                let mut writes = Vec::new();
                if !raw_writes.is_empty() {
                    for pair in raw_writes.split(';') {
                        let (d, data) = pair
                            .split_once(':')
                            .ok_or_else(|| "bad write pair".to_owned())?;
                        let design_object = DesignObjectId::from_raw(
                            d.parse().map_err(|_| "bad write id".to_owned())?,
                        );
                        let blob =
                            Blob::from(unhex(data).ok_or_else(|| "bad write data hex".to_owned())?);
                        writes.push((design_object, blob));
                    }
                }
                Op::MergeForward {
                    user: f.id("user", UserId::from_raw)?,
                    cv: f.id("cv", CellVersionId::from_raw)?,
                    base_seq: f.num("base_seq")?,
                    expected,
                    writes,
                }
            }
            "run-activity" => {
                let raw_outputs = f.get("outputs")?;
                let mut outputs = Vec::new();
                if !raw_outputs.is_empty() {
                    for pair in raw_outputs.split(';') {
                        let (v, d) = pair
                            .split_once(':')
                            .ok_or_else(|| "bad output pair".to_owned())?;
                        let view = String::from_utf8(
                            unhex(v).ok_or_else(|| "bad output viewtype hex".to_owned())?,
                        )
                        .map_err(|_| "output viewtype is not utf-8".to_owned())?;
                        let data =
                            Blob::from(unhex(d).ok_or_else(|| "bad output data hex".to_owned())?);
                        outputs.push((view, data));
                    }
                }
                Op::RunActivity {
                    user: f.id("user", UserId::from_raw)?,
                    variant: f.id("variant", VariantId::from_raw)?,
                    activity: f.id("activity", ActivityId::from_raw)?,
                    override_pending: f.num("override")?,
                    outputs,
                    session_error: match f.get("session_error")? {
                        "-" => None,
                        raw => Some(
                            String::from_utf8(
                                unhex(raw).ok_or_else(|| "bad session error hex".to_owned())?,
                            )
                            .map_err(|_| "session error is not utf-8".to_owned())?,
                        ),
                    },
                }
            }
            "browse" => Op::Browse {
                user: f.id("user", UserId::from_raw)?,
                dov: f.id("dov", DovId::from_raw)?,
            },
            "read-design-data" => Op::ReadDesignData {
                user: f.id("user", UserId::from_raw)?,
                dov: f.id("dov", DovId::from_raw)?,
            },
            "create-configuration" => Op::CreateConfiguration {
                user: f.id("user", UserId::from_raw)?,
                cv: f.id("cv", CellVersionId::from_raw)?,
                name: f.str("name")?,
            },
            "create-config-version" => Op::CreateConfigVersion {
                user: f.id("user", UserId::from_raw)?,
                config: f.id("config", ConfigId::from_raw)?,
                contents: f.ids("contents", DovId::from_raw)?,
            },
            "export-config" => Op::ExportConfig {
                user: f.id("user", UserId::from_raw)?,
                config_version: f.id("config_version", ConfigVersionId::from_raw)?,
                dest: f.str("dest")?,
            },
            "run-lvs" => Op::RunLvs {
                user: f.id("user", UserId::from_raw)?,
                variant: f.id("variant", VariantId::from_raw)?,
            },
            "set-future-features" => Op::SetFutureFeatures {
                features: FutureFeatures {
                    procedural_interface: f.num("procedural")?,
                    non_isomorphic_hierarchies: f.num("non_isomorphic")?,
                    cross_project_sharing: f.num("sharing")?,
                },
            },
            "set-staging-mode" => Op::SetStagingMode {
                mode: match f.get("mode")? {
                    "zero-copy" => StagingMode::ZeroCopy,
                    "deep-copy" => StagingMode::DeepCopy,
                    other => return Err(format!("unknown staging mode {other:?}")),
                },
            },
            "import-library" => Op::ImportLibrary {
                actor: f.id("actor", UserId::from_raw)?,
                library: f.str("library")?,
                flow: f.id("flow", FlowId::from_raw)?,
                team: f.id("team", TeamId::from_raw)?,
            },
            "fmcad-create-library" => Op::FmcadCreateLibrary {
                name: f.str("name")?,
            },
            "fmcad-create-cell" => Op::FmcadCreateCell {
                library: f.str("library")?,
                cell: f.str("cell")?,
            },
            "fmcad-create-cellview" => Op::FmcadCreateCellview {
                library: f.str("library")?,
                cell: f.str("cell")?,
                view: f.str("view")?,
                viewtype: f.str("viewtype")?,
            },
            "fmcad-checkout" => Op::FmcadCheckout {
                user: f.str("user")?,
                library: f.str("library")?,
                cell: f.str("cell")?,
                view: f.str("view")?,
            },
            "fmcad-checkin" => Op::FmcadCheckin {
                user: f.str("user")?,
                library: f.str("library")?,
                cell: f.str("cell")?,
                view: f.str("view")?,
                data: f.blob("data")?,
            },
            "fmcad-purge-version" => Op::FmcadPurgeVersion {
                user: f.str("user")?,
                library: f.str("library")?,
                cell: f.str("cell")?,
                view: f.str("view")?,
                version: f.num("version")?,
            },
            "fmcad-direct-write" => Op::FmcadDirectWrite {
                library: f.str("library")?,
                cell: f.str("cell")?,
                view: f.str("view")?,
                version: f.num("version")?,
                data: f.blob("data")?,
            },
            other => return Err(format!("unknown op kind {other:?}")),
        };
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(op: Op) {
        let line = op.to_line();
        assert!(!line.contains('\n'));
        let back = Op::parse_line(&line).unwrap();
        assert_eq!(back, op, "round trip of {line}");
    }

    #[test]
    fn all_op_kinds_round_trip() {
        round_trip(Op::AddUser {
            name: "alice with space".into(),
            manager: true,
        });
        round_trip(Op::AddTeam {
            actor: UserId::from_raw(1),
            name: "t|=;:\n".into(),
        });
        round_trip(Op::AddTeamMember {
            actor: UserId::from_raw(1),
            team: TeamId::from_raw(2),
            user: UserId::from_raw(3),
        });
        round_trip(Op::RegisterViewtype {
            name: "bitstream".into(),
            application: ToolKind::Framework,
        });
        round_trip(Op::RegisterTool {
            name: "router".into(),
            kind: ToolKind::LayoutEditor,
        });
        round_trip(Op::DefineStandardFlow { name: "f".into() });
        round_trip(Op::DefineQualityGatedFlow { name: "q".into() });
        round_trip(Op::DefineFlow {
            actor: UserId::from_raw(1),
            name: "custom".into(),
        });
        round_trip(Op::AddActivity {
            actor: UserId::from_raw(1),
            flow: FlowId::from_raw(9),
            name: "enter".into(),
            tool: ToolId::from_raw(4),
            needs: vec![],
            creates: vec![ViewTypeId::from_raw(5), ViewTypeId::from_raw(6)],
            predecessors: vec![ActivityId::from_raw(7)],
        });
        round_trip(Op::FreezeFlow {
            actor: UserId::from_raw(1),
            flow: FlowId::from_raw(9),
        });
        round_trip(Op::CreateProject { name: "p".into() });
        round_trip(Op::CreateCell {
            project: ProjectId::from_raw(11),
            name: "alu".into(),
        });
        round_trip(Op::CreateCellVersion {
            cell: CellId::from_raw(12),
            flow: FlowId::from_raw(9),
            team: TeamId::from_raw(2),
        });
        round_trip(Op::DeriveVariant {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
            name: "exp".into(),
            base: Some(VariantId::from_raw(14)),
        });
        round_trip(Op::DeriveVariant {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
            name: "exp2".into(),
            base: None,
        });
        round_trip(Op::DeclareCompOf {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
            child: CellId::from_raw(15),
        });
        round_trip(Op::ShareCell {
            actor: UserId::from_raw(1),
            cell: CellId::from_raw(15),
        });
        round_trip(Op::PromoteVariant {
            user: UserId::from_raw(3),
            winner: VariantId::from_raw(14),
        });
        round_trip(Op::Reserve {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
        });
        round_trip(Op::Publish {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
        });
        round_trip(Op::CreateDesignObject {
            user: UserId::from_raw(3),
            variant: VariantId::from_raw(14),
            name: "sch".into(),
            viewtype: ViewTypeId::from_raw(5),
        });
        round_trip(Op::AddDesignObjectVersion {
            user: UserId::from_raw(3),
            design_object: DesignObjectId::from_raw(16),
            data: vec![0u8, 255, 10, 61, 124].into(),
        });
        round_trip(Op::MarkEquivalent {
            a: DovId::from_raw(17),
            b: DovId::from_raw(18),
        });
        round_trip(Op::MergeForward {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
            base_seq: 42,
            expected: vec![
                (DesignObjectId::from_raw(16), 2),
                (DesignObjectId::from_raw(21), 1),
            ],
            writes: vec![
                (DesignObjectId::from_raw(16), b"netlist y\n".to_vec().into()),
                (DesignObjectId::from_raw(21), Blob::new()),
            ],
        });
        round_trip(Op::MergeForward {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
            base_seq: 0,
            expected: vec![],
            writes: vec![],
        });
        round_trip(Op::RunActivity {
            user: UserId::from_raw(3),
            variant: VariantId::from_raw(14),
            activity: ActivityId::from_raw(7),
            override_pending: true,
            outputs: vec![
                ("schematic".into(), b"netlist x\n".to_vec().into()),
                ("layout".into(), Blob::new()),
            ],
            session_error: None,
        });
        round_trip(Op::RunActivity {
            user: UserId::from_raw(3),
            variant: VariantId::from_raw(14),
            activity: ActivityId::from_raw(7),
            override_pending: false,
            outputs: vec![],
            session_error: Some("tool: parse failed".into()),
        });
        round_trip(Op::Browse {
            user: UserId::from_raw(3),
            dov: DovId::from_raw(17),
        });
        round_trip(Op::ReadDesignData {
            user: UserId::from_raw(3),
            dov: DovId::from_raw(17),
        });
        round_trip(Op::CreateConfiguration {
            user: UserId::from_raw(3),
            cv: CellVersionId::from_raw(13),
            name: "rel".into(),
        });
        round_trip(Op::CreateConfigVersion {
            user: UserId::from_raw(3),
            config: ConfigId::from_raw(19),
            contents: vec![DovId::from_raw(17), DovId::from_raw(18)],
        });
        round_trip(Op::ExportConfig {
            user: UserId::from_raw(3),
            config_version: ConfigVersionId::from_raw(20),
            dest: "/releases/r1".into(),
        });
        round_trip(Op::RunLvs {
            user: UserId::from_raw(3),
            variant: VariantId::from_raw(14),
        });
        round_trip(Op::SetFutureFeatures {
            features: FutureFeatures::all(),
        });
        round_trip(Op::SetStagingMode {
            mode: StagingMode::DeepCopy,
        });
        round_trip(Op::ImportLibrary {
            actor: UserId::from_raw(3),
            library: "legacy".into(),
            flow: FlowId::from_raw(9),
            team: TeamId::from_raw(2),
        });
        round_trip(Op::FmcadCreateLibrary { name: "lib".into() });
        round_trip(Op::FmcadCreateCell {
            library: "lib".into(),
            cell: "c".into(),
        });
        round_trip(Op::FmcadCreateCellview {
            library: "lib".into(),
            cell: "c".into(),
            view: "schematic".into(),
            viewtype: "schematic".into(),
        });
        round_trip(Op::FmcadCheckout {
            user: "u".into(),
            library: "lib".into(),
            cell: "c".into(),
            view: "schematic".into(),
        });
        round_trip(Op::FmcadCheckin {
            user: "u".into(),
            library: "lib".into(),
            cell: "c".into(),
            view: "schematic".into(),
            data: b"bytes".to_vec().into(),
        });
        round_trip(Op::FmcadPurgeVersion {
            user: "u".into(),
            library: "lib".into(),
            cell: "c".into(),
            view: "schematic".into(),
            version: 3,
        });
        round_trip(Op::FmcadDirectWrite {
            library: "lib".into(),
            cell: "c".into(),
            view: "schematic".into(),
            version: 3,
            data: b"corrupt".to_vec().into(),
        });
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Op::parse_line("no-such-op|x=1").is_err());
        assert!(Op::parse_line("reserve|user=3").is_err());
        assert!(Op::parse_line("reserve|user=zz|cv=1").is_err());
        assert!(Op::parse_line("add-user|name=xyz|manager=true").is_err());
    }
}
