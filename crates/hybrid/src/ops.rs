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
//! checkpoint and replayed after a restart. The declaration below is
//! the only place a variant's line layout is written: each variant
//! names its kind string, and its fields, in order, are the line's
//! keys (the `codec` module documents the syntax). The kind names, the
//! codec and the shard router's id translation are derived from it.

use cad_tools::ToolKind;
use cad_vfs::Blob;
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};

use crate::codec::records;
use crate::framework::StagingMode;
use crate::future::FutureFeatures;

records! {
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
        AddUser "add-user" {
            /// Unique user name.
            name: String,
            /// Whether the user is a project manager.
            manager: bool,
        },
        /// Create a team (manager-only).
        AddTeam "add-team" {
            /// The acting manager.
            actor: UserId,
            /// Unique team name.
            name: String,
        },
        /// Add a user to a team (manager-only).
        AddTeamMember "add-team-member" {
            /// The acting manager.
            actor: UserId,
            /// The team.
            team: TeamId,
            /// The new member.
            user: UserId,
        },
        /// Register a viewtype on both sides of the coupling.
        RegisterViewtype "register-viewtype" {
            /// The viewtype name.
            name: String,
            /// The FMCAD application bound to the viewtype.
            application: ToolKind,
        },
        /// Register an encapsulated tool resource.
        RegisterTool "register-tool" {
            /// The tool name.
            name: String,
            /// The real application behind it.
            kind: ToolKind,
        },
        /// Define and freeze the paper's three-tool standard flow.
        DefineStandardFlow "define-standard-flow" {
            /// The flow name.
            name: String,
        },
        /// Define and freeze the quality-gated variant of the standard flow.
        DefineQualityGatedFlow "define-quality-gated-flow" {
            /// The flow name.
            name: String,
        },
        /// Define an empty custom flow.
        DefineFlow "define-flow" {
            /// The acting manager.
            actor: UserId,
            /// The flow name.
            name: String,
        },
        /// Add an activity to an unfrozen flow.
        AddActivity "add-activity" {
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
        FreezeFlow "freeze-flow" {
            /// The acting manager.
            actor: UserId,
            /// The flow to freeze.
            flow: FlowId,
        },
        /// Create a project and its coupled FMCAD library.
        CreateProject "create-project" {
            /// The project (and library) name.
            name: String,
        },
        /// Create a cell inside a project.
        CreateCell "create-cell" {
            /// The owning project.
            project: ProjectId,
            /// The cell name.
            name: String,
        },
        /// Create a cell version (with base variant) and its mapped FMCAD
        /// cell.
        CreateCellVersion "create-cell-version" {
            /// The cell.
            cell: CellId,
            /// The governing flow.
            flow: FlowId,
            /// The owning team.
            team: TeamId,
        },
        /// Derive a named variant inside a reserved cell version.
        DeriveVariant "derive-variant" {
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
        DeclareCompOf "declare-comp-of" {
            /// The reserving designer.
            user: UserId,
            /// The parent cell version.
            cv: CellVersionId,
            /// The child cell.
            child: CellId,
        },
        /// Share a cell across projects (future-work feature).
        ShareCell "share-cell" {
            /// The acting manager.
            actor: UserId,
            /// The cell to share.
            cell: CellId,
        },
        /// Promote a winning variant into a new cell version.
        PromoteVariant "promote-variant" {
            /// The reserving designer.
            user: UserId,
            /// The winning variant.
            winner: VariantId,
        },
        /// Reserve a cell version into a designer's workspace.
        Reserve "reserve" {
            /// The designer.
            user: UserId,
            /// The cell version.
            cv: CellVersionId,
        },
        /// Publish a reserved cell version back to the team.
        Publish "publish" {
            /// The reserving designer.
            user: UserId,
            /// The cell version.
            cv: CellVersionId,
        },
        /// Create a design object under a variant via the desktop.
        CreateDesignObject "create-design-object" {
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
        AddDesignObjectVersion "add-design-object-version" {
            /// The reserving designer.
            user: UserId,
            /// The design object.
            design_object: DesignObjectId,
            /// The design data.
            data: Blob,
        },
        /// Record that two design object versions are equivalent.
        MarkEquivalent "mark-equivalent" {
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
        MergeForward "merge-forward" {
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
        /// [`HybridError::Journal`](crate::HybridError::Journal) error)
        /// after the same partial pipeline.
        RunActivity "run-activity" {
            /// The designer running the activity.
            user: UserId,
            /// The variant worked on.
            variant: VariantId,
            /// The activity.
            activity: ActivityId,
            /// Whether a pending predecessor was overridden.
            override_pending "override": bool,
            /// The produced `(viewtype name, data)` outputs.
            outputs: Vec<(String, Blob)>,
            /// The rendered error of a failed tool session, if any.
            session_error: Option<String>,
        },
        /// Browse (read-only open) a design object version; pays the §3.6
        /// copy path and bumps the UI counter, so it is journaled.
        Browse "browse" {
            /// The reading user.
            user: UserId,
            /// The version to browse.
            dov: DovId,
        },
        /// Read design data via the desktop (bumps the desktop counter).
        ReadDesignData "read-design-data" {
            /// The reading user.
            user: UserId,
            /// The version to read.
            dov: DovId,
        },
        /// Create a configuration under a cell version.
        CreateConfiguration "create-configuration" {
            /// The acting user.
            user: UserId,
            /// The owning cell version.
            cv: CellVersionId,
            /// The configuration name.
            name: String,
        },
        /// Freeze a selection of design object versions as a configuration
        /// version.
        CreateConfigVersion "create-config-version" {
            /// The acting user.
            user: UserId,
            /// The configuration.
            config: ConfigId,
            /// The selected design object versions.
            contents: Vec<DovId>,
        },
        /// Export a configuration version into a directory of the shared
        /// file system (the tapeout package).
        ExportConfig "export-config" {
            /// The acting user.
            user: UserId,
            /// The configuration version.
            config_version: ConfigVersionId,
            /// Destination directory (absolute VFS path).
            dest: String,
        },
        /// Run layout-versus-schematic on a variant's latest views.
        RunLvs "run-lvs" {
            /// The acting user.
            user: UserId,
            /// The variant to check.
            variant: VariantId,
        },
        /// Switch the future-work feature set.
        SetFutureFeatures "set-future-features" {
            /// The new switches.
            features: FutureFeatures,
        },
        /// Switch how design data moves through the staging area.
        SetStagingMode "set-staging-mode" {
            /// The new mode.
            mode: StagingMode,
        },
        /// Import an uncoupled FMCAD library into the master (Table 1).
        ImportLibrary "import-library" {
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
        FmcadCreateLibrary "fmcad-create-library" {
            /// The library name.
            name: String,
        },
        /// Create a cell in an FMCAD library directly.
        FmcadCreateCell "fmcad-create-cell" {
            /// The library.
            library: String,
            /// The cell name.
            cell: String,
        },
        /// Create a cellview in an FMCAD library directly.
        FmcadCreateCellview "fmcad-create-cellview" {
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
        FmcadCheckout "fmcad-checkout" {
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
        FmcadCheckin "fmcad-checkin" {
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
        FmcadPurgeVersion "fmcad-purge-version" {
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
        FmcadDirectWrite "fmcad-direct-write" {
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
}

impl Op {
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
