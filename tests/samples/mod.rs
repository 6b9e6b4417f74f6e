//! Sample values of every `Op` and `Event` variant, shared by the
//! codec suites: each variant filled with every nasty string, blob and
//! boundary id that fits its shape.

use cad_tools::{LvsReport, LvsViolation, ToolKind};
use cad_vfs::Blob;
use hybrid::{
    Event, ExportManifest, FutureFeatures, ImportReport, MergeConflict, Op, StagingMode,
    StandardFlow,
};
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};

/// Strings hostile to the line format: separators, sentinels, blank,
/// newline-bearing, control bytes, multi-byte UTF-8, and a long
/// hex-shaped decoy.
pub fn nasty_strings() -> Vec<String> {
    vec![
        String::new(),
        " ".to_owned(),
        "a|b=c".to_owned(),
        "line\nbreak\r\nmore".to_owned(),
        "semi;colon:pair,comma".to_owned(),
        "-".to_owned(),
        "naïve-φλοω-💡".to_owned(),
        "\u{0}\u{1}\u{7f}control".to_owned(),
        "0123456789abcdef".repeat(16),
    ]
}

/// Payloads hostile to the hex armour: empty, single byte, every byte
/// value (not valid UTF-8), embedded separators, and a large run.
pub fn nasty_blobs() -> Vec<Blob> {
    vec![
        Blob::new(),
        vec![0u8].into(),
        (0u8..=255).collect::<Vec<_>>().into(),
        b"line\nbreak|field=value;pair:sep".to_vec().into(),
        vec![0xff; 4096].into(),
    ]
}

/// Boundary id values: the codec must not treat any of them specially.
pub const IDS: [u64; 3] = [0, 1, u64::MAX];

/// Every `Op` variant instantiated with every nasty string, blob and
/// boundary id that fits its shape.
pub fn op_samples() -> Vec<Op> {
    let mut ops = Vec::new();

    for raw in IDS {
        let user = UserId::from_raw(raw);
        let team = TeamId::from_raw(raw);
        ops.push(Op::AddTeamMember {
            actor: user,
            team,
            user,
        });
        ops.push(Op::FreezeFlow {
            actor: user,
            flow: FlowId::from_raw(raw),
        });
        ops.push(Op::CreateCellVersion {
            cell: CellId::from_raw(raw),
            flow: FlowId::from_raw(raw),
            team,
        });
        ops.push(Op::DeclareCompOf {
            user,
            cv: CellVersionId::from_raw(raw),
            child: CellId::from_raw(raw),
        });
        ops.push(Op::ShareCell {
            actor: user,
            cell: CellId::from_raw(raw),
        });
        ops.push(Op::PromoteVariant {
            user,
            winner: VariantId::from_raw(raw),
        });
        ops.push(Op::Reserve {
            user,
            cv: CellVersionId::from_raw(raw),
        });
        ops.push(Op::Publish {
            user,
            cv: CellVersionId::from_raw(raw),
        });
        ops.push(Op::MarkEquivalent {
            a: DovId::from_raw(raw),
            b: DovId::from_raw(raw.wrapping_add(1)),
        });
        ops.push(Op::Browse {
            user,
            dov: DovId::from_raw(raw),
        });
        ops.push(Op::ReadDesignData {
            user,
            dov: DovId::from_raw(raw),
        });
        ops.push(Op::RunLvs {
            user,
            variant: VariantId::from_raw(raw),
        });
    }

    for name in nasty_strings() {
        let actor = UserId::from_raw(7);
        for manager in [false, true] {
            ops.push(Op::AddUser {
                name: name.clone(),
                manager,
            });
        }
        ops.push(Op::AddTeam {
            actor,
            name: name.clone(),
        });
        for kind in [
            ToolKind::SchematicEntry,
            ToolKind::LayoutEditor,
            ToolKind::Simulator,
            ToolKind::Framework,
        ] {
            ops.push(Op::RegisterViewtype {
                name: name.clone(),
                application: kind,
            });
            ops.push(Op::RegisterTool {
                name: name.clone(),
                kind,
            });
        }
        ops.push(Op::DefineStandardFlow { name: name.clone() });
        ops.push(Op::DefineQualityGatedFlow { name: name.clone() });
        ops.push(Op::DefineFlow {
            actor,
            name: name.clone(),
        });
        ops.push(Op::AddActivity {
            actor,
            flow: FlowId::from_raw(9),
            name: name.clone(),
            tool: ToolId::from_raw(4),
            needs: vec![],
            creates: vec![ViewTypeId::from_raw(0), ViewTypeId::from_raw(u64::MAX)],
            predecessors: vec![ActivityId::from_raw(7)],
        });
        ops.push(Op::CreateProject { name: name.clone() });
        ops.push(Op::CreateCell {
            project: ProjectId::from_raw(11),
            name: name.clone(),
        });
        for base in [None, Some(VariantId::from_raw(14))] {
            ops.push(Op::DeriveVariant {
                user: actor,
                cv: CellVersionId::from_raw(13),
                name: name.clone(),
                base,
            });
        }
        ops.push(Op::CreateDesignObject {
            user: actor,
            variant: VariantId::from_raw(14),
            name: name.clone(),
            viewtype: ViewTypeId::from_raw(5),
        });
        ops.push(Op::CreateConfiguration {
            user: actor,
            cv: CellVersionId::from_raw(13),
            name: name.clone(),
        });
        ops.push(Op::CreateConfigVersion {
            user: actor,
            config: ConfigId::from_raw(19),
            contents: vec![DovId::from_raw(0), DovId::from_raw(u64::MAX)],
        });
        ops.push(Op::ExportConfig {
            user: actor,
            config_version: ConfigVersionId::from_raw(20),
            dest: name.clone(),
        });
        ops.push(Op::ImportLibrary {
            actor,
            library: name.clone(),
            flow: FlowId::from_raw(9),
            team: TeamId::from_raw(2),
        });
        ops.push(Op::FmcadCreateLibrary { name: name.clone() });
        ops.push(Op::FmcadCreateCell {
            library: name.clone(),
            cell: name.clone(),
        });
        ops.push(Op::FmcadCreateCellview {
            library: name.clone(),
            cell: name.clone(),
            view: name.clone(),
            viewtype: name.clone(),
        });
        ops.push(Op::FmcadCheckout {
            user: name.clone(),
            library: name.clone(),
            cell: name.clone(),
            view: name.clone(),
        });
        ops.push(Op::FmcadPurgeVersion {
            user: name.clone(),
            library: name.clone(),
            cell: name.clone(),
            view: name.clone(),
            version: u32::MAX,
        });
        // A failed tool session whose rendered error is itself nasty.
        ops.push(Op::RunActivity {
            user: actor,
            variant: VariantId::from_raw(14),
            activity: ActivityId::from_raw(7),
            override_pending: false,
            outputs: vec![],
            session_error: Some(name.clone()),
        });
    }

    for data in nasty_blobs() {
        let user = UserId::from_raw(3);
        ops.push(Op::AddDesignObjectVersion {
            user,
            design_object: DesignObjectId::from_raw(16),
            data: data.clone(),
        });
        ops.push(Op::FmcadCheckin {
            user: "u|=;".to_owned(),
            library: String::new(),
            cell: "c\n".to_owned(),
            view: "v".to_owned(),
            data: data.clone(),
        });
        ops.push(Op::FmcadDirectWrite {
            library: "lib".to_owned(),
            cell: "c".to_owned(),
            view: "v".to_owned(),
            version: 0,
            data: data.clone(),
        });
        // A merge with boundary baselines and this payload staged,
        // plus an empty-baseline merge.
        ops.push(Op::MergeForward {
            user,
            cv: CellVersionId::from_raw(13),
            base_seq: u64::MAX,
            expected: vec![
                (DesignObjectId::from_raw(0), 0),
                (DesignObjectId::from_raw(u64::MAX), u32::MAX),
            ],
            writes: vec![
                (DesignObjectId::from_raw(16), data.clone()),
                (DesignObjectId::from_raw(17), Blob::new()),
            ],
        });
        ops.push(Op::MergeForward {
            user,
            cv: CellVersionId::from_raw(13),
            base_seq: 0,
            expected: vec![],
            writes: vec![],
        });
        // Multi-output activity pairing every nasty viewtype name with
        // this payload, plus an empty trailing output.
        ops.push(Op::RunActivity {
            user,
            variant: VariantId::from_raw(14),
            activity: ActivityId::from_raw(7),
            override_pending: true,
            outputs: nasty_strings()
                .into_iter()
                .map(|view| (view, data.clone()))
                .chain(std::iter::once(("".to_owned(), Blob::new())))
                .collect(),
            session_error: None,
        });
    }

    for features in [
        FutureFeatures::default(),
        FutureFeatures::all(),
        FutureFeatures {
            procedural_interface: true,
            ..FutureFeatures::default()
        },
    ] {
        ops.push(Op::SetFutureFeatures { features });
    }
    for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
        ops.push(Op::SetStagingMode { mode });
    }

    ops
}

/// Every `Event` variant instantiated with every nasty string, blob and
/// boundary id that fits its shape.
pub fn event_samples() -> Vec<Event> {
    let mut events = Vec::new();

    for raw in IDS {
        let next = raw.wrapping_add(1);
        let flow = StandardFlow {
            flow: FlowId::from_raw(raw),
            enter_schematic: ActivityId::from_raw(next),
            enter_layout: ActivityId::from_raw(raw),
            simulate: ActivityId::from_raw(next),
        };
        let cv = CellVersionId::from_raw(raw);
        let dovs = vec![DovId::from_raw(raw), DovId::from_raw(next)];
        events.extend([
            Event::UserAdded(UserId::from_raw(raw)),
            Event::TeamAdded(TeamId::from_raw(raw)),
            Event::TeamMemberAdded(TeamId::from_raw(raw), UserId::from_raw(next)),
            Event::ViewtypeRegistered(ViewTypeId::from_raw(raw)),
            Event::ToolRegistered(ToolId::from_raw(raw)),
            Event::StandardFlowDefined(flow),
            Event::QualityGatedFlowDefined(flow),
            Event::FlowDefined(FlowId::from_raw(raw)),
            Event::ActivityAdded(ActivityId::from_raw(raw)),
            Event::FlowFrozen(FlowId::from_raw(raw)),
            Event::ProjectCreated(ProjectId::from_raw(raw)),
            Event::CellCreated(CellId::from_raw(raw)),
            Event::CellVersionCreated(cv, VariantId::from_raw(next)),
            Event::VariantDerived(VariantId::from_raw(raw)),
            Event::CompOfDeclared(cv, CellId::from_raw(next)),
            Event::CellShared(CellId::from_raw(raw)),
            Event::VariantPromoted(cv, VariantId::from_raw(next)),
            Event::Reserved(cv),
            Event::Published(cv),
            Event::DesignObjectCreated(DesignObjectId::from_raw(raw)),
            Event::DovAdded(DovId::from_raw(raw)),
            Event::MarkedEquivalent(DovId::from_raw(raw), DovId::from_raw(next)),
            Event::MergeApplied {
                cv,
                dovs: dovs.clone(),
            },
            Event::MergeApplied { cv, dovs: vec![] },
            Event::MergeConflict {
                cv,
                conflicts: vec![
                    MergeConflict::ReservedByOther {
                        holder: UserId::from_raw(raw),
                    },
                    MergeConflict::DesignObjectAdvanced {
                        design_object: DesignObjectId::from_raw(raw),
                        expected: 0,
                        found: u32::MAX,
                    },
                ],
            },
            Event::MergeConflict {
                cv,
                conflicts: vec![],
            },
            Event::ActivityRun { dovs },
            Event::ActivityRun { dovs: vec![] },
            Event::ConfigurationCreated(ConfigId::from_raw(raw)),
            Event::ConfigVersionCreated(ConfigVersionId::from_raw(raw)),
            Event::LibraryImported(
                ProjectId::from_raw(raw),
                ImportReport {
                    cells: 0,
                    design_objects: 1,
                    versions: usize::MAX,
                    bytes_copied: raw,
                },
            ),
        ]);
    }

    for name in nasty_strings() {
        events.push(Event::ConfigExported(ExportManifest {
            files: vec![(name.clone(), u64::MAX), (String::new(), 0)],
            total_bytes: u64::MAX,
        }));
        events.push(Event::LvsRun(LvsReport {
            violations: vec![
                LvsViolation::MissingNet { net: name.clone() },
                LvsViolation::PhantomNet { net: name.clone() },
                LvsViolation::InstanceMismatch {
                    cell: name.clone(),
                    schematic: 0,
                    layout: usize::MAX,
                },
            ],
            matched_nets: 3,
        }));
    }
    events.push(Event::ConfigExported(ExportManifest {
        files: vec![],
        total_bytes: 0,
    }));
    events.push(Event::LvsRun(LvsReport {
        violations: vec![],
        matched_nets: 0,
    }));

    for data in nasty_blobs() {
        events.push(Event::Browsed { data: data.clone() });
        events.push(Event::DesignDataRead { data: data.clone() });
        events.push(Event::FmcadCheckedOut { data });
    }

    for version in [0, 1, u32::MAX] {
        events.push(Event::FmcadCheckedIn { version });
    }
    events.extend([
        Event::FutureFeaturesSet,
        Event::StagingModeSet,
        Event::FmcadLibraryCreated,
        Event::FmcadCellCreated,
        Event::FmcadCellviewCreated,
        Event::FmcadVersionPurged,
        Event::FmcadFileWritten,
    ]);

    events
}
